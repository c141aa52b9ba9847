//! Structured counterexample reports, as round-trippable JSONL.
//!
//! When a check fails — or when the unsafe baseline demonstrates the
//! leak the protections exist to stop — the campaign materializes a
//! [`Counterexample`]: what was checked, what went wrong, how to
//! reproduce it (seed + gadget recipe), and a window of pipeline events
//! around the point of interest. The wire format is JSONL in the same
//! hand-rolled dialect as [`sdo_obs`]'s event traces (the workspace has
//! no serde): one header object on the first line, then one
//! [`Event`] object per window event. Serialization is
//! deterministic and [`Counterexample::parse_jsonl`] round-trips
//! byte-identically, so reports can be diffed across reruns.

use crate::checker::SwapOutcome;
use crate::oracle::Invariant;
use sdo_harness::cli::{parse_attack, parse_variant};
use sdo_harness::proto::{escape_json, unescape_json};
use sdo_harness::Variant;
use sdo_obs::{Event, EventTrace};
use sdo_uarch::AttackModel;

/// What kind of finding a counterexample records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CexKind {
    /// A protected variant's observables depended on the secret.
    UnexpectedDivergence,
    /// A positive control failed: the unsafe baseline did *not* leak
    /// where ground truth says it must (the checker has gone blind).
    MissingDivergence,
    /// The invariant oracle flagged a mechanical violation.
    OracleViolation(Invariant),
    /// Demonstration (not a failure): the unsafe baseline leaking on a
    /// (minimized) litmus program — the attack the protections block.
    BaselineLeak,
}

impl CexKind {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            CexKind::UnexpectedDivergence => "unexpected_divergence".into(),
            CexKind::MissingDivergence => "missing_divergence".into(),
            CexKind::OracleViolation(inv) => format!("oracle_violation:{}", inv.name()),
            CexKind::BaselineLeak => "baseline_leak".into(),
        }
    }

    /// Parses a name produced by [`CexKind::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<CexKind> {
        if let Some(inv) = s.strip_prefix("oracle_violation:") {
            return Invariant::parse(inv).map(CexKind::OracleViolation);
        }
        Some(match s {
            "unexpected_divergence" => CexKind::UnexpectedDivergence,
            "missing_divergence" => CexKind::MissingDivergence,
            "baseline_leak" => CexKind::BaselineLeak,
            _ => return None,
        })
    }

    /// Whether this kind represents a verification failure (as opposed
    /// to the baseline-leak demonstration artifact).
    #[must_use]
    pub fn is_failure(self) -> bool {
        !matches!(self, CexKind::BaselineLeak)
    }
}

/// One materialized finding, reproducible from its header alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Litmus case or fuzz spec name.
    pub case: String,
    /// Variant under which the finding occurred.
    pub variant: Variant,
    /// Attack model in force.
    pub attack: AttackModel,
    /// What kind of finding.
    pub kind: CexKind,
    /// Campaign seed (reproduces fuzz specs bit-for-bit).
    pub seed: u64,
    /// Gadget recipe for fuzzed programs (empty for corpus cases),
    /// after minimization.
    pub gadgets: Vec<String>,
    /// One-line explanation (divergence or violation description).
    pub detail: String,
    /// Pipeline events around the point of interest.
    pub window: Vec<Event>,
}

impl Counterexample {
    /// Builds a counterexample from a failed (or, for
    /// [`CexKind::BaselineLeak`], a demonstrative) swap outcome.
    #[must_use]
    pub fn from_outcome(o: &SwapOutcome, seed: u64, gadgets: Vec<String>) -> Counterexample {
        // Priority: a wrong divergence verdict outranks an oracle
        // finding; the baseline-leak demonstration is the no-failure
        // residual.
        let (kind, detail) = match (&o.divergence, o.expected_divergence, o.violations.first()) {
            (Some(d), false, _) => (CexKind::UnexpectedDivergence, d.describe()),
            (None, true, _) => (
                CexKind::MissingDivergence,
                "expected the secret swap to diverge, observables were identical".to_string(),
            ),
            (_, _, Some(v)) => (CexKind::OracleViolation(v.invariant), v.detail.clone()),
            (Some(d), true, None) => (CexKind::BaselineLeak, d.describe()),
            (None, false, None) => (CexKind::BaselineLeak, "no finding".to_string()),
        };
        Counterexample {
            case: o.case.clone(),
            variant: o.variant,
            attack: o.attack,
            kind,
            seed,
            gadgets,
            detail,
            window: o.window.clone(),
        }
    }

    /// A stable file name for this counterexample.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{}_{}_{}.jsonl", self.case, self.variant.slug(), match self.attack {
            AttackModel::Spectre => "spectre",
            AttackModel::Futuristic => "futuristic",
        })
    }

    /// Serializes as JSONL: one header line, then one line per window
    /// event. Deterministic: equal counterexamples serialize
    /// byte-identically.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"counterexample\",\"case\":\"{}\",\"variant\":\"{}\",\
             \"attack\":\"{}\",\"kind\":\"{}\",\"seed\":{},\"gadgets\":\"{}\",\
             \"detail\":\"{}\"}}\n",
            self.case,
            self.variant.slug(),
            match self.attack {
                AttackModel::Spectre => "spectre",
                AttackModel::Futuristic => "futuristic",
            },
            self.kind.name(),
            self.seed,
            self.gadgets.join("+"),
            escape_json(&self.detail),
        );
        for ev in &self.window {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses text produced by [`Counterexample::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field or event
    /// line.
    pub fn parse_jsonl(text: &str) -> Result<Counterexample, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| "empty report".to_string())?;
        let case = simple_str_field(header, "case")?.to_string();
        let variant = parse_variant(simple_str_field(header, "variant")?)?;
        let attack = parse_attack(simple_str_field(header, "attack")?)?;
        let kind_s = simple_str_field(header, "kind")?;
        let kind =
            CexKind::parse(kind_s).ok_or_else(|| format!("unknown kind {kind_s:?}"))?;
        let seed = simple_str_like_int(header, "seed")?;
        let gadgets_s = simple_str_field(header, "gadgets")?;
        let gadgets = if gadgets_s.is_empty() {
            Vec::new()
        } else {
            gadgets_s.split('+').map(str::to_string).collect()
        };
        // `detail` is the final field and the only one that may contain
        // escapes: take everything between its opening quote and the
        // header's closing `"}`.
        let detail_raw = header
            .split_once("\"detail\":\"")
            .and_then(|(_, rest)| rest.strip_suffix("\"}"))
            .ok_or_else(|| "missing or malformed detail field".to_string())?;
        let detail = unescape_json(detail_raw).map_err(|e| format!("detail field: {e}"))?;
        let window_text: String = lines.map(|l| format!("{l}\n")).collect();
        let window = EventTrace::parse_jsonl(&window_text)?.events().to_vec();
        Ok(Counterexample { case, variant, attack, kind, seed, gadgets, detail, window })
    }
}

/// Extracts an escape-free `"key":"value"` string field from a header
/// line (usable for every field except `detail`).
fn simple_str_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":\"");
    let start =
        line.find(&pat).ok_or_else(|| format!("missing field {key:?}"))? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"').ok_or_else(|| format!("unterminated field {key:?}"))?;
    Ok(&rest[..end])
}

fn simple_str_like_int(line: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let start =
        line.find(&pat).ok_or_else(|| format!("missing field {key:?}"))? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated field {key:?}"))?;
    rest[..end]
        .trim()
        .parse()
        .map_err(|e| format!("bad integer for {key:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_obs::{EventKind, MemOp};

    fn sample() -> Counterexample {
        Counterexample {
            case: "spectre_v1".into(),
            variant: Variant::Unsafe,
            attack: AttackModel::Spectre,
            kind: CexKind::BaselineLeak,
            seed: 7,
            gadgets: vec!["alu_noise(3)".into(), "spectre_cache".into()],
            detail: "visible event 12 differs: {\"cycle\":9} vs {\"cycle\":11}".into(),
            window: vec![
                Event { cycle: 9, seq: 4, pc: 16, kind: EventKind::Commit },
                Event {
                    cycle: 10,
                    seq: 5,
                    pc: 20,
                    kind: EventKind::MemAccess { line: 0x4_0042, op: MemOp::Load, tainted: false },
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let cex = sample();
        let text = cex.to_jsonl();
        let back = Counterexample::parse_jsonl(&text).unwrap();
        assert_eq!(back, cex);
        assert_eq!(back.to_jsonl(), text, "re-serialization must be byte-identical");
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
    }

    #[test]
    fn detail_escaping_survives_quotes_and_backslashes() {
        let mut cex = sample();
        cex.detail = "quote \" backslash \\ done".into();
        let back = Counterexample::parse_jsonl(&cex.to_jsonl()).unwrap();
        assert_eq!(back.detail, cex.detail);
    }

    #[test]
    fn detail_control_characters_and_embedded_keys_round_trip() {
        // A newline in the detail once split the header line in two; a
        // detail that spells `"kind":` must not shadow the real field.
        for detail in ["line\nbreak", "tab\there", "bell\u{1}", "\"kind\":\"baseline_leak\",\"seed\":1"] {
            let mut cex = sample();
            cex.detail = detail.into();
            let text = cex.to_jsonl();
            let header = text.lines().next().unwrap();
            assert!(!header.chars().any(char::is_control), "raw control char in {header:?}");
            let back = Counterexample::parse_jsonl(&text).unwrap();
            assert_eq!(back, cex);
            assert_eq!(back.to_jsonl(), text);
        }
    }

    #[test]
    fn empty_gadgets_round_trip_empty() {
        let mut cex = sample();
        cex.gadgets = Vec::new();
        cex.window = Vec::new();
        let back = Counterexample::parse_jsonl(&cex.to_jsonl()).unwrap();
        assert!(back.gadgets.is_empty());
        assert!(back.window.is_empty());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            CexKind::UnexpectedDivergence,
            CexKind::MissingDivergence,
            CexKind::OracleViolation(Invariant::TaintedLoad),
            CexKind::OracleViolation(Invariant::PreSafeAction),
            CexKind::BaselineLeak,
        ] {
            assert_eq!(CexKind::parse(&kind.name()), Some(kind));
        }
        assert!(CexKind::parse("nope").is_none());
        assert!(CexKind::parse("oracle_violation:nope").is_none());
    }

    #[test]
    fn failure_classification() {
        assert!(CexKind::UnexpectedDivergence.is_failure());
        assert!(CexKind::MissingDivergence.is_failure());
        assert!(CexKind::OracleViolation(Invariant::TaintedLoad).is_failure());
        assert!(!CexKind::BaselineLeak.is_failure());
    }

    #[test]
    fn file_names_are_fs_safe() {
        let n = sample().file_name();
        assert_eq!(n, "spectre_v1_unsafe_spectre.jsonl");
        assert!(!n.contains([' ', '{', '}', '/']));
    }
}
