//! Whole-binary speculative-gadget scanning over lowered RV32
//! programs.
//!
//! The litmus checker ([`crate::corpus`]) analyzes hand-written
//! mini-ISA programs one at a time. This module is the binary-scanner
//! configuration of the same fixpoint, aimed at *compiled* RV32
//! images:
//!
//! 1. [`crate::callgraph`] recovers the function structure from the
//!    lowering [`Provenance`] and resolves every `jalr` (returns go to
//!    their callers' return points, indirect calls to the known
//!    entries);
//! 2. [`crate::cfg::Cfg::build_with_jalr_targets`] threads those edges
//!    into one interprocedural CFG;
//! 3. [`crate::taint::analyze_with`] runs the STT taint fixpoint over
//!    it under the region-partitioned memory lattice
//!    ([`crate::memory::MemModel::Regions`]) — stack slots, named
//!    globals and an unknown summary instead of one cell;
//! 4. every (speculative access → transmitter) pair the analysis
//!    proves *may* leak becomes a typed [`Gadget`] with a
//!    control-flow witness path, all pcs mapped back to **RV32 byte
//!    addresses** through the provenance side table;
//! 5. [`ScanResult::gadgets_for`] projects the variant-independent
//!    chains through the shared suppression table
//!    (`sdo_verify::policy::closes`) — a gadget is reported under a
//!    variant only on a channel that variant leaves open.
//!
//! Like the rest of the crate this is a *may* analysis: a reported
//! gadget is a candidate, and `sdo-verify`'s secret-swap replay
//! (`sdo_verify::gadget`) classifies it CONFIRMED or OVER-APPROX
//! dynamically.

use crate::callgraph;
use crate::cfg::Cfg;
use crate::findings::{
    channel_name, int_field, int_list_field, join_u64, mechanism_suppresses, parse_channel,
    parse_variant, str_field,
};
use crate::memory::MemModel;
use crate::taint::{analyze_with, Analysis};
use sdo_harness::export::Column;
use sdo_harness::proto::escape_json;
use sdo_harness::Variant;
use sdo_isa::Program;
use sdo_rv32::Provenance;
use sdo_workloads::Channel;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One speculative transmit gadget, reported for one protection
/// variant, with every pc in **RV32 byte-address space** (not µop
/// indices — the scanner's output names locations in the binary the
/// user compiled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gadget {
    /// Program (image) name.
    pub program: String,
    /// Protection variant the gadget is reported under (its channel is
    /// open under this variant).
    pub variant: Variant,
    /// Covert channel the transmitter uses.
    pub channel: Channel,
    /// RV32 address of the speculative access the secret enters at.
    pub access_pc: u64,
    /// RV32 address of the transmitter the secret leaves through.
    pub transmit_pc: u64,
    /// RV32 address of the oldest conditional branch the chain is
    /// speculative under (the branch an attacker mistrains).
    pub pending_branch: u64,
    /// RV32 addresses of a control-flow path from the access to the
    /// transmitter (block terminators between them), the witness that
    /// the chain is reachable in the threaded CFG.
    pub witness_path: Vec<u64>,
}

impl Gadget {
    /// Serializes the gadget as one JSONL record.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"type\":\"gadget\",\"program\":\"{}\",\"variant\":\"{}\",\"channel\":\"{}\",\
             \"access_pc\":{},\"transmit_pc\":{},\"pending_branch\":{},\"witness_path\":[{}]}}",
            escape_json(&self.program),
            self.variant.slug(),
            channel_name(self.channel),
            self.access_pc,
            self.transmit_pc,
            self.pending_branch,
            join_u64(&self.witness_path, ","),
        )
    }

    /// Parses one line produced by [`Gadget::to_jsonl`] — the same
    /// machine-consumable round-trip contract as
    /// `sdo_verify::Counterexample` and [`crate::Finding`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse_jsonl(line: &str) -> Result<Gadget, String> {
        Ok(Gadget {
            program: str_field(line, "program")?,
            variant: parse_variant(&str_field(line, "variant")?)?,
            channel: parse_channel(&str_field(line, "channel")?)?,
            access_pc: int_field(line, "access_pc")?,
            transmit_pc: int_field(line, "transmit_pc")?,
            pending_branch: int_field(line, "pending_branch")?,
            witness_path: int_list_field(line, "witness_path")?,
        })
    }
}

/// CSV column descriptors for [`Gadget`] rows.
pub const GADGET_COLUMNS: &[Column<Gadget>] = &[
    Column { name: "program", extract: |g| g.program.clone() },
    Column { name: "variant", extract: |g| g.variant.slug().to_string() },
    Column { name: "channel", extract: |g| channel_name(g.channel).to_string() },
    Column { name: "access_pc", extract: |g| g.access_pc.to_string() },
    Column { name: "transmit_pc", extract: |g| g.transmit_pc.to_string() },
    Column { name: "pending_branch", extract: |g| g.pending_branch.to_string() },
    Column { name: "witness", extract: |g| join_u64(&g.witness_path, "+") },
];

/// Renders gadgets as CSV (header + one row per gadget).
#[must_use]
pub fn gadgets_csv(gadgets: &[Gadget]) -> String {
    sdo_harness::export::table_csv(GADGET_COLUMNS, gadgets)
}

/// One variant-independent (access → transmit) chain, already mapped
/// to RV32 addresses.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Chain {
    channel: Channel,
    access_pc: u64,
    transmit_pc: u64,
    pending_branch: u64,
    witness_path: Vec<u64>,
}

/// Result of scanning one binary: the raw interprocedural taint
/// analysis plus the extracted gadget chains and call-graph stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// The underlying taint analysis (µop-indexed sites).
    pub analysis: Analysis,
    /// Recovered function count.
    pub functions: usize,
    /// Call-site count (direct + indirect).
    pub call_sites: usize,
    chains: Vec<Chain>,
}

impl ScanResult {
    /// Number of variant-independent gadget chains.
    #[must_use]
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Gadgets reported under `variant`: every chain whose channel the
    /// variant leaves open (projection through the shared suppression
    /// table `sdo_verify::policy::closes`).
    #[must_use]
    pub fn gadgets_for(&self, variant: Variant) -> Vec<Gadget> {
        self.chains
            .iter()
            .filter(|c| !mechanism_suppresses(variant, c.channel))
            .map(|c| Gadget {
                program: self.analysis.program.clone(),
                variant,
                channel: c.channel,
                access_pc: c.access_pc,
                transmit_pc: c.transmit_pc,
                pending_branch: c.pending_branch,
                witness_path: c.witness_path.clone(),
            })
            .collect()
    }

    /// Gadgets across every variant, in [`Variant::ALL`] order.
    #[must_use]
    pub fn gadgets_all_variants(&self) -> Vec<Gadget> {
        Variant::ALL.into_iter().flat_map(|v| self.gadgets_for(v)).collect()
    }
}

/// Scans one lowered RV32 program: callgraph recovery, threaded
/// interprocedural CFG, region-memory taint fixpoint, gadget-chain
/// extraction. Pure function of the instruction stream + provenance.
#[must_use]
pub fn scan_program(program: &Program, prov: &Provenance) -> ScanResult {
    let cg = callgraph::build(program, prov);
    let cfg = Cfg::build_with_jalr_targets(program, &cg.jalr_succs);
    let analysis = analyze_with(program, &cfg, MemModel::Regions);
    let chains = extract_chains(&analysis, &cfg, prov);
    ScanResult { analysis, functions: cg.functions.len(), call_sites: prov.calls.len(), chains }
}

/// Maps a µop pc to its RV32 byte address (falls back to the µop index
/// for out-of-provenance pcs, which cannot happen for translated
/// images but keeps the function total).
fn rv32_addr(prov: &Provenance, uop: u64) -> u64 {
    prov.rv32_pc(uop).map_or(uop, u64::from)
}

/// Builds one chain per (transmit site, taint source), mapped to RV32
/// addresses and deduplicated (several µops of one RV32 instruction
/// collapse to the same address).
fn extract_chains(analysis: &Analysis, cfg: &Cfg, prov: &Provenance) -> Vec<Chain> {
    let mut out: BTreeSet<Chain> = BTreeSet::new();
    for t in &analysis.transmits {
        // Oldest mispredictable branch the chain rides on. A tainted
        // value always has at least one pending branch; guard anyway.
        let pending_branch = t.branches.iter().copied().min().map_or(0, |b| rv32_addr(prov, b));
        let sources: Vec<u64> =
            if t.sources.is_empty() { vec![t.pc] } else { t.sources.clone() };
        for &src in &sources {
            out.insert(Chain {
                channel: t.channel,
                access_pc: rv32_addr(prov, src),
                transmit_pc: rv32_addr(prov, t.pc),
                pending_branch,
                witness_path: witness(cfg, prov, src, t.pc),
            });
        }
    }
    out.into_iter().collect()
}

/// A shortest block path from the access to the transmitter, rendered
/// as RV32 addresses: the access, each intervening block terminator,
/// the transmitter. Consecutive duplicates (µops of one RV32
/// instruction) are collapsed. Falls back to `[access, transmit]`
/// when no CFG path exists (taint flowed through memory joins).
fn witness(cfg: &Cfg, prov: &Provenance, access: u64, transmit: u64) -> Vec<u64> {
    let from = cfg.block_of(access);
    let to = cfg.block_of(transmit);

    // BFS for a shortest block path from..=to.
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(from);
    let mut found = from == to;
    while let Some(b) = queue.pop_front() {
        if found {
            break;
        }
        for &s in &cfg.blocks()[b].succs {
            if s == cfg.exit() || prev.contains_key(&s) || s == from {
                continue;
            }
            prev.insert(s, b);
            if s == to {
                found = true;
                break;
            }
            queue.push_back(s);
        }
    }

    let mut uops: Vec<u64> = vec![access];
    if found && from != to {
        let mut blocks = vec![to];
        let mut b = to;
        while let Some(&p) = prev.get(&b) {
            blocks.push(p);
            b = p;
        }
        blocks.reverse();
        // Terminators of every block on the path except the last (the
        // transmitter's own block contributes the transmitter itself).
        for &blk in &blocks[..blocks.len() - 1] {
            let term = cfg.blocks()[blk].terminator_pc();
            if term != access {
                uops.push(term);
            }
        }
    }
    uops.push(transmit);

    let mut path: Vec<u64> = Vec::with_capacity(uops.len());
    for u in uops {
        let a = rv32_addr(prov, u);
        if path.last() != Some(&a) {
            path.push(a);
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_rv32::{corpus, translate_with_provenance};

    fn scan_corpus(name: &str) -> ScanResult {
        let entry = corpus::CORPUS.iter().find(|e| e.name == name).expect("corpus entry");
        let (program, prov) =
            translate_with_provenance(&entry.image(), entry.name).expect("translates");
        scan_program(&program, &prov)
    }

    #[test]
    fn gadget_binary_is_flagged_under_unsafe_and_suppressed_under_sdo() {
        let scan = scan_corpus("rv32_gadget");
        assert!(scan.chain_count() > 0, "the Spectre-v1 gadget must be found");

        let unsafe_gadgets = scan.gadgets_for(Variant::Unsafe);
        assert!(!unsafe_gadgets.is_empty());
        assert!(unsafe_gadgets.iter().all(|g| g.channel == Channel::Cache));
        for g in &unsafe_gadgets {
            assert!(g.witness_path.first() == Some(&g.access_pc));
            assert!(g.witness_path.last() == Some(&g.transmit_pc));
        }

        for v in [Variant::StaticL1, Variant::Hybrid, Variant::SttLd] {
            assert!(scan.gadgets_for(v).is_empty(), "{v:?} closes the cache channel");
        }
    }

    #[test]
    fn benchmark_kernels_are_gadget_free() {
        for name in ["rv32_crc32", "rv32_matmul", "rv32_sort", "rv32_strsearch"] {
            let scan = scan_corpus(name);
            assert_eq!(scan.chain_count(), 0, "{name} must scan clean");
        }
    }

    #[test]
    fn gadget_jsonl_round_trips() {
        let scan = scan_corpus("rv32_gadget");
        for g in scan.gadgets_all_variants() {
            let line = g.to_jsonl();
            let back = Gadget::parse_jsonl(&line).expect("parses back");
            assert_eq!(back, g);
            assert_eq!(back.to_jsonl(), line, "byte-identical re-serialization");
        }
    }

    #[test]
    fn scan_is_deterministic() {
        let a = scan_corpus("rv32_gadget");
        let b = scan_corpus("rv32_gadget");
        assert_eq!(a, b);
        assert_eq!(
            a.gadgets_all_variants()
                .iter()
                .map(Gadget::to_jsonl)
                .collect::<Vec<_>>(),
            b.gadgets_all_variants().iter().map(Gadget::to_jsonl).collect::<Vec<_>>(),
        );
    }
}
