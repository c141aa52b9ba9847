//! `verify_campaign`: four full secret-swap campaigns of 64 fuzz specs each.
//!
//! The only workload that runs with observability on: event trace,
//! observable projection, invariant oracle and minimizer. A pass is
//! `CampaignConfig::run` on the worker pool for the workload seed's own
//! campaign and [`COMPANION_SEEDS`]; every pass of a run does the same
//! work.
//!
//! One campaign's cost varies about twofold with its seed, because the
//! seed decides which fuzz specs leak and how long the minimizer works
//! on them. The companions are the same in every run, so across a
//! series of seeds only a quarter of a pass's work changes, and that
//! variation does not swamp the host's own.

use crate::check::{self, Tally};
use crate::trace::Tracer;
use crate::{Bench, Ctx, Pass};
use sdo_isa::{Interpreter, Program};
use sdo_verify::{oracle, CampaignConfig, CampaignResult, Checker, SECRET_PAIR};
use sdo_workloads::CORPUS;
use std::collections::HashMap;
use std::time::Instant;

/// Fuzz specs per campaign.
const FUZZ_COUNT: usize = 64;

/// Seeds of the campaigns each pass runs after the workload seed's own:
/// those seed 0 used to derive, so seed 0's pinned digest still covers
/// the same four campaigns.
const COMPANION_SEEDS: [u64; 3] = [
    0x9E37_79B9_7F4A_7C15,
    0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2),
    0x9E37_79B9_7F4A_7C15u64.wrapping_mul(3),
];

/// Instruction budget for the golden interpreter on litmus programs.
const GOLDEN_STEPS: u64 = 10_000_000;

/// A check's program, by case name, built with each secret of
/// [`SECRET_PAIR`].
type Programs = HashMap<String, (Program, Program)>;

/// `verify_campaign`.
#[derive(Debug)]
pub struct Campaign {
    cfgs: Vec<CampaignConfig>,
    /// The programs of every campaign's checks.
    programs: Programs,
    checker: Checker,
    /// Golden instruction count of each case's two runs together.
    insts: HashMap<String, u64>,
    /// The last pass's first campaign, which the split phase re-runs.
    last: Option<CampaignResult>,
}

impl Bench for Campaign {
    fn setup(ctx: &Ctx, tracer: Option<&Tracer>, root: u64, _n: usize) -> Self {
        let cfgs: Vec<CampaignConfig> = std::iter::once(ctx.seed)
            .chain(COMPANION_SEEDS)
            .map(|seed| CampaignConfig {
                seed,
                quick: false,
                fuzz_count: Some(FUZZ_COUNT),
                variants: None,
            })
            .collect();
        let generate = || {
            let (a, b) = SECRET_PAIR;
            let mut programs: Programs = CORPUS
                .iter()
                .map(|c| (c.name.to_string(), ((c.build)(a), (c.build)(b))))
                .collect();
            for s in cfgs.iter().flat_map(CampaignConfig::fuzz_specs) {
                programs.insert(s.name(), (s.build(a), s.build(b)));
            }
            programs
        };
        let programs = match tracer {
            Some(t) => t.span("workloads.build", Some(root), None, |_| generate()),
            None => generate(),
        };
        Campaign {
            cfgs,
            programs,
            checker: Checker::with_config(ctx.cfg),
            insts: HashMap::new(),
            last: None,
        }
    }

    fn reference(&mut self, _ctx: &Ctx) {
        let count = |p: &Program| {
            let mut interp = Interpreter::new(p);
            interp.run(GOLDEN_STEPS).map_or(0, |_| interp.executed())
        };
        self.insts = self
            .programs
            .iter()
            .map(|(name, (a, b))| (name.clone(), count(a) + count(b)))
            .collect();
    }

    fn pass(&mut self, ctx: &Ctx, tracer: Option<(&Tracer, u64)>) -> Pass {
        let t = Instant::now();
        let results = self
            .cfgs
            .iter()
            .map(|cfg| match tracer {
                Some((tr, root)) => tr.span("verify.campaign", Some(root), None, |_| {
                    cfg.run(&self.checker, &ctx.pool)
                }),
                None => cfg.run(&self.checker, &ctx.pool),
            })
            .collect::<Result<Vec<_>, _>>();
        let secs = t.elapsed().as_secs_f64();
        let results = match results {
            Ok(r) => r,
            Err(e) => return crate::pipeline::failed_pass(secs, self.cfgs.len(), &e.to_string()),
        };
        let mut tally = Tally::default();
        for result in &results {
            for o in &result.outcomes {
                tally.check(o.passed(), || o.describe());
            }
            tally.check(result.passed(), || {
                format!(
                    "campaign {} failed: a check failed or no positive control leaked",
                    result.config.seed
                )
            });
        }
        let digest = check::campaign_digest(&results);
        tally.add(check::check_pinned(
            self.cfgs[0].seed,
            &[("campaign digest", &digest, check::CAMPAIGN_DIGEST_SEED0)],
        ));
        let outcomes = || results.iter().flat_map(|r| &r.outcomes);
        let insts: u64 = outcomes()
            .map(|o| self.insts.get(&o.case).copied().unwrap_or(0))
            .sum();
        let stats = outcomes()
            .flat_map(|o| {
                [
                    u64::from(o.passed()),
                    u64::from(o.divergence.is_some()),
                    o.violations.len() as u64,
                ]
            })
            .collect();
        self.last = results.into_iter().next();
        Pass {
            secs,
            minsts: insts as f64 / 1e6,
            batches_ms: vec![secs * 1e3],
            tally,
            digest,
            headline: None,
            stats,
        }
    }

    /// Re-runs every check of the last pass's first campaign on the
    /// pool, one step at a time: two captures (`verify.capture`) and the
    /// comparison of their observables plus the oracle over both event
    /// streams (`verify.compare`). Each verdict must equal the campaign's.
    fn split(&mut self, ctx: &Ctx, tracer: &Tracer, root: u64) -> Tally {
        let Some(result) = &self.last else {
            return Tally::default();
        };
        let checker = &self.checker;
        let programs = &self.programs;
        let agree = tracer.span("engine.batch", Some(root), None, |batch| {
            ctx.pool.run(&result.outcomes, |i, o| {
                tracer.span("engine.job", Some(batch), Some(i as u64), |job| {
                    let Some((pa, pb)) = programs.get(&o.case) else {
                        return false;
                    };
                    let id = Some(i as u64);
                    let capture = |p: &Program| {
                        tracer.span("verify.capture", Some(job), id, |_| {
                            checker.capture(p, o.variant, o.attack)
                        })
                    };
                    let (Ok(a), Ok(b)) = (capture(pa), capture(pb)) else {
                        return false;
                    };
                    tracer.add("verify.events", (a.events.len() + b.events.len()) as f64);
                    tracer.add("verify.checks", 1.0);
                    tracer.span("verify.compare", Some(job), id, |_| {
                        let divergence = a.observable.divergence(&b.observable);
                        let mut violations = oracle::check(o.variant, &a.events);
                        violations.extend(oracle::check(o.variant, &b.events));
                        divergence == o.divergence
                            && format!("{violations:?}") == format!("{:?}", o.violations)
                    })
                })
            })
        });
        let mut t = Tally::default();
        for (o, ok) in result.outcomes.iter().zip(agree) {
            t.check(ok, || {
                format!("re-run check differs from the campaign's: {}", o.describe())
            });
        }
        t
    }
}
