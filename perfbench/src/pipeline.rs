//! The sweep, and the traced path through the layers.
//!
//! Untraced passes call the public entry points (`run_suite_on` over a
//! `Runner`). Traced passes take the same steps one layer call at a
//! time — key, load, simulate on the pool, save — so each call gets a
//! span; their simulated statistics must equal the untraced ones.

use crate::check::{self, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Pass};
use sdo_harness::experiments::{fig6_report, SuiteResults};
use sdo_harness::export::{fig6_csv, runs_csv};
use sdo_harness::store::{sha256, ResultStore, RunKey};
use sdo_harness::{proto, AttackModel, RunRequest, RunResult, SimConfig, SimError, Variant};
use sdo_mem::MemorySystem;
use sdo_uarch::Core;
use sdo_workloads::Workload;
use std::hint::black_box;

/// The sweep's requests for `attacks`, in `run_suite_on` order
/// (attack-major, then kernel, then variant).
pub fn sweep_requests(kernels: &[Workload], attacks: &[AttackModel]) -> Vec<RunRequest> {
    let mut reqs = Vec::with_capacity(attacks.len() * kernels.len() * Variant::ALL.len());
    for &attack in attacks {
        for w in kernels {
            for &variant in &Variant::ALL {
                reqs.push(RunRequest::workload(w).variant(variant).attack(attack));
            }
        }
    }
    reqs
}

/// Shapes a flat result list in [`sweep_requests`] order (all attack
/// models) into `SuiteResults`.
pub fn assemble(kernels: &[Workload], flat: Vec<RunResult>) -> SuiteResults {
    let mut flat = flat.into_iter();
    let runs = AttackModel::ALL
        .iter()
        .map(|&attack| {
            let per_workload = kernels
                .iter()
                .map(|_| (&mut flat).take(Variant::ALL.len()).collect())
                .collect();
            (attack, per_workload)
        })
        .collect();
    SuiteResults {
        runs,
        workloads: kernels.iter().map(|w| w.name().to_string()).collect(),
    }
}

/// Every run's `(cycles, committed, skipped)`, in sweep order.
pub fn sweep_stats(results: &SuiteResults) -> Vec<u64> {
    let mut out = Vec::new();
    for (_, per_workload) in &results.runs {
        for r in per_workload.iter().flatten() {
            out.extend([r.cycles, r.core.committed, r.skipped_cycles]);
        }
    }
    out
}

/// Total committed instructions of a sweep, in millions.
pub fn committed_m(results: &SuiteResults) -> f64 {
    let n: u64 = results
        .runs
        .iter()
        .flat_map(|(_, pw)| pw.iter().flatten())
        .map(|r| r.core.committed)
        .sum();
    n as f64 / 1e6
}

/// Renders what a researcher takes away from a sweep: Figure 6 and
/// both CSVs.
pub fn export(results: &SuiteResults) {
    black_box(fig6_report(results));
    black_box(fig6_csv(results));
    black_box(runs_csv(results));
}

/// The checks and record of one sweep pass.
pub fn sweep_pass(
    ctx: &Ctx,
    results: Result<SuiteResults, SimError>,
    secs: f64,
    golden: &[u64],
    reference: Option<&SuiteResults>,
    simulated_m: impl FnOnce(&SuiteResults) -> f64,
) -> Pass {
    let results = match results {
        Ok(r) => r,
        Err(e) => return failed_pass(secs, 2 * 8 * golden.len(), &e.to_string()),
    };
    let mut tally = check::check_sweep(&results, golden, reference);
    let digest = check::sweep_digest(&results);
    let headline = check::headline(&results);
    tally.add(check::check_pinned(
        ctx.seed,
        &[
            ("sweep digest", &digest, check::SWEEP_DIGEST_SEED0),
            ("Figure 6 headline", &headline, check::HEADLINE_SEED0),
        ],
    ));
    Pass {
        secs,
        minsts: simulated_m(&results),
        batches_ms: vec![secs * 1e3],
        tally,
        digest,
        headline: Some(headline),
        stats: sweep_stats(&results),
    }
}

/// A pass whose operations all failed.
pub fn failed_pass(secs: f64, ops: usize, why: &str) -> Pass {
    eprintln!("perfbench: pass failed: {why}");
    let ops = ops as u64;
    Pass {
        secs,
        tally: Tally {
            attempted: ops,
            failed: ops,
        },
        ..Pass::default()
    }
}

/// `Simulator::run` for one single-program request, one layer call at
/// a time: `sim.setup` builds the memory system and core, `sim.cycle_loop`
/// runs the core to its halt.
pub fn traced_sim(
    cfg: SimConfig,
    req: &RunRequest,
    tracer: &Tracer,
    parent: u64,
    id: u64,
) -> Result<RunResult, SimError> {
    let cfg = req.effective_config(cfg);
    let program = &req.programs[0];
    let (mut mem, mut core) = tracer.span("sim.setup", Some(parent), Some(id), |_| {
        let mut mem = MemorySystem::new(cfg.mem, 1);
        mem.load_image(program.data());
        for &(start, bytes, level) in &req.prewarm {
            mem.prewarm(0, start, bytes, level);
        }
        let mut core = Core::new(
            0,
            cfg.core,
            req.variant.security(req.attack),
            program.clone(),
        );
        core.enable_obs(cfg.obs, cfg.mem.l1.mshrs as usize);
        core.set_fast_forward(cfg.fast_forward);
        (mem, core)
    });
    tracer
        .span("sim.cycle_loop", Some(parent), Some(id), |_| {
            core.run(&mut mem, cfg.max_cycles)
        })
        .map_err(|_| SimError::Hang {
            max_cycles: cfg.max_cycles,
            workload: program.name().to_string(),
        })?;
    Ok(RunResult {
        workload: program.name().to_string(),
        variant: req.variant,
        attack: req.attack,
        cycles: core.now(),
        core: *core.stats(),
        mem: *mem.stats(),
        obs: core.take_obs(),
        skipped_cycles: core.skipped_cycles(),
    })
}

/// What a traced batch did besides its results.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchCounts {
    pub hits: u64,
    pub misses: u64,
}

/// `Runner::run_batch` on a local backend, one layer call at a time:
/// keys and loads in request order, misses simulated on the pool (an
/// `engine.batch` span with one `engine.job` per simulation), then saves.
pub fn traced_batch(
    ctx: &Ctx,
    reqs: &[RunRequest],
    store: Option<&ResultStore>,
    tracer: &Tracer,
    parent: u64,
) -> Result<(Vec<RunResult>, BatchCounts), SimError> {
    let mut slots: Vec<Option<RunResult>> = vec![None; reqs.len()];
    let mut keys: Vec<Option<RunKey>> = vec![None; reqs.len()];
    let mut todo = Vec::new();
    let mut counts = BatchCounts::default();
    for (i, req) in reqs.iter().enumerate() {
        let Some(store) = store else {
            todo.push(i);
            continue;
        };
        let id = Some(i as u64);
        let key = tracer.span("store.key", Some(parent), id, |_| RunKey::of(req, ctx.cfg));
        match tracer.span("store.load", Some(parent), id, |_| store.load(&key))? {
            Some(result) => {
                counts.hits += 1;
                slots[i] = Some(result);
            }
            None => todo.push(i),
        }
        keys[i] = Some(key);
    }
    let fresh = tracer.span("engine.batch", Some(parent), None, |batch| {
        ctx.pool.try_run(&todo, |_, &i| {
            tracer.span("engine.job", Some(batch), Some(i as u64), |job| {
                traced_sim(ctx.cfg, &reqs[i], tracer, job, i as u64)
            })
        })
    })?;
    counts.misses = todo.len() as u64;
    for (&i, result) in todo.iter().zip(fresh) {
        if let (Some(store), Some(key)) = (store, &keys[i]) {
            tracer.span("store.save", Some(parent), Some(i as u64), |_| {
                store.save(key, &result)
            })?;
        }
        slots[i] = Some(result);
    }
    Ok((
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect(),
        counts,
    ))
}

/// Splits the key derivation of `reqs` into its two halves, each under
/// its own span: rendering the canonical request to JSON
/// (`proto.render`) and hashing it (`store.hash`). Returns the rendered
/// bytes.
pub fn split_keys(ctx: &Ctx, reqs: &[RunRequest], tracer: &Tracer, parent: u64) -> u64 {
    let mut bytes = 0u64;
    for (i, req) in reqs.iter().enumerate() {
        let mut canonical = req.clone();
        canonical.config = Some(req.effective_config(ctx.cfg));
        let id = Some(i as u64);
        let payload = tracer.span("proto.render", Some(parent), id, |_| {
            proto::request_to_json(&canonical).render()
        });
        tracer.span("store.hash", Some(parent), id, |_| {
            black_box(sha256(payload.as_bytes()))
        });
        bytes += payload.len() as u64;
    }
    bytes
}
