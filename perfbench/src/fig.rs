//! `fig_cold` and `fig_warm`: the 160-request Figure 6 sweep, in process.
//!
//! `fig_cold` simulates every request through `Runner::local` with no
//! store: it exercises the cycle loop and never touches the key, codec
//! or store. `fig_warm` sends the same requests through
//! `Runner::with_store` over a store its set-up filled, so a pass
//! simulates nothing and costs keys and loads.

use crate::check::{self, Tally};
use crate::pipeline::{self, committed_m, sweep_pass, sweep_requests, traced_batch, BatchCounts};
use crate::trace::Tracer;
use crate::{gen, layers, Bench, Ctx, Pass};
use sdo_harness::experiments::{run_suite_on, SuiteResults};
use sdo_harness::{AttackModel, ResultStore, Runner, SimError};
use sdo_workloads::Workload;
use std::time::Instant;

/// Generates the kernels, under a `workloads.build` span when traced.
pub fn build(ctx: &Ctx, tracer: Option<&Tracer>, root: u64) -> Vec<Workload> {
    match tracer {
        Some(t) => t.span("workloads.build", Some(root), None, |_| {
            gen::kernels(ctx.seed)
        }),
        None => gen::kernels(ctx.seed),
    }
}

/// One sweep through a local runner (with `store`, if any), untraced
/// through `run_suite_on` or traced one layer call at a time, then the
/// export. Returns the results with the batch counts, and the wall time.
fn sweep(
    ctx: &Ctx,
    kernels: &[Workload],
    store: Option<&str>,
    tracer: Option<(&Tracer, u64)>,
) -> (Result<(SuiteResults, BatchCounts), SimError>, f64) {
    let t = Instant::now();
    let out = match tracer {
        None => plain_sweep(ctx, kernels, store),
        Some((tracer, root)) => traced_sweep(ctx, kernels, store, tracer, root),
    };
    (out, t.elapsed().as_secs_f64())
}

fn plain_sweep(
    ctx: &Ctx,
    kernels: &[Workload],
    store: Option<&str>,
) -> Result<(SuiteResults, BatchCounts), SimError> {
    let runner = match store {
        Some(dir) => Runner::with_store(ctx.cfg, dir)?,
        None => Runner::local(ctx.cfg),
    };
    let res = run_suite_on(&runner, kernels, &ctx.pool)?;
    pipeline::export(&res);
    let counts = BatchCounts {
        hits: runner.hits(),
        misses: runner.misses(),
    };
    Ok((res, counts))
}

fn traced_sweep(
    ctx: &Ctx,
    kernels: &[Workload],
    store: Option<&str>,
    tracer: &Tracer,
    root: u64,
) -> Result<(SuiteResults, BatchCounts), SimError> {
    let store = store.map(ResultStore::open).transpose()?;
    let reqs = sweep_requests(kernels, &AttackModel::ALL);
    let (flat, counts) = traced_batch(ctx, &reqs, store.as_ref(), tracer, root)?;
    let res = pipeline::assemble(kernels, flat);
    tracer.span("export.render", Some(root), None, |_| {
        pipeline::export(&res)
    });
    Ok((res, counts))
}

/// `fig_cold`.
#[derive(Debug)]
pub struct Cold {
    kernels: Vec<Workload>,
    golden: Vec<u64>,
    /// A first cold sweep, which every pass must equal field for field.
    /// Running it before the passes also lets the allocator reach its
    /// steady state, which a researcher's long session has too.
    reference: Option<SuiteResults>,
}

impl Bench for Cold {
    fn setup(ctx: &Ctx, tracer: Option<&Tracer>, root: u64, _n: usize) -> Self {
        Cold {
            kernels: build(ctx, tracer, root),
            golden: Vec::new(),
            reference: None,
        }
    }

    fn reference(&mut self, ctx: &Ctx) {
        self.golden = check::golden_counts(&self.kernels);
        self.reference = plain_sweep(ctx, &self.kernels, None).ok().map(|(r, _)| r);
    }

    fn pass(&mut self, ctx: &Ctx, tracer: Option<(&Tracer, u64)>) -> Pass {
        let (out, secs) = sweep(ctx, &self.kernels, None, tracer);
        let res = out.map(|(r, _)| r);
        if let (Some((t, _)), Ok(r)) = (tracer, &res) {
            layers::record_results(t, r, true);
        }
        let mut pass = sweep_pass(
            ctx,
            res,
            secs,
            &self.golden,
            self.reference.as_ref(),
            committed_m,
        );
        if self.reference.is_none() {
            pass.tally
                .check(false, || "the reference sweep failed".to_string());
        }
        pass
    }
}

/// `fig_warm`.
#[derive(Debug)]
pub struct Warm {
    kernels: Vec<Workload>,
    dir: String,
    /// The set-up's fill: the cold results warm passes must equal.
    cold: Result<SuiteResults, SimError>,
    golden: Vec<u64>,
}

impl Drop for Warm {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Bench for Warm {
    fn setup(ctx: &Ctx, tracer: Option<&Tracer>, root: u64, n: usize) -> Self {
        let kernels = build(ctx, tracer, root);
        let dir = format!("store-{n}");
        let _ = std::fs::remove_dir_all(&dir);
        let cold = sweep(ctx, &kernels, Some(&dir), tracer.map(|t| (t, root)))
            .0
            .map(|(r, _)| r);
        Warm {
            kernels,
            dir,
            cold,
            golden: Vec::new(),
        }
    }

    fn reference(&mut self, _ctx: &Ctx) {
        self.golden = check::golden_counts(&self.kernels);
    }

    fn pass(&mut self, ctx: &Ctx, tracer: Option<(&Tracer, u64)>) -> Pass {
        let (out, secs) = sweep(ctx, &self.kernels, Some(&self.dir), tracer);
        let counts = out.as_ref().map_or(BatchCounts::default(), |(_, c)| *c);
        let res = out.map(|(r, _)| r);
        if let (Some((t, _)), Ok(r)) = (tracer, &res) {
            layers::record_results(t, r, false);
            t.add("store.lookups", (counts.hits + counts.misses) as f64);
            t.add("store.hits", counts.hits as f64);
        }
        let mut hits = Tally::default();
        hits.check(counts.misses == 0, || {
            format!(
                "warm pass simulated {} of {} requests",
                counts.misses,
                counts.hits + counts.misses
            )
        });
        let cold = self.cold.as_ref().ok();
        let mut pass = sweep_pass(ctx, res, secs, &self.golden, cold, committed_m);
        pass.tally.add(hits);
        if cold.is_none() {
            pass.tally
                .check(false, || "the set-up's cold fill failed".to_string());
        }
        pass
    }

    fn split(&mut self, ctx: &Ctx, tracer: &Tracer, root: u64) -> Tally {
        let reqs = sweep_requests(&self.kernels, &AttackModel::ALL);
        let bytes = pipeline::split_keys(ctx, &reqs, tracer, root);
        tracer.add("split.request_bytes", bytes as f64);
        Tally::default()
    }
}
