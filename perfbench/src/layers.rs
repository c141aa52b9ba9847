//! Per-layer metrics of a traced run.
//!
//! Times are self times per pass: the layer's spans under the traced
//! passes, divided by the number of passes, plus its spans in the
//! split phase (which re-executes one pass's worth of work piecewise).
//! `workloads.build_s`, `store.save_s` and `serve.start_s` happen only
//! in set-up and are per set-up. README.md lists which end-to-end
//! metric each one should move, on which workload.

use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use crate::Pass;
use sdo_harness::experiments::SuiteResults;
use sdo_harness::RunResult;
use std::collections::HashMap;

/// Records a sweep's delivered statistics and, if it `simulated` them,
/// its simulation counts.
pub fn record_results(t: &Tracer, results: &SuiteResults, simulated: bool) {
    for r in results.runs.iter().flat_map(|(_, pw)| pw.iter().flatten()) {
        t.add("core.cycles", r.cycles as f64);
        t.add("core.committed", r.core.committed as f64);
        t.add("core.squashes", r.core.squashes.total() as f64);
        t.add("core.obl_fail", r.core.obl.fail as f64);
        t.add("mem.l1_hits", r.mem.l1_hits as f64);
        t.add("mem.l1_misses", r.mem.l1_misses as f64);
        if simulated {
            record_sim(t, r);
        }
    }
}

/// Records the counts of one run this pass simulated.
pub fn record_sim(t: &Tracer, r: &RunResult) {
    t.add("sim.cycles", r.cycles as f64);
    t.add("sim.skipped", r.skipped_cycles as f64);
    t.add("sim.committed", r.core.committed as f64);
    t.add("sim.fetched", r.core.fetched as f64);
}

/// What [`compute`] works from.
pub struct Input<'a> {
    pub spans: &'a [Span],
    pub tracer: &'a Tracer,
    pub pass_roots: &'a [u64],
    pub split_root: u64,
    pub workers: usize,
    pub traced: &'a [Pass],
    pub plain: &'a [Pass],
    pub cpu_per_wall: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics, `(name, unit, value)`, in BENCHMARK.json order.
pub fn compute(inp: &Input) -> Vec<(&'static str, &'static str, f64)> {
    let passes = inp.pass_roots.len().max(1) as f64;
    let in_passes = trace::self_times(inp.spans, inp.pass_roots);
    let in_split = trace::self_times(inp.spans, &[inp.split_root]);
    let setup_roots: Vec<u64> = inp
        .spans
        .iter()
        .filter(|s| s.name == "setup")
        .map(|s| s.id)
        .collect();
    let in_setup = trace::self_times(inp.spans, &setup_roots);
    let get = |m: &HashMap<&str, f64>, name: &str| m.get(name).copied().unwrap_or(0.0);
    let layer = |name: &str| get(&in_passes, name) / passes + get(&in_split, name);
    let setup = |name: &str| get(&in_setup, name) / setup_roots.len().max(1) as f64;
    let c = |name: &str| inp.tracer.counter(name);
    let per_pass = |name: &str| c(name) / passes;

    // The cycle loop's cost per stepped (not fast-forwarded) cycle,
    // over the passes only, where the sim.* counts were taken.
    let loop_in_passes = get(&in_passes, "sim.cycle_loop");
    let stepped = c("sim.cycles") - c("sim.skipped");
    let round_trips: Vec<f64> = inp
        .spans
        .iter()
        .filter(|s| s.name == "serve.round_trip")
        .map(|s| s.secs() * 1e3)
        .collect();
    let engine = engine_metrics(inp, passes);
    let pass_s = |ps: &[Pass]| median(&ps.iter().map(|p| p.secs).collect::<Vec<_>>());

    let out = vec![
        ("sim.cycle_loop_s", "s", layer("sim.cycle_loop")),
        (
            "sim.ns_per_stepped_cycle",
            "ns",
            ratio(loop_in_passes * 1e9, stepped),
        ),
        (
            "sim.skip_ratio",
            "ratio",
            ratio(c("sim.skipped"), c("sim.cycles")),
        ),
        ("sim.setup_s", "s", layer("sim.setup")),
        (
            "uarch.fetched_per_committed",
            "ratio",
            ratio(c("sim.fetched"), c("sim.committed")),
        ),
        ("workloads.build_s", "s", setup("workloads.build")),
        ("store.key_s", "s", layer("store.key")),
        ("proto.render_s", "s", layer("proto.render")),
        ("store.hash_s", "s", layer("store.hash")),
        ("proto.request_bytes", "bytes", c("split.request_bytes")),
        ("store.load_s", "s", layer("store.load")),
        ("store.save_s", "s", setup("store.save")),
        (
            "store.hit_ratio",
            "ratio",
            ratio(c("store.hits"), c("store.lookups")),
        ),
        ("serve.start_s", "s", setup("serve.start")),
        ("serve.wire_bytes", "bytes", per_pass("serve.wire_bytes")),
        ("serve.round_trip_ms", "ms", median(&round_trips)),
        ("serve.wait_s", "s", layer("serve.wait")),
        (
            "serve.busy_bounces",
            "count",
            per_pass("serve.busy_bounces"),
        ),
        ("serve.sims", "count", per_pass("serve.sims")),
        (
            "proto.wire_codec_s",
            "s",
            layer("proto.encode") + layer("proto.decode"),
        ),
        ("engine.utilization", "ratio", engine.utilization),
        ("engine.tail_s", "s", engine.tail_s),
        ("engine.cpu_per_wall", "ratio", inp.cpu_per_wall),
        ("verify.campaign_s", "s", layer("verify.campaign")),
        ("verify.capture_s", "s", layer("verify.capture")),
        ("verify.compare_s", "s", layer("verify.compare")),
        (
            "verify.events_per_check",
            "count",
            ratio(c("verify.events"), c("verify.checks")),
        ),
        ("export.render_s", "s", layer("export.render")),
        ("bench.unattributed_s", "s", layer("pass")),
        (
            "trace.overhead_s",
            "s",
            pass_s(inp.traced) - pass_s(inp.plain),
        ),
        (
            "core.ipc",
            "ratio",
            ratio(c("core.committed"), c("core.cycles")),
        ),
        (
            "core.squashes_per_kinst",
            "count",
            ratio(1e3 * c("core.squashes"), c("core.committed")),
        ),
        (
            "core.obl_fail_per_kinst",
            "count",
            ratio(1e3 * c("core.obl_fail"), c("core.committed")),
        ),
        (
            "mem.l1_miss_ratio",
            "ratio",
            ratio(c("mem.l1_misses"), c("mem.l1_hits") + c("mem.l1_misses")),
        ),
    ];
    // Self time of every span name, largest first, for the record.
    let mut table: Vec<(&str, f64)> = in_passes
        .iter()
        .map(|(&k, &v)| (k, v / passes))
        .chain(in_split.iter().map(|(&k, &v)| (k, v)))
        .collect();
    table.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!("perfbench: self time per pass (split phase included):");
    for (name, secs) in table {
        eprintln!("  {name:<20} {secs:>10.4} s");
    }
    out
}

struct Engine {
    utilization: f64,
    tail_s: f64,
}

/// Pool metrics over every `engine.batch` span of the passes and the
/// split phase: busy share of the workers, and the time from the first
/// worker going idle to the batch's end, per pass.
fn engine_metrics(inp: &Input, passes: f64) -> Engine {
    let mut roots = inp.pass_roots.to_vec();
    roots.push(inp.split_root);
    let inside = trace::descendants(inp.spans, &roots);
    let mut jobs: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in inp.spans.iter().filter(|s| s.name == "engine.job") {
        if let Some(p) = s.parent {
            jobs.entry(p).or_default().push(s);
        }
    }
    let (mut busy, mut capacity, mut tail_passes, mut tail_split) = (0.0, 0.0, 0.0, 0.0);
    for batch in inp
        .spans
        .iter()
        .filter(|s| s.name == "engine.batch" && inside.contains_key(&s.id))
    {
        let batch_jobs = jobs.get(&batch.id).map_or(&[][..], Vec::as_slice);
        busy += batch_jobs.iter().map(|j| j.secs()).sum::<f64>();
        capacity += batch.secs() * inp.workers as f64;
        let mut last_end: HashMap<u64, u64> = HashMap::new();
        for j in batch_jobs {
            let e = last_end.entry(j.thread).or_default();
            *e = (*e).max(j.end);
        }
        // A worker that ran no job was idle from the start.
        let first_idle = if last_end.len() < inp.workers.min(batch_jobs.len().max(1)) {
            batch.start
        } else {
            last_end.values().copied().min().unwrap_or(batch.start)
        };
        let tail = batch.end.saturating_sub(first_idle) as f64 * 1e-9;
        if batch.parent == Some(inp.split_root) {
            tail_split += tail;
        } else {
            tail_passes += tail;
        }
    }
    Engine {
        utilization: ratio(busy, capacity),
        tail_s: tail_passes / passes + tail_split,
    }
}
