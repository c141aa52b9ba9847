//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <fig_cold|fig_warm|serve_mixed|verify_campaign>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload from the seed, sets it up several times (the
//! median is `setup_s`), then runs passes until `--seconds` have gone
//! by, checking every pass's outputs. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The line before it is the full record, host fingerprint
//! included. See README.md for the workloads and metrics.

mod campaign;
mod check;
mod fig;
mod gen;
mod host;
mod layers;
mod pipeline;
mod served;
mod stats;
mod trace;

use check::Tally;
use sdo_harness::{JobPool, SimConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Each run sets its workload up at least `MIN_SETUPS` times, and more
/// (up to `MAX_SETUPS`) while the set-ups together take under
/// `SETUP_BUDGET`; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 11;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FigCold,
    FigWarm,
    ServeMixed,
    VerifyCampaign,
}

impl Kind {
    const ALL: [(&'static str, Kind); 4] = [
        ("fig_cold", Kind::FigCold),
        ("fig_warm", Kind::FigWarm),
        ("serve_mixed", Kind::ServeMixed),
        ("verify_campaign", Kind::VerifyCampaign),
    ];

    fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
    }
}

/// What every workload shares: the seed, the machine, the worker pool.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub cfg: SimConfig,
    pub pool: JobPool,
}

/// One pass as measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass.
    pub secs: f64,
    /// Committed instructions the pass simulated (or, where it simulated
    /// nothing, delivered), in millions.
    pub minsts: f64,
    /// Round trips, in milliseconds: each submission the closed-loop
    /// client waited for.
    pub batches_ms: Vec<f64>,
    pub tally: Tally,
    pub digest: String,
    pub headline: Option<String>,
    /// Simulated statistics the traced and untraced passes must agree on.
    pub stats: Vec<u64>,
}

/// A workload: set-up, an untimed reference, and passes.
pub trait Bench: Sized {
    /// Generates the inputs and prepares the system; this is `setup_s`.
    fn setup(ctx: &Ctx, tracer: Option<&Tracer>, root: u64, n: usize) -> Self;
    /// Computes what passes are checked against (not timed).
    fn reference(&mut self, ctx: &Ctx);
    /// Runs one pass. With a tracer, the pass goes through the layers one
    /// call at a time and records a span around each.
    fn pass(&mut self, ctx: &Ctx, tracer: Option<(&Tracer, u64)>) -> Pass;
    /// Traced mode only: re-executes parts of a pass piecewise, outside
    /// any pass, where a layer cannot be split from outside it.
    fn split(&mut self, _ctx: &Ctx, _tracer: &Tracer, _root: u64) -> Tally {
        Tally::default()
    }
}

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Kind::ALL.map(|(n, _)| n).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let kind = Kind::parse(&value)
                    .unwrap_or_else(|| usage(&format!("unknown workload '{value}'")));
                workload = Some((value, kind));
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    let (name, kind) = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        kind,
        name,
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

/// Deletes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = parse_args();
    let work = WorkDir(out_dir().join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&work.0)
        .and_then(|()| std::env::set_current_dir(&work.0))
        .unwrap_or_else(|e| {
            eprintln!("perfbench: cannot create {}: {e}", work.0.display());
            std::process::exit(1)
        });
    let ctx = Ctx {
        seed: args.seed,
        cfg: SimConfig::table_i(),
        pool: JobPool::new(host::nproc()),
    };
    let host_before = host::reference_ms();
    let steal_before = host::steal_seconds();
    let mut report = match args.kind {
        Kind::FigCold => run::<fig::Cold>(&ctx, &args),
        Kind::FigWarm => run::<fig::Warm>(&ctx, &args),
        Kind::ServeMixed => run::<served::Mixed>(&ctx, &args),
        Kind::VerifyCampaign => run::<campaign::Campaign>(&ctx, &args),
    };
    report.host_ref_ms = [host_before, host::reference_ms()];
    report.steal_s = host::steal_seconds() - steal_before;
    drop(work);
    report.print(&args);
}

/// Everything a run measured.
struct Report {
    setups: Vec<f64>,
    passes: Vec<Pass>,
    tally: Tally,
    /// Traced mode: the per-layer metrics.
    layers: Option<Vec<(&'static str, &'static str, f64)>>,
    /// [`host::reference_ms`] before the first set-up and after the last
    /// pass, and the host's stolen CPU time in between: how fast the
    /// host itself was while the run measured.
    host_ref_ms: [f64; 2],
    steal_s: f64,
}

fn run<B: Bench>(ctx: &Ctx, args: &Args) -> Report {
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        return run_traced::<B>(ctx, args, budget);
    }
    let mut setups = Vec::new();
    let mut state = None;
    let started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        // The previous set-up is torn down before the next one is timed.
        drop(state.take());
        let t = Instant::now();
        let s = B::setup(ctx, None, 0, setups.len());
        setups.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up");
    state.reference(ctx);
    let passes = measure(budget, || state.pass(ctx, None));
    let mut tally = Tally::default();
    for p in &passes {
        tally.add(p.tally);
    }
    Report {
        setups,
        passes,
        tally,
        layers: None,
        host_ref_ms: [0.0; 2],
        steal_s: 0.0,
    }
}

/// Runs passes for about `budget` (at least one): another pass starts
/// only if, taking the median pass so far, its midpoint falls inside the
/// budget. The measured time then lies within half a pass of `budget`
/// either way, instead of overrunning it by up to a whole pass, which on
/// workloads with passes of 10 s or more is most of a run.
fn measure(budget: Duration, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        if !passes.is_empty() {
            let times: Vec<f64> = passes.iter().map(|p| p.secs).collect();
            let midpoint = start.elapsed().as_secs_f64() + stats::median(&times) / 2.0;
            if midpoint >= budget.as_secs_f64() {
                return passes;
            }
        }
        passes.push(pass());
    }
}

/// Traced mode: one traced set-up, then untraced passes for half the
/// budget and traced passes for the other half. The two halves must
/// produce identical simulated statistics; the difference of their
/// median pass times is the tracing overhead.
fn run_traced<B: Bench>(ctx: &Ctx, args: &Args, budget: Duration) -> Report {
    let tracer = Tracer::new();
    let t = Instant::now();
    let mut state = tracer.span("setup", None, None, |root| {
        B::setup(ctx, Some(&tracer), root, 0)
    });
    let setups = vec![t.elapsed().as_secs_f64()];
    state.reference(ctx);
    let plain = measure(budget / 2, || state.pass(ctx, None));
    let cpu0 = host::cpu_seconds();
    let wall0 = Instant::now();
    let mut roots = Vec::new();
    let traced = measure(budget / 2, || {
        tracer.span("pass", None, None, |root| {
            roots.push(root);
            state.pass(ctx, Some((&tracer, root)))
        })
    });
    let cpu_per_wall = (host::cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    let (split_root, split_tally) = tracer.span("split", None, None, |root| {
        (root, state.split(ctx, &tracer, root))
    });

    let mut tally = split_tally;
    for p in plain.iter().chain(&traced) {
        tally.add(p.tally);
    }
    for (p, q) in traced.iter().zip(&plain) {
        tally.check(p.stats == q.stats, || {
            "traced pass produced other simulated statistics than the untraced one".to_string()
        });
    }
    let spans = tracer.spans();
    let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.name, args.seed));
    if let Err(e) = trace::write_jsonl(&spans, &path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    let layers = layers::compute(&layers::Input {
        spans: &spans,
        tracer: &tracer,
        pass_roots: &roots,
        split_root,
        workers: ctx.pool.jobs(),
        traced: &traced,
        plain: &plain,
        cpu_per_wall,
    });
    Report {
        setups,
        passes: plain,
        tally,
        layers: Some(layers),
        host_ref_ms: [0.0; 2],
        steal_s: 0.0,
    }
}

impl Report {
    fn print(&self, args: &Args) {
        let fp = host::Fingerprint::detect();
        let pass_s: Vec<f64> = self.passes.iter().map(|p| p.secs).collect();
        let rates: Vec<f64> = self.passes.iter().map(|p| p.minsts / p.secs).collect();
        let batches: Vec<f64> = self
            .passes
            .iter()
            .flat_map(|p| p.batches_ms.clone())
            .collect();
        let p90 = stats::percentile(&batches, 0.9);
        let end_to_end = vec![
            ("setup_s", "s", stats::median(&self.setups)),
            ("pass_s", "s", stats::median(&pass_s)),
            ("minsts_per_s", "Minst/s", stats::median(&rates)),
            ("batch_ms_p50", "ms", stats::percentile(&batches, 0.5)),
            ("batch_ms_p90", "ms", p90),
            ("peak_rss_mb", "MiB", host::peak_rss_mb()),
        ];
        let metrics = self.layers.as_ref().unwrap_or(&end_to_end);
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        let failed_ratio = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        let first = self.passes.first().expect("at least one pass");

        let mut record = stats::JsonObject::default();
        record.str("workload", &args.name);
        record.num("seed", args.seed as f64);
        record.num("seconds", args.seconds);
        record.num("trace", f64::from(u8::from(args.trace)));
        record.str("cpu", &fp.cpu);
        record.num("nproc", fp.nproc as f64);
        record.str("rustc", fp.rustc);
        record.str("git_rev", &fp.git_rev);
        record.str("profile", fp.profile);
        record.raw("host_ref_ms", &stats::list(&self.host_ref_ms));
        record.num("host_steal_s", self.steal_s);
        record.num("setups", self.setups.len() as f64);
        record.num("passes", self.passes.len() as f64);
        record.num("batch_samples", batches.len() as f64);
        record.num(
            "batch_samples_beyond_p90",
            batches.iter().filter(|&&b| b > p90).count() as f64,
        );
        record.raw("setup_s_samples", &stats::list(&self.setups));
        record.raw("pass_s_samples", &stats::list(&pass_s));
        record.raw("batch_ms_samples", &stats::list(&batches));
        record.str("digest", &first.digest);
        if let Some(h) = &first.headline {
            record.str("fig6_headline_hybrid_vs_stt_ld_spectre", h);
        }
        record.num("failed_ratio", failed_ratio);
        record.num("held_out_seed", gen::HELD_OUT_SEED as f64);
        record.raw("end_to_end", &stats::metrics_json(&end_to_end));
        if let Some(layers) = &self.layers {
            record.raw("per_layer", &stats::metrics_json(layers));
        }
        println!("{{\"record\":{}}}", record.finish());

        let mut result = stats::JsonObject::default();
        result.raw("correct", if correct { "true" } else { "false" });
        result.num("attempted", self.tally.attempted as f64);
        result.num("failed", self.tally.failed as f64);
        result.raw("metrics", &stats::metrics_json(metrics));
        println!("{}", result.finish());

        eprintln!(
            "perfbench: {} seed {}: {} set-ups, {} passes, {} batches, digest {}, failed {}/{}",
            args.name,
            args.seed,
            self.setups.len(),
            self.passes.len(),
            batches.len(),
            first.digest,
            self.tally.failed,
            self.tally.attempted
        );
    }
}
