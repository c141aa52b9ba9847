//! `serve_mixed`: the sweep through an in-process `sdo_serve::Server` on
//! a Unix socket, half of it already in the daemon's store.
//!
//! Set-up fills the store with the Spectre half of the sweep and starts
//! the daemon. A pass sends the sweep as 10 per-kernel batches of 16
//! requests, so each batch holds 8 hits and 8 misses; the misses are
//! simulated and saved. Every pass starts from the set-up's store: the
//! daemon is restarted over a fresh copy of it between passes, outside
//! the timed part.

use crate::check::{self, Tally};
use crate::pipeline::{self, sweep_requests, traced_batch};
use crate::trace::Tracer;
use crate::{fig, host, layers, Bench, Ctx, Pass};
use sdo_harness::experiments::{run_suite_on, SuiteResults};
use sdo_harness::proto::{Reply, Request};
use sdo_harness::{AttackModel, JobPool, ResultStore, RunRequest, RunResult, Runner, SimError};
use sdo_serve::{ServeOptions, Server};
use sdo_workloads::Workload;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's socket, relative to the run's scratch directory (a
/// relative path keeps it under the 108-byte `sun_path` limit).
const SOCKET: &str = "serve.sock";

/// A daemon serving [`SOCKET`] from a thread of this process.
#[derive(Debug)]
struct Daemon {
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(ctx: &Ctx, store: &str) -> Result<Daemon, String> {
        let opts = ServeOptions {
            store: Some(store.to_string()),
            base: ctx.cfg,
            ..ServeOptions::default()
        };
        let server =
            Arc::new(Server::new(opts, JobPool::new(host::nproc())).map_err(|e| e.to_string())?);
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve_socket(SOCKET));
        let mut daemon = Daemon {
            server,
            thread: Some(thread),
        };
        // Ready once a connection is accepted; the probe connection
        // closes at once, which the daemon reads as an empty stream.
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(SOCKET).is_err() {
            if Instant::now() > deadline
                || daemon.thread.as_ref().is_some_and(JoinHandle::is_finished)
            {
                daemon.stop();
                return Err(format!("daemon did not start listening on {SOCKET}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        if let Ok(mut s) = UnixStream::connect(SOCKET) {
            let _ = s.write_all(format!("{}\n\n", Request::Shutdown.render()).as_bytes());
        }
        match thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: daemon ended with {e}"),
            Err(_) => eprintln!("perfbench: daemon thread panicked"),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Copies a store directory (two levels: shards of entry files).
fn copy_store(from: &str, to: &str) -> std::io::Result<()> {
    fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            let target = to.join(entry.file_name());
            if entry.file_type()?.is_dir() {
                copy(&entry.path(), &target)?;
            } else {
                std::fs::copy(entry.path(), target)?;
            }
        }
        Ok(())
    }
    let _ = std::fs::remove_dir_all(to);
    copy(Path::new(from), Path::new(to))
}

/// `serve_mixed`.
#[derive(Debug)]
pub struct Mixed {
    kernels: Vec<Workload>,
    template: String,
    live: String,
    daemon: Result<Daemon, String>,
    /// The set-up's fill: cold results of the Spectre half.
    spectre: Result<Vec<RunResult>, SimError>,
    reference: Option<SuiteResults>,
    golden: Vec<u64>,
    passes: usize,
}

impl Drop for Mixed {
    fn drop(&mut self) {
        if let Ok(d) = &mut self.daemon {
            d.stop();
        }
        let _ = std::fs::remove_dir_all(&self.template);
        let _ = std::fs::remove_dir_all(&self.live);
    }
}

impl Mixed {
    /// Restarts the daemon over a fresh copy of the set-up's store.
    fn reset(&mut self, ctx: &Ctx) {
        if let Ok(d) = &mut self.daemon {
            d.stop();
        }
        self.daemon = copy_store(&self.template, &self.live)
            .map_err(|e| format!("cannot copy the store: {e}"))
            .and_then(|()| Daemon::start(ctx, &self.live));
    }
}

impl Bench for Mixed {
    fn setup(ctx: &Ctx, tracer: Option<&Tracer>, root: u64, n: usize) -> Self {
        let kernels = fig::build(ctx, tracer, root);
        let template = format!("template-{n}");
        let live = format!("live-{n}");
        let _ = std::fs::remove_dir_all(&template);
        let reqs = sweep_requests(&kernels, &[AttackModel::Spectre]);
        let spectre = match tracer {
            Some(t) => ResultStore::open(template.as_str())
                .and_then(|s| traced_batch(ctx, &reqs, Some(&s), t, root))
                .map(|(results, _)| results),
            None => {
                Runner::with_store(ctx.cfg, &template).and_then(|r| r.run_batch(&reqs, &ctx.pool))
            }
        };
        let start = || {
            copy_store(&template, &live)
                .map_err(|e| format!("cannot copy the store: {e}"))
                .and_then(|()| Daemon::start(ctx, &live))
        };
        let daemon = match tracer {
            Some(t) => t.span("serve.start", Some(root), None, |_| start()),
            None => start(),
        };
        Mixed {
            kernels,
            template,
            live,
            daemon,
            spectre,
            reference: None,
            golden: Vec::new(),
            passes: 0,
        }
    }

    fn reference(&mut self, ctx: &Ctx) {
        self.golden = check::golden_counts(&self.kernels);
        let reqs = sweep_requests(&self.kernels, &[AttackModel::Futuristic]);
        let futuristic = Runner::local(ctx.cfg).run_batch(&reqs, &ctx.pool);
        if let (Ok(s), Ok(f)) = (&self.spectre, futuristic) {
            let flat = s.iter().cloned().chain(f).collect();
            self.reference = Some(pipeline::assemble(&self.kernels, flat));
        }
    }

    fn pass(&mut self, ctx: &Ctx, tracer: Option<(&Tracer, u64)>) -> Pass {
        if self.passes > 0 {
            self.reset(ctx);
        }
        self.passes += 1;
        let ops = 2 * 8 * self.kernels.len();
        let daemon = match &self.daemon {
            Ok(d) => d,
            Err(e) => return pipeline::failed_pass(0.0, ops, e),
        };
        let sims_before = daemon.server.misses();
        let runner = Runner::server(ctx.cfg, SOCKET);
        let t = Instant::now();
        let mut batches_ms = Vec::with_capacity(self.kernels.len());
        let mut per_kernel = Vec::with_capacity(self.kernels.len());
        for (k, w) in self.kernels.iter().enumerate() {
            let tb = Instant::now();
            let res = match tracer {
                Some((tr, root)) => traced_round_trip(ctx, w, k as u64, tr, root),
                None => run_suite_on(&runner, std::slice::from_ref(w), &ctx.pool),
            };
            batches_ms.push(tb.elapsed().as_secs_f64() * 1e3);
            per_kernel.push(res);
        }
        let secs = t.elapsed().as_secs_f64();
        let sims = daemon.server.misses() - sims_before;
        let merged = per_kernel
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map(|parts| merge(&self.kernels, parts));
        if let (Some((tr, _)), Ok(r)) = (tracer, &merged) {
            tr.add("serve.sims", sims as f64);
            layers::record_results(tr, r, false);
            for run in simulated(r) {
                layers::record_sim(tr, run);
            }
        }
        let half = (ops / 2) as u64;
        let reference = self.reference.as_ref();
        let mut pass = pipeline::sweep_pass(ctx, merged, secs, &self.golden, reference, |r| {
            simulated(r).map(|run| run.core.committed).sum::<u64>() as f64 / 1e6
        });
        pass.batches_ms = batches_ms;
        pass.tally.check(
            sims == half && (tracer.is_some() || runner.hits() == half),
            || {
                format!(
                    "daemon simulated {sims} and served {} of {ops} requests, expected {half} each",
                    runner.hits()
                )
            },
        );
        if self.reference.is_none() {
            pass.tally.check(false, || {
                "no cold reference to check served results against".to_string()
            });
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

/// The runs the daemon simulated: the half the set-up did not store.
fn simulated(r: &SuiteResults) -> impl Iterator<Item = &RunResult> {
    r.runs
        .iter()
        .filter(|(a, _)| *a == AttackModel::Futuristic)
        .flat_map(|(_, pw)| pw.iter().flatten())
}

/// Joins per-kernel sweeps (one kernel each) into the full sweep.
fn merge(kernels: &[Workload], parts: Vec<SuiteResults>) -> SuiteResults {
    let mut flat = Vec::new();
    for (ai, _) in AttackModel::ALL.iter().enumerate() {
        for part in &parts {
            flat.extend(part.runs[ai].1[0].iter().cloned());
        }
    }
    pipeline::assemble(kernels, flat)
}

/// One per-kernel batch over the socket, one step at a time: encode the
/// request lines (`proto.encode`), write them and wait for every reply
/// line (`serve.wait`, which holds the socket and all of the daemon's
/// work), decode the replies (`proto.decode`); requests the daemon
/// bounces with `Busy` go again in the next batch.
fn traced_round_trip(
    ctx: &Ctx,
    w: &Workload,
    k: u64,
    tracer: &Tracer,
    root: u64,
) -> Result<SuiteResults, SimError> {
    let io = |e: std::io::Error| SimError::Server(format!("socket: {e}"));
    tracer.span("serve.round_trip", Some(root), Some(k), |rt| {
        let reqs: Vec<RunRequest> = sweep_requests(std::slice::from_ref(w), &AttackModel::ALL);
        let stream = UnixStream::connect(SOCKET).map_err(io)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut stream = stream;
        let mut slots: Vec<Option<RunResult>> = vec![None; reqs.len()];
        let mut pending: Vec<usize> = (0..reqs.len()).collect();
        while !pending.is_empty() {
            let batch = tracer.span("proto.encode", Some(rt), Some(k), |_| {
                let mut batch = String::new();
                for &i in &pending {
                    let mut request = reqs[i].clone();
                    request.config = Some(request.effective_config(ctx.cfg));
                    batch.push_str(
                        &Request::Run {
                            id: i as u64,
                            request,
                            no_cache: false,
                        }
                        .render(),
                    );
                    batch.push('\n');
                }
                batch.push('\n');
                batch
            });
            let lines = tracer.span("serve.wait", Some(rt), Some(k), |_| {
                stream.write_all(batch.as_bytes())?;
                let mut lines = Vec::with_capacity(pending.len());
                for _ in 0..pending.len() {
                    let mut line = String::new();
                    if reader.read_line(&mut line)? == 0 {
                        return Err(std::io::Error::other(
                            "daemon closed the connection mid-batch",
                        ));
                    }
                    lines.push(line);
                }
                Ok(lines)
            });
            let lines = lines.map_err(io)?;
            let wire: usize = batch.len() + lines.iter().map(String::len).sum::<usize>();
            tracer.add("serve.wire_bytes", wire as f64);
            let replies = tracer.span("proto.decode", Some(rt), Some(k), |_| {
                lines
                    .iter()
                    .map(|l| Reply::parse(l.trim_end()))
                    .collect::<Result<Vec<_>, _>>()
            });
            let mut bounced = Vec::new();
            for reply in replies.map_err(|e| SimError::Server(format!("bad reply line: {e}")))? {
                match reply {
                    Reply::Result { id, result, cached } => {
                        tracer.add("store.lookups", 1.0);
                        tracer.add("store.hits", f64::from(u8::from(cached)));
                        let slot = slots.get_mut(id as usize).ok_or_else(|| {
                            SimError::Server(format!("daemon replied for unknown id {id}"))
                        })?;
                        *slot = Some(result);
                    }
                    Reply::Busy { id } => {
                        tracer.add("serve.busy_bounces", 1.0);
                        bounced.push(id as usize);
                    }
                    Reply::Error { message, .. } => return Err(SimError::Server(message)),
                    other => return Err(SimError::Server(format!("unexpected reply {other:?}"))),
                }
            }
            pending = bounced;
        }
        let flat = slots
            .into_iter()
            .map(|s| s.expect("every request answered"))
            .collect();
        Ok(pipeline::assemble(std::slice::from_ref(w), flat))
    })
}
