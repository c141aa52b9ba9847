//! # sdo-serve — the cache-backed simulation service
//!
//! A persistent daemon owning a warm [`JobPool`] and (optionally) a
//! content-addressed [`ResultStore`], speaking the line-delimited JSON
//! protocol from `sdo_harness::proto` (DESIGN.md §13) over stdio or a
//! Unix socket. Every figure, campaign or ad-hoc run submitted to it is
//! first looked up by [`RunKey`]; repeated requests are cache hits that
//! return byte-identical [`RunResult`]s without executing a single
//! simulation.
//!
//! ## Batch contract
//!
//! A batch is a sequence of request lines terminated by a blank line.
//! The daemon writes exactly one reply line per request line, in request
//! order, then flushes. Back-pressure is explicit: run requests beyond
//! the configured queue bound are answered with `Busy` and must be
//! resubmitted in a later batch (the [`Runner`](sdo_harness::Runner)
//! client does this automatically).
//!
//! ## Programs by digest
//!
//! A request may name its program by [`Program::digest`] instead of
//! carrying it. The daemon keeps every program it has parsed in a
//! bounded, least-recently-used table keyed by the digest it computed
//! itself, and answers `NeedProgram` for a digest it does not hold; the
//! client then sends that program in full once. Each image is therefore
//! parsed once per daemon, not once per request.
//!
//! ## Fault containment
//!
//! Malformed lines, hangs, store failures and in-flight worker panics
//! all become typed `Error` replies — the daemon keeps serving. Panics
//! are caught per simulation with [`std::panic::catch_unwind`] and
//! rendered through [`sdo_harness::engine::panic_message`], the same
//! plumbing the in-process pool uses.

#![warn(missing_docs)]

mod programs;

use programs::{ProgramTable, PROGRAM_TABLE_BYTES};
use sdo_harness::engine::{panic_message, JobPool};
use sdo_harness::proto::{self, DecodeError, Json, Reply, Request, BATCH_ERROR_ID};
use sdo_harness::store::{ResultStore, RunKey};
use sdo_harness::{Program, RunRequest, RunResult, SimConfig, SimError, Simulator};
use sdo_verify::{CampaignConfig, Checker};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Content-addressed store directory (`None` = serve without
    /// memoization — every run simulates).
    pub store: Option<String>,
    /// Maximum run requests accepted per batch; the rest get `Busy`.
    pub queue: usize,
    /// Base machine configuration for requests with no override.
    pub base: SimConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { store: None, queue: 256, base: SimConfig::table_i() }
    }
}

/// The daemon: a warm pool, an optional store, the program table, and
/// hit/miss counters.
#[derive(Debug)]
pub struct Server {
    sim: Simulator,
    store: Option<ResultStore>,
    queue: usize,
    pool: JobPool,
    programs: Mutex<ProgramTable>,
    hits: AtomicU64,
    misses: AtomicU64,
    shutdown: AtomicBool,
}

impl Server {
    /// Builds a daemon from `opts`, executing simulations on `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] if the store directory cannot be
    /// opened.
    pub fn new(opts: ServeOptions, pool: JobPool) -> Result<Self, SimError> {
        Self::with_program_bound(opts, pool, PROGRAM_TABLE_BYTES)
    }

    /// [`Server::new`] with the program table bounded at `bound` bytes
    /// (tests shrink it to force evictions).
    fn with_program_bound(
        opts: ServeOptions,
        pool: JobPool,
        bound: usize,
    ) -> Result<Self, SimError> {
        let store = match &opts.store {
            Some(dir) => Some(ResultStore::open(dir.as_str())?),
            None => None,
        };
        Ok(Server {
            sim: Simulator::new(opts.base),
            store,
            queue: opts.queue.max(1),
            pool,
            programs: Mutex::new(ProgramTable::new(bound)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Requests served from the store since startup.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests actually simulated since startup.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Programs resident in the program table.
    #[must_use]
    pub fn programs(&self) -> u64 {
        self.table().len() as u64
    }

    /// Full programs received since startup.
    #[must_use]
    pub fn uploads(&self) -> u64 {
        self.table().uploads()
    }

    fn table(&self) -> std::sync::MutexGuard<'_, ProgramTable> {
        // Nothing panics while holding the lock, and any state an
        // interrupted insert could leave (a byte count ahead of the map)
        // is still a usable table.
        self.programs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a `shutdown` request has been received.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Serves one stream (stdio or an accepted socket connection) until
    /// EOF or a `shutdown` request. Between batches — while the daemon
    /// is otherwise idle — the store manifest is rewritten so
    /// `manifest.tsv` always reflects the entries on disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; protocol-level problems never
    /// surface here (they become typed `Error` replies).
    pub fn serve<R: BufRead, W: Write>(&self, mut reader: R, mut writer: W) -> std::io::Result<()> {
        loop {
            let mut lines = Vec::new();
            let mut eof = false;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 {
                    eof = true;
                    break;
                }
                line.truncate(line.trim_end_matches(['\n', '\r']).len());
                if line.is_empty() {
                    break;
                }
                lines.push(line);
            }
            if !lines.is_empty() {
                for reply in self.handle_batch(&lines) {
                    writer.write_all(reply.render().as_bytes())?;
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
                if let Some(store) = &self.store {
                    // Idle point: the batch is answered, nothing is
                    // executing. Failures are non-fatal (the manifest is
                    // regenerable from the entries).
                    let _ = store.write_manifest();
                }
            }
            if eof || self.shutting_down() {
                return Ok(());
            }
        }
    }

    /// Binds (replacing any stale socket file) and serves connections
    /// one at a time until a `shutdown` request arrives.
    ///
    /// # Errors
    ///
    /// Returns bind/accept failures; per-connection I/O errors only end
    /// that connection.
    pub fn serve_socket(&self, path: &str) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        for conn in listener.incoming() {
            let stream = conn?;
            let reader = BufReader::new(stream.try_clone()?);
            if let Err(e) = self.serve(reader, &stream) {
                eprintln!("serve: connection error: {e}");
            }
            if self.shutting_down() {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Answers one batch: exactly one reply per line, in line order
    /// (`shutdown` lines excepted — they carry no id and get no reply).
    #[must_use]
    pub fn handle_batch(&self, lines: &[String]) -> Vec<Reply> {
        // Parse every line first so the queue bound counts actual run
        // requests, not malformed lines.
        let parsed = self.parse_batch(lines);

        // Queue bound: the first `queue` run requests are accepted, the
        // rest bounced with Busy (the client resubmits them).
        //
        // `replies` gets exactly one entry per line — Shutdown lines
        // (which get no reply) hold a None that the final flatten drops —
        // so `AcceptedRun.slot` can index by line number.
        let mut accepted = 0usize;
        let mut replies: Vec<Option<Reply>> = Vec::with_capacity(lines.len());
        let mut runs: Vec<AcceptedRun> = Vec::new();
        let mut grids: Vec<AcceptedGrid> = Vec::new();
        for (i, req) in parsed.into_iter().enumerate() {
            match req {
                Err(DecodeError::Malformed(message)) => {
                    replies.push(Some(Reply::Error { id: BATCH_ERROR_ID, message }));
                }
                Err(DecodeError::NeedProgram { id, digest }) => {
                    replies.push(Some(Reply::NeedProgram { id, digest }));
                }
                Ok(Request::Run { id, request, no_cache }) => {
                    if let Err(message) = servable(&request) {
                        replies.push(Some(Reply::Error { id, message }));
                    } else if accepted >= self.queue {
                        replies.push(Some(Reply::Busy { id }));
                    } else {
                        accepted += 1;
                        runs.push(AcceptedRun { slot: i, id, request, no_cache, grid: None });
                        replies.push(None); // filled after execution
                    }
                }
                Ok(Request::Grid { id, request, configs, variants, no_cache }) => {
                    let points = configs.len() * variants.len();
                    if let Err(message) = servable(&request) {
                        replies.push(Some(Reply::Error { id, message }));
                    } else if points == 0 {
                        replies.push(Some(Reply::Error {
                            id,
                            message: "grid has no points (empty configs or variants)".to_string(),
                        }));
                    } else if accepted + points > self.queue {
                        // The whole grid counts against the queue bound;
                        // it is accepted or bounced atomically so a Busy
                        // grid never half-executes.
                        replies.push(Some(Reply::Busy { id }));
                    } else {
                        accepted += points;
                        // Expand config-major, variant-minor. Each point
                        // is the same RunRequest a client would send
                        // individually (config resolved into the
                        // request), so its RunKey — and therefore its
                        // store entry — is identical to the per-point
                        // equivalent.
                        for cfg in &configs {
                            for &v in &variants {
                                runs.push(AcceptedRun {
                                    slot: i,
                                    id,
                                    request: request.clone().variant(v).config(*cfg),
                                    no_cache,
                                    grid: Some(grids.len()),
                                });
                            }
                        }
                        grids.push(AcceptedGrid { slot: i, id, points });
                        replies.push(None); // filled after execution
                    }
                }
                Ok(Request::Stats { id }) => replies.push(Some(self.stats_reply(id))),
                Ok(Request::Campaign { id, seed, quick, fuzz }) => {
                    replies.push(Some(self.run_campaign(id, seed, quick, fuzz)));
                }
                Ok(Request::Shutdown) => {
                    self.shutdown.store(true, Ordering::Relaxed);
                    // No id, no reply — but the slot placeholder keeps
                    // line-number indexing sound for later run replies.
                    replies.push(None);
                }
            }
        }

        // Outcomes come back aligned with `runs`: plain runs fill their
        // reply slot directly, grid points accumulate per grid (the
        // expansion pushed them contiguously in point order, and the
        // alignment preserves that order).
        let mut acc: Vec<Vec<RunOutcome>> =
            grids.iter().map(|g| Vec::with_capacity(g.points)).collect();
        for (run, outcome) in runs.iter().zip(self.execute_runs(&runs)) {
            match run.grid {
                None => {
                    replies[run.slot] = Some(match outcome {
                        Ok((result, cached)) => Reply::Result { id: run.id, result, cached },
                        Err(message) => Reply::Error { id: run.id, message },
                    });
                }
                Some(g) => acc[g].push(outcome),
            }
        }
        for (grid, points) in grids.iter().zip(acc) {
            let mut results = Vec::with_capacity(points.len());
            let mut failed = None;
            for point in points {
                match point {
                    Ok(pair) => results.push(pair),
                    Err(message) => {
                        // First failing point wins; a grid is all-or-
                        // nothing so the client can fall back cleanly.
                        failed = Some(message);
                        break;
                    }
                }
            }
            replies[grid.slot] = Some(match failed {
                Some(message) => Reply::Error { id: grid.id, message },
                None => Reply::Grid { id: grid.id, results },
            });
        }
        replies.into_iter().flatten().collect()
    }

    /// Parses a batch's lines, resolving program references. Every full
    /// program is digested here — a digest from the client is never
    /// trusted — and registered before any reference is resolved, so
    /// line order within the batch does not matter and a program sent on
    /// a line that is later refused or bounced `Busy` stays registered.
    fn parse_batch(&self, lines: &[String]) -> Vec<Result<Request, DecodeError>> {
        let mut values: Vec<Result<Json, String>> =
            lines.iter().map(|l| proto::parse_json(l)).collect();
        let mut table = self.table();
        // Programs sent in this batch resolve even if a later upload
        // evicted them from the table.
        let mut sent: HashMap<[u8; 32], Program> = HashMap::new();
        for line in values.iter_mut().flatten() {
            proto::register_programs(line, |program| {
                let digest = program.digest();
                sent.insert(digest, table.insert(digest, program));
                digest
            });
        }
        values
            .into_iter()
            .map(|line| {
                Request::decode(&line?, |digest| {
                    sent.get(digest).cloned().or_else(|| table.get(digest))
                })
            })
            .collect()
    }

    /// Executes the accepted run requests of one batch: keys and store
    /// lookups first, then the remainder simulated (each simulation
    /// individually panic-guarded), both fanned out on the warm pool,
    /// then store writes.
    /// Returns one result-or-error per run, aligned with `runs`.
    fn execute_runs(&self, runs: &[AcceptedRun]) -> Vec<RunOutcome> {
        let base = *self.sim.config();
        // Keys and loads fan out on the pool. A load failure is that
        // request's error reply, never the batch's.
        let lookups = self.pool.run(runs, |_, run| {
            let key = cacheable(&run.request, base).then(|| RunKey::of(&run.request, base));
            let outcome = match (&self.store, &key) {
                (Some(store), Some(key)) if !run.no_cache => match store.load(key) {
                    Ok(hit) => hit.map(|result| Ok((result, true))),
                    Err(e) => Some(Err(e.to_string())),
                },
                _ => None,
            };
            (key, outcome)
        });
        let (keys, mut out): (Vec<Option<RunKey>>, Vec<Option<RunOutcome>>) =
            lookups.into_iter().unzip();
        let hits = out.iter().filter(|o| matches!(o, Some(Ok(_)))).count();
        self.hits.fetch_add(hits as u64, Ordering::Relaxed);
        let todo: Vec<usize> = (0..runs.len()).filter(|&j| out[j].is_none()).collect();

        // Coalesce in-flight duplicates: requests with the same RunKey
        // in one batch simulate once — the representative runs (and
        // saves), the duplicates clone its result and count as hits.
        // `--no-cache` requests opt out and simulate individually, and
        // uncacheable requests (no key) are never coalesced.
        let mut unique: Vec<usize> = Vec::new(); // indices into `runs`
        let mut assign: Vec<(usize, usize)> = Vec::new(); // (runs idx, unique pos)
        {
            let mut seen: HashMap<RunKey, usize> = HashMap::new();
            for &j in &todo {
                if let (false, Some(key)) = (runs[j].no_cache, keys[j]) {
                    if let Some(&pos) = seen.get(&key) {
                        assign.push((j, pos));
                        continue;
                    }
                    seen.insert(key, unique.len());
                }
                assign.push((j, unique.len()));
                unique.push(j);
            }
        }

        let fresh: Vec<Result<RunResult, String>> = self
            .pool
            .try_run(&unique, |_, &j| {
                Ok::<_, SimError>(self.run_guarded(&runs[j].request))
            })
            .expect("guarded closure never errs");
        let mut results: Vec<RunOutcome> = Vec::with_capacity(unique.len());
        for (&j, outcome) in unique.iter().zip(fresh) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let outcome = outcome.and_then(|result| {
                if let (Some(store), Some(key)) = (&self.store, &keys[j]) {
                    store.save(key, &result).map_err(|e| e.to_string())?;
                }
                Ok((result, false))
            });
            results.push(outcome);
        }
        for (j, pos) in assign {
            let outcome = if unique[pos] == j {
                results[pos].clone()
            } else {
                // Served from the in-flight representative, not the
                // simulator — a hit, and flagged `cached` like one.
                self.hits.fetch_add(1, Ordering::Relaxed);
                results[pos].clone().map(|(result, _)| (result, true))
            };
            out[j] = Some(outcome);
        }
        out.into_iter()
            .map(|o| o.expect("every accepted run resolves to exactly one outcome"))
            .collect()
    }

    /// One simulation with the panic boundary drawn *inside* the worker
    /// closure: a panicking run yields an `Err` here instead of
    /// unwinding across the pool and killing the daemon.
    fn run_guarded(&self, req: &RunRequest) -> Result<RunResult, String> {
        match catch_unwind(AssertUnwindSafe(|| self.sim.run(req))) {
            Ok(Ok(output)) => Ok(output.into_result()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => Err(format!("worker panicked: {}", panic_message(&*payload))),
        }
    }

    fn stats_reply(&self, id: u64) -> Reply {
        let entries = match &self.store {
            Some(store) => match store.len() {
                Ok(n) => n,
                Err(e) => return Reply::Error { id, message: e.to_string() },
            },
            None => 0,
        };
        Reply::Stats {
            id,
            hits: self.hits(),
            misses: self.misses(),
            entries,
            programs: self.programs(),
            uploads: self.uploads(),
        }
    }

    /// Runs a verification campaign on the daemon's warm pool. Campaign
    /// runs carry in-process observability and never touch the store.
    fn run_campaign(&self, id: u64, seed: u64, quick: bool, fuzz: u64) -> Reply {
        let cfg = CampaignConfig {
            seed,
            quick,
            fuzz_count: Some(fuzz as usize),
            variants: None,
        };
        let checker = Checker::with_config(*self.sim.config());
        let outcome =
            catch_unwind(AssertUnwindSafe(|| cfg.run(&checker, &self.pool)));
        match outcome {
            Ok(Ok(result)) => Reply::Campaign {
                id,
                passed: result.passed(),
                checks: result.outcomes.len() as u64,
                render: result.render(),
            },
            Ok(Err(e)) => Reply::Error { id, message: e.to_string() },
            Err(payload) => Reply::Error {
                id,
                message: format!("campaign panicked: {}", panic_message(&*payload)),
            },
        }
    }
}

/// Why a run request cannot be served, if it cannot: the protocol
/// carries exactly one result per request, so multi-core and
/// PC-recording runs (which need the full in-process `RunOutput`) are
/// rejected with a typed error rather than silently truncated.
fn servable(req: &RunRequest) -> Result<(), String> {
    if req.programs.len() != 1 {
        return Err(format!(
            "multi-core requests ({} programs) are not servable; run them in-process",
            req.programs.len()
        ));
    }
    if req.record {
        return Err("recording runs are not servable; run them in-process".to_string());
    }
    Ok(())
}

/// Whether a request's results may be stored: obs-carrying results
/// cannot be serialized (the probe stays in-process), so they simulate
/// every time.
fn cacheable(req: &RunRequest, base: SimConfig) -> bool {
    !req.effective_config(base).obs.enabled()
}

/// What one accepted run resolves to: its result and whether it was
/// served from the store, or an error message for its reply.
type RunOutcome = Result<(RunResult, bool), String>;

/// A run request admitted past the queue bound, with its reply slot in
/// the batch and its echoed id. Grid points carry the index of their
/// [`AcceptedGrid`] so outcomes accumulate into one `Grid` reply
/// instead of filling the slot directly.
#[derive(Debug)]
struct AcceptedRun {
    slot: usize,
    id: u64,
    request: RunRequest,
    no_cache: bool,
    grid: Option<usize>,
}

/// An accepted grid request: one reply slot collecting `points`
/// expanded runs.
#[derive(Debug)]
struct AcceptedGrid {
    slot: usize,
    id: u64,
    points: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_harness::{Runner, Variant};
    use sdo_workloads::kernels::l1_resident;
    use std::os::unix::net::UnixStream;

    /// Sends `shutdown` to the daemon on the socket when dropped.
    struct Shutdown<'a>(&'a str);

    impl Drop for Shutdown<'_> {
        fn drop(&mut self) {
            if let Ok(mut stream) = UnixStream::connect(self.0) {
                let _ = stream.write_all(format!("{}\n\n", Request::Shutdown.render()).as_bytes());
            }
        }
    }

    #[test]
    fn the_runner_recovers_after_programs_are_evicted() {
        // A table that keeps only the newest program: every switch of
        // program evicts the previous one.
        let opts = ServeOptions { store: None, queue: 64, base: SimConfig::tiny() };
        let server = Server::with_program_bound(opts, JobPool::new(2), 1).unwrap();
        let dir = std::env::temp_dir().join(format!("sdo-serve-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("sock").to_string_lossy().into_owned();
        let (a, b) = (l1_resident(60, 1), l1_resident(80, 1));
        let runs = |prog: &Program| -> Vec<RunRequest> {
            Variant::ALL.iter().map(|&v| RunRequest::program(prog).variant(v)).collect()
        };
        let client = Runner::server(SimConfig::tiny(), &sock);
        let local = Runner::local(SimConfig::tiny());
        let (c, mixed) = (l1_resident(100, 1), [runs(&a), runs(&b)].concat());
        std::thread::scope(|scope| {
            let server = &server;
            let path = sock.clone();
            scope.spawn(move || server.serve_socket(&path).expect("socket serve succeeds"));
            while UnixStream::connect(&sock).is_err() {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            // Stops the daemon even if an assertion below fails, so the
            // scope can join it.
            let _stop = Shutdown(&sock);
            for (reqs, uploads) in [(runs(&a), 1), (runs(&b), 2), (runs(&a), 3), (runs(&c), 4)] {
                let got = client.run_batch(&reqs, &JobPool::serial()).unwrap();
                assert_eq!(got, local.run_batch(&reqs, &JobPool::serial()).unwrap());
                assert_eq!(client.uploads(), uploads, "an evicted program is sent again");
                assert_eq!(server.programs(), 1);
            }
            // Two evicted programs in one batch: uploading the second
            // evicts the first again, yet every line of the batch
            // resolves.
            let got = client.run_batch(&mixed, &JobPool::serial()).unwrap();
            assert_eq!(got, local.run_batch(&mixed, &JobPool::serial()).unwrap());
            assert_eq!(client.uploads(), 6);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
