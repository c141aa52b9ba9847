//! The [`Runner`]: one façade for executing batches of [`RunRequest`]s
//! locally, memoized through a content-addressed [`ResultStore`], or
//! submitted to a running `sdo-serve` daemon — selected by the uniform
//! `--store` / `--server` / `--no-cache` client flags every bin exposes.
//!
//! Whatever the backend, a batch returns results in request order and
//! the hit/miss counters record how many simulations were actually
//! executed, so callers (and CI) can assert "second pass: 100% cache
//! hits, zero re-simulations".

use crate::engine::JobPool;
use crate::proto::{Reply, Request, BATCH_ERROR_ID};
use crate::sim::{RunRequest, RunResult, SimError, Simulator};
use crate::store::{hex, ResultStore, RunKey};
use crate::{SimConfig, Variant};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug)]
enum Backend {
    /// Simulate on this process's pool, optionally memoizing into a
    /// store.
    Local { store: Option<ResultStore> },
    /// Submit to an `sdo-serve` daemon over its Unix socket.
    Server { path: String },
}

/// Executes batches of run requests against a selectable backend. See
/// the module docs.
#[derive(Debug)]
pub struct Runner {
    sim: Simulator,
    backend: Backend,
    no_cache: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    uploads: AtomicU64,
}

impl Runner {
    fn with_backend(cfg: SimConfig, backend: Backend) -> Self {
        Runner {
            sim: Simulator::new(cfg),
            backend,
            no_cache: false,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            uploads: AtomicU64::new(0),
        }
    }

    /// A purely local runner (no store, no daemon) — the classic
    /// in-process harness behavior.
    #[must_use]
    pub fn local(cfg: SimConfig) -> Self {
        Self::with_backend(cfg, Backend::Local { store: None })
    }

    /// A local runner memoizing through the content-addressed store at
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] if the store cannot be opened.
    pub fn with_store(cfg: SimConfig, dir: &str) -> Result<Self, SimError> {
        Ok(Self::with_backend(cfg, Backend::Local { store: Some(ResultStore::open(dir)?) }))
    }

    /// A thin client submitting every batch to the daemon listening on
    /// the Unix socket at `path`. Programs travel by digest and are sent
    /// in full only when the daemon answers `NeedProgram`.
    #[must_use]
    pub fn server(cfg: SimConfig, path: impl Into<String>) -> Self {
        Self::with_backend(cfg, Backend::Server { path: path.into() })
    }

    /// Disables store lookups (results are still saved locally when a
    /// store is configured; the daemon honors the flag per request).
    #[must_use]
    pub fn no_cache(mut self, on: bool) -> Self {
        self.no_cache = on;
        self
    }

    /// The base machine configuration requests run under when they carry
    /// no override.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        *self.sim.config()
    }

    /// The underlying local simulator (penetration tests and the
    /// verifier need raw [`Simulator::run`] access for memory residency
    /// and observability, which never route through a store).
    #[must_use]
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Results served from the store (local or daemon-side) so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Results actually simulated so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Programs sent to the daemon in full so far; always 0 for a local
    /// runner.
    #[must_use]
    pub fn uploads(&self) -> u64 {
        self.uploads.load(Ordering::Relaxed)
    }

    /// Corrupt store entries quarantined (and recomputed) so far; always
    /// 0 without a local store.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        match &self.backend {
            Backend::Local { store: Some(store) } => store.quarantined(),
            _ => 0,
        }
    }

    /// A one-line cache report for stderr, or `None` for a plain local
    /// runner (no store, no server — nothing to report). Quarantined
    /// entries are appended only when there were any; a server client
    /// appends the programs it uploaded.
    #[must_use]
    pub fn cache_report(&self) -> Option<String> {
        let tail = match &self.backend {
            Backend::Local { store: None } => return None,
            Backend::Local { store: Some(_) } => match self.quarantined() {
                0 => String::new(),
                n => format!(", {n} quarantined"),
            },
            Backend::Server { .. } => format!(", {} programs uploaded", self.uploads()),
        };
        let hits = self.hits();
        let misses = self.misses();
        let total = hits + misses;
        let pct = if total == 0 { 0.0 } else { 100.0 * hits as f64 / total as f64 };
        Some(format!("cache: {hits} hits, {misses} misses ({pct:.1}% cached){tail}"))
    }

    /// Runs one request (serially).
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SimError`].
    pub fn run_one(&self, req: &RunRequest) -> Result<RunResult, SimError> {
        Ok(self
            .run_batch(std::slice::from_ref(req), &JobPool::serial())?
            .into_iter()
            .next()
            .expect("one request yields one result"))
    }

    /// Runs a batch, returning one result per request in request order
    /// (the canonical merge — byte-identical at any `--jobs`).
    ///
    /// Requests must be single-program and non-recording; multi-core and
    /// PC-recording runs need the full [`RunOutput`](crate::RunOutput)
    /// and go through [`Simulator::run`] directly.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failure: a [`SimError::Hang`] from
    /// simulation, [`SimError::Store`] from the store, or
    /// [`SimError::Server`] from the daemon.
    ///
    /// # Panics
    ///
    /// Panics if a request is multi-program or recording.
    pub fn run_batch(
        &self,
        reqs: &[RunRequest],
        pool: &JobPool,
    ) -> Result<Vec<RunResult>, SimError> {
        for req in reqs {
            assert_eq!(req.programs.len(), 1, "Runner batches are single-program");
            assert!(!req.record, "recording runs do not route through a Runner");
        }
        match &self.backend {
            Backend::Local { store } => self.run_local(reqs, store.as_ref(), pool),
            Backend::Server { path } => self.run_remote(reqs, path),
        }
    }

    /// Runs a parameter grid — every `configs` × `variants` combination
    /// of `template` (config-major, variant-minor) — returning one
    /// result per point in that order.
    ///
    /// Against a daemon the whole grid travels as a single `grid`
    /// request line (one round-trip, one reply line); each expanded
    /// point carries the same [`RunKey`] as the equivalent individual
    /// run request, so store entries are shared between the two paths.
    /// A daemon whose queue cannot absorb the whole grid answers
    /// `Busy`, and the client transparently falls back to submitting
    /// the points as an ordinary batch.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SimError`], exactly like
    /// [`run_batch`](Self::run_batch).
    ///
    /// # Panics
    ///
    /// Panics if `template` is multi-program or recording.
    pub fn run_grid(
        &self,
        template: &RunRequest,
        configs: &[SimConfig],
        variants: &[Variant],
        pool: &JobPool,
    ) -> Result<Vec<RunResult>, SimError> {
        assert_eq!(template.programs.len(), 1, "Runner grids are single-program");
        assert!(!template.record, "recording runs do not route through a Runner");
        let expand = || -> Vec<RunRequest> {
            configs
                .iter()
                .flat_map(|&cfg| {
                    variants.iter().map(move |&v| template.clone().variant(v).config(cfg))
                })
                .collect()
        };
        match &self.backend {
            Backend::Local { .. } => self.run_batch(&expand(), pool),
            Backend::Server { path } => {
                match self.run_grid_remote(template, configs, variants, path)? {
                    Some(results) => Ok(results),
                    // The daemon bounced the grid (queue too small for
                    // its point count): per-point submission chunks
                    // naturally through the Busy/resubmit protocol.
                    None => self.run_batch(&expand(), pool),
                }
            }
        }
    }

    /// One grid request over the socket, its program by digest (sent in
    /// full once if the daemon asks). `Ok(None)` means the daemon
    /// answered `Busy` and the caller should fall back to a per-point
    /// batch.
    fn run_grid_remote(
        &self,
        template: &RunRequest,
        configs: &[SimConfig],
        variants: &[Variant],
        path: &str,
    ) -> Result<Option<Vec<RunResult>>, SimError> {
        let mut wire = Wire::connect(path)?;
        let msg = Request::Grid {
            id: 0,
            request: template.clone(),
            configs: configs.to_vec(),
            variants: variants.to_vec(),
            no_cache: self.no_cache,
        };
        let mut line = msg.render_by_digest();
        let mut uploaded = false;
        loop {
            wire.send(&format!("{line}\n\n"))?;
            match wire.reply()? {
                Reply::Grid { results, .. } => {
                    let points = configs.len() * variants.len();
                    if results.len() != points {
                        return Err(SimError::Server(format!(
                            "grid reply carries {} points, expected {points}",
                            results.len()
                        )));
                    }
                    let mut out = Vec::with_capacity(points);
                    for (result, cached) in results {
                        self.count(cached);
                        out.push(result);
                    }
                    return Ok(Some(out));
                }
                Reply::Busy { .. } => return Ok(None),
                Reply::NeedProgram { digest, .. } if !uploaded => {
                    if digest != template.programs[0].digest() {
                        return Err(wire.unrequested(&digest));
                    }
                    uploaded = true;
                    self.uploads.fetch_add(1, Ordering::Relaxed);
                    line = msg.render();
                }
                Reply::NeedProgram { digest, .. } => return Err(wire.asked_again(&digest)),
                Reply::Error { message, .. } => return Err(SimError::Server(message)),
                other => {
                    return Err(SimError::Server(format!(
                        "unexpected reply {other:?} to a grid request"
                    )))
                }
            }
        }
    }

    /// Counts one served result as a hit or a miss.
    fn count(&self, cached: bool) {
        let counter = if cached { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn cacheable(&self, req: &RunRequest) -> bool {
        // Obs-carrying results cannot be serialized (the probe stays
        // in-process), so they are simulated every time.
        !req.effective_config(self.config()).obs.enabled()
    }

    fn run_local(
        &self,
        reqs: &[RunRequest],
        store: Option<&ResultStore>,
        pool: &JobPool,
    ) -> Result<Vec<RunResult>, SimError> {
        // Keys and loads fan out on the pool; the first failing request
        // (by index) fails the batch.
        let lookups: Vec<(Option<RunKey>, Option<RunResult>)> = match store {
            None => vec![(None, None); reqs.len()],
            Some(store) => pool.try_run(reqs, |_, req| {
                let key = self.cacheable(req).then(|| RunKey::of(req, self.config()));
                let hit = match &key {
                    Some(key) if !self.no_cache => store.load(key)?,
                    _ => None,
                };
                Ok::<_, SimError>((key, hit))
            })?,
        };
        let (keys, mut slots): (Vec<Option<RunKey>>, Vec<Option<RunResult>>) =
            lookups.into_iter().unzip();
        let todo: Vec<usize> = (0..reqs.len()).filter(|&i| slots[i].is_none()).collect();
        self.hits.fetch_add((reqs.len() - todo.len()) as u64, Ordering::Relaxed);

        let fresh = pool.try_run(&todo, |_, &i| {
            self.sim.run(&reqs[i]).map(crate::RunOutput::into_result)
        })?;
        self.misses.fetch_add(todo.len() as u64, Ordering::Relaxed);
        for (&i, result) in todo.iter().zip(fresh) {
            if let (Some(store), Some(key)) = (store, &keys[i]) {
                store.save(key, &result)?;
            }
            slots[i] = Some(result);
        }
        Ok(slots.into_iter().map(|s| s.expect("every slot filled")).collect())
    }

    /// Submits a batch over the socket. Every request first names its
    /// program by digest; ids the daemon answers `NeedProgram` (or
    /// `Busy`) go again in the next round, where the lowest id per
    /// missing digest carries the program in full. Nothing is kept
    /// between calls, so a daemon restart or an eviction only costs one
    /// more round.
    fn run_remote(&self, reqs: &[RunRequest], path: &str) -> Result<Vec<RunResult>, SimError> {
        let mut wire = Wire::connect(path)?;
        // Resolve the config client-side: the daemon's base config is
        // its own (and not ours), so a request sent with `config: None`
        // would silently run under whatever the daemon was started with.
        // Resolving here matches the RunKey canonicalization (the key
        // hashes the effective config), so cache behavior is unchanged.
        let msgs: Vec<Request> = reqs
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let mut request = req.clone();
                request.config = Some(request.effective_config(self.config()));
                Request::Run { id: i as u64, request, no_cache: self.no_cache }
            })
            .collect();
        let digests: Vec<[u8; 32]> = reqs.iter().map(|r| r.programs[0].digest()).collect();
        let mut slots: Vec<Option<RunResult>> = vec![None; reqs.len()];
        let mut first_error: Option<(u64, String)> = None;
        // Digests the daemon asked for and that the next round uploads,
        // and those already uploaded: a second request for one of those
        // fails the batch instead of looping.
        let mut wanted: HashSet<[u8; 32]> = HashSet::new();
        let mut uploaded: HashSet<[u8; 32]> = HashSet::new();
        let mut pending: Vec<usize> = (0..reqs.len()).collect();
        while !pending.is_empty() {
            let mut batch = String::new();
            for &i in &pending {
                if wanted.remove(&digests[i]) {
                    uploaded.insert(digests[i]);
                    self.uploads.fetch_add(1, Ordering::Relaxed);
                    batch.push_str(&msgs[i].render());
                } else {
                    batch.push_str(&msgs[i].render_by_digest());
                }
                batch.push('\n');
            }
            batch.push('\n');
            wire.send(&batch)?;
            let mut again: Vec<usize> = Vec::new();
            for _ in 0..pending.len() {
                match wire.reply()? {
                    Reply::Result { id, result, cached } => {
                        self.count(cached);
                        match slots.get_mut(id as usize) {
                            Some(slot) => *slot = Some(result),
                            None => {
                                return Err(SimError::Server(format!(
                                    "daemon replied for unknown id {id}"
                                )))
                            }
                        }
                    }
                    Reply::Busy { id } => again.push(id as usize),
                    Reply::NeedProgram { id, digest } => {
                        if digests.get(id as usize) != Some(&digest) {
                            return Err(wire.unrequested(&digest));
                        }
                        if uploaded.contains(&digest) {
                            return Err(wire.asked_again(&digest));
                        }
                        wanted.insert(digest);
                        again.push(id as usize);
                    }
                    Reply::Error { id, message } if id == BATCH_ERROR_ID => {
                        // Batch-level: the daemon could not attribute
                        // the error to any request we sent, so no slot
                        // can be filled — fail the whole batch.
                        return Err(SimError::Server(format!(
                            "daemon rejected a request line: {message}"
                        )));
                    }
                    Reply::Error { id, message } => {
                        if first_error.as_ref().is_none_or(|&(prev, _)| id < prev) {
                            first_error = Some((id, message));
                        }
                    }
                    other => {
                        return Err(SimError::Server(format!(
                            "unexpected reply {other:?} to a run batch"
                        )))
                    }
                }
            }
            again.sort_unstable();
            pending = again;
        }
        if let Some((_, message)) = first_error {
            return Err(SimError::Server(message));
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or_else(|| SimError::Server(format!("no reply for request {i}")))
            })
            .collect()
    }
}

/// One connection to a daemon: batches out, reply lines in.
struct Wire {
    path: String,
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Wire {
    fn connect(path: &str) -> Result<Wire, SimError> {
        let stream = UnixStream::connect(path)
            .map_err(|e| SimError::Server(format!("cannot connect to {path}: {e}")))?;
        let reader = BufReader::new(
            stream.try_clone().map_err(|e| SimError::Server(format!("socket clone: {e}")))?,
        );
        Ok(Wire { path: path.to_string(), stream, reader })
    }

    fn send(&mut self, batch: &str) -> Result<(), SimError> {
        self.stream
            .write_all(batch.as_bytes())
            .map_err(|e| SimError::Server(format!("write to {}: {e}", self.path)))
    }

    fn reply(&mut self) -> Result<Reply, SimError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| SimError::Server(format!("read from {}: {e}", self.path)))?;
        if n == 0 {
            return Err(SimError::Server(format!(
                "daemon at {} closed the connection mid-batch",
                self.path
            )));
        }
        Reply::parse(line.trim_end()).map_err(|e| SimError::Server(format!("bad reply line: {e}")))
    }

    fn asked_again(&self, digest: &[u8; 32]) -> SimError {
        SimError::Server(format!(
            "daemon at {} asked again for program {} after it was uploaded",
            self.path,
            hex(digest)
        ))
    }

    fn unrequested(&self, digest: &[u8; 32]) -> SimError {
        SimError::Server(format!(
            "daemon at {} asked for program {}, which the request does not name",
            self.path,
            hex(digest)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;
    use sdo_workloads::kernels::l1_resident;

    fn temp_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("sdo-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn local_runner_matches_direct_simulation() {
        let cfg = SimConfig::tiny();
        let prog = l1_resident(120, 1);
        let reqs: Vec<RunRequest> = Variant::ALL
            .iter()
            .map(|&v| RunRequest::program(&prog).variant(v))
            .collect();
        let runner = Runner::local(cfg);
        let batch = runner.run_batch(&reqs, &JobPool::new(4)).unwrap();
        let sim = Simulator::new(cfg);
        for (req, got) in reqs.iter().zip(&batch) {
            assert_eq!(*got, sim.run(req).unwrap().into_result());
        }
        assert_eq!(runner.hits(), 0);
        assert_eq!(runner.misses(), reqs.len() as u64);
        assert!(runner.cache_report().is_none(), "plain local runner has nothing to report");
    }

    #[test]
    fn warm_store_serves_the_whole_batch_with_zero_simulations() {
        let dir = temp_dir("warm");
        let cfg = SimConfig::tiny();
        let prog = l1_resident(120, 1);
        let reqs: Vec<RunRequest> = Variant::ALL
            .iter()
            .map(|&v| RunRequest::program(&prog).variant(v))
            .collect();

        let cold = Runner::with_store(cfg, &dir).unwrap();
        let cold_results = cold.run_batch(&reqs, &JobPool::new(2)).unwrap();
        assert_eq!(cold.hits(), 0);
        assert_eq!(cold.misses(), reqs.len() as u64);

        // A fresh runner (fresh process, in spirit) over the same store:
        // everything is a hit, nothing simulates, bytes are identical.
        let warm = Runner::with_store(cfg, &dir).unwrap();
        let warm_results = warm.run_batch(&reqs, &JobPool::new(2)).unwrap();
        assert_eq!(warm.hits(), reqs.len() as u64);
        assert_eq!(warm.misses(), 0, "warm rerun must execute zero simulations");
        assert_eq!(warm_results, cold_results);
        assert_eq!(
            warm.cache_report().unwrap(),
            format!("cache: {} hits, 0 misses (100.0% cached)", reqs.len())
        );

        // --no-cache forces re-simulation even with a warm store.
        let bypass = Runner::with_store(cfg, &dir).unwrap().no_cache(true);
        let bypass_results = bypass.run_batch(&reqs, &JobPool::serial()).unwrap();
        assert_eq!(bypass.hits(), 0);
        assert_eq!(bypass_results, cold_results);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hang_errors_propagate_through_the_store_path() {
        let dir = temp_dir("hang");
        let mut cfg = SimConfig::tiny();
        cfg.max_cycles = 500;
        let mut asm = sdo_isa::Assembler::named("spin");
        let top = asm.here();
        asm.j(top);
        let spin = asm.finish().unwrap();
        let runner = Runner::with_store(cfg, &dir).unwrap();
        let err = runner.run_one(&RunRequest::program(&spin)).unwrap_err();
        assert!(matches!(err, SimError::Hang { .. }));
        // A failed run must not poison the store.
        assert!(ResultStore::open(&dir).unwrap().is_empty().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
