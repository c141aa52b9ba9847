//! The content-addressed result store: `RunKey = SHA-256(canonical
//! request, programs by digest)` → serialized [`RunResult`] (DESIGN.md
//! §13).
//!
//! Soundness rests on two invariants the repo already enforces:
//!
//! 1. **Determinism** — the simulator is a pure function of the request
//!    (same program, configuration, variant, attack ⇒ byte-identical
//!    `RunResult`; pinned by the merge and fast-forward equivalence
//!    tests). A stored result is therefore indistinguishable from a
//!    fresh simulation.
//! 2. **Schema coverage** — the key hashes the *canonical* request
//!    encoding from [`crate::proto`], whose codec destructures every
//!    configuration struct exhaustively. Adding a field to `SimConfig`
//!    (or any nested struct, or `RunRequest` itself) breaks compilation
//!    until the codec — and therefore the key — covers it, so a
//!    configuration change can never alias an old cache entry.
//!
//! A corrupt or truncated entry is never fatal: [`ResultStore::load`]
//! renames it to `<hex>.corrupt`, counts it, and reports a miss, so the
//! caller recomputes and re-saves it.

use crate::proto::{self, Json};
use crate::sim::{RunRequest, RunResult, SimError};
use crate::SimConfig;
use sdo_isa::Sha256;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

pub use sdo_isa::sha256;

/// Version tag mixed into every key; bump it to invalidate all existing
/// stores when the encoding itself changes meaning.
const KEY_SCHEMA: &str = "sdo-runkey-v2";

/// Renders a digest as 64 lowercase hex digits.
pub(crate) fn hex(digest: &[u8; 32]) -> String {
    let mut out = String::with_capacity(64);
    for b in digest {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

// ---------------------------------------------------------------------------
// RunKey
// ---------------------------------------------------------------------------

/// The content address of one simulation: the SHA-256 of the canonical
/// request encoding with the configuration fully resolved (the
/// simulator's base configuration is substituted in before hashing, so a
/// request with no override and one overriding to the same configuration
/// hash identically — they *are* the same simulation) and each program
/// standing in as its [`Program::digest`](sdo_isa::Program::digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey([u8; 32]);

impl RunKey {
    /// Computes the key for `req` as executed by a simulator configured
    /// with `base`.
    #[must_use]
    pub fn of(req: &RunRequest, base: SimConfig) -> RunKey {
        let mut canonical = req.clone();
        canonical.config = Some(req.effective_config(base));
        let payload = proto::request_key_json(&canonical).render();
        let mut h = Sha256::new();
        h.update(KEY_SCHEMA.as_bytes());
        h.update(b"\n");
        h.update(payload.as_bytes());
        RunKey(h.finish())
    }

    /// The key as 64 lowercase hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        hex(&self.0)
    }
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

// ---------------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------------

/// A directory of serialized [`RunResult`]s addressed by [`RunKey`]
/// (`<dir>/<first-two-hex>/<hex>.json`, plus a regenerable
/// `manifest.tsv`). Writes are atomic (temp file + rename), so
/// concurrent clients and a daemon can share one store.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    quarantined: AtomicU64,
    /// Manifest lines of the entries this handle has already read, by
    /// key hex. Entries are immutable, so a listed entry's line never
    /// changes and each entry file is read for the manifest only once.
    manifest_lines: Mutex<HashMap<String, String>>,
}

impl ResultStore {
    /// Opens (creating if needed) a store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| SimError::Store(format!("cannot create {}: {e}", dir.display())))?;
        Ok(ResultStore {
            dir,
            quarantined: AtomicU64::new(0),
            manifest_lines: Mutex::new(HashMap::new()),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &RunKey) -> PathBuf {
        let hex = key.hex();
        self.dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Entries [`load`](Self::load) has quarantined as corrupt so far.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Fetches a stored result, or `None` on a miss. A corrupt entry is
    /// quarantined (renamed to `<hex>.corrupt`) and reported as a miss.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn load(&self, key: &RunKey) -> Result<Option<RunResult>, SimError> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(SimError::Store(format!("cannot read {}: {e}", path.display())))
            }
        };
        let parsed = String::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| proto::parse_json(&text))
            .and_then(|value| proto::result_from_json(&value));
        if let Ok(result) = parsed {
            return Ok(Some(result));
        }
        match fs::rename(&path, path.with_extension("corrupt")) {
            Ok(()) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            // A concurrent reader quarantined it first.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => {
                Err(SimError::Store(format!("cannot quarantine {}: {e}", path.display())))
            }
        }
    }

    /// Persists a result under `key` (atomic; a racing identical write
    /// is harmless because content-addressed entries are immutable).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn save(&self, key: &RunKey, result: &RunResult) -> Result<(), SimError> {
        let path = self.entry_path(key);
        if path.exists() {
            return Ok(());
        }
        let parent = path.parent().expect("entry path has a parent");
        fs::create_dir_all(parent)
            .map_err(|e| SimError::Store(format!("cannot create {}: {e}", parent.display())))?;
        let tmp = parent.join(format!(
            ".{}.tmp.{}",
            key.hex(),
            std::process::id()
        ));
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(proto::result_to_json(result).render().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        write.map_err(|e| {
            let _ = fs::remove_file(&tmp);
            SimError::Store(format!("cannot write {}: {e}", path.display()))
        })
    }

    /// Every key currently in the store, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn keys(&self) -> Result<Vec<String>, SimError> {
        let mut keys = Vec::new();
        let shards = fs::read_dir(&self.dir)
            .map_err(|e| SimError::Store(format!("cannot list {}: {e}", self.dir.display())))?;
        for shard in shards {
            let shard =
                shard.map_err(|e| SimError::Store(format!("cannot list store: {e}")))?;
            if !shard.path().is_dir() {
                continue;
            }
            let entries = fs::read_dir(shard.path())
                .map_err(|e| SimError::Store(format!("cannot list store shard: {e}")))?;
            for entry in entries {
                let entry =
                    entry.map_err(|e| SimError::Store(format!("cannot list store: {e}")))?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(hex) = name.strip_suffix(".json") {
                    if hex.len() == 64 && !hex.starts_with('.') {
                        keys.push(hex.to_string());
                    }
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// Number of entries in the store.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn len(&self) -> Result<u64, SimError> {
        Ok(self.keys()?.len() as u64)
    }

    /// Whether the store holds no entries.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn is_empty(&self) -> Result<bool, SimError> {
        Ok(self.keys()?.is_empty())
    }

    /// Renders the store manifest: one sorted
    /// `key<TAB>workload<TAB>variant<TAB>attack<TAB>cycles` line per
    /// entry. The entries are listed every time; each entry's file is
    /// read only the first time this handle lists it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure or a corrupt entry.
    pub fn manifest(&self) -> Result<String, SimError> {
        let mut lines = self.manifest_lines.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for hex in self.keys()? {
            if let Some(line) = lines.get(&hex) {
                out.push_str(line);
                continue;
            }
            let path = self.dir.join(&hex[..2]).join(format!("{hex}.json"));
            let text = fs::read_to_string(&path)
                .map_err(|e| SimError::Store(format!("cannot read {}: {e}", path.display())))?;
            let value = proto::parse_json(&text)
                .map_err(|e| SimError::Store(format!("corrupt entry {hex}: {e}")))?;
            let field = |key: &str| -> Result<String, SimError> {
                match value.get(key) {
                    Some(Json::Str(s)) => Ok(s.clone()),
                    Some(Json::UInt(n)) => Ok(n.to_string()),
                    _ => Err(SimError::Store(format!("corrupt entry {hex}: missing {key}"))),
                }
            };
            let line = format!(
                "{hex}\t{}\t{}\t{}\t{}\n",
                field("workload")?,
                field("variant")?,
                field("attack")?,
                field("cycles")?,
            );
            out.push_str(&line);
            lines.insert(hex, line);
        }
        Ok(out)
    }

    /// Writes (atomically replaces) `manifest.tsv` in the store root and
    /// returns its path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn write_manifest(&self) -> Result<PathBuf, SimError> {
        let manifest = self.manifest()?;
        let path = self.dir.join("manifest.tsv");
        let tmp = self.dir.join(format!(".manifest.tmp.{}", std::process::id()));
        fs::write(&tmp, manifest)
            .and_then(|()| fs::rename(&tmp, &path))
            .map_err(|e| SimError::Store(format!("cannot write manifest: {e}")))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::Variant;
    use sdo_workloads::kernels::l1_resident;

    #[test]
    fn run_key_is_stable_and_config_sensitive() {
        let prog = l1_resident(100, 1);
        let base = SimConfig::tiny();
        let req = RunRequest::program(&prog).variant(Variant::Hybrid);
        let k1 = RunKey::of(&req, base);
        let k2 = RunKey::of(&req.clone(), base);
        assert_eq!(k1, k2, "same request ⇒ same key");
        // An explicit override equal to the base is the same simulation.
        assert_eq!(RunKey::of(&req.clone().config(base), base), k1);
        // Any divergence — variant, seed, or a config field — changes it.
        assert_ne!(RunKey::of(&req.clone().variant(Variant::Perfect), base), k1);
        assert_ne!(RunKey::of(&req.clone().seed(1), base), k1);
        let mut other = base;
        other.max_cycles += 1;
        assert_ne!(RunKey::of(&req, other), k1);
    }

    #[test]
    fn store_round_trips_and_counts() {
        let dir = std::env::temp_dir().join(format!("sdo-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty().unwrap());

        let prog = l1_resident(100, 1);
        let base = SimConfig::tiny();
        let req = RunRequest::program(&prog).variant(Variant::Hybrid);
        let key = RunKey::of(&req, base);
        assert_eq!(store.load(&key).unwrap(), None);

        let result = Simulator::new(base).run(&req).unwrap().into_result();
        store.save(&key, &result).unwrap();
        assert_eq!(store.load(&key).unwrap(), Some(result.clone()));
        assert_eq!(store.len().unwrap(), 1);
        // Re-saving is a no-op (content-addressed, immutable).
        store.save(&key, &result).unwrap();
        assert_eq!(store.len().unwrap(), 1);

        let manifest = store.manifest().unwrap();
        assert!(manifest.starts_with(&key.hex()));
        assert!(manifest.contains("l1_resident\thybrid\tspectre"));
        let path = store.write_manifest().unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), manifest);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_follows_entries_other_handles_add_and_remove() {
        let dir = std::env::temp_dir().join(format!("sdo-store-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = SimConfig::tiny();
        let prog = l1_resident(50, 1);
        let entry = |v: Variant| {
            let req = RunRequest::program(&prog).variant(v);
            (RunKey::of(&req, base), Simulator::new(base).run(&req).unwrap().into_result())
        };
        let (a, b, c) = (entry(Variant::Hybrid), entry(Variant::Unsafe), entry(Variant::SttLd));
        let store = ResultStore::open(&dir).unwrap();
        store.save(&a.0, &a.1).unwrap();
        store.save(&b.0, &b.1).unwrap();
        assert_eq!(store.manifest().unwrap().lines().count(), 2);

        // Another handle (another process, say) adds one entry, then one
        // is deleted: the manifest lists exactly what is on disk, the
        // same as a handle that never read it before.
        ResultStore::open(&dir).unwrap().save(&c.0, &c.1).unwrap();
        let fresh = || ResultStore::open(&dir).unwrap().manifest().unwrap();
        assert_eq!(store.manifest().unwrap().lines().count(), 3);
        assert_eq!(store.manifest().unwrap(), fresh());
        std::fs::remove_file(store.entry_path(&a.0)).unwrap();
        assert_eq!(store.manifest().unwrap().lines().count(), 2);
        assert!(!store.manifest().unwrap().contains(&a.0.hex()));
        assert_eq!(store.manifest().unwrap(), fresh());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_quarantined_recomputed_and_resaved() {
        let dir = std::env::temp_dir().join(format!("sdo-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = SimConfig::tiny();
        let prog = l1_resident(50, 1);
        let req = RunRequest::program(&prog);
        let key = RunKey::of(&req, base);
        let fresh = Simulator::new(base).run(&req).unwrap().into_result();

        // Save a good entry, then truncate it mid-document.
        let store = ResultStore::open(&dir).unwrap();
        store.save(&key, &fresh).unwrap();
        let path = store.entry_path(&key);
        let text = std::fs::read(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let runner = crate::Runner::with_store(base, &dir.to_string_lossy()).unwrap();
        assert_eq!(runner.run_one(&req).unwrap(), fresh, "recomputed, not served corrupt");
        assert!(path.with_extension("corrupt").exists(), "the corrupt entry is kept aside");
        assert_eq!((runner.hits(), runner.misses(), runner.quarantined()), (0, 1, 1));
        assert_eq!(
            runner.cache_report().unwrap(),
            "cache: 0 hits, 1 misses (0.0% cached), 1 quarantined"
        );
        // The recomputed result was re-saved: the next load hits.
        assert_eq!(store.load(&key).unwrap(), Some(fresh));
        assert_eq!(store.quarantined(), 0, "counters are per store handle");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
