//! What the host was: the fingerprint every result record carries, and
//! the process's peak memory and CPU time.

use std::path::Path;

/// CPU model, worker count, toolchain, source revision and build profile.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub git_rev: String,
    pub profile: &'static str,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev(Path::new(env!("CARGO_MANIFEST_DIR")).parent()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Worker count: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without `.git` (an exported tree) reports `none`.
fn git_rev(root: Option<&Path>) -> String {
    let Some(git) = root.map(|r| r.join(".git")) else {
        return "none".to_string();
    };
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(rev, _)| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of the process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; the command
    // name (field 2) may hold spaces, so count from its closing paren.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // rest starts at field 3, so field n is at index n - 3.
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SEC
}

/// `sysconf(_SC_CLK_TCK)`, which Linux fixes at 100 for user space.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Time of a fixed piece of pure integer work, in milliseconds: the
/// median of a few repetitions. It touches no code of the repository, so
/// it moves only with the host's own speed, which on a shared machine
/// changes over minutes; records taken in a slow and a fast spell can be
/// told apart by it.
pub fn reference_ms() -> f64 {
    let mut times: Vec<f64> = (0..REFERENCE_REPS)
        .map(|rep| {
            let t = std::time::Instant::now();
            let mut table = [0u64; 2048];
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ rep;
            for i in 0..REFERENCE_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = (x as usize) & (table.len() - 1);
                table[slot] = table[slot].wrapping_mul(31).wrapping_add(x ^ i);
            }
            std::hint::black_box(&table);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

const REFERENCE_REPS: u64 = 5;
const REFERENCE_STEPS: u64 = 4_000_000;

/// Time the hypervisor gave the host's CPUs to other machines since
/// boot, summed over CPUs, in seconds (`steal` in `/proc/stat`).
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / CLOCK_TICKS_PER_SEC)
}
