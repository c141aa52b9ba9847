//! Seeded workload generation.
//!
//! The workload seed picks every kernel's data seed (and, for the
//! verification campaign, the fuzz seeds). Seed 0 is the paper sweep
//! itself: [`kernels`] returns `sdo_workloads::suite()` program for
//! program, so its Figure 6 numbers equal EXPERIMENTS.md. Any other
//! seed keeps each kernel's shape and size and redraws its data.

use sdo_mem::CacheLevel;
use sdo_rng::SdoRng;
use sdo_workloads::kernels::{
    fp_subnormal, hash_lookup, l1_resident, matmul_blocked, mix_branchy, phase_shift, ptr_chase,
    stencil, stream, stride,
};
use sdo_workloads::Workload;

/// A seed no tuning of this benchmark has looked at. A claimed gain must
/// also hold on it (see README.md).
pub const HELD_OUT_SEED: u64 = 7_340_033;

/// The data seed `suite()` gives each kernel, in suite order.
const SUITE_DATA_SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Per-kernel data seeds for a workload seed.
fn data_seeds(seed: u64) -> [u64; 10] {
    if seed == 0 {
        return SUITE_DATA_SEEDS;
    }
    let mut rng = SdoRng::seed_from_u64(seed);
    let mut seeds = [0u64; 10];
    for s in &mut seeds {
        *s = rng.next_u64();
    }
    seeds
}

/// The ten evaluation kernels with the sizes and warm-start ranges of
/// `sdo_workloads::suite()`, their data drawn from `seed`.
#[must_use]
pub fn kernels(seed: u64) -> Vec<Workload> {
    let [s1, s2, s3, s4, s5, s6, s7, s8, s9, s10] = data_seeds(seed);
    vec![
        Workload::new("ptr_chase", ptr_chase(1 << 20, 4000, s1)).warmed(
            0x10_0000,
            1 << 20,
            CacheLevel::L3,
        ),
        Workload::new("stream", stream(4096, 2, s2)).warmed(0x20_0000, 4096 * 8, CacheLevel::L3),
        Workload::new("stride", stride(1536, 3, 3, s3)).warmed(
            0x40_0000,
            1536 * 64,
            CacheLevel::L3,
        ),
        Workload::new("mix_branchy", mix_branchy(1 << 14, 3000, s4)).warmed(
            0x30_0000,
            (1 << 14) * 8,
            CacheLevel::L2,
        ),
        Workload::new("hash_lookup", hash_lookup(1 << 16, 3000, s5)).warmed(
            0x80_0000,
            (1 << 16) * 8,
            CacheLevel::L3,
        ),
        Workload::new("stencil", stencil(2048, 3, s6)).warmed(
            0x50_0000,
            2048 * 8 + 16,
            CacheLevel::L2,
        ),
        Workload::new("matmul_blocked", matmul_blocked(18, s7)),
        Workload::new("fp_subnormal", fp_subnormal(3000, 16, s8)),
        Workload::new("phase_shift", phase_shift(500, 5, s9)).warmed(
            0xB0_0000,
            (1 << 16) * 8,
            CacheLevel::L3,
        ),
        Workload::new("l1_resident", l1_resident(5000, s10)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_suite_program_for_program() {
        let ours = kernels(0);
        let suite = sdo_workloads::suite();
        assert_eq!(ours.len(), suite.len());
        for (a, b) in ours.iter().zip(&suite) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.program(), b.program(), "{}: program differs", a.name());
            assert_eq!(
                a.prewarm_ranges(),
                b.prewarm_ranges(),
                "{}: warm-up differs",
                a.name()
            );
        }
    }

    #[test]
    fn other_seeds_redraw_data_but_keep_shape() {
        let a = kernels(1);
        let b = kernels(2);
        let suite = sdo_workloads::suite();
        assert_eq!(
            kernels(1)[0].program(),
            a[0].program(),
            "generation is deterministic"
        );
        for (x, s) in a.iter().zip(&suite) {
            assert_eq!(x.name(), s.name());
            assert_eq!(x.prewarm_ranges(), s.prewarm_ranges());
            assert_eq!(x.program().len(), s.program().len(), "{}", x.name());
        }
        assert!(a.iter().zip(&b).any(|(x, y)| x.program() != y.program()));
    }
}
