//! Golden tests for the content-addressed store key.
//!
//! [`RunKey`] identity is what makes memoization sound: two requests map
//! to the same key exactly when the simulator is guaranteed (by
//! determinism) to produce byte-identical results for them. These tests
//! pin the key of one fixed request to a literal digest — so any change
//! to the canonical encoding is a *visible* decision that invalidates
//! stores, not a silent one — and walk representative knobs at every
//! config layer proving each one lands in the key.

use sdo_harness::store::RunKey;
use sdo_harness::{proto, JobPool, Runner, RunRequest, SimConfig, Variant};
use sdo_isa::{Instruction, Program};
use sdo_mem::CacheLevel;
use sdo_rng::SdoRng;
use sdo_uarch::AttackModel;
use sdo_workloads::kernels::{self, l1_resident};
use sdo_workloads::random::{random_program, SCRATCH_BASE};

fn fixed_request() -> (sdo_isa::Program, SimConfig) {
    (l1_resident(120, 1), SimConfig::table_i())
}

/// The pinned digest of `fixed_request()` under `sdo-runkey-v2`. If this
/// test fails, the canonical request encoding changed: bump the domain
/// tag in `store.rs`, re-pin this literal, and note in DESIGN.md §13
/// that existing stores are invalidated.
#[test]
fn runkey_digest_is_pinned() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    assert_eq!(
        RunKey::of(&req, base).hex(),
        "2d1eca3646df70ccddc79886db8e3484bcdaa1167caabcea5e41418cd06c119b",
    );
}

#[test]
fn runkey_is_a_pure_function_of_the_request() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    let again = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    assert_eq!(RunKey::of(&req, base), RunKey::of(&again, base));
    assert_eq!(RunKey::of(&req, base).hex(), RunKey::of(&req, base).hex());
}

/// A request-level config override that equals the base resolves to the
/// same key as no override at all: the key hashes the *effective*
/// config, so clients can't fragment the store by spelling defaults out.
#[test]
fn runkey_hashes_the_effective_config() {
    let (prog, base) = fixed_request();
    let implicit = RunRequest::program(&prog).variant(Variant::Hybrid);
    let explicit = RunRequest::program(&prog).variant(Variant::Hybrid).config(base);
    assert_eq!(RunKey::of(&implicit, base), RunKey::of(&explicit, base));
    // ...and an override that *differs* from the base diverges.
    assert_ne!(RunKey::of(&implicit, base), RunKey::of(&implicit, SimConfig::tiny()));
}

/// Every layer of the machine description reaches the key. One
/// representative knob per subsystem: pipeline, latencies, L1 geometry,
/// DRAM, TLB, cycle budget, observability, fast-forward, mesh shape.
#[test]
fn runkey_diverges_on_every_config_layer() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    let key = RunKey::of(&req, base);

    let knobs: Vec<(&str, SimConfig)> = vec![
        ("core.width", {
            let mut c = base;
            c.core.width += 1;
            c
        }),
        ("core.rob_entries", {
            let mut c = base;
            c.core.rob_entries += 16;
            c
        }),
        ("core.lat.fp_mul", {
            let mut c = base;
            c.core.lat.fp_mul += 1;
            c
        }),
        ("mem.l1.size_bytes", {
            let mut c = base;
            c.mem.l1.size_bytes *= 2;
            c
        }),
        ("mem.l1.latency", {
            let mut c = base;
            c.mem.l1.latency += 1;
            c
        }),
        ("mem.mesh_cols", {
            let mut c = base;
            c.mem.mesh_cols += 1;
            c
        }),
        ("mem.dram.banks", {
            let mut c = base;
            c.mem.dram.banks += 1;
            c
        }),
        ("mem.tlb.entries", {
            let mut c = base;
            c.mem.tlb.entries *= 2;
            c
        }),
        ("max_cycles", {
            let mut c = base;
            c.max_cycles += 1;
            c
        }),
        ("obs.occupancy", {
            let mut c = base;
            c.obs.occupancy = true;
            c
        }),
        ("fast_forward", {
            let mut c = base;
            c.fast_forward = false;
            c
        }),
    ];
    for (name, cfg) in knobs {
        assert_ne!(
            RunKey::of(&req.clone().config(cfg), base),
            key,
            "changing {name} must change the key"
        );
    }
}

/// Request-level knobs (everything outside the machine config) also
/// reach the key.
#[test]
fn runkey_diverges_on_every_request_knob() {
    let (prog, base) = fixed_request();
    let req = RunRequest::program(&prog).variant(Variant::Hybrid).seed(7);
    let key = RunKey::of(&req, base);

    let other_prog = l1_resident(121, 1);
    let variants = [
        ("variant", RunRequest::program(&prog).variant(Variant::Unsafe).seed(7)),
        (
            "attack",
            RunRequest::program(&prog)
                .variant(Variant::Hybrid)
                .attack(AttackModel::Futuristic)
                .seed(7),
        ),
        ("seed", RunRequest::program(&prog).variant(Variant::Hybrid).seed(8)),
        ("program", RunRequest::program(&other_prog).variant(Variant::Hybrid).seed(7)),
    ];
    for (name, other) in variants {
        assert_ne!(RunKey::of(&other, base), key, "changing {name} must change the key");
    }
}

/// Each part of a program — its data image, its name, its instructions —
/// and each warm-start range reaches the key, down to a single byte.
#[test]
fn runkey_diverges_on_every_program_part_and_prewarm_range() {
    let (prog, base) = fixed_request();
    let key_of = |p: &Program| RunKey::of(&RunRequest::program(p).variant(Variant::Hybrid), base);
    let key = key_of(&prog);

    let (addr, byte) = prog.data().iter().next().expect("l1_resident has data");
    let mut data_byte = prog.clone();
    data_byte.data_mut().set_byte(addr, byte ^ 1);
    let mut name = prog.clone();
    name.set_name("l1_resident_renamed");
    let mut insts = prog.instructions().to_vec();
    insts[0] = if insts[0] == Instruction::Nop { Instruction::Halt } else { Instruction::Nop };
    let inst = Program::new(prog.name(), insts, prog.data().clone());
    let edits = [("one data byte", data_byte), ("the name", name), ("one instruction", inst)];
    for (what, other) in edits {
        assert_ne!(key_of(&other), key, "changing {what} must change the key");
    }
    assert_eq!(key_of(&prog.clone()), key, "a clone is the same program");

    let warmed = |start, bytes, level| {
        let req = RunRequest::program(&prog).variant(Variant::Hybrid).warmed(start, bytes, level);
        RunKey::of(&req, base)
    };
    let one = warmed(0x1000, 4096, CacheLevel::L2);
    assert_ne!(one, key, "adding a prewarm range must change the key");
    for (what, other) in [
        ("start", warmed(0x1040, 4096, CacheLevel::L2)),
        ("length", warmed(0x1000, 4160, CacheLevel::L2)),
        ("level", warmed(0x1000, 4096, CacheLevel::L3)),
    ] {
        assert_ne!(other, one, "changing a prewarm range's {what} must change the key");
    }
}

/// The v1-style canonical encoding: the whole request, data images in
/// full, with the effective config resolved. Two requests are the same
/// simulation exactly when these renders are equal.
fn canonical_json(req: &RunRequest, base: SimConfig) -> String {
    let mut canonical = req.clone();
    canonical.config = Some(req.effective_config(base));
    proto::request_to_json(&canonical).render()
}

/// Keying by program digest loses nothing: over fuzzed requests (random
/// programs × variants × seeds × single-byte image edits), two keys are
/// equal if and only if the full canonical renders are.
#[test]
fn runkey_v2_agrees_with_the_canonical_encoding() {
    let base = SimConfig::tiny();
    let mut rng = SdoRng::seed_from_u64(0x5d0_c0de);
    let mut reqs = Vec::new();
    for _ in 0..240 {
        // Regenerated, not cloned: equal programs must not need a shared
        // image to key alike.
        let mut prog = random_program(rng.gen_range(0..3), 2);
        if rng.gen_bool(0.6) {
            let addr = SCRATCH_BASE + rng.gen_range(0..0x1000);
            let old = prog.data().byte(addr);
            let new = match rng.gen_range(0..3) {
                0 => old, // a no-op edit keeps the image identical
                1 => old ^ 1,
                _ => rng.gen(),
            };
            prog.data_mut().set_byte(addr, new);
        }
        let variant = [Variant::Unsafe, Variant::Hybrid][rng.gen_range(0..2)];
        reqs.push(RunRequest::program(&prog).variant(variant).seed(rng.gen_range(0..2)));
    }
    let keys: Vec<RunKey> = reqs.iter().map(|r| RunKey::of(r, base)).collect();
    let renders: Vec<String> = reqs.iter().map(|r| canonical_json(r, base)).collect();
    let (mut same, mut different) = (0, 0);
    for i in 0..reqs.len() {
        for j in i + 1..reqs.len() {
            let equal = renders[i] == renders[j];
            assert_eq!(keys[i] == keys[j], equal, "requests {i} and {j}");
            if equal {
                same += 1;
            } else {
                different += 1;
            }
        }
    }
    assert!(same > 0 && different > 0, "both sides of the iff are exercised");
}

/// The cache-semantics contract end to end, at suite granularity: a
/// warm-store rerun of a fig6-shaped suite is served entirely from the
/// store (zero simulations) and the exported CSV is byte-identical.
#[test]
fn warm_store_rerun_is_all_hits_and_byte_identical() {
    let dir = std::env::temp_dir()
        .join(format!("sdo-runkey-warm-{}", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_dir_all(&dir);
    let suite = &kernels::suite()[..2];
    let pool = JobPool::new(2);

    let cold = Runner::with_store(SimConfig::tiny(), &dir).unwrap();
    let cold_results = sdo_harness::experiments::run_suite_on(&cold, suite, &pool).unwrap();
    let cold_csv = sdo_harness::export::fig6_csv(&cold_results);
    assert_eq!(cold.hits(), 0);
    assert_eq!(cold.misses(), cold_results.sims());

    let warm = Runner::with_store(SimConfig::tiny(), &dir).unwrap();
    let warm_results = sdo_harness::experiments::run_suite_on(&warm, suite, &pool).unwrap();
    let warm_csv = sdo_harness::export::fig6_csv(&warm_results);
    assert_eq!(warm.misses(), 0, "warm rerun must execute zero simulations");
    assert_eq!(warm.hits(), cold_results.sims());
    assert_eq!(warm_csv, cold_csv, "warm-store CSV is byte-identical");
    assert_eq!(
        warm.cache_report().unwrap(),
        format!("cache: {} hits, 0 misses (100.0% cached)", warm.hits())
    );

    // --no-cache re-simulates everything (counted as misses, refreshing
    // the store) but still matches, because the simulator is
    // deterministic.
    let bypass = Runner::with_store(SimConfig::tiny(), &dir).unwrap().no_cache(true);
    let bypass_results = sdo_harness::experiments::run_suite_on(&bypass, suite, &pool).unwrap();
    assert_eq!((bypass.hits(), bypass.misses()), (0, cold_results.sims()));
    assert_eq!(sdo_harness::export::fig6_csv(&bypass_results), cold_csv);
    std::fs::remove_dir_all(&dir).unwrap();
}
