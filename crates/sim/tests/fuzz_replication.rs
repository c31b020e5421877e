//! The replication chaos gate: fixed-seed batches of generated
//! scenarios with the replication subsystem deployed — warm standbys
//! streaming forwarding-table deltas, the k=2 leaf replica rings, and
//! a generator biased at the new verbs (root/standby crashes,
//! `PromoteStandby`, partitions that let replicas diverge). Every run
//! is oracle-checked, including the promotion contract: a warm
//! promotion must not lose any record the stream durably acked.
//!
//! Like the base gate, the batches are bit-for-bit deterministic and
//! a failure shrinks to one `replay_dsl` line. The full acceptance
//! campaign (≥ 1000 scenarios, caches off and on) is the same code:
//! `HILOC_FUZZ_CASES=500 cargo test -p hiloc-sim --test
//! fuzz_replication --release`.

mod common;

use hiloc_sim::fuzz::{cases_from_env, fuzz_batch_with, generate_with, parse_dsl, CacheMode};
use hiloc_sim::harness::Runtime;

/// Fixed CI base seeds for the replication gates.
const BASE_SEED_OFF: u64 = 0x52_45_50_4C_00_01;
const BASE_SEED_ON: u64 = 0x52_45_50_4C_CA_C4;

#[test]
fn replication_fuzz_caches_off_is_oracle_green() {
    let cases = cases_from_env(32);
    let stats = fuzz_batch_with(BASE_SEED_OFF, cases, CacheMode::Off, true);
    assert_eq!(stats.cases, cases);
    // The bias must actually land on the new machinery: crashes under
    // active delta streams, and warm/cold promotions over them.
    assert!(stats.crashes > 0, "no scenario crashed a server: {stats:?}");
    assert!(stats.promotions > 0, "no scenario promoted over the root: {stats:?}");
    assert!(stats.events > 0 && stats.reshapes > 0, "{stats:?}");
}

#[test]
fn replication_fuzz_caches_on_is_oracle_green_under_bounded_staleness() {
    let cases = cases_from_env(32);
    let stats = fuzz_batch_with(BASE_SEED_ON, cases, CacheMode::On { max_aged_acc_m: 100.0 }, true);
    assert_eq!(stats.cases, cases);
    assert!(stats.crashes > 0, "no scenario crashed a server: {stats:?}");
    assert!(stats.promotions > 0, "no scenario promoted over the root: {stats:?}");
    // With caches on, replica shadow copies may answer position
    // queries within the staleness bound — the oracle holds them to
    // the same bounded-staleness contract as the §6.5 caches.
    assert!(stats.cache_answers > 0, "no cache ever answered: {stats:?}");
}

/// Behaviour-preservation pin: case 0 of each replication base seed
/// must run to the trace, network counters and end time it ran to
/// before the executor became generic over the runtime.
#[test]
fn replicated_simulator_runs_are_frozen() {
    let on = CacheMode::On { max_aged_acc_m: 100.0 };
    for (seed, mode, digest) in [
        (BASE_SEED_OFF, CacheMode::Off, 0xA8D2_0188_D2FF_ED4F),
        (BASE_SEED_ON, on, 0xCC0D_BEF7_421D_0068),
    ] {
        let spec = generate_with(seed, mode, true, Runtime::Sim);
        let run = spec.run().expect("the simulator runs it");
        assert_eq!(common::run_digest(&run), digest, "replication case 0 of {seed:#x} moved");
    }
}

#[test]
fn replicated_timelines_are_valid_and_round_trip_through_the_dsl() {
    let mut lines = Vec::new();
    for seed in 0..200u64 {
        let mode = if seed % 2 == 0 {
            CacheMode::Off
        } else {
            CacheMode::On { max_aged_acc_m: 50.0 + seed as f64 }
        };
        let spec =
            generate_with(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), mode, true, Runtime::Sim);
        assert!(spec.replication);
        assert!(spec.valid(), "invalid replicated timeline for seed {seed}: {spec:?}");
        let parsed = parse_dsl(&spec.to_dsl())
            .unwrap_or_else(|e| panic!("DSL round-trip failed for seed {seed}: {e}"));
        assert_eq!(parsed, spec, "DSL round-trip must be exact (seed {seed})");
        lines.push(spec.to_dsl());
    }
    // Behaviour-preservation pin on what the replication bias draws.
    assert_eq!(common::fnv1a(&lines), 0xFA9C_2CED_2115_BC6C);
}

#[test]
fn standby_slots_shift_spawned_ids_in_the_model() {
    // levels=1 fanout=2: servers 0..=4, root standby reserved at 5 —
    // so a spawn allocates 6, and a timeline crashing "the spawned
    // server" must mean id 6, not 5 (which is the standby, crashable
    // in its own right).
    let warm = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=10 repl=1 \
         ev=2:spawn:1 ev=3:crash:6 ev=5:restart:6",
    )
    .unwrap();
    assert!(warm.valid(), "spawned id 6 must exist with the standby slot at 5");
    // The standby itself is a legal crash target (mid-delta-stream
    // crash), even though the hierarchy marks its slot retired.
    let standby_crash = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=10 repl=1 ev=2:crash:5 ev=4:restart:5",
    )
    .unwrap();
    assert!(standby_crash.valid(), "a live standby must be crashable");
    // Without replication the same ids are out of range / not leaves.
    let cold = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=10 ev=2:crash:5 ev=4:restart:5",
    )
    .unwrap();
    assert!(!cold.valid(), "id 5 must not exist without the standby reservation");
    // Crashing the root and its standby forces the cold fallback —
    // still a closable, valid timeline (the old root stays retired).
    let both_dead = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=10 repl=1 \
         ev=2:crash:5 ev=3:crash:0 ev=5:promote",
    )
    .unwrap();
    assert!(both_dead.valid(), "dead standby + promote must fall back cold");
}
