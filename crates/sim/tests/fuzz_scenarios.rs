//! The CI fuzz gate: a fixed-seed batch of generated chaos scenarios,
//! run with the §6.5 caches off and on. Every run is oracle-checked;
//! a failure shrinks to a minimal reproducer and panics with a single
//! `replay_dsl` line (paste it into `fuzz_regressions.rs` once fixed).
//!
//! The batch is bit-for-bit deterministic — fixed base seeds, and the
//! generator draws everything from a seeded stream — so CI time is
//! bounded and a red gate replays locally without guesswork. Longer
//! exploratory runs: `HILOC_FUZZ_CASES=2000 cargo test -p hiloc-sim
//! --test fuzz_scenarios`.

mod common;

use hiloc_sim::fuzz::{
    cases_from_env, fuzz_batch_with, generate_with, parse_dsl, run_captured, shrink, CacheMode,
    FuzzSpec,
};
use hiloc_sim::harness::Runtime;

/// The one generator, aimed at the simulator without replication.
fn generate(seed: u64, caches: CacheMode) -> FuzzSpec {
    generate_with(seed, caches, false, Runtime::Sim)
}

/// Fixed CI base seeds; together the two gates run ≥ 64 scenarios.
const BASE_SEED_OFF: u64 = 0x48_49_4C_4F_C0_01;
const BASE_SEED_ON: u64 = 0x48_49_4C_4F_CA_C4;

#[test]
fn fuzz_batch_caches_off_is_oracle_green() {
    let cases = cases_from_env(32);
    let stats = fuzz_batch_with(BASE_SEED_OFF, cases, CacheMode::Off, false);
    assert_eq!(stats.cases, cases);
    // The batch must exercise the machinery, not idle: a fixed seed
    // guarantees these hold deterministically.
    assert!(stats.events > 0, "no timeline verbs generated: {stats:?}");
    assert!(stats.reshapes > 0, "no scenario reshaped the tree: {stats:?}");
    assert!(stats.crashes > 0, "no scenario crashed a server: {stats:?}");
    assert!(stats.transfers_completed > 0, "no bulk transfer ran: {stats:?}");
    assert!(stats.checkpoints > 0, "no scenario checkpointed a server: {stats:?}");
    assert!(
        stats.checkpoint_cuts > 0,
        "no power loss landed across a checkpoint boundary: {stats:?}"
    );
    assert_eq!(stats.cache_answers, 0, "caches off must serve nothing");
}

#[test]
fn fuzz_batch_caches_on_is_oracle_green_under_bounded_staleness() {
    let cases = cases_from_env(32);
    let on = CacheMode::On { max_aged_acc_m: 100.0 };
    let stats = fuzz_batch_with(BASE_SEED_ON, cases, on, false);
    assert_eq!(stats.cases, cases);
    assert!(stats.events > 0 && stats.reshapes > 0 && stats.crashes > 0, "{stats:?}");
    // With caches on, the settled double-queries must actually be
    // served from the §6.5 caches somewhere in the batch — otherwise
    // the bounded-staleness oracle verified nothing.
    assert!(stats.cache_answers > 0, "no cache ever answered: {stats:?}");
}

#[test]
fn generator_is_deterministic_per_seed() {
    let a = generate(0xDEAD_BEEF, CacheMode::Off);
    let b = generate(0xDEAD_BEEF, CacheMode::Off);
    assert_eq!(a, b, "same seed must generate the identical spec");
    assert_eq!(a.to_dsl(), b.to_dsl());
    let c = generate(0xDEAD_BEE0, CacheMode::Off);
    assert_ne!(a.to_dsl(), c.to_dsl(), "different seeds must explore different scenarios");
}

/// Behaviour-preservation pin: case 0 of each gate's base seed must
/// run to the trace, network counters and end time it ran to before
/// the executor became generic over the runtime.
#[test]
fn simulator_runs_are_frozen() {
    let off = generate(BASE_SEED_OFF, CacheMode::Off).run().expect("the simulator runs it");
    assert_eq!(common::run_digest(&off), 0x165F_C539_E46C_D721, "caches-off case 0 moved");
    let on = generate(BASE_SEED_ON, CacheMode::On { max_aged_acc_m: 100.0 }).run().expect("ditto");
    assert_eq!(common::run_digest(&on), 0x956F_E841_42A1_BA2E, "caches-on case 0 moved");
}

/// For each runtime profile the one generator can target: every
/// timeline is valid, is admitted by the runtime it was generated for,
/// and round-trips exactly through the one DSL — new tokens included.
#[test]
fn generated_timelines_are_valid_and_round_trip_through_the_dsl() {
    for runtime in [Runtime::Sim, Runtime::Threaded, Runtime::Udp] {
        let mut lines = Vec::new();
        for seed in 0..200u64 {
            let mode = if seed % 2 == 0 {
                CacheMode::Off
            } else {
                CacheMode::On { max_aged_acc_m: 50.0 + seed as f64 }
            };
            let spec =
                generate_with(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), mode, false, runtime);
            assert!(spec.valid(), "invalid {runtime} timeline for seed {seed}: {spec:?}");
            assert_eq!(runtime.capabilities().admit(runtime, &spec.to_scenario()), Ok(()));
            let parsed = parse_dsl(&spec.to_dsl())
                .unwrap_or_else(|e| panic!("DSL round-trip failed for seed {seed}: {e}"));
            assert_eq!(parsed, spec, "DSL round-trip must be exact ({runtime}, seed {seed})");
            lines.push(spec.to_dsl());
        }
        let covers = |token: &str| lines.iter().any(|l| l.contains(token));
        match runtime {
            // Behaviour-preservation pin: the simulator profile draws
            // what it drew before the generator learned the others.
            Runtime::Sim => assert_eq!(common::fnv1a(&lines), 0x4FD1_677B_7F79_0944),
            Runtime::Threaded => assert!(
                ["runtime=threaded", "shards=", "inbox=", ":part:", ":heal", ":burst:"]
                    .iter()
                    .all(|t| covers(t)),
                "the channel profile must reach every token it alone draws"
            ),
            Runtime::Udp => {
                assert!(["runtime=udp", "shards=", ":part:", ":heal"].iter().all(|t| covers(t)));
                assert!(!covers("inbox=") && !covers(":burst:"), "UDP bounds no inbox in-process");
            }
        }
    }
}

/// A hand-written checkpoint-boundary cut: the leaf checkpoints, then
/// loses power in the same step — the manifest may be committed while
/// the WAL truncation is lost, so recovery must arbitrate the storage
/// generations instead of replaying a stale log over the snapshot.
/// The fuzzer draws this pairing itself (see the gate assertions
/// above); this pins one exact instance deterministically.
#[test]
fn power_loss_across_a_checkpoint_boundary_recovers_cleanly() {
    let spec = parse_dsl(
        "seed=7 levels=1 fanout=2 objects=8 steps=10 queries=1 caches=off \
         ev=3:checkpoint:1 ev=3:powerloss:1 ev=6:restart:1 ev=7:checkpoint:2 \
         ev=7:powerloss:2 ev=9:restart:2",
    )
    .unwrap();
    assert!(spec.valid(), "checkpoint+powerloss timeline must be constructible");
    let run = run_captured(&spec)
        .unwrap_or_else(|report| panic!("checkpoint-boundary cut went red:\n{report}"));
    assert!(run.alive > 0, "no object survived the run");
}

/// The shrinker end to end, without running a scenario: a plan the
/// runtime rejects "fails" before anything is deployed, so shrinking it
/// must strip every verb and every setting that is not the reason, and
/// keep — of three sim-only link faults — exactly the one its fixed
/// order (spikes, then drop, then dup) tries to remove last.
#[test]
fn shrinker_minimises_to_the_one_token_that_still_fails() {
    let spec = parse_dsl(
        "runtime=udp seed=3 levels=2 fanout=2 objects=12 steps=12 queries=1 mix=1 drop=0.05 \
         dup=0.01 spike=1000000-2000000:50000 ev=2:crash:1 ev=3:part:0+2 ev=5:restart:1 ev=6:heal",
    )
    .unwrap();
    assert!(spec.valid() && run_captured(&spec).is_err());
    let minimal = shrink(&spec);
    assert!(minimal.valid() && run_captured(&minimal).is_err(), "{}", minimal.to_dsl());
    assert_eq!(
        minimal.to_dsl(),
        "runtime=udp seed=3 levels=1 fanout=2 objects=2 speed=10 steps=2 dt=2 mobility=waypoint \
         policy=dist:10 queries=0 mix=0 caches=off dup=0.01"
    );
}

#[test]
fn dsl_rejects_malformed_input() {
    assert!(parse_dsl("seed=notanumber").is_err());
    assert!(parse_dsl("frobnicate=1").is_err());
    assert!(parse_dsl("ev=3:explode:7").is_err());
    assert!(parse_dsl("part=12-"). is_err());
    assert!(parse_dsl("mobility=teleport").is_err());
    assert!(parse_dsl("runtime=carrier-pigeon").is_err());
    assert!(parse_dsl("ev=3:part:1+x").is_err());
    assert!(parse_dsl("ev=3:burst:1").is_err());
}

#[test]
fn invalid_timelines_are_rejected_by_the_model() {
    // Crash without restart: unclosable.
    let s = parse_dsl("seed=1 levels=1 fanout=2 objects=4 steps=6 ev=2:crash:1").unwrap();
    assert!(!s.valid());
    // Restart of a server that never crashed.
    let s = parse_dsl("seed=1 levels=1 fanout=2 objects=4 steps=6 ev=2:restart:1").unwrap();
    assert!(!s.valid());
    // Promote over a live root.
    let s = parse_dsl("seed=1 levels=1 fanout=2 objects=4 steps=6 ev=2:promote").unwrap();
    assert!(!s.valid());
    // Retire of a root-leaf's last mergeable sibling chain (root has
    // no parent — retiring the root itself is never legal).
    let s = parse_dsl("seed=1 levels=1 fanout=2 objects=4 steps=6 ev=2:retire:0").unwrap();
    assert!(!s.valid());
    // Retire of a crashed (draining-impossible) server.
    let s = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=8 ev=2:crash:1 ev=3:retire:1 ev=5:restart:1",
    )
    .unwrap();
    assert!(!s.valid());
    // Checkpoint of a crashed server: nothing to flush until restart.
    let s = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=8 ev=2:crash:1 ev=3:checkpoint:1 \
         ev=5:restart:1",
    )
    .unwrap();
    assert!(!s.valid());
    // Event scheduled at/after the last step.
    let s = parse_dsl("seed=1 levels=1 fanout=2 objects=4 steps=6 ev=6:spawn:1").unwrap();
    assert!(!s.valid());
    // A partition that lists a server twice, or every server (nobody
    // on the other side), or a second one before the heal.
    for cut in ["ev=2:part:1+1", "ev=2:part:0+1+2+3+4", "ev=2:part:9", "ev=2:part:1 ev=3:part:2"] {
        let s = parse_dsl(&format!("seed=1 levels=1 fanout=2 objects=4 steps=6 {cut}")).unwrap();
        assert!(!s.valid(), "{cut}");
    }
    let s = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=6 ev=2:part:1 ev=3:heal ev=4:part:0+2",
    )
    .unwrap();
    assert!(s.valid(), "one cut at a time is fine, and needs no closing heal");
    // A burst at an object the fleet does not have.
    let s = parse_dsl("seed=1 levels=1 fanout=2 objects=4 steps=6 ev=2:burst:4:100").unwrap();
    assert!(!s.valid());
    let s = parse_dsl("seed=1 levels=1 fanout=2 objects=4 steps=6 ev=2:burst:3:100").unwrap();
    assert!(s.valid());
    // The same timeline, properly closed, is fine.
    let s = parse_dsl(
        "seed=1 levels=1 fanout=2 objects=4 steps=8 ev=2:crash:1 ev=5:restart:1",
    )
    .unwrap();
    assert!(s.valid());
}
