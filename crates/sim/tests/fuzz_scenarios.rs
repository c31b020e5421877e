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

use hiloc_core::cache::CacheConfig;
use hiloc_core::model::SECOND;
use hiloc_net::{Endpoint, FaultPlan, LatencySpike, LinkFault, Partition, ServerId};
use hiloc_sim::fuzz::{
    caches_on, cases_from_env, fuzz_batch_with, generate_with, parse_dsl, run_captured, shrink,
};
use hiloc_sim::harness::Runtime;
use hiloc_sim::scenario::{FaultAction, ScenarioEvent, ScenarioSpec};

/// The one generator, aimed at the simulator without replication.
fn generate(seed: u64, caches: CacheConfig) -> ScenarioSpec {
    generate_with(seed, caches, false, Runtime::Sim)
}

/// Fixed CI base seeds; together the two gates run ≥ 64 scenarios.
const BASE_SEED_OFF: u64 = 0x48_49_4C_4F_C0_01;
const BASE_SEED_ON: u64 = 0x48_49_4C_4F_CA_C4;

#[test]
fn fuzz_batch_caches_off_is_oracle_green() {
    let cases = cases_from_env(32);
    let stats = fuzz_batch_with(BASE_SEED_OFF, cases, CacheConfig::default(), false);
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
    let on = caches_on(100.0);
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
    let a = generate(0xDEAD_BEEF, CacheConfig::default());
    let b = generate(0xDEAD_BEEF, CacheConfig::default());
    assert_eq!(a, b, "same seed must generate the identical spec");
    assert_eq!(a.to_dsl(), b.to_dsl());
    let c = generate(0xDEAD_BEE0, CacheConfig::default());
    assert_ne!(a.to_dsl(), c.to_dsl(), "different seeds must explore different scenarios");
}

/// Behaviour-preservation pin: case 0 of each gate's base seed must
/// run to the trace, network counters and end time it ran to before
/// the executor became generic over the runtime.
#[test]
fn simulator_runs_are_frozen() {
    let off = generate(BASE_SEED_OFF, CacheConfig::default()).run().expect("the simulator runs it");
    assert_eq!(common::run_digest(&off), 0x889C_530E_A6CC_D81E, "caches-off case 0 moved");
    let on = generate(BASE_SEED_ON, caches_on(100.0)).run().expect("ditto");
    assert_eq!(common::run_digest(&on), 0x30A4_DC0D_4A2B_7263, "caches-on case 0 moved");
}

/// For each runtime profile the one generator can target: every
/// timeline is valid, is admitted by the runtime it was generated for,
/// and round-trips exactly through the one DSL — new tokens included.
#[test]
fn generated_timelines_are_valid_and_round_trip_through_the_dsl() {
    for runtime in [Runtime::Sim, Runtime::Threaded, Runtime::Udp] {
        let mut lines = Vec::new();
        for seed in 0..200u64 {
            let mode =
                if seed % 2 == 0 { CacheConfig::default() } else { caches_on(50.0 + seed as f64) };
            let spec =
                generate_with(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), mode, false, runtime);
            assert!(spec.valid(), "invalid {runtime} timeline for seed {seed}: {spec:?}");
            assert_eq!(runtime.capabilities().admit(&spec), Ok(()));
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
/// loses power in the same step — the snapshot may be committed while
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
    assert!(parse_dsl("durable=no").is_err(), "a flag is 0 or 1, never silently 0");
    // Fault values the fault plan would refuse are refused by the
    // parser, never left to panic later.
    for out_of_range in ["drop=1.5", "dup=-0.1", "reorder=2:10", "part=5-3:1", "spike=9-2:5"] {
        let parsed = parse_dsl(out_of_range);
        assert!(parsed.is_err(), "{out_of_range} parsed: {parsed:?}");
    }
}

/// A hand-written plan that fails prints the one-line replay DSL, and
/// that line reads back to the very plan that failed — here the
/// simulator twin of `real_runtime_fuzz.rs`'s not-applied verb: a
/// checkpoint of a server the plan crashed and never restarted.
#[test]
fn a_failing_hand_written_plan_prints_its_replay_line() {
    let spec = ScenarioSpec {
        name: "checkpoint-of-a-down-server".to_string(),
        num_objects: 4,
        steps: 6,
        durable: true,
        events: vec![
            ScenarioEvent { at_step: 2, action: FaultAction::Crash(ServerId(1)) },
            ScenarioEvent { at_step: 3, action: FaultAction::Checkpoint(ServerId(1)) },
        ],
        ..Default::default()
    };
    let report = run_captured(&spec).expect_err("a checkpoint of a down server is not applied");
    assert!(report.contains("verb ev=3:checkpoint:1 was not applied by runtime=sim"), "{report}");
    let (_, rest) = report.split_once("replay_dsl(\"").expect("a replay_dsl(\"…\") line");
    let (line, _) = rest.split_once("\")").expect("the replay line is closed");
    let replayed = parse_dsl(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(ScenarioSpec { name: spec.name.clone(), ..replayed }, spec, "{line}");
}

/// A plan whose replay line would lose a setting is refused before
/// anything is deployed, naming the field the DSL has no token for.
#[test]
fn a_plan_its_line_cannot_say_is_refused_by_field() {
    let cut = Partition::between(0, SECOND, vec![ServerId(1).into()], vec![ServerId(2).into()]);
    let faults = FaultPlan::none().with_partition(cut);
    let caches = CacheConfig { position_cache: true, ..CacheConfig::default() };
    for (spec, field) in [
        (ScenarioSpec { faults, ..Default::default() }, "`faults`"),
        (ScenarioSpec { caches, ..Default::default() }, "`caches`"),
    ] {
        let refusal = spec.run().expect_err(field);
        assert!(refusal.contains("does not survive its replay line"), "{refusal}");
        assert!(refusal.contains(field), "{field} not named: {refusal}");
    }
}

/// One plan holding every fault component the link model has — drop,
/// duplication, reordering, a per-link fault, a partition and a
/// latency spike — round-trips through its replay line.
#[test]
fn every_fault_component_round_trips_through_the_dsl() {
    let server = |id| Endpoint::Server(ServerId(id));
    let spec = ScenarioSpec {
        faults: FaultPlan::uniform(0.1, 0.2)
            .with_reorder(0.3, 400)
            .with_link(
                LinkFault::between(server(0), server(1))
                    .with_drop(0.9)
                    .with_duplicate(0.05)
                    .with_extra_latency(700),
            )
            .with_partition(Partition::isolate(5 * SECOND, 9 * SECOND, vec![server(2), server(4)]))
            .with_spike(LatencySpike::new(SECOND, 2 * SECOND, 3_000)),
        ..Default::default()
    };
    let line = spec.to_dsl();
    for token in [
        "drop=0.1",
        "dup=0.2",
        "reorder=0.3:400",
        "link=0-1:0.9:0.05:700",
        "part=5000000-9000000:2+4",
        "spike=1000000-2000000:3000",
    ] {
        assert!(line.split_whitespace().any(|t| t == token), "{token} missing from {line}");
    }
    let parsed = parse_dsl(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(ScenarioSpec { name: spec.name.clone(), ..parsed }, spec, "{line}");
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
