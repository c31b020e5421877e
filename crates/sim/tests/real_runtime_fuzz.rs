//! Fixed-seed chaos gate for the **real** runtimes, over the one plan:
//! the generator, validity model, DSL, executor and oracle are the
//! simulator fuzzer's (`hiloc_sim::fuzz`), pointed at the sharded
//! engine on channels and on UDP by the DSL's `runtime=` token.
//!
//! These runs are on the wall clock — real threads, real sockets,
//! durable stores in a scratch directory that restarts replay — so the
//! seed set is small and fixed. A failure prints one
//! `hiloc_sim::fuzz::replay_dsl("runtime=… …")` line.

use hiloc_core::model::{ObjectId, Sighting};
use hiloc_core::runtime::ShardSpec;
use hiloc_geo::Point;
use hiloc_net::ServerId;
use hiloc_sim::fuzz::{generate_with, parse_dsl, replay_dsl, CacheMode, FuzzSpec};
use hiloc_sim::harness::{Harness, Runtime};
use hiloc_sim::real::{ThreadedHarness, UdpHarness};
use hiloc_sim::scenario::{FaultAction, ScenarioEvent, ScenarioSpec};

fn has(spec: &FuzzSpec, verb: fn(&FaultAction) -> bool) -> bool {
    spec.events.iter().any(|e| verb(&e.action))
}
fn crashes(a: &FaultAction) -> bool {
    matches!(a, FaultAction::Crash(_) | FaultAction::PowerLoss(_))
}
fn partitions(a: &FaultAction) -> bool {
    matches!(a, FaultAction::Partition { .. })
}
fn checkpoints(a: &FaultAction) -> bool {
    matches!(a, FaultAction::Checkpoint(_))
}

/// The first seed whose generated plan for `runtime` satisfies `want`.
fn find_plan(runtime: Runtime, want: impl Fn(&FuzzSpec) -> bool) -> FuzzSpec {
    (0..400)
        .map(|seed| generate_with(seed, CacheMode::Off, false, runtime))
        .find(|spec| spec.valid() && want(spec))
        .expect("a fixed seed with the wanted verbs")
}

/// Fixed generated seeds over the channel runtime: between them the
/// plans crash and restart durable servers (a power loss among them)
/// and cut and heal a partition, and every run ends oracle-green with
/// nobody re-registered — a durable restart loses no one.
#[test]
fn threaded_chaos_fixed_seeds() {
    let plans = [
        find_plan(Runtime::Threaded, |p| has(p, crashes) && has(p, checkpoints)),
        find_plan(Runtime::Threaded, |p| has(p, |a| matches!(a, FaultAction::PowerLoss(_)))),
        find_plan(Runtime::Threaded, |p| has(p, partitions)),
    ];
    for plan in plans {
        let run = plan.run().expect("a generated plan is admitted by its runtime");
        assert_eq!(run.alive as u64, plan.num_objects, "{}", plan.to_dsl());
        assert_eq!(run.reregistered, 0, "{}", plan.to_dsl());
    }
}

/// One fixed generated seed over real UDP sockets: same verbs, same
/// oracle.
#[test]
fn udp_chaos_fixed_seed() {
    let plan = find_plan(Runtime::Udp, |p| has(p, crashes) && has(p, partitions));
    let run = plan.run().expect("a generated plan is admitted by its runtime");
    assert_eq!(run.alive as u64, plan.num_objects, "{}", plan.to_dsl());
    assert_eq!(run.reregistered, 0, "{}", plan.to_dsl());
}

/// An overload plan (tiny inbox + fire-and-forget bursts) must make
/// the channel runtime shed — reachably, and without failing the
/// oracle: shedding loses only unacknowledged work.
#[test]
fn threaded_overload_seed_sheds() {
    let plan = find_plan(Runtime::Threaded, |p| {
        p.layout.inbox_cap <= 4 && has(p, |a| matches!(a, FaultAction::Burst { .. }))
    });
    let run = plan.run().expect("a generated plan is admitted by its runtime");
    assert!(run.trace.iter().any(|l| l.contains("burst of")), "{:#?}", run.trace);
    assert!(run.stats.inbox_shed > 0, "a tiny inbox under burst load must shed: {}", plan.to_dsl());
}

const PARITY_FLEET: &str = "seed=479990786 levels=1 fanout=2 objects=6 speed=15 steps=8 queries=1";

/// What three runtimes must agree on: who is alive and where everyone
/// verifiably ended up.
fn end_state(dsl: &str) -> (usize, Vec<(ObjectId, Point)>) {
    let run = replay_dsl(dsl);
    assert_eq!(run.reregistered, 0, "{dsl}");
    (run.alive, run.final_positions)
}

/// Same-plan three-way parity, fault-free: the plan executed over the
/// deterministic simulator, over the channel transport and over UDP
/// must end record for record alike — bit for bit the same position
/// per object.
#[test]
fn fault_free_plan_matches_sim_record_for_record() {
    let sim = end_state(PARITY_FLEET);
    assert_eq!(sim.0, 6);
    for real in ["runtime=threaded shards=2", "runtime=udp shards=2"] {
        let end = end_state(&format!("{real} {PARITY_FLEET}"));
        assert_eq!(end, sim, "{real} and the simulator disagree");
    }
}

/// Three-way parity under faults: crash + restart, power loss +
/// restart, a checkpoint, a partition and its heal, on durable
/// deployments. Every restart replays its store, so all three runtimes
/// must again agree on the end state, with nobody re-registered.
#[test]
fn faulted_plan_matches_sim_record_for_record() {
    let plan = format!(
        "{PARITY_FLEET} ev=1:crash:1 ev=2:checkpoint:2 ev=2:part:0+3 ev=3:restart:1 \
         ev=4:powerloss:2 ev=5:heal ev=6:restart:2"
    );
    let sim = end_state(&plan);
    assert_eq!(sim.0, 6);
    for real in ["runtime=threaded shards=2", "runtime=udp shards=3"] {
        let end = end_state(&format!("{real} {plan}"));
        assert_eq!(end, sim, "{real} and the simulator disagree");
    }
}

/// The checkpoint-boundary cut pinned for the simulator in
/// `fuzz_scenarios.rs` — a leaf checkpoints and loses power in the
/// same step, twice — on both real transports: the real engine's
/// recovery must arbitrate the storage generations too.
#[test]
fn power_loss_across_a_checkpoint_boundary_recovers_on_real_runtimes() {
    for runtime in ["threaded", "udp"] {
        let run = replay_dsl(&format!(
            "runtime={runtime} seed=7 levels=1 fanout=2 objects=8 steps=10 queries=1 caches=off \
             ev=3:checkpoint:1 ev=3:powerloss:1 ev=6:restart:1 ev=7:checkpoint:2 \
             ev=7:powerloss:2 ev=9:restart:2"
        ));
        assert_eq!((run.alive, run.reregistered), (8, 0), "runtime={runtime}");
    }
}

/// A *volatile* plan is the one case the real settle re-registers: the
/// crashed leaf restarts empty, its objects' records are gone for good
/// and the repair round registers them afresh.
#[test]
fn volatile_restart_is_repaired_by_reregistration() {
    let spec = ScenarioSpec {
        name: "volatile-crash-is-repaired".to_string(),
        seed: 42,
        num_objects: 16,
        steps: 6,
        durable: false,
        events: vec![
            ScenarioEvent { at_step: 1, action: FaultAction::Crash(ServerId(1)) },
            ScenarioEvent { at_step: 3, action: FaultAction::Restart(ServerId(1)) },
        ],
        ..Default::default()
    };
    let run = spec.run_on::<ThreadedHarness>().expect("admitted");
    assert_eq!(run.alive, 16);
    assert!(run.reregistered > 0, "the leaf's objects must be registered afresh: {:#?}", run.trace);
}

/// A plan that needs what a runtime cannot do is rejected before
/// anything is deployed, with the verb or plan field and the runtime
/// named — never run with part of it ignored.
#[test]
fn a_plan_the_runtime_cannot_run_is_rejected_by_name() {
    let base = "seed=1 levels=1 fanout=2 objects=4 steps=6";
    for (plan, named) in [
        ("runtime=udp ev=3:spawn:1", ["runtime=udp", "ev=3:spawn:1"]),
        ("runtime=threaded ev=2:crash:0 ev=4:promote", ["runtime=threaded", "ev=4:promote"]),
        ("runtime=threaded repl=1", ["runtime=threaded", "repl=1"]),
        ("runtime=udp drop=0.05", ["runtime=udp", "drop="]),
        ("runtime=threaded spike=1000000-2000000:50000", ["runtime=threaded", "spike="]),
        ("runtime=threaded policy=period:4000000", ["runtime=threaded", "policy=period:"]),
        ("runtime=udp inbox=4", ["runtime=udp", "inbox=4"]),
        ("runtime=sim shards=2", ["runtime=sim", "shards=2"]),
        ("runtime=sim inbox=4", ["runtime=sim", "inbox=4"]),
    ] {
        let spec = parse_dsl(&format!("{base} {plan}")).expect("well-formed");
        assert!(spec.valid(), "{plan}");
        let rejection = spec.run().expect_err(plan);
        for needle in named {
            assert!(rejection.contains(needle), "'{plan}' not named ({needle}): {rejection}");
        }
    }
}

/// A verb the harness reports as not applied fails the run *at the
/// verb*, naming verb, step and runtime — here a checkpoint of a
/// server the hand-written plan never restarted.
#[test]
#[should_panic(expected = "verb ev=3:checkpoint:1 was not applied by runtime=threaded")]
fn a_verb_that_is_not_applied_fails_the_run_at_the_verb() {
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
    let _ = spec.run_on::<ThreadedHarness>();
}

/// `Burst` goes through the object's own client's no-wait path on
/// either transport and reports what actually left the client.
#[test]
fn burst_reports_what_was_sent_on_both_transports() {
    fn check<H: Harness>() {
        let layout = ShardSpec { shards: 2, ..Default::default() };
        let spec = ScenarioSpec { layout, ..Default::default() };
        let mut h = H::deploy(&spec, Default::default());
        let pos = Point::new(100.0, 100.0);
        let s = Sighting::new(ObjectId(1), h.now_us(), pos, 5.0);
        let entry = h.hierarchy().leaf_for(pos).expect("in area");
        let (agent, _) = h.register(entry, s, 10.0, 50.0, 2.0).expect("registration");
        let on = H::RUNTIME;
        assert_eq!(h.burst(agent, s, 50), 50, "[{on}] a roomy inbox takes the whole burst");
        assert_eq!(h.burst(ServerId(99), s, 5), 0, "[{on}] nothing leaves for an unknown server");
        assert_eq!(h.total_stats().inbox_shed, 0, "[{on}]");
    }
    check::<ThreadedHarness>();
    check::<UdpHarness>();
}
