//! Fixed-seed chaos gate for the **real** runtimes, plus the
//! simulator-parity check.
//!
//! Unlike the virtual-time fuzz suites, these run the sharded threaded
//! and UDP engines on the wall clock, so the seed set is small and
//! fixed; `hiloc_sim::real::replay_real_dsl` replays any failure from
//! the one-line DSL in the panic message.

use hiloc_core::model::{ObjectId, Sighting};
use hiloc_geo::Point;
use hiloc_net::ServerId;
use hiloc_sim::real::{
    generate_real, parse_real_dsl, run_plan, RealHarness, RealPlan, RealVerb, RuntimeHarness,
    SimHarness,
};

fn has_crash(p: &RealPlan) -> bool {
    p.verbs.iter().any(|v| matches!(v, RealVerb::Crash(_)))
}
fn has_partition(p: &RealPlan) -> bool {
    p.verbs.iter().any(|v| matches!(v, RealVerb::Partition { .. }))
}
fn has_burst(p: &RealPlan) -> bool {
    p.verbs.iter().any(|v| matches!(v, RealVerb::Burst { .. }))
}

/// Fixed seeds over the threaded runtime: between them the plans must
/// cover crash+restart and partition+heal, and every run must end
/// oracle-green.
#[test]
fn threaded_chaos_fixed_seeds() {
    let seeds: Vec<u64> = {
        let crash = (0..200).find(|&s| has_crash(&generate_real(s, false))).expect("crash seed");
        let part = (0..200)
            .find(|&s| has_partition(&generate_real(s, false)))
            .expect("partition seed");
        vec![crash, part]
    };
    let mut crashes = 0;
    let mut partitions = 0;
    for seed in seeds {
        let plan = generate_real(seed, false);
        let run = run_plan(&mut RuntimeHarness::threaded(&plan), &plan);
        crashes += run.crashes;
        partitions += run.partitions;
        assert_eq!(run.final_positions.len() as u32, plan.num_objects);
    }
    assert!(crashes > 0, "the seed set must exercise crash+restart");
    assert!(partitions > 0, "the seed set must exercise partition+heal");
}

/// An overload plan (tiny inbox + fire-and-forget bursts) must make
/// the runtime shed — reachably, and without failing the oracle:
/// shedding loses only unacknowledged work.
#[test]
fn threaded_overload_seed_sheds() {
    let seed = (0..200)
        .find(|&s| {
            let p = generate_real(s, true);
            has_burst(&p) && p.inbox_cap <= 4
        })
        .expect("overload seed");
    let plan = generate_real(seed, true);
    let run = run_plan(&mut RuntimeHarness::threaded(&plan), &plan);
    assert!(run.burst_delivered > 0, "bursts must land some envelopes");
    assert!(run.shed > 0, "a tiny inbox under burst load must shed");
}

/// One fixed seed over real UDP sockets: same verbs, same oracle.
#[test]
fn udp_chaos_fixed_seed() {
    let seed = (0..200)
        .find(|&s| {
            let p = generate_real(s, false);
            has_crash(&p) && has_partition(&p)
        })
        .expect("udp seed");
    let plan = generate_real(seed, false);
    let run = run_plan(&mut RuntimeHarness::udp(&plan), &plan);
    assert!(run.crashes > 0 && run.partitions > 0);
    assert_eq!(run.final_positions.len() as u32, plan.num_objects);
}

/// Same-seed three-way parity. A fault-free plan executed over the
/// channel transport, over UDP and over the deterministic simulator
/// must produce the same record, record for record — same acked
/// count, same final position per object, bit for bit.
#[test]
fn fault_free_plan_matches_sim_record_for_record() {
    let plan = RealPlan {
        seed: 0x1CDC_2002,
        num_objects: 6,
        shards: 2,
        inbox_cap: 4096,
        verbs: vec![RealVerb::Load { rounds: 4 }],
    };
    let sim = run_plan(&mut SimHarness::new(&plan), &plan);
    assert_eq!(sim.unacked, 0);
    let channels = run_plan(&mut RuntimeHarness::threaded(&plan), &plan);
    let udp = run_plan(&mut RuntimeHarness::udp(&plan), &plan);
    for (name, real) in [("channels", &channels), ("udp", &udp)] {
        assert_eq!(real.acked, sim.acked, "{name}: every fault-free update is acked");
        assert_eq!(real.unacked, 0, "{name}");
        assert_eq!(
            real.final_positions, sim.final_positions,
            "{name} and the simulator disagree on the end state"
        );
    }
}

/// `Burst` goes through the one client's no-wait path on either
/// transport and reports what actually left the client (UDP used to
/// report a hard-coded 0).
#[test]
fn burst_reports_what_was_sent_on_both_transports() {
    fn check(mut h: impl RealHarness) {
        let pos = Point::new(100.0, 100.0);
        let s = Sighting::new(ObjectId(1), h.now_us(), pos, 5.0);
        let (agent, _) = h.register(h.leaf_for(pos), s).expect("registration");
        assert_eq!(h.burst(agent, s, 50), 50, "[{}] a roomy inbox takes the whole burst", h.name());
        assert_eq!(h.burst(ServerId(99), s, 5), 0, "[{}] nothing leaves for an unknown server", h.name());
        assert_eq!(h.shed_total(), 0, "[{}]", h.name());
    }
    let plan =
        RealPlan { seed: 1, num_objects: 1, shards: 2, inbox_cap: 4096, verbs: Vec::new() };
    check(RuntimeHarness::threaded(&plan));
    check(RuntimeHarness::udp(&plan));
}

/// The reproducer DSL round-trips exactly.
#[test]
fn real_dsl_round_trips() {
    for seed in [0u64, 1, 17, 42] {
        for overload in [false, true] {
            let plan = generate_real(seed, overload);
            let (parsed, runtime) =
                parse_real_dsl(&format!("{} runtime=udp", plan.to_dsl())).expect("round trip");
            assert_eq!(parsed, plan);
            assert_eq!(runtime, "udp");
        }
    }
}
