//! The churn scenario suite: hierarchy reconfiguration — servers
//! joining, leaving, and the root failing over — exercised **under
//! faults** (partitions, message loss, crashes mid-transfer, power
//! loss) with every invariant checked by the in-memory oracle.
//!
//! Complements `chaos_scenarios.rs` (static-tree chaos): here the tree
//! itself reshapes while updates, queries and handovers keep flowing.
//! All scenarios are seeded and run in bounded virtual time; a failing
//! run prints the seed, fault timeline and scripted events needed to
//! replay it bit-for-bit (`ci.sh` runs this suite as a named gate).

use hiloc_core::model::SECOND;
use hiloc_net::{FaultPlan, Partition, ServerId};
use hiloc_sim::mobility::MobilityKind;
use hiloc_sim::scenario::{
    subtree_endpoints, FaultAction, ScenarioEvent, ScenarioSpec,
};
use hiloc_core::model::UpdatePolicy;
use hiloc_geo::Point;
use hiloc_net::Endpoint;

/// **Join under a partition.** A new server splits a busy leaf while a
/// partition isolates the newcomer from the rest of the world: the
/// bulk state transfer is cut off mid-reconfiguration and must retry
/// until the network heals. The joining server's id is the next dense
/// slot, so the fault plan can target it before it exists.
fn join_under_partition(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "join-under-partition".to_string(),
        seed,
        levels: 2,
        fanout: 2,
        num_objects: 24,
        speed_mps: 15.0,
        steps: 24,
        step_dt_s: 2.0,
        durable: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let newcomer = ServerId(h.len() as u32); // predictable: next dense id
    spec.faults = FaultPlan::none().with_partition(Partition::isolate(
        4 * SECOND,
        28 * SECOND,
        vec![Endpoint::Server(newcomer)],
    ));
    let split = h.leaf_for(Point::new(125.0, 125.0)).expect("in area");
    spec.events = vec![ScenarioEvent { at_step: 3, action: FaultAction::Spawn { split } }];
    spec
}

#[test]
fn join_under_partition_is_green() {
    // Seed picked so the split-off half holds records at the spawn
    // instant: the transfer is non-empty and must fight the partition.
    let run = join_under_partition(8).run().unwrap();
    assert_eq!(run.alive, 24, "no registration may be lost across the join");
    assert!(run.net_counters.2 > 0, "the partition must actually drop messages");
    assert_eq!(run.stats.transfers_started, 1, "the join must start a bulk transfer");
    assert!(run.stats.transfer_retries > 0, "the partition must force re-sends");
    assert!(
        run.stats.transfer_records_in > 0 && run.stats.transfers_completed == 1,
        "the transfer must land once the partition heals: {:?}",
        run.stats
    );
}

#[test]
fn join_under_partition_is_deterministic_per_seed() {
    let a = join_under_partition(7).run().unwrap();
    let b = join_under_partition(7).run().unwrap();
    assert_eq!(a.trace, b.trace, "same seed must replay the identical trace");
    assert_eq!(a.net_counters, b.net_counters);
    let c = join_under_partition(8).run().unwrap();
    assert_ne!(a.trace, c.trace, "a different seed must explore a different run");
}

/// **Join with the target crashing mid-transfer.** The newcomer dies
/// right after it is spawned — whatever part of the bulk transfer it
/// durably applied must come back record-for-record (the harness
/// compares on restart), the source keeps and retries the rest, and
/// nothing is lost or duplicated once the oracle speaks.
fn join_crash_mid_transfer(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "join-crash-mid-transfer".to_string(),
        seed,
        levels: 2,
        fanout: 2,
        num_objects: 24,
        speed_mps: 15.0,
        steps: 22,
        step_dt_s: 2.0,
        durable: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let newcomer = ServerId(h.len() as u32);
    let split = h.leaf_for(Point::new(125.0, 125.0)).expect("in area");
    spec.events = vec![
        ScenarioEvent { at_step: 3, action: FaultAction::Spawn { split } },
        ScenarioEvent { at_step: 4, action: FaultAction::Crash(newcomer) },
        ScenarioEvent { at_step: 10, action: FaultAction::Restart(newcomer) },
    ];
    spec
}

#[test]
fn join_crash_mid_transfer_recovers_consistently() {
    let run = join_crash_mid_transfer(0xABCD).run().unwrap();
    assert_eq!(run.alive, 24);
    assert!(run.blackholed > 0, "the crash must blackhole transfer retries");
}

#[test]
fn join_crash_mid_transfer_is_deterministic_per_seed() {
    let trace = || join_crash_mid_transfer(3).run().unwrap().trace;
    assert_eq!(trace(), trace());
}

/// **Leave under message loss.** A leaf drains everything to its
/// sibling and detaches while the network drops and duplicates
/// datagrams — the drain's ack can vanish, forcing idempotent
/// re-sends. The retired server must end empty, with every object
/// answerable through the absorber.
fn leave_under_loss(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "leave-under-loss".to_string(),
        seed,
        levels: 2,
        fanout: 2,
        num_objects: 24,
        speed_mps: 12.0,
        steps: 22,
        step_dt_s: 2.0,
        faults: FaultPlan::uniform(0.05, 0.05).with_reorder(0.1, 200_000),
        durable: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let leaver = h.leaf_for(Point::new(875.0, 875.0)).expect("in area");
    spec.events = vec![ScenarioEvent { at_step: 5, action: FaultAction::Retire(leaver) }];
    spec
}

#[test]
fn leave_under_loss_drains_and_stays_green() {
    let run = leave_under_loss(0x1EAF).run().unwrap();
    assert_eq!(run.alive, 24, "the drain must not lose a registration");
    assert!(run.net_counters.2 > 0, "the loss plan must actually drop messages");
}

#[test]
fn leave_under_loss_is_deterministic_per_seed() {
    let trace = || leave_under_loss(9).run().unwrap().trace;
    assert_eq!(trace(), trace());
}

/// **Root failover under mixed update/query load.** The root crashes
/// for good; a designated successor takes over and rebuilds its
/// forwarding table from the children (path sync + ordinary
/// keep-alives) while updates and root-routed queries keep flowing.
/// The old root never returns — its id is retired.
fn root_failover(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "root-failover".to_string(),
        seed,
        levels: 2,
        fanout: 2,
        num_objects: 24,
        speed_mps: 15.0,
        steps: 24,
        step_dt_s: 2.0,
        durable: true,
        mid_chaos_queries: true,
        ..Default::default()
    };
    let root = spec.hierarchy().root();
    spec.events = vec![
        ScenarioEvent { at_step: 4, action: FaultAction::Crash(root) },
        ScenarioEvent { at_step: 8, action: FaultAction::PromoteStandby },
    ];
    spec
}

#[test]
fn root_failover_under_load_is_green() {
    let run = root_failover(0xF00D).run().unwrap();
    assert_eq!(run.alive, 24, "failover must not lose a registration");
    assert!(run.blackholed > 0, "the dead root must blackhole traffic until failover");
    // The mid-chaos query probe must have seen the successor as root.
    assert!(
        run.trace.iter().any(|l| l.contains("via root 21")),
        "queries must route through the promoted root (id 21): {:?}",
        run.trace.iter().filter(|l| l.starts_with("query")).collect::<Vec<_>>()
    );
}

#[test]
fn root_failover_is_deterministic_per_seed() {
    let a = root_failover(4).run().unwrap();
    let b = root_failover(4).run().unwrap();
    assert_eq!(a.trace, b.trace);
    assert_ne!(a.trace, root_failover(5).run().unwrap().trace);
}

/// **Non-leaf crash under mixed load** (ROADMAP's open extension): a
/// mid-level server — pure forwarding state — crashes and restarts
/// under update and query traffic; its durable forwarding records must
/// come back record-for-record.
#[test]
fn midlevel_crash_under_mixed_load_recovers() {
    let mut spec = ScenarioSpec {
        name: "midlevel-crash-mixed-load".to_string(),
        seed: 0x5110,
        levels: 2,
        fanout: 2,
        num_objects: 24,
        speed_mps: 15.0,
        steps: 20,
        step_dt_s: 2.0,
        durable: true,
        mid_chaos_queries: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let leaf = h.leaf_for(Point::new(125.0, 125.0)).expect("in area");
    let mid = h.server(leaf).parent.expect("leaf has a parent");
    spec.events = vec![
        ScenarioEvent { at_step: 5, action: FaultAction::Crash(mid) },
        ScenarioEvent { at_step: 11, action: FaultAction::Restart(mid) },
    ];
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 24);
    assert!(run.blackholed > 0);
}

/// **Root crash + restart under mixed load** (the non-failover twin):
/// the root's durable forwarding table replays from its WAL.
#[test]
fn root_crash_restart_under_mixed_load_recovers() {
    let mut spec = ScenarioSpec {
        name: "root-crash-mixed-load".to_string(),
        seed: 0x2007,
        levels: 2,
        fanout: 2,
        num_objects: 24,
        speed_mps: 15.0,
        steps: 20,
        step_dt_s: 2.0,
        durable: true,
        mid_chaos_queries: true,
        ..Default::default()
    };
    let root = spec.hierarchy().root();
    spec.events = vec![
        ScenarioEvent { at_step: 4, action: FaultAction::Crash(root) },
        ScenarioEvent { at_step: 10, action: FaultAction::Restart(root) },
    ];
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 24);
    assert!(run.blackholed > 0, "the dead root must blackhole traffic");
}

/// **Multi-server simultaneous failure**: a leaf and its parent crash
/// in the same instant — the whole subtree drops out — and both must
/// recover their durable records record-for-record (the harness
/// asserts the comparison on every restart).
#[test]
fn leaf_and_parent_simultaneous_crash_recovers_record_for_record() {
    let mut spec = ScenarioSpec {
        name: "leaf-and-parent-simultaneous-crash".to_string(),
        seed: 0xD0D0,
        levels: 2,
        fanout: 2,
        num_objects: 24,
        speed_mps: 12.0,
        steps: 22,
        step_dt_s: 2.0,
        durable: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let leaf = h.leaf_for(Point::new(625.0, 625.0)).expect("in area");
    let mid = h.server(leaf).parent.expect("leaf has a parent");
    spec.events = vec![
        ScenarioEvent { at_step: 5, action: FaultAction::Crash(leaf) },
        ScenarioEvent { at_step: 5, action: FaultAction::Crash(mid) },
        ScenarioEvent { at_step: 12, action: FaultAction::Restart(mid) },
        ScenarioEvent { at_step: 13, action: FaultAction::Restart(leaf) },
    ];
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 24, "simultaneous failures must not lose a registration");
    assert!(run.blackholed > 0);
    // Determinism for the multi-failure case too.
    assert_eq!(run.trace, spec.run().unwrap().trace);
}

/// **Power loss at a leaf agent**: the harness stores with
/// `SyncPolicy::Always`, so every acknowledged registration is fsynced
/// before the ack and even dropping the page cache loses nothing —
/// the record-for-record restart comparison must hold exactly as for
/// a process crash.
#[test]
fn power_loss_crash_keeps_every_acked_registration() {
    let mut spec = ScenarioSpec {
        name: "power-loss-leaf".to_string(),
        seed: 0x0FF,
        levels: 1,
        fanout: 2,
        num_objects: 16,
        mobility: MobilityKind::Stationary,
        policy: UpdatePolicy::Periodic { period_us: 4 * SECOND },
        steps: 12,
        durable: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let victim = h.leaf_for(Point::new(100.0, 100.0)).expect("in area");
    spec.events = vec![
        ScenarioEvent { at_step: 3, action: FaultAction::PowerLoss(victim) },
        ScenarioEvent { at_step: 7, action: FaultAction::Restart(victim) },
    ];
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 16, "Always-synced state must survive power loss");
}

/// **Grow then shrink**: a join followed by the newcomer leaving again
/// under a subtree partition — the tree returns to its original shape
/// and the oracle stays green through both reshapes.
#[test]
fn join_then_leave_roundtrip_under_partition() {
    let mut spec = ScenarioSpec {
        name: "join-then-leave-roundtrip".to_string(),
        seed: 0x717,
        levels: 2,
        fanout: 2,
        num_objects: 20,
        speed_mps: 12.0,
        steps: 26,
        step_dt_s: 2.0,
        durable: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let newcomer = ServerId(h.len() as u32);
    let split = h.leaf_for(Point::new(375.0, 125.0)).expect("in area");
    let mid = h.server(split).parent.expect("leaf has a parent");
    // Cut the surrounding subtree off for a while between the two
    // reshapes, so both the join's transfer and the later drain run
    // against a recently-partitioned world.
    let mut cut = subtree_endpoints(&h, mid);
    cut.push(Endpoint::Server(newcomer));
    spec.faults =
        FaultPlan::none().with_partition(Partition::isolate(14 * SECOND, 26 * SECOND, cut));
    spec.events = vec![
        ScenarioEvent { at_step: 3, action: FaultAction::Spawn { split } },
        ScenarioEvent { at_step: 16, action: FaultAction::Retire(newcomer) },
    ];
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 20);
    assert!(run.net_counters.2 > 0, "the partition must actually drop messages");
}
