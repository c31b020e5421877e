//! The seeded chaos scenario suite: scripted partitions, crashes and
//! restarts driven through the deterministic virtual-time deployment,
//! with every invariant checked by the in-memory oracle
//! (`hiloc_sim::scenario`).
//!
//! All scenarios use fixed seeds and bounded virtual time, so this
//! suite is fast and bit-for-bit reproducible — a failing run prints
//! the seed and fault timeline needed to replay it.

mod common;

use hiloc_core::area::HierarchyBuilder;
use hiloc_core::model::{ObjectId, Sighting, UpdatePolicy, SECOND};
use hiloc_core::node::{DurabilityOptions, ServerOptions, StorageSyncPolicy, VisitorRecord};
use hiloc_core::proto::Message;
use hiloc_core::runtime::SimDeployment;
use hiloc_geo::{Point, Rect};
use hiloc_net::{FaultPlan, LatencySpike, LinkFault, Partition};
use hiloc_sim::mobility::MobilityKind;
use hiloc_sim::scenario::{
    subtree_endpoints, FaultAction, ScenarioEvent, ScenarioSpec,
};
use hiloc_util::tempdir::TempDir;

/// The acceptance scenario: partition a subtree, crash a leaf agent
/// mid-partition (with handovers in flight across the cut), heal,
/// restart, and demand every oracle invariant green.
fn flagship(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "partition-crash-restart".to_string(),
        seed,
        levels: 2,
        fanout: 2,
        num_objects: 32,
        speed_mps: 20.0, // fast: leaf crossings (and thus handovers) every few steps
        steps: 26,
        step_dt_s: 2.0,
        durable: true,
        ..Default::default()
    };
    let h = spec.hierarchy();
    // The victim: a leaf agent in the lower-left corner, and the
    // mid-level subtree containing it, which gets cut off from the rest
    // of the world (including the root and the tracked objects) for
    // roughly steps 3–15 of the chaos phase.
    let victim_leaf = h.leaf_for(Point::new(125.0, 125.0)).expect("in area");
    let mid = h.server(victim_leaf).parent.expect("leaf has a parent");
    let cut = subtree_endpoints(&h, mid);
    spec.faults = FaultPlan::none()
        .with_partition(Partition::isolate(6 * SECOND, 30 * SECOND, cut));
    spec.events = vec![
        // Crash while the partition is active: pending handovers out of
        // the severed subtree are lost along with the leaf's volatile
        // state. The durable visitor WAL stays on disk. The partition
        // heals (t = 30 s) well before the restart at step 20, so the
        // down server blackholes live traffic in between.
        ScenarioEvent { at_step: 8, action: FaultAction::Crash(victim_leaf) },
        ScenarioEvent { at_step: 20, action: FaultAction::Restart(victim_leaf) },
    ];
    spec
}

#[test]
fn flagship_partition_crash_restart_is_green() {
    let run = flagship(0xC0FFEE).run().unwrap();
    assert_eq!(run.alive, 32, "no object may be falsely deregistered");
    assert!(run.blackholed > 0, "the crash must actually blackhole traffic");
    assert!(run.net_counters.2 > 0, "the partition must actually drop messages");
}

#[test]
fn flagship_is_deterministic_per_seed() {
    let a = flagship(7).run().unwrap();
    let b = flagship(7).run().unwrap();
    assert_eq!(a.trace, b.trace, "same seed must replay the identical trace");
    assert_eq!(a.net_counters, b.net_counters);
    assert_eq!(a.virtual_end_us, b.virtual_end_us);
    // Behaviour-preservation pin: the run the flagship ran before the
    // executor became generic over the runtime.
    assert_eq!(common::run_digest(&a), 0x2CC0_1DE2_6620_0ACA, "the flagship run moved");
    let c = flagship(8).run().unwrap();
    assert_ne!(a.trace, c.trace, "a different seed must explore a different run");
}

#[test]
fn crash_restart_recovers_every_durably_acked_registration() {
    // Stationary population, so the crashed leaf's registrations are
    // exactly what must come back from the WAL (the harness compares
    // the recovered visitor DB record-for-record against the
    // crash-instant snapshot and fails on any divergence).
    let mut spec = ScenarioSpec {
        name: "durable-crash-recovery".to_string(),
        seed: 42,
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
        ScenarioEvent { at_step: 3, action: FaultAction::Crash(victim) },
        ScenarioEvent { at_step: 6, action: FaultAction::Restart(victim) },
    ];
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 16, "durable recovery must lose nobody");
}

#[test]
#[should_panic(expected = "chaos scenario")]
fn oracle_catches_lost_registrations_without_durability() {
    // Negative control: the same crash on a *volatile* deployment loses
    // the leaf's registrations for good, and the oracle must say so.
    let mut spec = ScenarioSpec {
        name: "volatile-crash-loses-state".to_string(),
        seed: 42,
        levels: 1,
        fanout: 2,
        num_objects: 16,
        mobility: MobilityKind::Stationary,
        policy: UpdatePolicy::Periodic { period_us: 4 * SECOND },
        steps: 12,
        durable: false,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let victim = h.leaf_for(Point::new(100.0, 100.0)).expect("in area");
    spec.events = vec![
        ScenarioEvent { at_step: 3, action: FaultAction::Crash(victim) },
        ScenarioEvent { at_step: 6, action: FaultAction::Restart(victim) },
    ];
    let _ = spec.run();
}

/// The mid-batch crash scenario: a leaf agent crashes with an
/// `UpdateBatch` on the wire. Batch atomicity at the durable layer
/// means recovery must expose the durably-acked registrations
/// record-for-record and *nothing* of the unacknowledged batch — never
/// a partial application. The gateway's re-send then restores every
/// sighting and the oracle (acked positions vs. root-routed queries)
/// goes green.
fn run_mid_batch_crash(seed: u64) -> Vec<String> {
    let mut trace = Vec::new();
    let dir = TempDir::new(&format!("chaos-midbatch-{seed}"));
    let opts = ServerOptions {
        sighting_ttl_us: 60 * SECOND,
        path_refresh_us: 15 * SECOND,
        path_ttl_us: 45 * SECOND,
        query_timeout_us: SECOND / 2,
        durability: Some(DurabilityOptions {
            dir: dir.path().to_path_buf(),
            policy: StorageSyncPolicy::Always,
        }),
        ..Default::default()
    };
    let h = HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
        1,
        2,
    )
    .build()
    .expect("grid hierarchy");
    let mut ls = SimDeployment::new(h, opts, seed);
    let leaf = ls.leaf_for(Point::new(100.0, 100.0));

    // A stationary population tracked by one leaf (a gateway reports
    // them in batches, as a building's tracking system would).
    let n = 8u64;
    let pos_of = |k: u64, round: u64| {
        Point::new(40.0 + (k % 4) as f64 * 30.0 + round as f64, 40.0 + (k / 4) as f64 * 30.0)
    };
    for k in 0..n {
        let (agent, _) = ls
            .register(leaf, Sighting::new(ObjectId(k), 0, pos_of(k, 0), 5.0), 10.0, 50.0)
            .expect("registration");
        assert_eq!(agent, leaf);
    }

    // Batch 1: fully acknowledged — these positions are the oracle's
    // ground truth for "durably observed".
    let now = ls.now_us();
    let batch1: Vec<Sighting> =
        (0..n).map(|k| Sighting::new(ObjectId(k), now, pos_of(k, 1), 5.0)).collect();
    let acks = ls.update_batch(leaf, batch1).expect("batch 1 acked");
    assert_eq!(acks.len(), n as usize, "whole batch must ack in place");
    trace.push(format!("batch1 acked {} at t={}us", acks.len(), ls.now_us()));

    let snapshot: Vec<(ObjectId, VisitorRecord)> =
        ls.server(leaf).unwrap().visitors().iter().collect();
    assert_eq!(snapshot.len(), n as usize);

    // Batch 2 goes on the wire… and the leaf dies before (or while)
    // processing it: the in-flight datagram is lost with the crash.
    let gateway = ls.new_client();
    let now = ls.now_us();
    let batch2: Vec<Sighting> =
        (0..n).map(|k| Sighting::new(ObjectId(k), now, pos_of(k, 2), 5.0)).collect();
    let corr = ls.next_corr();
    ls.send_from(gateway, leaf, Message::UpdateBatch { sightings: batch2.clone(), corr });
    assert!(ls.crash_server(leaf));
    ls.run_until_quiet();
    trace.push(format!("crashed mid-batch at t={}us", ls.now_us()));

    assert!(ls.restart_server(leaf));
    let recovered: Vec<(ObjectId, VisitorRecord)> =
        ls.server(leaf).unwrap().visitors().iter().collect();
    assert_eq!(
        recovered, snapshot,
        "WAL replay must recover the durably-acked registrations record-for-record"
    );
    // No partial batch after replay: the restarted leaf holds *zero*
    // batch-2 sightings (its sighting store is volatile; the batch was
    // never acknowledged, so nothing of it may look applied).
    assert_eq!(
        ls.server(leaf).unwrap().sighting_count(),
        0,
        "a never-acked batch must not be partially visible after recovery"
    );
    trace.push(format!("recovered {} records, 0 sightings", recovered.len()));

    // The gateway re-sends the unacknowledged batch (idempotent client
    // re-send, as over UDP); now everything acks and the oracle is
    // green: every root-routed query answers exactly the acked batch-2
    // position.
    let acks = ls.update_batch(leaf, batch2).expect("batch 2 re-send acked");
    assert_eq!(acks.len(), n as usize);
    let root = ls.hierarchy().root();
    for k in 0..n {
        let ld = ls.pos_query(root, ObjectId(k)).expect("object answerable after recovery");
        assert_eq!(ld.pos, pos_of(k, 2), "object {k} must answer its re-sent batch position");
    }
    trace.push(format!(
        "resent batch acked; oracle green at t={}us counters={:?} blackholed={}",
        ls.now_us(),
        ls.net_counters(),
        ls.blackholed()
    ));
    trace
}

#[test]
fn leaf_crash_mid_update_batch_is_atomic_and_recovers() {
    let trace = run_mid_batch_crash(0xBA7C4);
    assert_eq!(trace.len(), 4, "scenario phases: {trace:?}");
}

#[test]
fn mid_batch_crash_is_deterministic_per_seed() {
    assert_eq!(run_mid_batch_crash(5), run_mid_batch_crash(5));
    assert_ne!(run_mid_batch_crash(5), run_mid_batch_crash(6));
}

#[test]
fn reorder_duplicate_loss_storm_keeps_invariants() {
    let spec = ScenarioSpec {
        name: "udp-storm".to_string(),
        seed: 0xBAD5EED,
        levels: 1,
        fanout: 3,
        num_objects: 24,
        speed_mps: 15.0,
        steps: 20,
        faults: FaultPlan::uniform(0.03, 0.05).with_reorder(0.2, 300_000),
        ..Default::default()
    };
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 24);
    assert!(run.net_counters.2 > 0, "the storm must actually drop messages");
    // Determinism holds under heavy fault-RNG usage too.
    let again = spec.clone().run().unwrap();
    assert_eq!(run.trace, again.trace);
}

#[test]
fn dead_uplink_and_latency_spike_heal() {
    let mut spec = ScenarioSpec {
        name: "flaky-uplink-spike".to_string(),
        seed: 99,
        levels: 2,
        fanout: 2,
        num_objects: 20,
        speed_mps: 12.0,
        steps: 16,
        ..Default::default()
    };
    let h = spec.hierarchy();
    let leaf = h.leaf_for(Point::new(900.0, 900.0)).expect("in area");
    let mid = h.server(leaf).parent.expect("leaf has a parent");
    let root = h.root();
    spec.faults = FaultPlan::none()
        // The mid→root uplink loses 80% of its traffic…
        .with_link(LinkFault::between(mid.into(), root.into()).with_drop(0.8))
        // …and everything crawls for a while.
        .with_spike(LatencySpike::new(4 * SECOND, 12 * SECOND, 200_000));
    let run = spec.run().unwrap();
    assert_eq!(run.alive, 20);
}
