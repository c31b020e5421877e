//! Randomized handover stress: objects random-walk across leaf
//! boundaries; after every movement batch the hierarchy must stay
//! internally consistent and fully queryable.

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::model::{ObjectId, Sighting, SECOND};
use hiloc::core::node::{ServerOptions, VisitorRecord};
use hiloc::core::runtime::{SimDeployment, UpdateOutcome};
use hiloc::geo::{Point, Rect};
use hiloc::net::ServerId;
use hiloc_util::rng::StdRng;
use hiloc_util::rng::{RngExt, SeedableRng};

const AREA: f64 = 2_000.0;

/// Walks the forwarding path from the root and asserts it terminates at
/// a leaf record whose leaf is responsible for `expected_pos`.
fn assert_path_consistent(ls: &SimDeployment, oid: ObjectId, expected_pos: Point) {
    let mut cur = ls.hierarchy().root();
    loop {
        match ls.server(cur).unwrap().visitors().get(oid) {
            Some(VisitorRecord::Forward { child, .. }) => cur = child,
            Some(VisitorRecord::Leaf { .. }) => {
                assert_eq!(
                    cur,
                    ls.hierarchy().leaf_for(expected_pos).unwrap(),
                    "{oid} agent mismatch"
                );
                return;
            }
            None => panic!("{oid}: forwarding path broken at {cur}"),
        }
    }
}

#[test]
fn random_walk_consistency_three_levels() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(AREA, AREA));
    let h = HierarchyBuilder::grid(area, 2, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, Default::default(), 0xDADA);
    let mut rng = StdRng::seed_from_u64(0x5EED);

    let n = 60u64;
    let mut agents = Vec::new();
    let mut positions = Vec::new();
    for oid in 0..n {
        let p = Point::new(rng.random_range(1.0..AREA - 1.0), rng.random_range(1.0..AREA - 1.0));
        let entry = ls.leaf_for(p);
        let (agent, _) =
            ls.register(entry, Sighting::new(ObjectId(oid), 0, p, 5.0), 10.0, 50.0).unwrap();
        agents.push(agent);
        positions.push(p);
    }

    for round in 0..8 {
        for oid in 0..n {
            // Random jump anywhere (maximizes cross-subtree handovers).
            let p = Point::new(
                rng.random_range(1.0..AREA - 1.0),
                rng.random_range(1.0..AREA - 1.0),
            );
            let t = (round * 100 + oid) * SECOND;
            match ls.update(agents[oid as usize], Sighting::new(ObjectId(oid), t, p, 5.0)).unwrap()
            {
                UpdateOutcome::Ack { .. } => {}
                UpdateOutcome::NewAgent { agent, .. } => agents[oid as usize] = agent,
                UpdateOutcome::OutOfServiceArea => panic!("object stayed inside"),
            }
            positions[oid as usize] = p;
        }
        ls.run_until_quiet();
        for oid in 0..n {
            assert_path_consistent(&ls, ObjectId(oid), positions[oid as usize]);
        }
        // Exactly one leaf record per object across all leaves.
        let leaf_records: usize = ls
            .hierarchy()
            .leaves()
            .map(|cfg| ls.server(cfg.id).unwrap().sighting_count())
            .sum();
        assert_eq!(leaf_records, n as usize, "round {round}");
    }
    // Handovers actually happened (random jumps cross leaves often).
    let total = ls.total_stats();
    assert!(total.handovers_completed > 100, "only {} handovers", total.handovers_completed);
}

#[test]
fn expiry_and_reregistration_interleaved_with_handover() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let opts = ServerOptions { sighting_ttl_us: 20 * SECOND, ..Default::default() };
    let mut ls = SimDeployment::new(h, opts, 0xE0);

    let a = Point::new(100.0, 100.0);
    let b = Point::new(900.0, 900.0);
    let entry = ls.leaf_for(a);
    let (agent, _) = ls.register(entry, Sighting::new(ObjectId(1), 0, a, 5.0), 10.0, 50.0).unwrap();

    // Move across leaves, then go silent past the TTL.
    let out = ls.update(agent, Sighting::new(ObjectId(1), SECOND, b, 5.0)).unwrap();
    let UpdateOutcome::NewAgent { agent: new_agent, .. } = out else {
        panic!("expected handover")
    };
    ls.advance_time(60 * SECOND);
    assert!(ls.pos_query(entry, ObjectId(1)).is_err(), "expired after silence");
    for sid in 0..ls.hierarchy().len() as u32 {
        assert!(ls.server(ServerId(sid)).unwrap().visitors().get(ObjectId(1)).is_none());
    }
    let _ = new_agent;

    // Re-registration works cleanly after expiry.
    let entry_b = ls.leaf_for(b);
    let (agent2, _) =
        ls.register(entry_b, Sighting::new(ObjectId(1), 61 * SECOND, b, 5.0), 10.0, 50.0).unwrap();
    assert_eq!(agent2, entry_b);
    assert!(ls.pos_query(entry, ObjectId(1)).is_ok());
}

#[test]
fn interleaved_queries_during_handover_storm() {
    // Queries issued while many handovers are in flight must still
    // resolve (possibly to the pre- or post-handover position, but
    // never hang or corrupt state).
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, Default::default(), 0xF00D);
    let mut rng = StdRng::seed_from_u64(1);

    let n = 30u64;
    let mut agents = Vec::new();
    for oid in 0..n {
        let p = Point::new(rng.random_range(1.0..999.0), rng.random_range(1.0..999.0));
        let entry = ls.leaf_for(p);
        let (agent, _) =
            ls.register(entry, Sighting::new(ObjectId(oid), 0, p, 5.0), 10.0, 50.0).unwrap();
        agents.push(agent);
    }

    for step in 0..50 {
        let oid = rng.random_range(0..n);
        let p = Point::new(rng.random_range(1.0..999.0), rng.random_range(1.0..999.0));
        match ls
            .update(agents[oid as usize], Sighting::new(ObjectId(oid), step, p, 5.0))
            .unwrap()
        {
            UpdateOutcome::NewAgent { agent, .. } => agents[oid as usize] = agent,
            UpdateOutcome::Ack { .. } => {}
            UpdateOutcome::OutOfServiceArea => panic!("inside area"),
        }
        // Immediately query a random other object from a random entry.
        let target = ObjectId(rng.random_range(0..n));
        let entry = ls.leaf_for(Point::new(rng.random_range(1.0..999.0), rng.random_range(1.0..999.0)));
        let ld = ls.pos_query(entry, target).unwrap();
        assert!(area.contains(ld.pos));
    }
    // Nothing leaked in pending tables once quiet.
    ls.run_until_quiet();
    for sid in 0..ls.hierarchy().len() as u32 {
        assert_eq!(ls.server(ServerId(sid)).unwrap().pending_count(), 0, "pending leak at s{sid}");
    }
}
