//! End-to-end protocol tests over the deterministic sim deployment:
//! registration, forwarding paths, updates, handovers, all three query
//! types, deregistration, soft state, accuracy management and
//! client-side event watches.

use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_core::events::{EventKind, Predicate, Watch};
use hiloc_core::model::{LsError, ObjectId, RangeQuery, Sighting, SECOND};
use hiloc_core::node::{ServerOptions, VisitorRecord};
use hiloc_core::runtime::{SimDeployment, UpdateOutcome};
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::ServerId;

fn testbed() -> Hierarchy {
    // The paper's Fig. 8 testbed: 1.5 km x 1.5 km, root + 4 leaves.
    HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_500.0, 1_500.0)),
        1,
        2,
    )
    .build()
    .unwrap()
}

fn deep() -> Hierarchy {
    // Fig. 6 shape: 3 levels, 7 servers (s0 root; s1,s2; s3..s6 leaves).
    HierarchyBuilder::binary(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_600.0, 1_600.0)),
        2,
    )
    .build()
    .unwrap()
}

fn sighting(oid: u64, x: f64, y: f64) -> Sighting {
    Sighting::new(ObjectId(oid), 0, Point::new(x, y), 5.0)
}

fn ls(h: Hierarchy) -> SimDeployment {
    SimDeployment::new(h, ServerOptions::default(), 0xBEEF)
}

#[test]
fn registration_builds_forwarding_path_to_root() {
    let mut ls = ls(deep());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let (agent, offered) = ls.register(entry, sighting(1, 100.0, 100.0), 10.0, 50.0).unwrap();
    assert_eq!(agent, entry);
    assert_eq!(offered, 10.0);
    ls.run_until_quiet();

    // Forwarding references exist on every ancestor, pointing down
    // toward the agent.
    let mut cur = ServerId(0); // root
    loop {
        let server = ls.server(cur).unwrap();
        if cur == agent {
            assert!(matches!(
                server.visitors().get(ObjectId(1)),
                Some(VisitorRecord::Leaf { .. })
            ));
            break;
        }
        match server.visitors().get(ObjectId(1)) {
            Some(VisitorRecord::Forward { child, .. }) => cur = child,
            other => panic!("expected forward ref at {cur}, got {other:?}"),
        }
    }
}

#[test]
fn registration_routes_from_any_entry_server() {
    let mut ls = ls(testbed());
    // Enter at the far-away leaf; the object is in another quadrant.
    let wrong_entry = ls.leaf_for(Point::new(1_400.0, 1_400.0));
    let (agent, _) = ls.register(wrong_entry, sighting(2, 100.0, 100.0), 10.0, 50.0).unwrap();
    assert_eq!(agent, ls.leaf_for(Point::new(100.0, 100.0)));
}

#[test]
fn registration_fails_when_accuracy_unachievable() {
    let h = testbed();
    let opts = ServerOptions { acc_floor_m: 80.0, ..Default::default() };
    let mut ls = SimDeployment::new(h, opts, 1);
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let err = ls.register(entry, sighting(3, 100.0, 100.0), 10.0, 50.0).unwrap_err();
    match err {
        LsError::AccuracyUnavailable { achievable_m, .. } => assert_eq!(achievable_m, 80.0),
        other => panic!("unexpected error {other}"),
    }
    // But a laxer range succeeds, offering the floor.
    let (_, offered) = ls.register(entry, sighting(3, 100.0, 100.0), 10.0, 100.0).unwrap();
    assert_eq!(offered, 80.0);
}

/// A registration whose numbers `RegInfo`'s own rule refuses must fail
/// at the leaf. Stored, it would ride in the object's next `HandoverReq`
/// (and every `StateTransfer` / `FwdDelta` carrying it), the receiving
/// decoder would drop the message, and the object would vanish at its
/// first leaf border (`handover_between_sibling_leaves` is the honest
/// walk). The sim carries `Message` values rather than bytes, so the
/// walk itself cannot show the loss here; what it can show is that such
/// an object never gets registered.
#[test]
fn registration_the_decoders_would_refuse_is_refused_at_the_leaf() {
    let mut ls = ls(testbed());
    let west = ls.leaf_for(Point::new(100.0, 100.0));
    let refused = [
        (100.0, 25.0, 3.0), // desAcc worse than minAcc
        (-1.0, 50.0, 3.0),
        (10.0, f64::INFINITY, 3.0),
        (10.0, 50.0, f64::NAN),
        (10.0, 50.0, -3.0),
    ];
    for (i, (des_acc_m, min_acc_m, max_speed_mps)) in refused.into_iter().enumerate() {
        let oid = 50 + i as u64;
        let err = ls
            .register_with_speed(west, sighting(oid, 100.0, 100.0), des_acc_m, min_acc_m, max_speed_mps)
            .expect_err("the leaf must refuse what the decoders refuse");
        assert!(matches!(err, LsError::AccuracyUnavailable { .. }), "{err}");
        ls.run_until_quiet();
        for sid in 0..5 {
            assert!(ls.server(ServerId(sid)).unwrap().visitors().get(ObjectId(oid)).is_none());
        }
    }
    assert_eq!(ls.server(west).unwrap().stats().registrations, 0);
}

#[test]
fn registration_outside_root_area_fails() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let err = ls.register(entry, sighting(4, 5_000.0, 5_000.0), 10.0, 50.0).unwrap_err();
    assert!(matches!(err, LsError::AccuracyUnavailable { .. }));
}

#[test]
fn update_within_area_refreshes_position() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let (agent, _) = ls.register(entry, sighting(5, 100.0, 100.0), 10.0, 50.0).unwrap();

    let out = ls.update(agent, sighting(5, 200.0, 300.0)).unwrap();
    assert!(matches!(out, UpdateOutcome::Ack { .. }));
    let ld = ls.pos_query(entry, ObjectId(5)).unwrap();
    assert_eq!(ld.pos, Point::new(200.0, 300.0));
    assert_eq!(ld.acc_m, 10.0); // offered accuracy
}

#[test]
fn handover_between_sibling_leaves() {
    let mut ls = ls(testbed());
    let west = ls.leaf_for(Point::new(100.0, 100.0));
    let east = ls.leaf_for(Point::new(1_400.0, 100.0));
    assert_ne!(west, east);
    let (agent, _) = ls.register(west, sighting(6, 100.0, 100.0), 10.0, 50.0).unwrap();
    assert_eq!(agent, west);

    // Move into the eastern quadrant: handover.
    let out = ls.update(agent, sighting(6, 1_400.0, 100.0)).unwrap();
    match out {
        UpdateOutcome::NewAgent { agent: new_agent, .. } => assert_eq!(new_agent, east),
        other => panic!("expected handover, got {other:?}"),
    }
    ls.run_until_quiet();

    // Old agent forgot the object; new agent has it; the root's
    // forwarding ref points at the new side.
    assert!(ls.server(west).unwrap().visitors().get(ObjectId(6)).is_none());
    assert!(matches!(
        ls.server(east).unwrap().visitors().get(ObjectId(6)),
        Some(VisitorRecord::Leaf { .. })
    ));
    match ls.server(ServerId(0)).unwrap().visitors().get(ObjectId(6)) {
        Some(VisitorRecord::Forward { child, .. }) => assert_eq!(child, east),
        other => panic!("bad root record {other:?}"),
    }
    // Queries find it at the new location from either entry.
    let ld = ls.pos_query(west, ObjectId(6)).unwrap();
    assert_eq!(ld.pos, Point::new(1_400.0, 100.0));
}

#[test]
fn handover_across_subtrees_in_deep_hierarchy() {
    let mut ls = ls(deep());
    // Deep tree: leaf areas are vertical strips of quadrants; pick
    // far-apart corners to force the handover through the root.
    let a = ls.leaf_for(Point::new(50.0, 50.0));
    let b = ls.leaf_for(Point::new(1_550.0, 1_550.0));
    assert_ne!(a, b);
    let (agent, _) = ls.register(a, sighting(7, 50.0, 50.0), 10.0, 50.0).unwrap();
    let out = ls.update(agent, sighting(7, 1_550.0, 1_550.0)).unwrap();
    match out {
        UpdateOutcome::NewAgent { agent: new_agent, .. } => assert_eq!(new_agent, b),
        other => panic!("expected handover, got {other:?}"),
    }
    ls.run_until_quiet();

    // Verify the complete new path root → b and that the old branch is
    // clean.
    let mut cur = ServerId(0);
    loop {
        match ls.server(cur).unwrap().visitors().get(ObjectId(7)) {
            Some(VisitorRecord::Forward { child, .. }) => cur = child,
            Some(VisitorRecord::Leaf { .. }) => {
                assert_eq!(cur, b);
                break;
            }
            None => panic!("path broken at {cur}"),
        }
    }
    assert!(ls.server(a).unwrap().visitors().get(ObjectId(7)).is_none());
    let parent_of_a = ls.hierarchy().server(a).parent.unwrap();
    assert!(ls.server(parent_of_a).unwrap().visitors().get(ObjectId(7)).is_none());
}

#[test]
fn object_leaving_service_area_is_deregistered() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let (agent, _) = ls.register(entry, sighting(8, 100.0, 100.0), 10.0, 50.0).unwrap();
    let out = ls.update(agent, sighting(8, 9_999.0, 9_999.0)).unwrap();
    assert_eq!(out, UpdateOutcome::OutOfServiceArea);
    ls.run_until_quiet();
    for sid in 0..ls.hierarchy().len() as u32 {
        assert!(
            ls.server(ServerId(sid)).unwrap().visitors().get(ObjectId(8)).is_none(),
            "record lingers at s{sid}"
        );
    }
    assert!(matches!(
        ls.pos_query(entry, ObjectId(8)),
        Err(LsError::UnknownObject(_))
    ));
}

#[test]
fn pos_query_local_and_remote() {
    let mut ls = ls(testbed());
    let west = ls.leaf_for(Point::new(100.0, 100.0));
    let east = ls.leaf_for(Point::new(1_400.0, 100.0));
    ls.register(west, sighting(9, 100.0, 100.0), 10.0, 50.0).unwrap();

    // Local: entry is the agent.
    let ld = ls.pos_query(west, ObjectId(9)).unwrap();
    assert_eq!(ld.pos, Point::new(100.0, 100.0));
    // Remote: entry in another quadrant routes via the root.
    let ld = ls.pos_query(east, ObjectId(9)).unwrap();
    assert_eq!(ld.pos, Point::new(100.0, 100.0));
    // Unknown object.
    assert!(matches!(
        ls.pos_query(east, ObjectId(999)),
        Err(LsError::UnknownObject(_))
    ));
}

#[test]
fn range_query_single_leaf_and_spanning_leaves() {
    let mut ls = ls(testbed());
    // A cluster in the west and one straddling the vertical seam at
    // x = 750.
    for (i, (x, y)) in [(100.0, 100.0), (120.0, 100.0), (740.0, 400.0), (760.0, 400.0)]
        .iter()
        .enumerate()
    {
        let entry = ls.leaf_for(Point::new(*x, *y));
        ls.register(entry, sighting(10 + i as u64, *x, *y), 10.0, 50.0).unwrap();
    }
    let entry = ls.leaf_for(Point::new(100.0, 100.0));

    // Entirely inside one leaf.
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(50.0, 50.0), Point::new(200.0, 200.0))),
        50.0,
        0.5,
    );
    let ans = ls.range_query(entry, q).unwrap();
    assert!(ans.complete);
    let mut ids: Vec<u64> = ans.objects.iter().map(|(o, _)| o.0).collect();
    ids.sort();
    assert_eq!(ids, vec![10, 11]);

    // Spanning two leaves across the seam.
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(700.0, 350.0), Point::new(800.0, 450.0))),
        50.0,
        0.5,
    );
    let ans = ls.range_query(entry, q).unwrap();
    assert!(ans.complete);
    let mut ids: Vec<u64> = ans.objects.iter().map(|(o, _)| o.0).collect();
    ids.sort();
    assert_eq!(ids, vec![12, 13]);

    // Spanning all four leaves (center of the area).
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(50.0, 50.0), Point::new(1_450.0, 1_450.0))),
        50.0,
        0.5,
    );
    let ans = ls.range_query(entry, q).unwrap();
    assert!(ans.complete);
    assert_eq!(ans.objects.len(), 4);
}

#[test]
fn range_query_respects_accuracy_and_overlap_thresholds() {
    let h = testbed();
    // Two accuracy classes via two registrations.
    let mut ls = SimDeployment::new(h, ServerOptions { acc_floor_m: 5.0, ..Default::default() }, 3);
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    // Precise object inside the queried area.
    ls.register(entry, sighting(20, 100.0, 100.0), 10.0, 50.0).unwrap();
    // Coarse object (desired accuracy 200 m) at the same place.
    ls.register_with_speed(entry, sighting(21, 110.0, 100.0), 200.0, 400.0, 3.0).unwrap();

    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(50.0, 50.0), Point::new(200.0, 200.0))),
        50.0, // reqAcc filters out the 200 m object
        0.5,
    );
    let ans = ls.range_query(entry, q).unwrap();
    let ids: Vec<u64> = ans.objects.iter().map(|(o, _)| o.0).collect();
    assert_eq!(ids, vec![20]);

    // With a lax accuracy threshold both qualify — but the coarse
    // object's 200 m circle only partially overlaps the 150 m box, so a
    // high overlap requirement still excludes it.
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(50.0, 50.0), Point::new(200.0, 200.0))),
        500.0,
        0.9,
    );
    let ans = ls.range_query(entry, q).unwrap();
    let ids: Vec<u64> = ans.objects.iter().map(|(o, _)| o.0).collect();
    assert_eq!(ids, vec![20]);
}

#[test]
fn range_query_catches_object_just_outside_area_via_enlarge() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    // Object center 10 m outside the queried area, accuracy 25 m: its
    // location circle overlaps the area by ~27%.
    ls.register(entry, sighting(22, 210.0, 100.0), 25.0, 50.0).unwrap();
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(50.0, 50.0), Point::new(200.0, 200.0))),
        25.0,
        0.2,
    );
    let ans = ls.range_query(entry, q).unwrap();
    assert_eq!(ans.objects.len(), 1, "Enlarge must not miss boundary objects");
}

#[test]
fn neighbor_query_local_and_cross_leaf() {
    let mut ls = ls(testbed());
    let west = ls.leaf_for(Point::new(100.0, 100.0));
    ls.register(west, sighting(30, 100.0, 100.0), 10.0, 50.0).unwrap();
    // A nearer object just across the seam in the east quadrant.
    let east = ls.leaf_for(Point::new(760.0, 100.0));
    ls.register(east, sighting(31, 760.0, 100.0), 10.0, 50.0).unwrap();

    // Query from a point in the west near the seam: the true nearest is
    // object 31 in the other leaf.
    let ans = ls.neighbor_query(west, Point::new(740.0, 100.0), 50.0, 0.0).unwrap();
    assert!(ans.complete);
    assert_eq!(ans.nearest.unwrap().0, ObjectId(31));

    // With a large nearQual, object 30 enters the near set.
    let ans = ls.neighbor_query(west, Point::new(740.0, 100.0), 50.0, 700.0).unwrap();
    assert_eq!(ans.nearest.unwrap().0, ObjectId(31));
    assert_eq!(ans.near_set.len(), 1);
    assert_eq!(ans.near_set[0].0, ObjectId(30));
}

#[test]
fn neighbor_query_escalates_rings_until_found() {
    let mut ls = ls(testbed());
    // Single object far from the query point (forces ring doubling).
    let leaf = ls.leaf_for(Point::new(1_400.0, 1_400.0));
    ls.register(leaf, sighting(32, 1_400.0, 1_400.0), 10.0, 50.0).unwrap();
    let entry = ls.leaf_for(Point::new(10.0, 10.0));
    let ans = ls.neighbor_query(entry, Point::new(10.0, 10.0), 50.0, 0.0).unwrap();
    assert!(ans.complete);
    assert_eq!(ans.nearest.unwrap().0, ObjectId(32));
}

#[test]
fn neighbor_query_empty_service() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(10.0, 10.0));
    let ans = ls.neighbor_query(entry, Point::new(10.0, 10.0), 50.0, 10.0).unwrap();
    assert!(ans.complete);
    assert!(ans.nearest.is_none());
    assert!(ans.near_set.is_empty());
}

#[test]
fn neighbor_query_filters_by_accuracy() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    // Closest object is coarse (offered 200 m); a farther one is fine.
    ls.register_with_speed(entry, sighting(33, 110.0, 100.0), 200.0, 400.0, 3.0).unwrap();
    ls.register(entry, sighting(34, 300.0, 100.0), 10.0, 50.0).unwrap();
    let ans = ls.neighbor_query(entry, Point::new(100.0, 100.0), 50.0, 0.0).unwrap();
    assert_eq!(ans.nearest.unwrap().0, ObjectId(34), "coarse object must be skipped");
}

#[test]
fn deregister_removes_whole_path() {
    let mut ls = ls(deep());
    let entry = ls.leaf_for(Point::new(50.0, 50.0));
    let (agent, _) = ls.register(entry, sighting(40, 50.0, 50.0), 10.0, 50.0).unwrap();
    ls.run_until_quiet();
    ls.deregister(agent, ObjectId(40));
    for sid in 0..ls.hierarchy().len() as u32 {
        assert!(ls.server(ServerId(sid)).unwrap().visitors().get(ObjectId(40)).is_none());
    }
}

#[test]
fn soft_state_expiry_deregisters_silent_objects() {
    let h = testbed();
    let opts = ServerOptions { sighting_ttl_us: 10 * SECOND, ..Default::default() };
    let mut ls = SimDeployment::new(h, opts, 9);
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let (agent, _) = ls.register(entry, sighting(41, 100.0, 100.0), 10.0, 50.0).unwrap();
    ls.run_until_quiet();

    // Refresh at t+5s keeps it alive past the original deadline.
    ls.advance_time(5 * SECOND);
    ls.update(agent, sighting(41, 105.0, 100.0)).unwrap();
    ls.advance_time(12 * SECOND);
    assert!(ls.pos_query(entry, ObjectId(41)).is_ok(), "refreshed object must survive");

    // Silence for a full TTL: expired and deregistered everywhere.
    ls.advance_time(30 * SECOND);
    assert!(matches!(
        ls.pos_query(entry, ObjectId(41)),
        Err(LsError::UnknownObject(_))
    ));
    for sid in 0..ls.hierarchy().len() as u32 {
        assert!(ls.server(ServerId(sid)).unwrap().visitors().get(ObjectId(41)).is_none());
    }
    assert_eq!(ls.server(agent).unwrap().stats().expired, 1);
}

#[test]
fn change_accuracy_renegotiates() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let (agent, offered) = ls.register(entry, sighting(42, 100.0, 100.0), 10.0, 50.0).unwrap();
    assert_eq!(offered, 10.0);
    let (ok, offered) = ls.change_acc(agent, ObjectId(42), 25.0, 100.0).unwrap();
    assert!(ok);
    assert_eq!(offered, 25.0);
    // Impossible range (floor 5 m default, but des > min is invalid).
    let (ok, offered) = ls.change_acc(agent, ObjectId(42), 200.0, 100.0).unwrap();
    assert!(!ok);
    assert_eq!(offered, 25.0, "failed change keeps the previous offer");
    // So is every other range `RegInfo::new` would refuse.
    for (des_acc_m, min_acc_m) in [(-1.0, 100.0), (25.0, f64::INFINITY), (f64::NAN, 100.0)] {
        let (ok, offered) = ls.change_acc(agent, ObjectId(42), des_acc_m, min_acc_m).unwrap();
        assert!(!ok, "({des_acc_m}, {min_acc_m}) must be refused");
        assert_eq!(offered, 25.0);
    }
    // Queries now return the new accuracy.
    let ld = ls.pos_query(entry, ObjectId(42)).unwrap();
    assert_eq!(ld.acc_m, 25.0);
}

/// One poll of a client-side watch: its range query via `entry`, then
/// the events the answer implies.
fn poll(ls: &mut SimDeployment, entry: ServerId, w: &mut Watch) -> Vec<EventKind> {
    let answer = ls.range_query(entry, w.query()).unwrap();
    w.observe(&answer)
}

#[test]
fn count_watch_fires_and_rearms() {
    let mut ls = ls(testbed());
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let area = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0)));
    let mut w = Watch::new(Predicate::CountAtLeast { area, threshold: 2 }, 50.0, 0.5);
    assert!(poll(&mut ls, entry, &mut w).is_empty());

    // First object: below threshold.
    ls.register(entry, sighting(50, 100.0, 100.0), 10.0, 50.0).unwrap();
    assert!(poll(&mut ls, entry, &mut w).is_empty());
    // Second object: fires.
    ls.register(entry, sighting(51, 150.0, 150.0), 10.0, 50.0).unwrap();
    assert_eq!(poll(&mut ls, entry, &mut w), vec![EventKind::CountReached { count: 2 }]);
    assert!(poll(&mut ls, entry, &mut w).is_empty(), "fires once per crossing");

    // Moving one object out re-arms; moving it back fires again.
    let agent = ls.leaf_for(Point::new(100.0, 100.0));
    ls.update(agent, sighting(50, 600.0, 600.0)).unwrap();
    assert!(poll(&mut ls, entry, &mut w).is_empty());
    ls.update(agent, sighting(50, 100.0, 100.0)).unwrap();
    assert_eq!(poll(&mut ls, entry, &mut w), vec![EventKind::CountReached { count: 2 }]);
}

#[test]
fn enter_watch_across_leaf_boundary() {
    let mut ls = ls(testbed());
    // Watched area straddles the seam between west and east leaves.
    let area = Region::from(Rect::new(Point::new(700.0, 50.0), Point::new(800.0, 150.0)));
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let mut enter = Watch::new(Predicate::Enter { area: area.clone(), oid: None }, 50.0, 0.5);
    let mut leave = Watch::new(Predicate::Leave { area, oid: None }, 50.0, 0.5);
    // Both watches poll the same query, so one answer serves both.
    let mut poll_both = |ls: &mut SimDeployment| {
        let answer = ls.range_query(entry, enter.query()).unwrap();
        (enter.observe(&answer), leave.observe(&answer))
    };

    // Register outside the area, then move in from the east side.
    let east = ls.leaf_for(Point::new(1_000.0, 100.0));
    let (mut agent, _) = ls.register(east, sighting(52, 1_000.0, 100.0), 10.0, 50.0).unwrap();
    assert_eq!(poll_both(&mut ls), (vec![], vec![]));
    ls.update(agent, sighting(52, 790.0, 100.0)).unwrap();
    assert_eq!(poll_both(&mut ls), (vec![EventKind::Entered { oid: ObjectId(52) }], vec![]));

    // Crossing the seam *within* the watched area hands the object to
    // the west leaf but never takes it out of the answer: no event.
    match ls.update(agent, sighting(52, 710.0, 100.0)).unwrap() {
        UpdateOutcome::NewAgent { agent: west, .. } => agent = west,
        other => panic!("expected a handover across the seam, got {other:?}"),
    }
    assert_eq!(poll_both(&mut ls), (vec![], vec![]));

    ls.update(agent, sighting(52, 100.0, 100.0)).unwrap();
    assert_eq!(poll_both(&mut ls), (vec![], vec![EventKind::Left { oid: ObjectId(52) }]));
}

#[test]
fn caches_accelerate_repeat_queries() {
    let h = testbed();
    let opts = ServerOptions {
        caches: hiloc_core::cache::CacheConfig::all_enabled(),
        ..Default::default()
    };
    let mut ls = SimDeployment::new(h, opts, 5);
    let west = ls.leaf_for(Point::new(100.0, 100.0));
    let east = ls.leaf_for(Point::new(1_400.0, 100.0));
    ls.register(west, sighting(60, 100.0, 100.0), 10.0, 50.0).unwrap();

    // First remote query: through the hierarchy; second: served from
    // the position cache at the entry.
    ls.pos_query(east, ObjectId(60)).unwrap();
    let before = ls.server(east).unwrap().stats().cache_answers;
    ls.pos_query(east, ObjectId(60)).unwrap();
    let after = ls.server(east).unwrap().stats().cache_answers;
    assert_eq!(after, before + 1, "second query must hit the position cache");
}

#[test]
fn agent_cache_miss_falls_back_to_hierarchy() {
    let h = testbed();
    let opts = ServerOptions {
        caches: hiloc_core::cache::CacheConfig {
            agent_cache: true,
            position_cache: false, // isolate the agent cache
            area_cache: false,
            ..hiloc_core::cache::CacheConfig::all_enabled()
        },
        ..Default::default()
    };
    let mut ls = SimDeployment::new(h, opts, 6);
    let west = ls.leaf_for(Point::new(100.0, 100.0));
    let east = ls.leaf_for(Point::new(1_400.0, 100.0));
    let north = ls.leaf_for(Point::new(100.0, 1_400.0));
    let (agent, _) = ls.register(west, sighting(61, 100.0, 100.0), 10.0, 50.0).unwrap();

    // Prime the agent cache at the eastern entry.
    ls.pos_query(east, ObjectId(61)).unwrap();
    // Move the object to the northern quadrant (handover).
    ls.update(agent, sighting(61, 100.0, 1_400.0)).unwrap();
    ls.run_until_quiet();
    assert_eq!(ls.leaf_for(Point::new(100.0, 1_400.0)), north);

    // The cached agent (west) is stale: the query must still succeed.
    let ld = ls.pos_query(east, ObjectId(61)).unwrap();
    assert_eq!(ld.pos, Point::new(100.0, 1_400.0));
}

#[test]
fn single_server_deployment_works_end_to_end() {
    let h = HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0)),
        0,
        2,
    )
    .build()
    .unwrap();
    let mut ls = SimDeployment::new(h, ServerOptions::default(), 2);
    let entry = ServerId(0);
    ls.register(entry, sighting(70, 100.0, 100.0), 10.0, 50.0).unwrap();
    assert!(ls.pos_query(entry, ObjectId(70)).is_ok());
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0))),
        50.0,
        0.5,
    );
    let ans = ls.range_query(entry, q).unwrap();
    assert!(ans.complete);
    assert_eq!(ans.objects.len(), 1);
    let nn = ls.neighbor_query(entry, Point::new(0.0, 0.0), 50.0, 0.0).unwrap();
    assert_eq!(nn.nearest.unwrap().0, ObjectId(70));
    // Leaving the area deregisters (single server: immediate).
    let out = ls.update(entry, sighting(70, 900.0, 900.0)).unwrap();
    assert_eq!(out, UpdateOutcome::OutOfServiceArea);
}

#[test]
fn many_objects_many_handovers_consistency() {
    // Stress: 200 objects random-walk across the 4 leaves for several
    // rounds; afterwards every object is queryable and the hierarchy
    // is internally consistent.
    use hiloc_util::rng::StdRng;
    use hiloc_util::rng::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut ls = ls(testbed());
    let n = 200u64;
    let mut agents = Vec::new();
    let mut positions = Vec::new();
    for oid in 0..n {
        let p = Point::new(rng.random_range(0.0..1_500.0), rng.random_range(0.0..1_500.0));
        let entry = ls.leaf_for(p);
        let (agent, _) =
            ls.register(entry, Sighting::new(ObjectId(oid), 0, p, 5.0), 10.0, 50.0).unwrap();
        agents.push(agent);
        positions.push(p);
    }
    for _round in 0..5 {
        for oid in 0..n {
            let p = Point::new(rng.random_range(0.0..1_500.0), rng.random_range(0.0..1_500.0));
            positions[oid as usize] = p;
            match ls
                .update(agents[oid as usize], Sighting::new(ObjectId(oid), 0, p, 5.0))
                .unwrap()
            {
                UpdateOutcome::Ack { .. } => {}
                UpdateOutcome::NewAgent { agent, .. } => agents[oid as usize] = agent,
                UpdateOutcome::OutOfServiceArea => panic!("stayed inside the area"),
            }
        }
    }
    ls.run_until_quiet();
    // Every object queryable from a fixed entry, at its last position.
    let entry = ls.leaf_for(Point::new(10.0, 10.0));
    for oid in 0..n {
        let ld = ls.pos_query(entry, ObjectId(oid)).unwrap();
        assert_eq!(ld.pos, positions[oid as usize], "object {oid}");
        // Agent bookkeeping matches the hierarchy's responsibility.
        assert_eq!(agents[oid as usize], ls.leaf_for(positions[oid as usize]));
    }
    // Root sees every object exactly once.
    assert_eq!(ls.server(ServerId(0)).unwrap().visitor_count(), n as usize);
}

#[test]
fn lossy_network_eventually_times_out_queries() {
    use hiloc_net::{FaultPlan, LatencyModel};
    let h = testbed();
    let opts = ServerOptions { query_timeout_us: SECOND / 2, ..Default::default() };
    // Drop everything: queries must fail cleanly, not hang.
    let mut ls = SimDeployment::with_network(
        h,
        opts,
        LatencyModel::default(),
        FaultPlan::uniform(1.0, 0.0),
        7,
    );
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let err = ls.register(entry, sighting(80, 100.0, 100.0), 10.0, 50.0).unwrap_err();
    assert_eq!(err, LsError::Timeout);
}

#[test]
fn duplicated_messages_do_not_double_count() {
    use hiloc_net::{FaultPlan, LatencyModel};
    let h = testbed();
    let mut ls = SimDeployment::with_network(
        h,
        ServerOptions::default(),
        LatencyModel::default(),
        FaultPlan::uniform(0.0, 1.0),
        8,
    );
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    ls.register(entry, sighting(81, 100.0, 100.0), 10.0, 50.0).unwrap();
    ls.register(entry, sighting(82, 1_400.0, 1_400.0), 10.0, 50.0).unwrap();
    ls.run_until_quiet();
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(1_450.0, 1_450.0))),
        50.0,
        0.5,
    );
    let ans = ls.range_query(entry, q).unwrap();
    assert_eq!(ans.objects.len(), 2, "duplicate sub-results must be deduplicated");
}
