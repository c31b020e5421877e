//! Event-watch consistency: the events a client-side [`Watch`] reports
//! must track ground truth while objects move randomly across leaf
//! boundaries through a watched area. Ground truth is the range-query
//! qualification rule applied by brute force to every acked position.

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::events::{EventKind, Predicate, Watch};
use hiloc::core::model::semantics::qualifies_for_range;
use hiloc::core::model::{LocationDescriptor, ObjectId, Sighting};
use hiloc::core::runtime::{SimDeployment, UpdateOutcome};
use hiloc::geo::{Point, Rect, Region};
use hiloc_util::rng::StdRng;
use hiloc_util::rng::{RngExt, SeedableRng};
use std::collections::BTreeSet;

const REQ_ACC_M: f64 = 50.0;
const REQ_OVERLAP: f64 = 0.5;

fn watch(predicate: Predicate) -> Watch {
    Watch::new(predicate, REQ_ACC_M, REQ_OVERLAP)
}

/// Ground truth: does the service's range query qualify `ld` for `area`?
fn inside(area: &Region, ld: &LocationDescriptor) -> bool {
    qualifies_for_range(area, ld, REQ_ACC_M, REQ_OVERLAP)
}

#[test]
fn enter_leave_notifications_match_ground_truth() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, Default::default(), 0xE7E7);
    let mut rng = StdRng::seed_from_u64(99);

    // The watched area straddles all four leaves.
    let watched = Region::from(Rect::new(Point::new(300.0, 300.0), Point::new(700.0, 700.0)));
    let entry = ls.leaf_for(Point::new(10.0, 10.0));
    let mut enter = watch(Predicate::Enter { area: watched.clone(), oid: None });
    let mut leave = watch(Predicate::Leave { area: watched.clone(), oid: None });

    // Objects start outside the watched area.
    let n = 20u64;
    let mut agents = Vec::new();
    let mut acked = Vec::new();
    for oid in 0..n {
        let p = Point::new(rng.random_range(0.0..200.0), rng.random_range(0.0..200.0));
        let e = ls.leaf_for(p);
        let (agent, offered) =
            ls.register(e, Sighting::new(ObjectId(oid), 0, p, 5.0), 10.0, 50.0).unwrap();
        agents.push(agent);
        acked.push(LocationDescriptor::new(p, offered));
    }
    let answer = ls.range_query(entry, enter.query()).unwrap();
    assert!(answer.complete && answer.objects.is_empty(), "no objects inside yet");
    assert!(enter.observe(&answer).is_empty() && leave.observe(&answer).is_empty());

    // Random movement, one poll after every acked update; each poll
    // must report exactly the brute-force membership change.
    let mut members: BTreeSet<ObjectId> = BTreeSet::new();
    let (mut enters, mut leaves) = (0u32, 0u32);
    for step in 0..200 {
        let oid = rng.random_range(0..n);
        let p = Point::new(rng.random_range(1.0..999.0), rng.random_range(1.0..999.0));
        let offered = match ls
            .update(agents[oid as usize], Sighting::new(ObjectId(oid), step, p, 5.0))
            .unwrap()
        {
            UpdateOutcome::NewAgent { agent, offered_acc_m } => {
                agents[oid as usize] = agent;
                offered_acc_m
            }
            UpdateOutcome::Ack { offered_acc_m } => offered_acc_m,
            UpdateOutcome::OutOfServiceArea => panic!("inside the service area"),
        };
        acked[oid as usize] = LocationDescriptor::new(p, offered);

        let truth: BTreeSet<ObjectId> =
            (0..n).filter(|&o| inside(&watched, &acked[o as usize])).map(ObjectId).collect();
        let want_enter: Vec<EventKind> =
            truth.difference(&members).map(|&oid| EventKind::Entered { oid }).collect();
        let want_leave: Vec<EventKind> =
            members.difference(&truth).map(|&oid| EventKind::Left { oid }).collect();

        let answer = ls.range_query(entry, enter.query()).unwrap();
        assert!(answer.complete, "step {step}: fault-free gathers complete");
        assert_eq!(enter.observe(&answer), want_enter, "step {step}: enter events");
        assert_eq!(leave.observe(&answer), want_leave, "step {step}: leave events");
        enters += want_enter.len() as u32;
        leaves += want_leave.len() as u32;
        members = truth;
    }
    assert!(enters > 10 && leaves > 10, "scenario must exercise entries and exits");
}

#[test]
fn count_threshold_tracks_aggregate_across_leaves() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, Default::default(), 0xC0);

    // Watched area centered on the four-corner point: each leaf holds a
    // quarter of it.
    let watched = Region::from(Rect::new(Point::new(400.0, 400.0), Point::new(600.0, 600.0)));
    let entry = ls.leaf_for(Point::new(10.0, 10.0));
    let mut w = watch(Predicate::CountAtLeast { area: watched.clone(), threshold: 4 });
    let mut poll = |ls: &mut SimDeployment| {
        let answer = ls.range_query(entry, w.query()).unwrap();
        w.observe(&answer)
    };
    assert!(poll(&mut ls).is_empty());

    // One object per quadrant, placed inside the watched area one at a
    // time — the threshold only fires once the 4th (aggregated across
    // all four leaves) arrives.
    let spots =
        [Point::new(450.0, 450.0), Point::new(550.0, 450.0), Point::new(450.0, 550.0), Point::new(550.0, 550.0)];
    let mut agents = Vec::new();
    for (i, spot) in spots.iter().enumerate() {
        let e = ls.leaf_for(*spot);
        let s = Sighting::new(ObjectId(i as u64), 0, *spot, 5.0);
        let (agent, offered) = ls.register(e, s, 10.0, 50.0).unwrap();
        assert!(inside(&watched, &LocationDescriptor::new(*spot, offered)));
        agents.push(agent);
        let fired = poll(&mut ls);
        if i < 3 {
            assert!(fired.is_empty(), "below threshold after {} objects", i + 1);
        } else {
            assert_eq!(fired, vec![EventKind::CountReached { count: 4 }]);
        }
    }
    // Verify the four objects really are on four different leaves.
    let distinct: BTreeSet<_> = spots.iter().map(|s| ls.leaf_for(*s)).collect();
    assert_eq!(distinct.len(), 4);

    // One object walks out (re-arms) and back in (fires again).
    let far = Point::new(900.0, 100.0);
    let out = ls.update(agents[0], Sighting::new(ObjectId(0), 1, far, 5.0)).unwrap();
    let UpdateOutcome::NewAgent { agent, .. } = out else { panic!("expected a handover, got {out:?}") };
    assert!(poll(&mut ls).is_empty());
    ls.update(agent, Sighting::new(ObjectId(0), 2, spots[0], 5.0)).unwrap();
    assert_eq!(poll(&mut ls), vec![EventKind::CountReached { count: 4 }]);
}
