//! Event predicates (paper §1 and §8, future work), evaluated on the
//! client side.
//!
//! "Applications should be able to register for predicates, such as
//! 'more than five objects are in a certain area' …, at the location
//! service, which asynchronously informs the registered applications
//! when the predicate becomes true."
//!
//! hiloc keeps the servers out of it. A predicate only asks "which
//! objects are in this area", and the range query (§6.3) already
//! answers that on every runtime. A [`Watch`] turns successive range
//! answers into events; the caller drives the loop:
//!
//! ```text
//! let mut w = Watch::new(predicate, req_acc_m, req_overlap);
//! loop {
//!     let ans = client.range_query(entry, w.query())?;
//!     for event in w.observe(&ans) { … }
//! }
//! ```
//!
//! Two consequences of the design:
//!
//! * **Membership is range-query qualification.** An object is in the
//!   watched area when the range query returns it, i.e. its offered
//!   accuracy is at most `req_acc_m` and its overlap degree with the
//!   area is at least `req_overlap` (§3.2), not merely when its recorded
//!   position lies inside.
//! * **Events are as fresh as the last poll.** An object that enters and
//!   leaves between two polls fires nothing. Push delivery, where the
//!   service notifies the application itself (§8), stays future work.

use crate::model::{ObjectId, RangeAnswer, RangeQuery};
use hiloc_geo::Region;
use std::collections::BTreeSet;

/// A predicate an application can watch.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Fires when the number of objects inside `area` reaches
    /// `threshold` (re-arms when the count drops below it again).
    CountAtLeast {
        /// The watched area.
        area: Region,
        /// The count that triggers the event.
        threshold: u32,
    },
    /// Fires whenever an object enters `area` (optionally only `oid`).
    Enter {
        /// The watched area.
        area: Region,
        /// When set, only this object triggers events.
        oid: Option<ObjectId>,
    },
    /// Fires whenever an object leaves `area` (optionally only `oid`).
    Leave {
        /// The watched area.
        area: Region,
        /// When set, only this object triggers events.
        oid: Option<ObjectId>,
    },
}

impl Predicate {
    /// The geographic area the predicate watches.
    pub fn area(&self) -> &Region {
        match self {
            Predicate::CountAtLeast { area, .. }
            | Predicate::Enter { area, .. }
            | Predicate::Leave { area, .. } => area,
        }
    }
}

/// An event a [`Watch`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A [`Predicate::CountAtLeast`] threshold was reached.
    CountReached {
        /// The object count in the answer that reached it.
        count: u32,
    },
    /// An object entered the watched area.
    Entered {
        /// The entering object.
        oid: ObjectId,
    },
    /// An object left the watched area.
    Left {
        /// The leaving object.
        oid: ObjectId,
    },
}

/// A predicate evaluated over successive range answers.
#[derive(Debug, Clone)]
pub struct Watch {
    predicate: Predicate,
    query: RangeQuery,
    /// The object set of the last complete answer; `None` before the
    /// first one, whose members are the baseline and fire no `Entered`.
    members: Option<BTreeSet<ObjectId>>,
    /// `CountAtLeast` only: true while the threshold has not fired
    /// since the count was last below it.
    armed: bool,
}

impl Watch {
    /// Watches `predicate`, with membership decided by a range query
    /// of accuracy `req_acc_m` and overlap degree `req_overlap`.
    ///
    /// # Panics
    ///
    /// Panics unless `req_overlap ∈ (0, 1]` and `req_acc_m ≥ 0`, finite
    /// (the [`RangeQuery::new`] contract).
    pub fn new(predicate: Predicate, req_acc_m: f64, req_overlap: f64) -> Self {
        let query = RangeQuery::new(predicate.area().clone(), req_acc_m, req_overlap);
        Watch { predicate, query, members: None, armed: true }
    }

    /// The range query to poll: send it to any entry server and hand
    /// the answer to [`Watch::observe`].
    pub fn query(&self) -> RangeQuery {
        self.query.clone()
    }

    /// The events between the last complete answer and `answer`.
    ///
    /// A partial answer (`complete == false`, a gather time-out) yields
    /// nothing and leaves the stored membership alone, so a slow leaf
    /// never reads as every object leaving. The first complete answer
    /// sets the baseline: its members fire no `Entered`, but a count
    /// already at the threshold fires `CountReached`.
    pub fn observe(&mut self, answer: &RangeAnswer) -> Vec<EventKind> {
        if !answer.complete {
            return Vec::new();
        }
        let now: BTreeSet<ObjectId> = answer.objects.iter().map(|(oid, _)| *oid).collect();
        let wanted = |filter: &Option<ObjectId>, o: &&ObjectId| filter.is_none_or(|f| f == **o);
        let events = match (&self.predicate, &self.members) {
            (Predicate::CountAtLeast { threshold, .. }, _) => {
                let count = now.len() as u32;
                if count < *threshold {
                    self.armed = true;
                    Vec::new()
                } else if std::mem::replace(&mut self.armed, false) {
                    vec![EventKind::CountReached { count }]
                } else {
                    Vec::new()
                }
            }
            (Predicate::Enter { oid, .. }, Some(before)) => now
                .difference(before)
                .filter(|o| wanted(oid, o))
                .map(|&oid| EventKind::Entered { oid })
                .collect(),
            (Predicate::Leave { oid, .. }, Some(before)) => before
                .difference(&now)
                .filter(|o| wanted(oid, o))
                .map(|&oid| EventKind::Left { oid })
                .collect(),
            (_, None) => Vec::new(),
        };
        self.members = Some(now);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LocationDescriptor;
    use hiloc_geo::{Point, Rect};
    use EventKind::{CountReached, Entered, Left};

    fn area() -> Region {
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)))
    }

    fn watch(predicate: Predicate) -> Watch {
        Watch::new(predicate, 25.0, 0.5)
    }

    fn enter(oid: Option<u64>) -> Watch {
        watch(Predicate::Enter { area: area(), oid: oid.map(ObjectId) })
    }

    fn leave(oid: Option<u64>) -> Watch {
        watch(Predicate::Leave { area: area(), oid: oid.map(ObjectId) })
    }

    fn count(threshold: u32) -> Watch {
        watch(Predicate::CountAtLeast { area: area(), threshold })
    }

    fn answer(oids: &[u64], complete: bool) -> RangeAnswer {
        let ld = LocationDescriptor::new(Point::new(5.0, 5.0), 1.0);
        RangeAnswer { objects: oids.iter().map(|&o| (ObjectId(o), ld)).collect(), complete }
    }

    /// `observe` of a complete answer holding `oids`.
    fn see(w: &mut Watch, oids: &[u64]) -> Vec<EventKind> {
        w.observe(&answer(oids, true))
    }

    fn entered(o: u64) -> EventKind {
        Entered { oid: ObjectId(o) }
    }

    fn left(o: u64) -> EventKind {
        Left { oid: ObjectId(o) }
    }

    #[test]
    fn query_carries_the_predicate_area_and_qualification() {
        assert_eq!(count(1).query(), RangeQuery::new(area(), 25.0, 0.5));
    }

    #[test]
    #[should_panic(expected = "reqOverlap")]
    fn invalid_qualification_is_refused_up_front() {
        Watch::new(Predicate::Enter { area: area(), oid: None }, 25.0, 0.0);
    }

    #[test]
    fn enter_and_leave_diff_successive_answers() {
        let (mut e, mut l) = (enter(None), leave(None));
        // The first answer is the baseline: nothing fires.
        assert_eq!((see(&mut e, &[1]), see(&mut l, &[1])), (vec![], vec![]));
        let diff = (see(&mut e, &[2, 3]), see(&mut l, &[2, 3]));
        assert_eq!(diff, (vec![entered(2), entered(3)], vec![left(1)]));
        // The same answer again: nothing changed.
        assert_eq!((see(&mut e, &[2, 3]), see(&mut l, &[2, 3])), (vec![], vec![]));
    }

    #[test]
    fn incomplete_answer_fires_nothing_and_keeps_membership() {
        let (mut e, mut l) = (enter(None), leave(None));
        see(&mut e, &[1, 2]);
        see(&mut l, &[1, 2]);
        // Gather time-outs that lost a leaf's sub-result.
        assert!(l.observe(&answer(&[], false)).is_empty());
        assert!(e.observe(&answer(&[1, 2, 3], false)).is_empty());
        // Diffs resume against the last complete answer.
        assert_eq!(see(&mut l, &[2]), vec![left(1)]);
        assert_eq!(see(&mut e, &[1, 2, 3]), vec![entered(3)]);
        // An incomplete answer before any complete one sets no baseline.
        let mut fresh = enter(None);
        fresh.observe(&answer(&[], false));
        assert!(see(&mut fresh, &[4]).is_empty(), "still the baseline");
    }

    #[test]
    fn count_fires_at_the_threshold_and_rearms_below_it() {
        let mut w = count(3);
        assert!(see(&mut w, &[1, 2]).is_empty());
        assert_eq!(see(&mut w, &[1, 2, 3]), vec![CountReached { count: 3 }]);
        // Stays quiet while at or above the threshold.
        assert!(see(&mut w, &[1, 2, 3, 4]).is_empty());
        // A partial answer below the threshold does not re-arm.
        assert!(w.observe(&answer(&[1], false)).is_empty());
        assert!(see(&mut w, &[1, 2, 3]).is_empty());
        // Dropping below re-arms; reaching it again fires again.
        assert!(see(&mut w, &[1, 2]).is_empty());
        assert_eq!(see(&mut w, &[1, 2, 5, 6]), vec![CountReached { count: 4 }]);
        // A duplicated item counts once.
        assert!(see(&mut count(2), &[7, 7]).is_empty());
    }

    #[test]
    fn count_already_reached_at_the_baseline_fires() {
        assert_eq!(see(&mut count(2), &[1, 2]), vec![CountReached { count: 2 }]);
    }

    #[test]
    fn oid_filter_limits_events_to_one_object() {
        let (mut e, mut l) = (enter(Some(7)), leave(Some(7)));
        see(&mut e, &[]);
        see(&mut l, &[]);
        assert_eq!((see(&mut e, &[6, 7, 8]), see(&mut l, &[6, 7, 8])), (vec![entered(7)], vec![]));
        assert!(see(&mut l, &[7]).is_empty(), "6 and 8 are filtered out");
        assert_eq!(see(&mut l, &[]), vec![left(7)]);
    }
}
