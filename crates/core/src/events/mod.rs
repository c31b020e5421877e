//! Event mechanism (paper §1 and §8, future work).
//!
//! "Applications should be able to register for predicates, such as
//! 'more than five objects are in a certain area' …, at the location
//! service, which asynchronously informs the registered applications
//! when the predicate becomes true."
//!
//! hiloc implements this as a coordinator/observer split: the entry
//! server an application registers with becomes the event's
//! *coordinator*; it installs observers at every leaf server whose
//! service area overlaps the predicate's area (the same scatter used by
//! range queries). Leaves track which of their tracked objects are in
//! the area and report membership changes; the coordinator aggregates
//! counts across leaves and fires notifications to the subscriber.
//!
//! Membership is evaluated on the recorded position (`ld.pos`); the
//! overlap-degree machinery of range queries is intentionally *not*
//! applied here, trading probabilistic precision for cheap per-update
//! evaluation (each position update touches only the leaf's installed
//! observers).

mod engine;

pub use engine::{CoordinatorEvents, LeafObservers, ObserverDelta};

use crate::model::ObjectId;
use hiloc_geo::Region;
use hiloc_net::wire_enum;

wire_enum! {
    /// A predicate an application can register for.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Predicate {
        /// Fires when the number of tracked objects inside `area` reaches
        /// `threshold` (re-arms when the count drops below it again).
        CountAtLeast = 0 {
            /// The watched area.
            area: Region,
            /// The count that triggers the notification.
            threshold: u32,
        },
        /// Fires whenever an object enters `area` (optionally only `oid`).
        Enter = 1 {
            /// The watched area.
            area: Region,
            /// When set, only this object triggers notifications.
            oid: Option<ObjectId>,
        },
        /// Fires whenever an object leaves `area` (optionally only `oid`).
        Leave = 2 {
            /// The watched area.
            area: Region,
            /// When set, only this object triggers notifications.
            oid: Option<ObjectId>,
        },
    }
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

wire_enum! {
    /// A fired event delivered to the subscriber.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventKind {
        /// A [`Predicate::CountAtLeast`] threshold was reached.
        CountReached = 0 {
            /// The aggregated object count at firing time.
            count: u32,
        },
        /// An object entered the watched area.
        Entered = 1 {
            /// The entering object.
            oid: ObjectId,
        },
        /// An object left the watched area.
        Left = 2 {
            /// The leaving object.
            oid: ObjectId,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_geo::{Point, Rect};
    use hiloc_net::WireCodec;

    fn area() -> Region {
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)))
    }

    #[test]
    fn predicate_codec_roundtrip() {
        let preds = vec![
            Predicate::CountAtLeast { area: area(), threshold: 5 },
            Predicate::Enter { area: area(), oid: None },
            Predicate::Enter { area: area(), oid: Some(ObjectId(7)) },
            Predicate::Leave { area: area(), oid: Some(ObjectId(1)) },
        ];
        for p in preds {
            let bytes = p.to_bytes();
            assert_eq!(Predicate::from_bytes(&bytes), Some(p));
        }
    }

    #[test]
    fn event_kind_codec_roundtrip() {
        for k in [
            EventKind::CountReached { count: 12 },
            EventKind::Entered { oid: ObjectId(3) },
            EventKind::Left { oid: ObjectId(4) },
        ] {
            let bytes = k.to_bytes();
            assert_eq!(EventKind::from_bytes(&bytes), Some(k));
        }
    }

    #[test]
    fn predicate_area_accessor() {
        let p = Predicate::CountAtLeast { area: area(), threshold: 1 };
        assert_eq!(p.area().area(), 100.0);
    }

    #[test]
    fn hostile_bytes_do_not_panic() {
        for len in 0..32 {
            let junk = vec![0xABu8; len];
            let _ = Predicate::from_bytes(&junk);
            let _ = EventKind::from_bytes(&junk);
        }
    }
}
