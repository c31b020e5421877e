//! Query parameter and answer types.

use super::{valid_acc, LocationDescriptor, ObjectId};
use hiloc_geo::Region;
use hiloc_net::wire_struct;

/// Accuracy-related quality-of-service bounds shared by range and
/// nearest-neighbor queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryQos {
    /// Requested accuracy threshold in meters: objects whose descriptor
    /// accuracy is worse (larger) are not considered.
    pub req_acc_m: f64,
}

impl QueryQos {
    /// Creates QoS bounds.
    ///
    /// # Panics
    ///
    /// Panics if `req_acc_m` is negative or non-finite.
    pub fn new(req_acc_m: f64) -> Self {
        assert!(valid_acc(req_acc_m));
        QueryQos { req_acc_m }
    }
}

wire_struct! {
    /// Parameters of a range query: `rangeQuery(a, reqAcc, reqOverlap)`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RangeQuery {
        /// The queried geographic area `a`.
        pub area: Region,
        /// Accuracy threshold (meters).
        pub req_acc_m: f64,
        /// Required overlap degree in `(0, 1]`.
        pub req_overlap: f64,
    }
    valid if valid_acc(req_acc_m) && valid_overlap(req_overlap)
}

/// Whether `req_overlap` is an overlap degree: in `(0, 1]`.
fn valid_overlap(req_overlap: f64) -> bool {
    req_overlap > 0.0 && req_overlap <= 1.0
}

impl RangeQuery {
    /// Creates a range query.
    ///
    /// # Panics
    ///
    /// Panics unless `req_overlap ∈ (0, 1]` and `req_acc_m ≥ 0`, finite.
    pub fn new(area: Region, req_acc_m: f64, req_overlap: f64) -> Self {
        assert!(valid_acc(req_acc_m));
        assert!(valid_overlap(req_overlap), "reqOverlap must be in (0, 1], got {req_overlap}");
        RangeQuery { area, req_acc_m, req_overlap }
    }
}

/// The answer to a range query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RangeAnswer {
    /// `(object, location descriptor)` pairs qualifying for the query.
    pub objects: Vec<(ObjectId, LocationDescriptor)>,
    /// False when the gather timed out before all sub-results arrived
    /// (the answer is then a valid partial result).
    pub complete: bool,
}

/// The answer to a nearest-neighbor query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NeighborAnswer {
    /// The selected nearest object, when any qualified object exists.
    pub nearest: Option<(ObjectId, LocationDescriptor)>,
    /// Other qualified objects within `nearQual` of the nearest's
    /// distance.
    pub near_set: Vec<(ObjectId, LocationDescriptor)>,
    /// False when the distributed gather timed out.
    pub complete: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_geo::{Point, Rect};

    #[test]
    fn range_query_validation() {
        let area = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let q = RangeQuery::new(area.clone(), 50.0, 0.5);
        assert_eq!(q.req_overlap, 0.5);
        let r = std::panic::catch_unwind(|| RangeQuery::new(area.clone(), 50.0, 0.0));
        assert!(r.is_err(), "zero overlap must be rejected");
        let r = std::panic::catch_unwind(|| RangeQuery::new(area, 50.0, 1.5));
        assert!(r.is_err(), "overlap > 1 must be rejected");
    }

    #[test]
    fn qos_validation() {
        assert_eq!(QueryQos::new(10.0).req_acc_m, 10.0);
        assert!(std::panic::catch_unwind(|| QueryQos::new(-1.0)).is_err());
    }
}
