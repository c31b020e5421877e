//! Exact query semantics from paper §3.2.

use super::{LocationDescriptor, ObjectId};
use hiloc_geo::{Point, Rect, Region};

/// The overlap degree `Overlap(a, o) = SIZE(a ∩ ld(o)) / SIZE(ld(o))`.
///
/// The paper assumes the object's true position is uniformly distributed
/// over its circular location area, so the overlap degree is the
/// probability the object really is inside `area`. For a degenerate
/// location area (`acc = 0`) the overlap is 1 when the recorded point is
/// inside the area and 0 otherwise.
///
/// # Example
///
/// ```
/// use hiloc_core::model::semantics::overlap;
/// use hiloc_core::model::LocationDescriptor;
/// use hiloc_geo::{Point, Rect, Region};
///
/// let area = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
/// // Location area centered on the boundary: overlap 0.5.
/// let ld = LocationDescriptor::new(Point::new(0.0, 50.0), 10.0);
/// assert!((overlap(&area, &ld) - 0.5).abs() < 1e-6);
/// ```
pub fn overlap(area: &Region, ld: &LocationDescriptor) -> f64 {
    if ld.acc_m <= 0.0 {
        return if area.contains(ld.pos) { 1.0 } else { 0.0 };
    }
    let circle = ld.location_area();
    let inter = area.intersection_area_with_circle(&circle);
    (inter / circle.area()).clamp(0.0, 1.0)
}

/// Whether `(o, ld)` qualifies for a range query over `area` with the
/// requested accuracy and overlap thresholds:
///
/// `Overlap(a, o) ≥ reqOverlap > 0  ∧  ld(o).acc ≤ reqAcc`.
pub fn qualifies_for_range(
    area: &Region,
    ld: &LocationDescriptor,
    req_acc_m: f64,
    req_overlap: f64,
) -> bool {
    if ld.acc_m > req_acc_m {
        return false;
    }
    if req_overlap <= 0.0 {
        // The paper restricts reqOverlap to (0, 1].
        return false;
    }
    overlap(area, ld) >= req_overlap
}

/// How far outside a rectangular query area [`center_bound`] still
/// admits a recorded center, in meters: room for the rounding of the
/// overlap computation on a center that lies on the border.
const CENTER_SLACK_M: f64 = 1e-6;

/// The rectangle every qualifying object's recorded center lies in, for
/// a range query over `area` with `req_overlap`, when one is known.
///
/// For a rectangular area and `req_overlap ≥ ½` it is the area itself,
/// enlarged by [`CENTER_SLACK_M`]. This is exact, by a half-plane
/// argument: a center outside the rectangle lies outside the half-plane
/// of one of its sides, and that half-plane holds the rectangle but
/// less than half of any disc centered outside it. So the overlap is
/// below ½, and the object cannot qualify. A zero-accuracy object
/// outside the area has overlap 0. A polygon area, or a lower
/// `req_overlap`, yields `None`: the caller falls back to the
/// `Enlarge(area, reqAcc)` candidate rectangle.
pub fn center_bound(area: &Region, req_overlap: f64) -> Option<Rect> {
    match area {
        Region::Rect(r) if req_overlap >= 0.5 => Some(r.enlarged(CENTER_SLACK_M)),
        _ => None,
    }
}

/// The result of [`select_neighbors`]: the chosen nearest object (when
/// any qualifies) and the near set.
pub type NeighborSelection =
    (Option<(ObjectId, LocationDescriptor)>, Vec<(ObjectId, LocationDescriptor)>);

/// Selects the nearest neighbor and the near set from candidate
/// descriptors (paper §3.2, nearest neighbor query):
///
/// * `nearest`: the accuracy-qualified object minimizing
///   `DISTANCE(ld.pos, p)` (ties broken by object id);
/// * `near_set`: all other qualified objects within
///   `DISTANCE(nearest, p) + nearQual`.
///
/// Candidates whose accuracy exceeds `req_acc_m` are ignored.
pub fn select_neighbors(
    p: Point,
    candidates: &[(ObjectId, LocationDescriptor)],
    req_acc_m: f64,
    near_qual_m: f64,
) -> NeighborSelection {
    let mut qualified: Vec<(ObjectId, LocationDescriptor, f64)> = candidates
        .iter()
        .filter(|(_, ld)| ld.acc_m <= req_acc_m)
        .map(|(oid, ld)| (*oid, *ld, ld.distance_to(p)))
        .collect();
    qualified.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let Some(&(best_oid, best_ld, best_d)) = qualified.first() else {
        return (None, Vec::new());
    };
    let near = qualified
        .iter()
        .skip(1)
        .take_while(|(_, _, d)| *d <= best_d + near_qual_m)
        .map(|(oid, ld, _)| (*oid, *ld))
        .collect();
    (Some((best_oid, best_ld)), near)
}

/// The guaranteed minimal distance from `p` to the selected nearest
/// object's *true* position: `DISTANCE(ld.pos, p) − ld.acc`, floored at
/// zero.
///
/// The paper offers this bound so a client can, e.g., "decide on the
/// maximum power it can use for wireless transmission without causing
/// interference".
pub fn guaranteed_min_distance(p: Point, nearest: &LocationDescriptor) -> f64 {
    (nearest.distance_to(p) - nearest.acc_m).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_geo::Rect;

    fn rect_region(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from(Rect::new(Point::new(x0, y0), Point::new(x1, y1)))
    }

    #[test]
    fn overlap_full_inside() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        let ld = LocationDescriptor::new(Point::new(50.0, 50.0), 10.0);
        assert!((overlap(&area, &ld) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_disjoint_is_zero() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        let ld = LocationDescriptor::new(Point::new(500.0, 500.0), 10.0);
        assert_eq!(overlap(&area, &ld), 0.0);
    }

    #[test]
    fn overlap_degenerate_accuracy() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        let inside = LocationDescriptor::new(Point::new(1.0, 1.0), 0.0);
        let outside = LocationDescriptor::new(Point::new(-1.0, 1.0), 0.0);
        assert_eq!(overlap(&area, &inside), 1.0);
        assert_eq!(overlap(&area, &outside), 0.0);
    }

    #[test]
    fn range_qualification_thresholds() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        // Half-overlapping object.
        let ld = LocationDescriptor::new(Point::new(0.0, 50.0), 10.0);
        assert!(qualifies_for_range(&area, &ld, 25.0, 0.3));
        assert!(qualifies_for_range(&area, &ld, 25.0, 0.5 - 1e-9));
        assert!(!qualifies_for_range(&area, &ld, 25.0, 0.6));
        // Accuracy filter.
        assert!(!qualifies_for_range(&area, &ld, 5.0, 0.3));
        // reqOverlap must be positive.
        assert!(!qualifies_for_range(&area, &ld, 25.0, 0.0));
    }

    /// Regression: a circle wholly inside a rectangular area summed its
    /// four edge terms to 0.99999999999999978 of its own area, so
    /// `reqOverlap = 1` rejected objects that lie fully inside.
    #[test]
    fn overlap_is_exactly_one_for_a_contained_circle() {
        use hiloc_util::rng::{RngExt, SeedableRng, StdRng};
        let area = rect_region(0.0, 0.0, 2_000.0, 2_000.0);
        let mut g = StdRng::seed_from_u64(0x0E1);
        for _ in 0..2_000 {
            let acc = g.random_range(0.5..25.0);
            let pos = Point::new(g.random_range(acc..2_000.0 - acc), g.random_range(acc..2_000.0 - acc));
            let ld = LocationDescriptor::new(pos, acc);
            assert_eq!(overlap(&area, &ld), 1.0, "{pos} acc {acc}");
            assert!(qualifies_for_range(&area, &ld, 25.0, 1.0), "{pos} acc {acc}");
        }
    }

    /// The center bound never rejects an object that qualifies: centers
    /// on a border, within 1e-9 m of it and up to 2·acc away on either
    /// side, with `acc ∈ (0, reqAcc]` and `reqOverlap ∈ [½, 1]`, both
    /// endpoints of each range drawn on purpose.
    #[test]
    fn center_bound_rejects_only_non_qualifying_objects() {
        use hiloc_util::prop::check;
        use hiloc_util::rng::RngExt;
        let (x0, y0, x1, y1) = (1_000.0, 3_000.0, 1_250.0, 3_100.0);
        let area = rect_region(x0, y0, x1, y1);
        check(512, |g| {
            let req_acc = *g.pick(&[25.0, 50.0, 1_000.0]);
            let acc = if g.chance(0.2) { req_acc } else { g.random_range(1e-9..req_acc) };
            let between = g.random_range(0.5..1.0);
            let req_overlap = *g.pick(&[0.5, 1.0, between]);
            let anywhere = g.random_range(-2.0 * acc..2.0 * acc);
            let off = *g.pick(&[0.0, 1e-9, -1e-9, anywhere]);
            // Offset from one side (positive = outward), anywhere along it.
            let pos = match g.index(4) {
                0 => Point::new(x0 - off, g.random_range(y0 - acc..y1 + acc)),
                1 => Point::new(x1 + off, g.random_range(y0 - acc..y1 + acc)),
                2 => Point::new(g.random_range(x0 - acc..x1 + acc), y0 - off),
                _ => Point::new(g.random_range(x0 - acc..x1 + acc), y1 + off),
            };
            let bound = center_bound(&area, req_overlap).expect("rect area, reqOverlap >= 1/2");
            let ld = LocationDescriptor::new(pos, acc);
            if !bound.contains(pos) {
                assert!(
                    !qualifies_for_range(&area, &ld, req_acc, req_overlap),
                    "bound rejected a qualifying object: {pos} acc {acc} reqOverlap {req_overlap} \
                     overlap {}",
                    overlap(&area, &ld)
                );
            }
        });
        // Below one half, or over a polygon, there is no bound.
        assert!(center_bound(&area, 0.5 - 1e-12).is_none());
        let tri = hiloc_geo::Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        assert!(center_bound(&Region::from(tri), 1.0).is_none());
    }

    #[test]
    fn neighbor_selection_and_near_set() {
        let p = Point::ORIGIN;
        let cands = vec![
            (ObjectId(1), LocationDescriptor::new(Point::new(10.0, 0.0), 5.0)),
            (ObjectId(2), LocationDescriptor::new(Point::new(12.0, 0.0), 5.0)),
            (ObjectId(3), LocationDescriptor::new(Point::new(30.0, 0.0), 5.0)),
            // Too inaccurate — ignored even though nearest.
            (ObjectId(4), LocationDescriptor::new(Point::new(1.0, 0.0), 50.0)),
        ];
        let (best, near) = select_neighbors(p, &cands, 10.0, 5.0);
        assert_eq!(best.unwrap().0, ObjectId(1));
        let near_ids: Vec<ObjectId> = near.iter().map(|(o, _)| *o).collect();
        assert_eq!(near_ids, vec![ObjectId(2)]); // 12 <= 10+5, 30 > 15

        // nearQual = 0 ⇒ empty near set.
        let (_, near0) = select_neighbors(p, &cands, 10.0, 0.0);
        assert!(near0.is_empty());
    }

    #[test]
    fn neighbor_tie_breaks_by_id() {
        let p = Point::ORIGIN;
        let cands = vec![
            (ObjectId(9), LocationDescriptor::new(Point::new(5.0, 0.0), 1.0)),
            (ObjectId(2), LocationDescriptor::new(Point::new(0.0, 5.0), 1.0)),
        ];
        let (best, _) = select_neighbors(p, &cands, 10.0, 0.0);
        assert_eq!(best.unwrap().0, ObjectId(2));
    }

    #[test]
    fn no_qualified_candidates() {
        let (best, near) = select_neighbors(Point::ORIGIN, &[], 10.0, 5.0);
        assert!(best.is_none());
        assert!(near.is_empty());
    }

    #[test]
    fn min_distance_guarantee() {
        let ld = LocationDescriptor::new(Point::new(100.0, 0.0), 30.0);
        assert_eq!(guaranteed_min_distance(Point::ORIGIN, &ld), 70.0);
        // Accuracy larger than the distance: floor at zero.
        let close = LocationDescriptor::new(Point::new(10.0, 0.0), 30.0);
        assert_eq!(guaranteed_min_distance(Point::ORIGIN, &close), 0.0);
    }
}
