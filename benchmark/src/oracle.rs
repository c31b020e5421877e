//! The brute-force oracle of `query_mix`: with static positions, a scan
//! over every resident object under `hiloc_core::model::semantics`
//! gives the one legal answer to each range and nearest-neighbor query.
//!
//! Expected answers are computed before the timed window and kept as a
//! hash per operation, so checking inside the window costs a sort of
//! the returned ids.

use crate::catalog::{DES_ACC_M, NEAR_QUAL_M, REQ_ACC_M};
use crate::stream::{Fnv, Op, Stream};
use crate::sut::{
    semantics, LocationDescriptor, NeighborAnswer, ObjectId, Point, RangeAnswer, RangeQuery,
};

/// The ids (`index + 1`) of the residents at `homes` that qualify for
/// `q`, ascending. Every resident is offered `DES_ACC_M`.
pub fn range_expected(homes: &[Point], q: &RangeQuery) -> Vec<u64> {
    // An object farther than its accuracy from the area overlaps it by
    // nothing; the exact predicate runs only on the rest.
    let near = q.area.bounding_rect().enlarged(DES_ACC_M);
    homes
        .iter()
        .enumerate()
        .filter(|(_, p)| near.contains(**p))
        .filter(|(_, p)| {
            let ld = LocationDescriptor {
                pos: **p,
                acc_m: DES_ACC_M,
            };
            semantics::qualifies_for_range(&q.area, &ld, q.req_acc_m, q.req_overlap)
        })
        .map(|(i, _)| i as u64 + 1)
        .collect()
}

/// The nearest resident to `p` (ties to the smaller id) and the ids of
/// the others within `NEAR_QUAL_M` of its distance, ascending.
pub fn nn_expected(homes: &[Point], p: Point) -> (Option<u64>, Vec<u64>) {
    let mut best: Option<(f64, u64)> = None;
    for (i, h) in homes.iter().enumerate() {
        let d = h.distance(p);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, i as u64 + 1));
        }
    }
    let Some((best_d, best_id)) = best else {
        return (None, Vec::new());
    };
    let near = homes
        .iter()
        .enumerate()
        .filter(|(i, h)| *i as u64 + 1 != best_id && h.distance(p) <= best_d + NEAR_QUAL_M)
        .map(|(i, _)| i as u64 + 1)
        .collect();
    (Some(best_id), near)
}

fn hash_ids(lead: u64, ids: &mut [u64]) -> u64 {
    ids.sort_unstable();
    let mut h = Fnv::default();
    h.u64(lead);
    for id in ids.iter() {
        h.u64(*id);
    }
    h.0
}

/// The hash a correct range answer has.
pub fn range_hash(ids: &mut [u64]) -> u64 {
    hash_ids(u64::MAX, ids)
}

/// The hash a correct nearest-neighbor answer has.
pub fn nn_hash(nearest: Option<u64>, near: &mut [u64]) -> u64 {
    hash_ids(nearest.unwrap_or(0), near)
}

fn ids_of(items: &[(ObjectId, LocationDescriptor)]) -> Vec<u64> {
    items.iter().map(|(oid, _)| oid.0).collect()
}

/// Hash of a range answer as returned by the service.
pub fn range_answer_hash(a: &RangeAnswer) -> u64 {
    range_hash(&mut ids_of(&a.objects))
}

/// Hash of a nearest-neighbor answer as returned by the service.
pub fn nn_answer_hash(a: &NeighborAnswer) -> u64 {
    nn_hash(a.nearest.map(|(oid, _)| oid.0), &mut ids_of(&a.near_set))
}

/// The expected-answer hash of the first `n` operations of a
/// `query_mix` stream (0 for position queries, which are checked against
/// the generator's own state).
pub fn expected_hashes(homes: &[Point], stream: &Stream, n: usize) -> Vec<u64> {
    stream
        .ops
        .iter()
        .take(n)
        .map(|op| match *op {
            Op::Range { q, .. } => {
                range_hash(&mut range_expected(homes, &stream.ranges[q as usize]))
            }
            Op::Nn { q, .. } => {
                let (nearest, mut near) = nn_expected(homes, stream.nn_points[q as usize]);
                nn_hash(nearest, &mut near)
            }
            _ => 0,
        })
        .collect()
}

/// True when every returned descriptor carries the offered accuracy and
/// the queried accuracy admits it — the part of an answer the id hash
/// does not cover.
pub fn accuracies_ok(items: &[(ObjectId, LocationDescriptor)]) -> bool {
    items
        .iter()
        .all(|(_, ld)| ld.acc_m == DES_ACC_M && ld.acc_m <= REQ_ACC_M)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::REQ_OVERLAP;
    use crate::sut::{Rect, Region};

    fn query(x0: f64, y0: f64, x1: f64, y1: f64) -> RangeQuery {
        let area = Region::Rect(Rect::new(Point::new(x0, y0), Point::new(x1, y1)));
        RangeQuery::new(area, REQ_ACC_M, REQ_OVERLAP)
    }

    #[test]
    fn range_follows_the_overlap_rule_at_the_border() {
        let homes = vec![
            Point::new(50.0, 50.0),   // 1: inside
            Point::new(100.5, 50.0),  // 2: centre just outside, overlap just under 1/2
            Point::new(99.5, 50.0),   // 3: centre just inside, overlap just over 1/2
            Point::new(150.0, 50.0),  // 4: far outside
            Point::new(100.0, 100.0), // 5: on the corner, overlap 1/4
        ];
        assert_eq!(
            range_expected(&homes, &query(0.0, 0.0, 100.0, 100.0)),
            vec![1, 3]
        );
        // The scan agrees with the library predicate on every object.
        let q = query(0.0, 0.0, 100.0, 100.0);
        for (i, p) in homes.iter().enumerate() {
            let ld = LocationDescriptor {
                pos: *p,
                acc_m: DES_ACC_M,
            };
            let want = semantics::qualifies_for_range(&q.area, &ld, q.req_acc_m, q.req_overlap);
            assert_eq!(range_expected(&homes, &q).contains(&(i as u64 + 1)), want);
        }
    }

    #[test]
    fn nearest_and_near_set_match_select_neighbors() {
        let homes = vec![
            Point::new(10.0, 0.0),
            Point::new(0.0, 25.0),
            Point::new(0.0, 31.0),
            Point::new(200.0, 0.0),
            Point::new(0.0, -10.0), // same distance as object 1: id 1 wins
        ];
        let (nearest, near) = nn_expected(&homes, Point::new(0.0, 0.0));
        assert_eq!(nearest, Some(1));
        assert_eq!(near, vec![2, 5]); // 25 <= 10 + 20, 31 > 30
        let cands: Vec<(ObjectId, LocationDescriptor)> = homes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    ObjectId(i as u64 + 1),
                    LocationDescriptor {
                        pos: *p,
                        acc_m: DES_ACC_M,
                    },
                )
            })
            .collect();
        let (best, set) =
            semantics::select_neighbors(Point::new(0.0, 0.0), &cands, REQ_ACC_M, NEAR_QUAL_M);
        let answer = NeighborAnswer {
            nearest: best,
            near_set: set,
            complete: true,
        };
        assert_eq!(nn_answer_hash(&answer), nn_hash(nearest, &mut near.clone()));
        assert_eq!(nn_expected(&[], Point::new(0.0, 0.0)), (None, vec![]));
    }

    #[test]
    fn hashes_ignore_order_and_tell_answers_apart() {
        assert_eq!(range_hash(&mut [3, 1, 2]), range_hash(&mut [1, 2, 3]));
        assert_ne!(range_hash(&mut [1, 2]), range_hash(&mut [1, 2, 3]));
        assert_ne!(nn_hash(Some(1), &mut [2]), nn_hash(Some(2), &mut [1]));
        assert_ne!(range_hash(&mut []), nn_hash(None, &mut []));
    }
}
