//! Main-memory spatial indexes for the hiloc location service.
//!
//! The paper's location servers keep all sighting records in a volatile
//! main-memory database with "a spatial index over the position
//! information in the sighting records (e.g., a Quadtree or an R-Tree)"
//! for range and nearest-neighbor queries. This crate provides:
//!
//! * [`PointQuadtree`] — the index every sighting database is built
//!   on. The paper chose Samet's point quadtree; this one keeps the
//!   name but is a bucketed region quadtree, so insertion order cannot
//!   skew its shape.
//! * [`RTree`] — the alternative the paper cites (Guttman), used as an
//!   ablation baseline.
//! * [`GridIndex`] — a uniform-grid baseline.
//! * [`NaiveIndex`] — a linear scan, the correctness oracle for the
//!   conformance test-suite.
//!
//! All indexes implement the object-safe [`SpatialIndex`] trait, through
//! which the conformance suite checks each against the naive oracle and
//! the benchmark compares their costs.
//!
//! # Example
//!
//! ```
//! use hiloc_geo::{Point, Rect};
//! use hiloc_spatial::{PointQuadtree, SpatialIndex};
//!
//! let mut index = PointQuadtree::new();
//! index.insert(1, Point::new(10.0, 10.0));
//! index.insert(2, Point::new(90.0, 90.0));
//!
//! let mut hits = Vec::new();
//! index.query_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)),
//!                  &mut |e| hits.push(e.key));
//! assert_eq!(hits, vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod naive;
mod point_quadtree;
mod rtree;

pub use grid::GridIndex;
pub use naive::NaiveIndex;
pub use point_quadtree::PointQuadtree;
pub use rtree::RTree;

use hiloc_geo::{Point, Rect};

/// Key identifying an indexed object (the location service maps its
/// object identifiers onto these).
pub type ObjectKey = u64;

/// An indexed `(key, position)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// The object key.
    pub key: ObjectKey,
    /// The indexed position in the local planar frame.
    pub pos: Point,
}

impl Entry {
    /// Creates an entry.
    pub fn new(key: ObjectKey, pos: Point) -> Self {
        Entry { key, pos }
    }
}

/// A mutable main-memory index over `(key, position)` pairs.
///
/// The trait is object-safe (query results are delivered through
/// `FnMut` sinks), so one test or benchmark loop can drive every
/// implementation as a `Box<dyn SpatialIndex>`.
///
/// # Contract
///
/// * Keys are unique: [`insert`](SpatialIndex::insert) with an existing
///   key moves the object and returns its previous position.
/// * Query callbacks observe each matching entry exactly once, in
///   unspecified order.
/// * `nearest_where` breaks exact distance ties by the smaller key, so
///   results are deterministic across implementations.
pub trait SpatialIndex: Send {
    /// Inserts `key` at `pos`, returning the previous position when the
    /// key was already present (i.e. the object moved).
    fn insert(&mut self, key: ObjectKey, pos: Point) -> Option<Point>;

    /// Moves `key` to `pos` — the position-update hot path.
    ///
    /// Semantically identical to [`insert`](SpatialIndex::insert), but
    /// implementations are expected to recognize *local* movement (the
    /// common case under a sustained update storm) and avoid the full
    /// remove + re-insert: the grid and the quadtree move an entry
    /// within its cell in place, and the R-tree rewrites the entry when
    /// the containing leaf MBR still covers it.
    fn update(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        self.insert(key, pos)
    }

    /// Removes `key`, returning its position when present.
    fn remove(&mut self, key: ObjectKey) -> Option<Point>;

    /// The current position of `key`, when present.
    fn get(&self, key: ObjectKey) -> Option<Point>;

    /// Number of indexed objects.
    fn len(&self) -> usize;

    /// True when no objects are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Invokes `sink` for every entry inside or on `rect`.
    fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry));

    /// The entry nearest to `p` among those accepted by `filter`,
    /// together with its distance. Ties are broken by the smaller key.
    /// `filter` must depend on the key alone: an implementation may
    /// skip it for entries that cannot beat the best found so far.
    fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Option<(Entry, f64)>;

    /// The entry nearest to `p`.
    fn nearest(&self, p: Point) -> Option<(Entry, f64)> {
        self.nearest_where(p, &mut |_| true)
    }
}

/// Deterministic ordering for (distance, key) candidate pairs: ascending
/// distance, ties by ascending key.
pub(crate) fn candidate_cmp(a: &(Entry, f64), b: &(Entry, f64)) -> std::cmp::Ordering {
    distance_cmp(a.1, b.1).then_with(|| a.0.key.cmp(&b.0.key))
}

/// A total order on distances in which NaN (the distance to a position
/// with a NaN coordinate) ranks as +∞, after every real distance.
pub(crate) fn distance_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    let rank = |d: f64| if d.is_nan() { f64::INFINITY } else { d };
    rank(a).total_cmp(&rank(b))
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn entry_construction() {
        let e = Entry::new(7, Point::new(1.0, 2.0));
        assert_eq!(e.key, 7);
        assert_eq!(e.pos, Point::new(1.0, 2.0));
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn SpatialIndex> = Box::new(NaiveIndex::new());
        boxed.insert(1, Point::ORIGIN);
        assert_eq!(boxed.len(), 1);
    }
}
