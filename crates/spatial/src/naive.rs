//! Linear-scan index: the conformance oracle.

use crate::{candidate_cmp, Entry, ObjectKey, SpatialIndex};
use hiloc_geo::{Point, Rect};
use std::collections::BTreeMap;

/// A trivially correct index that scans every entry on every query.
///
/// Used as the oracle in the conformance tests and as the degenerate
/// baseline in the index ablation benchmark. Do not use it for large
/// object populations — every operation except point lookup is O(n).
#[derive(Debug, Clone, Default)]
pub struct NaiveIndex {
    entries: BTreeMap<ObjectKey, Point>,
}

impl NaiveIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpatialIndex for NaiveIndex {
    fn insert(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        self.entries.insert(key, pos)
    }

    fn remove(&mut self, key: ObjectKey) -> Option<Point> {
        self.entries.remove(&key)
    }

    fn get(&self, key: ObjectKey) -> Option<Point> {
        self.entries.get(&key).copied()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        for (&key, &pos) in &self.entries {
            if rect.contains(pos) {
                sink(Entry::new(key, pos));
            }
        }
    }

    fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Option<(Entry, f64)> {
        let mut best: Option<(Entry, f64)> = None;
        for (&key, &pos) in &self.entries {
            if !filter(key) {
                continue;
            }
            let cand = (Entry::new(key, pos), p.distance(pos));
            match &best {
                Some(b) if candidate_cmp(&cand, b).is_ge() => {}
                _ => best = Some(cand),
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_move_remove() {
        let mut idx = NaiveIndex::new();
        assert_eq!(idx.insert(1, Point::new(1.0, 1.0)), None);
        assert_eq!(idx.insert(1, Point::new(2.0, 2.0)), Some(Point::new(1.0, 1.0)));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(1), Some(Point::new(2.0, 2.0)));
        assert_eq!(idx.remove(1), Some(Point::new(2.0, 2.0)));
        assert!(idx.is_empty());
        assert_eq!(idx.remove(1), None);
    }

    #[test]
    fn nearest_breaks_ties_by_key() {
        let mut idx = NaiveIndex::new();
        idx.insert(5, Point::new(1.0, 0.0));
        idx.insert(3, Point::new(-1.0, 0.0));
        let (e, d) = idx.nearest(Point::ORIGIN).unwrap();
        assert_eq!(e.key, 3);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn nearest_with_filter_skips() {
        let mut idx = NaiveIndex::new();
        idx.insert(1, Point::new(1.0, 0.0));
        idx.insert(2, Point::new(5.0, 0.0));
        let (e, _) = idx.nearest_where(Point::ORIGIN, &mut |k| k != 1).unwrap();
        assert_eq!(e.key, 2);
    }
}
