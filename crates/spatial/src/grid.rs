//! Uniform grid index — a simple baseline.

use crate::{candidate_cmp, Entry, ObjectKey, SpatialIndex};
use hiloc_geo::{Point, Rect};
// lint:allow(determinism) import for the lookup-only maps annotated below
use std::collections::HashMap;

/// A uniform grid over the plane with fixed-size square cells.
///
/// Cells are addressed by integer coordinates `floor(p / cell_size)`, so
/// the domain is unbounded. Serves as the simplest non-trivial baseline
/// in the spatial-index ablation: O(1) updates, but query cost grows
/// with the number of touched cells.
///
/// # Example
///
/// ```
/// use hiloc_geo::{Point, Rect};
/// use hiloc_spatial::{GridIndex, SpatialIndex};
///
/// let mut g = GridIndex::new(50.0); // 50 m cells
/// g.insert(1, Point::new(10.0, 10.0));
/// g.insert(2, Point::new(500.0, 500.0));
/// let mut hits = Vec::new();
/// g.query_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
///              &mut |e| hits.push(e.key));
/// assert_eq!(hits, vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    // lint:allow(determinism) addressed by computed cell coords; ranged scans and max-reductions only, order never observable
    cells: HashMap<(i64, i64), Vec<Entry>>,
    // lint:allow(determinism) O(1) lookups for update, get and len; never iterated
    by_key: HashMap<ObjectKey, Point>,
}

impl GridIndex {
    /// Creates a grid with the given cell size in meters.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite"
        );
        // lint:allow(determinism) constructors for the annotated lookup-only maps
        GridIndex { cell_size, cells: HashMap::new(), by_key: HashMap::new() }
    }

    /// The configured cell size in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    fn remove_from_cell(&mut self, key: ObjectKey, pos: Point) {
        let cell = self.cell_of(pos);
        if let Some(v) = self.cells.get_mut(&cell) {
            v.retain(|e| e.key != key);
            if v.is_empty() {
                self.cells.remove(&cell);
            }
        }
    }
}

impl SpatialIndex for GridIndex {
    fn insert(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        let old = self.by_key.insert(key, pos);
        if let Some(old_pos) = old {
            self.remove_from_cell(key, old_pos);
        }
        self.cells.entry(self.cell_of(pos)).or_default().push(Entry::new(key, pos));
        old
    }

    // lint:hot_path
    fn update(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        let Some(old_pos) = self.by_key.insert(key, pos) else {
            // New key: one cell push, by_key already written.
            self.cells.entry(self.cell_of(pos)).or_default().push(Entry::new(key, pos));
            return None;
        };
        let old_cell = self.cell_of(old_pos);
        let new_cell = self.cell_of(pos);
        if old_cell == new_cell {
            // In-cell move: rewrite the entry where it sits.
            let entries = self.cells.get_mut(&old_cell).expect("occupied cell exists");
            let e = entries.iter_mut().find(|e| e.key == key).expect("entry in its cell");
            e.pos = pos;
        } else {
            self.remove_from_cell(key, old_pos);
            self.cells.entry(new_cell).or_default().push(Entry::new(key, pos));
        }
        Some(old_pos)
    }

    fn remove(&mut self, key: ObjectKey) -> Option<Point> {
        let pos = self.by_key.remove(&key)?;
        self.remove_from_cell(key, pos);
        Some(pos)
    }

    fn get(&self, key: ObjectKey) -> Option<Point> {
        self.by_key.get(&key).copied()
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }

    fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        let (cx0, cy0) = self.cell_of(rect.min());
        let (cx1, cy1) = self.cell_of(rect.max());
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(entries) = self.cells.get(&(cx, cy)) {
                    for e in entries {
                        if rect.contains(e.pos) {
                            sink(*e);
                        }
                    }
                }
            }
        }
    }

    fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Option<(Entry, f64)> {
        // Expanding ring search over cell shells around p's cell. A hit
        // in shell `r` is only final once the shell's minimum possible
        // distance exceeds the best found so far.
        if self.by_key.is_empty() {
            return None;
        }
        let (cx, cy) = self.cell_of(p);
        let mut best: Option<(Entry, f64)> = None;
        let mut radius: i64 = 0;
        loop {
            let ring_min_dist = if radius == 0 {
                0.0
            } else {
                (radius - 1) as f64 * self.cell_size
            };
            if let Some((_, d)) = &best {
                if ring_min_dist > *d {
                    break;
                }
            }
            let mut visited_any = false;
            for (dx, dy) in ring_cells(radius) {
                let cell = (cx + dx, cy + dy);
                if let Some(entries) = self.cells.get(&cell) {
                    visited_any = true;
                    for e in entries {
                        if !filter(e.key) {
                            continue;
                        }
                        let cand = (*e, p.distance(e.pos));
                        match &best {
                            Some(b) if candidate_cmp(&cand, b).is_ge() => {}
                            _ => best = Some(cand),
                        }
                    }
                }
            }
            let _ = visited_any;
            radius += 1;
            // Safety stop: beyond the whole population extent.
            if radius > 2 + (self.by_key.len() as i64) + worst_radius(&self.cells, (cx, cy)) {
                break;
            }
        }
        best
    }
}

/// The cells at Chebyshev distance exactly `radius` from the origin cell.
fn ring_cells(radius: i64) -> Vec<(i64, i64)> {
    if radius == 0 {
        return vec![(0, 0)];
    }
    let mut out = Vec::with_capacity((8 * radius) as usize);
    for d in -radius..=radius {
        out.push((d, -radius));
        out.push((d, radius));
    }
    for d in (-radius + 1)..radius {
        out.push((-radius, d));
        out.push((radius, d));
    }
    out
}

/// Chebyshev distance from `origin` to the farthest occupied cell.
// lint:allow(determinism) max over keys is order-independent
fn worst_radius(cells: &HashMap<(i64, i64), Vec<Entry>>, origin: (i64, i64)) -> i64 {
    cells
        .keys()
        .map(|(cx, cy)| (cx - origin.0).abs().max((cy - origin.1).abs()))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_across_cells() {
        let mut g = GridIndex::new(10.0);
        g.insert(1, Point::new(5.0, 5.0));
        g.insert(2, Point::new(15.0, 5.0));
        g.insert(3, Point::new(-5.0, -5.0));
        let mut hits = Vec::new();
        g.query_rect(&Rect::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0)), &mut |e| {
            hits.push(e.key)
        });
        hits.sort();
        assert_eq!(hits, vec![1, 3]);
    }

    #[test]
    fn move_between_cells() {
        let mut g = GridIndex::new(10.0);
        g.insert(1, Point::new(5.0, 5.0));
        g.insert(1, Point::new(95.0, 95.0));
        assert_eq!(g.len(), 1);
        let mut hits = 0;
        g.query_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), &mut |_| {
            hits += 1
        });
        assert_eq!(hits, 0);
        assert_eq!(g.get(1), Some(Point::new(95.0, 95.0)));
    }

    #[test]
    fn nearest_across_ring_boundary() {
        let mut g = GridIndex::new(10.0);
        // Closest by euclidean distance is in a farther ring than a
        // same-cell candidate would be.
        g.insert(1, Point::new(9.9, 0.0)); // same cell as query, dist 9.4
        g.insert(2, Point::new(-0.5, 0.0)); // neighboring cell, dist 1.0
        let (e, d) = g.nearest(Point::new(0.5, 0.0)).unwrap();
        assert_eq!(e.key, 2);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_far_away_object() {
        let mut g = GridIndex::new(1.0);
        g.insert(1, Point::new(1_000.0, 1_000.0));
        let (e, _) = g.nearest(Point::ORIGIN).unwrap();
        assert_eq!(e.key, 1);
    }

    #[test]
    fn empty_grid() {
        let g = GridIndex::new(10.0);
        assert!(g.nearest(Point::ORIGIN).is_none());
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn ring_cells_counts() {
        assert_eq!(ring_cells(0).len(), 1);
        assert_eq!(ring_cells(1).len(), 8);
        assert_eq!(ring_cells(2).len(), 16);
        // No duplicates.
        let r3 = ring_cells(3);
        let set: std::collections::HashSet<_> = r3.iter().collect();
        assert_eq!(set.len(), r3.len());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::new(0.0);
    }

    #[test]
    fn update_moves_within_and_across_cells() {
        let mut g = GridIndex::new(10.0);
        assert_eq!(g.update(1, Point::new(2.0, 2.0)), None);
        // In-cell move: same cell, position rewritten in place.
        assert_eq!(g.update(1, Point::new(8.0, 3.0)), Some(Point::new(2.0, 2.0)));
        let mut hits = Vec::new();
        g.query_rect(&Rect::new(Point::new(7.0, 0.0), Point::new(10.0, 10.0)), &mut |e| {
            hits.push((e.key, e.pos))
        });
        assert_eq!(hits, vec![(1, Point::new(8.0, 3.0))]);
        // Cross-cell move behaves like insert.
        assert_eq!(g.update(1, Point::new(55.0, 55.0)), Some(Point::new(8.0, 3.0)));
        assert_eq!(g.get(1), Some(Point::new(55.0, 55.0)));
        let mut old = 0;
        g.query_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), &mut |_| old += 1);
        assert_eq!(old, 0, "old cell must be vacated");
        assert_eq!(g.len(), 1);
    }
}
