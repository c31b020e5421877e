//! The sighting database's spatial index: a bucketed region quadtree.
//!
//! The paper's prototype used Samet's *point* quadtree, in which every
//! entry is a split point, so the order of insertion decides the tree's
//! shape. This index keeps the paper's name but splits *space*: each
//! cell of one fixed root square splits at its midpoint, so the
//! positions alone decide the shape, and a depth cap bounds the height.

use crate::{candidate_cmp, Entry, ObjectKey, SpatialIndex};
use hiloc_geo::{Point, Rect};
// lint:allow(determinism) import for the lookup-only key map annotated below
use std::collections::HashMap;

/// Half the side of the root square in meters: the root covers
/// `[-2²⁵, 2²⁵)` on both axes (±33 554 km), wider than any projected
/// deployment. Every cell corner and midpoint is then a short dyadic
/// number, so each split comparison is exact.
const ROOT_HALF: f64 = (1u64 << 25) as f64;

/// Entries a leaf cell holds before it splits.
const BUCKET: usize = 32;

/// The depth cap: levels of cells, the root included. A cell on the
/// last level never splits and its bucket grows instead, so coincident
/// positions cannot split forever.
const MAX_HEIGHT: usize = 32;

/// The side of a cell on the last level: 2⁻⁵ m, about 3 cm.
const MIN_SIDE: f64 = 2.0 * ROOT_HALF / (1u64 << (MAX_HEIGHT - 1)) as f64;

/// The absent link: a leaf's `first_child` and the root's `parent`.
const NIL: u32 = u32::MAX;

/// The cell holding every position the root cannot (non-finite, or
/// beyond `ROOT_HALF`): a bucket that never splits and that every query
/// scans.
const OVERFLOW: u32 = 0;

/// The root cell.
const ROOT: u32 = 1;

/// One bucket entry.
#[derive(Debug, Clone, Copy)]
struct Item {
    key: ObjectKey,
    pos: Point,
    /// The owner's handle (see [`PointQuadtree::upsert_handle`]).
    handle: u32,
}

/// One arena cell: the half-open square `[min, min + side)` on both
/// axes. A leaf holds its entries in `items`; an inner cell holds none
/// and has four children, consecutive in the arena from `first_child`
/// in the order SW, SE, NW, NE.
#[derive(Debug, Clone)]
struct Cell {
    items: Vec<Item>,
    min: Point,
    side: f64,
    first_child: u32,
    parent: u32,
}

impl Cell {
    fn leaf(min: Point, side: f64, parent: u32) -> Self {
        Cell { items: Vec::new(), min, side, first_child: NIL, parent }
    }

    fn is_leaf(&self) -> bool {
        self.first_child == NIL
    }

    fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x < self.min.x + self.side && p.y >= self.min.y && p.y < self.min.y + self.side
    }

    /// The child quadrant (SW 0, SE 1, NW 2, NE 3) that `p` routes to;
    /// a midpoint coordinate belongs to the east or north side.
    fn quadrant(&self, p: Point) -> u32 {
        let half = self.side / 2.0;
        (p.x >= self.min.x + half) as u32 | ((p.y >= self.min.y + half) as u32) << 1
    }

    fn overlaps(&self, rect: &Rect) -> bool {
        let (lo, hi) = (rect.min(), rect.max());
        hi.x >= self.min.x && lo.x < self.min.x + self.side && hi.y >= self.min.y && lo.y < self.min.y + self.side
    }

    fn min_distance(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.min.x - self.side);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.min.y - self.side);
        (dx * dx + dy * dy).sqrt()
    }
}

/// The pending cells of a tree walk, starting with the root. A walk
/// holds at most three pending siblings per level plus the four
/// children it just pushed, and the height is capped, so a fixed array
/// always suffices.
struct Walk {
    ids: [u32; 3 * MAX_HEIGHT + 1],
    len: usize,
}

impl Walk {
    fn new() -> Self {
        Walk { ids: [ROOT; 3 * MAX_HEIGHT + 1], len: 1 }
    }

    fn push(&mut self, id: u32) {
        self.ids[self.len] = id;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<u32> {
        self.len = self.len.checked_sub(1)?;
        Some(self.ids[self.len])
    }
}

/// Offers `item` to a nearest-neighbour search: it replaces `best` when
/// it ranks before it and `filter` accepts it. The filter (a visitor
/// probe at a leaf) runs only on an entry that would replace the best.
fn offer(
    best: &mut Option<(Entry, f64)>,
    p: Point,
    item: &Item,
    filter: &mut dyn FnMut(ObjectKey) -> bool,
) {
    let cand = (Entry::new(item.key, item.pos), p.distance(item.pos));
    if best.as_ref().is_none_or(|b| candidate_cmp(&cand, b).is_lt()) && filter(item.key) {
        *best = Some(cand);
    }
}

/// A bucketed region quadtree (PR-quadtree): the index every sighting
/// database is built on.
///
/// The paper's prototype used a *point* quadtree (Samet, *The Design
/// and Analysis of Spatial Data Structures*: "For the spatial index we
/// used a Point Quadtree implementation"). There each entry splits the
/// plane at its own position, so insertion order decides the shape:
/// objects registered in order along a street build a chain as deep as
/// their count, and deletion needs tombstones and rebuilds. This index
/// keeps the paper's type name and splits space instead.
///
/// # Shape
///
/// The root is a fixed square of side 2²⁶ m centred on the origin.
/// A leaf cell holds up to 32 entries `(key, position, handle)` in a
/// flat bucket; the 33rd splits it at its midpoint into four children,
/// and four leaf siblings merge back into their parent once their
/// entries fit in one bucket. Cells stop splitting 32 levels down
/// (3 cm cells), where the bucket grows instead, so the height never
/// exceeds 32 whatever the input, and walks use a fixed-size stack.
/// Positions outside the root (non-finite or farther than 2²⁵ m)
/// live in one overflow bucket that every query scans.
///
/// # Updates
///
/// Position updates are the dominant load of a location server (the
/// paper measures 41 494 updates/s). The key map locates each entry's
/// cell and its index within the bucket, so a move that stays inside
/// the cell is one hash probe and one in-place write. A move across
/// cells is a removal plus an insertion from the root, O(height).
///
/// # Example
///
/// ```
/// use hiloc_geo::Point;
/// use hiloc_spatial::{PointQuadtree, SpatialIndex};
///
/// let mut t = PointQuadtree::new();
/// for i in 0..100u64 {
///     t.insert(i, Point::new(i as f64, (i * 7 % 100) as f64));
/// }
/// let (nearest, d) = t.nearest(Point::new(50.0, 50.0)).unwrap();
/// assert!(d >= 0.0);
/// assert!(t.get(nearest.key).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct PointQuadtree {
    /// The overflow bucket, the root, then groups of four children.
    cells: Vec<Cell>,
    /// First cells of freed four-child groups, reused by splits.
    free: Vec<u32>,
    /// Key → (cell, index in its bucket), for O(1) lookup, in-place
    /// moves and removal. An owner that keeps a side table per entry
    /// reaches it through the entry's handle (see
    /// [`PointQuadtree::upsert_handle`]), so this is the owner's only
    /// key map too.
    // lint:allow(determinism) lookups only; query walks read the cell arena, never this map
    by_key: HashMap<ObjectKey, (u32, u32)>,
}

impl Default for PointQuadtree {
    fn default() -> Self {
        let root = Cell::leaf(Point::new(-ROOT_HALF, -ROOT_HALF), 2.0 * ROOT_HALF, NIL);
        let overflow = Cell::leaf(Point::ORIGIN, 0.0, NIL);
        PointQuadtree { cells: vec![overflow, root], free: Vec::new(), by_key: Default::default() }
    }
}

impl PointQuadtree {
    /// Creates an empty quadtree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Levels of cells from the root to the deepest leaf (0 when
    /// empty); never more than the depth cap of 32. Diagnostic only.
    pub fn height(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut height = 0;
        let mut pending = vec![(ROOT, 1)];
        while let Some((id, depth)) = pending.pop() {
            height = height.max(depth);
            let first = self.cells[id as usize].first_child;
            if first != NIL {
                pending.extend((first..first + 4).map(|c| (c, depth + 1)));
            }
        }
        height
    }

    /// Moves `key` to `pos` like [`SpatialIndex::update`], inserting it
    /// with `handle` when absent, and returns the entry's handle and
    /// previous position (`None` when it was inserted).
    ///
    /// The handle is an owner's index into a side table (the sighting
    /// database's slab slot). It travels with the entry through every
    /// split and merge, so the tree's key map serves the owner too and
    /// a position update costs one hash probe. Plain [`SpatialIndex`]
    /// calls store handle 0.
    // lint:hot_path
    pub fn upsert_handle(&mut self, key: ObjectKey, pos: Point, handle: u32) -> Option<(u32, Point)> {
        let Some(&(cell, idx)) = self.by_key.get(&key) else {
            self.place(Item { key, pos, handle });
            return None;
        };
        let holds = if cell == OVERFLOW {
            !self.cells[ROOT as usize].contains(pos)
        } else {
            self.cells[cell as usize].contains(pos)
        };
        let item = &mut self.cells[cell as usize].items[idx as usize];
        let found = (item.handle, item.pos);
        if holds {
            item.pos = pos;
        } else {
            self.take(cell, idx);
            self.place(Item { key, pos, handle: found.0 });
        }
        Some(found)
    }

    /// The handle and position of `key`, when present (see
    /// [`PointQuadtree::upsert_handle`]).
    // lint:hot_path
    pub fn get_handle(&self, key: ObjectKey) -> Option<(u32, Point)> {
        self.by_key.get(&key).map(|&(cell, idx)| {
            let item = &self.cells[cell as usize].items[idx as usize];
            (item.handle, item.pos)
        })
    }

    /// Removes `key`, returning its handle and position when present
    /// (see [`PointQuadtree::upsert_handle`]).
    pub fn remove_handle(&mut self, key: ObjectKey) -> Option<(u32, Point)> {
        let (cell, idx) = self.by_key.remove(&key)?;
        let item = self.take(cell, idx);
        Some((item.handle, item.pos))
    }

    /// Files `item` in the leaf its position routes to (or in the
    /// overflow bucket), splitting full leaves on the way down, and
    /// points the key map at it.
    fn place(&mut self, item: Item) {
        let mut id = if self.cells[ROOT as usize].contains(item.pos) { ROOT } else { OVERFLOW };
        while id != OVERFLOW {
            let cell = &self.cells[id as usize];
            if !cell.is_leaf() {
                id = cell.first_child + cell.quadrant(item.pos);
            } else if cell.items.len() < BUCKET || cell.side == MIN_SIDE {
                break;
            } else {
                self.split(id);
            }
        }
        let items = &mut self.cells[id as usize].items;
        self.by_key.insert(item.key, (id, items.len() as u32));
        items.push(item);
    }

    /// Turns the full leaf `id` into an inner cell over four new leaves
    /// and moves its entries down one level.
    fn split(&mut self, id: u32) {
        let first = self.free.pop().unwrap_or_else(|| {
            let first = self.cells.len() as u32;
            self.cells.resize(self.cells.len() + 4, Cell::leaf(Point::ORIGIN, 0.0, NIL));
            first
        });
        let parent = &mut self.cells[id as usize];
        let (min, half) = (parent.min, parent.side / 2.0);
        parent.first_child = first;
        let items = std::mem::take(&mut parent.items);
        for q in 0..4 {
            let corner = Point::new(min.x + half * (q & 1) as f64, min.y + half * (q >> 1) as f64);
            self.cells[(first + q) as usize] = Cell::leaf(corner, half, id);
        }
        for item in items {
            let child = first + self.cells[id as usize].quadrant(item.pos);
            let bucket = &mut self.cells[child as usize].items;
            self.by_key.insert(item.key, (child, bucket.len() as u32));
            bucket.push(item);
        }
    }

    /// Removes the entry at `idx` of `cell`'s bucket (its key-map entry
    /// is the caller's), then merges emptied-out siblings upwards.
    fn take(&mut self, cell: u32, idx: u32) -> Item {
        let items = &mut self.cells[cell as usize].items;
        let item = items.swap_remove(idx as usize);
        if let Some(moved) = items.get(idx as usize) {
            self.by_key.insert(moved.key, (cell, idx));
        }
        let mut id = cell;
        while id > ROOT {
            let parent = self.cells[id as usize].parent;
            if !self.merge(parent) {
                break;
            }
            id = parent;
        }
        item
    }

    /// Folds the four children of `id` back into it when they are all
    /// leaves whose entries fit in one bucket; returns whether it did.
    fn merge(&mut self, id: u32) -> bool {
        let first = self.cells[id as usize].first_child as usize;
        let kids = &self.cells[first..first + 4];
        if kids.iter().any(|c| !c.is_leaf()) || kids.iter().map(|c| c.items.len()).sum::<usize>() > BUCKET {
            return false;
        }
        let mut items = std::mem::take(&mut self.cells[first].items);
        for c in first + 1..first + 4 {
            items.append(&mut std::mem::take(&mut self.cells[c].items));
        }
        for (i, item) in items.iter().enumerate() {
            self.by_key.insert(item.key, (id, i as u32));
        }
        let parent = &mut self.cells[id as usize];
        parent.items = items;
        parent.first_child = NIL;
        self.free.push(first as u32);
        true
    }
}

impl SpatialIndex for PointQuadtree {
    fn insert(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        let old = self.remove_handle(key).map(|(_, p)| p);
        self.place(Item { key, pos, handle: 0 });
        old
    }

    // lint:hot_path
    fn update(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        self.upsert_handle(key, pos, 0).map(|(_, p)| p)
    }

    fn remove(&mut self, key: ObjectKey) -> Option<Point> {
        self.remove_handle(key).map(|(_, p)| p)
    }

    fn get(&self, key: ObjectKey) -> Option<Point> {
        self.get_handle(key).map(|(_, p)| p)
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }

    /// The overflow bucket, then a pre-order walk of the cells the
    /// rectangle reaches, SW before SE, NW and NE.
    fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        for item in &self.cells[OVERFLOW as usize].items {
            if rect.contains(item.pos) {
                sink(Entry::new(item.key, item.pos));
            }
        }
        let mut walk = Walk::new();
        while let Some(id) = walk.pop() {
            let cell = &self.cells[id as usize];
            if !cell.overlaps(rect) {
                continue;
            }
            if cell.is_leaf() {
                for item in &cell.items {
                    if rect.contains(item.pos) {
                        sink(Entry::new(item.key, item.pos));
                    }
                }
            } else {
                for q in (0..4).rev() {
                    walk.push(cell.first_child + q);
                }
            }
        }
    }

    /// Branch-and-bound, depth first: the quadrant containing `p` first
    /// for early pruning, and a cell farther than the best so far is
    /// skipped when it comes off the stack. The overflow bucket is
    /// scanned last.
    fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Option<(Entry, f64)> {
        let mut best: Option<(Entry, f64)> = None;
        let mut walk = Walk::new();
        while let Some(id) = walk.pop() {
            let cell = &self.cells[id as usize];
            if best.as_ref().is_some_and(|&(_, d)| cell.min_distance(p) > d) {
                continue;
            }
            if cell.is_leaf() {
                for item in &cell.items {
                    offer(&mut best, p, item, filter);
                }
            } else {
                let first = cell.quadrant(p);
                for q in [first ^ 3, first ^ 2, first ^ 1, first] {
                    walk.push(cell.first_child + q);
                }
            }
        }
        for item in &self.cells[OVERFLOW as usize].items {
            offer(&mut best, p, item, filter);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(points: &[(u64, f64, f64)]) -> PointQuadtree {
        let mut t = PointQuadtree::new();
        for &(k, x, y) in points {
            t.insert(k, Point::new(x, y));
        }
        t
    }

    #[test]
    fn insert_and_get() {
        let t = tree_with(&[(1, 0.0, 0.0), (2, 5.0, 5.0), (3, -5.0, 5.0)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(2), Some(Point::new(5.0, 5.0)));
        assert_eq!(t.get(9), None);
    }

    #[test]
    fn reinsert_moves_object() {
        let mut t = tree_with(&[(1, 0.0, 0.0)]);
        let old = t.insert(1, Point::new(9.0, 9.0));
        assert_eq!(old, Some(Point::ORIGIN));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1), Some(Point::new(9.0, 9.0)));
        // Old position no longer appears in queries.
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0)), &mut |e| {
            hits.push(e.key)
        });
        assert!(hits.is_empty());
    }

    #[test]
    fn range_query_with_points_on_boundary() {
        let t = tree_with(&[(1, 0.0, 0.0), (2, 10.0, 10.0), (3, 5.0, 5.0), (4, 10.1, 0.0)]);
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), &mut |e| {
            hits.push(e.key)
        });
        hits.sort();
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn nearest_simple() {
        let t = tree_with(&[(1, 0.0, 0.0), (2, 10.0, 0.0), (3, 4.0, 3.0)]);
        let (e, d) = t.nearest(Point::new(5.0, 3.0)).unwrap();
        assert_eq!(e.key, 3);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn nearest_respects_filter() {
        let t = tree_with(&[(1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)]);
        let (e, _) = t.nearest_where(Point::ORIGIN, &mut |k| k > 2).unwrap();
        assert_eq!(e.key, 3);
    }

    /// Splits allocate four-child groups; removals merge them back and
    /// free them, and later splits reuse the freed groups.
    #[test]
    fn removals_merge_cells_and_splits_reuse_them() {
        let mut t = PointQuadtree::new();
        for i in 0..100u64 {
            t.insert(i, Point::new(i as f64, (i * 13 % 50) as f64));
        }
        let grown = t.cells.len();
        assert!(grown > 2 + 4, "100 entries must split the root");
        for i in (50..100u64).rev() {
            t.remove(i);
        }
        assert_eq!(t.len(), 50);
        for i in 0..50u64 {
            assert!(t.get(i).is_some());
        }
        for i in 0..50u64 {
            t.remove(i);
        }
        // Everything merged back into one root leaf.
        assert!(t.cells[ROOT as usize].is_leaf());
        assert_eq!(t.free.len() * 4 + 2, t.cells.len());
        assert_eq!(t.height(), 0);
        for i in 0..100u64 {
            t.insert(i, Point::new(i as f64, (i * 13 % 50) as f64));
        }
        assert_eq!(t.cells.len(), grown, "freed groups must be reused");
    }

    /// A move inside the entry's cell rewrites its bucket slot; a move
    /// across cells refiles it, and either way the key map follows.
    #[test]
    fn update_in_place_within_a_cell() {
        let mut t = PointQuadtree::new();
        for i in 0..64u64 {
            t.insert(i, Point::new((i % 8) as f64 * 100.0, (i / 8) as f64 * 100.0));
        }
        let at = t.by_key[&9];
        assert_eq!(t.update(9, Point::new(101.0, 99.0)), Some(Point::new(100.0, 100.0)));
        assert_eq!(t.by_key[&9], at, "an in-cell move stays in its bucket slot");
        assert_eq!(t.get(9), Some(Point::new(101.0, 99.0)));
        let (e, _) = t.nearest(Point::new(101.0, 98.0)).unwrap();
        assert_eq!(e.key, 9);

        assert_eq!(t.update(9, Point::new(-50.0, -50.0)), Some(Point::new(101.0, 99.0)));
        assert_ne!(t.by_key[&9].0, at.0, "a cross-cell move changes the cell");
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(-60.0, -60.0), Point::new(0.0, 0.0)), &mut |e| {
            hits.push(e.key)
        });
        hits.sort();
        assert_eq!(hits, vec![0, 9]);
        for (&key, &(cell, idx)) in &t.by_key {
            assert_eq!(t.cells[cell as usize].items[idx as usize].key, key);
        }
    }

    /// Positions the root cannot hold share one overflow bucket, which
    /// every query scans, and they move between it and the tree.
    #[test]
    fn positions_beyond_the_root_overflow_and_stay_queryable() {
        let far = Point::new(4e7, 0.0);
        let mut t = tree_with(&[(1, 0.0, 0.0), (2, f64::INFINITY, 1.0), (3, 4e7, 0.0), (4, f64::NAN, 0.0)]);
        assert_eq!(t.cells[OVERFLOW as usize].items.len(), 3);
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(3e7, -1.0), Point::new(5e7, 1.0)), &mut |e| hits.push(e.key));
        assert_eq!(hits, vec![3]);
        assert!(t.remove(4).is_some_and(|p| p.x.is_nan()));
        assert_eq!(t.nearest(Point::new(3.9e7, 0.0)).map(|(e, _)| e.key), Some(3));
        assert_eq!(t.update(3, Point::new(4.1e7, 0.0)), Some(far));
        assert_eq!(t.update(3, Point::new(5.0, 5.0)), Some(Point::new(4.1e7, 0.0)));
        assert_eq!(t.cells[OVERFLOW as usize].items.len(), 1);
        assert_eq!(t.nearest(Point::new(6.0, 6.0)).map(|(e, _)| e.key), Some(3));
        assert_eq!(t.update(2, Point::new(-1.0, 0.0)), Some(Point::new(f64::INFINITY, 1.0)));
        assert!(t.cells[OVERFLOW as usize].items.is_empty());
    }

    #[test]
    fn update_absent_key_inserts() {
        let mut t = PointQuadtree::new();
        assert_eq!(t.update(9, Point::new(1.0, 2.0)), None);
        assert_eq!(t.get(9), Some(Point::new(1.0, 2.0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_positions_coexist() {
        // Multiple objects at the same point (e.g. people in a room).
        let t = tree_with(&[(1, 5.0, 5.0), (2, 5.0, 5.0), (3, 5.0, 5.0)]);
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(5.0, 5.0), Point::new(5.0, 5.0)), &mut |e| {
            hits.push(e.key)
        });
        hits.sort();
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn empty_tree_queries() {
        let t = PointQuadtree::new();
        assert_eq!(t.nearest(Point::ORIGIN), None);
        let mut hits = 0;
        t.query_rect(&Rect::new(Point::new(-1e9, -1e9), Point::new(1e9, 1e9)), &mut |_| {
            hits += 1
        });
        assert_eq!(hits, 0);
        assert_eq!(t.height(), 0);
    }

    /// Bytes-per-object ceilings: a bucket entry is 32 B, a key-map
    /// entry 16 B (a `u64` key, the cell and the index in its bucket),
    /// and a cell 56 B.
    #[test]
    fn entries_fit_in_32_bytes() {
        assert!(std::mem::size_of::<Item>() <= 32, "Item is {} B", std::mem::size_of::<Item>());
        assert_eq!(std::mem::size_of::<(ObjectKey, (u32, u32))>(), 16);
        assert!(std::mem::size_of::<Cell>() <= 56, "Cell is {} B", std::mem::size_of::<Cell>());
    }

    /// The arena's bytes per entry at one leaf's population, laid out
    /// as `hiloc-storage`'s bytes-per-object estimate lays it out:
    /// 12 500 objects on a 50 m × 40 m grid, each then moved 15 m east.
    /// Every cell counts, and every bucket at its capacity. That
    /// estimate takes this ceiling as the index's share.
    #[test]
    fn arena_costs_at_most_56_bytes_per_entry() {
        let n = 12_500u64;
        let at = |key: u64, dx: f64| Point::new((key % 100) as f64 * 50.0 + dx, (key / 100) as f64 * 40.0);
        let mut t = PointQuadtree::new();
        for dx in [0.0, 15.0] {
            for key in 0..n {
                t.upsert_handle(key, at(key, dx), key as u32);
            }
        }
        let slots: usize = t.cells.iter().map(|c| c.items.capacity()).sum();
        let bytes = t.cells.len() * std::mem::size_of::<Cell>() + slots * std::mem::size_of::<Item>();
        let per_entry = bytes as f64 / n as f64;
        assert!(per_entry <= 56.0, "{per_entry:.1} B per entry");
    }

    /// A tiny deterministic generator, so the spatial crate needs no
    /// RNG dependency for its unit tests.
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn handles_travel_with_their_entries() {
        let mut t = PointQuadtree::new();
        let mut rng = 7u64;
        let n = 600u64;
        for k in 0..n {
            let at = Point::new(lcg(&mut rng) * 1e3, lcg(&mut rng) * 1e3);
            assert_eq!(t.upsert_handle(k, at, k as u32 * 3), None);
        }
        // Long jumps leave their cells: removals, refiles, splits and
        // (with the removals) merges.
        for round in 0..20u64 {
            for k in 0..n {
                let to = Point::new(lcg(&mut rng) * 1e3, lcg(&mut rng) * 1e3);
                assert_eq!(t.upsert_handle(k, to, 0).map(|(h, _)| h), Some(k as u32 * 3));
            }
            let gone = round * 10..round * 10 + 10;
            for k in gone.clone() {
                assert_eq!(t.remove_handle(k).map(|(h, _)| h), Some(k as u32 * 3));
            }
            for k in gone {
                t.upsert_handle(k, Point::new(lcg(&mut rng) * 1e3, 0.0), k as u32 * 3);
            }
        }
        for k in 0..n {
            assert_eq!(t.get_handle(k).map(|(h, _)| h), Some(k as u32 * 3), "key {k}");
        }
        assert_eq!(t.len(), n as usize);
    }

    /// 2 000 objects take 40 000 steps of 15 m: the cells in use and the
    /// bucket slots stay proportional to the live population, and the
    /// arena never outgrows what the population needs at its densest.
    #[test]
    fn arena_stays_bounded_under_a_15_m_random_walk() {
        let mut t = PointQuadtree::new();
        let mut rng = 11u64;
        let live = 2_000u64;
        let mut pos: Vec<Point> =
            (0..live).map(|_| Point::new(lcg(&mut rng) * 2e3, lcg(&mut rng) * 2e3)).collect();
        for (k, p) in pos.iter().enumerate() {
            t.insert(k as u64, *p);
        }
        let mut peak = t.cells.len();
        for step in 0..40_000usize {
            let k = step % live as usize;
            let angle = lcg(&mut rng) * std::f64::consts::TAU;
            pos[k] = Point::new(pos[k].x + 15.0 * angle.cos(), pos[k].y + 15.0 * angle.sin());
            t.update(k as u64, pos[k]);
            let in_use = t.cells.len() - 4 * t.free.len();
            let slots: usize = t.cells.iter().map(|c| c.items.capacity()).sum();
            assert!(in_use <= t.len() / 4 + 4 * MAX_HEIGHT, "{in_use} cells for {} live", t.len());
            assert!(slots <= 2 * t.len(), "{slots} bucket slots for {} live", t.len());
            peak = peak.max(in_use);
        }
        // Splits reuse merged-away groups before the arena grows.
        assert_eq!(t.cells.len(), peak);
        for (k, p) in pos.iter().enumerate() {
            assert_eq!(t.get(k as u64), Some(*p));
        }
    }

    /// Insertion order cannot shape the tree: 100 000 objects in order
    /// along one line and 20 000 at one point stay within the depth cap
    /// and are queried on a thread with a 2 MiB stack (the std default
    /// for spawned threads, and so for shard threads). A point quadtree
    /// built a chain as deep as the count from either.
    #[test]
    fn adversarial_shapes_stay_under_the_height_cap_on_a_2_mib_stack() {
        let walk = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let n = 100_000u64;
                let mut line = PointQuadtree::new();
                for k in 0..n {
                    line.insert(k, Point::new(k as f64, k as f64 * 0.5));
                }
                assert!(line.height() <= MAX_HEIGHT, "line height {}", line.height());
                let mut all = 0u64;
                line.query_rect(&Rect::new(Point::ORIGIN, Point::new(n as f64, n as f64)), &mut |_| all += 1);
                assert_eq!(all, n);
                let mut tail = Vec::new();
                let far = (n - 3) as f64;
                line.query_rect(&Rect::new(Point::new(far, 0.0), Point::new(n as f64, n as f64)), &mut |e| {
                    tail.push(e.key)
                });
                tail.sort();
                assert_eq!(tail, vec![n - 3, n - 2, n - 1]);
                let end = Point::new(n as f64, n as f64 * 0.5);
                let (e, _) = line.nearest_where(end, &mut |k| k % 2 == 0).unwrap();
                assert_eq!(e.key, n - 2);
                assert_eq!(line.nearest(end).map(|(e, _)| e.key), Some(n - 1));

                let m = 20_000u64;
                let at = Point::new(250.0, -40.0);
                let mut point = PointQuadtree::new();
                for k in 0..m {
                    point.insert(k, at);
                }
                assert!(point.height() <= MAX_HEIGHT, "point height {}", point.height());
                let mut all = 0u64;
                point.query_rect(&Rect::new(at, at), &mut |_| all += 1);
                assert_eq!(all, m);
                assert_eq!(point.nearest_where(Point::ORIGIN, &mut |k| k >= 7).map(|(e, _)| e.key), Some(7));
                assert_eq!(point.nearest(at).map(|(e, _)| e.key), Some(0));
            })
            .unwrap();
        walk.join().expect("adversarial shapes built and queried on a 2 MiB stack");
    }

    #[test]
    fn sequential_inserts_then_removals_stay_consistent() {
        let mut t = PointQuadtree::new();
        for i in 0..2_000u64 {
            t.insert(i, Point::new(i as f64, i as f64));
        }
        for i in 0..1_500u64 {
            t.remove(i);
        }
        for i in 1_500..2_000u64 {
            assert_eq!(t.get(i), Some(Point::new(i as f64, i as f64)));
        }
    }
}
