//! Samet's point quadtree — the paper's spatial index.

use crate::{candidate_cmp, Entry, ObjectKey, SpatialIndex};
use hiloc_geo::{Point, Rect};
// lint:allow(determinism) import for the lookup-only key map annotated below
use std::collections::HashMap;

/// Child quadrant indexes: SW, SE, NW, NE relative to a node's point.
const SW: usize = 0;
const SE: usize = 1;
const NW: usize = 2;
const NE: usize = 3;

#[derive(Debug, Clone)]
struct Node {
    key: ObjectKey,
    /// The node's *split point*: fixed at insertion, it defines the
    /// quadrant decomposition below this node and never moves.
    split: Point,
    /// The object's *current position*: free to drift anywhere inside
    /// `bounds` without restructuring (the update hot path). Always
    /// inside `bounds`; starts equal to `split`.
    pos: Point,
    children: [Option<u32>; 4],
    parent: Option<u32>,
    /// Tombstone flag: the node stays in the tree as a split point but
    /// no longer represents a live object. Also marks freed slots
    /// (which are additionally unlinked and on the free list).
    deleted: bool,
    /// The node's routing region (quadrant constraints accumulated from
    /// the root at insertion). Cached so the update fast path is O(1).
    bounds: QuadBounds,
}

/// A point quadtree (Samet, *The Design and Analysis of Spatial Data
/// Structures*): every node stores one data point; its insertion
/// position splits the region into four quadrants.
///
/// This is the index the paper's prototype uses for the sighting
/// database ("For the spatial index we used a Point Quadtree
/// implementation, which we found to be very well suited for our
/// purpose").
///
/// # Update hot path
///
/// Position updates are the dominant load of a location server (the
/// paper measures 41 494 updates/s), so the structure is tuned for
/// them: each node's **split point** (the routing structure) is
/// decoupled from the object's **current position**, and the node's
/// routing region is cached. A move that stays inside the region — the
/// common case for the local motion of tracked objects — is a single
/// in-place write, no matter whether the node has children.
///
/// # Deletion strategy
///
/// True point-quadtree deletion requires re-inserting entire subtrees.
/// A childless node is unlinked outright (its arena slot is reused;
/// emptied tombstone ancestors are pruned on the way up). A node with
/// children is tombstoned: it stays as a split point and the tree is
/// rebuilt from the live nodes once tombstones outnumber them —
/// amortized O(log n) per operation and a bounded 2× space overhead.
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
#[derive(Debug, Clone, Default)]
pub struct PointQuadtree {
    nodes: Vec<Node>,
    /// Freed arena slots available for reuse.
    free: Vec<u32>,
    root: Option<u32>,
    /// Key → node index, for O(1) lookup/removal.
    // lint:allow(determinism) lookups only; maybe_rebuild sorts by mixed key before reinserting
    by_key: HashMap<ObjectKey, u32>,
    tombstones: usize,
}

impl PointQuadtree {
    /// Creates an empty quadtree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tombstoned nodes currently retained (exposed for tests
    /// and diagnostics).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Height of the tree (0 for empty); diagnostic only.
    pub fn height(&self) -> usize {
        fn rec(nodes: &[Node], id: Option<u32>) -> usize {
            match id {
                None => 0,
                Some(i) => {
                    1 + nodes[i as usize]
                        .children
                        .iter()
                        .map(|c| rec(nodes, *c))
                        .max()
                        .unwrap_or(0)
                }
            }
        }
        rec(&self.nodes, self.root)
    }

    fn quadrant(split: Point, p: Point) -> usize {
        match (p.x >= split.x, p.y >= split.y) {
            (false, false) => SW,
            (true, false) => SE,
            (false, true) => NW,
            (true, true) => NE,
        }
    }

    fn alloc(&mut self, node: Node) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn insert_node(&mut self, key: ObjectKey, pos: Point) {
        match self.root {
            None => {
                let id = self.alloc(Node {
                    key,
                    split: pos,
                    pos,
                    children: [None; 4],
                    parent: None,
                    deleted: false,
                    bounds: QuadBounds::unbounded(),
                });
                self.root = Some(id);
                self.by_key.insert(key, id);
            }
            Some(root) => self.insert_from(root, key, pos),
        }
    }

    /// Inserts below `start`, whose region must contain `pos`. The
    /// first tombstone on the descent path is revived instead of
    /// allocating: the object lands on a shallow node with a large
    /// region — future in-place moves hit more often — and the
    /// tombstone pool is recycled instead of forcing rebuilds.
    fn insert_from(&mut self, start: u32, key: ObjectKey, pos: Point) {
        let mut bounds = self.nodes[start as usize].bounds;
        let mut cur = start;
        loop {
            let n = &mut self.nodes[cur as usize];
            if n.deleted {
                n.key = key;
                n.pos = pos;
                n.deleted = false;
                self.tombstones -= 1;
                self.by_key.insert(key, cur);
                return;
            }
            let q = Self::quadrant(n.split, pos);
            bounds = bounds.child(n.split, q);
            match n.children[q] {
                Some(child) => cur = child,
                None => {
                    let id = self.alloc(Node {
                        key,
                        split: pos,
                        pos,
                        children: [None; 4],
                        parent: Some(cur),
                        deleted: false,
                        bounds,
                    });
                    self.nodes[cur as usize].children[q] = Some(id);
                    self.by_key.insert(key, id);
                    return;
                }
            }
        }
    }

    /// Moves the childless node `id` below `start` (whose region must
    /// contain `pos`): unlink, then re-link as a fresh leaf with
    /// `split = pos`. The arena slot, key and `by_key` entry are all
    /// kept — a miss on the in-place fast path costs an ascent plus a
    /// short local descent instead of a removal and a root descent.
    fn relocate(&mut self, id: u32, start: u32, pos: Point) {
        debug_assert!(self.nodes[id as usize].children.iter().all(Option::is_none));
        let parent = self.nodes[id as usize]
            .parent
            .expect("the root's region is unbounded and never relocates");
        for slot in &mut self.nodes[parent as usize].children {
            if *slot == Some(id) {
                *slot = None;
            }
        }
        let mut bounds = self.nodes[start as usize].bounds;
        let mut cur = start;
        loop {
            let n = &self.nodes[cur as usize];
            let q = Self::quadrant(n.split, pos);
            bounds = bounds.child(n.split, q);
            match n.children[q] {
                Some(child) => cur = child,
                None => {
                    let node = &mut self.nodes[id as usize];
                    node.split = pos;
                    node.pos = pos;
                    node.parent = Some(cur);
                    node.bounds = bounds;
                    self.nodes[cur as usize].children[q] = Some(id);
                    return;
                }
            }
        }
    }

    /// Unlinks a childless node from its parent, frees its slot, and
    /// prunes tombstone ancestors that became childless in the process.
    fn detach(&mut self, mut id: u32) {
        loop {
            debug_assert!(self.nodes[id as usize].children.iter().all(Option::is_none));
            let parent = self.nodes[id as usize].parent;
            self.nodes[id as usize].deleted = true;
            self.free.push(id);
            match parent {
                None => {
                    self.root = None;
                    return;
                }
                Some(p) => {
                    let pn = &mut self.nodes[p as usize];
                    for slot in &mut pn.children {
                        if *slot == Some(id) {
                            *slot = None;
                        }
                    }
                    if pn.deleted && pn.children.iter().all(Option::is_none) {
                        // The tombstone no longer splits anything.
                        self.tombstones -= 1;
                        id = p;
                        continue;
                    }
                    return;
                }
            }
        }
    }

    /// Rebuilds the tree from live entries when tombstones dominate.
    ///
    /// Entries are re-inserted in a deterministic pseudo-shuffled order
    /// (by a mixed hash of the key) which yields expected O(log n)
    /// depth, like a randomized BST.
    fn maybe_rebuild(&mut self) {
        if self.tombstones <= self.by_key.len() || self.tombstones < 64 {
            return;
        }
        let mut live: Vec<(ObjectKey, Point)> = self
            .by_key
            .values()
            .map(|&id| {
                let n = &self.nodes[id as usize];
                (n.key, n.pos)
            })
            .collect();
        live.sort_by_key(|(k, _)| mix64(*k));
        self.nodes.clear();
        self.free.clear();
        self.by_key.clear();
        self.root = None;
        self.tombstones = 0;
        for (k, p) in live {
            self.insert_node(k, p);
        }
    }

    fn query_rect_rec(&self, id: Option<u32>, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        let Some(id) = id else { return };
        let node = &self.nodes[id as usize];
        if !node.deleted && rect.contains(node.pos) {
            sink(Entry::new(node.key, node.pos));
        }
        // Quadrant pruning relative to the node's split point.
        let west = rect.min().x < node.split.x;
        let east = rect.max().x >= node.split.x;
        let south = rect.min().y < node.split.y;
        let north = rect.max().y >= node.split.y;
        if west && south {
            self.query_rect_rec(node.children[SW], rect, sink);
        }
        if east && south {
            self.query_rect_rec(node.children[SE], rect, sink);
        }
        if west && north {
            self.query_rect_rec(node.children[NW], rect, sink);
        }
        if east && north {
            self.query_rect_rec(node.children[NE], rect, sink);
        }
    }

    /// Branch-and-bound nearest search. `bounds` is the region of the
    /// current subtree; children refine it at the node's split point.
    /// Every node's data position lies inside its region (the in-place
    /// update invariant), so region pruning stays sound.
    #[allow(clippy::too_many_arguments)]
    fn nearest_rec(
        &self,
        id: Option<u32>,
        p: Point,
        bounds: QuadBounds,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
        best: &mut Option<(Entry, f64)>,
    ) {
        let Some(id) = id else { return };
        if let Some((_, d)) = best {
            if bounds.min_distance(p) > *d {
                return;
            }
        }
        let node = &self.nodes[id as usize];
        if !node.deleted {
            // Rank first: the filter (a visitor probe at a leaf) runs
            // only on an entry that would replace the current best.
            let cand = (Entry::new(node.key, node.pos), p.distance(node.pos));
            let beats = best.as_ref().is_none_or(|b| candidate_cmp(&cand, b).is_lt());
            if beats && filter(node.key) {
                *best = Some(cand);
            }
        }
        // Visit the quadrant containing p first for early pruning.
        let first = Self::quadrant(node.split, p);
        let order = [first, first ^ 1, first ^ 2, first ^ 3];
        for q in order {
            let child_bounds = bounds.child(node.split, q);
            if let Some((_, d)) = best {
                if child_bounds.min_distance(p) > *d {
                    continue;
                }
            }
            self.nearest_rec(node.children[q], p, child_bounds, filter, best);
        }
    }
}

/// Open bounds of a quadtree subtree; starts unbounded at the root.
#[derive(Debug, Clone, Copy)]
struct QuadBounds {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl QuadBounds {
    fn unbounded() -> Self {
        QuadBounds {
            min_x: f64::NEG_INFINITY,
            min_y: f64::NEG_INFINITY,
            max_x: f64::INFINITY,
            max_y: f64::INFINITY,
        }
    }

    fn child(self, split: Point, quadrant: usize) -> Self {
        let mut b = self;
        match quadrant {
            SW => {
                b.max_x = b.max_x.min(split.x);
                b.max_y = b.max_y.min(split.y);
            }
            SE => {
                b.min_x = b.min_x.max(split.x);
                b.max_y = b.max_y.min(split.y);
            }
            NW => {
                b.max_x = b.max_x.min(split.x);
                b.min_y = b.min_y.max(split.y);
            }
            _ => {
                b.min_x = b.min_x.max(split.x);
                b.min_y = b.min_y.max(split.y);
            }
        }
        b
    }

    fn min_distance(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Whether routing `p` from the root reaches this region: quadrant
    /// choice treats the split value as belonging to the east/north
    /// side, so regions are half-open (min inclusive, max exclusive).
    fn routes_here(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x < self.max_x && p.y >= self.min_y && p.y < self.max_y
    }
}

/// SplitMix64 finalizer: decorrelates sequential keys for rebuild order.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SpatialIndex for PointQuadtree {
    fn insert(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        let old = self.remove(key);
        self.insert_node(key, pos);
        old
    }

    // lint:hot_path
    fn update(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        let Some(&id) = self.by_key.get(&key) else {
            self.insert_node(key, pos);
            return None;
        };
        // The split point is fixed structure; only the data position
        // moves. As long as the new position stays inside the node's
        // cached routing region, queries remain exact — O(1), no
        // unlink, no tombstone, no rebuild pressure.
        let node = &mut self.nodes[id as usize];
        if node.bounds.routes_here(pos) {
            let old_pos = node.pos;
            node.pos = pos;
            return Some(old_pos);
        }
        let old_pos = node.pos;
        // Non-finite coordinates defeat the region algebra (no region
        // admits NaN, and +∞ escapes even the root's half-open bounds):
        // take the plain re-insert path, which routes them the same way
        // the tree always has.
        if !(pos.x.is_finite() && pos.y.is_finite()) {
            return self.insert(key, pos);
        }
        // Local motion mostly crosses into a *sibling* region: ascend
        // to the nearest ancestor whose region admits the new point
        // (the root admits everything) and re-place the object from
        // there, instead of paying a full root descent.
        let mut start = self.nodes[id as usize]
            .parent
            .expect("the root's region is unbounded and always hits the fast path");
        while !self.nodes[start as usize].bounds.routes_here(pos) {
            start = self.nodes[start as usize]
                .parent
                .expect("the root's region admits every point");
        }
        if self.nodes[id as usize].children.iter().all(Option::is_none) {
            self.relocate(id, start, pos);
        } else {
            // The node splits its subtree and must stay as structure.
            self.nodes[id as usize].deleted = true;
            self.tombstones += 1;
            self.by_key.remove(&key);
            self.insert_from(start, key, pos);
            self.maybe_rebuild();
        }
        Some(old_pos)
    }

    fn remove(&mut self, key: ObjectKey) -> Option<Point> {
        let id = self.by_key.remove(&key)?;
        let node = &mut self.nodes[id as usize];
        debug_assert!(!node.deleted);
        let pos = node.pos;
        if node.children.iter().all(Option::is_none) {
            // Childless: unlink for real and reuse the slot.
            self.detach(id);
        } else {
            node.deleted = true;
            self.tombstones += 1;
            self.maybe_rebuild();
        }
        Some(pos)
    }

    fn get(&self, key: ObjectKey) -> Option<Point> {
        self.by_key.get(&key).map(|&id| self.nodes[id as usize].pos)
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.by_key.clear();
        self.root = None;
        self.tombstones = 0;
    }

    fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        self.query_rect_rec(self.root, rect, sink);
    }

    fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Option<(Entry, f64)> {
        let mut best = None;
        self.nearest_rec(self.root, p, QuadBounds::unbounded(), filter, &mut best);
        best
    }

    fn k_nearest_where(
        &self,
        p: Point,
        k: usize,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Vec<(Entry, f64)> {
        // Iterative deepening by exclusion: k rounds of nearest_where,
        // each excluding the keys already returned. k is small in
        // practice (near-neighbor sets), so this trades a log factor for
        // simplicity and exact tie-break parity with the oracle.
        let mut result: Vec<(Entry, f64)> = Vec::with_capacity(k);
        let mut taken: std::collections::BTreeSet<ObjectKey> = std::collections::BTreeSet::new();
        for _ in 0..k {
            let next = self.nearest_where(p, &mut |key| !taken.contains(&key) && filter(key));
            match next {
                Some(c) => {
                    taken.insert(c.0.key);
                    result.push(c);
                }
                None => break,
            }
        }
        result
    }

    fn for_each(&self, sink: &mut dyn FnMut(Entry)) {
        for node in &self.nodes {
            if !node.deleted {
                sink(Entry::new(node.key, node.pos));
            }
        }
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

    #[test]
    fn k_nearest_in_order() {
        let t = tree_with(&[(1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0), (4, 4.0, 0.0)]);
        let got = t.k_nearest_where(Point::ORIGIN, 3, &mut |_| true);
        let keys: Vec<_> = got.iter().map(|(e, _)| e.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn k_nearest_more_than_len() {
        let t = tree_with(&[(1, 1.0, 0.0)]);
        assert_eq!(t.k_nearest_where(Point::ORIGIN, 5, &mut |_| true).len(), 1);
    }

    #[test]
    fn childless_removal_reuses_slots_without_tombstones() {
        let mut t = PointQuadtree::new();
        for i in 0..100u64 {
            t.insert(i, Point::new(i as f64, (i * 13 % 50) as f64));
        }
        // Removing in reverse insertion order hits childless nodes
        // almost exclusively: tombstones stay near zero and the arena
        // shrinks through the free list.
        for i in (50..100u64).rev() {
            t.remove(i);
        }
        assert_eq!(t.len(), 50);
        assert!(
            t.tombstone_count() <= 5,
            "reverse removals should mostly unlink, got {} tombstones",
            t.tombstone_count()
        );
        for i in 0..50u64 {
            assert!(t.get(i).is_some());
        }
        // Re-inserting reuses freed slots: the arena must not grow.
        let before = t.nodes.len();
        for i in 50..100u64 {
            t.insert(i, Point::new(i as f64, 1.0));
        }
        assert_eq!(t.nodes.len(), before, "freed slots must be reused");
    }

    #[test]
    fn tombstones_trigger_rebuild() {
        let mut t = PointQuadtree::new();
        for i in 0..500u64 {
            t.insert(i, Point::new(i as f64, (i % 17) as f64));
        }
        for i in 0..400u64 {
            t.remove(i);
        }
        assert_eq!(t.len(), 100);
        // Rebuild happened: tombstones were collapsed.
        assert!(t.tombstone_count() <= t.len(), "tombstones {}", t.tombstone_count());
        // Survivors still queryable.
        for i in 400..500u64 {
            assert!(t.get(i).is_some());
        }
    }

    #[test]
    fn update_in_place_within_routing_region() {
        // Root at (0,0); key 2 is the NE child: its routing region is
        // x >= 0, y >= 0, so NE-quadrant moves rewrite in place.
        let mut t = tree_with(&[(1, 0.0, 0.0), (2, 5.0, 5.0)]);
        assert_eq!(t.update(2, Point::new(7.0, 1.0)), Some(Point::new(5.0, 5.0)));
        assert_eq!(t.tombstone_count(), 0, "in-region move must not tombstone");
        assert_eq!(t.get(2), Some(Point::new(7.0, 1.0)));
        let (e, _) = t.nearest(Point::new(7.0, 1.1)).unwrap();
        assert_eq!(e.key, 2);

        // The root's region is unbounded, so the root moves in place
        // too — its *split* stays at the origin, keeping key 2's NE
        // placement valid.
        assert_eq!(t.update(1, Point::new(-3.0, -4.0)), Some(Point::ORIGIN));
        assert_eq!(t.get(1), Some(Point::new(-3.0, -4.0)));
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(-5.0, -5.0), Point::new(0.0, 0.0)), &mut |e| {
            hits.push(e.key)
        });
        assert_eq!(hits, vec![1]);

        // Key 2 crossing into the SW quadrant leaves its region: the
        // node is re-inserted (childless → unlinked, no tombstone).
        assert_eq!(t.update(2, Point::new(-1.0, -1.0)), Some(Point::new(7.0, 1.0)));
        assert_eq!(t.tombstone_count(), 0);
        assert_eq!(t.get(2), Some(Point::new(-1.0, -1.0)));
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0)), &mut |e| {
            hits.push(e.key)
        });
        hits.sort();
        assert_eq!(hits, vec![1, 2]);
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

    #[test]
    fn sequential_inserts_stay_shallow_after_rebuild() {
        // Sequential keys at sequential positions produce a degenerate
        // path; the rebuild shuffle must keep lookups correct.
        let mut t = PointQuadtree::new();
        for i in 0..2_000u64 {
            t.insert(i, Point::new(i as f64, i as f64));
        }
        // Force a rebuild cycle.
        for i in 0..1_500u64 {
            t.remove(i);
        }
        for i in 1_500..2_000u64 {
            assert_eq!(t.get(i), Some(Point::new(i as f64, i as f64)));
        }
    }
}
