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

/// The absent link in `children` and `parent`, and the tombstone mark
/// in `handle`.
const NIL: u32 = u32::MAX;

/// One arena node. The fields a walk reads (`key`, `split`, `pos`,
/// `children`) come first, in the first 56 of its 96 bytes.
#[derive(Debug, Clone)]
#[repr(C)]
struct Node {
    key: ObjectKey,
    /// The node's *split point*: fixed at insertion, it defines the
    /// quadrant decomposition below this node and never moves.
    split: Point,
    /// The object's *current position*: free to drift anywhere inside
    /// `bounds` without restructuring (the update hot path). Always
    /// inside `bounds`; starts equal to `split`.
    pos: Point,
    /// Child arena indexes per quadrant, [`NIL`] where absent.
    children: [u32; 4],
    /// Parent arena index, [`NIL`] at the root.
    parent: u32,
    /// The owner's handle for the entry (see
    /// [`PointQuadtree::upsert_handle`]), or [`NIL`] for a tombstone:
    /// the node stays in the tree as a split point but no longer
    /// represents a live object. Also marks freed slots (which are
    /// additionally unlinked and on the free list).
    handle: u32,
    /// The node's routing region (quadrant constraints accumulated from
    /// the root at insertion). Cached so the update fast path is O(1),
    /// and read by the nearest-neighbour walk as the subtree's region.
    bounds: QuadBounds,
}

impl Node {
    fn is_live(&self) -> bool {
        self.handle != NIL
    }

    fn is_childless(&self) -> bool {
        self.children == [NIL; 4]
    }

    fn unlink_child(&mut self, id: u32) {
        for slot in &mut self.children {
            if *slot == id {
                *slot = NIL;
            }
        }
    }
}

/// Entries a walk keeps inline before it spills to the heap: a walk
/// holds at most three pending siblings per level, so only a tree far
/// deeper than its ordinary O(log n) height ever allocates.
const WALK_INLINE: usize = 128;

/// The pending-node stack of a tree walk. Walks are loops over this
/// stack, never recursion, so a degenerate (chain-like) tree costs
/// time but can never exhaust the thread's stack.
struct WalkStack {
    inline: [u32; WALK_INLINE],
    len: usize,
    spill: Vec<u32>,
}

impl WalkStack {
    fn new(root: u32) -> Self {
        let mut stack = WalkStack { inline: [NIL; WALK_INLINE], len: 0, spill: Vec::new() };
        stack.push(root);
        stack
    }

    fn push(&mut self, id: u32) {
        if id == NIL {
            return;
        }
        if self.len < WALK_INLINE {
            self.inline[self.len] = id;
            self.len += 1;
        } else {
            self.spill.push(id);
        }
    }

    fn pop(&mut self) -> Option<u32> {
        if let Some(id) = self.spill.pop() {
            return Some(id);
        }
        self.len = self.len.checked_sub(1)?;
        Some(self.inline[self.len])
    }
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
/// # Depth
///
/// Queries walk the tree with an explicit stack, so their stack use
/// does not depend on the tree's height. Insertion order still shapes
/// the height: objects registered in order along a line build a chain
/// as deep as their count, and each insert then costs O(n) until a
/// tombstone rebuild reshuffles the tree.
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
    nodes: Vec<Node>,
    /// Freed arena slots available for reuse.
    free: Vec<u32>,
    root: u32,
    /// Key → node index, for O(1) lookup/removal. An owner that keeps a
    /// side table per entry reaches it through the node's handle (see
    /// [`PointQuadtree::upsert_handle`]), so this is the owner's only
    /// key map too.
    // lint:allow(determinism) lookups only; maybe_rebuild sorts by mixed key before reinserting
    by_key: HashMap<ObjectKey, u32>,
    tombstones: usize,
}

impl Default for PointQuadtree {
    fn default() -> Self {
        PointQuadtree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            by_key: Default::default(),
            tombstones: 0,
        }
    }
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
        let mut height = 0;
        let mut pending = vec![(self.root, 1)];
        while let Some((id, depth)) = pending.pop() {
            if id == NIL {
                continue;
            }
            height = height.max(depth);
            pending.extend(self.nodes[id as usize].children.map(|c| (c, depth + 1)));
        }
        height
    }

    /// Moves `key` to `pos` like [`SpatialIndex::update`], inserting it
    /// with `handle` when absent, and returns the entry's handle and
    /// previous position (`None` when it was inserted).
    ///
    /// The handle is an owner's index into a side table (the sighting
    /// database's slab slot). It travels with the entry through every
    /// restructuring, so the tree's key map serves the owner too and a
    /// position update costs one hash probe. Plain [`SpatialIndex`]
    /// calls store handle 0. `handle` must not be `u32::MAX`, which
    /// marks tombstones.
    // lint:hot_path
    pub fn upsert_handle(&mut self, key: ObjectKey, pos: Point, handle: u32) -> Option<(u32, Point)> {
        debug_assert_ne!(handle, NIL, "u32::MAX is the tombstone mark");
        let Some(&id) = self.by_key.get(&key) else {
            self.insert_node(key, pos, handle);
            return None;
        };
        // The split point is fixed structure; only the data position
        // moves. As long as the new position stays inside the node's
        // cached routing region, queries remain exact — O(1), no
        // unlink, no tombstone, no rebuild pressure.
        let node = &mut self.nodes[id as usize];
        let (handle, old_pos) = (node.handle, node.pos);
        if node.bounds.routes_here(pos) {
            node.pos = pos;
            return Some((handle, old_pos));
        }
        // Non-finite coordinates defeat the region algebra (no region
        // admits NaN, and +∞ escapes even the root's half-open bounds):
        // take the plain re-insert path, which routes them the same way
        // the tree always has.
        if !(pos.x.is_finite() && pos.y.is_finite()) {
            self.remove_handle(key);
            self.insert_node(key, pos, handle);
            return Some((handle, old_pos));
        }
        // Local motion mostly crosses into a *sibling* region: ascend
        // to the nearest ancestor whose region admits the new point
        // (the root admits everything) and re-place the object from
        // there, instead of paying a full root descent.
        let mut start = self.nodes[id as usize].parent;
        debug_assert_ne!(start, NIL, "the root's region is unbounded and always hits the fast path");
        while !self.nodes[start as usize].bounds.routes_here(pos) {
            start = self.nodes[start as usize].parent;
            debug_assert_ne!(start, NIL, "the root's region admits every point");
        }
        if self.nodes[id as usize].is_childless() {
            self.relocate(id, start, pos);
        } else {
            // The node splits its subtree and must stay as structure.
            self.nodes[id as usize].handle = NIL;
            self.tombstones += 1;
            self.by_key.remove(&key);
            self.insert_from(start, key, pos, handle);
            self.maybe_rebuild();
        }
        Some((handle, old_pos))
    }

    /// The handle and position of `key`, when present (see
    /// [`PointQuadtree::upsert_handle`]).
    // lint:hot_path
    pub fn get_handle(&self, key: ObjectKey) -> Option<(u32, Point)> {
        self.by_key.get(&key).map(|&id| {
            let node = &self.nodes[id as usize];
            (node.handle, node.pos)
        })
    }

    /// Removes `key`, returning its handle and position when present
    /// (see [`PointQuadtree::upsert_handle`]).
    pub fn remove_handle(&mut self, key: ObjectKey) -> Option<(u32, Point)> {
        let id = self.by_key.remove(&key)?;
        let node = &mut self.nodes[id as usize];
        debug_assert!(node.is_live());
        let found = (node.handle, node.pos);
        if node.is_childless() {
            // Childless: unlink for real and reuse the slot.
            self.detach(id);
        } else {
            node.handle = NIL;
            self.tombstones += 1;
            self.maybe_rebuild();
        }
        Some(found)
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

    fn insert_node(&mut self, key: ObjectKey, pos: Point, handle: u32) {
        if self.root == NIL {
            let id = self.alloc(Node {
                key,
                split: pos,
                pos,
                children: [NIL; 4],
                parent: NIL,
                handle,
                bounds: QuadBounds::unbounded(),
            });
            self.root = id;
            self.by_key.insert(key, id);
        } else {
            self.insert_from(self.root, key, pos, handle);
        }
    }

    /// Inserts below `start`, whose region must contain `pos`. The
    /// first tombstone on the descent path is revived instead of
    /// allocating: the object lands on a shallow node with a large
    /// region — future in-place moves hit more often — and the
    /// tombstone pool is recycled instead of forcing rebuilds.
    fn insert_from(&mut self, start: u32, key: ObjectKey, pos: Point, handle: u32) {
        let mut cur = start;
        loop {
            let n = &mut self.nodes[cur as usize];
            if !n.is_live() {
                n.key = key;
                n.pos = pos;
                n.handle = handle;
                self.tombstones -= 1;
                self.by_key.insert(key, cur);
                return;
            }
            let q = Self::quadrant(n.split, pos);
            if n.children[q] != NIL {
                cur = n.children[q];
                continue;
            }
            let bounds = n.bounds.child(n.split, q);
            let node = Node { key, split: pos, pos, children: [NIL; 4], parent: cur, handle, bounds };
            let id = self.alloc(node);
            self.nodes[cur as usize].children[q] = id;
            self.by_key.insert(key, id);
            return;
        }
    }

    /// Moves the childless node `id` below `start` (whose region must
    /// contain `pos`): unlink, then re-link as a fresh leaf with
    /// `split = pos`. The arena slot, key, handle and `by_key` entry
    /// are all kept — a miss on the in-place fast path costs an ascent
    /// plus a short local descent instead of a removal and a root
    /// descent.
    fn relocate(&mut self, id: u32, start: u32, pos: Point) {
        debug_assert!(self.nodes[id as usize].is_childless());
        let parent = self.nodes[id as usize].parent;
        debug_assert_ne!(parent, NIL, "the root's region is unbounded and never relocates");
        self.nodes[parent as usize].unlink_child(id);
        let mut cur = start;
        loop {
            let n = &self.nodes[cur as usize];
            let q = Self::quadrant(n.split, pos);
            if n.children[q] != NIL {
                cur = n.children[q];
                continue;
            }
            let bounds = n.bounds.child(n.split, q);
            let node = &mut self.nodes[id as usize];
            node.split = pos;
            node.pos = pos;
            node.parent = cur;
            node.bounds = bounds;
            self.nodes[cur as usize].children[q] = id;
            return;
        }
    }

    /// Unlinks a childless node from its parent, frees its slot, and
    /// prunes tombstone ancestors that became childless in the process.
    fn detach(&mut self, mut id: u32) {
        loop {
            debug_assert!(self.nodes[id as usize].is_childless());
            let parent = self.nodes[id as usize].parent;
            self.nodes[id as usize].handle = NIL;
            self.free.push(id);
            if parent == NIL {
                self.root = NIL;
                return;
            }
            let pn = &mut self.nodes[parent as usize];
            pn.unlink_child(id);
            if !pn.is_live() && pn.is_childless() {
                // The tombstone no longer splits anything.
                self.tombstones -= 1;
                id = parent;
                continue;
            }
            return;
        }
    }

    /// Rebuilds the tree from live entries when tombstones dominate.
    ///
    /// Entries are re-inserted in a deterministic pseudo-shuffled order
    /// (by a mixed hash of the key) which yields expected O(log n)
    /// depth, like a randomized BST. Each entry keeps its handle.
    fn maybe_rebuild(&mut self) {
        if self.tombstones <= self.by_key.len() || self.tombstones < 64 {
            return;
        }
        let mut live: Vec<(ObjectKey, Point, u32)> = self
            .by_key
            .values()
            .map(|&id| {
                let n = &self.nodes[id as usize];
                (n.key, n.pos, n.handle)
            })
            .collect();
        live.sort_by_key(|(k, _, _)| mix64(*k));
        self.clear();
        for (k, p, h) in live {
            self.insert_node(k, p, h);
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
        let old = self.remove_handle(key).map(|(_, p)| p);
        self.insert_node(key, pos, 0);
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

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.by_key.clear();
        self.root = NIL;
        self.tombstones = 0;
    }

    /// Pre-order walk: a node, then its SW, SE, NW and NE subtrees,
    /// each visited only when the rectangle reaches that side of the
    /// node's split point.
    fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        let mut stack = WalkStack::new(self.root);
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.is_live() && rect.contains(node.pos) {
                sink(Entry::new(node.key, node.pos));
            }
            let west = rect.min().x < node.split.x;
            let east = rect.max().x >= node.split.x;
            let south = rect.min().y < node.split.y;
            let north = rect.max().y >= node.split.y;
            // Pushed last-visited first, so SW pops next.
            let c = node.children;
            if east && north {
                stack.push(c[NE]);
            }
            if west && north {
                stack.push(c[NW]);
            }
            if east && south {
                stack.push(c[SE]);
            }
            if west && south {
                stack.push(c[SW]);
            }
        }
    }

    /// Branch-and-bound, pre-order: the quadrant containing `p` first
    /// for early pruning, and a subtree whose region (its root's cached
    /// `bounds`) lies farther than the best so far is skipped when it
    /// comes off the stack. Every node's data position lies inside its
    /// region (the in-place update invariant), so region pruning stays
    /// sound.
    fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Option<(Entry, f64)> {
        let mut best: Option<(Entry, f64)> = None;
        let mut stack = WalkStack::new(self.root);
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if let Some((_, d)) = best {
                if node.bounds.min_distance(p) > d {
                    continue;
                }
            }
            if node.is_live() {
                // Rank first: the filter (a visitor probe at a leaf) runs
                // only on an entry that would replace the current best.
                let cand = (Entry::new(node.key, node.pos), p.distance(node.pos));
                let beats = best.as_ref().is_none_or(|b| candidate_cmp(&cand, b).is_lt());
                if beats && filter(node.key) {
                    best = Some(cand);
                }
            }
            let first = Self::quadrant(node.split, p);
            for q in [first ^ 3, first ^ 2, first ^ 1, first] {
                stack.push(node.children[q]);
            }
        }
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
            if node.is_live() {
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

    /// Bytes-per-object ceiling: one arena node per live object.
    #[test]
    fn node_fits_in_96_bytes() {
        assert!(std::mem::size_of::<Node>() <= 96, "Node is {} B", std::mem::size_of::<Node>());
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
        // Long jumps leave their regions: relocations, tombstone
        // re-inserts and (with the removals) several rebuilds.
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
        for step in 0..40_000usize {
            let k = step % live as usize;
            let angle = lcg(&mut rng) * std::f64::consts::TAU;
            pos[k] = Point::new(pos[k].x + 15.0 * angle.cos(), pos[k].y + 15.0 * angle.sin());
            t.update(k as u64, pos[k]);
            assert!(t.nodes.len() <= 2 * t.len() + 64, "arena {} for {} live", t.nodes.len(), t.len());
        }
        for (k, p) in pos.iter().enumerate() {
            assert_eq!(t.get(k as u64), Some(*p));
        }
    }

    /// Appends `n` points along a rising line. Each lands NE of every
    /// earlier one, so the tree is one chain as deep as `n`. The
    /// descent starts at the chain's end (whose region holds the next
    /// point, and which a root descent would reach anyway), keeping the
    /// build O(n) instead of O(n²).
    fn chain(n: u64) -> PointQuadtree {
        let mut t = PointQuadtree::new();
        t.insert(0, Point::ORIGIN);
        for k in 1..n {
            let end = t.by_key[&(k - 1)];
            t.insert_from(end, k, Point::new(k as f64, k as f64 * 0.5), 0);
        }
        t
    }

    #[test]
    fn chain_builder_matches_plain_inserts() {
        let mut plain = PointQuadtree::new();
        for k in 0..300u64 {
            plain.insert(k, Point::new(k as f64, k as f64 * 0.5));
        }
        let built = chain(300);
        assert_eq!(format!("{:?}", built.nodes), format!("{:?}", plain.nodes));
        assert_eq!(built.height(), 300);
    }

    /// Walks are loops over an explicit stack: a 100 000-deep chain is
    /// queried on a thread with a 2 MiB stack (the std default for
    /// spawned threads, and so for shard threads). Recursive walks
    /// overflowed that stack and aborted the process.
    #[test]
    fn deep_chain_queries_do_not_overflow_a_2_mib_stack() {
        let n = 100_000u64;
        let t = chain(n);
        let walk = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                assert_eq!(t.height(), n as usize);
                let mut all = 0u64;
                t.query_rect(&Rect::new(Point::ORIGIN, Point::new(n as f64, n as f64)), &mut |_| all += 1);
                assert_eq!(all, n);
                let mut tail = Vec::new();
                let far = (n - 3) as f64;
                t.query_rect(&Rect::new(Point::new(far, 0.0), Point::new(n as f64, n as f64)), &mut |e| {
                    tail.push(e.key)
                });
                assert_eq!(tail, vec![n - 3, n - 2, n - 1]);
                let end = Point::new(n as f64, n as f64 * 0.5);
                let (e, _) = t.nearest_where(end, &mut |k| k % 2 == 0).unwrap();
                assert_eq!(e.key, n - 2);
                let keys: Vec<u64> =
                    t.k_nearest_where(end, 3, &mut |_| true).iter().map(|(e, _)| e.key).collect();
                assert_eq!(keys, vec![n - 1, n - 2, n - 3]);
            })
            .unwrap();
        walk.join().expect("deep-chain walks completed on a 2 MiB stack");
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
