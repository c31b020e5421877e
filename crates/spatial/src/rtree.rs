//! R-tree with quadratic split (Guttman) — the paper's cited alternative.

use crate::{distance_cmp, Entry, ObjectKey, SpatialIndex};
use hiloc_geo::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
// lint:allow(determinism) import for the lookup-only key map annotated below
use std::collections::HashMap;

/// Maximum entries per node.
const MAX_ENTRIES: usize = 8;
/// Minimum entries per node (Guttman recommends M/2 or less).
const MIN_ENTRIES: usize = 3;

#[derive(Debug, Clone)]
enum Node {
    Leaf { entries: Vec<Entry> },
    Internal { children: Vec<(Rect, u32)> },
}

/// An R-tree over points with Guttman's quadratic split.
///
/// The paper names the R-tree (Guttman 1984) as the alternative spatial
/// index for the sighting database; hiloc ships it as a baseline for
/// the [`crate::PointQuadtree`] the sighting database uses.
///
/// # Example
///
/// ```
/// use hiloc_geo::{Point, Rect};
/// use hiloc_spatial::{RTree, SpatialIndex};
///
/// let mut t = RTree::new();
/// for i in 0..50u64 {
///     t.insert(i, Point::new((i % 10) as f64, (i / 10) as f64));
/// }
/// let mut count = 0;
/// t.query_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0)), &mut |_| count += 1);
/// assert_eq!(count, 25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RTree {
    nodes: Vec<Node>,
    root: Option<u32>,
    // lint:allow(determinism) O(1) lookups for get, update and remove; never iterated
    by_key: HashMap<ObjectKey, Point>,
    free: Vec<u32>,
}

impl RTree {
    /// Creates an empty R-tree.
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn node_rect(&self, id: u32) -> Rect {
        match &self.nodes[id as usize] {
            Node::Leaf { entries } => {
                Rect::bounding(entries.iter().map(|e| e.pos)).expect("leaf not empty")
            }
            Node::Internal { children } => {
                let mut it = children.iter();
                let first = it.next().expect("internal not empty").0;
                it.fold(first, |acc, (r, _)| acc.union(r))
            }
        }
    }

    /// Inserts recursively; on overflow returns the id of a new sibling
    /// produced by splitting, together with both updated rects.
    fn insert_rec(&mut self, id: u32, entry: Entry) -> Option<(Rect, u32, Rect)> {
        match &mut self.nodes[id as usize] {
            Node::Leaf { entries } => {
                entries.push(entry);
                if entries.len() <= MAX_ENTRIES {
                    return None;
                }
                // Quadratic split of leaf entries.
                let all = std::mem::take(entries);
                let (a, b) = quadratic_split_entries(all);
                self.nodes[id as usize] = Node::Leaf { entries: a };
                let sib = self.alloc(Node::Leaf { entries: b });
                Some((self.node_rect(id), sib, self.node_rect(sib)))
            }
            Node::Internal { children } => {
                // Choose the child needing least enlargement.
                let mut best = 0usize;
                let mut best_cost = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (r, _)) in children.iter().enumerate() {
                    let enlarged = r.union(&Rect::new(entry.pos, entry.pos));
                    let cost = enlarged.area() - r.area();
                    if cost < best_cost || (cost == best_cost && r.area() < best_area) {
                        best = i;
                        best_cost = cost;
                        best_area = r.area();
                    }
                }
                let child_id = children[best].1;
                let split = self.insert_rec(child_id, entry);
                let Node::Internal { children } = &mut self.nodes[id as usize] else {
                    unreachable!()
                };
                match split {
                    None => {
                        // Just grow the child's rect.
                        let r = children[best].0.union(&Rect::new(entry.pos, entry.pos));
                        children[best].0 = r;
                        None
                    }
                    Some((left_rect, sib, sib_rect)) => {
                        children[best].0 = left_rect;
                        children.push((sib_rect, sib));
                        if children.len() <= MAX_ENTRIES {
                            return None;
                        }
                        let all = std::mem::take(children);
                        let (a, b) = quadratic_split_children(all);
                        self.nodes[id as usize] = Node::Internal { children: a };
                        let new_sib = self.alloc(Node::Internal { children: b });
                        Some((self.node_rect(id), new_sib, self.node_rect(new_sib)))
                    }
                }
            }
        }
    }

    /// Removes `key` at `pos`; collects entries of underfull nodes into
    /// `orphans` for reinsertion. Returns `(removed, node_now_empty)`.
    fn remove_rec(
        &mut self,
        id: u32,
        key: ObjectKey,
        pos: Point,
        orphans: &mut Vec<Entry>,
    ) -> (bool, bool) {
        match &mut self.nodes[id as usize] {
            Node::Leaf { entries } => {
                let before = entries.len();
                entries.retain(|e| e.key != key);
                let removed = entries.len() != before;
                (removed, entries.is_empty())
            }
            Node::Internal { children } => {
                let candidates: Vec<(usize, u32)> = children
                    .iter()
                    .enumerate()
                    .filter(|(_, (r, _))| r.contains(pos))
                    .map(|(i, (_, c))| (i, *c))
                    .collect();
                for (i, child_id) in candidates {
                    let (removed, child_empty) = self.remove_rec(child_id, key, pos, orphans);
                    if !removed {
                        continue;
                    }
                    // Check underflow and recompute rects.
                    let underfull = !child_empty && self.child_len(child_id) < MIN_ENTRIES;
                    if child_empty || underfull {
                        if underfull {
                            self.collect_entries(child_id, orphans);
                        }
                        self.free_subtree(child_id);
                        let Node::Internal { children } = &mut self.nodes[id as usize] else {
                            unreachable!()
                        };
                        children.remove(i);
                        let empty = children.is_empty();
                        return (true, empty);
                    }
                    let new_rect = self.node_rect(child_id);
                    let Node::Internal { children } = &mut self.nodes[id as usize] else {
                        unreachable!()
                    };
                    children[i].0 = new_rect;
                    return (true, false);
                }
                (false, false)
            }
        }
    }

    fn child_len(&self, id: u32) -> usize {
        match &self.nodes[id as usize] {
            Node::Leaf { entries } => entries.len(),
            Node::Internal { children } => children.len(),
        }
    }

    fn collect_entries(&self, id: u32, out: &mut Vec<Entry>) {
        match &self.nodes[id as usize] {
            Node::Leaf { entries } => out.extend_from_slice(entries),
            Node::Internal { children } => {
                for (_, c) in children {
                    self.collect_entries(*c, out);
                }
            }
        }
    }

    fn free_subtree(&mut self, id: u32) {
        if let Node::Internal { children } = self.nodes[id as usize].clone() {
            for (_, c) in children {
                self.free_subtree(c);
            }
        }
        self.nodes[id as usize] = Node::Leaf { entries: Vec::new() };
        self.free.push(id);
    }

    /// Tries to rewrite `key`'s entry in place for a move `old_pos →
    /// new_pos`. `enclosing` is the MBR stored for the current subtree
    /// at its parent (`None` at the root, which has no stored MBR).
    /// In-place rewriting is sound exactly when the new point stays
    /// inside that MBR: every ancestor rectangle still covers it, so no
    /// bounding box needs to grow or shrink.
    fn update_probe(
        &mut self,
        id: u32,
        key: ObjectKey,
        old_pos: Point,
        new_pos: Point,
        enclosing: Option<Rect>,
    ) -> UpdateProbe {
        // The leaf arm resolves in place; the internal arm falls
        // through to indexed iteration (the recursion needs `&mut
        // self`, and this probe runs once per position update — it
        // must not allocate).
        let child_count = match &mut self.nodes[id as usize] {
            Node::Leaf { entries } => {
                return match entries.iter_mut().find(|e| e.key == key) {
                    Some(e) if enclosing.map(|r| r.contains(new_pos)).unwrap_or(true) => {
                        e.pos = new_pos;
                        UpdateProbe::Done
                    }
                    Some(_) => UpdateProbe::NeedsReinsert,
                    None => UpdateProbe::NotHere,
                };
            }
            Node::Internal { children } => children.len(),
        };
        for i in 0..child_count {
            let (rect, child) = match &self.nodes[id as usize] {
                Node::Internal { children } => children[i],
                Node::Leaf { .. } => unreachable!("node kind is stable"),
            };
            if !rect.contains(old_pos) {
                continue;
            }
            match self.update_probe(child, key, old_pos, new_pos, Some(rect)) {
                UpdateProbe::NotHere => continue,
                done_or_reinsert => return done_or_reinsert,
            }
        }
        UpdateProbe::NotHere
    }

    fn query_rec(&self, id: u32, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        match &self.nodes[id as usize] {
            Node::Leaf { entries } => {
                for e in entries {
                    if rect.contains(e.pos) {
                        sink(*e);
                    }
                }
            }
            Node::Internal { children } => {
                for (r, c) in children {
                    if r.intersects(rect) {
                        self.query_rec(*c, rect, sink);
                    }
                }
            }
        }
    }
}

/// Outcome of an in-place update attempt.
enum UpdateProbe {
    /// The key is not in this subtree.
    NotHere,
    /// The entry was rewritten in place.
    Done,
    /// The entry was found, but the move escapes its leaf MBR.
    NeedsReinsert,
}

/// Max-heap item ordered by *descending* distance so the BinaryHeap pops
/// the closest candidate first.
struct HeapItem {
    dist: f64,
    tie_key: u64,
    kind: HeapKind,
}

enum HeapKind {
    Node(u32),
    Entry(Entry),
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.tie_key == other.tie_key
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller distance = greater priority. Ties: smaller key first.
        distance_cmp(other.dist, self.dist).then_with(|| other.tie_key.cmp(&self.tie_key))
    }
}

impl SpatialIndex for RTree {
    fn insert(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        let old = self.remove(key);
        self.by_key.insert(key, pos);
        let entry = Entry::new(key, pos);
        match self.root {
            None => {
                let id = self.alloc(Node::Leaf { entries: vec![entry] });
                self.root = Some(id);
            }
            Some(root) => {
                if let Some((left_rect, sib, sib_rect)) = self.insert_rec(root, entry) {
                    let new_root = self.alloc(Node::Internal {
                        children: vec![(left_rect, root), (sib_rect, sib)],
                    });
                    self.root = Some(new_root);
                }
            }
        }
        old
    }

    // lint:hot_path
    fn update(&mut self, key: ObjectKey, pos: Point) -> Option<Point> {
        let Some(&old_pos) = self.by_key.get(&key) else {
            return self.insert(key, pos);
        };
        let root = self.root.expect("keyed entry implies a root");
        match self.update_probe(root, key, old_pos, pos, None) {
            UpdateProbe::Done => {
                self.by_key.insert(key, pos);
                Some(old_pos)
            }
            _ => self.insert(key, pos),
        }
    }

    fn remove(&mut self, key: ObjectKey) -> Option<Point> {
        let pos = self.by_key.remove(&key)?;
        let root = self.root.expect("non-empty tree has a root");
        let mut orphans = Vec::new();
        let (removed, root_empty) = self.remove_rec(root, key, pos, &mut orphans);
        debug_assert!(removed, "by_key and tree out of sync");
        if root_empty {
            self.free_subtree(root);
            self.root = None;
        } else if let Node::Internal { children } = &self.nodes[root as usize] {
            // Collapse a root with a single child.
            if children.len() == 1 {
                let child = children[0].1;
                self.nodes[root as usize] = Node::Leaf { entries: Vec::new() };
                self.free.push(root);
                self.root = Some(child);
            }
        }
        for e in orphans {
            // Reinsert via the public path (key is already out of by_key
            // maps only for `key`; orphans keep theirs).
            let root = match self.root {
                None => {
                    let id = self.alloc(Node::Leaf { entries: vec![e] });
                    self.root = Some(id);
                    continue;
                }
                Some(r) => r,
            };
            if let Some((left_rect, sib, sib_rect)) = self.insert_rec(root, e) {
                let new_root = self.alloc(Node::Internal {
                    children: vec![(left_rect, root), (sib_rect, sib)],
                });
                self.root = Some(new_root);
            }
        }
        Some(pos)
    }

    fn get(&self, key: ObjectKey) -> Option<Point> {
        self.by_key.get(&key).copied()
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }

    fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        if let Some(root) = self.root {
            self.query_rec(root, rect, sink);
        }
    }

    /// Best-first search: nodes and entries share one heap ordered by
    /// distance (ties by key), so the first entry popped is the nearest.
    fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(ObjectKey) -> bool,
    ) -> Option<(Entry, f64)> {
        let root = self.root?;
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            dist: self.node_rect(root).distance_to_point(p),
            tie_key: 0,
            kind: HeapKind::Node(root),
        });
        while let Some(item) = heap.pop() {
            match item.kind {
                HeapKind::Entry(e) => return Some((e, item.dist)),
                HeapKind::Node(id) => match &self.nodes[id as usize] {
                    Node::Leaf { entries } => {
                        for e in entries {
                            if filter(e.key) {
                                heap.push(HeapItem {
                                    dist: p.distance(e.pos),
                                    tie_key: e.key,
                                    kind: HeapKind::Entry(*e),
                                });
                            }
                        }
                    }
                    Node::Internal { children } => {
                        for (r, c) in children {
                            heap.push(HeapItem {
                                dist: r.distance_to_point(p),
                                tie_key: 0,
                                kind: HeapKind::Node(*c),
                            });
                        }
                    }
                },
            }
        }
        None
    }
}

/// Guttman's quadratic split for leaf entries.
fn quadratic_split_entries(all: Vec<Entry>) -> (Vec<Entry>, Vec<Entry>) {
    let rects: Vec<Rect> = all.iter().map(|e| Rect::new(e.pos, e.pos)).collect();
    let (ga, gb) = quadratic_split_indices(&rects);
    split_by_indices(&all, &ga, &gb)
}

/// An internal node's child entry: bounding rect + node id.
type ChildEntry = (Rect, u32);

/// Guttman's quadratic split for internal children.
fn quadratic_split_children(all: Vec<ChildEntry>) -> (Vec<ChildEntry>, Vec<ChildEntry>) {
    let rects: Vec<Rect> = all.iter().map(|(r, _)| *r).collect();
    let (ga, gb) = quadratic_split_indices(&rects);
    split_by_indices(&all, &ga, &gb)
}

/// Copies `items` into the two groups selected by the index sets.
fn split_by_indices<T: Clone>(items: &[T], ga: &[usize], gb: &[usize]) -> (Vec<T>, Vec<T>) {
    let a = ga.iter().map(|&i| items[i].clone()).collect();
    let b = gb.iter().map(|&i| items[i].clone()).collect();
    (a, b)
}

/// Chooses seed pair with maximal dead area, then assigns each remaining
/// rect to the group whose bounding rect grows least. Returns the index
/// sets of the two groups.
fn quadratic_split_indices(rects: &[Rect]) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2);
    // Pick seeds: pair with the largest wasted area when combined.
    let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut rect_a = rects[seed_a];
    let mut rect_b = rects[seed_b];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();

    while let Some(pos) = pick_next(&remaining, &rect_a, &rect_b, rects) {
        let idx = remaining.swap_remove(pos);
        // Force balance so both groups reach MIN_ENTRIES.
        let need_a = MIN_ENTRIES.saturating_sub(group_a.len());
        let need_b = MIN_ENTRIES.saturating_sub(group_b.len());
        let left = remaining.len() + 1;
        let to_a = if left == need_a {
            true
        } else if left == need_b {
            false
        } else {
            let grow_a = rect_a.union(&rects[idx]).area() - rect_a.area();
            let grow_b = rect_b.union(&rects[idx]).area() - rect_b.area();
            grow_a < grow_b || (grow_a == grow_b && group_a.len() <= group_b.len())
        };
        if to_a {
            group_a.push(idx);
            rect_a = rect_a.union(&rects[idx]);
        } else {
            group_b.push(idx);
            rect_b = rect_b.union(&rects[idx]);
        }
    }
    (group_a, group_b)
}

/// Guttman's PickNext: the rect with the greatest preference difference.
fn pick_next(remaining: &[usize], rect_a: &Rect, rect_b: &Rect, rects: &[Rect]) -> Option<usize> {
    if remaining.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_diff = f64::NEG_INFINITY;
    for (i, &idx) in remaining.iter().enumerate() {
        let grow_a = rect_a.union(&rects[idx]).area() - rect_a.area();
        let grow_b = rect_b.union(&rects[idx]).area() - rect_b.area();
        let diff = (grow_a - grow_b).abs();
        if diff > best_diff {
            best_diff = diff;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_within_leaf_mbr_is_in_place() {
        let mut t = RTree::new();
        for i in 0..20u64 {
            t.insert(i, Point::new((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0));
        }
        // Nudge every object slightly — stays inside leaf MBRs for most;
        // either path must keep queries exact.
        for i in 0..20u64 {
            let p = t.get(i).unwrap();
            let moved = Point::new(p.x + 0.5, p.y + 0.5);
            assert_eq!(t.update(i, moved), Some(p));
            assert_eq!(t.get(i), Some(moved));
        }
        let mut count = 0;
        t.query_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)), &mut |_| {
            count += 1
        });
        assert_eq!(count, 20);
        // A long-distance move must relocate, not stretch a stale MBR.
        let old = t.get(0).unwrap();
        assert_eq!(t.update(0, Point::new(500.0, 500.0)), Some(old));
        let mut hits = Vec::new();
        t.query_rect(&Rect::new(Point::new(499.0, 499.0), Point::new(501.0, 501.0)), &mut |e| {
            hits.push(e.key)
        });
        assert_eq!(hits, vec![0]);
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn update_absent_key_inserts() {
        let mut t = RTree::new();
        assert_eq!(t.update(3, Point::new(1.0, 1.0)), None);
        assert_eq!(t.get(3), Some(Point::new(1.0, 1.0)));
    }

    #[test]
    fn split_indices_cover_all() {
        let rects: Vec<Rect> = (0..10)
            .map(|i| {
                let p = Point::new(i as f64, (i * 3 % 7) as f64);
                Rect::new(p, p)
            })
            .collect();
        let (a, b) = quadratic_split_indices(&rects);
        assert!(a.len() >= MIN_ENTRIES);
        assert!(b.len() >= MIN_ENTRIES);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }
}
