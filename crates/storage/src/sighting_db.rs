//! The volatile main-memory sighting database.
//!
//! Rebuilt for the allocation-free update hot path: records live in a
//! slab arena (dense `u32` slots with a free list) and soft-state
//! expiry is tracked by a coarse-bucket expiry wheel instead of an
//! unbounded lazy-deletion heap. The quadtree holds each object's key
//! and position once, and its key map is the only one: a bucket entry
//! carries its record's slab slot as a handle. In steady state a
//! position update makes one hash probe, moves the entry in place
//! within its cell, rewrites the slot and at most pushes one wheel
//! entry — no per-update allocation once the arena and buckets are
//! warm.

use hiloc_geo::{Point, Rect, Region};
use hiloc_spatial::{Entry, PointQuadtree, SpatialIndex};
use std::collections::BTreeMap;

/// A sighting record as stored by a leaf location server.
///
/// Mirrors the paper's `s ∈ S`: object identifier, timestamp, position
/// and sensor accuracy — plus the soft-state expiration deadline that
/// the paper attaches to every stored sighting ("each sighting record is
/// associated with an expiration date, which is extended accordingly
/// whenever the visitor contacts the location server").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredSighting {
    /// Object key (the service's object identifier).
    pub key: u64,
    /// Position in the local planar frame at `time_us`.
    pub pos: Point,
    /// Timestamp of the sighting, microseconds on the service clock.
    pub time_us: u64,
    /// Sensor accuracy in meters (worst-case deviation at `time_us`).
    pub acc_sens_m: f64,
    /// Soft-state deadline: the record expires at this service time.
    pub expires_us: u64,
}

/// Expiry-wheel bucket width: deadlines are grouped into `2^22` µs
/// (≈ 4.2 s) buckets. Coarse buckets keep the wheel dense — soft-state
/// TTLs are tens to hundreds of seconds — and make the classic wheel
/// no-op kick in: a refresh whose new deadline lands in the bucket
/// already scheduled for the record performs **zero** wheel work. The
/// record's exact deadline always lives in its slot, so expiry remains
/// microsecond-precise.
const WHEEL_SHIFT: u32 = 22;

/// Below this many wheel entries, stale-entry compaction is not worth
/// the rebuild.
const WHEEL_COMPACT_FLOOR: usize = 64;

/// One slab slot: a record less its position, which the quadtree's
/// bucket entry holds. `gen` is bumped whenever the slot's wheel entry is
/// superseded (a reschedule into a different bucket, or a removal), so
/// entries minted for an earlier state of the slot — or for a previous
/// occupant after slot reuse — are recognizably stale. The slot's
/// current (gen-matching) wheel entry sits in the bucket of
/// `expires_us`; a refresh into the same bucket keeps the entry and
/// touches nothing.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    time_us: u64,
    acc_sens_m: f64,
    expires_us: u64,
    gen: u32,
    live: bool,
}

impl Slot {
    fn record(&self, pos: Point) -> StoredSighting {
        StoredSighting {
            key: self.key,
            pos,
            time_us: self.time_us,
            acc_sens_m: self.acc_sens_m,
            expires_us: self.expires_us,
        }
    }

    fn set(&mut self, s: &StoredSighting) {
        self.key = s.key;
        self.time_us = s.time_us;
        self.acc_sens_m = s.acc_sens_m;
        self.expires_us = s.expires_us;
    }
}

/// One expiry-wheel entry: the `(slot, gen)` pair it was minted for.
/// The exact deadline is read from the slot at expiry time (a
/// same-bucket refresh updates the deadline without touching the
/// entry).
#[derive(Debug, Clone, Copy)]
struct WheelEntry {
    slot: u32,
    gen: u32,
}

/// One wheel bucket: its entries plus a cached lower bound on their
/// current deadlines, so [`SightingDb::next_expiry`] is O(1) instead
/// of scanning the bucket. The bound may be stale-early (an entry
/// refreshed to a later deadline within the bucket does not raise it)
/// but never stale-late: deadlines only move forward without a push
/// (the same-bucket skip requires it), and `expire_due` recomputes the
/// bound from the kept entries whenever it scans the bucket.
#[derive(Debug, Default)]
struct Bucket {
    entries: Vec<WheelEntry>,
    min_us: u64,
}

/// The main-memory database of sighting records kept by a leaf server.
///
/// Combines the paper's three volatile structures (§5, Fig. 7):
///
/// * a **quadtree** over positions — candidates for range and
///   nearest-neighbor queries. The paper used a point quadtree; this
///   one is a bucketed region quadtree, whose shape insertion order
///   cannot skew (see [`PointQuadtree`]);
/// * a **hash index** over object identifiers — position queries. It is
///   the quadtree's own key map: each entry carries the slab slot of
///   its record;
/// * **expiration** tracking implementing the soft-state principle.
///
/// Everything lives in volatile memory by design; after a crash the
/// database is rebuilt from incoming position updates (the paper
/// measures exactly this rebuild in Table 1's "creating index" row).
///
/// # Memory bound
///
/// The slab never holds more slots than the peak number of live
/// records, and the wheel is compacted whenever stale entries would
/// push it past **2× the live-record count** — so memory is bounded by
/// the live population, not by the total number of updates ever
/// received (the pre-slab lazy-deletion heap grew with the latter).
///
/// # Determinism
///
/// Expiry delivers records sorted by `(deadline, key)`, and wheel
/// compaction rebuilds from the slots in arena order, so two runs that
/// issue the same operations observe identical orders — a property the
/// deterministic chaos harness relies on.
///
/// # Example
///
/// ```
/// use hiloc_geo::{Point, Rect};
/// use hiloc_storage::{SightingDb, StoredSighting};
///
/// let mut db = SightingDb::new_quadtree();
/// for i in 0..10u64 {
///     db.upsert(StoredSighting {
///         key: i,
///         pos: Point::new(i as f64 * 10.0, 0.0),
///         time_us: 0,
///         acc_sens_m: 5.0,
///         expires_us: 1_000_000,
///     });
/// }
/// let mut in_range = 0;
/// db.query_rect(&Rect::new(Point::new(0.0, -1.0), Point::new(45.0, 1.0)), &mut |_| in_range += 1);
/// assert_eq!(in_range, 5);
/// ```
pub struct SightingDb {
    /// Key → (position, slot): the spatial index and, through its entry
    /// handles, the key → slot map. Touched once per update.
    index: PointQuadtree,
    /// The slab arena; slots are reused through `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// The expiry wheel: bucket index (`deadline >> WHEEL_SHIFT`) →
    /// entries. A `BTreeMap` keeps bucket order deterministic and
    /// handles arbitrarily distant deadlines without a fixed horizon.
    wheel: BTreeMap<u64, Bucket>,
    /// Total entries across all buckets (live + not-yet-purged stale).
    wheel_len: usize,
}

impl std::fmt::Debug for SightingDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SightingDb")
            .field("records", &self.index.len())
            .field("pending_expiries", &self.wheel_len)
            .finish()
    }
}

/// The slot index for a slab about to grow past `len` slots.
///
/// Slot indices are `u32` (half the per-record footprint of `usize` in
/// the wheel and free list). `u32::MAX` itself is refused too, so the
/// slab's length, one past its last index, always fits in a `u32` as
/// well. A plain `as u32` would silently wrap
/// once the slab crosses 2³² slots and corrupt the free list / expiry
/// wheel by aliasing slot 0 — detect it and fail loudly instead. One
/// leaf holding 4 billion live sightings is far beyond any deployment
/// this crate targets (the macro benchmark asserts capacity headroom at
/// setup); the right fix at that scale is sharding the leaf, not wider
/// indices.
fn checked_slot_index(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(slot) if slot != u32::MAX => slot,
        _ => panic!(
            "SightingDb slab reached {} slots — u32 slot indices would wrap \
             and corrupt the free list; shard this leaf's service area instead",
            u32::MAX
        ),
    }
}

impl SightingDb {
    /// Creates a database indexed by a [`PointQuadtree`] (the paper's
    /// choice).
    pub fn new_quadtree() -> Self {
        SightingDb {
            index: PointQuadtree::new(),
            slots: Vec::new(),
            free: Vec::new(),
            wheel: BTreeMap::new(),
            wheel_len: 0,
        }
    }

    /// Inserts or replaces the sighting for `s.key`, returning the
    /// previous record (a position update).
    // lint:hot_path
    pub fn upsert(&mut self, s: StoredSighting) -> Option<StoredSighting> {
        let bucket = s.expires_us >> WHEEL_SHIFT;
        // The slot a new key takes: the free list's top, else a fresh one.
        let vacant = match self.free.last() {
            Some(&slot) => slot,
            None => checked_slot_index(self.slots.len()),
        };
        let old = if let Some((slot, old_pos)) = self.index.upsert_handle(s.key, s.pos, vacant) {
            // Steady-state refresh: the index moved in place when the
            // motion is local; rewrite the slot. When the new deadline
            // stays in the already-scheduled bucket — the common case
            // for TTL refreshes under a sustained update stream — the
            // wheel is not touched at all.
            let sl = &mut self.slots[slot as usize];
            debug_assert!(sl.live && sl.key == s.key);
            let old = sl.record(old_pos);
            sl.set(&s);
            // The skip also requires a non-shrinking deadline (the
            // TTL-refresh case), so bucket min bounds stay safe-early.
            if old.expires_us >> WHEEL_SHIFT != bucket || s.expires_us < old.expires_us {
                sl.gen = sl.gen.wrapping_add(1);
                let gen = sl.gen;
                self.wheel_push(bucket, slot, gen, s.expires_us);
            }
            Some(old)
        } else {
            if self.free.pop().is_some() {
                let sl = &mut self.slots[vacant as usize];
                sl.set(&s);
                sl.live = true;
            } else {
                self.slots.push(Slot {
                    key: s.key,
                    time_us: s.time_us,
                    acc_sens_m: s.acc_sens_m,
                    expires_us: s.expires_us,
                    gen: 0,
                    live: true,
                });
            }
            let gen = self.slots[vacant as usize].gen;
            self.wheel_push(bucket, vacant, gen, s.expires_us);
            None
        };
        self.maybe_compact_wheel();
        old
    }

    /// The sighting for `key`, when present (the hash-index path used by
    /// position queries).
    // lint:hot_path
    pub fn get(&self, key: u64) -> Option<StoredSighting> {
        let (slot, pos) = self.index.get_handle(key)?;
        Some(self.slots[slot as usize].record(pos))
    }

    /// Removes the sighting for `key`.
    pub fn remove(&mut self, key: u64) -> Option<StoredSighting> {
        let (slot, pos) = self.index.remove_handle(key)?;
        let sl = &mut self.slots[slot as usize];
        debug_assert!(sl.live);
        sl.live = false;
        // Invalidate any wheel entry still pointing here, including
        // after the slot is handed to a different key.
        sl.gen = sl.gen.wrapping_add(1);
        let rec = sl.record(pos);
        self.free.push(slot);
        self.maybe_compact_wheel();
        Some(rec)
    }

    /// Number of live sightings.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no sightings are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of expiry-wheel entries currently held (live + stale).
    /// Compaction keeps this at most twice [`SightingDb::len`] (plus
    /// the small compaction floor) — the memory-bound regression tests
    /// read it.
    pub fn expiry_entries(&self) -> usize {
        self.wheel_len
    }

    /// Number of slab slots ever allocated (live + free-listed): the
    /// arena footprint, bounded by the peak live population.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    // lint:hot_path
    fn wheel_push(&mut self, bucket: u64, slot: u32, gen: u32, expires_us: u64) {
        let b = self.wheel.entry(bucket).or_insert_with(|| Bucket {
            entries: Vec::new(), // lint:allow(hot_path) amortized: one empty bucket per wheel slot, reused for its lifetime
            min_us: u64::MAX,
        });
        b.entries.push(WheelEntry { slot, gen });
        b.min_us = b.min_us.min(expires_us);
        self.wheel_len += 1;
    }

    /// Compacts stale wheel entries whenever they would push the wheel
    /// past 2× the live-record count: rebuilds the buckets from the
    /// live slots in arena order (deterministic), restoring the
    /// one-entry-per-record invariant.
    fn maybe_compact_wheel(&mut self) {
        if self.wheel_len <= WHEEL_COMPACT_FLOOR.max(2 * self.index.len()) {
            return;
        }
        self.wheel.clear();
        self.wheel_len = 0;
        for slot in 0..self.slots.len() as u32 {
            let sl = self.slots[slot as usize];
            if sl.live {
                self.wheel_push(sl.expires_us >> WHEEL_SHIFT, slot, sl.gen, sl.expires_us);
            }
        }
    }

    /// Pops and returns every sighting whose deadline is at or before
    /// `now_us` (soft-state expiry), in `(deadline, key)` order.
    /// Expired records are removed from all indexes; stale wheel
    /// entries encountered along the way are purged.
    pub fn expire_due(&mut self, now_us: u64) -> Vec<StoredSighting> {
        let due_bucket = now_us >> WHEEL_SHIFT;
        if self.wheel.range(..=due_bucket).next().is_none() {
            return Vec::new();
        }
        let buckets: Vec<u64> = self.wheel.range(..=due_bucket).map(|(b, _)| *b).collect();
        let mut due: Vec<(u64, u64)> = Vec::new();
        for b in buckets {
            let bucket = self.wheel.remove(&b).expect("bucket listed above");
            let mut keep = Vec::new();
            let mut keep_min = u64::MAX;
            for e in bucket.entries {
                let sl = &self.slots[e.slot as usize];
                if !(sl.live && sl.gen == e.gen) {
                    // Superseded by a rescheduling refresh or a removal.
                    self.wheel_len -= 1;
                    continue;
                }
                // The entry is current, so the slot's exact deadline
                // lives in this bucket.
                if sl.expires_us <= now_us {
                    self.wheel_len -= 1;
                    due.push((sl.expires_us, sl.key));
                } else {
                    // Same (boundary) bucket, deadline still ahead.
                    keep_min = keep_min.min(sl.expires_us);
                    keep.push(e);
                }
            }
            if !keep.is_empty() {
                // The recomputed bound is exact, so repeated
                // hint/expire rounds always advance past `now`.
                self.wheel.insert(b, Bucket { entries: keep, min_us: keep_min });
            }
        }
        due.sort_unstable();
        let mut out = Vec::with_capacity(due.len());
        for (_, key) in due {
            if let Some(rec) = self.remove(key) {
                out.push(rec);
            }
        }
        out
    }

    /// The earliest pending expiry deadline, when any sightings exist.
    ///
    /// May return a stale (earlier) deadline for records that were since
    /// refreshed; callers treat it as a wake-up hint, not a promise —
    /// the following [`SightingDb::expire_due`] purges the stale entry,
    /// so repeated hint/expire rounds always make progress.
    pub fn next_expiry(&self) -> Option<u64> {
        // The globally earliest deadline lives in the first non-empty
        // bucket (buckets partition the deadline axis), and its cached
        // lower bound is O(1) to read. It may be stale-early — entries
        // superseded or refreshed to later deadlines do not raise it —
        // which the contract allows, because the expire_due a hint
        // triggers rescans the bucket and tightens the bound.
        self.wheel.values().next().map(|b| b.min_us)
    }

    /// Invokes `sink` with the index entry `(key, pos)` of every
    /// sighting positioned inside `rect`.
    ///
    /// The walk reads the spatial index alone: an entry's position is
    /// always the slab record's (every upsert moves both), so callers
    /// that need more than the key and position read the record with
    /// [`SightingDb::get`].
    pub fn query_rect(&self, rect: &Rect, sink: &mut dyn FnMut(Entry)) {
        self.index.query_rect(rect, sink);
    }

    /// Invokes `sink` with the index entry of every *candidate* for a
    /// range query over `region`: all sightings within the region's
    /// bounding rectangle enlarged by `margin` meters (the paper's
    /// `Enlarge(area, reqAcc)` — an object's location area may poke
    /// outside the region by up to its accuracy). The caller applies
    /// the exact overlap predicate.
    pub fn range_candidates(&self, region: &Region, margin: f64, sink: &mut dyn FnMut(Entry)) {
        let probe = region.bounding_rect().enlarged(margin.max(0.0));
        self.query_rect(&probe, sink);
    }

    /// The index entry nearest to `p` among those whose key `filter`
    /// accepts, with its distance. The filter sees only entries that
    /// would beat the best found so far.
    pub fn nearest_where(
        &self,
        p: Point,
        filter: &mut dyn FnMut(u64) -> bool,
    ) -> Option<(Entry, f64)> {
        self.index.nearest_where(p, filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(key: u64, x: f64, y: f64, expires: u64) -> StoredSighting {
        StoredSighting { key, pos: Point::new(x, y), time_us: 0, acc_sens_m: 10.0, expires_us: expires }
    }

    #[test]
    fn upsert_get_remove() {
        let mut db = SightingDb::new_quadtree();
        assert!(db.upsert(s(1, 0.0, 0.0, 100)).is_none());
        let old = db.upsert(s(1, 5.0, 5.0, 200)).unwrap();
        assert_eq!(old.pos, Point::new(0.0, 0.0));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(1).unwrap().pos, Point::new(5.0, 5.0));
        assert!(db.remove(1).is_some());
        assert!(db.is_empty());
        assert!(db.remove(1).is_none());
    }

    #[test]
    fn expiry_in_deadline_order() {
        let mut db = SightingDb::new_quadtree();
        db.upsert(s(1, 0.0, 0.0, 300));
        db.upsert(s(2, 1.0, 0.0, 100));
        db.upsert(s(3, 2.0, 0.0, 200));
        assert_eq!(db.next_expiry(), Some(100));

        let expired = db.expire_due(150);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].key, 2);
        assert_eq!(db.len(), 2);

        let expired = db.expire_due(1_000);
        let keys: Vec<u64> = expired.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![3, 1], "expiry must deliver in (deadline, key) order");
        assert!(db.is_empty());
    }

    #[test]
    fn expiry_across_wheel_buckets() {
        let mut db = SightingDb::new_quadtree();
        // Deadlines spread over several 2^20 µs buckets, inserted out
        // of order.
        db.upsert(s(1, 0.0, 0.0, 5 << WHEEL_SHIFT));
        db.upsert(s(2, 1.0, 0.0, 1 << WHEEL_SHIFT));
        db.upsert(s(3, 2.0, 0.0, (1 << WHEEL_SHIFT) + 7));
        db.upsert(s(4, 3.0, 0.0, 3 << WHEEL_SHIFT));
        assert_eq!(db.next_expiry(), Some(1 << WHEEL_SHIFT));
        let expired = db.expire_due((1 << WHEEL_SHIFT) + 7);
        let keys: Vec<u64> = expired.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![2, 3]);
        let expired = db.expire_due(u64::MAX);
        let keys: Vec<u64> = expired.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![4, 1]);
    }

    #[test]
    fn refresh_extends_deadline() {
        let mut db = SightingDb::new_quadtree();
        db.upsert(s(1, 0.0, 0.0, 100));
        // Position update arrives; deadline extended (soft-state refresh).
        db.upsert(s(1, 1.0, 0.0, 500));
        let expired = db.expire_due(200);
        assert!(expired.is_empty(), "stale wheel entry must be skipped");
        assert_eq!(db.len(), 1);
        let expired = db.expire_due(600);
        assert_eq!(expired.len(), 1);
    }

    #[test]
    fn expiry_after_remove_is_noop() {
        let mut db = SightingDb::new_quadtree();
        db.upsert(s(1, 0.0, 0.0, 100));
        db.remove(1);
        assert!(db.expire_due(1_000).is_empty());
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_deadlines() {
        let mut db = SightingDb::new_quadtree();
        db.upsert(s(1, 0.0, 0.0, 100));
        db.remove(1);
        // Key 2 reuses key 1's slot with a much later deadline; the
        // stale (slot, gen) entry at t=100 must not expire it.
        db.upsert(s(2, 1.0, 1.0, 900));
        assert_eq!(db.slot_capacity(), 1, "slot must be reused");
        assert!(db.expire_due(500).is_empty());
        let expired = db.expire_due(1_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].key, 2);
    }

    #[test]
    fn wheel_memory_bounded_by_live_records() {
        let mut db = SightingDb::new_quadtree();
        let live = 100u64;
        // An update storm: 10 000 refreshes over 100 live records. The
        // pre-slab heap grew to ~10 000 entries here.
        for round in 0..100u64 {
            for key in 0..live {
                db.upsert(s(key, (key % 10) as f64, (key / 10) as f64, 1_000 + round));
            }
        }
        assert_eq!(db.len(), live as usize);
        assert!(
            db.expiry_entries() <= 2 * live as usize + WHEEL_COMPACT_FLOOR,
            "wheel grew to {} entries for {} live records",
            db.expiry_entries(),
            live
        );
        assert_eq!(db.slot_capacity(), live as usize, "slab bounded by peak live set");
        // And expiry still fires exactly once per live record.
        assert_eq!(db.expire_due(u64::MAX).len(), live as usize);
        assert_eq!(db.expiry_entries(), 0);
    }

    #[test]
    fn spatial_queries_see_current_positions() {
        let mut db = SightingDb::new_quadtree();
        db.upsert(s(1, 0.0, 0.0, 1_000));
        db.upsert(s(2, 100.0, 100.0, 1_000));
        db.upsert(s(1, 50.0, 50.0, 1_000)); // moved

        let mut hits = Vec::new();
        db.query_rect(&Rect::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0)), &mut |r| {
            hits.push(r.key)
        });
        assert!(hits.is_empty(), "old position must not linger in index");

        let (nearest, d) = db.nearest_where(Point::new(49.0, 50.0), &mut |_| true).unwrap();
        assert_eq!(nearest.key, 1);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_with_record_filter() {
        let mut db = SightingDb::new_quadtree();
        db.upsert(StoredSighting { key: 1, pos: Point::new(1.0, 0.0), time_us: 0, acc_sens_m: 100.0, expires_us: 1_000 });
        db.upsert(StoredSighting { key: 2, pos: Point::new(5.0, 0.0), time_us: 0, acc_sens_m: 5.0, expires_us: 1_000 });
        // Accuracy-threshold filter, as in the paper's reqAcc handling.
        let (e, _) = db
            .nearest_where(Point::ORIGIN, &mut |key| db.get(key).unwrap().acc_sens_m <= 10.0)
            .unwrap();
        assert_eq!(e.key, 2);
    }

    #[test]
    fn range_candidates_include_margin() {
        let mut db = SightingDb::new_quadtree();
        // Object just outside the region, but within the accuracy margin.
        db.upsert(s(1, 104.0, 50.0, 1_000));
        let region = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
        let mut without = Vec::new();
        db.range_candidates(&region, 0.0, &mut |r| without.push(r.key));
        assert!(without.is_empty());
        let mut with = Vec::new();
        db.range_candidates(&region, 5.0, &mut |r| with.push(r.key));
        assert_eq!(with, vec![1]);
    }

    /// Bytes-per-object ceiling at 12 500 objects (one leaf of a
    /// 200 000-object, 16-leaf deployment), estimated as len ×
    /// `size_of` plus stated container overhead:
    ///
    /// * the quadtree's cells and bucket entries, at most 56 B per
    ///   entry for this layout (asserted in `hiloc-spatial` by
    ///   `arena_costs_at_most_56_bytes_per_entry`);
    /// * one slab slot per object;
    /// * the quadtree's key map, a std (SwissTable) `HashMap<u64, (u32,
    ///   u32)>`: a power-of-two bucket count at most 8/7 of the entries,
    ///   each bucket a 16-byte entry plus one control byte;
    /// * the wheel's entries (up to 2 per object before compaction; its
    ///   bucket headers and `Vec` slack are not counted).
    #[test]
    fn bytes_per_object_stay_under_135() {
        const INDEX_BYTES: usize = 56;
        assert!(std::mem::size_of::<Slot>() <= 40, "Slot is {} B", std::mem::size_of::<Slot>());
        assert_eq!(std::mem::size_of::<WheelEntry>(), 8);
        let n = 12_500u64;
        let mut db = SightingDb::new_quadtree();
        for key in 0..n {
            db.upsert(s(key, (key % 100) as f64 * 50.0, (key / 100) as f64 * 40.0, 300_000_000));
        }
        // TTL refreshes into later buckets leave stale wheel entries.
        for key in 0..n {
            db.upsert(s(key, (key % 100) as f64 * 50.0 + 15.0, (key / 100) as f64 * 40.0, 310_000_000));
        }
        assert_eq!(db.len(), n as usize);
        let buckets = (n as usize * 8).div_ceil(7).next_power_of_two();
        let bytes = db.len() * INDEX_BYTES
            + db.slot_capacity() * std::mem::size_of::<Slot>()
            + buckets * (std::mem::size_of::<(u64, (u32, u32))>() + 1)
            + db.expiry_entries() * std::mem::size_of::<WheelEntry>();
        let per_object = bytes as f64 / n as f64;
        assert!(per_object <= 135.0, "{per_object:.1} B per object");
    }

    /// Regression: slab growth converted `slots.len()` with a plain
    /// `as u32`. In-range lengths must map to their exact index…
    #[test]
    fn slot_index_conversion_is_exact_in_range() {
        assert_eq!(checked_slot_index(0), 0);
        assert_eq!(checked_slot_index(12_345), 12_345);
        assert_eq!(checked_slot_index(u32::MAX as usize - 1), u32::MAX - 1);
    }

    /// …and a slab at 2³² slots must fail loudly: the unchecked cast
    /// wrapped to slot 0, aliasing a live record and corrupting the
    /// free list. (Tested on the factored-out conversion — allocating
    /// four billion slots in a test is not an option.)
    #[test]
    #[should_panic(expected = "shard this leaf")]
    fn slot_index_past_u32_panics_instead_of_wrapping() {
        let _ = checked_slot_index(u32::MAX as usize + 1);
    }

    /// A slab of `u32::MAX` slots is full: its length is the largest
    /// `u32`, and one more slot would not fit.
    #[test]
    #[should_panic(expected = "shard this leaf")]
    fn slot_index_at_u32_max_panics() {
        let _ = checked_slot_index(u32::MAX as usize);
    }
}
