//! Property test: the slab-backed `SightingDb` (arena slots + expiry
//! wheel) must behave exactly like a naive `HashMap` + linear-scan
//! oracle under randomized upsert/remove/expire/query workloads —
//! including slot reuse after removal and stale-wheel-entry handling
//! after refreshes — and every index entry a spatial query yields must
//! carry its record's key and position.

use hiloc_geo::{Point, Rect};
use hiloc_storage::{Entry, SightingDb, StoredSighting};
use hiloc_util::prop::{check, Gen};
use hiloc_util::rng::{RngExt, SeedableRng, StdRng};
use std::collections::HashMap;

const KEYS: u64 = 24;
const AREA: f64 = 200.0;

fn random_sighting(g: &mut Gen, now: u64) -> StoredSighting {
    StoredSighting {
        key: g.random_range(0..KEYS),
        pos: Point::new(g.random_range(0.0..AREA), g.random_range(0.0..AREA)),
        time_us: now,
        acc_sens_m: g.random_range(1.0..50.0),
        expires_us: now + g.random_range(1..5_000_000u64),
    }
}

/// The oracle's expiry: everything with `expires_us <= now`, delivered
/// in `(deadline, key)` order — the contract the wheel must match.
fn oracle_expire(oracle: &mut HashMap<u64, StoredSighting>, now: u64) -> Vec<StoredSighting> {
    let mut due: Vec<StoredSighting> =
        oracle.values().filter(|r| r.expires_us <= now).copied().collect();
    due.sort_by_key(|r| (r.expires_us, r.key));
    for r in &due {
        oracle.remove(&r.key);
    }
    due
}

fn oracle_query(oracle: &HashMap<u64, StoredSighting>, rect: &Rect) -> Vec<u64> {
    let mut keys: Vec<u64> =
        oracle.values().filter(|r| rect.contains(r.pos)).map(|r| r.key).collect();
    keys.sort_unstable();
    keys
}

/// The keys `query_rect` yields. Every entry must also match the slab:
/// the walk reads the index alone, so an entry's position has to be the
/// record's own (the invariant that lets range and NN skip the slab).
fn db_query(db: &SightingDb, rect: &Rect) -> Vec<u64> {
    let mut keys = Vec::new();
    db.query_rect(rect, &mut |e| {
        let rec = db.get(e.key).unwrap_or_else(|| panic!("index entry {} has no record", e.key));
        assert_eq!(e, Entry::new(rec.key, rec.pos), "index and slab disagree on {}", e.key);
        keys.push(e.key);
    });
    keys.sort_unstable();
    keys
}

/// The memory invariants of the slab rework: the slab is bounded by the
/// peak live set (slots are reused after removal), and the wheel by
/// 2× live + the compaction floor.
fn assert_memory_bounded(db: &SightingDb, peak_live: usize, name: &str, step: usize) {
    assert!(
        db.slot_capacity() <= peak_live,
        "[{name}] step {step}: slab grew past the peak live set"
    );
    assert!(
        db.expiry_entries() <= 2 * db.len() + 64,
        "[{name}] step {step}: wheel entries {} exceed bound for {} live",
        db.expiry_entries(),
        db.len()
    );
}

fn run_against_oracle(g: &mut Gen, mut db: SightingDb, name: &str) {
    let mut oracle: HashMap<u64, StoredSighting> = HashMap::new();
    let mut now = 0u64;
    let steps = g.random_range(20..200usize);
    for step in 0..steps {
        match g.random_range(0..10u32) {
            // Upserts dominate: the update-storm shape.
            0..=4 => {
                let mut s = random_sighting(g, now);
                if let (true, Some(old)) = (g.chance(0.5), oracle.get(&s.key)) {
                    // A local move, the index's in-place update path.
                    let (dx, dy) = (g.random_range(-3.0..3.0), g.random_range(-3.0..3.0));
                    s.pos = Point::new(old.pos.x + dx, old.pos.y + dy);
                }
                let a = db.upsert(s);
                let b = oracle.insert(s.key, s);
                assert_eq!(a, b, "[{name}] step {step}: upsert return mismatch");
            }
            5 => {
                let key = g.random_range(0..KEYS);
                let a = db.remove(key);
                let b = oracle.remove(&key);
                assert_eq!(a, b, "[{name}] step {step}: remove return mismatch");
            }
            6 => {
                // Advance the clock and expire; lists must match in
                // content *and* order.
                now += g.random_range(0..3_000_000u64);
                let a = db.expire_due(now);
                let b = oracle_expire(&mut oracle, now);
                assert_eq!(a, b, "[{name}] step {step}: expire_due mismatch at now={now}");
            }
            7 => {
                let key = g.random_range(0..KEYS);
                assert_eq!(
                    db.get(key),
                    oracle.get(&key).copied(),
                    "[{name}] step {step}: get mismatch"
                );
            }
            _ => {
                let a = Point::new(g.random_range(-10.0..AREA), g.random_range(-10.0..AREA));
                let b = Point::new(g.random_range(-10.0..AREA), g.random_range(-10.0..AREA));
                let rect = Rect::new(a, b);
                assert_eq!(
                    db_query(&db, &rect),
                    oracle_query(&oracle, &rect),
                    "[{name}] step {step}: query_rect mismatch on {rect}"
                );
            }
        }
        assert_eq!(db.len(), oracle.len(), "[{name}] step {step}: len mismatch");
        if let Some(everything) = Rect::bounding(oracle.values().map(|r| r.pos)) {
            assert_eq!(db_query(&db, &everything), oracle_query(&oracle, &everything), "[{name}] step {step}");
        }
        assert_memory_bounded(&db, KEYS as usize, name, step);
        // The expiry hint may be stale-early but never later than the
        // earliest real deadline.
        if let Some(min_live) = oracle.values().map(|r| r.expires_us).min() {
            let hint = db.next_expiry().expect("live records imply a pending expiry");
            assert!(
                hint <= min_live,
                "[{name}] step {step}: hint {hint} after earliest deadline {min_live}"
            );
        }
    }
    // Drain: everything expires eventually, leaving the wheel empty.
    let a = db.expire_due(u64::MAX);
    let b = oracle_expire(&mut oracle, u64::MAX);
    assert_eq!(a, b, "[{name}] final drain mismatch");
    assert!(db.is_empty());
    assert_eq!(db.expiry_entries(), 0, "[{name}] stale entries must not outlive the drain");
}

const CASES: u32 = 48;

#[test]
fn slab_db_matches_oracle_quadtree() {
    check(CASES, |g| run_against_oracle(g, SightingDb::new_quadtree(), "quadtree"));
}

/// The update-storm shape, where an append-only expiry heap grows with
/// every refresh: updates ≫ live, each one a small local move that
/// pushes the record's deadline out by the TTL.
#[test]
fn update_storm_keeps_wheel_and_slab_bounded() {
    const LIVE: usize = 1_000;
    const UPDATES: usize = 50_000;
    const TTL_US: u64 = 300_000_000;
    let mut db = SightingDb::new_quadtree();
    let mut g = StdRng::seed_from_u64(0x3E4);
    let mut positions: Vec<Point> = (0..LIVE)
        .map(|_| Point::new(g.random_range(0.0..10_000.0), g.random_range(0.0..10_000.0)))
        .collect();
    for step in 0..LIVE + UPDATES {
        let key = step % LIVE;
        if step >= LIVE {
            let p = positions[key];
            positions[key] =
                Point::new(p.x + g.random_range(-15.0..15.0), p.y + g.random_range(-15.0..15.0));
        }
        let now = 100 * step as u64;
        db.upsert(StoredSighting {
            key: key as u64,
            pos: positions[key],
            time_us: now,
            acc_sens_m: 10.0,
            expires_us: now + TTL_US,
        });
        assert_memory_bounded(&db, LIVE, "storm", step);
    }
    assert_eq!(db.len(), LIVE);
    let everything = Rect::bounding(positions.iter().copied()).expect("live objects");
    assert_eq!(db_query(&db, &everything).len(), LIVE);
}

/// Slot reuse after removal, driven hard: a churn loop that
/// deregisters and re-registers disjoint key ranges must keep the
/// arena at the peak population while answering queries exactly.
#[test]
fn slot_reuse_churn() {
    let mut db = SightingDb::new_quadtree();
    let mut oracle: HashMap<u64, StoredSighting> = HashMap::new();
    for round in 0..50u64 {
        let base = (round % 4) * 25; // rotating key window
        for k in base..base + 25 {
            let s = StoredSighting {
                key: k,
                pos: Point::new((k % 10) as f64 * 10.0, (round % 7) as f64 * 10.0),
                time_us: round,
                acc_sens_m: 5.0,
                expires_us: 1_000 * (round + 1),
            };
            assert_eq!(db.upsert(s), oracle.insert(k, s));
        }
        for k in base..base + 12 {
            assert_eq!(db.remove(k), oracle.remove(&k));
        }
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 70.0));
        assert_eq!(db_query(&db, &rect), oracle_query(&oracle, &rect), "round {round}");
    }
    assert!(db.slot_capacity() <= 100, "churn must reuse slots, not grow the arena");
}
