//! Leaf-server caches (paper §6.5).
//!
//! Three caches, each toggleable for the caching ablation experiment:
//!
//! 1. **Area cache** `(leaf server → service area)` — learned from
//!    sub-results piggybacking their leaf's area; lets an entry server
//!    scatter a range query directly to the responsible leaves without
//!    traversing the hierarchy.
//! 2. **Agent cache** `(tracked object → current agent)` — learned from
//!    position-query responses; position queries go straight to the
//!    cached agent, falling back to the hierarchy on a miss.
//! 3. **Position cache** `(tracked object → location descriptor)` —
//!    caches query answers; a later query for the same object can be
//!    answered locally while the entry is "still accurate enough",
//!    judged by ageing the accuracy with the object's maximum speed.

use crate::model::{LocationDescriptor, Micros, ObjectId, SECOND};
use hiloc_geo::Rect;
use hiloc_net::ServerId;
use std::collections::BTreeMap;

/// Which caches are enabled, and the position cache's staleness policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Enable the (leaf server → service area) cache.
    pub area_cache: bool,
    /// Enable the (object → agent) cache.
    pub agent_cache: bool,
    /// Enable the (object → position descriptor) cache.
    pub position_cache: bool,
    /// Maximum aged accuracy (meters) at which a cached descriptor may
    /// still be served; beyond it the entry is considered stale.
    pub position_max_aged_acc_m: f64,
    /// Capacity bound per cache; when exceeded the cache is flushed
    /// (epoch-style eviction — simple and adequate for leaf servers).
    pub capacity: usize,
}

impl Default for CacheConfig {
    /// All caches **off** — the paper's measured prototype ("the caching
    /// mechanisms described in Section 6.5 are not included yet").
    fn default() -> Self {
        CacheConfig {
            area_cache: false,
            agent_cache: false,
            position_cache: false,
            position_max_aged_acc_m: 100.0,
            capacity: 100_000,
        }
    }
}

impl CacheConfig {
    /// All three caches enabled with default bounds.
    pub fn all_enabled() -> Self {
        CacheConfig {
            area_cache: true,
            agent_cache: true,
            position_cache: true,
            ..Default::default()
        }
    }
}

/// A cached position-query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedPosition {
    /// The descriptor as answered.
    pub ld: LocationDescriptor,
    /// Sighting timestamp backing it.
    pub time_us: Micros,
    /// The object's maximum speed (m/s) for accuracy ageing.
    pub max_speed_mps: f64,
}

impl CachedPosition {
    /// The descriptor aged to `now`: accuracy grows by
    /// `v_max · (now − time)`.
    pub fn aged(&self, now: Micros) -> LocationDescriptor {
        let dt_s = now.saturating_sub(self.time_us) as f64 / SECOND as f64;
        LocationDescriptor {
            pos: self.ld.pos,
            acc_m: self.ld.acc_m + self.max_speed_mps * dt_s,
        }
    }
}

/// Hit/miss counters of one cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HitMiss {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through (absent, stale, or aged out).
    pub misses: u64,
}

impl HitMiss {
    fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Per-cache hit/miss breakdown — the §6.5 ablation observable: which
/// of the three caches actually earns its memory under a given
/// workload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Area cache (range-query direct scatter).
    pub area: HitMiss,
    /// Agent cache (direct-to-agent position queries).
    pub agent: HitMiss,
    /// Position cache (aged locally-answered position queries).
    pub position: HitMiss,
}

impl CacheStats {
    /// Folds another breakdown into this one (fleet aggregation).
    pub fn add(&mut self, other: &CacheStats) {
        self.area.hits += other.area.hits;
        self.area.misses += other.area.misses;
        self.agent.hits += other.agent.hits;
        self.agent.misses += other.agent.misses;
        self.position.hits += other.position.hits;
        self.position.misses += other.position.misses;
    }
}

/// The cache state of one (leaf) location server.
#[derive(Debug, Default)]
pub struct Caches {
    config: CacheConfig,
    areas: BTreeMap<ServerId, Rect>,
    agents: BTreeMap<ObjectId, ServerId>,
    positions: BTreeMap<ObjectId, CachedPosition>,
    stats: CacheStats,
}

impl Caches {
    /// Creates caches with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        Caches { config, ..Default::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// `(hits, misses)` across all three caches.
    pub fn hit_stats(&self) -> (u64, u64) {
        let s = &self.stats;
        (
            s.area.hits + s.agent.hits + s.position.hits,
            s.area.misses + s.agent.misses + s.position.misses,
        )
    }

    /// The per-cache hit/miss breakdown.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Records the outcome of one area-cache consultation. The
    /// covered-enough decision lives in the range-query path (it knows
    /// the probe's coverage target), so it reports the verdict here
    /// rather than this module guessing it.
    pub fn record_area(&mut self, hit: bool) {
        self.stats.area.record(hit);
    }

    // ---------------------------------------------------------- area cache

    /// Records a leaf's service area.
    pub fn learn_area(&mut self, leaf: ServerId, area: Rect) {
        if !self.config.area_cache {
            return;
        }
        if self.areas.len() >= self.config.capacity {
            self.areas.clear();
        }
        self.areas.insert(leaf, area);
    }

    /// The cached leaves whose areas intersect `probe`, together with
    /// the total intersection area. The caller can scatter directly iff
    /// the returned coverage equals the probe's coverage target.
    pub fn leaves_covering(&self, probe: &Rect) -> (Vec<(ServerId, Rect)>, f64) {
        let mut leaves = Vec::new();
        let mut covered = 0.0;
        for (&id, &area) in &self.areas {
            let inter = area.intersection_area(probe);
            if inter > 0.0 || area.intersects(probe) {
                leaves.push((id, area));
                covered += inter;
            }
        }
        (leaves, covered)
    }

    /// Number of cached leaf areas.
    pub fn area_entries(&self) -> usize {
        self.areas.len()
    }

    /// Drops every cached leaf area — called when a direct scatter
    /// built from the cache failed to complete (the hierarchy reshaped
    /// under it); the next sub-results re-learn the current areas.
    pub fn flush_areas(&mut self) {
        self.areas.clear();
    }

    // --------------------------------------------------------- agent cache

    /// Records the agent currently tracking `oid`.
    pub fn learn_agent(&mut self, oid: ObjectId, agent: ServerId) {
        if !self.config.agent_cache {
            return;
        }
        if self.agents.len() >= self.config.capacity {
            self.agents.clear();
        }
        self.agents.insert(oid, agent);
    }

    /// The cached agent for `oid`, counting hit/miss statistics.
    pub fn agent_for(&mut self, oid: ObjectId) -> Option<ServerId> {
        if !self.config.agent_cache {
            return None;
        }
        match self.agents.get(&oid) {
            Some(&a) => {
                self.stats.agent.record(true);
                Some(a)
            }
            None => {
                self.stats.agent.record(false);
                None
            }
        }
    }

    /// Invalidates a stale agent entry (after a [`crate::proto::Message::PosQueryMiss`],
    /// or when a direct-to-cached-agent query times out because the
    /// cached server is gone).
    pub fn forget_agent(&mut self, oid: ObjectId) {
        self.agents.remove(&oid);
    }

    /// Repoints an *existing* agent entry at `agent` — the invalidation
    /// hook for path changes this server witnesses first-hand (it
    /// completed a handover for `oid`, or a bulk state transfer moved
    /// the record). Unlike [`Caches::learn_agent`] this never grows the
    /// cache: objects this server was never asked about stay uncached.
    pub fn patch_agent(&mut self, oid: ObjectId, agent: ServerId) {
        if !self.config.agent_cache {
            return;
        }
        if let Some(a) = self.agents.get_mut(&oid) {
            *a = agent;
        }
    }

    /// Number of cached agent entries.
    pub fn agent_entries(&self) -> usize {
        self.agents.len()
    }

    // ------------------------------------------------------ position cache

    /// Caches a position-query answer.
    pub fn learn_position(
        &mut self,
        oid: ObjectId,
        ld: LocationDescriptor,
        time_us: Micros,
        max_speed_mps: f64,
    ) {
        if !self.config.position_cache {
            return;
        }
        if self.positions.len() >= self.config.capacity {
            self.positions.clear();
        }
        self.positions.insert(oid, CachedPosition { ld, time_us, max_speed_mps });
    }

    /// A cached descriptor for `oid`, aged to `now`, when it is still
    /// accurate enough per the configuration. Counts hit/miss stats.
    pub fn position_for(&mut self, oid: ObjectId, now: Micros) -> Option<LocationDescriptor> {
        if !self.config.position_cache {
            return None;
        }
        let cached = self.positions.get(&oid).copied();
        match cached {
            Some(c) => {
                let aged = c.aged(now);
                if aged.acc_m <= self.config.position_max_aged_acc_m {
                    self.stats.position.record(true);
                    Some(aged)
                } else {
                    self.positions.remove(&oid);
                    self.stats.position.record(false);
                    None
                }
            }
            None => {
                self.stats.position.record(false);
                None
            }
        }
    }

    /// Number of cached position entries.
    pub fn position_entries(&self) -> usize {
        self.positions.len()
    }

    /// Drops everything this server cached about `oid` — the hook for
    /// local removals (deregistration, soft-state expiry): once the
    /// object is gone, a cached answer would resurrect it.
    pub fn forget_object(&mut self, oid: ObjectId) {
        self.agents.remove(&oid);
        self.positions.remove(&oid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_geo::Point;

    fn on() -> CacheConfig {
        CacheConfig::all_enabled()
    }

    #[test]
    fn disabled_caches_store_nothing() {
        let mut c = Caches::new(CacheConfig::default());
        c.learn_area(ServerId(1), Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        c.learn_agent(ObjectId(1), ServerId(1));
        c.learn_position(ObjectId(1), LocationDescriptor::new(Point::ORIGIN, 5.0), 0, 1.0);
        assert_eq!(c.area_entries(), 0);
        assert_eq!(c.agent_for(ObjectId(1)), None);
        assert_eq!(c.position_for(ObjectId(1), 0), None);
    }

    #[test]
    fn area_cache_coverage() {
        let mut c = Caches::new(on());
        c.learn_area(ServerId(1), Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)));
        c.learn_area(ServerId(2), Rect::new(Point::new(10.0, 0.0), Point::new(20.0, 10.0)));
        let probe = Rect::new(Point::new(5.0, 0.0), Point::new(15.0, 10.0));
        let (leaves, covered) = c.leaves_covering(&probe);
        assert_eq!(leaves.len(), 2);
        assert!((covered - 100.0).abs() < 1e-9);
        // Far probe: nothing.
        let (none, zero) = c.leaves_covering(&Rect::new(Point::new(100.0, 100.0), Point::new(110.0, 110.0)));
        assert!(none.is_empty());
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn agent_cache_hit_miss_invalidate() {
        let mut c = Caches::new(on());
        assert_eq!(c.agent_for(ObjectId(7)), None);
        c.learn_agent(ObjectId(7), ServerId(3));
        assert_eq!(c.agent_for(ObjectId(7)), Some(ServerId(3)));
        c.forget_agent(ObjectId(7));
        assert_eq!(c.agent_for(ObjectId(7)), None);
        let (hits, misses) = c.hit_stats();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn position_cache_ages_accuracy() {
        let mut c = Caches::new(CacheConfig { position_max_aged_acc_m: 50.0, ..on() });
        let ld = LocationDescriptor::new(Point::new(1.0, 1.0), 20.0);
        c.learn_position(ObjectId(1), ld, 0, 2.0); // 2 m/s
        // After 10 s: acc = 20 + 20 = 40 <= 50 — served, aged.
        let got = c.position_for(ObjectId(1), 10 * SECOND).unwrap();
        assert!((got.acc_m - 40.0).abs() < 1e-9);
        // After 20 s: acc = 60 > 50 — stale, dropped.
        assert_eq!(c.position_for(ObjectId(1), 20 * SECOND), None);
        // And it stays gone.
        assert_eq!(c.position_for(ObjectId(1), 0), None);
    }

    #[test]
    fn capacity_flush() {
        let mut c = Caches::new(CacheConfig { capacity: 3, ..on() });
        for i in 0..3 {
            c.learn_area(ServerId(i), Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        }
        assert_eq!(c.area_entries(), 3);
        c.learn_area(ServerId(99), Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        assert_eq!(c.area_entries(), 1, "overflow flushes then inserts");
    }
}
