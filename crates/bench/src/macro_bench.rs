//! The macro benchmark: the city at full load.
//!
//! A 4-level hierarchy of dozens of servers over the deterministic
//! [`SimDeployment`], a million tracked objects split across the three
//! mobility models, Zipf-skewed position/range/nearest-neighbor query
//! load entering at Zipf-hot leaves — everything end-to-end through
//! the real node/message path. It reports what only a run at this scale
//! produces, and no speed: the update accounting, per-level message
//! amplification, messages per query and the §6.5 cache hit rates with
//! caches off vs. on, the root-failover blackout (a cold pathSync
//! rebuild vs. a warm standby adoption, in virtual time) and the
//! storage engine's recovery asymptotics. Speed is measured by the
//! repository benchmark (`benchmark/`) alone.
//!
//! Run `experiments macro --json` to regenerate the committed
//! `BENCH_macro.json`; `--quick` runs the CI smoke scale. See the
//! README "Performance" section for the [`SCHEMA`] layout.

use hiloc_core::area::HierarchyBuilder;
use hiloc_core::cache::{CacheConfig, CacheStats, HitMiss};
use hiloc_core::model::{ObjectId, RangeQuery, SECOND};
use hiloc_core::node::ServerOptions;
use hiloc_core::runtime::{LevelStats, SimDeployment};
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::ServerId;
use hiloc_sim::mobility::MobilityKind;
use hiloc_sim::{Fleet, FleetConfig, Zipf};
use hiloc_storage::{DurableMap, SyncPolicy};
use hiloc_util::json::Json;
use hiloc_util::rng::{RngExt, SeedableRng, StdRng};
use hiloc_util::tempdir::TempDir;
use std::time::Instant;

/// The report schema [`MacroReport::to_json`] writes and
/// [`validate_report`] accepts.
pub const SCHEMA: &str = "hiloc-bench-macro/v2";

// ------------------------------------------------------------- config

/// Scale of one macro run.
#[derive(Debug, Clone, Copy)]
pub struct MacroConfig {
    /// Tracked objects, split across the three mobility models.
    pub objects: u64,
    /// Hierarchy depth below the root.
    pub levels: u32,
    /// Grid fan-out per level (`k × k` children).
    pub fanout: u32,
    /// Side length of the square service area (meters).
    pub area_m: f64,
    /// Zipf exponent of object popularity and leaf hotness.
    pub zipf_alpha: f64,
    /// Object speed (m/s).
    pub speed_mps: f64,
    /// Mobility steps of the update phase.
    pub update_steps: u32,
    /// Virtual seconds per mobility step. At the default `Distance
    /// { 15 m }` policy the step displacement must exceed 15 m or no
    /// update transmits.
    pub step_dt_s: f64,
    /// Queries per query phase (one phase with caches off, one on).
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl MacroConfig {
    /// The committed-baseline scale: a million objects over 85 servers
    /// (4 hierarchy levels, 64 leaves) on a ~40 km × 40 km area.
    pub fn full() -> Self {
        MacroConfig {
            objects: 1_000_000,
            levels: 3,
            fanout: 2,
            area_m: 40_960.0,
            zipf_alpha: 0.9,
            speed_mps: 0.83, // 3 km/h, the paper's pedestrian estimate
            update_steps: 2,
            step_dt_s: 20.0,
            queries: 2_000,
            seed: 0x10CA_7E57,
        }
    }

    /// CI-friendly scale (the `--quick` bench-smoke gate): 20k objects
    /// over 21 servers.
    pub fn quick() -> Self {
        MacroConfig {
            objects: 20_000,
            levels: 2,
            fanout: 2,
            area_m: 10_240.0,
            zipf_alpha: 0.9,
            speed_mps: 0.83,
            update_steps: 1,
            step_dt_s: 20.0,
            queries: 400,
            seed: 0x10CA_7E57,
        }
    }

    /// Total hierarchy levels including the root.
    pub fn total_levels(&self) -> u32 {
        self.levels + 1
    }
}

// ------------------------------------------------------------- results

/// Aggregate of the update phase.
#[derive(Debug, Clone, Copy)]
pub struct UpdatePhase {
    /// Mobility steps driven.
    pub steps: u32,
    /// Updates transmitted (per the update policy).
    pub sent: u64,
    /// Updates acknowledged in place.
    pub acks: u64,
    /// Updates that triggered a handover.
    pub handovers: u64,
    /// Updates that got no response.
    pub lost: u64,
    /// Objects deregistered (left the service area).
    pub deregistered: u64,
    /// Updates transmitted but unresolved when the phase closed:
    /// `sent - acks - handovers - deregistered - lost`. The blocking
    /// sim resolves every update in place, so this is zero there — the
    /// field makes the accounting identity explicit instead of leaving
    /// a silent `sent != acks` gap in the report (the gap is handovers,
    /// not loss, and the validator now enforces that).
    pub in_flight: u64,
}

/// One Zipf query phase (identical sequence per phase; only the cache
/// configuration differs).
#[derive(Debug, Clone)]
pub struct QueryPhase {
    /// `"off"` or `"on"`.
    pub caches: &'static str,
    /// Queries answered, indexed `[pos, range, nn]`.
    pub counts: [u64; 3],
    /// Failed queries (timeouts, unknown objects). Must be zero on a
    /// healthy network.
    pub errors: u64,
    /// Network messages sent during the phase.
    pub msgs_sent: u64,
    /// Server-emitted messages by direction: `(up, down, peer,
    /// client)`.
    pub msgs_dir: (u64, u64, u64, u64),
    /// §6.5 cache hits during the phase.
    pub cache_hits: u64,
    /// §6.5 cache misses during the phase.
    pub cache_misses: u64,
    /// The ablation detail: the same counters broken down per cache
    /// (area / agent / position), full precision.
    pub by_cache: CacheStats,
    /// Per-query-kind attribution of the cache traffic, indexed
    /// `[pos, range, nn]` — which kind of query drove which cache.
    pub by_kind: [CacheStats; 3],
}

impl QueryPhase {
    fn queries(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Network messages per answered query.
    pub fn msgs_per_query(&self) -> f64 {
        self.msgs_sent as f64 / self.queries() as f64
    }

    /// The share of §6.5 cache lookups that hit.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Per-level message consumption, one row per phase snapshot delta —
/// the amplification data: how many messages each hierarchy level
/// absorbs per operation of each phase.
#[derive(Debug, Clone, Copy)]
pub struct LevelRow {
    /// Hierarchy level (0 = root).
    pub level: u32,
    /// Servers on this level.
    pub servers: usize,
    /// Messages consumed during the update phase.
    pub update_msgs_in: u64,
    /// Messages consumed during the caches-off query phase.
    pub query_off_msgs_in: u64,
    /// Messages consumed during the caches-on query phase.
    pub query_on_msgs_in: u64,
}

/// Root-failover blackout: virtual µs from the promotion until the
/// first successful cross-root position query, measured twice on the
/// same deployment — first **cold** (no standby: the successor
/// rebuilds its table by chunked `pathSync`, silent behind the lookup
/// barrier meanwhile), then **warm** (a standby has been streaming the
/// forwarding table and promotion is O(1) adoption).
#[derive(Debug, Clone, Copy)]
pub struct FailoverPhase {
    /// Blackout of the cold (pathSync-rebuild) promotion.
    pub cold_blackout_us: u64,
    /// Blackout of the warm (standby-adoption) promotion.
    pub warm_blackout_us: u64,
}

impl FailoverPhase {
    fn speedup(&self) -> f64 {
        self.cold_blackout_us as f64 / (self.warm_blackout_us.max(1)) as f64
    }
}

/// Storage-engine recovery: wall-clock µs to reopen a [`DurableMap`]
/// whose WAL holds a long mutation history over a bounded live set —
/// **cold** (no checkpoint: the whole log replays, O(history)) vs
/// **checkpointed** (the sealed snapshot decodes every live value, the
/// WAL suffix is empty: O(live set)) — then
/// both again after doubling the history, which pins the asymptotics:
/// the cold replay must lengthen with the log while the checkpointed
/// open must not.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPhase {
    /// Mutations in the baseline history.
    pub ops: u64,
    /// Keys alive at recovery time (the history overwrites them).
    pub live_entries: u64,
    /// Reopen µs with the full baseline log, no checkpoint.
    pub cold_full_log_us: u64,
    /// Reopen µs after a checkpoint of the same history.
    pub checkpointed_us: u64,
    /// Mutations in the doubled history.
    pub ops_2x: u64,
    /// Reopen µs with the doubled log, no checkpoint.
    pub cold_full_log_2x_us: u64,
    /// Reopen µs after a checkpoint of the doubled history.
    pub checkpointed_2x_us: u64,
}

impl RecoveryPhase {
    fn speedup(&self) -> f64 {
        self.cold_full_log_us as f64 / (self.checkpointed_us.max(1)) as f64
    }
}

/// A complete macro run.
#[derive(Debug, Clone)]
pub struct MacroReport {
    /// The scale it ran at.
    pub config: MacroConfig,
    /// Servers in the hierarchy.
    pub servers: usize,
    /// Leaf servers in the hierarchy.
    pub leaf_servers: usize,
    /// The update phase.
    pub updates: UpdatePhase,
    /// The two query phases: caches off, then caches on.
    pub query_phases: Vec<QueryPhase>,
    /// Per-level message amplification.
    pub levels: Vec<LevelRow>,
    /// The failover phase: cold vs. warm promotion blackout.
    pub failover: FailoverPhase,
    /// The storage-recovery phase: full-log vs. checkpointed reopen.
    pub recovery: RecoveryPhase,
}

// ------------------------------------------------------------ workload

/// Spreads Zipf rank `r` (popular = small) over the object-id space so
/// hot objects land in different fleets, mobility models and areas.
/// 7919 is prime, so the map is a bijection whenever it does not
/// divide `objects` (asserted at setup).
fn rank_to_oid(rank: usize, objects: u64) -> ObjectId {
    ObjectId((rank as u64).wrapping_mul(7919) % objects)
}

/// Field-wise `after - before` of two per-cache counter snapshots.
fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    let d = |a: HitMiss, b: HitMiss| HitMiss { hits: a.hits - b.hits, misses: a.misses - b.misses };
    CacheStats {
        area: d(after.area, before.area),
        agent: d(after.agent, before.agent),
        position: d(after.position, before.position),
    }
}

fn server_opts() -> ServerOptions {
    // Every blocking client op advances virtual time by an RTT, so a
    // million-object run spans virtual *hours*. Stretch the soft-state
    // windows accordingly: nothing may mass-expire mid-run, and no
    // keep-alive storm may drown the measured load (the paper's
    // prototype measured steady-state traffic without keep-alives).
    ServerOptions {
        sighting_ttl_us: 8 * 3600 * SECOND,
        path_refresh_us: 2 * 3600 * SECOND,
        path_ttl_us: 5 * 3600 * SECOND,
        query_timeout_us: SECOND / 2,
        ..Default::default()
    }
}

fn build_deployment(cfg: &MacroConfig) -> SimDeployment {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(cfg.area_m, cfg.area_m));
    let h = HierarchyBuilder::grid(area, cfg.levels, cfg.fanout)
        .build()
        .expect("macro hierarchy");
    SimDeployment::new(h, server_opts(), cfg.seed)
}

/// Registers the population: three fleets, one per mobility model,
/// sharing the deployment through disjoint object-id ranges.
fn register_fleets(cfg: &MacroConfig, ls: &mut SimDeployment) -> Vec<Fleet> {
    let models = [
        MobilityKind::RandomWaypoint,
        MobilityKind::Manhattan { spacing_m: 100.0 },
        MobilityKind::GaussMarkov { alpha: 0.75 },
    ];
    let third = cfg.objects / 3;
    let counts = [cfg.objects - 2 * third, third, third];
    let mut first_oid = 0u64;
    let mut fleets = Vec::new();
    for (i, (model, count)) in models.into_iter().zip(counts).enumerate() {
        let fleet = Fleet::register(
            FleetConfig {
                num_objects: count,
                speed_mps: cfg.speed_mps,
                mobility: model,
                seed: cfg.seed ^ (i as u64 + 1),
                first_oid,
                ..Default::default()
            },
            ls,
        )
        .expect("macro registration");
        first_oid += count;
        fleets.push(fleet);
    }

    // The slab-growth headroom check (the satellite u32 conversion
    // fix): no leaf may be anywhere near the u32 slot-index ceiling,
    // or the next scale-up would hit the checked-conversion panic.
    let headroom = u64::from(u32::MAX / 4);
    assert!(cfg.objects <= headroom, "population {} exceeds the slot headroom {headroom}", cfg.objects);
    for server_cfg in ls.hierarchy().servers().to_vec() {
        let slots = ls.server(server_cfg.id).map_or(0, |s| s.sighting_slot_capacity());
        assert!(
            (slots as u64) <= headroom,
            "server {} uses {slots} slab slots — too close to the u32 slot-index ceiling",
            server_cfg.id.0
        );
    }
    fleets
}

fn run_updates(cfg: &MacroConfig, ls: &mut SimDeployment, fleets: &mut [Fleet]) -> UpdatePhase {
    let mut agg = UpdatePhase {
        steps: cfg.update_steps,
        sent: 0,
        acks: 0,
        handovers: 0,
        lost: 0,
        deregistered: 0,
        in_flight: 0,
    };
    for _ in 0..cfg.update_steps {
        for fleet in fleets.iter_mut() {
            fleet.process_inbox(ls);
            let s = fleet.step(ls, cfg.step_dt_s);
            agg.sent += s.updates_sent;
            agg.acks += s.acks;
            agg.handovers += s.handovers;
            agg.lost += s.lost;
            agg.deregistered += s.deregistered;
        }
    }
    let resolved = agg.acks + agg.handovers + agg.deregistered + agg.lost;
    assert!(
        resolved <= agg.sent,
        "update accounting: {resolved} resolutions exceed {} transmissions",
        agg.sent
    );
    agg.in_flight = agg.sent - resolved;
    assert_eq!(agg.lost, 0, "no update may be lost on a healthy network");
    assert!(agg.sent > 0, "the update phase must actually transmit");
    agg
}

/// One Zipf query phase. Both phases run this with the *same* seed, so
/// the caches-on phase answers the byte-identical query sequence — the
/// only variable is the cache configuration.
fn run_queries(cfg: &MacroConfig, ls: &mut SimDeployment, caches: &'static str) -> QueryPhase {
    let leaves: Vec<ServerId> = ls
        .hierarchy()
        .servers()
        .iter()
        .filter(|c| c.is_leaf())
        .map(|c| c.id)
        .collect();
    let zipf_leaf = Zipf::new(leaves.len(), cfg.zipf_alpha);
    let zipf_obj = Zipf::new(cfg.objects as usize, cfg.zipf_alpha);
    let min_acc_m = FleetConfig::default().min_acc_m;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0000_C17F);

    let net_before = ls.net_counters().0;
    let stats_before = ls.total_stats();
    let (hits_before, misses_before) = ls.cache_hit_stats();
    let detail_before = ls.cache_stats_by_cache();

    let mut counts = [0u64; 3];
    let mut by_kind = [CacheStats::default(); 3];
    let mut errors = 0u64;
    for _ in 0..cfg.queries {
        // Queries enter at a Zipf-hot leaf: clients ask their local
        // server, and load concentrates where the objects (and the
        // paper's locality argument) are.
        let entry = leaves[zipf_leaf.sample(&mut rng)];
        let kind: f64 = rng.random();
        let k = if kind < 0.7 { 0 } else if kind < 0.9 { 1 } else { 2 };
        let detail_q = ls.cache_stats_by_cache();
        let answered = match k {
            0 => {
                let oid = rank_to_oid(zipf_obj.sample(&mut rng), cfg.objects);
                ls.pos_query(entry, oid).is_ok()
            }
            1 => {
                // A hot cell: half a leaf's side, centered on a Zipf-hot
                // leaf — the "where is everyone downtown" query.
                let hot = ls.hierarchy().server(leaves[zipf_leaf.sample(&mut rng)]).area;
                let side = (hot.max().x - hot.min().x) / 2.0;
                let cell = Rect::from_center_size(hot.center(), side, side);
                ls.range_query(entry, RangeQuery::new(Region::from(cell), min_acc_m, 0.5)).is_ok()
            }
            _ => {
                let p = ls.hierarchy().server(leaves[zipf_leaf.sample(&mut rng)]).area.center();
                ls.neighbor_query(entry, p, min_acc_m, min_acc_m / 2.0).is_ok()
            }
        };
        if answered {
            counts[k] += 1;
        } else {
            errors += 1;
        }
        // Attribute the cache traffic of this query to its kind. The
        // sim is single-threaded, so the snapshot delta around the
        // blocking call is exactly this query's footprint.
        by_kind[k].add(&cache_delta(&ls.cache_stats_by_cache(), &detail_q));
    }

    let after = ls.total_stats();
    let delta = after.minus(&stats_before);
    let (hits, misses) = ls.cache_hit_stats();
    QueryPhase {
        caches,
        counts,
        errors,
        msgs_sent: ls.net_counters().0 - net_before,
        msgs_dir: (delta.msgs_up, delta.msgs_down, delta.msgs_peer, delta.msgs_client),
        cache_hits: hits - hits_before,
        cache_misses: misses - misses_before,
        by_cache: cache_delta(&ls.cache_stats_by_cache(), &detail_before),
        by_kind,
    }
}

/// Picks the worst-case query that must route through the root: the
/// entry leaf is the bottom-left corner of the area, the probe object
/// lives under the opposite top-level subtree (top-right corner) — so
/// the lookup has to climb to the root — and it is the *highest* oid
/// of that subtree. `pathSync` chunks stream in oid order, so a cold
/// successor learns this record in the far child's **last** chunk: the
/// probe stays blacked out for the whole rebuild, not until some early
/// chunk happens to carry it.
fn cross_root_probe(cfg: &MacroConfig, ls: &SimDeployment) -> (ServerId, ObjectId) {
    let entry = ls.leaf_for(Point::new(cfg.area_m * 0.01, cfg.area_m * 0.01));
    let far_leaf = ls.leaf_for(Point::new(cfg.area_m * 0.99, cfg.area_m * 0.99));
    assert_ne!(entry, far_leaf, "macro hierarchies always span multiple leaves");
    let root = ls.hierarchy().root();
    let mut far_top = far_leaf;
    while let Some(p) = ls.hierarchy().server(far_top).parent {
        if p == root {
            break;
        }
        far_top = p;
    }
    let oid = ls
        .server(far_top)
        .expect("no server is down before the failover phase")
        .visitors()
        .iter()
        .map(|(oid, _)| oid)
        .last()
        .expect("the far subtree hosts part of the population");
    (entry, oid)
}

/// Crashes the current root, promotes over it, and measures the
/// blackout: virtual µs from the promotion until the cross-root probe
/// query first succeeds. Each failed attempt costs at least the query
/// timeout of virtual time, which is exactly what a client at the
/// entry leaf experiences.
fn measure_blackout(ls: &mut SimDeployment, entry: ServerId, oid: ObjectId) -> u64 {
    assert!(ls.crash_server(ls.hierarchy().root()), "the root runs until its failover");
    ls.promote_root();
    let t0 = ls.now_us();
    for _ in 0..10_000 {
        if ls.pos_query(entry, oid).is_ok() {
            return ls.now_us() - t0;
        }
    }
    panic!("cross-root probe never recovered after the promotion");
}

/// The failover phase, run last on the already-loaded deployment (the
/// §6.5 caches are switched back off first, so the probe cannot be
/// answered from a cache and genuinely crosses the root):
///
/// 1. **cold** — no standby exists yet; the successor rebuilds its
///    forwarding table by chunked `pathSync` behind the lookup
///    barrier, and the probe blacks out until the rebuild completes.
/// 2. **warm** — replication is then enabled, the standby's delta
///    stream catches up (setup, not blackout), and the same
///    crash + promotion is O(1) adoption of the streamed table.
fn run_failover(cfg: &MacroConfig, ls: &mut SimDeployment) -> FailoverPhase {
    ls.set_caches(CacheConfig::default());
    let (entry, oid) = cross_root_probe(cfg, ls);
    let cold_blackout_us = measure_blackout(ls, entry, oid);

    ls.enable_replication();
    ls.run_until_quiet();
    let warm_blackout_us = measure_blackout(ls, entry, oid);
    FailoverPhase { cold_blackout_us, warm_blackout_us }
}

/// Appends `ops` put mutations cycling over `live` keys (every key is
/// overwritten ~`ops / live` times, so the log grows with history
/// while the live set stays bounded — the visitor-table write pattern
/// under mobility). Auto-checkpointing is off so the WAL keeps the
/// whole history.
fn write_history(db: &mut DurableMap<Vec<u8>>, live: u64, ops: std::ops::Range<u64>) {
    for i in ops {
        let mut v = vec![0u8; 24];
        v[..8].copy_from_slice(&i.to_le_bytes());
        db.insert(i % live, v).expect("recovery-bench insert");
    }
}

/// Reopens the engine in `dir` and returns (wall µs, records replayed).
fn timed_open(dir: &std::path::Path) -> (u64, u64) {
    let t0 = Instant::now();
    let db: DurableMap<Vec<u8>> =
        DurableMap::open(dir, SyncPolicy::Buffered).expect("recovery-bench reopen");
    let us = t0.elapsed().as_micros().max(1) as u64;
    (us, db.stats().replayed)
}

/// The recovery phase: measures cold (full-log) vs. checkpointed
/// reopen at 1x and 2x history. Storage-level — it runs against a
/// [`DurableMap`] directly rather than through the deployment, because
/// the quantity under test is the engine's recovery path, not the
/// protocol above it. Both opens build the same one in-memory table;
/// they differ only in whether it comes from the snapshot or from the
/// whole log.
fn run_recovery(cfg: &MacroConfig) -> RecoveryPhase {
    let live = (cfg.objects / 20).clamp(500, 50_000);
    let ops = live * 10;
    let dir = TempDir::new("macro-recovery");
    let base = dir.path().join("base");
    let doubled = dir.path().join("doubled");

    let mut phase = RecoveryPhase {
        ops,
        live_entries: live,
        cold_full_log_us: 0,
        checkpointed_us: 0,
        ops_2x: ops * 2,
        cold_full_log_2x_us: 0,
        checkpointed_2x_us: 0,
    };
    for (dir, total, cold_us, ck_us) in [
        (&base, ops, &mut phase.cold_full_log_us, &mut phase.checkpointed_us),
        (&doubled, ops * 2, &mut phase.cold_full_log_2x_us, &mut phase.checkpointed_2x_us),
    ] {
        let mut db: DurableMap<Vec<u8>> =
            DurableMap::open(dir, SyncPolicy::Buffered).expect("recovery-bench open");
        db.set_auto_checkpoint(None);
        write_history(&mut db, live, 0..total);
        drop(db);

        let (us, replayed) = timed_open(dir);
        assert_eq!(replayed, total, "cold reopen must replay the whole history");
        *cold_us = us;

        let mut db: DurableMap<Vec<u8>> =
            DurableMap::open(dir, SyncPolicy::Buffered).expect("recovery-bench open");
        db.compact().expect("recovery-bench checkpoint");
        drop(db);

        let (us, replayed) = timed_open(dir);
        assert_eq!(replayed, 0, "checkpointed reopen must replay nothing");
        *ck_us = us;
    }
    phase
}

fn level_delta(after: &[LevelStats], before: &[LevelStats]) -> Vec<(u32, usize, u64)> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| {
            assert_eq!(a.level, b.level);
            (a.level, a.servers, a.stats.minus(&b.stats).msgs_in)
        })
        .collect()
}

/// Runs the complete macro benchmark.
pub fn run(cfg: &MacroConfig) -> MacroReport {
    assert!(!cfg.objects.is_multiple_of(7919), "rank spreading needs gcd(7919, objects) = 1");
    let mut ls = build_deployment(cfg);
    let servers = ls.hierarchy().len();
    let leaf_servers = ls.hierarchy().servers().iter().filter(|c| c.is_leaf()).count();

    let mut fleets = register_fleets(cfg, &mut ls);
    let after_register = ls.level_stats();

    let updates = run_updates(cfg, &mut ls, &mut fleets);
    let after_updates = ls.level_stats();

    let off = run_queries(cfg, &mut ls, "off");
    let after_off = ls.level_stats();

    // The ablation switch: §6.5 caches on, from cold (the toggle
    // resets cache state), against the identical query sequence.
    ls.set_caches(CacheConfig::all_enabled());
    let on = run_queries(cfg, &mut ls, "on");
    let after_on = ls.level_stats();

    let failover = run_failover(cfg, &mut ls);
    let recovery = run_recovery(cfg);

    let upd = level_delta(&after_updates, &after_register);
    let qoff = level_delta(&after_off, &after_updates);
    let qon = level_delta(&after_on, &after_off);
    let levels = upd
        .iter()
        .zip(&qoff)
        .zip(&qon)
        .map(|((u, o), n)| LevelRow {
            level: u.0,
            servers: u.1,
            update_msgs_in: u.2,
            query_off_msgs_in: o.2,
            query_on_msgs_in: n.2,
        })
        .collect();

    MacroReport {
        config: *cfg,
        servers,
        leaf_servers,
        updates,
        query_phases: vec![off, on],
        levels,
        failover,
        recovery,
    }
}

// ----------------------------------------------------------------- json

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn hit_miss_json(h: &HitMiss) -> Json {
    Json::Obj(vec![
        ("hits".into(), num(h.hits as f64)),
        ("misses".into(), num(h.misses as f64)),
    ])
}

fn cache_stats_json(c: &CacheStats) -> Json {
    Json::Obj(vec![
        ("area".into(), hit_miss_json(&c.area)),
        ("agent".into(), hit_miss_json(&c.agent)),
        ("position".into(), hit_miss_json(&c.position)),
    ])
}

impl MacroReport {
    /// The machine-readable report (schema documented in the README).
    pub fn to_json(&self, quick: bool) -> Json {
        let phases = self
            .query_phases
            .iter()
            .map(|p| {
                let (up, down, peer, client) = p.msgs_dir;
                Json::Obj(vec![
                    ("caches".into(), Json::Str(p.caches.into())),
                    (
                        "queries".into(),
                        Json::Obj(
                            ["pos", "range", "nn"]
                                .iter()
                                .zip(p.counts)
                                .map(|(kind, n)| (kind.to_string(), num(n as f64)))
                                .collect(),
                        ),
                    ),
                    ("errors".into(), num(p.errors as f64)),
                    (
                        "msgs_per_query".into(),
                        num((p.msgs_per_query() * 100.0).round() / 100.0),
                    ),
                    (
                        "msgs".into(),
                        Json::Obj(vec![
                            ("up".into(), num(up as f64)),
                            ("down".into(), num(down as f64)),
                            ("peer".into(), num(peer as f64)),
                            ("client".into(), num(client as f64)),
                        ]),
                    ),
                    (
                        "cache".into(),
                        Json::Obj(vec![
                            ("hits".into(), num(p.cache_hits as f64)),
                            ("misses".into(), num(p.cache_misses as f64)),
                            (
                                "hit_rate".into(),
                                num((p.hit_rate() * 1_000.0).round() / 1_000.0),
                            ),
                        ]),
                    ),
                    (
                        "cache_detail".into(),
                        Json::Obj(vec![
                            ("by_cache".into(), cache_stats_json(&p.by_cache)),
                            (
                                "by_kind".into(),
                                Json::Obj(vec![
                                    ("pos".into(), cache_stats_json(&p.by_kind[0])),
                                    ("range".into(), cache_stats_json(&p.by_kind[1])),
                                    ("nn".into(), cache_stats_json(&p.by_kind[2])),
                                ]),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let levels = self
            .levels
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("level".into(), num(f64::from(l.level))),
                    ("servers".into(), num(l.servers as f64)),
                    ("update_msgs_in".into(), num(l.update_msgs_in as f64)),
                    ("query_off_msgs_in".into(), num(l.query_off_msgs_in as f64)),
                    ("query_on_msgs_in".into(), num(l.query_on_msgs_in as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("quick".into(), Json::Bool(quick)),
            ("seed".into(), num(self.config.seed as f64)),
            (
                "config".into(),
                Json::Obj(vec![
                    ("objects".into(), num(self.config.objects as f64)),
                    ("levels".into(), num(f64::from(self.config.levels))),
                    ("total_levels".into(), num(f64::from(self.config.total_levels()))),
                    ("fanout".into(), num(f64::from(self.config.fanout))),
                    ("servers".into(), num(self.servers as f64)),
                    ("leaf_servers".into(), num(self.leaf_servers as f64)),
                    ("area_m".into(), num(self.config.area_m)),
                    ("zipf_alpha".into(), num(self.config.zipf_alpha)),
                    ("speed_mps".into(), num(self.config.speed_mps)),
                    ("update_steps".into(), num(f64::from(self.config.update_steps))),
                    ("step_dt_s".into(), num(self.config.step_dt_s)),
                    ("queries".into(), num(self.config.queries as f64)),
                ]),
            ),
            (
                "updates".into(),
                Json::Obj(vec![
                    ("steps".into(), num(f64::from(self.updates.steps))),
                    ("sent".into(), num(self.updates.sent as f64)),
                    ("acks".into(), num(self.updates.acks as f64)),
                    ("handovers".into(), num(self.updates.handovers as f64)),
                    ("lost".into(), num(self.updates.lost as f64)),
                    ("deregistered".into(), num(self.updates.deregistered as f64)),
                    ("in_flight".into(), num(self.updates.in_flight as f64)),
                ]),
            ),
            ("query_phases".into(), Json::Arr(phases)),
            (
                "failover_blackout_us".into(),
                Json::Obj(vec![
                    ("cold".into(), num(self.failover.cold_blackout_us as f64)),
                    ("warm".into(), num(self.failover.warm_blackout_us as f64)),
                    (
                        "speedup".into(),
                        num((self.failover.speedup() * 10.0).round() / 10.0),
                    ),
                ]),
            ),
            (
                "recovery_us".into(),
                Json::Obj(vec![
                    ("ops".into(), num(self.recovery.ops as f64)),
                    ("live_entries".into(), num(self.recovery.live_entries as f64)),
                    ("cold_full_log".into(), num(self.recovery.cold_full_log_us as f64)),
                    ("checkpointed".into(), num(self.recovery.checkpointed_us as f64)),
                    (
                        "speedup".into(),
                        num((self.recovery.speedup() * 10.0).round() / 10.0),
                    ),
                    ("ops_2x".into(), num(self.recovery.ops_2x as f64)),
                    ("cold_full_log_2x".into(), num(self.recovery.cold_full_log_2x_us as f64)),
                    ("checkpointed_2x".into(), num(self.recovery.checkpointed_2x_us as f64)),
                ]),
            ),
            ("levels".into(), Json::Arr(levels)),
        ])
    }
}

/// Validates a `BENCH_macro.json` document: parseable by
/// [`hiloc_util::json`], of schema [`SCHEMA`], internally consistent,
/// with fewer messages per query and per level once the caches are on,
/// and — for a full-scale run — at the committed-baseline scale (≥ 1M
/// objects, ≥ 4 hierarchy levels, ≥ 24 servers). Returns a
/// human-readable error on failure.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing schema field".to_string())?;
    if schema != SCHEMA {
        return Err(format!(
            "schema {schema:?} is not {SCHEMA:?}; regenerate the report with \
             `experiments macro --json`"
        ));
    }
    let quick = doc
        .get("quick")
        .and_then(Json::as_bool)
        .ok_or_else(|| "missing quick flag".to_string())?;

    let cfg_num = |field: &str| {
        doc.get("config")
            .and_then(|c| c.get(field))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing config.{field}"))
    };
    let objects = cfg_num("objects")?;
    let total_levels = cfg_num("total_levels")?;
    let servers = cfg_num("servers")?;
    if !quick {
        if objects < 1_000_000.0 {
            return Err(format!("full run must track >= 1M objects, got {objects}"));
        }
        if total_levels < 4.0 {
            return Err(format!("full run must span >= 4 hierarchy levels, got {total_levels}"));
        }
        if servers < 24.0 {
            return Err(format!("full run must involve >= 24 servers, got {servers}"));
        }
    }

    // The update-accounting identity: every transmitted update must be
    // accounted for by exactly one outcome. The committed baseline's
    // `sent != acks` gap is handovers — this rejects any report where
    // the books don't balance (the bug this field was added to fix:
    // the gap used to be unexplained while `lost` claimed 0).
    let upd_num = |field: &str| {
        doc.get("updates")
            .and_then(|u| u.get(field))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing updates.{field}"))
    };
    let (sent, acks) = (upd_num("sent")?, upd_num("acks")?);
    let (handovers, lost) = (upd_num("handovers")?, upd_num("lost")?);
    let (dereg, in_flight) = (upd_num("deregistered")?, upd_num("in_flight")?);
    if sent != acks + handovers + dereg + lost + in_flight {
        return Err(format!(
            "update accounting identity violated: sent {sent} != acks {acks} + handovers \
             {handovers} + deregistered {dereg} + lost {lost} + in_flight {in_flight}"
        ));
    }
    if !quick && in_flight != 0.0 {
        return Err(format!(
            "full run: the blocking sim resolves every update in place, got in_flight {in_flight}"
        ));
    }

    let phases = doc
        .get("query_phases")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing query_phases array".to_string())?;
    if phases.len() != 2 {
        return Err(format!("expected 2 query phases (off, on), got {}", phases.len()));
    }
    let mut msgs_per_query = Vec::new();
    for (phase, want) in phases.iter().zip(["off", "on"]) {
        let caches = phase
            .get("caches")
            .and_then(Json::as_str)
            .ok_or_else(|| "query phase without caches tag".to_string())?;
        if caches != want {
            return Err(format!("query phase order: expected caches={want:?}, got {caches:?}"));
        }
        if phase.get("errors").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("query phase {want:?} reported errors"));
        }
        for kind in ["pos", "range", "nn"] {
            let count = phase
                .get("queries")
                .and_then(|q| q.get(kind))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing queries.{kind}"))?;
            if count <= 0.0 {
                return Err(format!("query phase {want:?} ran no {kind} queries"));
            }
        }
        msgs_per_query.push(
            phase
                .get("msgs_per_query")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("query phase {want:?} without msgs_per_query"))?,
        );
        let cache_num = |f: &str| {
            phase
                .get("cache")
                .and_then(|c| c.get(f))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing cache.{f}"))
        };
        let (hits, misses, hit_rate) =
            (cache_num("hits")?, cache_num("misses")?, cache_num("hit_rate")?);
        if !(0.0..=1.0).contains(&hit_rate) {
            return Err(format!("cache hit rate {hit_rate} outside [0, 1]"));
        }
        match want {
            "off" if hits != 0.0 => {
                return Err(format!("caches-off phase reported {hits} cache hits"))
            }
            "on" if hits + misses <= 0.0 => {
                return Err("caches-on phase never consulted a cache".to_string())
            }
            "on" if hits <= 0.0 => {
                return Err("caches-on phase never hit a cache".to_string())
            }
            _ => {}
        }

        // The ablation detail must be internally consistent: per-cache
        // counters sum to the phase totals, and per-kind attribution
        // sums back to the per-cache counters.
        let detail = phase
            .get("cache_detail")
            .ok_or_else(|| "query phase without cache_detail".to_string())?;
        let hm = |node: &Json, path: &str, cache: &str| -> Result<(f64, f64), String> {
            let get = |f: &str| {
                node.get(cache)
                    .and_then(|c| c.get(f))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("missing cache_detail {path}.{cache}.{f}"))
            };
            Ok((get("hits")?, get("misses")?))
        };
        let by_cache = detail
            .get("by_cache")
            .ok_or_else(|| "cache_detail without by_cache".to_string())?;
        let by_kind = detail
            .get("by_kind")
            .ok_or_else(|| "cache_detail without by_kind".to_string())?;
        let (mut total_h, mut total_m) = (0.0, 0.0);
        for cache in ["area", "agent", "position"] {
            let (h, m) = hm(by_cache, "by_cache", cache)?;
            total_h += h;
            total_m += m;
            let (mut kh, mut km) = (0.0, 0.0);
            for kind in ["pos", "range", "nn"] {
                let node = by_kind
                    .get(kind)
                    .ok_or_else(|| format!("cache_detail.by_kind without {kind}"))?;
                let (h2, m2) = hm(node, kind, cache)?;
                kh += h2;
                km += m2;
            }
            if kh != h || km != m {
                return Err(format!(
                    "cache_detail.{cache}: per-kind sum {kh}/{km} != by_cache {h}/{m}"
                ));
            }
        }
        if total_h != hits || total_m != misses {
            return Err(format!(
                "cache_detail totals {total_h}/{total_m} disagree with cache \
                 counters {hits}/{misses}"
            ));
        }
    }

    // The §6.5 caches exist to save messages: the caches-on phase
    // replays the identical query sequence, so it must send fewer.
    if msgs_per_query[1] >= msgs_per_query[0] {
        return Err(format!(
            "caches-on msgs_per_query {} is not below caches-off {}",
            msgs_per_query[1], msgs_per_query[0]
        ));
    }

    let fo_num = |field: &str| {
        doc.get("failover_blackout_us")
            .and_then(|f| f.get(field))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing failover_blackout_us.{field}"))
    };
    let (cold, warm) = (fo_num("cold")?, fo_num("warm")?);
    for (name, v) in [("cold", cold), ("warm", warm)] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("failover_blackout_us.{name} {v} is not a positive duration"));
        }
    }
    // The tentpole acceptance gate: at full scale the warm promotion
    // must be at least 10x faster than the cold pathSync rebuild. (At
    // toy scales the rebuild can finish within one RTT, so the ratio
    // is only meaningful — and only enforced — on full runs.)
    if !quick && cold < 10.0 * warm {
        return Err(format!(
            "full run: warm blackout {warm}us must be >= 10x below the cold rebuild {cold}us"
        ));
    }

    let rec_num = |field: &str| {
        doc.get("recovery_us")
            .and_then(|r| r.get(field))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing recovery_us.{field}"))
    };
    let (r_ops, r_ops_2x) = (rec_num("ops")?, rec_num("ops_2x")?);
    let (r_cold, r_ck) = (rec_num("cold_full_log")?, rec_num("checkpointed")?);
    let (r_cold_2x, r_ck_2x) = (rec_num("cold_full_log_2x")?, rec_num("checkpointed_2x")?);
    for (name, v) in [
        ("ops", r_ops),
        ("ops_2x", r_ops_2x),
        ("live_entries", rec_num("live_entries")?),
        ("cold_full_log", r_cold),
        ("checkpointed", r_ck),
        ("cold_full_log_2x", r_cold_2x),
        ("checkpointed_2x", r_ck_2x),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("recovery_us.{name} {v} is not positive"));
        }
    }
    if r_ops_2x < 2.0 * r_ops {
        return Err(format!("recovery_us.ops_2x {r_ops_2x} is not a doubled history of {r_ops}"));
    }
    // The tentpole gate: a checkpointed reopen loads the snapshot and
    // replays only the WAL suffix, so it must beat full-log replay at
    // both history lengths — and, on full runs, doubling the history
    // must lengthen the cold replay while leaving the checkpointed
    // reopen flat (within wall-clock noise). Quick runs skip the
    // asymptotic checks only because their absolute times are small
    // enough for scheduler noise to invert them.
    if r_ck >= r_cold {
        return Err(format!(
            "checkpointed recovery {r_ck}us must beat full-log replay {r_cold}us"
        ));
    }
    if r_ck_2x >= r_cold_2x {
        return Err(format!(
            "checkpointed recovery {r_ck_2x}us must beat full-log replay {r_cold_2x}us (2x)"
        ));
    }
    if !quick {
        if r_cold_2x <= r_cold {
            return Err(format!(
                "full run: doubling the history must lengthen full-log replay \
                 ({r_cold}us -> {r_cold_2x}us)"
            ));
        }
        if r_ck_2x >= 3.0 * r_ck {
            return Err(format!(
                "full run: checkpointed recovery must be history-independent, \
                 got {r_ck}us -> {r_ck_2x}us across a doubled log"
            ));
        }
    }

    let levels = doc
        .get("levels")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing levels array".to_string())?;
    if (levels.len() as f64) != total_levels {
        return Err(format!(
            "levels array has {} rows for {total_levels} hierarchy levels",
            levels.len()
        ));
    }
    for l in levels {
        let row_num = |f: &str| {
            l.get(f).and_then(Json::as_f64).ok_or_else(|| format!("level row without {f}"))
        };
        for f in ["servers", "update_msgs_in"] {
            row_num(f)?;
        }
        let (level, off, on) =
            (row_num("level")?, row_num("query_off_msgs_in")?, row_num("query_on_msgs_in")?);
        // No level may work harder for the same queries with its
        // caches on.
        if on > off {
            return Err(format!(
                "level {level}: caches-on queries consumed {on} messages, caches-off {off}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MacroConfig {
        MacroConfig {
            objects: 600,
            levels: 1,
            fanout: 2,
            area_m: 2_000.0,
            zipf_alpha: 0.9,
            speed_mps: 0.83,
            update_steps: 1,
            step_dt_s: 20.0,
            queries: 60,
            seed: 7,
        }
    }

    #[test]
    fn tiny_run_produces_valid_json() {
        let report = run(&tiny());
        assert_eq!(report.servers, 5, "1 root + 4 leaves");
        assert_eq!(report.query_phases.len(), 2);
        assert_eq!(report.updates.in_flight, 0, "the blocking sim leaves nothing in flight");
        assert!(report.failover.cold_blackout_us > 0);
        assert!(report.failover.warm_blackout_us > 0);
        assert!(
            report.recovery.checkpointed_us < report.recovery.cold_full_log_us,
            "checkpointed reopen must beat full-log replay: {:?}",
            report.recovery
        );
        let text = report.to_json(true).to_string_pretty();
        validate_report(&text).expect("self-produced report must validate");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_report("{").is_err());
        assert!(validate_report("{}").is_err());
        assert!(validate_report(r#"{"schema": "not-a-macro-report/v1"}"#).is_err());
        assert!(validate_report(r#"{"schema": "hiloc-bench-macro/v2"}"#).is_err());
        // A full-scale report below the committed floor must fail.
        let report = run(&tiny());
        let text = report.to_json(false).to_string_pretty();
        assert!(validate_report(&text).is_err(), "tiny scale must not pass as a full run");

        // A v1 document (the retired timing schema) is refused by a
        // message that names v2 and the regeneration command.
        let v1 = report.to_json(true).to_string_pretty().replace(SCHEMA, "hiloc-bench-macro/v1");
        let err = validate_report(&v1).expect_err("a v1 report must be refused");
        assert!(err.contains(SCHEMA) && err.contains("experiments macro --json"), "{err}");

        // Caches that cost messages instead of saving them.
        let mut doctored = report.clone();
        doctored.query_phases[1].msgs_sent = doctored.query_phases[0].msgs_sent + 1;
        let err = validate_report(&doctored.to_json(true).to_string_pretty())
            .expect_err("caches-on msgs_per_query above caches-off must fail");
        assert!(err.contains("msgs_per_query"), "{err}");
        let mut doctored = report.clone();
        let root = &mut doctored.levels[0];
        root.query_on_msgs_in = root.query_off_msgs_in + 1;
        let err = validate_report(&doctored.to_json(true).to_string_pretty())
            .expect_err("a level consuming more messages with caches on must fail");
        assert!(err.contains("level 0"), "{err}");
    }

    #[test]
    fn rank_spreading_is_a_bijection_at_committed_scales() {
        for objects in [MacroConfig::full().objects, MacroConfig::quick().objects, 600] {
            assert!(!objects.is_multiple_of(7919));
            let mut seen = vec![false; objects as usize];
            for rank in 0..objects as usize {
                let oid = rank_to_oid(rank, objects);
                assert!(!seen[oid.0 as usize], "collision at rank {rank}");
                seen[oid.0 as usize] = true;
            }
        }
    }
}
