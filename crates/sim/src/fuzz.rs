//! Generative chaos: a property-based scenario fuzzer with shrinking.
//!
//! The scripted suites (`chaos_scenarios.rs`, `churn_scenarios.rs`)
//! explore a handful of curated timelines. This module explores the
//! *space*: a seeded generator emits random but **valid** scenario
//! timelines for the [`Runtime`] it is asked to target — mixed
//! update/query load interleaved with every
//! [`FaultAction`] verb and fault-plan window that runtime declares it
//! can run — runs each against the [`scenario`](crate::scenario)
//! oracle (optionally with the §6.5 caches enabled under
//! bounded-staleness semantics), and on failure **shrinks** the
//! timeline to a minimal reproducer printed as a single replayable DSL
//! line. One generator, one validity model and one DSL serve the
//! simulator and the real runtimes; the line's `runtime=` token says
//! where [`replay_dsl`] runs it.
//!
//! Validity is enforced at construction time by replaying every
//! candidate timeline against a [`Hierarchy`] model: never crash an
//! already-down server, never restart a retired one, never retire the
//! last mergeable leaf, never promote over a live root, never cut a
//! partition with an empty side or a second one before the heal, and
//! close every crash with a restart (or a root failover) so the settle
//! phase is reachable. The same checker guards the shrinker, so dropping a
//! `Crash` also drops its paired `Restart` rather than producing a
//! nonsense timeline.
//!
//! Everything is seed-deterministic: `generate(seed, mode)` always
//! yields the same spec, a simulator run of that spec always produces
//! the same trace (a real runtime replays the same movement on the
//! host's clock), and the printed DSL replays the exact scenario via
//! [`replay_dsl`]. `HILOC_FUZZ_CASES` scales batch sizes for longer
//! local runs (CI uses the fixed default).

use crate::harness::{Capabilities, Harness, Runtime};
use crate::mobility::MobilityKind;
use crate::real::{ThreadedHarness, UdpHarness};
use crate::scenario::{subtree_endpoints, FaultAction, ScenarioEvent, ScenarioRun, ScenarioSpec};
use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_core::cache::CacheConfig;
use hiloc_core::model::{Micros, UpdatePolicy, SECOND};
use hiloc_core::runtime::{ShardSpec, SimDeployment};
use hiloc_geo::{Point, Rect};
use hiloc_net::{Endpoint, FaultPlan, LatencySpike, Partition, ServerId};
use hiloc_util::prop::Gen;
use hiloc_util::rng::RngExt;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Service-area side length used by every generated scenario (m).
const AREA_M: f64 = 1_000.0;
/// Hard cap on the number of servers a timeline may grow to.
const MAX_SERVERS: usize = 32;
/// The smallest fleet the generator draws.
const MIN_OBJECTS: u64 = 6;
/// Hard cap on candidate runs one [`shrink`] call may spend.
const SHRINK_BUDGET: usize = 300;

/// Whether generated scenarios run with the §6.5 caches on, and under
/// which staleness bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheMode {
    /// All caches off — the paper's measured prototype.
    Off,
    /// Area, agent and position caches on.
    On {
        /// The position cache's `position_max_aged_acc_m` bound (m).
        max_aged_acc_m: f64,
    },
}

impl CacheMode {
    /// The [`CacheConfig`] this mode deploys.
    pub fn to_config(self) -> CacheConfig {
        match self {
            CacheMode::Off => CacheConfig::default(),
            CacheMode::On { max_aged_acc_m } => CacheConfig {
                position_max_aged_acc_m: max_aged_acc_m,
                ..CacheConfig::all_enabled()
            },
        }
    }
}

/// A generated (or parsed) fuzz scenario: everything needed to rebuild
/// the exact [`ScenarioSpec`], in a shape the shrinker can mutate and
/// the DSL can round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzSpec {
    /// The deployment the plan runs on; it must declare every
    /// capability the plan needs ([`Capabilities::admit`]).
    pub runtime: Runtime,
    /// Master seed (placement, mobility, network jitter).
    pub seed: u64,
    /// Hierarchy depth below the root.
    pub levels: u32,
    /// Grid fan-out per level.
    pub fanout: u32,
    /// Number of tracked objects.
    pub num_objects: u64,
    /// Object speed (m/s).
    pub speed_mps: f64,
    /// Chaos steps before the settle phase.
    pub steps: u32,
    /// Virtual seconds per step.
    pub step_dt_s: f64,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// Update-reporting policy.
    pub policy: UpdatePolicy,
    /// Mixed query load through the root during chaos.
    pub mid_chaos_queries: bool,
    /// Use the macro-benchmark query mix (Zipf-skewed pos/range/NN
    /// entering at hot leaves) instead of the root round. Only
    /// meaningful when `mid_chaos_queries` is set.
    pub macro_mix: bool,
    /// §6.5 cache mode.
    pub caches: CacheMode,
    /// Deploy the replication subsystem (warm standbys + leaf replica
    /// rings). Standby slots shift every later-spawned server id, so
    /// the validity model mirrors the reservation exactly.
    pub replication: bool,
    /// Global message-drop probability.
    pub drop_prob: f64,
    /// Global message-duplication probability.
    pub dup_prob: f64,
    /// Message reordering `(probability, spread_us)`, when enabled.
    pub reorder: Option<(f64, u64)>,
    /// Timed partitions: `(start_us, end_us, isolated server ids)`.
    pub partitions: Vec<(Micros, Micros, Vec<u32>)>,
    /// Timed latency spikes: `(start_us, end_us, extra_us)`.
    pub spikes: Vec<(Micros, Micros, Micros)>,
    /// The scripted timeline verbs.
    pub events: Vec<ScenarioEvent>,
    /// Shard count and per-shard inbox bound of a sharded runtime.
    pub layout: ShardSpec,
}

/// The initial (pre-reshape) grid hierarchy a fuzz scenario deploys.
fn grid(levels: u32, fanout: u32) -> Hierarchy {
    let rect = Rect::new(Point::new(0.0, 0.0), Point::new(AREA_M, AREA_M));
    HierarchyBuilder::grid(rect, levels, fanout).build().expect("fuzz grid")
}

impl Runtime {
    /// What the runtime's harness declares it can do.
    pub fn capabilities(self) -> Capabilities {
        match self {
            Runtime::Sim => SimDeployment::CAPS,
            Runtime::Threaded => ThreadedHarness::CAPS,
            Runtime::Udp => UdpHarness::CAPS,
        }
    }
}

impl FuzzSpec {
    /// The concrete scenario this spec runs.
    pub fn to_scenario(&self) -> ScenarioSpec {
        let mut faults = FaultPlan::uniform(self.drop_prob, self.dup_prob);
        if let Some((p, spread)) = self.reorder {
            faults = faults.with_reorder(p, spread);
        }
        for (start, end, ids) in &self.partitions {
            let eps: Vec<Endpoint> =
                ids.iter().map(|&id| Endpoint::Server(ServerId(id))).collect();
            faults = faults.with_partition(Partition::isolate(*start, *end, eps));
        }
        for (start, end, extra) in &self.spikes {
            faults = faults.with_spike(LatencySpike::new(*start, *end, *extra));
        }
        ScenarioSpec {
            name: format!("fuzz-{}", self.seed),
            seed: self.seed,
            area_m: AREA_M,
            levels: self.levels,
            fanout: self.fanout,
            num_objects: self.num_objects,
            speed_mps: self.speed_mps,
            mobility: self.mobility,
            policy: self.policy,
            step_dt_s: self.step_dt_s,
            steps: self.steps,
            faults,
            durable: true,
            mid_chaos_queries: self.mid_chaos_queries,
            macro_mix: self.macro_mix,
            caches: self.caches.to_config(),
            replication: self.replication,
            events: self.events.clone(),
            layout: self.layout,
            replay: self.to_dsl(),
            ..Default::default()
        }
    }

    /// Runs the plan on the runtime it names.
    ///
    /// # Errors
    ///
    /// That runtime cannot do something the plan needs; the message
    /// names it, and nothing was deployed.
    ///
    /// # Panics
    ///
    /// Panics with the oracle's report when the run goes red.
    pub fn run(&self) -> Result<ScenarioRun, String> {
        let scenario = self.to_scenario();
        match self.runtime {
            Runtime::Sim => scenario.run_on::<SimDeployment>(),
            Runtime::Threaded => scenario.run_on::<ThreadedHarness>(),
            Runtime::Udp => scenario.run_on::<UdpHarness>(),
        }
    }

    /// Whether the timeline is constructible: every verb is legal at
    /// its step (replayed against a hierarchy model) and every crashed
    /// server is back up — or retired — before the settle phase.
    pub fn valid(&self) -> bool {
        if self.levels == 0
            || self.fanout < 2
            || self.steps < 2
            || self.num_objects == 0
            || self.layout.inbox_cap == 0
            || self.events.iter().any(|e| e.at_step >= self.steps)
        {
            return false;
        }
        let h0 = grid(self.levels, self.fanout);
        let mut model = TimelineModel::new(h0, self.num_objects, self.replication);
        for step in 0..self.steps {
            for ev in self.events.iter().filter(|e| e.at_step == step) {
                if !model.try_apply(&ev.action) {
                    return false;
                }
            }
        }
        model.closed()
    }
}

// --------------------------------------------------------------- model

/// Replays a timeline against the hierarchy the runtime would build,
/// mirroring `SimDeployment`'s preconditions: which servers are up,
/// which are retired, which reshape verbs the tree accepts — and,
/// with replication on, the standby-slot reservations
/// (`SimDeployment::enable_replication` / `designate_standby`), since
/// every reserved slot shifts the id the next `Spawn` or cold
/// failover allocates.
struct TimelineModel {
    h: Hierarchy,
    down: std::collections::BTreeSet<u32>,
    /// Warm-standby slots (`shadowed non-leaf → standby`), mirrored
    /// from the runtime when `replication` is set.
    standbys: BTreeMap<u32, u32>,
    replication: bool,
    /// A `Partition` verb is in force (until the next `HealNetwork`).
    partitioned: bool,
    /// Fleet size: the range of a `Burst`'s object index.
    num_objects: u64,
}

impl TimelineModel {
    /// With `replication`, mirrors `SimDeployment::enable_replication`:
    /// one standby slot reserved per active non-leaf, in id order.
    fn new(h: Hierarchy, num_objects: u64, replication: bool) -> Self {
        let mut model = TimelineModel {
            h,
            down: Default::default(),
            standbys: BTreeMap::new(),
            replication,
            partitioned: false,
            num_objects,
        };
        if replication {
            let non_leaves: Vec<ServerId> =
                model.h.active().filter(|c| !c.is_leaf()).map(|c| c.id).collect();
            for of in non_leaves {
                let slot = model.h.reserve_standby(of).expect("standby reservation");
                model.standbys.insert(of.0, slot.0);
            }
        }
        model
    }

    fn in_range(&self, id: ServerId) -> bool {
        (id.0 as usize) < self.h.len()
    }

    /// Whether `id` is a reserved standby slot: hierarchy-retired, but
    /// with a live server instance that crashes and restarts normally.
    fn is_standby_slot(&self, id: ServerId) -> bool {
        self.standbys.values().any(|&s| s == id.0)
    }

    /// Live standby slots — crash targets the plain `active()` walk
    /// misses.
    fn live_standbys(&self) -> Vec<u32> {
        self.standbys.values().copied().filter(|s| !self.down.contains(s)).collect()
    }

    /// Applies one verb when it is legal at the current state; `false`
    /// (state untouched) otherwise.
    fn try_apply(&mut self, action: &FaultAction) -> bool {
        match action {
            FaultAction::Crash(id) | FaultAction::PowerLoss(id) => {
                if !self.in_range(*id)
                    || (self.h.is_retired(*id) && !self.is_standby_slot(*id))
                    || self.down.contains(&id.0)
                {
                    return false;
                }
                self.down.insert(id.0);
                true
            }
            FaultAction::Restart(id) => {
                if !self.in_range(*id)
                    || (self.h.is_retired(*id) && !self.is_standby_slot(*id))
                    || !self.down.contains(&id.0)
                {
                    return false;
                }
                self.down.remove(&id.0);
                true
            }
            FaultAction::Checkpoint(id) => {
                // Legal on any live server; leaves the timeline state
                // untouched (a checkpoint changes only on-disk layout).
                self.in_range(*id)
                    && (!self.h.is_retired(*id) || self.is_standby_slot(*id))
                    && !self.down.contains(&id.0)
            }
            FaultAction::Spawn { split } => {
                if !self.in_range(*split) || self.h.len() >= MAX_SERVERS {
                    return false;
                }
                self.h.split_leaf(*split).is_ok()
            }
            FaultAction::Retire(id) => {
                // A down server cannot drain (the runtime asserts).
                if !self.in_range(*id) || self.down.contains(&id.0) {
                    return false;
                }
                self.h.retire_leaf(*id).is_ok()
            }
            FaultAction::PromoteStandby => {
                // Failover over a live root would split the brain.
                let old = self.h.root();
                if !self.down.contains(&old.0) {
                    return false;
                }
                // Mirror `SimDeployment::promote_root` exactly: the
                // mapping is consumed either way; a live standby is
                // adopted in place (no new id), a dead or absent one
                // falls back to a freshly allocated successor — and
                // with replication on, the new root gets a fresh
                // reserved slot in both cases.
                let new_root = match self.standbys.remove(&old.0) {
                    Some(standby) if !self.down.contains(&standby) => {
                        let standby = ServerId(standby);
                        if self.h.fail_over_root_to(standby).is_err() {
                            return false;
                        }
                        standby
                    }
                    _ => match self.h.fail_over_root() {
                        Ok(id) => id,
                        Err(_) => return false,
                    },
                };
                if self.replication {
                    let slot = self.h.reserve_standby(new_root).expect("standby reservation");
                    self.standbys.insert(new_root.0, slot.0);
                }
                true
            }
            FaultAction::HealNetwork => {
                self.partitioned = false;
                true
            }
            FaultAction::Partition { isolated } => {
                // Both sides must be non-empty sets of existing
                // servers, and one cut is in force at a time.
                let distinct: std::collections::BTreeSet<&ServerId> = isolated.iter().collect();
                if self.partitioned
                    || isolated.is_empty()
                    || distinct.len() != isolated.len()
                    || distinct.len() >= self.h.len()
                    || !isolated.iter().all(|id| self.in_range(*id))
                {
                    return false;
                }
                self.partitioned = true;
                true
            }
            FaultAction::Burst { obj, .. } => u64::from(*obj) < self.num_objects,
        }
    }

    /// Every still-down server is retired (exempt from the settle
    /// check); anything else must have been restarted.
    fn closed(&self) -> bool {
        self.down_unretired().is_empty()
    }

    fn down_unretired(&self) -> Vec<ServerId> {
        self.down
            .iter()
            .map(|&id| ServerId(id))
            .filter(|&id| !self.h.is_retired(id))
            .collect()
    }
}

// ----------------------------------------------------------- generator

/// The generator: a random, valid plan for `runtime` from `seed` — same
/// seed, same spec. It draws only what the runtime declares it can run
/// ([`Runtime::capabilities`]): reshape verbs, the link model's faults
/// and timed windows, clock-keyed update policies; `Partition` /
/// `HealNetwork` verb pairs where the network can only be cut by verb;
/// a shard layout; and — where inboxes are bounded — sometimes a tiny
/// inbox with overload `Burst`s, so shedding is reachable. What a
/// capability rules out costs no draw: the simulator's draw sequence is
/// the one it always had.
///
/// With `replication` the subsystem is deployed (the runtime must be
/// able to reshape). The timeline walk then models the standby-slot
/// reservations, adds live standbys to the crash pool (a standby dying
/// mid-delta-stream is exactly the race worth fuzzing), biases crashes
/// toward the root and its shadow, and prefers a `PromoteStandby`
/// follow-up over a root restart — the campaign must *exercise*
/// promotions, not trip over them by luck.
pub fn generate_with(
    seed: u64,
    caches: CacheMode,
    replication: bool,
    runtime: Runtime,
) -> FuzzSpec {
    let caps = runtime.capabilities();
    assert!(caps.reshape || !replication, "runtime={runtime} cannot deploy replication");
    let mut g = Gen::for_seed(seed);
    let levels = if g.chance(0.5) { 1 } else { 2 };
    let fanout = 2;
    let steps: u32 = g.random_range(10..=16);
    let step_dt_s = 2.0;
    let horizon_us = u64::from(steps) * (step_dt_s as u64) * SECOND;

    let mobility = match g.weighted(&[3, 1, 1]) {
        0 => MobilityKind::RandomWaypoint,
        1 => MobilityKind::Manhattan { spacing_m: g.random_range(50.0..200.0) },
        _ => MobilityKind::GaussMarkov { alpha: g.random_range(0.3..0.9) },
    };
    let policy = if !caps.virtual_time || g.chance(0.7) {
        UpdatePolicy::Distance { threshold_m: g.random_range(8.0..16.0) }
    } else {
        UpdatePolicy::Periodic { period_us: g.random_range(3..=6u64) * SECOND }
    };

    let link = caps.link_model;
    let drop_prob = if link && g.chance(0.5) { g.random_range(0.0..0.10) } else { 0.0 };
    let dup_prob = if link && g.chance(0.4) { g.random_range(0.0..0.06) } else { 0.0 };
    let reorder = if link && g.chance(0.4) {
        Some((g.random_range(0.05..0.3), g.random_range(10_000..150_000u64)))
    } else {
        None
    };

    let h0 = grid(levels, fanout);

    let mut partitions = Vec::new();
    for _ in 0..if link { g.weighted(&[4, 3, 1]) } else { 0 } {
        let start = g.random_range(2 * SECOND..(horizon_us * 6 / 10).max(3 * SECOND));
        let dur = g.random_range(4 * SECOND..=16 * SECOND);
        let ids: Vec<u32> = if g.chance(0.5) {
            // Isolate a whole subtree.
            let all: Vec<ServerId> = h0.servers().iter().map(|c| c.id).collect();
            let sub = *g.pick(&all[1..]); // never the root's subtree (everything)
            subtree_endpoints(&h0, sub)
                .iter()
                .filter_map(|e| e.as_server().map(|s| s.0))
                .collect()
        } else {
            // Isolate one or two individual servers.
            let mut ids: Vec<u32> = (0..h0.len() as u32).collect();
            g.shuffle(&mut ids);
            ids.truncate(g.random_range(1..=2));
            ids
        };
        partitions.push((start, start + dur, ids));
    }
    let mut spikes = Vec::new();
    for _ in 0..if link { g.weighted(&[3, 1]) } else { 0 } {
        let start = g.random_range(SECOND..(horizon_us * 7 / 10).max(2 * SECOND));
        let dur = g.random_range(2 * SECOND..=10 * SECOND);
        spikes.push((start, start + dur, g.random_range(50_000..400_000u64)));
    }

    // ---- timeline walk: draw verbs only where they are legal *now*,
    // and schedule the follow-up that keeps the timeline closable
    // (every crash gets a restart — or, for a root, maybe a failover).
    let layout = ShardSpec {
        shards: if caps.sharded { g.random_range(1..=4usize) } else { ShardSpec::default().shards },
        inbox_cap: if caps.bounded_inbox && g.chance(0.3) {
            g.random_range(2..=8usize)
        } else {
            ShardSpec::default().inbox_cap
        },
    };
    let overload = layout.inbox_cap != ShardSpec::default().inbox_cap;
    // The fleet size is drawn last; until then every fleet is known to
    // hold at least `MIN_OBJECTS`, which is where bursts aim.
    let mut model = TimelineModel::new(h0, MIN_OBJECTS, replication);
    let mut events: Vec<ScenarioEvent> = Vec::new();
    let mut scheduled: BTreeMap<u32, Vec<FaultAction>> = BTreeMap::new();
    // What brings a crashed server back 1–4 steps later: a restart, or
    // — for the root of a tree that can reshape — maybe a failover.
    let promote_p = if replication { 0.85 } else { 0.5 };
    let follow_crash = |g: &mut Gen, id: ServerId, root: ServerId, step: u32| {
        let at = (step + g.random_range(1..=4u32)).min(steps - 1);
        let promote = caps.reshape && id == root && g.chance(promote_p);
        (at, if promote { FaultAction::PromoteStandby } else { FaultAction::Restart(id) })
    };
    let budget = g.random_range(0..=5usize);
    let mut drawn = 0usize;
    for step in 1..steps {
        for action in scheduled.remove(&step).unwrap_or_default() {
            if model.try_apply(&action) {
                events.push(ScenarioEvent { at_step: step, action });
            }
        }
        if drawn >= budget || !g.chance(0.55) {
            continue;
        }
        // A crash needs room for its scheduled restart/failover before
        // the settle phase; reshape verbs are fire-and-forget and may
        // land on the very last step (late reshapes are exactly where
        // stale §6.5 cache entries survive into the verdict).
        let crash_ok = step + 2 < steps;
        let live: Vec<u32> = {
            let mut ids: Vec<u32> = model
                .h
                .active()
                .filter(|c| !model.down.contains(&c.id.0))
                .map(|c| c.id.0)
                .collect();
            // Standby slots are retired in the hierarchy but live as
            // processes — with replication on they crash too.
            ids.extend(model.live_standbys());
            ids.sort_unstable();
            ids
        };
        let crashable: Vec<u32> = if crash_ok { live.clone() } else { Vec::new() };
        let splittable: Vec<u32> = if caps.reshape && model.h.len() < MAX_SERVERS {
            model
                .h
                .active()
                .filter(|c| c.is_leaf() && c.parent.is_some())
                .map(|c| c.id.0)
                .collect()
        } else {
            Vec::new()
        };
        let retirable: Vec<u32> = model
            .h
            .active()
            .filter(|c| caps.reshape && c.is_leaf() && !model.down.contains(&c.id.0))
            .map(|c| c.id.0)
            .filter(|&id| model.h.clone().retire_leaf(ServerId(id)).is_ok())
            .collect();
        // (kind, weight): 0 = crash, 1 = power loss, 2 = spawn,
        // 3 = retire, 4 = checkpoint (often paired with an immediate
        // power loss — the across-the-commit-boundary draw),
        // 5 = partition verb (where no link model schedules timed
        // windows), 6 = overload burst (where a tiny inbox was drawn)
        let weights = [
            if crashable.is_empty() { 0 } else { 3 },
            if crashable.is_empty() { 0 } else { 1 },
            if splittable.is_empty() { 0 } else { 2 },
            if retirable.is_empty() { 0 } else { 2 },
            if live.is_empty() { 0 } else { 2 },
            if link || model.partitioned { 0 } else { 2 },
            if overload { 3 } else { 0 },
        ];
        if weights.iter().all(|&w| w == 0) {
            continue;
        }
        match g.weighted(&weights) {
            kind @ (0 | 1) => {
                // With replication, steer half the crashes at the root
                // or its standby: those are the draws that put the
                // delta stream, the watermark and the promotion path
                // under fire.
                let hot: Vec<u32> = if replication {
                    let root = model.h.root().0;
                    let mut hot: Vec<u32> = crashable
                        .iter()
                        .copied()
                        .filter(|&id| id == root || model.standbys.get(&root) == Some(&id))
                        .collect();
                    hot.sort_unstable();
                    hot
                } else {
                    Vec::new()
                };
                let id = if !hot.is_empty() && g.chance(0.5) {
                    ServerId(*g.pick(&hot))
                } else {
                    ServerId(*g.pick(&crashable))
                };
                let action = if kind == 0 {
                    FaultAction::Crash(id)
                } else {
                    FaultAction::PowerLoss(id)
                };
                if model.try_apply(&action) {
                    events.push(ScenarioEvent { at_step: step, action });
                    let (at, follow_up) = follow_crash(&mut g, id, model.h.root(), step);
                    scheduled.entry(at).or_default().push(follow_up);
                }
            }
            2 => {
                let split = ServerId(*g.pick(&splittable));
                let action = FaultAction::Spawn { split };
                if model.try_apply(&action) {
                    events.push(ScenarioEvent { at_step: step, action });
                }
            }
            3 => {
                let id = ServerId(*g.pick(&retirable));
                let action = FaultAction::Retire(id);
                if model.try_apply(&action) {
                    events.push(ScenarioEvent { at_step: step, action });
                }
            }
            4 => {
                // A storage checkpoint — and, half the time, a power
                // loss on the same server in the same step, so the loss
                // lands right across the checkpoint commit boundary
                // (manifest committed, WAL truncation maybe lost): the
                // recovery-generation-arbitration case.
                let id = ServerId(*g.pick(&live));
                let action = FaultAction::Checkpoint(id);
                if model.try_apply(&action) {
                    events.push(ScenarioEvent { at_step: step, action });
                    if crash_ok && g.chance(0.5) {
                        let loss = FaultAction::PowerLoss(id);
                        if model.try_apply(&loss) {
                            events.push(ScenarioEvent { at_step: step, action: loss });
                            let (at, follow_up) = follow_crash(&mut g, id, model.h.root(), step);
                            scheduled.entry(at).or_default().push(follow_up);
                        }
                    }
                }
            }
            5 => {
                // Cut one server — or the root together with one — off
                // from the rest of the tree for a few steps.
                let root = model.h.root();
                let others: Vec<ServerId> =
                    model.h.active().map(|c| c.id).filter(|&id| id != root).collect();
                let id = *g.pick(&others);
                let isolated = if g.chance(0.3) { vec![root, id] } else { vec![id] };
                let action = FaultAction::Partition { isolated };
                if model.try_apply(&action) {
                    events.push(ScenarioEvent { at_step: step, action });
                    let at = (step + g.random_range(1..=4u32)).min(steps - 1);
                    scheduled.entry(at).or_default().push(FaultAction::HealNetwork);
                }
            }
            _ => {
                let action = FaultAction::Burst {
                    obj: g.random_range(0..MIN_OBJECTS as u32),
                    updates: g.random_range(200..=600u32),
                };
                if model.try_apply(&action) {
                    events.push(ScenarioEvent { at_step: step, action });
                }
            }
        }
        drawn += 1;
    }
    // Close the timeline: whatever is still down and not retired comes
    // back up just before the settle phase.
    for id in model.down_unretired() {
        let action = FaultAction::Restart(id);
        if model.try_apply(&action) {
            events.push(ScenarioEvent { at_step: steps - 1, action });
        }
    }
    debug_assert!(model.closed(), "generator left an unclosable timeline");

    FuzzSpec {
        runtime,
        seed,
        levels,
        fanout,
        num_objects: g.random_range(MIN_OBJECTS..=14),
        speed_mps: g.random_range(5.0..20.0),
        steps,
        step_dt_s,
        mobility,
        policy,
        mid_chaos_queries: g.chance(0.7),
        macro_mix: g.chance(0.35),
        caches,
        replication,
        drop_prob,
        dup_prob,
        reorder,
        partitions,
        spikes,
        events,
        layout,
    }
}

// -------------------------------------------------------- quiet runner

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}
static PANIC_HOOK: Once = Once::new();

/// Runs a spec, converting an oracle panic (like a rejection by the
/// runtime it names) into `Err(message)` without
/// spewing the (huge) failure report of every shrink candidate to
/// stderr. The silencing is thread-local: concurrent tests keep their
/// normal panic output.
pub fn run_captured(spec: &FuzzSpec) -> Result<ScenarioRun, String> {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    QUIET_PANICS.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| spec.run()));
    QUIET_PANICS.with(|q| q.set(false));
    result.unwrap_or_else(|payload| {
        Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string()))
    })
}

// ------------------------------------------------------------ shrinker

/// Shrinks a failing spec to a (locally) minimal one that still fails:
/// the first candidate of [`simpler`] that is valid against the timeline
/// model and still fails the oracle replaces the spec, until none does.
/// Returns the smallest failing spec found within the shrink budget.
pub fn shrink(spec: &FuzzSpec) -> FuzzSpec {
    let mut best = spec.clone();
    let mut runs = 0usize;
    let mut still_fails = |c: &FuzzSpec| {
        let candidate = runs < SHRINK_BUDGET && c.valid();
        runs += usize::from(candidate);
        candidate && run_captured(c).is_err()
    };
    while let Some(smaller) = simpler(&best).into_iter().find(&mut still_fails) {
        best = smaller;
    }
    best
}

/// Every one-edit simplification of `best`, most promising first: drop
/// timeline verbs (singly, then in dependent pairs), strip faults,
/// shorten the run, thin the fleet, disable the query load, strip
/// replication, flatten the tree.
fn simpler(best: &FuzzSpec) -> Vec<FuzzSpec> {
    let mut out = Vec::new();
    let mut edit = |apply: &dyn Fn(&mut FuzzSpec)| {
        let mut c = best.clone();
        apply(&mut c);
        if c != *best {
            out.push(c);
        }
    };
    // One verb (later verbs first: follow-ups before causes), then
    // dependent pairs (a crash and its restart/failover).
    let verbs = best.events.len();
    for i in (0..verbs).rev() {
        edit(&|c| _ = c.events.remove(i));
    }
    for i in 0..verbs {
        for j in (i + 1..verbs).rev() {
            edit(&|c| {
                c.events.remove(j);
                c.events.remove(i);
            });
        }
    }
    // Network faults wholesale, then piecewise.
    edit(&|c| {
        (c.drop_prob, c.dup_prob, c.reorder) = (0.0, 0.0, None);
        c.partitions.clear();
        c.spikes.clear();
    });
    for i in (0..best.partitions.len()).rev() {
        edit(&|c| _ = c.partitions.remove(i));
    }
    for i in (0..best.spikes.len()).rev() {
        edit(&|c| _ = c.spikes.remove(i));
    }
    edit(&|c| c.drop_prob = 0.0);
    edit(&|c| c.dup_prob = 0.0);
    edit(&|c| c.reorder = None);
    // The run, to just past the last verb; then the fleet.
    let last_step = best.events.iter().map(|e| e.at_step).max().unwrap_or(0);
    edit(&|c| c.steps = c.steps.min(last_step + 2));
    for n in [2, best.num_objects / 2].into_iter().filter(|&n| n >= 2) {
        edit(&|c| c.num_objects = c.num_objects.min(n));
    }
    // The macro query mix (falling back to the simple root round),
    // then the mid-chaos query load altogether.
    edit(&|c| c.macro_mix = false);
    edit(&|c| c.mid_chaos_queries = false);
    // The replication subsystem: a failure that survives this is an
    // ordinary protocol bug, not a replication one. (Standby-slot ids
    // shift, so re-validation may veto it.)
    edit(&|c| c.replication = false);
    edit(&|c| c.levels = c.levels.min(1));
    out
}

// ------------------------------------------------------------- the DSL

impl FuzzSpec {
    /// The one-line replay DSL for this spec. Round-trips exactly
    /// through [`parse_dsl`]: every float is printed in its shortest
    /// exact form. `runtime=`, `shards=` and `inbox=` are printed when
    /// they differ from what [`parse_dsl`] assumes (the simulator, the
    /// default [`ShardSpec`]).
    pub fn to_dsl(&self) -> String {
        let mut out = Vec::new();
        if self.runtime != Runtime::Sim {
            out.push(format!("runtime={}", self.runtime));
        }
        out.extend([
            format!("seed={}", self.seed),
            format!("levels={}", self.levels),
            format!("fanout={}", self.fanout),
            format!("objects={}", self.num_objects),
            format!("speed={}", self.speed_mps),
            format!("steps={}", self.steps),
            format!("dt={}", self.step_dt_s),
            match self.mobility {
                MobilityKind::RandomWaypoint => "mobility=waypoint".to_string(),
                MobilityKind::Manhattan { spacing_m } => format!("mobility=manhattan:{spacing_m}"),
                MobilityKind::GaussMarkov { alpha } => format!("mobility=gauss:{alpha}"),
                MobilityKind::Stationary => "mobility=stationary".to_string(),
            },
            match self.policy {
                UpdatePolicy::Distance { threshold_m } => format!("policy=dist:{threshold_m}"),
                UpdatePolicy::Periodic { period_us } => format!("policy=period:{period_us}"),
                UpdatePolicy::DeadReckoning { threshold_m } => format!("policy=dead:{threshold_m}"),
            },
            format!("queries={}", u8::from(self.mid_chaos_queries)),
            format!("mix={}", u8::from(self.macro_mix)),
            match self.caches {
                CacheMode::Off => "caches=off".to_string(),
                CacheMode::On { max_aged_acc_m } => format!("caches=on:{max_aged_acc_m}"),
            },
        ]);
        if self.layout.shards != ShardSpec::default().shards {
            out.push(format!("shards={}", self.layout.shards));
        }
        if self.layout.inbox_cap != ShardSpec::default().inbox_cap {
            out.push(format!("inbox={}", self.layout.inbox_cap));
        }
        if self.replication {
            out.push("repl=1".to_string());
        }
        if self.drop_prob > 0.0 {
            out.push(format!("drop={}", self.drop_prob));
        }
        if self.dup_prob > 0.0 {
            out.push(format!("dup={}", self.dup_prob));
        }
        if let Some((p, spread)) = self.reorder {
            out.push(format!("reorder={p}:{spread}"));
        }
        for (start, end, ids) in &self.partitions {
            let ids: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
            out.push(format!("part={start}-{end}:{}", ids.join("+")));
        }
        for (start, end, extra) in &self.spikes {
            out.push(format!("spike={start}-{end}:{extra}"));
        }
        for ev in &self.events {
            out.push(format!("ev={}:{}", ev.at_step, ev.action));
        }
        out.join(" ")
    }
}

/// Parses a replay line produced by [`FuzzSpec::to_dsl`] (as printed
/// by a failing fuzz batch) back into the exact spec.
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_dsl(dsl: &str) -> Result<FuzzSpec, String> {
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse::<T>().map_err(|e| format!("bad {key}='{v}': {e}"))
    }
    let mut spec = FuzzSpec {
        runtime: Runtime::Sim,
        seed: 0,
        levels: 1,
        fanout: 2,
        num_objects: 8,
        speed_mps: 10.0,
        steps: 10,
        step_dt_s: 2.0,
        mobility: MobilityKind::RandomWaypoint,
        policy: UpdatePolicy::Distance { threshold_m: 10.0 },
        mid_chaos_queries: false,
        macro_mix: false,
        caches: CacheMode::Off,
        replication: false,
        drop_prob: 0.0,
        dup_prob: 0.0,
        reorder: None,
        partitions: Vec::new(),
        spikes: Vec::new(),
        events: Vec::new(),
        layout: ShardSpec::default(),
    };
    for token in dsl.split_whitespace() {
        let (key, value) =
            token.split_once('=').ok_or_else(|| format!("token '{token}' is not key=value"))?;
        match key {
            "runtime" => spec.runtime = value.parse()?,
            "shards" => spec.layout.shards = num("shards", value)?,
            "inbox" => spec.layout.inbox_cap = num("inbox", value)?,
            "seed" => spec.seed = num("seed", value)?,
            "levels" => spec.levels = num("levels", value)?,
            "fanout" => spec.fanout = num("fanout", value)?,
            "objects" => spec.num_objects = num("objects", value)?,
            "speed" => spec.speed_mps = num("speed", value)?,
            "steps" => spec.steps = num("steps", value)?,
            "dt" => spec.step_dt_s = num("dt", value)?,
            "mobility" => {
                spec.mobility = match value.split_once(':') {
                    None if value == "waypoint" => MobilityKind::RandomWaypoint,
                    None if value == "stationary" => MobilityKind::Stationary,
                    Some(("manhattan", a)) => {
                        MobilityKind::Manhattan { spacing_m: num("mobility", a)? }
                    }
                    Some(("gauss", a)) => MobilityKind::GaussMarkov { alpha: num("mobility", a)? },
                    _ => return Err(format!("unknown mobility '{value}'")),
                }
            }
            "policy" => {
                spec.policy = match value.split_once(':') {
                    Some(("dist", a)) => UpdatePolicy::Distance { threshold_m: num("policy", a)? },
                    Some(("period", a)) => UpdatePolicy::Periodic { period_us: num("policy", a)? },
                    Some(("dead", a)) => {
                        UpdatePolicy::DeadReckoning { threshold_m: num("policy", a)? }
                    }
                    _ => return Err(format!("unknown policy '{value}'")),
                }
            }
            "queries" => spec.mid_chaos_queries = value == "1",
            "mix" => spec.macro_mix = value == "1",
            "caches" => {
                spec.caches = match value.split_once(':') {
                    None if value == "off" => CacheMode::Off,
                    Some(("on", a)) => CacheMode::On { max_aged_acc_m: num("caches", a)? },
                    _ => return Err(format!("unknown cache mode '{value}'")),
                }
            }
            "repl" => spec.replication = value == "1",
            "drop" => spec.drop_prob = num("drop", value)?,
            "dup" => spec.dup_prob = num("dup", value)?,
            "reorder" => {
                let (p, spread) =
                    value.split_once(':').ok_or_else(|| format!("bad reorder '{value}'"))?;
                spec.reorder = Some((num("reorder", p)?, num("reorder", spread)?));
            }
            "part" | "spike" => {
                // `<start>-<end>:<what the window does>`
                let (start, rest) =
                    value.split_once('-').ok_or_else(|| format!("bad {key} window '{value}'"))?;
                let (end, arg) =
                    rest.split_once(':').ok_or_else(|| format!("bad {key} '{value}'"))?;
                let (start, end) = (num(key, start)?, num(key, end)?);
                if key == "spike" {
                    spec.spikes.push((start, end, num(key, arg)?));
                } else {
                    let ids = arg.split('+').map(|i| num::<u32>("part id", i));
                    spec.partitions.push((start, end, ids.collect::<Result<_, _>>()?));
                }
            }
            "ev" => {
                let (step, verb) =
                    value.split_once(':').ok_or_else(|| format!("bad ev '{value}'"))?;
                spec.events.push(ScenarioEvent {
                    at_step: num("ev step", step)?,
                    action: verb.parse()?,
                });
            }
            _ => return Err(format!("unknown key '{key}'")),
        }
    }
    Ok(spec)
}

/// Parses and runs a committed reproducer on the runtime its
/// `runtime=` token names (the simulator when absent), panicking with
/// the full oracle report on failure — the regression-corpus entry
/// point.
///
/// # Panics
///
/// Panics when the DSL is malformed, the timeline is invalid, the
/// runtime cannot run the plan, or the oracle rejects the run.
pub fn replay_dsl(dsl: &str) -> ScenarioRun {
    let spec = parse_dsl(dsl).expect("malformed reproducer DSL");
    assert!(spec.valid(), "reproducer timeline is not constructible: {dsl}");
    spec.run().unwrap_or_else(|rejection| panic!("reproducer rejected: {rejection}"))
}

// --------------------------------------------------------------- batch

/// Aggregates of one green fuzz batch, for gate assertions: the batch
/// must actually have exercised the machinery, not just idled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Scenarios run (all oracle-green).
    pub cases: u32,
    /// Timeline verbs applied across the batch.
    pub events: u64,
    /// Scenarios that reshaped the tree (spawn/retire/promote).
    pub reshapes: u32,
    /// Scenarios that promoted over a crashed root.
    pub promotions: u32,
    /// Scenarios that crashed at least one server.
    pub crashes: u32,
    /// Scenarios that checkpointed a durable server mid-run.
    pub checkpoints: u32,
    /// Scenarios where a checkpoint was immediately followed by a
    /// same-step power loss on the same server — the loss lands right
    /// across the checkpoint commit boundary, exercising recovery
    /// generation arbitration.
    pub checkpoint_cuts: u32,
    /// §6.5 cache answers served across the batch.
    pub cache_answers: u64,
    /// Bulk state transfers completed across the batch.
    pub transfers_completed: u64,
    /// Objects alive at the verdicts (sum).
    pub alive: u64,
}

/// The case count for a batch: `default`, overridden by the
/// `HILOC_FUZZ_CASES` environment knob for longer local runs.
pub fn cases_from_env(default: u32) -> u32 {
    std::env::var("HILOC_FUZZ_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Runs `cases` simulator scenarios generated from `base_seed`. Each is
/// oracle-checked; the first failure is shrunk to a minimal reproducer
/// and reported as a panic carrying one replayable DSL line. With
/// `replication` set, every scenario deploys warm standbys and the leaf
/// replica rings, and the generator's bias steers the timelines at
/// their verbs (root/standby crashes, `PromoteStandby`).
///
/// # Panics
///
/// Panics with the shrunk reproducer when any generated scenario
/// violates an oracle invariant.
pub fn fuzz_batch_with(
    base_seed: u64,
    cases: u32,
    caches: CacheMode,
    replication: bool,
) -> BatchStats {
    let mut stats = BatchStats::default();
    for case in 0..cases {
        let seed = base_seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let spec = generate_with(seed, caches, replication, Runtime::Sim);
        debug_assert!(spec.valid(), "generator produced an invalid timeline");
        match run_captured(&spec) {
            Ok(run) => {
                use FaultAction::{Checkpoint, Crash, PowerLoss, PromoteStandby, Retire, Spawn};
                let any = |verb: fn(&FaultAction) -> bool| {
                    u32::from(spec.events.iter().any(|e| verb(&e.action)))
                };
                stats.cases += 1;
                stats.events += spec.events.len() as u64;
                stats.reshapes += any(|a| matches!(a, Spawn { .. } | Retire(_) | PromoteStandby));
                stats.promotions += any(|a| matches!(a, PromoteStandby));
                stats.crashes += any(|a| matches!(a, Crash(_) | PowerLoss(_)));
                stats.checkpoints += any(|a| matches!(a, Checkpoint(_)));
                stats.checkpoint_cuts += u32::from(spec.events.windows(2).any(|w| {
                    matches!(
                        (&w[0].action, &w[1].action),
                        (Checkpoint(a), PowerLoss(b)) if a == b && w[0].at_step == w[1].at_step
                    )
                }));
                stats.cache_answers += run.stats.cache_answers;
                stats.transfers_completed += run.stats.transfers_completed;
                stats.alive += run.alive as u64;
            }
            Err(first_failure) => {
                let minimal = shrink(&spec);
                let failure =
                    run_captured(&minimal).err().unwrap_or_else(|| first_failure.clone());
                let headline = |s: &str| s.lines().next().unwrap_or("").to_string();
                panic!(
                    "fuzzer found a failing scenario (case {case}, seed {seed}, {} verbs; \
                     shrunk to {} verbs)\n\
                     --- replay with: hiloc_sim::fuzz::replay_dsl(\"{}\")\n\
                     --- original failure: {}\n\
                     --- shrunk failure: {}\n\
                     --- full shrunk report below --\n{failure}",
                    spec.events.len(),
                    minimal.events.len(),
                    minimal.to_dsl(),
                    headline(&first_failure),
                    headline(&failure),
                );
            }
        }
    }
    stats
}
