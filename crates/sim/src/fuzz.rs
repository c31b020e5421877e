//! Generative chaos: a property-based scenario fuzzer with shrinking,
//! over the one chaos plan.
//!
//! The scripted suites (`chaos_scenarios.rs`, `churn_scenarios.rs`)
//! explore a handful of curated timelines. This module explores the
//! *space*: a seeded generator emits random but **valid** plans — the
//! same [`ScenarioSpec`] a scripted suite writes by hand — for the
//! [`Runtime`] it is asked to target: mixed update/query load
//! interleaved with every [`FaultAction`] verb and fault-plan window
//! that runtime declares it can run, optionally with the §6.5 caches
//! enabled under bounded-staleness semantics. [`ScenarioSpec::run`]
//! checks each against the [`scenario`](crate::scenario) oracle, and on
//! failure [`shrink`] cuts the plan to a minimal reproducer printed as
//! a single replayable DSL line. One plan type, one generator, one
//! validity model and one DSL serve the simulator and the real
//! runtimes; the line's `runtime=` token says where [`replay_dsl`] runs
//! it, and every plan — generated or hand-written — prints one.
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
//! Everything is seed-deterministic: `generate_with(seed, …)` always
//! yields the same plan, a simulator run of that plan always produces
//! the same trace (a real runtime replays the same movement on the
//! host's clock), and the printed DSL replays the exact plan via
//! [`replay_dsl`]. `HILOC_FUZZ_CASES` scales batch sizes for longer
//! local runs (CI uses the fixed default).

use crate::harness::Runtime;
use crate::mobility::MobilityKind;
use crate::scenario::{subtree_endpoints, FaultAction, ScenarioEvent, ScenarioRun, ScenarioSpec};
use hiloc_core::area::Hierarchy;
use hiloc_core::cache::CacheConfig;
use hiloc_core::model::{UpdatePolicy, SECOND};
use hiloc_core::runtime::ShardSpec;
use hiloc_net::{Endpoint, FaultPlan, LatencySpike, LinkFault, Partition, ServerId};
use hiloc_util::prop::Gen;
use hiloc_util::rng::RngExt;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Hard cap on the number of servers a timeline may grow to.
const MAX_SERVERS: usize = 32;
/// The smallest fleet the generator draws.
const MIN_OBJECTS: u64 = 6;
/// Hard cap on candidate runs one [`shrink`] call may spend.
const SHRINK_BUDGET: usize = 300;

/// The §6.5 caches the DSL's `caches=on:<aged>` deploys: area, agent
/// and position caches on, the position cache's
/// `position_max_aged_acc_m` staleness bound at `max_aged_acc_m`.
/// (`caches=off` is [`CacheConfig::default`].)
pub fn caches_on(max_aged_acc_m: f64) -> CacheConfig {
    CacheConfig { position_max_aged_acc_m: max_aged_acc_m, ..CacheConfig::all_enabled() }
}

impl ScenarioSpec {
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
        let mut model = TimelineModel::new(self.hierarchy(), self.num_objects, self.replication);
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

/// The generator: a random, valid plan for `runtime` from `seed`,
/// deploying `caches` — same seed, same plan. It draws only what the
/// runtime declares it can run ([`Runtime::capabilities`]): reshape
/// verbs, the link model's faults and timed windows, clock-keyed update
/// policies; `Partition` / `HealNetwork` verb pairs where the network
/// can only be cut by verb; a shard layout; and — where inboxes are
/// bounded — sometimes a tiny inbox with overload `Burst`s, so shedding
/// is reachable. What a
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
    caches: CacheConfig,
    replication: bool,
    runtime: Runtime,
) -> ScenarioSpec {
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
    let mut faults = FaultPlan::uniform(drop_prob, dup_prob);
    if link && g.chance(0.4) {
        faults = faults.with_reorder(g.random_range(0.05..0.3), g.random_range(10_000..150_000u64));
    }

    let h0 = ScenarioSpec { levels, fanout, ..Default::default() }.hierarchy();

    for _ in 0..if link { g.weighted(&[4, 3, 1]) } else { 0 } {
        let start = g.random_range(2 * SECOND..(horizon_us * 6 / 10).max(3 * SECOND));
        let dur = g.random_range(4 * SECOND..=16 * SECOND);
        let isolated: Vec<Endpoint> = if g.chance(0.5) {
            // Isolate a whole subtree.
            let all: Vec<ServerId> = h0.servers().iter().map(|c| c.id).collect();
            let sub = *g.pick(&all[1..]); // never the root's subtree (everything)
            subtree_endpoints(&h0, sub)
        } else {
            // Isolate one or two individual servers.
            let mut ids: Vec<u32> = (0..h0.len() as u32).collect();
            g.shuffle(&mut ids);
            ids.truncate(g.random_range(1..=2));
            ids.into_iter().map(|id| Endpoint::Server(ServerId(id))).collect()
        };
        faults = faults.with_partition(Partition::isolate(start, start + dur, isolated));
    }
    for _ in 0..if link { g.weighted(&[3, 1]) } else { 0 } {
        let start = g.random_range(SECOND..(horizon_us * 7 / 10).max(2 * SECOND));
        let dur = g.random_range(2 * SECOND..=10 * SECOND);
        let extra_us = g.random_range(50_000..400_000u64);
        faults = faults.with_spike(LatencySpike::new(start, start + dur, extra_us));
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
                // (snapshot committed, WAL truncation maybe lost): the
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

    ScenarioSpec {
        name: format!("fuzz-{seed}"),
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
        faults,
        durable: true,
        mid_chaos_queries: g.chance(0.7),
        macro_mix: g.chance(0.35),
        caches,
        replication,
        events,
        layout,
        ..Default::default()
    }
}

// -------------------------------------------------------- quiet runner

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}
static PANIC_HOOK: Once = Once::new();

/// Runs a plan, converting an oracle panic into `Err(message)`, as a
/// rejection before deployment already is, without
/// spewing the (huge) failure report of every shrink candidate to
/// stderr. The silencing is thread-local: concurrent tests keep their
/// normal panic output.
pub fn run_captured(spec: &ScenarioSpec) -> Result<ScenarioRun, String> {
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
pub fn shrink(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut best = spec.clone();
    let mut runs = 0usize;
    let mut still_fails = |c: &ScenarioSpec| {
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
fn simpler(best: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    let mut edit = |apply: &dyn Fn(&mut ScenarioSpec)| {
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
    // Network faults wholesale, then piecewise: one fault token off the
    // replay line (partitions and spikes last first, then drop, dup and
    // reorder), parsed back.
    edit(&|c| c.faults = FaultPlan::none());
    let line = best.to_dsl();
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let at = |key: &'static str| tokens.iter().enumerate().filter(move |(_, t)| t.starts_with(key));
    let pieces = at("part=").rev().chain(at("spike=").rev());
    let pieces = pieces.chain(at("drop=")).chain(at("dup=")).chain(at("reorder="));
    for (i, _) in pieces {
        let without: Vec<&str> =
            tokens.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, t)| *t).collect();
        let faults = parse_dsl(&without.join(" ")).expect("a replay line less one token").faults;
        edit(&|c| c.faults = faults.clone());
    }
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

impl ScenarioSpec {
    /// The one-line replay DSL for this plan; [`parse_dsl`] reads it
    /// back to the same plan, name aside, and [`ScenarioSpec::run`]
    /// checks that before deploying. Every float is printed in its
    /// shortest exact form. `runtime=`, `shards=`, `inbox=`, `repl=`,
    /// `durable=`, `scale=` and the fault tokens are printed only when
    /// they differ from what [`parse_dsl`] assumes. A setting the DSL
    /// cannot say — a partition that is not an isolated server set, a
    /// link fault not between two servers, a cache configuration other
    /// than off or [`caches_on`] — does not survive the line, and
    /// [`ScenarioSpec::run`] refuses the plan, naming the field.
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
            if self.caches == CacheConfig::default() {
                "caches=off".to_string()
            } else {
                format!("caches=on:{}", self.caches.position_max_aged_acc_m)
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
        if !self.durable {
            out.push("durable=0".to_string());
        }
        if self.time_scale != 1 {
            out.push(format!("scale={}", self.time_scale));
        }
        let faults = &self.faults;
        if faults.drop_prob() > 0.0 {
            out.push(format!("drop={}", faults.drop_prob()));
        }
        if faults.duplicate_prob() > 0.0 {
            out.push(format!("dup={}", faults.duplicate_prob()));
        }
        let (p, spread) = faults.reorder();
        if p > 0.0 || spread > 0 {
            out.push(format!("reorder={p}:{spread}"));
        }
        for link in faults.links() {
            if let (Some(Endpoint::Server(from)), Some(Endpoint::Server(to))) = link.ends() {
                let (drop, dup, extra_us) = link.effects();
                out.push(format!("link={}-{}:{drop}:{dup}:{extra_us}", from.0, to.0));
            }
        }
        for partition in faults.partitions() {
            let ids: Option<Vec<String>> = partition.isolated().and_then(|set| {
                set.iter().map(|e| e.as_server().map(|id| id.0.to_string())).collect()
            });
            if let Some(ids) = ids {
                let (start, end) = partition.window();
                out.push(format!("part={start}-{end}:{}", ids.join("+")));
            }
        }
        for spike in faults.spikes() {
            let (start, end) = spike.window();
            out.push(format!("spike={start}-{end}:{}", spike.extra_us()));
        }
        for ev in &self.events {
            out.push(format!("ev={}:{}", ev.at_step, ev.action));
        }
        out.join(" ")
    }
}

/// Parses a replay line produced by [`ScenarioSpec::to_dsl`] (as
/// printed by every failing plan) back into the exact plan, named
/// `fuzz-<seed>`. A key the line leaves out takes the parse base: the
/// simulator, seed 0, 8 objects over 10 steps of 2 s, one level of
/// fan-out 2, random waypoint at 10 m/s reporting every 10 m, durable
/// stores, no query load, caches off, no faults — otherwise
/// [`ScenarioSpec::default`].
///
/// # Errors
///
/// Returns a description of the first malformed token — a flag other
/// than `0` or `1`, and a fault value out of range (a probability
/// outside `[0, 1]`, a window that ends before it starts), which
/// [`FaultPlan`] would refuse, included.
pub fn parse_dsl(dsl: &str) -> Result<ScenarioSpec, String> {
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse::<T>().map_err(|e| format!("bad {key}='{v}': {e}"))
    }
    fn flag(key: &str, v: &str) -> Result<bool, String> {
        match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("bad {key}='{v}': neither 0 nor 1")),
        }
    }
    fn prob(key: &str, v: &str) -> Result<f64, String> {
        let p: f64 = num(key, v)?;
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(format!("bad {key}='{v}': not a probability in [0, 1]"))
        }
    }
    /// `<start>-<end>:<what the window does>`, start at most end.
    fn window<'v>(key: &str, v: &'v str) -> Result<(u64, u64, &'v str), String> {
        let (start, rest) = v.split_once('-').ok_or_else(|| format!("bad {key} window '{v}'"))?;
        let (end, arg) = rest.split_once(':').ok_or_else(|| format!("bad {key} '{v}'"))?;
        let (start, end) = (num(key, start)?, num(key, end)?);
        if start <= end {
            Ok((start, end, arg))
        } else {
            Err(format!("bad {key} window '{v}': it ends before it starts"))
        }
    }
    let server = |v: &str| num::<u32>("server id", v).map(|id| Endpoint::Server(ServerId(id)));
    let mut spec =
        ScenarioSpec { seed: 0, num_objects: 8, steps: 10, durable: true, ..Default::default() };
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
            "queries" => spec.mid_chaos_queries = flag(key, value)?,
            "mix" => spec.macro_mix = flag(key, value)?,
            "caches" => {
                spec.caches = match value.split_once(':') {
                    None if value == "off" => CacheConfig::default(),
                    Some(("on", a)) => caches_on(num("caches", a)?),
                    _ => return Err(format!("unknown cache mode '{value}'")),
                }
            }
            "repl" => spec.replication = flag(key, value)?,
            "durable" => spec.durable = flag(key, value)?,
            "scale" => spec.time_scale = num("scale", value)?,
            "drop" | "dup" | "reorder" | "link" | "part" | "spike" => {
                let faults = std::mem::take(&mut spec.faults);
                spec.faults = match key {
                    "drop" => faults.with_drop(prob(key, value)?),
                    "dup" => faults.with_duplicate(prob(key, value)?),
                    "reorder" => {
                        let (p, spread) =
                            value.split_once(':').ok_or_else(|| format!("bad reorder '{value}'"))?;
                        faults.with_reorder(prob(key, p)?, num(key, spread)?)
                    }
                    "link" => {
                        // `<from>-<to>:<drop>:<dup>:<extra_us>`, two server ids
                        let bad = || format!("bad link '{value}'");
                        let (ends, effects) = value.split_once(':').ok_or_else(bad)?;
                        let (from, to) = ends.split_once('-').ok_or_else(bad)?;
                        let effects: Vec<&str> = effects.split(':').collect();
                        let [drop, dup, extra_us] = effects[..] else { return Err(bad()) };
                        faults.with_link(
                            LinkFault::between(server(from)?, server(to)?)
                                .with_drop(prob(key, drop)?)
                                .with_duplicate(prob(key, dup)?)
                                .with_extra_latency(num(key, extra_us)?),
                        )
                    }
                    "part" => {
                        let (start, end, ids) = window(key, value)?;
                        let isolated = ids.split('+').map(server).collect::<Result<_, _>>()?;
                        faults.with_partition(Partition::isolate(start, end, isolated))
                    }
                    _ => {
                        let (start, end, extra_us) = window(key, value)?;
                        faults.with_spike(LatencySpike::new(start, end, num(key, extra_us)?))
                    }
                };
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
    spec.name = format!("fuzz-{}", spec.seed);
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

/// Runs `cases` simulator plans generated from `base_seed`, each
/// deploying `caches`. Each is
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
    caches: CacheConfig,
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
