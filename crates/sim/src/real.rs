//! Scenario fuzzing for the **real** runtimes.
//!
//! [`fuzz`](crate::fuzz) explores the protocol space under the
//! deterministic simulator. This module points the same idea at the
//! deployment runtimes the simulator stands in for: seeded plans of
//! load interleaved with the sharded engine's chaos verbs — `crash`
//! (leaf), `restart`, `partition`-by-drop / `heal`, and fire-and-forget
//! overload `burst`s against a deliberately tiny inbox — executed over
//! a [`ShardedDeployment`] on in-process channels or on real sockets,
//! wall clock and all.
//!
//! The oracle is end-of-run exactness: after the plan heals every
//! partition and restarts every crashed server, a repair round
//! re-establishes each object (re-registering where a volatile crash
//! lost it), and then every object's last **acked** position must be
//! queryable bit-for-bit via its agent. Operations the runtime shed or
//! timed out never enter the ground truth — load-shedding is the
//! contract, losing acknowledged state is the bug.
//!
//! Plan generation draws are independent of runtime behaviour, so the
//! same plan replays the same movement everywhere. That is what makes
//! [`run_plan`] double as a parity harness: a fault-free plan executed
//! over [`RuntimeHarness`] on either transport and over [`SimHarness`]
//! (the simulator oracle) must produce identical records — see
//! `crates/sim/tests/real_runtime_fuzz.rs`.
//!
//! Failures print a one-line DSL replayable via [`replay_real_dsl`],
//! mirroring the simulator fuzzer's reproducer workflow.

use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_core::model::{LsError, Micros, ObjectId, Sighting};
use hiloc_core::runtime::{
    Client, ShardSpec, ShardedDeployment, SimDeployment, SyncClient, ThreadedDeployment,
    UdpClient, UdpDeployment, UpdateOutcome,
};
use hiloc_core::{LocationDescriptor, Message, ServerOptions};
use hiloc_geo::{Point, Rect};
use hiloc_net::{Port, ServerId};
use hiloc_util::prop::Gen;
use hiloc_util::rng::RngExt;
use std::collections::BTreeSet;
use std::time::Duration;

/// Service-area side length used by every generated plan (m).
const AREA_M: f64 = 1_000.0;
/// Registration accuracy contract used throughout: desired / minimum
/// accuracy (m) and maximum object speed (m/s).
const DES_ACC_M: f64 = 10.0;
const MIN_ACC_M: f64 = 50.0;
const MAX_SPEED_MPS: f64 = 2.0;
/// Per-operation timeout while chaos verbs are in effect — short, so a
/// blackholed server costs milliseconds, not the default five seconds.
const CHAOS_TIMEOUT: Duration = Duration::from_millis(200);
/// Per-operation timeout for registration, repair and the verdict.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(2);
/// Repair attempts per object before the oracle gives up.
const REPAIR_ATTEMPTS: u32 = 5;

// ------------------------------------------------------------- the plan

/// One step of a [`RealPlan`] timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RealVerb {
    /// `rounds` rounds of blocking movement updates across the fleet.
    Load {
        /// Update rounds (one update per object per round).
        rounds: u32,
    },
    /// Crash a leaf: its instance is dropped, traffic blackholes.
    Crash(u32),
    /// Restart a previously crashed leaf (fresh volatile state).
    Restart(u32),
    /// Partition-by-drop: the listed servers on one side, everyone
    /// else on the other; cross-group server traffic is dropped.
    Partition {
        /// Server ids isolated from the rest of the tree.
        isolated: Vec<u32>,
    },
    /// Clear the partition filter.
    Heal,
    /// Fire-and-forget update flood at one object's agent — the
    /// overload generator (only meaningful with a tiny inbox).
    Burst {
        /// Index of the target object in the fleet.
        obj: u32,
        /// Number of no-wait updates to blast.
        updates: u32,
    },
}

/// A seeded, self-contained chaos plan for a real runtime. Same seed,
/// same plan; the plan's own seed also drives all movement draws, so a
/// plan replays identically regardless of runtime timing.
#[derive(Debug, Clone, PartialEq)]
pub struct RealPlan {
    /// Master seed (timeline and movement).
    pub seed: u64,
    /// Tracked objects.
    pub num_objects: u32,
    /// Event-loop shards the deployment runs.
    pub shards: u32,
    /// Per-shard inbox bound (threaded runtime).
    pub inbox_cap: u32,
    /// The timeline.
    pub verbs: Vec<RealVerb>,
}

impl RealPlan {
    /// The hierarchy every plan deploys: a one-level grid, root `0`
    /// over leaves `1..=4` — small enough that wall-clock chaos stays
    /// fast, deep enough that registration needs cross-server paths.
    pub fn hierarchy(&self) -> Hierarchy {
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(AREA_M, AREA_M));
        HierarchyBuilder::grid(rect, 1, 2).build().expect("plan grid")
    }

    /// The shard layout every real harness deploys the plan with.
    fn spec(&self) -> ShardSpec {
        ShardSpec { shards: self.shards as usize, inbox_cap: self.inbox_cap as usize }
    }

    /// Whether the timeline is well-formed: crash/restart alternate per
    /// server, partitions nest correctly, and the plan ends healed with
    /// every server back up (the oracle needs a reachable settle).
    pub fn valid(&self) -> bool {
        if self.num_objects == 0 || self.shards == 0 || self.inbox_cap == 0 {
            return false;
        }
        let mut down: BTreeSet<u32> = BTreeSet::new();
        let mut partitioned = false;
        for verb in &self.verbs {
            match verb {
                RealVerb::Load { .. } => {}
                RealVerb::Crash(id) => {
                    if !(1..=4).contains(id) || !down.insert(*id) {
                        return false;
                    }
                }
                RealVerb::Restart(id) => {
                    if !down.remove(id) {
                        return false;
                    }
                }
                RealVerb::Partition { isolated } => {
                    if partitioned || isolated.is_empty() || isolated.iter().any(|i| *i > 4) {
                        return false;
                    }
                    partitioned = true;
                }
                RealVerb::Heal => {
                    if !partitioned {
                        return false;
                    }
                    partitioned = false;
                }
                RealVerb::Burst { obj, .. } => {
                    if *obj >= self.num_objects {
                        return false;
                    }
                }
            }
        }
        down.is_empty() && !partitioned
    }
}

/// Generates a random, valid plan for `seed`. With `overload` set the
/// deployment gets a deliberately tiny inbox and the timeline includes
/// fire-and-forget bursts, so shedding is reachable (and asserted by
/// the gate); otherwise the inbox is the production default and the
/// timeline sticks to crash / restart / partition verbs.
pub fn generate_real(seed: u64, overload: bool) -> RealPlan {
    let mut g = Gen::for_seed(seed);
    let num_objects = g.random_range(3..=6u32);
    let shards = g.random_range(1..=4u32);
    let inbox_cap = if overload { g.random_range(2..=8u32) } else { 4096 };

    let mut verbs = vec![RealVerb::Load { rounds: 2 }];
    let mut down: BTreeSet<u32> = BTreeSet::new();
    let mut partitioned = false;
    for _ in 0..g.random_range(3..=6u32) {
        // (crash, restart, partition, heal, burst, load)
        let weights = [
            if down.len() < 2 { 3 } else { 0 },
            if down.is_empty() { 0 } else { 3 },
            if partitioned { 0 } else { 2 },
            if partitioned { 3 } else { 0 },
            if overload { 3 } else { 0 },
            2,
        ];
        match g.weighted(&weights) {
            0 => {
                let up: Vec<u32> = (1..=4).filter(|id| !down.contains(id)).collect();
                let id = *g.pick(&up);
                down.insert(id);
                verbs.push(RealVerb::Crash(id));
            }
            1 => {
                let ids: Vec<u32> = down.iter().copied().collect();
                let id = *g.pick(&ids);
                down.remove(&id);
                verbs.push(RealVerb::Restart(id));
            }
            2 => {
                // Isolate one leaf, or a leaf together with the root.
                let leaf = g.random_range(1..=4u32);
                let isolated = if g.chance(0.3) { vec![0, leaf] } else { vec![leaf] };
                partitioned = true;
                verbs.push(RealVerb::Partition { isolated });
            }
            3 => {
                partitioned = false;
                verbs.push(RealVerb::Heal);
            }
            4 => {
                verbs.push(RealVerb::Burst {
                    obj: g.random_range(0..num_objects),
                    updates: g.random_range(200..=600u32),
                });
            }
            _ => verbs.push(RealVerb::Load { rounds: 1 }),
        }
        // Mix load between most chaos verbs so faults land on a moving
        // fleet, not a parked one.
        if g.chance(0.6) {
            verbs.push(RealVerb::Load { rounds: 1 });
        }
    }
    // Close the timeline: heal, bring everything back, settle load.
    if partitioned {
        verbs.push(RealVerb::Heal);
    }
    for id in down {
        verbs.push(RealVerb::Restart(id));
    }
    verbs.push(RealVerb::Load { rounds: 1 });

    let plan = RealPlan { seed, num_objects, shards, inbox_cap, verbs };
    debug_assert!(plan.valid(), "generator produced an invalid plan");
    plan
}

// ------------------------------------------------------------ harnesses

/// What the plan executor needs from a deployment: the blocking client
/// operations plus the chaos verbs. Implemented by both real runtimes
/// and by the simulator (the parity oracle).
pub trait RealHarness {
    /// Runtime label for reports.
    fn name(&self) -> &'static str;
    /// Leaf responsible for `p`.
    fn leaf_for(&self, p: Point) -> ServerId;
    /// Microseconds since deployment start.
    fn now_us(&self) -> Micros;
    /// Per-operation timeout for the blocking calls.
    fn set_timeout(&mut self, t: Duration);
    /// Blocking registration; returns `(agent, offered_acc)`.
    fn register(&mut self, entry: ServerId, s: Sighting) -> Result<(ServerId, f64), LsError>;
    /// Blocking position update.
    fn update(&mut self, agent: ServerId, s: Sighting) -> Result<UpdateOutcome, LsError>;
    /// Blocking position query via `entry`.
    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError>;
    /// Crash verb; `false` when already down.
    fn crash(&mut self, id: ServerId) -> bool;
    /// Restart verb; `false` when not down.
    fn restart(&mut self, id: ServerId) -> bool;
    /// Install the partition-by-drop filter.
    fn set_partition(&mut self, groups: &[Vec<ServerId>]);
    /// Clear the partition filter.
    fn clear_partition(&mut self);
    /// Fire-and-forget burst of `n` updates of sighting `s` at
    /// `agent`; returns how many actually left the client. The
    /// simulator has no no-wait path and returns 0.
    fn burst(&mut self, agent: ServerId, s: Sighting, n: u32) -> u64;
    /// Total envelopes shed at full inboxes so far.
    fn shed_total(&self) -> u64;
    /// Drops buffered stale replies before the repair phase.
    fn drain(&mut self);
}

/// A real runtime under the plan executor: a [`ShardedDeployment`] `D`
/// on either transport, driven through its blocking [`Client`] `C`.
pub struct RuntimeHarness<D, C> {
    name: &'static str,
    dep: D,
    client: C,
}

impl RuntimeHarness<ThreadedDeployment, SyncClient> {
    /// Deploys the plan's hierarchy over in-process channels with its
    /// shard/inbox layout.
    pub fn threaded(plan: &RealPlan) -> Self {
        let dep =
            ThreadedDeployment::new_sharded(plan.hierarchy(), ServerOptions::default(), plan.spec());
        let client = dep.client();
        RuntimeHarness { name: "threaded", dep, client }
    }
}

impl RuntimeHarness<UdpDeployment, UdpClient> {
    /// Binds the plan's hierarchy on loopback sockets. The inbox bound
    /// there is the kernel socket buffer, so nothing is ever counted as
    /// shed; generate UDP plans with `overload = false`.
    ///
    /// # Panics
    ///
    /// Panics when the loopback sockets cannot be bound.
    pub fn udp(plan: &RealPlan) -> Self {
        let dep =
            UdpDeployment::bind_sharded(plan.hierarchy(), ServerOptions::default(), plan.spec())
                .expect("bind plan deployment");
        let client = dep.client().expect("bind plan client");
        RuntimeHarness { name: "udp", dep, client }
    }
}

impl<W, L: Port<Message>> RealHarness for RuntimeHarness<ShardedDeployment<W>, Client<L>> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn leaf_for(&self, p: Point) -> ServerId {
        self.dep.leaf_for(p)
    }
    fn now_us(&self) -> Micros {
        self.dep.now_us()
    }
    fn set_timeout(&mut self, t: Duration) {
        self.client.set_timeout(t);
    }
    fn register(&mut self, entry: ServerId, s: Sighting) -> Result<(ServerId, f64), LsError> {
        self.client.register(entry, s, DES_ACC_M, MIN_ACC_M, MAX_SPEED_MPS)
    }
    fn update(&mut self, agent: ServerId, s: Sighting) -> Result<UpdateOutcome, LsError> {
        self.client.update(agent, s)
    }
    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError> {
        self.client.pos_query(entry, oid)
    }
    fn crash(&mut self, id: ServerId) -> bool {
        self.dep.crash_server(id)
    }
    fn restart(&mut self, id: ServerId) -> bool {
        self.dep.restart_server(id)
    }
    fn set_partition(&mut self, groups: &[Vec<ServerId>]) {
        self.dep.set_partition(groups);
    }
    fn clear_partition(&mut self) {
        self.dep.clear_partition();
    }
    fn burst(&mut self, agent: ServerId, s: Sighting, n: u32) -> u64 {
        (0..n).filter(|_| self.client.update_nowait(agent, s)).count() as u64
    }
    fn shed_total(&self) -> u64 {
        self.dep.shed_total()
    }
    fn drain(&mut self) {
        self.client.drain_mailbox();
    }
}

/// The deterministic simulator under the same executor — the parity
/// oracle for fault-free plans (`run_plan` over [`RuntimeHarness`]
/// and over this must produce identical records). Chaos verbs map to
/// the simulator's own crash/restart; the partition filter has no
/// simulator equivalent and is a no-op, so only use fault-free plans
/// for parity.
pub struct SimHarness {
    dep: SimDeployment,
}

impl SimHarness {
    /// Deploys the plan's hierarchy in the simulator.
    pub fn new(plan: &RealPlan) -> Self {
        SimHarness { dep: SimDeployment::new(plan.hierarchy(), ServerOptions::default(), plan.seed) }
    }
}

impl RealHarness for SimHarness {
    fn name(&self) -> &'static str {
        "sim"
    }
    fn leaf_for(&self, p: Point) -> ServerId {
        self.dep.leaf_for(p)
    }
    fn now_us(&self) -> Micros {
        self.dep.now_us()
    }
    fn set_timeout(&mut self, _t: Duration) {}
    fn register(&mut self, entry: ServerId, s: Sighting) -> Result<(ServerId, f64), LsError> {
        self.dep.register_with_speed(entry, s, DES_ACC_M, MIN_ACC_M, MAX_SPEED_MPS)
    }
    fn update(&mut self, agent: ServerId, s: Sighting) -> Result<UpdateOutcome, LsError> {
        self.dep.update(agent, s)
    }
    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError> {
        self.dep.pos_query(entry, oid)
    }
    fn crash(&mut self, id: ServerId) -> bool {
        if self.dep.is_down(id) {
            return false;
        }
        self.dep.crash_server(id);
        true
    }
    fn restart(&mut self, id: ServerId) -> bool {
        if !self.dep.is_down(id) {
            return false;
        }
        self.dep.restart_server(id);
        true
    }
    fn set_partition(&mut self, _groups: &[Vec<ServerId>]) {}
    fn clear_partition(&mut self) {}
    fn burst(&mut self, _agent: ServerId, _s: Sighting, _n: u32) -> u64 {
        0
    }
    fn shed_total(&self) -> u64 {
        0
    }
    fn drain(&mut self) {
        self.dep.run_until_quiet();
    }
}

// -------------------------------------------------------- the executor

/// What one plan execution did and concluded. `final_positions` is the
/// verdict record — `(object id, ground-truth position)` pairs, every
/// one verified queryable bit-for-bit before this struct is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct RealRun {
    /// Timeline verbs applied.
    pub verbs: u32,
    /// Crash verbs applied.
    pub crashes: u32,
    /// Partition windows applied.
    pub partitions: u32,
    /// Fire-and-forget burst envelopes actually enqueued.
    pub burst_delivered: u64,
    /// Blocking updates acknowledged (incl. handovers).
    pub acked: u64,
    /// Blocking updates that timed out under chaos (excluded from
    /// ground truth by construction).
    pub unacked: u64,
    /// Objects re-registered after a volatile crash lost them.
    pub reregistered: u64,
    /// Acked updates that moved the object to a new agent.
    pub handovers: u64,
    /// Envelopes shed at full inboxes across the run.
    pub shed: u64,
    /// The verified end-state, sorted by object id.
    pub final_positions: Vec<(u64, Point)>,
}

struct ObjState {
    oid: ObjectId,
    agent: ServerId,
    /// Ground truth: the last position the runtime *acknowledged*.
    pos: Point,
}

/// Executes `plan` against `h` and runs the oracle.
///
/// # Panics
///
/// Panics with a replayable report when the oracle fails: an object
/// cannot be repaired after the timeline closes, or its verified query
/// answer differs from the last acked position.
pub fn run_plan<H: RealHarness>(h: &mut H, plan: &RealPlan) -> RealRun {
    assert!(plan.valid(), "plan is not well-formed: {}", plan.to_dsl());
    let mut g = Gen::for_seed(plan.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut run = RealRun {
        verbs: 0,
        crashes: 0,
        partitions: 0,
        burst_delivered: 0,
        acked: 0,
        unacked: 0,
        reregistered: 0,
        handovers: 0,
        shed: 0,
        final_positions: Vec::new(),
    };

    // ---- fleet registration (no chaos yet; retries don't draw).
    h.set_timeout(SETTLE_TIMEOUT);
    let mut objects: Vec<ObjState> = Vec::new();
    for i in 0..plan.num_objects {
        let pos = Point::new(g.random_range(0.0..AREA_M), g.random_range(0.0..AREA_M));
        let oid = ObjectId(u64::from(i) + 1);
        let entry = h.leaf_for(pos);
        let mut agent = None;
        for _ in 0..3 {
            let s = Sighting::new(oid, h.now_us(), pos, 5.0);
            if let Ok((a, _)) = h.register(entry, s) {
                agent = Some(a);
                break;
            }
        }
        let agent = agent
            .unwrap_or_else(|| panic!("[{}] initial registration of {oid:?} failed", h.name()));
        objects.push(ObjState { oid, agent, pos });
    }

    // ---- the timeline. Movement draws are per load round and per
    // object, unconditionally — outcomes never shift the sequence, so
    // a plan replays identical positions on every harness. The short
    // timeout only pays off when verbs can actually blackhole traffic;
    // fault-free (parity) plans keep the generous one so a slow host
    // cannot fork the record.
    let has_faults = plan
        .verbs
        .iter()
        .any(|v| !matches!(v, RealVerb::Load { .. }));
    h.set_timeout(if has_faults { CHAOS_TIMEOUT } else { SETTLE_TIMEOUT });
    for verb in &plan.verbs {
        run.verbs += 1;
        match verb {
            RealVerb::Load { rounds } => {
                for _ in 0..*rounds {
                    for obj in &mut objects {
                        let target =
                            Point::new(g.random_range(0.0..AREA_M), g.random_range(0.0..AREA_M));
                        let s = Sighting::new(obj.oid, h.now_us(), target, 5.0);
                        match h.update(obj.agent, s) {
                            Ok(UpdateOutcome::Ack { .. }) => {
                                obj.pos = target;
                                run.acked += 1;
                            }
                            Ok(UpdateOutcome::NewAgent { agent, .. }) => {
                                obj.agent = agent;
                                obj.pos = target;
                                run.acked += 1;
                                run.handovers += 1;
                            }
                            Ok(UpdateOutcome::OutOfServiceArea) | Err(_) => {
                                // Not acknowledged: ground truth keeps
                                // the previous acked position.
                                run.unacked += 1;
                            }
                        }
                    }
                }
            }
            RealVerb::Crash(id) => {
                run.crashes += 1;
                h.crash(ServerId(*id));
            }
            RealVerb::Restart(id) => {
                h.restart(ServerId(*id));
            }
            RealVerb::Partition { isolated } => {
                run.partitions += 1;
                let iso: Vec<ServerId> = isolated.iter().map(|&i| ServerId(i)).collect();
                let rest: Vec<ServerId> =
                    (0..=4).filter(|i| !isolated.contains(i)).map(ServerId).collect();
                h.set_partition(&[iso, rest]);
            }
            RealVerb::Heal => h.clear_partition(),
            RealVerb::Burst { obj, updates } => {
                let o = &objects[*obj as usize];
                let s = Sighting::new(o.oid, h.now_us(), o.pos, 5.0);
                run.burst_delivered += h.burst(o.agent, s, *updates);
            }
        }
    }

    // ---- repair: the timeline is closed (healed, everything up).
    // Re-establish every object — a volatile crash lost its agent's
    // state, so a timed-out update falls back to re-registration.
    h.drain();
    h.set_timeout(SETTLE_TIMEOUT);
    for obj in &mut objects {
        let mut repaired = false;
        for _ in 0..REPAIR_ATTEMPTS {
            let s = Sighting::new(obj.oid, h.now_us(), obj.pos, 5.0);
            match h.update(obj.agent, s) {
                Ok(UpdateOutcome::Ack { .. }) => {
                    repaired = true;
                }
                Ok(UpdateOutcome::NewAgent { agent, .. }) => {
                    obj.agent = agent;
                    repaired = true;
                }
                Ok(UpdateOutcome::OutOfServiceArea) | Err(_) => {
                    let entry = h.leaf_for(obj.pos);
                    let s = Sighting::new(obj.oid, h.now_us(), obj.pos, 5.0);
                    if let Ok((agent, _)) = h.register(entry, s) {
                        obj.agent = agent;
                        run.reregistered += 1;
                        repaired = true;
                    }
                }
            }
            if repaired {
                break;
            }
        }
        assert!(
            repaired,
            "[{}] oracle: {:?} not repairable after the timeline closed\n\
             --- replay with: hiloc_sim::real::replay_real_dsl(\"{} runtime={}\")",
            h.name(),
            obj.oid,
            plan.to_dsl(),
            h.name(),
        );
    }

    // ---- verdict: every object's last acked position, bit-for-bit.
    for obj in &objects {
        let mut last = None;
        for _ in 0..3 {
            match h.pos_query(obj.agent, obj.oid) {
                Ok(ld) => {
                    last = Some(ld);
                    break;
                }
                Err(_) => continue,
            }
        }
        let ld = last.unwrap_or_else(|| {
            panic!(
                "[{}] oracle: {:?} unqueryable after repair\n\
                 --- replay with: hiloc_sim::real::replay_real_dsl(\"{} runtime={}\")",
                h.name(),
                obj.oid,
                plan.to_dsl(),
                h.name(),
            )
        });
        assert!(
            ld.pos == obj.pos,
            "[{}] oracle: {:?} answered {:?}, last acked {:?}\n\
             --- replay with: hiloc_sim::real::replay_real_dsl(\"{} runtime={}\")",
            h.name(),
            obj.oid,
            ld.pos,
            obj.pos,
            plan.to_dsl(),
            h.name(),
        );
        run.final_positions.push((obj.oid.0, obj.pos));
    }
    run.shed = h.shed_total();
    run
}

// ------------------------------------------------------------- the DSL

impl RealPlan {
    /// One-line replay DSL; round-trips through [`parse_real_dsl`].
    pub fn to_dsl(&self) -> String {
        let mut out = vec![
            format!("seed={}", self.seed),
            format!("objects={}", self.num_objects),
            format!("shards={}", self.shards),
            format!("inbox={}", self.inbox_cap),
        ];
        for verb in &self.verbs {
            out.push(match verb {
                RealVerb::Load { rounds } => format!("ev=load:{rounds}"),
                RealVerb::Crash(id) => format!("ev=crash:{id}"),
                RealVerb::Restart(id) => format!("ev=restart:{id}"),
                RealVerb::Partition { isolated } => {
                    let ids: Vec<String> = isolated.iter().map(|i| i.to_string()).collect();
                    format!("ev=part:{}", ids.join("+"))
                }
                RealVerb::Heal => "ev=heal".to_string(),
                RealVerb::Burst { obj, updates } => format!("ev=burst:{obj}:{updates}"),
            });
        }
        out.join(" ")
    }
}

/// Parses a replay line produced by [`RealPlan::to_dsl`] — plus an
/// optional `runtime=threaded|udp` token consumed by
/// [`replay_real_dsl`] — back into `(plan, runtime)`.
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_real_dsl(dsl: &str) -> Result<(RealPlan, String), String> {
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse::<T>().map_err(|e| format!("bad {key}='{v}': {e}"))
    }
    let mut plan =
        RealPlan { seed: 0, num_objects: 4, shards: 1, inbox_cap: 4096, verbs: Vec::new() };
    let mut runtime = "threaded".to_string();
    for token in dsl.split_whitespace() {
        let (key, value) =
            token.split_once('=').ok_or_else(|| format!("token '{token}' is not key=value"))?;
        match key {
            "seed" => plan.seed = num("seed", value)?,
            "objects" => plan.num_objects = num("objects", value)?,
            "shards" => plan.shards = num("shards", value)?,
            "inbox" => plan.inbox_cap = num("inbox", value)?,
            "runtime" => runtime = value.to_string(),
            "ev" => {
                let (verb, arg) = match value.split_once(':') {
                    Some((v, a)) => (v, Some(a)),
                    None => (value, None),
                };
                fn arg1<'a>(verb: &str, a: Option<&'a str>) -> Result<&'a str, String> {
                    a.ok_or_else(|| format!("verb '{verb}' needs an argument"))
                }
                plan.verbs.push(match verb {
                    "load" => RealVerb::Load { rounds: num("load", arg1(verb, arg)?)? },
                    "crash" => RealVerb::Crash(num("crash", arg1(verb, arg)?)?),
                    "restart" => RealVerb::Restart(num("restart", arg1(verb, arg)?)?),
                    "part" => RealVerb::Partition {
                        isolated: arg1(verb, arg)?
                            .split('+')
                            .map(|i| num::<u32>("part id", i))
                            .collect::<Result<Vec<u32>, String>>()?,
                    },
                    "heal" => RealVerb::Heal,
                    "burst" => {
                        let (obj, updates) = arg1(verb, arg)?
                            .split_once(':')
                            .ok_or_else(|| format!("bad burst '{value}'"))?;
                        RealVerb::Burst {
                            obj: num("burst obj", obj)?,
                            updates: num("burst updates", updates)?,
                        }
                    }
                    _ => return Err(format!("unknown plan verb '{verb}'")),
                });
            }
            _ => return Err(format!("unknown key '{key}'")),
        }
    }
    Ok((plan, runtime))
}

/// Parses and runs a committed reproducer against the runtime its
/// `runtime=` token names — the regression-corpus entry point.
///
/// # Panics
///
/// Panics when the DSL is malformed, the plan is invalid, or the
/// oracle rejects the run.
pub fn replay_real_dsl(dsl: &str) -> RealRun {
    let (plan, runtime) = parse_real_dsl(dsl).expect("malformed reproducer DSL");
    assert!(plan.valid(), "reproducer plan is not well-formed: {dsl}");
    match runtime.as_str() {
        "threaded" => run_plan(&mut RuntimeHarness::threaded(&plan), &plan),
        "udp" => run_plan(&mut RuntimeHarness::udp(&plan), &plan),
        "sim" => run_plan(&mut SimHarness::new(&plan), &plan),
        other => panic!("unknown runtime '{other}' in reproducer DSL"),
    }
}
