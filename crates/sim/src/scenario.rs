//! The one chaos plan, its one executor and the oracle.
//!
//! A [`ScenarioSpec`] drives a seeded [`Fleet`] through a fault
//! timeline — the [`FaultAction`] verbs, plus (where the runtime has a
//! link model) timed partitions, latency spikes and lossy links
//! scheduled in the [`FaultPlan`] — over any [`Harness`]:
//! [`ScenarioSpec::run_on`] is the only function that walks a timeline,
//! on the simulator and on the real runtimes alike. It then verifies,
//! against an in-memory naive [`Oracle`], that the service healed:
//!
//! * **No registered object is lost** — every object that was never
//!   deregistered is answerable by a position query, routed through the
//!   hierarchy root where the soft state was waited out and asked of
//!   the object's agent otherwise.
//! * **Point answers match the oracle** — the returned position equals
//!   the last position the service *acknowledged* to the object, and
//!   the accuracy is within the registration's contract.
//! * **Range answers match the oracle** — the returned object set
//!   equals the naive oracle's prediction under the paper's range
//!   qualification predicate (where the soft state was waited out: a
//!   handover ghost that has not expired yet would answer too).
//! * **Durably-acked registrations survive crashes** — on every
//!   scripted restart, the recovered visitor database is compared
//!   record-for-record against a snapshot taken at the crash instant
//!   (where server internals can be read), and on every runtime a
//!   durable plan must end with nobody re-registered.
//!
//! On the simulator every run is bit-for-bit deterministic given the
//! spec (seed included); on every runtime the fleet's movement is, and
//! every failure panics with the replay line, the seed and the fault
//! timeline.

use crate::harness::Harness;
use crate::mobility::MobilityKind;
use crate::{Fleet, FleetConfig};
use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_core::cache::CacheConfig;
use hiloc_core::model::{
    semantics, Hlc, LocationDescriptor, Micros, ObjectId, RangeQuery, Sighting, UpdatePolicy,
    SECOND,
};
use hiloc_core::node::{DurabilityOptions, ServerOptions, StorageSyncPolicy, VisitorRecord};
use hiloc_core::runtime::{CrashMode, ShardSpec, SimDeployment};
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::{Endpoint, FaultPlan, LatencyModel, ServerId};
use hiloc_util::tempdir::TempDir;
use std::collections::{BTreeMap, BTreeSet};

/// Soft-state sighting TTL used by scenario deployments.
pub const SIGHTING_TTL_US: Micros = 60 * SECOND;
/// Path keep-alive period used by scenario deployments.
pub const PATH_REFRESH_US: Micros = 15 * SECOND;
/// Path TTL (must exceed `2 × PATH_REFRESH_US`).
pub const PATH_TTL_US: Micros = 45 * SECOND;
/// Distributed-gather deadline used by scenario deployments.
pub const QUERY_TIMEOUT_US: Micros = SECOND / 2;

/// Every endpoint of the subtree rooted at `root` — the usual building
/// block for a subtree partition.
pub fn subtree_endpoints(h: &Hierarchy, root: ServerId) -> Vec<Endpoint> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        out.push(Endpoint::Server(id));
        for child in &h.server(id).children {
            stack.push(child.id);
        }
    }
    out
}

/// A scripted fault action — the one verb set of every plan on every
/// runtime (`Spawn`, `Retire` and `PromoteStandby` need
/// [`Capabilities::reshape`](crate::harness::Capabilities::reshape)).
/// Formats as, and parses from, the replay DSL's verb (`crash:1`,
/// `part:0+3`, `burst:2:400`, `heal`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash a server: volatile state and in-flight messages to it are
    /// lost; its durable store stays on disk.
    Crash(ServerId),
    /// Crash a server with power loss: like [`FaultAction::Crash`],
    /// but WAL bytes not yet fsynced are dropped too. (With the
    /// harness's `SyncPolicy::Always` stores nothing acknowledged is
    /// ever un-synced, so the record-for-record recovery check still
    /// applies.)
    PowerLoss(ServerId),
    /// Restart a crashed (or running) server, replaying durable state.
    /// The harness verifies the recovered visitor records against the
    /// crash-instant snapshot.
    Restart(ServerId),
    /// Checkpoint a running server's storage engine: commit a sealed
    /// snapshot of each durable table, truncate the WAL. A
    /// no-op for volatile deployments. Scheduling a
    /// [`FaultAction::PowerLoss`] for the same server in the same step
    /// lands the loss right at the checkpoint commit boundary — the
    /// recovery-arbitration case the generation-stamped WAL exists
    /// for.
    Checkpoint(ServerId),
    /// Heal the network ahead of the settle phase: lifts a `Partition`
    /// and replaces the scheduled fault plan with [`FaultPlan::none`].
    HealNetwork,
    /// Partition-by-drop: server↔server traffic between the listed
    /// servers and everyone else is dropped until `HealNetwork` (or the
    /// settle phase); client traffic still gets through.
    Partition {
        /// Servers cut off from the rest of the tree.
        isolated: Vec<ServerId>,
    },
    /// Fire-and-forget flood of updates at one object's agent — the
    /// overload generator (it sheds where inboxes are bounded).
    Burst {
        /// Index of the target object in the fleet.
        obj: u32,
        /// Number of un-awaited updates to send.
        updates: u32,
    },
    /// **Join**: a new server splits the area of the given leaf and
    /// receives the covered records via bulk state transfer. The new
    /// id is always the next dense slot (`hierarchy.len()` at apply
    /// time) — predictable, so fault plans can target it.
    Spawn {
        /// The leaf whose area the newcomer splits.
        split: ServerId,
    },
    /// **Leave**: the given leaf drains everything to the sibling
    /// absorbing its area and detaches.
    Retire(ServerId),
    /// **Root failover**: promote a successor over the crashed root
    /// (the root must have been crashed by an earlier event and stays
    /// retired forever — no `Restart` for it). With
    /// [`ScenarioSpec::replication`] on and the root's warm standby
    /// alive, this is an O(1) adoption of the streamed table and the
    /// harness checks the **promotion contract**: no durably-acked
    /// record of the stream may be missing from the promoted table.
    /// Without a (live) standby a fresh successor rebuilds via chunked
    /// `pathSync`.
    PromoteStandby,
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Crash(id) => write!(f, "crash:{}", id.0),
            FaultAction::PowerLoss(id) => write!(f, "powerloss:{}", id.0),
            FaultAction::Restart(id) => write!(f, "restart:{}", id.0),
            FaultAction::Spawn { split } => write!(f, "spawn:{}", split.0),
            FaultAction::Retire(id) => write!(f, "retire:{}", id.0),
            FaultAction::Checkpoint(id) => write!(f, "checkpoint:{}", id.0),
            FaultAction::PromoteStandby => f.write_str("promote"),
            FaultAction::HealNetwork => f.write_str("heal"),
            FaultAction::Partition { isolated } => {
                let ids: Vec<String> = isolated.iter().map(|id| id.0.to_string()).collect();
                write!(f, "part:{}", ids.join("+"))
            }
            FaultAction::Burst { obj, updates } => write!(f, "burst:{obj}:{updates}"),
        }
    }
}

impl std::str::FromStr for FaultAction {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        let (verb, arg) = match s.split_once(':') {
            Some((v, a)) => (v, Some(a)),
            None => (s, None),
        };
        let arg = || arg.ok_or_else(|| format!("verb '{verb}' needs an argument"));
        let num = |a: &str| a.parse::<u32>().map_err(|e| format!("bad number '{a}' in '{s}': {e}"));
        let id = || Ok::<_, String>(ServerId(num(arg()?)?));
        match verb {
            "crash" => Ok(FaultAction::Crash(id()?)),
            "powerloss" => Ok(FaultAction::PowerLoss(id()?)),
            "restart" => Ok(FaultAction::Restart(id()?)),
            "spawn" => Ok(FaultAction::Spawn { split: id()? }),
            "retire" => Ok(FaultAction::Retire(id()?)),
            "checkpoint" => Ok(FaultAction::Checkpoint(id()?)),
            "promote" => Ok(FaultAction::PromoteStandby),
            "heal" => Ok(FaultAction::HealNetwork),
            "part" => {
                let ids = arg()?.split('+').map(|a| num(a).map(ServerId));
                Ok(FaultAction::Partition { isolated: ids.collect::<Result<_, _>>()? })
            }
            "burst" => {
                let (obj, updates) =
                    arg()?.split_once(':').ok_or_else(|| format!("bad burst '{s}'"))?;
                Ok(FaultAction::Burst { obj: num(obj)?, updates: num(updates)? })
            }
            _ => Err(format!("unknown timeline verb '{verb}'")),
        }
    }
}

/// A fault action bound to a step of the scenario clock (applied
/// before the fleet moves at that step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioEvent {
    /// The step before which the action fires.
    pub at_step: u32,
    /// What happens.
    pub action: FaultAction,
}

/// A complete scripted chaos scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Name, printed in failure reports.
    pub name: String,
    /// Master seed: placement, mobility, network jitter and fault draws
    /// all derive from it. Two runs with the same spec are identical.
    pub seed: u64,
    /// Side length of the square service area (meters).
    pub area_m: f64,
    /// Hierarchy depth below the root.
    pub levels: u32,
    /// Grid fan-out per level (`k × k` children).
    pub fanout: u32,
    /// Number of tracked objects.
    pub num_objects: u64,
    /// Object speed (m/s).
    pub speed_mps: f64,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// Update-reporting policy.
    pub policy: UpdatePolicy,
    /// Virtual seconds per step.
    pub step_dt_s: f64,
    /// Number of chaos steps before the settle phase.
    pub steps: u32,
    /// Network latency model.
    pub latency: LatencyModel,
    /// The scheduled fault plan (partitions, spikes, loss, reordering).
    pub faults: FaultPlan,
    /// Whether visitor databases are durable (required for crash
    /// scenarios that must not lose registrations).
    pub durable: bool,
    /// Issue a position query and a range query through the current
    /// root every step, mid-chaos, recording the outcomes in the trace
    /// — "mixed update/query load" for crash and reconfiguration
    /// scenarios. Mid-chaos answers may time out or be stale (faults
    /// are active); the settle-phase oracle is what must be green.
    pub mid_chaos_queries: bool,
    /// With [`ScenarioSpec::mid_chaos_queries`] on, drive the **macro
    /// workload mix** each step instead of the simple root pos+range
    /// pair: Zipf-skewed position, range and nearest-neighbor queries
    /// entering at Zipf-hot *leaves* — the scaled-down shape of the
    /// macro benchmark's query load, so the bench harness's workload
    /// is itself chaos-proven. Ignored when `mid_chaos_queries` is
    /// off.
    pub macro_mix: bool,
    /// §6.5 cache configuration for every server. All off by default
    /// (the paper's measured prototype). With caches *on* the oracle
    /// switches to **bounded-staleness** point semantics: an answer
    /// must either equal the last acknowledged position exactly, or be
    /// a cache-aged descriptor whose accuracy stays within
    /// `position_max_aged_acc_m` *and* still covers the acknowledged
    /// position — and every stale agent/area cache hit must be healed
    /// by the hierarchy fallback, never turned into a wrong answer.
    pub caches: CacheConfig,
    /// Scripted crash/restart/heal/reshape events.
    pub events: Vec<ScenarioEvent>,
    /// Deploys the replication subsystem: a warm standby streaming
    /// each non-leaf's forwarding table, and the k=2 sibling replica
    /// ring among the leaves (see
    /// [`SimDeployment::enable_replication`]).
    pub replication: bool,
    /// Multiplies the soft-state windows (sighting TTL, path refresh
    /// and path TTL — *not* the query timeout). Every blocking client
    /// op advances virtual time by an RTT, so a step over a large
    /// population spans virtual *minutes*; at the default windows
    /// (tuned for tens of objects) a crashed leaf's sightings would
    /// expire before a scripted restart ever fires. Values ≤ 1 mean
    /// "unscaled".
    pub time_scale: u32,
    /// Shard count and per-shard inbox bound of the sharded engine; a
    /// runtime without one of them rejects a non-default value.
    pub layout: ShardSpec,
    /// The DSL line that replays this spec, printed by every failure
    /// report; empty for a hand-written spec (re-run it instead).
    pub replay: String,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".to_string(),
            seed: 1,
            area_m: 1_000.0,
            levels: 1,
            fanout: 2,
            num_objects: 20,
            speed_mps: 10.0,
            mobility: MobilityKind::RandomWaypoint,
            policy: UpdatePolicy::Distance { threshold_m: 10.0 },
            step_dt_s: 2.0,
            steps: 20,
            latency: LatencyModel::default(),
            faults: FaultPlan::none(),
            durable: false,
            mid_chaos_queries: false,
            macro_mix: false,
            caches: CacheConfig::default(),
            replication: false,
            events: Vec::new(),
            time_scale: 1,
            layout: ShardSpec::default(),
            replay: String::new(),
        }
    }
}

/// The outcome of a green scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// One line per step/event — two same-seed runs produce identical
    /// traces, which is how determinism is asserted.
    pub trace: Vec<String>,
    /// Objects still registered at the verdict.
    pub alive: usize,
    /// Every object's verified end state — `(object, last acknowledged
    /// position)` — in fleet order. Movement is drawn from the seed
    /// alone, so the same plan must end here on every runtime.
    pub final_positions: Vec<(ObjectId, Point)>,
    /// Objects the settle phase had to register afresh (a volatile
    /// crash lost their record); always 0 for a durable plan.
    pub reregistered: u64,
    /// The service clock at the verdict (virtual on the simulator).
    pub virtual_end_us: Micros,
    /// The simulated network's counters `(sent, delivered, dropped)` at
    /// the verdict; zero on a real runtime, whose transports keep none.
    pub net_counters: (u64, u64, u64),
    /// Messages the simulator blackholed at crashed servers.
    pub blackholed: u64,
    /// Aggregated server counters at the verdict (lets scenarios
    /// assert that the machinery under test — transfers, retries,
    /// path syncs, inbox sheds — actually ran).
    pub stats: hiloc_core::node::ServerStats,
    /// Service-clock latency of each mid-chaos query round (empty when
    /// `mid_chaos_queries` is off). Feed into
    /// [`crate::stats::Samples`] to assert percentile sanity under
    /// faults.
    pub query_latency_us: Vec<Micros>,
}

/// The naive in-memory oracle: for every live object, the position and
/// accuracy the service last *acknowledged*. Point and range answers
/// are checked against it with the same qualification predicate the
/// servers use.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    entries: BTreeMap<ObjectId, LocationDescriptor>,
}

impl Oracle {
    /// Builds the oracle from a fleet's acknowledged reports.
    pub fn from_fleet(fleet: &Fleet) -> Self {
        let mut entries = BTreeMap::new();
        for i in 0..fleet.len() {
            if fleet.alive(i) {
                entries.insert(
                    fleet.oid(i),
                    LocationDescriptor {
                        pos: fleet.last_report(i).pos,
                        acc_m: fleet.offered_acc(i),
                    },
                );
            }
        }
        Oracle { entries }
    }

    /// The oracle's answer set for a range query, using the same
    /// predicate the leaves apply (paper Alg. 6-5).
    pub fn expect_range(&self, query: &RangeQuery) -> BTreeSet<ObjectId> {
        self.entries
            .iter()
            .filter(|(_, ld)| {
                semantics::qualifies_for_range(&query.area, ld, query.req_acc_m, query.req_overlap)
            })
            .map(|(&oid, _)| oid)
            .collect()
    }
}

/// Every server's visitor record for `oid` — the first thing to look
/// at when a settled query answers "unknown" for a live object.
fn record_dump(ls: &SimDeployment, oid: ObjectId) -> String {
    let mut lines = Vec::new();
    for cfg in ls.hierarchy().servers() {
        let id = cfg.id;
        let state = match (ls.is_down(id), ls.is_retired(id)) {
            (_, true) => " [retired]",
            (true, _) => " [down]",
            _ => "",
        };
        if let Some(rec) = ls.server(id).and_then(|s| s.visitors().get(oid)) {
            lines.push(format!("  server {}{state}: {rec:?}", id.0));
        }
    }
    if lines.is_empty() {
        lines.push("  (no server holds a record)".to_string());
    }
    lines.join("\n")
}

type VisitorSnapshot = Vec<(ObjectId, VisitorRecord)>;

fn snapshot_visitors(ls: &SimDeployment, id: ServerId) -> VisitorSnapshot {
    let Some(server) = ls.server(id) else { return Vec::new() };
    server.visitors().iter().collect()
}

impl ScenarioSpec {
    /// The hierarchy this scenario deploys — also usable *before*
    /// [`ScenarioSpec::run`] to pick server ids for partitions and
    /// crash events (grid construction is deterministic).
    pub fn hierarchy(&self) -> Hierarchy {
        let rect =
            Rect::new(Point::new(0.0, 0.0), Point::new(self.area_m, self.area_m));
        HierarchyBuilder::grid(rect, self.levels, self.fanout)
            .build()
            .expect("scenario grid hierarchy")
    }

    /// Runs the scenario on the simulator to its verdict.
    ///
    /// # Panics
    ///
    /// Panics — printing the seed and fault timeline needed to replay —
    /// when any oracle invariant is violated.
    pub fn run(&self) -> ScenarioRun {
        self.run_on::<SimDeployment>()
            .unwrap_or_else(|e| panic!("chaos scenario '{}' was rejected: {e}", self.name))
    }

    /// Runs the scenario on runtime `H` to its verdict — the one
    /// function that walks a timeline.
    ///
    /// # Errors
    ///
    /// [`Capabilities::admit`](crate::harness::Capabilities::admit)'s
    /// rejection; nothing has been deployed.
    ///
    /// # Panics
    ///
    /// Panics — printing the replay line, seed and fault timeline —
    /// when a verb is not applied or an oracle invariant is violated.
    pub fn run_on<H: Harness>(&self) -> Result<ScenarioRun, String> {
        H::CAPS.admit(H::RUNTIME, self)?;
        let mut trace = Vec::new();
        // A mis-scheduled event would otherwise silently never fire and
        // the scenario would go green without testing what it scripted.
        for ev in &self.events {
            assert!(
                ev.at_step < self.steps,
                "scenario '{}': event {ev:?} is scheduled at or after the last step ({})",
                self.name,
                self.steps
            );
        }
        // Declared before the deployment, so the directory outlives it.
        let dir_guard =
            self.durable.then(|| TempDir::new(&format!("chaos-{}-{}", self.name, self.seed)));
        let durability = dir_guard.as_ref().map(|guard| DurabilityOptions {
            dir: guard.path().to_path_buf(),
            policy: StorageSyncPolicy::Always,
        });
        let scale = Micros::from(self.time_scale.max(1));
        let opts = ServerOptions {
            sighting_ttl_us: SIGHTING_TTL_US * scale,
            path_refresh_us: PATH_REFRESH_US * scale,
            path_ttl_us: PATH_TTL_US * scale,
            query_timeout_us: QUERY_TIMEOUT_US,
            durability,
            caches: self.caches,
            ..Default::default()
        };
        let mut h = H::deploy(self, opts);
        let cfg = FleetConfig {
            num_objects: self.num_objects,
            speed_mps: self.speed_mps,
            mobility: self.mobility,
            policy: self.policy,
            seed: self.seed,
            ..Default::default()
        };
        if self.replication {
            // Before the registration wave: every change then streams
            // as a delta rather than riding the designation snapshot.
            let ls = reshaper(&mut h);
            ls.enable_replication();
            trace.push(format!(
                "replication enabled: root standby = server {}",
                ls.standby_of(ls.hierarchy().root()).map(|s| s.0).unwrap_or(u32::MAX)
            ));
        }
        let mut fleet = match Fleet::register(cfg, &mut h) {
            Ok(f) => f,
            Err(e) => self.fail(&trace, &format!("fleet registration failed: {e:?}")),
        };
        trace.push(format!(
            "registered {} objects across {} servers at t={}us",
            self.num_objects,
            h.hierarchy().len(),
            h.now_us()
        ));
        h.arm(self);

        let mut snapshots: BTreeMap<u32, VisitorSnapshot> = BTreeMap::new();
        let mut watermark: Option<(ServerId, BTreeMap<ObjectId, Hlc>)> = None;
        let mut down: BTreeSet<ServerId> = BTreeSet::new();
        let mut query_latency_us: Vec<Micros> = Vec::new();
        for step in 0..self.steps {
            for ev in self.events.iter().filter(|e| e.at_step == step) {
                if let FaultAction::Crash(id) | FaultAction::PowerLoss(id) = ev.action {
                    down.insert(id);
                } else if let FaultAction::Restart(id) = ev.action {
                    down.remove(&id);
                }
                self.apply_event(ev, &mut h, &fleet, &mut snapshots, &mut watermark, &mut trace);
            }
            let inbox = fleet.process_inbox(&mut h);
            let s = fleet.step(&mut h, self.step_dt_s);
            trace.push(format!(
                "step {step:>3} t={:>10}us alive={} sent={} acks={} handovers={} lost={} dereg={} \
                 agent_changes={} probes={}",
                h.now_us(),
                fleet.alive_count(),
                s.updates_sent,
                s.acks,
                s.handovers,
                s.lost,
                s.deregistered,
                inbox.agent_changes,
                inbox.probes_answered,
            ));
            if self.mid_chaos_queries {
                let t0 = h.now_us();
                trace.push(if self.macro_mix {
                    self.macro_mix_query(step, &mut h)
                } else {
                    self.mid_chaos_query(step, &mut h)
                });
                query_latency_us.push(h.now_us() - t0);
            }
        }

        // ---- settle: heal everything, then settle the harness's way.
        // Retired servers (left by `Retire`, or a root replaced by
        // failover) are down for good and exempt.
        if let Some(id) = down.iter().find(|&&id| !h.hierarchy().is_retired(id)) {
            self.fail(
                &trace,
                &format!("server {} still down at settle: every Crash needs a Restart", id.0),
            );
        }
        h.heal();
        trace.push(format!("settle: network healed at t={}us", h.now_us()));
        let settled = h.settle(&mut fleet, self);
        let last = settled.last;
        if last.updates_sent != last.acks + last.handovers {
            self.fail(
                &trace,
                &format!(
                    "settle reports must all be acknowledged on a healed network: {last:?}"
                ),
            );
        }
        trace.push(format!(
            "settled at t={}us: alive={} final_reports={:?}",
            h.now_us(),
            fleet.alive_count(),
            last
        ));
        if settled.reregistered > 0 {
            trace.push(format!("settle re-registered {} lost objects", settled.reregistered));
            if self.durable {
                self.fail(&trace, "a durable restart lost registrations the settle had to redo");
            }
        }

        self.check_invariants(&mut h, &fleet, settled.quiesced, &trace);

        let (net_counters, blackholed) =
            h.internals().map(|ls| (ls.net_counters(), ls.blackholed())).unwrap_or_default();
        Ok(ScenarioRun {
            alive: fleet.alive_count(),
            final_positions: (0..fleet.len())
                .map(|i| (fleet.oid(i), fleet.last_report(i).pos))
                .collect(),
            reregistered: settled.reregistered,
            virtual_end_us: h.now_us(),
            net_counters,
            blackholed,
            stats: h.total_stats(),
            query_latency_us,
            trace,
        })
    }

    /// One round of mixed query load against the *current* root while
    /// faults are active. Outcomes go into the trace (deterministic
    /// per seed); correctness is only demanded of the settled verdict.
    fn mid_chaos_query<H: Harness>(&self, step: u32, ls: &mut H) -> String {
        let root = ls.hierarchy().root();
        let oid = ObjectId(u64::from(step) % self.num_objects);
        let quadrant = quadrants(self.area_m)[step as usize % 4];
        let outcome = pos_and_range(ls, root, oid, quadrant);
        format!("query step {step:>3} via root {}: {outcome}", root.0)
    }

    /// One round of the **macro workload mix** while faults are active:
    /// a Zipf-skewed position query, a hot-cell range query and a
    /// hot-cell nearest-neighbor query, each entering at a Zipf-hot
    /// leaf (clients query their local leaf; popularity is skewed).
    /// Outcomes go into the trace — mid-chaos they may time out or be
    /// stale (the entry leaf may even be crashed); the settled oracle
    /// is the verdict. Deterministic per `(seed, step)`.
    fn macro_mix_query<H: Harness>(&self, step: u32, ls: &mut H) -> String {
        use hiloc_util::rng::{SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(self.seed ^ (u64::from(step) << 24) ^ 0x00AC_0517);
        let leaves: Vec<ServerId> = ls
            .hierarchy()
            .servers()
            .iter()
            .filter(|c| c.is_leaf() && !ls.hierarchy().is_retired(c.id))
            .map(|c| c.id)
            .collect();
        let zipf_leaf = crate::Zipf::new(leaves.len(), 0.9);
        let zipf_obj = crate::Zipf::new(self.num_objects as usize, 0.9);
        let min_acc_m = FleetConfig::default().min_acc_m;

        let entry = leaves[zipf_leaf.sample(&mut rng)];
        let oid = ObjectId(zipf_obj.sample(&mut rng) as u64);
        let hot = ls.hierarchy().server(leaves[zipf_leaf.sample(&mut rng)]).area;
        let side = (hot.max().x - hot.min().x).max(hot.max().y - hot.min().y);
        let cell = Rect::from_center_size(hot.center(), side / 2.0, side / 2.0);
        let pos_range = pos_and_range(ls, entry, oid, cell);

        let p = ls.hierarchy().server(leaves[zipf_leaf.sample(&mut rng)]).area.center();
        let nn = match ls.neighbor_query(entry, p, min_acc_m, min_acc_m / 2.0) {
            Ok(ans) => format!("nn={:?}:{}", ans.nearest.map(|(o, _)| o), ans.complete),
            Err(e) => format!("nn=err:{e:?}"),
        };
        format!("macro step {step:>3} via leaf {}: {pos_range} {nn}", entry.0)
    }

    /// Applies one timeline verb, failing the run at the verb when the
    /// harness reports it as not applied.
    fn apply_event<H: Harness>(
        &self,
        ev: &ScenarioEvent,
        h: &mut H,
        fleet: &Fleet,
        crash_snapshots: &mut BTreeMap<u32, VisitorSnapshot>,
        root_watermark: &mut Option<(ServerId, BTreeMap<ObjectId, Hlc>)>,
        trace: &mut Vec<String>,
    ) {
        let at = ev.at_step;
        // One trace line per verb: `what` ends inside its parenthesis.
        let line = |what: String, now: Micros| format!("event@{at}: {what}t={now}us)");
        let applied = match &ev.action {
            &FaultAction::Crash(id) | &FaultAction::PowerLoss(id) => {
                let (what, mode) = match ev.action {
                    FaultAction::Crash(_) => ("crash server", CrashMode::Process),
                    _ => ("power loss at server", CrashMode::PowerLoss),
                };
                let mut records = String::new();
                if let Some(ls) = h.internals() {
                    let snap = snapshot_visitors(ls, id);
                    records = format!("{} visitor records, ", snap.len());
                    crash_snapshots.insert(id.0, snap);
                    // Crashing the *root* freezes its stream's
                    // durably-acked watermark: a later `PromoteStandby`
                    // that adopts this stream's sink is checked against
                    // exactly this snapshot.
                    if id == ls.hierarchy().root() {
                        if let Some((sink, acked)) =
                            ls.server(id).and_then(|s| s.replication_acked())
                        {
                            *root_watermark = Some((sink, acked.clone()));
                        }
                    }
                }
                trace.push(line(format!("{what} {} ({records}", id.0), h.now_us()));
                h.crash(id, mode)
            }
            &FaultAction::Spawn { split } => {
                let ls = reshaper(h);
                let new_id = ls.spawn_server(split);
                let what = format!("server {} joined, splitting leaf {} (", new_id.0, split.0);
                trace.push(line(what, ls.now_us()));
                true
            }
            &FaultAction::Retire(id) => {
                let ls = reshaper(h);
                let absorber = ls.retire_server(id);
                let what =
                    format!("server {} left; sibling {} absorbs its area (", id.0, absorber.0);
                trace.push(line(what, ls.now_us()));
                true
            }
            FaultAction::PromoteStandby => {
                let ls = reshaper(h);
                let how = match ls.standby_of(ls.hierarchy().root()).map(|s| !ls.is_down(s)) {
                    Some(true) => "warm standby adoption",
                    Some(false) => "standby dead, cold pathSync",
                    None => "no standby, cold pathSync",
                };
                let new_root = ls.promote_root();
                let what = format!("root failed over to successor {} ({how}, ", new_root.0);
                trace.push(line(what, ls.now_us()));
                // Promotion contract: when the promoted server is the
                // crashed root's stream sink, every durably-acked
                // record must have survived adoption with at least its
                // acked stamp. Only meaningful with durable stores —
                // a volatile standby legitimately restarts empty.
                let adopted =
                    root_watermark.take().filter(|(sink, _)| self.durable && new_root == *sink);
                for (oid, stamp) in adopted.map(|(_, acked)| acked).unwrap_or_default() {
                    let rec = ls.server(new_root).and_then(|s| s.visitors().get(oid));
                    if rec.is_none_or(|rec| rec.epoch() < stamp) {
                        self.fail(
                            trace,
                            &format!(
                                "promotion lost durably-acked record {oid} (acked stamp {stamp}): \
                                 the standby acknowledged it but the promoted table does not hold \
                                 it\nrecord dump:\n{}",
                                record_dump(ls, oid)
                            ),
                        );
                    }
                }
                true
            }
            &FaultAction::Restart(id) => {
                let restarted = h.restart(id);
                let recovered = h.internals().map(|ls| snapshot_visitors(ls, id));
                let records = recovered
                    .as_ref()
                    .map(|r| format!("{} visitor records recovered, ", r.len()))
                    .unwrap_or_default();
                trace.push(line(format!("restart server {} ({records}", id.0), h.now_us()));
                let expected = crash_snapshots.remove(&id.0);
                if let (Some(recovered), Some(expected)) = (recovered, expected) {
                    if self.durable && recovered != expected {
                        self.fail(
                            trace,
                            &format!(
                                "server {} lost durably-acked records across the crash: \
                                 expected {expected:?}, recovered {recovered:?}",
                                id.0
                            ),
                        );
                    } else if !self.durable && !recovered.is_empty() {
                        let msg = format!("volatile server {} restarted with {recovered:?}", id.0);
                        self.fail(trace, &msg);
                    }
                }
                restarted
            }
            &FaultAction::Checkpoint(id) => {
                let checkpointed = h.checkpoint(id);
                trace.push(line(format!("checkpoint at server {} (", id.0), h.now_us()));
                checkpointed
            }
            FaultAction::HealNetwork => {
                h.heal();
                trace.push(line("network healed (".to_string(), h.now_us()));
                true
            }
            FaultAction::Partition { isolated } => {
                let all = h.hierarchy().servers().iter().map(|c| c.id);
                let rest: Vec<ServerId> = all.filter(|id| !isolated.contains(id)).collect();
                // An empty side cuts nothing (and is no partition).
                let cuts = !isolated.is_empty() && !rest.is_empty();
                if cuts {
                    h.partition(isolated, &rest);
                }
                let ids = |side: &[ServerId]| side.iter().map(|id| id.0).collect::<Vec<_>>();
                let (cut, kept) = (ids(isolated), ids(&rest));
                let what = format!("servers {cut:?} partitioned from {kept:?} (");
                trace.push(line(what, h.now_us()));
                cuts
            }
            &FaultAction::Burst { obj, updates } => {
                let i = obj as usize;
                let known = i < fleet.len();
                if known {
                    let agent = fleet.agent(i);
                    // The last acked position: no new ground truth.
                    let acked = fleet.last_report(i).pos;
                    let acc_sens_m = FleetConfig::default().acc_sens_m;
                    let flood = Sighting::new(fleet.oid(i), h.now_us(), acked, acc_sens_m);
                    let sent = h.burst(agent, flood, updates);
                    let what = format!(
                        "burst of {updates} updates at {}'s agent {}, {sent} left the client (",
                        fleet.oid(i),
                        agent.0
                    );
                    trace.push(line(what, h.now_us()));
                }
                known
            }
        };
        if !applied {
            let msg = format!(
                "verb ev={at}:{} was not applied by runtime={} (step {at})",
                ev.action,
                H::RUNTIME
            );
            self.fail(trace, &msg);
        }
    }

    /// The verdict. Where the soft state was waited out (`quiesced`),
    /// point queries enter at the root, exercising the whole forwarding
    /// path, and range answers are checked; otherwise a handover ghost
    /// may still sit on a stale path, and each object's agent is asked.
    fn check_invariants<H: Harness>(
        &self,
        ls: &mut H,
        fleet: &Fleet,
        quiesced: bool,
        trace: &[String],
    ) {
        // Every mobility model stays inside the service area, so a
        // deregistered object means the service *lost* a registration
        // (e.g. a crash without durability) and talked the object into
        // believing it left the area.
        for i in 0..fleet.len() {
            if !fleet.alive(i) {
                self.fail(
                    trace,
                    &format!(
                        "registered object {} was deregistered even though it never left \
                         the service area — a registration was lost",
                        fleet.oid(i)
                    ),
                );
            }
        }

        let oracle = Oracle::from_fleet(fleet);
        let root = ls.hierarchy().root();
        let min_acc_m = FleetConfig::default().min_acc_m;

        // Point queries. Each object is queried twice: with caches
        // enabled the second query can be served from the entry's §6.5
        // caches, which the bounded-staleness rule below must still
        // accept — a wrong cached answer fails the run.
        for i in 0..fleet.len() {
            let (oid, entry) = (fleet.oid(i), if quiesced { root } else { fleet.agent(i) });
            let expect = oracle.entries[&oid];
            for attempt in 0..2 {
                let ld = match ls.pos_query(entry, oid) {
                    Ok(ld) => ld,
                    Err(e) => self.fail(
                        trace,
                        &format!(
                            "registered object {oid} lost (attempt {attempt}, asked server {}): \
                             {e:?}\nrecord dump:\n{}",
                            entry.0,
                            ls.internals().map(|ls| record_dump(ls, oid)).unwrap_or_default()
                        ),
                    ),
                };
                self.check_point_answer(oid, &ld, &expect, min_acc_m, attempt, trace);
            }
        }
        if !quiesced {
            return;
        }

        // Range queries: whole area plus the four quadrants.
        let whole = Rect::new(Point::new(0.0, 0.0), Point::new(self.area_m, self.area_m));
        for rect in std::iter::once(whole).chain(quadrants(self.area_m)) {
            let query = RangeQuery::new(Region::from(rect), min_acc_m, 0.5);
            let ans = match ls.range_query(root, query.clone()) {
                Ok(a) => a,
                Err(e) => self.fail(trace, &format!("range query {rect:?} failed: {e:?}")),
            };
            if !ans.complete {
                self.fail(trace, &format!("range query {rect:?} incomplete on a healed network"));
            }
            let got: BTreeSet<ObjectId> = ans.objects.iter().map(|(oid, _)| *oid).collect();
            let want = oracle.expect_range(&query);
            if got != want {
                let missing: Vec<_> = want.difference(&got).collect();
                let extra: Vec<_> = got.difference(&want).collect();
                self.fail(
                    trace,
                    &format!(
                        "range answer for {rect:?} diverges from the oracle: \
                         missing {missing:?}, unexpected {extra:?}"
                    ),
                );
            }
        }
    }

    /// Point-answer semantics, cache-aware. A **fresh** answer must hit
    /// the acknowledged position exactly and honor the accuracy
    /// contract. With the §6.5 position cache on, a **stale** answer is
    /// also legal — iff its *aged* accuracy stayed within
    /// `position_max_aged_acc_m` and that aged accuracy still covers
    /// the acknowledged position (the cached descriptor was an
    /// acknowledged position itself, and the object's speed is bounded
    /// by its registered maximum, so a correctly aged entry always
    /// covers the truth; one that does not was invalidated wrongly).
    fn check_point_answer(
        &self,
        oid: ObjectId,
        ld: &LocationDescriptor,
        expect: &LocationDescriptor,
        min_acc_m: f64,
        attempt: u32,
        trace: &[String],
    ) {
        let drift = ld.pos.distance(expect.pos);
        let fresh = drift <= 1e-6;
        if fresh {
            // A zero-drift answer may still be a *cached* one (the
            // object paused, so the aged descriptor matches the acked
            // position exactly): with the position cache on, its
            // accuracy is held to the staleness bound when that is
            // looser than the registration contract.
            let acc_bound = if self.caches.position_cache {
                (min_acc_m + 1.0).max(self.caches.position_max_aged_acc_m + 1e-9)
            } else {
                min_acc_m + 1.0
            };
            if !(ld.acc_m.is_finite() && ld.acc_m <= acc_bound) {
                self.fail(
                    trace,
                    &format!(
                        "accuracy contract violated for {oid}: answered {} m, contract {} m \
                         (staleness bound {} m)",
                        ld.acc_m, min_acc_m, self.caches.position_max_aged_acc_m
                    ),
                );
            }
            return;
        }
        if !self.caches.position_cache {
            self.fail(
                trace,
                &format!(
                    "point answer for {oid} off by {drift} m (attempt {attempt}): \
                     got {:?}, acked {:?}",
                    ld.pos, expect.pos
                ),
            );
        }
        let bound = self.caches.position_max_aged_acc_m;
        if !(ld.acc_m.is_finite() && ld.acc_m <= bound + 1e-9) {
            self.fail(
                trace,
                &format!(
                    "stale point answer for {oid} exceeds the staleness bound: \
                     aged accuracy {} m > {} m (attempt {attempt})",
                    ld.acc_m, bound
                ),
            );
        }
        if drift > ld.acc_m + 1e-6 {
            self.fail(
                trace,
                &format!(
                    "stale point answer for {oid} does not cover the acked position: \
                     drift {drift} m > aged accuracy {} m (attempt {attempt}) — \
                     a cache entry survived an invalidation it must not have",
                    ld.acc_m
                ),
            );
        }
    }

    fn fail(&self, trace: &[String], msg: &str) -> ! {
        let replay = if self.replay.is_empty() {
            format!("re-run this spec with seed={}", self.seed)
        } else {
            format!("hiloc_sim::fuzz::replay_dsl(\"{}\")", self.replay)
        };
        panic!(
            "chaos scenario '{name}' failed: {msg}\n\
             --- replay: {replay} (simulator runs are bit-for-bit deterministic)\n\
             --- fault timeline:\n{timeline}\n\
             --- scripted events: {events:?}\n\
             --- caches: {caches:?}\n\
             --- trace ({n} lines):\n{trace}",
            name = self.name,
            timeline = self.faults.describe(),
            events = self.events,
            caches = self.caches,
            n = trace.len(),
            trace = trace.join("\n"),
        );
    }
}

/// The four quadrants of the square service area of side `a`.
fn quadrants(a: f64) -> [Rect; 4] {
    let h = a / 2.0;
    [(0.0, 0.0), (h, 0.0), (0.0, h), (h, h)]
        .map(|(x, y)| Rect::new(Point::new(x, y), Point::new(x + h, y + h)))
}

/// One mid-chaos position query and one range query via `entry`, as a
/// trace fragment (faults are active: an error is an outcome).
fn pos_and_range<H: Harness>(ls: &mut H, entry: ServerId, oid: ObjectId, rect: Rect) -> String {
    let pos = match ls.pos_query(entry, oid) {
        Ok(ld) => format!("pos({oid})=({:.1},{:.1})", ld.pos.x, ld.pos.y),
        Err(e) => format!("pos({oid})=err:{e:?}"),
    };
    let query = RangeQuery::new(Region::from(rect), FleetConfig::default().min_acc_m, 0.5);
    match ls.range_query(entry, query) {
        Ok(ans) => format!("{pos} range={}:{}", ans.objects.len(), ans.complete),
        Err(e) => format!("{pos} range=err:{e:?}"),
    }
}

/// The simulator behind `h`, for the verbs and plan fields only a
/// reshapable tree can honour.
fn reshaper<H: Harness>(h: &mut H) -> &mut SimDeployment {
    h.internals().expect("admit() lets a reshaping plan through only where the tree can change")
}
