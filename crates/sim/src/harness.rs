//! The seam between a chaos plan and the deployment it runs on.
//!
//! [`ScenarioSpec::run_on`] walks one plan over any [`Harness`] — the
//! simulator ([`SimDeployment`], implemented here) or a real sharded
//! runtime ([`RuntimeHarness`](crate::real::RuntimeHarness)). Fleet,
//! verbs, query load and oracle are the same code everywhere; what
//! legitimately differs stays behind this trait: what the runtime can
//! do ([`Capabilities`] — a plan needing more is rejected by name
//! before anything is deployed), how a run settles
//! ([`Harness::settle`]) and how deep the verdict may go
//! ([`Settled::quiesced`], [`Harness::internals`]).

use crate::fleet::{Fleet, StepStats};
use crate::scenario::{ScenarioSpec, PATH_REFRESH_US, SIGHTING_TTL_US};
use hiloc_core::area::Hierarchy;
use hiloc_core::model::{
    LocationDescriptor, LsError, Micros, NeighborAnswer, ObjectId, RangeAnswer, RangeQuery,
    Sighting, UpdatePolicy,
};
use hiloc_core::node::{ServerOptions, ServerStats};
use hiloc_core::proto::Message;
use hiloc_core::runtime::{CrashMode, ShardSpec, SimDeployment, UpdateOutcome};
use hiloc_geo::Point;
use hiloc_net::{Endpoint, FaultPlan, LatencyModel, Partition, ServerId};

/// The deployments a plan can name — the DSL's `runtime=` token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The deterministic virtual-time simulator.
    Sim,
    /// The sharded engine over in-process channels.
    Threaded,
    /// The sharded engine over loopback UDP sockets.
    Udp,
}

impl std::fmt::Display for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Runtime::Sim => "sim",
            Runtime::Threaded => "threaded",
            Runtime::Udp => "udp",
        })
    }
}

impl std::str::FromStr for Runtime {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        [Runtime::Sim, Runtime::Threaded, Runtime::Udp]
            .into_iter()
            .find(|runtime| runtime.to_string() == s)
            .ok_or_else(|| format!("unknown runtime '{s}' (sim | threaded | udp)"))
    }
}

/// What a runtime can do beyond the verbs and client operations every
/// runtime runs (`Crash` / `PowerLoss` / `Restart` / `Checkpoint` /
/// `Partition` / `HealNetwork` / `Burst`). Declared by the harness from
/// what it is ([`Harness::CAPS`]) — never set by a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// The tree can change under load: `Spawn` / `Retire` /
    /// `PromoteStandby`, and replication's standby slots.
    pub reshape: bool,
    /// Messages cross a modelled network: loss, duplication, reordering,
    /// timed partition and spike windows, a latency model.
    pub link_model: bool,
    /// A step's `dt` elapses on a virtual service clock, so an update
    /// policy keyed to that clock reports deterministically.
    pub virtual_time: bool,
    /// The engine is cut into event-loop shards.
    pub sharded: bool,
    /// Inboxes are bounded in-process; overflow is shed and counted.
    pub bounded_inbox: bool,
}

impl Capabilities {
    /// Whether a runtime with these capabilities can run `spec`.
    ///
    /// # Errors
    ///
    /// Names the first verb or plan field the runtime cannot honour —
    /// a plan is rejected, never run with part of it silently ignored.
    pub fn admit(&self, runtime: Runtime, spec: &ScenarioSpec) -> Result<(), String> {
        use crate::scenario::FaultAction::{PromoteStandby, Retire, Spawn};
        let reshaping = spec
            .events
            .iter()
            .find(|e| matches!(e.action, Spawn { .. } | Retire(_) | PromoteStandby))
            .map(|e| format!("ev={}:{}", e.at_step, e.action));
        let lossy = spec.faults != FaultPlan::none() || spec.latency != LatencyModel::default();
        let clocked = !matches!(spec.policy, UpdatePolicy::Distance { .. });
        let (shards, inbox_cap) = (spec.layout.shards, spec.layout.inbox_cap);
        // (the plan needs it and the runtime lacks it, what, why)
        let rules = [
            (
                !self.reshape && reshaping.is_some(),
                reshaping.unwrap_or_default(),
                "reshape verbs (spawn / retire / promote) need a tree that changes under load, \
                 which only runtime=sim has",
            ),
            (
                !self.reshape && spec.replication,
                "repl=1".to_string(),
                "replication (warm standbys, leaf replica rings) reserves standby slots in a tree \
                 that changes under load, which only runtime=sim has",
            ),
            (
                !self.link_model && lossy,
                "drop= / dup= / reorder= / part= / spike= (a fault plan or latency model)".into(),
                "the SimNet link model exists only on runtime=sim; cut a real runtime's servers \
                 apart with ev=<step>:part:<ids> … ev=<step>:heal",
            ),
            (
                !self.virtual_time && clocked,
                format!("policy=period: / policy=dead: ({:?})", spec.policy),
                "the policy is keyed to the service clock, and only runtime=sim elapses a step's \
                 dt on it (use policy=dist:)",
            ),
            (
                !self.sharded && shards != ShardSpec::default().shards,
                format!("shards={shards}"),
                "the simulator is one virtual event loop, not a sharded engine",
            ),
            (
                !self.bounded_inbox && inbox_cap != ShardSpec::default().inbox_cap,
                format!("inbox={inbox_cap}"),
                "only runtime=threaded bounds (and counts sheds at) an in-process inbox",
            ),
        ];
        match rules.into_iter().find(|rule| rule.0) {
            Some((_, what, why)) => Err(format!("runtime={runtime} cannot run {what}: {why}")),
            None => Ok(()),
        }
    }
}

/// How a run settled (see [`Harness::settle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled {
    /// The final report round; every report in it must have been acked.
    pub last: StepStats,
    /// Objects registered afresh: a volatile crash had lost their record.
    pub reregistered: u64,
    /// Whether the soft state was waited out — handover ghosts expired,
    /// torn paths re-asserted. Only then may the verdict route point
    /// queries through the root and check range answers.
    pub quiesced: bool,
}

/// What the plan executor ([`ScenarioSpec::run_on`]) and the [`Fleet`]
/// need from a deployment.
///
/// A verb handler is infallible or reports whether the verb was applied
/// (`false` fails the run at that verb). Two answers are declarations,
/// not behaviour, and only these two: a real runtime does not sleep
/// through [`Harness::elapse`] (plans that would notice are rejected
/// through [`Capabilities::virtual_time`]), and [`Harness::internals`]
/// is `None` where server state cannot be read from outside.
pub trait Harness: Sized {
    /// The `runtime=` token naming this deployment.
    const RUNTIME: Runtime;
    /// What it can do beyond the common verb set.
    const CAPS: Capabilities;

    /// Deploys `spec` (which [`Capabilities::admit`] accepted) with `opts`.
    fn deploy(spec: &ScenarioSpec, opts: ServerOptions) -> Self;
    /// The registration wave is over: faults may land from here on.
    fn arm(&mut self, spec: &ScenarioSpec);

    /// The deployment's (current) hierarchy.
    fn hierarchy(&self) -> &Hierarchy;
    /// The service clock (µs).
    fn now_us(&self) -> Micros;
    /// Lets a step's `dt_us` pass on the service clock, where virtual.
    fn elapse(&mut self, dt_us: Micros);

    /// Blocking registration of a tracked object; `(agent, offered_acc)`.
    fn register(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Result<(ServerId, f64), LsError>;
    /// Blocking position update from the object's own endpoint.
    fn update(&mut self, agent: ServerId, sighting: Sighting) -> Result<UpdateOutcome, LsError>;
    /// Blocking position query via `entry`.
    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError>;
    /// Blocking range query via `entry`.
    fn range_query(&mut self, entry: ServerId, query: RangeQuery) -> Result<RangeAnswer, LsError>;
    /// Blocking nearest-neighbor query via `entry`.
    fn neighbor_query(
        &mut self,
        entry: ServerId,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
    ) -> Result<NeighborAnswer, LsError>;
    /// Takes what reached `oid`'s endpoint outside a blocking call:
    /// asynchronous notifications, and stale replies.
    fn notifications(&mut self, oid: ObjectId) -> Vec<Message>;

    /// Crashes a running server; `false`: already down, or truncation failed.
    fn crash(&mut self, id: ServerId, mode: CrashMode) -> bool;
    /// (Re)starts a server from its durable state; `false`: it will not reopen.
    fn restart(&mut self, id: ServerId) -> bool;
    /// Checkpoints a running server's storage; `false`: down, or write failed.
    fn checkpoint(&mut self, id: ServerId) -> bool;
    /// Drops server↔server traffic between `isolated` and `rest` (both
    /// non-empty) until [`Harness::heal`]; client traffic is unaffected.
    fn partition(&mut self, isolated: &[ServerId], rest: &[ServerId]);
    /// Heals the network: the partition and whatever else was injected.
    fn heal(&mut self);
    /// Fires `n` copies of `sighting` at `agent` from the object's endpoint
    /// without awaiting any reply; returns how many left the client.
    fn burst(&mut self, agent: ServerId, sighting: Sighting, n: u32) -> u64;

    /// Brings the healed deployment to the state the verdict is read
    /// from, ending with one report round over the whole fleet.
    fn settle(&mut self, fleet: &mut Fleet, spec: &ScenarioSpec) -> Settled;
    /// Server counters summed over the deployment.
    fn total_stats(&self) -> ServerStats;
    /// The simulator behind this harness, where there is one: server
    /// internals and the reshape verbs are reached through it.
    fn internals(&mut self) -> Option<&mut SimDeployment>;
}

impl Harness for SimDeployment {
    const RUNTIME: Runtime = Runtime::Sim;
    const CAPS: Capabilities = Capabilities {
        reshape: true,
        link_model: true,
        virtual_time: true,
        sharded: false,
        bounded_inbox: false,
    };

    fn deploy(spec: &ScenarioSpec, opts: ServerOptions) -> Self {
        let (h, unarmed) = (spec.hierarchy(), FaultPlan::none());
        SimDeployment::with_network(h, opts, spec.latency, unarmed, spec.seed)
    }
    /// The fault plan is installed *after* the registration wave:
    /// `Fleet::register` is not retried, and chaos targets the steady
    /// state. Timed windows are still anchored at virtual 0.
    fn arm(&mut self, spec: &ScenarioSpec) {
        self.set_faults(spec.faults.clone());
    }

    fn hierarchy(&self) -> &Hierarchy {
        SimDeployment::hierarchy(self)
    }
    fn now_us(&self) -> Micros {
        SimDeployment::now_us(self)
    }
    fn elapse(&mut self, dt_us: Micros) {
        self.advance_time(SimDeployment::now_us(self) + dt_us);
    }

    fn register(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Result<(ServerId, f64), LsError> {
        self.register_with_speed(entry, sighting, des_acc_m, min_acc_m, max_speed_mps)
    }
    fn update(&mut self, agent: ServerId, sighting: Sighting) -> Result<UpdateOutcome, LsError> {
        SimDeployment::update(self, agent, sighting)
    }
    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError> {
        SimDeployment::pos_query(self, entry, oid)
    }
    fn range_query(&mut self, entry: ServerId, query: RangeQuery) -> Result<RangeAnswer, LsError> {
        SimDeployment::range_query(self, entry, query)
    }
    fn neighbor_query(
        &mut self,
        entry: ServerId,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
    ) -> Result<NeighborAnswer, LsError> {
        SimDeployment::neighbor_query(self, entry, p, req_acc_m, near_qual_m)
    }
    fn notifications(&mut self, oid: ObjectId) -> Vec<Message> {
        self.drain_client(SimDeployment::object_endpoint(oid))
    }

    fn crash(&mut self, id: ServerId, mode: CrashMode) -> bool {
        self.crash_server_with(id, mode)
    }
    fn restart(&mut self, id: ServerId) -> bool {
        self.restart_server(id)
    }
    fn checkpoint(&mut self, id: ServerId) -> bool {
        self.checkpoint_server(id)
    }
    /// The server↔server drop filter the sharded engine's
    /// `set_partition` applies, as an open-ended `SimNet` partition
    /// beside whatever the plan's fault schedule holds.
    fn partition(&mut self, isolated: &[ServerId], rest: &[ServerId]) {
        let side = |ids: &[ServerId]| ids.iter().map(|&id| Endpoint::Server(id)).collect();
        let cut =
            Partition::between(SimDeployment::now_us(self), u64::MAX, side(isolated), side(rest));
        self.set_faults(self.faults().clone().with_partition(cut));
    }
    fn heal(&mut self) {
        self.set_faults(FaultPlan::none());
    }
    fn burst(&mut self, agent: ServerId, sighting: Sighting, n: u32) -> u64 {
        let client = SimDeployment::object_endpoint(sighting.oid);
        for _ in 0..n {
            self.send_from(client, agent, Message::UpdateReq { sighting });
        }
        u64::from(n)
    }

    /// Leans on the protocol's soft state: ghost records left behind by
    /// handovers interrupted mid-partition expire after the sighting
    /// TTL, and torn paths are re-asserted by leaf keep-alives every
    /// refresh period — so virtual time advances past
    /// `TTL + 2 × refresh`, keeping live objects refreshed on the way.
    fn settle(&mut self, fleet: &mut Fleet, spec: &ScenarioSpec) -> Settled {
        let scale = Micros::from(spec.time_scale.max(1));
        let chunk = PATH_REFRESH_US * scale / 2;
        let chunks = ((SIGHTING_TTL_US * scale + 2 * PATH_REFRESH_US * scale) / chunk + 1) as usize;
        for _ in 0..chunks {
            fleet.process_inbox(self);
            fleet.report_all(self);
            self.elapse(chunk);
        }
        fleet.process_inbox(self);
        let last = fleet.report_all(self);
        self.run_until_quiet();
        Settled { last, reregistered: 0, quiesced: true }
    }
    fn total_stats(&self) -> ServerStats {
        SimDeployment::total_stats(self)
    }
    fn internals(&mut self) -> Option<&mut SimDeployment> {
        Some(self)
    }
}
