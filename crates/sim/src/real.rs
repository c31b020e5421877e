//! The **real** runtimes under the one plan executor.
//!
//! [`RuntimeHarness`] puts a [`ShardedDeployment`] — on in-process
//! channels ([`ThreadedHarness`]) or loopback sockets ([`UdpHarness`]),
//! wall clock and all — behind the [`Harness`] the simulator also
//! implements, so [`ScenarioSpec::run_on`] drives the same plan, fleet
//! and oracle over it. Verbs map onto the engine's control commands,
//! restarts replay the durable store the executor deployed, and each
//! tracked object talks through its own blocking [`Client`], as each
//! has its own endpoint in the simulator.
//!
//! Two things are this runtime's own. It cannot wait ninety wall-clock
//! seconds for soft state to expire, so its [`Harness::settle`]
//! *repairs*: stale replies are drained, every object re-reports, and
//! — only when a volatile plan lost the record for good — re-registers.
//! And since a handover ghost may then still sit on a stale path, the
//! verdict asks each object's agent ([`Settled::quiesced`] is `false`).
//! Operations the runtime shed or timed out never enter the ground
//! truth: load-shedding is the contract, losing acked state the bug.

use crate::fleet::{Fleet, InboxStats, StepStats};
use crate::harness::{Capabilities, Harness, Runtime, Settled};
use crate::scenario::ScenarioSpec;
use hiloc_core::area::Hierarchy;
use hiloc_core::model::{
    LocationDescriptor, LsError, Micros, NeighborAnswer, ObjectId, RangeAnswer, RangeQuery,
    Sighting,
};
use hiloc_core::node::{ServerOptions, ServerStats};
use hiloc_core::runtime::{
    Client, CrashMode, ShardSpec, ShardedDeployment, SimDeployment, ThreadedDeployment,
    UdpDeployment, UpdateOutcome,
};
use hiloc_core::Message;
use hiloc_geo::Point;
use hiloc_net::{ChannelNetwork, ChannelPort, Endpoint, Port, ServerId, UdpEndpoint};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Per-operation timeout while chaos verbs are in effect — short, so a
/// blackholed server costs milliseconds, not the default five seconds.
const CHAOS_TIMEOUT: Duration = Duration::from_millis(200);
/// Per-operation timeout for registration, the settle phase and the
/// verdict (and for the whole of a fault-free plan, so a slow host
/// cannot fork a parity record).
const SETTLE_TIMEOUT: Duration = Duration::from_secs(2);
/// Repair rounds before the settle phase gives up.
const REPAIR_ATTEMPTS: u32 = 5;

/// What a transport contributes to the harness: how its deployment is
/// opened, how a client connects, and whether its inboxes are bounded
/// where the process can see it.
pub trait Wire: Sized {
    /// The `runtime=` token of the deployment over this wire.
    const RUNTIME: Runtime;
    /// Whether a full inbox sheds in-process, counted.
    const BOUNDED_INBOX: bool;
    /// The client's end of the wire.
    type Port: Port<Message>;
    /// Opens the deployment.
    fn deploy(h: Hierarchy, opts: ServerOptions, layout: ShardSpec) -> ShardedDeployment<Self>;
    /// Connects one more blocking client.
    fn connect(dep: &ShardedDeployment<Self>) -> Client<Self::Port>;
}

impl Wire for ChannelNetwork<Message> {
    const RUNTIME: Runtime = Runtime::Threaded;
    const BOUNDED_INBOX: bool = true;
    type Port = ChannelPort<Message>;
    fn deploy(h: Hierarchy, opts: ServerOptions, layout: ShardSpec) -> ThreadedDeployment {
        ThreadedDeployment::new_sharded(h, opts, layout)
    }
    fn connect(dep: &ThreadedDeployment) -> Client<Self::Port> {
        dep.client()
    }
}

/// The inbox bound over UDP is the kernel socket buffer, whose drops
/// the process never sees.
impl Wire for BTreeMap<Endpoint, SocketAddr> {
    const RUNTIME: Runtime = Runtime::Udp;
    const BOUNDED_INBOX: bool = false;
    type Port = UdpEndpoint<Message>;
    fn deploy(h: Hierarchy, opts: ServerOptions, layout: ShardSpec) -> UdpDeployment {
        UdpDeployment::bind_sharded(h, opts, layout).expect("bind the deployment on loopback")
    }
    fn connect(dep: &UdpDeployment) -> Client<Self::Port> {
        dep.client().expect("bind a client socket on loopback")
    }
}

/// A real runtime under the plan executor: a [`ShardedDeployment`]
/// over wire `W`, one blocking client per tracked object (its
/// registrant endpoint) and one for the querying application.
pub struct RuntimeHarness<W: Wire> {
    dep: ShardedDeployment<W>,
    objects: BTreeMap<ObjectId, Client<W::Port>>,
    app: Client<W::Port>,
    timeout: Duration,
}

/// The sharded engine over in-process channels (`runtime=threaded`).
pub type ThreadedHarness = RuntimeHarness<ChannelNetwork<Message>>;
/// The sharded engine over loopback UDP sockets (`runtime=udp`).
pub type UdpHarness = RuntimeHarness<BTreeMap<Endpoint, SocketAddr>>;

impl<W: Wire> RuntimeHarness<W> {
    fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
        for client in self.objects.values_mut().chain([&mut self.app]) {
            client.set_timeout(timeout);
        }
    }

    /// The client `oid` talks through, connected on first use.
    fn object(&mut self, oid: ObjectId) -> &mut Client<W::Port> {
        self.objects.entry(oid).or_insert_with(|| {
            let mut client = W::connect(&self.dep);
            client.set_timeout(self.timeout);
            client
        })
    }
}

impl<W: Wire> Harness for RuntimeHarness<W> {
    const RUNTIME: Runtime = W::RUNTIME;
    const CAPS: Capabilities = Capabilities {
        reshape: false,
        link_model: false,
        virtual_time: false,
        sharded: true,
        bounded_inbox: W::BOUNDED_INBOX,
    };

    fn deploy(spec: &ScenarioSpec, opts: ServerOptions) -> Self {
        let dep = W::deploy(spec.hierarchy(), opts, spec.layout);
        let mut app = W::connect(&dep);
        app.set_timeout(SETTLE_TIMEOUT);
        RuntimeHarness { dep, objects: BTreeMap::new(), app, timeout: SETTLE_TIMEOUT }
    }
    /// The short timeout only pays off when verbs can actually
    /// blackhole traffic; a fault-free plan keeps the generous one.
    fn arm(&mut self, spec: &ScenarioSpec) {
        if !spec.events.is_empty() {
            self.set_timeout(CHAOS_TIMEOUT);
        }
    }

    fn hierarchy(&self) -> &Hierarchy {
        self.dep.hierarchy()
    }
    fn now_us(&self) -> Micros {
        self.dep.now_us()
    }
    /// The service clock is the host's and is not slept through: the
    /// fleet moves by `dt` regardless, and a plan whose update policy
    /// would read the clock was rejected (`Capabilities::virtual_time`).
    fn elapse(&mut self, _dt_us: Micros) {}

    fn register(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Result<(ServerId, f64), LsError> {
        // A request shed at a full inbox is a lost datagram; the client
        // of a shedding runtime retries (registration is idempotent).
        let client = self.object(sighting.oid);
        let mut attempt = || client.register(entry, sighting, des_acc_m, min_acc_m, max_speed_mps);
        attempt().or_else(|_| attempt()).or_else(|_| attempt())
    }
    fn update(&mut self, agent: ServerId, sighting: Sighting) -> Result<UpdateOutcome, LsError> {
        self.object(sighting.oid).update(agent, sighting)
    }
    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError> {
        self.app.pos_query(entry, oid)
    }
    fn range_query(&mut self, entry: ServerId, query: RangeQuery) -> Result<RangeAnswer, LsError> {
        self.app.range_query(entry, query)
    }
    fn neighbor_query(
        &mut self,
        entry: ServerId,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
    ) -> Result<NeighborAnswer, LsError> {
        self.app.neighbor_query(entry, p, req_acc_m, near_qual_m)
    }
    fn notifications(&mut self, oid: ObjectId) -> Vec<Message> {
        self.object(oid).drain()
    }

    fn crash(&mut self, id: ServerId, mode: CrashMode) -> bool {
        self.dep.crash_server_with(id, mode)
    }
    fn restart(&mut self, id: ServerId) -> bool {
        self.dep.restart_server(id)
    }
    fn checkpoint(&mut self, id: ServerId) -> bool {
        self.dep.checkpoint_server(id)
    }
    fn partition(&mut self, isolated: &[ServerId], rest: &[ServerId]) {
        self.dep.set_partition(&[isolated.to_vec(), rest.to_vec()]);
    }
    fn heal(&mut self) {
        self.dep.clear_partition();
    }
    fn burst(&mut self, agent: ServerId, sighting: Sighting, n: u32) -> u64 {
        let client = self.object(sighting.oid);
        (0..n).filter(|_| client.update_nowait(agent, sighting)).count() as u64
    }

    /// Repair rounds: each drains every object's endpoint (stale
    /// replies of timed-out operations and bursts are dropped, agent
    /// changes and position probes acted on) and re-reports the whole
    /// fleet, until a round that drained nothing confirms everyone — an
    /// update answered by a stale ack leaves its own ack behind for the
    /// next drain to find. A durable restart recovered every record,
    /// so a report that stays unacknowledged fails the run; only a
    /// volatile plan re-registers what its crashes lost.
    fn settle(&mut self, fleet: &mut Fleet, spec: &ScenarioSpec) -> Settled {
        self.set_timeout(SETTLE_TIMEOUT);
        let mut reregistered = 0;
        let mut last = StepStats::default();
        for _ in 0..REPAIR_ATTEMPTS {
            let quiet = fleet.process_inbox(self) == InboxStats::default();
            last = fleet.report_all(self);
            // Confirmed: registered, and acked at where it stands now.
            let confirmed =
                |i: usize| fleet.alive(i) && fleet.last_report(i).pos == fleet.position(i);
            let unconfirmed: Vec<usize> = (0..fleet.len()).filter(|&i| !confirmed(i)).collect();
            if quiet && unconfirmed.is_empty() {
                break;
            }
            if !spec.durable {
                for i in unconfirmed {
                    reregistered += u64::from(fleet.reregister(i, self).is_ok());
                }
            }
        }
        Settled { last, reregistered, quiesced: false }
    }
    fn total_stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for (_, stats) in self.dep.stats_snapshot() {
            total.add(&stats);
        }
        total
    }
    fn internals(&mut self) -> Option<&mut SimDeployment> {
        None
    }
}
