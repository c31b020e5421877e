//! Deterministic virtual-time deployment: the engine table's second
//! driver. [`SimDeployment`] keeps the simulated network, the client
//! inboxes, virtual-time scheduling and the reshape verbs; its servers
//! and their lifecycle live in the same table a real shard drives.

use crate::area::Hierarchy;
use crate::model::{
    LocationDescriptor, LsError, Micros, NeighborAnswer, ObjectId, RangeAnswer, RangeQuery,
    Sighting,
};
use crate::node::{LocationServer, ServerOptions, ServerStats};
use crate::proto::Message;
use crate::runtime::engine::{CrashMode, Servers};
use crate::runtime::ops::{self, Classify, Op, UpdateOutcome};
use hiloc_geo::Point;
use hiloc_net::{
    ClientId, CorrId, CorrIdGen, Endpoint, Envelope, FaultPlan, LatencyModel, ServerId, SimNet,
    TraceEntry,
};
use std::collections::{BTreeMap, VecDeque};

/// Safety cap on deliveries per blocking operation (guards against
/// protocol loops in development).
const MAX_STEPS_PER_OP: usize = 1_000_000;

/// Per-hierarchy-level aggregate of server counters (see
/// [`SimDeployment::level_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Hierarchy level (0 = root; the deepest level is the leaves).
    pub level: u32,
    /// Servers configured at this level (including retired ones).
    pub servers: usize,
    /// Their summed counters.
    pub stats: ServerStats,
}

/// A complete location service running in deterministic virtual time.
///
/// All servers of a [`Hierarchy`] plus a simulated network live inside
/// one value; blocking-style client operations drive the network until
/// the answer arrives. With a fixed seed, runs are bit-for-bit
/// reproducible.
///
/// # Example
///
/// ```
/// use hiloc_core::area::HierarchyBuilder;
/// use hiloc_core::model::{ObjectId, Sighting};
/// use hiloc_core::runtime::SimDeployment;
/// use hiloc_geo::{Point, Rect};
///
/// let h = HierarchyBuilder::grid(
///     Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)), 1, 2,
/// ).build().unwrap();
/// let mut ls = SimDeployment::new(h, Default::default(), 7);
/// let entry = ls.leaf_for(Point::new(10.0, 10.0));
/// ls.register(entry, Sighting::new(ObjectId(1), 0, Point::new(10.0, 10.0), 5.0), 10.0, 50.0)
///     .unwrap();
/// assert!(ls.pos_query(entry, ObjectId(1)).is_ok());
/// ```
pub struct SimDeployment {
    hierarchy: Hierarchy,
    /// Every server, the retired and the standbys included.
    servers: Servers,
    net: SimNet<Message>,
    inboxes: BTreeMap<ClientId, VecDeque<Message>>,
    corr: CorrIdGen,
    next_ephemeral_client: u64,
    /// Messages blackholed at crashed servers.
    blackholed: u64,
    /// Whether [`SimDeployment::enable_replication`] ran: promotions
    /// then re-designate standbys and joins wire into the leaf
    /// replica ring.
    replication: bool,
}

impl std::fmt::Debug for SimDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDeployment")
            .field("servers", &self.hierarchy.len())
            .field("now_us", &self.net.now_us())
            .finish()
    }
}

impl SimDeployment {
    /// Creates a deployment with the default LAN-like latency model and
    /// no faults.
    pub fn new(hierarchy: Hierarchy, opts: ServerOptions, seed: u64) -> Self {
        Self::with_network(hierarchy, opts, LatencyModel::default(), FaultPlan::none(), seed)
    }

    /// Creates a deployment with explicit latency and fault models.
    ///
    /// # Panics
    ///
    /// Panics when a server cannot be constructed (only possible with
    /// durable visitor stores on a broken filesystem).
    pub fn with_network(
        hierarchy: Hierarchy,
        opts: ServerOptions,
        latency: LatencyModel,
        faults: FaultPlan,
        seed: u64,
    ) -> Self {
        let mut servers = Servers::new(opts);
        for cfg in hierarchy.servers() {
            servers.spawn(cfg).expect("server construction failed");
        }
        SimDeployment {
            hierarchy,
            servers,
            net: SimNet::new(latency, faults, seed),
            inboxes: BTreeMap::new(),
            corr: CorrIdGen::namespaced(1 << 20),
            next_ephemeral_client: 1 << 40,
            blackholed: 0,
            replication: false,
        }
    }

    /// Crash-restarts one server, or brings a crashed one back up: the
    /// paper's §5 restart model (volatile state lost, the durable
    /// visitor store recovered). Returns `false` on an unknown or
    /// retired id, or when the durable store will not reopen — that
    /// server then stays down while the rest serve on.
    pub fn restart_server(&mut self, id: ServerId) -> bool {
        // A standby slot is marked retired in the hierarchy (it takes
        // no part in routing until promoted) but crash-restarts like
        // any other server.
        let is_standby = self.hierarchy.is_standby(id);
        let retired = self.servers.hosts(id) && self.hierarchy.is_retired(id);
        if retired && !is_standby {
            return false;
        }
        if !self.servers.restart(&self.hierarchy, id) {
            return false;
        }
        if is_standby {
            // The fresh instance must resume the passive role: its
            // source re-streams a full snapshot on the live stream,
            // and local expiry stays off until promotion.
            if let Some(server) = self.servers.get_mut(id) {
                server.enter_standby_mode();
            }
        }
        true
    }

    /// Crashes one server at the current virtual instant: its in-memory
    /// state and every in-flight message addressed to it are dropped,
    /// and until [`SimDeployment::restart_server`] its timers stop and
    /// messages to it are blackholed. Durable state stays on disk. A
    /// *process* crash ([`CrashMode::Process`]); returns `false` when
    /// the server is not running.
    pub fn crash_server(&mut self, id: ServerId) -> bool {
        self.crash_server_with(id, CrashMode::Process)
    }

    /// [`SimDeployment::crash_server`] with an explicit [`CrashMode`].
    /// Returns `false` when the server is not running, or when the
    /// power-loss truncation failed (the server is down either way).
    pub fn crash_server_with(&mut self, id: ServerId, mode: CrashMode) -> bool {
        let was_running = self.servers.get(id).is_some();
        let ok = self.servers.crash(id, mode);
        if was_running {
            self.net.discard_where(|env| env.to == Endpoint::Server(id));
        }
        ok
    }

    /// Takes a storage-engine checkpoint on a running server (a no-op
    /// for volatile deployments). Pairing this with a
    /// [`CrashMode::PowerLoss`] crash in the same instant is how
    /// scenarios (and the fuzzer) land power losses across the
    /// checkpoint commit boundary. Returns `false` when the server is
    /// not running or the checkpoint write failed.
    pub fn checkpoint_server(&mut self, id: ServerId) -> bool {
        self.servers.checkpoint(id)
    }

    /// Whether a server is currently crashed.
    pub fn is_down(&self, id: ServerId) -> bool {
        self.servers.is_down(id)
    }

    /// Whether a server has left the hierarchy for good (a retired
    /// leaf, or a root replaced by failover). Its id slot remains but
    /// it can never be restarted.
    pub fn is_retired(&self, id: ServerId) -> bool {
        self.hierarchy.is_retired(id)
    }

    // ------------------------------------------------- reconfiguration

    /// **Join**: a new server enters the running deployment by
    /// splitting the service area of the existing leaf `split` (see
    /// [`crate::area::Hierarchy::split_leaf`]). The new server starts
    /// empty (with its own durable store when durability is on); the
    /// split leaf immediately initiates a bulk state transfer of the
    /// covered visitor records, which retries until the newcomer has
    /// durably acked them. Updates, queries and handovers keep flowing
    /// throughout. Returns the new server's id.
    ///
    /// When `split` is down at the call, only the configuration
    /// changes: the transfer then happens record-by-record through the
    /// ordinary handover path once `split` restarts and its objects
    /// report.
    ///
    /// # Panics
    ///
    /// Panics when `split` cannot be split (not an active leaf, or a
    /// root-leaf).
    pub fn spawn_server(&mut self, split: ServerId) -> ServerId {
        let new_id = self.hierarchy.split_leaf(split).expect("split_leaf rejected");
        self.spawn(new_id);
        let parent = self.hierarchy.server(split).parent.expect("split leaf has a parent");
        self.push_config(split);
        self.push_config(parent);
        if !self.servers.is_down(split) {
            let now = self.net.now_us();
            let area = self.hierarchy.server(new_id).area;
            self.on(split, |s| s.begin_transfer_out(now, new_id, Some(area)));
            if self.replication {
                // Wire the newcomer into the sibling replica ring,
                // keeping the one-source-per-target invariant: the
                // split leaf now streams to the newcomer, the newcomer
                // to the split leaf's previous buddy (or back to the
                // split leaf when it had none).
                match self.servers.get(split).and_then(LocationServer::replication_sink) {
                    Some((tgt, true)) => {
                        self.on(new_id, |s| s.set_replication_sink(now, tgt, true));
                        self.on(split, |s| s.set_replication_sink(now, new_id, true));
                    }
                    _ => {
                        self.on(split, |s| s.set_replication_sink(now, new_id, true));
                        self.on(new_id, |s| s.set_replication_sink(now, split, true));
                    }
                }
            }
        }
        new_id
    }

    /// **Leave**: the leaf `id` retires from the running deployment
    /// (see [`crate::area::Hierarchy::retire_leaf`]): a sibling leaf
    /// absorbs its area, and `id` drains **all** of its visitor
    /// records to it in a bulk state transfer (retried until acked).
    /// The retired server's configuration degenerates to an empty
    /// area, so even a crash-restart straggler pushes any leftover
    /// records back into the live tree via ordinary handovers.
    /// Returns the absorbing sibling.
    ///
    /// # Panics
    ///
    /// Panics when `id` is down (a dead server cannot drain — crash
    /// scenarios retire it after restart), or when the hierarchy
    /// rejects the retirement (no mergeable sibling, root-leaf).
    pub fn retire_server(&mut self, id: ServerId) -> ServerId {
        assert!(!self.servers.is_down(id), "server {} is down and cannot drain", id.0);
        let absorber = self.hierarchy.retire_leaf(id).expect("retire_leaf rejected");
        let parent = self.hierarchy.server(absorber).parent.expect("absorber has a parent");
        self.push_config(absorber);
        self.push_config(parent);
        self.push_config(id);
        let now = self.net.now_us();
        self.on(id, |s| s.begin_transfer_out(now, absorber, None));
        absorber
    }

    /// **Root failover**: a successor takes over the crashed root's
    /// role — same area, same children. When a live **warm standby**
    /// is designated (see [`SimDeployment::designate_standby`]), the
    /// promotion is O(1): the standby's slot is activated in place and
    /// its streamed forwarding table is adopted as-is — no `pathSync`,
    /// no rebuild window. Without one (or with the standby also dead),
    /// a fresh server id is allocated and its table is rebuilt by
    /// chunked `pathSync` pulls against the children; until every pull
    /// completes, record-less agent lookups at the new root stay
    /// silent. The old root is retired and can never return under its
    /// id. Returns the successor's id.
    ///
    /// With [`SimDeployment::enable_replication`] active, a warm
    /// promotion also designates a fresh standby for the new root.
    ///
    /// # Panics
    ///
    /// Panics unless the current root is down — failover while the
    /// root is alive would split the brain.
    pub fn promote_root(&mut self) -> ServerId {
        let old = self.hierarchy.root();
        assert!(
            self.servers.is_down(old),
            "root failover requires the root (server {}) to be down",
            old.0
        );
        let servers = &self.servers;
        let (new_id, warm) =
            self.hierarchy.promote_root(|s| !servers.is_down(s)).expect("root promotion rejected");
        let now = self.net.now_us();
        if warm {
            // O(1) table adoption.
            self.push_config(new_id);
            if let Some(server) = self.servers.get_mut(new_id) {
                server.leave_standby_mode(now);
            }
            self.repoint_children(new_id);
        } else {
            // A dead standby's slot stays retired forever.
            self.spawn(new_id);
            self.repoint_children(new_id);
            self.on(new_id, |s| s.begin_path_sync(now));
        }
        if self.replication {
            self.designate_standby(new_id);
        }
        new_id
    }

    // --------------------------------------------------------- replication

    /// Turns on the replication subsystem for the whole deployment:
    /// every non-leaf gets a warm standby streaming its forwarding
    /// table ([`SimDeployment::designate_standby`]), and sibling
    /// leaves under each parent form a replica ring (`leaf[i]` streams
    /// its visitor records to `leaf[i+1 mod n]`, so every replica
    /// target has exactly one source and queries at the sibling can be
    /// served from the shadow copy within the bounded-staleness
    /// contract). Subsequent joins wire into the ring; promotions
    /// re-designate standbys.
    pub fn enable_replication(&mut self) {
        assert!(!self.replication, "replication already enabled");
        self.replication = true;
        let non_leaves: Vec<ServerId> = self
            .hierarchy
            .active()
            .filter(|c| !c.is_leaf())
            .map(|c| c.id)
            .collect();
        for id in non_leaves {
            self.designate_standby(id);
        }
        // Leaf rings, grouped by parent, in id order for determinism.
        let mut by_parent: BTreeMap<ServerId, Vec<ServerId>> = BTreeMap::new();
        for cfg in self.hierarchy.active().filter(|c| c.is_leaf()) {
            if let Some(p) = cfg.parent {
                by_parent.entry(p).or_default().push(cfg.id);
            }
        }
        let now = self.net.now_us();
        for (_, group) in by_parent {
            if group.len() < 2 {
                continue;
            }
            for (i, &leaf) in group.iter().enumerate() {
                let buddy = group[(i + 1) % group.len()];
                self.on(leaf, |s| s.set_replication_sink(now, buddy, true));
            }
        }
    }

    /// Designates a **warm standby** for the active non-leaf `of`: a
    /// fresh server instance in a reserved (hierarchy-retired) slot,
    /// to which `of` streams its forwarding table — the full snapshot
    /// now, deltas as records change. Returns the standby's id.
    ///
    /// # Panics
    ///
    /// Panics when `of` is a leaf, down, retired, or already has a
    /// standby.
    pub fn designate_standby(&mut self, of: ServerId) -> ServerId {
        assert!(!self.hierarchy.server(of).is_leaf(), "standbys shadow non-leaves");
        assert!(!self.servers.is_down(of), "server {} is down", of.0);
        assert!(self.hierarchy.standby_of(of).is_none(), "server {} already has a standby", of.0);
        let standby = self.hierarchy.reserve_standby(of).expect("reserve_standby rejected");
        self.spawn(standby).enter_standby_mode();
        let now = self.net.now_us();
        self.on(of, |s| s.set_replication_sink(now, standby, false));
        standby
    }

    /// The designated standby for `of`, when one exists.
    pub fn standby_of(&self, of: ServerId) -> Option<ServerId> {
        self.hierarchy.standby_of(of)
    }

    /// Builds a reshape's newcomer `id`; panics when its durable store
    /// cannot be opened.
    fn spawn(&mut self, id: ServerId) -> &mut LocationServer {
        let cfg = self.hierarchy.server(id);
        self.servers.spawn(cfg).expect("reshaped server construction")
    }

    /// Runs `f` on server `id` when it is running and sends what it
    /// returns; a down server is skipped.
    fn on(&mut self, id: ServerId, f: impl FnOnce(&mut LocationServer) -> Vec<Envelope<Message>>) {
        for e in self.servers.get_mut(id).map(f).into_iter().flatten() {
            self.net.send(e);
        }
    }

    /// Pushes the new record to every server whose parent pointer moved
    /// to the successor root `root`: its children, and any *retired*
    /// straggler that pointed at the dead root (its agent-lookup healing
    /// path must not black-hole forever).
    fn repoint_children(&mut self, root: ServerId) {
        let children: Vec<ServerId> = self
            .hierarchy
            .servers()
            .iter()
            .filter(|c| c.id != root && c.parent == Some(root))
            .map(|c| c.id)
            .collect();
        for id in children {
            self.push_config(id);
        }
    }

    /// Installs the hierarchy's current configuration record into the
    /// running server instance. Crashed servers get theirs on restart,
    /// which re-reads the hierarchy.
    fn push_config(&mut self, id: ServerId) {
        let cfg = self.hierarchy.server(id).clone();
        if let Some(server) = self.servers.get_mut(id) {
            server.reconfigure(cfg);
        }
    }

    /// Number of messages blackholed at crashed servers so far.
    pub fn blackholed(&self) -> u64 {
        self.blackholed
    }

    /// Replaces the network fault plan mid-run (heal a partition,
    /// inject new faults). In-flight messages are unaffected.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.net.set_faults(faults);
    }

    /// The network fault plan currently in force.
    pub fn faults(&self) -> &FaultPlan {
        self.net.faults()
    }

    /// The deployment's hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Read access to a running server (stats, databases); `None`
    /// while it is down, or for an unknown id.
    pub fn server(&self, id: ServerId) -> Option<&LocationServer> {
        self.servers.get(id)
    }

    /// Aggregated stats over all running servers.
    pub fn total_stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for s in self.servers.running() {
            total.add(&s.stats());
        }
        total
    }

    /// Stats aggregated **per hierarchy level** (level 0 = root,
    /// deepest level = leaves), in ascending level order. Retired
    /// servers still contribute their counters at their old level —
    /// the traffic they handled happened. This is the data source for
    /// the macro benchmark's per-level message-amplification report.
    pub fn level_stats(&self) -> Vec<LevelStats> {
        let mut by_level: BTreeMap<u32, LevelStats> = BTreeMap::new();
        for cfg in self.hierarchy.servers() {
            let entry = by_level
                .entry(cfg.level)
                .or_insert(LevelStats { level: cfg.level, servers: 0, stats: ServerStats::default() });
            entry.servers += 1;
            if let Some(s) = self.servers.get(cfg.id) {
                entry.stats.add(&s.stats());
            }
        }
        by_level.into_values().collect()
    }

    /// §6.5 cache hit/miss counters summed over all servers.
    pub fn cache_hit_stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for s in self.servers.running() {
            let (h, m) = s.cache_stats();
            hits += h;
            misses += m;
        }
        (hits, misses)
    }

    /// §6.5 per-cache (area / agent / position) hit/miss breakdown
    /// summed over all servers — the ablation observable: which cache
    /// earns its memory under a given workload.
    pub fn cache_stats_by_cache(&self) -> crate::cache::CacheStats {
        let mut total = crate::cache::CacheStats::default();
        for s in self.servers.running() {
            total.add(&s.cache_stats_detail());
        }
        total
    }

    /// Switches every server's §6.5 cache configuration at runtime,
    /// dropping learned entries and hit/miss counters (servers start
    /// cold under the new config). Future restarts inherit the new
    /// configuration too. This is the cache-ablation switch: measure
    /// with caches off, flip them on, re-measure — without rebuilding
    /// the deployment's registrations.
    pub fn set_caches(&mut self, cfg: crate::cache::CacheConfig) {
        self.servers.set_caches(cfg);
    }

    /// Current virtual time (microseconds).
    pub fn now_us(&self) -> Micros {
        self.net.now_us()
    }

    /// The leaf server responsible for `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside the root service area.
    pub fn leaf_for(&self, p: Point) -> ServerId {
        self.hierarchy.leaf_for(p).expect("position outside the service area")
    }

    /// Enables message tracing (see [`SimDeployment::trace`]).
    pub fn enable_trace(&mut self) {
        self.net.enable_trace(Message::label);
    }

    /// The message trace recorded so far.
    pub fn trace(&self) -> &[TraceEntry] {
        self.net.trace()
    }

    /// Clears the recorded trace.
    pub fn clear_trace(&mut self) {
        self.net.clear_trace();
    }

    /// Network counters `(sent, delivered, dropped)`.
    pub fn net_counters(&self) -> (u64, u64, u64) {
        self.net.counters()
    }

    // ----------------------------------------------------------- low level

    /// The conventional client endpoint of a tracked object.
    pub fn object_endpoint(oid: ObjectId) -> ClientId {
        ClientId(oid.0)
    }

    /// Allocates a fresh client id for an application.
    pub fn new_client(&mut self) -> ClientId {
        self.next_ephemeral_client += 1;
        ClientId(self.next_ephemeral_client)
    }

    /// Injects a client→server message into the network.
    pub fn send_from(&mut self, client: ClientId, to: ServerId, msg: Message) {
        self.net
            .send(Envelope::new(client.into(), ServerId(to.0).into(), msg));
    }

    /// Drains messages delivered to `client`.
    pub fn drain_client(&mut self, client: ClientId) -> Vec<Message> {
        self.inboxes
            .get_mut(&client)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Delivers a single in-flight message; `false` when the network is
    /// quiet.
    pub fn step_message(&mut self) -> bool {
        let Some((now, env)) = self.net.next() else { return false };
        if let Endpoint::Client(cid) = env.to {
            self.inboxes.entry(cid).or_default().push_back(env.msg);
            return true;
        }
        match self.servers.deliver(now, env) {
            Some(out) => {
                for e in out {
                    self.net.send(e);
                }
                // Fire timers that became due at this instant.
                self.fire_due(now);
            }
            // Crashed server: the datagram vanishes.
            None => self.blackholed += 1,
        }
        true
    }

    /// Advances the network clock to `now` and fires every timer due.
    fn fire_due(&mut self, now: Micros) {
        self.net.advance_to(now);
        for e in self.servers.fire_due(now).into_iter().flatten() {
            self.net.send(e);
        }
    }

    /// Processes every in-flight message (without jumping time to
    /// future timers). Returns the number of deliveries.
    pub fn run_until_quiet(&mut self) -> usize {
        let mut n = 0;
        while self.step_message() {
            n += 1;
            assert!(n < MAX_STEPS_PER_OP, "network failed to quiesce");
        }
        n
    }

    /// Advances virtual time to `t_us`, firing all due timers (soft
    /// state expiry etc.) and draining resulting traffic.
    pub fn advance_time(&mut self, t_us: Micros) {
        loop {
            let next_timer = self.servers.next_timer();
            let next_msg = self.net.peek_time();
            match (next_msg, next_timer) {
                (Some(tm), _) if tm <= t_us => {
                    self.step_message();
                }
                (_, Some(tt)) if tt <= t_us => self.fire_due(tt),
                _ => break,
            }
        }
        self.net.advance_to(t_us);
    }

    /// Blocks (in virtual time) until `client` receives the message
    /// `classify` accepts, returning its result. Stray messages stay
    /// queued.
    ///
    /// The wait is bounded by a client-side deadline (twice the server
    /// gather timeout): on message loss the driver must *not* jump
    /// virtual time to far-future timers (e.g. soft-state TTLs minutes
    /// away), which would expire unrelated registrations.
    fn wait_for<R>(
        &mut self,
        client: ClientId,
        classify: impl Classify<R>,
    ) -> Result<R, LsError> {
        let timeout_us = self.servers.options().query_timeout_us;
        let deadline = self.net.now_us() + timeout_us.saturating_mul(2).max(2 * crate::model::SECOND);
        for _ in 0..MAX_STEPS_PER_OP {
            if let Some(q) = self.inboxes.get_mut(&client) {
                if let Some(reply) = ops::take_reply(q, &classify) {
                    return reply;
                }
            }
            let next_msg = self.net.peek_time();
            let next_timer = self.servers.next_timer();
            match next_msg.into_iter().chain(next_timer).min() {
                Some(t) if t <= deadline => {
                    if next_msg.map(|m| m <= t).unwrap_or(false) {
                        self.step_message();
                    } else {
                        self.fire_due(t);
                    }
                }
                _ => return Err(LsError::Timeout),
            }
        }
        Err(LsError::Timeout)
    }

    /// Sends `op`'s request from `client` and waits for its reply.
    fn call<R>(
        &mut self,
        client: ClientId,
        to: ServerId,
        op: Op<impl Classify<R>>,
    ) -> Result<R, LsError> {
        self.send_from(client, to, op.request);
        self.wait_for(client, op.classify)
    }

    // ---------------------------------------------------------- operations

    /// Registers a tracked object (paper §3.1 `register`): the object's
    /// endpoint is `ClientId(oid)`. Returns `(agent, offeredAcc)`.
    ///
    /// # Errors
    ///
    /// [`LsError::AccuracyUnavailable`] when the accuracy range cannot
    /// be met; [`LsError::Timeout`] when no response arrives.
    pub fn register(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
    ) -> Result<(ServerId, f64), LsError> {
        self.register_with_speed(entry, sighting, des_acc_m, min_acc_m, 3.0)
    }

    /// [`SimDeployment::register`] with an explicit maximum speed.
    ///
    /// # Errors
    ///
    /// See [`SimDeployment::register`].
    pub fn register_with_speed(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Result<(ServerId, f64), LsError> {
        let client = Self::object_endpoint(sighting.oid);
        let corr = self.corr.next_id();
        let op = ops::register(sighting, des_acc_m, min_acc_m, max_speed_mps, client.into(), corr);
        self.call(client, entry, op)
    }

    /// Sends a position update to the object's agent and waits for the
    /// outcome (ack, handover, or out-of-area deregistration).
    ///
    /// # Errors
    ///
    /// [`LsError::Timeout`] when no response arrives (lost messages).
    pub fn update(
        &mut self,
        agent: ServerId,
        sighting: Sighting,
    ) -> Result<UpdateOutcome, LsError> {
        let client = Self::object_endpoint(sighting.oid);
        self.call(client, agent, ops::update(sighting))
    }

    /// Sends a coalesced batch of position updates (one
    /// [`Message::UpdateBatch`] datagram, e.g. a stationary tracking
    /// system reporting all of its objects) to `agent` and waits for
    /// the batch acknowledgement. Returns the `(object, offered
    /// accuracy)` pairs the agent applied in place; objects that
    /// triggered a handover or deregistration are missing from the
    /// returned list and produce their usual individual messages.
    ///
    /// # Errors
    ///
    /// [`LsError::Timeout`] when no batch ack arrives (lost message or
    /// crashed agent) — the whole batch is then unconfirmed and the
    /// caller re-sends it.
    pub fn update_batch(
        &mut self,
        agent: ServerId,
        sightings: Vec<Sighting>,
    ) -> Result<Vec<(ObjectId, f64)>, LsError> {
        let client = self.new_client();
        let corr = self.corr.next_id();
        self.call(client, agent, ops::update_batch(sightings, corr))
    }

    /// Position query (paper §3.2 `posQuery`) via `entry`.
    ///
    /// # Errors
    ///
    /// [`LsError::UnknownObject`] when the service does not track
    /// `oid`; [`LsError::Timeout`] when no answer arrives.
    pub fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError> {
        let client = self.new_client();
        let corr = self.corr.next_id();
        self.call(client, entry, ops::pos_query(oid, corr))
    }

    /// Range query (paper §3.2 `rangeQuery`) via `entry`.
    ///
    /// # Errors
    ///
    /// [`LsError::Timeout`] when no answer arrives at all (a timed-out
    /// gather still returns a partial [`RangeAnswer`]).
    pub fn range_query(&mut self, entry: ServerId, query: RangeQuery) -> Result<RangeAnswer, LsError> {
        let client = self.new_client();
        let corr = self.corr.next_id();
        self.call(client, entry, ops::range_query(query, corr))
    }

    /// Nearest-neighbor query (paper §3.2 `neighborQuery`) via `entry`.
    ///
    /// # Errors
    ///
    /// [`LsError::Timeout`] when no answer arrives.
    pub fn neighbor_query(
        &mut self,
        entry: ServerId,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
    ) -> Result<NeighborAnswer, LsError> {
        let client = self.new_client();
        let corr = self.corr.next_id();
        self.call(client, entry, ops::neighbor_query(p, req_acc_m, near_qual_m, corr))
    }

    /// Explicit deregistration (paper §3.1 `deregister`).
    pub fn deregister(&mut self, agent: ServerId, oid: ObjectId) {
        let client = Self::object_endpoint(oid);
        self.send_from(client, agent, ops::deregister(oid));
        self.run_until_quiet();
    }

    /// Accuracy renegotiation (paper §3.1 `changeAcc`). Returns
    /// `(ok, offeredAcc)`.
    ///
    /// # Errors
    ///
    /// [`LsError::Timeout`] when no response arrives.
    pub fn change_acc(
        &mut self,
        agent: ServerId,
        oid: ObjectId,
        des_acc_m: f64,
        min_acc_m: f64,
    ) -> Result<(bool, f64), LsError> {
        let client = Self::object_endpoint(oid);
        let corr = self.corr.next_id();
        self.call(client, agent, ops::change_acc(oid, des_acc_m, min_acc_m, corr))
    }

    /// The correlation-id generator (for advanced/manual flows).
    pub fn next_corr(&mut self) -> CorrId {
        self.corr.next_id()
    }
}
