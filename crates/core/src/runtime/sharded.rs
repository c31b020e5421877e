//! [`ShardedDeployment`] and the sharded event loop under it, the same
//! on every transport.
//!
//! The deployment runs **one event loop per shard**: servers are
//! partitioned across shards **by subtree** ([`ShardSpec::placement`]):
//! the tree is cut at the shallowest level with at least one server per
//! shard, and each shard takes a contiguous depth-first run of whole
//! subtrees below the cut, so parent↔child and sibling hops under the
//! cut stay in one shard's in-memory queue and only hops through the
//! servers above the cut can cross the transport. Because every leaf
//! owns a disjoint service area and objects map to leaves by area, this
//! also partitions visitor/object state across cores, the same way the
//! slab store decouples storage from index. A shard's
//! servers live in its own engine table ([`Servers`], the one the
//! simulator drives too), which builds, dispatches to, ticks, crashes,
//! restarts and checkpoints them; the shard keeps only the loop, the
//! routing of what the table returns, the control commands and its busy
//! accounting. Each loop:
//!
//! 1. applies pending control commands (crash / restart / checkpoint /
//!    snapshot) through the table,
//! 2. fires due timers on its local servers,
//! 3. waits for traffic until the earliest local timer (bounded by
//!    [`MAX_NAP`]): a transport whose last receive got traffic is *hot*
//!    and first polls without blocking, yielding between polls, for at
//!    most `min(`[`SPIN`](hiloc_util::sync::SPIN)`, nap)` (none on a
//!    one-core host), and naps in a timed wait only when that spin runs
//!    out (the rule lives in the transport primitives, so a [`Client`]
//!    waiting for its reply spins on a hot port the same way),
//! 4. drains a **batch** of envelopes from its transport in that one
//!    wait (`recv_batch`: non-blocking syscalls or `try_recv` until
//!    empty; a hot UDP socket stays nonblocking, so a busy shard makes
//!    no mode switch), and
//! 5. dispatches the batch, looping same-shard server→server traffic
//!    through an in-memory queue without ever touching the transport,
//!    and
//! 6. flushes the transport: a turn's outputs leave as one datagram per
//!    destination socket on UDP (see [`ShardTransport::flush`]).
//!
//! Inboxes are **bounded**: the channel transport backs every shard
//! with `util::sync::channel::bounded(inbox_cap)` and sheds (drops +
//! counts) on overflow instead of accumulating without limit; the UDP
//! transport's bound is the kernel socket buffer. Shed envelopes are
//! attributed to their *destination* server and surface as
//! [`ServerStats::inbox_shed`] in snapshots and shutdown stats.
//!
//! The loop also keeps a per-shard **busy time**: wall clock spent
//! processing (timers + dispatch), excluding the waits, spin included. The
//! benchmark reads it as `runtime.shard_busy_frac` (busy time over the
//! measured window). On a host with at least as many cores as shards
//! it is the wall clock of the critical-path shard, and unlike wall
//! clock it measures load balance honestly even when everything is
//! pinned to one core.

// lint:allow-file(wallclock) real-time event-loop runtime: naps, busy-time accounting and command deadlines come from the host clock by design
use crate::area::Hierarchy;
use crate::model::Micros;
use crate::node::{ServerOptions, ServerStats};
use crate::proto::Message;
use crate::runtime::client::Client;
use crate::runtime::engine::{CrashMode, Servers};
use hiloc_geo::Point;
use hiloc_net::{ClientId, Endpoint, Envelope, Port, SendOutcome, ServerId};
use hiloc_storage::StorageError;
use hiloc_util::sync::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hiloc_util::sync::RwLock;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one event-loop nap: commands (crash, snapshot,
/// shutdown) are observed within this latency even on an idle shard.
pub(crate) const MAX_NAP: Duration = Duration::from_millis(10);

/// Maximum envelopes drained from the transport per wakeup.
const BATCH_MAX: usize = 256;

/// How a deployment is cut into event-loop shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards; `0` resolves to the host's available
    /// parallelism (capped at the server count).
    pub shards: usize,
    /// Bounded inbox capacity per shard (channel transport); overflow
    /// is shed, not queued.
    pub inbox_cap: usize,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec { shards: 0, inbox_cap: 4096 }
    }
}

impl ShardSpec {
    /// The shard count to ask [`ShardSpec::placement`] for, for
    /// `n_servers` servers. A deployment then starts only the shards
    /// the placement hands a server, which may be fewer.
    pub fn resolve(&self, n_servers: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        };
        let raw = if self.shards == 0 { auto() } else { self.shards };
        raw.clamp(1, n_servers.max(1))
    }

    /// The retired breadth-first rule, `id % shards`, which no
    /// deployment uses any more: the benchmark's inline replay still
    /// models it when it decides which hops cross a socket. ROADMAP item
    /// 15 re-points that replay at [`ShardSpec::placement`] and retires
    /// this name. An unresolved `shards == 0` answers as one shard does.
    pub fn shard_of(id: ServerId, shards: usize) -> usize {
        id.0 as usize % shards.max(1)
    }

    /// The partitioning rule: the shard of every server, indexed by
    /// `id.0`. The tree is cut at the shallowest level with at least
    /// `shards` servers (the deepest level when none has); the subtrees
    /// rooted at the cut, and any leaf above it, are split in
    /// depth-first order into `shards` contiguous runs whose leaf
    /// counts are as equal as the subtree sizes allow. A subtree stays
    /// whole, a server above the cut goes with its first child, and a
    /// retired or standby slot goes with its recorded parent (shard 0
    /// without one). An unresolved `shards == 0` answers as one shard
    /// does.
    pub fn placement(hierarchy: &Hierarchy, shards: usize) -> Vec<usize> {
        let shards = shards.max(1);
        // The active tree in depth-first preorder, and its leaf counts.
        let mut dfs = Vec::with_capacity(hierarchy.len());
        let mut stack = vec![hierarchy.root()];
        while let Some(id) = stack.pop() {
            dfs.push(id);
            stack.extend(hierarchy.server(id).children.iter().rev().map(|c| c.id));
        }
        let mut leaves = vec![0usize; hierarchy.len()];
        for &id in dfs.iter().rev() {
            let cfg = hierarchy.server(id);
            leaves[id.0 as usize] = if cfg.is_leaf() {
                1
            } else {
                cfg.children.iter().map(|c| leaves[c.id.0 as usize]).sum()
            };
        }
        let level = |id: ServerId| hierarchy.server(id).level;
        let height = dfs.iter().map(|&id| level(id)).max().unwrap_or(0);
        let cut = (0..=height)
            .find(|&l| dfs.iter().filter(|&&id| level(id) == l).count() >= shards)
            .unwrap_or(height);
        let units: Vec<ServerId> = dfs
            .iter()
            .copied()
            .filter(|&id| level(id) == cut || (level(id) < cut && hierarchy.server(id).is_leaf()))
            .collect();
        let total: usize = units.iter().map(|u| leaves[u.0 as usize]).sum();

        let mut owner: Vec<Option<usize>> = vec![None; hierarchy.len()];
        let mut next = 0;
        let mut prefix = 0;
        for s in 0..shards {
            // Run `s` ends as near the `(s + 1) / shards` share of the
            // leaves as it can, taking at least one unit and leaving one
            // for each later run.
            let off_target = |n: usize| (n * shards).abs_diff(total * (s + 1));
            let mut took = false;
            while let Some(&unit) = units.get(next) {
                let w = leaves[unit.0 as usize];
                let later_runs_fed = units.len() - next >= shards - s;
                let closer = off_target(prefix + w) < off_target(prefix);
                if took && s + 1 < shards && !(later_runs_fed && closer) {
                    break;
                }
                owner[unit.0 as usize] = Some(s);
                prefix += w;
                next += 1;
                took = true;
            }
        }
        // Below the cut a server goes with its parent (preorder reaches
        // the parent first), above it with its first child (reverse
        // preorder reaches the child first), and a slot outside the
        // active tree with its recorded parent.
        for &id in &dfs {
            if let Some(p) = hierarchy.server(id).parent {
                owner[id.0 as usize] = owner[id.0 as usize].or(owner[p.0 as usize]);
            }
        }
        for &id in dfs.iter().rev() {
            if let Some(first) = hierarchy.server(id).children.first() {
                owner[id.0 as usize] = owner[id.0 as usize].or(owner[first.id.0 as usize]);
            }
        }
        hierarchy
            .servers()
            .iter()
            .map(|cfg| {
                let parent = cfg.parent.and_then(|p| owner[p.0 as usize]);
                owner[cfg.id.0 as usize].or(parent).unwrap_or(0)
            })
            .collect()
    }
}

/// Deployment-wide chaos + overload accounting, shared by every shard
/// and client of one deployment.
pub(crate) struct Shared {
    /// Server id → partition group; empty map = fully connected.
    /// Server↔server envelopes crossing groups are dropped
    /// (partition-by-drop); client traffic is unaffected.
    partition: RwLock<BTreeMap<u32, u32>>,
    /// Fast path: skips the partition read lock while no partition is
    /// installed (the common case on the message hot path).
    partition_active: AtomicBool,
    /// Envelopes dropped by the partition filter.
    partition_dropped: AtomicU64,
    /// Envelopes a shard could not send (see
    /// [`ShardedDeployment::send_failed`]).
    send_failed: AtomicU64,
    /// Per-destination-server shed counters (indexed by `id.0`):
    /// envelopes dropped because the destination's bounded inbox was
    /// full.
    shed: Vec<AtomicU64>,
}

impl Shared {
    fn new(n_servers: usize) -> Arc<Self> {
        Arc::new(Shared {
            partition: RwLock::new(BTreeMap::new()),
            partition_active: AtomicBool::new(false),
            partition_dropped: AtomicU64::new(0),
            send_failed: AtomicU64::new(0),
            shed: (0..n_servers).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// True when the filter drops an envelope from `from` to `to`.
    pub(crate) fn partitioned(&self, from: Endpoint, to: Endpoint) -> bool {
        if !self.partition_active.load(Ordering::Acquire) {
            return false;
        }
        let (Endpoint::Server(a), Endpoint::Server(b)) = (from, to) else {
            return false;
        };
        let map = self.partition.read();
        matches!((map.get(&a.0), map.get(&b.0)), (Some(x), Some(y)) if x != y)
    }

    /// Records one shed envelope addressed to server `id`.
    pub(crate) fn record_shed(&self, id: ServerId) {
        if let Some(c) = self.shed.get(id.0 as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shed count attributed to server `id`.
    pub(crate) fn shed_for(&self, id: ServerId) -> u64 {
        self.shed.get(id.0 as usize).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    pub(crate) fn record_partition_drop(&self) {
        self.partition_dropped.fetch_add(1, Ordering::Relaxed);
    }

    fn record_send_failed(&self, n: usize) {
        self.send_failed.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// What a shard needs from its wire: batch receive with a bounded
/// wait, and a non-blocking send.
pub(crate) trait ShardTransport: Send + 'static {
    /// Hands one envelope leaving this shard to the wire, without
    /// blocking. It may only be queued until the next
    /// [`flush`](ShardTransport::flush). `Shed` when a bounded inbox
    /// was full, `NoRoute` when the envelope is lost at once (no route,
    /// or too large for the wire).
    fn send(&mut self, env: Envelope<Message>) -> SendOutcome;

    /// Sends everything [`send`](ShardTransport::send) queued since the
    /// last flush; the shard calls it once at the end of every turn, so
    /// nothing stays queued while it waits, applies a command or exits.
    /// Returns the queued envelopes that were lost (a failed socket
    /// write loses its whole datagram). Nothing to do for a transport
    /// that sends at once.
    fn flush(&mut self) -> usize {
        0
    }

    /// True when nothing sent waits for a flush.
    fn is_flushed(&self) -> bool {
        true
    }

    /// Waits up to `nap` for traffic, then drains up to `max`
    /// envelopes into `out` without blocking. After a call that got
    /// traffic the transport is hot: its next call first spins on a
    /// non-blocking poll for at most `min(SPIN, nap)`
    /// ([`spin_poll`](hiloc_util::sync::spin_poll)) and naps in a timed
    /// wait only for what is left of `nap`, so the wait never outlasts
    /// `nap` and due timers and commands are still met. Returns `false`
    /// when the transport is dead and the shard should exit.
    fn recv_batch(&mut self, nap: Duration, max: usize, out: &mut Vec<Envelope<Message>>) -> bool;
}

/// Control-plane messages to one shard. Commands ride a separate
/// unbounded channel so a flooded data inbox can never wedge chaos
/// verbs or shutdown.
pub(crate) enum Command {
    /// [`Servers::crash`]; replies its answer.
    Crash(ServerId, CrashMode, Sender<bool>),
    /// [`Servers::restart`] (also of a running server); replies its
    /// answer.
    Restart(ServerId, Sender<bool>),
    /// [`Servers::checkpoint`]; replies its answer.
    Checkpoint(ServerId, Sender<bool>),
    /// Report per-server stats of live local servers (shed counters
    /// folded in by the deployment) and this shard's busy time.
    Snapshot(Sender<ShardSnapshot>),
}

/// One shard's answer to [`Command::Snapshot`].
pub(crate) struct ShardSnapshot {
    /// Stats of the shard's *live* servers.
    pub stats: Vec<(ServerId, ServerStats)>,
    /// Wall clock this shard spent processing (timers + dispatch),
    /// excluding transport waits.
    pub busy: Duration,
    /// Server→server envelopes this shard handed to its transport.
    pub cross_shard_sends: u64,
}

/// A single event-loop shard. Generic over the transport so every
/// deployment shares the loop verbatim, statically dispatched.
pub(crate) struct Shard<T: ShardTransport> {
    transport: T,
    /// The servers this shard owns.
    servers: Servers,
    hierarchy: Arc<Hierarchy>,
    shared: Arc<Shared>,
    cmd_rx: Receiver<Command>,
    shutdown: Arc<AtomicBool>,
    epoch: Instant,
    busy: Duration,
    /// Server→server envelopes handed to the transport. The shard's
    /// own count, read through [`Command::Snapshot`], so the hot path
    /// writes no memory another shard reads.
    cross_shard_sends: u64,
    /// Same-shard forwarding queue: outputs addressed to a local
    /// server loop here instead of through the transport.
    local_q: VecDeque<Envelope<Message>>,
}

impl<T: ShardTransport> Shard<T> {
    fn now_us(&self) -> Micros {
        self.epoch.elapsed().as_micros() as Micros
    }

    /// Runs the event loop until shutdown; returns the final stats of
    /// the shard's live servers.
    pub(crate) fn run(mut self) -> Vec<(ServerId, ServerStats)> {
        let mut rxbuf: Vec<Envelope<Message>> = Vec::with_capacity(BATCH_MAX);
        loop {
            debug_assert!(self.transport.is_flushed(), "a turn ends flushed");
            while let Ok(cmd) = self.cmd_rx.try_recv() {
                self.apply(cmd);
            }
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }

            let t0 = Instant::now();
            for out in self.servers.fire_due(self.now_us()).into_iter().flatten() {
                self.route(out);
            }
            self.drain_local();
            self.busy += t0.elapsed();

            let nap = self.nap();
            debug_assert!(self.transport.is_flushed(), "the shard waits flushed");
            rxbuf.clear();
            if !self.transport.recv_batch(nap, BATCH_MAX, &mut rxbuf) {
                break;
            }
            if !rxbuf.is_empty() {
                let t1 = Instant::now();
                self.local_q.extend(rxbuf.drain(..));
                self.drain_local();
                self.busy += t1.elapsed();
            }
        }
        self.servers.stats()
    }

    /// Time until the earliest live local timer, bounded by [`MAX_NAP`].
    fn nap(&self) -> Duration {
        let now = self.now_us();
        self.servers
            .next_timer()
            .map_or(MAX_NAP, |t| MAX_NAP.min(Duration::from_micros(t.saturating_sub(now))))
    }

    /// Dispatches queued envelopes to local servers until the queue is
    /// empty (protocol chains terminate, so this cannot loop forever),
    /// then flushes the transport: every turn — timer output or a
    /// received batch — ends here.
    fn drain_local(&mut self) {
        while let Some(env) = self.local_q.pop_front() {
            // A crashed server blackholes; a stray client-addressed or
            // misrouted envelope (not our shard) is dropped, UDP
            // semantics.
            let Some(outs) = self.servers.deliver(self.now_us(), env) else { continue };
            for out in outs {
                self.route(out);
            }
        }
        let lost = self.transport.flush();
        if lost > 0 {
            self.shared.record_send_failed(lost);
        }
    }

    /// Routes one outbound envelope: partition filter, then same-shard
    /// loopback or the transport. Sheds are attributed to the
    /// destination server; an envelope the transport cannot send is
    /// counted as a send failure.
    fn route(&mut self, env: Envelope<Message>) {
        if self.shared.partitioned(env.from, env.to) {
            self.shared.record_partition_drop();
            return;
        }
        let to = env.to;
        if let Endpoint::Server(sid) = to {
            if self.servers.hosts(sid) {
                self.local_q.push_back(env);
                return;
            }
            if matches!(env.from, Endpoint::Server(_)) {
                self.cross_shard_sends += 1;
            }
        }
        match (self.transport.send(env), to) {
            (SendOutcome::Shed, Endpoint::Server(sid)) => self.shared.record_shed(sid),
            (SendOutcome::NoRoute, _) => self.shared.record_send_failed(1),
            _ => {}
        }
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            // Queued envelopes to a crashed server blackhole at dispatch.
            Command::Crash(id, mode, ack) => {
                let _ = ack.try_send(self.servers.crash(id, mode));
            }
            Command::Restart(id, ack) => {
                let _ = ack.try_send(self.servers.restart(&self.hierarchy, id));
            }
            Command::Checkpoint(id, ack) => {
                let _ = ack.try_send(self.servers.checkpoint(id));
            }
            Command::Snapshot(reply) => {
                let stats = self.servers.stats();
                let _ = reply.try_send(ShardSnapshot {
                    stats,
                    busy: self.busy,
                    cross_shard_sends: self.cross_shard_sends,
                });
            }
        }
    }
}

/// A location service running as sharded event loops (see
/// [`ShardSpec`]) over a real transport: the handle that owns the
/// shards' command channels and joins the loops on shutdown.
///
/// `W` is the transport's *wire*: what stays with the deployment once
/// the shard ends of the transport are running — whatever a new client
/// needs to reach the servers. Everything here is transport-agnostic;
/// construction, `client()` and `shutdown()` differ in signature per
/// transport and live with the [`ThreadedDeployment`](super::ThreadedDeployment)
/// and [`UdpDeployment`](super::UdpDeployment) aliases.
pub struct ShardedDeployment<W> {
    hierarchy: Arc<Hierarchy>,
    pub(crate) wire: W,
    shared: Arc<Shared>,
    /// Start of the service clock every shard and client reads.
    epoch: Instant,
    cmd_txs: Vec<Sender<Command>>,
    /// Server id (`id.0`) → owning shard index.
    owner: Vec<usize>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<Vec<(ServerId, ServerStats)>>>,
    next_client: AtomicU64,
}

impl<W> std::fmt::Debug for ShardedDeployment<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDeployment")
            .field("servers", &self.hierarchy.len())
            .field("shards", &self.shard_count())
            .finish()
    }
}

/// How long the deployment waits for a shard to answer a command
/// before giving up (a shard observes commands within [`MAX_NAP`]).
const COMMAND_TIMEOUT: Duration = Duration::from_secs(10);

impl<W> ShardedDeployment<W> {
    /// Builds every server of `hierarchy` and starts one event loop
    /// per transport: shard `i` runs over `transports[i]` and owns the
    /// servers with `placement[id.0] == i`, the table the transport
    /// wired its inboxes or address book from
    /// ([`ShardSpec::placement`]). `first_client` seeds the client-id
    /// range (one range per transport, clear of object-derived ids).
    ///
    /// # Errors
    ///
    /// Returns the first server-construction failure (a durable store
    /// that cannot be opened); no thread has been spawned by then.
    pub(crate) fn start<T: ShardTransport>(
        hierarchy: Arc<Hierarchy>,
        opts: &ServerOptions,
        wire: W,
        transports: Vec<T>,
        placement: Vec<usize>,
        first_client: u64,
    ) -> Result<Self, StorageError> {
        let n_shards = transports.len();
        let mut per_shard: Vec<Servers> =
            (0..n_shards).map(|_| Servers::new(opts.clone())).collect();
        for cfg in hierarchy.servers() {
            per_shard[placement[cfg.id.0 as usize]].spawn(cfg)?;
        }

        let shared = Shared::new(hierarchy.len());
        let shutdown = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let mut cmd_txs = Vec::with_capacity(n_shards);
        let mut handles = Vec::with_capacity(n_shards);
        for (transport, servers) in transports.into_iter().zip(per_shard) {
            let (cmd_tx, cmd_rx) = unbounded();
            cmd_txs.push(cmd_tx);
            let shard = Shard {
                transport,
                servers,
                hierarchy: Arc::clone(&hierarchy),
                shared: Arc::clone(&shared),
                cmd_rx,
                shutdown: Arc::clone(&shutdown),
                epoch,
                busy: Duration::ZERO,
                cross_shard_sends: 0,
                local_q: VecDeque::new(),
            };
            handles.push(std::thread::spawn(move || shard.run()));
        }
        let next_client = AtomicU64::new(first_client);
        Ok(ShardedDeployment {
            hierarchy,
            wire,
            shared,
            epoch,
            cmd_txs,
            owner: placement,
            shutdown,
            handles,
            next_client,
        })
    }

    /// Allocates the id a new client's port is opened under.
    pub(crate) fn next_client_id(&self) -> ClientId {
        ClientId(self.next_client.fetch_add(1, Ordering::Relaxed))
    }

    /// Wraps the port opened for `id` as a client of this deployment.
    pub(crate) fn attach<L: Port<Message>>(&self, id: ClientId, port: L) -> Client<L> {
        Client::new(id, port, Arc::clone(&self.shared), self.epoch)
    }

    /// The deployment's hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of event-loop shards actually running.
    pub fn shard_count(&self) -> usize {
        self.cmd_txs.len()
    }

    /// The leaf server responsible for `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside the root service area.
    pub fn leaf_for(&self, p: Point) -> ServerId {
        self.hierarchy.leaf_for(p).expect("position outside the service area")
    }

    /// Microseconds since deployment start (the service clock).
    pub fn now_us(&self) -> Micros {
        self.epoch.elapsed().as_micros() as Micros
    }

    fn command_to_owner(&self, id: ServerId, make: impl FnOnce(Sender<bool>) -> Command) -> bool {
        let Some(&shard) = self.owner.get(id.0 as usize) else {
            return false;
        };
        let (ack_tx, ack_rx) = unbounded();
        if self.cmd_txs[shard].try_send(make(ack_tx)).is_err() {
            return false;
        }
        matches!(ack_rx.recv_timeout(COMMAND_TIMEOUT), Ok(true))
    }

    /// Crashes server `id` in place (process crash: in-memory state
    /// dropped, durable state kept, incoming traffic blackholed).
    /// Returns `false` when the server is already down.
    pub fn crash_server(&self, id: ServerId) -> bool {
        self.crash_server_with(id, CrashMode::Process)
    }

    /// [`ShardedDeployment::crash_server`] with an explicit
    /// [`CrashMode`]: `PowerLoss` also truncates the server's engine
    /// files back to their last fsynced byte. The shard's engine table
    /// runs the crash, the same code that runs
    /// [`SimDeployment::crash_server_with`](super::SimDeployment::crash_server_with).
    /// Returns `false` when the server is already down or the
    /// truncation failed.
    pub fn crash_server_with(&self, id: ServerId, mode: CrashMode) -> bool {
        self.command_to_owner(id, |ack| Command::Crash(id, mode, ack))
    }

    /// Takes a storage-engine checkpoint on running server `id` (a
    /// no-op for a volatile deployment). Returns `false` when the
    /// server is down or the checkpoint write failed.
    pub fn checkpoint_server(&self, id: ServerId) -> bool {
        self.command_to_owner(id, |ack| Command::Checkpoint(id, ack))
    }

    /// Restarts server `id` from its config and durable state (also
    /// crash-restarts a running server). Returns `false` on an unknown
    /// id, or when the durable store will not reopen — that server
    /// then stays down while the rest of its shard keeps serving.
    pub fn restart_server(&self, id: ServerId) -> bool {
        self.command_to_owner(id, |ack| Command::Restart(id, ack))
    }

    /// Installs a partition-by-drop filter: server↔server envelopes
    /// crossing the listed groups are dropped until
    /// [`ShardedDeployment::clear_partition`]. Servers listed in no
    /// group stay connected to everyone; client traffic is unaffected.
    pub fn set_partition(&self, groups: &[Vec<ServerId>]) {
        let mut map = self.shared.partition.write();
        map.clear();
        for (g, members) in groups.iter().enumerate() {
            for id in members {
                map.insert(id.0, g as u32);
            }
        }
        self.shared.partition_active.store(!map.is_empty(), Ordering::Release);
    }

    /// Heals any installed partition.
    pub fn clear_partition(&self) {
        self.set_partition(&[]);
    }

    /// Total envelopes dropped at full bounded inboxes so far. Only
    /// the channel transport's inboxes are bounded in-process; over
    /// UDP the bound is the kernel socket buffer, whose drops are not
    /// reported to the process, so this stays 0 there.
    pub fn shed_total(&self) -> u64 {
        self.shared.shed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Shed envelopes attributed to destination server `id`.
    pub fn shed_for(&self, id: ServerId) -> u64 {
        self.shared.shed_for(id)
    }

    /// Envelopes dropped by the partition filter so far.
    pub fn partition_dropped(&self) -> u64 {
        self.shared.partition_dropped.load(Ordering::Relaxed)
    }

    /// Envelopes the shards could not send so far: no route to the
    /// destination, an encoding over the 60 000-byte datagram cap, or
    /// a datagram whose socket write failed (each of its envelopes
    /// counts). A hot UDP socket is nonblocking, so there a write that
    /// would block fails too, and its envelopes count here as lost.
    /// Nothing tells the sender; the request that caused one ends in
    /// its client's timeout.
    pub fn send_failed(&self) -> u64 {
        self.shared.send_failed.load(Ordering::Relaxed)
    }

    /// Server→server envelopes the shards have handed to the transport
    /// so far: the protocol's messages that crossed a shard boundary
    /// (same-shard ones loop through the shard's in-memory queue and are
    /// not counted), whatever became of them (shed or unroutable
    /// included). Client traffic is never counted. Asks every shard,
    /// as [`ShardedDeployment::shard_busy`] does.
    pub fn cross_shard_sends(&self) -> u64 {
        self.snapshot().2
    }

    /// Folds the shed counters into per-server stats and orders them
    /// by server id.
    fn finish_stats(&self, stats: &mut [(ServerId, ServerStats)]) {
        for (id, s) in stats.iter_mut() {
            s.inbox_shed = self.shared.shed_for(*id);
        }
        stats.sort_by_key(|(id, _)| id.0);
    }

    /// Asks every shard for its live servers' stats, its busy time and
    /// its cross-shard sends (summed).
    fn snapshot(&self) -> (Vec<(ServerId, ServerStats)>, Vec<Duration>, u64) {
        let mut stats: Vec<(ServerId, ServerStats)> = Vec::new();
        let mut busy = vec![Duration::ZERO; self.cmd_txs.len()];
        let mut cross = 0;
        for (i, tx) in self.cmd_txs.iter().enumerate() {
            let (reply_tx, reply_rx) = unbounded();
            if tx.try_send(Command::Snapshot(reply_tx)).is_err() {
                continue;
            }
            match reply_rx.recv_timeout(COMMAND_TIMEOUT) {
                Ok(snap) => {
                    busy[i] = snap.busy;
                    cross += snap.cross_shard_sends;
                    stats.extend(snap.stats);
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {}
            }
        }
        self.finish_stats(&mut stats);
        (stats, busy, cross)
    }

    /// Mid-run stats of every live server (shed counters folded in),
    /// ordered by server id.
    pub fn stats_snapshot(&self) -> Vec<(ServerId, ServerStats)> {
        self.snapshot().0
    }

    /// Per-shard busy time: wall clock spent processing (timers +
    /// dispatch), excluding idle waits. The max entry is the
    /// critical-path cost of the work so far.
    pub fn shard_busy(&self) -> Vec<Duration> {
        self.snapshot().1
    }

    /// Signals shutdown and joins every shard, collecting the final
    /// stats of the servers that were still live.
    fn join_all(&mut self) -> Vec<(ServerId, ServerStats)> {
        self.shutdown.store(true, Ordering::Relaxed);
        self.handles.drain(..).filter_map(|h| h.join().ok()).flatten().collect()
    }

    /// Stops all shards, waits for them to exit and returns per-server
    /// final stats (shed counters folded in), ordered by server id.
    /// Crashed servers are absent.
    pub fn shutdown_with_stats(mut self) -> Vec<ServerStats> {
        let mut all = self.join_all();
        self.finish_stats(&mut all);
        all.into_iter().map(|(_, s)| s).collect()
    }
}

impl<W> Drop for ShardedDeployment<W> {
    fn drop(&mut self) {
        self.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::ShardSpec;
    use crate::area::{Hierarchy, HierarchyBuilder};
    use hiloc_geo::{Point, Rect};
    use hiloc_net::ServerId;

    /// Root 0, mid-level 1..=4, leaves 5..=20 (breadth-first ids).
    fn tree(levels: u32) -> Hierarchy {
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
        HierarchyBuilder::grid(area, levels, 2).build().unwrap()
    }

    fn leaves_per_shard(h: &Hierarchy, placement: &[usize], shards: usize) -> Vec<usize> {
        let mut n = vec![0; shards];
        for leaf in h.leaves() {
            n[placement[leaf.id.0 as usize]] += 1;
        }
        n
    }

    #[test]
    fn placement_places_every_server_on_a_running_shard() {
        for levels in 0..=3 {
            let h = tree(levels);
            for shards in 1..=8 {
                let placement = ShardSpec::placement(&h, shards);
                assert_eq!(placement.len(), h.len(), "levels={levels} shards={shards}");
                assert!(placement.iter().all(|&s| s < shards), "levels={levels} shards={shards}");
            }
        }
    }

    #[test]
    fn placement_keeps_quadrants_whole_on_the_benchmark_tree() {
        let placement = ShardSpec::placement(&tree(2), 2);
        // Quadrants 1 and 2 go with the root, quadrants 3 and 4 share
        // the other shard, each with its four leaves.
        let mut want = vec![0, 0, 0, 1, 1];
        want.extend([0; 8]);
        want.extend([1; 8]);
        assert_eq!(placement, want);
    }

    #[test]
    fn placement_keeps_subtrees_whole_and_leaf_counts_even() {
        let h = tree(2);
        for shards in 2..=4 {
            // At most 4 shards the cut is at the mid level: every
            // server below it sits with its parent.
            let placement = ShardSpec::placement(&h, shards);
            for cfg in h.servers().iter().filter(|c| c.level == 2) {
                let parent = cfg.parent.unwrap();
                assert_eq!(placement[cfg.id.0 as usize], placement[parent.0 as usize]);
            }
            let per = leaves_per_shard(&h, &placement, shards);
            assert!(per.iter().all(|&n| n > 0), "shards={shards}: {per:?}");
            assert!(per.iter().max().unwrap() - per.iter().min().unwrap() <= 4, "{per:?}");
            assert_eq!(placement[0], placement[1], "the root goes with its first child");
        }
    }

    #[test]
    fn placement_is_deterministic() {
        for shards in 1..=6 {
            let once = || ShardSpec::placement(&tree(2), shards);
            assert_eq!(once(), once());
        }
        let h = tree(3);
        assert_eq!(ShardSpec::placement(&h, 3), ShardSpec::placement(&h.clone(), 3));
    }

    #[test]
    fn placement_on_one_shard_maps_everything_to_0() {
        let h = tree(2);
        assert!(ShardSpec::placement(&h, 1).iter().all(|&s| s == 0));
        // An unresolved `shards == 0` answers as one shard does.
        assert!(ShardSpec::placement(&h, 0).iter().all(|&s| s == 0));
        assert_eq!(ShardSpec::placement(&tree(0), 3), vec![0]);
    }

    #[test]
    fn more_shards_than_level_1_subtrees_moves_the_cut_one_level_down() {
        let h = tree(2);
        let placement = ShardSpec::placement(&h, 5);
        // Five runs of the sixteen leaves, in depth-first order: every
        // shard serves some, none more than its share rounded up.
        let per = leaves_per_shard(&h, &placement, 5);
        assert!(per.iter().all(|&n| (3..=4).contains(&n)), "{per:?}");
        // A mid-level server now splits across shards and goes with
        // its first child; the leaves' runs stay contiguous.
        for mid in 1..=4u32 {
            let first = h.server(ServerId(mid)).children[0].id;
            assert_eq!(placement[mid as usize], placement[first.0 as usize]);
        }
        let leaf_shards: Vec<usize> = (5..21).map(|i| placement[i]).collect();
        assert!(leaf_shards.is_sorted(), "{leaf_shards:?}");
        // Fewer leaves than shards: one leaf per shard and no server on
        // shard 4, so a deployment starts only shards 0 to 3.
        let small = ShardSpec::placement(&tree(1), 5);
        assert_eq!(small, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn slots_outside_the_active_tree_go_with_their_parent() {
        let mut h = tree(2);
        let absorber = h.retire_leaf(ServerId(20)).unwrap();
        let split = h.split_leaf(ServerId(5)).unwrap();
        let standby = h.reserve_standby(h.root()).unwrap();
        let placement = ShardSpec::placement(&h, 2);
        assert_eq!(placement.len(), h.len());
        assert_eq!(placement[20], placement[absorber.0 as usize]);
        assert_eq!(placement[split.0 as usize], placement[5]);
        assert_eq!(placement[standby.0 as usize], 0);
    }
}
