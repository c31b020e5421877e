//! The location server: a sans-IO, event-driven state machine
//! implementing the paper's algorithms (§6).
//!
//! A [`LocationServer`] consumes [`Envelope`]s and a clock reading and
//! produces envelopes to send — it performs no I/O of its own, so the
//! identical logic runs under the deterministic virtual-time driver,
//! the threaded channel runtime and the UDP runtime.

mod handover;
mod maintenance;
mod pending;
mod queries;
mod reconfig;
mod registration;
mod replica;
mod replication;
mod visitor;

pub use pending::{
    HandoverOrigin, HandoverRelay, PathSyncOut, Pending, PosWait, RelayAction, TransferOut,
};
pub use replica::{ReplicaDb, ReplicaValue};
pub use visitor::{VisitorDb, VisitorRecord};

use queries::{Probe, Ring};
use replication::Replication;

/// Re-exported so durability can be configured without a direct
/// `hiloc-storage` dependency (e.g. by the simulation crate).
pub use hiloc_storage::SyncPolicy as StorageSyncPolicy;

use crate::area::ServerConfig;
use crate::cache::{CacheConfig, Caches};
use crate::model::{
    semantics, Hlc, HlcClock, LocationDescriptor, Micros, ObjectId, RangeQuery, RegInfo, Sighting,
    SECOND,
};
use crate::proto::{Message, ObjectLocation};
use hiloc_geo::Rect;
use hiloc_net::{CorrIdGen, Endpoint, Envelope, ServerId};
use hiloc_storage::{Entry, SightingDb, StorageError, StoredSighting, SyncPolicy};
use std::path::PathBuf;

/// Durability settings for the visitor database.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory for this server's WAL + snapshot (one subdirectory per
    /// server is created inside).
    pub dir: PathBuf,
    /// Sync policy for path-change writes.
    pub policy: SyncPolicy,
}

/// Tunables of a location server.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Best accuracy (meters) this server's sensor infrastructure can
    /// sustain — the `acc` the paper's registration "determines".
    pub acc_floor_m: f64,
    /// Soft-state TTL: a sighting expires this long after its last
    /// refresh, deregistering the object.
    pub sighting_ttl_us: Micros,
    /// Path keep-alive period: leaves re-assert the forwarding path of
    /// every visitor this often (refreshing the records' epochs at all
    /// ancestors). Extends the paper's soft-state principle to the
    /// *non-leaf* records, which a lost `RemovePath` would otherwise
    /// leave behind forever on unreliable transports.
    pub path_refresh_us: Micros,
    /// Path TTL: a non-leaf forwarding record whose epoch has not been
    /// refreshed for this long is discarded (must exceed
    /// `2 × path_refresh_us` to survive occasional lost keep-alives).
    pub path_ttl_us: Micros,
    /// Deadline for distributed gathers (range/NN/position waits).
    pub query_timeout_us: Micros,
    /// Cache configuration (§6.5); all off by default, as in the
    /// paper's measured prototype.
    pub caches: CacheConfig,
    /// Visitor-database durability; `None` keeps it in memory.
    pub durability: Option<DurabilityOptions>,
    /// Bounded-staleness window for answers served from a leaf replica
    /// record (k=2 replication): a replica answers a position query
    /// only while its shipped sighting is at most this old, and only
    /// when §6.5 caching is on — the same approximate-answer contract.
    pub replica_staleness_us: Micros,
}

impl ServerOptions {
    /// The wait before the next re-send of an operation that must not
    /// give up (bulk transfer, pathSync pull, replication batch): the
    /// query timeout doubled per attempt, capped at 8×.
    pub(crate) fn retry_backoff_us(&self, attempts: u32) -> Micros {
        self.query_timeout_us.saturating_mul(1 << attempts.min(3))
    }
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            acc_floor_m: 5.0,
            sighting_ttl_us: 300 * SECOND,
            path_refresh_us: 150 * SECOND,
            path_ttl_us: 450 * SECOND,
            query_timeout_us: 2 * SECOND,
            caches: CacheConfig::default(),
            durability: None,
            replica_staleness_us: 30 * SECOND,
        }
    }
}

/// The one list of [`ServerStats`] counters: the struct, `add` and
/// `minus` are generated from it, so a new counter is stated once.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Operation counters of one server.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServerStats {
            /// Adds every counter of `other` into `self` (fleet/level
            /// aggregation).
            pub fn add(&mut self, other: &ServerStats) {
                $(self.$name += other.$name;)*
            }

            /// The counter-wise difference `self − earlier`, saturating at
            /// zero — per-phase deltas for benchmarks (a restarted server's
            /// counters reset, hence saturating rather than panicking).
            pub fn minus(&self, earlier: &ServerStats) -> ServerStats {
                ServerStats { $($name: self.$name.saturating_sub(earlier.$name),)* }
            }
        }
    };
}

server_stats! {
    /// Messages consumed.
    msgs_in,
    /// Messages produced.
    msgs_out,
    /// Messages produced **upward** (to this server's parent) — the
    /// hierarchy-climbing share of the traffic. Grouped by server
    /// level, these counters are what the macro benchmark reports as
    /// per-level message amplification.
    msgs_up,
    /// Messages produced **downward** (to one of this server's
    /// children).
    msgs_down,
    /// Messages produced to a non-adjacent server (handover peers,
    /// bulk-transfer targets, agent-lookup shortcuts).
    msgs_peer,
    /// Messages produced to client endpoints (answers, acks,
    /// accuracy notices, probes).
    msgs_client,
    /// Successful registrations performed (as agent).
    registrations,
    /// Position updates applied.
    updates,
    /// Handovers initiated (as old agent).
    handovers_started,
    /// Handovers completed (as old agent).
    handovers_completed,
    /// Position queries answered from the local sighting DB.
    pos_answered,
    /// Range/NN sub-results produced as a leaf.
    sub_results,
    /// Distributed gathers finished completely.
    gathers_completed,
    /// Gathers that timed out (partial answers).
    gathers_timed_out,
    /// Sightings removed by soft-state expiry.
    expired,
    /// Position queries served straight from a cache.
    cache_answers,
    /// Restore-on-demand probes sent after a restart.
    probes_sent,
    /// Updates dropped because no visitor record exists here.
    updates_dropped,
    /// Bulk state transfers initiated (as reconfiguration source).
    transfers_started,
    /// Bulk state transfers acked and completed (as source).
    transfers_completed,
    /// Transfer re-sends after a missing ack.
    transfer_retries,
    /// Visitor records accepted from bulk transfers (as target).
    transfer_records_in,
    /// Path-sync responses applied (as a promoted root).
    path_syncs,
    /// Replication delta batches sent (as stream source).
    deltas_sent,
    /// Delta batch re-sends after a missing ack.
    delta_retries,
    /// Delta records durably applied (as standby or replica).
    delta_records_in,
    /// Position queries answered from the leaf replica table.
    replica_answers,
    /// Messages addressed to this server that a runtime dropped at a
    /// full bounded inbox (overload shedding). The sans-IO server
    /// never increments this itself — the sharded deployment runtime
    /// attributes its per-destination shed counters here at snapshot
    /// time, so overload shows up in the same per-server ledger as
    /// everything else.
    inbox_shed,
}

/// A location server node (sans-IO).
///
/// Drive it by calling [`LocationServer::handle`] for every incoming
/// envelope and [`LocationServer::tick`] when the clock passes
/// [`LocationServer::next_timer`].
pub struct LocationServer {
    config: ServerConfig,
    opts: ServerOptions,
    visitors: VisitorDb,
    sightings: SightingDb,
    pending: Pending,
    caches: Caches,
    corr: CorrIdGen,
    /// Next scheduled path-maintenance instant (keep-alives at leaves,
    /// stale-record scans at non-leaves). `None` until the server first
    /// holds a visitor; a server that recovered visitors at open starts
    /// due at once, to re-assert their paths.
    next_path_maintenance_us: Option<Micros>,
    /// The hybrid logical clock stamping every path change this server
    /// originates; incoming stamps are merged in [`LocationServer::handle`]
    /// so a fresh local stamp always outbids anything stored here.
    clock: HlcClock,
    /// Replication stream state (source sink + receiver attachment).
    repl: Replication,
    /// The k=2 leaf replica table this server holds for a sibling.
    replicas: ReplicaDb,
    outbox: Vec<Envelope<Message>>,
    stats: ServerStats,
}

impl std::fmt::Debug for LocationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocationServer")
            .field("id", &self.config.id)
            .field("leaf", &self.config.is_leaf())
            .field("visitors", &self.visitors.len())
            .field("sightings", &self.sightings.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl LocationServer {
    /// Creates a server from its configuration record.
    ///
    /// With durability enabled, existing visitor records are recovered
    /// from disk (the paper's restart path: forwarding paths survive,
    /// sightings are restored on demand).
    ///
    /// # Errors
    ///
    /// Returns an error when the durable visitor store cannot be
    /// opened.
    pub fn new(config: ServerConfig, opts: ServerOptions) -> Result<Self, StorageError> {
        // A region quadtree in place of the paper's point quadtree
        // (see `hiloc_spatial::PointQuadtree`).
        let sightings = SightingDb::new_quadtree();
        let (visitors, replicas) = match &opts.durability {
            None => (VisitorDb::volatile(), ReplicaDb::volatile()),
            Some(d) => {
                let dir = d.dir.join(format!("server-{}", config.id.0));
                // The replica table logs into its own subdirectory: a
                // torn tail in one WAL never corrupts the other.
                let replicas = ReplicaDb::durable(dir.join("replica"), d.policy)?;
                (VisitorDb::durable(dir, d.policy)?, replicas)
            }
        };
        let next_path_maintenance_us = (!visitors.is_empty()).then_some(0);
        let caches = Caches::new(opts.caches);
        let corr = CorrIdGen::for_server(config.id);
        // Service time restarts near 0 in every life: stamp above every
        // recovered record, or this life's guarded writes lose to them.
        let mut clock = HlcClock::new(config.id.0 as u16);
        visitors.iter().for_each(|(_, r)| clock.observe(r.epoch()));
        replicas.iter().for_each(|(_, v)| clock.observe(v.epoch));
        Ok(LocationServer {
            config,
            opts,
            visitors,
            sightings,
            pending: Pending::default(),
            caches,
            corr,
            next_path_maintenance_us,
            clock,
            repl: Replication::default(),
            replicas,
            outbox: Vec::new(),
            stats: ServerStats::default(),
        })
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.config.id
    }

    /// The configuration record.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Operation counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Cache hit/miss counters summed across the three §6.5 caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.caches.hit_stats()
    }

    /// Per-cache (area / agent / position) hit/miss breakdown.
    pub fn cache_stats_detail(&self) -> crate::cache::CacheStats {
        self.caches.stats()
    }

    /// Replaces the §6.5 cache configuration at runtime, dropping all
    /// learned entries and hit/miss counters — the cache-ablation
    /// switch: a benchmark measures a deployment with caches off, flips
    /// them on, and re-measures without rebuilding a million
    /// registrations.
    pub fn set_cache_config(&mut self, cfg: CacheConfig) {
        self.opts.caches = cfg;
        self.caches = Caches::new(cfg);
    }

    /// Number of slab slots the sighting database ever allocated (its
    /// arena footprint) — exposed so large-scale harnesses can assert
    /// headroom below the slab's `u32` slot-index limit.
    pub fn sighting_slot_capacity(&self) -> usize {
        self.sightings.slot_capacity()
    }

    /// Number of visitor records.
    pub fn visitor_count(&self) -> usize {
        self.visitors.len()
    }

    /// Number of stored sightings (leaf servers).
    pub fn sighting_count(&self) -> usize {
        self.sightings.len()
    }

    /// Number of parked pending operations.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Direct read access to the visitor database (diagnostics/tests).
    pub fn visitors(&self) -> &VisitorDb {
        &self.visitors
    }

    /// Direct read access to the leaf replica table (diagnostics/tests).
    pub fn replicas(&self) -> &ReplicaDb {
        &self.replicas
    }

    /// Number of replica records held for a sibling leaf.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The power-loss recovery points of the durable replica table
    /// (empty when volatile) — the replica twin of
    /// [`LocationServer::wal_power_loss_points`].
    pub fn replica_power_loss_points(&self) -> Vec<(std::path::PathBuf, u64)> {
        self.replicas.power_loss_points()
    }

    /// Compacts the durable visitor store and replica table (no-op
    /// when volatile).
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot cannot be written.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        self.visitors.compact()?;
        self.replicas.compact()
    }

    /// Processes one incoming envelope at service time `now`, returning
    /// the envelopes to send.
    pub fn handle(&mut self, now: Micros, env: Envelope<Message>) -> Vec<Envelope<Message>> {
        self.stats.msgs_in += 1;
        self.observe_epochs(&env.msg);
        let from = env.from;
        match env.msg {
            Message::RegisterReq { sighting, des_acc_m, min_acc_m, max_speed_mps, registrant, corr } => {
                self.on_register_req(now, sighting, des_acc_m, min_acc_m, max_speed_mps, registrant, corr)
            }
            Message::CreatePath { oid, epoch } => self.on_create_path(now, from, oid, epoch),
            Message::DeregisterReq { oid } => self.on_deregister(now, oid),
            Message::RemovePath { oid, epoch } => self.on_remove_path(now, oid, epoch),
            Message::ChangeAccReq { oid, des_acc_m, min_acc_m, corr } => {
                self.on_change_acc(now, from, oid, des_acc_m, min_acc_m, corr)
            }
            Message::UpdateReq { sighting } => self.on_update(now, from, sighting),
            Message::UpdateBatch { sightings, corr } => {
                self.on_update_batch(now, from, sightings, corr)
            }
            Message::HandoverReq { sighting, reg, epoch, corr } => {
                self.on_handover_req(now, from, sighting, reg, epoch, corr)
            }
            Message::HandoverRes { oid, new_agent, offered_acc_m, epoch, corr } => {
                self.on_handover_res(now, oid, new_agent, offered_acc_m, epoch, corr)
            }
            Message::HandoverFailed { oid, epoch, corr } => {
                self.on_handover_failed(now, oid, epoch, corr)
            }
            Message::PosQueryReq { oid, corr } => self.on_pos_query_req(now, from, oid, corr),
            Message::PosQueryFwd { oid, entry, direct, corr } => {
                self.on_pos_query_fwd(now, from, oid, entry, direct, corr)
            }
            Message::PosQueryRes { oid, found, time_us, max_speed_mps, corr } => {
                self.on_pos_query_res(from, oid, found, time_us, max_speed_mps, corr)
            }
            Message::PosQueryMiss { oid, corr } => self.on_pos_query_miss(oid, corr),
            Message::RangeQueryReq { query, corr } => {
                self.on_range_query_req(now, from, query, corr)
            }
            Message::RangeQueryFwd { query, entry, corr } => {
                self.on_probe_fwd(from, Probe::Range(&query), entry, corr)
            }
            Message::NeighborQueryReq { p, req_acc_m, near_qual_m, corr } => {
                self.on_neighbor_query_req(now, from, p, req_acc_m, near_qual_m, corr)
            }
            Message::NeighborQueryFwd { p, req_acc_m, radius_m, entry, corr } => {
                self.on_probe_fwd(from, Probe::Ring(Ring { p, req_acc_m, radius_m }), entry, corr)
            }
            Message::RangeQuerySubRes { items, covered_area_m2, leaf, leaf_area, corr }
            | Message::NeighborQuerySubRes { items, covered_area_m2, leaf, leaf_area, corr } => {
                self.on_sub_res(now, items, covered_area_m2, leaf, leaf_area, corr)
            }
            Message::AgentLookup { oid, object } => self.on_agent_lookup(now, from, oid, object),
            Message::StateTransfer { records, epoch, corr } => {
                self.on_state_transfer(now, from, records, epoch, corr)
            }
            Message::StateTransferAck { epoch, corr, .. } => {
                self.on_state_transfer_ack(now, epoch, corr)
            }
            Message::PathSyncReq { after, corr } => self.on_path_sync_req(from, after, corr),
            Message::PathSyncRes { entries, done, corr } => {
                self.on_path_sync_res(now, from, entries, done, corr)
            }
            Message::FwdDelta { stream, seq, replica, records, corr } => {
                self.on_fwd_delta(from, stream, seq, replica, records, corr)
            }
            Message::FwdDeltaAck { stream, seq, applied, corr } => {
                self.on_fwd_delta_ack(now, stream, seq, applied, corr)
            }
            // Messages addressed to clients/objects; a server receiving
            // one (misrouted or late) ignores it.
            Message::RegisterRes { .. }
            | Message::RegisterFailed { .. }
            | Message::UpdateAck { .. }
            | Message::UpdateBatchAck { .. }
            | Message::AgentChanged { .. }
            | Message::OutOfServiceArea { .. }
            | Message::ChangeAccRes { .. }
            | Message::NotifyAvailAcc { .. }
            | Message::RangeQueryRes { .. }
            | Message::NeighborQueryRes { .. }
            | Message::PositionProbe { .. } => {}
        }
        if self.next_path_maintenance_us.is_none() && !self.visitors.is_empty() {
            // The first visitor's path was just asserted by the message
            // that brought it: the first keep-alive is one period away.
            self.next_path_maintenance_us = Some(now + self.opts.path_refresh_us.max(1));
        }
        self.drain()
    }

    // ------------------------------------------------------------ helpers

    /// A fresh HLC stamp at service time `now`, strictly greater than
    /// every stamp this server produced or observed — the replication
    /// era's replacement for `epoch: now`.
    pub(crate) fn stamp(&mut self, now: Micros) -> Hlc {
        self.clock.now(now)
    }

    /// Merges every HLC stamp an incoming message carries into the
    /// local clock, **before** the message is dispatched: any stamp
    /// this server issues afterwards outbids every record the message
    /// could have installed — the invariant all epoch-guard sites rely
    /// on when they overwrite previously-accepted remote state.
    fn observe_epochs(&mut self, msg: &Message) {
        match msg {
            Message::CreatePath { epoch, .. }
            | Message::RemovePath { epoch, .. }
            | Message::HandoverReq { epoch, .. }
            | Message::HandoverRes { epoch, .. }
            | Message::HandoverFailed { epoch, .. }
            | Message::StateTransfer { epoch, .. }
            | Message::StateTransferAck { epoch, .. } => self.clock.observe(*epoch),
            Message::PathSyncRes { entries, .. } => {
                for (_, epoch) in entries {
                    self.clock.observe(*epoch);
                }
            }
            Message::FwdDelta { records, .. } => {
                for r in records {
                    match r.body {
                        crate::proto::DeltaBody::Forward { epoch, .. }
                        | crate::proto::DeltaBody::Leaf { epoch, .. }
                        | crate::proto::DeltaBody::Remove { epoch } => self.clock.observe(epoch),
                    }
                }
            }
            _ => {}
        }
    }

    fn drain(&mut self) -> Vec<Envelope<Message>> {
        self.stats.msgs_out += self.outbox.len() as u64;
        std::mem::take(&mut self.outbox)
    }

    pub(crate) fn emit(&mut self, to: impl Into<Endpoint>, msg: Message) {
        let to = to.into();
        // Classify by direction relative to this node's place in the
        // hierarchy — the per-level counters behind the macro
        // benchmark's message-amplification report.
        match to {
            Endpoint::Client(_) => self.stats.msgs_client += 1,
            Endpoint::Server(sid) => {
                if self.config.parent == Some(sid) {
                    self.stats.msgs_up += 1;
                } else if self.config.children.iter().any(|c| c.id == sid) {
                    self.stats.msgs_down += 1;
                } else {
                    self.stats.msgs_peer += 1;
                }
            }
        }
        self.outbox.push(Envelope::new(self.me(), to, msg));
    }

    pub(crate) fn me(&self) -> Endpoint {
        Endpoint::Server(self.config.id)
    }

    pub(crate) fn parent(&self) -> Option<ServerId> {
        self.config.parent
    }

    /// Offered accuracy for a registration at this leaf.
    pub(crate) fn offered_for(&self, reg: &RegInfo) -> f64 {
        reg.offered_accuracy(self.opts.acc_floor_m)
    }

    /// Converts a sighting to its stored form with a fresh TTL.
    pub(crate) fn stored(&self, s: &Sighting, now: Micros) -> StoredSighting {
        StoredSighting {
            key: s.oid.0,
            pos: s.pos,
            time_us: s.time_us,
            acc_sens_m: s.acc_sens_m,
            expires_us: now + self.opts.sighting_ttl_us,
        }
    }

    /// The diagonal of the root service area (upper bound for NN rings).
    pub(crate) fn root_diag(&self) -> f64 {
        let r = self.config.root_area;
        r.min().distance(r.max())
    }

    /// The seed radius for NN searches without a local candidate: the
    /// diagonal of this server's area.
    pub(crate) fn nn_seed_radius(&self) -> f64 {
        self.config.area.min().distance(self.config.area.max())
    }

    /// Scatter targets for a probe rectangle, excluding the sender:
    /// overlapping children, plus the parent when the probe escapes
    /// this server's area (paper Alg. 6-5 routing rules).
    pub(crate) fn scatter_targets(&self, probe: &Rect, from: Endpoint) -> Vec<ServerId> {
        let mut targets = Vec::new();
        for child in &self.config.children {
            if child.area.intersects(probe) && Endpoint::Server(child.id) != from {
                targets.push(child.id);
            }
        }
        if let Some(parent) = self.config.parent {
            let escapes = !self.config.area.contains_rect(probe);
            if escapes && Endpoint::Server(parent) != from {
                targets.push(parent);
            }
        }
        targets
    }

    /// A leaf's qualifying items for a range query (paper Alg. 6-5,
    /// lines 3–5: candidates from the spatial index, then the exact
    /// accuracy + overlap predicate).
    ///
    /// The candidates are index entries, so the walk never reads the
    /// sighting slab; each one costs one visitor probe. For a
    /// rectangular area at `reqOverlap ≥ ½` the walk covers only
    /// [`semantics::center_bound`] instead of `Enlarge(area, reqAcc)`.
    /// That is exact by a half-plane argument: a center outside the
    /// rectangle is outside the half-plane of one of its sides, which
    /// holds less than half of any disc centered there, so such an
    /// object's overlap is below ½ and it cannot qualify.
    pub(crate) fn leaf_range_items(&self, query: &RangeQuery) -> Vec<ObjectLocation> {
        let mut items = Vec::new();
        let visitors = &self.visitors;
        let mut visit = |e: Entry| {
            let Some(VisitorRecord::Leaf { offered_acc_m, .. }) = visitors.get(ObjectId(e.key)) else {
                return;
            };
            let ld = LocationDescriptor { pos: e.pos, acc_m: offered_acc_m };
            if semantics::qualifies_for_range(&query.area, &ld, query.req_acc_m, query.req_overlap) {
                items.push((ObjectId(e.key), ld));
            }
        };
        match semantics::center_bound(&query.area, query.req_overlap) {
            Some(bound) => self.sightings.query_rect(&bound, &mut visit),
            None => self.sightings.range_candidates(&query.area, query.req_acc_m, &mut visit),
        }
        items
    }

    /// A leaf's candidates for a nearest-neighbor ring: recorded
    /// position within `radius_m` of `p`, accuracy within `req_acc_m`.
    pub(crate) fn leaf_nn_items(&self, ring: Ring) -> Vec<ObjectLocation> {
        let Ring { p, req_acc_m, radius_m } = ring;
        let mut items = Vec::new();
        let visitors = &self.visitors;
        self.sightings.query_rect(&Probe::Ring(ring).rect(), &mut |e| {
            if e.pos.distance(p) > radius_m {
                return;
            }
            let Some(VisitorRecord::Leaf { offered_acc_m, .. }) = visitors.get(ObjectId(e.key)) else {
                return;
            };
            if offered_acc_m <= req_acc_m {
                items.push((ObjectId(e.key), LocationDescriptor { pos: e.pos, acc_m: offered_acc_m }));
            }
        });
        items
    }
}
