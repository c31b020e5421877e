//! The adapter: every name of the system under test that the benchmark
//! compiles against is imported here and nowhere else.
//!
//! A refactor of hiloc's runtimes or clients keeps the benchmark
//! building by keeping these names alive as items or aliases (the list
//! is repeated in `benchmark/README.md`); everything else in this
//! package speaks in terms of this module.

pub use hiloc::core::area::{Hierarchy, HierarchyBuilder};
pub use hiloc::core::cache::{CacheConfig, CacheStats};
pub use hiloc::core::model::semantics;
pub use hiloc::core::model::{
    Hlc, LocationDescriptor, LsError, Micros, NeighborAnswer, ObjectId, RangeAnswer, RangeQuery,
    RegInfo, Sighting,
};
pub use hiloc::core::node::{
    DurabilityOptions, LocationServer, ServerOptions, ServerStats, StorageSyncPolicy as SyncPolicy,
    VisitorDb, VisitorRecord,
};
pub use hiloc::core::proto::Message;
pub use hiloc::core::runtime::{
    ShardSpec, SyncClient, ThreadedDeployment, UdpClient, UdpDeployment, UpdateOutcome,
};
pub use hiloc::geo::{Point, Rect, Region};
pub use hiloc::net::{
    ChannelNetwork, ClientId, CorrId, Endpoint, Envelope, ServerId, UdpEndpoint, WireCodec,
};
pub use hiloc::sim::Zipf;
pub use hiloc::spatial::{GridIndex, PointQuadtree, RTree, SpatialIndex};
pub use hiloc::storage::{DurableMap, SightingDb, StoredSighting};
pub use hiloc::util::json::Json;
pub use hiloc::util::rng::{RngExt, SeedableRng, StdRng};

use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

/// The SUT never changes shape with the host: two event-loop shards,
/// default inbox and batch sizes.
pub fn shard_spec() -> ShardSpec {
    ShardSpec {
        shards: 2,
        ..ShardSpec::default()
    }
}

/// What a workload needs from a blocking client, whichever runtime (or
/// the benchmark's own inline hierarchy) is behind it.
pub trait Client {
    /// Microseconds on the deployment's service clock.
    fn now_us(&self) -> Micros;
    /// `register` → `(agent, offered accuracy)`.
    fn register(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Result<(ServerId, f64), LsError>;
    /// Position update to the object's agent.
    fn update(&mut self, agent: ServerId, sighting: Sighting) -> Result<UpdateOutcome, LsError>;
    /// Position query entered at `entry`.
    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError>;
    /// Range query entered at `entry`.
    fn range_query(&mut self, entry: ServerId, query: RangeQuery) -> Result<RangeAnswer, LsError>;
    /// Nearest-neighbor query entered at `entry`.
    fn neighbor_query(
        &mut self,
        entry: ServerId,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
    ) -> Result<NeighborAnswer, LsError>;
    /// Fire-and-forget deregistration.
    fn deregister(&mut self, agent: ServerId, oid: ObjectId);
}

macro_rules! forward_client_queries {
    () => {
        fn now_us(&self) -> Micros {
            Self::now_us(self)
        }
        fn register(
            &mut self,
            entry: ServerId,
            sighting: Sighting,
            des_acc_m: f64,
            min_acc_m: f64,
            max_speed_mps: f64,
        ) -> Result<(ServerId, f64), LsError> {
            Self::register(self, entry, sighting, des_acc_m, min_acc_m, max_speed_mps)
        }
        fn update(
            &mut self,
            agent: ServerId,
            sighting: Sighting,
        ) -> Result<UpdateOutcome, LsError> {
            Self::update(self, agent, sighting)
        }
        fn pos_query(
            &mut self,
            entry: ServerId,
            oid: ObjectId,
        ) -> Result<LocationDescriptor, LsError> {
            Self::pos_query(self, entry, oid)
        }
        fn range_query(
            &mut self,
            entry: ServerId,
            query: RangeQuery,
        ) -> Result<RangeAnswer, LsError> {
            Self::range_query(self, entry, query)
        }
        fn neighbor_query(
            &mut self,
            entry: ServerId,
            p: Point,
            req_acc_m: f64,
            near_qual_m: f64,
        ) -> Result<NeighborAnswer, LsError> {
            Self::neighbor_query(self, entry, p, req_acc_m, near_qual_m)
        }
    };
}

impl Client for UdpClient {
    forward_client_queries!();
    fn deregister(&mut self, _agent: ServerId, _oid: ObjectId) {
        // `UdpClient` has no deregistration call; only `churn_durable`
        // deregisters and it is pinned to the channel runtime.
        unreachable!("no workload deregisters over UdpClient");
    }
}

impl Client for SyncClient {
    forward_client_queries!();
    fn deregister(&mut self, agent: ServerId, oid: ObjectId) {
        Self::deregister(self, agent, oid);
    }
}

/// A deployed service under test: one of the two real runtimes.
pub enum Sut {
    /// Sharded event loops over real UDP sockets on localhost.
    Udp(UdpDeployment),
    /// Sharded event loops over the in-process channel network.
    Threaded(ThreadedDeployment),
}

impl Sut {
    /// Binds the UDP runtime with [`shard_spec`].
    pub fn udp(h: Hierarchy, opts: ServerOptions) -> Sut {
        Sut::Udp(
            UdpDeployment::bind_sharded(h, opts, shard_spec()).expect("bind localhost UDP sockets"),
        )
    }

    /// Starts the channel runtime with [`shard_spec`].
    pub fn threaded(h: Hierarchy, opts: ServerOptions) -> Sut {
        Sut::Threaded(ThreadedDeployment::new_sharded(h, opts, shard_spec()))
    }

    /// `stats_snapshot()` summed over all live servers.
    pub fn stats_total(&self) -> ServerStats {
        let per_server = match self {
            Sut::Udp(d) => d.stats_snapshot(),
            Sut::Threaded(d) => d.stats_snapshot(),
        };
        let mut total = ServerStats::default();
        for (_, s) in per_server {
            total.add(&s);
        }
        total
    }

    /// Per-shard busy time (channel runtime only; the UDP runtime does
    /// not expose it).
    pub fn shard_busy(&self) -> Option<Vec<Duration>> {
        match self {
            Sut::Udp(_) => None,
            Sut::Threaded(d) => Some(d.shard_busy()),
        }
    }

    /// The socket a server is reachable at (UDP runtime only).
    pub fn server_addr(&self, id: ServerId) -> Option<SocketAddr> {
        match self {
            Sut::Udp(d) => d.server_addr(id),
            Sut::Threaded(_) => None,
        }
    }

    /// Process-crashes a server in place.
    pub fn crash_server(&self, id: ServerId) -> bool {
        match self {
            Sut::Udp(d) => d.crash_server(id),
            Sut::Threaded(d) => d.crash_server(id),
        }
    }

    /// Restarts a server from its config and durable state.
    pub fn restart_server(&self, id: ServerId) -> bool {
        match self {
            Sut::Udp(d) => d.restart_server(id),
            Sut::Threaded(d) => d.restart_server(id),
        }
    }

    /// Stops every shard and waits for the threads to exit.
    pub fn shutdown(self) {
        match self {
            Sut::Udp(d) => d.shutdown(),
            Sut::Threaded(d) => drop(d.shutdown()),
        }
    }
}

/// Server options shared by every workload, varied only where the
/// workload's definition says so.
pub fn server_options(caches: bool, durable_dir: Option<&Path>) -> ServerOptions {
    ServerOptions {
        caches: if caches {
            CacheConfig::all_enabled()
        } else {
            CacheConfig::default()
        },
        durability: durable_dir.map(|dir| DurabilityOptions {
            dir: dir.to_path_buf(),
            policy: SyncPolicy::OsFlush,
        }),
        ..ServerOptions::default()
    }
}
