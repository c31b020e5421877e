//! The two real transports: what each contributes to a
//! [`ShardedDeployment`] and nothing else — how a shard's end of the
//! wire sends and batch-receives, how the wire is opened, how a client
//! port connects to it, and the public signatures that differ because
//! sockets can fail where channels cannot.

use crate::area::Hierarchy;
use crate::node::{ServerOptions, ServerStats};
use crate::proto::Message;
use crate::runtime::client::Client;
use crate::runtime::sharded::{ShardSpec, ShardTransport, ShardedDeployment};
use hiloc_net::{
    ChannelNetwork, ChannelPort, Endpoint, Envelope, Outbox, SendOutcome, ServerId, UdpEndpoint,
    UdpError,
};
use hiloc_util::sync::channel::{bounded, Receiver, RecvTimeoutError, TryRecvError};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The first client id of a channel deployment.
pub(crate) const CHANNEL_FIRST_CLIENT: u64 = 1 << 48;

/// The first client id of a UDP deployment.
pub(crate) const UDP_FIRST_CLIENT: u64 = 1 << 52;

// ------------------------------------------------------------- channels

/// A location service running as sharded event loops over an
/// in-process channel network — the wall-clock substrate for the
/// paper's Table 2 measurements (the message-path structure matches the
/// UDP deployment; transport cost is a channel hop). Each shard drains
/// one **bounded** inbox shared by its servers; overflow is shed
/// (dropped and counted per destination server), never queued without
/// limit.
///
/// # Example
///
/// ```
/// use hiloc_core::area::HierarchyBuilder;
/// use hiloc_core::model::{ObjectId, Sighting};
/// use hiloc_core::runtime::ThreadedDeployment;
/// use hiloc_geo::{Point, Rect};
///
/// let h = HierarchyBuilder::grid(
///     Rect::new(Point::new(0.0, 0.0), Point::new(1_500.0, 1_500.0)), 1, 2,
/// ).build().unwrap();
/// let ls = ThreadedDeployment::new(h, Default::default());
/// let mut client = ls.client();
/// let entry = ls.leaf_for(Point::new(100.0, 100.0));
/// client.register(entry, Sighting::new(ObjectId(1), client.now_us(), Point::new(100.0, 100.0), 5.0), 10.0, 50.0, 3.0).unwrap();
/// let ld = client.pos_query(entry, ObjectId(1)).unwrap();
/// assert_eq!(ld.pos, Point::new(100.0, 100.0));
/// ```
pub type ThreadedDeployment = ShardedDeployment<ChannelNetwork<Message>>;

/// A blocking client of a [`ThreadedDeployment`].
pub type SyncClient = Client<ChannelPort<Message>>;

/// A shard's end of the channel network: the bounded inbox every local
/// server is routed to, and the network for everything leaving the
/// shard.
struct ChannelTransport {
    net: ChannelNetwork<Message>,
    rx: Receiver<Envelope<Message>>,
}

impl ShardTransport for ChannelTransport {
    fn send(&mut self, env: Envelope<Message>) -> SendOutcome {
        self.net.send_outcome(env)
    }

    fn recv_batch(&mut self, nap: Duration, max: usize, out: &mut Vec<Envelope<Message>>) -> bool {
        match self.rx.recv_timeout(nap) {
            Ok(env) => out.push(env),
            Err(RecvTimeoutError::Timeout) => return true,
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        while out.len() < max {
            match self.rx.try_recv() {
                Ok(env) => out.push(env),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        true
    }
}

impl ThreadedDeployment {
    /// Deploys with the default [`ShardSpec`] (one shard per available
    /// core, 4096-envelope inboxes).
    ///
    /// # Panics
    ///
    /// Panics when a server cannot be constructed (durable store
    /// failure).
    pub fn new(hierarchy: Hierarchy, opts: ServerOptions) -> Self {
        Self::new_sharded(hierarchy, opts, ShardSpec::default())
    }

    /// Deploys with an explicit shard layout.
    ///
    /// # Panics
    ///
    /// Panics when a server cannot be constructed (durable store
    /// failure).
    pub fn new_sharded(hierarchy: Hierarchy, opts: ServerOptions, spec: ShardSpec) -> Self {
        let hierarchy = Arc::new(hierarchy);
        let net: ChannelNetwork<Message> = ChannelNetwork::new();
        let n_shards = spec.resolve(hierarchy.len());
        let placement = ShardSpec::placement(&hierarchy, n_shards);
        // One bounded inbox per shard; every server on the shard
        // routes to it, and the network holds the only senders.
        let (inboxes, transports): (Vec<_>, Vec<_>) = (0..n_shards)
            .map(|_| {
                let (tx, rx) = bounded(spec.inbox_cap);
                (tx, ChannelTransport { net: net.clone(), rx })
            })
            .unzip();
        for cfg in hierarchy.servers() {
            net.register_sender(cfg.id.into(), inboxes[placement[cfg.id.0 as usize]].clone());
        }
        drop(inboxes);
        Self::start(hierarchy, &opts, net, transports, placement, CHANNEL_FIRST_CLIENT)
            .expect("server construction failed")
    }

    /// Creates a blocking client handle (thread-safe to create from any
    /// thread; each handle is single-threaded).
    pub fn client(&self) -> SyncClient {
        let id = self.next_client_id();
        self.attach(id, ChannelPort::register(&self.wire, id.into()))
    }

    /// Stops all shards and returns per-server final stats: the
    /// channel deployment's `shutdown` is
    /// [`ShardedDeployment::shutdown_with_stats`].
    pub fn shutdown(self) -> Vec<ServerStats> {
        self.shutdown_with_stats()
    }
}

// ------------------------------------------------------------------ UDP

/// A location service deployed over real UDP sockets, as the paper's
/// prototype was ("on top of UDP to achieve efficient client/server
/// and server/server interactions"). Each shard owns **one** socket
/// shared by its servers and drains it in batches (one timed receive,
/// then non-blocking reads until empty); same-shard traffic never
/// touches the network. What a shard's turn sends leaves packed: one
/// datagram per destination socket (several back-to-back envelope
/// frames, up to 60 000 bytes), flushed at the end of the turn, so a
/// batch of requests from one client is answered in one datagram.
/// Sockets bind on localhost; the address book is plain socket
/// addresses, so the layout generalizes to several hosts.
///
/// # Example
///
/// ```no_run
/// use hiloc_core::area::HierarchyBuilder;
/// use hiloc_core::model::{ObjectId, Sighting};
/// use hiloc_core::runtime::UdpDeployment;
/// use hiloc_geo::{Point, Rect};
///
/// # fn demo() -> Result<(), Box<dyn std::error::Error>> {
/// let h = HierarchyBuilder::grid(
///     Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)), 1, 2,
/// ).build()?;
/// let ls = UdpDeployment::bind(h, Default::default())?;
/// let mut client = ls.client()?;
/// let entry = ls.leaf_for(Point::new(10.0, 10.0));
/// client.register(entry, Sighting::new(ObjectId(1), 0, Point::new(10.0, 10.0), 5.0), 10.0, 50.0, 3.0)?;
/// ls.shutdown();
/// # Ok(())
/// # }
/// ```
pub type UdpDeployment = ShardedDeployment<BTreeMap<Endpoint, SocketAddr>>;

/// A blocking client of a [`UdpDeployment`], on its own socket.
pub type UdpClient = Client<UdpEndpoint<Message>>;

/// A shard's end of the UDP wire: a single socket serving every local
/// server, and the outbox a turn's outputs are packed into.
struct UdpTransport {
    ep: UdpEndpoint<Message>,
    outbox: Outbox,
}

impl ShardTransport for UdpTransport {
    fn send(&mut self, env: Envelope<Message>) -> SendOutcome {
        match self.ep.enqueue(&mut self.outbox, env) {
            Ok(()) => SendOutcome::Delivered,
            Err(_) => SendOutcome::NoRoute,
        }
    }

    fn flush(&mut self) -> usize {
        self.ep.flush(&mut self.outbox)
    }

    fn is_flushed(&self) -> bool {
        self.outbox.is_empty()
    }

    fn recv_batch(&mut self, nap: Duration, max: usize, out: &mut Vec<Envelope<Message>>) -> bool {
        self.ep.recv_batch(nap, max, out).is_ok()
    }
}

fn bind_loopback(identity: Endpoint) -> Result<UdpEndpoint<Message>, UdpError> {
    UdpEndpoint::bind(identity, SocketAddr::from(([127, 0, 0, 1], 0)))
}

impl UdpDeployment {
    /// Binds with the default [`ShardSpec`] (one shard — and one
    /// socket — per available core).
    ///
    /// # Errors
    ///
    /// Returns an error when a socket cannot be bound or a server's
    /// durable store cannot be opened.
    pub fn bind(hierarchy: Hierarchy, opts: ServerOptions) -> Result<Self, UdpError> {
        Self::bind_sharded(hierarchy, opts, ShardSpec::default())
    }

    /// Binds one UDP socket per shard on ephemeral localhost ports and
    /// spawns the shard event loops.
    ///
    /// # Errors
    ///
    /// Returns an error when a socket cannot be bound or a server's
    /// durable store cannot be opened.
    pub fn bind_sharded(
        hierarchy: Hierarchy,
        opts: ServerOptions,
        spec: ShardSpec,
    ) -> Result<Self, UdpError> {
        let hierarchy = Arc::new(hierarchy);
        let n_shards = spec.resolve(hierarchy.len());
        let placement = ShardSpec::placement(&hierarchy, n_shards);
        // One socket per shard. Its endpoint identity is the shard
        // index (cosmetic — envelopes carry their own from/to).
        let mut transports = Vec::with_capacity(n_shards);
        let mut shard_addrs = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let ep = bind_loopback(ServerId(s as u32).into())?;
            shard_addrs.push(ep.local_addr()?);
            transports.push(UdpTransport { ep, outbox: Outbox::new() });
        }
        let addrs: BTreeMap<Endpoint, SocketAddr> = hierarchy
            .servers()
            .iter()
            .map(|cfg| (cfg.id.into(), shard_addrs[placement[cfg.id.0 as usize]]))
            .collect();
        for t in &transports {
            t.ep.add_routes(addrs.iter().map(|(e, a)| (*e, *a)));
        }
        Self::start(hierarchy, &opts, addrs, transports, placement, UDP_FIRST_CLIENT)
            .map_err(|e| UdpError::Io(std::io::Error::other(e.to_string())))
    }

    /// The socket address a server is reachable at (its shard's
    /// socket).
    pub fn server_addr(&self, id: ServerId) -> Option<SocketAddr> {
        self.wire.get(&Endpoint::Server(id)).copied()
    }

    /// Creates a client bound to its own UDP socket, with routes to
    /// every server.
    ///
    /// # Errors
    ///
    /// Returns an error when the client socket cannot be bound.
    pub fn client(&self) -> Result<UdpClient, UdpError> {
        let id = self.next_client_id();
        let ep = bind_loopback(id.into())?;
        ep.add_routes(self.wire.iter().map(|(e, a)| (*e, *a)));
        Ok(self.attach(id, ep))
    }

    /// Stops all shards and waits for them to exit. Use
    /// [`ShardedDeployment::shutdown_with_stats`] to also collect the
    /// final per-server counters.
    pub fn shutdown(self) {
        self.shutdown_with_stats();
    }
}
