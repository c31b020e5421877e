//! Transports and wire infrastructure for the hiloc location service.
//!
//! The paper's prototype ran its protocols "on top of UDP to achieve
//! efficient client/server and server/server interactions" on a 100 Mbit
//! LAN of five workstations. hiloc keeps the server logic sans-IO
//! (servers consume and emit [`Envelope`]s) and provides three
//! interchangeable ways to move envelopes:
//!
//! * [`SimNet`] — a deterministic virtual-time network with configurable
//!   per-link latency, jitter, loss and duplication, plus full message
//!   tracing. Used for the reproducible experiments and the
//!   message-flow tests of the paper's Figure 6.
//! * [`ChannelNetwork`] — in-process channels between OS threads, for
//!   wall-clock throughput measurements (Table 2).
//! * [`UdpEndpoint`] — real UDP datagrams over blocking std sockets,
//!   for deployments across processes/hosts. A datagram carries one or
//!   more envelope frames back to back: a sending loop packs what one
//!   turn emits for one socket through an [`Outbox`], and a receiver
//!   takes a datagram all or nothing ([`decode_datagram`]).
//!
//! [`Port`] is what a client sees of either real transport (a
//! [`ChannelPort`] or a [`UdpEndpoint`]): send one envelope, wait for
//! the next one addressed to it.
//!
//! Message payloads are generic: anything implementing [`WireCodec`]
//! (the protocol itself lives in `hiloc-core`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel_net;
mod endpoint;
mod port;
mod sim_net;
mod udp;
pub mod wire;

pub use channel_net::{ChannelNetwork, Mailbox, SendOutcome, DEFAULT_MAILBOX_CAP};
pub use endpoint::{ClientId, Endpoint, ServerId};
pub use port::{ChannelPort, Port};
pub use sim_net::{FaultPlan, LatencyModel, LatencySpike, LinkFault, Partition, SimNet, TraceEntry};
pub use udp::{decode_datagram, Outbox, RecvBatch, UdpEndpoint, UdpError};
pub use wire::WireCodec;

use std::fmt;

/// A correlation identifier linking requests to their responses.
///
/// The paper's pseudocode blocks inside handlers (`receive handoverRes`);
/// hiloc's servers are event-driven instead and park pending operations
/// keyed by `CorrId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CorrId(pub u64);

impl CorrId {
    /// A correlation id that is never allocated (usable as a sentinel).
    pub const NONE: CorrId = CorrId(0);
}

impl fmt::Display for CorrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corr#{}", self.0)
    }
}

/// Monotonic [`CorrId`] generator (not thread-safe; each node owns one).
#[derive(Debug, Default)]
pub struct CorrIdGen {
    next: u64,
}

impl CorrIdGen {
    /// Creates a generator starting at 1 (0 is the sentinel).
    pub fn new() -> Self {
        CorrIdGen { next: 0 }
    }

    /// Creates a generator in a private namespace: ids are
    /// `(namespace << 40) + n`. A deployment splits the namespaces so
    /// correlation ids are globally unique across it: server `s` takes
    /// `s + 1` ([`CorrIdGen::for_server`]), the simulator's driver takes
    /// `1 << 20`, and runtime clients take [`CorrIdGen::CLIENT_NAMESPACE`]
    /// plus the low 23 bits of their id ([`CorrIdGen::for_client`]). Ids
    /// stay unique while servers number fewer than `(1 << 20) - 1` and
    /// live clients fewer than `1 << 23`.
    pub fn namespaced(namespace: u64) -> Self {
        CorrIdGen { next: namespace << 40 }
    }

    /// The bit that sets client namespaces apart from server ones.
    pub const CLIENT_NAMESPACE: u64 = 1 << 23;

    /// The generator of server `id`: namespace `id + 1`.
    pub fn for_server(id: ServerId) -> Self {
        Self::namespaced(u64::from(id.0) + 1)
    }

    /// The generator of client `id`: namespace
    /// [`CorrIdGen::CLIENT_NAMESPACE`] plus the id's low 23 bits, so a
    /// deployment's clients never draw a server's ids.
    pub fn for_client(id: ClientId) -> Self {
        Self::namespaced(Self::CLIENT_NAMESPACE | (id.0 & (Self::CLIENT_NAMESPACE - 1)))
    }

    /// Allocates the next correlation id.
    pub fn next_id(&mut self) -> CorrId {
        self.next += 1;
        CorrId(self.next)
    }
}

/// An addressed message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sender address.
    pub from: Endpoint,
    /// Destination address.
    pub to: Endpoint,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(from: Endpoint, to: Endpoint, msg: M) -> Self {
        Envelope { from, to, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corr_id_gen_is_monotonic_and_skips_sentinel() {
        let mut g = CorrIdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert_ne!(a, CorrId::NONE);
        assert!(b > a);
    }

    #[test]
    fn envelope_roundtrip_fields() {
        let e = Envelope::new(
            Endpoint::Server(ServerId(1)),
            Endpoint::Client(ClientId(9)),
            42u32,
        );
        assert_eq!(e.from, Endpoint::Server(ServerId(1)));
        assert_eq!(e.to, Endpoint::Client(ClientId(9)));
        assert_eq!(e.msg, 42);
    }
}
