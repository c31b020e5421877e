//! In-process channel network for threaded wall-clock runs.

use crate::{Endpoint, Envelope};
use hiloc_util::sync::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use hiloc_util::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Default per-mailbox capacity for [`ChannelNetwork::register`].
///
/// Every mailbox is bounded: a stalled or crashed receiver sheds
/// excess traffic (UDP semantics) instead of accumulating envelopes
/// without limit. Deployments that want tighter overload behaviour
/// (the sharded runtime's per-shard inboxes) pass an explicit cap via
/// [`ChannelNetwork::register_bounded`] / [`ChannelNetwork::register_sender`].
pub const DEFAULT_MAILBOX_CAP: usize = 4096;

/// Outcome of a [`ChannelNetwork::send_outcome`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Enqueued on the destination's mailbox.
    Delivered,
    /// The destination's bounded mailbox was full; the envelope was
    /// dropped (overload shedding).
    Shed,
    /// No such endpoint is registered (or its receiver is gone); the
    /// envelope was dropped.
    NoRoute,
}

/// The receiving side of a registered endpoint.
///
/// Wraps an in-tree channel receiver; each registered endpoint owns
/// one mailbox.
#[derive(Debug)]
pub struct Mailbox<M> {
    endpoint: Endpoint,
    rx: Receiver<Envelope<M>>,
}

impl<M> Mailbox<M> {
    /// The endpoint this mailbox belongs to.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Blocks until a message arrives or all senders disconnect.
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.rx.recv().ok()
    }

    /// Blocks up to `timeout`; `None` on timeout or disconnect.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        match self.rx.try_recv() {
            Ok(env) => Some(env),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }
}

/// A shared in-process network: endpoints register to obtain a
/// [`Mailbox`], and any holder of the (cheaply cloneable) network can
/// send to any registered endpoint.
///
/// Used by the threaded deployment runtime for the paper's Table 2
/// wall-clock measurements: the message-path structure (which servers a
/// request visits) is identical to the UDP deployment, while transport
/// cost is a channel hop.
///
/// # Example
///
/// ```
/// use hiloc_net::{ChannelNetwork, Envelope, ServerId};
///
/// let net: ChannelNetwork<u32> = ChannelNetwork::new();
/// let mailbox = net.register(ServerId(1).into());
/// net.send(Envelope::new(ServerId(0).into(), ServerId(1).into(), 7));
/// assert_eq!(mailbox.recv().unwrap().msg, 7);
/// ```
#[derive(Debug)]
pub struct ChannelNetwork<M> {
    routes: Arc<RwLock<BTreeMap<Endpoint, Sender<Envelope<M>>>>>,
}

impl<M> Clone for ChannelNetwork<M> {
    fn clone(&self) -> Self {
        ChannelNetwork { routes: Arc::clone(&self.routes) }
    }
}

impl<M> Default for ChannelNetwork<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> ChannelNetwork<M> {
    /// Creates an empty network.
    pub fn new() -> Self {
        ChannelNetwork { routes: Arc::new(RwLock::new(BTreeMap::new())) }
    }

    /// Registers `endpoint` with the default bounded mailbox
    /// ([`DEFAULT_MAILBOX_CAP`]), returning its mailbox.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint is already registered — a deployment
    /// wiring bug that must fail fast.
    pub fn register(&self, endpoint: Endpoint) -> Mailbox<M> {
        self.register_bounded(endpoint, DEFAULT_MAILBOX_CAP)
    }

    /// Registers `endpoint` with an explicit mailbox capacity.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint is already registered, or `cap == 0`.
    pub fn register_bounded(&self, endpoint: Endpoint, cap: usize) -> Mailbox<M> {
        let (tx, rx) = bounded(cap);
        let prev = self.routes.write().insert(endpoint, tx);
        assert!(prev.is_none(), "endpoint {endpoint} registered twice");
        Mailbox { endpoint, rx }
    }

    /// Routes `endpoint` to an existing sender, so several endpoints
    /// can share one inbox (the sharded runtime maps every server on a
    /// shard to that shard's bounded inbox).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint is already registered.
    pub fn register_sender(&self, endpoint: Endpoint, tx: Sender<Envelope<M>>) {
        let prev = self.routes.write().insert(endpoint, tx);
        assert!(prev.is_none(), "endpoint {endpoint} registered twice");
    }

    /// Removes an endpoint; subsequent sends to it are dropped.
    pub fn deregister(&self, endpoint: Endpoint) {
        self.routes.write().remove(&endpoint);
    }

    /// Sends an envelope. Returns `true` when the destination is
    /// registered and the message was enqueued (UDP semantics: sends to
    /// unknown destinations are silently dropped, but reported).
    pub fn send(&self, env: Envelope<M>) -> bool {
        self.send_outcome(env) == SendOutcome::Delivered
    }

    /// Sends an envelope, distinguishing overload shedding
    /// ([`SendOutcome::Shed`], destination mailbox full) from a missing
    /// route. Never blocks: a full bounded mailbox drops the envelope.
    pub fn send_outcome(&self, env: Envelope<M>) -> SendOutcome {
        let routes = self.routes.read();
        match routes.get(&env.to) {
            Some(tx) => match tx.try_send(env) {
                Ok(()) => SendOutcome::Delivered,
                Err(TrySendError::Full(_)) => SendOutcome::Shed,
                Err(TrySendError::Disconnected(_)) => SendOutcome::NoRoute,
            },
            None => SendOutcome::NoRoute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ServerId};

    #[test]
    fn register_send_receive() {
        let net: ChannelNetwork<String> = ChannelNetwork::new();
        let a = net.register(ServerId(0).into());
        let _b = net.register(ServerId(1).into());
        assert!(net.send(Envelope::new(ServerId(1).into(), ServerId(0).into(), "hi".into())));
        let env = a.recv().unwrap();
        assert_eq!(env.msg, "hi");
        assert_eq!(env.from, Endpoint::Server(ServerId(1)));
    }

    #[test]
    fn send_to_unknown_is_reported() {
        let net: ChannelNetwork<u32> = ChannelNetwork::new();
        assert!(!net.send(Envelope::new(ServerId(0).into(), ServerId(9).into(), 1)));
    }

    #[test]
    fn deregister_drops_messages() {
        let net: ChannelNetwork<u32> = ChannelNetwork::new();
        let mb = net.register(ClientId(1).into());
        net.deregister(ClientId(1).into());
        assert!(!net.send(Envelope::new(ServerId(0).into(), ClientId(1).into(), 1)));
        assert!(mb.try_recv().is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let net: ChannelNetwork<u32> = ChannelNetwork::new();
        let _a = net.register(ServerId(0).into());
        let _b = net.register(ServerId(0).into());
    }

    #[test]
    fn cross_thread_delivery() {
        let net: ChannelNetwork<u64> = ChannelNetwork::new();
        let mb = net.register(ServerId(0).into());
        let sender = net.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100u64 {
                sender.send(Envelope::new(ClientId(1).into(), ServerId(0).into(), i));
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += mb.recv().unwrap().msg;
        }
        handle.join().unwrap();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn full_mailbox_sheds_instead_of_accumulating() {
        let net: ChannelNetwork<u32> = ChannelNetwork::new();
        let mb = net.register_bounded(ServerId(0).into(), 2);
        let env = |v| Envelope::new(ClientId(1).into(), ServerId(0).into(), v);
        assert_eq!(net.send_outcome(env(1)), SendOutcome::Delivered);
        assert_eq!(net.send_outcome(env(2)), SendOutcome::Delivered);
        // Mailbox full: the stalled server sheds, the sender never blocks.
        assert_eq!(net.send_outcome(env(3)), SendOutcome::Shed);
        assert!(!net.send(env(4)));
        assert_eq!(mb.try_recv().unwrap().msg, 1);
        assert_eq!(net.send_outcome(env(5)), SendOutcome::Delivered);
        assert_eq!(mb.try_recv().unwrap().msg, 2);
        assert_eq!(mb.try_recv().unwrap().msg, 5);
        assert!(mb.try_recv().is_none(), "the shed envelopes are gone");
    }

    #[test]
    fn unknown_destination_is_no_route() {
        let net: ChannelNetwork<u32> = ChannelNetwork::new();
        assert_eq!(
            net.send_outcome(Envelope::new(ServerId(0).into(), ServerId(9).into(), 1)),
            SendOutcome::NoRoute
        );
    }

    #[test]
    fn shared_sender_routes_two_endpoints_to_one_inbox() {
        use hiloc_util::sync::channel::bounded;
        let net: ChannelNetwork<u32> = ChannelNetwork::new();
        let (tx, rx) = bounded(8);
        net.register_sender(ServerId(0).into(), tx.clone());
        net.register_sender(ServerId(1).into(), tx);
        assert!(net.send(Envelope::new(ClientId(1).into(), ServerId(0).into(), 10)));
        assert!(net.send(Envelope::new(ClientId(1).into(), ServerId(1).into(), 11)));
        assert_eq!(rx.try_recv().unwrap().msg, 10);
        assert_eq!(rx.try_recv().unwrap().msg, 11);
    }

    #[test]
    fn try_recv_empty_then_one() {
        let net: ChannelNetwork<u32> = ChannelNetwork::new();
        let mb = net.register(ServerId(0).into());
        assert!(mb.try_recv().is_none());
        net.send(Envelope::new(ServerId(0).into(), ServerId(0).into(), 5));
        assert_eq!(mb.try_recv().unwrap().msg, 5);
        assert!(mb.try_recv().is_none());
    }

    /// Checked at compile time, for every sendable message type (the
    /// protocol's `Message` included): a mailbox can be shared by
    /// reference with another thread, and the network used from many.
    /// Callers rely on it (a scoped thread echoing from `&Mailbox`);
    /// `std::sync::mpsc` could not stand in here, as its `Receiver` is
    /// not `Sync`.
    #[test]
    fn mailbox_and_network_are_send_sync() {
        fn send_sync<T: Send + Sync>() {}
        fn for_any<M: Send>() {
            send_sync::<Mailbox<M>>();
            send_sync::<ChannelNetwork<M>>();
        }
        for_any::<u64>();
    }
}
