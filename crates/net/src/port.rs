//! The client side of a real transport: one endpoint's own receive
//! queue plus the ability to address any other endpoint.

use crate::{ChannelNetwork, Endpoint, Envelope, Mailbox, SendOutcome, UdpEndpoint, WireCodec};
use std::time::Duration;

/// What a blocking client needs from its transport, whichever one it
/// is: a non-blocking send that reports what became of the envelope,
/// and a bounded wait for the next envelope addressed to this port.
///
/// Implemented by [`ChannelPort`] (in-process channels) and
/// [`UdpEndpoint`] (one datagram socket), so request/reply logic —
/// `hiloc-core`'s runtime client — is written once over either.
pub trait Port<M> {
    /// Sends one envelope without blocking.
    fn send(&self, env: Envelope<M>) -> SendOutcome;

    /// Waits up to `timeout` for the next envelope, spinning first on a
    /// hot port; `Ok(None)` when the wait elapses.
    ///
    /// # Errors
    ///
    /// Returns an error when the port itself failed (a socket read
    /// error other than the timeout); waiting again is pointless.
    fn recv_timeout(&self, timeout: Duration) -> std::io::Result<Option<Envelope<M>>>;
}

/// A client endpoint on a [`ChannelNetwork`]: its registered
/// [`Mailbox`] plus a handle to the network for sending.
#[derive(Debug)]
pub struct ChannelPort<M> {
    net: ChannelNetwork<M>,
    mailbox: Mailbox<M>,
}

impl<M> ChannelPort<M> {
    /// Registers `endpoint` on `net` (default mailbox capacity).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint is already registered.
    pub fn register(net: &ChannelNetwork<M>, endpoint: Endpoint) -> Self {
        ChannelPort { net: net.clone(), mailbox: net.register(endpoint) }
    }
}

impl<M> Port<M> for ChannelPort<M> {
    fn send(&self, env: Envelope<M>) -> SendOutcome {
        self.net.send_outcome(env)
    }

    fn recv_timeout(&self, timeout: Duration) -> std::io::Result<Option<Envelope<M>>> {
        Ok(self.mailbox.recv_timeout(timeout))
    }
}

/// Any send failure — unknown route, oversized encoding, socket write
/// error — reports [`SendOutcome::NoRoute`]: the datagram is gone and
/// no reply will come; a hot socket (see [`UdpEndpoint`]) fails a write
/// that would block at once. Overload shedding happens in the kernel's
/// socket buffer and is never reported per datagram, so a UDP port
/// never returns [`SendOutcome::Shed`].
impl<M: WireCodec> Port<M> for UdpEndpoint<M> {
    fn send(&self, env: Envelope<M>) -> SendOutcome {
        match UdpEndpoint::send(self, env) {
            Ok(()) => SendOutcome::Delivered,
            Err(_) => SendOutcome::NoRoute,
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> std::io::Result<Option<Envelope<M>>> {
        UdpEndpoint::recv_timeout(self, timeout).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ServerId};

    #[derive(Debug, PartialEq)]
    struct N(u32);

    crate::wire_newtype!(N(u32));

    fn echo_round_trip(client: &impl Port<N>, server: &impl Port<N>) {
        let (c, s) = (ClientId(1).into(), ServerId(0).into());
        assert_eq!(client.send(Envelope::new(c, s, N(7))), SendOutcome::Delivered);
        let got = server.recv_timeout(Duration::from_secs(2)).unwrap().expect("request");
        assert_eq!((got.from, got.msg), (c, N(7)));
        assert_eq!(server.send(Envelope::new(s, got.from, N(8))), SendOutcome::Delivered);
        assert_eq!(client.recv_timeout(Duration::from_secs(2)).unwrap().unwrap().msg, N(8));
        assert!(client.recv_timeout(Duration::from_millis(1)).unwrap().is_none());
        let stranger = Envelope::new(c, ServerId(9).into(), N(1));
        assert_eq!(client.send(stranger), SendOutcome::NoRoute);
    }

    #[test]
    fn channel_port_round_trip() {
        let net = ChannelNetwork::new();
        let server = ChannelPort::register(&net, ServerId(0).into());
        let client = ChannelPort::register(&net, ClientId(1).into());
        echo_round_trip(&client, &server);
    }

    #[test]
    fn udp_port_round_trip() {
        let bind = |ep| UdpEndpoint::<N>::bind(ep, "127.0.0.1:0".parse().unwrap()).unwrap();
        let server = bind(ServerId(0).into());
        let client = bind(ClientId(1).into());
        client.add_route(ServerId(0).into(), server.local_addr().unwrap());
        echo_round_trip(&client, &server);
    }
}
