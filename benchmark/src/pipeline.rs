//! The benchmark's own pipelined UDP client: many requests in flight
//! over one socket, built on the public `UdpEndpoint<Message>` and
//! `UdpDeployment::server_addr`.
//!
//! `UdpClient` waits for each answer before it sends the next request,
//! which measures thread wake-ups rather than the service; with a
//! window in flight the shards stay busy and server CPU is the limit.

// lint:allow-file(wallclock) load generator: latencies and the service clock of sightings are wall-clock by definition
use crate::sut::{ClientId, Endpoint, Envelope, Message, Micros, ServerId, Sut, UdpEndpoint};
use std::time::{Duration, Instant};

/// A windowed client with its own socket.
pub struct Pipeline {
    id: ClientId,
    ep: UdpEndpoint<Message>,
    epoch: Instant,
}

impl Pipeline {
    /// Binds a socket and learns the address of every server in
    /// `servers`. `n` tells the benchmark's clients apart.
    pub fn connect(sut: &Sut, servers: impl IntoIterator<Item = ServerId>, n: u64) -> Pipeline {
        // Above the ids `UdpDeployment::client` hands out (1 << 52 …).
        let id = ClientId((1 << 53) + n);
        let ep: UdpEndpoint<Message> =
            UdpEndpoint::bind(id.into(), "127.0.0.1:0".parse().expect("valid address"))
                .expect("bind a localhost UDP socket");
        ep.add_routes(servers.into_iter().map(|s| {
            let addr = sut
                .server_addr(s)
                .expect("the UDP runtime knows every server's socket");
            (Endpoint::Server(s), addr)
        }));
        Pipeline {
            id,
            ep,
            epoch: Instant::now(),
        }
    }

    /// This client's endpoint (the registrant of what it registers).
    pub fn endpoint(&self) -> Endpoint {
        self.id.into()
    }

    /// Microseconds since this client connected (right after the
    /// deployment started, so close to its service clock).
    pub fn now_us(&self) -> Micros {
        self.epoch.elapsed().as_micros() as Micros
    }

    /// Sends one request; `false` when the datagram could not be sent.
    pub fn send(&self, to: ServerId, msg: Message) -> bool {
        self.ep
            .send(Envelope::new(self.id.into(), to.into(), msg))
            .is_ok()
    }

    /// Waits up to `wait` for an answer, then takes what else has
    /// arrived, up to `max`. Returns how many were appended.
    pub fn recv(&self, wait: Duration, max: usize, out: &mut Vec<Envelope<Message>>) -> usize {
        self.ep
            .recv_batch(wait, max, out)
            .map(|b| b.received)
            .unwrap_or(0)
    }
}
