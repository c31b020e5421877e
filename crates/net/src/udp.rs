//! Real UDP transport (blocking `std::net` sockets): one envelope per
//! datagram. Concurrency is threads, as in the paper's prototype — the
//! deployment runtime in `hiloc-core` runs one receive loop per server
//! thread.

// lint:allow-file(wallclock) real transport: receive deadlines are genuine wall-clock timeouts
use crate::wire::WireCodec;
use crate::{Endpoint, Envelope};
#[cfg(test)]
use crate::ServerId;
use hiloc_util::sync::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::io::ErrorKind;
use std::marker::PhantomData;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors produced by the UDP transport.
#[derive(Debug)]
pub enum UdpError {
    /// Socket I/O failed.
    Io(std::io::Error),
    /// The destination endpoint has no known socket address.
    UnknownRoute(Endpoint),
    /// The encoded envelope exceeds a single datagram.
    TooLarge(usize),
}

impl fmt::Display for UdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpError::Io(e) => write!(f, "udp i/o error: {e}"),
            UdpError::UnknownRoute(ep) => write!(f, "no route to endpoint {ep}"),
            UdpError::TooLarge(n) => write!(f, "envelope of {n} bytes exceeds datagram limit"),
        }
    }
}

impl std::error::Error for UdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UdpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for UdpError {
    fn from(e: std::io::Error) -> Self {
        UdpError::Io(e)
    }
}

/// Frame magic: distinguishes hiloc datagrams from stray traffic.
const MAGIC: u16 = 0x4C53; // "LS"
/// Maximum payload we will put in one datagram.
const MAX_DATAGRAM: usize = 60_000;

/// Counts from one [`UdpEndpoint::recv_batch`] drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvBatch {
    /// Well-formed envelopes appended to the caller's buffer.
    pub received: usize,
    /// Datagrams dropped as stray (bad magic, truncated, corrupt).
    pub stray: usize,
}

/// A UDP-backed network endpoint carrying [`Envelope`]s of `M`.
///
/// Mirrors the paper's transport choice ("our communication protocols
/// are implemented on top of UDP"): no connection state, no built-in
/// reliability — loss handling is the protocol layer's business
/// (soft-state refresh and client retries).
///
/// Routes (endpoint → socket address) are added explicitly; a
/// deployment bootstrapper distributes the address book.
///
/// Cloning shares the underlying socket (and its read timeout), so an
/// endpoint should have a single receiving thread.
pub struct UdpEndpoint<M> {
    endpoint: Endpoint,
    socket: Arc<UdpSocket>,
    routes: Arc<RwLock<BTreeMap<Endpoint, SocketAddr>>>,
    _marker: PhantomData<fn(M) -> M>,
}

impl<M> fmt::Debug for UdpEndpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpEndpoint")
            .field("endpoint", &self.endpoint)
            .field("local_addr", &self.socket.local_addr().ok())
            .finish()
    }
}

impl<M> Clone for UdpEndpoint<M> {
    fn clone(&self) -> Self {
        UdpEndpoint {
            endpoint: self.endpoint,
            socket: Arc::clone(&self.socket),
            routes: Arc::clone(&self.routes),
            _marker: PhantomData,
        }
    }
}

/// True when the error kind signals an elapsed socket read timeout.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

thread_local! {
    /// Reusable datagram buffer: receiving is per-thread (one server or
    /// client loop per thread), so a thread-local avoids a 64 KiB
    /// zeroed allocation per receive call on the message hot path.
    static RECV_BUF: std::cell::RefCell<Vec<u8>> =
        std::cell::RefCell::new(vec![0u8; 65_536]);

    /// Reusable send scratch: each sender thread frames its datagrams
    /// into this buffer via [`WireCodec::encode_into`] on
    /// [`EnvelopeFrame`], so a steady update storm encodes without
    /// allocating per message.
    static SEND_BUF: std::cell::RefCell<Vec<u8>> =
        std::cell::RefCell::new(Vec::with_capacity(256));
}

/// The on-wire shape of one datagram: magic, sender, receiver,
/// message. One codec impl serves both directions — the send path
/// frames into the thread-local scratch through
/// [`WireCodec::encode_into`], the receive path decodes with the
/// strict whole-input [`WireCodec::from_bytes`].
struct EnvelopeFrame<M>(Envelope<M>);

impl<M: WireCodec> WireCodec for EnvelopeFrame<M> {
    fn encoded_len(&self) -> usize {
        MAGIC.encoded_len()
            + self.0.from.encoded_len()
            + self.0.to.encoded_len()
            + self.0.msg.encoded_len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        MAGIC.encode(buf);
        self.0.from.encode(buf);
        self.0.to.encode(buf);
        self.0.msg.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        if u16::decode(buf)? != MAGIC {
            return None;
        }
        let from = Endpoint::decode(buf)?;
        let to = Endpoint::decode(buf)?;
        let msg = M::decode(buf)?;
        Some(EnvelopeFrame(Envelope { from, to, msg }))
    }
}

impl<M: WireCodec> UdpEndpoint<M> {
    /// Binds `endpoint` to a local socket address (use port 0 for an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns an error when binding fails.
    pub fn bind(endpoint: Endpoint, addr: SocketAddr) -> Result<Self, UdpError> {
        let socket = UdpSocket::bind(addr)?;
        Ok(UdpEndpoint {
            endpoint,
            socket: Arc::new(socket),
            routes: Arc::new(RwLock::new(BTreeMap::new())),
            _marker: PhantomData,
        })
    }

    /// This endpoint's identity.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Returns an error when the OS cannot report the local address.
    pub fn local_addr(&self) -> Result<SocketAddr, UdpError> {
        Ok(self.socket.local_addr()?)
    }

    /// Adds (or replaces) the route for `ep`.
    pub fn add_route(&self, ep: Endpoint, addr: SocketAddr) {
        self.routes.write().insert(ep, addr);
    }

    /// Installs a whole address book at once.
    pub fn add_routes(&self, routes: impl IntoIterator<Item = (Endpoint, SocketAddr)>) {
        let mut table = self.routes.write();
        for (ep, addr) in routes {
            table.insert(ep, addr);
        }
    }

    /// Sends one envelope as a single datagram.
    ///
    /// # Errors
    ///
    /// Returns an error when the destination has no route, the encoding
    /// exceeds a datagram, or the socket write fails.
    pub fn send(&self, env: Envelope<M>) -> Result<(), UdpError> {
        let dst = {
            let routes = self.routes.read();
            *routes.get(&env.to).ok_or(UdpError::UnknownRoute(env.to))?
        };
        let frame = EnvelopeFrame(env);
        SEND_BUF.with_borrow_mut(|buf| {
            frame.encode_into(buf);
            if buf.len() > MAX_DATAGRAM {
                return Err(UdpError::TooLarge(buf.len()));
            }
            self.socket.send_to(buf, dst)?;
            Ok(())
        })
    }

    /// Blocks until the next well-formed envelope arrives, silently
    /// skipping datagrams that fail to decode (stray or corrupt
    /// traffic).
    ///
    /// # Errors
    ///
    /// Returns an error when the socket read fails.
    pub fn recv(&self) -> Result<Envelope<M>, UdpError> {
        self.socket.set_read_timeout(None)?;
        RECV_BUF.with_borrow_mut(|buf| loop {
            if let Some(env) = self.recv_step(buf)? {
                return Ok(env);
            }
        })
    }

    /// Waits up to `timeout` for the next well-formed envelope;
    /// `Ok(None)` when the wait elapses. Stray or corrupt datagrams are
    /// skipped without consuming the remaining wait.
    ///
    /// # Errors
    ///
    /// Returns an error when the socket read fails for a reason other
    /// than the timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope<M>>, UdpError> {
        let deadline = Instant::now() + timeout;
        RECV_BUF.with_borrow_mut(|buf| loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            // A zero read timeout is rejected by the OS; round up.
            self.socket
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            match self.recv_step(buf) {
                Ok(Some(env)) => return Ok(Some(env)),
                Ok(None) => continue, // stray datagram; keep waiting
                Err(UdpError::Io(ref e)) if is_timeout(e) => return Ok(None),
                Err(e) => return Err(e),
            }
        })
    }

    /// Waits up to `nap` for traffic, then drains the socket without
    /// blocking — up to `max` envelopes appended to `out` — before
    /// returning. This is the event-loop receive primitive: one
    /// timed wait, then batch syscalls until `WouldBlock`, so a busy
    /// socket costs ~one mode switch per *batch* instead of one timed
    /// receive per *datagram*.
    ///
    /// Stray datagrams (bad magic, truncated or corrupt frames) are
    /// counted and dropped without consuming the wait or panicking.
    ///
    /// # Errors
    ///
    /// Returns an error when the socket read fails for a reason other
    /// than the timeout/empty-socket signal.
    pub fn recv_batch(
        &self,
        nap: Duration,
        max: usize,
        out: &mut Vec<Envelope<M>>,
    ) -> Result<RecvBatch, UdpError> {
        let mut counts = RecvBatch::default();
        if max == 0 {
            return Ok(counts);
        }
        RECV_BUF.with_borrow_mut(|buf| {
            // Phase 1: one blocking wait (bounded by `nap`) for the
            // first datagram; strays burn none of the batch budget.
            let deadline = Instant::now() + nap;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Ok(counts);
                }
                // A zero read timeout is rejected by the OS; round up.
                self.socket
                    .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
                match self.recv_step(buf) {
                    Ok(Some(env)) => {
                        out.push(env);
                        counts.received += 1;
                        break;
                    }
                    Ok(None) => counts.stray += 1,
                    Err(UdpError::Io(ref e)) if is_timeout(e) => return Ok(counts),
                    Err(e) => return Err(e),
                }
            }
            // Phase 2: drain without blocking until the socket is empty
            // or the batch is full.
            self.socket.set_nonblocking(true)?;
            let drained = loop {
                if counts.received >= max {
                    break Ok(());
                }
                match self.recv_step(buf) {
                    Ok(Some(env)) => {
                        out.push(env);
                        counts.received += 1;
                    }
                    Ok(None) => counts.stray += 1,
                    Err(UdpError::Io(ref e)) if is_timeout(e) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            // Restore blocking mode even when the drain failed.
            self.socket.set_nonblocking(false)?;
            drained.map(|()| counts)
        })
    }

    /// One receive attempt: `Ok(None)` when the datagram was stray.
    fn recv_step(&self, buf: &mut [u8]) -> Result<Option<Envelope<M>>, UdpError> {
        let (n, peer) = self.socket.recv_from(buf)?;
        if let Some(env) = decode_frame::<M>(&buf[..n]) {
            // Opportunistically learn the sender's address so replies
            // work without pre-provisioned routes.
            self.routes.write().entry(env.from).or_insert(peer);
            return Ok(Some(env));
        }
        Ok(None)
    }
}

fn decode_frame<M: WireCodec>(raw: &[u8]) -> Option<Envelope<M>> {
    EnvelopeFrame::from_bytes(raw).map(|f| f.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg(u64, String);

    impl WireCodec for TestMsg {
        fn encoded_len(&self) -> usize {
            8 + 4 + self.1.len()
        }
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
            (self.1.len() as u32).encode(buf);
            buf.extend_from_slice(self.1.as_bytes());
        }
        fn decode(buf: &mut &[u8]) -> Option<Self> {
            let n = u64::decode(buf)?;
            let len = u32::decode(buf)? as usize;
            if buf.len() < len {
                return None;
            }
            let s = String::from_utf8(buf[..len].to_vec()).ok()?;
            *buf = &buf[len..];
            Some(TestMsg(n, s))
        }
    }

    fn bind(id: u32) -> UdpEndpoint<TestMsg> {
        UdpEndpoint::bind(ServerId(id).into(), "127.0.0.1:0".parse().unwrap()).unwrap()
    }

    #[test]
    fn two_endpoints_exchange_messages() {
        let a = bind(0);
        let b = bind(1);
        a.add_route(ServerId(1).into(), b.local_addr().unwrap());
        b.add_route(ServerId(0).into(), a.local_addr().unwrap());

        a.send(Envelope::new(
            ServerId(0).into(),
            ServerId(1).into(),
            TestMsg(7, "ping".into()),
        ))
        .unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.msg, TestMsg(7, "ping".into()));
        assert_eq!(got.from, Endpoint::Server(ServerId(0)));

        // Reply works because the route was learned on receive.
        b.send(Envelope::new(
            ServerId(1).into(),
            ServerId(0).into(),
            TestMsg(8, "pong".into()),
        ))
        .unwrap();
        let back = a.recv().unwrap();
        assert_eq!(back.msg.1, "pong");
    }

    #[test]
    fn unknown_route_is_an_error() {
        let a = bind(0);
        let err = a
            .send(Envelope::new(
                ServerId(0).into(),
                ServerId(9).into(),
                TestMsg(0, String::new()),
            ))
            .unwrap_err();
        assert!(matches!(err, UdpError::UnknownRoute(_)));
    }

    #[test]
    fn stray_datagrams_are_skipped() {
        let a = bind(0);
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dst = a.local_addr().unwrap();
        raw.send_to(b"garbage-not-a-frame", dst).unwrap();

        // A valid frame after the garbage is still received.
        let b = bind(1);
        b.add_route(ServerId(0).into(), dst);
        b.send(Envelope::new(
            ServerId(1).into(),
            ServerId(0).into(),
            TestMsg(1, "ok".into()),
        ))
        .unwrap();
        let got = a.recv().unwrap();
        assert_eq!(got.msg.1, "ok");
    }

    #[test]
    fn recv_timeout_elapses_quietly() {
        let a = bind(0);
        let got = a.recv_timeout(Duration::from_millis(20)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn recv_timeout_skips_stray_datagrams_without_expiring() {
        let a = bind(0);
        let dst = a.local_addr().unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(b"garbage-not-a-frame", dst).unwrap();

        // A valid frame arrives after the garbage but well before the
        // deadline; the stray must not consume the whole wait.
        let b = bind(1);
        b.add_route(ServerId(0).into(), dst);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            b.send(Envelope::new(
                ServerId(1).into(),
                ServerId(0).into(),
                TestMsg(2, "late".into()),
            ))
            .unwrap();
        });
        let got = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.expect("valid frame after stray").msg.1, "late");
        sender.join().unwrap();
    }

    #[test]
    fn oversized_payload_rejected() {
        // Encoding path check without sockets.
        let msg = TestMsg(0, "x".repeat(70_000));
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert!(buf.len() > MAX_DATAGRAM);
    }

    /// The full robustness sweep through a real socket: garbage (bad
    /// magic), a truncated envelope (valid magic, body cut mid-frame),
    /// and valid traffic interleaved. The receive loop must drop the
    /// malformed datagrams — counting them as stray — and deliver every
    /// valid frame without panicking.
    #[test]
    fn recv_batch_survives_garbage_and_truncated_frames() {
        let a = bind(0);
        let dst = a.local_addr().unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();

        // 1: bad magic.
        raw.send_to(b"\xDE\xADgarbage-not-a-frame", dst).unwrap();
        // 2: valid magic, envelope truncated mid-message.
        let mut frame = Vec::new();
        MAGIC.encode(&mut frame);
        Endpoint::from(ServerId(1)).encode(&mut frame);
        Endpoint::from(ServerId(0)).encode(&mut frame);
        TestMsg(3, "truncate-me-please".into()).encode(&mut frame);
        frame.truncate(frame.len() - 7);
        raw.send_to(&frame, dst).unwrap();
        // 3+4: valid traffic.
        let b = bind(1);
        b.add_route(ServerId(0).into(), dst);
        for i in 0..2 {
            b.send(Envelope::new(
                ServerId(1).into(),
                ServerId(0).into(),
                TestMsg(i, format!("ok{i}")),
            ))
            .unwrap();
        }

        let mut out = Vec::new();
        let mut total = RecvBatch::default();
        // Drain until both valid frames arrive (delivery order of
        // separate datagrams is not guaranteed to land in one batch).
        while total.received < 2 {
            let c = a.recv_batch(Duration::from_secs(5), 64, &mut out).unwrap();
            assert!(c.received > 0 || c.stray > 0, "batch wait expired");
            total.received += c.received;
            total.stray += c.stray;
        }
        assert_eq!(total.stray, 2, "garbage + truncated both dropped as stray");
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|e| e.msg.1 == "ok0"));
        assert!(out.iter().any(|e| e.msg.1 == "ok1"));
    }

    /// `recv_batch` drains a burst in one call (up to `max`) instead of
    /// one datagram per timed receive.
    #[test]
    fn recv_batch_drains_burst_and_honors_max() {
        let a = bind(0);
        let b = bind(1);
        b.add_route(ServerId(0).into(), a.local_addr().unwrap());
        for i in 0..10u64 {
            b.send(Envelope::new(
                ServerId(1).into(),
                ServerId(0).into(),
                TestMsg(i, "burst".into()),
            ))
            .unwrap();
        }
        let mut out = Vec::new();
        let mut got = 0;
        while got < 10 {
            let c = a.recv_batch(Duration::from_secs(5), 4, &mut out).unwrap();
            assert!(c.received <= 4, "batch cap respected");
            assert!(c.received > 0, "burst must arrive before the wait expires");
            got += c.received;
        }
        let mut ids: Vec<u64> = out.iter().map(|e| e.msg.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    /// An oversized payload is rejected at the send socket (TooLarge).
    #[test]
    fn oversized_payload_rejected_at_socket_send() {
        let a = bind(0);
        let b = bind(1);
        b.add_route(ServerId(0).into(), a.local_addr().unwrap());
        let big = Envelope::new(
            ServerId(1).into(),
            ServerId(0).into(),
            TestMsg(0, "x".repeat(MAX_DATAGRAM + 1)),
        );
        assert!(matches!(b.send(big).unwrap_err(), UdpError::TooLarge(_)));
    }

    #[test]
    fn frame_decode_rejects_bad_magic_and_trailing() {
        let mut buf = Vec::new();
        0xDEADu16.encode(&mut buf);
        assert!(decode_frame::<TestMsg>(&buf).is_none());

        let mut good = Vec::new();
        MAGIC.encode(&mut good);
        Endpoint::from(ServerId(0)).encode(&mut good);
        Endpoint::from(ServerId(1)).encode(&mut good);
        TestMsg(1, "a".into()).encode(&mut good);
        assert!(decode_frame::<TestMsg>(&good).is_some());
        good.push(0xFF); // trailing byte
        assert!(decode_frame::<TestMsg>(&good).is_none());
    }
}
