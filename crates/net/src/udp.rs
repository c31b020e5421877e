//! Real UDP transport (blocking `std::net` sockets).
//!
//! A datagram carries **one or more** envelope frames back to back,
//! each `MAGIC | from | to | msg`, with no datagram header: a
//! one-envelope datagram is exactly one frame, and a packed one is
//! several frames concatenated, at most 60 000 bytes in all.
//! [`UdpEndpoint::send`] sends one envelope as its own datagram at
//! once; a sending loop that emits many envelopes per turn instead
//! [`enqueue`](UdpEndpoint::enqueue)s them into an [`Outbox`] and
//! [`flush`](UdpEndpoint::flush)es it, one datagram per destination
//! socket. Receiving decodes every frame of a datagram through
//! [`decode_datagram`], all or nothing. Concurrency is threads, as in
//! the paper's prototype: the deployment runtime in `hiloc-core` runs
//! one event loop per shard, each owning one socket.

// lint:allow-file(wallclock) real transport: receive deadlines are genuine wall-clock timeouts
use crate::wire::WireCodec;
use crate::{Endpoint, Envelope};
#[cfg(test)]
use crate::ServerId;
use hiloc_util::sync::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::ErrorKind;
use std::marker::PhantomData;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Well-formed datagrams this call read from the socket; a packed
    /// datagram counts once, and envelopes handed out from the pending
    /// queue count none.
    pub datagrams: usize,
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
/// Cloning shares the underlying socket (and its read timeout) and the
/// queue of received envelopes not yet handed out, so an endpoint
/// should have a single receiving thread.
pub struct UdpEndpoint<M> {
    endpoint: Endpoint,
    socket: Arc<UdpSocket>,
    routes: Arc<RwLock<BTreeMap<Endpoint, SocketAddr>>>,
    /// Envelopes of datagrams already read that did not fit the
    /// receive call that read them; the next call hands them out first.
    pending: Arc<Mutex<VecDeque<Envelope<M>>>>,
    /// The socket's read timeout in whole milliseconds, as last set (0:
    /// never set), shared like the socket so no clone sets it again.
    read_timeout_ms: Arc<AtomicU64>,
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
            pending: Arc::clone(&self.pending),
            read_timeout_ms: Arc::clone(&self.read_timeout_ms),
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

/// The on-wire shape of one envelope: magic, sender, receiver,
/// message. A datagram is one or more of these back to back.
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

/// Decodes every frame of one datagram onto `out`; `true` when the
/// whole datagram was well-formed. Delivery is **all or nothing**: an
/// empty datagram, or one with any bad frame (bad magic, truncated,
/// corrupt, trailing bytes), leaves `out` as it was and returns
/// `false` — the datagram is one stray.
// lint:hot_path
pub fn decode_datagram<M: WireCodec>(mut raw: &[u8], out: &mut Vec<Envelope<M>>) -> bool {
    let start = out.len();
    if raw.is_empty() {
        return false;
    }
    while !raw.is_empty() {
        match EnvelopeFrame::<M>::decode(&mut raw) {
            Some(EnvelopeFrame(env)) => out.push(env),
            None => {
                out.truncate(start);
                return false;
            }
        }
    }
    true
}

/// A sender's datagrams under construction, one per destination socket.
///
/// [`UdpEndpoint::enqueue`] appends envelope frames and
/// [`UdpEndpoint::flush`] sends one datagram per destination that has
/// any, so everything a loop emits for one socket in one turn leaves in
/// one `send_to` (or a few, past 60 000 bytes). An outbox
/// belongs to one sending loop: no lock, not shared by the endpoint's
/// clones. Its buffers keep their capacity across flushes, so a steady
/// sender packs without allocating.
///
/// [`Outbox::push`] and [`Outbox::flush`] are the socket-free half the
/// endpoint methods wrap: they hand each finished datagram to a
/// caller's `send`, which reports whether it left.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Destination socket → index into `datagrams`.
    index: BTreeMap<SocketAddr, usize>,
    datagrams: Vec<Datagram>,
    /// Indices of the datagrams holding frames, in the order they were
    /// first written since the last flush.
    dirty: Vec<usize>,
    /// Envelopes lost since the last flush in datagrams that `push` had
    /// to send early and whose send failed.
    lost: usize,
}

/// One destination's datagram under construction.
#[derive(Debug)]
struct Datagram {
    dst: SocketAddr,
    bytes: Vec<u8>,
    frames: usize,
}

impl Datagram {
    /// Hands the datagram to `send` and empties it. Returns the frames
    /// lost: all of them when `send` failed.
    fn send_with(&mut self, send: &mut impl FnMut(SocketAddr, &[u8]) -> bool) -> usize {
        let lost = if send(self.dst, &self.bytes) { 0 } else { self.frames };
        self.bytes.clear();
        self.frames = 0;
        lost
    }
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// True when no frame waits for a flush.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Appends `env`'s frame to the datagram bound for `dst`. When the
    /// frame would push that datagram past 60 000 bytes, the
    /// datagram so far goes to `send` first; if that send fails, its
    /// envelopes are counted by the next [`Outbox::flush`].
    ///
    /// # Errors
    ///
    /// [`UdpError::TooLarge`] when the frame alone exceeds a datagram;
    /// nothing is queued.
    // lint:hot_path
    pub fn push<M: WireCodec>(
        &mut self,
        dst: SocketAddr,
        env: Envelope<M>,
        mut send: impl FnMut(SocketAddr, &[u8]) -> bool,
    ) -> Result<(), UdpError> {
        let frame = EnvelopeFrame(env);
        let len = frame.encoded_len();
        if len > MAX_DATAGRAM {
            return Err(UdpError::TooLarge(len));
        }
        let i = match self.index.get(&dst) {
            Some(&i) => i,
            None => self.open(dst),
        };
        let datagram = &mut self.datagrams[i];
        if datagram.frames == 0 {
            self.dirty.push(i);
        } else if datagram.bytes.len() + len > MAX_DATAGRAM {
            self.lost += datagram.send_with(&mut send);
        }
        frame.encode(&mut datagram.bytes);
        datagram.frames += 1;
        Ok(())
    }

    /// Hands every non-empty datagram to `send`, in the order their
    /// destinations were first written, and empties them. Returns the
    /// envelopes lost since the previous flush: those in datagrams
    /// `send` refused, here or early in [`Outbox::push`].
    // lint:hot_path
    pub fn flush(&mut self, mut send: impl FnMut(SocketAddr, &[u8]) -> bool) -> usize {
        let mut lost = std::mem::take(&mut self.lost);
        for i in self.dirty.drain(..) {
            lost += self.datagrams[i].send_with(&mut send);
        }
        lost
    }

    /// Starts the datagram buffer of a destination not seen before.
    /// Runs once per destination, so it may allocate.
    fn open(&mut self, dst: SocketAddr) -> usize {
        let i = self.datagrams.len();
        self.datagrams.push(Datagram { dst, bytes: Vec::new(), frames: 0 });
        self.index.insert(dst, i);
        i
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
            pending: Arc::new(Mutex::new(VecDeque::new())),
            read_timeout_ms: Arc::new(AtomicU64::new(0)),
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

    /// The socket address of `ep`.
    fn route(&self, ep: Endpoint) -> Result<SocketAddr, UdpError> {
        self.routes.read().get(&ep).copied().ok_or(UdpError::UnknownRoute(ep))
    }

    /// Sends one envelope as a single datagram.
    ///
    /// # Errors
    ///
    /// Returns an error when the destination has no route, the encoding
    /// exceeds a datagram, or the socket write fails.
    pub fn send(&self, env: Envelope<M>) -> Result<(), UdpError> {
        let dst = self.route(env.to)?;
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

    /// Appends `env` to the datagram `outbox` is building for its
    /// destination's socket; it leaves at the next
    /// [`flush`](UdpEndpoint::flush). When the frame would push that
    /// datagram past the cap, the datagram so far is sent first.
    ///
    /// # Errors
    ///
    /// Returns an error, and queues nothing, when the destination has
    /// no route or the envelope alone exceeds a datagram. A failed
    /// socket write of an early-sent datagram is counted by the next
    /// flush instead.
    // lint:hot_path
    pub fn enqueue(&self, outbox: &mut Outbox, env: Envelope<M>) -> Result<(), UdpError> {
        let dst = self.route(env.to)?;
        outbox.push(dst, env, |dst, bytes| self.socket.send_to(bytes, dst).is_ok())
    }

    /// Sends one datagram per destination holding frames in `outbox`.
    /// Returns the envelopes lost since the previous flush to failed
    /// socket writes (a failed write loses its whole datagram).
    // lint:hot_path
    pub fn flush(&self, outbox: &mut Outbox) -> usize {
        outbox.flush(|dst, bytes| self.socket.send_to(bytes, dst).is_ok())
    }

    /// Blocks until the next well-formed envelope arrives, silently
    /// skipping datagrams that fail to decode (stray or corrupt
    /// traffic). Hands out one envelope per call, as
    /// [`recv_timeout`](UdpEndpoint::recv_timeout) does.
    ///
    /// # Errors
    ///
    /// Returns an error when the socket read fails.
    pub fn recv(&self) -> Result<Envelope<M>, UdpError> {
        loop {
            if let Some(env) = self.recv_timeout(Duration::from_secs(60))? {
                return Ok(env);
            }
        }
    }

    /// Waits up to `timeout` for the next well-formed envelope;
    /// `Ok(None)` when the wait elapses. Stray or corrupt datagrams are
    /// skipped without consuming the remaining wait. Hands out one
    /// envelope per call, pending ones first (see
    /// [`recv_batch`](UdpEndpoint::recv_batch)).
    ///
    /// # Errors
    ///
    /// Returns an error when the socket read fails for a reason other
    /// than the timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope<M>>, UdpError> {
        let mut one = Vec::with_capacity(1);
        self.recv_batch(timeout, 1, &mut one)?;
        Ok(one.pop())
    }

    /// Waits up to `nap` for traffic, then drains the socket without
    /// blocking — up to `max` envelopes appended to `out` — before
    /// returning. This is the event-loop receive primitive: one
    /// timed wait, then batch syscalls until `WouldBlock`, so a busy
    /// socket costs ~one mode switch per *batch* instead of one timed
    /// receive per *datagram*.
    ///
    /// `max` is exact: a datagram holding more envelopes than the call
    /// has room for leaves the rest in a pending queue shared by the
    /// endpoint's clones. The next receive call, on any clone, hands
    /// pending envelopes out in arrival order before making any
    /// syscall, and returns at once when there were some.
    ///
    /// Stray datagrams (bad magic, truncated or corrupt frames) are
    /// counted and dropped whole, without consuming the wait or
    /// panicking.
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
        {
            let mut pending = self.pending.lock();
            let take = max.min(pending.len());
            out.extend(pending.drain(..take));
            counts.received = take;
        }
        if counts.received > 0 {
            return Ok(counts);
        }
        RECV_BUF.with_borrow_mut(|buf| {
            // Phase 1: one blocking wait (bounded by `nap`) for the
            // first datagram; strays burn none of the batch budget.
            let deadline = Instant::now() + nap;
            while counts.received == 0 {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Ok(counts);
                }
                self.set_read_timeout(remaining)?;
                match self.read_datagram(buf, max, out, &mut counts) {
                    Ok(()) => {}
                    Err(UdpError::Io(ref e)) if is_timeout(e) => return Ok(counts),
                    Err(e) => return Err(e),
                }
            }
            if counts.received >= max {
                return Ok(counts);
            }
            // Phase 2: drain without blocking until the socket is empty
            // or the batch is full.
            self.socket.set_nonblocking(true)?;
            let drained = loop {
                if counts.received >= max {
                    break Ok(());
                }
                match self.read_datagram(buf, max - counts.received, out, &mut counts) {
                    Ok(()) => {}
                    Err(UdpError::Io(ref e)) if is_timeout(e) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            // Restore blocking mode even when the drain failed.
            self.socket.set_nonblocking(false)?;
            drained.map(|()| counts)
        })
    }

    /// Sets the socket's read timeout to `wait` rounded up to whole
    /// milliseconds (at least 1: the OS rejects a zero timeout), with
    /// no syscall when that is the value already set. The rounding
    /// keeps a wait from returning early and lets back-to-back waits
    /// of about the same length share one setting.
    fn set_read_timeout(&self, wait: Duration) -> Result<(), UdpError> {
        let ms = (wait.as_nanos().div_ceil(1_000_000) as u64).max(1);
        if self.read_timeout_ms.load(Ordering::Relaxed) != ms {
            self.socket.set_read_timeout(Some(Duration::from_millis(ms)))?;
            self.read_timeout_ms.store(ms, Ordering::Relaxed);
        }
        Ok(())
    }

    /// One receive syscall. A well-formed datagram's envelopes go to
    /// `out`, at most `room` of them, the rest to the pending queue;
    /// the sender's address becomes the route of every envelope's
    /// `from`, so replies work without pre-provisioned routes. A bad
    /// datagram only counts as stray.
    fn read_datagram(
        &self,
        buf: &mut [u8],
        room: usize,
        out: &mut Vec<Envelope<M>>,
        counts: &mut RecvBatch,
    ) -> Result<(), UdpError> {
        let (n, peer) = self.socket.recv_from(buf)?;
        let start = out.len();
        if !decode_datagram(&buf[..n], out) {
            counts.stray += 1;
            return Ok(());
        }
        counts.datagrams += 1;
        {
            let mut routes = self.routes.write();
            for env in &out[start..] {
                routes.entry(env.from).or_insert(peer);
            }
        }
        let keep = out.len().min(start + room);
        if keep < out.len() {
            self.pending.lock().extend(out.drain(keep..));
        }
        counts.received += keep - start;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClientId;

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

    fn env(from: u32, to: u32, n: u64, text: &str) -> Envelope<TestMsg> {
        Envelope::new(ServerId(from).into(), ServerId(to).into(), TestMsg(n, text.into()))
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// Flushes `outbox` into a list of `(destination, datagram)`.
    fn flushed(outbox: &mut Outbox) -> Vec<(SocketAddr, Vec<u8>)> {
        let mut sent = Vec::new();
        let lost = outbox.flush(|dst, bytes| {
            sent.push((dst, bytes.to_vec()));
            true
        });
        assert_eq!(lost, 0);
        assert!(outbox.is_empty());
        sent
    }

    /// Pushes `env` to `dst`, collecting any datagram sent early.
    fn push(outbox: &mut Outbox, dst: SocketAddr, e: Envelope<TestMsg>, early: &mut Vec<Vec<u8>>) {
        outbox
            .push(dst, e, |_, bytes| {
                early.push(bytes.to_vec());
                true
            })
            .unwrap();
    }

    fn decoded(raw: &[u8]) -> Vec<Envelope<TestMsg>> {
        let mut out = Vec::new();
        assert!(decode_datagram(raw, &mut out), "a well-formed datagram decodes");
        out
    }

    #[test]
    fn two_endpoints_exchange_messages() {
        let a = bind(0);
        let b = bind(1);
        a.add_route(ServerId(1).into(), b.local_addr().unwrap());
        b.add_route(ServerId(0).into(), a.local_addr().unwrap());

        a.send(env(0, 1, 7, "ping")).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.msg, TestMsg(7, "ping".into()));
        assert_eq!(got.from, Endpoint::Server(ServerId(0)));

        // Reply works because the route was learned on receive.
        b.send(env(1, 0, 8, "pong")).unwrap();
        let back = a.recv().unwrap();
        assert_eq!(back.msg.1, "pong");
    }

    #[test]
    fn unknown_route_is_an_error() {
        let a = bind(0);
        let err = a.send(env(0, 9, 0, "")).unwrap_err();
        assert!(matches!(err, UdpError::UnknownRoute(_)));
        let mut outbox = Outbox::new();
        let err = a.enqueue(&mut outbox, env(0, 9, 0, "")).unwrap_err();
        assert!(matches!(err, UdpError::UnknownRoute(_)));
        assert!(outbox.is_empty(), "nothing queued for an unknown route");
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
        b.send(env(1, 0, 1, "ok")).unwrap();
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
    fn recv_timeout_never_returns_before_the_requested_wait() {
        let a = bind(0);
        let waits_us = [300, 1_000, 1_500, 2_200, 1_400, 7_000, 999];
        for wait in waits_us.map(Duration::from_micros) {
            let t0 = Instant::now();
            assert!(a.recv_timeout(wait).unwrap().is_none());
            assert!(t0.elapsed() >= wait, "{:?} returned after {:?}", wait, t0.elapsed());
        }
        // Clones share the cached setting along with the socket.
        let b = a.clone();
        let t0 = Instant::now();
        assert!(b.recv_timeout(Duration::from_micros(2_500)).unwrap().is_none());
        assert!(t0.elapsed() >= Duration::from_micros(2_500));
        assert_eq!(a.read_timeout_ms.load(Ordering::Relaxed), 3);
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
            b.send(env(1, 0, 2, "late")).unwrap();
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
        // The outbox refuses the frame before it touches a buffer.
        let mut outbox = Outbox::new();
        let big = Envelope::new(ServerId(0).into(), ServerId(1).into(), msg);
        let err = outbox.push(addr(1), big, |_, _| panic!("nothing to send")).unwrap_err();
        assert!(matches!(err, UdpError::TooLarge(n) if n > MAX_DATAGRAM));
        assert!(outbox.is_empty());
    }

    /// The full robustness sweep through a real socket: garbage (bad
    /// magic), a truncated envelope (valid magic, body cut mid-frame),
    /// a packed datagram whose second frame is corrupt, and valid
    /// traffic interleaved. The receive loop must drop each malformed
    /// datagram whole — counting it as one stray — and deliver every
    /// valid frame without panicking.
    #[test]
    fn recv_batch_survives_garbage_and_truncated_frames() {
        let a = bind(0);
        let dst = a.local_addr().unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();

        // 1: bad magic.
        raw.send_to(b"\xDE\xADgarbage-not-a-frame", dst).unwrap();
        // 2: valid magic, envelope truncated mid-message.
        let mut frame = EnvelopeFrame(env(1, 0, 3, "truncate-me-please")).to_bytes();
        frame.truncate(frame.len() - 7);
        raw.send_to(&frame, dst).unwrap();
        // 3: two good frames then a bad one, packed.
        let mut packed = EnvelopeFrame(env(1, 0, 4, "good")).to_bytes();
        EnvelopeFrame(env(1, 0, 5, "good")).encode(&mut packed);
        packed.extend_from_slice(&0xDEADu16.to_le_bytes());
        raw.send_to(&packed, dst).unwrap();
        // 4+5: valid traffic.
        let b = bind(1);
        b.add_route(ServerId(0).into(), dst);
        for i in 0..2 {
            b.send(env(1, 0, i, &format!("ok{i}"))).unwrap();
        }

        let mut out = Vec::new();
        let mut total = RecvBatch::default();
        // Drain until both valid frames arrive (delivery order of
        // separate datagrams is not guaranteed to land in one batch).
        while total.received < 2 {
            let c = a.recv_batch(Duration::from_secs(5), 64, &mut out).unwrap();
            assert!(c.received > 0 || c.stray > 0, "batch wait expired");
            total.received += c.received;
            total.datagrams += c.datagrams;
            total.stray += c.stray;
        }
        assert_eq!(total.stray, 3, "garbage, truncated and the bad pack each dropped as one stray");
        assert_eq!(total.datagrams, 2);
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
            b.send(env(1, 0, i, "burst")).unwrap();
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

    /// A packed datagram larger than the receive call: `max` is exact,
    /// and the rest waits in a queue every clone drains first, in
    /// order, without touching the socket.
    #[test]
    fn pending_envelopes_are_shared_by_clones_and_come_first() {
        let a = bind(0);
        let b = bind(1);
        b.add_route(ServerId(0).into(), a.local_addr().unwrap());
        let mut outbox = Outbox::new();
        for i in 0..5 {
            b.enqueue(&mut outbox, env(1, 0, i, "packed")).unwrap();
        }
        assert_eq!(b.flush(&mut outbox), 0);

        let mut out = Vec::new();
        let c = a.recv_batch(Duration::from_secs(5), 2, &mut out).unwrap();
        assert_eq!((c.received, c.datagrams), (2, 1));
        let clone = a.clone();
        let third = clone.recv_timeout(Duration::ZERO).unwrap().expect("pending, no wait");
        let c = clone.recv_batch(Duration::ZERO, 8, &mut out).unwrap();
        assert_eq!((c.received, c.datagrams), (2, 0), "handed out without a syscall");
        assert_eq!(third.msg.0, 2);
        assert_eq!(out.iter().map(|e| e.msg.0).collect::<Vec<_>>(), [0, 1, 3, 4]);
        assert!(a.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
    }

    /// An oversized payload is rejected at the send socket (TooLarge).
    #[test]
    fn oversized_payload_rejected_at_socket_send() {
        let a = bind(0);
        let b = bind(1);
        b.add_route(ServerId(0).into(), a.local_addr().unwrap());
        let big = env(1, 0, 0, &"x".repeat(MAX_DATAGRAM + 1));
        assert!(matches!(b.send(big).unwrap_err(), UdpError::TooLarge(_)));
    }

    #[test]
    fn frame_decode_rejects_bad_magic_and_trailing() {
        let mut out: Vec<Envelope<TestMsg>> = Vec::new();
        assert!(!decode_datagram(&0xDEADu16.to_le_bytes(), &mut out));
        assert!(!decode_datagram(&[], &mut out), "an empty datagram carries no frame");

        let mut good = EnvelopeFrame(env(0, 1, 1, "a")).to_bytes();
        assert!(decode_datagram(&good, &mut out));
        good.push(0xFF); // trailing byte
        assert!(!decode_datagram(&good, &mut out));
        assert_eq!(out.len(), 1, "the failed decode appended nothing");
    }

    /// A one-envelope datagram is exactly the frame the transport sent
    /// before datagrams could carry several: these bytes were captured
    /// from `UdpEndpoint::send` at that version.
    #[test]
    fn one_envelope_datagram_bytes_are_frozen() {
        const FROZEN: &str =
            "534c00010000000000000001090000000000000007000000000000000400000070696e67";
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let ping = Envelope::new(ServerId(1).into(), ClientId(9).into(), TestMsg(7, "ping".into()));
        assert_eq!(hex(&EnvelopeFrame(ping.clone()).to_bytes()), FROZEN);

        let mut outbox = Outbox::new();
        outbox.push(addr(9), ping.clone(), |_, _| unreachable!("no early send")).unwrap();
        let sent = flushed(&mut outbox);
        assert_eq!(sent.len(), 1);
        assert_eq!(hex(&sent[0].1), FROZEN);
        assert_eq!(decoded(&sent[0].1), [ping]);
    }

    /// 1, 2 and 200 frames to one destination, interleaved with a
    /// second destination: one datagram each per flush, and each
    /// decodes to its own envelopes in the order they were pushed.
    #[test]
    fn packed_datagrams_round_trip_in_fifo_order_per_destination() {
        let mut outbox = Outbox::new();
        let mut early = Vec::new();
        for n in [1u64, 2, 200] {
            let (mut to_a, mut to_b) = (Vec::new(), Vec::new());
            for i in 0..n {
                let a = env(0, 1, i, "to-a");
                let b = env(0, 2, 1_000 + i, "to-b");
                to_a.push(a.clone());
                to_b.push(b.clone());
                push(&mut outbox, addr(1), a, &mut early);
                push(&mut outbox, addr(2), b, &mut early);
            }
            let sent = flushed(&mut outbox);
            assert_eq!(sent.iter().map(|(d, _)| *d).collect::<Vec<_>>(), [addr(1), addr(2)]);
            assert_eq!(decoded(&sent[0].1), to_a, "{n} frames to a");
            assert_eq!(decoded(&sent[1].1), to_b, "{n} frames to b");
        }
        assert!(early.is_empty(), "nothing came near the cap");
        assert!(flushed(&mut outbox).is_empty(), "a flushed outbox sends nothing");
    }

    /// Frames totalling more than the cap leave as several datagrams,
    /// none above 60 000 bytes, that decode back in push order.
    #[test]
    fn frames_past_the_cap_split_into_capped_datagrams_in_order() {
        let mut outbox = Outbox::new();
        let mut early = Vec::new();
        let filler = "y".repeat(7_000);
        let sent: Vec<Envelope<TestMsg>> = (0..20).map(|i| env(0, 1, i, &filler)).collect();
        for e in &sent {
            push(&mut outbox, addr(1), e.clone(), &mut early);
        }
        let mut datagrams = early;
        datagrams.extend(flushed(&mut outbox).into_iter().map(|(_, d)| d));
        assert!(datagrams.len() >= 3, "{} datagrams", datagrams.len());
        assert!(datagrams.iter().all(|d| d.len() <= MAX_DATAGRAM));
        let back: Vec<Envelope<TestMsg>> = datagrams.iter().flat_map(|d| decoded(d)).collect();
        assert_eq!(back, sent);
    }

    /// A bad second or last frame poisons the whole datagram: nothing
    /// is delivered, and what `out` held before is kept.
    #[test]
    fn a_bad_second_or_last_frame_delivers_nothing() {
        let frames: Vec<Vec<u8>> =
            (0..3).map(|i| EnvelopeFrame(env(0, 1, i, "frame")).to_bytes()).collect();
        let packed = frames.concat();
        let second = frames[0].len();
        let last = second + frames[1].len();
        let mut bad_magic_second = packed.clone();
        bad_magic_second[second] ^= 0xFF;
        let mut bad_magic_last = packed.clone();
        bad_magic_last[last + 1] ^= 0xFF;
        let truncated_second = [&frames[0][..], &frames[1][..frames[1].len() - 3]].concat();
        let truncated_last = packed[..packed.len() - 1].to_vec();
        let mut out = vec![env(9, 9, 99, "kept")];
        for bad in [bad_magic_second, bad_magic_last, truncated_second, truncated_last] {
            assert!(!decode_datagram(&bad, &mut out));
            assert_eq!(out.len(), 1, "all or nothing");
        }
        assert!(decode_datagram(&packed, &mut out));
        assert_eq!(out.len(), 4);
    }

    /// A refused send loses its whole datagram; the flush reports how
    /// many envelopes that was, including a datagram sent early.
    #[test]
    fn failed_sends_count_every_envelope_of_their_datagram() {
        let mut outbox = Outbox::new();
        for i in 0..3 {
            outbox.push(addr(1), env(0, 1, i, "x"), |_, _| false).unwrap();
        }
        outbox.push(addr(2), env(0, 2, 0, "y"), |_, _| false).unwrap();
        assert_eq!(outbox.flush(|dst, _| dst == addr(2)), 3);

        // Six 9 000-byte frames fill a datagram; the seventh sends those
        // six early, and their failure is reported by the next flush.
        let filler = "z".repeat(9_000);
        for i in 0..7 {
            outbox.push(addr(1), env(0, 1, i, &filler), |_, _| false).unwrap();
        }
        assert_eq!(outbox.flush(|_, _| true), 6);
        assert_eq!(outbox.flush(|_, _| false), 0, "an empty outbox loses nothing");
    }
}
