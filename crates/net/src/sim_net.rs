//! Deterministic virtual-time network simulator.

use crate::{Endpoint, Envelope};
use hiloc_util::rng::StdRng;
use hiloc_util::rng::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-link latency model, all values in virtual microseconds.
///
/// The defaults approximate the paper's testbed: five machines on a
/// switched 100 Mbit Ethernet, where a small UDP datagram takes a few
/// hundred microseconds end to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed one-way latency between distinct endpoints.
    pub base_us: u64,
    /// Uniform jitter added on top: `U[0, jitter_us]`.
    pub jitter_us: u64,
    /// Latency for an endpoint sending to itself (loopback processing).
    pub local_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // ~250 µs one-way LAN latency, ±50 µs jitter, 20 µs loopback.
        LatencyModel { base_us: 250, jitter_us: 50, local_us: 20 }
    }
}

impl LatencyModel {
    /// A zero-latency model (messages arrive in send order at the same
    /// virtual instant) — useful for pure protocol-logic tests.
    pub fn instant() -> Self {
        LatencyModel { base_us: 0, jitter_us: 0, local_us: 0 }
    }
}

/// Validates a probability on fault-plan construction: silently feeding
/// NaN or an out-of-range value into the RNG draw would misbehave (NaN
/// compares false, so `random_bool(NaN)` never fires) — reject it here.
fn checked_prob(p: f64, what: &str) -> f64 {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "{what} must be a finite probability in [0, 1], got {p}"
    );
    p
}

/// Validates a virtual-time fault window.
fn checked_window(start_us: u64, end_us: u64, what: &str) -> (u64, u64) {
    assert!(start_us <= end_us, "{what} window must have start <= end, got [{start_us}, {end_us})");
    (start_us, end_us)
}

/// A per-link fault override: matches messages by sender and/or
/// receiver (a `None` side matches any endpoint) and layers extra
/// drop/duplication probability and latency on top of the global plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkFault {
    from: Option<Endpoint>,
    to: Option<Endpoint>,
    drop_prob: f64,
    duplicate_prob: f64,
    extra_latency_us: u64,
}

impl LinkFault {
    /// A fault on the directed link `from → to`.
    pub fn between(from: Endpoint, to: Endpoint) -> Self {
        LinkFault { from: Some(from), to: Some(to), ..Default::default() }
    }

    /// A fault on every message sent by `from`.
    pub fn from_endpoint(from: Endpoint) -> Self {
        LinkFault { from: Some(from), ..Default::default() }
    }

    /// A fault on every message addressed to `to`.
    pub fn to_endpoint(to: Endpoint) -> Self {
        LinkFault { to: Some(to), ..Default::default() }
    }

    /// Sets the link's drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN, infinite or outside `[0, 1]`.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = checked_prob(p, "link drop_prob");
        self
    }

    /// Sets the link's duplication probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN, infinite or outside `[0, 1]`.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_prob = checked_prob(p, "link duplicate_prob");
        self
    }

    /// Adds fixed extra one-way latency on the link.
    #[must_use]
    pub fn with_extra_latency(mut self, us: u64) -> Self {
        self.extra_latency_us = us;
        self
    }

    /// The matched `(sender, receiver)`; a `None` side matches any endpoint.
    pub fn ends(&self) -> (Option<Endpoint>, Option<Endpoint>) {
        (self.from, self.to)
    }

    /// The link's `(drop_prob, duplicate_prob, extra_latency_us)`.
    pub fn effects(&self) -> (f64, f64, u64) {
        (self.drop_prob, self.duplicate_prob, self.extra_latency_us)
    }

    /// Whether this fault applies to a `from → to` message.
    pub fn matches(&self, from: Endpoint, to: Endpoint) -> bool {
        self.from.map(|f| f == from).unwrap_or(true) && self.to.map(|t| t == to).unwrap_or(true)
    }
}

/// A timed network partition between two endpoint sets: while active,
/// every message crossing between the sets (either direction) is
/// dropped. Endpoints in neither set are unaffected.
///
/// The cut is evaluated at *send* time; a message sent just before the
/// window opens still arrives (it was already on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    start_us: u64,
    end_us: u64,
    a: Vec<Endpoint>,
    /// `None` means "everyone not in `a`" (the set is isolated).
    b: Option<Vec<Endpoint>>,
}

impl Partition {
    /// A partition separating set `a` from set `b` during
    /// `[start_us, end_us)`.
    ///
    /// # Panics
    ///
    /// Panics when the window is inverted or either set is empty.
    pub fn between(start_us: u64, end_us: u64, a: Vec<Endpoint>, b: Vec<Endpoint>) -> Self {
        let (start_us, end_us) = checked_window(start_us, end_us, "partition");
        assert!(!a.is_empty() && !b.is_empty(), "partition sets must be non-empty");
        Partition { start_us, end_us, a, b: Some(b) }
    }

    /// A partition isolating set `a` from everyone else during
    /// `[start_us, end_us)`.
    ///
    /// # Panics
    ///
    /// Panics when the window is inverted or the set is empty.
    pub fn isolate(start_us: u64, end_us: u64, a: Vec<Endpoint>) -> Self {
        let (start_us, end_us) = checked_window(start_us, end_us, "partition");
        assert!(!a.is_empty(), "partition set must be non-empty");
        Partition { start_us, end_us, a, b: None }
    }

    /// Whether the partition is active at virtual time `now`.
    pub fn active_at(&self, now_us: u64) -> bool {
        self.start_us <= now_us && now_us < self.end_us
    }

    /// Whether a `from → to` message sent at `now` crosses the cut.
    pub fn severs(&self, now_us: u64, from: Endpoint, to: Endpoint) -> bool {
        if !self.active_at(now_us) {
            return false;
        }
        let in_a = |e: Endpoint| self.a.contains(&e);
        let in_b = |e: Endpoint| match &self.b {
            Some(b) => b.contains(&e),
            None => !self.a.contains(&e),
        };
        (in_a(from) && in_b(to)) || (in_b(from) && in_a(to))
    }

    /// The partition window `[start_us, end_us)`.
    pub fn window(&self) -> (u64, u64) {
        (self.start_us, self.end_us)
    }

    /// The isolated set, when the partition cuts it from everyone else
    /// ([`Partition::isolate`]); `None` for [`Partition::between`].
    pub fn isolated(&self) -> Option<&[Endpoint]> {
        self.b.is_none().then_some(self.a.as_slice())
    }
}

/// A timed global latency spike: every message sent during
/// `[start_us, end_us)` takes `extra_us` additional one-way latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpike {
    start_us: u64,
    end_us: u64,
    extra_us: u64,
}

impl LatencySpike {
    /// A spike of `extra_us` during `[start_us, end_us)`.
    ///
    /// # Panics
    ///
    /// Panics when the window is inverted.
    pub fn new(start_us: u64, end_us: u64, extra_us: u64) -> Self {
        let (start_us, end_us) = checked_window(start_us, end_us, "latency spike");
        LatencySpike { start_us, end_us, extra_us }
    }

    /// The spike window `[start_us, end_us)`.
    pub fn window(&self) -> (u64, u64) {
        (self.start_us, self.end_us)
    }

    /// The extra one-way latency while the window is open.
    pub fn extra_us(&self) -> u64 {
        self.extra_us
    }

    /// The extra latency this spike contributes at `now`.
    pub fn extra_at(&self, now_us: u64) -> u64 {
        if self.start_us <= now_us && now_us < self.end_us {
            self.extra_us
        } else {
            0
        }
    }
}

/// A schedulable fault model: global loss/duplication/reordering plus
/// per-link overrides, timed latency spikes and timed network
/// partitions between endpoint sets.
///
/// All probabilities are validated on construction (NaN or values
/// outside `[0, 1]` are rejected with a panic rather than silently
/// misbehaving inside the RNG draw). The plan is immutable once handed
/// to a [`SimNet`]; drivers swap a new plan in with
/// [`SimNet::set_faults`] (e.g. to heal a network mid-run).
///
/// # Example
///
/// ```
/// use hiloc_net::{Endpoint, FaultPlan, LinkFault, Partition, ServerId};
///
/// let plan = FaultPlan::none()
///     .with_drop(0.05)
///     .with_reorder(0.2, 10_000)
///     .with_link(LinkFault::to_endpoint(ServerId(3).into()).with_drop(0.5))
///     .with_partition(Partition::isolate(
///         1_000_000,
///         5_000_000,
///         vec![ServerId(1).into(), ServerId(2).into()],
///     ));
/// assert!(plan.severs(2_000_000, ServerId(1).into(), ServerId(0).into()));
/// assert!(!plan.severs(6_000_000, ServerId(1).into(), ServerId(0).into()));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    drop_prob: f64,
    duplicate_prob: f64,
    reorder_prob: f64,
    reorder_spread_us: u64,
    links: Vec<LinkFault>,
    partitions: Vec<Partition>,
    spikes: Vec<LatencySpike>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Uniform global loss and duplication (the classic lossy-UDP
    /// model).
    ///
    /// # Panics
    ///
    /// Panics when either probability is NaN, infinite or outside
    /// `[0, 1]`.
    pub fn uniform(drop_prob: f64, duplicate_prob: f64) -> Self {
        FaultPlan::none().with_drop(drop_prob).with_duplicate(duplicate_prob)
    }

    /// Sets the global drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN, infinite or outside `[0, 1]`.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = checked_prob(p, "drop_prob");
        self
    }

    /// Sets the global duplication probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN, infinite or outside `[0, 1]`.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_prob = checked_prob(p, "duplicate_prob");
        self
    }

    /// Enables message reordering: with probability `p`, a message gets
    /// extra latency drawn uniformly from `[0, spread_us]`, letting
    /// later sends overtake it.
    ///
    /// # Panics
    ///
    /// Panics when `p` is NaN, infinite or outside `[0, 1]`.
    #[must_use]
    pub fn with_reorder(mut self, p: f64, spread_us: u64) -> Self {
        self.reorder_prob = checked_prob(p, "reorder_prob");
        self.reorder_spread_us = spread_us;
        self
    }

    /// Adds a per-link fault override.
    #[must_use]
    pub fn with_link(mut self, link: LinkFault) -> Self {
        self.links.push(link);
        self
    }

    /// Adds a timed partition.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Adds a timed latency spike.
    #[must_use]
    pub fn with_spike(mut self, spike: LatencySpike) -> Self {
        self.spikes.push(spike);
        self
    }

    /// The global drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// The global duplication probability.
    pub fn duplicate_prob(&self) -> f64 {
        self.duplicate_prob
    }

    /// The reordering `(probability, spread_us)`.
    pub fn reorder(&self) -> (f64, u64) {
        (self.reorder_prob, self.reorder_spread_us)
    }

    /// The per-link overrides.
    pub fn links(&self) -> &[LinkFault] {
        &self.links
    }

    /// The configured partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The configured latency spikes.
    pub fn spikes(&self) -> &[LatencySpike] {
        &self.spikes
    }

    /// Whether any partition severs a `from → to` message sent at `now`.
    pub fn severs(&self, now_us: u64, from: Endpoint, to: Endpoint) -> bool {
        self.partitions.iter().any(|p| p.severs(now_us, from, to))
    }

    /// Effective `(drop_prob, duplicate_prob, extra_latency_us)` for a
    /// `from → to` message: the maximum probability among the global
    /// plan and matching link overrides, and the sum of link latencies.
    fn link_effects(&self, from: Endpoint, to: Endpoint) -> (f64, f64, u64) {
        let mut drop = self.drop_prob;
        let mut dup = self.duplicate_prob;
        let mut extra = 0u64;
        for l in &self.links {
            if l.matches(from, to) {
                drop = drop.max(l.drop_prob);
                dup = dup.max(l.duplicate_prob);
                extra = extra.saturating_add(l.extra_latency_us);
            }
        }
        (drop, dup, extra)
    }

    /// Total spike latency active at `now`.
    fn spike_extra_at(&self, now_us: u64) -> u64 {
        self.spikes.iter().map(|s| s.extra_at(now_us)).sum()
    }
}

/// A record of one message delivery, for flow tests and diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Virtual time at which the message was sent.
    pub sent_us: u64,
    /// Virtual time at which it was (or will be) delivered.
    pub deliver_us: u64,
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// Short label describing the message (payload-provided).
    pub label: &'static str,
}

/// A deterministic, virtual-time message network.
///
/// All sends go through a priority queue ordered by delivery time (ties
/// broken by send sequence, so FIFO per simultaneous batch). The driver
/// pops messages with [`SimNet::next`], advancing the virtual clock.
/// With a fixed seed, runs are bit-for-bit reproducible — the property
/// the hiloc experiment harness relies on.
///
/// # Example
///
/// ```
/// use hiloc_net::{Endpoint, Envelope, LatencyModel, FaultPlan, ServerId, SimNet};
///
/// let mut net: SimNet<&'static str> = SimNet::new(LatencyModel::default(), FaultPlan::none(), 42);
/// net.send(Envelope::new(ServerId(0).into(), ServerId(1).into(), "hello"));
/// let (t, env) = net.next().unwrap();
/// assert!(t >= 250);
/// assert_eq!(env.msg, "hello");
/// ```
#[derive(Debug)]
pub struct SimNet<M> {
    now_us: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<(u64, u64, QueuedEnvelope<M>)>>,
    latency: LatencyModel,
    faults: FaultPlan,
    rng: StdRng,
    trace: Option<Vec<TraceEntry>>,
    labeler: Option<fn(&M) -> &'static str>,
    sent: u64,
    delivered: u64,
    dropped: u64,
}

/// Wrapper so the heap never compares message payloads.
#[derive(Debug, Clone)]
struct QueuedEnvelope<M>(Envelope<M>);

impl<M> PartialEq for QueuedEnvelope<M> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<M> Eq for QueuedEnvelope<M> {}
impl<M> PartialOrd for QueuedEnvelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEnvelope<M> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<M> SimNet<M> {
    /// Creates a network with the given latency model, fault plan and
    /// RNG seed.
    pub fn new(latency: LatencyModel, faults: FaultPlan, seed: u64) -> Self {
        SimNet {
            now_us: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            latency,
            faults,
            rng: StdRng::seed_from_u64(seed),
            trace: None,
            labeler: None,
            sent: 0,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Enables message tracing; `labeler` renders a payload into a
    /// short static label (e.g. the message kind).
    pub fn enable_trace(&mut self, labeler: fn(&M) -> &'static str) {
        self.trace = Some(Vec::new());
        self.labeler = Some(labeler);
    }

    /// The trace collected so far (empty when tracing is disabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Clears the collected trace (tracing stays enabled).
    pub fn clear_trace(&mut self) {
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Counters: `(sent, delivered, dropped)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.sent, self.delivered, self.dropped)
    }

    /// Sends an envelope, scheduling its delivery per the latency model
    /// and fault plan.
    // lint:hot_path
    pub fn send(&mut self, env: Envelope<M>)
    where
        M: Clone,
    {
        self.sent += 1;
        if self.faults.severs(self.now_us, env.from, env.to) {
            self.dropped += 1;
            return;
        }
        let (drop_prob, duplicate_prob, link_extra_us) =
            self.faults.link_effects(env.from, env.to);
        if drop_prob > 0.0 && self.rng.random_bool(drop_prob) {
            self.dropped += 1;
            return;
        }
        let copies = if duplicate_prob > 0.0 && self.rng.random_bool(duplicate_prob) {
            2
        } else {
            1
        };
        let spike_us = self.faults.spike_extra_at(self.now_us);
        // The envelope is *moved* into its queue slot; only fault
        // duplication pays a clone. The common path is clone-free per
        // hop.
        if copies == 2 {
            self.enqueue(env.clone(), link_extra_us, spike_us); // lint:allow(hot_path) fault-duplication path only; common path moves the envelope
        }
        self.enqueue(env, link_extra_us, spike_us);
    }

    /// Schedules one copy of an envelope, consuming it.
    fn enqueue(&mut self, env: Envelope<M>, link_extra_us: u64, spike_us: u64) {
        let mut latency = self
            .sample_latency(env.from, env.to)
            .saturating_add(link_extra_us)
            .saturating_add(spike_us);
        if self.faults.reorder_prob > 0.0
            && self.faults.reorder_spread_us > 0
            && self.rng.random_bool(self.faults.reorder_prob)
        {
            latency =
                latency.saturating_add(self.rng.random_range(0..=self.faults.reorder_spread_us));
        }
        let deliver = self.now_us + latency;
        if let (Some(trace), Some(labeler)) = (&mut self.trace, self.labeler) {
            trace.push(TraceEntry {
                sent_us: self.now_us,
                deliver_us: deliver,
                from: env.from,
                to: env.to,
                label: labeler(&env.msg),
            });
        }
        self.seq += 1;
        self.queue.push(Reverse((deliver, self.seq, QueuedEnvelope(env))));
    }

    /// The delivery time of the earliest in-flight message, when any.
    pub fn peek_time(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Delivers the next message, advancing virtual time to its
    /// delivery instant. Returns `None` when the network is quiet.
    ///
    /// (Not an [`Iterator`]: delivery mutates the virtual clock and the
    /// caller usually interleaves sends between calls.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u64, Envelope<M>)> {
        let Reverse((t, _, QueuedEnvelope(env))) = self.queue.pop()?;
        self.now_us = self.now_us.max(t);
        self.delivered += 1;
        Some((self.now_us, env))
    }

    /// Advances virtual time without delivering anything (e.g. to model
    /// idle periods before a timer fires).
    pub fn advance_to(&mut self, t_us: u64) {
        self.now_us = self.now_us.max(t_us);
    }

    /// Replaces the fault plan mid-run (e.g. healing a partition early,
    /// or injecting new faults from a scenario script). Messages already
    /// in flight are unaffected.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The active fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Removes all in-flight messages matching `pred` (e.g. everything
    /// addressed to a crashed server), counting them as dropped.
    /// Returns how many were discarded.
    pub fn discard_where(&mut self, mut pred: impl FnMut(&Envelope<M>) -> bool) -> usize {
        let before = self.queue.len();
        let kept: Vec<_> = std::mem::take(&mut self.queue)
            .into_vec()
            .into_iter()
            .filter(|Reverse((_, _, q))| !pred(&q.0))
            .collect();
        self.queue = BinaryHeap::from(kept);
        let removed = before - self.queue.len();
        self.dropped += removed as u64;
        removed
    }

    fn sample_latency(&mut self, from: Endpoint, to: Endpoint) -> u64 {
        let base = if from == to { self.latency.local_us } else { self.latency.base_us };
        let jitter = if self.latency.jitter_us > 0 {
            self.rng.random_range(0..=self.latency.jitter_us)
        } else {
            0
        };
        base + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ServerId};

    fn env(from: u32, to: u32, msg: u32) -> Envelope<u32> {
        Envelope::new(ServerId(from).into(), ServerId(to).into(), msg)
    }

    #[test]
    fn delivery_in_time_order() {
        let mut net: SimNet<u32> =
            SimNet::new(LatencyModel { base_us: 100, jitter_us: 0, local_us: 10 }, FaultPlan::none(), 1);
        net.send(env(0, 1, 1)); // arrives t=100
        net.send(Envelope::new(ServerId(2).into(), ServerId(2).into(), 2u32)); // local, t=10
        let (t1, e1) = net.next().unwrap();
        assert_eq!((t1, e1.msg), (10, 2));
        let (t2, e2) = net.next().unwrap();
        assert_eq!((t2, e2.msg), (100, 1));
        assert!(net.next().is_none());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut net: SimNet<u32> = SimNet::new(LatencyModel::instant(), FaultPlan::none(), 1);
        for i in 0..10 {
            net.send(env(0, 1, i));
        }
        for i in 0..10 {
            assert_eq!(net.next().unwrap().1.msg, i);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net: SimNet<u32> = SimNet::new(
                LatencyModel { base_us: 100, jitter_us: 80, local_us: 0 },
                FaultPlan::uniform(0.2, 0.1),
                seed,
            );
            for i in 0..100 {
                net.send(env(0, 1, i));
            }
            let mut got = Vec::new();
            while let Some((t, e)) = net.next() {
                got.push((t, e.msg));
            }
            got
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn drops_honour_probability_roughly() {
        let mut net: SimNet<u32> = SimNet::new(
            LatencyModel::instant(),
            FaultPlan::uniform(0.5, 0.0),
            99,
        );
        for i in 0..1_000 {
            net.send(env(0, 1, i));
        }
        let (sent, _, dropped) = net.counters();
        assert_eq!(sent, 1_000);
        assert!((300..700).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn duplicates_deliver_twice() {
        let mut net: SimNet<u32> = SimNet::new(
            LatencyModel::instant(),
            FaultPlan::uniform(0.0, 1.0),
            5,
        );
        net.send(env(0, 1, 42));
        assert_eq!(net.next().unwrap().1.msg, 42);
        assert_eq!(net.next().unwrap().1.msg, 42);
        assert!(net.next().is_none());
    }

    #[test]
    fn clock_monotonic_and_advance() {
        let mut net: SimNet<u32> = SimNet::new(LatencyModel::default(), FaultPlan::none(), 3);
        net.send(env(0, 1, 1));
        let (t, _) = net.next().unwrap();
        assert!(t >= 250);
        net.advance_to(t + 1_000);
        assert_eq!(net.now_us(), t + 1_000);
        net.advance_to(0);
        assert_eq!(net.now_us(), t + 1_000, "the clock never runs backwards");
    }

    #[test]
    fn partition_drops_crossing_messages_then_heals() {
        let a: Endpoint = ServerId(0).into();
        let b: Endpoint = ServerId(1).into();
        let c: Endpoint = ServerId(2).into();
        let plan = FaultPlan::none().with_partition(Partition::isolate(100, 200, vec![a, b]));
        let mut net: SimNet<u32> = SimNet::new(LatencyModel::instant(), plan, 1);
        // Before the window: crossing traffic flows.
        net.send(env(0, 2, 1));
        assert_eq!(net.next().unwrap().1.msg, 1);
        net.advance_to(150);
        // Inside the window: cut both directions, intra-set unaffected.
        net.send(env(0, 2, 2)); // a -> rest: dropped
        net.send(env(2, 1, 3)); // rest -> b: dropped
        net.send(env(0, 1, 4)); // a -> b (same side): delivered
        assert_eq!(net.next().unwrap().1.msg, 4);
        assert!(net.next().is_none());
        net.advance_to(200);
        // Healed (end is exclusive).
        net.send(env(2, 0, 5));
        assert_eq!(net.next().unwrap().1.msg, 5);
        let (sent, delivered, dropped) = net.counters();
        assert_eq!((sent, delivered, dropped), (5, 3, 2));
        let _ = c;
    }

    #[test]
    fn partition_between_two_sets_leaves_third_parties_alone() {
        let plan = FaultPlan::none().with_partition(Partition::between(
            0,
            1_000,
            vec![ServerId(0).into()],
            vec![ServerId(1).into()],
        ));
        let mut net: SimNet<u32> = SimNet::new(LatencyModel::instant(), plan, 1);
        net.send(env(0, 1, 1)); // severed
        net.send(env(0, 2, 2)); // third party: fine
        net.send(env(2, 1, 3)); // third party: fine
        assert_eq!(net.next().unwrap().1.msg, 2);
        assert_eq!(net.next().unwrap().1.msg, 3);
        assert!(net.next().is_none());
    }

    #[test]
    fn link_fault_overrides_apply_per_link() {
        let plan = FaultPlan::none()
            .with_link(LinkFault::between(ServerId(0).into(), ServerId(1).into()).with_drop(1.0));
        let mut net: SimNet<u32> = SimNet::new(LatencyModel::instant(), plan, 1);
        net.send(env(0, 1, 1)); // dead link
        net.send(env(1, 0, 2)); // reverse direction unaffected
        net.send(env(0, 2, 3)); // other destination unaffected
        assert_eq!(net.next().unwrap().1.msg, 2);
        assert_eq!(net.next().unwrap().1.msg, 3);
        assert!(net.next().is_none());
    }

    #[test]
    fn link_extra_latency_and_spike_delay_delivery() {
        let plan = FaultPlan::none()
            .with_link(LinkFault::to_endpoint(ServerId(1).into()).with_extra_latency(500))
            .with_spike(LatencySpike::new(0, 10_000, 1_000));
        let mut net: SimNet<u32> = SimNet::new(
            LatencyModel { base_us: 100, jitter_us: 0, local_us: 0 },
            plan,
            1,
        );
        net.send(env(0, 1, 1)); // 100 + 500 link + 1000 spike
        net.send(env(0, 2, 2)); // 100 + 1000 spike
        let (t2, e2) = net.next().unwrap();
        assert_eq!((t2, e2.msg), (1_100, 2));
        let (t1, e1) = net.next().unwrap();
        assert_eq!((t1, e1.msg), (1_600, 1));
        // After the spike window the link penalty alone remains.
        net.advance_to(10_000);
        net.send(env(0, 1, 3));
        assert_eq!(net.next().unwrap().0, 10_600);
    }

    #[test]
    fn reordering_overtakes_messages() {
        let plan = FaultPlan::none().with_reorder(0.5, 10_000);
        let mut net: SimNet<u32> = SimNet::new(
            LatencyModel { base_us: 10, jitter_us: 0, local_us: 0 },
            plan,
            3,
        );
        for i in 0..100 {
            net.send(env(0, 1, i));
        }
        let mut got = Vec::new();
        while let Some((_, e)) = net.next() {
            got.push(e.msg);
        }
        assert_eq!(got.len(), 100, "reordering must not lose messages");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(got, sorted, "with p=0.5 over 100 sends some message must be overtaken");
    }

    #[test]
    fn discard_where_drops_in_flight_messages() {
        let mut net: SimNet<u32> = SimNet::new(LatencyModel::instant(), FaultPlan::none(), 1);
        for i in 0..6 {
            net.send(env(0, i % 3, i));
        }
        let removed = net.discard_where(|e| e.to == Endpoint::Server(ServerId(1)));
        assert_eq!(removed, 2);
        assert_eq!(net.in_flight(), 4);
        let mut got = Vec::new();
        while let Some((_, e)) = net.next() {
            got.push(e.msg);
        }
        assert_eq!(got, vec![0, 2, 3, 5], "survivors keep their order");
        assert_eq!(net.counters().2, 2);
    }

    #[test]
    fn set_faults_heals_mid_run() {
        let mut net: SimNet<u32> =
            SimNet::new(LatencyModel::instant(), FaultPlan::uniform(1.0, 0.0), 1);
        net.send(env(0, 1, 1));
        assert!(net.next().is_none());
        net.set_faults(FaultPlan::none());
        net.send(env(0, 1, 2));
        assert_eq!(net.next().unwrap().1.msg, 2);
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn nan_drop_probability_rejected() {
        let _ = FaultPlan::none().with_drop(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::none().with_duplicate(1.5);
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn negative_link_probability_rejected() {
        let _ = LinkFault::from_endpoint(ServerId(0).into()).with_drop(-0.1);
    }

    #[test]
    #[should_panic(expected = "reorder_prob")]
    fn infinite_reorder_probability_rejected() {
        let _ = FaultPlan::none().with_reorder(f64::INFINITY, 10);
    }

    #[test]
    #[should_panic(expected = "start <= end")]
    fn inverted_partition_window_rejected() {
        let _ = Partition::isolate(100, 50, vec![ServerId(0).into()]);
    }

    #[test]
    fn trace_records_flows() {
        let mut net: SimNet<u32> = SimNet::new(LatencyModel::instant(), FaultPlan::none(), 1);
        net.enable_trace(|m| if *m == 1 { "one" } else { "other" });
        net.send(env(0, 1, 1));
        net.send(Envelope::new(ClientId(5).into(), ServerId(0).into(), 9u32));
        assert_eq!(net.trace().len(), 2);
        assert_eq!(net.trace()[0].label, "one");
        assert_eq!(net.trace()[1].from, Endpoint::Client(ClientId(5)));
        net.clear_trace();
        assert!(net.trace().is_empty());
    }
}
