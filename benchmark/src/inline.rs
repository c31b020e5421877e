//! The benchmark-owned inline hierarchy: the deployment's servers driven
//! from one thread through a FIFO of envelopes, with a span around
//! every call into a layer.
//!
//! Same `Hierarchy`, same `ServerOptions`, one `LocationServer::new`
//! per server, `handle`/`tick` called directly — so what a workload's
//! operations cost *inside the node layer* can be timed from outside,
//! one call at a time, without threads, sockets or queues in the way.
//! An envelope that would cross a socket in the UDP runtime (client ↔
//! server, or servers on different shards) is encoded and decoded on
//! the way, under spans of their own.

// lint:allow-file(wallclock) traced replay: span start/end are wall-clock readings by definition
use crate::alloc;
use crate::catalog::Kind;
use crate::stream::build_hierarchy;
use crate::sut::{
    shard_spec, CacheStats, Client, ClientId, CorrId, Endpoint, Envelope, LocationDescriptor,
    LocationServer, LsError, Message, Micros, NeighborAnswer, ObjectId, Point, RangeAnswer,
    RangeQuery, ServerId, ServerOptions, ShardSpec, Sighting, UpdateOutcome, WireCodec,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// `parent`/`cause` of a span that has none.
pub const NO_SPAN: u32 = u32::MAX;
/// Virtual service time between two operations.
const OP_SPACING_US: Micros = 50;
/// Crossing envelopes kept as real frames for the transport replay.
const FRAME_SAMPLE: usize = 4_096;

/// One recorded interval. `parent` is the span whose interval encloses
/// this one (the operation's root span); `cause` is the `handle` call
/// that emitted the envelope this span processes.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u32,
    pub id: u32,
    pub parent: u32,
    pub cause: u32,
    pub server: u32,
    pub level: u32,
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children (spans naming it as `parent`) cover. Children of one parent
/// never overlap here — the replay is single-threaded.
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let me = spans.iter().find(|s| s.id == id).expect("span id exists");
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(Span::duration_ns)
        .sum();
    me.duration_ns() - covered
}

/// What the operations of one kind cost, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ops: u64,
    /// Time inside `LocationServer::handle`.
    pub handle_ns: u64,
    /// Envelopes delivered (requests, forwards, replies).
    pub msgs: u64,
    /// Envelopes between two different servers.
    pub hops: u64,
    /// Allocator calls made inside `handle`.
    pub allocs: u64,
    /// Envelopes that leave their shard: a datagram in the UDP runtime,
    /// a channel send in the channel runtime.
    pub datagrams: u64,
    /// Encode + decode time of those, both ends.
    pub codec_ns: u64,
    /// The share of `codec_ns` spent by servers (encode when a server
    /// sends, decode when a server receives).
    pub sut_codec_ns: u64,
    /// Socket sends / receives done by servers.
    pub sut_sends: u64,
    pub sut_recvs: u64,
}

impl Cost {
    fn add(&mut self, o: &Cost) {
        self.ops += o.ops;
        self.handle_ns += o.handle_ns;
        self.msgs += o.msgs;
        self.hops += o.hops;
        self.allocs += o.allocs;
        self.datagrams += o.datagrams;
        self.codec_ns += o.codec_ns;
        self.sut_codec_ns += o.sut_codec_ns;
        self.sut_sends += o.sut_sends;
        self.sut_recvs += o.sut_recvs;
    }
}

/// Calls and time per message label, plus where they ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandlerCost {
    pub calls: u64,
    pub ns: u64,
    /// Calls that ran on a leaf server.
    pub leaf_calls: u64,
}

/// The inline hierarchy.
pub struct InlineHierarchy {
    servers: Vec<LocationServer>,
    levels: Vec<u32>,
    leaf_level: u32,
    shards: usize,
    /// Encode/decode envelopes that cross a socket (UDP workloads).
    codec: bool,
    queue: VecDeque<(Envelope<Message>, u32)>,
    client_inbox: Vec<Message>,
    next_corr: u64,
    now_us: Micros,
    epoch: Instant,
    scratch: Vec<u8>,
    next_op: u32,
    /// Span recording; off for the overhead comparison.
    pub record: bool,
    pub spans: Vec<Span>,
    /// Cost of the operation in progress.
    current: Cost,
    /// Everything so far, the operation in progress excluded.
    pub total: Cost,
    pub by_kind: [Cost; 6],
    pub by_label: BTreeMap<&'static str, HandlerCost>,
    /// Message bytes encoded / messages encoded.
    pub encoded_bytes: u64,
    pub encoded_msgs: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    /// The first crossing envelopes, for the transport replay.
    pub frames: Vec<Envelope<Message>>,
}

impl InlineHierarchy {
    /// Builds every server of the benchmark's hierarchy with `opts`.
    pub fn new(opts: ServerOptions, codec: bool) -> InlineHierarchy {
        let h = build_hierarchy();
        let servers: Vec<LocationServer> = h
            .servers()
            .iter()
            .map(|cfg| LocationServer::new(cfg.clone(), opts.clone()).expect("construct server"))
            .collect();
        let levels: Vec<u32> = h.servers().iter().map(|c| c.level).collect();
        InlineHierarchy {
            leaf_level: levels.iter().copied().max().unwrap_or(0),
            shards: shard_spec().resolve(servers.len()),
            servers,
            levels,
            codec,
            queue: VecDeque::new(),
            client_inbox: Vec::new(),
            next_corr: 1 << 50,
            now_us: 1,
            epoch: Instant::now(),
            scratch: Vec::with_capacity(256),
            next_op: 0,
            record: false,
            spans: Vec::new(),
            current: Cost::default(),
            total: Cost::default(),
            by_kind: [Cost::default(); 6],
            by_label: BTreeMap::new(),
            encoded_bytes: 0,
            encoded_msgs: 0,
            encode_ns: 0,
            decode_ns: 0,
            frames: Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn shard_of(&self, ep: Endpoint) -> Option<usize> {
        ep.as_server().map(|s| ShardSpec::shard_of(s, self.shards))
    }

    /// True when the UDP runtime would put this envelope on a socket.
    fn crosses_socket(&self, env: &Envelope<Message>) -> bool {
        match (self.shard_of(env.from), self.shard_of(env.to)) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    }

    fn push_span(&mut self, mut s: Span) -> u32 {
        s.id = self.spans.len() as u32;
        self.spans.push(s);
        s.id
    }

    /// Books `env` as one datagram and, on the UDP workloads, encodes
    /// and decodes it as the wire would, under spans; returns what the
    /// receiver sees.
    fn over_the_wire(
        &mut self,
        env: Envelope<Message>,
        op: u32,
        root: u32,
        cause: u32,
    ) -> Envelope<Message> {
        let (from_server, to_server) = (env.from.as_server(), env.to.as_server());
        self.current.datagrams += 1;
        self.current.sut_sends += from_server.is_some() as u64;
        self.current.sut_recvs += to_server.is_some() as u64;
        if !self.codec {
            return env;
        }
        if self.frames.len() < FRAME_SAMPLE {
            self.frames.push(env.clone());
        }
        let t0 = self.ns();
        env.msg.encode_into(&mut self.scratch);
        let t1 = self.ns();
        let decoded =
            Message::from_bytes(&self.scratch).expect("a message decodes from its own bytes");
        let t2 = self.ns();
        self.encoded_bytes += self.scratch.len() as u64;
        self.encoded_msgs += 1;
        self.encode_ns += t1 - t0;
        self.decode_ns += t2 - t1;
        let c = &mut self.current;
        c.codec_ns += t2 - t0;
        c.sut_codec_ns += if from_server.is_some() { t1 - t0 } else { 0 };
        c.sut_codec_ns += if to_server.is_some() { t2 - t1 } else { 0 };
        if self.record {
            for (label, who, a, b) in [
                ("encode", from_server, t0, t1),
                ("decode", to_server, t1, t2),
            ] {
                self.push_span(Span {
                    op,
                    id: 0,
                    parent: root,
                    cause,
                    server: who.map_or(u32::MAX, |s| s.0),
                    level: who.map_or(u32::MAX, |s| self.levels[s.0 as usize]),
                    label,
                    start_ns: a,
                    end_ns: b,
                });
            }
        }
        Envelope::new(env.from, env.to, decoded)
    }

    /// Delivers `first` and everything it causes; returns the messages
    /// addressed to clients. `label` names the operation's root span.
    pub fn run(&mut self, label: &'static str, first: Envelope<Message>) -> Vec<Message> {
        let op = self.next_op;
        self.next_op += 1;
        self.now_us += OP_SPACING_US;
        let root_start = self.ns();
        let root = if self.record {
            self.push_span(Span {
                op,
                id: 0,
                parent: NO_SPAN,
                cause: NO_SPAN,
                server: u32::MAX,
                level: u32::MAX,
                label,
                start_ns: root_start,
                end_ns: root_start,
            })
        } else {
            NO_SPAN
        };
        self.queue.push_back((first, root));
        self.drain(op, root);
        self.fire_due_timers(op, root);
        if self.record {
            let end = self.ns();
            self.spans[root as usize].end_ns = end;
        }
        std::mem::take(&mut self.client_inbox)
    }

    fn drain(&mut self, op: u32, root: u32) {
        while let Some((env, cause)) = self.queue.pop_front() {
            self.current.msgs += 1;
            let env = if self.crosses_socket(&env) {
                self.over_the_wire(env, op, root, cause)
            } else {
                env
            };
            let Endpoint::Server(to) = env.to else {
                self.client_inbox.push(env.msg);
                continue;
            };
            if matches!(env.from, Endpoint::Server(from) if from != to) {
                self.current.hops += 1;
            }
            let label = env.msg.label();
            let allocs = alloc::count();
            let t0 = self.ns();
            let outs = self.servers[to.0 as usize].handle(self.now_us, env);
            let t1 = self.ns();
            self.current.allocs += alloc::count() - allocs;
            self.current.handle_ns += t1 - t0;
            self.note_handler(label, to, t1 - t0);
            let me = if self.record {
                self.push_span(Span {
                    op,
                    id: 0,
                    parent: root,
                    cause,
                    server: to.0,
                    level: self.levels[to.0 as usize],
                    label,
                    start_ns: t0,
                    end_ns: t1,
                })
            } else {
                NO_SPAN
            };
            self.queue.extend(outs.into_iter().map(|e| (e, me)));
        }
    }

    fn note_handler(&mut self, label: &'static str, at: ServerId, ns: u64) {
        let leaf = self.levels[at.0 as usize] == self.leaf_level;
        let h = self.by_label.entry(label).or_default();
        h.calls += 1;
        h.ns += ns;
        h.leaf_calls += leaf as u64;
    }

    /// Fires every timer that is due, as a shard loop would between
    /// batches (the first path-maintenance tick right after the first
    /// registration; nothing else inside a run).
    fn fire_due_timers(&mut self, op: u32, root: u32) {
        for i in 0..self.servers.len() {
            if self.servers[i]
                .next_timer()
                .is_some_and(|t| t <= self.now_us)
            {
                self.tick(i, op, root);
            }
        }
        self.drain(op, root);
    }

    fn tick(&mut self, i: usize, op: u32, root: u32) {
        let t0 = self.ns();
        let outs = self.servers[i].tick(self.now_us);
        let t1 = self.ns();
        self.note_handler("tick", ServerId(i as u32), t1 - t0);
        let me = if self.record {
            self.push_span(Span {
                op,
                id: 0,
                parent: root,
                cause: root,
                server: i as u32,
                level: self.levels[i],
                label: "tick",
                start_ns: t0,
                end_ns: t1,
            })
        } else {
            NO_SPAN
        };
        self.queue.extend(outs.into_iter().map(|e| (e, me)));
    }

    /// Moves the service clock forward by `us` and fires what came due
    /// (a path-maintenance sweep when `us` is the refresh period).
    pub fn advance(&mut self, us: Micros) {
        let op = self.next_op;
        self.next_op += 1;
        self.now_us += us;
        let was = std::mem::replace(&mut self.record, false);
        self.fire_due_timers(op, NO_SPAN);
        self.record = was;
        self.client_inbox.clear();
        self.total.add(&std::mem::take(&mut self.current));
    }

    /// Books the cost gathered since the last call under `kind` (`None`:
    /// into the total only — set-up, deregistrations).
    pub fn settle(&mut self, kind: Option<Kind>) {
        let mut c = std::mem::take(&mut self.current);
        if let Some(k) = kind {
            c.ops = 1;
            self.by_kind[k as usize].add(&c);
        }
        self.total.add(&c);
    }

    /// Forgets every cost booked so far (after set-up).
    pub fn reset_costs(&mut self) {
        self.current = Cost::default();
        self.total = Cost::default();
        self.by_kind = [Cost::default(); 6];
        self.by_label.clear();
        self.spans.clear();
        self.frames.clear();
        (
            self.encoded_bytes,
            self.encoded_msgs,
            self.encode_ns,
            self.decode_ns,
        ) = (0, 0, 0, 0);
    }

    /// Hit/miss counters of the §6.5 caches summed over all servers.
    pub fn cache_stats(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for s in &self.servers {
            sum.add(&s.cache_stats_detail());
        }
        sum
    }

    /// A client of this hierarchy.
    pub fn client(&mut self, n: u64) -> InlineClient<'_> {
        InlineClient {
            h: self,
            id: ClientId((1 << 54) + n),
        }
    }
}

/// A blocking client of an [`InlineHierarchy`]: each call runs the
/// whole message chain to completion before it returns.
pub struct InlineClient<'h> {
    pub h: &'h mut InlineHierarchy,
    id: ClientId,
}

impl InlineClient<'_> {
    fn corr(&mut self) -> CorrId {
        self.h.next_corr += 1;
        CorrId(self.h.next_corr)
    }

    fn call(&mut self, label: &'static str, to: ServerId, msg: Message) -> Vec<Message> {
        self.h
            .run(label, Envelope::new(self.id.into(), to.into(), msg))
    }
}

impl Client for InlineClient<'_> {
    fn now_us(&self) -> Micros {
        self.h.now_us
    }

    fn register(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Result<(ServerId, f64), LsError> {
        let corr = self.corr();
        let registrant = self.id.into();
        let req = Message::RegisterReq {
            sighting,
            des_acc_m,
            min_acc_m,
            max_speed_mps,
            registrant,
            corr,
        };
        for m in self.call("op:register", entry, req) {
            match m {
                Message::RegisterRes {
                    agent,
                    offered_acc_m,
                    corr: c,
                } if c == corr => {
                    return Ok((agent, offered_acc_m));
                }
                Message::RegisterFailed {
                    server,
                    achievable_m,
                    corr: c,
                } if c == corr => {
                    return Err(LsError::AccuracyUnavailable {
                        server,
                        achievable_m,
                    });
                }
                _ => {}
            }
        }
        Err(LsError::Timeout)
    }

    fn update(&mut self, agent: ServerId, sighting: Sighting) -> Result<UpdateOutcome, LsError> {
        let oid = sighting.oid;
        for m in self.call("op:update", agent, Message::UpdateReq { sighting }) {
            match m {
                Message::UpdateAck {
                    oid: o,
                    offered_acc_m,
                    ..
                } if o == oid => {
                    return Ok(UpdateOutcome::Ack { offered_acc_m });
                }
                Message::AgentChanged {
                    oid: o,
                    new_agent,
                    offered_acc_m,
                } if o == oid => {
                    return Ok(UpdateOutcome::NewAgent {
                        agent: new_agent,
                        offered_acc_m,
                    });
                }
                Message::OutOfServiceArea { oid: o } if o == oid => {
                    return Ok(UpdateOutcome::OutOfServiceArea);
                }
                _ => {}
            }
        }
        Err(LsError::Timeout)
    }

    fn pos_query(&mut self, entry: ServerId, oid: ObjectId) -> Result<LocationDescriptor, LsError> {
        let corr = self.corr();
        for m in self.call("op:pos", entry, Message::PosQueryReq { oid, corr }) {
            if let Message::PosQueryRes { found, corr: c, .. } = m {
                if c == corr {
                    return found.ok_or(LsError::UnknownObject(oid));
                }
            }
        }
        Err(LsError::Timeout)
    }

    fn range_query(&mut self, entry: ServerId, query: RangeQuery) -> Result<RangeAnswer, LsError> {
        let corr = self.corr();
        for m in self.call("op:range", entry, Message::RangeQueryReq { query, corr }) {
            if let Message::RangeQueryRes {
                items,
                complete,
                corr: c,
            } = m
            {
                if c == corr {
                    return Ok(RangeAnswer {
                        objects: items,
                        complete,
                    });
                }
            }
        }
        Err(LsError::Timeout)
    }

    fn neighbor_query(
        &mut self,
        entry: ServerId,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
    ) -> Result<NeighborAnswer, LsError> {
        let corr = self.corr();
        let req = Message::NeighborQueryReq {
            p,
            req_acc_m,
            near_qual_m,
            corr,
        };
        for m in self.call("op:nn", entry, req) {
            if let Message::NeighborQueryRes {
                nearest,
                near_set,
                complete,
                corr: c,
            } = m
            {
                if c == corr {
                    return Ok(NeighborAnswer {
                        nearest,
                        near_set,
                        complete,
                    });
                }
            }
        }
        Err(LsError::Timeout)
    }

    fn deregister(&mut self, agent: ServerId, oid: ObjectId) {
        self.call("op:deregister", agent, Message::DeregisterReq { oid });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Workload, GENERATORS};
    use crate::exec::GenState;
    use crate::oracle;
    use crate::stream::{Stream, World};
    use crate::sut::{server_options, Sut};

    /// Runs the first `n` operations of generator 0's stream and returns
    /// what each was judged.
    fn judged<C: Client>(c: &mut C, st: &mut GenState, n: usize) -> Vec<Option<(Kind, bool)>> {
        assert_eq!(st.register_residents(c), 0);
        (0..n).map(|i| st.exec(c, i)).collect()
    }

    /// The inline hierarchy and the UDP runtime give the same (and
    /// correct) answers on a 200-operation stream: every query answer of
    /// `query_mix` is held to the brute-force hash, every update of
    /// `update_storm` to its exact acknowledgement, on both.
    #[test]
    fn inline_answers_equal_udp_answers() {
        for w in [Workload::QueryMix, Workload::UpdateStorm] {
            let world = World::new(21, w.population(true));
            // One generator owns every object here, so all are registered.
            let mut stream = Stream::generate(&world, w, 21, 0, true);
            stream.objects = (0..world.homes.len() as u32).collect();
            stream.ops.retain(|op| match op {
                crate::stream::Op::Pos { obj, .. } | crate::stream::Op::Move { obj, .. } => {
                    (*obj as usize) < world.homes.len() / GENERATORS
                }
                _ => true,
            });
            stream.ops.truncate(200);
            let expected = oracle::expected_hashes(&world.homes, &stream, usize::MAX);

            let mut inline = InlineHierarchy::new(server_options(false, None), true);
            inline.record = true;
            let mut st = GenState::new(&world, w, &stream, &expected, 0);
            let a = judged(&mut inline.client(0), &mut st, 200);

            let sut = Sut::udp(build_hierarchy(), server_options(false, None));
            let Sut::Udp(d) = &sut else { unreachable!() };
            let mut st = GenState::new(&world, w, &stream, &expected, 0);
            let b = judged(&mut d.client().unwrap(), &mut st, 200);
            sut.shutdown();

            assert_eq!(a, b, "{}", w.name());
            assert!(
                a.iter().all(|r| matches!(r, Some((_, true)))),
                "{}: {a:?}",
                w.name()
            );
        }
    }

    /// Every non-root span names a recorded parent whose interval holds
    /// it, a cause that started no later, and self time adds up.
    #[test]
    fn span_tree_is_well_formed() {
        let w = Workload::QueryMix;
        let world = World::new(5, w.population(true));
        let mut stream = Stream::generate(&world, w, 5, 0, true);
        stream.objects = (0..world.homes.len() as u32).collect();
        stream.ops.truncate(300);
        let expected = oracle::expected_hashes(&world.homes, &stream, usize::MAX);
        let mut inline = InlineHierarchy::new(server_options(false, None), true);
        let mut st = GenState::new(&world, w, &stream, &expected, 0);
        assert_eq!(st.register_residents(&mut inline.client(0)), 0);
        inline.reset_costs();
        inline.record = true;
        for i in 0..300 {
            let r = st.exec(&mut inline.client(0), i);
            inline.settle(r.map(|(k, _)| k));
        }
        let spans = &inline.spans;
        assert!(spans.len() > 300 * 3);
        for s in spans {
            assert_eq!(spans[s.id as usize].id, s.id);
            assert!(s.start_ns <= s.end_ns);
            if s.parent == NO_SPAN {
                assert!(s.label.starts_with("op:"));
                continue;
            }
            let p = spans[s.parent as usize];
            assert_eq!(p.op, s.op);
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} outside {p:?}"
            );
            let c = spans[s.cause as usize];
            assert!(c.start_ns <= s.start_ns);
        }
        // Self time: a root's duration minus its children; children are
        // disjoint, so it is never negative and the parts add up.
        let root = spans.iter().find(|s| s.parent == NO_SPAN).unwrap();
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == root.id)
            .map(Span::duration_ns)
            .sum();
        assert_eq!(self_time_ns(spans, root.id) + children, root.duration_ns());
        let handled: u64 = spans
            .iter()
            .filter(|s| s.parent != NO_SPAN && !["encode", "decode", "tick"].contains(&s.label))
            .map(Span::duration_ns)
            .sum();
        assert_eq!(handled, inline.total.handle_ns);
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        let span = |id, parent, start_ns, end_ns| Span {
            op: 0,
            id,
            parent,
            cause: NO_SPAN,
            server: 0,
            level: 0,
            label: "x",
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(0, NO_SPAN, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 40, 90),
            span(3, 2, 50, 60),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_time_ns(&spans, 2), 50 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }
}
