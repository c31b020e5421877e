//! The blocking client API end to end, every test on **both** real
//! transports: in-process channels and UDP sockets on localhost (the
//! paper's transport), driven from multiple OS threads. The lifecycle
//! verbs (crash, restart, checkpoint) keep one contract, checked on the
//! simulator too. The UDP-only tests at the end drive a shard with a
//! raw socket to observe how its replies are packed into datagrams.

use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_core::events::{EventKind, Predicate, Watch};
use hiloc_core::model::{LocationDescriptor, LsError, ObjectId, RangeQuery, Sighting};
use hiloc_core::node::{DurabilityOptions, ServerOptions, ServerStats, StorageSyncPolicy};
use hiloc_core::runtime::{
    Client, ShardedDeployment, SimDeployment, SyncClient, ThreadedDeployment, UdpClient,
    UdpDeployment, UpdateOutcome,
};
use hiloc_core::Message;
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::{ClientId, CorrId, Envelope, Outbox, Port, ServerId, UdpEndpoint};
use hiloc_util::tempdir::TempDir;
use std::path::Path;
use std::time::Duration;

/// The per-transport signatures, so each test body is written once.
trait Transport {
    type Wire: Send + Sync;
    type Port: Port<Message> + Send + 'static;
    fn deploy(h: Hierarchy, opts: ServerOptions) -> ShardedDeployment<Self::Wire>;
    fn client(ls: &ShardedDeployment<Self::Wire>) -> Client<Self::Port>;
    fn shutdown(ls: ShardedDeployment<Self::Wire>) -> Vec<ServerStats>;
}

struct Channels;
struct Udp;

impl Transport for Channels {
    type Wire = hiloc_net::ChannelNetwork<Message>;
    type Port = hiloc_net::ChannelPort<Message>;
    fn deploy(h: Hierarchy, opts: ServerOptions) -> ThreadedDeployment {
        ThreadedDeployment::new(h, opts)
    }
    fn client(ls: &ThreadedDeployment) -> SyncClient {
        ls.client()
    }
    fn shutdown(ls: ThreadedDeployment) -> Vec<ServerStats> {
        ls.shutdown()
    }
}

impl Transport for Udp {
    type Wire = std::collections::BTreeMap<hiloc_net::Endpoint, std::net::SocketAddr>;
    type Port = hiloc_net::UdpEndpoint<Message>;
    fn deploy(h: Hierarchy, opts: ServerOptions) -> UdpDeployment {
        UdpDeployment::bind(h, opts).expect("bind localhost sockets")
    }
    fn client(ls: &UdpDeployment) -> UdpClient {
        ls.client().expect("bind a client socket")
    }
    fn shutdown(ls: UdpDeployment) -> Vec<ServerStats> {
        ls.shutdown_with_stats()
    }
}

/// Instantiates each generic test body once per transport.
macro_rules! on_both_transports {
    ($($test:ident),* $(,)?) => {
        mod channels { $(#[test] fn $test() { super::$test::<super::Channels>() })* }
        mod udp { $(#[test] fn $test() { super::$test::<super::Udp>() })* }
    };
}

on_both_transports!(
    concurrent_clients_register_update_query,
    neighbor_queries_under_concurrent_movement,
    full_lifecycle,
    multiple_clients_interleave,
    update_batch_then_deregister,
    unknown_server_is_no_route_at_once,
    watch_sees_enter_then_leave,
    lifecycle_verbs_keep_one_contract,
    corrupt_snapshot_fails_restart_and_the_rest_serve,
);

/// Root 0 over the four leaves 1..=4 of a 1 km square.
fn hierarchy() -> Hierarchy {
    HierarchyBuilder::grid(Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)), 1, 2)
        .build()
        .unwrap()
}

fn deployment<T: Transport>() -> ShardedDeployment<T::Wire> {
    T::deploy(hierarchy(), Default::default())
}

fn whole_area(max: f64) -> RangeQuery {
    RangeQuery::new(Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(max, max))), 50.0, 0.5)
}

fn concurrent_clients_register_update_query<T: Transport>() {
    let ls = deployment::<T>();
    let threads = 8;
    let per_thread = 25u64;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let ls = &ls;
            scope.spawn(move || {
                let mut client = T::client(ls);
                for i in 0..per_thread {
                    let oid = ObjectId(t * 1_000 + i);
                    let x = 50.0 + (i as f64 * 37.0) % 900.0;
                    let y = 50.0 + (t as f64 * 119.0) % 900.0;
                    let pos = Point::new(x, y);
                    let entry = ls.leaf_for(pos);
                    let (agent, _) = client
                        .register(entry, Sighting::new(oid, client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
                        .expect("registration succeeds");
                    // Move it across the area: may or may not hand over.
                    let new_pos = Point::new(999.0 - x, 999.0 - y);
                    let agent = match client
                        .update(agent, Sighting::new(oid, client.now_us(), new_pos, 5.0))
                        .expect("update succeeds")
                    {
                        UpdateOutcome::NewAgent { agent, .. } => agent,
                        _ => agent,
                    };
                    // Query it back from the (possibly new) agent.
                    let ld = client.pos_query(agent, oid).expect("query succeeds");
                    assert_eq!(ld.pos, new_pos);
                }
            });
        }
    });

    // A final whole-area range query sees every object exactly once.
    let mut client = T::client(&ls);
    let ans = client
        .range_query(ls.leaf_for(Point::new(1.0, 1.0)), whole_area(999.5))
        .expect("range query succeeds");
    assert!(ans.complete);
    assert_eq!(ans.objects.len(), (threads * per_thread) as usize);
    let mut ids: Vec<u64> = ans.objects.iter().map(|(o, _)| o.0).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), (threads * per_thread) as usize, "no duplicates");

    let stats = T::shutdown(ls);
    let total_msgs: u64 = stats.iter().map(|s| s.msgs_in).sum();
    assert!(total_msgs > 0);
}

fn neighbor_queries_under_concurrent_movement<T: Transport>() {
    let ls = deployment::<T>();
    // One mover thread and one querier thread share the service.
    let mover = std::thread::spawn({
        let mut client = T::client(&ls);
        let entry = ls.leaf_for(Point::new(100.0, 100.0));
        move || {
            let (mut agent, _) = client
                .register(
                    entry,
                    Sighting::new(ObjectId(1), client.now_us(), Point::new(100.0, 100.0), 5.0),
                    10.0,
                    50.0,
                    2.0,
                )
                .unwrap();
            for step in 0..40 {
                let x = 100.0 + step as f64 * 20.0;
                if let UpdateOutcome::NewAgent { agent: a, .. } = client
                    .update(agent, Sighting::new(ObjectId(1), client.now_us(), Point::new(x, 100.0), 5.0))
                    .unwrap()
                {
                    agent = a
                }
            }
        }
    });

    let mut querier = T::client(&ls);
    let entry = ls.leaf_for(Point::new(500.0, 500.0));
    let mut found = 0;
    for _ in 0..40 {
        let nn = querier.neighbor_query(entry, Point::new(500.0, 100.0), 50.0, 0.0).unwrap();
        if let Some((oid, ld)) = nn.nearest {
            assert_eq!(oid, ObjectId(1));
            assert!(ld.pos.y == 100.0);
            found += 1;
        }
    }
    mover.join().unwrap();
    assert!(found > 0, "the querier must observe the moving object");
}

fn full_lifecycle<T: Transport>() {
    let ls = deployment::<T>();
    let mut client = T::client(&ls);

    // Register in the SW quadrant.
    let start = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(start);
    let (agent, offered) = client
        .register(entry, Sighting::new(ObjectId(1), 0, start, 10.0), 25.0, 100.0, 3.0)
        .unwrap();
    assert_eq!(agent, entry);
    assert_eq!(offered, 25.0);

    // Update in place.
    let out = client
        .update(agent, Sighting::new(ObjectId(1), 1_000, Point::new(150.0, 150.0), 10.0))
        .unwrap();
    assert!(matches!(out, UpdateOutcome::Ack { .. }));

    // Handover to the NE quadrant.
    let moved = Point::new(900.0, 900.0);
    let out = client
        .update(agent, Sighting::new(ObjectId(1), 2_000, moved, 10.0))
        .unwrap();
    let new_agent = match out {
        UpdateOutcome::NewAgent { agent, .. } => agent,
        other => panic!("expected handover, got {other:?}"),
    };
    assert_eq!(new_agent, ls.leaf_for(moved));

    // Remote position query from the original entry.
    let ld = client.pos_query(entry, ObjectId(1)).unwrap();
    assert_eq!(ld.pos, moved);

    // Range query spanning the whole area.
    let ans = client.range_query(entry, whole_area(999.0)).unwrap();
    assert!(ans.complete);
    assert_eq!(ans.objects.len(), 1);

    // Nearest neighbor.
    let nn = client.neighbor_query(entry, Point::new(800.0, 800.0), 50.0, 0.0).unwrap();
    assert_eq!(nn.nearest.unwrap().0, ObjectId(1));

    // Unknown object.
    let err = client.pos_query(entry, ObjectId(99)).unwrap_err();
    assert!(matches!(err, LsError::UnknownObject(_)));

    T::shutdown(ls);
}

fn multiple_clients_interleave<T: Transport>() {
    let ls = deployment::<T>();

    // Ten objects registered by ten independent clients concurrently,
    // each on its own OS thread.
    let mut threads = Vec::new();
    for i in 0..10u64 {
        let mut client = T::client(&ls);
        let entry = ls.leaf_for(Point::new(50.0 + 90.0 * i as f64, 500.0));
        threads.push(std::thread::spawn(move || {
            let pos = Point::new(50.0 + 90.0 * i as f64, 500.0);
            client
                .register(entry, Sighting::new(ObjectId(i), 0, pos, 10.0), 25.0, 100.0, 1.0)
                .unwrap();
            // Each client immediately queries its own object back.
            client.pos_query(entry, ObjectId(i)).unwrap()
        }));
    }
    for (i, t) in threads.into_iter().enumerate() {
        let ld = t.join().unwrap();
        assert_eq!(ld.pos.x, 50.0 + 90.0 * i as f64);
    }

    // A final range query sees all ten.
    let mut client = T::client(&ls);
    let ans = client
        .range_query(ls.leaf_for(Point::new(1.0, 1.0)), whole_area(999.0))
        .unwrap();
    assert!(ans.complete);
    assert_eq!(ans.objects.len(), 10);

    T::shutdown(ls);
}

/// The batch and deregistration calls, which the UDP client gained
/// with the single client implementation.
fn update_batch_then_deregister<T: Transport>() {
    let ls = deployment::<T>();
    let mut client = T::client(&ls);
    let at = |i: u64, dx: f64| Point::new(100.0 + 10.0 * i as f64 + dx, 100.0);
    let leaf = ls.leaf_for(at(0, 0.0));
    for i in 0..3 {
        let s = Sighting::new(ObjectId(i), client.now_us(), at(i, 0.0), 5.0);
        let (agent, _) = client.register(leaf, s, 10.0, 50.0, 2.0).unwrap();
        assert_eq!(agent, leaf);
    }

    // One envelope moves all three inside the leaf; each is acked.
    let moved: Vec<Sighting> =
        (0..3).map(|i| Sighting::new(ObjectId(i), client.now_us(), at(i, 3.0), 5.0)).collect();
    let mut acks = client.update_batch(leaf, moved).unwrap();
    acks.sort_by_key(|(oid, _)| oid.0);
    assert_eq!(acks.iter().map(|(oid, _)| oid.0).collect::<Vec<_>>(), vec![0, 1, 2]);
    for i in 0..3 {
        assert_eq!(client.pos_query(leaf, ObjectId(i)).unwrap().pos, at(i, 3.0));
    }

    // Deregistration is fire-and-forget: poll until it has landed.
    client.deregister(leaf, ObjectId(1));
    let deadline_us = ls.now_us() + 5_000_000;
    while client.pos_query(leaf, ObjectId(1)).is_ok() {
        assert!(ls.now_us() < deadline_us, "deregistration never took effect");
    }
    assert_eq!(client.pos_query(leaf, ObjectId(1)), Err(LsError::UnknownObject(ObjectId(1))));
    assert!(client.pos_query(leaf, ObjectId(0)).is_ok(), "siblings stay registered");

    T::shutdown(ls);
}

/// A request to a server id the deployment does not have can never be
/// answered: every operation fails with `NoRoute` immediately instead
/// of blocking for the timeout (the channel client used to).
fn unknown_server_is_no_route_at_once<T: Transport>() {
    let ls = deployment::<T>();
    let mut client = T::client(&ls);
    let nowhere = ServerId(99);
    let p = Point::new(100.0, 100.0);
    let s = Sighting::new(ObjectId(1), client.now_us(), p, 5.0);

    let t0_us = ls.now_us();
    assert_eq!(client.register(nowhere, s, 10.0, 50.0, 2.0), Err(LsError::NoRoute));
    assert_eq!(client.update(nowhere, s), Err(LsError::NoRoute));
    assert_eq!(client.update_batch(nowhere, vec![s]), Err(LsError::NoRoute));
    assert_eq!(client.pos_query(nowhere, ObjectId(1)), Err(LsError::NoRoute));
    assert_eq!(client.range_query(nowhere, whole_area(999.0)).unwrap_err(), LsError::NoRoute);
    assert_eq!(client.neighbor_query(nowhere, p, 50.0, 0.0).unwrap_err(), LsError::NoRoute);
    assert!(!client.update_nowait(nowhere, s));
    client.deregister(nowhere, ObjectId(1));
    assert!(ls.now_us() - t0_us < 1_000_000, "NoRoute must not wait for the 5 s timeout");

    // The client is still usable against real servers afterwards.
    let (agent, _) = client.register(ls.leaf_for(p), s, 10.0, 50.0, 2.0).unwrap();
    assert_eq!(client.pos_query(agent, ObjectId(1)).unwrap().pos, p);
    T::shutdown(ls);
}

/// Event predicates work on every runtime: a client-side `Watch` polls
/// the range query this client already speaks.
fn watch_sees_enter_then_leave<T: Transport>() {
    let ls = deployment::<T>();
    let mut object = T::client(&ls);
    let mut app = T::client(&ls);
    // The watched square straddles all four leaves.
    let area = Region::from(Rect::new(Point::new(400.0, 400.0), Point::new(600.0, 600.0)));
    let mut enter = Watch::new(Predicate::Enter { area: area.clone(), oid: None }, 50.0, 0.5);
    let mut leave = Watch::new(Predicate::Leave { area, oid: None }, 50.0, 0.5);
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let mut poll = |app: &mut Client<T::Port>| {
        let ans = app.range_query(entry, enter.query()).expect("range query succeeds");
        assert!(ans.complete);
        let mut events = enter.observe(&ans);
        events.extend(leave.observe(&ans));
        events
    };

    let start = Point::new(100.0, 100.0);
    let s = Sighting::new(ObjectId(1), object.now_us(), start, 5.0);
    let (mut agent, _) = object.register(entry, s, 10.0, 50.0, 3.0).unwrap();
    assert_eq!(poll(&mut app), vec![]);
    let path = [
        (Point::new(450.0, 450.0), vec![EventKind::Entered { oid: ObjectId(1) }]),
        // A handover to the NE leaf inside the watched square: no event.
        (Point::new(550.0, 550.0), vec![]),
        (Point::new(900.0, 900.0), vec![EventKind::Left { oid: ObjectId(1) }]),
    ];
    for (to, want) in path {
        let s = Sighting::new(ObjectId(1), object.now_us(), to, 5.0);
        if let UpdateOutcome::NewAgent { agent: new, .. } = object.update(agent, s).unwrap() {
            agent = new;
        }
        assert_eq!(poll(&mut app), want, "after moving to {to:?}");
    }
    assert_eq!(agent, ls.leaf_for(Point::new(900.0, 900.0)));
    T::shutdown(ls);
}

// ---------------------------------------------------- lifecycle verbs

/// One runtime under the lifecycle contract: the three verbs, plus a
/// registration and a query to see a server answer.
trait Lifecycle {
    fn crash(&mut self, id: ServerId) -> bool;
    fn restart(&mut self, id: ServerId) -> bool;
    fn checkpoint(&mut self, id: ServerId) -> bool;
    /// Registers `oid` at the centre of `leaf`'s area; returns where.
    fn register_at(&mut self, leaf: ServerId, oid: u64) -> Point;
    fn locate(&mut self, entry: ServerId, oid: u64) -> Result<LocationDescriptor, LsError>;
}

/// A real deployment with one client.
struct Real<T: Transport> {
    ls: ShardedDeployment<T::Wire>,
    client: Client<T::Port>,
}

impl<T: Transport> Real<T> {
    fn new(opts: ServerOptions) -> Self {
        let ls = T::deploy(hierarchy(), opts);
        let mut client = T::client(&ls);
        client.set_timeout(Duration::from_secs(2));
        Real { ls, client }
    }
}

impl<T: Transport> Lifecycle for Real<T> {
    fn crash(&mut self, id: ServerId) -> bool {
        self.ls.crash_server(id)
    }
    fn restart(&mut self, id: ServerId) -> bool {
        self.ls.restart_server(id)
    }
    fn checkpoint(&mut self, id: ServerId) -> bool {
        self.ls.checkpoint_server(id)
    }
    fn register_at(&mut self, leaf: ServerId, oid: u64) -> Point {
        let p = self.ls.hierarchy().server(leaf).area.center();
        let s = Sighting::new(ObjectId(oid), self.client.now_us(), p, 5.0);
        assert_eq!(self.client.register(leaf, s, 10.0, 50.0, 2.0).expect("registration").0, leaf);
        p
    }
    fn locate(&mut self, entry: ServerId, oid: u64) -> Result<LocationDescriptor, LsError> {
        self.client.pos_query(entry, ObjectId(oid))
    }
}

impl Lifecycle for SimDeployment {
    fn crash(&mut self, id: ServerId) -> bool {
        self.crash_server(id)
    }
    fn restart(&mut self, id: ServerId) -> bool {
        self.restart_server(id)
    }
    fn checkpoint(&mut self, id: ServerId) -> bool {
        self.checkpoint_server(id)
    }
    fn register_at(&mut self, leaf: ServerId, oid: u64) -> Point {
        let p = self.hierarchy().server(leaf).area.center();
        let s = Sighting::new(ObjectId(oid), self.now_us(), p, 5.0);
        assert_eq!(self.register(leaf, s, 10.0, 50.0).expect("registration").0, leaf);
        p
    }
    fn locate(&mut self, entry: ServerId, oid: u64) -> Result<LocationDescriptor, LsError> {
        self.pos_query(entry, ObjectId(oid))
    }
}

/// Durable stores under `dir`, `OsFlush`.
fn durable(dir: &Path) -> ServerOptions {
    ServerOptions {
        durability: Some(DurabilityOptions {
            dir: dir.to_path_buf(),
            policy: StorageSyncPolicy::OsFlush,
        }),
        ..Default::default()
    }
}

/// Every runtime's lifecycle verbs answer alike: a second crash, a
/// checkpoint of a down server and a restart of an unknown id report
/// `false`; a restart, also of a running server, reports `true` and the
/// server answers again.
fn lifecycle_contract(rt: &mut impl Lifecycle) {
    let leaf = ServerId(1);
    rt.register_at(leaf, 1);
    assert!(rt.crash(leaf), "crashing a running server");
    assert!(!rt.crash(leaf), "a second crash");
    assert!(!rt.checkpoint(leaf), "checkpoint while down");
    assert!(rt.restart(leaf), "restart");
    let p = rt.register_at(leaf, 2);
    assert_eq!(rt.locate(leaf, 2).expect("the restarted server answers").pos, p);
    assert!(rt.restart(leaf), "restarting a running server");
    assert!(!rt.restart(ServerId(99)), "restarting an unknown id");
    assert!(rt.checkpoint(leaf), "checkpoint of a running (volatile) server");
}

/// A bit-flipped snapshot is an error by design, never an empty store:
/// the restart reports `false`, that one server stays down, and the
/// others keep answering.
fn corrupt_snapshot_contract(rt: &mut impl Lifecycle, dir: &Path) {
    let (victim, sibling) = (ServerId(1), ServerId(2));
    rt.register_at(victim, 1);
    let p = rt.register_at(sibling, 2);
    assert!(rt.checkpoint(victim), "a running durable server checkpoints");
    assert!(rt.crash(victim));
    let snapshot = dir.join(format!("server-{}", victim.0)).join("checkpoint.bin");
    let mut bytes = std::fs::read(&snapshot).expect("the checkpoint wrote a snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snapshot, bytes).unwrap();
    assert!(!rt.restart(victim), "a store that will not reopen must report false");
    assert!(!rt.crash(victim), "the victim stayed down");
    assert_eq!(rt.locate(sibling, 2).expect("the others still answer").pos, p);
}

fn lifecycle_verbs_keep_one_contract<T: Transport>() {
    lifecycle_contract(&mut Real::<T>::new(Default::default()));
}

fn corrupt_snapshot_fails_restart_and_the_rest_serve<T: Transport>() {
    let dir = TempDir::new("corrupt-snapshot");
    corrupt_snapshot_contract(&mut Real::<T>::new(durable(dir.path())), dir.path());
}

mod sim {
    use super::*;

    #[test]
    fn lifecycle_verbs_keep_one_contract() {
        lifecycle_contract(&mut SimDeployment::new(hierarchy(), Default::default(), 1));
    }

    #[test]
    fn corrupt_snapshot_fails_restart_and_the_rest_serve() {
        let dir = TempDir::new("sim-corrupt-snapshot");
        let mut ls = SimDeployment::new(hierarchy(), durable(dir.path()), 1);
        corrupt_snapshot_contract(&mut ls, dir.path());
    }
}

// ------------------------------------------------- UDP datagram packing

/// A UDP deployment, the leaf `n` fresh objects are registered at, a
/// raw socket routed to that leaf's shard, and an in-leaf move for
/// every object.
fn packed_fixture(n: u64) -> (UdpDeployment, ServerId, UdpEndpoint<Message>, Vec<Sighting>) {
    let ls = deployment::<Udp>();
    let mut client = Udp::client(&ls);
    let at = |i: u64, y: f64| Point::new(100.0 + i as f64, y);
    let leaf = ls.leaf_for(at(0, 100.0));
    for i in 0..n {
        let s = Sighting::new(ObjectId(i), client.now_us(), at(i, 100.0), 5.0);
        assert_eq!(client.register(leaf, s, 10.0, 50.0, 2.0).unwrap().0, leaf);
    }
    let raw = UdpEndpoint::bind(ClientId(1 << 60).into(), "127.0.0.1:0".parse().unwrap())
        .expect("bind a raw socket");
    raw.add_route(leaf.into(), ls.server_addr(leaf).expect("the leaf's shard socket"));
    let moved = (0..n).map(|i| Sighting::new(ObjectId(i), client.now_us(), at(i, 110.0), 5.0));
    (ls, leaf, raw, moved.collect())
}

/// Sends one `UpdateReq` per sighting to `leaf`, all in one datagram.
fn send_packed(raw: &UdpEndpoint<Message>, leaf: ServerId, sightings: &[Sighting]) {
    let mut outbox = Outbox::new();
    for &sighting in sightings {
        let env = Envelope::new(raw.endpoint(), leaf.into(), Message::UpdateReq { sighting });
        raw.enqueue(&mut outbox, env).unwrap();
    }
    assert_eq!(raw.flush(&mut outbox), 0);
}

fn acked_oid(env: &Envelope<Message>) -> u64 {
    match env.msg {
        Message::UpdateAck { oid, .. } => oid.0,
        ref other => panic!("expected an updateAck, got {}", other.label()),
    }
}

/// 32 updates in one datagram are one turn of the leaf's shard, and
/// that turn's 32 acks to one socket leave as one datagram.
#[test]
fn udp_packs_one_turns_acks_into_one_datagram() {
    let (ls, leaf, raw, moved) = packed_fixture(32);
    send_packed(&raw, leaf, &moved);
    let (mut acks, mut datagrams) = (Vec::new(), 0);
    while acks.len() < 32 {
        let got = raw.recv_batch(Duration::from_secs(5), 64, &mut acks).unwrap();
        assert!(got.received > 0, "acks stopped after {}", acks.len());
        datagrams += got.datagrams;
    }
    let mut oids: Vec<u64> = acks.iter().map(acked_oid).collect();
    oids.sort_unstable();
    assert_eq!(oids, (0..32).collect::<Vec<_>>(), "each object acked exactly once");
    assert_eq!(datagrams, 1);
    ls.shutdown();
}

/// `recv_timeout` hands a packed reply out one envelope per call, in
/// the order the leaf answered.
#[test]
fn udp_packed_reply_is_handed_out_one_envelope_per_call() {
    let (ls, leaf, raw, moved) = packed_fixture(8);
    send_packed(&raw, leaf, &moved);
    for i in 0..8 {
        let env = raw.recv_timeout(Duration::from_secs(5)).unwrap().expect("an ack");
        assert_eq!(acked_oid(&env), i);
    }
    assert!(raw.recv_timeout(Duration::from_millis(20)).unwrap().is_none());
    ls.shutdown();
}

/// `recv_batch`'s `max` is exact: the rest of the datagram comes
/// first on the next calls, without another datagram being read.
#[test]
fn udp_recv_batch_max_is_exact_and_leftovers_come_first() {
    let (ls, leaf, raw, moved) = packed_fixture(12);
    send_packed(&raw, leaf, &moved);
    let mut out = Vec::new();
    let mut calls = Vec::new();
    for _ in 0..3 {
        let got = raw.recv_batch(Duration::from_secs(5), 5, &mut out).unwrap();
        calls.push((got.received, got.datagrams));
    }
    assert_eq!(calls, [(5, 1), (5, 0), (2, 0)]);
    assert_eq!(out.iter().map(acked_oid).collect::<Vec<_>>(), (0..12).collect::<Vec<_>>());
    ls.shutdown();
}

/// A range answer too large for one datagram is lost — the client still
/// times out — but no longer silently: the deployment counts it.
#[test]
fn udp_oversized_answer_counts_as_a_send_failure() {
    const N: u64 = 2_000;
    let answer = Message::RangeQueryRes {
        items: vec![(ObjectId(0), LocationDescriptor::new(Point::new(0.0, 0.0), 5.0)); N as usize],
        complete: true,
        corr: CorrId(1),
    };
    assert!(answer.encoded_len() > 60_000, "{} bytes fit a datagram", answer.encoded_len());

    let ls = deployment::<Udp>();
    let mut client = Udp::client(&ls);
    let at = |i: u64| Point::new(110.0 + (i % 40) as f64 * 7.0, 110.0 + (i / 40) as f64 * 5.0);
    let leaf = ls.leaf_for(at(0));
    for i in 0..N {
        let s = Sighting::new(ObjectId(i), client.now_us(), at(i), 5.0);
        assert_eq!(client.register(leaf, s, 10.0, 50.0, 2.0).unwrap().0, leaf);
    }
    assert_eq!(ls.send_failed(), 0);

    // The probe stays inside the leaf, so the leaf answers at once.
    let inside = Rect::new(Point::new(100.0, 100.0), Point::new(400.0, 400.0));
    client.set_timeout(Duration::from_millis(300));
    let err = client.range_query(leaf, RangeQuery::new(Region::from(inside), 50.0, 0.5));
    assert_eq!(err.unwrap_err(), LsError::Timeout);
    assert!(ls.send_failed() >= 1, "the oversized answer was not counted");
    ls.shutdown();
}

/// A position that is not finite does not decode: the update's
/// datagram is one stray, the update times out, and the object keeps
/// its registration and answers where it last was.
#[test]
fn udp_nan_update_is_a_stray_and_the_object_still_answers() {
    let ls = deployment::<Udp>();
    let mut client = Udp::client(&ls);
    let pos = Point::new(100.0, 100.0);
    let leaf = ls.leaf_for(pos);
    let s = Sighting::new(ObjectId(1), client.now_us(), pos, 5.0);
    let (agent, _) = client.register(leaf, s, 10.0, 50.0, 2.0).expect("registration");
    client.set_timeout(Duration::from_millis(300));
    let nan = Sighting::new(ObjectId(1), client.now_us(), Point::new(f64::NAN, 10.0), 5.0);
    assert_eq!(client.update(agent, nan), Err(LsError::Timeout));
    let root = ls.hierarchy().root();
    let ld = client.pos_query(root, ObjectId(1)).expect("the object is still registered");
    assert_eq!(ld.pos, pos);
    ls.shutdown();
}

/// The channel transport hands a position to the leaf undecoded; the
/// leaf drops a non-finite one itself, so the update times out as it
/// does on UDP and the object keeps its registration.
#[test]
fn channel_nan_update_is_dropped_and_the_object_still_answers() {
    let ls = deployment::<Channels>();
    let mut client = Channels::client(&ls);
    let pos = Point::new(100.0, 100.0);
    let leaf = ls.leaf_for(pos);
    let s = Sighting::new(ObjectId(1), client.now_us(), pos, 5.0);
    let (agent, _) = client.register(leaf, s, 10.0, 50.0, 2.0).expect("registration");
    client.set_timeout(Duration::from_millis(300));
    let nan = Sighting::new(ObjectId(1), client.now_us(), Point::new(f64::NAN, 10.0), 5.0);
    assert_eq!(client.update(agent, nan), Err(LsError::Timeout));
    let root = ls.hierarchy().root();
    let ld = client.pos_query(root, ObjectId(1)).expect("the object is still registered");
    assert_eq!(ld.pos, pos);
    ls.shutdown();
}

/// The simulator, like the channel transport, carries positions
/// undecoded: a non-finite update, batch entry or registration is
/// dropped at the server and changes nothing.
#[test]
fn sim_nan_position_is_dropped_and_the_object_still_answers() {
    let mut ls = SimDeployment::new(hierarchy(), Default::default(), 1);
    let pos = Point::new(100.0, 100.0);
    let leaf = ls.leaf_for(pos);
    let at = |ls: &SimDeployment, oid, p| Sighting::new(ObjectId(oid), ls.now_us(), p, 5.0);
    let (agent, _) = ls.register(leaf, at(&ls, 1, pos), 10.0, 50.0).expect("registration");
    assert_eq!(ls.update(agent, at(&ls, 1, Point::new(f64::NAN, 10.0))), Err(LsError::Timeout));
    let acked = ls
        .update_batch(agent, vec![at(&ls, 1, Point::new(10.0, f64::NAN)), at(&ls, 1, pos)])
        .expect("the batch is answered");
    assert_eq!(acked.len(), 1, "only the finite sighting is applied");
    let root = ls.hierarchy().root();
    assert_eq!(ls.pos_query(root, ObjectId(1)).expect("the object is still registered").pos, pos);
    for bad in [Point::new(f64::NAN, 10.0), Point::new(f64::INFINITY, 10.0)] {
        assert_eq!(ls.register(leaf, at(&ls, 2, bad), 10.0, 50.0), Err(LsError::Timeout));
    }
    assert_eq!(ls.pos_query(root, ObjectId(2)), Err(LsError::UnknownObject(ObjectId(2))));
}
