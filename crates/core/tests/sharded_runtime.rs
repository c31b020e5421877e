//! The sharded runtime's chaos surface: crash / restart / partition
//! verbs, bounded-inbox shedding, explicit shard layouts and a durable
//! deployment's second life — on both real transports.

use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_core::model::{ObjectId, Sighting};
use hiloc_core::node::{DurabilityOptions, ServerOptions, StorageSyncPolicy};
use hiloc_core::runtime::{
    Client, CrashMode, ShardSpec, ShardedDeployment, SyncClient, ThreadedDeployment,
    UdpDeployment, UpdateOutcome,
};
use hiloc_core::Message;
use hiloc_geo::{Point, Rect};
use hiloc_net::{Port, ServerId};
use hiloc_util::tempdir::TempDir;
use std::time::Duration;

fn hierarchy(extent: f64, levels: u32, fanout: u32) -> hiloc_core::area::Hierarchy {
    HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(extent, extent)),
        levels,
        fanout,
    )
    .build()
    .unwrap()
}

#[test]
fn explicit_shard_layout_is_respected() {
    // 1 + 4 servers over 3 shards.
    let ls = ThreadedDeployment::new_sharded(
        hierarchy(1_000.0, 1, 2),
        Default::default(),
        ShardSpec { shards: 3, ..Default::default() },
    );
    assert_eq!(ls.shard_count(), 3);
    // The service still works across shard boundaries.
    let mut client = ls.client();
    let pos = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(pos);
    let (agent, _) = client
        .register(entry, Sighting::new(ObjectId(1), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("registration across shards");
    let ld = client.pos_query(agent, ObjectId(1)).expect("query across shards");
    assert_eq!(ld.pos, pos);
    // More shards than servers clamps.
    let small = ThreadedDeployment::new_sharded(
        hierarchy(500.0, 0, 2),
        Default::default(),
        ShardSpec { shards: 64, ..Default::default() },
    );
    assert_eq!(small.shard_count(), 1);
    // 5 shards over root + 4: the placement hands out shards 0 to 3
    // only, and no transport starts a fifth shard that would only nap.
    let five = ShardSpec { shards: 5, ..Default::default() };
    assert_eq!(ShardSpec::placement(ls.hierarchy(), five.resolve(5)), [0, 0, 1, 2, 3]);
    let chan = ThreadedDeployment::new_sharded(hierarchy(1_000.0, 1, 2), Default::default(), five);
    assert_eq!(chan.shard_count(), 4);
    let udp = UdpDeployment::bind_sharded(hierarchy(1_000.0, 1, 2), Default::default(), five).unwrap();
    assert_eq!(udp.shard_count(), 4);
    udp.shutdown();
}

#[test]
fn crash_blackholes_then_restart_recovers() {
    let ls = ThreadedDeployment::new_sharded(
        hierarchy(1_000.0, 1, 2),
        Default::default(),
        ShardSpec { shards: 2, ..Default::default() },
    );
    let mut client = ls.client();
    client.set_timeout(Duration::from_millis(300));
    let pos = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(pos);
    let (agent, _) = client
        .register(entry, Sighting::new(ObjectId(7), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("registration");

    assert!(ls.crash_server(agent), "first crash succeeds");
    assert!(!ls.crash_server(agent), "double crash reports false");
    // The crashed agent blackholes updates: the client times out.
    let r = client.update(agent, Sighting::new(ObjectId(7), client.now_us(), pos, 5.0));
    assert!(r.is_err(), "update to a crashed server must not be acked");

    assert!(ls.restart_server(agent), "restart succeeds");
    // Volatile deployment: state is gone, but the server is live again
    // and accepts a fresh registration.
    let (agent2, _) = client
        .register(entry, Sighting::new(ObjectId(7), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("re-registration after restart");
    let ld = client.pos_query(agent2, ObjectId(7)).expect("query after restart");
    assert_eq!(ld.pos, pos);
}

#[test]
fn failed_restart_leaves_one_server_down_and_its_shard_serving() {
    let dir = TempDir::new("failed-restart");
    let opts = ServerOptions {
        durability: Some(DurabilityOptions {
            dir: dir.path().to_path_buf(),
            policy: StorageSyncPolicy::OsFlush,
        }),
        ..Default::default()
    };
    // Root 0 + leaves 1..=4 over 2 shards: leaves 3 and 4 share
    // shard 1 (leaves 1 and 2 go with the root on shard 0).
    let ls = ThreadedDeployment::new_sharded(
        hierarchy(1_000.0, 1, 2),
        opts,
        ShardSpec { shards: 2, ..Default::default() },
    );
    let (victim, sibling) = (ServerId(3), ServerId(4));
    let placement = ShardSpec::placement(ls.hierarchy(), 2);
    assert_eq!(placement, [0, 0, 0, 1, 1]);
    // Total: the unresolved default (`shards: 0`) answers as one shard does.
    let unresolved = ShardSpec::placement(ls.hierarchy(), ShardSpec::default().shards);
    assert!(unresolved.iter().all(|&s| s == 0));
    let mut client = ls.client();
    client.set_timeout(Duration::from_secs(2));
    let register = |client: &mut SyncClient, oid: u64, leaf: ServerId| {
        let pos = ls.hierarchy().server(leaf).area.center();
        let s = Sighting::new(ObjectId(oid), client.now_us(), pos, 5.0);
        assert_eq!(client.register(leaf, s, 10.0, 50.0, 2.0).expect("registration").0, leaf);
        pos
    };
    register(&mut client, 1, victim);
    let sibling_pos = register(&mut client, 2, sibling);

    // A bit-flipped manifest is an error by design, never an empty DB:
    // the victim's durable store will not reopen.
    assert!(ls.crash_server(victim));
    let manifest = dir.path().join(format!("server-{}", victim.0)).join("checkpoint.bin");
    std::fs::write(&manifest, b"not a manifest").unwrap();
    assert!(!ls.restart_server(victim), "a store that will not reopen must report false");

    // The shard loop survived: the sibling on the same shard answers,
    // and only the victim stays dark.
    assert_eq!(client.pos_query(sibling, ObjectId(2)).expect("sibling still serves").pos, sibling_pos);
    client.set_timeout(Duration::from_millis(300));
    assert!(client.pos_query(victim, ObjectId(1)).is_err(), "the victim is still down");

    // Once the store is repaired the same verb brings the victim back.
    std::fs::remove_file(&manifest).unwrap();
    assert!(ls.restart_server(victim), "restart succeeds once the store reopens");
    client.set_timeout(Duration::from_secs(2));
    register(&mut client, 3, victim);
}

/// The sharded engine's crash verb takes the simulator's `CrashMode`
/// and its checkpoint verb syncs: with `OsFlush` (acknowledged
/// mutations reach the OS, never the platter) a process crash keeps
/// everything, a power loss only what the checkpoint made durable.
#[test]
fn power_loss_keeps_what_a_checkpoint_synced_and_a_process_crash_everything() {
    for (mode, unsynced_survives) in [(CrashMode::Process, true), (CrashMode::PowerLoss, false)] {
        let dir = TempDir::new("sharded-powerloss");
        let opts = ServerOptions {
            durability: Some(DurabilityOptions {
                dir: dir.path().to_path_buf(),
                policy: StorageSyncPolicy::OsFlush,
            }),
            ..Default::default()
        };
        let ls = ThreadedDeployment::new_sharded(
            hierarchy(1_000.0, 1, 2),
            opts,
            ShardSpec { shards: 2, ..Default::default() },
        );
        let leaf = ServerId(1);
        let pos = ls.hierarchy().server(leaf).area.center();
        let mut client = ls.client();
        client.set_timeout(Duration::from_secs(2));
        let sighting =
            |client: &SyncClient, oid| Sighting::new(ObjectId(oid), client.now_us(), pos, 5.0);
        client.register(leaf, sighting(&client, 1), 10.0, 50.0, 2.0).expect("registration");
        assert!(ls.checkpoint_server(leaf), "a live durable server checkpoints");
        client.register(leaf, sighting(&client, 2), 10.0, 50.0, 2.0).expect("registration");

        assert!(ls.crash_server_with(leaf, mode));
        assert!(!ls.crash_server_with(leaf, mode), "already down");
        assert!(!ls.checkpoint_server(leaf), "a down server has nothing to checkpoint");
        assert!(ls.restart_server(leaf));

        // A recovered record acks its object's next update; a lost one
        // leaves the update unanswered.
        let acked = |client: &mut SyncClient, oid| {
            matches!(client.update(leaf, sighting(client, oid)), Ok(UpdateOutcome::Ack { .. }))
        };
        assert!(acked(&mut client, 1), "{mode:?}: the checkpointed record must survive");
        client.set_timeout(Duration::from_millis(300));
        assert_eq!(acked(&mut client, 2), unsynced_survives, "{mode:?}: the un-synced record");
    }
}

/// Service time restarts near 0 in every life of a deployment, so a
/// durable server's first stamps in a new life must still outrank the
/// records it recovered. The first life registers an object at leaf 1
/// at about 800 ms of service time. The second life, on the same data
/// directory, at once deregisters it there and registers it at leaf 4:
/// the root and the old leaf must answer the new position.
///
/// One shard runs every server, so the root applies the deregistration's
/// `RemovePath` before the new `CreatePath`. Leaf 4 recovers no record
/// to stamp above, so a `CreatePath` that overtook the `RemovePath`
/// would still lose to the root's recovered record until service time
/// passes the first life's.
fn second_life_outranks_the_first<W, L: Port<Message>>(
    deploy: impl Fn(Hierarchy, ServerOptions) -> (ShardedDeployment<W>, Client<L>),
) {
    let dir = TempDir::new("second-life");
    let opts = ServerOptions {
        durability: Some(DurabilityOptions {
            dir: dir.path().to_path_buf(),
            policy: StorageSyncPolicy::Always,
        }),
        ..Default::default()
    };
    let (old_leaf, new_leaf) = (ServerId(1), ServerId(4));
    let (ls, mut client) = deploy(hierarchy(1_000.0, 1, 2), opts.clone());
    client.set_timeout(Duration::from_secs(2));
    std::thread::sleep(Duration::from_millis(800));
    let pos = ls.hierarchy().server(old_leaf).area.center();
    let s = Sighting::new(ObjectId(1), client.now_us(), pos, 5.0);
    assert_eq!(client.register(old_leaf, s, 10.0, 50.0, 2.0).expect("first life").0, old_leaf);
    ls.shutdown_with_stats();

    let (ls, mut client) = deploy(hierarchy(1_000.0, 1, 2), opts);
    client.set_timeout(Duration::from_secs(2));
    let pos = ls.hierarchy().server(new_leaf).area.center();
    client.deregister(old_leaf, ObjectId(1));
    let s = Sighting::new(ObjectId(1), client.now_us(), pos, 5.0);
    assert_eq!(client.register(new_leaf, s, 10.0, 50.0, 2.0).expect("second life").0, new_leaf);
    for entry in [ServerId(0), old_leaf] {
        let ld = client.pos_query(entry, ObjectId(1));
        assert_eq!(ld.map(|ld| ld.pos), Ok(pos), "pos query entered at {entry}");
    }
    ls.shutdown_with_stats();
}

#[test]
fn channel_second_life_outranks_the_first() {
    second_life_outranks_the_first(|h, opts| {
        let one = ShardSpec { shards: 1, ..Default::default() };
        let ls = ThreadedDeployment::new_sharded(h, opts, one);
        let client = ls.client();
        (ls, client)
    });
}

#[test]
fn udp_second_life_outranks_the_first() {
    second_life_outranks_the_first(|h, opts| {
        let one = ShardSpec { shards: 1, ..Default::default() };
        let ls = UdpDeployment::bind_sharded(h, opts, one).expect("bind");
        let client = ls.client().expect("client socket");
        (ls, client)
    });
}

#[test]
fn partition_by_drop_blocks_cross_group_traffic_until_healed() {
    // Root (id 0) + 4 leaves (ids 1..=4).
    let h = hierarchy(1_000.0, 1, 2);
    let ls = ThreadedDeployment::new_sharded(
        h,
        Default::default(),
        ShardSpec { shards: 2, ..Default::default() },
    );
    let mut client = ls.client();
    client.set_timeout(Duration::from_millis(300));
    let pos = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(pos);

    // Cut the entry leaf off from everyone else: registration needs
    // the leaf→root path, so the path-create never lands upward.
    ls.set_partition(&[vec![entry], vec![ServerId(0)]]);
    let _ = client.register(
        entry,
        Sighting::new(ObjectId(1), client.now_us(), pos, 5.0),
        10.0,
        50.0,
        2.0,
    );
    assert!(
        ls.partition_dropped() > 0,
        "the filter must have dropped cross-group server traffic"
    );

    // Heal; service recovers end to end.
    ls.clear_partition();
    client.set_timeout(Duration::from_secs(5));
    let (agent, _) = client
        .register(entry, Sighting::new(ObjectId(2), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("registration after heal");
    let ld = client.pos_query(agent, ObjectId(2)).expect("query after heal");
    assert_eq!(ld.pos, pos);
}

#[test]
fn tiny_inbox_sheds_under_fire_and_forget_flood() {
    let ls = ThreadedDeployment::new_sharded(
        hierarchy(1_000.0, 1, 2),
        Default::default(),
        ShardSpec { shards: 1, inbox_cap: 2 },
    );
    let mut client = ls.client();
    let pos = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(pos);
    let (agent, _) = client
        .register(entry, Sighting::new(ObjectId(1), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("registration");

    // Blast fire-and-forget updates far faster than a 2-slot inbox
    // can drain; the overflow must shed, not queue without limit.
    let mut delivered = 0u64;
    for _ in 0..2_000 {
        if client.update_nowait(agent, Sighting::new(ObjectId(1), client.now_us(), pos, 5.0)) {
            delivered += 1;
        }
        if ls.shed_total() > 0 && delivered > 0 {
            break;
        }
    }
    assert!(ls.shed_total() > 0, "a 2-slot inbox must shed under a 2k burst");
    assert!(delivered > 0, "some updates still get through");
    assert_eq!(ls.shed_for(agent), ls.shed_total(), "sheds attributed to the flooded leaf");

    // The deployment stays healthy: a blocking op still completes.
    // Shedding is load-shedding, not failure — the request itself can
    // be dropped at the hot inbox, so a real client retries.
    client.drain();
    client.set_timeout(Duration::from_millis(500));
    let ld = (0..20)
        .find_map(|_| client.pos_query(agent, ObjectId(1)).ok())
        .expect("query succeeds once the flood drains");
    assert_eq!(ld.pos, pos);

    // The shed counter surfaces through ServerStats at shutdown.
    let agent_idx = agent.0 as usize;
    let stats = ls.shutdown();
    assert_eq!(stats[agent_idx].inbox_shed, stats.iter().map(|s| s.inbox_shed).sum::<u64>());
    assert!(stats[agent_idx].inbox_shed > 0);
}

#[test]
fn stats_snapshot_reports_live_counters_mid_run() {
    let ls = ThreadedDeployment::new_sharded(
        hierarchy(1_000.0, 1, 2),
        Default::default(),
        ShardSpec { shards: 2, ..Default::default() },
    );
    let mut client = ls.client();
    let pos = Point::new(900.0, 900.0);
    let entry = ls.leaf_for(pos);
    client
        .register(entry, Sighting::new(ObjectId(3), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("registration");
    let stats = ls.stats_snapshot();
    assert_eq!(stats.len(), ls.hierarchy().len());
    assert!(stats.iter().is_sorted_by_key(|(id, _)| id.0));
    assert_eq!(stats.iter().map(|(_, s)| s.registrations).sum::<u64>(), 1);
}

#[test]
fn udp_sharded_crash_restart_and_cross_shard_ops() {
    let ls = UdpDeployment::bind_sharded(
        hierarchy(1_000.0, 1, 2),
        Default::default(),
        ShardSpec { shards: 2, ..Default::default() },
    )
    .expect("bind");
    assert_eq!(ls.shard_count(), 2);
    let mut client = ls.client().expect("client socket");
    let pos = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(pos);
    let (agent, _) = client
        .register(entry, Sighting::new(ObjectId(9), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("registration over sharded UDP");
    let ld = client.pos_query(agent, ObjectId(9)).expect("query over sharded UDP");
    assert_eq!(ld.pos, pos);

    assert!(ls.crash_server(agent));
    client.set_timeout(Duration::from_millis(300));
    assert!(client.pos_query(agent, ObjectId(9)).is_err(), "crashed server blackholes");
    assert!(ls.restart_server(agent));
    client.set_timeout(Duration::from_secs(5));
    let (agent2, _) = client
        .register(entry, Sighting::new(ObjectId(9), client.now_us(), pos, 5.0), 10.0, 50.0, 2.0)
        .expect("re-registration after UDP restart");
    let ld = client.pos_query(agent2, ObjectId(9)).expect("query after UDP restart");
    assert_eq!(ld.pos, pos);
    ls.shutdown();
}

/// The server→server envelopes `ls` hands its transport from `since`
/// on: waits (up to 2 s) until `want` have crossed, then a little
/// longer, so a late extra crossing would still be counted.
fn crossed<W>(ls: &ShardedDeployment<W>, since: u64, want: u64) -> u64 {
    for _ in 0..200 {
        if ls.cross_shard_sends() >= since + want {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));
    ls.cross_shard_sends() - since
}

/// Root 0, quadrants 1..=4 and leaves 5..=20 over 2 shards: quadrants
/// 1 and 2 (y < 500) share shard 0 with the root, quadrants 3 and 4
/// (y ≥ 500) shard 1. Hops under a quadrant never cross the transport;
/// an operation between quadrants crosses only between the root and
/// the other shard's quadrant.
fn crossings_stay_inside_subtrees<W, L: Port<Message>>(
    ls: ShardedDeployment<W>,
    mut client: Client<L>,
) {
    assert_eq!(ls.shard_count(), 2);
    assert_eq!(ls.hierarchy().server(ServerId(13)).parent, Some(ServerId(3)));
    let sighting = |client: &Client<L>, oid, x, y| {
        Sighting::new(ObjectId(oid), client.now_us(), Point::new(x, y), 5.0)
    };

    // Every server starts cold. A leaf's first keep-alive is one path
    // refresh period after its first visitor, so the registration's own
    // CreatePath is the only one, and the counts below are per
    // operation.

    // Path creation under quadrant 1 stays on the root's shard.
    let n = ls.cross_shard_sends();
    let s = sighting(&client, 1, 100.0, 100.0);
    assert_eq!(client.register(ServerId(5), s, 10.0, 50.0, 2.0).unwrap().0, ServerId(5));
    assert_eq!(crossed(&ls, n, 0), 0, "register under quadrant 1");

    // Under quadrant 3 it reaches the mid-level server without
    // crossing, and crosses once, to the root.
    let n = ls.cross_shard_sends();
    let s = sighting(&client, 2, 100.0, 600.0);
    assert_eq!(client.register(ServerId(13), s, 10.0, 50.0, 2.0).unwrap().0, ServerId(13));
    assert_eq!(crossed(&ls, n, 1), 1, "cold register under quadrant 3: CreatePath 3 → 0");

    // A handover between sibling leaves goes through their common
    // parent, on their shard.
    let n = ls.cross_shard_sends();
    let moved = client.update(ServerId(13), sighting(&client, 2, 300.0, 600.0)).unwrap();
    assert!(matches!(moved, UpdateOutcome::NewAgent { agent: ServerId(14), .. }), "{moved:?}");
    assert_eq!(crossed(&ls, n, 0), 0, "handover 13 → 14");

    // A position query entered at a sibling of the agent leaf.
    let n = ls.cross_shard_sends();
    assert_eq!(client.pos_query(ServerId(13), ObjectId(2)).unwrap().pos, Point::new(300.0, 600.0));
    assert_eq!(crossed(&ls, n, 0), 0, "pos query entered at 13 for an object at 14");

    // A handover from quadrant 3 to quadrant 1 crosses at the root
    // only: HandoverReq 3 → 0 and HandoverRes 0 → 3.
    let n = ls.cross_shard_sends();
    let moved = client.update(ServerId(14), sighting(&client, 2, 100.0, 100.0)).unwrap();
    assert!(matches!(moved, UpdateOutcome::NewAgent { agent: ServerId(5), .. }), "{moved:?}");
    assert_eq!(crossed(&ls, n, 2), 2, "handover 14 → 5 across quadrants");
}

#[test]
fn channel_cross_shard_sends_stay_inside_subtrees() {
    let ls = ThreadedDeployment::new_sharded(
        hierarchy(1_000.0, 2, 2),
        Default::default(),
        ShardSpec { shards: 2, ..Default::default() },
    );
    let client = ls.client();
    crossings_stay_inside_subtrees(ls, client);
}

#[test]
fn udp_cross_shard_sends_stay_inside_subtrees() {
    let ls = UdpDeployment::bind_sharded(
        hierarchy(1_000.0, 2, 2),
        Default::default(),
        ShardSpec { shards: 2, ..Default::default() },
    )
    .expect("bind");
    let client = ls.client().expect("client socket");
    crossings_stay_inside_subtrees(ls, client);
}
