//! End-to-end tests of the replication subsystem: warm standbys with
//! O(1) root promotion, k=2 leaf replica reads under the bounded-
//! staleness contract, and the durably-acked promotion oracle.

use hiloc_core::area::HierarchyBuilder;
use hiloc_core::model::{Hlc, ObjectId, Sighting, SECOND};
use hiloc_core::node::{DurabilityOptions, ServerOptions, StorageSyncPolicy};
use hiloc_core::runtime::{CrashMode, SimDeployment};
use hiloc_geo::{Point, Rect};
use hiloc_net::ServerId;
use hiloc_util::tempdir::TempDir;
use std::collections::BTreeMap;

fn km() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0))
}

/// Root + 4 leaves, replication on, a visitor in every leaf.
fn replicated_deployment(seed: u64, opts: ServerOptions) -> (SimDeployment, Vec<Point>) {
    let h = HierarchyBuilder::grid(km(), 1, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, opts, seed);
    ls.enable_replication();
    let points = vec![
        Point::new(100.0, 100.0),
        Point::new(900.0, 100.0),
        Point::new(100.0, 900.0),
        Point::new(900.0, 900.0),
    ];
    for (k, p) in points.iter().enumerate() {
        let entry = ls.leaf_for(*p);
        ls.register(entry, Sighting::new(ObjectId(k as u64), ls.now_us(), *p, 5.0), 10.0, 50.0)
            .unwrap();
    }
    ls.run_until_quiet();
    (ls, points)
}

/// The tentpole invariant: with a warm standby, root failover is O(1)
/// table adoption — the promoted server is the standby itself, holds
/// every forwarding record already, answers cross-root queries
/// immediately, and never runs a `pathSync` rebuild.
#[test]
fn warm_promotion_adopts_the_streamed_table() {
    let (mut ls, points) = replicated_deployment(7, ServerOptions::default());
    let root = ls.hierarchy().root();
    let standby = ls.standby_of(root).expect("replication designates a root standby");
    // The delta stream has shipped the snapshot: the standby mirrors
    // the root's forwarding table.
    assert_eq!(
        ls.server(standby).unwrap().visitors().len(),
        ls.server(root).unwrap().visitors().len(),
        "standby must mirror the root's table"
    );
    assert!(ls.server(root).unwrap().stats().deltas_sent > 0);

    assert!(ls.crash_server(root));
    let new_root = ls.promote_root();
    assert_eq!(new_root, standby, "warm promotion activates the standby slot in place");
    ls.run_until_quiet();

    // Cross-root query straight after promotion: entry in one corner,
    // object in the opposite one — the route crosses the new root.
    let entry = ls.leaf_for(points[0]);
    let ld = ls.pos_query(entry, ObjectId(3)).expect("query across the promoted root");
    assert_eq!(ld.pos, points[3]);
    assert_eq!(
        ls.server(new_root).unwrap().stats().path_syncs,
        0,
        "a warm promotion must not rebuild via pathSync"
    );
    // The new root got its own fresh standby.
    assert!(ls.standby_of(new_root).is_some());
}

/// The promotion contract: every record the (crashed) root's stream
/// had durably acked is present in the promoted standby's table with
/// at least the acked stamp.
#[test]
fn promotion_loses_no_durably_acked_record() {
    let (mut ls, _) = replicated_deployment(11, ServerOptions::default());
    let root = ls.hierarchy().root();
    let standby = ls.standby_of(root).unwrap();
    let watermark: BTreeMap<ObjectId, Hlc> = {
        let (target, acked) = ls.server(root).unwrap().replication_acked().expect("sink designated");
        assert_eq!(target, standby);
        acked.clone()
    };
    assert!(!watermark.is_empty(), "acked watermark must have advanced");

    assert!(ls.crash_server(root));
    let promoted = ls.promote_root();
    assert_eq!(promoted, standby);
    for (oid, stamp) in watermark {
        let rec = ls
            .server(promoted).unwrap()
            .visitors()
            .get(oid)
            .unwrap_or_else(|| panic!("acked object {oid:?} lost by promotion"));
        assert!(
            rec.epoch() >= stamp,
            "object {oid:?}: promoted stamp {} below acked watermark {stamp}",
            rec.epoch()
        );
    }
}

/// When the standby dies with the root, promotion falls back to the
/// cold path: a fresh id, chunked `pathSync` pulls, and the lookup
/// barrier until the table is rebuilt — queries still come back after
/// the rebuild.
#[test]
fn standby_crash_falls_back_to_cold_pathsync() {
    let (mut ls, points) = replicated_deployment(13, ServerOptions::default());
    let root = ls.hierarchy().root();
    let standby = ls.standby_of(root).unwrap();
    assert!(ls.crash_server(root));
    assert!(ls.crash_server(standby));
    let new_root = ls.promote_root();
    assert_ne!(new_root, standby, "dead standby cannot be promoted");
    ls.run_until_quiet();
    assert!(
        ls.server(new_root).unwrap().stats().path_syncs > 0,
        "cold promotion must rebuild via pathSync"
    );
    let entry = ls.leaf_for(points[0]);
    let ld = ls.pos_query(entry, ObjectId(3)).expect("query after cold rebuild");
    assert_eq!(ld.pos, points[3]);
}

/// k=2 leaf replication: with the §6.5 caches opted in, the sibling
/// replica answers position queries for a crashed agent's visitors —
/// with an accuracy honestly widened by the copy's age — and stops
/// answering once the copy ages past the staleness bound.
#[test]
fn replica_sibling_serves_bounded_staleness_reads() {
    let mut opts = ServerOptions::default();
    opts.caches.position_cache = true;
    let (mut ls, points) = replicated_deployment(17, opts);
    let agent = ls.leaf_for(points[0]);
    let (buddy, is_replica) =
        ls.server(agent).unwrap().replication_sink().expect("leaf buddy designated");
    assert!(is_replica);
    assert!(
        ls.server(buddy).unwrap().replica_count() > 0,
        "buddy must hold shadow copies before the crash"
    );

    assert!(ls.crash_server(agent));
    let ld = ls
        .pos_query(buddy, ObjectId(0))
        .expect("replica must answer for the crashed agent");
    assert_eq!(ld.pos, points[0]);
    assert!(ls.server(buddy).unwrap().stats().replica_answers > 0);

    // Outside the staleness bound the shadow copy goes quiet: the
    // query falls through to the hierarchy and the dead agent.
    let stale_at = ls.now_us() + ServerOptions::default().replica_staleness_us + SECOND;
    ls.advance_time(stale_at);
    assert!(
        ls.pos_query(buddy, ObjectId(0)).is_err(),
        "a copy past the staleness bound must not be served"
    );
}

/// Power loss at the standby mid-delta-stream: un-fsynced WAL bytes
/// die with the machine, but the group commit fsyncs **before** the
/// ack leaves — so after restart, stream healing (retries are
/// idempotent: equal stamps re-apply) and a warm promotion, every
/// record the source ever saw acked is in the promoted table. The
/// promotion stays O(1).
#[test]
fn standby_power_loss_mid_stream_loses_nothing_acked() {
    let dir = TempDir::new("standby-powerloss");
    let opts = ServerOptions {
        durability: Some(DurabilityOptions {
            dir: dir.path().to_path_buf(),
            policy: StorageSyncPolicy::Always,
        }),
        ..Default::default()
    };
    let (mut ls, points) = replicated_deployment(23, opts);
    let root = ls.hierarchy().root();
    let standby = ls.standby_of(root).unwrap();

    // Churn the stream, then cut power at the standby with batches
    // still in flight (no quiesce between the registrations and the
    // crash).
    for (k, p) in points.iter().enumerate() {
        let entry = ls.leaf_for(*p);
        ls.register(entry, Sighting::new(ObjectId(10 + k as u64), ls.now_us(), *p, 5.0), 10.0, 50.0)
            .unwrap();
    }
    assert!(ls.crash_server_with(standby, CrashMode::PowerLoss));
    assert!(ls.restart_server(standby));
    ls.run_until_quiet();

    // The healed stream must have durably acked every record: the 4
    // originals and the 4 registered mid-stream.
    let watermark: BTreeMap<ObjectId, Hlc> = {
        let (target, acked) = ls.server(root).unwrap().replication_acked().unwrap();
        assert_eq!(target, standby);
        acked.clone()
    };
    assert!(watermark.len() >= 8, "stream must re-ack after the power loss: {watermark:?}");

    assert!(ls.crash_server(root));
    let promoted = ls.promote_root();
    assert_eq!(promoted, standby);
    for (oid, stamp) in watermark {
        let rec = ls
            .server(promoted).unwrap()
            .visitors()
            .get(oid)
            .unwrap_or_else(|| panic!("acked object {oid:?} lost across the power loss"));
        assert!(rec.epoch() >= stamp, "object {oid:?} regressed below its acked stamp");
    }
    ls.run_until_quiet();
    assert_eq!(ls.server(promoted).unwrap().stats().path_syncs, 0, "promotion must stay O(1)");
    let entry = ls.leaf_for(points[0]);
    assert!(ls.pos_query(entry, ObjectId(13)).is_ok(), "cross-root query after promotion");
}

/// A join wires the newcomer into the replica ring without ever giving
/// one target two sources (stream ids stay totally ordered).
#[test]
fn spawn_rewires_the_replica_ring() {
    let (mut ls, points) = replicated_deployment(19, ServerOptions::default());
    let split = ls.leaf_for(points[0]);
    let old_buddy = ls.server(split).unwrap().replication_sink().unwrap().0;
    let newcomer = ls.spawn_server(split);
    ls.run_until_quiet();
    assert_eq!(
        ls.server(split).unwrap().replication_sink().unwrap().0,
        newcomer,
        "split leaf streams to the newcomer"
    );
    assert_eq!(
        ls.server(newcomer).unwrap().replication_sink().unwrap().0,
        old_buddy,
        "newcomer inherits the split leaf's previous target"
    );
    // Each target still has exactly one source.
    let mut targets: Vec<ServerId> = ls
        .hierarchy()
        .active()
        .filter(|c| c.is_leaf())
        .filter_map(|c| ls.server(c.id).unwrap().replication_sink())
        .map(|(t, _)| t)
        .collect();
    let n = targets.len();
    targets.sort_unstable();
    targets.dedup();
    assert_eq!(targets.len(), n, "one source per replica target");
}
