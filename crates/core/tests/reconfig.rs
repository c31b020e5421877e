//! Hierarchy reconfiguration under the deterministic driver: live
//! joins, leaves and root failover, the bulk state transfer's retry
//! and durability behavior, and the power-loss crash mode.
//!
//! The chaos-grade versions (reconfiguration under partitions, crashes
//! mid-transfer, mixed load) live in the simulation crate's churn
//! scenario suite; these tests pin the mechanics in isolation.

use hiloc_core::area::HierarchyBuilder;
use hiloc_core::model::{Hlc, ObjectId, RegInfo, Sighting};
use hiloc_core::node::{
    DurabilityOptions, ServerOptions, StorageSyncPolicy, VisitorDb, VisitorRecord,
};
use hiloc_core::runtime::{CrashMode, SimDeployment};
use hiloc_geo::{Point, Rect};
use hiloc_net::ClientId;
use hiloc_util::tempdir::TempDir;

fn grid(levels: u32) -> SimDeployment {
    let h = HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
        levels,
        2,
    )
    .build()
    .expect("grid hierarchy");
    SimDeployment::new(h, ServerOptions::default(), 11)
}

/// Registers `n` objects on a horizontal line through the lower-left
/// leaf, spanning both halves of a future vertical split.
fn register_line(ls: &mut SimDeployment, n: u64) {
    for k in 0..n {
        let x = 30.0 + k as f64 * (440.0 / n as f64);
        let p = Point::new(x, 100.0);
        let entry = ls.leaf_for(p);
        ls.register(entry, Sighting::new(ObjectId(k), 0, p, 5.0), 10.0, 50.0)
            .expect("registration");
    }
}

#[test]
fn join_splits_the_leaf_and_bulk_moves_the_covered_records() {
    let mut ls = grid(1);
    let victim = ls.leaf_for(Point::new(100.0, 100.0));
    register_line(&mut ls, 8);
    assert_eq!(ls.server(victim).unwrap().visitor_count(), 8);

    let new_id = ls.spawn_server(victim);
    ls.run_until_quiet();

    // The victim's old area was split vertically: records in the right
    // half moved to the newcomer, in one bulk transfer.
    let moved = ls.server(new_id).unwrap().visitor_count();
    let kept = ls.server(victim).unwrap().visitor_count();
    assert!(moved > 0, "some records must cover the split-off half");
    assert_eq!(moved + kept, 8, "no record may be lost or duplicated");
    assert_eq!(ls.server(new_id).unwrap().sighting_count(), moved, "sightings travel with the records");
    let st = ls.total_stats();
    assert_eq!(st.transfers_started, 1);
    assert_eq!(st.transfers_completed, 1);
    assert_eq!(st.transfer_records_in as usize, moved);

    // Every object answers through the hierarchy — including the moved
    // ones, whose paths the newcomer re-asserted.
    let root = ls.hierarchy().root();
    for k in 0..8 {
        let ld = ls.pos_query(root, ObjectId(k)).expect("object still answerable");
        assert_eq!(ld.pos.y, 100.0);
    }
    // New registrations in the split-off half land at the newcomer.
    let p = ls.hierarchy().server(new_id).area.center();
    let (agent, _) = ls
        .register(root, Sighting::new(ObjectId(77), ls.now_us(), p, 5.0), 10.0, 50.0)
        .expect("registration in the new area");
    assert_eq!(agent, new_id);
}

#[test]
fn join_transfer_retries_until_the_target_durably_acks() {
    let mut ls = grid(1);
    let victim = ls.leaf_for(Point::new(100.0, 100.0));
    register_line(&mut ls, 6);

    // Predictable id of the joining server: the next dense slot.
    let new_id = ls.spawn_server(victim);
    // The newcomer dies before the transfer reaches it: the datagram
    // dies with it, the source keeps the records and keeps retrying.
    assert!(ls.crash_server(new_id));
    // Let at least one re-send fire into the void while the target is
    // down (blackholed on delivery) — the retry deadline is the
    // default 2 s query timeout.
    ls.advance_time(ls.now_us() + 5_000_000);
    assert!(ls.blackholed() > 0, "retries must be blackholed at the down target");
    assert_eq!(ls.server(victim).unwrap().visitor_count(), 6, "source must keep unacked records");

    assert!(ls.restart_server(new_id));
    // Let the re-send deadline pass; the retry lands this time.
    ls.advance_time(ls.now_us() + 3_000_000);
    ls.run_until_quiet();
    let st = ls.total_stats();
    assert!(st.transfer_retries >= 1, "a re-send must have happened");
    assert_eq!(st.transfers_completed, 1);
    let moved = ls.server(new_id).unwrap().visitor_count();
    assert!(moved > 0);
    assert_eq!(moved + ls.server(victim).unwrap().visitor_count(), 6);
    let root = ls.hierarchy().root();
    for k in 0..6 {
        ls.pos_query(root, ObjectId(k)).expect("object survives the crashed transfer");
    }
}

#[test]
fn leave_drains_every_record_to_the_absorbing_sibling() {
    let mut ls = grid(1);
    let victim = ls.leaf_for(Point::new(100.0, 100.0));
    register_line(&mut ls, 8);
    let before: Vec<(ObjectId, VisitorRecord)> =
        ls.server(victim).unwrap().visitors().iter().collect();
    assert_eq!(before.len(), 8);

    let absorber = ls.retire_server(victim);
    ls.run_until_quiet();

    assert!(ls.is_retired(victim));
    assert_eq!(ls.server(victim).unwrap().visitor_count(), 0, "the leaver must drain completely");
    assert_eq!(ls.server(absorber).unwrap().visitor_count(), 8);
    let root = ls.hierarchy().root();
    for k in 0..8 {
        ls.pos_query(root, ObjectId(k)).expect("object survives the leave");
    }
    // The absorber now owns the area: a registration at the old
    // victim's center lands there.
    let (agent, _) = ls
        .register(
            root,
            Sighting::new(ObjectId(88), ls.now_us(), Point::new(100.0, 100.0), 5.0),
            10.0,
            50.0,
        )
        .expect("registration in the absorbed area");
    assert_eq!(agent, absorber);
}

#[test]
fn root_failover_rebuilds_routing_from_the_children() {
    let mut ls = grid(2);
    let n = 10u64;
    for k in 0..n {
        let p = Point::new(47.0 + k as f64 * 90.0, 500.0 + (k % 3) as f64 * 100.0);
        let entry = ls.leaf_for(p);
        ls.register(entry, Sighting::new(ObjectId(k), 0, p, 5.0), 10.0, 50.0)
            .expect("registration");
    }
    // Let the createPath climbs finish before counting root records.
    ls.run_until_quiet();
    let old_root = ls.hierarchy().root();
    assert_eq!(ls.server(old_root).unwrap().visitor_count() as u64, n);

    assert!(ls.crash_server(old_root));
    let new_root = ls.promote_root();
    ls.run_until_quiet();

    assert_ne!(new_root, old_root);
    assert_eq!(ls.hierarchy().root(), new_root);
    assert!(ls.is_retired(old_root));
    // The path sync rebuilt a forwarding record per object.
    assert_eq!(ls.server(new_root).unwrap().visitor_count() as u64, n);
    assert!(ls.total_stats().path_syncs > 0);
    for k in 0..n {
        ls.pos_query(new_root, ObjectId(k))
            .expect("object answerable through the promoted root");
    }
}

/// The transfer's durable format: the target logs the whole batch as
/// one CRC-framed WAL record, so recovery from a tail truncated at
/// **any** byte offset inside the record sees all of the transfer or
/// none of it — never a partial application.
#[test]
fn transfer_record_torn_tail_is_all_or_nothing_at_every_offset() {
    let dir = TempDir::new("xfer-torn");
    let reg = RegInfo::new(ClientId(9).into(), 10.0, 50.0, 3.0);
    let recs: Vec<(ObjectId, VisitorRecord)> = (0..5)
        .map(|k| {
            (
                ObjectId(k),
                VisitorRecord::Leaf { offered_acc_m: 10.0, reg, epoch: Hlc(7_000) },
            )
        })
        .collect();
    let base_len;
    {
        let mut db = VisitorDb::durable(dir.path(), StorageSyncPolicy::Always).unwrap();
        base_len = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
        // Exactly what `on_state_transfer` does with the accepted set.
        assert_eq!(db.apply_all(recs.clone()), 5);
    }
    let wal_path = dir.path().join("wal.log");
    let full = std::fs::read(&wal_path).unwrap();
    assert!(full.len() as u64 > base_len, "the transfer batch must be on disk");
    for cut in base_len..=full.len() as u64 {
        std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
        let db = VisitorDb::durable(dir.path(), StorageSyncPolicy::Always).unwrap();
        match db.len() {
            0 => {} // the torn record was dropped whole
            5 => {
                for (oid, rec) in &recs {
                    assert_eq!(db.get(*oid), Some(*rec), "cut {cut}: record diverged");
                }
            }
            n => panic!("cut {cut}: partial transfer visible ({n} of 5 records)"),
        }
    }
}

#[test]
fn power_loss_drops_unsynced_wal_bytes_but_a_process_crash_does_not() {
    // OsFlush: acknowledged mutations reach the OS, never the platter.
    for (mode, survivors) in [(CrashMode::Process, 4), (CrashMode::PowerLoss, 0)] {
        let dir = TempDir::new("powerloss-sim");
        let h = HierarchyBuilder::grid(
            Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
            1,
            2,
        )
        .build()
        .unwrap();
        let opts = ServerOptions {
            durability: Some(DurabilityOptions {
                dir: dir.path().to_path_buf(),
                policy: StorageSyncPolicy::OsFlush,
            }),
            ..Default::default()
        };
        let mut ls = SimDeployment::new(h, opts, 3);
        let leaf = ls.leaf_for(Point::new(100.0, 100.0));
        for k in 0..4 {
            let p = Point::new(50.0 + k as f64 * 40.0, 80.0);
            ls.register(leaf, Sighting::new(ObjectId(k), 0, p, 5.0), 10.0, 50.0)
                .unwrap();
        }
        assert!(ls.crash_server_with(leaf, mode));
        assert!(ls.restart_server(leaf));
        assert_eq!(
            ls.server(leaf).unwrap().visitor_count(),
            survivors,
            "{mode:?} with OsFlush must recover {survivors} records"
        );
    }

    // Always: every acknowledged mutation is fsynced before the ack, so
    // even a power loss loses nothing.
    let dir = TempDir::new("powerloss-always");
    let h = HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
        1,
        2,
    )
    .build()
    .unwrap();
    let opts = ServerOptions {
        durability: Some(DurabilityOptions {
            dir: dir.path().to_path_buf(),
            policy: StorageSyncPolicy::Always,
        }),
        ..Default::default()
    };
    let mut ls = SimDeployment::new(h, opts, 3);
    let leaf = ls.leaf_for(Point::new(100.0, 100.0));
    for k in 0..4 {
        let p = Point::new(50.0 + k as f64 * 40.0, 80.0);
        ls.register(leaf, Sighting::new(ObjectId(k), 0, p, 5.0), 10.0, 50.0).unwrap();
    }
    assert!(ls.crash_server_with(leaf, CrashMode::PowerLoss));
    assert!(ls.restart_server(leaf));
    assert_eq!(ls.server(leaf).unwrap().visitor_count(), 4, "Always must survive power loss");
}

/// A delayed ack for an *earlier* transfer send must not delete source
/// records that changed since: the removal guard uses the epoch the
/// ack echoes, never the latest send's. (Regression: with the guard on
/// the latest epoch, a stale ack raced a re-registration and silently
/// deleted the only up-to-date copy.)
#[test]
fn stale_transfer_ack_cannot_delete_a_newer_re_registration() {
    use hiloc_core::proto::Message;
    use hiloc_net::CorrIdGen;

    let mut ls = grid(1);
    let victim = ls.leaf_for(Point::new(100.0, 100.0));
    // Two objects in the half a join will split off.
    for k in 0..2u64 {
        let p = Point::new(300.0 + k as f64 * 50.0, 100.0);
        ls.register(victim, Sighting::new(ObjectId(k), 0, p, 5.0), 10.0, 50.0).unwrap();
    }
    // A stamp no newer than the join's first transfer send: same
    // millisecond, minimal logical/node fields.
    let e1 = Hlc::from_parts(ls.now_us() / 1_000, 0, 0);
    let newcomer = ls.spawn_server(victim);
    // The target dies: the transfer never lands, retries bump the
    // pending epoch past everything below.
    assert!(ls.crash_server(newcomer));
    // Object 0 re-registers in the *kept* half — a newer record at the
    // source that no send before the next retry has shipped.
    let p_new = Point::new(100.0, 100.0);
    ls.register(victim, Sighting::new(ObjectId(0), ls.now_us(), p_new, 5.0), 10.0, 50.0)
        .unwrap();
    // Let a retry fire (its epoch now exceeds the re-registration's).
    ls.advance_time(ls.now_us() + 5_000_000);
    // The stale ack for the first send finally arrives.
    let corr = CorrIdGen::namespaced(u64::from(victim.0) + 1).next_id();
    let client = ls.new_client();
    ls.send_from(client, victim, Message::StateTransferAck { accepted: 2, epoch: e1, corr });
    ls.run_until_quiet();
    let ld = ls
        .pos_query(victim, ObjectId(0))
        .expect("the newer re-registration must survive the stale ack");
    assert_eq!(ld.pos, p_new);
}

#[test]
fn reconfiguration_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let h = HierarchyBuilder::grid(
            Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
            1,
            2,
        )
        .build()
        .unwrap();
        let mut ls = SimDeployment::new(h, ServerOptions::default(), seed);
        ls.enable_trace();
        register_line(&mut ls, 6);
        let victim = ls.leaf_for(Point::new(100.0, 100.0));
        let new_id = ls.spawn_server(victim);
        ls.run_until_quiet();
        let absorber = ls.retire_server(new_id);
        ls.run_until_quiet();
        let trace: Vec<String> = ls
            .trace()
            .iter()
            .map(|t| format!("{t:?}"))
            .collect();
        (trace, absorber, ls.net_counters())
    };
    assert_eq!(run(5), run(5), "same seed must replay identically");
    assert_ne!(run(5).0, run(6).0, "different seeds must differ");
}
