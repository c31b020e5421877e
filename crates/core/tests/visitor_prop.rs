//! The visitor database keeps leaf records and forward records in two
//! in-memory tables behind one WAL and one snapshot. To every caller it
//! must still be one ordered table: random sequences of the four
//! epoch-guarded mutations (single and batched, over both record kinds,
//! with oids that flip between `Leaf` and `Forward`) are checked against
//! a reference `BTreeMap<u64, VisitorRecord>` after every step, after a
//! durable reopen, and after a checkpoint followed by a reopen.

use hiloc_core::model::{Hlc, ObjectId, RegInfo};
use hiloc_core::node::{StorageSyncPolicy, VisitorDb, VisitorRecord};
use hiloc_net::{ClientId, ServerId};
use hiloc_util::prop::{check, Gen};
use hiloc_util::rng::RngExt;
use hiloc_util::tempdir::TempDir;
use std::collections::BTreeMap;

/// Few oids, so records collide, flip kind and get removed again.
const OIDS: u64 = 10;

type Reference = BTreeMap<u64, VisitorRecord>;

fn record(g: &mut Gen) -> VisitorRecord {
    let epoch = Hlc(g.random_range(0..24u64));
    if g.chance(0.5) {
        let reg = RegInfo::new(ClientId(g.random_range(0..3u64)).into(), 10.0, 50.0, 2.0);
        VisitorRecord::Leaf {
            offered_acc_m: *g.pick(&[10.0, 25.0, 50.0]),
            reg,
            epoch,
        }
    } else {
        VisitorRecord::Forward {
            child: ServerId(g.random_range(0..4u32)),
            epoch,
        }
    }
}

fn oid(g: &mut Gen) -> ObjectId {
    ObjectId(g.random_range(0..OIDS))
}

fn is_leaf(rec: &VisitorRecord) -> bool {
    matches!(rec, VisitorRecord::Leaf { .. })
}

/// The reference `apply`: the newer (or equal) path change wins.
fn apply(reference: &mut Reference, oid: ObjectId, rec: VisitorRecord) -> bool {
    let keep = reference
        .get(&oid.0)
        .is_none_or(|e| e.epoch() <= rec.epoch());
    if keep {
        reference.insert(oid.0, rec);
    }
    keep
}

/// The reference `remove_if_older`.
fn remove_if_older(reference: &mut Reference, oid: ObjectId, epoch: Hlc) -> Option<VisitorRecord> {
    reference.get(&oid.0).filter(|e| e.epoch() <= epoch)?;
    reference.remove(&oid.0)
}

/// Every read the database offers agrees with the reference.
fn assert_same(db: &VisitorDb, reference: &Reference, what: &str) {
    assert_eq!(db.len(), reference.len(), "{what}: len");
    assert_eq!(db.is_empty(), reference.is_empty(), "{what}: is_empty");
    for k in 0..OIDS {
        assert_eq!(
            db.get(ObjectId(k)),
            reference.get(&k).copied(),
            "{what}: get({k})"
        );
    }
    let all: Vec<(ObjectId, VisitorRecord)> =
        reference.iter().map(|(&k, &v)| (ObjectId(k), v)).collect();
    assert_eq!(db.iter().collect::<Vec<_>>(), all, "{what}: iter");
    assert_eq!(
        db.iter_after(None).collect::<Vec<_>>(),
        all,
        "{what}: iter_after(None)"
    );
    for after in 0..=OIDS {
        let want: Vec<_> = all
            .iter()
            .copied()
            .filter(|(oid, _)| oid.0 > after)
            .collect();
        assert_eq!(
            db.iter_after(Some(ObjectId(after))).collect::<Vec<_>>(),
            want,
            "{what}: iter_after({after})"
        );
    }
}

/// One random mutation, applied to both sides; return values compared.
/// Returns whether an oid changed kind.
fn step(g: &mut Gen, db: &mut VisitorDb, reference: &mut Reference) -> bool {
    let before: BTreeMap<u64, bool> = reference.iter().map(|(&k, v)| (k, is_leaf(v))).collect();
    match g.random_range(0..4u32) {
        0 => {
            let (oid, rec) = (oid(g), record(g));
            assert_eq!(
                db.apply(oid, rec),
                apply(reference, oid, rec),
                "apply({oid:?}, {rec:?})"
            );
        }
        1 => {
            let (oid, epoch) = (oid(g), Hlc(g.random_range(0..24u64)));
            assert_eq!(
                db.remove_if_older(oid, epoch),
                remove_if_older(reference, oid, epoch),
                "remove_if_older"
            );
        }
        2 => {
            let batch: Vec<(ObjectId, VisitorRecord)> = (0..g.random_range(0..6usize))
                .map(|_| (oid(g), record(g)))
                .collect();
            let accepted = batch
                .iter()
                .filter(|&&(oid, rec)| apply(reference, oid, rec))
                .count();
            assert_eq!(db.apply_all(batch), accepted, "apply_all");
        }
        _ => {
            let oids: Vec<ObjectId> = (0..g.random_range(0..6usize)).map(|_| oid(g)).collect();
            let epoch = Hlc(g.random_range(0..24u64));
            let removed: Vec<ObjectId> = oids
                .iter()
                .copied()
                .filter(|&oid| remove_if_older(reference, oid, epoch).is_some())
                .collect();
            assert_eq!(
                db.remove_all_if_older(&oids, epoch),
                removed,
                "remove_all_if_older"
            );
        }
    }
    reference
        .iter()
        .any(|(k, v)| before.get(k).is_some_and(|&leaf| leaf != is_leaf(v)))
}

#[test]
fn split_table_matches_one_ordered_table() {
    let mut flips = 0;
    check(64, |g| {
        let mut db = VisitorDb::volatile();
        let mut reference = Reference::new();
        for i in 0..g.random_range(1..80usize) {
            flips += usize::from(step(g, &mut db, &mut reference));
            assert_same(&db, &reference, &format!("step {i}"));
        }
    });
    assert!(flips > 0, "no oid ever flipped between Leaf and Forward");
}

#[test]
fn split_table_survives_reopen_and_checkpoint() {
    check(24, |g| {
        let dir = TempDir::new("visitor-prop");
        let open = || VisitorDb::durable(dir.path(), StorageSyncPolicy::OsFlush).unwrap();
        let mut db = open();
        let mut reference = Reference::new();
        for i in 0..g.random_range(1..60usize) {
            step(g, &mut db, &mut reference);
            assert_same(&db, &reference, &format!("step {i}"));
            match g.random_range(0..8u32) {
                0 => {
                    drop(db);
                    db = open();
                    assert_same(&db, &reference, &format!("reopen after step {i}"));
                }
                1 => {
                    db.compact().unwrap();
                    drop(db);
                    db = open();
                    assert_same(
                        &db,
                        &reference,
                        &format!("checkpoint + reopen after step {i}"),
                    );
                }
                _ => {}
            }
        }
        drop(db);
        let mut db = open();
        assert_same(&db, &reference, "final reopen");
        db.compact().unwrap();
        drop(db);
        assert_same(&open(), &reference, "final checkpoint + reopen");
    });
}
