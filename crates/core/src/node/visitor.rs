//! The visitor database: per-object records with durable backing.

use crate::model::{Hlc, ObjectId, RegInfo};
use hiloc_net::{wire_enum, ServerId};
use hiloc_storage::{BatchOp, DurableMap, RecordValue, StorageError, SyncPolicy, Table};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::Path;

wire_enum! {
    /// A visitor record (paper §5): what a server knows about an object
    /// currently inside its service area.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum VisitorRecord {
        /// Stored by the object's agent (leaf server): offered accuracy and
        /// registration info. The sighting itself lives in the volatile
        /// sighting database.
        Leaf = 0 {
            /// Currently offered accuracy (`v.offeredAcc`).
            offered_acc_m: f64,
            /// Registration information (`v.regInfo`).
            reg: RegInfo,
            /// Hybrid-logical-clock stamp of the last path change,
            /// guarding against stale create/remove races and arbitrating
            /// between replicas (last writer wins, node id tie-break).
            epoch: Hlc,
        },
        /// Stored by non-leaf servers: the child next on the path to the
        /// object's agent (`v.forwardRef`).
        Forward = 1 {
            /// The next-hop child server.
            child: ServerId,
            /// Hybrid-logical-clock stamp of the last path change.
            epoch: Hlc,
        },
    }
}

impl VisitorRecord {
    /// The record's path-change stamp.
    pub fn epoch(&self) -> Hlc {
        match self {
            VisitorRecord::Leaf { epoch, .. } | VisitorRecord::Forward { epoch, .. } => *epoch,
        }
    }
}

/// The on-disk record is the wire encoding, byte for byte.
impl RecordValue for VisitorRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        hiloc_net::WireCodec::encode(self, buf);
    }

    fn decode(mut buf: &[u8]) -> Option<Self> {
        hiloc_net::WireCodec::decode(&mut buf)
    }
}

/// A leaf record's fields, as the leaf table holds them.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    offered_acc_m: f64,
    reg: RegInfo,
    epoch: Hlc,
}

/// A forward record's fields: 16 bytes, where the `VisitorRecord` enum
/// takes the 56 of its leaf variant.
#[derive(Debug, Clone, Copy)]
struct Forward {
    child: ServerId,
    epoch: Hlc,
}

/// The visitor database's in-memory table: leaf records and forward
/// records in two ordered maps, each key in at most one of them. A
/// leaf server holds only the first and every ancestor only the second,
/// so a lookup probes one non-empty map. Reads hand out the
/// `VisitorRecord` by value, and iteration merges the two maps into one
/// ascending key order.
#[derive(Debug, Default)]
struct VisitorTable {
    leaves: BTreeMap<u64, Leaf>,
    forwards: BTreeMap<u64, Forward>,
}

impl Leaf {
    fn record(&self) -> VisitorRecord {
        VisitorRecord::Leaf { offered_acc_m: self.offered_acc_m, reg: self.reg, epoch: self.epoch }
    }
}

impl Forward {
    fn record(&self) -> VisitorRecord {
        VisitorRecord::Forward { child: self.child, epoch: self.epoch }
    }
}

impl Table<VisitorRecord> for VisitorTable {
    type Ref<'a> = VisitorRecord;

    fn from_snapshot(map: BTreeMap<u64, VisitorRecord>) -> Self {
        // Ascending input bulk-builds each map densely packed.
        let (mut leaves, mut forwards) = (Vec::new(), Vec::new());
        for (key, rec) in map {
            match rec {
                VisitorRecord::Leaf { offered_acc_m, reg, epoch } => {
                    leaves.push((key, Leaf { offered_acc_m, reg, epoch }))
                }
                VisitorRecord::Forward { child, epoch } => forwards.push((key, Forward { child, epoch })),
            }
        }
        VisitorTable { leaves: leaves.into_iter().collect(), forwards: forwards.into_iter().collect() }
    }

    fn get(&self, key: u64) -> Option<VisitorRecord> {
        match self.leaves.get(&key) {
            Some(leaf) => Some(leaf.record()),
            None => self.forwards.get(&key).map(Forward::record),
        }
    }

    fn insert(&mut self, key: u64, value: VisitorRecord) {
        // A key that flips kind leaves the other map.
        match value {
            VisitorRecord::Leaf { offered_acc_m, reg, epoch } => {
                self.leaves.insert(key, Leaf { offered_acc_m, reg, epoch });
                self.forwards.remove(&key);
            }
            VisitorRecord::Forward { child, epoch } => {
                self.forwards.insert(key, Forward { child, epoch });
                self.leaves.remove(&key);
            }
        }
    }

    fn remove(&mut self, key: u64) -> bool {
        self.leaves.remove(&key).is_some() || self.forwards.remove(&key).is_some()
    }

    fn len(&self) -> usize {
        self.leaves.len() + self.forwards.len()
    }

    fn range(&self, keys: (Bound<u64>, Bound<u64>)) -> impl Iterator<Item = (u64, VisitorRecord)> {
        let mut leaves = self.leaves.range(keys).peekable();
        let mut forwards = self.forwards.range(keys).peekable();
        std::iter::from_fn(move || {
            let leaf_first = match (leaves.peek(), forwards.peek()) {
                (Some((l, _)), Some((f, _))) => l < f,
                (l, _) => l.is_some(),
            };
            if leaf_first {
                leaves.next().map(|(&k, leaf)| (k, leaf.record()))
            } else {
                forwards.next().map(|(&k, fwd)| (k, fwd.record()))
            }
        })
    }
}

/// The visitor database: the records of one server, read in place from
/// the map that logs them (the paper keeps the visitorDB on persistent
/// storage so forwarding paths survive failures; simulation runs use a
/// volatile map and skip the disk).
///
/// Every accepted mutation changes the map even when its log write
/// fails: durability failures must not corrupt protocol state.
pub struct VisitorDb {
    // Iteration (keep-alives, stale scans) is in key order:
    // deterministic emission order is what makes same-seed simulation
    // runs bit-for-bit reproducible.
    map: DurableMap<VisitorRecord, VisitorTable>,
}

impl std::fmt::Debug for VisitorDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VisitorDb").field("records", &self.map.len()).finish()
    }
}

/// Whether `record` may replace `existing`: the newer (or equal) path
/// change wins.
fn not_older(existing: Option<&VisitorRecord>, record: &VisitorRecord) -> bool {
    existing.is_none_or(|e| e.epoch() <= record.epoch())
}

impl VisitorDb {
    /// A volatile visitor database (for simulation).
    pub fn volatile() -> Self {
        VisitorDb { map: DurableMap::volatile() }
    }

    /// A durable visitor database stored in `dir`, recovering any
    /// existing state.
    ///
    /// # Errors
    ///
    /// Returns an error when the store cannot be opened or is corrupt.
    pub fn durable(dir: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self, StorageError> {
        Ok(VisitorDb { map: DurableMap::open(dir, policy)? })
    }

    /// The record for `oid`.
    pub fn get(&self, oid: ObjectId) -> Option<VisitorRecord> {
        self.map.get(oid.0)
    }

    /// Number of visitors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no visitors are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, VisitorRecord)> + '_ {
        self.map.iter().map(|(k, v)| (ObjectId(k), v))
    }

    /// Iterates records with ids strictly greater than `after`
    /// (`None` starts at the beginning) — the cursor behind chunked
    /// path-sync pulls.
    pub fn iter_after(
        &self,
        after: Option<ObjectId>,
    ) -> impl Iterator<Item = (ObjectId, VisitorRecord)> + '_ {
        use std::ops::Bound;
        let lower = match after {
            None => Bound::Unbounded,
            Some(oid) => Bound::Excluded(oid.0),
        };
        self.map.range((lower, Bound::Unbounded)).map(|(k, v)| (ObjectId(k), v))
    }

    /// Inserts or replaces a record **iff** the existing record is not
    /// newer (`existing.epoch <= record.epoch`). Returns whether the
    /// record was applied.
    pub fn apply(&mut self, oid: ObjectId, record: VisitorRecord) -> bool {
        if !not_older(self.map.get(oid.0).as_ref(), &record) {
            return false;
        }
        let _ = self.map.insert(oid.0, record);
        true
    }

    /// Removes the record **iff** it is not newer than `epoch`.
    /// Returns the removed record.
    pub fn remove_if_older(&mut self, oid: ObjectId, epoch: Hlc) -> Option<VisitorRecord> {
        let rec = self.map.get(oid.0).filter(|rec| rec.epoch() <= epoch)?;
        let _ = self.map.remove(oid.0);
        Some(rec)
    }

    /// Applies a set of records (each epoch-guarded like
    /// [`VisitorDb::apply`]) and writes every accepted one as a
    /// **single atomic WAL record** with one durability round — the
    /// group-commit path for keep-alive refreshes and update batches.
    /// Returns how many records were accepted.
    pub fn apply_all(&mut self, records: Vec<(ObjectId, VisitorRecord)>) -> usize {
        let ops = records.into_iter().map(|(oid, record)| BatchOp::Put(oid.0, record));
        let mut accepted = 0;
        let _ = self.map.apply_batch_if(ops, |existing, op| {
            let keep = matches!(op, BatchOp::Put(_, record) if not_older(existing, record));
            accepted += usize::from(keep);
            keep
        });
        accepted
    }

    /// Enters WAL group-commit mode (no-op when volatile): mutations
    /// defer their fsync until [`VisitorDb::end_group_commit`].
    pub fn begin_group_commit(&mut self) {
        self.map.begin_group_commit();
    }

    /// Leaves group-commit mode, performing the single deferred fsync.
    pub fn end_group_commit(&mut self) {
        let _ = self.map.end_group_commit();
    }

    /// Removes every listed record whose epoch is not newer than
    /// `epoch` (the same guard as [`VisitorDb::remove_if_older`]),
    /// logging all accepted removals as a **single atomic WAL record**
    /// with one durability round — the transfer-completion twin of
    /// [`VisitorDb::apply_all`]. Returns the removed object ids.
    pub fn remove_all_if_older(&mut self, oids: &[ObjectId], epoch: Hlc) -> Vec<ObjectId> {
        let mut removed = Vec::new();
        let ops = oids.iter().map(|oid| BatchOp::Del(oid.0));
        let _ = self.map.apply_batch_if(ops, |existing, op| {
            let keep = existing.is_some_and(|rec| rec.epoch() <= epoch);
            if keep {
                removed.push(ObjectId(op.key()));
            }
            keep
        });
        removed
    }

    /// The power-loss recovery points of the durable backing: for each
    /// engine file, the byte count guaranteed on stable storage (empty
    /// when volatile). See `DurableMap::power_loss_points`.
    pub fn power_loss_points(&self) -> Vec<(std::path::PathBuf, u64)> {
        self.map.power_loss_points()
    }

    /// Removes the record unconditionally.
    pub fn remove(&mut self, oid: ObjectId) -> Option<VisitorRecord> {
        self.remove_if_older(oid, Hlc(u64::MAX))
    }

    /// Checkpoints the durable backing (no-op when volatile).
    ///
    /// # Errors
    ///
    /// Returns an error when writing the snapshot fails.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        self.map.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::hex;
    use hiloc_net::ClientId;

    fn reg() -> RegInfo {
        RegInfo::new(ClientId(5).into(), 10.0, 50.0, 2.0)
    }

    fn leaf_rec(epoch: u64) -> VisitorRecord {
        VisitorRecord::Leaf { offered_acc_m: 10.0, reg: reg(), epoch: Hlc(epoch) }
    }

    fn fwd_rec(child: u32, epoch: u64) -> VisitorRecord {
        VisitorRecord::Forward { child: ServerId(child), epoch: Hlc(epoch) }
    }

    #[test]
    fn record_codec_roundtrip() {
        // The on-disk bytes are frozen: captured from the hand-written
        // codec that preceded the `wire_enum!` declaration.
        let frozen = [
            "0000000000000024400105000000000000000000000000002440000000000000494000000000000000402a00000000000000",
            "01070000006400000000000000",
        ];
        for (rec, frozen) in [leaf_rec(42), fwd_rec(7, 100)].into_iter().zip(frozen) {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(hex(&buf), frozen);
            assert_eq!(VisitorRecord::decode(&buf), Some(rec));
        }
        assert_eq!(VisitorRecord::decode(&[9, 9]), None);
    }

    #[test]
    fn stored_registration_is_checked_on_read() {
        let bad = RegInfo { des_acc_m: 100.0, min_acc_m: 25.0, ..reg() };
        let mut buf = Vec::new();
        VisitorRecord::Leaf { offered_acc_m: 10.0, reg: bad, epoch: Hlc(1) }.encode(&mut buf);
        assert_eq!(VisitorRecord::decode(&buf), None);
    }

    #[test]
    fn epoch_guard_on_apply() {
        let mut db = VisitorDb::volatile();
        assert!(db.apply(ObjectId(1), fwd_rec(1, 100)));
        // Older epoch rejected.
        assert!(!db.apply(ObjectId(1), fwd_rec(2, 50)));
        assert_eq!(db.get(ObjectId(1)), Some(fwd_rec(1, 100)));
        // Equal epoch wins (last-writer for same logical instant).
        assert!(db.apply(ObjectId(1), fwd_rec(3, 100)));
        // Newer epoch wins.
        assert!(db.apply(ObjectId(1), leaf_rec(200)));
    }

    #[test]
    fn epoch_guard_on_remove() {
        let mut db = VisitorDb::volatile();
        db.apply(ObjectId(1), fwd_rec(1, 100));
        // A stale RemovePath must not tear down a newer path.
        assert!(db.remove_if_older(ObjectId(1), Hlc(50)).is_none());
        assert!(db.get(ObjectId(1)).is_some());
        assert!(db.remove_if_older(ObjectId(1), Hlc(100)).is_some());
        assert!(db.is_empty());
    }

    #[test]
    fn batch_remove_respects_epoch_guard() {
        let mut db = VisitorDb::volatile();
        db.apply(ObjectId(1), leaf_rec(10));
        db.apply(ObjectId(2), leaf_rec(10));
        db.apply(ObjectId(3), leaf_rec(99)); // re-registered after the transfer snapshot
        let removed = db.remove_all_if_older(&[ObjectId(1), ObjectId(2), ObjectId(3), ObjectId(4)], Hlc(50));
        assert_eq!(removed, vec![ObjectId(1), ObjectId(2)]);
        assert_eq!(db.len(), 1);
        assert!(db.get(ObjectId(3)).is_some(), "newer record must survive the batch removal");
    }

    #[test]
    fn batch_apply_guards_a_repeated_oid_against_its_own_earlier_record() {
        let mut db = VisitorDb::volatile();
        let batch = vec![
            (ObjectId(1), fwd_rec(1, 100)),
            (ObjectId(1), fwd_rec(2, 50)), // older than the record just above
            (ObjectId(2), leaf_rec(7)),
        ];
        assert_eq!(db.apply_all(batch), 2);
        assert_eq!(db.get(ObjectId(1)), Some(fwd_rec(1, 100)));
        let after: Vec<ObjectId> = db.iter_after(Some(ObjectId(1))).map(|(oid, _)| oid).collect();
        assert_eq!(after, [ObjectId(2)]);
    }

    /// Bytes-per-object ceiling for forward records, estimated as
    /// `size_of` of a `(key, Forward)` entry plus std's B-tree
    /// overhead: nodes of 11 entries behind a 12-byte header (parent
    /// pointer, parent index, length), internal nodes adding 12 child
    /// pointers, all filled to ln 2 ≈ 69 %, the expected occupancy under
    /// random-order inserts. (Ascending appends leave std's nodes about
    /// 6/11 full, ≈ 49 B per record; a snapshot reload packs them full,
    /// ≈ 26 B.) The 56-byte `VisitorRecord` costs 108 B under the same
    /// estimate. The count of records cancels out, so the estimate
    /// holds at 12 500 records as at any other size; what the test
    /// checks is that forward records do land in the narrow table.
    #[test]
    fn forward_records_cost_at_most_45_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Forward>(), 16);
        assert_eq!(size_of::<(u64, Forward)>(), 24);
        let per_node = 11.0 * std::f64::consts::LN_2;
        let leaf_node = (12 + 11 * size_of::<(u64, Forward)>()).next_multiple_of(8) as f64;
        // Each level above holds one node per (per_node + 1) below.
        let per_record = (leaf_node + (leaf_node + 12.0 * 8.0) / per_node) / per_node;
        assert!(per_record <= 45.0, "{per_record:.1} B per forward record");

        // Forward records go to the 16-byte map, the way
        // `DurableMap::insert` stores them; a kind flip moves the key.
        let mut table = VisitorTable::default();
        for i in 0..100u64 {
            table.insert(i, fwd_rec(3, i));
        }
        assert_eq!((table.forwards.len(), table.leaves.len()), (100, 0));
        table.insert(7, leaf_rec(1));
        assert_eq!((table.forwards.len(), table.leaves.len()), (99, 1));
    }

    #[test]
    fn durable_recovery() {
        let dir = std::env::temp_dir().join(format!("hiloc-vdb-{}-{}", std::process::id(), 1));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = VisitorDb::durable(&dir, SyncPolicy::OsFlush).unwrap();
            db.apply(ObjectId(1), leaf_rec(10));
            db.apply(ObjectId(2), fwd_rec(4, 20));
            db.remove(ObjectId(1));
        }
        {
            let db = VisitorDb::durable(&dir, SyncPolicy::OsFlush).unwrap();
            assert_eq!(db.len(), 1);
            assert_eq!(db.get(ObjectId(2)), Some(fwd_rec(4, 20)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
