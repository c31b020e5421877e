//! The visitor database: per-object records with durable backing.

use crate::model::{Hlc, ObjectId, RegInfo};
use hiloc_net::{wire_enum, ServerId};
use hiloc_storage::{BatchOp, DurableMap, RecordValue, StorageError, SyncPolicy};
use std::collections::BTreeMap;
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

/// The visitor database: an in-memory ordered map with optional
/// write-ahead
/// durability (the paper keeps the visitorDB on persistent storage so
/// forwarding paths survive failures; simulation runs skip the disk).
pub struct VisitorDb {
    // A BTreeMap so iteration (keep-alives, stale scans) is in key
    // order: deterministic emission order is what makes same-seed
    // simulation runs bit-for-bit reproducible.
    mem: BTreeMap<ObjectId, VisitorRecord>,
    durable: Option<DurableMap<VisitorRecord>>,
}

impl std::fmt::Debug for VisitorDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VisitorDb")
            .field("records", &self.mem.len())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

impl VisitorDb {
    /// A volatile visitor database (for simulation).
    pub fn volatile() -> Self {
        VisitorDb { mem: BTreeMap::new(), durable: None }
    }

    /// A durable visitor database stored in `dir`, recovering any
    /// existing state.
    ///
    /// # Errors
    ///
    /// Returns an error when the store cannot be opened or is corrupt.
    pub fn durable(dir: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self, StorageError> {
        let mut map = DurableMap::open(dir, policy)?;
        let mut mem = BTreeMap::new();
        map.for_each(|k, v| {
            mem.insert(ObjectId(k), *v);
        })?;
        Ok(VisitorDb { mem, durable: Some(map) })
    }

    /// The record for `oid`.
    pub fn get(&self, oid: ObjectId) -> Option<&VisitorRecord> {
        self.mem.get(&oid)
    }

    /// Number of visitors.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// True when no visitors are recorded.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &VisitorRecord)> {
        self.mem.iter().map(|(&k, v)| (k, v))
    }

    /// Iterates records with ids strictly greater than `after`
    /// (`None` starts at the beginning) — the cursor behind chunked
    /// path-sync pulls.
    pub fn iter_after(
        &self,
        after: Option<ObjectId>,
    ) -> impl Iterator<Item = (ObjectId, &VisitorRecord)> {
        use std::ops::Bound;
        let lower = match after {
            None => Bound::Unbounded,
            Some(oid) => Bound::Excluded(oid),
        };
        self.mem.range((lower, Bound::Unbounded)).map(|(&k, v)| (k, v))
    }

    /// Inserts or replaces a record **iff** the existing record is not
    /// newer (`existing.epoch <= record.epoch`). Returns whether the
    /// record was applied.
    pub fn apply(&mut self, oid: ObjectId, record: VisitorRecord) -> bool {
        if let Some(existing) = self.mem.get(&oid) {
            if existing.epoch() > record.epoch() {
                return false;
            }
        }
        self.mem.insert(oid, record);
        if let Some(d) = &mut self.durable {
            // Durability failures must not corrupt protocol state; the
            // record stays in memory and the log error is surfaced via
            // the map's stats on the next compaction attempt.
            let _ = d.insert(oid.0, record);
        }
        true
    }

    /// Removes the record **iff** it is not newer than `epoch`.
    /// Returns the removed record.
    pub fn remove_if_older(&mut self, oid: ObjectId, epoch: Hlc) -> Option<VisitorRecord> {
        match self.mem.get(&oid) {
            Some(rec) if rec.epoch() <= epoch => {
                let rec = self.mem.remove(&oid);
                if let Some(d) = &mut self.durable {
                    let _ = d.remove(oid.0);
                }
                rec
            }
            _ => None,
        }
    }

    /// Applies a set of records (each epoch-guarded like
    /// [`VisitorDb::apply`]) and writes every accepted one as a
    /// **single atomic WAL record** with one durability round — the
    /// group-commit path for keep-alive refreshes and update batches.
    /// Returns how many records were accepted.
    pub fn apply_all(&mut self, records: Vec<(ObjectId, VisitorRecord)>) -> usize {
        let mut accepted: Vec<BatchOp<VisitorRecord>> = Vec::new();
        for (oid, record) in records {
            if let Some(existing) = self.mem.get(&oid) {
                if existing.epoch() > record.epoch() {
                    continue;
                }
            }
            self.mem.insert(oid, record);
            accepted.push(BatchOp::Put(oid.0, record));
        }
        let n = accepted.len();
        if let Some(d) = &mut self.durable {
            // Same stance as `apply`: durability failures must not
            // corrupt protocol state.
            let _ = d.apply_batch(accepted);
        }
        n
    }

    /// Enters WAL group-commit mode (no-op when volatile): mutations
    /// defer their fsync until [`VisitorDb::end_group_commit`].
    pub fn begin_group_commit(&mut self) {
        if let Some(d) = &mut self.durable {
            d.begin_group_commit();
        }
    }

    /// Leaves group-commit mode, performing the single deferred fsync.
    pub fn end_group_commit(&mut self) {
        if let Some(d) = &mut self.durable {
            let _ = d.end_group_commit();
        }
    }

    /// Removes every listed record whose epoch is not newer than
    /// `epoch` (the same guard as [`VisitorDb::remove_if_older`]),
    /// logging all accepted removals as a **single atomic WAL record**
    /// with one durability round — the transfer-completion twin of
    /// [`VisitorDb::apply_all`]. Returns the removed object ids.
    pub fn remove_all_if_older(&mut self, oids: &[ObjectId], epoch: Hlc) -> Vec<ObjectId> {
        let mut removed = Vec::new();
        let mut ops: Vec<BatchOp<VisitorRecord>> = Vec::new();
        for &oid in oids {
            match self.mem.get(&oid) {
                Some(rec) if rec.epoch() <= epoch => {
                    self.mem.remove(&oid);
                    ops.push(BatchOp::Del(oid.0));
                    removed.push(oid);
                }
                _ => {}
            }
        }
        if let Some(d) = &mut self.durable {
            // Same stance as `apply`: durability failures must not
            // corrupt protocol state.
            let _ = d.apply_batch(ops);
        }
        removed
    }

    /// The power-loss recovery points of the durable backing: for each
    /// engine file, the byte count guaranteed on stable storage (empty
    /// when volatile). See `DurableMap::power_loss_points`.
    pub fn power_loss_points(&self) -> Vec<(std::path::PathBuf, u64)> {
        self.durable.as_ref().map(DurableMap::power_loss_points).unwrap_or_default()
    }

    /// Removes the record unconditionally.
    pub fn remove(&mut self, oid: ObjectId) -> Option<VisitorRecord> {
        let rec = self.mem.remove(&oid);
        if rec.is_some() {
            if let Some(d) = &mut self.durable {
                let _ = d.remove(oid.0);
            }
        }
        rec
    }

    /// Compacts the durable backing (no-op when volatile).
    ///
    /// # Errors
    ///
    /// Returns an error when writing the snapshot fails.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        if let Some(d) = &mut self.durable {
            d.compact()?;
        }
        Ok(())
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
        assert_eq!(db.get(ObjectId(1)), Some(&fwd_rec(1, 100)));
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
            assert_eq!(db.get(ObjectId(2)), Some(&fwd_rec(4, 20)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
