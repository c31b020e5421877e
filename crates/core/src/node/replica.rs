//! The leaf replica table: k=2 visitor-record copies streamed from a
//! sibling agent (`FwdDelta { replica: true }`).
//!
//! A replica record is a *shadow* of the sibling's leaf record — enough
//! to serve a bounded-staleness position read (§6.5 contract) while the
//! agent is unreachable, never authoritative: the agent's HLC stamps
//! arbitrate every apply and remove, so the shadow converges to the
//! agent's history in stamp order no matter how batches are delayed,
//! duplicated or replayed.

use crate::model::{valid_acc, Hlc, Micros, ObjectId, RegInfo, Sighting};
use hiloc_net::wire_struct;
use hiloc_storage::{BatchOp, DurableMap, RecordValue, StorageError, SyncPolicy};
use std::collections::BTreeMap;
use std::path::Path;

wire_struct! {
    /// One replicated leaf record: registration, offered accuracy, the
    /// arbitrating HLC stamp and the agent's last shipped sighting.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ReplicaValue {
        /// Registration info at the agent.
        pub reg: RegInfo,
        /// Accuracy the agent currently offers.
        pub offered_acc_m: f64,
        /// HLC stamp of the replicated state (last-writer-wins).
        pub epoch: Hlc,
        /// The agent's sighting at ship time, when it had one.
        pub sighting: Option<Sighting>,
    }
    valid if valid_acc(offered_acc_m)
}

/// The on-disk record is the wire encoding, byte for byte.
impl RecordValue for ReplicaValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        hiloc_net::WireCodec::encode(self, buf);
    }

    fn decode(mut buf: &[u8]) -> Option<Self> {
        hiloc_net::WireCodec::decode(&mut buf)
    }
}

/// The replica table: HLC-guarded shadow records with the same durable
/// backing discipline as [`super::VisitorDb`] (its own WAL + snapshot in
/// a `replica/` subdirectory, so a power loss tears at most one of the
/// two logs and each recovers independently).
pub struct ReplicaDb {
    mem: BTreeMap<ObjectId, ReplicaValue>,
    durable: Option<DurableMap<ReplicaValue>>,
}

impl std::fmt::Debug for ReplicaDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaDb")
            .field("records", &self.mem.len())
            .field("durable", &self.durable.is_some())
            .finish()
    }
}

impl ReplicaDb {
    /// A volatile replica table (for simulation).
    pub fn volatile() -> Self {
        ReplicaDb { mem: BTreeMap::new(), durable: None }
    }

    /// A durable replica table stored in `dir`, recovering any existing
    /// state.
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
        Ok(ReplicaDb { mem, durable: Some(map) })
    }

    /// The replica record for `oid`.
    pub fn get(&self, oid: ObjectId) -> Option<&ReplicaValue> {
        self.mem.get(&oid)
    }

    /// Number of replica records.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Iterates over all replica records.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ReplicaValue)> {
        self.mem.iter().map(|(&k, v)| (k, v))
    }

    /// Applies a whole delta batch atomically: each put is HLC-guarded
    /// (`existing.epoch <= value.epoch` wins, so equal stamps — a
    /// replayed batch — apply idempotently), each remove deletes iff
    /// the copy is not newer than the removal stamp. All accepted
    /// mutations land as **one WAL batch record** with one durability
    /// round, so a torn tail recovers all of the batch or none of it.
    /// Returns how many mutations were accepted.
    pub fn apply_batch(&mut self, puts: Vec<(ObjectId, ReplicaValue)>, removes: &[(ObjectId, Hlc)]) -> usize {
        let mut ops: Vec<BatchOp<ReplicaValue>> = Vec::new();
        for (oid, value) in puts {
            if let Some(existing) = self.mem.get(&oid) {
                if existing.epoch > value.epoch {
                    continue;
                }
            }
            self.mem.insert(oid, value);
            ops.push(BatchOp::Put(oid.0, value));
        }
        for &(oid, stamp) in removes {
            match self.mem.get(&oid) {
                Some(v) if v.epoch <= stamp => {
                    self.mem.remove(&oid);
                    ops.push(BatchOp::Del(oid.0));
                }
                _ => {}
            }
        }
        let n = ops.len();
        if let Some(d) = &mut self.durable {
            // Durability failures must not corrupt protocol state (same
            // stance as the visitor database).
            let _ = d.apply_batch(ops);
        }
        n
    }

    /// Drops replica records whose stamp's physical component is older
    /// than `ttl_us` — the soft-state twin of the sighting expiry: a
    /// record the agent stopped refreshing (it deregistered, expired,
    /// or the stream broke) must not serve stale answers forever.
    /// Returns how many were dropped.
    pub fn sweep_expired(&mut self, now: Micros, ttl_us: Micros) -> usize {
        let stale: Vec<ObjectId> = self
            .mem
            .iter()
            .filter(|(_, v)| v.epoch.physical_us().saturating_add(ttl_us) <= now)
            .map(|(&oid, _)| oid)
            .collect();
        let n = stale.len();
        if !stale.is_empty() {
            let ops: Vec<BatchOp<ReplicaValue>> =
                stale.iter().map(|oid| BatchOp::Del(oid.0)).collect();
            for oid in stale {
                self.mem.remove(&oid);
            }
            if let Some(d) = &mut self.durable {
                let _ = d.apply_batch(ops);
            }
        }
        n
    }

    /// The power-loss recovery points of the durable backing (empty
    /// when volatile).
    pub fn power_loss_points(&self) -> Vec<(std::path::PathBuf, u64)> {
        self.durable.as_ref().map(DurableMap::power_loss_points).unwrap_or_default()
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
    use hiloc_geo::Point;
    use hiloc_net::ClientId;

    fn value(epoch: u64, with_sighting: bool) -> ReplicaValue {
        ReplicaValue {
            reg: RegInfo::new(ClientId(9).into(), 10.0, 50.0, 2.0),
            offered_acc_m: 12.5,
            epoch: Hlc(epoch),
            sighting: with_sighting
                .then(|| Sighting::new(ObjectId(7), 1_000, Point::new(3.0, 4.0), 5.0)),
        }
    }

    #[test]
    fn codec_roundtrip_both_shapes() {
        // The on-disk bytes are frozen: captured from the hand-written
        // codec that preceded the `wire_struct!` declaration.
        let frozen = [
            "01090000000000000000000000000024400000000000004940000000000000004000000000000029402a00000000000000010700000000000000e803000000000000000000000000084000000000000010400000000000001440",
            "0109000000000000000000000000002440000000000000494000000000000000400000000000002940070000000000000000",
        ];
        for (v, frozen) in [value(42, true), value(7, false)].into_iter().zip(frozen) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(hex(&buf), frozen);
            assert_eq!(ReplicaValue::decode(&buf), Some(v));
        }
        assert_eq!(ReplicaValue::decode(&[1, 2, 3]), None);
    }

    #[test]
    fn batch_apply_is_hlc_guarded_and_idempotent() {
        let mut db = ReplicaDb::volatile();
        assert_eq!(db.apply_batch(vec![(ObjectId(1), value(100, true))], &[]), 1);
        // Older put rejected; equal put (replayed batch) accepted.
        assert_eq!(db.apply_batch(vec![(ObjectId(1), value(50, false))], &[]), 0);
        assert_eq!(db.apply_batch(vec![(ObjectId(1), value(100, true))], &[]), 1);
        // Stale remove rejected, current remove wins.
        assert_eq!(db.apply_batch(Vec::new(), &[(ObjectId(1), Hlc(99))]), 0);
        assert!(db.get(ObjectId(1)).is_some());
        assert_eq!(db.apply_batch(Vec::new(), &[(ObjectId(1), Hlc(100))]), 1);
        assert!(db.is_empty());
    }

    #[test]
    fn sweep_drops_only_stale_stamps() {
        let mut db = ReplicaDb::volatile();
        let old = Hlc::from_parts(1, 0, 0); // 1 ms
        let new = Hlc::from_parts(900, 0, 0); // 900 ms
        db.apply_batch(
            vec![
                (ObjectId(1), ReplicaValue { epoch: old, ..value(0, true) }),
                (ObjectId(2), ReplicaValue { epoch: new, ..value(0, true) }),
            ],
            &[],
        );
        // now = 1 s, ttl = 500 ms: only the 1 ms stamp is stale.
        assert_eq!(db.sweep_expired(1_000_000, 500_000), 1);
        assert!(db.get(ObjectId(1)).is_none());
        assert!(db.get(ObjectId(2)).is_some());
    }

    #[test]
    fn durable_recovery_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hiloc-rdb-{}-{}", std::process::id(), 1));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = ReplicaDb::durable(&dir, SyncPolicy::OsFlush).unwrap();
            db.apply_batch(
                vec![(ObjectId(1), value(10, true)), (ObjectId(2), value(20, false))],
                &[],
            );
            db.apply_batch(Vec::new(), &[(ObjectId(1), Hlc(10))]);
        }
        {
            let db = ReplicaDb::durable(&dir, SyncPolicy::OsFlush).unwrap();
            assert_eq!(db.len(), 1);
            assert_eq!(db.get(ObjectId(2)), Some(&value(20, false)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
