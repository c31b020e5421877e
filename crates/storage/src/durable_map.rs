//! Durable key→value map: one in-memory table, a write-ahead log and a
//! sealed snapshot.
//!
//! This is the embedded substitute for the paper's DB2-backed visitor
//! database: every mutation is logged before it is acknowledged, and a
//! checkpoint bounds both recovery time and disk usage.
//!
//! # Engine layout
//!
//! Two files per map directory:
//!
//! * `wal.log` — the write-ahead log (see `wal.rs`). Holds only the
//!   mutations since the last checkpoint; truncated at every
//!   checkpoint and stamped with the checkpoint's generation.
//! * `checkpoint.bin` — the sealed snapshot: every live key and value
//!   as of the last checkpoint, CRC-sealed (see `checkpoint.rs`).
//!
//! In memory the map holds every value exactly once, in one ordered
//! table that callers read in place ([`DurableMap::get`],
//! [`DurableMap::iter`], [`DurableMap::range`]): the visitor and
//! replica tables are views over this map, not copies beside it. The
//! table is a `BTreeMap<u64, V>` unless the owner supplies a narrower
//! [`Table`] (the visitor database keeps its forward references in 16
//! bytes each); the files hold `V`'s encoding either way.
//! Recovery is *load the snapshot + replay the WAL suffix* — its cost
//! follows the live state and the suffix length, never the total
//! history. A [`DurableMap::volatile`] map is the same table with no
//! files behind it.

use crate::checkpoint;
use crate::{StorageError, Wal};
use hiloc_util::buf::{Buf, BufMut};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fs;
use std::ops::{Bound, RangeBounds};
use std::path::{Path, PathBuf};

/// How aggressively the map makes writes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every mutation — full durability, the paper's
    /// "persistent registration information" contract.
    #[default]
    Always,
    /// Flush to the OS after every mutation, fsync only on checkpoint
    /// and close. Survives process crashes but not power loss.
    OsFlush,
    /// Buffer writes; flush on checkpoint/close only. For benchmarks.
    Buffered,
}

/// A value that can live in a [`DurableMap`].
pub trait RecordValue: Sized + Clone {
    /// Appends the encoded value to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value from `buf`, or `None` when malformed.
    fn decode(buf: &[u8]) -> Option<Self>;
}

impl RecordValue for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        Some(buf.to_vec())
    }
}

/// The ordered in-memory table behind a [`DurableMap`]: each `u64` key
/// to one `V`, read in ascending key order.
pub trait Table<V>: Default {
    /// What reads hand out: a reference where the table stores `V`
    /// itself, the value where it stores a narrower form of it.
    type Ref<'a>: Borrow<V>
    where
        Self: 'a;

    /// The table a committed snapshot holds (a bulk-built map).
    fn from_snapshot(map: BTreeMap<u64, V>) -> Self;
    /// The value for `key`, when present.
    fn get(&self, key: u64) -> Option<Self::Ref<'_>>;
    /// Inserts or replaces the value for `key`.
    fn insert(&mut self, key: u64, value: V);
    /// Removes `key`, returning whether it was present.
    fn remove(&mut self, key: u64) -> bool;
    /// Number of entries.
    fn len(&self) -> usize;
    /// True when no entries exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The entries whose keys fall in `keys`, ascending.
    fn range(&self, keys: (Bound<u64>, Bound<u64>)) -> impl Iterator<Item = (u64, Self::Ref<'_>)>;
}

impl<V> Table<V> for BTreeMap<u64, V> {
    type Ref<'a>
        = &'a V
    where
        V: 'a;

    fn from_snapshot(map: BTreeMap<u64, V>) -> Self {
        map
    }
    fn get(&self, key: u64) -> Option<&V> {
        BTreeMap::get(self, &key)
    }
    fn insert(&mut self, key: u64, value: V) {
        BTreeMap::insert(self, key, value);
    }
    fn remove(&mut self, key: u64) -> bool {
        BTreeMap::remove(self, &key).is_some()
    }
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }
    fn range(&self, keys: (Bound<u64>, Bound<u64>)) -> impl Iterator<Item = (u64, &V)> {
        BTreeMap::range(self, keys).map(|(&k, v)| (k, v))
    }
}

const OP_PUT: u8 = 1;
const OP_DEL: u8 = 2;
/// A multi-mutation record: applied all-or-nothing on replay (a torn
/// tail drops the whole record, never a prefix of its mutations).
const OP_BATCH: u8 = 3;

/// WAL bytes that trigger an automatic checkpoint (unless overridden
/// via [`DurableMap::set_auto_checkpoint`]): the log stays bounded
/// over weeks of uptime without any caller-side compaction schedule.
pub const DEFAULT_AUTO_CHECKPOINT_BYTES: u64 = 8 * 1024 * 1024;

/// One mutation of an atomic batch (see [`DurableMap::apply_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp<V> {
    /// Insert or replace `key`.
    Put(u64, V),
    /// Remove `key`.
    Del(u64),
}

impl<V> BatchOp<V> {
    /// The key the mutation touches.
    pub fn key(&self) -> u64 {
        match self {
            BatchOp::Put(key, _) | BatchOp::Del(key) => *key,
        }
    }
}

/// Runtime statistics of a [`DurableMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableMapStats {
    /// Mutations applied since open.
    pub mutations: u64,
    /// Records replayed from the WAL at open (the suffix since the
    /// last checkpoint — never the whole history).
    pub replayed: u64,
    /// Entries loaded from the checkpoint snapshot at open.
    pub snapshot_loaded: u64,
    /// Checkpoints written since open (explicit and automatic).
    pub snapshots_written: u64,
}

/// The files behind a durable map, and how it writes them.
#[derive(Debug)]
struct Log {
    dir: PathBuf,
    wal: Wal,
    /// Current checkpoint generation (0 before the first checkpoint).
    generation: u64,
    policy: SyncPolicy,
    /// Group-commit mode: while active, `SyncPolicy::Always` degrades
    /// each mutation's fsync to an OS flush; the deferred fsync happens
    /// once in [`DurableMap::end_group_commit`].
    group_commit: bool,
    /// Whether any mutation deferred a sync since the group began.
    sync_pending: bool,
    /// Automatic checkpoint threshold on WAL record bytes, or `None`
    /// to checkpoint only on explicit [`DurableMap::compact`] calls.
    auto_checkpoint_bytes: Option<u64>,
}

impl Log {
    /// Appends one record and applies the sync policy to it.
    fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        self.wal.append(payload)?;
        match self.policy {
            SyncPolicy::Always if self.group_commit => {
                self.sync_pending = true;
                self.wal.flush()
            }
            SyncPolicy::Always => self.wal.sync(),
            SyncPolicy::OsFlush => self.wal.flush(),
            SyncPolicy::Buffered => Ok(()),
        }
    }

    fn checkpoint_due(&self) -> bool {
        !self.group_commit
            && self.auto_checkpoint_bytes.is_some_and(|threshold| self.wal.data_bytes() >= threshold)
    }
}

/// A crash-safe `u64 → V` map: one ordered in-memory table, logged to
/// a WAL and checkpointed as a sealed snapshot.
///
/// * `insert`/`remove`/`apply_batch` append to the WAL (durability per
///   [`SyncPolicy`]) and update the table.
/// * [`DurableMap::compact`] takes a checkpoint: the whole table is
///   written as one snapshot, committed atomically (`tmp` + fsync +
///   rename + dir fsync), and the WAL truncates behind it. Runs
///   automatically once the WAL passes the auto-checkpoint threshold.
/// * [`DurableMap::open`] loads the snapshot, arbitrates the WAL's
///   generation against the snapshot's and replays only the WAL
///   suffix, streaming record by record.
///
/// A mutation always reaches the table, even when its log write fails:
/// the table is the one copy its owner serves from, and the returned
/// error only says the change may not survive a restart.
///
/// # Example
///
/// ```no_run
/// use hiloc_storage::{DurableMap, SyncPolicy};
///
/// # fn main() -> Result<(), hiloc_storage::StorageError> {
/// let mut db: DurableMap<Vec<u8>> = DurableMap::open("/tmp/hiloc-visitors", SyncPolicy::OsFlush)?;
/// db.insert(42, b"forward-ref:child-3".to_vec())?;
/// db.compact()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DurableMap<V: RecordValue, T: Table<V> = BTreeMap<u64, V>> {
    map: T,
    value: std::marker::PhantomData<V>,
    /// `None` for a volatile map.
    log: Option<Log>,
    stats: DurableMapStats,
}

impl<V: RecordValue, T: Table<V>> DurableMap<V, T> {
    /// A map with no files behind it: mutations touch only memory,
    /// checkpoints and syncs are no-ops. Simulation runs use it.
    pub fn volatile() -> Self {
        DurableMap::with(T::default(), None, DurableMapStats::default())
    }

    fn with(map: T, log: Option<Log>, stats: DurableMapStats) -> Self {
        DurableMap { map, value: std::marker::PhantomData, log, stats }
    }

    /// Opens (creating if needed) a durable map stored in directory
    /// `dir`, recovering state from `checkpoint.bin` + `wal.log`.
    ///
    /// Generation arbitration: a WAL stamped with the snapshot's
    /// generation is the post-checkpoint suffix and is replayed; a WAL
    /// one generation *behind* lost power between the snapshot commit
    /// and the WAL truncation — every record in it is already covered
    /// by the snapshot, so it is discarded, not replayed; a WAL *ahead*
    /// of the snapshot means the committed snapshot was lost, which is
    /// unrecoverable.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or a corrupt/lost checkpoint. A
    /// corrupt WAL *tail* is repaired silently (crash recovery);
    /// corrupt WAL entries before the tail are impossible by
    /// construction.
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut stats = DurableMapStats::default();

        let (generation, snapshot) = checkpoint::load(&dir)?.unwrap_or_default();
        let mut map = T::from_snapshot(snapshot);
        stats.snapshot_loaded = map.len() as u64;

        let (mut wal, mut replay) = Wal::open(dir.join("wal.log"))?;
        if wal.generation() == generation {
            loop {
                let offset = replay.offset();
                let Some(rec) = replay.next_record()? else { break };
                apply_record(&mut map, rec)
                    .ok_or(StorageError::Corrupt { offset, reason: "undecodable WAL record" })?;
                stats.replayed += 1;
            }
        } else if wal.generation() < generation {
            // Power loss between the snapshot commit and the WAL
            // truncation: the stale log is fully covered by the
            // snapshot. Finish the interrupted truncation now.
            drop(replay);
            wal.reset(generation)?;
        } else {
            return Err(StorageError::Corrupt {
                offset: 0,
                reason: "WAL generation ahead of the checkpoint snapshot",
            });
        }

        let log = Log {
            dir,
            wal,
            generation,
            policy,
            group_commit: false,
            sync_pending: false,
            auto_checkpoint_bytes: Some(DEFAULT_AUTO_CHECKPOINT_BYTES),
        };
        Ok(DurableMap::with(map, Some(log), stats))
    }

    /// Inserts or replaces the value for `key`, logging the mutation
    /// first.
    ///
    /// # Errors
    ///
    /// Returns an error when the WAL write fails (the table changed
    /// anyway; see the type docs).
    pub fn insert(&mut self, key: u64, value: V) -> Result<(), StorageError> {
        let logged = self.log_record(|p| {
            p.put_u8(OP_PUT);
            p.put_u64_le(key);
            value.encode(p);
        });
        self.stats.mutations += 1;
        self.map.insert(key, value);
        logged?;
        self.maybe_auto_checkpoint()
    }

    /// Removes `key`, returning whether it was present. Removing an
    /// absent key logs nothing.
    ///
    /// # Errors
    ///
    /// Returns an error when the WAL write fails.
    pub fn remove(&mut self, key: u64) -> Result<bool, StorageError> {
        if !self.map.remove(key) {
            return Ok(false);
        }
        self.stats.mutations += 1;
        self.log_record(|p| {
            p.put_u8(OP_DEL);
            p.put_u64_le(key);
        })?;
        self.maybe_auto_checkpoint()?;
        Ok(true)
    }

    /// Applies several mutations **atomically**: the whole batch is one
    /// CRC-framed WAL record, so crash recovery replays either all of
    /// it or none of it — a torn tail can never expose a prefix of the
    /// batch. One durability round (a single fsync under
    /// [`SyncPolicy::Always`]) covers every mutation: group commit.
    ///
    /// # Errors
    ///
    /// Returns an error when the WAL write fails.
    pub fn apply_batch(&mut self, ops: Vec<BatchOp<V>>) -> Result<(), StorageError> {
        self.apply_batch_if(ops, |_, _| true).map(drop)
    }

    /// [`DurableMap::apply_batch`] for the mutations `keep` accepts.
    /// `keep` is asked once per mutation, in order, and sees the key's
    /// current value as the earlier mutations of this batch left it, so
    /// a guard (an epoch check, say) holds across repeated keys.
    /// Returns how many mutations were applied; a batch that keeps
    /// none logs nothing.
    ///
    /// # Errors
    ///
    /// Returns an error when the WAL write fails.
    pub fn apply_batch_if(
        &mut self,
        ops: impl IntoIterator<Item = BatchOp<V>>,
        mut keep: impl FnMut(Option<&V>, &BatchOp<V>) -> bool,
    ) -> Result<usize, StorageError> {
        // A volatile map encodes nothing.
        let mut payload = self.log.as_ref().map(|_| {
            let mut p = Vec::with_capacity(64);
            p.put_u8(OP_BATCH);
            p.put_u32_le(0);
            p
        });
        let mut applied = 0u32;
        for op in ops {
            if !keep(self.map.get(op.key()).as_ref().map(Borrow::borrow), &op) {
                continue;
            }
            if let Some(p) = payload.as_mut() {
                encode_op(p, &op);
            }
            apply_op(&mut self.map, op);
            applied += 1;
        }
        self.stats.mutations += u64::from(applied);
        if let (Some(mut p), Some(log)) = (payload, self.log.as_mut()) {
            if applied > 0 {
                p[1..5].copy_from_slice(&applied.to_le_bytes());
                log.append(&p)?;
            }
        }
        self.maybe_auto_checkpoint()?;
        Ok(applied as usize)
    }

    /// Enters group-commit mode: until
    /// [`DurableMap::end_group_commit`], mutations under
    /// [`SyncPolicy::Always`] flush to the OS but defer the fsync.
    /// Used to amortize durability cost over a message batch — callers
    /// must not acknowledge anything before ending the group.
    pub fn begin_group_commit(&mut self) {
        if let Some(log) = &mut self.log {
            log.group_commit = true;
        }
    }

    /// Leaves group-commit mode, performing the single deferred fsync
    /// when any mutation was logged during the group.
    ///
    /// # Errors
    ///
    /// Returns an error when the sync fails.
    pub fn end_group_commit(&mut self) -> Result<(), StorageError> {
        if let Some(log) = &mut self.log {
            log.group_commit = false;
            if std::mem::take(&mut log.sync_pending) {
                log.wal.sync()?;
            }
        }
        self.maybe_auto_checkpoint()
    }

    /// The value for `key`, when present.
    pub fn get(&self, key: u64) -> Option<T::Ref<'_>> {
        self.map.get(key)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.map.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every `(key, value)` pair in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, T::Ref<'_>)> {
        self.map.range((Bound::Unbounded, Bound::Unbounded))
    }

    /// The `(key, value)` pairs whose keys fall in `keys`, ascending.
    pub fn range(&self, keys: impl RangeBounds<u64>) -> impl Iterator<Item = (u64, T::Ref<'_>)> {
        self.map.range((keys.start_bound().cloned(), keys.end_bound().cloned()))
    }

    /// Current statistics.
    pub fn stats(&self) -> DurableMapStats {
        self.stats
    }

    /// Record bytes currently in the WAL (drives the auto-checkpoint
    /// heuristic; 0 right after a checkpoint and for a volatile map).
    pub fn wal_bytes(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.wal.data_bytes())
    }

    /// The current checkpoint generation (0 before the first one).
    pub fn generation(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.generation)
    }

    /// Overrides the automatic checkpoint threshold (WAL record bytes;
    /// `None` disables automatic checkpoints entirely).
    pub fn set_auto_checkpoint(&mut self, bytes: Option<u64>) {
        if let Some(log) = &mut self.log {
            log.auto_checkpoint_bytes = bytes;
        }
    }

    /// The power-loss recovery points: for each of the map's files,
    /// the number of bytes guaranteed on stable storage (none for a
    /// volatile map). A simulator models power loss (as opposed to a
    /// process crash, which flushes buffers on drop) by truncating each
    /// file to its offset *after* dropping this map. The WAL point
    /// moves with [`Wal::sync`]; the snapshot is rename-committed, so
    /// its point is always its full length.
    pub fn power_loss_points(&self) -> Vec<(PathBuf, u64)> {
        let Some(log) = &self.log else {
            return Vec::new();
        };
        let mut points = vec![(log.wal.path().to_path_buf(), log.wal.synced_bytes())];
        let snapshot = log.dir.join(checkpoint::SNAPSHOT_FILE);
        if let Ok(meta) = fs::metadata(&snapshot) {
            points.push((snapshot, meta.len()));
        }
        points
    }

    /// Takes a checkpoint: writes the whole table as generation *g+1*'s
    /// sealed snapshot and truncates the WAL behind it. Afterwards
    /// recovery replays nothing. A no-op for a volatile map.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure; the previous checkpoint (and
    /// the WAL) remain intact in that case.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let generation = log.generation + 1;
        // Snapshot first, then the WAL — the ordering the generation
        // arbitration in `open` relies on.
        checkpoint::write(&log.dir, generation, &self.map)?;
        log.wal.reset(generation)?;
        log.generation = generation;
        self.stats.snapshots_written += 1;
        Ok(())
    }

    /// Flushes and fsyncs outstanding writes regardless of policy.
    ///
    /// # Errors
    ///
    /// Returns an error when syncing fails.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        match &mut self.log {
            Some(log) => log.wal.sync(),
            None => Ok(()),
        }
    }

    /// Appends one single-mutation record that `encode` writes; a
    /// volatile map encodes nothing.
    fn log_record(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), StorageError> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let mut payload = Vec::with_capacity(16);
        encode(&mut payload);
        log.append(&payload)
    }

    fn maybe_auto_checkpoint(&mut self) -> Result<(), StorageError> {
        if self.log.as_ref().is_some_and(Log::checkpoint_due) {
            self.compact()?;
        }
        Ok(())
    }
}

/// Appends one batch mutation: `[op][key]`, plus `[len][value]` for a
/// put.
fn encode_op<V: RecordValue>(payload: &mut Vec<u8>, op: &BatchOp<V>) {
    match op {
        BatchOp::Put(key, value) => {
            payload.put_u8(OP_PUT);
            payload.put_u64_le(*key);
            // Reserve the length slot, encode in place, then
            // backpatch — no temp allocation per value.
            let len_at = payload.len();
            payload.put_u32_le(0);
            value.encode(payload);
            let len = (payload.len() - len_at - 4) as u32;
            payload[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        }
        BatchOp::Del(key) => {
            payload.put_u8(OP_DEL);
            payload.put_u64_le(*key);
        }
    }
}

fn apply_op<V>(map: &mut impl Table<V>, op: BatchOp<V>) {
    match op {
        BatchOp::Put(key, value) => map.insert(key, value),
        BatchOp::Del(key) => {
            map.remove(key);
        }
    }
}

/// Replays one WAL record into the table.
fn apply_record<V: RecordValue>(map: &mut impl Table<V>, rec: &[u8]) -> Option<()> {
    let mut buf = rec;
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        OP_PUT => {
            if buf.remaining() < 8 {
                return None;
            }
            let key = buf.get_u64_le();
            map.insert(key, V::decode(buf)?);
            Some(())
        }
        OP_DEL => {
            if buf.remaining() < 8 {
                return None;
            }
            map.remove(buf.get_u64_le());
            Some(())
        }
        OP_BATCH => {
            if buf.remaining() < 4 {
                return None;
            }
            let count = buf.get_u32_le();
            // Decode the whole batch before touching the table: a
            // record that fails half-way must not apply a prefix.
            let mut staged: Vec<BatchOp<V>> = Vec::new();
            for _ in 0..count {
                if buf.remaining() < 9 {
                    return None;
                }
                let op = buf.get_u8();
                let key = buf.get_u64_le();
                match op {
                    OP_PUT => {
                        if buf.remaining() < 4 {
                            return None;
                        }
                        let len = buf.get_u32_le() as usize;
                        if buf.remaining() < len {
                            return None;
                        }
                        staged.push(BatchOp::Put(key, V::decode(&buf[..len])?));
                        buf.advance(len);
                    }
                    OP_DEL => staged.push(BatchOp::Del(key)),
                    _ => return None,
                }
            }
            for op in staged {
                apply_op(map, op);
            }
            Some(())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::tests::TempDir;

    fn open(dir: &TempDir) -> DurableMap<Vec<u8>> {
        DurableMap::open(dir.path(), SyncPolicy::OsFlush).unwrap()
    }

    fn get(db: &DurableMap<Vec<u8>>, key: u64) -> Option<Vec<u8>> {
        db.get(key).cloned()
    }

    #[test]
    fn basic_crud_and_recovery() {
        let dir = TempDir::new("crud");
        {
            let mut db = open(&dir);
            db.insert(1, b"one".to_vec()).unwrap();
            db.insert(1, b"uno".to_vec()).unwrap();
            db.insert(2, b"two".to_vec()).unwrap();
            assert!(db.remove(2).unwrap());
            assert!(!db.remove(99).unwrap(), "removing an absent key is a no-op");
            db.sync().unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.len(), 1);
        assert_eq!(get(&db, 1).unwrap(), b"uno");
        assert!(get(&db, 2).is_none());
        assert_eq!(db.stats().replayed, 4);
    }

    #[test]
    fn checkpoint_plus_wal_suffix_recovery() {
        let dir = TempDir::new("snap");
        {
            let mut db = open(&dir);
            for k in 0..100u64 {
                db.insert(k, vec![k as u8; 8]).unwrap();
            }
            db.compact().unwrap();
            // Post-checkpoint mutations live only in the WAL.
            db.insert(200, b"tail".to_vec()).unwrap();
            db.remove(5).unwrap();
            db.sync().unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.len(), 100); // 100 - 1 removed + 1 added
        assert_eq!(db.stats().snapshot_loaded, 100);
        assert_eq!(db.stats().replayed, 2, "only the WAL suffix replays");
        assert!(get(&db, 5).is_none());
        assert_eq!(get(&db, 200).unwrap(), b"tail");
    }

    #[test]
    fn restart_after_checkpoint_replays_only_the_suffix() {
        // The acceptance assertion: the pre-checkpoint WAL prefix is
        // gone from disk and recovery touches only the suffix.
        let dir = TempDir::new("suffix");
        let wal_after_history;
        {
            let mut db = open(&dir);
            for k in 0..500u64 {
                db.insert(k, vec![0xAB; 16]).unwrap();
            }
            db.sync().unwrap();
            wal_after_history = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
            db.compact().unwrap();
            db.insert(1000, b"suffix-1".to_vec()).unwrap();
            db.insert(1001, b"suffix-2".to_vec()).unwrap();
            db.sync().unwrap();
        }
        let wal_now = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
        assert!(
            wal_now < wal_after_history / 10,
            "the pre-checkpoint prefix must be truncated on disk \
             ({wal_now} bytes left of {wal_after_history})"
        );
        let db = open(&dir);
        assert_eq!(db.stats().replayed, 2, "recovery replays exactly the post-checkpoint suffix");
        assert_eq!(db.stats().snapshot_loaded, 500);
        assert_eq!(db.len(), 502);
    }

    #[test]
    fn compact_resets_wal() {
        let dir = TempDir::new("compact");
        let mut db = open(&dir);
        for k in 0..50u64 {
            db.insert(k, b"v".to_vec()).unwrap();
        }
        assert!(db.wal_bytes() > 0);
        db.compact().unwrap();
        assert_eq!(db.wal_bytes(), 0);
        assert_eq!(db.len(), 50);
        assert_eq!(db.generation(), 1);
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let dir = TempDir::new("torn");
        {
            let mut db = open(&dir);
            db.insert(1, b"aaa".to_vec()).unwrap();
            db.insert(2, b"bbb".to_vec()).unwrap();
            db.sync().unwrap();
        }
        let wal_path = dir.path().join("wal.log");
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);

        let db = open(&dir);
        assert_eq!(db.len(), 1);
        assert!(db.contains_key(1));
    }

    #[test]
    fn corrupt_snapshot_is_an_error() {
        let dir = TempDir::new("badsnap");
        {
            let mut db = open(&dir);
            db.insert(1, b"x".to_vec()).unwrap();
            db.compact().unwrap();
        }
        let snap = dir.path().join("checkpoint.bin");
        let mut raw = std::fs::read(&snap).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&snap, &raw).unwrap();

        let res: Result<DurableMap<Vec<u8>>, _> =
            DurableMap::open(dir.path(), SyncPolicy::OsFlush);
        assert!(matches!(res, Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn undecodable_wal_record_is_reported_at_its_offset() {
        let dir = TempDir::new("badop");
        {
            let mut db = open(&dir);
            db.insert(1, b"a".to_vec()).unwrap();
            db.insert(2, b"b".to_vec()).unwrap();
            db.sync().unwrap();
        }
        // A CRC-valid record the map cannot decode (unknown op byte).
        let wal_path = dir.path().join("wal.log");
        let bad_at = std::fs::metadata(&wal_path).unwrap().len();
        let (mut wal, _) = Wal::open(&wal_path).unwrap();
        wal.append(&[0x7F, 1, 2, 3]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        match DurableMap::<Vec<u8>>::open(dir.path(), SyncPolicy::OsFlush) {
            Err(StorageError::Corrupt { offset, reason: "undecodable WAL record" }) => {
                assert_eq!(offset, bad_at, "the error names the bad record's offset");
            }
            other => panic!("expected Corrupt at {bad_at}, got {other:?}"),
        }
    }

    #[test]
    fn a_store_in_the_paged_layout_is_refused_by_name() {
        // The files a paged-engine binary leaves after inserting
        // (7, "visitor") and taking one checkpoint: an "HCK1" manifest
        // pointing into `pages.bin`, and a generation-1 WAL.
        const MANIFEST: &str = "314b434801000000000000000100000001000000000000000700000000000000\
                                000000000000070000009fe1e5ca000000000100000000070000000000000058\
                                fa3a0f";
        let hex = |s: &str| -> Vec<u8> {
            (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
        };
        let dir = TempDir::new("paged");
        std::fs::write(dir.path().join("checkpoint.bin"), hex(MANIFEST)).unwrap();
        std::fs::write(dir.path().join("wal.log"), hex("314c5748010000000000000000000000"))
            .unwrap();
        std::fs::write(dir.path().join("pages.bin"), b"visitor").unwrap();
        match DurableMap::<Vec<u8>>::open(dir.path(), SyncPolicy::OsFlush) {
            Err(StorageError::Corrupt { reason, .. }) => assert!(reason.contains("HCK1"), "{reason}"),
            other => panic!("a paged-layout store must be refused, got {other:?}"),
        }
    }

    #[test]
    fn lost_snapshot_behind_a_newer_wal_is_an_error() {
        let dir = TempDir::new("lostsnap");
        {
            let mut db = open(&dir);
            db.insert(1, b"x".to_vec()).unwrap();
            db.compact().unwrap();
            db.insert(2, b"y".to_vec()).unwrap();
            db.sync().unwrap();
        }
        std::fs::remove_file(dir.path().join("checkpoint.bin")).unwrap();
        let res: Result<DurableMap<Vec<u8>>, _> =
            DurableMap::open(dir.path(), SyncPolicy::OsFlush);
        assert!(
            matches!(res, Err(StorageError::Corrupt { .. })),
            "a WAL generation ahead of the snapshot must not silently lose the checkpoint"
        );
    }

    #[test]
    fn stale_wal_behind_the_snapshot_is_discarded_not_replayed() {
        // Simulates a power loss between the snapshot rename and the
        // WAL truncation: the old WAL (generation g) survives next to
        // a generation-g+1 snapshot that already covers every record
        // in it.
        let dir = TempDir::new("stalewal");
        let wal_path = dir.path().join("wal.log");
        let stale_wal;
        {
            let mut db = open(&dir);
            db.insert(1, b"covered".to_vec()).unwrap();
            db.insert(2, b"also-covered".to_vec()).unwrap();
            db.sync().unwrap();
            stale_wal = std::fs::read(&wal_path).unwrap();
            db.compact().unwrap();
        }
        // Put the pre-checkpoint WAL back: generation 0 vs snapshot 1.
        std::fs::write(&wal_path, &stale_wal).unwrap();
        let db = open(&dir);
        assert_eq!(db.stats().replayed, 0, "a stale WAL must not be replayed");
        assert_eq!(db.len(), 2);
        assert_eq!(get(&db, 1).unwrap(), b"covered");
        assert_eq!(db.generation(), 1);
        // And the interrupted truncation finished: the WAL is empty
        // and restamped.
        assert_eq!(db.wal_bytes(), 0);
    }

    #[test]
    fn sync_policies_all_work() {
        for policy in [SyncPolicy::Always, SyncPolicy::OsFlush, SyncPolicy::Buffered] {
            let dir = TempDir::new("policy");
            {
                let mut db: DurableMap<Vec<u8>> =
                    DurableMap::open(dir.path(), policy).unwrap();
                db.insert(7, b"val".to_vec()).unwrap();
                db.sync().unwrap();
            }
            let db: DurableMap<Vec<u8>> = DurableMap::open(dir.path(), policy).unwrap();
            assert_eq!(db.get(7).unwrap(), b"val", "policy {policy:?}");
        }
    }

    #[test]
    fn batch_applies_and_recovers() {
        let dir = TempDir::new("batch");
        {
            let mut db = open(&dir);
            db.insert(1, b"old".to_vec()).unwrap();
            db.apply_batch(vec![
                BatchOp::Put(1, b"new".to_vec()),
                BatchOp::Put(2, b"two".to_vec()),
                BatchOp::Del(1),
                BatchOp::Put(3, b"three".to_vec()),
            ])
            .unwrap();
            assert!(get(&db, 1).is_none(), "batch ops apply in order");
            assert_eq!(db.stats().mutations, 5);
            db.sync().unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.len(), 2);
        assert!(get(&db, 1).is_none());
        assert_eq!(get(&db, 2).unwrap(), b"two");
        assert_eq!(get(&db, 3).unwrap(), b"three");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let dir = TempDir::new("batch0");
        let mut db = open(&dir);
        db.apply_batch(Vec::new()).unwrap();
        assert_eq!(db.wal_bytes(), 0);
        assert_eq!(db.stats().mutations, 0);
    }

    #[test]
    fn torn_batch_is_all_or_nothing() {
        // Truncate the WAL at *every* byte offset inside the batch
        // record: recovery must see either the full batch or none of
        // it — never a prefix of its mutations.
        let dir = TempDir::new("tornbatch");
        let base_len;
        {
            let mut db = open(&dir);
            db.insert(10, b"pre".to_vec()).unwrap();
            db.sync().unwrap();
            base_len = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
            db.apply_batch(vec![
                BatchOp::Put(1, b"aaaa".to_vec()),
                BatchOp::Put(2, b"bbbb".to_vec()),
                BatchOp::Del(10),
            ])
            .unwrap();
            db.sync().unwrap();
        }
        let wal_path = dir.path().join("wal.log");
        let full = std::fs::read(&wal_path).unwrap();
        for cut in base_len..full.len() as u64 {
            std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
            let db = open(&dir);
            let batch_applied = get(&db, 1).is_some();
            if batch_applied {
                assert_eq!(get(&db, 2).unwrap(), b"bbbb", "cut {cut}: partial batch visible");
                assert!(get(&db, 10).is_none(), "cut {cut}: partial batch visible");
            } else {
                assert!(get(&db, 2).is_none(), "cut {cut}: partial batch visible");
                assert_eq!(get(&db, 10).unwrap(), b"pre", "cut {cut}: partial batch visible");
            }
        }
        // And the untruncated log replays the whole batch.
        std::fs::write(&wal_path, &full).unwrap();
        let db = open(&dir);
        assert_eq!(get(&db, 1).unwrap(), b"aaaa");
        assert_eq!(get(&db, 2).unwrap(), b"bbbb");
        assert!(get(&db, 10).is_none());
    }

    #[test]
    fn group_commit_defers_the_sync_until_end() {
        let dir = TempDir::new("group");
        {
            let mut db: DurableMap<Vec<u8>> =
                DurableMap::open(dir.path(), SyncPolicy::Always).unwrap();
            db.begin_group_commit();
            for k in 0..10u64 {
                db.insert(k, vec![k as u8]).unwrap();
            }
            db.end_group_commit().unwrap();
        }
        let db: DurableMap<Vec<u8>> =
            DurableMap::open(dir.path(), SyncPolicy::Always).unwrap();
        assert_eq!(db.len(), 10, "grouped mutations must all be durable after end");
        // Idempotent when nothing was written.
        let mut db = db;
        db.begin_group_commit();
        db.end_group_commit().unwrap();
    }

    #[test]
    fn power_loss_points_separate_synced_from_buffered() {
        let dir = TempDir::new("powerloss");
        let points;
        {
            // OsFlush: mutations reach the OS but are never fsynced.
            let mut db: DurableMap<Vec<u8>> =
                DurableMap::open(dir.path(), SyncPolicy::OsFlush).unwrap();
            db.insert(1, b"durable".to_vec()).unwrap();
            db.sync().unwrap();
            db.insert(2, b"buffered".to_vec()).unwrap();
            points = db.power_loss_points();
            // A process crash (plain drop) keeps both records…
        }
        let db: DurableMap<Vec<u8>> =
            DurableMap::open(dir.path(), SyncPolicy::OsFlush).unwrap();
        assert_eq!(db.len(), 2, "a process crash flushes buffers on drop");
        drop(db);
        // …while a power loss drops everything past the synced offsets.
        for (path, synced) in points {
            if path.exists() {
                let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(synced).unwrap();
            }
        }
        let db: DurableMap<Vec<u8>> =
            DurableMap::open(dir.path(), SyncPolicy::OsFlush).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(get(&db, 1).unwrap(), b"durable");
        assert!(get(&db, 2).is_none(), "the un-fsynced record must be gone");
    }

    #[test]
    fn power_loss_right_after_a_checkpoint_loses_nothing() {
        // The checkpoint-boundary ordering: after compact() returns,
        // truncating every file to its power-loss point must recover
        // the full checkpointed state.
        let dir = TempDir::new("ckpt-loss");
        let points;
        {
            let mut db = open(&dir);
            for k in 0..40u64 {
                db.insert(k, vec![k as u8; 32]).unwrap();
            }
            db.compact().unwrap();
            points = db.power_loss_points();
        }
        for (path, synced) in points {
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(synced).unwrap();
        }
        let db = open(&dir);
        assert_eq!(db.len(), 40);
        assert_eq!(db.stats().replayed, 0);
        for k in 0..40u64 {
            assert_eq!(get(&db, k).unwrap(), vec![k as u8; 32]);
        }
    }

    #[test]
    fn auto_checkpoint_bounds_the_wal() {
        let dir = TempDir::new("auto");
        let mut db = open(&dir);
        db.set_auto_checkpoint(Some(1024));
        for k in 0..200u64 {
            db.insert(k % 20, vec![k as u8; 32]).unwrap();
            assert!(db.wal_bytes() < 2048, "the WAL must stay bounded");
        }
        assert!(db.stats().snapshots_written >= 2, "auto-checkpoints must have fired");
        drop(db);
        let db = open(&dir);
        assert_eq!(db.len(), 20);
        for k in 0..20u64 {
            assert!(get(&db, k).is_some());
        }
    }

    #[test]
    fn group_commit_defers_the_auto_checkpoint() {
        let dir = TempDir::new("auto-group");
        let mut db: DurableMap<Vec<u8>> =
            DurableMap::open(dir.path(), SyncPolicy::Always).unwrap();
        db.set_auto_checkpoint(Some(64));
        db.begin_group_commit();
        for k in 0..20u64 {
            db.insert(k, vec![1; 16]).unwrap();
        }
        assert_eq!(
            db.stats().snapshots_written,
            0,
            "no checkpoint may fire inside a commit group"
        );
        db.end_group_commit().unwrap();
        assert!(db.stats().snapshots_written >= 1, "the deferred checkpoint fires at group end");
    }

    #[test]
    fn volatile_map_touches_no_files() {
        let mut db: DurableMap<Vec<u8>> = DurableMap::volatile();
        db.insert(1, b"one".to_vec()).unwrap();
        db.apply_batch(vec![BatchOp::Put(2, b"two".to_vec()), BatchOp::Del(1)]).unwrap();
        db.begin_group_commit();
        assert!(db.remove(2).unwrap());
        db.end_group_commit().unwrap();
        db.insert(3, b"three".to_vec()).unwrap();
        db.compact().unwrap();
        db.sync().unwrap();
        assert_eq!(get(&db, 3).unwrap(), b"three");
        assert_eq!(db.len(), 1);
        assert_eq!(db.stats().mutations, 5);
        assert_eq!((db.wal_bytes(), db.generation(), db.stats().snapshots_written), (0, 0, 0));
        assert!(db.power_loss_points().is_empty());
    }

    #[test]
    fn guarded_batch_sees_its_own_earlier_mutations() {
        // The guard: a put wins iff its first byte (an epoch) is not
        // older than the stored one.
        let newer = |old: Option<&Vec<u8>>, op: &BatchOp<Vec<u8>>| match op {
            BatchOp::Put(_, v) => old.is_none_or(|o| o[0] <= v[0]),
            BatchOp::Del(_) => old.is_some(),
        };
        let dir = TempDir::new("guarded");
        {
            let mut db = open(&dir);
            let ops = vec![
                BatchOp::Put(1, vec![5]),
                BatchOp::Put(1, vec![3]), // older than the put just above
                BatchOp::Del(9),          // absent
                BatchOp::Put(2, vec![1]),
            ];
            assert_eq!(db.apply_batch_if(ops, newer).unwrap(), 2);
            assert_eq!(get(&db, 1).unwrap(), [5]);
            let before = db.wal_bytes();
            assert_eq!(db.apply_batch_if(vec![BatchOp::Put(1, vec![4])], newer).unwrap(), 0);
            assert_eq!(db.wal_bytes(), before, "a batch that keeps nothing logs nothing");
            assert_eq!(db.stats().mutations, 2);
        }
        let db = open(&dir);
        assert_eq!(db.stats().replayed, 1, "the kept mutations are one record");
        assert_eq!(get(&db, 1).unwrap(), [5]);
        assert_eq!(get(&db, 2).unwrap(), [1]);
    }

    #[test]
    fn iter_and_range_read_snapshot_and_suffix_in_key_order() {
        let dir = TempDir::new("iter");
        {
            let mut db = open(&dir);
            for k in (0..10u64).rev() {
                db.insert(k, vec![k as u8]).unwrap();
            }
            db.compact().unwrap();
            for k in 10..15u64 {
                db.insert(k, vec![k as u8]).unwrap();
            }
        }
        let db = open(&dir);
        assert_eq!((db.stats().snapshot_loaded, db.stats().replayed), (10, 5));
        let seen: Vec<(u64, Vec<u8>)> = db.iter().map(|(k, v)| (k, v.clone())).collect();
        assert_eq!(seen, (0..15u64).map(|k| (k, vec![k as u8])).collect::<Vec<_>>());
        let tail: Vec<u64> = db.range(12..).map(|(k, _)| k).collect();
        assert_eq!(tail, [12, 13, 14]);
    }

    #[test]
    fn snapshot_follows_the_live_set() {
        let dir = TempDir::new("live-set");
        let val = vec![0xCD; 512];
        let mut db = open(&dir);
        for k in 0..64u64 {
            db.insert(k, val.clone()).unwrap();
        }
        db.compact().unwrap();
        for k in 0..60u64 {
            db.remove(k).unwrap();
        }
        db.compact().unwrap();
        // Header + 4 × (key + length + 512 B value) + seal.
        let snapshot = std::fs::metadata(dir.path().join("checkpoint.bin")).unwrap().len();
        assert_eq!(snapshot, 20 + 4 * (12 + 512) + 4);
        assert_eq!(db.wal_bytes(), 0);
        assert_eq!(db.power_loss_points().len(), 2, "two files: the WAL and the snapshot");
        drop(db);
        let db = open(&dir);
        assert_eq!(db.len(), 4);
        for k in 60..64u64 {
            assert_eq!(get(&db, k).unwrap(), val);
        }
    }
}
