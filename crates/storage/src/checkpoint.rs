//! The checkpoint: a sealed snapshot of the whole map.
//!
//! One self-contained, CRC-sealed file (`checkpoint.bin`) holds every
//! live key and value of checkpoint generation *g*:
//!
//! ```text
//! [magic u32 "HCK2"][generation u64][count u64]
//! count × [key u64][len u32][value: len bytes]      keys ascending
//! [crc32 of everything above u32]
//! ```
//!
//! Commit protocol: the snapshot is written to `checkpoint.tmp`,
//! fsynced, renamed over `checkpoint.bin`, and the directory is fsynced
//! — the rename is the atomic commit point. The WAL is only then reset
//! and stamped with generation *g*, so recovery can arbitrate (see
//! `DurableMap::open`): a WAL still carrying generation *g − 1* lost
//! power between the two steps, and every one of its records is
//! already covered by the snapshot.
//!
//! A torn or bit-flipped snapshot is **an error, not a repair**: the
//! WAL prefix it replaced is gone, so there is nothing to fall back
//! to. (A leftover `checkpoint.tmp` — a checkpoint that never reached
//! its commit point — is deleted silently; the previous snapshot is
//! still the truth.)

use crate::durable_map::{RecordValue, Table};
use crate::{crc32, StorageError};
use hiloc_util::buf::{Buf, BufMut};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::ops::Bound;
use std::path::Path;

/// File magic ("HCK2").
const SNAPSHOT_MAGIC: u32 = 0x4843_4B32;
/// The magic of the earlier paged layout's manifest ("HCK1"): such a
/// store is refused by name, never misread.
const PAGED_MANIFEST_MAGIC: u32 = 0x4843_4B31;
/// Committed snapshot file name.
pub const SNAPSHOT_FILE: &str = "checkpoint.bin";
/// Staging name; never read, deleted on open.
const SNAPSHOT_TMP: &str = "checkpoint.tmp";
/// Bytes of the fixed header: magic + generation + count.
const HEADER_BYTES: usize = 4 + 8 + 8;
/// Bytes framing each entry: key + value length.
const ENTRY_FRAME: usize = 8 + 4;

/// A committed snapshot: its generation and the table it holds.
pub type Snapshot<V> = (u64, BTreeMap<u64, V>);

fn encode<V: RecordValue>(generation: u64, map: &impl Table<V>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + 4 + map.len() * (ENTRY_FRAME + 16));
    out.put_u32_le(SNAPSHOT_MAGIC);
    out.put_u64_le(generation);
    out.put_u64_le(map.len() as u64);
    for (key, value) in map.range((Bound::Unbounded, Bound::Unbounded)) {
        out.put_u64_le(key);
        // Reserve the length slot, encode in place, then backpatch.
        let len_at = out.len();
        out.put_u32_le(0);
        value.borrow().encode(&mut out);
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }
    let crc = crc32(&out);
    out.put_u32_le(crc);
    out
}

fn decode<V: RecordValue>(raw: &[u8]) -> Result<Snapshot<V>, StorageError> {
    let corrupt = |reason| StorageError::Corrupt { offset: 0, reason };
    if raw.len() < HEADER_BYTES + 4 {
        return Err(corrupt("snapshot too short"));
    }
    let (body, mut seal) = raw.split_at(raw.len() - 4);
    let mut buf = body;
    match buf.get_u32_le() {
        SNAPSHOT_MAGIC => {}
        PAGED_MANIFEST_MAGIC => return Err(corrupt("paged-layout store (HCK1) is not supported")),
        _ => return Err(corrupt("bad snapshot magic")),
    }
    if crc32(body) != seal.get_u32_le() {
        return Err(corrupt("snapshot checksum mismatch"));
    }
    let generation = buf.get_u64_le();
    let count = buf.get_u64_le();
    if count.checked_mul(ENTRY_FRAME as u64).is_none_or(|n| n > buf.remaining() as u64) {
        return Err(corrupt("snapshot entry count exceeds file size"));
    }
    let mut entries: Vec<(u64, V)> = Vec::with_capacity(count as usize);
    for _ in 0..count {
        if buf.remaining() < ENTRY_FRAME {
            return Err(corrupt("snapshot entry truncated"));
        }
        let key = buf.get_u64_le();
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(corrupt("snapshot entry truncated"));
        }
        if entries.last().is_some_and(|&(prev, _)| prev >= key) {
            return Err(corrupt("snapshot keys out of order"));
        }
        let value = V::decode(&buf[..len]).ok_or(corrupt("undecodable snapshot record"))?;
        buf.advance(len);
        entries.push((key, value));
    }
    if buf.remaining() != 0 {
        return Err(corrupt("snapshot trailing bytes"));
    }
    // Sorted input bulk-builds a densely packed tree.
    Ok((generation, entries.into_iter().collect()))
}

/// Loads the committed snapshot as `(generation, map)`, or `None` when
/// no checkpoint was ever taken. A leftover staging file is removed.
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] when the snapshot fails its
/// checksum or structure checks — the pre-checkpoint WAL is gone, so
/// a damaged snapshot is unrecoverable data loss, never silently an
/// empty database.
pub fn load<V: RecordValue>(dir: &Path) -> Result<Option<Snapshot<V>>, StorageError> {
    let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));
    let path = dir.join(SNAPSHOT_FILE);
    if !path.exists() {
        return Ok(None);
    }
    decode(&fs::read(&path)?).map(Some)
}

/// Writes and commits a snapshot of `map` as generation `generation`:
/// staging file, fsync, rename, directory fsync.
///
/// # Errors
///
/// Returns an error on I/O failure; the previous snapshot stays
/// committed in that case.
pub fn write<V: RecordValue>(
    dir: &Path,
    generation: u64,
    map: &impl Table<V>,
) -> Result<(), StorageError> {
    let tmp = dir.join(SNAPSHOT_TMP);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&encode(generation, map))?;
        f.sync_data()?;
    }
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    // The rename itself must survive power loss: fsync the directory.
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::tests::TempDir;

    fn sample() -> BTreeMap<u64, Vec<u8>> {
        let record = b"forty bytes of a visitor record.........";
        [(1, record.to_vec()), (7, b"abc".to_vec()), (9, Vec::new())].into_iter().collect()
    }

    #[test]
    fn round_trips() {
        let dir = TempDir::new("ckpt-rt");
        assert!(load::<Vec<u8>>(dir.path()).unwrap().is_none(), "no checkpoint yet");
        write(dir.path(), 9, &sample()).unwrap();
        assert_eq!(load(dir.path()).unwrap(), Some((9, sample())));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let dir = TempDir::new("ckpt-empty");
        write(dir.path(), 1, &BTreeMap::<u64, Vec<u8>>::new()).unwrap();
        assert_eq!(load::<Vec<u8>>(dir.path()).unwrap(), Some((1, BTreeMap::new())));
    }

    #[test]
    fn stale_staging_file_is_removed_and_ignored() {
        let dir = TempDir::new("ckpt-tmp");
        write(dir.path(), 9, &sample()).unwrap();
        fs::write(dir.path().join(SNAPSHOT_TMP), b"half a newer checkpoint").unwrap();
        assert_eq!(load(dir.path()).unwrap(), Some((9, sample())));
        assert!(!dir.path().join(SNAPSHOT_TMP).exists());
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_never_a_partial_load() {
        let dir = TempDir::new("ckpt-torn");
        write(dir.path(), 9, &sample()).unwrap();
        let full = fs::read(dir.path().join(SNAPSHOT_FILE)).unwrap();
        for cut in 0..full.len() {
            fs::write(dir.path().join(SNAPSHOT_FILE), &full[..cut]).unwrap();
            match load::<Vec<u8>>(dir.path()) {
                Err(StorageError::Corrupt { .. }) => {}
                other => panic!("cut at byte {cut}: expected Corrupt, got {other:?}"),
            }
        }
        fs::write(dir.path().join(SNAPSHOT_FILE), &full).unwrap();
        assert_eq!(load(dir.path()).unwrap(), Some((9, sample())), "untruncated file loads");
    }

    #[test]
    fn bit_flips_are_detected() {
        let dir = TempDir::new("ckpt-flip");
        write(dir.path(), 9, &sample()).unwrap();
        let full = fs::read(dir.path().join(SNAPSHOT_FILE)).unwrap();
        for pos in 0..full.len() {
            let mut bad = full.clone();
            bad[pos] ^= 0x40;
            fs::write(dir.path().join(SNAPSHOT_FILE), &bad).unwrap();
            assert!(
                matches!(load::<Vec<u8>>(dir.path()), Err(StorageError::Corrupt { .. })),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn a_well_sealed_file_with_unordered_keys_is_refused() {
        // Two entries in descending key order, correctly sealed: only
        // a writer bug could produce it, and loading must not guess.
        let mut raw = Vec::new();
        raw.put_u32_le(SNAPSHOT_MAGIC);
        raw.put_u64_le(1);
        raw.put_u64_le(2);
        for key in [5u64, 3] {
            raw.put_u64_le(key);
            raw.put_u32_le(0);
        }
        let crc = crc32(&raw);
        raw.put_u32_le(crc);
        assert!(matches!(
            decode::<Vec<u8>>(&raw),
            Err(StorageError::Corrupt { reason: "snapshot keys out of order", .. })
        ));
    }
}
