//! Location-server data storage for hiloc.
//!
//! The paper (§5) gives each location server two databases:
//!
//! * a **sighting database** held in *volatile* memory — position
//!   updates are too frequent to make durable, and recorded positions
//!   would be outdated after a recovery anyway; it combines a spatial
//!   index (for range / nearest-neighbor queries) with a hash index over
//!   object identifiers (for position queries) and *soft-state* expiry;
//! * a **visitor database** on *persistent* storage — updated only on
//!   registration, handover and deregistration, so that forwarding paths
//!   survive crashes.
//!
//! The paper's prototype used IBM DB2 via JDBC for the persistent part;
//! this crate substitutes an embedded storage engine ([`DurableMap`])
//! that exercises the identical code path: a durable write before
//! acknowledging any path change, and recovery on restart. The engine
//! is one in-memory table with a write-ahead log behind it and a
//! sealed snapshot taken at every checkpoint — the WAL truncates
//! behind each one, so disk usage follows the *live* visitor set and
//! recovery replays only the suffix since the last checkpoint, never
//! the full update history (see `durable_map.rs` for the layout and
//! `checkpoint.rs` for the commit protocol).
//!
//! # Example
//!
//! ```
//! use hiloc_geo::Point;
//! use hiloc_storage::{SightingDb, StoredSighting};
//!
//! let mut db = SightingDb::new_quadtree();
//! db.upsert(StoredSighting {
//!     key: 1,
//!     pos: Point::new(10.0, 20.0),
//!     time_us: 0,
//!     acc_sens_m: 10.0,
//!     expires_us: 60_000_000,
//! });
//! assert_eq!(db.get(1).unwrap().pos, Point::new(10.0, 20.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod crc;
mod durable_map;
mod sighting_db;
mod wal;

pub use crc::crc32;
pub use durable_map::{
    BatchOp, DurableMap, DurableMapStats, RecordValue, SyncPolicy, Table,
    DEFAULT_AUTO_CHECKPOINT_BYTES,
};
pub use hiloc_spatial::Entry;
pub use sighting_db::{SightingDb, StoredSighting};
pub use wal::{Wal, WalError, WalReplay};

/// Errors produced by the durable storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A record failed its checksum or could not be decoded.
    Corrupt {
        /// Byte offset of the bad record within the log.
        offset: u64,
        /// Human-readable cause.
        reason: &'static str,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt { offset, reason } => {
                write!(f, "corrupt record at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}
