//! std-only substrate for the hiloc workspace.
//!
//! The build environment has no crates.io access, so everything the
//! workspace would normally pull from external crates lives here as a
//! small, focused, in-tree substitute:
//!
//! * [`rng`] — a seedable xoshiro256++ PRNG with the `random_range` /
//!   `random_bool` / `shuffle` surface the simulators and benchmarks
//!   use (replaces `rand`).
//! * [`buf`] — `Buf`/`BufMut` extension traits over `&[u8]` and
//!   `Vec<u8>` for little-endian wire encoding (replaces `bytes`).
//! * [`sync`] — poison-transparent `Mutex`/`RwLock` wrappers, an
//!   unbounded MPMC-ish channel with `len()`/`recv_timeout` (replaces
//!   `parking_lot` and `crossbeam-channel`), and the spin-then-nap
//!   receive rule the real transports share.
//! * [`json`] — a minimal JSON tree with emitter and parser (replaces
//!   `serde`/`serde_json` for configuration persistence).
//! * [`prop`] — a seeded property-test harness with failure-case
//!   reporting (replaces `proptest` for the invariants we check).
//! * [`tempdir`] — self-deleting scratch directories for tests and
//!   durable-store harnesses (replaces `tempfile`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod json;
pub mod prop;
pub mod rng;
pub mod sync;
pub mod tempdir;
