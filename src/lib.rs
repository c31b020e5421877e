//! # hiloc — a large-scale hierarchical location service
//!
//! Facade crate re-exporting the hiloc workspace: a from-scratch Rust
//! reproduction of *"Architecture of a Large-Scale Location Service"*
//! (Leonhardi & Rothermel). See the `README.md` for a tour of the
//! workspace and its zero-external-dependency policy.
//!
//! * [`util`] — std-only substrate: PRNG, buffers, sync, JSON, test
//!   and bench harnesses (the in-tree substitutes for external crates).
//! * [`geo`] — coordinates, projections, polygons, circle overlap areas.
//! * [`spatial`] — region quadtree, R-tree, grid indexes.
//! * [`storage`] — sighting database (volatile) and visitor database
//!   (durable WAL + snapshots).
//! * [`net`] — protocol messages, binary codec and transports.
//! * [`core`] — the location service itself: model, hierarchy, servers,
//!   algorithms, caching, events, client API and runtimes.
//! * [`sim`] — mobility models, workload generators and statistics.

#![forbid(unsafe_code)]

pub use hiloc_core as core;
pub use hiloc_geo as geo;
pub use hiloc_net as net;
pub use hiloc_sim as sim;
pub use hiloc_spatial as spatial;
pub use hiloc_storage as storage;
pub use hiloc_util as util;
