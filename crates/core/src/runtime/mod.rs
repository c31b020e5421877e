//! Runtimes that drive [`crate::node::LocationServer`]s.
//!
//! The server logic is sans-IO; these drivers move its envelopes. There
//! is **one engine, two drivers, two transports, one client**:
//!
//! * The engine is one clock-free server table (`runtime/engine.rs`),
//!   the only code that builds, dispatches to, ticks, crashes (with a
//!   [`CrashMode`]), restarts and checkpoints a server.
//! * [`ShardedDeployment`] drives it in real time: servers partitioned
//!   by id across per-core event-loop shards ([`ShardSpec`]), one table
//!   per shard, batch receive, same-shard traffic short-circuited in
//!   memory, and the chaos verbs (crash, restart, checkpoint,
//!   partition-by-drop) a fuzz plan drives.
//! * [`SimDeployment`] drives one table of every server in virtual time
//!   over [`hiloc_net::SimNet`] (reproducible experiments, message-flow
//!   tracing, fault injection, reshape verbs).
//! * [`Client`] is the real runtimes' blocking client, written once
//!   over any [`hiloc_net::Port`].
//! * The client protocol itself — which request an operation sends,
//!   which message answers it, what result that means — is defined once
//!   (`runtime/ops.rs`) and driven both by [`Client`] and by
//!   [`SimDeployment`].
//!
//! A transport contributes only what really differs. The four aliases
//! are distinct types with inherent methods, and the signatures in this
//! table are the compatibility surface `benchmark/src/sut.rs` compiles
//! against:
//!
//! | | channels: [`ThreadedDeployment`], [`SyncClient`] | UDP: [`UdpDeployment`], [`UdpClient`] |
//! |---|---|---|
//! | shard's end of the wire | one bounded inbox (`ShardSpec::inbox_cap`) shared by the shard's servers | one socket shared by the shard's servers |
//! | what a turn sends | one channel hop per envelope | packed: one datagram per destination socket, flushed at the end of the turn |
//! | overload | shed at the full inbox, counted per destination (`shed_total`, `ServerStats::inbox_shed`) | dropped by the kernel socket buffer, uncounted (`shed_total` stays 0) |
//! | the deployment keeps | the [`hiloc_net::ChannelNetwork`] | the address book (`server_addr`, UDP only) |
//! | construction | `new`, `new_sharded`: infallible, panic on a durable-store failure | `bind`, `bind_sharded -> Result<_, UdpError>` |
//! | `client()` | `-> SyncClient` (a registered mailbox) | `-> Result<UdpClient, UdpError>` (binds a socket) |
//! | `shutdown()` | `-> Vec<ServerStats>` | `-> ()`, beside `shutdown_with_stats()` |
//! | client ids from | `1 << 48` | `1 << 52` |
//!
//! Everything else on the deployment and every client operation is one
//! generic implementation.

mod client;
mod engine;
mod ops;
mod sharded;
mod sim;
mod transport;

pub use client::Client;
pub use ops::UpdateOutcome;
pub use sharded::{ShardSpec, ShardedDeployment};
pub use engine::CrashMode;
pub use sim::{LevelStats, SimDeployment};
pub use transport::{SyncClient, ThreadedDeployment, UdpClient, UdpDeployment};
