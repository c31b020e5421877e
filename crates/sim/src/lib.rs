//! Mobility models, workload generators and measurement utilities for
//! hiloc experiments.
//!
//! The paper's evaluation (§7) used uniformly random object positions
//! and closed-loop load generators; its future-work section (§8) calls
//! for studying "the influence of movement and querying characteristics
//! on the performance of different configurations of the LS … for
//! example, the density of the tracked objects or their moving patterns
//! as well as the concrete mix of different types of queries and their
//! degree of locality". This crate provides exactly those knobs:
//!
//! * [`mobility`] — random waypoint, Manhattan grid, Gauss–Markov and
//!   Zipf-hot-spot models, all seeded and deterministic;
//! * [`WorkloadGen`] — query mixes with a locality model and Poisson
//!   arrivals;
//! * [`Fleet`] — registers a population of tracked objects against a
//!   deployment (any [`harness::Harness`]) and moves them with a
//!   configurable update policy;
//! * [`Samples`] — latency/throughput summaries (mean, percentiles);
//! * [`scenario`] — the one chaos plan ([`scenario::ScenarioSpec`]: a
//!   fleet, a fault timeline of [`scenario::FaultAction`] verbs) and
//!   its one executor, with an oracle that checks no registered object
//!   is ever lost and query answers stay within the accuracy contract;
//! * [`harness`] — the [`harness::Harness`] a plan runs over: the
//!   simulator, or a real runtime; each declares what it can do and a
//!   plan that needs more is rejected by name;
//! * [`real`] — that harness over the sharded threaded and UDP
//!   engines: durable restarts, power loss, checkpoint cuts,
//!   partition-by-drop and overload bursts on the wall clock;
//! * [`fuzz`] — the generative fuzzer over all of them: seeded random
//!   (but valid) timelines for the runtime named, shrinking to a
//!   one-line replayable reproducer (`runtime=sim|threaded|udp …`),
//!   including runs with the §6.5 caches enabled under
//!   bounded-staleness semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod harness;
pub mod mobility;
pub mod real;
pub mod scenario;
mod stats;
mod workload;
mod zipf;

mod fleet;

pub use fleet::{Fleet, FleetConfig, InboxStats, StepStats};
pub use stats::{Samples, Summary};
pub use workload::{OpKind, QueryMix, WorkloadGen, WorkloadParams};
pub use zipf::Zipf;
