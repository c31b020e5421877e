//! The hiloc repo benchmark: four wall-clock workloads over the real
//! UDP and channel runtimes, checked by an oracle, plus a traced run
//! that measures every layer from outside. See `benchmark/README.md`.

pub mod alloc;
pub mod catalog;
pub mod cli;
pub mod exec;
pub mod hist;
pub mod inline;
pub mod oracle;
pub mod pipeline;
pub mod procfs;
pub mod real;
pub mod replay;
pub mod report;
pub mod stream;
pub mod sut;
pub mod trace;
