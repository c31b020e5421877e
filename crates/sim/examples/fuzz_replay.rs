//! Replays one fuzzer reproducer from the command line:
//!
//! ```text
//! cargo run -p hiloc-sim --example fuzz_replay "seed=… levels=… ev=…"
//! ```
//!
//! The argument is the exact DSL line a failing fuzz batch or
//! real-runtime gate prints (`hiloc_sim::fuzz::replay_dsl("…")`); its
//! `runtime=sim|threaded|udp` token picks the deployment (the
//! simulator when absent). A green run prints the verdict stats; a red
//! one panics with the full oracle report, seed and trace.

fn main() {
    let dsl = std::env::args().nth(1).expect("usage: fuzz_replay \"<dsl line>\"");
    let run = hiloc_sim::fuzz::replay_dsl(&dsl);
    println!(
        "green: alive={} reregistered={} stats={:?}",
        run.alive, run.reregistered, run.stats
    );
}
