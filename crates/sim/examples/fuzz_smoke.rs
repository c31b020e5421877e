//! Exploratory fuzz campaign driver: `fuzz_smoke [base_seed] [cases]`
//! runs a batch with the §6.5 caches off and another with them on,
//! printing the aggregate stats — or panicking with a shrunk,
//! replayable reproducer on the first oracle violation. CI runs the
//! fixed-seed gate in `tests/fuzz_scenarios.rs`; this binary is for
//! longer local hunts across many base seeds.

// lint:allow-file(wallclock) local campaign driver measuring its own elapsed time; not part of a deterministic run
use hiloc_core::cache::CacheConfig;
use hiloc_sim::fuzz::{caches_on, fuzz_batch_with};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let base: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0xF00D);
    let n: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let t = std::time::Instant::now();
    let s = fuzz_batch_with(base, n, CacheConfig::default(), false);
    println!("off: {s:?} in {:?}", t.elapsed());
    let t = std::time::Instant::now();
    let s = fuzz_batch_with(base ^ 0xCACE, n, caches_on(100.0), false);
    println!("on:  {s:?} in {:?}", t.elapsed());
}
