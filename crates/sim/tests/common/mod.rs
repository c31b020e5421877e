//! Shared by the behaviour-preservation pins: one 64-bit FNV-1a digest
//! over text lines, and the digest of what a scenario run observed.

use hiloc_sim::scenario::ScenarioRun;

/// FNV-1a over the lines, each terminated by `\n`.
pub fn fnv1a<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for line in lines {
        for b in line.as_ref().bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Digest of a run's step trace, network counters and end time.
pub fn run_digest(run: &ScenarioRun) -> u64 {
    let tail = format!("{:?} {}", run.net_counters, run.virtual_end_us);
    fnv1a(run.trace.iter().map(String::as_str).chain(std::iter::once(tail.as_str())))
}
