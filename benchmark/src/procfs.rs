//! Readings of `/proc`: CPU time per thread and per process, peak RSS.
//!
//! CPU time comes from `schedstat` (nanoseconds on a CPU, first field)
//! rather than `stat` (10 ms ticks), so a 10 s window resolves
//! microseconds per operation.

use std::fs;

fn first_field_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU nanoseconds the calling thread has run so far.
pub fn thread_cpu_ns() -> u64 {
    first_field_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// CPU nanoseconds of every live thread of this process together.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| first_field_ns(&format!("{}/schedstat", t.path().display())))
        .sum()
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Datagrams the kernel has dropped at full UDP receive buffers so far
/// (`RcvbufErrors` of `/proc/net/snmp`, host-wide). A violation report
/// quotes its rise: a dropped datagram is the usual reason a UDP run
/// loses an operation.
pub fn udp_rcvbuf_errors() -> u64 {
    let snmp = fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(names), Some(values)) = (udp.next(), udp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "RcvbufErrors")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_grow() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > before);
        assert!(process_cpu_ns() >= thread_cpu_ns() / 2);
        assert!(peak_rss_mb() > 1.0);
    }
}
