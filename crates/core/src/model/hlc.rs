//! Hybrid logical clocks: the replication-era arbitration primitive.
//!
//! The paper's per-object path-change epochs were plain service-time
//! microseconds — enough while every record had exactly one home, but
//! replicas (warm standbys, k=2 leaf copies) need conflicting updates
//! to resolve **identically on every copy**. An [`Hlc`] stamp packs
//! physical milliseconds (from the deployment's virtual/service
//! clock), a logical counter for same-millisecond causality, and the
//! stamping node's id as the final tie-break into one `u64`, so the
//! derived integer comparison *is* the total last-writer-wins order:
//! no two nodes ever produce an equal stamp, and every replica sorts
//! any two stamps the same way.

use super::Micros;
use std::fmt;

/// Bit widths of the packed stamp: 42-bit milliseconds (~139 years of
/// service time), 12-bit logical counter (4096 same-millisecond
/// stamps before the physical part is nudged forward), 10-bit node id.
const LOGICAL_BITS: u32 = 12;
const NODE_BITS: u32 = 10;
const LOGICAL_MAX: u64 = (1 << LOGICAL_BITS) - 1;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;

/// A hybrid-logical-clock stamp, packed `[ms:42][logical:12][node:10]`
/// so the derived `u64` ordering is exactly the lexicographic
/// `(physical ms, logical counter, node id)` comparison.
///
/// The packing also keeps every wire and WAL encoding that previously
/// carried a microsecond epoch byte-identical: a stamp still travels
/// as one little-endian `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hlc(pub u64);

hiloc_net::wire_newtype!(Hlc(u64));

impl Hlc {
    /// The zero stamp: older than (or equal to) every other stamp.
    pub const ZERO: Hlc = Hlc(0);

    /// Packs the three components. `ms` saturates at 42 bits; the
    /// logical counter and node id are masked to their fields.
    pub fn from_parts(ms: u64, logical: u16, node: u16) -> Hlc {
        let ms = ms.min((1 << (64 - LOGICAL_BITS - NODE_BITS)) - 1);
        Hlc((ms << (LOGICAL_BITS + NODE_BITS))
            | ((u64::from(logical) & LOGICAL_MAX) << NODE_BITS)
            | (u64::from(node) & NODE_MASK))
    }

    /// The physical component in milliseconds of service time.
    pub fn ms(self) -> u64 {
        self.0 >> (LOGICAL_BITS + NODE_BITS)
    }

    /// The logical (same-millisecond) counter.
    pub fn logical(self) -> u16 {
        ((self.0 >> NODE_BITS) & LOGICAL_MAX) as u16
    }

    /// The stamping node's id field.
    pub fn node(self) -> u16 {
        (self.0 & NODE_MASK) as u16
    }

    /// The physical component as service-time microseconds — what the
    /// soft-state age checks (sighting TTLs, path TTLs) compare
    /// against `now`. Millisecond granularity is three orders of
    /// magnitude below every TTL in the system.
    pub fn physical_us(self) -> Micros {
        self.ms() * 1_000
    }
}

impl fmt::Display for Hlc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms+{}@n{}", self.ms(), self.logical(), self.node())
    }
}

/// The per-server clock producing [`Hlc`] stamps.
///
/// [`HlcClock::now`] is strictly monotonic per clock; after
/// [`HlcClock::observe`]ing a remote stamp, the next local stamp
/// compares greater than it (at the same physical instant the logical
/// counter does the work) — the invariant every epoch-guard site
/// relies on when it overwrites a record it previously accepted.
#[derive(Debug, Clone)]
pub struct HlcClock {
    node: u16,
    last_ms: u64,
    logical: u16,
}

impl HlcClock {
    /// A clock stamping with the given node id (masked to 10 bits).
    pub fn new(node: u16) -> HlcClock {
        HlcClock { node: (u64::from(node) & NODE_MASK) as u16, last_ms: 0, logical: 0 }
    }

    /// A fresh stamp at service time `now_us`, strictly greater than
    /// every stamp this clock produced or observed before.
    pub fn now(&mut self, now_us: Micros) -> Hlc {
        let pt = now_us / 1_000;
        if pt > self.last_ms {
            self.last_ms = pt;
            self.logical = 0;
        } else if u64::from(self.logical) < LOGICAL_MAX {
            self.logical += 1;
        } else {
            // Logical field exhausted within one millisecond: nudge
            // the physical part forward (bounded drift, monotone).
            self.last_ms += 1;
            self.logical = 0;
        }
        Hlc::from_parts(self.last_ms, self.logical, self.node)
    }

    /// Merges a remote stamp so subsequent [`HlcClock::now`] calls
    /// compare greater than it.
    pub fn observe(&mut self, remote: Hlc) {
        let (rms, rl) = (remote.ms(), remote.logical());
        if rms > self.last_ms {
            self.last_ms = rms;
            self.logical = rl;
        } else if rms == self.last_ms && rl > self.logical {
            self.logical = rl;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrip_and_accessors() {
        let h = Hlc::from_parts(123_456, 789, 42);
        assert_eq!(h.ms(), 123_456);
        assert_eq!(h.logical(), 789);
        assert_eq!(h.node(), 42);
        assert_eq!(h.physical_us(), 123_456_000);
        assert_eq!(h.to_string(), "123456ms+789@n42");
    }

    #[test]
    fn ordering_is_lexicographic_ms_logical_node() {
        let a = Hlc::from_parts(10, 0, 999);
        let b = Hlc::from_parts(10, 1, 0);
        let c = Hlc::from_parts(11, 0, 0);
        assert!(a < b && b < c);
        // Node id is the final tie-break: total order, never equal
        // across distinct nodes.
        let d = Hlc::from_parts(10, 0, 1_000);
        assert!(a < d && d < b);
    }

    #[test]
    fn clock_is_strictly_monotonic() {
        let mut c = HlcClock::new(3);
        let mut prev = Hlc::ZERO;
        // Repeated stamps at a frozen instant keep increasing via the
        // logical counter; advancing time resets it.
        for now in [5_000, 5_000, 5_000, 5_000, 7_000, 7_000] {
            let h = c.now(now);
            assert!(h > prev, "{h} !> {prev}");
            prev = h;
        }
        assert_eq!(prev.ms(), 7);
        assert_eq!(prev.logical(), 1);
    }

    #[test]
    fn logical_overflow_nudges_physical_forward() {
        let mut c = HlcClock::new(0);
        let mut prev = c.now(1_000);
        for _ in 0..5_000 {
            let h = c.now(1_000);
            assert!(h > prev);
            prev = h;
        }
        assert!(prev.ms() >= 2, "overflow must carry into the ms field");
    }

    #[test]
    fn observe_makes_next_stamp_win() {
        let mut a = HlcClock::new(1);
        let mut b = HlcClock::new(2);
        // b races far ahead logically at the same millisecond.
        let mut remote = Hlc::ZERO;
        for _ in 0..50 {
            remote = b.now(9_000);
        }
        a.observe(remote);
        let local = a.now(9_000);
        assert!(local > remote, "post-observe stamp must beat the remote stamp");
    }

    #[test]
    fn distinct_nodes_never_collide() {
        let mut a = HlcClock::new(1);
        let mut b = HlcClock::new(2);
        assert_ne!(a.now(4_000), b.now(4_000));
    }
}
