//! Pending-operation tables.
//!
//! The paper's pseudocode blocks inside handlers (`receive handoverRes`
//! after sending `handoverReq`). hiloc's servers are event-driven: an
//! operation that awaits a response parks its continuation here, keyed
//! by correlation id, with a deadline enforced by the maintenance tick.
//! Range and nearest-neighbour queries share one table of [`Gather`]s.

use super::queries::{Probe, Ring};
use crate::model::{Hlc, Micros, ObjectId, RangeQuery};
use crate::proto::ObjectLocation;
use hiloc_geo::Rect;
use hiloc_net::{CorrId, Endpoint, ServerId};
use std::collections::{BTreeMap, BTreeSet};

/// What a node must do when the handover response passes through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelayAction {
    /// This node forwarded the request downward: set the forwarding
    /// reference to the chosen child (paper Alg. 6-3, lines 8–15).
    SetForward(ServerId),
    /// This node forwarded the request upward: the object left this
    /// subtree, remove its record (lines 16–21).
    RemoveRecord,
}

/// State parked by a node relaying a handover request.
#[derive(Debug, Clone)]
pub struct HandoverRelay {
    /// Where the request came from (receives the response next).
    pub reply_to: Endpoint,
    /// The object being handed over.
    pub oid: ObjectId,
    /// Action to perform when the response passes through.
    pub action: RelayAction,
    /// Path-change epoch of the handover.
    pub epoch: Hlc,
    /// Give-up deadline.
    pub deadline_us: Micros,
}

/// State parked by the old agent that initiated a handover.
#[derive(Debug, Clone)]
pub struct HandoverOrigin {
    /// The object being handed over.
    pub oid: ObjectId,
    /// The tracked object's endpoint, to be told its new agent.
    pub object: Endpoint,
    /// Give-up deadline.
    pub deadline_us: Micros,
}

/// State parked by a source leaf with a bulk state transfer in flight
/// (hierarchy reconfiguration: a sibling joined and took part of this
/// leaf's area, or this leaf is draining before it leaves).
///
/// Until the target's durable ack arrives, the source **keeps its
/// records and keeps answering** for them (transfer-in-progress
/// routing); on deadline the transfer is re-sent with the records'
/// then-current state and a fresh epoch (idempotent at the target via
/// the per-object epoch guard). Records that leave by ordinary means
/// meanwhile (handover, deregistration) simply drop out of the retry.
#[derive(Debug, Clone)]
pub struct TransferOut {
    /// The sibling leaf receiving the records.
    pub target: ServerId,
    /// Objects still in flight.
    pub oids: Vec<ObjectId>,
    /// Epoch of the last (re-)send; the ack-time removal guard.
    pub epoch: Hlc,
    /// Re-send deadline.
    pub deadline_us: Micros,
    /// Number of re-sends so far; drives the exponential retry
    /// backoff (deadline doubles per attempt, capped at 8×).
    pub attempts: u32,
}

/// State parked by a reconfiguring non-leaf pulling one child's
/// forwarding entries in chunks (`pathSync`). Unlike soft-state
/// gathers, a cold table rebuild must not give up: a missed chunk is
/// re-requested from the same cursor with capped exponential backoff.
#[derive(Debug, Clone)]
pub struct PathSyncOut {
    /// The child being drained.
    pub child: ServerId,
    /// Resume cursor: last object id received (exclusive), `None`
    /// for the first chunk.
    pub after: Option<ObjectId>,
    /// Re-request deadline.
    pub deadline_us: Micros,
    /// Number of re-requests so far (drives the backoff cap).
    pub attempts: u32,
}

/// State parked by an entry server awaiting a position-query answer.
#[derive(Debug, Clone)]
pub struct PosWait {
    /// The client to answer.
    pub client: Endpoint,
    /// The queried object.
    pub oid: ObjectId,
    /// True while the first attempt goes directly to a cached agent.
    pub via_cache: bool,
    /// Give-up deadline.
    pub deadline_us: Micros,
}

/// Scatter–gather state at a query's entry server: a range query
/// (paper Alg. 6-5) or one round of a nearest-neighbour query's
/// expanding ring.
#[derive(Debug, Clone)]
pub(crate) struct Gather {
    /// The client to answer.
    pub client: Endpoint,
    /// The client's correlation id, which the answer echoes (an NN
    /// escalation round is parked under a fresh id).
    pub client_corr: CorrId,
    /// What is probed, and the state only one kind has.
    pub kind: GatherKind,
    /// The probe's rectangle (computed once, when the gather opens).
    pub rect: Rect,
    /// Items collected so far.
    pub items: Vec<ObjectLocation>,
    /// Area of the probe rectangle covered by received sub-results (m²).
    pub covered_m2: f64,
    /// Target coverage: area of `rect ∩ root area` (m²).
    pub target_m2: f64,
    /// Leaves already counted (guards against duplicate delivery).
    pub seen_leaves: BTreeSet<ServerId>,
    /// Give-up deadline.
    pub deadline_us: Micros,
}

/// The part of a [`Gather`] that differs between range and
/// nearest-neighbour queries. The probe is borrowed from here, so a
/// gather cannot pair a range probe with an NN answer.
#[derive(Debug, Clone)]
pub(crate) enum GatherKind {
    /// A range query.
    Range {
        /// The query.
        query: RangeQuery,
        /// True while the scatter went directly to cached leaf areas
        /// (§6.5): on deadline the entry flushes the area cache and
        /// retries once through the hierarchy instead of giving up — a
        /// stale cache must never turn into a wrong (incomplete) answer.
        via_cache: bool,
    },
    /// One round of a nearest-neighbour query's expanding ring.
    Nn {
        /// This round's ring.
        ring: Ring,
        /// Near-set qualification distance (meters).
        near_qual_m: f64,
        /// Number of ring escalations performed.
        escalations: u32,
    },
}

impl GatherKind {
    /// What the gather sends to the hierarchy.
    pub fn probe(&self) -> Probe<'_> {
        match self {
            GatherKind::Range { query, .. } => Probe::Range(query),
            GatherKind::Nn { ring, .. } => Probe::Ring(*ring),
        }
    }
}

impl Gather {
    /// Whether coverage is complete (within floating-point tolerance).
    pub fn is_complete(&self) -> bool {
        self.covered_m2 + coverage_eps(self.target_m2) >= self.target_m2
    }
}

/// Floating-point slack for coverage accounting: sums of clipped areas
/// accumulate rounding error proportional to the target.
fn coverage_eps(target: f64) -> f64 {
    1e-9 * target.max(1.0)
}

/// All pending operations of one server.
///
/// The tables are `BTreeMap`s so deadline scans emit give-up messages
/// in correlation-id order — a deterministic order is required for
/// same-seed simulation runs to be bit-for-bit reproducible.
#[derive(Debug, Default)]
pub struct Pending {
    /// Old agents awaiting `HandoverRes`.
    pub handover_origin: BTreeMap<CorrId, HandoverOrigin>,
    /// Relays awaiting `HandoverRes` to splice the path.
    pub handover_relay: BTreeMap<CorrId, HandoverRelay>,
    /// Entry servers awaiting `PosQueryRes`.
    pub pos_wait: BTreeMap<CorrId, PosWait>,
    /// Entry servers gathering range and nearest-neighbour sub-results.
    pub(crate) gathers: BTreeMap<CorrId, Gather>,
    /// Source leaves with a bulk state transfer awaiting its ack.
    pub transfer_out: BTreeMap<CorrId, TransferOut>,
    /// Reconfiguring non-leaves pulling forwarding tables in chunks.
    pub path_sync: BTreeMap<CorrId, PathSyncOut>,
}

impl Pending {
    /// The earliest deadline across all pending operations.
    pub fn next_deadline(&self) -> Option<Micros> {
        let mut min: Option<Micros> = None;
        let mut consider = |d: Micros| {
            min = Some(match min {
                None => d,
                Some(m) => m.min(d),
            });
        };
        self.handover_origin.values().for_each(|x| consider(x.deadline_us));
        self.handover_relay.values().for_each(|x| consider(x.deadline_us));
        self.pos_wait.values().for_each(|x| consider(x.deadline_us));
        self.gathers.values().for_each(|x| consider(x.deadline_us));
        self.transfer_out.values().for_each(|x| consider(x.deadline_us));
        self.path_sync.values().for_each(|x| consider(x.deadline_us));
        min
    }

    /// Total number of parked operations.
    pub fn len(&self) -> usize {
        self.handover_origin.len()
            + self.handover_relay.len()
            + self.pos_wait.len()
            + self.gathers.len()
            + self.transfer_out.len()
            + self.path_sync.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_deadline_finds_minimum() {
        let mut p = Pending::default();
        assert_eq!(p.next_deadline(), None);
        p.pos_wait.insert(
            CorrId(1),
            PosWait { client: Endpoint::Client(hiloc_net::ClientId(1)), oid: ObjectId(1), via_cache: false, deadline_us: 500 },
        );
        p.handover_origin.insert(
            CorrId(2),
            HandoverOrigin { oid: ObjectId(2), object: Endpoint::Client(hiloc_net::ClientId(2)), deadline_us: 300 },
        );
        assert_eq!(p.next_deadline(), Some(300));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn gather_completion_tolerance() {
        let rect = Rect::new(hiloc_geo::Point::new(0.0, 0.0), hiloc_geo::Point::new(1.0, 1.0));
        let g = Gather {
            client: Endpoint::Client(hiloc_net::ClientId(1)),
            client_corr: CorrId(1),
            kind: GatherKind::Range {
                query: RangeQuery::new(hiloc_geo::Region::from(rect), 10.0, 0.5),
                via_cache: false,
            },
            rect,
            items: Vec::new(),
            covered_m2: 0.999_999_999_9,
            target_m2: 1.0,
            seen_leaves: BTreeSet::new(),
            deadline_us: 0,
        };
        assert!(g.is_complete(), "tiny float deficit must still complete");
    }
}
