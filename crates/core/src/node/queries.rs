//! Query processing: position queries (Alg. 6-4), range queries
//! (Alg. 6-5) and the distributed nearest-neighbor search.
//!
//! Range and nearest-neighbour queries share one scatter–gather: the
//! entry server opens a [`Gather`], sends its [`Probe`] through the
//! hierarchy, and gathers the leaves' sub-results until the area they
//! covered reaches the target or the deadline passes. Only the probe,
//! the range query's area-cache shortcut and how a finished gather
//! answers depend on the kind.

use super::pending::{Gather, GatherKind, PosWait};
use super::{LocationServer, VisitorRecord};
use crate::model::semantics::select_neighbors;
use crate::model::{LocationDescriptor, Micros, ObjectId, RangeQuery};
use crate::proto::{Message, ObjectLocation};
use hiloc_geo::{Point, Rect};
use hiloc_net::{CorrId, Endpoint, ServerId};
use std::collections::BTreeSet;

/// One ring of a nearest-neighbour search: candidates whose recorded
/// position lies within `radius_m` of `p`, accuracy within `req_acc_m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ring {
    /// The queried position.
    pub p: Point,
    /// Accuracy threshold (meters).
    pub req_acc_m: f64,
    /// Ring radius (meters).
    pub radius_m: f64,
}

/// What a scatter sends through the hierarchy: a range query or one
/// nearest-neighbour ring.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Probe<'a> {
    /// A range query.
    Range(&'a RangeQuery),
    /// A nearest-neighbour ring.
    Ring(Ring),
}

impl Probe<'_> {
    /// The probe rectangle: a range query's area enlarged by `reqAcc`
    /// (the paper's `Enlarge`) and bounded, or the ring's bounding box.
    pub fn rect(&self) -> Rect {
        match self {
            Probe::Range(q) => q.area.enlarged(q.req_acc_m).bounding_rect(),
            Probe::Ring(r) => Rect::from_center_size(r.p, 2.0 * r.radius_m, 2.0 * r.radius_m),
        }
    }

    /// The forward carrying this probe towards the leaves.
    pub fn fwd(&self, entry: ServerId, corr: CorrId) -> Message {
        match *self {
            Probe::Range(query) => Message::RangeQueryFwd { query: query.clone(), entry, corr },
            Probe::Ring(Ring { p, req_acc_m, radius_m }) => {
                Message::NeighborQueryFwd { p, req_acc_m, radius_m, entry, corr }
            }
        }
    }

    /// A leaf's answer to this probe.
    pub fn sub_res(
        &self,
        items: Vec<ObjectLocation>,
        covered_area_m2: f64,
        leaf: ServerId,
        leaf_area: Rect,
        corr: CorrId,
    ) -> Message {
        match self {
            Probe::Range(_) => {
                Message::RangeQuerySubRes { items, covered_area_m2, leaf, leaf_area, corr }
            }
            Probe::Ring(_) => {
                Message::NeighborQuerySubRes { items, covered_area_m2, leaf, leaf_area, corr }
            }
        }
    }
}

/// Outcome of checking whether this server can answer a position query
/// from its own databases.
enum LocalAnswer {
    /// Answerable: descriptor, sighting time, declared max speed.
    Found(LocationDescriptor, Micros, f64),
    /// The visitor is registered here but the sighting was lost (post
    /// restart): probe the registrant for a fresh update (paper §5).
    Probe(Endpoint),
    /// Not this server's visitor (as agent).
    NotHere,
}

/// The items a gather collected from `leaves` distinct leaves, each
/// object once, keeping first occurrences (an object caught mid-handover
/// is reported by two leaves). One leaf's items are already distinct:
/// its index holds each key once, and `seen_leaves` admits each leaf's
/// sub-result once, so a one-leaf gather is passed through as it is.
fn dedup_items(items: Vec<ObjectLocation>, leaves: usize) -> Vec<ObjectLocation> {
    if leaves <= 1 {
        return items;
    }
    let mut seen = BTreeSet::new();
    items.into_iter().filter(|(oid, _)| seen.insert(*oid)).collect()
}

impl LocationServer {
    fn local_answer(&self, oid: ObjectId) -> LocalAnswer {
        match self.visitors.get(oid) {
            Some(VisitorRecord::Leaf { offered_acc_m, reg, .. }) => {
                match self.sightings.get(oid.0) {
                    Some(rec) => LocalAnswer::Found(
                        LocationDescriptor { pos: rec.pos, acc_m: offered_acc_m },
                        rec.time_us,
                        reg.max_speed_mps,
                    ),
                    None => LocalAnswer::Probe(reg.registrant),
                }
            }
            _ => LocalAnswer::NotHere,
        }
    }

    /// k=2 replica read path (bounded staleness, §6.5 contract): a
    /// leaf holding a *shadow copy* of the visitor — streamed from the
    /// sibling agent — may answer directly, within the same opt-in
    /// that legitimizes cache answers. The answer's accuracy is the
    /// offered accuracy widened by the sighting's age (the object may
    /// have moved at up to `max_speed_mps` since the copy was taken),
    /// so the client gets an honest error bound, not a stale promise.
    fn replica_answer(
        &self,
        oid: ObjectId,
        now: Micros,
    ) -> Option<(LocationDescriptor, Micros, f64)> {
        if !self.caches.config().position_cache {
            return None;
        }
        let copy = self.replicas.get(oid)?;
        let s = copy.sighting.as_ref()?;
        if s.time_us.saturating_add(self.opts.replica_staleness_us) < now {
            return None;
        }
        let acc = copy.offered_acc_m.max(s.aged_accuracy(copy.reg.max_speed_mps, now));
        Some((LocationDescriptor { pos: s.pos, acc_m: acc }, s.time_us, copy.reg.max_speed_mps))
    }

    // ------------------------------------------------------ position query

    /// Algorithm 6-4, entry side: answer locally, from a cache, or
    /// forward into the hierarchy and park the client.
    pub(crate) fn on_pos_query_req(
        &mut self,
        now: Micros,
        from: Endpoint,
        oid: ObjectId,
        corr: CorrId,
    ) {
        match self.local_answer(oid) {
            LocalAnswer::Found(ld, t, v) => {
                self.stats.pos_answered += 1;
                self.emit(
                    from,
                    Message::PosQueryRes { oid, found: Some(ld), time_us: t, max_speed_mps: v, corr },
                );
                return;
            }
            LocalAnswer::Probe(reg) => {
                self.stats.probes_sent += 1;
                self.emit(reg, Message::PositionProbe { oid });
                self.emit(
                    from,
                    Message::PosQueryRes { oid, found: None, time_us: 0, max_speed_mps: 0.0, corr },
                );
                return;
            }
            LocalAnswer::NotHere => {}
        }
        // k=2 replica shadow copy (bounded staleness, see above).
        if let Some((ld, t, v)) = self.replica_answer(oid, now) {
            self.stats.replica_answers += 1;
            self.emit(
                from,
                Message::PosQueryRes { oid, found: Some(ld), time_us: t, max_speed_mps: v, corr },
            );
            return;
        }
        // §6.5 position cache.
        if let Some(ld) = self.caches.position_for(oid, now) {
            self.stats.cache_answers += 1;
            self.emit(
                from,
                Message::PosQueryRes { oid, found: Some(ld), time_us: now, max_speed_mps: 0.0, corr },
            );
            return;
        }
        let deadline_us = now + self.opts.query_timeout_us;
        // §6.5 agent cache: contact the cached agent directly.
        if let Some(agent) = self.caches.agent_for(oid) {
            if agent != self.id() {
                self.pending
                    .pos_wait
                    .insert(corr, PosWait { client: from, oid, via_cache: true, deadline_us });
                self.emit(agent, Message::PosQueryFwd { oid, entry: self.id(), direct: true, corr });
                return;
            }
        }
        self.route_pos_query(from, oid, corr, deadline_us);
    }

    /// Routes a position query through the hierarchy (also the
    /// fallback path after a cached agent turned out stale or dead).
    pub(crate) fn route_pos_query(
        &mut self,
        client: Endpoint,
        oid: ObjectId,
        corr: CorrId,
        deadline_us: Micros,
    ) {
        let entry = self.id();
        let next: Option<Endpoint> = match self.visitors.get(oid) {
            Some(VisitorRecord::Forward { child, .. }) => Some(Endpoint::Server(child)),
            _ => self.parent().map(Endpoint::Server),
        };
        match next {
            Some(to) => {
                self.pending
                    .pos_wait
                    .insert(corr, PosWait { client, oid, via_cache: false, deadline_us });
                self.emit(to, Message::PosQueryFwd { oid, entry, direct: false, corr });
            }
            None => {
                // Root without a record: the object is unknown.
                self.emit(
                    client,
                    Message::PosQueryRes { oid, found: None, time_us: 0, max_speed_mps: 0.0, corr },
                );
            }
        }
    }

    /// Algorithm 6-4, forwarding side: answer as the agent, follow the
    /// forwarding pointer down, or continue towards the root.
    ///
    /// Loop guard: a query arriving *from the parent* (following a
    /// forwarding reference) that finds no record here hit a stale path
    /// — it answers "unknown" instead of bouncing back up, and the path
    /// soft state eventually clears the zombie reference.
    pub(crate) fn on_pos_query_fwd(
        &mut self,
        _now: Micros,
        from: Endpoint,
        oid: ObjectId,
        entry: ServerId,
        direct: bool,
        corr: CorrId,
    ) {
        match self.local_answer(oid) {
            LocalAnswer::Found(ld, t, v) => {
                self.stats.pos_answered += 1;
                self.emit(
                    entry,
                    Message::PosQueryRes { oid, found: Some(ld), time_us: t, max_speed_mps: v, corr },
                );
                return;
            }
            LocalAnswer::Probe(reg) => {
                self.stats.probes_sent += 1;
                self.emit(reg, Message::PositionProbe { oid });
                self.emit(
                    entry,
                    Message::PosQueryRes { oid, found: None, time_us: 0, max_speed_mps: 0.0, corr },
                );
                return;
            }
            LocalAnswer::NotHere => {}
        }
        let from_parent = self.parent().map(Endpoint::Server) == Some(from);
        if let Some(VisitorRecord::Forward { child, .. }) = self.visitors.get(oid) {
            self.emit(child, Message::PosQueryFwd { oid, entry, direct, corr });
        } else if direct {
            // The entry's agent cache was stale.
            self.emit(entry, Message::PosQueryMiss { oid, corr });
        } else if let (Some(p), false) = (self.parent(), from_parent) {
            self.emit(p, Message::PosQueryFwd { oid, entry, direct, corr });
        } else {
            // Root without a record, or a stale forwarding reference
            // pointed here: the object is unknown.
            self.emit(
                entry,
                Message::PosQueryRes { oid, found: None, time_us: 0, max_speed_mps: 0.0, corr },
            );
        }
    }

    /// The answer arrives at the entry server: feed the caches and
    /// relay to the waiting client.
    pub(crate) fn on_pos_query_res(
        &mut self,
        from: Endpoint,
        oid: ObjectId,
        found: Option<LocationDescriptor>,
        time_us: Micros,
        max_speed_mps: f64,
        corr: CorrId,
    ) {
        let Some(wait) = self.pending.pos_wait.remove(&corr) else {
            return; // late or duplicated answer
        };
        if let Some(ld) = found {
            if let Some(agent) = from.as_server() {
                self.caches.learn_agent(oid, agent);
            }
            self.caches.learn_position(oid, ld, time_us, max_speed_mps);
        }
        self.emit(wait.client, Message::PosQueryRes { oid, found, time_us, max_speed_mps, corr });
    }

    /// Stale agent cache: invalidate and retry through the hierarchy.
    pub(crate) fn on_pos_query_miss(&mut self, oid: ObjectId, corr: CorrId) {
        let Some(wait) = self.pending.pos_wait.remove(&corr) else { return };
        self.caches.forget_agent(oid);
        self.route_pos_query(wait.client, oid, corr, wait.deadline_us);
    }

    // ------------------------------------------------------ scatter–gather

    /// Algorithm 6-5, entry side: contribute locally, then scatter via
    /// the hierarchy (or directly to cached leaves, §6.5) and gather.
    pub(crate) fn on_range_query_req(
        &mut self,
        now: Micros,
        from: Endpoint,
        query: RangeQuery,
        corr: CorrId,
    ) {
        let mut g = self.open_gather(now, from, corr, GatherKind::Range { query, via_cache: false });
        // §6.5 area cache: when the cached leaves cover the rest of the
        // probe, scatter directly without traversing the hierarchy.
        if !g.is_complete() && self.caches.config().area_cache {
            let (cached, _) = self.caches.leaves_covering(&g.rect);
            let mut covered = g.covered_m2;
            let mut targets = Vec::new();
            for (id, area) in cached {
                if id == self.id() {
                    continue;
                }
                let inter = g.rect.intersection_area(&area);
                if inter > 0.0 {
                    targets.push(id);
                    covered += inter;
                }
            }
            let hit = !targets.is_empty() && covered + 1e-9 * g.target_m2.max(1.0) >= g.target_m2;
            self.caches.record_area(hit);
            if hit {
                if let GatherKind::Range { via_cache, .. } = &mut g.kind {
                    *via_cache = true;
                }
                self.park(corr, g, targets);
                return;
            }
        }
        self.scatter(now, corr, g);
    }

    /// Entry side of the distributed nearest-neighbor search: seed the
    /// ring radius from the local best candidate, then scatter.
    pub(crate) fn on_neighbor_query_req(
        &mut self,
        now: Micros,
        from: Endpoint,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
        corr: CorrId,
    ) {
        let local_best = if self.config.is_leaf() {
            let visitors = &self.visitors;
            self.sightings.nearest_where(p, &mut |key| {
                matches!(
                    visitors.get(ObjectId(key)),
                    Some(VisitorRecord::Leaf { offered_acc_m, .. }) if offered_acc_m <= req_acc_m
                )
            })
        } else {
            None
        };
        let radius_m = match local_best {
            Some((_, d)) => d + near_qual_m + 1e-6,
            None => self.nn_seed_radius(),
        };
        self.start_nn_round(now, from, corr, Ring { p, req_acc_m, radius_m }, near_qual_m, 0);
    }

    /// Starts (or escalates) one expanding-ring round. The first round
    /// is parked under the client's corr, every escalation under a
    /// fresh one.
    fn start_nn_round(
        &mut self,
        now: Micros,
        client: Endpoint,
        client_corr: CorrId,
        mut ring: Ring,
        near_qual_m: f64,
        escalations: u32,
    ) {
        ring.radius_m = ring.radius_m.min(self.root_diag() + near_qual_m + 1.0);
        let round_corr = if escalations == 0 { client_corr } else { self.corr.next_id() };
        let kind = GatherKind::Nn { ring, near_qual_m, escalations };
        let g = self.open_gather(now, client, client_corr, kind);
        self.scatter(now, round_corr, g);
    }

    /// A new gather with this server's own contribution counted.
    fn open_gather(
        &self,
        now: Micros,
        client: Endpoint,
        client_corr: CorrId,
        kind: GatherKind,
    ) -> Gather {
        let rect = kind.probe().rect();
        let mut g = Gather {
            client,
            client_corr,
            kind,
            rect,
            items: Vec::new(),
            covered_m2: 0.0,
            target_m2: rect.intersection_area(&self.config.root_area),
            seen_leaves: BTreeSet::new(),
            deadline_us: now + self.opts.query_timeout_us,
        };
        self.contribute_locally(&mut g);
        g
    }

    /// Restarts `g`'s coverage from this server's own contribution: a
    /// leaf entry overlapping the probe adds its items and its area.
    fn contribute_locally(&self, g: &mut Gather) {
        g.items.clear();
        g.covered_m2 = 0.0;
        g.seen_leaves.clear();
        if self.config.is_leaf() && self.config.area.intersects(&g.rect) {
            g.items = self.leaf_items(g.kind.probe());
            g.covered_m2 = g.rect.intersection_area(&self.config.area);
            g.seen_leaves.insert(self.id());
        }
    }

    /// Finishes `g` when its coverage is already complete or nothing is
    /// left to ask (an isolated root); otherwise sends its probe
    /// through the hierarchy and parks it under `corr`.
    fn scatter(&mut self, now: Micros, corr: CorrId, g: Gather) {
        let targets =
            if g.is_complete() { Vec::new() } else { self.scatter_targets(&g.rect, g.client) };
        if targets.is_empty() {
            self.finish(now, g, false);
        } else {
            self.park(corr, g, targets);
        }
    }

    /// Sends `g`'s probe to `targets` and parks it under `corr`.
    fn park(&mut self, corr: CorrId, g: Gather, targets: Vec<ServerId>) {
        let entry = self.id();
        for t in targets {
            self.emit(t, g.kind.probe().fwd(entry, corr));
        }
        self.pending.gathers.insert(corr, g);
    }

    /// Forwarding side of both scatters: a leaf answers the entry
    /// server directly; a non-leaf scatters on.
    pub(crate) fn on_probe_fwd(
        &mut self,
        from: Endpoint,
        probe: Probe<'_>,
        entry: ServerId,
        corr: CorrId,
    ) {
        let rect = probe.rect();
        if self.config.is_leaf() {
            if !self.config.area.intersects(&rect) {
                return;
            }
            let items = self.leaf_items(probe);
            let covered_area_m2 = rect.intersection_area(&self.config.area);
            self.stats.sub_results += 1;
            let (leaf, leaf_area) = (self.id(), self.config.area);
            self.emit(entry, probe.sub_res(items, covered_area_m2, leaf, leaf_area, corr));
        } else {
            for t in self.scatter_targets(&rect, from) {
                self.emit(t, probe.fwd(entry, corr));
            }
        }
    }

    /// A leaf's sub-result arrives at the entry server.
    pub(crate) fn on_sub_res(
        &mut self,
        now: Micros,
        items: Vec<ObjectLocation>,
        covered_area_m2: f64,
        leaf: ServerId,
        leaf_area: Rect,
        corr: CorrId,
    ) {
        self.caches.learn_area(leaf, leaf_area);
        let Some(g) = self.pending.gathers.get_mut(&corr) else { return };
        if g.seen_leaves.insert(leaf) {
            g.items.extend(items);
            g.covered_m2 += covered_area_m2;
        }
        if g.is_complete() {
            let g = self.pending.gathers.remove(&corr).expect("present above");
            self.finish(now, g, false);
        }
    }

    /// Resolves the gathers due at `now`: range gathers first, then NN
    /// gathers, each in corr order (the order the simulator digests
    /// pin).
    ///
    /// A timed-out *cache-direct* range scatter means the cached leaf
    /// areas went stale (the hierarchy reshaped, or a cached leaf
    /// died): the entry flushes the area cache and retries once through
    /// the hierarchy before answering. The retry restarts the gather
    /// from this server's own contribution: coverage collected from
    /// pre-reshape answers cannot be mixed with post-reshape ones (a
    /// leaf that answered with its old area overlaps the newcomer that
    /// took half of it, and the double-count could mark an incomplete
    /// answer complete). Every other gather answers partially from what
    /// arrived.
    pub(crate) fn expire_gathers(&mut self, now: Micros) {
        let mut due: Vec<(bool, CorrId)> = self
            .pending
            .gathers
            .iter()
            .filter(|(_, g)| g.deadline_us <= now)
            .map(|(c, g)| (matches!(g.kind, GatherKind::Nn { .. }), *c))
            .collect();
        due.sort_unstable();
        for (_, corr) in due {
            let mut g = self.pending.gathers.remove(&corr).expect("listed above");
            if let GatherKind::Range { via_cache: true, .. } = g.kind {
                self.caches.flush_areas();
                let targets = self.scatter_targets(&g.rect, g.client);
                if !targets.is_empty() {
                    if let GatherKind::Range { via_cache, .. } = &mut g.kind {
                        *via_cache = false;
                    }
                    g.deadline_us = now + self.opts.query_timeout_us;
                    self.contribute_locally(&mut g);
                    self.park(corr, g, targets);
                    continue;
                }
            }
            self.finish(now, g, true);
        }
    }

    /// Answers the client from a finished gather. A range gather
    /// reports whether its coverage closed. A completed NN round
    /// selects the nearest object and its near set, and escalates
    /// instead while the ring came up empty or the near set may reach
    /// past it.
    fn finish(&mut self, now: Micros, g: Gather, timed_out: bool) {
        let covered = g.is_complete();
        let items = dedup_items(g.items, g.seen_leaves.len());
        let msg = match g.kind {
            GatherKind::Range { .. } => {
                Message::RangeQueryRes { items, complete: covered && !timed_out, corr: g.client_corr }
            }
            GatherKind::Nn { ring, near_qual_m, escalations } => {
                let (nearest, near_set) =
                    select_neighbors(ring.p, &items, ring.req_acc_m, near_qual_m);
                let exhausted = ring.radius_m >= self.root_diag() || escalations >= 40;
                let wider = match nearest {
                    _ if timed_out || exhausted => None,
                    // Empty ring: double and retry.
                    None => Some(ring.radius_m * 2.0),
                    // The near set may extend beyond the ring: one more
                    // round with the exact radius.
                    Some((_, ld)) if ld.distance_to(ring.p) + near_qual_m > ring.radius_m + 1e-9 => {
                        Some(ld.distance_to(ring.p) + near_qual_m + 1e-6)
                    }
                    Some(_) => None,
                };
                if let Some(radius_m) = wider {
                    let ring = Ring { radius_m, ..ring };
                    let escalations = escalations + 1;
                    self.start_nn_round(now, g.client, g.client_corr, ring, near_qual_m, escalations);
                    return;
                }
                let complete = !timed_out;
                Message::NeighborQueryRes { nearest, near_set, complete, corr: g.client_corr }
            }
        };
        if timed_out {
            self.stats.gathers_timed_out += 1;
        } else {
            self.stats.gathers_completed += 1;
        }
        self.emit(g.client, msg);
    }

    /// A leaf's items for a probe.
    fn leaf_items(&self, probe: Probe<'_>) -> Vec<ObjectLocation> {
        match probe {
            Probe::Range(query) => self.leaf_range_items(query),
            Probe::Ring(ring) => self.leaf_nn_items(ring),
        }
    }
}
