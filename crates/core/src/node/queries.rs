//! Query processing: position queries (Alg. 6-4), range queries
//! (Alg. 6-5) and the distributed nearest-neighbor search.

use super::pending::{NnGather, PosWait, RangeGather};
use super::{LocationServer, VisitorRecord};
use crate::model::semantics::select_neighbors;
use crate::model::{LocationDescriptor, Micros, ObjectId, RangeQuery};
use crate::proto::{Message, ObjectLocation};
use hiloc_geo::{Point, Rect};
use hiloc_net::{CorrId, Endpoint, ServerId};
use std::collections::BTreeSet;

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
pub(crate) fn dedup_items(items: Vec<ObjectLocation>, leaves: usize) -> Vec<ObjectLocation> {
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

    // --------------------------------------------------------- range query

    /// Algorithm 6-5, entry side: contribute locally, then scatter via
    /// the hierarchy (or directly to cached leaves, §6.5) and gather.
    pub(crate) fn on_range_query_req(
        &mut self,
        now: Micros,
        from: Endpoint,
        query: RangeQuery,
        corr: CorrId,
    ) {
        let probe = Self::probe_rect(&query);
        let target_m2 = probe.intersection_area(&self.config.root_area);
        let mut gather = RangeGather {
            client: from,
            query: query.clone(),
            items: Vec::new(),
            covered_m2: 0.0,
            target_m2,
            seen_leaves: BTreeSet::new(),
            via_cache: false,
            deadline_us: now + self.opts.query_timeout_us,
        };
        if self.config.is_leaf() && self.config.area.intersects(&probe) {
            gather.items = self.leaf_range_items(&query);
            gather.covered_m2 = probe.intersection_area(&self.config.area);
            gather.seen_leaves.insert(self.id());
        }
        if gather.is_complete() {
            self.stats.gathers_completed += 1;
            let items = dedup_items(gather.items, gather.seen_leaves.len());
            self.emit(from, Message::RangeQueryRes { items, complete: true, corr });
            return;
        }
        // §6.5 area cache: when the cached leaves cover the rest of the
        // probe, scatter directly without traversing the hierarchy.
        if self.caches.config().area_cache {
            let (cached, _) = self.caches.leaves_covering(&probe);
            let mut covered = gather.covered_m2;
            let mut targets = Vec::new();
            for (id, area) in cached {
                if id == self.id() {
                    continue;
                }
                let inter = probe.intersection_area(&area);
                if inter > 0.0 {
                    targets.push(id);
                    covered += inter;
                }
            }
            let hit = !targets.is_empty() && covered + 1e-9 * target_m2.max(1.0) >= target_m2;
            self.caches.record_area(hit);
            if hit {
                for t in targets {
                    self.emit(t, Message::RangeQueryFwd { query: query.clone(), entry: self.id(), corr });
                }
                gather.via_cache = true;
                self.pending.range_gather.insert(corr, gather);
                return;
            }
        }
        let targets = self.scatter_targets(&probe, from);
        if targets.is_empty() {
            // Nowhere to go (isolated root): answer with what we have.
            let complete = gather.is_complete();
            self.stats.gathers_completed += 1;
            let items = dedup_items(gather.items, gather.seen_leaves.len());
            self.emit(from, Message::RangeQueryRes { items, complete, corr });
            return;
        }
        let entry = self.id();
        for t in targets {
            self.emit(t, Message::RangeQueryFwd { query: query.clone(), entry, corr });
        }
        self.pending.range_gather.insert(corr, gather);
    }

    /// Algorithm 6-5, forwarding side: leaves answer the entry server
    /// directly; non-leaves scatter on.
    pub(crate) fn on_range_query_fwd(
        &mut self,
        from: Endpoint,
        query: RangeQuery,
        entry: ServerId,
        corr: CorrId,
    ) {
        let probe = Self::probe_rect(&query);
        if self.config.is_leaf() {
            if !self.config.area.intersects(&probe) {
                return;
            }
            let items = self.leaf_range_items(&query);
            let covered = probe.intersection_area(&self.config.area);
            self.stats.sub_results += 1;
            self.emit(
                entry,
                Message::RangeQuerySubRes {
                    items,
                    covered_area_m2: covered,
                    leaf: self.id(),
                    leaf_area: self.config.area,
                    corr,
                },
            );
        } else {
            for t in self.scatter_targets(&probe, from) {
                self.emit(t, Message::RangeQueryFwd { query: query.clone(), entry, corr });
            }
        }
    }

    /// A leaf's partial result arrives at the entry server.
    pub(crate) fn on_range_sub_res(
        &mut self,
        items: Vec<ObjectLocation>,
        covered_area_m2: f64,
        leaf: ServerId,
        leaf_area: Rect,
        corr: CorrId,
    ) {
        self.caches.learn_area(leaf, leaf_area);
        let complete = {
            let Some(g) = self.pending.range_gather.get_mut(&corr) else { return };
            if g.seen_leaves.insert(leaf) {
                g.items.extend(items);
                g.covered_m2 += covered_area_m2;
            }
            g.is_complete()
        };
        if complete {
            let g = self.pending.range_gather.remove(&corr).expect("checked above");
            self.stats.gathers_completed += 1;
            let items = dedup_items(g.items, g.seen_leaves.len());
            self.emit(g.client, Message::RangeQueryRes { items, complete: true, corr });
        }
    }

    // ---------------------------------------------------- nearest neighbor

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
        let radius = match local_best {
            Some((_, d)) => d + near_qual_m + 1e-6,
            None => self.nn_seed_radius(),
        };
        self.start_nn_round(now, from, p, req_acc_m, near_qual_m, radius, corr, 0);
    }

    /// Starts (or escalates) one expanding-ring round.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_nn_round(
        &mut self,
        now: Micros,
        client: Endpoint,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
        radius_m: f64,
        client_corr: CorrId,
        escalations: u32,
    ) {
        let radius_m = radius_m.min(self.root_diag() + near_qual_m + 1.0);
        let probe = Self::nn_probe(p, radius_m);
        let target_m2 = probe.intersection_area(&self.config.root_area);
        let round_corr = if escalations == 0 { client_corr } else { self.corr.next_id() };
        let mut g = NnGather {
            client,
            client_corr,
            p,
            req_acc_m,
            near_qual_m,
            radius_m,
            items: Vec::new(),
            covered_m2: 0.0,
            target_m2,
            seen_leaves: BTreeSet::new(),
            escalations,
            deadline_us: now + self.opts.query_timeout_us,
        };
        if self.config.is_leaf() && self.config.area.intersects(&probe) {
            g.items = self.leaf_nn_items(p, radius_m, req_acc_m);
            g.covered_m2 = probe.intersection_area(&self.config.area);
            g.seen_leaves.insert(self.id());
        }
        if g.is_complete() {
            self.finalize_nn(now, g);
            return;
        }
        let targets = self.scatter_targets(&probe, client);
        if targets.is_empty() {
            self.finalize_nn(now, g);
            return;
        }
        let entry = self.id();
        for t in targets {
            self.emit(t, Message::NeighborQueryFwd { p, req_acc_m, radius_m, entry, corr: round_corr });
        }
        self.pending.nn_gather.insert(round_corr, g);
    }

    /// Completes a gather round: answer, or escalate the ring.
    pub(crate) fn finalize_nn(&mut self, now: Micros, g: NnGather) {
        let items = dedup_items(g.items, g.seen_leaves.len());
        let (nearest, near_set) = select_neighbors(g.p, &items, g.req_acc_m, g.near_qual_m);
        let exhausted = g.radius_m >= self.root_diag() || g.escalations >= 40;
        match nearest {
            None if !exhausted => {
                // Empty ring: double and retry.
                self.start_nn_round(
                    now,
                    g.client,
                    g.p,
                    g.req_acc_m,
                    g.near_qual_m,
                    g.radius_m * 2.0,
                    g.client_corr,
                    g.escalations + 1,
                );
            }
            Some((_, ld)) if ld.distance_to(g.p) + g.near_qual_m > g.radius_m + 1e-9 && !exhausted => {
                // The near set may extend beyond the ring: one more
                // round with the exact radius.
                let radius = ld.distance_to(g.p) + g.near_qual_m + 1e-6;
                self.start_nn_round(
                    now,
                    g.client,
                    g.p,
                    g.req_acc_m,
                    g.near_qual_m,
                    radius,
                    g.client_corr,
                    g.escalations + 1,
                );
            }
            _ => {
                self.stats.gathers_completed += 1;
                self.emit(
                    g.client,
                    Message::NeighborQueryRes { nearest, near_set, complete: true, corr: g.client_corr },
                );
            }
        }
    }

    /// Forwarding side of the ring scatter.
    pub(crate) fn on_neighbor_query_fwd(
        &mut self,
        from: Endpoint,
        p: Point,
        req_acc_m: f64,
        radius_m: f64,
        entry: ServerId,
        corr: CorrId,
    ) {
        let probe = Self::nn_probe(p, radius_m);
        if self.config.is_leaf() {
            if !self.config.area.intersects(&probe) {
                return;
            }
            let items = self.leaf_nn_items(p, radius_m, req_acc_m);
            let covered = probe.intersection_area(&self.config.area);
            self.stats.sub_results += 1;
            self.emit(
                entry,
                Message::NeighborQuerySubRes {
                    items,
                    covered_area_m2: covered,
                    leaf: self.id(),
                    leaf_area: self.config.area,
                    corr,
                },
            );
        } else {
            for t in self.scatter_targets(&probe, from) {
                self.emit(t, Message::NeighborQueryFwd { p, req_acc_m, radius_m, entry, corr });
            }
        }
    }

    /// A leaf's ring candidates arrive at the entry server.
    pub(crate) fn on_neighbor_sub_res(
        &mut self,
        now: Micros,
        items: Vec<ObjectLocation>,
        covered_area_m2: f64,
        leaf: ServerId,
        leaf_area: Rect,
        corr: CorrId,
    ) {
        self.caches.learn_area(leaf, leaf_area);
        let complete = {
            let Some(g) = self.pending.nn_gather.get_mut(&corr) else { return };
            if g.seen_leaves.insert(leaf) {
                g.items.extend(items);
                g.covered_m2 += covered_area_m2;
            }
            g.is_complete()
        };
        if complete {
            let g = self.pending.nn_gather.remove(&corr).expect("checked above");
            self.finalize_nn(now, g);
        }
    }
}
