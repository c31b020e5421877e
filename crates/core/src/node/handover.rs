//! Position updates and handover processing (paper §6.2,
//! Algorithms 6-2 and 6-3).

use super::pending::{HandoverOrigin, HandoverRelay, RelayAction};
use super::{LocationServer, VisitorRecord};
use crate::model::{Hlc, Micros, RegInfo, Sighting};
use crate::proto::Message;
use hiloc_net::{CorrId, Endpoint};

impl LocationServer {
    /// Algorithm 6-2: apply the update locally, or initiate a handover
    /// when the object left this agent's service area.
    pub(crate) fn on_update(&mut self, now: Micros, from: Endpoint, sighting: Sighting) {
        self.on_update_inner(now, from, sighting, None);
    }

    /// The batched update protocol (§7's update discussion): applies
    /// every sighting in arrival order under one WAL group commit —
    /// any durable writes the batch triggers (keep-alive epoch bumps,
    /// handover removals) share a single fsync — and answers the plain
    /// acks as one coalesced [`Message::UpdateBatchAck`] datagram.
    /// Handovers, deregistrations and agent lookups keep their
    /// individual messages.
    pub(crate) fn on_update_batch(
        &mut self,
        now: Micros,
        from: Endpoint,
        sightings: Vec<Sighting>,
        corr: CorrId,
    ) {
        let mut acks = Vec::with_capacity(sightings.len());
        self.visitors.begin_group_commit();
        for sighting in sightings {
            self.on_update_inner(now, from, sighting, Some(&mut acks));
        }
        // The deferred fsync lands before any ack leaves this server:
        // the outbox is drained only after `handle` returns.
        self.visitors.end_group_commit();
        self.emit(from, Message::UpdateBatchAck { acks, time_us: now, corr });
    }

    /// Shared update path. `batch_acks = None` acknowledges with an
    /// individual [`Message::UpdateAck`]; `Some` collects the ack for a
    /// coalesced batch response instead.
    fn on_update_inner(
        &mut self,
        now: Micros,
        from: Endpoint,
        sighting: Sighting,
        batch_acks: Option<&mut Vec<(crate::model::ObjectId, f64)>>,
    ) {
        // A non-finite position is no position: drop the sighting and
        // change nothing, as UDP drops its datagram at `Point::decode`.
        // Taken as a move it would fail `contains` and hand over to the
        // root, which answers `OutOfServiceArea` and so deregisters a
        // live object.
        if !sighting.pos.is_finite() {
            return;
        }
        let oid = sighting.oid;
        let Some(VisitorRecord::Leaf { offered_acc_m, reg, .. }) = self.visitors.get(oid) else {
            // Not this object's agent: the object's AgentChanged was
            // lost (or this server restarted without durability). Route
            // an agent lookup so the object learns its current agent
            // and can retry; tell it to re-register when the service
            // does not know it at all.
            self.stats.updates_dropped += 1;
            self.route_agent_lookup(now, oid, from, from);
            return;
        };

        if self.config.contains(sighting.pos) {
            // Lines 7–8: refresh the sighting (and its soft-state TTL).
            let stored = self.stored(&sighting, now);
            self.sightings.upsert(stored);
            self.stats.updates += 1;
            // k=2: the fresh sighting streams to the replica sibling at
            // the record's *current* stamp (an in-place refresh is not
            // a path change; equal stamps apply, so the replica's copy
            // still advances).
            self.repl_note_leaf(now, oid);
            match batch_acks {
                Some(acks) => acks.push((oid, offered_acc_m)),
                None => self.emit(from, Message::UpdateAck { oid, offered_acc_m, time_us: now }),
            }
            return;
        }

        // Lines 1–6: the object moved out — hand over via the parent.
        // The old agent stays responsible until the handover completes,
        // and this update proves the object is alive: refresh the
        // stored sighting's TTL (position unchanged — the new one lies
        // outside this leaf) so soft-state expiry cannot deregister an
        // actively-reporting object while handovers are failing (e.g.
        // the parent chain is down; a fuzzer find: a 46 s root outage
        // expired a visitor that reported every 5 s throughout).
        if let Some(existing) = self.sightings.get(oid.0) {
            let refreshed = hiloc_storage::StoredSighting {
                expires_us: now + self.opts.sighting_ttl_us,
                ..existing
            };
            self.sightings.upsert(refreshed);
        }
        self.stats.handovers_started += 1;
        match self.parent() {
            Some(p) => {
                let corr = self.corr.next_id();
                self.pending.handover_origin.insert(
                    corr,
                    HandoverOrigin {
                        oid,
                        object: from,
                        deadline_us: now + self.opts.query_timeout_us,
                    },
                );
                let epoch = self.stamp(now);
                self.emit(p, Message::HandoverReq { sighting, reg, epoch, corr });
            }
            None => {
                // Single-server deployment: the object left the root
                // service area and is deregistered (paper §4).
                self.remove_locally(now, oid);
                self.emit(from, Message::OutOfServiceArea { oid });
            }
        }
    }

    /// Algorithm 6-3: route the handover to the leaf containing the new
    /// position, parking the path-splice action for the response.
    pub(crate) fn on_handover_req(
        &mut self,
        now: Micros,
        from: Endpoint,
        sighting: Sighting,
        reg: RegInfo,
        epoch: Hlc,
        corr: CorrId,
    ) {
        let oid = sighting.oid;
        let deadline_us = now + self.opts.query_timeout_us;
        if self.config.contains(sighting.pos) {
            if self.config.is_leaf() {
                // Lines 2–7: become the new agent.
                let offered = self.offered_for(&reg);
                self.visitors
                    .apply(oid, VisitorRecord::Leaf { offered_acc_m: offered, reg, epoch });
                let stored = self.stored(&sighting, now);
                self.sightings.upsert(stored);
                // k=2: the adopted record streams to the replica.
                self.repl_note_leaf(now, oid);
                self.emit(
                    from,
                    Message::HandoverRes { oid, new_agent: self.id(), offered_acc_m: offered, epoch, corr },
                );
            } else {
                // Lines 8–15: forward downwards; on response, point the
                // forwarding reference at the chosen child.
                let child = self
                    .config
                    .child_for(sighting.pos)
                    .expect("children partition a non-leaf service area");
                self.pending.handover_relay.insert(
                    corr,
                    HandoverRelay {
                        reply_to: from,
                        oid,
                        action: RelayAction::SetForward(child),
                        epoch,
                        deadline_us,
                    },
                );
                self.emit(child, Message::HandoverReq { sighting, reg, epoch, corr });
            }
        } else {
            // Lines 16–21: forward upwards; on response, remove the
            // record (the object left this subtree).
            match self.parent() {
                Some(p) => {
                    self.pending.handover_relay.insert(
                        corr,
                        HandoverRelay {
                            reply_to: from,
                            oid,
                            action: RelayAction::RemoveRecord,
                            epoch,
                            deadline_us,
                        },
                    );
                    self.emit(p, Message::HandoverReq { sighting, reg, epoch, corr });
                }
                None => {
                    // Root and still outside: the object left the
                    // service area entirely. Drop the root's own record
                    // and fail the handover down the chain.
                    if self.visitors.remove_if_older(oid, epoch).is_some() {
                        self.repl_note_remove(now, oid, epoch);
                    }
                    self.emit(from, Message::HandoverFailed { oid, epoch, corr });
                }
            }
        }
    }

    /// The response unwinds along the request path, splicing forwarding
    /// pointers; the old agent finally tells the object its new agent.
    pub(crate) fn on_handover_res(
        &mut self,
        now: Micros,
        oid: crate::model::ObjectId,
        new_agent: hiloc_net::ServerId,
        offered_acc_m: f64,
        epoch: Hlc,
        corr: CorrId,
    ) {
        if let Some(origin) = self.pending.handover_origin.remove(&corr) {
            // Old agent (Alg. 6-2 lines 3–6): notify the object, then
            // drop the local records. The epoch guard protects a
            // re-registration that raced the handover.
            if self.visitors.remove_if_older(origin.oid, epoch).is_some() {
                self.sightings.remove(origin.oid.0);
                // k=2: the object moved away — retire its replica copy.
                self.repl_note_remove(now, origin.oid, epoch);
            }
            // §6.5: this server witnessed the agent change first-hand —
            // patch its own entry-role agent cache along with the object.
            self.caches.patch_agent(oid, new_agent);
            self.stats.handovers_completed += 1;
            self.emit(origin.object, Message::AgentChanged { oid, new_agent, offered_acc_m });
            return;
        }
        if let Some(relay) = self.pending.handover_relay.remove(&corr) {
            match relay.action {
                RelayAction::SetForward(child) => {
                    if self.visitors.apply(oid, VisitorRecord::Forward { child, epoch }) {
                        self.repl_note_forward(now, oid, child, epoch);
                    }
                }
                RelayAction::RemoveRecord => {
                    if self.visitors.remove_if_older(oid, epoch).is_some() {
                        self.repl_note_remove(now, oid, epoch);
                    }
                }
            }
            self.emit(
                relay.reply_to,
                Message::HandoverRes { oid, new_agent, offered_acc_m, epoch, corr },
            );
        }
        // Unknown correlation: a late or duplicated response — ignore.
    }

    /// Routes an agent lookup along the forwarding paths (like a
    /// position query); the agent answers the object directly with
    /// `AgentChanged`. `from` guards against bouncing on stale paths.
    pub(crate) fn route_agent_lookup(
        &mut self,
        _now: Micros,
        oid: crate::model::ObjectId,
        object: Endpoint,
        from: Endpoint,
    ) {
        match self.visitors.get(oid) {
            Some(VisitorRecord::Leaf { offered_acc_m, .. }) => {
                let me = self.id();
                self.emit(object, Message::AgentChanged { oid, new_agent: me, offered_acc_m });
            }
            Some(VisitorRecord::Forward { child, .. }) => {
                self.emit(child, Message::AgentLookup { oid, object });
            }
            None => match self.parent() {
                Some(p) if Endpoint::Server(p) != from => {
                    self.emit(p, Message::AgentLookup { oid, object });
                }
                // Came from the parent along a stale downward
                // reference (e.g. the parent still points at a drained
                // leaf because the new agent's `CreatePath` was lost):
                // stay *silent*. Answering `OutOfServiceArea` here
                // would deregister a live object; the keep-alive soft
                // state re-asserts the true path within one refresh
                // period and the object's retried update then routes
                // correctly. Found by the scenario fuzzer (a 1-verb
                // `Retire` timeline under message loss).
                Some(_) => {}
                // At the root with no record at all: the object is
                // unknown service-wide and must re-register — unless
                // this root's forwarding table is provably still
                // warming (a cold promotion's chunked `pathSync` pulls
                // are open), in which case the verdict waits for the
                // rebuild to finish. The barrier replaces the PR 4
                // wall-clock grace window: it lifts exactly when every
                // child answered `done`, never earlier (the pulls
                // retry indefinitely) and never later. A warm-standby
                // promotion adopts its table O(1) and runs no
                // `pathSync` at all, so it never suspends verdicts.
                None if self.path_sync_in_progress() => {}
                None => self.emit(object, Message::OutOfServiceArea { oid }),
            },
        }
    }

    /// `AgentLookup` hop: answer as the agent or keep routing.
    pub(crate) fn on_agent_lookup(
        &mut self,
        now: Micros,
        from: Endpoint,
        oid: crate::model::ObjectId,
        object: Endpoint,
    ) {
        self.route_agent_lookup(now, oid, object, from);
    }

    /// A handover failed at the root (object outside the service area):
    /// unwind the path, removing records, and deregister the object.
    pub(crate) fn on_handover_failed(
        &mut self,
        now: Micros,
        oid: crate::model::ObjectId,
        epoch: Hlc,
        corr: CorrId,
    ) {
        if let Some(origin) = self.pending.handover_origin.remove(&corr) {
            if self.visitors.remove_if_older(origin.oid, epoch).is_some() {
                self.sightings.remove(origin.oid.0);
                self.repl_note_remove(now, origin.oid, epoch);
            }
            self.emit(origin.object, Message::OutOfServiceArea { oid });
            return;
        }
        if let Some(relay) = self.pending.handover_relay.remove(&corr) {
            // Every relay on a failed handover is on the old path.
            if self.visitors.remove_if_older(oid, epoch).is_some() {
                self.repl_note_remove(now, oid, epoch);
            }
            self.emit(relay.reply_to, Message::HandoverFailed { oid, epoch, corr });
        }
    }
}
