//! Timers: soft-state expiry and pending-operation deadlines.

use super::LocationServer;
use crate::model::{Micros, ObjectId};
use crate::proto::Message;
use hiloc_net::{CorrId, Endpoint, Envelope};

impl LocationServer {
    /// Runs due timers at service time `now`: expires soft-state
    /// sightings (deregistering the visitors hierarchy-wide) and
    /// resolves timed-out gathers with partial answers.
    ///
    /// Drivers call this whenever the clock passes
    /// [`LocationServer::next_timer`].
    pub fn tick(&mut self, now: Micros) -> Vec<Envelope<Message>> {
        // Soft-state expiry (paper §5): the sighting lapsed, so the
        // visitor is deregistered from the entire hierarchy.
        if self.config.is_leaf() {
            for rec in self.sightings.expire_due(now) {
                let oid = ObjectId(rec.key);
                if let Some(removed) = self.visitors.remove(oid) {
                    let epoch = self.stamp(now);
                    if let Some(p) = self.parent() {
                        self.emit(p, Message::RemovePath { oid, epoch });
                    }
                    // k=2: expire the replica's copy too (at the dead
                    // record's own stamp, so a racing re-registration
                    // with a newer stamp survives at the replica).
                    self.repl_note_remove(now, oid, removed.epoch());
                }
                self.caches.forget_object(oid);
                self.stats.expired += 1;
            }
        }

        // Path soft state: leaves re-assert their visitors' forwarding
        // paths; non-leaves discard records whose epoch went stale (a
        // lost RemovePath must not leave zombies forever).
        if self.next_path_maintenance_us.is_some_and(|due| due <= now) {
            self.next_path_maintenance_us = Some(now + self.opts.path_refresh_us.max(1));
            // Replica soft state: shadow records the agent stopped
            // refreshing must not serve stale answers forever.
            self.replicas.sweep_expired(now, self.opts.sighting_ttl_us);
            if self.config.is_leaf() {
                if let Some(p) = self.parent() {
                    // Records with a bulk state transfer in flight are
                    // excluded: bumping their epoch here would make the
                    // source's copy look newer than the transfer and
                    // wedge the ack-time removal — the target re-asserts
                    // their paths itself once it owns them. Records with
                    // a buffered or in-flight *replica delta* are
                    // excluded for the same reason: the stream's acked
                    // watermark must never claim a newer stamp than the
                    // sink durably holds.
                    let mut in_transfer: std::collections::BTreeSet<ObjectId> = self
                        .pending
                        .transfer_out
                        .values()
                        .flat_map(|t| t.oids.iter().copied())
                        .collect();
                    in_transfer.extend(self.repl_inflight_oids());
                    // Refresh the records' own epochs too, so the
                    // keep-alive epoch chain stays monotone. All
                    // refreshes land as one atomic WAL batch with a
                    // single durability round instead of one fsync per
                    // visitor.
                    //
                    // Only records with a *backing sighting* get their
                    // epoch refreshed. A leaf record without one
                    // (restore-on-demand pending after a restart, or
                    // shipped sighting-less by a drain transfer) may be
                    // a zombie — the object could have handed over
                    // elsewhere while this server was down — and
                    // refreshing a zombie's epoch would fight the true
                    // agent's keep-alive at every ancestor forever.
                    // Such a record still asserts its path, but with
                    // its *old* epoch (a competing true agent's
                    // `epoch = now` always outbids it, yet a record
                    // that is the only copy stays routable, so agent
                    // lookups can still find it and heal the object's
                    // pointer); its registrant is probed each period
                    // (proactive §5 restore-on-demand); and if it is
                    // still sighting-less one sighting TTL after its
                    // last epoch, it is dropped with its path — by then
                    // the object either answered a probe here or lives
                    // at its real agent. All three cases were found by
                    // the scenario fuzzer (crash/restart/retire races).
                    let ttl = self.opts.sighting_ttl_us;
                    // One HLC stamp for the whole refresh batch: a
                    // per-record stamp would burn the logical counter
                    // 4096 times per millisecond at million-object
                    // scale and drift the physical field; one stamp
                    // keeps the batch atomic in arbitration order too.
                    let stamp = self.stamp(now);
                    let mut refreshed: Vec<(ObjectId, super::VisitorRecord)> = Vec::new();
                    let mut pending: Vec<(ObjectId, crate::model::Hlc, Endpoint)> = Vec::new();
                    let mut zombies: Vec<(ObjectId, crate::model::Hlc)> = Vec::new();
                    for (oid, r) in self.visitors.iter() {
                        if in_transfer.contains(&oid) {
                            continue;
                        }
                        let super::VisitorRecord::Leaf { offered_acc_m, reg, epoch } = r else {
                            continue;
                        };
                        if self.sightings.get(oid.0).is_some() {
                            refreshed.push((
                                oid,
                                super::VisitorRecord::Leaf {
                                    offered_acc_m,
                                    reg,
                                    epoch: stamp,
                                },
                            ));
                        } else if epoch.physical_us().saturating_add(ttl) <= now {
                            zombies.push((oid, epoch));
                        } else {
                            pending.push((oid, epoch, reg.registrant));
                        }
                    }
                    let oids: Vec<ObjectId> = refreshed.iter().map(|(oid, _)| *oid).collect();
                    self.visitors.apply_all(refreshed);
                    for oid in oids {
                        self.emit(p, Message::CreatePath { oid, epoch: stamp });
                    }
                    for (oid, epoch, registrant) in pending {
                        self.emit(p, Message::CreatePath { oid, epoch });
                        self.stats.probes_sent += 1;
                        self.emit(registrant, Message::PositionProbe { oid });
                    }
                    for (oid, epoch) in zombies {
                        self.visitors.remove(oid);
                        self.caches.forget_object(oid);
                        self.stats.expired += 1;
                        self.repl_note_remove(now, oid, epoch);
                        // The removal carries the zombie's *stale*
                        // epoch: ancestors whose forwarding record was
                        // asserted by this zombie (same old epoch) are
                        // cleaned, while a true agent's newer path
                        // records survive the epoch guard — a removal
                        // stamped `now` would tear the live path down
                        // at every common ancestor.
                        self.emit(p, Message::RemovePath { oid, epoch });
                    }
                }
            } else if !self.repl.standby_mode {
                // A warm standby skips this sweep entirely: it mirrors
                // a source whose keep-alives never reach it, so every
                // stamp it holds looks stale from here — only streamed
                // removals may delete mirrored records, or promotion
                // would lose durably-acked state (found by the
                // replication fuzzer: a crashed leaf's WAL-recovered
                // records re-assert their *old* epoch, the standby
                // expired them locally, and a later promotion broke
                // the acked-watermark contract).
                let ttl = self.opts.path_ttl_us;
                let stale: Vec<(ObjectId, crate::model::Hlc)> = self
                    .visitors
                    .iter()
                    .filter(|(_, r)| r.epoch().physical_us().saturating_add(ttl) <= now)
                    .map(|(oid, r)| (oid, r.epoch()))
                    .collect();
                for (oid, epoch) in stale {
                    self.visitors.remove(oid);
                    self.stats.expired += 1;
                    // The standby drops the zombie at its stale stamp
                    // too — a live path's newer stamp survives there.
                    self.repl_note_remove(now, oid, epoch);
                }
            }
        }

        // Range and NN gathers: partial answers, or the area-cache retry.
        self.expire_gathers(now);

        // Position waits. A timed-out wait whose first attempt went
        // *directly to a cached agent* (§6.5) must not answer "unknown"
        // — the cached server may simply be gone (crashed, retired):
        // invalidate the entry and fall back to the hierarchy, exactly
        // as a `PosQueryMiss` would. Only a hierarchy-routed wait that
        // times out reports the object as (currently) unknown.
        let due: Vec<CorrId> = self
            .pending
            .pos_wait
            .iter()
            .filter(|(_, w)| w.deadline_us <= now)
            .map(|(c, _)| *c)
            .collect();
        for corr in due {
            let w = self.pending.pos_wait.remove(&corr).expect("listed above");
            if w.via_cache {
                self.caches.forget_agent(w.oid);
                self.route_pos_query(w.client, w.oid, corr, now + self.opts.query_timeout_us);
                continue;
            }
            self.stats.gathers_timed_out += 1;
            self.emit(
                w.client,
                Message::PosQueryRes {
                    oid: w.oid,
                    found: None,
                    time_us: 0,
                    max_speed_mps: 0.0,
                    corr,
                },
            );
        }

        // Handover state: give up quietly; the object's next update
        // retries the handover (soft-state philosophy).
        self.pending.handover_origin.retain(|_, o| o.deadline_us > now);
        self.pending.handover_relay.retain(|_, r| r.deadline_us > now);

        // Bulk state transfers are the opposite of soft state: the
        // source must not drop its records until the target durably
        // holds them, so a missing ack means re-send, not give up.
        let due: Vec<CorrId> = self
            .pending
            .transfer_out
            .iter()
            .filter(|(_, t)| t.deadline_us <= now)
            .map(|(c, _)| *c)
            .collect();
        for corr in due {
            self.resend_transfer(now, corr);
        }

        // Cold-promotion pathSync pulls retry the same way: the barrier
        // in `route_agent_lookup` stays up until every child chunk
        // stream completes, so a lost request must be re-asked.
        let due: Vec<CorrId> = self
            .pending
            .path_sync
            .iter()
            .filter(|(_, s)| s.deadline_us <= now)
            .map(|(c, _)| *c)
            .collect();
        for corr in due {
            self.resend_path_sync(now, corr);
        }

        // Replication delta stream: resend the in-flight batch if its
        // ack is overdue (at-least-once; the sink's HLC guard dedups).
        self.repl_tick(now);

        self.drain()
    }

    /// The next instant at which [`LocationServer::tick`] has work.
    pub fn next_timer(&self) -> Option<Micros> {
        let expiry = if self.config.is_leaf() { self.sightings.next_expiry() } else { None };
        let deadline = self.pending.next_deadline();
        // Path maintenance is scheduled once any state could go stale.
        let repl = self.repl_next_deadline();
        [expiry, deadline, self.next_path_maintenance_us, repl].into_iter().flatten().min()
    }
}
