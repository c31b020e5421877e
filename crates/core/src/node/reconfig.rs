//! Hierarchy reconfiguration: live joins, leaves and root failover.
//!
//! The paper's tree is static (§4). This module lets it reshape while
//! serving traffic:
//!
//! * **Join** — a new leaf splits a sibling's area; the sibling hands
//!   the covered visitor records over in one bulk [`Message::StateTransfer`].
//! * **Leave** — a leaf drains *all* of its records to the sibling
//!   absorbing its area, then detaches.
//! * **Root failover** — a fresh successor takes the root role and
//!   rebuilds its forwarding table from its children (`pathSync`), on
//!   top of the ordinary leaf keep-alives.
//!
//! Correctness leans on two existing mechanisms rather than a
//! distributed commit:
//!
//! 1. **Atomic durable apply** — the target applies the whole transfer
//!    as one WAL batch record ([`VisitorDb` `apply_all`]), so a crash
//!    mid-apply recovers to *all-or-nothing*, never a partial batch.
//! 2. **Per-object epoch guards** — the transfer carries a path-change
//!    epoch; any newer per-object event (handover, re-registration)
//!    wins on both sides, at apply time *and* at ack-removal time.
//!
//! The source keeps its records — and keeps answering queries and
//! updates for them — until the target's ack arrives
//! (*transfer-in-progress routing*), re-sending on a deadline. If
//! either side crashes mid-transfer, the retry plus the ordinary
//! per-object handover path (an update whose position falls outside
//! the shrunk area hands the object over through the tree) converge
//! the records onto exactly one side.

use super::pending::{PathSyncOut, TransferOut};
use super::{LocationServer, VisitorRecord};
use crate::area::ServerConfig;
use crate::model::{Hlc, Micros, ObjectId};
use crate::proto::{Message, TransferRecord};
use hiloc_net::{CorrId, Endpoint, Envelope, ServerId};
use hiloc_geo::Rect;

/// Records per `pathSync` chunk: large enough that a small table syncs
/// in one round trip, small enough that a million-entry rebuild never
/// ships one unbounded datagram.
pub(crate) const PATH_SYNC_CHUNK: usize = 512;

impl LocationServer {
    /// Installs a new configuration record (the control plane reshaped
    /// the tree: this server's area shrank or grew, its children or
    /// parent changed, or it was promoted to root). Visitor records and
    /// sightings are untouched — moving them is what the bulk state
    /// transfer is for.
    ///
    /// # Panics
    ///
    /// Panics when the record belongs to a different server.
    pub fn reconfigure(&mut self, config: ServerConfig) {
        assert_eq!(config.id, self.config.id, "configuration record for a different server");
        self.config = config;
    }

    /// Starts a bulk transfer of this leaf's visitor records to the
    /// sibling leaf `target`: records whose sighting lies inside
    /// `area` (a join took that part of this leaf's area), or **all**
    /// records when `area` is `None` (this leaf is leaving). Returns
    /// the envelopes to send.
    ///
    /// Records without a sighting (restore-on-demand pending after a
    /// restart) are only included in a drain-all transfer — on an area
    /// split their position is unknown, so they stay here until the
    /// object reports and the ordinary handover path moves them.
    ///
    /// The records are **not** removed yet: the source keeps answering
    /// for them until [`Message::StateTransferAck`] arrives, and
    /// re-sends on a deadline (see `Pending::transfer_out`).
    pub fn begin_transfer_out(
        &mut self,
        now: Micros,
        target: ServerId,
        area: Option<Rect>,
    ) -> Vec<Envelope<Message>> {
        let records = self.collect_transfer_records(area);
        if records.is_empty() {
            return Vec::new();
        }
        let corr = self.corr.next_id();
        let epoch = self.stamp(now);
        let oids: Vec<ObjectId> = records.iter().map(|r| r.oid).collect();
        self.pending.transfer_out.insert(
            corr,
            TransferOut {
                target,
                oids,
                epoch,
                deadline_us: now + self.opts.query_timeout_us,
                attempts: 0,
            },
        );
        self.stats.transfers_started += 1;
        self.emit(target, Message::StateTransfer { records, epoch, corr });
        self.drain()
    }

    /// The shipped form of one visitor's *current* state, or `None`
    /// when this server no longer holds it as agent.
    fn transfer_record_for(&self, oid: ObjectId) -> Option<TransferRecord> {
        let VisitorRecord::Leaf { offered_acc_m, reg, .. } = self.visitors.get(oid)? else {
            return None;
        };
        let sighting = self
            .sightings
            .get(oid.0)
            .map(|s| crate::model::Sighting::new(oid, s.time_us, s.pos, s.acc_sens_m));
        Some(TransferRecord { oid, reg, offered_acc_m, sighting })
    }

    /// The records a transfer send ships. `area = None` means drain
    /// everything.
    fn collect_transfer_records(&self, area: Option<Rect>) -> Vec<TransferRecord> {
        let mut records = Vec::new();
        for (oid, rec) in self.visitors.iter() {
            if !matches!(rec, VisitorRecord::Leaf { .. }) {
                continue;
            }
            let r = self.transfer_record_for(oid).expect("matched a Leaf record above");
            match (area, &r.sighting) {
                // Area split: only records sighted inside the lost half.
                (Some(a), Some(s)) if !a.contains_half_open(s.pos) => continue,
                (Some(_), None) => continue,
                _ => {}
            }
            records.push(r);
        }
        records
    }

    /// Re-collects and re-sends the still-unacked records of a timed
    /// out transfer with a fresh epoch, backing off exponentially (the
    /// deadline doubles per attempt, capped at 8× the query timeout).
    /// Objects that left by ordinary means drop out; an emptied
    /// transfer is abandoned.
    pub(crate) fn resend_transfer(&mut self, now: Micros, corr: CorrId) {
        let Some(mut t) = self.pending.transfer_out.remove(&corr) else { return };
        let mut records = Vec::new();
        t.oids.retain(|&oid| match self.transfer_record_for(oid) {
            Some(r) => {
                records.push(r);
                true
            }
            None => false, // handed over / deregistered meanwhile
        });
        if records.is_empty() {
            return;
        }
        let epoch = self.stamp(now);
        t.epoch = epoch;
        t.attempts += 1;
        t.deadline_us = now + self.opts.retry_backoff_us(t.attempts);
        self.stats.transfer_retries += 1;
        let target = t.target;
        self.pending.transfer_out.insert(corr, t);
        self.emit(target, Message::StateTransfer { records, epoch, corr });
    }

    /// Target side: durably apply the whole batch as **one atomic WAL
    /// record**, re-assert every accepted forwarding path, tell each
    /// registrant its new agent, and ack. Idempotent: a duplicate or
    /// stale transfer loses per object against the epoch guard and is
    /// still acknowledged (the source's removal guard skips newer
    /// records symmetrically).
    pub(crate) fn on_state_transfer(
        &mut self,
        now: Micros,
        from: Endpoint,
        records: Vec<TransferRecord>,
        epoch: Hlc,
        corr: CorrId,
    ) {
        if !self.config.is_leaf() {
            // Misrouted (transfers run between sibling leaves): ack
            // nothing so the source keeps the records and retries.
            return;
        }
        let mut accepted: Vec<(ObjectId, VisitorRecord)> = Vec::new();
        for r in &records {
            let fresh = self
                .visitors
                .get(r.oid)
                .map(|existing| existing.epoch() <= epoch)
                .unwrap_or(true);
            if !fresh {
                continue; // a newer path change won; skip silently
            }
            // Renegotiate against this leaf's own sensor floor (the
            // same rule the per-object handover applies).
            let offered = self.offered_for(&r.reg);
            accepted.push((
                r.oid,
                VisitorRecord::Leaf { offered_acc_m: offered, reg: r.reg, epoch },
            ));
            if let Some(s) = r.sighting {
                let stored = self.stored(&s, now);
                self.sightings.upsert(stored);
            }
        }
        let n = accepted.len() as u32;
        let oids: Vec<ObjectId> = accepted.iter().map(|(oid, _)| *oid).collect();
        let regs: Vec<(Endpoint, ObjectId, f64)> = accepted
            .iter()
            .map(|(oid, rec)| match rec {
                VisitorRecord::Leaf { reg, offered_acc_m, .. } => {
                    (reg.registrant, *oid, *offered_acc_m)
                }
                VisitorRecord::Forward { .. } => unreachable!("transfers carry leaf records"),
            })
            .collect();
        // One atomic WAL batch + one durability round for the whole
        // transfer: a torn tail recovers all of it or none of it.
        self.visitors.apply_all(accepted);
        self.stats.transfer_records_in += u64::from(n);
        let me = self.id();
        for &oid in &oids {
            // §6.5 re-assertion: this server is the agent now — any
            // agent-cache entry it holds for the object (from its own
            // entry-server role) must not keep pointing elsewhere.
            self.caches.patch_agent(oid, me);
        }
        for (registrant, oid, offered) in regs {
            // Proactively fix the object's agent pointer; a lost notice
            // heals later through the agent-lookup path.
            self.emit(registrant, Message::AgentChanged { oid, new_agent: me, offered_acc_m: offered });
        }
        if let Some(p) = self.parent() {
            for oid in &oids {
                self.emit(p, Message::CreatePath { oid: *oid, epoch });
            }
        }
        // k=2: the adopted records join this leaf's replica stream.
        for oid in oids {
            self.repl_note_leaf(now, oid);
        }
        self.emit(from, Message::StateTransferAck { accepted: n, epoch, corr });
    }

    /// Source side: the target durably holds the state of the send
    /// this ack echoes — drop our copies of exactly that state (one
    /// atomic WAL batch, guarded by the **acked** epoch, never the
    /// latest). A delayed ack for an earlier send therefore cannot
    /// delete a record that changed afterwards: such records stay and
    /// the transfer keeps retrying them until a current ack lands.
    pub(crate) fn on_state_transfer_ack(&mut self, now: Micros, epoch: Hlc, corr: CorrId) {
        let Some(t) = self.pending.transfer_out.get(&corr) else {
            return; // duplicate or late ack for a finished transfer
        };
        let guard = epoch.min(t.epoch);
        let oids = t.oids.clone();
        let target = t.target;
        let removed = self.visitors.remove_all_if_older(&oids, guard);
        for oid in &removed {
            self.sightings.remove(oid.0);
            // §6.5: the record left — repoint any agent-cache entry at
            // the transfer target so this server's own entry role does
            // not keep answering direct queries into its stale self.
            self.caches.patch_agent(*oid, target);
            // k=2: the record moved away — retire its replica copy.
            self.repl_note_remove(now, *oid, guard);
        }
        let t = self.pending.transfer_out.get_mut(&corr).expect("present above");
        t.oids.retain(|oid| !removed.contains(oid));
        if t.oids.is_empty() || epoch >= t.epoch {
            // Current ack (or nothing left to move): the transfer is
            // done — any survivors had newer epochs and stay here
            // legitimately (they re-registered or handed over since).
            self.pending.transfer_out.remove(&corr);
            self.stats.transfers_completed += 1;
        }
    }

    /// Starts a forwarding-table rebuild after this server took over
    /// the root role: pull from every child, in chunks, the set of
    /// objects reachable through it. Returns the envelopes to send.
    ///
    /// Unlike the original fire-and-forget sync, each per-child pull is
    /// a parked operation (`Pending::path_sync`) re-requested from its
    /// cursor with capped exponential backoff until the child reports
    /// `done` — and **while any pull is open, record-less agent lookups
    /// stay silent** (see `route_agent_lookup`): the table is provably
    /// still warming, so an `OutOfServiceArea` verdict would be
    /// premature. That pending-set barrier replaces the old wall-clock
    /// grace window: it ends exactly when the rebuild ends instead of
    /// one path TTL later, and it cannot end early.
    pub fn begin_path_sync(&mut self, now: Micros) -> Vec<Envelope<Message>> {
        let children: Vec<ServerId> = self.config.children.iter().map(|c| c.id).collect();
        for child in children {
            let corr = self.corr.next_id();
            self.pending.path_sync.insert(
                corr,
                PathSyncOut {
                    child,
                    after: None,
                    deadline_us: now + self.opts.query_timeout_us,
                    attempts: 0,
                },
            );
            self.emit(child, Message::PathSyncReq { after: None, corr });
        }
        self.drain()
    }

    /// True while a `pathSync` rebuild is still pulling chunks — the
    /// warming barrier for agent-lookup verdicts.
    pub fn path_sync_in_progress(&self) -> bool {
        !self.pending.path_sync.is_empty()
    }

    /// Child side of the rebuild: report the next chunk of visitor
    /// records after the cursor (each one means "the path to this
    /// object runs through me").
    pub(crate) fn on_path_sync_req(
        &mut self,
        from: Endpoint,
        after: Option<ObjectId>,
        corr: CorrId,
    ) {
        let mut entries: Vec<(ObjectId, Hlc)> = Vec::new();
        let mut done = true;
        for (oid, rec) in self.visitors.iter_after(after) {
            if entries.len() == PATH_SYNC_CHUNK {
                done = false;
                break;
            }
            entries.push((oid, rec.epoch()));
        }
        self.emit(from, Message::PathSyncRes { entries, done, corr });
    }

    /// Root side of the rebuild: install a forwarding reference per
    /// reported object (epoch-guarded, so a racing `createPath` or
    /// `removePath` with a newer stamp wins), then pull the next chunk
    /// from the cursor, or close this child's pull on `done`.
    pub(crate) fn on_path_sync_res(
        &mut self,
        now: Micros,
        from: Endpoint,
        entries: Vec<(ObjectId, Hlc)>,
        done: bool,
        corr: CorrId,
    ) {
        let Some(child) = from.as_server() else { return };
        let Some(sync) = self.pending.path_sync.get(&corr) else {
            return; // late or duplicated chunk for a finished pull
        };
        if sync.child != child {
            return; // a stray answer from a server we did not ask
        }
        let cursor = entries.last().map(|(oid, _)| *oid);
        for (oid, epoch) in entries {
            if self.visitors.apply(oid, VisitorRecord::Forward { child, epoch }) {
                // The promoted root may itself feed a fresh standby.
                self.repl_note_forward(now, oid, child, epoch);
            }
        }
        if done || cursor.is_none() {
            self.pending.path_sync.remove(&corr);
            self.stats.path_syncs += 1;
            return;
        }
        let sync = self.pending.path_sync.get_mut(&corr).expect("present above");
        sync.after = cursor;
        sync.attempts = 0;
        sync.deadline_us = now + self.opts.query_timeout_us;
        self.emit(child, Message::PathSyncReq { after: cursor, corr });
    }

    /// Re-requests a timed-out `pathSync` chunk from its cursor with
    /// capped exponential backoff. A cold rebuild must not give up: the
    /// barrier it implements (see [`LocationServer::begin_path_sync`])
    /// only lifts when every child has answered `done`.
    pub(crate) fn resend_path_sync(&mut self, now: Micros, corr: CorrId) {
        let Some(sync) = self.pending.path_sync.get_mut(&corr) else { return };
        sync.attempts += 1;
        sync.deadline_us = now + self.opts.retry_backoff_us(sync.attempts);
        let (child, after) = (sync.child, sync.after);
        self.emit(child, Message::PathSyncReq { after, corr });
    }

    /// The power-loss recovery points of the durable visitor store:
    /// for each engine file (WAL, checkpoint snapshot), the
    /// byte count guaranteed on stable storage (empty when volatile).
    /// The simulator truncates each file to its offset after dropping
    /// this server to model a power loss instead of a process crash.
    pub fn wal_power_loss_points(&self) -> Vec<(std::path::PathBuf, u64)> {
        self.visitors.power_loss_points()
    }
}
