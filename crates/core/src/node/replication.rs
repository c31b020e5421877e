//! Replication streams: warm standbys and k=2 leaf replicas.
//!
//! A server designated as a replication *source* keeps one sink: the
//! standby (non-leaf sources stream their forwarding table so root
//! failover becomes O(1) table adoption) or the sibling replica leaf
//! (leaf sources stream visitor records + sightings so reads survive
//! the agent's crash). Changes are coalesced per object into a send
//! buffer; exactly **one batch per stream is in flight**, retried with
//! the same capped exponential backoff as `stateTransfer`, and every
//! record is HLC-guarded at the receiver — replays are idempotent and
//! conflicting copies resolve identically everywhere.
//!
//! The receiver tracks the highest stream id it attached to. Stream
//! ids are the source's *designation stamp* (an [`Hlc`], strictly
//! increasing across designations), so after a failover a deposed
//! source's leftover batches compare below the live stream and are
//! acknowledged without effect — at-most-once adoption per stream,
//! at-least-once delivery within it.

use super::{LocationServer, VisitorRecord};
use crate::model::{Hlc, Micros, ObjectId, Sighting};
use crate::proto::{DeltaBody, DeltaRecord, Message};
use hiloc_net::{CorrId, Endpoint, Envelope, ServerId};
use std::collections::{BTreeMap, BTreeSet};

/// Upper bound on records per `FwdDelta` batch (keeps datagrams within
/// the same order of magnitude as a `stateTransfer` send).
pub(crate) const REPL_BATCH_MAX: usize = 256;

/// One in-flight delta batch awaiting its ack.
#[derive(Debug, Clone)]
pub(crate) struct Inflight {
    /// Correlation id identifying the batch across retries.
    pub corr: CorrId,
    /// Sequence number within the stream.
    pub seq: u64,
    /// The batched records (re-sent verbatim on timeout).
    pub records: Vec<DeltaRecord>,
    /// Re-send deadline.
    pub deadline_us: Micros,
    /// Re-sends so far (drives the backoff cap).
    pub attempts: u32,
}

/// The source-side state of one replication stream.
#[derive(Debug, Clone)]
pub(crate) struct Sink {
    /// The receiving server.
    pub target: ServerId,
    /// True for a leaf replica stream, false for a standby stream.
    pub replica: bool,
    /// Stream id: the designation stamp's raw bits.
    pub stream: u64,
    /// Next batch sequence number.
    pub next_seq: u64,
    /// Coalescing send buffer: the newest pending change per object.
    pub buffer: BTreeMap<ObjectId, DeltaBody>,
    /// The single outstanding batch, if any.
    pub inflight: Option<Inflight>,
    /// Durably-acked watermark: per object, the highest stamp the
    /// receiver has acknowledged holding. The failover oracle checks
    /// promotion against exactly this map.
    pub acked: BTreeMap<ObjectId, Hlc>,
}

/// Per-server replication state (source sink + receiver attachment).
#[derive(Debug, Default)]
pub(crate) struct Replication {
    /// The stream this server feeds, when designated as a source.
    pub sink: Option<Sink>,
    /// Highest stream id this server accepted a batch from (receiver
    /// side). Survives nothing — a restarted receiver re-attaches to
    /// whatever live stream reaches it first, which is exactly the
    /// self-healing we want — but while alive it blocks any deposed
    /// source whose designation stamp is older.
    pub attached_stream: u64,
    /// True while this server is a passive warm standby. A standby is
    /// a mirror, not an authority: only streamed removals may delete
    /// its records, never its own soft-state sweep — the stamps it
    /// holds are refreshed by keep-alives at the *source*, and records
    /// a crashed leaf re-asserts at their old epoch would otherwise be
    /// expired here while the source still durably streams them,
    /// breaking the promotion contract.
    pub standby_mode: bool,
}

impl LocationServer {
    /// Designates `target` as this server's replication sink and seeds
    /// the stream with a full snapshot of the current table (standby
    /// streams ship forwarding references; `replica = true` streams
    /// ship leaf records + sightings). Returns the envelopes to send.
    pub fn set_replication_sink(
        &mut self,
        now: Micros,
        target: ServerId,
        replica: bool,
    ) -> Vec<Envelope<Message>> {
        let stream = self.clock.now(now).0;
        let mut buffer = BTreeMap::new();
        for (oid, rec) in self.visitors.iter() {
            let body = match rec {
                VisitorRecord::Forward { child, epoch } => DeltaBody::Forward { child, epoch },
                VisitorRecord::Leaf { offered_acc_m, reg, epoch } => DeltaBody::Leaf {
                    reg,
                    offered_acc_m,
                    epoch,
                    sighting: self
                        .sightings
                        .get(oid.0)
                        .map(|s| Sighting::new(oid, s.time_us, s.pos, s.acc_sens_m)),
                },
            };
            buffer.insert(oid, body);
        }
        self.repl.sink = Some(Sink {
            target,
            replica,
            stream,
            next_seq: 0,
            buffer,
            inflight: None,
            acked: BTreeMap::new(),
        });
        self.repl_flush(now);
        self.drain()
    }

    /// Marks this server as a passive warm standby: local soft-state
    /// expiry of the mirrored table is suspended until promotion.
    /// While the source lives, it alone decides what expires (and
    /// streams the removals); once it crashes, the standby must hold
    /// every durably-acked record for adoption — that is the whole
    /// point of a warm standby, and exactly what the failover oracle
    /// checks.
    pub fn enter_standby_mode(&mut self) {
        self.repl.standby_mode = true;
    }

    /// Promotion: this server becomes the authority and soft-state
    /// expiry resumes — deferred by one refresh period, because the
    /// adopted stamps are as old as the last acked delta and the
    /// keep-alive chain needs one cycle to re-assert live paths
    /// before zombie expiry may restart (an immediate sweep after a
    /// long source outage would dump the freshly adopted table).
    pub fn leave_standby_mode(&mut self, now: Micros) {
        self.repl.standby_mode = false;
        self.next_path_maintenance_us = Some(now + self.opts.path_refresh_us.max(1));
    }

    /// The current sink, as `(target, is_replica_stream)`.
    pub fn replication_sink(&self) -> Option<(ServerId, bool)> {
        self.repl.sink.as_ref().map(|s| (s.target, s.replica))
    }

    /// The durably-acked watermark of the current stream: per object,
    /// the highest stamp the sink acknowledged. This is the promotion
    /// contract the failover oracle checks — every entry must survive
    /// adoption at the promoted server.
    pub fn replication_acked(&self) -> Option<(ServerId, &BTreeMap<ObjectId, Hlc>)> {
        self.repl.sink.as_ref().map(|s| (s.target, &s.acked))
    }

    /// Objects with a buffered or in-flight replica delta. The
    /// keep-alive epoch refresh excludes these: bumping their stamp
    /// while a batch carrying the old stamp is still in flight would
    /// make the acked watermark claim a newer state than the sink
    /// durably holds (the same hazard the `stateTransfer` exclusion
    /// fixed).
    pub(crate) fn repl_inflight_oids(&self) -> BTreeSet<ObjectId> {
        let mut out = BTreeSet::new();
        if let Some(sink) = &self.repl.sink {
            out.extend(sink.buffer.keys().copied());
            if let Some(inf) = &sink.inflight {
                out.extend(inf.records.iter().map(|r| r.oid));
            }
        }
        out
    }

    /// Queues one change on the stream (coalescing per object) and
    /// flushes if no batch is in flight.
    pub(crate) fn repl_enqueue(&mut self, now: Micros, oid: ObjectId, body: DeltaBody) {
        let Some(sink) = self.repl.sink.as_mut() else { return };
        sink.buffer.insert(oid, body);
        self.repl_flush(now);
    }

    /// Queues the current state of a leaf record (replica streams);
    /// no-op without a sink or when the record is gone already.
    pub(crate) fn repl_note_leaf(&mut self, now: Micros, oid: ObjectId) {
        if self.repl.sink.is_none() {
            return;
        }
        let Some(VisitorRecord::Leaf { offered_acc_m, reg, epoch }) = self.visitors.get(oid) else {
            return;
        };
        let sighting = self
            .sightings
            .get(oid.0)
            .map(|s| Sighting::new(oid, s.time_us, s.pos, s.acc_sens_m));
        self.repl_enqueue(now, oid, DeltaBody::Leaf { reg, offered_acc_m, epoch, sighting });
    }

    /// Queues a forwarding-reference change (standby streams).
    pub(crate) fn repl_note_forward(
        &mut self,
        now: Micros,
        oid: ObjectId,
        child: ServerId,
        epoch: Hlc,
    ) {
        if self.repl.sink.is_some() {
            self.repl_enqueue(now, oid, DeltaBody::Forward { child, epoch });
        }
    }

    /// Queues a removal at the given stamp (both stream kinds).
    pub(crate) fn repl_note_remove(&mut self, now: Micros, oid: ObjectId, epoch: Hlc) {
        if self.repl.sink.is_some() {
            self.repl_enqueue(now, oid, DeltaBody::Remove { epoch });
        }
    }

    /// Sends the next batch when the stream is idle and has work.
    pub(crate) fn repl_flush(&mut self, now: Micros) {
        let deadline_us = now + self.opts.query_timeout_us;
        let (target, msg) = {
            let Some(sink) = self.repl.sink.as_mut() else { return };
            if sink.inflight.is_some() || sink.buffer.is_empty() {
                return;
            }
            let mut records = Vec::new();
            while records.len() < REPL_BATCH_MAX {
                match sink.buffer.pop_first() {
                    Some((oid, body)) => records.push(DeltaRecord { oid, body }),
                    None => break,
                }
            }
            let corr = self.corr.next_id();
            let seq = sink.next_seq;
            sink.next_seq += 1;
            sink.inflight = Some(Inflight {
                corr,
                seq,
                records: records.clone(),
                deadline_us,
                attempts: 0,
            });
            (
                sink.target,
                Message::FwdDelta { stream: sink.stream, seq, replica: sink.replica, records, corr },
            )
        };
        self.stats.deltas_sent += 1;
        self.emit(target, msg);
    }

    /// Re-sends a timed-out batch with capped exponential backoff
    /// (`ServerOptions::retry_backoff_us`, like `stateTransfer`).
    pub(crate) fn repl_tick(&mut self, now: Micros) {
        let resend = {
            let Some(sink) = self.repl.sink.as_mut() else { return };
            let Some(inf) = sink.inflight.as_mut() else { return };
            if inf.deadline_us > now {
                return;
            }
            inf.attempts += 1;
            inf.deadline_us = now + self.opts.retry_backoff_us(inf.attempts);
            (
                sink.target,
                Message::FwdDelta {
                    stream: sink.stream,
                    seq: inf.seq,
                    replica: sink.replica,
                    records: inf.records.clone(),
                    corr: inf.corr,
                },
            )
        };
        self.stats.delta_retries += 1;
        self.emit(resend.0, resend.1);
    }

    /// The stream's next re-send deadline, if a batch is in flight.
    pub(crate) fn repl_next_deadline(&self) -> Option<Micros> {
        self.repl.sink.as_ref()?.inflight.as_ref().map(|i| i.deadline_us)
    }

    /// Receiver side: durably apply a delta batch and acknowledge.
    ///
    /// Standby streams (`replica = false`) adopt the records straight
    /// into the visitor table (HLC-guarded, one WAL group commit);
    /// replica streams land in the side [`super::ReplicaDb`] as one
    /// atomic WAL batch. A batch from a stream older than the one this
    /// server attached to is acknowledged *without applying* — the
    /// deposed source's retry loop terminates but cannot corrupt the
    /// live stream's state.
    pub(crate) fn on_fwd_delta(
        &mut self,
        from: Endpoint,
        stream: u64,
        seq: u64,
        replica: bool,
        records: Vec<DeltaRecord>,
        corr: CorrId,
    ) {
        let applied = if stream < self.repl.attached_stream {
            0
        } else {
            self.repl.attached_stream = stream;
            if replica {
                let mut puts: Vec<(ObjectId, super::ReplicaValue)> = Vec::new();
                let mut removes: Vec<(ObjectId, Hlc)> = Vec::new();
                for r in &records {
                    match r.body {
                        DeltaBody::Leaf { reg, offered_acc_m, epoch, sighting } => puts.push((
                            r.oid,
                            super::ReplicaValue { reg, offered_acc_m, epoch, sighting },
                        )),
                        DeltaBody::Remove { epoch } => removes.push((r.oid, epoch)),
                        // A forwarding reference has no replica shape.
                        DeltaBody::Forward { .. } => {}
                    }
                }
                self.replicas.apply_batch(puts, &removes) as u32
            } else {
                let mut applied = 0u32;
                self.visitors.begin_group_commit();
                for r in &records {
                    let ok = match r.body {
                        DeltaBody::Forward { child, epoch } => {
                            self.visitors.apply(r.oid, VisitorRecord::Forward { child, epoch })
                        }
                        DeltaBody::Leaf { reg, offered_acc_m, epoch, .. } => self
                            .visitors
                            .apply(r.oid, VisitorRecord::Leaf { offered_acc_m, reg, epoch }),
                        DeltaBody::Remove { epoch } => {
                            self.visitors.remove_if_older(r.oid, epoch).is_some()
                        }
                    };
                    if ok {
                        applied += 1;
                    }
                }
                // One deferred fsync for the whole batch, before the
                // ack can leave (the outbox drains after `handle`).
                self.visitors.end_group_commit();
                applied
            }
        };
        self.stats.delta_records_in += u64::from(applied);
        self.emit(from, Message::FwdDeltaAck { stream, seq, applied, corr });
    }

    /// Source side: the sink durably holds the acked batch — fold its
    /// stamps into the watermark (removals clear their entry) and send
    /// the next batch.
    pub(crate) fn on_fwd_delta_ack(
        &mut self,
        now: Micros,
        stream: u64,
        seq: u64,
        _applied: u32,
        corr: CorrId,
    ) {
        {
            let Some(sink) = self.repl.sink.as_mut() else { return };
            if sink.stream != stream {
                return; // ack for a previous designation's stream
            }
            let matches = sink
                .inflight
                .as_ref()
                .is_some_and(|inf| inf.corr == corr && inf.seq == seq);
            if !matches {
                return; // late or duplicated ack
            }
            let inf = sink.inflight.take().expect("matched above");
            for r in inf.records {
                match r.body {
                    DeltaBody::Remove { .. } => {
                        sink.acked.remove(&r.oid);
                    }
                    DeltaBody::Forward { epoch, .. } | DeltaBody::Leaf { epoch, .. } => {
                        let e = sink.acked.entry(r.oid).or_insert(epoch);
                        if *e < epoch {
                            *e = epoch;
                        }
                    }
                }
            }
        }
        self.repl_flush(now);
    }
}
