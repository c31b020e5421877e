//! Registration, path maintenance, deregistration and accuracy
//! management (paper §6.1 / Alg. 6-1).

use super::{LocationServer, VisitorRecord};
use crate::model::{Hlc, Micros, ObjectId, RegInfo, Sighting};
use crate::proto::Message;
use hiloc_net::{CorrId, Endpoint};

impl LocationServer {
    /// Algorithm 6-1: route the registration to the responsible leaf,
    /// negotiate accuracy, create records and the forwarding path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_register_req(
        &mut self,
        now: Micros,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
        registrant: Endpoint,
        corr: CorrId,
    ) {
        // A non-finite position fails every `contains` and would climb
        // to the root for an `achievable_m: inf` refusal: drop it, as
        // UDP drops its datagram at `Point::decode`.
        if !sighting.pos.is_finite() {
            return;
        }
        let fwd = |corr| Message::RegisterReq {
            sighting,
            des_acc_m,
            min_acc_m,
            max_speed_mps,
            registrant,
            corr,
        };
        if !self.config.contains(sighting.pos) {
            // Forward upwards (Alg. 6-1 lines 20–22); at the root the
            // position is outside the service area entirely.
            match self.parent() {
                Some(p) => self.emit(p, fwd(corr)),
                None => self.emit(
                    registrant,
                    Message::RegisterFailed {
                        server: self.id(),
                        achievable_m: f64::INFINITY,
                        corr,
                    },
                ),
            }
            return;
        }
        if !self.config.is_leaf() {
            // Forward downwards (lines 16–19).
            let child = self
                .config
                .child_for(sighting.pos)
                .expect("children partition a non-leaf service area");
            self.emit(child, fwd(corr));
            return;
        }
        // Leaf: negotiate accuracy (lines 2–15). A range no decoder
        // would take back (`desAcc > minAcc`, a non-finite speed, …)
        // fails like an unachievable one: once stored it would ride in
        // every handover and replication batch for this object, and the
        // receiver would drop them.
        let reg = RegInfo::try_new(registrant, des_acc_m, min_acc_m, max_speed_mps)
            .filter(|reg| reg.acceptable(self.opts.acc_floor_m));
        let Some(reg) = reg else {
            self.emit(
                registrant,
                Message::RegisterFailed { server: self.id(), achievable_m: self.opts.acc_floor_m, corr },
            );
            return;
        };
        let offered = self.offered_for(&reg);
        let oid = sighting.oid;
        let epoch = self.stamp(now);
        self.visitors.apply(oid, VisitorRecord::Leaf { offered_acc_m: offered, reg, epoch });
        let stored = self.stored(&sighting, now);
        self.sightings.upsert(stored);
        if let Some(p) = self.parent() {
            self.emit(p, Message::CreatePath { oid, epoch });
        }
        // k=2: the fresh registration streams to the replica sibling.
        self.repl_note_leaf(now, oid);
        self.stats.registrations += 1;
        self.emit(registrant, Message::RegisterRes { agent: self.id(), offered_acc_m: offered, corr });
    }

    /// `createPath` (Alg. 6-1, second block): record a forwarding
    /// reference to the sending child and continue towards the root.
    pub(crate) fn on_create_path(&mut self, now: Micros, from: Endpoint, oid: ObjectId, epoch: Hlc) {
        let Some(child) = from.as_server() else { return };
        if self.visitors.apply(oid, VisitorRecord::Forward { child, epoch }) {
            if let Some(p) = self.parent() {
                self.emit(p, Message::CreatePath { oid, epoch });
            }
            self.repl_note_forward(now, oid, child, epoch);
        }
    }

    /// Explicit deregistration at (or routed to) the object's agent.
    pub(crate) fn on_deregister(&mut self, now: Micros, oid: ObjectId) {
        match self.visitors.get(oid) {
            Some(VisitorRecord::Leaf { .. }) => {
                let epoch = self.stamp(now);
                self.remove_locally(now, oid);
                if let Some(p) = self.parent() {
                    self.emit(p, Message::RemovePath { oid, epoch });
                }
            }
            Some(VisitorRecord::Forward { child, .. }) => {
                self.emit(child, Message::DeregisterReq { oid });
            }
            None => {
                if let Some(p) = self.parent() {
                    self.emit(p, Message::DeregisterReq { oid });
                }
                // At the root with no record: the object is unknown;
                // nothing to do.
            }
        }
    }

    /// `removePath`: tear down the forwarding path bottom-up, guarded
    /// by the path-change epoch against racing re-registrations.
    pub(crate) fn on_remove_path(&mut self, now: Micros, oid: ObjectId, epoch: Hlc) {
        if self.visitors.remove_if_older(oid, epoch).is_some() {
            if let Some(p) = self.parent() {
                self.emit(p, Message::RemovePath { oid, epoch });
            }
            self.repl_note_remove(now, oid, epoch);
        }
    }

    /// `changeAcc` (paper §3.1): renegotiate the accuracy range at the
    /// agent; the response goes to the registering instance.
    pub(crate) fn on_change_acc(
        &mut self,
        now: Micros,
        _from: Endpoint,
        oid: ObjectId,
        des_acc_m: f64,
        min_acc_m: f64,
        corr: CorrId,
    ) {
        match self.visitors.get(oid) {
            Some(VisitorRecord::Leaf { offered_acc_m: old_offered, reg, epoch }) => {
                let candidate =
                    RegInfo::try_new(reg.registrant, des_acc_m, min_acc_m, reg.max_speed_mps)
                        .filter(|c| c.acceptable(self.opts.acc_floor_m));
                let Some(candidate) = candidate else {
                    self.emit(
                        reg.registrant,
                        Message::ChangeAccRes { oid, ok: false, offered_acc_m: old_offered, corr },
                    );
                    return;
                };
                let offered = candidate.offered_accuracy(self.opts.acc_floor_m);
                self.visitors.apply(
                    oid,
                    VisitorRecord::Leaf { offered_acc_m: offered, reg: candidate, epoch },
                );
                // k=2: the renegotiated accuracy streams to the replica.
                self.repl_note_leaf(now, oid);
                self.emit(
                    candidate.registrant,
                    Message::ChangeAccRes { oid, ok: true, offered_acc_m: offered, corr },
                );
                if (offered - old_offered).abs() > f64::EPSILON {
                    self.emit(
                        candidate.registrant,
                        Message::NotifyAvailAcc { oid, offered_acc_m: offered },
                    );
                }
            }
            Some(VisitorRecord::Forward { child, .. }) => {
                self.emit(child, Message::ChangeAccReq { oid, des_acc_m, min_acc_m, corr });
            }
            None => {
                if let Some(p) = self.parent() {
                    self.emit(p, Message::ChangeAccReq { oid, des_acc_m, min_acc_m, corr });
                }
            }
        }
    }

    /// Removes an object's local state at a leaf: visitor record,
    /// sighting, cache entries and the replica sibling's copy.
    pub(crate) fn remove_locally(&mut self, now: Micros, oid: ObjectId) {
        if let Some(rec) = self.visitors.remove(oid) {
            // The removal ships at the removed record's own stamp: the
            // replica's guard (`copy.epoch <= stamp` deletes) drops
            // exactly the state this removal saw, while any newer
            // re-registration racing through the stream survives.
            self.repl_note_remove(now, oid, rec.epoch());
        }
        self.sightings.remove(oid.0);
        // A deregistered object must not be resurrected by a cached
        // agent pointer or position answer (§6.5 invalidation).
        self.caches.forget_object(oid);
    }
}
