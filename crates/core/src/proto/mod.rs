//! The hiloc wire protocol: every message exchanged between clients,
//! tracked objects and location servers.
//!
//! Message names follow the paper's pseudocode (§6): `registerReq`,
//! `createPath`, `update`, `handoverReq/Res`, `posQueryReq/Fwd/Res`,
//! `rangeQueryReq/Fwd/SubRes/Res`. Additions beyond the paper are
//! documented on each variant: nearest-neighbor scatter/gather (the
//! paper defines the query semantics but no distributed algorithm)
//! and cache-support messages (§6.5).
//!
//! The protocol is **one table**: the [`wire_enum!`] invocation below
//! states each variant's name, wire tag, trace label and typed fields
//! once, and generates the [`Message`] enum, [`Message::label`],
//! [`Message::tag`] / [`Message::TAGS`] and the whole [`WireCodec`]
//! (exact `encoded_len`, `encode`, `decode`) from it. A field's bytes
//! are defined by its type's `WireCodec` impl (`hiloc_net::wire` for
//! primitives, geometry, `Option`, `Vec` and pairs; `crate::model` and
//! this module for the rest), its decode-time checks by the `valid if`
//! clause of the type that owns it. Adding a message is one table
//! entry plus one `sample_messages()` entry in the tests. Tags are
//! wire-frozen and not in declaration order (`UpdateBatch` is 38).
//! Tags 29–35 carried the removed in-server event protocol: they are
//! refused on decode and must not be reused, so a peer still sending
//! them is never misread.

use crate::model::{
    valid_acc, Hlc, LocationDescriptor, Micros, ObjectId, RangeQuery, RegInfo, Sighting,
};
use hiloc_geo::{Point, Rect};
use hiloc_net::wire::WireCodec;
use hiloc_net::{wire_enum, wire_struct, CorrId, Endpoint, ServerId};

/// One `(object, location descriptor)` result pair.
pub type ObjectLocation = (ObjectId, LocationDescriptor);

wire_struct! {
    /// One visitor's complete agent-side state, moved by a bulk
    /// [`Message::StateTransfer`] during hierarchy reconfiguration (a
    /// server joining or leaving the tree): the registration info the
    /// paper keeps persistent plus the volatile sighting, when the source
    /// still holds one (a freshly restarted source may not — the target
    /// then restores it on demand, §5).
    #[derive(Debug, Clone, PartialEq)]
    pub struct TransferRecord {
        /// The transferred object.
        pub oid: ObjectId,
        /// Registration info (`v.regInfo`), moved verbatim.
        pub reg: RegInfo,
        /// Accuracy the source offered (the target renegotiates against
        /// its own sensor floor and notifies the registrant on change).
        pub offered_acc_m: f64,
        /// The source's current sighting, when one exists.
        pub sighting: Option<Sighting>,
    }
    valid if valid_acc(offered_acc_m)
}

wire_enum! {
    /// A protocol message.
    ///
    /// All positions are in the deployment's local planar frame; the
    /// geographic WGS84 boundary lives in the client API.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        // ------------------------------------------------------ registration
        /// `registerReq(s, desAcc, minAcc, regInst)` — routed through the
        /// hierarchy to the leaf responsible for `sighting.pos`.
        RegisterReq = 1, "registerReq" {
            /// Initial sighting of the object to register.
            sighting: Sighting,
            /// Desired accuracy in meters.
            des_acc_m: f64,
            /// Minimal acceptable accuracy in meters.
            min_acc_m: f64,
            /// Declared maximum speed (m/s), used for accuracy ageing.
            max_speed_mps: f64,
            /// The registering instance, to receive the response.
            registrant: Endpoint,
            /// Correlation id.
            corr: CorrId,
        },
        /// `registerRes(self, offeredAcc)` — sent by the new agent leaf.
        RegisterRes = 2, "registerRes" {
            /// The agent (leaf) server now tracking the object.
            agent: ServerId,
            /// Accuracy the service offers.
            offered_acc_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// `registerFailed(self, acc)` — the accuracy range is unachievable.
        RegisterFailed = 3, "registerFailed" {
            /// The rejecting server.
            server: ServerId,
            /// Best accuracy the server could achieve.
            achievable_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// `createPath(oId)` — builds the forwarding path leaf→root;
        /// receivers set the forwarding reference to the envelope sender.
        CreatePath = 4, "createPath" {
            /// The newly registered object.
            oid: ObjectId,
            /// Path-change stamp (hybrid logical clock) guarding against
            /// stale create/remove races.
            epoch: Hlc,
        },

        // ------------------------------------------------ update & handover
        /// `update(s)` — a position update from a tracked object (or
        /// stationary tracking system) to its agent.
        UpdateReq = 5, "update" {
            /// The new sighting.
            sighting: Sighting,
        },
        /// Acknowledgement of an update (the paper measures updates "with
        /// ACK" in Table 2).
        UpdateAck = 6, "updateAck" {
            /// The updated object.
            oid: ObjectId,
            /// Currently offered accuracy.
            offered_acc_m: f64,
            /// Server time of the acknowledgement.
            time_us: Micros,
        },
        /// A registrant's position updates coalesced into one datagram —
        /// the batched update protocol of §7's discussion (a stationary
        /// tracking system or gateway reports many tracked objects at
        /// once). The leaf applies every sighting, amortizing WAL syncs
        /// across the batch (group commit), and coalesces the plain acks
        /// into a single [`Message::UpdateBatchAck`]; handovers and
        /// deregistrations still produce their individual messages.
        UpdateBatch = 38, "updateBatch" {
            /// The batched sightings, applied in order.
            sightings: Vec<Sighting>,
            /// Correlation id, echoed by the batch ack.
            corr: CorrId,
        },
        /// The coalesced acknowledgement for a [`Message::UpdateBatch`]:
        /// one `(object, offered accuracy)` pair per sighting that was
        /// applied in place by this agent.
        UpdateBatchAck = 39, "updateBatchAck" {
            /// Acknowledged objects with their currently offered accuracy.
            acks: Vec<(ObjectId, f64)>,
            /// Server time of the acknowledgement.
            time_us: Micros,
            /// Correlation id of the batch.
            corr: CorrId,
        },
        /// `handoverReq(s, regInfo)` — tracking responsibility transfer,
        /// routed to the leaf containing the new position.
        HandoverReq = 7, "handoverReq" {
            /// The sighting that left the old agent's area.
            sighting: Sighting,
            /// Registration info, moved to the new agent.
            reg: RegInfo,
            /// Path-change stamp.
            epoch: Hlc,
            /// Correlation id (allocated by the old agent).
            corr: CorrId,
        },
        /// `handoverRes(lsnew, acc)` — travels back along the request path,
        /// splicing the forwarding pointers.
        HandoverRes = 8, "handoverRes" {
            /// The object being handed over.
            oid: ObjectId,
            /// The new agent leaf.
            new_agent: ServerId,
            /// Accuracy offered by the new agent.
            offered_acc_m: f64,
            /// Path-change stamp.
            epoch: Hlc,
            /// Correlation id.
            corr: CorrId,
        },
        /// The old agent rejects/aborts a handover: the object moved outside
        /// the root service area and is deregistered (paper §4: "tracked
        /// objects that move out of the service area are automatically
        /// deregistered").
        HandoverFailed = 9, "handoverFailed" {
            /// The object.
            oid: ObjectId,
            /// Path-change stamp.
            epoch: Hlc,
            /// Correlation id.
            corr: CorrId,
        },
        /// The old agent informs the tracked object of its new agent.
        AgentChanged = 10, "agentChanged" {
            /// The object.
            oid: ObjectId,
            /// Its new agent leaf.
            new_agent: ServerId,
            /// Accuracy offered by the new agent.
            offered_acc_m: f64,
        },
        /// The object left the service area entirely and was deregistered.
        OutOfServiceArea = 11, "outOfServiceArea" {
            /// The object.
            oid: ObjectId,
        },

        // --------------------------------------- deregistration & soft state
        /// `deregister(o)` — explicit deregistration at the agent.
        DeregisterReq = 12, "deregister" {
            /// The object to forget.
            oid: ObjectId,
        },
        /// Removes the forwarding path leaf→root (deregistration or
        /// soft-state expiry). Guarded by `epoch` against racing re-paths.
        RemovePath = 13, "removePath" {
            /// The object.
            oid: ObjectId,
            /// Path-change stamp of the removal.
            epoch: Hlc,
        },

        // ------------------------------------------------ accuracy management
        /// `changeAcc(o, desAcc, minAcc)` — renegotiate the accuracy range.
        ChangeAccReq = 14, "changeAccReq" {
            /// The object.
            oid: ObjectId,
            /// New desired accuracy.
            des_acc_m: f64,
            /// New minimal acceptable accuracy.
            min_acc_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// Response to [`Message::ChangeAccReq`].
        ChangeAccRes = 15, "changeAccRes" {
            /// The object.
            oid: ObjectId,
            /// Whether the new range is achievable (and now in effect).
            ok: bool,
            /// The offered accuracy after the change.
            offered_acc_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// `notifyAvailAcc()` — unsolicited notification that the offered
        /// accuracy changed (e.g. after a handover to a leaf with different
        /// sensor infrastructure).
        NotifyAvailAcc = 16, "notifyAvailAcc" {
            /// The object.
            oid: ObjectId,
            /// The now-offered accuracy.
            offered_acc_m: f64,
        },

        // ----------------------------------------------------- position query
        /// `posQuery(o)` from a client to its entry server.
        PosQueryReq = 17, "posQueryReq" {
            /// The queried object.
            oid: ObjectId,
            /// Correlation id.
            corr: CorrId,
        },
        /// `posQueryFwd(oId, lse)` — routed via forwarding pointers.
        PosQueryFwd = 18, "posQueryFwd" {
            /// The queried object.
            oid: ObjectId,
            /// The entry server awaiting the answer.
            entry: ServerId,
            /// True when the entry contacted a cached agent directly
            /// (cache miss then falls back to the hierarchy) — §6.5.
            direct: bool,
            /// Correlation id.
            corr: CorrId,
        },
        /// `posQueryRes(ld)` — the answer, sent to the entry server (or the
        /// client). `found = None` means the object is unknown.
        PosQueryRes = 19, "posQueryRes" {
            /// The queried object.
            oid: ObjectId,
            /// The location descriptor, when the object is tracked.
            found: Option<LocationDescriptor>,
            /// Sighting timestamp backing the descriptor (0 when unknown) —
            /// lets caches age the accuracy.
            time_us: Micros,
            /// The object's declared maximum speed (0 when unknown).
            max_speed_mps: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// A directly-contacted leaf no longer tracks the object (stale
        /// agent cache): the entry falls back to hierarchy routing.
        PosQueryMiss = 20, "posQueryMiss" {
            /// The queried object.
            oid: ObjectId,
            /// Correlation id.
            corr: CorrId,
        },

        // -------------------------------------------------------- range query
        /// `rangeQuery(a, reqAcc, reqOverlap)` from a client.
        RangeQueryReq = 21, "rangeQueryReq" {
            /// The query parameters.
            query: RangeQuery,
            /// Correlation id.
            corr: CorrId,
        },
        /// `rangeQueryFwd(area, reqAcc, reqOverlap, lse)` — scattered
        /// through the hierarchy to all overlapping leaves.
        RangeQueryFwd = 22, "rangeQueryFwd" {
            /// The query parameters.
            query: RangeQuery,
            /// The entry server collecting the partial results.
            entry: ServerId,
            /// Correlation id.
            corr: CorrId,
        },
        /// `rangeQuerySubRes(objs, a)` — one leaf's partial result, sent
        /// directly to the entry server. Carries the leaf's service area so
        /// entry servers can populate their area caches (§6.5: "the
        /// originator of the message includes a specification of its (leaf)
        /// service area").
        RangeQuerySubRes = 23, "rangeQuerySubRes" {
            /// Qualifying `(object, descriptor)` pairs at this leaf.
            items: Vec<ObjectLocation>,
            /// Area (m²) of `Enlarge(query area) ∩ leaf area` — the portion
            /// of the query this sub-result covers.
            covered_area_m2: f64,
            /// The answering leaf.
            leaf: ServerId,
            /// The answering leaf's service area (cache food).
            leaf_area: Rect,
            /// Correlation id.
            corr: CorrId,
        },
        /// `rangeQueryRes(objects)` — the collected answer to the client.
        RangeQueryRes = 24, "rangeQueryRes" {
            /// All qualifying `(object, descriptor)` pairs.
            items: Vec<ObjectLocation>,
            /// False when the gather timed out (partial answer).
            complete: bool,
            /// Correlation id.
            corr: CorrId,
        },

        // -------------------------------------------------- nearest neighbor
        /// `neighborQuery(p, reqAcc, nearQual)` from a client.
        ///
        /// The paper defines the semantics (§3.2) but no distributed
        /// algorithm; hiloc uses an expanding-ring scatter (DESIGN.md §3).
        NeighborQueryReq = 25, "neighborQueryReq" {
            /// The queried position.
            p: Point,
            /// Accuracy threshold.
            req_acc_m: f64,
            /// Near-set qualification distance.
            near_qual_m: f64,
            /// Correlation id.
            corr: CorrId,
        },
        /// Ring scatter: collect candidates within `radius_m` of `p`.
        NeighborQueryFwd = 26, "neighborQueryFwd" {
            /// The queried position.
            p: Point,
            /// Accuracy threshold.
            req_acc_m: f64,
            /// Current search radius.
            radius_m: f64,
            /// The entry server gathering candidates.
            entry: ServerId,
            /// Correlation id.
            corr: CorrId,
        },
        /// A leaf's candidates within the ring.
        NeighborQuerySubRes = 27, "neighborQuerySubRes" {
            /// Candidates (center within the ring, accuracy qualified).
            items: Vec<ObjectLocation>,
            /// Covered portion (m²) of the ring's bounding box.
            covered_area_m2: f64,
            /// The answering leaf.
            leaf: ServerId,
            /// The answering leaf's service area (cache food).
            leaf_area: Rect,
            /// Correlation id.
            corr: CorrId,
        },
        /// The nearest-neighbor answer to the client.
        NeighborQueryRes = 28, "neighborQueryRes" {
            /// The selected nearest object.
            nearest: Option<ObjectLocation>,
            /// Qualified objects within `nearQual` of the nearest.
            near_set: Vec<ObjectLocation>,
            /// False when the gather timed out.
            complete: bool,
            /// Correlation id.
            corr: CorrId,
        },

        // ------------------------------------------------- restore-on-demand
        /// A recovering leaf asks a visitor for a fresh position update
        /// (paper §5: "persistent registration information also allows a
        /// location server to ask a visitor for a position update to restore
        /// its position information … after system restart").
        PositionProbe = 36, "positionProbe" {
            /// The object asked to report.
            oid: ObjectId,
        },
        /// A server that received an update for an object it no longer
        /// tracks (the object's `AgentChanged` was lost) routes this along
        /// the forwarding paths; the current agent answers the object with
        /// a fresh `AgentChanged`. Robustness extension beyond the paper's
        /// pseudocode, required for UDP deployments.
        AgentLookup = 37, "agentLookup" {
            /// The object whose agent is sought.
            oid: ObjectId,
            /// The tracked object's endpoint (receives the answer).
            object: Endpoint,
        },

        // --------------------------------------- hierarchy reconfiguration
        //
        // The paper's tree is static (§4); these messages implement live
        // reshaping: a joining server receives the visitor records its new
        // area covers from the sibling it split (bulk handover), a leaving
        // server drains everything to the sibling absorbing its area, and
        // a root successor rebuilds its forwarding table from its children.
        /// Bulk visitor handover from a source leaf to a sibling leaf
        /// during a join (the source's area was split) or a leave (the
        /// source drains before detaching). The target applies the whole
        /// batch as **one atomic WAL record**, re-asserts each forwarding
        /// path (`createPath` with `epoch`), and acks; the source keeps
        /// answering for the records — and retries on a timer — until the
        /// ack arrives, then deletes its copies under the same epoch guard.
        StateTransfer = 40, "stateTransfer" {
            /// The transferred visitors.
            records: Vec<TransferRecord>,
            /// Path-change stamp of the transfer: stale replays lose
            /// against any newer per-object path change (handover or
            /// re-registration) on both sides.
            epoch: Hlc,
            /// Correlation id, identifying the transfer across retries.
            corr: CorrId,
        },
        /// The target durably applied a [`Message::StateTransfer`].
        StateTransferAck = 41, "stateTransferAck" {
            /// Records accepted (stale ones are counted out but still
            /// acknowledged — the source's epoch guard skips them too).
            accepted: u32,
            /// Echo of the acknowledged transfer's stamp: the source's
            /// removal guard must use the stamp of the send this ack
            /// answers, not its latest — a delayed ack for an earlier
            /// send must not delete records that changed since.
            epoch: Hlc,
            /// Correlation id of the transfer.
            corr: CorrId,
        },
        /// A promoted root successor asks a child for a chunk of the
        /// visitors reachable through it, to rebuild its forwarding table
        /// without waiting a full keep-alive period. Chunked as a cursor
        /// pull: `after` names the last object already received (`None`
        /// starts the scan), and the child answers with the next chunk in
        /// object-id order.
        PathSyncReq = 42, "pathSyncReq" {
            /// Resume cursor: only records with ids strictly greater are
            /// returned.
            after: Option<ObjectId>,
            /// Correlation id.
            corr: CorrId,
        },
        /// A child's answer to [`Message::PathSyncReq`]: the next chunk
        /// of objects it has records for, with each record's path-change
        /// stamp. The new root installs a forwarding reference per entry
        /// (epoch-guarded) and pulls again from the last id until `done`.
        PathSyncRes = 43, "pathSyncRes" {
            /// `(object, record stamp)` pairs, ascending by object id.
            entries: Vec<(ObjectId, Hlc)>,
            /// True when no records remain past this chunk.
            done: bool,
            /// Correlation id.
            corr: CorrId,
        },

        // ------------------------------------------------------- replication
        /// A batch of forwarding-table / visitor-record deltas streamed to
        /// a warm standby (roots and mid-nodes) or to a sibling replica
        /// leaf (k=2 leaf replication). Exactly one batch per stream is in
        /// flight; the source retries it with backoff (like
        /// [`Message::StateTransfer`]) until the ack arrives, and every
        /// record is HLC-guarded at the receiver, so replayed batches are
        /// idempotent.
        FwdDelta = 44, "fwdDelta" {
            /// Stream id (the designation stamp's raw bits): a receiver
            /// ignores batches from a stream it was never attached to, so
            /// deltas from a deposed source cannot corrupt a fresh stream.
            stream: u64,
            /// Batch sequence number within the stream (diagnostic; the
            /// per-record stamps carry the ordering).
            seq: u64,
            /// True when the receiver holds these as leaf *replica*
            /// records (side table serving bounded-staleness reads)
            /// rather than adopting them into its own visitor table.
            replica: bool,
            /// The batched deltas.
            records: Vec<DeltaRecord>,
            /// Correlation id, identifying the batch across retries.
            corr: CorrId,
        },
        /// The receiver durably applied a [`Message::FwdDelta`] batch.
        FwdDeltaAck = 45, "fwdDeltaAck" {
            /// Echo of the batch's stream id.
            stream: u64,
            /// Echo of the batch's sequence number.
            seq: u64,
            /// Records accepted (stale ones are counted out but still
            /// acknowledged — the sender's watermark keeps the stamp it
            /// sent either way).
            applied: u32,
            /// Correlation id of the batch.
            corr: CorrId,
        },
    }
}

wire_struct! {
    /// One replicated record change inside a [`Message::FwdDelta`] batch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DeltaRecord {
        /// The object whose record changed.
        pub oid: ObjectId,
        /// The change itself.
        pub body: DeltaBody,
    }
}

wire_enum! {
    /// What a [`DeltaRecord`] replicates. Every variant carries the HLC
    /// stamp that arbitrates it at the receiver: apply iff not older than
    /// the copy already held (ties resolve by the stamp's node id, so
    /// every replica picks the same winner).
    #[derive(Debug, Clone, PartialEq)]
    pub enum DeltaBody {
        /// A non-leaf forwarding reference (standby streams).
        Forward = 0 {
            /// The next-hop child server.
            child: ServerId,
            /// The record's path-change stamp.
            epoch: Hlc,
        },
        /// A leaf visitor record plus its current sighting (replica
        /// streams) — everything a sibling needs to serve a
        /// bounded-staleness position read or adopt the record on
        /// failover.
        Leaf = 1 {
            /// Registration info.
            reg: RegInfo,
            /// Accuracy the agent currently offers.
            offered_acc_m: f64,
            /// The record's path-change stamp.
            epoch: Hlc,
            /// The agent's current sighting, when one exists.
            sighting: Option<Sighting>,
        } valid if valid_acc(offered_acc_m),
        /// The record was removed (deregistration, handover away,
        /// soft-state expiry).
        Remove = 2 {
            /// Stamp of the removal.
            epoch: Hlc,
        },
    }
}

impl Message {
    /// The exact number of bytes [`WireCodec::encode`] appends for this
    /// message — [`WireCodec::encoded_len`], callable without the
    /// trait in scope.
    // lint:hot_path
    pub fn encoded_len(&self) -> usize {
        WireCodec::encoded_len(self)
    }
}

#[cfg(test)]
mod samples;

/// Lower-case hex of `bytes`: how the tests state frozen encodings.
#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::samples::sample_messages;
    use super::*;
    use hiloc_net::wire::MAX_ITEMS;
    use hiloc_net::ClientId;
    use std::collections::BTreeSet;

    /// `to_bytes()` of every [`sample_messages`] entry, in order, as
    /// produced by the hand-written codec this table replaced (captured
    /// by running this test's loop against that codec): the wire format
    /// is frozen, whatever generates the code.
    const FROZEN: &[&str] = &[
        "012a0000000000000040e2010000000000000000000000244000000000000014c000000000000029400000000000003940000000000000594000000000000008400109000000000000004d00000000000000", // registerReq
        "020400000000000000000039404d00000000000000", // registerRes
        "030400000000000000000054400100000000000000", // registerFailed
        "042a00000000000000e703000000000000", // createPath
        "052a0000000000000040e2010000000000000000000000244000000000000014c00000000000002940", // update
        "062a0000000000000000000000000039400500000000000000", // updateAck
        "26020000002a0000000000000040e2010000000000000000000000244000000000000014c000000000000029402b000000000000005fe4010000000000000000000000264000000000000010c000000000000020405800000000000000", // updateBatch
        "26000000005900000000000000", // updateBatch
        "27020000002a0000000000000000000000000039402b000000000000000000000000003e4006000000000000005800000000000000", // updateBatchAck
        "072a0000000000000040e2010000000000000000000000244000000000000014c00000000000002940010900000000000000000000000000394000000000000059400000000000000840e8030000000000000200000000000000", // handoverReq
        "082a00000000000000050000000000000000003e40e8030000000000000200000000000000", // handoverRes
        "092a0000000000000001000000000000000300000000000000", // handoverFailed
        "0a2a00000000000000050000000000000000003e40", // agentChanged
        "0b2a00000000000000", // outOfServiceArea
        "0c2a00000000000000", // deregister
        "0d2a00000000000000dc05000000000000", // removePath
        "0e2a00000000000000000000000000244000000000000049400400000000000000", // changeAccReq
        "0f2a000000000000000100000000000024400400000000000000", // changeAccRes
        "102a000000000000000000000000004440", // notifyAvailAcc
        "112a000000000000000500000000000000", // posQueryReq
        "122a0000000000000001000000010500000000000000", // posQueryFwd
        "132a0000000000000001000000000000f03f000000000000004000000000000039402c0000000000000000000000000008400500000000000000", // posQueryRes
        "132a0000000000000000000000000000000000000000000000000500000000000000", // posQueryRes
        "142a000000000000000500000000000000", // posQueryMiss
        "150000000000000000000000000000000000000000000000494000000000000049400000000000004940333333333333d33f0600000000000000", // rangeQueryReq
        "160000000000000000000000000000000000000000000000494000000000000049400000000000004940333333333333d33f020000000600000000000000", // rangeQueryFwd
        "17020000000100000000000000000000000000f03f000000000000004000000000000039400200000000000000000000000000f03f00000000000000400000000000003940000000000088a3400300000000000000000000000000000000000000000000000000244000000000000024400600000000000000", // rangeQuerySubRes
        "18010000000100000000000000000000000000f03f00000000000000400000000000003940010600000000000000", // rangeQueryRes
        "1900000000000014400000000000001440000000000000494000000000000024400700000000000000", // neighborQueryReq
        "1a0000000000001440000000000000144000000000000049400000000000005940010000000700000000000000", // neighborQueryFwd
        "1b010000000300000000000000000000000000f03f000000000000004000000000000039400000000000c05e400200000000000000000000000000000000000000000000000000144000000000000014400700000000000000", // neighborQuerySubRes
        "1c010300000000000000000000000000f03f00000000000000400000000000003940010000000400000000000000000000000000f03f00000000000000400000000000003940010700000000000000", // neighborQueryRes
        "1c0000000000000700000000000000", // neighborQueryRes
        "242a00000000000000", // positionProbe
        "252a00000000000000010900000000000000", // agentLookup
        "28020000002a000000000000000109000000000000000000000000003940000000000000594000000000000008400000000000003940012a0000000000000040e2010000000000000000000000244000000000000014c000000000000029402b000000000000000109000000000000000000000000003940000000000000594000000000000008400000000000003e4000d0070000000000000900000000000000", // stateTransfer
        "2800000000d0070000000000000a00000000000000", // stateTransfer
        "2902000000d0070000000000000900000000000000", // stateTransferAck
        "2a000b00000000000000", // pathSyncReq
        "2a012a000000000000000b00000000000000", // pathSyncReq
        "2b020000002a00000000000000d0070000000000002b00000000000000d107000000000000000b00000000000000", // pathSyncRes
        "2b00000000010c00000000000000", // pathSyncRes
        "2c0700000000000000030000000000000000020000002a000000000000000005000000b80b0000000000002b0000000000000002b90b0000000000000d00000000000000", // fwdDelta
        "2c0700000000000000040000000000000001020000002a00000000000000010109000000000000000000000000003940000000000000594000000000000008400000000000003940ba0b000000000000012a0000000000000040e2010000000000000000000000244000000000000014c000000000000029402c00000000000000010109000000000000000000000000003940000000000000594000000000000008400000000000003e40bb0b000000000000000e00000000000000", // fwdDelta
        "2c0700000000000000050000000000000000000000000f00000000000000", // fwdDelta
        "2d07000000000000000300000000000000020000000d00000000000000", // fwdDeltaAck
    ];

    #[test]
    fn wire_bytes_are_frozen() {
        let samples = sample_messages();
        assert_eq!(samples.len(), FROZEN.len(), "a new sample needs its frozen bytes");
        for (msg, frozen) in samples.iter().zip(FROZEN) {
            assert_eq!(hex(&msg.to_bytes()), *frozen, "wire bytes changed for {}", msg.label());
        }
    }

    #[test]
    fn samples_cover_every_variant() {
        let tags: BTreeSet<u8> = Message::TAGS.iter().copied().collect();
        assert_eq!(tags.len(), Message::TAGS.len(), "two variants share a wire tag");
        let sampled: BTreeSet<u8> = sample_messages().iter().map(Message::tag).collect();
        let missing: Vec<&u8> = tags.difference(&sampled).collect();
        assert!(missing.is_empty(), "sample_messages misses the variants tagged {missing:?}");
    }

    #[test]
    fn all_messages_roundtrip() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            assert_eq!(bytes[0], msg.tag(), "encoding starts with the tag of {}", msg.label());
            let back = Message::from_bytes(&bytes);
            assert_eq!(back.as_ref(), Some(&msg), "roundtrip failed for {}", msg.label());
        }
    }

    #[test]
    fn message_sizes_are_exact() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            assert_eq!(
                bytes.len(),
                msg.encoded_len(),
                "encoded_len out of sync with encode for {}",
                msg.label()
            );
            // to_bytes must allocate exactly once, with no slack.
            assert_eq!(
                bytes.capacity(),
                msg.encoded_len(),
                "to_bytes over- or under-allocated for {}",
                msg.label()
            );
        }
    }

    #[test]
    fn labels_are_unique_per_variant() {
        use std::collections::BTreeMap;
        let mut by_label: BTreeMap<&str, u8> = BTreeMap::new();
        for m in sample_messages() {
            if let Some(prev) = by_label.insert(m.label(), m.tag()) {
                assert_eq!(
                    prev,
                    m.tag(),
                    "label {:?} is shared by two different variants",
                    m.label()
                );
            }
        }
        assert_eq!(by_label.len(), Message::TAGS.len(), "every variant needs its own label");
    }

    #[test]
    fn truncated_messages_never_panic() {
        for msg in sample_messages() {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                let _ = Message::from_bytes(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Message::from_bytes(&[0xEE]), None);
        assert_eq!(Message::from_bytes(&[]), None);
        // Tags 29–35 belonged to the retired in-server event protocol;
        // a peer still sending them is refused, whatever body follows.
        for tag in 29u8..=35 {
            assert!(!Message::TAGS.contains(&tag), "tag {tag} is retired");
            for body_len in [0usize, 9, 64] {
                let mut bytes = vec![tag];
                bytes.resize(1 + body_len, 0x01);
                assert_eq!(Message::from_bytes(&bytes), None, "retired tag {tag} decoded");
            }
        }
    }

    #[test]
    fn semantic_validation_in_decode() {
        // Negative accuracy must not decode into a Sighting.
        let mut buf = vec![Message::UpdateReq { sighting: sample_sighting() }.tag()];
        ObjectId(1).encode(&mut buf);
        0u64.encode(&mut buf);
        Point::ORIGIN.encode(&mut buf);
        (-5.0f64).encode(&mut buf);
        assert_eq!(Message::from_bytes(&buf), None);

        // Every other value a constructor would refuse is refused on
        // the wire too, wherever its type appears. (Struct literals
        // bypass the constructors' asserts, as a hostile peer does.)
        let s = sample_sighting();
        let reg = RegInfo::new(ClientId(9).into(), 25.0, 100.0, 3.0);
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)).into();
        let leaf = |reg, offered_acc_m, sighting| Message::FwdDelta {
            stream: 7,
            seq: 4,
            replica: true,
            records: vec![DeltaRecord {
                oid: ObjectId(42),
                body: DeltaBody::Leaf { reg, offered_acc_m, epoch: Hlc(3_002), sighting },
            }],
            corr: CorrId(14),
        };
        let transfer = |reg, offered_acc_m, sighting| Message::StateTransfer {
            records: vec![TransferRecord { oid: ObjectId(42), reg, offered_acc_m, sighting }],
            epoch: Hlc(2_000),
            corr: CorrId(9),
        };
        let refused = [
            Message::UpdateBatch {
                sightings: vec![s, Sighting { acc_sens_m: f64::NAN, ..s }],
                corr: CorrId(88),
            },
            Message::PosQueryRes {
                oid: ObjectId(42),
                found: Some(LocationDescriptor { pos: Point::ORIGIN, acc_m: f64::INFINITY }),
                time_us: 44,
                max_speed_mps: 3.0,
                corr: CorrId(5),
            },
            Message::RangeQueryRes {
                items: vec![(ObjectId(1), LocationDescriptor { pos: Point::ORIGIN, acc_m: -1.0 })],
                complete: true,
                corr: CorrId(6),
            },
            Message::HandoverReq {
                sighting: s,
                reg: RegInfo { des_acc_m: 100.0, min_acc_m: 25.0, ..reg },
                epoch: Hlc(1_000),
                corr: CorrId(2),
            },
            Message::HandoverReq {
                sighting: s,
                reg: RegInfo { max_speed_mps: -3.0, ..reg },
                epoch: Hlc(1_000),
                corr: CorrId(2),
            },
            Message::RangeQueryReq {
                query: RangeQuery { area, req_acc_m: 50.0, req_overlap: 0.0 },
                corr: CorrId(6),
            },
            transfer(reg, -25.0, Some(s)),
            transfer(RegInfo { min_acc_m: f64::INFINITY, ..reg }, 25.0, None),
            leaf(reg, f64::NAN, None),
            leaf(reg, 25.0, Some(Sighting { acc_sens_m: -12.5, ..s })),
        ];
        for msg in refused {
            assert_eq!(Message::from_bytes(&msg.to_bytes()), None, "{msg:?} must not decode");
        }
        assert!(Message::from_bytes(&leaf(reg, 25.0, Some(s)).to_bytes()).is_some());
        assert!(Message::from_bytes(&transfer(reg, 25.0, Some(s)).to_bytes()).is_some());

        // Bools and option tags are strictly 0 or 1.
        let ok = Message::ChangeAccRes { oid: ObjectId(42), ok: true, offered_acc_m: 10.0, corr: CorrId(4) };
        let mut bytes = ok.to_bytes();
        assert_eq!(bytes[9], 1, "the `ok` flag follows the tag and the object id");
        bytes[9] = 2;
        assert_eq!(Message::from_bytes(&bytes), None);
        let mut bytes = Message::PathSyncReq { after: Some(ObjectId(42)), corr: CorrId(11) }.to_bytes();
        assert_eq!(bytes[1], 1, "the option tag follows the message tag");
        bytes[1] = 2;
        assert_eq!(Message::from_bytes(&bytes), None);
    }

    fn sample_sighting() -> Sighting {
        Sighting::new(ObjectId(42), 123_456, Point::new(10.0, -5.0), 12.5)
    }

    /// One case per list-bearing variant: an element count the bytes
    /// behind it cannot hold is refused (and, as `hiloc_net::wire`'s
    /// own test shows, refused before any element is decoded or room
    /// reserved for it).
    #[test]
    fn oversized_list_counts_are_rejected() {
        let ld_area = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        // Each message with its lists empty, and where their counts sit.
        let cases: Vec<(Message, Vec<usize>)> = vec![
            (Message::UpdateBatch { sightings: vec![], corr: CorrId(1) }, vec![1]),
            (Message::UpdateBatchAck { acks: vec![], time_us: 6, corr: CorrId(1) }, vec![1]),
            (
                Message::RangeQuerySubRes {
                    items: vec![],
                    covered_area_m2: 1.0,
                    leaf: ServerId(3),
                    leaf_area: ld_area,
                    corr: CorrId(1),
                },
                vec![1],
            ),
            (Message::RangeQueryRes { items: vec![], complete: true, corr: CorrId(1) }, vec![1]),
            (
                Message::NeighborQuerySubRes {
                    items: vec![],
                    covered_area_m2: 1.0,
                    leaf: ServerId(3),
                    leaf_area: ld_area,
                    corr: CorrId(1),
                },
                vec![1],
            ),
            (
                Message::NeighborQueryRes { nearest: None, near_set: vec![], complete: true, corr: CorrId(1) },
                vec![2],
            ),
            (Message::StateTransfer { records: vec![], epoch: Hlc(1), corr: CorrId(1) }, vec![1]),
            (Message::PathSyncRes { entries: vec![], done: true, corr: CorrId(1) }, vec![1]),
            (
                Message::FwdDelta { stream: 7, seq: 5, replica: false, records: vec![], corr: CorrId(1) },
                vec![18],
            ),
        ];
        for (msg, count_offsets) in cases {
            let bytes = msg.to_bytes();
            for at in count_offsets {
                assert_eq!(bytes[at..at + 4], [0; 4], "no empty list at {at} in {}", msg.label());
                for count in [1, 100, MAX_ITEMS, MAX_ITEMS + 1, u32::MAX] {
                    let mut hostile = bytes.clone();
                    hostile[at..at + 4].copy_from_slice(&count.to_le_bytes());
                    assert_eq!(
                        Message::from_bytes(&hostile),
                        None,
                        "{} accepted a count of {count} with no elements behind it",
                        msg.label()
                    );
                }
            }
        }
    }
}
