//! One valid instance of every [`Message`] variant (a few variants
//! twice, to cover both shapes of an `Option` or an empty list).
//!
//! The single sample table behind the codec's unit tests
//! (`proto::tests`) and the decode fuzzer (`tests/proto_fuzz.rs`, which
//! includes this file by path): both reach the protocol types through
//! `super`, so a new variant's sample is written once.

use super::{
    DeltaBody, DeltaRecord, Hlc, LocationDescriptor, Message, ObjectId, RangeQuery, RegInfo,
    Sighting, TransferRecord,
};
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::{ClientId, CorrId, ServerId};

pub fn sample_messages() -> Vec<Message> {
    let s = Sighting::new(ObjectId(42), 123_456, Point::new(10.0, -5.0), 12.5);
    let reg = RegInfo::new(ClientId(9).into(), 25.0, 100.0, 3.0);
    let ld = LocationDescriptor::new(Point::new(1.0, 2.0), 25.0);
    let area = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)));
    let query = RangeQuery::new(area.clone(), 50.0, 0.3);
    vec![
        Message::RegisterReq {
            sighting: s,
            des_acc_m: 25.0,
            min_acc_m: 100.0,
            max_speed_mps: 3.0,
            registrant: ClientId(9).into(),
            corr: CorrId(77),
        },
        Message::RegisterRes { agent: ServerId(4), offered_acc_m: 25.0, corr: CorrId(77) },
        Message::RegisterFailed { server: ServerId(4), achievable_m: 80.0, corr: CorrId(1) },
        Message::CreatePath { oid: ObjectId(42), epoch: Hlc(999) },
        Message::UpdateReq { sighting: s },
        Message::UpdateAck { oid: ObjectId(42), offered_acc_m: 25.0, time_us: 5 },
        Message::UpdateBatch {
            sightings: vec![
                s,
                Sighting::new(ObjectId(43), 123_999, Point::new(11.0, -4.0), 8.0),
            ],
            corr: CorrId(88),
        },
        Message::UpdateBatch { sightings: vec![], corr: CorrId(89) },
        Message::UpdateBatchAck {
            acks: vec![(ObjectId(42), 25.0), (ObjectId(43), 30.0)],
            time_us: 6,
            corr: CorrId(88),
        },
        Message::HandoverReq { sighting: s, reg, epoch: Hlc(1_000), corr: CorrId(2) },
        Message::HandoverRes {
            oid: ObjectId(42),
            new_agent: ServerId(5),
            offered_acc_m: 30.0,
            epoch: Hlc(1_000),
            corr: CorrId(2),
        },
        Message::HandoverFailed { oid: ObjectId(42), epoch: Hlc(1), corr: CorrId(3) },
        Message::AgentChanged { oid: ObjectId(42), new_agent: ServerId(5), offered_acc_m: 30.0 },
        Message::OutOfServiceArea { oid: ObjectId(42) },
        Message::DeregisterReq { oid: ObjectId(42) },
        Message::RemovePath { oid: ObjectId(42), epoch: Hlc(1_500) },
        Message::ChangeAccReq { oid: ObjectId(42), des_acc_m: 10.0, min_acc_m: 50.0, corr: CorrId(4) },
        Message::ChangeAccRes { oid: ObjectId(42), ok: true, offered_acc_m: 10.0, corr: CorrId(4) },
        Message::NotifyAvailAcc { oid: ObjectId(42), offered_acc_m: 40.0 },
        Message::PosQueryReq { oid: ObjectId(42), corr: CorrId(5) },
        Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(1), direct: true, corr: CorrId(5) },
        Message::PosQueryRes {
            oid: ObjectId(42),
            found: Some(ld),
            time_us: 44,
            max_speed_mps: 3.0,
            corr: CorrId(5),
        },
        Message::PosQueryRes { oid: ObjectId(42), found: None, time_us: 0, max_speed_mps: 0.0, corr: CorrId(5) },
        Message::PosQueryMiss { oid: ObjectId(42), corr: CorrId(5) },
        Message::RangeQueryReq { query: query.clone(), corr: CorrId(6) },
        Message::RangeQueryFwd { query, entry: ServerId(2), corr: CorrId(6) },
        Message::RangeQuerySubRes {
            items: vec![(ObjectId(1), ld), (ObjectId(2), ld)],
            covered_area_m2: 2_500.0,
            leaf: ServerId(3),
            leaf_area: Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            corr: CorrId(6),
        },
        Message::RangeQueryRes { items: vec![(ObjectId(1), ld)], complete: true, corr: CorrId(6) },
        Message::NeighborQueryReq { p: Point::new(5.0, 5.0), req_acc_m: 50.0, near_qual_m: 10.0, corr: CorrId(7) },
        Message::NeighborQueryFwd {
            p: Point::new(5.0, 5.0),
            req_acc_m: 50.0,
            radius_m: 100.0,
            entry: ServerId(1),
            corr: CorrId(7),
        },
        Message::NeighborQuerySubRes {
            items: vec![(ObjectId(3), ld)],
            covered_area_m2: 123.0,
            leaf: ServerId(2),
            leaf_area: Rect::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            corr: CorrId(7),
        },
        Message::NeighborQueryRes {
            nearest: Some((ObjectId(3), ld)),
            near_set: vec![(ObjectId(4), ld)],
            complete: true,
            corr: CorrId(7),
        },
        Message::NeighborQueryRes { nearest: None, near_set: vec![], complete: false, corr: CorrId(7) },
        Message::PositionProbe { oid: ObjectId(42) },
        Message::AgentLookup { oid: ObjectId(42), object: ClientId(9).into() },
        Message::StateTransfer {
            records: vec![
                TransferRecord {
                    oid: ObjectId(42),
                    reg,
                    offered_acc_m: 25.0,
                    sighting: Some(s),
                },
                TransferRecord {
                    // A post-restart record whose sighting was lost.
                    oid: ObjectId(43),
                    reg,
                    offered_acc_m: 30.0,
                    sighting: None,
                },
            ],
            epoch: Hlc(2_000),
            corr: CorrId(9),
        },
        Message::StateTransfer { records: vec![], epoch: Hlc(2_000), corr: CorrId(10) },
        Message::StateTransferAck { accepted: 2, epoch: Hlc(2_000), corr: CorrId(9) },
        Message::PathSyncReq { after: None, corr: CorrId(11) },
        Message::PathSyncReq { after: Some(ObjectId(42)), corr: CorrId(11) },
        Message::PathSyncRes {
            entries: vec![(ObjectId(42), Hlc(2_000)), (ObjectId(43), Hlc(2_001))],
            done: false,
            corr: CorrId(11),
        },
        Message::PathSyncRes { entries: vec![], done: true, corr: CorrId(12) },
        Message::FwdDelta {
            stream: 7,
            seq: 3,
            replica: false,
            records: vec![
                DeltaRecord {
                    oid: ObjectId(42),
                    body: DeltaBody::Forward { child: ServerId(5), epoch: Hlc(3_000) },
                },
                DeltaRecord {
                    oid: ObjectId(43),
                    body: DeltaBody::Remove { epoch: Hlc(3_001) },
                },
            ],
            corr: CorrId(13),
        },
        Message::FwdDelta {
            stream: 7,
            seq: 4,
            replica: true,
            records: vec![
                DeltaRecord {
                    oid: ObjectId(42),
                    body: DeltaBody::Leaf {
                        reg,
                        offered_acc_m: 25.0,
                        epoch: Hlc(3_002),
                        sighting: Some(s),
                    },
                },
                DeltaRecord {
                    oid: ObjectId(44),
                    body: DeltaBody::Leaf {
                        reg,
                        offered_acc_m: 30.0,
                        epoch: Hlc(3_003),
                        sighting: None,
                    },
                },
            ],
            corr: CorrId(14),
        },
        Message::FwdDelta { stream: 7, seq: 5, replica: false, records: vec![], corr: CorrId(15) },
        Message::FwdDeltaAck { stream: 7, seq: 3, applied: 2, corr: CorrId(13) },
    ]
}
