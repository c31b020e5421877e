//! Direct unit tests of the server state machine: feed envelopes into
//! `LocationServer::handle` without any runtime and inspect the exact
//! outputs — the paper's pseudocode, line by line.

use hiloc_core::area::HierarchyBuilder;
use hiloc_core::model::{Hlc, ObjectId, Sighting, SECOND};
use hiloc_core::node::{LocationServer, ServerOptions, VisitorRecord};
use hiloc_core::proto::Message;
use hiloc_geo::{Point, Rect};
use hiloc_net::{ClientId, CorrId, Endpoint, Envelope, ServerId};

fn servers() -> Vec<LocationServer> {
    // Root + 4 leaves over 1 km².
    let h = HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
        1,
        2,
    )
    .build()
    .unwrap();
    h.servers()
        .iter()
        .map(|cfg| LocationServer::new(cfg.clone(), ServerOptions::default()).unwrap())
        .collect()
}

fn client() -> Endpoint {
    ClientId(7).into()
}

fn env(from: Endpoint, to: ServerId, msg: Message) -> Envelope<Message> {
    Envelope::new(from, to.into(), msg)
}

fn register_msg(oid: u64, pos: Point, corr: u64) -> Message {
    Message::RegisterReq {
        sighting: Sighting::new(ObjectId(oid), 0, pos, 5.0),
        des_acc_m: 10.0,
        min_acc_m: 50.0,
        max_speed_mps: 2.0,
        registrant: client(),
        corr: CorrId(corr),
    }
}

#[test]
fn leaf_registration_emits_res_and_create_path() {
    let mut nodes = servers();
    let leaf = &mut nodes[1]; // SW quadrant
    let pos = Point::new(100.0, 100.0);
    assert!(leaf.config().contains(pos));

    let out = leaf.handle(0, env(client(), ServerId(1), register_msg(1, pos, 9)));
    assert_eq!(out.len(), 2);
    // CreatePath to the parent...
    assert!(out.iter().any(|e| {
        e.to == Endpoint::Server(ServerId(0))
            && matches!(e.msg, Message::CreatePath { oid: ObjectId(1), .. })
    }));
    // ...and the response to the registrant with the desired accuracy.
    assert!(out.iter().any(|e| {
        e.to == client()
            && matches!(
                e.msg,
                Message::RegisterRes { agent: ServerId(1), offered_acc_m, corr: CorrId(9) }
                if offered_acc_m == 10.0
            )
    }));
    assert_eq!(leaf.sighting_count(), 1);
    assert_eq!(leaf.visitor_count(), 1);
    assert_eq!(leaf.stats().registrations, 1);
}

#[test]
fn nonleaf_routes_registration_down_and_root_rejects_outside() {
    let mut nodes = servers();
    let pos = Point::new(900.0, 100.0); // SE quadrant = s2
    let out = nodes[0].handle(0, env(client(), ServerId(0), register_msg(2, pos, 1)));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(2)));

    // Outside the root area: RegisterFailed straight to the registrant.
    let outside = Point::new(5_000.0, 0.0);
    let out = nodes[0].handle(0, env(client(), ServerId(0), register_msg(3, outside, 2)));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, client());
    assert!(matches!(out[0].msg, Message::RegisterFailed { .. }));
}

#[test]
fn create_path_propagates_until_root() {
    let mut nodes = servers();
    let out = nodes[0].handle(
        0,
        env(ServerId(1).into(), ServerId(0), Message::CreatePath { oid: ObjectId(4), epoch: Hlc(5) }),
    );
    // Root has no parent: path ends here.
    assert!(out.is_empty());
    assert!(matches!(
        nodes[0].visitors().get(ObjectId(4)),
        Some(VisitorRecord::Forward { child: ServerId(1), .. })
    ));

    // A stale CreatePath (older epoch) is ignored and not propagated.
    let out = nodes[0].handle(
        1,
        env(ServerId(2).into(), ServerId(0), Message::CreatePath { oid: ObjectId(4), epoch: Hlc(3) }),
    );
    assert!(out.is_empty());
    assert!(matches!(
        nodes[0].visitors().get(ObjectId(4)),
        Some(VisitorRecord::Forward { child: ServerId(1), .. })
    ));
}

#[test]
fn update_without_registration_triggers_agent_lookup() {
    let mut nodes = servers();
    let out = nodes[1].handle(
        0,
        env(
            client(),
            ServerId(1),
            Message::UpdateReq { sighting: Sighting::new(ObjectId(9), 0, Point::new(1.0, 1.0), 5.0) },
        ),
    );
    // The update itself is dropped, but the leaf routes an agent lookup
    // so the (possibly stale) client can recover.
    assert_eq!(nodes[1].stats().updates_dropped, 1);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(0)));
    assert!(matches!(out[0].msg, Message::AgentLookup { oid: ObjectId(9), .. }));

    // At the root with no record at all: the object is told to
    // re-register.
    let out = nodes[0].handle(
        0,
        env(ServerId(1).into(), ServerId(0), Message::AgentLookup { oid: ObjectId(9), object: client() }),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, client());
    assert!(matches!(out[0].msg, Message::OutOfServiceArea { oid: ObjectId(9) }));
}

#[test]
fn update_inside_area_acks_with_offered_accuracy() {
    let mut nodes = servers();
    let pos = Point::new(100.0, 100.0);
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(5, pos, 1)));
    let out = nodes[1].handle(
        SECOND,
        env(
            client(),
            ServerId(1),
            Message::UpdateReq { sighting: Sighting::new(ObjectId(5), SECOND, Point::new(120.0, 90.0), 5.0) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert!(matches!(
        out[0].msg,
        Message::UpdateAck { oid: ObjectId(5), offered_acc_m, time_us }
        if offered_acc_m == 10.0 && time_us == SECOND
    ));
    assert_eq!(nodes[1].stats().updates, 1);
}

#[test]
fn update_batch_coalesces_acks_and_keeps_individual_failures() {
    let mut nodes = servers();
    // Two objects registered at leaf s1; a third is unknown there.
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(20, Point::new(100.0, 100.0), 1)));
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(21, Point::new(200.0, 150.0), 2)));
    let batch = Message::UpdateBatch {
        sightings: vec![
            Sighting::new(ObjectId(20), SECOND, Point::new(110.0, 100.0), 5.0),
            Sighting::new(ObjectId(99), SECOND, Point::new(50.0, 50.0), 5.0), // unknown
            Sighting::new(ObjectId(21), SECOND, Point::new(205.0, 150.0), 5.0),
        ],
        corr: CorrId(77),
    };
    let out = nodes[1].handle(SECOND, env(client(), ServerId(1), batch));
    // One coalesced ack for the two applied sightings, plus the agent
    // lookup for the unknown object.
    let ack = out
        .iter()
        .find_map(|e| match &e.msg {
            Message::UpdateBatchAck { acks, time_us, corr } => Some((acks.clone(), *time_us, *corr)),
            _ => None,
        })
        .expect("batch ack emitted");
    assert_eq!(ack.0, vec![(ObjectId(20), 10.0), (ObjectId(21), 10.0)]);
    assert_eq!((ack.1, ack.2), (SECOND, CorrId(77)));
    assert!(out.iter().any(|e| matches!(e.msg, Message::AgentLookup { oid: ObjectId(99), .. })));
    assert_eq!(nodes[1].stats().updates, 2);
    assert_eq!(nodes[1].stats().updates_dropped, 1);
    assert_eq!(nodes[1].sighting_count(), 2);

    // A batched sighting that leaves the area still starts its own
    // handover while the rest of the batch acks in place.
    let batch = Message::UpdateBatch {
        sightings: vec![
            Sighting::new(ObjectId(20), 2 * SECOND, Point::new(120.0, 100.0), 5.0),
            Sighting::new(ObjectId(21), 2 * SECOND, Point::new(900.0, 100.0), 5.0), // out of s1
        ],
        corr: CorrId(78),
    };
    let out = nodes[1].handle(2 * SECOND, env(client(), ServerId(1), batch));
    assert!(out.iter().any(|e| matches!(e.msg, Message::HandoverReq { .. })));
    let ack = out
        .iter()
        .find_map(|e| match &e.msg {
            Message::UpdateBatchAck { acks, .. } => Some(acks.clone()),
            _ => None,
        })
        .expect("batch ack emitted");
    assert_eq!(ack, vec![(ObjectId(20), 10.0)]);
    assert_eq!(nodes[1].stats().handovers_started, 1);
}

#[test]
fn out_of_area_update_starts_handover_without_touching_records_yet() {
    let mut nodes = servers();
    let pos = Point::new(100.0, 100.0);
    nodes[1].handle(0, env(client(), ServerId(1), register_msg(6, pos, 1)));
    let out = nodes[1].handle(
        SECOND,
        env(
            client(),
            ServerId(1),
            Message::UpdateReq { sighting: Sighting::new(ObjectId(6), SECOND, Point::new(900.0, 100.0), 5.0) },
        ),
    );
    // One HandoverReq to the parent; the local records stay until the
    // response arrives (paper Alg. 6-2 removes only after handoverRes).
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(0)));
    assert!(matches!(out[0].msg, Message::HandoverReq { .. }));
    assert_eq!(nodes[1].sighting_count(), 1);
    assert_eq!(nodes[1].visitor_count(), 1);
    assert_eq!(nodes[1].pending_count(), 1);
    assert_eq!(nodes[1].stats().handovers_started, 1);
}

#[test]
fn direct_pos_query_fwd_on_stale_leaf_reports_miss() {
    let mut nodes = servers();
    // Leaf s1 does not know object 42; a *direct* (cache-routed) probe
    // must answer PosQueryMiss to the entry instead of crawling the
    // hierarchy.
    let out = nodes[1].handle(
        0,
        env(
            ServerId(4).into(),
            ServerId(1),
            Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(4), direct: true, corr: CorrId(3) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(4)));
    assert!(matches!(out[0].msg, Message::PosQueryMiss { oid: ObjectId(42), corr: CorrId(3) }));

    // A non-direct probe arriving *from the parent* (stale forwarding
    // reference) must not bounce back up — it answers "unknown" to the
    // entry (loop guard).
    let out = nodes[1].handle(
        0,
        env(
            ServerId(0).into(),
            ServerId(1),
            Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(4), direct: false, corr: CorrId(4) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(4)));
    assert!(matches!(out[0].msg, Message::PosQueryRes { found: None, .. }));

    // The same probe from a non-parent (e.g. the entry itself during a
    // cache-assisted flow) still climbs toward the root.
    let out = nodes[1].handle(
        0,
        env(
            ServerId(4).into(),
            ServerId(1),
            Message::PosQueryFwd { oid: ObjectId(42), entry: ServerId(4), direct: false, corr: CorrId(5) },
        ),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, Endpoint::Server(ServerId(0)));
    assert!(matches!(out[0].msg, Message::PosQueryFwd { .. }));
}

#[test]
fn client_addressed_messages_are_ignored_by_servers() {
    let mut nodes = servers();
    for msg in [
        Message::UpdateAck { oid: ObjectId(1), offered_acc_m: 1.0, time_us: 0 },
        Message::RegisterRes { agent: ServerId(1), offered_acc_m: 1.0, corr: CorrId(1) },
        Message::AgentChanged { oid: ObjectId(1), new_agent: ServerId(2), offered_acc_m: 1.0 },
        Message::PositionProbe { oid: ObjectId(1) },
    ] {
        let out = nodes[1].handle(0, env(ServerId(0).into(), ServerId(1), msg));
        assert!(out.is_empty(), "misrouted client message must be ignored");
    }
}

#[test]
fn late_handover_response_is_ignored() {
    let mut nodes = servers();
    let out = nodes[1].handle(
        0,
        env(
            ServerId(0).into(),
            ServerId(1),
            Message::HandoverRes {
                oid: ObjectId(1),
                new_agent: ServerId(2),
                offered_acc_m: 10.0,
                epoch: Hlc(1),
                corr: CorrId(999), // no pending entry
            },
        ),
    );
    assert!(out.is_empty());
}

#[test]
fn tick_times_out_stale_gathers_with_partial_answer() {
    let mut nodes = servers();
    let q = hiloc_core::model::RangeQuery::new(
        hiloc_geo::Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(999.0, 999.0))),
        50.0,
        0.5,
    );
    // Entry s1 scatters and parks a gather.
    let out = nodes[1].handle(
        0,
        env(client(), ServerId(1), Message::RangeQueryReq { query: q, corr: CorrId(5) }),
    );
    assert!(!out.is_empty());
    assert_eq!(nodes[1].pending_count(), 1);
    assert!(nodes[1].next_timer().is_some());

    // No sub-results ever arrive; the deadline passes.
    let deadline = nodes[1].next_timer().unwrap();
    let out = nodes[1].tick(deadline);
    assert_eq!(out.len(), 1);
    assert!(matches!(
        out[0].msg,
        Message::RangeQueryRes { complete: false, .. }
    ));
    assert_eq!(nodes[1].pending_count(), 0);
    assert_eq!(nodes[1].stats().gathers_timed_out, 1);
}

#[test]
fn remove_path_stops_at_newer_records() {
    let mut nodes = servers();
    nodes[0].handle(
        0,
        env(ServerId(1).into(), ServerId(0), Message::CreatePath { oid: ObjectId(8), epoch: Hlc(100) }),
    );
    // A stale removal (epoch 50) must neither remove nor forward.
    let out = nodes[0].handle(
        1,
        env(ServerId(1).into(), ServerId(0), Message::RemovePath { oid: ObjectId(8), epoch: Hlc(50) }),
    );
    assert!(out.is_empty());
    assert!(nodes[0].visitors().get(ObjectId(8)).is_some());
    // A current removal works.
    nodes[0].handle(
        2,
        env(ServerId(1).into(), ServerId(0), Message::RemovePath { oid: ObjectId(8), epoch: Hlc(100) }),
    );
    assert!(nodes[0].visitors().get(ObjectId(8)).is_none());
}
