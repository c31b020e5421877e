//! Query-path robustness against duplicated and reordered sub-results.
//!
//! The simulated network (and real UDP) can deliver a leaf's range/NN
//! sub-result twice or out of order. The entry server's gathers must
//! converge regardless: `seen_leaves` must stop a duplicate delivery
//! from double-counting coverage, `dedup_items` must keep the first
//! occurrence of an object reported by two leaves (a handover race),
//! and a straggler arriving after the gather completed must not
//! produce a second answer. A gather that falls due answers partially
//! (an NN gather after escalating, too), a cache-direct range scatter
//! retries once through the hierarchy first, and gathers due in one
//! tick answer range before nearest-neighbour. These tests drive the
//! sans-IO state machine directly, delivering hand-crafted sub-result
//! envelopes.

use hiloc_core::area::HierarchyBuilder;
use hiloc_core::cache::CacheConfig;
use hiloc_core::model::{LocationDescriptor, ObjectId, RangeQuery};
use hiloc_core::node::{LocationServer, ServerOptions};
use hiloc_core::proto::Message;
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::{ClientId, CorrId, Endpoint, Envelope, ServerId};

/// Server `i` of a root over four 500 m leaves (ids 1–4 are the
/// quadrants below).
fn grid_server(i: usize, opts: ServerOptions) -> LocationServer {
    let h = HierarchyBuilder::grid(
        Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)),
        1,
        2,
    )
    .build()
    .unwrap();
    LocationServer::new(h.servers()[i].clone(), opts).unwrap()
}

fn root_server() -> LocationServer {
    grid_server(0, ServerOptions::default())
}

fn client() -> Endpoint {
    ClientId(42).into()
}

fn env(from: ServerId, msg: Message) -> Envelope<Message> {
    Envelope::new(from.into(), ServerId(0).into(), msg)
}

fn quadrant(i: u32) -> Rect {
    let (x0, y0) = match i {
        1 => (0.0, 0.0),
        2 => (500.0, 0.0),
        3 => (0.0, 500.0),
        _ => (500.0, 500.0),
    };
    Rect::new(Point::new(x0, y0), Point::new(x0 + 500.0, y0 + 500.0))
}

fn ld(x: f64, y: f64, acc: f64) -> LocationDescriptor {
    LocationDescriptor::new(Point::new(x, y), acc)
}

fn whole_area_query() -> RangeQuery {
    RangeQuery::new(
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0))),
        50.0,
        0.5,
    )
}

/// The root scatters a whole-area range query to all four leaves.
fn start_range_gather(root: &mut LocationServer, corr: CorrId) {
    let out = root.handle(
        0,
        Envelope::new(client(), ServerId(0).into(), Message::RangeQueryReq {
            query: whole_area_query(),
            corr,
        }),
    );
    let fwds: Vec<&Envelope<Message>> = out
        .iter()
        .filter(|e| matches!(e.msg, Message::RangeQueryFwd { .. }))
        .collect();
    assert_eq!(fwds.len(), 4, "whole-area probe scatters to all four leaves");
    assert_eq!(root.pending_count(), 1);
}

fn range_sub_res(leaf: u32, items: Vec<(ObjectId, LocationDescriptor)>, corr: CorrId) -> Message {
    let area = quadrant(leaf);
    // Covered area: probe ∩ leaf area = the full quadrant (250 000 m²).
    Message::RangeQuerySubRes {
        items,
        covered_area_m2: area.intersection_area(&Rect::new(
            Point::new(0.0, 0.0),
            Point::new(1_000.0, 1_000.0),
        )),
        leaf: ServerId(leaf),
        leaf_area: area,
        corr,
    }
}

/// Extracts the single final client answer from a batch of outputs.
fn final_range_answer(out: &[Envelope<Message>]) -> Option<(Vec<(ObjectId, LocationDescriptor)>, bool)> {
    let mut found = None;
    for e in out {
        if let Message::RangeQueryRes { items, complete, .. } = &e.msg {
            assert_eq!(e.to, client());
            assert!(found.is_none(), "more than one final answer emitted");
            found = Some((items.clone(), *complete));
        }
    }
    found
}

#[test]
fn duplicated_sub_result_is_counted_once() {
    let mut root = root_server();
    let corr = CorrId(900);
    start_range_gather(&mut root, corr);

    // Leaf 1's sub-result arrives TWICE (network duplication).
    let m = range_sub_res(1, vec![(ObjectId(10), ld(100.0, 100.0, 10.0))], corr);
    assert!(final_range_answer(&root.handle(0, env(ServerId(1), m.clone()))).is_none());
    assert!(final_range_answer(&root.handle(0, env(ServerId(1), m))).is_none());
    // Were the duplicate double-counted, coverage would now be
    // 500 000 m² of the 1 000 000 m² target from one leaf alone; the
    // gather must still be waiting for the other three leaves.
    assert_eq!(root.pending_count(), 1);

    for leaf in [2, 3] {
        let m = range_sub_res(leaf, vec![], corr);
        assert!(final_range_answer(&root.handle(0, env(ServerId(leaf), m))).is_none());
    }
    let m = range_sub_res(4, vec![(ObjectId(11), ld(900.0, 900.0, 10.0))], corr);
    let out = root.handle(0, env(ServerId(4), m));
    let (items, complete) = final_range_answer(&out).expect("gather completes on the 4th leaf");
    assert!(complete);
    let got: Vec<ObjectId> = items.iter().map(|(oid, _)| *oid).collect();
    assert_eq!(got, vec![ObjectId(10), ObjectId(11)], "duplicate delivery adds no duplicate item");
    assert_eq!(root.pending_count(), 0);
}

#[test]
fn reordered_sub_results_converge_to_the_same_answer() {
    // Deliver the leaves' answers in two different orders; the final
    // object set must be identical (dedup keeps first occurrences, and
    // completion triggers exactly when coverage closes).
    let answers = |order: [u32; 4]| {
        let mut root = root_server();
        let corr = CorrId(901);
        start_range_gather(&mut root, corr);
        let mut finals = Vec::new();
        for leaf in order {
            let items = vec![(ObjectId(u64::from(leaf)), ld(100.0, 100.0, 10.0))];
            let out = root.handle(0, env(ServerId(leaf), range_sub_res(leaf, items, corr)));
            if let Some((items, complete)) = final_range_answer(&out) {
                assert!(complete);
                finals.push(items);
            }
        }
        assert_eq!(finals.len(), 1, "exactly one final answer");
        let mut got: Vec<ObjectId> = finals[0].iter().map(|(oid, _)| *oid).collect();
        got.sort_unstable();
        got
    };
    assert_eq!(answers([1, 2, 3, 4]), answers([4, 2, 1, 3]));
}

#[test]
fn object_reported_by_two_leaves_keeps_first_descriptor() {
    // A handover race can leave the same object momentarily qualifying
    // at two leaves; the answer keeps the first-arrived descriptor.
    let mut root = root_server();
    let corr = CorrId(902);
    start_range_gather(&mut root, corr);

    let first = ld(450.0, 450.0, 10.0);
    let second = ld(550.0, 550.0, 20.0);
    root.handle(0, env(ServerId(1), range_sub_res(1, vec![(ObjectId(5), first)], corr)));
    root.handle(0, env(ServerId(2), range_sub_res(2, vec![], corr)));
    root.handle(0, env(ServerId(3), range_sub_res(3, vec![], corr)));
    let out =
        root.handle(0, env(ServerId(4), range_sub_res(4, vec![(ObjectId(5), second)], corr)));
    let (items, complete) = final_range_answer(&out).expect("complete");
    assert!(complete);
    assert_eq!(items, vec![(ObjectId(5), first)], "first occurrence wins, no duplicates");
}

#[test]
fn straggler_after_completion_produces_no_second_answer() {
    let mut root = root_server();
    let corr = CorrId(903);
    start_range_gather(&mut root, corr);
    for leaf in [1, 2, 3] {
        root.handle(0, env(ServerId(leaf), range_sub_res(leaf, vec![], corr)));
    }
    let out = root.handle(0, env(ServerId(4), range_sub_res(4, vec![], corr)));
    assert!(final_range_answer(&out).is_some());
    // A late duplicate of leaf 4's answer (or any other straggler)
    // finds no pending gather and must be ignored entirely.
    let out = root.handle(0, env(ServerId(4), range_sub_res(4, vec![], corr)));
    assert!(out.is_empty(), "straggler after completion: {out:?}");
}

// ------------------------------------------------------ NN gathering

fn nn_sub_res(leaf: u32, items: Vec<(ObjectId, LocationDescriptor)>, corr: CorrId) -> Message {
    let area = quadrant(leaf);
    let probe = Rect::from_center_size(Point::new(500.0, 500.0), 2.0 * 1_500.0, 2.0 * 1_500.0);
    Message::NeighborQuerySubRes {
        items,
        covered_area_m2: area.intersection_area(&probe),
        leaf: ServerId(leaf),
        leaf_area: area,
        corr,
    }
}

/// Starts an NN gather at the root with a ring that covers the whole
/// service area, returning the round correlation id the leaves answer.
fn start_nn_gather(root: &mut LocationServer, corr: CorrId) -> CorrId {
    let out = root.handle(
        0,
        Envelope::new(client(), ServerId(0).into(), Message::NeighborQueryReq {
            p: Point::new(500.0, 500.0),
            req_acc_m: 50.0,
            near_qual_m: 0.0,
            corr,
        }),
    );
    let mut round = None;
    let mut fwds = 0;
    for e in &out {
        if let Message::NeighborQueryFwd { radius_m, corr, .. } = e.msg {
            assert!(radius_m >= 1_000.0, "root-entry seed ring spans its area: {radius_m}");
            round = Some(corr);
            fwds += 1;
        }
    }
    assert_eq!(fwds, 4, "ring scatters to all four leaves");
    round.expect("scatter carries the round corr")
}

#[test]
fn nn_gather_converges_under_duplicate_and_reordered_sub_results() {
    let mut root = root_server();
    let client_corr = CorrId(910);
    let round = start_nn_gather(&mut root, client_corr);

    // Out-of-order delivery: leaves 4, 2 first; leaf 2's answer then
    // arrives AGAIN (duplicate); then 3 and 1 close the ring.
    let candidate = ld(480.0, 480.0, 10.0);
    let far = ld(20.0, 20.0, 10.0);
    assert!(root
        .handle(0, env(ServerId(4), nn_sub_res(4, vec![(ObjectId(2), far)], round)))
        .is_empty());
    let m2 = nn_sub_res(2, vec![(ObjectId(1), candidate)], round);
    assert!(root.handle(0, env(ServerId(2), m2.clone())).is_empty());
    assert!(root.handle(0, env(ServerId(2), m2)).is_empty(), "duplicate must not complete the ring");
    assert!(root.handle(0, env(ServerId(3), nn_sub_res(3, vec![], round))).is_empty());
    let out = root.handle(0, env(ServerId(1), nn_sub_res(1, vec![], round)));

    let mut answers = 0;
    for e in &out {
        if let Message::NeighborQueryRes { nearest, complete, corr, .. } = &e.msg {
            assert_eq!(e.to, client());
            assert_eq!(*corr, client_corr, "final answer echoes the client corr");
            assert!(complete);
            assert_eq!(nearest.expect("found").0, ObjectId(1), "nearest candidate wins");
            answers += 1;
        }
    }
    assert_eq!(answers, 1, "exactly one final NN answer: {out:?}");
    assert_eq!(root.pending_count(), 0);

    // Straggler after the ring closed: ignored.
    let out = root.handle(0, env(ServerId(4), nn_sub_res(4, vec![], round)));
    assert!(out.is_empty());
}

// ------------------------------------------------------ deadlines

/// A client request to server `to`.
fn request(to: u32, msg: Message) -> Envelope<Message> {
    Envelope::new(client(), ServerId(to).into(), msg)
}

/// A leaf's reply to the entry leaf 1.
fn to_leaf_1(from: u32, msg: Message) -> Envelope<Message> {
    Envelope::new(ServerId(from).into(), ServerId(1).into(), msg)
}

/// The `(to, corr)` of every forward in `out`, and the client answers
/// as `(is_nn, complete, corr)`.
type Fwds = Vec<(Endpoint, CorrId)>;
type Answers = Vec<(bool, bool, CorrId)>;

fn split(out: &[Envelope<Message>]) -> (Fwds, Answers) {
    let (mut fwds, mut answers) = (Vec::new(), Vec::new());
    for e in out {
        match &e.msg {
            Message::RangeQueryFwd { corr, .. } | Message::NeighborQueryFwd { corr, .. } => {
                fwds.push((e.to, *corr));
            }
            Message::RangeQueryRes { complete, corr, .. } => {
                assert_eq!(e.to, client());
                answers.push((false, *complete, *corr));
            }
            Message::NeighborQueryRes { complete, corr, .. } => {
                assert_eq!(e.to, client());
                answers.push((true, *complete, *corr));
            }
            _ => {}
        }
    }
    (fwds, answers)
}

#[test]
fn nn_gather_that_escalates_then_times_out_answers_partially_with_the_client_corr() {
    let mut leaf = grid_server(1, ServerOptions::default());
    assert_eq!(leaf.config().area, quadrant(1));
    let client_corr = CorrId(920);
    let p = Point::new(250.0, 250.0);
    let out = leaf.handle(0, request(1, Message::NeighborQueryReq {
        p,
        req_acc_m: 50.0,
        near_qual_m: 0.0,
        corr: client_corr,
    }));
    // No local candidate: the seed ring (the leaf's diagonal) escapes
    // the leaf, so it goes up to the parent under the client's corr.
    let radius = match out.as_slice() {
        [Envelope { to, msg: Message::NeighborQueryFwd { radius_m, corr, .. }, .. }] => {
            assert_eq!((*to, *corr), (ServerId(0).into(), client_corr));
            *radius_m
        }
        other => panic!("expected one forward to the parent: {other:?}"),
    };
    let ring = Rect::from_center_size(p, 2.0 * radius, 2.0 * radius);

    // The other three leaves find nothing in the ring (at t = 1 s): the
    // ring closes empty and escalates under a fresh round corr.
    let t1 = 1_000_000;
    let mut out = Vec::new();
    for l in [2, 3, 4] {
        let m = Message::NeighborQuerySubRes {
            items: vec![],
            covered_area_m2: quadrant(l).intersection_area(&ring),
            leaf: ServerId(l),
            leaf_area: quadrant(l),
            corr: client_corr,
        };
        out = leaf.handle(t1, to_leaf_1(l, m));
    }
    let (fwds, answers) = split(&out);
    assert!(answers.is_empty(), "an empty ring escalates instead of answering: {out:?}");
    assert_eq!(fwds.len(), 1, "the wider ring goes to the parent: {out:?}");
    assert_eq!(fwds[0].0, ServerId(0).into());
    assert_ne!(fwds[0].1, client_corr, "an escalation round is keyed by a fresh corr");
    assert_eq!(leaf.pending_count(), 1);

    // The escalated round's deadline counts from the escalation.
    let deadline = leaf.next_timer().expect("the escalated round is parked");
    assert_eq!(deadline, t1 + ServerOptions::default().query_timeout_us);
    assert!(split(&leaf.tick(deadline - 1)).1.is_empty());
    let out = leaf.tick(deadline);
    assert_eq!(split(&out), (vec![], vec![(true, false, client_corr)]), "{out:?}");
    assert_eq!(leaf.pending_count(), 0);
}

#[test]
fn cache_direct_range_scatter_that_times_out_rescatters_through_the_hierarchy_once() {
    let opts = ServerOptions {
        caches: CacheConfig { area_cache: true, ..CacheConfig::default() },
        ..ServerOptions::default()
    };
    let mut leaf = grid_server(1, opts);
    let parent: Endpoint = ServerId(0).into();

    // A first query goes through the hierarchy and teaches the area
    // cache the other three leaves.
    let first = Message::RangeQueryReq { query: whole_area_query(), corr: CorrId(930) };
    let out = leaf.handle(0, request(1, first));
    assert_eq!(split(&out).0, vec![(parent, CorrId(930))], "cold cache: scatter via the parent");
    let mut out = Vec::new();
    for l in [2, 3, 4] {
        out = leaf.handle(0, to_leaf_1(l, range_sub_res(l, vec![], CorrId(930))));
    }
    assert_eq!(split(&out).1, vec![(false, true, CorrId(930))]);

    // A second query scatters straight to the cached leaves ...
    let corr = CorrId(931);
    let out = leaf.handle(0, request(1, Message::RangeQueryReq { query: whole_area_query(), corr }));
    let direct: Vec<Endpoint> = split(&out).0.iter().map(|(to, _)| *to).collect();
    assert_eq!(direct, vec![ServerId(2).into(), ServerId(3).into(), ServerId(4).into()]);

    // ... and when they stay silent, the entry flushes the area cache and
    // re-scatters once through the hierarchy instead of answering.
    let retry_at = leaf.next_timer().expect("parked");
    let out = leaf.tick(retry_at);
    assert_eq!(split(&out), (vec![(parent, corr)], vec![]), "{out:?}");
    assert_eq!(leaf.pending_count(), 1);

    // A second timeout answers partially, without another retry.
    let give_up_at = leaf.next_timer().expect("re-parked");
    assert_eq!(give_up_at, retry_at + ServerOptions::default().query_timeout_us);
    let out = leaf.tick(give_up_at);
    assert_eq!(split(&out), (vec![], vec![(false, false, corr)]), "{out:?}");
    assert_eq!(leaf.pending_count(), 0);

    // The cache was flushed: the next query goes via the parent again.
    let third = Message::RangeQueryReq { query: whole_area_query(), corr: CorrId(932) };
    let out = leaf.handle(give_up_at, request(1, third));
    assert_eq!(split(&out).0, vec![(parent, CorrId(932))]);
}

#[test]
fn gathers_due_in_one_tick_answer_range_before_nn_in_corr_order() {
    let mut root = root_server();
    // Interleaved corrs: a single corr-ordered scan would answer NN 2
    // first; the answers come range first, each kind in corr order.
    for c in [5, 3] {
        let m = Message::RangeQueryReq { query: whole_area_query(), corr: CorrId(c) };
        let out = root.handle(0, request(0, m));
        assert_eq!(split(&out).0.len(), 4);
    }
    for c in [4, 2] {
        assert_eq!(start_nn_gather(&mut root, CorrId(c)), CorrId(c));
    }
    assert_eq!(root.pending_count(), 4);
    let deadline = root.next_timer().expect("four gathers parked");
    let (fwds, answers) = split(&root.tick(deadline));
    assert!(fwds.is_empty());
    assert_eq!(
        answers,
        vec![
            (false, false, CorrId(3)),
            (false, false, CorrId(5)),
            (true, false, CorrId(2)),
            (true, false, CorrId(4)),
        ]
    );
    assert_eq!(root.pending_count(), 0);
}
