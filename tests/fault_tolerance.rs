//! Fault tolerance under a lossy network: the protocol's soft-state,
//! client-retry philosophy (the paper runs over plain UDP) must make
//! progress despite dropped messages.

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::model::{LsError, ObjectId, RangeQuery, Sighting, SECOND};
use hiloc::core::node::ServerOptions;
use hiloc::core::runtime::{SimDeployment, UpdateOutcome};
use hiloc::geo::{Point, Rect, Region};
use hiloc::net::{FaultPlan, LatencyModel};

fn lossy_deployment(drop_prob: f64, seed: u64) -> SimDeployment {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let opts = ServerOptions { query_timeout_us: SECOND / 4, ..Default::default() };
    SimDeployment::with_network(
        h,
        opts,
        LatencyModel::default(),
        FaultPlan::uniform(drop_prob, 0.02),
        seed,
    )
}

/// Retries an operation until it succeeds, bounded.
fn retry<T>(mut op: impl FnMut() -> Result<T, LsError>, attempts: usize) -> T {
    let mut last = None;
    for _ in 0..attempts {
        match op() {
            Ok(v) => return v,
            Err(e) => last = Some(e),
        }
    }
    panic!("operation failed after {attempts} attempts: {last:?}");
}

#[test]
fn lifecycle_progresses_under_10_percent_loss() {
    let mut ls = lossy_deployment(0.10, 0x10);
    let p = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(p);

    // Registration with retries (idempotent: re-registering refreshes).
    let (agent, _) = retry(
        || ls.register(entry, Sighting::new(ObjectId(1), 0, p, 10.0), 25.0, 100.0),
        20,
    );

    // Updates with retries, including one that needs a handover. After
    // a `NewAgent` outcome the client re-sends to the new agent
    // (idempotent) until it gets a plain ack — this also exercises the
    // AgentLookup recovery path when AgentChanged notifications or
    // handover responses are lost.
    let far = Point::new(900.0, 900.0);
    let mut current_agent = agent;
    let mut settled = false;
    for _ in 0..60 {
        match ls.update(current_agent, Sighting::new(ObjectId(1), SECOND, far, 10.0)) {
            Ok(UpdateOutcome::Ack { .. }) => {
                settled = true;
                break;
            }
            Ok(UpdateOutcome::NewAgent { agent, .. }) => current_agent = agent,
            Ok(UpdateOutcome::OutOfServiceArea) => {
                // The service lost the registration (a CreatePath or
                // handover record fell to the lossy network): the
                // client re-registers, as the soft-state design
                // prescribes.
                let entry_far = ls.leaf_for(far);
                if ls
                    .register(entry_far, Sighting::new(ObjectId(1), SECOND, far, 10.0), 25.0, 100.0)
                    .is_ok()
                {
                    settled = true;
                    break;
                }
            }
            Err(_) => {}
        }
    }
    assert!(settled, "the object must converge onto a working agent");

    // Queries with retries from the far entry.
    let ld = retry(|| ls.pos_query(entry, ObjectId(1)), 30);
    assert_eq!(ld.pos, far);

    // Range queries: a partial (incomplete) answer is acceptable under
    // loss, but a *complete* one must eventually arrive.
    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(999.0, 999.0))),
        50.0,
        0.5,
    );
    let ans = retry(
        || {
            let a = ls.range_query(entry, q.clone())?;
            if a.complete {
                Ok(a)
            } else {
                Err(LsError::Timeout) // partial: retry for a full answer
            }
        },
        40,
    );
    assert_eq!(ans.objects.len(), 1);
}

#[test]
fn partial_range_results_are_flagged_not_fabricated() {
    // At substantial loss, gathers time out: the answer must carry
    // complete=false and only genuinely collected objects. (A 4-leaf
    // range query needs ~13 surviving messages, so 20% loss makes
    // partial answers common while complete ones stay reachable.)
    let mut ls = lossy_deployment(0.20, 0x22);
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    // Register a handful of objects (with retries).
    let mut registered = 0;
    for i in 0..8u64 {
        let p = Point::new(100.0 + 100.0 * i as f64, 500.0);
        let e = ls.leaf_for(p);
        for _ in 0..30 {
            if ls.register(e, Sighting::new(ObjectId(i), 0, p, 10.0), 25.0, 100.0).is_ok() {
                registered += 1;
                break;
            }
        }
    }
    assert!(registered >= 4, "some registrations must survive 45% loss");

    let q = RangeQuery::new(
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(999.0, 999.0))),
        50.0,
        0.5,
    );
    let mut saw_partial = false;
    let mut saw_complete = false;
    for _ in 0..80 {
        match ls.range_query(entry, q.clone()) {
            Ok(ans) if ans.complete => {
                assert_eq!(ans.objects.len(), registered, "complete answers must be complete");
                saw_complete = true;
            }
            Ok(ans) => {
                assert!(ans.objects.len() <= registered);
                saw_partial = true;
            }
            Err(LsError::Timeout) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        if saw_partial && saw_complete {
            break;
        }
    }
    assert!(saw_complete, "a complete answer must eventually get through");
}

#[test]
fn soft_state_cleans_up_after_lost_handover() {
    // If handover responses are lost, records may linger — but the
    // soft-state TTL bounds the inconsistency window.
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let opts = ServerOptions {
        sighting_ttl_us: 10 * SECOND,
        // Path soft state scaled down to match: keep-alives every 15 s,
        // unrefreshed forwarding records dropped after 40 s.
        path_refresh_us: 15 * SECOND,
        path_ttl_us: 40 * SECOND,
        query_timeout_us: SECOND / 4,
        ..Default::default()
    };
    let mut ls = SimDeployment::with_network(
        h,
        opts,
        LatencyModel::default(),
        FaultPlan::uniform(0.3, 0.0),
        0x33,
    );
    let p = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(p);
    let reg = (0..30).find_map(|_| {
        ls.register(entry, Sighting::new(ObjectId(1), 0, p, 10.0), 25.0, 100.0).ok()
    });
    assert!(reg.is_some());

    // Fire a few handover attempts into the lossy network; ignore
    // outcomes entirely.
    for i in 0..5u64 {
        let _ = ls.update(entry, Sighting::new(ObjectId(1), i * SECOND, Point::new(900.0, 900.0), 10.0));
    }
    // After several TTLs of silence every record is gone everywhere —
    // no zombie paths survive.
    ls.advance_time(120 * SECOND);
    for cfg in ls.hierarchy().servers() {
        assert!(
            ls.server(cfg.id).unwrap().visitors().get(ObjectId(1)).is_none(),
            "zombie record at {}",
            cfg.id
        );
    }
}
