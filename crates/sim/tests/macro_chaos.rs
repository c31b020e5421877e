//! Chaos-proving the macro-benchmark workload shape: the same
//! Zipf-skewed pos/range/NN mix the million-object bench drives
//! (`hiloc_bench::macro_bench`), scaled down to 10k objects on a
//! 2-level hierarchy, pushed through a leaf crash/restart and held to
//! the full scenario oracle. If the bench harness's query mix can
//! wedge a server or leak an object, this catches it in tier-1 — not
//! in a minutes-long release-mode bench run.

use hiloc_geo::Point;
use hiloc_sim::scenario::{FaultAction, ScenarioEvent, ScenarioSpec};
use hiloc_sim::Samples;

/// The scaled-down city: 10k objects over 16 leaves, macro query mix
/// every step, one leaf crashing mid-run and coming back.
fn city(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "macro-mix-leaf-crash".to_string(),
        seed,
        levels: 2,
        fanout: 2,
        num_objects: 10_000,
        steps: 8,
        step_dt_s: 2.0,
        durable: true,
        mid_chaos_queries: true,
        macro_mix: true,
        // At 10k objects a step spans virtual *minutes* (every blocking
        // op costs an RTT), so stretch the soft-state windows or the
        // crashed leaf's sightings expire before the scripted restart.
        time_scale: 4,
        ..Default::default()
    };
    let h = spec.hierarchy();
    // The Zipf leaf draw favors low server ids, so crash a hot corner
    // leaf: the mix keeps querying *into* the hole while it's down.
    let victim = h.leaf_for(Point::new(1.0, 1.0)).expect("in area");
    spec.events = vec![
        ScenarioEvent { at_step: 2, action: FaultAction::Crash(victim) },
        ScenarioEvent { at_step: 5, action: FaultAction::Restart(victim) },
    ];
    spec
}

#[test]
fn macro_mix_survives_leaf_crash_with_sane_stats() {
    let run = city(0xC17F).run().unwrap();

    // The oracle inside `run()` is the correctness verdict; on top of
    // it, nobody may be lost and the crash must have bitten.
    assert_eq!(run.alive, 10_000, "no object may be falsely deregistered");
    assert!(run.blackholed > 0, "the crash must actually blackhole traffic");
    assert!(
        run.trace.iter().any(|l| l.contains("macro step")),
        "the macro mix must have driven the queries: {:?}",
        run.trace.last()
    );

    // One latency sample per query round, and a summary that is
    // finite, positive and monotone across the percentile ladder even
    // though some rounds hit a dead leaf and timed out.
    assert_eq!(run.query_latency_us.len(), 8, "one sample per step");
    let mut samples = Samples::new();
    for us in &run.query_latency_us {
        samples.record(*us as f64);
    }
    let s = samples.summary();
    assert_eq!(s.count, 8);
    for v in [s.min, s.mean, s.p50, s.p90, s.p99, s.max] {
        assert!(v.is_finite() && v > 0.0, "stat must be a positive finite number: {s:?}");
    }
    assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max, "{s:?}");
    assert!(s.min <= s.mean && s.mean <= s.max, "{s:?}");
}
