//! Mixed workload — the paper's §8 evaluation agenda in one binary:
//! a moving fleet plus a generated query mix with locality, reporting
//! per-operation latency summaries and per-server load.
//!
//! ```sh
//! cargo run --release --example mixed_workload
//! ```

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::model::RangeQuery;
use hiloc::core::runtime::SimDeployment;
use hiloc::geo::{Point, Rect, Region};
use hiloc::sim::mobility::MobilityKind;
use hiloc::sim::{Fleet, FleetConfig, OpKind, QueryMix, Samples, WorkloadGen, WorkloadParams};

fn main() {
    // A 2 km x 2 km city with a 2-level hierarchy (21 servers).
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(2_000.0, 2_000.0));
    let hierarchy = HierarchyBuilder::grid(area, 2, 2).build().expect("valid hierarchy");
    let mut ls = SimDeployment::new(hierarchy, Default::default(), 2026);

    // 200 pedestrians.
    let fleet_cfg = FleetConfig {
        num_objects: 200,
        speed_mps: 1.4,
        mobility: MobilityKind::RandomWaypoint,
        ..Default::default()
    };
    let mut fleet = Fleet::register(fleet_cfg, &mut ls).expect("fleet registers");

    // A query-heavy application mix with 80% locality.
    let params = WorkloadParams {
        mix: QueryMix::query_heavy(),
        locality: 0.8,
        local_radius_m: 300.0,
        range_extent_m: 100.0,
        mean_interarrival_s: 0.05,
    };
    let mut gen = WorkloadGen::new(params, area, 7);

    let mut pos_lat = Samples::new();
    let mut range_lat = Samples::new();
    let mut nn_lat = Samples::new();
    let mut ops = 0u64;

    // Ten simulated minutes: one fleet step per second, queries per the
    // generated arrival process.
    for _second in 0..600 {
        fleet.step(&mut ls, 1.0);
        let mut budget = 1.0;
        loop {
            let gap = gen.next_interarrival_s();
            if gap > budget {
                break;
            }
            budget -= gap;
            ops += 1;
            // The querying client stands at a random spot; its leaf is
            // the entry server.
            let client_pos = gen.uniform_point();
            let entry = ls.leaf_for(client_pos);
            let t0 = ls.now_us();
            match gen.next_op() {
                OpKind::Update => { /* the fleet already reports */ }
                OpKind::PosQuery => {
                    let oid = gen.random_oid(fleet.len() as u64);
                    let _ = ls.pos_query(entry, oid);
                    pos_lat.record((ls.now_us() - t0) as f64 / 1e3);
                }
                OpKind::RangeQuery => {
                    let q = RangeQuery::new(
                        Region::from(gen.query_area(client_pos)),
                        100.0,
                        0.5,
                    );
                    let _ = ls.range_query(entry, q);
                    range_lat.record((ls.now_us() - t0) as f64 / 1e3);
                }
                OpKind::NeighborQuery => {
                    let p = gen.query_point(client_pos);
                    let _ = ls.neighbor_query(entry, p, 100.0, 50.0);
                    nn_lat.record((ls.now_us() - t0) as f64 / 1e3);
                }
            }
        }
    }

    println!("10 simulated minutes, {ops} client operations\n");
    println!("position queries:  {}", pos_lat.summary());
    println!("range queries:     {}", range_lat.summary());
    println!("neighbor queries:  {}", nn_lat.summary());

    let total = ls.total_stats();
    println!(
        "\nservice totals: {} updates applied, {} handovers, {} sub-results, {} messages",
        total.updates, total.handovers_completed, total.sub_results, total.msgs_in
    );
    println!("\nper-leaf sightings (load balance):");
    let leaves: Vec<_> = ls.hierarchy().leaves().map(|cfg| cfg.id).collect();
    for id in leaves {
        println!("  {}: {} objects", id, ls.server(id).map_or(0, |s| s.sighting_count()));
    }
}
