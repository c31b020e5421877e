//! Property tests: the *distributed* service must agree with a local
//! brute-force evaluation of the paper's query semantics, for random
//! populations, random query parameters and random hierarchy shapes.
//! Runs on the in-tree seeded harness ([`hiloc_util::prop`]).

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::model::semantics::{qualifies_for_range, select_neighbors};
use hiloc::core::model::{LocationDescriptor, ObjectId, RangeQuery, Sighting};
use hiloc::core::runtime::SimDeployment;
use hiloc::geo::{Point, Rect, Region};
use hiloc_util::prop::{check, Gen};
use hiloc_util::rng::RngExt;

const AREA: f64 = 1_000.0;
const CASES: u32 = 24;

#[derive(Debug, Clone)]
struct Population {
    positions: Vec<(f64, f64)>,
}

fn population(g: &mut Gen) -> Population {
    let n = g.random_range(1..40usize);
    let positions = (0..n)
        .map(|_| {
            let x = g.random_range(1.0..AREA - 1.0);
            let y = g.random_range(1.0..AREA - 1.0);
            (x, y)
        })
        .collect();
    Population { positions }
}

fn hierarchy_shape(g: &mut Gen) -> (u32, u32) {
    *g.choose(&[(0, 2), (1, 2), (2, 2), (1, 3)]).expect("non-empty")
}

fn deploy(pop: &Population, shape: (u32, u32)) -> (SimDeployment, Vec<(ObjectId, LocationDescriptor)>) {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(AREA, AREA));
    let h = HierarchyBuilder::grid(area, shape.0, shape.1).build().unwrap();
    let mut ls = SimDeployment::new(h, Default::default(), 77);
    let mut oracle = Vec::new();
    for (i, &(x, y)) in pop.positions.iter().enumerate() {
        let p = Point::new(x, y);
        let entry = ls.leaf_for(p);
        let oid = ObjectId(i as u64);
        let (_, offered) =
            ls.register(entry, Sighting::new(oid, 0, p, 5.0), 25.0, 100.0).unwrap();
        oracle.push((oid, LocationDescriptor::new(p, offered)));
    }
    ls.run_until_quiet();
    (ls, oracle)
}

/// Distributed range queries return exactly the objects the semantics
/// predicate selects.
#[test]
fn distributed_range_query_matches_oracle() {
    check(CASES, |g| {
        let pop = population(g);
        let shape = hierarchy_shape(g);
        let cx = g.random_range(0.0..AREA);
        let cy = g.random_range(0.0..AREA);
        let extent = g.random_range(10.0..600.0);
        let req_acc = g.random_range(10.0..200.0);
        // reqOverlap ∈ (0, 1]: both ends of the leaf's center bound
        // (½ and 1) are drawn on purpose, beside the open interval.
        let req_overlap = match g.index(4) {
            0 => 0.5,
            1 => 1.0,
            _ => g.random_range(0.1..1.0),
        };
        let entry_x = g.random_range(1.0..AREA - 1.0);
        let entry_y = g.random_range(1.0..AREA - 1.0);

        let (mut ls, oracle) = deploy(&pop, shape);
        let region = Region::from(Rect::from_center_size(Point::new(cx, cy), extent, extent));
        let query = RangeQuery::new(region.clone(), req_acc, req_overlap);
        let entry = ls.leaf_for(Point::new(entry_x, entry_y));
        let ans = ls.range_query(entry, query).unwrap();
        assert!(ans.complete);

        let mut got: Vec<u64> = ans.objects.iter().map(|(o, _)| o.0).collect();
        got.sort();
        let mut expect: Vec<u64> = oracle
            .iter()
            .filter(|(_, ld)| qualifies_for_range(&region, ld, req_acc, req_overlap))
            .map(|(o, _)| o.0)
            .collect();
        expect.sort();
        assert_eq!(got, expect);
    });
}

/// Distributed nearest-neighbor queries select the same object and
/// near set as the local semantics.
#[test]
fn distributed_nn_query_matches_oracle() {
    check(CASES, |g| {
        let pop = population(g);
        let shape = hierarchy_shape(g);
        let px = g.random_range(0.0..AREA);
        let py = g.random_range(0.0..AREA);
        let req_acc = g.random_range(10.0..200.0);
        let near_qual = g.random_range(0.0..300.0);
        let entry_x = g.random_range(1.0..AREA - 1.0);
        let entry_y = g.random_range(1.0..AREA - 1.0);

        let (mut ls, oracle) = deploy(&pop, shape);
        let p = Point::new(px, py);
        let entry = ls.leaf_for(Point::new(entry_x, entry_y));
        let ans = ls.neighbor_query(entry, p, req_acc, near_qual).unwrap();
        assert!(ans.complete);

        let (expect_nearest, expect_near) = select_neighbors(p, &oracle, req_acc, near_qual);
        assert_eq!(
            ans.nearest.map(|(o, _)| o),
            expect_nearest.map(|(o, _)| o),
            "nearest mismatch"
        );
        let mut got_near: Vec<u64> = ans.near_set.iter().map(|(o, _)| o.0).collect();
        got_near.sort();
        let mut want_near: Vec<u64> = expect_near.iter().map(|(o, _)| o.0).collect();
        want_near.sort();
        assert_eq!(got_near, want_near, "near-set mismatch");
    });
}

/// Position queries from arbitrary entries return the registered
/// descriptor for every object.
#[test]
fn distributed_pos_query_matches_oracle() {
    check(CASES, |g| {
        let pop = population(g);
        let shape = hierarchy_shape(g);
        let entry_x = g.random_range(1.0..AREA - 1.0);
        let entry_y = g.random_range(1.0..AREA - 1.0);

        let (mut ls, oracle) = deploy(&pop, shape);
        let entry = ls.leaf_for(Point::new(entry_x, entry_y));
        for (oid, ld) in &oracle {
            let got = ls.pos_query(entry, *oid).unwrap();
            assert_eq!(got.pos, ld.pos);
            assert_eq!(got.acc_m, ld.acc_m);
        }
    });
}
