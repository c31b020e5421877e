//! Conformance suite: every index must agree with the naive oracle under
//! randomized workloads of inserts, moves, removes and queries.

use hiloc_geo::{Point, Rect};
use hiloc_spatial::{Entry, GridIndex, NaiveIndex, PointQuadtree, RTree, SpatialIndex};
use hiloc_util::prop::{check, Gen};
use hiloc_util::rng::RngExt;

/// A step in a randomized index workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, f64, f64),
    /// The hot-path entry point: absolute-position move (teleport).
    Update(u64, f64, f64),
    /// A *local* move: the key's current position nudged by a small
    /// delta, which is what drives the in-place fast paths.
    Nudge(u64, f64, f64),
    Remove(u64),
    QueryRect(f64, f64, f64, f64),
    Nearest(f64, f64),
    NearestFiltered(f64, f64, u64),
}

/// Where a workload's inserts land: uniformly at random, in order along
/// one line (each insert a step beyond the last), or all at one point.
/// On the last two a point quadtree grows as deep as its entry count.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Uniform,
    Line { next: f64 },
    Point,
}

impl Shape {
    fn random(g: &mut Gen) -> Self {
        match g.random_range(0..3u32) {
            0 => Shape::Uniform,
            1 => Shape::Line { next: -90.0 },
            _ => Shape::Point,
        }
    }

    fn place(&mut self, g: &mut Gen) -> (f64, f64) {
        match self {
            Shape::Uniform => (coord(g), coord(g)),
            Shape::Line { next } => {
                *next += 0.75;
                (*next, *next * 0.5)
            }
            Shape::Point => (7.0, -3.0),
        }
    }

    /// A query's corner or centre: on the one-point shape half of them
    /// sit exactly on the point, which is also a cell midpoint.
    fn probe(&self, g: &mut Gen) -> (f64, f64) {
        match self {
            Shape::Point if g.chance(0.5) => (7.0, -3.0),
            _ => (coord(g), coord(g)),
        }
    }
}

fn coord(g: &mut Gen) -> f64 {
    g.random_range(-100.0..100.0)
}

/// 4 insert, 2 update, 2 nudge, 2 remove, 3 rect query, 2 nearest,
/// 2 filtered nearest.
fn random_op(g: &mut Gen, shape: &mut Shape) -> Op {
    match g.random_range(0..17u32) {
        0..=3 => {
            let k = g.random_range(0..40u64);
            let (x, y) = shape.place(g);
            Op::Insert(k, x, y)
        }
        13..=14 => {
            let k = g.random_range(0..40u64);
            let x = coord(g);
            let y = coord(g);
            Op::Update(k, x, y)
        }
        15..=16 => {
            let k = g.random_range(0..40u64);
            let dx = g.random_range(-3.0..3.0);
            let dy = g.random_range(-3.0..3.0);
            Op::Nudge(k, dx, dy)
        }
        4..=5 => Op::Remove(g.random_range(0..40u64)),
        6..=8 => {
            let (a, b) = shape.probe(g);
            let (c, d) = shape.probe(g);
            Op::QueryRect(a, b, c, d)
        }
        9..=10 => {
            let (x, y) = shape.probe(g);
            Op::Nearest(x, y)
        }
        _ => {
            let (x, y) = shape.probe(g);
            let k = g.random_range(0..40u64);
            Op::NearestFiltered(x, y, k)
        }
    }
}

fn random_ops(g: &mut Gen, max_len: usize) -> Vec<Op> {
    let mut shape = Shape::random(g);
    // The line and the point open with a burst of inserts in key order,
    // up to twice the keys the later ops touch, so buckets overflow.
    let burst = match shape {
        Shape::Uniform => 0,
        _ => g.random_range(0..80u64),
    };
    let mut ops: Vec<Op> = (0..burst)
        .map(|k| {
            let (x, y) = shape.place(g);
            Op::Insert(k, x, y)
        })
        .collect();
    let n = g.random_range(1..max_len);
    ops.extend((0..n).map(|_| random_op(g, &mut shape)));
    ops
}

fn sorted_keys(mut v: Vec<u64>) -> Vec<u64> {
    v.sort();
    v
}

fn collect_rect(idx: &dyn SpatialIndex, rect: &Rect) -> Vec<u64> {
    let mut out = Vec::new();
    idx.query_rect(rect, &mut |e: Entry| out.push(e.key));
    sorted_keys(out)
}

fn run_workload(ops: &[Op], mut subject: Box<dyn SpatialIndex>, name: &str) {
    let mut oracle = NaiveIndex::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, x, y) => {
                let p = Point::new(x, y);
                let a = subject.insert(k, p);
                let b = oracle.insert(k, p);
                assert_eq!(a, b, "[{name}] step {step}: insert return mismatch");
            }
            Op::Update(k, x, y) => {
                let p = Point::new(x, y);
                let a = subject.update(k, p);
                let b = oracle.insert(k, p);
                assert_eq!(a, b, "[{name}] step {step}: update return mismatch");
            }
            Op::Nudge(k, dx, dy) => {
                // Nudging the current position keeps most moves inside
                // their cell/region/MBR, exercising the in-place paths.
                let Some(cur) = oracle.get(k) else { continue };
                let p = Point::new(cur.x + dx, cur.y + dy);
                let a = subject.update(k, p);
                let b = oracle.insert(k, p);
                assert_eq!(a, b, "[{name}] step {step}: nudge return mismatch");
            }
            Op::Remove(k) => {
                let a = subject.remove(k);
                let b = oracle.remove(k);
                assert_eq!(a, b, "[{name}] step {step}: remove return mismatch");
            }
            Op::QueryRect(ax, ay, bx, by) => {
                let r = Rect::new(Point::new(ax, ay), Point::new(bx, by));
                assert_eq!(
                    collect_rect(subject.as_ref(), &r),
                    collect_rect(&oracle, &r),
                    "[{name}] step {step}: rect query mismatch on {r}"
                );
            }
            Op::Nearest(x, y) => {
                let p = Point::new(x, y);
                let a = subject.nearest(p);
                let b = oracle.nearest(p);
                match (a, b) {
                    (None, None) => {}
                    (Some((ea, da)), Some((eb, db))) => {
                        assert_eq!(ea.key, eb.key, "[{name}] step {step}: nearest key mismatch");
                        assert!((da - db).abs() < 1e-9);
                    }
                    other => panic!("[{name}] step {step}: nearest presence mismatch {other:?}"),
                }
            }
            Op::NearestFiltered(x, y, excluded) => {
                let p = Point::new(x, y);
                let a = subject.nearest_where(p, &mut |k| k != excluded);
                let b = oracle.nearest_where(p, &mut |k| k != excluded);
                assert_eq!(
                    a.map(|(e, _)| e.key),
                    b.map(|(e, _)| e.key),
                    "[{name}] step {step}: filtered nearest mismatch"
                );
            }
        }
        assert_eq!(subject.len(), oracle.len(), "[{name}] step {step}: len mismatch");
    }
}

const CASES: u32 = 64;

#[test]
fn quadtree_matches_oracle() {
    check(CASES, |g| {
        let ops = random_ops(g, 120);
        run_workload(&ops, Box::new(PointQuadtree::new()), "quadtree");
    });
}

#[test]
fn rtree_matches_oracle() {
    check(CASES, |g| {
        let ops = random_ops(g, 120);
        run_workload(&ops, Box::new(RTree::new()), "rtree");
    });
}

#[test]
fn grid_matches_oracle() {
    check(CASES, |g| {
        let ops = random_ops(g, 120);
        run_workload(&ops, Box::new(GridIndex::new(25.0)), "grid");
    });
}

#[test]
fn grid_tiny_cells_matches_oracle() {
    check(CASES, |g| {
        let ops = random_ops(g, 80);
        run_workload(&ops, Box::new(GridIndex::new(3.0)), "grid-tiny");
    });
}

/// An entry at a NaN position is at a NaN distance from every probe,
/// which ranks last, as +∞: it never beats a real candidate, whatever
/// its key and whichever entry the index visits first.
#[test]
fn a_nan_position_ranks_after_every_real_distance() {
    let indexes: [fn() -> Box<dyn SpatialIndex>; 4] = [
        || Box::new(NaiveIndex::new()),
        || Box::new(PointQuadtree::new()),
        || Box::new(RTree::new()),
        || Box::new(GridIndex::new(25.0)),
    ];
    let nan = Point::new(f64::NAN, 1.0);
    let near = Point::new(7.0, 7.0);
    for (i, make) in indexes.into_iter().enumerate() {
        for nan_first in [true, false] {
            let mut idx = make();
            if nan_first {
                idx.insert(2, nan);
            }
            idx.insert(3, near);
            if !nan_first {
                idx.insert(2, nan);
            }
            let (best, d) = idx.nearest(Point::new(6.0, 6.0)).expect("two entries");
            assert_eq!(best.key, 3, "index {i}, NaN inserted first: {nan_first}");
            assert!((d - 2f64.sqrt()).abs() < 1e-12, "index {i}: distance {d}");
            let second = idx.nearest_where(Point::new(6.0, 6.0), &mut |k| k != 3);
            let second = second.map(|(e, _)| e.key);
            assert_eq!(second, Some(2), "index {i}, NaN inserted first: {nan_first}");
        }
    }
}

/// Deterministic bulk test at a scale proptest cases do not reach:
/// mirrors the paper's Table 1 population (uniform random objects), then
/// cross-checks a batch of queries on all three indexes.
#[test]
fn bulk_uniform_population_cross_check() {
    use hiloc_util::rng::StdRng;
    use hiloc_util::rng::{RngExt, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x1eca7);
    let mut quad = PointQuadtree::new();
    let mut rtree = RTree::new();
    let mut grid = GridIndex::new(500.0);
    let mut oracle = NaiveIndex::new();

    // 5 000 objects over a 10 km x 10 km area, with 20% later moved and
    // 10% removed — a miniature of the paper's data-storage workload.
    for k in 0..5_000u64 {
        let p = Point::new(rng.random_range(0.0..10_000.0), rng.random_range(0.0..10_000.0));
        for idx in [
            &mut quad as &mut dyn SpatialIndex,
            &mut rtree,
            &mut grid,
            &mut oracle,
        ] {
            idx.insert(k, p);
        }
    }
    for k in 0..1_000u64 {
        let p = Point::new(rng.random_range(0.0..10_000.0), rng.random_range(0.0..10_000.0));
        for idx in [
            &mut quad as &mut dyn SpatialIndex,
            &mut rtree,
            &mut grid,
            &mut oracle,
        ] {
            idx.insert(k * 5, p);
        }
    }
    for k in 0..500u64 {
        for idx in [
            &mut quad as &mut dyn SpatialIndex,
            &mut rtree,
            &mut grid,
            &mut oracle,
        ] {
            idx.remove(k * 10 + 1);
        }
    }

    for _ in 0..50 {
        let cx = rng.random_range(0.0..10_000.0);
        let cy = rng.random_range(0.0..10_000.0);
        let half = rng.random_range(5.0..800.0);
        let r = Rect::from_center_size(Point::new(cx, cy), half * 2.0, half * 2.0);
        let expect = collect_rect(&oracle, &r);
        assert_eq!(collect_rect(&quad, &r), expect, "quadtree rect");
        assert_eq!(collect_rect(&rtree, &r), expect, "rtree rect");
        assert_eq!(collect_rect(&grid, &r), expect, "grid rect");

        let p = Point::new(cx, cy);
        let expect_nn = oracle.nearest(p).map(|(e, _)| e.key);
        assert_eq!(quad.nearest(p).map(|(e, _)| e.key), expect_nn, "quadtree nn");
        assert_eq!(rtree.nearest(p).map(|(e, _)| e.key), expect_nn, "rtree nn");
        assert_eq!(grid.nearest(p).map(|(e, _)| e.key), expect_nn, "grid nn");
    }
}

/// The quadtree ranks an entry before asking the filter about it, so a
/// nearest search at a leaf's population (12 500 uniform objects over
/// 2 km × 2 km) consults its filter — a visitor probe in the server —
/// only about as often as the best candidate improves. Filtered results
/// still match the oracle.
#[test]
fn quadtree_nearest_calls_the_filter_only_on_improvements() {
    use hiloc_util::rng::StdRng;
    use hiloc_util::rng::{RngExt, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x7e57);
    let mut quad = PointQuadtree::new();
    let mut oracle = NaiveIndex::new();
    for k in 0..12_500u64 {
        let p = Point::new(rng.random_range(0.0..2_000.0), rng.random_range(0.0..2_000.0));
        quad.insert(k, p);
        oracle.insert(k, p);
    }
    const QUERIES: usize = 400;
    let mut calls = 0usize;
    for _ in 0..QUERIES {
        let p = Point::new(rng.random_range(0.0..2_000.0), rng.random_range(0.0..2_000.0));
        let got = quad.nearest_where(p, &mut |_| {
            calls += 1;
            true
        });
        assert_eq!(got.map(|(e, _)| e.key), oracle.nearest(p).map(|(e, _)| e.key));
        let accept = |k: u64| !k.is_multiple_of(3);
        assert_eq!(
            quad.nearest_where(p, &mut |k| accept(k)).map(|(e, _)| e.key),
            oracle.nearest_where(p, &mut |k| accept(k)).map(|(e, _)| e.key),
            "filtered nearest at {p}"
        );
    }
    let per_query = calls as f64 / QUERIES as f64;
    assert!(per_query <= 10.0, "{per_query:.1} filter calls per nearest search");
}
