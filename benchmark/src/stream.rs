//! The world (hierarchy, resident objects) and the per-generator
//! operation streams, all made from `--seed` before any timed window.
//!
//! The program under test receives only these inputs. A stream is a
//! plain vector; a generator that reaches its end starts over (moves
//! are displacements applied to the object's current position, so a
//! second pass keeps walking rather than jumping back).

use crate::catalog::{Workload, AREA_M, GENERATORS, MAX_SPEED_MPS, REQ_ACC_M, REQ_OVERLAP};
use crate::sut::{
    Hierarchy, HierarchyBuilder, Point, RangeQuery, Rect, Region, RngExt, SeedableRng, ServerId,
    StdRng, Zipf,
};

/// Leaves per side of the 4 × 4 leaf grid.
const GRID: usize = 4;
const LEAF_M: f64 = AREA_M / GRID as f64;
/// `Op::Move::obj` of the lifecycle object of `churn_durable`.
pub const FRESH: u32 = u32::MAX;

/// One leaf server and the area it is responsible for.
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    pub id: ServerId,
    pub rect: Rect,
}

/// The deployment-independent part of a run's inputs.
pub struct World {
    /// Leaves in row-major order of the 4 × 4 grid.
    pub leaves: Vec<Leaf>,
    /// Resident objects' registration positions; object `i` has
    /// `ObjectId(i + 1)` and belongs to generator `i % GENERATORS`.
    pub homes: Vec<Point>,
    /// The maximum speed every object declares at registration. A
    /// cached position ages by it, so it must exceed step ÷ (time
    /// between two updates of one object). A generator cycles through
    /// its half of the residents, so that time shrinks with the
    /// population: `MAX_SPEED_MPS` at the 200 000 of `city_mix`,
    /// proportionally more for fewer (the smoke runs).
    pub max_speed_mps: f64,
}

/// The hierarchy every workload deploys: 1 root, 4 mid, 16 leaves.
pub fn build_hierarchy() -> Hierarchy {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(AREA_M, AREA_M));
    HierarchyBuilder::grid(area, 2, 2)
        .build()
        .expect("grid hierarchy is valid")
}

/// The whole service area.
pub fn root_rect() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(AREA_M, AREA_M))
}

fn cell_of(p: Point) -> usize {
    let c = ((p.x / LEAF_M) as usize).min(GRID - 1);
    let r = ((p.y / LEAF_M) as usize).min(GRID - 1);
    r * GRID + c
}

impl World {
    pub fn new(seed: u64, population: usize) -> World {
        let h = build_hierarchy();
        let leaves: Vec<Leaf> = (0..GRID * GRID)
            .map(|cell| {
                let center = Point::new(
                    (cell % GRID) as f64 * LEAF_M + LEAF_M / 2.0,
                    (cell / GRID) as f64 * LEAF_M + LEAF_M / 2.0,
                );
                let id = h.leaf_for(center).expect("cell centre is inside the area");
                Leaf {
                    id,
                    rect: h.server(id).area,
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_6d65);
        // Two meters inside the leaf, so a reflected ≤ 5 m step of
        // `update_storm` always has room.
        let homes = (0..population)
            .map(|_| {
                let p = Point::new(rng.random_range(0.0..AREA_M), rng.random_range(0.0..AREA_M));
                let inner = leaves[cell_of(p)].rect.enlarged(-2.0);
                Point::new(
                    p.x.clamp(inner.min().x, inner.max().x),
                    p.y.clamp(inner.min().y, inner.max().y),
                )
            })
            .collect();
        let max_speed_mps = MAX_SPEED_MPS * (200_000.0 / population.max(1) as f64).max(1.0);
        World {
            leaves,
            homes,
            max_speed_mps,
        }
    }

    /// How long a freshly registered object must rest before its first
    /// move of `step_m` keeps the declared maximum speed true — what a
    /// cached position's ageing relies on.
    pub fn rest_after_registration(&self, step_m: f64) -> std::time::Duration {
        std::time::Duration::from_secs_f64(step_m / self.max_speed_mps)
    }

    /// The leaf responsible for `p`.
    pub fn leaf_of(&self, p: Point) -> Leaf {
        self.leaves[cell_of(p)]
    }

    /// The area of leaf server `id`.
    pub fn leaf_rect(&self, id: ServerId) -> Rect {
        self.leaves
            .iter()
            .find(|l| l.id == id)
            .expect("id names a leaf")
            .rect
    }
}

/// One operation. Objects are named by generator-local index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Report object `obj` (or the lifecycle object, [`FRESH`]) at its
    /// current position plus `(dx, dy)`.
    Move { obj: u32, dx: f32, dy: f32 },
    /// Position query for `obj` entered at leaf cell `entry`.
    Pos { obj: u32, entry: u8 },
    /// Range query `ranges[q]` entered at leaf cell `entry`.
    Range { q: u32, entry: u8 },
    /// Nearest-neighbor query at `nn_points[q]` entered at `entry`.
    Nn { q: u32, entry: u8 },
    /// Register the next fresh object at `(x, y)`.
    Register { x: f32, y: f32 },
    /// Deregister the lifecycle object (fire and forget).
    Deregister,
}

/// One generator's inputs.
pub struct Stream {
    /// Global indices of the resident objects this generator owns.
    pub objects: Vec<u32>,
    pub ops: Vec<Op>,
    pub ranges: Vec<RangeQuery>,
    pub nn_points: Vec<Point>,
}

fn step(rng: &mut StdRng, len: f64) -> (f32, f32) {
    let a = rng.random_range(0.0..std::f64::consts::TAU);
    ((len * a.cos()) as f32, (len * a.sin()) as f32)
}

fn square(center: Point, side: f64) -> RangeQuery {
    RangeQuery::new(
        Region::Rect(Rect::from_center_size(center, side, side)),
        REQ_ACC_M,
        REQ_OVERLAP,
    )
}

/// Where a move from `pos` by `(dx, dy)` lands: reflected when it would
/// leave `bounds`, unmoved when even the reflection would.
pub fn apply_move(pos: Point, dx: f32, dy: f32, bounds: &Rect) -> Point {
    let fwd = Point::new(pos.x + dx as f64, pos.y + dy as f64);
    if bounds.contains(fwd) {
        return fwd;
    }
    let back = Point::new(pos.x - dx as f64, pos.y - dy as f64);
    if bounds.contains(back) {
        back
    } else {
        pos
    }
}

impl Stream {
    /// Generator `g`'s stream of `workload` for `seed`.
    pub fn generate(world: &World, workload: Workload, seed: u64, g: usize, smoke: bool) -> Stream {
        let objects: Vec<u32> = (0..world.homes.len() as u32)
            .filter(|i| *i as usize % GENERATORS == g)
            .collect();
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9)
                .wrapping_add(workload as u64 * 97 + g as u64),
        );
        let mut s = Stream {
            objects,
            ops: Vec::new(),
            ranges: Vec::new(),
            nn_points: Vec::new(),
        };
        let scale = if smoke { 10 } else { 1 };
        match workload {
            Workload::UpdateStorm => s.gen_update_storm(&mut rng, 400_000 / scale),
            Workload::QueryMix => s.gen_query_mix(world, &mut rng, 60_000 / scale),
            Workload::CityMix => s.gen_city_mix(world, &mut rng, 300_000 / scale),
            Workload::ChurnDurable => s.gen_churn(&mut rng, 20_000 / scale),
        }
        s
    }

    /// A cyclic, shuffled order over this generator's objects: an
    /// object recurs only after all others, so it is never in flight
    /// twice and its declared maximum speed holds.
    fn cycle(&self, rng: &mut StdRng) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.objects.len() as u32).collect();
        rng.shuffle(&mut order);
        order
    }

    fn gen_update_storm(&mut self, rng: &mut StdRng, n: usize) {
        let order = self.cycle(rng);
        for i in 0..n {
            let len = rng.random_range(0.0..Workload::UpdateStorm.step_m());
            let (dx, dy) = step(rng, len);
            self.ops.push(Op::Move {
                obj: order[i % order.len()],
                dx,
                dy,
            });
        }
    }

    fn gen_query_mix(&mut self, world: &World, rng: &mut StdRng, n: usize) {
        let cells = GRID * GRID;
        for _ in 0..n {
            let u: f64 = rng.random();
            if u < 0.50 {
                let obj = rng.random_range(0..self.objects.len() as u32);
                let home_cell = cell_of(world.homes[self.objects[obj as usize] as usize]);
                let entry = if rng.random_bool(0.5) {
                    home_cell
                } else {
                    (home_cell + rng.random_range(1..cells)) % cells
                };
                self.ops.push(Op::Pos {
                    obj,
                    entry: entry as u8,
                });
            } else if u < 0.85 {
                // Squares of side 50/200/400 m placed to touch exactly
                // 1, 2 or 4 leaves (probe = square enlarged by reqAcc).
                let (center, touched) = match rng.random_range(0..3) {
                    0 => {
                        let cell = rng.random_range(0..cells);
                        let inner = world.leaves[cell].rect.enlarged(-(25.0 + REQ_ACC_M + 1.0));
                        let c = Point::new(
                            rng.random_range(inner.min().x..inner.max().x),
                            rng.random_range(inner.min().y..inner.max().y),
                        );
                        (c, vec![cell])
                    }
                    1 => {
                        // On an internal edge, clear of the corners.
                        let line = rng.random_range(1..GRID);
                        let along = rng.random_range(0..GRID);
                        let t = along as f64 * LEAF_M + rng.random_range(200.0..LEAF_M - 200.0);
                        let e = line as f64 * LEAF_M + rng.random_range(-50.0..50.0);
                        if rng.random_bool(0.5) {
                            (
                                Point::new(e, t),
                                vec![along * GRID + line - 1, along * GRID + line],
                            )
                        } else {
                            (
                                Point::new(t, e),
                                vec![(line - 1) * GRID + along, line * GRID + along],
                            )
                        }
                    }
                    _ => {
                        let (r, c) = (rng.random_range(1..GRID), rng.random_range(1..GRID));
                        let p = Point::new(
                            c as f64 * LEAF_M + rng.random_range(-100.0..100.0),
                            r as f64 * LEAF_M + rng.random_range(-100.0..100.0),
                        );
                        let t = vec![
                            (r - 1) * GRID + c - 1,
                            (r - 1) * GRID + c,
                            r * GRID + c - 1,
                            r * GRID + c,
                        ];
                        (p, t)
                    }
                };
                let side = [50.0, 200.0, 400.0][[1, 2, 4]
                    .iter()
                    .position(|n| *n == touched.len())
                    .expect("1, 2 or 4")];
                // Entered at a remote leaf: none of the touched ones.
                let entry = loop {
                    let e = rng.random_range(0..cells);
                    if !touched.contains(&e) {
                        break e;
                    }
                };
                self.ops.push(Op::Range {
                    q: self.ranges.len() as u32,
                    entry: entry as u8,
                });
                self.ranges.push(square(center, side));
            } else {
                // Entered at the leaf covering `p`: remote-entry NN is
                // the known exclusion (see README).
                let p = Point::new(rng.random_range(0.0..AREA_M), rng.random_range(0.0..AREA_M));
                self.ops.push(Op::Nn {
                    q: self.nn_points.len() as u32,
                    entry: cell_of(p) as u8,
                });
                self.nn_points.push(p);
            }
        }
    }

    fn gen_city_mix(&mut self, world: &World, rng: &mut StdRng, n: usize) {
        let order = self.cycle(rng);
        // Zipf rank → object / leaf through seeded permutations, so the
        // hot set is not the low object ids.
        let hot_obj = self.cycle(rng);
        let mut hot_leaf: Vec<usize> = (0..GRID * GRID).collect();
        rng.shuffle(&mut hot_leaf);
        let zipf_obj = Zipf::new(self.objects.len(), 0.9);
        let zipf_leaf = Zipf::new(GRID * GRID, 0.9);
        let mut next_move = 0usize;
        for _ in 0..n {
            if rng.random_bool(0.8) {
                let (dx, dy) = step(rng, Workload::CityMix.step_m());
                self.ops.push(Op::Move {
                    obj: order[next_move % order.len()],
                    dx,
                    dy,
                });
                next_move += 1;
                continue;
            }
            let obj = hot_obj[zipf_obj.sample(rng)];
            let home = world.homes[self.objects[obj as usize] as usize];
            match rng.random_range(0..5) {
                0..=2 => {
                    let entry = hot_leaf[zipf_leaf.sample(rng)];
                    self.ops.push(Op::Pos {
                        obj,
                        entry: entry as u8,
                    });
                }
                3 => {
                    let entry = hot_leaf[zipf_leaf.sample(rng)];
                    self.ops.push(Op::Range {
                        q: self.ranges.len() as u32,
                        entry: entry as u8,
                    });
                    self.ranges.push(square(home, 200.0));
                }
                _ => {
                    let p = Point::new(
                        (home.x + rng.random_range(-50.0..50.0)).clamp(0.0, AREA_M - 1e-3),
                        (home.y + rng.random_range(-50.0..50.0)).clamp(0.0, AREA_M - 1e-3),
                    );
                    self.ops.push(Op::Nn {
                        q: self.nn_points.len() as u32,
                        entry: cell_of(p) as u8,
                    });
                    self.nn_points.push(p);
                }
            }
        }
    }

    /// Lifecycles on fresh objects: register 20–40 m from an internal
    /// leaf edge, three ≤ 5 m updates, one update across the edge
    /// (handover), deregister.
    fn gen_churn(&mut self, rng: &mut StdRng, cycles: usize) {
        let bounds = root_rect();
        for _ in 0..cycles {
            let edge = rng.random_range(1..GRID) as f64 * LEAF_M;
            let along =
                rng.random_range(0..GRID) as f64 * LEAF_M + rng.random_range(50.0..LEAF_M - 50.0);
            let side = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            let vertical = rng.random_bool(0.5);
            let at = |across: f64| {
                if vertical {
                    Point::new(across, along)
                } else {
                    Point::new(along, across)
                }
            };
            let start = at(edge + side * rng.random_range(20.0..40.0));
            let (x, y) = (start.x as f32, start.y as f32);
            self.ops.push(Op::Register { x, y });
            let mut pos = Point::new(x as f64, y as f64);
            for _ in 0..3 {
                let len = rng.random_range(0.0..Workload::ChurnDurable.step_m());
                let (dx, dy) = step(rng, len);
                self.ops.push(Op::Move { obj: FRESH, dx, dy });
                pos = apply_move(pos, dx, dy, &bounds);
            }
            let across = if vertical { pos.x } else { pos.y };
            let jump = (-side * ((across - edge).abs() + rng.random_range(10.0..30.0))) as f32;
            let (dx, dy) = if vertical { (jump, 0.0) } else { (0.0, jump) };
            self.ops.push(Op::Move { obj: FRESH, dx, dy });
            self.ops.push(Op::Deregister);
        }
    }

    /// FNV-1a over everything the stream holds: equal seeds must give
    /// equal hashes, different seeds different ones.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for o in &self.objects {
            h.u64(*o as u64);
        }
        for op in &self.ops {
            match *op {
                Op::Move { obj, dx, dy } => {
                    h.u64(1 << 56 | obj as u64);
                    h.u64((dx.to_bits() as u64) << 32 | dy.to_bits() as u64);
                }
                Op::Pos { obj, entry } => h.u64(2 << 56 | (entry as u64) << 32 | obj as u64),
                Op::Range { q, entry } => h.u64(3 << 56 | (entry as u64) << 32 | q as u64),
                Op::Nn { q, entry } => h.u64(4 << 56 | (entry as u64) << 32 | q as u64),
                Op::Register { x, y } => {
                    h.u64(5 << 56 | (x.to_bits() as u64) << 24 | (y.to_bits() >> 8) as u64)
                }
                Op::Deregister => h.u64(6 << 56),
            }
        }
        for r in &self.ranges {
            let b = r.area.bounding_rect();
            for v in [b.min().x, b.min().y, b.max().x, b.max().y] {
                h.u64(v.to_bits());
            }
        }
        for p in &self.nn_points {
            h.u64(p.x.to_bits());
            h.u64(p.y.to_bits());
        }
        h.0
    }
}

/// FNV-1a, 64 bit, fed whole words.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let world = World::new(7, w.population(true));
            let a = Stream::generate(&world, w, 7, 0, true).hash();
            let b = Stream::generate(&World::new(7, w.population(true)), w, 7, 0, true).hash();
            assert_eq!(a, b, "{}", w.name());
            let other_gen = Stream::generate(&world, w, 7, 1, true).hash();
            assert_ne!(a, other_gen, "{}: generators share a stream", w.name());
            let world8 = World::new(8, w.population(true));
            assert_ne!(
                a,
                Stream::generate(&world8, w, 8, 0, true).hash(),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn homes_lie_inside_their_leaf_and_generators_split_them() {
        let world = World::new(3, 2_000);
        for &p in &world.homes {
            assert!(world.leaf_of(p).rect.enlarged(-1.9).contains(p));
        }
        let s0 = Stream::generate(&world, Workload::UpdateStorm, 3, 0, true);
        let s1 = Stream::generate(&world, Workload::UpdateStorm, 3, 1, true);
        assert_eq!(s0.objects.len() + s1.objects.len(), 2_000);
        assert!(s0.objects.iter().all(|o| !s1.objects.contains(o)));
    }

    #[test]
    fn storm_moves_stay_in_the_leaf_and_window_never_repeats_an_object() {
        let world = World::new(5, 2_000);
        let s = Stream::generate(&world, Workload::UpdateStorm, 5, 0, true);
        let mut pos: Vec<Point> = s.objects.iter().map(|o| world.homes[*o as usize]).collect();
        for (i, op) in s.ops.iter().enumerate() {
            let Op::Move { obj, dx, dy } = *op else {
                panic!("storm is all moves")
            };
            let leaf = world.leaf_of(pos[obj as usize]).rect;
            let next = apply_move(pos[obj as usize], dx, dy, &leaf.enlarged(-1.0));
            assert!(leaf.contains_half_open(next));
            assert!(next.distance(pos[obj as usize]) <= 5.0 + 1e-3);
            pos[obj as usize] = next;
            let window = &s.ops[i.saturating_sub(crate::catalog::STORM_WINDOW)..i];
            assert!(!window
                .iter()
                .any(|o| matches!(o, Op::Move { obj: other, .. } if *other == obj)));
        }
    }

    #[test]
    fn range_squares_touch_the_leaves_they_claim_and_enter_remotely() {
        let world = World::new(9, 2_000);
        let s = Stream::generate(&world, Workload::QueryMix, 9, 1, true);
        let mut seen = [0usize; 5];
        for op in &s.ops {
            let Op::Range { q, entry } = *op else {
                continue;
            };
            let query = &s.ranges[q as usize];
            let probe = query.area.bounding_rect().enlarged(query.req_acc_m);
            let touched: Vec<usize> = (0..16)
                .filter(|c| world.leaves[*c].rect.intersection_area(&probe) > 0.0)
                .collect();
            let side = query.area.bounding_rect().width();
            let want = if side < 100.0 {
                1
            } else if side < 300.0 {
                2
            } else {
                4
            };
            assert_eq!(touched.len(), want, "side {side}");
            assert!(!touched.contains(&(entry as usize)));
            seen[want] += 1;
        }
        assert!(seen[1] > 0 && seen[2] > 0 && seen[4] > 0);
    }

    #[test]
    fn churn_cycles_cross_exactly_one_leaf_edge() {
        let world = World::new(4, 2_000);
        let s = Stream::generate(&world, Workload::ChurnDurable, 4, 0, true);
        let mut pos = Point::new(0.0, 0.0);
        let mut crossings = 0;
        for op in &s.ops {
            match *op {
                Op::Register { x, y } => {
                    pos = Point::new(x as f64, y as f64);
                    crossings = 0;
                }
                Op::Move { obj, dx, dy } => {
                    assert_eq!(obj, FRESH);
                    let next = apply_move(pos, dx, dy, &root_rect());
                    if world.leaf_of(next).id != world.leaf_of(pos).id {
                        crossings += 1;
                    }
                    pos = next;
                }
                Op::Deregister => assert_eq!(crossings, 1),
                _ => panic!("unexpected op in churn"),
            }
        }
    }
}
