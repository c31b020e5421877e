//! Executing one operation against any [`Client`] and judging the
//! answer. The real runs and the inline traced replay share this code,
//! so both are held to the same oracle.

use crate::catalog::{
    Kind, Workload, DES_ACC_M, GENERATORS, MIN_ACC_M, NEAR_QUAL_M, REQ_ACC_M, SENSOR_ACC_M,
};
use crate::oracle;
use crate::stream::{apply_move, root_rect, Op, Stream, World, FRESH};
use crate::sut::{Client, ObjectId, Point, Rect, ServerId, Sighting, UpdateOutcome};

/// What the generator knows about one of its objects: the last
/// acknowledged position and the current agent.
#[derive(Debug, Clone, Copy)]
pub struct ObjState {
    pub oid: ObjectId,
    pub pos: Point,
    pub agent: ServerId,
}

/// Writes the service acknowledged, counted for the accounting check
/// against `ServerStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acked {
    pub updates: u64,
    pub handovers: u64,
    pub registrations: u64,
}

/// One generator's view of the run.
pub struct GenState<'a> {
    pub world: &'a World,
    pub workload: Workload,
    pub stream: &'a Stream,
    /// Expected-answer hash per operation (`query_mix` only).
    pub expected: &'a [u64],
    pub objs: Vec<ObjState>,
    /// Which generator this is: it owns the residents `i % GENERATORS == g`.
    g: usize,
    fresh: Option<ObjState>,
    next_fresh: u64,
    pub cursor: usize,
    pub acked: Acked,
    /// What the first few failed operations got instead of a legal
    /// answer, for the violation report.
    pub failure_notes: Vec<String>,
}

/// The ObjectId of resident object `global` (index into `World::homes`).
pub fn resident_oid(global: u32) -> ObjectId {
    ObjectId(global as u64 + 1)
}

impl<'a> GenState<'a> {
    /// State before set-up: every object at home, agent not yet known
    /// (filled in by registration).
    pub fn new(
        world: &'a World,
        workload: Workload,
        stream: &'a Stream,
        expected: &'a [u64],
        g: usize,
    ) -> GenState<'a> {
        let objs = stream
            .objects
            .iter()
            .map(|&i| {
                let pos = world.homes[i as usize];
                ObjState {
                    oid: resident_oid(i),
                    pos,
                    agent: world.leaf_of(pos).id,
                }
            })
            .collect();
        GenState {
            world,
            workload,
            stream,
            expected,
            objs,
            g,
            fresh: None,
            // Fresh ids sit far above the residents, apart per generator.
            next_fresh: 1_000_000_000 * (g as u64 + 1),
            cursor: 0,
            acked: Acked::default(),
            failure_notes: Vec::new(),
        }
    }

    /// The next operation's index, wrapping at the end of the stream.
    pub fn next_index(&mut self) -> usize {
        let i = self.cursor % self.stream.ops.len();
        self.cursor += 1;
        i
    }

    /// The area a move of `obj` is reflected at.
    fn bounds(&self, obj: &ObjState) -> Rect {
        match self.workload {
            // Never leaves the leaf: no handover, no forwarding.
            Workload::UpdateStorm => self.world.leaf_rect(obj.agent).enlarged(-1.0),
            _ => root_rect().enlarged(-1.0),
        }
    }

    /// The sighting a move produces and the object it moves.
    pub fn prepare_move(&self, obj: u32, dx: f32, dy: f32, now_us: u64) -> (ObjState, Sighting) {
        let o = if obj == FRESH {
            self.fresh
                .expect("a lifecycle moves only after its register")
        } else {
            self.objs[obj as usize]
        };
        let to = apply_move(o.pos, dx, dy, &self.bounds(&o));
        (o, Sighting::new(o.oid, now_us, to, SENSOR_ACC_M))
    }

    /// Judges the outcome of a move prepared by [`Self::prepare_move`]
    /// and, when legal, adopts it. Returns the kind it counts as.
    pub fn finish_move(
        &mut self,
        obj: u32,
        before: ObjState,
        to: Point,
        outcome: Option<UpdateOutcome>,
    ) -> (Kind, bool) {
        let stays = self.world.leaf_rect(before.agent).contains_half_open(to);
        let kind = if stays { Kind::Update } else { Kind::Handover };
        let agent = match outcome {
            Some(UpdateOutcome::Ack { offered_acc_m }) if stays && offered_acc_m == DES_ACC_M => {
                self.acked.updates += 1;
                before.agent
            }
            Some(UpdateOutcome::NewAgent {
                agent,
                offered_acc_m,
            }) if !stays && agent == self.world.leaf_of(to).id && offered_acc_m == DES_ACC_M => {
                self.acked.handovers += 1;
                agent
            }
            other => {
                self.note(format_args!(
                    "{} of {} to {to}: {other:?}",
                    kind.name(),
                    before.oid
                ));
                return (kind, false);
            }
        };
        let after = ObjState {
            pos: to,
            agent,
            ..before
        };
        if obj == FRESH {
            self.fresh = Some(after);
        } else {
            self.objs[obj as usize] = after;
        }
        (kind, true)
    }

    /// Runs operation `idx` of the stream to completion. `None` for the
    /// fire-and-forget deregistration, which has no answer to time.
    pub fn exec<C: Client>(&mut self, c: &mut C, idx: usize) -> Option<(Kind, bool)> {
        let leaf = |cell: u8| self.world.leaves[cell as usize].id;
        match self.stream.ops[idx] {
            Op::Move { obj, dx, dy } => {
                let (before, s) = self.prepare_move(obj, dx, dy, c.now_us());
                let outcome = c.update(before.agent, s).ok();
                Some(self.finish_move(obj, before, s.pos, outcome))
            }
            Op::Pos { obj, entry } => {
                let o = self.objs[obj as usize];
                let answer = c.pos_query(leaf(entry), o.oid);
                let ok = match &answer {
                    // Caches off: the agent's own record, exactly.
                    Ok(ld) if !self.workload.caches() => ld.pos == o.pos && ld.acc_m == DES_ACC_M,
                    // Caches on: possibly an aged cached descriptor, which
                    // must still cover where the object really is.
                    Ok(ld) => ld.acc_m >= DES_ACC_M && ld.pos.distance(o.pos) <= ld.acc_m + 1e-9,
                    Err(_) => false,
                };
                if !ok {
                    self.note(format_args!("pos of {} at {}: {answer:?}", o.oid, o.pos));
                }
                Some((Kind::Pos, ok))
            }
            Op::Range { q, entry } => {
                let ok = match c.range_query(leaf(entry), self.stream.ranges[q as usize].clone()) {
                    Ok(a) if !a.complete => false,
                    Ok(a) if self.workload == Workload::QueryMix => {
                        oracle::accuracies_ok(&a.objects)
                            && oracle::range_answer_hash(&a) == self.expected[idx]
                    }
                    // Others move concurrently: hold the answer to what
                    // this generator knows — its own objects' positions.
                    Ok(a) => a
                        .objects
                        .iter()
                        .all(|(oid, ld)| self.own_position_ok(*oid, ld.pos)),
                    Err(_) => false,
                };
                if !ok {
                    self.note(format_args!("range query {q} entered at cell {entry}"));
                }
                Some((Kind::Range, ok))
            }
            Op::Nn { q, entry } => {
                let p = self.stream.nn_points[q as usize];
                let ok = match c.neighbor_query(leaf(entry), p, REQ_ACC_M, NEAR_QUAL_M) {
                    Ok(a) if !a.complete => false,
                    Ok(a) if self.workload == Workload::QueryMix => {
                        oracle::accuracies_ok(&a.near_set)
                            && oracle::nn_answer_hash(&a) == self.expected[idx]
                    }
                    Ok(a) => match a.nearest {
                        Some((oid, ld)) => {
                            let d = ld.pos.distance(p);
                            self.own_position_ok(oid, ld.pos)
                                && a.near_set.iter().all(|(o, l)| {
                                    let dn = l.pos.distance(p);
                                    dn >= d
                                        && dn <= d + NEAR_QUAL_M
                                        && self.own_position_ok(*o, l.pos)
                                })
                        }
                        None => false,
                    },
                    Err(_) => false,
                };
                if !ok {
                    self.note(format_args!("nearest-neighbor query {q} at {p}"));
                }
                Some((Kind::Nn, ok))
            }
            Op::Register { x, y } => {
                let pos = Point::new(x as f64, y as f64);
                let oid = ObjectId(self.next_fresh);
                self.next_fresh += 1;
                let home = self.world.leaf_of(pos).id;
                let s = Sighting::new(oid, c.now_us(), pos, SENSOR_ACC_M);
                let ok = matches!(
                    c.register(home, s, DES_ACC_M, MIN_ACC_M, self.world.max_speed_mps),
                    Ok((agent, offered)) if agent == home && offered == DES_ACC_M
                );
                if ok {
                    self.acked.registrations += 1;
                    self.fresh = Some(ObjState {
                        oid,
                        pos,
                        agent: home,
                    });
                }
                if !ok {
                    self.note(format_args!("register of {oid} at {pos}"));
                }
                Some((Kind::Register, ok))
            }
            Op::Deregister => {
                if let Some(o) = self.fresh.take() {
                    c.deregister(o.agent, o.oid);
                }
                None
            }
        }
    }

    /// Keeps a description of the first few failures.
    fn note(&mut self, what: std::fmt::Arguments) {
        if self.failure_notes.len() < 5 {
            self.failure_notes.push(what.to_string());
        }
    }

    /// True unless `oid` is one of this generator's residents reported
    /// somewhere other than its last acknowledged position. (With one
    /// operation outstanding, none of its own updates is in flight.)
    fn own_position_ok(&self, oid: ObjectId, pos: Point) -> bool {
        let global = oid.0.wrapping_sub(1) as usize;
        if global >= self.world.homes.len() || global % GENERATORS != self.g {
            return true;
        }
        self.objs[global / GENERATORS].pos == pos
    }

    /// Registers this generator's residents through `c`, one at a time,
    /// entering at the responsible leaf. Returns how many failed.
    pub fn register_residents<C: Client>(&mut self, c: &mut C) -> u64 {
        let ok = register(c, &self.objs, self.world.max_speed_mps);
        self.acked.registrations += ok;
        self.objs.len() as u64 - ok
    }
}

/// Registers `objs` through `c`, one at a time, each entering at its
/// responsible leaf. Returns how many the service acknowledged as asked.
pub fn register<C: Client>(c: &mut C, objs: &[ObjState], max_speed_mps: f64) -> u64 {
    let mut ok = 0;
    for o in objs {
        let s = Sighting::new(o.oid, c.now_us(), o.pos, SENSOR_ACC_M);
        ok += matches!(
            c.register(o.agent, s, DES_ACC_M, MIN_ACC_M, max_speed_mps),
            Ok((agent, offered)) if agent == o.agent && offered == DES_ACC_M
        ) as u64;
    }
    ok
}
