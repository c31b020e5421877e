//! A fleet of tracked objects driving a deployment — the simulator or,
//! through the same [`Harness`], a real runtime.

use crate::harness::Harness;
use crate::mobility::{MobilityKind, MobilityModel};
use hiloc_core::model::{
    LastReport, LsError, Micros, ObjectId, Sighting, UpdateDecision, UpdatePolicy, SECOND,
};
use hiloc_core::proto::Message;
use hiloc_core::runtime::UpdateOutcome;
use hiloc_geo::Point;
use hiloc_net::ServerId;
use hiloc_util::rng::StdRng;
use hiloc_util::rng::{RngExt, SeedableRng};

/// Configuration of a tracked-object fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of tracked objects.
    pub num_objects: u64,
    /// Nominal object speed (m/s). The paper's capacity estimate uses
    /// 3 km/h ≈ 0.83 m/s pedestrians.
    pub speed_mps: f64,
    /// Sensor accuracy attached to sightings.
    pub acc_sens_m: f64,
    /// Desired accuracy at registration.
    pub des_acc_m: f64,
    /// Minimal acceptable accuracy at registration.
    pub min_acc_m: f64,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// Update-reporting policy.
    pub policy: UpdatePolicy,
    /// RNG seed (placement + per-object models).
    pub seed: u64,
    /// First object id: objects get ids `first_oid..first_oid +
    /// num_objects`. Lets several fleets (e.g. one per mobility model
    /// in the macro benchmark) share one deployment without id
    /// collisions.
    pub first_oid: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            num_objects: 100,
            speed_mps: 0.83, // 3 km/h, the paper's pedestrian estimate
            acc_sens_m: 10.0,
            des_acc_m: 25.0,
            min_acc_m: 100.0,
            mobility: MobilityKind::RandomWaypoint,
            policy: UpdatePolicy::Distance { threshold_m: 15.0 },
            seed: 0,
            first_oid: 0,
        }
    }
}

struct FleetObject {
    oid: ObjectId,
    model: Box<dyn MobilityModel>,
    agent: ServerId,
    last_report: LastReport,
    /// Velocity estimate from the most recent step (for dead
    /// reckoning).
    velocity_mps: Point,
    offered_acc_m: f64,
    alive: bool,
}

/// Statistics of one [`Fleet::step`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Objects whose position changed.
    pub moved: u64,
    /// Updates actually transmitted (per the update policy).
    pub updates_sent: u64,
    /// Updates acknowledged in place.
    pub acks: u64,
    /// Updates that triggered a handover.
    pub handovers: u64,
    /// Objects deregistered (left the service area).
    pub deregistered: u64,
    /// Updates that got no response (lost messages / crashed agent);
    /// the object retries on its next report.
    pub lost: u64,
}

/// Statistics of one [`Fleet::process_inbox`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboxStats {
    /// `AgentChanged` notifications applied (agent pointer fixed).
    pub agent_changes: u64,
    /// `PositionProbe`s answered with a fresh update (the client half
    /// of the paper's §5 restore-on-demand restart path).
    pub probes_answered: u64,
    /// `NotifyAvailAcc` accuracy notifications applied.
    pub acc_notifications: u64,
    /// Other (stale or duplicate) messages discarded.
    pub stray: u64,
}

/// Registers `oid` at `pos` (which the mobility models keep inside the
/// service area) under `cfg`'s accuracy contract; `(agent, offered_acc)`.
fn enroll<H: Harness>(
    cfg: &FleetConfig,
    ls: &mut H,
    oid: ObjectId,
    pos: Point,
    now: Micros,
) -> Result<(ServerId, f64), LsError> {
    let entry = ls.hierarchy().leaf_for(pos).expect("position outside the service area");
    let sighting = Sighting::new(oid, now, pos, cfg.acc_sens_m);
    ls.register(entry, sighting, cfg.des_acc_m, cfg.min_acc_m, cfg.speed_mps)
}

/// How a [`Fleet`] transmit attempt ended.
enum TransmitResult {
    /// Acked by the (unchanged) agent.
    Acked,
    /// One or more handovers occurred; the final agent acked.
    HandedOver,
    /// The object left the service area and was deregistered.
    Deregistered,
    /// No response (message loss, crashed server, or too many
    /// redirects); the sighting was not confirmed.
    Lost,
}

/// A population of tracked objects moving inside a deployment (any
/// [`Harness`]): registers them, advances their mobility models and
/// transmits updates per the configured policy.
///
/// # Example
///
/// ```
/// use hiloc_core::area::HierarchyBuilder;
/// use hiloc_core::runtime::SimDeployment;
/// use hiloc_sim::{Fleet, FleetConfig};
/// use hiloc_geo::{Point, Rect};
///
/// let h = HierarchyBuilder::grid(
///     Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0)), 1, 2,
/// ).build().unwrap();
/// let mut ls = SimDeployment::new(h, Default::default(), 1);
/// let cfg = FleetConfig { num_objects: 20, ..Default::default() };
/// let mut fleet = Fleet::register(cfg, &mut ls).unwrap();
/// let stats = fleet.step(&mut ls, 10.0);
/// assert_eq!(stats.moved, 20);
/// ```
pub struct Fleet {
    cfg: FleetConfig,
    objects: Vec<FleetObject>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("objects", &self.objects.len())
            .field("alive", &self.alive_count())
            .finish()
    }
}

impl Fleet {
    /// Registers `cfg.num_objects` objects at uniformly random
    /// positions.
    ///
    /// # Errors
    ///
    /// Propagates the first registration failure.
    pub fn register<H: Harness>(cfg: FleetConfig, ls: &mut H) -> Result<Self, LsError> {
        let area = ls.hierarchy().root_area();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut objects = Vec::with_capacity(cfg.num_objects as usize);
        let now = ls.now_us();
        for i in 0..cfg.num_objects {
            let start = Point::new(
                rng.random_range(area.min().x..area.max().x - 1e-3),
                rng.random_range(area.min().y..area.max().y - 1e-3),
            );
            let model = cfg.mobility.build(area, start, cfg.speed_mps, cfg.seed ^ (i + 1));
            let oid = ObjectId(cfg.first_oid + i);
            let (agent, offered) = enroll(&cfg, ls, oid, start, now)?;
            objects.push(FleetObject {
                oid,
                model,
                agent,
                last_report: LastReport { pos: start, time_us: now, velocity_mps: Point::ORIGIN },
                velocity_mps: Point::ORIGIN,
                offered_acc_m: offered,
                alive: true,
            });
        }
        Ok(Fleet { cfg, objects })
    }

    /// Number of objects (including deregistered ones).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the fleet has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Number of objects still registered.
    pub fn alive_count(&self) -> usize {
        self.objects.iter().filter(|o| o.alive).count()
    }

    /// Current true position of object `i`.
    pub fn position(&self, i: usize) -> Point {
        self.objects[i].model.position()
    }

    /// Current agent of object `i`.
    pub fn agent(&self, i: usize) -> ServerId {
        self.objects[i].agent
    }

    /// The accuracy currently offered for object `i`.
    pub fn offered_acc(&self, i: usize) -> f64 {
        self.objects[i].offered_acc_m
    }

    /// The object id of object `i`.
    pub fn oid(&self, i: usize) -> ObjectId {
        self.objects[i].oid
    }

    /// Whether object `i` is still registered.
    pub fn alive(&self, i: usize) -> bool {
        self.objects[i].alive
    }

    /// The last *acknowledged* report of object `i`: the position the
    /// service has confirmed storing (the chaos oracle's ground truth).
    pub fn last_report(&self, i: usize) -> LastReport {
        self.objects[i].last_report
    }

    /// Registers object `i` afresh at its current position — the repair
    /// for a registration a volatile crash lost for good.
    ///
    /// # Errors
    ///
    /// Propagates the registration failure; the object is unchanged.
    pub fn reregister<H: Harness>(&mut self, i: usize, ls: &mut H) -> Result<(), LsError> {
        let (pos, now) = (self.objects[i].model.position(), ls.now_us());
        let (agent, offered_acc_m) = enroll(&self.cfg, ls, self.objects[i].oid, pos, now)?;
        let obj = &mut self.objects[i];
        obj.agent = agent;
        obj.offered_acc_m = offered_acc_m;
        obj.last_report = LastReport { pos, time_us: now, velocity_mps: obj.velocity_mps };
        obj.alive = true;
        Ok(())
    }

    /// Lets `dt_s` elapse on the deployment ([`Harness::elapse`]), moves
    /// every object by that much and transmits updates per the update
    /// policy.
    pub fn step<H: Harness>(&mut self, ls: &mut H, dt_s: f64) -> StepStats {
        ls.elapse((dt_s * SECOND as f64) as u64);
        let now = ls.now_us();
        let mut stats = StepStats::default();
        for idx in 0..self.objects.len() {
            let obj = &mut self.objects[idx];
            if !obj.alive {
                continue;
            }
            let before = obj.model.position();
            let pos = obj.model.step(dt_s);
            stats.moved += 1;
            if dt_s > 0.0 {
                obj.velocity_mps = (pos - before) / dt_s;
            }
            if self.cfg.policy.decide(&obj.last_report, pos, now) == UpdateDecision::Skip {
                continue;
            }
            stats.updates_sent += 1;
            self.transmit_into(idx, ls, pos, now, &mut stats);
        }
        stats
    }

    /// Forces a fresh position report from every live object regardless
    /// of the update policy — the settle primitive of the chaos
    /// harness, and what restores volatile sightings after a restart.
    pub fn report_all<H: Harness>(&mut self, ls: &mut H) -> StepStats {
        let mut stats = StepStats::default();
        for idx in 0..self.objects.len() {
            if !self.objects[idx].alive {
                continue;
            }
            let pos = self.objects[idx].model.position();
            let now = ls.now_us();
            stats.updates_sent += 1;
            self.transmit_into(idx, ls, pos, now, &mut stats);
        }
        stats
    }

    /// Drains every object's client inbox, applying asynchronous
    /// notifications: `AgentChanged` (fix the agent pointer after a
    /// lost handover notification), `NotifyAvailAcc`, and
    /// `PositionProbe` — a recovering server asking for a fresh
    /// position update (paper §5 restore-on-demand), which is answered
    /// with an immediate report.
    pub fn process_inbox<H: Harness>(&mut self, ls: &mut H) -> InboxStats {
        let mut stats = InboxStats::default();
        for idx in 0..self.objects.len() {
            let msgs = ls.notifications(self.objects[idx].oid);
            if !self.objects[idx].alive {
                continue; // deregistered: discard stale traffic
            }
            let mut probed = false;
            for m in msgs {
                let obj = &mut self.objects[idx];
                match m {
                    Message::AgentChanged { new_agent, offered_acc_m, .. } => {
                        obj.agent = new_agent;
                        obj.offered_acc_m = offered_acc_m;
                        stats.agent_changes += 1;
                    }
                    Message::NotifyAvailAcc { offered_acc_m, .. } => {
                        obj.offered_acc_m = offered_acc_m;
                        stats.acc_notifications += 1;
                    }
                    Message::PositionProbe { .. } => {
                        probed = true;
                    }
                    // A stale OutOfServiceArea (e.g. a duplicate of one
                    // already consumed by a blocking update) must not
                    // kill a live registration; real deregistrations
                    // are seen by the blocking update itself.
                    _ => stats.stray += 1,
                }
            }
            if probed {
                stats.probes_answered += 1;
                let pos = self.objects[idx].model.position();
                let now = ls.now_us();
                let mut ignored = StepStats::default();
                self.transmit_into(idx, ls, pos, now, &mut ignored);
            }
        }
        stats
    }

    /// Sends a sighting to the object's current agent, following
    /// `AgentChanged` redirects until a plain ack confirms the sighting
    /// is stored — the idempotent client-resend protocol the paper's
    /// UDP deployment relies on. `last_report` is only advanced on that
    /// final ack, so it always reflects state the service has durably
    /// observed (which is what the chaos oracle checks against).
    fn transmit_into<H: Harness>(
        &mut self,
        idx: usize,
        ls: &mut H,
        pos: Point,
        now: Micros,
        stats: &mut StepStats,
    ) {
        match self.transmit(idx, ls, pos, now) {
            TransmitResult::Acked => stats.acks += 1,
            TransmitResult::HandedOver => stats.handovers += 1,
            TransmitResult::Deregistered => stats.deregistered += 1,
            TransmitResult::Lost => stats.lost += 1,
        }
    }

    fn transmit<H: Harness>(
        &mut self,
        idx: usize,
        ls: &mut H,
        pos: Point,
        now: Micros,
    ) -> TransmitResult {
        const MAX_REDIRECTS: usize = 4;
        let mut handed_over = false;
        for _ in 0..=MAX_REDIRECTS {
            let obj = &mut self.objects[idx];
            let sighting = Sighting::new(obj.oid, now, pos, self.cfg.acc_sens_m);
            match ls.update(obj.agent, sighting) {
                Ok(UpdateOutcome::Ack { offered_acc_m }) => {
                    obj.offered_acc_m = offered_acc_m;
                    obj.last_report =
                        LastReport { pos, time_us: now, velocity_mps: obj.velocity_mps };
                    return if handed_over {
                        TransmitResult::HandedOver
                    } else {
                        TransmitResult::Acked
                    };
                }
                Ok(UpdateOutcome::NewAgent { agent, offered_acc_m }) => {
                    // Redirected: the sighting may not have reached the
                    // new agent (AgentLookup recovery answers without
                    // applying it) — re-send until a plain ack.
                    handed_over = true;
                    obj.agent = agent;
                    obj.offered_acc_m = offered_acc_m;
                }
                Ok(UpdateOutcome::OutOfServiceArea) => {
                    obj.alive = false;
                    return TransmitResult::Deregistered;
                }
                Err(_) => return TransmitResult::Lost, // retry on the next report
            }
        }
        TransmitResult::Lost
    }
}
