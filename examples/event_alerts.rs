//! Event-based interaction (paper §1 and §8): an application watches
//! predicates — "at least three objects are in the plaza", geofence
//! enter/leave alerts — while tracked objects move.
//!
//! The predicates are evaluated on the client side: a `Watch` polls the
//! range query and turns successive answers into events, so the same
//! loop runs on the threaded runtime used here, over UDP, or in the
//! simulator. The example asserts the events it prints.
//!
//! ```sh
//! cargo run --example event_alerts
//! ```

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::events::{EventKind, Predicate, Watch};
use hiloc::core::model::{ObjectId, Sighting};
use hiloc::core::runtime::{SyncClient, ThreadedDeployment, UpdateOutcome};
use hiloc::geo::{Point, Rect, Region};
use hiloc::net::ServerId;

/// Accuracy (m) and overlap degree an object needs to count as inside.
const REQ_ACC_M: f64 = 100.0;
const REQ_OVERLAP: f64 = 0.5;

/// The application's three watches over one plaza. They share an area
/// and a qualification, so one range answer serves all of them.
struct Alerts {
    arrivals: Watch,
    departures: Watch,
    crowd: Watch,
}

impl Alerts {
    fn new(plaza: Region) -> Self {
        let watch = |p| Watch::new(p, REQ_ACC_M, REQ_OVERLAP);
        Alerts {
            arrivals: watch(Predicate::Enter { area: plaza.clone(), oid: None }),
            departures: watch(Predicate::Leave { area: plaza.clone(), oid: None }),
            crowd: watch(Predicate::CountAtLeast { area: plaza, threshold: 3 }),
        }
    }

    /// One poll: a range query via `entry`, then every watch's events.
    fn poll(&mut self, app: &mut SyncClient, entry: ServerId) -> Vec<EventKind> {
        let answer = app.range_query(entry, self.crowd.query()).expect("range query succeeds");
        let mut events = self.arrivals.observe(&answer);
        events.extend(self.departures.observe(&answer));
        events.extend(self.crowd.observe(&answer));
        for event in &events {
            match event {
                EventKind::Entered { oid } => println!("  {oid} entered the plaza"),
                EventKind::Left { oid } => println!("  {oid} left the plaza"),
                EventKind::CountReached { count } => {
                    println!("  crowd alert: {count} objects in the plaza")
                }
            }
        }
        events
    }
}

/// Moves `oid` to `to`, following a handover to its new agent.
fn walk(fleet: &mut SyncClient, agents: &mut [ServerId], oid: u64, to: Point) {
    let s = Sighting::new(ObjectId(oid), fleet.now_us(), to, 10.0);
    match fleet.update(agents[oid as usize], s).expect("update succeeds") {
        UpdateOutcome::NewAgent { agent, .. } => agents[oid as usize] = agent,
        UpdateOutcome::Ack { .. } => {}
        UpdateOutcome::OutOfServiceArea => panic!("{to:?} is inside the service area"),
    }
}

fn main() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let hierarchy = HierarchyBuilder::grid(area, 1, 2).build().expect("valid hierarchy");
    let ls = ThreadedDeployment::new(hierarchy, Default::default());
    let mut fleet = ls.client();
    let mut app = ls.client();

    // The plaza straddles all four leaf service areas on purpose: the
    // range query gathers it from every leaf that overlaps it.
    let plaza = Region::from(Rect::new(Point::new(400.0, 400.0), Point::new(600.0, 600.0)));
    let entry = ls.leaf_for(Point::new(100.0, 100.0));
    let mut alerts = Alerts::new(plaza);
    let mut seen = alerts.poll(&mut app, entry);

    // Five objects, registered outside the plaza.
    let home = |i: u64| Point::new(100.0 + 50.0 * i as f64, 100.0);
    let mut agents = Vec::new();
    for i in 0..5u64 {
        let s = Sighting::new(ObjectId(i), fleet.now_us(), home(i), 10.0);
        let (agent, _) =
            fleet.register(ls.leaf_for(home(i)), s, 25.0, 100.0, 2.0).expect("registration succeeds");
        agents.push(agent);
    }
    seen.extend(alerts.poll(&mut app, entry));

    println!("five objects walk into the plaza, one by one:");
    for i in 0..5u64 {
        let inside = Point::new(450.0 + 20.0 * i as f64, 480.0 + 15.0 * i as f64);
        walk(&mut fleet, &mut agents, i, inside);
        seen.extend(alerts.poll(&mut app, entry));
    }
    println!("three walk home again (the crowd alert re-arms below three):");
    for i in 0..3u64 {
        walk(&mut fleet, &mut agents, i, home(i));
        seen.extend(alerts.poll(&mut app, entry));
    }
    println!("one comes back:");
    walk(&mut fleet, &mut agents, 0, Point::new(500.0, 500.0));
    seen.extend(alerts.poll(&mut app, entry));

    let entered = |o| EventKind::Entered { oid: ObjectId(o) };
    let left = |o| EventKind::Left { oid: ObjectId(o) };
    let crowd = EventKind::CountReached { count: 3 };
    let expected = vec![
        entered(0),
        entered(1),
        entered(2),
        crowd.clone(),
        entered(3),
        entered(4),
        left(0),
        left(1),
        left(2),
        entered(0),
        crowd,
    ];
    assert_eq!(seen, expected, "the alerts fired out of line");
    ls.shutdown();
    println!("all {} events as expected", expected.len());
}
