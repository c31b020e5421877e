//! Crash/recovery tests for the paper's §5 durability model: the
//! visitor database (forwarding paths, registration info) survives
//! restarts; the sighting database is volatile and restored on demand.

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::model::{LsError, ObjectId, Sighting};
use hiloc::core::node::{DurabilityOptions, ServerOptions};
use hiloc::core::runtime::SimDeployment;
use hiloc::geo::{Point, Rect};
use hiloc::storage::SyncPolicy;
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("hiloc-recovery-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_deployment(dir: &TempDir, seed: u64) -> SimDeployment {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let opts = ServerOptions {
        durability: Some(DurabilityOptions { dir: dir.0.clone(), policy: SyncPolicy::OsFlush }),
        ..Default::default()
    };
    SimDeployment::new(h, opts, seed)
}

#[test]
fn forwarding_paths_survive_full_restart() {
    let dir = TempDir::new("paths");
    let mut ls = durable_deployment(&dir, 1);
    let positions = [Point::new(100.0, 100.0), Point::new(900.0, 100.0), Point::new(100.0, 900.0)];
    for (i, p) in positions.iter().enumerate() {
        let entry = ls.leaf_for(*p);
        ls.register(entry, Sighting::new(ObjectId(i as u64), 0, *p, 10.0), 25.0, 100.0).unwrap();
    }
    ls.run_until_quiet();

    // Crash-restart every server: volatile sightings are gone, durable
    // visitor records recovered.
    for cfg in ls.hierarchy().servers().to_vec() {
        assert!(ls.restart_server(cfg.id));
    }
    let root = ls.hierarchy().root();
    assert_eq!(ls.server(root).unwrap().visitor_count(), 3, "root forwarding refs recovered");
    for (i, p) in positions.iter().enumerate() {
        let agent = ls.leaf_for(*p);
        assert_eq!(ls.server(agent).unwrap().visitor_count(), 1, "agent record for object {i}");
        assert_eq!(ls.server(agent).unwrap().sighting_count(), 0, "sightings are volatile");
    }
}

#[test]
fn position_query_after_restart_probes_and_recovers_on_update() {
    let dir = TempDir::new("probe");
    let mut ls = durable_deployment(&dir, 2);
    let p = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(p);
    let (agent, _) =
        ls.register(entry, Sighting::new(ObjectId(7), 0, p, 10.0), 25.0, 100.0).unwrap();
    ls.run_until_quiet();

    assert!(ls.restart_server(agent));

    // The query cannot be answered yet (sighting lost) — the server
    // asks the registrant for a fresh update (restore-on-demand, §5).
    // At least one probe is sent for the query itself; the path
    // keep-alive additionally probes restore-pending records
    // proactively each refresh period, so the count is a floor.
    let err = ls.pos_query(entry, ObjectId(7)).unwrap_err();
    assert!(matches!(err, LsError::UnknownObject(_)));
    assert!(ls.server(agent).unwrap().stats().probes_sent >= 1);
    ls.run_until_quiet(); // let the in-flight probe reach the object
    let probes = ls.drain_client(SimDeployment::object_endpoint(ObjectId(7)));
    assert!(
        probes.iter().any(|m| m.label() == "positionProbe"),
        "tracked object must receive a probe, got {probes:?}"
    );

    // The object reports its position; the service answers again.
    ls.update(agent, Sighting::new(ObjectId(7), 5_000_000, p, 10.0)).unwrap();
    let ld = ls.pos_query(entry, ObjectId(7)).unwrap();
    assert_eq!(ld.pos, p);
}

#[test]
fn restart_preserves_queryability_of_other_leaves() {
    let dir = TempDir::new("others");
    let mut ls = durable_deployment(&dir, 3);
    let a = Point::new(100.0, 100.0);
    let b = Point::new(900.0, 900.0);
    for (i, p) in [a, b].iter().enumerate() {
        let entry = ls.leaf_for(*p);
        ls.register(entry, Sighting::new(ObjectId(i as u64), 0, *p, 10.0), 25.0, 100.0).unwrap();
    }
    ls.run_until_quiet();

    // Restart only the leaf owning object 0.
    let crashed = ls.leaf_for(a);
    assert!(ls.restart_server(crashed));

    // Object 1 on another leaf is still fully queryable from anywhere,
    // including from the restarted leaf as entry.
    let ld = ls.pos_query(crashed, ObjectId(1)).unwrap();
    assert_eq!(ld.pos, b);
}

#[test]
fn without_durability_restart_loses_registrations() {
    // Control experiment: a volatile deployment forgets everything.
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, ServerOptions::default(), 4);
    let p = Point::new(100.0, 100.0);
    let entry = ls.leaf_for(p);
    let (agent, _) =
        ls.register(entry, Sighting::new(ObjectId(1), 0, p, 10.0), 25.0, 100.0).unwrap();
    ls.run_until_quiet();

    assert!(ls.restart_server(agent));
    assert_eq!(ls.server(agent).unwrap().visitor_count(), 0);
    // No probe possible — registration info is gone with the record.
    let err = ls.pos_query(agent, ObjectId(1)).unwrap_err();
    assert!(matches!(err, LsError::UnknownObject(_) | LsError::Timeout));
}
