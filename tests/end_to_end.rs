//! Facade-level end-to-end test: geographic coordinates in, full
//! register → move → query lifecycle through the hierarchy.

use hiloc::core::area::HierarchyBuilder;
use hiloc::core::model::{LsError, ObjectId, RangeQuery, Sighting};
use hiloc::core::runtime::{SimDeployment, UpdateOutcome};
use hiloc::geo::{GeoPoint, LocalProjection, Point, Rect, Region};

#[test]
fn geographic_workflow_end_to_end() {
    // Anchor a 2 km service area on Stuttgart; applications use WGS84.
    let proj = LocalProjection::new(GeoPoint::new(48.7758, 9.1829));
    let area = Rect::from_center_size(Point::new(0.0, 0.0), 2_000.0, 2_000.0);
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, Default::default(), 99);

    // A tram at the Schlossplatz.
    let tram_geo = GeoPoint::new(48.7770, 9.1815);
    let tram_local = proj.to_local(tram_geo);
    let entry = ls.leaf_for(tram_local);
    let (agent, offered) = ls
        .register(entry, Sighting::new(ObjectId(1), 0, tram_local, 10.0), 25.0, 100.0)
        .unwrap();
    assert_eq!(offered, 25.0);

    // It drives ~700 m east — across a leaf boundary.
    let moved_geo = GeoPoint::new(48.7770, 9.1910);
    let moved_local = proj.to_local(moved_geo);
    let out = ls.update(agent, Sighting::new(ObjectId(1), 1_000_000, moved_local, 10.0)).unwrap();
    let agent = match out {
        UpdateOutcome::NewAgent { agent, .. } => agent,
        UpdateOutcome::Ack { .. } => agent,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(agent, ls.leaf_for(moved_local));

    // Query it back and convert to geographic coordinates: within a
    // meter of where it reported.
    let ld = ls.pos_query(entry, ObjectId(1)).unwrap();
    let got_geo = proj.to_geo(ld.pos);
    assert!(got_geo.distance(moved_geo) < 1.0, "drifted {} m", got_geo.distance(moved_geo));

    // A range query over a geographic box around the new position.
    let query_area = Region::from(Rect::from_center_size(moved_local, 200.0, 200.0));
    let ans = ls.range_query(entry, RangeQuery::new(query_area, 50.0, 0.5)).unwrap();
    assert!(ans.complete);
    assert_eq!(ans.objects.len(), 1);
    assert_eq!(ans.objects[0].0, ObjectId(1));

    // Deregistration removes it everywhere.
    ls.deregister(agent, ObjectId(1));
    assert!(matches!(ls.pos_query(entry, ObjectId(1)), Err(LsError::UnknownObject(_))));
}

#[test]
fn hundred_objects_three_level_hierarchy() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(4_000.0, 4_000.0));
    let h = HierarchyBuilder::grid(area, 2, 2).build().unwrap();
    assert_eq!(h.len(), 21);
    let mut ls = SimDeployment::new(h, Default::default(), 123);

    // Register a 10x10 grid of objects.
    for i in 0..100u64 {
        let p = Point::new(200.0 + (i % 10) as f64 * 380.0, 200.0 + (i / 10) as f64 * 380.0);
        let entry = ls.leaf_for(p);
        ls.register(entry, Sighting::new(ObjectId(i), 0, p, 5.0), 10.0, 50.0).unwrap();
    }
    ls.run_until_quiet();

    // The root knows all 100; leaves partition them.
    assert_eq!(ls.server(ls.hierarchy().root()).unwrap().visitor_count(), 100);
    let leaf_total: usize = ls
        .hierarchy()
        .leaves()
        .map(|cfg| ls.server(cfg.id).unwrap().sighting_count())
        .sum();
    assert_eq!(leaf_total, 100);

    // A whole-area range query finds everything, from any entry.
    let everything = RangeQuery::new(
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(4_000.0, 4_000.0))),
        50.0,
        0.5,
    );
    let entry = ls.leaf_for(Point::new(3_900.0, 3_900.0));
    let ans = ls.range_query(entry, everything).unwrap();
    assert!(ans.complete);
    assert_eq!(ans.objects.len(), 100);

    // Nearest-neighbor from a corner: the object at (200, 200).
    let nn = ls.neighbor_query(entry, Point::new(0.0, 0.0), 50.0, 0.0).unwrap();
    assert_eq!(nn.nearest.unwrap().0, ObjectId(0));
}

#[test]
fn polygon_query_areas_work_distributed() {
    let area = Rect::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
    let h = HierarchyBuilder::grid(area, 1, 2).build().unwrap();
    let mut ls = SimDeployment::new(h, Default::default(), 5);

    // Objects at the three corners of a triangle and one outside it.
    let inside = [Point::new(300.0, 300.0), Point::new(700.0, 300.0), Point::new(500.0, 600.0)];
    for (i, p) in inside.iter().enumerate() {
        let entry = ls.leaf_for(*p);
        ls.register(entry, Sighting::new(ObjectId(i as u64), 0, *p, 5.0), 10.0, 50.0).unwrap();
    }
    let outside = Point::new(500.0, 900.0);
    let entry = ls.leaf_for(outside);
    ls.register(entry, Sighting::new(ObjectId(9), 0, outside, 5.0), 10.0, 50.0).unwrap();

    // A triangular query area covering the three inner objects.
    let triangle = hiloc::geo::Polygon::new(vec![
        Point::new(200.0, 200.0),
        Point::new(800.0, 200.0),
        Point::new(500.0, 700.0),
    ])
    .unwrap();
    let ans = ls
        .range_query(entry, RangeQuery::new(Region::from(triangle), 50.0, 0.5))
        .unwrap();
    assert!(ans.complete);
    let mut ids: Vec<u64> = ans.objects.iter().map(|(o, _)| o.0).collect();
    ids.sort();
    assert_eq!(ids, vec![0, 1, 2]);
}
