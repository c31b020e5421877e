//! Geometry kernels: the per-candidate costs behind range-query
//! qualification (exact circle overlap) and routing (containment,
//! enlargement, projection).

use hiloc_geo::{Circle, GeoPoint, LocalProjection, Point, Polygon, Rect, Region};
use std::hint::black_box;
use std::time::Instant;

// Callers `black_box` an input so the call cannot be hoisted out of the loop.
fn time<T>(kernel: &'static str, iters: usize, mut f: impl FnMut() -> T) -> (&'static str, f64) {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    (kernel, t0.elapsed().as_nanos() as f64 / iters as f64)
}

/// Times every kernel over `iters` calls: name and mean nanoseconds per call.
pub fn run(iters: usize) -> Vec<(&'static str, f64)> {
    let rect = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
    let hexagon = Polygon::regular(Point::new(50.0, 50.0), 45.0, 6);
    let poly = Region::from(hexagon.clone());
    let circle = Circle::new(Point::new(95.0, 50.0), 25.0);
    let other = Circle::new(Point::new(70.0, 50.0), 30.0);
    let inside = Point::new(51.0, 49.0);
    let clip = Rect::new(Point::new(25.0, 25.0), Point::new(75.0, 75.0));
    let proj = LocalProjection::new(GeoPoint::new(48.7758, 9.1829));
    let geo = GeoPoint::new(48.78, 9.19);
    vec![
        time("circle_rect_overlap_area", iters, || {
            rect.intersection_area_with_circle(black_box(&circle))
        }),
        time("circle_polygon_overlap_area", iters, || {
            poly.intersection_area_with_circle(black_box(&circle))
        }),
        time("circle_circle_lens", iters, || {
            circle.intersection_area_with_circle(black_box(&other))
        }),
        time("polygon_contains_point", iters, || hexagon.contains(black_box(inside))),
        time("polygon_clip_to_rect", iters, || {
            hexagon.intersection_area_with_rect(black_box(&clip))
        }),
        time("polygon_enlarge", iters, || hexagon.enlarged(black_box(10.0)).area()),
        time("projection_roundtrip", iters, || proj.to_geo(proj.to_local(black_box(geo)))),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_all_rows_with_positive_times() {
        let rows = super::run(1_000);
        assert_eq!(rows.len(), 7);
        for (kernel, ns) in rows {
            assert!(ns > 0.0, "{kernel} time must be positive");
        }
    }
}
