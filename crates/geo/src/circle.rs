//! Circles (location areas) and exact circle–polygon intersection.

use crate::{Point, Polygon, Rect, GEO_EPS};
use std::fmt;

/// A circle in the local planar frame: the paper's *location area*.
///
/// A tracked object with location descriptor `ld` is guaranteed to reside
/// inside the circle `(ld.pos, ld.acc)`. The range-query semantics divide
/// the intersection area of this circle with the queried area by the
/// circle area to obtain the overlap degree, so this type provides an
/// **exact** circle–polygon intersection area.
///
/// # Example
///
/// ```
/// use hiloc_geo::{Circle, Point};
/// let c = Circle::new(Point::new(0.0, 0.0), 2.0);
/// assert!((c.area() - std::f64::consts::PI * 4.0).abs() < 1e-12);
/// assert!(c.contains(Point::new(1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the location area (`ld.pos`).
    pub center: Point,
    /// Radius in meters (`ld.acc`); zero yields a degenerate point circle.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius >= 0.0 && radius.is_finite(),
            "circle radius must be finite and non-negative"
        );
        Circle { center, radius }
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// True when `p` is inside or on the circle.
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius + GEO_EPS
    }

    /// The bounding rectangle.
    pub fn bounding_rect(&self) -> Rect {
        Rect::from_center_size(self.center, 2.0 * self.radius, 2.0 * self.radius)
    }

    /// True when the circle and rectangle share at least one point.
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        rect.distance_to_point(self.center) <= self.radius
    }

    /// True when the rectangle is entirely inside the circle.
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        rect.max_distance_to_point(self.center) <= self.radius
    }

    /// Area of the intersection with another circle (the classic lens
    /// formula), in square meters.
    pub fn intersection_area_with_circle(&self, other: &Circle) -> f64 {
        let d = self.center.distance(other.center);
        let (r1, r2) = (self.radius, other.radius);
        if d >= r1 + r2 {
            return 0.0;
        }
        if d <= (r1 - r2).abs() {
            // Smaller circle fully inside the larger.
            let r = r1.min(r2);
            return std::f64::consts::PI * r * r;
        }
        let d2 = d * d;
        let a1 = ((d2 + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
        let a2 = ((d2 + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
        let alpha = 2.0 * a1.acos();
        let beta = 2.0 * a2.acos();
        0.5 * r1 * r1 * (alpha - alpha.sin()) + 0.5 * r2 * r2 * (beta - beta.sin())
    }

    /// **Exact** area of the intersection with a simple polygon, in
    /// square meters.
    ///
    /// Implements the classic signed-decomposition algorithm: the
    /// intersection area equals the absolute sum, over the polygon's
    /// directed edges, of the signed area of `triangle(center, a, b) ∩
    /// circle`. Each edge contributes triangle pieces for sub-segments
    /// inside the circle and circular-sector pieces for sub-segments
    /// outside. Exact for simple polygons of either winding.
    pub fn intersection_area_with_polygon(&self, polygon: &Polygon) -> f64 {
        if self.radius <= 0.0 {
            return 0.0;
        }
        // Exact zero for clearly disjoint shapes (also avoids summing
        // sector terms into sub-epsilon float noise).
        if !self.intersects_rect(&polygon.bounding_rect()) {
            return 0.0;
        }
        let mut total = 0.0;
        for (a, b) in polygon.edges() {
            total += self.edge_contribution(a - self.center, b - self.center);
        }
        total.abs()
    }

    /// Area of the intersection with a rectangle, in square meters.
    ///
    /// Exactly [`Circle::area`] when the rectangle contains the circle
    /// and exactly zero when they are disjoint. Otherwise it sums the
    /// same edge terms as [`Circle::intersection_area_with_polygon`]
    /// over `rect.corners()`, without building a polygon.
    pub fn intersection_area_with_rect(&self, rect: &Rect) -> f64 {
        if rect.area() <= 0.0 || self.radius <= 0.0 || !self.intersects_rect(rect) {
            return 0.0;
        }
        if rect.contains_rect(&self.bounding_rect()) {
            return self.area();
        }
        let c = rect.corners();
        let mut total = 0.0;
        for i in 0..4 {
            total += self.edge_contribution(c[i] - self.center, c[(i + 1) % 4] - self.center);
        }
        total.abs()
    }

    /// Signed contribution of the edge `(a, b)` (translated so the circle
    /// center is the origin) to the circle–polygon intersection area.
    fn edge_contribution(&self, a: Point, b: Point) -> f64 {
        let r = self.radius;
        let r_sq = r * r;
        let a_in = a.norm_sq() <= r_sq;
        let b_in = b.norm_sq() <= r_sq;

        if a_in && b_in {
            return triangle_area(a, b);
        }

        // Segment/circle intersection parameters t in [0, 1].
        let d = b - a;
        let qa = d.norm_sq();
        if qa < GEO_EPS * GEO_EPS {
            // Degenerate zero-length edge contributes nothing.
            return 0.0;
        }
        let qb = 2.0 * a.dot(d);
        let qc = a.norm_sq() - r_sq;
        let disc = qb * qb - 4.0 * qa * qc;

        if a_in && !b_in {
            // Exits the circle once.
            let t = (-qb + disc.max(0.0).sqrt()) / (2.0 * qa);
            let p = a + d * t;
            return triangle_area(a, p) + sector_area(r, p, b);
        }
        if !a_in && b_in {
            // Enters the circle once.
            let t = (-qb - disc.max(0.0).sqrt()) / (2.0 * qa);
            let p = a + d * t;
            return sector_area(r, a, p) + triangle_area(p, b);
        }

        // Both endpoints outside: the chord may still pass through.
        if disc > 0.0 {
            let sqrt_disc = disc.sqrt();
            let t1 = (-qb - sqrt_disc) / (2.0 * qa);
            let t2 = (-qb + sqrt_disc) / (2.0 * qa);
            if t1 > 0.0 && t2 < 1.0 && t1 < t2 {
                let p1 = a + d * t1;
                let p2 = a + d * t2;
                return sector_area(r, a, p1) + triangle_area(p1, p2) + sector_area(r, p2, b);
            }
        }
        sector_area(r, a, b)
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circle[center {}, r {:.3} m]", self.center, self.radius)
    }
}

/// Signed area of the triangle `(origin, a, b)`.
fn triangle_area(a: Point, b: Point) -> f64 {
    0.5 * a.cross(b)
}

/// Signed area of the circular sector of radius `r` swept from the
/// direction of `a` to the direction of `b` (shorter way).
fn sector_area(r: f64, a: Point, b: Point) -> f64 {
    let theta = a.cross(b).atan2(a.dot(b));
    0.5 * r * r * theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn square(cx: f64, cy: f64, half: f64) -> Polygon {
        Polygon::from_rect(&Rect::from_center_size(Point::new(cx, cy), 2.0 * half, 2.0 * half))
    }

    #[test]
    fn circle_fully_inside_polygon() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let p = square(0.0, 0.0, 10.0);
        let area = c.intersection_area_with_polygon(&p);
        assert!((area - PI).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn polygon_fully_inside_circle() {
        let c = Circle::new(Point::new(0.0, 0.0), 10.0);
        let p = square(0.0, 0.0, 1.0);
        let area = c.intersection_area_with_polygon(&p);
        assert!((area - 4.0).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn disjoint_is_zero() {
        let c = Circle::new(Point::new(100.0, 100.0), 1.0);
        let p = square(0.0, 0.0, 1.0);
        assert_eq!(c.intersection_area_with_polygon(&p), 0.0);
    }

    #[test]
    fn half_plane_split() {
        // Circle centered on the edge of a huge square: exactly half the
        // circle overlaps.
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        let p = Polygon::from_rect(&Rect::new(Point::new(0.0, -100.0), Point::new(100.0, 100.0)));
        let area = c.intersection_area_with_polygon(&p);
        assert!((area - PI * 2.0).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn quarter_at_corner() {
        // Circle centered exactly on a corner of the square.
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let p = Polygon::from_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)));
        let area = c.intersection_area_with_polygon(&p);
        assert!((area - PI / 4.0).abs() < 1e-9, "got {area}");
    }

    #[test]
    fn winding_independent() {
        let c = Circle::new(Point::new(0.3, -0.2), 1.5);
        let ccw = Polygon::new(vec![
            Point::new(-1.0, -1.0),
            Point::new(2.0, -1.0),
            Point::new(2.0, 2.0),
            Point::new(-1.0, 2.0),
        ])
        .unwrap();
        // Constructor normalizes winding, so feed edges reversed by
        // clipping through a rect-polygon with reversed input instead.
        let cw_input = vec![
            Point::new(-1.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, -1.0),
            Point::new(-1.0, -1.0),
        ];
        let cw = Polygon::new(cw_input).unwrap();
        let a1 = c.intersection_area_with_polygon(&ccw);
        let a2 = c.intersection_area_with_polygon(&cw);
        assert!((a1 - a2).abs() < 1e-9);
    }

    #[test]
    fn matches_circle_circle_lens_via_regular_polygon() {
        // Approximate one circle by a 512-gon and compare the
        // polygon-circle intersection against the analytic lens area.
        let c1 = Circle::new(Point::new(0.0, 0.0), 3.0);
        let c2 = Circle::new(Point::new(2.0, 1.0), 2.0);
        let poly2 = Polygon::regular(c2.center, c2.radius, 512);
        let exact = c1.intersection_area_with_circle(&c2);
        let approx = c1.intersection_area_with_polygon(&poly2);
        assert!((exact - approx).abs() / exact < 1e-3, "{exact} vs {approx}");
    }

    #[test]
    fn monte_carlo_agreement_concave() {
        // L-shaped polygon vs circle, validated against Monte Carlo.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        let c = Circle::new(Point::new(2.0, 2.0), 1.8);
        let exact = c.intersection_area_with_polygon(&l);

        // Deterministic low-discrepancy grid sampling over the circle bbox.
        let bb = c.bounding_rect();
        let n = 500;
        let mut hits = 0u64;
        for i in 0..n {
            for j in 0..n {
                let p = Point::new(
                    bb.min().x + (i as f64 + 0.5) / n as f64 * bb.width(),
                    bb.min().y + (j as f64 + 0.5) / n as f64 * bb.height(),
                );
                if c.contains(p) && l.contains(p) {
                    hits += 1;
                }
            }
        }
        let mc = hits as f64 / (n * n) as f64 * bb.area();
        assert!((exact - mc).abs() < 0.02 * exact.max(1.0), "{exact} vs {mc}");
    }

    #[test]
    fn circle_circle_lens_cases() {
        let a = Circle::new(Point::new(0.0, 0.0), 2.0);
        // Disjoint.
        assert_eq!(a.intersection_area_with_circle(&Circle::new(Point::new(10.0, 0.0), 2.0)), 0.0);
        // Contained.
        let inner = Circle::new(Point::new(0.5, 0.0), 1.0);
        assert!((a.intersection_area_with_circle(&inner) - PI).abs() < 1e-9);
        // Identical.
        assert!((a.intersection_area_with_circle(&a) - a.area()).abs() < 1e-9);
        // Half-overlapping: symmetric lens, compare with numeric formula.
        let b = Circle::new(Point::new(2.0, 0.0), 2.0);
        let lens = a.intersection_area_with_circle(&b);
        // Analytic: 2 r² cos⁻¹(d/2r) − (d/2)·sqrt(4r² − d²) with r=2, d=2.
        let expect = 2.0 * 4.0 * (0.5_f64).acos() - 1.0 * (16.0_f64 - 4.0).sqrt();
        assert!((lens - expect).abs() < 1e-9);
    }

    #[test]
    fn rect_helpers() {
        let c = Circle::new(Point::new(5.0, 5.0), 2.0);
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        assert!(c.intersects_rect(&r));
        assert!(!c.contains_rect(&r));
        assert!(c.contains_rect(&Rect::from_center_size(Point::new(5.0, 5.0), 1.0, 1.0)));
        assert!((c.intersection_area_with_rect(&r) - c.area()).abs() < 1e-9);
        let far = Rect::new(Point::new(100.0, 100.0), Point::new(110.0, 110.0));
        assert!(!c.intersects_rect(&far));
    }

    #[test]
    fn rect_overlap_is_exact_at_both_ends_and_matches_the_polygon_path_between() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 60.0));
        // Contained (touching the border included): exactly πr².
        for c in [Circle::new(Point::new(37.3, 21.9), 7.7), Circle::new(Point::new(10.0, 30.0), 10.0)] {
            assert_eq!(c.intersection_area_with_rect(&r), c.area());
        }
        // Disjoint: exactly zero.
        assert_eq!(Circle::new(Point::new(-20.0, 30.0), 5.0).intersection_area_with_rect(&r), 0.0);
        // Straddling: bit-identical to the polygon path.
        let poly = Polygon::from_rect(&r);
        for c in [
            Circle::new(Point::new(0.0, 30.0), 10.0),
            Circle::new(Point::new(99.0, 59.0), 4.0),
            Circle::new(Point::new(50.0, 30.0), 80.0),
            Circle::new(Point::new(-3.0, 61.0), 5.0),
        ] {
            assert_eq!(
                c.intersection_area_with_rect(&r).to_bits(),
                c.intersection_area_with_polygon(&poly).to_bits(),
                "{c}"
            );
        }
    }

    #[test]
    fn zero_radius_circle() {
        let c = Circle::new(Point::new(1.0, 1.0), 0.0);
        assert_eq!(c.area(), 0.0);
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert_eq!(c.intersection_area_with_polygon(&square(0.0, 0.0, 5.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_radius_panics() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }
}
