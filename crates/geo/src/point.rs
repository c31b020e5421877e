//! Planar and geographic point types.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A position in a local planar coordinate frame, in meters.
///
/// All spatial-index and geometry computation in hiloc happens in a local
/// frame produced by [`crate::LocalProjection`]; `x` grows eastward and
/// `y` northward.
///
/// # Example
///
/// ```
/// use hiloc_geo::Point;
/// let a = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(Point::ORIGIN), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

/// A displacement between two [`Point`]s, in meters.
pub type Vector = Point;

impl Point {
    /// The origin of the local frame.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from easting/northing meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in meters.
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed, e.g. nearest-neighbor search).
    pub fn distance_sq(self, other: Point) -> f64 {
        (self - other).norm_sq()
    }

    /// Euclidean norm of this point interpreted as a vector.
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// The midpoint between `self` and `other`.
    pub fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Returns the unit vector in this direction.
    ///
    /// Returns `None` for the zero vector.
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// The counter-clockwise perpendicular vector `(-y, x)`.
    pub fn perp(self) -> Point {
        Point::new(-self.y, self.x)
    }

    /// True when both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3} m, {:.3} m)", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        *self = *self + rhs;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// A WGS84 geographic coordinate, in degrees.
///
/// This is the external (API-level) representation of positions, matching
/// the paper's assumption that positions are "based on geographic
/// coordinate systems, such as WGS84, which is used by GPS".
///
/// # Example
///
/// ```
/// use hiloc_geo::GeoPoint;
/// let stuttgart = GeoPoint::new(48.7758, 9.1829);
/// let munich = GeoPoint::new(48.1351, 11.5820);
/// let d = stuttgart.distance(munich);
/// assert!((d - 190_000.0).abs() < 10_000.0); // ~190 km apart
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north, in `[-90, 90]`.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east, in `[-180, 180]`.
    pub lon_deg: f64,
}

impl GeoPoint {
    /// Creates a geographic point from latitude/longitude degrees.
    ///
    /// Values are not normalized; callers should supply latitudes in
    /// `[-90, 90]` and longitudes in `[-180, 180]`.
    pub const fn new(lat_deg: f64, lon_deg: f64) -> Self {
        GeoPoint { lat_deg, lon_deg }
    }

    /// Latitude in radians.
    pub fn lat_rad(self) -> f64 {
        self.lat_deg.to_radians()
    }

    /// Longitude in radians.
    pub fn lon_rad(self) -> f64 {
        self.lon_deg.to_radians()
    }

    /// Great-circle (haversine) distance to `other` in meters.
    pub fn distance(self, other: GeoPoint) -> f64 {
        crate::distance::haversine_m(self, other)
    }

    /// True when both coordinates are finite and in their nominal ranges.
    pub fn is_valid(self) -> bool {
        self.lat_deg.is_finite()
            && self.lon_deg.is_finite()
            && (-90.0..=90.0).contains(&self.lat_deg)
            && (-180.0..=180.0).contains(&self.lon_deg)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}°, {:.6}°)", self.lat_deg, self.lon_deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn distance_and_norm() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(b.norm(), 5.0);
    }

    #[test]
    fn cross_and_dot() {
        let e1 = Point::new(1.0, 0.0);
        let e2 = Point::new(0.0, 1.0);
        assert_eq!(e1.cross(e2), 1.0);
        assert_eq!(e2.cross(e1), -1.0);
        assert_eq!(e1.dot(e2), 0.0);
    }

    #[test]
    fn lerp_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.25), Point::new(2.5, 5.0));
        assert_eq!(a.midpoint(b), Point::new(5.0, 10.0));
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Point::ORIGIN.normalized().is_none());
        let n = Point::new(0.0, 5.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perp_is_ccw() {
        assert_eq!(Point::new(1.0, 0.0).perp(), Point::new(0.0, 1.0));
    }

    #[test]
    fn geo_point_validity() {
        assert!(GeoPoint::new(48.7, 9.1).is_valid());
        assert!(!GeoPoint::new(91.0, 0.0).is_valid());
        assert!(!GeoPoint::new(0.0, 200.0).is_valid());
        assert!(!GeoPoint::new(f64::NAN, 0.0).is_valid());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Point::new(1.0, 2.0)), "(1.000 m, 2.000 m)");
        let g = GeoPoint::new(48.775800, 9.182900);
        assert!(format!("{g}").contains("48.775800"));
    }
}
