//! Location descriptors, sighting records and registration info.

use super::{Micros, ObjectId, SECOND};
use hiloc_geo::{Circle, Point};
use hiloc_net::{wire_struct, Endpoint};
use std::fmt;

/// Whether `acc_m` can be an accuracy bound: finite and non-negative.
/// The one rule behind the constructors' panics and every decoder's
/// check of an accuracy field.
pub(crate) fn valid_acc(acc_m: f64) -> bool {
    acc_m >= 0.0 && acc_m.is_finite()
}

wire_struct! {
    /// A tracked object's location descriptor `ld(o)`: recorded position
    /// plus the accuracy bound.
    ///
    /// The accuracy is "the worst-case deviation of `ld(o).pos` from `o`'s
    /// actual position" — the object is guaranteed to reside inside the
    /// circular *location area* [`LocationDescriptor::location_area`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LocationDescriptor {
        /// Recorded position (`ld.pos`), local planar frame.
        pub pos: Point,
        /// Accuracy in meters (`ld.acc`): smaller is more accurate.
        pub acc_m: f64,
    }
    valid if valid_acc(acc_m)
}

impl LocationDescriptor {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `acc_m` is negative or non-finite.
    pub fn new(pos: Point, acc_m: f64) -> Self {
        assert!(valid_acc(acc_m), "accuracy must be finite and non-negative");
        LocationDescriptor { pos, acc_m }
    }

    /// The circular location area the object is guaranteed to be in.
    pub fn location_area(&self) -> Circle {
        Circle::new(self.pos, self.acc_m)
    }

    /// Distance from the recorded position to `p`.
    pub fn distance_to(&self, p: Point) -> f64 {
        self.pos.distance(p)
    }
}

impl fmt::Display for LocationDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ld[{} ±{:.1} m]", self.pos, self.acc_m)
    }
}

wire_struct! {
    /// A sighting record `s ∈ S`: one observation of a tracked object by a
    /// positioning system.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Sighting {
        /// The tracked object (`s.oId`).
        pub oid: ObjectId,
        /// Timestamp of the sighting (`s.t`), service clock.
        pub time_us: Micros,
        /// Position at `time_us` (`s.pos`), local planar frame.
        pub pos: Point,
        /// Sensor accuracy in meters (`s.accsens`): maximum distance between
        /// the reported and the actual position at `time_us`.
        pub acc_sens_m: f64,
    }
    valid if valid_acc(acc_sens_m)
}

impl Sighting {
    /// Creates a sighting record.
    ///
    /// # Panics
    ///
    /// Panics if `acc_sens_m` is negative or non-finite.
    pub fn new(oid: ObjectId, time_us: Micros, pos: Point, acc_sens_m: f64) -> Self {
        assert!(valid_acc(acc_sens_m), "sensor accuracy must be finite and non-negative");
        Sighting { oid, time_us, pos, acc_sens_m }
    }

    /// Accuracy bound at a later time `now`, given the object's maximum
    /// speed: `acc(t) = accsens + v_max · (t − s.t)`.
    ///
    /// This is the estimation the paper attributes to its companion
    /// report \[15\]: between updates, the object can have moved at most
    /// `v_max · Δt` away from the sighted position.
    pub fn aged_accuracy(&self, max_speed_mps: f64, now: Micros) -> f64 {
        let dt_s = now.saturating_sub(self.time_us) as f64 / SECOND as f64;
        self.acc_sens_m + max_speed_mps * dt_s
    }
}

wire_struct! {
    /// Registration information kept for a tracked object (the paper's
    /// `v.regInfo`): who registered it and the negotiated accuracy range.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RegInfo {
        /// The registering instance (`reginfo.reg`), notified on accuracy
        /// changes and handovers.
        pub registrant: Endpoint,
        /// Desired accuracy in meters (`desAcc`, smaller = better).
        pub des_acc_m: f64,
        /// Minimal acceptable accuracy in meters (`minAcc`); registration
        /// fails when the service cannot do at least this well.
        pub min_acc_m: f64,
        /// Declared maximum speed of the object in m/s, used for accuracy
        /// ageing and position-cache staleness bounds.
        pub max_speed_mps: f64,
    }
    valid if RegInfo::bounds_ok(des_acc_m, min_acc_m, max_speed_mps)
}

impl RegInfo {
    /// Whether the three numbers form a registration the service keeps:
    /// `0 <= des_acc_m <= min_acc_m` and `max_speed_mps >= 0`, all
    /// finite. The leaf refuses a request that fails this, and the
    /// decoders refuse a record that does, so both agree on what can
    /// be stored and shipped.
    fn bounds_ok(des_acc_m: f64, min_acc_m: f64, max_speed_mps: f64) -> bool {
        des_acc_m >= 0.0
            && des_acc_m <= min_acc_m
            && min_acc_m.is_finite()
            && valid_acc(max_speed_mps)
    }

    /// Creates registration info, or `None` unless
    /// `0 <= des_acc_m <= min_acc_m` and `max_speed_mps >= 0`, all finite.
    pub fn try_new(
        registrant: Endpoint,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Option<Self> {
        Self::bounds_ok(des_acc_m, min_acc_m, max_speed_mps)
            .then_some(RegInfo { registrant, des_acc_m, min_acc_m, max_speed_mps })
    }

    /// Creates registration info.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= des_acc_m <= min_acc_m` and
    /// `max_speed_mps >= 0`, all finite.
    pub fn new(registrant: Endpoint, des_acc_m: f64, min_acc_m: f64, max_speed_mps: f64) -> Self {
        match Self::try_new(registrant, des_acc_m, min_acc_m, max_speed_mps) {
            Some(reg) => reg,
            None if des_acc_m > min_acc_m => panic!(
                "desired accuracy ({des_acc_m} m) must not be worse than minimal ({min_acc_m} m)"
            ),
            None => panic!("accuracy bounds and maximum speed must be finite and non-negative"),
        }
    }

    /// The accuracy the service offers given what it can achieve
    /// (`acc_floor`): `max(acc_floor, desAcc)` — never promise better
    /// than desired (it would only inflate update traffic), never claim
    /// better than achievable.
    pub fn offered_accuracy(&self, acc_floor_m: f64) -> f64 {
        acc_floor_m.max(self.des_acc_m)
    }

    /// Whether registration succeeds: the achievable accuracy must be
    /// within the acceptable range (`acc ≤ minAcc`).
    pub fn acceptable(&self, acc_floor_m: f64) -> bool {
        acc_floor_m <= self.min_acc_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_net::ClientId;

    fn endpoint() -> Endpoint {
        ClientId(1).into()
    }

    #[test]
    fn descriptor_location_area() {
        let ld = LocationDescriptor::new(Point::new(3.0, 4.0), 25.0);
        let area = ld.location_area();
        assert_eq!(area.center, ld.pos);
        assert_eq!(area.radius, 25.0);
        assert_eq!(ld.distance_to(Point::ORIGIN), 5.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn descriptor_rejects_negative_accuracy() {
        let _ = LocationDescriptor::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn aged_accuracy_grows_linearly() {
        let s = Sighting::new(ObjectId(1), 10 * SECOND, Point::ORIGIN, 10.0);
        assert_eq!(s.aged_accuracy(2.0, 10 * SECOND), 10.0);
        assert_eq!(s.aged_accuracy(2.0, 15 * SECOND), 20.0);
        // Clock before the sighting: no negative ageing.
        assert_eq!(s.aged_accuracy(2.0, 0), 10.0);
    }

    #[test]
    fn reg_info_negotiation() {
        let reg = RegInfo::new(endpoint(), 25.0, 100.0, 3.0);
        // Service can achieve 10 m: offer the desired 25 m.
        assert!(reg.acceptable(10.0));
        assert_eq!(reg.offered_accuracy(10.0), 25.0);
        // Service can achieve only 50 m: acceptable, offered 50 m.
        assert!(reg.acceptable(50.0));
        assert_eq!(reg.offered_accuracy(50.0), 50.0);
        // Service floor worse than minAcc: registration fails.
        assert!(!reg.acceptable(150.0));
    }

    #[test]
    #[should_panic(expected = "must not be worse")]
    fn reg_info_rejects_inverted_range() {
        let _ = RegInfo::new(endpoint(), 100.0, 25.0, 3.0);
    }
}
