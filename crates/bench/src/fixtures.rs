//! Common populations and deployments used across experiments.

use hiloc_core::area::{Hierarchy, HierarchyBuilder};
use hiloc_geo::{Point, Rect};
use hiloc_storage::StoredSighting;
use hiloc_util::rng::StdRng;
use hiloc_util::rng::{RngExt, SeedableRng};

/// The paper's Table 1 storage setting: a 10 km × 10 km service area.
pub fn table1_area() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(10_000.0, 10_000.0))
}

/// The paper's Table 2 / Fig. 8 testbed area: 1.5 km × 1.5 km.
pub fn table2_area() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(1_500.0, 1_500.0))
}

/// The paper's testbed hierarchy: one root, four leaf quadrants.
pub fn table2_hierarchy() -> Hierarchy {
    HierarchyBuilder::grid(table2_area(), 1, 2).build().expect("valid grid hierarchy")
}

/// The Fig. 6 hierarchy: three levels, seven servers.
pub fn fig6_hierarchy() -> Hierarchy {
    HierarchyBuilder::binary(table2_area(), 2).build().expect("valid binary hierarchy")
}

/// Uniformly random points inside `area`.
pub fn uniform_points(n: usize, area: Rect, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                rng.random_range(area.min().x..area.max().x - 1e-3),
                rng.random_range(area.min().y..area.max().y - 1e-3),
            )
        })
        .collect()
}

/// A sighting record for the storage-level experiment (Table 1).
pub fn stored(key: u64, pos: Point) -> StoredSighting {
    StoredSighting { key, pos, time_us: 0, acc_sens_m: 10.0, expires_us: u64::MAX }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_shapes() {
        assert_eq!(table1_area().area(), 1e8);
        assert_eq!(table2_hierarchy().len(), 5);
        assert_eq!(fig6_hierarchy().len(), 7);
        let pts = uniform_points(100, table2_area(), 1);
        assert_eq!(pts.len(), 100);
        assert!(pts.iter().all(|p| table2_area().contains(*p)));
    }
}
