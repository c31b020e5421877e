//! Table 1: throughput of the data storage component.
//!
//! Paper setting: a single location server's main-memory database over
//! a 10 km × 10 km service area with 25 000 tracked objects at random
//! positions; then 10 000 position updates, 10 000 position queries and
//! 10 000 range queries each of three sizes, load generated locally.

use crate::fixtures::{stored, table1_area, uniform_points};
use hiloc_core::model::semantics::qualifies_for_range;
use hiloc_core::model::LocationDescriptor;
use hiloc_geo::{Rect, Region};
use hiloc_storage::SightingDb;
use std::time::Instant;

/// One measured row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Operation name as printed by the paper.
    pub operation: &'static str,
    /// Measured operations per second.
    pub ops_per_s: f64,
    /// The paper's reported value (ops/s) for shape comparison.
    pub paper_ops_per_s: f64,
    /// Objects the row's queries returned, summed over all of them:
    /// found records for the position query, qualifying objects for a
    /// range query, 0 for the two write rows.
    pub hits: usize,
}

/// Runs the full Table 1 workload over the leaf's sighting database
/// (its quadtree) and returns the measured rows.
///
/// `objects` and `ops` default to the paper's 25 000 / 10 000 in the
/// experiments binary; tests use smaller sizes.
///
/// The 10 m range row qualifies nothing. Every object has 10 m
/// accuracy, and a disc of radius 10 m (314 m²) can have at most
/// 100/314 < ½ of its area inside a 10 m square (100 m²), so none
/// reaches the required overlap of ½.
///
/// # Panics
///
/// When the range rows' hits are not `10 m ≤ 100 m < 1 km`: a bigger
/// square must qualify more objects.
pub fn run(objects: usize, ops: usize, seed: u64) -> Vec<Table1Row> {
    let area = table1_area();
    let points = uniform_points(objects, area, seed);
    let mut rows = Vec::new();

    // Row 1: creating the index (bulk insert of the whole population).
    let mut db = SightingDb::new_quadtree();
    let t0 = Instant::now();
    for (i, p) in points.iter().enumerate() {
        db.upsert(stored(i as u64, *p));
    }
    let dt = t0.elapsed().as_secs_f64();
    rows.push(Table1Row {
        operation: "creating index",
        ops_per_s: objects as f64 / dt,
        paper_ops_per_s: 24_015.0,
        hits: 0,
    });

    // Row 2: position updates (move random objects to new positions).
    let new_positions = uniform_points(ops, area, seed ^ 0x1111);
    let t0 = Instant::now();
    for (i, p) in new_positions.iter().enumerate() {
        let key = (i * 7919 + 13) % objects;
        db.upsert(stored(key as u64, *p));
    }
    let dt = t0.elapsed().as_secs_f64();
    rows.push(Table1Row {
        operation: "position updates",
        ops_per_s: ops as f64 / dt,
        paper_ops_per_s: 41_494.0,
        hits: 0,
    });

    // Row 3: position queries (hash-index lookups).
    let t0 = Instant::now();
    let mut found = 0usize;
    for i in 0..ops {
        let key = (i * 104_729 + 7) % objects;
        if db.get(key as u64).is_some() {
            found += 1;
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(found, ops, "all objects must be found");
    rows.push(Table1Row {
        operation: "position query",
        ops_per_s: ops as f64 / dt,
        paper_ops_per_s: 384_615.0,
        hits: found,
    });

    // Rows 4-6: range queries of three sizes (the paper's 10 m, 100 m,
    // 1 km squares at random centers), including the exact overlap
    // qualification the leaf algorithm applies.
    for (label, extent, paper) in [
        ("range query (10 m x 10 m)", 10.0f64, 21_834.0),
        ("range query (100 m x 100 m)", 100.0, 18_450.0),
        ("range query (1 km x 1 km)", 1_000.0, 1_813.0),
    ] {
        let centers = uniform_points(ops, area, seed ^ extent.to_bits());
        let req_acc = 50.0;
        let req_overlap = 0.5;
        let t0 = Instant::now();
        let mut hits = 0usize;
        for c in &centers {
            let region = Region::from(Rect::from_center_size(*c, extent, extent));
            db.range_candidates(&region, req_acc, &mut |e| {
                let Some(rec) = db.get(e.key) else { return };
                let ld = LocationDescriptor { pos: e.pos, acc_m: rec.acc_sens_m };
                if qualifies_for_range(&region, &ld, req_acc, req_overlap) {
                    hits += 1;
                }
            });
        }
        let dt = t0.elapsed().as_secs_f64();
        rows.push(Table1Row {
            operation: label,
            ops_per_s: ops as f64 / dt,
            paper_ops_per_s: paper,
            hits,
        });
    }
    let [h10, h100, h1k] = [3, 4, 5].map(|i| rows[i].hits);
    assert!(
        h10 <= h100 && h100 < h1k,
        "range hits must grow with the square: {h10} / {h100} / {h1k}"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_all_rows_with_positive_rates() {
        let rows = run(2_000, 500, 42);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.ops_per_s > 0.0, "{} rate must be positive", r.operation);
        }
        assert_eq!(rows[3].hits, 0, "no 10 m-accuracy disc is half inside a 10 m square");
    }

    #[test]
    fn range_query_rate_decreases_with_area() {
        // The paper's qualitative shape: 10 m ≫ 1 km throughput.
        let rows = run(10_000, 1_000, 7);
        let small = rows.iter().find(|r| r.operation.contains("10 m x")).unwrap();
        let large = rows.iter().find(|r| r.operation.contains("1 km")).unwrap();
        assert!(
            small.ops_per_s > large.ops_per_s,
            "small-range {} <= large-range {}",
            small.ops_per_s,
            large.ops_per_s
        );
    }
}
