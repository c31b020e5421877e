//! What the benchmark prints: metric tables for people, and the one
//! JSON object on the last line that the driver reads.

use crate::catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::hist::window_stat;
use crate::real::RealResult;
use crate::trace::Layers;
use std::collections::BTreeMap;

/// One set of runs: each workload's metric values by name.
pub type Set = Vec<(Workload, BTreeMap<String, f64>)>;

/// The driver's result object. Values carry every digit measured.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// One real run: end-to-end metrics (median of the sub-windows, their
/// min and max beside it), per-kind latencies with sample counts, and
/// what the checks found.
pub fn print_real(w: Workload, r: &RealResult) {
    println!(
        "{:<22} {:>14}  {:<5} [sub-window min .. max]",
        w.name(),
        "median",
        "unit"
    );
    for d in &END_TO_END {
        if let Some(s) = r.e2e.get(d.name) {
            println!(
                "  {:<20} {:>14.3}  {:<5} [{:.3} .. {:.3}]",
                d.name, s.median, d.unit, s.min, s.max
            );
        }
    }
    for (name, s) in &r.kinds {
        let kind = name.split('_').next().unwrap_or("");
        let n = crate::catalog::Kind::ALL
            .iter()
            .find(|k| k.name() == kind)
            .map_or(0, |k| r.samples[*k as usize]);
        println!(
            "  {:<20} {:>14.3}  {:<5} [{:.3} .. {:.3}]  n={n}",
            name, s.median, "us", s.min, s.max
        );
    }
    println!(
        "  attempted {}  failed {}  answers, books{} checked: {}",
        r.attempted,
        r.failed,
        if w == Workload::ChurnDurable {
            ", durability"
        } else {
            ""
        },
        if r.correct { "ok" } else { "VIOLATED" }
    );
    for v in &r.violations {
        println!("  VIOLATION: {v}");
    }
}

/// The per-layer rows a workload exercises (others are left out, not
/// printed as zero).
pub fn print_layers(w: Workload, l: &Layers) {
    println!(
        "{:<40} {:>14}  unit",
        format!("{} per layer", w.name()),
        "value"
    );
    for d in &PER_LAYER {
        if let Some(v) = l.values.get(d.name) {
            println!("  {:<38} {:>14.4}  {}", d.name, v, d.unit);
        }
    }
    if !l.correct {
        println!("  VIOLATION: the inline replay failed the oracle");
    }
}

/// One table: a row per metric, a column per workload.
pub fn print_summary(defs: &[MetricDef], rows: &Set) {
    print!("{:<38} {:<6}", "metric", "unit");
    for (w, _) in rows {
        print!(" {:>15}", w.name());
    }
    println!();
    for d in defs {
        print!("{:<38} {:<6}", d.name, d.unit);
        for (_, m) in rows {
            match m.get(d.name) {
                Some(v) => print!(" {:>15.4}", v),
                None => print!(" {:>15}", "-"),
            }
        }
        println!();
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (what the driver uses); `v` sorted, at least two values.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let at = |k: f64| {
        let pos = (k * (v.len() + 1) as f64 / 4.0).clamp(1.0, v.len() as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(1.0), at(3.0))
}

/// The A/A table; `true` when every spread stays inside its bound.
/// Spread = distance between the quartiles ÷ median over the sets, as
/// the driver computes it; with fewer than four sets, (max − min) ÷
/// median.
pub fn print_aa(sets: &[Set]) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for w in Workload::ALL {
        for d in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.iter().find(|(sw, _)| *sw == w))
                .filter_map(|(_, m)| m.get(d.name).copied())
                .collect();
            let Some(s) = window_stat(&values) else {
                println!("{:<14} {:<12} missing", w.name(), d.name);
                ok = false;
                continue;
            };
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
            let spread = if sorted.len() >= 4 {
                let (q1, q3) = quartiles(&sorted);
                (q3 - q1) / s.median
            } else {
                (s.max - s.min) / s.median
            };
            let bound = d.bound.unwrap_or(f64::INFINITY);
            let verdict = if spread <= bound { "" } else { "  EXCEEDS" };
            ok &= spread <= bound;
            println!(
                "{:<14} {:<12} {:>14.3} {:>14.3} {:>14.3} {:>7.1}% {:>6.0}%{verdict}",
                w.name(),
                d.name,
                s.min,
                s.median,
                s.max,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
    }
}
