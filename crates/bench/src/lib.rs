//! The paper's artefacts, reproduced.
//!
//! Each paper artifact (Table 1, Table 2, Figures 3/4/6), each
//! ablation and the 1 M-object macro run has a `run*` function here
//! returning structured rows; the `experiments` binary is a thin
//! wrapper. Performance is measured elsewhere: `benchmark/` at the
//! repo root is the only place that is done (see its README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod fixtures;
pub mod geo;
pub mod macro_bench;
pub mod table1;
pub mod table2;

use std::fmt::Display;

/// Prints a markdown table.
pub fn print_table<H: Display, R: Display>(title: &str, headers: &[H], rows: &[Vec<R>]) {
    println!("\n## {title}\n");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("| {} |", head.join(" | "));
    println!("|{}|", head.iter().map(|h| "-".repeat(h.len() + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// Formats an ops/second rate like the paper ("41,494 1/s").
pub fn fmt_rate(ops_per_s: f64) -> String {
    let v = ops_per_s.round() as u64;
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    format!("{out} 1/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(41_494.2), "41,494 1/s");
        assert_eq!(fmt_rate(384_615.0), "384,615 1/s");
        assert_eq!(fmt_rate(95.0), "95 1/s");
        assert_eq!(fmt_rate(1_813.0), "1,813 1/s");
    }
}
