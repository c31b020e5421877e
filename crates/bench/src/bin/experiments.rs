//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments table1            # Table 1: data-storage throughput
//! experiments table2            # Table 2: wall-clock latency + throughput
//! experiments table2-sim        # Table 2: virtual-time shape + message counts
//! experiments fig3              # Figure 3: range-query semantics
//! experiments fig4              # Figure 4: nearest-neighbor semantics
//! experiments fig6              # Figure 6: message flows
//! experiments caching           # §6.5 cache ablation
//! experiments hierarchy-sweep   # height/fan-out/locality sweep (§8)
//! experiments update-policy     # update protocol comparison (ref [15])
//! experiments geo               # geometry kernels (ns per call)
//! experiments macro             # million-object count-and-ratio run
//! experiments macro --json      # …writing BENCH_macro.json (--out <file>)
//! experiments validate-bench F  # strict util::json check of a macro report
//! experiments all               # everything above (except validate)
//! experiments all --quick       # reduced sizes (CI-friendly)
//! ```

use hiloc_bench::figures::{fig3, fig4, fig6, involved_servers};
use hiloc_bench::macro_bench::{self, MacroConfig};
use hiloc_bench::{ablations, fmt_rate, geo, print_table, table1, table2};
use std::time::Duration;

struct Scale {
    t1_objects: usize,
    t1_ops: usize,
    t2_objects: u64,
    t2_latency_ops: usize,
    t2_threads: usize,
    t2_duration_ms: u64,
    sweep_objects: u64,
    sweep_queries: usize,
    policy_objects: u64,
    policy_minutes: f64,
    geo_iters: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            t1_objects: 25_000,
            t1_ops: 10_000,
            t2_objects: 10_000,
            t2_latency_ops: 300,
            t2_threads: 8,
            t2_duration_ms: 1_000,
            sweep_objects: 2_000,
            sweep_queries: 200,
            policy_objects: 150,
            policy_minutes: 5.0,
            geo_iters: 1_000_000,
        }
    }

    fn quick() -> Self {
        Scale {
            t1_objects: 5_000,
            t1_ops: 2_000,
            t2_objects: 1_000,
            t2_latency_ops: 50,
            t2_threads: 4,
            t2_duration_ms: 250,
            sweep_objects: 300,
            sweep_queries: 40,
            policy_objects: 40,
            policy_minutes: 2.0,
            geo_iters: 100_000,
        }
    }
}

const SEED: u64 = 0x10CA_7E57;

/// The parsed command line.
struct Args {
    quick: bool,
    json: bool,
    /// Where `macro --json` writes its report.
    out: String,
    positional: Vec<String>,
}

/// Parses the arguments after the program name. The flags are
/// `--quick`, `--json` and `--out <file>`. A missing file, a file that
/// starts with `-`, or any other flag is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut quick, mut json, mut out, mut positional) = (false, false, None, Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--out" => match it.next() {
                Some(path) if !path.starts_with('-') => out = Some(path.clone()),
                _ => return Err("--out needs a file name".into()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => positional.push(a.clone()),
        }
    }
    // A quick run must never silently clobber a committed full-scale
    // baseline at the default path.
    let out = out.unwrap_or_else(|| {
        if quick { "BENCH_macro_quick.json" } else { "BENCH_macro.json" }.to_string()
    });
    Ok(Args { quick, json, out, positional })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { quick, json, out: macro_out, positional } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        eprintln!("usage: experiments [<experiment> [<file>]] [--quick] [--json] [--out <file>]");
        std::process::exit(2);
    });
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let cmd = positional.first().map_or("all", String::as_str);

    match cmd {
        "table1" => run_table1(&scale),
        "table2" => run_table2(&scale),
        "table2-sim" => run_table2_sim(&scale),
        "fig3" => run_fig3(),
        "fig4" => run_fig4(),
        "fig6" => run_fig6(),
        "caching" => run_caching(&scale),
        "hierarchy-sweep" => run_sweep(&scale),
        "update-policy" => run_policies(&scale),
        "geo" => run_geo(&scale),
        "macro" => run_macro(quick, json, &macro_out),
        "validate-bench" => {
            let Some(path) = positional.get(1) else {
                eprintln!("usage: experiments validate-bench <BENCH_*.json>");
                std::process::exit(2);
            };
            validate_bench(path);
        }
        "all" => {
            run_table1(&scale);
            run_table2(&scale);
            run_table2_sim(&scale);
            run_fig3();
            run_fig4();
            run_fig6();
            run_caching(&scale);
            run_sweep(&scale);
            run_policies(&scale);
            run_geo(&scale);
            run_macro(quick, json, &macro_out);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "known: table1 table2 table2-sim fig3 fig4 fig6 caching hierarchy-sweep \
                 update-policy geo macro validate-bench all"
            );
            std::process::exit(2);
        }
    }
}

fn run_geo(scale: &Scale) {
    let rows: Vec<Vec<String>> = geo::run(scale.geo_iters)
        .iter()
        .map(|(kernel, ns)| vec![kernel.to_string(), format!("{ns:.1} ns")])
        .collect();
    print_table("Geometry kernels (per call)", &["kernel", "time"], &rows);
}

fn run_macro(quick: bool, json: bool, out_path: &str) {
    let cfg = if quick { MacroConfig::quick() } else { MacroConfig::full() };
    let report = macro_bench::run(&cfg);

    let u = &report.updates;
    print_table(
        &format!(
            "Macro benchmark: {} objects, {} servers ({} levels), {:.1} km area",
            report.config.objects,
            report.servers,
            report.config.total_levels(),
            report.config.area_m / 1_000.0
        ),
        &["phase", "sent", "acks", "handovers", "deregistered", "lost"],
        &[vec![
            format!("updates ({} steps)", u.steps),
            u.sent.to_string(),
            u.acks.to_string(),
            u.handovers.to_string(),
            u.deregistered.to_string(),
            u.lost.to_string(),
        ]],
    );
    let phases: Vec<Vec<String>> = report
        .query_phases
        .iter()
        .map(|p| {
            let mut row = vec![format!("caches {}", p.caches)];
            row.extend(p.counts.iter().map(u64::to_string));
            row.push(format!("{:.2}", p.msgs_per_query()));
            row.push(format!("{:.1}%", p.hit_rate() * 100.0));
            row
        })
        .collect();
    print_table(
        "Macro query phases: Zipf-skewed mix, the same queries with caches off and on",
        &["phase", "pos", "range", "nn", "msgs/query", "cache hits"],
        &phases,
    );
    let levels: Vec<Vec<String>> = report
        .levels
        .iter()
        .map(|l| {
            vec![
                l.level.to_string(),
                l.servers.to_string(),
                l.update_msgs_in.to_string(),
                l.query_off_msgs_in.to_string(),
                l.query_on_msgs_in.to_string(),
            ]
        })
        .collect();
    print_table(
        "Per-level message amplification (msgs consumed per phase)",
        &["level", "servers", "updates", "queries (caches off)", "queries (caches on)"],
        &levels,
    );

    if json {
        let text = report.to_json(quick).to_string_pretty();
        macro_bench::validate_report(&text).expect("self-produced report must validate");
        std::fs::write(out_path, text + "\n").expect("write bench report");
        println!("\nwrote {out_path}");
    }
}

fn validate_bench(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate-bench: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match macro_bench::validate_report(&text) {
        Ok(()) => println!("{path}: valid {} report", macro_bench::SCHEMA),
        Err(e) => {
            eprintln!("validate-bench: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn run_table1(scale: &Scale) {
    let rows = table1::run(scale.t1_objects, scale.t1_ops, SEED);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.operation.to_string(),
                fmt_rate(r.ops_per_s),
                fmt_rate(r.paper_ops_per_s),
                format!("{:.2}x", r.ops_per_s / r.paper_ops_per_s),
                r.hits.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Table 1: data-storage throughput ({} objects, {} ops/row, 10 km x 10 km, point quadtree)",
            scale.t1_objects, scale.t1_ops
        ),
        &["operation", "measured", "paper (2001 hardware)", "ratio", "hits"],
        &table,
    );
}

fn run_table2(scale: &Scale) {
    let rows = table2::run_threaded(
        scale.t2_objects,
        scale.t2_latency_ops,
        scale.t2_threads,
        Duration::from_millis(scale.t2_duration_ms),
        SEED,
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (paper_ms, paper_tp) = r.op.paper();
            vec![
                r.op.label().to_string(),
                format!("{:.3} ms", r.mean_latency_ms),
                fmt_rate(r.throughput_per_s),
                format!("{paper_ms:.1} ms"),
                fmt_rate(paper_tp),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Table 2: threaded deployment, wall clock ({} objects, {} latency ops, {} load threads x {} ms)",
            scale.t2_objects, scale.t2_latency_ops, scale.t2_threads, scale.t2_duration_ms
        ),
        &["operation", "response time", "throughput", "paper rt", "paper tp"],
        &table,
    );
}

fn run_table2_sim(scale: &Scale) {
    let rows = table2::run_sim(scale.t2_objects, scale.t2_latency_ops, SEED);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (paper_ms, _) = r.op.paper();
            vec![
                r.op.label().to_string(),
                format!("{:.3} ms", r.virtual_ms),
                format!("{:.1}", r.messages),
                format!("{paper_ms:.1} ms"),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Table 2 (virtual time): LAN latency model, {} objects — response-time shape and exact message counts",
            scale.t2_objects
        ),
        &["operation", "virtual response time", "messages/op", "paper rt"],
        &table,
    );
}

fn run_fig3() {
    let (rows, req_overlap, req_acc) = fig3();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.0}%", r.overlap * 100.0),
                format!("{:.0} m", r.acc_m),
                if r.included { "included".into() } else { "not included".into() },
                r.expected.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 3: range-query semantics (reqOverlap = {req_overlap}, reqAcc = {req_acc} m)"),
        &["object", "overlap", "accuracy", "outcome", "paper annotation"],
        &table,
    );
}

fn run_fig4() {
    let r = fig4();
    print_table(
        "Figure 4: nearest-neighbor semantics (reqAcc = 30 m, nearQual = 40 m)",
        &["quantity", "value"],
        &[
            vec!["returned object".to_string(), r.nearest.to_string()],
            vec!["distance to ld(o).pos".to_string(), format!("{:.1} m", r.nearest_dist_m)],
            vec!["guaranteed minimal distance".to_string(), format!("{:.1} m", r.guaranteed_min_m)],
            vec!["nearObjSet".to_string(), format!("{:?}", r.near_set)],
            vec!["excluded (insufficient accuracy)".to_string(), format!("{:?}", r.excluded)],
        ],
    );
}

fn run_fig6() {
    let flows = fig6();
    for (name, flow) in [
        ("handover (adjacent leaves, common parent)", &flows.handover),
        ("remote position query (crosses the root)", &flows.pos_query),
        ("range query (spans two remote leaves)", &flows.range_query),
    ] {
        let table: Vec<Vec<String>> = flow
            .iter()
            .map(|h| vec![h.label.to_string(), h.from.clone(), h.to.clone()])
            .collect();
        print_table(
            &format!("Figure 6 flow: {name} — servers involved: {:?}", involved_servers(flow)),
            &["message", "from", "to"],
            &table,
        );
    }
}

fn run_caching(scale: &Scale) {
    let rows = ablations::run_caching(scale.sweep_objects.min(2_000), 50, SEED);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                format!("{:.3} ms", r.pos_ms),
                format!("{:.1}", r.pos_msgs),
                format!("{:.3} ms", r.range_ms),
                format!("{:.1}", r.range_msgs),
            ]
        })
        .collect();
    print_table(
        "Caching ablation (§6.5): repeated remote queries, virtual time",
        &["configuration", "pos query rt", "pos msgs/op", "range query rt", "range msgs/op"],
        &table,
    );
}

fn run_sweep(scale: &Scale) {
    let rows = ablations::run_hierarchy_sweep(
        &[(1, 2), (1, 4), (2, 2), (3, 2)],
        &[0.5, 0.9],
        scale.sweep_objects,
        scale.sweep_queries,
        SEED,
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("levels={} k={} ({} servers)", r.levels, r.fanout_k, r.servers),
                format!("{:.2}", r.locality),
                format!("{:.1}", r.pos_msgs),
                format!("{:.3} ms", r.pos_ms),
                format!("{:.1}", r.range_msgs),
                format!("{:.3} ms", r.range_ms),
            ]
        })
        .collect();
    print_table(
        "Hierarchy sweep (§8): shape x locality, 4 km x 4 km area",
        &["shape", "locality", "pos msgs/op", "pos rt", "range msgs/op", "range rt"],
        &table,
    );
}

fn run_policies(scale: &Scale) {
    let rows = ablations::run_update_policies(scale.policy_objects, scale.policy_minutes, SEED);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                format!("{:.2} m/s", r.speed_mps),
                format!("{:.2}", r.updates_per_obj_min),
                format!("{:.3}", r.handovers_per_obj_min),
            ]
        })
        .collect();
    print_table(
        "Update-policy sweep (ref [15]/[24]): random waypoint on the Fig. 8 testbed",
        &["policy", "speed", "updates/obj/min", "handovers/obj/min"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn out_takes_a_file_name_or_is_a_usage_error() {
        let a = parse("macro --json --out target/m.json --quick").unwrap();
        assert_eq!(a.out, "target/m.json");
        assert!(a.quick && a.json);
        assert_eq!(a.positional, ["macro"]);
        // The next flag is not a file name, and a trailing `--out` has
        // none: neither may fall back to a default path.
        assert!(parse("macro --json --out --quick").is_err());
        assert!(parse("macro --json --quick --out").is_err());
        assert!(parse("macro --qiuck").is_err());
    }

    #[test]
    fn a_quick_run_never_defaults_to_the_committed_baseline() {
        assert_eq!(parse("macro --json --quick").unwrap().out, "BENCH_macro_quick.json");
        assert_eq!(parse("macro --json").unwrap().out, "BENCH_macro.json");
        assert_eq!(parse("validate-bench F").unwrap().positional, ["validate-bench", "F"]);
    }
}
