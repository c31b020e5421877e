//! Command line: the driver's contract (`--workload … --trace 0|1`),
//! and the commands people type (`all`, `trace`, `--aa n`, `--smoke`).

use crate::catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::real::{self, RunOpts};
use crate::report::{self, Set};
use crate::sut::Json;
use crate::trace;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Seconds of measured window when none is given: what `BENCHMARK.json`
/// passes as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "\
usage: hiloc-bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]   one run, JSON result on the last line
       hiloc-bench all   [--seed n] [--seconds s] [--smoke] [--aa n]          every workload, every end-to-end metric
       hiloc-bench trace [--seed n] [--seconds s] [--smoke]                   every workload, every per-layer metric
workloads: update_storm query_mix city_mix churn_durable";

/// Parsed arguments.
#[derive(Debug, Clone)]
struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        aa: 0,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => a.trace = value("--trace")? == "1",
            "--aa" => a.aa = value("--aa")?.parse().map_err(|_| "--aa takes a count")?,
            "--smoke" => a.smoke = true,
            "all" | "trace" if a.command.is_none() => a.command = Some(arg.clone()),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 2.0 } else { DEFAULT_SECONDS })
    }

    fn run_opts(&self, workload: Workload) -> RunOpts {
        RunOpts {
            workload,
            seed: self.seed,
            seconds: self.seconds(),
            smoke: self.smoke,
            repeat_setup: true,
        }
    }
}

/// Entry point of `hiloc-bench`.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("hiloc-bench: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload) {
        (None, Some(w)) => one_run(&args, w),
        (Some("all"), _) if args.aa > 0 => aa(&args),
        (Some("all"), _) => summary(&args, false),
        (Some("trace"), _) => summary(&args, true),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn verdict(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The driver's contract: one workload, one JSON object on the last
/// line — end-to-end metrics untraced, per-layer metrics traced.
fn one_run(args: &Args, w: Workload) -> ExitCode {
    if !args.trace {
        let r = real::run(args.run_opts(w));
        report::print_real(w, &r);
        let metrics: Vec<(&MetricDef, f64)> = END_TO_END
            .iter()
            .filter_map(|d| r.e2e.get(d.name).map(|s| (d, s.median)))
            .collect();
        let complete = metrics.len() == END_TO_END.len();
        println!(
            "{}",
            report::result_line(r.correct && complete, r.attempted, r.failed, &metrics)
        );
        return verdict(r.correct && complete);
    }
    // One set-up is enough when set-up time is not the subject.
    let r = real::run(RunOpts {
        repeat_setup: false,
        ..args.run_opts(w)
    });
    let layers = match trace::traced_layers(w, args.seed, args.smoke, &r) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("hiloc-bench: traced run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    report::print_real(w, &r);
    report::print_layers(w, &layers);
    // The contract wants every per-layer metric on every workload; a
    // row the workload does not exercise reads 0 there (and is left out
    // of the table above).
    let metrics: Vec<(&MetricDef, f64)> = PER_LAYER
        .iter()
        .map(|d| (d, layers.values.get(d.name).copied().unwrap_or(0.0)))
        .collect();
    let correct = r.correct && layers.correct;
    println!(
        "{}",
        report::result_line(correct, r.attempted, r.failed, &metrics)
    );
    verdict(correct)
}

/// Runs `exe` with `args` as a child process and returns the JSON
/// object on the last line of its output, which is echoed when `echo`.
pub fn child_json(exe: &Path, args: &[String], echo: bool) -> Result<Json, String> {
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    if !out.status.success() {
        return Err(format!("{} exited with {}", exe.display(), out.status));
    }
    Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} printed no result: {e}", exe.display()))
}

fn child_args(args: &Args, w: Workload, trace: bool) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        w.name().to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds().to_string(),
        "--trace".to_string(),
        (trace as u8).to_string(),
    ];
    if args.smoke {
        v.push("--smoke".to_string());
    }
    v
}

/// The metric values of a child's result line.
fn metric_values(json: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(fields)) = json.get("metrics") {
        for (name, m) in fields {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.insert(name.clone(), v);
            }
        }
    }
    out
}

/// Every workload in a fresh child process each.
fn run_set(args: &Args, trace: bool) -> Result<Set, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        println!(
            "== {} (seed {}, {} s window) ==",
            w.name(),
            args.seed,
            args.seconds()
        );
        let json = child_json(&exe, &child_args(args, w, trace), true)
            .map_err(|e| format!("{}: {e}", w.name()))?;
        rows.push((w, metric_values(&json)));
        println!();
    }
    Ok(rows)
}

/// `all` (end-to-end metrics) and `trace` (per-layer metrics): the set,
/// then one table with a column per workload.
fn summary(args: &Args, trace: bool) -> ExitCode {
    match run_set(args, trace) {
        Ok(rows) => {
            let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
            report::print_summary(defs, &rows);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hiloc-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A/A: the full set `n` times on the same build and seed; per workload
/// × end-to-end metric the min / median / max and the spread against
/// the metric's bound. Non-zero exit when a spread exceeds its bound.
fn aa(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for round in 1..=args.aa {
        println!("#### A/A round {round} of {} ####", args.aa);
        match run_set(args, false) {
            Ok(rows) => sets.push(rows),
            Err(e) => {
                eprintln!("hiloc-bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    verdict(report::print_aa(&sets))
}
