//! The full-stack benchmark of the ShareInsights reproduction.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, in this process
//! benchmark --seed <n> [--seconds <s>] [--trace <0|1>] [--repeat <n>] [--quick]
//!                                                  every workload, one child per pass
//! ```
//!
//! A single pass prints its findings to standard error and, as the last
//! line of standard output, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Without `--workload` the binary
//! runs every workload's timed and traced pass (or, with `--trace`, that
//! pass only), each in a child process of its own (clean peak memory,
//! clean caches), and prints every metric by name with its unit. See
//! `README.md` beside this crate.

mod gen;
mod harness;
mod http;
mod metrics;
mod stats;
mod sut;
mod trace;
mod workloads;

use harness::{Cfg, Report};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use sut::Json;

/// The measuring time when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

/// Write the traced pass's spans to `out/trace-<workload>.jsonl` beside
/// this crate's manifest.
pub fn write_trace(workload: &str, tracer: &trace::Tracer, report: &mut Report) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace`: the traced pass (1) or the timed one (0); both when the
    /// flag is absent and no `--workload` is given.
    traced: Option<bool>,
    quick: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: None,
        quick: false,
        repeat: 1,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                seconds_given = true;
            }
            "--trace" => {
                args.traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => args.quick = true,
            "--repeat" => args.repeat = value()?.parse().map_err(|_| "--repeat takes a count")?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if args.quick && !seconds_given {
        args.seconds = 2.0;
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload '{name}' (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The one-line result the driver reads.
fn result_line(report: &Report, traced: bool) -> String {
    let listed = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct && report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn run_single(name: &str, args: &Args) -> ExitCode {
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let traced = args.traced.unwrap_or(false);
    let awake = harness::Awake::start();
    let Some(report) = workloads::run(name, &cfg, traced) else {
        eprintln!("unknown workload '{name}'");
        return ExitCode::from(2);
    };
    eprintln!("[{name}] {} CPUs were kept from idling", awake.stop());
    for note in &report.notes {
        eprintln!("[{name}] {note}");
    }
    println!("{}", result_line(&report, traced));
    ExitCode::SUCCESS
}

/// The commit of the enclosing git checkout, read from its files.
fn commit() -> String {
    let repo: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(repo.join(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(reference) => read(repo.join(".git").join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(repo.join(".git/packed-refs"))?.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// One child pass: its parsed result line, or why there is none.
fn child_pass(workload: &str, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    for line in String::from_utf8_lossy(&out.stderr).lines() {
        println!("    {line}");
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("exit {:?}", out.status.code()));
    }
    sut::parse_json(last).ok_or_else(|| format!("no result line (got '{last}')"))
}

/// The metrics of a child's result line, in the order they are listed in.
fn metrics_of(doc: &Json, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    let listed = if traced { PER_LAYER } else { END_TO_END };
    listed
        .iter()
        .filter_map(|(name, unit)| {
            let value = doc.get("metrics")?.get(name)?.get("value")?;
            Some((*name, sut::json_num(value)?, *unit))
        })
        .collect()
}

fn run_all(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("ShareInsights full-stack benchmark");
    println!(
        "  nproc {nproc}, commit {}, seed {}, {} s per pass{}",
        commit(),
        args.seed,
        args.seconds,
        if args.quick {
            " (quick: tiny sizes, no gated numbers)"
        } else {
            ""
        }
    );
    println!("  ServeOptions: {}", sut::describe_options());
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut healthy = true;
    for round in 0..args.repeat.max(1) {
        // Alternate the order so no workload always runs on a hot box.
        let mut order: Vec<&str> = WORKLOADS.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            for traced in [false, true] {
                if args.traced.is_some_and(|only| only != traced) {
                    continue;
                }
                let pass = if traced { "traced pass" } else { "timed pass" };
                println!("== {workload}: {pass} (round {}) ==", round + 1);
                match child_pass(workload, args, traced) {
                    Ok(doc) => {
                        let correct = doc.get("correct") == Some(&Json::Bool(true));
                        let count = |k| doc.get(k).and_then(sut::json_num).unwrap_or(0.0);
                        println!(
                            "  correct {correct}, attempted {}, failed {}, fail_ratio {}",
                            count("attempted"),
                            count("failed"),
                            count("failed") / count("attempted").max(1.0)
                        );
                        healthy &= correct;
                        for (name, value, unit) in metrics_of(&doc, traced) {
                            println!("    {name:<40} {value:>16.4} {unit}");
                            if !traced {
                                samples.entry((workload, name)).or_default().push(value);
                            }
                        }
                    }
                    Err(why) => {
                        healthy = false;
                        println!("  FAILED: {why}");
                    }
                }
            }
        }
    }
    if args.repeat > 1 {
        println!(
            "== {} rounds: median [q1, q3] spread = (q3 - q1) / median ==",
            args.repeat
        );
        for ((workload, metric), values) in &samples {
            let [q1, _, q3] = stats::quartiles(values).unwrap_or([0.0; 3]);
            println!(
                "  {workload:<14} {metric:<12} {:>14.4} [{q1:.4}, {q3:.4}] spread {:.4}",
                stats::median(values),
                stats::rel_spread(values)
            );
        }
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_single(name, &args),
        None => run_all(&args),
    }
}
