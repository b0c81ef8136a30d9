//! The fepia benchmark: four served workloads, their end-to-end metrics,
//! and an outside-in layer waterfall.
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! benchmark --compare <parent-dir> <change-dir>
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is the result object. Without it, every workload
//! runs in a child process of its own and each metric is printed as
//! `workload metric value unit`. Result files go to
//! `$FEPIA_RESULTS/benchmark/` (default `results/benchmark/`). The exit
//! code is non-zero when any correctness oracle fails.

mod optimize;
mod oracle;
mod report;
mod served;
mod stack;
mod waterfall;

use fepia_benchmark::json::Json;
use fepia_benchmark::measure;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = ["probe", "churn", "curve", "optimize"];
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

fn default_seed(workload: &str) -> u64 {
    match workload {
        "probe" => 9001,
        "churn" => 77,
        "curve" => 9009,
        _ => 2003,
    }
}

struct Args {
    workload: Option<&'static str>,
    seed: Option<u64>,
    seconds: u64,
    traced: bool,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    let number = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let w = it.next().ok_or("--workload needs a name")?;
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|&k| k == w)
                        .ok_or(format!("unknown workload {w:?}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => args.seed = Some(number(it.next(), "--seed")?),
            "--seconds" => args.seconds = number(it.next(), "--seconds")?.max(1),
            "--trace" => args.traced = number(it.next(), "--trace")? != 0,
            "--quick" => args.quick = true,
            "--compare" => {
                let parent = it.next().ok_or("--compare needs two directories")?;
                let change = it.next().ok_or("--compare needs two directories")?;
                args.compare = Some((parent.into(), change.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn results_dir() -> PathBuf {
    std::env::var_os("FEPIA_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
        .join("benchmark")
}

/// Runs one workload in this process and prints its result line last.
fn run_one(workload: &'static str, args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or_else(|| default_seed(workload));
    let mut report = Report::new(workload, seed, args.traced);
    let dir = results_dir();
    let stem = format!(
        "{workload}-s{seed}{}",
        if args.traced { "-traced" } else { "" }
    );
    let spans = (args.traced && std::fs::create_dir_all(&dir).is_ok())
        .then(|| dir.join(format!("{workload}-s{seed}-spans.jsonl")));
    let ran = if workload == "optimize" {
        let w = optimize::Optimize::new(seed, args.seconds, args.quick);
        optimize::run(&w, args.traced, spans, &mut report)
    } else {
        let w = served::Served::new(workload, seed, args.seconds, args.quick);
        served::run(&w, args.traced, spans, &mut report)
    };
    if let Err(e) = ran {
        report.errors.push(e);
    }

    for note in &report.notes {
        println!("# {note}");
    }
    for e in &report.errors {
        println!("# ORACLE FAILED: {e}");
    }
    for m in report.reported() {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), report.file_json()))
    {
        eprintln!("benchmark: cannot write results to {}: {e}", dir.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and prints each
/// metric as `workload metric value unit`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("benchmark: cannot run {workload}: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| l.starts_with('#')) {
            println!("# {workload}: {}", line.trim_start_matches("# "));
        }
        let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let correct = result
            .as_ref()
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool);
        if !out.status.success() || correct != Some(true) {
            eprintln!("benchmark: {workload} failed ({})", out.status);
            ok = false;
        }
        if let Some(Json::Object(metrics)) = result.as_ref().and_then(|r| r.get("metrics")) {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                rows.push(format!("{workload} {name} {value} {unit}"));
            }
        }
    }
    for row in rows {
        println!("{row}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the parent-versus-change table from two result directories;
/// returns whether any row regressed or is broken.
fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let declared = measure::declared_end_to_end(&Json::parse(&text)?)?;
    let (table, failed) = measure::compare(
        &measure::load_runs(parent)?,
        &measure::load_runs(change)?,
        &declared,
    );
    print!("{table}");
    Ok(failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]\n       benchmark --compare <parent-dir> <change-dir>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        return match compare(parent, change) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
