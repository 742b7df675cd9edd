//! The repo benchmark. `README.md` in this directory has the workload and
//! metric tables; `../BENCHMARK.json` names the same things for the driver.
//!
//! ```text
//! cyclops-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! cyclops-benchmark compare OLD.json NEW.json
//! cyclops-benchmark noise [--seed N] [--seconds S] [--quick] [--out PREFIX]
//! cyclops-benchmark list
//! cyclops-benchmark rss-probe --workload NAME [--seed N]
//! ```

mod adapter;
mod compare;
mod json;
mod measure;
mod metrics;
mod record;
mod stats;
mod workloads;

use compare::SuiteRecord;
use json::Value;
use measure::Options;
use record::PassRecord;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, WORKLOADS};

/// The measuring window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
const DEFAULT_SECONDS: f64 = 14.0;
/// Prefix of the line on which a single-workload run prints its full record
/// (dispersion, spans, load), for the suite to collect.
const RECORD_PREFIX: &str = "record ";

const USAGE: &str = "usage:
  cyclops-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
      one workload and one pass in this process, or (no --workload) every
      workload, both passes, each in a fresh child process; --quick is a
      smoke test (sizes / 8, one run, counts only)
  cyclops-benchmark compare OLD.json NEW.json
      one row per workload x metric; exits 1 on a regression
  cyclops-benchmark noise [--seed N] [--seconds S] [--quick] [--out PREFIX]
      two full sets on the same build, compared; exits 1 if they disagree
  cyclops-benchmark list
      workload and metric names
  cyclops-benchmark rss-probe --workload NAME [--seed N]
      what `run` starts for each memory reading: generate, set up, one driver
      call; prints this process's VmHWM in kB";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => match args.workload.clone() {
            Some(name) => run_one(&name, &args),
            None => run_suite(&args).and_then(|suite| finish_suite(&suite, args.out.as_deref())),
        },
        "compare" => compare_files(&args.positional),
        "noise" => noise(&args),
        "list" => {
            list();
            Ok(true)
        }
        measure::RSS_PROBE_COMMAND => {
            let name = args
                .workload
                .as_deref()
                .ok_or("rss-probe needs --workload")?;
            println!("{}", measure::rss_probe(find_workload(name)?, args.seed));
            Ok(true)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn list() {
    for w in &WORKLOADS {
        println!("workload {:<18} {}", w.name, w.why);
    }
    for (scope, defs) in [
        ("end_to_end", &metrics::END_TO_END[..]),
        ("per_layer", &metrics::PER_LAYER[..]),
    ] {
        for d in defs {
            let bound = d.bound.map_or(String::new(), |b| format!(" bound {b}"));
            println!(
                "{scope} {:<30} {:<6} {}{bound}",
                d.name,
                d.unit,
                d.better.label()
            );
        }
    }
}

/// `name unit value` lines; where a metric was sampled, the dispersion of
/// its per-sub-window estimates and the median over every sample follow.
fn echo(prefix: &str, pass: &PassRecord) {
    for m in &pass.metrics {
        match m.dispersion {
            Some(d) => println!(
                "{prefix}{} {} {} windows={} q1={} median={} q3={} max={} calls={} calls_median={}",
                m.name,
                m.unit,
                m.value,
                d.windows.n,
                d.windows.q1,
                d.windows.median,
                d.windows.q3,
                d.windows.max,
                d.calls.n,
                d.calls.median
            ),
            None => println!("{prefix}{} {} {}", m.name, m.unit, m.value),
        }
    }
    for e in &pass.errors {
        println!("{prefix}error: {e}");
    }
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// One workload, one pass, in this process. The last line of standard output
/// is the contract's result object.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let w = find_workload(name)?;
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let pass = if args.traced {
        measure::per_layer(w, opts)
    } else {
        measure::end_to_end(w, opts)
    };
    echo("", &pass);
    if let Some(path) = &args.out {
        std::fs::write(path, pass.to_json().write_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{RECORD_PREFIX}{}", pass.to_json().write());
    println!("{}", pass.contract_line());
    Ok(true)
}

/// Runs `run --workload NAME --trace T` in a fresh child process of this
/// executable and returns the record it printed. One child at a time: the
/// box has two cores and every workload uses both.
fn child_pass(w: &Workload, args: &Args, traced: bool) -> Result<PassRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {traced}) exited with {}",
            w.name, output.status
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|l| l.strip_prefix(RECORD_PREFIX))
        .and_then(|text| json::parse(text).ok())
        .and_then(|v| PassRecord::from_json(&v))
        .ok_or_else(|| format!("{} (trace {traced}) printed no record", w.name))
}

/// A pass whose child died: every metric zero, one failed run.
fn dead_pass(w: &Workload, args: &Args, traced: bool, why: String) -> PassRecord {
    let defs: &'static [metrics::MetricDef] = if traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    PassRecord {
        workload: w.name.to_string(),
        seed: args.seed,
        traced,
        attempted: 1,
        failed: 1,
        errors: vec![why],
        metrics: record::MetricSet::new(defs).finish(),
        spans: Vec::new(),
        loadavg: ["unknown".into(), "unknown".into()],
    }
}

/// Every workload, both passes, sequentially, each in its own process.
fn run_suite(args: &Args) -> Result<SuiteRecord, String> {
    let load_before = measure::loadavg();
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let pass = |traced: bool| {
            child_pass(w, args, traced).unwrap_or_else(|why| {
                eprintln!("error: {why}");
                dead_pass(w, args, traced, why)
            })
        };
        let (e2e, layers) = (pass(false), pass(true));
        echo(&format!("{} ", w.name), &e2e);
        echo(&format!("{} ", w.name), &layers);
        println!(
            "{} failed_runs count {} of {}",
            w.name,
            e2e.failed + layers.failed,
            e2e.attempted + layers.attempted
        );
        workloads.push((e2e, layers));
    }
    Ok(SuiteRecord {
        provenance: Value::obj([
            ("commit", Value::Str(git_commit())),
            ("rustc", Value::Str(rustc_version())),
            (
                "nproc",
                Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("quick", Value::Bool(args.quick)),
            ("loadavg_before", Value::Str(load_before)),
            ("loadavg_after", Value::Str(measure::loadavg())),
        ]),
        workloads,
    })
}

fn finish_suite(suite: &SuiteRecord, out: Option<&str>) -> Result<bool, String> {
    if let Some(path) = out {
        std::fs::write(path, suite.to_json().write_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let failed: u64 = suite
        .workloads
        .iter()
        .map(|(e, l)| e.failed + l.failed)
        .sum();
    println!("failed_runs total {failed}");
    Ok(failed == 0)
}

fn load_suite(path: &str) -> Result<SuiteRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    SuiteRecord::from_json(&value).ok_or_else(|| format!("{path}: not a benchmark record"))
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [old, new] = paths else {
        return Err(format!("compare takes OLD.json NEW.json\n{USAGE}"));
    };
    let rows = compare::compare(&load_suite(old)?, &load_suite(new)?);
    print!("{}", compare::render(&rows));
    let count = |f: fn(&compare::Row) -> bool| rows.iter().filter(|r| f(r)).count();
    let failing = count(|r| r.verdict.fails());
    println!(
        "{} rows: {failing} failing, {} unresolved",
        rows.len(),
        count(|r| r.verdict == compare::Verdict::Unresolved)
    );
    Ok(failing == 0)
}

/// Two full sets back to back on the same build, compared with `compare`:
/// if they disagree, the benchmark is too noisy for its own bounds.
fn noise(args: &Args) -> Result<bool, String> {
    let (a, b) = (run_suite(args)?, run_suite(args)?);
    if let Some(prefix) = &args.out {
        for (suffix, suite) in [("a", &a), ("b", &b)] {
            let path = format!("{prefix}.{suffix}.json");
            std::fs::write(&path, suite.to_json().write_pretty())
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    let rows = compare::compare(&a, &b);
    let disagree: Vec<compare::Row> = rows
        .iter()
        .filter(|r| r.verdict.disagrees())
        .cloned()
        .collect();
    print!("{}", compare::render(&disagree));
    println!(
        "noise: {} of {} rows disagree between two sets of the same build",
        disagree.len(),
        rows.len()
    );
    Ok(disagree.is_empty())
}

/// The checked-out commit, read from `.git` in the working directory without
/// starting a process; "unknown" in an exported tree.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests;
