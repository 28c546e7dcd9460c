//! Edit-to-artifact latency benchmark for the yalla tool.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <edit-loop|mega-fanout|serve-autosave> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a report (envelope, one row per
//! metric and scope with its sample count, and with `--trace 1` the layer
//! self-time table) and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the
//! span dump is written to `perfbench/out/`. Exits non-zero when any
//! operation fails or an output differs from its oracle.

mod common;
mod edit_loop;
mod layers;
mod mega;
mod mem;
mod serve;
mod spans;
mod stats;
mod stream;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Args, Run, WORKERS};

const WORKLOADS: [&str; 3] = ["edit-loop", "mega-fanout", "serve-autosave"];

const USAGE: &str =
    "usage: perfbench --workload <edit-loop|mega-fanout|serve-autosave> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit the benchmark runs on, from `.git` when the checkout has one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The workloads choose their stores explicitly; an inherited cache
    // directory would make the oracle's cold runs disk-warm.
    std::env::remove_var("YALLA_CACHE_DIR");
    let out_dir = PathBuf::from("perfbench/out");
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run_workload(args.clone(), dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    let mut run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    run.info.insert(0, ("git_rev".into(), git_rev()));
    run.info.insert(1, ("workers".into(), WORKERS.to_string()));
    run.info.insert(
        2,
        (
            "host_cpus".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
    );
    if let Some((hwm, _)) = mem::sample() {
        run.row("peak_rss_mb", "all", Some(hwm), "MB", 1);
    }
    let ratio = run.failed as f64 / run.attempted.max(1) as f64;
    run.row(
        "fail_ratio",
        "all",
        Some(ratio),
        "ratio",
        run.attempted as usize,
    );
    run.print_report();

    if args.trace {
        if let Some(replay) = &run.replay {
            let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
            match std::fs::write(&path, replay.log.to_json()) {
                Ok(()) => println!("# span dump: {}", path.display()),
                Err(e) => run.fail(format!("span dump {}: {e}", path.display())),
            }
        }
    }
    for f in run.failures() {
        eprintln!("perfbench: FAILED: {f}");
    }
    let metrics = match run.result_metrics() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = run.failed == 0 && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.attempted, run.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(args: Args, dir: PathBuf) -> Result<Run, String> {
    let mut run = Run::new(args, dir).map_err(|e| format!("set-up: {e}"))?;
    match run.args.workload.as_str() {
        "edit-loop" => edit_loop::run(&mut run)?,
        "mega-fanout" => mega::run(&mut run)?,
        "serve-autosave" => serve::run(&mut run)?,
        other => unreachable!("workload {other} was validated"),
    }
    Ok(run)
}
