//! `perfbench` — runs one workload of the repository benchmark and prints
//! its result as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload all
//! ```
//!
//! `--workload all` runs every workload, untraced and traced, each in a
//! process of its own (so peak-RSS readings don't mix), and prints every
//! metric by name with its unit.

use perfbench::{run, Outcome, Run, Scale, Workload};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload <paper_grid|large_world|serve_fanin|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err(format!(
            "--seconds {}: expected a non-negative number",
            a.seconds
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let Some(workload) = Workload::parse(&a.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", a.workload);
        return ExitCode::from(2);
    };
    let r = Run {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: Scale::Full,
    };
    let out = run(workload, &r);
    report(workload, &r, &out);
    println!("{}", out.to_json(r.trace));
    ExitCode::SUCCESS
}

/// The human-readable lines before the result line.
fn report(w: Workload, r: &Run, out: &Outcome) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench: workload={} seed={} trace={} cores={cores} slowdown={:.3} reps={} attempted={} failed={} error_rate={}",
        w.name(),
        r.seed,
        u8::from(r.trace),
        out.slowdown,
        out.reps,
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    for m in &out.mismatches {
        eprintln!("perfbench: COUNT MISMATCH in {}: {m}", w.name());
    }
    for (name, value, unit) in out.metrics(r.trace) {
        println!("  {name:<22} {value:>16.6} {unit}");
    }
}

/// Runs every workload untraced then traced, one child process each.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", trace])
                .status()
                .expect("perfbench can re-run itself");
            ok &= status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
