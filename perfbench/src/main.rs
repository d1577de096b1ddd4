//! `axmul-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line of host facts, then the result line: a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when the run fails its correctness gate.

use std::process::ExitCode;

use axmul_perfbench::measure::{nproc, HostProbe};
use axmul_perfbench::{run_traced, run_untraced, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: axmul-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let probe = HostProbe::start();
    let run = if args.trace {
        run_traced(args.seed).map(|o| (o, nproc()))
    } else {
        run_untraced(&args.workload, args.seed, args.seconds)
    };
    let (outcome, threads) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        probe.line(
            &args.workload,
            args.seed,
            args.trace,
            threads,
            outcome.latency_samples
        )
    );
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
