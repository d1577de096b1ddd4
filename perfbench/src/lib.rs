//! End-to-end and per-layer benchmark of the three paths users take to
//! the paper's error/area/latency trade-off: the DSE sweep, SAT
//! worst-case-error proofs and the characterization daemon.
//!
//! Every workload times calls into the crates' public functions from
//! the outside and checks its own outputs; see `README.md` for the
//! workloads, metrics and the layer → metric → workload map.

pub mod hill;
pub mod measure;
pub mod phase;
pub mod prove;
pub mod serve;
pub mod sweep;

use measure::{Metrics, Outcome, Tally};

/// The workloads, in the order a traced run covers them.
pub const WORKLOADS: [&str; 4] = ["dse-sweep", "dse-hill16", "sat-prove", "serve-mixed"];

/// Runs one workload untraced for `seconds` and returns its end-to-end
/// metrics, together with the threads it ran.
///
/// # Errors
///
/// Fails on an unknown workload or when the workload cannot run.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Result<(Outcome, usize), String> {
    let workers = measure::nproc();
    Ok(match workload {
        "dse-sweep" => (sweep::run_untraced(seconds, workers)?, workers),
        "dse-hill16" => (hill::run_untraced(seconds)?, 1),
        "sat-prove" => (prove::run_untraced(seconds)?, 1),
        "serve-mixed" => (
            serve::run_untraced(seed, seconds)?,
            serve::WORKERS + serve::clients() + 1,
        ),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The traced run: every layer of every workload, each metric named
/// `<workload>.<layer metric>`.
///
/// # Errors
///
/// Fails when a workload cannot run.
pub fn run_traced(seed: u64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    for workload in WORKLOADS {
        let o = match workload {
            "dse-sweep" => sweep::run_traced(measure::nproc())?,
            "dse-hill16" => hill::run_traced()?,
            "sat-prove" => prove::run_traced()?,
            _ => serve::run_traced(seed)?,
        };
        tally.merge(o.tally);
        metrics.extend_prefixed(workload, o.metrics);
    }
    Ok(Outcome::traced(tally, metrics))
}
