//! `dse-hill16`: a bound-pruned 16×16 hill-climb — the only workload
//! that runs absint screening and sampled 16-bit error statistics. An
//! op is one proposed candidate (a restart's start or a mutation step),
//! pruned or evaluated.

use std::hint::black_box;
use std::time::{Duration, Instant};

use axmul_dse::{run, static_bounds, Config, DseOptions, DseResult, PruneOptions, Strategy};
use axmul_fabric::compile::CompiledNetlist;

use crate::measure::{ms, Metrics, Outcome, Tally};
use crate::phase::{end_to_end, measured, ms_per_item, overhead_pct, trace_order, Phase, Window};
use crate::sweep::{fingerprints, mismatches};

const BUDGET: usize = 40;
const RESTARTS: usize = 4;

/// Proposals per pass: every restart's start plus its mutation steps.
pub const PASS_OPS: u64 = (RESTARTS * (BUDGET + 1)) as u64;

/// Set-up climbs per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Interleaved untraced/traced pass pairs of a traced run.
const TRACE_ROUNDS: usize = 2;

/// Single worker: dominance pruning depends on screening order, so only
/// a one-worker climb repeats exactly.
fn options() -> DseOptions {
    DseOptions {
        bits: 16,
        strategy: Strategy::HillClimb {
            budget: BUDGET,
            restarts: RESTARTS,
            seed: 0xDAC18,
        },
        workers: 1,
        samples: 100_000,
        prune: Some(PruneOptions {
            max_wce: Some(1 << 24),
            dominance: true,
        }),
        ..DseOptions::exhaustive_8x8()
    }
}

/// What must repeat exactly from pass to pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    /// Fingerprints of the evaluated candidates, by key.
    evaluated: Vec<u64>,
    /// Proposals pruned by the worst-case-error budget.
    pruned_constraint: u64,
    /// Proposals pruned by static dominance.
    pruned_dominance: u64,
}

impl Signature {
    fn of(result: &DseResult) -> Self {
        Signature {
            evaluated: fingerprints(result),
            pruned_constraint: result.pruned_constraint,
            pruned_dominance: result.pruned_dominance,
        }
    }

    /// Ops of a pass whose outcome differs from this reference.
    fn mismatches(&self, got: &Signature) -> u64 {
        mismatches(&self.evaluated, &got.evaluated)
            + self.pruned_constraint.abs_diff(got.pruned_constraint)
            + self.pruned_dominance.abs_diff(got.pruned_dominance)
    }
}

/// One climb, measured.
///
/// # Errors
///
/// Fails when characterization fails.
pub fn pass() -> Result<(DseResult, Window), String> {
    let (result, window) = measured(PASS_OPS, || run(&options()));
    Ok((
        result.map_err(|e| format!("hill-climb failed: {e}"))?,
        window,
    ))
}

/// The untraced run: `SETUP_REPS` reference climbs that must agree,
/// then climbs for `seconds`, each checked against the reference.
///
/// # Errors
///
/// Fails when a climb cannot run at all.
pub fn run_untraced(seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut reference: Option<Signature> = None;
    for _ in 0..SETUP_REPS {
        let (result, window) = pass()?;
        setup.push(window.wall.as_secs_f64());
        let got = Signature::of(&result);
        tally.add(
            PASS_OPS,
            reference.as_ref().map_or(0, |r| r.mismatches(&got)),
        );
        reference.get_or_insert(got);
    }
    let reference = reference.expect("at least one set-up climb");

    let started = Instant::now();
    let mut phase = Phase::default();
    while phase.windows.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (result, window) = pass()?;
        phase.push(window);
        tally.add(PASS_OPS, reference.mismatches(&Signature::of(&result)));
    }
    Ok(end_to_end(&setup, &phase, tally))
}

/// The traced run: the climb's own phase split and pruning counters,
/// absint screening and netlist compilation timed over the evaluated
/// candidates, and the tracing overhead.
///
/// # Errors
///
/// Fails when a climb cannot run at all.
pub fn run_traced() -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // The first climb warms the process up and is the reference. The
    // climb keeps its own counters, so a traced climb only reads them.
    let reference = Signature::of(&pass()?.0);
    let mut last = None;
    for round in 0..TRACE_ROUNDS {
        for is_traced in trace_order(round) {
            let (result, window) = pass()?;
            tally.add(PASS_OPS, reference.mismatches(&Signature::of(&result)));
            if is_traced {
                traced.push(window.wall.as_secs_f64());
                last = Some(result);
            } else {
                untraced.push(window.wall.as_secs_f64());
            }
        }
    }
    let result = last.expect("at least one traced climb");
    let configs: Vec<Config> = result
        .reports
        .iter()
        .map(|r| r.key.parse())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("evaluated key does not parse: {e}"))?;

    let mut metrics = Metrics::default();
    let t = Instant::now();
    let mut screened = 0u64;
    while screened == 0 || t.elapsed() < Duration::from_millis(200) {
        for cfg in &configs {
            let bounds = static_bounds(black_box(cfg));
            black_box(bounds).map_err(|e| format!("static bounds: {e}"))?;
        }
        screened += configs.len() as u64;
    }
    metrics.put(
        "absint.screen_us_per_candidate",
        t.elapsed().as_secs_f64() * 1e6 / screened as f64,
        "us",
    );
    metrics.put(
        "absint.prune_ratio",
        result.pruned() as f64 / PASS_OPS as f64,
        "ratio",
    );
    metrics.put("absint.pruned", result.pruned() as f64, "count");
    metrics.put("dse.evaluated", result.reports.len() as f64, "count");
    let builds = result.cache_builds as f64;
    metrics.put(
        "metrics.error_ms_per_build",
        ms(result.char_time.error) / builds,
        "ms",
    );
    metrics.put(
        "fabric.energy_ms_per_build",
        ms(result.char_time.energy) / builds,
        "ms",
    );
    metrics.put(
        "fabric.sta_ms_per_build",
        ms(result.char_time.sta) / builds,
        "ms",
    );
    let netlists: Vec<_> = configs.iter().map(Config::assemble).collect();
    metrics.put(
        "fabric.compile_ms_per_netlist",
        ms_per_item(&netlists, |n| {
            drop(black_box(CompiledNetlist::compile(black_box(n))))
        }),
        "ms",
    );
    metrics.put("dse.cache_hit_ratio", result.hit_rate(), "ratio");
    metrics.put("trace.overhead_pct", overhead_pct(&untraced, &traced), "%");
    Ok(Outcome::traced(tally, metrics))
}
