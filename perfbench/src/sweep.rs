//! `dse-sweep`: the paper's design-space exploration — a cold,
//! exhaustive 8×8 `dse::run` over all 1250 configurations, with a fresh
//! `CharCache` on every pass, on the worker pool. An op is one
//! evaluated candidate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use axmul_dse::{run, BlockChar, CandidateReport, CharCache, Config, DseOptions, DseResult};
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::cost::Characterizer;

use crate::measure::{median, ms, quantile, tail, Digest, Metrics, Outcome, Tally};
use crate::phase::{end_to_end, measured, ms_per_item, overhead_pct, trace_order, Phase, Window};

/// Candidates in one exhaustive 8×8 pass.
pub const PASS_OPS: u64 = 1250;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Interleaved untraced/traced pass pairs of a traced run.
const TRACE_ROUNDS: usize = 2;

fn options(workers: usize) -> DseOptions {
    DseOptions {
        workers,
        ..DseOptions::exhaustive_8x8()
    }
}

/// One cold pass, measured.
fn pass(workers: usize) -> Result<(DseResult, Window), String> {
    let (result, window) = measured(PASS_OPS, || run(&options(workers)));
    Ok((result.map_err(|e| format!("dse::run failed: {e}"))?, window))
}

/// Cache builds and hits of one cold pass on `workers` workers.
///
/// # Errors
///
/// Fails when the pass cannot run.
pub fn cache_counts(workers: usize) -> Result<(u64, u64), String> {
    let (result, _) = pass(workers)?;
    Ok((result.cache_builds, result.cache_hits))
}

/// Per-candidate fingerprint of everything a report states.
fn report_digest(r: &CandidateReport) -> u64 {
    let mut d = Digest::default();
    d.bytes(r.key.as_bytes());
    d.u64(u64::from(r.bits));
    d.u64(r.luts as u64);
    for v in [
        r.critical_path_ns,
        r.energy_per_op,
        r.edp,
        r.avg_error,
        r.avg_relative_error,
        r.error_probability,
    ] {
        d.f64(v);
    }
    d.u64(r.max_error as u64);
    d.u64(u64::from(r.on_lut_front) | u64::from(r.on_edp_front) << 1);
    d.value()
}

/// Fingerprints of a result, in its (key-sorted) report order.
#[must_use]
pub(crate) fn fingerprints(result: &DseResult) -> Vec<u64> {
    result.reports.iter().map(report_digest).collect()
}

/// Candidates of `got` that differ from the reference, plus any
/// missing or extra ones.
#[must_use]
pub(crate) fn mismatches(reference: &[u64], got: &[u64]) -> u64 {
    let differing = reference.iter().zip(got).filter(|(a, b)| a != b).count();
    (differing + reference.len().abs_diff(got.len())) as u64
}

/// The untraced run: `SETUP_REPS` single-worker reference passes, then
/// cold passes on `workers` threads for `seconds`, each checked against
/// the reference candidate by candidate.
///
/// # Errors
///
/// Fails when a pass cannot run at all.
pub fn run_untraced(seconds: f64, workers: usize) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    for _ in 0..SETUP_REPS {
        let (result, window) = pass(1)?;
        setup.push(window.wall.as_secs_f64());
        let got = fingerprints(&result);
        let bad = match &reference {
            Some(r) => mismatches(r, &got),
            None => PASS_OPS.abs_diff(got.len() as u64),
        };
        tally.add(PASS_OPS, bad);
        reference.get_or_insert(got);
    }
    let reference = reference.expect("at least one set-up pass");

    let started = Instant::now();
    let mut phase = Phase::default();
    while phase.windows.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (result, window) = pass(workers)?;
        phase.push(window);
        tally.add(PASS_OPS, mismatches(&reference, &fingerprints(&result)));
    }
    Ok(end_to_end(&setup, &phase, tally))
}

/// A cold single-worker sweep driven one `CharCache::characterize`
/// call at a time, so the cache's phase split is wall-clock. Traced, it
/// also times each call; untraced, it is the baseline for the tracing
/// overhead.
struct CharacterizeAll {
    took: Duration,
    per_candidate_ms: Vec<f64>,
    cache: CharCache,
    blocks: Vec<Arc<BlockChar>>,
}

fn characterize_all(configs: &[Config], traced: bool) -> Result<CharacterizeAll, String> {
    let cache = CharCache::new(Characterizer::virtex7());
    let mut per_candidate_ms = Vec::with_capacity(configs.len());
    let mut blocks = Vec::with_capacity(configs.len());
    let t = Instant::now();
    for cfg in configs {
        let t_cfg = traced.then(Instant::now);
        let c = cache
            .characterize(cfg)
            .map_err(|e| format!("characterize {}: {e}", cfg.key()))?;
        if let Some(t_cfg) = t_cfg {
            per_candidate_ms.push(ms(t_cfg.elapsed()));
        }
        blocks.push(c);
    }
    Ok(CharacterizeAll {
        took: t.elapsed(),
        per_candidate_ms,
        cache,
        blocks,
    })
}

/// Characterizations that disagree with the `dse::run` report of the
/// same key.
fn block_mismatches(reference: &DseResult, blocks: &[Arc<BlockChar>]) -> u64 {
    blocks
        .iter()
        .filter(|c| {
            reference.find(&c.key).is_none_or(|r| {
                r.luts != c.cost.area.luts
                    || r.edp.to_bits() != c.cost.edp.to_bits()
                    || r.max_error != c.stats.max_error
                    || r.avg_relative_error.to_bits() != c.stats.avg_relative_error.to_bits()
            })
        })
        .count() as u64
        + PASS_OPS.abs_diff(blocks.len() as u64)
}

/// The traced run: per-layer split of the sweep at one worker (so the
/// split is wall-clock, not summed across threads), pool scaling from
/// `dse::run` at one and at `workers` workers, and the tracing
/// overhead. A first `dse::run` warms the process up and serves as the
/// reference every later pass is checked against.
///
/// # Errors
///
/// Fails when a pass cannot run at all.
pub fn run_traced(workers: usize) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let configs = Config::enumerate(8);
    let (reference, _) = pass(1)?;
    tally.add(PASS_OPS, PASS_OPS.abs_diff(reference.reports.len() as u64));
    let reference_fp = fingerprints(&reference);

    let (mut single, mut pooled, mut wasted) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..TRACE_ROUNDS {
        let (one, window) = pass(1)?;
        single.push(window.wall.as_secs_f64());
        tally.add(PASS_OPS, mismatches(&reference_fp, &fingerprints(&one)));
        let (many, window) = pass(workers)?;
        pooled.push(window.wall.as_secs_f64());
        wasted.push(many.cache_builds.saturating_sub(one.cache_builds) as f64);
        tally.add(PASS_OPS, mismatches(&reference_fp, &fingerprints(&many)));
        for is_traced in trace_order(round) {
            let run = characterize_all(&configs, is_traced)?;
            tally.add(PASS_OPS, block_mismatches(&reference, &run.blocks));
            if is_traced {
                traced.push(run.took.as_secs_f64());
                last = Some(run);
            } else {
                untraced.push(run.took.as_secs_f64());
            }
        }
    }
    let t = last.expect("at least one traced pass");
    let mut metrics = Metrics::default();
    let builds = t.cache.builds() as f64;
    let split = t.cache.time_breakdown();
    metrics.put("metrics.error_ms_per_build", ms(split.error) / builds, "ms");
    metrics.put(
        "fabric.energy_ms_per_build",
        ms(split.energy) / builds,
        "ms",
    );
    metrics.put("fabric.sta_ms_per_build", ms(split.sta) / builds, "ms");
    metrics.put(
        "dse.characterize_p50_ms",
        quantile(&t.per_candidate_ms, 0.5),
        "ms",
    );
    metrics.put("dse.characterize_p99_ms", tail(&t.per_candidate_ms), "ms");
    metrics.put("dse.cache_hit_ratio", t.cache.hit_rate(), "ratio");
    metrics.put("dse.builds", builds, "count");
    metrics.put("dse.hits", t.cache.hits() as f64, "count");

    let netlists: Vec<_> = configs.iter().map(Config::assemble).collect();
    metrics.put(
        "dse.compose_ms_per_config",
        ms_per_item(&configs, |c| drop(black_box(black_box(c).assemble()))),
        "ms",
    );
    metrics.put(
        "fabric.compile_ms_per_netlist",
        ms_per_item(&netlists, |n| {
            drop(black_box(CompiledNetlist::compile(black_box(n))))
        }),
        "ms",
    );
    metrics.put("dse.pool_speedup", median(&single) / median(&pooled), "x");
    metrics.put("dse.wasted_builds", median(&wasted), "count");
    metrics.put("trace.overhead_pct", overhead_pct(&untraced, &traced), "%");
    Ok(Outcome::traced(tally, metrics))
}
