//! `sat-prove`: exact worst-case-error proofs with `prove_wce` over the
//! quick roster of `repro sat` (five 8×8 designs) plus four 16×16
//! designs, and the two quick equivalence checks. An op is one proof.

use std::hint::black_box;
use std::time::{Duration, Instant};

use axmul_absint::analyze_netlist;
use axmul_baselines::{kulkarni_netlist, pp_truncated_netlist, rehman_netlist};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_dse::{static_bounds, Config};
use axmul_fabric::export::to_verilog;
use axmul_fabric::Netlist;
use axmul_metrics::ErrorStats;
use axmul_sat::{
    check_equiv, encode_netlist, prove_wce, EquivOutcome, ProofOptions, ProofStats, Solver,
    WceOptions,
};

use crate::measure::{ms, Metrics, Outcome, Tally};
use crate::phase::{end_to_end, measured, overhead_pct, Phase, Window};

/// The 16×16 worst-case errors `repro sat` proved and pinned in the
/// repository's `BENCH_sat.json`.
pub const PINNED_16: [(&str, u128); 4] = [
    ("Cc 16x16", 578_760_256),
    ("K 16x16", 954_408_050),
    ("Mix1 16x16", 184_778_752),
    ("Mix2 16x16", 547_414_112),
];

/// Roster builds per set-up chunk. A build takes milliseconds, and the
/// host runs it in a fast or a slow state for hundreds of milliseconds
/// at a time. So a run builds the roster in one chunk before its first
/// pass and one after every pass, and `setup_s` sees the host across the
/// whole run instead of in a single state.
const SETUP_CHUNK: usize = 15;

/// Whole passes per run at least. Each proof counts with its fastest
/// pass: a single-threaded proof runs for seconds on one core, and the
/// host slows a core down for stretches of that length, so the best of
/// two passes is far steadier than either pass.
const MIN_PASSES: usize = 2;

const MIX1: &str = "(c (a A A A A) (a A A A A) (a A A A A) (a A A A A))";
const MIX2: &str = "(a (c A A A A) (c A A A A) (c A A A A) (c A A A A))";

/// One design to prove, with its witness hint and expected result.
pub struct Case {
    /// Roster name.
    pub name: &'static str,
    netlist: Netlist,
    hint: Option<(u64, u64)>,
    expected: u128,
}

fn width(netlist: &Netlist) -> usize {
    netlist
        .input_buses()
        .first()
        .map_or(0, |(_, nets)| nets.len())
}

fn pinned(name: &str) -> Result<u128, String> {
    PINNED_16
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, wce)| wce)
        .ok_or_else(|| format!("no pinned wce for {name}"))
}

/// A structural design: absint's netlist witness as the hint, and the
/// exhaustive sweep (8×8) or the pinned value (16×16) as the truth.
fn structural(name: &'static str, netlist: Netlist) -> Result<Case, String> {
    let hint = analyze_netlist(&netlist).error.and_then(|b| b.witness);
    let expected = if width(&netlist) <= 8 {
        let stats = ErrorStats::exhaustive_wide(&netlist).map_err(|e| format!("{name}: {e}"))?;
        u128::from(stats.max_error.unsigned_abs())
    } else {
        pinned(name)?
    };
    Ok(Case {
        name,
        netlist,
        hint,
        expected,
    })
}

/// A configuration-tree design with the tree analyzer's witness.
fn configured(name: &'static str, key: &str) -> Result<Case, String> {
    let cfg: Config = key.parse().map_err(|e| format!("{name}: {e}"))?;
    let analysis = static_bounds(&cfg).map_err(|e| format!("{name}: {e}"))?;
    Ok(Case {
        name,
        netlist: cfg.assemble(),
        hint: analysis.bound.witness,
        expected: pinned(name)?,
    })
}

fn built<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Set-up: builds the roster and its expected worst-case errors.
///
/// # Errors
///
/// Fails when a roster netlist cannot be built or swept.
pub fn roster() -> Result<Vec<Case>, String> {
    Ok(vec![
        structural("K 8x8", built(kulkarni_netlist(8))?)?,
        structural("W 8x8", built(rehman_netlist(8))?)?,
        structural("Ca 8x8", built(ca_netlist(8))?)?,
        structural("Cc 8x8", built(cc_netlist(8))?)?,
        structural("Trunc(8,5)", pp_truncated_netlist(8, 8, 5))?,
        structural("Cc 16x16", built(cc_netlist(16))?)?,
        structural("K 16x16", built(kulkarni_netlist(16))?)?,
        configured("Mix1 16x16", MIX1)?,
        configured("Mix2 16x16", MIX2)?,
    ])
}

/// One proof's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Proved {
    /// Wall and CPU time of the `prove_wce` call.
    pub window: Window,
    /// Solver effort; `None` when the proof failed.
    pub stats: Option<ProofStats>,
    /// Whether the proven wce equals the expected value.
    pub ok: bool,
}

/// Proves every design of the roster once.
#[must_use]
pub fn prove_all(cases: &[Case]) -> Vec<Proved> {
    cases
        .iter()
        .map(|case| {
            let opts = WceOptions {
                hint: case.hint,
                ..WceOptions::default()
            };
            let (proof, window) = measured(1, || prove_wce(&case.netlist, &opts));
            match proof {
                Ok(p) => Proved {
                    window,
                    stats: Some(p.stats),
                    ok: p.wce == case.expected,
                },
                Err(_) => Proved {
                    window,
                    stats: None,
                    ok: false,
                },
            }
        })
        .collect()
}

/// The quick equivalence checks: an export → import round trip must be
/// proven equivalent, and Ca vs Cc refuted with a counterexample that
/// replays to a real mismatch. Returns each verdict.
#[must_use]
pub fn equiv_checks() -> Vec<bool> {
    let (Ok(ca8), Ok(cc8)) = (ca_netlist(8), cc_netlist(8)) else {
        return vec![false, false];
    };
    let opts = ProofOptions::default();
    let roundtrip = axmul_netio::import(&to_verilog(&ca8))
        .ok()
        .and_then(|imported| check_equiv(&ca8, &imported, &opts).ok())
        .is_some_and(|r| r.is_equivalent());
    let distinct = match check_equiv(&ca8, &cc8, &opts).map(|r| r.outcome) {
        Ok(EquivOutcome::NotEquivalent(cex)) => {
            let vals: Vec<u64> = cex.inputs.iter().map(|(_, v)| *v).collect();
            ca8.eval(&vals).ok() == Some(cex.lhs_outputs.clone())
                && cc8.eval(&vals).ok() == Some(cex.rhs_outputs.clone())
                && cex.lhs_outputs != cex.rhs_outputs
        }
        _ => false,
    };
    vec![roundtrip, distinct]
}

/// One pass: every proof and both equivalence checks, tallied.
/// Returns the proofs and the time the equivalence checks took.
fn pass(cases: &[Case], tally: &mut Tally) -> (Vec<Proved>, Duration) {
    let proofs = prove_all(cases);
    let t = Instant::now();
    for ok in equiv_checks() {
        tally.check(ok);
    }
    for p in &proofs {
        tally.check(p.ok);
    }
    (proofs, t.elapsed())
}

/// The untraced run: roster builds (with the exhaustive 8×8 sweeps) in
/// chunks of `SETUP_CHUNK` around whole passes for `seconds`, at least
/// `MIN_PASSES`. Each proof counts with its fastest pass.
///
/// # Errors
///
/// Fails when the roster cannot be built.
pub fn run_untraced(seconds: f64) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>| -> Result<Vec<Case>, String> {
        let mut cases = Vec::new();
        for _ in 0..SETUP_CHUNK {
            let (built, window) = measured(0, roster);
            cases = built?;
            setup.push(window.wall.as_secs_f64());
        }
        Ok(cases)
    };
    let cases = set_up(&mut setup)?;
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut best: Vec<Window> = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let (proofs, _) = pass(&cases, &mut tally);
        if best.is_empty() {
            best = proofs.iter().map(|p| p.window).collect();
        }
        for (b, p) in best.iter_mut().zip(&proofs) {
            b.wall = b.wall.min(p.window.wall);
            b.cpu = b.cpu.min(p.window.cpu);
        }
        passes += 1;
        set_up(&mut setup)?;
    }
    let roster_pass = Window {
        wall: best.iter().map(|w| w.wall).sum(),
        cpu: best.iter().map(|w| w.cpu).sum(),
        ops: best.len() as u64,
    };
    let phase = Phase {
        latencies_ms: vec![ms(roster_pass.wall)],
        windows: vec![roster_pass],
        parts_ms: best.iter().map(|w| ms(w.wall)).collect(),
    };
    Ok(end_to_end(&setup, &phase, tally))
}

/// Metric-name form of a roster name (`Trunc(8,5)` → `Trunc_8_5`).
#[must_use]
fn metric_name(design: &str) -> String {
    let mut s: String = design
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    while s.ends_with('_') {
        s.pop();
    }
    s
}

/// The traced run: solver effort and per-design proof times of one
/// pass, encoder and equivalence timings, and the overhead of reading
/// the solver statistics against an untraced pass.
///
/// # Errors
///
/// Fails when the roster cannot be built.
pub fn run_traced() -> Result<Outcome, String> {
    let cases = roster()?;
    let mut tally = Tally::default();
    let (_, untraced) = measured(0, || pass(&cases, &mut tally));
    let ((proofs, equiv), traced) = measured(0, || pass(&cases, &mut tally));

    let mut metrics = Metrics::default();
    let stats: Vec<ProofStats> = proofs.iter().filter_map(|p| p.stats).collect();
    let total = |f: fn(&ProofStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let solve_s: f64 = proofs.iter().map(|p| p.window.wall.as_secs_f64()).sum();
    metrics.put("sat.conflicts", total(|s| s.conflicts), "count");
    metrics.put("sat.decisions", total(|s| s.decisions), "count");
    metrics.put("sat.propagations", total(|s| s.propagations), "count");
    metrics.put("sat.solves", total(|s| s.solves), "count");
    metrics.put(
        "sat.propagations_per_s",
        total(|s| s.propagations) / solve_s,
        "1/s",
    );
    metrics.put(
        "sat.conflicts_per_s",
        total(|s| s.conflicts) / solve_s,
        "1/s",
    );

    let t = Instant::now();
    for case in &cases {
        let mut solver = Solver::new();
        black_box(encode_netlist(&mut solver, black_box(&case.netlist), None))
            .map_err(|e| format!("encode {}: {e}", case.name))?;
    }
    metrics.put("sat.encode_ms", ms(t.elapsed()), "ms");
    metrics.put("sat.equiv_ms", ms(equiv), "ms");
    for (case, p) in cases.iter().zip(&proofs) {
        metrics.put(
            format!("sat.proof_ms.{}", metric_name(case.name)),
            ms(p.window.wall),
            "ms",
        );
    }
    metrics.put(
        "trace.overhead_pct",
        overhead_pct(&[untraced.wall.as_secs_f64()], &[traced.wall.as_secs_f64()]),
        "%",
    );
    Ok(Outcome::traced(tally, metrics))
}
