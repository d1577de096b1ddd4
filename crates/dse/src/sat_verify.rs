//! Exact-proof spot-check of the bound-guided pruning screen.
//!
//! Constraint pruning ([`crate::PruneOptions::max_wce`]) discards a
//! candidate when absint's *lower* bound on its worst-case error
//! already exceeds the budget. That is admissible exactly when the
//! lower bound really is a lower bound — a property absint proves on
//! paper and `repro absint` checks exhaustively at 8×8, but which no
//! exhaustive truth can confirm at 16×16 and beyond. This module
//! closes that gap with exact proofs: it samples the screen's discard
//! and keep decisions, has [`axmul_sat::prove_wce`] pin each sampled
//! design's *exact* worst-case error (by exhaustive sweep at 8×8, by
//! SAT at 16×16 and beyond), and confirms that
//!
//! * every sampled discarded design's proven error really exceeds the
//!   budget (the screen never threw away a qualifying design), and
//! * every proven error sits inside absint's `[wce_lb, wce_ub]`
//!   bracket (the bounds the screen consulted were sound).
//!
//! Sampling is deterministic (evenly-strided over each partition), so
//! a spot-check is reproducible run to run.

use axmul_sat::{prove_wce, SatError, WceEngine, WceOptions};

use crate::bounds::static_bounds;
use crate::config::Config;

/// One sampled design's verdict.
#[derive(Debug, Clone)]
pub struct SpotCheck {
    /// Canonical configuration key.
    pub key: String,
    /// Absint's sound lower bound the screen consulted.
    pub wce_lb: u128,
    /// Absint's sound upper bound.
    pub wce_ub: u128,
    /// The exact worst-case error, proven by `engine`.
    pub proven_wce: u128,
    /// The engine that proved `proven_wce`: an exhaustive sweep up to
    /// 16 operand bits, SAT past that.
    pub engine: WceEngine,
    /// Operand pair attaining `proven_wce` (replay-confirmed).
    pub witness: (u64, u64),
    /// Whether the constraint screen would discard this design.
    pub discarded: bool,
    /// For discarded designs: the proven error exceeds the budget, so
    /// the discard lost nothing. Vacuously `true` for kept designs.
    pub discard_justified: bool,
    /// `wce_lb ≤ proven_wce ≤ wce_ub`.
    pub in_bracket: bool,
    /// Solver conflicts spent on the proof (0 for exhaustive proofs).
    pub conflicts: u64,
    /// Wall-clock time of the proof in milliseconds.
    pub elapsed_ms: f64,
}

/// Outcome of one spot-check sweep.
#[derive(Debug, Clone)]
pub struct SatVerifyReport {
    /// The worst-case-error budget the screen enforced.
    pub budget: u128,
    /// How many candidates the screen examined.
    pub screened: usize,
    /// How many of them the screen discarded.
    pub discarded: usize,
    /// The sampled verdicts, discarded designs first.
    pub checks: Vec<SpotCheck>,
}

impl SatVerifyReport {
    /// Whether every sampled verdict upholds the screen: each discard
    /// justified, each proven error inside absint's bracket.
    #[must_use]
    pub fn sound(&self) -> bool {
        self.checks
            .iter()
            .all(|c| c.discard_justified && c.in_bracket)
    }
}

/// Spot-checks the constraint screen over `candidates` with the given
/// worst-case-error `budget`: partitions the candidates exactly as
/// [`crate::PruneOptions::max_wce`] would, samples up to `samples`
/// designs from each partition (evenly strided, deterministic), and
/// proves each sample's exact worst-case error. Candidates the
/// abstract interpreter cannot bound are kept by the screen and
/// skipped here, mirroring the search's own behavior.
///
/// # Errors
///
/// Propagates [`SatError`] from the underlying proofs (budget
/// exhaustion, encode failures); a clean refutation is *not* an error
/// — it surfaces as an unsound report.
pub fn sat_verify(
    candidates: &[Config],
    budget: u128,
    samples: usize,
) -> Result<SatVerifyReport, SatError> {
    let mut discarded = Vec::new();
    let mut kept = Vec::new();
    for cfg in candidates {
        let Ok(analysis) = static_bounds(cfg) else {
            continue; // the screen keeps what it cannot bound
        };
        let bound = &analysis.bound;
        let entry = (
            cfg,
            analysis.key.clone(),
            bound.wce_lb,
            bound.wce_ub(),
            bound.witness,
        );
        if bound.wce_lb > budget {
            discarded.push(entry);
        } else {
            kept.push(entry);
        }
    }
    let screened = discarded.len() + kept.len();
    let n_discarded = discarded.len();

    let mut checks = Vec::new();
    for partition in [discarded, kept] {
        for (cfg, key, wce_lb, wce_ub, hint) in stride_sample(partition, samples) {
            let netlist = cfg.assemble();
            let opts = WceOptions {
                hint,
                ..WceOptions::default()
            };
            let proof = prove_wce(&netlist, &opts)?;
            let was_discarded = wce_lb > budget;
            checks.push(SpotCheck {
                key,
                wce_lb,
                wce_ub,
                proven_wce: proof.wce,
                engine: proof.engine,
                witness: proof.witness,
                discarded: was_discarded,
                discard_justified: !was_discarded || proof.wce > budget,
                in_bracket: wce_lb <= proof.wce && proof.wce <= wce_ub,
                conflicts: proof.stats.conflicts,
                elapsed_ms: proof.stats.elapsed_ms,
            });
        }
    }
    Ok(SatVerifyReport {
        budget,
        screened,
        discarded: n_discarded,
        checks,
    })
}

/// Takes up to `samples` elements of `items`, evenly strided from the
/// front, preserving order. Deterministic by construction.
fn stride_sample<T>(items: Vec<T>, samples: usize) -> Vec<T> {
    if samples == 0 || items.is_empty() {
        return Vec::new();
    }
    if items.len() <= samples {
        return items;
    }
    let step = items.len() / samples;
    items
        .into_iter()
        .step_by(step.max(1))
        .take(samples)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spot_check_upholds_the_screen_on_paper_configs() {
        // Absint lower bounds at 8×8: `(a A A A A)` has the exact
        // bracket [2312, 2312], `(c A A A A)` the loose [2048, 10472],
        // `(c X X X X)` the looser-still [0, 8160]. A 2100 budget
        // splits them: only the first is discarded.
        let candidates: Vec<Config> = ["(a A A A A)", "(c A A A A)", "(c X X X X)"]
            .iter()
            .map(|k| k.parse().unwrap())
            .collect();
        let report = sat_verify(&candidates, 2_100, 2).unwrap();
        assert_eq!(report.screened, 3);
        assert_eq!(report.discarded, 1, "{report:?}");
        assert_eq!(report.checks.len(), 3);
        assert!(
            report.checks.iter().any(|c| c.discarded),
            "must sample the discarded design"
        );
        assert!(report.sound(), "{report:?}");
        for c in &report.checks {
            assert!(
                c.wce_lb <= c.proven_wce && c.proven_wce <= c.wce_ub,
                "{c:?}"
            );
        }
        let paper = report
            .checks
            .iter()
            .find(|c| c.key == "(a A A A A)")
            .unwrap();
        assert!(paper.discarded && paper.discard_justified);
        assert_eq!(paper.proven_wce, 2312);
        assert!(report
            .checks
            .iter()
            .all(|c| c.engine == WceEngine::Exhaustive));
    }

    #[test]
    fn zero_budget_keeps_only_unproven_lower_bounds() {
        // Budget 0: every design with a positive lower bound is
        // discarded. The carry-free exact design has `wce_lb = 0`, so
        // the screen keeps it even though its true error is 8160 —
        // conservative, never unsound.
        let candidates: Vec<Config> = ["(a A A A A)", "(c X X X X)"]
            .iter()
            .map(|k| k.parse().unwrap())
            .collect();
        let report = sat_verify(&candidates, 0, 2).unwrap();
        assert_eq!(report.screened, 2);
        assert_eq!(report.discarded, 1, "{report:?}");
        assert!(report.sound(), "{report:?}");
        let kept = report.checks.iter().find(|c| !c.discarded).unwrap();
        assert_eq!(kept.key, "(c X X X X)");
        assert!(
            kept.proven_wce > 0,
            "the keep was conservative: true wce {} exceeds the budget",
            kept.proven_wce
        );
    }

    #[test]
    fn stride_sampling_is_deterministic_and_bounded() {
        assert_eq!(stride_sample(Vec::<u32>::new(), 3), Vec::<u32>::new());
        assert_eq!(stride_sample(vec![1, 2], 0), Vec::<u32>::new());
        assert_eq!(stride_sample(vec![1, 2, 3], 8), vec![1, 2, 3]);
        let picked = stride_sample((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(picked, vec![0, 3, 6]);
    }
}
