//! Exact-repeat checks: the counts below must come out identical run
//! after run, so any change in them is a change in the algorithm, never
//! noise. Run in release mode (`cargo test --release`); the SAT check
//! proves the whole roster twice.
//!
//! Counts that legitimately vary are not asserted here:
//! - `dse-sweep.dse.wasted_builds` and the cache builds/hits of a pass
//!   on more than one worker: two workers can race to build the same
//!   sub-block, and how often they do depends on scheduling.
//! - every time, rate and ratio derived from a time.

use std::time::Duration;

use axmul_perfbench::measure::Tally;
use axmul_perfbench::{hill, prove, serve, sweep};

#[test]
fn single_worker_sweep_builds_and_hits_repeat() {
    let first = sweep::cache_counts(1).unwrap();
    assert_eq!(first, sweep::cache_counts(1).unwrap());
}

#[test]
fn hill16_pruned_and_evaluated_repeat() {
    let counts = || {
        let (r, _) = hill::pass().unwrap();
        (r.pruned_constraint, r.pruned_dominance, r.reports.len())
    };
    let first = counts();
    assert_eq!(first, counts());
    let (constraint, dominance, _) = first;
    assert!(constraint + dominance > 0, "the climb prunes something");
}

#[test]
fn sat_solver_effort_repeats_per_design() {
    let cases = prove::roster().unwrap();
    let effort = || {
        prove::prove_all(&cases)
            .iter()
            .map(|p| {
                assert!(p.ok, "every proof matches its expected wce");
                let s = p.stats.unwrap();
                (s.conflicts, s.decisions, s.propagations, s.solves)
            })
            .collect::<Vec<_>>()
    };
    let first = effort();
    assert_eq!(first, effort());
    assert!(prove::equiv_checks().iter().all(|&ok| ok));
}

#[test]
fn warm_daemon_builds_nothing_under_load() {
    let w = serve::Workload::new().unwrap();
    for _ in 0..2 {
        let mut tally = Tally::default();
        let mut daemon = serve::Daemon::start(&w, serve::clients(), &mut tally).unwrap();
        let builds = daemon.builds();
        serve::load(
            &mut daemon,
            &w,
            7,
            Duration::from_millis(500),
            false,
            &mut tally,
        );
        assert_eq!(daemon.builds(), builds);
        daemon.stop();
        assert_eq!(tally.failed, 0);
        assert!(tally.attempted > 0);
    }
}

#[test]
fn pinned_16x16_values_match_bench_sat_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_sat.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc = axmul_serve::json::parse(&text).unwrap();
    let proofs = doc.get("wce_proofs").and_then(|v| v.as_arr()).unwrap();
    for (name, wce) in prove::PINNED_16 {
        let row = proofs
            .iter()
            .find(|p| p.get("design").and_then(|d| d.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from BENCH_sat.json"));
        let pinned = row.get("wce").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(pinned, wce as f64, "{name}");
    }
}
