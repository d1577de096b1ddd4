//! Property-based fuzzing (satellite of the SAT subsystem): at widths
//! where exhaustive truth exists, every SAT equivalence verdict must
//! *coincide* with a bit-identical sweep — an UNSAT miter exactly when
//! the designs agree on all inputs, and every SAT counterexample
//! replaying to a real mismatch through `Netlist::eval`. The two
//! worst-case-error engines (exhaustive sweep and CDCL) must agree
//! with each other and with a brute-force `Netlist::eval` loop.
//! Hostile DIMACS-style inputs must always come back as typed errors,
//! never a panic.

use axmul_baselines::{array_mult_netlist, kulkarni_netlist, pp_truncated_netlist, rehman_netlist};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_dse::{Config, Leaf};
use axmul_fabric::{Cell, Init, Netlist};
use axmul_sat::{
    check_equiv, parse_dimacs, prove_wce, prove_wce_sat, EquivOutcome, ProofOptions, SatError,
    WceEngine, WceOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The structural designs available at a given width, by index.
fn design(bits: u32, idx: usize) -> Netlist {
    match idx % 6 {
        0 => kulkarni_netlist(bits).expect("width"),
        1 => rehman_netlist(bits).expect("width"),
        2 => ca_netlist(bits).expect("width"),
        3 => cc_netlist(bits).expect("width"),
        4 => pp_truncated_netlist(bits, bits, bits / 2 + 1),
        _ => array_mult_netlist(bits, bits),
    }
}

/// Exhaustive bit-identical comparison over all operand pairs.
fn sweep_equal(lhs: &Netlist, rhs: &Netlist, bits: u32) -> bool {
    let n = 1u64 << bits;
    for a in 0..n {
        for b in 0..n {
            if lhs.eval(&[a, b]).expect("eval") != rhs.eval(&[a, b]).expect("eval") {
                return false;
            }
        }
    }
    true
}

/// Checks one (lhs, rhs) pair: the SAT verdict must match the sweep,
/// and a counterexample must replay to a real mismatch.
fn check_pair_against_sweep(lhs: &Netlist, rhs: &Netlist, bits: u32) {
    let report = check_equiv(lhs, rhs, &ProofOptions::default()).expect("checkable pair");
    let truly_equal = sweep_equal(lhs, rhs, bits);
    match &report.outcome {
        EquivOutcome::Equivalent => {
            assert!(
                truly_equal,
                "SAT proved {} ≡ {} but the sweep found a mismatch",
                lhs.name(),
                rhs.name()
            );
        }
        EquivOutcome::NotEquivalent(cex) => {
            assert!(
                !truly_equal,
                "SAT refuted {} ≡ {} but the sweep found no mismatch",
                lhs.name(),
                rhs.name()
            );
            let vals: Vec<u64> = cex.inputs.iter().map(|(_, v)| *v).collect();
            assert_eq!(lhs.eval(&vals).expect("replay"), cex.lhs_outputs);
            assert_eq!(rhs.eval(&vals).expect("replay"), cex.rhs_outputs);
            assert_ne!(cex.lhs_outputs, cex.rhs_outputs);
        }
    }
}

/// Flips one INIT bit of the `pick`-th LUT cell, returning the mutant
/// and whether anything was actually flipped.
fn flip_init_bit(nl: &Netlist, pick: usize, bit: u32) -> Option<Netlist> {
    let mut cells = nl.cells().to_vec();
    let luts: Vec<usize> = cells
        .iter()
        .enumerate()
        .filter_map(|(k, c)| matches!(c, Cell::Lut { .. }).then_some(k))
        .collect();
    let k = *luts.get(pick % luts.len())?;
    if let Cell::Lut { init, .. } = &mut cells[k] {
        *init = Init::from_raw(init.raw() ^ (1u64 << (bit % 64)));
    }
    Some(Netlist::from_parts(
        format!("{}-fuzz-mut", nl.name()),
        nl.drivers().to_vec(),
        cells,
        nl.input_buses().to_vec(),
        nl.output_buses().to_vec(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random design pairs at 4×4: SAT verdict ⇔ exhaustive sweep.
    #[test]
    fn pair_verdicts_match_the_sweep_at_4x4(i in 0..6usize, j in 0..6usize) {
        let lhs = design(4, i);
        let rhs = design(4, j);
        check_pair_against_sweep(&lhs, &rhs, 4);
    }

    /// Single-gate INIT mutations at 4×4: the flip may land on a dead
    /// or redundant table row (Equivalent) or change the function
    /// (NotEquivalent with a replaying counterexample) — either way
    /// the verdict must coincide with the sweep.
    #[test]
    fn init_mutation_verdicts_match_the_sweep_at_4x4(
        d in 0..6usize,
        pick in 0..64usize,
        bit in 0..64u32,
    ) {
        let nl = design(4, d);
        let mutant = flip_init_bit(&nl, pick, bit).expect("every design has LUTs");
        check_pair_against_sweep(&nl, &mutant, 4);
    }
}

proptest! {
    // 8×8 sweeps cost 2×65536 evals per case; fewer cases keep the
    // suite inside the tier-1 budget.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Single-gate INIT mutations at 8×8, where the miter is past the
    /// lint truth-table cap's half-width: same coincidence property.
    #[test]
    fn init_mutation_verdicts_match_the_sweep_at_8x8(
        d in 0..6usize,
        pick in 0..256usize,
        bit in 0..64u32,
    ) {
        let nl = design(8, d);
        let mutant = flip_init_bit(&nl, pick, bit).expect("every design has LUTs");
        check_pair_against_sweep(&nl, &mutant, 8);
    }
}

/// Worst-case error by evaluating every operand pair with the
/// reference interpreter.
fn brute_force_wce(nl: &Netlist, bits: u32) -> u128 {
    let n = 1u64 << bits;
    let mut worst = 0u128;
    for a in 0..n {
        for b in 0..n {
            let p = nl.eval(&[a, b]).expect("eval")[0];
            worst = worst.max(u128::from(p).abs_diff(u128::from(a) * u128::from(b)));
        }
    }
    worst
}

/// The dispatching `prove_wce` (exhaustive at these widths), the CDCL
/// `prove_wce_sat` and brute force must agree on the wce, and each
/// engine's witness must replay to exactly that wce.
fn check_wce_engines_agree(nl: &Netlist, bits: u32) {
    let truth = brute_force_wce(nl, bits);
    let swept = prove_wce(nl, &WceOptions::default()).expect("provable");
    let proved = prove_wce_sat(nl, &WceOptions::default()).expect("provable");
    assert_eq!(swept.engine, WceEngine::Exhaustive);
    assert_eq!(proved.engine, WceEngine::Sat);
    for proof in [&swept, &proved] {
        assert_eq!(proof.wce, truth, "{} engine on {}", proof.engine, nl.name());
        let (a, b) = proof.witness;
        let p = nl.eval(&[a, b]).expect("replay")[0];
        assert_eq!(
            u128::from(p).abs_diff(u128::from(a) * u128::from(b)),
            truth,
            "{} witness on {}",
            proof.engine,
            nl.name()
        );
    }
}

/// The 4×4 roster: both wce engines and brute force agree.
#[test]
fn wce_engines_agree_on_the_4x4_roster() {
    for d in 0..6 {
        check_wce_engines_agree(&design(4, d), 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-INIT-bit mutants of the 4×4 roster: a flip anywhere in
    /// any LUT, so the error surface is arbitrary rather than designed.
    #[test]
    fn wce_engines_agree_on_4x4_init_mutants(
        d in 0..6usize,
        pick in 0..64usize,
        bit in 0..64u32,
    ) {
        let mutant = flip_init_bit(&design(4, d), pick, bit).expect("every design has LUTs");
        check_wce_engines_agree(&mutant, 4);
    }
}

proptest! {
    // Each case is one 8×8 brute-force sweep plus one CDCL proof.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 8×8 configuration trees with carry-free root summation. Their
    /// CDCL proofs take ~0.15 s in release; trees with an accurate
    /// root and a small wce are the Trunc(8,5) class (5–18 s each in
    /// release) and are covered by the ignored test below.
    #[test]
    fn wce_engines_agree_on_carry_free_8x8_trees(
        l0 in 0..5usize,
        l1 in 0..5usize,
        l2 in 0..5usize,
        l3 in 0..5usize,
    ) {
        let codes: Vec<String> = [l0, l1, l2, l3].iter().map(|&i| Leaf::ALL[i].code()).collect();
        let cfg: Config = format!("(c {})", codes.join(" ")).parse().expect("valid key");
        check_wce_engines_agree(&cfg.assemble(), 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Uniformly random 8×8 configuration trees, accurate roots
    /// included. Slow (up to ~20 s per case in release): run with
    /// `cargo test --release -p axmul-sat --test fuzz -- --ignored`.
    #[test]
    #[ignore = "CDCL proofs of accurate-root 8x8 trees take seconds each"]
    fn wce_engines_agree_on_random_8x8_trees(seed in 0u64..1 << 48) {
        let cfg = Config::random(8, &mut StdRng::seed_from_u64(seed));
        check_wce_engines_agree(&cfg.assemble(), 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary byte soup fed to the DIMACS parser: a typed
    /// `SatError::Dimacs` or a successful parse — never a panic, and
    /// never any other error class.
    #[test]
    fn hostile_dimacs_bytes_are_typed_errors(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        match parse_dimacs(&text) {
            Ok(_) => {}
            Err(SatError::Dimacs { .. }) => {}
            Err(other) => panic!("non-dimacs error class from parser: {other}"),
        }
    }

    /// Structured-but-wrong DIMACS: headers with absurd counts,
    /// literals past the declared range, truncated clauses. All typed.
    #[test]
    fn malformed_dimacs_structures_are_typed_errors(
        vars in 0..20u64,
        clauses in 0..8u64,
        lits in proptest::collection::vec(-25i64..25i64, 0..24),
        truncate in any::<bool>(),
    ) {
        let mut text = format!("c fuzz\np cnf {vars} {clauses}\n");
        for chunk in lits.chunks(3) {
            for l in chunk {
                text.push_str(&format!("{l} "));
            }
            if !truncate {
                text.push_str("0\n");
            }
        }
        match parse_dimacs(&text) {
            Ok(d) => {
                // Accepted instances must be internally consistent:
                // every literal within the declared variable range.
                for c in &d.clauses {
                    for l in c {
                        prop_assert!(l.var() >= 1 && l.var() <= d.num_vars);
                    }
                }
            }
            Err(SatError::Dimacs { .. }) => {}
            Err(other) => panic!("non-dimacs error class from parser: {other}"),
        }
    }
}
