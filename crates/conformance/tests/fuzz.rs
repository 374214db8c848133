//! Seeded differential fuzzer: random problem instances, each
//! synthesized across the full worker-thread matrix (1, 2, and 8
//! threads; run-to-run and scheduler determinism asserted
//! byte-for-byte) and every synthesized program re-checked by the
//! model checker as an independent oracle. Every case also
//! cross-checks the work-stealing build engine (at 2 worker threads)
//! against the sequential naive-kernel reference build.
//!
//! The seed matrix is fixed (1..=60) so CI runs are reproducible; a
//! failing seed can be replayed with
//! `ftsyn_conformance::differential::run_seed(<seed>)`.

use ftsyn_conformance::differential::run_seed;

fn run_range(lo: u64, hi: u64) {
    for seed in lo..=hi {
        run_seed(seed);
    }
}

// Split into chunks so the libtest harness runs them in parallel.
#[test]
fn seeds_01_to_10() {
    run_range(1, 10);
}

#[test]
fn seeds_11_to_20() {
    run_range(11, 20);
}

#[test]
fn seeds_21_to_30() {
    run_range(21, 30);
}

#[test]
fn seeds_31_to_40() {
    run_range(31, 40);
}

#[test]
fn seeds_41_to_50() {
    run_range(41, 50);
}

#[test]
fn seeds_51_to_60() {
    run_range(51, 60);
}

/// The extraction-gap class must actually be exercised: at least one
/// seed in the matrix must carry a per-fault multitolerance assignment
/// *and* synthesize, so the model-checker re-check inside [`run_seed`]
/// judges an extracted multitolerant program — the class the fuzzer
/// was historically blind to because its per-fault seeds all proved
/// impossible or were never asserted against `check_program`.
#[test]
fn per_fault_multitolerance_seeds_are_exercised() {
    use ftsyn::ToleranceAssignment;
    use ftsyn_conformance::generate::random_problem;
    use ftsyn_prng::XorShift64;

    let per_fault: Vec<u64> = (1..=60)
        .filter(|&seed| {
            matches!(
                random_problem(&mut XorShift64::new(seed)).problem.tolerance,
                ToleranceAssignment::PerFault(_)
            )
        })
        .collect();
    assert!(
        !per_fault.is_empty(),
        "no per-fault multitolerance seed in the 1..=60 matrix"
    );
    // Lazy: stops at the first per-fault seed that synthesizes (each
    // run_seed already asserts check_program accepts the program).
    assert!(
        per_fault.iter().map(|&seed| run_seed(seed)).any(|r| r.solved),
        "no per-fault multitolerance seed synthesizes — the extraction \
         refinement path is never fuzzed: {per_fault:?}"
    );
}

/// The generator must produce both synthesizable and impossible
/// instances — a fuzzer that only ever sees one branch tests nothing.
#[test]
fn seed_matrix_covers_both_outcomes() {
    let results: Vec<_> = (1..=20).map(run_seed).collect();
    assert!(
        results.iter().any(|r| r.solved),
        "no solvable instance in seeds 1..=20: {results:?}"
    );
    assert!(
        results.iter().any(|r| !r.solved),
        "no impossible instance in seeds 1..=20: {results:?}"
    );
}
