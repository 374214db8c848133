//! Run-to-run determinism regression tests.
//!
//! Before the pipeline was made deterministic, `HashMap` iteration
//! order leaked into the frontier queue of the unraveling and into the
//! greedy merge order of semantic minimization
//! (`minimize.rs`' group formation), so two syntheses of the same
//! problem could disagree on the final state count — 85 vs 86 on
//! mutex3-failstop — and print different-but-equivalent programs.
//! These tests fail on that seed behavior.

use ftsyn::problems::mutex;
use ftsyn::{synthesize, synthesize_with_threads, Tolerance};
use ftsyn_conformance::render::render_solved;

fn assert_two_runs_identical(name: &str, make: impl Fn() -> ftsyn::SynthesisProblem) {
    let mut p1 = make();
    let mut p2 = make();
    let s1 = synthesize(&mut p1).unwrap_solved();
    let s2 = synthesize(&mut p2).unwrap_solved();
    assert_eq!(
        s1.stats.model_states, s2.stats.model_states,
        "{name}: model-state counts diverged between two in-process syntheses"
    );
    assert_eq!(
        render_solved(&p1, &s1),
        render_solved(&p2, &s2),
        "{name}: rendered programs diverged between two in-process syntheses"
    );
}

/// Like [`assert_two_runs_identical`], but the runs pin explicit
/// tableau worker-thread counts, so the comparison covers both
/// run-to-run determinism and the work-stealing scheduler's
/// thread-count independence in one pass.
fn assert_runs_identical_across_threads(
    name: &str,
    make: impl Fn() -> ftsyn::SynthesisProblem,
    thread_counts: &[usize],
) {
    let mut p1 = make();
    let s1 = synthesize_with_threads(&mut p1, thread_counts[0]).unwrap_solved();
    let r1 = render_solved(&p1, &s1);
    for &threads in &thread_counts[1..] {
        let mut p = make();
        let s = synthesize_with_threads(&mut p, threads).unwrap_solved();
        assert_eq!(
            s1.stats.model_states, s.stats.model_states,
            "{name}: model-state counts diverged at {threads} threads"
        );
        assert_eq!(
            r1,
            render_solved(&p, &s),
            "{name}: rendered programs diverged at {threads} threads"
        );
    }
}

/// The historical nondeterminism witness: mutex3-failstop produced 85
/// or 86 states depending on `HashMap` iteration order (each map
/// instance gets a fresh `RandomState`, so even two syntheses inside
/// one process diverged).
#[test]
fn mutex3_failstop_is_run_to_run_deterministic() {
    assert_two_runs_identical("mutex3-failstop-masking", || {
        mutex::with_fail_stop(3, Tolerance::Masking)
    });
}

#[test]
fn mutex2_failstop_is_run_to_run_deterministic() {
    assert_two_runs_identical("mutex2-failstop-masking", || {
        mutex::with_fail_stop(2, Tolerance::Masking)
    });
}

#[test]
fn philosophers_are_run_to_run_deterministic() {
    assert_two_runs_identical("philosophers4-fault-free", || mutex::dining_philosophers(4));
}

/// Three-process multitolerance (P1 nonmasking, rest masking): the
/// per-fault tolerance assignment adds label sets to the closure and
/// tableau, a surface the masking-only regressions above never touch.
#[test]
fn multitolerance3_is_run_to_run_deterministic() {
    assert_two_runs_identical("multitolerance-mutex3-P1-nonmasking", || {
        mutex::with_fail_stop_multitolerance(3, |f| {
            if f.name().contains("P1") {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        })
    });
}

/// The largest determinism regression: mutex4-failstop synthesized
/// fully at 1 worker thread and at 8 (the scheduler's steal paths
/// actually exercised), rendered programs compared byte-for-byte. This
/// is the slowest test in the suite — dominated by semantic
/// minimization, not the build (see EXPERIMENTS.md) — so it pins two
/// thread counts rather than the full matrix.
#[test]
fn mutex4_failstop_is_deterministic_across_thread_counts() {
    assert_runs_identical_across_threads(
        "mutex4-failstop-masking",
        || mutex::with_fail_stop(4, Tolerance::Masking),
        &[1, 8],
    );
}

/// The guard-refinement loop (counterexample-driven strengthening in
/// the extraction stage) must be as deterministic as every other
/// phase: two full syntheses of the 4-process multitolerance instance
/// — the case with the largest refined-arc count — byte-compared.
#[test]
fn multitolerance4_refinement_is_run_to_run_deterministic() {
    assert_two_runs_identical("multitolerance-mutex4-P1-nonmasking", || {
        mutex::with_fail_stop_multitolerance(4, |f| {
            if f.name().contains("P1") {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        })
    });
}
