//! Minimization-engine conformance: the incremental + parallel
//! semantic minimizer must be a *drop-in* replacement for the original
//! greedy engine. Two properties are checked on real pipeline models
//! (built through closure → tableau → deletion → unraveling, exactly
//! the state the synthesis pipeline hands to minimization):
//!
//! 1. **Thread-matrix byte-identity** — the minimized model, the
//!    state mapping, and every deterministic profile counter are
//!    bit-identical at 1, 2 and 8 scan workers. The committed merge
//!    sequence is defined by the lowest-index verified candidate, not
//!    by scheduling.
//! 2. **Reference equivalence** — the fast engine's output is
//!    byte-identical to the preserved pre-optimization greedy engine
//!    (`ftsyn_conformance::reference`) on the same input, at every
//!    scan-thread count, and a governed run stops at the same attempt
//!    cap abort point.

use ftsyn::kripke::{FtKripke, StateId};
use ftsyn::problems::mutex;
use ftsyn::tableau::{apply_deletion_rules_mode, build};
use ftsyn::{
    semantic_minimize_governed, semantic_minimize_with_threads, unravel_mode, Budget, Governor,
    SynthesisProblem, Tolerance,
};
use ftsyn_conformance::differential::THREAD_MATRIX;
use ftsyn_conformance::reference::{
    merged, semantic_minimize_reference, semantic_minimize_reference_governed,
};

/// Runs the pipeline up to (but not including) minimization — the
/// exact input `synthesize` hands to the minimizer.
fn pre_minimization_model(problem: &mut SynthesisProblem) -> FtKripke {
    // The pipeline quotients by bisimulation before minimizing.
    ftsyn::kripke::bisimulation_quotient(&unraveled_model(problem)).model
}

/// The unraveled model before the bisimulation quotient: larger, with
/// more merge candidates per valuation than the pipeline's input.
fn unraveled_model(problem: &mut SynthesisProblem) -> FtKripke {
    let (closure, fault_spec, root_label) = problem.tableau_inputs();
    let mut tableau = build(&closure, &problem.props, root_label, &fault_spec);
    apply_deletion_rules_mode(&mut tableau, &closure, problem.mode);
    assert!(tableau.alive(tableau.root()), "problem is synthesizable");
    let c0 = tableau
        .alive_succ(tableau.root(), |_| true)
        .map(|(_, c)| c)
        .next()
        .expect("alive root has an alive AND child");
    unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode).model
}

/// `FtKripke` has no `PartialEq`; its `Debug` form is a complete,
/// deterministic rendering of states, valuations, roles and edges, so
/// string equality is byte-identity.
fn fingerprint(m: &FtKripke) -> String {
    format!("{m:?}")
}

fn pipeline_problems() -> Vec<(&'static str, SynthesisProblem)> {
    vec![
        (
            "mutex2-failstop-masking",
            mutex::with_fail_stop(2, Tolerance::Masking),
        ),
        (
            "mutex3-failstop-masking",
            mutex::with_fail_stop(3, Tolerance::Masking),
        ),
        ("philosophers3", mutex::dining_philosophers(3)),
    ]
}

#[test]
fn minimized_model_is_byte_identical_across_minimize_thread_counts() {
    for (name, mut problem) in pipeline_problems() {
        let model = pre_minimization_model(&mut problem);
        let (m0, map0, p0) =
            semantic_minimize_with_threads(&mut problem, model.clone(), THREAD_MATRIX[0]);
        for &threads in &THREAD_MATRIX[1..] {
            let (m, map, p) = semantic_minimize_with_threads(&mut problem, model.clone(), threads);
            assert_eq!(
                fingerprint(&m0),
                fingerprint(&m),
                "{name}: minimized model diverged at {threads} scan threads"
            );
            assert_eq!(
                map0, map,
                "{name}: state mapping diverged at {threads} threads"
            );
            assert_eq!(
                p0.deterministic_counters(),
                p.deterministic_counters(),
                "{name}: deterministic counters diverged at {threads} threads"
            );
            assert_eq!(p.threads, threads, "{name}: profile must record the budget");
        }
    }
}

type ProblemMaker = fn() -> SynthesisProblem;
type ModelMaker = fn(&mut SynthesisProblem) -> FtKripke;

/// The reference-equivalence problems. Each is checked on its
/// post-quotient model (the pipeline's own minimization input) and on
/// its pre-quotient unraveled model, which leaves the greedy scan many
/// more candidates to decide.
const REFERENCE_PROBLEMS: [(&str, ProblemMaker); 4] = [
    ("mutex2-failstop-masking", || {
        mutex::with_fail_stop(2, Tolerance::Masking)
    }),
    ("mutex2-failstop-nonmasking", || {
        mutex::with_fail_stop(2, Tolerance::Nonmasking)
    }),
    ("mutex3-failstop-masking", || {
        mutex::with_fail_stop(3, Tolerance::Masking)
    }),
    ("philosophers3", || mutex::dining_philosophers(3)),
];

/// The fast engine against the preserved original, at every scan-thread
/// count: identical model bytes, identical mapping, and identical
/// attempt/merge counts — the fast engine takes the same greedy
/// decisions, it just reaches them cheaper.
#[test]
fn fast_engine_is_byte_identical_to_reference_engine() {
    let models: [(&str, ModelMaker); 2] = [
        ("post-quotient", pre_minimization_model),
        ("unraveled", unraveled_model),
    ];
    for (problem_name, mk) in REFERENCE_PROBLEMS {
        for (model_name, model_of) in models {
            let name = format!("{problem_name}/{model_name}");
            let mut problem = mk();
            let model = model_of(&mut problem);
            let (slow, slow_map, slow_prof) =
                semantic_minimize_reference(&mut problem, model.clone());
            for threads in THREAD_MATRIX {
                // A fresh problem, with the same formulas re-derived.
                let mut problem = mk();
                let _ = model_of(&mut problem);
                let (fast, fast_map, fast_prof) =
                    semantic_minimize_with_threads(&mut problem, model.clone(), threads);
                let at = format!("{name} at {threads} threads");
                assert_eq!(
                    fingerprint(&fast),
                    fingerprint(&slow),
                    "{at}: model diverged"
                );
                assert_eq!(fast_map, slow_map, "{at}: state mapping diverged");
                assert_eq!(
                    fast_prof.attempts, slow_prof.attempts,
                    "{at}: attempts diverged"
                );
                assert_eq!(fast_prof.merges, slow_prof.merges, "{at}: merges diverged");
                assert_eq!(
                    fast_prof.pruned_candidates
                        + fast_prof.incremental_relabels
                        + fast_prof.full_checks,
                    fast_prof.attempts,
                    "{at}: decision-path counters must partition the attempts"
                );
            }
        }
    }
}

/// Governed runs abort at the same point as the reference engine: same
/// partial merge count, exactly `cap` attempts, at every thread count
/// (the governor determinism contract).
#[test]
fn governed_cap_abort_matches_reference() {
    let mk = || mutex::with_fail_stop(2, Tolerance::Masking);
    let pre = unraveled_model(&mut mk());
    let capped = |cap: usize| {
        Governor::with_budget(Budget {
            max_minimize_attempts: Some(cap),
            ..Budget::default()
        })
    };
    // Uncapped attempt count, to pick caps on both sides of rounds.
    let (_, _, full) = semantic_minimize_reference(&mut mk(), pre.clone());
    assert!(full.attempts > 4, "fixture large enough: {full:?}");
    for cap in [1, 3, full.attempts - 1] {
        let ref_abort = semantic_minimize_reference_governed(&mut mk(), pre.clone(), &capped(cap))
            .expect_err("cap below total attempts must abort");
        for threads in THREAD_MATRIX {
            let abort =
                semantic_minimize_governed(&mut mk(), pre.clone(), threads, Some(&capped(cap)))
                    .expect_err("cap below total attempts must abort");
            assert_eq!(
                format!("{}", abort.reason),
                format!("{}", ref_abort.reason),
                "cap={cap} threads={threads}"
            );
            assert_eq!(
                abort.profile.attempts, ref_abort.profile.attempts,
                "cap={cap} threads={threads}"
            );
            assert_eq!(abort.profile.attempts, cap, "cap is exact");
            assert_eq!(
                abort.profile.merges, ref_abort.profile.merges,
                "cap={cap} threads={threads}"
            );
        }
    }
    // A cap at or above the total attempt count never trips.
    let (_, _, p) = semantic_minimize_governed(&mut mk(), pre, 2, Some(&capped(full.attempts)))
        .expect("exact cap admits the full run");
    assert_eq!(p.attempts, full.attempts);
    assert_eq!(p.merges, full.merges);
}

/// The arithmetic `FtKripke::merged` is byte-identical to the reference
/// engine's map-based construction — on every candidate pair of a real
/// pipeline model, not just a toy.
#[test]
fn fast_merged_is_byte_identical_to_reference_merged() {
    let model = unraveled_model(&mut mutex::with_fail_stop(2, Tolerance::Masking));
    let ids: Vec<StateId> = model.state_ids().collect();
    let mut pairs = 0;
    for (i, &a) in ids.iter().enumerate() {
        for &b in ids.iter().skip(i + 1).take(3) {
            let (fast, fast_map) = model.merged(b, a);
            let (slow, slow_map) = merged(&model, b, a);
            assert_eq!(fingerprint(&fast), fingerprint(&slow), "{b:?}->{a:?}");
            assert_eq!(fast_map, slow_map, "{b:?}->{a:?}");
            pairs += 1;
        }
    }
    assert!(pairs > 10, "enough pairs exercised: {pairs}");
}
