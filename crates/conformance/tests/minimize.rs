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
//! 2. **Reference equivalence** (with `--features slow-reference`) —
//!    the fast engine's output is byte-identical to the preserved
//!    pre-optimization greedy engine on the same input.

use ftsyn::kripke::FtKripke;
use ftsyn::problems::mutex;
use ftsyn::tableau::{apply_deletion_rules_mode, build};
use ftsyn::{semantic_minimize_with_threads, unravel_mode, SynthesisProblem, Tolerance};
use ftsyn_conformance::differential::THREAD_MATRIX;

/// Runs the pipeline up to (but not including) minimization — the
/// exact input `synthesize` hands to the minimizer.
fn pre_minimization_model(problem: &mut SynthesisProblem) -> FtKripke {
    let (closure, fault_spec, root_label) = problem.tableau_inputs();
    let mut tableau = build(&closure, &problem.props, root_label, &fault_spec);
    apply_deletion_rules_mode(&mut tableau, &closure, problem.mode);
    assert!(tableau.alive(tableau.root()), "problem is synthesizable");
    let c0 = tableau
        .alive_succ(tableau.root(), |_| true)
        .map(|(_, c)| c)
        .next()
        .expect("alive root has an alive AND child");
    let unraveled = unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode).model;
    // The pipeline quotients by bisimulation before minimizing.
    ftsyn::kripke::bisimulation_quotient(&unraveled).model
}

/// `FtKripke` has no `PartialEq`; its `Debug` form is a complete,
/// deterministic rendering of states, valuations, roles and edges, so
/// string equality is byte-identity.
fn fingerprint(m: &FtKripke) -> String {
    format!("{m:?}")
}

fn pipeline_problems() -> Vec<(&'static str, SynthesisProblem)> {
    vec![
        ("mutex2-failstop-masking", mutex::with_fail_stop(2, Tolerance::Masking)),
        ("mutex3-failstop-masking", mutex::with_fail_stop(3, Tolerance::Masking)),
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
            let (m, map, p) =
                semantic_minimize_with_threads(&mut problem, model.clone(), threads);
            assert_eq!(
                fingerprint(&m0),
                fingerprint(&m),
                "{name}: minimized model diverged at {threads} scan threads"
            );
            assert_eq!(map0, map, "{name}: state mapping diverged at {threads} threads");
            assert_eq!(
                p0.deterministic_counters(),
                p.deterministic_counters(),
                "{name}: deterministic counters diverged at {threads} threads"
            );
            assert_eq!(p.threads, threads, "{name}: profile must record the budget");
        }
    }
}

/// With `--features slow-reference`: the fast engine against the
/// preserved original. Identical model bytes, identical mapping, and
/// identical attempt/merge counts — the fast engine takes the same
/// greedy decisions, it just reaches them cheaper.
#[cfg(feature = "slow-reference")]
#[test]
fn fast_engine_is_byte_identical_to_reference_engine() {
    use ftsyn::semantic_minimize_reference;
    for (name, mut problem) in pipeline_problems() {
        let model = pre_minimization_model(&mut problem);
        let (fast, fast_map, fast_prof) =
            semantic_minimize_with_threads(&mut problem, model.clone(), 1);
        let (slow, slow_map, slow_prof) = semantic_minimize_reference(&mut problem, model);
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&slow),
            "{name}: fast engine diverged from the reference engine"
        );
        assert_eq!(fast_map, slow_map, "{name}: state mapping diverged");
        assert_eq!(fast_prof.attempts, slow_prof.attempts, "{name}: attempts diverged");
        assert_eq!(fast_prof.merges, slow_prof.merges, "{name}: merges diverged");
    }
}
