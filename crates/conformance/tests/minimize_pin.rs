//! Pins the semantic minimizer's results on the benchmark's cases bit
//! for bit.
//!
//! For the three `solve-tableau` cases that minimize
//! (mutex4-failstop-masking, philosophers5-fault-free and
//! mutex3-failstop-multitolerance), this test runs the tableau engine
//! at 1 and 2 threads and compares the minimizer's deterministic
//! counters and the solved model's state count with constants recorded
//! before minimizer rounds stopped recomputing what a merge cannot
//! change. It then runs the minimizer alone on the pipeline's own input
//! (the bisimulation quotient of the unraveled model) and compares an
//! FNV-1a digest of the minimized model's `Debug` form and of the state
//! mapping: a change to the merge order, the grouping or the merge
//! itself shows here even where the counters happen to agree. CI runs
//! it in release (`cargo test --release -p ftsyn-conformance --test
//! minimize_pin`), the configuration the benchmark measures.

use ftsyn::kripke::{bisimulation_quotient, FtKripke, StateId};
use ftsyn::problems::mutex;
use ftsyn::tableau::{apply_deletion_rules_profiled, build_with_threads};
use ftsyn::{
    semantic_minimize, synthesize_with_engine, unravel_mode, Engine, SynthesisOutcome,
    SynthesisProblem, ThreadPlan, Tolerance,
};

/// FNV-1a over bytes, so the digest does not depend on the platform or
/// on a per-process hash seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What minimizing one case must produce.
struct Pin {
    /// `MinimizeProfile::deterministic_counters()`: attempts, merges,
    /// base labelings, full checks, pruned candidates, replayed.
    counters: [usize; 6],
    /// States of the minimized model.
    model_states: usize,
    /// Digest of the minimized model's `Debug` form followed by the
    /// mapping's.
    digest: u64,
}

/// The pipeline up to (but not including) minimization: the exact
/// model `synthesize` hands to the minimizer.
fn pre_minimization_model(problem: &mut SynthesisProblem) -> FtKripke {
    let (closure, fault_spec, root_label) = problem.tableau_inputs();
    let mut tableau = build_with_threads(&closure, &problem.props, root_label, &fault_spec, 1).0;
    apply_deletion_rules_profiled(&mut tableau, &closure, problem.mode);
    let c0 = tableau
        .alive_succ(tableau.root(), |_| true)
        .map(|(_, c)| c)
        .next()
        .expect("alive root has an alive AND child");
    let unraveled = unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode).model;
    bisimulation_quotient(&unraveled).model
}

fn digest(model: &FtKripke, mapping: &[StateId]) -> u64 {
    fnv1a(format!("{model:?}{mapping:?}").as_bytes())
}

fn assert_pinned(name: &str, make: &dyn Fn() -> SynthesisProblem, pin: &Pin) {
    for threads in [1, 2] {
        let at = format!("{name}@{threads}");
        let mut problem = make();
        let outcome = synthesize_with_engine(
            &mut problem,
            Engine::Tableau,
            ThreadPlan::uniform(threads),
            None,
        );
        let SynthesisOutcome::Solved(s) = outcome else {
            panic!("{at}: not solved");
        };
        assert_eq!(
            s.stats.minimize_profile.deterministic_counters(),
            pin.counters,
            "{at}: minimize counters"
        );
        assert_eq!(s.stats.model_states, pin.model_states, "{at}: model states");

        // The same problem has interned every formula the pipeline uses,
        // so the minimizer sees the formula ids it saw inside `synthesize`.
        let pre = pre_minimization_model(&mut problem);
        let (model, mapping, profile) = semantic_minimize(&mut problem, pre);
        assert_eq!(
            profile.deterministic_counters(),
            pin.counters,
            "{at}: minimize counters on the pipeline's input"
        );
        assert_eq!(model.len(), pin.model_states, "{at}: minimized states");
        let d = digest(&model, &mapping);
        assert_eq!(d, pin.digest, "{at}: model and mapping digest {d:#018x}");
    }
}

#[test]
fn mutex4_failstop_masking_is_pinned() {
    assert_pinned(
        "mutex4-failstop-masking",
        &|| mutex::with_fail_stop(4, Tolerance::Masking),
        &Pin {
            counters: [22_859, 111, 112, 496, 0, 22_363],
            model_states: 391,
            digest: 0xf6e1_5739_964c_fd83,
        },
    );
}

#[test]
fn philosophers5_fault_free_is_pinned() {
    assert_pinned(
        "philosophers5-fault-free",
        &|| mutex::dining_philosophers(5),
        &Pin {
            counters: [53_319, 143, 144, 1_307, 0, 52_012],
            model_states: 363,
            digest: 0x185e_e21b_a0a1_42b9,
        },
    );
}

#[test]
fn mutex3_failstop_multitolerance_is_pinned() {
    assert_pinned(
        "mutex3-failstop-multitolerance",
        &|| {
            mutex::with_fail_stop_multitolerance(3, |f| {
                if f.name().contains("P1") {
                    Tolerance::Nonmasking
                } else {
                    Tolerance::Masking
                }
            })
        },
        &Pin {
            counters: [637, 14, 15, 174, 0, 463],
            model_states: 131,
            digest: 0x2eab_5858_7c15_2f6c,
        },
    );
}
