//! Pins step 5's counters bit for bit.
//!
//! Step 5 explores the extracted program under the faults, counts the
//! explored states that lie off the synthesized model, and refines
//! guards until the explored structure re-verifies. For the two
//! benchmark cases whose extraction dominates their solve, this test
//! runs both engines at 1 and 2 threads and compares the whole
//! [`ExtractProfile`] with constants recorded before the explorer
//! stopped indexing its states by content: a change to the explorer's
//! state numbering, its ambiguity check, the off-model count or the
//! refinement loop shows here. CI runs it in release (`cargo test
//! --release -p ftsyn-conformance --test extract_pin`), the
//! configuration the benchmark measures.

use ftsyn::problems::mutex;
use ftsyn::{
    synthesize_with_engine, Engine, ExtractProfile, SynthesisOutcome, SynthesisProblem, ThreadPlan,
    Tolerance,
};

fn multitolerance3() -> SynthesisProblem {
    mutex::with_fail_stop_multitolerance(3, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    })
}

fn assert_pinned(
    name: &str,
    make: &dyn Fn() -> SynthesisProblem,
    engine: Engine,
    pin: &ExtractProfile,
) {
    for threads in [1, 2] {
        let mut problem = make();
        let at = format!("{name} [{}]@{threads}", engine.name());
        let outcome =
            synthesize_with_engine(&mut problem, engine, ThreadPlan::uniform(threads), None);
        let SynthesisOutcome::Solved(s) = outcome else {
            panic!("{at}: not solved");
        };
        assert_eq!(&s.stats.extract_profile, pin, "{at}: extract profile");
    }
}

#[test]
fn mutex4_failstop_masking_is_pinned() {
    let make = || mutex::with_fail_stop(4, Tolerance::Masking);
    assert_pinned(
        "mutex4-failstop-masking",
        &make,
        Engine::Tableau,
        &ExtractProfile {
            model_states: 391,
            shared_vars: 93,
            explored_states: 36_477,
            off_model_states: 36_096,
            refined_arcs: 0,
            refinement_rounds: 0,
            verified: true,
        },
    );
    assert_pinned(
        "mutex4-failstop-masking",
        &make,
        Engine::Cegis,
        &ExtractProfile {
            model_states: 320,
            shared_vars: 61,
            explored_states: 24_948,
            off_model_states: 24_628,
            refined_arcs: 0,
            refinement_rounds: 0,
            verified: true,
        },
    );
}

#[test]
fn mutex3_failstop_multitolerance_is_pinned() {
    assert_pinned(
        "mutex3-failstop-multitolerance",
        &multitolerance3,
        Engine::Tableau,
        &ExtractProfile {
            model_states: 131,
            shared_vars: 46,
            explored_states: 1_782,
            off_model_states: 1_696,
            refined_arcs: 59,
            refinement_rounds: 1,
            verified: true,
        },
    );
    assert_pinned(
        "mutex3-failstop-multitolerance",
        &multitolerance3,
        Engine::Cegis,
        &ExtractProfile {
            model_states: 102,
            shared_vars: 34,
            explored_states: 1_026,
            off_model_states: 954,
            refined_arcs: 0,
            refinement_rounds: 0,
            verified: true,
        },
    );
}
