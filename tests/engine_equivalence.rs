//! Equivalence regression between the two deletion engines: the
//! worklist implementation ([`apply_deletion_rules_mode`]) and the
//! sweep-based reference ([`apply_deletion_rules_naive_mode`], compiled
//! via the `slow-reference` feature) must produce identical alive-node
//! sets and identical per-rule [`DeletionStats`](ftsyn::tableau::DeletionStats)
//! on every problem, for both certificate modes.

use ftsyn::ctl::Closure;
use ftsyn::problems::{barrier, mutex, readers_writers};
use ftsyn::tableau::{
    apply_deletion_rules_mode, apply_deletion_rules_naive_mode, build, CertMode, Tableau,
};
use ftsyn::{SynthesisProblem, Tolerance};

/// Builds the closure and tableau `T₀` of a problem, exactly as the
/// synthesis pipeline does before the deletion phase.
fn tableau_of(problem: &mut SynthesisProblem) -> (Closure, Tableau) {
    let (closure, fault_spec, root) = problem.tableau_inputs();
    let t = build(&closure, &problem.props, root, &fault_spec);
    (closure, t)
}

fn assert_engines_agree(name: &str, make: impl Fn() -> SynthesisProblem) {
    for mode in [CertMode::FaultFree, CertMode::FaultProne] {
        let mut problem = make();
        let (closure, t0) = tableau_of(&mut problem);
        let mut t_worklist = t0.clone();
        let mut t_reference = t0;
        let fast = apply_deletion_rules_mode(&mut t_worklist, &closure, mode);
        let slow = apply_deletion_rules_naive_mode(&mut t_reference, &closure, mode);
        assert_eq!(fast, slow, "{name} ({mode:?}): per-rule stats differ");
        for id in t_worklist.node_ids() {
            assert_eq!(
                t_worklist.alive(id),
                t_reference.alive(id),
                "{name} ({mode:?}): engines disagree on node {id:?}"
            );
        }
    }
}

#[test]
fn mutex_fail_stop_masking() {
    assert_engines_agree("mutex+fail-stop/masking", || {
        mutex::with_fail_stop(2, Tolerance::Masking)
    });
}

#[test]
fn mutex_fail_stop_nonmasking() {
    assert_engines_agree("mutex+fail-stop/nonmasking", || {
        mutex::with_fail_stop(2, Tolerance::Nonmasking)
    });
}

#[test]
fn mutex_fault_free() {
    assert_engines_agree("mutex/fault-free", || mutex::fault_free(2));
}

#[test]
fn barrier_general_state_faults() {
    assert_engines_agree("barrier+state-faults", || {
        barrier::with_general_state_faults(2)
    });
}

#[test]
fn barrier_impossible_instance() {
    // The root dies here, exercising full-graph cascades in both
    // engines.
    assert_engines_agree("barrier+fail-stop/impossible", || {
        barrier::with_fail_stop_impossible(2)
    });
}

#[test]
fn readers_writers_writer_fail_stop() {
    assert_engines_agree("readers-writers+fail-stop", || {
        readers_writers::with_writer_fail_stop(2, Tolerance::FailSafe)
    });
}
