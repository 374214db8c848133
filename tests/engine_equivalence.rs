//! Equivalence regression between the two deletion engines: the
//! worklist implementation ([`apply_deletion_rules_profiled`]) and the
//! sweep-based oracle ([`apply_deletion_rules_naive_mode`] in
//! `ftsyn_conformance::reference`) must produce identical alive-node
//! sets and identical per-rule [`DeletionStats`](ftsyn::tableau::DeletionStats)
//! on every problem, for both certificate modes. The bucket-queue
//! fulfillment certificates are held to the sweep-based ones the same
//! way.
//!
//! Part of the `ftsyn-conformance` test suite (see its `Cargo.toml`).

use ftsyn::ctl::{parse::parse, Closure, FormulaArena, Owner, PropTable};
use ftsyn::problems::{barrier, mutex, readers_writers};
use ftsyn::tableau::{
    apply_deletion_rules_profiled, au_fulfillment, build_with_threads, eu_fulfillment, CertMode,
    FaultSpec, Tableau,
};
use ftsyn::{SynthesisProblem, Tolerance};
use ftsyn_conformance::reference::{
    apply_deletion_rules_naive_mode, au_fulfillment_naive, eu_fulfillment_naive,
    live_eventualities_sweep,
};

/// Builds the closure and tableau `T₀` of a problem, exactly as the
/// synthesis pipeline does before the deletion phase.
fn tableau_of(problem: &mut SynthesisProblem) -> (Closure, Tableau) {
    let (closure, fault_spec, root) = problem.tableau_inputs();
    let t = build_with_threads(&closure, &problem.props, root, &fault_spec, 1).0;
    (closure, t)
}

/// The fault-free tableau of a one-process specification over `p`, `q`
/// (the shape of the deletion engine's unit-test specs).
fn spec_tableau(spec: &str) -> (Closure, Tableau) {
    let mut props = PropTable::new();
    props.add("p", Owner::Process(0)).unwrap();
    props.add("q", Owner::Process(0)).unwrap();
    let mut arena = FormulaArena::new(1);
    let f = parse(&mut arena, &mut props, spec, true).unwrap();
    let cl = Closure::build(&mut arena, &props, &[f]);
    let mut root = cl.empty_label();
    root.insert(cl.index_of(f).unwrap());
    let t = build_with_threads(&cl, &props, root, &FaultSpec::none(), 1).0;
    (cl, t)
}

fn assert_engines_agree(name: &str, (closure, t0): (Closure, Tableau)) {
    for mode in [CertMode::FaultFree, CertMode::FaultProne] {
        let mut t_worklist = t0.clone();
        let mut t_reference = t0.clone();
        let fast = apply_deletion_rules_profiled(&mut t_worklist, &closure, mode).0;
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
    assert_engines_agree(
        "mutex+fail-stop/masking",
        tableau_of(&mut mutex::with_fail_stop(2, Tolerance::Masking)),
    );
}

#[test]
fn mutex_fail_stop_nonmasking() {
    assert_engines_agree(
        "mutex+fail-stop/nonmasking",
        tableau_of(&mut mutex::with_fail_stop(2, Tolerance::Nonmasking)),
    );
}

#[test]
fn mutex_fault_free() {
    assert_engines_agree("mutex/fault-free", tableau_of(&mut mutex::fault_free(2)));
}

#[test]
fn barrier_general_state_faults() {
    assert_engines_agree(
        "barrier+state-faults",
        tableau_of(&mut barrier::with_general_state_faults(2)),
    );
}

#[test]
fn barrier_impossible_instance() {
    // The root dies here, exercising full-graph cascades in both
    // engines.
    assert_engines_agree(
        "barrier+fail-stop/impossible",
        tableau_of(&mut barrier::with_fail_stop_impossible(2)),
    );
}

#[test]
fn readers_writers_writer_fail_stop() {
    assert_engines_agree(
        "readers-writers+fail-stop",
        tableau_of(&mut readers_writers::with_writer_fail_stop(
            2,
            Tolerance::FailSafe,
        )),
    );
}

/// The specs of the deletion engine's unit tests: satisfiable roots,
/// propositional contradictions, unfulfillable and deferred
/// eventualities.
#[test]
fn deletion_unit_specs() {
    for spec in [
        "p & AG(EX1 true)",
        "p & ~p",
        "AG ~p & AF p & AG EX1 true",
        "~p & AF p & AG EX1 true",
        "EG ~p & AF p & AG EX1 true",
        "EF p & AG EX1 true",
        "~p & AF p",
    ] {
        assert_engines_agree(spec, spec_tableau(spec));
    }
}

/// The bucket-queue certificates agree with the sweep-based oracle on
/// fulfilled sets, and their ranks are minimal, hence never above the
/// oracle's (the oracle's `AU` ranks are not always minimal).
#[test]
fn fulfillment_matches_reference() {
    for spec in [
        "~p & AF p",
        "EF p & AG EX1 true",
        "AF (p & q) & AG EX1 true",
        "E[p U q] & A[true U p] & AG EX1 true",
        "EG ~p & AF p & AG EX1 true",
        // An `AU` whose `g` fails where its `AX` obligation starts.
        "~p & ~q & AX1 A[p U q] & AG EX1 true",
    ] {
        let (cl, t) = spec_tableau(spec);
        for mode in [CertMode::FaultFree, CertMode::FaultProne] {
            for (_, g, h, is_au) in live_eventualities_sweep(&t, &cl) {
                let (fast, slow) = if is_au {
                    (
                        au_fulfillment(&t, &cl, g, h, mode),
                        au_fulfillment_naive(&t, &cl, g, h, mode),
                    )
                } else {
                    (
                        eu_fulfillment(&t, &cl, g, h, mode),
                        eu_fulfillment_naive(&t, &cl, g, h, mode),
                    )
                };
                assert_eq!(
                    fast.fulfilled, slow.fulfilled,
                    "fulfilled sets differ for `{spec}` ({mode:?}, au={is_au})"
                );
                for id in t.node_ids() {
                    if fast.fulfilled[id.index()] {
                        assert!(fast.rank[id.index()] <= slow.rank[id.index()]);
                    }
                }
            }
        }
    }
}
