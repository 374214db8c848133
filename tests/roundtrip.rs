//! Integration test: extracted programs regenerate their models.
//!
//! The argument behind Corollary 7.1 — "execution of the extracted
//! program P does indeed generate M_F" — checked mechanically in two
//! parts:
//!
//! 1. **Fault-free exactness.** The interpreter run *without* faults
//!    regenerates the normal (fault-free reachable) portion of the
//!    synthesized model state-for-state and edge-for-edge.
//! 2. **Faulty-semantics preservation.** With faults injected, the
//!    regenerated structure may differ from `M_F` in *which member* of a
//!    shared-variable group a fault lands on (faults do not read shared
//!    variables — Section 5.3 shows the difference is harmless), so the
//!    comparison is semantic: the regenerated structure satisfies the
//!    temporal specification at its initial state under `⊨ₙ` and the
//!    tolerance labels at its perturbed states, and is fault-closed.

use ftsyn::guarded::interp::explore;
use ftsyn::kripke::{Checker, FtKripke, Semantics, StateRole, TransKind};
use ftsyn::{problems::barrier, problems::mutex, synthesize, Tolerance};
use std::collections::BTreeSet;

type StateKey = (Vec<u32>, Vec<u32>); // (valuation, shared values)

fn state_key(m: &FtKripke, s: ftsyn::kripke::StateId) -> StateKey {
    (
        m.state(s).props.iter().map(|p| p.0).collect(),
        m.state(s).shared.clone(),
    )
}

/// The fault-free reachable restriction of a structure as comparable
/// sets of states and labeled program edges.
fn fault_free_restriction(
    m: &FtKripke,
) -> (BTreeSet<StateKey>, BTreeSet<(StateKey, usize, StateKey)>) {
    let roles = m.classify();
    let mut states = BTreeSet::new();
    let mut edges = BTreeSet::new();
    for s in m.state_ids() {
        if roles[s.index()] != StateRole::Normal {
            continue;
        }
        states.insert(state_key(m, s));
        for e in m.succ(s) {
            if let TransKind::Proc(i) = e.kind {
                if roles[e.to.index()] == StateRole::Normal {
                    edges.insert((state_key(m, s), i as usize, state_key(m, e.to)));
                }
            }
        }
    }
    (states, edges)
}

fn check_fault_free_exact(
    model: &FtKripke,
    program: &ftsyn::guarded::Program,
    props: &ftsyn::ctl::PropTable,
) {
    let regen = explore(program, &[], props).expect("fault-free exploration");
    let (ms, me) = fault_free_restriction(model);
    let (rs, re) = fault_free_restriction(&regen.kripke);
    assert_eq!(ms, rs, "fault-free state sets differ");
    assert_eq!(me, re, "fault-free transition relations differ");
}

fn check_faulty_semantics(
    problem: &mut ftsyn::SynthesisProblem,
    program: &ftsyn::guarded::Program,
) {
    let regen = explore(program, &problem.faults, &problem.props).expect("faulty exploration");
    let m = &regen.kripke;
    let spec_formula = problem.spec.formula(&mut problem.arena);
    let mut ck = Checker::new(m, Semantics::FaultFree);
    assert!(
        ck.holds(&problem.arena, spec_formula, m.init_states()[0]),
        "regenerated structure violates the specification at init"
    );
    let roles = m.classify();
    let entering = m.entering_fault_actions();
    for s in m.state_ids() {
        if roles[s.index()] != StateRole::Perturbed {
            continue;
        }
        let mut tols = Vec::new();
        for &a in entering.row(s) {
            let t = problem.tolerance.of(a as usize);
            if !tols.contains(&t) {
                tols.push(t);
            }
        }
        for tol in tols {
            for f in problem.label_tol_formulas(tol) {
                assert!(
                    ck.holds(&problem.arena, f, s),
                    "regenerated perturbed state {} violates its {tol:?} label",
                    m.state(s).display(&problem.props)
                );
            }
        }
    }
    // Fault closure of the regenerated structure.
    for s in m.state_ids() {
        let v = &m.state(s).props;
        for (ai, a) in problem.faults.iter().enumerate() {
            if a.enabled(v) {
                assert!(
                    m.succ(s)
                        .iter()
                        .any(|e| e.kind == TransKind::Fault(ai as u32)),
                    "regenerated structure misses a fault edge for `{}`",
                    a.name()
                );
            }
        }
    }
}

#[test]
fn fault_free_mutex_round_trips() {
    let mut problem = mutex::fault_free(2);
    let s = synthesize(&mut problem).unwrap_solved();
    check_fault_free_exact(&s.model, &s.program, &problem.props);
}

#[test]
fn fail_stop_mutex_round_trips() {
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    let s = synthesize(&mut problem).unwrap_solved();
    check_fault_free_exact(&s.model, &s.program, &problem.props);
    check_faulty_semantics(&mut problem, &s.program);
}

#[test]
fn barrier_round_trips() {
    let mut problem = barrier::with_general_state_faults(2);
    let s = synthesize(&mut problem).unwrap_solved();
    check_fault_free_exact(&s.model, &s.program, &problem.props);
    check_faulty_semantics(&mut problem, &s.program);
}
