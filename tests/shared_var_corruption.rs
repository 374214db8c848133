//! Integration test for experiment E12 (Section 5.3): faults may corrupt
//! the shared synchronization variables introduced by the extraction
//! step, and the extracted program tolerates it — a corrupted `x` merely
//! moves execution to a sibling state of the same valuation, from which
//! recovery is guaranteed; out-of-domain values are reinterpreted as the
//! default `1`.

use ftsyn::guarded::interp::explore;
use ftsyn::guarded::{BoolExpr, FaultAction, SharedCorruption};
use ftsyn::kripke::{Checker, Semantics};
use ftsyn::{problems::mutex, synthesize};

fn corrupting_fault(var: usize, how: SharedCorruption) -> FaultAction {
    FaultAction::new("corrupt-x", BoolExpr::tru(), vec![])
        .unwrap()
        .with_shared_corruption(vec![(var, how)])
}

#[test]
fn mutex_program_uses_a_shared_variable() {
    let mut problem = mutex::fault_free(2);
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(
        !s.program.shared.is_empty(),
        "the mutex model needs disambiguation (two [T1 T2] states)"
    );
}

#[test]
fn arbitrary_corruption_preserves_all_properties() {
    let mut problem = mutex::fault_free(2);
    let s = synthesize(&mut problem).unwrap_solved();
    let fault = corrupting_fault(0, SharedCorruption::Arbitrary);
    let ex = explore(&s.program, &[fault], &problem.props).expect("explore");
    let m = &ex.kripke;
    assert!(m.fault_edge_count() > 0);

    // Safety across faults: mutual exclusion holds on all paths,
    // including those through corruptions.
    let c1 = problem.arena.prop(problem.props.id("C1").unwrap());
    let c2 = problem.arena.prop(problem.props.id("C2").unwrap());
    let both = problem.arena.and(c1, c2);
    let nboth = problem.arena.not(both);
    let ag_excl = problem.arena.ag(nboth);
    let mut ckf = Checker::new(m, Semantics::IncludeFaults);
    assert!(ckf.holds(&problem.arena, ag_excl, m.init_states()[0]));

    // Liveness from *every* reachable state (so in particular from every
    // corruption target): T1 ⇒ AF C1 and T2 ⇒ AF C2 under ⊨ₙ.
    let mut ckn = Checker::new(m, Semantics::FaultFree);
    for (a, b) in [("T1", "C1"), ("T2", "C2")] {
        let t = problem.arena.prop(problem.props.id(a).unwrap());
        let c = problem.arena.prop(problem.props.id(b).unwrap());
        let afc = problem.arena.af(c);
        let imp = problem.arena.implies(t, afc);
        let sat = ckn.eval(&problem.arena, imp).clone();
        for st in m.state_ids() {
            assert!(
                sat.contains(st),
                "state {} starves after x-corruption",
                m.state(st).display(&problem.props)
            );
        }
    }
}

#[test]
fn out_of_domain_corruption_defaults_to_one() {
    let mut problem = mutex::fault_free(2);
    let s = synthesize(&mut problem).unwrap_solved();
    let fault = corrupting_fault(0, SharedCorruption::Value(77));
    let ex = explore(&s.program, &[fault], &problem.props).expect("explore");
    for st in ex.kripke.state_ids() {
        for e in ex.kripke.succ(st) {
            if e.kind.is_fault() {
                assert_eq!(
                    ex.kripke.state(e.to).shared[0],
                    1,
                    "out-of-domain write must be reinterpreted as 1"
                );
            }
        }
    }
}

#[test]
fn corruption_does_not_enlarge_the_valuation_space() {
    // Corrupting x never creates new valuations — only moves between
    // sibling states (Section 5.3's case analysis).
    let mut problem = mutex::fault_free(2);
    let s = synthesize(&mut problem).unwrap_solved();
    let plain = explore(&s.program, &[], &problem.props).expect("explore");
    let fault = corrupting_fault(0, SharedCorruption::Arbitrary);
    let ex = explore(&s.program, &[fault], &problem.props).expect("explore");
    let vals = |m: &ftsyn::kripke::FtKripke| -> std::collections::BTreeSet<Vec<u32>> {
        m.state_ids()
            .map(|st| m.state(st).props.iter().map(|p| p.0).collect())
            .collect()
    };
    assert_eq!(vals(&plain.kripke), vals(&ex.kripke));
}
