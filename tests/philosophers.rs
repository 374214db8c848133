//! Integration tests for conflict-graph mutual exclusion and dining
//! philosophers (generalizations of the paper's Section 2.2 problem).

use ftsyn::kripke::{Checker, Semantics};
use ftsyn::{problems::mutex, synthesize};

#[test]
fn four_philosophers_synthesize_and_opposite_neighbors_can_eat_together() {
    let mut problem = mutex::dining_philosophers(4);
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);

    let c = |i: usize| problem.props.id(&format!("C{i}")).unwrap();
    // Adjacent philosophers never eat together…
    for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 1)] {
        assert!(
            s.model.state_ids().all(|st| {
                let v = &s.model.state(st).props;
                !(v.contains(c(a)) && v.contains(c(b)))
            }),
            "adjacent {a}/{b} eat together"
        );
    }
    // …and some reachable state has opposite philosophers eating at once
    // (EF(C1 ∧ C3) under ⊨ₙ): the conflict graph is a cycle, not a
    // clique, so the synthesized solution may exploit the parallelism.
    let c1 = problem.arena.prop(c(1));
    let c3 = problem.arena.prop(c(3));
    let both = problem.arena.and(c1, c3);
    let ef = problem.arena.ef(both);
    let mut ck = Checker::new(&s.model, Semantics::FaultFree);
    assert!(
        ck.holds(&problem.arena, ef, s.model.init_states()[0]),
        "opposite philosophers should be able to eat concurrently"
    );
}

#[test]
fn nobody_starves_at_the_table() {
    let mut problem = mutex::dining_philosophers(3);
    let s = synthesize(&mut problem).unwrap_solved();
    let mut ck = Checker::new(&s.model, Semantics::FaultFree);
    for i in 1..=3 {
        let t = problem
            .arena
            .prop(problem.props.id(&format!("T{i}")).unwrap());
        let c = problem
            .arena
            .prop(problem.props.id(&format!("C{i}")).unwrap());
        let af = problem.arena.af(c);
        let imp = problem.arena.implies(t, af);
        let ag = problem.arena.ag(imp);
        assert!(
            ck.holds(&problem.arena, ag, s.model.init_states()[0]),
            "philosopher {i} starves"
        );
    }
}

#[test]
fn empty_conflict_graph_gives_independent_cyclers() {
    // With no conflicts, every pair may be critical simultaneously.
    let mut problem = mutex::conflict_fault_free(2, &[]);
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok());
    let c1 = problem.arena.prop(problem.props.id("C1").unwrap());
    let c2 = problem.arena.prop(problem.props.id("C2").unwrap());
    let both = problem.arena.and(c1, c2);
    let ef = problem.arena.ef(both);
    let mut ck = Checker::new(&s.model, Semantics::FaultFree);
    assert!(ck.holds(&problem.arena, ef, s.model.init_states()[0]));
}

#[test]
fn complete_graph_reduces_to_the_paper_mutex() {
    let mut a = mutex::conflict_fault_free(2, &[(0, 1)]);
    let mut b = mutex::fault_free(2);
    let sa = synthesize(&mut a).unwrap_solved();
    let sb = synthesize(&mut b).unwrap_solved();
    assert_eq!(sa.stats.model_states, sb.stats.model_states);
    assert_eq!(sa.stats.tableau_nodes, sb.stats.tableau_nodes);
}
