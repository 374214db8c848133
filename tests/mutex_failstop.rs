//! Integration test for experiment E1–E4: two-process mutual exclusion
//! subject to fail-stop failures, masking tolerance (Section 6.1,
//! Figures 3–9).

use ftsyn::ctl::Owner;
use ftsyn::guarded::sim::{simulate, SimConfig};
use ftsyn::kripke::{Checker, PropSet, Semantics, StateRole, TransKind};
use ftsyn::{problems::mutex, synthesize, Tolerance};

fn solve() -> (ftsyn::SynthesisProblem, Box<ftsyn::Synthesized>) {
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    let outcome = synthesize(&mut problem);
    let solved = outcome.unwrap_solved();
    (problem, solved)
}

#[test]
fn synthesis_succeeds_and_verifies() {
    let (_, s) = solve();
    assert!(
        s.verification.ok(),
        "mechanical verification failed: {:?}",
        s.verification.failures
    );
    assert!(s.verification.perturbed_count > 0, "faults must perturb");
}

#[test]
fn normal_states_cover_the_fault_free_mutex_valuations() {
    // The fault-free portion (above Figure 8's line) visits exactly the
    // valuations of the Emerson-Clarke mutex model: both processes range
    // over {N,T,C} minus the mutual exclusion violation [C1 C2].
    let (problem, s) = solve();
    let roles = s.model.classify();
    let mut normal_valuations: Vec<PropSet> = Vec::new();
    for st in s.model.state_ids() {
        if roles[st.index()] == StateRole::Normal {
            let v = s.model.state(st).props.clone();
            if !normal_valuations.contains(&v) {
                normal_valuations.push(v);
            }
        }
    }
    // The synthesized solution visits the Emerson-Clarke region: it need
    // not visit all 8 legal valuations (the method may pick an
    // asymmetric solution), but it must include the initial state, both
    // critical-section entries, the contended [T1 T2] valuation, and
    // never the mutual exclusion violation [C1 C2].
    assert!(normal_valuations.len() >= 6, "{}", normal_valuations.len());
    let val = |names: &[&str]| {
        PropSet::from_iter_with_capacity(
            problem.props.len(),
            names.iter().map(|n| problem.props.id(n).unwrap()),
        )
    };
    for must in [
        val(&["N1", "N2"]),
        val(&["T1", "T2"]),
        val(&["C1", "T2"]),
        val(&["T1", "C2"]),
    ] {
        assert!(normal_valuations.contains(&must));
    }
    let c1 = problem.props.id("C1").unwrap();
    let c2 = problem.props.id("C2").unwrap();
    for v in &normal_valuations {
        assert!(!(v.contains(c1) && v.contains(c2)));
    }
    // The contended valuation needs disambiguation: a shared variable
    // exists and [T1 T2] occurs as (at least) two distinct states.
    let roles2 = s.model.classify();
    let t1t2 = val(&["T1", "T2"]);
    let copies = s
        .model
        .state_ids()
        .filter(|st| roles2[st.index()] == StateRole::Normal && s.model.state(*st).props == t1t2)
        .count();
    assert!(copies >= 2, "the paper's two [T1 T2] states");
}

#[test]
fn mutual_exclusion_holds_even_across_faults() {
    // Masking tolerance: the safety part holds at every reachable state,
    // including perturbed ones — check AG ¬(C1 ∧ C2) with fault
    // transitions included in the paths.
    let (mut problem, s) = solve();
    let c1p = problem.props.id("C1").unwrap();
    let c2p = problem.props.id("C2").unwrap();
    let c1 = problem.arena.prop(c1p);
    let c2 = problem.arena.prop(c2p);
    let both = problem.arena.and(c1, c2);
    let excl = problem.arena.not(both);
    let ag = problem.arena.ag(excl);
    let mut ck = Checker::new(&s.model, Semantics::IncludeFaults);
    let init = s.model.init_states()[0];
    assert!(ck.holds(&problem.arena, ag, init));
}

#[test]
fn starvation_freedom_holds_at_perturbed_states() {
    // Masking: AG(T2 ⇒ AF C2) holds at perturbed states too (under ⊨ₙ),
    // i.e. the surviving process is not starved by the other's failure.
    let (mut problem, s) = solve();
    let t2p = problem.props.id("T2").unwrap();
    let c2p = problem.props.id("C2").unwrap();
    let t2 = problem.arena.prop(t2p);
    let c2 = problem.arena.prop(c2p);
    let afc2 = problem.arena.af(c2);
    let imp = problem.arena.implies(t2, afc2);
    let ag = problem.arena.ag(imp);
    let mut ck = Checker::new(&s.model, Semantics::FaultFree);
    let roles = s.model.classify();
    for st in s.model.state_ids() {
        if roles[st.index()] == StateRole::Perturbed {
            assert!(
                ck.holds(&problem.arena, ag, st),
                "perturbed state {} starves P2",
                s.model.state(st).display(&problem.props)
            );
        }
    }
}

#[test]
fn down_states_exist_and_are_left_by_repair_faults_only_or_self_loops() {
    let (problem, s) = solve();
    let d1 = problem.props.id("D1").unwrap();
    let mut saw_down = false;
    for st in s.model.state_ids() {
        if !s.model.state(st).props.contains(d1) {
            continue;
        }
        saw_down = true;
        // Program transitions out of a D1 state must keep D1 except for
        // P1's own moves (the spec does not forbid self-repair, but
        // other processes can never change D1 — coupling clause 3).
        for e in s.model.succ(st) {
            if e.kind == TransKind::Proc(1) {
                assert!(
                    s.model.state(e.to).props.contains(d1),
                    "P2's move revived P1"
                );
            }
        }
    }
    assert!(saw_down, "fail-stop faults must produce down states");
}

#[test]
fn extracted_program_shape() {
    let (problem, s) = solve();
    assert_eq!(s.program.processes.len(), 2);
    for p in &s.program.processes {
        // Local states: N, T, C, D.
        assert_eq!(
            p.states.len(),
            4,
            "P{} locals: {:?}",
            p.index + 1,
            p.states.iter().map(|l| &l.name).collect::<Vec<_>>()
        );
        assert!(!p.arcs.is_empty());
    }
    // The [T1 T2] valuation is duplicated in the Emerson-Clarke model, so
    // at least one shared variable exists.
    assert!(
        !s.program.shared.is_empty(),
        "expected a disambiguating shared variable"
    );
    // Render without panicking.
    let txt = s.program.display(&problem.props);
    assert!(txt.contains("process P1:"));
    assert!(txt.contains("process P2:"));
}

#[test]
fn simulation_never_violates_mutual_exclusion() {
    let (problem, s) = solve();
    let c1 = problem.props.id("C1").unwrap();
    let c2 = problem.props.id("C2").unwrap();
    for seed in 0..20 {
        let cfg = SimConfig {
            steps: 400,
            fault_prob: 0.2,
            max_faults: 6,
            seed,
        };
        let trace = simulate(&s.program, &problem.faults, &problem.props, &cfg);
        assert!(
            trace.always(|v| !(v.contains(c1) && v.contains(c2))),
            "seed {seed}: mutual exclusion violated under fault injection"
        );
        // The synthesized program never deadlocks (AG EX true).
        assert!(
            !trace
                .steps
                .iter()
                .any(|k| matches!(k, ftsyn::guarded::sim::SimStep::Deadlock)),
            "seed {seed}: deadlock"
        );
    }
}

#[test]
fn fault_free_variant_matches_emerson_clarke_region() {
    // E3's upper half: the fault-free mutex synthesis (no faults at all).
    let mut problem = mutex::fault_free(2);
    let outcome = synthesize(&mut problem);
    let s = outcome.unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);
    assert_eq!(s.stats.fault_transitions, 0);
    let roles = s.model.classify();
    assert!(roles.iter().all(|r| *r == StateRole::Normal));
    // No auxiliary propositions in the fault-free problem.
    assert!(problem.props.iter().all(|p| !problem.props.is_aux(p)));
    assert!(problem
        .props
        .iter()
        .all(|p| matches!(problem.props.owner(p), Owner::Process(_))));
}
