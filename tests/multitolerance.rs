//! Integration test for experiment E9: multitolerance (Section 8.2) —
//! different fault classes tolerated in different ways within a single
//! synthesis.

use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::kripke::{Checker, Semantics, StateRole};
use ftsyn::{problems::mutex, synthesize, SynthesisProblem, Tolerance, ToleranceAssignment};

/// Mutex under fail-stop faults *plus* an undetectable corruption fault
/// that drops P1 straight into its critical region.
fn mixed_problem() -> (SynthesisProblem, usize) {
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    let n1 = problem.props.id("N1").unwrap();
    let t1 = problem.props.id("T1").unwrap();
    let c1 = problem.props.id("C1").unwrap();
    let d1 = problem.props.id("D1").unwrap();
    let corrupt = FaultAction::new(
        "corrupt-P1-to-C",
        BoolExpr::tru(),
        vec![
            (c1, PropAssign::True),
            (n1, PropAssign::False),
            (t1, PropAssign::False),
            (d1, PropAssign::False),
        ],
    )
    .unwrap();
    problem.faults.push(corrupt);
    let corrupt_idx = problem.faults.len() - 1;
    (problem, corrupt_idx)
}

#[test]
fn uniform_masking_with_corruption_is_impossible() {
    // The corruption can produce [C1 C2], which contradicts the masking
    // label AG ¬(C1 ∧ C2) outright.
    let (mut problem, _) = mixed_problem();
    assert!(!synthesize(&mut problem).is_solved());
}

#[test]
fn multitolerance_masks_fail_stops_and_rides_out_corruption() {
    let (mut problem, corrupt_idx) = mixed_problem();
    let tols: Vec<Tolerance> = (0..problem.faults.len())
        .map(|i| {
            if i == corrupt_idx {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        })
        .collect();
    problem.tolerance = ToleranceAssignment::PerFault(tols);
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);

    // The nonmasking guarantee: AF AG(global) from every perturbed state
    // reached by the corruption.
    let ag_global = {
        let g = problem.spec.global;
        problem.arena.ag(g)
    };
    let af_ag = problem.arena.af(ag_global);
    let roles = s.model.classify();
    let entering = s.model.entering_fault_actions();
    let mut ck = Checker::new(&s.model, Semantics::FaultFree);
    let mut corruption_targets = 0;
    for st in s.model.state_ids() {
        if roles[st.index()] != StateRole::Perturbed {
            continue;
        }
        if entering.row(st).contains(&(corrupt_idx as u32)) {
            corruption_targets += 1;
            assert!(
                ck.holds(&problem.arena, af_ag, st),
                "corrupted state {} must converge",
                s.model.state(st).display(&problem.props)
            );
        }
    }
    assert!(corruption_targets > 0, "corruption must hit some state");

    // The masking guarantee still holds for fail-stop-reached states.
    for st in s.model.state_ids() {
        if roles[st.index()] != StateRole::Perturbed {
            continue;
        }
        let via_fail_stop = entering
            .row(st)
            .iter()
            .any(|&a| problem.faults[a as usize].name().starts_with("fail-stop"));
        if via_fail_stop {
            assert!(
                ck.holds(&problem.arena, ag_global, st),
                "fail-stop state {} must be masked",
                s.model.state(st).display(&problem.props)
            );
        }
    }
}

/// Three processes with per-action tolerances: P1's fail-stop/repair
/// actions are only required to be nonmasking, P2's and P3's stay
/// masking. The per-action labels must survive semantic minimization —
/// on the *final* (minimized) model, every perturbed state still honors
/// the tolerance of each fault action that reaches it.
#[test]
fn three_process_multitolerance_labels_survive_minimization() {
    let mut problem = mutex::with_fail_stop_multitolerance(3, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    });
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);

    let ag_global = {
        let g = problem.spec.global;
        problem.arena.ag(g)
    };
    let af_ag = problem.arena.af(ag_global);
    let roles = s.model.classify();
    let entering = s.model.entering_fault_actions();
    let mut ck = Checker::new(&s.model, Semantics::FaultFree);
    let (mut via_p1, mut via_rest) = (0, 0);
    for st in s.model.state_ids() {
        if roles[st.index()] != StateRole::Perturbed {
            continue;
        }
        for &a in entering.row(st) {
            let a = a as usize;
            if problem.faults[a].name().contains("P1") {
                via_p1 += 1;
                assert!(
                    ck.holds(&problem.arena, af_ag, st),
                    "state {} reached by nonmasking {} must converge",
                    s.model.state(st).display(&problem.props),
                    problem.faults[a].name()
                );
            } else {
                via_rest += 1;
                assert!(
                    ck.holds(&problem.arena, ag_global, st),
                    "state {} reached by masking {} must be masked",
                    s.model.state(st).display(&problem.props),
                    problem.faults[a].name()
                );
            }
        }
    }
    assert!(via_p1 > 0, "some perturbed state is reached by a P1 fault");
    assert!(
        via_rest > 0,
        "some perturbed state is reached by a P2/P3 fault"
    );
}

#[test]
fn per_fault_assignment_round_trips() {
    let (mut problem, corrupt_idx) = mixed_problem();
    let n = problem.faults.len();
    let tols: Vec<Tolerance> = (0..n)
        .map(|i| {
            if i == corrupt_idx {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        })
        .collect();
    problem.tolerance = ToleranceAssignment::PerFault(tols.clone());
    for (i, &t) in tols.iter().enumerate() {
        assert_eq!(problem.tolerance.of(i), t);
    }
    assert_eq!(
        problem.tolerance.distinct(),
        vec![Tolerance::Masking, Tolerance::Nonmasking]
    );
}
