//! Integration test for experiment E7: mechanical impossibility results
//! (Section 6.3) — completeness as a negative oracle.

use ftsyn::ctl::{FormulaArena, Owner, PropTable, Spec};
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::{
    problems::barrier, problems::mutex, synthesize, synthesize_with_engine, Engine,
    SynthesisProblem, ThreadPlan, Tolerance,
};

/// Runs `problem` through the CEGIS backend (ungoverned, 1 thread).
fn cegis(problem: &mut SynthesisProblem) -> ftsyn::SynthesisOutcome {
    synthesize_with_engine(problem, Engine::Cegis, ThreadPlan::uniform(1), None)
}

#[test]
fn barrier_with_fail_stop_and_nonmasking_is_impossible() {
    // Section 6.3: if P1 may stay down forever, the barrier problem has
    // no nonmasking-tolerant solution — the progress of P2 requires the
    // concomitant progress of P1.
    let mut problem = barrier::with_fail_stop_impossible(2);
    let outcome = synthesize(&mut problem);
    match outcome {
        ftsyn::SynthesisOutcome::Impossible(imp) => {
            // The whole tableau must cascade away from the root.
            assert!(imp.stats.deletion.total() > 0);
            assert!(imp.stats.tableau_nodes > 0);
        }
        ftsyn::SynthesisOutcome::Solved(_) => {
            panic!("Section 6.3 requires an impossibility result")
        }
        ftsyn::SynthesisOutcome::Aborted(_) => {
            unreachable!("ungoverned synthesis cannot abort")
        }
    }
}

/// Impossibility agreement: the CEGIS backend must return `Impossible`
/// on exactly the cases the tableau proves impossible — its negative
/// path is itself a certificate (an empty admissible universe, or a
/// deleted tableau root), never a bound artifact.
#[test]
fn both_engines_agree_the_barrier_case_is_impossible() {
    let mut problem = barrier::with_fail_stop_impossible(2);
    let outcome = cegis(&mut problem);
    assert!(
        matches!(outcome, ftsyn::SynthesisOutcome::Impossible(_)),
        "CEGIS must agree with the tableau impossibility"
    );
}

#[test]
fn both_engines_agree_on_the_unguarded_repair_impossibility() {
    let mut problem = unguarded_repair_problem();
    assert!(!cegis(&mut problem).is_solved());
}

#[test]
fn both_engines_agree_on_the_tolerance_strength_ordering() {
    // The masking/nonmasking/fail-safe ladder of
    // `tolerance_strength_ordering_on_one_problem`, judged by the CEGIS
    // backend: same split between solvable and impossible.
    for (tol, solvable) in [
        (Tolerance::Masking, false),
        (Tolerance::Nonmasking, false),
        (Tolerance::FailSafe, true),
    ] {
        let mut problem = broken_task_problem(tol);
        let outcome = cegis(&mut problem);
        let what = match &outcome {
            ftsyn::SynthesisOutcome::Solved(_) => "Solved".to_owned(),
            ftsyn::SynthesisOutcome::Impossible(_) => "Impossible".to_owned(),
            ftsyn::SynthesisOutcome::Aborted(a) => format!("Aborted({})", a.reason),
        };
        assert_eq!(
            outcome.is_solved(),
            solvable,
            "CEGIS disagrees with the tableau on {tol:?}: {what}"
        );
        if let ftsyn::SynthesisOutcome::Solved(s) = outcome {
            assert!(s.verification.ok(), "{:?}", s.verification.failures);
        }
    }
}

/// The bound-wins regression: four dining philosophers have a small
/// deterministic solution, but the tableau for the conjoined conflict
/// spec is large (the state explosion the second backend exists for).
/// The CEGIS engine must find a verified program from a few dozen
/// candidates without ever building that tableau; the wall-clock
/// head-to-head is pinned in bench JSON (`backend_comparison`).
#[test]
fn cegis_bound_wins_on_philosophers4() {
    let mut problem = mutex::dining_philosophers(4);
    let s = cegis(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);
    assert!(s.artifacts.is_none(), "no tableau on the CEGIS solved path");
    let p = &s.stats.cegis_profile;
    assert_eq!(p.certificate_nodes, 0, "solved without a certificate build");
    assert!(
        p.candidates <= 256,
        "philosophers4 must stay a small search ({} candidates)",
        p.candidates
    );
}

#[test]
fn the_solvable_counterpart_is_indeed_solvable() {
    // Sanity for the test above: the same barrier problem under general
    // state faults (which are always recoverable) is solvable.
    let mut problem = barrier::with_general_state_faults(2);
    assert!(synthesize(&mut problem).is_solved());
}

#[test]
fn unguarded_repair_into_critical_section_is_impossible() {
    // Footnote 11 justified mechanically: if the repair fault may revive
    // P1 directly into C1 regardless of P2, the fault can fire in a
    // state where C2 holds, producing the perturbed valuation [C1 C2] —
    // propositionally inconsistent with the masking label AG ¬(C1∧C2) —
    // and the deletion rules cascade to the root.
    let mut problem = unguarded_repair_problem();
    let outcome = synthesize(&mut problem);
    assert!(!outcome.is_solved(), "unguarded repair must be impossible");
}

/// mutex2-failstop with the guarded repair-to-C actions replaced by
/// unguarded ones (the footnote-11 counterexample).
fn unguarded_repair_problem() -> SynthesisProblem {
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    let mut faults = problem.faults.clone();
    for f in &mut faults {
        if f.name().starts_with("repair") && f.name().ends_with("to-C") {
            let assigns = f.assigns().to_vec();
            let d_guard = match f.guard() {
                BoolExpr::And(parts) => parts[0].clone(),
                g => g.clone(),
            };
            *f = FaultAction::new(f.name().to_owned(), d_guard, assigns).unwrap();
        }
    }
    assert!(
        faults.iter().any(|f| f.name().ends_with("to-C")),
        "repair actions present"
    );
    problem.faults = faults;
    problem
}

#[test]
fn plainly_unsatisfiable_specs_are_impossible_without_faults() {
    // The degenerate case: an unsatisfiable problem specification is
    // reported impossible by the same mechanism (no fault needed).
    let mut props = PropTable::new();
    props.add("p", Owner::Process(0)).unwrap();
    let mut arena = FormulaArena::new(1);
    let p = arena.prop(props.id("p").unwrap());
    let np = arena.not(p);
    let init = p;
    let afnp = arena.af(np);
    let agp = arena.ag(p);
    let ext = {
        let t = arena.tru();
        arena.ex_all(t)
    };
    let agext = arena.ag(ext);
    let tail = arena.and(afnp, agext);
    // AG p ∧ AF ¬p is unsatisfiable.
    let global = arena.and(agp, tail);
    let spec = Spec::new(&mut arena, init, global);
    let mut problem = SynthesisProblem::new(arena, props, spec, vec![], Tolerance::Masking);
    assert!(!synthesize(&mut problem).is_solved());
}

#[test]
fn tolerance_strength_ordering_on_one_problem() {
    // One fault, three tolerances: a fault that truthifies `broken`
    // (coupling pins ¬done while broken, forever). Masking needs the
    // pending AF done — impossible; nonmasking needs it eventually —
    // still impossible (broken is permanent); fail-safe drops the
    // liveness part — solvable.
    for (tol, solvable) in [
        (Tolerance::Masking, false),
        (Tolerance::Nonmasking, false),
        (Tolerance::FailSafe, true),
    ] {
        let mut problem = broken_task_problem(tol);
        let outcome = synthesize(&mut problem);
        assert_eq!(
            outcome.is_solved(),
            solvable,
            "{tol:?} should be {}",
            if solvable { "solvable" } else { "impossible" }
        );
        if let ftsyn::SynthesisOutcome::Solved(s) = outcome {
            assert!(s.verification.ok(), "{:?}", s.verification.failures);
        }
    }
}

/// A single-process task: `idle → try → done → idle` with
/// `AG(try ⇒ AF done)`. The fault breaks the machine in the `try` state;
/// the coupling makes `broken` permanent and incompatible with `done`.
fn broken_task_problem(tol: Tolerance) -> SynthesisProblem {
    let mut props = PropTable::new();
    let idle = props.add("idle", Owner::Process(0)).unwrap();
    let try_ = props.add("try", Owner::Process(0)).unwrap();
    let done = props.add("done", Owner::Process(0)).unwrap();
    let broken = props.add_aux("broken", Owner::Process(0)).unwrap();
    let mut arena = FormulaArena::new(1);
    let (fi, ft, fd, fb) = (
        arena.prop(idle),
        arena.prop(try_),
        arena.prop(done),
        arena.prop(broken),
    );
    let mut globals = Vec::new();
    // Exactly one of idle/try/done: at least one …
    let td = arena.or(ft, fd);
    let some_state = arena.or(fi, td);
    globals.push(some_state);
    // … and at most one.
    for (a, b1, b2) in [(fi, ft, fd), (ft, fi, fd), (fd, fi, ft)] {
        let or = arena.or(b1, b2);
        let nor = arena.not(or);
        let cl = arena.implies(a, nor);
        globals.push(cl);
    }
    // Movement: idle goes to try; done goes to idle.
    let axt = arena.ax(0, ft);
    let cl = arena.implies(fi, axt);
    globals.push(cl);
    let axi = arena.ax(0, fi);
    let cl = arena.implies(fd, axi);
    globals.push(cl);
    // Liveness: try leads to done.
    let afd = arena.af(fd);
    let cl = arena.implies(ft, afd);
    globals.push(cl);
    // Progress.
    let t = arena.tru();
    let ext = arena.ex_all(t);
    globals.push(ext);
    let global = arena.and_all(globals);
    let init = {
        let nb = arena.neg_prop(broken);
        arena.and(fi, nb)
    };
    // Coupling: broken is permanent and forbids done.
    let agb = arena.ag(fb);
    let c1 = arena.implies(fb, agb);
    let nd = arena.not(fd);
    let c2 = arena.implies(fb, nd);
    let coupling = arena.and(c1, c2);
    let spec = Spec::with_coupling(init, global, coupling);
    let fault = FaultAction::new(
        "break-in-try",
        BoolExpr::And(vec![BoolExpr::Prop(try_), BoolExpr::not_prop(broken)]),
        vec![(broken, PropAssign::True)],
    )
    .unwrap();
    SynthesisProblem::new(arena, props, spec, vec![fault], tol)
}
