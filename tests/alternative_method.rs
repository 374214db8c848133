//! Integration tests for the alternative synthesis method of Section
//! 8.3: correctness over *fault-prone* paths (`⊨` rather than `⊨ₙ`).
//!
//! The paper's analysis: "this alternative method would accommodate
//! stronger correctness statements, [but] it may be inapplicable in many
//! situations where our current method would work. For example, repeated
//! occurrence of faults could violate some correctness property, causing
//! the problem to have no model in this setting." All predictions are
//! checked mechanically below — including the positive case the
//! trade-off leaves open: *bounded* faults, under which liveness
//! survives every fault-prone path.

use ftsyn::ctl::{FormulaArena, FormulaId, Owner, PropTable, Spec};
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::kripke::{Checker, Semantics, StateRole};
use ftsyn::{problems::mutex, synthesize, SynthesisProblem, Tolerance};

#[test]
fn masking_mutex_is_impossible_under_fault_prone_correctness() {
    // Repeated fail-stops can postpone C2 forever: along a fault-prone
    // path where P2 keeps failing (or stays down), AG(T2 ⇒ AF C2) fails,
    // so the problem has no model in the Section 8.3 setting even though
    // the main method solves it.
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking).with_fault_prone_correctness();
    assert!(
        !synthesize(&mut problem).is_solved(),
        "liveness cannot survive unboundedly repeated fail-stops"
    );
}

#[test]
fn main_method_still_solves_what_the_alternative_cannot() {
    // The same masking problem is solvable by the main method — the
    // trade-off the paper describes (weaker statement, wider scope).
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    assert!(synthesize(&mut problem).is_solved());
}

/// A single-process task `idle → try → done → idle` with the liveness
/// requirement `AG(try ⇒ AF done)`, subject to a *reset* fault that
/// throws the process back to `idle` from `try`. When `bounded`, the
/// fault may occur at most once (a unary occurrence counter that the
/// program cannot modify).
fn reset_task(bounded: bool) -> SynthesisProblem {
    let mut props = PropTable::new();
    let idle = props.add("idle", Owner::Process(0)).unwrap();
    let try_ = props.add("try", Owner::Process(0)).unwrap();
    let done = props.add("done", Owner::Process(0)).unwrap();
    let cnt = bounded.then(|| props.add_aux("cnt0", Owner::Process(0)).unwrap());
    let mut arena = FormulaArena::new(1);
    let (fi, ft, fd) = (arena.prop(idle), arena.prop(try_), arena.prop(done));
    let mut globals: Vec<FormulaId> = Vec::new();
    // Exactly one mode.
    let td = arena.or(ft, fd);
    let any = arena.or(fi, td);
    globals.push(any);
    for (a, b1, b2) in [(fi, ft, fd), (ft, fi, fd), (fd, fi, ft)] {
        let or = arena.or(b1, b2);
        let nor = arena.not(or);
        let cl = arena.implies(a, nor);
        globals.push(cl);
    }
    // Movement and liveness.
    let axt = arena.ax(0, ft);
    let cl = arena.implies(fi, axt);
    globals.push(cl);
    let axi = arena.ax(0, fi);
    let cl = arena.implies(fd, axi);
    globals.push(cl);
    let afd = arena.af(fd);
    let cl = arena.implies(ft, afd);
    globals.push(cl);
    let t = arena.tru();
    let ext = arena.ex_all(t);
    globals.push(ext);
    let global = arena.and_all(globals);
    let init = if let Some(c) = cnt {
        let nc = arena.neg_prop(c);
        arena.and(fi, nc)
    } else {
        fi
    };
    // Coupling: the occurrence counter is not program-writable in
    // either direction (only the fault action sets it). AXᵢ ranges over
    // program transitions only, so the fault itself is unconstrained.
    let coupling = if let Some(c) = cnt {
        let fc = arena.prop(c);
        let nfc = arena.neg_prop(c);
        let axc = arena.ax(0, fc);
        let up = arena.implies(fc, axc);
        let axnc = arena.ax(0, nfc);
        let down = arena.implies(nfc, axnc);
        arena.and(up, down)
    } else {
        arena.tru()
    };
    let spec = Spec::with_coupling(init, global, coupling);
    let guard = match cnt {
        Some(c) => BoolExpr::And(vec![BoolExpr::Prop(try_), BoolExpr::not_prop(c)]),
        None => BoolExpr::Prop(try_),
    };
    let mut assigns = vec![
        (try_, PropAssign::False),
        (idle, PropAssign::True),
        (done, PropAssign::False),
    ];
    if let Some(c) = cnt {
        assigns.push((c, PropAssign::True));
    }
    let fault = FaultAction::new("reset", guard, assigns).unwrap();
    SynthesisProblem::new(arena, props, spec, vec![fault], Tolerance::Masking)
}

#[test]
fn bounded_faults_allow_fault_prone_liveness() {
    // With at most one reset, `AF done` is fulfilled along *every* path,
    // resets included — the alternative method succeeds and the result
    // holds under the plain |=.
    let mut problem = reset_task(true).with_fault_prone_correctness();
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);
    let done = problem.arena.prop(problem.props.id("done").unwrap());
    let try_ = problem.arena.prop(problem.props.id("try").unwrap());
    let afd = problem.arena.af(done);
    let imp = problem.arena.implies(try_, afd);
    let ag = problem.arena.ag(imp);
    let mut ck = Checker::new(&s.model, Semantics::IncludeFaults);
    assert!(
        ck.holds(&problem.arena, ag, s.model.init_states()[0]),
        "liveness must hold over fault-prone paths"
    );
    let roles = s.model.classify();
    assert!(roles.contains(&StateRole::Perturbed));
}

#[test]
fn unbounded_resets_are_impossible_under_fault_prone_correctness() {
    let mut problem = reset_task(false).with_fault_prone_correctness();
    assert!(
        !synthesize(&mut problem).is_solved(),
        "an unboundedly repeatable reset defeats AF done on fault-prone paths"
    );
}

#[test]
fn unbounded_resets_are_fine_under_the_main_method() {
    // The main method tolerates the unbounded reset (the reset lands on
    // a normal valuation, so masking is immediate).
    let mut problem = reset_task(false);
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);
}

#[test]
fn safety_only_specs_work_in_both_modes() {
    // A pure-safety mutex (starvation-freedom dropped) is synthesizable
    // under fault-prone correctness too: invariances survive arbitrary
    // fault interleavings when every fault lands on a safe valuation.
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    // Drop the AF clauses from the global specification.
    let safety = problem.spec.global_safety(&mut problem.arena);
    problem.spec.global = safety;
    let mut problem = problem.with_fault_prone_correctness();
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);
    // Mutual exclusion along every fault-prone path.
    let c1 = problem.arena.prop(problem.props.id("C1").unwrap());
    let c2 = problem.arena.prop(problem.props.id("C2").unwrap());
    let both = problem.arena.and(c1, c2);
    let nboth = problem.arena.not(both);
    let ag = problem.arena.ag(nboth);
    let mut ck = Checker::new(&s.model, Semantics::IncludeFaults);
    assert!(ck.holds(&problem.arena, ag, s.model.init_states()[0]));
}
