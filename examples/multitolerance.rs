//! Reproduction of Section 8.2: multitolerance. Different fault classes
//! are tolerated in different ways within one synthesis — fail-stop
//! failures are *masked*, while an undetectable corruption that drops P1
//! into its critical region is tolerated *nonmasking* (ridden out).
//!
//! Run with `cargo run --release --example multitolerance`.

use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::kripke::StateRole;
use ftsyn::{problems::mutex, synthesize, SynthesisOutcome, Tolerance, ToleranceAssignment};

fn problem_with_corruption() -> (ftsyn::SynthesisProblem, usize) {
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    let n1 = problem.props.id("N1").unwrap();
    let t1 = problem.props.id("T1").unwrap();
    let c1 = problem.props.id("C1").unwrap();
    let d1 = problem.props.id("D1").unwrap();
    problem.faults.push(
        FaultAction::new(
            "corrupt-P1-to-C",
            BoolExpr::tru(),
            vec![
                (c1, PropAssign::True),
                (n1, PropAssign::False),
                (t1, PropAssign::False),
                (d1, PropAssign::False),
            ],
        )
        .expect("valid action"),
    );
    let idx = problem.faults.len() - 1;
    (problem, idx)
}

fn main() {
    println!("Fault classes:");
    println!("  1. fail-stop + repair (detectable)      -> require MASKING");
    println!("  2. corrupt P1 into C1 (undetectable)    -> require NONMASKING\n");

    // Uniform masking over both classes: impossible (the corruption can
    // create [C1 C2], contradicting AG ~(C1 & C2) outright).
    let (mut uniform, _) = problem_with_corruption();
    print!("uniform masking over both classes: ");
    match synthesize(&mut uniform) {
        SynthesisOutcome::Impossible(_) => println!("impossible (as expected)"),
        SynthesisOutcome::Solved(_) => println!("solved?! (bug)"),
        SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
    }

    // Multitolerance: per-fault-action tolerance assignment.
    let (mut mixed, corrupt_idx) = problem_with_corruption();
    let tols: Vec<Tolerance> = (0..mixed.faults.len())
        .map(|i| {
            if i == corrupt_idx {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        })
        .collect();
    mixed.tolerance = ToleranceAssignment::PerFault(tols);
    print!("multitolerant assignment:          ");
    match synthesize(&mut mixed) {
        SynthesisOutcome::Solved(s) => {
            println!(
                "SOLVED — {} states, verification {}",
                s.stats.model_states,
                if s.verification.ok() { "PASS" } else { "FAIL" }
            );
            let roles = s.model.classify();
            let entering = s.model.entering_fault_actions();
            let mut masked = 0;
            let mut ridden = 0;
            for st in s.model.state_ids() {
                if roles[st.index()] != StateRole::Perturbed {
                    continue;
                }
                if entering.row(st).contains(&(corrupt_idx as u32)) {
                    ridden += 1;
                } else {
                    masked += 1;
                }
            }
            println!(
                "perturbed states: {masked} reached by masked faults, {ridden} by the corruption"
            );
        }
        SynthesisOutcome::Impossible(_) => println!("impossible?! (bug)"),
        SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
    }
}
