//! Model checking a *given* program against a fault-tolerance
//! specification.
//!
//! Section 2 of the paper: "One of the contributions of this paper is
//! the definition of a formal model of faults within the model-theoretic
//! setting, which enables mechanical reasoning about programs,
//! specifically, synthesis of a program from a specification (our topic
//! in this paper) and **model-checking a program against a
//! specification** (a topic we leave to another occasion, but certainly
//! one that our framework can address)." This module addresses it: a
//! hand-written (or externally synthesized) guarded-command program is
//! executed by the interpreter under the fault actions, and the
//! resulting fault-tolerant structure is checked against the
//! requirements of Section 3 — exactly the conditions the synthesizer
//! guarantees by construction.

use crate::problem::SynthesisProblem;
use crate::verify::{verify_semantic, Verification};
use ftsyn_guarded::interp::{explore, ExploreError};
use ftsyn_guarded::Program;
use ftsyn_kripke::FtKripke;
use std::fmt;

/// The result of checking a program: the generated structure plus the
/// verification verdicts.
#[derive(Debug)]
pub struct CheckReport {
    /// The global-state structure the program generates (with fault
    /// transitions).
    pub model: FtKripke,
    /// Verdicts: spec at every initial state under the problem's
    /// satisfaction relation, tolerance labels at perturbed states,
    /// fault closure.
    pub verification: Verification,
}

impl CheckReport {
    /// Whether the program is `TOL`-tolerant for the specification
    /// (all three requirements of Section 3 hold).
    pub fn tolerant(&self) -> bool {
        self.verification.ok()
    }
}

/// Errors while checking a program.
#[derive(Debug)]
pub enum CheckError {
    /// The interpreter could not execute the program (e.g. a fault
    /// produced a valuation matching no local state — the program does
    /// not even represent the fault class).
    Exploration(ExploreError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Exploration(e) => write!(f, "cannot execute the program: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Model-checks `program` against `problem`'s specification, fault
/// actions and tolerance requirement.
///
/// The program's propositions must be those of `problem.props` (the
/// usual setup: build the problem, then write — or synthesize — the
/// program over the same table).
///
/// # Errors
///
/// Returns [`CheckError::Exploration`] when the program cannot even be
/// executed under the fault actions.
pub fn check_program(
    problem: &mut SynthesisProblem,
    program: &Program,
) -> Result<CheckReport, CheckError> {
    let ex = explore(program, &problem.faults, &problem.props).map_err(CheckError::Exploration)?;
    let verification = verify_semantic(problem, &ex.kripke);
    Ok(CheckReport {
        model: ex.kripke,
        verification,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::mutex;
    use crate::synthesize;
    use crate::Tolerance;
    use ftsyn_guarded::{BoolExpr, LocalState, ProcArc, Process};
    use ftsyn_kripke::PropSet;

    #[test]
    fn synthesized_program_checks_out() {
        let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
        let s = synthesize(&mut problem).unwrap_solved();
        let report = check_program(&mut problem, &s.program).expect("executable");
        assert!(report.tolerant(), "{:?}", report.verification.failures);
    }

    /// A hand-written "mutex" that ignores the other process entirely:
    /// the checker must reject it (mutual exclusion is violated).
    #[test]
    fn broken_hand_written_program_is_rejected() {
        let mut problem = mutex::fault_free(2);
        let n = problem.props.len();
        let mk_proc = |i: usize, names: [&str; 3], props: &ftsyn_ctl::PropTable| {
            let ids: Vec<_> = names.iter().map(|nm| props.id(nm).unwrap()).collect();
            Process {
                index: i,
                states: ids
                    .iter()
                    .zip(names.iter())
                    .map(|(&p, nm)| LocalState {
                        name: (*nm).to_owned(),
                        props: PropSet::from_iter_with_capacity(n, [p]),
                    })
                    .collect(),
                arcs: (0..3)
                    .map(|k| ProcArc {
                        from: k,
                        to: (k + 1) % 3,
                        guard: BoolExpr::Const(true), // no coordination!
                        assigns: vec![],
                    })
                    .collect(),
            }
        };
        let p1 = mk_proc(0, ["N1", "T1", "C1"], &problem.props);
        let p2 = mk_proc(1, ["N2", "T2", "C2"], &problem.props);
        let program = Program {
            processes: vec![p1, p2],
            shared: vec![],
            init_locals: vec![0, 0],
            init_shared: vec![],
            num_props: n,
        };
        let report = check_program(&mut problem, &program).expect("executable");
        assert!(!report.tolerant(), "unguarded entry must violate mutex");
        assert!(report
            .verification
            .failures
            .iter()
            .any(|f| f.message.contains("~C1 | ~C2") || f.message.contains("violates")));
    }

    /// A fault-intolerant program (correct without faults) fails the
    /// check once fail-stop faults are in the problem: its local states
    /// cannot even represent the down state.
    #[test]
    fn fault_intolerant_program_cannot_represent_the_faults() {
        // Synthesize the fault-free program…
        let mut plain = mutex::fault_free(2);
        let s = synthesize(&mut plain).unwrap_solved();
        // …then check it against the fail-stop problem. The proposition
        // tables differ (D1/D2 exist only in the fail-stop problem), so
        // rebuild the program's valuations is not even possible — the
        // exploration fails to map the fault outcome.
        let mut failstop = mutex::with_fail_stop(2, Tolerance::Masking);
        let err = check_program(&mut failstop, &s.program);
        assert!(
            matches!(err, Err(CheckError::Exploration(_))),
            "a program without down states cannot represent fail-stops"
        );
    }
}
