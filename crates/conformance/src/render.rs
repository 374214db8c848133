//! Canonical, timing-free rendering of synthesis results.
//!
//! The golden suite and the differential fuzzer both compare rendered
//! text byte-for-byte, so everything here must be a pure function of
//! the synthesized artifact — no timings, no environment.

use ftsyn::ctl::PropTable;
use ftsyn::guarded::Program;
use ftsyn::kripke::StateRole;
use ftsyn::{SynthesisOutcome, SynthesisProblem, Synthesized};
use std::fmt::Write as _;

/// Renders a solved synthesis: model-state counts by role, transition
/// counts, the verification verdict with per-kind failure counts, and
/// the extracted program.
pub fn render_solved(problem: &SynthesisProblem, s: &Synthesized) -> String {
    let roles = s.model.classify();
    let count = |r: StateRole| roles.iter().filter(|x| **x == r).count();
    let mut out = String::new();
    writeln!(
        out,
        "states: {} (normal {}, perturbed {}, recovery {})",
        s.stats.model_states,
        count(StateRole::Normal),
        count(StateRole::Perturbed),
        count(StateRole::Recovery),
    )
    .expect("writing to String");
    writeln!(
        out,
        "transitions: {} program + {} fault",
        s.stats.program_transitions, s.stats.fault_transitions
    )
    .expect("writing to String");
    let verdict = if s.verification.ok() {
        "PASS".to_owned()
    } else {
        format!("FAIL ({})", s.verification.failure_summary())
    };
    writeln!(out, "verification: {verdict}").expect("writing to String");
    out.push_str("program:\n");
    push_program(&mut out, &s.program, &problem.props);
    out
}

/// Renders either outcome of a synthesis run.
pub fn render_outcome(problem: &SynthesisProblem, outcome: &SynthesisOutcome) -> String {
    match outcome {
        SynthesisOutcome::Solved(s) => render_solved(problem, s),
        SynthesisOutcome::Impossible(imp) => format!(
            "impossible (tableau {} nodes, {} deleted)\n",
            imp.stats.tableau_nodes,
            imp.stats.deletion.total()
        ),
        // Deterministic caps render their counters; the reason text is
        // timing-free for every abort a conformance test can produce
        // (deadline aborts embed durations, but the suites never set
        // deadlines on compared runs).
        SynthesisOutcome::Aborted(a) => {
            format!("aborted in {} phase: {}\n", a.phase, a.reason)
        }
    }
}

/// Renders a concrete (hand-written) guarded-command program, as used
/// for the wire example's golden file.
pub fn render_program(program: &Program, props: &PropTable) -> String {
    let mut out = String::new();
    push_program(&mut out, program, props);
    out
}

fn push_program(out: &mut String, program: &Program, props: &PropTable) {
    let text = program.display(props).to_string();
    out.push_str(&text);
    if !text.ends_with('\n') {
        out.push('\n');
    }
}
