//! Golden-program snapshot suite: the synthesized skeleton for every
//! example problem and `.ftsyn` spec file is pinned byte-for-byte.
//!
//! Regenerate after an intentional pipeline change with
//! `UPDATE_GOLDEN=1 cargo test -p ftsyn-conformance --test golden`.

use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::problems::{barrier, mutex, readers_writers, wire};
use ftsyn::{
    synthesize, synthesize_with_engine, Budget, Engine, Governor, SynthesisProblem, ThreadPlan,
    Tolerance, ToleranceAssignment,
};
use ftsyn_conformance::golden::assert_golden;
use ftsyn_conformance::render::{render_program, render_solved};
use std::path::PathBuf;

fn check(name: &str, mut problem: SynthesisProblem) {
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{name}: {:?}", s.verification.failures);
    assert_golden(name, &render_solved(&problem, &s));
}

#[test]
fn mutex_fail_stop() {
    check(
        "mutex2-failstop-masking",
        mutex::with_fail_stop(2, Tolerance::Masking),
    );
}

/// The largest pinned masking instance: four processes under fail-stop
/// faults. Minimization dominates this synthesis (tens of seconds — see
/// EXPERIMENTS.md), so it is pinned once here; the thread-matrix
/// determinism regression for the same instance lives in
/// `determinism.rs`.
#[test]
fn mutex4_fail_stop() {
    check(
        "mutex4-failstop-masking",
        mutex::with_fail_stop(4, Tolerance::Masking),
    );
}

/// Three-process multitolerance: P1's fail-stop is ridden out
/// nonmasking while every other fault (including repairs) stays
/// masked. Extends the pinned multitolerance coverage beyond the
/// two-process E9 instance below.
#[test]
fn multitolerance_mutex4() {
    // The §8.2 scaling axis the extraction gap used to block: four
    // processes under a per-fault assignment, synthesized under
    // deterministic governor caps (the tableau runs ~45k nodes and the
    // refinement loop is bounded) so a regression that blows up either
    // aborts instead of hanging the suite.
    let mut problem = mutex::with_fail_stop_multitolerance(4, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    });
    let gov = Governor::with_budget(Budget {
        max_states: Some(60_000),
        max_extract_refine_rounds: Some(4),
        ..Budget::default()
    });
    let s = synthesize_with_engine(
        &mut problem,
        Engine::Tableau,
        ThreadPlan::uniform(ftsyn::default_threads()),
        Some(&gov),
    )
    .unwrap_solved();
    assert!(
        s.verification.ok(),
        "multitolerance-mutex4: {:?}",
        s.verification.failures
    );
    assert!(s.stats.extract_profile.verified);
    assert_golden(
        "multitolerance-mutex4-P1-nonmasking",
        &ftsyn_conformance::render::render_solved(&problem, &s),
    );
}

#[test]
fn multitolerance_mutex3() {
    check(
        "multitolerance-mutex3-P1-nonmasking",
        mutex::with_fail_stop_multitolerance(3, |f| {
            if f.name().contains("P1") {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        }),
    );
}

#[test]
fn barrier_state_faults() {
    check("barrier2-nonmasking", barrier::with_general_state_faults(2));
}

#[test]
fn readers_writers_writer_fail_stop() {
    check(
        "readers-writers-1R-writer-failstop",
        readers_writers::with_writer_fail_stop(1, Tolerance::Masking),
    );
}

#[test]
fn dining_philosophers() {
    check("philosophers3-fault-free", mutex::dining_philosophers(3));
}

#[test]
fn multitolerance_mixed() {
    // The E9 instance: fail-stop faults masked, an undetectable
    // corruption of P1 ridden out nonmasking (Section 8.2).
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    let (n1, t1, c1, d1) = (
        problem.props.id("N1").unwrap(),
        problem.props.id("T1").unwrap(),
        problem.props.id("C1").unwrap(),
        problem.props.id("D1").unwrap(),
    );
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
        .unwrap(),
    );
    let corrupt_idx = problem.faults.len() - 1;
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
    check("multitolerance-mutex2-mixed", problem);
}

#[test]
fn wire_stuck_at() {
    // Not a synthesis problem: the Section 2.3 wire is a concrete
    // guarded-command system. Its program rendering and explored
    // state-space size are pinned instead.
    let w = wire::build(None);
    let ex = ftsyn::guarded::interp::explore(&w.program, &w.faults, &w.props).expect("explore");
    let text = format!(
        "states: {} ({} fault edges)\nprogram:\n{}",
        ex.kripke.len(),
        ex.kripke.fault_edge_count(),
        render_program(&w.program, &w.props)
    );
    assert_golden("wire-stuck-at", &text);
}

fn spec_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name)
}

fn check_spec(golden: &str, file: &str) {
    let src = std::fs::read_to_string(spec_file(file))
        .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    let problem = ftsyn_cli::parse_problem(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
    check(golden, problem);
}

#[test]
fn spec_mutex_failstop() {
    check_spec("spec-mutex_failstop", "mutex_failstop.ftsyn");
}

#[test]
fn spec_reset_task() {
    check_spec("spec-reset_task", "reset_task.ftsyn");
}
