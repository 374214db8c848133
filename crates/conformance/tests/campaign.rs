//! Fault-injection campaign suite: every golden case with faults is
//! synthesized and its program *run* under a seeded campaign of
//! randomized simulations, asserting the runtime counterpart of its
//! tolerance (see `ftsyn_conformance::campaign`). The golden suite pins
//! the program's text; this suite pins its behavior under injected
//! faults.

use ftsyn::guarded::sim::CampaignConfig;
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::problems::{barrier, mutex, readers_writers};
use ftsyn::{
    synthesize, synthesize_with_engine, Budget, Engine, Governor, SynthesisProblem, ThreadPlan,
    Tolerance, ToleranceAssignment,
};
use ftsyn_conformance::campaign::assert_campaign;

fn run(name: &str, mut problem: SynthesisProblem) {
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{name}: {:?}", s.verification.failures);
    // The campaign judges traces against the program's own explored
    // structure, so that structure must itself pass the model checker
    // (fault-displaced configurations make it a strict superset of the
    // synthesized model; the in-pipeline refinement loop guarantees the
    // superset still satisfies every tolerance label).
    let checked = ftsyn::check_program(&mut problem, &s.program)
        .unwrap_or_else(|e| panic!("{name}: not executable: {e}"));
    assert!(
        checked.tolerant(),
        "{name}: model checker rejects the extracted program: {}",
        checked.verification.failure_summary()
    );
    let report = assert_campaign(name, &mut problem, &s.program, &CampaignConfig::default());
    // Campaign strength: these hand-picked cases must actually exercise
    // what they claim to (faults fired, convergence probed).
    assert_eq!(report.runs, 16, "{name}");
    if !problem.faults.is_empty() {
        assert!(report.faulted_runs > 0, "{name}: no faults injected");
    }
    if report.convergence_checked {
        assert!(
            report.convergence_probes > 0,
            "{name}: no run was long enough to probe convergence"
        );
    }
}

#[test]
fn mutex2_failstop_masking_holds_at_runtime() {
    // Masking: safety always + convergence after the last fault.
    run(
        "mutex2-failstop-masking",
        mutex::with_fail_stop(2, Tolerance::Masking),
    );
}

#[test]
fn mutex3_failstop_masking_holds_at_runtime() {
    run(
        "mutex3-failstop-masking",
        mutex::with_fail_stop(3, Tolerance::Masking),
    );
}

#[test]
fn barrier2_nonmasking_converges_at_runtime() {
    // Nonmasking: transient violations allowed, convergence required.
    run("barrier2-nonmasking", barrier::with_general_state_faults(2));
}

#[test]
fn readers_writers_writer_failstop_holds_at_runtime() {
    run(
        "readers-writers-1R-writer-failstop",
        readers_writers::with_writer_fail_stop(1, Tolerance::Masking),
    );
}

/// Formerly the pinned extraction gap: per-fault multitolerance
/// assignments used to explore more global states than the model and
/// fail their tolerance labels there. The counterexample-guided guard
/// refinement in the pipeline now strengthens the implicated guards, so
/// these cases run the full campaign like every other.
#[test]
fn multitolerance_mutex3_holds_at_runtime() {
    run(
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

/// The 4-process scaling axis under the governor: synthesized with
/// deterministic caps, then put through the same campaign as every
/// other case. Shares its model/program shape with the pinned golden
/// (`multitolerance-mutex4-P1-nonmasking`).
#[test]
fn multitolerance_mutex4_holds_at_runtime() {
    let name = "multitolerance-mutex4-P1-nonmasking";
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
    assert!(s.verification.ok(), "{name}: {:?}", s.verification.failures);
    let checked = ftsyn::check_program(&mut problem, &s.program)
        .unwrap_or_else(|e| panic!("{name}: not executable: {e}"));
    assert!(
        checked.tolerant(),
        "{name}: model checker rejects the extracted program: {}",
        checked.verification.failure_summary()
    );
    let report = assert_campaign(name, &mut problem, &s.program, &CampaignConfig::default());
    assert!(report.faulted_runs > 0, "{name}: no faults injected");
}

#[test]
fn multitolerance_mixed_holds_at_runtime() {
    // The E9 instance: fail-stop masked, an undetectable corruption of
    // P1 ridden out nonmasking.
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
    run("multitolerance-mutex2-mixed", problem);
}

/// Fault-free sanity: the campaign machinery still applies (pure
/// containment + safety, no fault ever fires, convergence not probed).
#[test]
fn philosophers3_fault_free_stays_contained() {
    let name = "philosophers3-fault-free";
    let mut problem = mutex::dining_philosophers(3);
    let s = synthesize(&mut problem).unwrap_solved();
    let report = assert_campaign(name, &mut problem, &s.program, &CampaignConfig::default());
    assert_eq!(report.faulted_runs, 0, "{name}: no faults exist to inject");
    assert!(!report.convergence_checked, "{name}");
}
