//! Backend-differential suite: the CEGIS bounded-synthesis engine
//! cross-checked against the tableau engine.
//!
//! Two layers:
//!
//! - **Corpus**: every synthesizable golden-corpus case must solve via
//!   CEGIS, with the program accepted by the kripke oracle
//!   ([`check_program`]) and a seeded fault-injection campaign — the
//!   acceptance bar of the tableau goldens, applied to the second
//!   engine.
//! - **Fuzz**: the full 60-seed differential matrix routed through
//!   [`run_seed_cegis`], which asserts the outcome-agreement contract
//!   (CEGIS solved ⟹ tableau solved; impossible ⟺ impossible;
//!   bound-exhaustion legal only on tableau-solvable cases), re-checks
//!   every CEGIS program with both oracles, and pins byte determinism
//!   of the CEGIS engine across the 1/2/8 thread matrix.

use ftsyn::guarded::interp::explore;
use ftsyn::guarded::sim::CampaignConfig;
use ftsyn::kripke::State;
use ftsyn::problems::{barrier, mutex, readers_writers};
use ftsyn::{
    cegis_synthesize, check_program, synthesize_with_engine, Engine, SynthesisOutcome,
    SynthesisProblem, ThreadPlan, Tolerance, ToleranceAssignment,
};
use ftsyn_conformance::campaign::assert_campaign;
use ftsyn_conformance::differential::{run_seed_cegis, BackendCaseResult};
use std::collections::HashSet;

/// Synthesizes `problem` with the CEGIS engine and holds the result to
/// the same bar as the tableau goldens: solved, internally verified,
/// oracle-rechecked, campaign-simulated.
fn check_cegis(name: &str, mut problem: SynthesisProblem) {
    let outcome = cegis_synthesize(&mut problem, ThreadPlan::uniform(1), None);
    let SynthesisOutcome::Solved(s) = outcome else {
        let what = match outcome {
            SynthesisOutcome::Impossible(_) => "impossible".to_owned(),
            SynthesisOutcome::Aborted(a) => format!("aborted: {}", a.reason),
            SynthesisOutcome::Solved(_) => unreachable!(),
        };
        panic!("{name}: CEGIS did not solve ({what})");
    };
    assert!(
        s.verification.ok(),
        "{name}: CEGIS verification failed: {:?}",
        s.verification.failures
    );
    assert!(
        s.artifacts.is_none(),
        "{name}: CEGIS solved path must not carry tableau artifacts"
    );
    assert!(
        s.stats.cegis_profile.solved_at_bound.is_some(),
        "{name}: solved run must record its bound"
    );
    let report = check_program(&mut problem, &s.program)
        .unwrap_or_else(|e| panic!("{name}: CEGIS program not executable: {e}"));
    assert!(
        report.tolerant(),
        "{name}: model checker rejects the CEGIS program: {}",
        report.verification.failure_summary()
    );
    assert_campaign(
        &format!("{name} [cegis]"),
        &mut problem,
        &s.program,
        &CampaignConfig {
            runs: 4,
            steps: 200,
            base_seed: 0xCE615,
        },
    );
}

#[test]
fn cegis_mutex2_fail_stop() {
    check_cegis(
        "mutex2-failstop",
        mutex::with_fail_stop(2, Tolerance::Masking),
    );
}

#[test]
fn cegis_mutex3_fail_stop() {
    check_cegis(
        "mutex3-failstop",
        mutex::with_fail_stop(3, Tolerance::Masking),
    );
}

/// The instance the tableau engine spends seconds on (26k nodes, then
/// minimization): CEGIS solves it from a 189-valuation universe in
/// about a hundred candidates. The head-to-head lives in bench JSON
/// (`backend_comparison`).
#[test]
fn cegis_mutex4_fail_stop() {
    check_cegis(
        "mutex4-failstop",
        mutex::with_fail_stop(4, Tolerance::Masking),
    );
}

#[test]
fn cegis_barrier2_nonmasking() {
    check_cegis("barrier2-nonmasking", barrier::with_general_state_faults(2));
}

#[test]
fn cegis_readers_writers() {
    check_cegis(
        "readers-writers-1R-writer-failstop",
        readers_writers::with_writer_fail_stop(1, Tolerance::Masking),
    );
}

#[test]
fn cegis_philosophers3() {
    check_cegis("philosophers3-fault-free", mutex::dining_philosophers(3));
}

#[test]
fn cegis_multitolerance_mutex3() {
    check_cegis(
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
fn cegis_multitolerance_mutex4() {
    check_cegis(
        "multitolerance-mutex4-P1-nonmasking",
        mutex::with_fail_stop_multitolerance(4, |f| {
            if f.name().contains("P1") {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        }),
    );
}

/// The E9 mixed-tolerance instance (fail-stop masked, corruption ridden
/// out nonmasking).
#[test]
fn cegis_multitolerance_mixed() {
    use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
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
    check_cegis("multitolerance-mutex2-mixed", problem);
}

/// Both `.ftsyn` spec files synthesize via CEGIS too (the CLI's
/// `--engine cegis` path end-to-end, minus the binary).
#[test]
fn cegis_spec_files() {
    let spec_dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    for file in ["mutex_failstop.ftsyn", "reset_task.ftsyn"] {
        let src = std::fs::read_to_string(spec_dir.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        let problem = ftsyn_cli::parse_problem(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        check_cegis(file, problem);
    }
}

/// `--engine` dispatch: the same entry point runs either backend, and
/// on a case both solve, both outcomes verify (the models may differ —
/// only outcome agreement is contractual, and the oracle judges each).
#[test]
fn engine_dispatch_runs_both_backends() {
    for engine in [Engine::Tableau, Engine::Cegis] {
        let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
        let outcome = synthesize_with_engine(&mut problem, engine, ThreadPlan::uniform(1), None);
        let s = outcome.unwrap_solved();
        assert!(
            s.verification.ok(),
            "{}: {:?}",
            engine.name(),
            s.verification.failures
        );
        assert_eq!(s.artifacts.is_some(), engine == Engine::Tableau);
    }
}

/// CEGIS reports the off-model count its extraction measured: an
/// independent recount (explore the program under the faults, count the
/// explored states that are not model states) agrees with the profile.
#[test]
fn cegis_reports_its_real_off_model_count() {
    for procs in [2, 3] {
        let mut problem = mutex::with_fail_stop(procs, Tolerance::Masking);
        let s = cegis_synthesize(&mut problem, ThreadPlan::uniform(1), None).unwrap_solved();
        let ex = explore(&s.program, &problem.faults, &problem.props)
            .expect("the CEGIS program is executable");
        let on_model: HashSet<&State> = s.model.state_ids().map(|id| s.model.state(id)).collect();
        let off_model = ex
            .kripke
            .state_ids()
            .filter(|&id| !on_model.contains(ex.kripke.state(id)))
            .count();
        let profile = &s.stats.extract_profile;
        assert_eq!(profile.explored_states, ex.kripke.len(), "mutex{procs}");
        assert_eq!(profile.off_model_states, off_model, "mutex{procs}");
    }
}

// ---------------------------------------------------------------------
// Differential fuzz matrix
// ---------------------------------------------------------------------

fn run_range(lo: u64, hi: u64) -> Vec<BackendCaseResult> {
    (lo..=hi).map(run_seed_cegis).collect()
}

// Split into chunks so the libtest harness runs them in parallel
// (mirrors tests/fuzz.rs).
#[test]
fn cegis_seeds_01_to_10() {
    run_range(1, 10);
}

#[test]
fn cegis_seeds_11_to_20() {
    run_range(11, 20);
}

#[test]
fn cegis_seeds_21_to_30() {
    run_range(21, 30);
}

#[test]
fn cegis_seeds_31_to_40() {
    run_range(31, 40);
}

#[test]
fn cegis_seeds_41_to_50() {
    run_range(41, 50);
}

#[test]
fn cegis_seeds_51_to_60() {
    run_range(51, 60);
}

/// The matrix must genuinely exercise the CEGIS engine: a healthy
/// majority of seeds solved *by CEGIS* (not merely agreed-impossible),
/// both outcomes present, and bound-exhaustion a rare tail — if the
/// enumerator regresses into exhausting everywhere (outcomes would
/// still "agree" vacuously), this trips.
#[test]
fn cegis_seed_matrix_is_meaningful() {
    let results = run_range(1, 20);
    let solved = results.iter().filter(|r| r.cegis_solved).count();
    let impossible = results.iter().filter(|r| !r.tableau_solved).count();
    let exhausted = results
        .iter()
        .filter(|r| r.tableau_solved && !r.cegis_solved)
        .count();
    assert!(
        solved >= 8,
        "only {solved}/20 seeds CEGIS-solved: {results:?}"
    );
    assert!(
        impossible >= 5,
        "only {impossible}/20 impossible: {results:?}"
    );
    assert!(
        exhausted <= 2,
        "{exhausted}/20 seeds bound-exhausted — the enumerator lost its corpus: {results:?}"
    );
}
