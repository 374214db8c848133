//! The differential-fuzzer case runner: synthesize the same seed across
//! a whole thread-count matrix, compare byte-for-byte, and re-check
//! every synthesized program with the model checker as an independent
//! oracle.

use crate::campaign::assert_campaign;
use crate::generate::{random_problem, GeneratedCase};
use crate::reference::build_reference;
use crate::render::render_solved;
use ftsyn::guarded::sim::CampaignConfig;
use ftsyn::tableau::build_with_threads;
use ftsyn::{
    check_program, synthesize_with_engine, synthesize_with_threads, AbortReason, Engine,
    SynthesisOutcome, SynthesisProblem, ThreadPlan,
};
use ftsyn_prng::XorShift64;

/// Thread counts every seed is synthesized at. Programs must be
/// byte-identical across the whole matrix — this pins the work-stealing
/// scheduler's determinism the same way run-to-run determinism is
/// pinned (the runs are independent processes-worth of state anyway:
/// each gets a freshly generated problem copy).
pub const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

/// The summarized result of one fuzzer case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// The generated instance's descriptive name.
    pub name: String,
    /// Whether synthesis succeeded (`false`: proven impossible).
    pub solved: bool,
    /// Final model-state count (0 for impossible instances).
    pub model_states: usize,
}

/// Runs the full differential check for one seed:
///
/// 1. builds a fresh copy of the seed's problem per entry of
///    [`THREAD_MATRIX`] and synthesizes each at that thread count;
/// 2. asserts all runs agree — same outcome, identical model-state
///    counts, byte-identical rendered programs (covers both run-to-run
///    and scheduler determinism);
/// 3. for solved cases, asserts the pipeline's own verification passed
///    and re-checks the extracted program against the specification,
///    tolerance labels, and fault closure with the `ftsyn-kripke` model
///    checker ([`check_program`]), which explores the program
///    independently of the tableau, and runs a small seeded
///    fault-injection campaign ([`assert_campaign`]) so the program's
///    runtime traces are simulation-checked too;
/// 4. cross-checks the work-stealing build engine (at 2 worker
///    threads) against the sequential naive-kernel reference build on
///    this seed's tableau ([`cross_check_build`]).
///
/// # Panics
///
/// Panics on any divergence or oracle failure, naming the seed so the
/// case can be replayed.
pub fn run_seed(seed: u64) -> CaseResult {
    let GeneratedCase {
        name,
        problem: mut p1,
    } = random_problem(&mut XorShift64::new(seed));

    cross_check_build(
        seed,
        &name,
        &mut random_problem(&mut XorShift64::new(seed)).problem,
    );

    let o1 = synthesize_with_threads(&mut p1, THREAD_MATRIX[0]);
    match o1 {
        SynthesisOutcome::Solved(s1) => {
            let r1 = render_solved(&p1, &s1);
            for &threads in &THREAD_MATRIX[1..] {
                let GeneratedCase { problem: mut p, .. } =
                    random_problem(&mut XorShift64::new(seed));
                let SynthesisOutcome::Solved(s) = synthesize_with_threads(&mut p, threads) else {
                    panic!("seed {seed} ({name}): outcome diverged at {threads} threads")
                };
                assert_eq!(
                    s1.stats.model_states, s.stats.model_states,
                    "seed {seed} ({name}): model-state counts diverged at {threads} threads"
                );
                assert_eq!(
                    r1,
                    render_solved(&p, &s),
                    "seed {seed} ({name}): rendered programs diverged at {threads} threads"
                );
            }
            assert!(
                s1.verification.ok(),
                "seed {seed} ({name}): pipeline verification failed: {}",
                s1.verification.failure_summary()
            );
            let report = check_program(&mut p1, &s1.program).unwrap_or_else(|e| {
                panic!("seed {seed} ({name}): synthesized program not executable: {e}")
            });
            assert!(
                report.tolerant(),
                "seed {seed} ({name}): model checker rejects the synthesized program: {}",
                report.verification.failure_summary()
            );
            // Runtime oracle: a small seeded fault-injection campaign
            // of the synthesized program (simulation-level counterpart
            // of the model check above — see [`crate::campaign`]).
            assert_campaign(
                &format!("seed {seed} ({name})"),
                &mut p1,
                &s1.program,
                &CampaignConfig {
                    runs: 4,
                    steps: 200,
                    base_seed: seed,
                },
            );
            CaseResult {
                name,
                solved: true,
                model_states: s1.stats.model_states,
            }
        }
        SynthesisOutcome::Impossible(i1) => {
            for &threads in &THREAD_MATRIX[1..] {
                let GeneratedCase { problem: mut p, .. } =
                    random_problem(&mut XorShift64::new(seed));
                let SynthesisOutcome::Impossible(i) = synthesize_with_threads(&mut p, threads)
                else {
                    panic!("seed {seed} ({name}): outcome diverged at {threads} threads")
                };
                assert_eq!(
                    i1.stats.tableau_nodes, i.stats.tableau_nodes,
                    "seed {seed} ({name}): tableau sizes diverged at {threads} threads"
                );
                assert_eq!(
                    i1.stats.deletion, i.stats.deletion,
                    "seed {seed} ({name}): deletion statistics diverged at {threads} threads"
                );
            }
            CaseResult {
                name,
                solved: false,
                model_states: 0,
            }
        }
        SynthesisOutcome::Aborted(a) => panic!(
            "seed {seed} ({name}): ungoverned synthesis aborted in {} phase: {}",
            a.phase, a.reason
        ),
    }
}

/// The summarized result of one backend-differential case.
#[derive(Clone, Debug)]
pub struct BackendCaseResult {
    /// The generated instance's descriptive name.
    pub name: String,
    /// The tableau engine's outcome (`true` = solved).
    pub tableau_solved: bool,
    /// Whether the CEGIS engine solved the instance within its bound
    /// (`false`: proven impossible, or bound-exhausted on a case the
    /// tableau solved).
    pub cegis_solved: bool,
}

/// Runs the backend-differential check for one fuzzer seed: the same
/// generated instance through the tableau engine and the CEGIS engine,
/// asserting the agreement contract —
///
/// - CEGIS `Solved` ⟹ tableau `Solved`, and the CEGIS program is
///   re-checked by the kripke oracle ([`check_program`]) and a seeded
///   fault-injection campaign, exactly like the tableau fuzzer;
/// - CEGIS `Impossible` ⟺ tableau `Impossible` (the CEGIS negative
///   path *is* a certificate — a propositionally empty universe or a
///   deleted tableau root — so this is an iff);
/// - CEGIS `Aborted(CegisBoundExhausted)` is legal only when the
///   tableau solved the case (satisfiable, but no program within the
///   queue bound); any other ungoverned abort panics —
///
/// and pinning CEGIS byte-determinism across [`THREAD_MATRIX`]: the
/// rendered outcome (program bytes, or the impossibility/exhaustion
/// counters) must be identical at every thread count.
///
/// # Panics
///
/// Panics on any contract violation or oracle failure, naming the seed
/// so the case can be replayed.
pub fn run_seed_cegis(seed: u64) -> BackendCaseResult {
    let GeneratedCase {
        name,
        problem: mut pt,
    } = random_problem(&mut XorShift64::new(seed));
    let tableau = synthesize_with_threads(&mut pt, 1);
    let tableau_solved = match &tableau {
        SynthesisOutcome::Solved(_) => true,
        SynthesisOutcome::Impossible(_) => false,
        SynthesisOutcome::Aborted(a) => panic!(
            "seed {seed} ({name}): ungoverned tableau run aborted in {} phase: {}",
            a.phase, a.reason
        ),
    };

    let fresh =
        |seed: u64| -> SynthesisProblem { random_problem(&mut XorShift64::new(seed)).problem };
    let mut pc = fresh(seed);
    let cegis = synthesize_with_engine(&mut pc, Engine::Cegis, ThreadPlan::uniform(1), None);

    // Thread-count determinism: the CEGIS search is sequential and the
    // certificate build is deterministic at every thread count, so the
    // rendered outcome must be byte-identical across the matrix.
    let rendered = render_backend_outcome(&pc, &cegis);
    for &threads in &THREAD_MATRIX[1..] {
        let mut p = fresh(seed);
        let o = synthesize_with_engine(&mut p, Engine::Cegis, ThreadPlan::uniform(threads), None);
        assert_eq!(
            rendered,
            render_backend_outcome(&p, &o),
            "seed {seed} ({name}): CEGIS outcome diverged at {threads} threads"
        );
    }

    let cegis_solved = match cegis {
        SynthesisOutcome::Solved(s) => {
            assert!(
                tableau_solved,
                "seed {seed} ({name}): CEGIS found a program on a case the tableau proved impossible"
            );
            assert!(
                s.verification.ok(),
                "seed {seed} ({name}): CEGIS verification failed: {}",
                s.verification.failure_summary()
            );
            assert!(
                s.artifacts.is_none(),
                "seed {seed} ({name}): CEGIS solved path must not carry tableau artifacts"
            );
            let report = check_program(&mut pc, &s.program).unwrap_or_else(|e| {
                panic!("seed {seed} ({name}): CEGIS program not executable: {e}")
            });
            assert!(
                report.tolerant(),
                "seed {seed} ({name}): model checker rejects the CEGIS program: {}",
                report.verification.failure_summary()
            );
            assert_campaign(
                &format!("seed {seed} ({name}) [cegis]"),
                &mut pc,
                &s.program,
                &CampaignConfig {
                    runs: 4,
                    steps: 200,
                    base_seed: seed,
                },
            );
            true
        }
        SynthesisOutcome::Impossible(_) => {
            assert!(
                !tableau_solved,
                "seed {seed} ({name}): CEGIS claimed impossible on a case the tableau solved"
            );
            false
        }
        SynthesisOutcome::Aborted(a) => {
            assert!(
                matches!(a.reason, AbortReason::CegisBoundExhausted { .. }),
                "seed {seed} ({name}): ungoverned CEGIS run aborted in {} phase: {}",
                a.phase,
                a.reason
            );
            assert!(
                tableau_solved,
                "seed {seed} ({name}): CEGIS exhausted its bound but the certificate \
                 should have proven impossibility (tableau agrees the case is impossible)"
            );
            false
        }
    };
    BackendCaseResult {
        name,
        tableau_solved,
        cegis_solved,
    }
}

/// Renders a synthesis outcome for byte comparison across the backend
/// thread matrix (programs for solved runs, deterministic counters for
/// negative ones).
fn render_backend_outcome(problem: &SynthesisProblem, outcome: &SynthesisOutcome) -> String {
    crate::render::render_outcome(problem, outcome)
}

/// Asserts two tableaux are bit-identical: same nodes in the same
/// order, same labels, kinds, successor and predecessor lists, and
/// alive flags.
pub fn assert_tableaux_identical(
    what: &str,
    a: &ftsyn::tableau::Tableau,
    b: &ftsyn::tableau::Tableau,
) {
    assert_eq!(a.len(), b.len(), "{what}: node count diverged");
    for id in a.node_ids() {
        assert_eq!(
            a.node(id).label,
            b.node(id).label,
            "{what}: label at {id:?}"
        );
        assert_eq!(a.node(id).kind, b.node(id).kind, "{what}: kind at {id:?}");
        assert_eq!(a.node(id).succ, b.node(id).succ, "{what}: edges at {id:?}");
        assert_eq!(
            a.node(id).pred,
            b.node(id).pred,
            "{what}: in-edges at {id:?}"
        );
        assert_eq!(a.alive(id), b.alive(id), "{what}: alive flag at {id:?}");
    }
}

/// Cross-checks the optimized build — kernels and work-stealing
/// scheduler, at 2 worker threads so the scheduler actually runs —
/// against the pre-optimization reference kernels on their own
/// sequential harness, on this problem's tableau.
pub fn cross_check_build(seed: u64, name: &str, problem: &mut SynthesisProblem) {
    let (closure, fault_spec, root) = problem.tableau_inputs();
    let (fast, _) = build_with_threads(&closure, &problem.props, root.clone(), &fault_spec, 2);
    let reference = build_reference(&closure, &problem.props, root, &fault_spec);
    assert_tableaux_identical(
        &format!("seed {seed} ({name}) build kernels"),
        &fast,
        &reference,
    );
}
