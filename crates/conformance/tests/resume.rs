//! Resume-identity conformance: a synthesis run that is aborted at a
//! state cap, checkpointed, serialized, deserialized, and resumed
//! under a raised budget must produce a program **byte-identical** to
//! an uninterrupted run — at every worker-thread count, and through
//! arbitrary abort→resume→abort→resume chains. Checkpoints that do not
//! match the problem (wrong spec, wrong format version, corrupted
//! bytes) must be refused with a structured error, never silently
//! resumed.

use ftsyn::problems::{barrier, mutex, readers_writers};
use ftsyn::{
    synthesize_governed, synthesize_resume, Budget, Checkpoint, CheckpointError, Governor, Phase,
    SynthesisOutcome, SynthesisProblem, ThreadPlan, Tolerance,
};
use ftsyn_conformance::differential::THREAD_MATRIX;
use ftsyn_conformance::render::render_solved;

/// One resume-corpus entry: (name, constructor, state cap that
/// interrupts its build).
type Case = (&'static str, fn() -> SynthesisProblem, usize);

/// The resume corpus: every golden case family that synthesizes fast
/// enough to run 1 + 3×2 pipelines per case in the suite.
fn corpus() -> Vec<Case> {
    fn mutex2() -> SynthesisProblem {
        mutex::with_fail_stop(2, Tolerance::Masking)
    }
    fn mutex3() -> SynthesisProblem {
        mutex::with_fail_stop(3, Tolerance::Masking)
    }
    fn multitolerance3() -> SynthesisProblem {
        mutex::with_fail_stop_multitolerance(3, |f| {
            if f.name().contains("P1") {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        })
    }
    fn barrier2() -> SynthesisProblem {
        barrier::with_general_state_faults(2)
    }
    fn rw1() -> SynthesisProblem {
        readers_writers::with_writer_fail_stop(1, Tolerance::Masking)
    }
    vec![
        ("mutex2-failstop-masking", mutex2, 30),
        ("mutex3-failstop-masking", mutex3, 400),
        ("multitolerance-mutex3-P1-nonmasking", multitolerance3, 400),
        ("barrier2-nonmasking", barrier2, 60),
        ("readers-writers-1R-writer-failstop", rw1, 60),
    ]
}

/// Aborts `problem` at `max_states` on `threads` workers and returns
/// the checkpoint after an encode→decode round trip (so the suite
/// exercises the wire format, not just the in-memory structure).
fn abort_and_checkpoint(
    name: &str,
    problem: &mut SynthesisProblem,
    max_states: usize,
    threads: usize,
) -> Checkpoint {
    let gov = Governor::with_budget(Budget {
        max_states: Some(max_states),
        ..Budget::unlimited()
    });
    let SynthesisOutcome::Aborted(a) = synthesize_governed(problem, threads, &gov) else {
        panic!("{name}: expected an abort at cap {max_states} on {threads} threads")
    };
    assert_eq!(a.phase, Phase::Build, "{name}: abort phase");
    let ck = a
        .checkpoint
        .unwrap_or_else(|| panic!("{name}: build abort must carry a checkpoint"));
    Checkpoint::decode(&ck.encode()).unwrap_or_else(|e| panic!("{name}: round trip failed: {e}"))
}

/// The uninterrupted baseline rendering for a fresh instance of a case.
fn baseline(make: fn() -> SynthesisProblem, threads: usize) -> String {
    let mut p = make();
    let gov = Governor::unlimited();
    let s = synthesize_governed(&mut p, threads, &gov).unwrap_solved();
    assert!(s.verification.ok(), "baseline failed verification");
    render_solved(&p, &s)
}

#[test]
fn resumed_runs_are_byte_identical_to_uninterrupted_runs() {
    for (name, make, cap) in corpus() {
        // One baseline: thread count does not affect result bytes
        // (pinned by the determinism suite), so a single baseline
        // serves the whole matrix.
        let expected = baseline(make, THREAD_MATRIX[0]);
        for &threads in &THREAD_MATRIX {
            let mut victim = make();
            let ck = abort_and_checkpoint(name, &mut victim, cap, threads);
            let mut resumed_problem = make();
            let outcome =
                synthesize_resume(&mut resumed_problem, ThreadPlan::uniform(threads), None, ck)
                    .unwrap_or_else(|e| panic!("{name}: valid checkpoint refused: {e}"));
            let SynthesisOutcome::Solved(s) = outcome else {
                panic!("{name}: resume at {threads} threads did not solve")
            };
            assert!(
                s.verification.ok(),
                "{name}: resumed program failed verification at {threads} threads"
            );
            assert_eq!(
                expected,
                render_solved(&resumed_problem, &s),
                "{name}: resumed program diverged from the uninterrupted \
                 run at {threads} threads"
            );
        }
    }
}

/// An abort→resume→abort→resume chain: resume under a budget that is
/// itself too small, abort again, resume once more — the final program
/// must still match the uninterrupted run, and the intermediate
/// checkpoint must carry the larger partial tableau forward.
#[test]
fn abort_resume_chains_converge_to_the_uninterrupted_result() {
    let expected = baseline(|| mutex::with_fail_stop(3, Tolerance::Masking), 1);
    for &threads in &THREAD_MATRIX {
        let mut p1 = mutex::with_fail_stop(3, Tolerance::Masking);
        let ck1 = abort_and_checkpoint("mutex3 chain hop 1", &mut p1, 300, threads);
        let nodes1 = ck1.tableau_nodes();

        // Hop 2: resume under a cap that still aborts.
        let gov = Governor::with_budget(Budget {
            max_states: Some(800),
            ..Budget::unlimited()
        });
        let mut p2 = mutex::with_fail_stop(3, Tolerance::Masking);
        let SynthesisOutcome::Aborted(a) =
            synthesize_resume(&mut p2, ThreadPlan::uniform(threads), Some(&gov), ck1)
                .expect("hop-2 checkpoint is valid")
        else {
            panic!("hop 2 must abort again at cap 800")
        };
        let ck2 = Checkpoint::decode(
            &a.checkpoint
                .expect("hop-2 abort carries a checkpoint")
                .encode(),
        )
        .expect("hop-2 round trip");
        assert!(
            ck2.tableau_nodes() > nodes1,
            "the chain must carry work forward: {} -> {}",
            nodes1,
            ck2.tableau_nodes()
        );

        // Hop 3: unlimited resume completes.
        let mut p3 = mutex::with_fail_stop(3, Tolerance::Masking);
        let SynthesisOutcome::Solved(s) =
            synthesize_resume(&mut p3, ThreadPlan::uniform(threads), None, ck2)
                .expect("hop-3 checkpoint is valid")
        else {
            panic!("hop 3 must solve")
        };
        assert_eq!(
            expected,
            render_solved(&p3, &s),
            "chained resume diverged at {threads} threads"
        );
    }
}

/// Cross-thread-count hand-off: a checkpoint taken on one thread count
/// must resume bit-identically on any other (the checkpoint pins the
/// deterministic work prefix, which is thread-count independent).
#[test]
fn checkpoints_resume_identically_across_thread_counts() {
    let expected = baseline(|| mutex::with_fail_stop(2, Tolerance::Masking), 1);
    let mut donor = mutex::with_fail_stop(2, Tolerance::Masking);
    let blob = abort_and_checkpoint("mutex2 hand-off", &mut donor, 30, 8).encode();
    for &threads in &THREAD_MATRIX {
        let ck = Checkpoint::decode(&blob).expect("blob decodes");
        let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
        let SynthesisOutcome::Solved(s) =
            synthesize_resume(&mut p, ThreadPlan::uniform(threads), None, ck)
                .expect("hand-off checkpoint is valid")
        else {
            panic!("hand-off resume at {threads} threads did not solve")
        };
        assert_eq!(
            expected,
            render_solved(&p, &s),
            "8-thread checkpoint resumed on {threads} threads diverged"
        );
    }
}

/// Stale and corrupted checkpoints are refused with the structured
/// error naming the mismatch — never silently resumed into the wrong
/// problem.
#[test]
fn mismatched_checkpoints_are_refused_structurally() {
    let mut donor = mutex::with_fail_stop(3, Tolerance::Masking);
    let ck = abort_and_checkpoint("mutex3 donor", &mut donor, 300, 2);
    let blob = ck.encode();

    // Wrong problem: the spec fingerprint differs.
    let mut other = mutex::with_fail_stop(2, Tolerance::Masking);
    let ck = Checkpoint::decode(&blob).expect("blob decodes");
    match synthesize_resume(&mut other, ThreadPlan::uniform(2), None, ck) {
        Err(CheckpointError::SpecHashMismatch { .. }) => {}
        Err(other) => panic!("expected SpecHashMismatch, got {other}"),
        Ok(_) => panic!("a mutex3 checkpoint must not resume a mutex2 problem"),
    }

    // Unsupported format version.
    let mut tampered = blob.clone();
    tampered[8] = 0xEE;
    match Checkpoint::decode(&tampered) {
        Err(CheckpointError::UnsupportedVersion { found, .. }) => assert_eq!(found, 0xEE),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Payload truncation: the checksum over the payload no longer
    // matches the one stored in the header.
    match Checkpoint::decode(&blob[..blob.len() - 1]) {
        Err(CheckpointError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }

    // Header truncation: too short to even carry the checksum.
    match Checkpoint::decode(&blob[..12]) {
        Err(CheckpointError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}
