//! Governor conformance: budget aborts must be *deterministic* — the
//! capped budgets (states, deletion work, minimize attempts) are
//! checked against deterministic work counters, so the same problem
//! with the same caps must abort in the identical phase with the
//! identical partial statistics at every worker-thread count — and a
//! governed run with no limits must be byte-identical to an ungoverned
//! one. Worker panics must be contained by the scheduler and surfaced
//! as a structured abort, never as a process abort or a poisoned mutex.

use ftsyn::problems::mutex;
use ftsyn::{
    synthesize, synthesize_governed, synthesize_planned, AbortReason, Budget, FailureKind,
    Governor, Phase, SynthesisOutcome, ThreadPlan, Tolerance,
};
use ftsyn_conformance::differential::THREAD_MATRIX;
use ftsyn_conformance::render::render_solved;

/// Runs mutex3-failstop-masking under `budget` at `threads` workers and
/// returns the abort, panicking if the run did not abort.
fn abort_of(budget: Budget, threads: usize) -> ftsyn::AbortedSynthesis {
    let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
    let gov = Governor::with_budget(budget);
    match synthesize_governed(&mut p, threads, &gov) {
        SynthesisOutcome::Aborted(a) => *a,
        other => panic!(
            "expected an abort at {threads} threads, got {}",
            match other {
                SynthesisOutcome::Solved(_) => "Solved",
                SynthesisOutcome::Impossible(_) => "Impossible",
                SynthesisOutcome::Aborted(_) => unreachable!(),
            }
        ),
    }
}

#[test]
fn state_cap_abort_is_identical_across_thread_counts() {
    let budget = Budget {
        max_states: Some(500),
        ..Budget::default()
    };
    let first = abort_of(budget.clone(), THREAD_MATRIX[0]);
    assert_eq!(first.phase, Phase::Build);
    assert!(
        matches!(first.reason, AbortReason::StateCapExceeded { cap: 500, .. }),
        "{:?}",
        first.reason
    );
    // The partial profile is populated up to the abort point.
    assert!(first.stats.tableau_nodes >= 500);
    assert!(first.stats.build_profile.batches > 0);
    for &threads in &THREAD_MATRIX[1..] {
        let a = abort_of(budget.clone(), threads);
        assert_eq!(first.phase, a.phase, "phase diverged at {threads} threads");
        assert_eq!(
            first.reason, a.reason,
            "abort reason (incl. reached counter) diverged at {threads} threads"
        );
        assert_eq!(
            first.stats.tableau_nodes, a.stats.tableau_nodes,
            "partial tableau size diverged at {threads} threads"
        );
    }
}

#[test]
fn deletion_work_cap_abort_is_identical_across_thread_counts() {
    let budget = Budget {
        max_deletion_work: Some(100),
        ..Budget::default()
    };
    let first = abort_of(budget.clone(), THREAD_MATRIX[0]);
    assert_eq!(first.phase, Phase::Deletion);
    assert!(
        matches!(
            first.reason,
            AbortReason::DeletionWorkCapExceeded { cap: 100, .. }
        ),
        "{:?}",
        first.reason
    );
    // The build completed — its stats are final, not partial.
    assert!(first.stats.tableau_nodes > 0);
    assert!(
        first.stats.deletion_profile.worklist_pops + first.stats.deletion_profile.cert_builds
            >= 100
    );
    for &threads in &THREAD_MATRIX[1..] {
        let a = abort_of(budget.clone(), threads);
        assert_eq!(first.phase, a.phase, "phase diverged at {threads} threads");
        assert_eq!(
            first.reason, a.reason,
            "reason diverged at {threads} threads"
        );
        assert_eq!(
            first.stats.deletion_profile.worklist_pops, a.stats.deletion_profile.worklist_pops,
            "worklist pops diverged at {threads} threads"
        );
        assert_eq!(
            first.stats.deletion_profile.cert_builds, a.stats.deletion_profile.cert_builds,
            "certificate builds diverged at {threads} threads"
        );
    }
}

#[test]
fn minimize_attempt_cap_abort_is_identical_across_thread_counts() {
    let budget = Budget {
        max_minimize_attempts: Some(5),
        ..Budget::default()
    };
    let first = abort_of(budget.clone(), THREAD_MATRIX[0]);
    assert_eq!(first.phase, Phase::Minimize);
    assert_eq!(
        first.reason,
        AbortReason::MinimizeAttemptCapExceeded { cap: 5, reached: 5 },
        "`max_minimize_attempts: Some(5)` permits exactly 5 attempts"
    );
    assert_eq!(first.stats.minimize_profile.attempts, 5);
    for &threads in &THREAD_MATRIX[1..] {
        let a = abort_of(budget.clone(), threads);
        assert_eq!(first.phase, a.phase, "phase diverged at {threads} threads");
        assert_eq!(
            first.reason, a.reason,
            "reason diverged at {threads} threads"
        );
        assert_eq!(
            first.stats.minimize_profile.attempts, a.stats.minimize_profile.attempts,
            "minimize attempts diverged at {threads} threads"
        );
    }
}

/// The minimize-attempt cap must trip at the identical counter no
/// matter how many workers the *minimization scan itself* runs on: the
/// scan commits the lowest-index verified candidate and charges
/// attempts up to that index only, so speculative work on extra
/// workers never reaches the governor's ledger.
#[test]
fn minimize_attempt_cap_abort_is_identical_across_minimize_thread_plans() {
    let budget = Budget {
        max_minimize_attempts: Some(5),
        ..Budget::default()
    };
    let abort_at = |minimize: usize| -> ftsyn::AbortedSynthesis {
        let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
        let gov = Governor::with_budget(budget.clone());
        let plan = ThreadPlan { build: 2, minimize };
        match synthesize_planned(&mut p, plan, Some(&gov)) {
            SynthesisOutcome::Aborted(a) => *a,
            _ => panic!("expected an abort at {minimize} minimize threads"),
        }
    };
    let first = abort_at(THREAD_MATRIX[0]);
    assert_eq!(first.phase, Phase::Minimize);
    assert_eq!(
        first.reason,
        AbortReason::MinimizeAttemptCapExceeded { cap: 5, reached: 5 }
    );
    for &minimize in &THREAD_MATRIX[1..] {
        let a = abort_at(minimize);
        assert_eq!(
            first.phase, a.phase,
            "phase diverged at {minimize} minimize threads"
        );
        assert_eq!(
            first.reason, a.reason,
            "reason diverged at {minimize} minimize threads"
        );
        assert_eq!(
            first.stats.minimize_profile.deterministic_counters(),
            a.stats.minimize_profile.deterministic_counters(),
            "deterministic minimize counters diverged at {minimize} minimize threads"
        );
    }
}

/// A governed run whose budget never trips must be byte-identical to an
/// ungoverned run — the governed pipeline is the same code polling a
/// governor that always says "go".
#[test]
fn unlimited_governor_is_byte_identical_to_ungoverned() {
    let mut p1 = mutex::with_fail_stop(3, Tolerance::Masking);
    let mut p2 = mutex::with_fail_stop(3, Tolerance::Masking);
    let ungoverned = synthesize(&mut p1).unwrap_solved();
    let gov = Governor::unlimited();
    let governed = synthesize_governed(&mut p2, ftsyn::default_threads(), &gov).unwrap_solved();
    assert_eq!(ungoverned.stats.model_states, governed.stats.model_states);
    assert_eq!(
        render_solved(&p1, &ungoverned),
        render_solved(&p2, &governed),
        "governed-unlimited and ungoverned programs must be byte-identical"
    );
}

/// The CI budget scenario: mutex4-failstop under an aggressive state
/// cap aborts structurally in seconds instead of synthesizing for half
/// a minute — the whole point of the governor.
#[test]
fn aggressive_state_cap_on_mutex4_failstop_aborts_structurally() {
    let mut p = mutex::with_fail_stop(4, Tolerance::Masking);
    let gov = Governor::with_budget(Budget {
        max_states: Some(2_000),
        ..Budget::default()
    });
    let SynthesisOutcome::Aborted(a) = synthesize_governed(&mut p, ftsyn::default_threads(), &gov)
    else {
        panic!("mutex4-failstop under a 2k state cap must abort")
    };
    assert_eq!(a.phase, Phase::Build);
    assert!(matches!(
        a.reason,
        AbortReason::StateCapExceeded { cap: 2_000, .. }
    ));
    assert!(a.failures.is_empty(), "budget aborts carry no failures");
}

/// A pre-cancelled governor aborts at the first realtime poll.
#[test]
fn cancelled_governor_aborts_in_the_build_phase() {
    let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
    let gov = Governor::unlimited();
    gov.cancel();
    let SynthesisOutcome::Aborted(a) = synthesize_governed(&mut p, 2, &gov) else {
        panic!("cancelled governor must abort")
    };
    assert_eq!(a.phase, Phase::Build);
    assert_eq!(a.reason, AbortReason::Cancelled);
}

/// External cancel landing mid-build: a deterministic cancel at the
/// build phase must abort cleanly at every thread count — structured
/// `Cancelled` reason, a resumable checkpoint (the build is the
/// checkpointable phase), and no leaked workers or poisoned locks
/// (proven by resuming to the full, byte-exact solution in the same
/// process).
#[test]
fn external_cancel_mid_build_aborts_cleanly_and_resumes_at_every_thread_count() {
    let mut baseline_problem = mutex::with_fail_stop(3, Tolerance::Masking);
    let baseline = synthesize(&mut baseline_problem).unwrap_solved();
    let expected = render_solved(&baseline_problem, &baseline);
    for &threads in &THREAD_MATRIX {
        let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
        let gov = Governor::unlimited().cancel_at_phase(Phase::Build);
        let SynthesisOutcome::Aborted(a) = synthesize_governed(&mut p, threads, &gov) else {
            panic!("build-phase cancel must abort at {threads} threads")
        };
        assert_eq!(a.phase, Phase::Build, "at {threads} threads");
        assert_eq!(a.reason, AbortReason::Cancelled, "at {threads} threads");
        assert!(a.failures.is_empty(), "cancellation carries no failures");
        let ck = a.checkpoint.unwrap_or_else(|| {
            panic!("build-phase cancel must leave a checkpoint at {threads} threads")
        });

        // The cancelled run's workers are gone and its partial state is
        // whole: resuming it in the same process completes and matches
        // the uninterrupted result byte for byte.
        let mut resumed = mutex::with_fail_stop(3, Tolerance::Masking);
        let SynthesisOutcome::Solved(s) =
            ftsyn::synthesize_resume(&mut resumed, ThreadPlan::uniform(threads), None, ck)
                .expect("a cancel checkpoint is valid")
        else {
            panic!("resume after cancel must solve at {threads} threads")
        };
        assert_eq!(
            expected,
            render_solved(&resumed, &s),
            "cancel→resume diverged at {threads} threads"
        );
    }
}

/// External cancel landing mid-minimize: the build and deletion phases
/// completed, so their profiles are final; the abort is structured, no
/// checkpoint is captured (only the build is checkpointable), and the
/// process stays healthy.
#[test]
fn external_cancel_mid_minimize_aborts_cleanly_at_every_thread_count() {
    for &threads in &THREAD_MATRIX {
        let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
        let gov = Governor::unlimited().cancel_at_phase(Phase::Minimize);
        let SynthesisOutcome::Aborted(a) = synthesize_governed(&mut p, threads, &gov) else {
            panic!("minimize-phase cancel must abort at {threads} threads")
        };
        assert_eq!(a.phase, Phase::Minimize, "at {threads} threads");
        assert_eq!(a.reason, AbortReason::Cancelled, "at {threads} threads");
        assert_eq!(gov.current_phase(), Phase::Minimize, "at {threads} threads");
        // Earlier phases ran to completion before the cancel landed.
        assert!(a.stats.tableau_nodes > 0, "at {threads} threads");
        assert!(a.stats.build_profile.batches > 0, "at {threads} threads");
        assert!(
            a.stats.deletion_profile.worklist_pops > 0,
            "at {threads} threads"
        );
        assert!(
            a.checkpoint.is_none(),
            "only build-phase aborts are checkpointable"
        );

        // No worker leak, no poisoned lock: a full synthesis succeeds
        // in the same process right after.
        let mut p2 = mutex::with_fail_stop(3, Tolerance::Masking);
        let s = ftsyn::synthesize_with_threads(&mut p2, threads).unwrap_solved();
        assert!(
            s.verification.ok(),
            "post-cancel synthesis at {threads} threads must verify"
        );
    }
}

/// A genuinely asynchronous cancel from another thread — the race
/// lands wherever it lands, but the abort must still be structured
/// (`Cancelled`, a named phase) and leak-free.
#[test]
fn racing_external_cancel_from_another_thread_aborts_cleanly() {
    let mut p = mutex::with_fail_stop(4, Tolerance::Masking);
    let gov = Governor::unlimited();
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| gov.cancel());
        synthesize_governed(&mut p, 2, &gov)
    });
    let SynthesisOutcome::Aborted(a) = outcome else {
        panic!("a cancel sent at start must land before mutex4 completes")
    };
    assert_eq!(a.reason, AbortReason::Cancelled);
    assert!(a.failures.is_empty(), "cancellation carries no failures");
    // The phase is whatever the race produced, but it is a real phase
    // and the partial stats belong to it.
    assert_eq!(a.phase, gov.current_phase());

    // The aborted run left the process clean.
    let mut p2 = mutex::with_fail_stop(2, Tolerance::Masking);
    let s = synthesize(&mut p2).unwrap_solved();
    assert!(s.verification.ok(), "post-cancel synthesis must verify");
}

/// Panic containment: an injected worker panic during tableau expansion
/// must surface as a structured `Aborted` with a
/// [`FailureKind::WorkerPanic`] failure and partial profiles — at every
/// thread count, with the process alive and no mutex poisoned (proven
/// by running a full synthesis right after, in the same process).
#[test]
fn injected_worker_panic_yields_a_clean_abort_at_every_thread_count() {
    for &threads in &THREAD_MATRIX {
        let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
        let gov = Governor::unlimited().inject_worker_panic_at_batch(2);
        let SynthesisOutcome::Aborted(a) = synthesize_governed(&mut p, threads, &gov) else {
            panic!("injected panic must abort at {threads} threads")
        };
        assert_eq!(a.phase, Phase::Build, "at {threads} threads");
        let AbortReason::WorkerPanic { message } = &a.reason else {
            panic!(
                "expected WorkerPanic at {threads} threads, got {:?}",
                a.reason
            )
        };
        assert!(
            message.contains("injected worker panic at batch 2"),
            "panic payload must round-trip: {message:?}"
        );
        assert_eq!(a.failures.len(), 1, "at {threads} threads");
        assert_eq!(a.failures[0].kind, FailureKind::WorkerPanic);
        // Partial build profile: at least the batches committed before
        // the panic were accounted.
        assert!(a.stats.tableau_nodes > 0, "at {threads} threads");

        // No poison cascade: the same process can synthesize again.
        let mut p2 = mutex::with_fail_stop(3, Tolerance::Masking);
        let s = ftsyn::synthesize_with_threads(&mut p2, threads).unwrap_solved();
        assert!(
            s.verification.ok(),
            "post-panic synthesis at {threads} threads must verify"
        );
    }
}

/// Runs mutex3-failstop-masking through the CEGIS engine under
/// `budget` with the given thread plan and returns the abort.
fn cegis_abort_of(budget: Budget, threads: usize) -> ftsyn::AbortedSynthesis {
    use ftsyn::{synthesize_with_engine, Engine};
    let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
    let gov = Governor::with_budget(budget);
    match synthesize_with_engine(
        &mut p,
        Engine::Cegis,
        ThreadPlan::uniform(threads),
        Some(&gov),
    ) {
        SynthesisOutcome::Aborted(a) => *a,
        other => panic!(
            "expected a CEGIS abort at {threads} threads, got {}",
            match other {
                SynthesisOutcome::Solved(_) => "Solved",
                SynthesisOutcome::Impossible(_) => "Impossible",
                SynthesisOutcome::Aborted(_) => unreachable!(),
            }
        ),
    }
}

/// The CEGIS candidate cap aborts in `Phase::Cegis` at the identical
/// deterministic candidate counter — with the partial profile carried
/// in the stats — at every thread count. (mutex3 needs 10 candidates,
/// so a cap of 3 always trips.)
#[test]
fn cegis_candidate_cap_abort_is_identical_across_thread_counts() {
    let budget = Budget {
        max_cegis_candidates: Some(3),
        ..Budget::default()
    };
    let first = cegis_abort_of(budget.clone(), THREAD_MATRIX[0]);
    assert_eq!(first.phase, Phase::Cegis);
    assert_eq!(
        first.reason,
        AbortReason::CegisCandidateCapExceeded { cap: 3, reached: 3 },
        "`max_cegis_candidates: Some(3)` permits exactly 3 candidates"
    );
    assert_eq!(first.stats.cegis_profile.candidates, 3);
    assert!(first.stats.cegis_profile.universe > 0, "partial profile");
    assert!(
        first.checkpoint.is_none(),
        "CEGIS aborts carry no checkpoint"
    );
    assert!(first.failures.is_empty(), "budget aborts carry no failures");
    for &threads in &THREAD_MATRIX[1..] {
        let a = cegis_abort_of(budget.clone(), threads);
        assert_eq!(first.phase, a.phase, "phase diverged at {threads} threads");
        assert_eq!(
            first.reason, a.reason,
            "reason diverged at {threads} threads"
        );
        assert_eq!(
            first.stats.cegis_profile, a.stats.cegis_profile,
            "cegis profile diverged at {threads} threads"
        );
    }
}

/// An expired deadline aborts the CEGIS engine in `Phase::Cegis` at the
/// first realtime poll — the nondeterministic budget still names the
/// right phase.
#[test]
fn cegis_deadline_abort_names_the_cegis_phase() {
    let a = cegis_abort_of(
        Budget {
            deadline: Some(std::time::Duration::ZERO),
            ..Budget::default()
        },
        1,
    );
    assert_eq!(a.phase, Phase::Cegis);
    assert!(
        matches!(a.reason, AbortReason::DeadlineExceeded { .. }),
        "{:?}",
        a.reason
    );
}

/// A pre-cancelled governor aborts the CEGIS engine at its first poll,
/// and the engine leaves the process clean (a full CEGIS run succeeds
/// right after).
#[test]
fn cancelled_governor_aborts_cegis_cleanly() {
    use ftsyn::{synthesize_with_engine, Engine};
    let mut p = mutex::with_fail_stop(3, Tolerance::Masking);
    let gov = Governor::unlimited();
    gov.cancel();
    let SynthesisOutcome::Aborted(a) =
        synthesize_with_engine(&mut p, Engine::Cegis, ThreadPlan::uniform(1), Some(&gov))
    else {
        panic!("cancelled governor must abort the CEGIS engine")
    };
    assert_eq!(a.phase, Phase::Cegis);
    assert_eq!(a.reason, AbortReason::Cancelled);

    let mut p2 = mutex::with_fail_stop(3, Tolerance::Masking);
    let s = synthesize_with_engine(&mut p2, Engine::Cegis, ThreadPlan::uniform(1), None)
        .unwrap_solved();
    assert!(s.verification.ok(), "post-cancel CEGIS run must verify");
}

/// A CEGIS run under an unlimited governor is byte-identical to an
/// ungoverned CEGIS run (same polling code, a governor that always says
/// "go").
#[test]
fn unlimited_governor_cegis_is_byte_identical_to_ungoverned() {
    use ftsyn::{synthesize_with_engine, Engine};
    let mut p1 = mutex::with_fail_stop(3, Tolerance::Masking);
    let mut p2 = mutex::with_fail_stop(3, Tolerance::Masking);
    let ungoverned = synthesize_with_engine(&mut p1, Engine::Cegis, ThreadPlan::uniform(1), None)
        .unwrap_solved();
    let gov = Governor::unlimited();
    let governed =
        synthesize_with_engine(&mut p2, Engine::Cegis, ThreadPlan::uniform(1), Some(&gov))
            .unwrap_solved();
    assert_eq!(ungoverned.stats.cegis_profile, governed.stats.cegis_profile);
    assert_eq!(
        render_solved(&p1, &ungoverned),
        render_solved(&p2, &governed),
        "governed-unlimited and ungoverned CEGIS programs must be byte-identical"
    );
}

/// The CEGIS certificate runs the tableau pipeline's build, but keeps
/// its own phase bookkeeping. On barrier3-failstop-impossible the
/// bounded search fails, so the certificate decides; under a state cap
/// CEGIS aborts that build in `Phase::Cegis` with no checkpoint at every
/// thread count, while the tableau engine aborts the same build in
/// `Phase::Build` with one.
#[test]
fn cegis_certificate_abort_stays_in_the_cegis_phase() {
    use ftsyn::problems::barrier;
    use ftsyn::{synthesize_with_engine, Engine};
    let budget = Budget {
        max_states: Some(10),
        ..Budget::default()
    };
    for &threads in &THREAD_MATRIX {
        for (engine, phase) in [
            (Engine::Cegis, Phase::Cegis),
            (Engine::Tableau, Phase::Build),
        ] {
            let mut p = barrier::with_fail_stop_impossible(3);
            let gov = Governor::with_budget(budget.clone());
            let plan = ThreadPlan::uniform(threads);
            let SynthesisOutcome::Aborted(a) =
                synthesize_with_engine(&mut p, engine, plan, Some(&gov))
            else {
                panic!("{} at {threads} threads: expected an abort", engine.name())
            };
            let what = format!("{} at {threads} threads", engine.name());
            assert_eq!(a.phase, phase, "{what}");
            assert_eq!(gov.current_phase(), phase, "{what}");
            assert_eq!(
                a.reason.to_string(),
                "state cap of 10 exceeded (10 tableau nodes)",
                "{what}"
            );
            assert_eq!(a.checkpoint.is_some(), engine == Engine::Tableau, "{what}");
        }
    }
}

/// A refinement cap of zero must degrade to a *structured* extraction
/// gap (a `FailureKind::ExtractionGap` verification failure — the CLI's
/// exit-3 path), never a silently-wrong program: the three-process
/// multitolerance case needs one refinement round, so forbidding
/// refinement leaves the extracted program rejected by the model
/// checker at its fault-displaced configurations.
#[test]
fn zero_refine_round_cap_degrades_to_a_structured_extraction_gap() {
    let mut p = mutex::with_fail_stop_multitolerance(3, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    });
    let gov = Governor::with_budget(Budget {
        max_extract_refine_rounds: Some(0),
        ..Budget::default()
    });
    let SynthesisOutcome::Solved(s) = synthesize_governed(&mut p, 1, &gov) else {
        panic!("expected a solved-but-rejected outcome")
    };
    assert!(!s.stats.extract_profile.verified);
    assert_eq!(s.stats.extract_profile.refinement_rounds, 0);
    assert!(!s.verification.extraction_ok);
    assert!(!s.verification.ok());
    let gap = s
        .verification
        .failures
        .iter()
        .find(|f| f.kind == FailureKind::ExtractionGap)
        .unwrap_or_else(|| {
            panic!(
                "expected an ExtractionGap failure, got: {}",
                s.verification.failure_summary()
            )
        });
    // The message names the cap, the checks that still fail on the
    // explored structure, and both sizes.
    let sizes = format!(
        " ({} explored vs {} model states)",
        s.stats.extract_profile.explored_states, s.stats.extract_profile.model_states
    );
    assert!(
        gap.message
            .starts_with("extraction verification still rejects after 0 refinement round(s): ")
            && gap.message.ends_with(&sizes),
        "{}",
        gap.message
    );
}
