//! The CEGIS engine's race between its bounded search and the tableau
//! certificate (`plan.build ≥ 2`) must not show in its results: the
//! outcome, every `CegisProfile` counter, the model size and the
//! program are the same at 1 thread (no race), 2 and 8 threads, with
//! and without a candidate budget. A cancel that lands mid-race ends
//! the run promptly with `Cancelled` and leaves no thread running.
//! CI runs this file in release next to `cegis_pin`.

use ftsyn::problems::{barrier, mutex};
use ftsyn::{
    cegis_synthesize, AbortReason, Budget, CegisProfile, Governor, Phase, SynthesisOutcome,
    SynthesisProblem, ThreadPlan, Tolerance, CEGIS_SEARCH_THREAD,
};
use ftsyn_conformance::differential::THREAD_MATRIX;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests of this file, so that the thread census of
/// one sees no other race's threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// Everything a run reports that must not depend on the thread count.
#[derive(Debug, PartialEq)]
struct Run {
    /// `"solved"`, `"impossible"` or the abort reason.
    outcome: String,
    profile: CegisProfile,
    model_states: usize,
    /// The rendered program (empty unless solved).
    program: String,
}

fn run(make: &dyn Fn() -> SynthesisProblem, threads: usize, budget: Option<&Budget>) -> Run {
    let mut problem = make();
    let gov = budget.map(|b| Governor::with_budget(b.clone()));
    let outcome = cegis_synthesize(&mut problem, ThreadPlan::uniform(threads), gov.as_ref());
    let (outcome, stats, program) = match &outcome {
        SynthesisOutcome::Solved(s) => (
            "solved".to_owned(),
            &s.stats,
            s.program.display(&problem.props),
        ),
        SynthesisOutcome::Impossible(i) => ("impossible".to_owned(), &i.stats, String::new()),
        SynthesisOutcome::Aborted(a) => {
            assert_eq!(a.phase, Phase::Cegis);
            (a.reason.to_string(), &a.stats, String::new())
        }
    };
    Run {
        outcome,
        profile: stats.cegis_profile.clone(),
        model_states: stats.model_states,
        program,
    }
}

/// Runs `make` at every thread count of the matrix and returns the
/// common result, failing on the first difference.
fn same_at_every_thread_count(
    name: &str,
    make: &dyn Fn() -> SynthesisProblem,
    budget: Option<&Budget>,
) -> Run {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let first = run(make, THREAD_MATRIX[0], budget);
    for &threads in &THREAD_MATRIX[1..] {
        assert_eq!(
            run(make, threads, budget),
            first,
            "{name}: {threads} threads differ from {}",
            THREAD_MATRIX[0]
        );
    }
    first
}

fn barrier3() -> SynthesisProblem {
    barrier::with_fail_stop_impossible(3)
}

fn candidate_budget(cap: usize) -> Budget {
    Budget {
        max_cegis_candidates: Some(cap),
        ..Budget::default()
    }
}

/// barrier3's certificate decides it; the search's counters read 0 even
/// where the race stopped the search part-way.
#[test]
fn an_impossible_race_reports_the_certificate_alone() {
    let r = same_at_every_thread_count("barrier3", &barrier3, None);
    assert_eq!(r.outcome, "impossible");
    assert_eq!(
        r.profile,
        CegisProfile {
            universe: 125,
            banned: 0,
            opaque_conjuncts: 3,
            certificate_nodes: 1392,
            ..CegisProfile::default()
        }
    );
}

/// A solvable case: the search's approval stops the certificate, which
/// is then not reported.
#[test]
fn a_solved_race_reports_the_search_alone() {
    let r = same_at_every_thread_count(
        "mutex3-failstop-masking",
        &|| mutex::with_fail_stop(3, Tolerance::Masking),
        None,
    );
    assert_eq!(r.outcome, "solved");
    assert_eq!(r.profile.candidates, 10);
    assert_eq!(r.profile.certificate_nodes, 0);
    assert!(!r.program.is_empty());
}

/// Under a candidate budget the certificate does not cut the search
/// short: a budget below the 512 candidates barrier3's search would
/// take aborts at the budget, and one above them ends as without a
/// budget. The 400 candidates take longer than the certificate, so a
/// race that let the dead root stop a budgeted search would end it
/// `Impossible` here.
#[test]
fn a_candidate_budget_decides_where_a_raced_search_ends() {
    let r = same_at_every_thread_count("barrier3", &barrier3, Some(&candidate_budget(400)));
    assert_eq!(
        r.outcome,
        AbortReason::CegisCandidateCapExceeded {
            cap: 400,
            reached: 400
        }
        .to_string()
    );
    assert_eq!(r.profile.candidates, 400);
    assert_eq!(r.profile.certificate_nodes, 0);

    let r = same_at_every_thread_count("barrier3", &barrier3, Some(&candidate_budget(10_000)));
    assert_eq!(r.outcome, "impossible");
    assert_eq!(
        (r.profile.candidates, r.profile.certificate_nodes),
        (0, 1392)
    );
}

/// The threads of this process whose name is `name`, or `None` where
/// the process's threads cannot be listed.
fn threads_named(name: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == name)
            .count(),
    )
}

/// One mutex4-failstop run at 8 threads, cancelled from another thread
/// as soon as the search thread shows up. `None` when the run ended
/// before the canceller saw the race.
fn cancelled_race() -> Option<(SynthesisOutcome, Instant)> {
    let gov = Governor::unlimited();
    let finished = AtomicBool::new(false);
    let mut problem = mutex::with_fail_stop(4, Tolerance::Masking);
    let (outcome, cancelled_at) = std::thread::scope(|s| {
        let canceller = s.spawn(|| {
            while threads_named(CEGIS_SEARCH_THREAD) == Some(0) {
                if finished.load(Ordering::SeqCst) {
                    return None;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            gov.cancel();
            Some(Instant::now())
        });
        let outcome = cegis_synthesize(&mut problem, ThreadPlan::uniform(8), Some(&gov));
        finished.store(true, Ordering::SeqCst);
        (outcome, canceller.join().expect("the canceller"))
    });
    Some((outcome, cancelled_at?))
}

/// A cancel from another thread, sent once the search thread is up,
/// ends the run with `Cancelled` promptly; afterwards neither the
/// search thread nor a build worker of the certificate (unnamed, so
/// named after the thread that spawned it) is left.
#[test]
fn a_cancel_mid_race_returns_promptly_with_no_thread_left() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let Some(0) = threads_named(CEGIS_SEARCH_THREAD) else {
        return; // no thread census on this platform
    };
    let caller = std::fs::read_to_string("/proc/thread-self/comm").expect("own name");
    let caller = caller.trim_end();
    // The race lasts tens of milliseconds; a canceller the scheduler
    // starves past it tries again.
    let (outcome, cancelled_at) = (0..5)
        .find_map(|_| cancelled_race())
        .expect("the canceller saw no race in five runs");
    let latency = cancelled_at.elapsed();
    let SynthesisOutcome::Aborted(a) = outcome else {
        panic!("a cancelled race must abort")
    };
    assert_eq!(a.reason, AbortReason::Cancelled);
    assert_eq!(a.phase, Phase::Cegis);
    assert!(
        latency < Duration::from_secs(2),
        "the run took {latency:?} to stop after the cancel"
    );
    // A joined thread leaves the task list as it exits; allow it that.
    let gone = |name: &str, left: usize| {
        let until = Instant::now() + Duration::from_millis(200);
        while threads_named(name) != Some(left) && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(1));
        }
        threads_named(name) == Some(left)
    };
    assert!(
        gone(CEGIS_SEARCH_THREAD, 0),
        "the search thread outlived the run"
    );
    assert!(
        gone(caller, 1),
        "a certificate build worker outlived the run"
    );
}
