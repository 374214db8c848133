//! Daemon crash-recovery conformance, in-process half: a service that
//! loses its process between an abort and the resume must hand back
//! byte-identical programs through the durable checkpoint store, at
//! every thread count in the matrix; the admission governor must shed
//! (never lose) requests; and a drain shutdown must leave every
//! in-build request resumable. The other half — fail-stopping the real
//! binary with `FTSYN_CRASH_POINT` and SIGKILL — lives in the CLI
//! crate's `crashsim` test, which drives `ftsyn serve` itself.

use ftsyn::{synthesize, Budget, CacheLimits, SynthesisOutcome};
use ftsyn_conformance::differential::THREAD_MATRIX;
use ftsyn_service::admission::AdmissionConfig;
use ftsyn_service::{corpus, Reply, Request, Service};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A unique scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ftsyn-daemon-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const PROBLEM: &str = "mutex2-failstop-masking";

fn direct_program() -> String {
    let mut problem = corpus::problem(PROBLEM).unwrap();
    match synthesize(&mut problem) {
        SynthesisOutcome::Solved(s) => {
            assert!(s.verification.ok());
            s.program.display(&problem.props).to_string()
        }
        other => panic!("direct run did not solve: {other:?}"),
    }
}

fn program_of(reply: &Reply) -> &str {
    match reply {
        // A program that failed verification answers `Unverified`.
        Reply::Solved { program, .. } => program,
        other => panic!("expected Solved, got {other:?}"),
    }
}

fn small_budget() -> Budget {
    Budget {
        max_states: Some(12),
        ..Budget::unlimited()
    }
}

/// The daemon-death round trip: abort durably, drop the entire service
/// (the in-memory map dies with it), recover a fresh service from the
/// same directory, resume — byte-identical to an uninterrupted run, at
/// every thread count in the conformance matrix.
#[test]
fn recovered_checkpoints_resume_byte_identically_across_the_thread_matrix() {
    let expected = direct_program();
    for &threads in &THREAD_MATRIX {
        let scratch = Scratch::new("restart");
        let svc = Service::new().with_checkpoint_dir(&scratch.0).unwrap();
        match svc.submit(Request::corpus("r1", PROBLEM, threads).with_budget(small_budget())) {
            Reply::Aborted {
                phase, resumable, ..
            } => {
                assert_eq!(phase, "build", "threads={threads}");
                assert!(resumable, "threads={threads}");
            }
            other => panic!("threads={threads}: expected Aborted, got {other:?}"),
        }
        drop(svc); // the daemon fail-stops; only the directory survives

        let svc = Service::new().with_checkpoint_dir(&scratch.0).unwrap();
        let recovery = svc.recovery().unwrap();
        assert_eq!(recovery.recovered.len(), 1, "threads={threads}");
        assert!(
            recovery.quarantined.is_empty(),
            "{:?}",
            recovery.quarantined
        );
        let listing = svc.list_checkpoints();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].id, "r1");
        assert_eq!(listing[0].source, format!("corpus:{PROBLEM}"));
        assert!(listing[0].nodes > 0);

        let resumed = svc.resume("r2", "r1", threads, None);
        assert_eq!(
            program_of(&resumed),
            expected,
            "threads={threads}: resumed-after-restart program differs"
        );
        assert!(
            svc.list_checkpoints().is_empty(),
            "consumed checkpoint must leave the durable store too"
        );
        drop(svc);
        // A third life sees a clean store: the consume was durable.
        let svc = Service::new().with_checkpoint_dir(&scratch.0).unwrap();
        assert!(svc.recovery().unwrap().recovered.is_empty());
    }
}

/// Occupies the service's single worker slot with a cancellable
/// request running on its own thread, runs `body`, then releases the
/// slot and checks the occupant checkpointed.
fn with_occupied_slot(svc: &Service, body: impl FnOnce(&Service)) {
    std::thread::scope(|s| {
        let occupant =
            s.spawn(|| svc.submit(Request::corpus("occupant", "mutex4-failstop-masking", 1)));
        let start = Instant::now();
        while svc.admission_counters().0 == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "occupant was never admitted"
            );
            std::thread::yield_now();
        }
        body(svc);
        assert!(svc.cancel("occupant"));
        match occupant.join().unwrap() {
            Reply::Aborted { resumable, .. } => assert!(resumable),
            other => panic!("expected the occupant to abort, got {other:?}"),
        }
    });
}

/// With one slot and no queue, a second request is shed with a
/// structured `overloaded` reply — it never runs, and nothing is lost:
/// the shed id can be submitted again after the slot frees.
#[test]
fn full_governor_sheds_with_a_retry_hint_and_loses_nothing() {
    let svc = Service::new().with_admission(AdmissionConfig::bounded(1, 0));
    with_occupied_slot(&svc, |svc| {
        match svc.submit(Request::corpus("shed-me", PROBLEM, 1)) {
            Reply::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
    });
    // The shed request retries once the slot is free and succeeds.
    let retried = svc.submit(Request::corpus("shed-me", PROBLEM, 1));
    assert_eq!(program_of(&retried), direct_program());
    let (admitted, shed, expired, _) = svc.admission_counters();
    assert_eq!((admitted, shed, expired), (2, 1, 0), "occupant + retry");
}

/// A resume shed by a full governor consumes nothing: the checkpoint
/// must still be listed (and durable) after the `overloaded` reply,
/// and the retry must resume it byte-identically once a slot frees —
/// including from a fresh daemon life, proving the blob never left
/// the on-disk store.
#[test]
fn shed_resume_keeps_the_checkpoint_parked_and_durable() {
    let scratch = Scratch::new("shed-resume");
    let svc = Service::new()
        .with_admission(AdmissionConfig::bounded(1, 0))
        .with_checkpoint_dir(&scratch.0)
        .unwrap();
    // Park a durable checkpoint under "r1" (admission #1; the slot
    // frees again when the abort returns).
    match svc.submit(Request::corpus("r1", PROBLEM, 1).with_budget(small_budget())) {
        Reply::Aborted { resumable, .. } => assert!(resumable),
        other => panic!("expected Aborted, got {other:?}"),
    }
    std::thread::scope(|s| {
        let occupant =
            s.spawn(|| svc.submit(Request::corpus("occupant", "mutex4-failstop-masking", 1)));
        let start = Instant::now();
        while svc.admission_counters().0 < 2 {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "occupant was never admitted"
            );
            std::thread::yield_now();
        }
        match svc.resume("r2", "r1", 1, None) {
            Reply::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The shed resume consumed nothing: "r1" is still parked.
        assert!(
            svc.list_checkpoints().iter().any(|e| e.id == "r1"),
            "shed resume lost the checkpoint"
        );
        assert!(svc.cancel("occupant"));
        match occupant.join().unwrap() {
            Reply::Aborted { resumable, .. } => assert!(resumable),
            other => panic!("expected the occupant to abort, got {other:?}"),
        }
    });
    // Still durable: a fresh daemon life recovers it from disk and the
    // retried resume hands back the uninterrupted program.
    drop(svc);
    let svc = Service::new()
        .with_admission(AdmissionConfig::bounded(1, 0))
        .with_checkpoint_dir(&scratch.0)
        .unwrap();
    assert!(
        svc.list_checkpoints().iter().any(|e| e.id == "r1"),
        "shed resume must not have consumed the durable blob"
    );
    let resumed = svc.resume("r2", "r1", 1, None);
    assert_eq!(program_of(&resumed), direct_program());
    assert!(!svc.list_checkpoints().iter().any(|e| e.id == "r1"));
}

/// A resume whose deadline expires in the admission queue consumes
/// nothing either: the admission abort leaves the checkpoint parked
/// for a later retry.
#[test]
fn expired_resume_keeps_the_checkpoint_parked() {
    let svc = Service::new().with_admission(AdmissionConfig::bounded(1, 4));
    match svc.submit(Request::corpus("r1", PROBLEM, 1).with_budget(small_budget())) {
        Reply::Aborted { resumable, .. } => assert!(resumable),
        other => panic!("expected Aborted, got {other:?}"),
    }
    std::thread::scope(|s| {
        let occupant =
            s.spawn(|| svc.submit(Request::corpus("occupant", "mutex4-failstop-masking", 1)));
        let start = Instant::now();
        while svc.admission_counters().0 < 2 {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "occupant was never admitted"
            );
            std::thread::yield_now();
        }
        let hurried = Budget {
            deadline: Some(Duration::from_millis(50)),
            ..Budget::unlimited()
        };
        match svc.resume("r2", "r1", 1, Some(hurried)) {
            Reply::Aborted {
                phase, resumable, ..
            } => {
                assert_eq!(phase, "admission");
                assert!(!resumable, "nothing ran, nothing new to resume");
            }
            other => panic!("expected an admission abort, got {other:?}"),
        }
        assert!(
            svc.list_checkpoints().iter().any(|e| e.id == "r1"),
            "expired resume lost the checkpoint"
        );
        assert!(svc.cancel("occupant"));
        match occupant.join().unwrap() {
            Reply::Aborted { resumable, .. } => assert!(resumable),
            other => panic!("expected the occupant to abort, got {other:?}"),
        }
    });
    // With the slot free again the same resume succeeds.
    let resumed = svc.resume("r2", "r1", 1, None);
    assert_eq!(program_of(&resumed), direct_program());
}

/// A queued request whose own deadline passes while waiting is aborted
/// in the `admission` phase — queue time counts against the deadline.
#[test]
fn queued_requests_inherit_their_deadline() {
    let svc = Service::new().with_admission(AdmissionConfig::bounded(1, 4));
    with_occupied_slot(&svc, |svc| {
        let req = Request::corpus("hurried", PROBLEM, 1).with_budget(Budget {
            deadline: Some(Duration::from_millis(50)),
            ..Budget::unlimited()
        });
        match svc.submit(req) {
            Reply::Aborted {
                phase, resumable, ..
            } => {
                assert_eq!(phase, "admission");
                assert!(!resumable, "nothing ran, nothing to resume");
            }
            other => panic!("expected an admission abort, got {other:?}"),
        }
    });
}

/// A drain shutdown cancels the in-build request, which parks a
/// durable checkpoint on its way out; the next daemon life resumes it
/// byte-identically.
#[test]
fn drain_shutdown_checkpoints_in_flight_work_for_the_next_life() {
    let scratch = Scratch::new("drain");
    let svc = Service::new().with_checkpoint_dir(&scratch.0).unwrap();
    std::thread::scope(|s| {
        let worker = s.spawn(|| svc.submit(Request::corpus("inflight", PROBLEM, 2)));
        // Drain as soon as the request is running.
        let start = Instant::now();
        while svc.admission_counters().0 == 0 {
            assert!(start.elapsed() < Duration::from_secs(30), "never admitted");
            std::thread::yield_now();
        }
        svc.shutdown();
        match worker.join().unwrap() {
            // The cancel may land mid-build (checkpoint parked) or the
            // request may already have finished — both drain outcomes
            // lose nothing.
            Reply::Aborted { resumable, .. } => assert!(resumable),
            Reply::Solved { .. } => return,
            other => panic!("unexpected drain outcome: {other:?}"),
        }
        drop(svc.list_checkpoints());
    });
    let had_checkpoint = !svc.list_checkpoints().is_empty();
    drop(svc);

    let svc = Service::new().with_checkpoint_dir(&scratch.0).unwrap();
    if had_checkpoint {
        assert_eq!(svc.recovery().unwrap().recovered.len(), 1);
        let resumed = svc.resume("next-life", "inflight", 2, None);
        assert_eq!(program_of(&resumed), direct_program());
    }
}

/// Capped cache partitions evict but never change results: with room
/// for almost nothing, a warm second request still reproduces the cold
/// program byte for byte.
#[test]
fn cache_eviction_under_tiny_limits_preserves_byte_identity() {
    let svc = Service::new().with_cache_limits(CacheLimits {
        max_entries: Some(4),
        max_bytes: None,
    });
    let cold = svc.submit(Request::corpus("cold", PROBLEM, 2));
    let (entries, _, evicted_entries, evicted_bytes) = svc.cache_stats();
    assert!(entries <= 4, "cap enforced after fold-back, got {entries}");
    assert!(evicted_entries > 0, "the cap must actually evict");
    assert!(evicted_bytes > 0);
    let warm = svc.submit(Request::corpus("warm", PROBLEM, 2));
    assert_eq!(program_of(&cold), program_of(&warm));
    assert_eq!(program_of(&warm), direct_program());
}
