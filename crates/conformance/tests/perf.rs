//! Performance smoke: the headline bottleneck of the original
//! minimizer — dining-philosophers(5), formerly ~43 s of wall clock,
//! ~90% of it in semantic minimization — must now synthesize well
//! inside a generous governed deadline. The test is a smoke alarm, not
//! a benchmark: the deadline is an order of magnitude looser than the
//! observed release-build time (~3 s), so it only fires on a
//! catastrophic regression (e.g. the incremental engine silently
//! falling back to per-attempt relabeling).
//!
//! Ignored by default because debug builds are 10–30× slower than
//! release; CI runs it as `cargo test --release … -- --ignored`.

use ftsyn::problems::mutex;
use ftsyn::{synthesize_with_engine, Budget, Engine, Governor, SynthesisOutcome, ThreadPlan};
use std::time::Duration;

#[test]
#[ignore = "perf smoke — run under --release (CI minimize-matrix job)"]
fn philosophers5_synthesizes_inside_a_generous_deadline() {
    let mut p = mutex::dining_philosophers(5);
    let gov = Governor::with_budget(Budget {
        deadline: Some(Duration::from_secs(60)),
        ..Budget::default()
    });
    match synthesize_with_engine(
        &mut p,
        Engine::Tableau,
        ThreadPlan::uniform(ftsyn::default_threads()),
        Some(&gov),
    ) {
        SynthesisOutcome::Solved(s) => {
            assert!(s.verification.ok(), "{:?}", s.verification.failures);
            assert!(
                s.stats.minimize_profile.merges > 0,
                "philosophers5 must actually exercise the minimizer"
            );
        }
        SynthesisOutcome::Aborted(a) => panic!(
            "philosophers5 blew the 60 s smoke deadline in the {} phase: {} \
             (minimize {:?}, {} attempts)",
            a.phase, a.reason, a.stats.minimize_time, a.stats.minimize_profile.attempts
        ),
        SynthesisOutcome::Impossible(_) => panic!("philosophers5 is synthesizable"),
    }
}
