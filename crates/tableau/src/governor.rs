//! Resource governor for synthesis runs: budgets, cooperative
//! cancellation, and structured abort reasons.
//!
//! The decision procedure is complete but exponential in the worst case
//! (Theorem 4.2), so a production caller needs a way to bound a run
//! without killing the process: a [`Budget`] declares the limits, a
//! [`Governor`] is the shared, cheaply-pollable handle every hot loop
//! checks at bounded intervals, and an [`AbortReason`] says exactly
//! which limit tripped.
//!
//! Determinism contract: the *capped* budgets (`max_states`,
//! `max_deletion_work`, `max_minimize_attempts`) are checked against
//! deterministic work counters — tableau nodes after each in-order
//! batch commit, deletion worklist pops plus certificate builds,
//! minimization attempts — so a cap abort happens at the identical
//! point with the identical counters at every worker-thread count.
//! Only the wall-clock deadline and the external cancel flag are
//! allowed to fire nondeterministically.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one synthesis run. `None` means unlimited; the
/// default budget is fully unlimited, under which a governed run is
/// byte-identical to an ungoverned one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from [`Governor`] creation. The
    /// only nondeterministic budget (besides external cancellation).
    pub deadline: Option<Duration>,
    /// Maximum tableau nodes. Checked after each in-order batch commit,
    /// so the abort point is bit-identical across thread counts.
    pub max_states: Option<usize>,
    /// Maximum deletion work: worklist pops plus fulfillment-certificate
    /// builds (the deletion engine is single-threaded, so the counter is
    /// trivially deterministic).
    pub max_deletion_work: Option<usize>,
    /// Maximum candidate merges the semantic minimizer may verify.
    pub max_minimize_attempts: Option<usize>,
    /// Maximum guard-refinement rounds the extraction-verification
    /// stage may run before giving up with a structured
    /// `ExtractionGap` failure. `None` uses the pipeline's default
    /// cap; `Some(0)` forbids refinement entirely (the extracted
    /// program must verify as-is). Reaching this cap does not abort
    /// the run — it degrades the verification verdict instead — so
    /// there is no matching [`AbortReason`].
    pub max_extract_refine_rounds: Option<usize>,
    /// Maximum candidate models the CEGIS bounded-synthesis engine may
    /// examine. The candidate counter is a deterministic work counter
    /// (the engine's search is sequential and its branching order
    /// fixed), so a cap abort happens at the identical candidate with
    /// the identical counters at every thread count.
    pub max_cegis_candidates: Option<usize>,
}

impl Budget {
    /// A budget with no limits at all.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Whether every limit is off.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_states.is_none()
            && self.max_deletion_work.is_none()
            && self.max_minimize_attempts.is_none()
            && self.max_extract_refine_rounds.is_none()
            && self.max_cegis_candidates.is_none()
    }
}

/// Why a governed run stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// The configured deadline.
        limit: Duration,
        /// Time elapsed when the deadline check fired.
        elapsed: Duration,
    },
    /// The tableau reached the state cap.
    StateCapExceeded {
        /// The configured cap.
        cap: usize,
        /// Node count at the (deterministic) abort point.
        reached: usize,
    },
    /// The deletion engine reached its work cap.
    DeletionWorkCapExceeded {
        /// The configured cap.
        cap: usize,
        /// Worklist pops + certificate builds at the abort point.
        reached: usize,
    },
    /// The semantic minimizer reached its attempt cap.
    MinimizeAttemptCapExceeded {
        /// The configured cap.
        cap: usize,
        /// Candidate merges verified at the abort point.
        reached: usize,
    },
    /// The CEGIS engine reached its candidate cap.
    CegisCandidateCapExceeded {
        /// The configured cap.
        cap: usize,
        /// Candidate models examined at the (deterministic) abort point.
        reached: usize,
    },
    /// The CEGIS engine exhausted its bounded search space without
    /// finding a program, while the tableau certificate shows the
    /// specification *is* satisfiable — the bound was too small, so the
    /// run stops structurally instead of claiming impossibility.
    CegisBoundExhausted {
        /// The obligation-queue bound the search widened up to (the
        /// model may hold up to this many simultaneously tracked
        /// eventuality obligations per state, which caps the number of
        /// copies per admissible valuation).
        bound: usize,
        /// Candidate models examined across all bounds.
        candidates: usize,
    },
    /// An external caller flipped the cancel flag.
    Cancelled,
    /// A worker thread panicked; the scheduler contained the panic and
    /// shut the remaining workers down cleanly.
    WorkerPanic {
        /// The panic payload, rendered.
        message: String,
    },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::DeadlineExceeded { limit, elapsed } => {
                write!(f, "deadline of {limit:?} exceeded after {elapsed:?}")
            }
            AbortReason::StateCapExceeded { cap, reached } => {
                write!(f, "state cap of {cap} exceeded ({reached} tableau nodes)")
            }
            AbortReason::DeletionWorkCapExceeded { cap, reached } => {
                write!(
                    f,
                    "deletion work cap of {cap} exceeded ({reached} work units)"
                )
            }
            AbortReason::MinimizeAttemptCapExceeded { cap, reached } => {
                write!(
                    f,
                    "minimize attempt cap of {cap} exceeded ({reached} attempts)"
                )
            }
            AbortReason::CegisCandidateCapExceeded { cap, reached } => {
                write!(
                    f,
                    "cegis candidate cap of {cap} exceeded ({reached} candidates)"
                )
            }
            AbortReason::CegisBoundExhausted { bound, candidates } => {
                write!(
                    f,
                    "cegis bound exhausted at queue bound {bound} \
                     ({candidates} candidates, spec still satisfiable)"
                )
            }
            AbortReason::Cancelled => write!(f, "cancelled by the caller"),
            AbortReason::WorkerPanic { message } => {
                write!(f, "worker panic: {message}")
            }
        }
    }
}

/// The pipeline phase a governed run was in when it aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Tableau construction (step 1).
    Build,
    /// Deletion rules (step 2).
    Deletion,
    /// Fragments + unraveling (steps 3–4).
    Unravel,
    /// Semantic minimization.
    Minimize,
    /// Program extraction + in-pipeline extraction verification
    /// (step 5).
    Extract,
    /// The CEGIS bounded-synthesis engine's guess–verify–block loop
    /// (the alternative backend; not part of the tableau pipeline).
    Cegis,
}

impl Phase {
    /// Stable machine-readable name (used as a JSON value by the
    /// service and in CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Deletion => "deletion",
            Phase::Unravel => "unravel",
            Phase::Minimize => "minimize",
            Phase::Extract => "extract",
            Phase::Cegis => "cegis",
        }
    }

    /// Stable small integer for the governor's atomic phase register.
    fn as_u8(self) -> u8 {
        match self {
            Phase::Build => 0,
            Phase::Deletion => 1,
            Phase::Unravel => 2,
            Phase::Minimize => 3,
            Phase::Extract => 4,
            Phase::Cegis => 5,
        }
    }

    /// Inverse of [`Phase::as_u8`].
    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Build,
            1 => Phase::Deletion,
            2 => Phase::Unravel,
            3 => Phase::Minimize,
            5 => Phase::Cegis,
            _ => Phase::Extract,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The shared governor handle: a [`Budget`] plus the run's start
/// instant and an external cancel flag. Shared by reference across the
/// pipeline (and across expansion worker threads); every check is a
/// couple of branch instructions when the corresponding limit is off.
///
/// A capped budget trips as soon as its deterministic counter *reaches*
/// the cap (`counter >= cap`), so `max_minimize_attempts: Some(n)`
/// permits exactly `n` verified candidates.
#[derive(Debug)]
pub struct Governor {
    budget: Budget,
    start: Instant,
    /// The external cancel flag, shared with every [`Governor::linked`]
    /// governor.
    cancel: Arc<AtomicBool>,
    /// This governor's own stop flag ([`Governor::stop`]), seen by no
    /// other governor.
    stop: AtomicBool,
    /// The pipeline phase the governed run is currently in (the run
    /// reports transitions via [`Governor::enter_phase`]); readable by
    /// other threads for live progress.
    phase: AtomicU8,
    /// Test hook: the expansion worker executing the batch with this
    /// sequence id panics deterministically (batch numbering is
    /// identical at every thread count).
    panic_batch: Option<usize>,
    /// Test hook: entering this phase self-cancels the run, so
    /// mid-phase external-cancel aborts reproduce deterministically at
    /// every thread count (the first realtime poll of the phase trips).
    cancel_phase: Option<Phase>,
}

impl Governor {
    /// A governor that never aborts (unless a worker genuinely panics).
    pub fn unlimited() -> Governor {
        Governor::with_budget(Budget::unlimited())
    }

    /// A governor enforcing `budget`, with the deadline clock starting
    /// now.
    pub fn with_budget(budget: Budget) -> Governor {
        Governor {
            budget,
            start: Instant::now(),
            cancel: Arc::default(),
            stop: AtomicBool::new(false),
            phase: AtomicU8::new(Phase::Build.as_u8()),
            panic_batch: None,
            cancel_phase: None,
        }
    }

    /// A governor for work that runs beside this governor's run and may
    /// be stopped on its own: the same budget, deadline clock, cancel
    /// flag, test hooks and current phase, plus a private stop flag
    /// ([`Governor::stop`]). Cancelling either governor cancels both;
    /// stopping the linked one leaves this one running.
    pub fn linked(&self) -> Governor {
        Governor {
            budget: self.budget.clone(),
            start: self.start,
            cancel: Arc::clone(&self.cancel),
            stop: AtomicBool::new(false),
            phase: AtomicU8::new(self.phase.load(Ordering::Relaxed)),
            panic_batch: self.panic_batch,
            cancel_phase: self.cancel_phase,
        }
    }

    /// Stops this governor alone: its next realtime poll aborts with
    /// [`AbortReason::Cancelled`], while the governor it was
    /// [linked](Governor::linked) from, and its cancel flag, are left
    /// untouched.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// The budget this governor enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Wall-clock time since the governor was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Requests cooperative cancellation: the next realtime poll in any
    /// phase aborts with [`AbortReason::Cancelled`]. Safe to call from
    /// another thread through a shared reference.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether [`Governor::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records that the governed run entered `phase`. Called by the
    /// pipeline at each phase start; other threads may read the current
    /// phase for live progress ([`Governor::current_phase`]).
    pub fn enter_phase(&self, phase: Phase) {
        self.phase.store(phase.as_u8(), Ordering::Relaxed);
    }

    /// The pipeline phase the governed run last reported entering.
    pub fn current_phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::Relaxed))
    }

    /// Polls the nondeterministic triggers: the cancel flag and the
    /// wall-clock deadline.
    pub fn check_realtime(&self) -> Result<(), AbortReason> {
        if self.cancel_phase == Some(self.current_phase()) {
            return Err(AbortReason::Cancelled);
        }
        self.check_interrupt()
    }

    /// Polls only the cancel flag and the wall-clock deadline: the
    /// realtime triggers of [`Governor::check_realtime`] without its
    /// phase-cancel test hook. Long computations poll this *inside* one
    /// step (one node's `Blocks` expansion), where the hook would move
    /// the abort points it exists to pin.
    pub fn check_interrupt(&self) -> Result<(), AbortReason> {
        if self.is_cancelled() || self.stop.load(Ordering::Relaxed) {
            return Err(AbortReason::Cancelled);
        }
        if let Some(limit) = self.budget.deadline {
            let elapsed = self.start.elapsed();
            if elapsed >= limit {
                return Err(AbortReason::DeadlineExceeded { limit, elapsed });
            }
        }
        Ok(())
    }

    /// Polls the tableau state cap against the current node count.
    #[inline]
    pub fn check_states(&self, states: usize) -> Result<(), AbortReason> {
        match self.budget.max_states {
            Some(cap) if states >= cap => Err(AbortReason::StateCapExceeded {
                cap,
                reached: states,
            }),
            _ => Ok(()),
        }
    }

    /// Polls the deletion work cap against worklist pops + cert builds.
    #[inline]
    pub fn check_deletion_work(&self, work: usize) -> Result<(), AbortReason> {
        match self.budget.max_deletion_work {
            Some(cap) if work >= cap => {
                Err(AbortReason::DeletionWorkCapExceeded { cap, reached: work })
            }
            _ => Ok(()),
        }
    }

    /// Polls the minimize attempt cap against attempts performed so far.
    #[inline]
    pub fn check_minimize_attempts(&self, attempts: usize) -> Result<(), AbortReason> {
        match self.budget.max_minimize_attempts {
            Some(cap) if attempts >= cap => Err(AbortReason::MinimizeAttemptCapExceeded {
                cap,
                reached: attempts,
            }),
            _ => Ok(()),
        }
    }

    /// Polls the CEGIS candidate cap against candidates examined so far.
    #[inline]
    pub fn check_cegis_candidates(&self, candidates: usize) -> Result<(), AbortReason> {
        match self.budget.max_cegis_candidates {
            Some(cap) if candidates >= cap => Err(AbortReason::CegisCandidateCapExceeded {
                cap,
                reached: candidates,
            }),
            _ => Ok(()),
        }
    }

    /// Test hook: arranges for the expansion worker that executes the
    /// batch with sequence id `seq` to panic. Batch numbering is
    /// deterministic across thread counts, so panic-containment tests
    /// reproduce exactly at 1, 2, and 8 workers.
    pub fn inject_worker_panic_at_batch(mut self, seq: usize) -> Governor {
        self.panic_batch = Some(seq);
        self
    }

    /// Test hook: the run cancels itself upon *entering* `phase` — the
    /// first realtime poll of that phase trips with
    /// [`AbortReason::Cancelled`]. Phase entries and realtime poll
    /// sites are thread-count-independent, so mid-phase cancel aborts
    /// reproduce deterministically at 1, 2, and 8 workers (unlike an
    /// asynchronous [`Governor::cancel`] from another thread, which
    /// lands wherever the race does).
    pub fn cancel_at_phase(mut self, phase: Phase) -> Governor {
        self.cancel_phase = Some(phase);
        self
    }

    /// Whether the injection hook targets batch `seq`.
    pub(crate) fn should_panic_at_batch(&self, seq: usize) -> bool {
        self.panic_batch == Some(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let g = Governor::unlimited();
        assert!(g.budget().is_unlimited());
        assert!(g.check_realtime().is_ok());
        assert!(g.check_states(usize::MAX).is_ok());
        assert!(g.check_deletion_work(usize::MAX).is_ok());
        assert!(g.check_minimize_attempts(usize::MAX).is_ok());
        assert!(g.check_cegis_candidates(usize::MAX).is_ok());
    }

    #[test]
    fn caps_trip_on_reaching_the_cap() {
        let g = Governor::with_budget(Budget {
            max_states: Some(10),
            max_deletion_work: Some(20),
            max_minimize_attempts: Some(30),
            ..Budget::default()
        });
        assert!(g.check_states(9).is_ok());
        assert_eq!(
            g.check_states(10),
            Err(AbortReason::StateCapExceeded {
                cap: 10,
                reached: 10
            })
        );
        assert!(g.check_deletion_work(19).is_ok());
        assert_eq!(
            g.check_deletion_work(25),
            Err(AbortReason::DeletionWorkCapExceeded {
                cap: 20,
                reached: 25
            })
        );
        assert!(g.check_minimize_attempts(29).is_ok());
        assert_eq!(
            g.check_minimize_attempts(30),
            Err(AbortReason::MinimizeAttemptCapExceeded {
                cap: 30,
                reached: 30
            })
        );
    }

    #[test]
    fn cegis_candidate_cap_trips_on_reaching_the_cap() {
        let g = Governor::with_budget(Budget {
            max_cegis_candidates: Some(40),
            ..Budget::default()
        });
        assert!(!g.budget().is_unlimited());
        assert!(g.check_cegis_candidates(39).is_ok());
        assert_eq!(
            g.check_cegis_candidates(40),
            Err(AbortReason::CegisCandidateCapExceeded {
                cap: 40,
                reached: 40
            })
        );
    }

    #[test]
    fn cancel_flag_trips_realtime_poll() {
        let g = Governor::unlimited();
        assert!(g.check_realtime().is_ok());
        g.cancel();
        assert!(g.is_cancelled());
        assert_eq!(g.check_realtime(), Err(AbortReason::Cancelled));
    }

    #[test]
    fn a_linked_governor_stops_alone_and_shares_the_cancel_flag() {
        let g = Governor::unlimited();
        g.enter_phase(Phase::Cegis);
        let child = g.linked();
        assert_eq!(child.current_phase(), Phase::Cegis);
        child.stop();
        assert_eq!(child.check_realtime(), Err(AbortReason::Cancelled));
        assert!(
            g.check_realtime().is_ok(),
            "a stop reaches no other governor"
        );
        assert!(!child.is_cancelled() && !g.is_cancelled());
        let child = g.linked();
        g.cancel();
        assert!(child.is_cancelled());
        assert_eq!(child.check_realtime(), Err(AbortReason::Cancelled));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Governor::with_budget(Budget {
            deadline: Some(Duration::ZERO),
            ..Budget::default()
        });
        assert!(matches!(
            g.check_realtime(),
            Err(AbortReason::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn phase_register_tracks_transitions() {
        let g = Governor::unlimited();
        assert_eq!(g.current_phase(), Phase::Build);
        g.enter_phase(Phase::Minimize);
        assert_eq!(g.current_phase(), Phase::Minimize);
        g.enter_phase(Phase::Extract);
        assert_eq!(g.current_phase(), Phase::Extract);
        g.enter_phase(Phase::Cegis);
        assert_eq!(g.current_phase(), Phase::Cegis);
    }

    #[test]
    fn cancel_at_phase_trips_only_in_that_phase() {
        let g = Governor::unlimited().cancel_at_phase(Phase::Minimize);
        assert!(g.check_realtime().is_ok()); // Build
        g.enter_phase(Phase::Deletion);
        assert!(g.check_realtime().is_ok());
        g.enter_phase(Phase::Minimize);
        assert_eq!(g.check_realtime(), Err(AbortReason::Cancelled));
        assert!(
            !g.is_cancelled(),
            "phase self-cancel is not the external flag"
        );
    }

    #[test]
    fn abort_reasons_render() {
        let r = AbortReason::StateCapExceeded { cap: 5, reached: 7 };
        assert_eq!(r.to_string(), "state cap of 5 exceeded (7 tableau nodes)");
        assert_eq!(
            AbortReason::Cancelled.to_string(),
            "cancelled by the caller"
        );
        assert_eq!(Phase::Minimize.to_string(), "minimize");
        assert_eq!(
            AbortReason::CegisCandidateCapExceeded { cap: 8, reached: 8 }.to_string(),
            "cegis candidate cap of 8 exceeded (8 candidates)"
        );
        assert_eq!(
            AbortReason::CegisBoundExhausted {
                bound: 2,
                candidates: 512
            }
            .to_string(),
            "cegis bound exhausted at queue bound 2 (512 candidates, spec still satisfiable)"
        );
        assert_eq!(Phase::Cegis.to_string(), "cegis");
    }
}
