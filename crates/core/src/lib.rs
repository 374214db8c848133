//! `ftsyn` — synthesis of fault-tolerant concurrent programs from CTL
//! specifications.
//!
//! A from-scratch implementation of
//!
//! > P. C. Attie, A. Arora, E. A. Emerson.
//! > *Synthesis of Fault-Tolerant Concurrent Programs.*
//! > ACM TOPLAS 26(1):125–185, 2004 (PODC 1998).
//!
//! Given a problem specification (CTL), a fault specification (guarded
//! commands that perturb the state), a problem-fault coupling
//! specification, and a required tolerance (masking / nonmasking /
//! fail-safe — or a per-fault multitolerance assignment), [`synthesize`]
//! mechanically constructs a concurrent program — one synchronization
//! skeleton per process — that satisfies the specification in the absence
//! of faults and the tolerance property in their presence, or returns a
//! mechanical *impossibility result* when no such program exists.
//!
//! # Quickstart
//!
//! Synthesize the paper's two-process mutual exclusion solution under
//! fail-stop failures with masking tolerance (Section 6.1, Figures 8–9):
//!
//! ```
//! use ftsyn::{problems::mutex, synthesize, Tolerance};
//!
//! let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
//! let outcome = synthesize(&mut problem);
//! let solved = outcome.unwrap_solved();
//! assert!(solved.verification.ok(), "{:?}", solved.verification.failures);
//! println!("{}", solved.program.display(&problem.props));
//! ```
//!
//! # Pipeline
//!
//! 1. **Closure** — the generalized Fisher–Ladner closure of
//!    `spec ∧ Label_TOL(spec)` (crate [`ftsyn_ctl`]).
//! 2. **Tableau** — AND/OR graph with `Blocks`/`Tiles` successors *and*
//!    fault successors per Definition 5.1.2 (crate [`ftsyn_tableau`]).
//! 3. **Deletion** — the rules of Figure 2, certifying eventualities on
//!    fault-free subdags/paths; a deleted root is an impossibility
//!    result (Corollary 7.2).
//! 4. **Unraveling** — `FDAG`/`FFRAG` fragment construction and pasting
//!    (steps 3–4), yielding the fault-tolerant model `M_F`.
//! 5. **Extraction** — shared-variable disambiguation and projection
//!    into synchronization skeletons (step 5; crate [`ftsyn_guarded`]).
//! 6. **Verification** — Theorem 7.1.9 (soundness) and Theorem 7.3.2
//!    (fault closure) are re-checked on the produced model with the CTL
//!    model checker (crate [`ftsyn_kripke`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cegis;
mod check;
mod extract;
mod fragment;
mod minimize;
mod problem;
mod synthesize;
mod unravel;
mod verify;

pub mod problems;

pub use cegis::{cegis_synthesize, CegisProfile};
pub use check::{check_program, CheckError, CheckReport};
pub use extract::{
    extract_program, introduce_shared_variables, refine_guards, ExtractProfile, SharedIntroduction,
    DEFAULT_EXTRACT_REFINE_ROUNDS,
};
pub use fragment::{build_ffrag, eventualities_in, FragNode, Fragment};
pub use ftsyn_tableau::{
    blob_checksum, AbortReason, Budget, CacheFill, CacheLimits, CertMode, Checkpoint,
    CheckpointError, ExpansionCache, Governor, Phase, CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_MIN_FORMAT_VERSION,
};
// Re-exporting a deprecated item is itself flagged.
#[allow(deprecated)]
pub use minimize::semantic_minimize_with_threads;
pub use minimize::{semantic_minimize, semantic_minimize_governed, MinimizeAbort, MinimizeProfile};
pub use problem::{SynthesisProblem, Tolerance, ToleranceAssignment};
pub use synthesize::{
    default_threads, synthesize, synthesize_session, synthesize_with_engine, AbortedSynthesis,
    Engine, Impossibility, SynthesisOutcome, SynthesisSession, SynthesisStats, Synthesized,
    TableauArtifacts, ThreadPlan,
};
pub use unravel::{unravel_governed, unravel_mode, Unraveled};
pub use verify::{
    verify, verify_semantic, verify_semantic_ok, Failure, FailureKind, FailureStage, Verification,
};

// Re-export the substrate crates so downstream users need only `ftsyn`.
pub use ftsyn_ctl as ctl;
pub use ftsyn_guarded as guarded;
pub use ftsyn_kripke as kripke;
pub use ftsyn_tableau as tableau;
