//! Conformance testing for the synthesis pipeline.
//!
//! The paper's method is sound and complete, and — since the pipeline
//! became fully deterministic — the synthesized synchronization
//! skeleton for a fixed problem is a *reproducible artifact*: the same
//! bytes on every run, every thread count, and every machine. This
//! crate locks that down from two directions:
//!
//! - **Golden snapshots** ([`golden`], `tests/golden.rs`): the rendered
//!   program for every example problem and `.ftsyn` spec is committed
//!   as a `.golden` file; a change to any pipeline stage that alters a
//!   program (or a state count) shows up as a reviewable diff.
//!   Regenerate with `UPDATE_GOLDEN=1 cargo test -p ftsyn-conformance`.
//! - **Seeded differential fuzzing** ([`generate`], [`differential`],
//!   `tests/fuzz.rs`): random problem instances (random region
//!   automata, invariants, fault actions, tolerance assignments) are
//!   synthesized *twice* per seed — run-to-run determinism is asserted
//!   byte-for-byte — and every synthesized program is re-checked by the
//!   `ftsyn-kripke` model checker as an independent oracle (`⊨` and
//!   `⊨ₙ`, via [`ftsyn::check_program`]). Each case also cross-checks
//!   the optimized tableau build (work-stealing, 2 threads) against the
//!   pre-optimization reference kernels on their own sequential
//!   harness.
//! - **Fault-injection campaigns** ([`campaign`], `tests/campaign.rs`):
//!   synthesized programs are *run* under seeded randomized simulation
//!   with injected faults, asserting the runtime counterpart of their
//!   tolerance — containment in the verified structure, safety `always`
//!   (masking/fail-safe), post-fault convergence (masking/nonmasking).
//!   Every fuzzer seed's program is simulation-checked the same way.
//! - **Budget-abort determinism** (`tests/budget.rs`): governed runs
//!   must abort at identical deterministic counters at every thread
//!   count, a governed-unlimited run must be byte-identical to an
//!   ungoverned one, and an injected worker panic must surface as a
//!   structured abort with no poisoned scheduler state left behind.
//! - **Reference oracles** ([`mod@reference`]): the straightforward
//!   engines the optimized ones replaced — tableau expansion and
//!   construction, deletion and fulfillment, minimization, and the
//!   step-5 explorer and CTL labeler — each checked under plain
//!   `cargo test`. Only tests depend on this crate, so release
//!   binaries never compile the oracles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod differential;
pub mod generate;
pub mod golden;
pub mod reference;
pub mod render;
