//! Fault-tolerant Kripke structures and a CTL model checker.
//!
//! This crate provides the semantic substrate of the synthesis method of
//! *Attie, Arora, Emerson — Synthesis of Fault-Tolerant Concurrent
//! Programs* (TOPLAS 2004):
//!
//! * global states as proposition valuations plus shared-variable values
//!   ([`State`], [`PropSet`]);
//! * fault-tolerant Kripke structures `M_F = (S0, S, A, A_F, L)` with
//!   process-indexed program transitions and fault transitions
//!   ([`FtKripke`], written through a [`KripkeBuilder`]), including
//!   the normal / perturbed / recovery state classification of
//!   Section 2.4 ([`StateRole`]);
//! * a memoizing CTL model checker for both the plain satisfaction
//!   relation and the fault-free-relativized `⊨ₙ` ([`Checker`],
//!   [`Semantics`]), labeling with bitset satisfaction sets
//!   ([`StateSet`]).
//!
//! The synthesis engine uses the checker to *verify* every model it
//! produces (the paper's Theorem 7.1.9 soundness statement is re-checked
//! at runtime on each synthesized structure).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checker;
mod evidence;
mod minimize;
mod state;
mod stateset;
mod structure;

pub use checker::{Checker, LabelCache, Semantics};
pub use evidence::EvidencePath;
pub use minimize::{bisimulation_quotient, Quotient};
pub use state::{PropSet, State};
pub use stateset::StateSet;
pub use structure::{Csr, Edge, FtKripke, KripkeBuilder, StateId, StateRole, TransKind};
