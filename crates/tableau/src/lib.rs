//! The AND/OR tableau engine for fault-tolerant CTL synthesis.
//!
//! Implements steps 1–2 of the synthesis method of *Attie, Arora,
//! Emerson — Synthesis of Fault-Tolerant Concurrent Programs* (TOPLAS
//! 2004):
//!
//! * AND/OR graphs with label-deduplicated nodes ([`Tableau`]);
//! * the `Blocks` / `Tiles` expansions of the CTL decision procedure,
//!   including both `Tiles` special cases ([`blocks`], [`tiles`]);
//! * fault-successor generation from guarded-command fault actions with
//!   per-action tolerance labels (multitolerance-ready, [`build_governed`],
//!   [`FaultSpec`]);
//! * the five deletion rules of Figure 2, with *fault-free* full-subdag
//!   and fault-free-path certification of eventualities
//!   ([`apply_deletion_rules_governed`]), exposing the rank certificates the
//!   unraveling step needs to extract acyclic fragments
//!   ([`au_fulfillment`], [`eu_fulfillment`], [`Fulfillment`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod build;
mod cache;
mod checkpoint;
mod delete;
mod expand;
mod governor;
mod graph;

pub use build::{
    build_governed, build_with_threads, valuation_of, BuildAbort, BuildProfile, BuildStart,
    FaultSpec,
};
pub use cache::{CacheFill, CacheLimits, ExpansionCache};
pub use checkpoint::{
    blob_checksum, spec_fingerprint, Checkpoint, CheckpointError, PendingBatch,
    CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MIN_FORMAT_VERSION,
};
pub use delete::{
    apply_deletion_rules_governed, apply_deletion_rules_profiled, au_fulfillment, eu_fulfillment,
    CertMode, DeletionAbort, DeletionProfile, DeletionStats, Fulfillment,
};
pub use expand::{blocks, blocks_profiled, tiles, BlocksStats, Tile};
pub use governor::{AbortReason, Budget, Governor, Phase};
pub use graph::{EdgeKind, Node, NodeId, NodeKind, Tableau};
