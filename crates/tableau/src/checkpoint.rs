//! Build-phase checkpoints: serialize the work-stealing scheduler's
//! exact state at a governed abort so a request can *resume* under a
//! raised budget instead of restarting from scratch.
//!
//! A [`Checkpoint`] captures everything the deterministic scheduler
//! needs to continue as if the abort never happened: the partial
//! tableau (nodes, labels, edge and predecessor order — the intern
//! tables and alive-successor counters are re-derived bit-identically
//! by [`Tableau::from_build_nodes`]), the injected-but-uncommitted batches
//! in sequence order, the fresh nodes of the last committed batch that
//! were never batched (the governor polls *between* a commit and its
//! fresh-node injection), and the deterministic work counters
//! (`injected`, `committed`, per-level widths, nodes expanded, intern
//! probes). Because commits are applied strictly in sequence order at
//! every thread count, a resumed build replays the identical commit
//! sequence and the final tableau — and hence the synthesized program —
//! is byte-identical to an uninterrupted run (`conformance/tests/resume.rs`
//! pins this at 1/2/8 threads).
//!
//! The blob format is a versioned, length-prefixed little-endian binary
//! encoding with a leading magic and a *specification fingerprint*
//! ([`spec_fingerprint`]); [`Checkpoint::decode`] rejects bad magics,
//! unknown versions, and truncated or corrupt payloads, and
//! [`Checkpoint::validate`] rejects a blob whose fingerprint does not
//! match the problem it is being resumed against — a stale checkpoint
//! fails with a structured [`CheckpointError`], never a silent resume.

use crate::build::FaultSpec;
use crate::graph::{EdgeKind, NodeId, NodeKind, Tableau};
use ftsyn_ctl::{Closure, LabelSet, PropTable};
use std::fmt;

/// The magic bytes every checkpoint blob starts with.
const MAGIC: &[u8; 8] = b"FTSYNCKP";

/// Current checkpoint format version: what [`Checkpoint::encode`]
/// writes. Bump on any layout change.
///
/// v2 added a payload checksum after the version field, so corruption
/// anywhere in the blob — including counters a structural parse would
/// swallow silently — fails with [`CheckpointError::ChecksumMismatch`].
/// [`Checkpoint::decode`] still reads v1 blobs (same payload layout,
/// no checksum field) so checkpoints written by earlier builds remain
/// resumable after an upgrade; versions above
/// [`CHECKPOINT_FORMAT_VERSION`] are rejected with
/// [`CheckpointError::UnsupportedVersion`].
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// Oldest checkpoint format version [`Checkpoint::decode`] accepts.
pub const CHECKPOINT_MIN_FORMAT_VERSION: u32 = 1;

/// A structured checkpoint failure: why a blob cannot be decoded or
/// resumed. Returned instead of silently resuming stale or damaged
/// state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the checkpoint magic.
    BadMagic,
    /// The blob's format version is not the one this build understands.
    UnsupportedVersion {
        /// Version found in the blob.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The blob ended before its structure was complete.
    Truncated,
    /// The blob's integrity checksum does not match its payload: the
    /// bytes were damaged (torn write, bit rot) after encoding.
    ChecksumMismatch {
        /// Checksum stored in the blob header.
        stored: u64,
        /// Checksum computed over the payload as read.
        computed: u64,
    },
    /// The blob is structurally invalid (bad tag, out-of-range id,
    /// trailing bytes, …).
    Corrupt(String),
    /// The blob was taken from a different synthesis problem: its
    /// specification fingerprint does not match the problem it is being
    /// resumed against.
    SpecHashMismatch {
        /// Fingerprint stored in the blob.
        found: u64,
        /// Fingerprint of the problem being resumed.
        expected: u64,
    },
    /// The blob's closure shape (formula count or label word width)
    /// does not match the problem being resumed — the labels could not
    /// even be interpreted.
    ClosureShapeMismatch {
        /// `(closure_len, label_words)` stored in the blob.
        found: (usize, usize),
        /// `(closure_len, label_words)` of the problem being resumed.
        expected: (usize, usize),
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint blob (bad magic)"),
            CheckpointError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads {expected})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint blob is truncated"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint blob is damaged: payload checksum {computed:#018x} \
                 does not match the stored {stored:#018x}"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint blob: {msg}"),
            CheckpointError::SpecHashMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a different problem: spec fingerprint \
                 {found:#018x} does not match {expected:#018x}"
            ),
            CheckpointError::ClosureShapeMismatch { found, expected } => write!(
                f,
                "checkpoint closure shape {found:?} does not match the problem's {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// An injected-but-uncommitted scheduler batch: its dense sequence id,
/// BFS level, and the ids of the nodes it expands. Kind and label are
/// *not* stored — they are re-snapshotted from the restored tableau on
/// resume, exactly as the original injection snapshotted them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingBatch {
    /// Dense batch sequence id (commit order).
    pub seq: usize,
    /// BFS level of the batch's nodes (bookkeeping for profile levels).
    pub level: usize,
    /// The nodes the batch expands, in discovery order.
    pub nodes: Vec<NodeId>,
}

/// A resumable snapshot of a governed tableau build at its abort point.
/// Produced by the build engine on a Build-phase abort (carried by
/// `BuildAbort::checkpoint` and `AbortedSynthesis::checkpoint`);
/// consumed by a resumed build ([`BuildStart::Resume`](crate::BuildStart::Resume)).
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Specification fingerprint of the problem the build belongs to
    /// (see [`spec_fingerprint`]).
    pub(crate) spec_hash: u64,
    /// Closure size the labels are defined over.
    pub(crate) closure_len: usize,
    /// `u64` words per label bitset.
    pub(crate) label_words: usize,
    /// The partial tableau: every committed node with its edges.
    pub(crate) tableau: Tableau,
    /// Injected-but-uncommitted batches, in sequence order.
    pub(crate) pending: Vec<PendingBatch>,
    /// Fresh nodes of the last committed batch, never injected (the
    /// governor poll sits between commit and injection).
    pub(crate) fresh: Vec<NodeId>,
    /// BFS level the fresh nodes belong to.
    pub(crate) fresh_level: usize,
    /// Batches injected so far (the next batch takes this sequence id).
    pub(crate) injected: usize,
    /// Batches committed so far (the next commit waits for this
    /// sequence id).
    pub(crate) committed: usize,
    /// Nodes expanded per BFS level so far (profile bookkeeping).
    pub(crate) level_widths: Vec<usize>,
    /// Nodes expanded so far (profile counter, cumulative on resume).
    pub(crate) nodes_expanded: usize,
    /// Intern probes so far (profile counter, cumulative on resume).
    pub(crate) intern_probes: usize,
}

impl Checkpoint {
    /// The specification fingerprint this checkpoint was taken under.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// Tableau nodes captured in the checkpoint.
    pub fn tableau_nodes(&self) -> usize {
        self.tableau.len()
    }

    /// Uncommitted scheduler batches captured in the checkpoint
    /// (pending injected batches plus the not-yet-batched fresh nodes).
    pub fn pending_batches(&self) -> usize {
        self.pending.len() + self.fresh.len().div_ceil(crate::build::BATCH_SIZE)
    }

    /// Rejects resuming this checkpoint against a problem whose
    /// specification fingerprint or closure shape differs — the
    /// "no silent resume of a stale blob" contract.
    pub fn validate(
        &self,
        expected_spec_hash: u64,
        expected_closure_len: usize,
        expected_label_words: usize,
    ) -> Result<(), CheckpointError> {
        if self.spec_hash != expected_spec_hash {
            return Err(CheckpointError::SpecHashMismatch {
                found: self.spec_hash,
                expected: expected_spec_hash,
            });
        }
        if self.closure_len != expected_closure_len || self.label_words != expected_label_words {
            return Err(CheckpointError::ClosureShapeMismatch {
                found: (self.closure_len, self.label_words),
                expected: (expected_closure_len, expected_label_words),
            });
        }
        Ok(())
    }

    /// Serializes the checkpoint into a self-describing binary blob
    /// (magic, format version, payload checksum, fingerprint, then the
    /// scheduler state).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.tableau.len() * (8 * self.label_words + 16));
        put_u64(&mut out, self.spec_hash);
        put_u64(&mut out, self.closure_len as u64);
        put_u64(&mut out, self.label_words as u64);
        put_u64(&mut out, self.tableau.len() as u64);
        for node in self.tableau.nodes() {
            let mut flags = 0u8;
            if node.kind == NodeKind::And {
                flags |= 1;
            }
            if node.dummy {
                flags |= 2;
            }
            out.push(flags);
            debug_assert_eq!(node.label.words().len(), self.label_words);
            for &w in node.label.words() {
                put_u64(&mut out, w);
            }
            put_edges(&mut out, &node.succ);
            put_edges(&mut out, &node.pred);
        }
        put_u64(&mut out, self.pending.len() as u64);
        for batch in &self.pending {
            put_u64(&mut out, batch.seq as u64);
            put_u64(&mut out, batch.level as u64);
            put_ids(&mut out, &batch.nodes);
        }
        put_ids(&mut out, &self.fresh);
        put_u64(&mut out, self.fresh_level as u64);
        put_u64(&mut out, self.injected as u64);
        put_u64(&mut out, self.committed as u64);
        put_u64(&mut out, self.level_widths.len() as u64);
        for &w in &self.level_widths {
            put_u64(&mut out, w as u64);
        }
        put_u64(&mut out, self.nodes_expanded as u64);
        put_u64(&mut out, self.intern_probes as u64);
        // Prepend the header last: the checksum covers every payload
        // byte, so any later flip — even in a counter a structural
        // parse would accept — is detected.
        let mut blob = Vec::with_capacity(out.len() + MAGIC.len() + 12);
        blob.extend_from_slice(MAGIC);
        put_u32(&mut blob, CHECKPOINT_FORMAT_VERSION);
        put_u64(&mut blob, blob_checksum(&out));
        blob.extend_from_slice(&out);
        blob
    }

    /// Deserializes a blob produced by [`Checkpoint::encode`],
    /// rebuilding the tableau (intern tables and alive-successor counters
    /// re-derived bit-identically).
    ///
    /// Accepts every version from [`CHECKPOINT_MIN_FORMAT_VERSION`] up
    /// to [`CHECKPOINT_FORMAT_VERSION`]: v1 blobs (written before the
    /// payload checksum existed) share the payload layout and decode
    /// without the integrity check, so `.ckpt` files from earlier
    /// builds stay resumable.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`] /
    /// [`CheckpointError::UnsupportedVersion`] /
    /// [`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`]
    /// for blobs this build cannot interpret. Fingerprint matching is a
    /// separate step — call [`Checkpoint::validate`] against the
    /// problem before resuming.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if !(CHECKPOINT_MIN_FORMAT_VERSION..=CHECKPOINT_FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                expected: CHECKPOINT_FORMAT_VERSION,
            });
        }
        if version >= 2 {
            let stored = r.u64()?;
            let computed = blob_checksum(&bytes[r.pos..]);
            if stored != computed {
                return Err(CheckpointError::ChecksumMismatch { stored, computed });
            }
        }
        let spec_hash = r.u64()?;
        let closure_len = r.usize()?;
        let label_words = r.usize()?;
        if closure_len.div_ceil(64) > label_words {
            return Err(CheckpointError::Corrupt(format!(
                "label width of {label_words} word(s) cannot hold {closure_len} closure members"
            )));
        }
        let node_count = r.usize()?;
        let mut parts = Vec::with_capacity(node_count.min(1 << 20));
        for _ in 0..node_count {
            let flags = r.u8()?;
            if flags & !3 != 0 {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown node flags {flags:#x}"
                )));
            }
            let kind = if flags & 1 != 0 {
                NodeKind::And
            } else {
                NodeKind::Or
            };
            let dummy = flags & 2 != 0;
            let mut words = Vec::with_capacity(label_words.min(1 << 20));
            for _ in 0..label_words {
                words.push(r.u64()?);
            }
            let label = LabelSet::from_words(words);
            let succ = r.edges(node_count)?;
            let pred = r.edges(node_count)?;
            parts.push((kind, label, dummy, succ, pred));
        }
        if parts.is_empty() {
            return Err(CheckpointError::Corrupt("checkpoint has no nodes".into()));
        }
        let pending_count = r.usize()?;
        let mut pending = Vec::with_capacity(pending_count.min(1 << 20));
        for _ in 0..pending_count {
            let seq = r.usize()?;
            let level = r.usize()?;
            let nodes = r.ids(parts.len())?;
            pending.push(PendingBatch { seq, level, nodes });
        }
        let fresh = r.ids(parts.len())?;
        let fresh_level = r.usize()?;
        let injected = r.usize()?;
        let committed = r.usize()?;
        let widths = r.usize()?;
        let mut level_widths = Vec::with_capacity(widths.min(1 << 20));
        for _ in 0..widths {
            level_widths.push(r.usize()?);
        }
        let nodes_expanded = r.usize()?;
        let intern_probes = r.usize()?;
        if r.pos != r.bytes.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing byte(s) after the checkpoint payload",
                r.bytes.len() - r.pos
            )));
        }
        if committed > injected {
            return Err(CheckpointError::Corrupt(format!(
                "committed batch count {committed} exceeds injected count {injected}"
            )));
        }
        Ok(Checkpoint {
            spec_hash,
            closure_len,
            label_words,
            tableau: Tableau::from_build_nodes(parts),
            pending,
            fresh,
            fresh_level,
            injected,
            committed,
            level_widths,
            nodes_expanded,
            intern_probes,
        })
    }
}

/// A deterministic fingerprint of the tableau-relevant inputs of a
/// synthesis problem: closure size and label width, proposition count,
/// the root label, and every fault action with its per-action tolerance
/// label. Two problems with the same fingerprint drive the (pure,
/// deterministic) build engine identically, so a checkpoint may resume
/// under any governor exactly when the fingerprints match.
pub fn spec_fingerprint(
    closure: &Closure,
    props: &PropTable,
    root_label: &LabelSet,
    faults: &FaultSpec,
) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0x66_74_73_79_6e_63_6b_70u64; // "ftsynckp"
    let mut fold = |w: u64| {
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    };
    fold(closure.len() as u64);
    fold(root_label.words().len() as u64);
    fold(props.len() as u64);
    fold(root_label.stable_hash());
    fold(faults.actions.len() as u64);
    for (action, tol) in faults.actions.iter().zip(&faults.tolerance_labels) {
        // The Debug rendering pins name, guard, assignments, and shared
        // corruption deterministically (no addresses, no map ordering).
        for b in format!("{action:?}").bytes() {
            fold(b as u64);
        }
        fold(tol.stable_hash());
    }
    h
}

/// Integrity checksum over a byte payload: the same rotate-xor-multiply
/// fold as [`spec_fingerprint`], applied to the bytes in 8-byte
/// little-endian chunks (the tail zero-padded) and salted with the
/// length. Each fold step is a bijection of the running state, so for
/// equal-length payloads any change to a single chunk — in particular
/// any single-bit flip — is guaranteed to change the result. Shared
/// with the service's on-disk store records.
pub fn blob_checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0x66_74_73_79_6e_63_6b_73u64; // "ftsyncks"
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K);
    }
    h ^ bytes.len() as u64
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_edges(out: &mut Vec<u8>, edges: &[(EdgeKind, NodeId)]) {
    put_u32(out, edges.len() as u32);
    for &(kind, to) in edges {
        let (tag, payload) = match kind {
            EdgeKind::Proc(i) => (0u8, i as u32),
            EdgeKind::Fault(i) => (1, i as u32),
            EdgeKind::Dummy => (2, 0),
            EdgeKind::Unlabeled => (3, 0),
        };
        out.push(tag);
        put_u32(out, payload);
        put_u32(out, to.0);
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[NodeId]) {
    put_u32(out, ids.len() as u32);
    for id in ids {
        put_u32(out, id.0);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Corrupt(format!("count {v} exceeds usize")))
    }

    fn node_id(&mut self, nodes: usize) -> Result<NodeId, CheckpointError> {
        let raw = self.u32()?;
        if raw as usize >= nodes {
            return Err(CheckpointError::Corrupt(format!(
                "node id {raw} out of range (checkpoint has {nodes} nodes)"
            )));
        }
        Ok(NodeId(raw))
    }

    fn edges(&mut self, nodes: usize) -> Result<Vec<(EdgeKind, NodeId)>, CheckpointError> {
        let len = self.u32()? as usize;
        let mut edges = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            let tag = self.u8()?;
            let payload = self.u32()? as usize;
            let kind = match tag {
                0 => EdgeKind::Proc(payload),
                1 => EdgeKind::Fault(payload),
                2 => EdgeKind::Dummy,
                3 => EdgeKind::Unlabeled,
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown edge tag {other}"
                    )))
                }
            };
            edges.push((kind, self.node_id(nodes)?));
        }
        Ok(edges)
    }

    fn ids(&mut self, nodes: usize) -> Result<Vec<NodeId>, CheckpointError> {
        let len = self.u32()? as usize;
        let mut ids = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            ids.push(self.node_id(nodes)?);
        }
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(words: &[u64]) -> LabelSet {
        LabelSet::from_words(words.to_vec())
    }

    /// A small hand-built checkpoint with every structural feature: an
    /// AND node, a dummy OR node, all four edge kinds, pending batches,
    /// fresh nodes, and nonzero counters.
    fn sample() -> Checkpoint {
        let parts = vec![
            (
                NodeKind::Or,
                label(&[0b101]),
                false,
                vec![(EdgeKind::Unlabeled, NodeId(1))],
                Vec::new(),
            ),
            (
                NodeKind::And,
                label(&[0b011]),
                false,
                vec![
                    (EdgeKind::Proc(2), NodeId(0)),
                    (EdgeKind::Fault(1), NodeId(2)),
                    (EdgeKind::Dummy, NodeId(3)),
                ],
                vec![(EdgeKind::Unlabeled, NodeId(0))],
            ),
            (
                NodeKind::Or,
                label(&[0b110]),
                false,
                Vec::new(),
                vec![(EdgeKind::Fault(1), NodeId(1))],
            ),
            (
                NodeKind::Or,
                label(&[0b011]),
                true,
                vec![(EdgeKind::Unlabeled, NodeId(1))],
                vec![(EdgeKind::Dummy, NodeId(1))],
            ),
        ];
        Checkpoint {
            spec_hash: 0xdead_beef_cafe_f00d,
            closure_len: 3,
            label_words: 1,
            tableau: Tableau::from_build_nodes(parts),
            pending: vec![PendingBatch {
                seq: 2,
                level: 1,
                nodes: vec![NodeId(2)],
            }],
            fresh: vec![NodeId(3)],
            fresh_level: 2,
            injected: 3,
            committed: 2,
            level_widths: vec![1, 2],
            nodes_expanded: 3,
            intern_probes: 4,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ck = sample();
        let blob = ck.encode();
        let back = Checkpoint::decode(&blob).expect("decodes");
        assert_eq!(back.spec_hash, ck.spec_hash);
        assert_eq!(back.closure_len, ck.closure_len);
        assert_eq!(back.label_words, ck.label_words);
        assert_eq!(back.pending, ck.pending);
        assert_eq!(back.fresh, ck.fresh);
        assert_eq!(back.fresh_level, ck.fresh_level);
        assert_eq!(back.injected, ck.injected);
        assert_eq!(back.committed, ck.committed);
        assert_eq!(back.level_widths, ck.level_widths);
        assert_eq!(back.nodes_expanded, ck.nodes_expanded);
        assert_eq!(back.intern_probes, ck.intern_probes);
        assert_eq!(back.tableau.len(), ck.tableau.len());
        for id in ck.tableau.node_ids() {
            let (a, b) = (ck.tableau.node(id), back.tableau.node(id));
            assert_eq!(a.kind, b.kind, "{id:?}");
            assert_eq!(a.label, b.label, "{id:?}");
            assert_eq!(a.dummy, b.dummy, "{id:?}");
            assert_eq!(a.succ, b.succ, "{id:?}");
            assert_eq!(a.pred, b.pred, "{id:?}");
            assert_eq!(a.alive_succ_prog, b.alive_succ_prog, "{id:?}");
            assert_eq!(a.alive_succ_fault, b.alive_succ_fault, "{id:?}");
        }
        // Re-encoding the decoded checkpoint is byte-identical.
        assert_eq!(back.encode(), blob);
    }

    #[test]
    fn rebuilt_interners_dedup_exactly_like_the_original() {
        let ck = sample();
        let mut t = Checkpoint::decode(&ck.encode()).unwrap().tableau;
        // Interning an existing non-dummy label finds the original id…
        assert_eq!(t.intern_and(label(&[0b011])), (NodeId(1), false));
        assert_eq!(t.intern_or(label(&[0b101])), (NodeId(0), false));
        assert_eq!(t.intern_or(label(&[0b110])), (NodeId(2), false));
        // …the dummy node's label is NOT deduplicated against it…
        assert_eq!(t.intern_or(label(&[0b011])), (NodeId(4), true));
        // …and a known edge is not re-added (`add_edge` checks `succ`).
        t.add_edge(NodeId(1), EdgeKind::Proc(2), NodeId(0));
        assert_eq!(t.node(NodeId(1)).succ.len(), 3);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut blob = sample().encode();
        blob[0] = b'X';
        match Checkpoint::decode(&blob) {
            Err(CheckpointError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut blob = sample().encode();
        blob[8] = 0xFF; // little-endian low byte of the version field
        match Checkpoint::decode(&blob) {
            Err(CheckpointError::UnsupportedVersion { found, expected }) => {
                assert_eq!(found, 0xFF);
                assert_eq!(expected, CHECKPOINT_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_zero_is_rejected() {
        let mut blob = sample().encode();
        blob[8] = 0;
        match Checkpoint::decode(&blob) {
            Err(CheckpointError::UnsupportedVersion { found, .. }) => assert_eq!(found, 0),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn v1_blobs_without_a_checksum_still_decode() {
        let ck = sample();
        let v2 = ck.encode();
        // A v1 blob is the v2 blob minus the 8-byte checksum field,
        // with the version field rewritten: magic(8) + version(4) +
        // payload — exactly what pre-v2 builds wrote to .ckpt files.
        let mut v1 = Vec::with_capacity(v2.len() - 8);
        v1.extend_from_slice(&v2[..8]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[20..]);
        let back = Checkpoint::decode(&v1).expect("v1 blob must stay resumable");
        assert_eq!(back.spec_hash, ck.spec_hash);
        assert_eq!(back.pending, ck.pending);
        assert_eq!(back.fresh, ck.fresh);
        assert_eq!(back.tableau.len(), ck.tableau.len());
        // Re-encoding upgrades it to the current checksummed format.
        assert_eq!(back.encode(), v2);
    }

    #[test]
    fn truncation_is_rejected_at_every_prefix() {
        let blob = sample().encode();
        for cut in 0..blob.len() {
            match Checkpoint::decode(&blob[..cut]) {
                Err(CheckpointError::Truncated)
                | Err(CheckpointError::BadMagic)
                | Err(CheckpointError::ChecksumMismatch { .. })
                | Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("prefix of {cut} bytes must fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut blob = sample().encode();
        blob.push(0);
        match Checkpoint::decode(&blob) {
            // The trailing byte extends the checksummed payload, so the
            // integrity check fires before the structural parse.
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    /// Every single-bit flip, at every bit position of the blob, must
    /// yield a structured error — never a panic, never a silent accept.
    /// Flips in the magic report `BadMagic`, in the version field
    /// `UnsupportedVersion`, everywhere else `ChecksumMismatch` (the
    /// fold checksum provably detects any single-chunk change).
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let blob = sample().encode();
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut damaged = blob.clone();
                damaged[byte] ^= 1 << bit;
                match Checkpoint::decode(&damaged) {
                    Err(CheckpointError::BadMagic) => {
                        assert!(byte < MAGIC.len(), "BadMagic from flip at {byte}:{bit}")
                    }
                    Err(CheckpointError::UnsupportedVersion { .. }) => assert!(
                        (MAGIC.len()..MAGIC.len() + 4).contains(&byte),
                        "UnsupportedVersion from flip at {byte}:{bit}"
                    ),
                    Err(CheckpointError::ChecksumMismatch { .. }) => {}
                    other => panic!("flip at {byte}:{bit} must be detected, got {other:?}"),
                }
            }
        }
    }

    /// Seeded multi-bit corruption: random bursts of flips anywhere in
    /// the blob must decode to a structured error or — only when every
    /// flip cancelled out — the identical checkpoint.
    #[test]
    fn seeded_random_corruption_never_panics_or_silently_differs() {
        let blob = sample().encode();
        let mut state = 0x9e37_79b9_7f4a_7c15u64; // fixed seed
        let mut next = move || {
            // xorshift64* — deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..2000 {
            let mut damaged = blob.clone();
            let flips = 1 + (next() as usize % 8);
            for _ in 0..flips {
                let r = next();
                let byte = r as usize % damaged.len();
                damaged[byte] ^= 1u8 << ((r >> 32) % 8);
            }
            match Checkpoint::decode(&damaged) {
                Err(_) => {}
                Ok(back) => assert_eq!(back.encode(), blob, "corruption accepted silently"),
            }
        }
    }

    #[test]
    fn out_of_range_node_id_is_rejected() {
        let mut ck = sample();
        ck.fresh = vec![NodeId(99)];
        match Checkpoint::decode(&ck.encode()) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains("out of range"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_spec_hash_and_shape_mismatches() {
        let ck = sample();
        assert_eq!(ck.validate(ck.spec_hash, 3, 1), Ok(()));
        assert_eq!(
            ck.validate(1, 3, 1),
            Err(CheckpointError::SpecHashMismatch {
                found: ck.spec_hash,
                expected: 1
            })
        );
        assert_eq!(
            ck.validate(ck.spec_hash, 5, 2),
            Err(CheckpointError::ClosureShapeMismatch {
                found: (3, 1),
                expected: (5, 2)
            })
        );
    }

    #[test]
    fn errors_render() {
        assert_eq!(
            CheckpointError::BadMagic.to_string(),
            "not a checkpoint blob (bad magic)"
        );
        assert!(CheckpointError::UnsupportedVersion {
            found: 9,
            expected: 1
        }
        .to_string()
        .contains("version 9"));
        assert!(CheckpointError::SpecHashMismatch {
            found: 1,
            expected: 2
        }
        .to_string()
        .contains("different problem"));
    }
}
