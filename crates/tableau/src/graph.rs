//! AND/OR graph storage for the tableau (Definition 4.2 of the paper).
//!
//! Nodes live in an index-based arena; labels are [`LabelSet`] bitsets
//! over the closure. AND-nodes and OR-nodes are deduplicated by label
//! ("if some successor has the same label as an already present node of
//! the same type, identify them").

use ftsyn_ctl::LabelSet;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of a tableau node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// AND-node or OR-node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// AND-node: corresponds to a state in the final model.
    And,
    /// OR-node: a disjunctive choice point.
    Or,
}

/// Label of a tableau edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// AND→OR edge associated with a process (`A_CD ⊆ V_C × [1:I] × V_D`).
    Proc(usize),
    /// AND→OR fault edge for the fault action with this index.
    Fault(usize),
    /// AND→OR edge to the node's *dummy* successor (the `Tiles` special
    /// case for nodes with no nexttime formulae).
    Dummy,
    /// OR→AND edge (unlabeled in the paper).
    Unlabeled,
}

impl EdgeKind {
    /// Whether this is a fault edge.
    pub fn is_fault(self) -> bool {
        matches!(self, EdgeKind::Fault(_))
    }
}

/// A tableau node.
#[derive(Clone, Debug)]
pub struct Node {
    /// AND or OR.
    pub kind: NodeKind,
    /// The set of closure formulae labeling the node.
    pub label: LabelSet,
    /// Outgoing edges.
    pub succ: Vec<(EdgeKind, NodeId)>,
    /// Incoming edges (kind of the original edge, source node).
    pub pred: Vec<(EdgeKind, NodeId)>,
    /// Whether a deletion rule removed this node.
    pub deleted: bool,
    /// Whether this OR-node is a dummy successor (its `Blocks` is pinned
    /// to its unique parent rather than computed from the label).
    pub dummy: bool,
    /// Number of alive successors reached by non-fault edges. Maintained
    /// incrementally by [`Tableau::add_edge`] / [`Tableau::delete`] so the
    /// DeleteOR trigger ("no alive successor left") is O(1) per deletion
    /// instead of a sweep.
    pub alive_succ_prog: u32,
    /// Number of alive successors reached by fault edges.
    pub alive_succ_fault: u32,
}

impl Node {
    /// Total number of alive successors (program and fault edges).
    #[inline]
    pub fn alive_succ_total(&self) -> u32 {
        self.alive_succ_prog + self.alive_succ_fault
    }
}

/// Number of shards in a [`LabelInterner`]; must be a power of two.
const INTERN_SHARDS: usize = 16;

/// A label → node intern table addressed by *precomputed*
/// [`LabelSet::stable_hash`] values, sharded by the low hash bits.
///
/// Build workers hash every produced label on the (parallel) expansion
/// side; the sequential apply phase then probes with the ready-made
/// hash instead of re-reading each label, and the per-shard maps stay
/// small. Shard choice depends only on the hash, so the table contents
/// are identical for every thread count.
#[derive(Clone, Debug)]
struct LabelInterner {
    /// `hash → candidate nodes` (collision chains are label-checked).
    shards: Vec<HashMap<u64, Vec<NodeId>>>,
}

impl LabelInterner {
    fn new() -> LabelInterner {
        LabelInterner {
            shards: vec![HashMap::new(); INTERN_SHARDS],
        }
    }

    fn get(&self, nodes: &[Node], label: &LabelSet, hash: u64) -> Option<NodeId> {
        self.shards[hash as usize & (INTERN_SHARDS - 1)]
            .get(&hash)?
            .iter()
            .copied()
            .find(|id| nodes[id.index()].label == *label)
    }

    fn insert(&mut self, hash: u64, id: NodeId) {
        self.shards[hash as usize & (INTERN_SHARDS - 1)]
            .entry(hash)
            .or_default()
            .push(id);
    }
}

/// One node's serialized parts for [`Tableau::from_build_nodes`]:
/// `(kind, label, dummy, successors, predecessors)`.
pub type BuildNodeParts = (
    NodeKind,
    LabelSet,
    bool,
    Vec<(EdgeKind, NodeId)>,
    Vec<(EdgeKind, NodeId)>,
);

/// The tableau: an AND/OR graph with a root OR-node.
#[derive(Clone, Debug)]
pub struct Tableau {
    nodes: Vec<Node>,
    root: NodeId,
    and_index: LabelInterner,
    or_index: LabelInterner,
    /// Edge dedup set: `(from, kind, to)` of every edge ever added, so
    /// [`Tableau::add_edge`] is O(1) instead of scanning `succ`.
    edge_set: HashSet<(NodeId, EdgeKind, NodeId)>,
    /// Every deletion in order. The worklist deletion engine consumes
    /// this with per-client cursors: a client that processed the first
    /// `k` entries catches up by looking only at `deletion_log[k..]`.
    deletion_log: Vec<NodeId>,
}

impl Tableau {
    /// Creates a tableau containing only the root OR-node with `label`.
    pub fn with_root(label: LabelSet) -> Tableau {
        let root = NodeId(0);
        let mut or_index = LabelInterner::new();
        or_index.insert(label.stable_hash(), root);
        Tableau {
            nodes: vec![Node {
                kind: NodeKind::Or,
                label,
                succ: Vec::new(),
                pred: Vec::new(),
                deleted: false,
                dummy: false,
                alive_succ_prog: 0,
                alive_succ_fault: 0,
            }],
            root,
            and_index: LabelInterner::new(),
            or_index,
            edge_set: HashSet::new(),
            deletion_log: Vec::new(),
        }
    }

    /// The root OR-node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes ever created (including deleted ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tableau has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Finds (or creates) an AND-node with the given label. Returns the
    /// id and whether it was newly created.
    pub fn intern_and(&mut self, label: LabelSet) -> (NodeId, bool) {
        let hash = label.stable_hash();
        self.intern_and_hashed(label, hash)
    }

    /// [`Tableau::intern_and`] with the label's
    /// [`stable_hash`](LabelSet::stable_hash) already computed (the
    /// parallel build hashes labels on worker threads).
    pub fn intern_and_hashed(&mut self, label: LabelSet, hash: u64) -> (NodeId, bool) {
        if let Some(id) = self.and_index.get(&self.nodes, &label, hash) {
            return (id, false);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.and_index.insert(hash, id);
        self.nodes.push(Node {
            kind: NodeKind::And,
            label,
            succ: Vec::new(),
            pred: Vec::new(),
            deleted: false,
            dummy: false,
            alive_succ_prog: 0,
            alive_succ_fault: 0,
        });
        (id, true)
    }

    /// Finds (or creates) a non-dummy OR-node with the given label.
    pub fn intern_or(&mut self, label: LabelSet) -> (NodeId, bool) {
        let hash = label.stable_hash();
        self.intern_or_hashed(label, hash)
    }

    /// [`Tableau::intern_or`] with the label hash precomputed.
    pub fn intern_or_hashed(&mut self, label: LabelSet, hash: u64) -> (NodeId, bool) {
        if let Some(id) = self.or_index.get(&self.nodes, &label, hash) {
            return (id, false);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.or_index.insert(hash, id);
        self.nodes.push(Node {
            kind: NodeKind::Or,
            label,
            succ: Vec::new(),
            pred: Vec::new(),
            deleted: false,
            dummy: false,
            alive_succ_prog: 0,
            alive_succ_fault: 0,
        });
        (id, true)
    }

    /// Creates a fresh dummy OR-node (never deduplicated against regular
    /// OR-nodes: its successor set is pinned, not derived from its label).
    pub fn new_dummy_or(&mut self, label: LabelSet) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Or,
            label,
            succ: Vec::new(),
            pred: Vec::new(),
            deleted: false,
            dummy: true,
            alive_succ_prog: 0,
            alive_succ_fault: 0,
        });
        id
    }

    /// Adds an edge (duplicates ignored).
    ///
    /// The alive-successor counters are only touched while *both*
    /// endpoints are alive: a deleted `from` node's counters are frozen
    /// at their deletion-time values (they are never read again — every
    /// consumer checks aliveness first), and [`Tableau::delete`]
    /// symmetrically skips deleted predecessors, so the counters of
    /// alive nodes always equal their alive-successor count and can
    /// never underflow.
    pub fn add_edge(&mut self, from: NodeId, kind: EdgeKind, to: NodeId) {
        if !self.edge_set.insert((from, kind, to)) {
            return;
        }
        self.nodes[from.index()].succ.push((kind, to));
        if !self.nodes[from.index()].deleted && !self.nodes[to.index()].deleted {
            if kind.is_fault() {
                self.nodes[from.index()].alive_succ_fault += 1;
            } else {
                self.nodes[from.index()].alive_succ_prog += 1;
            }
        }
        self.nodes[to.index()].pred.push((kind, from));
    }

    /// Iterates over all node ids (including deleted nodes).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Whether the node is alive (not deleted).
    pub fn alive(&self, id: NodeId) -> bool {
        !self.nodes[id.index()].deleted
    }

    /// Marks a node deleted. Returns whether it was alive.
    ///
    /// A first deletion is appended to the [deletion log](Self::deletion_log)
    /// and decrements the alive-successor counters of every predecessor,
    /// keeping the DeleteOR trigger O(degree) per deletion.
    pub fn delete(&mut self, id: NodeId) -> bool {
        if self.nodes[id.index()].deleted {
            return false;
        }
        self.nodes[id.index()].deleted = true;
        self.deletion_log.push(id);
        let preds = std::mem::take(&mut self.nodes[id.index()].pred);
        for &(kind, p) in &preds {
            let n = &mut self.nodes[p.index()];
            // A deleted predecessor's counters are frozen (add_edge never
            // incremented them past its deletion), so decrementing here
            // would underflow. Alive nodes' counters stay exact.
            if n.deleted {
                continue;
            }
            if kind.is_fault() {
                n.alive_succ_fault -= 1;
            } else {
                n.alive_succ_prog -= 1;
            }
        }
        self.nodes[id.index()].pred = preds;
        true
    }

    /// The deletions performed so far, in order. Indices into this log
    /// serve as catch-up cursors for incremental passes over the graph.
    pub fn deletion_log(&self) -> &[NodeId] {
        &self.deletion_log
    }

    /// Count of alive nodes of each kind `(and, or)`.
    pub fn alive_counts(&self) -> (usize, usize) {
        let mut and = 0;
        let mut or = 0;
        for n in &self.nodes {
            if !n.deleted {
                match n.kind {
                    NodeKind::And => and += 1,
                    NodeKind::Or => or += 1,
                }
            }
        }
        (and, or)
    }

    /// Alive successors of `id`, filtered by a predicate on edge kind.
    pub fn alive_succ<'a>(
        &'a self,
        id: NodeId,
        mut filter: impl FnMut(EdgeKind) -> bool + 'a,
    ) -> impl Iterator<Item = (EdgeKind, NodeId)> + 'a {
        self.node(id)
            .succ
            .iter()
            .copied()
            .filter(move |&(k, to)| filter(k) && self.alive(to))
    }

    /// The node arena in id order (including deleted and dummy nodes).
    /// Exposed for checkpoint serialization; pair with
    /// [`Tableau::from_build_nodes`] to round-trip a mid-build tableau.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Reconstructs a mid-build tableau from `(kind, label, dummy, succ,
    /// pred)` node data in id order — the inverse of reading
    /// [`Tableau::nodes`] off a tableau no deletion rule has touched.
    ///
    /// The intern tables are re-derived by replaying the non-dummy nodes
    /// in id order (exactly the order [`Tableau::intern_and`] /
    /// [`Tableau::intern_or`] populated them originally — node ids are
    /// assigned monotonically at intern time), the edge-dedup set from
    /// the successor lists, and the alive-successor counters by counting
    /// successors per edge class. The result is therefore bit-identical
    /// to the tableau the parts were read from: same ids, same intern
    /// chains, same edge and predecessor order.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or contains a deleted node (checkpoints
    /// are taken during construction, before any deletion).
    pub fn from_build_nodes(parts: Vec<BuildNodeParts>) -> Tableau {
        assert!(!parts.is_empty(), "a tableau has at least its root node");
        let mut and_index = LabelInterner::new();
        let mut or_index = LabelInterner::new();
        let mut edge_set = HashSet::new();
        let mut nodes = Vec::with_capacity(parts.len());
        for (i, (kind, label, dummy, succ, pred)) in parts.into_iter().enumerate() {
            let id = NodeId(i as u32);
            if !dummy {
                match kind {
                    NodeKind::And => and_index.insert(label.stable_hash(), id),
                    NodeKind::Or => or_index.insert(label.stable_hash(), id),
                }
            }
            let mut alive_succ_prog = 0;
            let mut alive_succ_fault = 0;
            for &(k, to) in &succ {
                edge_set.insert((id, k, to));
                if k.is_fault() {
                    alive_succ_fault += 1;
                } else {
                    alive_succ_prog += 1;
                }
            }
            nodes.push(Node {
                kind,
                label,
                succ,
                pred,
                deleted: false,
                dummy,
                alive_succ_prog,
                alive_succ_fault,
            });
        }
        Tableau {
            nodes,
            root: NodeId(0),
            and_index,
            or_index,
            edge_set,
            deletion_log: Vec::new(),
        }
    }

    /// Marks every node not reachable from the (alive) root as deleted;
    /// returns the number of nodes removed this way. Reachability follows
    /// all edge kinds.
    pub fn restrict_to_reachable(&mut self) -> usize {
        if !self.alive(self.root) {
            let mut removed = 0;
            for id in self.node_ids().collect::<Vec<_>>() {
                if self.delete(id) {
                    removed += 1;
                }
            }
            return removed;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        seen[self.root.index()] = true;
        while let Some(id) = stack.pop() {
            for &(_, to) in &self.nodes[id.index()].succ {
                if !seen[to.index()] && !self.nodes[to.index()].deleted {
                    seen[to.index()] = true;
                    stack.push(to);
                }
            }
        }
        let mut removed = 0;
        for id in self.node_ids().collect::<Vec<_>>() {
            if !seen[id.index()] && self.delete(id) {
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{Closure, FormulaArena, PropTable};

    fn label_with(bits: &[u32]) -> (Closure, LabelSet) {
        let mut arena = FormulaArena::new(2);
        let props = PropTable::new();
        let cl = Closure::build(&mut arena, &props, &[]);
        let mut l = cl.empty_label();
        for &b in bits {
            l.insert(b);
        }
        (cl, l)
    }

    #[test]
    fn interning_dedups_per_kind() {
        let (_, l) = label_with(&[0]);
        let mut t = Tableau::with_root(l.clone());
        let (a1, fresh1) = t.intern_and(l.clone());
        let (a2, fresh2) = t.intern_and(l.clone());
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(a1, a2);
        // Same label as the root OR-node dedups to the root.
        let (o, fresh) = t.intern_or(l);
        assert!(!fresh);
        assert_eq!(o, t.root());
    }

    #[test]
    fn dummy_or_not_deduplicated() {
        let (_, l) = label_with(&[1]);
        let mut t = Tableau::with_root(l.clone());
        let d1 = t.new_dummy_or(l.clone());
        let d2 = t.new_dummy_or(l.clone());
        assert_ne!(d1, d2);
        assert!(t.node(d1).dummy);
    }

    #[test]
    fn reachability_restriction() {
        let (_, l) = label_with(&[0]);
        let (_, l2) = label_with(&[1]);
        let (_, l3) = label_with(&[2]);
        let mut t = Tableau::with_root(l);
        let (a, _) = t.intern_and(l2);
        let (orphan, _) = t.intern_and(l3);
        t.add_edge(t.root(), EdgeKind::Unlabeled, a);
        let removed = t.restrict_to_reachable();
        assert_eq!(removed, 1);
        assert!(!t.alive(orphan));
        assert!(t.alive(a));
    }

    #[test]
    fn deleting_root_kills_everything() {
        let (_, l) = label_with(&[0]);
        let (_, l2) = label_with(&[1]);
        let mut t = Tableau::with_root(l);
        let (a, _) = t.intern_and(l2);
        t.add_edge(t.root(), EdgeKind::Unlabeled, a);
        let root = t.root();
        t.delete(root);
        let removed = t.restrict_to_reachable();
        assert_eq!(removed, 1);
        assert_eq!(t.alive_counts(), (0, 0));
    }

    #[test]
    fn alive_succ_filters() {
        let (_, l) = label_with(&[0]);
        let (_, l2) = label_with(&[1]);
        let (_, l3) = label_with(&[2]);
        let mut t = Tableau::with_root(l);
        let (a, _) = t.intern_and(l2);
        let (b, _) = t.intern_or(l3);
        t.add_edge(a, EdgeKind::Proc(0), b);
        t.add_edge(a, EdgeKind::Fault(1), t.root());
        let non_fault: Vec<_> = t.alive_succ(a, |k| !k.is_fault()).collect();
        assert_eq!(non_fault, vec![(EdgeKind::Proc(0), b)]);
        let faults: Vec<_> = t.alive_succ(a, EdgeKind::is_fault).collect();
        assert_eq!(faults.len(), 1);
    }

    /// The alive-successor counters and the deletion log track
    /// add_edge/delete exactly (the worklist deletion engine relies on
    /// both).
    #[test]
    fn alive_succ_counters_and_deletion_log() {
        let (_, l) = label_with(&[0]);
        let (_, l2) = label_with(&[1]);
        let (_, l3) = label_with(&[2]);
        let mut t = Tableau::with_root(l);
        let (a, _) = t.intern_and(l2);
        let (b, _) = t.intern_or(l3);
        t.add_edge(t.root(), EdgeKind::Unlabeled, a);
        t.add_edge(a, EdgeKind::Proc(0), b);
        t.add_edge(a, EdgeKind::Fault(0), b);
        // Duplicate edges are ignored, so counters do not double-count.
        t.add_edge(a, EdgeKind::Proc(0), b);
        assert_eq!(t.node(a).alive_succ_prog, 1);
        assert_eq!(t.node(a).alive_succ_fault, 1);
        assert_eq!(t.node(a).alive_succ_total(), 2);
        assert_eq!(t.node(t.root()).alive_succ_total(), 1);
        assert!(t.deletion_log().is_empty());

        // Deleting `b` decrements both of `a`'s counters and logs it.
        assert!(t.delete(b));
        assert!(!t.delete(b), "double delete is a no-op");
        assert_eq!(t.node(a).alive_succ_total(), 0);
        assert_eq!(t.deletion_log(), &[b]);

        // Edges to already-deleted targets do not count.
        let (c, _) = t.intern_and(label_with(&[3]).1);
        t.add_edge(c, EdgeKind::Proc(1), b);
        assert_eq!(t.node(c).alive_succ_total(), 0);

        assert!(t.delete(a));
        assert_eq!(t.node(t.root()).alive_succ_total(), 0);
        assert_eq!(t.deletion_log(), &[b, a]);
    }

    /// Regression test: an edge added from an already-deleted node must
    /// not bump its alive-successor counters, and deleting the target
    /// afterwards must not underflow them.
    #[test]
    fn add_edge_from_deleted_node_keeps_counters_frozen() {
        let (_, l) = label_with(&[0]);
        let (_, l2) = label_with(&[1]);
        let (_, l3) = label_with(&[2]);
        let mut t = Tableau::with_root(l);
        let (a, _) = t.intern_and(l2);
        let (b, _) = t.intern_or(l3);
        t.delete(a);

        t.add_edge(a, EdgeKind::Proc(0), b);
        t.add_edge(a, EdgeKind::Fault(0), b);
        assert_eq!(
            t.node(a).alive_succ_total(),
            0,
            "deleted `from` node's counters stay frozen"
        );
        // The edges themselves still exist (structure is preserved).
        assert_eq!(t.node(a).succ.len(), 2);
        assert_eq!(t.node(b).pred.len(), 2);

        // Deleting `b` now must not underflow `a`'s frozen counters.
        assert!(t.delete(b));
        assert_eq!(t.node(a).alive_succ_prog, 0);
        assert_eq!(t.node(a).alive_succ_fault, 0);
    }

    /// Counters survive a deletion-time decrement when the predecessor
    /// was itself deleted first (frozen counters are skipped).
    #[test]
    fn delete_skips_deleted_predecessors() {
        let (_, l) = label_with(&[0]);
        let (_, l2) = label_with(&[1]);
        let (_, l3) = label_with(&[2]);
        let mut t = Tableau::with_root(l);
        let (a, _) = t.intern_and(l2);
        let (b, _) = t.intern_or(l3);
        t.add_edge(a, EdgeKind::Proc(0), b);
        assert_eq!(t.node(a).alive_succ_prog, 1);
        // Delete the predecessor first: its counter freezes at 1.
        t.delete(a);
        // Deleting `b` must skip the frozen predecessor (no underflow,
        // counter untouched).
        t.delete(b);
        assert_eq!(t.node(a).alive_succ_prog, 1);
    }
}
