//! Fragment construction (step 3 of the synthesis method, Section 5.2).
//!
//! For every AND-node `c` of the pruned tableau `T_F`, `FFRAG[c]` is a
//! finite acyclic prestructure of AND-node copies rooted at a copy of
//! `c`, in which every eventuality of `L(c)` is fault-free-fulfilled
//! (Proposition 7.1.7). It is built by chaining the per-eventuality
//! `FDAG`s extracted from the fulfillment rank certificates, and finally
//! attaching one successor per fault-successor OR-node of every interior
//! node (step 3(c)) — these fault successors join the fragment frontier.

use ftsyn_ctl::{Closure, ClosureIdx, EntryKind, LabelSet};
use ftsyn_tableau::{
    au_fulfillment, eu_fulfillment, CertMode, EdgeKind, Fulfillment, NodeId, Tableau,
};
use std::collections::HashMap;

/// Cache of fulfillment certificates, keyed by eventuality closure
/// index. A certificate is a whole-tableau rank computation that
/// depends only on the pruned tableau, the eventuality, and the
/// certificate mode — never on the fragment being built — so one
/// unraveling shares certificates across every embedded fragment
/// instead of recomputing them per fragment per eventuality.
#[derive(Default)]
pub(crate) struct FulfillmentCache {
    by_ev: HashMap<ClosureIdx, Fulfillment>,
}

/// A node of a fragment: a copy of a tableau AND-node.
#[derive(Clone, Debug)]
pub struct FragNode {
    /// The AND-node this is a copy of.
    pub tableau_id: NodeId,
    /// Outgoing edges within the fragment.
    pub succ: Vec<(EdgeKind, usize)>,
    /// Whether this copy is on the fragment frontier (to be identified
    /// with another fragment's root during unraveling).
    pub frontier: bool,
}

/// An acyclic prestructure rooted at a copy of one AND-node.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Index of the root node (always 0 in practice, never a frontier).
    pub root: usize,
    /// The nodes.
    pub nodes: Vec<FragNode>,
}

impl Fragment {
    /// Indices of the frontier nodes.
    pub fn frontier(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.frontier)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The eventualities (`AU`/`EU` closure indices) in a label.
pub fn eventualities_in(closure: &Closure, label: &LabelSet) -> Vec<ClosureIdx> {
    label
        .iter()
        .filter(|&idx| closure.is_eventuality(idx))
        .collect()
}

struct Builder<'a> {
    t: &'a Tableau,
    closure: &'a Closure,
    mode: CertMode,
    nodes: Vec<FragNode>,
}

impl Builder<'_> {
    fn new_node(&mut self, c: NodeId, frontier: bool) -> usize {
        self.nodes.push(FragNode {
            tableau_id: c,
            succ: Vec::new(),
            frontier,
        });
        self.nodes.len() - 1
    }

    fn label(&self, c: NodeId) -> &LabelSet {
        &self.t.node(c).label
    }

    /// Picks the alive AND-child of OR-node `d` with minimum rank under
    /// `rank`, breaking ties toward the smallest label (fewer pending
    /// obligations → more node reuse → smaller models).
    fn pick_child(&self, d: NodeId, rank: &[u32]) -> NodeId {
        self.t
            .alive_succ(d, |_| true)
            .map(|(_, c)| c)
            .min_by_key(|c| (rank[c.index()], self.t.node(*c).label.len()))
            .expect("alive OR-nodes have alive children (DeleteOR)")
    }

    /// Picks the alive AND-child with the smallest label (used where no
    /// eventuality rank applies).
    fn pick_small_child(&self, d: NodeId) -> NodeId {
        self.t
            .alive_succ(d, |_| true)
            .map(|(_, c)| c)
            .min_by_key(|c| self.t.node(*c).label.len())
            .expect("alive OR-nodes have alive children (DeleteOR)")
    }

    /// Expands node `at` (a copy of an AND-node) into an `A[gUh]`-FDAG:
    /// every non-fault OR-successor is included, each realized by its
    /// minimum-rank child; recursion bottoms out at `h`-labeled copies,
    /// which stay on the frontier.
    fn expand_au(
        &mut self,
        at: usize,
        memo: &mut HashMap<NodeId, usize>,
        g: ClosureIdx,
        h: ClosureIdx,
        rank: &[u32],
    ) {
        let c = self.nodes[at].tableau_id;
        if self.label(c).contains(h) {
            return; // fulfilled here: frontier status unchanged
        }
        debug_assert!(
            g == self.closure.true_idx() || self.label(c).contains(g),
            "interior nodes of an AU certificate carry g"
        );
        self.nodes[at].frontier = false;
        let mode = self.mode;
        let succs: Vec<(EdgeKind, NodeId)> =
            self.t.alive_succ(c, move |k| mode.admits(k)).collect();
        for (kind, d) in succs {
            debug_assert!(
                kind != EdgeKind::Dummy,
                "nodes with a pending AU have nexttime obligations, never a dummy"
            );
            let child = self.pick_child(d, rank);
            let ci = if let Some(&i) = memo.get(&child) {
                i
            } else {
                let i = self.new_node(child, true);
                memo.insert(child, i);
                self.expand_au(i, memo, g, h, rank);
                i
            };
            if !self.nodes[at].succ.contains(&(kind, ci)) {
                self.nodes[at].succ.push((kind, ci));
            }
        }
    }

    /// Expands node `at` into an `E[gUh]`-FDAG: the rank-decreasing path
    /// realizes the eventuality; every other OR-successor is realized by
    /// an arbitrary child left on the frontier (interior nodes of a
    /// generated prestructure must carry all their `Tiles` successors).
    fn expand_eu(&mut self, at: usize, g: ClosureIdx, h: ClosureIdx, rank: &[u32]) {
        let c = self.nodes[at].tableau_id;
        if self.label(c).contains(h) {
            return;
        }
        debug_assert!(g == self.closure.true_idx() || self.label(c).contains(g));
        self.nodes[at].frontier = false;
        let mode = self.mode;
        let succs: Vec<(EdgeKind, NodeId)> =
            self.t.alive_succ(c, move |k| mode.admits(k)).collect();
        // Choose the OR-successor whose best child has minimum rank.
        let (best_d, best_child) = succs
            .iter()
            .map(|&(_, d)| (d, self.pick_child(d, rank)))
            .min_by_key(|(_, c2)| rank[c2.index()])
            .expect("EU-pending nodes have non-fault successors");
        for (kind, d) in succs {
            if d == best_d {
                let i = self.new_node(best_child, true);
                self.nodes[at].succ.push((kind, i));
                self.expand_eu(i, g, h, rank);
            } else {
                let child = self.pick_child(d, rank);
                let i = self.new_node(child, true);
                self.nodes[at].succ.push((kind, i));
            }
        }
    }

    /// Gives `at` one successor per non-fault OR-successor of its
    /// tableau node (the no-eventualities base case of step 3).
    fn expand_tiles(&mut self, at: usize) {
        let c = self.nodes[at].tableau_id;
        self.nodes[at].frontier = false;
        let mode = self.mode;
        let succs: Vec<(EdgeKind, NodeId)> = self
            .t
            .alive_succ(c, move |k| mode.admits(k) && !k.is_fault())
            .collect();
        let mut by_child: HashMap<NodeId, usize> = HashMap::new();
        for (kind, d) in succs {
            if kind == EdgeKind::Dummy {
                // A dummy successor realizes no obligation: the state is
                // a dead end of the model (finite fullpath).
                continue;
            }
            let child = self.pick_small_child(d);
            let ci = *by_child.entry(child).or_insert_with(|| self.nodes.len());
            if ci == self.nodes.len() {
                self.new_node(child, true);
            }
            if !self.nodes[at].succ.contains(&(kind, ci)) {
                self.nodes[at].succ.push((kind, ci));
            }
        }
    }
}

/// Merges frontier nodes that are copies of the same tableau node
/// (the paper's "identify any two nodes on the frontier with the same
/// label" — labels are unique per AND-node).
fn merge_frontier(frag: &mut [FragNode]) {
    let mut canon: HashMap<NodeId, usize> = HashMap::new();
    let mut remap: HashMap<usize, usize> = HashMap::new();
    for (i, n) in frag.iter().enumerate() {
        if n.frontier {
            match canon.get(&n.tableau_id) {
                Some(&c) => {
                    remap.insert(i, c);
                }
                None => {
                    canon.insert(n.tableau_id, i);
                }
            }
        }
    }
    if remap.is_empty() {
        return;
    }
    for n in frag.iter_mut() {
        for (_, to) in n.succ.iter_mut() {
            if let Some(&c) = remap.get(to) {
                *to = c;
            }
        }
    }
    // Orphaned duplicates remain in the vector but are unreachable; they
    // are skipped during unraveling (no incoming edges, not the root).
}

/// Builds `FFRAG[c]` for an alive AND-node `c` of the pruned tableau.
///
/// # Panics
///
/// Panics if `c` is deleted, or if a deletion-rule invariant is violated
/// (an eventuality in an alive label that is not fulfillable).
pub fn build_ffrag(t: &Tableau, closure: &Closure, c: NodeId) -> Fragment {
    build_ffrag_mode(t, closure, c, CertMode::FaultFree)
}

/// [`build_ffrag`] with an explicit certificate mode (Section 8.3's
/// alternative method uses [`CertMode::FaultProne`], whose certificates
/// already include fault successors).
pub fn build_ffrag_mode(t: &Tableau, closure: &Closure, c: NodeId, mode: CertMode) -> Fragment {
    build_ffrag_cached(t, closure, c, mode, &mut FulfillmentCache::default())
}

/// [`build_ffrag_mode`] sharing fulfillment certificates across calls
/// (the unraveling embeds hundreds of fragments against one tableau).
pub(crate) fn build_ffrag_cached(
    t: &Tableau,
    closure: &Closure,
    c: NodeId,
    mode: CertMode,
    cache: &mut FulfillmentCache,
) -> Fragment {
    assert!(t.alive(c), "fragments are built for alive nodes only");
    let mut b = Builder {
        t,
        closure,
        mode,
        nodes: Vec::new(),
    };
    // The root starts out *frontier-eligible*: when an eventuality is
    // already fulfilled at the root (`h ∈ L(c)`, a trivial FDAG), the
    // root must remain available as an attachment point for the
    // remaining eventualities — exactly as in the paper, where the
    // frontier of a trivial FFRAG_1 is the root itself.
    let root = b.new_node(c, true);
    let evs = eventualities_in(closure, &t.node(c).label);

    if let Some(&first) = evs.first() {
        apply_ev(&mut b, root, first, cache);
        for &ev in &evs[1..] {
            merge_frontier(&mut b.nodes);
            let frontier: Vec<usize> = b
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.frontier && t.node(n.tableau_id).label.contains(ev))
                .map(|(i, _)| i)
                .collect();
            for s in frontier {
                apply_ev(&mut b, s, ev, cache);
            }
        }
        merge_frontier(&mut b.nodes);
    }
    // The root is the fragment's own state, never an identification
    // point for the unraveling.
    b.nodes[root].frontier = false;

    // Root must realize its nexttime obligations even when all its
    // eventualities were fulfilled immediately (rank 0 everywhere).
    if b.nodes[root].succ.is_empty() {
        b.expand_tiles(root);
    }

    // Step 3(c): fault successors for every interior node (and the
    // root). Under FaultProne certificates a node's fault edges may
    // already be present (the FDAGs included them); only the missing
    // ones are attached.
    let interior: Vec<usize> = b
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, n)| !n.frontier || *i == root)
        .map(|(i, _)| i)
        .collect();
    for at in interior {
        let cid = b.nodes[at].tableau_id;
        let fault_succs: Vec<(EdgeKind, NodeId)> = t.alive_succ(cid, EdgeKind::is_fault).collect();
        for (kind, d) in fault_succs {
            let already = b.nodes[at].succ.iter().any(|&(k, _)| k == kind);
            if already {
                continue;
            }
            let child = b.pick_small_child(d);
            let i = b.new_node(child, true);
            b.nodes[at].succ.push((kind, i));
        }
    }
    merge_frontier(&mut b.nodes);

    Fragment {
        root,
        nodes: b.nodes,
    }
}

fn apply_ev(b: &mut Builder<'_>, at: usize, ev: ClosureIdx, cache: &mut FulfillmentCache) {
    match b.closure.entry(ev).kind {
        EntryKind::Au { g, h, .. } => {
            let f = cache
                .by_ev
                .entry(ev)
                .or_insert_with(|| au_fulfillment(b.t, b.closure, g, h, b.mode));
            assert!(
                f.is_fulfilled(b.nodes[at].tableau_id),
                "DeleteAU guarantees fulfillment of alive labels"
            );
            let mut memo = HashMap::new();
            memo.insert(b.nodes[at].tableau_id, at);
            b.expand_au(at, &mut memo, g, h, &f.rank);
        }
        EntryKind::Eu { g, h, .. } => {
            let f = cache
                .by_ev
                .entry(ev)
                .or_insert_with(|| eu_fulfillment(b.t, b.closure, g, h, b.mode));
            assert!(
                f.is_fulfilled(b.nodes[at].tableau_id),
                "DeleteEU guarantees fulfillment of alive labels"
            );
            b.expand_eu(at, g, h, &f.rank);
        }
        _ => unreachable!("eventualities_in yields only AU/EU"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{parse::parse, FormulaArena, Owner, PropTable};
    use ftsyn_tableau::{apply_deletion_rules, build as build_tableau, FaultSpec};

    fn tf(spec: &str) -> (Tableau, Closure) {
        let mut props = PropTable::new();
        props.add("p", Owner::Process(0)).unwrap();
        props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let f = parse(&mut arena, &mut props, spec, true).unwrap();
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        let mut t = build_tableau(&cl, &props, root, &FaultSpec::none());
        apply_deletion_rules(&mut t, &cl);
        (t, cl)
    }

    fn first_and(t: &Tableau) -> NodeId {
        t.alive_succ(t.root(), |_| true)
            .map(|(_, c)| c)
            .next()
            .expect("root has AND children")
    }

    fn assert_acyclic(frag: &Fragment) {
        // DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum C {
            White,
            Grey,
            Black,
        }
        fn visit(frag: &Fragment, i: usize, col: &mut Vec<C>) {
            col[i] = C::Grey;
            for &(_, j) in &frag.nodes[i].succ {
                match col[j] {
                    C::Grey => panic!("fragment has a cycle through node {j}"),
                    C::White => visit(frag, j, col),
                    C::Black => {}
                }
            }
            col[i] = C::Black;
        }
        let mut col = vec![C::White; frag.nodes.len()];
        visit(frag, frag.root, &mut col);
    }

    #[test]
    fn no_eventualities_fragment_has_tile_children() {
        let (t, cl) = tf("p & AG EX1 p");
        let c = first_and(&t);
        let frag = build_ffrag(&t, &cl, c);
        assert!(!frag.nodes[frag.root].succ.is_empty());
        assert!(!frag.nodes[frag.root].frontier);
        assert_acyclic(&frag);
        for &(_, i) in &frag.nodes[frag.root].succ {
            assert!(frag.nodes[i].frontier);
        }
    }

    #[test]
    fn au_fragment_fulfills_on_all_paths() {
        let (t, cl) = tf("~p & AF p & AG EX1 true");
        let c = first_and(&t);
        let frag = build_ffrag(&t, &cl, c);
        assert_acyclic(&frag);
        // Every maximal path from the root must reach a node whose label
        // contains p (the fulfillment of AF p).
        let p_lit = {
            // find some literal index: the closure was built over props
            // p/q, so look at labels directly via a recursive walk.
            fn reaches_p(
                frag: &Fragment,
                t: &Tableau,
                cl: &Closure,
                i: usize,
                seen: &mut Vec<bool>,
            ) -> bool {
                let label = &t.node(frag.nodes[i].tableau_id).label;
                let has_p = label
                    .iter()
                    .any(|idx| matches!(cl.entry(idx).kind, EntryKind::Lit { positive: true, .. }));
                if has_p {
                    return true;
                }
                if seen[i] {
                    return false;
                }
                seen[i] = true;
                let succ: Vec<usize> = frag.nodes[i]
                    .succ
                    .iter()
                    .filter(|(k, _)| !k.is_fault())
                    .map(|&(_, j)| j)
                    .collect();
                !succ.is_empty() && succ.iter().all(|&j| reaches_p(frag, t, cl, j, seen))
            }
            let mut seen = vec![false; frag.nodes.len()];
            reaches_p(&frag, &t, &cl, frag.root, &mut seen)
        };
        assert!(p_lit, "AF p must be fulfilled on all fragment paths");
    }

    #[test]
    fn eu_fragment_has_a_fulfilling_path() {
        let (t, cl) = tf("~p & EF p & AG EX1 true");
        let c = first_and(&t);
        let frag = build_ffrag(&t, &cl, c);
        assert_acyclic(&frag);
        fn some_path_reaches_p(
            frag: &Fragment,
            t: &Tableau,
            cl: &Closure,
            i: usize,
            depth: usize,
        ) -> bool {
            if depth > frag.nodes.len() {
                return false;
            }
            let label = &t.node(frag.nodes[i].tableau_id).label;
            let has_p = label
                .iter()
                .any(|idx| matches!(cl.entry(idx).kind, EntryKind::Lit { positive: true, .. }));
            if has_p {
                return true;
            }
            frag.nodes[i]
                .succ
                .iter()
                .filter(|(k, _)| !k.is_fault())
                .any(|&(_, j)| some_path_reaches_p(frag, t, cl, j, depth + 1))
        }
        assert!(some_path_reaches_p(&frag, &t, &cl, frag.root, 0));
    }

    #[test]
    fn frontier_nodes_have_no_program_successors() {
        let (t, cl) = tf("~p & AF p & AG EX1 true");
        let c = first_and(&t);
        let frag = build_ffrag(&t, &cl, c);
        for n in &frag.nodes {
            if n.frontier {
                assert!(
                    n.succ.is_empty(),
                    "frontier nodes carry no edges until unraveling"
                );
            }
        }
    }

    #[test]
    fn all_eventualities_chained() {
        // Two eventualities at once: AF p and AF q.
        let (t, cl) = tf("~p & ~q & AF p & AF q & AG EX1 true");
        let c = first_and(&t);
        let evs = eventualities_in(&cl, &t.node(c).label);
        assert_eq!(evs.len(), 2);
        let frag = build_ffrag(&t, &cl, c);
        assert_acyclic(&frag);
        assert!(frag.nodes.len() >= 3);
    }
}
