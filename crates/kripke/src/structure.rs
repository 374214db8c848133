//! Fault-tolerant Kripke structures `M_F = (S0, S, A, A_F, L)`.
//!
//! The transition relation `A` is partitioned by process index (Section
//! 2.2); the disjoint fault-transition relation `A_F` is labeled by fault
//! action (Section 2.4). A plain Kripke structure is simply one with no
//! fault transitions.

use crate::state::{PropSet, State};
use ftsyn_ctl::PropTable;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a state within an [`FtKripke`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The label of a transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransKind {
    /// A program transition of the given 0-based process.
    Proc(usize),
    /// A fault transition caused by the fault action with this index in
    /// the fault specification.
    Fault(usize),
}

impl TransKind {
    /// Whether this is a fault transition.
    pub fn is_fault(self) -> bool {
        matches!(self, TransKind::Fault(_))
    }
}

/// An outgoing edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Transition label.
    pub kind: TransKind,
    /// Target state.
    pub to: StateId,
}

/// Role of a state with respect to faults (Section 2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateRole {
    /// Lies on some fault-free initialized fullpath.
    Normal,
    /// Reached only via faults, and directly the target of a fault
    /// transition on some initialized path.
    Perturbed,
    /// Reachable, but neither normal nor perturbed.
    Recovery,
    /// Not reachable from any initial state (even via faults).
    Unreachable,
}

/// A fault-tolerant Kripke structure.
///
/// States are looked up by content through an index that is built on
/// the first [`FtKripke::find_state`] or [`FtKripke::intern_state`] and
/// kept up to date from then on; [`FtKripke::state_mut`] and the
/// in-place rebuilds drop it. Structures that are only built and
/// walked — the step-5 explorer's, the unraveled and minimized models —
/// never pay for hashing their states.
#[derive(Clone, Debug, Default)]
pub struct FtKripke {
    states: Vec<State>,
    init: Vec<StateId>,
    succ: Vec<Vec<Edge>>,
    pred: Vec<Vec<Edge>>, // Edge.to here is the *source* of the transition
    /// Each distinct state content → its lowest id, once asked for.
    index: OnceLock<HashMap<State, StateId>>,
}

impl FtKripke {
    /// Creates an empty structure.
    pub fn new() -> FtKripke {
        FtKripke::default()
    }

    /// Adds (or finds) a state with the given content; returns its id.
    pub fn intern_state(&mut self, s: State) -> StateId {
        if let Some(id) = self.find_state(&s) {
            return id;
        }
        self.push_state(s)
    }

    /// Adds a state without looking it up (duplicates allowed). Used by
    /// the synthesis unraveling, where distinct states may share a
    /// valuation until shared variables are introduced, and by the
    /// step-5 explorer, which keeps its own index. A duplicate is found
    /// by [`FtKripke::find_state`] under the lowest id of its content.
    pub fn push_state(&mut self, s: State) -> StateId {
        let id = StateId(self.states.len() as u32);
        if let Some(index) = self.index.get_mut() {
            index.entry(s.clone()).or_insert(id);
        }
        self.states.push(s);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Marks a state as initial.
    pub fn add_init(&mut self, s: StateId) {
        if !self.init.contains(&s) {
            self.init.push(s);
        }
    }

    /// Adds a transition. Duplicate edges are ignored.
    pub fn add_edge(&mut self, from: StateId, kind: TransKind, to: StateId) {
        let e = Edge { kind, to };
        if !self.succ[from.index()].contains(&e) {
            self.succ[from.index()].push(e);
            self.pred[to.index()].push(Edge { kind, to: from });
        }
    }

    /// Returns a copy of this structure with state `from` merged into
    /// state `into` (edges redirected, `from` removed), plus the old→new
    /// state mapping. See [`FtKripke::merge_into`].
    ///
    /// # Panics
    ///
    /// Panics if `from == into`.
    pub fn merged(&self, from: StateId, into: StateId) -> (FtKripke, Vec<StateId>) {
        let mut out = FtKripke::new();
        let mut mapping = Vec::new();
        self.merge_into(from, into, &mut out, &mut mapping);
        (out, mapping)
    }

    /// [`FtKripke::merged`] writing into caller-owned buffers, reusing
    /// their allocations; `out` and `mapping` end element-identical to
    /// what [`FtKripke::merged`] returns, whatever they held before. The
    /// semantic minimizer builds one candidate structure per candidate
    /// merge — tens of thousands per run — so candidate construction
    /// must not pay per-state allocations, and it writes each accepted
    /// merge into a buffer that then swaps places with its model.
    ///
    /// The output is element-identical to rebuilding from scratch with
    /// [`FtKripke::push_state`] / [`FtKripke::add_edge`] /
    /// [`FtKripke::add_init`] over the remapped states, sources in id
    /// order: state ids are dense, so the mapping is pure arithmetic
    /// (states above `from` shift down by one), and the `add_edge`
    /// duplicate scan is only needed for edges touching the merged state
    /// — a merge cannot collapse any other pair of edges.
    ///
    /// # Panics
    ///
    /// Panics if `from == into`.
    pub fn merge_into(
        &self,
        from: StateId,
        into: StateId,
        out: &mut FtKripke,
        mapping: &mut Vec<StateId>,
    ) {
        assert_ne!(from, into, "cannot merge a state with itself");
        let q = |s: StateId| -> StateId {
            let s = if s == from { into } else { s };
            StateId(s.0 - u32::from(s.0 > from.0))
        };
        let merged_id = q(into);
        let n = self.states.len() - 1;

        out.index.take();
        out.init.clear();
        // States: element-wise clone_from reuses each slot's buffers.
        out.states.truncate(n);
        let mut src = self
            .states
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != from.index())
            .map(|(_, s)| s);
        for dst in out.states.iter_mut() {
            dst.clone_from(src.next().expect("n surviving states"));
        }
        out.states.extend(src.cloned());
        out.clear_edges(n);

        for s in self.state_ids() {
            let ns = q(s);
            for e in &self.succ[s.index()] {
                let ne = Edge {
                    kind: e.kind,
                    to: q(e.to),
                };
                // Duplicates only arise where the two merged preimages
                // meet: at the merged source (its list combines `into`'s
                // and `from`'s edges) or on edges into the merged state
                // (a source pointing at both `from` and `into`).
                if (ns == merged_id || ne.to == merged_id) && out.succ[ns.index()].contains(&ne) {
                    continue;
                }
                out.succ[ns.index()].push(ne);
                out.pred[ne.to.index()].push(Edge {
                    kind: e.kind,
                    to: ns,
                });
            }
        }
        for &i in &self.init {
            let ni = q(i);
            if !out.init.contains(&ni) {
                out.init.push(ni);
            }
        }
        mapping.clear();
        mapping.extend(self.state_ids().map(q));
    }

    /// Empties this structure and refills it with one state per
    /// valuation, ids in iteration order, no shared variables, no edges,
    /// no initial states and no content index: element-identical
    /// to [`FtKripke::new`] followed by one [`FtKripke::push_state`] of
    /// `State::new(v.clone())` per valuation. The caller goes on with
    /// [`FtKripke::add_init`] and [`FtKripke::add_edge`].
    ///
    /// Like [`FtKripke::merge_into`] it keeps the buffers the structure
    /// already holds: each surviving state's valuation is overwritten by
    /// `clone_from`, and each edge list is cleared in place. The CEGIS
    /// engine rebuilds one candidate model per candidate into the same
    /// structure, so a rebuild must not pay per-state allocations.
    pub fn reset_states<'a>(&mut self, vals: impl IntoIterator<Item = &'a PropSet>) {
        self.index.take();
        self.init.clear();
        let mut n = 0;
        for v in vals {
            match self.states.get_mut(n) {
                Some(s) => {
                    s.props.clone_from(v);
                    s.shared.clear();
                }
                None => self.states.push(State::new(v.clone())),
            }
            n += 1;
        }
        self.states.truncate(n);
        self.clear_edges(n);
    }

    /// Resizes the edge lists to `n` empty lists, clearing in place to
    /// keep the inner capacities.
    fn clear_edges(&mut self, n: usize) {
        self.succ.truncate(n);
        self.pred.truncate(n);
        for l in self.succ.iter_mut().chain(self.pred.iter_mut()) {
            l.clear();
        }
        self.succ.resize_with(n, Vec::new);
        self.pred.resize_with(n, Vec::new);
    }

    /// The state content for an id.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this structure.
    pub fn state(&self, s: StateId) -> &State {
        &self.states[s.index()]
    }

    /// Mutable access to a state's content (used when introducing shared
    /// variables during extraction). The content index is dropped, to be
    /// rebuilt on the next lookup.
    pub fn state_mut(&mut self, s: StateId) -> &mut State {
        self.index.take();
        &mut self.states[s.index()]
    }

    /// The lowest id of a state with content `s`. The first lookup
    /// indexes every state.
    pub fn find_state(&self, s: &State) -> Option<StateId> {
        self.index
            .get_or_init(|| {
                let mut index = HashMap::with_capacity(self.states.len());
                for (i, st) in self.states.iter().enumerate() {
                    index.entry(st.clone()).or_insert(StateId(i as u32));
                }
                index
            })
            .get(s)
            .copied()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the structure has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The initial states.
    pub fn init_states(&self) -> &[StateId] {
        &self.init
    }

    /// Outgoing edges of `s`.
    pub fn succ(&self, s: StateId) -> &[Edge] {
        &self.succ[s.index()]
    }

    /// Incoming edges of `s` (the `to` field holds the *source*).
    pub fn pred(&self, s: StateId) -> &[Edge] {
        &self.pred[s.index()]
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// Total number of transitions (program + fault).
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Number of fault transitions.
    pub fn fault_edge_count(&self) -> usize {
        self.succ
            .iter()
            .flatten()
            .filter(|e| e.kind.is_fault())
            .count()
    }

    /// States reachable from the initial states via the given edge filter.
    fn reachable_where(&self, include_faults: bool) -> Vec<bool> {
        let mut seen = vec![false; self.states.len()];
        let mut stack: Vec<StateId> = self.init.clone();
        for &s in &self.init {
            seen[s.index()] = true;
        }
        while let Some(s) = stack.pop() {
            for e in &self.succ[s.index()] {
                if (include_faults || !e.kind.is_fault()) && !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    stack.push(e.to);
                }
            }
        }
        seen
    }

    /// Classifies every state per Section 2.4.
    pub fn classify(&self) -> Vec<StateRole> {
        let normal = self.reachable_where(false);
        let reachable = self.reachable_where(true);
        let mut roles = vec![StateRole::Unreachable; self.states.len()];
        for s in self.state_ids() {
            let i = s.index();
            if !reachable[i] {
                continue;
            }
            roles[i] = if normal[i] {
                StateRole::Normal
            } else {
                // Perturbed iff some fault edge from a reachable state
                // lands here; otherwise it is a recovery state.
                let hit_by_fault = self.pred[i]
                    .iter()
                    .any(|e| e.kind.is_fault() && reachable[e.to.index()]);
                if hit_by_fault {
                    StateRole::Perturbed
                } else {
                    StateRole::Recovery
                }
            };
        }
        roles
    }

    /// The set of perturbed states `S_F`.
    pub fn perturbed_states(&self) -> Vec<StateId> {
        self.classify()
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == StateRole::Perturbed)
            .map(|(i, _)| StateId(i as u32))
            .collect()
    }

    /// Restriction of a state's valuation to `keep` (used to compare
    /// models over the problem propositions only).
    pub fn valuation_restricted(&self, s: StateId, keep: &PropSet) -> PropSet {
        self.state(s).props.intersect(keep)
    }

    /// Graphviz rendering: solid = program, dotted = fault transitions;
    /// perturbed states get a dashed border (mirroring Figure 8's
    /// conventions).
    pub fn to_dot(&self, props: &PropTable) -> String {
        let roles = self.classify();
        let mut out = String::from("digraph M {\n  rankdir=TB;\n");
        for s in self.state_ids() {
            let style = match roles[s.index()] {
                StateRole::Perturbed => ",style=dashed",
                StateRole::Recovery => ",style=dotted",
                _ => "",
            };
            out.push_str(&format!(
                "  s{} [label=\"{}\"{}];\n",
                s.0,
                self.state(s).display(props),
                style
            ));
        }
        for s in self.state_ids() {
            for e in self.succ(s) {
                match e.kind {
                    TransKind::Proc(i) => out.push_str(&format!(
                        "  s{} -> s{} [label=\"P{}\"];\n",
                        s.0,
                        e.to.0,
                        i + 1
                    )),
                    TransKind::Fault(a) => out.push_str(&format!(
                        "  s{} -> s{} [label=\"f{a}\",style=dotted];\n",
                        s.0, e.to.0
                    )),
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{Owner, PropId};

    fn mk_state(n: usize, props: &[u32]) -> State {
        State::new(PropSet::from_iter_with_capacity(
            n,
            props.iter().map(|&p| PropId(p)),
        ))
    }

    /// init → s1 → s2 (program), s1 -fault-> s3 → s4 (recovery chain).
    fn sample() -> FtKripke {
        let mut m = FtKripke::new();
        let s0 = m.intern_state(mk_state(4, &[0]));
        let s1 = m.intern_state(mk_state(4, &[1]));
        let s2 = m.intern_state(mk_state(4, &[2]));
        let s3 = m.intern_state(mk_state(4, &[3]));
        let s4 = m.intern_state(mk_state(4, &[0, 1]));
        let s5 = m.intern_state(mk_state(4, &[0, 2])); // unreachable
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s1, TransKind::Proc(1), s2);
        m.add_edge(s2, TransKind::Proc(0), s2);
        m.add_edge(s1, TransKind::Fault(0), s3);
        m.add_edge(s3, TransKind::Proc(0), s4);
        m.add_edge(s4, TransKind::Proc(0), s4);
        m.add_edge(s5, TransKind::Proc(0), s5);
        m
    }

    #[test]
    fn interning_dedups() {
        let mut m = FtKripke::new();
        let a = m.intern_state(mk_state(2, &[0]));
        let b = m.intern_state(mk_state(2, &[0]));
        assert_eq!(a, b);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn find_state_sees_pushed_states_under_their_lowest_id() {
        let mut m = FtKripke::new();
        let a = m.push_state(mk_state(2, &[0]));
        let b = m.push_state(mk_state(2, &[1]));
        m.push_state(mk_state(2, &[0]));
        assert_eq!(m.find_state(&mk_state(2, &[0])), Some(a));
        assert_eq!(m.find_state(&mk_state(2, &[1])), Some(b));
        assert_eq!(m.find_state(&mk_state(2, &[])), None);
        // Pushed after the index was built: kept up to date.
        let c = m.push_state(mk_state(2, &[0, 1]));
        m.push_state(mk_state(2, &[1]));
        assert_eq!(m.find_state(&mk_state(2, &[0, 1])), Some(c));
        assert_eq!(m.find_state(&mk_state(2, &[1])), Some(b));
        assert_eq!(m.intern_state(mk_state(2, &[0, 1])), c);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn find_state_after_state_mut_sees_the_new_content() {
        let mut m = FtKripke::new();
        let a = m.intern_state(mk_state(2, &[0]));
        let b = m.intern_state(mk_state(2, &[1]));
        m.state_mut(a).shared = vec![7];
        assert_eq!(m.find_state(&mk_state(2, &[0])), None);
        let mut moved = mk_state(2, &[0]);
        moved.shared = vec![7];
        assert_eq!(m.find_state(&moved), Some(a));
        assert_eq!(m.find_state(&mk_state(2, &[1])), Some(b));
        // Interning the old content now adds a state.
        assert_eq!(m.intern_state(mk_state(2, &[0])), StateId(2));
    }

    #[test]
    fn find_state_on_a_clone() {
        let mut built = FtKripke::new();
        let mut unbuilt = FtKripke::new();
        for v in [&[0][..], &[1], &[0, 1]] {
            built.push_state(mk_state(2, v));
            unbuilt.push_state(mk_state(2, v));
        }
        assert_eq!(built.find_state(&mk_state(2, &[1])), Some(StateId(1)));
        for original in [built, unbuilt] {
            let mut copy = original.clone();
            assert_eq!(copy.find_state(&mk_state(2, &[0, 1])), Some(StateId(2)));
            // The copy's index is its own.
            let d = copy.push_state(mk_state(2, &[]));
            assert_eq!(copy.find_state(&mk_state(2, &[])), Some(d));
            assert_eq!(original.find_state(&mk_state(2, &[])), None);
        }
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut m = FtKripke::new();
        let a = m.intern_state(mk_state(2, &[0]));
        let b = m.intern_state(mk_state(2, &[1]));
        m.add_edge(a, TransKind::Proc(0), b);
        m.add_edge(a, TransKind::Proc(0), b);
        assert_eq!(m.edge_count(), 1);
        assert_eq!(m.pred(b).len(), 1);
    }

    #[test]
    fn classification_matches_paper_definitions() {
        let m = sample();
        let roles = m.classify();
        assert_eq!(roles[0], StateRole::Normal);
        assert_eq!(roles[1], StateRole::Normal);
        assert_eq!(roles[2], StateRole::Normal);
        assert_eq!(roles[3], StateRole::Perturbed);
        assert_eq!(roles[4], StateRole::Recovery);
        assert_eq!(roles[5], StateRole::Unreachable);
        assert_eq!(m.perturbed_states(), vec![StateId(3)]);
    }

    #[test]
    fn fault_target_on_normal_path_stays_normal() {
        // A state reachable both fault-free and via a fault is *normal*.
        let mut m = FtKripke::new();
        let s0 = m.intern_state(mk_state(2, &[0]));
        let s1 = m.intern_state(mk_state(2, &[1]));
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s0, TransKind::Fault(0), s1);
        m.add_edge(s1, TransKind::Proc(0), s1);
        assert_eq!(m.classify()[1], StateRole::Normal);
    }

    /// One model, given as valuations, initial states and edges in
    /// insertion order.
    type Spec<'a> = (&'a [&'a [u32]], &'a [u32], &'a [(u32, TransKind, u32)]);

    fn fresh(n: usize, (vals, init, edges): Spec) -> FtKripke {
        let mut m = FtKripke::new();
        for v in vals {
            m.push_state(mk_state(n, v));
        }
        rest(&mut m, init, edges);
        m
    }

    fn rebuilt(mut m: FtKripke, n: usize, (vals, init, edges): Spec) -> FtKripke {
        let vals: Vec<PropSet> = vals.iter().map(|v| mk_state(n, v).props).collect();
        m.reset_states(&vals);
        rest(&mut m, init, edges);
        m
    }

    fn rest(m: &mut FtKripke, init: &[u32], edges: &[(u32, TransKind, u32)]) {
        for &i in init {
            m.add_init(StateId(i));
        }
        for &(a, k, b) in edges {
            m.add_edge(StateId(a), k, StateId(b));
        }
    }

    fn assert_identical(a: &FtKripke, b: &FtKripke) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.init_states(), b.init_states());
        for s in a.state_ids() {
            assert_eq!(a.state(s), b.state(s));
            assert_eq!(a.succ(s), b.succ(s));
            assert_eq!(a.pred(s), b.pred(s));
        }
    }

    #[test]
    fn reset_states_matches_a_fresh_build() {
        let small: Spec = (
            &[&[1], &[2], &[0, 3]],
            &[1],
            &[
                (1, TransKind::Proc(0), 0),
                (0, TransKind::Fault(1), 2),
                (2, TransKind::Proc(1), 1),
                (1, TransKind::Proc(0), 0),
                (0, TransKind::Proc(0), 0),
            ],
        );
        let large: Spec = (
            &[&[3], &[0], &[1], &[2], &[0, 1], &[1, 2], &[2, 3]],
            &[0, 4],
            &[
                (0, TransKind::Proc(0), 1),
                (1, TransKind::Proc(1), 2),
                (2, TransKind::Fault(0), 6),
                (6, TransKind::Proc(0), 0),
                (4, TransKind::Proc(1), 4),
                (5, TransKind::Proc(0), 3),
                (3, TransKind::Proc(1), 5),
            ],
        );

        // A structure that held a larger model, with interned states
        // (a populated index) and shared variables, rebuilt smaller.
        let mut big = FtKripke::new();
        let former: Vec<State> = [
            &[0][..],
            &[1],
            &[2],
            &[3],
            &[0, 1],
            &[0, 2],
            &[1, 3],
            &[2, 3],
        ]
        .iter()
        .enumerate()
        .map(|(k, v)| {
            let mut s = mk_state(4, v);
            s.shared.push(k as u32);
            s
        })
        .collect();
        for s in &former {
            big.intern_state(s.clone());
        }
        for k in 0..8u32 {
            big.add_edge(
                StateId(k),
                TransKind::Proc(k as usize % 2),
                StateId((k + 1) % 8),
            );
            big.add_edge(StateId(k), TransKind::Fault(0), StateId(0));
        }
        big.add_init(StateId(3));
        let mut m = rebuilt(big, 4, small);
        let mut f = fresh(4, small);
        assert_identical(&m, &f);
        // No stale index entries: lookups and interning behave as on
        // the fresh build, whose index is empty.
        for s in &former {
            assert_eq!(m.find_state(s), None);
        }
        let again = former[1].clone();
        assert_eq!(m.intern_state(again.clone()), f.intern_state(again));
        assert_identical(&m, &f);

        // A structure that held a smaller model, rebuilt larger.
        let l = rebuilt(m, 4, large);
        assert_identical(&l, &fresh(4, large));
    }

    #[test]
    fn edge_counts() {
        let m = sample();
        assert_eq!(m.edge_count(), 7);
        assert_eq!(m.fault_edge_count(), 1);
    }

    #[test]
    fn dot_export_mentions_fault_style() {
        let mut props = PropTable::new();
        for n in ["a", "b", "c", "d"] {
            props.add(n, Owner::Process(0)).unwrap();
        }
        let m = sample();
        let dot = m.to_dot(&props);
        assert!(dot.contains("style=dotted"));
        assert!(dot.contains("digraph"));
    }
}
