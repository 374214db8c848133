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
#[derive(Clone, Debug, Default)]
pub struct FtKripke {
    states: Vec<State>,
    init: Vec<StateId>,
    succ: Vec<Vec<Edge>>,
    pred: Vec<Vec<Edge>>, // Edge.to here is the *source* of the transition
    index: HashMap<State, StateId>,
}

impl FtKripke {
    /// Creates an empty structure.
    pub fn new() -> FtKripke {
        FtKripke::default()
    }

    /// Adds (or finds) a state with the given content; returns its id.
    pub fn intern_state(&mut self, s: State) -> StateId {
        if let Some(&id) = self.index.get(&s) {
            return id;
        }
        let id = StateId(self.states.len() as u32);
        self.index.insert(s.clone(), id);
        self.states.push(s);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Interns a state that must be new: returns its fresh id, or the id
    /// of the equal state already interned (leaving the structure
    /// unchanged). One hash per call, where [`FtKripke::find_state`]
    /// followed by [`FtKripke::intern_state`] costs two.
    ///
    /// # Errors
    ///
    /// Returns the existing id if an equal state is already interned.
    pub fn intern_fresh(&mut self, s: State) -> Result<StateId, StateId> {
        use std::collections::hash_map::Entry;
        let id = StateId(self.states.len() as u32);
        match self.index.entry(s) {
            Entry::Occupied(e) => Err(*e.get()),
            Entry::Vacant(e) => {
                self.states.push(e.key().clone());
                e.insert(id);
                self.succ.push(Vec::new());
                self.pred.push(Vec::new());
                Ok(id)
            }
        }
    }

    /// Adds a state without interning (duplicates allowed). Used by the
    /// synthesis unraveling, where distinct states may share a valuation
    /// until shared variables are introduced.
    pub fn push_state(&mut self, s: State) -> StateId {
        let id = StateId(self.states.len() as u32);
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
    /// their allocations. The semantic minimizer builds one candidate
    /// structure per candidate merge — tens of thousands per run — so
    /// candidate construction must not pay per-state allocations.
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

        out.index.clear();
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
        // Edge lists: clear in place to keep the inner capacities.
        out.succ.truncate(n);
        out.pred.truncate(n);
        for l in out.succ.iter_mut().chain(out.pred.iter_mut()) {
            l.clear();
        }
        out.succ.resize_with(n, Vec::new);
        out.pred.resize_with(n, Vec::new);

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
                if (ns == merged_id || ne.to == merged_id)
                    && out.succ[ns.index()].contains(&ne)
                {
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

    /// The state content for an id.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this structure.
    pub fn state(&self, s: StateId) -> &State {
        &self.states[s.index()]
    }

    /// Mutable access to a state's content (used when introducing shared
    /// variables during extraction). The interning index is invalidated.
    pub fn state_mut(&mut self, s: StateId) -> &mut State {
        self.index.clear();
        &mut self.states[s.index()]
    }

    /// Looks up an interned state by content.
    pub fn find_state(&self, s: &State) -> Option<StateId> {
        self.index.get(s).copied()
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
