//! Fault-tolerant Kripke structures `M_F = (S0, S, A, A_F, L)`.
//!
//! The transition relation `A` is partitioned by process index (Section
//! 2.2); the disjoint fault-transition relation `A_F` is labeled by fault
//! action (Section 2.4). A plain Kripke structure is simply one with no
//! fault transitions.

use crate::state::{render_state, PropSet, State};
use ftsyn_ctl::PropTable;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// The label of a transition. Its `u32` payload keeps an [`Edge`] at
/// 12 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransKind {
    /// A program transition of the given 0-based process.
    Proc(u32),
    /// A fault transition caused by the fault action with this index in
    /// the fault specification.
    Fault(u32),
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

/// A fault-tolerant Kripke structure, written once through a
/// [`KripkeBuilder`] and then only read.
///
/// A state is a valuation id into a table of distinct valuations and a
/// vector id into a table of distinct shared-value vectors (`width`
/// values each, back to back), so equal ids mean equal content. The
/// valuation table is shared ([`Arc`]) with the structures built from
/// this one, and may hold valuations no state carries. The transition
/// relation is stored forward only: `succ` is one edge array whose rows
/// stay in the order they were written, each state holding its row's
/// span. Backward views are laid out from it by their readers, as
/// [`Csr`] rows.
#[derive(Clone, Default)]
pub struct FtKripke {
    vals: Arc<Vec<PropSet>>,
    width: usize,
    vectors: Vec<u32>,
    /// Valuation and vector id of each state.
    val: Vec<u32>,
    vec: Vec<u32>,
    init: Vec<StateId>,
    /// Row `s` is `succ[lo..hi]` for `(lo, hi) = succ_span[s]`.
    succ_span: Vec<(u32, u32)>,
    succ: Vec<Edge>,
    /// Every state as a [`State`], built on the first [`FtKripke::state`].
    content: OnceLock<Vec<State>>,
}

impl FtKripke {
    /// Returns a copy of this structure with state `from` merged into
    /// state `into` (edges redirected, `from` removed), plus the old→new
    /// state mapping. See [`FtKripke::merge_into`].
    ///
    /// # Panics
    ///
    /// Panics if `from == into`.
    pub fn merged(&self, from: StateId, into: StateId) -> (FtKripke, Vec<StateId>) {
        let mut out = FtKripke::default();
        let mut mapping = Vec::new();
        self.merge_into(from, into, &mut out, &mut mapping);
        (out, mapping)
    }

    /// [`FtKripke::merged`] writing into caller-owned buffers, reusing
    /// their allocations (the semantic minimizer builds one candidate
    /// per decided merge). The output is the build of the remapped
    /// states, sharing this structure's tables, with their edges added
    /// source by source in id order: states above `from` shift down by
    /// one, and the merged state's edges are `into`'s and `from`'s in id
    /// order, duplicates dropped.
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
        let merged = q(into);
        let m = out;
        m.vals = Arc::clone(&self.vals);
        m.width = self.width;
        m.vectors.clone_from(&self.vectors);
        m.init.clear();
        m.content = OnceLock::new();
        let kept = |s: &StateId| *s != from;
        m.val.clear();
        m.val
            .extend(self.state_ids().filter(kept).map(|s| self.val_id(s)));
        m.vec.clear();
        m.vec
            .extend(self.state_ids().filter(kept).map(|s| self.vec_id(s)));
        // Row by row: duplicates can only meet in the merged row, or on
        // edges into the merged state.
        m.succ.clear();
        m.succ_span.clear();
        let both = [into.min(from), into.max(from)];
        for ns in (0..self.len() as u32 - 1).map(StateId) {
            let lo = m.succ.len();
            let pre = [StateId(ns.0 + u32::from(ns.0 >= from.0))];
            for &p in if ns == merged { &both[..] } else { &pre[..] } {
                for e in self.succ(p) {
                    let e = Edge {
                        kind: e.kind,
                        to: q(e.to),
                    };
                    if (ns != merged && e.to != merged) || !m.succ[lo..].contains(&e) {
                        m.succ.push(e);
                    }
                }
            }
            m.succ_span.push((lo as u32, m.succ.len() as u32));
        }
        for &i in &self.init {
            let i = q(i);
            if !m.init.contains(&i) {
                m.init.push(i);
            }
        }
        mapping.clear();
        mapping.extend(self.state_ids().map(q));
    }

    /// An empty builder over this structure's tables.
    pub(crate) fn share_tables(&self) -> KripkeBuilder {
        let mut b = KripkeBuilder::new();
        b.set_tables(Arc::clone(&self.vals), self.width, self.vectors.clone());
        b
    }

    /// Empties this structure into a builder over the valuation table
    /// `vals`, with no shared variables, that keeps this structure's
    /// buffers (the CEGIS engine rebuilds every candidate into one
    /// structure). Builds equal a [`KripkeBuilder::new`] build.
    pub fn reset_states(self, vals: Arc<Vec<PropSet>>) -> KripkeBuilder {
        let mut m = self;
        m.vals = vals;
        m.width = 0;
        m.vectors.clear();
        m.val.clear();
        m.vec.clear();
        m.init.clear();
        m.content = OnceLock::new();
        m.succ.clear();
        m.succ_span.clear();
        KripkeBuilder {
            m,
            ..KripkeBuilder::default()
        }
    }

    /// Replaces the shared-value vectors (step 5's disambiguating
    /// values): `vectors` holds distinct vectors of `width` values back
    /// to back, and `ids[s]` is state `s`'s.
    ///
    /// # Panics
    ///
    /// Panics if `ids` does not have one id per state.
    pub fn set_vectors(&mut self, width: usize, vectors: Vec<u32>, ids: Vec<u32>) {
        assert_eq!(ids.len(), self.len(), "one vector id per state");
        self.width = width;
        self.vectors = vectors;
        self.vec = ids;
        self.content = OnceLock::new();
    }

    /// The state content for an id. The first call materializes every
    /// state as a [`State`]; the pipeline reads [`FtKripke::props`] and
    /// [`FtKripke::shared`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not belong to this structure.
    pub fn state(&self, s: StateId) -> &State {
        let states = self.content.get_or_init(|| {
            self.state_ids()
                .map(|s| State {
                    props: self.props(s).clone(),
                    shared: self.shared(s).to_vec(),
                })
                .collect()
        });
        &states[s.index()]
    }

    /// The valuation of state `s`.
    pub fn props(&self, s: StateId) -> &PropSet {
        &self.vals[self.val[s.index()] as usize]
    }

    /// The shared-variable values of state `s`.
    pub fn shared(&self, s: StateId) -> &[u32] {
        self.vector(self.vec[s.index()])
    }

    /// The valuation id of state `s`, an index into
    /// [`FtKripke::valuations`]: equal ids iff equal valuations.
    pub fn val_id(&self, s: StateId) -> u32 {
        self.val[s.index()]
    }

    /// The vector id of state `s`: equal ids iff equal shared values.
    pub fn vec_id(&self, s: StateId) -> u32 {
        self.vec[s.index()]
    }

    /// The valuation table, each valuation once.
    pub fn valuations(&self) -> &[PropSet] {
        &self.vals
    }

    /// The shared values of vector id `v`.
    pub fn vector(&self, v: u32) -> &[u32] {
        let at = v as usize * self.width;
        &self.vectors[at..at + self.width]
    }

    /// Number of vector ids (one, the empty vector, without shared
    /// variables).
    pub fn vector_count(&self) -> usize {
        self.vectors.len().checked_div(self.width).unwrap_or(1)
    }

    /// Renders state `s` as [`State::display`] does.
    pub fn display_state(&self, s: StateId, props: &PropTable) -> String {
        render_state(self.props(s), self.shared(s), props)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.val.len()
    }

    /// Whether the structure has no states.
    pub fn is_empty(&self) -> bool {
        self.val.is_empty()
    }

    /// The initial states.
    pub fn init_states(&self) -> &[StateId] {
        &self.init
    }

    /// Outgoing edges of `s`, in the order they were first added.
    pub fn succ(&self, s: StateId) -> &[Edge] {
        let (lo, hi) = self.succ_span[s.index()];
        &self.succ[lo as usize..hi as usize]
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.len() as u32).map(StateId)
    }

    /// Total number of transitions (program + fault).
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of fault transitions.
    pub fn fault_edge_count(&self) -> usize {
        self.succ.iter().filter(|e| e.kind.is_fault()).count()
    }

    /// States reachable from the initial states, over program edges
    /// only or over all edges, and the targets of the fault edges
    /// followed (so, with faults, of every fault edge from a reachable
    /// state).
    fn reachable_where(&self, include_faults: bool) -> (Vec<bool>, Vec<bool>) {
        let mut seen = vec![false; self.len()];
        let mut fault_hit = vec![false; self.len()];
        let mut stack: Vec<StateId> = self.init.clone();
        for &s in &self.init {
            seen[s.index()] = true;
        }
        while let Some(s) = stack.pop() {
            for e in self.succ(s) {
                if e.kind.is_fault() {
                    if !include_faults {
                        continue;
                    }
                    fault_hit[e.to.index()] = true;
                }
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    stack.push(e.to);
                }
            }
        }
        (seen, fault_hit)
    }

    /// Classifies every state per Section 2.4.
    pub fn classify(&self) -> Vec<StateRole> {
        let (normal, _) = self.reachable_where(false);
        let (reachable, fault_hit) = self.reachable_where(true);
        (0..self.len())
            .map(|i| match (reachable[i], normal[i], fault_hit[i]) {
                (false, _, _) => StateRole::Unreachable,
                (true, true, _) => StateRole::Normal,
                (true, false, true) => StateRole::Perturbed,
                (true, false, false) => StateRole::Recovery,
            })
            .collect()
    }

    /// The fault actions entering each state: row `t` lists the action
    /// index of every fault edge into `t`, each action once, in the
    /// order a scan of the sources in id order meets them.
    pub fn entering_fault_actions(&self) -> Csr {
        let mut c = Csr::by_target(self, |_, e| match e.kind {
            TransKind::Fault(a) => Some(a),
            TransKind::Proc(_) => None,
        });
        // Drop repeats row by row, compacting in place.
        let mut kept = 0;
        for t in 0..self.len() {
            let (lo, hi) = (c.start[t] as usize, c.start[t + 1] as usize);
            c.start[t] = kept as u32;
            for i in lo..hi {
                let a = c.adj[i];
                if !c.adj[c.start[t] as usize..kept].contains(&a) {
                    c.adj[kept] = a;
                    kept += 1;
                }
            }
        }
        c.start[self.len()] = kept as u32;
        c.adj.truncate(kept);
        c
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
                self.display_state(s, props),
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

/// Each state's content, the initial states and each state's edges:
/// the form the minimizer's pinned model digests are recorded on.
impl fmt::Debug for FtKripke {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let states: Vec<&State> = self.state_ids().map(|s| self.state(s)).collect();
        let succ: Vec<&[Edge]> = self.state_ids().map(|s| self.succ(s)).collect();
        f.debug_struct("FtKripke")
            .field("states", &states)
            .field("init", &self.init)
            .field("succ", &succ)
            .finish()
    }
}

/// Append-only construction of an [`FtKripke`]. States are added in id
/// order, by content ([`KripkeBuilder::push_state`]) or by ids into
/// tables the writer keeps ([`KripkeBuilder::push`],
/// [`KripkeBuilder::set_tables`]). [`KripkeBuilder::freeze`] lays the
/// edges and initial states out keeping every order a reader can
/// observe:
///
/// * `succ(s)`: the edges added from `s`, in call order, each
///   `(kind, target)` pair only at its first occurrence;
/// * `init_states()`: in call order, each state once.
///
/// A writer adds all of a state's edges together, states in any order:
/// each state's edges are appended to `succ` as one block, which
/// becomes the state's row as it stands. [`KripkeBuilder::add_edge`]
/// panics on an edge from a state whose block has closed.
#[derive(Default)]
pub struct KripkeBuilder {
    /// The structure under construction. `m.succ` holds one block per
    /// source that has edges, spanned by `m.succ_span`.
    m: FtKripke,
    /// The source of the last block, which is still open.
    open: Option<u32>,
    /// Valuation → id over `m.vals`, built on the first interning.
    val_index: Option<HashMap<PropSet, u32>>,
    /// Vector → id over `m.vectors`, built on the first interning.
    vec_index: Option<HashMap<Vec<u32>, u32>>,
}

impl KripkeBuilder {
    /// An empty builder with empty tables.
    pub fn new() -> KripkeBuilder {
        KripkeBuilder::default()
    }

    /// Replaces the tables that [`KripkeBuilder::push`] ids index into:
    /// `vals` holds distinct valuations, `vectors` distinct vectors of
    /// `width` values back to back.
    pub fn set_tables(&mut self, vals: Arc<Vec<PropSet>>, width: usize, vectors: Vec<u32>) {
        self.m.vals = vals;
        self.m.width = width;
        self.m.vectors = vectors;
        self.val_index = None;
        self.vec_index = None;
    }

    /// The id of valuation `v`, added to the table if new.
    pub fn intern_valuation(&mut self, v: PropSet) -> u32 {
        let vals = &mut self.m.vals;
        let index = self.val_index.get_or_insert_with(|| {
            vals.iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i as u32))
                .collect()
        });
        match index.entry(v) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = vals.len() as u32;
                Arc::make_mut(vals).push(e.key().clone());
                e.insert(id);
                id
            }
        }
    }

    /// Adds a state with the given content, interning its valuation and
    /// shared vector; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if its shared values differ in number from earlier ones.
    pub fn push_state(&mut self, s: State) -> StateId {
        let m = &mut self.m;
        if m.vectors.is_empty() && m.width == 0 {
            m.width = s.shared.len();
        }
        let width = m.width;
        assert_eq!(s.shared.len(), width, "states share their variables");
        let index = self.vec_index.get_or_insert_with(|| {
            let ids = m.vectors.chunks(width.max(1)).zip(0..);
            ids.map(|(v, i)| (v.to_vec(), i)).collect()
        });
        let vec = match index.entry(s.shared) {
            _ if width == 0 => 0,
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                m.vectors.extend_from_slice(e.key());
                *e.insert((m.vectors.len() / width - 1) as u32)
            }
        };
        let val = self.intern_valuation(s.props);
        self.push(val, vec)
    }

    /// Adds a state with valuation id `val` and vector id `vec`; returns
    /// its id.
    pub fn push(&mut self, val: u32, vec: u32) -> StateId {
        let id = StateId(self.m.val.len() as u32);
        self.m.val.push(val);
        self.m.vec.push(vec);
        id
    }

    /// Marks a state as initial.
    pub fn add_init(&mut self, s: StateId) {
        if !self.m.init.contains(&s) {
            self.m.init.push(s);
        }
    }

    /// Adds a transition. A duplicate of an edge already added from the
    /// same state is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `from`'s edges were added before and another state's
    /// since: all of a state's edges are added together.
    pub fn add_edge(&mut self, from: StateId, kind: TransKind, to: StateId) {
        let (m, f) = (&mut self.m, from.index());
        if self.open != Some(from.0) {
            if m.succ_span.len() <= f {
                m.succ_span.resize(f + 1, NO_ROW);
            }
            assert!(
                m.succ_span[f] == NO_ROW,
                "edges from {from:?} added after another state's: \
                 all of a state's edges are added together"
            );
            if let Some(last) = self.open {
                m.succ_span[last as usize].1 = m.succ.len() as u32;
            }
            m.succ_span[f] = (m.succ.len() as u32, u32::MAX);
            self.open = Some(from.0);
        }
        let e = Edge { kind, to };
        let lo = m.succ_span[f].0 as usize;
        if !m.succ[lo..].contains(&e) {
            m.succ.push(e);
        }
    }

    /// Lays the edges out and returns the structure.
    ///
    /// # Panics
    ///
    /// Panics if an edge or initial state names a state never added.
    pub fn freeze(self) -> FtKripke {
        let KripkeBuilder { mut m, open, .. } = self;
        let n = m.len();
        debug_assert!(
            m.vals
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                == m.vals.len(),
            "valuation table holds duplicates"
        );
        assert!(
            m.init.iter().all(|s| s.index() < n),
            "unknown initial state"
        );
        assert!(
            m.succ.iter().all(|e| e.to.index() < n),
            "edge into an unknown state"
        );
        if let Some(last) = open {
            m.succ_span[last as usize].1 = m.succ.len() as u32;
        }
        assert!(m.succ_span.len() <= n, "edge from an unknown state");
        m.succ_span.resize(n, NO_ROW);
        for span in &mut m.succ_span {
            if *span == NO_ROW {
                *span = (0, 0);
            }
        }
        m
    }
}

/// Marks a state whose `succ` row has not started.
const NO_ROW: (u32, u32) = (u32::MAX, u32::MAX);

/// A per-state relation in compressed-sparse-row form: row `t` is
/// `adj[start[t]..start[t + 1]]`. The backward views of an
/// [`FtKripke`] are laid out this way from its `succ` rows.
#[derive(Clone, Debug)]
pub struct Csr {
    start: Vec<u32>,
    adj: Vec<u32>,
}

impl Csr {
    /// For each state `t`, `entry(s, e)` of every edge `e` from a state
    /// `s` into `t` where it is `Some`, sources in id order: a counting
    /// sort of `m`'s edges by target. Row `t` is filled at
    /// `start[t + 1]`, which ends as row `t + 1`'s offset.
    pub(crate) fn by_target(m: &FtKripke, entry: impl Fn(StateId, &Edge) -> Option<u32>) -> Csr {
        let n = m.len();
        let mut start = vec![0u32; n + 2];
        for s in m.state_ids() {
            for e in m.succ(s) {
                if entry(s, e).is_some() {
                    start[e.to.index() + 2] += 1;
                }
            }
        }
        for i in 0..n {
            start[i + 2] += start[i + 1];
        }
        let mut adj = vec![0; start[n + 1] as usize];
        for s in m.state_ids() {
            for e in m.succ(s) {
                if let Some(x) = entry(s, e) {
                    let at = &mut start[e.to.index() + 1];
                    adj[*at as usize] = x;
                    *at += 1;
                }
            }
        }
        start.truncate(n + 1);
        Csr { start, adj }
    }

    /// Row `t`.
    pub fn row(&self, t: StateId) -> &[u32] {
        let t = t.index();
        &self.adj[self.start[t] as usize..self.start[t + 1] as usize]
    }

    /// How often each row index occurs as an entry: on path
    /// predecessors, each state's number of path successors.
    pub(crate) fn out_degrees(&self) -> Vec<u32> {
        let mut out = vec![0; self.start.len() - 1];
        for &s in &self.adj {
            out[s as usize] += 1;
        }
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
        let mut m = KripkeBuilder::new();
        let s0 = m.push_state(mk_state(4, &[0]));
        let s1 = m.push_state(mk_state(4, &[1]));
        let s2 = m.push_state(mk_state(4, &[2]));
        let s3 = m.push_state(mk_state(4, &[3]));
        let s4 = m.push_state(mk_state(4, &[0, 1]));
        let s5 = m.push_state(mk_state(4, &[0, 2])); // unreachable
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s1, TransKind::Proc(1), s2);
        m.add_edge(s1, TransKind::Fault(0), s3);
        m.add_edge(s2, TransKind::Proc(0), s2);
        m.add_edge(s3, TransKind::Proc(0), s4);
        m.add_edge(s4, TransKind::Proc(0), s4);
        m.add_edge(s5, TransKind::Proc(0), s5);
        m.freeze()
    }

    /// An edge is a `u32` label payload and a `u32` target: the step-5
    /// explorer's structures hold hundreds of thousands of them.
    #[test]
    fn an_edge_takes_twelve_bytes() {
        assert_eq!(std::mem::size_of::<TransKind>(), 8);
        assert_eq!(std::mem::size_of::<Edge>(), 12);
    }

    #[test]
    fn interning_dedups() {
        let mut b = KripkeBuilder::new();
        let a = b.intern_valuation(mk_state(2, &[0]).props);
        let c = b.intern_valuation(mk_state(2, &[0]).props);
        assert_eq!(a, c);
        let s = b.push_state(mk_state(2, &[0]));
        let t = b.push_state(mk_state(2, &[0]));
        let m = b.freeze();
        assert_eq!(m.valuations().len(), 1);
        assert_ne!(s, t);
        assert_eq!(m.val_id(s), m.val_id(t));
        assert_eq!(m.state(s), m.state(t));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut m = KripkeBuilder::new();
        let a = m.push_state(mk_state(2, &[0]));
        let b = m.push_state(mk_state(2, &[1]));
        m.add_edge(a, TransKind::Proc(0), b);
        m.add_edge(a, TransKind::Fault(0), b);
        m.add_edge(a, TransKind::Proc(0), b);
        m.add_edge(a, TransKind::Fault(0), b);
        let m = m.freeze();
        assert_eq!(m.edge_count(), 2);
        let entering = m.entering_fault_actions();
        assert_eq!((entering.row(a), entering.row(b)), (&[][..], &[0][..]));
    }

    #[test]
    #[should_panic(expected = "all of a state's edges are added together")]
    fn edges_resumed_after_another_state_panic() {
        let mut m = KripkeBuilder::new();
        let a = m.push_state(mk_state(2, &[0]));
        let b = m.push_state(mk_state(2, &[1]));
        m.add_edge(a, TransKind::Proc(0), b);
        m.add_edge(b, TransKind::Proc(0), a);
        m.add_edge(a, TransKind::Fault(0), a);
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
        let mut m = KripkeBuilder::new();
        let s0 = m.push_state(mk_state(2, &[0]));
        let s1 = m.push_state(mk_state(2, &[1]));
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s0, TransKind::Fault(0), s1);
        m.add_edge(s1, TransKind::Proc(0), s1);
        assert_eq!(m.freeze().classify()[1], StateRole::Normal);
    }

    /// One model, given as valuations, initial states and edges in
    /// insertion order.
    type Spec<'a> = (&'a [&'a [u32]], &'a [u32], &'a [(u32, TransKind, u32)]);

    fn fresh(n: usize, (vals, init, edges): Spec) -> FtKripke {
        let mut m = KripkeBuilder::new();
        for v in vals {
            m.push_state(mk_state(n, v));
        }
        rest(m, init, edges)
    }

    /// `spec` rebuilt into `m` over a table holding its valuations
    /// after three of at least three propositions, which no spec uses.
    fn rebuilt(m: FtKripke, n: usize, (vals, init, edges): Spec) -> FtKripke {
        let mut table: Vec<PropSet> = [&[0, 1, 2][..], &[1, 2, 3], &[0, 1, 2, 3]]
            .iter()
            .map(|v| mk_state(n, v).props)
            .collect();
        table.extend(vals.iter().map(|v| mk_state(n, v).props));
        let mut b = m.reset_states(Arc::new(table));
        for k in 0..vals.len() {
            b.push(3 + k as u32, 0);
        }
        rest(b, init, edges)
    }

    fn rest(mut m: KripkeBuilder, init: &[u32], edges: &[(u32, TransKind, u32)]) -> FtKripke {
        for &i in init {
            m.add_init(StateId(i));
        }
        for &(a, k, b) in edges {
            m.add_edge(StateId(a), k, StateId(b));
        }
        m.freeze()
    }

    fn assert_identical(a: &FtKripke, b: &FtKripke) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.init_states(), b.init_states());
        for s in a.state_ids() {
            assert_eq!(a.state(s), b.state(s));
            assert_eq!(a.succ(s), b.succ(s));
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn reset_states_matches_a_fresh_build() {
        let small: Spec = (
            &[&[1], &[2], &[0, 3]],
            &[1],
            &[
                (1, TransKind::Proc(0), 0),
                (1, TransKind::Proc(0), 0),
                (0, TransKind::Fault(1), 2),
                (0, TransKind::Proc(0), 0),
                (2, TransKind::Proc(1), 1),
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

        // A structure that held a larger model, with shared variables
        // and a materialized content view, rebuilt smaller.
        let mut big = KripkeBuilder::new();
        for (k, v) in [
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
        {
            let mut s = mk_state(4, v);
            s.shared.push(k as u32);
            big.push_state(s);
        }
        for k in 0..8u32 {
            big.add_edge(StateId(k), TransKind::Proc(k % 2), StateId((k + 1) % 8));
            big.add_edge(StateId(k), TransKind::Fault(0), StateId(0));
        }
        big.add_init(StateId(3));
        let big = big.freeze();
        assert_eq!(big.state(StateId(7)).shared, vec![7]);
        let m = rebuilt(big, 4, small);
        assert_identical(&m, &fresh(4, small));

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
