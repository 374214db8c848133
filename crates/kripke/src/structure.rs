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

/// A fault-tolerant Kripke structure, written once through a
/// [`KripkeBuilder`] and then only read.
///
/// A state is a valuation id into a table of distinct valuations and a
/// vector id into a table of distinct shared-value vectors (`width`
/// values each, back to back), so equal ids mean equal content. The
/// valuation table is shared ([`Arc`]) with the structures built from
/// this one, and may hold valuations no state carries. `succ` and
/// `pred` are compressed-sparse-row arrays; `succ` keeps its rows in
/// the order they were written, each state holding its row's span.
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
    /// Row `t` is `pred[pred_start[t]..pred_start[t + 1]]`; `Edge::to`
    /// holds the source.
    pred_start: Vec<u32>,
    pred: Vec<Edge>,
    /// Every state as a [`State`], built on the first [`FtKripke::state`].
    content: OnceLock<Vec<State>>,
}

/// Fills the edge arrays of a freshly sized slot before they are written.
const NO_EDGE: Edge = Edge {
    kind: TransKind::Proc(0),
    to: StateId(0),
};

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
        // pred in the order of a rebuild adding the edges source by
        // source: an edge is kept iff it is the next one of its new row.
        let mut next: Vec<u32> = m.succ_span.iter().map(|&(lo, _)| lo).collect();
        lay_pred(m, |m, put| {
            for s in self.state_ids() {
                let ns = q(s);
                for e in self.succ(s) {
                    let e = Edge {
                        kind: e.kind,
                        to: q(e.to),
                    };
                    let at = &mut next[ns.index()];
                    if *at < m.succ_span[ns.index()].1 && m.succ[*at as usize] == e {
                        *at += 1;
                        put(ns.0, e);
                    }
                }
            }
        });
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

    /// Incoming edges of `s` (the `to` field holds the *source*), in
    /// the order they were first added to the structure.
    pub fn pred(&self, s: StateId) -> &[Edge] {
        let t = s.index();
        &self.pred[self.pred_start[t] as usize..self.pred_start[t + 1] as usize]
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

    /// States reachable from the initial states via the given edge filter.
    fn reachable_where(&self, include_faults: bool) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<StateId> = self.init.clone();
        for &s in &self.init {
            seen[s.index()] = true;
        }
        while let Some(s) = stack.pop() {
            for e in self.succ(s) {
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
        let mut roles = vec![StateRole::Unreachable; self.len()];
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
                let hit_by_fault = self
                    .pred(s)
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

/// The form of the per-state layout this structure replaced — each
/// state's content, then its edge lists — which the minimizer's pinned
/// model digests were recorded on.
impl fmt::Debug for FtKripke {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let states: Vec<&State> = self.state_ids().map(|s| self.state(s)).collect();
        let succ: Vec<&[Edge]> = self.state_ids().map(|s| self.succ(s)).collect();
        let pred: Vec<&[Edge]> = self.state_ids().map(|s| self.pred(s)).collect();
        f.debug_struct("FtKripke")
            .field("states", &states)
            .field("init", &self.init)
            .field("succ", &succ)
            .field("pred", &pred)
            .field("index", &format_args!("OnceLock(<uninit>)"))
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
/// * `pred(t)`: the kept edges into `t`, in the global call order;
/// * `init_states()`: in call order, each state once.
///
/// A writer that adds each state's edges together, as every writer
/// in the pipeline but two does, appends them to `succ` as one block,
/// which becomes the state's row as it stands. Once a state's edges
/// resume after another state's, the edges are listed with their
/// sources, and freezing replays them source by source.
#[derive(Default)]
pub struct KripkeBuilder {
    /// The structure under construction. Until `listed`, `m.succ` holds
    /// one block per source in `blocks`, spanned by `m.succ_span` (the
    /// last block still open).
    m: FtKripke,
    /// The sources of the blocks, in call order.
    blocks: Vec<u32>,
    /// Whether a source's edges resumed after another source's.
    listed: bool,
    /// Once `listed`, the edges in call order.
    edges: Vec<Edge>,
    /// Once `listed`, the source of each edge of `edges`.
    src: Vec<u32>,
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
    pub fn add_edge(&mut self, from: StateId, kind: TransKind, to: StateId) {
        let e = Edge { kind, to };
        if !self.listed && self.append(from.0, e).is_none() {
            // The blocks so far are the edges in call order.
            self.listed = true;
            for &s in &self.blocks {
                let (lo, hi) = self.m.succ_span[s as usize];
                let hi = hi.min(self.m.succ.len() as u32);
                self.src.extend((lo..hi).map(|_| s));
            }
            self.edges = std::mem::take(&mut self.m.succ);
            self.m.succ_span.clear();
            self.blocks.clear();
        }
        if self.listed {
            self.edges.push(e);
            self.src.push(from.0);
        }
    }

    /// Appends `e` to the block of `from` if that is the last block, or
    /// to a new block if `from` has none: whether `e` was new to it, or
    /// `None` if `from`'s block is an earlier one.
    fn append(&mut self, from: u32, e: Edge) -> Option<bool> {
        let (m, f) = (&mut self.m, from as usize);
        if m.succ_span.len() <= f {
            m.succ_span.resize(f + 1, NO_ROW);
        }
        if self.blocks.last() != Some(&from) {
            if m.succ_span[f] != NO_ROW {
                return None;
            }
            if let Some(&last) = self.blocks.last() {
                m.succ_span[last as usize].1 = m.succ.len() as u32;
            }
            m.succ_span[f] = (m.succ.len() as u32, u32::MAX);
            self.blocks.push(from);
        }
        let lo = m.succ_span[f].0 as usize;
        let fresh = !m.succ[lo..].contains(&e);
        if fresh {
            m.succ.push(e);
        }
        Some(fresh)
    }

    /// Lays the edges out and returns the structure.
    ///
    /// # Panics
    ///
    /// Panics if an edge or initial state names a state never added.
    pub fn freeze(mut self) -> FtKripke {
        let (n, listed) = (self.m.len(), self.listed);
        debug_assert!(
            self.m
                .vals
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                == self.m.vals.len(),
            "valuation table holds duplicates"
        );
        assert!(
            self.m.init.iter().all(|s| s.index() < n),
            "unknown initial state"
        );
        let (edges, mut src) = (
            std::mem::take(&mut self.edges),
            std::mem::take(&mut self.src),
        );
        if listed {
            // Replay the edges source by source (a stable counting sort),
            // marking each dropped one by the source `u32::MAX`.
            let mut at = vec![0u32; n + 1];
            for &s in &src {
                assert!((s as usize) < n, "edge from an unknown state");
                at[s as usize + 1] += 1;
            }
            for i in 0..n {
                at[i + 1] += at[i];
            }
            let mut order = vec![0; src.len()];
            for (i, &s) in src.iter().enumerate() {
                order[at[s as usize] as usize] = i;
                at[s as usize] += 1;
            }
            for i in order {
                if self.append(src[i], edges[i]) == Some(false) {
                    src[i] = u32::MAX;
                }
            }
        }
        let KripkeBuilder { mut m, blocks, .. } = self;
        if let Some(&last) = blocks.last() {
            m.succ_span[last as usize].1 = m.succ.len() as u32;
        }
        assert!(m.succ_span.len() <= n, "edge from an unknown state");
        m.succ_span.resize(n, NO_ROW);
        for span in &mut m.succ_span {
            if *span == NO_ROW {
                *span = (0, 0);
            }
        }

        // The kept edges in call order: block order unless listed.
        lay_pred(&mut m, |m, put| {
            if !listed {
                for &s in &blocks {
                    m.succ(StateId(s)).iter().for_each(|&e| put(s, e));
                }
            } else {
                let kept = src.iter().zip(&edges).filter(|(&s, _)| s != u32::MAX);
                kept.for_each(|(&s, &e)| put(s, e));
            }
        });
        m
    }
}

/// Lays out `m.pred` from `m.succ`: `walk` hands every `succ` edge,
/// with its source, to its callback in the order the edges were added,
/// and a stable counting sort by target keeps that order in each row.
/// Row `t` is filled at `start[t + 1]`, which ends as row `t + 1`'s
/// offset.
///
/// # Panics
///
/// Panics if an edge targets a state `m` does not have.
fn lay_pred(m: &mut FtKripke, walk: impl FnOnce(&FtKripke, &mut dyn FnMut(u32, Edge))) {
    let n = m.len();
    let mut start = std::mem::take(&mut m.pred_start);
    start.clear();
    start.resize(n + 2, 0);
    for e in &m.succ {
        assert!(e.to.index() < n, "edge into an unknown state");
        start[e.to.index() + 2] += 1;
    }
    for i in 0..n {
        start[i + 2] += start[i + 1];
    }
    let mut pred = std::mem::take(&mut m.pred);
    pred.clear();
    pred.resize(m.succ.len(), NO_EDGE);
    walk(m, &mut |s, e| {
        let at = &mut start[e.to.index() + 1];
        pred[*at as usize] = Edge {
            kind: e.kind,
            to: StateId(s),
        };
        *at += 1;
    });
    start.truncate(n + 1);
    m.pred_start = start;
    m.pred = pred;
}

/// Marks a state whose `succ` row has not started.
const NO_ROW: (u32, u32) = (u32::MAX, u32::MAX);

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
        m.add_edge(s2, TransKind::Proc(0), s2);
        m.add_edge(s1, TransKind::Fault(0), s3);
        m.add_edge(s3, TransKind::Proc(0), s4);
        m.add_edge(s4, TransKind::Proc(0), s4);
        m.add_edge(s5, TransKind::Proc(0), s5);
        m.freeze()
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
        m.add_edge(a, TransKind::Proc(0), b);
        let m = m.freeze();
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
            assert_eq!(a.pred(s), b.pred(s));
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
            big.add_edge(
                StateId(k),
                TransKind::Proc(k as usize % 2),
                StateId((k + 1) % 8),
            );
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
