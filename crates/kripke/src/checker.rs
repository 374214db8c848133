//! A CTL model checker over fault-tolerant Kripke structures.
//!
//! Two satisfaction relations are provided (Section 2.4 of the paper):
//!
//! * [`Semantics::FaultFree`] — the paper's `⊨ₙ`, where the path
//!   quantifiers of `AU`/`EU`/`AW`/`EW` range over *fault-free* fullpaths
//!   only (fault transitions are ignored when following paths);
//! * [`Semantics::IncludeFaults`] — path quantifiers range over all
//!   fullpaths, including those that take fault transitions (the
//!   semantics needed by the alternative method of Section 8.3).
//!
//! In both relations the indexed nexttime modalities `AXᵢ`/`EXᵢ` range
//! over the program transitions of process `i` only — fault transitions
//! are never process transitions (`A` and `A_F` are disjoint).
//!
//! Fullpaths may be finite (a maximal path ending in a state with no
//! outgoing transitions). Following the paper's indexing
//! `i ∈ [0 : |π|]`, on a dead-end state `A[gUh]` and `E[gUh]` hold iff
//! `h` holds there, `EXᵢf` is false, and `AXᵢf` is vacuously true.
//!
//! (The paper's displayed path clause reads `j ∈ [1 : (i−1)]`, which
//! would exempt the first state from the `g` obligation; this conflicts
//! with the fixpoint characterization `E[gUh] ≡ h ∨ (g ∧ EX E[gUh])`
//! used by the decision procedure, so we implement the standard
//! `j ∈ [0 : (i−1)]` reading.)
//!
//! The checker is step 5's re-check of every explored structure and
//! CEGIS's verdict on every candidate, so its work is kept to flat
//! arrays: satisfaction sets are bitsets memoized densely by formula
//! id; the path predecessors under the semantics and each process's
//! program edges are laid out once per checker as `u32` arrays in
//! compressed-sparse-row form; and the until and unless modalities, and
//! [`Checker::eu_of`]/[`Checker::au_of`]/[`Checker::ag_of`], are one
//! worklist fixpoint over the predecessor array.

use crate::stateset::StateSet;
use crate::structure::{FtKripke, StateId, TransKind};
use ftsyn_ctl::{Formula, FormulaArena, FormulaId};
use std::cell::OnceCell;

/// Which fullpaths the path quantifiers range over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// The paper's `⊨ₙ`: fault-free fullpaths only.
    FaultFree,
    /// All fullpaths, including fault transitions.
    IncludeFaults,
}

/// A memoizing model checker for one structure and one semantics.
///
/// Satisfaction sets are memoized in a vector indexed by [`FormulaId`],
/// grown on demand, so formulas interned after the checker was created
/// are evaluated like any other. The edge arrays the modalities walk are
/// built on first use, each in one pass over the structure, as flat
/// `u32` arrays in compressed-sparse-row form:
///
/// * each state's *path predecessors* — the sources of its incoming
///   edges that the semantics follows (fault edges only under
///   [`Semantics::IncludeFaults`]), in `pred` order — which every
///   until/unless fixpoint walks backwards;
/// * each process's program edges as `(source, target)` pairs, in source
///   order, for the nexttime modalities.
///
/// # Examples
///
/// ```
/// use ftsyn_ctl::{FormulaArena, PropTable, Owner};
/// use ftsyn_kripke::{KripkeBuilder, State, PropSet, TransKind, Checker, Semantics};
///
/// let mut props = PropTable::new();
/// let p = props.add("p", Owner::Process(0)).unwrap();
/// let mut arena = FormulaArena::new(1);
///
/// let mut b = KripkeBuilder::new();
/// let s0 = b.push_state(State::new(PropSet::with_capacity(1)));
/// let s1 = b.push_state(State::new(PropSet::from_iter_with_capacity(1, [p])));
/// b.add_init(s0);
/// b.add_edge(s0, TransKind::Proc(0), s1);
/// b.add_edge(s1, TransKind::Proc(0), s1);
/// let m = b.freeze();
///
/// let fp = arena.prop(p);
/// let af = arena.af(fp);
/// let mut ck = Checker::new(&m, Semantics::FaultFree);
/// assert!(ck.holds(&arena, af, s0));
/// ```
pub struct Checker<'m> {
    model: &'m FtKripke,
    semantics: Semantics,
    /// The satisfaction set of each evaluated formula, by formula id.
    memo: Vec<Option<StateSet>>,
    /// Each proposition's states, indexed on the first literal
    /// evaluated.
    prop_sets: Option<Vec<StateSet>>,
    /// Path predecessors, built on the first fixpoint.
    path_pred: OnceCell<Csr>,
    /// Program edges by process, built on the first nexttime.
    proc_edges: OnceCell<ProcEdges>,
}

impl<'m> Checker<'m> {
    /// Creates a checker for `model` under the given semantics. Nothing
    /// is precomputed here (the semantic minimizer builds one checker
    /// per candidate model); the edge arrays the modalities share are
    /// built on first use.
    pub fn new(model: &'m FtKripke, semantics: Semantics) -> Checker<'m> {
        Checker {
            model,
            semantics,
            memo: Vec::new(),
            prop_sets: None,
            path_pred: OnceCell::new(),
            proc_edges: OnceCell::new(),
        }
    }

    /// The structure being checked.
    pub fn model(&self) -> &'m FtKripke {
        self.model
    }

    /// The semantics in force.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Whether `f` holds at state `s`.
    pub fn holds(&mut self, arena: &FormulaArena, f: FormulaId, s: StateId) -> bool {
        self.eval(arena, f).contains(s)
    }

    /// The set of states satisfying `f`.
    pub fn eval(&mut self, arena: &FormulaArena, f: FormulaId) -> &StateSet {
        let i = f.index();
        if self.memo.get(i).is_none_or(Option::is_none) {
            let v = self.compute(arena, f);
            if self.memo.len() <= i {
                self.memo.resize_with(i + 1, || None);
            }
            self.memo[i] = Some(v);
        }
        self.get(f)
    }

    /// The memoized set of an evaluated formula.
    fn get(&self, f: FormulaId) -> &StateSet {
        self.memo[f.index()].as_ref().expect("evaluated first")
    }

    /// Evaluates `a` and `b`, then borrows both satisfaction sets.
    fn eval2(
        &mut self,
        arena: &FormulaArena,
        a: FormulaId,
        b: FormulaId,
    ) -> (&StateSet, &StateSet) {
        self.eval(arena, a);
        self.eval(arena, b);
        (self.get(a), self.get(b))
    }

    fn compute(&mut self, arena: &FormulaArena, f: FormulaId) -> StateSet {
        let m = self.model;
        let n = m.len();
        match arena.get(f) {
            Formula::True => StateSet::full(n),
            Formula::False => StateSet::empty(n),
            Formula::Prop(p) | Formula::NegProp(p) => {
                let sets = self.prop_sets.get_or_insert_with(|| prop_sets(m));
                let x = sets
                    .get(p.index())
                    .cloned()
                    .unwrap_or_else(|| StateSet::empty(n));
                if matches!(arena.get(f), Formula::NegProp(_)) {
                    x.complement()
                } else {
                    x
                }
            }
            Formula::And(a, b) => {
                let (va, vb) = self.eval2(arena, a, b);
                let mut x = va.clone();
                x.intersect_with(vb);
                x
            }
            Formula::Or(a, b) => {
                let (va, vb) = self.eval2(arena, a, b);
                let mut x = va.clone();
                x.union_with(vb);
                x
            }
            // EXᵢ g: the sources of process-i edges into g. AXᵢ g: the
            // complement of the sources of process-i edges leaving g.
            Formula::Ex(i, g) | Formula::Ax(i, g) => {
                let ax = matches!(arena.get(f), Formula::Ax(..));
                self.eval(arena, g);
                let edges = self.proc_edges.get_or_init(|| ProcEdges::new(m));
                let vg = self.get(g);
                let mut x = StateSet::empty(n);
                let (src, dst) = edges.of(i);
                for (&s, &t) in src.iter().zip(dst) {
                    if vg.contains(StateId(t)) != ax {
                        x.insert(StateId(s));
                    }
                }
                if ax {
                    x.complement()
                } else {
                    x
                }
            }
            // A[gWh] = ¬E[¬g U ¬h] and E[gWh] = ¬A[¬g U ¬h].
            Formula::Eu(g, h) | Formula::Au(g, h) | Formula::Aw(g, h) | Formula::Ew(g, h) => {
                let universal = matches!(arena.get(f), Formula::Au(..) | Formula::Ew(..));
                let weak = matches!(arena.get(f), Formula::Aw(..) | Formula::Ew(..));
                self.eval(arena, g);
                self.eval(arena, h);
                let (vg, vh) = (self.get(g), self.get(h));
                if weak {
                    self.until(&vg.complement(), &vh.complement(), universal)
                        .complement()
                } else {
                    self.until(vg, vh, universal)
                }
            }
        }
    }

    /// Consumes the checker and returns its accumulated per-state
    /// labeling as a [`LabelCache`]. Evaluate every formula of interest
    /// with [`Checker::eval`] first; the cache then holds the exact
    /// satisfaction set of each evaluated formula *and all of its
    /// subformulae* (evaluation is bottom-up and memoized).
    pub fn into_cache(self) -> LabelCache {
        LabelCache { labels: self.memo }
    }

    /// Whether every state has at least one path-successor under this
    /// checker's semantics (i.e. the structure has no dead ends, so
    /// every fullpath is infinite).
    pub fn dead_end_free(&self) -> bool {
        let include_faults = self.semantics == Semantics::IncludeFaults;
        self.model.state_ids().all(|s| {
            self.model
                .succ(s)
                .iter()
                .any(|e| include_faults || !e.kind.is_fault())
        })
    }

    /// `E[gUh]` over explicit satisfaction sets (no arena needed): the
    /// fixpoint [`Checker::eval`] runs, exposed so callers holding
    /// precomputed sets can run one modality without mutating a formula
    /// arena.
    pub fn eu_of(&self, g: &StateSet, h: &StateSet) -> StateSet {
        self.until(g, h, false)
    }

    /// `A[gUh]` over explicit satisfaction sets.
    pub fn au_of(&self, g: &StateSet, h: &StateSet) -> StateSet {
        self.until(g, h, true)
    }

    /// `EF h` over an explicit satisfaction set.
    pub fn ef_of(&self, h: &StateSet) -> StateSet {
        self.eu_of(&StateSet::full(self.model.len()), h)
    }

    /// `AF h` over an explicit satisfaction set.
    pub fn af_of(&self, h: &StateSet) -> StateSet {
        self.au_of(&StateSet::full(self.model.len()), h)
    }

    /// `AG h` over an explicit satisfaction set (`¬EF¬h`).
    pub fn ag_of(&self, h: &StateSet) -> StateSet {
        self.ef_of(&h.complement()).complement()
    }

    /// The least fixpoint of `E[gUh]` (`universal` false) or `A[gUh]`
    /// (true): `X = h ∪ (g ∩ pre(X))`, where `pre` takes the states with
    /// some path successor in `X`, or with at least one and all of them
    /// in `X`. A worklist walks the path predecessors of each state that
    /// enters `X`; for `A`, each state counts down its path successors
    /// not yet in `X` and can enter at zero.
    ///
    /// Dead-end states satisfy `A[gUh]` and `E[gUh]` iff `h` holds there
    /// (the only fullpath is the single-state path): no edge leads out of
    /// them, so they only enter `X` through `h`.
    fn until(&self, g: &StateSet, h: &StateSet, universal: bool) -> StateSet {
        let pred = self
            .path_pred
            .get_or_init(|| Csr::path_pred(self.model, self.semantics));
        let mut remaining = if universal {
            pred.out_degrees()
        } else {
            Vec::new()
        };
        let mut x = h.clone();
        let mut work: Vec<u32> = x.iter().map(|s| s.0).collect();
        while let Some(t) = work.pop() {
            for &s in pred.row(t) {
                if universal {
                    let r = &mut remaining[s as usize];
                    *r -= 1;
                    if *r != 0 {
                        continue;
                    }
                }
                if g.contains(StateId(s)) && x.insert(StateId(s)) {
                    work.push(s);
                }
            }
        }
        x
    }
}

/// An adjacency relation in compressed-sparse-row form: row `i` is
/// `adj[start[i]..start[i + 1]]`.
struct Csr {
    start: Vec<u32>,
    adj: Vec<u32>,
}

impl Csr {
    /// Each state's path predecessors under `semantics`, in `pred`
    /// order.
    fn path_pred(m: &FtKripke, semantics: Semantics) -> Csr {
        let include_faults = semantics == Semantics::IncludeFaults;
        let mut start = Vec::with_capacity(m.len() + 1);
        let mut adj = Vec::new();
        start.push(0);
        for t in m.state_ids() {
            adj.extend(
                m.pred(t)
                    .iter()
                    .filter(|e| include_faults || !e.kind.is_fault())
                    .map(|e| e.to.0),
            );
            start.push(adj.len() as u32);
        }
        Csr { start, adj }
    }

    fn row(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.adj[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// How often each row index occurs as an entry: on path
    /// predecessors, each state's number of path successors.
    fn out_degrees(&self) -> Vec<u32> {
        let mut out = vec![0; self.start.len() - 1];
        for &s in &self.adj {
            out[s as usize] += 1;
        }
        out
    }
}

/// Every process's program edges, in source order, as parallel
/// source/target arrays: process `i` owns `start[i]..start[i + 1]`.
struct ProcEdges {
    start: Vec<u32>,
    src: Vec<u32>,
    dst: Vec<u32>,
}

impl ProcEdges {
    fn new(m: &FtKripke) -> ProcEdges {
        let mut start = Vec::new();
        for s in m.state_ids() {
            for e in m.succ(s) {
                if let TransKind::Proc(i) = e.kind {
                    if start.len() < i + 2 {
                        start.resize(i + 2, 0);
                    }
                    start[i + 1] += 1;
                }
            }
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let total = start.last().map_or(0, |&n| n as usize);
        let (mut src, mut dst) = (vec![0; total], vec![0; total]);
        let mut fill = start.clone();
        for s in m.state_ids() {
            for e in m.succ(s) {
                if let TransKind::Proc(i) = e.kind {
                    let at = fill[i] as usize;
                    src[at] = s.0;
                    dst[at] = e.to.0;
                    fill[i] += 1;
                }
            }
        }
        ProcEdges { start, src, dst }
    }

    /// Process `i`'s edges (none for a process with no edges).
    fn of(&self, i: usize) -> (&[u32], &[u32]) {
        match self.start.get(i + 1) {
            Some(&end) => {
                let r = self.start[i] as usize..end as usize;
                (&self.src[r.clone()], &self.dst[r])
            }
            None => (&[], &[]),
        }
    }
}

/// Every proposition's set of states (up to the highest proposition
/// true anywhere).
fn prop_sets(m: &FtKripke) -> Vec<StateSet> {
    let mut sets: Vec<StateSet> = Vec::new();
    for s in m.state_ids() {
        for (w, &word) in m.props(s).words().iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let p = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if sets.len() <= p {
                    sets.resize_with(p + 1, || StateSet::empty(m.len()));
                }
                sets[p].insert(s);
            }
        }
    }
    sets
}

/// A frozen per-state CTL labeling captured from a [`Checker`] run:
/// formula id → satisfaction set over the model the checker was built
/// on, stored densely by formula id. The cache owns plain data (no
/// borrow of the model), so it can outlive the checker; the semantic
/// minimizer uses one cache per
/// accepted model to transfer base-model truths onto merge candidates
/// instead of re-checking them.
#[derive(Clone, Debug, Default)]
pub struct LabelCache {
    labels: Vec<Option<StateSet>>,
}

impl LabelCache {
    /// The satisfaction set of `f`, if `f` was evaluated (directly or as
    /// a subformula) before the cache was captured.
    pub fn get(&self, f: FormulaId) -> Option<&StateSet> {
        self.labels.get(f.index()).and_then(Option::as_ref)
    }

    /// Whether `f` holds at `s`, if `f` is cached.
    pub fn holds(&self, f: FormulaId, s: StateId) -> Option<bool> {
        self.get(f).map(|v| v.contains(s))
    }

    /// Whether `f` is cached and holds at *every* state of the model.
    pub fn all_true(&self, f: FormulaId) -> bool {
        self.get(f).is_some_and(StateSet::is_full)
    }

    /// Ids of all cached formulae, in id order.
    pub fn formulas(&self) -> impl Iterator<Item = FormulaId> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_some())
            .map(|(i, _)| FormulaId(i as u32))
    }

    /// Number of cached formulae.
    pub fn len(&self) -> usize {
        self.formulas().count()
    }

    /// Whether nothing was cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{PropSet, State};
    use crate::structure::{KripkeBuilder, TransKind};
    use ftsyn_ctl::{Owner, PropId, PropTable};

    struct Fixture {
        arena: FormulaArena,
        props: PropTable,
        m: FtKripke,
        ids: Vec<StateId>,
    }

    /// Builds the classic mutex-like ring:
    /// s0{n} → s1{t} → s2{c} → s0, with a fault edge s0 -F-> s3{bad},
    /// s3 → s3 (self loop) and s3 → s0 recovery.
    fn fixture() -> Fixture {
        let (props, m, ids) = ring();
        Fixture {
            arena: FormulaArena::new(2),
            props,
            m: m.freeze(),
            ids,
        }
    }

    /// The fixture's propositions, structure (not frozen yet) and states.
    fn ring() -> (PropTable, KripkeBuilder, Vec<StateId>) {
        let mut props = PropTable::new();
        let pn = props.add("n", Owner::Process(0)).unwrap();
        let pt = props.add("t", Owner::Process(0)).unwrap();
        let pc = props.add("c", Owner::Process(0)).unwrap();
        let pbad = props.add("bad", Owner::Process(0)).unwrap();
        let mut m = KripkeBuilder::new();
        let mk =
            |ps: &[PropId]| State::new(PropSet::from_iter_with_capacity(4, ps.iter().copied()));
        let s0 = m.push_state(mk(&[pn]));
        let s1 = m.push_state(mk(&[pt]));
        let s2 = m.push_state(mk(&[pc]));
        let s3 = m.push_state(mk(&[pbad]));
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s0, TransKind::Fault(0), s3);
        m.add_edge(s1, TransKind::Proc(0), s2);
        m.add_edge(s2, TransKind::Proc(0), s0);
        m.add_edge(s3, TransKind::Proc(1), s0);
        (props, m, vec![s0, s1, s2, s3])
    }

    fn prop(fx: &mut Fixture, name: &str) -> FormulaId {
        let p = fx.props.id(name).unwrap();
        fx.arena.prop(p)
    }

    #[test]
    fn af_holds_on_cycle_reaching_goal() {
        let mut fx = fixture();
        let c = prop(&mut fx, "c");
        let af = fx.arena.af(c);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        // Fault-free from s0 the only path is the ring, so AF c holds.
        assert!(ck.holds(&fx.arena, af, fx.ids[0]));
        assert!(ck.holds(&fx.arena, af, fx.ids[1]));
    }

    #[test]
    fn fault_free_vs_include_faults() {
        let mut fx = fixture();
        let bad = prop(&mut fx, "bad");
        let nbad = fx.arena.not(bad);
        let ag = fx.arena.ag(nbad);
        // Under |=n the fault edge is invisible: AG ~bad holds at s0.
        let mut ckn = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(ckn.holds(&fx.arena, ag, fx.ids[0]));
        // Under |= with faults, the path through the fault reaches bad.
        let mut ckf = Checker::new(&fx.m, Semantics::IncludeFaults);
        assert!(!ckf.holds(&fx.arena, ag, fx.ids[0]));
    }

    #[test]
    fn ex_ax_are_per_process_and_ignore_faults() {
        let mut fx = fixture();
        let t = prop(&mut fx, "t");
        let ex0 = fx.arena.ex(0, t);
        let ex1 = fx.arena.ex(1, t);
        // s0's fault successor s3 is not an EX-successor of any process.
        let bad = prop(&mut fx, "bad");
        let exb0 = fx.arena.ex(0, bad);
        let exb1 = fx.arena.ex(1, bad);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(ck.holds(&fx.arena, ex0, fx.ids[0]));
        assert!(!ck.holds(&fx.arena, ex1, fx.ids[0]));
        assert!(!ck.holds(&fx.arena, exb0, fx.ids[0]));
        assert!(!ck.holds(&fx.arena, exb1, fx.ids[0]));
    }

    #[test]
    fn dead_end_semantics() {
        let mut props = PropTable::new();
        let p = props.add("p", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let mut m = KripkeBuilder::new();
        let dead_p = m.push_state(State::new(PropSet::from_iter_with_capacity(1, [p])));
        let dead_np = m.push_state(State::new(PropSet::with_capacity(1)));
        m.add_init(dead_p);
        m.add_init(dead_np);
        let m = m.freeze();
        let fp = arena.prop(p);
        let af = arena.af(fp);
        let ef = arena.ef(fp);
        let ax = arena.ax(0, fp);
        let ex = arena.ex(0, fp);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        // Dead end with p: the single-state fullpath fulfills AF/EF.
        assert!(ck.holds(&arena, af, dead_p));
        assert!(ck.holds(&arena, ef, dead_p));
        // Dead end without p: unfulfillable.
        assert!(!ck.holds(&arena, af, dead_np));
        assert!(!ck.holds(&arena, ef, dead_np));
        // AX vacuous, EX false on dead ends.
        assert!(ck.holds(&arena, ax, dead_np));
        assert!(!ck.holds(&arena, ex, dead_p));
    }

    #[test]
    fn weak_until_duality() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let c = prop(&mut fx, "c");
        // E[c W n]: exists a path where n holds until c∧n releases — on
        // the ring, n holds at s0 and the next state has ¬n, so the
        // release c∧n never fires but n doesn't hold forever either.
        let ew = fx.arena.ew(c, n);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(!ck.holds(&fx.arena, ew, fx.ids[0]));
        // A[false W n] = AG n fails at s0 (t is reached).
        let ag = fx.arena.ag(n);
        assert!(!ck.holds(&fx.arena, ag, fx.ids[0]));
        // EG true holds everywhere (infinite ring).
        let t = fx.arena.tru();
        let eg = fx.arena.eg(t);
        assert!(ck.holds(&fx.arena, eg, fx.ids[0]));
    }

    #[test]
    fn vector_fixpoints_match_formula_evaluation() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let c = prop(&mut fx, "c");
        for semantics in [Semantics::FaultFree, Semantics::IncludeFaults] {
            let mut ck = Checker::new(&fx.m, semantics);
            let vn = ck.eval(&fx.arena, n).clone();
            let vc = ck.eval(&fx.arena, c).clone();
            let ef = fx.arena.ef(c);
            let af = fx.arena.af(c);
            let ag = fx.arena.ag(n);
            let eu = fx.arena.eu(n, c);
            let au = fx.arena.au(n, c);
            assert_eq!(&ck.ef_of(&vc), ck.eval(&fx.arena, ef));
            assert_eq!(&ck.af_of(&vc), ck.eval(&fx.arena, af));
            assert_eq!(&ck.ag_of(&vn), ck.eval(&fx.arena, ag));
            assert_eq!(&ck.eu_of(&vn, &vc), ck.eval(&fx.arena, eu));
            assert_eq!(&ck.au_of(&vn, &vc), ck.eval(&fx.arena, au));
        }
    }

    #[test]
    fn formulas_interned_after_the_checker_was_created_are_evaluated() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(ck.holds(&fx.arena, n, fx.ids[0]));
        // Interned now, with ids beyond everything evaluated so far.
        let c = fx.arena.prop(fx.props.id("c").unwrap());
        let af = fx.arena.af(c);
        let eg = fx.arena.eg(n);
        assert!(af.index() > n.index() && eg.index() > n.index());
        assert!(ck.holds(&fx.arena, af, fx.ids[0]));
        assert!(!ck.holds(&fx.arena, eg, fx.ids[0]));
        let cache = ck.into_cache();
        assert_eq!(cache.holds(af, fx.ids[1]), Some(true));
        assert_eq!(cache.holds(c, fx.ids[2]), Some(true));
        assert!(cache.formulas().any(|f| f == eg));
    }

    #[test]
    fn label_cache_captures_subformulae_and_all_true() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let c = prop(&mut fx, "c");
        let nc = fx.arena.or(n, c);
        let ef = fx.arena.ef(nc);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        ck.eval(&fx.arena, ef);
        let cache = ck.into_cache();
        // The root and its subformulae are all cached.
        assert!(cache.get(ef).is_some());
        assert!(cache.get(nc).is_some());
        assert_eq!(cache.holds(n, fx.ids[0]), Some(true));
        assert_eq!(cache.holds(n, fx.ids[1]), Some(false));
        // EF(n|c) holds everywhere except the dead-end-free ring… it
        // holds at every state of this fixture.
        assert!(cache.all_true(ef));
        assert!(!cache.all_true(n));
        // Unevaluated formulae are absent, and absent means not all-true.
        let bad = prop(&mut fx, "bad");
        assert!(cache.get(bad).is_none());
        assert!(!cache.all_true(bad));
        assert!(!cache.is_empty());
        assert!(cache.len() >= 4);
    }

    #[test]
    fn dead_end_detection_respects_semantics() {
        let fx = fixture();
        // Every state of the fixture has a successor under both
        // semantics (s3 has a Proc edge back to s0).
        assert!(Checker::new(&fx.m, Semantics::FaultFree).dead_end_free());
        assert!(Checker::new(&fx.m, Semantics::IncludeFaults).dead_end_free());
        // A state whose only successor is a fault edge is a dead end
        // under fault-free semantics but not under include-faults.
        let (_, mut m, ids) = ring();
        let lone = m.push_state(State::new(PropSet::with_capacity(4)));
        m.add_edge(lone, TransKind::Fault(0), ids[0]);
        let m = m.freeze();
        assert!(!Checker::new(&m, Semantics::FaultFree).dead_end_free());
        assert!(Checker::new(&m, Semantics::IncludeFaults).dead_end_free());
    }

    #[test]
    fn au_requires_g_along_the_way() {
        let mut fx = fixture();
        let n = prop(&mut fx, "n");
        let t = prop(&mut fx, "t");
        let c = prop(&mut fx, "c");
        // A[(n|t) U c] holds at s0 along the ring.
        let nt = fx.arena.or(n, t);
        let au = fx.arena.au(nt, c);
        let mut ck = Checker::new(&fx.m, Semantics::FaultFree);
        assert!(ck.holds(&fx.arena, au, fx.ids[0]));
        // A[n U c] fails: t-state breaks the g-chain.
        let au2 = fx.arena.au(n, c);
        assert!(!ck.holds(&fx.arena, au2, fx.ids[0]));
    }
}
