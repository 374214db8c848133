//! Hash-consed CTL formulae in positive normal form.
//!
//! Formulae are kept in *positive normal form* (PNF) at all times:
//! negation is applied only to atomic propositions. The [`FormulaArena`]
//! constructors push negations inward eagerly using the dualities of the
//! paper (Section 4): `¬A[gUh] ≡ E[¬gW¬h]`, `¬AXᵢf ≡ EXᵢ¬f`, De Morgan,
//! and so on.
//!
//! The modalities `AF`, `EF`, `AG`, `EG` and the unindexed `AX`/`EX` are
//! treated as the paper's abbreviations and are desugared at construction:
//!
//! * `AF g ≡ A[true U g]`, `EF g ≡ E[true U g]`
//! * `AG g ≡ A[false W g]`, `EG g ≡ E[false W g]`
//! * `AX g ≡ AX₁g ∧ … ∧ AX_I g`, `EX g ≡ EX₁g ∨ … ∨ EX_I g`
//!
//! Note the argument convention for weak until, taken from the paper's
//! α-expansion `A[gWh] ≡ h ∧ (g ∨ AX A[gWh])`: in `A[g W h]` the second
//! argument `h` is the invariant that holds up to and including the first
//! state where the release `g` holds.

use crate::ids::{FormulaId, PropId};
use std::collections::HashMap;

/// A CTL formula node in positive normal form.
///
/// All children are [`FormulaId`]s into the owning [`FormulaArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A positive literal.
    Prop(PropId),
    /// A negative literal (the only form of negation in PNF).
    NegProp(PropId),
    /// Conjunction.
    And(FormulaId, FormulaId),
    /// Disjunction.
    Or(FormulaId, FormulaId),
    /// `AXᵢ f`: after every transition of process `i`, `f` holds.
    Ax(usize, FormulaId),
    /// `EXᵢ f`: after some transition of process `i`, `f` holds.
    Ex(usize, FormulaId),
    /// `A[g U h]`: along all fullpaths, `h` eventually holds, with `g`
    /// holding until then.
    Au(FormulaId, FormulaId),
    /// `E[g U h]`: along some fullpath, `h` eventually holds, with `g`
    /// holding until then.
    Eu(FormulaId, FormulaId),
    /// `A[g W h]` (weak): along all fullpaths, `h` holds up to and
    /// including the first state where `g` holds; if `g` never holds, `h`
    /// holds forever. Defined as `¬E[¬g U ¬h]`.
    Aw(FormulaId, FormulaId),
    /// `E[g W h]` (weak): as [`Formula::Aw`] but along some fullpath.
    /// Defined as `¬A[¬g U ¬h]`.
    Ew(FormulaId, FormulaId),
}

/// Arena of hash-consed PNF formulae for a fixed number of processes.
///
/// # Examples
///
/// ```
/// use ftsyn_ctl::{FormulaArena, PropTable, Owner};
///
/// let mut props = PropTable::new();
/// let n1 = props.add("N1", Owner::Process(0)).unwrap();
/// let mut arena = FormulaArena::new(2);
/// let p = arena.prop(n1);
/// let f = arena.ag(p);
/// // Hash-consing: building the same formula twice yields the same id.
/// assert_eq!(f, arena.ag(p));
/// ```
#[derive(Clone, Debug)]
pub struct FormulaArena {
    nodes: Vec<Formula>,
    index: HashMap<Formula, FormulaId>,
    num_procs: usize,
}

impl FormulaArena {
    /// Creates an arena for formulae over `num_procs` processes.
    ///
    /// # Panics
    ///
    /// Panics if `num_procs` is zero.
    pub fn new(num_procs: usize) -> Self {
        assert!(num_procs > 0, "at least one process is required");
        let mut a = FormulaArena {
            nodes: Vec::new(),
            index: HashMap::new(),
            num_procs,
        };
        // Pre-intern the constants so `tru()`/`fls()` are infallible and
        // stable across arenas.
        a.intern(Formula::True);
        a.intern(Formula::False);
        a
    }

    /// The number of processes this arena was created for.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Number of distinct formulae interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no formulae (never true in practice, since
    /// the constants are pre-interned).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn intern(&mut self, f: Formula) -> FormulaId {
        if let Some(&id) = self.index.get(&f) {
            return id;
        }
        let id = FormulaId(self.nodes.len() as u32);
        self.nodes.push(f);
        self.index.insert(f, id);
        id
    }

    /// The formula node for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this arena.
    pub fn get(&self, id: FormulaId) -> Formula {
        self.nodes[id.index()]
    }

    /// The constant `true`.
    pub fn tru(&mut self) -> FormulaId {
        self.intern(Formula::True)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> FormulaId {
        self.intern(Formula::False)
    }

    /// The positive literal for `p`.
    pub fn prop(&mut self, p: PropId) -> FormulaId {
        self.intern(Formula::Prop(p))
    }

    /// The negative literal for `p`.
    pub fn neg_prop(&mut self, p: PropId) -> FormulaId {
        self.intern(Formula::NegProp(p))
    }

    /// Conjunction with constant folding and idempotence
    /// (`true ∧ f = f`, `false ∧ f = false`, `f ∧ f = f`).
    pub fn and(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match (self.get(a), self.get(b)) {
            (Formula::True, _) => b,
            (_, Formula::True) => a,
            (Formula::False, _) | (_, Formula::False) => self.fls(),
            _ if a == b => a,
            _ => self.intern(Formula::And(a, b)),
        }
    }

    /// Disjunction with constant folding and idempotence.
    pub fn or(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        match (self.get(a), self.get(b)) {
            (Formula::False, _) => b,
            (_, Formula::False) => a,
            (Formula::True, _) | (_, Formula::True) => self.tru(),
            _ if a == b => a,
            _ => self.intern(Formula::Or(a, b)),
        }
    }

    /// Right-associated conjunction of all formulae in `items`.
    ///
    /// Returns `true` for an empty iterator.
    pub fn and_all<I: IntoIterator<Item = FormulaId>>(&mut self, items: I) -> FormulaId {
        let items: Vec<_> = items.into_iter().collect();
        let mut acc = self.tru();
        for &f in items.iter().rev() {
            acc = self.and(f, acc);
        }
        acc
    }

    /// Right-associated disjunction of all formulae in `items`.
    ///
    /// Returns `false` for an empty iterator.
    pub fn or_all<I: IntoIterator<Item = FormulaId>>(&mut self, items: I) -> FormulaId {
        let items: Vec<_> = items.into_iter().collect();
        let mut acc = self.fls();
        for &f in items.iter().rev() {
            acc = self.or(f, acc);
        }
        acc
    }

    /// Negation, pushed inward to maintain positive normal form.
    pub fn not(&mut self, f: FormulaId) -> FormulaId {
        match self.get(f) {
            Formula::True => self.fls(),
            Formula::False => self.tru(),
            Formula::Prop(p) => self.neg_prop(p),
            Formula::NegProp(p) => self.prop(p),
            Formula::And(a, b) => {
                let na = self.not(a);
                let nb = self.not(b);
                self.or(na, nb)
            }
            Formula::Or(a, b) => {
                let na = self.not(a);
                let nb = self.not(b);
                self.and(na, nb)
            }
            Formula::Ax(i, g) => {
                let ng = self.not(g);
                self.ex(i, ng)
            }
            Formula::Ex(i, g) => {
                let ng = self.not(g);
                self.ax(i, ng)
            }
            Formula::Au(g, h) => {
                let ng = self.not(g);
                let nh = self.not(h);
                self.ew(ng, nh)
            }
            Formula::Eu(g, h) => {
                let ng = self.not(g);
                let nh = self.not(h);
                self.aw(ng, nh)
            }
            Formula::Aw(g, h) => {
                let ng = self.not(g);
                let nh = self.not(h);
                self.eu(ng, nh)
            }
            Formula::Ew(g, h) => {
                let ng = self.not(g);
                let nh = self.not(h);
                self.au(ng, nh)
            }
        }
    }

    /// Implication `a ⇒ b`, desugared to `¬a ∨ b`.
    pub fn implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Biconditional `a ≡ b`, desugared to `(a ⇒ b) ∧ (b ⇒ a)`.
    pub fn iff(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let ab = self.implies(a, b);
        let ba = self.implies(b, a);
        self.and(ab, ba)
    }

    /// `AXᵢ f` for 0-based process index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_procs`.
    pub fn ax(&mut self, i: usize, f: FormulaId) -> FormulaId {
        assert!(i < self.num_procs, "process index out of range");
        self.intern(Formula::Ax(i, f))
    }

    /// `EXᵢ f` for 0-based process index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_procs`.
    pub fn ex(&mut self, i: usize, f: FormulaId) -> FormulaId {
        assert!(i < self.num_procs, "process index out of range");
        self.intern(Formula::Ex(i, f))
    }

    /// Unindexed `AX f = AX₁f ∧ … ∧ AX_I f`.
    pub fn ax_all(&mut self, f: FormulaId) -> FormulaId {
        let parts: Vec<_> = (0..self.num_procs).map(|i| self.ax(i, f)).collect();
        self.and_all(parts)
    }

    /// Unindexed `EX f = EX₁f ∨ … ∨ EX_I f`.
    pub fn ex_all(&mut self, f: FormulaId) -> FormulaId {
        let parts: Vec<_> = (0..self.num_procs).map(|i| self.ex(i, f)).collect();
        self.or_all(parts)
    }

    /// `A[g U h]`.
    pub fn au(&mut self, g: FormulaId, h: FormulaId) -> FormulaId {
        self.intern(Formula::Au(g, h))
    }

    /// `E[g U h]`.
    pub fn eu(&mut self, g: FormulaId, h: FormulaId) -> FormulaId {
        self.intern(Formula::Eu(g, h))
    }

    /// `A[g W h]` — see the module docs for the argument convention.
    pub fn aw(&mut self, g: FormulaId, h: FormulaId) -> FormulaId {
        self.intern(Formula::Aw(g, h))
    }

    /// `E[g W h]` — see the module docs for the argument convention.
    pub fn ew(&mut self, g: FormulaId, h: FormulaId) -> FormulaId {
        self.intern(Formula::Ew(g, h))
    }

    /// `AF g ≡ A[true U g]`.
    pub fn af(&mut self, g: FormulaId) -> FormulaId {
        let t = self.tru();
        self.au(t, g)
    }

    /// `EF g ≡ E[true U g]`.
    pub fn ef(&mut self, g: FormulaId) -> FormulaId {
        let t = self.tru();
        self.eu(t, g)
    }

    /// `AG g ≡ A[false W g]`.
    pub fn ag(&mut self, g: FormulaId) -> FormulaId {
        let f = self.fls();
        self.aw(f, g)
    }

    /// `EG g ≡ E[false W g]`.
    pub fn eg(&mut self, g: FormulaId) -> FormulaId {
        let f = self.fls();
        self.ew(f, g)
    }

    /// The paper's length measure `|f|`: number of occurrences of atomic
    /// propositions, propositional connectives and CTL modalities.
    pub fn length(&self, f: FormulaId) -> usize {
        match self.get(f) {
            Formula::True | Formula::False | Formula::Prop(_) => 1,
            Formula::NegProp(_) => 2,
            Formula::And(a, b) | Formula::Or(a, b) => 1 + self.length(a) + self.length(b),
            Formula::Ax(_, g) | Formula::Ex(_, g) => 1 + self.length(g),
            Formula::Au(g, h) | Formula::Eu(g, h) | Formula::Aw(g, h) | Formula::Ew(g, h) => {
                1 + self.length(g) + self.length(h)
            }
        }
    }

    /// Splits a right-nested conjunction into its conjuncts.
    pub fn conjuncts(&self, f: FormulaId) -> Vec<FormulaId> {
        let mut out = Vec::new();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            match self.get(g) {
                Formula::And(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                _ => out.push(g),
            }
        }
        out
    }

    /// Whether `f` contains an eventuality (`AU`/`EU`, hence also the
    /// derived `AF`/`EF`) anywhere. Formulae without eventualities are
    /// syntactically *safety* formulae (invariances); this test implements
    /// the safety-extraction assumption of Section 2.5.
    pub fn contains_eventuality(&self, f: FormulaId) -> bool {
        match self.get(f) {
            Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => false,
            Formula::And(a, b) | Formula::Or(a, b) => {
                self.contains_eventuality(a) || self.contains_eventuality(b)
            }
            Formula::Ax(_, g) | Formula::Ex(_, g) => self.contains_eventuality(g),
            Formula::Au(_, _) | Formula::Eu(_, _) => true,
            Formula::Aw(g, h) | Formula::Ew(g, h) => {
                self.contains_eventuality(g) || self.contains_eventuality(h)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{Owner, PropTable};

    fn setup() -> (FormulaArena, PropId, PropId) {
        let mut props = PropTable::new();
        let p = props.add("p", Owner::Process(0)).unwrap();
        let q = props.add("q", Owner::Process(1)).unwrap();
        (FormulaArena::new(2), p, q)
    }

    #[test]
    fn hash_consing_dedups() {
        let (mut a, p, _) = setup();
        let x = a.prop(p);
        let f1 = a.af(x);
        let f2 = a.af(x);
        assert_eq!(f1, f2);
    }

    #[test]
    fn not_is_involutive() {
        let (mut a, p, q) = setup();
        let x = a.prop(p);
        let y = a.prop(q);
        let au = a.au(x, y);
        let ag = a.ag(au);
        let ex = a.ex(1, ag);
        for f in [x, y, au, ag, ex] {
            let nf = a.not(f);
            assert_eq!(a.not(nf), f, "double negation must restore {f:?}");
        }
    }

    #[test]
    fn negation_dualities_match_paper() {
        let (mut a, p, q) = setup();
        let x = a.prop(p);
        let y = a.prop(q);
        // ¬A[gUh] ≡ E[¬gW¬h]
        let au = a.au(x, y);
        let nau = a.not(au);
        let nx = a.not(x);
        let ny = a.not(y);
        assert_eq!(a.get(nau), Formula::Ew(nx, ny));
        // ¬AXᵢ f ≡ EXᵢ ¬f
        let ax = a.ax(0, x);
        let nax = a.not(ax);
        assert_eq!(a.get(nax), Formula::Ex(0, nx));
    }

    #[test]
    fn and_or_simplification() {
        let (mut a, p, _) = setup();
        let x = a.prop(p);
        let t = a.tru();
        let f = a.fls();
        assert_eq!(a.and(t, x), x);
        assert_eq!(a.and(x, f), f);
        assert_eq!(a.or(f, x), x);
        assert_eq!(a.or(x, t), t);
        assert_eq!(a.and(x, x), x);
        assert_eq!(a.or(x, x), x);
    }

    #[test]
    fn sugar_desugars_per_paper() {
        let (mut a, p, _) = setup();
        let x = a.prop(p);
        let t = a.tru();
        let fl = a.fls();
        let af = a.af(x);
        assert_eq!(a.get(af), Formula::Au(t, x));
        let ag = a.ag(x);
        assert_eq!(a.get(ag), Formula::Aw(fl, x));
        let ex_all = a.ex_all(x);
        // EX x over 2 processes = EX₀x ∨ EX₁x
        let e0 = a.ex(0, x);
        let e1 = a.ex(1, x);
        assert_eq!(ex_all, a.or(e0, e1));
    }

    #[test]
    fn length_counts_connectives() {
        let (mut a, p, q) = setup();
        let x = a.prop(p);
        let y = a.prop(q);
        // AG(p ⇒ AF q) = A[false W (¬p ∨ A[true U q])]
        let af = a.af(y);
        let imp = a.implies(x, af);
        let f = a.ag(imp);
        // Aw(1) + False(1) + Or(1) + NegProp(2) + Au(1) + True(1) + q(1) = 8
        assert_eq!(a.length(f), 8);
    }

    #[test]
    fn conjunct_splitting() {
        let (mut a, p, q) = setup();
        let x = a.prop(p);
        let y = a.prop(q);
        let ny = a.neg_prop(q);
        let c1 = a.and(y, ny);
        // folded to false? p ∧ (q ∧ ¬q) — no contradiction folding, so And stays
        let f = a.and(x, c1);
        let cs = a.conjuncts(f);
        assert_eq!(cs, vec![x, y, ny]);
    }

    #[test]
    fn eventuality_detection() {
        let (mut a, p, q) = setup();
        let x = a.prop(p);
        let y = a.prop(q);
        let af = a.af(y);
        let safety = a.ag(x);
        let mixed = a.ag(af);
        assert!(!a.contains_eventuality(safety));
        assert!(a.contains_eventuality(af));
        assert!(a.contains_eventuality(mixed));
    }

    #[test]
    #[should_panic(expected = "process index out of range")]
    fn process_index_validated() {
        let (mut a, p, _) = setup();
        let x = a.prop(p);
        let _ = a.ax(2, x);
    }
}
