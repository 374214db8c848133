//! The generalized Fisher–Ladner closure and dense label sets.
//!
//! The decision procedure works with node labels that are subsets of
//! `cl(f₀)` (Definition 4.1 of the paper). For efficiency we compute the
//! closure once, assign every member a dense index, and represent labels
//! as bitsets ([`LabelSet`]) over those indices. Each closure member also
//! carries its pre-resolved α/β classification ([`EntryKind`]) so the
//! tableau's `Blocks` expansion never needs to re-classify or mutate the
//! formula arena.
//!
//! Beyond Definition 4.1, the closure here also contains:
//!
//! * the α-/β-expansion *companion* formulae (e.g. `g ∧ AX A[gUh]` for
//!   `A[gUh]`, with `AX` desugared to a conjunction over process-indexed
//!   `AXᵢ`), because those composites appear verbatim in node labels
//!   during `Blocks` expansion;
//! * both literals `p`/`¬p` of every registered atomic proposition, so
//!   fault-successor OR-nodes can pin a complete valuation (Def. 5.1.1);
//! * `EXᵢ true` for every process, used by the `Tiles` special case that
//!   splits a node with `AX` formulae but no `EX` formulae.

use crate::arena::{Formula, FormulaArena};
use crate::ids::{FormulaId, PropId};
use crate::props::PropTable;
use std::collections::HashMap;

/// Dense index of a formula within a [`Closure`].
pub type ClosureIdx = u32;

/// Pre-resolved classification of a closure member.
///
/// `Alpha`-classified formulae (`∧`, `AW`, `EW`) are satisfied by
/// satisfying both components; `Beta`-classified ones (`∨`, `AU`, `EU`)
/// by satisfying either component. Components are stored as closure
/// indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// The constant `true`.
    True,
    /// The constant `false` (propositionally inconsistent on its own).
    False,
    /// A literal over `prop`, positive or negative.
    Lit {
        /// The proposition.
        prop: PropId,
        /// `true` for `p`, `false` for `¬p`.
        positive: bool,
    },
    /// Conjunction — α with components `a`, `b`.
    And {
        /// First conjunct.
        a: ClosureIdx,
        /// Second conjunct.
        b: ClosureIdx,
    },
    /// Disjunction — β with components `a`, `b`.
    Or {
        /// First disjunct.
        a: ClosureIdx,
        /// Second disjunct.
        b: ClosureIdx,
    },
    /// `AXᵢ body` — elementary.
    Ax {
        /// 0-based process index.
        proc: usize,
        /// Closure index of the body.
        body: ClosureIdx,
    },
    /// `EXᵢ body` — elementary.
    Ex {
        /// 0-based process index.
        proc: usize,
        /// Closure index of the body.
        body: ClosureIdx,
    },
    /// `A[g U h]` — β with components `h` and `g ∧ AX A[gUh]`.
    Au {
        /// Closure index of `g`.
        g: ClosureIdx,
        /// Closure index of `h` (this is β₁).
        h: ClosureIdx,
        /// Closure index of `g ∧ AX A[gUh]` (this is β₂).
        beta2: ClosureIdx,
    },
    /// `E[g U h]` — β with components `h` and `g ∧ EX E[gUh]`.
    Eu {
        /// Closure index of `g`.
        g: ClosureIdx,
        /// Closure index of `h` (this is β₁).
        h: ClosureIdx,
        /// Closure index of `g ∧ EX E[gUh]` (this is β₂).
        beta2: ClosureIdx,
    },
    /// `A[g W h]` — α with components `h` and `g ∨ AX A[gWh]`.
    Aw {
        /// Closure index of `g`.
        g: ClosureIdx,
        /// Closure index of `h` (this is α₁).
        h: ClosureIdx,
        /// Closure index of `g ∨ AX A[gWh]` (this is α₂).
        alpha2: ClosureIdx,
    },
    /// `E[g W h]` — α with components `h` and `g ∨ EX E[gWh]`.
    Ew {
        /// Closure index of `g`.
        g: ClosureIdx,
        /// Closure index of `h` (this is α₁).
        h: ClosureIdx,
        /// Closure index of `g ∨ EX E[gWh]` (this is α₂).
        alpha2: ClosureIdx,
    },
}

/// How a closure member behaves during `Blocks` expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expansion {
    /// Elementary: literal, constant, or (indexed) nexttime formula.
    Elementary,
    /// α-formula: both components must be added.
    Alpha(ClosureIdx, ClosureIdx),
    /// β-formula: one of the components must be added.
    Beta(ClosureIdx, ClosureIdx),
}

/// A member of the closure: its formula id plus resolved kind.
#[derive(Clone, Copy, Debug)]
pub struct ClosureEntry {
    /// The interned formula.
    pub id: FormulaId,
    /// Resolved classification.
    pub kind: EntryKind,
}

/// The closure of a set of root formulae, with dense indexing.
#[derive(Clone, Debug)]
pub struct Closure {
    entries: Vec<ClosureEntry>,
    pos: HashMap<FormulaId, ClosureIdx>,
    /// `lit_pos[p] = (idx of p, idx of ¬p)` if both are present.
    lit_idx: HashMap<PropId, (Option<ClosureIdx>, Option<ClosureIdx>)>,
    /// `EXᵢ true` for each process, if registered.
    ex_true: Vec<ClosureIdx>,
    false_idx: ClosureIdx,
    true_idx: ClosureIdx,
    words: usize,
    /// Bits of the positive literals whose negative twin sits at the
    /// next index in the same word; a label word `w` then carries a
    /// `p ∧ ¬p` conflict iff `w & (w >> 1) & adj_pos_mask` is nonzero.
    adj_pos_mask: Box<[u64]>,
    /// Literal pairs that did not land word-adjacent (empty in practice:
    /// the builder seeds `p`/`¬p` back to back); checked one by one.
    slow_pairs: Vec<(ClosureIdx, ClosureIdx)>,
    /// `opposite_lit[i]` = closure index of the complementary literal of
    /// member `i`, or `NO_IDX` when `i` is not a literal (or has no
    /// registered complement).
    opposite_lit: Box<[ClosureIdx]>,
    /// Bits of all `AXᵢ` members.
    ax_mask: Box<[u64]>,
    /// Bits of all `EXᵢ` members.
    ex_mask: Box<[u64]>,
}

/// Sentinel for "no closure index" in dense side tables.
const NO_IDX: ClosureIdx = ClosureIdx::MAX;

impl Closure {
    /// Builds the closure of `roots` over `arena`.
    ///
    /// All literals of every proposition in `props` and `EXᵢ true` for
    /// every process are included in addition to `cl(roots)`; see the
    /// module docs for why.
    ///
    /// The arena is mutated: expansion companion formulae are interned.
    pub fn build(arena: &mut FormulaArena, props: &PropTable, roots: &[FormulaId]) -> Closure {
        // Phase 1: collect the set of closure formula ids (fixpoint).
        let mut seen: HashMap<FormulaId, ClosureIdx> = HashMap::new();
        let mut order: Vec<FormulaId> = Vec::new();
        let mut work: Vec<FormulaId> = Vec::new();

        let push = |f: FormulaId,
                    seen: &mut HashMap<FormulaId, ClosureIdx>,
                    order: &mut Vec<FormulaId>,
                    work: &mut Vec<FormulaId>| {
            if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(f) {
                e.insert(order.len() as ClosureIdx);
                order.push(f);
                work.push(f);
            }
        };

        // Seed with constants, all literals, EXᵢ true, and the roots.
        let t = arena.tru();
        let fl = arena.fls();
        push(t, &mut seen, &mut order, &mut work);
        push(fl, &mut seen, &mut order, &mut work);
        for p in props.iter() {
            let pos = arena.prop(p);
            let neg = arena.neg_prop(p);
            push(pos, &mut seen, &mut order, &mut work);
            push(neg, &mut seen, &mut order, &mut work);
        }
        let mut ex_true_ids = Vec::new();
        for i in 0..arena.num_procs() {
            let e = arena.ex(i, t);
            ex_true_ids.push(e);
            push(e, &mut seen, &mut order, &mut work);
        }
        for &r in roots {
            push(r, &mut seen, &mut order, &mut work);
        }

        while let Some(f) = work.pop() {
            match arena.get(f) {
                Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => {}
                Formula::And(a, b) | Formula::Or(a, b) => {
                    push(a, &mut seen, &mut order, &mut work);
                    push(b, &mut seen, &mut order, &mut work);
                }
                Formula::Ax(_, b) | Formula::Ex(_, b) => {
                    push(b, &mut seen, &mut order, &mut work);
                }
                Formula::Au(g, h) => {
                    let nxt = arena.ax_all(f);
                    let beta2 = arena.and(g, nxt);
                    push(g, &mut seen, &mut order, &mut work);
                    push(h, &mut seen, &mut order, &mut work);
                    push(beta2, &mut seen, &mut order, &mut work);
                }
                Formula::Eu(g, h) => {
                    let nxt = arena.ex_all(f);
                    let beta2 = arena.and(g, nxt);
                    push(g, &mut seen, &mut order, &mut work);
                    push(h, &mut seen, &mut order, &mut work);
                    push(beta2, &mut seen, &mut order, &mut work);
                }
                Formula::Aw(g, h) => {
                    let nxt = arena.ax_all(f);
                    let alpha2 = arena.or(g, nxt);
                    push(g, &mut seen, &mut order, &mut work);
                    push(h, &mut seen, &mut order, &mut work);
                    push(alpha2, &mut seen, &mut order, &mut work);
                }
                Formula::Ew(g, h) => {
                    let nxt = arena.ex_all(f);
                    let alpha2 = arena.or(g, nxt);
                    push(g, &mut seen, &mut order, &mut work);
                    push(h, &mut seen, &mut order, &mut work);
                    push(alpha2, &mut seen, &mut order, &mut work);
                }
            }
        }

        // Phase 2: resolve kinds. All components are guaranteed present.
        let pos: HashMap<FormulaId, ClosureIdx> = seen;
        let idx_of = |f: FormulaId| -> ClosureIdx { *pos.get(&f).expect("closure is closed") };
        let mut entries = Vec::with_capacity(order.len());
        let mut lit_idx: HashMap<PropId, (Option<ClosureIdx>, Option<ClosureIdx>)> = HashMap::new();
        for (i, &f) in order.iter().enumerate() {
            let kind = match arena.get(f) {
                Formula::True => EntryKind::True,
                Formula::False => EntryKind::False,
                Formula::Prop(p) => {
                    lit_idx.entry(p).or_default().0 = Some(i as ClosureIdx);
                    EntryKind::Lit {
                        prop: p,
                        positive: true,
                    }
                }
                Formula::NegProp(p) => {
                    lit_idx.entry(p).or_default().1 = Some(i as ClosureIdx);
                    EntryKind::Lit {
                        prop: p,
                        positive: false,
                    }
                }
                Formula::And(a, b) => EntryKind::And {
                    a: idx_of(a),
                    b: idx_of(b),
                },
                Formula::Or(a, b) => EntryKind::Or {
                    a: idx_of(a),
                    b: idx_of(b),
                },
                Formula::Ax(i, b) => EntryKind::Ax {
                    proc: i,
                    body: idx_of(b),
                },
                Formula::Ex(i, b) => EntryKind::Ex {
                    proc: i,
                    body: idx_of(b),
                },
                Formula::Au(g, h) => {
                    let nxt = arena.ax_all(f);
                    let beta2 = arena.and(g, nxt);
                    EntryKind::Au {
                        g: idx_of(g),
                        h: idx_of(h),
                        beta2: idx_of(beta2),
                    }
                }
                Formula::Eu(g, h) => {
                    let nxt = arena.ex_all(f);
                    let beta2 = arena.and(g, nxt);
                    EntryKind::Eu {
                        g: idx_of(g),
                        h: idx_of(h),
                        beta2: idx_of(beta2),
                    }
                }
                Formula::Aw(g, h) => {
                    let nxt = arena.ax_all(f);
                    let alpha2 = arena.or(g, nxt);
                    EntryKind::Aw {
                        g: idx_of(g),
                        h: idx_of(h),
                        alpha2: idx_of(alpha2),
                    }
                }
                Formula::Ew(g, h) => {
                    let nxt = arena.ex_all(f);
                    let alpha2 = arena.or(g, nxt);
                    EntryKind::Ew {
                        g: idx_of(g),
                        h: idx_of(h),
                        alpha2: idx_of(alpha2),
                    }
                }
            };
            entries.push(ClosureEntry { id: f, kind });
        }

        let words = order.len().div_ceil(64).max(1);
        let false_idx = idx_of(fl);
        let true_idx = idx_of(t);
        let ex_true = ex_true_ids.into_iter().map(idx_of).collect();

        // Phase 3: dense side tables for the hot consistency checks.
        let mut adj_pos_mask = vec![0u64; words].into_boxed_slice();
        let mut slow_pairs: Vec<(ClosureIdx, ClosureIdx)> = Vec::new();
        let mut opposite_lit = vec![NO_IDX; entries.len()].into_boxed_slice();
        for &(p, n) in lit_idx.values() {
            if let (Some(pi), Some(ni)) = (p, n) {
                opposite_lit[pi as usize] = ni;
                opposite_lit[ni as usize] = pi;
                if ni == pi + 1 && pi % 64 != 63 {
                    adj_pos_mask[pi as usize / 64] |= 1u64 << (pi % 64);
                } else {
                    slow_pairs.push((pi, ni));
                }
            }
        }
        slow_pairs.sort_unstable(); // lit_idx iteration order is random
        let mut ax_mask = vec![0u64; words].into_boxed_slice();
        let mut ex_mask = vec![0u64; words].into_boxed_slice();
        for (i, e) in entries.iter().enumerate() {
            match e.kind {
                EntryKind::Ax { .. } => ax_mask[i / 64] |= 1u64 << (i % 64),
                EntryKind::Ex { .. } => ex_mask[i / 64] |= 1u64 << (i % 64),
                _ => {}
            }
        }

        Closure {
            entries,
            pos,
            lit_idx,
            ex_true,
            false_idx,
            true_idx,
            words,
            adj_pos_mask,
            slow_pairs,
            opposite_lit,
            ax_mask,
            ex_mask,
        }
    }

    /// Number of closure members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the closure is empty (never true: constants are seeded).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at a closure index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn entry(&self, idx: ClosureIdx) -> &ClosureEntry {
        &self.entries[idx as usize]
    }

    /// Closure index of a formula, if it is a member.
    pub fn index_of(&self, f: FormulaId) -> Option<ClosureIdx> {
        self.pos.get(&f).copied()
    }

    /// Closure index of `EXᵢ true`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn ex_true(&self, proc: usize) -> ClosureIdx {
        self.ex_true[proc]
    }

    /// The number of processes the closure was built for.
    pub fn num_procs(&self) -> usize {
        self.ex_true.len()
    }

    /// Closure indices of the positive/negative literal of `p`, when
    /// registered.
    pub fn literal(&self, p: PropId, positive: bool) -> Option<ClosureIdx> {
        let &(pos, neg) = self.lit_idx.get(&p)?;
        if positive {
            pos
        } else {
            neg
        }
    }

    /// The α/β expansion behaviour of a closure member.
    pub fn expansion(&self, idx: ClosureIdx) -> Expansion {
        match self.entry(idx).kind {
            EntryKind::True
            | EntryKind::False
            | EntryKind::Lit { .. }
            | EntryKind::Ax { .. }
            | EntryKind::Ex { .. } => Expansion::Elementary,
            EntryKind::And { a, b } => Expansion::Alpha(a, b),
            EntryKind::Or { a, b } => Expansion::Beta(a, b),
            EntryKind::Au { h, beta2, .. } => Expansion::Beta(h, beta2),
            EntryKind::Eu { h, beta2, .. } => Expansion::Beta(h, beta2),
            EntryKind::Aw { h, alpha2, .. } => Expansion::Alpha(h, alpha2),
            EntryKind::Ew { h, alpha2, .. } => Expansion::Alpha(h, alpha2),
        }
    }

    /// Whether the member is an eventuality (`AU` or `EU`).
    pub fn is_eventuality(&self, idx: ClosureIdx) -> bool {
        matches!(
            self.entry(idx).kind,
            EntryKind::Au { .. } | EntryKind::Eu { .. }
        )
    }

    /// An empty label set sized for this closure.
    pub fn empty_label(&self) -> LabelSet {
        LabelSet {
            bits: vec![0u64; self.words].into_boxed_slice(),
        }
    }

    /// Checks a label for propositional consistency: no `false`, and no
    /// `p` together with `¬p`.
    ///
    /// Complementary literals are seeded back to back by [`Closure::build`],
    /// so almost every pair is covered by one precomputed word mask
    /// (`w & (w >> 1) & adj_pos_mask`); only pairs that happen to
    /// straddle a word boundary fall back to individual bit tests.
    pub fn is_prop_consistent(&self, label: &LabelSet) -> bool {
        if label.contains(self.false_idx) {
            return false;
        }
        for (&w, &m) in label.bits.iter().zip(self.adj_pos_mask.iter()) {
            if w & (w >> 1) & m != 0 {
                return false;
            }
        }
        self.slow_pairs
            .iter()
            .all(|&(pi, ni)| !(label.contains(pi) && label.contains(ni)))
    }

    /// The complementary literal of member `idx` (`p` ↔ `¬p`), if `idx`
    /// is a literal with a registered complement.
    pub fn opposite_literal(&self, idx: ClosureIdx) -> Option<ClosureIdx> {
        match self.opposite_lit[idx as usize] {
            NO_IDX => None,
            o => Some(o),
        }
    }

    /// Whether inserting member `comp` into a *propositionally
    /// consistent* `label` would make it inconsistent: `comp` is the
    /// constant `false`, or a literal whose complement is present.
    ///
    /// O(1) — the clone-free equivalent of inserting into a copy and
    /// re-running [`Closure::is_prop_consistent`].
    pub fn insert_breaks_consistency(&self, label: &LabelSet, comp: ClosureIdx) -> bool {
        if comp == self.false_idx {
            return true;
        }
        match self.opposite_lit[comp as usize] {
            NO_IDX => false,
            o => label.contains(o),
        }
    }

    /// Whether the label contains any `AXᵢ` member (one mask pass).
    pub fn label_has_ax(&self, label: &LabelSet) -> bool {
        label
            .bits
            .iter()
            .zip(self.ax_mask.iter())
            .any(|(&w, &m)| w & m != 0)
    }

    /// Whether the label contains any `EXᵢ` member (one mask pass).
    pub fn label_has_ex(&self, label: &LabelSet) -> bool {
        label
            .bits
            .iter()
            .zip(self.ex_mask.iter())
            .any(|(&w, &m)| w & m != 0)
    }

    /// Closure index of the constant `false`.
    pub fn false_idx(&self) -> ClosureIdx {
        self.false_idx
    }

    /// Closure index of the constant `true`.
    pub fn true_idx(&self) -> ClosureIdx {
        self.true_idx
    }

    /// Iterates over all closure indices.
    pub fn indices(&self) -> std::ops::Range<ClosureIdx> {
        0..self.entries.len() as ClosureIdx
    }
}

/// A set of closure members, represented as a bitset.
///
/// Node labels in the tableau are `LabelSet`s; equality and hashing are
/// O(closure size / 64).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LabelSet {
    bits: Box<[u64]>,
}

impl LabelSet {
    /// Inserts a member; returns `true` if it was not already present.
    pub fn insert(&mut self, idx: ClosureIdx) -> bool {
        let (w, b) = (idx as usize / 64, idx as usize % 64);
        let mask = 1u64 << b;
        let fresh = self.bits[w] & mask == 0;
        self.bits[w] |= mask;
        fresh
    }

    /// Membership test.
    pub fn contains(&self, idx: ClosureIdx) -> bool {
        let (w, b) = (idx as usize / 64, idx as usize % 64);
        self.bits[w] & (1u64 << b) != 0
    }

    /// Removes a member; returns `true` if it was present.
    pub fn remove(&mut self, idx: ClosureIdx) -> bool {
        let (w, b) = (idx as usize / 64, idx as usize % 64);
        let mask = 1u64 << b;
        let present = self.bits[w] & mask != 0;
        self.bits[w] &= !mask;
        present
    }

    /// Adds all members of `other`.
    pub fn union_with(&mut self, other: &LabelSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
    }

    /// Whether every member of `self` is in `other`.
    pub fn is_subset(&self, other: &LabelSet) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// A deterministic 64-bit hash of the set (FxHash-style word fold).
    ///
    /// Unlike the `Hash` impl, this does not depend on a per-process
    /// random seed, so it can be computed on worker threads and reused
    /// across data structures (e.g. the tableau's sharded intern table)
    /// without re-reading the label.
    pub fn stable_hash(&self) -> u64 {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut h = 0u64;
        for &w in self.bits.iter() {
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        h
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> LabelIter<'_> {
        LabelIter {
            bits: &self.bits,
            word: 0,
            cur: self.bits.first().copied().unwrap_or(0),
        }
    }

    /// The raw bitset words, least-significant word first. Exposed for
    /// serialization (checkpoint blobs); pair with
    /// [`LabelSet::from_words`] to round-trip a label exactly.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reconstructs a label from raw words previously obtained via
    /// [`LabelSet::words`]. The word count must match the closure the
    /// label will be used against (i.e. `closure.empty_label().words().len()`);
    /// the caller is responsible for that invariant — labels with a
    /// mismatched width panic on the first set operation against a
    /// proper-width label.
    pub fn from_words(words: Vec<u64>) -> LabelSet {
        LabelSet {
            bits: words.into_boxed_slice(),
        }
    }
}

impl std::fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`LabelSet`].
pub struct LabelIter<'a> {
    bits: &'a [u64],
    word: usize,
    cur: u64,
}

impl Iterator for LabelIter<'_> {
    type Item = ClosureIdx;

    fn next(&mut self) -> Option<ClosureIdx> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros();
                self.cur &= self.cur - 1;
                return Some((self.word * 64) as ClosureIdx + b);
            }
            self.word += 1;
            if self.word >= self.bits.len() {
                return None;
            }
            self.cur = self.bits[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::Owner;

    fn small_setup() -> (FormulaArena, PropTable, FormulaId) {
        let mut props = PropTable::new();
        let p = props.add("p", Owner::Process(0)).unwrap();
        let q = props.add("q", Owner::Process(1)).unwrap();
        let mut arena = FormulaArena::new(2);
        let fp = arena.prop(p);
        let fq = arena.prop(q);
        let af = arena.af(fq);
        let imp = arena.implies(fp, af);
        let root = arena.ag(imp);
        (arena, props, root)
    }

    #[test]
    fn closure_contains_roots_and_companions() {
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        let ri = cl.index_of(root).expect("root in closure");
        // AG f is an Aw; its alpha2 companion must be a member.
        match cl.entry(ri).kind {
            EntryKind::Aw { alpha2, h, .. } => {
                assert!(matches!(cl.entry(h).kind, EntryKind::Or { .. }));
                // alpha2 = false ∨ AX(AG f) = AX(AG f) after simplification:
                // a conjunction of AXᵢ formulae (2 procs → And of two Ax).
                assert!(matches!(cl.entry(alpha2).kind, EntryKind::And { .. }));
            }
            k => panic!("root should be Aw, got {k:?}"),
        }
    }

    #[test]
    fn closure_size_reasonable() {
        // |cl(f)| ≤ 2|f| for the pure Fisher-Ladner closure; ours also
        // holds literals, EXᵢtrue and desugared AX/EX chains, so allow a
        // (num_procs+2)-factor slack.
        let (mut arena, props, root) = small_setup();
        let flen = arena.length(root);
        let cl = Closure::build(&mut arena, &props, &[root]);
        assert!(
            cl.len() <= 2 * flen * 4 + 2 * props.len() + 4,
            "closure of size {} too large for |f| = {}",
            cl.len(),
            flen
        );
    }

    #[test]
    fn literals_and_ex_true_registered() {
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        for p in props.iter() {
            assert!(cl.literal(p, true).is_some());
            assert!(cl.literal(p, false).is_some());
        }
        let e0 = cl.ex_true(0);
        assert!(matches!(cl.entry(e0).kind, EntryKind::Ex { proc: 0, .. }));
    }

    #[test]
    fn prop_consistency_detection() {
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        let p = props.id("p").unwrap();
        let mut l = cl.empty_label();
        l.insert(cl.literal(p, true).unwrap());
        assert!(cl.is_prop_consistent(&l));
        l.insert(cl.literal(p, false).unwrap());
        assert!(!cl.is_prop_consistent(&l));
    }

    #[test]
    fn mask_consistency_matches_pairwise_walk() {
        // The word-mask fast path must agree with the definitional
        // pairwise check on labels over every literal combination.
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        let lits: Vec<ClosureIdx> = props
            .iter()
            .flat_map(|p| [cl.literal(p, true).unwrap(), cl.literal(p, false).unwrap()])
            .collect();
        for combo in 0u32..(1 << lits.len()) {
            let mut l = cl.empty_label();
            for (i, &idx) in lits.iter().enumerate() {
                if combo & (1 << i) != 0 {
                    l.insert(idx);
                }
            }
            let naive = !label_pairs_conflict(&cl, &props, &l);
            assert_eq!(cl.is_prop_consistent(&l), naive, "combo {combo:b}");
        }
        let mut l = cl.empty_label();
        l.insert(cl.false_idx());
        assert!(!cl.is_prop_consistent(&l), "false is always inconsistent");
    }

    fn label_pairs_conflict(cl: &Closure, props: &PropTable, l: &LabelSet) -> bool {
        props.iter().any(|p| {
            let (pi, ni) = (cl.literal(p, true).unwrap(), cl.literal(p, false).unwrap());
            l.contains(pi) && l.contains(ni)
        })
    }

    #[test]
    fn opposite_literal_and_insert_blocking() {
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        let p = props.id("p").unwrap();
        let (pi, ni) = (cl.literal(p, true).unwrap(), cl.literal(p, false).unwrap());
        assert_eq!(cl.opposite_literal(pi), Some(ni));
        assert_eq!(cl.opposite_literal(ni), Some(pi));
        assert_eq!(cl.opposite_literal(cl.true_idx()), None);
        let mut l = cl.empty_label();
        l.insert(pi);
        assert!(cl.insert_breaks_consistency(&l, ni));
        assert!(!cl.insert_breaks_consistency(&l, pi));
        assert!(cl.insert_breaks_consistency(&l, cl.false_idx()));
        let q = props.id("q").unwrap();
        assert!(!cl.insert_breaks_consistency(&l, cl.literal(q, false).unwrap()));
    }

    #[test]
    fn ax_ex_masks_match_entry_scan() {
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        for idx in cl.indices() {
            let mut l = cl.empty_label();
            l.insert(idx);
            let is_ax = matches!(cl.entry(idx).kind, EntryKind::Ax { .. });
            let is_ex = matches!(cl.entry(idx).kind, EntryKind::Ex { .. });
            assert_eq!(cl.label_has_ax(&l), is_ax, "idx {idx}");
            assert_eq!(cl.label_has_ex(&l), is_ex, "idx {idx}");
        }
    }

    #[test]
    fn stable_hash_is_label_equality_compatible() {
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        let mut a = cl.empty_label();
        let mut b = cl.empty_label();
        a.insert(3);
        a.insert(17);
        b.insert(17);
        b.insert(3);
        assert_eq!(a.stable_hash(), b.stable_hash());
        b.insert(1);
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn label_set_ops() {
        let (mut arena, props, root) = small_setup();
        let cl = Closure::build(&mut arena, &props, &[root]);
        let mut a = cl.empty_label();
        let mut b = cl.empty_label();
        assert!(a.insert(1));
        assert!(!a.insert(1));
        b.insert(2);
        b.insert(1);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.len(), 2);
        assert!(a.remove(2));
        assert!(!a.remove(2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn until_entries_expose_g_h() {
        let mut props = PropTable::new();
        let p = props.add("p", Owner::Process(0)).unwrap();
        let q = props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let fp = arena.prop(p);
        let fq = arena.prop(q);
        let au = arena.au(fp, fq);
        let cl = Closure::build(&mut arena, &props, &[au]);
        let ai = cl.index_of(au).unwrap();
        match cl.entry(ai).kind {
            EntryKind::Au { g, h, beta2 } => {
                assert_eq!(cl.entry(g).id, fp);
                assert_eq!(cl.entry(h).id, fq);
                assert!(matches!(cl.entry(beta2).kind, EntryKind::And { .. }));
                assert_eq!(cl.expansion(ai), Expansion::Beta(h, beta2));
                assert!(cl.is_eventuality(ai));
            }
            k => panic!("expected Au, got {k:?}"),
        }
    }
}
