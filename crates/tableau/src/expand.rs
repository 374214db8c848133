//! The `Blocks` and `Tiles` expansions of the CTL decision procedure
//! (Section 4 of the paper).

use crate::governor::AbortReason;
use ftsyn_ctl::{Closure, ClosureIdx, EntryKind, Expansion, LabelSet, Owner, PropTable};

/// Worklist pops (and minimal-filter rows) of one `Blocks` expansion
/// between two calls of its interrupt poll. `Blocks` is exponential in
/// the undischarged disjunctions of a label, so one expansion can run
/// for minutes; a poll costs one clock read, and this many pops take
/// well under a millisecond.
const POLL_EVERY: usize = 256;

/// Computes `Blocks(d)` for an OR-node label: the set of downward-closed,
/// propositionally consistent AND-node labels that embody all the ways of
/// satisfying the conjunction of the formulae in `label`.
///
/// The expansion tree uses the α/β classification: an α-formula adds both
/// components to the branch; a β-formula forks the branch, adding one
/// component each. The resulting AND label is the union of all formulae
/// along the branch (hence downward-closed). Propositionally inconsistent
/// branches are pruned eagerly — equivalent to generating the node and
/// immediately applying the `DeleteP` rule.
///
/// Special case (Section 4): a resulting label containing `AX` formulae
/// but no `EX` formula for any process is split into one variant per
/// process `i`, each adding `EXᵢ true` — otherwise the `AX` obligations
/// would be vacuous for lack of successors.
///
/// Only the ⊆-minimal labels are returned, each once, in the order the
/// *plain* search — the tree above, `b` popped before `a` at each fork —
/// first produces them. On fault-heavy problems that tree has ~6 leaves
/// per minimal label (mutex4-failstop-masking: 979,016 leaves, 169,924
/// kept), so the labels are found by a semantic search instead and put
/// in the plain order afterwards; see [`BlocksStats`] and `DESIGN.md`
/// §6 for why the result is the same.
pub fn blocks(closure: &Closure, label: &LabelSet) -> Vec<LabelSet> {
    blocks_profiled(closure, label).0
}

/// [`blocks`] and what it cost.
pub fn blocks_profiled(closure: &Closure, label: &LabelSet) -> (Vec<LabelSet>, BlocksStats) {
    blocks_polled(closure, label, &|| Ok(())).expect("an inert poll never interrupts")
}

/// What one `Blocks` expansion cost; a build sums these into
/// [`BuildProfile`](crate::BuildProfile)'s `blocks_*` counters.
///
/// An expansion runs up to three walks of the α/β tree. All three drain
/// α work and choose the next β through one shared step, so they make
/// the same choice on the same branch:
///
/// 1. The **semantic** search. At a fork on `(a, b)` the `b` side (popped
///    first) forbids `a`, and a branch that would insert a forbidden
///    member dies. Every minimal label M of the plain search is still
///    reached: the path that takes `a` exactly when `a ∈ M` keeps its
///    label inside M, so no forbid kills it, and it ends at a plain leaf
///    L ⊆ M — which is M unless L needs the `AX` split. So a semantic
///    leaf that needs the split sends the label to the plain search.
/// 2. The **first-occurrence** pass. The semantic search finds each kept
///    M on the path above; the plain search first produces M on its
///    *greedy-`b`* path, which takes `b` whenever `b ∈ M`. The two agree
///    unless M holds a `b` that its semantic path passed over, and only
///    then does this pass run: it re-walks the plain tree, routing each
///    kept label to the `b` side of a fork when it holds `b` and to the
///    `a` side otherwise, and emits the labels in the order the walk
///    reaches them. It checks that it placed every label and otherwise
///    sends the expansion to the plain search, although by the argument
///    in `DESIGN.md` §6 that cannot happen.
/// 3. The **plain** search, the tree as described on [`blocks`], kept
///    only as the fallback of the other two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlocksStats {
    /// Leaves the semantic and plain searches produced.
    pub leaves: usize,
    /// Expansions (0 or 1) that fell back to the plain search.
    pub plain: usize,
    /// Expansions (0 or 1) that needed the first-occurrence pass.
    pub reordered: usize,
}

/// [`blocks`] and what it cost, calling `poll` every [`POLL_EVERY`]
/// steps and returning its error, with the partial expansion dropped,
/// as soon as it fails.
pub(crate) fn blocks_polled(
    closure: &Closure,
    label: &LabelSet,
    poll: &dyn Fn() -> Result<(), AbortReason>,
) -> Result<(Vec<LabelSet>, BlocksStats), AbortReason> {
    let mut steps = 0usize;
    let mut tick = || {
        steps += 1;
        if steps.is_multiple_of(POLL_EVERY) {
            poll()
        } else {
            Ok(())
        }
    };
    let mut stats = BlocksStats::default();
    // Minimal-branch filtering: a label that is a strict superset of
    // another is redundant — the subset label imposes fewer obligations
    // and is satisfiable whenever the superset is, so dropping supersets
    // preserves both soundness and completeness while keeping the
    // tableau (and the final model) small.
    if let Some((leaves, passed_over)) = semantic_leaves(closure, label, &mut stats, &mut tick)? {
        // Two semantic leaves part at a fork on `(a, b)`: the `b` side
        // lacks `a` and the `a` side holds it, so a leaf can only sit
        // strictly over a `b`-side leaf, and then it holds the `b` its
        // path passed over. Without such a leaf, every leaf is minimal.
        if !passed_over.contains(&true) {
            return Ok((leaves, stats));
        }
        let keep = minimal_mask(&leaves, &mut tick)?;
        let reorder = keep.iter().zip(&passed_over).any(|(&k, &p)| k && p);
        let kept = select(leaves, &keep);
        if !reorder {
            return Ok((kept, stats));
        }
        stats.reordered = 1;
        if let Some(ordered) = first_occurrence_order(closure, label, kept, &mut tick)? {
            return Ok((ordered, stats));
        }
    }
    stats.plain = 1;
    let out = candidates(closure, label, &mut stats, &mut tick)?;
    let keep = minimal_mask(&out, &mut tick)?;
    Ok((select(out, &keep), stats))
}

/// One open branch of a `Blocks` walk: the label accumulated so far,
/// its members whose expansion is still due — α and elementary ones in
/// `alphas`, β ones in `betas` — and the members it must never insert.
#[derive(Clone)]
struct Branch {
    acc: LabelSet,
    alphas: Vec<ClosureIdx>,
    betas: Vec<ClosureIdx>,
    /// `None` in the plain and first-occurrence walks.
    forbidden: Option<LabelSet>,
}

/// Where [`Branch::advance`] leaves a branch.
enum Advance {
    /// Propositionally inconsistent, or it inserted a forbidden member.
    Dead,
    /// Nothing left to expand: `acc` is a leaf.
    Leaf,
    /// The next β has one open component: the other contradicts the
    /// branch.
    Forced(ClosureIdx),
    /// The next β forks on `(a, b)`; `b` is explored first.
    Fork(ClosureIdx, ClosureIdx),
}

impl Branch {
    fn root(closure: &Closure, label: &LabelSet, forbidden: Option<LabelSet>) -> Branch {
        let mut branch = Branch {
            acc: label.clone(),
            alphas: Vec::new(),
            betas: Vec::new(),
            forbidden,
        };
        for idx in label.iter() {
            match closure.expansion(idx) {
                Expansion::Beta(_, _) => branch.betas.push(idx),
                _ => branch.alphas.push(idx),
            }
        }
        branch
    }

    /// Inserts `comp` and queues it if it is new; `false` if it is
    /// forbidden.
    fn insert(&mut self, closure: &Closure, comp: ClosureIdx) -> bool {
        if self.acc.insert(comp) {
            if self.forbidden.as_ref().is_some_and(|f| f.contains(comp)) {
                return false;
            }
            match closure.expansion(comp) {
                Expansion::Beta(_, _) => self.betas.push(comp),
                _ => self.alphas.push(comp),
            }
        }
        true
    }

    /// Takes the β component `comp`; `false` if that kills the branch.
    fn take(&mut self, closure: &Closure, comp: ClosureIdx) -> bool {
        self.insert(closure, comp) && closure.is_prop_consistent(&self.acc)
    }

    /// Drains the α work in place and picks the β to resolve next,
    /// resolving discharged ones (a component already present) on the
    /// way.
    ///
    /// βs are deferred until no α work remains, and a discharged β is
    /// resolved without branching — both standard tableau optimizations;
    /// they avoid the exponential blow-up of vacuously-true implications
    /// (`¬N₁ ∨ X` in a branch that already pinned `¬N₁`) without
    /// affecting the set of satisfiable labels.
    fn advance(&mut self, closure: &Closure) -> Advance {
        loop {
            while let Some(idx) = self.alphas.pop() {
                match closure.expansion(idx) {
                    Expansion::Elementary => {
                        if matches!(closure.entry(idx).kind, EntryKind::False) {
                            return Advance::Dead;
                        }
                    }
                    Expansion::Alpha(a, b) => {
                        if !(self.insert(closure, a)
                            && self.insert(closure, b)
                            && closure.is_prop_consistent(&self.acc))
                        {
                            return Advance::Dead;
                        }
                    }
                    Expansion::Beta(_, _) => unreachable!("betas are queued separately"),
                }
            }
            if self.betas.is_empty() {
                return Advance::Leaf;
            }
            // Preferring *determined* βs — already discharged (a
            // component is present) or *forced* (one component
            // contradicts the branch propositionally) — resolves the
            // vacuously-true implication clauses of typical
            // specifications without forking, leaving genuine semantic
            // choices as the only branch points. This orders the search
            // only: the minimal labels are the same either way.
            //
            // The "would inserting this literal contradict the branch?"
            // probe is O(1): `acc` was already checked for consistency
            // (at its fork/α site, or here for the not-yet-checked root
            // label), so a literal insertion breaks consistency iff its
            // complement is present.
            let acc = &self.acc;
            let acc_consistent = closure.is_prop_consistent(acc);
            let mut chosen = self.betas.len() - 1;
            let mut forced: Option<ClosureIdx> = None;
            for (bi, &idx) in self.betas.iter().enumerate() {
                let (a, b) = beta_parts(closure, idx);
                if acc.contains(a) || acc.contains(b) {
                    chosen = bi;
                    forced = None;
                    break; // discharged: resolves for free
                }
                if forced.is_none() {
                    let lit_blocked = |comp: ClosureIdx| -> bool {
                        match closure.entry(comp).kind {
                            EntryKind::False => true,
                            EntryKind::Lit { .. } => {
                                !acc_consistent || closure.insert_breaks_consistency(acc, comp)
                            }
                            _ => false,
                        }
                    };
                    let a_blocked = lit_blocked(a);
                    let b_blocked = lit_blocked(b);
                    if a_blocked || b_blocked {
                        chosen = bi;
                        forced = Some(if a_blocked { b } else { a });
                        // Keep scanning: a discharged β is cheaper still.
                    }
                }
            }
            let (a, b) = beta_parts(closure, self.betas.swap_remove(chosen));
            if self.acc.contains(a) || self.acc.contains(b) {
                continue;
            }
            return forced.map_or(Advance::Fork(a, b), Advance::Forced);
        }
    }
}

fn beta_parts(closure: &Closure, idx: ClosureIdx) -> (ClosureIdx, ClosureIdx) {
    match closure.expansion(idx) {
        Expansion::Beta(a, b) => (a, b),
        _ => unreachable!("beta queue holds only beta formulae"),
    }
}

/// Whether a leaf gets the `AX` split: `AX` members but no `EX` one.
fn needs_split(closure: &Closure, leaf: &LabelSet) -> bool {
    closure.label_has_ax(leaf) && !closure.label_has_ex(leaf)
}

/// The leaves of the semantic search in the order it finds them, each
/// with whether it holds a `b` its path passed over (took `a` at a fork
/// on `(a, b)`); `None` as soon as a leaf needs the `AX` split.
#[allow(clippy::type_complexity)] // two parallel vectors, read once
fn semantic_leaves(
    closure: &Closure,
    label: &LabelSet,
    stats: &mut BlocksStats,
    tick: &mut dyn FnMut() -> Result<(), AbortReason>,
) -> Result<Option<(Vec<LabelSet>, Vec<bool>)>, AbortReason> {
    let (mut leaves, mut passed_over) = (Vec::new(), Vec::new());
    let none = closure.empty_label();
    let mut stack = vec![(Branch::root(closure, label, Some(none.clone())), none)];
    while let Some((mut branch, passed)) = stack.pop() {
        tick()?;
        match branch.advance(closure) {
            Advance::Dead => {}
            Advance::Leaf => {
                stats.leaves += 1;
                if needs_split(closure, &branch.acc) {
                    return Ok(None);
                }
                let over = passed.words().iter().zip(branch.acc.words());
                passed_over.push(over.into_iter().any(|(p, w)| p & w != 0));
                leaves.push(branch.acc);
            }
            Advance::Forced(comp) => {
                if branch.take(closure, comp) {
                    stack.push((branch, passed));
                }
            }
            Advance::Fork(a, b) => {
                let mut on_a = branch.clone();
                if on_a.take(closure, a) {
                    let mut passed_a = passed.clone();
                    passed_a.insert(b);
                    stack.push((on_a, passed_a));
                }
                branch.forbidden.as_mut().expect("semantic").insert(a);
                if branch.take(closure, b) {
                    stack.push((branch, passed));
                }
            }
        }
    }
    Ok(Some((leaves, passed_over)))
}

/// `kept` in the order the plain search first produces them, or `None`
/// if the walk does not place every label exactly once.
///
/// The walk follows the plain tree but only where some kept label can
/// still end up: each branch carries the kept labels routed to it, a
/// fork on `(a, b)` sends those holding `b` to the `b` side and the rest
/// holding `a` to the `a` side, and a branch with none is dropped. So
/// each label follows one path, its greedy-`b` one. A leaf emits its
/// labels in the order of its `AX`-split variants.
fn first_occurrence_order(
    closure: &Closure,
    label: &LabelSet,
    kept: Vec<LabelSet>,
    tick: &mut dyn FnMut() -> Result<(), AbortReason>,
) -> Result<Option<Vec<LabelSet>>, AbortReason> {
    let mut order: Vec<usize> = Vec::with_capacity(kept.len());
    let mut stack: Vec<(Branch, Vec<usize>)> = vec![(
        Branch::root(closure, label, None),
        (0..kept.len()).collect(),
    )];
    while let Some((mut branch, mut routed)) = stack.pop() {
        tick()?;
        match branch.advance(closure) {
            Advance::Dead => {}
            Advance::Leaf => {
                for variant in split(closure, branch.acc) {
                    order.extend(routed.iter().copied().filter(|&i| kept[i] == variant));
                }
            }
            Advance::Forced(comp) => {
                routed.retain(|&i| kept[i].contains(comp));
                if !routed.is_empty() && branch.take(closure, comp) {
                    stack.push((branch, routed));
                }
            }
            Advance::Fork(a, b) => {
                let (on_b, on_a): (Vec<usize>, Vec<usize>) =
                    routed.iter().partition(|&&i| kept[i].contains(b));
                let on_a: Vec<usize> = on_a.into_iter().filter(|&i| kept[i].contains(a)).collect();
                if !on_a.is_empty() {
                    let mut branch_a = branch.clone();
                    if branch_a.take(closure, a) {
                        stack.push((branch_a, on_a));
                    }
                }
                if !on_b.is_empty() && branch.take(closure, b) {
                    stack.push((branch, on_b));
                }
            }
        }
    }
    // Each label is routed to one leaf and equals at most one of its
    // variants, so it is placed at most once.
    if order.len() != kept.len() {
        return Ok(None);
    }
    let mut slots: Vec<Option<LabelSet>> = kept.into_iter().map(Some).collect();
    Ok(Some(
        order
            .into_iter()
            .map(|i| slots[i].take().expect("placed once"))
            .collect(),
    ))
}

/// A leaf as the plain search outputs it: itself, or its `AX`-split
/// variants.
fn split(closure: &Closure, leaf: LabelSet) -> Vec<LabelSet> {
    if !needs_split(closure, &leaf) {
        return vec![leaf];
    }
    (0..closure.num_procs())
        .map(|i| {
            let mut v = leaf.clone();
            v.insert(closure.ex_true(i));
            v
        })
        .collect()
}

/// The outputs of the plain search in the order it finds them, after the
/// `AX` split; a label may occur more than once. The DFS can reach one
/// label along several branches, and a split variant can equal another
/// leaf; the minimal filter drops those repeats.
fn candidates(
    closure: &Closure,
    label: &LabelSet,
    stats: &mut BlocksStats,
    tick: &mut dyn FnMut() -> Result<(), AbortReason>,
) -> Result<Vec<LabelSet>, AbortReason> {
    let mut out: Vec<LabelSet> = Vec::new();
    let mut stack = vec![Branch::root(closure, label, None)];
    while let Some(mut branch) = stack.pop() {
        tick()?;
        match branch.advance(closure) {
            Advance::Dead => {}
            Advance::Leaf => {
                stats.leaves += 1;
                out.extend(split(closure, branch.acc));
            }
            Advance::Forced(comp) => {
                if branch.take(closure, comp) {
                    stack.push(branch);
                }
            }
            Advance::Fork(a, b) => {
                // Push `a` then `b`, so `b` is explored first.
                let mut on_a = branch.clone();
                if on_a.take(closure, a) {
                    stack.push(on_a);
                }
                if branch.take(closure, b) {
                    stack.push(branch);
                }
            }
        }
    }
    Ok(out)
}

/// The members of `labels` that `keep` marks, in order. A fresh vector:
/// collecting `labels.into_iter()` in place would keep the capacity of
/// every candidate, several times the kept labels, and the result is
/// retained by the `ExpansionCache`.
fn select(labels: Vec<LabelSet>, keep: &[bool]) -> Vec<LabelSet> {
    let mut kept = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
    kept.extend(
        labels
            .into_iter()
            .zip(keep)
            .filter_map(|(l, &k)| k.then_some(l)),
    );
    kept
}

/// Marks the ⊆-minimal members of `labels` without repeats: a label is
/// kept at its first occurrence iff no other label is a strict subset
/// of it.
///
/// Labels are processed in ascending size and each is tested only
/// against the labels *already accepted as minimal*. That is the same
/// predicate as testing every other label: if some `b ⊂ a` exists, a
/// minimum-size such `b*` has no subset of its own (it would also be a
/// smaller subset of `a`), so `b*` is accepted before `a` is tested.
/// The sort is stable, so of equal labels the first occurrence is
/// tested first; it is accepted or shadowed exactly as its later copies
/// are, and once accepted it shadows them (`b ⊆ a` holds for `b = a`).
///
/// The subset tests go through an exact inverted index. Every label
/// holds the bits common to all of them (`core`), so `b ⊆ a` iff `b`
/// lacks every *varying* bit that `a` lacks. Each varying bit has one
/// bitset row over the accepted labels, marking those that lack it;
/// `a` is shadowed iff the AND of the rows of the varying bits `a`
/// lacks is non-zero. Rows are stored block-major, 64 accepted labels
/// per word, so one test is a few ANDs per block with an early exit
/// once a block's AND is zero. Fault-successor OR-labels pin a whole
/// valuation and yield thousands of leaves (tens of thousands from the
/// plain search) that share all but ~70 of their ~270 bits, which
/// saturates any one-word summary of the labels; the index touches
/// only the varying bits.
fn minimal_mask(
    labels: &[LabelSet],
    tick: &mut dyn FnMut() -> Result<(), AbortReason>,
) -> Result<Vec<bool>, AbortReason> {
    let mut keep = vec![false; labels.len()];
    if labels.len() < 2 {
        keep.fill(true);
        return Ok(keep);
    }
    let mut core = labels[0].words().to_vec();
    let mut any = vec![0u64; core.len()];
    for l in labels {
        for ((c, a), &w) in core.iter_mut().zip(any.iter_mut()).zip(l.words()) {
            *c &= w;
            *a |= w;
        }
    }
    // `var[w]` holds the varying bits of word `w`; `base[w]` is the
    // dense id of its lowest one. No varying bit means every label is
    // the same one.
    let var: Vec<u64> = any.iter().zip(&core).map(|(a, c)| a & !c).collect();
    let mut base = Vec::with_capacity(var.len());
    let mut nvar = 0usize;
    for v in &var {
        base.push(nvar);
        nvar += v.count_ones() as usize;
    }
    if nvar == 0 {
        keep[0] = true;
        return Ok(keep);
    }
    let lacked = |l: &LabelSet, ids: &mut Vec<usize>| {
        ids.clear();
        for (w, (&v, &word)) in var.iter().zip(l.words()).enumerate() {
            let mut missing = v & !word;
            while missing != 0 {
                let below = (1u64 << missing.trailing_zeros()) - 1;
                ids.push(base[w] + (v & below).count_ones() as usize);
                missing &= missing - 1;
            }
        }
    };

    let sizes: Vec<usize> = labels.iter().map(LabelSet::len).collect();
    let mut by_size: Vec<usize> = (0..labels.len()).collect();
    by_size.sort_by_key(|&i| sizes[i]);
    // `rows[block * nvar + v]` has bit `k` set iff accepted label
    // `64 * block + k` lacks varying bit `v`.
    let mut rows: Vec<u64> = Vec::new();
    let mut accepted = 0usize;
    let mut lacks: Vec<usize> = Vec::new();
    for &i in &by_size {
        tick()?;
        lacked(&labels[i], &mut lacks);
        // Bits past the last accepted label are zero in every row, so
        // the partial last block needs no mask: only a label lacking no
        // varying bit ANDs no rows, and it is a superset of (or equal
        // to) every accepted label.
        let shadowed = rows.chunks_exact(nvar).any(|row| {
            let mut hit = !0u64;
            for &v in &lacks {
                hit &= row[v];
                if hit == 0 {
                    break;
                }
            }
            hit != 0
        });
        if !shadowed {
            keep[i] = true;
            if accepted.is_multiple_of(64) {
                rows.resize(rows.len() + nvar, 0);
            }
            let row = &mut rows[accepted / 64 * nvar..];
            for &v in &lacks {
                row[v] |= 1u64 << (accepted % 64);
            }
            accepted += 1;
        }
    }
    Ok(keep)
}

/// One `Tiles` successor requirement of an AND-node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Tile {
    /// A per-process OR-node successor: edge label `Proc(proc)`, OR-node
    /// label `or_label` (the `AXᵢ` bodies plus one `EXᵢ` body).
    Or {
        /// The process index.
        proc: usize,
        /// The OR-node's label.
        or_label: LabelSet,
    },
    /// The node has no nexttime formulae: it gets a single dummy
    /// successor with its own label, whose `Blocks` is pinned to the node
    /// itself (a self-loop in the eventual model).
    Dummy,
}

/// Inserts the *frame condition* of Definition 5.1.2 into a `Proc(proc)`
/// tile label: a transition of process `proc` preserves the local state
/// of every other process, so each proposition owned by a process
/// `j ≠ proc` is pinned to its (closed-world) value in the source
/// AND-node label. Without the pins, perturbed sections — whose labels
/// no longer carry the specification's interleaving clauses — admit
/// "recovery" successors that flip other processes' propositions, which
/// no synchronization skeleton can implement.
fn pin_frame(
    closure: &Closure,
    props: &PropTable,
    label: &LabelSet,
    proc: usize,
    or_label: &mut LabelSet,
) {
    let mut positive: Vec<bool> = vec![false; props.len()];
    for idx in label.iter() {
        if let EntryKind::Lit {
            prop,
            positive: true,
        } = closure.entry(idx).kind
        {
            positive[prop.index()] = true;
        }
    }
    for p in props.iter() {
        match props.owner(p) {
            Owner::Process(j) if j != proc => {
                let lit = closure
                    .literal(p, positive[p.index()])
                    .expect("all literals are registered in the closure");
                or_label.insert(lit);
            }
            _ => {}
        }
    }
}

/// Computes the `Tiles(c)` successor requirements of an AND-node label.
pub fn tiles(closure: &Closure, props: &PropTable, label: &LabelSet) -> Vec<Tile> {
    // Gather AX/EX bodies per process.
    let mut ax_bodies: Vec<Vec<ClosureIdx>> = Vec::new();
    let mut ex_bodies: Vec<Vec<ClosureIdx>> = Vec::new();
    let ensure = |v: &mut Vec<Vec<ClosureIdx>>, i: usize| {
        while v.len() <= i {
            v.push(Vec::new());
        }
    };
    let mut any_nexttime = false;
    for idx in label.iter() {
        match closure.entry(idx).kind {
            EntryKind::Ax { proc, body } => {
                ensure(&mut ax_bodies, proc);
                ax_bodies[proc].push(body);
                any_nexttime = true;
            }
            EntryKind::Ex { proc, body } => {
                ensure(&mut ex_bodies, proc);
                ex_bodies[proc].push(body);
                any_nexttime = true;
            }
            _ => {}
        }
    }
    if !any_nexttime {
        return vec![Tile::Dummy];
    }
    let mut out = Vec::new();
    for (proc, exs) in ex_bodies.iter().enumerate() {
        // The shared AXᵢ-bodies part of each tile label is built once
        // per process; each EXᵢ body is then added to a copy. The EXᵢ
        // bodies are distinct, so two tile labels of one process are
        // equal iff both bodies already sit in the shared part: that
        // label is emitted once, at its first body.
        let mut ax_label = closure.empty_label();
        if let Some(axs) = ax_bodies.get(proc) {
            for &a in axs {
                ax_label.insert(a);
            }
        }
        pin_frame(closure, props, label, proc, &mut ax_label);
        let mut shared_emitted = false;
        for &e in exs {
            let mut or_label = ax_label.clone();
            if !or_label.insert(e) && std::mem::replace(&mut shared_emitted, true) {
                continue;
            }
            out.push(Tile::Or { proc, or_label });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{parse::parse, Closure, FormulaArena, LabelSet, Owner, PropTable};
    use ftsyn_prng::XorShift64;
    use std::collections::HashSet;

    fn setup(formulas: &[&str], procs: usize) -> (PropTable, Closure, Vec<LabelSet>) {
        let mut props = PropTable::new();
        for n in ["p", "q", "r"] {
            props.add(n, Owner::Process(0)).unwrap();
        }
        let mut arena = FormulaArena::new(procs);
        let ids: Vec<_> = formulas
            .iter()
            .map(|s| parse(&mut arena, &mut props, s, true).unwrap())
            .collect();
        let cl = Closure::build(&mut arena, &props, &ids);
        let labels = ids
            .iter()
            .map(|&f| {
                let mut l = cl.empty_label();
                l.insert(cl.index_of(f).unwrap());
                l
            })
            .collect();
        (props, cl, labels)
    }

    fn names(closure: &Closure, l: &LabelSet) -> usize {
        l.len().min(closure.len())
    }

    #[test]
    fn conjunction_expands_to_single_block() {
        let (_props, cl, labels) = setup(&["p & q"], 1);
        let bs = blocks(&cl, &labels[0]);
        assert_eq!(bs.len(), 1);
        let b = &bs[0];
        // Contains p, q, and the conjunction itself (downward closed).
        assert!(b.len() >= 3, "got {}", names(&cl, b));
    }

    #[test]
    fn disjunction_forks() {
        let (_props, cl, labels) = setup(&["p | q"], 1);
        let bs = blocks(&cl, &labels[0]);
        assert_eq!(bs.len(), 2);
    }

    #[test]
    fn contradiction_pruned() {
        let (_props, cl, labels) = setup(&["p & ~p"], 1);
        let bs = blocks(&cl, &labels[0]);
        assert!(bs.is_empty());
    }

    #[test]
    fn af_generates_fulfill_and_defer_branches() {
        let (_props, cl, labels) = setup(&["AF p"], 1);
        let bs = blocks(&cl, &labels[0]);
        // One branch contains p (fulfilled), the other AX(AF p) (deferred).
        assert_eq!(bs.len(), 2);
        let with_p = bs.iter().filter(|b| {
            b.iter().any(|i| {
                matches!(
                    cl.entry(i).kind,
                    ftsyn_ctl::EntryKind::Lit { positive: true, .. }
                )
            })
        });
        assert_eq!(with_p.count(), 1);
    }

    #[test]
    fn ag_single_block_with_propagation() {
        let (_props, cl, labels) = setup(&["AG p"], 1);
        let bs = blocks(&cl, &labels[0]);
        assert_eq!(bs.len(), 1);
        // The block contains p and AX(AG p).
        let b = &bs[0];
        let has_ax = b
            .iter()
            .any(|i| matches!(cl.entry(i).kind, ftsyn_ctl::EntryKind::Ax { .. }));
        assert!(has_ax);
    }

    #[test]
    fn ax_without_ex_splits_per_process() {
        // AG p has AX obligations but no EX — with 2 processes, the split
        // produces one variant per process (each adding EXᵢ true).
        let (_props, cl, labels) = setup(&["AG p"], 2);
        let bs = blocks(&cl, &labels[0]);
        assert_eq!(bs.len(), 2);
        for b in &bs {
            let has_ex_true = (0..2).any(|i| b.contains(cl.ex_true(i)));
            assert!(has_ex_true);
        }
    }

    /// All-pairs oracle for [`minimal_mask`]: a label is kept at its
    /// first occurrence iff no other label is a strict subset of it.
    fn minimal_brute_force(labels: &[LabelSet]) -> Vec<LabelSet> {
        labels
            .iter()
            .enumerate()
            .filter(|&(i, a)| {
                !labels[..i].contains(a) && !labels.iter().any(|b| b != a && b.is_subset(a))
            })
            .map(|(_, a)| a.clone())
            .collect()
    }

    fn minimal_indexed(labels: Vec<LabelSet>) -> Vec<LabelSet> {
        let keep = minimal_mask(&labels, &mut || Ok(())).expect("an inert poll never interrupts");
        select(labels, &keep)
    }

    /// A seeded family shaped like fault-successor candidates: shared
    /// `core` bits, a varying part of `nvar` positions, many same-size
    /// minimal labels (ties, several 64-label blocks), random supersets
    /// of them, random labels of any size, and sometimes the label
    /// holding every varying bit (it ANDs no rows) or the bare core (it
    /// shadows everything). Some labels repeat, and sometimes all of
    /// them are one label.
    fn random_family(rng: &mut XorShift64) -> (Vec<LabelSet>, usize) {
        let width = rng.range(3, 8);
        let nvar = rng.range(8, 64 * width / 2);
        let mut positions: Vec<usize> = (0..64 * width).collect();
        for i in 0..positions.len() {
            let j = rng.range(i, positions.len());
            positions.swap(i, j);
        }
        let (varying, rest) = positions.split_at(nvar);
        let mut core = vec![0u64; width];
        for &p in rest {
            if rng.chance(0.5) {
                core[p / 64] |= 1 << (p % 64);
            }
        }
        let label = |rng: &mut XorShift64, pick: &dyn Fn(&mut _) -> bool| {
            let mut words = core.clone();
            for &p in varying {
                if pick(rng) {
                    words[p / 64] |= 1 << (p % 64);
                }
            }
            LabelSet::from_words(words)
        };
        let mut labels = Vec::new();
        let k = 1 + rng.below(nvar / 4);
        for _ in 0..rng.below(200) {
            let p = k as f64 / nvar as f64;
            labels.push(label(rng, &|r: &mut XorShift64| r.chance(p)));
        }
        for _ in 0..rng.below(200) {
            if labels.is_empty() {
                break;
            }
            let mut words = labels[rng.below(labels.len())].words().to_vec();
            for _ in 0..1 + rng.below(4) {
                let p = varying[rng.below(nvar)];
                words[p / 64] |= 1 << (p % 64);
            }
            labels.push(LabelSet::from_words(words));
        }
        let density = rng.next_f64();
        for _ in 0..rng.below(100) {
            labels.push(label(rng, &|r: &mut XorShift64| r.chance(density)));
        }
        if rng.chance(0.3) {
            labels.push(label(rng, &|_: &mut XorShift64| true));
        }
        if rng.chance(0.05) {
            labels.push(label(rng, &|_: &mut XorShift64| false));
        }
        for _ in 0..rng.below(labels.len() / 2 + 1) {
            labels.push(labels[rng.below(labels.len())].clone());
        }
        if rng.chance(0.05) {
            labels = vec![label(rng, &|r: &mut XorShift64| r.chance(0.5)); 1 + rng.below(300)];
        }
        for i in 0..labels.len() {
            let j = rng.range(i, labels.len());
            labels.swap(i, j);
        }
        (labels, nvar)
    }

    #[test]
    fn indexed_minimal_filter_matches_all_pairs_oracle() {
        let mut rng = XorShift64::new(0xB10C_5EED);
        let mut paths = [false; 6];
        for case in 0..300 {
            let (labels, nvar) = random_family(&mut rng);
            let expect = minimal_brute_force(&labels);
            let sizes: HashSet<usize> = expect.iter().map(LabelSet::len).collect();
            let distinct: HashSet<&LabelSet> = labels.iter().collect();
            paths[0] |= nvar > 64;
            paths[1] |= sizes.len() < expect.len();
            paths[2] |= expect.len() > 128;
            paths[3] |= expect.len() > 64 && !expect.len().is_multiple_of(64);
            paths[4] |= distinct.len() < labels.len() && expect.len() > 64;
            paths[5] |= distinct.len() == 1 && labels.len() > 20;
            assert_eq!(minimal_indexed(labels), expect, "case {case}");
        }
        assert_eq!(paths, [true; 6], "families miss a path");
    }

    #[test]
    fn indexed_minimal_filter_handles_empty_and_singleton_input() {
        assert!(minimal_indexed(Vec::new()).is_empty());
        let one = vec![LabelSet::from_words(vec![0b1011, 0, 1 << 63])];
        assert_eq!(minimal_indexed(one.clone()), one);
    }

    /// An `AX`-split leaf's `EX₁ true` variant can equal another leaf:
    /// the search resolves `q | EX₁ true` to `q` (discharging `q | r`,
    /// no `EX` left, so the leaf is split) and to `EX₁ true` then `q`.
    /// The filter keeps one copy, at its first occurrence.
    #[test]
    fn an_ax_split_variant_that_repeats_a_leaf_is_kept_once() {
        let (_props, cl, labels) = setup(&["AX1 p & (q | r) & (q | EX1 true)"], 1);
        let mut stats = BlocksStats::default();
        let leaves = candidates(&cl, &labels[0], &mut stats, &mut || Ok(())).unwrap();
        let distinct: HashSet<&LabelSet> = leaves.iter().collect();
        assert!(
            distinct.len() < leaves.len(),
            "no repeated leaf: {leaves:?}"
        );
        let bs = blocks(&cl, &labels[0]);
        assert_eq!(bs, minimal_brute_force(&leaves));
        assert_eq!(bs.iter().collect::<HashSet<_>>().len(), bs.len());
    }

    #[test]
    fn tiles_dummy_for_pure_propositional() {
        let (_props, cl, labels) = setup(&["p & q"], 1);
        let bs = blocks(&cl, &labels[0]);
        let ts = tiles(&cl, &_props, &bs[0]);
        assert_eq!(ts, vec![Tile::Dummy]);
    }

    #[test]
    fn tiles_one_or_node_per_ex() {
        // EX1 p ∧ EX1 q ∧ AX1 r → two tiles for process 0, each with r
        // plus one of p/q.
        let (_props, cl, labels) = setup(&["EX1 p & EX1 q & AX1 r"], 1);
        let bs = blocks(&cl, &labels[0]);
        assert_eq!(bs.len(), 1);
        let ts = tiles(&cl, &_props, &bs[0]);
        assert_eq!(ts.len(), 2);
        for t in &ts {
            match t {
                Tile::Or { proc, or_label } => {
                    assert_eq!(*proc, 0);
                    assert_eq!(or_label.len(), 2, "AX body + one EX body");
                }
                Tile::Dummy => panic!("unexpected dummy"),
            }
        }
    }

    #[test]
    fn tiles_processes_partition() {
        let (_props, cl, labels) = setup(&["EX1 p & EX2 q"], 2);
        let bs = blocks(&cl, &labels[0]);
        let ts = tiles(&cl, &_props, &bs[0]);
        assert_eq!(ts.len(), 2);
        let procs: Vec<usize> = ts
            .iter()
            .map(|t| match t {
                Tile::Or { proc, .. } => *proc,
                Tile::Dummy => usize::MAX,
            })
            .collect();
        assert!(procs.contains(&0));
        assert!(procs.contains(&1));
    }
}
