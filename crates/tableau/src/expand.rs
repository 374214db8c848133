//! The `Blocks` and `Tiles` expansions of the CTL decision procedure
//! (Section 4 of the paper).

use crate::governor::AbortReason;
use ftsyn_ctl::{Closure, ClosureIdx, EntryKind, Expansion, LabelSet, Owner, PropTable};
use std::collections::HashSet;

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
/// Only the ⊆-minimal labels are returned, in the order the expansion
/// produced them. On fault-heavy problems the candidates outnumber the
/// minimal labels ~20:1, so the filter that drops them costs about as
/// much as the expansion tree; see [`minimal_labels`].
pub fn blocks(closure: &Closure, label: &LabelSet) -> Vec<LabelSet> {
    blocks_polled(closure, label, &|| Ok(())).expect("an inert poll never interrupts")
}

/// [`blocks`], calling `poll` every [`POLL_EVERY`] steps and returning
/// its error, with the partial expansion dropped, as soon as it fails.
pub(crate) fn blocks_polled(
    closure: &Closure,
    label: &LabelSet,
    poll: &dyn Fn() -> Result<(), AbortReason>,
) -> Result<Vec<LabelSet>, AbortReason> {
    let mut steps = 0usize;
    let mut tick = || {
        steps += 1;
        if steps.is_multiple_of(POLL_EVERY) {
            poll()
        } else {
            Ok(())
        }
    };
    let mut done: Vec<LabelSet> = Vec::new();
    // Branch = (accumulated label, unexpanded α/elementary, unexpanded β).
    // β-formulae are deferred until no α work remains, and a β whose
    // component is already in the branch is *discharged* without
    // branching — both standard tableau optimizations; they avoid the
    // exponential blow-up of vacuously-true implications (`¬N₁ ∨ X` in a
    // branch that already pinned `¬N₁`) without affecting the set of
    // satisfiable labels.
    let mut betas: Vec<ClosureIdx> = Vec::new();
    let mut alphas: Vec<ClosureIdx> = Vec::new();
    for idx in label.iter() {
        match closure.expansion(idx) {
            Expansion::Beta(_, _) => betas.push(idx),
            _ => alphas.push(idx),
        }
    }
    let mut stack: Vec<(LabelSet, Vec<ClosureIdx>, Vec<ClosureIdx>)> =
        vec![(label.clone(), alphas, betas)];

    'branch: while let Some((mut acc, mut alphas, mut betas)) = stack.pop() {
        tick()?;
        // Drain all α/elementary work in place. In the pre-optimization
        // code each α step pushed the branch back and immediately
        // re-popped it (LIFO), so this loop is step-for-step identical —
        // minus one stack round-trip (and its Vec moves) per formula.
        while let Some(idx) = alphas.pop() {
            match closure.expansion(idx) {
                Expansion::Elementary => {
                    if matches!(closure.entry(idx).kind, EntryKind::False) {
                        continue 'branch; // propositionally inconsistent
                    }
                }
                Expansion::Alpha(a, b) => {
                    for comp in [a, b] {
                        if acc.insert(comp) {
                            match closure.expansion(comp) {
                                Expansion::Beta(_, _) => betas.push(comp),
                                _ => alphas.push(comp),
                            }
                        }
                    }
                    if !closure.is_prop_consistent(&acc) {
                        continue 'branch;
                    }
                }
                Expansion::Beta(_, _) => unreachable!("betas are queued separately"),
            }
        }
        if betas.is_empty() {
            done.push(acc);
            continue;
        }
        // Choose which β to resolve next. Preferring *determined* βs —
        // already discharged (a component is present) or *forced* (one
        // component contradicts the branch propositionally) — resolves
        // the vacuously-true implication clauses of typical
        // specifications without forking, leaving genuine semantic
        // choices as the only branch points. This is a search-order
        // heuristic only: the set of minimal labels produced is
        // unchanged (superset branches are filtered below either way).
        //
        // The "would inserting this literal contradict the branch?"
        // probe is O(1): `acc` was already checked for consistency (at
        // its fork/α site, or here for the not-yet-checked root label),
        // so a literal insertion breaks consistency iff its complement
        // is present. The pre-optimization probe cloned `acc` and re-ran
        // the full consistency scan per candidate.
        let acc_consistent = closure.is_prop_consistent(&acc);
        let mut chosen = betas.len() - 1;
        let mut forced: Option<ClosureIdx> = None;
        'scan: for (bi, &idx) in betas.iter().enumerate() {
            let Expansion::Beta(a, b) = closure.expansion(idx) else {
                unreachable!("beta queue holds only beta formulae")
            };
            if acc.contains(a) || acc.contains(b) {
                chosen = bi;
                forced = None;
                break 'scan; // discharged: resolves for free
            }
            if forced.is_none() {
                let lit_blocked = |comp: ClosureIdx| -> bool {
                    match closure.entry(comp).kind {
                        EntryKind::False => true,
                        EntryKind::Lit { .. } => {
                            !acc_consistent || closure.insert_breaks_consistency(&acc, comp)
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
        let idx = betas.swap_remove(chosen);
        let Expansion::Beta(a, b) = closure.expansion(idx) else {
            unreachable!("beta queue holds only beta formulae")
        };
        if acc.contains(a) || acc.contains(b) {
            // Already discharged by an earlier choice.
            stack.push((acc, alphas, betas));
            continue;
        }
        // The last choice reuses the branch's buffers; a two-way fork
        // clones only for `a`. Push order (`a` then `b`) matches the
        // original exactly.
        let mut push_choice = |mut acc2: LabelSet,
                               mut alphas2: Vec<ClosureIdx>,
                               mut betas2: Vec<ClosureIdx>,
                               comp| {
            if acc2.insert(comp) {
                match closure.expansion(comp) {
                    Expansion::Beta(_, _) => betas2.push(comp),
                    _ => alphas2.push(comp),
                }
            }
            if closure.is_prop_consistent(&acc2) {
                stack.push((acc2, alphas2, betas2));
            }
        };
        match forced {
            Some(comp) => push_choice(acc, alphas, betas, comp),
            None => {
                push_choice(acc.clone(), alphas.clone(), betas.clone(), a);
                push_choice(acc, alphas, betas, b);
            }
        }
    }

    // Split labels that have AX formulae but no EX formula at all, and
    // drop repeated leaves (the DFS can reach one label along several
    // branches): `out_set` keeps every label's first occurrence.
    let mut out: Vec<LabelSet> = Vec::new();
    let mut out_set: HashSet<LabelSet> = HashSet::new();
    for acc in done {
        let has_ax = closure.label_has_ax(&acc);
        let has_ex = closure.label_has_ex(&acc);
        if has_ax && !has_ex {
            for i in 0..closure.num_procs() {
                let mut v = acc.clone();
                v.insert(closure.ex_true(i));
                if out_set.insert(v.clone()) {
                    out.push(v);
                }
            }
        } else if out_set.insert(acc.clone()) {
            out.push(acc);
        }
    }
    // Minimal-branch filtering: a label that is a strict superset of
    // another is redundant — the subset label imposes fewer obligations
    // and is satisfiable whenever the superset is, so dropping supersets
    // preserves both soundness and completeness while keeping the
    // tableau (and the final model) small.
    minimal_labels(out, &mut tick)
}

/// The ⊆-minimal members of `labels`, in their original order.
/// `labels` must be pairwise distinct (the `Blocks` candidates are).
///
/// Labels are processed in ascending size and each is tested only
/// against the labels *already accepted as minimal*. That is the same
/// predicate as testing every other label: if some `b ⊂ a` exists, a
/// minimum-size such `b*` has no subset of its own (it would also be a
/// smaller subset of `a`), so `b*` is accepted before `a` is tested.
/// An accepted label is no larger than `a` and differs from it, so an
/// accepted subset of `a` is a strict one, and the unstable sort's tie
/// order is irrelevant.
///
/// The subset tests go through an exact inverted index. Every label
/// holds the bits common to all of them (`core`), so `b ⊆ a` iff `b`
/// lacks every *varying* bit that `a` lacks. Each varying bit has one
/// bitset row over the accepted labels, marking those that lack it;
/// `a` is shadowed iff the AND of the rows of the varying bits `a`
/// lacks is non-zero. Rows are stored block-major, 64 accepted labels
/// per word, so one test is a few ANDs per block with an early exit
/// once a block's AND is zero. Fault-successor OR-labels pin a whole
/// valuation and yield tens of thousands of candidates that share all
/// but ~70 of their ~270 bits, which saturates any one-word summary of
/// the labels; the index touches only the varying bits.
fn minimal_labels(
    labels: Vec<LabelSet>,
    tick: &mut dyn FnMut() -> Result<(), AbortReason>,
) -> Result<Vec<LabelSet>, AbortReason> {
    if labels.len() < 2 {
        return Ok(labels);
    }
    let mut core = labels[0].words().to_vec();
    let mut any = vec![0u64; core.len()];
    for l in &labels {
        for ((c, a), &w) in core.iter_mut().zip(any.iter_mut()).zip(l.words()) {
            *c &= w;
            *a |= w;
        }
    }
    // `var[w]` holds the varying bits of word `w`; `base[w]` is the
    // dense id of its lowest one. Distinct labels make `nvar` ≥ 1.
    let var: Vec<u64> = any.iter().zip(&core).map(|(a, c)| a & !c).collect();
    let mut base = Vec::with_capacity(var.len());
    let mut nvar = 0usize;
    for v in &var {
        base.push(nvar);
        nvar += v.count_ones() as usize;
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
    by_size.sort_unstable_by_key(|&i| sizes[i]);
    let mut keep = vec![false; labels.len()];
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
        // varying bit ANDs no rows, and it is a superset of every
        // accepted label.
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
    // A fresh vector: collecting `labels.into_iter()` in place would
    // keep the capacity of every candidate, ~20x the kept labels, and
    // the result is retained by the `ExpansionCache`.
    let mut minimal = Vec::with_capacity(accepted);
    minimal.extend(
        labels
            .into_iter()
            .zip(keep)
            .filter_map(|(l, k)| k.then_some(l)),
    );
    Ok(minimal)
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
    let mut out_set: HashSet<Tile> = HashSet::new();
    for (proc, exs) in ex_bodies.iter().enumerate() {
        // The shared AXᵢ-bodies part of each tile label is built once
        // per process; each EXᵢ body is then added to a copy.
        let mut ax_label = closure.empty_label();
        if let Some(axs) = ax_bodies.get(proc) {
            for &a in axs {
                ax_label.insert(a);
            }
        }
        pin_frame(closure, props, label, proc, &mut ax_label);
        for &e in exs {
            let mut or_label = ax_label.clone();
            or_label.insert(e);
            let tile = Tile::Or { proc, or_label };
            if out_set.insert(tile.clone()) {
                out.push(tile);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{parse::parse, Closure, FormulaArena, LabelSet, Owner, PropTable};
    use ftsyn_prng::XorShift64;

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

    /// All-pairs oracle for [`minimal_labels`]: a distinct label is
    /// kept iff no other label is a subset of it.
    fn minimal_brute_force(labels: &[LabelSet]) -> Vec<LabelSet> {
        labels
            .iter()
            .enumerate()
            .filter(|&(i, a)| {
                !labels
                    .iter()
                    .enumerate()
                    .any(|(j, b)| j != i && b.is_subset(a))
            })
            .map(|(_, a)| a.clone())
            .collect()
    }

    fn minimal_indexed(labels: Vec<LabelSet>) -> Vec<LabelSet> {
        minimal_labels(labels, &mut || Ok(())).expect("an inert poll never interrupts")
    }

    /// A seeded family shaped like fault-successor candidates: shared
    /// `core` bits, a varying part of `nvar` positions, many same-size
    /// minimal labels (ties, several 64-label blocks), random supersets
    /// of them, random labels of any size, and sometimes the label
    /// holding every varying bit (it ANDs no rows) or the bare core (it
    /// shadows everything). Deduplicated, first occurrence kept.
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
        for i in 0..labels.len() {
            let j = rng.range(i, labels.len());
            labels.swap(i, j);
        }
        let mut seen = HashSet::new();
        labels.retain(|l| seen.insert(l.clone()));
        (labels, nvar)
    }

    #[test]
    fn indexed_minimal_filter_matches_all_pairs_oracle() {
        let mut rng = XorShift64::new(0xB10C_5EED);
        let (mut wide, mut ties, mut multi_block, mut partial_block) = (false, false, false, false);
        for case in 0..300 {
            let (labels, nvar) = random_family(&mut rng);
            let expect = minimal_brute_force(&labels);
            let sizes: HashSet<usize> = expect.iter().map(LabelSet::len).collect();
            wide |= nvar > 64;
            ties |= sizes.len() < expect.len();
            multi_block |= expect.len() > 128;
            partial_block |= expect.len() > 64 && !expect.len().is_multiple_of(64);
            assert_eq!(minimal_indexed(labels), expect, "case {case}");
        }
        assert!(
            wide && ties && multi_block && partial_block,
            "families miss a path"
        );
    }

    #[test]
    fn indexed_minimal_filter_handles_empty_and_singleton_input() {
        assert!(minimal_indexed(Vec::new()).is_empty());
        let one = vec![LabelSet::from_words(vec![0b1011, 0, 1 << 63])];
        assert_eq!(minimal_indexed(one.clone()), one);
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
