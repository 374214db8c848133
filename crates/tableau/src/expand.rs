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
    let mut done_set: HashSet<LabelSet> = HashSet::new();
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
            if done_set.insert(acc.clone()) {
                done.push(acc);
            }
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

    // Split labels that have AX formulae but no EX formula at all.
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
    //
    // A strict subset has strictly smaller cardinality, so only labels
    // from smaller size classes can shadow `a`. Labels are processed in
    // ascending size order and each is compared only against the
    // strictly-smaller labels *already accepted as minimal*. That is the
    // same predicate as scanning every smaller label: if any smaller
    // label `b ⊆ a` exists, take a minimum-size such `b*` — nothing
    // strictly smaller is a subset of `b*` (it would also be a smaller
    // subset of `a`), so `b*` itself is accepted, and the accepted-only
    // scan finds it. Equal-size labels never shadow each other (strict
    // subsets are strictly smaller), so the unstable sort's tie order is
    // irrelevant. The minimal set is typically ~10x smaller than the
    // candidate set, which turns the dominant cost of `Blocks` on
    // fault-heavy problems (many distinct size classes of
    // partially-determined branches) into noise.
    let sizes: Vec<usize> = out.iter().map(LabelSet::len).collect();
    let mut by_size: Vec<usize> = (0..out.len()).collect();
    by_size.sort_unstable_by_key(|&i| sizes[i]);
    let mut keep = vec![false; out.len()];
    // Monotone one-word summaries: a failing fingerprint test refutes
    // `out[j] ⊆ out[i]` without touching the words, and a passing one
    // changes nothing — the kept set is identical.
    let fps: Vec<u64> = out.iter().map(LabelSet::fingerprint).collect();
    // Indices of accepted minimal labels, in ascending size order (the
    // processing order).
    let mut accepted: Vec<usize> = Vec::new();
    for &i in &by_size {
        tick()?;
        let shadowed = accepted
            .iter()
            .take_while(|&&j| sizes[j] < sizes[i])
            .any(|&j| fps[j] & !fps[i] == 0 && out[j].is_subset(&out[i]));
        if !shadowed {
            keep[i] = true;
            accepted.push(i);
        }
    }
    // Emit in the original candidate order.
    Ok(out
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep[i])
        .map(|(_, a)| a.clone())
        .collect())
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
