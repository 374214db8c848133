//! Reference (`slow-reference`) implementations of the `Blocks` and
//! `Tiles` expansions, kept verbatim from before the build-phase
//! acceleration work.
//!
//! These are the oracle for the optimized kernels in [`crate::expand`]:
//! equivalence tests and the `build_reference` cross-check assert that
//! the fast path produces bit-identical label sets. The propositional
//! consistency check here deliberately re-derives the
//! literal table from the label via a `HashMap` walk — the exact
//! pre-optimization behavior — rather than using the precomputed
//! literal masks of [`ftsyn_ctl::Closure::is_prop_consistent`].

use ftsyn_ctl::{Closure, ClosureIdx, EntryKind, Expansion, LabelSet, PropId};
use std::collections::{HashMap, HashSet};

/// Propositional consistency via a per-call `HashMap` over the label's
/// literals: no `false`, and no `p` together with `¬p`.
pub fn naive_is_prop_consistent(closure: &Closure, label: &LabelSet) -> bool {
    let mut seen: HashMap<PropId, [bool; 2]> = HashMap::new();
    for idx in label.iter() {
        match closure.entry(idx).kind {
            EntryKind::False => return false,
            EntryKind::Lit { prop, positive } => {
                let polar = seen.entry(prop).or_default();
                polar[positive as usize] = true;
                if polar[0] && polar[1] {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// Pre-optimization `Blocks(d)` (see [`crate::expand::blocks`] for the
/// algorithm documentation; the two must stay output-identical).
pub fn blocks_naive(closure: &Closure, label: &LabelSet) -> Vec<LabelSet> {
    let mut done: Vec<LabelSet> = Vec::new();
    let mut done_set: HashSet<LabelSet> = HashSet::new();
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

    while let Some((acc, mut alphas, mut betas)) = stack.pop() {
        if alphas.is_empty() && betas.is_empty() {
            if done_set.insert(acc.clone()) {
                done.push(acc);
            }
            continue;
        }
        if let Some(idx) = alphas.pop() {
            match closure.expansion(idx) {
                Expansion::Elementary => {
                    if matches!(closure.entry(idx).kind, EntryKind::False) {
                        continue; // propositionally inconsistent branch
                    }
                    stack.push((acc, alphas, betas));
                }
                Expansion::Alpha(a, b) => {
                    let mut acc = acc;
                    for comp in [a, b] {
                        if acc.insert(comp) {
                            match closure.expansion(comp) {
                                Expansion::Beta(_, _) => betas.push(comp),
                                _ => alphas.push(comp),
                            }
                        }
                    }
                    if naive_is_prop_consistent(closure, &acc) {
                        stack.push((acc, alphas, betas));
                    }
                }
                Expansion::Beta(_, _) => unreachable!("betas are queued separately"),
            }
            continue;
        }
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
                            let mut probe = acc.clone();
                            probe.insert(comp);
                            !naive_is_prop_consistent(closure, &probe)
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
            stack.push((acc, alphas, betas));
            continue;
        }
        let choices: &[ClosureIdx] = match &forced {
            Some(comp) => std::slice::from_ref(comp),
            None => &[a, b],
        };
        for &comp in choices {
            let mut acc2 = acc.clone();
            let mut alphas2 = alphas.clone();
            let mut betas2 = betas.clone();
            if acc2.insert(comp) {
                match closure.expansion(comp) {
                    Expansion::Beta(_, _) => betas2.push(comp),
                    _ => alphas2.push(comp),
                }
            }
            if naive_is_prop_consistent(closure, &acc2) {
                stack.push((acc2, alphas2, betas2));
            }
        }
    }

    // Split labels that have AX formulae but no EX formula at all.
    let mut out: Vec<LabelSet> = Vec::new();
    let mut out_set: HashSet<LabelSet> = HashSet::new();
    for acc in done {
        let mut has_ax = false;
        let mut has_ex = false;
        for idx in acc.iter() {
            match closure.entry(idx).kind {
                EntryKind::Ax { .. } => has_ax = true,
                EntryKind::Ex { .. } => has_ex = true,
                _ => {}
            }
        }
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
    let minimal: Vec<LabelSet> = out
        .iter()
        .filter(|a| !out.iter().any(|b| *b != **a && b.is_subset(a)))
        .cloned()
        .collect();
    minimal
}

/// Pre-optimization `Tiles(c)` with the original O(n²) `Vec::contains`
/// dedup (see [`crate::expand::tiles`]).
pub fn tiles_naive(
    closure: &Closure,
    props: &ftsyn_ctl::PropTable,
    label: &LabelSet,
) -> Vec<crate::expand::Tile> {
    use crate::expand::Tile;
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
        for &e in exs {
            let mut or_label = closure.empty_label();
            if let Some(axs) = ax_bodies.get(proc) {
                for &a in axs {
                    or_label.insert(a);
                }
            }
            // Frame condition (Definition 5.1.2): pin every proposition
            // owned by another process to its current value. The naive
            // oracle re-derives the valuation per tile; the optimized
            // kernel shares it across the process's tiles.
            for p in props.iter() {
                match props.owner(p) {
                    ftsyn_ctl::Owner::Process(j) if j != proc => {
                        let positive = label.iter().any(|idx| {
                            matches!(
                                closure.entry(idx).kind,
                                EntryKind::Lit { prop, positive: true } if prop == p
                            )
                        });
                        let lit = closure
                            .literal(p, positive)
                            .expect("all literals are registered in the closure");
                        or_label.insert(lit);
                    }
                    _ => {}
                }
            }
            or_label.insert(e);
            let tile = Tile::Or { proc, or_label };
            if !out.contains(&tile) {
                out.push(tile);
            }
        }
    }
    out
}
