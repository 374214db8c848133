//! The deletion oracle: the sweep-based engine the worklist
//! implementation in `ftsyn_tableau` replaced. Every rule is applied by
//! whole-graph sweeps to a fixpoint (O(rounds · N)), and every
//! fulfillment certificate by fixpoint iteration (O(N · E)). It visits
//! the same rule phases in the same order as the worklist engine, so
//! the two must produce identical alive sets *and* identical per-rule
//! [`DeletionStats`].

use ftsyn::ctl::{Closure, ClosureIdx, EntryKind, LabelSet};
use ftsyn::tableau::{CertMode, DeletionStats, Fulfillment, NodeKind, Tableau};

/// A certificate with no node fulfilled yet.
fn unfulfilled(n: usize) -> Fulfillment {
    Fulfillment {
        fulfilled: vec![false; n],
        rank: vec![u32::MAX; n],
    }
}

/// All distinct eventualities (`AU`/`EU`) occurring in alive labels, as
/// `(closure idx, g, h, is_au)`, in order of first occurrence: one pass
/// over every label bit of every alive node (the pre-worklist scan).
pub fn live_eventualities_sweep(
    t: &Tableau,
    closure: &Closure,
) -> Vec<(ClosureIdx, ClosureIdx, ClosureIdx, bool)> {
    let mut seen: LabelSet = closure.empty_label();
    let mut out = Vec::new();
    for id in t.node_ids() {
        if !t.alive(id) {
            continue;
        }
        for idx in t.node(id).label.iter() {
            if seen.contains(idx) {
                continue;
            }
            seen.insert(idx);
            match closure.entry(idx).kind {
                EntryKind::Au { g, h, .. } => out.push((idx, g, h, true)),
                EntryKind::Eu { g, h, .. } => out.push((idx, g, h, false)),
                _ => {}
            }
        }
    }
    out
}

/// Reference `A[gUh]` fulfillment by whole-graph fixpoint sweeps
/// (O(N · E)); semantics identical to `ftsyn_tableau::au_fulfillment`.
pub fn au_fulfillment_naive(
    t: &Tableau,
    closure: &Closure,
    g: ClosureIdx,
    h: ClosureIdx,
    mode: CertMode,
) -> Fulfillment {
    let mut f = unfulfilled(t.len());
    let g_holds = |l: &LabelSet| g == closure.true_idx() || l.contains(g);
    for id in t.node_ids() {
        if t.alive(id) && t.node(id).kind == NodeKind::And && t.node(id).label.contains(h) {
            f.fulfilled[id.index()] = true;
            f.rank[id.index()] = 0;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        // OR nodes: min over fulfilled children.
        for id in t.node_ids() {
            if !t.alive(id) || t.node(id).kind != NodeKind::Or {
                continue;
            }
            let best = t
                .alive_succ(id, |_| true)
                .filter(|&(_, c)| f.fulfilled[c.index()])
                .map(|(_, c)| f.rank[c.index()])
                .min();
            if let Some(r) = best {
                if !f.fulfilled[id.index()] || r < f.rank[id.index()] {
                    f.fulfilled[id.index()] = true;
                    f.rank[id.index()] = r;
                    changed = true;
                }
            }
        }
        // AND nodes: all non-fault successors fulfilled.
        for id in t.node_ids() {
            if !t.alive(id)
                || t.node(id).kind != NodeKind::And
                || f.fulfilled[id.index()]
                || !g_holds(&t.node(id).label)
            {
                continue;
            }
            let mut all = true;
            let mut worst = 0u32;
            let mut any = false;
            for (_, d) in t.alive_succ(id, |k| mode.admits(k)) {
                any = true;
                if f.fulfilled[d.index()] {
                    worst = worst.max(f.rank[d.index()]);
                } else {
                    all = false;
                    break;
                }
            }
            if any && all {
                f.fulfilled[id.index()] = true;
                f.rank[id.index()] = worst + 1;
                changed = true;
            }
        }
    }
    f
}

/// Reference `E[gUh]` fulfillment by whole-graph fixpoint sweeps;
/// semantics identical to `ftsyn_tableau::eu_fulfillment`.
pub fn eu_fulfillment_naive(
    t: &Tableau,
    closure: &Closure,
    g: ClosureIdx,
    h: ClosureIdx,
    mode: CertMode,
) -> Fulfillment {
    let mut f = unfulfilled(t.len());
    let g_holds = |l: &LabelSet| g == closure.true_idx() || l.contains(g);
    for id in t.node_ids() {
        if t.alive(id) && t.node(id).kind == NodeKind::And && t.node(id).label.contains(h) {
            f.fulfilled[id.index()] = true;
            f.rank[id.index()] = 0;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for id in t.node_ids() {
            if !t.alive(id) {
                continue;
            }
            match t.node(id).kind {
                NodeKind::Or => {
                    let best = t
                        .alive_succ(id, |_| true)
                        .filter(|&(_, c)| f.fulfilled[c.index()])
                        .map(|(_, c)| f.rank[c.index()])
                        .min();
                    if let Some(r) = best {
                        if !f.fulfilled[id.index()] || r < f.rank[id.index()] {
                            f.fulfilled[id.index()] = true;
                            f.rank[id.index()] = r;
                            changed = true;
                        }
                    }
                }
                NodeKind::And => {
                    if f.fulfilled[id.index()] || !g_holds(&t.node(id).label) {
                        continue;
                    }
                    let best = t
                        .alive_succ(id, |k| mode.admits(k))
                        .filter(|&(_, d)| f.fulfilled[d.index()])
                        .map(|(_, d)| f.rank[d.index()])
                        .min();
                    if let Some(r) = best {
                        f.fulfilled[id.index()] = true;
                        f.rank[id.index()] = r + 1;
                        changed = true;
                    }
                }
            }
        }
    }
    f
}

/// Reference deletion engine: full-graph sweeps to a fixpoint (the
/// pre-worklist implementation). Produces the same alive set and the
/// same [`DeletionStats`] as `ftsyn_tableau::apply_deletion_rules_profiled`.
pub fn apply_deletion_rules_naive_mode(
    t: &mut Tableau,
    closure: &Closure,
    mode: CertMode,
) -> DeletionStats {
    let mut stats = DeletionStats::default();

    // DeleteP (once: labels never change afterwards).
    for id in t.node_ids().collect::<Vec<_>>() {
        if t.alive(id) && !closure.is_prop_consistent(&t.node(id).label) {
            t.delete(id);
            stats.prop_inconsistent += 1;
        }
    }

    loop {
        // Structural propagation (DeleteOR / DeleteAND) to a fixpoint.
        loop {
            let mut changed = false;
            for id in t.node_ids().collect::<Vec<_>>() {
                if !t.alive(id) {
                    continue;
                }
                match t.node(id).kind {
                    NodeKind::Or => {
                        if t.alive_succ(id, |_| true).next().is_none() {
                            t.delete(id);
                            stats.or_without_children += 1;
                            changed = true;
                        }
                    }
                    NodeKind::And => {
                        let missing = t.node(id).succ.iter().any(|&(_, d)| !t.alive(d));
                        if missing {
                            t.delete(id);
                            stats.and_missing_successor += 1;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Eventuality rules.
        let mut removed_any = false;
        for (idx, g, h, is_au) in live_eventualities_sweep(t, closure) {
            let f = if is_au {
                au_fulfillment_naive(t, closure, g, h, mode)
            } else {
                eu_fulfillment_naive(t, closure, g, h, mode)
            };
            for id in t.node_ids().collect::<Vec<_>>() {
                if t.alive(id) && t.node(id).label.contains(idx) && !f.is_fulfilled(id) {
                    t.delete(id);
                    if is_au {
                        stats.au_unfulfilled += 1;
                    } else {
                        stats.eu_unfulfilled += 1;
                    }
                    removed_any = true;
                }
            }
        }
        if !removed_any {
            break;
        }
    }

    stats.unreachable = t.restrict_to_reachable();
    stats
}
