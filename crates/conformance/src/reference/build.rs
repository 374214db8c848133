//! The tableau construction oracle: the naive `Blocks`/`Tiles` kernels
//! of [`super::expand`] on a plain sequential breadth-first harness,
//! independent of `ftsyn_tableau`'s work-stealing scheduler, expansion
//! cache and governor. The optimized build must reproduce it bit for
//! bit at every thread count.

use super::expand::{blocks_naive, tiles_naive};
use ftsyn::ctl::{Closure, LabelSet, PropTable};
use ftsyn::kripke::PropSet;
use ftsyn::tableau::{valuation_of, EdgeKind, FaultSpec, NodeKind, Tableau, Tile};
use std::collections::VecDeque;

/// The label of a fault-successor OR-node: every proposition pinned to
/// its value in the outcome valuation `phi`, plus the tolerance label
/// (Definition 5.1.2).
fn fault_or_label(closure: &Closure, props: &PropTable, phi: &PropSet, tol: &LabelSet) -> LabelSet {
    let mut l = tol.clone();
    for p in props.iter() {
        let lit = closure
            .literal(p, phi.contains(p))
            .expect("all literals are registered in the closure");
        l.insert(lit);
    }
    l
}

/// Builds the tableau `T₀` for `root_label` with the naive kernels.
/// Each dequeued node gets its successors in order — `Blocks` for an
/// OR-node; `Tiles`, then one fault successor per outcome of every
/// enabled fault action, for an AND-node — each interned and wired as
/// it comes. `ftsyn_tableau::build_with_threads` must produce a
/// bit-identical tableau.
pub fn build_reference(
    closure: &Closure,
    props: &PropTable,
    root_label: LabelSet,
    faults: &FaultSpec,
) -> Tableau {
    let mut t = Tableau::with_root(root_label);
    let mut queue = VecDeque::from([t.root()]);
    while let Some(id) = queue.pop_front() {
        let label = t.node(id).label.clone();
        // Successor labels by edge kind; a `Dummy` edge carries the
        // node's own label, for the dummy OR-node that loops back.
        let succ: Vec<(EdgeKind, LabelSet)> = match t.node(id).kind {
            NodeKind::Or => blocks_naive(closure, &label)
                .into_iter()
                .map(|block| (EdgeKind::Unlabeled, block))
                .collect(),
            NodeKind::And => {
                let mut succ: Vec<_> = tiles_naive(closure, props, &label)
                    .into_iter()
                    .map(|tile| match tile {
                        Tile::Or { proc, or_label } => (EdgeKind::Proc(proc), or_label),
                        Tile::Dummy => (EdgeKind::Dummy, label.clone()),
                    })
                    .collect();
                let valuation = valuation_of(closure, props, &label);
                for (ai, action) in faults.actions.iter().enumerate() {
                    if action.enabled(&valuation) {
                        for phi in action.outcomes(&valuation, props.len()) {
                            let tol = &faults.tolerance_labels[ai];
                            let l = fault_or_label(closure, props, &phi, tol);
                            succ.push((EdgeKind::Fault(ai), l));
                        }
                    }
                }
                succ
            }
        };
        for (kind, l) in succ {
            let (target, fresh) = match kind {
                EdgeKind::Unlabeled => t.intern_and(l),
                EdgeKind::Dummy => {
                    let dummy = t.new_dummy_or(l);
                    t.add_edge(id, EdgeKind::Dummy, dummy);
                    t.add_edge(dummy, EdgeKind::Unlabeled, id);
                    continue;
                }
                _ => t.intern_or(l),
            };
            t.add_edge(id, kind, target);
            if fresh {
                queue.push_back(target);
            }
        }
    }
    t
}
