//! Bisimulation minimization of fault-tolerant Kripke structures.
//!
//! The unraveling step of the synthesis method (Section 5.2, step 4)
//! deliberately duplicates states — one copy per fragment occurrence —
//! which makes the extracted programs carry more disambiguating shared
//! variables than necessary. Quotienting by strong bisimulation over the
//! edge labels (process indices *and* fault actions) collapses the
//! copies while preserving the satisfaction of every CTL formula under
//! both the plain and the fault-free-relativized semantics, since both
//! are bisimulation-invariant for label-respecting bisimulations.
//!
//! States are initially partitioned by valuation (and shared values, if
//! any), then refined by successor signatures until stable — the naive
//! partition-refinement algorithm, adequate for the model sizes the
//! synthesis method produces.

use crate::structure::{FtKripke, StateId, TransKind};
use std::collections::HashMap;

/// The result of minimization: the quotient structure and, for every
/// original state, its block (= quotient state index).
#[derive(Clone, Debug)]
pub struct Quotient {
    /// The minimized structure.
    pub model: FtKripke,
    /// `block_of[s]` is the quotient state id of original state `s`.
    pub block_of: Vec<StateId>,
    /// For every quotient state, one representative original state.
    pub representative: Vec<StateId>,
}

/// Successor signature: sorted, deduplicated `(kind-tag, index, block)`.
type Signature = Vec<(u8, u32, usize)>;

/// Computes the quotient of `m` by strong (labeled) bisimulation.
pub fn bisimulation_quotient(m: &FtKripke) -> Quotient {
    let n = m.len();
    // Initial partition: by state content, that is by (valuation id,
    // vector id).
    let mut block: Vec<usize> = vec![0; n];
    let mut block_count = {
        let mut index: HashMap<(u32, u32), usize> = HashMap::new();
        for s in m.state_ids() {
            let next = index.len();
            let b = *index.entry((m.val_id(s), m.vec_id(s))).or_insert(next);
            block[s.index()] = b;
        }
        index.len()
    };

    // Refine until stable: each round splits blocks, so it is stable
    // iff it leaves the number of blocks unchanged.
    loop {
        let mut index: HashMap<(usize, Signature), usize> = HashMap::new();
        let mut next_block = vec![0usize; n];
        for s in m.state_ids() {
            let mut sig: Signature = m
                .succ(s)
                .iter()
                .map(|e| match e.kind {
                    TransKind::Proc(i) => (0u8, i, block[e.to.index()]),
                    TransKind::Fault(a) => (1u8, a, block[e.to.index()]),
                })
                .collect();
            sig.sort_unstable();
            sig.dedup();
            let key = (block[s.index()], sig);
            let next = index.len();
            let b = *index.entry(key).or_insert(next);
            next_block[s.index()] = b;
        }
        let stable = index.len() == block_count;
        block = next_block;
        block_count = index.len();
        if stable {
            break;
        }
    }

    // Build the quotient structure.
    let mut representative: Vec<Option<StateId>> = vec![None; block_count];
    for s in m.state_ids() {
        let b = block[s.index()];
        if representative[b].is_none() {
            representative[b] = Some(s);
        }
    }
    let representative: Vec<StateId> = representative
        .into_iter()
        .map(|r| r.expect("every block has a member"))
        .collect();

    let mut q = m.share_tables();
    let qids: Vec<StateId> = representative
        .iter()
        .map(|&r| q.push(m.val_id(r), m.vec_id(r)))
        .collect();
    // Block by block, each block's members in id order: the builder
    // takes a state's edges together.
    let mut members: Vec<StateId> = m.state_ids().collect();
    members.sort_by_key(|s| block[s.index()]);
    for s in members {
        let from = qids[block[s.index()]];
        for e in m.succ(s) {
            q.add_edge(from, e.kind, qids[block[e.to.index()]]);
        }
    }
    for &i in m.init_states() {
        q.add_init(qids[block[i.index()]]);
    }

    Quotient {
        model: q.freeze(),
        block_of: block.iter().map(|&b| qids[b]).collect(),
        representative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{PropSet, State};
    use crate::structure::KripkeBuilder;
    use ftsyn_ctl::PropId;

    fn st(n: usize, props: &[u32]) -> State {
        State::new(PropSet::from_iter_with_capacity(
            n,
            props.iter().map(|&p| PropId(p)),
        ))
    }

    #[test]
    fn duplicate_chain_collapses() {
        // Two bisimilar copies of a two-state toggle collapse to one.
        let mut m = KripkeBuilder::new();
        let a1 = m.push_state(st(2, &[0]));
        let b1 = m.push_state(st(2, &[1]));
        let a2 = m.push_state(st(2, &[0]));
        let b2 = m.push_state(st(2, &[1]));
        m.add_init(a1);
        m.add_edge(a1, TransKind::Proc(0), b1);
        m.add_edge(b1, TransKind::Proc(0), a2);
        m.add_edge(a2, TransKind::Proc(0), b2);
        m.add_edge(b2, TransKind::Proc(0), a1);
        let m = m.freeze();
        let q = bisimulation_quotient(&m);
        assert_eq!(q.model.len(), 2);
        assert_eq!(q.model.edge_count(), 2);
    }

    #[test]
    fn different_behavior_not_merged() {
        // Same valuation, different futures: kept apart.
        let mut m = KripkeBuilder::new();
        let a1 = m.push_state(st(2, &[0]));
        let a2 = m.push_state(st(2, &[0]));
        let b = m.push_state(st(2, &[1]));
        m.add_init(a1);
        m.add_edge(a1, TransKind::Proc(0), b);
        m.add_edge(a2, TransKind::Proc(0), a2);
        m.add_edge(b, TransKind::Proc(0), a2);
        let m = m.freeze();
        let q = bisimulation_quotient(&m);
        assert_eq!(q.model.len(), 3);
    }

    #[test]
    fn edge_labels_distinguish() {
        // Same targets, different process indices: not merged.
        let mut m = KripkeBuilder::new();
        let a1 = m.push_state(st(2, &[0]));
        let a2 = m.push_state(st(2, &[0]));
        let b = m.push_state(st(2, &[1]));
        m.add_init(a1);
        m.add_edge(a1, TransKind::Proc(0), b);
        m.add_edge(a2, TransKind::Proc(1), b);
        m.add_edge(b, TransKind::Proc(0), b);
        let m = m.freeze();
        let q = bisimulation_quotient(&m);
        assert_eq!(q.model.len(), 3, "P1-move ≠ P2-move");
    }

    #[test]
    fn fault_edges_distinguish() {
        let mut m = KripkeBuilder::new();
        let a1 = m.push_state(st(2, &[0]));
        let a2 = m.push_state(st(2, &[0]));
        let b = m.push_state(st(2, &[1]));
        m.add_init(a1);
        m.add_edge(a1, TransKind::Proc(0), b);
        m.add_edge(a2, TransKind::Proc(0), b);
        m.add_edge(a2, TransKind::Fault(0), b);
        m.add_edge(b, TransKind::Proc(0), b);
        let m = m.freeze();
        let q = bisimulation_quotient(&m);
        assert_eq!(q.model.len(), 3, "extra fault edge distinguishes");
    }

    #[test]
    fn block_of_is_consistent() {
        let mut m = KripkeBuilder::new();
        let a1 = m.push_state(st(2, &[0]));
        let b1 = m.push_state(st(2, &[1]));
        m.add_init(a1);
        m.add_edge(a1, TransKind::Proc(0), b1);
        m.add_edge(b1, TransKind::Proc(0), a1);
        let m = m.freeze();
        let q = bisimulation_quotient(&m);
        assert_eq!(q.block_of.len(), 2);
        assert_eq!(q.representative.len(), q.model.len());
        for s in m.state_ids() {
            let qs = q.block_of[s.index()];
            assert_eq!(q.model.props(qs), m.props(s));
        }
    }
}
