//! Model construction by unraveling (step 4 of the synthesis method).
//!
//! Fragments are pasted together: each frontier node (a copy of some
//! AND-node `c`) is either identified with the root of an already
//! directly-embedded copy of `FFRAG[c]`, or replaced by a fresh copy of
//! `FFRAG[c]`. Since each fragment is embedded at most once, the map
//! from `c` to its embedded root implements the paper's
//! "directly embedded" test as a hash lookup, and the process terminates
//! with an empty frontier (Proposition 7.1.8, step 4).

use crate::fragment::{build_ffrag_cached, FulfillmentCache};
use ftsyn_ctl::{Closure, LabelSet, PropTable};
use ftsyn_kripke::{FtKripke, KripkeBuilder, StateId, TransKind};
use ftsyn_tableau::{valuation_of, AbortReason, CertMode, EdgeKind, Governor, NodeId, Tableau};
use std::collections::{HashMap, VecDeque};

/// Frontier pops between governor deadline polls. Unraveling has no
/// dedicated work cap (it is polynomial in the pruned tableau, which is
/// already capped), so only the deadline and the cancel flag apply.
const REALTIME_POLL_INTERVAL: usize = 256;

/// The unraveled model, with bookkeeping connecting model states back to
/// tableau AND-nodes (needed for verification and extraction).
#[derive(Clone, Debug)]
pub struct Unraveled {
    /// The fault-tolerant Kripke structure `M`.
    pub model: FtKripke,
    /// For every state: the tableau AND-node it is a copy of.
    pub state_tableau: Vec<NodeId>,
}

impl Unraveled {
    /// The (full, temporal) label of a model state.
    pub fn state_label<'a>(&self, t: &'a Tableau, s: StateId) -> &'a LabelSet {
        &t.node(self.state_tableau[s.index()]).label
    }
}

#[derive(Clone, Debug)]
struct MNode {
    tableau_id: NodeId,
    succ: Vec<(EdgeKind, usize)>,
    frontier: bool,
    /// When a frontier node is identified with an embedded root, this
    /// points at that root.
    redirect: Option<usize>,
}

/// Unravels the pruned tableau into a model, starting from the chosen
/// initial AND-node `c0 ∈ Blocks(d0)`, with the fragments' certificate
/// mode (Section 8.3's alternative method uses [`CertMode::FaultProne`]).
pub fn unravel_mode(
    t: &Tableau,
    closure: &Closure,
    props: &PropTable,
    c0: NodeId,
    mode: CertMode,
) -> Unraveled {
    unravel_governed(t, closure, props, c0, mode, None)
        .unwrap_or_else(|reason| panic!("ungoverned unravel aborted: {reason}"))
}

/// [`unravel_mode`] under an optional [`Governor`] (`None` never
/// aborts): polls the deadline and cancel flag every
/// `REALTIME_POLL_INTERVAL` frontier pops.
pub fn unravel_governed(
    t: &Tableau,
    closure: &Closure,
    props: &PropTable,
    c0: NodeId,
    mode: CertMode,
    gov: Option<&Governor>,
) -> Result<Unraveled, AbortReason> {
    let mut nodes: Vec<MNode> = Vec::new();
    let mut root_of: HashMap<NodeId, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    // Fulfillment certificates are whole-tableau computations shared by
    // every fragment this unraveling embeds.
    let mut certs = FulfillmentCache::default();

    // Embeds FFRAG[c]; returns the index of its root.
    let embed = |c: NodeId,
                 nodes: &mut Vec<MNode>,
                 root_of: &mut HashMap<NodeId, usize>,
                 queue: &mut VecDeque<usize>,
                 certs: &mut FulfillmentCache|
     -> usize {
        let frag = build_ffrag_cached(t, closure, c, mode, certs);
        // Copy only the nodes reachable from the fragment root (frontier
        // merging can orphan duplicates). Fragment node indices are
        // dense, so a plain vec keeps the mapping — and, crucially, lets
        // the frontier be enqueued in fragment-index order, making the
        // model's state numbering a pure function of the tableau.
        let mut map: Vec<Option<usize>> = vec![None; frag.nodes.len()];
        let mut stack = vec![frag.root];
        map[frag.root] = Some(nodes.len());
        nodes.push(MNode {
            tableau_id: frag.nodes[frag.root].tableau_id,
            succ: Vec::new(),
            frontier: frag.nodes[frag.root].frontier,
            redirect: None,
        });
        while let Some(i) = stack.pop() {
            let succ: Vec<(EdgeKind, usize)> = frag.nodes[i].succ.clone();
            for (kind, j) in succ {
                let jj = if let Some(jj) = map[j] {
                    jj
                } else {
                    let jj = nodes.len();
                    map[j] = Some(jj);
                    nodes.push(MNode {
                        tableau_id: frag.nodes[j].tableau_id,
                        succ: Vec::new(),
                        frontier: frag.nodes[j].frontier,
                        redirect: None,
                    });
                    stack.push(j);
                    jj
                };
                let ii = map[i].expect("visited");
                nodes[ii].succ.push((kind, jj));
            }
        }
        for (fi, &mi) in map.iter().enumerate() {
            if let Some(mi) = mi {
                if frag.nodes[fi].frontier {
                    queue.push_back(mi);
                }
            }
        }
        let r = map[frag.root].expect("root mapped");
        root_of.insert(c, r);
        r
    };

    let r0 = embed(c0, &mut nodes, &mut root_of, &mut queue, &mut certs);

    let mut pops = 0usize;
    while let Some(s) = queue.pop_front() {
        pops += 1;
        if let Some(g) = gov {
            if pops.is_multiple_of(REALTIME_POLL_INTERVAL) {
                g.check_realtime()?;
            }
        }
        if nodes[s].redirect.is_some() || !nodes[s].frontier {
            continue;
        }
        let c = nodes[s].tableau_id;
        let target = match root_of.get(&c) {
            Some(&r) => r,
            None => embed(c, &mut nodes, &mut root_of, &mut queue, &mut certs),
        };
        nodes[s].redirect = Some(target);
        nodes[s].frontier = false;
    }

    // Resolve redirects and build the Kripke structure. Redirect chains
    // have length ≤ 1 (roots are never frontier, hence never redirected).
    let resolve = |i: usize, nodes: &[MNode]| -> usize { nodes[i].redirect.unwrap_or(i) };

    // Copies of one tableau node share its valuation, interned once.
    let mut model = KripkeBuilder::new();
    let mut val_of: HashMap<NodeId, u32> = HashMap::new();
    let mut state_tableau: Vec<NodeId> = Vec::new();
    let mut state_of: Vec<Option<StateId>> = vec![None; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        if n.redirect.is_some() {
            continue;
        }
        let val = *val_of.entry(n.tableau_id).or_insert_with(|| {
            model.intern_valuation(valuation_of(closure, props, &t.node(n.tableau_id).label))
        });
        let sid = model.push(val, 0);
        state_of[i] = Some(sid);
        state_tableau.push(n.tableau_id);
    }
    let state_at = |i: usize, state_of: &[Option<StateId>]| state_of[i].expect("kept state");
    for (i, n) in nodes.iter().enumerate() {
        if n.redirect.is_some() {
            continue;
        }
        let from = state_at(i, &state_of);
        for &(kind, j) in &n.succ {
            let to = state_at(resolve(j, &nodes), &state_of);
            match kind {
                EdgeKind::Proc(p) => model.add_edge(from, TransKind::Proc(p as u32), to),
                EdgeKind::Fault(a) => model.add_edge(from, TransKind::Fault(a as u32), to),
                // Dummy self-loops are dropped: the state becomes a dead
                // end, and the finite-fullpath semantics of the checker
                // agrees with the tableau's treatment.
                EdgeKind::Dummy | EdgeKind::Unlabeled => {}
            }
        }
    }
    model.add_init(state_at(r0, &state_of));

    Ok(Unraveled {
        model: model.freeze(),
        state_tableau,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{parse::parse, FormulaArena, FormulaId, Owner};
    use ftsyn_kripke::{Checker, Semantics};
    use ftsyn_tableau::{apply_deletion_rules_profiled, build_with_threads, FaultSpec};

    fn synthesize_plain(
        spec: &str,
    ) -> (
        FormulaArena,
        PropTable,
        Closure,
        Tableau,
        Unraveled,
        FormulaId,
    ) {
        let mut props = PropTable::new();
        props.add("p", Owner::Process(0)).unwrap();
        props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let f = parse(&mut arena, &mut props, spec, true).unwrap();
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        let mut t = build_with_threads(&cl, &props, root, &FaultSpec::none(), 1).0;
        apply_deletion_rules_profiled(&mut t, &cl, CertMode::FaultFree);
        assert!(t.alive(t.root()), "spec must be satisfiable");
        let c0 = t
            .alive_succ(t.root(), |_| true)
            .map(|(_, c)| c)
            .next()
            .unwrap();
        let u = unravel_mode(&t, &cl, &props, c0, CertMode::FaultFree);
        (arena, props, cl, t, u, f)
    }

    #[test]
    fn model_satisfies_spec_at_initial_state() {
        for spec in [
            "p & AG EX1 true",
            "~p & AF p & AG EX1 true",
            "p & AG(EX1 true) & AG(p -> AX1 ~p) & AG(~p -> AX1 p)",
            "~p & EF p & AG EX1 true",
            "p & AG(p -> EX1 p)",
        ] {
            let (arena, _props, _cl, _t, u, f) = synthesize_plain(spec);
            let init = u.model.init_states()[0];
            let mut ck = Checker::new(&u.model, Semantics::FaultFree);
            assert!(
                ck.holds(&arena, f, init),
                "model of `{spec}` must satisfy it at the initial state"
            );
        }
    }

    #[test]
    fn every_state_satisfies_its_whole_label() {
        // Theorem 7.1.9 (soundness), checked mechanically.
        let (arena, _props, cl, t, u, _f) =
            synthesize_plain("~p & AF p & AG EX1 true & AG(p -> AF ~p)");
        let mut ck = Checker::new(&u.model, Semantics::FaultFree);
        for s in u.model.state_ids() {
            let label = u.state_label(&t, s);
            for idx in label.iter() {
                let fid = cl.entry(idx).id;
                assert!(
                    ck.holds(&arena, fid, s),
                    "state {s:?} must satisfy label formula {fid:?}"
                );
            }
        }
    }

    #[test]
    fn unraveling_terminates_and_is_finite() {
        let (_, _, _, t, u, _) = synthesize_plain("~p & AF p & AG EX1 true");
        let (and_alive, _) = t.alive_counts();
        // |M| is bounded by Σ|FFRAG| ≤ (#AND)².
        assert!(u.model.len() <= and_alive * and_alive + and_alive);
        assert!(!u.model.is_empty());
    }

    #[test]
    fn dead_end_states_allowed_for_pure_propositional_specs() {
        let (arena, _, _, _, u, f) = synthesize_plain("p & q");
        let init = u.model.init_states()[0];
        assert!(u.model.succ(init).is_empty(), "dummy self-loop dropped");
        let mut ck = Checker::new(&u.model, Semantics::FaultFree);
        assert!(ck.holds(&arena, f, init));
    }
}
