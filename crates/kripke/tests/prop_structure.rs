//! Randomized validation of the frozen structure layout: a structure
//! written through [`KripkeBuilder`] must read exactly like a plain
//! list-of-lists structure that applies each `add_edge` at once — an
//! edge is kept iff its source has no equal edge yet, and is appended to
//! its source's successors and its target's predecessors.
//!
//! Each case draws a random sequence of state, edge and initial-state
//! additions, with repeated contents, duplicate edges, sources in any
//! order and both edge kinds, on structures that stay small or cross
//! one or two 64-state words, and builds it with its edges grouped by
//! source, in id order or in order of first appearance (the builder
//! takes all of a state's edges together; its unit tests check that an
//! edge from a state whose edges have closed panics). The
//! frozen structure must agree with the reference on contents, `succ`
//! and `pred` (with their order), initial states, edge counts and the
//! state classification; equal valuation and vector ids must mean equal
//! contents; and `merge_into` (into a buffer that held another
//! structure) and `reset_states` must equal a fresh build of the same
//! result.
//!
//! Cases come from a seeded [`XorShift64`] stream; failures print the
//! case index, so a failing case is reproducible by construction.

use ftsyn_ctl::PropId;
use ftsyn_kripke::{Edge, FtKripke, KripkeBuilder, PropSet, State, StateId, StateRole, TransKind};
use ftsyn_prng::XorShift64;
use std::sync::Arc;

const NUM_PROPS: usize = 3;
const CASES: usize = 200;
const SEED: u64 = 0x57C7_0001;

/// One addition to a structure under construction.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A state with this valuation bitmask and shared value.
    State(u8, u32),
    Edge(u32, TransKind, u32),
    Init(u32),
}

/// A random sequence of additions: states drawn from few contents (so
/// contents repeat), each edge between states added so far, many edges
/// repeated.
fn random_ops(rng: &mut XorShift64, width: usize) -> Vec<Op> {
    let n = match rng.below(4) {
        0 => rng.range(60, 70),
        1 => rng.range(120, 136),
        _ => rng.range(1, 7),
    };
    let mut ops = Vec::new();
    let mut edges: Vec<(u32, TransKind, u32)> = Vec::new();
    let mut states = 0u32;
    while (states as usize) < n || rng.chance(0.6) {
        let pick = rng.below(10);
        if states == 0 || ((states as usize) < n && pick < 3) {
            let shared = if width == 0 { 0 } else { rng.below(3) as u32 };
            ops.push(Op::State(rng.below(1 << NUM_PROPS) as u8, shared));
            states += 1;
        } else if pick < 4 {
            ops.push(Op::Init(rng.below(states as usize) as u32));
        } else if pick < 6 && !edges.is_empty() {
            let &(a, k, b) = rng.choose(&edges).expect("non-empty");
            ops.push(Op::Edge(a, k, b));
        } else {
            let kind = if rng.chance(0.3) {
                TransKind::Fault(rng.below(2))
            } else {
                TransKind::Proc(rng.below(2))
            };
            let e = (
                rng.below(states as usize) as u32,
                kind,
                rng.below(states as usize) as u32,
            );
            edges.push(e);
            ops.push(Op::Edge(e.0, e.1, e.2));
        }
    }
    ops
}

fn content(mask: u8, shared: u32, width: usize) -> State {
    let props = (0..NUM_PROPS as u32)
        .filter(|b| mask & (1 << b) != 0)
        .map(PropId);
    State {
        props: PropSet::from_iter_with_capacity(NUM_PROPS, props),
        shared: vec![shared; width],
    }
}

/// The list-of-lists structure the frozen layout must read like.
#[derive(Default)]
struct Reference {
    states: Vec<State>,
    init: Vec<StateId>,
    succ: Vec<Vec<Edge>>,
    pred: Vec<Vec<Edge>>,
}

impl Reference {
    fn push_state(&mut self, s: State) {
        self.states.push(s);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
    }

    fn add_init(&mut self, s: StateId) {
        if !self.init.contains(&s) {
            self.init.push(s);
        }
    }

    fn add_edge(&mut self, from: StateId, kind: TransKind, to: StateId) {
        let e = Edge { kind, to };
        if !self.succ[from.index()].contains(&e) {
            self.succ[from.index()].push(e);
            self.pred[to.index()].push(Edge { kind, to: from });
        }
    }

    /// Section 2.4, literally: normal = reachable without faults,
    /// perturbed = otherwise reachable and the target of a fault edge
    /// from a reachable state, recovery = the other reachable states.
    fn classify(&self) -> Vec<StateRole> {
        let reach = |faults: bool| {
            let mut seen = vec![false; self.states.len()];
            let mut stack = self.init.clone();
            for s in &self.init {
                seen[s.index()] = true;
            }
            while let Some(s) = stack.pop() {
                for e in &self.succ[s.index()] {
                    if (faults || !e.kind.is_fault()) && !seen[e.to.index()] {
                        seen[e.to.index()] = true;
                        stack.push(e.to);
                    }
                }
            }
            seen
        };
        let (normal, all) = (reach(false), reach(true));
        (0..self.states.len())
            .map(|i| {
                if normal[i] {
                    StateRole::Normal
                } else if !all[i] {
                    StateRole::Unreachable
                } else if self.pred[i]
                    .iter()
                    .any(|e| e.kind.is_fault() && all[e.to.index()])
                {
                    StateRole::Perturbed
                } else {
                    StateRole::Recovery
                }
            })
            .collect()
    }
}

fn build(ops: &[Op], width: usize) -> (FtKripke, Reference) {
    let mut b = KripkeBuilder::new();
    let mut r = Reference::default();
    for &op in ops {
        match op {
            Op::State(mask, shared) => {
                b.push_state(content(mask, shared, width));
                r.push_state(content(mask, shared, width));
            }
            Op::Edge(a, k, t) => {
                b.add_edge(StateId(a), k, StateId(t));
                r.add_edge(StateId(a), k, StateId(t));
            }
            Op::Init(s) => {
                b.add_init(StateId(s));
                r.add_init(StateId(s));
            }
        }
    }
    (b.freeze(), r)
}

fn assert_reads_like(case: usize, m: &FtKripke, r: &Reference) {
    assert_eq!(m.len(), r.states.len(), "case {case}: states");
    assert_eq!(m.init_states(), &r.init[..], "case {case}: init");
    for s in m.state_ids() {
        let i = s.index();
        assert_eq!(m.state(s), &r.states[i], "case {case}: content of {s:?}");
        assert_eq!(m.props(s), &r.states[i].props, "case {case}: {s:?}");
        assert_eq!(m.shared(s), &r.states[i].shared[..], "case {case}: {s:?}");
        assert_eq!(m.succ(s), &r.succ[i][..], "case {case}: succ of {s:?}");
        assert_eq!(m.pred(s), &r.pred[i][..], "case {case}: pred of {s:?}");
    }
    let edges: Vec<&Edge> = r.succ.iter().flatten().collect();
    assert_eq!(m.edge_count(), edges.len(), "case {case}: edge count");
    assert_eq!(
        m.fault_edge_count(),
        edges.iter().filter(|e| e.kind.is_fault()).count(),
        "case {case}: fault edge count"
    );
    assert_eq!(m.classify(), r.classify(), "case {case}: classification");
}

/// Equal ids mean equal contents, both ways.
fn assert_interned(case: usize, m: &FtKripke) {
    for s in m.state_ids() {
        for t in m.state_ids() {
            assert_eq!(
                m.val_id(s) == m.val_id(t),
                m.props(s) == m.props(t),
                "case {case}: valuation ids of {s:?}, {t:?}"
            );
            assert_eq!(
                m.vec_id(s) == m.vec_id(t),
                m.shared(s) == m.shared(t),
                "case {case}: vector ids of {s:?}, {t:?}"
            );
        }
    }
}

/// `m` with `from` merged into `into`, written through a fresh builder
/// with the reference's edge rule: sources in their new id order (the
/// merged state's old ones in id order), edges redirected.
fn fresh_merge(m: &FtKripke, from: StateId, into: StateId) -> (Reference, Vec<StateId>) {
    let q = |s: StateId| {
        let s = if s == from { into } else { s };
        StateId(s.0 - u32::from(s.0 > from.0))
    };
    let mut r = Reference::default();
    for s in m.state_ids().filter(|&s| s != from) {
        r.push_state(m.state(s).clone());
    }
    let mut sources: Vec<StateId> = m.state_ids().collect();
    sources.sort_by_key(|&s| q(s));
    for s in sources {
        for e in m.succ(s) {
            r.add_edge(q(s), e.kind, q(e.to));
        }
    }
    for &i in m.init_states() {
        r.add_init(q(i));
    }
    (r, m.state_ids().map(q).collect())
}

/// `ops` with the states and initial states first, then the edges
/// grouped by source, stably: sources in id order (`ascending`, a
/// writer walking its states in id order) or in order of their first
/// edge (the step-5 explorer's order).
fn grouped(ops: &[Op], ascending: bool) -> Vec<Op> {
    let mut edges: Vec<Op> = ops
        .iter()
        .copied()
        .filter(|op| matches!(op, Op::Edge(..)))
        .collect();
    let source = |op: &Op| match op {
        Op::Edge(a, _, _) => *a,
        _ => unreachable!("only edges"),
    };
    let mut first: Vec<u32> = Vec::new();
    for op in &edges {
        if !first.contains(&source(op)) {
            first.push(source(op));
        }
    }
    edges.sort_by_key(|op| match ascending {
        true => source(op) as usize,
        false => first.iter().position(|&s| s == source(op)).expect("seen"),
    });
    let mut out: Vec<Op> = ops
        .iter()
        .copied()
        .filter(|op| !matches!(op, Op::Edge(..)))
        .collect();
    out.extend(edges);
    out
}

#[test]
fn frozen_structures_read_like_the_list_reference() {
    let mut rng = XorShift64::new(SEED);
    let mut crossed = [false; 2];
    for case in 0..CASES {
        let width = rng.below(3);
        let ops = random_ops(&mut rng, width);
        for ops in [grouped(&ops, true), grouped(&ops, false)] {
            let (m, r) = build(&ops, width);
            crossed[0] |= m.len() > 64;
            crossed[1] |= m.len() > 128;
            assert_reads_like(case, &m, &r);
            assert_interned(case, &m);
        }
    }
    assert_eq!(crossed, [true, true], "cases cross 64 and 128 states");
}

#[test]
fn merge_into_equals_a_fresh_build() {
    let mut rng = XorShift64::new(SEED ^ 1);
    // The output buffer holds the previous case's merge (or model).
    let (mut out, mut mapping) = (FtKripke::default(), Vec::new());
    let mut merges = 0;
    for case in 0..CASES {
        let width = rng.below(3);
        let (m, _) = build(&grouped(&random_ops(&mut rng, width), true), width);
        if m.len() < 2 {
            out = m;
            continue;
        }
        let from = StateId(rng.below(m.len()) as u32);
        let into = StateId(((from.index() + 1 + rng.below(m.len() - 1)) % m.len()) as u32);
        m.merge_into(from, into, &mut out, &mut mapping);
        let (want, want_map) = fresh_merge(&m, from, into);
        assert_reads_like(case, &out, &want);
        assert_interned(case, &out);
        assert_eq!(mapping, want_map, "case {case}: mapping");
        let (copy, copy_map) = m.merged(from, into);
        assert_eq!(format!("{copy:?}"), format!("{out:?}"), "case {case}");
        assert_eq!(copy_map, mapping, "case {case}");
        merges += 1;
    }
    assert!(merges > CASES / 2, "enough merges: {merges}");
}

#[test]
fn reset_states_equals_a_fresh_build() {
    let mut rng = XorShift64::new(SEED ^ 2);
    // Each rebuild reuses the previous case's structure.
    let mut m = FtKripke::default();
    for case in 0..CASES {
        // A table of distinct valuations in random order, and a model
        // whose states are ids into it.
        let mut masks: Vec<u8> = (0..1 << NUM_PROPS).collect();
        for i in (1..masks.len()).rev() {
            masks.swap(i, rng.below(i + 1));
        }
        let table: Vec<PropSet> = masks.iter().map(|&k| content(k, 0, 0).props).collect();
        let ops: Vec<Op> = grouped(&random_ops(&mut rng, 0), false);
        let mut b = m.reset_states(Arc::new(table.clone()));
        let mut fresh = KripkeBuilder::new();
        let mut r = Reference::default();
        for &op in &ops {
            match op {
                Op::State(mask, _) => {
                    let id = masks.iter().position(|&k| k == mask).expect("in table");
                    b.push(id as u32, 0);
                    fresh.push_state(State::new(table[id].clone()));
                    r.push_state(State::new(table[id].clone()));
                }
                Op::Edge(a, k, t) => {
                    b.add_edge(StateId(a), k, StateId(t));
                    fresh.add_edge(StateId(a), k, StateId(t));
                    r.add_edge(StateId(a), k, StateId(t));
                }
                Op::Init(s) => {
                    b.add_init(StateId(s));
                    fresh.add_init(StateId(s));
                    r.add_init(StateId(s));
                }
            }
        }
        m = b.freeze();
        let fresh = fresh.freeze();
        assert_reads_like(case, &m, &r);
        assert_reads_like(case, &fresh, &r);
        assert_interned(case, &m);
        assert_eq!(format!("{m:?}"), format!("{fresh:?}"), "case {case}");
    }
}
