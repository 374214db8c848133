//! Randomized validation of bisimulation minimization and evidence
//! extraction on random structures.
//!
//! Models are generated by a seeded [`XorShift64`] stream (the offline
//! environment has no proptest); failures print the case index, so a
//! failing case is reproducible by construction.

use ftsyn_ctl::{FormulaArena, FormulaId, Owner, PropTable};
use ftsyn_kripke::{
    bisimulation_quotient, Checker, FtKripke, KripkeBuilder, PropSet, Semantics, State, StateId,
    TransKind,
};
use ftsyn_prng::XorShift64;

const NUM_PROPS: usize = 3;
const NUM_PROCS: usize = 2;
const CASES: usize = 48;
const SEED: u64 = 0xB151_0001;

#[derive(Clone, Debug)]
struct RandomModel {
    states: Vec<u8>,
    edges: Vec<(usize, usize, usize)>,
}

/// Draws a model with 2–6 states and up to `3n` random edges.
fn random_model(rng: &mut XorShift64) -> RandomModel {
    let n = rng.range(2, 7);
    let states = (0..n).map(|_| rng.below(1 << NUM_PROPS) as u8).collect();
    let edges = (0..rng.below(n * 3))
        .map(|_| (rng.below(n), rng.below(NUM_PROCS + 1), rng.below(n)))
        .collect();
    RandomModel { states, edges }
}

fn build_model(rm: &RandomModel, props: &PropTable) -> (FtKripke, Vec<StateId>) {
    let mut m = KripkeBuilder::new();
    let ids: Vec<StateId> = rm
        .states
        .iter()
        .map(|&mask| {
            let mut ps = PropSet::with_capacity(NUM_PROPS);
            for b in 0..NUM_PROPS {
                if mask & (1 << b) != 0 {
                    ps.insert(props.id(&format!("v{b}")).unwrap());
                }
            }
            m.push_state(State::new(ps))
        })
        .collect();
    m.add_init(ids[0]);
    // Source by source, as the builder takes them.
    let mut edges = rm.edges.clone();
    edges.sort_by_key(|&(from, _, _)| from);
    for (from, kind, to) in edges {
        let k = if kind < NUM_PROCS {
            TransKind::Proc(kind)
        } else {
            TransKind::Fault(0)
        };
        m.add_edge(ids[from], k, ids[to]);
    }
    (m.freeze(), ids)
}

fn setup() -> (FormulaArena, PropTable) {
    let mut props = PropTable::new();
    for b in 0..NUM_PROPS {
        props
            .add(format!("v{b}"), Owner::Process(b % NUM_PROCS))
            .unwrap();
    }
    (FormulaArena::new(NUM_PROCS), props)
}

/// A small formula zoo for invariance checks.
fn formula_zoo(arena: &mut FormulaArena, props: &PropTable) -> Vec<FormulaId> {
    let v0 = arena.prop(props.id("v0").unwrap());
    let v1 = arena.prop(props.id("v1").unwrap());
    let v2 = arena.prop(props.id("v2").unwrap());
    let mut out = vec![arena.af(v0), arena.ef(v1)];
    out.push(arena.ag(v2));
    out.push(arena.eg(v0));
    out.push(arena.au(v0, v1));
    out.push(arena.eu(v1, v2));
    out.push(arena.aw(v0, v2));
    out.push(arena.ew(v2, v0));
    let e = arena.ex(0, v1);
    out.push(e);
    let a = arena.ax(1, v0);
    out.push(a);
    out
}

/// Runs `check` on `CASES` random `(model, target-bit, g-bit)` triples.
fn for_random_models(test_tag: u64, check: impl Fn(usize, &RandomModel, usize, usize)) {
    let mut rng = XorShift64::new(SEED ^ test_tag);
    for case in 0..CASES {
        let rm = random_model(&mut rng);
        let a = rng.below(NUM_PROPS);
        let b = rng.below(NUM_PROPS);
        check(case, &rm, a, b);
    }
}

/// The bisimulation quotient preserves the truth of every formula in
/// the zoo, at every state, under both semantics.
#[test]
fn quotient_preserves_ctl() {
    for_random_models(1, |case, rm, _, _| {
        let (mut arena, props) = setup();
        let (m, ids) = build_model(rm, &props);
        let q = bisimulation_quotient(&m);
        let zoo = formula_zoo(&mut arena, &props);
        for sem in [Semantics::FaultFree, Semantics::IncludeFaults] {
            let mut ck_m = Checker::new(&m, sem);
            let mut ck_q = Checker::new(&q.model, sem);
            for &f in &zoo {
                let vm = ck_m.eval(&arena, f).clone();
                let vq = ck_q.eval(&arena, f).clone();
                for &s in &ids {
                    assert_eq!(
                        vm.contains(s),
                        vq.contains(q.block_of[s.index()]),
                        "case {case}: formula {f:?} differs between state {s:?} and its block"
                    );
                }
            }
        }
    });
}

/// The quotient never grows and is idempotent.
#[test]
fn quotient_shrinks_and_is_idempotent() {
    for_random_models(2, |case, rm, _, _| {
        let (_, props) = setup();
        let (m, _) = build_model(rm, &props);
        let q1 = bisimulation_quotient(&m);
        assert!(q1.model.len() <= m.len(), "case {case}: quotient grew");
        let q2 = bisimulation_quotient(&q1.model);
        assert_eq!(
            q2.model.len(),
            q1.model.len(),
            "case {case}: quotient not idempotent"
        );
    });
}

/// EF witnesses are genuine: each step is a path successor and the
/// last state satisfies the target.
#[test]
fn ef_witnesses_are_valid_paths() {
    for_random_models(3, |case, rm, target, _| {
        let (mut arena, props) = setup();
        let (m, ids) = build_model(rm, &props);
        let p = props.id(&format!("v{target}")).unwrap();
        let fp = arena.prop(p);
        let ef = arena.ef(fp);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let holds = ck.holds(&arena, ef, ids[0]);
        let witness = ck.witness_ef(&arena, fp, ids[0]);
        assert_eq!(holds, witness.is_some(), "case {case}: {rm:?}");
        if let Some(w) = witness {
            assert_eq!(w.states[0], ids[0], "case {case}");
            assert!(
                m.props(*w.states.last().unwrap()).contains(p),
                "case {case}"
            );
            for pair in w.states.windows(2) {
                assert!(
                    m.succ(pair[0])
                        .iter()
                        .any(|e| !e.kind.is_fault() && e.to == pair[1]),
                    "case {case}: witness steps must be program transitions"
                );
            }
        }
    });
}

/// AG counterexamples are genuine: a real path from the start to a
/// violating state, and they exist exactly when AG fails.
#[test]
fn ag_counterexamples_are_valid() {
    for_random_models(4, |case, rm, target, _| {
        let (mut arena, props) = setup();
        let (m, ids) = build_model(rm, &props);
        let p = props.id(&format!("v{target}")).unwrap();
        let fp = arena.prop(p);
        let ag = arena.ag(fp);
        let mut ck = Checker::new(&m, Semantics::IncludeFaults);
        let holds = ck.holds(&arena, ag, ids[0]);
        let cex = ck.counterexample_ag(&arena, fp, ids[0]);
        assert_eq!(holds, cex.is_none(), "case {case}: {rm:?}");
        if let Some(c) = cex {
            assert_eq!(c.states[0], ids[0], "case {case}");
            assert!(
                !m.props(*c.states.last().unwrap()).contains(p),
                "case {case}"
            );
            for pair in c.states.windows(2) {
                assert!(
                    m.succ(pair[0]).iter().any(|e| e.to == pair[1]),
                    "case {case}"
                );
            }
        }
    });
}

/// AU counterexamples exist exactly when AU fails, and lassos truly
/// loop.
#[test]
fn au_counterexamples_match_the_checker() {
    for_random_models(5, |case, rm, gb, hb| {
        let (mut arena, props) = setup();
        let (m, ids) = build_model(rm, &props);
        let g = arena.prop(props.id(&format!("v{gb}")).unwrap());
        let h = arena.prop(props.id(&format!("v{hb}")).unwrap());
        let au = arena.au(g, h);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let holds = ck.holds(&arena, au, ids[0]);
        let cex = ck.counterexample_au(&arena, g, h, ids[0]);
        assert_eq!(holds, cex.is_none(), "case {case}: {rm:?}");
        if let Some(c) = cex {
            assert_eq!(c.states[0], ids[0], "case {case}");
            if let Some(lp) = c.loop_start {
                // The lasso closes: the last state has an edge back to
                // the loop head.
                let last = *c.states.last().unwrap();
                let head = c.states[lp];
                assert!(
                    m.succ(last)
                        .iter()
                        .any(|e| !e.kind.is_fault() && e.to == head),
                    "case {case}: lasso does not close"
                );
                // The loop avoids h.
                let vh = ck.eval(&arena, h).clone();
                for &s in &c.states[lp..] {
                    assert!(!vh.contains(s), "case {case}: loop hits h");
                }
            }
        }
    });
}
