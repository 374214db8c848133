//! Randomized validation of the CTL model checker on random
//! structures: fixpoint unfoldings, dualities, per-process nexttimes,
//! the relationship between the plain and fault-free-relativized
//! semantics, and the preservation of universal violations under the
//! quotients the semantic minimizer builds.
//!
//! Satisfaction sets are bitsets of 64-state words, so the generator
//! also draws structures crossing one and two word boundaries, where a
//! tail-masking or word-indexing bug would show.
//!
//! Models are generated by a seeded [`XorShift64`] stream (the offline
//! environment has no proptest); failures print the case index, so a
//! failing case is reproducible by construction.

use ftsyn_ctl::{FormulaArena, FormulaId, Owner, PropId, PropTable};
use ftsyn_kripke::{
    Checker, FtKripke, KripkeBuilder, PropSet, Semantics, State, StateId, TransKind,
};
use ftsyn_prng::XorShift64;

const NUM_PROPS: usize = 3;
const NUM_PROCS: usize = 2;
const CASES: usize = 256;
const SEED: u64 = 0xC8EC_0001;

#[derive(Clone, Debug)]
struct RandomModel {
    /// For each state: bitmask of true propositions.
    states: Vec<u8>,
    /// Edges `(from, proc_or_fault, to)`; kind >= NUM_PROCS means fault.
    edges: Vec<(usize, usize, usize)>,
}

/// Draws a model with up to `3n` random edges and at least one dead
/// end (a state with no outgoing edge). Half the models have 2–6
/// states; the others cross 64 states (60–69) or 128 states (120–135).
fn random_model(rng: &mut XorShift64) -> RandomModel {
    let n = match rng.below(4) {
        0 => rng.range(60, 70),
        1 => rng.range(120, 136),
        _ => rng.range(2, 7),
    };
    let states = (0..n).map(|_| rng.below(1 << NUM_PROPS) as u8).collect();
    let dead = rng.below(n);
    let edges = (0..rng.below(n * 3))
        .map(|_| (rng.below(n), rng.below(NUM_PROCS + 1), rng.below(n)))
        .filter(|&(from, _, _)| from != dead)
        .collect();
    RandomModel { states, edges }
}

fn build_model(rm: &RandomModel, props: &PropTable) -> (FtKripke, Vec<StateId>) {
    let mut m = KripkeBuilder::new();
    let ids: Vec<StateId> = rm
        .states
        .iter()
        .enumerate()
        .map(|(i, &mask)| {
            let mut ps = PropSet::with_capacity(NUM_PROPS + 1);
            for b in 0..NUM_PROPS {
                if mask & (1 << b) != 0 {
                    ps.insert(props.id(&format!("v{b}")).unwrap());
                }
            }
            // Disambiguate states with identical valuations using a
            // per-state dummy marker so interning keeps them distinct.
            let mut st = State::new(ps);
            st.shared.push(i as u32);
            m.push_state(st)
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

fn pid(props: &PropTable, b: usize) -> PropId {
    props.id(&format!("v{b}")).unwrap()
}

/// Runs `check` on `CASES` random `(model, g-bit, h-bit)` triples.
fn for_random_models(test_tag: u64, check: impl Fn(usize, &RandomModel, usize, usize)) {
    let mut rng = XorShift64::new(SEED ^ test_tag);
    for case in 0..CASES {
        let rm = random_model(&mut rng);
        let gb = rng.below(NUM_PROPS);
        let hb = rng.below(NUM_PROPS);
        check(case, &rm, gb, hb);
    }
}

/// `E[gUh] ≡ h ∨ (g ∧ EX E[gUh])` state-wise (the β-expansion used
/// by the decision procedure), where `EX` is the disjunction over
/// process-indexed nexttimes — valid on fault-free path semantics
/// only when fault edges are also excluded from `EXᵢ`, which they
/// always are; so we check it under `FaultFree`.
#[test]
fn eu_unfolding() {
    for_random_models(1, |case, rm, gb, hb| {
        let (mut arena, props) = setup();
        let (m, _) = build_model(rm, &props);
        let g = arena.prop(pid(&props, gb));
        let h = arena.prop(pid(&props, hb));
        let eu = arena.eu(g, h);
        let ex_eu = arena.ex_all(eu);
        let g_and = arena.and(g, ex_eu);
        let rhs = arena.or(h, g_and);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let l = ck.eval(&arena, eu).clone();
        let r = ck.eval(&arena, rhs).clone();
        assert_eq!(l, r, "case {case}: {rm:?}");
    });
}

/// `A[gUh] ≡ h ∨ (g ∧ AX A[gUh] ∧ EX true)`: the extra `EX true`
/// conjunct accounts for dead ends, where `AX` is vacuous but the
/// single-state fullpath does not fulfill the eventuality.
#[test]
fn au_unfolding() {
    for_random_models(2, |case, rm, gb, hb| {
        let (mut arena, props) = setup();
        let (m, _) = build_model(rm, &props);
        let g = arena.prop(pid(&props, gb));
        let h = arena.prop(pid(&props, hb));
        let au = arena.au(g, h);
        let ax_au = arena.ax_all(au);
        let t = arena.tru();
        let ex_t = arena.ex_all(t);
        let tail = arena.and(ax_au, ex_t);
        let g_and = arena.and(g, tail);
        let rhs = arena.or(h, g_and);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let l = ck.eval(&arena, au).clone();
        let r = ck.eval(&arena, rhs).clone();
        assert_eq!(l, r, "case {case}: {rm:?}");
    });
}

/// `A[gWh] ≡ ¬E[¬gU¬h]` and `E[gWh] ≡ ¬A[¬gU¬h]` (the defining
/// dualities), checked under both semantics.
#[test]
fn weak_until_dualities() {
    for_random_models(3, |case, rm, gb, hb| {
        let (mut arena, props) = setup();
        let (m, _) = build_model(rm, &props);
        let g = arena.prop(pid(&props, gb));
        let h = arena.prop(pid(&props, hb));
        let ng = arena.not(g);
        let nh = arena.not(h);
        let aw = arena.aw(g, h);
        let eu = arena.eu(ng, nh);
        let ew = arena.ew(g, h);
        let au = arena.au(ng, nh);
        for sem in [Semantics::FaultFree, Semantics::IncludeFaults] {
            let mut ck = Checker::new(&m, sem);
            let vaw = ck.eval(&arena, aw).clone();
            let veu = ck.eval(&arena, eu).clone();
            assert_eq!(
                vaw,
                veu.complement(),
                "case {case} ({sem:?}): AW/EU duality broken: {rm:?}"
            );
            let vew = ck.eval(&arena, ew).clone();
            let vau = ck.eval(&arena, au).clone();
            assert_eq!(
                vew,
                vau.complement(),
                "case {case} ({sem:?}): EW/AU duality broken: {rm:?}"
            );
        }
    });
}

/// `A[gUh] ⇒ E[gUh]` wherever some fullpath exists, and in general
/// AU implies EU on every state (on dead ends both reduce to `h`).
#[test]
fn au_implies_eu() {
    for_random_models(4, |case, rm, gb, hb| {
        let (mut arena, props) = setup();
        let (m, _) = build_model(rm, &props);
        let g = arena.prop(pid(&props, gb));
        let h = arena.prop(pid(&props, hb));
        let au = arena.au(g, h);
        let eu = arena.eu(g, h);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let vau = ck.eval(&arena, au).clone();
        let veu = ck.eval(&arena, eu).clone();
        let mut both = vau.clone();
        both.intersect_with(&veu);
        assert_eq!(both, vau, "case {case}: {rm:?}");
    });
}

/// On structures without fault edges, the two semantics coincide.
#[test]
fn semantics_agree_without_faults() {
    for_random_models(5, |case, rm, gb, hb| {
        let rm = RandomModel {
            states: rm.states.clone(),
            edges: rm
                .edges
                .iter()
                .copied()
                .filter(|&(_, k, _)| k < NUM_PROCS)
                .collect(),
        };
        let (mut arena, props) = setup();
        let (m, _) = build_model(&rm, &props);
        let g = arena.prop(pid(&props, gb));
        let h = arena.prop(pid(&props, hb));
        for f in [
            arena.au(g, h),
            arena.eu(g, h),
            arena.aw(g, h),
            arena.ew(g, h),
        ] {
            let mut ck1 = Checker::new(&m, Semantics::FaultFree);
            let mut ck2 = Checker::new(&m, Semantics::IncludeFaults);
            let v1 = ck1.eval(&arena, f).clone();
            let v2 = ck2.eval(&arena, f).clone();
            assert_eq!(v1, v2, "case {case}: {rm:?}");
        }
    });
}

/// `AG h` distributes over reachable program successors:
/// if `AG h` holds at `s`, it holds at every program successor of `s`.
#[test]
fn ag_propagates() {
    for_random_models(6, |case, rm, _gb, hb| {
        let (mut arena, props) = setup();
        let (m, _) = build_model(rm, &props);
        let h = arena.prop(pid(&props, hb));
        let ag = arena.ag(h);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let v = ck.eval(&arena, ag).clone();
        for s in m.state_ids() {
            if v.contains(s) {
                for e in m.succ(s) {
                    if !e.kind.is_fault() {
                        assert!(v.contains(e.to), "case {case}: {rm:?}");
                    }
                }
            }
        }
    });
}

/// `EXᵢ g` holds exactly where some process-`i` edge leads to `g`, and
/// `AXᵢ g ≡ ¬EXᵢ ¬g` (vacuous on states without process-`i` edges,
/// dead ends included); fault edges never count, under either
/// semantics.
#[test]
fn per_process_nexttimes() {
    for_random_models(7, |case, rm, gb, _hb| {
        let (mut arena, props) = setup();
        let (m, _) = build_model(rm, &props);
        let g = arena.prop(pid(&props, gb));
        let ng = arena.not(g);
        for sem in [Semantics::FaultFree, Semantics::IncludeFaults] {
            let mut ck = Checker::new(&m, sem);
            let vg = ck.eval(&arena, g).clone();
            for i in 0..NUM_PROCS {
                let ex = arena.ex(i, g);
                let ax = arena.ax(i, g);
                let ex_ng = arena.ex(i, ng);
                let vex = ck.eval(&arena, ex).clone();
                for s in m.state_ids() {
                    let direct = m
                        .succ(s)
                        .iter()
                        .any(|e| e.kind == TransKind::Proc(i) && vg.contains(e.to));
                    assert_eq!(
                        vex.contains(s),
                        direct,
                        "case {case} ({sem:?}) EX{i}: {rm:?}"
                    );
                }
                let vax = ck.eval(&arena, ax).clone();
                let vex_ng = ck.eval(&arena, ex_ng).clone();
                assert_eq!(
                    vax,
                    vex_ng.complement(),
                    "case {case} ({sem:?}) AX{i}: {rm:?}"
                );
            }
        }
    });
}

/// Constant and propositional sets respect the structure's size at
/// every word boundary: `AG true` is full, `EF false` empty, and `g`
/// and `¬g` partition the states.
#[test]
fn constant_and_literal_sets_fill_exactly_the_states() {
    for_random_models(8, |case, rm, gb, _hb| {
        let (mut arena, props) = setup();
        let (m, _) = build_model(rm, &props);
        let t = arena.tru();
        let f = arena.fls();
        let ag_t = arena.ag(t);
        let ef_f = arena.ef(f);
        let g = arena.prop(pid(&props, gb));
        let ng = arena.not(g);
        let mut ck = Checker::new(&m, Semantics::IncludeFaults);
        assert!(ck.eval(&arena, ag_t).is_full(), "case {case}: {rm:?}");
        assert_eq!(ck.eval(&arena, ef_f).count(), 0, "case {case}: {rm:?}");
        let vg = ck.eval(&arena, g).clone();
        let vng = ck.eval(&arena, ng).clone();
        assert_eq!(vg.count() + vng.count(), m.len(), "case {case}: {rm:?}");
        assert_eq!(vg.complement(), vng, "case {case}: {rm:?}");
    });
}

/// A random formula of depth at most `depth` built from literals,
/// constants, `∧`, `∨`, `AXᵢ`, `AU` and `AW` only, so universal.
fn random_universal(
    rng: &mut XorShift64,
    arena: &mut FormulaArena,
    props: &PropTable,
    depth: usize,
) -> FormulaId {
    if depth == 0 || rng.below(4) == 0 {
        let p = pid(props, rng.below(NUM_PROPS));
        return match rng.below(6) {
            0 => arena.tru(),
            1 => arena.fls(),
            2 | 3 => arena.prop(p),
            _ => arena.neg_prop(p),
        };
    }
    let g = random_universal(rng, arena, props, depth - 1);
    let h = random_universal(rng, arena, props, depth - 1);
    match rng.below(5) {
        0 => arena.and(g, h),
        1 => arena.or(g, h),
        2 => arena.ax(rng.below(NUM_PROCS), g),
        3 => arena.au(g, h),
        _ => arena.aw(g, h),
    }
}

/// Gives every state without a process edge one, so that no state is a
/// dead end under either semantics.
fn remove_dead_ends(rm: &mut RandomModel, rng: &mut XorShift64) {
    let n = rm.states.len();
    for s in 0..n {
        if !rm.edges.iter().any(|&(f, k, _)| f == s && k < NUM_PROCS) {
            rm.edges.push((s, rng.below(NUM_PROCS), rng.below(n)));
        }
    }
}

/// Gives two distinct random states one valuation and merges the later
/// into the earlier: the quotient `q` the semantic minimizer builds.
fn merge_random_pair(rm: &mut RandomModel, rng: &mut XorShift64) -> (usize, usize) {
    let n = rm.states.len();
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    rm.states[b] = rm.states[a];
    (a.max(b), a.min(b))
}

/// Counts, over random models and merges and under both semantics, the
/// pairs of a state `s` and a formula `φ` with `M, s ⊭ φ`, and among
/// them the flips: those with `M/(a~b), q(s) ⊨ φ`.
fn count_flips(
    tag: u64,
    dead_end_free: bool,
    formula: impl Fn(&mut XorShift64, &mut FormulaArena, &PropTable) -> FormulaId,
) -> (usize, usize) {
    let mut rng = XorShift64::new(SEED ^ tag);
    let (mut violations, mut flips) = (0, 0);
    for _ in 0..CASES {
        let mut rm = random_model(&mut rng);
        if dead_end_free {
            remove_dead_ends(&mut rm, &mut rng);
        }
        let (from, into) = merge_random_pair(&mut rm, &mut rng);
        let (mut arena, props) = setup();
        let (m, ids) = build_model(&rm, &props);
        let (merged, q) = m.merged(ids[from], ids[into]);
        let phis: Vec<FormulaId> = (0..4)
            .map(|_| formula(&mut rng, &mut arena, &props))
            .collect();
        for sem in [Semantics::FaultFree, Semantics::IncludeFaults] {
            let mut before = Checker::new(&m, sem);
            let mut after = Checker::new(&merged, sem);
            for &phi in &phis {
                let vb = before.eval(&arena, phi).clone();
                let va = after.eval(&arena, phi);
                for s in m.state_ids().filter(|&s| !vb.contains(s)) {
                    violations += 1;
                    flips += usize::from(va.contains(q[s.index()]));
                }
            }
        }
    }
    (violations, flips)
}

/// The lemma behind the semantic minimizer's rejection replay: on a
/// dead-end-free model, a violation of a universal formula survives
/// merging two same-valuation states. Every path of the model maps onto
/// a path of the quotient, so an `AXᵢ` successor, a finite `AW` witness
/// prefix or an infinite `AU` witness path that refutes `φ` at `s`
/// refutes it at `q(s)` too.
#[test]
fn universal_violations_survive_merging_same_valuation_states() {
    let (violations, flips) = count_flips(9, true, |rng, arena, props| {
        random_universal(rng, arena, props, 3)
    });
    assert!(
        violations > 1000,
        "too few violations to test: {violations}"
    );
    assert_eq!(flips, 0, "a universal violation vanished in a quotient");
}

/// Controls for the lemma's guards: the generator does reach quotients
/// that repair a violation once a guard is dropped. A mixed formula
/// (`AG EX₀ v0`: the merged state may gain the missing witness) flips
/// from false to true on dead-end-free models, and universal formulas
/// flip on models with a dead end (a maximal finite path refuting an
/// `AU` is no longer maximal once the dead end is merged with a state
/// that moves on).
#[test]
fn the_lemma_needs_universal_formulas_and_no_dead_ends() {
    let (_, mixed) = count_flips(10, true, |_, arena, props| {
        let v0 = arena.prop(pid(props, 0));
        let ex = arena.ex(0, v0);
        arena.ag(ex)
    });
    assert!(mixed > 0, "no mixed formula flipped");
    let (_, dead_ends) = count_flips(11, false, |rng, arena, props| {
        random_universal(rng, arena, props, 3)
    });
    assert!(dead_ends > 0, "no universal formula flipped on a dead end");
}
