//! Equivalence tests for the optimized tableau kernels and build
//! engine against the oracles in `ftsyn_conformance::reference`.
//!
//! Random specifications (and random label sets over their closures)
//! are generated by a seeded [`XorShift64`] stream (the offline
//! environment has no proptest); every assertion prints the case
//! index, so a failing case is reproducible by construction.

use ftsyn::ctl::{parse::parse, Closure, FormulaArena, LabelSet, Owner, PropTable};
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::problems::mutex;
use ftsyn::tableau::{
    blocks, blocks_profiled, build_governed, build_with_threads, tiles, BuildStart, EdgeKind,
    ExpansionCache, FaultSpec, NodeKind,
};
use ftsyn::Tolerance;
use ftsyn_conformance::differential::assert_tableaux_identical;
use ftsyn_conformance::reference::{
    blocks_naive, build_reference, naive_is_prop_consistent, tiles_naive,
};
use ftsyn_prng::XorShift64;

const NUM_PROCS: usize = 2;
const PROPS: [&str; 3] = ["p", "q", "r"];
const CASES: usize = 64;
const SEED: u64 = 0x7AB_0002;

/// Draws a random specification string of height at most `depth` from
/// the grammar subset the parser is known to accept, covering literals
/// (elementary), conjunction (α), disjunction (β), `AG`/`AF`/`EF`
/// (unwinding fixpoints) and indexed nexttime operators.
fn random_spec(rng: &mut XorShift64, depth: usize) -> String {
    if depth == 0 || rng.chance(0.3) {
        let p = PROPS[rng.below(PROPS.len())];
        return if rng.chance(0.4) {
            format!("~{p}")
        } else {
            p.to_string()
        };
    }
    let sub = |rng: &mut XorShift64| random_spec(rng, depth - 1);
    match rng.below(7) {
        0 => format!("({} & {})", sub(rng), random_spec(rng, depth - 1)),
        1 => format!("({} | {})", sub(rng), random_spec(rng, depth - 1)),
        2 => format!("AG({})", sub(rng)),
        3 => format!("AF({})", sub(rng)),
        4 => format!("EF({})", sub(rng)),
        5 => format!("AX{}({})", rng.below(NUM_PROCS) + 1, sub(rng)),
        _ => format!("EX{}({})", rng.below(NUM_PROCS) + 1, sub(rng)),
    }
}

fn random_closure(rng: &mut XorShift64) -> (PropTable, Closure, LabelSet) {
    let mut props = PropTable::new();
    for p in PROPS {
        props.add(p, Owner::Process(0)).unwrap();
    }
    let mut arena = FormulaArena::new(NUM_PROCS);
    let spec = random_spec(rng, 3);
    let f = parse(&mut arena, &mut props, &spec, true)
        .unwrap_or_else(|e| panic!("generated spec {spec:?} must parse: {e:?}"));
    let cl = Closure::build(&mut arena, &props, &[f]);
    let mut root = cl.empty_label();
    root.insert(cl.index_of(f).unwrap());
    (props, cl, root)
}

/// A random label over the closure: the root formula plus a sprinkling
/// of other members (consistent or not — the kernels must agree on
/// inconsistent inputs too).
fn random_label(rng: &mut XorShift64, cl: &Closure, root: &LabelSet) -> LabelSet {
    let mut l = root.clone();
    for idx in 0..cl.len() as u32 {
        if rng.chance(3.0 / cl.len() as f64) {
            l.insert(idx);
        }
    }
    l
}

/// The optimized `blocks`/`tiles` agree exactly (contents *and* order —
/// downstream node numbering depends on it) with the pre-optimization
/// oracle on random closures and random labels.
#[test]
fn optimized_kernels_match_naive_oracle() {
    let mut rng = XorShift64::new(SEED);
    for case in 0..CASES {
        let (props, cl, root) = random_closure(&mut rng);
        for sub in 0..4 {
            let label = if sub == 0 {
                root.clone()
            } else {
                random_label(&mut rng, &cl, &root)
            };
            assert_eq!(
                cl.is_prop_consistent(&label),
                naive_is_prop_consistent(&cl, &label),
                "case {case}.{sub}: consistency check diverged"
            );
            assert_eq!(
                blocks(&cl, &label),
                blocks_naive(&cl, &label),
                "case {case}.{sub}: blocks diverged"
            );
            assert_eq!(
                tiles(&cl, &props, &label),
                tiles_naive(&cl, &props, &label),
                "case {case}.{sub}: tiles diverged"
            );
        }
    }
}

/// Building through a memo cache (cold, then warm on the *same* cache)
/// yields tableaux bit-identical to the uncached build, and the warm
/// run actually hits.
#[test]
fn cached_build_matches_uncached() {
    let mut rng = XorShift64::new(SEED ^ 0x5EED);
    for case in 0..16 {
        let (props, cl, root) = random_closure(&mut rng);
        let (plain, _) = build_with_threads(&cl, &props, root.clone(), &FaultSpec::none(), 1);
        let mut cache = ExpansionCache::new();
        let cached_build = |cache: &mut ExpansionCache| {
            let (t, prof, fills) = build_governed(
                &cl,
                &props,
                BuildStart::Fresh(root.clone()),
                &FaultSpec::none(),
                1,
                Some(&*cache),
                None,
            )
            .expect("ungoverned build completes");
            for fill in fills {
                cache.apply_fill(fill);
            }
            (t, prof)
        };
        let (cold, cold_prof) = cached_build(&mut cache);
        let (warm, warm_prof) = cached_build(&mut cache);
        assert_eq!(cold_prof.cache_hits, 0, "case {case}: interning dedups");
        assert!(
            warm_prof.cache_hits > 0 && warm_prof.cache_misses == 0,
            "case {case}: warm build must be served from the cache: {warm_prof:?}"
        );
        assert_tableaux_identical(&format!("case {case} cold"), &plain, &cold);
        assert_tableaux_identical(&format!("case {case} warm"), &plain, &warm);
    }
}

/// The work-stealing build at every thread count and the sequential
/// [`build_reference`] oracle (naive kernels, its own harness) produce
/// bit-identical tableaux, with a fault action that flips `p` whenever
/// it holds.
#[test]
fn build_matches_reference_kernels() {
    for spec in ["p & AG(EX1 true & EX2 true)", "AG(EX1 true) & AF p & EF q"] {
        let mut props = PropTable::new();
        let p = props.add("p", Owner::Process(0)).unwrap();
        props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(2);
        let f = parse(&mut arena, &mut props, spec, true).unwrap();
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        let action =
            FaultAction::new("flip-p", BoolExpr::Prop(p), vec![(p, PropAssign::False)]).unwrap();
        let faults = FaultSpec::uniform(vec![action], cl.empty_label());
        let oracle = build_reference(&cl, &props, root.clone(), &faults);
        for threads in [1, 2, 4, 8] {
            let (fast, _) = build_with_threads(&cl, &props, root.clone(), &faults, threads);
            assert_tableaux_identical(&format!("{spec}@{threads}"), &oracle, &fast);
        }
    }
}

/// The build draws each node's out-edges once and checks repeats only
/// among one fault action's outcomes; the reference's `add_edge` checks
/// every edge against the node's successor list. Each way one node's
/// steps could name one edge twice must give the same single edge:
/// - `Blocks`: the root's search reaches one leaf twice (an `AX`-split
///   variant equals another leaf);
/// - `Tiles`: `EX₁ p` and `EX₁ q` both land on the `AX₁` bodies `{p, q}`;
/// - faults: `q := ?` has two outcomes, and a tolerance label holding
///   both `q` and `¬q` makes their labels equal.
#[test]
fn repeated_steps_of_one_node_draw_one_edge() {
    for (spec, root_blocks, tiles_repeat) in [
        ("AX1 p & (q | r) & (q | EX1 true)", 2, false),
        ("AG(AX1 p & AX1 q & EX1 p & EX1 q)", 1, true),
    ] {
        let mut props = PropTable::new();
        for name in PROPS {
            props.add(name, Owner::Process(0)).unwrap();
        }
        let q = props.id("q").unwrap();
        let mut arena = FormulaArena::new(1);
        let f = parse(&mut arena, &mut props, spec, true).unwrap();
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        let ex_p = parse(&mut arena, &mut props, "EX1 p", true).unwrap();
        let ex_p = cl.index_of(ex_p);
        let mut tol = cl.empty_label();
        tol.insert(cl.literal(q, true).unwrap());
        tol.insert(cl.literal(q, false).unwrap());
        let scramble =
            FaultAction::new("scramble-q", BoolExpr::tru(), vec![(q, PropAssign::NonDet)]).unwrap();
        let faults = FaultSpec::uniform(vec![scramble], tol);
        let oracle = build_reference(&cl, &props, root.clone(), &faults);
        let (mut ands, mut tiled) = (0, 0);
        for id in oracle.node_ids() {
            let node = oracle.node(id);
            for (i, edge) in node.succ.iter().enumerate() {
                assert!(
                    !node.succ[..i].contains(edge),
                    "{spec}: {id:?} repeats {edge:?}"
                );
            }
            if node.kind == NodeKind::And {
                ands += 1;
                let count = |k: fn(&EdgeKind) -> bool| node.succ.iter().filter(|e| k(&e.0)).count();
                assert_eq!(count(|k| k.is_fault()), 1, "{spec}: {id:?} fault edges");
                if ex_p.is_some_and(|i| node.label.contains(i)) {
                    tiled += 1;
                    assert_eq!(
                        count(|k| *k == EdgeKind::Proc(0)),
                        1,
                        "{spec}: {id:?} tiles"
                    );
                }
            }
        }
        assert!(
            ands > 0 && (tiled > 0) == tiles_repeat,
            "{spec}: {ands} {tiled}"
        );
        assert_eq!(oracle.node(oracle.root()).succ.len(), root_blocks, "{spec}");
        for threads in [1, 2] {
            let (fast, _) = build_with_threads(&cl, &props, root.clone(), &faults, threads);
            assert_tableaux_identical(&format!("{spec}@{threads}"), &oracle, &fast);
        }
    }
}

/// `blocks` agrees with the naive oracle on every OR-label of
/// mutex3-failstop-masking's tableau. Its fault successors pin whole
/// valuations, so their `Blocks` keep more than 64 minimal labels —
/// several blocks of the minimal filter's index, which the tiny random
/// closures above never reach.
#[test]
fn blocks_match_naive_oracle_on_a_fault_tableau() {
    let mut problem = mutex::with_fail_stop(3, Tolerance::Masking);
    let (closure, faults, root) = problem.tableau_inputs();
    let (tableau, _) = build_with_threads(&closure, &problem.props, root, &faults, 1);
    let mut wide = 0;
    for id in tableau.node_ids() {
        let node = tableau.node(id);
        if node.kind != NodeKind::Or || node.dummy {
            continue;
        }
        let fast = blocks(&closure, &node.label);
        assert_eq!(fast, blocks_naive(&closure, &node.label), "{id:?}");
        wide += usize::from(fast.len() > 64);
    }
    assert!(wide > 0, "no Blocks kept more than 64 labels");
}

/// [`random_spec`] plus `E[· U ·]` and `A[· U ·]`. An until's β forks
/// on `h` and `g ∧ X(until)`, so a kept label often holds both
/// components; that is the case where `Blocks`' semantic search reaches
/// a label on another path than the plain search.
fn random_until_spec(rng: &mut XorShift64, depth: usize) -> String {
    if depth == 0 || rng.chance(0.25) {
        return random_spec(rng, 0);
    }
    let sub = |rng: &mut XorShift64| random_until_spec(rng, depth - 1);
    match rng.below(10) {
        0 | 1 => format!("A[{} U {}]", sub(rng), sub(rng)),
        2 | 3 => format!("E[{} U {}]", sub(rng), sub(rng)),
        4 => format!("({} & {})", sub(rng), sub(rng)),
        5 => format!("({} | {})", sub(rng), sub(rng)),
        6 => format!("AG({})", sub(rng)),
        7 => format!("AF({})", sub(rng)),
        8 => format!("AX{}({})", rng.below(NUM_PROCS) + 1, sub(rng)),
        _ => format!("EX{}({})", rng.below(NUM_PROCS) + 1, sub(rng)),
    }
}

/// `blocks` agrees with the naive oracle, contents and order, on more
/// than 12,000 labels over closures with untils: every non-dummy
/// OR-label of each closure's tableau, and random labels as above, half
/// of them with an `EXᵢ true` added so that fewer leaves need the `AX`
/// split. Each spec is a conjunction of disjunctions, so that kept
/// labels often hold both components of a β. Both exits of the
/// semantic search must be taken many times: the plain search (a leaf
/// needs the split) and the first-occurrence pass (a kept label holds
/// a `b` its semantic path passed over).
#[test]
fn semantic_blocks_match_naive_oracle_with_untils() {
    let mut rng = XorShift64::new(0x5E3A_0023);
    let (mut labels, mut plain, mut reordered) = (0usize, 0, 0);
    let mut case = 0;
    while labels < 12_000 {
        let mut props = PropTable::new();
        for p in PROPS {
            props.add(p, Owner::Process(0)).unwrap();
        }
        let mut arena = FormulaArena::new(NUM_PROCS);
        let clauses: Vec<String> = (0..rng.range(2, 6))
            .map(|_| {
                let a = random_until_spec(&mut rng, 2);
                format!("({a} | {})", random_until_spec(&mut rng, 2))
            })
            .collect();
        let spec = clauses.join(" & ");
        let f = parse(&mut arena, &mut props, &spec, true)
            .unwrap_or_else(|e| panic!("generated spec {spec:?} must parse: {e:?}"));
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        let (tableau, _) = build_with_threads(&cl, &props, root.clone(), &FaultSpec::none(), 1);
        let ors = tableau
            .node_ids()
            .map(|id| tableau.node(id))
            .filter(|n| n.kind == NodeKind::Or && !n.dummy)
            .map(|n| n.label.clone());
        let random: Vec<LabelSet> = (0..40)
            .map(|_| {
                let mut l = random_label(&mut rng, &cl, &root);
                if rng.chance(0.5) {
                    l.insert(cl.ex_true(rng.below(NUM_PROCS)));
                }
                l
            })
            .collect();
        for (sub, label) in ors.chain(random).enumerate() {
            let (fast, stats) = blocks_profiled(&cl, &label);
            assert_eq!(
                fast,
                blocks_naive(&cl, &label),
                "case {case}.{sub} ({spec}): blocks diverged"
            );
            plain += stats.plain;
            reordered += stats.reordered;
            labels += 1;
        }
        case += 1;
    }
    assert!(
        plain >= 1_000 && reordered >= 50,
        "{case} cases, {labels} labels: {plain} plain, {reordered} reordered"
    );
}
