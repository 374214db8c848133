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
    blocks, build_shared_cache_governed, build_with_threads, tiles, ExpansionCache, FaultSpec,
    NodeKind,
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
            let (t, prof, fills) = build_shared_cache_governed(
                &cl,
                &props,
                root.clone(),
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
