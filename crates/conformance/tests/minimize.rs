//! Minimization-engine conformance: the incremental semantic minimizer
//! must be a *drop-in* replacement for the original greedy engine. On
//! real pipeline models (built through closure → tableau → deletion →
//! unraveling, exactly the state the synthesis pipeline hands to
//! minimization) the fast engine's output is byte-identical to the
//! preserved pre-optimization greedy engine
//! (`ftsyn_conformance::reference`) on the same input, and a governed
//! run stops at the same attempt cap abort point. One hand-built input
//! has a rejection that a later round accepts, so an engine that
//! replays every rejection instead of only the universal ones diverges
//! from the reference.

use ftsyn::ctl::{FormulaArena, Owner, PropTable, Spec};
use ftsyn::kripke::{Edge, FtKripke, KripkeBuilder, PropSet, State, StateId, StateRole, TransKind};
use ftsyn::problems::mutex;
use ftsyn::tableau::{apply_deletion_rules_profiled, build_with_threads};
use ftsyn::{
    semantic_minimize, semantic_minimize_governed, unravel_mode, Budget, Governor, MinimizeProfile,
    SynthesisProblem, Tolerance,
};
use ftsyn_conformance::reference::{
    merged, semantic_minimize_reference, semantic_minimize_reference_governed,
};

/// Runs the pipeline up to (but not including) minimization — the
/// exact input `synthesize` hands to the minimizer.
fn pre_minimization_model(problem: &mut SynthesisProblem) -> FtKripke {
    // The pipeline quotients by bisimulation before minimizing.
    ftsyn::kripke::bisimulation_quotient(&unraveled_model(problem)).model
}

/// The unraveled model before the bisimulation quotient: larger, with
/// more merge candidates per valuation than the pipeline's input.
fn unraveled_model(problem: &mut SynthesisProblem) -> FtKripke {
    let (closure, fault_spec, root_label) = problem.tableau_inputs();
    let mut tableau = build_with_threads(&closure, &problem.props, root_label, &fault_spec, 1).0;
    apply_deletion_rules_profiled(&mut tableau, &closure, problem.mode);
    assert!(tableau.alive(tableau.root()), "problem is synthesizable");
    let c0 = tableau
        .alive_succ(tableau.root(), |_| true)
        .map(|(_, c)| c)
        .next()
        .expect("alive root has an alive AND child");
    unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode).model
}

/// `FtKripke` has no `PartialEq`; its `Debug` form is a complete,
/// deterministic rendering of states, valuations, roles and edges, so
/// string equality is byte-identity.
fn fingerprint(m: &FtKripke) -> String {
    format!("{m:?}")
}

type ProblemMaker = fn() -> SynthesisProblem;
type ModelMaker = fn(&mut SynthesisProblem) -> FtKripke;

/// The reference-equivalence problems. Each is checked on its
/// post-quotient model (the pipeline's own minimization input) and on
/// its pre-quotient unraveled model, which leaves the greedy scan many
/// more candidates to decide.
const REFERENCE_PROBLEMS: [(&str, ProblemMaker); 4] = [
    ("mutex2-failstop-masking", || {
        mutex::with_fail_stop(2, Tolerance::Masking)
    }),
    ("mutex2-failstop-nonmasking", || {
        mutex::with_fail_stop(2, Tolerance::Nonmasking)
    }),
    ("mutex3-failstop-masking", || {
        mutex::with_fail_stop(3, Tolerance::Masking)
    }),
    ("philosophers3", || mutex::dining_philosophers(3)),
];

/// The unraveled model with its last fault edge that is the sole
/// witness of its (action, target valuation) pair removed: that source
/// state is no longer fault-closed, so every candidate merge that does
/// not repair it fails the closure check.
fn without_one_fault_edge(problem: &mut SynthesisProblem) -> FtKripke {
    let model = unraveled_model(problem);
    let props = |s: StateId| model.props(s);
    let sole_witness = |s: StateId, e: &Edge| {
        let same = |f: &&Edge| f.kind == e.kind && props(f.to) == props(e.to);
        model.succ(s).iter().filter(same).count() == 1
    };
    let dropped = (0..model.len() as u32)
        .rev()
        .map(StateId)
        .find_map(|s| {
            let e = model
                .succ(s)
                .iter()
                .find(|e| e.kind.is_fault() && sole_witness(s, e));
            e.map(|e| (s, *e))
        })
        .expect("the model has a fault edge");
    let mut out = KripkeBuilder::new();
    for s in model.state_ids() {
        out.push_state(model.state(s).clone());
    }
    for s in model.state_ids() {
        for e in model.succ(s).iter().filter(|&&e| (s, e) != dropped) {
            out.add_edge(s, e.kind, e.to);
        }
    }
    for &i in model.init_states() {
        out.add_init(i);
    }
    out.freeze()
}

/// The pipeline's minimization input plus an unreachable copy of its
/// first perturbed state (same valuation, same successors, no
/// predecessors). The copy shares a merge class with its reachable
/// original, so the scan decides candidates whose two states differ in
/// reachability.
fn with_unreachable_copy(problem: &mut SynthesisProblem) -> FtKripke {
    let model = pre_minimization_model(problem);
    let roles = model.classify();
    let original = model
        .state_ids()
        .find(|&s| roles[s.index()] == StateRole::Perturbed)
        .expect("the model has a perturbed state");
    let mut out = KripkeBuilder::new();
    for s in model.state_ids() {
        out.push_state(model.state(s).clone());
    }
    let copy = out.push_state(model.state(original).clone());
    for s in model.state_ids().chain([copy]) {
        let from = if s == copy { original } else { s };
        for e in model.succ(from) {
            out.add_edge(s, e.kind, e.to);
        }
    }
    for &i in model.init_states() {
        out.add_init(i);
    }
    let out = out.freeze();
    assert_eq!(out.classify()[copy.index()], StateRole::Unreachable);
    out
}

/// A one-process problem whose only requirement is `EX₀ AX₀ p` at the
/// initial state. The obligation is not universal: a merge can break
/// its witness, and a later merge can supply another one.
fn ex_ax_problem() -> SynthesisProblem {
    let mut props = PropTable::new();
    for name in ["w", "p", "v"] {
        props.add(name, Owner::Process(0)).expect("fresh name");
    }
    let mut arena = FormulaArena::new(1);
    let p = arena.prop(props.id("p").expect("declared"));
    let ax = arena.ax(0, p);
    let init = arena.ex(0, ax);
    let global = arena.tru();
    let spec = Spec::new(&mut arena, init, global);
    SynthesisProblem::new(arena, props, spec, Vec::new(), Tolerance::Masking)
}

/// A model for [`ex_ax_problem`] on which the greedy scan rejects a pair
/// and accepts it one round later. States, by id: `0 {w}` and `1 {w}`,
/// `2 {p}`, `3 {}` (initial) and `4 {}`, `5 {v}`; edges `0→2`, `1→3`,
/// `2→4`, `2→1`, `3→0`, `4→5`, `5→2`.
///
/// Round 1 tries `(1, 0)` first: the merged state steps to `3 ⊭ p`, so
/// the initial state's only witness of `EX₀ AX₀ p` is gone and the pair
/// is rejected. `(4, 3)` is accepted: the merged initial state gains
/// the second witness `5`. Round 2 retries `(1, 0)`, which `5` now
/// keeps satisfiable, and accepts it.
fn rejected_then_accepted(problem: &mut SynthesisProblem) -> FtKripke {
    let props = &problem.props;
    let state = |names: &[&str]| {
        let ids = names.iter().map(|n| props.id(n).expect("declared"));
        State::new(PropSet::from_iter_with_capacity(props.len(), ids))
    };
    let mut m = KripkeBuilder::new();
    for names in [&["w"][..], &["w"], &["p"], &[], &[], &["v"]] {
        m.push_state(state(names));
    }
    m.add_init(StateId(3));
    for (from, to) in [(0, 2), (1, 3), (2, 4), (2, 1), (3, 0), (4, 5), (5, 2)] {
        m.add_edge(StateId(from), TransKind::Proc(0), StateId(to));
    }
    m.freeze()
}

/// Minimizes `model_of(mk())` with the reference engine and with the
/// fast engine, asserts the fast run matches it, and returns its
/// profile.
fn assert_matches_reference(name: &str, mk: ProblemMaker, model_of: ModelMaker) -> MinimizeProfile {
    let mut problem = mk();
    let model = model_of(&mut problem);
    let (slow, slow_map, slow_prof) = semantic_minimize_reference(&mut problem, model.clone());
    // A fresh problem, with the same formulas re-derived.
    let mut problem = mk();
    let _ = model_of(&mut problem);
    let (fast, fast_map, fast_prof) = semantic_minimize(&mut problem, model);
    assert_eq!(
        fingerprint(&fast),
        fingerprint(&slow),
        "{name}: model diverged"
    );
    assert_eq!(fast_map, slow_map, "{name}: state mapping diverged");
    assert_eq!(
        fast_prof.attempts, slow_prof.attempts,
        "{name}: attempts diverged"
    );
    assert_eq!(
        fast_prof.merges, slow_prof.merges,
        "{name}: merges diverged"
    );
    assert_eq!(
        fast_prof.pruned_candidates + fast_prof.full_checks + fast_prof.replayed,
        fast_prof.attempts,
        "{name}: decision-path counters must partition the attempts"
    );
    fast_prof
}

/// The fast engine against the preserved original: identical model
/// bytes, identical mapping, and identical attempt/merge counts — the
/// fast engine takes the same greedy decisions, it just reaches them
/// cheaper. Four extra inputs reach what pipeline models never show: a
/// model that is not fault-closed (the closure prune), one whose merge
/// classes mix reachable and unreachable states (re-classifying the
/// candidate), one with a non-universal rejection that a later round
/// accepts (it must not be replayed), and one whose replay count
/// depends on kill scores staying frozen within a round.
#[test]
fn fast_engine_is_byte_identical_to_reference_engine() {
    let models: [(&str, ModelMaker); 2] = [
        ("post-quotient", pre_minimization_model),
        ("unraveled", unraveled_model),
    ];
    for (problem_name, mk) in REFERENCE_PROBLEMS {
        for (model_name, model_of) in models {
            assert_matches_reference(&format!("{problem_name}/{model_name}"), mk, model_of);
        }
    }
    let (problem_name, mk) = REFERENCE_PROBLEMS[0];
    let open = assert_matches_reference(
        &format!("{problem_name}/without-one-fault-edge"),
        mk,
        without_one_fault_edge,
    );
    assert!(
        open.pruned_candidates > 0,
        "the closure prune decided no candidate: {open:?}"
    );
    assert_matches_reference(
        &format!("{problem_name}/with-unreachable-copy"),
        mk,
        with_unreachable_copy,
    );
    let p = assert_matches_reference(
        "ex-ax/rejected-then-accepted",
        ex_ax_problem,
        rejected_then_accepted,
    );
    assert_eq!(
        (p.attempts, p.merges, p.replayed),
        (3, 2, 0),
        "the rejected pair must be decided again and accepted: {p:?}"
    );
    let p = assert_matches_reference("kill-order", kill_order_problem, kill_order_model);
    assert_eq!(
        p.deterministic_counters(),
        [7, 1, 2, 6, 0, 1],
        "kill scores must stay frozen within a round: {p:?}"
    );
}

/// A one-process problem whose only requirement is `AG(Q ∧ P)` with
/// `Q = ¬t ∨ EX₀ AX₀ s` (not universal) and `P = ¬u ∨ AX₀ AX₀ r`
/// (universal). `Q` is interned first, so at equal kill scores it is
/// checked first.
fn kill_order_problem() -> SynthesisProblem {
    let mut props = PropTable::new();
    for name in ["t", "r", "s", "u"] {
        props.add(name, Owner::Process(0)).expect("fresh name");
    }
    let id = |name: &str| props.id(name).expect("declared");
    let mut arena = FormulaArena::new(1);
    let not_t = arena.neg_prop(id("t"));
    let s = arena.prop(id("s"));
    let ax_s = arena.ax(0, s);
    let ex_ax_s = arena.ex(0, ax_s);
    let q = arena.or(not_t, ex_ax_s);
    let not_u = arena.neg_prop(id("u"));
    let r = arena.prop(id("r"));
    let ax_r = arena.ax(0, r);
    let ax_ax_r = arena.ax(0, ax_r);
    let p = arena.or(not_u, ax_ax_r);
    let global = arena.and(q, p);
    let init = arena.tru();
    let spec = Spec::new(&mut arena, init, global);
    SynthesisProblem::new(arena, props, spec, Vec::new(), Tolerance::Masking)
}

/// A model for [`kill_order_problem`]. States, by id: `0 {r}`
/// (initial), `1 {r}`, `2 {r}`, `3 {s,u}`, `4 {t,r,s}`, `5 {r}`,
/// `6 {r}`, `7 {s,u}`; `1`, `6` and `7` are unreachable.
///
/// Round 1 rejects `(2, 0)` on `P`, which raises `P`'s kill score, then
/// `(5, 0)`, which violates both conjuncts, then `(5, 2)`, and accepts
/// `(6, 1)`. Kill scores stay frozen for a whole round, so `(5, 0)` is
/// checked `Q` first, its killer is not universal, and round 2 decides
/// it again instead of replaying it: 6 full checks, 1 replayed.
/// Applying the kill at once would make `P` its killer and read 5 and 2.
fn kill_order_model(problem: &mut SynthesisProblem) -> FtKripke {
    let props = &problem.props;
    let state = |names: &[&str]| {
        let ids = names.iter().map(|n| props.id(n).expect("declared"));
        State::new(PropSet::from_iter_with_capacity(props.len(), ids))
    };
    let r = &["r"][..];
    let su = &["s", "u"][..];
    let mut m = KripkeBuilder::new();
    for names in [r, r, r, su, &["t", "r", "s"], r, r, su] {
        m.push_state(state(names));
    }
    m.add_init(StateId(0));
    let edges = [
        (0, 4),
        (0, 2),
        (1, 3),
        (2, 3),
        (2, 5),
        (3, 0),
        (4, 5),
        (4, 2),
        (5, 3),
        (6, 6),
        (7, 3),
    ];
    for (from, to) in edges {
        m.add_edge(StateId(from), TransKind::Proc(0), StateId(to));
    }
    m.freeze()
}

/// Governed runs abort at the same point as the reference engine: same
/// partial merge count, exactly `cap` attempts (the governor determinism
/// contract).
#[test]
fn governed_cap_abort_matches_reference() {
    let mk = || mutex::with_fail_stop(2, Tolerance::Masking);
    let pre = unraveled_model(&mut mk());
    let capped = |cap: usize| {
        Governor::with_budget(Budget {
            max_minimize_attempts: Some(cap),
            ..Budget::default()
        })
    };
    // Uncapped attempt count, to pick caps on both sides of rounds.
    let (_, _, full) = semantic_minimize_reference(&mut mk(), pre.clone());
    assert!(full.attempts > 4, "fixture large enough: {full:?}");
    for cap in [1, 3, full.attempts - 1] {
        let ref_abort = semantic_minimize_reference_governed(&mut mk(), pre.clone(), &capped(cap))
            .expect_err("cap below total attempts must abort");
        let abort = semantic_minimize_governed(&mut mk(), pre.clone(), Some(&capped(cap)))
            .expect_err("cap below total attempts must abort");
        assert_eq!(
            format!("{}", abort.reason),
            format!("{}", ref_abort.reason),
            "cap={cap}"
        );
        assert_eq!(
            abort.profile.attempts, ref_abort.profile.attempts,
            "cap={cap}"
        );
        assert_eq!(abort.profile.attempts, cap, "cap is exact");
        assert_eq!(abort.profile.merges, ref_abort.profile.merges, "cap={cap}");
    }
    // A cap at or above the total attempt count never trips.
    let (_, _, p) = semantic_minimize_governed(&mut mk(), pre, Some(&capped(full.attempts)))
        .expect("exact cap admits the full run");
    assert_eq!(p.attempts, full.attempts);
    assert_eq!(p.merges, full.merges);
}

/// The arithmetic `FtKripke::merged` is byte-identical to the reference
/// engine's map-based construction — on every candidate pair of a real
/// pipeline model, not just a toy.
#[test]
fn fast_merged_is_byte_identical_to_reference_merged() {
    let model = unraveled_model(&mut mutex::with_fail_stop(2, Tolerance::Masking));
    let ids: Vec<StateId> = model.state_ids().collect();
    let mut pairs = 0;
    for (i, &a) in ids.iter().enumerate() {
        for &b in ids.iter().skip(i + 1).take(3) {
            let (fast, fast_map) = model.merged(b, a);
            let (slow, slow_map) = merged(&model, b, a);
            assert_eq!(fingerprint(&fast), fingerprint(&slow), "{b:?}->{a:?}");
            assert_eq!(fast_map, slow_map, "{b:?}->{a:?}");
            pairs += 1;
        }
    }
    assert!(pairs > 10, "enough pairs exercised: {pairs}");
}
