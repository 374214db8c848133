//! Differential suite for the step-5 kernels: the optimized program
//! explorer (`ftsyn::guarded::interp::explore`) and bitset CTL checker
//! (`ftsyn::kripke::Checker`) against the straightforward reference
//! implementations in `ftsyn_conformance::reference`.
//!
//! The explorer must reproduce the reference structure element for
//! element — state ids and contents, initial states, and the order of
//! every `succ` list — or fail with the same error. The checker
//! must compute the same satisfaction set for every subformula of the
//! specification and tolerance labels, under both semantics.
//!
//! Inputs: the extracted program of every golden case under both
//! engines, the 60 fuzz seeds under both engines, hand-built programs
//! reaching each `ExploreError` and shared-corruption branch, and
//! seeded random programs with arbitrary guard shapes.

use ftsyn::ctl::{FormulaId, Owner, PropId, PropTable};
use ftsyn::guarded::interp::{explore, ExploreError};
use ftsyn::guarded::{
    BoolExpr, FaultAction, LocalState, ProcArc, Process, Program, PropAssign, SharedCorruption,
    SharedVar,
};
use ftsyn::kripke::{Checker, FtKripke, PropSet, Semantics, State, StateId};
use ftsyn::problems::{barrier, mutex, readers_writers, wire};
use ftsyn::{
    default_threads, synthesize_with_engine, Budget, Engine, Governor, SynthesisOutcome,
    SynthesisProblem, ThreadPlan, Tolerance, ToleranceAssignment,
};
use ftsyn_conformance::generate::random_problem;
use ftsyn_conformance::reference;
use ftsyn_prng::XorShift64;
use std::collections::HashMap;
use std::path::PathBuf;

/// Asserts two structures are element-identical, with no content on
/// two states.
fn assert_same_kripke(name: &str, got: &FtKripke, want: &FtKripke) {
    assert_eq!(got.len(), want.len(), "{name}: state count");
    assert_eq!(
        got.init_states(),
        want.init_states(),
        "{name}: initial states"
    );
    let mut index: HashMap<&State, StateId> = HashMap::new();
    for s in got.state_ids() {
        index.entry(got.state(s)).or_insert(s);
    }
    for s in want.state_ids() {
        assert_eq!(got.state(s), want.state(s), "{name}: content of {s:?}");
        assert_eq!(got.succ(s), want.succ(s), "{name}: succ of {s:?}");
        assert_eq!(
            index.get(got.state(s)).copied(),
            Some(s),
            "{name}: index of {s:?}"
        );
    }
}

/// Explores `program` with both explorers: same structure or same error.
/// Returns the structure, if any.
fn explore_both(
    name: &str,
    program: &Program,
    faults: &[FaultAction],
    props: &PropTable,
) -> Option<FtKripke> {
    let got = explore(program, faults, props).map(|ex| ex.kripke);
    let want = reference::explore(program, faults, props);
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_same_kripke(name, &got, &want);
            Some(got)
        }
        (got, want) => {
            assert_eq!(got.err(), want.err(), "{name}: exploration outcome");
            None
        }
    }
}

/// The checker and the reference labeler agree on every subformula of
/// the specification and of every tolerance label in use, under both
/// semantics.
fn assert_same_labels(name: &str, problem: &mut SynthesisProblem, model: &FtKripke) {
    let mut roots: Vec<FormulaId> = vec![problem.spec.formula(&mut problem.arena)];
    for tol in problem.tolerance.distinct() {
        roots.extend(problem.label_tol_formulas(tol));
    }
    for semantics in [Semantics::FaultFree, Semantics::IncludeFaults] {
        let mut ck = Checker::new(model, semantics);
        for &r in &roots {
            ck.eval(&problem.arena, r);
        }
        let cache = ck.into_cache();
        let mut oracle = reference::Checker::new(model, semantics);
        for f in cache.formulas() {
            let got = cache.get(f).expect("cached");
            let want = oracle.eval(&problem.arena, f);
            assert_eq!(
                got.universe(),
                want.len(),
                "{name} ({semantics:?}): universe of {f:?}"
            );
            for s in model.state_ids() {
                assert_eq!(
                    got.contains(s),
                    want[s.index()],
                    "{name} ({semantics:?}): subformula {f:?} at {s:?}"
                );
            }
        }
    }
}

/// Synthesizes under `engine` and runs both differentials on the
/// extracted program's structure and on the synthesized model. Returns
/// whether the problem was solved.
fn check_engine(
    name: &str,
    engine: Engine,
    mut problem: SynthesisProblem,
    gov: Option<&Governor>,
) -> bool {
    let plan = ThreadPlan::uniform(default_threads());
    let name = format!("{name} [{}]", engine.name());
    let SynthesisOutcome::Solved(s) = synthesize_with_engine(&mut problem, engine, plan, gov)
    else {
        return false;
    };
    let explored = explore_both(&name, &s.program, &problem.faults, &problem.props)
        .unwrap_or_else(|| panic!("{name}: extracted program is not executable"));
    assert_same_labels(&name, &mut problem, &explored);
    assert_same_labels(&format!("{name} model"), &mut problem, &s.model);
    true
}

fn check_golden(name: &str, make: impl Fn() -> SynthesisProblem) {
    for engine in [Engine::Tableau, Engine::Cegis] {
        assert!(
            check_engine(name, engine, make(), None),
            "{name}: not solved"
        );
    }
}

#[test]
fn golden_mutex2_failstop() {
    check_golden("mutex2-failstop-masking", || {
        mutex::with_fail_stop(2, Tolerance::Masking)
    });
}

#[test]
fn golden_mutex4_failstop() {
    check_golden("mutex4-failstop-masking", || {
        mutex::with_fail_stop(4, Tolerance::Masking)
    });
}

fn p1_nonmasking(f: &FaultAction) -> Tolerance {
    if f.name().contains("P1") {
        Tolerance::Nonmasking
    } else {
        Tolerance::Masking
    }
}

#[test]
fn golden_multitolerance_mutex4() {
    // Governed as in the golden suite.
    let gov = || {
        Governor::with_budget(Budget {
            max_states: Some(60_000),
            max_extract_refine_rounds: Some(4),
            ..Budget::default()
        })
    };
    for engine in [Engine::Tableau, Engine::Cegis] {
        let problem = mutex::with_fail_stop_multitolerance(4, p1_nonmasking);
        let name = "multitolerance-mutex4-P1-nonmasking";
        assert!(
            check_engine(name, engine, problem, Some(&gov())),
            "{name}: not solved"
        );
    }
}

#[test]
fn golden_multitolerance_mutex3() {
    check_golden("multitolerance-mutex3-P1-nonmasking", || {
        mutex::with_fail_stop_multitolerance(3, p1_nonmasking)
    });
}

#[test]
fn golden_barrier2() {
    check_golden("barrier2-nonmasking", || {
        barrier::with_general_state_faults(2)
    });
}

#[test]
fn golden_readers_writers() {
    check_golden("readers-writers-1R-writer-failstop", || {
        readers_writers::with_writer_fail_stop(1, Tolerance::Masking)
    });
}

#[test]
fn golden_philosophers3() {
    check_golden("philosophers3-fault-free", || mutex::dining_philosophers(3));
}

#[test]
fn golden_multitolerance_mixed() {
    check_golden("multitolerance-mutex2-mixed", || {
        let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
        let id = |n: &str| problem.props.id(n).unwrap();
        let (n1, t1, c1, d1) = (id("N1"), id("T1"), id("C1"), id("D1"));
        problem.faults.push(
            FaultAction::new(
                "corrupt-P1-to-C",
                BoolExpr::tru(),
                vec![
                    (c1, PropAssign::True),
                    (n1, PropAssign::False),
                    (t1, PropAssign::False),
                    (d1, PropAssign::False),
                ],
            )
            .unwrap(),
        );
        let last = problem.faults.len() - 1;
        problem.tolerance = ToleranceAssignment::PerFault(
            (0..=last)
                .map(|i| {
                    if i == last {
                        Tolerance::Nonmasking
                    } else {
                        Tolerance::Masking
                    }
                })
                .collect(),
        );
        problem
    });
}

fn spec_problem(file: &str) -> SynthesisProblem {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(file);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    ftsyn_cli::parse_problem(&src).unwrap_or_else(|e| panic!("{file}: {e}"))
}

#[test]
fn golden_specs() {
    for file in ["mutex_failstop.ftsyn", "reset_task.ftsyn"] {
        check_golden(file, || spec_problem(file));
    }
}

#[test]
fn golden_wire() {
    // The Section 2.3 wire is a concrete program, explored directly.
    let w = wire::build(None);
    explore_both("wire-stuck-at", &w.program, &w.faults, &w.props).expect("wire explores");
}

fn check_seeds(lo: u64, hi: u64) {
    let mut solved = 0;
    for seed in lo..=hi {
        for engine in [Engine::Tableau, Engine::Cegis] {
            let case = random_problem(&mut XorShift64::new(seed));
            let name = format!("seed {seed} ({})", case.name);
            solved += usize::from(check_engine(&name, engine, case.problem, None));
        }
    }
    assert!(solved > 0, "no seed in {lo}..={hi} synthesized");
}

#[test]
fn fuzz_seeds_01_to_20() {
    check_seeds(1, 20);
}

#[test]
fn fuzz_seeds_21_to_40() {
    check_seeds(21, 40);
}

#[test]
fn fuzz_seeds_41_to_60() {
    check_seeds(41, 60);
}

/// A program of one-hot processes: process `i` has local states
/// `p{i}s{j}`, each true in exactly its own proposition.
struct Skeleton {
    props: PropTable,
    local: Vec<Vec<PropId>>,
}

fn skeleton(locals: &[usize]) -> Skeleton {
    let mut props = PropTable::new();
    let local = locals
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            (0..n)
                .map(|j| props.add(format!("p{i}s{j}"), Owner::Process(i)).unwrap())
                .collect()
        })
        .collect();
    Skeleton { props, local }
}

fn program(sk: &Skeleton, arcs: Vec<Vec<ProcArc>>, shared: &[u32]) -> Program {
    let n = sk.props.len();
    Program {
        processes: arcs
            .into_iter()
            .enumerate()
            .map(|(i, arcs)| Process {
                index: i,
                states: sk.local[i]
                    .iter()
                    .map(|&p| LocalState {
                        name: sk.props.name(p).to_owned(),
                        props: PropSet::from_iter_with_capacity(n, [p]),
                    })
                    .collect(),
                arcs,
            })
            .collect(),
        shared: shared
            .iter()
            .enumerate()
            .map(|(v, &domain)| SharedVar {
                name: format!("x{v}"),
                domain,
            })
            .collect(),
        init_locals: vec![0; sk.local.len()],
        init_shared: vec![1; shared.len()],
        num_props: n,
    }
}

fn arc(from: usize, to: usize, guard: BoolExpr, assigns: Vec<(usize, u32)>) -> ProcArc {
    ProcArc {
        from,
        to,
        guard,
        assigns,
    }
}

#[test]
fn ambiguous_state_is_the_same_error() {
    // Two local states with the same propositions and no shared
    // variable to tell them apart.
    let sk = skeleton(&[1]);
    let mut prog = program(&sk, vec![vec![arc(0, 1, BoolExpr::tru(), vec![])]], &[]);
    let twin = prog.processes[0].states[0].clone();
    prog.processes[0].states.push(twin);
    let got = explore_both("ambiguous", &prog, &[], &sk.props);
    assert!(got.is_none());
    assert_eq!(
        explore(&prog, &[], &sk.props).unwrap_err(),
        ExploreError::AmbiguousState
    );
}

#[test]
fn twin_local_states_told_apart_by_a_shared_variable_explore() {
    // Local states 0 and 2 carry one valuation; x is 1 in the first and
    // 2 in the second, so every configuration is its own labeled state.
    let sk = skeleton(&[2, 2]);
    let arcs = vec![
        vec![
            arc(0, 1, BoolExpr::tru(), vec![]),
            arc(1, 2, BoolExpr::VarEq(0, 1), vec![(0, 2)]),
            arc(2, 1, BoolExpr::VarEq(0, 2), vec![(0, 1)]),
            arc(1, 0, BoolExpr::VarEq(0, 1), vec![]),
        ],
        vec![
            arc(0, 1, BoolExpr::tru(), vec![]),
            arc(1, 0, BoolExpr::tru(), vec![]),
        ],
    ];
    let mut prog = program(&sk, arcs, &[2]);
    let twin = prog.processes[0].states[0].clone();
    prog.processes[0].states.push(twin);
    let k = explore_both("twins", &prog, &[], &sk.props).expect("explores");
    let twins = k
        .state_ids()
        .filter(|&s| k.props(s) == k.props(k.init_states()[0]))
        .count();
    assert_eq!(twins, 2, "both twins are reached, one per value of x");
}

#[test]
fn a_twin_reached_after_its_sibling_is_still_ambiguous() {
    // Local state 2 is a twin of local state 0. It is first reached
    // after several states of the other views were added, through a move
    // that restores the initial value of x, so its first configuration
    // labels the same state as the initial one.
    let sk = skeleton(&[2, 2]);
    let arcs = vec![
        vec![
            arc(0, 1, BoolExpr::tru(), vec![(0, 2)]),
            arc(1, 2, BoolExpr::VarEq(0, 2), vec![(0, 1)]),
        ],
        vec![arc(0, 1, BoolExpr::tru(), vec![])],
    ];
    let mut prog = program(&sk, arcs, &[2]);
    let twin = prog.processes[0].states[0].clone();
    prog.processes[0].states.push(twin);
    assert!(explore_both("late twin", &prog, &[], &sk.props).is_none());
    assert_eq!(
        explore(&prog, &[], &sk.props).unwrap_err(),
        ExploreError::AmbiguousState
    );
}

#[test]
fn unmappable_fault_outcome_is_the_same_error() {
    let sk = skeleton(&[2, 2]);
    let arcs = vec![
        vec![arc(0, 1, BoolExpr::tru(), vec![])],
        vec![arc(0, 1, BoolExpr::Prop(sk.local[0][1]), vec![])],
    ];
    let prog = program(&sk, arcs, &[]);
    // Reachable only after P1 moves: sets both of P2's propositions.
    let both = FaultAction::new(
        "both",
        BoolExpr::Prop(sk.local[0][1]),
        vec![
            (sk.local[1][0], PropAssign::True),
            (sk.local[1][1], PropAssign::True),
        ],
    )
    .unwrap();
    assert!(explore_both("unmappable", &prog, std::slice::from_ref(&both), &sk.props).is_none());
    assert_eq!(
        explore(&prog, &[both], &sk.props).unwrap_err(),
        ExploreError::UnmappableFaultOutcome {
            action: "both".into(),
            process: 1
        }
    );
}

#[test]
fn shared_corruption_branches_agree() {
    let sk = skeleton(&[3, 2]);
    let [a, b, c] = [sk.local[0][0], sk.local[0][1], sk.local[0][2]];
    let arcs = vec![
        vec![
            arc(0, 1, BoolExpr::VarEq(0, 1), vec![(1, 2)]),
            arc(
                1,
                2,
                BoolExpr::Not(Box::new(BoolExpr::VarEq(1, 3))),
                vec![(0, 3)],
            ),
            arc(2, 0, BoolExpr::tru(), vec![(0, 1), (0, 2), (7, 1)]),
        ],
        vec![
            arc(
                0,
                1,
                BoolExpr::Or(vec![BoolExpr::Prop(b), BoolExpr::VarEq(0, 2)]),
                vec![],
            ),
            arc(1, 0, BoolExpr::not_prop(c), vec![(1, 1)]),
        ],
    ];
    let prog = program(&sk, arcs, &[3, 3]);
    let faults = vec![
        FaultAction::new("scramble", BoolExpr::Prop(a), vec![])
            .unwrap()
            .with_shared_corruption(vec![
                (0, SharedCorruption::Arbitrary),
                (1, SharedCorruption::Arbitrary),
                (0, SharedCorruption::Value(2)),
            ]),
        FaultAction::new(
            "reset",
            BoolExpr::Or(vec![BoolExpr::Prop(b), BoolExpr::Prop(c)]),
            vec![
                (a, PropAssign::True),
                (b, PropAssign::False),
                (c, PropAssign::False),
            ],
        )
        .unwrap()
        .with_shared_corruption(vec![
            (1, SharedCorruption::Value(9)),
            (5, SharedCorruption::Arbitrary),
        ]),
    ];
    let k = explore_both("corruption", &prog, &faults, &sk.props).expect("explores");
    assert!(k.fault_edge_count() > 0);
}

/// A random guard over the skeleton's propositions and shared
/// variables, including constants, out-of-range variables and
/// propositions beyond the valuation's capacity.
fn random_guard(rng: &mut XorShift64, sk: &Skeleton, vars: usize, depth: usize) -> BoolExpr {
    let leaf = depth == 0 || rng.chance(0.3);
    if leaf {
        return match rng.below(6) {
            0 => BoolExpr::Const(rng.chance(0.7)),
            1 => BoolExpr::VarEq(rng.below(vars + 1), rng.range(1, 4) as u32),
            2 => BoolExpr::Prop(PropId(130)),
            _ => BoolExpr::Prop(PropId(rng.below(sk.props.len()) as u32)),
        };
    }
    match rng.below(3) {
        0 => BoolExpr::Not(Box::new(random_guard(rng, sk, vars, depth - 1))),
        1 => BoolExpr::And(
            (0..rng.below(4))
                .map(|_| random_guard(rng, sk, vars, depth - 1))
                .collect(),
        ),
        _ => BoolExpr::Or(
            (0..rng.below(4))
                .map(|_| random_guard(rng, sk, vars, depth - 1))
                .collect(),
        ),
    }
}

/// Seeded random programs: arbitrary guard trees (every shape the
/// lowering must handle), random assignments, and random fault actions
/// with nondeterministic assignments and shared corruption.
#[test]
fn random_programs_agree() {
    let (mut explored, mut errors) = (0, 0);
    for seed in 1..=300u64 {
        let mut rng = XorShift64::new(0x5EED_0000 + seed);
        let locals: Vec<usize> = (0..rng.range(1, 4)).map(|_| rng.range(2, 4)).collect();
        let sk = skeleton(&locals);
        let vars = rng.below(3);
        let domains: Vec<u32> = (0..vars).map(|_| rng.range(2, 4) as u32).collect();
        let arcs = locals
            .iter()
            .map(|&n| {
                (0..rng.range(1, 2 * n + 1))
                    .map(|_| {
                        let assigns = (0..rng.below(3))
                            .map(|_| (rng.below(vars + 1), rng.range(1, 4) as u32))
                            .collect();
                        arc(
                            rng.below(n),
                            rng.below(n),
                            random_guard(&mut rng, &sk, vars, 3),
                            assigns,
                        )
                    })
                    .collect()
            })
            .collect();
        let prog = program(&sk, arcs, &domains);
        let faults: Vec<FaultAction> = (0..rng.below(3))
            .map(|fi| {
                let i = rng.below(locals.len());
                let (from, to) = (rng.below(locals[i]), rng.below(locals[i]));
                let mut assigns = vec![(sk.local[i][from], PropAssign::False)];
                if from != to {
                    let how = if rng.chance(0.3) {
                        PropAssign::NonDet
                    } else {
                        PropAssign::True
                    };
                    assigns.push((sk.local[i][to], how));
                }
                let corrupt = (0..rng.below(3))
                    .map(|_| {
                        let how = if rng.chance(0.5) {
                            SharedCorruption::Arbitrary
                        } else {
                            SharedCorruption::Value(rng.below(5) as u32)
                        };
                        (rng.below(vars.max(1)), how)
                    })
                    .filter(|&(v, _)| v < vars)
                    .collect();
                FaultAction::new(format!("f{fi}"), BoolExpr::Prop(sk.local[i][from]), assigns)
                    .unwrap()
                    .with_shared_corruption(corrupt)
            })
            .collect();
        match explore_both(&format!("random program {seed}"), &prog, &faults, &sk.props) {
            Some(_) => explored += 1,
            None => errors += 1,
        }
    }
    // Both outcomes must actually be exercised.
    assert!(
        explored > 100 && errors > 10,
        "{explored} explored, {errors} errors"
    );
}
