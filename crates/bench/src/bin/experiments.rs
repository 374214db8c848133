//! The paper-experiment harness: regenerates every figure and result of
//! *Attie, Arora, Emerson — Synthesis of Fault-Tolerant Concurrent
//! Programs* and prints a markdown report (the content of
//! `EXPERIMENTS.md`).
//!
//! Run with `cargo run --release -p ftsyn-bench --bin experiments`.

use ftsyn::guarded::sim::{simulate, SimConfig};
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign, SharedCorruption};
use ftsyn::kripke::{PropSet, StateRole};
use ftsyn::{
    default_threads,
    problems::{barrier, mutex, wire},
    synthesize, synthesize_with_engine, Budget, Engine, Governor, SynthesisOutcome,
    SynthesisProblem, SynthesisStats, Synthesized, ThreadPlan, Tolerance, ToleranceAssignment,
};
use ftsyn_bench::{mutex_failstop_with_k_faults, scaling_problems};
use std::time::{Duration, Instant};

/// A report row's problem: its name and a constructor for a fresh copy.
type NamedProblem = (&'static str, fn() -> SynthesisProblem);

/// Runs per engine and problem in the E16 head-to-head.
const E16_RUNS: usize = 3;

fn role_counts(s: &Synthesized) -> (usize, usize, usize) {
    let roles = s.model.classify();
    let c = |r: StateRole| roles.iter().filter(|x| **x == r).count();
    (
        c(StateRole::Normal),
        c(StateRole::Perturbed),
        c(StateRole::Recovery),
    )
}

fn distinct_valuations(s: &Synthesized, role: StateRole) -> usize {
    let roles = s.model.classify();
    let mut vals: Vec<PropSet> = Vec::new();
    for st in s.model.state_ids() {
        if roles[st.index()] == role {
            let v = s.model.props(st).clone();
            if !vals.contains(&v) {
                vals.push(v);
            }
        }
    }
    vals.len()
}

/// Solves a fresh `make()` through `engine` `runs` times at the
/// default thread count; returns the last outcome and the fastest
/// wall clock.
fn best_of(
    runs: usize,
    make: fn() -> SynthesisProblem,
    engine: Engine,
) -> (SynthesisOutcome, Duration) {
    let plan = ThreadPlan::uniform(default_threads());
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..runs {
        let mut problem = make();
        let t0 = Instant::now();
        let out = synthesize_with_engine(&mut problem, engine, plan, None);
        best = best.min(t0.elapsed());
        last = Some(out);
    }
    (last.expect("at least one run"), best)
}

/// The outcome's name, its model size (solved only) and its stats
/// (none for an abort).
fn outcome_summary(
    out: &SynthesisOutcome,
) -> (&'static str, Option<usize>, Option<&SynthesisStats>) {
    match out {
        SynthesisOutcome::Solved(s) => ("solved", Some(s.stats.model_states), Some(&s.stats)),
        SynthesisOutcome::Impossible(i) => ("impossible", None, Some(&i.stats)),
        SynthesisOutcome::Aborted(_) => ("aborted", None, None),
    }
}

fn main() {
    println!("# EXPERIMENTS — paper vs. measured");
    println!();
    println!("Generated by `cargo run --release -p ftsyn-bench --bin experiments`.");
    println!("Every row is produced by actually running the synthesis method and");
    println!("mechanically verifying the result with the CTL model checker");
    println!("(soundness per Theorem 7.1.9, tolerance per Corollary 7.1, fault");
    println!("closure per Theorem 7.3.2). \"verify\" = all of those checks pass.");
    println!();
    println!("The paper's evaluation consists of worked syntheses (Section 6),");
    println!("an impossibility result (Section 6.3), multitolerance (Section");
    println!("8.2) and a complexity analysis (Section 7.4); it reports no");
    println!("wall-clock numbers (the 1998/2004 constructions were by hand), so");
    println!("\"paper\" columns quote the structural facts the paper states and");
    println!("the expected *shape* of the scaling, and \"measured\" columns what");
    println!("this implementation produces.");

    // ---------------------------------------------------------------
    println!("\n## E1–E2 (Figures 3–7): tableau for mutex + fail-stop, masking\n");
    let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
    let s = synthesize(&mut p).unwrap_solved();
    println!("| quantity | paper | measured |");
    println!("|---|---|---|");
    println!(
        "| fault actions (1 fail-stop + 3 repairs per process) | 8 | {} |",
        p.faults.len()
    );
    println!(
        "| tableau nodes built | (not reported) | {} |",
        s.stats.tableau_nodes
    );
    println!("| deleted: DeleteP / DeleteOR / DeleteAND / DeleteAU / DeleteEU / unreachable | Fig. 5→6 shows DeleteP + DeleteAND cascades | {} / {} / {} / {} / {} / {} |",
        s.stats.deletion.prop_inconsistent,
        s.stats.deletion.or_without_children,
        s.stats.deletion.and_missing_successor,
        s.stats.deletion.au_unfulfilled,
        s.stats.deletion.eu_unfulfilled,
        s.stats.deletion.unreachable);
    println!(
        "| alive AND / OR nodes after deletion | (not reported) | {} / {} |",
        s.stats.alive_and, s.stats.alive_or
    );
    println!(
        "| root survives (solution exists) | yes | {} |",
        s.verification.ok()
    );
    println!();
    println!("The paper's Figure 5→6 deletion (fail-stop of P1 followed by");
    println!("fail-stop of P2 producing propositionally inconsistent OR-nodes)");
    println!("appears here as the DeleteOR/DeleteAND cascade counts: perturbed");
    println!("OR-labels that pin every proposition false for a process while the");
    println!("global specification requires exactly one region are pruned during");
    println!("`Blocks` (equivalent to DeleteP) and their parents cascade.");

    // ---------------------------------------------------------------
    println!("\n## E3 (Figure 8): the fault-tolerant mutex structure\n");
    let (n, pert, rec) = role_counts(&s);
    println!("| quantity | paper (Figure 8) | measured |");
    println!("|---|---|---|");
    println!(
        "| normal states (fault-free portion) | 9 ([T1 T2] twice) | {} ({} distinct valuations) |",
        n,
        distinct_valuations(&s, StateRole::Normal)
    );
    println!(
        "| perturbed states | the [D1 ·], [· D2], [D1 D2] groups | {} |",
        pert
    );
    println!(
        "| recovery states | (grouped with perturbed in the figure) | {} |",
        rec
    );
    println!(
        "| mutual exclusion violation [C1 C2] reachable | never | {} |",
        {
            let c1 = p.props.id("C1").unwrap();
            let c2 = p.props.id("C2").unwrap();
            s.model.state_ids().any(|st| {
                let v = s.model.props(st);
                v.contains(c1) && v.contains(c2)
            })
        }
    );
    println!(
        "| program / fault transitions | (not counted) | {} / {} |",
        s.stats.program_transitions, s.stats.fault_transitions
    );
    println!(
        "| masking verified (AG global ∧ AG coupling at perturbed) | by construction | {} |",
        s.verification.perturbed_satisfy_tolerance
    );
    println!();
    println!("Shape note: the method is free to pick any correct solution; ours");
    println!("realizes the same fault-free region as Emerson–Clarke's (with the");
    println!("duplicated contended state [T1 T2] and its disambiguating shared");
    println!("variable) but may omit a symmetric corner (e.g. visit [C1 T2] and");
    println!("not [C1 N2]) — the figure's solution is one of several the");
    println!("deletion-pruned tableau supports.");

    // ---------------------------------------------------------------
    println!("\n## E4 (Figure 9): the extracted program\n");
    println!("| quantity | paper (Figure 9) | measured |");
    println!("|---|---|---|");
    for proc in &s.program.processes {
        println!(
            "| P{}: local states / arcs | 4 (N,T,C,D) / guarded arcs incl. x tests | {} / {} |",
            proc.index + 1,
            proc.states.len(),
            proc.arcs.len()
        );
    }
    println!(
        "| shared variables | 1 (for the two [T1 T2] states) | {} |",
        s.program.shared.len()
    );
    println!("\n```text");
    print!("{}", s.program.display(&p.props));
    println!("```");

    // ---------------------------------------------------------------
    println!("\n## E5 (Figure 10): barrier synchronization, nonmasking\n");
    let mut bp = barrier::with_general_state_faults(2);
    let bs = synthesize(&mut bp).unwrap_solved();
    let (bn, bpert, brec) = role_counts(&bs);
    println!("| quantity | paper (Figure 10) | measured |");
    println!("|---|---|---|");
    println!(
        "| normal states | 8 | {} ({} distinct valuations) |",
        bn,
        distinct_valuations(&bs, StateRole::Normal)
    );
    println!(
        "| perturbed states | 4 (two phases apart) | {} ({} distinct valuations) |",
        bpert,
        distinct_valuations(&bs, StateRole::Perturbed)
    );
    println!("| recovery states | (none beyond perturbed) | {} |", brec);
    println!(
        "| nonmasking verified (AF AG global at perturbed) | by construction | {} |",
        bs.verification.perturbed_satisfy_tolerance
    );
    println!(
        "| masking variant solvable | no (the paper asks for nonmasking) | {} |",
        {
            let mut mp = barrier::with_general_state_faults(2);
            mp.tolerance = ToleranceAssignment::Uniform(Tolerance::Masking);
            synthesize(&mut mp).is_solved()
        }
    );
    println!();
    println!("Measured perturbed valuations exceed the figure's four when the");
    println!("corruption lands on a valuation the figure treats as normal (an");
    println!("*insignificant* occurrence reached along a different temporal");
    println!("label); the four barrier-violating, distance-2 valuations are all");
    println!("present and all converge (see `tests/barrier.rs`).");

    // ---------------------------------------------------------------
    println!("\n## E6 (Figure 11): the extracted self-stabilizing program\n");
    println!("```text");
    print!("{}", bs.program.display(&bp.props));
    println!("```");
    println!("Paper's observation reproduced: the fault-intolerant program lets a");
    println!("process move when its peer is at the same phase or one ahead; the");
    println!("fault-tolerant one adds recovery moves (peer two phases ahead).");

    // ---------------------------------------------------------------
    println!("\n## E7 (Section 6.3): mechanical impossibility\n");
    let mut ip = barrier::with_fail_stop_impossible(2);
    let io = synthesize(&mut ip);
    println!("| quantity | paper | measured |");
    println!("|---|---|---|");
    match io {
        SynthesisOutcome::Impossible(imp) => {
            println!(
                "| barrier + fail-stop (may stay down) + nonmasking | impossible | impossible |"
            );
            println!("| mechanism | perturbed label unsatisfiable → cascade to root | DeleteAU = {}, DeleteAND = {}, root deleted |",
                imp.stats.deletion.au_unfulfilled, imp.stats.deletion.and_missing_successor);
            println!("| decision time | (by hand) | {:?} |", imp.stats.elapsed);
        }
        SynthesisOutcome::Solved(_) => println!("| outcome | impossible | SOLVED (BUG!) |"),
        SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
    }

    // ---------------------------------------------------------------
    println!("\n## E8 (Section 7.4): complexity scaling\n");
    println!("Paper: time and space are single-exponential in |spec| and linear");
    println!("in |F|. Measured (single run each, release build):\n");
    println!(
        "| problem | \\|spec\\| | \\|F\\| | closure | tableau nodes | model states | \
         time | build | delete | minimize | merges/attempts | labelings | pruned | replayed |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for (name, build) in scaling_problems() {
        let mut prob = build();
        let t0 = std::time::Instant::now();
        let out = synthesize(&mut prob);
        let dt = t0.elapsed();
        match out {
            SynthesisOutcome::Solved(s) => println!(
                "| {name} | {} | {} | {} | {} | {} | {dt:.1?} | {:.1?} | {:.1?} | {:.1?} | \
                 {}/{} | {} | {} | {} |",
                s.stats.spec_length,
                s.stats.fault_size,
                s.stats.closure_size,
                s.stats.tableau_nodes,
                s.stats.model_states,
                s.stats.build_time,
                s.stats.deletion_time,
                s.stats.minimize_time,
                s.stats.minimize_profile.merges,
                s.stats.minimize_profile.attempts,
                s.stats.minimize_profile.base_labelings,
                s.stats.minimize_profile.pruned_candidates,
                s.stats.minimize_profile.replayed
            ),
            SynthesisOutcome::Impossible(i) => println!(
                "| {name} | {} | {} | {} | {} | (impossible) | {dt:.1?} | {:.1?} | {:.1?} | \
                 — | — | — | — | — |",
                i.stats.spec_length,
                i.stats.fault_size,
                i.stats.closure_size,
                i.stats.tableau_nodes,
                i.stats.build_time,
                i.stats.deletion_time,
            ),
            SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
        }
    }
    println!();
    println!("Attempts still grow roughly quadratically in the number of");
    println!("same-valuation copies (the greedy scan restarts after each");
    println!("accepted merge), but the incremental minimizer pays one full CTL");
    println!("labeling per *round* (\"labelings\" = accepted merges + 1) instead");
    println!("of one per *attempt*, discharges most per-candidate obligations");
    println!("by transferring cached base-model verdicts, restricts exact");
    println!("evaluation to the open requirement conjuncts, and replays a");
    println!("pair's earlier rejection on a universal obligation without");
    println!("building the candidate (\"replayed\"; DESIGN.md \u{a7}10).");
    println!("The formerly minimization-bound rows (mutex4-failstop,");
    println!("philosophers5: ~30-40 s of minimize time) now minimize in");
    println!("well under a second; mutex4-failstop's residual wall clock is");
    println!("tableau construction, the dominant phase (see ROADMAP.md).");
    println!("\n|F|-scaling at fixed spec (mutex-2, fail-stop, first k actions):\n");
    println!("| k fault actions | \\|F\\| | tableau nodes | time |");
    println!("|---|---|---|---|");
    for k in [2, 4, 6, 8] {
        let mut prob = mutex_failstop_with_k_faults(k);
        let t0 = std::time::Instant::now();
        let out = synthesize(&mut prob);
        let dt = t0.elapsed();
        match out {
            SynthesisOutcome::Solved(s) => {
                println!(
                    "| {k} | {} | {} | {dt:?} |",
                    s.stats.fault_size, s.stats.tableau_nodes
                )
            }
            SynthesisOutcome::Impossible(i) => println!(
                "| {k} | {} | {} | {dt:?} (impossible) |",
                i.stats.fault_size, i.stats.tableau_nodes
            ),
            SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
        }
    }
    println!();
    println!("Per-phase timings with their spread — build, deletion, unravel,");
    println!("minimize, extract and verify for both engines, plus the daemon's");
    println!("request layers — come from the layered benchmark declared in");
    println!("`BENCHMARK.json`: run `python3 synthbench/run.py` (see");
    println!("`synthbench/NOTES.md`). The single-shot times above are one run");
    println!("each on whatever machine regenerated this report.");

    // ---------------------------------------------------------------
    println!("\n## E9 (Section 8.2): multitolerance\n");
    let build_mixed = || -> (SynthesisProblem, usize) {
        let mut prob = mutex::with_fail_stop(2, Tolerance::Masking);
        let n1 = prob.props.id("N1").unwrap();
        let t1 = prob.props.id("T1").unwrap();
        let c1 = prob.props.id("C1").unwrap();
        let d1 = prob.props.id("D1").unwrap();
        prob.faults.push(
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
            .expect("valid"),
        );
        let idx = prob.faults.len() - 1;
        (prob, idx)
    };
    // Per-fault assignments make the extracted program's explored state
    // space a strict superset of the model (fault displacements carry
    // running shared values), so each solved row also reports the
    // extraction profile: the in-pipeline verification explores the
    // extracted program, re-checks every tolerance label there, and
    // strengthens implicated guards from counterexamples (DESIGN.md §11).
    let profile_cols = |s: &Synthesized| {
        let p = &s.stats.extract_profile;
        format!(
            "{} vs {} ({} off-model) | {} ({}) | {}",
            p.explored_states,
            p.model_states,
            p.off_model_states,
            p.refined_arcs,
            p.refinement_rounds,
            if p.verified { "VERIFIED" } else { "REJECTED" }
        )
    };
    println!("| assignment | paper | measured | explored vs model states | arcs refined (rounds) | extraction |");
    println!("|---|---|---|---|---|---|");
    let (mut uni, _) = build_mixed();
    println!("| uniform masking over fail-stop + corruption | impossible (corruption can violate mutual exclusion now) | {} | — | — | — |",
        if synthesize(&mut uni).is_solved() { "solved (BUG)" } else { "impossible" });
    let (mut mix, ci) = build_mixed();
    let tols: Vec<Tolerance> = (0..mix.faults.len())
        .map(|i| {
            if i == ci {
                Tolerance::Nonmasking
            } else {
                Tolerance::Masking
            }
        })
        .collect();
    mix.tolerance = ToleranceAssignment::PerFault(tols);
    match synthesize(&mut mix) {
        SynthesisOutcome::Solved(ms) => println!(
            "| fail-stop↦masking, corruption↦nonmasking | solvable per Section 8.2 | solved, {} states, verify={} | {} |",
            ms.stats.model_states, ms.verification.ok(), profile_cols(&ms)),
        SynthesisOutcome::Impossible(_) => println!("| mixed | solvable | impossible (BUG) | — | — | — |"),
        SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
    }
    let mut mt3 = mutex::with_fail_stop_multitolerance(3, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    });
    match synthesize(&mut mt3) {
        SynthesisOutcome::Solved(ms) => println!(
            "| 3 processes, P1's faults↦nonmasking, rest↦masking | per-action labels scale with the fault list | solved, {} states, verify={} | {} |",
            ms.stats.model_states, ms.verification.ok(), profile_cols(&ms)),
        SynthesisOutcome::Impossible(_) => {
            println!("| 3 processes, mixed | solvable | impossible (BUG) | — | — | — |")
        }
        SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
    }
    // The 4-process axis the extraction gap used to block, run under
    // deterministic governor caps (the tableau is ~45k nodes).
    let mut mt4 = mutex::with_fail_stop_multitolerance(4, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    });
    let gov = Governor::with_budget(Budget {
        max_states: Some(60_000),
        max_extract_refine_rounds: Some(4),
        ..Budget::default()
    });
    let plan = ftsyn::ThreadPlan::uniform(ftsyn::default_threads());
    match ftsyn::synthesize_with_engine(&mut mt4, ftsyn::Engine::Tableau, plan, Some(&gov)) {
        SynthesisOutcome::Solved(ms) => println!(
            "| 4 processes, P1's faults↦nonmasking, rest↦masking | (beyond the paper's worked examples) | solved, {} states, verify={} | {} |",
            ms.stats.model_states, ms.verification.ok(), profile_cols(&ms)),
        SynthesisOutcome::Impossible(_) => {
            println!("| 4 processes, mixed | solvable | impossible (BUG) | — | — | — |")
        }
        SynthesisOutcome::Aborted(a) => {
            println!("| 4 processes, mixed | solvable | aborted: {} (BUG) | — | — | — |", a.reason)
        }
    }
    println!();
    println!("Off-model states are the fault-displaced configurations the");
    println!("running program can reach but the synthesized model never");
    println!("enumerates (a fault carries the current shared-variable values");
    println!("into its target). Under uniform tolerance the weak projected");
    println!("guards already satisfy every label there; under per-fault");
    println!("assignments they did not — the refinement loop strengthens the");
    println!("implicated guards with full shared-variable valuations until the");
    println!("model checker accepts the extracted program, and a non-converging");
    println!("loop fails synthesis with a structured `ExtractionGap` instead of");
    println!("shipping a silently-wrong program.");

    // ---------------------------------------------------------------
    println!("\n## E10 (Theorems 7.1.9, 7.3.2): mechanical verification summary\n");
    println!("| problem | soundness (labels) | spec at init | tolerance at perturbed | fault closure | failures by kind |");
    println!("|---|---|---|---|---|---|");
    for (name, build) in [
        (
            "mutex2-fault-free",
            Box::new(|| mutex::fault_free(2)) as Box<dyn Fn() -> SynthesisProblem>,
        ),
        (
            "mutex2-failstop-masking",
            Box::new(|| mutex::with_fail_stop(2, Tolerance::Masking)),
        ),
        (
            "mutex2-failstop-failsafe",
            Box::new(|| mutex::with_fail_stop(2, Tolerance::FailSafe)),
        ),
        (
            "barrier2-nonmasking",
            Box::new(|| barrier::with_general_state_faults(2)),
        ),
    ] {
        let mut prob = build();
        if let SynthesisOutcome::Solved(s) = synthesize(&mut prob) {
            let summary = s.verification.failure_summary();
            println!(
                "| {name} | {} | {} | {} | {} | {} |",
                s.verification.labels_sound,
                s.verification.init_satisfies_spec,
                s.verification.perturbed_satisfy_tolerance,
                s.verification.fault_closed,
                if summary.is_empty() {
                    "(none)"
                } else {
                    summary.as_str()
                }
            );
        }
    }

    // ---------------------------------------------------------------
    println!("\n## E11 (Section 2.3): the wire and its fault family\n");
    let w = wire::build(None);
    let cfg = SimConfig {
        steps: 2000,
        fault_prob: 0.2,
        max_faults: 50,
        seed: 5,
    };
    let trace = simulate(&w.program, &w.faults, &w.props, &cfg);
    println!("| quantity | paper | measured |");
    println!("|---|---|---|");
    println!("| stuck-at + repair model intermittent faults | yes | {} faults over {} steps, wire keeps running |", trace.fault_count(), trace.steps.len());
    let wb = wire::build(Some(3));
    let trace_b = simulate(&wb.program, &wb.faults[..3], &wb.props, &cfg);
    println!(
        "| bounded variant caps occurrences at k | yes (brokencount < k) | k=3, observed {} |",
        trace_b.fault_count()
    );

    // ---------------------------------------------------------------
    println!("\n## E12 (Section 5.3): corrupting shared synchronization variables\n");
    let mut fp = mutex::fault_free(2);
    let fs = synthesize(&mut fp).unwrap_solved();
    let corrupt = FaultAction::new("corrupt-x", BoolExpr::tru(), vec![])
        .expect("valid")
        .with_shared_corruption(vec![(0, SharedCorruption::Arbitrary)]);
    let ex = ftsyn::guarded::interp::explore(&fs.program, &[corrupt], &fp.props).expect("explore");
    println!("| quantity | paper | measured |");
    println!("|---|---|---|");
    println!("| corrupting x keeps execution within existing states | yes (case analysis of 5.3) | explored {} states, {} fault edges, no new valuations |",
        ex.kripke.len(), ex.kripke.fault_edge_count());
    println!("| out-of-domain writes read as default 1 | yes | enforced by `Program::clamp_shared` (tested) |");
    // ---------------------------------------------------------------
    println!("\n## E13 (Section 8.3): the alternative method (fault-prone correctness)\n");
    println!("| scenario | paper's prediction | measured |");
    println!("|---|---|---|");
    {
        let mut p1 = mutex::with_fail_stop(2, Tolerance::Masking).with_fault_prone_correctness();
        println!("| masking mutex under ⊨ (faults may repeat) | \"repeated occurrence of faults could violate some correctness property, causing the problem to have no model in this setting\" | {} |",
            if synthesize(&mut p1).is_solved() { "solved (BUG)" } else { "impossible" });
        let mut p2 = mutex::with_fail_stop(2, Tolerance::Masking);
        println!("| the same problem under the main method (⊨ₙ) | \"our current method would work\" | {} |",
            if synthesize(&mut p2).is_solved() { "solved" } else { "impossible (BUG)" });
        let mut p3 = mutex::with_fail_stop(2, Tolerance::Masking);
        let safety = p3.spec.global_safety(&mut p3.arena);
        p3.spec.global = safety;
        let mut p3 = p3.with_fault_prone_correctness();
        println!(
            "| safety-only mutex under ⊨ | stronger statements accommodated | {} |",
            if synthesize(&mut p3).is_solved() {
                "solved (safety holds on every fault-prone path)"
            } else {
                "impossible (BUG)"
            }
        );
    }
    println!();
    println!("`tests/alternative_method.rs` adds the bounded-fault case: with a");
    println!("once-only reset fault, even *liveness* survives fault-prone paths");
    println!("and the alternative method succeeds.");

    // ---------------------------------------------------------------
    println!("\n## E14 (beyond the paper): further synthesized systems\n");
    println!("Domains not in the paper, demonstrating the method's scope (all");
    println!("mechanically verified like the rows above):\n");
    println!("| problem | tolerance | outcome | states | verify |");
    println!("|---|---|---|---|---|");
    {
        use ftsyn::problems::{handshake, readers_writers};
        let rows: Vec<(&str, &str, SynthesisProblem)> = vec![
            (
                "readers-writers (1W+2R), writer fail-stop",
                "masking",
                readers_writers::with_writer_fail_stop(2, Tolerance::Masking),
            ),
            (
                "producer-consumer handshake, omission",
                "masking",
                handshake::build(handshake::BufferFault::Omission, Tolerance::Masking),
            ),
            (
                "producer-consumer handshake, timing",
                "masking",
                handshake::build(handshake::BufferFault::Timing, Tolerance::Masking),
            ),
            (
                "producer-consumer handshake, timing",
                "nonmasking",
                handshake::build(handshake::BufferFault::Timing, Tolerance::Nonmasking),
            ),
            (
                "producer-consumer handshake, timing",
                "fail-safe",
                handshake::build(handshake::BufferFault::Timing, Tolerance::FailSafe),
            ),
        ];
        for (name, tol, mut prob) in rows {
            match synthesize(&mut prob) {
                SynthesisOutcome::Solved(s) => println!(
                    "| {name} | {tol} | solved | {} | {} |",
                    s.stats.model_states,
                    s.verification.ok()
                ),
                SynthesisOutcome::Impossible(_) => {
                    println!("| {name} | {tol} | impossible | — | — |")
                }
                SynthesisOutcome::Aborted(_) => {
                    unreachable!("ungoverned synthesis cannot abort")
                }
            }
        }
    }
    println!();
    println!("The timing-fault row reproduces the Section 2.5 taxonomy");
    println!("mechanically: a delayed buffer admits only fail-safe tolerance");
    println!("(the delay blocks the liveness cycle until the fault's own");
    println!("release action fires, which no fault-free path contains).");

    // ---------------------------------------------------------------
    println!("\n## E15 (beyond the paper): synthesis-as-a-service throughput\n");
    println!("`ftsyn serve` keeps the `Blocks`/`Tiles` expansion memo alive across");
    println!("requests (partitioned per problem — the memo keys are closure-relative,");
    println!("DESIGN.md \u{a7}12). The daemon is measured by the `daemon-mix` workload");
    println!("of `python3 synthbench/run.py` (`BENCHMARK.json`, `synthbench/NOTES.md`):");
    println!("a seeded mix of small, cold and warm tableau, CEGIS, inline-spec,");
    println!("abort and resume requests on one pipe, open-loop and then");
    println!("closed-loop, reporting request latency, throughput per CPU second,");
    println!("per-class submit times, queue wait and the cache hit fraction, with");
    println!("the spread over seeds from `synthbench/spread.py`. Result bytes are");
    println!("unaffected by cache warmth: the conformance suite (`tests/service.rs`)");
    println!("byte-compares cold, warm, and concurrent service answers against");
    println!("direct `synthesize` calls, and `tests/resume.rs` pins");
    println!("abort\u{2192}checkpoint\u{2192}resume identity at 1/2/8 threads.");

    // ---------------------------------------------------------------
    println!("\n## E16 (beyond the paper): tableau vs. CEGIS backend head-to-head\n");
    println!("`--engine cegis` runs the same problem through an independent");
    println!("bounded-synthesis engine (DESIGN.md \u{a7}13): guess a candidate model under");
    println!("an iteratively widened obligation-queue bound, verify with the built-in");
    println!("checker plus the full extraction pipeline, block the counterexample,");
    println!("repeat. Outcome agreement between the backends is replayed across the");
    println!("whole pinned fuzz-seed space by the conformance suite. End-to-end wall");
    println!("clock of `synthesize_with_engine`, best of {E16_RUNS} runs at the default");
    println!(
        "thread count ({} here); per-phase times with their spread come from",
        default_threads()
    );
    println!("the `solve-tableau` and `solve-cegis` workloads of");
    println!("`python3 synthbench/run.py`, whose traced runs report per-case");
    println!("`case.<engine>.<problem>.verdict_ms`:\n");
    println!(
        "| problem | outcome | tableau | cegis | candidates | bound | states (tab/cegis) | speedup |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let head_to_head: [NamedProblem; 7] = [
        ("mutex2-failstop, masking", || {
            mutex::with_fail_stop(2, Tolerance::Masking)
        }),
        ("mutex3-failstop, masking", || {
            mutex::with_fail_stop(3, Tolerance::Masking)
        }),
        ("mutex4-failstop, masking", || {
            mutex::with_fail_stop(4, Tolerance::Masking)
        }),
        ("barrier2, state faults, nonmasking", || {
            barrier::with_general_state_faults(2)
        }),
        ("philosophers3, fault-free", || {
            mutex::dining_philosophers(3)
        }),
        ("philosophers4, fault-free", || {
            mutex::dining_philosophers(4)
        }),
        ("barrier2-failstop, impossible", || {
            barrier::with_fail_stop_impossible(2)
        }),
    ];
    for (name, make) in head_to_head {
        let (tab, tab_time) = best_of(E16_RUNS, make, Engine::Tableau);
        let (cegis, cegis_time) = best_of(E16_RUNS, make, Engine::Cegis);
        let (tab_outcome, tab_states, _) = outcome_summary(&tab);
        let (cegis_outcome, cegis_states, cegis_stats) = outcome_summary(&cegis);
        let outcome = if tab_outcome == cegis_outcome {
            tab_outcome.to_string()
        } else {
            format!("{tab_outcome} / {cegis_outcome} (DISAGREE)")
        };
        let profile = cegis_stats.map(|s| &s.cegis_profile);
        let states = match (tab_states, cegis_states) {
            (Some(t), Some(c)) => format!("{t} / {c}"),
            _ => "—".to_string(),
        };
        println!(
            "| {name} | {outcome} | {tab_time:.1?} | {cegis_time:.1?} | {} | {} | {states} | {:.2}\u{d7} |",
            profile.map_or("—".to_string(), |p| p.candidates.to_string()),
            profile
                .and_then(|p| p.solved_at_bound)
                .map_or("—".to_string(), |b| b.to_string()),
            tab_time.as_secs_f64() / cegis_time.as_secs_f64(),
        );
    }
    println!();
    println!("Where small solutions exist the bounded search wins: it examines a");
    println!("few candidate models where the tableau engine builds the whole");
    println!("tableau (~26k nodes for mutex4-failstop). On impossibilities the");
    println!("CEGIS engine's answer is certificate-backed: it detects the empty");
    println!("admissible universe or falls through to building the tableau");
    println!("certificate, so the tableau engine is the natural choice there and");
    println!("the CEGIS figure is the price of the proof, not a wrong answer.");
    println!("Every solved CEGIS row passes the same semantic verification and");
    println!("extraction pipeline as the tableau rows.");

    println!();
    println!("---");
    println!("\nAll structural assertions in this report are also enforced as");
    println!("regression tests under `tests/`; run `cargo test --workspace`.");
}
