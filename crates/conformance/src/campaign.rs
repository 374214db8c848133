//! Runtime fault-injection conformance: a seeded simulation campaign
//! asserting the *runtime counterpart* of a synthesized program's
//! tolerance.
//!
//! The pipeline's verifier and the `ftsyn-kripke` model checker both
//! judge the program's generated structure; this module instead *runs*
//! the program — [`ftsyn::guarded::sim`] executes it under random
//! interleaving with randomly injected faults — and checks the traces:
//!
//! - **Containment** (every tolerance): each simulated state must be a
//!   state of the structure [`explore`] generated and the verifier
//!   approved. The simulator and the exploration interpreter share
//!   fault-outcome semantics, so a trace escaping the structure means
//!   one of them is wrong.
//! - **Safety `always`** (masking / fail-safe): `global–safety–spec`
//!   holds at *every* point of *every* trace, faults included.
//! - **Convergence after faults** (masking / nonmasking): once fault
//!   injection stops, the run re-enters and stays in the region where
//!   `AG(global–spec)` holds — the trace-level reading of the
//!   `AF AG(global)` recovery obligation, probed exactly like
//!   [`Trace::eventually_always_after_faults`] with a settle window of
//!   one structure diameter.

use ftsyn::guarded::interp::explore;
use ftsyn::guarded::sim::{campaign, CampaignConfig, SimConfig, Trace};
use ftsyn::guarded::Program;
use ftsyn::kripke::{Checker, Semantics, State, StateId};
use ftsyn::{CertMode, SynthesisProblem, Tolerance};
use std::collections::HashMap;

/// Tallies from one campaign (all assertions already passed).
#[derive(Clone, Copy, Debug)]
pub struct CampaignReport {
    /// Simulations run.
    pub runs: usize,
    /// Runs in which at least one fault actually fired.
    pub faulted_runs: usize,
    /// Whether safety-`always` was asserted (masking / fail-safe only).
    pub safety_checked: bool,
    /// Whether post-fault convergence was asserted (masking /
    /// nonmasking, and only when the problem has faults).
    pub convergence_checked: bool,
    /// Runs whose post-fault suffix was long enough to probe
    /// convergence (each probe must have succeeded).
    pub convergence_probes: usize,
}

/// Runs a seeded fault-injection campaign of `program` against
/// `problem` and asserts the runtime counterpart of its tolerance.
///
/// Returns a [`CampaignReport`] so the caller can additionally require
/// campaign *strength* (faults actually fired, convergence actually
/// probed) where the problem is known to warrant it — randomly
/// generated problems may have never-enabled faults or deadlocking
/// specs, so those tallies are reported rather than asserted here.
///
/// # Panics
///
/// Panics — naming the case and the per-run seed for replay — when a
/// trace escapes the explored structure, violates safety, or fails to
/// converge after its last fault.
pub fn assert_campaign(
    name: &str,
    problem: &mut SynthesisProblem,
    program: &Program,
    cfg: &CampaignConfig,
) -> CampaignReport {
    let ex = explore(program, &problem.faults, &problem.props)
        .unwrap_or_else(|e| panic!("{name}: synthesized program not executable: {e}"));

    // Settle window for the convergence probe: after the last fault,
    // any path avoiding the AG(global) region for more than |S| steps
    // would have to close a cycle outside it, contradicting AF AG.
    let settle = ex.kripke.len();
    let mut cfg = cfg.clone();
    cfg.steps = cfg.steps.max(2 * settle + 100);

    // Judge each explored state once; traces are then checked by state
    // lookup. (The judgments need the full state — shared variables
    // included — which is why the per-point checks below key on
    // [`State`] rather than using the valuation-only closures of
    // [`Trace::always`].)
    let safety = problem.spec.global_safety(&mut problem.arena);
    let ag_global = problem.spec.ag_global(&mut problem.arena);
    let semantics = match problem.mode {
        CertMode::FaultFree => Semantics::FaultFree,
        CertMode::FaultProne => Semantics::IncludeFaults,
    };
    let mut ck = Checker::new(&ex.kripke, semantics);
    let safe = ck.eval(&problem.arena, safety).clone();
    let good = ck.eval(&problem.arena, ag_global).clone();

    let tolerances = problem.tolerance.distinct();
    let safety_checked = tolerances
        .iter()
        .all(|t| matches!(t, Tolerance::Masking | Tolerance::FailSafe));
    let convergence_checked = !problem.faults.is_empty()
        && tolerances
            .iter()
            .all(|t| matches!(t, Tolerance::Masking | Tolerance::Nonmasking));

    let results = campaign(program, &problem.faults, &problem.props, &cfg);
    let mut report = CampaignReport {
        runs: results.len(),
        faulted_runs: 0,
        safety_checked,
        convergence_checked,
        convergence_probes: 0,
    };

    // Every explored state by content, for the trace lookups.
    let mut index: HashMap<&State, StateId> = HashMap::new();
    for s in ex.kripke.state_ids() {
        index.entry(ex.kripke.state(s)).or_insert(s);
    }
    for (sc, trace) in &results {
        let ids = resolve_trace(name, &index, sc, trace);
        if trace.fault_count() > 0 {
            report.faulted_runs += 1;
        }
        if safety_checked {
            for (i, id) in ids.iter().enumerate() {
                assert!(
                    safe.contains(*id),
                    "{name} (seed {:#x}): safety violated at trace point {i} \
                     (state {})",
                    sc.seed,
                    ex.kripke.display_state(*id, &problem.props)
                );
            }
        }
        if convergence_checked {
            // The id-level counterpart of
            // `trace.eventually_always_after_faults(settle, ..)`.
            let start = trace.last_fault.map_or(0, |i| i + 1) + settle;
            if start < ids.len() {
                report.convergence_probes += 1;
                for (i, id) in ids.iter().enumerate().skip(start) {
                    assert!(
                        good.contains(*id),
                        "{name} (seed {:#x}): no convergence — AG(global) \
                         still false at point {i}, {} steps after the last \
                         fault (state {})",
                        sc.seed,
                        i - trace.last_fault.map_or(0, |f| f + 1),
                        ex.kripke.display_state(*id, &problem.props)
                    );
                }
            }
        }
    }

    report
}

/// Maps every trace point to its state in the explored structure,
/// panicking (with the run's seed) if the simulation ever visited a
/// state the exploration did not.
fn resolve_trace(
    name: &str,
    index: &HashMap<&State, StateId>,
    sc: &SimConfig,
    trace: &Trace,
) -> Vec<StateId> {
    trace
        .valuations
        .iter()
        .zip(&trace.shared)
        .enumerate()
        .map(|(i, (props, shared))| {
            let state = State {
                props: props.clone(),
                shared: shared.clone(),
            };
            index.get(&state).copied().unwrap_or_else(|| {
                panic!(
                    "{name} (seed {:#x}): trace point {i} left the verified \
                     structure: no explored state matches {props:?} {shared:?}",
                    sc.seed
                )
            })
        })
        .collect()
}
