//! Mechanical verification of synthesized models: the soundness and
//! fault-closure theorems of Section 7, re-checked on every produced
//! structure with the CTL model checker.

use crate::problem::{SynthesisProblem, Tolerance};
use crate::unravel::Unraveled;
use ftsyn_ctl::{Closure, FormulaId};
use ftsyn_kripke::{Checker, PropSet, Semantics, StateRole, TransKind};
use ftsyn_tableau::{valuation_of, CertMode, Tableau};
use std::collections::HashMap;
use std::fmt;

/// Category of a verification failure — which theorem or requirement
/// was violated. Consumers filter on this instead of grepping the
/// human-readable message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The initial state violates the temporal specification
    /// (Corollary 7.1(1)).
    Spec,
    /// A perturbed state violates its tolerance label
    /// (Corollary 7.1(2)).
    Tolerance,
    /// A state misses a fault transition for an enabled fault outcome
    /// (fault closure, Theorem 7.3.2).
    FaultClosure,
    /// A state violates a formula of its tableau label
    /// (Theorem 7.1.9).
    LabelSoundness,
    /// An expansion worker thread panicked; the scheduler contained the
    /// panic and the run aborted with partial diagnostics instead of
    /// taking the process down.
    WorkerPanic,
    /// The extracted program's explored structure failed verification
    /// and the bounded guard-refinement loop did not close the gap
    /// (Corollary 7.1's "execution of P generates M_F" could not be
    /// established).
    ExtractionGap,
}

impl FailureKind {
    /// Every kind, in reporting order.
    pub const ALL: [FailureKind; 6] = [
        FailureKind::Spec,
        FailureKind::Tolerance,
        FailureKind::FaultClosure,
        FailureKind::LabelSoundness,
        FailureKind::WorkerPanic,
        FailureKind::ExtractionGap,
    ];

    /// Stable machine-readable name (used by
    /// [`Verification::failure_summary`] and in the `experiments`
    /// failure table).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Spec => "spec",
            FailureKind::Tolerance => "tolerance",
            FailureKind::FaultClosure => "fault_closure",
            FailureKind::LabelSoundness => "label_soundness",
            FailureKind::WorkerPanic => "worker_panic",
            FailureKind::ExtractionGap => "extraction_gap",
        }
    }
}

/// Which model a failure was detected on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureStage {
    /// The final (minimized) model the program was extracted from.
    Final,
    /// The pre-minimization unraveled model — the structure the
    /// soundness theorems directly speak about.
    PreMinimization,
    /// No model at all: the failure was raised by the synthesis pipeline
    /// itself (e.g. a contained worker panic during tableau build).
    Pipeline,
}

/// One verification failure: a structured kind and stage plus the
/// human-readable description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The violated requirement.
    pub kind: FailureKind,
    /// The model the violation was found on.
    pub stage: FailureStage,
    /// Human-readable description.
    pub message: String,
}

impl Failure {
    /// A failure on the model currently under verification (the stage
    /// is re-tagged by [`Verification::merge_pre_minimization`] when the
    /// result is folded into a later verification).
    fn new(kind: FailureKind, message: String) -> Failure {
        Failure {
            kind,
            stage: FailureStage::Final,
            message,
        }
    }

    /// A failure raised by the synthesis pipeline itself rather than by
    /// checking a model (stage [`FailureStage::Pipeline`]).
    pub(crate) fn pipeline(kind: FailureKind, message: String) -> Failure {
        Failure {
            kind,
            stage: FailureStage::Pipeline,
            message,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stage {
            FailureStage::Final => write!(f, "{}", self.message),
            FailureStage::PreMinimization => {
                write!(f, "[pre-minimization] {}", self.message)
            }
            FailureStage::Pipeline => write!(f, "[pipeline] {}", self.message),
        }
    }
}

/// The satisfaction relation matching a synthesis mode: `⊨ₙ` for the
/// main method, plain `⊨` for Section 8.3's alternative method.
pub(crate) fn semantics_of(mode: CertMode) -> Semantics {
    match mode {
        CertMode::FaultFree => Semantics::FaultFree,
        CertMode::FaultProne => Semantics::IncludeFaults,
    }
}

/// The outcome of verifying a synthesized model.
#[derive(Clone, Debug, Default)]
pub struct Verification {
    /// `M_F, s0 ⊨ₙ init ∧ AG(global) ∧ AG(coupling)` (Corollary 7.1(1)).
    pub init_satisfies_spec: bool,
    /// `M_F, S_F ⊨ₙ Label_TOL(spec)` for every perturbed state, using
    /// the tolerance of the fault action that reached it
    /// (Corollary 7.1(2)).
    pub perturbed_satisfy_tolerance: bool,
    /// Every enabled fault action has a fault transition for each of its
    /// outcomes at every state (Theorem 7.3.2, strengthened per-outcome).
    pub fault_closed: bool,
    /// Every formula in every state's tableau label holds at that state
    /// under `⊨ₙ` (Theorem 7.1.9).
    pub labels_sound: bool,
    /// The extracted program regenerates a structure that passes the
    /// semantic checks under faults — Corollary 7.1's "execution of P
    /// generates M_F", established by the in-pipeline
    /// extraction-verification stage (false when the guard-refinement
    /// loop gave up with a [`FailureKind::ExtractionGap`] failure).
    pub extraction_ok: bool,
    /// Number of perturbed states found.
    pub perturbed_count: usize,
    /// Structured descriptions of any violations.
    pub failures: Vec<Failure>,
}

impl Verification {
    /// Whether all checks passed.
    pub fn ok(&self) -> bool {
        self.init_satisfies_spec
            && self.perturbed_satisfy_tolerance
            && self.fault_closed
            && self.labels_sound
            && self.extraction_ok
    }

    /// Folds a full pre-minimization verification into this (final,
    /// post-minimization) semantic verification.
    ///
    /// Label soundness (Theorem 7.1.9) is only checkable on the
    /// pre-minimization model, so its verdict carries over verbatim.
    /// *Every* pre-minimization failure — semantic ones included — is
    /// surfaced with its stage re-tagged, and the corresponding flags
    /// are conjoined: semantic minimization only preserves requirements
    /// that held before it, so a pre-minimization violation is a real
    /// defect even when the minimized model happens to pass.
    pub fn merge_pre_minimization(&mut self, pre: Verification) {
        self.init_satisfies_spec &= pre.init_satisfies_spec;
        self.perturbed_satisfy_tolerance &= pre.perturbed_satisfy_tolerance;
        self.fault_closed &= pre.fault_closed;
        self.extraction_ok &= pre.extraction_ok;
        self.labels_sound = pre.labels_sound;
        self.failures.extend(pre.failures.into_iter().map(|mut f| {
            f.stage = FailureStage::PreMinimization;
            f
        }));
    }

    /// Failure counts aggregated by kind, in [`FailureKind::ALL`] order
    /// (including kinds with zero failures, so consumers get a fixed
    /// schema).
    pub fn failures_by_kind(&self) -> [(FailureKind, usize); 6] {
        FailureKind::ALL.map(|k| (k, self.failures.iter().filter(|f| f.kind == k).count()))
    }

    /// Compact `kind:count` summary of non-empty kinds, e.g.
    /// `"spec:1 fault_closure:3"`; empty string when there are no
    /// failures.
    pub fn failure_summary(&self) -> String {
        self.failures_by_kind()
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{}:{n}", k.name()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Runs the semantic checks (spec at init, tolerance at perturbed
/// states, fault closure) on any model — the three requirements of the
/// synthesis problem statement (Section 3). `labels_sound` is left
/// `true`; the full [`verify`] additionally checks it.
pub fn verify_semantic(
    problem: &mut SynthesisProblem,
    model: &ftsyn_kripke::FtKripke,
) -> Verification {
    verify_semantic_impl(problem, model, true)
}

/// Early-exit form of [`verify_semantic`] for callers that only need
/// the verdict: evaluates the same three requirements with the same
/// model checker and returns at the first violation, skipping
/// counterexample extraction and failure-message construction. The
/// boolean equals `verify_semantic(problem, model).ok()` — the checks
/// are one shared implementation — but a rejection costs at most one
/// failed check instead of a full three-pass sweep, which matters to
/// the semantic minimizer's inner loop (one verification per candidate
/// merge).
pub fn verify_semantic_ok(problem: &mut SynthesisProblem, model: &ftsyn_kripke::FtKripke) -> bool {
    verify_semantic_impl(problem, model, false).ok()
}

/// Shared body of [`verify_semantic`] / [`verify_semantic_ok`]. With
/// `collect` the full diagnostic sweep runs (every violation gets a
/// [`Failure`] with a rendered message); without it the function
/// returns at the first violated requirement with only the verdict
/// flags set. Both modes evaluate the identical predicates in the
/// identical order, so the [`Verification::ok`] verdict never differs.
fn verify_semantic_impl(
    problem: &mut SynthesisProblem,
    model: &ftsyn_kripke::FtKripke,
    collect: bool,
) -> Verification {
    let mut v = Verification {
        init_satisfies_spec: true,
        perturbed_satisfy_tolerance: true,
        fault_closed: true,
        labels_sound: true,
        extraction_ok: true,
        ..Verification::default()
    };
    let spec_formula = problem.spec.formula(&mut problem.arena);
    let mut ck = Checker::new(model, semantics_of(problem.mode));

    // (1) Initial state satisfies the temporal specification. On
    // failure, pin down the offending conjunct and, for invariances,
    // attach a counterexample path.
    let init = model.init_states()[0];
    if !ck.holds(&problem.arena, spec_formula, init) {
        v.init_satisfies_spec = false;
        if !collect {
            return v;
        }
        let conjuncts = problem.arena.conjuncts(spec_formula);
        let mut detailed = false;
        for conj in conjuncts {
            if ck.holds(&problem.arena, conj, init) {
                continue;
            }
            detailed = true;
            let mut msg = format!(
                "initial state violates `{}`",
                ftsyn_ctl::print::render(&problem.arena, &problem.props, conj)
            );
            if let ftsyn_ctl::Formula::Aw(g, h) = problem.arena.get(conj) {
                if problem.arena.get(g) == ftsyn_ctl::Formula::False {
                    if let Some(cex) = ck.counterexample_ag(&problem.arena, h, init) {
                        msg.push_str(&format!(
                            "; counterexample: {}",
                            cex.display(model, &problem.props)
                        ));
                    }
                }
            }
            v.failures.push(Failure::new(FailureKind::Spec, msg));
        }
        if !detailed {
            v.failures.push(Failure::new(
                FailureKind::Spec,
                "initial state violates the temporal specification".into(),
            ));
        }
    }

    // (2) Perturbed states satisfy their tolerance labels. Each distinct
    // tolerance's label formulas are interned once, on first need.
    let roles = model.classify();
    let mut labels: Vec<(Tolerance, Vec<FormulaId>)> = Vec::new();
    for s in model.state_ids() {
        if roles[s.index()] != StateRole::Perturbed {
            continue;
        }
        v.perturbed_count += 1;
        // Tolerances of the fault actions that can reach s.
        let mut tols = Vec::new();
        for e in model.pred(s) {
            if let TransKind::Fault(a) = e.kind {
                let t = problem.tolerance.of(a);
                if !tols.contains(&t) {
                    tols.push(t);
                }
            }
        }
        for tol in tols {
            let at = match labels.iter().position(|(t, _)| *t == tol) {
                Some(at) => at,
                None => {
                    labels.push((tol, problem.label_tol_formulas(tol)));
                    labels.len() - 1
                }
            };
            for &f in &labels[at].1 {
                if !ck.holds(&problem.arena, f, s) {
                    v.perturbed_satisfy_tolerance = false;
                    if !collect {
                        return v;
                    }
                    v.failures.push(Failure::new(
                        FailureKind::Tolerance,
                        format!(
                            "perturbed state {} violates its {tol:?} tolerance label",
                            model.display_state(s, &problem.props)
                        ),
                    ));
                }
            }
        }
    }

    // (3) Fault closure: every enabled action is represented, outcome by
    // outcome, at every state. The enabled actions' outcomes depend only
    // on the valuation, so they are computed once per valuation id some
    // state carries and resolved to valuation ids themselves; an outcome
    // no state carries is covered by no edge.
    let table = model.valuations();
    let mut used = vec![false; table.len()];
    for s in model.state_ids() {
        used[model.val_id(s) as usize] = true;
    }
    let ids: HashMap<&PropSet, u32> = table
        .iter()
        .zip(0..)
        .filter(|&(_, v)| used[v as usize])
        .collect();
    let outcomes: Vec<Vec<(usize, Option<u32>)>> = table
        .iter()
        .zip(&used)
        .map(|(valuation, &used)| {
            if !used {
                return Vec::new();
            }
            problem
                .faults
                .iter()
                .enumerate()
                .filter(|(_, action)| action.enabled(valuation))
                .flat_map(|(ai, action)| {
                    action
                        .outcomes(valuation, problem.props.len())
                        .into_iter()
                        .map(move |phi| (ai, phi))
                })
                .map(|(ai, phi)| (ai, ids.get(&phi).copied()))
                .collect()
        })
        .collect();
    for s in model.state_ids() {
        let enabled = &outcomes[model.val_id(s) as usize];
        for &(ai, phi) in enabled.iter() {
            let covered = phi.is_some_and(|phi| {
                model
                    .succ(s)
                    .iter()
                    .any(|e| e.kind == TransKind::Fault(ai) && model.val_id(e.to) == phi)
            });
            if !covered {
                v.fault_closed = false;
                if !collect {
                    return v;
                }
                v.failures.push(Failure::new(
                    FailureKind::FaultClosure,
                    format!(
                        "state {} misses a fault transition for `{}`",
                        model.display_state(s, &problem.props),
                        problem.faults[ai].name()
                    ),
                ));
            }
        }
    }

    v
}

/// Runs all checks on an unraveled model, including label soundness
/// (Theorem 7.1.9: every formula in a state's tableau label holds at
/// that state under `⊨ₙ`).
pub fn verify(
    problem: &mut SynthesisProblem,
    closure: &Closure,
    tableau: &Tableau,
    unr: &Unraveled,
) -> Verification {
    let mut v = verify_semantic(problem, &unr.model);
    let model = &unr.model;
    let mut ck = Checker::new(model, semantics_of(problem.mode));
    for s in model.state_ids() {
        let label = unr.state_label(tableau, s);
        // Sanity: the state's valuation matches its label's literals.
        debug_assert_eq!(
            &valuation_of(closure, &problem.props, label),
            model.props(s)
        );
        for idx in label.iter() {
            let f = closure.entry(idx).id;
            if !ck.holds(&problem.arena, f, s) {
                v.labels_sound = false;
                v.failures.push(Failure::new(
                    FailureKind::LabelSoundness,
                    format!(
                        "state {} violates label formula {}",
                        model.display_state(s, &problem.props),
                        ftsyn_ctl::print::render(&problem.arena, &problem.props, f)
                    ),
                ));
            }
        }
    }

    v
}

#[cfg(test)]
mod aggregation_tests {
    use super::*;

    fn with_failures(kinds: &[FailureKind]) -> Verification {
        let mut v = Verification::default();
        for &k in kinds {
            v.failures.push(Failure::new(k, format!("injected {k:?}")));
        }
        v
    }

    fn count_of(v: &Verification, kind: FailureKind) -> usize {
        v.failures_by_kind()
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .unwrap()
    }

    #[test]
    fn aggregates_spec_failures() {
        let v = with_failures(&[FailureKind::Spec, FailureKind::Spec]);
        assert_eq!(count_of(&v, FailureKind::Spec), 2);
        assert_eq!(v.failure_summary(), "spec:2");
    }

    #[test]
    fn aggregates_tolerance_failures() {
        let v = with_failures(&[FailureKind::Tolerance]);
        assert_eq!(count_of(&v, FailureKind::Tolerance), 1);
        assert_eq!(v.failure_summary(), "tolerance:1");
    }

    #[test]
    fn aggregates_fault_closure_failures() {
        let v = with_failures(&[FailureKind::FaultClosure, FailureKind::Spec]);
        assert_eq!(count_of(&v, FailureKind::FaultClosure), 1);
        // Summary keeps FailureKind::ALL order regardless of insertion.
        assert_eq!(v.failure_summary(), "spec:1 fault_closure:1");
    }

    #[test]
    fn aggregates_label_soundness_failures() {
        let v = with_failures(&[FailureKind::LabelSoundness; 3]);
        assert_eq!(count_of(&v, FailureKind::LabelSoundness), 3);
        assert_eq!(v.failure_summary(), "label_soundness:3");
    }

    #[test]
    fn aggregates_worker_panic_failures() {
        let mut v = Verification::default();
        v.failures.push(Failure::pipeline(
            FailureKind::WorkerPanic,
            "injected".into(),
        ));
        assert_eq!(count_of(&v, FailureKind::WorkerPanic), 1);
        assert_eq!(v.failure_summary(), "worker_panic:1");
        assert_eq!(v.failures[0].to_string(), "[pipeline] injected");
    }

    #[test]
    fn aggregates_extraction_gap_failures() {
        let mut v = Verification::default();
        v.failures.push(Failure::pipeline(
            FailureKind::ExtractionGap,
            "injected".into(),
        ));
        assert_eq!(count_of(&v, FailureKind::ExtractionGap), 1);
        assert_eq!(v.failure_summary(), "extraction_gap:1");
        assert_eq!(v.failures[0].to_string(), "[pipeline] injected");
    }

    #[test]
    fn clean_verification_has_empty_summary() {
        let v = Verification::default();
        assert!(v.failure_summary().is_empty());
        assert!(v.failures_by_kind().iter().all(|(_, n)| *n == 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::mutex;
    use crate::unravel::unravel_mode;
    use ftsyn_guarded::{BoolExpr, FaultAction, PropAssign};
    use ftsyn_tableau::{apply_deletion_rules_profiled, build_with_threads};

    /// Regression test for the string-grep failure filter this module's
    /// structured kinds replaced: a *non-label* failure pushed through
    /// the full [`verify`] must surface as a [`FailureKind::FaultClosure`]
    /// failure, distinguishable from label soundness without grepping
    /// the message.
    #[test]
    fn uncovered_fault_surfaces_as_structured_fault_closure() {
        let mut problem = mutex::fault_free(2);

        // Replicate the pipeline up to the pre-minimization model verify()
        // is specified on: closure → tableau → deletion → unraveling.
        let (closure, fault_spec, root_label) = problem.tableau_inputs();
        let mut tableau =
            build_with_threads(&closure, &problem.props, root_label, &fault_spec, 1).0;
        apply_deletion_rules_profiled(&mut tableau, &closure, problem.mode);
        assert!(tableau.alive(tableau.root()), "mutex is synthesizable");
        let c0 = tableau
            .alive_succ(tableau.root(), |_| true)
            .map(|(_, c)| c)
            .next()
            .expect("alive root has an alive AND child");
        let unr = unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode);

        let baseline = verify(&mut problem, &closure, &tableau, &unr);
        assert!(
            baseline.ok(),
            "baseline must verify: {:?}",
            baseline.failures
        );

        // Inject a fault action the synthesized model knows nothing
        // about: enabled everywhere, never represented by a transition.
        let t1 = problem.props.id("T1").unwrap();
        problem.faults.push(
            FaultAction::new("ghost", BoolExpr::Const(true), vec![(t1, PropAssign::True)])
                .expect("well-formed action"),
        );
        let v = verify(&mut problem, &closure, &tableau, &unr);
        assert!(!v.fault_closed);
        assert!(!v.ok());
        // Labels are untouched by the extra action: soundness still holds.
        assert!(v.labels_sound);
        let kinds: Vec<FailureKind> = v.failures.iter().map(|f| f.kind).collect();
        assert!(
            kinds.iter().all(|&k| k == FailureKind::FaultClosure),
            "only fault-closure failures expected, got {kinds:?}"
        );
        assert!(!kinds.is_empty(), "the violation must be reported");
        assert!(
            v.failures.iter().all(|f| f.stage == FailureStage::Final),
            "verify() reports on the model it was given"
        );

        // The merge re-tags the stage and conjoins the semantic flags, so
        // a pre-minimization fault-closure violation survives into a
        // final verification that passed on its own.
        let mut final_v = Verification {
            init_satisfies_spec: true,
            perturbed_satisfy_tolerance: true,
            fault_closed: true,
            labels_sound: true,
            extraction_ok: true,
            ..Verification::default()
        };
        final_v.merge_pre_minimization(v);
        assert!(!final_v.fault_closed);
        assert!(!final_v.ok());
        assert!(final_v.failures.iter().all(
            |f| f.kind == FailureKind::FaultClosure && f.stage == FailureStage::PreMinimization
        ));
        let shown = format!("{}", final_v.failures[0]);
        assert!(shown.starts_with("[pre-minimization] "), "{shown}");
    }

    /// The early-exit verdict must agree with the full diagnostic sweep
    /// on both accepting and rejecting models — they share one
    /// implementation, and this pins that they stay shared.
    #[test]
    fn fast_verdict_matches_full_verification() {
        let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let solved = crate::synthesize(&mut problem).unwrap_solved();

        // Accepting: the synthesized model passes both forms.
        assert!(verify_semantic(&mut problem, &solved.model).ok());
        assert!(verify_semantic_ok(&mut problem, &solved.model));

        // Rejecting (fault closure): a ghost fault action breaks both.
        let t1 = problem.props.id("T1").unwrap();
        problem.faults.push(
            FaultAction::new("ghost", BoolExpr::Const(true), vec![(t1, PropAssign::True)])
                .expect("well-formed action"),
        );
        assert!(!verify_semantic(&mut problem, &solved.model).ok());
        assert!(!verify_semantic_ok(&mut problem, &solved.model));
        problem.faults.pop();

        // Rejecting (spec): drop the initial state's only successor
        // structure by merging every state into the initial one.
        let mut broken = ftsyn_kripke::KripkeBuilder::new();
        let s0 = broken.push_state(solved.model.state(solved.model.init_states()[0]).clone());
        broken.add_init(s0);
        broken.add_edge(s0, TransKind::Proc(0), s0);
        let broken = broken.freeze();
        assert!(!verify_semantic(&mut problem, &broken).ok());
        assert!(!verify_semantic_ok(&mut problem, &broken));
    }
}
