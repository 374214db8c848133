//! Mechanical verification of synthesized models: the soundness and
//! fault-closure theorems of Section 7, re-checked on every produced
//! structure with the CTL model checker.

use crate::problem::SynthesisProblem;
use crate::requirements::Requirements;
use crate::unravel::Unraveled;
use ftsyn_ctl::Closure;
use ftsyn_kripke::{Checker, FtKripke};
use ftsyn_tableau::{valuation_of, Tableau};
use std::fmt;

/// Category of a verification failure — which theorem or requirement
/// was violated. Consumers filter on this instead of grepping the
/// human-readable message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// An initial state violates the temporal specification
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

/// The outcome of verifying a synthesized model.
#[derive(Clone, Debug, Default)]
pub struct Verification {
    /// `M_F, S0 ⊨ₙ init ∧ AG(global) ∧ AG(coupling)`: the spec holds at
    /// every initial state (Corollary 7.1(1)).
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

/// Runs the semantic checks (spec at every initial state, tolerance at
/// perturbed states, fault closure) on any model — the three
/// requirements of the synthesis problem statement (Section 3).
/// `labels_sound` is left `true`; the full [`verify`] additionally
/// checks it.
pub fn verify_semantic(problem: &mut SynthesisProblem, model: &FtKripke) -> Verification {
    check(&Requirements::new(problem), problem, model, true)
}

/// Early-exit form of [`verify_semantic`] for callers that only need
/// the verdict: evaluates the same three requirements with the same
/// model checker and returns at the first violation, skipping
/// counterexample extraction and failure-message construction. The
/// boolean equals `verify_semantic(problem, model).ok()` — the checks
/// are one shared implementation — but a rejection costs at most one
/// failed check instead of a full three-pass sweep.
pub fn verify_semantic_ok(problem: &mut SynthesisProblem, model: &FtKripke) -> bool {
    check(&Requirements::new(problem), problem, model, false).ok()
}

/// Shared body of [`verify_semantic`] / [`verify_semantic_ok`] for
/// callers that hold the run's [`Requirements`]. With `collect` the
/// full diagnostic sweep runs (every violation gets a [`Failure`] with
/// a rendered message); without it the function returns at the first
/// violated requirement with only the verdict flags set. Both modes
/// evaluate the identical predicates in the identical order, so the
/// [`Verification::ok`] verdict never differs.
pub(crate) fn check(
    reqs: &Requirements,
    problem: &SynthesisProblem,
    model: &FtKripke,
    collect: bool,
) -> Verification {
    let mut ck = Checker::new(model, reqs.semantics);
    check_on(&mut ck, reqs, problem, collect)
}

/// [`check`] with the model checker `ck` on the model, left holding
/// what the checks evaluated.
fn check_on(
    ck: &mut Checker<'_>,
    reqs: &Requirements,
    problem: &SynthesisProblem,
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
    let model = ck.model();
    let arena = &problem.arena;

    // (1) Every initial state satisfies the temporal specification. On
    // failure, pin down the offending conjunct and, for invariances,
    // attach a counterexample path.
    for &init in model.init_states() {
        if ck.holds(arena, reqs.spec, init) {
            continue;
        }
        v.init_satisfies_spec = false;
        if !collect {
            return v;
        }
        let mut detailed = false;
        for conj in arena.conjuncts(reqs.spec) {
            if ck.holds(arena, conj, init) {
                continue;
            }
            detailed = true;
            let mut msg = format!(
                "initial state violates `{}`",
                ftsyn_ctl::print::render(arena, &problem.props, conj)
            );
            if let ftsyn_ctl::Formula::Aw(g, h) = arena.get(conj) {
                if arena.get(g) == ftsyn_ctl::Formula::False {
                    if let Some(cex) = ck.counterexample_ag(arena, h, init) {
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

    // (2) Perturbed states satisfy the labels of the fault actions
    // entering them.
    for (s, labels) in reqs.sites(model, &model.classify()) {
        v.perturbed_count += 1;
        for l in labels {
            let (tol, conjuncts) = &reqs.labels[l];
            for &f in conjuncts {
                if !ck.holds(arena, f, s) {
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
    // outcome, at every state.
    for (s, a, _) in reqs.uncovered(model) {
        v.fault_closed = false;
        if !collect {
            return v;
        }
        v.failures.push(Failure::new(
            FailureKind::FaultClosure,
            format!(
                "state {} misses a fault transition for `{}`",
                model.display_state(s, &problem.props),
                problem.faults[a].name()
            ),
        ));
    }

    v
}

/// Runs all checks on an unraveled model, including label soundness
/// (Theorem 7.1.9: every formula in a state's tableau label holds at
/// that state under `⊨ₙ`). One model checker serves both.
pub fn verify(
    problem: &mut SynthesisProblem,
    closure: &Closure,
    tableau: &Tableau,
    unr: &Unraveled,
) -> Verification {
    let reqs = Requirements::new(problem);
    let model = &unr.model;
    let mut ck = Checker::new(model, reqs.semantics);
    let mut v = check_on(&mut ck, &reqs, problem, true);
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
    use crate::problem::{Tolerance, ToleranceAssignment};
    use crate::problems::mutex;
    use crate::unravel::unravel_mode;
    use ftsyn_ctl::{parse::parse, FormulaArena, Owner, PropTable, Spec};
    use ftsyn_guarded::{BoolExpr, FaultAction, PropAssign};
    use ftsyn_kripke::{FtKripke, KripkeBuilder, PropSet, State, TransKind};
    use ftsyn_tableau::{apply_deletion_rules_profiled, build_with_threads};

    /// A one-process problem over `a`, `b` with spec `a ∧ AG a`, and two
    /// fault actions of different tolerances: `set_b` (`a ∧ ¬b → b :=
    /// true`, masking) and `drop_a` (`true → a := false`, nonmasking).
    fn two_tolerance_problem() -> SynthesisProblem {
        let mut props = PropTable::new();
        let a = props.add("a", Owner::Process(0)).unwrap();
        let b = props.add("b", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let init = parse(&mut arena, &mut props, "a", false).unwrap();
        let global = parse(&mut arena, &mut props, "a", false).unwrap();
        let spec = Spec::new(&mut arena, init, global);
        let set_b = FaultAction::new(
            "set_b",
            BoolExpr::And(vec![
                BoolExpr::Prop(a),
                BoolExpr::Not(Box::new(BoolExpr::Prop(b))),
            ]),
            vec![(b, PropAssign::True)],
        )
        .unwrap();
        let drop_a = FaultAction::new(
            "drop_a",
            BoolExpr::Const(true),
            vec![(a, PropAssign::False)],
        )
        .unwrap();
        let mut problem =
            SynthesisProblem::new(arena, props, spec, vec![set_b, drop_a], Tolerance::Masking);
        problem.tolerance =
            ToleranceAssignment::PerFault(vec![Tolerance::Masking, Tolerance::Nonmasking]);
        problem
    }

    /// States `{a}` (initial), `{a, b}`, `{}`, `{b}`. The spec fails at
    /// the initial state (`{a} → {b}`); `{a, b}` is perturbed by `set_b`
    /// and reaches `{b}` (masking label fails); `{}` is perturbed by
    /// `drop_a` and stays put (nonmasking label fails); `drop_a` has no
    /// edge at `{a, b}` or at `{b}` (fault closure fails twice).
    fn failing_model(problem: &SynthesisProblem) -> FtKripke {
        let (a, b) = (
            problem.props.id("a").unwrap(),
            problem.props.id("b").unwrap(),
        );
        let n = problem.props.len();
        let mut k = KripkeBuilder::new();
        let mut state = |props: &[ftsyn_ctl::PropId]| {
            k.push_state(State {
                props: PropSet::from_iter_with_capacity(n, props.iter().copied()),
                shared: Vec::new(),
            })
        };
        let s_a = state(&[a]);
        let s_ab = state(&[a, b]);
        let s_none = state(&[]);
        let s_b = state(&[b]);
        k.add_init(s_a);
        for (from, kind, to) in [
            (s_a, TransKind::Proc(0), s_a),
            (s_a, TransKind::Proc(0), s_b),
            (s_a, TransKind::Fault(0), s_ab),
            (s_a, TransKind::Fault(1), s_none),
            (s_ab, TransKind::Proc(0), s_b),
            (s_none, TransKind::Proc(0), s_none),
            (s_none, TransKind::Fault(1), s_none),
            (s_b, TransKind::Proc(0), s_b),
        ] {
            k.add_edge(from, kind, to);
        }
        k.freeze()
    }

    /// Every failure `verify_semantic` reports on [`failing_model`],
    /// with its kind, stage and message, in order: spec, then tolerance
    /// by perturbed state, then fault closure by state.
    #[test]
    fn semantic_failure_list_is_pinned() {
        let mut problem = two_tolerance_problem();
        let model = failing_model(&problem);
        let v = verify_semantic(&mut problem, &model);
        let got: Vec<(FailureKind, FailureStage, &str)> = v
            .failures
            .iter()
            .map(|f| (f.kind, f.stage, f.message.as_str()))
            .collect();
        use FailureKind::{FaultClosure, Spec as SpecKind, Tolerance as Tol};
        let fin = FailureStage::Final;
        assert_eq!(
            got,
            [
                (
                    SpecKind,
                    fin,
                    "initial state violates `AG a`; counterexample: [a] -> [b]"
                ),
                (
                    Tol,
                    fin,
                    "perturbed state [a b] violates its Masking tolerance label"
                ),
                (
                    Tol,
                    fin,
                    "perturbed state [] violates its Nonmasking tolerance label"
                ),
                (
                    FaultClosure,
                    fin,
                    "state [a b] misses a fault transition for `drop_a`"
                ),
                (
                    FaultClosure,
                    fin,
                    "state [b] misses a fault transition for `drop_a`"
                ),
            ]
        );
        assert_eq!(v.perturbed_count, 2);
        assert!(!v.ok());
        assert!(!verify_semantic_ok(&mut problem, &model));
    }

    /// The spec must hold at every initial state: the verdict may not
    /// depend on the order the initial states were added in.
    #[test]
    fn spec_is_checked_at_every_initial_state() {
        let mut problem = mutex::fault_free(2);
        let solved = crate::synthesize(&mut problem).unwrap_solved();
        let m = &solved.model;
        let init = m.init_states()[0];
        let other = m
            .state_ids()
            .find(|&s| m.props(s) != m.props(init))
            .expect("a state of another valuation");
        for order in [[init, other], [other, init]] {
            let mut k = KripkeBuilder::new();
            for s in m.state_ids() {
                k.push_state(m.state(s).clone());
            }
            for s in m.state_ids() {
                for e in m.succ(s) {
                    k.add_edge(s, e.kind, e.to);
                }
            }
            for s in order {
                k.add_init(s);
            }
            let model = k.freeze();
            assert_eq!(model.init_states(), &order[..]);
            let v = verify_semantic(&mut problem, &model);
            assert!(!v.init_satisfies_spec, "initial states {order:?}");
            assert!(v.failures.iter().any(|f| f.kind == FailureKind::Spec));
            assert!(!verify_semantic_ok(&mut problem, &model));
        }
    }

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
