//! What a model must satisfy: the three requirements of the synthesis
//! problem statement (Section 3), stated once for the verifier, the
//! semantic minimizer, step 5's guard refinement and step 0's closure
//! roots.
//!
//! 1. The temporal specification holds at every initial state
//!    (Corollary 7.1(1)).
//! 2. Each perturbed state satisfies `Label_TOL` for the tolerance of
//!    every fault action entering it (Definition 2.1, Section 8.2).
//! 3. Fault closure: every enabled fault action has a fault transition
//!    for each of its outcomes at every state (Theorem 7.3.2,
//!    strengthened per outcome).

use crate::problem::{SynthesisProblem, Tolerance};
use ftsyn_ctl::{Closure, FormulaId, LabelSet};
use ftsyn_guarded::FaultAction;
use ftsyn_kripke::{FtKripke, PropSet, Semantics, StateId, StateRole, TransKind};
use ftsyn_tableau::CertMode;
use std::collections::HashMap;

/// The requirements of one problem, with every formula interned up
/// front (spec first, then each tolerance's label in
/// [`ToleranceAssignment::distinct`](crate::ToleranceAssignment::distinct)
/// order, the order of [`SynthesisProblem::closure_roots`]), so that
/// reading them leaves the formula arena untouched.
pub(crate) struct Requirements {
    /// The satisfaction relation of the problem's mode: `⊨ₙ` for the
    /// main method, plain `⊨` for Section 8.3's alternative method.
    pub(crate) semantics: Semantics,
    /// `init ∧ AG(global) ∧ AG(coupling)`.
    pub(crate) spec: FormulaId,
    /// Each distinct tolerance with the conjuncts of its `Label_TOL`.
    pub(crate) labels: Vec<(Tolerance, Vec<FormulaId>)>,
    /// Fault action index → index into `labels`.
    pub(crate) label_of_action: Vec<usize>,
    faults: Vec<FaultAction>,
    num_props: usize,
}

impl Requirements {
    pub(crate) fn new(problem: &mut SynthesisProblem) -> Requirements {
        let spec = problem.spec.formula(&mut problem.arena);
        let distinct = problem.tolerance.distinct();
        let labels = distinct
            .iter()
            .map(|&tol| (tol, problem.label_tol_formulas(tol)))
            .collect();
        let label_of_action = (0..problem.faults.len())
            .map(|a| {
                let tol = problem.tolerance.of(a);
                distinct
                    .iter()
                    .position(|&d| d == tol)
                    .expect("distinct() covers every action")
            })
            .collect();
        Requirements {
            semantics: match problem.mode {
                CertMode::FaultFree => Semantics::FaultFree,
                CertMode::FaultProne => Semantics::IncludeFaults,
            },
            spec,
            labels,
            label_of_action,
            faults: problem.faults.clone(),
            num_props: problem.props.len(),
        }
    }

    /// The spec, then every label's conjuncts: the formulae the closure
    /// must contain.
    pub(crate) fn roots(&self) -> Vec<FormulaId> {
        let mut roots = vec![self.spec];
        for (_, conjuncts) in &self.labels {
            roots.extend(conjuncts);
        }
        roots
    }

    /// Each fault action's label as a closure label set.
    ///
    /// # Panics
    ///
    /// Panics if a label conjunct is missing from `closure`.
    pub(crate) fn label_sets(&self, closure: &Closure) -> Vec<LabelSet> {
        self.label_of_action
            .iter()
            .map(|&l| {
                let mut set = closure.empty_label();
                for &f in &self.labels[l].1 {
                    let i = closure.index_of(f).expect("labels are closure roots");
                    set.insert(i);
                }
                set
            })
            .collect()
    }

    /// Where requirement 2 applies: each perturbed state (by `roles`,
    /// `model`'s classification), with the distinct label indices of
    /// the fault actions entering it, in the order
    /// [`FtKripke::entering_fault_actions`] lists the actions. Sites are
    /// produced one at a time, so a large model's list is never held.
    pub(crate) fn sites<'a>(
        &'a self,
        model: &'a FtKripke,
        roles: &'a [StateRole],
    ) -> impl Iterator<Item = (StateId, Vec<usize>)> + 'a {
        let entering = model.entering_fault_actions();
        let perturbed = model.state_ids();
        let perturbed = perturbed.filter(|s| roles[s.index()] == StateRole::Perturbed);
        perturbed.map(move |s| {
            let mut labels: Vec<usize> = Vec::new();
            for &a in entering.row(s) {
                let l = self.label_of_action[a as usize];
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
            (s, labels)
        })
    }

    /// Where requirement 3 fails: one `(state, action, outcome)` per
    /// enabled outcome that no fault edge covers (see [`covers`]), in
    /// state order, then action and outcome order. The outcome is a
    /// valuation id of `model`, `None` when the table lacks it. The
    /// enabled outcomes depend only on the valuation, so they are
    /// computed once per valuation id.
    pub(crate) fn uncovered(&self, model: &FtKripke) -> Vec<(StateId, usize, Option<u32>)> {
        let ids: HashMap<&PropSet, u32> = model.valuations().iter().zip(0..).collect();
        let mut outcomes = vec![None; model.valuations().len()];
        let mut out = Vec::new();
        for s in model.state_ids() {
            let valuation = model.props(s);
            let enabled = outcomes[model.val_id(s) as usize].get_or_insert_with(|| {
                let mut enabled = Vec::new();
                for (a, action) in self.faults.iter().enumerate() {
                    if action.enabled(valuation) {
                        for phi in action.outcomes(valuation, self.num_props) {
                            enabled.push((a, ids.get(&phi).copied()));
                        }
                    }
                }
                enabled
            });
            for &(a, phi) in enabled.iter() {
                if !covers(model, s, a, phi) {
                    out.push((s, a, phi));
                }
            }
        }
        out
    }
}

/// Whether `s` has an `action` fault edge into a state of valuation id
/// `outcome` (never, when `outcome` is `None`).
pub(crate) fn covers(model: &FtKripke, s: StateId, action: usize, outcome: Option<u32>) -> bool {
    outcome.is_some_and(|phi| {
        model
            .succ(s)
            .iter()
            .any(|e| e.kind == TransKind::Fault(action as u32) && model.val_id(e.to) == phi)
    })
}
