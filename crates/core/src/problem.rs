//! The synthesis problem (Section 3) and tolerance labels
//! (Definition 2.1, extended to multitolerance per Section 8.2).

use ftsyn_ctl::{Closure, FormulaArena, FormulaId, LabelSet, PropTable, Spec};
use ftsyn_guarded::FaultAction;
use ftsyn_tableau::{CertMode, FaultSpec};

/// The kind of fault tolerance required (Section 2.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tolerance {
    /// Safety and liveness both hold at perturbed states:
    /// `Label = AG(global) ∧ AG(coupling)`.
    Masking,
    /// Liveness holds; safety holds eventually:
    /// `Label = AF AG(global) ∧ AG(coupling)`.
    Nonmasking,
    /// Only the safety part holds:
    /// `Label = AG(global–safety) ∧ AG(coupling)`.
    FailSafe,
}

/// How tolerances are assigned to fault actions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToleranceAssignment {
    /// Every fault action gets the same tolerance.
    Uniform(Tolerance),
    /// Multitolerance (Section 8.2): one tolerance per fault action, in
    /// fault-action order.
    PerFault(Vec<Tolerance>),
}

impl ToleranceAssignment {
    /// The tolerance of the `i`-th fault action.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for a `PerFault` assignment.
    pub fn of(&self, i: usize) -> Tolerance {
        match self {
            ToleranceAssignment::Uniform(t) => *t,
            ToleranceAssignment::PerFault(v) => v[i],
        }
    }

    /// All distinct tolerances in use.
    pub fn distinct(&self) -> Vec<Tolerance> {
        match self {
            ToleranceAssignment::Uniform(t) => vec![*t],
            ToleranceAssignment::PerFault(v) => {
                let mut out = Vec::new();
                for &t in v {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
                out
            }
        }
    }
}

/// A complete synthesis problem: the temporal specification, the fault
/// specification, and the required tolerance(s).
#[derive(Debug)]
pub struct SynthesisProblem {
    /// Formula arena (owns every formula of the problem).
    pub arena: FormulaArena,
    /// Atomic propositions, including fault-specification auxiliaries.
    pub props: PropTable,
    /// `init ∧ AG(global) ∧ AG(coupling)`.
    pub spec: Spec,
    /// The fault actions `F`.
    pub faults: Vec<FaultAction>,
    /// Required tolerance per fault action.
    pub tolerance: ToleranceAssignment,
    /// Which correctness statement to synthesize for: the paper's main
    /// method (`⊨ₙ`, [`CertMode::FaultFree`]) or the alternative method
    /// of Section 8.3 (`⊨` over fault-prone paths,
    /// [`CertMode::FaultProne`]).
    pub mode: CertMode,
}

impl SynthesisProblem {
    /// Creates a problem with a uniform tolerance.
    pub fn new(
        arena: FormulaArena,
        props: PropTable,
        spec: Spec,
        faults: Vec<FaultAction>,
        tolerance: Tolerance,
    ) -> SynthesisProblem {
        SynthesisProblem {
            arena,
            props,
            spec,
            faults,
            tolerance: ToleranceAssignment::Uniform(tolerance),
            mode: CertMode::FaultFree,
        }
    }

    /// Switches to the alternative method of Section 8.3: eventualities
    /// are fulfilled along *all* paths, including those on which faults
    /// keep occurring, and the produced model is verified under the
    /// plain (non-relativized) satisfaction relation.
    #[must_use]
    pub fn with_fault_prone_correctness(mut self) -> SynthesisProblem {
        self.mode = CertMode::FaultProne;
        self
    }

    /// The formulae of `Label_TOL(spec)` (Definition 2.1) for a given
    /// tolerance, as individual conjuncts.
    pub fn label_tol_formulas(&mut self, tol: Tolerance) -> Vec<FormulaId> {
        let ag_coupling = self.spec.ag_coupling(&mut self.arena);
        let first = match tol {
            Tolerance::Masking => self.spec.ag_global(&mut self.arena),
            Tolerance::Nonmasking => {
                let agg = self.spec.ag_global(&mut self.arena);
                self.arena.af(agg)
            }
            Tolerance::FailSafe => {
                let safety = self.spec.global_safety(&mut self.arena);
                self.arena.ag(safety)
            }
        };
        vec![first, ag_coupling]
    }

    /// All formulae that must be members of the closure: the temporal
    /// specification and every tolerance label in use.
    pub fn closure_roots(&mut self) -> Vec<FormulaId> {
        let mut roots = vec![self.spec.formula(&mut self.arena)];
        for tol in self.tolerance.distinct() {
            roots.extend(self.label_tol_formulas(tol));
        }
        roots
    }

    /// Step 0 of the method, the inputs of every tableau build: the
    /// closure over [`SynthesisProblem::closure_roots`], the fault
    /// specification with each action's tolerance label, and the root
    /// label `{spec}`.
    pub fn tableau_inputs(&mut self) -> (Closure, FaultSpec, LabelSet) {
        let roots = self.closure_roots();
        let closure = Closure::build(&mut self.arena, &self.props, &roots);
        let fault_spec = FaultSpec {
            actions: self.faults.clone(),
            tolerance_labels: self.tolerance_label_sets(&closure),
        };
        let mut root_label = closure.empty_label();
        root_label.insert(closure.index_of(roots[0]).expect("spec is a closure root"));
        (closure, fault_spec, root_label)
    }

    /// Converts the `Label_a(spec)` of every fault action into closure
    /// label sets (requires the closure to have been built over
    /// [`SynthesisProblem::closure_roots`]).
    ///
    /// # Panics
    ///
    /// Panics if a tolerance formula is missing from the closure.
    pub fn tolerance_label_sets(&mut self, closure: &Closure) -> Vec<LabelSet> {
        (0..self.faults.len())
            .map(|i| {
                let tol = self.tolerance.of(i);
                let mut l = closure.empty_label();
                for f in self.label_tol_formulas(tol) {
                    l.insert(
                        closure
                            .index_of(f)
                            .expect("tolerance formulae are closure roots"),
                    );
                }
                l
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{parse::parse, print::render, Owner};

    fn sample(tol: Tolerance) -> SynthesisProblem {
        let mut props = PropTable::new();
        props.add("p", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let init = parse(&mut arena, &mut props, "p", false).unwrap();
        let global = parse(&mut arena, &mut props, "p & AG EX1 true", false).unwrap();
        let spec = Spec::new(&mut arena, init, global);
        SynthesisProblem::new(arena, props, spec, vec![], tol)
    }

    #[test]
    fn masking_label_is_ag_global() {
        let mut p = sample(Tolerance::Masking);
        let ls = p.label_tol_formulas(Tolerance::Masking);
        let txt = render(&p.arena, &p.props, ls[0]);
        assert!(txt.starts_with("AG("), "{txt}");
        assert_eq!(render(&p.arena, &p.props, ls[1]), "AG true");
    }

    #[test]
    fn nonmasking_label_is_af_ag_global() {
        let mut p = sample(Tolerance::Nonmasking);
        let ls = p.label_tol_formulas(Tolerance::Nonmasking);
        let txt = render(&p.arena, &p.props, ls[0]);
        assert!(txt.starts_with("AF(AG"), "{txt}");
    }

    #[test]
    fn failsafe_label_drops_liveness() {
        let mut props = PropTable::new();
        props.add("p", Owner::Process(0)).unwrap();
        props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let init = parse(&mut arena, &mut props, "p", false).unwrap();
        let global = parse(&mut arena, &mut props, "p & AF q", false).unwrap();
        let spec = Spec::new(&mut arena, init, global);
        let mut prob = SynthesisProblem::new(arena, props, spec, vec![], Tolerance::FailSafe);
        let ls = prob.label_tol_formulas(Tolerance::FailSafe);
        let txt = render(&prob.arena, &prob.props, ls[0]);
        assert_eq!(txt, "AG p", "safety extraction drops AF q: {txt}");
    }

    #[test]
    fn per_fault_assignment() {
        let ta = ToleranceAssignment::PerFault(vec![Tolerance::Masking, Tolerance::Nonmasking]);
        assert_eq!(ta.of(0), Tolerance::Masking);
        assert_eq!(ta.of(1), Tolerance::Nonmasking);
        assert_eq!(
            ta.distinct(),
            vec![Tolerance::Masking, Tolerance::Nonmasking]
        );
    }

    #[test]
    fn closure_roots_cover_tolerances() {
        let mut p = sample(Tolerance::Nonmasking);
        let roots = p.closure_roots();
        assert_eq!(roots.len(), 3, "spec + 2 label formulae");
    }
}
