//! Fault actions: guarded commands that perturb the program state
//! (Section 2.3 of the paper).
//!
//! A fault action has a guard over atomic propositions, a parallel
//! assignment to propositions (possibly nondeterministic, the paper's
//! `?`), and optionally an assignment corrupting shared synchronization
//! variables (Section 5.3). Guards must not *read* shared variables —
//! this restriction is required for completeness of the synthesis method
//! and is enforced at construction.

use crate::expr::BoolExpr;
use ftsyn_ctl::{PropId, PropTable};
use ftsyn_kripke::PropSet;
use std::fmt;

/// Right-hand side of a proposition assignment in a fault action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropAssign {
    /// Set to true.
    True,
    /// Set to false.
    False,
    /// The paper's `?`: a nondeterministically chosen boolean.
    NonDet,
}

/// Corruption of a shared synchronization variable by a fault
/// (Section 5.3: faults may overwrite, but never read, shared variables).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedCorruption {
    /// Overwrite with a fixed value (possibly outside the domain; readers
    /// reinterpret out-of-domain values as the default `1`).
    Value(u32),
    /// Overwrite with an arbitrary value.
    Arbitrary,
}

/// Error constructing a fault action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActionError {
    /// The guard mentions a shared variable.
    GuardReadsShared,
    /// The same proposition is assigned twice.
    DuplicateAssignment(PropId),
}

impl fmt::Display for ActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionError::GuardReadsShared => {
                write!(f, "fault-action guards must not read shared variables")
            }
            ActionError::DuplicateAssignment(p) => {
                write!(f, "proposition {p:?} assigned more than once")
            }
        }
    }
}

impl std::error::Error for ActionError {}

/// A fault action (guarded command).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultAction {
    name: String,
    guard: BoolExpr,
    assigns: Vec<(PropId, PropAssign)>,
    corrupt_shared: Vec<(usize, SharedCorruption)>,
}

impl FaultAction {
    /// Creates a fault action.
    ///
    /// # Errors
    ///
    /// Fails if the guard reads a shared variable or a proposition is
    /// assigned twice.
    pub fn new(
        name: impl Into<String>,
        guard: BoolExpr,
        assigns: Vec<(PropId, PropAssign)>,
    ) -> Result<FaultAction, ActionError> {
        if guard.reads_shared() {
            return Err(ActionError::GuardReadsShared);
        }
        for (i, (p, _)) in assigns.iter().enumerate() {
            if assigns[..i].iter().any(|(q, _)| q == p) {
                return Err(ActionError::DuplicateAssignment(*p));
            }
        }
        Ok(FaultAction {
            name: name.into(),
            guard,
            assigns,
            corrupt_shared: Vec::new(),
        })
    }

    /// Adds corruption of shared variables to this fault action.
    #[must_use]
    pub fn with_shared_corruption(
        mut self,
        corrupt: Vec<(usize, SharedCorruption)>,
    ) -> FaultAction {
        self.corrupt_shared = corrupt;
        self
    }

    /// The action's name (for diagnostics and transition labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The guard.
    pub fn guard(&self) -> &BoolExpr {
        &self.guard
    }

    /// The proposition assignments.
    pub fn assigns(&self) -> &[(PropId, PropAssign)] {
        &self.assigns
    }

    /// The shared-variable corruptions.
    pub fn corrupt_shared(&self) -> &[(usize, SharedCorruption)] {
        &self.corrupt_shared
    }

    /// Whether the action is enabled in the given valuation.
    pub fn enabled(&self, props: &PropSet) -> bool {
        self.guard.eval(props, &[])
    }

    /// All possible outcome valuations `{ϕ}` of executing the body in
    /// `props` (the paper's `{L(c)↑AP} a.body {ϕ}`), enumerating the
    /// branches of nondeterministic assignments. The guard is *not*
    /// checked here.
    pub fn outcomes(&self, props: &PropSet, num_props: usize) -> Vec<PropSet> {
        let nondet: Vec<PropId> = self
            .assigns
            .iter()
            .filter(|(_, a)| *a == PropAssign::NonDet)
            .map(|(p, _)| *p)
            .collect();
        let mut base = PropSet::with_capacity(num_props);
        for p in props.iter() {
            base.insert(p);
        }
        for (p, a) in &self.assigns {
            match a {
                PropAssign::True => {
                    base.insert(*p);
                }
                PropAssign::False => {
                    base.remove(*p);
                }
                PropAssign::NonDet => {}
            }
        }
        let mut out = Vec::with_capacity(1 << nondet.len());
        for mask in 0..(1u32 << nondet.len()) {
            let mut v = base.clone();
            for (bit, p) in nondet.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    v.insert(*p);
                } else {
                    v.remove(*p);
                }
            }
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// The textual size `|a|` of the guarded command, used by the
    /// complexity analysis of Section 7.4 (`|F| = Σ|a|`).
    pub fn size(&self) -> usize {
        fn expr_size(e: &BoolExpr) -> usize {
            match e {
                BoolExpr::Const(_) | BoolExpr::Prop(_) | BoolExpr::VarEq(_, _) => 1,
                BoolExpr::Not(i) => 1 + expr_size(i),
                BoolExpr::And(es) | BoolExpr::Or(es) => 1 + es.iter().map(expr_size).sum::<usize>(),
            }
        }
        expr_size(&self.guard) + 2 * self.assigns.len() + 2 * self.corrupt_shared.len()
    }

    /// Human-readable `guard → assignments` rendering.
    pub fn display(&self, props: &PropTable) -> String {
        let mut rhs: Vec<String> = self
            .assigns
            .iter()
            .map(|(p, a)| {
                let v = match a {
                    PropAssign::True => "true",
                    PropAssign::False => "false",
                    PropAssign::NonDet => "?",
                };
                format!("{} := {}", props.name(*p), v)
            })
            .collect();
        for (v, c) in &self.corrupt_shared {
            rhs.push(match c {
                SharedCorruption::Value(k) => format!("x{v} := {k}"),
                SharedCorruption::Arbitrary => format!("x{v} := ?"),
            });
        }
        format!(
            "{}: {} -> {}",
            self.name,
            self.guard.display(props),
            rhs.join(", ")
        )
    }
}

/// Total description size of a set of fault actions (`|F|`, Section 7.4).
pub fn fault_set_size(actions: &[FaultAction]) -> usize {
    actions.iter().map(FaultAction::size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::Owner;

    fn table() -> (PropTable, PropId, PropId, PropId) {
        let mut t = PropTable::new();
        let a = t.add("a", Owner::Process(0)).unwrap();
        let b = t.add("b", Owner::Process(0)).unwrap();
        let c = t.add_aux("broken", Owner::Process(0)).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn guard_reading_shared_rejected() {
        let (_, a, _, _) = table();
        let r = FaultAction::new("f", BoolExpr::VarEq(0, 1), vec![(a, PropAssign::True)]);
        assert_eq!(r.unwrap_err(), ActionError::GuardReadsShared);
    }

    #[test]
    fn duplicate_assignment_rejected() {
        let (_, a, _, _) = table();
        let r = FaultAction::new(
            "f",
            BoolExpr::tru(),
            vec![(a, PropAssign::True), (a, PropAssign::False)],
        );
        assert_eq!(r.unwrap_err(), ActionError::DuplicateAssignment(a));
    }

    #[test]
    fn deterministic_outcome() {
        let (_, a, b, c) = table();
        let f = FaultAction::new(
            "fail",
            BoolExpr::not_prop(c),
            vec![(c, PropAssign::True), (a, PropAssign::False)],
        )
        .unwrap();
        let before = PropSet::from_iter_with_capacity(3, [a, b]);
        assert!(f.enabled(&before));
        let out = f.outcomes(&before, 3);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains(c));
        assert!(out[0].contains(b), "unassigned props preserved");
        assert!(!out[0].contains(a));
    }

    #[test]
    fn nondet_outcomes_branch() {
        let (_, a, b, _) = table();
        let f = FaultAction::new(
            "corrupt",
            BoolExpr::tru(),
            vec![(a, PropAssign::NonDet), (b, PropAssign::NonDet)],
        )
        .unwrap();
        let before = PropSet::with_capacity(3);
        let out = f.outcomes(&before, 3);
        assert_eq!(out.len(), 4, "two ? props give four outcomes");
    }

    #[test]
    fn guard_disabled_state() {
        let (_, a, _, c) = table();
        let f =
            FaultAction::new("fail", BoolExpr::not_prop(c), vec![(a, PropAssign::True)]).unwrap();
        let down = PropSet::from_iter_with_capacity(3, [c]);
        assert!(!f.enabled(&down));
    }

    #[test]
    fn size_accounts_guard_and_assigns() {
        let (_, a, _, c) = table();
        let f = FaultAction::new(
            "fail",
            BoolExpr::not_prop(c),
            vec![(a, PropAssign::True), (c, PropAssign::False)],
        )
        .unwrap();
        assert_eq!(f.size(), 2 + 4);
        assert_eq!(fault_set_size(&[f.clone(), f]), 12);
    }

    #[test]
    fn display_shows_guarded_command() {
        let (t, a, _, c) = table();
        let f = FaultAction::new("fail", BoolExpr::not_prop(c), vec![(a, PropAssign::NonDet)])
            .unwrap()
            .with_shared_corruption(vec![(0, SharedCorruption::Arbitrary)]);
        assert_eq!(f.display(&t), "fail: ~broken -> a := ?, x0 := ?");
    }
}
