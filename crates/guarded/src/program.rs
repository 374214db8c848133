//! Synchronization skeletons and concurrent programs (Section 2.1).
//!
//! A process `Pᵢ` is a directed graph of named local states with arcs
//! labeled by guarded commands `B → A`, where the guard `B` reads other
//! processes' propositions and shared variables, and the statement `A`
//! is a parallel assignment to shared variables. A program is the
//! parallel composition `P₁ ‖ … ‖ P_I` plus shared-variable
//! declarations, executed by nondeterministic interleaving.

use crate::expr::BoolExpr;
use ftsyn_ctl::PropTable;
use ftsyn_kripke::PropSet;
use std::fmt::Write as _;

/// A named local state of a process, identified by the set of the
/// process's propositions that are true in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalState {
    /// Display name (e.g. `N1`, or `D1` for a fail-stopped state).
    pub name: String,
    /// The process-owned propositions true in this local state.
    pub props: PropSet,
}

/// An arc of a synchronization skeleton: `from --[guard → assigns]--> to`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcArc {
    /// Source local-state index.
    pub from: usize,
    /// Target local-state index.
    pub to: usize,
    /// Enabling condition over other processes' propositions and shared
    /// variables.
    pub guard: BoolExpr,
    /// Parallel assignment to shared variables `(var, value)`.
    pub assigns: Vec<(usize, u32)>,
}

/// A sequential process: a synchronization skeleton.
#[derive(Clone, Debug, PartialEq)]
pub struct Process {
    /// 0-based process index.
    pub index: usize,
    /// Local states.
    pub states: Vec<LocalState>,
    /// Arcs.
    pub arcs: Vec<ProcArc>,
}

impl Process {
    /// Finds a local state by its proposition set.
    pub fn state_by_props(&self, props: &PropSet) -> Option<usize> {
        self.states.iter().position(|s| &s.props == props)
    }

    /// Renders the skeleton in the paper's Figure 9 style.
    pub fn display(&self, props: &PropTable) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "process P{}:", self.index + 1);
        for a in &self.arcs {
            let stmt = if a.assigns.is_empty() {
                String::from("skip")
            } else {
                a.assigns
                    .iter()
                    .map(|(v, k)| format!("x{v} := {k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "  {} -> {}:  {}  /  {}",
                self.states[a.from].name,
                self.states[a.to].name,
                a.guard.display(props),
                stmt
            );
        }
        out
    }
}

/// A shared synchronization variable with domain `1..=domain`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedVar {
    /// Display name.
    pub name: String,
    /// Largest value; the domain is `[1 : domain]` (Section 5.3).
    pub domain: u32,
}

/// A concurrent program `P₁ ‖ … ‖ P_I` with shared variables.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The processes.
    pub processes: Vec<Process>,
    /// Shared synchronization variables.
    pub shared: Vec<SharedVar>,
    /// Initial local-state index of each process.
    pub init_locals: Vec<usize>,
    /// Initial shared-variable values.
    pub init_shared: Vec<u32>,
    /// Total number of atomic propositions (capacity for valuations).
    pub num_props: usize,
}

impl Program {
    /// The valuation of a configuration of local states.
    pub fn valuation(&self, locals: &[usize]) -> PropSet {
        let mut v = PropSet::with_capacity(self.num_props);
        for (p, &li) in self.processes.iter().zip(locals.iter()) {
            for prop in p.states[li].props.iter() {
                v.insert(prop);
            }
        }
        v
    }

    /// Clamps a shared-variable value into its domain, reinterpreting
    /// out-of-domain values as the default `1` (Section 5.3).
    pub fn clamp_shared(&self, var: usize, value: u32) -> u32 {
        let dom = self.shared.get(var).map_or(1, |v| v.domain);
        if (1..=dom).contains(&value) {
            value
        } else {
            1
        }
    }

    /// Renders all skeletons.
    pub fn display(&self, props: &PropTable) -> String {
        let mut out = String::new();
        for sv in &self.shared {
            let _ = writeln!(out, "shared {}: [1..{}]", sv.name, sv.domain);
        }
        for p in &self.processes {
            out.push_str(&p.display(props));
        }
        out
    }

    /// Number of arcs across all processes.
    pub fn arc_count(&self) -> usize {
        self.processes.iter().map(|p| p.arcs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{Owner, PropId};

    fn two_state_process(t: &mut PropTable, idx: usize) -> (Process, PropId, PropId) {
        let a = t.add(format!("a{idx}"), Owner::Process(idx)).unwrap();
        let b = t.add(format!("b{idx}"), Owner::Process(idx)).unwrap();
        let mk = |p: PropId| PropSet::from_iter_with_capacity(8, [p]);
        let proc = Process {
            index: idx,
            states: vec![
                LocalState {
                    name: format!("a{idx}"),
                    props: mk(a),
                },
                LocalState {
                    name: format!("b{idx}"),
                    props: mk(b),
                },
            ],
            arcs: vec![
                ProcArc {
                    from: 0,
                    to: 1,
                    guard: BoolExpr::tru(),
                    assigns: vec![],
                },
                ProcArc {
                    from: 1,
                    to: 0,
                    guard: BoolExpr::tru(),
                    assigns: vec![(0, 2)],
                },
            ],
        };
        (proc, a, b)
    }

    #[test]
    fn valuation_unions_local_props() {
        let mut t = PropTable::new();
        let (p0, a0, _) = two_state_process(&mut t, 0);
        let (p1, _, b1) = two_state_process(&mut t, 1);
        let prog = Program {
            processes: vec![p0, p1],
            shared: vec![],
            init_locals: vec![0, 1],
            init_shared: vec![],
            num_props: 8,
        };
        let v = prog.valuation(&[0, 1]);
        assert!(v.contains(a0));
        assert!(v.contains(b1));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn clamp_shared_defaults_out_of_domain() {
        let prog = Program {
            processes: vec![],
            shared: vec![SharedVar {
                name: "x".into(),
                domain: 2,
            }],
            init_locals: vec![],
            init_shared: vec![1],
            num_props: 0,
        };
        assert_eq!(prog.clamp_shared(0, 2), 2);
        assert_eq!(prog.clamp_shared(0, 0), 1);
        assert_eq!(prog.clamp_shared(0, 99), 1);
    }

    #[test]
    fn state_lookup_by_props() {
        let mut t = PropTable::new();
        let (p, a, b) = two_state_process(&mut t, 0);
        let pa = PropSet::from_iter_with_capacity(8, [a]);
        let pb = PropSet::from_iter_with_capacity(8, [b]);
        assert_eq!(p.state_by_props(&pa), Some(0));
        assert_eq!(p.state_by_props(&pb), Some(1));
        let none = PropSet::from_iter_with_capacity(8, [a, b]);
        assert_eq!(p.state_by_props(&none), None);
    }

    #[test]
    fn display_renders_arcs() {
        let mut t = PropTable::new();
        let (p, _, _) = two_state_process(&mut t, 0);
        let prog = Program {
            processes: vec![p],
            shared: vec![SharedVar {
                name: "x".into(),
                domain: 2,
            }],
            init_locals: vec![0],
            init_shared: vec![1],
            num_props: 8,
        };
        let txt = prog.display(&t);
        assert!(txt.contains("process P1:"));
        assert!(txt.contains("a0 -> b0:  true  /  skip"));
        assert!(txt.contains("b0 -> a0:  true  /  x0 := 2"));
        assert!(txt.contains("shared x: [1..2]"));
    }
}
