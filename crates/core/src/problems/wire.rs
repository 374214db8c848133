//! The wire of Section 2.3: the running example used to introduce the
//! fault model. Not a synthesis problem — a concrete guarded-command
//! system exercised by the `wire_stuck_at` example and tests.
//!
//! Two processes: the wire itself (owning `out`, the auxiliary `broken`
//! flag, and — in the bounded variant — the unary occurrence counter),
//! and an environment process freely toggling `in`. The wire's actions
//! are the paper's:
//!
//! ```text
//! out ≠ in ∧ ¬broken → out := in      (correct behavior)
//! broken             → out := 0      (stuck at low voltage)
//! ```

use ftsyn_ctl::{Owner, PropId, PropTable};
use ftsyn_guarded::faults::{stuck_at_low, stuck_at_low_bounded, stuck_at_repair};
use ftsyn_guarded::{BoolExpr, FaultAction, LocalState, ProcArc, Process, Program};
use ftsyn_kripke::PropSet;

/// The wire's propositions.
#[derive(Clone, Debug)]
pub struct WireProps {
    /// The input bit (owned by the environment process).
    pub input: PropId,
    /// The output bit.
    pub output: PropId,
    /// The auxiliary `broken` flag of the stuck-at fault.
    pub broken: PropId,
    /// Unary occurrence counter (bounded variant only).
    pub counters: Vec<PropId>,
}

/// A built wire system: the program, its propositions, and the faults.
#[derive(Debug)]
pub struct Wire {
    /// Proposition table.
    pub props: PropTable,
    /// Handles into the table.
    pub wire_props: WireProps,
    /// The program: wire process ‖ environment process.
    pub program: Program,
    /// Stuck-at-low (possibly bounded) and repair fault actions.
    pub faults: Vec<FaultAction>,
}

/// Builds the wire with an optional bound `k` on the number of stuck-at
/// occurrences (encoded in unary auxiliary propositions, Section 2.3).
pub fn build(bounded: Option<usize>) -> Wire {
    let mut props = PropTable::new();
    let output = props.add("out", Owner::Process(0)).expect("fresh");
    let broken = props.add_aux("broken", Owner::Process(0)).expect("fresh");
    let k = bounded.unwrap_or(0);
    let counters: Vec<PropId> = (0..k)
        .map(|j| {
            props
                .add_aux(format!("cnt{j}"), Owner::Process(0))
                .expect("fresh")
        })
        .collect();
    let input = props.add("in", Owner::Process(1)).expect("fresh");
    let n = props.len();
    let mk = |ps: &[PropId]| PropSet::from_iter_with_capacity(n, ps.iter().copied());

    // Wire process: local states = (out, broken) × counter level.
    // The counter is monotone unary: level c means cnt0..cnt_{c-1} set.
    let mut states = Vec::new();
    let idx = |out: bool, broken_b: bool, level: usize| -> usize {
        (level * 4) + (usize::from(broken_b) << 1) + usize::from(out)
    };
    for level in 0..=k {
        for broken_b in [false, true] {
            for out in [false, true] {
                let mut ps = Vec::new();
                if out {
                    ps.push(output);
                }
                if broken_b {
                    ps.push(broken);
                }
                ps.extend(counters.iter().take(level).copied());
                let name = format!(
                    "{}{}{}",
                    if out { "hi" } else { "lo" },
                    if broken_b { "-broken" } else { "" },
                    if k > 0 {
                        format!("@{level}")
                    } else {
                        String::new()
                    }
                );
                states.push(LocalState {
                    name,
                    props: mk(&ps),
                });
            }
        }
    }
    let mut arcs = Vec::new();
    for level in 0..=k {
        // Correct behavior: out := in when they differ and not broken.
        arcs.push(ProcArc {
            from: idx(false, false, level),
            to: idx(true, false, level),
            guard: BoolExpr::Prop(input),
            assigns: vec![],
        });
        arcs.push(ProcArc {
            from: idx(true, false, level),
            to: idx(false, false, level),
            guard: BoolExpr::not_prop(input),
            assigns: vec![],
        });
        // Broken behavior: out := 0 regardless of in.
        arcs.push(ProcArc {
            from: idx(true, true, level),
            to: idx(false, true, level),
            guard: BoolExpr::Const(true),
            assigns: vec![],
        });
        arcs.push(ProcArc {
            from: idx(false, true, level),
            to: idx(false, true, level),
            guard: BoolExpr::Const(true),
            assigns: vec![],
        });
    }
    let wire_proc = Process {
        index: 0,
        states,
        arcs,
    };

    // Environment: toggles `in` freely.
    let env = Process {
        index: 1,
        states: vec![
            LocalState {
                name: "in0".into(),
                props: mk(&[]),
            },
            LocalState {
                name: "in1".into(),
                props: mk(&[input]),
            },
        ],
        arcs: vec![
            ProcArc {
                from: 0,
                to: 1,
                guard: BoolExpr::Const(true),
                assigns: vec![],
            },
            ProcArc {
                from: 1,
                to: 0,
                guard: BoolExpr::Const(true),
                assigns: vec![],
            },
        ],
    };

    let program = Program {
        processes: vec![wire_proc, env],
        shared: vec![],
        init_locals: vec![0, 0],
        init_shared: vec![],
        num_props: n,
    };

    let faults = match bounded {
        None => vec![stuck_at_low(broken), stuck_at_repair(broken)],
        Some(_) => {
            let mut fs = stuck_at_low_bounded(broken, &counters);
            fs.push(stuck_at_repair(broken));
            fs
        }
    };

    Wire {
        props,
        wire_props: WireProps {
            input,
            output,
            broken,
            counters,
        },
        program,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_guarded::interp::explore;
    use ftsyn_guarded::sim::{simulate, SimConfig};

    #[test]
    fn wire_program_shape() {
        let w = build(None);
        assert_eq!(w.program.processes[0].states.len(), 4);
        assert_eq!(w.program.processes[1].states.len(), 2);
        assert_eq!(w.faults.len(), 2);
    }

    #[test]
    fn healthy_wire_tracks_input() {
        // Without faults, whenever the wire settles (no enabled wire
        // moves), out equals in.
        let w = build(None);
        let ex = explore(&w.program, &[], &w.props).expect("explore");
        for s in ex.kripke.state_ids() {
            let v = ex.kripke.props(s);
            let wire_can_move = ex
                .kripke
                .succ(s)
                .iter()
                .any(|e| e.kind == ftsyn_kripke::TransKind::Proc(0));
            if !wire_can_move {
                assert_eq!(
                    v.contains(w.wire_props.input),
                    v.contains(w.wire_props.output)
                );
            }
        }
    }

    #[test]
    fn stuck_wire_only_outputs_low() {
        let w = build(None);
        let cfg = SimConfig {
            steps: 120,
            fault_prob: 0.4,
            max_faults: 1,
            seed: 3,
        };
        // Only the stuck-at action (no repair): once broken, the output
        // goes low after the transient and stays low.
        let trace = simulate(&w.program, &w.faults[..1], &w.props, &cfg);
        assert!(trace.last_fault.is_some(), "the stuck-at must fire");
        let settled =
            trace.eventually_always_after_faults(20, |v| !v.contains(w.wire_props.output));
        assert_eq!(settled, Some(true), "output must go and stay low");
    }

    #[test]
    fn bounded_wire_respects_budget() {
        let w = build(Some(2));
        let cfg = SimConfig {
            steps: 400,
            fault_prob: 0.5,
            max_faults: 100,
            seed: 11,
        };
        // Stuck-at actions only (exclude the final repair action) — but
        // with repair included the budget must still cap stuck-ats.
        let trace = simulate(&w.program, &w.faults, &w.props, &cfg);
        let stuck_count = trace
            .steps
            .iter()
            .filter(|s| matches!(s, ftsyn_guarded::sim::SimStep::Fault { index } if *index < 2))
            .count();
        assert!(stuck_count <= 2, "unary counter caps occurrences");
        assert!(stuck_count >= 1, "the fault does occur");
    }

    #[test]
    fn bounded_faults_map_to_local_states() {
        let w = build(Some(2));
        let ex = explore(&w.program, &w.faults, &w.props);
        assert!(ex.is_ok(), "{ex:?}");
        assert!(ex.unwrap().kripke.fault_edge_count() > 0);
    }
}
