//! A randomized fault-injection simulator for guarded-command programs.
//!
//! Runs a program under nondeterministic interleaving, occasionally
//! firing enabled fault actions, and records the trace. Utilities check
//! safety invariants along the trace and convergence after the last
//! fault — the runtime counterparts of masking and nonmasking tolerance.

use crate::action::{FaultAction, SharedCorruption};
use crate::program::Program;
use ftsyn_ctl::{Owner, PropTable};
use ftsyn_kripke::PropSet;
use ftsyn_prng::XorShift64;

/// What happened at a trace step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimStep {
    /// Process `index` executed an arc.
    Proc {
        /// 0-based process index.
        index: usize,
    },
    /// Fault action `index` fired.
    Fault {
        /// Index into the fault-action list.
        index: usize,
    },
    /// No transition was enabled (deadlock); the run stopped here.
    Deadlock,
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of steps to attempt.
    pub steps: usize,
    /// Probability of choosing an enabled fault over a program move.
    pub fault_prob: f64,
    /// After this many faults, stop injecting (to observe convergence).
    pub max_faults: usize,
    /// RNG seed (deterministic runs).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            steps: 200,
            fault_prob: 0.1,
            max_faults: 3,
            seed: 0xF7_57,
        }
    }
}

/// A recorded simulation trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Valuation at each point (length = steps taken + 1).
    pub valuations: Vec<PropSet>,
    /// Shared-variable values at each point.
    pub shared: Vec<Vec<u32>>,
    /// The step taken from each point (length = steps taken).
    pub steps: Vec<SimStep>,
    /// Index (into `steps`) of the last fault, if any.
    pub last_fault: Option<usize>,
}

impl Trace {
    /// Whether `pred` holds at every point of the trace.
    pub fn always(&self, pred: impl FnMut(&PropSet) -> bool) -> bool {
        self.valuations.iter().all(pred)
    }

    /// Whether `pred` holds at every point strictly after the last fault
    /// and at least `settle` steps later (nonmasking convergence probe).
    /// Returns `None` when the post-fault suffix is shorter than
    /// `settle`.
    pub fn eventually_always_after_faults(
        &self,
        settle: usize,
        pred: impl FnMut(&PropSet) -> bool,
    ) -> Option<bool> {
        let start = self.last_fault.map_or(0, |i| i + 1) + settle;
        if start >= self.valuations.len() {
            return None;
        }
        Some(self.valuations[start..].iter().all(pred))
    }

    /// Number of faults injected.
    pub fn fault_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, SimStep::Fault { .. }))
            .count()
    }
}

/// Parameters of a seeded fault-injection *campaign*: `runs`
/// simulations whose per-run parameters (RNG seed, fault probability,
/// fault budget) are derived deterministically from `base_seed`, so a
/// campaign explores many distinct interleavings and fault patterns
/// while remaining exactly reproducible.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of simulations to run.
    pub runs: usize,
    /// Steps attempted per simulation.
    pub steps: usize,
    /// Master seed every per-run [`SimConfig`] is derived from.
    pub base_seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: 16,
            steps: 400,
            base_seed: 0xCA_4F,
        }
    }
}

/// Derives the per-run simulation parameters of a campaign: run `i`
/// gets its own seed, a fault probability in `[0.05, 0.45)`, and a
/// fault budget in `1..=4` — all drawn from a generator seeded with
/// `base_seed`, so the whole schedule is a pure function of the config.
pub fn campaign_configs(cfg: &CampaignConfig) -> Vec<SimConfig> {
    let mut rng = XorShift64::new(cfg.base_seed);
    (0..cfg.runs)
        .map(|_| SimConfig {
            steps: cfg.steps,
            fault_prob: 0.05 + 0.4 * rng.next_f64(),
            max_faults: rng.range(1, 5),
            seed: rng.next_u64(),
        })
        .collect()
}

/// Runs a full campaign: one [`simulate`] call per derived config,
/// returning each run's parameters alongside its trace (so a failing
/// assertion downstream can name the exact `SimConfig` to replay).
pub fn campaign(
    program: &Program,
    faults: &[FaultAction],
    props: &PropTable,
    cfg: &CampaignConfig,
) -> Vec<(SimConfig, Trace)> {
    campaign_configs(cfg)
        .into_iter()
        .map(|c| {
            let trace = simulate(program, faults, props, &c);
            (c, trace)
        })
        .collect()
}

/// Runs a randomized simulation of `program` under `faults`.
///
/// Fault outcomes are resolved to local states exactly as in
/// [`crate::interp::explore`]; an unmappable fault outcome is skipped
/// (the injector simply does not take that branch).
pub fn simulate(
    program: &Program,
    faults: &[FaultAction],
    props: &PropTable,
    cfg: &SimConfig,
) -> Trace {
    let mut rng = XorShift64::new(cfg.seed);
    let proc_masks: Vec<PropSet> = (0..program.processes.len())
        .map(|i| {
            PropSet::from_iter_with_capacity(
                props.len(),
                props
                    .iter()
                    .filter(|&p| props.owner(p) == Owner::Process(i)),
            )
        })
        .collect();

    let mut locals = program.init_locals.clone();
    let mut shared = program.init_shared.clone();
    let mut trace = Trace {
        valuations: vec![program.valuation(&locals)],
        shared: vec![shared.clone()],
        steps: Vec::new(),
        last_fault: None,
    };
    let mut faults_fired = 0usize;

    for _ in 0..cfg.steps {
        let valuation = program.valuation(&locals);

        // Enabled program moves.
        let mut moves: Vec<(usize, usize)> = Vec::new(); // (process, arc idx)
        for (pi, proc) in program.processes.iter().enumerate() {
            for (ai, arc) in proc.arcs.iter().enumerate() {
                if arc.from == locals[pi] && arc.guard.eval(&valuation, &shared) {
                    moves.push((pi, ai));
                }
            }
        }
        // Enabled faults (only while budget remains).
        let enabled_faults: Vec<usize> = if faults_fired < cfg.max_faults {
            faults
                .iter()
                .enumerate()
                .filter(|(_, f)| f.enabled(&valuation))
                .map(|(i, _)| i)
                .collect()
        } else {
            Vec::new()
        };

        let take_fault =
            !enabled_faults.is_empty() && (moves.is_empty() || rng.chance(cfg.fault_prob));

        if take_fault {
            let fi = enabled_faults[rng.below(enabled_faults.len())];
            let action = &faults[fi];
            let outcomes = action.outcomes(&valuation, props.len());
            let outcome = &outcomes[rng.below(outcomes.len())];
            // Resolve local states; skip the fault if unmappable.
            let mut resolved = Vec::with_capacity(program.processes.len());
            let mut ok = true;
            for (pi, proc) in program.processes.iter().enumerate() {
                match proc.state_by_props(&outcome.intersect(&proc_masks[pi])) {
                    Some(li) => resolved.push(li),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                locals = resolved;
                for &(var, ref how) in action.corrupt_shared() {
                    if var < shared.len() {
                        shared[var] = match how {
                            SharedCorruption::Value(k) => program.clamp_shared(var, *k),
                            SharedCorruption::Arbitrary => {
                                let dom = program.shared[var].domain.max(1);
                                rng.range(1, dom as usize + 1) as u32
                            }
                        };
                    }
                }
                trace.last_fault = Some(trace.steps.len());
                trace.steps.push(SimStep::Fault { index: fi });
                faults_fired += 1;
                trace.valuations.push(program.valuation(&locals));
                trace.shared.push(shared.clone());
                continue;
            }
        }

        if moves.is_empty() {
            trace.steps.push(SimStep::Deadlock);
            break;
        }
        let (pi, ai) = moves[rng.below(moves.len())];
        let arc = &program.processes[pi].arcs[ai];
        locals[pi] = arc.to;
        for &(v, k) in &arc.assigns {
            if v < shared.len() {
                shared[v] = k;
            }
        }
        trace.steps.push(SimStep::Proc { index: pi });
        trace.valuations.push(program.valuation(&locals));
        trace.shared.push(shared.clone());
    }

    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BoolExpr;
    use crate::program::{LocalState, ProcArc, Process};
    use ftsyn_ctl::PropId;

    fn toggler() -> (Program, PropTable, PropId, PropId) {
        let mut t = PropTable::new();
        let a = t.add("a", Owner::Process(0)).unwrap();
        let b = t.add("b", Owner::Process(0)).unwrap();
        let mk = |p: PropId| PropSet::from_iter_with_capacity(2, [p]);
        let prog = Program {
            processes: vec![Process {
                index: 0,
                states: vec![
                    LocalState {
                        name: "a".into(),
                        props: mk(a),
                    },
                    LocalState {
                        name: "b".into(),
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
                        assigns: vec![],
                    },
                ],
            }],
            shared: vec![],
            init_locals: vec![0],
            init_shared: vec![],
            num_props: 2,
        };
        (prog, t, a, b)
    }

    #[test]
    fn deterministic_given_seed() {
        let (prog, t, _, _) = toggler();
        let cfg = SimConfig {
            steps: 50,
            ..SimConfig::default()
        };
        let t1 = simulate(&prog, &[], &t, &cfg);
        let t2 = simulate(&prog, &[], &t, &cfg);
        assert_eq!(t1.steps, t2.steps);
        assert_eq!(t1.valuations.len(), 51);
    }

    #[test]
    fn invariant_checking() {
        let (prog, t, a, b) = toggler();
        let trace = simulate(&prog, &[], &t, &SimConfig::default());
        assert!(trace.always(|v| v.contains(a) ^ v.contains(b)));
        assert_eq!(trace.fault_count(), 0);
    }

    #[test]
    fn faults_fire_and_are_bounded() {
        let (prog, t, a, b) = toggler();
        let f = crate::faults::general_state("P1", &[("a".to_owned(), a), ("b".to_owned(), b)]);
        let cfg = SimConfig {
            steps: 300,
            fault_prob: 0.5,
            max_faults: 4,
            seed: 7,
        };
        let trace = simulate(&prog, &f, &t, &cfg);
        assert!(trace.fault_count() >= 1);
        assert!(trace.fault_count() <= 4);
        assert!(trace.last_fault.is_some());
    }

    #[test]
    fn deadlock_detected() {
        let (mut prog, t, _, _) = toggler();
        prog.processes[0].arcs.clear();
        let trace = simulate(&prog, &[], &t, &SimConfig::default());
        assert_eq!(trace.steps, vec![SimStep::Deadlock]);
    }

    #[test]
    fn campaigns_are_reproducible_and_varied() {
        let cfg = CampaignConfig::default();
        let (c1, c2) = (campaign_configs(&cfg), campaign_configs(&cfg));
        assert_eq!(c1.len(), cfg.runs);
        for (a, b) in c1.iter().zip(&c2) {
            assert_eq!(a.seed, b.seed, "campaign schedule must be deterministic");
            assert_eq!(a.max_faults, b.max_faults);
            assert!((a.fault_prob - b.fault_prob).abs() < f64::EPSILON);
            assert!((0.05..0.45).contains(&a.fault_prob));
            assert!((1..=4).contains(&a.max_faults));
        }
        // Seeds must differ run to run (distinct interleavings).
        let distinct: std::collections::HashSet<u64> = c1.iter().map(|c| c.seed).collect();
        assert_eq!(distinct.len(), cfg.runs);
    }

    #[test]
    fn campaign_runs_every_config() {
        let (prog, t, a, b) = toggler();
        let f = crate::faults::general_state("P1", &[("a".to_owned(), a), ("b".to_owned(), b)]);
        let cfg = CampaignConfig {
            runs: 4,
            steps: 60,
            base_seed: 9,
        };
        let results = campaign(&prog, &f, &t, &cfg);
        assert_eq!(results.len(), 4);
        for (sc, trace) in &results {
            assert!(trace.fault_count() <= sc.max_faults);
            // Replaying the returned config reproduces the trace.
            let replay = simulate(&prog, &f, &t, sc);
            assert_eq!(replay.steps, trace.steps);
        }
    }

    #[test]
    fn convergence_probe() {
        let (prog, t, a, b) = toggler();
        let trace = simulate(
            &prog,
            &[],
            &t,
            &SimConfig {
                steps: 30,
                ..Default::default()
            },
        );
        // No faults: convergence measured from the start.
        let conv = trace.eventually_always_after_faults(0, |v| v.contains(a) ^ v.contains(b));
        assert_eq!(conv, Some(true));
        // Settle longer than the trace yields None.
        let none = trace.eventually_always_after_faults(1000, |_| true);
        assert_eq!(none, None);
    }
}
