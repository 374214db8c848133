//! The barrier synchronization problem subject to general state failures
//! (Section 6.2), plus the fail-stop variant used for the impossibility
//! result of Section 6.3.
//!
//! ### Deviation note (recorded in EXPERIMENTS.md)
//!
//! The paper's Section 6.2 states the problem-fault coupling
//! specification as `true`. Taken literally, nothing would constrain the
//! *recovery* transitions: under nonmasking tolerance the global
//! specification (including the phase order, the exactly-one-local-state
//! clauses, and the interleaving of Section 2.2 clause 6 — which §6.2
//! omits but §2.2 requires of the model of computation) need only hold
//! *eventually*, so the synthesized recovery could move several
//! processes at once or jump across phases, and the result would not be
//! expressible as synchronization skeletons at all. Figure 10's recovery
//! transitions visibly respect single-process interleaving and phase
//! order, so we take the coupling specification to be exactly those
//! model-of-computation constraints (phase order, exactly-one, and
//! interleaving), leaving the barrier conditions (clauses 7–8) and
//! progress (clause 9) as the global specification that nonmasking
//! tolerance re-establishes after a fault.

use crate::problem::{SynthesisProblem, Tolerance};
use ftsyn_ctl::{FormulaArena, FormulaId, Owner, PropId, PropTable, Spec};
use ftsyn_guarded::faults::{fail_stop, general_state, repair_to};
use ftsyn_guarded::FaultAction;

/// Proposition handles for one process of the barrier problem.
#[derive(Clone, Debug)]
pub struct BarrierProps {
    /// `SAᵢ`: start of phase A.
    pub sa: PropId,
    /// `EAᵢ`: end of phase A.
    pub ea: PropId,
    /// `SBᵢ`: start of phase B.
    pub sb: PropId,
    /// `EBᵢ`: end of phase B.
    pub eb: PropId,
    /// `Dᵢ`: down; present only in the fail-stop variant (§6.3).
    pub d: Option<PropId>,
}

impl BarrierProps {
    /// The four phase propositions in cyclic order.
    pub fn phases(&self) -> [PropId; 4] {
        [self.sa, self.ea, self.sb, self.eb]
    }
}

/// Registers the barrier propositions for `n_procs` processes.
pub fn barrier_props(props: &mut PropTable, n_procs: usize, with_down: bool) -> Vec<BarrierProps> {
    (0..n_procs)
        .map(|i| {
            let mut add = |name: &str| {
                props
                    .add(format!("{name}{}", i + 1), Owner::Process(i))
                    .expect("fresh table")
            };
            let sa = add("SA");
            let ea = add("EA");
            let sb = add("SB");
            let eb = add("EB");
            let d = with_down.then(|| {
                props
                    .add_aux(format!("D{}", i + 1), Owner::Process(i))
                    .expect("fresh table")
            });
            BarrierProps { sa, ea, sb, eb, d }
        })
        .collect()
}

/// The model-of-computation clauses (phase order, exactly-one,
/// interleaving), used as the coupling specification — see the module
/// docs. When `with_down` holds, the exactly-one clauses admit the down
/// state instead (all four phase propositions false).
fn computation_clauses(
    arena: &mut FormulaArena,
    ps: &[BarrierProps],
    with_down: bool,
) -> Vec<FormulaId> {
    let n_procs = ps.len();
    let mut cs = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        let phases = p.phases();
        // (2–5) Phase order: each phase moves to the next.
        #[allow(clippy::needless_range_loop)] // k+1 wraps around the cycle
        for k in 0..4 {
            let cur = arena.prop(phases[k]);
            let nxt = arena.prop(phases[(k + 1) % 4]);
            let axn = arena.ax(i, nxt);
            let cl = arena.implies(cur, axn);
            cs.push(cl);
        }
        // (6) Exactly one local state.
        for k in 0..4 {
            let cur = arena.prop(phases[k]);
            let others: Vec<FormulaId> = (0..4)
                .filter(|&m| m != k)
                .map(|m| arena.prop(phases[m]))
                .collect();
            let disj = arena.or_all(others);
            let ndisj = arena.not(disj);
            if with_down {
                // cur → ¬(others): "at most one"; the all-false case is
                // the down state, pinned by the D ≡ … coupling clause.
                let cl = arena.implies(cur, ndisj);
                cs.push(cl);
            } else {
                let cl = arena.iff(cur, ndisj);
                cs.push(cl);
            }
        }
        // Interleaving (Section 2.2 clause 6): other processes preserve
        // Pᵢ's phase.
        for j in 0..n_procs {
            if j != i {
                for &ph in &phases {
                    let cur = arena.prop(ph);
                    let ax = arena.ax(j, cur);
                    let cl = arena.implies(cur, ax);
                    cs.push(cl);
                }
            }
        }
    }
    cs
}

/// The barrier conditions and progress (clauses 1, 7–9). Returns
/// `(init, barrier_clauses)`.
pub fn barrier_conditions(
    arena: &mut FormulaArena,
    ps: &[BarrierProps],
) -> (FormulaId, Vec<FormulaId>) {
    let init = {
        let sas: Vec<FormulaId> = ps.iter().map(|p| arena.prop(p.sa)).collect();
        arena.and_all(sas)
    };
    let mut cs = Vec::new();
    // (7) Never simultaneously at the start of different phases, and
    // (8) never simultaneously at the end of different phases.
    for i in 0..ps.len() {
        for j in 0..ps.len() {
            if i == j {
                continue;
            }
            let sai = arena.prop(ps[i].sa);
            let sbj = arena.prop(ps[j].sb);
            let and = arena.and(sai, sbj);
            let cl7 = arena.not(and);
            cs.push(cl7);
            let eai = arena.prop(ps[i].ea);
            let ebj = arena.prop(ps[j].eb);
            let and = arena.and(eai, ebj);
            let cl8 = arena.not(and);
            cs.push(cl8);
        }
    }
    // (9) Some process can always move.
    let t = arena.tru();
    cs.push(arena.ex_all(t));
    (init, cs)
}

/// The general-state fault actions of Section 6.2: for every process and
/// every local state, an always-enabled action perturbing the process
/// into that state.
pub fn general_state_faults(props: &PropTable, ps: &[BarrierProps]) -> Vec<FaultAction> {
    let mut out = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        let locals: Vec<(String, PropId)> = p
            .phases()
            .iter()
            .map(|&q| (props.name(q).to_owned(), q))
            .collect();
        out.extend(general_state(&format!("P{}", i + 1), &locals));
    }
    out
}

/// The barrier synchronization problem subject to general state failures
/// with nonmasking (self-stabilizing) tolerance — the setting of
/// Figures 10 and 11.
pub fn with_general_state_faults(n_procs: usize) -> SynthesisProblem {
    let mut props = PropTable::new();
    let ps = barrier_props(&mut props, n_procs, false);
    let mut arena = FormulaArena::new(n_procs);
    let (init, mut globals) = barrier_conditions(&mut arena, &ps);
    let coupling_cs = computation_clauses(&mut arena, &ps, false);
    // The global specification also includes the computation clauses (the
    // paper's clauses 2–6 are part of the problem specification); the
    // coupling duplicates them so they also bind perturbed states.
    globals.extend(coupling_cs.iter().copied());
    let global = arena.and_all(globals);
    let coupling = arena.and_all(coupling_cs);
    let spec = Spec::with_coupling(init, global, coupling);
    let faults = general_state_faults(&props, &ps);
    SynthesisProblem::new(arena, props, spec, faults, Tolerance::Nonmasking)
}

/// The fault-free barrier problem (for the lower-bound comparison of
/// Figure 10's fault-intolerant sub-structure).
pub fn fault_free(n_procs: usize) -> SynthesisProblem {
    let mut props = PropTable::new();
    let ps = barrier_props(&mut props, n_procs, false);
    let mut arena = FormulaArena::new(n_procs);
    let (init, mut globals) = barrier_conditions(&mut arena, &ps);
    globals.extend(computation_clauses(&mut arena, &ps, false));
    let global = arena.and_all(globals);
    let spec = Spec::new(&mut arena, init, global);
    SynthesisProblem::new(arena, props, spec, Vec::new(), Tolerance::Masking)
}

/// The impossibility setting of Section 6.3: barrier synchronization
/// subject to *fail-stop* failures where a process may stay down forever
/// (`Dᵢ → EG Dᵢ`), with nonmasking tolerance required. The progress of
/// each process requires the concomitant progress of the other, so if
/// `P₁` can stay down forever, `AF AG(global)` is unachievable and the
/// tableau root is deleted.
pub fn with_fail_stop_impossible(n_procs: usize) -> SynthesisProblem {
    let mut props = PropTable::new();
    let ps = barrier_props(&mut props, n_procs, true);
    let mut arena = FormulaArena::new(n_procs);
    let (init, mut globals) = barrier_conditions(&mut arena, &ps);
    // Coupling: computation clauses in their "at most one" form (a down
    // process has no phase), plus the fail-stop coupling of Section 6.1:
    // D ≡ all-phases-false, D may persist forever, and other processes
    // preserve D.
    let mut coupling_cs = computation_clauses(&mut arena, &ps, true);
    for (i, p) in ps.iter().enumerate() {
        let d = arena.prop(p.d.expect("fail-stop variant registers D"));
        let phases: Vec<FormulaId> = p.phases().iter().map(|&q| arena.prop(q)).collect();
        let disj = arena.or_all(phases);
        let ndisj = arena.not(disj);
        let c1 = arena.iff(d, ndisj);
        coupling_cs.push(c1);
        let egd = arena.eg(d);
        let c2 = arena.implies(d, egd);
        coupling_cs.push(c2);
        for j in 0..n_procs {
            if j != i {
                let ax = arena.ax(j, d);
                let c3 = arena.implies(d, ax);
                coupling_cs.push(c3);
            }
        }
    }
    // Global: the paper's clause 6 in its *strict* exactly-one form — a
    // process is always in exactly one phase. This is the clause a
    // forever-down process violates forever: on the `EG D₁` fullpath,
    // `AG(global)` never holds, so `AF AG(global)` is unsatisfiable at
    // the perturbed state, and the deletion rules cascade to the root.
    globals.extend(computation_clauses(&mut arena, &ps, false));
    let global = arena.and_all(globals);
    let coupling = arena.and_all(coupling_cs);
    let spec = Spec::with_coupling(init, global, coupling);
    let mut faults = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        let d = p.d.expect("registered above");
        let locals = p.phases();
        let pname = format!("P{}", i + 1);
        faults.push(fail_stop(&pname, &locals, d));
        faults.push(repair_to(&pname, p.sa, "SA", &locals, d, None));
    }
    SynthesisProblem::new(arena, props, spec, faults, Tolerance::Nonmasking)
}
