//! The mutual exclusion problem (Sections 2.2 and 6.1).
//!
//! Builders for the `I`-process generalization of the paper's
//! specification: fault-free (the plain Emerson–Clarke synthesis), and
//! subject to fail-stop failures with repair (Section 6.1).

use crate::problem::{SynthesisProblem, Tolerance, ToleranceAssignment};
use ftsyn_ctl::{FormulaArena, FormulaId, Owner, PropId, PropTable, Spec};
use ftsyn_guarded::faults::{fail_stop, repair_to};
use ftsyn_guarded::{BoolExpr, FaultAction};

/// Proposition handles for one process of the mutex problem.
#[derive(Clone, Debug)]
pub struct MutexProps {
    /// `Nᵢ`: in the noncritical region.
    pub n: PropId,
    /// `Tᵢ`: in the trying region.
    pub t: PropId,
    /// `Cᵢ`: in the critical region.
    pub c: PropId,
    /// `Dᵢ`: fail-stopped ("down"); only present with fail-stop faults.
    pub d: Option<PropId>,
}

/// Registers the mutex propositions for `n_procs` processes.
pub fn mutex_props(props: &mut PropTable, n_procs: usize, with_down: bool) -> Vec<MutexProps> {
    (0..n_procs)
        .map(|i| {
            let n = props
                .add(format!("N{}", i + 1), Owner::Process(i))
                .expect("fresh table");
            let t = props
                .add(format!("T{}", i + 1), Owner::Process(i))
                .expect("fresh table");
            let c = props
                .add(format!("C{}", i + 1), Owner::Process(i))
                .expect("fresh table");
            let d = with_down.then(|| {
                props
                    .add_aux(format!("D{}", i + 1), Owner::Process(i))
                    .expect("fresh table")
            });
            MutexProps { n, t, c, d }
        })
        .collect()
}

/// Builds the problem specification of Section 2.2, generalized to
/// `n_procs` processes. Returns `(init, global)`.
pub fn mutex_spec(arena: &mut FormulaArena, ps: &[MutexProps]) -> (FormulaId, FormulaId) {
    let all_pairs: Vec<(usize, usize)> = (0..ps.len())
        .flat_map(|i| ((i + 1)..ps.len()).map(move |j| (i, j)))
        .collect();
    conflict_spec(arena, ps, &all_pairs)
}

/// The mutual exclusion specification over an arbitrary *conflict
/// graph*: only the given pairs exclude each other (clause 8 restricted
/// to graph edges). The complete graph gives the paper's mutual
/// exclusion; a cycle gives dining philosophers (each philosopher
/// conflicts with its two neighbors); an empty edge set gives
/// independent cyclers.
pub fn conflict_spec(
    arena: &mut FormulaArena,
    ps: &[MutexProps],
    conflicts: &[(usize, usize)],
) -> (FormulaId, FormulaId) {
    let n_procs = ps.len();
    let mut global: Vec<FormulaId> = Vec::new();

    // (1) Initial state: all noncritical.
    let init = {
        let ns: Vec<FormulaId> = ps.iter().map(|p| arena.prop(p.n)).collect();
        arena.and_all(ns)
    };

    for (i, p) in ps.iter().enumerate() {
        let (n, t, c) = (arena.prop(p.n), arena.prop(p.t), arena.prop(p.c));
        // (2) N → (AXᵢT ∧ EXᵢT).
        let axt = arena.ax(i, t);
        let ext = arena.ex(i, t);
        let both = arena.and(axt, ext);
        let cl2 = arena.implies(n, both);
        global.push(cl2);
        // (3) T → AXᵢC.
        let axc = arena.ax(i, c);
        let cl3 = arena.implies(t, axc);
        global.push(cl3);
        // (4) C → (AXᵢN ∧ EXᵢN).
        let axn = arena.ax(i, n);
        let exn = arena.ex(i, n);
        let both = arena.and(axn, exn);
        let cl4 = arena.implies(c, both);
        global.push(cl4);
        // (5) At most one of N, T, C.
        for (a, b1, b2) in [(n, t, c), (t, n, c), (c, n, t)] {
            let or = arena.or(b1, b2);
            let nor = arena.not(or);
            let cl5 = arena.implies(a, nor);
            global.push(cl5);
        }
        // (6) Interleaving: a transition by another process preserves
        // Pᵢ's region.
        for j in 0..n_procs {
            if j != i {
                for r in [n, t, c] {
                    let axr = arena.ax(j, r);
                    let cl6 = arena.implies(r, axr);
                    global.push(cl6);
                }
            }
        }
        // (7) No starvation: T → AF C.
        let afc = arena.af(c);
        let cl7 = arena.implies(t, afc);
        global.push(cl7);
    }
    // (8) Mutual exclusion along the conflict edges.
    for &(i, j) in conflicts {
        let ci = arena.prop(ps[i].c);
        let cj = arena.prop(ps[j].c);
        let and = arena.and(ci, cj);
        let cl8 = arena.not(and);
        global.push(cl8);
    }
    // (9) Some process can always move.
    let t = arena.tru();
    let cl9 = arena.ex_all(t);
    global.push(cl9);

    (init, arena.and_all(global))
}

/// The fault-free mutual exclusion problem (the setting of
/// Emerson–Clarke 1982; reproduced as the upper half of Figure 8).
pub fn fault_free(n_procs: usize) -> SynthesisProblem {
    let mut props = PropTable::new();
    let ps = mutex_props(&mut props, n_procs, false);
    let mut arena = FormulaArena::new(n_procs);
    let (init, global) = mutex_spec(&mut arena, &ps);
    let spec = Spec::new(&mut arena, init, global);
    SynthesisProblem::new(arena, props, spec, Vec::new(), Tolerance::Masking)
}

/// The problem-fault coupling specification of Section 6.1:
/// `Dᵢ ≡ ¬(Nᵢ∨Tᵢ∨Cᵢ)`, `Dᵢ → EG Dᵢ`, and `Dᵢ → AXⱼ Dᵢ` for `j ≠ i`.
pub fn fail_stop_coupling(arena: &mut FormulaArena, ps: &[MutexProps]) -> FormulaId {
    let n_procs = ps.len();
    let mut cs: Vec<FormulaId> = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        let d = arena.prop(p.d.expect("fail-stop problems register D"));
        let (n, t, c) = (arena.prop(p.n), arena.prop(p.t), arena.prop(p.c));
        // (c1) D ≡ ¬(N ∨ T ∨ C).
        let ntc = {
            let tc = arena.or(t, c);
            arena.or(n, tc)
        };
        let nntc = arena.not(ntc);
        cs.push(arena.iff(d, nntc));
        // (c2) A fail-stopped process may stay down forever.
        let egd = arena.eg(d);
        let c2 = arena.implies(d, egd);
        cs.push(c2);
        // (c3) Other processes' transitions preserve D.
        for j in 0..n_procs {
            if j != i {
                let axd = arena.ax(j, d);
                let c3 = arena.implies(d, axd);
                cs.push(c3);
            }
        }
    }
    arena.and_all(cs)
}

/// The fail-stop fault actions of Section 6.1: per process, one
/// fail-stop and three repairs (repair into `Cᵢ` guarded on mutual
/// exclusion, footnote 11).
pub fn fail_stop_faults(ps: &[MutexProps]) -> Vec<FaultAction> {
    let mut out = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        let d = p.d.expect("fail-stop problems register D");
        let locals = [p.n, p.t, p.c];
        let pname = format!("P{}", i + 1);
        out.push(fail_stop(&pname, &locals, d));
        out.push(repair_to(&pname, p.n, "N", &locals, d, None));
        out.push(repair_to(&pname, p.t, "T", &locals, d, None));
        let others: Vec<BoolExpr> = ps
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, q)| BoolExpr::not_prop(q.c))
            .collect();
        let guard = if others.len() == 1 {
            others.into_iter().next().expect("len checked")
        } else {
            BoolExpr::And(others)
        };
        out.push(repair_to(&pname, p.c, "C", &locals, d, Some(guard)));
    }
    out
}

/// The mutual exclusion problem subject to fail-stop failures
/// (Section 6.1), with the requested tolerance (the paper uses
/// [`Tolerance::Masking`]).
pub fn with_fail_stop(n_procs: usize, tol: Tolerance) -> SynthesisProblem {
    let mut props = PropTable::new();
    let ps = mutex_props(&mut props, n_procs, true);
    let mut arena = FormulaArena::new(n_procs);
    let (init, global) = mutex_spec(&mut arena, &ps);
    let coupling = fail_stop_coupling(&mut arena, &ps);
    let spec = Spec::with_coupling(init, global, coupling);
    let faults = fail_stop_faults(&ps);
    SynthesisProblem::new(arena, props, spec, faults, tol)
}

/// Mutual exclusion on an arbitrary conflict graph, fault-free.
/// `conflicts` lists the 0-based process pairs that exclude each other.
///
/// # Panics
///
/// Panics if an edge mentions a process index `>= n_procs`.
pub fn conflict_fault_free(n_procs: usize, conflicts: &[(usize, usize)]) -> SynthesisProblem {
    assert!(conflicts.iter().all(|&(i, j)| i < n_procs && j < n_procs));
    let mut props = PropTable::new();
    let ps = mutex_props(&mut props, n_procs, false);
    let mut arena = FormulaArena::new(n_procs);
    let (init, global) = conflict_spec(&mut arena, &ps, conflicts);
    let spec = Spec::new(&mut arena, init, global);
    SynthesisProblem::new(arena, props, spec, Vec::new(), Tolerance::Masking)
}

/// Dining philosophers around a table of size `n` (eating = the critical
/// region; neighbors conflict), fault-free. For `n ≥ 4` non-adjacent
/// philosophers may eat concurrently.
pub fn dining_philosophers(n: usize) -> SynthesisProblem {
    let ring: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    conflict_fault_free(n, &ring)
}

/// Multitolerance variant (Section 8.2): fail-stop / repair actions can
/// be assigned different tolerances per action via `assign`.
pub fn with_fail_stop_multitolerance(
    n_procs: usize,
    assign: impl Fn(&FaultAction) -> Tolerance,
) -> SynthesisProblem {
    let mut p = with_fail_stop(n_procs, Tolerance::Masking);
    let tols: Vec<Tolerance> = p.faults.iter().map(assign).collect();
    p.tolerance = ToleranceAssignment::PerFault(tols);
    p
}
