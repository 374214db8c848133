//! A readers–writers problem: one writer and `R` readers. The writer's
//! access excludes everyone; readers may share the resource with each
//! other. Not one of the paper's worked examples — it exercises the
//! synthesis method on a specification whose exclusion relation is *not*
//! symmetric, and demonstrates fault-tolerant synthesis for a
//! writer-fail-stop fault class (readers keep reading while the writer
//! is down; the writer is repaired only when no reader is mid-read).
//!
//! Process 0 is the writer (regions `Nw`, `Tw`, `Cw`, down flag `Dw`);
//! processes `1..=R` are readers (`NrI`, `TrI`, `CrI`).

use crate::problem::{SynthesisProblem, Tolerance};
use ftsyn_ctl::{FormulaArena, FormulaId, Owner, PropId, PropTable, Spec};
use ftsyn_guarded::faults::{fail_stop, repair_to};
use ftsyn_guarded::BoolExpr;

/// Proposition handles for the readers–writers problem.
#[derive(Clone, Debug)]
pub struct RwProps {
    /// Writer regions `(N, T, C)`.
    pub writer: (PropId, PropId, PropId),
    /// Writer down flag (fail-stop variant only).
    pub writer_down: Option<PropId>,
    /// Per-reader regions `(N, T, C)`.
    pub readers: Vec<(PropId, PropId, PropId)>,
}

fn register(props: &mut PropTable, readers: usize, with_down: bool) -> RwProps {
    let n = props.add("Nw", Owner::Process(0)).expect("fresh");
    let t = props.add("Tw", Owner::Process(0)).expect("fresh");
    let c = props.add("Cw", Owner::Process(0)).expect("fresh");
    let writer_down = with_down.then(|| props.add_aux("Dw", Owner::Process(0)).expect("fresh"));
    let readers = (0..readers)
        .map(|i| {
            let pi = i + 1;
            (
                props
                    .add(format!("Nr{pi}"), Owner::Process(pi))
                    .expect("fresh"),
                props
                    .add(format!("Tr{pi}"), Owner::Process(pi))
                    .expect("fresh"),
                props
                    .add(format!("Cr{pi}"), Owner::Process(pi))
                    .expect("fresh"),
            )
        })
        .collect();
    RwProps {
        writer: (n, t, c),
        writer_down,
        readers,
    }
}

/// Builds the specification clauses shared by both variants.
fn spec_clauses(arena: &mut FormulaArena, rw: &RwProps) -> (FormulaId, Vec<FormulaId>) {
    let n_procs = 1 + rw.readers.len();
    let mut regions: Vec<(usize, PropId, PropId, PropId)> =
        vec![(0, rw.writer.0, rw.writer.1, rw.writer.2)];
    for (i, &(n, t, c)) in rw.readers.iter().enumerate() {
        regions.push((i + 1, n, t, c));
    }

    let mut globals = Vec::new();
    // Init: everyone noncritical.
    let init = {
        let ns: Vec<FormulaId> = regions.iter().map(|&(_, n, _, _)| arena.prop(n)).collect();
        arena.and_all(ns)
    };
    for &(i, n, t, c) in &regions {
        let (fn_, ft, fc) = (arena.prop(n), arena.prop(t), arena.prop(c));
        // Region cycle (as in the mutex spec, Section 2.2 clauses 2-4).
        let axt = arena.ax(i, ft);
        let ext = arena.ex(i, ft);
        let move_nt = arena.and(axt, ext);
        let cl = arena.implies(fn_, move_nt);
        globals.push(cl);
        let axc = arena.ax(i, fc);
        let cl = arena.implies(ft, axc);
        globals.push(cl);
        let axn = arena.ax(i, fn_);
        let exn = arena.ex(i, fn_);
        let move_cn = arena.and(axn, exn);
        let cl = arena.implies(fc, move_cn);
        globals.push(cl);
        // At most one region.
        for (a, b1, b2) in [(fn_, ft, fc), (ft, fn_, fc), (fc, fn_, ft)] {
            let or = arena.or(b1, b2);
            let nor = arena.not(or);
            let cl = arena.implies(a, nor);
            globals.push(cl);
        }
        // Interleaving.
        for j in 0..n_procs {
            if j != i {
                for r in [fn_, ft, fc] {
                    let ax = arena.ax(j, r);
                    let cl = arena.implies(r, ax);
                    globals.push(cl);
                }
            }
        }
        // No starvation.
        let afc = arena.af(fc);
        let cl = arena.implies(ft, afc);
        globals.push(cl);
    }
    // Writer excludes every reader — but readers do NOT exclude each
    // other (the asymmetry that distinguishes this from mutex).
    let cw = arena.prop(rw.writer.2);
    for &(_, _, cr) in &rw.readers {
        let fcr = arena.prop(cr);
        let both = arena.and(cw, fcr);
        let cl = arena.not(both);
        globals.push(cl);
    }
    // Progress.
    let t = arena.tru();
    globals.push(arena.ex_all(t));
    (init, globals)
}

/// The fault-free readers–writers problem with `readers` readers.
pub fn fault_free(readers: usize) -> SynthesisProblem {
    let mut props = PropTable::new();
    let rw = register(&mut props, readers, false);
    let mut arena = FormulaArena::new(1 + readers);
    let (init, globals) = spec_clauses(&mut arena, &rw);
    let global = arena.and_all(globals);
    let spec = Spec::new(&mut arena, init, global);
    SynthesisProblem::new(arena, props, spec, Vec::new(), Tolerance::Masking)
}

/// Readers–writers where the *writer* is subject to fail-stop failures
/// with repair (repair into `Cw` guarded on no reader being mid-read),
/// with the requested tolerance.
pub fn with_writer_fail_stop(readers: usize, tol: Tolerance) -> SynthesisProblem {
    let mut props = PropTable::new();
    let rw = register(&mut props, readers, true);
    let n_procs = 1 + readers;
    let mut arena = FormulaArena::new(n_procs);
    let (init, mut globals) = spec_clauses(&mut arena, &rw);
    let dw = rw.writer_down.expect("registered");
    // Coupling, as in Section 6.1: Dw ≡ no region, Dw may persist, other
    // processes preserve Dw.
    let mut coupling_cs = Vec::new();
    {
        let d = arena.prop(dw);
        let (n, t, c) = rw.writer;
        let (fn_, ft, fc) = (arena.prop(n), arena.prop(t), arena.prop(c));
        let tc = arena.or(ft, fc);
        let ntc = arena.or(fn_, tc);
        let nntc = arena.not(ntc);
        coupling_cs.push(arena.iff(d, nntc));
        let egd = arena.eg(d);
        let c2 = arena.implies(d, egd);
        coupling_cs.push(c2);
        for j in 1..n_procs {
            let ax = arena.ax(j, d);
            let c3 = arena.implies(d, ax);
            coupling_cs.push(c3);
        }
    }
    globals.extend(coupling_cs.iter().copied());
    let global = arena.and_all(globals);
    let coupling = arena.and_all(coupling_cs);
    let spec = Spec::with_coupling(init, global, coupling);

    let locals = [rw.writer.0, rw.writer.1, rw.writer.2];
    let mut faults = vec![fail_stop("W", &locals, dw)];
    faults.push(repair_to("W", rw.writer.0, "N", &locals, dw, None));
    faults.push(repair_to("W", rw.writer.1, "T", &locals, dw, None));
    let no_reader_reading: Vec<BoolExpr> = rw
        .readers
        .iter()
        .map(|&(_, _, cr)| BoolExpr::not_prop(cr))
        .collect();
    let guard = if no_reader_reading.len() == 1 {
        no_reader_reading.into_iter().next().expect("len checked")
    } else {
        BoolExpr::And(no_reader_reading)
    };
    faults.push(repair_to("W", rw.writer.2, "C", &locals, dw, Some(guard)));
    SynthesisProblem::new(arena, props, spec, faults, tol)
}
