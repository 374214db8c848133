//! Micro-benchmarks of the substrates: tableau phases, the CTL model
//! checker, the interpreter and the simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use ftsyn::ctl::Closure;
use ftsyn::guarded::interp::explore;
use ftsyn::guarded::sim::{simulate, SimConfig};
use ftsyn::kripke::{Checker, Semantics};
use ftsyn::tableau::{apply_deletion_rules, blocks, build as build_tableau};
use ftsyn::{problems::mutex, synthesize, Tolerance};
use std::hint::black_box;

/// `Blocks` on the mutex root label — the hot inner loop of tableau
/// construction.
fn bench_blocks(c: &mut Criterion) {
    let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
    let roots = {
        let spec = p.spec.formula(&mut p.arena);
        vec![spec]
    };
    let closure = Closure::build(&mut p.arena, &p.props, &roots);
    let mut root_label = closure.empty_label();
    root_label.insert(closure.index_of(roots[0]).unwrap());
    c.bench_function("substrate/blocks-mutex-root", |b| {
        b.iter(|| black_box(blocks(&closure, &root_label).len()))
    });
}

/// Tableau construction + deletion for the fail-stop mutex (steps 1–2
/// of the method, isolated from unraveling and extraction).
fn bench_tableau_phases(c: &mut Criterion) {
    c.bench_function("substrate/tableau-build+delete-mutex-failstop", |b| {
        b.iter(|| {
            let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
            let (closure, fs, root_label) = p.tableau_inputs();
            let mut t = build_tableau(&closure, &p.props, root_label, &fs);
            black_box(apply_deletion_rules(&mut t, &closure).total())
        })
    });
}

/// Model checking the full mutex specification on its synthesized model.
fn bench_checker(c: &mut Criterion) {
    let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
    let s = synthesize(&mut p).unwrap_solved();
    let spec = p.spec.formula(&mut p.arena);
    c.bench_function("substrate/model-check-mutex-spec", |b| {
        b.iter(|| {
            let mut ck = Checker::new(&s.model, Semantics::FaultFree);
            black_box(ck.holds(&p.arena, spec, s.model.init_states()[0]))
        })
    });
}

/// Interpreter: regenerate the mutex model from the extracted program
/// with all fault actions enabled.
fn bench_interpreter(c: &mut Criterion) {
    let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
    let s = synthesize(&mut p).unwrap_solved();
    c.bench_function("substrate/interpret-mutex-program", |b| {
        b.iter(|| {
            black_box(
                explore(&s.program, &p.faults, &p.props)
                    .expect("explore")
                    .kripke
                    .len(),
            )
        })
    });
}

/// Simulator: 1000 steps of randomized fault injection.
fn bench_simulator(c: &mut Criterion) {
    let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
    let s = synthesize(&mut p).unwrap_solved();
    let cfg = SimConfig {
        steps: 1000,
        fault_prob: 0.1,
        max_faults: 20,
        seed: 1,
    };
    c.bench_function("substrate/simulate-1000-steps", |b| {
        b.iter(|| black_box(simulate(&s.program, &p.faults, &p.props, &cfg).steps.len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_blocks, bench_tableau_phases, bench_checker,
              bench_interpreter, bench_simulator
}
criterion_main!(benches);
