//! Problem builders for the paper experiment harness
//! (`cargo run --release -p ftsyn-bench --bin experiments`), which
//! regenerates `EXPERIMENTS.md`.

#![allow(missing_docs)]

use ftsyn::{problems::mutex, SynthesisProblem, Tolerance};

/// The fail-stop mutex problem restricted to the first `k` fault
/// actions (used for the |F|-scaling experiment, Section 7.4: runtime is
/// linear in the description size of the fault actions).
pub fn mutex_failstop_with_k_faults(k: usize) -> SynthesisProblem {
    let mut p = mutex::with_fail_stop(2, Tolerance::Masking);
    p.faults.truncate(k);
    p
}

/// Named problem builders for the spec-size scaling sweep.
pub fn scaling_problems() -> Vec<(String, Box<dyn Fn() -> SynthesisProblem>)> {
    let mut out: Vec<(String, Box<dyn Fn() -> SynthesisProblem>)> = Vec::new();
    for n in 2..=5 {
        out.push((
            format!("mutex{n}-fault-free"),
            Box::new(move || ftsyn::problems::mutex::fault_free(n)),
        ));
    }
    for n in 2..=4 {
        out.push((
            format!("barrier{n}-nonmasking"),
            Box::new(move || ftsyn::problems::barrier::with_general_state_faults(n)),
        ));
    }
    for n in 2..=4 {
        out.push((
            format!("mutex{n}-failstop-masking"),
            Box::new(move || ftsyn::problems::mutex::with_fail_stop(n, Tolerance::Masking)),
        ));
    }
    for n in 3..=5 {
        out.push((
            format!("philosophers{n}-fault-free"),
            Box::new(move || ftsyn::problems::mutex::dining_philosophers(n)),
        ));
    }
    for n in 1..=2 {
        out.push((
            format!("readers-writers-{n}R-writer-failstop"),
            Box::new(move || {
                ftsyn::problems::readers_writers::with_writer_fail_stop(n, Tolerance::Masking)
            }),
        ));
    }
    out
}
