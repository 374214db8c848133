//! Reproduction of Section 6.2 (Figures 10–11): barrier synchronization
//! subject to general state failures with nonmasking (self-stabilizing)
//! tolerance.
//!
//! Run with `cargo run --release --example barrier_selfstabilizing`.

use ftsyn::guarded::sim::{simulate, SimConfig};
use ftsyn::kripke::{PropSet, StateRole};
use ftsyn::{problems::barrier, synthesize};

fn main() {
    let mut problem = barrier::with_general_state_faults(2);
    println!("== fault specification: general state failures ==");
    for f in problem.faults.iter().take(4) {
        println!("  {}", f.display(&problem.props));
    }
    println!("  … and {} more", problem.faults.len() - 4);

    let solved = synthesize(&mut problem).unwrap_solved();
    let roles = solved.model.classify();
    let count = |r: StateRole| roles.iter().filter(|x| **x == r).count();
    println!("\n== synthesized model (Figure 10) ==");
    println!(
        "states: {} (normal {}, perturbed {}, recovery {}), verification {}",
        solved.model.len(),
        count(StateRole::Normal),
        count(StateRole::Perturbed),
        count(StateRole::Recovery),
        if solved.verification.ok() {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // The paper's observation: in the fault-intolerant program a process
    // may move when the other is at the same state or one ahead; the
    // fault-tolerant program also moves when the other is *two* ahead.
    println!("\n== extracted self-stabilizing program (Figure 11) ==");
    println!("{}", solved.program.display(&problem.props));

    println!("== random corruption run ==");
    let phase = |v: &PropSet, i: usize| -> &'static str {
        for name in ["SA", "EA", "SB", "EB"] {
            let p = problem.props.id(&format!("{name}{}", i + 1)).unwrap();
            if v.contains(p) {
                return name;
            }
        }
        "??"
    };
    let cfg = SimConfig {
        steps: 40,
        fault_prob: 0.2,
        max_faults: 2,
        seed: 99,
    };
    let trace = simulate(&solved.program, &problem.faults, &problem.props, &cfg);
    for (i, v) in trace.valuations.iter().enumerate() {
        let marker = if i > 0
            && matches!(
                trace.steps[i - 1],
                ftsyn::guarded::sim::SimStep::Fault { .. }
            ) {
            "  <- CORRUPTION"
        } else {
            ""
        };
        println!("  t={i:>2}  P1:{}  P2:{}{marker}", phase(v, 0), phase(v, 1));
    }
    let sync_ok = |v: &PropSet| {
        let pos = |i: usize| {
            ["SA", "EA", "SB", "EB"]
                .iter()
                .position(|n| v.contains(problem.props.id(&format!("{n}{}", i + 1)).unwrap()))
                .unwrap_or(9)
        };
        let (a, b) = (pos(0), pos(1));
        a < 9 && b < 9 && (4 + a as i32 - b as i32) % 4 != 2
    };
    match trace.eventually_always_after_faults(8, sync_ok) {
        Some(true) => println!("\nself-stabilized after the last corruption: yes"),
        Some(false) => println!("\nself-stabilized after the last corruption: NO (bug!)"),
        None => println!("\n(trace too short to judge convergence)"),
    }
}
