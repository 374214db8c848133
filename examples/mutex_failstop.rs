//! Reproduction of Section 6.1 (Figures 3–9): two-process mutual
//! exclusion subject to fail-stop failures with masking tolerance.
//!
//! Synthesizes the fault-tolerant program, prints the model summary and
//! the synchronization skeletons, then exercises the program under
//! randomized fail-stop injection and reports the observed behavior.
//!
//! Run with `cargo run --release --example mutex_failstop`.

use ftsyn::guarded::sim::{simulate, SimConfig, SimStep};
use ftsyn::kripke::StateRole;
use ftsyn::{problems::mutex, synthesize, Tolerance};

fn main() {
    println!("== fault specification (Section 6.1) ==");
    let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
    for f in &problem.faults {
        println!("  {}", f.display(&problem.props));
    }

    let solved = synthesize(&mut problem).unwrap_solved();
    let roles = solved.model.classify();
    let count = |r: StateRole| roles.iter().filter(|x| **x == r).count();
    println!("\n== synthesized model (Figure 8) ==");
    println!(
        "states: {} (normal {}, perturbed {}, recovery {})",
        solved.model.len(),
        count(StateRole::Normal),
        count(StateRole::Perturbed),
        count(StateRole::Recovery),
    );
    println!(
        "transitions: {} program + {} fault",
        solved.stats.program_transitions, solved.stats.fault_transitions
    );
    println!(
        "tableau: {} nodes built, {} deleted, synthesis took {:?}",
        solved.stats.tableau_nodes,
        solved.stats.deletion.total(),
        solved.stats.elapsed
    );
    println!(
        "mechanical verification (soundness + masking + fault closure): {}",
        if solved.verification.ok() {
            "PASS"
        } else {
            "FAIL"
        }
    );

    println!("\n== extracted fault-tolerant program (Figure 9) ==");
    println!("{}", solved.program.display(&problem.props));

    println!("== fault-injection run ==");
    let cfg = SimConfig {
        steps: 60,
        fault_prob: 0.15,
        max_faults: 3,
        seed: 2024,
    };
    let trace = simulate(&solved.program, &problem.faults, &problem.props, &cfg);
    let c1 = problem.props.id("C1").unwrap();
    let c2 = problem.props.id("C2").unwrap();
    for (i, step) in trace.steps.iter().enumerate() {
        let what = match step {
            SimStep::Proc { index } => format!("P{}", index + 1),
            SimStep::Fault { index } => {
                format!("FAULT {}", problem.faults[*index].name())
            }
            SimStep::Deadlock => "deadlock".into(),
        };
        let v = &trace.valuations[i + 1];
        let names: Vec<&str> = v.iter().map(|p| problem.props.name(p)).collect();
        println!("  step {i:>2}: {what:<22} -> [{}]", names.join(" "));
    }
    println!(
        "\nmutual exclusion held throughout: {}",
        trace.always(|v| !(v.contains(c1) && v.contains(c2)))
    );
    println!("faults injected: {}", trace.fault_count());
}
