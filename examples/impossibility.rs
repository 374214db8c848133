//! Reproduction of Section 6.3: a mechanically generated impossibility
//! result. Barrier synchronization subject to fail-stop failures, where
//! a process may stay down forever, has *no* nonmasking-tolerant
//! solution — the progress of each process requires the concomitant
//! progress of the other.
//!
//! Run with `cargo run --release --example impossibility`.

use ftsyn::{problems::barrier, synthesize, SynthesisOutcome};

fn main() {
    println!("Barrier synchronization + fail-stop faults + nonmasking tolerance");
    println!("(a failed process may stay down forever: AG(Di -> EG Di))\n");

    let mut problem = barrier::with_fail_stop_impossible(2);
    match synthesize(&mut problem) {
        SynthesisOutcome::Impossible(imp) => {
            println!("RESULT: impossible — no such program exists (Corollary 7.2).");
            println!();
            println!("tableau nodes built:   {}", imp.stats.tableau_nodes);
            println!(
                "deleted by DeleteP:    {}",
                imp.stats.deletion.prop_inconsistent
            );
            println!(
                "deleted by DeleteOR:   {}",
                imp.stats.deletion.or_without_children
            );
            println!(
                "deleted by DeleteAND:  {}",
                imp.stats.deletion.and_missing_successor
            );
            println!(
                "deleted by DeleteAU:   {}",
                imp.stats.deletion.au_unfulfilled
            );
            println!(
                "deleted by DeleteEU:   {}",
                imp.stats.deletion.eu_unfulfilled
            );
            println!("decided in:            {:?}", imp.stats.elapsed);
            println!();
            println!("Why: after P1 fail-stops, the coupling admits a fault-free");
            println!("fullpath on which D1 holds forever (EG D1). Along it, P1 is");
            println!("never in exactly one phase, so AG(global-spec) never holds,");
            println!("and the nonmasking obligation AF AG(global-spec) cannot be");
            println!("fulfilled — DeleteAU removes the perturbed states, DeleteAND");
            println!("cascades through the fault edges, and the root is deleted.");
        }
        SynthesisOutcome::Solved(_) => {
            println!("RESULT: solved?! (this contradicts Section 6.3 — a bug)");
        }
        SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
    }

    // Contrast: the same problem under general state faults is solvable.
    println!("\n--- contrast: general state faults instead of fail-stop ---");
    let mut solvable = barrier::with_general_state_faults(2);
    match synthesize(&mut solvable) {
        SynthesisOutcome::Solved(s) => println!(
            "solved: {} states, verification {}",
            s.stats.model_states,
            if s.verification.ok() { "PASS" } else { "FAIL" }
        ),
        SynthesisOutcome::Impossible(_) => println!("impossible?! (bug)"),
        SynthesisOutcome::Aborted(_) => unreachable!("ungoverned synthesis cannot abort"),
    }
}
