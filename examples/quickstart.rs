//! Quickstart: synthesize the classic two-process mutual exclusion
//! program (no faults — the Emerson–Clarke 1982 setting the paper
//! extends), print the synthesized synchronization skeletons, and
//! model-check the result.
//!
//! Run with `cargo run --release --example quickstart`.

use ftsyn::kripke::{Checker, Semantics};
use ftsyn::{problems::mutex, synthesize};

fn main() {
    // 1. Pose the problem: the CTL specification of Section 2.2.
    let mut problem = mutex::fault_free(2);

    // 2. Synthesize.
    let solved = synthesize(&mut problem).unwrap_solved();
    println!("== synthesis statistics ==");
    println!(
        "spec length |spec| = {}, closure = {}, tableau nodes = {}, model states = {}",
        solved.stats.spec_length,
        solved.stats.closure_size,
        solved.stats.tableau_nodes,
        solved.stats.model_states
    );

    // 3. The extracted concurrent program P1 ‖ P2 (Figure 9's upper,
    // fault-free portion): guarded-command synchronization skeletons.
    println!("\n== extracted program ==");
    println!("{}", solved.program.display(&problem.props));

    // 4. Every synthesis is verified mechanically; re-check one property
    // by hand: mutual exclusion AG ¬(C1 ∧ C2).
    let c1 = problem.arena.prop(problem.props.id("C1").unwrap());
    let c2 = problem.arena.prop(problem.props.id("C2").unwrap());
    let both = problem.arena.and(c1, c2);
    let nboth = problem.arena.not(both);
    let ag = problem.arena.ag(nboth);
    let mut ck = Checker::new(&solved.model, Semantics::FaultFree);
    let init = solved.model.init_states()[0];
    println!("== model checking ==");
    println!(
        "AG ~(C1 & C2) at the initial state: {}",
        ck.holds(&problem.arena, ag, init)
    );
    println!(
        "built-in verification: {}",
        if solved.verification.ok() {
            "PASS"
        } else {
            "FAIL"
        }
    );
}
