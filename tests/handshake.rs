//! Integration test for the producer–consumer handshake under the
//! buffer faults of Section 2.3 (omission, timing): the tolerance
//! taxonomy of Section 2.5 falls out mechanically — omission is
//! maskable, while the timing fault admits only fail-safe tolerance.

use ftsyn::guarded::sim::{simulate, SimConfig};
use ftsyn::kripke::{Checker, Semantics};
use ftsyn::problems::handshake::{build, BufferFault};
use ftsyn::{synthesize, Tolerance};

#[test]
fn plain_handshake_synthesizes_the_four_phase_cycle() {
    let mut problem = build(BufferFault::None, Tolerance::Masking);
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);
    // The four-phase cycle: every (full, ack) combination occurs.
    let full = problem.props.id("full").unwrap();
    let ack = problem.props.id("ack").unwrap();
    for (wf, wa) in [(false, false), (true, false), (true, true), (false, true)] {
        assert!(
            s.model.state_ids().any(|st| {
                let v = &s.model.state(st).props;
                v.contains(full) == wf && v.contains(ack) == wa
            }),
            "phase (full={wf}, ack={wa}) missing"
        );
    }
}

#[test]
fn omission_is_maskable() {
    let mut problem = build(BufferFault::Omission, Tolerance::Masking);
    let s = synthesize(&mut problem).unwrap_solved();
    assert!(s.verification.ok(), "{:?}", s.verification.failures);
    // The omission lands on valuations the normal cycle also visits
    // (the loss of the *item* is invisible to a propositional spec) —
    // so every fault target is a normal state and the liveness cycle
    // keeps turning: AG AF full under ⊨ₙ.
    let full = problem.arena.prop(problem.props.id("full").unwrap());
    let af = problem.arena.af(full);
    let ag = problem.arena.ag(af);
    let mut ck = Checker::new(&s.model, Semantics::FaultFree);
    assert!(ck.holds(&problem.arena, ag, s.model.init_states()[0]));
}

#[test]
fn timing_admits_only_fail_safe() {
    // The delay blocks production (coupling) and only the fault's
    // release action clears it, so on fault-free paths the liveness
    // cycle is stuck: masking and nonmasking are impossible, fail-safe
    // is exactly achievable — the Section 2.5 taxonomy, mechanically.
    for (tol, solvable) in [
        (Tolerance::Masking, false),
        (Tolerance::Nonmasking, false),
        (Tolerance::FailSafe, true),
    ] {
        let mut problem = build(BufferFault::Timing, tol);
        let outcome = synthesize(&mut problem);
        assert_eq!(outcome.is_solved(), solvable, "{tol:?}");
        if let ftsyn::SynthesisOutcome::Solved(s) = outcome {
            assert!(s.verification.ok(), "{:?}", s.verification.failures);
        }
    }
}

#[test]
fn failsafe_timing_keeps_handshake_order_across_faults() {
    let mut problem = build(BufferFault::Timing, Tolerance::FailSafe);
    let s = synthesize(&mut problem).unwrap_solved();
    // Safety across fault-prone paths: the consumer never acks an empty
    // buffer out of order — check the handshake-order clause
    // AG((¬full ∧ ¬ack) ⇒ AX2 ¬ack) under plain |=.
    let full = problem.props.id("full").unwrap();
    let ack = problem.props.id("ack").unwrap();
    let (nf, na) = (problem.arena.neg_prop(full), problem.arena.neg_prop(ack));
    let st = problem.arena.and(nf, na);
    let ax = problem.arena.ax(1, na);
    let cl = problem.arena.implies(st, ax);
    let ag = problem.arena.ag(cl);
    let mut ck = Checker::new(&s.model, Semantics::IncludeFaults);
    assert!(ck.holds(&problem.arena, ag, s.model.init_states()[0]));
}

#[test]
fn omission_simulation_recovers_the_cycle() {
    let mut problem = build(BufferFault::Omission, Tolerance::Masking);
    let s = synthesize(&mut problem).unwrap_solved();
    let full = problem.props.id("full").unwrap();
    for seed in 0..10 {
        let cfg = SimConfig {
            steps: 200,
            fault_prob: 0.2,
            max_faults: 5,
            seed,
        };
        let trace = simulate(&s.program, &problem.faults, &problem.props, &cfg);
        // After the last omission the buffer keeps being refilled:
        // `full` recurs in the post-fault suffix.
        let suffix_start = trace.last_fault.map_or(0, |i| i + 1);
        let refills = trace.valuations[suffix_start..]
            .iter()
            .filter(|v| v.contains(full))
            .count();
        assert!(
            refills > 0,
            "seed {seed}: production stalled after omission"
        );
    }
}
