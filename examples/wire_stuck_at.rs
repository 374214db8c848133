//! Reproduction of the wire example of Section 2.3: the running example
//! the paper uses to introduce its fault model. A wire copies `in` to
//! `out`; the stuck-at-low-voltage fault breaks it (permanently, or
//! intermittently with repair, or a bounded number of times).
//!
//! Run with `cargo run --release --example wire_stuck_at`.

use ftsyn::guarded::sim::{simulate, SimConfig, SimStep};
use ftsyn::problems::wire;

fn main() {
    println!("== the wire and its faults (Section 2.3) ==");
    let w = wire::build(None);
    println!("{}", w.program.display(&w.props));
    for f in &w.faults {
        println!("fault: {}", f.display(&w.props));
    }

    println!("\n== intermittent stuck-at run (fault + repair) ==");
    let cfg = SimConfig {
        steps: 24,
        fault_prob: 0.3,
        max_faults: 4,
        seed: 42,
    };
    let trace = simulate(&w.program, &w.faults, &w.props, &cfg);
    for (i, v) in trace.valuations.iter().enumerate() {
        let out = if v.contains(w.wire_props.output) {
            1
        } else {
            0
        };
        let broken = v.contains(w.wire_props.broken);
        let step = if i == 0 {
            "init".to_owned()
        } else {
            match &trace.steps[i - 1] {
                SimStep::Proc { .. } => "wire".to_owned(),
                SimStep::Fault { index } => format!("FAULT {}", w.faults[*index].name()),
                SimStep::Deadlock => "deadlock".to_owned(),
            }
        };
        println!("  t={i:>2}  out={out}  broken={broken:<5}  ({step})");
    }

    println!("\n== bounded variant: at most k=2 stuck-at occurrences ==");
    let wb = wire::build(Some(2));
    for f in &wb.faults {
        println!("fault: {}", f.display(&wb.props));
    }
    let cfg = SimConfig {
        steps: 200,
        fault_prob: 0.5,
        max_faults: 100,
        seed: 7,
    };
    // Only the stuck-at actions; the unary counter enforces the bound.
    let trace = simulate(&wb.program, &wb.faults[..2], &wb.props, &cfg);
    println!(
        "stuck-at occurrences over {} steps: {} (bounded by 2)",
        trace.steps.len(),
        trace.fault_count()
    );
}
