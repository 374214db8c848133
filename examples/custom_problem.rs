//! Authoring your own synthesis problem from textual CTL.
//!
//! This walkthrough builds a problem that appears nowhere in the paper:
//! a traffic-light pair (north-south and east-west) that must never show
//! green together, always eventually serve each direction, and tolerate
//! a *controller glitch* that spontaneously flips the east-west light to
//! red — masked, because the glitch only ever makes the system safer.
//!
//! Run with `cargo run --release --example custom_problem`.

use ftsyn::ctl::{parse::parse, FormulaArena, Owner, PropTable, Spec};
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::{synthesize, SynthesisProblem, Tolerance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the propositions and their owning processes.
    let mut props = PropTable::new();
    for name in ["R1", "G1"] {
        props.add(name, Owner::Process(0))?;
    }
    for name in ["R2", "G2"] {
        props.add(name, Owner::Process(1))?;
    }
    let mut arena = FormulaArena::new(2);

    // 2. Write the specification in the paper's surface syntax.
    let init = parse(&mut arena, &mut props, "R1 & R2", false)?;
    let global = parse(
        &mut arena,
        &mut props,
        "(R1 <-> ~G1) & (R2 <-> ~G2) \
         & ~(G1 & G2) \
         & (R1 -> AX2 R1) & (G1 -> AX2 G1) \
         & (R2 -> AX1 R2) & (G2 -> AX1 G2) \
         & (R1 -> AF G1) & (R2 -> AF G2) \
         & (G1 -> AF R1) & (G2 -> AF R2) \
         & AG EX true",
        false,
    )?;
    let spec = Spec::new(&mut arena, init, global);

    // 3. Describe the fault: a glitch that slams the east-west light to
    // red whenever it is green.
    let g2 = props.id("G2")?;
    let r2 = props.id("R2")?;
    let glitch = FaultAction::new(
        "glitch-EW-to-red",
        BoolExpr::Prop(g2),
        vec![(g2, PropAssign::False), (r2, PropAssign::True)],
    )?;

    // 4. Synthesize with masking tolerance.
    let mut problem = SynthesisProblem::new(arena, props, spec, vec![glitch], Tolerance::Masking);
    let solved = synthesize(&mut problem).unwrap_solved();

    println!("== outcome ==");
    println!(
        "model: {} states, verification {}",
        solved.stats.model_states,
        if solved.verification.ok() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!("\n== synthesized controller ==");
    println!("{}", solved.program.display(&problem.props));

    // 5. Export the model for inspection (Graphviz).
    println!("== graphviz (pipe into `dot -Tsvg` to render) ==");
    println!("{}", solved.model.to_dot(&problem.props));
    Ok(())
}
