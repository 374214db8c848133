//! Seeded random synthesis-problem generation for differential fuzzing.
//!
//! Instances are small "region automaton" problems in the style of the
//! paper's examples: each process owns a one-hot block of region
//! propositions, the invariant keeps every process in exactly one
//! region, and optional conflict/liveness conjuncts plus corruption
//! fault actions (which teleport a process between regions, preserving
//! one-hotness) exercise every tolerance level and both certificate
//! modes. Everything is drawn from a caller-supplied [`XorShift64`], so
//! a seed fully determines the instance — the fuzzer builds the same
//! problem twice per seed to compare two independent synthesis runs.

use ftsyn::ctl::{FormulaArena, FormulaId, Owner, PropId, PropTable, Spec};
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::{CertMode, SynthesisProblem, Tolerance, ToleranceAssignment};
use ftsyn_prng::XorShift64;

/// A generated instance: a descriptive name (stable per seed) plus the
/// problem itself.
pub struct GeneratedCase {
    /// Human-readable summary of the drawn structure, e.g.
    /// `procs2-regions3.2-conflict-live1-faults2-PerFault-FaultFree`.
    pub name: String,
    /// The synthesis problem.
    pub problem: SynthesisProblem,
}

const TOLERANCES: [Tolerance; 3] = [
    Tolerance::Masking,
    Tolerance::Nonmasking,
    Tolerance::FailSafe,
];

fn tolerance_tag(t: Tolerance) -> &'static str {
    match t {
        Tolerance::Masking => "mask",
        Tolerance::Nonmasking => "nonmask",
        Tolerance::FailSafe => "failsafe",
    }
}

/// Draws a random synthesis problem. The same RNG state always yields
/// the same problem (the generator consumes a fixed-per-branch number
/// of draws), so building twice from two RNGs seeded alike gives two
/// structurally identical problems with independent arenas.
pub fn random_problem(rng: &mut XorShift64) -> GeneratedCase {
    let n_procs = rng.range(1, 3);
    let regions: Vec<usize> = (0..n_procs).map(|_| rng.range(2, 4)).collect();

    let mut props = PropTable::new();
    let region_props: Vec<Vec<PropId>> = (0..n_procs)
        .map(|i| {
            (0..regions[i])
                .map(|j| {
                    props
                        .add(format!("p{i}r{j}"), Owner::Process(i))
                        .expect("generated names are fresh")
                })
                .collect()
        })
        .collect();

    let mut arena = FormulaArena::new(n_procs);

    // Init: every process sits in its region 0.
    let mut init_conj: Vec<FormulaId> = Vec::new();
    for rs in &region_props {
        for (j, &p) in rs.iter().enumerate() {
            init_conj.push(if j == 0 {
                arena.prop(p)
            } else {
                arena.neg_prop(p)
            });
        }
    }
    let init = arena.and_all(init_conj);

    // Model-of-computation clauses (the paper's Section 2.2, barrier
    // module idiom): one-hot regions per process and interleaving
    // ("other processes preserve my region"). These go in the
    // *coupling* spec, which every tolerance keeps under AG — putting
    // them in `global` instead lets a Nonmasking label (`AF AG global`)
    // suspend them during recovery, and the tableau then certifies
    // structures no concurrent program generates (a `Proc(i)` edge
    // changing process j's propositions), which the differential oracle
    // rejects.
    let mut coupling_conj: Vec<FormulaId> = Vec::new();
    for rs in &region_props {
        let any = {
            let ids: Vec<FormulaId> = rs.iter().map(|&p| arena.prop(p)).collect();
            arena.or_all(ids)
        };
        coupling_conj.push(any);
        for (a, &p) in rs.iter().enumerate() {
            for &q in &rs[a + 1..] {
                let both = {
                    let (fp, fq) = (arena.prop(p), arena.prop(q));
                    arena.and(fp, fq)
                };
                coupling_conj.push(arena.not(both));
            }
        }
    }
    for (i, rs) in region_props.iter().enumerate() {
        for j in 0..n_procs {
            if j == i {
                continue;
            }
            for &p in rs {
                let cur = arena.prop(p);
                let ax = arena.ax(j, cur);
                coupling_conj.push(arena.implies(cur, ax));
            }
        }
    }
    let coupling = arena.and_all(coupling_conj);

    // Problem requirements (tolerance-weakened at perturbed states):
    // optional progress possibility, conflict, and liveness conjuncts.
    let mut global_conj: Vec<FormulaId> = Vec::new();
    let mut tags: Vec<String> = Vec::new();
    for i in 0..n_procs {
        if rng.chance(0.7) {
            let t = arena.tru();
            global_conj.push(arena.ex(i, t));
        }
    }
    let conflict = n_procs == 2 && rng.chance(0.5);
    if conflict {
        // Region 1 is critical: both processes have one (regions ≥ 2).
        let both = {
            let a = arena.prop(region_props[0][1]);
            let b = arena.prop(region_props[1][1]);
            arena.and(a, b)
        };
        global_conj.push(arena.not(both));
        tags.push("conflict".into());
    }
    let mut live = 0;
    for rs in &region_props {
        if rng.chance(0.5) {
            let r0 = arena.prop(rs[0]);
            let af_r1 = {
                let r1 = arena.prop(rs[1]);
                arena.af(r1)
            };
            global_conj.push(arena.implies(r0, af_r1));
            live += 1;
        }
    }
    if live > 0 {
        tags.push(format!("live{live}"));
    }
    let global = arena.and_all(global_conj);
    let spec = Spec::with_coupling(init, global, coupling);

    // Corruption faults: teleport a process from one region to another
    // (one-hotness is preserved, so every outcome maps to a local state
    // of any program over these propositions).
    let mut faults: Vec<FaultAction> = Vec::new();
    for (i, rs) in region_props.iter().enumerate() {
        if !rng.chance(0.5) {
            continue;
        }
        let js = rng.below(rs.len());
        let jt = (js + rng.range(1, rs.len())) % rs.len();
        faults.push(
            FaultAction::new(
                format!("corrupt-P{i}-r{js}to{jt}"),
                BoolExpr::Prop(rs[js]),
                vec![(rs[js], PropAssign::False), (rs[jt], PropAssign::True)],
            )
            .expect("guard reads no shared variable"),
        );
    }

    let (tolerance, tol_tag) = if faults.len() >= 2 && rng.chance(0.5) {
        let tols: Vec<Tolerance> = faults
            .iter()
            .map(|_| *rng.choose(&TOLERANCES).expect("non-empty"))
            .collect();
        let tag = format!(
            "perfault.{}",
            tols.iter()
                .map(|&t| tolerance_tag(t))
                .collect::<Vec<_>>()
                .join(".")
        );
        (ToleranceAssignment::PerFault(tols), tag)
    } else {
        let t = *rng.choose(&TOLERANCES).expect("non-empty");
        (ToleranceAssignment::Uniform(t), tolerance_tag(t).to_owned())
    };

    let fault_prone = rng.chance(0.15);
    let name = format!(
        "procs{n_procs}-regions{}{}-faults{}-{}-{}",
        regions
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("."),
        tags.iter().map(|t| format!("-{t}")).collect::<String>(),
        faults.len(),
        tol_tag,
        if fault_prone {
            "faultprone"
        } else {
            "faultfree"
        },
    );

    let mut problem = SynthesisProblem::new(arena, props, spec, faults, Tolerance::Masking);
    problem.tolerance = tolerance;
    if fault_prone {
        problem.mode = CertMode::FaultProne;
    }
    GeneratedCase { name, problem }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_structure() {
        for seed in 1..=30 {
            let a = random_problem(&mut XorShift64::new(seed));
            let b = random_problem(&mut XorShift64::new(seed));
            assert_eq!(a.name, b.name, "seed {seed}");
            assert_eq!(a.problem.props.len(), b.problem.props.len(), "seed {seed}");
            assert_eq!(
                a.problem.faults.len(),
                b.problem.faults.len(),
                "seed {seed}"
            );
            assert_eq!(a.problem.tolerance, b.problem.tolerance, "seed {seed}");
            assert_eq!(a.problem.mode, b.problem.mode, "seed {seed}");
        }
    }

    #[test]
    fn generator_covers_the_tolerance_and_mode_space() {
        let (mut per_fault, mut fault_prone, mut with_faults, mut fault_free_cases) = (0, 0, 0, 0);
        for seed in 1..=200 {
            let c = random_problem(&mut XorShift64::new(seed));
            match c.problem.tolerance {
                ToleranceAssignment::PerFault(_) => per_fault += 1,
                ToleranceAssignment::Uniform(_) => {}
            }
            if c.problem.mode == CertMode::FaultProne {
                fault_prone += 1;
            }
            if c.problem.faults.is_empty() {
                fault_free_cases += 1;
            } else {
                with_faults += 1;
            }
        }
        assert!(per_fault > 0, "multitolerance cases must occur");
        assert!(fault_prone > 0, "fault-prone certificate cases must occur");
        assert!(
            with_faults > 0 && fault_free_cases > 0,
            "both fault settings"
        );
    }
}
