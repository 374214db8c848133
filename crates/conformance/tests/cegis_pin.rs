//! Pins the CEGIS engine's results bit for bit.
//!
//! For each case the benchmark runs under CEGIS (the four `solve-cegis`
//! problems and the two CEGIS requests of `daemon-mix`), this test runs
//! [`cegis_synthesize`] at 1, 2 and 8 threads and compares the outcome,
//! every [`CegisProfile`] counter, the model's state and program
//! transition counts, and an FNV-1a digest of the rendered program with
//! constants recorded before the candidate loop stopped allocating per
//! candidate. At 2 and 8 threads the certificate races the search; an
//! `Impossible` reports the certificate alone, so barrier3's search
//! counters read 0 at every thread count (they were re-recorded when
//! the race landed; every other constant predates it). A search change
//! shows only through these outputs:
//! reversing the order children are pushed fails it (mutex3 then
//! examines 28 candidates instead of 10), but a reordering that examines
//! as many candidates and accepts the same model passes. CI runs it in
//! release (`cargo test --release -p ftsyn-conformance --test
//! cegis_pin`), the configuration the benchmark measures.

use ftsyn::problems::{barrier, mutex};
use ftsyn::{
    cegis_synthesize, CegisProfile, SynthesisOutcome, SynthesisProblem, ThreadPlan, Tolerance,
};
use ftsyn_service::corpus;

/// FNV-1a over bytes, so the digest does not depend on the platform or
/// on a per-process hash seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one CEGIS run must produce.
struct Pin {
    /// `"solved"` or `"impossible"`.
    outcome: &'static str,
    /// Digest of `program.display` (0 when nothing was synthesized).
    program: u64,
    profile: CegisProfile,
    model_states: usize,
    program_transitions: usize,
}

fn multitolerance3() -> SynthesisProblem {
    mutex::with_fail_stop_multitolerance(3, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    })
}

fn assert_pinned(name: &str, make: &dyn Fn() -> SynthesisProblem, pin: &Pin) {
    for threads in [1, 2, 8] {
        let mut problem = make();
        let outcome = cegis_synthesize(&mut problem, ThreadPlan::uniform(threads), None);
        let (kind, program, stats) = match &outcome {
            SynthesisOutcome::Solved(s) => (
                "solved",
                fnv1a(s.program.display(&problem.props).as_bytes()),
                &s.stats,
            ),
            SynthesisOutcome::Impossible(i) => ("impossible", 0, &i.stats),
            SynthesisOutcome::Aborted(a) => panic!("{name}@{threads}: aborted: {}", a.reason),
        };
        let at = format!("{name}@{threads}");
        assert_eq!(kind, pin.outcome, "{at}: outcome");
        assert_eq!(stats.cegis_profile, pin.profile, "{at}: CEGIS profile");
        assert_eq!(
            (stats.model_states, stats.program_transitions),
            (pin.model_states, pin.program_transitions),
            "{at}: model states / program transitions"
        );
        assert_eq!(program, pin.program, "{at}: program digest {program:#018x}");
    }
}

/// The `daemon-mix` requests name corpus problems; build them the way
/// the daemon does.
fn from_corpus(name: &'static str) -> impl Fn() -> SynthesisProblem {
    move || corpus::problem(name).expect("a corpus name")
}

#[test]
fn solve_cegis_cases_are_pinned() {
    assert_pinned(
        "mutex4-failstop-masking",
        &|| mutex::with_fail_stop(4, Tolerance::Masking),
        &Pin {
            outcome: "solved",
            program: 0x1bf1_b30c_52de_9045,
            profile: CegisProfile {
                universe: 189,
                banned: 0,
                opaque_conjuncts: 4,
                candidates: 93,
                oracle_rejections: 72,
                blocked: 93,
                max_bound_tried: 4,
                solved_at_bound: Some(4),
                peak_base_states: 320,
                certificate_nodes: 0,
            },
            model_states: 320,
            program_transitions: 968,
        },
    );
    assert_pinned(
        "mutex3-failstop-multitolerance",
        &multitolerance3,
        &MULTITOLERANCE3,
    );
    assert_pinned(
        "philosophers4-fault-free",
        &|| mutex::dining_philosophers(4),
        &Pin {
            outcome: "solved",
            program: 0x0723_1117_dcc0_71f6,
            profile: CegisProfile {
                universe: 207,
                banned: 0,
                opaque_conjuncts: 0,
                candidates: 43,
                oracle_rejections: 14,
                blocked: 43,
                max_bound_tried: 4,
                solved_at_bound: Some(4),
                peak_base_states: 139,
                certificate_nodes: 0,
            },
            model_states: 107,
            program_transitions: 170,
        },
    );
    assert_pinned(
        "barrier3-failstop-impossible",
        &|| barrier::with_fail_stop_impossible(3),
        &Pin {
            outcome: "impossible",
            program: 0,
            profile: CegisProfile {
                universe: 125,
                banned: 0,
                opaque_conjuncts: 3,
                candidates: 0,
                oracle_rejections: 0,
                blocked: 0,
                max_bound_tried: 0,
                solved_at_bound: None,
                peak_base_states: 0,
                certificate_nodes: 1392,
            },
            model_states: 0,
            program_transitions: 0,
        },
    );
}

/// `mutex3-failstop-multitolerance` (`solve-cegis`) and the corpus's
/// `multitolerance-mutex3-P1-nonmasking` (`daemon-mix`) are the same
/// problem, built by two constructors.
const MULTITOLERANCE3: Pin = Pin {
    outcome: "solved",
    program: 0x69bd_664e_e182_d220,
    profile: CegisProfile {
        universe: 57,
        banned: 455,
        opaque_conjuncts: 3,
        candidates: 10,
        oracle_rejections: 6,
        blocked: 10,
        max_bound_tried: 3,
        solved_at_bound: Some(3),
        peak_base_states: 102,
        certificate_nodes: 0,
    },
    model_states: 102,
    program_transitions: 345,
};

#[test]
fn daemon_mix_cegis_cases_are_pinned() {
    assert_pinned(
        "mutex3-failstop-masking",
        &from_corpus("mutex3-failstop-masking"),
        &Pin {
            outcome: "solved",
            program: 0x9b20_f81f_99c8_fdea,
            profile: CegisProfile {
                universe: 54,
                banned: 0,
                opaque_conjuncts: 3,
                candidates: 10,
                oracle_rejections: 6,
                blocked: 10,
                max_bound_tried: 3,
                solved_at_bound: Some(3),
                peak_base_states: 68,
                certificate_nodes: 0,
            },
            model_states: 68,
            program_transitions: 204,
        },
    );
    assert_pinned(
        "multitolerance-mutex3-P1-nonmasking",
        &from_corpus("multitolerance-mutex3-P1-nonmasking"),
        &MULTITOLERANCE3,
    );
}
