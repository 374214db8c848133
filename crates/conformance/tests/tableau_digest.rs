//! Pins the tableaux of the four `solve-tableau` problems and of
//! mutex3-failstop-masking bit for bit, and the `Blocks` counters of
//! three of them.
//!
//! The naive `Blocks` oracle is too slow for mutex4-failstop-masking's
//! 25,000-candidate expansions, so `build_matches_reference_kernels`
//! cannot cover that tableau. These tests instead fold every node's
//! `(kind, label words, dummy, succ, pred)` into one 64-bit digest and
//! compare it with a constant recorded from an earlier build (each test
//! says which). Any change to node ids, labels or edge order moves the
//! digest. They run under plain `cargo test`; CI also runs them in
//! release (`cargo test --release -p ftsyn-conformance --test
//! tableau_digest`), the configuration the benchmark measures.

use ftsyn::problems::{barrier, mutex};
use ftsyn::tableau::{build_with_threads, EdgeKind, NodeKind, Tableau};
use ftsyn::{SynthesisProblem, Tolerance};

/// FNV-1a over 64-bit words, so the digest does not depend on the
/// platform or on a per-process hash seed.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn edges(&mut self, edges: &[(EdgeKind, ftsyn::tableau::NodeId)]) {
        self.word(edges.len() as u64);
        for &(kind, to) in edges {
            let (tag, index) = match kind {
                EdgeKind::Proc(i) => (0, i),
                EdgeKind::Fault(i) => (1, i),
                EdgeKind::Dummy => (2, 0),
                EdgeKind::Unlabeled => (3, 0),
            };
            self.word(tag);
            self.word(index as u64);
            self.word(u64::from(to.0));
        }
    }
}

fn digest(t: &Tableau) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.word(t.len() as u64);
    for node in t.nodes() {
        d.word(match node.kind {
            NodeKind::And => 0,
            NodeKind::Or => 1,
        });
        let words = node.label.words();
        d.word(words.len() as u64);
        for &w in words {
            d.word(w);
        }
        d.word(u64::from(node.dummy));
        d.edges(&node.succ);
        d.edges(&node.pred);
    }
    d.0
}

fn assert_digest(name: &str, mut problem: SynthesisProblem, nodes: usize, expect: u64) {
    let (closure, faults, root) = problem.tableau_inputs();
    for threads in [1, 2] {
        let (t, _) = build_with_threads(&closure, &problem.props, root.clone(), &faults, threads);
        assert_eq!(t.len(), nodes, "{name}@{threads}: node count");
        assert_eq!(
            digest(&t),
            expect,
            "{name}@{threads}: digest {:#018x}",
            digest(&t)
        );
    }
}

/// Constants recorded from the build as it stood before `Blocks`
/// stopped deduplicating its leaves with a hash set and the tableau
/// dropped its global edge index.
#[test]
fn fault_tableaux_are_pinned_bit_for_bit() {
    assert_digest(
        "mutex3-failstop-masking",
        mutex::with_fail_stop(3, Tolerance::Masking),
        2_041,
        0x3c48_e596_b441_d65f,
    );
    assert_digest(
        "barrier3-failstop-impossible",
        barrier::with_fail_stop_impossible(3),
        1_392,
        0x406e_7495_4615_8568,
    );
    assert_digest(
        "mutex4-failstop-masking",
        mutex::with_fail_stop(4, Tolerance::Masking),
        26_202,
        0xe5ad_83ea_d72e_b45d,
    );
}

/// The two `solve-tableau` tableaux the test above leaves out:
/// philosophers5-fault-free (no faults, so every OR-label is a `Tiles`
/// successor) and mutex3-failstop-multitolerance, whose per-action
/// tolerance labels give `Blocks` labels that need the `AX` split.
/// Constants recorded from the build before `Blocks` branched
/// semantically.
#[test]
fn solve_tableau_tableaux_are_pinned_bit_for_bit() {
    assert_digest(
        "philosophers5-fault-free",
        mutex::dining_philosophers(5),
        2_761,
        0x9aff_4e6b_ac0d_f905,
    );
    assert_digest(
        "mutex3-failstop-multitolerance",
        mutex3_multitolerance(),
        3_901,
        0x5dd1_d9c3_2ffb_b7e9,
    );
}

/// The benchmark's multitolerance case: masking for every fault but
/// P1's, which gets nonmasking tolerance.
fn mutex3_multitolerance() -> SynthesisProblem {
    mutex::with_fail_stop_multitolerance(3, |f| {
        if f.name().contains("P1") {
            Tolerance::Nonmasking
        } else {
            Tolerance::Masking
        }
    })
}

/// `BuildProfile`'s `Blocks` counters, `(leaves, plain, reordered)`, at
/// 1 and 2 threads. mutex4's expansions never need the plain search;
/// 229 of barrier3's 600 OR-labels and 49 of the multitolerance case's
/// 586 have a leaf that needs the `AX` split, so they fall back to it.
#[test]
fn blocks_counters_are_pinned() {
    for (name, mut problem, expect) in [
        (
            "mutex4-failstop-masking",
            mutex::with_fail_stop(4, Tolerance::Masking),
            (169_924, 0, 27),
        ),
        (
            "barrier3-failstop-impossible",
            barrier::with_fail_stop_impossible(3),
            (3_173, 229, 10),
        ),
        (
            "mutex3-failstop-multitolerance",
            mutex3_multitolerance(),
            (13_097, 49, 6),
        ),
    ] {
        let (closure, faults, root) = problem.tableau_inputs();
        for threads in [1, 2] {
            let (_, p) =
                build_with_threads(&closure, &problem.props, root.clone(), &faults, threads);
            assert_eq!(
                (p.blocks_leaves, p.blocks_plain, p.blocks_reordered),
                expect,
                "{name}@{threads}"
            );
        }
    }
}
