//! The deletion rules of the synthesis method (Figure 2) and the
//! fulfillment certificates they rely on.
//!
//! The rules differ from the plain CTL decision procedure in two ways
//! (Section 5.2): `DeleteAND` also fires when a *fault*-successor is
//! deleted, and the eventuality rules `DeleteAU`/`DeleteEU` certify
//! fulfillment with *fault-free* full subdags / paths — fault successors
//! may be absent from a certificate, but all `Tiles` successors of an
//! interior AND-node must be present.
//!
//! # Worklist engine
//!
//! [`apply_deletion_rules_mode`] is a worklist implementation:
//!
//! * `DeleteOR`/`DeleteAND` cascade through the graph's [deletion
//!   log](Tableau::deletion_log) using the per-node alive-successor
//!   counters, so structural propagation costs O(E) total over the
//!   whole run instead of O(rounds · N) full-graph sweeps.
//! * `DeleteAU`/`DeleteEU` certificates are built by a monotone rank
//!   worklist (a bucket queue seeded from the `h`-labeled nodes) in
//!   O(E) per build, replacing the O(N · E) `while changed` sweeps; a
//!   per-eventuality cursor into the deletion log skips certificates
//!   whose graph has not changed since they were last checked.
//!
//! The sweep-based engine it replaced lives on as an oracle in
//! `ftsyn_conformance::reference`. Both engines visit the same rule
//! phases in the same order, so they produce identical alive sets
//! *and* identical per-rule [`DeletionStats`]; the conformance
//! `engine_equivalence` suite checks that, and the fulfillment
//! certificates, on every pipeline problem in both [`CertMode`]s.

use crate::governor::{AbortReason, Governor};
use crate::graph::{EdgeKind, NodeId, NodeKind, Tableau};
use ftsyn_ctl::{Closure, ClosureIdx, EntryKind, LabelSet};
use std::time::{Duration, Instant};

/// How many structural worklist pops between wall-clock deadline polls
/// (the deterministic work-cap check happens on every pop — it is two
/// branch instructions — but `Instant::now` is not free).
const REALTIME_POLL_INTERVAL: usize = 1024;

/// Which paths certify the fulfillment of eventualities (and hence which
/// correctness statement the synthesized program enjoys).
///
/// * [`CertMode::FaultFree`] — the paper's main method (Section 5):
///   eventualities are certified along fault-free subdags/paths, and the
///   synthesized program is correct under the relativized `⊨ₙ` (once
///   faults stop occurring).
/// * [`CertMode::FaultProne`] — the alternative method of Section 8.3:
///   certificates must include the fault successors of every interior
///   AND-node, so eventualities are fulfilled even along paths on which
///   faults keep occurring, and the program is correct under the plain
///   `⊨`. Stronger, but applicable to fewer problems (a repeatable
///   fault can make any liveness property unachievable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CertMode {
    /// Fault-free certificates (`⊨ₙ` correctness) — the default.
    FaultFree,
    /// Fault-inclusive certificates (`⊨` correctness), Section 8.3.
    FaultProne,
}

impl CertMode {
    /// Whether an edge participates in certificates under this mode.
    pub fn admits(self, kind: EdgeKind) -> bool {
        match self {
            CertMode::FaultFree => !kind.is_fault(),
            CertMode::FaultProne => true,
        }
    }
}

/// Counters of how many nodes each rule removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeletionStats {
    /// `DeleteP`: propositionally inconsistent labels.
    pub prop_inconsistent: usize,
    /// `DeleteOR`: OR-nodes with all successors deleted.
    pub or_without_children: usize,
    /// `DeleteAND`: AND-nodes with a deleted (incl. fault) successor.
    pub and_missing_successor: usize,
    /// `DeleteAU`: nodes with an unfulfillable `A[gUh]`.
    pub au_unfulfilled: usize,
    /// `DeleteEU`: nodes with an unfulfillable `E[gUh]`.
    pub eu_unfulfilled: usize,
    /// Nodes removed because they became unreachable from the root.
    pub unreachable: usize,
}

impl DeletionStats {
    /// Total nodes removed.
    pub fn total(&self) -> usize {
        self.prop_inconsistent
            + self.or_without_children
            + self.and_missing_successor
            + self.au_unfulfilled
            + self.eu_unfulfilled
            + self.unreachable
    }
}

/// Per-rule timings and worklist counters collected by one
/// [`apply_deletion_rules_profiled`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeletionProfile {
    /// Time spent in the one-shot `DeleteP` sweep.
    pub delete_p_time: Duration,
    /// Time spent cascading `DeleteOR`/`DeleteAND` through the worklist.
    pub structural_time: Duration,
    /// Time spent building certificates and applying `DeleteAU`/`DeleteEU`.
    pub eventuality_time: Duration,
    /// Time spent in the final reachability restriction.
    pub reachability_time: Duration,
    /// Outer rounds until no eventuality rule fired.
    pub rounds: usize,
    /// Deletion-log entries consumed by the structural cascade (each one
    /// is a pop of the structural worklist).
    pub worklist_pops: usize,
    /// Fulfillment certificates built from scratch.
    pub cert_builds: usize,
    /// Certificate checks skipped because no deletion intervened since
    /// the eventuality was last checked.
    pub cert_reuses: usize,
    /// Distinct live eventualities in the first round.
    pub eventualities: usize,
}

impl DeletionProfile {
    /// Total time across all deletion phases.
    pub fn total_time(&self) -> Duration {
        self.delete_p_time + self.structural_time + self.eventuality_time + self.reachability_time
    }
}

/// A fulfillment certificate for one eventuality: for every alive node,
/// whether the eventuality is fault-free-fulfillable from it, and a rank
/// that strictly decreases along a fulfilling subdag (used to extract
/// the acyclic `FDAG`s during unraveling).
#[derive(Clone, Debug)]
pub struct Fulfillment {
    /// Per node: fulfillable?
    pub fulfilled: Vec<bool>,
    /// Per node: certificate rank (0 = immediate). Meaningful only where
    /// `fulfilled` is true.
    pub rank: Vec<u32>,
}

impl Fulfillment {
    fn new(n: usize) -> Fulfillment {
        Fulfillment {
            fulfilled: vec![false; n],
            rank: vec![u32::MAX; n],
        }
    }

    /// Whether `id` is fulfilled.
    pub fn is_fulfilled(&self, id: NodeId) -> bool {
        self.fulfilled[id.index()]
    }
}

/// Rank-ordered worklist for certificate construction: nodes finalized
/// at rank `r` live in bucket `r`; processing a bucket may finalize OR
/// predecessors into the same bucket and AND predecessors into bucket
/// `r + 1`, so every node and edge is handled exactly once.
struct BucketQueue {
    buckets: Vec<Vec<NodeId>>,
}

impl BucketQueue {
    fn new() -> BucketQueue {
        BucketQueue {
            buckets: vec![Vec::new()],
        }
    }

    fn push(&mut self, rank: u32, id: NodeId) {
        let r = rank as usize;
        if self.buckets.len() <= r {
            self.buckets.resize_with(r + 1, Vec::new);
        }
        self.buckets[r].push(id);
    }
}

/// Computes fault-free fulfillment of `A[gUh]` (`g`, `h` as closure
/// indices) for every alive node.
///
/// An AND-node is fulfilled at rank 0 if `h ∈ L(c)`; at rank `r+1` if
/// `g ∈ L(c)` and *every* non-fault OR-successor has some fulfilled
/// AND-child of rank ≤ `r`. An OR-node is fulfilled if *some* alive
/// AND-child is fulfilled.
///
/// Implemented as a single monotone pass over a rank bucket queue
/// seeded from the `h`-labeled AND-nodes: each AND-node keeps a pending
/// count of its admissible alive successor edges and is finalized when
/// the count reaches zero, so the whole certificate costs O(N + E).
pub fn au_fulfillment(
    t: &Tableau,
    closure: &Closure,
    g: ClosureIdx,
    h: ClosureIdx,
    mode: CertMode,
) -> Fulfillment {
    let n = t.len();
    let mut f = Fulfillment::new(n);
    // `AF h = A[true U h]`: the arena folds `true ∧ x` to `x`, so `true`
    // never appears in labels — treat it as universally present.
    let g_holds = |l: &LabelSet| g == closure.true_idx() || l.contains(g);
    // Pending admissible alive successor edges per AND-node, seeded from
    // the graph's incrementally-maintained counters (no edge scan). A
    // node with no admissible alive successor is never finalized through
    // this counter, which encodes the reference engine's "at least one
    // successor" requirement.
    let mut pending: Vec<u32> = vec![0; n];
    let mut queue = BucketQueue::new();
    for id in t.node_ids() {
        if !t.alive(id) {
            continue;
        }
        let node = t.node(id);
        if node.kind != NodeKind::And {
            continue;
        }
        if node.label.contains(h) {
            f.fulfilled[id.index()] = true;
            f.rank[id.index()] = 0;
            queue.push(0, id);
        } else {
            pending[id.index()] = match mode {
                CertMode::FaultFree => node.alive_succ_prog,
                CertMode::FaultProne => node.alive_succ_total(),
            };
        }
    }
    let mut r = 0usize;
    while r < queue.buckets.len() {
        let mut i = 0;
        while i < queue.buckets[r].len() {
            let id = queue.buckets[r][i];
            i += 1;
            // `id` is finalized at rank `r`; propagate to predecessors.
            let np = t.node(id).pred.len();
            for pi in 0..np {
                let (kind, p) = t.node(id).pred[pi];
                if !t.alive(p) || f.fulfilled[p.index()] {
                    continue;
                }
                match t.node(p).kind {
                    NodeKind::Or => {
                        // First fulfilled child is the minimum rank.
                        f.fulfilled[p.index()] = true;
                        f.rank[p.index()] = r as u32;
                        queue.buckets[r].push(p);
                    }
                    NodeKind::And => {
                        if !mode.admits(kind) || !g_holds(&t.node(p).label) {
                            continue;
                        }
                        pending[p.index()] -= 1;
                        if pending[p.index()] == 0 {
                            f.fulfilled[p.index()] = true;
                            f.rank[p.index()] = r as u32 + 1;
                            queue.push(r as u32 + 1, p);
                        }
                    }
                }
            }
        }
        r += 1;
    }
    f
}

/// Computes fault-free fulfillment of `E[gUh]` for every alive node: an
/// AND-node is fulfilled at rank 0 if `h ∈ L(c)`, at rank `r+1` if
/// `g ∈ L(c)` and *some* non-fault OR-successor has a fulfilled AND-child
/// of rank ≤ `r`; an OR-node if some alive AND-child is fulfilled.
///
/// Single monotone bucket-queue pass, like [`au_fulfillment`] but with
/// an existential (first-successor) trigger instead of a pending count.
pub fn eu_fulfillment(
    t: &Tableau,
    closure: &Closure,
    g: ClosureIdx,
    h: ClosureIdx,
    mode: CertMode,
) -> Fulfillment {
    let n = t.len();
    let mut f = Fulfillment::new(n);
    let g_holds = |l: &LabelSet| g == closure.true_idx() || l.contains(g);
    let mut queue = BucketQueue::new();
    for id in t.node_ids() {
        if t.alive(id) && t.node(id).kind == NodeKind::And && t.node(id).label.contains(h) {
            f.fulfilled[id.index()] = true;
            f.rank[id.index()] = 0;
            queue.push(0, id);
        }
    }
    let mut r = 0usize;
    while r < queue.buckets.len() {
        let mut i = 0;
        while i < queue.buckets[r].len() {
            let id = queue.buckets[r][i];
            i += 1;
            let np = t.node(id).pred.len();
            for pi in 0..np {
                let (kind, p) = t.node(id).pred[pi];
                if !t.alive(p) || f.fulfilled[p.index()] {
                    continue;
                }
                match t.node(p).kind {
                    NodeKind::Or => {
                        f.fulfilled[p.index()] = true;
                        f.rank[p.index()] = r as u32;
                        queue.buckets[r].push(p);
                    }
                    NodeKind::And => {
                        if mode.admits(kind) && g_holds(&t.node(p).label) {
                            f.fulfilled[p.index()] = true;
                            f.rank[p.index()] = r as u32 + 1;
                            queue.push(r as u32 + 1, p);
                        }
                    }
                }
            }
        }
        r += 1;
    }
    f
}

/// All distinct eventualities (`AU`/`EU`) occurring in alive labels, as
/// `(closure idx, g, h, is_au)`, in order of first occurrence (node-id
/// order, then closure-index order within a label).
///
/// Works closure-side: the `AU`/`EU` members of the closure are few, so
/// one O(N) membership scan per candidate beats iterating every label
/// bit of every node (the order produced is identical — a label is
/// iterated in ascending closure index, so first-occurrence order is
/// lexicographic in `(first containing node, closure index)`).
fn live_eventualities(
    t: &Tableau,
    closure: &Closure,
) -> Vec<(ClosureIdx, ClosureIdx, ClosureIdx, bool)> {
    let mut live: Vec<(u32, (ClosureIdx, ClosureIdx, ClosureIdx, bool))> = Vec::new();
    for idx in closure.indices() {
        let cand = match closure.entry(idx).kind {
            EntryKind::Au { g, h, .. } => (idx, g, h, true),
            EntryKind::Eu { g, h, .. } => (idx, g, h, false),
            _ => continue,
        };
        if let Some(first) = t
            .node_ids()
            .find(|&id| t.alive(id) && t.node(id).label.contains(idx))
        {
            live.push((first.0, cand));
        }
    }
    live.sort_by_key(|&(first, (idx, ..))| (first, idx));
    live.into_iter().map(|(_, cand)| cand).collect()
}

/// Applies the deletion rules of Figure 2 until no rule is applicable,
/// then restricts to the nodes still reachable from the root. Returns
/// per-rule statistics. (If the root is deleted, the synthesis problem
/// is impossible — Corollary 7.2.)
pub fn apply_deletion_rules(t: &mut Tableau, closure: &Closure) -> DeletionStats {
    apply_deletion_rules_mode(t, closure, CertMode::FaultFree)
}

/// [`apply_deletion_rules`] with an explicit certificate mode
/// (Section 8.3's alternative method uses [`CertMode::FaultProne`]).
pub fn apply_deletion_rules_mode(
    t: &mut Tableau,
    closure: &Closure,
    mode: CertMode,
) -> DeletionStats {
    apply_deletion_rules_profiled(t, closure, mode).0
}

/// Drains the deletion log from `cursor`, cascading `DeleteAND` (any
/// deleted successor, faults included — Section 5.2) and `DeleteOR`
/// (alive-successor counter at zero) to predecessors until quiescent.
///
/// Updates `profile.worklist_pops` in place and, when governed, checks
/// the deterministic work cap (pops + certificate builds) on every pop
/// and the wall-clock deadline every [`REALTIME_POLL_INTERVAL`] pops.
fn structural_cascade(
    t: &mut Tableau,
    cursor: &mut usize,
    stats: &mut DeletionStats,
    profile: &mut DeletionProfile,
    gov: Option<&Governor>,
) -> Result<(), AbortReason> {
    while *cursor < t.deletion_log().len() {
        let d = t.deletion_log()[*cursor];
        *cursor += 1;
        profile.worklist_pops += 1;
        if let Some(g) = gov {
            g.check_deletion_work(profile.worklist_pops + profile.cert_builds)?;
            if profile.worklist_pops.is_multiple_of(REALTIME_POLL_INTERVAL) {
                g.check_realtime()?;
            }
        }
        let np = t.node(d).pred.len();
        for pi in 0..np {
            let (_, p) = t.node(d).pred[pi];
            if !t.alive(p) {
                continue;
            }
            match t.node(p).kind {
                NodeKind::And => {
                    // DeleteAND: `d` is a deleted successor of `p`.
                    t.delete(p);
                    stats.and_missing_successor += 1;
                }
                NodeKind::Or => {
                    if t.node(p).alive_succ_total() == 0 {
                        t.delete(p);
                        stats.or_without_children += 1;
                    }
                }
            }
        }
    }
    Ok(())
}

/// [`apply_deletion_rules_mode`] returning per-rule timings and
/// worklist counters alongside the deletion statistics.
pub fn apply_deletion_rules_profiled(
    t: &mut Tableau,
    closure: &Closure,
    mode: CertMode,
) -> (DeletionStats, DeletionProfile) {
    apply_deletion_rules_governed(t, closure, mode, None)
        .unwrap_or_else(|a| panic!("ungoverned deletion aborted: {}", a.reason))
}

/// Partial results of a governed deletion run that exceeded its budget:
/// the [`AbortReason`] plus the statistics and profile accumulated up to
/// the abort point.
#[derive(Clone, Debug)]
pub struct DeletionAbort {
    /// Which limit tripped.
    pub reason: AbortReason,
    /// Per-rule deletion counts up to the abort point.
    pub stats: DeletionStats,
    /// Timings and worklist counters up to the abort point.
    pub profile: DeletionProfile,
}

/// [`apply_deletion_rules_profiled`] under an optional [`Governor`]
/// (`None` never aborts): the work cap is checked against
/// `worklist_pops + cert_builds` (both deterministic — the deletion
/// engine is single-threaded), the deadline/cancel flag at bounded
/// intervals. On abort the tableau is left mid-deletion and should be
/// discarded.
pub fn apply_deletion_rules_governed(
    t: &mut Tableau,
    closure: &Closure,
    mode: CertMode,
    gov: Option<&Governor>,
) -> Result<(DeletionStats, DeletionProfile), Box<DeletionAbort>> {
    let mut stats = DeletionStats::default();
    let mut profile = DeletionProfile::default();
    match deletion_core(t, closure, mode, gov, &mut stats, &mut profile) {
        Ok(()) => Ok((stats, profile)),
        Err(reason) => Err(Box::new(DeletionAbort {
            reason,
            stats,
            profile,
        })),
    }
}

/// Shared deletion engine: the worklist implementation, optionally
/// governed. `stats`/`profile` are out-parameters so an abort still
/// surfaces the partial counters.
fn deletion_core(
    t: &mut Tableau,
    closure: &Closure,
    mode: CertMode,
    gov: Option<&Governor>,
    stats: &mut DeletionStats,
    profile: &mut DeletionProfile,
) -> Result<(), AbortReason> {
    // Cursor into the deletion log for structural propagation, and one
    // per eventuality for certificate staleness checks.
    let mut cursor = t.deletion_log().len();

    // DeleteP (once: labels never change afterwards).
    let t0 = Instant::now();
    for id in t.node_ids().collect::<Vec<_>>() {
        if t.alive(id) && !closure.is_prop_consistent(&t.node(id).label) {
            t.delete(id);
            stats.prop_inconsistent += 1;
        }
    }
    profile.delete_p_time = t0.elapsed();

    // Seed DeleteOR: an OR-node can be *built* childless (every block of
    // its label is propositionally inconsistent), and the cascade only
    // visits predecessors of deleted nodes — catch those with one O(N)
    // sweep; everything later is reached through the log.
    let t0 = Instant::now();
    for id in t.node_ids().collect::<Vec<_>>() {
        if t.alive(id) && t.node(id).kind == NodeKind::Or && t.node(id).alive_succ_total() == 0 {
            t.delete(id);
            stats.or_without_children += 1;
        }
    }
    profile.structural_time += t0.elapsed();
    let mut cert_cursor: std::collections::HashMap<ClosureIdx, usize> =
        std::collections::HashMap::new();

    loop {
        profile.rounds += 1;

        // Structural propagation (DeleteOR / DeleteAND) to quiescence.
        let t0 = Instant::now();
        let cascaded = structural_cascade(t, &mut cursor, stats, profile, gov);
        profile.structural_time += t0.elapsed();
        cascaded?;

        // Eventuality rules. Deletions here are *not* cascaded until the
        // next round, mirroring the reference engine's phase order so
        // per-rule attribution is identical.
        let t0 = Instant::now();
        let mut removed_any = false;
        let evs = live_eventualities(t, closure);
        if profile.rounds == 1 {
            profile.eventualities = evs.len();
        }
        for (idx, g, h, is_au) in evs {
            // Unchanged graph since this eventuality was last certified:
            // deletions only shrink certificates, and the prior pass
            // already removed every unfulfilled labeled node, so the
            // check is a guaranteed no-op.
            if cert_cursor.get(&idx) == Some(&t.deletion_log().len()) {
                profile.cert_reuses += 1;
                continue;
            }
            // Certificate builds are the expensive unit of eventuality
            // work: poll before each one (the skip above is counted as a
            // reuse, not as work, so the abort point stays deterministic).
            if let Some(gv) = gov {
                if let Err(reason) = gv
                    .check_deletion_work(profile.worklist_pops + profile.cert_builds)
                    .and_then(|()| gv.check_realtime())
                {
                    profile.eventuality_time += t0.elapsed();
                    return Err(reason);
                }
            }
            let f = if is_au {
                au_fulfillment(t, closure, g, h, mode)
            } else {
                eu_fulfillment(t, closure, g, h, mode)
            };
            profile.cert_builds += 1;
            for id in t.node_ids().collect::<Vec<_>>() {
                if t.alive(id) && t.node(id).label.contains(idx) && !f.is_fulfilled(id) {
                    t.delete(id);
                    if is_au {
                        stats.au_unfulfilled += 1;
                    } else {
                        stats.eu_unfulfilled += 1;
                    }
                    removed_any = true;
                }
            }
            // Removing unfulfilled nodes never unfulfills a surviving
            // node for the *same* eventuality, so the certificate is
            // clean as of the log position after our own deletions.
            cert_cursor.insert(idx, t.deletion_log().len());
        }
        profile.eventuality_time += t0.elapsed();
        if !removed_any {
            break;
        }
    }

    let t0 = Instant::now();
    stats.unreachable = t.restrict_to_reachable();
    profile.reachability_time = t0.elapsed();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, FaultSpec};
    use ftsyn_ctl::{parse::parse, FormulaArena, Owner, PropTable};
    use ftsyn_guarded::{BoolExpr, FaultAction, PropAssign};

    /// The closure and fault-free tableau of a one-process `spec` over
    /// `p`, `q`.
    fn setup(spec: &str) -> (Closure, Tableau) {
        let mut props = PropTable::new();
        props.add("p", Owner::Process(0)).unwrap();
        props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let f = parse(&mut arena, &mut props, spec, true).unwrap();
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        let t = build(&cl, &props, root, &FaultSpec::none());
        (cl, t)
    }

    fn run(spec: &str) -> (Tableau, DeletionStats) {
        let (cl, mut t) = setup(spec);
        let stats = apply_deletion_rules(&mut t, &cl);
        (t, stats)
    }

    /// The pre-worklist `live_eventualities`: one pass over every label
    /// bit of every alive node — the oracle for the closure-side scan.
    fn live_eventualities_sweep(
        t: &Tableau,
        closure: &Closure,
    ) -> Vec<(ClosureIdx, ClosureIdx, ClosureIdx, bool)> {
        let mut seen: LabelSet = closure.empty_label();
        let mut out = Vec::new();
        for id in t.node_ids() {
            if !t.alive(id) {
                continue;
            }
            for idx in t.node(id).label.iter() {
                if seen.contains(idx) {
                    continue;
                }
                seen.insert(idx);
                match closure.entry(idx).kind {
                    EntryKind::Au { g, h, .. } => out.push((idx, g, h, true)),
                    EntryKind::Eu { g, h, .. } => out.push((idx, g, h, false)),
                    _ => {}
                }
            }
        }
        out
    }

    #[test]
    fn satisfiable_root_survives() {
        let (t, _) = run("p & AG(EX1 true)");
        assert!(t.alive(t.root()));
    }

    #[test]
    fn contradiction_deletes_root() {
        let (t, stats) = run("p & ~p");
        assert!(!t.alive(t.root()));
        assert!(stats.or_without_children >= 1);
    }

    #[test]
    fn unfulfillable_eventuality_deletes_root() {
        // AG ~p ∧ AF p is unsatisfiable: the AF p eventuality can never
        // be fulfilled while ~p is invariant.
        let (t, stats) = run("AG ~p & AF p & AG EX1 true");
        assert!(!t.alive(t.root()), "stats: {stats:?}");
        assert!(stats.au_unfulfilled >= 1);
    }

    #[test]
    fn fulfillable_eventuality_survives() {
        let (t, _) = run("~p & AF p & AG EX1 true");
        assert!(t.alive(t.root()));
    }

    #[test]
    fn eg_vs_af_conflict_deleted() {
        // EG ~p together with AF p is unsatisfiable (every path must
        // reach p, but some path keeps ¬p forever).
        let (t, _) = run("EG ~p & AF p & AG EX1 true");
        assert!(!t.alive(t.root()));
    }

    #[test]
    fn eu_fulfillment_via_some_path() {
        // EF p is satisfiable even when q-branches exist.
        let (t, _) = run("EF p & AG EX1 true");
        assert!(t.alive(t.root()));
    }

    #[test]
    fn fault_to_unsatisfiable_state_cascades() {
        // Spec: p invariantly true and provable; fault forces ¬p with a
        // *masking* tolerance label AG p — the perturbed OR-node label
        // {¬p, AG p} is propositionally inconsistent (AG p's α₁ is p),
        // so the fault-successor dies and DeleteAND kills every AND-node,
        // making the problem impossible.
        let mut props = PropTable::new();
        let p = props.add("p", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let spec = parse(&mut arena, &mut props, "p & AG p & AG EX1 true", false).unwrap();
        let tolf = parse(&mut arena, &mut props, "AG p & AG EX1 true", false).unwrap();
        let cl = Closure::build(&mut arena, &props, &[spec, tolf]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(spec).unwrap());
        let mut tol = cl.empty_label();
        for c in arena.conjuncts(tolf) {
            tol.insert(cl.index_of(c).unwrap());
        }
        let action =
            FaultAction::new("kill-p", BoolExpr::Prop(p), vec![(p, PropAssign::False)]).unwrap();
        let fs = FaultSpec::uniform(vec![action], tol);
        let mut t = build(&cl, &props, root, &fs);
        let stats = apply_deletion_rules(&mut t, &cl);
        assert!(!t.alive(t.root()), "stats: {stats:?}");
        assert!(stats.and_missing_successor >= 1);
    }

    #[test]
    fn deferred_af_fulfilled_one_step_later() {
        // ~p ∧ AF p is satisfiable: the AF branch that would fulfill
        // immediately is propositionally inconsistent (p ∧ ¬p), but the
        // deferring branch carries AX(AF p) — and, via the EXᵢtrue
        // split, a real successor where p finally holds.
        let (t, stats) = run("~p & AF p");
        assert!(t.alive(t.root()), "stats: {stats:?}");
        assert_eq!(stats.au_unfulfilled, 0);
    }

    #[test]
    fn stats_total_adds_up() {
        let (_, stats) = run("p & ~p");
        assert_eq!(
            stats.total(),
            stats.prop_inconsistent
                + stats.or_without_children
                + stats.and_missing_successor
                + stats.au_unfulfilled
                + stats.eu_unfulfilled
                + stats.unreachable
        );
    }

    /// The closure-side eventuality scan lists the same eventualities,
    /// in the same order, as the label sweep. (The fulfillment
    /// certificates themselves are checked against the sweep-based
    /// oracle in the conformance `engine_equivalence` suite.)
    #[test]
    fn live_eventualities_match_label_sweep() {
        for spec in [
            "~p & AF p",
            "EF p & AG EX1 true",
            "AF (p & q) & AG EX1 true",
            "E[p U q] & A[true U p] & AG EX1 true",
            "EG ~p & AF p & AG EX1 true",
        ] {
            let (cl, mut t) = setup(spec);
            assert_eq!(
                live_eventualities(&t, &cl),
                live_eventualities_sweep(&t, &cl),
                "closure-side eventuality scan diverges from the label sweep for `{spec}`"
            );
            // Again after deletion, when some labels are no longer alive.
            apply_deletion_rules(&mut t, &cl);
            assert_eq!(
                live_eventualities(&t, &cl),
                live_eventualities_sweep(&t, &cl),
                "scans diverge after deletion for `{spec}`"
            );
        }
    }

    /// The profiled entry point reports worklist activity consistent
    /// with the deletions performed.
    #[test]
    fn profile_counters_are_consistent() {
        let (cl, mut t) = setup("AG ~p & AF p & AG EX1 true");
        let (stats, profile) = apply_deletion_rules_profiled(&mut t, &cl, CertMode::FaultFree);
        assert!(profile.rounds >= 2, "one round deletes, one confirms");
        assert!(profile.cert_builds >= 1);
        // Every pre-reachability deletion is eventually popped from the
        // structural worklist except those from the final (quiescent)
        // eventuality pass.
        assert!(profile.worklist_pops <= stats.total());
        assert!(profile.eventualities >= 1);
        assert!(profile.total_time() >= profile.structural_time);
    }
}
