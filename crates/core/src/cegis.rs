//! The CEGIS bounded-synthesis backend: a guess–verify–block loop over
//! candidate fault-tolerant models, cross-checked by the same semantic
//! oracle that verifies the tableau pipeline's output.
//!
//! Where the tableau method (Section 5.2) derives a model from a proof
//! object, this engine searches *model space* directly, in the style of
//! bounded synthesis (Gerstacker/Klein/Finkbeiner) and synchronization
//! synthesis (Samanta et al.): guess a candidate structure under a size
//! bound, verify it with the existing CTL model checker, derive a
//! blocking counterexample from the violated conjunct, prune, repeat —
//! widening the bound when the space at the current bound is exhausted.
//!
//! # Candidate space
//!
//! A candidate is determined by three coordinates, enumerated in a
//! fixed, thread-count-independent order:
//!
//! 1. **The admissible-valuation universe.** The propositional conjuncts
//!    of the coupling specification (and, when no nonmasking tolerance
//!    is in play, of the global specification) must hold at *every*
//!    reachable state of any valid model — every tolerance label keeps
//!    `AG(coupling)`, and `AG` propagates along exactly the edges a
//!    model contains. Valuations violating them are discarded up front,
//!    as is (iteratively) any valuation one of whose fault outcomes is
//!    discarded or lands outside the safety tier its tolerance demands.
//!    An **empty admissible initial set after this cascade is a sound
//!    impossibility certificate** on its own: no transition structure
//!    can repair a propositional violation.
//! 2. **The obligation-queue bound `b`** (the iteratively widened size
//!    bound). Model states are pairs `(valuation, queue)` where the
//!    queue holds the pending `AF`-eventuality obligations in arrival
//!    order, capped at length `b`. The queue is what lets one valuation
//!    appear as several model states — the bounded memory a
//!    starvation-free scheduler needs. Program transitions come from a
//!    *menu*: all single-process valuation changes compatible with the
//!    applicable `AXᵢ` conjuncts, scheduled so the queue's head process
//!    moves freely while other processes move only to witness binding
//!    `EXᵢ` conjuncts (a FIFO discipline); with an empty queue every
//!    process moves freely. Fault transitions are never guessed: they
//!    are derived from the fault actions, outcome by outcome, exactly
//!    as fault closure demands.
//! 3. **A deletion set** over the menu's program transitions — the
//!    counterexample-guided part. When the checker rejects a candidate,
//!    the violated eventuality yields an avoidance region, and the
//!    children delete region edges (a bulk attractor-style repair
//!    first, then single edges). Every examined deletion set enters a
//!    blocking store, so no candidate is ever examined twice.
//!
//! Every accepted candidate passes `verify_semantic` (the three
//! requirements of Section 3, model-checked) *and* step 5 of the tableau
//! pipeline — shared-variable introduction, skeleton extraction, the
//! explore/re-verify refinement loop — so a CEGIS "solved" outcome
//! carries exactly the guarantees of a tableau one.
//!
//! # The negative certificate
//!
//! A bounded search can only find a model; it cannot refute a spec.
//! The dual object is the tableau certificate (steps 1–2 of the
//! tableau pipeline): a deleted root is a sound `Impossible`
//! (Corollary 7.2); an alive root with the bounded space spent returns
//! [`AbortReason::CegisBoundExhausted`] (satisfiable, but not within
//! the bound). The engine never claims an impossibility it cannot
//! prove.
//!
//! At one build thread the certificate is built only when the search
//! spends its space without a checker approval. At `plan.build ≥ 2` it
//! races the search from the start, on `plan.build − 1` build threads
//! and a [linked](Governor::linked) governor whose private stop flag
//! leaves the caller's budget, deadline and cancel flag in force:
//!
//! * a dead root stops the search at its next candidate (unless a
//!   candidate budget is set: the budget then decides where the search
//!   ends);
//! * the search's first checker approval stops the certificate — a
//!   checked model exists, so the root is alive;
//! * an abort of the search stops it too.
//!
//! On barrier3-failstop-impossible the 1,392-node certificate settles
//! the case before the search's 512 candidates, all rejected at bound
//! 0, are spent. On a solvable case it mostly costs the idle core;
//! step 5 waits only until the stopped certificate returns, which on
//! sub-millisecond solves can be longer than the search itself. All
//! threads live in one `std::thread::scope`.
//!
//! Acceptance calls the tableau pipeline's step-5 function, and the
//! certificate calls its build and deletion functions (all in
//! `synthesize.rs`), so both engines measure and verify alike. Only the
//! phase bookkeeping differs: CEGIS stays in [`Phase::Cegis`]
//! throughout, and its aborts carry no checkpoint.
//!
//! # Cost per candidate
//!
//! Whatever a candidate's evaluation asks of the specification is
//! answered once per bound, when the base graph is built: each base
//! state carries the bitmask of the `AF` goals that hold there and, for
//! every `ExAny` clause binding there, the program edges that witness
//! it. Pruning and the counterexample analysis read bits and walk edge
//! lists; neither evaluates a formula. Their working memory — the
//! deleted-edge bitmap, the alive/reach/included vectors, the candidate
//! model (rebuilt in place by [`FtKripke::reset_states`], its states
//! ids into the universe's shared valuation table), the path-successor
//! table and the win/region sets — is one per-bound `Scratch`. After
//! the first candidate at a bound, the loop's own bookkeeping allocates
//! only the child deletion sets and the model's edge list, and the
//! model leaves the scratch only when it goes to step 5. A candidate then
//! costs the prune fixpoint and one model rebuild, both linear in the
//! base graph, plus the model check (`verify_semantic_ok`, the largest
//! share, on a checker whose memo and edge arrays are flat vectors)
//! and, when the check rejects it, one path-successor table and the
//! win-set fixpoints. On a 125-state barrier3 candidate the check
//! takes about 69 µs, the prune and rebuild 19 µs and the child
//! proposals 14 µs (medians of 15 one-thread solves, release, shared
//! 2-vCPU box).
//!
//! # Determinism
//!
//! The search is sequential, and every collection it iterates is
//! index-ordered (hash maps serve only interning and membership), so
//! the candidate sequence is identical at every thread count. A race
//! cuts the search short only when the root is dead, and then no
//! candidate could have been accepted; an `Impossible` reports the
//! certificate alone, with the search's own counters at 0 however far
//! the search got. The outcome, the profile counters and any cap abort
//! are therefore a fixed function of the problem and the budget,
//! identical at 1, 2 and 8 threads.

use crate::problem::{SynthesisProblem, Tolerance};
use crate::requirements::Requirements;
use crate::synthesize::{
    aborted, certificate_build, certificate_delete, extract_stage, Impossibility, SynthesisOutcome,
    SynthesisStats, Synthesized, ThreadPlan,
};
use crate::verify::check;
use ftsyn_ctl::{Closure, Formula, FormulaArena, FormulaId, LabelSet, Owner, PropId, PropTable};
use ftsyn_kripke::{FtKripke, PropSet, StateId, TransKind};
use ftsyn_tableau::{AbortReason, CertMode, FaultSpec, Governor, Phase};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ceiling for the obligation-queue bound. The bound never needs to
/// exceed the number of `AF` conjuncts (queue entries are distinct
/// clauses), so the effective maximum is `min(MAX_BOUND, #AF-conjuncts)`.
const MAX_BOUND: usize = 8;
/// Ceiling on candidates examined across all bounds (independent of any
/// [`ftsyn_tableau::Budget`] cap); reaching it routes to the
/// certificate instead of aborting.
const MAX_CANDIDATES: usize = 512;
/// Ceiling on admissible valuations; larger universes route to the
/// tableau certificate (the bounded search would thrash).
const MAX_UNIVERSE: usize = 4096;
/// Ceiling on base-graph states per bound.
const MAX_STATES: usize = 50_000;

/// Deterministic counters of one CEGIS run, reported through
/// [`SynthesisStats::cegis_profile`] and bench JSON. Identical at every
/// thread count. The search's counters (`candidates` through
/// `peak_base_states`) read 0 on an `Impossible`: the certificate
/// decides it, and a race may stop the search anywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CegisProfile {
    /// Admissible valuations after the propositional + fault-image
    /// cascade.
    pub universe: usize,
    /// Valuations the cascade discarded.
    pub banned: usize,
    /// Specification conjuncts the classifier could not turn into
    /// structural constraints (still enforced — by the oracle).
    pub opaque_conjuncts: usize,
    /// Candidate models examined (the governor's candidate counter).
    pub candidates: usize,
    /// Candidates the checker or the extraction oracle rejected.
    pub oracle_rejections: usize,
    /// Blocking-store entries (deletion sets never to be revisited).
    pub blocked: usize,
    /// Largest obligation-queue bound attempted.
    pub max_bound_tried: usize,
    /// Bound at which the accepted candidate was found.
    pub solved_at_bound: Option<usize>,
    /// Largest base graph (states before deletion) across bounds.
    pub peak_base_states: usize,
    /// Tableau nodes of the negative certificate when it decided the
    /// run (`Impossible`, or the bound exhausted with the spec
    /// satisfiable); 0 otherwise, including when a race stopped it.
    pub certificate_nodes: usize,
}

/// Runs the CEGIS bounded-synthesis engine on `problem`.
///
/// Returns [`SynthesisOutcome::Solved`] with a fully verified model and
/// extracted program (no tableau artifacts), a sound
/// [`SynthesisOutcome::Impossible`] (propositional cascade, or deleted
/// certificate root), or [`SynthesisOutcome::Aborted`] with
/// [`Phase::Cegis`] when a budget trips or the bounded space is
/// exhausted while the certificate shows the spec satisfiable. At
/// `plan.build ≥ 2` the certificate is built beside the search, on
/// `plan.build − 1` build threads; the outcome is the same at every
/// thread count (see the module docs).
pub fn cegis_synthesize(
    problem: &mut SynthesisProblem,
    plan: ThreadPlan,
    gov: Option<&Governor>,
) -> SynthesisOutcome {
    let start = Instant::now();
    if let Some(g) = gov {
        g.enter_phase(Phase::Cegis);
    }
    let mut stats = SynthesisStats::for_problem(problem);
    let mut profile = CegisProfile::default();

    let outcome = search(problem, plan, gov, &mut stats, &mut profile);
    stats.cegis_profile = profile;
    match outcome {
        Search::Solved(mut solved) => {
            stats.finish(start);
            solved.stats = stats;
            SynthesisOutcome::Solved(solved)
        }
        Search::Impossible => {
            stats.finish(start);
            SynthesisOutcome::Impossible(Impossibility { stats })
        }
        Search::Aborted(reason) => aborted(Phase::Cegis, reason, None, stats, start),
    }
}

enum Search {
    Solved(Box<Synthesized>),
    Impossible,
    Aborted(AbortReason),
}

fn search(
    problem: &mut SynthesisProblem,
    plan: ThreadPlan,
    gov: Option<&Governor>,
    stats: &mut SynthesisStats,
    profile: &mut CegisProfile,
) -> Search {
    // ---- Classification + universe -------------------------------------
    let classified = Classified::from_problem(problem);
    profile.opaque_conjuncts = classified.opaque;

    let universe = if classified.init_propositional && classified.af.len() <= 32 {
        Universe::build(problem, &classified)
    } else {
        // A non-propositional initial condition (or an obligation set
        // beyond any sensible bound) leaves the enumerator nothing
        // sound to enumerate; the certificate decides exactly.
        None
    };
    let reqs = universe.as_ref().map(|_| Requirements::new(problem));
    // Step 0 of the certificate, at every thread count whether or not
    // it is needed (≈0.04 ms), so the search reads one arena however
    // the certificate is scheduled.
    let inputs = problem.tableau_inputs();
    let problem: &SynthesisProblem = problem;
    let (Some(u), Some(reqs)) = (&universe, &reqs) else {
        let cert = certify(problem, &inputs, plan.build, gov);
        return settle(SearchEnd::Spent, false, Some(cert), 0, stats, profile);
    };
    profile.universe = u.vals.len();
    profile.banned = u.banned_count;
    if u.init_vals.is_empty() {
        // Sound fast path: the propositional skeleton of the spec
        // admits no initial state, whatever the transition structure —
        // see the module docs.
        return Search::Impossible;
    }

    // ---- Search, raced against the negative certificate ----------------
    // The certificate is steps 1–2 of the tableau pipeline (the same
    // code): a dead root is a complete impossibility proof (Corollary
    // 7.2); an alive root means the bound was too small — a structured
    // abort, never a false "impossible". The governor stays in
    // `Phase::Cegis` throughout.
    let mut searcher = Searcher::new(reqs, problem, &classified, u, gov, std::mem::take(profile));
    let (step, cert) = if plan.build >= 2 {
        let (s, step, cert) = race(searcher, problem, &inputs, plan.build - 1, gov);
        searcher = s;
        (step, Some(cert))
    } else {
        (searcher.next(None), None)
    };
    let end = searcher.finish(step, stats);
    let cert = match cert {
        None if matches!(end, SearchEnd::Spent) && !searcher.approved => {
            Some(certify(problem, &inputs, plan.build, gov))
        }
        cert => cert,
    };
    *profile = searcher.profile;
    settle(end, searcher.approved, cert, searcher.bound, stats, profile)
}

/// The name of the thread a race runs the CEGIS search on (as `ps` and
/// debuggers show it).
pub const CEGIS_SEARCH_THREAD: &str = "cegis-search";

/// Runs the search and the certificate side by side: the search on a
/// helper thread up to its first checker approval (or its end), the
/// certificate on the calling thread with `threads` build threads and
/// a [linked](Governor::linked) governor. A dead root stops the search
/// at its next candidate, unless a candidate budget is set (the budget
/// then decides where the search ends); an approval or an abort of the
/// search stops the certificate. Step 5 of an approved candidate then
/// runs on the calling thread, which reuses the memory the stopped
/// certificate freed.
fn race<'a>(
    mut searcher: Searcher<'a>,
    problem: &SynthesisProblem,
    inputs: &(Closure, FaultSpec, LabelSet),
    threads: usize,
    gov: Option<&Governor>,
) -> (Searcher<'a>, Step, Certificate) {
    let refuted = AtomicBool::new(false);
    let cert_gov = gov.map_or_else(Governor::unlimited, Governor::linked);
    let capped = gov.is_some_and(|g| g.budget().max_cegis_candidates.is_some());
    std::thread::scope(|s| {
        let helper = std::thread::Builder::new()
            .name(CEGIS_SEARCH_THREAD.into())
            .spawn_scoped(s, || {
                let step = searcher.next((!capped).then_some(&refuted));
                if !matches!(step, Step::End(SearchEnd::Spent | SearchEnd::Refuted)) {
                    cert_gov.stop();
                }
                (searcher, step)
            })
            .expect("spawning the CEGIS search thread");
        let cert = certify(problem, inputs, threads, Some(&cert_gov));
        if cert.verdict == Ok(true) {
            refuted.store(true, Ordering::Relaxed);
        }
        let (searcher, step) = helper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (searcher, step, cert)
    })
}

/// What the tableau certificate showed: `Ok(true)` when its root is
/// deleted, `Ok(false)` when it is alive.
struct Certificate {
    verdict: Result<bool, AbortReason>,
    /// Tableau nodes built (0 when the build aborted).
    nodes: usize,
    /// The build and deletion fields of its run.
    stats: SynthesisStats,
}

fn certify(
    problem: &SynthesisProblem,
    inputs: &(Closure, FaultSpec, LabelSet),
    threads: usize,
    gov: Option<&Governor>,
) -> Certificate {
    let mut stats = SynthesisStats::default();
    let (verdict, nodes) =
        match certificate_build(problem, inputs, None, None, threads, gov, &mut stats) {
            Err(a) => (Err(a.reason), 0),
            Ok((mut tableau, _)) => {
                let verdict = certificate_delete(problem, &inputs.0, &mut tableau, gov, &mut stats)
                    .map(|()| !tableau.alive(tableau.root()));
                (verdict, tableau.len())
            }
        };
    Certificate {
        verdict,
        nodes,
        stats,
    }
}

/// Decides the run from the search's end and the certificate, in this
/// order: a solution; an abort of the search; a dead root, which
/// reports the certificate alone (the search's own counters read 0,
/// however far a race let it get); a search that spent its space
/// without a checker approval, which takes the certificate's abort or
/// [`AbortReason::CegisBoundExhausted`]. After an approval (step 5
/// rejected the candidate) a model exists, so the certificate is not
/// consulted. A certificate that does not decide the run is not
/// reported.
fn settle(
    end: SearchEnd,
    approved: bool,
    cert: Option<Certificate>,
    bound: usize,
    stats: &mut SynthesisStats,
    profile: &mut CegisProfile,
) -> Search {
    let dead = cert.as_ref().is_some_and(|c| c.verdict == Ok(true));
    debug_assert!(
        !(approved && dead),
        "the checker approved a candidate, yet the certificate's root is deleted"
    );
    let cert = match end {
        SearchEnd::Solved(solved) => return Search::Solved(solved),
        SearchEnd::Aborted(reason) => return Search::Aborted(reason),
        SearchEnd::Spent if approved => {
            return Search::Aborted(AbortReason::CegisBoundExhausted {
                bound,
                candidates: profile.candidates,
            })
        }
        SearchEnd::Refuted | SearchEnd::Spent => {
            cert.expect("a search that ends without an approval consults the certificate")
        }
    };
    adopt_certificate(stats, cert.stats);
    profile.certificate_nodes = cert.nodes;
    match cert.verdict {
        Ok(true) => {
            *profile = CegisProfile {
                universe: profile.universe,
                banned: profile.banned,
                opaque_conjuncts: profile.opaque_conjuncts,
                certificate_nodes: profile.certificate_nodes,
                ..CegisProfile::default()
            };
            Search::Impossible
        }
        Ok(false) => Search::Aborted(AbortReason::CegisBoundExhausted {
            bound,
            candidates: profile.candidates,
        }),
        Err(reason) => Search::Aborted(reason),
    }
}

/// Moves the build and deletion fields of a certificate run into the
/// run's stats.
fn adopt_certificate(stats: &mut SynthesisStats, cert: SynthesisStats) {
    stats.closure_size = cert.closure_size;
    stats.tableau_nodes = cert.tableau_nodes;
    stats.build_time = cert.build_time;
    stats.build_profile = cert.build_profile;
    stats.deletion_time = cert.deletion_time;
    stats.alive_and = cert.alive_and;
    stats.alive_or = cert.alive_or;
    stats.deletion = cert.deletion;
    stats.deletion_profile = cert.deletion_profile;
}

// ====================================================================
// Conjunct classification
// ====================================================================

/// One classified non-eventuality modal conjunct: an `Or` of
/// propositional "antecedent" parts — the clause *binds* where all of
/// them are false — plus modal parts.
#[derive(Clone, Debug)]
enum Clause {
    /// `antes ∨ AXᵢ body`: every `i`-transition from a binding state
    /// must reach `body` (propositional).
    Ax {
        proc: usize,
        antes: Vec<FormulaId>,
        body: FormulaId,
    },
    /// `antes ∨ EXᵢ body ∨ EXⱼ body' ∨ …`: a binding state needs at
    /// least one listed transition. A single option also makes its
    /// process a *witness mover* under the queue discipline.
    ExAny {
        antes: Vec<FormulaId>,
        options: Vec<(usize, FormulaId)>,
    },
    /// `antes ∨ AG body` (invariance, `body` propositional): a binding
    /// state satisfies `body` and every transition out of it — any
    /// mover — must land on `body` again. For the permanence idiom
    /// (`p ⇒ AG p`) the binding re-establishes itself at the target, so
    /// the one-step filter enforces the whole invariant.
    AgInv {
        antes: Vec<FormulaId>,
        body: FormulaId,
    },
}

/// One `antes ∨ AF goal` conjunct: a binding state owes the eventuality
/// `goal` (propositional) along every fault-free fullpath.
#[derive(Clone, Debug)]
struct AfClause {
    antes: Vec<FormulaId>,
    goal: FormulaId,
    /// The process owning every proposition of `goal`, when unique —
    /// the queue discipline's "obliged mover".
    owner: Option<usize>,
}

/// The specification, split into the fragments the enumerator can
/// enforce structurally. Anything else is counted `opaque` and left to
/// the oracle.
struct Classified {
    init: FormulaId,
    init_propositional: bool,
    coupling_props: Vec<FormulaId>,
    global_props: Vec<FormulaId>,
    coupling_clauses: Vec<Clause>,
    global_clauses: Vec<Clause>,
    af: Vec<AfClause>,
    opaque: usize,
    /// Whether any fault action carries nonmasking tolerance (states
    /// violating the global propositional tier are then admissible).
    use_nonmasking: bool,
}

impl Classified {
    fn from_problem(problem: &SynthesisProblem) -> Classified {
        let arena = &problem.arena;
        let init = problem.spec.init;
        let mut out = Classified {
            init,
            init_propositional: is_propositional(arena, init),
            coupling_props: Vec::new(),
            global_props: Vec::new(),
            coupling_clauses: Vec::new(),
            global_clauses: Vec::new(),
            af: Vec::new(),
            opaque: 0,
            use_nonmasking: (0..problem.faults.len())
                .any(|i| problem.tolerance.of(i) == Tolerance::Nonmasking),
        };
        let globals = arena.conjuncts(problem.spec.global);
        let couplings = arena.conjuncts(problem.spec.coupling);
        for (scope_global, conjuncts) in [(true, globals), (false, couplings)] {
            for c in conjuncts {
                out.classify(arena, &problem.props, c, scope_global);
            }
        }
        out
    }

    fn classify(&mut self, arena: &FormulaArena, props: &PropTable, c: FormulaId, global: bool) {
        if is_propositional(arena, c) {
            if matches!(arena.get(c), Formula::True) {
                return;
            }
            if global {
                self.global_props.push(c);
            } else {
                self.coupling_props.push(c);
            }
            return;
        }
        // Work on or-part lists so `Or(a, And(x, y))` distributes into
        // `Or(a, x) ∧ Or(a, y)` (the implication-into-conjunction idiom
        // of the mutex spec). Capped: runaway distribution turns the
        // conjunct opaque rather than exploding.
        let mut work: Vec<Vec<FormulaId>> = vec![or_parts(arena, c)];
        let mut emitted = 0usize;
        while let Some(parts) = work.pop() {
            if emitted + work.len() > 32 {
                self.opaque += 1;
                return;
            }
            if let Some(pos) = parts
                .iter()
                .position(|&p| matches!(arena.get(p), Formula::And(_, _)))
            {
                for k in arena.conjuncts(parts[pos]) {
                    let mut next = parts.clone();
                    next[pos] = k;
                    work.push(next);
                }
                continue;
            }
            emitted += 1;
            if !self.classify_flat(arena, props, &parts, global) {
                self.opaque += 1;
            }
        }
    }

    /// Classifies one flat or-clause (no `And` parts). Returns whether
    /// it was representable.
    fn classify_flat(
        &mut self,
        arena: &FormulaArena,
        props: &PropTable,
        parts: &[FormulaId],
        global: bool,
    ) -> bool {
        let mut antes = Vec::new();
        let mut modal = Vec::new();
        for &p in parts {
            if is_propositional(arena, p) {
                antes.push(p);
            } else {
                modal.push(p);
            }
        }
        if modal.is_empty() {
            // Unreachable in practice: a conjunct all of whose or-parts
            // are propositional is itself propositional and was
            // classified before distribution. Counted opaque if hit.
            return false;
        }
        if modal.len() == 1 {
            match arena.get(modal[0]) {
                Formula::Ax(i, b) if is_propositional(arena, b) => {
                    let clause = Clause::Ax {
                        proc: i,
                        antes,
                        body: b,
                    };
                    if global {
                        self.global_clauses.push(clause);
                    } else {
                        self.coupling_clauses.push(clause);
                    }
                    return true;
                }
                Formula::Ex(i, b) if is_propositional(arena, b) => {
                    let clause = Clause::ExAny {
                        antes,
                        options: vec![(i, b)],
                    };
                    if global {
                        self.global_clauses.push(clause);
                    } else {
                        self.coupling_clauses.push(clause);
                    }
                    return true;
                }
                Formula::Au(g, h)
                    if matches!(arena.get(g), Formula::True) && is_propositional(arena, h) =>
                {
                    let owner = goal_owner(arena, props, h);
                    self.af.push(AfClause {
                        antes,
                        goal: h,
                        owner,
                    });
                    return true;
                }
                Formula::Aw(f, b)
                    if matches!(arena.get(f), Formula::False) && is_propositional(arena, b) =>
                {
                    let clause = Clause::AgInv { antes, body: b };
                    if global {
                        self.global_clauses.push(clause);
                    } else {
                        self.coupling_clauses.push(clause);
                    }
                    return true;
                }
                _ => return false,
            }
        }
        // Several modal parts: representable iff all are EX options.
        let mut options = Vec::new();
        for m in modal {
            match arena.get(m) {
                Formula::Ex(i, b) if is_propositional(arena, b) => options.push((i, b)),
                _ => return false,
            }
        }
        let clause = Clause::ExAny { antes, options };
        if global {
            self.global_clauses.push(clause);
        } else {
            self.coupling_clauses.push(clause);
        }
        true
    }
}

fn is_propositional(arena: &FormulaArena, f: FormulaId) -> bool {
    match arena.get(f) {
        Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => true,
        Formula::And(a, b) | Formula::Or(a, b) => {
            is_propositional(arena, a) && is_propositional(arena, b)
        }
        _ => false,
    }
}

/// Evaluates a propositional formula against a valuation.
fn eval_prop(arena: &FormulaArena, f: FormulaId, val: &PropSet) -> bool {
    match arena.get(f) {
        Formula::True => true,
        Formula::False => false,
        Formula::Prop(p) => val.contains(p),
        Formula::NegProp(p) => !val.contains(p),
        Formula::And(a, b) => eval_prop(arena, a, val) && eval_prop(arena, b, val),
        Formula::Or(a, b) => eval_prop(arena, a, val) || eval_prop(arena, b, val),
        _ => unreachable!("eval_prop on a modal formula"),
    }
}

fn or_parts(arena: &FormulaArena, f: FormulaId) -> Vec<FormulaId> {
    let mut out = Vec::new();
    let mut stack = vec![f];
    while let Some(x) = stack.pop() {
        match arena.get(x) {
            Formula::Or(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            _ => out.push(x),
        }
    }
    out
}

fn props_in(arena: &FormulaArena, f: FormulaId, out: &mut Vec<PropId>) {
    match arena.get(f) {
        Formula::Prop(p) | Formula::NegProp(p) => out.push(p),
        Formula::And(a, b)
        | Formula::Or(a, b)
        | Formula::Au(a, b)
        | Formula::Eu(a, b)
        | Formula::Aw(a, b)
        | Formula::Ew(a, b) => {
            props_in(arena, a, out);
            props_in(arena, b, out);
        }
        Formula::Ax(_, g) | Formula::Ex(_, g) => props_in(arena, g, out),
        Formula::True | Formula::False => {}
    }
}

fn goal_owner(arena: &FormulaArena, props: &PropTable, goal: FormulaId) -> Option<usize> {
    let mut ps = Vec::new();
    props_in(arena, goal, &mut ps);
    let mut owner = None;
    for p in ps {
        match props.owner(p) {
            Owner::Process(i) => match owner {
                None => owner = Some(i),
                Some(j) if j == i => {}
                Some(_) => return None,
            },
            Owner::Env => return None,
        }
    }
    owner
}

// ====================================================================
// Valuation universe
// ====================================================================

struct Universe {
    /// All admissible valuations (cascade survivors), index-ordered,
    /// shared as the valuation table of every candidate model.
    vals: Arc<Vec<PropSet>>,
    index: HashMap<PropSet, u32>,
    /// Whether the valuation also satisfies the *global* propositional
    /// tier (the safety tier masking/fail-safe images must stay in).
    safe: Vec<bool>,
    init_vals: Vec<u32>,
    banned_count: usize,
    /// Menu of single-process moves per valuation, in
    /// `(mover, target)` order.
    menu: Vec<Vec<(usize, u32)>>,
}

impl Universe {
    fn build(problem: &SynthesisProblem, cls: &Classified) -> Option<Universe> {
        let arena = &problem.arena;
        let props = &problem.props;
        let n_props = props.len();
        let n_procs = arena.num_procs();

        // Ownership groups: one per process, plus the environment.
        let mut groups: Vec<Vec<PropId>> =
            (0..n_procs).map(|i| props.props_of_process(i)).collect();
        let env: Vec<PropId> = props
            .iter()
            .filter(|&p| props.owner(p) == Owner::Env)
            .collect();
        if !env.is_empty() {
            groups.push(env);
        }
        groups.retain(|g| !g.is_empty());
        if groups.iter().any(|g| g.len() > 16) {
            return None;
        }

        // Admission conjuncts: the coupling propositional tier always;
        // the global tier too when every tolerance keeps safety
        // invariant.
        let mut admission: Vec<FormulaId> = cls.coupling_props.clone();
        if !cls.use_nonmasking {
            admission.extend(cls.global_props.iter().copied());
        }

        // Per-group assignments, pre-filtered by group-local conjuncts.
        let mut local: Vec<Vec<PropSet>> = Vec::new();
        for g in &groups {
            let group_set: HashSet<PropId> = g.iter().copied().collect();
            let local_conj: Vec<FormulaId> = admission
                .iter()
                .copied()
                .filter(|&c| {
                    let mut ps = Vec::new();
                    props_in(arena, c, &mut ps);
                    !ps.is_empty() && ps.iter().all(|p| group_set.contains(p))
                })
                .collect();
            let mut assignments = Vec::new();
            for mask in 0u32..(1u32 << g.len()) {
                let mut v = PropSet::with_capacity(n_props);
                for (k, &p) in g.iter().enumerate() {
                    if mask & (1 << k) != 0 {
                        v.insert(p);
                    }
                }
                if local_conj.iter().all(|&c| eval_prop(arena, c, &v)) {
                    assignments.push(v);
                }
            }
            if assignments.is_empty() {
                // No assignment for this group satisfies the admission
                // tier: the universe — and the problem — is empty.
                return Some(Universe {
                    vals: Arc::default(),
                    index: HashMap::new(),
                    safe: Vec::new(),
                    init_vals: Vec::new(),
                    banned_count: 0,
                    menu: Vec::new(),
                });
            }
            local.push(assignments);
        }

        // Product (group 0 outermost), filtered by the full admission
        // tier.
        let total: usize = local.iter().map(Vec::len).product();
        if total > MAX_UNIVERSE * 16 {
            return None;
        }
        let mut vals: Vec<PropSet> = Vec::new();
        let mut idx = vec![0usize; local.len()];
        'outer: loop {
            let mut v = PropSet::with_capacity(n_props);
            for (gi, &k) in idx.iter().enumerate() {
                for p in local[gi][k].iter() {
                    v.insert(p);
                }
            }
            if admission.iter().all(|&c| eval_prop(arena, c, &v))
                && cls
                    .coupling_clauses
                    .iter()
                    .all(|c| ag_inv_holds(arena, c, &v))
                && (cls.use_nonmasking
                    || cls
                        .global_clauses
                        .iter()
                        .all(|c| ag_inv_holds(arena, c, &v)))
            {
                vals.push(v);
                if vals.len() > MAX_UNIVERSE {
                    return None;
                }
            }
            for gi in (0..idx.len()).rev() {
                idx[gi] += 1;
                if idx[gi] < local[gi].len() {
                    continue 'outer;
                }
                idx[gi] = 0;
            }
            break;
        }

        let index_of = |vals: &[PropSet]| -> HashMap<PropSet, u32> {
            vals.iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i as u32))
                .collect()
        };
        let mut index = index_of(&vals);
        let safe_of = |v: &PropSet| {
            cls.global_props.iter().all(|&c| eval_prop(arena, c, v))
                && cls.global_clauses.iter().all(|c| ag_inv_holds(arena, c, v))
        };
        let mut safe: Vec<bool> = vals.iter().map(safe_of).collect();

        // Fault-image cascade.
        let mut banned = vec![false; vals.len()];
        loop {
            let mut changed = false;
            for vi in 0..vals.len() {
                if banned[vi] {
                    continue;
                }
                let v = &vals[vi];
                'actions: for (ai, action) in problem.faults.iter().enumerate() {
                    if !action.enabled(v) {
                        continue;
                    }
                    for phi in action.outcomes(v, n_props) {
                        let ok = match index.get(&phi) {
                            None => false,
                            Some(&ti) => {
                                !banned[ti as usize]
                                    && (problem.tolerance.of(ai) == Tolerance::Nonmasking
                                        || safe[ti as usize])
                            }
                        };
                        if !ok {
                            banned[vi] = true;
                            changed = true;
                            break 'actions;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Compact to the survivors.
        let banned_count = banned.iter().filter(|&&b| b).count();
        let mut kept = Vec::new();
        let mut kept_safe = Vec::new();
        for (i, v) in vals.into_iter().enumerate() {
            if !banned[i] {
                kept_safe.push(safe[i]);
                kept.push(v);
            }
        }
        let vals = kept;
        safe = kept_safe;
        index = index_of(&vals);
        let init_vals: Vec<u32> = vals
            .iter()
            .enumerate()
            .filter(|(i, v)| safe[*i] && eval_prop(arena, cls.init, v))
            .map(|(i, _)| i as u32)
            .collect();

        // Menu of single-process valuation moves. Bucket valuations by
        // their non-`i` propositions so only genuinely `i`-local pairs
        // are examined; bucket member lists are ascending, keeping the
        // (mover, target) order deterministic.
        let mut menu: Vec<Vec<(usize, u32)>> = vec![Vec::new(); vals.len()];
        for i in 0..n_procs {
            let mine: Vec<PropId> = props.props_of_process(i);
            let key_of = |v: &PropSet| -> PropSet {
                let mut k = v.clone();
                for &p in &mine {
                    k.remove(p);
                }
                k
            };
            let mut buckets: HashMap<PropSet, Vec<u32>> = HashMap::new();
            for (vi, v) in vals.iter().enumerate() {
                buckets.entry(key_of(v)).or_default().push(vi as u32);
            }
            for (ui, u) in vals.iter().enumerate() {
                let Some(bucket) = buckets.get(&key_of(u)) else {
                    continue;
                };
                for &ti in bucket {
                    let t = &vals[ti as usize];
                    // Safety tier: a safe state never moves out of it.
                    if safe[ui] && !safe[ti as usize] {
                        continue;
                    }
                    // Binding AX clauses of the mover: coupling always,
                    // global from safe sources.
                    if !cls
                        .coupling_clauses
                        .iter()
                        .all(|c| ax_permits(arena, c, i, u, t))
                    {
                        continue;
                    }
                    if safe[ui]
                        && !cls
                            .global_clauses
                            .iter()
                            .all(|c| ax_permits(arena, c, i, u, t))
                    {
                        continue;
                    }
                    menu[ui].push((i, ti));
                }
            }
        }

        Some(Universe {
            vals: Arc::new(vals),
            index,
            safe,
            init_vals,
            banned_count,
            menu,
        })
    }
}

/// Whether mover `i`'s step `u → t` is allowed by a structural clause:
/// an `AX` of `i` binding at `u` requires its body at `t`; an
/// invariance clause binding at `u` requires its body at `t` whoever
/// moves (the `AG` obligation rides every outgoing edge).
fn ax_permits(arena: &FormulaArena, c: &Clause, i: usize, u: &PropSet, t: &PropSet) -> bool {
    match c {
        Clause::Ax { proc, antes, body } if *proc == i => {
            antes.iter().any(|&a| eval_prop(arena, a, u)) || eval_prop(arena, *body, t)
        }
        Clause::AgInv { antes, body } => {
            antes.iter().any(|&a| eval_prop(arena, a, u)) || eval_prop(arena, *body, t)
        }
        _ => true,
    }
}

/// The state-level consequence of an invariance clause: where it binds,
/// its body holds (`AG body` includes the binding state itself). Other
/// clause forms impose no state predicate.
fn ag_inv_holds(arena: &FormulaArena, c: &Clause, v: &PropSet) -> bool {
    match c {
        Clause::AgInv { antes, body } => {
            antes.iter().any(|&a| eval_prop(arena, a, v)) || eval_prop(arena, *body, v)
        }
        _ => true,
    }
}

// ====================================================================
// Base graph at one queue bound
// ====================================================================

#[derive(Clone, Debug)]
struct BaseState {
    val: u32,
    /// Global ids (into [`BaseGraph::program`]) of outgoing program
    /// edges.
    prog: Vec<u32>,
    /// `(action index, target state)` fault edges.
    faults: Vec<(usize, u32)>,
    /// Bitmask of the AF clauses in this state's obligation queue: the
    /// eventualities the state actually owes. States reached only
    /// through a fail-safe or nonmasking fault carry none (those
    /// tolerance labels keep safety, not the spec's `AF` clauses).
    pending: u32,
    /// A fault outcome's queue overflowed the bound: the state cannot
    /// exist in any candidate at this bound.
    fault_overflow: bool,
    /// Bitmask of the AF clauses whose goal holds at this state.
    goals: u32,
    /// The `ExAny` clauses binding here (coupling always, global at safe
    /// valuations), each as its witness program edges: the outgoing
    /// edges whose mover and target satisfy one of its options. A
    /// candidate keeps the state only if every list has an undeleted
    /// edge into a surviving state.
    binding_ex: Vec<Vec<u32>>,
}

struct BaseGraph {
    states: Vec<BaseState>,
    /// Flat program-edge table: `(source, mover, target)`.
    program: Vec<(u32, usize, u32)>,
    init_states: Vec<u32>,
}

impl BaseGraph {
    fn build(
        problem: &SynthesisProblem,
        cls: &Classified,
        u: &Universe,
        bound: usize,
    ) -> Option<BaseGraph> {
        let arena = &problem.arena;
        let fault_free = problem.mode == CertMode::FaultFree;
        let n_props = problem.props.len();

        let mut states: Vec<BaseState> = Vec::new();
        let mut queues: Vec<Vec<u8>> = Vec::new();
        let mut program: Vec<(u32, usize, u32)> = Vec::new();
        let mut index: HashMap<(u32, Vec<u8>), u32> = HashMap::new();
        let mut intern =
            |val: u32, queue: Vec<u8>, states: &mut Vec<BaseState>, queues: &mut Vec<Vec<u8>>| {
                *index.entry((val, queue.clone())).or_insert_with(|| {
                    let pending = queue.iter().fold(0u32, |m, &ci| m | (1 << ci));
                    let v = &u.vals[val as usize];
                    let goals = (0..cls.af.len())
                        .filter(|&ci| eval_prop(arena, cls.af[ci].goal, v))
                        .fold(0u32, |m, ci| m | (1 << ci));
                    states.push(BaseState {
                        val,
                        prog: Vec::new(),
                        faults: Vec::new(),
                        pending,
                        fault_overflow: false,
                        goals,
                        binding_ex: Vec::new(),
                    });
                    queues.push(queue);
                    (states.len() - 1) as u32
                })
            };

        let mut init_states = Vec::new();
        for &iv in &u.init_vals {
            let q0 = initial_queue(arena, cls, &u.vals[iv as usize]);
            if q0.len() > bound {
                continue;
            }
            init_states.push(intern(iv, q0, &mut states, &mut queues));
        }
        if init_states.is_empty() {
            return None;
        }

        let mut cursor = 0usize;
        while cursor < states.len() {
            if states.len() > MAX_STATES {
                return None;
            }
            let sid = cursor as u32;
            let (val_idx, queue) = (states[cursor].val, queues[cursor].clone());
            cursor += 1;
            let val = &u.vals[val_idx as usize];

            // Program edges under the queue discipline.
            for (mover, target) in
                scheduled_moves(arena, cls, u, val_idx, &queue, bound, fault_free)
            {
                let tval = &u.vals[target as usize];
                let q = step_queue(arena, cls, &queue, tval, None, fault_free);
                debug_assert!(q.len() <= bound);
                let tid = intern(target, q, &mut states, &mut queues);
                let eid = program.len() as u32;
                program.push((sid, mover, tid));
                states[sid as usize].prog.push(eid);
            }
            let global: &[Clause] = if u.safe[val_idx as usize] {
                &cls.global_clauses
            } else {
                &[]
            };
            let binding_ex = cls
                .coupling_clauses
                .iter()
                .chain(global)
                .filter_map(|c| match c {
                    Clause::ExAny { antes, options }
                        if !antes.iter().any(|&a| eval_prop(arena, a, val)) =>
                    {
                        Some(options)
                    }
                    _ => None,
                })
                .map(|options| {
                    states[sid as usize]
                        .prog
                        .iter()
                        .copied()
                        .filter(|&eid| {
                            let (_, mover, t) = program[eid as usize];
                            let tval = &u.vals[states[t as usize].val as usize];
                            options
                                .iter()
                                .any(|&(w, body)| w == mover && eval_prop(arena, body, tval))
                        })
                        .collect()
                })
                .collect();
            states[sid as usize].binding_ex = binding_ex;

            // Fault edges, outcome by outcome (never guessed).
            for (ai, action) in problem.faults.iter().enumerate() {
                if !action.enabled(val) {
                    continue;
                }
                for phi in action.outcomes(val, n_props) {
                    let target = *u
                        .index
                        .get(&phi)
                        .expect("the cascade kept only fault-closed valuations");
                    let q = step_queue(
                        arena,
                        cls,
                        &queue,
                        &u.vals[target as usize],
                        Some(problem.tolerance.of(ai)),
                        fault_free,
                    );
                    if q.len() > bound {
                        states[sid as usize].fault_overflow = true;
                        continue;
                    }
                    let tid = intern(target, q, &mut states, &mut queues);
                    states[sid as usize].faults.push((ai, tid));
                }
            }
        }

        Some(BaseGraph {
            states,
            program,
            init_states,
        })
    }
}

fn af_active(arena: &FormulaArena, c: &AfClause, val: &PropSet) -> bool {
    !eval_prop(arena, c.goal, val) && !c.antes.iter().any(|&a| eval_prop(arena, a, val))
}

fn initial_queue(arena: &FormulaArena, cls: &Classified, val: &PropSet) -> Vec<u8> {
    (0..cls.af.len())
        .filter(|&ci| af_active(arena, &cls.af[ci], val))
        .map(|ci| ci as u8)
        .collect()
}

/// Advances the obligation queue across one transition. Obligations are
/// discharged only by reaching their goal (`AF` binds from the moment
/// the antecedents fail, along the whole fullpath). A fault transition
/// under fault-free certification starts fresh fullpaths, and the
/// perturbed state owes whatever its tolerance label demands: a masking
/// fault re-founds the queue on the clauses binding at the image, while
/// fail-safe and nonmasking faults clear it — their labels keep safety
/// (and, for nonmasking, convergence, which the good-set analysis
/// enforces separately), not the spec's `AF` clauses. Under fault-prone
/// certification fault edges are ordinary path edges, so every
/// tolerance steps the queue like a program move.
fn step_queue(
    arena: &FormulaArena,
    cls: &Classified,
    q: &[u8],
    target: &PropSet,
    fault: Option<Tolerance>,
    fault_free: bool,
) -> Vec<u8> {
    if fault_free {
        match fault {
            Some(Tolerance::Masking) => {
                let mut out: Vec<u8> = q
                    .iter()
                    .copied()
                    .filter(|&ci| af_active(arena, &cls.af[ci as usize], target))
                    .collect();
                for ci in 0..cls.af.len() {
                    if af_active(arena, &cls.af[ci], target) && !out.contains(&(ci as u8)) {
                        out.push(ci as u8);
                    }
                }
                return out;
            }
            Some(_) => return Vec::new(),
            None => {}
        }
    }
    let mut out: Vec<u8> = q
        .iter()
        .copied()
        .filter(|&ci| !eval_prop(arena, cls.af[ci as usize].goal, target))
        .collect();
    for ci in 0..cls.af.len() {
        if af_active(arena, &cls.af[ci], target) && !out.contains(&(ci as u8)) {
            out.push(ci as u8);
        }
    }
    out
}

/// The scheduled single-process moves at `(val, queue)`: the queue's
/// effective head moves freely, witness movers serve their binding
/// single-option `EX` clauses, everything else waits. With an empty
/// queue — or an un-ownable or fully stuck head — every process moves
/// freely. Only moves whose target queue fits the bound are usable.
fn scheduled_moves(
    arena: &FormulaArena,
    cls: &Classified,
    u: &Universe,
    val_idx: u32,
    queue: &[u8],
    bound: usize,
    fault_free: bool,
) -> Vec<(usize, u32)> {
    let val = &u.vals[val_idx as usize];
    let menu = &u.menu[val_idx as usize];
    let usable = |target: u32| -> bool {
        step_queue(
            arena,
            cls,
            queue,
            &u.vals[target as usize],
            None,
            fault_free,
        )
        .len()
            <= bound
    };

    // Effective head: the first queued obligation whose obliged process
    // has a usable move.
    let mut head: Option<usize> = None;
    let mut all_movers = queue.is_empty();
    for &ci in queue {
        match cls.af[ci as usize].owner {
            None => {
                all_movers = true;
                break;
            }
            Some(i) => {
                if menu.iter().any(|&(m, t)| m == i && usable(t)) {
                    head = Some(i);
                    break;
                }
            }
        }
    }
    if !all_movers && head.is_none() {
        // Every queued process is stuck: release the schedule rather
        // than dead-end (the blocked head resumes once unblocked).
        all_movers = true;
    }
    if all_movers {
        return menu.iter().copied().filter(|&(_, t)| usable(t)).collect();
    }
    let head = head.expect("checked above");

    // Witness movers: processes named by a binding single-option EX
    // clause (coupling always binds; global binds at safe states).
    let binding_ex = |c: &Clause| -> Option<(usize, FormulaId)> {
        match c {
            Clause::ExAny { antes, options }
                if options.len() == 1 && !antes.iter().any(|&a| eval_prop(arena, a, val)) =>
            {
                Some(options[0])
            }
            _ => None,
        }
    };
    let mut witness: Vec<(usize, FormulaId)> = Vec::new();
    for c in &cls.coupling_clauses {
        if let Some(w) = binding_ex(c) {
            witness.push(w);
        }
    }
    if u.safe[val_idx as usize] {
        for c in &cls.global_clauses {
            if let Some(w) = binding_ex(c) {
                witness.push(w);
            }
        }
    }
    let mut out: Vec<(usize, u32)> = Vec::new();
    for &(mover, target) in menu {
        if !usable(target) {
            continue;
        }
        if mover == head
            || witness
                .iter()
                .any(|&(w, body)| w == mover && eval_prop(arena, body, &u.vals[target as usize]))
        {
            out.push((mover, target));
        }
    }
    out
}

// ====================================================================
// Candidate evaluation
// ====================================================================

/// Working memory of the candidate loop at one bound, sized once and
/// reused by every candidate: after the first candidate, examining one
/// allocates only its child deletion sets (and, on acceptance, hands
/// the model over to step 5).
#[derive(Default)]
struct Scratch {
    /// Program-edge id → in the current candidate's deletion set.
    deleted: Vec<bool>,
    alive: Vec<bool>,
    reach: Vec<bool>,
    included: Vec<bool>,
    stack: Vec<u32>,
    /// The pruned candidate: the reachable sub-model rooted at the first
    /// surviving initial state.
    model: FtKripke,
    /// Base-state index → model state id (`None` = not in the model);
    /// the counterexample analysis navigates by it.
    model_of: Vec<Option<u32>>,
    paths: PathSuccs,
    win: Vec<bool>,
    good: Vec<bool>,
    region: Vec<bool>,
    /// The bulk repair's growing win set and the edges it deletes.
    grow: Vec<bool>,
    extra: Vec<u32>,
    singles: Vec<(bool, bool, u32)>,
}

impl Scratch {
    fn new(base: &BaseGraph) -> Scratch {
        Scratch {
            deleted: vec![false; base.program.len()],
            ..Scratch::default()
        }
    }

    fn mark(&mut self, deleted: &[u32], on: bool) {
        for &e in deleted {
            self.deleted[e as usize] = on;
        }
    }
}

/// Path successors (the edges AF quantifies over) of each in-model base
/// state, as one flat table: `(program edge id or u32::MAX for a fault
/// edge, target)`, built once per rejected candidate.
#[derive(Default)]
struct PathSuccs {
    start: Vec<u32>,
    list: Vec<(u32, u32)>,
}

impl PathSuccs {
    /// The path successors of base state `i` (empty outside the model).
    fn of(&self, i: usize) -> &[(u32, u32)] {
        &self.list[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Resets `v` to `n` falses, keeping its buffer.
fn refill(v: &mut Vec<bool>, n: usize) {
    v.clear();
    v.resize(n, false);
}

/// Prunes the marked deletion set out of the base graph and closes
/// under the structural requirements (reachability, fault closure,
/// binding EX clauses), leaving the candidate in `sc.model` /
/// `sc.model_of`. `false` when no initial state survives.
fn prune(u: &Universe, base: &BaseGraph, sc: &mut Scratch) -> bool {
    let n = base.states.len();
    let Scratch {
        deleted,
        alive,
        reach,
        included,
        stack,
        model,
        model_of,
        ..
    } = sc;
    alive.clear();
    alive.extend(base.states.iter().map(|s| !s.fault_overflow));

    loop {
        // Reachability over surviving edges.
        refill(reach, n);
        stack.clear();
        stack.extend(
            base.init_states
                .iter()
                .copied()
                .filter(|&s| alive[s as usize]),
        );
        for &s in stack.iter() {
            reach[s as usize] = true;
        }
        while let Some(s) = stack.pop() {
            let st = &base.states[s as usize];
            for &eid in &st.prog {
                let (_, _, t) = base.program[eid as usize];
                if !deleted[eid as usize] && alive[t as usize] && !reach[t as usize] {
                    reach[t as usize] = true;
                    stack.push(t);
                }
            }
            for &(_, t) in &st.faults {
                if alive[t as usize] && !reach[t as usize] {
                    reach[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        let mut changed = false;
        for (i, r) in reach.iter().enumerate() {
            if alive[i] && !r {
                alive[i] = false;
                changed = true;
            }
        }

        // Local structural requirements.
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let st = &base.states[i];
            // Fault closure: every outcome edge must survive; binding EX
            // clauses need a surviving witness edge.
            let ok = st.faults.iter().all(|&(_, t)| alive[t as usize])
                && st.binding_ex.iter().all(|witnesses| {
                    witnesses.iter().any(|&eid| {
                        !deleted[eid as usize] && alive[base.program[eid as usize].2 as usize]
                    })
                });
            if !ok {
                alive[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let Some(root) = base
        .init_states
        .iter()
        .copied()
        .find(|&s| alive[s as usize])
    else {
        return false;
    };

    // Final component: reachable from the chosen root only.
    refill(included, n);
    stack.clear();
    stack.push(root);
    included[root as usize] = true;
    while let Some(s) = stack.pop() {
        let st = &base.states[s as usize];
        for &eid in &st.prog {
            let (_, _, t) = base.program[eid as usize];
            if !deleted[eid as usize] && alive[t as usize] && !included[t as usize] {
                included[t as usize] = true;
                stack.push(t);
            }
        }
        for &(_, t) in &st.faults {
            if alive[t as usize] && !included[t as usize] {
                included[t as usize] = true;
                stack.push(t);
            }
        }
    }

    model_of.clear();
    model_of.resize(n, None);
    for (sid, i) in (0..n).filter(|&i| included[i]).enumerate() {
        model_of[i] = Some(sid as u32);
    }
    let mut b = std::mem::take(model).reset_states(Arc::clone(&u.vals));
    for i in (0..n).filter(|&i| included[i]) {
        b.push(base.states[i].val, 0);
    }
    b.add_init(StateId(model_of[root as usize].unwrap()));
    for (i, inc) in included.iter().enumerate() {
        if !*inc {
            continue;
        }
        let from = StateId(model_of[i].unwrap());
        let st = &base.states[i];
        for &eid in &st.prog {
            let (_, mover, t) = base.program[eid as usize];
            if !deleted[eid as usize] && included[t as usize] {
                b.add_edge(
                    from,
                    TransKind::Proc(mover as u32),
                    StateId(model_of[t as usize].unwrap()),
                );
            }
        }
        for &(ai, t) in &st.faults {
            debug_assert!(included[t as usize]);
            b.add_edge(
                from,
                TransKind::Fault(ai as u32),
                StateId(model_of[t as usize].unwrap()),
            );
        }
    }
    *model = b.freeze();
    true
}

// ====================================================================
// Counterexample analysis → children
// ====================================================================

/// Win set of an AF target into `win`: at least one path successor
/// exists and all of them lead in (dead ends fail an open eventuality).
fn af_win(
    paths: &PathSuccs,
    model_of: &[Option<u32>],
    win: &mut Vec<bool>,
    goal: impl Fn(usize) -> bool,
) {
    let n = model_of.len();
    win.clear();
    win.extend((0..n).map(|i| model_of[i].is_some() && goal(i)));
    loop {
        let mut changed = false;
        for i in 0..n {
            if win[i] || model_of[i].is_none() {
                continue;
            }
            let ss = paths.of(i);
            if !ss.is_empty() && ss.iter().all(|&(_, t)| win[t as usize]) {
                win[i] = true;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Proposes child deletion sets for the rejected candidate in `sc`: a
/// bulk attractor-style repair (delete, layer by layer, every region
/// edge that strays from the growing win set) followed by single-edge
/// deletions inside the avoidance region. An empty return means the
/// rejection was unanalyzable (opaque conjunct): the branch dead-ends
/// and stays blocked.
fn propose_children(
    problem: &SynthesisProblem,
    cls: &Classified,
    u: &Universe,
    base: &BaseGraph,
    sc: &mut Scratch,
    deleted: &[u32],
) -> Vec<Vec<u32>> {
    let fault_free = problem.mode == CertMode::FaultFree;
    let n = base.states.len();
    let Scratch {
        deleted: is_deleted,
        model_of,
        paths,
        win,
        good,
        region,
        grow,
        extra,
        singles,
        stack,
        ..
    } = sc;
    let in_model = |i: usize| model_of[i].is_some();

    // Path successors of every in-model state, once per candidate.
    paths.start.clear();
    paths.list.clear();
    for i in 0..n {
        paths.start.push(paths.list.len() as u32);
        if !in_model(i) {
            continue;
        }
        let st = &base.states[i];
        for &e in &st.prog {
            let t = base.program[e as usize].2;
            if !is_deleted[e as usize] && in_model(t as usize) {
                paths.list.push((e, t));
            }
        }
        if !fault_free {
            for &(_, t) in &st.faults {
                if in_model(t as usize) {
                    paths.list.push((u32::MAX, t));
                }
            }
        }
    }
    paths.start.push(paths.list.len() as u32);
    let paths = &*paths;

    // First violated obligation: an AF clause *pending* at a safe
    // included state (in the state's obligation queue — so tolerance
    // has already been applied at fault edges) outside its win set, or
    // — under nonmasking — a state that cannot converge to an all-safe
    // program-closed region. The violated clause's win set is left in
    // `win`.
    let mut violation: Option<(usize, Option<usize>)> = None;
    for (ci, c) in cls.af.iter().enumerate() {
        let owes = |i: usize| {
            in_model(i)
                && u.safe[base.states[i].val as usize]
                && base.states[i].pending & (1 << ci) != 0
        };
        // No state owes the clause (always so at bound 0): nothing to
        // violate, so its win set is not needed.
        if !(0..n).any(owes) {
            continue;
        }
        af_win(paths, model_of, win, |i| {
            base.states[i].goals & (1 << ci) != 0
        });
        let bad = (0..n).find(|&i| owes(i) && !win[i]);
        if let Some(s) = bad {
            violation = Some((s, c.owner));
            break;
        }
    }
    if violation.is_none() && cls.use_nonmasking {
        // Good set: states whose whole program-closure stays safe.
        good.clear();
        good.extend((0..n).map(|i| in_model(i) && u.safe[base.states[i].val as usize]));
        loop {
            let mut changed = false;
            for i in 0..n {
                if !good[i] {
                    continue;
                }
                let leaky = paths
                    .of(i)
                    .iter()
                    .any(|&(e, t)| e != u32::MAX && !good[t as usize]);
                if leaky {
                    good[i] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        af_win(paths, model_of, win, |i| good[i]);
        let bad = (0..n).find(|&i| in_model(i) && !win[i]);
        if let Some(s) = bad {
            violation = Some((s, None));
        }
    }
    let Some((s, obliged)) = violation else {
        return Vec::new();
    };

    // Avoidance region: closure of `s` over path edges between non-win
    // states.
    refill(region, n);
    stack.clear();
    stack.push(s as u32);
    region[s] = true;
    while let Some(x) = stack.pop() {
        for &(_, t) in paths.of(x as usize) {
            let t = t as usize;
            if !win[t] && !region[t] {
                region[t] = true;
                stack.push(t as u32);
            }
        }
    }

    let mut children: Vec<Vec<u32>> = Vec::new();

    // Bulk attractor repair: wherever a region state can step into the
    // (growing) win set, delete its straying program edges; iterate
    // until the violating state joins or no layer makes progress.
    grow.clone_from(win);
    extra.clear();
    loop {
        let mut changed = false;
        for x in 0..n {
            if !region[x] || grow[x] {
                continue;
            }
            let ss = paths.of(x);
            // Fault edges cannot be deleted (under fault-free
            // certification they are not path edges at all).
            if ss.iter().any(|&(e, t)| e == u32::MAX && !grow[t as usize]) {
                continue;
            }
            if !ss.iter().any(|&(_, t)| grow[t as usize]) {
                continue;
            }
            // Repeats are harmless: the child set is sorted and
            // deduplicated.
            extra.extend(
                ss.iter()
                    .filter(|&&(e, t)| e != u32::MAX && !grow[t as usize])
                    .map(|&(e, _)| e),
            );
            grow[x] = true;
            changed = true;
        }
        if grow[s] || !changed {
            break;
        }
    }
    if grow[s] && !extra.is_empty() {
        let mut d = deleted.to_vec();
        d.extend_from_slice(extra);
        d.sort_unstable();
        d.dedup();
        children.push(d);
    }

    // Single-edge children: program edges into the region. Internal
    // edges first (repair: prefer movers other than the obliged
    // process — the competitor edges that barge the obligation aside),
    // then entry edges from outside (excision: a region that cannot be
    // made to win can still be made unreachable by program moves).
    singles.clear();
    for x in 0..n {
        for &(e, t) in paths.of(x) {
            if e != u32::MAX && region[t as usize] {
                let mover = base.program[e as usize].1;
                singles.push((!region[x], Some(mover) == obliged, e));
            }
        }
    }
    singles.sort_unstable();
    for &(_, _, e) in singles.iter() {
        // `e` is a path edge, so not in `deleted`.
        let mut d = Vec::with_capacity(deleted.len() + 1);
        d.extend_from_slice(deleted);
        d.insert(d.partition_point(|&x| x < e), e);
        children.push(d);
    }
    children
}

// ====================================================================
// The per-bound guess–verify–block loop
// ====================================================================

/// How the search ended.
enum SearchEnd {
    /// Step 5 accepted an approved candidate.
    Solved(Box<Synthesized>),
    /// Every bound is exhausted, or [`MAX_CANDIDATES`] is reached.
    Spent,
    /// The certificate's dead root stopped the search.
    Refuted,
    Aborted(AbortReason),
}

/// What [`Searcher::next`] stopped at.
enum Step {
    /// The checker approved this candidate model; step 5 decides it.
    Approved(FtKripke),
    End(SearchEnd),
}

/// The bounded search over `(bound, deletion set)`, resumable between
/// approvals so that a race can hand it from its helper thread to the
/// calling thread.
struct Searcher<'a> {
    reqs: &'a Requirements,
    problem: &'a SynthesisProblem,
    cls: &'a Classified,
    u: &'a Universe,
    gov: Option<&'a Governor>,
    max_bound: usize,
    /// The bound being searched (the last one tried, once spent).
    bound: usize,
    /// The loop state at `bound`; `None` before its base graph is built.
    at: Option<BoundSearch>,
    /// Whether the checker approved a candidate (so a model exists).
    approved: bool,
    profile: CegisProfile,
}

/// The guess–verify–block loop's state at one bound.
struct BoundSearch {
    base: BaseGraph,
    sc: Scratch,
    stack: Vec<Vec<u32>>,
    blocked: HashSet<Vec<u32>>,
}

impl<'a> Searcher<'a> {
    fn new(
        reqs: &'a Requirements,
        problem: &'a SynthesisProblem,
        cls: &'a Classified,
        u: &'a Universe,
        gov: Option<&'a Governor>,
        profile: CegisProfile,
    ) -> Searcher<'a> {
        Searcher {
            reqs,
            problem,
            cls,
            u,
            gov,
            max_bound: MAX_BOUND.min(cls.af.len()),
            bound: 0,
            at: None,
            approved: false,
            profile,
        }
    }

    /// Examines candidates until the checker approves one or the search
    /// ends. A set `refuted` flag stops the search at its next
    /// candidate.
    fn next(&mut self, refuted: Option<&AtomicBool>) -> Step {
        let (problem, u) = (self.problem, self.u);
        loop {
            let Some(at) = &mut self.at else {
                if self.bound > self.max_bound {
                    self.bound = self.max_bound;
                    return Step::End(SearchEnd::Spent);
                }
                self.profile.max_bound_tried = self.bound;
                match BaseGraph::build(problem, self.cls, u, self.bound) {
                    Some(base) => {
                        self.profile.peak_base_states =
                            self.profile.peak_base_states.max(base.states.len());
                        self.at = Some(BoundSearch {
                            sc: Scratch::new(&base),
                            base,
                            stack: vec![Vec::new()],
                            blocked: HashSet::new(),
                        });
                    }
                    // Unrepresentable (or too large) at this bound.
                    None => self.bound += 1,
                }
                continue;
            };
            let Some(deleted) = at.stack.pop() else {
                self.at = None;
                self.bound += 1;
                continue;
            };
            if at.blocked.contains(&deleted) {
                continue;
            }
            let profile = &mut self.profile;
            profile.blocked += 1;
            if let Some(g) = self.gov {
                if let Err(reason) = g
                    .check_realtime()
                    .and_then(|()| g.check_cegis_candidates(profile.candidates))
                {
                    return Step::End(SearchEnd::Aborted(reason));
                }
            }
            if refuted.is_some_and(|r| r.load(Ordering::Relaxed)) {
                return Step::End(SearchEnd::Refuted);
            }
            if profile.candidates >= MAX_CANDIDATES {
                return Step::End(SearchEnd::Spent);
            }
            profile.candidates += 1;

            let BoundSearch {
                base,
                sc,
                stack,
                blocked,
            } = at;
            sc.mark(&deleted, true);
            let mut approved = None;
            let children = if !prune(u, base, sc) {
                Vec::new() // structurally dead; the blocking store remembers
            } else if check(self.reqs, problem, &sc.model, false).ok() {
                approved = Some(std::mem::take(&mut sc.model));
                Vec::new()
            } else {
                profile.oracle_rejections += 1;
                propose_children(problem, self.cls, u, base, sc, &deleted)
            };
            sc.mark(&deleted, false);
            // Every child strictly extends `deleted`, so blocking it only
            // now changes no membership test below.
            blocked.insert(deleted);
            for child in children.into_iter().rev() {
                if !blocked.contains(&child) {
                    stack.push(child);
                }
            }
            if let Some(model) = approved {
                self.approved = true;
                return Step::Approved(model);
            }
        }
    }

    /// Runs the search on from `step` on the calling thread, sending each
    /// approved candidate through step 5, until a program is accepted
    /// or the search ends.
    fn finish(&mut self, mut step: Step, stats: &mut SynthesisStats) -> SearchEnd {
        loop {
            let model = match step {
                Step::Approved(model) => model,
                Step::End(end) => return end,
            };
            match accept(self.reqs, self.problem, model, self.gov, stats) {
                AcceptOutcome::Solved(solved) => {
                    self.profile.solved_at_bound = Some(self.bound);
                    return SearchEnd::Solved(solved);
                }
                AcceptOutcome::Rejected => self.profile.oracle_rejections += 1,
                AcceptOutcome::Aborted(r) => return SearchEnd::Aborted(r),
            }
            step = self.next(None);
        }
    }
}

enum AcceptOutcome {
    Solved(Box<Synthesized>),
    Rejected,
    Aborted(AbortReason),
}

/// Runs step 5 of the tableau pipeline — the same code — on a
/// checker-approved candidate: shared-variable introduction,
/// extraction, and the explore/re-verify refinement loop. A program
/// that step 5 cannot verify rejects the candidate.
fn accept(
    reqs: &Requirements,
    problem: &SynthesisProblem,
    mut model: FtKripke,
    gov: Option<&Governor>,
    stats: &mut SynthesisStats,
) -> AcceptOutcome {
    let extraction = match extract_stage(reqs, problem, &mut model, gov, stats) {
        Ok(e) => e,
        Err(reason) => return AcceptOutcome::Aborted(reason),
    };
    if extraction.failure.is_some() {
        return AcceptOutcome::Rejected;
    }
    stats.extract_profile = extraction.profile;
    let t_ver = Instant::now();
    let verification = check(reqs, problem, &model, true);
    stats.verify_time += t_ver.elapsed();
    debug_assert!(verification.ok());
    stats.model_states = model.len();
    stats.fault_transitions = model.fault_edge_count();
    stats.program_transitions = model.edge_count() - stats.fault_transitions;
    AcceptOutcome::Solved(Box::new(Synthesized {
        model,
        program: extraction.program,
        artifacts: None,
        stats: SynthesisStats::default(), // replaced by the caller
        verification,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{barrier, mutex};
    use crate::synthesize;

    fn run(problem: &mut SynthesisProblem) -> SynthesisOutcome {
        cegis_synthesize(problem, ThreadPlan::uniform(1), None)
    }

    #[test]
    fn mutex2_fail_stop_solves() {
        let mut problem = mutex::with_fail_stop(2, Tolerance::Masking);
        match run(&mut problem) {
            SynthesisOutcome::Solved(s) => {
                assert!(s.verification.ok(), "{:?}", s.verification.failures);
                assert!(s.artifacts.is_none());
                assert!(s.stats.cegis_profile.solved_at_bound.is_some());
            }
            other => panic!("expected Solved, got {}", outcome_name(&other)),
        }
    }

    #[test]
    fn mutex2_fault_free_solves() {
        let mut problem = mutex::fault_free(2);
        match run(&mut problem) {
            SynthesisOutcome::Solved(s) => {
                assert!(s.verification.ok(), "{:?}", s.verification.failures);
            }
            other => panic!("expected Solved, got {}", outcome_name(&other)),
        }
    }

    #[test]
    fn barrier_impossible_agrees() {
        let mut problem = barrier::with_fail_stop_impossible(2);
        let cegis = run(&mut problem);
        assert!(
            matches!(cegis, SynthesisOutcome::Impossible(_)),
            "cegis: {}",
            outcome_name(&cegis)
        );
        let mut problem = barrier::with_fail_stop_impossible(2);
        let tableau = synthesize(&mut problem);
        assert!(matches!(tableau, SynthesisOutcome::Impossible(_)));
    }

    /// A checker approval proves the spec satisfiable, so a dead
    /// certificate root beside it is a bug in one of the two deciders.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "yet the certificate's root is deleted")]
    fn an_approval_beside_a_dead_root_is_caught() {
        let dead = Certificate {
            verdict: Ok(true),
            nodes: 1,
            stats: SynthesisStats::default(),
        };
        let mut stats = SynthesisStats::default();
        let mut profile = CegisProfile::default();
        settle(
            SearchEnd::Spent,
            true,
            Some(dead),
            0,
            &mut stats,
            &mut profile,
        );
    }

    fn outcome_name(o: &SynthesisOutcome) -> String {
        match o {
            SynthesisOutcome::Solved(_) => "Solved".into(),
            SynthesisOutcome::Impossible(_) => "Impossible".into(),
            SynthesisOutcome::Aborted(a) => format!("Aborted({})", a.reason),
        }
    }
}
