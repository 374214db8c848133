//! Semantic model minimization.
//!
//! The bisimulation quotient (crate `ftsyn-kripke`) collapses copies
//! with *identical* behavior, but the unraveling also produces copies
//! of a valuation whose behaviors differ in ways the specification does
//! not care about (e.g. a recovery copy whose label carries `AF AG
//! global` instead of the full normal label). This pass greedily merges
//! pairs of states with the same valuation and keeps a merge exactly
//! when the resulting model still satisfies the requirements of the
//! synthesis problem statement (Section 3). The result is a smaller
//! correct model, typically with far fewer disambiguating shared
//! variables, matching the paper's hand-drawn figures much more
//! closely.
//!
//! # Engine
//!
//! The naive engine (kept as an oracle in `ftsyn_conformance`)
//! re-labels the *entire* candidate model for every candidate merge —
//! a full CTL fixpoint pass over every formula of the requirement
//! closure, tens of thousands of times. That made
//! minimization ~90% of end-to-end synthesis wall-clock. This engine
//! commits the **same merge sequence** (verified bit-for-bit by the
//! conformance layer) through three levers:
//!
//! 1. **Incremental re-verification.** Each greedy round labels the
//!    accepted base model once ([`RoundCtx`]) and keeps the per-state
//!    satisfaction vectors. Per candidate, a *transfer calculus*
//!    ([`Transfer`]) proves most requirement conjuncts on the candidate
//!    directly from the base labeling (merging only redirects edges
//!    into the surviving state, so truths whose witnessing structure is
//!    preserved carry over). Requirements it cannot transfer are
//!    decided from the base labeling when the needed state lies outside
//!    the merge's *dirty region* ([`dirty_region`]), and only the
//!    leftovers pay for exact evaluation on the candidate — restricted
//!    to the few "dirty" conjuncts, not the whole closure.
//! 2. **Parallel candidate verification.** Candidates of a round are
//!    independent, so they fan out over
//!    [`ftsyn_tableau::earliest_success`], which commits the
//!    lowest-index success at every thread count — the exact candidate
//!    the sequential greedy scan would take.
//! 3. **Candidate pruning.** Fault-closure violations are detected from
//!    a per-round signature scan ([`RoundCtx::uncovered`]) in O(1) per
//!    candidate, rejecting provably unmergeable pairs without building
//!    the candidate.
//!
//! Transfers only ever prove *satisfaction*; every rejection comes from
//! an exact evaluation (base labeling lookup outside the dirty region,
//! or a model-checker run on the candidate). Hence the accept/reject
//! verdict per candidate — and with it the greedy merge sequence and
//! the final model — is identical to the reference engine's.

use crate::problem::SynthesisProblem;
use crate::verify::semantics_of;
use ftsyn_ctl::{Formula, FormulaArena, FormulaId};
use ftsyn_guarded::FaultAction;
use ftsyn_kripke::{
    Checker, FtKripke, LabelCache, PropSet, Semantics, StateId, StateRole, StateSet, TransKind,
};
use ftsyn_tableau::{earliest_success, AbortReason, Governor};
use std::collections::HashMap;

/// Work counters of one [`semantic_minimize`] run. Minimization
/// dominates the pipeline on the larger instances, so the counters
/// that explain the wall-clock — how many candidates were tried, how
/// each was decided, how many survived — are first-class measurements,
/// surfaced in `SynthesisStats` and the bench JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeProfile {
    /// Candidate merges decided (accepted or rejected). The greedy scan
    /// order is fixed, so this count is identical at every thread count.
    pub attempts: usize,
    /// Candidate merges accepted. Each accepted merge removes one state
    /// and restarts the greedy scan.
    pub merges: usize,
    /// Full labelings of an accepted base model (one per greedy round).
    /// The reference engine instead pays one full labeling per attempt.
    pub base_labelings: usize,
    /// Attempts that needed at least one exact formula evaluation on
    /// the whole candidate model (the expensive path; evaluation is
    /// still restricted to the dirty requirement conjuncts).
    pub full_checks: usize,
    /// Attempts decided purely from the base-model labeling: every
    /// requirement either transferred onto the candidate or was read
    /// off the cache outside the merge's dirty region.
    pub incremental_relabels: usize,
    /// Attempts rejected by the fault-closure signature prune without
    /// building a candidate model.
    pub pruned_candidates: usize,
    /// Work chunks claimed by parallel candidate scans (zero when the
    /// scan runs on one thread). Not deterministic across thread counts.
    pub parallel_batches: usize,
    /// Chunks executed off their round-robin home worker — the scan
    /// analogue of a work steal. Not deterministic across thread counts.
    pub parallel_steals: usize,
    /// Candidates tested beyond the committed one by speculating
    /// parallel workers. Their verdicts carry no decision weight and
    /// are excluded from every deterministic counter.
    pub speculative_attempts: usize,
    /// Thread count the run was configured with.
    pub threads: usize,
}

impl MinimizeProfile {
    /// The counters guaranteed to be bit-identical across thread counts
    /// (in declaration order: attempts, merges, base labelings, full
    /// checks, incremental relabels, pruned candidates). The conformance
    /// thread-matrix tests compare exactly this slice.
    pub fn deterministic_counters(&self) -> [usize; 6] {
        [
            self.attempts,
            self.merges,
            self.base_labelings,
            self.full_checks,
            self.incremental_relabels,
            self.pruned_candidates,
        ]
    }

    fn count(&mut self, kind: Kind) {
        match kind {
            Kind::Pruned => self.pruned_candidates += 1,
            Kind::Incremental => self.incremental_relabels += 1,
            Kind::Full => self.full_checks += 1,
        }
    }
}

/// Returns a copy of `m` with state `from` merged into state `into`
/// (edges redirected, `from` removed), plus the old→new state mapping.
///
/// State ids are dense, so the mapping is pure arithmetic: states above
/// `from` shift down by one, `from` maps to `into`'s image. Output
/// states, edges, and initial states are emitted in the same order as
/// the reference engine's map-based construction, so the produced
/// structure is byte-identical to its output.
fn merged(m: &FtKripke, from: StateId, into: StateId) -> (FtKripke, Vec<StateId>) {
    m.merged(from, into)
}

/// The base-model preimage of candidate state `c` when `c` is not the
/// merged state (whose preimages are `from` *and* `into`).
fn preimage(c: StateId, from: StateId) -> StateId {
    if c.0 < from.0 {
        c
    } else {
        StateId(c.0 + 1)
    }
}

/// One conjunct of the synthesis requirements, pre-analyzed for the
/// candidate decision procedure.
enum Req {
    /// `AG h` (encoded `A[false W h]`). `AG` distributes over `∧`, so
    /// the conjuncts of `h` are checked individually: conjuncts the
    /// transfer calculus proves to hold everywhere on the candidate
    /// need no evaluation at all.
    Ag {
        /// The `A[false W h]` formula itself (cached on the base model).
        whole: FormulaId,
        /// The conjuncts of `h`.
        parts: Vec<FormulaId>,
    },
    /// Any other requirement — checked as one formula.
    Plain {
        /// The requirement formula.
        whole: FormulaId,
    },
}

impl Req {
    fn of(arena: &FormulaArena, f: FormulaId) -> Req {
        if let Formula::Aw(g, h) = arena.get(f) {
            if arena.get(g) == Formula::False {
                return Req::Ag {
                    whole: f,
                    parts: arena.conjuncts(h),
                };
            }
        }
        Req::Plain { whole: f }
    }
}

/// The requirements of the synthesis problem statement, decomposed once
/// per run. Building this performs every formula-arena mutation up
/// front, so the arena is immutable (and thread-shareable) for the rest
/// of the run.
struct Requirements {
    semantics: Semantics,
    /// Conjuncts of the temporal specification, checked at the initial
    /// state.
    spec: Vec<Req>,
    /// Requirements of each distinct tolerance, checked at perturbed
    /// states.
    tol_reqs: Vec<Vec<Req>>,
    /// Fault action index → index into `tol_reqs`.
    tol_of_action: Vec<usize>,
    /// All whole requirement formulae, labeled on each accepted model.
    roots: Vec<FormulaId>,
    num_props: usize,
}

impl Requirements {
    fn new(problem: &mut SynthesisProblem) -> Requirements {
        let semantics = semantics_of(problem.mode);
        let spec_formula = problem.spec.formula(&mut problem.arena);
        let distinct = problem.tolerance.distinct();
        let mut roots = vec![spec_formula];
        let mut tol_reqs = Vec::new();
        for &tol in &distinct {
            let fs = problem.label_tol_formulas(tol);
            roots.extend(fs.iter().copied());
            tol_reqs.push(fs.iter().map(|&f| Req::of(&problem.arena, f)).collect());
        }
        let tol_of_action = (0..problem.faults.len())
            .map(|i| {
                let t = problem.tolerance.of(i);
                distinct.iter().position(|&d| d == t).expect("distinct() covers every action")
            })
            .collect();
        let spec = problem
            .arena
            .conjuncts(spec_formula)
            .into_iter()
            .map(|c| Req::of(&problem.arena, c))
            .collect();
        Requirements {
            semantics,
            spec,
            tol_reqs,
            tol_of_action,
            roots,
            num_props: problem.props.len(),
        }
    }
}

/// Shared read-only inputs of one minimization run.
struct Env<'a> {
    arena: &'a FormulaArena,
    faults: &'a [FaultAction],
    reqs: &'a Requirements,
}

/// Per-round context: the full CTL labeling of the current accepted
/// model plus derived facts the per-candidate decision procedure reads.
struct RoundCtx {
    /// Satisfaction vectors of every requirement formula and all of its
    /// subformulae on the base model.
    cache: LabelCache,
    /// Dense by formula id: whether the cached vector is all-true.
    all_true: Vec<bool>,
    /// Whether every base state has a path successor (merging never
    /// removes successors, so this carries to every candidate).
    no_dead_ends: bool,
    /// Base states missing a fault transition for some enabled outcome.
    /// Empty on fault-closed models, which makes the per-candidate
    /// closure check O(1).
    uncovered: Vec<StateId>,
    /// Dense by base state: reachability including fault transitions.
    /// When a candidate merges two states of equal reachability, the
    /// reachable set — and with it every state's role — carries over to
    /// the candidate verbatim (see [`decide_on`]).
    reach: Vec<bool>,
    /// The perturbed base states with the distinct tolerance indices of
    /// the fault actions reaching each — the obligation sites every
    /// candidate inherits, computed once per round instead of
    /// re-classifying every candidate.
    perturbed: Vec<(StateId, Vec<usize>)>,
}

fn whether_covered(model: &FtKripke, s: StateId, ai: usize, phi: &PropSet) -> bool {
    model
        .succ(s)
        .iter()
        .any(|e| e.kind == TransKind::Fault(ai) && model.state(e.to).props == *phi)
}

fn uncovered_states(faults: &[FaultAction], num_props: usize, model: &FtKripke) -> Vec<StateId> {
    let mut out = Vec::new();
    'states: for s in model.state_ids() {
        let valuation = &model.state(s).props;
        for (ai, action) in faults.iter().enumerate() {
            if !action.enabled(valuation) {
                continue;
            }
            for phi in action.outcomes(valuation, num_props) {
                if !whether_covered(model, s, ai, &phi) {
                    out.push(s);
                    continue 'states;
                }
            }
        }
    }
    out
}

/// Reachability over all transitions, faults included — the same set
/// [`FtKripke::classify`] computes internally.
fn reachable_with_faults(model: &FtKripke) -> Vec<bool> {
    let mut seen = vec![false; model.len()];
    let mut stack: Vec<StateId> = Vec::new();
    for &i in model.init_states() {
        if !seen[i.index()] {
            seen[i.index()] = true;
            stack.push(i);
        }
    }
    while let Some(s) = stack.pop() {
        for e in model.succ(s) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

fn round_ctx(env: &Env<'_>, model: &FtKripke, roles: &[StateRole]) -> RoundCtx {
    let mut ck = Checker::new(model, env.reqs.semantics);
    for &r in &env.reqs.roots {
        ck.eval(env.arena, r);
    }
    let no_dead_ends = ck.dead_end_free();
    let cache = ck.into_cache();
    let mut all_true = vec![false; env.arena.len()];
    for f in cache.formulas() {
        all_true[f.index()] = cache.all_true(f);
    }
    let mut perturbed = Vec::new();
    for s in model.state_ids() {
        if roles[s.index()] != StateRole::Perturbed {
            continue;
        }
        let mut tols: Vec<usize> = Vec::new();
        for e in model.pred(s) {
            if let TransKind::Fault(a) = e.kind {
                let t = env.reqs.tol_of_action[a];
                if !tols.contains(&t) {
                    tols.push(t);
                }
            }
        }
        perturbed.push((s, tols));
    }
    RoundCtx {
        cache,
        all_true,
        no_dead_ends,
        uncovered: uncovered_states(env.faults, env.reqs.num_props, model),
        reach: reachable_with_faults(model),
        perturbed,
    }
}

/// Exact fault-closure verdict for the candidate `merged(model, from,
/// into)` from base-model signatures alone.
///
/// Merging preserves every state's valuation and every fault edge's
/// target valuation, so a state other than `from`/`into` is closed in
/// the candidate iff it is closed in the base; the merged state is
/// closed iff each enabled outcome is covered by `from` *or* `into`
/// (its successor set is the union of theirs). The O(1) fast path:
/// `RoundCtx::uncovered` is empty — every candidate is closed.
fn closure_ok(
    env: &Env<'_>,
    round: &RoundCtx,
    model: &FtKripke,
    from: StateId,
    into: StateId,
) -> bool {
    let mut pair_uncovered = false;
    for &s in &round.uncovered {
        if s == from || s == into {
            pair_uncovered = true;
        } else {
            return false;
        }
    }
    if pair_uncovered {
        let valuation = &model.state(into).props;
        for (ai, action) in env.faults.iter().enumerate() {
            if !action.enabled(valuation) {
                continue;
            }
            for phi in action.outcomes(valuation, env.reqs.num_props) {
                if !whether_covered(model, from, ai, &phi)
                    && !whether_covered(model, into, ai, &phi)
                {
                    return false;
                }
            }
        }
    }
    true
}

/// The transfer calculus: sound per-formula proofs that base-model
/// truths survive the merge `q : base → cand` (where `q` collapses
/// `from`/`into` and is the identity elsewhere).
///
/// * `pt(f)` — *pointwise transfer*: `base, s ⊨ f` implies
///   `cand, q(s) ⊨ f` for **every** state `s`. Sound because every base
///   transition maps to a candidate transition of the same kind with
///   valuation-identical endpoints; only universal path/next operators
///   can be invalidated (the merged state may gain successors), so
///   `AU`/`AW` never transfer pointwise and `AXᵢ` transfers only when
///   `from` and `into` agree on it (then the merged state's obligation
///   set is the union of two sets that both satisfied it).
/// * `skip(f)` — `cand, c ⊨ f` for **every** candidate state `c`.
///   Every candidate state is the image of a base state with the same
///   valuation, so base-wide truths (`all_true`) combine with `pt` of
///   the subformulae; `h`-everywhere makes any until/unless of `h`
///   hold everywhere outright.
///
/// Both memoize densely by formula id; hash-consing guarantees children
/// have smaller ids, so recursion terminates and `skip(f)` never
/// re-enters `pt(f)` on the same id.
///
/// Neither direction can *refute*: a `false` answer means "not proven",
/// and the caller falls through to an exact check. `E[gWh]`
/// additionally needs the base to be dead-end free: its witness may be
/// a finite maximal path whose image could become extendable, but on a
/// dead-end-free base every witness fullpath is infinite and maps to an
/// infinite candidate fullpath.
struct Transfer<'a> {
    arena: &'a FormulaArena,
    round: &'a RoundCtx,
    from: StateId,
    into: StateId,
    pt_memo: Vec<i8>,
    skip_memo: Vec<i8>,
}

impl<'a> Transfer<'a> {
    fn new(arena: &'a FormulaArena, round: &'a RoundCtx, from: StateId, into: StateId) -> Self {
        Transfer {
            arena,
            round,
            from,
            into,
            pt_memo: vec![-1; arena.len()],
            skip_memo: vec![-1; arena.len()],
        }
    }

    fn all_true(&self, f: FormulaId) -> bool {
        self.round.all_true[f.index()]
    }

    fn pt(&mut self, f: FormulaId) -> bool {
        let m = self.pt_memo[f.index()];
        if m >= 0 {
            return m == 1;
        }
        let structural = match self.arena.get(f) {
            Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => true,
            Formula::And(a, b) | Formula::Or(a, b) => self.pt(a) && self.pt(b),
            Formula::Ex(_, g) => self.pt(g),
            Formula::Ax(_, g) => {
                // The merged state's AXᵢ obligations are the union of
                // from's and into's; transfer needs both to agree.
                let bf = self.round.cache.holds(f, self.from);
                let bi = self.round.cache.holds(f, self.into);
                bf.is_some() && bf == bi && self.pt(g)
            }
            Formula::Eu(g, h) => self.pt(g) && self.pt(h),
            Formula::Ew(g, h) => self.round.no_dead_ends && self.pt(g) && self.pt(h),
            Formula::Au(_, _) | Formula::Aw(_, _) => false,
        };
        let v = structural || self.skip(f);
        self.pt_memo[f.index()] = i8::from(v);
        v
    }

    fn skip(&mut self, f: FormulaId) -> bool {
        let m = self.skip_memo[f.index()];
        if m >= 0 {
            return m == 1;
        }
        let v = match self.arena.get(f) {
            Formula::True => true,
            Formula::False => false,
            Formula::Prop(_) | Formula::NegProp(_) => self.all_true(f),
            Formula::And(a, b) => {
                (self.skip(a) && self.skip(b))
                    || (self.all_true(f) && self.pt(a) && self.pt(b))
            }
            Formula::Or(a, b) => {
                self.skip(a)
                    || self.skip(b)
                    || (self.all_true(f) && self.pt(a) && self.pt(b))
            }
            Formula::Ax(_, g) | Formula::Ex(_, g) => {
                self.all_true(f) && (self.skip(g) || self.pt(g))
            }
            Formula::Au(_, h) | Formula::Aw(_, h) => self.skip(h),
            Formula::Eu(g, h) => {
                self.skip(h) || (self.all_true(f) && self.pt(g) && self.pt(h))
            }
            Formula::Ew(g, h) => {
                self.skip(h)
                    || (self.all_true(f)
                        && self.round.no_dead_ends
                        && self.pt(g)
                        && self.pt(h))
            }
        };
        self.skip_memo[f.index()] = i8::from(v);
        v
    }

}

/// How a candidate's verdict was reached (profiled per attempt).
#[derive(Clone, Copy, Debug)]
enum Kind {
    Pruned,
    Incremental,
    Full,
}

/// Per-candidate verdict plus its cost class. Deliberately tiny: the
/// parallel scan retains one per tested candidate, and the winning
/// candidate's model is rebuilt (cheaply) after the scan commits.
#[derive(Clone, Copy, Debug)]
struct Decision {
    ok: bool,
    kind: Kind,
}

/// Bounded backward closure of the merged state over path-relevant
/// edges of the candidate — the *dirty region*: the only states whose
/// labeling can differ from the base model's. A state outside it cannot
/// reach the merged state, so its path-relevant forward subgraph is
/// valuation- and edge-isomorphic to its preimage's, and every formula
/// keeps its base value there verbatim. Under `⊨ₙ` fault edges are
/// invisible to every operator, so only fault-free edges propagate
/// dirtiness. Returns `None` when the region escapes a quarter of the
/// candidate — the incremental lookup only pays off when the merge's
/// influence is local, and the caller falls back to the full check.
fn dirty_region(cand: &FtKripke, semantics: Semantics, seed: StateId) -> Option<Vec<bool>> {
    // The constant cap bounds the cost of a futile expansion (strongly
    // connected protocol graphs escape every bound); the verdict stays a
    // pure function of the candidate, hence thread-count independent.
    let bound = (cand.len() / 4).clamp(2, 64);
    let include_faults = semantics == Semantics::IncludeFaults;
    let mut in_region = vec![false; cand.len()];
    in_region[seed.index()] = true;
    let mut count = 1usize;
    let mut stack = vec![seed];
    while let Some(t) = stack.pop() {
        for e in cand.pred(t) {
            if !include_faults && e.kind.is_fault() {
                continue;
            }
            let s = e.to; // source
            if !in_region[s.index()] {
                in_region[s.index()] = true;
                count += 1;
                if count > bound {
                    return None;
                }
                stack.push(s);
            }
        }
    }
    Some(in_region)
}

/// Decides one candidate merge: the exact `verify_semantic` verdict on
/// `merged(model, from, into)`, computed through the cheap paths first.
fn decide(
    env: &Env<'_>,
    model: &FtKripke,
    round: &RoundCtx,
    from: StateId,
    into: StateId,
) -> Decision {
    // Lever 3: signature prune (exact, no candidate build).
    if !closure_ok(env, round, model, from, into) {
        return Decision {
            ok: false,
            kind: Kind::Pruned,
        };
    }

    // The candidate structure is needed for role classification (which
    // states are perturbed) and for any exact evaluation. It is built
    // into a per-worker scratch buffer: candidate construction runs
    // once per attempt, so it must not pay per-state allocations.
    thread_local! {
        static SCRATCH: std::cell::RefCell<(FtKripke, Vec<StateId>)> =
            std::cell::RefCell::new((FtKripke::new(), Vec::new()));
    }
    SCRATCH.with(|scratch| {
        let mut guard = scratch.borrow_mut();
        let (cand, step_map) = &mut *guard;
        model.merge_into(from, into, cand, step_map);
        decide_on(env, round, from, into, cand)
    })
}

/// State-independent resolution of one requirement against one
/// candidate, computed once per distinct requirement formula per
/// candidate (the same requirement recurs at every perturbed state).
enum ReqRes {
    /// The transfer calculus proves the requirement on every candidate
    /// state — no obligation anywhere.
    Discharged,
    /// Transfers pointwise: discharged wherever the base labeling holds
    /// at the obligation state's preimage(s).
    Pt,
    /// Needs exact evaluation at each obligation state.
    OpenPlain,
    /// `AG` requirement with undischarged conjuncts: index into the
    /// candidate's open-`AG` groups.
    OpenAg(usize),
}

fn decide_on(
    env: &Env<'_>,
    round: &RoundCtx,
    from: StateId,
    into: StateId,
    cand: &FtKripke,
) -> Decision {
    let merged_state = StateId(into.0 - u32::from(into.0 > from.0));
    let init_c = cand.init_states()[0];
    let mut tr = Transfer::new(env.arena, round, from, into);

    // Requirement obligations: spec conjuncts at the initial state,
    // tolerance labels at each perturbed state (per the tolerances of
    // the fault actions reaching it) — exactly `verify_semantic`'s
    // predicate set. The transfer calculus discharges most of them; the
    // rest stay open, grouped by requirement so the state-independent
    // work (skip/pt proofs, the dirty-conjunct split) runs once per
    // requirement instead of once per obligation.
    let mut open_plain: Vec<(FormulaId, StateId)> = Vec::new();
    // Open `AG` groups: (dirty conjuncts, obligation states).
    let mut ag_open: Vec<(FormulaId, Vec<FormulaId>, Vec<StateId>)> = Vec::new();
    let mut res_memo: HashMap<FormulaId, ReqRes> = HashMap::new();
    let mut add = |tr: &mut Transfer<'_>,
                   open_plain: &mut Vec<(FormulaId, StateId)>,
                   ag_open: &mut Vec<(FormulaId, Vec<FormulaId>, Vec<StateId>)>,
                   r: &Req,
                   c: StateId| {
        let whole = match r {
            Req::Plain { whole } | Req::Ag { whole, .. } => *whole,
        };
        let res = res_memo.entry(whole).or_insert_with(|| match r {
            Req::Plain { whole } => {
                if tr.skip(*whole) {
                    ReqRes::Discharged
                } else if tr.pt(*whole) {
                    ReqRes::Pt
                } else {
                    ReqRes::OpenPlain
                }
            }
            Req::Ag { whole, parts } => {
                // `pt(A[false W h]) = skip(A[false W h])` (no structural
                // rule), so `skip` is the whole transfer story here.
                if tr.skip(*whole) {
                    ReqRes::Discharged
                } else {
                    // AG distributes over ∧: conjuncts that hold
                    // everywhere on the candidate are discharged; the
                    // rest are dirty.
                    let dirty: Vec<FormulaId> =
                        parts.iter().copied().filter(|&p| !tr.skip(p)).collect();
                    if dirty.is_empty() {
                        ReqRes::Discharged
                    } else {
                        ag_open.push((*whole, dirty, Vec::new()));
                        ReqRes::OpenAg(ag_open.len() - 1)
                    }
                }
            }
        });
        match res {
            ReqRes::Discharged => {}
            ReqRes::Pt => {
                let proven = if c == merged_state {
                    round.cache.holds(whole, from) == Some(true)
                        || round.cache.holds(whole, into) == Some(true)
                } else {
                    round.cache.holds(whole, preimage(c, from)) == Some(true)
                };
                if !proven {
                    open_plain.push((whole, c));
                }
            }
            ReqRes::OpenPlain => open_plain.push((whole, c)),
            ReqRes::OpenAg(i) => ag_open[*i].2.push(c),
        }
    };
    for r in &env.reqs.spec {
        add(&mut tr, &mut open_plain, &mut ag_open, r, init_c);
    }
    // Obligation sites. When `from` and `into` have equal reachability,
    // merging preserves the reachable set exactly (a candidate path
    // lifts to a base path segment-wise; crossing the merged state
    // lands on `from` or `into`, and equal reachability lets the lift
    // continue from either), and — since candidates merge within a
    // (valuation, normality) class — the fault-free-reachable set too.
    // Fault predecessors map through the quotient with their sources'
    // reachability intact, so every non-merged state keeps its role
    // verbatim and the merged state is perturbed iff either preimage
    // is, with the union of their tolerance obligations. The round's
    // precomputed site list therefore *is* the candidate's. Unequal
    // reachability (rare: the pair's class spans reachable and
    // unreachable states) falls back to classifying the candidate.
    if round.reach[from.index()] == round.reach[into.index()] {
        let mut merged_tols: Vec<usize> = Vec::new();
        for (s, tols) in &round.perturbed {
            if *s == from || *s == into {
                for &t in tols {
                    if !merged_tols.contains(&t) {
                        merged_tols.push(t);
                    }
                }
                continue;
            }
            let c = StateId(s.0 - u32::from(s.0 > from.0));
            for &t in tols {
                for r in &env.reqs.tol_reqs[t] {
                    add(&mut tr, &mut open_plain, &mut ag_open, r, c);
                }
            }
        }
        for &t in &merged_tols {
            for r in &env.reqs.tol_reqs[t] {
                add(&mut tr, &mut open_plain, &mut ag_open, r, merged_state);
            }
        }
    } else {
        let roles = cand.classify();
        for s in cand.state_ids() {
            if roles[s.index()] != StateRole::Perturbed {
                continue;
            }
            let mut tols: Vec<usize> = Vec::new();
            for e in cand.pred(s) {
                if let TransKind::Fault(a) = e.kind {
                    let t = env.reqs.tol_of_action[a];
                    if !tols.contains(&t) {
                        tols.push(t);
                    }
                }
            }
            for t in tols {
                for r in &env.reqs.tol_reqs[t] {
                    add(&mut tr, &mut open_plain, &mut ag_open, r, s);
                }
            }
        }
    }
    if open_plain.is_empty() && ag_open.iter().all(|g| g.2.is_empty()) {
        return Decision {
            ok: true,
            kind: Kind::Incremental,
        };
    }

    // Lever 1b: needed states outside the dirty region keep their base
    // labeling verbatim — an exact (possibly rejecting) lookup. The
    // merged state seeds the region, so an outside state has a unique
    // preimage.
    if let Some(region) = dirty_region(cand, env.reqs.semantics, merged_state) {
        let mut reject = false;
        let mut filter = |whole: FormulaId, c: StateId| -> bool {
            if region[c.index()] {
                return true;
            }
            match round.cache.holds(whole, preimage(c, from)) {
                Some(true) => false,
                Some(false) => {
                    reject = true;
                    true
                }
                // Safety net — requirement roots are always cached.
                None => true,
            }
        };
        open_plain.retain(|&(whole, c)| filter(whole, c));
        for (whole, _, sites) in &mut ag_open {
            let w = *whole;
            sites.retain(|&c| filter(w, c));
        }
        if reject {
            return Decision {
                ok: false,
                kind: Kind::Incremental,
            };
        }
        if open_plain.is_empty() && ag_open.iter().all(|g| g.2.is_empty()) {
            return Decision {
                ok: true,
                kind: Kind::Incremental,
            };
        }
    }

    // Full fallback: exact evaluation on the candidate, restricted to
    // the open obligations. Dirty AG conjuncts share one `AG part`
    // vector across requirements and obligation states, and are tried
    // killers-first: conjuncts that rejected recent candidates are
    // evaluated before ones that always pass. The scores live in
    // worker-thread-local storage and only order the conjuncts of a
    // conjunction, so they steer cost, never the verdict — the decision
    // and its cost class stay bit-identical at every thread count.
    thread_local! {
        static KILLS: std::cell::RefCell<HashMap<FormulaId, u32>> =
            std::cell::RefCell::new(HashMap::new());
    }
    let mut ck = Checker::new(cand, env.reqs.semantics);
    let mut ag_memo: HashMap<FormulaId, StateSet> = HashMap::new();
    let verdict = KILLS.with(|kills| {
        let mut kills = kills.borrow_mut();
        for (_, parts, sites) in &mut ag_open {
            if sites.is_empty() {
                continue;
            }
            parts.sort_by_key(|p| {
                (std::cmp::Reverse(kills.get(p).copied().unwrap_or(0)), p.index())
            });
            for &p in parts.iter() {
                let ag = ag_memo.entry(p).or_insert_with(|| {
                    let vp = ck.eval(env.arena, p).clone();
                    ck.ag_of(&vp)
                });
                if sites.iter().any(|&c| !ag.contains(c)) {
                    *kills.entry(p).or_insert(0) += 1;
                    return false;
                }
            }
        }
        open_plain.iter().all(|&(whole, c)| ck.holds(env.arena, whole, c))
    });
    Decision {
        ok: verdict,
        kind: Kind::Full,
    }
}

/// Greedily merges same-valuation states while the model keeps passing
/// the semantic verification. Returns the minimized model together with
/// the mapping from the input model's state ids to the output's.
pub fn semantic_minimize(
    problem: &mut SynthesisProblem,
    model: FtKripke,
) -> (FtKripke, Vec<StateId>) {
    let (model, map, _) = semantic_minimize_profiled(problem, model);
    (model, map)
}

/// [`semantic_minimize`] plus the [`MinimizeProfile`] work counters of
/// the run (same model, same mapping — the profile is observational).
pub fn semantic_minimize_profiled(
    problem: &mut SynthesisProblem,
    model: FtKripke,
) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
    semantic_minimize_with_threads(problem, model, 1)
}

/// [`semantic_minimize_profiled`] with candidate verification fanned
/// out over `threads` worker threads. The committed merge sequence —
/// and therefore the minimized model, the mapping, and every
/// deterministic profile counter — is bit-identical at every thread
/// count (see [`MinimizeProfile::deterministic_counters`]).
pub fn semantic_minimize_with_threads(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    threads: usize,
) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
    semantic_minimize_governed(problem, model, threads, None)
        .unwrap_or_else(|a| panic!("ungoverned minimize aborted: {}", a.reason))
}

/// Partial results of a governed minimization that exceeded its budget.
#[derive(Clone, Debug)]
pub struct MinimizeAbort {
    /// Which limit tripped.
    pub reason: AbortReason,
    /// Attempts/merges performed up to the abort point.
    pub profile: MinimizeProfile,
}

/// [`semantic_minimize_with_threads`] under an optional [`Governor`]
/// (`None` never aborts): the attempt cap bounds each round's candidate
/// scan so that exactly `cap` candidates are decided in scan order
/// before the abort — bit-identical counters at every thread count —
/// and the deadline/cancel flag is polled before every candidate
/// verification. `max_minimize_attempts: Some(n)` performs exactly `n`
/// attempts.
pub fn semantic_minimize_governed(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    threads: usize,
    gov: Option<&Governor>,
) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
    let threads = threads.max(1);
    let mut profile = MinimizeProfile {
        threads,
        ..MinimizeProfile::default()
    };
    // All arena mutations happen here; afterwards the problem is only
    // read, so candidate workers can share it.
    let reqs = Requirements::new(problem);
    let env = Env {
        arena: &problem.arena,
        faults: &problem.faults,
        reqs: &reqs,
    };
    let mut model = model;
    let mut total_map: Vec<StateId> = model.state_ids().collect();
    'outer: loop {
        // Group state ids by (valuation, normality). Merging a normal
        // with a non-normal copy would enlarge the fault-free reachable
        // region — correct, but it would lose the paper's Section 6.2
        // observation that recovery transitions generate no new states
        // under normal operation — so merges stay within a class.
        // Groups are kept in first-occurrence (state-id) order: iterating
        // a `HashMap<(PropSet, bool), _>` here was the pipeline's last
        // source of run-to-run nondeterminism (the greedy merge order
        // changed, and with it the final state count — 85 vs 86 on
        // mutex3-failstop).
        let roles = model.classify();
        let mut group_index: HashMap<(PropSet, bool), usize> = HashMap::new();
        let mut groups: Vec<Vec<StateId>> = Vec::new();
        for s in model.state_ids() {
            let normal = roles[s.index()] == StateRole::Normal;
            let key = (model.state(s).props.clone(), normal);
            let gi = *group_index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(s);
        }
        let mut candidates: Vec<(StateId, StateId)> = Vec::new();
        for members in &groups {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    candidates.push((b, a)); // merge later copy into earlier
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        if let Some(g) = gov {
            if let Err(reason) = g.check_minimize_attempts(profile.attempts) {
                return Err(MinimizeAbort { reason, profile });
            }
        }
        // One labeling of the accepted model serves the whole round;
        // the grouping's role vector doubles as its obligation map.
        let round = round_ctx(&env, &model, &roles);
        profile.base_labelings += 1;
        // The attempt cap bounds the scan length, so the round decides
        // exactly the candidates the cap admits, in scan order.
        let allowance = gov
            .and_then(|g| g.budget().max_minimize_attempts)
            .map_or(usize::MAX, |cap| cap - profile.attempts);
        let n_scan = candidates.len().min(allowance);
        // Lever 2: fan the candidate verdicts out; the committed index
        // is the lowest passing one at every thread count.
        let scan = earliest_success(n_scan, threads, |i| {
            if let Some(g) = gov {
                g.check_realtime()?;
            }
            let (from, into) = candidates[i];
            let d = decide(&env, &model, &round, from, into);
            Ok((d.ok, d))
        });
        let (found, outcomes, stats) = match scan {
            Ok(r) => r,
            Err(reason) => return Err(MinimizeAbort { reason, profile }),
        };
        if threads > 1 {
            profile.parallel_batches += stats.batches;
            profile.parallel_steals += stats.steals;
        }
        match found {
            Some(j) => {
                // Deterministic accounting: only the committed prefix
                // counts; speculative verdicts are tallied separately.
                profile.attempts += j + 1;
                profile.speculative_attempts += stats.tested - (j + 1);
                for d in outcomes.iter().take(j + 1).flatten() {
                    profile.count(d.kind);
                }
                profile.merges += 1;
                let (from, into) = candidates[j];
                let (next, step_map) = merged(&model, from, into);
                model = next;
                for t in total_map.iter_mut() {
                    *t = step_map[t.index()];
                }
                continue 'outer;
            }
            None => {
                profile.attempts += n_scan;
                for d in outcomes.iter().flatten() {
                    profile.count(d.kind);
                }
                if n_scan < candidates.len() {
                    // The cap cut the scan short with candidates left:
                    // the reference engine aborts here too, with the
                    // same attempt count.
                    let cap = gov
                        .and_then(|g| g.budget().max_minimize_attempts)
                        .expect("scan only shortened by the attempt cap");
                    return Err(MinimizeAbort {
                        reason: AbortReason::MinimizeAttemptCapExceeded {
                            cap,
                            reached: profile.attempts,
                        },
                        profile,
                    });
                }
                break;
            }
        }
    }
    Ok((model, total_map, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::mutex;
    use crate::synthesize;
    use crate::unravel::unravel_mode;
    use crate::verify::verify_semantic;
    use ftsyn_kripke::TransKind;
    use ftsyn_tableau::{apply_deletion_rules_mode, build};

    /// Replicates the pipeline up to the pre-minimization model (the
    /// input `semantic_minimize` sees during synthesis).
    fn pre_minimization_model(problem: &mut SynthesisProblem) -> FtKripke {
        let (closure, fault_spec, root_label) = problem.tableau_inputs();
        let mut tableau = build(&closure, &problem.props, root_label, &fault_spec);
        apply_deletion_rules_mode(&mut tableau, &closure, problem.mode);
        assert!(tableau.alive(tableau.root()), "problem is synthesizable");
        let c0 = tableau
            .alive_succ(tableau.root(), |_| true)
            .map(|(_, c)| c)
            .next()
            .expect("alive root has an alive AND child");
        unravel_mode(&tableau, &closure, &problem.props, c0, problem.mode).model
    }

    #[test]
    fn merged_redirects_edges() {
        use ftsyn_kripke::State;
        let mut m = FtKripke::new();
        let mk = |bits: &[u32]| {
            State::new(PropSet::from_iter_with_capacity(
                4,
                bits.iter().map(|&b| ftsyn_ctl::PropId(b)),
            ))
        };
        let a = m.push_state(mk(&[0]));
        let b1 = m.push_state(mk(&[1]));
        let b2 = m.push_state(mk(&[1]));
        m.add_init(a);
        m.add_edge(a, TransKind::Proc(0), b1);
        m.add_edge(b1, TransKind::Proc(0), b2);
        m.add_edge(b2, TransKind::Proc(0), a);
        let (out, mapping) = merged(&m, b2, b1);
        assert_eq!(out.len(), 2);
        assert_eq!(mapping.len(), 3);
        assert_eq!(mapping[1], mapping[2], "b2 merged into b1");
        // b1 now has a self-loop (the b1→b2 edge redirected).
        let nb1 = out
            .state_ids()
            .find(|&s| out.state(s).props.contains(ftsyn_ctl::PropId(1)))
            .unwrap();
        assert!(out.succ(nb1).iter().any(|e| e.to == nb1));
    }

    #[test]
    fn minimization_keeps_the_model_correct_and_small() {
        let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let solved = synthesize(&mut problem).unwrap_solved();
        // synthesize already minimizes; minimizing again is a fixpoint.
        let before = solved.model.len();
        let (again, mapping, profile) =
            semantic_minimize_profiled(&mut problem, solved.model.clone());
        assert_eq!(again.len(), before, "minimization is a fixpoint");
        assert_eq!(mapping.len(), before);
        assert!(verify_semantic(&mut problem, &again).ok());
        // On a fixpoint every candidate is tried once and rejected.
        assert_eq!(profile.merges, 0, "no merge survives on a fixpoint");
        assert!(profile.attempts > 0, "candidates were actually tried");
        // Every attempt is classified by exactly one decision path.
        assert_eq!(
            profile.pruned_candidates + profile.incremental_relabels + profile.full_checks,
            profile.attempts,
            "decision-path counters partition the attempts: {profile:?}"
        );
    }

    /// Minimization stays verification-guarded: the synthesized model is
    /// a greedy fixpoint, so *every* remaining same-(valuation, role)
    /// merge candidate must fail the semantic verification — none was
    /// left unmerged for any reason other than the guard rejecting it.
    /// Vacuity is ruled out by requiring that such candidates exist: the
    /// guard is load-bearing, not idle.
    #[test]
    fn every_remaining_merge_candidate_is_semantically_invalid() {
        let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let solved = synthesize(&mut problem).unwrap_solved();
        let model = &solved.model;
        let roles = model.classify();
        let ids: Vec<_> = model.state_ids().collect();
        let mut candidates = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                // Same candidate classes as the minimizer: valuation
                // plus the Normal/non-Normal split.
                let normal =
                    |s: StateId| roles[s.index()] == ftsyn_kripke::StateRole::Normal;
                if model.state(a).props != model.state(b).props || normal(a) != normal(b) {
                    continue;
                }
                candidates += 1;
                let (cand, _) = merged(model, b, a);
                assert!(
                    !verify_semantic(&mut problem, &cand).ok(),
                    "merging {b:?} into {a:?} passes verification, so \
                     minimization should have taken it"
                );
            }
        }
        assert!(
            candidates > 0,
            "no same-valuation candidate pairs left — the guard was never exercised"
        );
    }

    /// Deterministic counters must not depend on the thread count even
    /// though speculation does: pin the exact slice the conformance
    /// layer compares.
    #[test]
    fn deterministic_counters_agree_across_thread_counts() {
        let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
        let pre = pre_minimization_model(&mut problem);
        let (_, _, base) = semantic_minimize_with_threads(&mut problem, pre.clone(), 1);
        for threads in [2, 8] {
            let mut problem = mutex::with_fail_stop(2, crate::Tolerance::Masking);
            let _ = pre_minimization_model(&mut problem);
            let (_, _, p) = semantic_minimize_with_threads(&mut problem, pre.clone(), threads);
            assert_eq!(
                p.deterministic_counters(),
                base.deterministic_counters(),
                "threads={threads}"
            );
            assert_eq!(p.threads, threads);
        }
        assert_eq!(base.parallel_batches, 0, "sequential scans claim no chunks");
        assert_eq!(base.speculative_attempts, 0, "sequential scans never speculate");
    }
}
