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
//!    preserved carry over). Only the leftovers pay for exact
//!    evaluation on the candidate — restricted to the few "dirty"
//!    conjuncts, not the whole closure, and tried killers-first.
//! 2. **Candidate pruning.** Fault-closure violations are detected from
//!    a signature scan ([`RoundCtx::uncovered`]) in O(1) per candidate,
//!    rejecting provably unmergeable pairs without building the
//!    candidate. The scan runs once per run, on the input model: the
//!    check is exact, so an accepted candidate is fault-closed, and a
//!    merge only unions successor sets and keeps valuations, so every
//!    later model is fault-closed too.
//! 3. **Rejection replay.** The scan restarts after every accepted
//!    merge, so almost every attempt re-decides a pair an earlier round
//!    rejected. A rejection whose violated obligation is *universal*
//!    (literals, `∧`, `∨`, `AXᵢ`, `AU`, `AW` only) is remembered and
//!    replayed in O(1) by later rounds, without building the candidate.
//!
//! The scan itself is the sequential left-to-right loop of the greedy
//! method: with replay, a round decides only a few candidates before it
//! commits, too few to pay for fanning them out over threads.
//!
//! # Why a replay is exact
//!
//! Let round `k` reject `C = M_k/(a~b)` on a universal obligation `φ`,
//! and let a later round retry the pair on `C' = M_m/(a~b)`. `C'` is a
//! further quotient of `C`: every merge keeps valuations and edge kinds,
//! so every path of `C` maps onto a path of `C'`, and a violation of a
//! universal formula (an `AXᵢ` successor, a finite `AW` witness prefix,
//! a finite or infinite `AU` witness path) maps onto a violation in `C'`
//! (Grumberg & Long's ACTL preservation). Three guards make that hold:
//!
//! * `φ` is universal ([`Requirements::universal`]; `AXᵢ` is the weak,
//!   all-successors form of [`Checker`]);
//! * `M_k` has no dead ends ([`RoundCtx::no_dead_ends`]): an `AU`
//!   violation is then an infinite path, not a maximal finite one that
//!   a later merge could extend. Merges never remove successors, so no
//!   later model has dead ends either;
//! * the rejected pair and every merge accepted since had equal
//!   reachability ([`RoundCtx::reach`]), so each obligation site of `C`
//!   maps to an obligation site of `C'` with at least its tolerances.
//!
//! Accepted merges map the replay set forward; a merge of unequal
//! reachability clears it. Closure-prune rejections are never replayed:
//! a later merge may supply the missing fault edge. Rejections on a
//! non-universal obligation are not either: a later merge may add a
//! witness (the conformance suite holds one such input).
//!
//! Transfers only ever prove *satisfaction*; every rejection comes from
//! the closure check, a model-checker run on the candidate, or a replay
//! of such a run's universal violation. Hence the accept/reject verdict
//! per candidate — and with it the greedy merge sequence and the final
//! model — is identical to the reference engine's.

use crate::problem::SynthesisProblem;
use crate::verify::semantics_of;
use ftsyn_ctl::{Formula, FormulaArena, FormulaId};
use ftsyn_guarded::FaultAction;
use ftsyn_kripke::{
    Checker, FtKripke, LabelCache, PropSet, Semantics, StateId, StateRole, StateSet, TransKind,
};
use ftsyn_tableau::{AbortReason, Governor};
use std::collections::{HashMap, HashSet};

/// Work counters of one [`semantic_minimize`] run. Minimization
/// dominates the pipeline on the larger instances, so the counters
/// that explain the wall-clock — how many candidates were tried, how
/// each was decided, how many survived — are first-class measurements,
/// surfaced in `SynthesisStats` and the bench JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinimizeProfile {
    /// Candidate merges decided (accepted or rejected), in the greedy
    /// scan's fixed order.
    pub attempts: usize,
    /// Candidate merges accepted. Each accepted merge removes one state
    /// and restarts the greedy scan.
    pub merges: usize,
    /// Full labelings of an accepted base model (one per greedy round).
    /// The reference engine instead pays one full labeling per attempt.
    pub base_labelings: usize,
    /// Attempts decided on a built candidate model: the transfer
    /// calculus, then exact evaluation of whatever it left open
    /// (restricted to the dirty requirement conjuncts).
    pub full_checks: usize,
    /// Attempts rejected by the fault-closure signature prune without
    /// building a candidate model.
    pub pruned_candidates: usize,
    /// Attempts rejected by replaying an earlier round's rejection of
    /// the same pair on a universal obligation, without building a
    /// candidate model.
    pub replayed: usize,
}

impl MinimizeProfile {
    /// Every counter, in declaration order: attempts, merges, base
    /// labelings, full checks, pruned candidates, replayed. The
    /// conformance pins compare exactly this slice.
    pub fn deterministic_counters(&self) -> [usize; 6] {
        [
            self.attempts,
            self.merges,
            self.base_labelings,
            self.full_checks,
            self.pruned_candidates,
            self.replayed,
        ]
    }

    fn count(&mut self, kind: Kind) {
        match kind {
            Kind::Pruned => self.pruned_candidates += 1,
            Kind::Full => self.full_checks += 1,
        }
    }
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
/// front, so the arena is only read for the rest of the run.
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
    /// Dense by formula id: whether the formula is universal (literals,
    /// `∧`, `∨`, `AXᵢ`, `AU`, `AW` only), i.e. whether its violation on a
    /// candidate survives every further merge (module docs).
    universal: Vec<bool>,
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
                distinct
                    .iter()
                    .position(|&d| d == t)
                    .expect("distinct() covers every action")
            })
            .collect();
        let spec = problem
            .arena
            .conjuncts(spec_formula)
            .into_iter()
            .map(|c| Req::of(&problem.arena, c))
            .collect();
        // Hash-consing gives children smaller ids, so one ascending pass
        // sees every child's verdict first.
        let arena = &problem.arena;
        let mut universal = vec![false; arena.len()];
        for i in 0..arena.len() {
            let u = |f: FormulaId| universal[f.index()];
            universal[i] = match arena.get(FormulaId(i as u32)) {
                Formula::True | Formula::False | Formula::Prop(_) | Formula::NegProp(_) => true,
                Formula::And(a, b) | Formula::Or(a, b) | Formula::Au(a, b) | Formula::Aw(a, b) => {
                    u(a) && u(b)
                }
                Formula::Ax(_, g) => u(g),
                Formula::Ex(..) | Formula::Eu(..) | Formula::Ew(..) => false,
            };
        }
        Requirements {
            semantics,
            spec,
            tol_reqs,
            tol_of_action,
            roots,
            universal,
            num_props: problem.props.len(),
        }
    }
}

/// Read-only inputs of one minimization run.
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
    /// closure check O(1). Scanned once per run, for the first round:
    /// [`closure_ok`] is exact, so the first accepted merge leaves a
    /// fault-closed model, and merges only union successor sets and
    /// keep valuations, so every later round's set is empty.
    uncovered: Vec<StateId>,
    /// Dense by base state: reachability including fault transitions
    /// (every role but [`StateRole::Unreachable`]). When a candidate
    /// merges two states of equal reachability, the reachable set — and
    /// with it every state's role — carries over to the candidate
    /// verbatim (see [`decide_on`]).
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

fn round_ctx(
    env: &Env<'_>,
    model: &FtKripke,
    roles: &[StateRole],
    uncovered: Vec<StateId>,
) -> RoundCtx {
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
        uncovered,
        reach: roles.iter().map(|&r| r != StateRole::Unreachable).collect(),
        perturbed,
    }
}

/// Exact fault-closure verdict for the candidate `model.merged(from,
/// into)` from base-model signatures alone.
///
/// Merging preserves every state's valuation and every fault edge's
/// target valuation, so a state other than `from`/`into` is closed in
/// the candidate iff it is closed in the base; the merged state is
/// closed iff each enabled outcome is covered by `from` *or* `into`
/// (its successor set is the union of theirs). The O(1) fast path:
/// `RoundCtx::uncovered` is empty — every candidate is closed. That is
/// every round after the first: the merge that ended the first round
/// passed this check, so it left a fault-closed model.
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
                (self.skip(a) && self.skip(b)) || (self.all_true(f) && self.pt(a) && self.pt(b))
            }
            Formula::Or(a, b) => {
                self.skip(a) || self.skip(b) || (self.all_true(f) && self.pt(a) && self.pt(b))
            }
            Formula::Ax(_, g) | Formula::Ex(_, g) => {
                self.all_true(f) && (self.skip(g) || self.pt(g))
            }
            Formula::Au(_, h) | Formula::Aw(_, h) => self.skip(h),
            Formula::Eu(g, h) => self.skip(h) || (self.all_true(f) && self.pt(g) && self.pt(h)),
            Formula::Ew(g, h) => {
                self.skip(h)
                    || (self.all_true(f) && self.round.no_dead_ends && self.pt(g) && self.pt(h))
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
    Full,
}

/// Per-candidate verdict plus its cost class.
#[derive(Clone, Copy, Debug)]
struct Decision {
    ok: bool,
    kind: Kind,
    /// The dirty `AG` conjunct a rejection failed on, if it failed on
    /// one (its kill score goes up).
    killer: Option<FormulaId>,
    /// Whether the rejection's violated obligation is universal, so
    /// that later rounds may replay it.
    universal: bool,
}

impl Decision {
    fn new(ok: bool, kind: Kind) -> Decision {
        Decision {
            ok,
            kind,
            killer: None,
            universal: false,
        }
    }
}

/// Decides one candidate merge: the exact `verify_semantic` verdict on
/// `model.merged(from, into)`, computed through the cheap paths first.
/// `kills` orders each dirty `AG` group's conjuncts (module docs).
///
/// `buf` is the run's one candidate buffer `(candidate, step map)`:
/// candidate construction runs once per attempt, so it must not pay
/// per-state allocations. An accepted candidate is always built, so on
/// acceptance `buf` holds the merged model and its step map.
fn decide(
    env: &Env<'_>,
    model: &FtKripke,
    round: &RoundCtx,
    kills: &[u32],
    from: StateId,
    into: StateId,
    buf: &mut (FtKripke, Vec<StateId>),
) -> Decision {
    // Lever 2: signature prune (exact, no candidate build).
    if !closure_ok(env, round, model, from, into) {
        return Decision::new(false, Kind::Pruned);
    }

    // The candidate structure is needed for role classification (which
    // states are perturbed) and for any exact evaluation.
    let (cand, step_map) = buf;
    model.merge_into(from, into, cand, step_map);
    decide_on(env, round, kills, from, into, cand)
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
    kills: &[u32],
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
    let mut ag_open: Vec<(Vec<FormulaId>, Vec<StateId>)> = Vec::new();
    let mut res_memo: HashMap<FormulaId, ReqRes> = HashMap::new();
    let mut add = |tr: &mut Transfer<'_>,
                   open_plain: &mut Vec<(FormulaId, StateId)>,
                   ag_open: &mut Vec<(Vec<FormulaId>, Vec<StateId>)>,
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
                        ag_open.push((dirty, Vec::new()));
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
            ReqRes::OpenAg(i) => ag_open[*i].1.push(c),
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
    // Exact evaluation on the candidate, restricted to the open
    // obligations (none when the transfer calculus discharged them all:
    // the candidate is then accepted). Dirty AG conjuncts share one
    // `AG part` vector across requirements and obligation states, and
    // are tried killers-first: conjuncts that rejected candidates of
    // earlier rounds are evaluated before ones that always pass. The
    // scores change only between rounds, so every candidate of a round
    // sees the same order.
    let mut ck = Checker::new(cand, env.reqs.semantics);
    let mut ag_memo: HashMap<FormulaId, StateSet> = HashMap::new();
    let universal = |f: FormulaId| env.reqs.universal[f.index()];
    for (parts, sites) in &mut ag_open {
        if sites.is_empty() {
            continue;
        }
        parts.sort_by_key(|p| (std::cmp::Reverse(kills[p.index()]), p.index()));
        for &p in parts.iter() {
            let ag = ag_memo.entry(p).or_insert_with(|| {
                let vp = ck.eval(env.arena, p).clone();
                ck.ag_of(&vp)
            });
            if sites.iter().any(|&c| !ag.contains(c)) {
                // `AG p` is universal exactly when `p` is.
                return Decision {
                    killer: Some(p),
                    universal: universal(p),
                    ..Decision::new(false, Kind::Full)
                };
            }
        }
    }
    match open_plain
        .iter()
        .find(|&&(whole, c)| !ck.holds(env.arena, whole, c))
    {
        Some(&(whole, _)) => Decision {
            universal: universal(whole),
            ..Decision::new(false, Kind::Full)
        },
        None => Decision::new(true, Kind::Full),
    }
}

/// Greedily merges same-valuation states while the model keeps passing
/// the semantic verification. Returns the minimized model, the mapping
/// from the input model's state ids to the output's, and the run's
/// [`MinimizeProfile`].
pub fn semantic_minimize(
    problem: &mut SynthesisProblem,
    model: FtKripke,
) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
    semantic_minimize_governed(problem, model, None)
        .unwrap_or_else(|a| panic!("ungoverned minimize aborted: {}", a.reason))
}

/// [`semantic_minimize`] under the name the benchmark harness still
/// calls. `threads` is ignored: the minimizer is sequential.
#[deprecated(note = "ignores `threads`: call `semantic_minimize`")]
pub fn semantic_minimize_with_threads(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    _threads: usize,
) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
    semantic_minimize(problem, model)
}

/// Partial results of a governed minimization that exceeded its budget.
#[derive(Clone, Debug)]
pub struct MinimizeAbort {
    /// Which limit tripped.
    pub reason: AbortReason,
    /// Attempts/merges performed up to the abort point.
    pub profile: MinimizeProfile,
}

/// [`semantic_minimize`] under an optional [`Governor`] (`None` never
/// aborts): the attempt cap bounds each round's candidate scan so that
/// exactly `cap` candidates are decided in scan order before the abort,
/// and the deadline/cancel flag is polled once per round and before
/// every candidate verification (replays take O(1) and are not polled
/// one by one). `max_minimize_attempts: Some(n)` performs exactly `n`
/// attempts.
pub fn semantic_minimize_governed(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    gov: Option<&Governor>,
) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
    let mut profile = MinimizeProfile::default();
    // All arena mutations happen here; afterwards the problem is only
    // read.
    let reqs = Requirements::new(problem);
    let env = Env {
        arena: &problem.arena,
        faults: &problem.faults,
        reqs: &reqs,
    };
    let mut model = model;
    let mut total_map: Vec<StateId> = model.state_ids().collect();
    // Merges never change a valuation, so valuations are numbered once,
    // in first-occurrence order; `val_of` drops a merged state's entry
    // as the merge drops the state, so it stays dense by state id.
    let mut val_of: Vec<usize> = {
        let mut ids: HashMap<&PropSet, usize> = HashMap::new();
        model
            .state_ids()
            .map(|s| {
                let next = ids.len();
                *ids.entry(&model.state(s).props).or_insert(next)
            })
            .collect()
    };
    let n_vals = val_of.iter().max().map_or(0, |&v| v + 1);
    // Lever 2's closure scan, once per run (module docs): it is handed
    // to the first round only, because reaching a second round takes an
    // accepted merge, after which no state is uncovered.
    let mut uncovered = uncovered_states(env.faults, env.reqs.num_props, &model);
    // Per-run kill scores, dense by formula id (see `decide_on`), and
    // the replay set of lever 3 in the current model's state ids.
    let mut kills = vec![0u32; env.arena.len()];
    let mut rejected: HashSet<(StateId, StateId)> = HashSet::new();
    // Buffers kept for the whole run: candidates are built into `buf`,
    // and an accepted one swaps places with the model; the replay set
    // is carried into `carried` and swapped likewise.
    let mut buf: (FtKripke, Vec<StateId>) = Default::default();
    let mut carried: HashSet<(StateId, StateId)> = HashSet::new();
    let mut killers: Vec<FormulaId> = Vec::new();
    let mut group_of: Vec<usize> = Vec::new();
    let mut groups: Vec<Vec<StateId>> = Vec::new();
    let mut candidates: Vec<(StateId, StateId)> = Vec::new();
    loop {
        // Group state ids by (valuation, normality). Merging a normal
        // with a non-normal copy would enlarge the fault-free reachable
        // region — correct, but it would lose the paper's Section 6.2
        // observation that recovery transitions generate no new states
        // under normal operation — so merges stay within a class.
        // Groups are kept in first-occurrence (state-id) order: iterating
        // a `HashMap<(PropSet, bool), _>` here was the pipeline's last
        // source of run-to-run nondeterminism (the greedy merge order
        // changed, and with it the final state count — 85 vs 86 on
        // mutex3-failstop). A class is found by its dense key
        // `2·valuation + normal` in `group_of`.
        let roles = model.classify();
        group_of.clear();
        group_of.resize(2 * n_vals, usize::MAX);
        groups.clear();
        for s in model.state_ids() {
            let normal = roles[s.index()] == StateRole::Normal;
            let key = 2 * val_of[s.index()] + usize::from(normal);
            if group_of[key] == usize::MAX {
                group_of[key] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of[key]].push(s);
        }
        candidates.clear();
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
        // the grouping's role vector doubles as its obligation map and
        // its reachable set.
        let round = round_ctx(&env, &model, &roles, std::mem::take(&mut uncovered));
        profile.base_labelings += 1;
        if let Some(g) = gov {
            if let Err(reason) = g.check_realtime() {
                return Err(MinimizeAbort { reason, profile });
            }
        }
        // The attempt cap bounds the scan length, so the round decides
        // exactly the candidates the cap admits, in scan order.
        let allowance = gov
            .and_then(|g| g.budget().max_minimize_attempts)
            .map_or(usize::MAX, |cap| cap - profile.attempts);
        let n_scan = candidates.len().min(allowance);
        // The scan: the first candidate that passes is committed. Kill
        // scores stay frozen for the whole round (`killers` is applied
        // after it), so every candidate sees the round-start order.
        killers.clear();
        let mut found = None;
        for &(from, into) in &candidates[..n_scan] {
            profile.attempts += 1;
            // Lever 3: a replayed rejection costs O(1).
            if rejected.contains(&(from, into)) {
                profile.replayed += 1;
                continue;
            }
            if let Some(g) = gov {
                if let Err(reason) = g.check_realtime() {
                    return Err(MinimizeAbort { reason, profile });
                }
            }
            let d = decide(&env, &model, &round, &kills, from, into, &mut buf);
            profile.count(d.kind);
            if d.ok {
                found = Some((from, into));
                break;
            }
            killers.extend(d.killer);
            if d.universal
                && round.no_dead_ends
                && round.reach[from.index()] == round.reach[into.index()]
            {
                rejected.insert((from, into));
            }
        }
        for p in &killers {
            kills[p.index()] += 1;
        }
        match found {
            Some((from, into)) => {
                profile.merges += 1;
                // The accepted candidate is still in `buf`.
                let step_map = &buf.1;
                std::mem::swap(&mut model, &mut buf.0);
                val_of.remove(from.index());
                debug_assert!(
                    uncovered_states(env.faults, env.reqs.num_props, &model).is_empty(),
                    "an accepted merge left a state without a fault successor"
                );
                for t in total_map.iter_mut() {
                    *t = step_map[t.index()];
                }
                // Carry the replay set to the merged model: candidate
                // pairs are (later id, earlier id), and a pair the merge
                // collapsed is gone. Unequal reachability may change
                // obligation sites, so then nothing carries over.
                if round.reach[from.index()] == round.reach[into.index()] {
                    carried.extend(rejected.drain().filter_map(|(a, b)| {
                        let (a, b) = (step_map[a.index()], step_map[b.index()]);
                        (a != b).then(|| (a.max(b), a.min(b)))
                    }));
                    std::mem::swap(&mut rejected, &mut carried);
                } else {
                    rejected.clear();
                }
            }
            None if n_scan < candidates.len() => {
                // The cap cut the scan short with candidates left: the
                // reference engine aborts here too, with the same
                // attempt count.
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
            None => break,
        }
    }
    Ok((model, total_map, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::mutex;
    use crate::synthesize;
    use crate::verify::verify_semantic;
    use ftsyn_kripke::TransKind;

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
        let (out, mapping) = m.merged(b2, b1);
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
        let (again, mapping, profile) = semantic_minimize(&mut problem, solved.model.clone());
        assert_eq!(again.len(), before, "minimization is a fixpoint");
        assert_eq!(mapping.len(), before);
        assert!(verify_semantic(&mut problem, &again).ok());
        // On a fixpoint every candidate is tried once and rejected.
        assert_eq!(profile.merges, 0, "no merge survives on a fixpoint");
        assert!(profile.attempts > 0, "candidates were actually tried");
        // Every attempt is classified by exactly one decision path.
        assert_eq!(
            profile.pruned_candidates + profile.full_checks + profile.replayed,
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
                let normal = |s: StateId| roles[s.index()] == ftsyn_kripke::StateRole::Normal;
                if model.state(a).props != model.state(b).props || normal(a) != normal(b) {
                    continue;
                }
                candidates += 1;
                let (cand, _) = model.merged(b, a);
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
}
