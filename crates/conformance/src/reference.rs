//! Reference implementations: the straightforward engines the
//! optimized ones replaced, kept outside the production crates only as
//! oracles (so release binaries never compile them). Each follows its
//! definition as literally as possible, and each optimized engine must
//! reproduce its oracle exactly:
//!
//! - `Blocks`/`Tiles` and the tableau build: `tests/tableau_kernels.rs`
//!   and every fuzz seed ([`crate::differential::run_seed`]);
//! - deletion and fulfillment, in both certificate modes: the root
//!   `tests/engine_equivalence.rs`;
//! - minimization and its attempt-cap abort: `tests/minimize.rs`;
//! - the step-5 explorer and `Vec<bool>` CTL labeler: `tests/kernels.rs`.
//!   The explorer re-resolves every fault outcome and walks every guard
//!   tree at every state; the labeler computes each satisfaction vector
//!   from fresh copies of its operands.

mod build;
mod delete;
mod expand;
mod minimize;

pub use build::build_reference;
pub use delete::{
    apply_deletion_rules_naive_mode, au_fulfillment_naive, eu_fulfillment_naive,
    live_eventualities_sweep,
};
pub use expand::{blocks_naive, naive_is_prop_consistent, tiles_naive};
pub use minimize::{merged, semantic_minimize_reference, semantic_minimize_reference_governed};

use ftsyn::ctl::{Formula, FormulaArena, FormulaId, Owner, PropTable};
use ftsyn::guarded::interp::{corrupt_branches, ExploreError};
use ftsyn::guarded::{FaultAction, Program};
use ftsyn::kripke::{FtKripke, KripkeBuilder, PropSet, Semantics, State, StateId, TransKind};
use std::collections::HashMap;

/// Upper bound on explored states, as in the production explorer.
const MAX_STATES: usize = 1_000_000;

/// A runtime configuration: local-state indices plus shared values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Config {
    locals: Vec<usize>,
    shared: Vec<u32>,
}

/// Explores the reachable global-state space of `program` under
/// nondeterministic interleaving plus the fault transitions of
/// `faults`, exactly as `ftsyn_guarded::interp::explore` specifies.
///
/// # Errors
///
/// See [`ExploreError`].
pub fn explore(
    program: &Program,
    faults: &[FaultAction],
    props: &PropTable,
) -> Result<FtKripke, ExploreError> {
    let mut kripke = KripkeBuilder::new();
    let mut configs: Vec<Config> = Vec::new();
    let mut by_config: HashMap<Config, StateId> = HashMap::new();
    let mut by_state: HashMap<State, StateId> = HashMap::new();

    let proc_masks: Vec<PropSet> = (0..program.processes.len())
        .map(|i| {
            PropSet::from_iter_with_capacity(
                props.len(),
                props
                    .iter()
                    .filter(|&p| props.owner(p) == Owner::Process(i)),
            )
        })
        .collect();

    let init = Config {
        locals: program.init_locals.clone(),
        shared: program.init_shared.clone(),
    };
    let mut intern = |cfg: Config,
                      kripke: &mut KripkeBuilder,
                      configs: &mut Vec<Config>,
                      by_config: &mut HashMap<Config, StateId>|
     -> Result<StateId, ExploreError> {
        if let Some(&id) = by_config.get(&cfg) {
            return Ok(id);
        }
        let st = State {
            props: program.valuation(&cfg.locals),
            shared: cfg.shared.clone(),
        };
        if by_state.contains_key(&st) {
            return Err(ExploreError::AmbiguousState);
        }
        let id = kripke.push_state(st.clone());
        by_state.insert(st, id);
        by_config.insert(cfg.clone(), id);
        configs.push(cfg);
        if configs.len() > MAX_STATES {
            return Err(ExploreError::StateSpaceTooLarge(MAX_STATES));
        }
        Ok(id)
    };

    let init_id = intern(init, &mut kripke, &mut configs, &mut by_config)?;
    kripke.add_init(init_id);
    let mut work = vec![init_id];

    while let Some(sid) = work.pop() {
        let cfg = configs[sid.index()].clone();
        let valuation = program.valuation(&cfg.locals);

        for (pi, proc) in program.processes.iter().enumerate() {
            for arc in &proc.arcs {
                if arc.from != cfg.locals[pi] || !arc.guard.eval(&valuation, &cfg.shared) {
                    continue;
                }
                let mut next = cfg.clone();
                next.locals[pi] = arc.to;
                for &(v, k) in &arc.assigns {
                    if v < next.shared.len() {
                        next.shared[v] = k;
                    }
                }
                let before = configs.len();
                let tid = intern(next, &mut kripke, &mut configs, &mut by_config)?;
                if configs.len() > before {
                    work.push(tid);
                }
                kripke.add_edge(sid, TransKind::Proc(pi as u32), tid);
            }
        }

        for (fi, action) in faults.iter().enumerate() {
            if !action.enabled(&valuation) {
                continue;
            }
            for outcome in action.outcomes(&valuation, props.len()) {
                let mut locals = Vec::with_capacity(program.processes.len());
                for (pi, proc) in program.processes.iter().enumerate() {
                    match proc.state_by_props(&outcome.intersect(&proc_masks[pi])) {
                        Some(li) => locals.push(li),
                        None => {
                            return Err(ExploreError::UnmappableFaultOutcome {
                                action: action.name().to_owned(),
                                process: pi,
                            })
                        }
                    }
                }
                for shared in corrupt_branches(program, &cfg.shared, action) {
                    let next = Config {
                        locals: locals.clone(),
                        shared,
                    };
                    let before = configs.len();
                    let tid = intern(next, &mut kripke, &mut configs, &mut by_config)?;
                    if configs.len() > before {
                        work.push(tid);
                    }
                    kripke.add_edge(sid, TransKind::Fault(fi as u32), tid);
                }
            }
        }
    }

    Ok(kripke.freeze())
}

/// A memoizing CTL labeler with one `bool` per state, computing the
/// same satisfaction relations as `ftsyn_kripke::Checker`.
pub struct Checker<'m> {
    model: &'m FtKripke,
    semantics: Semantics,
    memo: HashMap<FormulaId, Vec<bool>>,
    /// Each state's path predecessors, one list per state, collected
    /// here from `succ` so this labeler shares no layout with the fast
    /// checker.
    preds: Vec<Vec<StateId>>,
}

impl<'m> Checker<'m> {
    /// Creates a labeler for `model` under the given semantics.
    pub fn new(model: &'m FtKripke, semantics: Semantics) -> Checker<'m> {
        let mut preds = vec![Vec::new(); model.len()];
        for s in model.state_ids() {
            for e in model.succ(s) {
                if semantics == Semantics::IncludeFaults || !e.kind.is_fault() {
                    preds[e.to.index()].push(s);
                }
            }
        }
        Checker {
            model,
            semantics,
            memo: HashMap::new(),
            preds,
        }
    }

    /// The satisfaction vector of `f`, one entry per state id.
    pub fn eval(&mut self, arena: &FormulaArena, f: FormulaId) -> &Vec<bool> {
        if !self.memo.contains_key(&f) {
            let v = self.compute(arena, f);
            self.memo.insert(f, v);
        }
        &self.memo[&f]
    }

    fn compute(&mut self, arena: &FormulaArena, f: FormulaId) -> Vec<bool> {
        let n = self.model.len();
        match arena.get(f) {
            Formula::True => vec![true; n],
            Formula::False => vec![false; n],
            Formula::Prop(p) => self
                .model
                .state_ids()
                .map(|s| self.model.props(s).contains(p))
                .collect(),
            Formula::NegProp(p) => self
                .model
                .state_ids()
                .map(|s| !self.model.props(s).contains(p))
                .collect(),
            Formula::And(a, b) => {
                let va = self.eval(arena, a).clone();
                let vb = self.eval(arena, b);
                va.iter().zip(vb.iter()).map(|(x, y)| *x && *y).collect()
            }
            Formula::Or(a, b) => {
                let va = self.eval(arena, a).clone();
                let vb = self.eval(arena, b);
                va.iter().zip(vb.iter()).map(|(x, y)| *x || *y).collect()
            }
            Formula::Ax(i, g) => {
                let vg = self.eval(arena, g).clone();
                self.model
                    .state_ids()
                    .map(|s| {
                        self.model
                            .succ(s)
                            .iter()
                            .filter(|e| e.kind == TransKind::Proc(i as u32))
                            .all(|e| vg[e.to.index()])
                    })
                    .collect()
            }
            Formula::Ex(i, g) => {
                let vg = self.eval(arena, g).clone();
                self.model
                    .state_ids()
                    .map(|s| {
                        self.model
                            .succ(s)
                            .iter()
                            .filter(|e| e.kind == TransKind::Proc(i as u32))
                            .any(|e| vg[e.to.index()])
                    })
                    .collect()
            }
            Formula::Au(g, h) => {
                let vg = self.eval(arena, g).clone();
                let vh = self.eval(arena, h).clone();
                self.au_set(&vg, &vh)
            }
            Formula::Eu(g, h) => {
                let vg = self.eval(arena, g).clone();
                let vh = self.eval(arena, h).clone();
                self.eu_set(&vg, &vh)
            }
            Formula::Aw(g, h) => {
                // A[gWh] = ¬E[¬g U ¬h]
                let ng: Vec<bool> = self.eval(arena, g).iter().map(|x| !x).collect();
                let nh: Vec<bool> = self.eval(arena, h).iter().map(|x| !x).collect();
                self.eu_set(&ng, &nh).iter().map(|x| !x).collect()
            }
            Formula::Ew(g, h) => {
                // E[gWh] = ¬A[¬g U ¬h]
                let ng: Vec<bool> = self.eval(arena, g).iter().map(|x| !x).collect();
                let nh: Vec<bool> = self.eval(arena, h).iter().map(|x| !x).collect();
                self.au_set(&ng, &nh).iter().map(|x| !x).collect()
            }
        }
    }

    fn path_succ(&self, s: StateId) -> impl Iterator<Item = StateId> + '_ {
        let include_faults = self.semantics == Semantics::IncludeFaults;
        self.model
            .succ(s)
            .iter()
            .filter(move |e| include_faults || !e.kind.is_fault())
            .map(|e| e.to)
    }

    /// Least fixpoint `X = h ∪ (g ∩ pre∃(X))`.
    fn eu_set(&self, g: &[bool], h: &[bool]) -> Vec<bool> {
        let n = self.model.len();
        let mut x: Vec<bool> = h.to_vec();
        let mut work: Vec<StateId> = (0..n as u32)
            .map(StateId)
            .filter(|s| x[s.index()])
            .collect();
        while let Some(t) = work.pop() {
            for &s in &self.preds[t.index()] {
                if !x[s.index()] && g[s.index()] {
                    x[s.index()] = true;
                    work.push(s);
                }
            }
        }
        x
    }

    /// Least fixpoint `X = h ∪ (g ∩ {s : succ(s) ≠ ∅ ∧ succ(s) ⊆ X})`.
    fn au_set(&self, g: &[bool], h: &[bool]) -> Vec<bool> {
        let n = self.model.len();
        let mut x: Vec<bool> = h.to_vec();
        let mut remaining: Vec<usize> = (0..n as u32)
            .map(StateId)
            .map(|s| self.path_succ(s).count())
            .collect();
        let has_succ: Vec<bool> = remaining.iter().map(|&c| c > 0).collect();
        let mut work: Vec<StateId> = (0..n as u32)
            .map(StateId)
            .filter(|s| x[s.index()])
            .collect();
        while let Some(t) = work.pop() {
            for &s in &self.preds[t.index()] {
                remaining[s.index()] = remaining[s.index()].saturating_sub(1);
                if !x[s.index()] && g[s.index()] && has_succ[s.index()] && remaining[s.index()] == 0
                {
                    x[s.index()] = true;
                    work.push(s);
                }
            }
        }
        x
    }
}
