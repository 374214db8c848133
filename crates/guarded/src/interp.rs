//! An interleaving interpreter: regenerates the global-state transition
//! structure of a program, optionally together with the fault
//! transitions of a fault specification.
//!
//! This inverts the extraction step of the synthesis method: integration
//! tests run the interpreter on an extracted program and compare the
//! resulting structure with the synthesized model (the argument of
//! Corollary 7.1 that "execution of the extracted program P does indeed
//! generate M_F").
//!
//! The explorer is the inner loop of step 5, so its per-state work is
//! kept to word operations:
//!
//! * a global state's valuation, candidate arcs and fault outcomes
//!   depend only on its local-state vector, so they are resolved once
//!   per distinct vector (`LocalView`) — at most `Π|locals|` of them,
//!   against tens of thousands of explored states;
//! * shared-value vectors are interned once (`Vectors`), and the effect
//!   of each arc's assignment and of each corruption branch on a vector
//!   is memoized as an id → id map, so a configuration is two words —
//!   its view and its vector id — whatever the number of shared
//!   variables;
//! * every arc guard is lowered once into disjunctive normal form: cubes
//!   of literals over the valuation's bit words and the shared values.
//!   A view keeps only the cubes whose propositional part holds, so per
//!   state only their shared-variable literals are tested;
//! * states are found by their (valuation class, vector id) key, which
//!   is also what tells a fresh configuration that collides with an
//!   existing state apart ([`ExploreError::AmbiguousState`]). The key is
//!   also the state's content in the structure: the valuation classes
//!   and the interned vectors become its tables, so a state costs two
//!   ids and its edges, and nothing is cloned per state.

use crate::action::FaultAction;
use crate::expr::BoolExpr;
use crate::program::Program;
use crate::SharedCorruption;
use ftsyn_ctl::{Owner, PropTable};
use ftsyn_kripke::{FtKripke, KripkeBuilder, PropSet, StateId, TransKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Errors during exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// A fault produced a valuation that does not correspond to any local
    /// state of some process (fault-closure violation).
    UnmappableFaultOutcome {
        /// The offending fault action name.
        action: String,
        /// Index of the process whose local state could not be resolved.
        process: usize,
    },
    /// Two distinct configurations produced the same labeled state: the
    /// program lacks shared variables to disambiguate them.
    AmbiguousState,
    /// The state-space exceeded the exploration bound.
    StateSpaceTooLarge(usize),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::UnmappableFaultOutcome { action, process } => write!(
                f,
                "fault `{action}` perturbed process {process} into a valuation matching no local state"
            ),
            ExploreError::AmbiguousState => {
                write!(f, "two configurations share one labeled state")
            }
            ExploreError::StateSpaceTooLarge(n) => {
                write!(f, "state space exceeded the bound of {n} states")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Upper bound on explored states (defensive; the synthesized systems in
/// this repository are far smaller).
const MAX_STATES: usize = 1_000_000;

/// Result of exploring a program.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The generated fault-tolerant Kripke structure.
    pub kripke: FtKripke,
}

/// Explores the reachable global-state space of `program` under
/// nondeterministic interleaving, adding fault transitions for every
/// enabled action in `faults`.
///
/// `props` supplies the proposition partition: after a fault perturbs the
/// valuation, each process's new local state is resolved by matching the
/// perturbed valuation restricted to that process's propositions.
///
/// States are numbered in discovery order of a depth-first worklist;
/// from each state the enabled arcs are taken process by process in arc
/// order, then the fault outcomes action by action, each followed by its
/// shared-variable corruption branches ([`corrupt_branches`]).
///
/// # Errors
///
/// See [`ExploreError`].
pub fn explore(
    program: &Program,
    faults: &[FaultAction],
    props: &PropTable,
) -> Result<Exploration, ExploreError> {
    let np = program.processes.len();
    let words = program.num_props.div_ceil(64).max(1);
    let shared = program.init_shared.len();
    let arcs: Vec<LoweredArc> = program
        .processes
        .iter()
        .enumerate()
        .flat_map(|(pi, proc)| {
            proc.arcs.iter().map(move |arc| LoweredArc {
                process: pi,
                from: arc.from,
                to: arc.to as u32,
                cubes: dnf(&arc.guard, true, words, shared),
                assigns: arc
                    .assigns
                    .iter()
                    .copied()
                    .filter(|&(v, _)| v < shared)
                    .collect(),
            })
        })
        .collect();
    // Transform ids: one per arc, then one per corruption branch.
    let mut first = arcs.len();
    let corruptions = faults
        .iter()
        .map(|a| {
            let c = Corruption::new(program, a, first);
            first += c.branches.len();
            c
        })
        .collect();
    let mut ex = Explorer {
        program,
        faults,
        props,
        proc_masks: (0..np)
            .map(|i| {
                PropSet::from_iter_with_capacity(
                    props.len(),
                    props
                        .iter()
                        .filter(|&p| props.owner(p) == Owner::Process(i)),
                )
            })
            .collect(),
        arcs,
        corruptions,
        kripke: KripkeBuilder::new(),
        configs: Vec::new(),
        states: HashMap::default(),
        vectors: Vectors::new(shared),
        views: Vec::new(),
        view_ids: HashMap::new(),
        classes: HashMap::new(),
        class_vals: Vec::new(),
    };

    let locals: Vec<u32> = program.init_locals.iter().map(|&l| l as u32).collect();
    let view = ex.view(&locals);
    let vec = ex.vectors.intern(&program.init_shared);
    let (init_id, _) = ex.intern(view, vec)?;
    ex.kripke.add_init(init_id);
    let mut work = vec![init_id];

    while let Some(sid) = work.pop() {
        let Config { view, vec } = ex.configs[sid.index()];

        // Program transitions: the view's candidate arcs whose guard
        // holds on the shared values.
        for k in 0..ex.views[view as usize].moves.len() {
            let Move {
                arc: ai, ref live, ..
            } = ex.views[view as usize].moves[k];
            let arc = &ex.arcs[ai];
            let values = ex.vectors.get(vec);
            if !live.iter().any(|&c| arc.cubes[c].shared_holds(values)) {
                continue;
            }
            let process = arc.process;
            let to_view = ex.move_target(view, k);
            let to_vec = ex.vectors.apply(ai, vec, &ex.arcs[ai].assigns);
            let (tid, fresh) = ex.intern(to_view, to_vec)?;
            if fresh {
                work.push(tid);
            }
            ex.kripke
                .add_edge(sid, TransKind::Proc(process as u32), tid);
        }

        // Fault transitions: the view's resolved outcomes, each under
        // every shared-variable corruption branch of its action.
        for k in 0..ex.views[view as usize].faults.len() {
            let (fi, to_view) = match ex.fault_target(view, k) {
                Ok(hit) => hit,
                Err((fi, process)) => {
                    return Err(ExploreError::UnmappableFaultOutcome {
                        action: faults[fi].name().to_owned(),
                        process,
                    })
                }
            };
            for b in 0..ex.corruptions[fi].branches.len() {
                let c = &ex.corruptions[fi];
                let to_vec = ex.vectors.apply(c.first + b, vec, &c.branches[b]);
                let (tid, fresh) = ex.intern(to_view, to_vec)?;
                if fresh {
                    work.push(tid);
                }
                ex.kripke.add_edge(sid, TransKind::Fault(fi as u32), tid);
            }
        }
    }

    let mut kripke = ex.kripke;
    kripke.set_tables(Arc::new(ex.class_vals), ex.vectors.width, ex.vectors.values);
    Ok(Exploration {
        kripke: kripke.freeze(),
    })
}

/// The exploration state: the lowered program, the structure under
/// construction, the configuration of every state and the
/// per-local-vector and per-shared-vector memos.
struct Explorer<'a> {
    program: &'a Program,
    faults: &'a [FaultAction],
    props: &'a PropTable,
    /// Per-process proposition masks for fault-outcome mapping.
    proc_masks: Vec<PropSet>,
    /// Every arc of every process, in process then arc order.
    arcs: Vec<LoweredArc>,
    /// Per fault action.
    corruptions: Vec<Corruption>,
    /// The structure under construction, whose states are ids into
    /// `class_vals` and `vectors`.
    kripke: KripkeBuilder,
    /// The configuration of each state, by state id.
    configs: Vec<Config>,
    /// The state of each (valuation class, vector id) key, packed in a
    /// word. At most one configuration maps to a key: a second one is an
    /// [`ExploreError::AmbiguousState`].
    states: HashMap<u64, StateId, BuildHasherDefault<WordHasher>>,
    vectors: Vectors,
    views: Vec<LocalView>,
    view_ids: HashMap<Box<[u32]>, u32>,
    /// The valuation class of each distinct view valuation.
    classes: HashMap<PropSet, u32>,
    /// The valuation of each class, by class id.
    class_vals: Vec<PropSet>,
}

/// A configuration: its local-state vector (as the view interned for
/// it) and its shared-value vector id.
#[derive(Clone, Copy)]
struct Config {
    view: u32,
    vec: u32,
}

/// Marks a view's transition target not resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// What a local-state vector determines on its own: its valuation's
/// class; the candidate moves — each arc leaving a
/// current local state (in arc order), with the cubes of its guard whose
/// propositional part holds, so only their shared-variable literals
/// remain to be tested per state; and for every enabled fault action in
/// order, each outcome resolved to a local-state vector (or the first
/// process it leaves unmappable). Transition targets are resolved to
/// views on first use.
struct LocalView {
    locals: Box<[u32]>,
    class: u32,
    moves: Vec<Move>,
    faults: Vec<FaultMove>,
}

struct Move {
    arc: usize,
    live: Vec<usize>,
    to: u32,
}

struct FaultMove {
    action: usize,
    outcome: Resolved,
    to: u32,
}

/// A fault outcome resolved to a local-state vector, or the first process
/// it leaves without a matching local state.
type Resolved = Result<Box<[u32]>, usize>;

impl Explorer<'_> {
    /// The state of the configuration (`view`, `vec`), added if new
    /// (`true`).
    fn intern(&mut self, view: u32, vec: u32) -> Result<(StateId, bool), ExploreError> {
        let v = &self.views[view as usize];
        let key = u64::from(v.class) << 32 | u64::from(vec);
        match self.states.entry(key) {
            Entry::Occupied(e) => {
                let id = *e.get();
                return if self.configs[id.index()].view == view {
                    Ok((id, false))
                } else {
                    Err(ExploreError::AmbiguousState)
                };
            }
            Entry::Vacant(e) => {
                e.insert(StateId(self.configs.len() as u32));
            }
        }
        let id = self.kripke.push(v.class, vec);
        self.configs.push(Config { view, vec });
        if self.configs.len() > MAX_STATES {
            return Err(ExploreError::StateSpaceTooLarge(MAX_STATES));
        }
        Ok((id, true))
    }

    /// The view reached by the `k`-th candidate move of `view`.
    fn move_target(&mut self, view: u32, k: usize) -> u32 {
        let m = &self.views[view as usize].moves[k];
        if m.to != UNRESOLVED {
            return m.to;
        }
        let arc = &self.arcs[m.arc];
        let mut locals = self.views[view as usize].locals.to_vec();
        locals[arc.process] = arc.to;
        let to = self.view(&locals);
        self.views[view as usize].moves[k].to = to;
        to
    }

    /// The action and view of the `k`-th fault outcome of `view`, or the
    /// action and the first process the outcome leaves unmappable.
    fn fault_target(&mut self, view: u32, k: usize) -> Result<(usize, u32), (usize, usize)> {
        let f = &self.views[view as usize].faults[k];
        let action = f.action;
        if f.to != UNRESOLVED {
            return Ok((action, f.to));
        }
        let locals = f.outcome.clone().map_err(|process| (action, process))?;
        let to = self.view(&locals);
        self.views[view as usize].faults[k].to = to;
        Ok((action, to))
    }

    /// The memoized view of a local-state vector.
    fn view(&mut self, locals: &[u32]) -> u32 {
        if let Some(&v) = self.view_ids.get(locals) {
            return v;
        }
        let program = self.program;
        let idx: Vec<usize> = locals.iter().map(|&l| l as usize).collect();
        let props = program.valuation(&idx);
        let moves = self
            .arcs
            .iter()
            .enumerate()
            .filter(|(_, arc)| arc.from == idx[arc.process])
            .map(|(ai, arc)| Move {
                arc: ai,
                live: (0..arc.cubes.len())
                    .filter(|&c| arc.cubes[c].props_hold(props.words()))
                    .collect(),
                to: UNRESOLVED,
            })
            .filter(|m| !m.live.is_empty())
            .collect();
        let mut faults = Vec::new();
        for (fi, action) in self.faults.iter().enumerate() {
            if !action.enabled(&props) {
                continue;
            }
            for outcome in action.outcomes(&props, self.props.len()) {
                let resolved = program
                    .processes
                    .iter()
                    .zip(&self.proc_masks)
                    .enumerate()
                    .map(|(pi, (proc, mask))| {
                        proc.state_by_props(&outcome.intersect(mask))
                            .map(|l| l as u32)
                            .ok_or(pi)
                    })
                    .collect();
                faults.push(FaultMove {
                    action: fi,
                    outcome: resolved,
                    to: UNRESOLVED,
                });
            }
        }
        let class = match self.classes.entry(props) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.class_vals.push(e.key().clone());
                *e.insert(self.class_vals.len() as u32 - 1)
            }
        };
        let v = self.views.len() as u32;
        self.views.push(LocalView {
            locals: locals.into(),
            class,
            moves,
            faults,
        });
        self.view_ids.insert(locals.into(), v);
        v
    }
}

/// Interned shared-value vectors, stored back to back, and the memoized
/// effect of each transform — an arc's assignment or a corruption
/// branch, numbered by the caller — on them.
struct Vectors {
    width: usize,
    values: Vec<u32>,
    ids: HashMap<Box<[u32]>, u32, BuildHasherDefault<WordHasher>>,
    /// (transform, vector id) packed in a word → resulting vector id.
    applied: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    scratch: Vec<u32>,
}

impl Vectors {
    fn new(width: usize) -> Vectors {
        Vectors {
            width,
            values: Vec::new(),
            ids: HashMap::default(),
            applied: HashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// The values of vector `id`.
    fn get(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.values[at..at + self.width]
    }

    /// The id of `values`, interning it if new.
    fn intern(&mut self, values: &[u32]) -> u32 {
        if let Some(&id) = self.ids.get(values) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.values.extend_from_slice(values);
        self.ids.insert(values.into(), id);
        id
    }

    /// The id of vector `id` after the writes of transform `t`.
    fn apply(&mut self, t: usize, id: u32, writes: &[(usize, u32)]) -> u32 {
        if writes.is_empty() {
            return id;
        }
        let key = (t as u64) << 32 | u64::from(id);
        if let Some(&out) = self.applied.get(&key) {
            return out;
        }
        let mut next = std::mem::take(&mut self.scratch);
        next.clear();
        next.extend_from_slice(self.get(id));
        for &(v, k) in writes {
            next[v] = k;
        }
        let out = self.intern(&next);
        self.scratch = next;
        self.applied.insert(key, out);
        out
    }
}

/// An arc with its guard lowered to disjunctive normal form: it is
/// enabled iff some cube holds.
struct LoweredArc {
    process: usize,
    from: usize,
    to: u32,
    cubes: Vec<Cube>,
    /// Assignments to existing shared variables, in program order.
    assigns: Vec<(usize, u32)>,
}

/// A conjunction of literals: `pos` bits set and `neg` bits clear in the
/// valuation words, shared variables equal to (`eq`) or different from
/// (`ne`) constants.
#[derive(Clone)]
struct Cube {
    pos: Vec<u64>,
    neg: Vec<u64>,
    eq: Vec<(usize, u32)>,
    ne: Vec<(usize, u32)>,
}

impl Cube {
    fn top(words: usize) -> Cube {
        Cube {
            pos: vec![0; words],
            neg: vec![0; words],
            eq: Vec::new(),
            ne: Vec::new(),
        }
    }

    fn and(&self, other: &Cube) -> Cube {
        Cube {
            pos: or_words(&self.pos, &other.pos),
            neg: or_words(&self.neg, &other.neg),
            eq: self.eq.iter().chain(&other.eq).copied().collect(),
            ne: self.ne.iter().chain(&other.ne).copied().collect(),
        }
    }

    /// The propositional literals hold on the valuation words `val`.
    fn props_hold(&self, val: &[u64]) -> bool {
        self.pos.iter().zip(val).all(|(m, w)| w & m == *m)
            && self.neg.iter().zip(val).all(|(m, w)| w & m == 0)
    }

    /// The shared-variable literals hold on `shared`.
    fn shared_holds(&self, shared: &[u32]) -> bool {
        self.eq.iter().all(|&(v, k)| shared[v] == k) && self.ne.iter().all(|&(v, k)| shared[v] != k)
    }
}

fn or_words(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x | y).collect()
}

/// The cubes of `e` (of `¬e` when `positive` is false), exact for every
/// [`BoolExpr`]: negations are pushed to the literals, and a proposition
/// or shared variable beyond the valuation's capacity reads false, as
/// in [`BoolExpr::eval`]. Conjunctions of disjunctions multiply out;
/// program guards are disjunctions of literal conjunctions with at most
/// one nested disjunction, so their lowering stays linear in size.
fn dnf(e: &BoolExpr, positive: bool, words: usize, shared: usize) -> Vec<Cube> {
    let constant = |b: bool| {
        if b == positive {
            vec![Cube::top(words)]
        } else {
            Vec::new()
        }
    };
    match e {
        BoolExpr::Const(b) => constant(*b),
        BoolExpr::Prop(p) if p.index() / 64 >= words => constant(false),
        BoolExpr::Prop(p) => {
            let mut c = Cube::top(words);
            let bits = if positive { &mut c.pos } else { &mut c.neg };
            bits[p.index() / 64] |= 1 << (p.index() % 64);
            vec![c]
        }
        BoolExpr::VarEq(v, _) if *v >= shared => constant(false),
        BoolExpr::VarEq(v, k) => {
            let mut c = Cube::top(words);
            if positive { &mut c.eq } else { &mut c.ne }.push((*v, *k));
            vec![c]
        }
        BoolExpr::Not(inner) => dnf(inner, !positive, words, shared),
        BoolExpr::And(es) | BoolExpr::Or(es) => {
            if matches!(e, BoolExpr::And(_)) == positive {
                es.iter().fold(vec![Cube::top(words)], |acc, x| {
                    let rhs = dnf(x, positive, words, shared);
                    acc.iter()
                        .flat_map(|a| rhs.iter().map(move |b| a.and(b)))
                        .collect()
                })
            } else {
                es.iter()
                    .flat_map(|x| dnf(x, positive, words, shared))
                    .collect()
            }
        }
    }
}

/// An action's shared-variable corruption: per branch in
/// [`corrupt_branches`] order, the writes it makes, which are
/// independent of the state the action fires in. Branch `b` is
/// transform `first + b` of [`Vectors::apply`].
struct Corruption {
    first: usize,
    branches: Vec<Vec<(usize, u32)>>,
}

impl Corruption {
    fn new(program: &Program, action: &FaultAction, first: usize) -> Corruption {
        let mut vars: Vec<usize> = action
            .corrupt_shared()
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| v < program.init_shared.len())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let branches = corrupt_branches(program, &program.init_shared, action)
            .into_iter()
            .map(|b| vars.iter().map(|&v| (v, b[v])).collect())
            .collect();
        Corruption { first, branches }
    }
}

/// A multiply-rotate hash over whole words (the `FxHash` scheme) for the
/// explorer's packed state and transform keys, hashed once or twice per
/// explored edge, and for shared-value vectors, hashed once per new
/// vector. Keys are not outside input the default keyed hash would
/// guard: the program being explored already decides how much work
/// exploring it takes.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// All shared-value vectors resulting from an action's corruption list,
/// with out-of-domain writes reinterpreted as the default value `1`.
///
/// Public because extraction's displacement analysis (core
/// `extract::refine_guards`) must predict exactly the shared vectors
/// this interpreter can produce under faults.
pub fn corrupt_branches(program: &Program, shared: &[u32], action: &FaultAction) -> Vec<Vec<u32>> {
    let mut branches = vec![shared.to_vec()];
    for &(var, ref how) in action.corrupt_shared() {
        if var >= shared.len() {
            continue;
        }
        match how {
            SharedCorruption::Value(k) => {
                for b in &mut branches {
                    b[var] = program.clamp_shared(var, *k);
                }
            }
            SharedCorruption::Arbitrary => {
                let dom = program.shared[var].domain;
                let mut next = Vec::with_capacity(branches.len() * dom as usize);
                for b in &branches {
                    for k in 1..=dom {
                        let mut nb = b.clone();
                        nb[var] = k;
                        next.push(nb);
                    }
                }
                branches = next;
            }
        }
    }
    branches.dedup();
    branches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PropAssign;
    use crate::expr::BoolExpr;
    use crate::program::{LocalState, ProcArc, Process, SharedVar};
    use ftsyn_ctl::PropId;

    /// A 2-process token ring: each process alternates a/b; P2 may move
    /// only when P1 is in b (guard), demonstrating guards.
    fn ring() -> (Program, PropTable) {
        let mut t = PropTable::new();
        let a1 = t.add("a1", Owner::Process(0)).unwrap();
        let b1 = t.add("b1", Owner::Process(0)).unwrap();
        let a2 = t.add("a2", Owner::Process(1)).unwrap();
        let b2 = t.add("b2", Owner::Process(1)).unwrap();
        let mk = |p: PropId| PropSet::from_iter_with_capacity(4, [p]);
        let p1 = Process {
            index: 0,
            states: vec![
                LocalState {
                    name: "a1".into(),
                    props: mk(a1),
                },
                LocalState {
                    name: "b1".into(),
                    props: mk(b1),
                },
            ],
            arcs: vec![
                ProcArc {
                    from: 0,
                    to: 1,
                    guard: BoolExpr::tru(),
                    assigns: vec![],
                },
                ProcArc {
                    from: 1,
                    to: 0,
                    guard: BoolExpr::tru(),
                    assigns: vec![],
                },
            ],
        };
        let p2 = Process {
            index: 1,
            states: vec![
                LocalState {
                    name: "a2".into(),
                    props: mk(a2),
                },
                LocalState {
                    name: "b2".into(),
                    props: mk(b2),
                },
            ],
            arcs: vec![ProcArc {
                from: 0,
                to: 1,
                guard: BoolExpr::Prop(b1),
                assigns: vec![],
            }],
        };
        let prog = Program {
            processes: vec![p1, p2],
            shared: vec![],
            init_locals: vec![0, 0],
            init_shared: vec![],
            num_props: 4,
        };
        (prog, t)
    }

    #[test]
    fn explores_reachable_states_only() {
        let (prog, t) = ring();
        let ex = explore(&prog, &[], &t).unwrap();
        // Reachable: (a1,a2),(b1,a2),(b1,b2),(a1,b2) = 4.
        assert_eq!(ex.kripke.len(), 4);
        assert_eq!(ex.kripke.fault_edge_count(), 0);
    }

    #[test]
    fn guards_are_respected() {
        let (prog, t) = ring();
        let ex = explore(&prog, &[], &t).unwrap();
        // In the initial state (a1,a2), P2 must not be able to move.
        let init = ex.kripke.init_states()[0];
        let p2_moves: Vec<_> = ex
            .kripke
            .succ(init)
            .iter()
            .filter(|e| e.kind == TransKind::Proc(1))
            .collect();
        assert!(p2_moves.is_empty());
    }

    #[test]
    fn fault_transitions_added_and_mapped() {
        let (prog, t) = ring();
        let b1 = t.id("b1").unwrap();
        let a1 = t.id("a1").unwrap();
        // Fault: reset P1 to local state a1.
        let f = FaultAction::new(
            "reset-P1",
            BoolExpr::Prop(b1),
            vec![(b1, PropAssign::False), (a1, PropAssign::True)],
        )
        .unwrap();
        let ex = explore(&prog, &[f], &t).unwrap();
        assert!(ex.kripke.fault_edge_count() > 0);
        // Every fault edge's target is a valid state (mapped).
        for s in ex.kripke.state_ids() {
            for e in ex.kripke.succ(s) {
                assert!(e.to.index() < ex.kripke.len());
            }
        }
    }

    #[test]
    fn unmappable_fault_is_an_error() {
        let (prog, t) = ring();
        let a1 = t.id("a1").unwrap();
        let b1 = t.id("b1").unwrap();
        // Fault that sets both a1 and b1: no local state matches.
        let f = FaultAction::new(
            "both",
            BoolExpr::tru(),
            vec![(a1, PropAssign::True), (b1, PropAssign::True)],
        )
        .unwrap();
        let err = explore(&prog, &[f], &t).unwrap_err();
        assert!(matches!(err, ExploreError::UnmappableFaultOutcome { .. }));
    }

    #[test]
    fn shared_corruption_branches_within_domain() {
        let (mut prog, t) = ring();
        prog.shared.push(SharedVar {
            name: "x".into(),
            domain: 3,
        });
        prog.init_shared.push(1);
        let a1 = t.id("a1").unwrap();
        let f = FaultAction::new("corrupt-x", BoolExpr::Prop(a1), vec![])
            .unwrap()
            .with_shared_corruption(vec![(0, SharedCorruption::Arbitrary)]);
        let ex = explore(&prog, &[f], &t).unwrap();
        // From the initial state the fault yields x ∈ {1,2,3}.
        let init = ex.kripke.init_states()[0];
        let fault_targets: Vec<u32> = ex
            .kripke
            .succ(init)
            .iter()
            .filter(|e| e.kind.is_fault())
            .map(|e| ex.kripke.shared(e.to)[0])
            .collect();
        let mut sorted = fault_targets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn out_of_domain_write_defaults_to_one() {
        let (mut prog, t) = ring();
        prog.shared.push(SharedVar {
            name: "x".into(),
            domain: 2,
        });
        prog.init_shared.push(2);
        let f = FaultAction::new("smash-x", BoolExpr::tru(), vec![])
            .unwrap()
            .with_shared_corruption(vec![(0, SharedCorruption::Value(77))]);
        let ex = explore(&prog, &[f], &t).unwrap();
        let init = ex.kripke.init_states()[0];
        let target = ex
            .kripke
            .succ(init)
            .iter()
            .find(|e| e.kind.is_fault())
            .unwrap()
            .to;
        assert_eq!(ex.kripke.shared(target)[0], 1);
    }
}
