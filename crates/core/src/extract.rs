//! Program extraction (step 5 of the synthesis method).
//!
//! First, maximal sets of states with identical valuations are
//! disambiguated with fresh shared variables `x` (value `k` labels the
//! `k`-th member; every transition entering it is labeled `x := k`).
//! Then the model is projected onto each process index: a transition
//! `s →ᵢ t` contributes an arc of `Pᵢ` from `s↑i` to `t↑i` guarded by
//! `∧(L(s)↓i)` — the other processes' local states plus the shared
//! variable values. Arcs with equal endpoints and assignments are merged
//! by disjoining their guards (this is how Figure 9's `N2 ∨ C2` guards
//! arise).

use crate::problem::{SynthesisProblem, Tolerance};
use crate::verify::semantics_of;
use ftsyn_ctl::{FormulaId, Owner, PropTable};
use ftsyn_guarded::interp::corrupt_branches;
use ftsyn_guarded::{BoolExpr, LocalState, ProcArc, Process, Program, SharedVar};
use ftsyn_kripke::{Checker, FtKripke, PropSet, StateId, TransKind};
use std::collections::{HashMap, HashSet, VecDeque};

/// Default cap on guard-refinement rounds in the in-pipeline
/// extraction-verification stage, used when the governor's budget does
/// not set `max_extract_refine_rounds`.
pub const DEFAULT_EXTRACT_REFINE_ROUNDS: usize = 4;

/// The disambiguating shared variables of a model, together with the
/// valuation-group variable of each state. Returned by
/// [`introduce_shared_variables`] so extraction and refinement can never
/// re-derive (and drift from) the valuation→variable numbering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedIntroduction {
    /// The shared-variable declarations, in introduction order.
    pub vars: Vec<SharedVar>,
    /// For each state (by index), the variable disambiguating its
    /// valuation group — `None` when its valuation is unique.
    pub group_var: Vec<Option<usize>>,
}

/// Counters for the extraction + in-pipeline verification stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtractProfile {
    /// States in the synthesized model the program was read off from.
    pub model_states: usize,
    /// Disambiguating shared variables introduced.
    pub shared_vars: usize,
    /// Global states reached by interpreting the extracted program under
    /// faults (last verification round).
    pub explored_states: usize,
    /// Explored states outside the model: fault-displaced configurations
    /// carrying a stale shared vector (faults preserve the running
    /// shared values while the model's fault edge re-pins them).
    pub off_model_states: usize,
    /// Arcs whose guards were strengthened by counterexample refinement.
    pub refined_arcs: usize,
    /// Refinement rounds performed.
    pub refinement_rounds: usize,
    /// Whether the extracted program's explored structure passed
    /// semantic verification.
    pub verified: bool,
}

/// Introduces the disambiguating shared variables into `model` (setting
/// each state's shared vector) and returns their declarations plus,
/// for each state, its group variable.
pub fn introduce_shared_variables(model: &mut FtKripke) -> SharedIntroduction {
    // Group states by valuation, groups in order of their first state.
    let mut group_of: Vec<Option<usize>> = vec![None; model.valuations().len()];
    let mut groups: Vec<Vec<StateId>> = Vec::new();
    for s in model.state_ids() {
        let g = *group_of[model.val_id(s) as usize].get_or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(s);
    }
    groups.retain(|members| members.len() > 1);
    let vars: Vec<SharedVar> = groups
        .iter()
        .enumerate()
        .map(|(vi, members)| SharedVar {
            name: format!("x{vi}"),
            domain: members.len() as u32,
        })
        .collect();

    // Every variable defaults to 1; the `k`-th member of a group reads
    // `k + 1` in its own variable. Vector 0 is the all-ones default.
    let nvars = vars.len();
    let mut vectors = vec![1; nvars];
    let mut vec_ids = vec![0; model.len()];
    let mut group_var: Vec<Option<usize>> = vec![None; model.len()];
    for (vi, members) in groups.iter().enumerate() {
        for (k, &s) in members.iter().enumerate() {
            if k > 0 {
                vec_ids[s.index()] = (vectors.len() / nvars) as u32;
                let at = vectors.len();
                vectors.extend_from_within(..nvars);
                vectors[at + vi] = (k + 1) as u32;
            }
            group_var[s.index()] = Some(vi);
        }
    }
    model.set_vectors(nvars, vectors, vec_ids);
    SharedIntroduction { vars, group_var }
}

/// One disjunct of a merged guard: the other processes' local states
/// plus shared-variable constraints observed in a source state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct GuardBlock {
    /// `(process, local-state index)` for every process except the mover.
    other_locals: Vec<(usize, usize)>,
    /// `(variable, value)` constraints.
    var_eqs: Vec<(usize, u32)>,
}

/// Extracts the concurrent program `P₁ ‖ … ‖ P_I` from the model.
///
/// `model` must already carry its disambiguating shared variables (call
/// [`introduce_shared_variables`] first). `num_procs` is the number of
/// processes `I`.
///
/// # Panics
///
/// Panics if the model has no initial state.
pub fn extract_program(
    model: &FtKripke,
    props: &PropTable,
    num_procs: usize,
    shared: &SharedIntroduction,
) -> Program {
    let proc_masks = proc_prop_masks(props, num_procs);

    // Discover local states per process.
    let mut processes: Vec<Process> = (0..num_procs)
        .map(|i| Process {
            index: i,
            states: Vec::new(),
            arcs: Vec::new(),
        })
        .collect();
    let local_of = |proc: &mut Process, props_table: &PropTable, lv: PropSet| -> usize {
        if let Some(k) = proc.state_by_props(&lv) {
            return k;
        }
        let name = if lv.is_empty() {
            format!("idle{}", proc.index + 1)
        } else {
            lv.iter()
                .map(|p| props_table.name(p).to_owned())
                .collect::<Vec<_>>()
                .join("")
        };
        proc.states.push(LocalState { name, props: lv });
        proc.states.len() - 1
    };

    // Project every state up-front so local indices are stable.
    let mut state_locals: Vec<Vec<usize>> = Vec::new();
    for s in model.state_ids() {
        let mut locals = Vec::with_capacity(num_procs);
        for i in 0..num_procs {
            let lv = model.props(s).intersect(&proc_masks[i]);
            locals.push(local_of(&mut processes[i], props, lv));
        }
        state_locals.push(locals);
    }

    // Collect arcs: (proc, from, to, assigns) → guard blocks.
    let group_var = &shared.group_var;
    type ArcKey = (usize, usize, usize, Vec<(usize, u32)>);
    let mut arcs: HashMap<ArcKey, Vec<GuardBlock>> = HashMap::new();
    let mut arc_order: Vec<ArcKey> = Vec::new();
    for s in model.state_ids() {
        for e in model.succ(s) {
            let TransKind::Proc(i) = e.kind else { continue };
            let from = state_locals[s.index()][i];
            let to = state_locals[e.to.index()][i];
            // Assignments: the full shared vector of the target state.
            // The paper only assigns the target's own group variable;
            // resetting the (don't-care, Section 5.3) remaining
            // variables to their canonical value 1 is
            // behavior-equivalent and keeps the runtime configuration
            // space canonical, so the interpreter regenerates the
            // model's fault-free portion exactly.
            let assigns: Vec<(usize, u32)> = model
                .shared(e.to)
                .iter()
                .enumerate()
                .map(|(vi, &k)| (vi, k))
                .collect();
            // Guard block from the source state.
            let other_locals: Vec<(usize, usize)> = state_locals[s.index()]
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(j, &l)| (j, l))
                .collect();
            let mut var_eqs = Vec::new();
            if let Some(vi) = group_var[s.index()] {
                var_eqs.push((vi, model.shared(s)[vi]));
            }
            let key = (i, from, to, assigns);
            let block = GuardBlock {
                other_locals,
                var_eqs,
            };
            let entry = arcs.entry(key.clone()).or_insert_with(|| {
                arc_order.push(key);
                Vec::new()
            });
            if !entry.contains(&block) {
                entry.push(block);
            }
        }
    }

    // Render guards and attach arcs.
    for key in arc_order {
        let blocks = arcs.remove(&key).expect("keyed above");
        let (i, from, to, assigns) = key;
        let guard = blocks_to_guard(&processes, &blocks);
        processes[i].arcs.push(ProcArc {
            from,
            to,
            guard,
            assigns,
        });
    }

    let init = model.init_states()[0];
    let init_locals = state_locals[init.index()].clone();
    let init_shared = model.shared(init).to_vec();

    Program {
        processes,
        shared: shared.vars.clone(),
        init_locals,
        init_shared,
        num_props: props.len(),
    }
}

/// Per-process proposition masks (the partition of the vocabulary).
fn proc_prop_masks(props: &PropTable, num_procs: usize) -> Vec<PropSet> {
    (0..num_procs)
        .map(|i| {
            PropSet::from_iter_with_capacity(
                props.len(),
                props
                    .iter()
                    .filter(|&p| props.owner(p) == Owner::Process(i)),
            )
        })
        .collect()
}

/// Strengthens the guards of arcs whose valuation groups contain
/// mis-owned runtime configurations, and returns how many guards
/// changed.
///
/// Program arcs assign the full canonical shared vector of their target,
/// but runtime faults preserve the running shared values while changing
/// locals — so a model fault edge `t →F u` with `shared(t) ≠ shared(u)`
/// displaces the run to the off-model configuration `(locals(u),
/// shared(t))`, and a repair fault can land its tolerance obligation on
/// the *canonical* configuration of a different valuation-group member
/// than the model's fault-edge target. The weak guards extracted from
/// canonical states fire the group-variable-matching member there, which
/// may violate a stricter tolerance label.
///
/// The refinement computes the configuration-level displacement fixpoint
/// — every `(locals, carried shared vector)` pair reachable when faults
/// carry the running shared values along model fault edges — together
/// with each configuration's *obligations*: the tolerance labels of the
/// fault actions that can reach it. Every configuration is then owned by
/// exactly one state of its valuation group: the *weak* owner (the
/// member whose guards already fire at this vector) when its model
/// truths satisfy all obligation labels, otherwise the first group
/// member, in state order, that does (decided with the CTL model checker
/// on the model itself). Ownership matters because firing the *union* of
/// several members' arcs at a shared configuration splices their
/// behaviours into composite paths that no model state has — which is
/// exactly what breaks `AF`-liveness inside the tolerance labels. An
/// owned configuration fires the owner's arcs only, and since every arc
/// writes the full canonical target vector, its program-path behaviour
/// is exactly the owner's, so it inherits the owner's tolerance truths
/// under the fault-free satisfaction relation.
///
/// Guards of arcs in re-owned groups are rebuilt as one block per
/// `(source state, owned vector)`, with shared-variable equalities
/// greedily minimized against the vectors owned by same-locals rivals
/// (canonical blocks typically minimize back to the readable
/// single-variable test the weak extraction produced). Groups in which
/// every configuration stays with its weak owner keep their original
/// guards, which is what keeps fault-free programs byte-identical.
pub fn refine_guards(
    problem: &mut SynthesisProblem,
    model: &FtKripke,
    intro: &SharedIntroduction,
    program: &mut Program,
) -> usize {
    let num_procs = program.processes.len();
    let masks = proc_prop_masks(&problem.props, num_procs);
    let n = model.len();

    // Locals of every model state, in the program's local indexing.
    let state_locals: Vec<Vec<usize>> = model
        .state_ids()
        .map(|s| {
            (0..num_procs)
                .map(|i| {
                    let lv = model.props(s).intersect(&masks[i]);
                    program.processes[i]
                        .state_by_props(&lv)
                        .expect("model state projects onto extracted local states")
                })
                .collect()
        })
        .collect();

    let canonical: Vec<&[u32]> = model.state_ids().map(|s| model.shared(s)).collect();
    let edges = |u: usize| model.succ(StateId(u as u32)).iter();
    let fault_succ = |u: usize| {
        edges(u).filter_map(|e| match e.kind {
            TransKind::Fault(a) => Some((a, e.to.index())),
            TransKind::Proc(_) => None,
        })
    };

    // Same-locals groups (same locals ⟺ same valuation ⟺ one
    // disambiguation group), in state order.
    let mut by_locals: HashMap<&[usize], Vec<usize>> = HashMap::new();
    for (u, l) in state_locals.iter().enumerate() {
        by_locals.entry(l.as_slice()).or_default().push(u);
    }

    // Configuration-level displacement fixpoint: every (locals, carried
    // shared vector) pair reachable when fault edges preserve the
    // carried values (modulo the action's own corruption branches), each
    // with its accumulated obligations — the tolerance labels of the
    // fault actions that can reach it. Seeding in state order and BFS
    // keep the entry list, and hence every guard built from it,
    // deterministic.
    struct Entry {
        locals: Vec<usize>,
        vector: Vec<u32>,
        obligations: Vec<Tolerance>,
    }
    let mut entry_index: HashMap<(Vec<usize>, Vec<u32>), usize> = HashMap::new();
    let mut entries: Vec<Entry> = Vec::new();
    let mut work: VecDeque<usize> = VecDeque::new();
    for u in 0..n {
        let key = (state_locals[u].clone(), canonical[u].to_vec());
        if !entry_index.contains_key(&key) {
            entry_index.insert(key.clone(), entries.len());
            work.push_back(entries.len());
            entries.push(Entry {
                locals: key.0,
                vector: key.1,
                obligations: Vec::new(),
            });
        }
    }
    while let Some(ei) = work.pop_front() {
        let locals = entries[ei].locals.clone();
        let v = entries[ei].vector.clone();
        let group = by_locals[locals.as_slice()].clone();
        for u in group {
            for (a, w) in fault_succ(u) {
                let tol = problem.tolerance.of(a);
                for v2 in corrupt_branches(program, &v, &problem.faults[a]) {
                    let key = (state_locals[w].clone(), v2);
                    let idx = match entry_index.get(&key) {
                        Some(&i) => i,
                        None => {
                            let i = entries.len();
                            entry_index.insert(key.clone(), i);
                            work.push_back(i);
                            entries.push(Entry {
                                locals: key.0,
                                vector: key.1,
                                obligations: Vec::new(),
                            });
                            i
                        }
                    };
                    if !entries[idx].obligations.contains(&tol) {
                        entries[idx].obligations.push(tol);
                    }
                }
            }
        }
    }

    // Which model states satisfy which tolerance labels, decided by the
    // CTL checker on the model itself.
    let mut needed: Vec<Tolerance> = Vec::new();
    for e in &entries {
        for &t in &e.obligations {
            if !needed.contains(&t) {
                needed.push(t);
            }
        }
    }
    let tol_formulas: Vec<Vec<FormulaId>> = needed
        .iter()
        .map(|&t| problem.label_tol_formulas(t))
        .collect();
    let state_ids: Vec<StateId> = model.state_ids().collect();
    let mut ck = Checker::new(model, semantics_of(problem.mode));
    let mut sat: Vec<Vec<bool>> = Vec::with_capacity(n);
    for &s in &state_ids {
        let mut row = Vec::with_capacity(needed.len());
        for fs in &tol_formulas {
            row.push(fs.iter().all(|&f| ck.holds(&problem.arena, f, s)));
        }
        sat.push(row);
    }

    // Assign every configuration exactly one owner, collecting each
    // state's owned vectors. The *weak* owner — the member the original
    // guards fire at this vector (the group-variable match; for a
    // canonical configuration that is its own state) — keeps ownership
    // whenever its model truths satisfy every obligation label; this is
    // what keeps untouched groups, and hence fault-free programs,
    // byte-identical. Otherwise ownership moves to the first group
    // member, in state order, that satisfies all obligations (decided
    // with the CTL model checker on the model itself) — canonical
    // configurations included: a runtime repair fault carries the
    // running shared vector, so it can land a *Masking* obligation on
    // the canonical configuration of a copy that only certifies
    // Nonmasking, while its all-satisfying sibling is the model's actual
    // repair target. When no member satisfies everything the weak owner
    // stays (the remaining verification failure then surfaces as an
    // extraction gap).
    let weak_owner = |e: &Entry, group: &[usize]| -> usize {
        match intro.group_var[group[0]] {
            Some(g) => group
                .iter()
                .copied()
                .find(|&u| canonical[u][g] == e.vector[g])
                .unwrap_or(group[0]),
            None => group[0],
        }
    };
    let mut accepted: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
    let mut reowned_groups: HashSet<&[usize]> = HashSet::new();
    for e in &entries {
        let group = &by_locals[e.locals.as_slice()];
        let satisfies = |u: usize| {
            e.obligations
                .iter()
                .all(|t| sat[u][needed.iter().position(|x| x == t).expect("collected above")])
        };
        let weak = weak_owner(e, group);
        let owner = if satisfies(weak) {
            weak
        } else {
            group
                .iter()
                .copied()
                .find(|&u| satisfies(u))
                .unwrap_or(weak)
        };
        if owner != weak {
            reowned_groups.insert(e.locals.as_slice());
        }
        accepted[owner].push(e.vector.clone());
    }

    // The merged program arc of each model edge, keyed by
    // (process, from-local, to-local, shared assignment vector).
    type ArcKey = (usize, usize, usize, Vec<(usize, u32)>);
    let mut arc_index: HashMap<ArcKey, usize> = HashMap::new();
    for (pi, proc) in program.processes.iter().enumerate() {
        for (ai, arc) in proc.arcs.iter().enumerate() {
            arc_index.insert((pi, arc.from, arc.to, arc.assigns.clone()), ai);
        }
    }
    let mut arc_sources: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    let mut state_arcs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let proc_edges = (0..n).flat_map(|u| {
        edges(u).filter_map(move |e| match e.kind {
            TransKind::Proc(i) => Some((u, i, e.to.index())),
            TransKind::Fault(_) => None,
        })
    });
    for (src, pi, dst) in proc_edges {
        let assigns: Vec<(usize, u32)> = canonical[dst]
            .iter()
            .enumerate()
            .map(|(vi, &k)| (vi, k))
            .collect();
        let ai = arc_index[&(pi, state_locals[src][pi], state_locals[dst][pi], assigns)];
        let key = (pi, ai);
        let sources = arc_sources.entry(key).or_default();
        if !sources.contains(&src) {
            sources.push(src);
        }
        if !state_arcs[src].contains(&key) {
            state_arcs[src].push(key);
        }
    }

    // Implicate whole valuation groups in which some configuration was
    // re-owned: only there do the weak guards fire the wrong member.
    // (Displaced configurations whose weak owner satisfies all
    // obligations already behave correctly under the weak guards — no
    // rebuild, no churn.) Group-atomic implication is required for
    // consistency — a guard block only fires where the other processes'
    // locals match its source exactly, so only same-group arcs can fire
    // at a configuration, and mixing ownership-partitioned guards with
    // weak ones inside a group would re-introduce double firing.
    let mut implicated: Vec<(usize, usize)> = Vec::new();
    let mut implicated_set: HashSet<(usize, usize)> = HashSet::new();
    for u in 0..n {
        if !reowned_groups.contains(state_locals[u].as_slice()) {
            continue;
        }
        for &key in &state_arcs[u] {
            if implicated_set.insert(key) {
                implicated.push(key);
            }
        }
    }

    let mut new_guards: Vec<(usize, usize, BoolExpr)> = Vec::new();
    for &(pi, ai) in &implicated {
        let mut blocks: Vec<GuardBlock> = Vec::new();
        for &u in &arc_sources[&(pi, ai)] {
            // Rival vectors the blocks must exclude: everything owned by
            // a same-locals rival (ownership partitions the group's
            // vectors, so no rival equals an owned vector).
            let mut rival_vecs: Vec<Vec<u32>> = Vec::new();
            for &u2 in &by_locals[state_locals[u].as_slice()] {
                if u2 == u {
                    continue;
                }
                for v in &accepted[u2] {
                    if !rival_vecs.contains(v) {
                        rival_vecs.push(v.clone());
                    }
                }
            }
            let other_locals: Vec<(usize, usize)> = state_locals[u]
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != pi)
                .map(|(j, &l)| (j, l))
                .collect();
            for v in &accepted[u] {
                let block = GuardBlock {
                    other_locals: other_locals.clone(),
                    var_eqs: minimize_var_eqs(v, &rival_vecs, intro.group_var[u]),
                };
                if !blocks.contains(&block) {
                    blocks.push(block);
                }
            }
        }
        let guard = blocks_to_guard(&program.processes, &blocks);
        if program.processes[pi].arcs[ai].guard != guard {
            new_guards.push((pi, ai, guard));
        }
    }
    let changed = new_guards.len();
    for (pi, ai, g) in new_guards {
        program.processes[pi].arcs[ai].guard = g;
    }
    changed
}

/// The shortest prefix of shared-variable equalities (group variable
/// first, then ascending index) distinguishing `v` from every rival
/// vector; each kept equality excludes at least one remaining rival.
fn minimize_var_eqs(v: &[u32], rivals: &[Vec<u32>], group_var: Option<usize>) -> Vec<(usize, u32)> {
    let mut remaining: Vec<&Vec<u32>> = rivals.iter().collect();
    let mut eqs: Vec<(usize, u32)> = Vec::new();
    let order = group_var
        .into_iter()
        .chain((0..v.len()).filter(move |&i| Some(i) != group_var));
    for var in order {
        if remaining.is_empty() {
            break;
        }
        let before = remaining.len();
        remaining.retain(|c| c[var] == v[var]);
        if remaining.len() < before {
            eqs.push((var, v[var]));
        }
    }
    debug_assert!(remaining.is_empty(), "a rival vector equals the block's");
    eqs
}

/// Converts a local state into the guard expression identifying it: its
/// positive propositions, plus the negated propositions needed to
/// exclude every sibling local state whose propositions subsume this
/// one's (a purely positive conjunction would also fire there). One-hot
/// local states — the common case under the global specification's
/// exactly-one clauses — never subsume each other, so their expressions
/// stay purely positive.
fn local_expr(proc: &Process, li: usize) -> BoolExpr {
    let props = &proc.states[li].props;
    let mut conj: Vec<BoolExpr> = props.iter().map(BoolExpr::Prop).collect();
    let mut confusable: Vec<usize> = (0..proc.states.len())
        .filter(|&l| l != li && props.iter().all(|p| proc.states[l].props.contains(p)))
        .collect();
    while let Some(&l) = confusable.first() {
        let p = proc.states[l]
            .props
            .iter()
            .find(|&p| !props.contains(p))
            .expect("a distinct superset has an extra proposition");
        conj.push(BoolExpr::Not(Box::new(BoolExpr::Prop(p))));
        confusable.retain(|&l2| !proc.states[l2].props.contains(p));
    }
    match conj.len() {
        0 => BoolExpr::Const(true),
        1 => conj.into_iter().next().expect("len checked"),
        _ => BoolExpr::And(conj),
    }
}

/// Renders a disjunction of guard blocks, factoring the common case where
/// all blocks share their shared-variable constraints and vary in a
/// single process dimension (yielding Figure 9-style `N2 ∨ C2` guards).
fn blocks_to_guard(processes: &[Process], blocks: &[GuardBlock]) -> BoolExpr {
    if blocks.is_empty() {
        return BoolExpr::Const(false);
    }
    // Try single-dimension factoring.
    if blocks.len() > 1 {
        let first = &blocks[0];
        let same_vars = blocks.iter().all(|b| b.var_eqs == first.var_eqs);
        if same_vars {
            // Find the set of process dimensions that vary.
            let mut varying: Vec<usize> = Vec::new();
            for (pos, &(j, l0)) in first.other_locals.iter().enumerate() {
                if blocks.iter().any(|b| b.other_locals[pos] != (j, l0)) {
                    varying.push(pos);
                }
            }
            if varying.len() == 1 {
                let pos = varying[0];
                let j = first.other_locals[pos].0;
                let mut states: Vec<usize> = blocks.iter().map(|b| b.other_locals[pos].1).collect();
                states.sort_unstable();
                states.dedup();
                let mut conj: Vec<BoolExpr> = Vec::new();
                // Fixed dimensions.
                for (p2, &(j2, l2)) in first.other_locals.iter().enumerate() {
                    if p2 != pos {
                        conj.push(local_expr(&processes[j2], l2));
                    }
                }
                // The varying one: disjunction over its observed states
                // (or `true` if every local state of P_j is covered).
                if states.len() < processes[j].states.len() {
                    let alts: Vec<BoolExpr> = states
                        .iter()
                        .map(|&l| local_expr(&processes[j], l))
                        .collect();
                    conj.push(if alts.len() == 1 {
                        alts.into_iter().next().expect("len checked")
                    } else {
                        BoolExpr::Or(alts)
                    });
                }
                for &(v, k) in &first.var_eqs {
                    conj.push(BoolExpr::VarEq(v, k));
                }
                return match conj.len() {
                    0 => BoolExpr::Const(true),
                    1 => conj.into_iter().next().expect("len checked"),
                    _ => BoolExpr::And(conj),
                };
            }
        }
    }
    // General case: disjunction of per-block conjunctions.
    let alts: Vec<BoolExpr> = blocks
        .iter()
        .map(|b| {
            let mut conj: Vec<BoolExpr> = b
                .other_locals
                .iter()
                .map(|&(j, l)| local_expr(&processes[j], l))
                .collect();
            for &(v, k) in &b.var_eqs {
                conj.push(BoolExpr::VarEq(v, k));
            }
            match conj.len() {
                0 => BoolExpr::Const(true),
                1 => conj.into_iter().next().expect("len checked"),
                _ => BoolExpr::And(conj),
            }
        })
        .collect();
    match alts.len() {
        1 => alts.into_iter().next().expect("len checked"),
        _ => BoolExpr::Or(alts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_kripke::{KripkeBuilder, State};

    fn two_proc_props() -> PropTable {
        let mut t = PropTable::new();
        for (n, i) in [("a1", 0), ("b1", 0), ("a2", 1), ("b2", 1)] {
            t.add(n, Owner::Process(i)).unwrap();
        }
        t
    }

    fn st(props: &PropTable, names: &[&str]) -> State {
        State::new(PropSet::from_iter_with_capacity(
            props.len(),
            names.iter().map(|n| props.id(n).unwrap()),
        ))
    }

    #[test]
    fn shared_vars_disambiguate_duplicate_valuations() {
        let props = two_proc_props();
        let mut m = KripkeBuilder::new();
        let s0 = m.push_state(st(&props, &["a1", "a2"]));
        let s1 = m.push_state(st(&props, &["b1", "a2"]));
        let s2 = m.push_state(st(&props, &["b1", "a2"])); // duplicate valuation
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s1, TransKind::Proc(1), s2);
        m.add_edge(s2, TransKind::Proc(0), s0);
        let mut m = m.freeze();
        let intro = introduce_shared_variables(&mut m);
        assert_eq!(intro.vars.len(), 1);
        assert_eq!(intro.vars[0].domain, 2);
        assert_eq!(m.shared(s1), vec![1]);
        assert_eq!(m.shared(s2), vec![2]);
        assert_eq!(m.shared(s0), vec![1]);
        assert_eq!(intro.group_var, vec![None, Some(0), Some(0)]);
    }

    #[test]
    fn group_vars_follow_introduction_order_with_interleaved_duplicates() {
        // Two valuation groups whose members interleave in state order:
        // the group-variable numbering must come straight from
        // `introduce_shared_variables` (it used to be re-derived by a
        // separate scan that could drift).
        let props = two_proc_props();
        let mut m = KripkeBuilder::new();
        let a0 = m.push_state(st(&props, &["a1", "a2"]));
        let b0 = m.push_state(st(&props, &["b1", "a2"]));
        let a1 = m.push_state(st(&props, &["a1", "a2"])); // dup of a0
        let b1 = m.push_state(st(&props, &["b1", "a2"])); // dup of b0
        m.add_init(a0);
        m.add_edge(a0, TransKind::Proc(0), b0);
        m.add_edge(b0, TransKind::Proc(0), a1);
        m.add_edge(a1, TransKind::Proc(0), b1);
        m.add_edge(b1, TransKind::Proc(0), a0);
        let mut m = m.freeze();
        let intro = introduce_shared_variables(&mut m);
        assert_eq!(intro.vars.len(), 2);
        assert_eq!(
            intro.group_var,
            vec![Some(0), Some(1), Some(0), Some(1)],
            "x0 belongs to the first-seen duplicated valuation, x1 to the second"
        );
        assert_eq!(m.shared(a0), vec![1, 1]);
        assert_eq!(m.shared(b0), vec![1, 1]);
        assert_eq!(m.shared(a1), vec![2, 1]);
        assert_eq!(m.shared(b1), vec![1, 2]);
        let prog = extract_program(&m, &props, 2, &intro);
        // Every guard block built from state s must test s's own group
        // variable at s's value: a1→b1 from a0 (x0=1) and a1 (x0=2),
        // b1→a1 from b0 (x1=1) and b1 (x1=2).
        for (from_name, var, vals) in [("a1", 0usize, [1u32, 2]), ("b1", 1, [1, 2])] {
            let arcs: Vec<_> = prog.processes[0]
                .arcs
                .iter()
                .filter(|a| prog.processes[0].states[a.from].name == from_name)
                .collect();
            assert!(!arcs.is_empty());
            for (arc, val) in arcs.iter().zip(vals) {
                fn eqs(e: &BoolExpr, out: &mut Vec<(usize, u32)>) {
                    match e {
                        BoolExpr::VarEq(v, k) => out.push((*v, *k)),
                        BoolExpr::And(v) | BoolExpr::Or(v) => v.iter().for_each(|e| eqs(e, out)),
                        BoolExpr::Not(i) => eqs(i, out),
                        _ => {}
                    }
                }
                let mut found = Vec::new();
                eqs(&arc.guard, &mut found);
                assert_eq!(found, vec![(var, val)], "arc {from_name} #{val}");
            }
        }
    }

    #[test]
    fn no_duplicates_no_shared_vars() {
        let props = two_proc_props();
        let mut m = KripkeBuilder::new();
        let s0 = m.push_state(st(&props, &["a1", "a2"]));
        let s1 = m.push_state(st(&props, &["b1", "a2"]));
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s1, TransKind::Proc(0), s0);
        let mut m = m.freeze();
        let intro = introduce_shared_variables(&mut m);
        assert!(intro.vars.is_empty());
        assert_eq!(intro.group_var, vec![None, None]);
    }

    #[test]
    fn extraction_produces_arcs_with_guards() {
        let props = two_proc_props();
        let mut m = KripkeBuilder::new();
        let s0 = m.push_state(st(&props, &["a1", "a2"]));
        let s1 = m.push_state(st(&props, &["b1", "a2"]));
        let s2 = m.push_state(st(&props, &["a1", "b2"]));
        let s3 = m.push_state(st(&props, &["b1", "b2"]));
        m.add_init(s0);
        // P1 toggles a1/b1 in any P2 state; P2 toggles only when b1.
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s1, TransKind::Proc(0), s0);
        m.add_edge(s1, TransKind::Proc(1), s3);
        m.add_edge(s2, TransKind::Proc(0), s3);
        m.add_edge(s3, TransKind::Proc(0), s2);
        m.add_edge(s3, TransKind::Proc(1), s1);
        let mut m = m.freeze();
        let intro = introduce_shared_variables(&mut m);
        let prog = extract_program(&m, &props, 2, &intro);
        assert_eq!(prog.processes[0].states.len(), 2);
        assert_eq!(prog.processes[1].states.len(), 2);
        // P1's a1→b1 arc merged across P2 states: guard a2 ∨ b2 → covers
        // all of P2's local states, so it factors to `true`.
        let a1b1 = prog.processes[0]
            .arcs
            .iter()
            .find(|a| {
                prog.processes[0].states[a.from].name == "a1"
                    && prog.processes[0].states[a.to].name == "b1"
            })
            .expect("arc a1→b1 exists");
        assert_eq!(a1b1.guard, BoolExpr::Const(true));
        // P2's a2→b2 arc guarded on b1.
        let a2b2 = prog.processes[1]
            .arcs
            .iter()
            .find(|a| {
                prog.processes[1].states[a.from].name == "a2"
                    && prog.processes[1].states[a.to].name == "b2"
            })
            .expect("arc a2→b2 exists");
        let b1 = props.id("b1").unwrap();
        assert_eq!(a2b2.guard, BoolExpr::Prop(b1));
        assert_eq!(prog.init_locals, vec![0, 0]);
    }

    #[test]
    fn guard_includes_shared_variable_tests() {
        let props = two_proc_props();
        let mut m = KripkeBuilder::new();
        let s0 = m.push_state(st(&props, &["a1", "a2"]));
        let dup1 = m.push_state(st(&props, &["b1", "a2"]));
        let dup2 = m.push_state(st(&props, &["b1", "a2"]));
        let s3 = m.push_state(st(&props, &["b1", "b2"]));
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), dup1);
        // Only the x=2 copy allows P2 to move.
        m.add_edge(dup1, TransKind::Proc(0), dup2);
        m.add_edge(dup2, TransKind::Proc(1), s3);
        m.add_edge(s3, TransKind::Proc(0), s0);
        let mut m = m.freeze();
        let intro = introduce_shared_variables(&mut m);
        assert_eq!(intro.vars.len(), 1);
        let prog = extract_program(&m, &props, 2, &intro);
        let arc = prog.processes[1]
            .arcs
            .iter()
            .find(|a| prog.processes[1].states[a.to].name == "b2")
            .expect("P2 arc exists");
        // Guard must mention x0=2.
        fn mentions_var(e: &BoolExpr) -> bool {
            match e {
                BoolExpr::VarEq(_, 2) => true,
                BoolExpr::And(v) | BoolExpr::Or(v) => v.iter().any(mentions_var),
                BoolExpr::Not(i) => mentions_var(i),
                _ => false,
            }
        }
        assert!(mentions_var(&arc.guard), "guard: {arc:?}");
        // The P1 arc entering the x=2 copy carries the assignment x := 2.
        let entering = prog.processes[0]
            .arcs
            .iter()
            .find(|a| a.assigns.contains(&(0, 2)))
            .expect("an arc assigns x := 2");
        assert_eq!(prog.processes[0].states[entering.to].name, "b1");
    }
}
