//! Tableau construction (step 1 of the synthesis method, Section 5.2).
//!
//! Starting from the root OR-node labeled `{spec}`, nodes are expanded
//! until no frontier remains: OR-nodes get their `Blocks` AND-successors,
//! AND-nodes get their `Tiles` OR-successors *plus* one fault-successor
//! OR-node per possible outcome of every enabled fault action
//! (`FaultStates`, Definitions 5.1.1–5.1.2).
//!
//! The label of a fault-successor OR-node pins the *complete* perturbed
//! valuation — a literal for every atomic proposition — and adds the
//! tolerance formulae `Label_TOL(spec)` (or, for multitolerance, the
//! per-action `Label_a(spec)`, Section 8.2).
//!
//! # Deterministic work-stealing expansion scheduler
//!
//! The engine ([`build_governed`], and [`build_with_threads`] over it)
//! chunks expansion work into fixed-size batches carrying dense
//! sequence ids. Worker threads (`std::thread::scope`, no external
//! dependencies) pull batches from per-worker queues and *steal* from
//! the most loaded other queue when theirs runs dry — so a worker that
//! finishes its share of one BFS level immediately starts on the next
//! level instead of idling at a barrier. At one thread there are no
//! workers: the committer pops its one queue and expands each batch
//! itself, through the same commit loop. Expansion itself is a pure, read-only computation
//! (`Blocks`/`Tiles` decomposition and fault-outcome enumeration over a
//! snapshot of the node's label), so batches may complete in any order;
//! determinism comes from the *commit* side: the main thread applies
//! batch results strictly in sequence order (interning, edge insertion,
//! fresh-node collection), and fresh nodes are batched in discovery
//! order. The global commit order therefore equals the BFS frontier
//! order of a sequential build, and the produced tableau — node ids,
//! edge order, intern order — is bit-identical at every thread count.
//! See `DESIGN.md` §8 for the full argument.
//!
//! The `build_reference` oracle in `ftsyn_conformance::reference` runs
//! the pre-optimization kernels through its own sequential
//! breadth-first harness, independent of the scheduler; the
//! conformance suites require a bit-identical tableau.

use crate::cache::{CacheFill, ExpansionCache};
use crate::checkpoint::{spec_fingerprint, Checkpoint, PendingBatch};
use crate::expand::{blocks_polled, tiles, BlocksStats, Tile};
use crate::governor::{AbortReason, Governor};
use crate::graph::{EdgeKind, NodeId, NodeKind, Tableau};
use ftsyn_ctl::{Closure, EntryKind, LabelSet, PropTable};
use ftsyn_guarded::FaultAction;
use ftsyn_kripke::PropSet;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A tableau construction stopped by its [`Governor`]: the reason plus
/// the partial [`BuildProfile`] and node count accumulated so far, a
/// resumable [`Checkpoint`] of the exact abort point, and the deferred
/// cache fills computed so far.
#[derive(Debug)]
pub struct BuildAbort {
    /// Which budget tripped (or which worker panicked).
    pub reason: AbortReason,
    /// Scheduler/frontier statistics up to the abort point.
    pub profile: BuildProfile,
    /// Tableau nodes interned when the build stopped.
    pub nodes: usize,
    /// Resumable snapshot of the abort point (see
    /// [`BuildStart::Resume`]).
    pub checkpoint: Box<Checkpoint>,
    /// `Blocks`/`Tiles` results computed before the abort, still worth
    /// warming a cache with (fills are deferred to the caller).
    pub fills: Vec<CacheFill>,
}

/// Locks a mutex, recovering the guarded data if a panicking thread
/// poisoned it. The scheduler state is either consistent (workers
/// update it transactionally under the lock) or discarded wholesale on
/// the abort path, so poison recovery is always sound here — and it
/// keeps one worker panic from cascading into secondary panics in every
/// other thread touching the scheduler.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Renders a panic payload for [`AbortReason::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

/// One governor poll on the build's deterministic counter (tableau
/// nodes after an in-order commit) plus the realtime triggers.
fn poll_build(gov: Option<&Governor>, states: usize) -> Result<(), AbortReason> {
    match gov {
        None => Ok(()),
        Some(g) => {
            g.check_states(states)?;
            g.check_realtime()
        }
    }
}

/// The fault side of a synthesis problem, ready for tableau construction:
/// the actions plus, for each action, the set of closure formulae that
/// must label the perturbed states it creates.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The fault actions, in index order (edge labels refer to these).
    pub actions: Vec<FaultAction>,
    /// `Label_a(spec)` per action, as closure members. For uniform
    /// tolerance all entries are equal; multitolerance varies them.
    pub tolerance_labels: Vec<LabelSet>,
}

impl FaultSpec {
    /// A fault spec with the same tolerance label for every action.
    pub fn uniform(actions: Vec<FaultAction>, label: LabelSet) -> FaultSpec {
        let tolerance_labels = vec![label; actions.len()];
        FaultSpec {
            actions,
            tolerance_labels,
        }
    }

    /// A fault spec with no actions (fault-intolerant synthesis — the
    /// plain Emerson–Clarke decision procedure).
    pub fn none() -> FaultSpec {
        FaultSpec {
            actions: Vec::new(),
            tolerance_labels: Vec::new(),
        }
    }
}

/// The closed-world valuation of an AND-node label: the set of
/// propositions whose positive literal is in the label
/// (the paper's `L(c)↑AP`).
pub fn valuation_of(closure: &Closure, props: &PropTable, label: &LabelSet) -> PropSet {
    let mut v = PropSet::with_capacity(props.len());
    for idx in label.iter() {
        if let EntryKind::Lit {
            prop,
            positive: true,
        } = closure.entry(idx).kind
        {
            v.insert(prop);
        }
    }
    v
}

/// Builds the label of a fault-successor OR-node: every proposition
/// pinned to its value in the outcome valuation `phi`, plus the
/// tolerance label.
fn fault_or_label(closure: &Closure, props: &PropTable, phi: &PropSet, tol: &LabelSet) -> LabelSet {
    let mut l = tol.clone();
    for p in props.iter() {
        let lit = closure
            .literal(p, phi.contains(p))
            .expect("all literals are registered in the closure");
        l.insert(lit);
    }
    l
}

/// Frontier/parallelism statistics of one tableau construction.
#[derive(Clone, Debug, Default)]
pub struct BuildProfile {
    /// Breadth-first levels until the frontier emptied. (The scheduler
    /// has no level barriers, but tracks each node's BFS level as
    /// bookkeeping.)
    pub levels: usize,
    /// Levels wide enough for parallel expansion (≥ the minimum
    /// parallel frontier, with more than one thread).
    pub parallel_levels: usize,
    /// Total nodes expanded (= final node count).
    pub nodes_expanded: usize,
    /// Widest frontier encountered.
    pub max_frontier: usize,
    /// Worker threads the build was allowed to use.
    pub threads: usize,
    /// Scheduler batches executed.
    pub batches: usize,
    /// Batches a worker took from another worker's queue instead of
    /// its own.
    pub steals: usize,
    /// Batches executed per worker (empty for single-threaded builds).
    pub worker_batches: Vec<usize>,
    /// Time each worker spent parked waiting for work.
    pub worker_idle: Vec<Duration>,
    /// Time in the pure expansion half. For multi-threaded
    /// work-stealing builds this is the *sum* across workers, so it can
    /// exceed wall-clock time when expansion overlaps the commit pass.
    pub expand_time: Duration,
    /// Time applying steps on the committing thread: interning, edge
    /// insertion (appends to the nodes' `succ`/`pred` lists, with a
    /// repeat check only among one fault action's outcomes) and
    /// frontier bookkeeping. Inherently sequential.
    pub apply_time: Duration,
    /// Portion of [`BuildProfile::apply_time`] spent probing/creating
    /// nodes in the label-intern tables.
    pub intern_time: Duration,
    /// Number of label-intern probes (one per non-dummy successor step).
    pub intern_probes: usize,
    /// `Blocks`/`Tiles` memo-cache hits during this build (0 without a
    /// cache; also 0 on any cold build — interning already dedups labels
    /// within one build, so hits only come from earlier builds).
    pub cache_hits: usize,
    /// `Blocks`/`Tiles` memo-cache misses during this build.
    pub cache_misses: usize,
    /// Leaves the `Blocks` searches produced ([`BlocksStats`]).
    /// Like the two counters below it is summed in commit order, so it
    /// is the same at every thread count, and a resumed build counts
    /// only the expansions it ran itself.
    pub blocks_leaves: usize,
    /// `Blocks` labels re-expanded by the plain search.
    pub blocks_plain: usize,
    /// `Blocks` labels that needed the first-occurrence pass.
    pub blocks_reordered: usize,
    /// On-CPU time of the committing thread over its loop, the first
    /// field of `/proc/thread-self/schedstat`; `None` where that file
    /// cannot be read. Unlike [`BuildProfile::apply_time`], which is
    /// wall time, it leaves out the time the committer waits for a CPU
    /// it shares with the workers. At one thread the committer also
    /// expands, so this covers the whole build.
    pub commit_cpu: Option<Duration>,
}

/// The calling thread's on-CPU time so far, where the kernel reports it.
fn thread_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let nanos = stat.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(nanos))
}

/// One successor to materialize for a frontier node — the output of the
/// pure expansion half, applied sequentially afterwards. Labels carry
/// their [`LabelSet::stable_hash`], computed on the (parallel) worker
/// side so the sequential intern pass probes with a ready-made hash.
#[derive(Clone)]
enum Step {
    /// Intern `label` and draw a `kind` edge to it: an AND-node for an
    /// OR-node's `Blocks` (`Unlabeled`), an OR-node for an AND-node's
    /// `Tiles` (`Proc`) or fault outcomes (`Fault`).
    Edge {
        kind: EdgeKind,
        label: LabelSet,
        hash: u64,
    },
    /// AND-node dummy self-loop (pure-propositional tile).
    Dummy,
}

impl Step {
    fn edge(kind: EdgeKind, label: LabelSet) -> Step {
        let hash = label.stable_hash();
        Step::Edge { kind, label, hash }
    }
}

/// The fault-successor steps of an AND-node, keyed by its valuation, in
/// emission order. Enabledness, outcomes and [`fault_or_label`] read
/// nothing of the node but its valuation, and AND-nodes of one
/// valuation are many (mutex4-failstop has ~24,000 AND-nodes), so each
/// expansion worker — and the committer, when there are none — keeps one
/// memo for the whole build. It lives only as long as that build:
/// checkpoints and the expansion cache never see it.
type FaultMemo = HashMap<PropSet, Vec<Step>>;

/// The pure half of expanding one non-dummy node (dummy OR-nodes have
/// their successor pinned at creation and are never expanded): it only
/// reads a snapshot of the node's kind and label, never the tableau.
/// Safe to run concurrently for any set of nodes; cache lookups share
/// the table immutably and cache *inserts* are deferred as
/// [`CacheFill`]s. A `Blocks` expansion polls the governor's deadline
/// and cancel flag as it goes (it can be exponential in one label) and
/// is dropped when either trips.
#[allow(clippy::too_many_arguments)]
fn expand_task(
    closure: &Closure,
    props: &PropTable,
    faults: &FaultSpec,
    kind: NodeKind,
    label: &LabelSet,
    cache: Option<&ExpansionCache>,
    gov: Option<&Governor>,
    fault_memo: &mut FaultMemo,
) -> Result<Expanded, AbortReason> {
    match kind {
        NodeKind::Or => {
            let mut fill = None;
            let (bs, stats) = match cache.and_then(|c| c.lookup_blocks(label)) {
                Some(cached) => (cached.clone(), BlocksStats::default()),
                None => {
                    let poll = || gov.map_or(Ok(()), Governor::check_interrupt);
                    let (computed, stats) = blocks_polled(closure, label, &poll)?;
                    if cache.is_some() {
                        fill = Some(CacheFill::Blocks(label.clone(), computed.clone()));
                    }
                    (computed, stats)
                }
            };
            let steps = bs
                .into_iter()
                .map(|label| Step::edge(EdgeKind::Unlabeled, label))
                .collect();
            Ok((steps, fill, stats))
        }
        NodeKind::And => {
            let mut steps = Vec::new();
            let mut fill = None;
            // Tiles successors.
            let ts = match cache.and_then(|c| c.lookup_tiles(label)) {
                Some(cached) => cached.clone(),
                None => {
                    let computed = tiles(closure, props, label);
                    if cache.is_some() {
                        fill = Some(CacheFill::Tiles(label.clone(), computed.clone()));
                    }
                    computed
                }
            };
            for tile in ts {
                steps.push(match tile {
                    Tile::Or { proc, or_label } => Step::edge(EdgeKind::Proc(proc), or_label),
                    Tile::Dummy => Step::Dummy,
                });
            }
            // Fault successors (Definition 5.1.2), once per valuation.
            let succs = fault_memo
                .entry(valuation_of(closure, props, label))
                .or_insert_with_key(|valuation| {
                    let mut succs = Vec::new();
                    for (ai, action) in faults.actions.iter().enumerate() {
                        if !action.enabled(valuation) {
                            continue;
                        }
                        for phi in action.outcomes(valuation, props.len()) {
                            let label =
                                fault_or_label(closure, props, &phi, &faults.tolerance_labels[ai]);
                            succs.push(Step::edge(EdgeKind::Fault(ai), label));
                        }
                    }
                    succs
                });
            steps.extend_from_slice(succs);
            Ok((steps, fill, BlocksStats::default()))
        }
    }
}

/// The narrowest BFS level counted in [`BuildProfile::parallel_levels`]
/// (bookkeeping only: the scheduler has no level barriers).
const MIN_PARALLEL_FRONTIER: usize = 4;

/// Expansion tasks per work-stealing batch. Small enough to spread a
/// narrow frontier across workers, large enough that the per-batch
/// queue/commit bookkeeping stays noise.
pub(crate) const BATCH_SIZE: usize = 16;

/// Constructs the tableau `T₀` for the given root label (the temporal
/// specification) and fault specification with `threads` expansion
/// workers (1 = no workers). The result is identical for every thread
/// count; the profile records how the work was scheduled. This is
/// [`build_governed`] from the root with no cache and no governor.
pub fn build_with_threads(
    closure: &Closure,
    props: &PropTable,
    root_label: LabelSet,
    faults: &FaultSpec,
    threads: usize,
) -> (Tableau, BuildProfile) {
    let start = BuildStart::Fresh(root_label);
    let (t, profile, _) = build_governed(closure, props, start, faults, threads, None, None)
        .unwrap_or_else(|a| panic!("ungoverned tableau build aborted: {}", a.reason));
    (t, profile)
}

/// The planned materialization of one [`Step`] after interning: which
/// edge to draw, or a dummy pair. Produced by the intern pass, consumed
/// by the edge pass.
enum Planned {
    /// Draw `frontier_node --kind--> target`; `fresh` nodes join the
    /// next frontier.
    Edge {
        kind: EdgeKind,
        target: NodeId,
        fresh: bool,
    },
    /// Draw the dummy self-loop pair through dummy node `dummy`.
    DummyPair { dummy: NodeId },
}

/// One node to expand, snapshotted at discovery time (kind and label
/// are final once interned) so workers never touch the mutably growing
/// tableau. Dummy OR-nodes are never interned fresh, hence never
/// scheduled — tasks are always non-dummy.
struct Task {
    id: NodeId,
    kind: NodeKind,
    label: LabelSet,
}

/// A fixed-size chunk of expansion tasks with its dense sequence id
/// (assigned at injection, in discovery order) and BFS level
/// (bookkeeping only — the scheduler has no level barriers).
struct Batch {
    seq: usize,
    level: usize,
    tasks: Vec<Task>,
}

/// One task's expansion: its steps, the cache fill it defers, and what
/// its `Blocks` search cost (zero for AND-nodes and cache hits).
type Expanded = (Vec<Step>, Option<CacheFill>, BlocksStats);

type BatchOutput = Vec<Expanded>;

/// Scheduler state shared between the committer (main thread) and the
/// expansion workers.
struct SchedState {
    /// Per-worker FIFO queues. A worker whose queue is empty steals
    /// from the back of the most loaded other queue.
    queues: Vec<VecDeque<Batch>>,
    /// Completed batches, indexed by sequence id. The committer
    /// consumes them strictly in sequence order.
    results: Vec<Option<(Batch, BatchOutput)>>,
    /// Set by the committer once every injected batch is committed (or
    /// the build aborts).
    shutdown: bool,
    /// Set by a worker whose batch body panicked
    /// ([`AbortReason::WorkerPanic`]) or was interrupted by the deadline
    /// or cancel flag (first abort wins); the committer aborts with it.
    abort: Option<AbortReason>,
    steals: usize,
    worker_batches: Vec<usize>,
    worker_idle: Vec<Duration>,
    /// Summed expansion time across workers.
    expand_time: Duration,
}

struct Scheduler {
    state: Mutex<SchedState>,
    /// Workers park here when every queue is empty.
    work: Condvar,
    /// The committer parks here waiting for the next-in-sequence batch.
    done: Condvar,
}

impl Scheduler {
    /// One queue per thread; per-worker counters for `workers` workers.
    fn new(threads: usize, workers: usize) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                queues: (0..threads).map(|_| VecDeque::new()).collect(),
                results: Vec::new(),
                shutdown: false,
                abort: None,
                steals: 0,
                worker_batches: vec![0; workers],
                worker_idle: vec![Duration::ZERO; workers],
                expand_time: Duration::ZERO,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }
}

/// Snapshots freshly interned nodes into a batch.
fn make_batch(t: &Tableau, seq: usize, level: usize, chunk: &[NodeId]) -> Batch {
    Batch {
        seq,
        level,
        tasks: chunk
            .iter()
            .map(|&id| Task {
                id,
                kind: t.node(id).kind,
                label: t.node(id).label.clone(),
            })
            .collect(),
    }
}

/// Expands one batch under `catch_unwind`: a panic (injected or
/// genuine) becomes [`AbortReason::WorkerPanic`], and a `Blocks`
/// expansion the deadline or cancel flag interrupts returns that
/// reason. Either way the batch yields no output: it stays pending, so
/// a resume expands it again from scratch.
fn expand_batch(
    batch: &Batch,
    closure: &Closure,
    props: &PropTable,
    faults: &FaultSpec,
    cache: Option<&ExpansionCache>,
    gov: Option<&Governor>,
    fault_memo: &mut FaultMemo,
) -> Result<BatchOutput, AbortReason> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(g) = gov {
            if g.should_panic_at_batch(batch.seq) {
                panic!("injected worker panic at batch {}", batch.seq);
            }
        }
        batch
            .tasks
            .iter()
            .map(|task| {
                expand_task(
                    closure,
                    props,
                    faults,
                    task.kind,
                    &task.label,
                    cache,
                    gov,
                    fault_memo,
                )
            })
            .collect()
    }))
    .unwrap_or_else(|payload| {
        Err(AbortReason::WorkerPanic {
            message: panic_message(payload),
        })
    })
}

/// An expansion worker: pop from the own queue, steal when dry, park
/// when every queue is empty, exit on shutdown. Batch order is
/// irrelevant here — determinism lives entirely in the sequence-ordered
/// commit. A batch that panics or is interrupted ([`expand_batch`]) is
/// recorded in the scheduler state (first abort wins) and the worker
/// exits; the committer turns it into a structured abort.
fn worker_loop(
    sched: &Scheduler,
    w: usize,
    closure: &Closure,
    props: &PropTable,
    faults: &FaultSpec,
    cache: Option<&ExpansionCache>,
    gov: Option<&Governor>,
) {
    let mut fault_memo = FaultMemo::new();
    loop {
        let batch = {
            let mut st = lock_recover(&sched.state);
            loop {
                if let Some(b) = st.queues[w].pop_front() {
                    break Some(b);
                }
                let victim = (0..st.queues.len())
                    .filter(|&v| v != w && !st.queues[v].is_empty())
                    .max_by_key(|&v| st.queues[v].len());
                if let Some(v) = victim {
                    st.steals += 1;
                    break st.queues[v].pop_back();
                }
                if st.shutdown {
                    break None;
                }
                let idle = Instant::now();
                st = wait_recover(&sched.work, st);
                st.worker_idle[w] += idle.elapsed();
            }
        };
        let Some(batch) = batch else { return };
        let t0 = Instant::now();
        let result = expand_batch(&batch, closure, props, faults, cache, gov, &mut fault_memo);
        let spent = t0.elapsed();
        let output = match result {
            Ok(o) => o,
            Err(reason) => {
                let mut st = lock_recover(&sched.state);
                if st.abort.is_none() {
                    st.abort = Some(reason);
                }
                drop(st);
                // Wake the committer (which may be parked waiting for
                // this very batch) and any parked workers.
                sched.done.notify_all();
                sched.work.notify_all();
                return;
            }
        };
        let seq = batch.seq;
        let mut st = lock_recover(&sched.state);
        st.expand_time += spent;
        st.worker_batches[w] += 1;
        if st.results.len() <= seq {
            st.results.resize_with(seq + 1, || None);
        }
        st.results[seq] = Some((batch, output));
        drop(st);
        sched.done.notify_all();
    }
}

/// Applies one batch's expansion output in task order, in two passes:
/// (A) intern every successor label (this alone defines node
/// ids), (B) draw the edges and collect fresh nodes. Interleaving edge
/// passes between batches' intern passes cannot perturb the result:
/// node ids depend only on the intern-operation sequence and edge
/// state only on the edge-operation sequence, and committing batches in
/// sequence order preserves both sequences exactly as a sequential
/// frontier-order build produces them.
#[allow(clippy::too_many_arguments)] // internal commit half of the scheduler
fn commit_batch(
    t: &mut Tableau,
    batch: &Batch,
    output: BatchOutput,
    profile: &mut BuildProfile,
    fills: &mut Vec<CacheFill>,
    level_widths: &mut Vec<usize>,
    cache_enabled: bool,
) -> Vec<NodeId> {
    profile.nodes_expanded += batch.tasks.len();
    if level_widths.len() <= batch.level {
        level_widths.resize(batch.level + 1, 0);
    }
    level_widths[batch.level] += batch.tasks.len();

    let t0 = Instant::now();
    let mut planned: Vec<(NodeId, Vec<Planned>)> = Vec::with_capacity(batch.tasks.len());
    for (task, (steps, fill, blocks)) in batch.tasks.iter().zip(output) {
        profile.blocks_leaves += blocks.leaves;
        profile.blocks_plain += blocks.plain;
        profile.blocks_reordered += blocks.reordered;
        // Per-task cache accounting: tasks are never dummy, so with a
        // cache present each task performed exactly one lookup, and a
        // deferred fill exists iff that lookup missed. Counting per
        // task keeps the profile deterministic even when concurrent
        // builds share one cache.
        if cache_enabled {
            if fill.is_some() {
                profile.cache_misses += 1;
            } else {
                profile.cache_hits += 1;
            }
        }
        if let Some(fill) = fill {
            fills.push(fill);
        }
        let id = task.id;
        let mut plans = Vec::with_capacity(steps.len());
        for step in steps {
            let plan = match step {
                Step::Edge { kind, label, hash } => {
                    profile.intern_probes += 1;
                    let (target, fresh) = if kind == EdgeKind::Unlabeled {
                        t.intern_and_hashed(label, hash)
                    } else {
                        t.intern_or_hashed(label, hash)
                    };
                    Planned::Edge {
                        kind,
                        target,
                        fresh,
                    }
                }
                Step::Dummy => Planned::DummyPair {
                    dummy: t.new_dummy_or(t.node(id).label.clone()),
                },
            };
            plans.push(plan);
        }
        planned.push((id, plans));
    }
    profile.intern_time += t0.elapsed();

    // Each node's out-edges are drawn here, once, so only its own steps
    // can repeat an edge. `Blocks` labels and `Tiles` are distinct, and
    // a dummy is fresh; only two outcomes of one fault action can land
    // on one label (when its tolerance label holds both literals of a
    // proposition they differ in). Those steps are adjacent, so the
    // check scans only the run of the action's edges drawn so far.
    let mut fresh_nodes = Vec::new();
    for (id, plans) in planned {
        for plan in plans {
            match plan {
                Planned::Edge {
                    kind,
                    target,
                    fresh,
                } => {
                    let repeat = kind.is_fault()
                        && t.node(id)
                            .succ
                            .iter()
                            .rev()
                            .take_while(|&&(k, _)| k == kind)
                            .any(|&(_, to)| to == target);
                    if !repeat {
                        t.push_edge(id, kind, target);
                    }
                    if fresh {
                        fresh_nodes.push(target);
                    }
                }
                Planned::DummyPair { dummy } => {
                    t.push_edge(id, EdgeKind::Dummy, dummy);
                    t.push_edge(dummy, EdgeKind::Unlabeled, id);
                }
            }
        }
    }
    profile.apply_time += t0.elapsed();
    fresh_nodes
}

/// Where a build starts: from a fresh root label, or from a
/// [`Checkpoint`]'s restored scheduler state.
pub enum BuildStart {
    /// The root OR-node labeled with this label (the temporal
    /// specification).
    Fresh(LabelSet),
    /// The exact abort point of an earlier build. Callers must
    /// [`Checkpoint::validate`] the blob against the problem first;
    /// resuming a checkpoint from a different problem is a logic error
    /// (debug builds assert the specification fingerprints match).
    Resume(Box<Checkpoint>),
}

/// Builds the tableau from `start`. Fresh nodes discovered by each
/// commit are chunked into new batches in discovery order and injected
/// with the next sequence ids, so the global commit order equals the
/// BFS frontier order of a sequential build — which is what makes the
/// output bit-identical at every thread count (and to the sequential
/// `build_reference` oracle in `ftsyn_conformance::reference`).
///
/// The cache is taken by shared reference (lookups only, so concurrent
/// builds may warm one table) and the deferred [`CacheFill`]s are
/// *returned*, on success and on abort alike — applying them is the
/// caller's business. The cache never changes the result (the kernels
/// are pure); hits only occur for labels already expanded by *earlier*
/// builds through the same cache (see [`ExpansionCache`]).
///
/// Under a governor the committer polls the state cap and the realtime
/// triggers after every in-order batch commit, and a panic in a batch
/// body is contained (`catch_unwind`) instead of taking the process
/// down. On abort the workers are drained and shut down cleanly, and
/// the returned [`BuildAbort`] carries the partial profile and a
/// [`Checkpoint`] of the exact scheduler state: the partial tableau,
/// every injected-but-uncommitted batch (in sequence order), the fresh
/// nodes of the last commit that were never batched (the governor polls
/// *between* a commit and its fresh-node injection), and the
/// deterministic counters. Resuming ([`BuildStart::Resume`]) replays the
/// identical commit sequence, so the finished tableau — and every
/// deterministic profile counter — is bit-identical to an uninterrupted
/// run at every thread count. With an unlimited governor the result is
/// identical to an ungoverned build.
pub fn build_governed(
    closure: &Closure,
    props: &PropTable,
    start: BuildStart,
    faults: &FaultSpec,
    threads: usize,
    cache: Option<&ExpansionCache>,
    gov: Option<&Governor>,
) -> Result<(Tableau, BuildProfile, Vec<CacheFill>), Box<BuildAbort>> {
    let threads = threads.max(1);
    let mut profile = BuildProfile {
        threads,
        ..BuildProfile::default()
    };
    // Cache inserts stay deferred past the entire build: workers hold a
    // shared cache reference for its whole duration, and this core only
    // ever *reads* the cache — the returned fills are applied by the
    // caller. Behavior-identical to per-level application — interning
    // already guarantees each unique label is expanded (and hence
    // looked up) at most once per build.
    let mut fills: Vec<CacheFill> = Vec::new();

    // Seed the scheduler: a fresh build starts from the root batch; a
    // resumed build re-snapshots the checkpoint's uncommitted batches
    // from the restored tableau (kind and label are final once
    // interned, so the snapshots equal the originals) and batches the
    // never-injected fresh nodes with the next sequence ids — exactly
    // the ids an uninterrupted run would have assigned them.
    let (mut t, spec_hash, seeds, mut injected, mut committed, mut level_widths) = match start {
        BuildStart::Fresh(root_label) => {
            let spec_hash = spec_fingerprint(closure, props, &root_label, faults);
            let t = Tableau::with_root(root_label);
            let seeds = vec![make_batch(&t, 0, 0, &[t.root()])];
            (t, spec_hash, seeds, 1usize, 0usize, Vec::new())
        }
        BuildStart::Resume(ck) => {
            let ck = *ck;
            let t = ck.tableau;
            debug_assert_eq!(
                ck.spec_hash,
                spec_fingerprint(closure, props, &t.node(t.root()).label, faults),
                "resuming a checkpoint against a different problem — \
                 callers must Checkpoint::validate first"
            );
            let mut injected = ck.injected;
            let mut seeds: Vec<Batch> = ck
                .pending
                .iter()
                .map(|pb| make_batch(&t, pb.seq, pb.level, &pb.nodes))
                .collect();
            for chunk in ck.fresh.chunks(BATCH_SIZE) {
                seeds.push(make_batch(&t, injected, ck.fresh_level, chunk));
                injected += 1;
            }
            profile.nodes_expanded = ck.nodes_expanded;
            profile.intern_probes = ck.intern_probes;
            (
                t,
                ck.spec_hash,
                seeds,
                injected,
                ck.committed,
                ck.level_widths,
            )
        }
    };

    // Injected-but-uncommitted batches, tracked as plain node-id lists
    // so an abort can checkpoint them (a batch is removed only *after*
    // its successful commit — a batch lost to a worker panic therefore
    // stays checkpointed and re-runs on resume).
    let mut pending: VecDeque<(usize, usize, Vec<NodeId>)> = seeds
        .iter()
        .map(|b| (b.seq, b.level, b.tasks.iter().map(|task| task.id).collect()))
        .collect();
    let mut abort: Option<AbortReason> = None;
    // Fresh nodes of the last commit when an abort struck before their
    // injection, paired with their BFS level.
    let mut abort_fresh: (Vec<NodeId>, usize) = (Vec::new(), 0);

    // One queue per thread, and as many expansion workers at more than
    // one thread. With no workers the committer expands each batch
    // itself, just before committing it.
    let workers = if threads > 1 { threads } else { 0 };
    let sched = Scheduler::new(threads, workers);
    {
        let mut st = lock_recover(&sched.state);
        for (i, b) in seeds.into_iter().enumerate() {
            st.queues[i % threads].push_back(b);
        }
    }
    let cpu_start = thread_cpu_time();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let sched = &sched;
            scope.spawn(move || worker_loop(sched, w, closure, props, faults, cache, gov));
        }
        // The committer: consume results strictly in sequence order,
        // inject fresh batches round-robin across the queues. On resume
        // the sequence picks up at the checkpoint's committed count —
        // lower ids were committed before the abort and live in the
        // restored tableau already.
        let mut fault_memo = FaultMemo::new();
        let mut next_commit = committed;
        let mut rr = 0usize;
        'commit: while next_commit < injected {
            let (batch, output) = if workers == 0 {
                // The one queue holds exactly the uncommitted batches,
                // so its front is the next in sequence.
                let batch = lock_recover(&sched.state).queues[0]
                    .pop_front()
                    .expect("the next batch in sequence is queued");
                let t0 = Instant::now();
                let result =
                    expand_batch(&batch, closure, props, faults, cache, gov, &mut fault_memo);
                profile.expand_time += t0.elapsed();
                match result {
                    Ok(output) => (batch, output),
                    Err(reason) => {
                        abort = Some(reason);
                        break 'commit;
                    }
                }
            } else {
                let mut st = lock_recover(&sched.state);
                loop {
                    if let Some(reason) = st.abort.take() {
                        abort = Some(reason);
                        break 'commit;
                    }
                    if let Some(done) = st.results.get_mut(next_commit).and_then(Option::take) {
                        break done;
                    }
                    st = wait_recover(&sched.done, st);
                }
            };
            let fresh = commit_batch(
                &mut t,
                &batch,
                output,
                &mut profile,
                &mut fills,
                &mut level_widths,
                cache.is_some(),
            );
            let popped = pending.pop_front();
            debug_assert_eq!(popped.map(|p| p.0), Some(batch.seq));
            committed += 1;
            if let Err(reason) = poll_build(gov, t.len()) {
                abort = Some(reason);
                abort_fresh = (fresh, batch.level + 1);
                break 'commit;
            }
            if !fresh.is_empty() {
                let mut st = lock_recover(&sched.state);
                for chunk in fresh.chunks(BATCH_SIZE) {
                    pending.push_back((injected, batch.level + 1, chunk.to_vec()));
                    st.queues[rr % threads].push_back(make_batch(
                        &t,
                        injected,
                        batch.level + 1,
                        chunk,
                    ));
                    rr += 1;
                    injected += 1;
                }
                drop(st);
                sched.work.notify_all();
            }
            next_commit += 1;
        }
        // Drain/shutdown: on the abort path, clear every queue so
        // workers stop as soon as their current batch finishes; the
        // scoped join below then reaps them all cleanly.
        let mut st = lock_recover(&sched.state);
        st.shutdown = true;
        if abort.is_some() {
            for q in &mut st.queues {
                q.clear();
            }
        }
        drop(st);
        sched.work.notify_all();
    });
    let st = sched.state.into_inner().unwrap_or_else(|e| e.into_inner());
    profile.steals = st.steals;
    profile.worker_batches = st.worker_batches;
    profile.worker_idle = st.worker_idle;
    profile.expand_time += st.expand_time;

    profile.commit_cpu = thread_cpu_time()
        .zip(cpu_start)
        .map(|(end, start)| end.saturating_sub(start));
    profile.batches = injected;
    profile.levels = level_widths.len();
    profile.max_frontier = level_widths.iter().copied().max().unwrap_or(0);
    profile.parallel_levels = if threads > 1 {
        level_widths
            .iter()
            .filter(|&&w| w >= MIN_PARALLEL_FRONTIER)
            .count()
    } else {
        0
    };
    match abort {
        Some(reason) => {
            let nodes = t.len();
            let label_words = t.node(t.root()).label.words().len();
            let checkpoint = Checkpoint {
                spec_hash,
                closure_len: closure.len(),
                label_words,
                pending: pending
                    .into_iter()
                    .map(|(seq, level, nodes)| PendingBatch { seq, level, nodes })
                    .collect(),
                fresh: abort_fresh.0,
                fresh_level: abort_fresh.1,
                injected,
                committed,
                level_widths,
                nodes_expanded: profile.nodes_expanded,
                intern_probes: profile.intern_probes,
                tableau: t,
            };
            Err(Box::new(BuildAbort {
                reason,
                nodes,
                profile,
                checkpoint: Box::new(checkpoint),
                fills,
            }))
        }
        None => Ok((t, profile, fills)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use ftsyn_ctl::{parse::parse, FormulaArena, Owner};
    use ftsyn_guarded::{BoolExpr, PropAssign};

    fn simple_setup(spec: &str, procs: usize) -> (FormulaArena, PropTable, Closure, LabelSet) {
        let mut props = PropTable::new();
        props.add("p", Owner::Process(0)).unwrap();
        props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(procs);
        let f = parse(&mut arena, &mut props, spec, true).unwrap();
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        (arena, props, cl, root)
    }

    #[test]
    fn every_alive_node_has_a_successor() {
        let (_, props, cl, root) = simple_setup("p & AG(EX1 true)", 1);
        let t = build_with_threads(&cl, &props, root, &FaultSpec::none(), 1).0;
        for id in t.node_ids() {
            assert!(
                !t.node(id).succ.is_empty(),
                "node {id:?} must have a successor (Prop 7.1.4 clause 3)"
            );
        }
    }

    #[test]
    fn pure_propositional_gets_dummy_self_loop() {
        let (_, props, cl, root) = simple_setup("p", 1);
        let t = build_with_threads(&cl, &props, root, &FaultSpec::none(), 1).0;
        // root → AND(p) → dummy OR → same AND.
        let and_nodes: Vec<NodeId> = t
            .node_ids()
            .filter(|&n| t.node(n).kind == NodeKind::And)
            .collect();
        assert_eq!(and_nodes.len(), 1);
        let c = and_nodes[0];
        let (k, d) = t.node(c).succ[0];
        assert_eq!(k, EdgeKind::Dummy);
        assert!(t.node(d).dummy);
        assert_eq!(t.node(d).succ, vec![(EdgeKind::Unlabeled, c)]);
    }

    #[test]
    fn fault_successors_pin_full_valuation() {
        let (_, props, cl, root) = simple_setup("p & ~q", 1);
        let p = props.id("p").unwrap();
        let q = props.id("q").unwrap();
        // Fault: falsify p, truthify q.
        let action = FaultAction::new(
            "flip",
            BoolExpr::Prop(p),
            vec![(p, PropAssign::False), (q, PropAssign::True)],
        )
        .unwrap();
        let tol = cl.empty_label();
        let fs = FaultSpec::uniform(vec![action], tol);
        let t = build_with_threads(&cl, &props, root, &fs, 1).0;
        // Find the fault edge and check its OR label pins ¬p and q.
        let mut found = false;
        for id in t.node_ids() {
            for &(k, d) in &t.node(id).succ {
                if k.is_fault() {
                    found = true;
                    let l = &t.node(d).label;
                    assert!(l.contains(cl.literal(p, false).unwrap()));
                    assert!(l.contains(cl.literal(q, true).unwrap()));
                    assert!(!l.contains(cl.literal(p, true).unwrap()));
                }
            }
        }
        assert!(found, "the enabled fault must generate a fault successor");
    }

    #[test]
    fn disabled_fault_generates_nothing() {
        let (_, props, cl, root) = simple_setup("p & ~q", 1);
        let q = props.id("q").unwrap();
        // Guard requires q, which is false in every AND-node.
        let action =
            FaultAction::new("never", BoolExpr::Prop(q), vec![(q, PropAssign::False)]).unwrap();
        let fs = FaultSpec::uniform(vec![action], cl.empty_label());
        let t = build_with_threads(&cl, &props, root, &fs, 1).0;
        let fault_edges = t
            .node_ids()
            .flat_map(|id| t.node(id).succ.clone())
            .filter(|(k, _)| k.is_fault())
            .count();
        assert_eq!(fault_edges, 0);
    }

    #[test]
    fn nondet_fault_generates_one_successor_per_outcome() {
        let (_, props, cl, root) = simple_setup("p & ~q", 1);
        let q = props.id("q").unwrap();
        let action =
            FaultAction::new("maybe-q", BoolExpr::tru(), vec![(q, PropAssign::NonDet)]).unwrap();
        let fs = FaultSpec::uniform(vec![action], cl.empty_label());
        let t = build_with_threads(&cl, &props, root, &fs, 1).0;
        let and_with_faults: Vec<usize> = t
            .node_ids()
            .filter(|&id| t.node(id).kind == NodeKind::And)
            .map(|id| t.node(id).succ.iter().filter(|(k, _)| k.is_fault()).count())
            .collect();
        assert!(and_with_faults.contains(&2));
    }

    #[test]
    fn tolerance_label_carried_into_perturbed_or() {
        let (mut arena, mut props, _, _) = simple_setup("p", 1);
        // Rebuild closure with a tolerance formula as an extra root.
        let spec = parse(&mut arena, &mut props, "p & AG p", false).unwrap();
        let tolf = parse(&mut arena, &mut props, "AF(AG p)", false).unwrap();
        let cl = Closure::build(&mut arena, &props, &[spec, tolf]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(spec).unwrap());
        let mut tol = cl.empty_label();
        tol.insert(cl.index_of(tolf).unwrap());
        let p = props.id("p").unwrap();
        let action =
            FaultAction::new("drop-p", BoolExpr::Prop(p), vec![(p, PropAssign::False)]).unwrap();
        let fs = FaultSpec::uniform(vec![action], tol.clone());
        let t = build_with_threads(&cl, &props, root, &fs, 1).0;
        let mut checked = false;
        for id in t.node_ids() {
            for &(k, d) in &t.node(id).succ {
                if k.is_fault() {
                    checked = true;
                    assert!(tol.is_subset(&t.node(d).label));
                }
            }
        }
        assert!(checked);
    }

    /// A fault spec that flips `p` whenever it holds — wide enough to
    /// exercise fault-successor generation on most test specs.
    fn flip_p_faults(props: &PropTable, cl: &Closure) -> FaultSpec {
        let p = props.id("p").unwrap();
        let action =
            FaultAction::new("flip-p", BoolExpr::Prop(p), vec![(p, PropAssign::False)]).unwrap();
        FaultSpec::uniform(vec![action], cl.empty_label())
    }

    fn assert_same_tableau(context: &str, a: &Tableau, b: &Tableau) {
        assert_eq!(a.len(), b.len(), "{context}: node counts differ");
        for id in a.node_ids() {
            assert_eq!(a.node(id).label, b.node(id).label, "{context}: {id:?}");
            assert_eq!(a.node(id).kind, b.node(id).kind, "{context}: {id:?}");
            assert_eq!(a.node(id).succ, b.node(id).succ, "{context}: {id:?}");
            assert_eq!(a.node(id).pred, b.node(id).pred, "{context}: {id:?}");
        }
    }

    /// The tableau is bit-identical for every worker-thread count
    /// (labels, kinds, and edges in the same order at the same ids),
    /// with and without fault actions, through the sharded intern
    /// tables.
    #[test]
    fn build_is_deterministic_across_thread_counts() {
        for spec in ["p & AG(EX1 true & EX2 true)", "AG(EX1 true) & AF p & EF q"] {
            for with_faults in [false, true] {
                let (_, props, cl, root) = simple_setup(spec, 2);
                let faults = if with_faults {
                    flip_p_faults(&props, &cl)
                } else {
                    FaultSpec::none()
                };
                let (seq, seq_prof) = build_with_threads(&cl, &props, root.clone(), &faults, 1);
                assert_eq!(seq_prof.parallel_levels, 0);
                for threads in [2, 4, 8] {
                    let (par, prof) =
                        build_with_threads(&cl, &props, root.clone(), &faults, threads);
                    assert_same_tableau(spec, &seq, &par);
                    assert_eq!(prof.threads, threads);
                    assert_eq!(prof.levels, seq_prof.levels);
                    // Dummy successors are created without ever joining
                    // a frontier, so compare against the sequential
                    // profile, not the node count.
                    assert_eq!(prof.nodes_expanded, seq_prof.nodes_expanded);
                }
            }
        }
    }

    /// Scheduler counters add up: every batch is executed by exactly
    /// one worker, and per-worker vectors match the thread budget.
    #[test]
    fn scheduler_counters_are_consistent() {
        let (_, props, cl, root) = simple_setup("AG(EX1 true) & AF p & EF q", 2);
        let faults = flip_p_faults(&props, &cl);
        let (_, seq_prof) = build_with_threads(&cl, &props, root.clone(), &faults, 1);
        assert!(seq_prof.batches > 0);
        assert_eq!(seq_prof.steals, 0);
        assert!(seq_prof.worker_batches.is_empty());
        assert!(seq_prof.worker_idle.is_empty());
        for threads in [2, 4] {
            let (_, prof) = build_with_threads(&cl, &props, root.clone(), &faults, threads);
            assert_eq!(prof.worker_batches.len(), threads);
            assert_eq!(prof.worker_idle.len(), threads);
            assert_eq!(
                prof.worker_batches.iter().sum::<usize>(),
                prof.batches,
                "every batch runs on exactly one worker: {prof:?}"
            );
            assert_eq!(prof.batches, seq_prof.batches, "batching is deterministic");
        }
    }

    /// A state-cap abort carries a checkpoint that — after an
    /// encode/decode round-trip — resumes to a tableau bit-identical to
    /// an uninterrupted build, with cumulative deterministic counters,
    /// at every thread count.
    #[test]
    fn resume_after_state_cap_abort_is_bit_identical() {
        use crate::governor::Budget;
        let spec = "AG(EX1 true) & AF p & EF q";
        let (_, props, cl, root) = simple_setup(spec, 2);
        let faults = flip_p_faults(&props, &cl);
        let (full, full_prof) = build_with_threads(&cl, &props, root.clone(), &faults, 1);
        for threads in [1, 2, 8] {
            let gov = Governor::with_budget(Budget {
                max_states: Some(12),
                ..Budget::default()
            });
            let abort = build_governed(
                &cl,
                &props,
                BuildStart::Fresh(root.clone()),
                &faults,
                threads,
                None,
                Some(&gov),
            )
            .expect_err("cap of 12 must trip");
            assert!(matches!(
                abort.reason,
                AbortReason::StateCapExceeded { cap: 12, .. }
            ));
            let ck = *abort.checkpoint;
            assert!(ck.tableau_nodes() >= 12);
            let ck = Checkpoint::decode(&ck.encode()).expect("blob round-trips");
            ck.validate(
                spec_fingerprint(&cl, &props, &root, &faults),
                cl.len(),
                root.words().len(),
            )
            .expect("checkpoint matches its own problem");
            let (resumed, prof, _) = build_governed(
                &cl,
                &props,
                BuildStart::Resume(Box::new(ck)),
                &faults,
                threads,
                None,
                Some(&Governor::unlimited()),
            )
            .expect("unlimited resume completes");
            assert_same_tableau(&format!("resume@{threads}"), &full, &resumed);
            assert_eq!(prof.nodes_expanded, full_prof.nodes_expanded);
            assert_eq!(prof.batches, full_prof.batches);
            assert_eq!(prof.levels, full_prof.levels);
            assert_eq!(prof.intern_probes, full_prof.intern_probes);
        }
    }

    /// A cancel that lands inside one node's `Blocks` expansion aborts
    /// before that node's batch commits: the partial expansion is
    /// dropped, the batch stays pending, and the resume expands it again
    /// into the uninterrupted tableau.
    #[test]
    fn an_interrupted_blocks_expansion_resumes_bit_identically() {
        // 2^10 branches: the root's expansion alone passes the poll.
        let spec = (0..10)
            .map(|i| format!("(a{i} | b{i})"))
            .chain(["AG(EX1 true)".to_owned()])
            .collect::<Vec<_>>()
            .join(" & ");
        let (_, props, cl, root) = simple_setup(&spec, 1);
        let faults = FaultSpec::none();
        let (full, _) = build_with_threads(&cl, &props, root.clone(), &faults, 1);
        for threads in [1, 2] {
            let gov = Governor::unlimited();
            gov.cancel();
            let abort = build_governed(
                &cl,
                &props,
                BuildStart::Fresh(root.clone()),
                &faults,
                threads,
                None,
                Some(&gov),
            )
            .expect_err("a cancelled build aborts");
            assert!(matches!(abort.reason, AbortReason::Cancelled));
            assert_eq!(abort.nodes, 1, "nothing past the root was committed");
            let (resumed, _, _) = build_governed(
                &cl,
                &props,
                BuildStart::Resume(abort.checkpoint),
                &faults,
                threads,
                None,
                Some(&Governor::unlimited()),
            )
            .expect("unlimited resume completes");
            assert_same_tableau(&format!("blocks-resume@{threads}"), &full, &resumed);
        }
    }

    /// Abort→resume→abort→resume chains land on the same tableau, and
    /// a contained worker-panic abort is just as resumable as a cap
    /// abort (the lost batch re-runs).
    #[test]
    fn abort_resume_chains_and_panic_aborts_are_resumable() {
        use crate::governor::Budget;
        let spec = "AG(EX1 true) & AF p & EF q";
        let (_, props, cl, root) = simple_setup(spec, 2);
        let faults = flip_p_faults(&props, &cl);
        let (full, _) = build_with_threads(&cl, &props, root.clone(), &faults, 1);
        for threads in [1, 2, 8] {
            // Chain of rising caps.
            let caps = Governor::with_budget(Budget {
                max_states: Some(8),
                ..Budget::default()
            });
            let a1 = build_governed(
                &cl,
                &props,
                BuildStart::Fresh(root.clone()),
                &faults,
                threads,
                None,
                Some(&caps),
            )
            .expect_err("cap of 8 trips");
            let raised = Governor::with_budget(Budget {
                max_states: Some(2 * full.len() / 3),
                ..Budget::default()
            });
            let a2 = build_governed(
                &cl,
                &props,
                BuildStart::Resume(a1.checkpoint),
                &faults,
                threads,
                None,
                Some(&raised),
            )
            .expect_err("two-thirds cap trips again");
            let (resumed, _, _) = build_governed(
                &cl,
                &props,
                BuildStart::Resume(a2.checkpoint),
                &faults,
                threads,
                None,
                Some(&Governor::unlimited()),
            )
            .expect("final resume completes");
            assert_same_tableau(&format!("chain@{threads}"), &full, &resumed);

            // Panic abort: the panicked batch was never committed and
            // must re-run on resume.
            let booby = Governor::unlimited().inject_worker_panic_at_batch(2);
            let a3 = build_governed(
                &cl,
                &props,
                BuildStart::Fresh(root.clone()),
                &faults,
                threads,
                None,
                Some(&booby),
            )
            .expect_err("injected panic aborts");
            assert!(matches!(a3.reason, AbortReason::WorkerPanic { .. }));
            let (after_panic, _, _) = build_governed(
                &cl,
                &props,
                BuildStart::Resume(a3.checkpoint),
                &faults,
                threads,
                None,
                Some(&Governor::unlimited()),
            )
            .expect("resume after panic completes");
            assert_same_tableau(&format!("panic-resume@{threads}"), &full, &after_panic);
        }
    }

    /// Wide frontiers actually produce parallelizable work.
    #[test]
    fn wide_frontiers_expand_in_parallel() {
        let (_, props, cl, root) = simple_setup("AG(EX1 true) & AF p & EF q", 2);
        let (_, prof) = build_with_threads(&cl, &props, root, &FaultSpec::none(), 2);
        assert!(
            prof.max_frontier >= MIN_PARALLEL_FRONTIER,
            "spec too narrow to exercise the parallel path: {prof:?}"
        );
        assert!(prof.parallel_levels >= 1, "{prof:?}");
        assert!(prof.batches > 1, "{prof:?}");
    }
}
