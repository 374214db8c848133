//! The end-to-end synthesis pipeline (Section 5.2, steps 1–5).

use crate::cegis::{cegis_synthesize, CegisProfile};
use crate::extract::{
    extract_program, introduce_shared_variables, refine, ExtractProfile,
    DEFAULT_EXTRACT_REFINE_ROUNDS,
};
use crate::minimize::{semantic_minimize_governed, MinimizeProfile};
use crate::problem::SynthesisProblem;
use crate::requirements::Requirements;
use crate::unravel::{unravel_governed, Unraveled};
use crate::verify::{check, verify, Failure, FailureKind, Verification};
use ftsyn_ctl::{Closure, LabelSet};
use ftsyn_guarded::interp::{explore, ExploreError};
use ftsyn_guarded::{fault_set_size, Program};
use ftsyn_kripke::{bisimulation_quotient, FtKripke, PropSet};
use ftsyn_tableau::{
    apply_deletion_rules_governed, build_governed, spec_fingerprint, AbortReason, BuildAbort,
    BuildProfile, BuildStart, CacheFill, Checkpoint, CheckpointError, DeletionProfile,
    DeletionStats, ExpansionCache, FaultSpec, Governor, NodeId, Phase, Tableau,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Size and timing measurements of one synthesis run (the quantities the
/// complexity analysis of Section 7.4 is about).
#[derive(Clone, Debug, Default)]
pub struct SynthesisStats {
    /// `|spec|`: length of the temporal specification.
    pub spec_length: usize,
    /// `|F|`: total description size of the fault actions.
    pub fault_size: usize,
    /// Closure size (`≤ 2|cl(spec ∧ AFAG global)|`).
    pub closure_size: usize,
    /// Total tableau nodes created.
    pub tableau_nodes: usize,
    /// Alive AND-nodes after deletion.
    pub alive_and: usize,
    /// Alive OR-nodes after deletion.
    pub alive_or: usize,
    /// Per-rule deletion counts.
    pub deletion: DeletionStats,
    /// States in the final model.
    pub model_states: usize,
    /// Program (non-fault) transitions in the final model.
    pub program_transitions: usize,
    /// Fault transitions in the final model.
    pub fault_transitions: usize,
    /// Wall-clock duration of the pipeline
    /// (= [`phase_total`](SynthesisStats::phase_total) +
    /// [`residual_time`](SynthesisStats::residual_time)).
    pub elapsed: Duration,
    /// Time spent constructing the tableau.
    pub build_time: Duration,
    /// Time spent applying the deletion rules.
    pub deletion_time: Duration,
    /// Time spent on fragments + unraveling + bisimulation quotient.
    pub unravel_time: Duration,
    /// Time spent on semantic minimization.
    pub minimize_time: Duration,
    /// Time spent on extraction.
    pub extract_time: Duration,
    /// Time spent on verification (label soundness + the final semantic
    /// re-check).
    pub verify_time: Duration,
    /// Wall-clock time not attributed to any phase (closure
    /// construction, bookkeeping between phases).
    pub residual_time: Duration,
    /// Frontier/parallelism statistics of the tableau construction.
    pub build_profile: BuildProfile,
    /// Per-rule timings and worklist counters of the deletion engine.
    pub deletion_profile: DeletionProfile,
    /// Candidate-merge counters of semantic minimization (the phase
    /// that dominates wall-clock on the larger instances).
    pub minimize_profile: MinimizeProfile,
    /// Counters of the extraction + in-pipeline verification stage
    /// (explored vs model states, guard-refinement rounds).
    pub extract_profile: ExtractProfile,
    /// Candidate/blocking counters of the CEGIS bounded-synthesis
    /// engine (all zero for tableau runs).
    pub cegis_profile: CegisProfile,
}

impl SynthesisStats {
    /// Sum of the per-phase timings. [`elapsed`](SynthesisStats::elapsed)
    /// equals this plus [`residual_time`](SynthesisStats::residual_time).
    pub fn phase_total(&self) -> Duration {
        self.build_time
            + self.deletion_time
            + self.unravel_time
            + self.minimize_time
            + self.extract_time
            + self.verify_time
    }

    /// Fresh stats for a run on `problem`, with the input sizes
    /// (`|spec|`, `|F|`) filled in.
    pub(crate) fn for_problem(problem: &mut SynthesisProblem) -> SynthesisStats {
        let spec = problem.spec.formula(&mut problem.arena);
        SynthesisStats {
            spec_length: problem.arena.length(spec),
            fault_size: fault_set_size(&problem.faults),
            ..SynthesisStats::default()
        }
    }

    /// Closes the books on a run that began at `start`: the wall-clock
    /// total, and the part of it no phase accounts for.
    pub(crate) fn finish(&mut self, start: Instant) {
        self.elapsed = start.elapsed();
        self.residual_time = self.elapsed.saturating_sub(self.phase_total());
    }
}

/// Tableau-method artifacts of a solved run: the proof objects the
/// tableau pipeline produced on the way to the model, kept for
/// inspection and re-verification.
#[derive(Debug)]
pub struct TableauArtifacts {
    /// The closure the tableau was built over.
    pub closure: Closure,
    /// The pruned tableau `T_F`.
    pub tableau: Tableau,
    /// Per-state tableau AND-node of origin. Exact on the
    /// pre-minimization model (where label soundness is checked);
    /// indicative after semantic minimization merges copies.
    pub state_tableau: Vec<NodeId>,
}

/// A successful synthesis: the model, the extracted program, and the
/// artifacts needed to inspect or re-verify them.
#[derive(Debug)]
pub struct Synthesized {
    /// The fault-tolerant model `M_F` (with shared variables installed).
    pub model: FtKripke,
    /// The extracted concurrent program `P₁ ‖ … ‖ P_I`.
    pub program: Program,
    /// Tableau proof artifacts. `Some` for the tableau engine; `None`
    /// for the CEGIS backend, which searches model space directly and
    /// never builds a tableau on the solved path.
    pub artifacts: Option<TableauArtifacts>,
    /// Measurements.
    pub stats: SynthesisStats,
    /// Mechanical verification results (soundness, fault closure).
    pub verification: Verification,
}

/// A mechanically derived impossibility result (Section 6.3): the root
/// of the tableau was deleted, so *no* program satisfies the
/// specification with the required tolerance.
#[derive(Clone, Debug)]
pub struct Impossibility {
    /// Measurements of the failed run.
    pub stats: SynthesisStats,
}

/// A governed run that exceeded its [`ftsyn_tableau::Budget`] (or was
/// cancelled, or lost a worker to a panic): which phase stopped, why,
/// and everything measured up to the abort point — partial
/// [`BuildProfile`]/[`DeletionProfile`]/[`MinimizeProfile`] included, so
/// a caller can see how far the run got and how fast it was going.
#[derive(Clone, Debug)]
pub struct AbortedSynthesis {
    /// The pipeline phase that hit the limit.
    pub phase: Phase,
    /// Which limit tripped (deterministic caps report their counters).
    pub reason: AbortReason,
    /// Measurements up to the abort point. Phases that never ran keep
    /// their default (zero) values; the phase that aborted carries its
    /// partial profile.
    pub stats: SynthesisStats,
    /// Structured failures accompanying the abort — currently one
    /// [`FailureKind::WorkerPanic`] entry when a worker panicked, empty
    /// for budget/cancellation aborts.
    pub failures: Vec<Failure>,
    /// Resumable snapshot of the abort point, when the aborted phase
    /// supports one (today: Build-phase aborts of the work-stealing
    /// engine). Feed it to [`synthesize_session`] as
    /// [`SynthesisSession::resume`] under a raised budget to continue
    /// instead of restarting; the resumed outcome is
    /// byte-identical to an uninterrupted run.
    pub checkpoint: Option<Checkpoint>,
}

/// The outcome of synthesis.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Impossibility stats are small but useful by value
pub enum SynthesisOutcome {
    /// A program exists and was synthesized.
    Solved(Box<Synthesized>),
    /// No program exists (completeness: Corollary 7.2).
    Impossible(Impossibility),
    /// A governed run stopped early: budget exceeded, cancelled, or a
    /// contained worker panic. Carries partial diagnostics; says nothing
    /// about whether a program exists.
    Aborted(Box<AbortedSynthesis>),
}

impl SynthesisOutcome {
    /// The synthesized artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is [`SynthesisOutcome::Impossible`] or
    /// [`SynthesisOutcome::Aborted`].
    pub fn unwrap_solved(self) -> Box<Synthesized> {
        match self {
            SynthesisOutcome::Solved(s) => s,
            SynthesisOutcome::Impossible(_) => {
                panic!("synthesis returned an impossibility result")
            }
            SynthesisOutcome::Aborted(a) => {
                panic!("synthesis aborted in {} phase: {}", a.phase, a.reason)
            }
        }
    }

    /// Whether a program was produced.
    pub fn is_solved(&self) -> bool {
        matches!(self, SynthesisOutcome::Solved(_))
    }
}

/// The worker-thread budget for tableau construction: the
/// `FTSYN_THREADS` environment variable when set to a positive integer
/// (the CI thread-matrix knob), the machine's available parallelism
/// otherwise. The synthesized program is identical for every value —
/// the build engine is deterministic across thread counts — so the
/// variable only redistributes work.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("FTSYN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker-thread budget of the pipeline. Only tableau construction
/// runs in parallel; every thread count produces a bit-identical
/// outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Worker threads for tableau construction (1 = sequential).
    pub build: usize,
    /// Ignored: semantic minimization is sequential. Kept while the
    /// benchmark harness still reads it.
    #[deprecated(note = "ignored: minimization is sequential")]
    pub minimize: usize,
}

impl ThreadPlan {
    /// `threads` workers for tableau construction.
    pub fn uniform(threads: usize) -> ThreadPlan {
        let threads = threads.max(1);
        #[allow(deprecated)]
        ThreadPlan {
            build: threads,
            minimize: threads,
        }
    }
}

/// Runs the synthesis method on `problem`: the tableau engine with
/// [`default_threads`] build workers and no governor.
///
/// Implements steps 1–5 of Section 5.2: tableau construction, deletion,
/// fragment construction, unraveling, and extraction, followed by
/// mechanical verification of the produced model.
pub fn synthesize(problem: &mut SynthesisProblem) -> SynthesisOutcome {
    let plan = ThreadPlan::uniform(default_threads());
    synthesize_with_engine(problem, Engine::Tableau, plan, None)
}

/// Which synthesis backend to run: the complete tableau method of the
/// source paper, or the CEGIS bounded-synthesis engine (guess–verify–
/// block over candidate models, falling back to the tableau certificate
/// for impossibility proofs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The tableau pipeline of Section 5.2 (complete; the default).
    #[default]
    Tableau,
    /// The CEGIS bounded-synthesis backend
    /// ([`cegis_synthesize`](crate::cegis_synthesize)): sound, and
    /// complete up to its queue bound — bound exhaustion on a
    /// satisfiable spec aborts rather than claiming impossibility.
    Cegis,
}

impl Engine {
    /// The engine's CLI/service name (`"tableau"` / `"cegis"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tableau => "tableau",
            Engine::Cegis => "cegis",
        }
    }

    /// Parses a CLI/service engine name. `None` for unknown names.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "tableau" => Some(Engine::Tableau),
            "cegis" => Some(Engine::Cegis),
            _ => None,
        }
    }
}

/// Runs one synthesis from the root with the chosen backend, a
/// tableau-build thread budget (every thread count produces a
/// bit-identical outcome) and an optional governor. Both engines return
/// the same [`SynthesisOutcome`] shape (CEGIS runs leave
/// [`Synthesized::artifacts`] empty and fill
/// [`SynthesisStats::cegis_profile`]).
///
/// Under a [`Governor`] every hot loop (tableau build, deletion,
/// unraveling, semantic minimization) polls it at bounded intervals,
/// and exceeding a budget — or an external [`Governor::cancel`], or a
/// contained worker panic — returns [`SynthesisOutcome::Aborted`] with
/// the phase, the reason and the partial measurements. The capped
/// budgets abort at deterministic work counters, so the abort point is
/// bit-identical at every thread count; with an unlimited budget the
/// outcome is byte-identical to an ungoverned run.
pub fn synthesize_with_engine(
    problem: &mut SynthesisProblem,
    engine: Engine,
    plan: ThreadPlan,
    gov: Option<&Governor>,
) -> SynthesisOutcome {
    match engine {
        Engine::Tableau => {
            synthesize_session(problem, plan, gov, SynthesisSession::default())
                .expect("a fresh start has no checkpoint to validate")
                .0
        }
        Engine::Cegis => cegis_synthesize(problem, plan, gov),
    }
}

/// Cross-request context for one synthesis run inside a service: an
/// optional *shared* [`ExpansionCache`] reference (the build only reads
/// it — the deferred [`CacheFill`]s come back in the result for the
/// service to apply, so many concurrent requests can warm one table)
/// and an optional [`Checkpoint`] to resume from instead of starting at
/// the root.
#[derive(Default)]
pub struct SynthesisSession<'a> {
    /// Shared `Blocks`/`Tiles` memo cache to read during the build.
    pub cache: Option<&'a ExpansionCache>,
    /// Checkpoint to resume from (validated against the problem before
    /// any work happens).
    pub resume: Option<Checkpoint>,
    /// Invoked with the checkpoint of a build-phase abort *inside* the
    /// pipeline, before the abort outcome propagates to the caller. A
    /// durable caller (the service's on-disk store) persists here, so a
    /// fail-stop between the abort and the caller's own handling still
    /// leaves the checkpoint recoverable.
    pub on_checkpoint: Option<&'a (dyn Fn(&Checkpoint) + Sync)>,
}

/// Packages an abort with final timing bookkeeping (mirrors the
/// [`Impossibility`] return path: `elapsed`/`residual` reflect the
/// truncated run).
pub(crate) fn aborted(
    phase: Phase,
    reason: AbortReason,
    checkpoint: Option<Checkpoint>,
    mut stats: SynthesisStats,
    start: Instant,
) -> SynthesisOutcome {
    stats.finish(start);
    let failures = match &reason {
        AbortReason::WorkerPanic { message } => vec![Failure::pipeline(
            FailureKind::WorkerPanic,
            format!("tableau expansion worker panicked: {message}"),
        )],
        _ => Vec::new(),
    };
    SynthesisOutcome::Aborted(Box::new(AbortedSynthesis {
        phase,
        reason,
        stats,
        failures,
        checkpoint,
    }))
}

/// Step 1, shared by both engines: builds the tableau over the step-0
/// `inputs` (see [`SynthesisProblem::tableau_inputs`]), or resumes the
/// build from `resume`. Fills the closure size, build time, build
/// profile and node count of `stats`, on an abort too. The caller owns
/// the phase bookkeeping and whatever it does with an abort's
/// checkpoint.
pub(crate) fn certificate_build(
    problem: &SynthesisProblem,
    inputs: &(Closure, FaultSpec, LabelSet),
    resume: Option<Checkpoint>,
    cache: Option<&ExpansionCache>,
    threads: usize,
    gov: Option<&Governor>,
    stats: &mut SynthesisStats,
) -> Result<(Tableau, Vec<CacheFill>), Box<BuildAbort>> {
    let (closure, fault_spec, root_label) = inputs;
    stats.closure_size = closure.len();
    let t_build = Instant::now();
    let start = match resume {
        Some(ck) => BuildStart::Resume(Box::new(ck)),
        None => BuildStart::Fresh(root_label.clone()),
    };
    let result = build_governed(
        closure,
        &problem.props,
        start,
        fault_spec,
        threads,
        cache,
        gov,
    );
    stats.build_time = t_build.elapsed();
    match result {
        Ok((tableau, profile, fills)) => {
            stats.build_profile = profile;
            stats.tableau_nodes = tableau.len();
            Ok((tableau, fills))
        }
        Err(mut a) => {
            stats.build_profile = std::mem::take(&mut a.profile);
            stats.tableau_nodes = a.nodes;
            Err(a)
        }
    }
}

/// Step 2, shared by both engines: applies the deletion rules to
/// `tableau`. Fills the deletion counters, profile and time and the
/// alive-node counts of `stats`, on an abort too. A dead root afterwards
/// is the impossibility certificate of Corollary 7.2.
pub(crate) fn certificate_delete(
    problem: &SynthesisProblem,
    closure: &Closure,
    tableau: &mut Tableau,
    gov: Option<&Governor>,
    stats: &mut SynthesisStats,
) -> Result<(), AbortReason> {
    let t_del = Instant::now();
    let result = apply_deletion_rules_governed(tableau, closure, problem.mode, gov);
    stats.deletion_time = t_del.elapsed();
    (stats.alive_and, stats.alive_or) = tableau.alive_counts();
    match result {
        Ok((deletion, profile)) => {
            stats.deletion = deletion;
            stats.deletion_profile = profile;
            Ok(())
        }
        Err(a) => {
            stats.deletion = a.stats;
            stats.deletion_profile = a.profile;
            Err(a.reason)
        }
    }
}

/// The result of step 5 on one model.
pub(crate) struct Extraction {
    /// The extracted (and possibly guard-refined) program.
    pub program: Program,
    /// Counters of the extraction and its verification loop.
    pub profile: ExtractProfile,
    /// Why the extracted program failed verification; `None` when it
    /// passed.
    pub failure: Option<ExtractionGap>,
}

/// Why the program step 5 extracted failed its re-verification.
pub(crate) enum ExtractionGap {
    /// The program could not be explored under the faults.
    NotExecutable(ExploreError),
    /// The explored structure still violated the semantic requirements
    /// at the refinement round cap.
    CapReached(FtKripke),
    /// ... or after a refinement round that changed no guard.
    NoProgress(FtKripke),
}

impl ExtractionGap {
    /// The [`FailureKind::ExtractionGap`] message. Summarising a
    /// rejection re-runs the full semantic check on the explored
    /// structure, so only the tableau path, which reports it, pays.
    fn message(
        self,
        reqs: &Requirements,
        problem: &SynthesisProblem,
        profile: &ExtractProfile,
    ) -> String {
        let (explored, what) = match self {
            ExtractionGap::NotExecutable(e) => {
                return format!("extracted program is not executable: {e}")
            }
            ExtractionGap::CapReached(k) => (
                k,
                format!(
                    "extraction verification still rejects after {} refinement round(s)",
                    profile.refinement_rounds
                ),
            ),
            ExtractionGap::NoProgress(k) => (k, "extraction refinement made no progress".into()),
        };
        let summary = check(reqs, problem, &explored, true).failure_summary();
        format!(
            "{what}: {summary} ({} explored vs {} model states)",
            explored.len(),
            profile.model_states
        )
    }
}

/// Step 5, shared by both engines: introduces the shared variables into
/// `model`, extracts the program, then explores it under the faults and
/// re-checks the semantic requirements on what it generates
/// (Corollary 7.1's "execution of P generates M_F", established
/// mechanically instead of assumed). On rejection, the guards of the
/// arcs implicated by the off-model counterexample configurations are
/// strengthened from the displacement fixpoint and the check repeats,
/// up to a governor-visible round cap. A loop that does not converge
/// reports an [`ExtractionGap`] instead of a silently-wrong program.
///
/// Adds its wall time to `stats.extract_time`; an abort also leaves the
/// partial profile in `stats.extract_profile`.
pub(crate) fn extract_stage(
    reqs: &Requirements,
    problem: &SynthesisProblem,
    model: &mut FtKripke,
    gov: Option<&Governor>,
    stats: &mut SynthesisStats,
) -> Result<Extraction, AbortReason> {
    let t_ext = Instant::now();
    let intro = introduce_shared_variables(model);
    let model: &FtKripke = model;
    let mut program = extract_program(model, &problem.props, problem.arena.num_procs(), &intro);
    let mut profile = ExtractProfile {
        model_states: model.len(),
        shared_vars: intro.vars.len(),
        ..ExtractProfile::default()
    };
    let refine_cap = gov
        .and_then(|g| g.budget().max_extract_refine_rounds)
        .unwrap_or(DEFAULT_EXTRACT_REFINE_ROUNDS);
    // The model's vector ids by valuation id: an explored state is on
    // the model iff its valuation and vector are the model's and the
    // vector is in the valuation's bucket. Explored table entries are
    // looked up in the model's tables once per round, not per state.
    let mut on_model: Vec<Vec<u32>> = vec![Vec::new(); model.valuations().len()];
    for s in model.state_ids() {
        on_model[model.val_id(s) as usize].push(model.vec_id(s));
    }
    let model_vals: HashMap<&PropSet, u32> = model.valuations().iter().zip(0..).collect();
    let model_vecs: HashMap<&[u32], u32> = (0..model.vector_count() as u32)
        .map(|v| (model.vector(v), v))
        .collect();
    let failure = loop {
        if let Some(Err(reason)) = gov.map(Governor::check_realtime) {
            stats.extract_time += t_ext.elapsed();
            stats.extract_profile = profile;
            return Err(reason);
        }
        let ex = match explore(&program, &problem.faults, &problem.props) {
            Ok(ex) => ex,
            Err(e) => break Some(ExtractionGap::NotExecutable(e)),
        };
        let k = &ex.kripke;
        let val_in_model: Vec<Option<u32>> = k
            .valuations()
            .iter()
            .map(|v| model_vals.get(v).copied())
            .collect();
        let vec_in_model: Vec<Option<u32>> = (0..k.vector_count() as u32)
            .map(|v| model_vecs.get(k.vector(v)).copied())
            .collect();
        profile.explored_states = k.len();
        profile.off_model_states = k
            .state_ids()
            .filter(|&s| {
                let bucket =
                    val_in_model[k.val_id(s) as usize].map_or(&[][..], |v| &on_model[v as usize]);
                !vec_in_model[k.vec_id(s) as usize].is_some_and(|v| bucket.contains(&v))
            })
            .count();
        if check(reqs, problem, &ex.kripke, false).ok() {
            profile.verified = true;
            break None;
        }
        if profile.refinement_rounds >= refine_cap {
            break Some(ExtractionGap::CapReached(ex.kripke));
        }
        let changed = refine(reqs, problem, model, &intro, &mut program);
        profile.refinement_rounds += 1;
        profile.refined_arcs += changed;
        if changed == 0 {
            break Some(ExtractionGap::NoProgress(ex.kripke));
        }
    };
    stats.extract_time += t_ext.elapsed();
    Ok(Extraction {
        program,
        profile,
        failure,
    })
}

/// The tableau pipeline with a [`SynthesisSession`]: a shared expansion
/// cache, and a checkpoint to resume from instead of the root. A
/// resumed run (see [`AbortedSynthesis::checkpoint`]), typically under
/// a governor with a raised budget, replays the identical deterministic
/// schedule, so its outcome is byte-identical to an uninterrupted run at
/// every thread count. Returns the outcome together with the build's
/// deferred cache fills (empty when no cache was supplied).
///
/// # Errors
///
/// [`CheckpointError`] when `session.resume` holds a checkpoint whose
/// specification fingerprint or closure shape does not match `problem` —
/// a stale blob is rejected up front, never silently resumed.
pub fn synthesize_session(
    problem: &mut SynthesisProblem,
    plan: ThreadPlan,
    gov: Option<&Governor>,
    session: SynthesisSession<'_>,
) -> Result<(SynthesisOutcome, Vec<CacheFill>), CheckpointError> {
    let start = Instant::now();
    let mut stats = SynthesisStats::for_problem(problem);

    // Step 0: closure over the spec and all tolerance labels.
    let inputs = problem.tableau_inputs();
    let SynthesisSession {
        cache,
        resume,
        on_checkpoint,
    } = session;
    if let Some(ck) = &resume {
        // No silent resume of a stale blob: the checkpoint must carry
        // the fingerprint of exactly this problem's build inputs.
        let (closure, fault_spec, root_label) = &inputs;
        ck.validate(
            spec_fingerprint(closure, &problem.props, root_label, fault_spec),
            closure.len(),
            root_label.words().len(),
        )?;
    }

    // Step 1: tableau.
    if let Some(g) = gov {
        g.enter_phase(Phase::Build);
    }
    let build = certificate_build(problem, &inputs, resume, cache, plan.build, gov, &mut stats);
    let (mut tableau, fills) = match build {
        Ok(ok) => ok,
        Err(a) => {
            let checkpoint = *a.checkpoint;
            if let Some(sink) = on_checkpoint {
                sink(&checkpoint);
            }
            return Ok((
                aborted(Phase::Build, a.reason, Some(checkpoint), stats, start),
                a.fills,
            ));
        }
    };
    let (closure, _, _) = inputs;

    // Step 2: deletion rules.
    if let Some(g) = gov {
        g.enter_phase(Phase::Deletion);
    }
    if let Err(reason) = certificate_delete(problem, &closure, &mut tableau, gov, &mut stats) {
        return Ok((aborted(Phase::Deletion, reason, None, stats, start), fills));
    }
    if !tableau.alive(tableau.root()) {
        stats.finish(start);
        return Ok((SynthesisOutcome::Impossible(Impossibility { stats }), fills));
    }

    // Steps 3–4: fragments and unraveling.
    let c0 = tableau
        .alive_succ(tableau.root(), |_| true)
        .map(|(_, c)| c)
        .next()
        .expect("alive root has an alive AND child (DeleteOR)");
    if let Some(g) = gov {
        g.enter_phase(Phase::Unravel);
    }
    let t_unr = Instant::now();
    let unraveled =
        match unravel_governed(&tableau, &closure, &problem.props, c0, problem.mode, gov) {
            Ok(u) => u,
            Err(reason) => {
                stats.unravel_time = t_unr.elapsed();
                return Ok((aborted(Phase::Unravel, reason, None, stats, start), fills));
            }
        };
    // Quotient by labeled bisimulation: the unraveling duplicates states
    // (one copy per fragment occurrence); the quotient collapses
    // behaviorally identical copies. CTL satisfaction under both
    // semantics is bisimulation-invariant, so all verified properties
    // are preserved, and the extracted program needs far fewer
    // disambiguating shared variables.
    let q = bisimulation_quotient(&unraveled.model);
    let model = q.model;
    let state_tableau: Vec<NodeId> = q
        .representative
        .iter()
        .map(|&r| unraveled.state_tableau[r.index()])
        .collect();
    // Verify the quotient model in full (including the Theorem 7.1.9
    // label-soundness check, which is only meaningful while every state
    // still corresponds to one tableau AND-node).
    let pre_unr = Unraveled {
        model,
        state_tableau: state_tableau.clone(),
    };
    stats.unravel_time = t_unr.elapsed();
    let t_ver = Instant::now();
    let full_verification = verify(problem, &closure, &tableau, &pre_unr);
    stats.verify_time = t_ver.elapsed();
    // Semantic minimization: merge same-valuation copies as long as the
    // model keeps satisfying the synthesis problem's requirements.
    if let Some(g) = gov {
        g.enter_phase(Phase::Minimize);
    }
    let t_min = Instant::now();
    let (mut model, merge_map, minimize_profile) =
        match semantic_minimize_governed(problem, pre_unr.model, gov) {
            Ok(ok) => ok,
            Err(a) => {
                stats.minimize_profile = a.profile;
                stats.minimize_time = t_min.elapsed();
                return Ok((
                    aborted(Phase::Minimize, a.reason, None, stats, start),
                    fills,
                ));
            }
        };
    stats.minimize_profile = minimize_profile;
    // Re-tag the minimized states: each final state keeps the tableau
    // node of the first pre-minimization state merged into it. (Labels
    // are exact on the pre-minimization model, where Theorem 7.1.9 is
    // checked; after merging they are indicative.)
    let state_tableau = {
        let mut tags: Vec<Option<NodeId>> = vec![None; model.len()];
        for (old, &new) in merge_map.iter().enumerate() {
            if tags[new.index()].is_none() {
                tags[new.index()] = Some(state_tableau[old]);
            }
        }
        tags.into_iter()
            .map(|t| t.expect("every final state has a source"))
            .collect::<Vec<NodeId>>()
    };
    stats.minimize_time = t_min.elapsed();
    stats.model_states = model.len();
    stats.fault_transitions = model.fault_edge_count();
    stats.program_transitions = model.edge_count() - stats.fault_transitions;

    // Step 5: shared variables, program extraction, and the
    // explore/re-verify refinement loop. A non-converging loop degrades
    // the verification with a structured `ExtractionGap` failure.
    if let Some(g) = gov {
        g.enter_phase(Phase::Extract);
    }
    let reqs = Requirements::new(problem);
    let Extraction {
        program,
        profile,
        failure,
    } = match extract_stage(&reqs, problem, &mut model, gov, &mut stats) {
        Ok(e) => e,
        Err(reason) => return Ok((aborted(Phase::Extract, reason, None, stats, start), fills)),
    };

    // Final verification of the minimized model: the three semantic
    // requirements of Section 3 re-checked on the exact structure the
    // program was extracted from, folded together with the full
    // pre-minimization verification (which alone can check label
    // soundness, Theorem 7.1.9). Every pre-minimization failure is
    // surfaced with its stage tagged, not just the label-related ones.
    let t_ver = Instant::now();
    let mut verification = check(&reqs, problem, &model, true);
    verification.merge_pre_minimization(full_verification);
    if let Some(gap) = failure {
        verification.extraction_ok = false;
        verification.failures.push(Failure::pipeline(
            FailureKind::ExtractionGap,
            gap.message(&reqs, problem, &profile),
        ));
    }
    stats.extract_profile = profile;
    stats.verify_time += t_ver.elapsed();
    stats.finish(start);

    Ok((
        SynthesisOutcome::Solved(Box::new(Synthesized {
            model,
            program,
            artifacts: Some(TableauArtifacts {
                closure,
                tableau,
                state_tableau,
            }),
            stats,
            verification,
        })),
        fills,
    ))
}
