//! Synthesis-as-a-service: a daemon engine that accepts many
//! concurrent synthesis requests, shares warm [`ExpansionCache`]s
//! across them, and turns budget aborts into resumable checkpoints
//! instead of lost work.
//!
//! # Architecture
//!
//! [`Service`] is the engine; it owns
//!
//! - a shared expansion cache, **partitioned by problem source**: the
//!   cache keys are label bitsets, which index into a
//!   problem's closure, so an entry is only meaningful to builds of
//!   the same problem — one partition per [`ProblemSource`] makes
//!   cross-request sharing sound. Each partition sits behind its own
//!   `RwLock`: every request builds under a read guard of its
//!   partition (many builders in parallel) and the cache fills it
//!   discovers are folded back under a brief write lock after the
//!   pipeline finishes, without ever blocking requests for *other*
//!   problems;
//! - a checkpoint store keyed by request id, holding the **encoded**
//!   checkpoint blob (not the live structure) plus the problem
//!   source, so every abort→resume hop exercises the serialization
//!   format end-to-end exactly like an on-disk blob would;
//! - an active-request registry mapping ids to their [`Governor`]s,
//!   giving `cancel` and `shutdown` a handle to every in-flight run.
//!
//! Determinism: a request's result bytes depend only on the problem
//! and the thread plan — never on what else the daemon is doing. The
//! shared cache can only change *which* expansions are recomputed,
//! not their values, and the per-task hit/miss accounting in the
//! build engine keeps profiles deterministic even when another
//! request warms the cache mid-build.
//!
//! The wire protocol is line-delimited JSON (see [`serve`]): one
//! request object per input line, one response object per output
//! line, matched by `id`. Every response carries a `status`:
//!
//! | `status` | when | other fields |
//! |---|---|---|
//! | `solved` | a program was synthesized and passed its re-check | `states`, `transitions`, `verified` (always `true`), `cache_hits`, `cache_misses`, `program` |
//! | `unverified` | a program was synthesized but failed its re-check (e.g. step 5's guard refinement ran out of rounds); no program is sent | `why` ([`Verification::failure_summary`](ftsyn::Verification::failure_summary), e.g. `extraction_gap:1`) |
//! | `impossible` | no program can exist | — |
//! | `aborted` | a budget, deadline or cancel stopped the run | `phase`, `reason`, `resumable` |
//! | `overloaded` | admission shed the request; nothing ran | `retry_after_ms` |
//! | `error` | the request could not be served | `code`, `message` |
//! | `checkpoints` | answer to `list-checkpoints` | `checkpoints` (rows of `id`, `source`, `nodes`) |
//! | `cancelled` | a `cancel` reached a live request | — |
//! | `shutting-down` | a `shutdown` was accepted | `mode` (`graceful` or `drain`) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod corpus;
pub mod json;
pub mod store;

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use ftsyn::{
    synthesize_session, synthesize_with_engine, Budget, CacheLimits, Engine, ExpansionCache,
    Governor, SynthesisOutcome, SynthesisProblem, SynthesisSession, ThreadPlan,
};

use admission::{Admission, AdmissionConfig, AdmissionGovernor};
use json::{ObjBuilder, Value};
use store::{CheckpointStore, Recovery, StoreError};

/// Callback that turns an inline spec-file text into a problem.
///
/// The concrete parser lives in the CLI crate (which depends on this
/// one), so the daemon receives it by injection instead of linking it.
pub type SpecParser = Box<dyn Fn(&str) -> Result<SynthesisProblem, String> + Send + Sync>;

/// Where a request's problem comes from. Kept alongside stored
/// checkpoints so a resume can rebuild the identical problem.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProblemSource {
    /// A named problem from the built-in [`corpus`].
    Corpus(String),
    /// An inline spec-file text, parsed by the injected [`SpecParser`].
    Spec(String),
}

/// One synthesis request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen id; response lines echo it, and a checkpoint left
    /// by a budget abort is stored under it.
    pub id: String,
    /// Problem to synthesize.
    pub source: ProblemSource,
    /// Worker threads for this request's tableau build.
    pub threads: usize,
    /// Per-request budget; `None` uses the service default.
    pub budget: Option<Budget>,
    /// Synthesis backend. The CEGIS engine bypasses the shared cache
    /// and the checkpoint store (its aborts are never resumable).
    pub engine: Engine,
}

impl Request {
    /// A corpus-backed request.
    pub fn corpus(id: &str, name: &str, threads: usize) -> Request {
        Request {
            id: id.to_owned(),
            source: ProblemSource::Corpus(name.to_owned()),
            threads,
            budget: None,
            engine: Engine::default(),
        }
    }

    /// Sets a per-request budget.
    pub fn with_budget(mut self, budget: Budget) -> Request {
        self.budget = Some(budget);
        self
    }

    /// Selects the synthesis backend.
    pub fn with_engine(mut self, engine: Engine) -> Request {
        self.engine = engine;
        self
    }
}

/// The outcome of a request, ready to serialize onto the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Synthesis succeeded and the program passed its re-check (the
    /// wire reply says `"verified":true`).
    Solved {
        /// States in the synthesized model.
        states: usize,
        /// Program (non-fault) transitions.
        transitions: usize,
        /// Shared-cache hits during the build.
        cache_hits: usize,
        /// Shared-cache misses during the build.
        cache_misses: usize,
        /// The synthesized program, pretty-printed.
        program: String,
    },
    /// Synthesis produced a program that failed its re-check (for
    /// instance, step 5's guard refinement did not converge within its
    /// round cap). No program is returned: `solved` always means
    /// re-checked.
    Unverified {
        /// The failed checks, as
        /// [`Verification::failure_summary`](ftsyn::Verification::failure_summary)
        /// renders them (e.g. `"extraction_gap:1"`).
        why: String,
    },
    /// A mechanical impossibility result.
    Impossible,
    /// The run hit its budget (or was cancelled).
    Aborted {
        /// Phase the abort happened in (`build`, `minimize`, ...).
        phase: String,
        /// Human-readable abort reason.
        reason: String,
        /// `true` when a checkpoint was captured; `resume` with
        /// `from` set to this request's id continues the run.
        resumable: bool,
    },
    /// The request could not be served (bad name, stale checkpoint,
    /// duplicate id, ...).
    Error {
        /// Stable machine-readable error code (see the module docs'
        /// error table): `bad-request`, `unknown-problem`, `bad-spec`,
        /// `unknown-checkpoint`, `checkpoint-rejected`, `duplicate-id`,
        /// `no-active-request`, or `shutting-down`.
        code: String,
        /// What went wrong, for humans.
        message: String,
    },
    /// The admission governor shed this request: every worker slot is
    /// busy and the wait queue is full. Nothing ran; retry later.
    Overloaded {
        /// Suggested client back-off, in milliseconds.
        retry_after_ms: u64,
    },
    /// The durable/in-memory checkpoint store listing (the
    /// `list-checkpoints` op).
    Checkpoints {
        /// One entry per stored checkpoint, sorted by id.
        entries: Vec<CheckpointEntry>,
    },
    /// A `cancel` op was delivered to a live request.
    Cancelled,
    /// A `shutdown` op was accepted.
    ShuttingDown {
        /// `true` for `mode:"drain"`: in-flight requests were
        /// cancelled so each checkpoints and exits instead of running
        /// to completion.
        drain: bool,
    },
}

/// One row of the `list-checkpoints` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Request id the checkpoint is stored under (`resume` with
    /// `from` set to this id continues the run).
    pub id: String,
    /// Problem source: `corpus:<name>` or `spec`.
    pub source: String,
    /// Tableau nodes captured in the checkpoint.
    pub nodes: usize,
}

impl Reply {
    /// An error reply with its stable code.
    fn error(code: &str, message: String) -> Reply {
        Reply::Error {
            code: code.to_owned(),
            message,
        }
    }

    /// Serializes the reply as one JSON response line for `id`.
    pub fn to_line(&self, id: &str) -> String {
        let b = ObjBuilder::new().str("id", id);
        match self {
            Reply::Solved {
                states,
                transitions,
                cache_hits,
                cache_misses,
                program,
            } => b
                .str("status", "solved")
                .num("states", *states)
                .num("transitions", *transitions)
                .bool("verified", true)
                .num("cache_hits", *cache_hits)
                .num("cache_misses", *cache_misses)
                .str("program", program)
                .build(),
            Reply::Unverified { why } => b.str("status", "unverified").str("why", why).build(),
            Reply::Impossible => b.str("status", "impossible").build(),
            Reply::Aborted {
                phase,
                reason,
                resumable,
            } => b
                .str("status", "aborted")
                .str("phase", phase)
                .str("reason", reason)
                .bool("resumable", *resumable)
                .build(),
            Reply::Error { code, message } => b
                .str("status", "error")
                .str("code", code)
                .str("message", message)
                .build(),
            Reply::Overloaded { retry_after_ms } => b
                .str("status", "overloaded")
                .num("retry_after_ms", *retry_after_ms as usize)
                .build(),
            Reply::Checkpoints { entries } => {
                let rows: Vec<String> = entries
                    .iter()
                    .map(|e| {
                        ObjBuilder::new()
                            .str("id", &e.id)
                            .str("source", &e.source)
                            .num("nodes", e.nodes)
                            .build()
                    })
                    .collect();
                b.str("status", "checkpoints")
                    .raw("checkpoints", &format!("[{}]", rows.join(",")))
                    .build()
            }
            Reply::Cancelled => b.str("status", "cancelled").build(),
            Reply::ShuttingDown { drain } => b
                .str("status", "shutting-down")
                .str("mode", if *drain { "drain" } else { "graceful" })
                .build(),
        }
    }
}

/// What [`Service::run`] executes once admission grants a slot. A
/// resume carries only the checkpoint *id*: the blob is consumed from
/// the store post-admission, so shedding or expiring in the admission
/// queue leaves it parked (and durable) for the retry.
enum Work {
    Fresh {
        source: ProblemSource,
        problem: Box<SynthesisProblem>,
        engine: Engine,
    },
    Resume {
        from: String,
    },
}

/// A checkpoint parked in the store between an abort and its resume.
struct Stored {
    /// The **encoded** blob — resume decodes and validates it, so the
    /// wire format is exercised on every hop.
    blob: Vec<u8>,
    source: ProblemSource,
    /// Tableau nodes in the blob (for `list-checkpoints`).
    nodes: usize,
}

/// The checkpoint map: the in-memory view, optionally mirrored to a
/// durable [`CheckpointStore`]. Disk failures degrade durability, not
/// correctness — they are reported on stderr and the in-memory entry
/// stands.
#[derive(Default)]
struct CheckpointMap {
    mem: HashMap<String, Stored>,
    disk: Option<CheckpointStore>,
}

impl CheckpointMap {
    fn park(&mut self, id: &str, source: &ProblemSource, blob: Vec<u8>, nodes: usize) {
        if let Some(store) = &mut self.disk {
            if let Err(e) = store.persist(id, source, &blob) {
                eprintln!("warning: checkpoint for \"{id}\" is not durable: {e}");
            }
        }
        self.mem.insert(
            id.to_owned(),
            Stored {
                blob,
                source: source.clone(),
                nodes,
            },
        );
    }

    fn contains(&self, id: &str) -> bool {
        self.mem.contains_key(id)
    }

    fn take(&mut self, id: &str) -> Option<Stored> {
        let stored = self.mem.remove(id)?;
        if let Some(store) = &mut self.disk {
            if let Err(e) = store.remove(id) {
                eprintln!("warning: consumed checkpoint \"{id}\" not removed from disk: {e}");
            }
        }
        Some(stored)
    }
}

/// The daemon engine. See the crate docs for the architecture.
pub struct Service {
    /// Expansion-cache partitions, one per problem source (cache keys
    /// are closure-relative, so entries are only sound within one
    /// problem). The outer lock is held briefly to find or create a
    /// partition; builds hold a read guard on their partition only.
    cache: RwLock<HashMap<ProblemSource, Arc<RwLock<ExpansionCache>>>>,
    /// Per-partition size caps, enforced after each fill fold-back.
    cache_limits: CacheLimits,
    checkpoints: Mutex<CheckpointMap>,
    active: Mutex<HashMap<String, Arc<Governor>>>,
    /// Pipeline requests [`serve`] has read but not yet answered: their
    /// read sequence numbers, by id. A worker registers in `active`
    /// only once it runs, so a pipelined `resume` also waits for the
    /// requests read before it.
    pending: Mutex<HashMap<String, BTreeSet<u64>>>,
    /// The next read sequence number [`Service::announce`] hands out.
    next_read: AtomicU64,
    /// Signalled whenever a request leaves `active` or `pending`;
    /// pipelined `resume` ops wait here for their `from` request to
    /// finish.
    idle: Condvar,
    /// Global admission control: worker slots, bounded wait queue,
    /// load shedding.
    admission: AdmissionGovernor,
    /// What startup recovery found, when a checkpoint dir is attached.
    recovery: Option<Recovery>,
    default_budget: Budget,
    spec_parser: Option<SpecParser>,
    /// Refuse new work ([`Service::quiesce`] and [`Service::shutdown`]).
    shutting_down: AtomicBool,
    /// Additionally cancel work racing with [`Service::shutdown`]'s
    /// cascade (registered after the cascade walked `active`).
    hard_shutdown: AtomicBool,
}

impl Default for Service {
    fn default() -> Service {
        Service::new()
    }
}

/// Lock helpers that ride through poisoning: a worker panic inside
/// one request must not wedge the whole daemon.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read<T>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(m: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(|e| e.into_inner())
}

impl Service {
    /// A fresh service with a cold cache and an unlimited default
    /// budget.
    pub fn new() -> Service {
        Service {
            cache: RwLock::new(HashMap::new()),
            cache_limits: CacheLimits::unlimited(),
            checkpoints: Mutex::new(CheckpointMap::default()),
            active: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            next_read: AtomicU64::new(0),
            idle: Condvar::new(),
            admission: AdmissionGovernor::new(AdmissionConfig::default()),
            recovery: None,
            default_budget: Budget::unlimited(),
            spec_parser: None,
            shutting_down: AtomicBool::new(false),
            hard_shutdown: AtomicBool::new(false),
        }
    }

    /// Sets the budget applied to requests that do not carry their own.
    pub fn with_default_budget(mut self, budget: Budget) -> Service {
        self.default_budget = budget;
        self
    }

    /// Applies admission limits (worker slots, bounded queue, load
    /// shedding). The default admits everything immediately.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Service {
        self.admission = AdmissionGovernor::new(config);
        self
    }

    /// Caps every expansion-cache partition; oldest-admitted entries
    /// are evicted after each fill fold-back.
    pub fn with_cache_limits(mut self, limits: CacheLimits) -> Service {
        self.cache_limits = limits;
        self
    }

    /// Attaches a durable checkpoint store at `dir`, running startup
    /// recovery: validated checkpoints from a previous daemon life are
    /// re-offered (see [`Service::list_checkpoints`] and the
    /// `list-checkpoints` op), damaged files are quarantined. The
    /// [`Recovery`] report is kept on the service
    /// ([`Service::recovery`]).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory itself is unusable (cannot be
    /// created, read, or indexed). Damaged records are never fatal.
    pub fn with_checkpoint_dir(mut self, dir: &Path) -> Result<Service, StoreError> {
        let (store, recovery) = CheckpointStore::open(dir)?;
        {
            let map = lock(&self.checkpoints);
            let mut map = map;
            for rec in &recovery.recovered {
                map.mem.insert(
                    rec.id.clone(),
                    Stored {
                        blob: rec.blob.clone(),
                        source: rec.source.clone(),
                        nodes: rec.nodes,
                    },
                );
            }
            map.disk = Some(store);
        }
        self.recovery = Some(recovery);
        Ok(self)
    }

    /// The startup recovery report, when a checkpoint dir is attached.
    pub fn recovery(&self) -> Option<&Recovery> {
        self.recovery.as_ref()
    }

    /// Admission counters `(admitted, shed, expired, peak_queued)`.
    pub fn admission_counters(&self) -> (usize, usize, usize, usize) {
        self.admission.counters()
    }

    /// Injects the inline-spec parser (normally the CLI's spec-file
    /// front end). Without one, `"spec"` requests are rejected.
    pub fn with_spec_parser(mut self, parser: SpecParser) -> Service {
        self.spec_parser = Some(parser);
        self
    }

    /// `(blocks, tiles)` entry counts summed over every cache
    /// partition.
    pub fn cache_entries(&self) -> (usize, usize) {
        read(&self.cache)
            .values()
            .fold((0, 0), |(blocks, tiles), partition| {
                let (b, t) = read(partition).len();
                (blocks + b, tiles + t)
            })
    }

    /// Cache size and eviction accounting summed over every partition:
    /// `(entries, bytes, evicted_entries, evicted_bytes)`.
    pub fn cache_stats(&self) -> (usize, usize, usize, usize) {
        read(&self.cache)
            .values()
            .fold((0, 0, 0, 0), |(entries, bytes, ee, eb), partition| {
                let p = read(partition);
                let (blocks, tiles) = p.len();
                let (pe, pb) = p.eviction_counters();
                (
                    entries + blocks + tiles,
                    bytes + p.bytes(),
                    ee + pe,
                    eb + pb,
                )
            })
    }

    /// The encoded checkpoint blob stored for `id`, if any.
    pub fn export_checkpoint(&self, id: &str) -> Option<Vec<u8>> {
        lock(&self.checkpoints).mem.get(id).map(|s| s.blob.clone())
    }

    /// Parks an externally produced checkpoint blob (e.g. one a CLI
    /// run wrote to disk) so a later `resume` can pick it up. The blob
    /// is validated on resume, not here (a best-effort decode fills
    /// the listing's node count).
    pub fn import_checkpoint(&self, id: &str, blob: Vec<u8>, source: ProblemSource) {
        let nodes = ftsyn::Checkpoint::decode(&blob)
            .map(|ck| ck.tableau_nodes())
            .unwrap_or(0);
        lock(&self.checkpoints).park(id, &source, blob, nodes);
    }

    /// Every stored checkpoint (in-memory and recovered), sorted by
    /// id — the `list-checkpoints` op.
    pub fn list_checkpoints(&self) -> Vec<CheckpointEntry> {
        let map = lock(&self.checkpoints);
        let mut entries: Vec<CheckpointEntry> = map
            .mem
            .iter()
            .map(|(id, s)| CheckpointEntry {
                id: id.clone(),
                source: match &s.source {
                    ProblemSource::Corpus(name) => format!("corpus:{name}"),
                    ProblemSource::Spec(_) => "spec".to_owned(),
                },
                nodes: s.nodes,
            })
            .collect();
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries
    }

    /// Has [`Service::quiesce`] or [`Service::shutdown`] been called?
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Rejects new work but lets in-flight requests run to completion.
    /// This is what the protocol's `shutdown` op does, so pipelined
    /// requests queued before the shutdown line still get real answers.
    pub fn quiesce(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Rejects new work and cancels every in-flight request (each
    /// aborts at its next governor poll).
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.hard_shutdown.store(true, Ordering::SeqCst);
        for gov in lock(&self.active).values() {
            gov.cancel();
        }
    }

    /// Cancels the in-flight request `target`. Returns `false` when no
    /// such request is active.
    pub fn cancel(&self, target: &str) -> bool {
        match lock(&self.active).get(target) {
            Some(gov) => {
                gov.cancel();
                true
            }
            None => false,
        }
    }

    fn build_problem(&self, source: &ProblemSource) -> Result<SynthesisProblem, Reply> {
        match source {
            ProblemSource::Corpus(name) => corpus::problem(name).ok_or_else(|| {
                Reply::error(
                    "unknown-problem",
                    format!("unknown corpus problem \"{name}\""),
                )
            }),
            ProblemSource::Spec(text) => match &self.spec_parser {
                Some(parse) => parse(text).map_err(|m| Reply::error("bad-spec", m)),
                None => Err(Reply::error(
                    "bad-spec",
                    "this service has no spec parser; use a corpus problem".to_owned(),
                )),
            },
        }
    }

    /// Runs a synthesis request to completion (or abort) on the
    /// calling thread.
    pub fn submit(&self, req: Request) -> Reply {
        self.submit_admitted(req, false)
    }

    /// [`Service::submit`] with the admission decision already made:
    /// the serve loop admits requests in line order, so a request read
    /// before the shutdown line runs even if quiescing has begun by
    /// the time its worker thread gets scheduled.
    fn submit_admitted(&self, req: Request, admitted: bool) -> Reply {
        if !admitted && self.is_shutting_down() {
            return Reply::error("shutting-down", "service is shutting down".to_owned());
        }
        let problem = match self.build_problem(&req.source) {
            Ok(p) => p,
            Err(reply) => return reply,
        };
        let budget = req.budget.unwrap_or_else(|| self.default_budget.clone());
        self.run(
            &req.id,
            req.threads,
            budget,
            Work::Fresh {
                source: req.source,
                problem: Box::new(problem),
                engine: req.engine,
            },
        )
    }

    /// Blocks until no request named `id` is active, nor pending with a
    /// read sequence number below `read` (read by [`serve`] before the
    /// caller, not yet answered). Waiting only on earlier reads keeps
    /// pipelined resumes free of cycles. Requests park their checkpoint
    /// in the store *before* deregistering, so once this returns the
    /// store reflects `id`'s final state.
    fn wait_for(&self, id: &str, read: u64) {
        let mut active = lock(&self.active);
        while active.contains_key(id)
            || lock(&self.pending)
                .get(id)
                .is_some_and(|reads| reads.range(..read).next().is_some())
        {
            active = self.idle.wait(active).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records that [`serve`] read pipeline request `id`, before its
    /// worker starts, and returns the request's read sequence number.
    fn announce(&self, id: &str) -> u64 {
        let read = self.next_read.fetch_add(1, Ordering::Relaxed);
        lock(&self.pending)
            .entry(id.to_owned())
            .or_default()
            .insert(read);
        read
    }

    /// Clears the [`Service::announce`] numbered `read` once `id` has
    /// answered.
    fn retire(&self, id: &str, read: u64) {
        // `wait_for` checks `pending` under the `active` lock, so taking
        // it here means no waiter misses the wakeup.
        let _active = lock(&self.active);
        let mut pending = lock(&self.pending);
        if let Some(reads) = pending.get_mut(id) {
            reads.remove(&read);
            if reads.is_empty() {
                pending.remove(id);
            }
        }
        self.idle.notify_all();
    }

    /// Resumes the checkpoint stored under `from`, publishing any new
    /// checkpoint (another abort) under `id`.
    ///
    /// If the `from` request is still in flight (a pipelined client
    /// sent the resume line without waiting for the abort response),
    /// this blocks until it finishes.
    pub fn resume(&self, id: &str, from: &str, threads: usize, budget: Option<Budget>) -> Reply {
        self.resume_admitted(id, from, threads, budget, None)
    }

    /// [`Service::resume`] with the admission decision already made
    /// (see [`Service::submit_admitted`]): `read` is the request's read
    /// sequence number when [`serve`] admitted it.
    fn resume_admitted(
        &self,
        id: &str,
        from: &str,
        threads: usize,
        budget: Option<Budget>,
        read: Option<u64>,
    ) -> Reply {
        if read.is_none() && self.is_shutting_down() {
            return Reply::error("shutting-down", "service is shutting down".to_owned());
        }
        self.wait_for(from, read.unwrap_or(u64::MAX));
        // Fail a miss fast, but do NOT consume the checkpoint yet: it
        // stays parked (and durable) until admission actually grants a
        // slot, so a shed or expired resume loses nothing — the retry
        // finds the blob exactly where it was.
        if !lock(&self.checkpoints).contains(from) {
            // The distinct code for a resume miss: the id never
            // aborted resumably, was already consumed, or its
            // checkpoint did not survive (e.g. quarantined on
            // recovery).
            return Reply::error(
                "unknown-checkpoint",
                format!(
                    "no checkpoint stored for request \"{from}\" \
                     (unknown, already consumed, or lost)"
                ),
            );
        }
        let budget = budget.unwrap_or_else(|| self.default_budget.clone());
        self.run(
            id,
            threads,
            budget,
            Work::Resume {
                from: from.to_owned(),
            },
        )
    }

    fn run(&self, id: &str, threads: usize, budget: Budget, work: Work) -> Reply {
        // The governor starts its clock *before* admission, so time
        // spent in the admission queue counts against the request's
        // own deadline, and cancel/shutdown reach queued requests too.
        let gov = Arc::new(Governor::with_budget(budget));
        {
            let mut active = lock(&self.active);
            if active.contains_key(id) {
                return Reply::error(
                    "duplicate-id",
                    format!("request id \"{id}\" is already active"),
                );
            }
            active.insert(id.to_owned(), Arc::clone(&gov));
        }
        // Close the race with a hard shutdown whose cancel cascade ran
        // between our shutting-down check and the registration above.
        if self.hard_shutdown.load(Ordering::SeqCst) {
            gov.cancel();
        }
        let reply = match self.admission.admit(&gov) {
            Admission::Admitted(_permit) => {
                // `_permit` releases the worker slot when this scope
                // ends, whatever the pipeline outcome.
                match work {
                    Work::Fresh {
                        source,
                        mut problem,
                        engine,
                    } => self.execute(id, source, &mut problem, threads, &gov, engine, None),
                    // The resume's checkpoint is consumed only now,
                    // with a slot in hand — a shed/expired resume
                    // below never touched it.
                    Work::Resume { from } => self.execute_resume(id, &from, threads, &gov),
                }
            }
            Admission::Shed { retry_after_ms } => Reply::Overloaded { retry_after_ms },
            Admission::Expired { reason } => Reply::Aborted {
                phase: "admission".to_owned(),
                reason,
                resumable: false,
            },
        };
        {
            let mut active = lock(&self.active);
            active.remove(id);
            self.idle.notify_all();
        }
        reply
    }

    /// The admitted half of a resume: claims the checkpoint from the
    /// store (the single consume point), decodes it, and runs the
    /// pipeline. A resume that cannot start — the blob vanished while
    /// queued, fails to decode, or its problem no longer builds — does
    /// not consume: the claim is parked right back, so only a resume
    /// that actually begins executing takes the checkpoint out of the
    /// store.
    fn execute_resume(&self, id: &str, from: &str, threads: usize, gov: &Governor) -> Reply {
        let stored = match lock(&self.checkpoints).take(from) {
            Some(s) => s,
            // Consumed by a concurrent resume while this one queued.
            None => {
                return Reply::error(
                    "unknown-checkpoint",
                    format!(
                        "no checkpoint stored for request \"{from}\" \
                         (unknown, already consumed, or lost)"
                    ),
                )
            }
        };
        let checkpoint = match ftsyn::Checkpoint::decode(&stored.blob) {
            Ok(ck) => ck,
            Err(e) => {
                let reply =
                    Reply::error("checkpoint-rejected", format!("checkpoint rejected: {e}"));
                lock(&self.checkpoints).park(from, &stored.source, stored.blob, stored.nodes);
                return reply;
            }
        };
        let mut problem = match self.build_problem(&stored.source) {
            Ok(p) => p,
            Err(reply) => {
                lock(&self.checkpoints).park(from, &stored.source, stored.blob, stored.nodes);
                return reply;
            }
        };
        // Checkpoints only exist on the tableau path, so a resume is
        // always a tableau run regardless of how the original aborted.
        self.execute(
            id,
            stored.source,
            &mut problem,
            threads,
            gov,
            Engine::Tableau,
            Some(checkpoint),
        )
    }

    /// The pipeline proper: runs while the request is registered in
    /// `active`; any checkpoint is parked before [`Service::run`]
    /// deregisters, preserving the [`Service::wait_for`] invariant.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        id: &str,
        source: ProblemSource,
        problem: &mut SynthesisProblem,
        threads: usize,
        gov: &Governor,
        engine: Engine,
        resume: Option<ftsyn::Checkpoint>,
    ) -> Reply {
        if engine == Engine::Cegis {
            // The CEGIS engine has no expansion cache to share and no
            // checkpoint format: run it directly, with the governor
            // still wired in for cancel/budget. Its aborts discard the
            // candidate enumeration state, so they are not resumable.
            let outcome = synthesize_with_engine(
                problem,
                Engine::Cegis,
                ThreadPlan::uniform(threads),
                Some(gov),
            );
            return outcome_reply(outcome, problem);
        }
        let partition = Arc::clone(write(&self.cache).entry(source.clone()).or_default());
        // Parks an abort's checkpoint from *inside* the pipeline, the
        // moment it is captured: with a durable store attached, the
        // blob hits disk before the abort even propagates to a reply,
        // so a daemon crash in that window loses nothing.
        let sink = |ck: &ftsyn::Checkpoint| {
            lock(&self.checkpoints).park(id, &source, ck.encode(), ck.tableau_nodes());
        };
        let result = {
            // Hold the partition's read guard across the whole
            // pipeline: same-problem builders share it concurrently,
            // and fills are only folded back (under the write lock)
            // after this guard drops.
            let cache = read(&partition);
            synthesize_session(
                problem,
                ThreadPlan::uniform(threads),
                Some(gov),
                SynthesisSession {
                    cache: Some(&cache),
                    resume,
                    on_checkpoint: Some(&sink),
                },
            )
        };
        let (outcome, fills) = match result {
            Ok(pair) => pair,
            Err(e) => {
                return Reply::error("checkpoint-rejected", format!("checkpoint rejected: {e}"))
            }
        };
        if !fills.is_empty() {
            let mut cache = write(&partition);
            for fill in fills {
                cache.apply_fill(fill);
            }
            cache.evict_to(self.cache_limits);
        }
        // An abort's checkpoint (when one was captured) was already
        // parked by the sink above, durably when a store is attached.
        outcome_reply(outcome, problem)
    }
}

/// The reply to a finished pipeline run of either engine. A CEGIS run
/// shares no expansion cache and captures no checkpoint, so its cache
/// counters read 0 and its aborts are not resumable.
fn outcome_reply(outcome: SynthesisOutcome, problem: &SynthesisProblem) -> Reply {
    match outcome {
        SynthesisOutcome::Solved(s) if !s.verification.ok() => Reply::Unverified {
            why: s.verification.failure_summary(),
        },
        SynthesisOutcome::Solved(s) => Reply::Solved {
            states: s.stats.model_states,
            transitions: s.stats.program_transitions,
            cache_hits: s.stats.build_profile.cache_hits,
            cache_misses: s.stats.build_profile.cache_misses,
            program: s.program.display(&problem.props).to_string(),
        },
        SynthesisOutcome::Impossible(_) => Reply::Impossible,
        SynthesisOutcome::Aborted(a) => Reply::Aborted {
            phase: a.phase.name().to_owned(),
            reason: a.reason.to_string(),
            resumable: a.checkpoint.is_some(),
        },
    }
}

/// A parsed protocol operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// Run a synthesis request.
    Synthesize(Request),
    /// Resume a stored checkpoint.
    Resume {
        /// Id for the resumed run (new checkpoints land here).
        id: String,
        /// Id whose stored checkpoint to resume.
        from: String,
        /// Worker threads.
        threads: usize,
        /// Budget override.
        budget: Option<Budget>,
    },
    /// Cancel an in-flight request.
    Cancel {
        /// Id of this cancel op itself.
        id: String,
        /// Id of the request to cancel.
        target: String,
    },
    /// List every stored checkpoint (in-memory and recovered).
    ListCheckpoints {
        /// Id of the listing op.
        id: String,
    },
    /// Stop accepting work.
    Shutdown {
        /// Id of the shutdown op.
        id: String,
        /// `mode:"drain"`: additionally cancel in-flight requests so
        /// each checkpoints and answers promptly instead of running to
        /// completion.
        drain: bool,
    },
}

impl Op {
    /// The request id the response line should echo.
    pub fn id(&self) -> &str {
        match self {
            Op::Synthesize(r) => &r.id,
            Op::Resume { id, .. }
            | Op::Cancel { id, .. }
            | Op::ListCheckpoints { id }
            | Op::Shutdown { id, .. } => id,
        }
    }
}

fn parse_budget(v: &Value) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    let members = match v {
        Value::Obj(members) => members,
        _ => return Err("\"budget\" must be an object".to_owned()),
    };
    for (key, val) in members {
        let n = val
            .as_u64()
            .ok_or_else(|| format!("budget field \"{key}\" must be a non-negative integer"))?;
        match key.as_str() {
            "deadline_ms" => budget.deadline = Some(Duration::from_millis(n)),
            "max_states" => budget.max_states = Some(n as usize),
            "max_deletion_work" => budget.max_deletion_work = Some(n as usize),
            "max_minimize_attempts" => budget.max_minimize_attempts = Some(n as usize),
            "max_extract_refine_rounds" => budget.max_extract_refine_rounds = Some(n as usize),
            other => return Err(format!("unknown budget field \"{other}\"")),
        }
    }
    Ok(budget)
}

/// Parses one request line into an [`Op`].
///
/// # Errors
///
/// `(id, message)` — the id extracted from the line when possible
/// (empty otherwise), so the error response can still be correlated.
pub fn parse_op(line: &str) -> Result<Op, (String, String)> {
    let v = json::parse(line).map_err(|e| (String::new(), format!("bad request: {e}")))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned();
    if id.is_empty() {
        return Err((id, "request is missing a non-empty \"id\"".to_owned()));
    }
    let fail = |msg: String| (id.clone(), msg);
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("request is missing \"op\"".to_owned()))?;
    let threads = match v.get("threads") {
        None => ftsyn::default_threads(),
        Some(t) => t
            .as_usize()
            .filter(|&t| t >= 1)
            .ok_or_else(|| fail("\"threads\" must be a positive integer".to_owned()))?,
    };
    let budget = match v.get("budget") {
        None => None,
        Some(b) => Some(parse_budget(b).map_err(fail)?),
    };
    let engine = match v.get("engine") {
        None => Engine::default(),
        Some(e) => {
            let name = e
                .as_str()
                .ok_or_else(|| fail("\"engine\" must be a string".to_owned()))?;
            Engine::parse(name).ok_or_else(|| {
                fail(format!(
                    "unknown engine \"{name}\" (expected tableau or cegis)"
                ))
            })?
        }
    };
    match op {
        "synthesize" => {
            let source = match (
                v.get("problem").and_then(Value::as_str),
                v.get("spec").and_then(Value::as_str),
            ) {
                (Some(name), None) => ProblemSource::Corpus(name.to_owned()),
                (None, Some(text)) => ProblemSource::Spec(text.to_owned()),
                (Some(_), Some(_)) => {
                    return Err(fail(
                        "give either \"problem\" or \"spec\", not both".to_owned(),
                    ))
                }
                (None, None) => {
                    return Err(fail(
                        "synthesize needs a \"problem\" name or an inline \"spec\"".to_owned(),
                    ))
                }
            };
            Ok(Op::Synthesize(Request {
                id,
                source,
                threads,
                budget,
                engine,
            }))
        }
        "resume" => {
            if engine == Engine::Cegis {
                return Err(fail(
                    "resume is tableau-only (the CEGIS engine has no checkpoint format)".to_owned(),
                ));
            }
            let from = v
                .get("from")
                .and_then(Value::as_str)
                .unwrap_or(&id)
                .to_owned();
            Ok(Op::Resume {
                id,
                from,
                threads,
                budget,
            })
        }
        "cancel" => {
            let target = v
                .get("target")
                .and_then(Value::as_str)
                .ok_or_else(|| fail("cancel needs a \"target\" request id".to_owned()))?
                .to_owned();
            Ok(Op::Cancel { id, target })
        }
        "list-checkpoints" => Ok(Op::ListCheckpoints { id }),
        "shutdown" => {
            let drain = match v.get("mode").map(|m| m.as_str()) {
                None => false,
                Some(Some("graceful")) => false,
                Some(Some("drain")) => true,
                Some(_) => {
                    return Err(fail(
                        "shutdown \"mode\" must be \"graceful\" or \"drain\"".to_owned(),
                    ))
                }
            };
            Ok(Op::Shutdown { id, drain })
        }
        other => Err(fail(format!("unknown op \"{other}\""))),
    }
}

/// Executes a parsed operation against the service.
pub fn dispatch(service: &Service, op: Op) -> Reply {
    dispatch_admitted(service, op, None)
}

/// [`dispatch`] with the admission decision made by the caller: the
/// serve loop admits ops in read order, before spawning the worker,
/// and passes the op's read sequence number as `read`.
fn dispatch_admitted(service: &Service, op: Op, read: Option<u64>) -> Reply {
    match op {
        Op::Synthesize(req) => service.submit_admitted(req, read.is_some()),
        Op::Resume {
            id,
            from,
            threads,
            budget,
        } => service.resume_admitted(&id, &from, threads, budget, read),
        Op::Cancel { target, .. } => {
            if service.cancel(&target) {
                Reply::Cancelled
            } else {
                Reply::error(
                    "no-active-request",
                    format!("no active request \"{target}\""),
                )
            }
        }
        Op::ListCheckpoints { .. } => Reply::Checkpoints {
            entries: service.list_checkpoints(),
        },
        Op::Shutdown { drain, .. } => {
            if drain {
                // Drain: cancel everything in flight so each request
                // aborts at its next governor poll, checkpoints
                // (durably, when a store is attached), and answers —
                // the fast path to a restartable exit.
                service.shutdown();
            } else {
                // Graceful: stop accepting work, let in-flight
                // requests finish (pipelined clients still get real
                // answers).
                service.quiesce();
            }
            Reply::ShuttingDown { drain }
        }
    }
}

/// Handles one request line synchronously, returning the response
/// line. Exposed for tests and single-shot embedding; [`serve`] is the
/// concurrent loop.
pub fn handle_line(service: &Service, line: &str) -> String {
    match parse_op(line) {
        Err((id, message)) => Reply::error("bad-request", message).to_line(&id),
        Ok(op) => {
            let id = op.id().to_owned();
            dispatch(service, op).to_line(&id)
        }
    }
}

/// The daemon loop: reads one JSON request per line from `input`,
/// serves each request on its own thread (sharing the service's warm
/// cache), and writes one JSON response line per request to `output`.
/// Response order follows completion, not submission — correlate by
/// `id`. A `shutdown` op stops the read loop and drains in-flight
/// requests (they finish and answer normally); `cancel` is the hard
/// stop for individual requests.
///
/// # Errors
///
/// Propagates read errors on `input`; write errors on `output` are
/// swallowed (there is nowhere left to report them).
pub fn serve<R: BufRead, W: Write + Send>(
    service: &Service,
    input: R,
    output: W,
) -> std::io::Result<()> {
    let out = Mutex::new(output);
    let mut read_error = None;
    std::thread::scope(|scope| {
        for line in input.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            match parse_op(&line) {
                Err((id, message)) => {
                    let mut w = lock(&out);
                    let _ = writeln!(w, "{}", Reply::error("bad-request", message).to_line(&id));
                    let _ = w.flush();
                }
                Ok(op @ Op::Shutdown { .. }) => {
                    let id = op.id().to_owned();
                    let reply = dispatch(service, op);
                    let mut w = lock(&out);
                    let _ = writeln!(w, "{}", reply.to_line(&id));
                    let _ = w.flush();
                    // Stop reading; the scope joins the in-flight
                    // workers, which run to completion and answer.
                    break;
                }
                Ok(op) => {
                    // Admission is decided here, in read order: every
                    // line read before a shutdown line runs even if
                    // quiescing begins before its worker is scheduled.
                    if service.is_shutting_down() {
                        let reply =
                            Reply::error("shutting-down", "service is shutting down".to_owned());
                        let mut w = lock(&out);
                        let _ = writeln!(w, "{}", reply.to_line(op.id()));
                        let _ = w.flush();
                        continue;
                    }
                    // Announced in read order, so a resume read later
                    // waits for this request even if its worker has
                    // not started yet.
                    let read = match op {
                        Op::Synthesize(_) | Op::Resume { .. } => Some(service.announce(op.id())),
                        _ => None,
                    };
                    let out = &out;
                    scope.spawn(move || {
                        let id = op.id().to_owned();
                        let reply = dispatch_admitted(service, op, read);
                        if let Some(read) = read {
                            service.retire(&id, read);
                        }
                        let mut w = lock(out);
                        let _ = writeln!(w, "{}", reply.to_line(&id));
                        let _ = w.flush();
                    });
                }
            }
        }
    });
    match read_error {
        Some(e) => Err(e),
        None => {
            let mut w = lock(&out);
            w.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A verified solve's program and cache counters (an unverified run
    /// answers `Reply::Unverified`, never `Solved`).
    fn solved(reply: &Reply) -> (&str, usize, usize) {
        match reply {
            Reply::Solved {
                program,
                cache_hits,
                cache_misses,
                ..
            } => (program.as_str(), *cache_hits, *cache_misses),
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn warm_cache_reproduces_the_cold_result_with_hits() {
        let svc = Service::new();
        let cold = svc.submit(Request::corpus("cold", "mutex2-failstop-masking", 2));
        let (cold_program, cold_hits, cold_misses) = solved(&cold);
        assert_eq!(cold_hits, 0, "first request sees an empty cache");
        assert!(cold_misses > 0);
        assert!(svc.cache_entries().0 > 0, "fills were folded back");

        let warm = svc.submit(Request::corpus("warm", "mutex2-failstop-masking", 2));
        let (warm_program, warm_hits, warm_misses) = solved(&warm);
        assert!(warm_hits > 0, "second request hits the shared cache");
        assert_eq!(warm_misses, 0, "nothing left to recompute");
        assert_eq!(cold_program, warm_program, "cache must not change results");
    }

    #[test]
    fn abort_resume_round_trips_through_the_encoded_blob() {
        let svc = Service::new();
        let aborted = svc.submit(
            Request::corpus("r1", "mutex2-failstop-masking", 1).with_budget(Budget {
                max_states: Some(12),
                ..Budget::unlimited()
            }),
        );
        match &aborted {
            Reply::Aborted {
                phase, resumable, ..
            } => {
                assert_eq!(phase, "build");
                assert!(*resumable);
            }
            other => panic!("expected Aborted, got {other:?}"),
        }
        assert!(svc.export_checkpoint("r1").is_some());

        let resumed = svc.resume("r2", "r1", 1, None);
        let (resumed_program, _, _) = solved(&resumed);
        assert!(
            svc.export_checkpoint("r1").is_none(),
            "a consumed checkpoint leaves the store"
        );

        // The resumed run must match an uninterrupted one end to end.
        let baseline_svc = Service::new();
        let baseline = baseline_svc.submit(Request::corpus("b", "mutex2-failstop-masking", 1));
        let (baseline_program, _, _) = solved(&baseline);
        assert_eq!(resumed_program, baseline_program);
    }

    #[test]
    fn corrupted_and_missing_checkpoints_are_structured_errors() {
        let svc = Service::new();
        // A resume against an id that never parked a checkpoint gets
        // the *distinct* unknown-checkpoint code, not a generic error.
        match svc.resume("x", "never-ran", 1, None) {
            Reply::Error { code, message } => {
                assert_eq!(code, "unknown-checkpoint");
                assert!(message.contains("no checkpoint"));
            }
            other => panic!("expected Error, got {other:?}"),
        }

        svc.import_checkpoint(
            "garbage",
            b"not a checkpoint".to_vec(),
            ProblemSource::Corpus("mutex2-failstop-masking".to_owned()),
        );
        match svc.resume("y", "garbage", 1, None) {
            Reply::Error { code, message } => {
                assert_eq!(code, "checkpoint-rejected");
                assert!(message.contains("checkpoint rejected"), "{message}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // A rejected blob is NOT consumed — only a resume that starts
        // executing takes the checkpoint out of the store, so the
        // retry gets the same structured rejection, not a misleading
        // unknown-checkpoint.
        match svc.resume("y2", "garbage", 1, None) {
            Reply::Error { code, .. } => assert_eq!(code, "checkpoint-rejected"),
            other => panic!("expected Error, got {other:?}"),
        }
        assert!(
            svc.export_checkpoint("garbage").is_some(),
            "a rejected blob stays parked"
        );

        // A blob from one spec must not resume under another: the
        // validation inside the pipeline rejects the spec-hash
        // mismatch before any work happens.
        let donor = Service::new();
        let _ = donor.submit(
            Request::corpus("d", "mutex3-failstop-masking", 1).with_budget(Budget {
                max_states: Some(12),
                ..Budget::unlimited()
            }),
        );
        let blob = donor.export_checkpoint("d").expect("abort left a blob");
        svc.import_checkpoint(
            "stale",
            blob,
            ProblemSource::Corpus("mutex2-failstop-masking".to_owned()),
        );
        match svc.resume("z", "stale", 1, None) {
            Reply::Error { code, message } => {
                assert_eq!(code, "checkpoint-rejected");
                assert!(message.contains("checkpoint rejected"), "{message}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn protocol_lines_round_trip() {
        let svc = Service::new();
        let resp = handle_line(
            &svc,
            r#"{"id":"p1","op":"synthesize","problem":"mutex2-failstop-masking","threads":1}"#,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("p1"));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("solved"));
        assert_eq!(v.get("verified"), Some(&Value::Bool(true)));
        assert!(v
            .get("program")
            .and_then(Value::as_str)
            .is_some_and(|p| p.contains("process")));

        // Abort under a budget, then resume over the wire.
        let resp = handle_line(
            &svc,
            r#"{"id":"p2","op":"synthesize","problem":"mutex3-failstop-masking",
                "threads":1,"budget":{"max_states":20}}"#,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("aborted"));
        assert_eq!(v.get("resumable"), Some(&Value::Bool(true)));
        let resp = handle_line(&svc, r#"{"id":"p3","op":"resume","from":"p2","threads":1}"#);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("solved"));

        // The full error table: every row asserts its stable code next
        // to the human message.
        for (line, code, needle) in [
            ("not json", "bad-request", "bad request"),
            (
                r#"{"op":"synthesize"}"#,
                "bad-request",
                "missing a non-empty \"id\"",
            ),
            (r#"{"id":"q","op":"noop"}"#, "bad-request", "unknown op"),
            (
                r#"{"id":"q","op":"synthesize"}"#,
                "bad-request",
                "needs a \"problem\"",
            ),
            (
                r#"{"id":"q","op":"synthesize","problem":"nope"}"#,
                "unknown-problem",
                "unknown corpus problem",
            ),
            (
                r#"{"id":"q","op":"synthesize","spec":"whatever"}"#,
                "bad-spec",
                "no spec parser",
            ),
            (
                r#"{"id":"q","op":"synthesize","problem":"x","threads":0}"#,
                "bad-request",
                "positive integer",
            ),
            (
                r#"{"id":"q","op":"synthesize","problem":"x","budget":{"max_bananas":1}}"#,
                "bad-request",
                "unknown budget field",
            ),
            (
                r#"{"id":"q","op":"cancel"}"#,
                "bad-request",
                "needs a \"target\"",
            ),
            (
                r#"{"id":"q","op":"cancel","target":"ghost"}"#,
                "no-active-request",
                "no active request",
            ),
            (
                r#"{"id":"q","op":"resume","from":"never-aborted"}"#,
                "unknown-checkpoint",
                "no checkpoint stored",
            ),
            (
                r#"{"id":"q","op":"shutdown","mode":"violent"}"#,
                "bad-request",
                "\"graceful\" or \"drain\"",
            ),
            (
                r#"{"id":"q","op":"synthesize","problem":"x","engine":"magic"}"#,
                "bad-request",
                "unknown engine",
            ),
            (
                r#"{"id":"q","op":"synthesize","problem":"x","engine":7}"#,
                "bad-request",
                "\"engine\" must be a string",
            ),
            (
                r#"{"id":"q","op":"resume","from":"p","engine":"cegis"}"#,
                "bad-request",
                "tableau-only",
            ),
        ] {
            let v = json::parse(&handle_line(&svc, line)).unwrap();
            assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
            assert_eq!(
                v.get("code").and_then(Value::as_str),
                Some(code),
                "code for {line}"
            );
            let msg = v.get("message").and_then(Value::as_str).unwrap();
            assert!(msg.contains(needle), "{line} => {msg}");
        }
    }

    #[test]
    fn the_engine_field_selects_the_cegis_backend_on_the_wire() {
        let svc = Service::new();
        let resp = handle_line(
            &svc,
            r#"{"id":"e1","op":"synthesize","problem":"mutex2-failstop-masking",
                "threads":1,"engine":"cegis"}"#,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("solved"));
        assert_eq!(v.get("verified"), Some(&Value::Bool(true)));
        // The CEGIS path never touches the shared expansion cache.
        assert_eq!(v.get("cache_hits").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("cache_misses").and_then(Value::as_u64), Some(0));
        assert_eq!(svc.cache_entries().0, 0, "no fills were folded back");

        // A CEGIS budget abort is not resumable: no checkpoint format.
        let resp = handle_line(
            &svc,
            r#"{"id":"e2","op":"synthesize","problem":"mutex4-failstop-masking",
                "threads":1,"engine":"cegis","budget":{"deadline_ms":1}}"#,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("aborted"));
        assert_eq!(v.get("resumable"), Some(&Value::Bool(false)));
        assert!(svc.export_checkpoint("e2").is_none(), "nothing was parked");
    }

    #[test]
    fn request_builders_default_to_the_tableau_engine() {
        let req = Request::corpus("r", "mutex2-failstop-masking", 1);
        assert_eq!(req.engine, Engine::Tableau);
        let req = req.with_engine(Engine::Cegis);
        assert_eq!(req.engine, Engine::Cegis);
    }

    #[test]
    fn pipelined_abort_resume_shutdown_works_in_one_stream() {
        // A client that writes its whole session without waiting for
        // responses: the resume op must wait for the abort it resumes,
        // and the shutdown must not cancel either of them.
        let svc = Service::new();
        let input = concat!(
            r#"{"id":"r1","op":"synthesize","problem":"mutex2-failstop-masking","threads":2,"budget":{"max_states":40}}"#,
            "\n",
            r#"{"id":"r2","op":"resume","from":"r1","threads":2}"#,
            "\n",
            r#"{"id":"end","op":"shutdown"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve(&svc, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let mut statuses = HashMap::new();
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            statuses.insert(
                v.get("id").and_then(Value::as_str).unwrap().to_owned(),
                v.get("status").and_then(Value::as_str).unwrap().to_owned(),
            );
        }
        assert_eq!(statuses.get("r1").map(String::as_str), Some("aborted"));
        assert_eq!(statuses.get("r2").map(String::as_str), Some("solved"));
        assert_eq!(
            statuses.get("end").map(String::as_str),
            Some("shutting-down")
        );
    }

    #[test]
    fn pipelined_resumes_wait_only_for_earlier_reads() {
        // Resumes naming each other, or their own id, must not wait in
        // a cycle: each waits only for requests read before it, so all
        // four miss (nothing was checkpointed) and the loop exits.
        let svc = Service::new();
        let input = concat!(
            r#"{"id":"a","op":"resume","from":"b"}"#,
            "\n",
            r#"{"id":"b","op":"resume","from":"a"}"#,
            "\n",
            r#"{"id":"x","op":"resume","from":"x"}"#,
            "\n",
            r#"{"id":"x","op":"resume","from":"x"}"#,
            "\n",
            r#"{"id":"end","op":"shutdown"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve(&svc, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let mut codes = Vec::new();
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            let id = v.get("id").and_then(Value::as_str).unwrap().to_owned();
            if id != "end" {
                codes.push((id, v.get("code").and_then(Value::as_str).map(str::to_owned)));
            }
        }
        codes.sort();
        let miss = Some("unknown-checkpoint".to_owned());
        assert_eq!(
            codes,
            [
                ("a".to_owned(), miss.clone()),
                ("b".to_owned(), miss.clone()),
                ("x".to_owned(), miss.clone()),
                ("x".to_owned(), miss),
            ]
        );
    }

    #[test]
    fn serve_loop_answers_every_line_and_honors_shutdown() {
        fn statuses_of(text: &str) -> HashMap<String, String> {
            let mut statuses = HashMap::new();
            for line in text.lines() {
                let v = json::parse(line).unwrap();
                statuses.insert(
                    v.get("id").and_then(Value::as_str).unwrap().to_owned(),
                    v.get("status").and_then(Value::as_str).unwrap().to_owned(),
                );
            }
            statuses
        }

        let svc = Service::new();
        let input = concat!(
            r#"{"id":"a","op":"synthesize","problem":"mutex2-failstop-masking","threads":1}"#,
            "\n",
            r#"{"id":"b","op":"synthesize","problem":"philosophers3-fault-free","threads":2}"#,
            "\n\n",
        );
        let mut output = Vec::new();
        serve(&svc, input.as_bytes(), &mut output).unwrap();
        let statuses = statuses_of(&String::from_utf8(output).unwrap());
        assert_eq!(statuses.get("a").map(String::as_str), Some("solved"));
        assert_eq!(statuses.get("b").map(String::as_str), Some("solved"));

        // A shutdown line stops the read loop; later lines are never
        // seen, and subsequent submits are refused.
        let input = concat!(
            r#"{"id":"end","op":"shutdown"}"#,
            "\n",
            r#"{"id":"late","op":"synthesize","problem":"mutex2-failstop-masking"}"#,
            "\n",
        );
        let mut output = Vec::new();
        serve(&svc, input.as_bytes(), &mut output).unwrap();
        let statuses = statuses_of(&String::from_utf8(output).unwrap());
        assert_eq!(
            statuses.get("end").map(String::as_str),
            Some("shutting-down")
        );
        assert!(
            !statuses.contains_key("late"),
            "lines after shutdown are not read"
        );
        assert!(svc.is_shutting_down());
        match svc.submit(Request::corpus("post", "mutex2-failstop-masking", 1)) {
            Reply::Error { code, message } => {
                assert_eq!(code, "shutting-down");
                assert!(message.contains("shutting down"));
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }
}
