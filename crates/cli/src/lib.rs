//! Problem-description files for the `ftsyn` command line.
//!
//! A `.ftsyn` file declares the processes, propositions, specification,
//! fault actions and required tolerance of a synthesis problem in a
//! line-oriented format:
//!
//! ```text
//! # Two-process mutual exclusion under fail-stop failures.
//! processes 2
//!
//! props P1: N1 T1 C1
//! aux   P1: D1
//! props P2: N2 T2 C2
//! aux   P2: D2
//!
//! init: N1 & N2
//! global: N1 -> (AX1 T1 & EX1 T1)
//! global: T1 -> AF C1
//! coupling: D1 <-> ~(N1 | T1 | C1)
//! coupling: D1 -> EG D1
//!
//! fault fail-P1: ~D1 -> D1 := true, N1 := false, T1 := false, C1 := false
//! fault repair-P1-N: D1 -> D1 := false, N1 := true
//!
//! tolerance masking            # uniform; or per fault:
//! tolerance fail-P1 = masking
//! mode fault-free              # or fault-prone (Section 8.3)
//! ```
//!
//! * `props Pk: a b c` registers propositions owned by (1-based) process
//!   `k`; `aux` registers auxiliary (fault-specification) propositions.
//! * `init:` / `global:` / `coupling:` lines hold CTL in the paper's
//!   surface syntax; multiple lines of the same kind are conjoined
//!   (at most 1,024 per kind). `global:` and `coupling:` lines are
//!   implicitly wrapped in `AG`.
//! * `fault NAME: GUARD -> ASSIGNMENTS` declares a fault action. The
//!   guard is propositional; assignments are `prop := true|false|?`
//!   (the `?` is the paper's nondeterministic choice).
//! * `tolerance` is `masking`, `nonmasking` or `failsafe`, either
//!   uniform or per fault name (multitolerance).

use ftsyn::ctl::{parse::parse, Formula, FormulaArena, FormulaId, Owner, PropTable, Spec};
use ftsyn::guarded::{BoolExpr, FaultAction, PropAssign};
use ftsyn::{Budget, Engine, SynthesisProblem, Tolerance, ToleranceAssignment};
use std::fmt;
use std::time::Duration;

/// The `ftsyn` usage banner, including the documented exit codes.
pub const USAGE: &str = "\
USAGE: ftsyn <problem.ftsyn> [--engine tableau|cegis] [--dot <out.dot>]
             [--quiet] [--no-program]
             [--timeout <secs>] [--max-states <n>] [--max-minimize-attempts <n>]
             [--minimize-threads <n>] [--checkpoint <out.ckpt>] [--resume <in.ckpt>]
       ftsyn serve [--checkpoint-dir <dir>] [--slots <n>] [--queue <n>]
             [--cache-max-entries <n>] [--cache-max-bytes <n>]

  --engine <name>   synthesis backend: `tableau` (default; the paper's
                    deletion pipeline) or `cegis` (bounded guess-verify
                    enumeration, cross-checked by the same oracle).
                    Both report the same exit codes; checkpoint/resume
                    is tableau-only
  --dot <out.dot>   write the synthesized model as Graphviz DOT
  --quiet           suppress statistics and verification output
  --no-program      do not print the extracted program
  --timeout <secs>  abort if synthesis exceeds the wall-clock deadline
  --max-states <n>  abort once the tableau reaches n nodes
  --max-minimize-attempts <n>
                    abort after n candidate-merge verifications during
                    semantic minimization
  --minimize-threads <n>
                    worker threads for semantic-minimization candidate
                    scans (default: the build thread count). The
                    minimized model is byte-identical for every value;
                    the flag only redistributes verification work
  --checkpoint <out.ckpt>
                    when a budget abort interrupts the tableau build,
                    write a resumable checkpoint blob to this path
                    (the run still exits 4)
  --resume <in.ckpt>
                    continue a checkpointed build under the new budget
                    instead of starting over. The problem file must be
                    the one that produced the checkpoint: the blob pins
                    a format version and a spec fingerprint, and a
                    mismatch is a structured refusal (exit 2). The
                    resumed run is byte-identical to an uninterrupted
                    one

The serve form runs the synthesis daemon: one JSON request per stdin
line ({\"id\", \"op\": synthesize|resume|cancel|list-checkpoints|
shutdown, ...}), one JSON response per stdout line, with an expansion
cache shared across requests and budget aborts parked as resumable
checkpoints. Budgets and thread counts are per-request protocol
fields; the daemon itself takes:

  --checkpoint-dir <dir>
                    persist checkpoints in <dir> (created if missing)
                    so they survive a daemon crash: on startup the
                    directory is recovered, validated checkpoints are
                    re-offered (see the list-checkpoints op) and
                    damaged files are quarantined under <dir>/quarantine
                    with the recovery report on stderr. An unusable
                    directory is a startup error (exit 2)
  --slots <n>       admit at most n concurrently running requests
                    (default: unlimited)
  --queue <n>       let up to n requests wait for a slot; beyond that
                    requests are shed with a structured `overloaded`
                    response and a retry_after_ms hint (default: 0)
  --cache-max-entries <n>, --cache-max-bytes <n>
                    cap each expansion-cache partition; oldest-admitted
                    entries are evicted first (default: unlimited)

Budget aborts are structured: the run stops at the next poll point and
reports the phase, the limit that tripped, and the partial statistics.
The state/attempt caps abort at deterministic work counters (the same
point at every thread count); only --timeout is wall-clock.

Exit codes:
  0  synthesis succeeded and the program verified
  1  impossible: no program satisfies the specification with the
     required tolerance
  2  usage, file, problem-description or checkpoint error
  3  a program was synthesized but mechanical verification failed
  4  aborted: a budget was exceeded before synthesis finished";

/// Parsed command line of the `ftsyn` binary.
#[derive(Debug, PartialEq, Eq)]
pub struct CliArgs {
    /// The problem-description file.
    pub file: String,
    /// `--dot <path>`: where to write the model as Graphviz DOT.
    pub dot_out: Option<String>,
    /// `--quiet`: suppress statistics and verification output.
    pub quiet: bool,
    /// Absent `--no-program`: print the extracted program.
    pub show_program: bool,
    /// Resource budget from `--timeout` / `--max-states` /
    /// `--max-minimize-attempts` (unlimited when none given).
    pub budget: Budget,
    /// `--minimize-threads <n>`: worker threads for the minimization
    /// candidate scan (`None` = follow the build thread count).
    pub minimize_threads: Option<usize>,
    /// `--checkpoint <path>`: where to write the resumable checkpoint
    /// blob if a budget abort interrupts the tableau build.
    pub checkpoint_out: Option<String>,
    /// `--resume <path>`: checkpoint blob to continue from instead of
    /// building from scratch.
    pub resume: Option<String>,
    /// `--engine <name>`: which synthesis backend to run.
    pub engine: Engine,
}

/// Parsed options of the `ftsyn serve` daemon form.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ServeArgs {
    /// `--checkpoint-dir <dir>`: durable checkpoint store directory.
    pub checkpoint_dir: Option<String>,
    /// `--slots <n>`: concurrently running requests (`None` =
    /// unlimited).
    pub slots: Option<usize>,
    /// `--queue <n>`: requests allowed to wait for a slot before load
    /// shedding begins (default 0).
    pub queue: usize,
    /// `--cache-max-entries <n>`: per-partition expansion-cache entry
    /// cap.
    pub cache_max_entries: Option<usize>,
    /// `--cache-max-bytes <n>`: per-partition expansion-cache byte cap.
    pub cache_max_bytes: Option<usize>,
}

/// What the command line asks for: a synthesis run, the service loop,
/// or just the usage banner (`--help`/`-h`).
#[derive(Debug, PartialEq, Eq)]
pub enum CliCommand {
    /// Run synthesis with the parsed options.
    Run(Box<CliArgs>),
    /// Run the line-delimited JSON daemon on stdin/stdout.
    Serve(Box<ServeArgs>),
    /// Print [`USAGE`] and exit 0.
    Help,
}

/// Parses the binary's arguments (without the leading program name).
///
/// # Errors
///
/// Returns a usage message (exit code 2 territory) for a missing file,
/// an unknown flag, or a `--dot` that is not followed by a path — in
/// particular `--dot --quiet` is rejected rather than silently writing
/// a file named `--quiet`.
pub fn parse_args(args: &[String]) -> Result<CliCommand, String> {
    if args.first().map(String::as_str) == Some("serve") {
        return parse_serve_args(&args[1..]);
    }
    let mut file = None;
    let mut dot_out = None;
    let mut quiet = false;
    let mut show_program = true;
    let mut budget = Budget::default();
    let mut minimize_threads = None;
    let mut checkpoint_out = None;
    let mut resume = None;
    let mut engine = Engine::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dot" => {
                i += 1;
                match args.get(i) {
                    None => return Err("--dot requires a path".into()),
                    Some(p) if p.starts_with("--") => {
                        return Err(format!(
                            "--dot requires a path, found flag `{p}` \
                             (use `--dot ./{p}` for a file really named `{p}`)"
                        ));
                    }
                    Some(p) => dot_out = Some(p.clone()),
                }
            }
            "--quiet" => quiet = true,
            "--no-program" => show_program = false,
            "--timeout" => {
                let v = value_of("--timeout", &mut i, args)?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--timeout expects seconds, got `{v}`"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("--timeout expects non-negative seconds, got `{v}`"));
                }
                budget.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--max-states" => {
                let v = value_of("--max-states", &mut i, args)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-states expects a count, got `{v}`"))?;
                budget.max_states = Some(n);
            }
            "--max-minimize-attempts" => {
                let v = value_of("--max-minimize-attempts", &mut i, args)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-minimize-attempts expects a count, got `{v}`"))?;
                budget.max_minimize_attempts = Some(n);
            }
            "--minimize-threads" => {
                let v = value_of("--minimize-threads", &mut i, args)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--minimize-threads expects a thread count, got `{v}`"))?;
                if n == 0 {
                    return Err("--minimize-threads expects at least 1 thread".into());
                }
                minimize_threads = Some(n);
            }
            "--engine" => {
                let v = value_of("--engine", &mut i, args)?;
                engine = Engine::parse(&v)
                    .ok_or_else(|| format!("unknown engine `{v}` (expected tableau or cegis)"))?;
            }
            "--checkpoint" => {
                checkpoint_out = Some(value_of("--checkpoint", &mut i, args)?);
            }
            "--resume" => {
                resume = Some(value_of("--resume", &mut i, args)?);
            }
            "--help" | "-h" => return Ok(CliCommand::Help),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            other if file.is_none() => file = Some(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let Some(file) = file else {
        return Err(USAGE.to_owned());
    };
    if engine == Engine::Cegis && (resume.is_some() || checkpoint_out.is_some()) {
        return Err(
            "--checkpoint/--resume are tableau-only (the CEGIS engine has no checkpoint format)"
                .into(),
        );
    }
    Ok(CliCommand::Run(Box::new(CliArgs {
        file,
        dot_out,
        quiet,
        show_program,
        budget,
        minimize_threads,
        checkpoint_out,
        resume,
        engine,
    })))
}

/// Fetches the value of a value-taking flag, rejecting a following
/// flag so `--max-states --quiet` errors instead of parsing garbage.
fn value_of(flag: &str, i: &mut usize, args: &[String]) -> Result<String, String> {
    *i += 1;
    match args.get(*i) {
        None => Err(format!("{flag} requires a value")),
        Some(v) if v.starts_with("--") => Err(format!("{flag} requires a value, found flag `{v}`")),
        Some(v) => Ok(v.clone()),
    }
}

/// Parses the arguments after `serve`.
fn parse_serve_args(args: &[String]) -> Result<CliCommand, String> {
    let mut serve = ServeArgs::default();
    let count_of = |flag: &str, i: &mut usize| -> Result<usize, String> {
        let v = value_of(flag, i, args)?;
        v.parse()
            .map_err(|_| format!("{flag} expects a count, got `{v}`"))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--checkpoint-dir" => {
                serve.checkpoint_dir = Some(value_of("--checkpoint-dir", &mut i, args)?);
            }
            "--slots" => {
                let n = count_of("--slots", &mut i)?;
                if n == 0 {
                    return Err("--slots expects at least 1 worker slot".into());
                }
                serve.slots = Some(n);
            }
            "--queue" => serve.queue = count_of("--queue", &mut i)?,
            "--cache-max-entries" => {
                serve.cache_max_entries = Some(count_of("--cache-max-entries", &mut i)?);
            }
            "--cache-max-bytes" => {
                serve.cache_max_bytes = Some(count_of("--cache-max-bytes", &mut i)?);
            }
            "--help" | "-h" => return Ok(CliCommand::Help),
            other => {
                return Err(format!(
                    "unknown serve argument `{other}` (budgets and thread \
                     counts are per-request protocol fields)"
                ));
            }
        }
        i += 1;
    }
    if serve.queue > 0 && serve.slots.is_none() {
        return Err("--queue only makes sense with --slots (unlimited slots never queue)".into());
    }
    Ok(CliCommand::Serve(Box::new(serve)))
}

/// Error while reading a problem description.
#[derive(Debug)]
pub struct FileError {
    /// 1-based line number (0 = file-level).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for FileError {}

/// Most formula lines one `init:`/`global:`/`coupling:` section may
/// hold. A section folds into one right-nested conjunction, so every
/// line adds a level to the formula the recursive passes walk. With the
/// CTL parser's own 256-level nesting cap, this bounds a spec's
/// formula height far below what overflows a 2 MiB worker stack (a
/// section of about 4,500 lines does).
const MAX_SECTION_LINES: usize = 1024;

fn err(line: usize, message: impl Into<String>) -> FileError {
    FileError {
        line,
        message: message.into(),
    }
}

/// Parses a `.ftsyn` problem description into a [`SynthesisProblem`].
///
/// # Errors
///
/// Returns a [`FileError`] pinpointing the offending line.
pub fn parse_problem(input: &str) -> Result<SynthesisProblem, FileError> {
    // Pass 1: find the process count (needed before any formula parses).
    let mut n_procs = None;
    for (ln, raw) in input.lines().enumerate() {
        let line = strip_comment(raw);
        if let Some(rest) = line.strip_prefix("processes") {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|_| err(ln + 1, "expected `processes <count>`"))?;
            if n == 0 {
                return Err(err(ln + 1, "at least one process is required"));
            }
            n_procs = Some(n);
        }
    }
    let n_procs = n_procs.ok_or_else(|| err(0, "missing `processes <count>` declaration"))?;

    let mut props = PropTable::new();
    let mut arena = FormulaArena::new(n_procs);
    let mut init: Vec<FormulaId> = Vec::new();
    let mut global: Vec<FormulaId> = Vec::new();
    let mut coupling: Vec<FormulaId> = Vec::new();
    let mut faults: Vec<FaultAction> = Vec::new();
    let mut uniform_tol: Option<Tolerance> = None;
    let mut per_fault_tol: Vec<(String, Tolerance)> = Vec::new();
    let mut fault_prone = false;

    // Pass 2a: register propositions (before formulas reference them).
    for (ln, raw) in input.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let aux = line.starts_with("aux");
        if aux || line.starts_with("props") {
            let rest = line
                .strip_prefix(if aux { "aux" } else { "props" })
                .expect("prefix checked");
            let (proc_part, names) = rest
                .split_once(':')
                .ok_or_else(|| err(ln + 1, "expected `props P<k>: name …`"))?;
            let proc_part = proc_part.trim();
            let owner = if proc_part.eq_ignore_ascii_case("env") {
                Owner::Env
            } else {
                let k: usize = proc_part
                    .trim_start_matches(['P', 'p'])
                    .parse()
                    .map_err(|_| err(ln + 1, format!("bad process `{proc_part}`")))?;
                if k == 0 || k > n_procs {
                    return Err(err(
                        ln + 1,
                        format!("process {k} out of range 1..={n_procs}"),
                    ));
                }
                Owner::Process(k - 1)
            };
            for name in names.split_whitespace() {
                let r = if aux {
                    props.add_aux(name, owner)
                } else {
                    props.add(name, owner)
                };
                r.map_err(|e| err(ln + 1, e.to_string()))?;
            }
        }
    }

    // Pass 2b: everything else.
    for (ln, raw) in input.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty()
            || line.starts_with("processes")
            || line.starts_with("props")
            || line.starts_with("aux")
        {
            continue;
        }
        let section = match line.split_once(':') {
            Some(("init", rest)) => Some(("init", &mut init, rest)),
            Some(("global", rest)) => Some(("global", &mut global, rest)),
            Some(("coupling", rest)) => Some(("coupling", &mut coupling, rest)),
            _ => None,
        };
        if let Some((name, lines, rest)) = section {
            if lines.len() == MAX_SECTION_LINES {
                return Err(err(
                    ln + 1,
                    format!("more than {MAX_SECTION_LINES} `{name}:` lines"),
                ));
            }
            let f = parse(&mut arena, &mut props, rest, false)
                .map_err(|e| err(ln + 1, e.to_string()))?;
            lines.push(f);
        } else if let Some(rest) = line.strip_prefix("fault") {
            faults.push(parse_fault(ln + 1, rest, &mut arena, &mut props)?);
        } else if let Some(rest) = line.strip_prefix("tolerance") {
            let rest = rest.trim();
            if let Some((name, tol)) = rest.split_once('=') {
                per_fault_tol.push((name.trim().to_owned(), parse_tol(ln + 1, tol.trim())?));
            } else {
                uniform_tol = Some(parse_tol(ln + 1, rest)?);
            }
        } else if let Some(rest) = line.strip_prefix("mode") {
            match rest.trim() {
                "fault-free" => fault_prone = false,
                "fault-prone" => fault_prone = true,
                other => return Err(err(ln + 1, format!("unknown mode `{other}`"))),
            }
        } else {
            return Err(err(ln + 1, format!("unrecognized directive: `{line}`")));
        }
    }

    if init.is_empty() {
        return Err(err(0, "missing `init:`"));
    }
    if global.is_empty() {
        return Err(err(0, "missing `global:`"));
    }
    let init = arena.and_all(init);
    let global = arena.and_all(global);
    let coupling = arena.and_all(coupling);
    let spec = Spec::with_coupling(init, global, coupling);
    let base_tol = uniform_tol.unwrap_or(Tolerance::Masking);
    let mut problem = SynthesisProblem::new(arena, props, spec, faults, base_tol);
    if !per_fault_tol.is_empty() {
        let mut tols = vec![base_tol; problem.faults.len()];
        for (name, tol) in per_fault_tol {
            let i = problem
                .faults
                .iter()
                .position(|f| f.name() == name)
                .ok_or_else(|| err(0, format!("tolerance for unknown fault `{name}`")))?;
            tols[i] = tol;
        }
        problem.tolerance = ToleranceAssignment::PerFault(tols);
    }
    if fault_prone {
        problem = problem.with_fault_prone_correctness();
    }
    Ok(problem)
}

fn strip_comment(raw: &str) -> &str {
    match raw.find('#') {
        Some(i) => raw[..i].trim(),
        None => raw.trim(),
    }
}

fn parse_tol(line: usize, s: &str) -> Result<Tolerance, FileError> {
    match s.to_ascii_lowercase().as_str() {
        "masking" => Ok(Tolerance::Masking),
        "nonmasking" => Ok(Tolerance::Nonmasking),
        "failsafe" | "fail-safe" => Ok(Tolerance::FailSafe),
        other => Err(err(line, format!("unknown tolerance `{other}`"))),
    }
}

/// Parses `NAME: GUARD -> assign, assign, …`.
fn parse_fault(
    line: usize,
    rest: &str,
    arena: &mut FormulaArena,
    props: &mut PropTable,
) -> Result<FaultAction, FileError> {
    let (name, body) = rest
        .split_once(':')
        .ok_or_else(|| err(line, "expected `fault NAME: guard -> assignments`"))?;
    let name = name.trim();
    let (guard_src, assigns_src) = body
        .split_once("->")
        .ok_or_else(|| err(line, "expected `guard -> assignments`"))?;
    let guard_f = parse(arena, props, guard_src, false).map_err(|e| err(line, e.to_string()))?;
    let guard = formula_to_boolexpr(arena, guard_f)
        .ok_or_else(|| err(line, "fault guards must be propositional"))?;
    let mut assigns = Vec::new();
    for part in assigns_src.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (lhs, rhs) = part
            .split_once(":=")
            .ok_or_else(|| err(line, format!("expected `prop := value` in `{part}`")))?;
        let p = props.id(lhs.trim()).map_err(|e| err(line, e.to_string()))?;
        let v = match rhs.trim() {
            "true" | "1" => PropAssign::True,
            "false" | "0" => PropAssign::False,
            "?" => PropAssign::NonDet,
            other => return Err(err(line, format!("bad assignment value `{other}`"))),
        };
        assigns.push((p, v));
    }
    FaultAction::new(name, guard, assigns).map_err(|e| err(line, e.to_string()))
}

/// Converts a propositional formula to a guard expression; `None` if it
/// contains temporal modalities.
fn formula_to_boolexpr(arena: &FormulaArena, f: FormulaId) -> Option<BoolExpr> {
    Some(match arena.get(f) {
        Formula::True => BoolExpr::Const(true),
        Formula::False => BoolExpr::Const(false),
        Formula::Prop(p) => BoolExpr::Prop(p),
        Formula::NegProp(p) => BoolExpr::not_prop(p),
        Formula::And(a, b) => BoolExpr::And(vec![
            formula_to_boolexpr(arena, a)?,
            formula_to_boolexpr(arena, b)?,
        ]),
        Formula::Or(a, b) => BoolExpr::Or(vec![
            formula_to_boolexpr(arena, a)?,
            formula_to_boolexpr(arena, b)?,
        ]),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn::synthesize;

    const MINI: &str = r#"
# a one-process toggler
processes 1
props P1: on off
init: off & ~on
global: (on <-> ~off) & (on -> AX1 off) & (off -> AX1 on) & AG EX true
tolerance masking
"#;

    #[test]
    fn minimal_file_parses_and_synthesizes() {
        let mut p = parse_problem(MINI).expect("parses");
        let s = synthesize(&mut p).unwrap_solved();
        assert!(s.verification.ok(), "{:?}", s.verification.failures);
        assert_eq!(s.program.processes.len(), 1);
    }

    #[test]
    fn faults_and_per_fault_tolerance_parse() {
        let src = r#"
processes 1
props P1: on off
aux P1: broken
init: off & ~on & ~broken
global: (on <-> ~off) & (on -> AX1 off) & (off -> AX1 on) & AG EX true
coupling: broken -> AX1 broken
fault break: ~broken & on -> broken := true
tolerance masking
tolerance break = nonmasking
"#;
        let p = parse_problem(src).expect("parses");
        assert_eq!(p.faults.len(), 1);
        assert_eq!(p.tolerance.of(0), Tolerance::Nonmasking);
    }

    #[test]
    fn nondet_assignment_parses() {
        let src = r#"
processes 1
props P1: x y
init: x & ~y
global: (x <-> ~y) & AG EX1 true & (x -> AX1 y) & (y -> AX1 x)
fault scramble: true -> x := ?, y := ?
tolerance nonmasking
"#;
        let p = parse_problem(src).expect("parses");
        assert_eq!(p.faults[0].assigns().len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "processes 1\nprops P1: a\ninit: a\nglobal: a\nbogus directive\n";
        let e = parse_problem(bad).unwrap_err();
        assert_eq!(e.line, 5);

        let bad2 = "processes 1\nprops P1: a\ninit: a\nglobal: a\nfault f: AF a -> a := true\n";
        let e2 = parse_problem(bad2).unwrap_err();
        assert!(e2.message.contains("propositional"), "{e2}");
    }

    #[test]
    fn missing_sections_rejected() {
        assert!(parse_problem("props P1: a\n")
            .unwrap_err()
            .message
            .contains("processes"));
        assert!(parse_problem("processes 1\nprops P1: a\nglobal: a\n")
            .unwrap_err()
            .message
            .contains("init"));
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn args_parse_the_documented_form() {
        let cmd = parse_args(&argv(&["p.ftsyn", "--dot", "out.dot", "--quiet"])).unwrap();
        assert_eq!(
            cmd,
            CliCommand::Run(Box::new(CliArgs {
                file: "p.ftsyn".into(),
                dot_out: Some("out.dot".into()),
                quiet: true,
                show_program: true,
                budget: Budget::default(),
                minimize_threads: None,
                checkpoint_out: None,
                resume: None,
                engine: Engine::Tableau,
            }))
        );
        assert_eq!(parse_args(&argv(&["--help"])).unwrap(), CliCommand::Help);
        assert_eq!(parse_args(&argv(&["-h"])).unwrap(), CliCommand::Help);
    }

    #[test]
    fn serve_subcommand_parses_and_rejects_arguments() {
        assert_eq!(
            parse_args(&argv(&["serve"])).unwrap(),
            CliCommand::Serve(Box::default())
        );
        let e = parse_args(&argv(&["serve", "--quiet"])).unwrap_err();
        assert!(e.contains("unknown serve argument"), "{e}");
        // A file literally named `serve` is unreachable positionally —
        // spell it with a path prefix like the --dot escape hatch.
        let cmd = parse_args(&argv(&["./serve"])).unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.file, "./serve");
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let cmd = parse_args(&argv(&[
            "serve",
            "--checkpoint-dir",
            "/tmp/ckpts",
            "--slots",
            "2",
            "--queue",
            "4",
            "--cache-max-entries",
            "1000",
            "--cache-max-bytes",
            "1048576",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            CliCommand::Serve(Box::new(ServeArgs {
                checkpoint_dir: Some("/tmp/ckpts".into()),
                slots: Some(2),
                queue: 4,
                cache_max_entries: Some(1000),
                cache_max_bytes: Some(1048576),
            }))
        );
        for bad in [
            vec!["serve", "--checkpoint-dir"],
            vec!["serve", "--slots", "0"],
            vec!["serve", "--slots", "many"],
            vec!["serve", "--queue", "4"], // queue without slots
            vec!["serve", "--cache-max-entries", "--slots"],
            vec!["serve", "p.ftsyn"],
        ] {
            assert!(
                parse_args(&argv(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert_eq!(
            parse_args(&argv(&["serve", "--help"])).unwrap(),
            CliCommand::Help
        );
    }

    #[test]
    fn checkpoint_and_resume_flags_parse_and_validate() {
        let cmd = parse_args(&argv(&[
            "p.ftsyn",
            "--max-states",
            "100",
            "--checkpoint",
            "out.ckpt",
        ]))
        .unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.checkpoint_out.as_deref(), Some("out.ckpt"));
        assert_eq!(a.resume, None);

        let cmd = parse_args(&argv(&["p.ftsyn", "--resume", "in.ckpt"])).unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.resume.as_deref(), Some("in.ckpt"));

        for bad in [
            vec!["p.ftsyn", "--checkpoint"],
            vec!["p.ftsyn", "--checkpoint", "--quiet"],
            vec!["p.ftsyn", "--resume"],
            vec!["p.ftsyn", "--resume", "--max-states"],
        ] {
            assert!(
                parse_args(&argv(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn budget_flags_parse() {
        let cmd = parse_args(&argv(&[
            "p.ftsyn",
            "--timeout",
            "2.5",
            "--max-states",
            "5000",
            "--max-minimize-attempts",
            "100",
        ]))
        .unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.budget.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(a.budget.max_states, Some(5000));
        assert_eq!(a.budget.max_minimize_attempts, Some(100));
        assert!(!a.budget.is_unlimited());
        // No budget flags → unlimited.
        let cmd = parse_args(&argv(&["p.ftsyn"])).unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert!(a.budget.is_unlimited());
    }

    #[test]
    fn minimize_threads_flag_parses_and_validates() {
        let cmd = parse_args(&argv(&["p.ftsyn", "--minimize-threads", "8"])).unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.minimize_threads, Some(8));
        // Absent → follow the build thread count.
        let cmd = parse_args(&argv(&["p.ftsyn"])).unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.minimize_threads, None);
        // Zero threads cannot scan anything.
        let e = parse_args(&argv(&["p.ftsyn", "--minimize-threads", "0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        for bad in [
            vec!["p.ftsyn", "--minimize-threads"],
            vec!["p.ftsyn", "--minimize-threads", "some"],
            vec!["p.ftsyn", "--minimize-threads", "--quiet"],
            vec!["p.ftsyn", "--minimize-threads", "1.5"],
        ] {
            assert!(
                parse_args(&argv(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn budget_flags_reject_garbage() {
        for bad in [
            vec!["p.ftsyn", "--timeout", "soon"],
            vec!["p.ftsyn", "--timeout", "-1"],
            vec!["p.ftsyn", "--timeout"],
            vec!["p.ftsyn", "--max-states", "many"],
            vec!["p.ftsyn", "--max-states", "--quiet"],
            vec!["p.ftsyn", "--max-minimize-attempts", "1.5"],
        ] {
            assert!(
                parse_args(&argv(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn dot_rejects_a_following_flag() {
        // Regression: `--dot --quiet` used to write a file literally
        // named `--quiet` and drop the quiet flag.
        let e = parse_args(&argv(&["p.ftsyn", "--dot", "--quiet"])).unwrap_err();
        assert!(e.contains("--dot requires a path"), "{e}");
        assert!(e.contains("--quiet"), "{e}");
        let e2 = parse_args(&argv(&["p.ftsyn", "--dot"])).unwrap_err();
        assert!(e2.contains("requires a path"), "{e2}");
        // The documented escape hatch still reaches a dashed filename.
        let cmd = parse_args(&argv(&["p.ftsyn", "--dot", "./--quiet"])).unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.dot_out.as_deref(), Some("./--quiet"));
        assert!(!a.quiet);
    }

    #[test]
    fn unknown_flags_and_extra_files_are_usage_errors() {
        assert!(parse_args(&argv(&["p.ftsyn", "--bogus"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_args(&argv(&["a.ftsyn", "b.ftsyn"]))
            .unwrap_err()
            .contains("unexpected argument"));
        assert_eq!(parse_args(&[]).unwrap_err(), USAGE);
    }

    #[test]
    fn engine_flag_parses_and_validates() {
        // Default is the tableau pipeline.
        let cmd = parse_args(&argv(&["p.ftsyn"])).unwrap();
        let CliCommand::Run(a) = cmd else { panic!() };
        assert_eq!(a.engine, Engine::Tableau);
        for (name, engine) in [("tableau", Engine::Tableau), ("cegis", Engine::Cegis)] {
            let cmd = parse_args(&argv(&["p.ftsyn", "--engine", name])).unwrap();
            let CliCommand::Run(a) = cmd else { panic!() };
            assert_eq!(a.engine, engine, "--engine {name}");
        }
        // Unknown engines are usage errors (exit 2), not fallbacks.
        let e = parse_args(&argv(&["p.ftsyn", "--engine", "magic"])).unwrap_err();
        assert!(e.contains("unknown engine `magic`"), "{e}");
        assert!(e.contains("tableau"), "{e}");
        for bad in [
            vec!["p.ftsyn", "--engine"],
            vec!["p.ftsyn", "--engine", "--quiet"],
        ] {
            assert!(
                parse_args(&argv(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn cegis_engine_rejects_checkpointing() {
        for bad in [
            vec!["p.ftsyn", "--engine", "cegis", "--resume", "in.ckpt"],
            vec!["p.ftsyn", "--engine", "cegis", "--checkpoint", "out.ckpt"],
        ] {
            let e = parse_args(&argv(&bad)).unwrap_err();
            assert!(e.contains("tableau-only"), "{bad:?}: {e}");
        }
        // Order independence: flag after the checkpoint option.
        let e = parse_args(&argv(&[
            "p.ftsyn", "--resume", "in.ckpt", "--engine", "cegis",
        ]))
        .unwrap_err();
        assert!(e.contains("tableau-only"), "{e}");
    }

    #[test]
    fn usage_documents_the_engine_flag() {
        assert!(USAGE.contains("--engine"), "USAGE must document --engine");
        assert!(USAGE.contains("cegis"), "USAGE must name the cegis engine");
    }

    #[test]
    fn usage_documents_every_exit_code() {
        for code in ["0 ", "1 ", "2 ", "3 ", "4 "] {
            assert!(
                USAGE.lines().any(|l| l.trim_start().starts_with(code)),
                "exit code {code} undocumented in USAGE"
            );
        }
    }

    #[test]
    fn mode_directive_switches_certificates() {
        let src = "processes 1\nprops P1: a\ninit: a\nglobal: AG EX1 true\nmode fault-prone\n";
        let p = parse_problem(src).expect("parses");
        assert_eq!(p.mode, ftsyn::CertMode::FaultProne);
    }

    /// A daemon worker parses an inline spec and runs the pipeline on a
    /// 2 MiB thread. A spec with every section at the line cap, its last
    /// line at the CTL parser's 256-level nesting cap, must come back
    /// from there under either engine; one line more is a `bad-spec`
    /// naming its section. The other lines are all discharged by `idle`,
    /// so only formula height is under test.
    #[test]
    fn section_line_cap_keeps_specs_within_a_worker_stack() {
        use ftsyn_service::{ProblemSource, Reply, Request, Service};
        let mut lines = vec!["idle".to_owned()];
        for a in 0..40 {
            for b in a + 1..40 {
                for c in b + 1..40 {
                    lines.push(format!("idle | q{a} | q{b} | q{c}"));
                }
            }
        }
        lines.truncate(MAX_SECTION_LINES - 1);
        lines.push(
            (0..255)
                .map(|i| format!("q{} | ", i % 40))
                .collect::<String>()
                + "idle",
        );
        let props: Vec<String> = (0..40).map(|i| format!("q{i}")).collect();
        let mut spec = format!("processes 1\nprops P1: idle {}\n", props.join(" "));
        for section in ["init", "global", "coupling"] {
            for line in &lines {
                spec += &format!("{section}: {line}\n");
            }
        }
        let submit = |spec: String, engine: Engine| {
            let service = Service::new().with_spec_parser(Box::new(|text: &str| {
                parse_problem(text).map_err(|e| e.to_string())
            }));
            let request = Request {
                id: "deep".to_owned(),
                source: ProblemSource::Spec(spec),
                threads: 1,
                budget: None,
                engine,
            };
            let worker = std::thread::Builder::new().stack_size(2 << 20);
            worker
                .spawn(move || service.submit(request))
                .unwrap()
                .join()
                .unwrap()
        };
        let reply = submit(spec.clone(), Engine::Tableau);
        assert!(matches!(reply, Reply::Solved { .. }), "{reply:?}");
        // CEGIS's bounded search finds no program here; it then builds
        // the tableau certificate, finds the spec satisfiable and aborts.
        let reply = submit(spec.clone(), Engine::Cegis);
        assert!(
            matches!(&reply, Reply::Aborted { phase, .. } if phase == "cegis"),
            "{reply:?}"
        );
        for section in ["init", "global", "coupling"] {
            let over = format!("{spec}{section}: idle | q0\n");
            let expected = format!("more than {MAX_SECTION_LINES} `{section}:` lines");
            match submit(over, Engine::Tableau) {
                Reply::Error { code, message } if code == "bad-spec" => {
                    assert!(message.contains(&expected), "{message}")
                }
                other => panic!("{section}: {other:?}"),
            }
        }
    }
}
