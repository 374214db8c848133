//! Crash-recovery conformance against the *real* `ftsyn serve`
//! binary: fail-stop it at seeded crash points (`FTSYN_CRASH_POINT`)
//! and with genuine SIGKILL, restart it against the same
//! `--checkpoint-dir`, and assert the resumed outcomes are
//! byte-identical to uninterrupted runs across the 1/2/8 thread
//! matrix. Also smoke-tests the admission governor end to end: a
//! saturated daemon sheds with structured `overloaded` replies and
//! loses no request.

use ftsyn::SynthesisOutcome;
use ftsyn_service::json::{self, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_ftsyn");
const PROBLEM: &str = "mutex2-failstop-masking";
const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

/// A unique scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ftsyn-crashsim-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn_daemon(dir: &Path, extra_args: &[&str], crash_point: Option<&str>) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.arg("serve")
        .arg("--checkpoint-dir")
        .arg(dir)
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("FTSYN_CRASH_POINT");
    if let Some(point) = crash_point {
        cmd.env("FTSYN_CRASH_POINT", point);
    }
    cmd.spawn().expect("spawn ftsyn serve")
}

/// One whole daemon life: feed `input`, close stdin, wait for exit.
/// Returns (success, stdout lines as id→parsed object, raw stderr).
fn daemon_session(
    dir: &Path,
    extra_args: &[&str],
    crash_point: Option<&str>,
    input: &str,
) -> (bool, HashMap<String, Value>, String) {
    daemon_session_in_steps(dir, extra_args, crash_point, &[input])
}

/// [`daemon_session`] fed in `steps`: every step but the last is
/// written only after the daemon has answered each request of the
/// previous step. The daemon replies in completion order, so this is
/// how a test orders requests that would otherwise race (a listing and
/// a resume that claims the listed checkpoint).
fn daemon_session_in_steps(
    dir: &Path,
    extra_args: &[&str],
    crash_point: Option<&str>,
    steps: &[&str],
) -> (bool, HashMap<String, Value>, String) {
    let mut child = spawn_daemon(dir, extra_args, crash_point);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut lines = Vec::new();
    let (last, awaited) = steps.split_last().expect("at least one step");
    for step in awaited {
        stdin
            .write_all(step.as_bytes())
            .expect("write daemon stdin");
        stdin.flush().expect("flush daemon stdin");
        for _ in step.lines().filter(|l| !l.trim().is_empty()) {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("read daemon reply");
            lines.push(line);
        }
    }
    stdin
        .write_all(last.as_bytes())
        .expect("write daemon stdin");
    drop(stdin);
    lines.extend(stdout.lines().map(|l| l.expect("read daemon reply")));
    let out = child.wait_with_output().expect("wait for daemon");
    let mut replies = HashMap::new();
    for line in lines.iter().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"));
        let id = v.get("id").and_then(Value::as_str).unwrap().to_owned();
        replies.insert(id, v);
    }
    (
        out.status.success(),
        replies,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn status_of<'v>(replies: &'v HashMap<String, Value>, id: &str) -> &'v str {
    replies
        .get(id)
        .unwrap_or_else(|| panic!("no reply for {id}"))
        .get("status")
        .and_then(Value::as_str)
        .unwrap()
}

/// The program an uninterrupted in-process run produces — the
/// byte-identity baseline for every resumed daemon outcome.
fn direct_program() -> String {
    let mut problem = ftsyn_service::corpus::problem(PROBLEM).unwrap();
    match ftsyn::synthesize(&mut problem) {
        SynthesisOutcome::Solved(s) => {
            assert!(s.verification.ok());
            s.program.display(&problem.props).to_string()
        }
        other => panic!("direct run did not solve: {other:?}"),
    }
}

fn aborting_request(id: &str, threads: usize) -> String {
    format!(
        "{{\"id\":\"{id}\",\"op\":\"synthesize\",\"problem\":\"{PROBLEM}\",\
         \"threads\":{threads},\"budget\":{{\"max_states\":12}}}}\n"
    )
}

/// Restarts against `dir` and resumes checkpoint `from`; asserts the
/// listing offers it and the resumed program matches `expected`.
fn assert_restart_resumes(dir: &Path, from: &str, threads: usize, expected: &str) {
    // The listing is answered before the resume is sent: a resume in
    // flight could claim the checkpoint before the listing runs.
    let resume = format!(
        "{{\"id\":\"r2\",\"op\":\"resume\",\"from\":\"{from}\",\"threads\":{threads}}}\n\
         {{\"id\":\"end\",\"op\":\"shutdown\"}}\n"
    );
    let steps = [
        "{\"id\":\"ls\",\"op\":\"list-checkpoints\"}\n",
        resume.as_str(),
    ];
    let (ok, replies, stderr) = daemon_session_in_steps(dir, &[], None, &steps);
    assert!(ok, "restarted daemon exited abnormally: {stderr}");
    assert!(
        stderr.contains(&format!("recovered checkpoint \"{from}\"")),
        "recovery report missing from stderr: {stderr}"
    );
    let listing = replies.get("ls").unwrap();
    assert_eq!(status_of(&replies, "ls"), "checkpoints");
    let listing = listing.get("checkpoints").unwrap();
    let Value::Arr(rows) = listing else {
        panic!("checkpoints is not an array: {listing:?}")
    };
    assert_eq!(rows.len(), 1, "exactly the crashed checkpoint is offered");
    assert_eq!(rows[0].get("id").and_then(Value::as_str), Some(from));
    assert_eq!(
        rows[0].get("source").and_then(Value::as_str),
        Some(format!("corpus:{PROBLEM}").as_str())
    );
    assert_eq!(status_of(&replies, "r2"), "solved");
    assert_eq!(
        replies["r2"].get("program").and_then(Value::as_str),
        Some(expected),
        "threads={threads}: resumed program is not byte-identical"
    );
}

/// Crash after the checkpoint is fully committed (the window between
/// durability and the abort reply): the restarted daemon re-offers it
/// and the resume is byte-identical at every thread count.
#[test]
fn crash_after_commit_resumes_byte_identically_across_thread_matrix() {
    let expected = direct_program();
    for threads in THREAD_MATRIX {
        let scratch = Scratch::new("commit");
        let (ok, replies, stderr) = daemon_session(
            &scratch.0,
            &[],
            Some("ckpt-store-complete"),
            &aborting_request("r1", threads),
        );
        assert!(!ok, "the seeded crash point must fail-stop the daemon");
        assert!(
            stderr.contains("fail-stop at ckpt-store-complete"),
            "missing injection marker: {stderr}"
        );
        assert!(
            !replies.contains_key("r1"),
            "the daemon died before it could reply"
        );
        assert_restart_resumes(&scratch.0, "r1", threads, &expected);
    }
}

/// Crash before the record's rename: only a tmp file exists, which the
/// next life sweeps. Nothing is offered — and nothing is corrupt.
#[test]
fn crash_before_rename_leaves_a_clean_recoverable_store() {
    let scratch = Scratch::new("pre-rename");
    let (ok, _, _) = daemon_session(
        &scratch.0,
        &[],
        Some("ckpt-blob-pre-rename"),
        &aborting_request("r1", 2),
    );
    assert!(!ok);

    let input = format!(
        "{{\"id\":\"ls\",\"op\":\"list-checkpoints\"}}\n\
         {{\"id\":\"s\",\"op\":\"synthesize\",\"problem\":\"{PROBLEM}\",\"threads\":2}}\n"
    );
    let (ok, replies, stderr) = daemon_session(&scratch.0, &[], None, &input);
    assert!(ok, "restart failed: {stderr}");
    assert!(
        !stderr.contains("quarantined"),
        "a clean tmp sweep is not damage: {stderr}"
    );
    let Value::Arr(rows) = replies["ls"].get("checkpoints").unwrap() else {
        panic!()
    };
    assert!(
        rows.is_empty(),
        "a half-written checkpoint is never offered"
    );
    assert_eq!(
        status_of(&replies, "s"),
        "solved",
        "daemon fully functional"
    );
}

/// Crash between the blob rename and the index rewrite: the record is
/// an orphan the index never committed. Recovery adopts it and the
/// resume is still byte-identical.
#[test]
fn crash_between_blob_and_index_adopts_the_orphan() {
    let expected = direct_program();
    let scratch = Scratch::new("orphan");
    let (ok, _, _) = daemon_session(
        &scratch.0,
        &[],
        Some("ckpt-blob-durable"),
        &aborting_request("r1", 2),
    );
    assert!(!ok);
    assert_restart_resumes(&scratch.0, "r1", 2, &expected);
}

/// A torn record (truncated write from a dead filesystem, simulated by
/// seeding garbage under a record name) is quarantined with a
/// structured reason — never a crash, never silently accepted.
#[test]
fn torn_records_are_quarantined_not_fatal() {
    let scratch = Scratch::new("torn");
    std::fs::create_dir_all(&scratch.0).unwrap();
    let torn = scratch.0.join("ckpt-0000000000000001.blob");
    std::fs::write(&torn, b"FTSYNSTO then pure garbage").unwrap();

    let input = format!(
        "{{\"id\":\"ls\",\"op\":\"list-checkpoints\"}}\n\
         {{\"id\":\"s\",\"op\":\"synthesize\",\"problem\":\"{PROBLEM}\",\"threads\":2}}\n"
    );
    let (ok, replies, stderr) = daemon_session(&scratch.0, &[], None, &input);
    assert!(ok, "a torn record must not kill startup: {stderr}");
    assert!(
        stderr.contains("quarantined ckpt-0000000000000001.blob"),
        "structured quarantine report missing: {stderr}"
    );
    let Value::Arr(rows) = replies["ls"].get("checkpoints").unwrap() else {
        panic!()
    };
    assert!(rows.is_empty(), "torn records are never offered");
    assert_eq!(status_of(&replies, "s"), "solved");
    assert!(
        scratch
            .0
            .join("quarantine")
            .join("ckpt-0000000000000001.blob")
            .is_file(),
        "the torn record was moved aside for post-mortem"
    );
}

/// A real SIGKILL between requests: the first life parks a durable
/// checkpoint and answers, then dies without any shutdown handshake.
/// The next life resumes byte-identically.
#[test]
fn sigkill_between_requests_preserves_the_parked_checkpoint() {
    let expected = direct_program();
    let scratch = Scratch::new("kill9");
    let mut child = spawn_daemon(&scratch.0, &[], None);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    stdin
        .write_all(aborting_request("r1", 2).as_bytes())
        .unwrap();
    stdin.flush().unwrap();
    let mut reply = String::new();
    stdout.read_line(&mut reply).unwrap();
    let v = json::parse(&reply).unwrap();
    assert_eq!(v.get("status").and_then(Value::as_str), Some("aborted"));
    assert_eq!(v.get("resumable"), Some(&Value::Bool(true)));
    // No shutdown, no drain: the daemon is simply killed.
    child.kill().unwrap();
    child.wait().unwrap();
    assert_restart_resumes(&scratch.0, "r1", 2, &expected);
}

/// A real SIGKILL mid-build (no budget, no abort, nothing parked): the
/// next life recovers an empty store and serves normally — the crash
/// cost is only the lost work, never a wedged daemon.
#[test]
fn sigkill_mid_build_restarts_cleanly() {
    let scratch = Scratch::new("kill9-midbuild");
    let mut child = spawn_daemon(&scratch.0, &[], None);
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(
            b"{\"id\":\"big\",\"op\":\"synthesize\",\
              \"problem\":\"mutex4-failstop-masking\",\"threads\":2}\n",
        )
        .unwrap();
    stdin.flush().unwrap();
    // Give the build time to actually start before the kill.
    std::thread::sleep(Duration::from_millis(300));
    child.kill().unwrap();
    child.wait().unwrap();

    let input = format!(
        "{{\"id\":\"ls\",\"op\":\"list-checkpoints\"}}\n\
         {{\"id\":\"s\",\"op\":\"synthesize\",\"problem\":\"{PROBLEM}\",\"threads\":2}}\n"
    );
    let (ok, replies, stderr) = daemon_session(&scratch.0, &[], None, &input);
    assert!(ok, "restart after SIGKILL failed: {stderr}");
    let Value::Arr(rows) = replies["ls"].get("checkpoints").unwrap() else {
        panic!()
    };
    assert!(rows.is_empty(), "an unaborted build parks nothing");
    assert_eq!(status_of(&replies, "s"), "solved");
}

/// Overload smoke against the real binary: a 1-slot governor with no
/// queue sheds pipelined extra requests with structured `overloaded`
/// replies, answers every single id (zero lost), and never runs a
/// request twice.
#[test]
fn saturated_daemon_sheds_structured_and_loses_no_request() {
    let scratch = Scratch::new("overload");
    // The first request is slow enough to hold the slot while the
    // pipelined rest arrive.
    let mut input = String::from(
        "{\"id\":\"w0\",\"op\":\"synthesize\",\
         \"problem\":\"mutex3-failstop-masking\",\"threads\":2}\n",
    );
    for i in 1..6 {
        input.push_str(&format!(
            "{{\"id\":\"w{i}\",\"op\":\"synthesize\",\
             \"problem\":\"{PROBLEM}\",\"threads\":1}}\n"
        ));
    }
    input.push_str("{\"id\":\"end\",\"op\":\"shutdown\"}\n");
    let (ok, replies, stderr) = daemon_session(&scratch.0, &["--slots", "1"], None, &input);
    assert!(ok, "daemon exited abnormally: {stderr}");

    let mut solved = 0;
    let mut overloaded = 0;
    for i in 0..6 {
        match status_of(&replies, &format!("w{i}")) {
            "solved" => solved += 1,
            "overloaded" => {
                overloaded += 1;
                let hint = replies[&format!("w{i}")]
                    .get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .unwrap();
                assert!(hint >= 1, "shed replies carry a retry hint");
            }
            other => panic!("w{i}: unexpected status {other}"),
        }
    }
    assert_eq!(solved + overloaded, 6, "zero requests lost");
    assert!(solved >= 1, "the slot holder itself always runs");
    assert!(
        overloaded >= 1,
        "with one slot and six pipelined requests, shedding must kick in"
    );
    assert_eq!(status_of(&replies, "end"), "shutting-down");
    assert_eq!(
        replies["end"].get("mode").and_then(Value::as_str),
        Some("graceful")
    );
}
