//! Service-path conformance: requests answered by the shared-cache
//! daemon must be byte-identical to direct [`ftsyn::synthesize`] calls
//! — cold, warm, concurrent, through abort→resume hops, and across the
//! differential fuzzer's generated problems routed through the inline
//! spec path.

use ftsyn::{
    synthesize, synthesize_with_engine, Budget, Engine, SynthesisOutcome, SynthesisProblem,
    ThreadPlan,
};
use ftsyn_conformance::differential::THREAD_MATRIX;
use ftsyn_conformance::generate::random_problem;
use ftsyn_prng::XorShift64;
use ftsyn_service::json::{self, Value};
use ftsyn_service::{corpus, handle_line, serve, Reply, Request, Service};
use std::time::{Duration, Instant};

/// What a direct, ungoverned, in-process run of `problem` produces, in
/// the exact fields the service reports.
struct Direct {
    states: usize,
    transitions: usize,
    program: String,
    solved: bool,
}

fn direct(mut problem: SynthesisProblem) -> Direct {
    match synthesize(&mut problem) {
        SynthesisOutcome::Solved(s) => {
            assert!(s.verification.ok(), "direct run failed verification");
            Direct {
                states: s.stats.model_states,
                transitions: s.stats.program_transitions,
                program: s.program.display(&problem.props).to_string(),
                solved: true,
            }
        }
        SynthesisOutcome::Impossible(_) => Direct {
            states: 0,
            transitions: 0,
            program: String::new(),
            solved: false,
        },
        SynthesisOutcome::Aborted(a) => panic!("direct ungoverned run aborted: {}", a.reason),
    }
}

/// Asserts a service reply matches the direct run of the same problem,
/// byte for byte on the program text.
fn assert_matches(context: &str, reply: &Reply, expected: &Direct) {
    match reply {
        // A program that failed verification answers `Unverified`.
        Reply::Solved {
            states,
            transitions,
            program,
            ..
        } => {
            assert!(expected.solved, "{context}: service solved, direct did not");
            assert_eq!(*states, expected.states, "{context}: state count");
            assert_eq!(
                *transitions, expected.transitions,
                "{context}: transition count"
            );
            assert_eq!(
                *program, expected.program,
                "{context}: service program diverged from the direct run"
            );
        }
        Reply::Impossible => {
            assert!(
                !expected.solved,
                "{context}: service says impossible, direct run solved"
            );
        }
        other => panic!("{context}: unexpected reply {other:?}"),
    }
}

/// A warmed shared cache changes hit counters, never result bytes:
/// the second identical request must report nonzero hits, zero misses,
/// and a program byte-identical to both the cold request and a direct
/// in-process run.
#[test]
fn warm_cache_requests_are_byte_identical_to_cold_and_direct_runs() {
    let svc = Service::new();
    for name in ["mutex2-failstop-masking", "barrier2-nonmasking"] {
        let expected = direct(corpus::problem(name).expect("corpus name"));
        let cold = svc.submit(Request::corpus(&format!("{name}-cold"), name, 2));
        let warm = svc.submit(Request::corpus(&format!("{name}-warm"), name, 2));
        assert_matches(&format!("{name} cold"), &cold, &expected);
        assert_matches(&format!("{name} warm"), &warm, &expected);
        let Reply::Solved {
            cache_hits: cold_hits,
            cache_misses: cold_misses,
            ..
        } = cold
        else {
            unreachable!()
        };
        let Reply::Solved {
            cache_hits: warm_hits,
            cache_misses: warm_misses,
            ..
        } = warm
        else {
            unreachable!()
        };
        assert_eq!(cold_hits, 0, "{name}: a cold cache cannot hit");
        assert!(cold_misses > 0, "{name}: a cold build must miss");
        assert!(warm_hits > 0, "{name}: a warmed cache must hit");
        assert_eq!(warm_misses, 0, "{name}: a fully warmed cache cannot miss");
    }
}

/// Every corpus problem submitted concurrently against one shared
/// service — interleaving cache fills and reads across worker threads —
/// answers byte-identically to its own direct run.
#[test]
fn concurrent_requests_against_one_service_match_direct_synthesis() {
    // mutex4 is the long pole; keep the fast families and submit each
    // twice so same-family requests race on the shared cache.
    let names = [
        "mutex2-failstop-masking",
        "mutex3-failstop-masking",
        "multitolerance-mutex3-P1-nonmasking",
        "barrier2-nonmasking",
        "readers-writers-1R-writer-failstop",
        "philosophers3-fault-free",
    ];
    let expected: Vec<Direct> = names
        .iter()
        .map(|n| direct(corpus::problem(n).expect("corpus name")))
        .collect();

    let svc = Service::new();
    let replies: Vec<(String, Reply)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for round in 0..2 {
            for (i, name) in names.iter().enumerate() {
                let svc = &svc;
                let threads = THREAD_MATRIX[(round + i) % THREAD_MATRIX.len()];
                handles.push(scope.spawn(move || {
                    let id = format!("{name}-r{round}");
                    let reply = svc.submit(Request::corpus(&id, name, threads));
                    (id, reply)
                }));
            }
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(replies.len(), 2 * names.len());
    for (id, reply) in &replies {
        let i = names
            .iter()
            .position(|n| id.starts_with(n))
            .expect("id names its case");
        assert_matches(id, reply, &expected[i]);
    }
    let (entries, _) = svc.cache_entries();
    assert!(entries > 0, "the shared cache must have been populated");
}

/// Service-path resume identity: a request aborted at a state cap and
/// resumed through the service's checkpoint store yields the same
/// bytes as the direct run, at every thread count.
#[test]
fn service_resume_is_byte_identical_to_direct_runs_at_every_thread_count() {
    let name = "mutex3-failstop-masking";
    let expected = direct(corpus::problem(name).expect("corpus name"));
    for &threads in &THREAD_MATRIX {
        // A fresh service per thread count keeps every run cold, so the
        // comparison pins resume identity, not cache warmth.
        let svc = Service::new();
        let id = format!("abort-{threads}");
        let reply = svc.submit(Request::corpus(&id, name, threads).with_budget(Budget {
            max_states: Some(400),
            ..Budget::unlimited()
        }));
        let Reply::Aborted {
            phase, resumable, ..
        } = reply
        else {
            panic!("expected an abort at cap 400, got {reply:?}")
        };
        assert_eq!(phase, "build");
        assert!(resumable, "build aborts must leave a checkpoint");
        let resumed = svc.resume(&format!("resume-{threads}"), &id, threads, None);
        assert_matches(
            &format!("{name} resumed at {threads} threads"),
            &resumed,
            &expected,
        );
    }
}

/// A slice of the differential fuzzer's seed space routed through the
/// service's inline-spec path: the injected parser maps a seed string
/// to the generated problem, and every reply must match the direct run
/// — including the seeds whose specification is impossible.
#[test]
fn fuzz_seeds_through_the_service_match_direct_runs() {
    let svc = Service::new().with_spec_parser(Box::new(|text: &str| {
        let seed: u64 = text
            .trim()
            .parse()
            .map_err(|e| format!("not a seed: {e}"))?;
        Ok(random_problem(&mut XorShift64::new(seed)).problem)
    }));

    let seeds: Vec<u64> = (1..=10).collect();
    let expected: Vec<Direct> = seeds
        .iter()
        .map(|&s| direct(random_problem(&mut XorShift64::new(s)).problem))
        .collect();
    let mut solved = 0;
    let mut impossible = 0;

    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let svc = &svc;
                let threads = THREAD_MATRIX[i % THREAD_MATRIX.len()];
                scope.spawn(move || {
                    svc.submit(Request {
                        id: format!("seed-{seed}"),
                        source: ftsyn_service::ProblemSource::Spec(seed.to_string()),
                        threads,
                        budget: None,
                        engine: Engine::default(),
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((seed, reply), exp) in seeds.iter().zip(&replies).zip(&expected) {
        assert_matches(&format!("seed {seed}"), reply, exp);
        match exp.solved {
            true => solved += 1,
            false => impossible += 1,
        }
    }
    // The slice must exercise both outcomes, or the comparison is weaker
    // than it claims.
    assert!(solved > 0, "no fuzz seed in the slice solved");
    assert!(impossible > 0, "no fuzz seed in the slice was impossible");
}

/// What a direct, ungoverned CEGIS run of `problem` produces.
fn direct_cegis(mut problem: SynthesisProblem) -> Direct {
    match synthesize_with_engine(&mut problem, Engine::Cegis, ThreadPlan::uniform(1), None) {
        SynthesisOutcome::Solved(s) => {
            assert!(s.verification.ok(), "direct CEGIS run failed verification");
            Direct {
                states: s.stats.model_states,
                transitions: s.stats.program_transitions,
                program: s.program.display(&problem.props).to_string(),
                solved: true,
            }
        }
        SynthesisOutcome::Impossible(_) => Direct {
            states: 0,
            transitions: 0,
            program: String::new(),
            solved: false,
        },
        SynthesisOutcome::Aborted(a) => panic!("direct ungoverned CEGIS run aborted: {}", a.reason),
    }
}

/// The same inline-spec seed slice routed through the service with
/// `engine: cegis`: every reply must be byte-identical to a direct
/// CEGIS run of the generated problem, and the solved/impossible split
/// must match the tableau engine's split seed by seed.
#[test]
fn fuzz_seeds_through_the_service_cegis_engine_match_direct_cegis_runs() {
    let svc = Service::new().with_spec_parser(Box::new(|text: &str| {
        let seed: u64 = text
            .trim()
            .parse()
            .map_err(|e| format!("not a seed: {e}"))?;
        Ok(random_problem(&mut XorShift64::new(seed)).problem)
    }));

    let seeds: Vec<u64> = (1..=10).collect();
    let expected: Vec<Direct> = seeds
        .iter()
        .map(|&s| direct_cegis(random_problem(&mut XorShift64::new(s)).problem))
        .collect();
    let tableau_split: Vec<bool> = seeds
        .iter()
        .map(|&s| direct(random_problem(&mut XorShift64::new(s)).problem).solved)
        .collect();

    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let svc = &svc;
                let threads = THREAD_MATRIX[i % THREAD_MATRIX.len()];
                scope.spawn(move || {
                    svc.submit(Request {
                        id: format!("cegis-seed-{seed}"),
                        source: ftsyn_service::ProblemSource::Spec(seed.to_string()),
                        threads,
                        budget: None,
                        engine: Engine::Cegis,
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (((seed, reply), exp), &tableau_solved) in seeds
        .iter()
        .zip(&replies)
        .zip(&expected)
        .zip(&tableau_split)
    {
        assert_matches(&format!("cegis seed {seed}"), reply, exp);
        assert_eq!(
            exp.solved, tableau_solved,
            "seed {seed}: the engines disagree on solvability"
        );
        if let Reply::Solved {
            cache_hits,
            cache_misses,
            ..
        } = reply
        {
            assert_eq!(*cache_hits, 0, "seed {seed}: CEGIS bypasses the cache");
            assert_eq!(*cache_misses, 0, "seed {seed}: CEGIS bypasses the cache");
        }
    }
}

/// One serve-pipe request per engine over the wire protocol: both
/// solve the same corpus problem, the CEGIS reply carries zero cache
/// counters, and a wire-level `engine:"cegis"` resume is rejected.
#[test]
fn serve_pipe_answers_one_request_per_engine() {
    let svc = Service::new();
    let input = concat!(
        r#"{"id":"t1","op":"synthesize","problem":"mutex2-failstop-masking","threads":1,"engine":"tableau"}"#,
        "\n",
        r#"{"id":"c1","op":"synthesize","problem":"mutex2-failstop-masking","threads":1,"engine":"cegis"}"#,
        "\n",
        r#"{"id":"bad","op":"synthesize","problem":"mutex2-failstop-masking","engine":"magic"}"#,
        "\n",
        r#"{"id":"r1","op":"resume","from":"t1","engine":"cegis"}"#,
        "\n",
        r#"{"id":"end","op":"shutdown"}"#,
        "\n",
    );
    let mut output = Vec::new();
    serve(&svc, input.as_bytes(), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let mut by_id = std::collections::HashMap::new();
    for line in text.lines() {
        let v = json::parse(line).unwrap();
        by_id.insert(v.get("id").and_then(Value::as_str).unwrap().to_owned(), v);
    }

    let expected = direct_cegis(corpus::problem("mutex2-failstop-masking").expect("corpus name"));
    for id in ["t1", "c1"] {
        let v = &by_id[id];
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("solved"),
            "{id}"
        );
        assert_eq!(v.get("verified"), Some(&Value::Bool(true)), "{id}");
    }
    assert_eq!(
        by_id["c1"].get("program").and_then(Value::as_str),
        Some(expected.program.as_str()),
        "the wire CEGIS program must match a direct CEGIS run"
    );
    assert_eq!(
        by_id["c1"].get("cache_hits").and_then(Value::as_u64),
        Some(0)
    );
    assert_eq!(
        by_id["c1"].get("cache_misses").and_then(Value::as_u64),
        Some(0)
    );

    let bad = by_id["bad"].get("message").and_then(Value::as_str).unwrap();
    assert!(bad.contains("unknown engine"), "{bad}");
    let r1 = by_id["r1"].get("message").and_then(Value::as_str).unwrap();
    assert!(r1.contains("tableau-only"), "{r1}");
}

/// Hostile nesting gets a structured reply, and the daemon answers the
/// lines after it instead of overflowing a stack: a line of 50,000 `[`
/// (parsed on the reader thread) is a `bad-request`, and an inline
/// spec whose `init:` formula is wrapped in 10,000 parentheses (parsed
/// on a worker thread by the CLI's spec parser) is a `bad-spec`.
#[test]
fn deeply_nested_requests_are_refused_and_the_daemon_keeps_serving() {
    let svc = Service::new().with_spec_parser(Box::new(|text: &str| {
        ftsyn_cli::parse_problem(text).map_err(|e| e.to_string())
    }));
    let spec = include_str!("../../../specs/reset_task.ftsyn");
    let deep_init = format!(
        "init: {}idle & ~cnt0{}",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    let deep_spec = spec.replace("init: idle & ~cnt0", &deep_init);
    assert_ne!(deep_spec, spec, "the spec's init line moved");
    let input = [
        "[".repeat(50_000),
        json::ObjBuilder::new()
            .str("id", "deep")
            .str("op", "synthesize")
            .str("spec", &deep_spec)
            .build(),
        r#"{"id":"next","op":"synthesize","problem":"mutex2-failstop-masking","threads":1}"#.into(),
        r#"{"id":"end","op":"shutdown"}"#.into(),
    ]
    .join("\n");
    let mut output = Vec::new();
    serve(&svc, input.as_bytes(), &mut output).unwrap();
    let replies: Vec<Value> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| json::parse(line).unwrap())
        .collect();
    let field = |id: &str, k: &str| {
        let reply = replies
            .iter()
            .find(|v| v.get("id").and_then(Value::as_str) == Some(id));
        reply
            .and_then(|v| v.get(k))
            .and_then(Value::as_str)
            .unwrap_or_default()
    };
    assert_eq!(field("", "code"), "bad-request", "{replies:?}");
    assert!(
        field("", "message").contains("nesting deeper than"),
        "{replies:?}"
    );
    assert_eq!(field("deep", "code"), "bad-spec", "{replies:?}");
    assert!(
        field("deep", "message").contains("nested deeper than"),
        "{replies:?}"
    );
    assert_eq!(field("next", "status"), "solved");
    assert_eq!(field("end", "status"), "shutting-down");
}

/// A deep formula built from many short lines, not deep text: an
/// inline spec with 9,880 distinct satisfiable `init:` lines folds into
/// one conjunction too tall for a worker's 2 MiB stack, so the spec
/// parser refuses it with a `bad-spec` naming the section, and the
/// daemon answers the lines after it.
#[test]
fn specs_with_too_many_section_lines_are_refused_and_the_daemon_keeps_serving() {
    let svc = Service::new().with_spec_parser(Box::new(|text: &str| {
        ftsyn_cli::parse_problem(text).map_err(|e| e.to_string())
    }));
    let props: Vec<String> = (0..40).map(|i| format!("q{i}")).collect();
    let mut spec = format!(
        "processes 1\nprops P1: idle {}\ninit: idle\n",
        props.join(" ")
    );
    for (a, pa) in props.iter().enumerate() {
        for (b, pb) in props.iter().enumerate().skip(a + 1) {
            for pc in props.iter().skip(b + 1) {
                spec.push_str(&format!("init: idle | {pa} | {pb} | {pc}\n"));
            }
        }
    }
    assert_eq!(spec.matches("init: idle |").count(), 9_880);
    spec.push_str("global: EX1 true\n");
    let input = [
        json::ObjBuilder::new()
            .str("id", "wide")
            .str("op", "synthesize")
            .str("spec", &spec)
            .build(),
        r#"{"id":"next","op":"synthesize","problem":"mutex2-failstop-masking","threads":1}"#.into(),
        r#"{"id":"end","op":"shutdown"}"#.into(),
    ]
    .join("\n");
    let mut output = Vec::new();
    serve(&svc, input.as_bytes(), &mut output).unwrap();
    let replies: Vec<Value> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| json::parse(line).unwrap())
        .collect();
    let field = |id: &str, k: &str| {
        let reply = replies
            .iter()
            .find(|v| v.get("id").and_then(Value::as_str) == Some(id));
        reply
            .and_then(|v| v.get(k))
            .and_then(Value::as_str)
            .unwrap_or_default()
    };
    assert_eq!(field("wide", "code"), "bad-spec", "{replies:?}");
    assert!(
        field("wide", "message").contains("`init:` lines"),
        "{replies:?}"
    );
    assert_eq!(field("next", "status"), "solved", "{replies:?}");
    assert_eq!(field("end", "status"), "shutting-down", "{replies:?}");
}

/// A deadline stops a build stuck inside one node's exponential
/// `Blocks` expansion: the probe spec's root expansion alone runs for
/// minutes, yet the request answers `aborted` after its 1 s deadline and
/// the daemon serves the lines after it.
#[test]
fn a_deadline_stops_an_exponential_expansion_and_the_daemon_keeps_serving() {
    let svc = Service::new().with_spec_parser(Box::new(|text: &str| {
        ftsyn_cli::parse_problem(text).map_err(|e| e.to_string())
    }));
    let spec = include_str!("../../cli/tests/data/blocks_blowup.ftsyn");
    let input = [
        json::ObjBuilder::new()
            .str("id", "blowup")
            .str("op", "synthesize")
            .str("spec", spec)
            .raw("budget", r#"{"deadline_ms":1000}"#)
            .build(),
        r#"{"id":"next","op":"synthesize","problem":"mutex2-failstop-masking","threads":1}"#.into(),
        r#"{"id":"end","op":"shutdown"}"#.into(),
    ]
    .join("\n");
    let start = Instant::now();
    let mut output = Vec::new();
    serve(&svc, input.as_bytes(), &mut output).unwrap();
    let replies: Vec<Value> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| json::parse(line).unwrap())
        .collect();
    let field = |id: &str, k: &str| {
        let reply = replies
            .iter()
            .find(|v| v.get("id").and_then(Value::as_str) == Some(id));
        reply
            .and_then(|v| v.get(k))
            .and_then(Value::as_str)
            .unwrap_or_default()
    };
    assert_eq!(field("blowup", "status"), "aborted", "{replies:?}");
    assert_eq!(field("blowup", "phase"), "build", "{replies:?}");
    assert!(
        field("blowup", "reason").contains("deadline"),
        "{replies:?}"
    );
    assert_eq!(field("next", "status"), "solved", "{replies:?}");
    assert_eq!(field("end", "status"), "shutting-down", "{replies:?}");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "the pipe took {:?}",
        start.elapsed()
    );
}

/// `solved` always means re-checked: with no guard-refinement rounds
/// allowed, step 5 cannot repair multitolerance-mutex3's extracted
/// program, and the daemon answers `unverified` with the failed checks
/// in `why` instead of shipping the program as `solved`.
#[test]
fn a_program_that_fails_its_recheck_answers_unverified() {
    let svc = Service::new();
    let line = handle_line(
        &svc,
        r#"{"id":"gap","op":"synthesize","problem":"multitolerance-mutex3-P1-nonmasking","budget":{"max_extract_refine_rounds":0}}"#,
    );
    let v = json::parse(&line).unwrap();
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("unverified"),
        "{line}"
    );
    let why = v.get("why").and_then(Value::as_str).unwrap_or_default();
    assert!(why.contains("extraction_gap"), "{line}");
    assert_eq!(v.get("verified"), None, "{line}");
    assert_eq!(v.get("program"), None, "{line}");
}
