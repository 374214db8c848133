//! `ftsyn` — synthesize a fault-tolerant concurrent program from a
//! problem-description file.
//!
//! ```text
//! USAGE: ftsyn <problem.ftsyn> [--engine tableau|cegis] [--dot <out.dot>]
//!              [--quiet] [--no-program]
//!              [--timeout <secs>] [--max-states <n>] [--max-minimize-attempts <n>]
//!              [--minimize-threads <n>] [--checkpoint <out.ckpt>] [--resume <in.ckpt>]
//!        ftsyn serve [--checkpoint-dir <dir>] [--slots <n>] [--queue <n>]
//!              [--cache-max-entries <n>] [--cache-max-bytes <n>]
//! ```

use ftsyn::kripke::StateRole;
use ftsyn::{CacheLimits, Checkpoint, Engine, Governor, SynthesisOutcome, ThreadPlan};
use ftsyn_cli::{parse_args, CliArgs, CliCommand, ServeArgs, USAGE};
use ftsyn_service::admission::AdmissionConfig;
use std::process::ExitCode;

/// Runs the stdin/stdout JSON daemon, with the CLI's problem-file
/// parser injected for inline `"spec"` requests.
fn run_serve(args: ServeArgs) -> ExitCode {
    let mut service = ftsyn_service::Service::new().with_spec_parser(Box::new(|text: &str| {
        ftsyn_cli::parse_problem(text).map_err(|e| e.to_string())
    }));
    if let Some(slots) = args.slots {
        service = service.with_admission(AdmissionConfig::bounded(slots, args.queue));
    }
    if args.cache_max_entries.is_some() || args.cache_max_bytes.is_some() {
        service = service.with_cache_limits(CacheLimits {
            max_entries: args.cache_max_entries,
            max_bytes: args.cache_max_bytes,
        });
    }
    if let Some(dir) = &args.checkpoint_dir {
        service = match service.with_checkpoint_dir(std::path::Path::new(dir)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: {e}");
                return ExitCode::from(2);
            }
        };
        // The recovery report goes to stderr: stdout carries only
        // protocol lines.
        if let Some(recovery) = service.recovery() {
            for rec in &recovery.recovered {
                eprintln!(
                    "recovered checkpoint \"{}\" ({} nodes); resume with \
                     {{\"op\":\"resume\",\"from\":\"{}\"}}",
                    rec.id, rec.nodes, rec.id
                );
            }
            for (name, reason) in &recovery.quarantined {
                eprintln!("quarantined {name}: {reason}");
            }
            for note in &recovery.notes {
                eprintln!("recovery: {note}");
            }
        }
    }
    let stdin = std::io::stdin();
    match ftsyn_service::serve(&service, stdin.lock(), std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let CliArgs {
        file,
        dot_out,
        quiet,
        show_program,
        budget,
        minimize_threads,
        checkpoint_out,
        resume,
        engine,
    } = match parse_args(&args) {
        Ok(CliCommand::Run(a)) => *a,
        Ok(CliCommand::Serve(a)) => return run_serve(*a),
        Ok(CliCommand::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut problem = match ftsyn_cli::parse_problem(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::from(2);
        }
    };

    // An unlimited budget takes the ungoverned (byte-identical) path;
    // any budget flag switches to the governed pipeline. Either way the
    // minimization scan gets its own thread budget when asked for one.
    let build_threads = ftsyn::default_threads();
    let plan = ThreadPlan {
        build: build_threads,
        minimize: minimize_threads.unwrap_or(build_threads),
    };
    let gov = (!budget.is_unlimited()).then(|| Governor::with_budget(budget));
    let outcome = match resume {
        None => ftsyn::synthesize_with_engine(&mut problem, engine, plan, gov.as_ref()),
        Some(ck_path) => {
            let blob = match std::fs::read(&ck_path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read checkpoint {ck_path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let ck = match Checkpoint::decode(&blob) {
                Ok(ck) => ck,
                Err(e) => {
                    eprintln!("cannot resume from {ck_path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match ftsyn::synthesize_resume(&mut problem, plan, gov.as_ref(), ck) {
                Ok(outcome) => outcome,
                // The blob pins a spec fingerprint; a mismatch means
                // this is not the problem that produced it.
                Err(e) => {
                    eprintln!("cannot resume from {ck_path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    match outcome {
        SynthesisOutcome::Solved(s) => {
            if !quiet {
                let roles = s.model.classify();
                let count = |r: StateRole| roles.iter().filter(|x| **x == r).count();
                println!(
                    "solved: {} states (normal {}, perturbed {}, recovery {}), \
                     {} program + {} fault transitions, {:.1?}",
                    s.stats.model_states,
                    count(StateRole::Normal),
                    count(StateRole::Perturbed),
                    count(StateRole::Recovery),
                    s.stats.program_transitions,
                    s.stats.fault_transitions,
                    s.stats.elapsed
                );
                let st = &s.stats;
                if engine == Engine::Cegis {
                    let p = &st.cegis_profile;
                    println!(
                        "cegis: solved at queue bound {} of {} tried, \
                         {} candidates ({} oracle-rejected), \
                         universe {} valuations ({} banned by the fault cascade), \
                         peak base graph {} states, \
                         extract {:.1?}, verify {:.1?}",
                        p.solved_at_bound.unwrap_or(0),
                        p.max_bound_tried + 1,
                        p.candidates,
                        p.oracle_rejections,
                        p.universe,
                        p.banned,
                        p.peak_base_states,
                        st.extract_time,
                        st.verify_time
                    );
                } else {
                    let idle_total: std::time::Duration = st.build_profile.worker_idle.iter().sum();
                    println!(
                        "phases: build {:.1?} ({} levels, peak frontier {}, {} threads, \
                     {} batches, {} steals, idle {:.1?}, \
                     {} intern probes in {:.1?}, apply {:.1?}, commit cpu {}, \
                     {} blocks leaves ({} plain, {} reordered), cache {}/{} hits), \
                     delete {:.1?} ({} rounds, {} worklist pops, {} certs built, {} reused), \
                     unravel {:.1?}, minimize {:.1?} ({} merges of {} tried, \
                     {} pruned, {} full checks, {} replayed, \
                     {} base labelings, {} threads), \
                     extract {:.1?} ({} shared vars, {} explored vs {} model states, \
                     {} off-model, {} arcs refined in {} rounds, extraction {}), \
                     verify {:.1?}, other {:.1?}",
                        st.build_time,
                        st.build_profile.levels,
                        st.build_profile.max_frontier,
                        st.build_profile.threads,
                        st.build_profile.batches,
                        st.build_profile.steals,
                        idle_total,
                        st.build_profile.intern_probes,
                        st.build_profile.intern_time,
                        st.build_profile.apply_time,
                        st.build_profile
                            .commit_cpu
                            .map_or("n/a".to_owned(), |t| format!("{t:.1?}")),
                        st.build_profile.blocks_leaves,
                        st.build_profile.blocks_plain,
                        st.build_profile.blocks_reordered,
                        st.build_profile.cache_hits,
                        st.build_profile.cache_hits + st.build_profile.cache_misses,
                        st.deletion_time,
                        st.deletion_profile.rounds,
                        st.deletion_profile.worklist_pops,
                        st.deletion_profile.cert_builds,
                        st.deletion_profile.cert_reuses,
                        st.unravel_time,
                        st.minimize_time,
                        st.minimize_profile.merges,
                        st.minimize_profile.attempts,
                        st.minimize_profile.pruned_candidates,
                        st.minimize_profile.full_checks,
                        st.minimize_profile.replayed,
                        st.minimize_profile.base_labelings,
                        st.minimize_profile.threads,
                        st.extract_time,
                        st.extract_profile.shared_vars,
                        st.extract_profile.explored_states,
                        st.extract_profile.model_states,
                        st.extract_profile.off_model_states,
                        st.extract_profile.refined_arcs,
                        st.extract_profile.refinement_rounds,
                        if st.extract_profile.verified {
                            "VERIFIED"
                        } else {
                            "REJECTED"
                        },
                        st.verify_time,
                        st.residual_time
                    );
                }
                println!(
                    "verification: {}",
                    if s.verification.ok() {
                        "PASS".to_owned()
                    } else {
                        format!(
                            "FAIL — {}",
                            s.verification
                                .failures
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join("; ")
                        )
                    }
                );
            }
            if show_program {
                println!("{}", s.program.display(&problem.props));
            }
            if let Some(path) = dot_out {
                if let Err(e) = std::fs::write(&path, s.model.to_dot(&problem.props)) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
                if !quiet {
                    println!("model written to {path}");
                }
            }
            if s.verification.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        SynthesisOutcome::Impossible(imp) => {
            println!(
                "impossible: no program satisfies the specification with the \
                 required tolerance (tableau {} nodes, {} deleted, {:.1?})",
                imp.stats.tableau_nodes,
                imp.stats.deletion.total(),
                imp.stats.elapsed
            );
            println!(
                "phases: build {:.1?}, delete {:.1?} ({} rounds, {} worklist pops)",
                imp.stats.build_time,
                imp.stats.deletion_time,
                imp.stats.deletion_profile.rounds,
                imp.stats.deletion_profile.worklist_pops
            );
            ExitCode::from(1)
        }
        SynthesisOutcome::Aborted(a) => {
            println!("aborted in {} phase: {}", a.phase, a.reason);
            println!(
                "partial stats: tableau {} nodes, build {:.1?}, delete {:.1?} \
                 ({} worklist pops, {} certs built), unravel {:.1?}, \
                 minimize {:.1?} ({} merges of {} tried), elapsed {:.1?}",
                a.stats.tableau_nodes,
                a.stats.build_time,
                a.stats.deletion_time,
                a.stats.deletion_profile.worklist_pops,
                a.stats.deletion_profile.cert_builds,
                a.stats.unravel_time,
                a.stats.minimize_time,
                a.stats.minimize_profile.merges,
                a.stats.minimize_profile.attempts,
                a.stats.elapsed
            );
            for f in &a.failures {
                println!("failure: {f}");
            }
            if let Some(path) = checkpoint_out {
                match &a.checkpoint {
                    Some(ck) => {
                        if let Err(e) = std::fs::write(&path, ck.encode()) {
                            eprintln!("cannot write checkpoint {path}: {e}");
                            return ExitCode::from(2);
                        }
                        println!("checkpoint written to {path} (resume with --resume {path})");
                    }
                    None => {
                        eprintln!(
                            "no checkpoint captured: the abort happened in the {} phase, \
                             and only the tableau build is checkpointable",
                            a.phase
                        );
                    }
                }
            }
            ExitCode::from(4)
        }
    }
}
