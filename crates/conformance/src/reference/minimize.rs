//! The minimization oracle: the pre-optimization greedy engine that
//! `ftsyn::semantic_minimize` replaced, kept verbatim. It scans the
//! same candidate merges in the same order but pays one full semantic
//! verification per candidate, with no round labeling, transfer
//! calculus, closure prune or rejection replay. The fast engine must
//! commit the same merge sequence: byte-identical model, identical
//! mapping, identical attempt and merge counts, and the same abort
//! point under an attempt cap.

use ftsyn::kripke::{FtKripke, KripkeBuilder, PropSet, StateId, StateRole};
use ftsyn::{verify_semantic_ok, Governor, MinimizeAbort, MinimizeProfile, SynthesisProblem};
use std::collections::HashMap;

/// `m` with state `from` merged into state `into` (edges redirected,
/// `from` removed), plus the old→new state mapping, built through an
/// explicit id map. The oracle for `FtKripke::merged`, which computes
/// the same structure arithmetically.
pub fn merged(m: &FtKripke, from: StateId, into: StateId) -> (FtKripke, Vec<StateId>) {
    let mut out = KripkeBuilder::new();
    // Old id -> new id (from maps to into's new id).
    let mut map: HashMap<StateId, StateId> = HashMap::new();
    for s in m.state_ids() {
        if s == from {
            continue;
        }
        let n = out.push_state(m.state(s).clone());
        map.insert(s, n);
    }
    map.insert(from, map[&into]);
    // Source by source in new id order: the merged state takes `into`'s
    // and `from`'s edges, in old id order.
    let mut sources: Vec<StateId> = m.state_ids().collect();
    sources.sort_by_key(|s| map[s]);
    for s in sources {
        let ns = map[&s];
        for e in m.succ(s) {
            out.add_edge(ns, e.kind, map[&e.to]);
        }
    }
    for &i in m.init_states() {
        out.add_init(map[&i]);
    }
    let mapping = m.state_ids().map(|s| map[&s]).collect();
    (out.freeze(), mapping)
}

/// Reference form of `ftsyn::semantic_minimize`: same model,
/// same mapping, same attempts/merges counters, one full candidate
/// verification per attempt.
pub fn semantic_minimize_reference(
    problem: &mut SynthesisProblem,
    model: FtKripke,
) -> (FtKripke, Vec<StateId>, MinimizeProfile) {
    minimize_core(problem, model, None)
        .unwrap_or_else(|a| panic!("ungoverned minimize aborted: {}", a.reason))
}

/// Reference form of `ftsyn::semantic_minimize_governed` (the attempt
/// cap and the deadline/cancel flag are polled before every candidate
/// verification).
pub fn semantic_minimize_reference_governed(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    gov: &Governor,
) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
    minimize_core(problem, model, Some(gov))
}

fn minimize_core(
    problem: &mut SynthesisProblem,
    model: FtKripke,
    gov: Option<&Governor>,
) -> Result<(FtKripke, Vec<StateId>, MinimizeProfile), MinimizeAbort> {
    let mut profile = MinimizeProfile::default();
    let mut model = model;
    let mut total_map: Vec<StateId> = model.state_ids().collect();
    'outer: loop {
        let roles = model.classify();
        let mut group_index: HashMap<(PropSet, bool), usize> = HashMap::new();
        let mut groups: Vec<Vec<StateId>> = Vec::new();
        for s in model.state_ids() {
            let normal = roles[s.index()] == StateRole::Normal;
            let key = (model.props(s).clone(), normal);
            let gi = *group_index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[gi].push(s);
        }
        let mut candidates: Vec<(StateId, StateId)> = Vec::new();
        for members in &groups {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    candidates.push((b, a)); // merge later copy into earlier
                }
            }
        }
        for (from, into) in candidates {
            if let Some(g) = gov {
                if let Err(reason) = g
                    .check_minimize_attempts(profile.attempts)
                    .and_then(|()| g.check_realtime())
                {
                    return Err(MinimizeAbort { reason, profile });
                }
            }
            let (cand, step_map) = merged(&model, from, into);
            profile.attempts += 1;
            // Early-exit verdict: same predicates as `verify_semantic`,
            // but a rejected candidate stops at its first violation.
            if verify_semantic_ok(problem, &cand) {
                profile.merges += 1;
                model = cand;
                for t in total_map.iter_mut() {
                    *t = step_map[t.index()];
                }
                continue 'outer;
            }
        }
        break;
    }
    Ok((model, total_map, profile))
}
