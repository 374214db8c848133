//! The paper's fault-class library (Section 2.3), expressed as
//! [`FaultAction`] constructors.
//!
//! Covered classes: stuck-at (with repair and bounded-count variants),
//! omission, timing, fail-stop with repair (Section 6.1), and general
//! state faults (Section 6.2). General state faults are modeled as one
//! action per local state of the victim process — i.e. every combination
//! of truth values of the process's propositions that corresponds to a
//! local state — which is how the paper's barrier-synchronization example
//! uses them (the tableau would delete any perturbed state whose
//! valuation matches no local state of any extractable program).

use crate::action::{FaultAction, PropAssign};
use crate::expr::BoolExpr;
use ftsyn_ctl::PropId;

/// The stuck-at-low-voltage fault of the wire example:
/// `¬broken → broken := true`.
pub fn stuck_at_low(broken: PropId) -> FaultAction {
    FaultAction::new(
        "stuck-at-low",
        BoolExpr::not_prop(broken),
        vec![(broken, PropAssign::True)],
    )
    .expect("valid by construction")
}

/// Repair of the wire: `broken → broken := false`. Together with
/// [`stuck_at_low`] this models intermittent stuck-at faults.
pub fn stuck_at_repair(broken: PropId) -> FaultAction {
    FaultAction::new(
        "stuck-at-repair",
        BoolExpr::Prop(broken),
        vec![(broken, PropAssign::False)],
    )
    .expect("valid by construction")
}

/// Bounded stuck-at: at most `k` occurrences, counted in unary by the
/// auxiliary propositions `count_props[0..k]` (the paper's
/// `brokencount < k` strengthening, with the counter encoded as
/// auxiliary atomic propositions as footnote 2 prescribes).
///
/// Returns one action per remaining budget level: action `j` fires when
/// exactly `j` previous faults have occurred.
///
/// # Panics
///
/// Panics if `count_props` is empty.
pub fn stuck_at_low_bounded(broken: PropId, count_props: &[PropId]) -> Vec<FaultAction> {
    assert!(!count_props.is_empty(), "need at least one counter bit");
    let k = count_props.len();
    (0..k)
        .map(|j| {
            // Guard: ¬broken ∧ count = j (unary: first j bits set).
            let mut conj = vec![BoolExpr::not_prop(broken)];
            for (i, &c) in count_props.iter().enumerate() {
                if i < j {
                    conj.push(BoolExpr::Prop(c));
                } else {
                    conj.push(BoolExpr::not_prop(c));
                }
            }
            FaultAction::new(
                format!("stuck-at-low[{j}]"),
                BoolExpr::And(conj),
                vec![
                    (broken, PropAssign::True),
                    (count_props[j], PropAssign::True),
                ],
            )
            .expect("valid by construction")
        })
        .collect()
}

/// Omission fault: a buffer loses its content,
/// `is_full → is_full := false`.
pub fn omission(is_full: PropId) -> FaultAction {
    FaultAction::new(
        "omission",
        BoolExpr::Prop(is_full),
        vec![(is_full, PropAssign::False)],
    )
    .expect("valid by construction")
}

/// Timing fault: access to a buffer's content is delayed. Two actions:
/// `is_full → is_full := false, is_delayed := true` and
/// `¬is_full ∧ is_delayed → is_full := true, is_delayed := false`.
pub fn timing(is_full: PropId, is_delayed: PropId) -> Vec<FaultAction> {
    vec![
        FaultAction::new(
            "timing-delay",
            BoolExpr::Prop(is_full),
            vec![(is_full, PropAssign::False), (is_delayed, PropAssign::True)],
        )
        .expect("valid by construction"),
        FaultAction::new(
            "timing-release",
            BoolExpr::And(vec![
                BoolExpr::not_prop(is_full),
                BoolExpr::Prop(is_delayed),
            ]),
            vec![(is_full, PropAssign::True), (is_delayed, PropAssign::False)],
        )
        .expect("valid by construction"),
    ]
}

/// Fail-stop of a process (Section 6.1): truthifies the auxiliary
/// "down" proposition `d` and falsifies all of the process's local
/// propositions. Guarded on the process being up.
pub fn fail_stop(proc_name: &str, local_props: &[PropId], d: PropId) -> FaultAction {
    let mut assigns = vec![(d, PropAssign::True)];
    for &p in local_props {
        assigns.push((p, PropAssign::False));
    }
    FaultAction::new(
        format!("fail-stop-{proc_name}"),
        BoolExpr::not_prop(d),
        assigns,
    )
    .expect("valid by construction")
}

/// Repair of a fail-stopped process into the local state `target`
/// (Section 6.1 uses one repair action per local state). `extra_guard`
/// lets the caller restrict when the repair may occur — the paper's
/// footnote 11 guards repair-into-`Cᵢ` on mutual exclusion not being
/// violated.
pub fn repair_to(
    proc_name: &str,
    target: PropId,
    target_name: &str,
    other_local_props: &[PropId],
    d: PropId,
    extra_guard: Option<BoolExpr>,
) -> FaultAction {
    let mut guard_parts = vec![BoolExpr::Prop(d)];
    if let Some(g) = extra_guard {
        guard_parts.push(g);
    }
    let mut assigns = vec![(d, PropAssign::False), (target, PropAssign::True)];
    for &p in other_local_props {
        if p != target {
            assigns.push((p, PropAssign::False));
        }
    }
    FaultAction::new(
        format!("repair-{proc_name}-to-{target_name}"),
        BoolExpr::And(guard_parts),
        assigns,
    )
    .expect("valid by construction")
}

/// General state faults for a process (Section 6.2): for every local
/// state of the process (given as `(name, one-hot proposition)` pairs
/// over `local_props`), an action that arbitrarily perturbs the process
/// into that local state. Undetectable (no auxiliary propositions) and
/// always enabled.
pub fn general_state(proc_name: &str, local_props: &[(String, PropId)]) -> Vec<FaultAction> {
    local_props
        .iter()
        .map(|(name, target)| {
            let mut assigns = vec![(*target, PropAssign::True)];
            for (_, p) in local_props {
                if p != target {
                    assigns.push((*p, PropAssign::False));
                }
            }
            FaultAction::new(
                format!("corrupt-{proc_name}-to-{name}"),
                BoolExpr::tru(),
                assigns,
            )
            .expect("valid by construction")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::{Owner, PropTable};
    use ftsyn_kripke::PropSet;

    fn mutex_props() -> (PropTable, Vec<PropId>, PropId) {
        let mut t = PropTable::new();
        let n = t.add("N1", Owner::Process(0)).unwrap();
        let tt = t.add("T1", Owner::Process(0)).unwrap();
        let c = t.add("C1", Owner::Process(0)).unwrap();
        let d = t.add_aux("D1", Owner::Process(0)).unwrap();
        (t, vec![n, tt, c], d)
    }

    #[test]
    fn fail_stop_downs_the_process() {
        let (_, locals, d) = mutex_props();
        let f = fail_stop("P1", &locals, d);
        let before = PropSet::from_iter_with_capacity(4, [locals[1]]); // T1
        assert!(f.enabled(&before));
        let out = f.outcomes(&before, 4);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains(d));
        for &p in &locals {
            assert!(!out[0].contains(p));
        }
        // Not enabled when already down.
        assert!(!f.enabled(&out[0]));
    }

    #[test]
    fn repair_restores_target_state() {
        let (_, locals, d) = mutex_props();
        let f = repair_to("P1", locals[0], "N1", &locals, d, None);
        let down = PropSet::from_iter_with_capacity(4, [d]);
        assert!(f.enabled(&down));
        let out = f.outcomes(&down, 4);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains(locals[0]));
        assert!(!out[0].contains(d));
    }

    #[test]
    fn repair_extra_guard_respected() {
        let (mut t, locals, d) = mutex_props();
        let c2 = t.add("C2", Owner::Process(1)).unwrap();
        let f = repair_to(
            "P1",
            locals[2],
            "C1",
            &locals,
            d,
            Some(BoolExpr::not_prop(c2)),
        );
        let down_with_c2 = PropSet::from_iter_with_capacity(5, [d, c2]);
        assert!(!f.enabled(&down_with_c2), "cannot repair into C1 while C2");
        let down = PropSet::from_iter_with_capacity(5, [d]);
        assert!(f.enabled(&down));
    }

    #[test]
    fn general_state_covers_all_locals() {
        let mut t = PropTable::new();
        let names = ["SA1", "EA1", "SB1", "EB1"];
        let props: Vec<(String, PropId)> = names
            .iter()
            .map(|n| ((*n).to_owned(), t.add(*n, Owner::Process(0)).unwrap()))
            .collect();
        let fs = general_state("P1", &props);
        assert_eq!(fs.len(), 4);
        let before = PropSet::from_iter_with_capacity(4, [props[0].1]);
        for (k, f) in fs.iter().enumerate() {
            assert!(f.enabled(&before), "general state faults always enabled");
            let out = f.outcomes(&before, 4);
            assert_eq!(out.len(), 1);
            assert!(out[0].contains(props[k].1));
            assert_eq!(out[0].len(), 1, "one-hot outcome");
        }
    }

    #[test]
    fn bounded_stuck_at_respects_budget() {
        let mut t = PropTable::new();
        let broken = t.add_aux("broken", Owner::Env).unwrap();
        let c0 = t.add_aux("cnt0", Owner::Env).unwrap();
        let c1 = t.add_aux("cnt1", Owner::Env).unwrap();
        let fs = stuck_at_low_bounded(broken, &[c0, c1]);
        assert_eq!(fs.len(), 2);
        let fresh = PropSet::with_capacity(3);
        assert!(fs[0].enabled(&fresh));
        assert!(!fs[1].enabled(&fresh));
        // After one fault + repair: count = 1.
        let once = PropSet::from_iter_with_capacity(3, [c0]);
        assert!(!fs[0].enabled(&once));
        assert!(fs[1].enabled(&once));
        // Budget exhausted.
        let twice = PropSet::from_iter_with_capacity(3, [c0, c1]);
        assert!(!fs[0].enabled(&twice));
        assert!(!fs[1].enabled(&twice));
    }

    #[test]
    fn timing_round_trip() {
        let mut t = PropTable::new();
        let full = t.add("is_full", Owner::Env).unwrap();
        let delayed = t.add_aux("is_delayed", Owner::Env).unwrap();
        let fs = timing(full, delayed);
        let start = PropSet::from_iter_with_capacity(2, [full]);
        let out1 = &fs[0].outcomes(&start, 2)[0];
        assert!(!out1.contains(full));
        assert!(out1.contains(delayed));
        assert!(fs[1].enabled(out1));
        let out2 = &fs[1].outcomes(out1, 2)[0];
        assert!(out2.contains(full));
        assert!(!out2.contains(delayed));
    }

    #[test]
    fn omission_drops_content() {
        let mut t = PropTable::new();
        let full = t.add("is_full", Owner::Env).unwrap();
        let f = omission(full);
        let start = PropSet::from_iter_with_capacity(1, [full]);
        let out = f.outcomes(&start, 1);
        assert!(!out[0].contains(full));
        assert!(!f.enabled(&out[0]));
    }
}
