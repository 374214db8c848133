//! Witness and counterexample extraction.
//!
//! When a formula holds (for existential properties) or fails (for
//! universal ones), a concrete path through the structure demonstrates
//! it. These are invaluable for diagnosing synthesis problems: a failed
//! tolerance check can be shown as the exact execution that violates
//! the specification.

use crate::checker::{Checker, Semantics};
use crate::structure::{FtKripke, StateId};
use ftsyn_ctl::{Formula, FormulaArena, FormulaId};

/// A (possibly looping) evidence path: the states visited in order; if
/// `loop_start` is set, the path is a lasso whose suffix from that index
/// repeats forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidencePath {
    /// The states along the path.
    pub states: Vec<StateId>,
    /// Index into `states` where the repeating loop begins, if infinite.
    pub loop_start: Option<usize>,
}

impl EvidencePath {
    /// Renders the path using state displays.
    pub fn display(&self, m: &FtKripke, props: &ftsyn_ctl::PropTable) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &s) in self.states.iter().enumerate() {
            if Some(i) == self.loop_start {
                parts.push("(loop:".into());
            }
            parts.push(m.display_state(s, props));
        }
        if self.loop_start.is_some() {
            parts.push(")*".into());
        }
        parts.join(" -> ")
    }
}

impl<'m> Checker<'m> {
    fn path_successors(&self, s: StateId) -> Vec<StateId> {
        let include_faults = self.semantics() == Semantics::IncludeFaults;
        self.model()
            .succ(s)
            .iter()
            .filter(|e| include_faults || !e.kind.is_fault())
            .map(|e| e.to)
            .collect()
    }

    /// A witness fullpath for `E[g U h]` at `from`, if it holds: a
    /// finite path ending in an `h`-state with `g` before it.
    pub fn witness_eu(
        &mut self,
        arena: &FormulaArena,
        g: FormulaId,
        h: FormulaId,
        from: StateId,
    ) -> Option<EvidencePath> {
        let eu = {
            // Build the until formula in a scratch arena? The caller's
            // arena is borrowed immutably; instead evaluate components.
            (self.eval(arena, g).clone(), self.eval(arena, h).clone())
        };
        let (vg, vh) = eu;
        // BFS ranks toward h through g-states.
        let n = self.model().len();
        let mut rank = vec![u32::MAX; n];
        let mut work: Vec<StateId> = Vec::new();
        for s in self.model().state_ids() {
            if vh.contains(s) {
                rank[s.index()] = 0;
                work.push(s);
            }
        }
        let mut r = 0;
        while !work.is_empty() {
            r += 1;
            let mut next = Vec::new();
            for &t in &work {
                for e in self.model().pred(t) {
                    if self.semantics() == Semantics::FaultFree && e.kind.is_fault() {
                        continue;
                    }
                    let s = e.to;
                    if rank[s.index()] == u32::MAX && vg.contains(s) {
                        rank[s.index()] = r;
                        next.push(s);
                    }
                }
            }
            work = next;
        }
        if rank[from.index()] == u32::MAX {
            return None;
        }
        // Walk down the ranks.
        let mut path = vec![from];
        let mut cur = from;
        while rank[cur.index()] > 0 {
            let next = self
                .path_successors(cur)
                .into_iter()
                .min_by_key(|t| rank[t.index()])?;
            path.push(next);
            cur = next;
        }
        Some(EvidencePath {
            states: path,
            loop_start: None,
        })
    }

    /// A witness fullpath for `EF h` at `from`.
    pub fn witness_ef(
        &mut self,
        arena: &FormulaArena,
        h: FormulaId,
        from: StateId,
    ) -> Option<EvidencePath> {
        // g = true: reuse witness_eu with h's own id for g won't work;
        // inline a trivially-true vector by using h≡h — instead compute
        // with a constant-true formula if the arena has one interned.
        // `FormulaArena::new` pre-interns True at id 0.
        let t = ftsyn_ctl::FormulaId(0);
        debug_assert!(matches!(arena.get(t), Formula::True));
        self.witness_eu(arena, t, h, from)
    }

    /// A counterexample fullpath for `A[g U h]` at `from`, if it fails:
    /// either a finite path whose last state breaks the obligation (¬h
    /// and ¬g, or a ¬h dead end), or a lasso that avoids `h` forever.
    pub fn counterexample_au(
        &mut self,
        arena: &FormulaArena,
        g: FormulaId,
        h: FormulaId,
        from: StateId,
    ) -> Option<EvidencePath> {
        let vg = self.eval(arena, g).clone();
        let vh = self.eval(arena, h).clone();
        let au = {
            // Recompute AU membership with the checker's fixpoint by
            // evaluating the interned formula if present; otherwise
            // derive from the complement of the failure search below.
            // We avoid needing the interned AU: a state fails A[gUh]
            // iff it is in the largest set X with:
            //   ¬h ∧ (¬g ∨ dead-end ∨ ∃succ ∈ X).
            // That is a greatest fixpoint; compute it directly.
            let mut x: Vec<bool> = self.model().state_ids().map(|s| !vh.contains(s)).collect();
            let mut changed = true;
            while changed {
                changed = false;
                for s in self.model().state_ids() {
                    if !x[s.index()] {
                        continue;
                    }
                    let succs = self.path_successors(s);
                    let keeps =
                        !vg.contains(s) || succs.is_empty() || succs.iter().any(|t| x[t.index()]);
                    if !keeps {
                        x[s.index()] = false;
                        changed = true;
                    }
                }
            }
            x
        };
        if !au[from.index()] {
            return None; // A[gUh] holds at `from`
        }
        // Walk inside the failure set, preferring an immediate breach.
        let mut path = vec![from];
        let mut pos: std::collections::HashMap<StateId, usize> = std::collections::HashMap::new();
        pos.insert(from, 0);
        let mut cur = from;
        loop {
            if !vg.contains(cur) && !vh.contains(cur) {
                return Some(EvidencePath {
                    states: path,
                    loop_start: None,
                });
            }
            let succs = self.path_successors(cur);
            if succs.is_empty() {
                return Some(EvidencePath {
                    states: path,
                    loop_start: None,
                });
            }
            let next = succs
                .iter()
                .copied()
                .find(|t| au[t.index()])
                .expect("failure set is closed under some successor");
            if let Some(&at) = pos.get(&next) {
                return Some(EvidencePath {
                    states: path,
                    loop_start: Some(at),
                });
            }
            pos.insert(next, path.len());
            path.push(next);
            cur = next;
        }
    }

    /// A counterexample path for `AG h` at `from` (a path to a `¬h`
    /// state), if `AG h` fails.
    pub fn counterexample_ag(
        &mut self,
        arena: &FormulaArena,
        h: FormulaId,
        from: StateId,
    ) -> Option<EvidencePath> {
        let vh = self.eval(arena, h).clone();
        // BFS to the nearest ¬h state.
        let n = self.model().len();
        let mut prev: Vec<Option<StateId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        seen[from.index()] = true;
        let mut target = None;
        if !vh.contains(from) {
            target = Some(from);
        }
        while let Some(s) = queue.pop_front() {
            if target.is_some() {
                break;
            }
            for t in self.path_successors(s) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    prev[t.index()] = Some(s);
                    if !vh.contains(t) {
                        target = Some(t);
                        break;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut cur = target?;
        let mut rev = vec![cur];
        while let Some(p) = prev[cur.index()] {
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        Some(EvidencePath {
            states: rev,
            loop_start: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{PropSet, State};
    use crate::structure::{KripkeBuilder, TransKind};
    use ftsyn_ctl::{Owner, PropId, PropTable};

    fn fixture() -> (FormulaArena, PropTable, FtKripke, Vec<StateId>) {
        let mut props = PropTable::new();
        let a = props.add("a", Owner::Process(0)).unwrap();
        let b = props.add("b", Owner::Process(0)).unwrap();
        let c = props.add("c", Owner::Process(0)).unwrap();
        let arena = FormulaArena::new(1);
        let mut m = KripkeBuilder::new();
        let mk =
            |ps: &[PropId]| State::new(PropSet::from_iter_with_capacity(3, ps.iter().copied()));
        // s0{a} → s1{b} → s2{c}; s1 → s1 (self-loop); s0 -fault→ s3{} (dead end)
        let s0 = m.push_state(mk(&[a]));
        let s1 = m.push_state(mk(&[b]));
        let s2 = m.push_state(mk(&[c]));
        let s3 = m.push_state(mk(&[]));
        m.add_init(s0);
        m.add_edge(s0, TransKind::Proc(0), s1);
        m.add_edge(s0, TransKind::Fault(0), s3);
        m.add_edge(s1, TransKind::Proc(0), s2);
        m.add_edge(s1, TransKind::Proc(0), s1);
        m.add_edge(s2, TransKind::Proc(0), s2);
        (arena, props, m.freeze(), vec![s0, s1, s2, s3])
    }

    #[test]
    fn ef_witness_is_shortest_path() {
        let (mut arena, props, m, ids) = fixture();
        let c = arena.prop(props.id("c").unwrap());
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let w = ck.witness_ef(&arena, c, ids[0]).expect("EF c holds");
        assert_eq!(w.states, vec![ids[0], ids[1], ids[2]]);
        assert_eq!(w.loop_start, None);
    }

    #[test]
    fn eu_witness_respects_g() {
        let (mut arena, props, m, ids) = fixture();
        let a = arena.prop(props.id("a").unwrap());
        let b = arena.prop(props.id("b").unwrap());
        let c = arena.prop(props.id("c").unwrap());
        let ab = arena.or(a, b);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let w = ck.witness_eu(&arena, ab, c, ids[0]).expect("holds");
        assert_eq!(*w.states.last().unwrap(), ids[2]);
        // And when g is too weak, no witness exists.
        let w2 = ck.witness_eu(&arena, a, c, ids[0]);
        assert!(w2.is_none(), "b-state breaks the g chain");
    }

    #[test]
    fn au_counterexample_finds_the_lasso() {
        let (mut arena, props, m, ids) = fixture();
        let c = arena.prop(props.id("c").unwrap());
        let af = arena.af(c);
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        // AF c fails at s0: the s1 self-loop avoids c forever.
        assert!(!ck.holds(&arena, af, ids[0]));
        let t = arena.tru();
        let cex = ck
            .counterexample_au(&arena, t, c, ids[0])
            .expect("AF c fails");
        assert!(cex.loop_start.is_some(), "must be a lasso: {cex:?}");
        let lp = cex.loop_start.unwrap();
        // The loop avoids c.
        for &s in &cex.states[lp..] {
            assert_ne!(s, ids[2]);
        }
    }

    #[test]
    fn au_counterexample_none_when_holds() {
        let (mut arena, props, m, ids) = fixture();
        let b = arena.prop(props.id("b").unwrap());
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        // AF b holds at s0 fault-free (s1 is on every path... actually
        // the only program path is s0→s1→…, so AF b holds).
        let t = arena.tru();
        assert!(ck.counterexample_au(&arena, t, b, ids[0]).is_none());
    }

    #[test]
    fn ag_counterexample_uses_fault_paths_when_asked() {
        let (mut arena, props, m, ids) = fixture();
        let a = arena.prop(props.id("a").unwrap());
        let b = arena.prop(props.id("b").unwrap());
        let c = arena.prop(props.id("c").unwrap());
        let bc = arena.or(b, c);
        let abc = arena.or(a, bc);
        // AG(a|b|c) holds fault-free but fails through the fault edge to
        // the empty state.
        let mut ckn = Checker::new(&m, Semantics::FaultFree);
        assert!(ckn.counterexample_ag(&arena, abc, ids[0]).is_none());
        let mut ckf = Checker::new(&m, Semantics::IncludeFaults);
        let cex = ckf
            .counterexample_ag(&arena, abc, ids[0])
            .expect("fails through the fault");
        assert_eq!(cex.states, vec![ids[0], ids[3]]);
    }

    #[test]
    fn display_renders_lassos() {
        let (mut arena, props, m, ids) = fixture();
        let c = arena.prop(props.id("c").unwrap());
        let t = arena.tru();
        let mut ck = Checker::new(&m, Semantics::FaultFree);
        let cex = ck.counterexample_au(&arena, t, c, ids[0]).unwrap();
        let txt = cex.display(&m, &props);
        assert!(txt.contains("(loop:"), "{txt}");
        assert!(txt.ends_with(")*"), "{txt}");
    }
}
