//! Boolean guard expressions over atomic propositions and shared
//! synchronization variables.

use ftsyn_ctl::{PropId, PropTable};
use ftsyn_kripke::PropSet;

/// A guard: a predicate on global states (Section 2.1 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoolExpr {
    /// A constant.
    Const(bool),
    /// An atomic proposition is true.
    Prop(PropId),
    /// Logical negation.
    Not(Box<BoolExpr>),
    /// `x_var = value` over a shared synchronization variable.
    VarEq(usize, u32),
    /// Conjunction of all members (empty = `true`).
    And(Vec<BoolExpr>),
    /// Disjunction of all members (empty = `false`).
    Or(Vec<BoolExpr>),
}

impl BoolExpr {
    /// The constant `true`.
    pub fn tru() -> BoolExpr {
        BoolExpr::Const(true)
    }

    /// The negation of a proposition.
    pub fn not_prop(p: PropId) -> BoolExpr {
        BoolExpr::Not(Box::new(BoolExpr::Prop(p)))
    }

    /// Evaluates against a valuation and shared-variable values.
    ///
    /// Closed world: a proposition not in `props` is false; a shared
    /// variable index beyond `shared` evaluates `VarEq` to false.
    pub fn eval(&self, props: &PropSet, shared: &[u32]) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Prop(p) => props.contains(*p),
            BoolExpr::Not(e) => !e.eval(props, shared),
            BoolExpr::VarEq(v, k) => shared.get(*v) == Some(k),
            BoolExpr::And(es) => es.iter().all(|e| e.eval(props, shared)),
            BoolExpr::Or(es) => es.iter().any(|e| e.eval(props, shared)),
        }
    }

    /// Whether the expression mentions any shared variable. Fault-action
    /// guards must not (Section 5.3: faults may overwrite but never read
    /// shared variables).
    pub fn reads_shared(&self) -> bool {
        match self {
            BoolExpr::Const(_) | BoolExpr::Prop(_) => false,
            BoolExpr::Not(e) => e.reads_shared(),
            BoolExpr::VarEq(_, _) => true,
            BoolExpr::And(es) | BoolExpr::Or(es) => es.iter().any(BoolExpr::reads_shared),
        }
    }

    /// Human-readable rendering using proposition names.
    pub fn display(&self, props: &PropTable) -> String {
        match self {
            BoolExpr::Const(b) => b.to_string(),
            BoolExpr::Prop(p) => props.name(*p).to_owned(),
            BoolExpr::Not(e) => match e.as_ref() {
                BoolExpr::Prop(p) => format!("~{}", props.name(*p)),
                inner => format!("~({})", inner.display(props)),
            },
            BoolExpr::VarEq(v, k) => format!("x{v}={k}"),
            BoolExpr::And(es) => {
                if es.is_empty() {
                    "true".to_owned()
                } else {
                    es.iter()
                        .map(|e| match e {
                            BoolExpr::Or(inner) if inner.len() > 1 => {
                                format!("({})", e.display(props))
                            }
                            _ => e.display(props),
                        })
                        .collect::<Vec<_>>()
                        .join(" & ")
                }
            }
            BoolExpr::Or(es) => {
                if es.is_empty() {
                    "false".to_owned()
                } else {
                    es.iter()
                        .map(|e| e.display(props))
                        .collect::<Vec<_>>()
                        .join(" | ")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::Owner;

    fn table() -> (PropTable, PropId, PropId) {
        let mut t = PropTable::new();
        let a = t.add("a", Owner::Process(0)).unwrap();
        let b = t.add("b", Owner::Process(1)).unwrap();
        (t, a, b)
    }

    #[test]
    fn eval_closed_world() {
        let (_, a, b) = table();
        let ps = PropSet::from_iter_with_capacity(2, [a]);
        assert!(BoolExpr::Prop(a).eval(&ps, &[]));
        assert!(!BoolExpr::Prop(b).eval(&ps, &[]));
        assert!(BoolExpr::not_prop(b).eval(&ps, &[]));
    }

    #[test]
    fn eval_shared_vars() {
        let (_, a, _) = table();
        let ps = PropSet::from_iter_with_capacity(2, [a]);
        assert!(BoolExpr::VarEq(0, 2).eval(&ps, &[2]));
        assert!(!BoolExpr::VarEq(0, 1).eval(&ps, &[2]));
        assert!(
            !BoolExpr::VarEq(3, 1).eval(&ps, &[2]),
            "missing var is false"
        );
    }

    #[test]
    fn and_or_semantics() {
        let (_, a, b) = table();
        let ps = PropSet::from_iter_with_capacity(2, [a]);
        let e = BoolExpr::And(vec![BoolExpr::Prop(a), BoolExpr::not_prop(b)]);
        assert!(e.eval(&ps, &[]));
        let e2 = BoolExpr::Or(vec![BoolExpr::Prop(b), BoolExpr::Const(false)]);
        assert!(!e2.eval(&ps, &[]));
        assert!(BoolExpr::And(vec![]).eval(&ps, &[]));
        assert!(!BoolExpr::Or(vec![]).eval(&ps, &[]));
    }

    #[test]
    fn reads_shared_detection() {
        let (_, a, _) = table();
        assert!(!BoolExpr::Prop(a).reads_shared());
        let e = BoolExpr::And(vec![BoolExpr::Prop(a), BoolExpr::VarEq(0, 1)]);
        assert!(e.reads_shared());
        let e2 = BoolExpr::Not(Box::new(BoolExpr::VarEq(1, 1)));
        assert!(e2.reads_shared());
    }

    #[test]
    fn display_is_readable() {
        let (t, a, b) = table();
        let e = BoolExpr::And(vec![
            BoolExpr::Or(vec![BoolExpr::Prop(a), BoolExpr::Prop(b)]),
            BoolExpr::VarEq(0, 1),
        ]);
        assert_eq!(e.display(&t), "(a | b) & x0=1");
    }
}
