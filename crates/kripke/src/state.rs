//! Global states: proposition valuations plus shared-variable values.

use ftsyn_ctl::{PropId, PropTable};
use std::fmt;

/// A set of atomic propositions, as a bitset over [`PropId`]s.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct PropSet {
    bits: Vec<u64>,
}

impl PropSet {
    /// Creates an empty set able to hold `n` propositions.
    pub fn with_capacity(n: usize) -> PropSet {
        PropSet {
            bits: vec![0; n.div_ceil(64).max(1)],
        }
    }

    /// Creates a set from an iterator of members, sized for `n` propositions.
    pub fn from_iter_with_capacity(n: usize, iter: impl IntoIterator<Item = PropId>) -> PropSet {
        let mut s = PropSet::with_capacity(n);
        for p in iter {
            s.insert(p);
        }
        s
    }

    /// Inserts a proposition. Returns `true` if newly added.
    ///
    /// # Panics
    ///
    /// Panics if `p` exceeds the capacity.
    pub fn insert(&mut self, p: PropId) -> bool {
        let (w, b) = (p.index() / 64, p.index() % 64);
        let mask = 1u64 << b;
        let fresh = self.bits[w] & mask == 0;
        self.bits[w] |= mask;
        fresh
    }

    /// Removes a proposition. Returns `true` if it was present.
    pub fn remove(&mut self, p: PropId) -> bool {
        let (w, b) = (p.index() / 64, p.index() % 64);
        let mask = 1u64 << b;
        let present = self.bits[w] & mask != 0;
        self.bits[w] &= !mask;
        present
    }

    /// Membership test. Out-of-capacity ids are reported absent.
    pub fn contains(&self, p: PropId) -> bool {
        let (w, b) = (p.index() / 64, p.index() % 64);
        self.bits.get(w).is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = PropId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| PropId((w * 64 + b) as u32))
        })
    }

    /// The underlying bit words: proposition `p` is bit `p % 64` of word
    /// `p / 64`.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Restricts to the propositions in `keep`.
    #[must_use]
    pub fn intersect(&self, keep: &PropSet) -> PropSet {
        PropSet {
            bits: self
                .bits
                .iter()
                .zip(keep.bits.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Renders the set as `{name, name, …}` using `props` for names.
    pub fn display(&self, props: &PropTable) -> String {
        let names: Vec<&str> = self.iter().map(|p| props.name(p)).collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Debug for PropSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A global state: a valuation of the atomic propositions plus the values
/// of any shared synchronization variables (empty until the extraction
/// step of the synthesis method introduces them).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct State {
    /// Propositions true in this state (closed world: absent = false).
    pub props: PropSet,
    /// Values of the shared synchronization variables, by variable index.
    pub shared: Vec<u32>,
}

impl State {
    /// A state with the given valuation and no shared variables.
    pub fn new(props: PropSet) -> State {
        State {
            props,
            shared: Vec::new(),
        }
    }

    /// Human-readable rendering such as `[N1 N2] x=1`.
    pub fn display(&self, props: &PropTable) -> String {
        render_state(&self.props, &self.shared, props)
    }
}

/// [`State::display`] of a valuation and shared values.
pub(crate) fn render_state(valuation: &PropSet, shared: &[u32], props: &PropTable) -> String {
    let names: Vec<&str> = valuation.iter().map(|p| props.name(p)).collect();
    let mut s = format!("[{}]", names.join(" "));
    for (i, v) in shared.iter().enumerate() {
        s.push_str(&format!(" x{i}={v}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsyn_ctl::Owner;

    #[test]
    fn insert_remove_contains() {
        let mut s = PropSet::with_capacity(70);
        assert!(s.insert(PropId(0)));
        assert!(s.insert(PropId(69)));
        assert!(!s.insert(PropId(69)));
        assert!(s.contains(PropId(69)));
        assert!(!s.contains(PropId(68)));
        assert!(s.remove(PropId(69)));
        assert!(!s.remove(PropId(69)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_in_order() {
        let s = PropSet::from_iter_with_capacity(100, [PropId(65), PropId(2), PropId(64)]);
        let v: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(v, vec![2, 64, 65]);
    }

    #[test]
    fn intersect_restricts() {
        let a = PropSet::from_iter_with_capacity(10, [PropId(1), PropId(2), PropId(3)]);
        let keep = PropSet::from_iter_with_capacity(10, [PropId(2), PropId(9)]);
        let r = a.intersect(&keep);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![PropId(2)]);
    }

    #[test]
    fn display_uses_names() {
        let mut t = PropTable::new();
        let n1 = t.add("N1", Owner::Process(0)).unwrap();
        let n2 = t.add("N2", Owner::Process(1)).unwrap();
        let mut st = State::new(PropSet::from_iter_with_capacity(2, [n1, n2]));
        assert_eq!(st.display(&t), "[N1 N2]");
        st.shared.push(1);
        assert_eq!(st.display(&t), "[N1 N2] x0=1");
    }

    #[test]
    fn out_of_capacity_contains_is_false() {
        let s = PropSet::with_capacity(1);
        assert!(!s.contains(PropId(1000)));
    }
}
