//! Sets of states as bitsets: the checker's satisfaction sets.

use crate::structure::StateId;

/// A set of states of one structure, one bit per state id (bit `i % 64`
/// of word `i / 64`). Bits at and beyond the structure's size are always
/// clear, so equality, [`StateSet::count`] and [`StateSet::is_full`]
/// need no masking.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateSet {
    words: Vec<u64>,
    len: usize,
}

impl StateSet {
    /// The empty set over a structure of `len` states.
    pub fn empty(len: usize) -> StateSet {
        StateSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The set of all `len` states.
    pub fn full(len: usize) -> StateSet {
        let mut s = StateSet {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.clear_tail();
        s
    }

    /// Number of states of the structure (the universe, not the members).
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Whether `s` is a member (`s` must belong to the structure).
    #[inline]
    pub fn contains(&self, s: StateId) -> bool {
        let i = s.index();
        debug_assert!(i < self.len, "state {s:?} outside a {}-state set", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds `s` (which must belong to the structure); returns `true` if
    /// it was not a member.
    #[inline]
    pub fn insert(&mut self, s: StateId) -> bool {
        let i = s.index();
        debug_assert!(i < self.len, "state {s:?} outside a {}-state set", self.len);
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every state is a member.
    pub fn is_full(&self) -> bool {
        self.count() == self.len
    }

    /// The members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    StateId((w * 64) as u32 + b)
                })
            })
        })
    }

    /// `self ∩ other`, in place.
    pub fn intersect_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self ∪ other`, in place.
    pub fn union_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The complement with respect to the structure's states.
    #[must_use]
    pub fn complement(&self) -> StateSet {
        let mut s = StateSet {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        s.clear_tail();
        s
    }

    fn clear_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1 << (self.len % 64)) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_stay_clear_across_word_boundaries() {
        for len in [0, 1, 63, 64, 65, 127, 128, 129] {
            let full = StateSet::full(len);
            assert_eq!(full.count(), len);
            assert!(full.is_full());
            assert_eq!(full.complement(), StateSet::empty(len));
            assert_eq!(StateSet::empty(len).complement(), full);
            assert_eq!(full.iter().count(), len);
        }
    }

    #[test]
    fn insert_contains_iter_and_word_ops() {
        let mut a = StateSet::empty(130);
        for i in [0, 63, 64, 129] {
            assert!(a.insert(StateId(i)));
        }
        assert!(!a.insert(StateId(64)));
        assert!(a.contains(StateId(129)) && !a.contains(StateId(128)));
        let members: Vec<u32> = a.iter().map(|s| s.0).collect();
        assert_eq!(members, vec![0, 63, 64, 129]);
        let mut b = StateSet::empty(130);
        for i in (1..130).step_by(2) {
            b.insert(StateId(i));
        }
        let mut and = a.clone();
        and.intersect_with(&b);
        assert_eq!(and.iter().map(|s| s.0).collect::<Vec<_>>(), vec![63, 129]);
        let mut or = a.clone();
        or.union_with(&b);
        assert_eq!(or.count(), 65 + 2);
        assert_eq!(a.complement().count(), 126);
    }
}
