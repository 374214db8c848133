//! Typed index newtypes used across the workspace.
//!
//! All graph-like structures in this project (formula DAGs, tableaux,
//! Kripke structures) are arena-based and refer to their elements through
//! these ids rather than through references, which keeps the borrow
//! checker out of graph algorithms entirely.

use std::fmt;

/// Identifier of an atomic proposition inside a [`PropTable`](crate::PropTable).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropId(pub u32);

/// Identifier of a formula inside a [`FormulaArena`](crate::FormulaArena).
///
/// Formulae are hash-consed, so two structurally equal formulae in the
/// same arena always have the same `FormulaId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormulaId(pub u32);

impl PropId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FormulaId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PropId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for FormulaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", PropId(3)), "p3");
        assert_eq!(format!("{:?}", FormulaId(17)), "f17");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(PropId(1) < PropId(2));
        assert!(FormulaId(0) < FormulaId(10));
    }
}
