//! Atomic propositions and their partition among processes.
//!
//! The paper partitions the set `AP` of atomic propositions into
//! `AP_1, …, AP_I`: the propositions in `AP_i` are *local to* process `i`
//! (other processes may read them but only process `i` modifies them, in
//! the absence of faults). Auxiliary propositions introduced by a fault
//! specification (such as `D_i`, "process i is down") are also owned by a
//! process, and are flagged as auxiliary so that tooling can distinguish
//! them from the propositions of the problem specification.

use crate::ids::PropId;
use std::collections::HashMap;
use std::fmt;

/// Who owns (i.e. may modify, under normal operation) a proposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Owner {
    /// The proposition belongs to `AP_i` for the given 0-based process index.
    Process(usize),
    /// The proposition belongs to no process (environment-controlled).
    Env,
}

/// Error returned when registering or resolving propositions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropError {
    /// A proposition with this name is already registered.
    Duplicate(String),
    /// No proposition with this name is registered.
    Unknown(String),
}

impl fmt::Display for PropError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropError::Duplicate(n) => write!(f, "duplicate proposition name `{n}`"),
            PropError::Unknown(n) => write!(f, "unknown proposition name `{n}`"),
        }
    }
}

impl std::error::Error for PropError {}

/// Registry of atomic propositions: names, owners and auxiliary flags.
#[derive(Clone, Debug, Default)]
pub struct PropTable {
    names: Vec<String>,
    owners: Vec<Owner>,
    aux: Vec<bool>,
    by_name: HashMap<String, PropId>,
}

impl PropTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a regular (problem-specification) proposition.
    ///
    /// # Errors
    ///
    /// Returns [`PropError::Duplicate`] if the name is already taken.
    pub fn add(&mut self, name: impl Into<String>, owner: Owner) -> Result<PropId, PropError> {
        self.add_inner(name.into(), owner, false)
    }

    /// Registers an auxiliary proposition introduced by a fault
    /// specification (e.g. `broken`, `D_i`).
    ///
    /// # Errors
    ///
    /// Returns [`PropError::Duplicate`] if the name is already taken.
    pub fn add_aux(&mut self, name: impl Into<String>, owner: Owner) -> Result<PropId, PropError> {
        self.add_inner(name.into(), owner, true)
    }

    fn add_inner(&mut self, name: String, owner: Owner, aux: bool) -> Result<PropId, PropError> {
        if self.by_name.contains_key(&name) {
            return Err(PropError::Duplicate(name));
        }
        let id = PropId(self.names.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.owners.push(owner);
        self.aux.push(aux);
        Ok(id)
    }

    /// Looks up a proposition by name.
    ///
    /// # Errors
    ///
    /// Returns [`PropError::Unknown`] if no proposition has this name.
    pub fn id(&self, name: &str) -> Result<PropId, PropError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| PropError::Unknown(name.to_owned()))
    }

    /// The name of a proposition.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this table.
    pub fn name(&self, id: PropId) -> &str {
        &self.names[id.index()]
    }

    /// The owner of a proposition.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this table.
    pub fn owner(&self, id: PropId) -> Owner {
        self.owners[id.index()]
    }

    /// Whether the proposition is auxiliary (fault-specification) state.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this table.
    pub fn is_aux(&self, id: PropId) -> bool {
        self.aux[id.index()]
    }

    /// Number of registered propositions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all proposition ids in registration order.
    pub fn iter(&self) -> impl Iterator<Item = PropId> + '_ {
        (0..self.names.len() as u32).map(PropId)
    }

    /// All propositions owned by the given process, in registration order.
    pub fn props_of_process(&self, proc_index: usize) -> Vec<PropId> {
        self.iter()
            .filter(|&p| self.owner(p) == Owner::Process(proc_index))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_and_lookup_round_trip() {
        let mut t = PropTable::new();
        let n1 = t.add("N1", Owner::Process(0)).unwrap();
        let d1 = t.add_aux("D1", Owner::Process(0)).unwrap();
        let g = t.add("g", Owner::Env).unwrap();
        assert_eq!(t.id("N1").unwrap(), n1);
        assert_eq!(t.name(d1), "D1");
        assert!(t.is_aux(d1));
        assert!(!t.is_aux(n1));
        assert_eq!(t.owner(g), Owner::Env);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = PropTable::new();
        t.add("x", Owner::Env).unwrap();
        assert_eq!(
            t.add("x", Owner::Env),
            Err(PropError::Duplicate("x".into()))
        );
    }

    #[test]
    fn unknown_name_rejected() {
        let t = PropTable::new();
        assert_eq!(t.id("nope"), Err(PropError::Unknown("nope".into())));
    }

    #[test]
    fn process_partition() {
        let mut t = PropTable::new();
        let a = t.add("a", Owner::Process(0)).unwrap();
        let b = t.add("b", Owner::Process(1)).unwrap();
        let c = t.add("c", Owner::Process(0)).unwrap();
        assert_eq!(t.props_of_process(0), vec![a, c]);
        assert_eq!(t.props_of_process(1), vec![b]);
        assert!(t.props_of_process(2).is_empty());
    }
}
