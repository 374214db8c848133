//! Memoization of the `Blocks`/`Tiles` expansions across tableau builds.
//!
//! Both kernels are pure functions of `(closure, label)`, and OR-labels
//! repeat heavily across related builds (fault successors pin complete
//! valuations, so different specifications over the same propositions
//! keep producing the same perturbed labels). An [`ExpansionCache`]
//! owned by the caller can therefore be threaded through any number of
//! [`build_governed`](crate::build_governed) calls.
//!
//! The memo is sound only across builds that share the same *closure*:
//! a `LabelSet` key is a bitset of closure formula indices, so the
//! same bits mean different formulas under a different closure. A
//! caller serving multiple problems (e.g. the service daemon) must
//! keep one cache per problem rather than one global cache.
//!
//! Within a *single* build the cache never hits: node interning already
//! deduplicates labels per kind, so each unique label is expanded
//! exactly once per build. The hit/miss counters in
//! [`BuildProfile`](crate::BuildProfile) make this visible rather than
//! hiding it — warm-cache wins show up only from the second build over
//! a given label population onwards.
//!
//! Lookups run concurrently on expansion worker threads through a
//! shared reference; inserts are deferred to the sequential apply phase
//! via [`CacheFill`] records, so the map itself needs no locking.

use crate::expand::Tile;
use ftsyn_ctl::LabelSet;
use std::collections::{HashMap, VecDeque};

/// Size caps for an [`ExpansionCache`]. `None` means uncapped. A capped
/// cache evicts whole entries in *admission order* (oldest fill first)
/// via [`ExpansionCache::evict_to`] — a deterministic function of the
/// fill sequence, with no clock or access-recency input, so two daemons
/// that admit the same fills in the same order hold identical caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum memoized entries (blocks + tiles) to retain.
    pub max_entries: Option<usize>,
    /// Maximum approximate payload bytes to retain.
    pub max_bytes: Option<usize>,
}

impl CacheLimits {
    /// No caps: the cache never evicts (the pre-eviction behavior).
    pub fn unlimited() -> CacheLimits {
        CacheLimits::default()
    }

    /// Whether neither cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }
}

/// Which memo table an admission-queue entry lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EntryKind {
    Blocks,
    Tiles,
}

/// Approximate heap bytes of a label bitset.
fn label_bytes(label: &LabelSet) -> usize {
    label.words().len() * 8
}

/// Approximate retained bytes of a memoized `Blocks` entry: key, result
/// labels, and a flat per-entry overhead for the map slot and vec
/// headers. The figure feeds the `max_bytes` cap and the stats/bench
/// counters; it is a stable estimate, not an allocator measurement.
fn blocks_bytes(key: &LabelSet, result: &[LabelSet]) -> usize {
    32 + label_bytes(key) + result.iter().map(label_bytes).sum::<usize>()
}

/// Approximate retained bytes of a memoized `Tiles` entry.
fn tiles_bytes(key: &LabelSet, result: &[Tile]) -> usize {
    32 + label_bytes(key)
        + result
            .iter()
            .map(|t| {
                16 + match t {
                    Tile::Or { or_label, .. } => label_bytes(or_label),
                    Tile::Dummy => 0,
                }
            })
            .sum::<usize>()
}

/// A deferred cache insert, produced on a worker thread during the pure
/// expansion half and applied by the sequential apply phase.
#[derive(Clone, Debug)]
pub enum CacheFill {
    /// `Blocks(label)` result for an OR-node label.
    Blocks(LabelSet, Vec<LabelSet>),
    /// `Tiles(label)` result for an AND-node label.
    Tiles(LabelSet, Vec<Tile>),
}

/// Cross-build memo table for `Blocks` and `Tiles` results.
#[derive(Debug, Default)]
pub struct ExpansionCache {
    blocks: HashMap<LabelSet, Vec<LabelSet>>,
    tiles: HashMap<LabelSet, Vec<Tile>>,
    /// Fill-admission order, the eviction order under [`CacheLimits`].
    /// Every queue entry is present in its map until evicted (eviction
    /// is the only removal path).
    admission: VecDeque<(EntryKind, LabelSet)>,
    /// Approximate retained payload bytes across both maps.
    bytes: usize,
    /// Lifetime eviction counters.
    evicted_entries: usize,
    evicted_bytes: usize,
}

impl ExpansionCache {
    /// An empty cache.
    pub fn new() -> ExpansionCache {
        ExpansionCache::default()
    }

    /// The memoized `Blocks` result for `label`, if present.
    pub fn lookup_blocks(&self, label: &LabelSet) -> Option<&Vec<LabelSet>> {
        self.blocks.get(label)
    }

    /// The memoized `Tiles` result for `label`, if present.
    pub fn lookup_tiles(&self, label: &LabelSet) -> Option<&Vec<Tile>> {
        self.tiles.get(label)
    }

    /// Applies a deferred insert (first result for a label wins; the
    /// kernels are deterministic so later fills are identical anyway).
    /// A fill that actually inserts joins the tail of the admission
    /// queue; duplicate fills change nothing, including the queue.
    pub fn apply_fill(&mut self, fill: CacheFill) {
        use std::collections::hash_map::Entry;
        match fill {
            CacheFill::Blocks(label, result) => {
                if let Entry::Vacant(slot) = self.blocks.entry(label.clone()) {
                    self.bytes += blocks_bytes(&label, &result);
                    self.admission.push_back((EntryKind::Blocks, label));
                    slot.insert(result);
                }
            }
            CacheFill::Tiles(label, result) => {
                if let Entry::Vacant(slot) = self.tiles.entry(label.clone()) {
                    self.bytes += tiles_bytes(&label, &result);
                    self.admission.push_back((EntryKind::Tiles, label));
                    slot.insert(result);
                }
            }
        }
    }

    /// Evicts oldest-admitted entries until both caps in `limits` are
    /// respected. Returns `(entries, bytes)` evicted by this call. A
    /// no-op under [`CacheLimits::unlimited`]. An evicted label misses
    /// on its next lookup and, if re-filled, re-enters the admission
    /// queue at the tail.
    pub fn evict_to(&mut self, limits: CacheLimits) -> (usize, usize) {
        let mut entries = 0;
        let mut bytes = 0;
        loop {
            let total = self.blocks.len() + self.tiles.len();
            let over_entries = limits.max_entries.is_some_and(|cap| total > cap);
            let over_bytes = limits.max_bytes.is_some_and(|cap| self.bytes > cap);
            if !over_entries && !over_bytes {
                break;
            }
            let Some((kind, label)) = self.admission.pop_front() else {
                break;
            };
            let freed = match kind {
                EntryKind::Blocks => self
                    .blocks
                    .remove(&label)
                    .map(|result| blocks_bytes(&label, &result)),
                EntryKind::Tiles => self
                    .tiles
                    .remove(&label)
                    .map(|result| tiles_bytes(&label, &result)),
            };
            if let Some(freed) = freed {
                self.bytes -= freed;
                entries += 1;
                bytes += freed;
            }
        }
        self.evicted_entries += entries;
        self.evicted_bytes += bytes;
        (entries, bytes)
    }

    /// Number of memoized entries `(blocks, tiles)`.
    pub fn len(&self) -> (usize, usize) {
        (self.blocks.len(), self.tiles.len())
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.tiles.is_empty()
    }

    /// Approximate retained payload bytes (the `max_bytes` accounting).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Lifetime eviction counters `(entries, bytes)`.
    pub fn eviction_counters(&self) -> (usize, usize) {
        (self.evicted_entries, self.evicted_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_governed, build_with_threads, BuildStart};
    use crate::expand::Tile;
    use crate::FaultSpec;
    use ftsyn_ctl::{parse::parse, Closure, FormulaArena, Owner, PropTable};

    /// A small closure to mint valid `LabelSet`s from, plus the root
    /// label of its spec (the same shape the build tests use).
    fn setup(spec: &str) -> (PropTable, Closure, LabelSet) {
        let mut props = PropTable::new();
        props.add("p", Owner::Process(0)).unwrap();
        props.add("q", Owner::Process(0)).unwrap();
        let mut arena = FormulaArena::new(1);
        let f = parse(&mut arena, &mut props, spec, true).unwrap();
        let cl = Closure::build(&mut arena, &props, &[f]);
        let mut root = cl.empty_label();
        root.insert(cl.index_of(f).unwrap());
        (props, cl, root)
    }

    fn label(cl: &Closure, members: &[u32]) -> LabelSet {
        let mut l = cl.empty_label();
        for &m in members {
            l.insert(m);
        }
        l
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let (_, cl, _) = setup("p & q");
        let cache = ExpansionCache::new();
        let key = label(&cl, &[0]);
        assert!(cache.is_empty());
        assert!(
            cache.lookup_blocks(&key).is_none(),
            "a lookup on empty is a miss"
        );

        let mut cache = cache;
        let result = vec![label(&cl, &[0, 1])];
        cache.apply_fill(CacheFill::Blocks(key.clone(), result.clone()));
        assert_eq!(cache.len(), (1, 0));
        assert!(!cache.is_empty());
        assert_eq!(
            cache.lookup_blocks(&key),
            Some(&result),
            "the filled label now hits"
        );
    }

    #[test]
    fn blocks_and_tiles_namespaces_are_separate() {
        let (_, cl, _) = setup("p & q");
        let mut cache = ExpansionCache::new();
        let key = label(&cl, &[0]);
        cache.apply_fill(CacheFill::Tiles(key.clone(), vec![Tile::Dummy]));
        assert_eq!(cache.len(), (0, 1));
        // The same label as a *blocks* key still misses: the memo is
        // keyed per kernel, matching node-kind-specific expansion.
        assert!(cache.lookup_blocks(&key).is_none());
        assert_eq!(cache.lookup_tiles(&key), Some(&vec![Tile::Dummy]));
    }

    /// `apply_fill` keeps the first result for a label. The kernels are
    /// deterministic, so duplicate fills (e.g. the same label expanded
    /// by two builds racing on a shared cache's fill queue) carry
    /// identical payloads — but the first-wins contract is what makes
    /// the order of deferred fills irrelevant, so it is pinned here.
    #[test]
    fn first_fill_wins() {
        let (_, cl, _) = setup("p & q");
        let mut cache = ExpansionCache::new();
        let key = label(&cl, &[0]);
        let first = vec![label(&cl, &[1])];
        let second = vec![label(&cl, &[2])];
        cache.apply_fill(CacheFill::Blocks(key.clone(), first.clone()));
        cache.apply_fill(CacheFill::Blocks(key.clone(), second));
        assert_eq!(cache.len(), (1, 0), "duplicate fill adds no entry");
        assert_eq!(cache.lookup_blocks(&key), Some(&first));
    }

    /// Entry-cap eviction removes entries strictly in admission order,
    /// and an evicted label can be re-filled, re-entering at the tail.
    #[test]
    fn entry_cap_evicts_in_admission_order() {
        let (_, cl, _) = setup("p & q");
        let mut cache = ExpansionCache::new();
        for i in 0..4u32 {
            cache.apply_fill(CacheFill::Blocks(label(&cl, &[i]), vec![label(&cl, &[i])]));
        }
        assert_eq!(cache.evict_to(CacheLimits::unlimited()), (0, 0));
        assert_eq!(cache.len(), (4, 0));

        let limits = CacheLimits {
            max_entries: Some(2),
            max_bytes: None,
        };
        let (evicted, freed) = cache.evict_to(limits);
        assert_eq!(evicted, 2);
        assert!(freed > 0);
        assert_eq!(cache.len(), (2, 0));
        // The two oldest admissions are gone, the two newest survive.
        assert!(cache.lookup_blocks(&label(&cl, &[0])).is_none());
        assert!(cache.lookup_blocks(&label(&cl, &[1])).is_none());
        assert!(cache.lookup_blocks(&label(&cl, &[2])).is_some());
        assert!(cache.lookup_blocks(&label(&cl, &[3])).is_some());
        assert_eq!(cache.eviction_counters(), (2, freed));

        // Re-filling an evicted label re-admits it at the tail: the
        // next eviction round takes label 2, not the re-filled 0.
        cache.apply_fill(CacheFill::Blocks(label(&cl, &[0]), vec![label(&cl, &[0])]));
        assert_eq!(cache.evict_to(limits), (1, freed / 2));
        assert!(cache.lookup_blocks(&label(&cl, &[2])).is_none());
        assert!(cache.lookup_blocks(&label(&cl, &[0])).is_some());
    }

    /// Byte-cap eviction frees oldest entries until under the cap, with
    /// the byte accounting consistent between `bytes()`, the eviction
    /// return, and the lifetime counters.
    #[test]
    fn byte_cap_evicts_until_under() {
        let (_, cl, _) = setup("p & q");
        let mut cache = ExpansionCache::new();
        cache.apply_fill(CacheFill::Tiles(label(&cl, &[0]), vec![Tile::Dummy]));
        cache.apply_fill(CacheFill::Blocks(label(&cl, &[1]), vec![label(&cl, &[2])]));
        let full = cache.bytes();
        assert!(full > 0);

        let limits = CacheLimits {
            max_entries: None,
            max_bytes: Some(full - 1),
        };
        let (evicted, freed) = cache.evict_to(limits);
        assert_eq!(evicted, 1, "one eviction suffices to get under the cap");
        assert_eq!(cache.bytes(), full - freed);
        assert!(cache.bytes() < full);
        // Admission order: the tiles entry was older and is the victim.
        assert_eq!(cache.len(), (1, 0));
        assert_eq!(cache.eviction_counters(), (1, freed));
    }

    /// A warm multi-threaded build served by a cache filled by a cold
    /// single-threaded build produces the bit-identical tableau, hits
    /// on every unique label, and inserts nothing new — the end-to-end
    /// contract of deferred [`CacheFill`]s under the work-stealing
    /// scheduler.
    #[test]
    fn warm_multithreaded_build_matches_cold() {
        let (props, cl, root) = setup("p & AG(EX1 true) & AF(q)");
        let (plain, _) = build_with_threads(&cl, &props, root.clone(), &FaultSpec::none(), 1);
        let mut cache = ExpansionCache::new();
        let (cold, cold_prof, fills) = build_governed(
            &cl,
            &props,
            BuildStart::Fresh(root.clone()),
            &FaultSpec::none(),
            1,
            Some(&cache),
            None,
        )
        .expect("ungoverned build completes");
        for fill in fills {
            cache.apply_fill(fill);
        }
        assert_eq!(
            cold_prof.cache_hits, 0,
            "interning makes every label unique within one build"
        );
        assert!(cold_prof.cache_misses > 0);
        let (warm, warm_prof, fills) = build_governed(
            &cl,
            &props,
            BuildStart::Fresh(root),
            &FaultSpec::none(),
            4,
            Some(&cache),
            None,
        )
        .expect("ungoverned build completes");
        assert!(fills.is_empty(), "warm build adds no entries");
        assert!(warm_prof.cache_hits > 0);
        assert_eq!(warm_prof.cache_misses, 0, "warm build is fully served");
        for t in [&cold, &warm] {
            assert_eq!(plain.len(), t.len());
            for id in plain.node_ids() {
                assert_eq!(plain.node(id).label, t.node(id).label, "{id:?}");
                assert_eq!(plain.node(id).kind, t.node(id).kind, "{id:?}");
                assert_eq!(plain.node(id).succ, t.node(id).succ, "{id:?}");
            }
        }
    }
}
