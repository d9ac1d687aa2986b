//! Thread-shareable combinatorial structures and the cache-key model used
//! by the `ring-harness` structure cache.
//!
//! The expensive structures of this crate
//! ([`Distinguisher`](crate::Distinguisher) and the lazily generated
//! strong-distinguisher sequences) are pure functions of
//! `(kind, N, n, seed)`. [`StructureKey`]
//! names one such construction so that a sweep harness can memoise it once
//! and share it — read-only, behind an `Arc` — across worker threads.
//!
//! [`SharedStrongDistinguisher`] is the concurrent counterpart of
//! [`StrongDistinguisher`](crate::StrongDistinguisher): the same seeded set
//! sequence (set `i` is generated independently of every other index), but
//! with the materialised prefix behind an `RwLock` so that many protocol
//! runs can extend and read it concurrently. Both types generate their sets
//! through one shared helper, so `shared.set(i)` equals `strong.set(i)` for
//! every index — protocol outcomes cannot depend on which variant served
//! the sets.

use crate::distinguisher::universal_strong_set;
use crate::idset::IdSet;
use std::sync::{Arc, RwLock};

/// Number of distinct window offsets a seed can select into the universal
/// strong sequence (see [`strong_offset`]). Kept small so the shared blob a
/// seed-diverse sweep stores stays within one window of the longest demanded
/// prefix — `K` seeds share one blob of at most `prefix + STRONG_WINDOW`
/// sets instead of `K` full per-seed files.
pub const STRONG_WINDOW: u64 = 64;

/// The window offset a seed selects into the universal strong sequence of
/// its universe: seed `s`'s sequence is `universal[offset(s)..]`. A pure
/// function of the seed, so every participant of a sweep — worker threads,
/// worker processes, the prebuild tooling — agrees on the window.
pub fn strong_offset(seed: u64) -> usize {
    (splitmix64(seed ^ 0x005e_ed0f_f5e7) % STRONG_WINDOW) as usize
}

/// Which combinatorial structure a cache entry holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// A lazily generated strong-distinguisher sequence (Definition 21);
    /// the set-size parameter `n` of the key is 0 because one sequence
    /// serves every ring size.
    StrongDistinguisher,
    /// A materialised `(N, n)`-distinguisher (Definition 20).
    Distinguisher,
    /// An `(N, n)`-selective family (Definition 35). Implicit, so never
    /// cached or stored; the kind still names it in keys and file headers.
    SelectiveFamily,
}

/// The identity of one deterministic construction: everything the random
/// constructions of this crate depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StructureKey {
    /// The structure kind.
    pub kind: StructureKind,
    /// Identifier universe size `N`.
    pub universe: u64,
    /// Target set size `n` (0 for kinds that do not take one).
    pub n: u64,
    /// Construction seed.
    pub seed: u64,
}

impl StructureKind {
    /// The stable numeric code of the kind, shared by the cache-shard mixer
    /// and the `structure-store/v3` file headers.
    pub fn code(self) -> u64 {
        match self {
            StructureKind::StrongDistinguisher => 1,
            StructureKind::Distinguisher => 2,
            StructureKind::SelectiveFamily => 3,
        }
    }

    /// The kind for a numeric code (`None` for unknown codes — a decoder
    /// must reject them, not guess).
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(StructureKind::StrongDistinguisher),
            2 => Some(StructureKind::Distinguisher),
            3 => Some(StructureKind::SelectiveFamily),
            _ => None,
        }
    }
}

impl StructureKey {
    /// A well-mixed 64-bit hash of the key (splitmix64 over the fields),
    /// used by sharded caches to pick a shard without pulling in a hasher.
    pub fn mix(&self) -> u64 {
        let mut x = self.kind.code();
        for field in [self.universe, self.n, self.seed] {
            x = splitmix64(x ^ field);
        }
        x
    }
}

/// One splitmix64 step: a cheap, high-quality 64-bit mixer.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The lazily materialised **universal** strong sequence of one universe —
/// the object every seed's [`SharedStrongDistinguisher`] is a window into,
/// and the one prefix-extendable file per universe the structure store
/// persists.
///
/// `set(j)` is generated on first demand (under a write lock) and served as
/// a cheap `Arc` clone afterwards (under a read lock). Generation of set
/// `j` depends only on `(universe, j)`, so the contents are identical no
/// matter which thread — or which seed's view — extends the prefix, or in
/// what order.
#[derive(Debug)]
pub struct StrongBase {
    universe: u64,
    sets: RwLock<Vec<Arc<IdSet>>>,
}

impl StrongBase {
    /// Creates an empty universal sequence over `[1, universe]`.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        Self::with_prefix(universe, Vec::new())
    }

    /// Creates a universal sequence whose first `prefix.len()` sets are
    /// already materialised — the load path of the on-disk structure store.
    /// The caller asserts that `prefix[j]` equals the set the universal
    /// generator would produce for index `j` (the codec's digest plus the
    /// deterministic construction guarantee this); sets beyond the prefix
    /// are generated lazily.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0` or a prefix set has a different universe.
    pub fn with_prefix(universe: u64, prefix: Vec<IdSet>) -> Self {
        assert!(universe > 0);
        assert!(
            prefix.iter().all(|s| s.universe() == universe),
            "prefix sets must share the sequence's universe"
        );
        StrongBase {
            universe,
            sets: RwLock::new(prefix.into_iter().map(Arc::new).collect()),
        }
    }

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The `j`-th set of the universal sequence, generating it on demand.
    pub fn set(&self, j: usize) -> Arc<IdSet> {
        {
            let sets = self.sets.read().expect("strong base lock");
            if let Some(set) = sets.get(j) {
                return Arc::clone(set);
            }
        }
        let mut sets = self.sets.write().expect("strong base lock");
        while sets.len() <= j {
            let idx = sets.len();
            sets.push(Arc::new(universal_strong_set(self.universe, idx)));
        }
        Arc::clone(&sets[j])
    }

    /// A snapshot of the materialised prefix, in index order — what the
    /// structure store persists.
    pub fn materialized(&self) -> Vec<Arc<IdSet>> {
        self.sets.read().expect("strong base lock").clone()
    }

    /// Number of sets materialised so far (grows monotonically).
    pub fn materialized_len(&self) -> usize {
        self.sets.read().expect("strong base lock").len()
    }
}

/// A strong distinguisher whose materialised prefix is shared across
/// threads — and, through its [`StrongBase`], across every seed of the same
/// universe: the view's set `i` is the universal sequence's set
/// `offset(seed) + i`.
///
/// `set(i)` equals
/// [`StrongDistinguisher::set`](crate::StrongDistinguisher::set) for the
/// same `(universe, seed, i)`, so protocol outcomes cannot depend on which
/// variant — or which shared base — served the sets.
#[derive(Debug)]
pub struct SharedStrongDistinguisher {
    seed: u64,
    offset: usize,
    base: Arc<StrongBase>,
}

impl SharedStrongDistinguisher {
    /// Creates a shared strong distinguisher over `[1, universe]` with its
    /// own private base.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64, seed: u64) -> Self {
        Self::with_base(seed, Arc::new(StrongBase::new(universe)))
    }

    /// Creates a seed's view onto an existing universal sequence — how the
    /// structure store hands every seed of one universe the same base (and
    /// therefore the same in-memory materialisation and the same on-disk
    /// blob).
    pub fn with_base(seed: u64, base: Arc<StrongBase>) -> Self {
        SharedStrongDistinguisher {
            seed,
            offset: strong_offset(seed),
            base,
        }
    }

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.base.universe()
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed's window offset into the universal sequence.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The shared universal sequence this view reads through.
    pub fn base(&self) -> &Arc<StrongBase> {
        &self.base
    }

    /// The `i`-th set of the sequence (0-indexed), generating it on demand.
    /// Equal to [`StrongDistinguisher::set`](crate::StrongDistinguisher::set)
    /// for the same `(universe, seed, i)`.
    pub fn set(&self, i: usize) -> Arc<IdSet> {
        self.base.set(self.offset + i)
    }

    /// Number of sets of **this view** already materialised (the base may
    /// hold more, for other windows).
    pub fn materialized_len(&self) -> usize {
        self.base.materialized_len().saturating_sub(self.offset)
    }

    /// Length of the prefix expected to distinguish disjoint sets of size
    /// `n` — identical to
    /// [`StrongDistinguisher::prefix_size_for`](crate::StrongDistinguisher::prefix_size_for).
    pub fn prefix_size_for(&self, n: usize) -> usize {
        crate::distinguisher::strong_prefix_size_for(self.base.universe(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrongDistinguisher;

    #[test]
    fn shared_sets_equal_the_sequential_strong_distinguisher() {
        let shared = SharedStrongDistinguisher::new(1 << 12, 99);
        let mut strong = StrongDistinguisher::new(1 << 12, 99);
        // Demand sets out of order to exercise the lazy fill.
        for i in [5usize, 0, 3, 7, 1] {
            assert_eq!(&*shared.set(i), strong.set(i), "set {i}");
        }
        assert_eq!(shared.materialized_len(), 8);
        assert_eq!(shared.prefix_size_for(16), strong.prefix_size_for(16));
    }

    #[test]
    fn shared_sets_are_identical_across_threads() {
        let shared = Arc::new(SharedStrongDistinguisher::new(1 << 10, 7));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    (0..16usize)
                        .map(|i| shared.set((i + t) % 16).len() as u64)
                        .sum::<u64>()
                })
            })
            .collect();
        let sums: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(sums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn seeded_views_share_one_base_and_window_the_universal_sequence() {
        let base = Arc::new(StrongBase::new(1 << 10));
        let a = SharedStrongDistinguisher::with_base(7, Arc::clone(&base));
        let b = SharedStrongDistinguisher::with_base(1234, Arc::clone(&base));
        // Each view equals its own freshly constructed sequence…
        for i in 0..4 {
            assert_eq!(
                *a.set(i),
                *SharedStrongDistinguisher::new(1 << 10, 7).set(i)
            );
            assert_eq!(
                *b.set(i),
                *SharedStrongDistinguisher::new(1 << 10, 1234).set(i)
            );
        }
        // …and both read through the same universal materialisation.
        let longest = a.offset().max(b.offset()) + 4;
        assert_eq!(base.materialized_len(), longest);
        assert_eq!(*a.set(0), *base.set(a.offset()));
        // Window offsets stay inside the bounded window.
        for seed in 0..1000u64 {
            assert!((strong_offset(seed) as u64) < STRONG_WINDOW);
        }
    }

    #[test]
    fn structure_keys_mix_distinctly() {
        let a = StructureKey {
            kind: StructureKind::Distinguisher,
            universe: 1024,
            n: 8,
            seed: 1,
        };
        let b = StructureKey {
            kind: StructureKind::SelectiveFamily,
            ..a
        };
        let c = StructureKey { seed: 2, ..a };
        assert_ne!(a.mix(), b.mix());
        assert_ne!(a.mix(), c.mix());
        assert_eq!(a.mix(), a.mix());
    }
}
