//! Shared combinatorial-structure providers.
//!
//! The distinguisher-driven protocols need expensive seeded structures —
//! strong distinguishers for the even-`n` nontrivial move, and (in the
//! experiment harness) materialised distinguishers. Constructing them is
//! the dominant per-run cost at large `N`, and the constructions are pure
//! functions of `(kind, N, n, seed)`, so a sweep over many configurations
//! should build each one once and share it. Selective families are
//! implicit (a seed and a membership function), so every provider builds
//! them on demand.
//!
//! [`StructureProvider`] is the seam: every [`Network`](crate::Network)
//! carries one (an `Arc<dyn StructureProvider>`), protocols request
//! structures through it instead of constructing their own, and the
//! provider decides whether to construct afresh ([`FreshStructures`], the
//! default — the behaviour of a standalone protocol run) or to serve a
//! shared memo (the `ring-harness` structure cache). Because the served
//! structures are bit-identical either way, protocol outcomes never depend
//! on the provider.

use ring_combinat::{Distinguisher, SelectiveFamily, SharedStrongDistinguisher};
use std::fmt;
use std::sync::Arc;

/// Why a provider's persistent tier could not serve a structure.
///
/// The infallible [`StructureProvider`] methods absorb these by falling
/// back to construction (a broken disk tier may cost time, never
/// correctness); the `try_*` methods surface them, so maintenance paths —
/// store verification, prebuild tooling — can report a corrupt or
/// unreadable tier instead of silently rebuilding behind it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureError {
    message: String,
}

impl StructureError {
    /// Wraps a human-readable description of the failure.
    pub fn new(message: impl Into<String>) -> Self {
        StructureError {
            message: message.into(),
        }
    }
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for StructureError {}

/// A source of seeded combinatorial structures.
///
/// Implementations must be deterministic: the returned structure may only
/// depend on the method's parameters (this is what makes sweep results
/// independent of caching, thread count and scheduling order).
///
/// The `try_*` methods are the **fallible load-or-construct path**: a
/// provider backed by a persistent tier (the `ring-harness` structure
/// store) overrides them to report load failures, while the infallible
/// methods — what the protocols call — must always produce the structure,
/// falling back to construction if the tier is broken. The default `try_*`
/// implementations delegate to the infallible methods and never fail.
pub trait StructureProvider: Send + Sync {
    /// A strong `(N, ·)`-distinguisher sequence over `[1, universe]`.
    fn strong_distinguisher(&self, universe: u64, seed: u64) -> Arc<SharedStrongDistinguisher>;

    /// A materialised `(N, n)`-distinguisher (Theorem 27 construction).
    fn distinguisher(&self, universe: u64, n: usize, seed: u64) -> Arc<Distinguisher>;

    /// An `(N, n)`-selective family (Definition 35 construction). The
    /// family is implicit and O(log n) to build, so it is never shared or
    /// stored: every provider constructs it on demand.
    fn selective_family(&self, universe: u64, n: usize, seed: u64) -> Arc<SelectiveFamily> {
        Arc::new(SelectiveFamily::random(universe, n, seed))
    }

    /// Fallible variant of [`StructureProvider::strong_distinguisher`].
    ///
    /// # Errors
    ///
    /// Providers with a persistent tier report why a load failed.
    fn try_strong_distinguisher(
        &self,
        universe: u64,
        seed: u64,
    ) -> Result<Arc<SharedStrongDistinguisher>, StructureError> {
        Ok(self.strong_distinguisher(universe, seed))
    }

    /// Fallible variant of [`StructureProvider::distinguisher`].
    ///
    /// # Errors
    ///
    /// Providers with a persistent tier report why a load failed.
    fn try_distinguisher(
        &self,
        universe: u64,
        n: usize,
        seed: u64,
    ) -> Result<Arc<Distinguisher>, StructureError> {
        Ok(self.distinguisher(universe, n, seed))
    }
}

/// A shareable handle to a structure provider.
pub type SharedStructures = Arc<dyn StructureProvider>;

/// The default provider: constructs every structure from scratch on every
/// request, exactly as the protocols did before providers existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreshStructures;

impl StructureProvider for FreshStructures {
    fn strong_distinguisher(&self, universe: u64, seed: u64) -> Arc<SharedStrongDistinguisher> {
        Arc::new(SharedStrongDistinguisher::new(universe, seed))
    }

    fn distinguisher(&self, universe: u64, n: usize, seed: u64) -> Arc<Distinguisher> {
        Arc::new(Distinguisher::random(universe, n, seed))
    }
}

/// A fresh (non-caching) provider handle — the default of
/// [`Network::new`](crate::Network::new).
pub fn fresh_structures() -> SharedStructures {
    Arc::new(FreshStructures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_provider_is_deterministic() {
        let p = FreshStructures;
        let a = p.distinguisher(256, 4, 9);
        let b = p.distinguisher(256, 4, 9);
        assert_eq!(*a, *b);
        let s = p.strong_distinguisher(256, 9);
        let t = p.strong_distinguisher(256, 9);
        assert_eq!(*s.set(2), *t.set(2));
    }

    #[test]
    fn default_fallible_path_constructs_infallibly() {
        let p = FreshStructures;
        assert_eq!(
            *p.try_distinguisher(128, 4, 3).unwrap(),
            *p.distinguisher(128, 4, 3)
        );
        assert_eq!(
            *p.try_strong_distinguisher(128, 3).unwrap().set(1),
            *p.strong_distinguisher(128, 3).set(1)
        );
        let err = StructureError::new("tier unreadable");
        assert_eq!(err.to_string(), "tier unreadable");
    }

    #[test]
    fn provider_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedStructures>();
        assert_send_sync::<FreshStructures>();
    }
}
