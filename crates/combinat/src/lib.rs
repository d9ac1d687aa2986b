//! # ring-combinat
//!
//! Combinatorial substrate for the deterministic symmetry-breaking protocols
//! of "Deterministic Symmetry Breaking in Ring Networks" (ICDCS 2015):
//!
//! * [`IdSet`] — compact sets of agent identifiers over a universe `[1, N]`;
//! * [`Distinguisher`] — families of subsets of `[N]` such that every pair
//!   of disjoint `n`-element subsets is told apart by some member
//!   (Definition 20 of the paper). The size of the smallest distinguisher is
//!   `Θ(n·log(N/n)/log n)` (Lemma 23 / Corollary 29), which is exactly the
//!   complexity of the nontrivial-move problem in the basic model with even
//!   `n`;
//! * [`StrongDistinguisher`] — the prefix-closed variant used when the
//!   network size is unknown (Definition 21);
//! * [`SelectiveFamily`] — `(N, n)`-selective families (Definition 35,
//!   following Clementi–Monti–Silvestri), held implicitly as the membership
//!   function [`implicit_member`] that the perceptive-model
//!   nontrivial-move algorithm `NMoveS` executes;
//! * [`bounds`] — closed-form evaluation of the paper's lower and upper
//!   bound formulas, used by the experiment harness to compare measured
//!   round counts against theory;
//! * [`shared`] — the cache-key model ([`StructureKey`]) and the
//!   thread-shareable [`SharedStrongDistinguisher`], which let the
//!   `ring-harness` sweep engine construct each structure once and share it
//!   read-only across worker threads;
//! * [`codec`] — the `structure-store/v3` binary codec (one word-exact,
//!   self-describing file per structure key, sealed by an FNV-1a-64
//!   digest) behind the on-disk structure store, which extends the
//!   construct-once guarantee for distinguishers from one process to a
//!   whole worker fleet.
//!
//! All random constructions are deterministic given a seed, so protocol runs
//! and experiments are reproducible.
//!
//! # Example
//!
//! ```
//! use ring_combinat::{Distinguisher, IdSet};
//!
//! // A distinguisher over the ID universe [1, 32] for sets of size 4,
//! // constructed with the probabilistic method.
//! let d = Distinguisher::random(32, 4, 0xfeed);
//! assert!(d.len() > 0);
//! let x1 = IdSet::from_ids(32, [1, 5, 9, 13]);
//! let x2 = IdSet::from_ids(32, [2, 6, 10, 14]);
//! assert!(d.distinguishes(&x1, &x2));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bounds;
pub mod codec;
pub mod distinguisher;
pub mod idset;
pub mod reference;
pub mod selective;
pub mod shared;

pub use bounds::{
    distinguisher_size_lower_bound, intersection_free_log_bound, nontrivial_move_round_bound,
    selective_family_size_bound,
};
pub use codec::{format_checksum, CodecError, Fnv1a64, STORE_SCHEMA};
pub use distinguisher::{Distinguisher, StrongDistinguisher};
pub use idset::IdSet;
pub use selective::{implicit_member, SelectiveFamily};
pub use shared::{
    strong_offset, SharedStrongDistinguisher, StrongBase, StructureKey, StructureKind,
    STRONG_WINDOW,
};
