//! # ring-sim
//!
//! Exact kinematic substrate for *bouncing mobile agents on a ring*, the
//! model studied in "Deterministic Symmetry Breaking in Ring Networks"
//! (Gąsieniec, Jurdziński, Martin, Stachowiak; ICDCS 2015).
//!
//! `n` point agents live on a circle of circumference 1 and act in
//! synchronised rounds of one unit of time. At the beginning of a round each
//! agent picks a direction — its own *right* (clockwise), its own *left*
//! (anticlockwise) or *idle* (lazy model only) — and then moves at unit
//! speed. Agents may not overpass: when two moving agents meet they bounce
//! (exchange velocities); when a moving agent meets an idle one the motion is
//! transferred. At the end of the round every agent observes
//!
//! * [`Observation::dist`] — the distance between its start and end position
//!   of the round, measured in the agent's **own** clockwise direction, and
//! * [`Observation::coll`] — in the *perceptive* model, the distance from its
//!   start position to its first collision in the round (if any).
//!
//! The crate provides:
//!
//! * exact fixed-point circle geometry ([`geometry`]),
//! * ring configurations and hidden ground truth ([`config`], [`state`]:
//!   by Lemma 1, one rotation offset rather than a permutation),
//! * an O(n)-per-round *analytic engine* based on the rotation-index lemma
//!   and two cyclic first-collision sweeps ([`analytic`]), with the
//!   earlier binary-search engine kept as its exact oracle
//!   ([`reference`](mod@reference)),
//! * a reference *event-driven engine* that simulates every collision
//!   ([`events`]),
//! * the per-agent observation model with local frames ([`observe`],
//!   [`frame`]).
//!
//! # Example
//!
//! ```
//! use ring_sim::prelude::*;
//!
//! # fn main() -> Result<(), RingError> {
//! // Five agents at random (but reproducible) positions, mixed chirality.
//! let config = RingConfig::builder(5)
//!     .random_positions(7)
//!     .random_chirality(11)
//!     .build()?;
//! let mut ring = RingState::new(&config);
//!
//! // Everybody moves towards its own right for one round.
//! // One arena serves every round; after the first, rounds allocate nothing.
//! let dirs = vec![LocalDirection::Right; 5];
//! let mut bufs = RoundBuffers::new();
//! let rotation = ring.execute_round_into(&dirs, EngineKind::Analytic, &mut bufs)?;
//! assert_eq!(bufs.observations.len(), 5);
//! assert_eq!(rotation, rotation_index(bufs.objective_directions()));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analytic;
pub mod config;
pub mod direction;
pub mod error;
pub mod events;
pub mod frame;
pub mod geometry;
pub mod model;
pub mod observe;
pub mod reference;
pub mod rotation;
pub mod state;

pub use analytic::{AnalyticEngine, AnalyticScratch};
pub use config::{RingConfig, RingConfigBuilder};
pub use direction::{Chirality, LocalDirection, ObjectiveDirection};
pub use error::RingError;
pub use events::{CollisionEvent, EventEngine, EventScratch, Trajectory};
pub use frame::Frame;
pub use geometry::{ArcLength, Point, CIRCUMFERENCE};
pub use model::{Model, Parity};
pub use observe::Observation;
pub use rotation::{rotation_index, RotationIndex};
pub use state::{EngineKind, RingState, RoundBuffers};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::analytic::AnalyticEngine;
    pub use crate::config::{RingConfig, RingConfigBuilder};
    pub use crate::direction::{Chirality, LocalDirection, ObjectiveDirection};
    pub use crate::error::RingError;
    pub use crate::events::{EventEngine, EventScratch};
    pub use crate::frame::Frame;
    pub use crate::geometry::{ArcLength, Point, CIRCUMFERENCE};
    pub use crate::model::{Model, Parity};
    pub use crate::observe::Observation;
    pub use crate::rotation::{rotation_index, RotationIndex};
    pub use crate::state::{EngineKind, RingState, RoundBuffers};
}
