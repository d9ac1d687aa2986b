//! Error types for protocol execution.

use ring_sim::RingError;
use std::error::Error;
use std::fmt;

/// Errors produced while setting up or executing a protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// An error bubbled up from the kinematic substrate.
    Sim(RingError),
    /// An agent attempted to idle in a model that forbids idling.
    IdleForbidden {
        /// Index of the offending agent.
        agent: usize,
        /// The model in force.
        model: ring_sim::Model,
    },
    /// The number of per-agent items supplied does not match the ring size.
    LengthMismatch {
        /// What was being supplied.
        what: &'static str,
        /// Number of items supplied.
        got: usize,
        /// Expected number (the ring size).
        expected: usize,
    },
    /// Agent identifiers must be distinct and within `[1, N]`.
    InvalidIds {
        /// Human-readable reason.
        reason: String,
    },
    /// A protocol exceeded its round budget, indicating either a bug or a
    /// configuration outside the protocol's assumptions.
    RoundBudgetExceeded {
        /// Name of the protocol.
        protocol: &'static str,
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The protocol reached a state that contradicts its invariants.
    Internal {
        /// Name of the protocol.
        protocol: &'static str,
        /// Human-readable description.
        reason: String,
    },
    /// The requested task is impossible in the given setting (for example
    /// location discovery in the basic model with even `n`, Lemma 5).
    Unsolvable {
        /// Human-readable reason, typically citing the paper's lemma.
        reason: &'static str,
    },
    /// The executor's round limit was reached (see
    /// [`Network::with_round_limit`](crate::exec::Network::with_round_limit)).
    /// Fault-injection harnesses use this as the timeout signal for runs
    /// that degrade past usefulness.
    RoundLimitReached {
        /// The limit that was hit.
        limit: u64,
    },
    /// An undo ([`Network::undo_last`](crate::exec::Network::undo_last) or
    /// [`Network::rewind`](crate::exec::Network::rewind)) found no round it
    /// may revert.
    NothingToUndo {
        /// Why the undo was refused.
        reason: &'static str,
    },
}

impl ProtocolError {
    /// Fails with [`ProtocolError::LengthMismatch`] naming the first of
    /// `slices` — each what it holds and its length — that does not hold
    /// one item per agent of a ring of `n`.
    pub(crate) fn check_lengths(
        n: usize,
        slices: &[(&'static str, usize)],
    ) -> Result<(), ProtocolError> {
        match slices.iter().find(|&&(_, got)| got != n) {
            Some(&(what, got)) => Err(ProtocolError::LengthMismatch {
                what,
                got,
                expected: n,
            }),
            None => Ok(()),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Sim(e) => write!(f, "substrate error: {e}"),
            ProtocolError::IdleForbidden { agent, model } => {
                write!(f, "agent {agent} chose to idle in the {model} model")
            }
            ProtocolError::LengthMismatch {
                what,
                got,
                expected,
            } => write!(f, "expected {expected} {what}, got {got}"),
            ProtocolError::InvalidIds { reason } => write!(f, "invalid identifiers: {reason}"),
            ProtocolError::RoundBudgetExceeded { protocol, budget } => {
                write!(
                    f,
                    "protocol {protocol} exceeded its budget of {budget} rounds"
                )
            }
            ProtocolError::Internal { protocol, reason } => {
                write!(
                    f,
                    "protocol {protocol} violated an internal invariant: {reason}"
                )
            }
            ProtocolError::Unsolvable { reason } => write!(f, "task is unsolvable: {reason}"),
            ProtocolError::RoundLimitReached { limit } => {
                write!(f, "executor round limit of {limit} rounds reached")
            }
            ProtocolError::NothingToUndo { reason } => write!(f, "nothing to undo: {reason}"),
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RingError> for ProtocolError {
    fn from(e: RingError) -> Self {
        ProtocolError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let errors: Vec<ProtocolError> = vec![
            ProtocolError::Sim(RingError::TooFewAgents { n: 1, min: 5 }),
            ProtocolError::IdleForbidden {
                agent: 0,
                model: ring_sim::Model::Basic,
            },
            ProtocolError::LengthMismatch {
                what: "ids",
                got: 1,
                expected: 2,
            },
            ProtocolError::InvalidIds {
                reason: "duplicate".into(),
            },
            ProtocolError::RoundBudgetExceeded {
                protocol: "test",
                budget: 10,
            },
            ProtocolError::Internal {
                protocol: "test",
                reason: "oops".into(),
            },
            ProtocolError::Unsolvable { reason: "Lemma 5" },
            ProtocolError::RoundLimitReached { limit: 100 },
            ProtocolError::NothingToUndo { reason: "no round" },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn sim_errors_convert_and_expose_source() {
        let e: ProtocolError = RingError::PositionGeneration { n: 3 }.into();
        assert!(matches!(e, ProtocolError::Sim(_)));
        assert!(Error::source(&e).is_some());
    }
}
