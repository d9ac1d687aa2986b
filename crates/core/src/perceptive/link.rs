//! The collision-based communication layer (Proposition 31 / Corollary 32).
//!
//! Once an agent knows the gaps to its neighbours and their relative
//! chirality (from [`crate::perceptive::neighbors`]), two information
//! rounds suffice to exchange one bit with **both** neighbours
//! simultaneously: an agent encodes its bit in its direction of movement
//! in round A and moves the other way in round B (A's directions, every
//! one flipped), and decodes each neighbour's bit from whether its first
//! collision on that side happened at exactly half the known gap. Each
//! information round is undone before the next round, so both start from
//! the same positions and the exchange ends where it began: four rounds
//! per bit, which [`Network::step_pair_into`] runs in one kernel pass. The
//! decoder reads nothing of the pair but each round's first collision per
//! agent, in ticks, and the pair yields nothing else.
//!
//! On top of the bit exchange, [`RingLink::exchange_frames`] ships
//! fixed-width optional values (a presence bit plus a payload), which is the
//! unit the dissemination primitives are built from.
//!
//! A frame exchange sends its bit planes through one buffer set, and many
//! planes repeat the one before: frames are wider than the values they
//! carry (`RingDist` sizes its label frames by the universe, not by `n`),
//! so the high planes are all zeros, and sparse sources leave the plane
//! near-empty. A repeated plane still runs its four rounds through
//! [`Network::step_pair_into`], which counts them and, on the kernel path,
//! reuses the pair it last simulated instead of simulating it again. What
//! an agent receives is a function of the pair's collisions and its own
//! bit, both unchanged, so the repeated plane is not decoded again either:
//! every agent's last received bit is repeated.

use crate::error::ProtocolError;
use crate::exec::{Network, PairBuffers};
use crate::perceptive::neighbors::{discover_neighbors, NeighborInfo, NeighborMap};
use ring_sim::LocalDirection;
use std::hint::select_unpredictable;

/// Reusable scratch for the zero-alloc bit exchange
/// ([`RingLink::exchange_bits_with`]): the direction buffer of round A and
/// the [`PairBuffers`] holding both information rounds' first collisions.
#[derive(Clone, Debug, Default)]
pub struct LinkBuffers {
    dirs: Vec<LocalDirection>,
    pair: PairBuffers,
}

impl LinkBuffers {
    /// Creates an empty buffer set (vectors grow to the ring size on first
    /// use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable scratch for the zero-alloc frame exchange
/// ([`RingLink::exchange_frames_with`]): the underlying [`LinkBuffers`],
/// the values as payload words, and per agent the payload bits received
/// so far from the right and from the left.
#[derive(Clone, Debug, Default)]
pub struct FrameBuffers {
    link: LinkBuffers,
    words: Vec<u64>,
    payloads: Vec<[u64; 2]>,
}

impl FrameBuffers {
    /// Creates an empty buffer set (vectors grow to the ring size on first
    /// use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Bits received from the two neighbours in one exchange slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborBits {
    /// Bit sent by the neighbour on the agent's right.
    pub from_right: bool,
    /// Bit sent by the neighbour on the agent's left.
    pub from_left: bool,
}

/// Optional values received from the two neighbours in one frame exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborFrames {
    /// Value sent by the neighbour on the agent's right, if it had one.
    pub from_right: Option<u64>,
    /// Value sent by the neighbour on the agent's left, if it had one.
    pub from_left: Option<u64>,
}

/// A communication link between ring neighbours, built purely out of
/// collisions.
#[derive(Clone, Debug)]
pub struct RingLink {
    infos: Vec<NeighborInfo>,
}

impl RingLink {
    /// Establishes the link by running neighbour discovery. Returns the link
    /// together with the number of rounds spent.
    ///
    /// # Errors
    ///
    /// Propagates errors from neighbour discovery.
    pub fn establish(net: &mut Network<'_>) -> Result<(Self, u64), ProtocolError> {
        let map = discover_neighbors(net)?;
        let rounds = map.rounds();
        Ok((Self::from_neighbor_map(&map), rounds))
    }

    /// Builds a link from an existing neighbour map.
    pub fn from_neighbor_map(map: &NeighborMap) -> Self {
        RingLink {
            infos: map.infos().to_vec(),
        }
    }

    /// Number of agents on the link.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the link is empty (never true for valid rings).
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Per-agent neighbour information the link was built from.
    pub fn infos(&self) -> &[NeighborInfo] {
        &self.infos
    }

    /// Exchanges one bit with both neighbours (Proposition 31). `bits[i]` is
    /// the bit agent `i` transmits; the result contains the bits each agent
    /// received. Costs 4 rounds: round A, in which bit 1 moves right and
    /// bit 0 left, round B with every direction flipped, each followed by
    /// its reversal. So both information rounds start from — and the
    /// exchange ends at — the same positions, which is what makes the gap
    /// comparison in the decoder valid. The reversals are undo rounds,
    /// counted but not simulated (an active fault plan refuses them); the
    /// four rounds run as one [`Network::step_pair_into`].
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; returns [`ProtocolError::LengthMismatch`]
    /// if `bits` has the wrong length.
    pub fn exchange_bits(
        &self,
        net: &mut Network<'_>,
        bits: &[bool],
    ) -> Result<Vec<NeighborBits>, ProtocolError> {
        let mut bufs = LinkBuffers::new();
        let mut out = Vec::with_capacity(self.infos.len());
        self.exchange_bits_with(net, bits, &mut bufs, &mut out)?;
        Ok(out)
    }

    /// Zero-alloc variant of [`RingLink::exchange_bits`]: the four rounds
    /// execute through caller-owned buffers and the received bits are
    /// written into `out` (cleared first). After the buffers reach the ring
    /// size, no exchange allocates.
    ///
    /// # Errors
    ///
    /// Same as [`RingLink::exchange_bits`].
    pub fn exchange_bits_with(
        &self,
        net: &mut Network<'_>,
        bits: &[bool],
        bufs: &mut LinkBuffers,
        out: &mut Vec<NeighborBits>,
    ) -> Result<(), ProtocolError> {
        let n = self.infos.len();
        if bits.len() != n {
            return Err(ProtocolError::LengthMismatch {
                what: "bits",
                got: bits.len(),
                expected: n,
            });
        }
        // Round A: bit 1 ↦ right, bit 0 ↦ left; round B: the opposite
        // encoding.
        bufs.dirs.clear();
        bufs.dirs
            .extend(bits.iter().map(|&b| LocalDirection::from_bit(b)));
        net.step_pair_into(&bufs.dirs, &mut bufs.pair)?;
        out.clear();
        out.extend(self.received(bufs));
        Ok(())
    }

    /// What every agent received in the pair `bufs` holds, decoded from
    /// the pair's collisions and the agent's own bit (its direction in
    /// round A).
    fn received<'b>(&'b self, bufs: &'b LinkBuffers) -> impl Iterator<Item = NeighborBits> + 'b {
        let rounds = bufs
            .pair
            .collisions_a()
            .iter()
            .zip(bufs.pair.collisions_b());
        bufs.dirs
            .iter()
            .zip(&self.infos)
            .zip(rounds)
            .map(|((&dir, info), (&coll_a, &coll_b))| {
                decode(dir == LocalDirection::Right, info, coll_a, coll_b)
            })
    }

    /// Exchanges a fixed-width optional value with both neighbours: one
    /// presence bit followed by `bits` payload bits (most significant
    /// first). Costs `4 · (bits + 1)` rounds and restores all positions.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; returns [`ProtocolError::LengthMismatch`]
    /// if `values` has the wrong length, and [`ProtocolError::Internal`] if
    /// `bits` exceeds 64 or a value does not fit in `bits` bits. Both are
    /// refused before any round runs.
    pub fn exchange_frames(
        &self,
        net: &mut Network<'_>,
        values: &[Option<u64>],
        bits: u32,
    ) -> Result<Vec<NeighborFrames>, ProtocolError> {
        let mut bufs = FrameBuffers::new();
        let mut out = Vec::with_capacity(self.infos.len());
        self.exchange_frames_with(net, values, bits, &mut bufs, &mut out)?;
        Ok(out)
    }

    /// Zero-alloc variant of [`RingLink::exchange_frames`]: all
    /// `4 · (bits + 1)` rounds run through caller-owned buffers and the
    /// received frames are written into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Same as [`RingLink::exchange_frames`].
    pub fn exchange_frames_with(
        &self,
        net: &mut Network<'_>,
        values: &[Option<u64>],
        bits: u32,
        bufs: &mut FrameBuffers,
        out: &mut Vec<NeighborFrames>,
    ) -> Result<(), ProtocolError> {
        let n = self.infos.len();
        if values.len() != n {
            return Err(ProtocolError::LengthMismatch {
                what: "frame values",
                got: values.len(),
                expected: n,
            });
        }
        let refuse = |reason: String| ProtocolError::Internal {
            protocol: "frame-exchange",
            reason,
        };
        if bits > u64::BITS {
            return Err(refuse(format!(
                "a {bits}-bit frame exceeds the 64-bit payload"
            )));
        }
        for (agent, &v) in values.iter().enumerate() {
            // `checked_shr` is `None` at 64 bits, where every value fits.
            if let Some(v) = v.filter(|v| v.checked_shr(bits).is_some_and(|high| high != 0)) {
                return Err(refuse(format!(
                    "agent {agent}'s value {v} does not fit in a {bits}-bit frame"
                )));
            }
        }
        // An absent value sends zeros; `unwrap_or` selects where
        // `is_some_and` would branch on each agent's presence.
        bufs.words.clear();
        bufs.words.extend(values.iter().map(|v| v.unwrap_or(0)));
        // Bit `p` is set where some agent's payload bit `p` differs from
        // its bit `p + 1`: below the top plane, payload plane `p` repeats
        // the plane before it where bit `p` is clear.
        let changes = bufs
            .words
            .iter()
            .fold(0, |changes, &w| changes | (w ^ (w >> 1)));

        // The presence plane.
        let link = &mut bufs.link;
        link.dirs.clear();
        link.dirs
            .extend(values.iter().map(|v| LocalDirection::from_bit(v.is_some())));
        net.step_pair_into(&link.dirs, &mut link.pair)?;
        out.clear();
        out.extend(self.received(link).map(|rx| NeighborFrames {
            from_right: rx.from_right.then_some(0),
            from_left: rx.from_left.then_some(0),
        }));

        // The payload planes, most significant first, each received bit
        // shifted into the payloads from below.
        bufs.payloads.clear();
        bufs.payloads.resize(n, [0; 2]);
        for plane in (0..bits).rev() {
            let repeated = plane + 1 < bits && changes >> plane & 1 == 0;
            if !repeated {
                link.dirs.clear();
                link.dirs.extend(
                    bufs.words
                        .iter()
                        .map(|&w| LocalDirection::from_bit((w >> plane) & 1 == 1)),
                );
            }
            net.step_pair_into(&link.dirs, &mut link.pair)?;
            if repeated {
                for payload in bufs.payloads.as_flattened_mut() {
                    *payload = *payload << 1 | *payload & 1;
                }
            } else {
                for ([right, left], rx) in bufs.payloads.iter_mut().zip(self.received(link)) {
                    *right = *right << 1 | u64::from(rx.from_right);
                    *left = *left << 1 | u64::from(rx.from_left);
                }
            }
        }
        for (frame, &[right, left]) in out.iter_mut().zip(&bufs.payloads) {
            frame.from_right = frame.from_right.map(|_| right);
            frame.from_left = frame.from_left.map(|_| left);
        }
        Ok(())
    }
}

/// One agent's received bits, from its own `bit` and its first collisions
/// in the pair's rounds A and B, in ticks.
///
/// The decoding selects instead of branching: bits and chiralities can be
/// random, and a branch on them mispredicts at about every other agent.
#[inline(always)]
fn decode(bit: bool, info: &NeighborInfo, coll_a: u64, coll_b: u64) -> NeighborBits {
    // This agent moved right in round A iff its bit is 1. On each side,
    // did the neighbour approach in the round this agent moved towards it?
    // No collision reads as `NO_COLLISION`, a distance no half gap equals.
    let towards_right = select_unpredictable(bit, coll_a, coll_b);
    let towards_left = select_unpredictable(bit, coll_b, coll_a);
    let right_approached = towards_right == info.right_gap.half().ticks();
    let left_approached = towards_left == info.left_gap.half().ticks();
    // A neighbour approached iff it moved towards this agent: the right one
    // by moving left if it shares this agent's chirality and right if not,
    // the left one the other way round. Whether it moved right in that
    // round and whether that round was A give its bit.
    let right_moved_right = right_approached ^ info.right_same_chirality;
    let left_moved_right = left_approached ^ !info.left_same_chirality;
    NeighborBits {
        from_right: right_moved_right == bit,
        from_left: left_moved_right != bit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use ring_sim::{Chirality, Model, RingConfig};

    /// Ground-truth expectation: what each agent should receive given who its
    /// physical neighbours are and everybody's chirality.
    fn expected_bits(net: &Network<'_>, bits: &[bool]) -> Vec<NeighborBits> {
        let config = net.ground_truth_config();
        let n = net.len();
        (0..n)
            .map(|agent| {
                let (right_neighbor, left_neighbor) = if config.chirality(agent).is_aligned() {
                    ((agent + 1) % n, (agent + n - 1) % n)
                } else {
                    ((agent + n - 1) % n, (agent + 1) % n)
                };
                NeighborBits {
                    from_right: bits[right_neighbor],
                    from_left: bits[left_neighbor],
                }
            })
            .collect()
    }

    #[test]
    fn bit_exchange_delivers_both_neighbours_bits() {
        for seed in 0..8u64 {
            let n = 6 + (seed as usize % 3);
            let config = RingConfig::builder(n)
                .random_positions(seed + 11)
                .random_chirality(seed + 29)
                .build()
                .unwrap();
            let mut net = Network::new(
                &config,
                IdAssignment::random(n, 128, seed + 5),
                Model::Perceptive,
            )
            .unwrap();
            let (link, _) = RingLink::establish(&mut net).unwrap();
            // An arbitrary but varied bit pattern.
            let bits: Vec<bool> = (0..n).map(|i| (i as u64 * 7 + seed) % 3 == 1).collect();
            let received = link.exchange_bits(&mut net, &bits).unwrap();
            assert_eq!(received, expected_bits(&net, &bits), "seed {seed}");
            assert!(net.ground_truth_at_initial_positions());
        }
    }

    #[test]
    fn frame_exchange_delivers_optional_values() {
        let n = 8;
        let config = RingConfig::builder(n)
            .random_positions(3)
            .explicit_chirality(vec![
                Chirality::Aligned,
                Chirality::Reversed,
                Chirality::Aligned,
                Chirality::Aligned,
                Chirality::Reversed,
                Chirality::Reversed,
                Chirality::Aligned,
                Chirality::Reversed,
            ])
            .build()
            .unwrap();
        let mut net =
            Network::new(&config, IdAssignment::random(n, 64, 9), Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        let values: Vec<Option<u64>> = (0..n as u64)
            .map(|i| if i % 3 == 0 { Some(i * 13 + 5) } else { None })
            .collect();
        let rounds_before = net.rounds_used();
        let frames = link.exchange_frames(&mut net, &values, 10).unwrap();
        assert_eq!(net.rounds_used() - rounds_before, 4 * 11);

        let config = net.ground_truth_config();
        for (agent, frame) in frames.iter().enumerate() {
            let (right_neighbor, left_neighbor) = if config.chirality(agent).is_aligned() {
                ((agent + 1) % n, (agent + n - 1) % n)
            } else {
                ((agent + n - 1) % n, (agent + 1) % n)
            };
            assert_eq!(frame.from_right, values[right_neighbor]);
            assert_eq!(frame.from_left, values[left_neighbor]);
        }
    }

    #[test]
    fn wrong_lengths_are_rejected() {
        let config = RingConfig::builder(6).random_positions(1).build().unwrap();
        let mut net =
            Network::new(&config, IdAssignment::consecutive(6), Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        assert!(matches!(
            link.exchange_bits(&mut net, &[true, false]),
            Err(ProtocolError::LengthMismatch { .. })
        ));
        assert!(matches!(
            link.exchange_frames(&mut net, &[None, None], 4),
            Err(ProtocolError::LengthMismatch { .. })
        ));
    }

    /// A value wider than the frame, and a frame wider than a `u64`, are
    /// refused before any round runs: the first used to be truncated in
    /// silence, the second to overflow the payload shift.
    #[test]
    fn oversized_frames_are_refused_before_any_round() {
        let config = RingConfig::builder(6).random_positions(2).build().unwrap();
        let mut net =
            Network::new(&config, IdAssignment::consecutive(6), Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        let rounds = net.rounds_used();
        let mut values = vec![None, Some(15), None, Some(3), None, None];
        // Four bits hold 15, and 64 bits hold anything.
        assert!(link.exchange_frames(&mut net, &values, 4).is_ok());
        values[5] = Some(u64::MAX);
        assert!(link.exchange_frames(&mut net, &values, 64).is_ok());
        let rounds = net.rounds_used() - rounds;
        assert_eq!(rounds, 4 * 5 + 4 * 65);

        let before = net.rounds_used();
        values[5] = None;
        values[1] = Some(16);
        let err = link.exchange_frames(&mut net, &values, 4).unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Internal { reason, .. } if reason.contains("agent 1")),
            "{err}"
        );
        values[1] = Some(1);
        let err = link.exchange_frames(&mut net, &values, 65).unwrap_err();
        assert!(matches!(err, ProtocolError::Internal { .. }), "{err}");
        assert_eq!(net.rounds_used(), before);
        assert!(net.ground_truth_at_initial_positions());
    }

    /// `ArcLength::half` is what the decoder compares against; make sure the
    /// gap parity invariant that makes it exact really holds in discovery.
    #[test]
    fn observed_gaps_are_even() {
        let config = RingConfig::builder(7).random_positions(4).build().unwrap();
        let mut net =
            Network::new(&config, IdAssignment::consecutive(7), Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        for info in link.infos() {
            assert_eq!(info.right_gap.ticks() % 2, 0);
            assert_eq!(info.left_gap.ticks() % 2, 0);
            let _ = info.right_gap.half();
        }
    }
}
