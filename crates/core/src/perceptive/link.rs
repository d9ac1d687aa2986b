//! The collision-based communication layer (Proposition 31 / Corollary 32).
//!
//! Once an agent knows the gaps to its neighbours and their relative
//! chirality (from [`crate::perceptive::neighbors`]), two rounds suffice to
//! exchange one bit with **both** neighbours simultaneously: an agent
//! encodes its bit in its direction of movement, moves once each way (the
//! second round is the reversal of the first, which also restores all
//! positions), and decodes each neighbour's bit from whether its first
//! collision on that side happened at exactly half the known gap.
//!
//! On top of the bit exchange, [`RingLink::exchange_frames`] ships
//! fixed-width optional values (a presence bit plus a payload), which is the
//! unit the dissemination primitives are built from.

use crate::error::ProtocolError;
use crate::exec::{Network, StepBuffers};
use crate::perceptive::neighbors::{discover_neighbors, NeighborInfo, NeighborMap};
use ring_sim::{LocalDirection, Observation};

/// Reusable scratch for the zero-alloc bit exchange
/// ([`RingLink::exchange_bits_with`]): one [`StepBuffers`] for the four
/// rounds, one direction buffer and a copy of the first information round's
/// observations (the second information round's live in the step buffers).
#[derive(Clone, Debug, Default)]
pub struct LinkBuffers {
    step: StepBuffers,
    dirs: Vec<LocalDirection>,
    obs_first: Vec<Observation>,
}

impl LinkBuffers {
    /// Creates an empty buffer set (vectors grow to the ring size on first
    /// use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable scratch for the zero-alloc frame exchange
/// ([`RingLink::exchange_frames_with`]): the underlying [`LinkBuffers`]
/// plus per-exchange payload and accumulator buffers.
#[derive(Clone, Debug, Default)]
pub struct FrameBuffers {
    link: LinkBuffers,
    payload: Vec<bool>,
    rx: Vec<NeighborBits>,
    right_present: Vec<bool>,
    left_present: Vec<bool>,
    right_value: Vec<u64>,
    left_value: Vec<u64>,
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
    /// received. Costs 4 rounds (each of the two information rounds is
    /// followed by its reversal, so both start from — and the exchange ends
    /// at — the same positions, which is what makes the gap comparison in
    /// the decoder valid). The two reversals are
    /// [`Network::undo_last`] rounds: counted, but not simulated (an active
    /// fault plan refuses them).
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
        // encoding. Each is undone immediately so that both information
        // rounds see the same neighbour gaps; the undo clears the step
        // buffers, so round A's observations are copied out first.
        bufs.dirs.clear();
        bufs.dirs
            .extend(bits.iter().map(|&b| LocalDirection::from_bit(b)));
        net.step_into(&bufs.dirs, &mut bufs.step)?;
        bufs.obs_first.clear();
        bufs.obs_first.extend_from_slice(bufs.step.observations());
        net.undo_last(&mut bufs.step)?;
        for d in bufs.dirs.iter_mut() {
            *d = d.opposite();
        }
        net.step_into(&bufs.dirs, &mut bufs.step)?;

        // Decode from the two information rounds (round B's observations
        // are still live in the step buffers until the closing undo below).
        out.clear();
        for (agent, &bit) in bits.iter().enumerate() {
            let info = self.infos[agent];
            let obs_a = &bufs.obs_first[agent];
            let obs_b = &bufs.step.observations()[agent];
            // Observations of the rounds in which this agent moved right and
            // left respectively.
            let (obs_when_right, obs_when_left): (&Observation, &Observation) =
                if bit { (obs_a, obs_b) } else { (obs_b, obs_a) };
            let right_round_is_a = bit;
            let left_round_is_a = !bit;

            let right_approached = obs_when_right.coll == Some(info.right_gap.half());
            let left_approached = obs_when_left.coll == Some(info.left_gap.half());

            // The right neighbour approached iff it physically moved towards
            // this agent, i.e. (same chirality ⇒ it moved left, opposite ⇒ it
            // moved right). In round A it moved right iff its bit is 1.
            let right_moved_right_in_that_round = if info.right_same_chirality {
                !right_approached
            } else {
                right_approached
            };
            let from_right = if right_round_is_a {
                right_moved_right_in_that_round
            } else {
                !right_moved_right_in_that_round
            };

            // The left neighbour approached iff it physically moved towards
            // this agent, i.e. (same chirality ⇒ it moved right, opposite ⇒
            // it moved left).
            let left_moved_right_in_that_round = if info.left_same_chirality {
                left_approached
            } else {
                !left_approached
            };
            let from_left = if left_round_is_a {
                left_moved_right_in_that_round
            } else {
                !left_moved_right_in_that_round
            };

            out.push(NeighborBits {
                from_right,
                from_left,
            });
        }
        net.undo_last(&mut bufs.step)?;
        Ok(())
    }

    /// Exchanges a fixed-width optional value with both neighbours: one
    /// presence bit followed by `bits` payload bits (most significant
    /// first). Costs `4 · (bits + 1)` rounds and restores all positions.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; returns [`ProtocolError::LengthMismatch`]
    /// if `values` has the wrong length.
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
        // Presence bit.
        bufs.payload.clear();
        bufs.payload.extend(values.iter().map(|v| v.is_some()));
        self.exchange_bits_with(net, &bufs.payload, &mut bufs.link, &mut bufs.rx)?;
        bufs.right_present.clear();
        bufs.left_present.clear();
        for nb in &bufs.rx {
            bufs.right_present.push(nb.from_right);
            bufs.left_present.push(nb.from_left);
        }
        // Payload bits, most significant first.
        bufs.right_value.clear();
        bufs.right_value.resize(n, 0);
        bufs.left_value.clear();
        bufs.left_value.resize(n, 0);
        for bit in (0..bits).rev() {
            bufs.payload.clear();
            bufs.payload.extend(
                values
                    .iter()
                    .map(|v| v.is_some_and(|x| (x >> bit) & 1 == 1)),
            );
            self.exchange_bits_with(net, &bufs.payload, &mut bufs.link, &mut bufs.rx)?;
            for agent in 0..n {
                if bufs.rx[agent].from_right {
                    bufs.right_value[agent] |= 1 << bit;
                }
                if bufs.rx[agent].from_left {
                    bufs.left_value[agent] |= 1 << bit;
                }
            }
        }
        out.clear();
        out.extend((0..n).map(|agent| NeighborFrames {
            from_right: bufs.right_present[agent].then_some(bufs.right_value[agent]),
            from_left: bufs.left_present[agent].then_some(bufs.left_value[agent]),
        }));
        Ok(())
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
