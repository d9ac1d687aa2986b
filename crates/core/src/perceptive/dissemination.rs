//! Information dissemination over bounded ring distances (Corollaries 33
//! and 34 of the paper), built on the collision link of
//! [`crate::perceptive::link`].
//!
//! Two flooding primitives cover everything the higher-level algorithms
//! need:
//!
//! * [`flood_max`] — every agent learns the **maximum** value held by any
//!   source within a given ring distance (in either direction). This is the
//!   primitive behind local-leader election in `NMoveS` (Algorithm 4):
//!   orientation does not matter because the neighbourhood is symmetric.
//! * [`flood_nearest`] — every agent learns the value of the **nearest**
//!   source on each *logical* side together with its hop distance. This
//!   requires a common sense of direction (the frames produced by direction
//!   agreement) and is the primitive behind the label dissemination of
//!   `RingDist` (Algorithm 5).
//!
//! Both primitives work hop by hop: one frame exchange extends every
//! agent's horizon by exactly one ring position, so after `d` hops the
//! information of every source within distance `d` has arrived, and nothing
//! from farther away.

use crate::error::ProtocolError;
use crate::exec::Network;
use crate::perceptive::link::{FrameBuffers, NeighborFrames, RingLink};
use ring_sim::Frame;

/// Reusable scratch for the zero-alloc flooding primitives
/// ([`flood_max_with`], [`flood_nearest_with`]): the frame-exchange buffers
/// plus per-hop carry registers.
#[derive(Clone, Debug, Default)]
pub struct FloodBuffers {
    frames: FrameBuffers,
    rx: Vec<NeighborFrames>,
    carry_cw: Vec<Option<u64>>,
    carry_acw: Vec<Option<u64>>,
}

impl FloodBuffers {
    /// Creates an empty buffer set (vectors grow to the ring size on first
    /// use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Result of [`flood_nearest`] for one agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct NearestSources {
    /// Hop distance and value of the nearest source on the agent's logical
    /// right, if one lies within the flooding distance.
    pub from_right: Option<(usize, u64)>,
    /// Hop distance and value of the nearest source on the agent's logical
    /// left, if one lies within the flooding distance.
    pub from_left: Option<(usize, u64)>,
}

/// Floods the maximum of the sources' values over ring distance `distance`.
///
/// `candidate[i]` is `Some(v)` if agent `i` is a source with value `v`.
/// Returns, for every agent, the maximum value among all sources within ring
/// distance `distance` of it (its own value included), or `None` if there is
/// no such source. Costs `distance` frame exchanges, i.e.
/// `2 · distance · (bits + 1)` rounds.
///
/// # Errors
///
/// Propagates substrate and link errors.
pub fn flood_max(
    net: &mut Network<'_>,
    link: &RingLink,
    candidate: &[Option<u64>],
    bits: u32,
    distance: usize,
) -> Result<(Vec<Option<u64>>, u64), ProtocolError> {
    let mut bufs = FloodBuffers::new();
    let mut best = Vec::new();
    let rounds = flood_max_with(net, link, candidate, bits, distance, &mut bufs, &mut best)?;
    Ok((best, rounds))
}

/// Zero-alloc variant of [`flood_max`]: all rounds execute through
/// caller-owned buffers and the per-agent maxima are written into `best`
/// (cleared first). Returns the rounds consumed.
///
/// # Errors
///
/// Same as [`flood_max`].
pub fn flood_max_with(
    net: &mut Network<'_>,
    link: &RingLink,
    candidate: &[Option<u64>],
    bits: u32,
    distance: usize,
    bufs: &mut FloodBuffers,
    best: &mut Vec<Option<u64>>,
) -> Result<u64, ProtocolError> {
    let n = net.len();
    if candidate.len() != n {
        return Err(ProtocolError::LengthMismatch {
            what: "candidate values",
            got: candidate.len(),
            expected: n,
        });
    }
    let start = net.rounds_used();
    best.clear();
    best.extend_from_slice(candidate);
    for _hop in 0..distance {
        link.exchange_frames_with(net, best, bits, &mut bufs.frames, &mut bufs.rx)?;
        for (slot, rx) in best.iter_mut().zip(&bufs.rx) {
            let incoming = rx.from_right.into_iter().chain(rx.from_left);
            for v in incoming {
                *slot = Some(match *slot {
                    Some(b) => b.max(v),
                    None => v,
                });
            }
        }
    }
    Ok(net.rounds_used() - start)
}

/// Floods source values over ring distance `distance`, letting every agent
/// learn the nearest source on each **logical** side (per the supplied
/// frames) together with its hop distance.
///
/// Costs two frame exchanges per hop (one per stream direction), i.e.
/// `4 · distance · (bits + 1)` rounds.
///
/// # Errors
///
/// Propagates substrate and link errors.
pub fn flood_nearest(
    net: &mut Network<'_>,
    link: &RingLink,
    frames: &[Frame],
    values: &[Option<u64>],
    bits: u32,
    distance: usize,
) -> Result<(Vec<NearestSources>, u64), ProtocolError> {
    let mut bufs = FloodBuffers::new();
    let mut result = Vec::new();
    let rounds = flood_nearest_with(
        net,
        link,
        frames,
        values,
        bits,
        distance,
        &mut bufs,
        &mut result,
    )?;
    Ok((result, rounds))
}

/// Zero-alloc variant of [`flood_nearest`]: all rounds execute through
/// caller-owned buffers and the per-agent nearest sources are written into
/// `result` (cleared first). Returns the rounds consumed.
///
/// # Errors
///
/// Same as [`flood_nearest`].
#[allow(clippy::too_many_arguments)]
pub fn flood_nearest_with(
    net: &mut Network<'_>,
    link: &RingLink,
    frames: &[Frame],
    values: &[Option<u64>],
    bits: u32,
    distance: usize,
    bufs: &mut FloodBuffers,
    result: &mut Vec<NearestSources>,
) -> Result<u64, ProtocolError> {
    let n = net.len();
    ProtocolError::check_lengths(
        n,
        &[("source values", values.len()), ("frames", frames.len())],
    )?;
    let start = net.rounds_used();
    result.clear();
    result.resize(n, NearestSources::default());

    // Shift registers: `carry_cw[i]` is the value of the source exactly
    // `hop − 1` logical-left positions away from agent `i` (it travels in
    // the logical-clockwise direction), and symmetrically for `carry_acw`.
    // Each hop's new carry depends only on that hop's received frames, so
    // the registers are overwritten in place.
    bufs.carry_cw.clear();
    bufs.carry_cw.extend_from_slice(values);
    bufs.carry_acw.clear();
    bufs.carry_acw.extend_from_slice(values);

    for hop in 1..=distance {
        // Stream moving logically clockwise: every agent forwards its carry;
        // receivers take the value arriving from their logical left.
        link.exchange_frames_with(net, &bufs.carry_cw, bits, &mut bufs.frames, &mut bufs.rx)?;
        for agent in 0..n {
            let from_logical_left = if frames[agent].is_flipped() {
                bufs.rx[agent].from_right
            } else {
                bufs.rx[agent].from_left
            };
            bufs.carry_cw[agent] = from_logical_left;
            if let Some(v) = from_logical_left {
                if result[agent].from_left.is_none() {
                    result[agent].from_left = Some((hop, v));
                }
            }
        }

        // Stream moving logically anticlockwise.
        link.exchange_frames_with(net, &bufs.carry_acw, bits, &mut bufs.frames, &mut bufs.rx)?;
        for agent in 0..n {
            let from_logical_right = if frames[agent].is_flipped() {
                bufs.rx[agent].from_left
            } else {
                bufs.rx[agent].from_right
            };
            bufs.carry_acw[agent] = from_logical_right;
            if let Some(v) = from_logical_right {
                if result[agent].from_right.is_none() {
                    result[agent].from_right = Some((hop, v));
                }
            }
        }
    }

    Ok(net.rounds_used() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use ring_sim::{Model, RingConfig};

    fn setup(n: usize, seed: u64) -> (RingConfig, IdAssignment) {
        let config = RingConfig::builder(n)
            .random_positions(seed + 1)
            .random_chirality(seed + 2)
            .build()
            .unwrap();
        let ids = IdAssignment::random(n, 512, seed + 3);
        (config, ids)
    }

    /// Frames that align every agent's logical right with the objective
    /// clockwise direction (a valid direction-agreement outcome, used to
    /// test logical-side flooding against ground truth).
    fn aligning_frames(net: &Network<'_>) -> Vec<Frame> {
        (0..net.len())
            .map(|agent| Frame::new(!net.ground_truth_config().chirality(agent).is_aligned()))
            .collect()
    }

    #[test]
    fn flood_max_respects_the_distance_bound() {
        let n = 11;
        let (config, ids) = setup(n, 40);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();

        // One source with value 99 at agent 0, another with value 50 at
        // agent 5.
        let mut candidate = vec![None; n];
        candidate[0] = Some(99);
        candidate[5] = Some(50);
        let (best, _) = flood_max(&mut net, &link, &candidate, 8, 2).unwrap();

        // Agents within 2 hops of agent 0 see 99.
        for agent in [9usize, 10, 0, 1, 2] {
            assert_eq!(best[agent], Some(99), "agent {agent}");
        }
        // Agents within 2 hops of agent 5 only see 50.
        for agent in [4usize, 6] {
            assert_eq!(best[agent], Some(50), "agent {agent}");
        }
        // Agent 8 is 3 hops from both sources.
        assert_eq!(best[8], None);
        assert!(net.ground_truth_at_initial_positions());
    }

    #[test]
    fn flood_nearest_reports_sides_and_hops() {
        let n = 9;
        let (config, ids) = setup(n, 77);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        let frames = aligning_frames(&net);

        // A single source at agent 3 with value 42, flooded 3 hops.
        let mut values = vec![None; n];
        values[3] = Some(42);
        let (nearest, _) = flood_nearest(&mut net, &link, &frames, &values, 8, 3).unwrap();

        // With all logical frames equal to the objective clockwise
        // direction, agent 4 sees the source 1 hop to its logical left,
        // agent 6 sees it 3 hops to its left, agent 2 sees it 1 hop to its
        // right, agent 0 sees it 3 hops to its right.
        assert_eq!(nearest[4].from_left, Some((1, 42)));
        assert_eq!(nearest[4].from_right, None);
        assert_eq!(nearest[6].from_left, Some((3, 42)));
        assert_eq!(nearest[2].from_right, Some((1, 42)));
        assert_eq!(nearest[0].from_right, Some((3, 42)));
        // Agent 7 is 4 hops away on both sides: nothing received.
        assert_eq!(nearest[7], NearestSources::default());
        // The source itself does not hear its own value.
        assert_eq!(nearest[3], NearestSources::default());
    }

    #[test]
    fn flood_nearest_prefers_the_nearest_source() {
        let n = 10;
        let (config, ids) = setup(n, 90);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        let frames = aligning_frames(&net);

        let mut values = vec![None; n];
        values[2] = Some(7);
        values[4] = Some(9);
        let (nearest, _) = flood_nearest(&mut net, &link, &frames, &values, 8, 5).unwrap();
        // Agent 6 has sources at logical-left distances 2 (value 9) and 4
        // (value 7): the nearest wins.
        assert_eq!(nearest[6].from_left, Some((2, 9)));
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let (config, ids) = setup(8, 5);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        assert!(matches!(
            flood_max(&mut net, &link, &[None; 3], 4, 1),
            Err(ProtocolError::LengthMismatch { .. })
        ));
        assert!(matches!(
            flood_nearest(&mut net, &link, &[Frame::identity(); 8], &[None; 3], 4, 1),
            Err(ProtocolError::LengthMismatch { .. })
        ));
    }

    /// A length error names the slice that is wrong, with its own length,
    /// whether it is too long or too short and the other one is right.
    #[test]
    fn flood_nearest_length_errors_name_the_wrong_slice() {
        let n = 8;
        let (config, ids) = setup(n, 6);
        let mut net = Network::new(&config, ids, Model::Perceptive).unwrap();
        let (link, _) = RingLink::establish(&mut net).unwrap();
        let (frames, values) = (aligning_frames(&net), vec![Some(1); n]);
        let rounds = net.rounds_used();
        for got in [n - 1, n + 1] {
            let wrong = |what| ProtocolError::LengthMismatch {
                what,
                got,
                expected: n,
            };
            let (mut wrong_values, mut wrong_frames) = (values.clone(), frames.clone());
            wrong_values.resize(got, None);
            wrong_frames.resize(got, Frame::identity());
            let err = flood_nearest(&mut net, &link, &frames, &wrong_values, 4, 1);
            assert_eq!(err.unwrap_err(), wrong("source values"));
            let err = flood_nearest(&mut net, &link, &wrong_frames, &values, 4, 1);
            assert_eq!(err.unwrap_err(), wrong("frames"));
        }
        assert_eq!(net.rounds_used(), rounds);
    }
}
