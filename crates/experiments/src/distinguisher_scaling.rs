//! Scaling of distinguishers, selective families and the distinguisher-based
//! nontrivial-move protocol (Section IV, Corollaries 26–29).
//!
//! The paper's central quantitative claim for the basic model with even `n`
//! is that the nontrivial-move problem (equivalently, the smallest
//! `(N, n)`-distinguisher) costs `Θ(n·log(N/n)/log n)` rounds. This module
//! measures three proxies of that claim:
//!
//! 1. the size of the probabilistically constructed distinguishers,
//! 2. the size of the constructed selective families (`Θ(n·log(N/n))`),
//! 3. the number of rounds the weak nontrivial-move protocol actually
//!    executes on adversarial (perfectly balanced) configurations.

use crate::report::Measurement;
use ring_combinat::bounds;
use ring_protocols::coordination::nontrivial::weak_nontrivial_move_even_distinguisher;
use ring_protocols::structures::SharedStructures;
use ring_protocols::{IdAssignment, Network};
use ring_sim::{Model, RingConfig};

/// Parameters of the scaling experiment.
#[derive(Clone, Debug)]
pub struct ScalingSpec {
    /// Identifier universe size.
    pub universe: u64,
    /// Set sizes (`n` of the distinguisher, ring size of the protocol runs).
    pub sizes: Vec<usize>,
    /// Seed for the random constructions.
    pub seed: u64,
}

impl ScalingSpec {
    /// The default spec: `N = 2^14`, `n ∈ {8, 16, 32, 64, 128}`.
    pub fn standard() -> Self {
        ScalingSpec {
            universe: 1 << 14,
            sizes: vec![8, 16, 32, 64, 128],
            seed: 41,
        }
    }

    /// A deterministic 64-bit fingerprint of the scaling parameters (see
    /// [`crate::SweepSpec::fingerprint`] for the role it plays in the
    /// distributed layer).
    pub fn fingerprint(&self) -> u64 {
        use ring_combinat::shared::splitmix64;
        let mut h = splitmix64(0x5ca1_e5ca1e ^ self.seed);
        h = splitmix64(h ^ self.universe);
        h = splitmix64(h ^ self.sizes.len() as u64);
        for &n in &self.sizes {
            h = splitmix64(h ^ n as u64);
        }
        h
    }
}

/// Measures the constructed family sizes for one set size against the
/// paper's bounds (see [`crate::tables::table1_case`] for the provider
/// contract).
pub fn family_sizes_case(
    spec: &ScalingSpec,
    n: usize,
    structures: &SharedStructures,
) -> Vec<Measurement> {
    let mut out = Vec::new();
    let distinguisher = structures.distinguisher(spec.universe, n, spec.seed);
    out.push(Measurement {
        experiment: "distinguisher_scaling".into(),
        setting: "probabilistic construction (Thm 27)".into(),
        quantity: "distinguisher size".into(),
        n,
        universe: spec.universe,
        value: Some(distinguisher.len() as f64),
        predicted: Some(bounds::distinguisher_size_lower_bound(spec.universe, n)),
        verified: distinguisher.verify_sampled(n, 200, spec.seed ^ 1) == 0,
    });
    let family = structures.selective_family(spec.universe, n, spec.seed);
    out.push(Measurement {
        experiment: "distinguisher_scaling".into(),
        setting: "probabilistic construction (Def 35)".into(),
        quantity: "selective family size".into(),
        n,
        universe: spec.universe,
        value: Some(family.len() as f64),
        predicted: Some(bounds::selective_family_size_bound(spec.universe, n)),
        verified: family.verify_sampled(n, 200, spec.seed ^ 2) == 0,
    });
    out
}

/// Measures the rounds the weak nontrivial-move protocol needs on a
/// perfectly balanced configuration of one ring size (the adversarial case
/// that forces the distinguisher machinery to do real work), or `None`
/// when the size is outside the adversarial regime (see
/// [`crate::tables::table1_case`] for the provider contract).
pub fn weak_nontrivial_move_case(
    spec: &ScalingSpec,
    n: usize,
    structures: &SharedStructures,
) -> Option<Measurement> {
    if !n.is_multiple_of(2) || n < 6 {
        return None;
    }
    let config = RingConfig::builder(n)
        .random_positions(spec.seed + n as u64)
        .alternating_chirality()
        .build()
        .expect("valid configuration");
    let ids = IdAssignment::random(n, spec.universe, spec.seed + 1 + n as u64);
    let mut net = Network::new(&config, ids, Model::Basic)
        .expect("valid network")
        .with_structures(structures.clone());
    let nm =
        weak_nontrivial_move_even_distinguisher(&mut net, spec.seed).expect("weak nontrivial move");
    Some(Measurement {
        experiment: "distinguisher_scaling".into(),
        setting: "basic model, even n, balanced chirality".into(),
        quantity: "weak nontrivial move rounds".into(),
        n,
        universe: spec.universe,
        value: Some(nm.rounds() as f64),
        predicted: Some(bounds::nontrivial_move_round_bound(spec.universe, n)),
        verified: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_protocols::structures::fresh_structures;

    #[test]
    fn family_sizes_scale_with_the_bound() {
        let spec = ScalingSpec {
            universe: 1 << 10,
            sizes: vec![8, 32],
            seed: 5,
        };
        let structures = fresh_structures();
        let m: Vec<_> = spec
            .sizes
            .iter()
            .flat_map(|&n| family_sizes_case(&spec, n, &structures))
            .collect();
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|x| x.verified));
        // Larger n ⇒ larger families (within this range the bound grows).
        let d8 = m[0].value.unwrap();
        let d32 = m[2].value.unwrap();
        assert!(d32 > d8);
    }

    #[test]
    fn weak_nontrivial_move_measurements_exist_for_even_sizes() {
        let spec = ScalingSpec {
            universe: 1 << 10,
            sizes: vec![8, 9, 16],
            seed: 6,
        };
        let structures = fresh_structures();
        let m: Vec<_> = spec
            .sizes
            .iter()
            .filter_map(|&n| weak_nontrivial_move_case(&spec, n, &structures))
            .collect();
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|x| x.value.unwrap() >= 1.0));
    }
}
