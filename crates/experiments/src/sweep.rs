//! Sweep specifications: which configurations an experiment runs over.

use ring_combinat::shared::splitmix64;
use ring_protocols::IdAssignment;
use ring_sim::RingConfig;
use serde::Serialize;

/// One concrete configuration of an experiment sweep.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Case {
    /// Ring size.
    pub n: usize,
    /// Identifier universe size.
    pub universe: u64,
    /// Seed from which positions, chirality and identifiers are derived.
    pub seed: u64,
    /// The public seed the case's distinguisher machinery hands its
    /// structure provider: the fixed protocol default under
    /// [`SweepSpec`]'s fixed schedule, or one of `K` schedule seeds under
    /// the per-case schedule (seed-diverse sweeps).
    pub structure_seed: u64,
}

impl Case {
    /// Materialises the hidden configuration of this case.
    pub fn config(&self) -> RingConfig {
        RingConfig::builder(self.n)
            .random_positions(self.seed.wrapping_mul(3) + 1)
            .random_chirality(self.seed.wrapping_mul(5) + 2)
            .build()
            .expect("sweep cases are always valid")
    }

    /// A worst-case variant of the configuration with a perfectly balanced
    /// chirality assignment (the adversarial case for even `n`).
    pub fn config_balanced(&self) -> RingConfig {
        RingConfig::builder(self.n)
            .random_positions(self.seed.wrapping_mul(3) + 1)
            .alternating_chirality()
            .build()
            .expect("sweep cases are always valid")
    }

    /// The identifier assignment of this case.
    pub fn ids(&self) -> IdAssignment {
        IdAssignment::random(self.n, self.universe, self.seed.wrapping_mul(7) + 3)
    }
}

/// The fault-injection axes of a sweep (see `ring_protocols::fault`): a
/// list of message-drop rates to sweep, plus the crash/churn/adversarial
/// knobs applied at every rate. All integers, so the axes thread
/// losslessly through fingerprints, worker argv and run manifests.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct FaultAxes {
    /// Message-drop rates to sweep, in per mille (`0..=1000`).
    pub drops: Vec<u64>,
    /// Number of crash-stop stations per case.
    pub crashes: u64,
    /// Number of churning stations per case.
    pub churn: u64,
    /// Whether the adversarial activation schedule is in force.
    pub adversarial: bool,
}

impl FaultAxes {
    /// The default degradation sweep: clean baseline plus four escalating
    /// drop rates, no crashes, no churn, fair scheduling.
    pub fn standard() -> Self {
        FaultAxes {
            drops: vec![0, 50, 100, 200, 400],
            crashes: 0,
            churn: 0,
            adversarial: false,
        }
    }
}

/// A sweep: ring sizes × identifier-universe scalings × repetitions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct SweepSpec {
    /// Ring sizes to test.
    pub sizes: Vec<usize>,
    /// Universe sizes expressed as multiples of `n` (e.g. 4 means `N = 4n`).
    pub universe_factors: Vec<u64>,
    /// Number of random repetitions per (size, universe) pair.
    pub repetitions: u64,
    /// Base seed.
    pub seed: u64,
    /// The structure-seed schedule: `None` (fixed) gives every case the
    /// protocol-default `STRUCTURE_SEED`; `Some(K)` (per-case) rotates the
    /// cases through `K` distinct schedule seeds derived from the base
    /// seed (at most `STRONG_WINDOW` of them — beyond that, windows would
    /// repeat), so repetitions additionally sample the randomness of the
    /// combinatorial structures themselves. Against a structure store the
    /// `K` seeds share one strong file per universe (seeds are windows into
    /// one universal sequence), so the store stays near-constant in `K`.
    pub structure_seeds: Option<u64>,
    /// Fault-injection axes: `None` (the default everywhere but the
    /// `faults` experiment) runs clean synchronous rings and — like an
    /// absent seed schedule — folds nothing into the fingerprint, keeping
    /// clean-sweep fingerprints stable across this field's introduction.
    pub faults: Option<FaultAxes>,
}

impl SweepSpec {
    /// The default sweep used by the table experiments: a few odd and even
    /// ring sizes, sparse and dense identifier universes, three repetitions.
    pub fn standard() -> Self {
        SweepSpec {
            sizes: vec![15, 16, 31, 32, 63, 64],
            universe_factors: vec![4, 64],
            repetitions: 3,
            seed: 2015,
            structure_seeds: None,
            faults: None,
        }
    }

    /// A reduced sweep for quick smoke tests and benchmarks.
    pub fn quick() -> Self {
        SweepSpec {
            sizes: vec![15, 16, 32],
            universe_factors: vec![4],
            repetitions: 1,
            seed: 7,
            structure_seeds: None,
            faults: None,
        }
    }

    /// A deterministic 64-bit fingerprint of the sweep parameters, used by
    /// the distributed layer to pin a run manifest to the spec that produced
    /// it: `resume` refuses to mix shards from different specs. Chains one
    /// splitmix64 round per coordinate (with length separators, so
    /// `sizes=[1,2]` and `sizes=[1], factors=[2,…]` cannot alias).
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(0x05ee_d0fa_5eed ^ self.seed);
        h = splitmix64(h ^ self.sizes.len() as u64);
        for &n in &self.sizes {
            h = splitmix64(h ^ n as u64);
        }
        h = splitmix64(h ^ self.universe_factors.len() as u64);
        for &factor in &self.universe_factors {
            h = splitmix64(h ^ factor);
        }
        h = splitmix64(h ^ self.repetitions);
        // The seed schedule changes which structures every even-n case
        // executes, so it must change the fingerprint; the fixed schedule
        // folds nothing, keeping fixed-mode fingerprints stable across this
        // field's introduction.
        if let Some(k) = self.structure_seeds {
            h = splitmix64(h ^ 0x5eed_5c4e_d01e ^ k);
        }
        // The fault axes change what every case executes, so they must
        // change the fingerprint; clean sweeps fold nothing, mirroring the
        // seed-schedule rule above.
        if let Some(f) = &self.faults {
            h = splitmix64(h ^ 0xfa17_ca5e_d01e ^ f.drops.len() as u64);
            for &drop in &f.drops {
                h = splitmix64(h ^ drop);
            }
            h = splitmix64(h ^ f.crashes);
            h = splitmix64(h ^ f.churn);
            h = splitmix64(h ^ f.adversarial as u64);
        }
        h
    }

    /// Enumerates the concrete cases of the sweep.
    pub fn cases(&self) -> Vec<Case> {
        let mut out = Vec::new();
        for &n in &self.sizes {
            for &factor in &self.universe_factors {
                for rep in 0..self.repetitions {
                    let structure_seed = match self.structure_seeds {
                        None => ring_protocols::coordination::nontrivial::STRUCTURE_SEED,
                        Some(k) => schedule_seed(self.seed, out.len() as u64 % k.max(1)),
                    };
                    out.push(Case {
                        n,
                        universe: factor * n as u64,
                        seed: case_seed(self.seed, n, factor, rep),
                        structure_seed,
                    });
                }
            }
        }
        out
    }
}

/// The `slot`-th schedule seed of a seed-diverse sweep (slots cycle through
/// `0..K`): a splitmix64 chain over the base seed, so every participant of
/// a sharded run derives the same `K` seeds independently.
///
/// The chain is additionally steered so that slot `s` lands on strong
/// window offset `s % STRONG_WINDOW` — hashing alone would let two of `K`
/// schedule seeds collide on a window (birthday over 64 slots) and
/// silently collapse the promised structure diversity. With steering,
/// any `K ≤ STRONG_WINDOW` schedule seeds are guaranteed pairwise-distinct
/// windows, i.e. genuinely different strong sets at every round index.
pub fn schedule_seed(base: u64, slot: u64) -> u64 {
    let target = (slot % ring_combinat::STRONG_WINDOW) as usize;
    let mut seed = splitmix64(splitmix64(base ^ 0xd5ee_d5ee_d5ee_d5ee) ^ slot);
    while ring_combinat::strong_offset(seed) != target {
        seed = splitmix64(seed);
    }
    seed
}

/// Derives a case seed by chaining splitmix64 over `(seed, n, factor,
/// rep)`. The previous scheme packed the coordinates into shifted bit
/// fields (`seed + rep + (n << 20) + (factor << 40)`), which collides as
/// soon as a coordinate overflows its field — e.g. universe factors
/// differing by exactly `2^24` land on the same seed because their
/// 40-bit-shifted contributions wrap to the same value. Chaining a full
/// mixing round per coordinate makes every coordinate affect all 64 bits.
fn case_seed(seed: u64, n: usize, factor: u64, rep: u64) -> u64 {
    let mut s = splitmix64(seed ^ 0xd1b54a32d192ed03);
    s = splitmix64(s ^ n as u64);
    s = splitmix64(s ^ factor);
    s = splitmix64(s ^ rep);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_sweep_enumerates_all_cases() {
        let spec = SweepSpec::standard();
        let cases = spec.cases();
        assert_eq!(
            cases.len(),
            spec.sizes.len() * spec.universe_factors.len() * spec.repetitions as usize
        );
        for case in &cases {
            assert!(case.universe >= case.n as u64);
            let config = case.config();
            assert_eq!(config.len(), case.n);
            assert_eq!(case.ids().len(), case.n);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a = SweepSpec::quick().cases();
        let b = SweepSpec::quick().cases();
        assert_eq!(a, b);
        assert_eq!(a[0].config(), b[0].config());
    }

    /// Regression test for the shifted-field seed derivation: universe
    /// factors differing by `2^24` used to wrap their 40-bit-shifted
    /// contribution to the same value and collide, as did any coordinates
    /// overflowing their packed fields. Every case of an adversarial spec
    /// must get its own seed.
    #[test]
    fn distinct_cases_get_distinct_seeds() {
        use std::collections::HashSet;
        let adversarial = SweepSpec {
            sizes: vec![15, 16, 1 << 21],
            universe_factors: vec![1, 1 + (1 << 24), 1 + (1 << 25)],
            repetitions: 2,
            seed: 0,
            structure_seeds: None,
            faults: None,
        };
        let cases = adversarial.cases();
        let seeds: HashSet<u64> = cases.iter().map(|c| c.seed).collect();
        assert_eq!(
            seeds.len(),
            cases.len(),
            "case seeds collide: {:?}",
            cases
                .iter()
                .map(|c| (c.n, c.universe, c.seed))
                .collect::<Vec<_>>()
        );
        // The old scheme's canonical collision: factors 2^24 apart.
        assert_ne!(cases[0].seed, cases[2].seed);

        // Different base seeds shift every case seed.
        let reseeded = SweepSpec {
            seed: 1,
            ..adversarial.clone()
        };
        assert!(reseeded
            .cases()
            .iter()
            .zip(&cases)
            .all(|(a, b)| a.seed != b.seed));
    }

    #[test]
    fn seed_schedules_rotate_structure_seeds_and_move_the_fingerprint() {
        use ring_protocols::coordination::nontrivial::STRUCTURE_SEED;
        use std::collections::BTreeSet;
        let fixed = SweepSpec::quick();
        assert!(fixed
            .cases()
            .iter()
            .all(|c| c.structure_seed == STRUCTURE_SEED));

        let diverse = SweepSpec {
            structure_seeds: Some(2),
            ..SweepSpec::quick()
        };
        let cases = diverse.cases();
        // Everything except the structure seed matches the fixed sweep.
        for (a, b) in cases.iter().zip(fixed.cases()) {
            assert_eq!((a.n, a.universe, a.seed), (b.n, b.universe, b.seed));
        }
        // Exactly K distinct schedule seeds, cycling in case order.
        let seeds: BTreeSet<u64> = cases.iter().map(|c| c.structure_seed).collect();
        assert_eq!(seeds.len(), 2);
        assert_eq!(cases[0].structure_seed, cases[2].structure_seed);
        assert_ne!(cases[0].structure_seed, cases[1].structure_seed);
        assert_eq!(cases[0].structure_seed, schedule_seed(diverse.seed, 0));
        // Schedule seeds are steered onto pairwise-distinct strong windows
        // (for any base seed and any K up to the window count), so seed
        // diversity can never silently collapse to fewer effective seeds.
        for base in [0u64, 7, 2015, u64::MAX] {
            let offsets: BTreeSet<usize> = (0..ring_combinat::STRONG_WINDOW)
                .map(|slot| ring_combinat::strong_offset(schedule_seed(base, slot)))
                .collect();
            assert_eq!(offsets.len(), ring_combinat::STRONG_WINDOW as usize);
        }

        // The schedule is part of the identity distributed runs pin.
        assert_eq!(fixed.fingerprint(), SweepSpec::quick().fingerprint());
        assert_ne!(fixed.fingerprint(), diverse.fingerprint());
        assert_ne!(
            diverse.fingerprint(),
            SweepSpec {
                structure_seeds: Some(3),
                ..SweepSpec::quick()
            }
            .fingerprint()
        );
    }
}
