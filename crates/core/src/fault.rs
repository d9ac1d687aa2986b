//! Deterministic fault injection.
//!
//! A [`FaultPlan`] decides, for every `(round, agent)` pair, whether that
//! agent's chosen move is *suppressed* — physically replaced by an idle
//! round before it reaches the substrate. All four fault kinds of the layer
//! reduce to this one primitive:
//!
//! * **message/link drop** — the agent's direction is lost this round with
//!   a configurable per-mille probability;
//! * **crash-stop stations** — a fixed set of agents stops moving forever
//!   from an agent-specific crash round on;
//! * **dynamic churn** — a fixed set of agents toggles between active and
//!   dormant from round to round (joining and leaving the computation);
//! * **adversarial activation** — a rotating window of agents is denied
//!   activation each round, the worst-case round-robin scheduler.
//!
//! Every decision is drawn from a splitmix64 stream derived from the case
//! seed and the fault parameters, so a fault sequence is a pure function of
//! `(seed, n, fault_params)`: replaying a case on any worker of a sharded
//! sweep produces bit-identical faults, which keeps merged faulty sweeps
//! byte-identical at any `--jobs` and any `--shards`.
//!
//! Faults are injected by [`Network`](crate::exec::Network) *after* the
//! model's idle check: a suppressed move is a physical failure, not a
//! protocol choice, so it is legal even in models that forbid idling.

use ring_combinat::shared::splitmix64;
use serde::Serialize;

/// Domain-separation constants for the per-kind splitmix64 streams.
const STREAM_BASE: u64 = 0xfa17_ca5e_0000_0001;
const STREAM_DROP: u64 = 0xfa17_ca5e_0000_0002;
const STREAM_CRASH_SET: u64 = 0xfa17_ca5e_0000_0003;
const STREAM_CRASH_ROUND: u64 = 0xfa17_ca5e_0000_0004;
const STREAM_CHURN_SET: u64 = 0xfa17_ca5e_0000_0005;
const STREAM_CHURN_TICK: u64 = 0xfa17_ca5e_0000_0006;

/// Crashes land within the first this-many rounds, early enough to hit
/// every protocol phase.
const CRASH_HORIZON: u64 = 48;

/// The fault configuration of a run — the public, fingerprintable knobs.
///
/// All fields are integers so the parameters thread losslessly through
/// spec fingerprints, worker argv and `manifest.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FaultParams {
    /// Per-round, per-agent message-drop probability in per mille
    /// (`0..=1000`; `1000` suppresses every move).
    pub drop_per_mille: u64,
    /// Number of crash-stop stations (capped at the ring size).
    pub crashes: u64,
    /// Number of churning stations (capped at the ring size).
    pub churn: u64,
    /// Whether the adversarial round-robin activation schedule is in force.
    pub adversarial: bool,
}

impl FaultParams {
    /// Whether the parameters inject any fault at all.
    pub fn any(&self) -> bool {
        self.drop_per_mille > 0 || self.crashes > 0 || self.churn > 0 || self.adversarial
    }

    /// Folds the parameters into a fingerprint accumulator (one splitmix64
    /// round per knob, mirroring `SweepSpec::fingerprint`).
    pub fn fold_fingerprint(&self, mut h: u64) -> u64 {
        h = splitmix64(h ^ self.drop_per_mille);
        h = splitmix64(h ^ self.crashes);
        h = splitmix64(h ^ self.churn);
        h = splitmix64(h ^ self.adversarial as u64);
        h
    }
}

/// A materialised fault schedule for one case: the pure function
/// `(round, agent) → suppressed?`.
///
/// Construction derives everything from `(params, n, seed)`; two plans
/// built from the same triple return identical decisions forever (see the
/// replay property test).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    params: FaultParams,
    n: usize,
    /// Per-kind stream seeds, pre-mixed with the fault parameters.
    drop_seed: u64,
    churn_seed: u64,
    /// Round from which each agent is crashed (`u64::MAX` = never).
    crash_round: Vec<u64>,
    /// Whether each agent is a churning station.
    churning: Vec<bool>,
}

impl FaultPlan {
    /// Builds the fault schedule for a ring of `n` agents under `params`,
    /// drawing all randomness from a splitmix64 stream over `seed`
    /// (typically the sweep's case seed).
    pub fn new(params: FaultParams, n: usize, seed: u64) -> Self {
        let mut base = splitmix64(seed ^ STREAM_BASE);
        base = params.fold_fingerprint(base);
        base = splitmix64(base ^ n as u64);

        let mut crash_round = vec![u64::MAX; n];
        for agent in pick_agents(splitmix64(base ^ STREAM_CRASH_SET), n, params.crashes) {
            crash_round[agent] =
                splitmix64(splitmix64(base ^ STREAM_CRASH_ROUND) ^ agent as u64) % CRASH_HORIZON;
        }
        let mut churning = vec![false; n];
        for agent in pick_agents(splitmix64(base ^ STREAM_CHURN_SET), n, params.churn) {
            churning[agent] = true;
        }

        FaultPlan {
            params,
            n,
            drop_seed: splitmix64(base ^ STREAM_DROP),
            churn_seed: splitmix64(base ^ STREAM_CHURN_TICK),
            crash_round,
            churning,
        }
    }

    /// The parameters the plan was built from.
    pub fn params(&self) -> &FaultParams {
        &self.params
    }

    /// The ring size the plan covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan covers an empty ring.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the plan can ever suppress a move.
    pub fn any_faults(&self) -> bool {
        self.params.any()
    }

    /// Whether `agent` is crashed at `round` (crash-stop: once crashed,
    /// crashed forever).
    pub fn crashed(&self, round: u64, agent: usize) -> bool {
        self.crash_round[agent] <= round
    }

    /// Whether `agent` is dormant at `round` under churn (dormant stations
    /// have left the computation for the round).
    pub fn dormant(&self, round: u64, agent: usize) -> bool {
        self.churning[agent]
            && splitmix64(self.churn_seed ^ round ^ ((agent as u64) << 32)) & 1 == 1
    }

    /// Whether the adversarial scheduler denies `agent` activation at
    /// `round`: a window of `⌈n/4⌉` stations, rotating one position per
    /// round, is silenced each round.
    pub fn denied(&self, round: u64, agent: usize) -> bool {
        if !self.params.adversarial || self.n < 2 {
            return false;
        }
        let window = self.n.div_ceil(4);
        (agent + round as usize % self.n) % self.n < window
    }

    /// Whether `agent`'s message (its chosen move) is dropped at `round` by
    /// the lossy link.
    pub fn dropped(&self, round: u64, agent: usize) -> bool {
        if self.params.drop_per_mille == 0 {
            return false;
        }
        splitmix64(self.drop_seed ^ round ^ ((agent as u64) << 32)) % 1000
            < self.params.drop_per_mille
    }

    /// The one decision the executor consumes: whether `agent`'s move is
    /// suppressed (physically forced idle) at `round`, for any reason.
    pub fn suppressed(&self, round: u64, agent: usize) -> bool {
        self.crashed(round, agent)
            || self.dormant(round, agent)
            || self.denied(round, agent)
            || self.dropped(round, agent)
    }
}

/// Picks `min(count, n)` distinct agents by a partial Fisher–Yates shuffle
/// over a splitmix64 stream.
fn pick_agents(seed: u64, n: usize, count: u64) -> Vec<usize> {
    let count = (count as usize).min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in 0..count {
        state = splitmix64(state);
        let j = i + (state as usize) % (n - i);
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params_strategy() -> impl Strategy<Value = FaultParams> {
        (0u64..=1000, 0u64..5, 0u64..5, any::<bool>()).prop_map(
            |(drop_per_mille, crashes, churn, adversarial)| FaultParams {
                drop_per_mille,
                crashes,
                churn,
                adversarial,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The replay guarantee: two plans built from the same
        /// `(params, n, seed)` make identical decisions on every
        /// `(round, agent)` pair — the property the byte-identical
        /// sharded-sweep invariant rests on.
        #[test]
        fn plans_replay_identically(
            params in params_strategy(),
            n in 2usize..24,
            seed in any::<u64>(),
        ) {
            let a = FaultPlan::new(params, n, seed);
            let b = FaultPlan::new(params, n, seed);
            prop_assert_eq!(&a, &b);
            for round in 0..96u64 {
                for agent in 0..n {
                    prop_assert_eq!(a.suppressed(round, agent), b.suppressed(round, agent));
                }
            }
        }

        /// Crash-stop is monotone: once suppressed by a crash, an agent
        /// stays crashed forever, and exactly `min(crashes, n)` agents
        /// crash.
        #[test]
        fn crashes_are_permanent_and_exactly_counted(
            crashes in 0u64..30,
            n in 2usize..24,
            seed in any::<u64>(),
        ) {
            let plan = FaultPlan::new(
                FaultParams { crashes, ..FaultParams::default() },
                n,
                seed,
            );
            let crashed: Vec<usize> =
                (0..n).filter(|&a| plan.crashed(CRASH_HORIZON, a)).collect();
            prop_assert_eq!(crashed.len(), (crashes as usize).min(n));
            for &agent in &crashed {
                let first = (0..CRASH_HORIZON).find(|&r| plan.crashed(r, agent)).unwrap();
                for round in first..first + 64 {
                    prop_assert!(plan.suppressed(round, agent));
                }
            }
        }
    }

    #[test]
    fn empty_params_suppress_nothing() {
        let plan = FaultPlan::new(FaultParams::default(), 8, 42);
        assert!(!plan.any_faults());
        for round in 0..64 {
            for agent in 0..8 {
                assert!(!plan.suppressed(round, agent));
            }
        }
    }

    #[test]
    fn full_drop_suppresses_everything() {
        let plan = FaultPlan::new(
            FaultParams {
                drop_per_mille: 1000,
                ..FaultParams::default()
            },
            6,
            7,
        );
        for round in 0..16 {
            for agent in 0..6 {
                assert!(plan.suppressed(round, agent));
            }
        }
    }

    #[test]
    fn drop_rate_tracks_the_configured_probability() {
        let plan = FaultPlan::new(
            FaultParams {
                drop_per_mille: 250,
                ..FaultParams::default()
            },
            16,
            2015,
        );
        let rounds = 4000u64;
        let drops: u64 = (0..rounds)
            .flat_map(|r| (0..16).map(move |a| (r, a)))
            .filter(|&(r, a)| plan.dropped(r, a))
            .count() as u64;
        let rate = drops as f64 / (rounds * 16) as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn adversarial_window_rotates_and_covers_a_quarter() {
        let n = 8;
        let plan = FaultPlan::new(
            FaultParams {
                adversarial: true,
                ..FaultParams::default()
            },
            n,
            1,
        );
        for round in 0..3 * n as u64 {
            let denied = (0..n).filter(|&a| plan.denied(round, a)).count();
            assert_eq!(denied, n.div_ceil(4));
        }
        // The window moves: round 0 and round 1 deny different sets.
        let set =
            |round: u64| -> Vec<usize> { (0..n).filter(|&a| plan.denied(round, a)).collect() };
        assert_ne!(set(0), set(1));
        // …and wraps after n rounds.
        assert_eq!(set(0), set(n as u64));
    }

    #[test]
    fn churn_toggles_only_churning_stations() {
        let plan = FaultPlan::new(
            FaultParams {
                churn: 2,
                ..FaultParams::default()
            },
            10,
            99,
        );
        let churners: Vec<usize> = (0..10)
            .filter(|&a| (0..256).any(|r| plan.dormant(r, a)))
            .collect();
        assert_eq!(churners.len(), 2);
        // A churning station rejoins: it is active in some round too.
        for &agent in &churners {
            assert!((0..256).any(|r| !plan.dormant(r, agent)));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let params = FaultParams {
            drop_per_mille: 500,
            ..FaultParams::default()
        };
        let a = FaultPlan::new(params, 12, 1);
        let b = FaultPlan::new(params, 12, 2);
        let differs = (0..64)
            .flat_map(|r| (0..12).map(move |ag| (r, ag)))
            .any(|(r, ag)| a.suppressed(r, ag) != b.suppressed(r, ag));
        assert!(differs);
    }
}
