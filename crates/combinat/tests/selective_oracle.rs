//! The implicit selective family against its oracles in
//! `ring_combinat::reference`: the scale-first sampled verification must
//! count exactly the failures of the old first-index scan over the
//! materialised sets, and the family must be statistically
//! indistinguishable from the explicit element-wise construction.

use ring_combinat::reference::{
    selective_random_reference, selective_verify_sampled_reference, selects_reference,
};
use ring_combinat::shared::splitmix64;
use ring_combinat::{IdSet, SelectiveFamily};

/// The sets of each scale of an `(N, n)` family in execution order. The
/// reference draws the same batch sizes as the implicit family, so the
/// implicit family's scale ranges split both.
fn by_scale(sets: &[IdSet], universe: u64, n: usize) -> Vec<&[IdSet]> {
    let family = SelectiveFamily::random(universe, n, 0);
    assert_eq!(sets.len(), family.len());
    family.scale_ranges().map(|range| &sets[range]).collect()
}

/// `|observed − trials·p| ≤ 5σ + 1` for a binomial count.
fn within_binomial(observed: usize, trials: usize, p: f64) -> bool {
    let mean = trials as f64 * p;
    let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
    (observed as f64 - mean).abs() <= 5.0 * sigma + 1.0
}

/// Checks one family's per-scale membership frequency and pairwise
/// intersections against the binomial law of independent `2^-j` coins.
fn assert_binomial_scales(label: &str, sets: &[IdSet], universe: u64, n: usize) {
    const SETS_PER_SCALE: usize = 16;
    for (scale, batch) in by_scale(sets, universe, n).into_iter().enumerate() {
        let p = 1.0 / f64::from(1u32 << scale);
        let batch = &batch[..SETS_PER_SCALE];
        let members: usize = batch.iter().map(IdSet::len).sum();
        let trials = SETS_PER_SCALE * universe as usize;
        assert!(
            within_binomial(members, trials, p),
            "{label} scale {scale}: {members} members in {trials} draws at p = {p}"
        );
        let pairs = SETS_PER_SCALE - 1;
        let shared: usize = batch
            .windows(2)
            .map(|w| w[0].intersection_count(&w[1]))
            .sum();
        assert!(
            within_binomial(shared, pairs * universe as usize, p * p),
            "{label} scale {scale}: {shared} shared members over {pairs} pairs at p² = {}",
            p * p
        );
    }
}

#[test]
fn scale_first_verification_counts_exactly_the_first_index_scan_failures() {
    // (universe, target n, verified n, samples): at the design size, and
    // at 4·target where the family is too small and failures are real.
    let cases = [
        (256u64, 16usize, 16usize, 120usize),
        (1024, 8, 8, 120),
        (64, 2, 8, 200),
        (64, 1, 4, 100),
        (200, 4, 16, 200),
    ];
    let mut saw_failures = false;
    for (universe, target, n, samples) in cases {
        for seed in 0..3u64 {
            let family = SelectiveFamily::random(universe, target, seed);
            let sets = family.sets();
            let fast = family.verify_sampled(n, samples, seed ^ 0x77);
            let oracle =
                selective_verify_sampled_reference(&sets, universe, n, samples, seed ^ 0x77);
            assert_eq!(
                fast, oracle,
                "N={universe} target={target} n={n} seed={seed}"
            );
            if n == target {
                assert_eq!(fast, 0, "a design-size check must pass");
            }
            saw_failures |= fast > 0;
        }
    }
    assert!(saw_failures, "the 4·target cases must exercise failures");
}

#[test]
fn selects_reports_the_first_index_scan_answer() {
    let family = SelectiveFamily::random(300, 8, 9);
    let sets = family.sets();
    for draw in 0..200u64 {
        let size = 1 + (splitmix64(draw) % 16) as usize;
        let ids = (0..size as u64).map(|i| 1 + splitmix64(draw << 8 | i) % 300);
        let z = IdSet::from_ids(300, ids);
        assert_eq!(family.selects(&z), selects_reference(&sets, &z), "{z:?}");
    }
}

#[test]
fn implicit_and_explicit_families_share_the_binomial_law() {
    let (universe, n) = (1024u64, 16usize);
    for seed in [1u64, 2, 3] {
        let implicit = SelectiveFamily::random(universe, n, seed).sets();
        let explicit = selective_random_reference(universe, n, seed);
        assert_eq!(implicit.len(), explicit.len());
        assert_binomial_scales("implicit", &implicit, universe, n);
        assert_binomial_scales("explicit", &explicit, universe, n);
    }
}

#[test]
fn implicit_families_are_exhaustively_selective_across_seeds() {
    let (universe, n) = (10u64, 4usize);
    let failing: Vec<u64> = (0..300u64)
        .filter(|&seed| !SelectiveFamily::random(universe, n, seed).verify_exhaustive(n))
        .collect();
    assert!(
        failing.is_empty(),
        "seeds not (10, 4)-selective: {failing:?}"
    );
}
