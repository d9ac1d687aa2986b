//! Property tests of the `structure-store/v2` codec: encode→decode must be
//! bit-identical for every structure kind across word-boundary universe
//! sizes, and no corrupted blob may ever decode into a structure.

use proptest::prelude::*;
use ring_combinat::codec::{
    decode_blob_stream, encode_blob, validate_blob_stream, CodecError, IndexEntry, BLOB_VERSION,
};
use ring_combinat::shared::splitmix64;
use ring_combinat::{Distinguisher, IdSet, SelectiveFamily, StructureKey, StructureKind};

/// The universe sizes the satellite pins: one below, at and above a word
/// boundary, plus the harness-scale `2^17`.
fn universes() -> impl Strategy<Value = u64> {
    prop_oneof![Just(63u64), Just(64), Just(65), Just(1u64 << 17)]
}

/// A deterministic pseudo-random set over `universe` (word-filled, so the
/// large universes cost O(N/64)).
fn random_set(universe: u64, seed: u64) -> IdSet {
    let mut s = IdSet::empty(universe);
    let mut state = seed;
    s.fill_with_words(|_| {
        state = splitmix64(state);
        state
    });
    s
}

fn key(kind: StructureKind, universe: u64, n: u64, seed: u64) -> StructureKey {
    StructureKey {
        kind,
        universe,
        n,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomly constructed distinguishers and selective families survive a
    /// codec round trip exactly (same sets, same order, same words).
    #[test]
    fn constructed_structures_round_trip(
        (universe, n, seed) in (universes(), 1u64..=8, any::<u64>()),
    ) {
        let n = n as usize;
        let round_trip = |sets: &[IdSet]| {
            let (bytes, digest) = encode_blob(universe, sets);
            decode_blob_stream(&bytes[..], bytes.len() as u64, universe, sets.len(), digest)
        };
        let d = Distinguisher::random(universe, n, seed);
        let sets = round_trip(d.sets()).expect("distinguisher decodes");
        prop_assert_eq!(&Distinguisher::from_sets(universe, n, sets), &d);

        let f = SelectiveFamily::random(universe, n, seed);
        let sets = round_trip(f.sets()).expect("family decodes");
        prop_assert_eq!(&SelectiveFamily::from_sets(universe, n, sets), &f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wrong-version error is reported as such even when the blob is
    /// otherwise intact and re-sealed — a future format must be refused,
    /// not misread.
    #[test]
    fn wrong_versions_are_refused(version in (BLOB_VERSION + 1)..1000) {
        let (mut bytes, _) = encode_blob(64, &[IdSet::from_ids(64, [7])]);
        bytes[8..16].copy_from_slice(&version.to_le_bytes());
        // Re-seal with the format's word-folded digest so only the version
        // field is wrong.
        let n = bytes.len() - 8;
        let mut h = ring_combinat::Fnv1a64::new();
        for chunk in bytes[..n].chunks_exact(8) {
            h.update_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let digest = h.finish();
        bytes[n..].copy_from_slice(&digest.to_le_bytes());
        prop_assert_eq!(
            validate_blob_stream(&bytes[..], bytes.len() as u64).unwrap_err(),
            CodecError::UnsupportedVersion(version)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Content-addressed blobs round-trip bit-identically across word
    /// boundaries — for empty, full, sparse and random sets alike — and the identity digest is a pure function of the
    /// payload — the dedup invariant of the content-addressed store.
    #[test]
    fn blobs_round_trip_and_dedup(
        (universe, seed, count) in (universes(), any::<u64>(), 0usize..4),
    ) {
        let mut sets = vec![
            IdSet::empty(universe),
            IdSet::full(universe),
            IdSet::from_ids(universe, [1, universe]),
        ];
        for i in 0..count {
            sets.push(random_set(universe, seed ^ i as u64));
        }
        let (bytes, digest) = encode_blob(universe, &sets);
        let (again, digest_again) = encode_blob(universe, &sets);
        prop_assert_eq!(&again, &bytes);
        prop_assert_eq!(digest_again, digest);
        let decoded = decode_blob_stream(&bytes[..], bytes.len() as u64, universe, sets.len(), digest)
            .expect("clean blobs decode");
        prop_assert_eq!(decoded, sets.clone());
        let summary = validate_blob_stream(&bytes[..], bytes.len() as u64).expect("valid");
        prop_assert_eq!((summary.universe, summary.count, summary.digest), (universe, sets.len(), digest));
    }

    /// Index entries round-trip through their single-line text form for
    /// every kind and any parameters.
    #[test]
    fn index_entries_round_trip(
        ((kind_code, universe, n), (seed, digest, count)) in (
            (1u64..=3, 1u64..=(1 << 40), any::<u64>()),
            (any::<u64>(), any::<u64>(), 0usize..1_000_000),
        ),
    ) {
        let entry = IndexEntry {
            key: key(
                StructureKind::from_code(kind_code).unwrap(),
                universe,
                n,
                seed,
            ),
            digest,
            count,
        };
        prop_assert_eq!(IndexEntry::parse(&entry.format()).expect("round trip"), entry);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Corruption never yields a blob payload: any truncation and any
    /// single flipped byte is refused.
    #[test]
    fn corrupted_blobs_never_decode(
        universe in prop_oneof![Just(63u64), Just(64), Just(65), Just(700)],
        seed in any::<u64>(),
        (cut_seed, flip_seed, flip_bit) in (any::<u64>(), any::<u64>(), 0u32..8),
    ) {
        let sets = vec![random_set(universe, seed), random_set(universe, !seed)];
        let (bytes, digest) = encode_blob(universe, &sets);

        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            decode_blob_stream(&bytes[..cut], cut as u64, universe, sets.len(), digest).is_err(),
            "truncation at {} decoded", cut
        );

        let mut flipped = bytes.clone();
        let at = (flip_seed % bytes.len() as u64) as usize;
        flipped[at] ^= 1 << flip_bit;
        prop_assert!(
            decode_blob_stream(&flipped[..], flipped.len() as u64, universe, sets.len(), digest)
                .is_err(),
            "byte {} flipped by {:02x} still decoded", at, 1u8 << flip_bit
        );
    }
}
