//! Property tests of the `structure-store/v3` codec: encode→decode must be
//! bit-identical for every structure kind across word-boundary universe
//! sizes, the key must round-trip through the header, and no corrupted or
//! mis-keyed file may ever decode into a structure.

use proptest::prelude::*;
use ring_combinat::codec::{
    decode_blob_stream, encode_blob, validate_blob_stream, CodecError, BLOB_VERSION,
};
use ring_combinat::shared::splitmix64;
use ring_combinat::{Distinguisher, IdSet, StructureKey, StructureKind};

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

/// Re-seals a file's trailer over its (edited) body, so only the edited
/// field is wrong.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 8;
    let mut h = ring_combinat::Fnv1a64::new();
    for chunk in bytes[..n].chunks_exact(8) {
        h.update_word(u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    bytes[n..].copy_from_slice(&h.finish().to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomly constructed distinguishers, and plain set lists filed under
    /// a selective-family key, survive a codec round trip exactly (same
    /// sets, same order, same words).
    #[test]
    fn constructed_structures_round_trip(
        (universe, n, seed) in (universes(), 1u64..=8, any::<u64>()),
    ) {
        let round_trip = |kind: StructureKind, sets: &[IdSet]| {
            let k = key(kind, universe, n, seed);
            let bytes = encode_blob(&k, sets);
            decode_blob_stream(&bytes[..], bytes.len() as u64, &k)
        };
        let n = n as usize;
        let d = Distinguisher::random(universe, n, seed);
        let sets = round_trip(StructureKind::Distinguisher, d.sets()).expect("distinguisher decodes");
        prop_assert_eq!(&Distinguisher::from_sets(universe, n, sets), &d);

        let sets: Vec<IdSet> = (0..n as u64).map(|i| random_set(universe, seed ^ i)).collect();
        let decoded = round_trip(StructureKind::SelectiveFamily, &sets).expect("set list decodes");
        prop_assert_eq!(decoded, sets);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wrong-version error is reported as such even when the file is
    /// otherwise intact and re-sealed — a future format must be refused,
    /// not misread.
    #[test]
    fn wrong_versions_are_refused(version in (BLOB_VERSION + 1)..1000) {
        let k = key(StructureKind::Distinguisher, 64, 4, 1);
        let mut bytes = encode_blob(&k, &[IdSet::from_ids(64, [7])]);
        bytes[8..16].copy_from_slice(&version.to_le_bytes());
        reseal(&mut bytes);
        prop_assert_eq!(
            validate_blob_stream(&bytes[..], bytes.len() as u64).unwrap_err(),
            CodecError::UnsupportedVersion(version)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Files round-trip bit-identically across word boundaries — for empty,
    /// full, sparse and random sets alike — and encoding is a pure function
    /// of key and payload.
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
        let k = key(StructureKind::SelectiveFamily, universe, 3, seed);
        let bytes = encode_blob(&k, &sets);
        prop_assert_eq!(&encode_blob(&k, &sets), &bytes);
        let decoded = decode_blob_stream(&bytes[..], bytes.len() as u64, &k)
            .expect("clean files decode");
        prop_assert_eq!(decoded, sets.clone());
        let summary = validate_blob_stream(&bytes[..], bytes.len() as u64).expect("valid");
        prop_assert_eq!((summary.key, summary.count), (k, sets.len()));
    }

    /// The key round-trips through the header for every kind and any
    /// parameters.
    #[test]
    fn keys_round_trip_through_the_header(
        (kind_code, universe, n, seed) in (1u64..=3, 1u64..=(1 << 40), any::<u64>(), any::<u64>()),
    ) {
        let k = key(StructureKind::from_code(kind_code).unwrap(), universe, n, seed);
        let bytes = encode_blob::<IdSet>(&k, &[]);
        let summary = validate_blob_stream(&bytes[..], bytes.len() as u64).expect("valid");
        prop_assert_eq!((summary.key, summary.count), (k, 0));
        prop_assert!(decode_blob_stream(&bytes[..], bytes.len() as u64, &k).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Flipping any bit of any header key word (kind, universe, n, seed)
    /// is refused for the original key — whether the trailer still holds
    /// (checksum mismatch) or was re-sealed over the edit (the header now
    /// names another key, or no valid one).
    #[test]
    fn flipped_header_key_words_are_rejected(
        universe in prop_oneof![Just(63u64), Just(64), Just(65), Just(700)],
        (n, seed) in (1u64..=8, any::<u64>()),
        (word, bit, resealed) in (2usize..=5, 0u32..64, any::<bool>()),
    ) {
        let k = key(StructureKind::Distinguisher, universe, n, seed);
        let mut bytes = encode_blob(&k, &[random_set(universe, seed)]);
        let at = word * 8;
        let flipped = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) ^ (1 << bit);
        bytes[at..at + 8].copy_from_slice(&flipped.to_le_bytes());
        if resealed {
            reseal(&mut bytes);
        } else {
            prop_assert!(validate_blob_stream(&bytes[..], bytes.len() as u64).is_err());
        }
        prop_assert!(
            decode_blob_stream(&bytes[..], bytes.len() as u64, &k).is_err(),
            "header word {} with bit {} flipped still decoded", word, bit
        );
    }

    /// Corruption never yields a payload: any truncation and any single
    /// flipped byte is refused.
    #[test]
    fn corrupted_blobs_never_decode(
        universe in prop_oneof![Just(63u64), Just(64), Just(65), Just(700)],
        seed in any::<u64>(),
        (cut_seed, flip_seed, flip_bit) in (any::<u64>(), any::<u64>(), 0u32..8),
    ) {
        let k = key(StructureKind::SelectiveFamily, universe, 2, seed);
        let sets = vec![random_set(universe, seed), random_set(universe, !seed)];
        let bytes = encode_blob(&k, &sets);

        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            decode_blob_stream(&bytes[..cut], cut as u64, &k).is_err(),
            "truncation at {} decoded", cut
        );

        let mut flipped = bytes.clone();
        let at = (flip_seed % bytes.len() as u64) as usize;
        flipped[at] ^= 1 << flip_bit;
        prop_assert!(
            decode_blob_stream(&flipped[..], flipped.len() as u64, &k).is_err(),
            "byte {} flipped by {:02x} still decoded", at, 1u8 << flip_bit
        );
    }
}
