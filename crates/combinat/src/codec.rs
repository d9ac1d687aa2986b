//! The `structure-store/v3` binary codec: one self-describing file per
//! structure key.
//!
//! Serializes the expensive combinatorial structures of this crate — lists
//! of [`IdSet`]s — into self-validating byte streams, so one process can
//! construct a structure and every other thread, process or machine can
//! load it instead of reconstructing. The store keeps only distinguishers;
//! selective families are implicit (a seed and a membership function) and
//! never published, but the codec still reads a selective-family header,
//! so the store can recognise and collect a file an older store left. The
//! format is **word-exact**: the
//! payload is the sets' canonical backing words verbatim, so a decoded
//! structure is bit-identical to the encoded one and therefore (because
//! every construction is a pure function of its key) bit-identical to a
//! fresh construction. Protocol outcomes can never depend on whether a
//! structure was loaded or built.
//!
//! A file carries the [`StructureKey`] it was built for in its header, so
//! it needs nothing outside itself to say what it holds. The whole file is
//! a stream of little-endian `u64` words:
//!
//! ```text
//! magic    8 bytes  b"ringblob" (one word)
//! version  u64      3
//! kind     u64      StructureKind::code
//! universe u64      N
//! n        u64      target set size (0 for the universal strong sequence)
//! seed     u64      construction seed (0 for the universal strong sequence)
//! count    u64      number of sets
//! payload  count × (N/64 + 1) × u64   canonical IdSet words
//! digest   u64      FNV-1a-64 folded once per preceding word
//! ```
//!
//! The digest applies the FNV-1a-64 step (`xor`, then multiply by the FNV
//! prime) once per preceding **64-bit word** rather than once per byte:
//! files are tens to hundreds of megabytes of word payload, and word
//! folding checksums them at memory bandwidth (8× fewer multiplies) while
//! keeping the per-step bijectivity that makes any single corrupted byte
//! change the digest. (Shard JSONL files in `ring-distrib` are byte streams
//! and keep the classic byte-wise digest; both granularities are served by
//! the one [`Fnv1a64`] implementation below.)
//!
//! [`decode_blob_stream`] refuses anything it cannot prove exact: wrong
//! magic or version, a header key other than the one requested, a byte
//! length that does not match the header, a digest mismatch, or a payload
//! word outside canonical form. A corrupt or mis-filed file yields an
//! error — never a plausible-but-wrong structure.
//!
//! The FNV-1a-64 hasher lives here (rather than in `ring-distrib`, which
//! re-exports it) so the lowest layer of the workspace owns the one
//! implementation that pins both shard files and structure files.

use crate::idset::IdSet;
use crate::shared::{StructureKey, StructureKind};
use std::borrow::Borrow;
use std::fmt;

/// The on-disk schema identifier of the store layout this codec writes.
pub const STORE_SCHEMA: &str = "structure-store/v3";

/// The 8-byte file magic of structure files.
pub const BLOB_MAGIC: [u8; 8] = *b"ringblob";

/// The structure-file format version.
pub const BLOB_VERSION: u64 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a-64 hasher — the digest pinning shard JSONL files
/// (via `ring-distrib`) and `structure-store/v3` files.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(FNV_OFFSET)
    }
}

impl Fnv1a64 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the digest, one FNV-1a step per byte (the shard
    /// JSONL granularity).
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one 64-bit word into the digest with a single FNV-1a step —
    /// the `structure-store/v3` granularity, which checksums word payloads
    /// at memory bandwidth. Not equivalent to [`Fnv1a64::update`] on the
    /// word's bytes; a format picks one granularity and sticks to it.
    pub fn update_word(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The digest formatted as the manifest-style checksum string.
    pub fn format(&self) -> String {
        format_checksum(self.0)
    }
}

/// Formats a digest as the `fnv1a64:<16 hex digits>` string carried by run
/// manifests and the worker protocol.
pub fn format_checksum(digest: u64) -> String {
    format!("fnv1a64:{digest:016x}")
}

/// Why a byte stream was rejected by the structure-file decoders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The stream is shorter than the fixed header + trailer.
    TooShort {
        /// Bytes present.
        len: usize,
    },
    /// The magic bytes are not [`BLOB_MAGIC`].
    BadMagic,
    /// The version field is not [`BLOB_VERSION`].
    UnsupportedVersion(u64),
    /// The kind code maps to no [`StructureKind`].
    UnknownKind(u64),
    /// The universe field is zero.
    EmptyUniverse,
    /// The byte length disagrees with the header's set count.
    LengthMismatch {
        /// Bytes the header implies.
        expected: usize,
        /// Bytes present.
        actual: usize,
    },
    /// The trailing checksum does not match the preceding bytes.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
    /// A payload set violates the canonical word form.
    NotCanonical {
        /// Index of the offending set.
        set: usize,
    },
    /// The header names a different key than the one requested (a
    /// mis-filed file).
    KeyMismatch {
        /// The key the caller asked for.
        expected: StructureKey,
        /// The key the header declares.
        found: StructureKey,
    },
    /// The underlying reader failed mid-stream.
    Io(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TooShort { len } => {
                write!(f, "{len} bytes is shorter than a {STORE_SCHEMA} header")
            }
            CodecError::BadMagic => write!(f, "bad magic (not a {STORE_SCHEMA} file)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported {STORE_SCHEMA} version {v}")
            }
            CodecError::UnknownKind(code) => write!(f, "unknown structure kind code {code}"),
            CodecError::EmptyUniverse => write!(f, "structure file declares an empty universe"),
            CodecError::LengthMismatch { expected, actual } => write!(
                f,
                "structure file holds {actual} bytes where its header implies {expected}"
            ),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "structure checksum {} does not match content {}",
                format_checksum(*stored),
                format_checksum(*computed)
            ),
            CodecError::NotCanonical { set } => {
                write!(f, "payload set {set} violates the canonical word form")
            }
            CodecError::KeyMismatch { expected, found } => write!(
                f,
                "structure file holds {found:?} where {expected:?} was requested"
            ),
            CodecError::Io(e) => write!(f, "structure stream read failed: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Words per serialized set for a universe (identifier `N` lives at bit
/// `N % 64` of word `N / 64`).
fn words_per_set(universe: u64) -> usize {
    universe as usize / 64 + 1
}

/// Header words: magic, version, kind, universe, n, seed, count.
const HEADER_WORDS: usize = 7;

/// Frame size in bytes: the header plus the digest trailer.
const BLOB_FRAME_BYTES: usize = 8 * (HEADER_WORDS + 1);

/// The exact encoded size of a file holding `count` sets over `universe`.
pub fn blob_len(universe: u64, count: usize) -> usize {
    BLOB_FRAME_BYTES + count * words_per_set(universe) * 8
}

/// Encodes a list of canonical sets as the `structure-store/v3` file of
/// `key`.
///
/// # Panics
///
/// Panics if a set's universe differs from `key.universe`.
pub fn encode_blob<S: Borrow<IdSet>>(key: &StructureKey, sets: &[S]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blob_len(key.universe, sets.len()));
    let mut hasher = Fnv1a64::new();
    let mut push = |out: &mut Vec<u8>, word: u64| {
        out.extend_from_slice(&word.to_le_bytes());
        hasher.update_word(word);
    };
    for field in [
        u64::from_le_bytes(BLOB_MAGIC),
        BLOB_VERSION,
        key.kind.code(),
        key.universe,
        key.n,
        key.seed,
        sets.len() as u64,
    ] {
        push(&mut out, field);
    }
    for set in sets {
        let set = set.borrow();
        assert_eq!(
            set.universe(),
            key.universe,
            "encoded sets must live over the key's universe"
        );
        for &word in set.words() {
            push(&mut out, word);
        }
    }
    out.extend_from_slice(&hasher.finish().to_le_bytes());
    out
}

/// What a structure file's header declares, as validated by
/// [`validate_blob_stream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlobSummary {
    /// The key the file was built for.
    pub key: StructureKey,
    /// Number of payload sets.
    pub count: usize,
}

/// The one streaming reader behind [`decode_blob_stream`] and
/// [`validate_blob_stream`]: header, optional key check, exact length,
/// per-set canonical form and the trailer digest in a single pass, handing
/// each decoded set to `each` (so memory stays at one set).
fn read_blob(
    mut reader: impl std::io::Read,
    total_len: u64,
    expected: Option<&StructureKey>,
    mut each: impl FnMut(IdSet),
) -> Result<BlobSummary, CodecError> {
    let io_err = |e: std::io::Error| CodecError::Io(e.to_string());
    if total_len < BLOB_FRAME_BYTES as u64 {
        return Err(CodecError::TooShort {
            len: total_len as usize,
        });
    }
    let mut header = [0u8; 8 * HEADER_WORDS];
    reader.read_exact(&mut header).map_err(io_err)?;
    let mut hasher = Fnv1a64::new();
    let mut fields = [0u64; HEADER_WORDS];
    for (field, chunk) in fields.iter_mut().zip(header.chunks_exact(8)) {
        *field = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        hasher.update_word(*field);
    }
    let [magic, version, kind, universe, n, seed, count] = fields;
    if magic.to_le_bytes() != BLOB_MAGIC {
        return Err(CodecError::BadMagic);
    }
    if version != BLOB_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = StructureKind::from_code(kind).ok_or(CodecError::UnknownKind(kind))?;
    if universe == 0 {
        return Err(CodecError::EmptyUniverse);
    }
    let key = StructureKey {
        kind,
        universe,
        n,
        seed,
    };
    if let Some(expected) = expected.filter(|expected| **expected != key) {
        return Err(CodecError::KeyMismatch {
            expected: *expected,
            found: key,
        });
    }
    let count = count as usize;
    let wps = words_per_set(universe);
    let len = count
        .checked_mul(wps * 8)
        .and_then(|payload| payload.checked_add(BLOB_FRAME_BYTES))
        .ok_or(CodecError::LengthMismatch {
            expected: usize::MAX,
            actual: total_len as usize,
        })?;
    if total_len != len as u64 {
        return Err(CodecError::LengthMismatch {
            expected: len,
            actual: total_len as usize,
        });
    }
    // Sized only once the length check has proven the stream holds a set:
    // an empty file's header may claim any universe.
    let mut buf = vec![0u8; if count == 0 { 0 } else { wps * 8 }];
    for set_index in 0..count {
        reader.read_exact(&mut buf).map_err(io_err)?;
        let words: Vec<u64> = buf
            .chunks_exact(8)
            .map(|chunk| {
                let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                hasher.update_word(word);
                word
            })
            .collect();
        each(
            IdSet::try_from_words(universe, words)
                .ok_or(CodecError::NotCanonical { set: set_index })?,
        );
    }
    let mut trailer = [0u8; 8];
    reader.read_exact(&mut trailer).map_err(io_err)?;
    let stored = u64::from_le_bytes(trailer);
    let computed = hasher.finish();
    if computed != stored {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(BlobSummary { key, count })
}

/// Streaming single-pass decode of the structure file of `expected`: a
/// file whose header declares any other key is refused before its payload
/// is read, so a mis-filed file is never served.
///
/// # Errors
///
/// Everything [`validate_blob_stream`] rejects, plus
/// [`CodecError::KeyMismatch`].
pub fn decode_blob_stream(
    reader: impl std::io::Read,
    total_len: u64,
    expected: &StructureKey,
) -> Result<Vec<IdSet>, CodecError> {
    let mut sets = Vec::new();
    read_blob(reader, total_len, Some(expected), |set| sets.push(set))?;
    Ok(sets)
}

/// Streaming validation of a structure file without keeping its sets —
/// what store maintenance (`verify`, `gc`, resume revalidation) runs over
/// directories of hundreds-of-megabyte files: header, exact length,
/// per-set canonical form and the trailer digest are checked holding one
/// set at a time, and the header's key and set count are returned. Callers
/// compare `summary.key` against the file name to catch mis-filed files.
///
/// # Errors
///
/// Any malformed header, length, payload or digest, and
/// [`CodecError::Io`] if the reader fails.
pub fn validate_blob_stream(
    reader: impl std::io::Read,
    total_len: u64,
) -> Result<BlobSummary, CodecError> {
    read_blob(reader, total_len, None, drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distinguisher, SelectiveFamily};

    fn key(kind: StructureKind, universe: u64, n: u64, seed: u64) -> StructureKey {
        StructureKey {
            kind,
            universe,
            n,
            seed,
        }
    }

    fn dist(universe: u64) -> StructureKey {
        key(StructureKind::Distinguisher, universe, 4, 11)
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv1a64::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a64::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
        assert_eq!(h.format(), "fnv1a64:85944171f73967e8");
    }

    fn read_u64(bytes: &[u8], offset: usize) -> u64 {
        u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
    }

    /// Re-seals a file's trailer over its (edited) body, so a test can make
    /// exactly one field wrong.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let n = bytes.len() - 8;
        let mut h = Fnv1a64::new();
        for at in (0..n).step_by(8) {
            h.update_word(read_u64(&bytes, at));
        }
        bytes[n..].copy_from_slice(&h.finish().to_le_bytes());
        bytes
    }

    fn validate(bytes: &[u8]) -> Result<BlobSummary, CodecError> {
        validate_blob_stream(bytes, bytes.len() as u64)
    }

    fn decode(bytes: &[u8], key: &StructureKey) -> Result<Vec<IdSet>, CodecError> {
        decode_blob_stream(bytes, bytes.len() as u64, key)
    }

    #[test]
    fn word_folding_is_one_fnv_step_per_word() {
        let mut h = Fnv1a64::new();
        h.update_word(0x0123_4567_89ab_cdef);
        assert_eq!(
            h.finish(),
            (0xcbf29ce484222325u64 ^ 0x0123_4567_89ab_cdef).wrapping_mul(0x100000001b3)
        );
        // A file's digest chains the step over every preceding word.
        let k = dist(100);
        let bytes = encode_blob::<IdSet>(&k, &[]);
        // magic, version, kind code, universe, n, seed, count
        let header = [
            u64::from_le_bytes(BLOB_MAGIC),
            BLOB_VERSION,
            2,
            100,
            4,
            11,
            0,
        ];
        let mut chained = Fnv1a64::new();
        for word in header {
            chained.update_word(word);
        }
        assert_eq!(read_u64(&bytes, bytes.len() - 8), chained.finish());
    }

    #[test]
    fn empty_and_sparse_lists_round_trip() {
        let k = dist(100);
        let bytes = encode_blob::<IdSet>(&k, &[]);
        assert_eq!(bytes.len(), blob_len(100, 0));
        assert!(decode(&bytes, &k).unwrap().is_empty());

        let sets = vec![IdSet::from_ids(100, [1, 64, 65, 100]), IdSet::empty(100)];
        let bytes = encode_blob(&k, &sets);
        assert_eq!(decode(&bytes, &k).unwrap(), sets);
    }

    #[test]
    fn distinguisher_and_selective_family_round_trip_exactly() {
        let d = Distinguisher::random(257, 4, 11);
        let k = key(StructureKind::Distinguisher, 257, 4, 11);
        let sets = decode(&encode_blob(&k, d.sets()), &k).unwrap();
        assert_eq!(Distinguisher::from_sets(257, 4, sets), d);

        // A selective family's materialised sets are a plain set list.
        let sets = SelectiveFamily::random(130, 8, 3).sets();
        let k = key(StructureKind::SelectiveFamily, 130, 8, 3);
        assert_eq!(decode(&encode_blob(&k, &sets), &k).unwrap(), sets);
    }

    #[test]
    fn validation_agrees_with_decoding_without_materialising() {
        let sets = SelectiveFamily::random(65, 3, 4).sets();
        let k = key(StructureKind::SelectiveFamily, 65, 3, 4);
        let bytes = encode_blob(&k, &sets);
        assert_eq!(
            validate(&bytes).unwrap(),
            BlobSummary {
                key: k,
                count: sets.len()
            }
        );

        // Same corruption verdicts as the full decoder.
        let mut bad = bytes.clone();
        bad[bytes.len() - 3] ^= 1;
        assert!(validate(&bad).is_err());
        assert!(decode(&bad, &k).is_err());
        let mut bad = bytes;
        bad[BLOB_FRAME_BYTES - 8] |= 1; // id-0 bit of set 0
        let bad = reseal(bad);
        assert_eq!(validate(&bad), Err(CodecError::NotCanonical { set: 0 }));
        assert_eq!(decode(&bad, &k), Err(CodecError::NotCanonical { set: 0 }));
    }

    #[test]
    fn structural_corruption_is_rejected() {
        let bytes = encode_blob(&dist(65), &[IdSet::from_ids(65, [1, 65])]);
        let payload = BLOB_FRAME_BYTES - 8;

        // Truncation (any prefix), including mid-header.
        for cut in [0, 7, BLOB_FRAME_BYTES - 1, bytes.len() - 1] {
            assert!(validate(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        // A lying reader (short stream, correct claimed length) fails with
        // an I/O error.
        assert!(matches!(
            validate_blob_stream(&bytes[..bytes.len() - 8], bytes.len() as u64),
            Err(CodecError::Io(_))
        ));
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(validate(&bad), Err(CodecError::BadMagic));
        // Wrong version, re-sealed so only the version is wrong.
        let mut bad = bytes.clone();
        bad[8] = 4;
        assert_eq!(
            validate(&reseal(bad)),
            Err(CodecError::UnsupportedVersion(4))
        );
        // Unknown kind.
        let mut bad = bytes.clone();
        bad[16] = 99;
        assert_eq!(validate(&reseal(bad)), Err(CodecError::UnknownKind(99)));
        // Empty universe.
        let mut bad = bytes.clone();
        bad[24..32].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(validate(&reseal(bad)), Err(CodecError::EmptyUniverse));
        // Non-canonical payload (bit for identifier 0 set).
        let mut bad = bytes.clone();
        bad[payload] |= 1;
        assert_eq!(
            validate(&reseal(bad)),
            Err(CodecError::NotCanonical { set: 0 })
        );
        // A flipped (still canonical) payload bit without resealing:
        // checksum mismatch.
        let mut bad = bytes.clone();
        bad[payload] ^= 0x10;
        assert!(matches!(
            validate(&bad),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // An absurd count cannot overflow the length check.
        let mut bad = bytes;
        bad[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            validate(&reseal(bad)),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_blob_errors_name_the_v3_format() {
        let bytes = encode_blob(&dist(64), &[IdSet::from_ids(64, [7])]);
        let mut flipped = bytes.clone();
        flipped[0] ^= 0x01;
        let bad_magic = validate(&flipped).unwrap_err();
        assert_eq!(bad_magic, CodecError::BadMagic);
        let too_short = validate(&bytes[..8]).unwrap_err();
        assert_eq!(too_short, CodecError::TooShort { len: 8 });
        for err in [bad_magic, too_short, CodecError::UnsupportedVersion(2)] {
            let text = err.to_string();
            assert!(text.contains(STORE_SCHEMA), "{text}");
        }
    }

    #[test]
    fn blobs_carry_their_key_and_round_trip() {
        let d = Distinguisher::random(130, 4, 9);
        let k = key(StructureKind::Distinguisher, 130, 4, 9);
        let bytes = encode_blob(&k, d.sets());
        assert_eq!(bytes.len(), blob_len(130, d.len()));
        // Encoding is a pure function of key and payload.
        assert_eq!(encode_blob(&k, d.sets()), bytes);
        assert_eq!(decode(&bytes, &k).unwrap(), d.sets());
        assert_eq!(
            validate(&bytes).unwrap(),
            BlobSummary {
                key: k,
                count: d.len()
            }
        );
    }

    #[test]
    fn blob_corruption_and_identity_mismatches_are_rejected() {
        let sets = SelectiveFamily::random(65, 3, 4).sets();
        let k = key(StructureKind::SelectiveFamily, 65, 3, 4);
        let bytes = encode_blob(&k, &sets);
        // Truncation anywhere.
        for cut in [0, 7, BLOB_FRAME_BYTES - 9, bytes.len() - 1] {
            assert!(decode(&bytes[..cut], &k).is_err(), "cut at {cut} must fail");
        }
        // A flipped payload byte.
        let mut bad = bytes.clone();
        bad[BLOB_FRAME_BYTES] ^= 0x10;
        assert!(decode(&bad, &k).is_err());
        // Any other requested key: the file is mis-filed.
        for other in [
            key(StructureKind::Distinguisher, 65, 3, 4),
            key(StructureKind::SelectiveFamily, 66, 3, 4),
            key(StructureKind::SelectiveFamily, 65, 2, 4),
            key(StructureKind::SelectiveFamily, 65, 3, 5),
        ] {
            assert_eq!(
                decode(&bytes, &other),
                Err(CodecError::KeyMismatch {
                    expected: other,
                    found: k
                })
            );
        }
    }
}
