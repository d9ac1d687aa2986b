//! The `structure-store/v2` binary codec: content-addressed blobs plus
//! per-key index entries.
//!
//! Serializes the expensive combinatorial structures of this crate — lists
//! of [`IdSet`]s — into self-validating byte streams, so one process can
//! construct a structure and every other thread, process or machine can
//! load it instead of reconstructing. The format is **word-exact**: the
//! payload is the sets' canonical backing words verbatim, so a decoded
//! structure is bit-identical to the encoded one and therefore (because
//! every construction is a pure function of its key) bit-identical to a
//! fresh construction. Protocol outcomes can never depend on whether a
//! structure was loaded or built.
//!
//! A store separates *payload* from *identity*. The payload lives in a
//! **blob** named by its own digest, so identical structures constructed
//! under different logical keys land in (and are served from) one file.
//! The identity — which [`StructureKey`] resolves to which blob — lives in
//! a tiny per-key [`IndexEntry`] that is rewritten atomically, so longer
//! strong prefixes supersede shorter ones without ever mutating a
//! published blob.
//!
//! Blob layout — the whole file is a stream of little-endian `u64` words:
//!
//! ```text
//! magic    8 bytes  b"ringblob" (one word)
//! version  u64      2
//! universe u64      N
//! count    u64      number of sets
//! payload  count × (N/64 + 1) × u64   canonical IdSet words
//! digest   u64      FNV-1a-64 folded once per preceding word
//! ```
//!
//! The trailing digest is the blob's **identity**: the file is named
//! `<digest:016x>.blob` and index entries refer to it by the same value, so
//! a loader can verify name, trailer and content against each other in one
//! streaming pass. Kind, `n` and seed deliberately do not appear in a blob —
//! they are identity, not payload, and putting them in the bytes would
//! defeat the dedup.
//!
//! The digest applies the FNV-1a-64 step (`xor`, then multiply by the FNV
//! prime) once per preceding **64-bit word** rather than once per byte:
//! blobs are tens to hundreds of megabytes of word payload, and word
//! folding checksums them at memory bandwidth (8× fewer multiplies) while
//! keeping the per-step bijectivity that makes any single corrupted byte
//! change the digest. (Shard JSONL files in `ring-distrib` are byte streams
//! and keep the classic byte-wise digest; both granularities are served by
//! the one [`Fnv1a64`] implementation below.)
//!
//! [`decode_blob_stream`] refuses anything it cannot prove exact: wrong
//! magic or version, a byte length that does not match the header, a
//! digest mismatch, or a payload word outside canonical form. A corrupt
//! blob yields an error — never a plausible-but-wrong structure.
//!
//! The FNV-1a-64 hasher lives here (rather than in `ring-distrib`, which
//! re-exports it) so the lowest layer of the workspace owns the one
//! implementation that pins both shard files and structure blobs.

use crate::idset::IdSet;
use crate::shared::{StructureKey, StructureKind};
use std::borrow::Borrow;
use std::fmt;

/// The on-disk schema identifier of the v2 (content-addressed) layout:
/// payload blobs named by their own digest plus a small per-key index (see
/// [`encode_blob`] / [`IndexEntry`]).
pub const STORE_SCHEMA_V2: &str = "structure-store/v2";

/// The 8-byte file magic of v2 content-addressed blobs.
pub const BLOB_MAGIC: [u8; 8] = *b"ringblob";

/// The v2 blob format version.
pub const BLOB_VERSION: u64 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a-64 hasher — the digest pinning shard JSONL files
/// (via `ring-distrib`) and `structure-store/v2` blobs.
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
    /// the `structure-store/v2` granularity, which checksums word payloads
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

/// Why a byte stream was rejected by the blob or index-entry decoders.
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
    /// The blob's identity digest differs from what the caller expected (a
    /// mis-named blob file, or a stale index entry).
    DigestMismatch {
        /// The digest the caller expected (file name / index entry).
        expected: u64,
        /// The digest of the bytes actually present.
        computed: u64,
    },
    /// The blob's universe or set count differs from what the caller's
    /// index entry promised (an internally valid blob that is not the
    /// structure the entry described).
    BlobShapeMismatch {
        /// Universe the caller's entry promised.
        expected_universe: u64,
        /// Universe the blob declares.
        found_universe: u64,
        /// Set count the caller's entry promised.
        expected_count: usize,
        /// Set count the blob declares.
        found_count: usize,
    },
    /// A v2 index-entry line could not be parsed.
    BadIndexEntry(String),
    /// The underlying reader failed mid-stream (streaming decode only).
    Io(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TooShort { len } => {
                write!(f, "{len} bytes is shorter than a {STORE_SCHEMA_V2} header")
            }
            CodecError::BadMagic => write!(f, "bad magic (not a {STORE_SCHEMA_V2} file)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported {STORE_SCHEMA_V2} version {v}")
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
            CodecError::DigestMismatch { expected, computed } => write!(
                f,
                "blob digest {} does not match expected identity {}",
                format_checksum(*computed),
                format_checksum(*expected)
            ),
            CodecError::BlobShapeMismatch {
                expected_universe,
                found_universe,
                expected_count,
                found_count,
            } => write!(
                f,
                "blob holds {found_count} set(s) over universe {found_universe} where the \
index entry promised {expected_count} over {expected_universe}"
            ),
            CodecError::BadIndexEntry(reason) => {
                write!(f, "malformed {STORE_SCHEMA_V2} index entry: {reason}")
            }
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

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// Streams `count` sets' payload words through `hasher` while checking each
/// set's canonical form (identifier-0 bit clear, tail bits beyond the
/// universe clear) in constant memory — the validation loop of
/// [`validate_blob_stream`].
fn validate_canonical_payload(
    reader: &mut impl std::io::Read,
    universe: u64,
    count: usize,
    hasher: &mut Fnv1a64,
) -> Result<(), CodecError> {
    let io_err = |e: std::io::Error| CodecError::Io(e.to_string());
    let wps = words_per_set(universe);
    let mut buf = vec![0u8; wps * 8];
    let tail_mask = {
        let r = universe % 64;
        if r == 63 {
            !0u64
        } else {
            (1u64 << (r + 1)) - 1
        }
    };
    for set_index in 0..count {
        reader.read_exact(&mut buf).map_err(io_err)?;
        let mut first = 0u64;
        let mut last = 0u64;
        for (w, chunk) in buf.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            hasher.update_word(word);
            if w == 0 {
                first = word;
            }
            if w == wps - 1 {
                last = word;
            }
        }
        if first & 1 != 0 || last & !tail_mask != 0 {
            return Err(CodecError::NotCanonical { set: set_index });
        }
    }
    Ok(())
}

/// Blob frame size in bytes (magic, version, universe, count, digest).
const BLOB_FRAME_BYTES: usize = 8 * 5;

/// The exact encoded size of a blob holding `count` sets over `universe`.
pub fn blob_len(universe: u64, count: usize) -> usize {
    BLOB_FRAME_BYTES + count * words_per_set(universe) * 8
}

/// Encodes a list of canonical sets as one content-addressed
/// `structure-store/v2` blob, returning the bytes and the identity digest
/// (the trailer, which is also the blob's file name).
///
/// # Panics
///
/// Panics if a set's universe differs from `universe`.
pub fn encode_blob<S: Borrow<IdSet>>(universe: u64, sets: &[S]) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(blob_len(universe, sets.len()));
    let mut hasher = Fnv1a64::new();
    let mut push = |out: &mut Vec<u8>, word: u64| {
        out.extend_from_slice(&word.to_le_bytes());
        hasher.update_word(word);
    };
    for field in [
        u64::from_le_bytes(BLOB_MAGIC),
        BLOB_VERSION,
        universe,
        sets.len() as u64,
    ] {
        push(&mut out, field);
    }
    for set in sets {
        let set = set.borrow();
        assert_eq!(
            set.universe(),
            universe,
            "encoded sets must live over the blob's universe"
        );
        for &word in set.words() {
            push(&mut out, word);
        }
    }
    let digest = hasher.finish();
    out.extend_from_slice(&digest.to_le_bytes());
    (out, digest)
}

/// What a blob stream's header + trailer declare, as validated by
/// [`validate_blob_stream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlobSummary {
    /// Universe size of every payload set.
    pub universe: u64,
    /// Number of payload sets.
    pub count: usize,
    /// The identity digest (trailer, verified against the content).
    pub digest: u64,
}

/// Shared header/length validation of the streaming blob readers. Returns
/// the universe, set count and a hasher primed with the header words.
fn read_blob_header(
    reader: &mut impl std::io::Read,
    total_len: u64,
) -> Result<(u64, usize, Fnv1a64), CodecError> {
    let io_err = |e: std::io::Error| CodecError::Io(e.to_string());
    if total_len < BLOB_FRAME_BYTES as u64 {
        return Err(CodecError::TooShort {
            len: total_len as usize,
        });
    }
    let mut header = [0u8; 32];
    reader.read_exact(&mut header).map_err(io_err)?;
    if header[..8] != BLOB_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = read_u64(&header, 8);
    if version != BLOB_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let universe = read_u64(&header, 16);
    if universe == 0 {
        return Err(CodecError::EmptyUniverse);
    }
    let count = read_u64(&header, 24) as usize;
    let expected = count
        .checked_mul(words_per_set(universe) * 8)
        .and_then(|payload| payload.checked_add(BLOB_FRAME_BYTES))
        .ok_or(CodecError::LengthMismatch {
            expected: usize::MAX,
            actual: total_len as usize,
        })?;
    if total_len != expected as u64 {
        return Err(CodecError::LengthMismatch {
            expected,
            actual: total_len as usize,
        });
    }
    let mut hasher = Fnv1a64::new();
    for chunk in header.chunks_exact(8) {
        hasher.update_word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    Ok((universe, count, hasher))
}

/// Streaming single-pass decode of a content-addressed blob: header
/// validation, payload parse, word-folded digest and trailer comparison in
/// one pass, plus a check that the computed identity equals `expected_digest`
/// (the file name / index-entry identity the caller resolved). The caller's
/// expectations about universe and count — from its index entry — are
/// validated too, so a stale entry can never deliver a plausible-but-wrong
/// structure.
///
/// # Errors
///
/// Everything [`validate_blob_stream`] rejects, plus
/// [`CodecError::DigestMismatch`] and key-shaped mismatches via
/// [`CodecError::LengthMismatch`] / [`CodecError::EmptyUniverse`].
pub fn decode_blob_stream(
    mut reader: impl std::io::Read,
    total_len: u64,
    expected_universe: u64,
    expected_count: usize,
    expected_digest: u64,
) -> Result<Vec<IdSet>, CodecError> {
    let io_err = |e: std::io::Error| CodecError::Io(e.to_string());
    let (universe, count, mut hasher) = read_blob_header(&mut reader, total_len)?;
    if universe != expected_universe || count != expected_count {
        // The blob may be internally consistent but it is not the structure
        // the index entry promised.
        return Err(CodecError::BlobShapeMismatch {
            expected_universe,
            found_universe: universe,
            expected_count,
            found_count: count,
        });
    }
    let wps = words_per_set(universe);
    let mut sets = Vec::with_capacity(count);
    let mut buf = vec![0u8; wps * 8];
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
        let set = IdSet::try_from_words(universe, words)
            .ok_or(CodecError::NotCanonical { set: set_index })?;
        sets.push(set);
    }
    let mut trailer = [0u8; 8];
    reader.read_exact(&mut trailer).map_err(io_err)?;
    let stored = u64::from_le_bytes(trailer);
    let computed = hasher.finish();
    if computed != stored {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    if computed != expected_digest {
        return Err(CodecError::DigestMismatch {
            expected: expected_digest,
            computed,
        });
    }
    Ok(sets)
}

/// Streaming validation of a blob without materialisation — what store
/// maintenance (`verify`, `gc`, resume revalidation) runs over directories
/// of hundreds-of-megabyte blobs: header, exact length, per-set canonical
/// form and the trailer digest are checked in one constant-memory pass, and
/// the blob's summary is returned. Callers additionally compare
/// `summary.digest` against the file name to catch mis-filed blobs.
///
/// # Errors
///
/// Everything [`decode_blob_stream`] rejects on its shared checks, plus
/// [`CodecError::Io`].
pub fn validate_blob_stream(
    mut reader: impl std::io::Read,
    total_len: u64,
) -> Result<BlobSummary, CodecError> {
    let io_err = |e: std::io::Error| CodecError::Io(e.to_string());
    let (universe, count, mut hasher) = read_blob_header(&mut reader, total_len)?;
    validate_canonical_payload(&mut reader, universe, count, &mut hasher)?;
    let mut trailer = [0u8; 8];
    reader.read_exact(&mut trailer).map_err(io_err)?;
    let stored = u64::from_le_bytes(trailer);
    let computed = hasher.finish();
    if computed != stored {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(BlobSummary {
        universe,
        count,
        digest: computed,
    })
}

/// One logical key's entry in a v2 store index: which blob holds the key's
/// payload, and how many sets of it belong to the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// The logical key (for the strong kind the store records one
    /// *universal* entry per universe, with `n = 0` and `seed = 0`).
    pub key: StructureKey,
    /// Identity digest of the blob holding the payload.
    pub digest: u64,
    /// Number of sets the key resolves to (for prefix-extendable strong
    /// blobs this equals the blob's count and grows across republications).
    pub count: usize,
}

impl IndexEntry {
    /// The single-line on-disk form:
    /// `structure-store/v2 <kind-code> <universe> <n> <seed:016x>
    /// <digest:016x> <count>`.
    pub fn format(&self) -> String {
        format!(
            "{STORE_SCHEMA_V2} {} {} {} {:016x} {:016x} {}\n",
            self.key.kind.code(),
            self.key.universe,
            self.key.n,
            self.key.seed,
            self.digest,
            self.count,
        )
    }

    /// Parses the on-disk form.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadIndexEntry`] for anything that is not exactly one
    /// well-formed entry line.
    pub fn parse(text: &str) -> Result<Self, CodecError> {
        let bad = |reason: &str| CodecError::BadIndexEntry(reason.to_string());
        let mut fields = text.split_whitespace();
        if fields.next() != Some(STORE_SCHEMA_V2) {
            return Err(bad("missing schema tag"));
        }
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| bad(&format!("missing {what}")))
                .map(str::to_string)
        };
        let kind_code: u64 = next("kind")?
            .parse()
            .map_err(|_| bad("kind is not a number"))?;
        let kind = StructureKind::from_code(kind_code).ok_or(CodecError::UnknownKind(kind_code))?;
        let universe: u64 = next("universe")?
            .parse()
            .map_err(|_| bad("universe is not a number"))?;
        if universe == 0 {
            return Err(CodecError::EmptyUniverse);
        }
        let n: u64 = next("n")?.parse().map_err(|_| bad("n is not a number"))?;
        let seed = u64::from_str_radix(&next("seed")?, 16).map_err(|_| bad("seed is not hex"))?;
        let digest =
            u64::from_str_radix(&next("digest")?, 16).map_err(|_| bad("digest is not hex"))?;
        let count: usize = next("count")?
            .parse()
            .map_err(|_| bad("count is not a number"))?;
        if fields.next().is_some() {
            return Err(bad("trailing fields"));
        }
        Ok(IndexEntry {
            key: StructureKey {
                kind,
                universe,
                n,
                seed,
            },
            digest,
            count,
        })
    }
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

    /// Re-seals a blob's trailer over its (edited) body, so a test can make
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

    #[test]
    fn word_folding_is_one_fnv_step_per_word() {
        let mut h = Fnv1a64::new();
        h.update_word(0x0123_4567_89ab_cdef);
        assert_eq!(
            h.finish(),
            (0xcbf29ce484222325u64 ^ 0x0123_4567_89ab_cdef).wrapping_mul(0x100000001b3)
        );
        // A blob's digest chains the step over every preceding word.
        let (bytes, digest) = encode_blob::<IdSet>(100, &[]);
        let mut chained = Fnv1a64::new();
        for word in [u64::from_le_bytes(BLOB_MAGIC), BLOB_VERSION, 100, 0] {
            chained.update_word(word);
        }
        assert_eq!(digest, chained.finish());
        assert_eq!(read_u64(&bytes, bytes.len() - 8), digest);
    }

    #[test]
    fn empty_and_sparse_lists_round_trip() {
        let (bytes, digest) = encode_blob::<IdSet>(100, &[]);
        assert_eq!(bytes.len(), blob_len(100, 0));
        let decoded = decode_blob_stream(&bytes[..], bytes.len() as u64, 100, 0, digest).unwrap();
        assert!(decoded.is_empty());

        let sets = vec![IdSet::from_ids(100, [1, 64, 65, 100]), IdSet::empty(100)];
        let (bytes, digest) = encode_blob(100, &sets);
        let decoded = decode_blob_stream(&bytes[..], bytes.len() as u64, 100, 2, digest).unwrap();
        assert_eq!(decoded, sets);
    }

    #[test]
    fn distinguisher_and_selective_family_round_trip_exactly() {
        let d = Distinguisher::random(257, 4, 11);
        let (bytes, digest) = encode_blob(257, d.sets());
        let sets =
            decode_blob_stream(&bytes[..], bytes.len() as u64, 257, d.len(), digest).unwrap();
        assert_eq!(Distinguisher::from_sets(257, 4, sets), d);

        let f = SelectiveFamily::random(130, 8, 3);
        let (bytes, digest) = encode_blob(130, f.sets());
        let sets =
            decode_blob_stream(&bytes[..], bytes.len() as u64, 130, f.len(), digest).unwrap();
        assert_eq!(SelectiveFamily::from_sets(130, 8, sets), f);
    }

    #[test]
    fn validation_agrees_with_decoding_without_materialising() {
        let f = SelectiveFamily::random(65, 3, 4);
        let (bytes, digest) = encode_blob(65, f.sets());
        assert_eq!(
            validate(&bytes).unwrap(),
            BlobSummary {
                universe: 65,
                count: f.len(),
                digest
            }
        );

        // Same corruption verdicts as the full decoder.
        let decode = |b: &[u8]| decode_blob_stream(b, b.len() as u64, 65, f.len(), digest);
        let mut bad = bytes.clone();
        bad[bytes.len() - 3] ^= 1;
        assert!(validate(&bad).is_err());
        assert!(decode(&bad).is_err());
        let mut bad = bytes;
        bad[BLOB_FRAME_BYTES - 8] |= 1; // id-0 bit of set 0
        let bad = reseal(bad);
        assert_eq!(validate(&bad), Err(CodecError::NotCanonical { set: 0 }));
        assert_eq!(decode(&bad), Err(CodecError::NotCanonical { set: 0 }));
    }

    #[test]
    fn structural_corruption_is_rejected() {
        let (bytes, _) = encode_blob(65, &[IdSet::from_ids(65, [1, 65])]);
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
        bad[8] = 3;
        assert_eq!(
            validate(&reseal(bad)),
            Err(CodecError::UnsupportedVersion(3))
        );
        // Empty universe.
        let mut bad = bytes.clone();
        bad[16..24].copy_from_slice(&0u64.to_le_bytes());
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
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            validate(&reseal(bad)),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_blob_errors_name_the_v2_format() {
        let (bytes, _) = encode_blob(64, &[IdSet::from_ids(64, [7])]);
        let mut flipped = bytes.clone();
        flipped[0] ^= 0x01;
        let bad_magic = validate(&flipped).unwrap_err();
        assert_eq!(bad_magic, CodecError::BadMagic);
        let too_short = validate(&bytes[..8]).unwrap_err();
        assert_eq!(too_short, CodecError::TooShort { len: 8 });
        for err in [bad_magic, too_short, CodecError::UnsupportedVersion(3)] {
            let text = err.to_string();
            assert!(text.contains(STORE_SCHEMA_V2), "{text}");
        }
    }

    #[test]
    fn blobs_are_content_addressed_and_round_trip() {
        let d = Distinguisher::random(130, 4, 9);
        let (bytes, digest) = encode_blob(130, d.sets());
        assert_eq!(bytes.len(), blob_len(130, d.len()));
        // The trailer is the identity.
        assert_eq!(
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()),
            digest
        );
        // Identical payloads produce identical bytes and digests no matter
        // what logical key asked for them — the dedup property.
        let (again, digest2) = encode_blob(130, d.sets());
        assert_eq!((again, digest2), (bytes.clone(), digest));

        let decoded =
            decode_blob_stream(&bytes[..], bytes.len() as u64, 130, d.len(), digest).unwrap();
        assert_eq!(decoded, d.sets());
        let summary = validate_blob_stream(&bytes[..], bytes.len() as u64).unwrap();
        assert_eq!(
            summary,
            BlobSummary {
                universe: 130,
                count: d.len(),
                digest
            }
        );
    }

    #[test]
    fn blob_corruption_and_identity_mismatches_are_rejected() {
        let f = SelectiveFamily::random(65, 3, 4);
        let (bytes, digest) = encode_blob(65, f.sets());
        // Truncation anywhere.
        for cut in [0, 7, BLOB_FRAME_BYTES - 9, bytes.len() - 1] {
            assert!(
                validate_blob_stream(&bytes[..cut], cut as u64).is_err(),
                "cut at {cut} must fail"
            );
        }
        // A flipped payload byte.
        let mut bad = bytes.clone();
        bad[BLOB_FRAME_BYTES] ^= 0x10;
        assert!(validate_blob_stream(&bad[..], bad.len() as u64).is_err());
        // Wrong expected identity (a stale index entry / mis-named file).
        assert!(matches!(
            decode_blob_stream(&bytes[..], bytes.len() as u64, 65, f.len(), digest ^ 1),
            Err(CodecError::DigestMismatch { .. })
        ));
        // Wrong expected universe or count: the entry promised a different
        // structure.
        assert!(decode_blob_stream(&bytes[..], bytes.len() as u64, 66, f.len(), digest).is_err());
        assert!(
            decode_blob_stream(&bytes[..], bytes.len() as u64, 65, f.len() + 1, digest).is_err()
        );
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            validate_blob_stream(&bad[..], bad.len() as u64).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn index_entries_round_trip_and_reject_garbage() {
        let entry = IndexEntry {
            key: key(StructureKind::SelectiveFamily, 1 << 17, 64, 0xdead_beef),
            digest: 0x0123_4567_89ab_cdef,
            count: 4242,
        };
        let text = entry.format();
        assert!(text.ends_with('\n'));
        assert_eq!(IndexEntry::parse(&text).unwrap(), entry);

        for bad in [
            "",
            "structure-store/v3 2 64 4 0 0 1",
            "structure-store/v2 2 64 4",
            "structure-store/v2 99 64 4 0 0 1",
            "structure-store/v2 2 0 4 0 0 1",
            "structure-store/v2 2 64 4 zz 0 1",
            "structure-store/v2 2 64 4 0 0 1 extra",
        ] {
            assert!(IndexEntry::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
