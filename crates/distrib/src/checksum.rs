//! Shard content checksums.
//!
//! Every shard JSONL file is pinned by an FNV-1a-64 digest of its exact
//! bytes, computed streaming on both ends of the worker protocol: the worker
//! hashes what it emits, the orchestrator hashes what it writes, and the two
//! must agree before a shard is marked complete. `resume` recomputes the
//! digest from disk to decide which shards survived a crash — a truncated or
//! edited shard file fails the comparison and is re-run, never silently
//! merged.
//!
//! The hasher itself lives in `ring_combinat::codec` (re-exported here),
//! so shard files and `structure-store/v3` files are pinned by the same
//! implementation.

pub use ring_combinat::codec::{format_checksum, Fnv1a64};
use std::io::Read;
use std::path::Path;

/// Digest and line count of one shard file, as recomputed from disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileDigest {
    /// Number of `\n`-terminated lines.
    pub lines: usize,
    /// Checksum over the exact file bytes, in [`format_checksum`] form.
    pub checksum: String,
}

/// Streams a file through the hasher, counting lines.
///
/// # Errors
///
/// Propagates I/O errors (a missing file is an error, not an empty digest).
pub fn digest_file(path: &Path) -> std::io::Result<FileDigest> {
    let mut file = std::fs::File::open(path)?;
    let mut hasher = Fnv1a64::new();
    let mut lines = 0;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hasher.update(&buf[..n]);
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count();
    }
    Ok(FileDigest {
        lines,
        checksum: hasher.format(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_reference_vectors() {
        // Standard FNV-1a-64 test vectors.
        let mut h = Fnv1a64::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a64::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
        assert_eq!(h.format(), "fnv1a64:85944171f73967e8");
    }

    #[test]
    fn incremental_updates_equal_one_shot() {
        let mut a = Fnv1a64::new();
        a.update(b"hello ");
        a.update(b"world");
        let mut b = Fnv1a64::new();
        b.update(b"hello world");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn file_digest_counts_lines_and_bytes() {
        let dir = std::env::temp_dir().join(format!("ring-distrib-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.jsonl");
        std::fs::write(&path, b"{\"a\":1}\n{\"a\":2}\n").unwrap();
        let digest = digest_file(&path).unwrap();
        assert_eq!(digest.lines, 2);
        let mut h = Fnv1a64::new();
        h.update(b"{\"a\":1}\n{\"a\":2}\n");
        assert_eq!(digest.checksum, h.format());
        assert!(digest_file(&dir.join("missing.jsonl")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
