//! Source fingerprinting for cache invalidation.
//!
//! A cached cell is valid only while the code that produced it is
//! unchanged. Rather than hashing the whole repository (so editing docs or
//! the orchestrator itself would needlessly invalidate every result), the
//! fingerprint covers exactly the crates whose code can change a byte of a
//! cached result: the simulation substrate, the schedulers, the
//! statistics, and the experiment definitions — which own every
//! `impl Cell`, every shard-merge fold and every result encoding.

use std::path::{Path, PathBuf};

/// Crates (directory names under `crates/`) whose sources feed the
/// fingerprint. The orchestrator is deliberately absent: it sees cells
/// only as `&dyn Cell` and schedules, caches and ships what they return
/// (CI checks that no type outside `experiments` implements `Cell`).
/// Telemetry is listed because the conformance monitor computes a monitor
/// cell's violation counts and `telemetry::json` is the result codec, so
/// edits there must invalidate cached cells.
pub const FINGERPRINT_CRATES: [&str; 9] = [
    "simcore",
    "traffic",
    "sched",
    "qsim",
    "netsim",
    "stats",
    "core",
    "experiments",
    "telemetry",
];

/// FNV-1a 64-bit streaming hasher (dependency-free, stable across runs —
/// unlike `std`'s `DefaultHasher`, whose seed varies).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// The workspace root: `$PROPDIFF_ROOT` if set, else two levels up from
/// this crate's manifest (which is where the workspace `Cargo.toml` lives).
pub fn workspace_root() -> PathBuf {
    if let Ok(root) = std::env::var("PROPDIFF_ROOT") {
        return PathBuf::from(root);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Fingerprints the result-relevant crate sources: FNV-1a over each
/// crate's sorted `src/**/*.rs` relative paths and contents.
///
/// Missing directories hash as absent (the fingerprint still changes when
/// they appear), so a pruned checkout fails soft rather than panicking.
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut h = Fnv::new();
    for krate in FINGERPRINT_CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut files = rust_sources(&src);
        files.sort();
        for path in files {
            let rel = format!(
                "{krate}/{}",
                path.strip_prefix(&src).unwrap_or(&path).display()
            );
            h.write(rel.as_bytes());
            h.write(b"\0");
            if let Ok(contents) = std::fs::read(&path) {
                h.write(&contents);
            }
            h.write(b"\0");
        }
    }
    h.finish()
}

/// Recursively collects `*.rs` files under `dir`.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        let fnv1a = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.write(bytes);
            h.finish()
        };
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let root = workspace_root();
        let a = source_fingerprint(&root);
        let b = source_fingerprint(&root);
        assert_eq!(a, b, "same tree, same fingerprint");
        // An empty root has no sources; its fingerprint differs.
        let empty = std::env::temp_dir().join("pdd_fp_empty_test");
        let _ = std::fs::create_dir_all(&empty);
        assert_ne!(a, source_fingerprint(&empty));
        let _ = std::fs::remove_dir_all(&empty);
    }
}
