//! The on-disk result cache: one JSON file per cell, keyed by a content
//! hash of (cell parameters, scale, source fingerprint, schema version).
//!
//! # Layout
//!
//! ```text
//! <cache-dir>/<scale-tag>/<cell-id>.json
//! <cache-dir>/<scale-tag>/shards/<cell-id>.s<K>of<N>.json
//! ```
//!
//! where `<scale-tag>` is `quick`, `paper`, `bench`, or `p<punits>s<seeds>`
//! for custom scales, and `<cell-id>` is [`Cell::id`]. Each cell file
//! holds `{"key": "<16 hex digits>", "cell": {...params...}, "result":
//! {...}}`.
//!
//! The `shards/` subdirectory is the experiment farm's coordination
//! substrate: shard `K` of a cell split `N` ways lands there the moment a
//! worker finishes it, keyed by the cell key *extended with* `(K, N)`.
//! A crashed or interrupted run resumes by re-running only shards with no
//! valid entry, and once a cell's merged entry is stored its shard files
//! are deleted — the steady state stays one file per cell per scale.
//!
//! # Invalidation rule
//!
//! A stored entry is a hit iff its `key` equals the FNV-1a 64 hash of the
//! cell's canonical parameter JSON, the scale tag, the source fingerprint
//! of the result-relevant crates (see [`crate::fingerprint`]), and the
//! schema version. Change a sweep parameter, the simulation source, or the
//! result schema and the key changes; the stale file is simply overwritten
//! on the next run (the cache never grows beyond one file per cell per
//! scale). Corrupt or unreadable files behave as misses. Shard entries
//! inherit the same rule through the embedded cell key, so no shard can
//! ever be replayed across a source change or a different shard split.

use std::io;
use std::path::{Path, PathBuf};

use experiments::cell::Cell;
use experiments::Scale;
use pdd::telemetry::json::Json;

use crate::fingerprint::Fnv;

/// Bumped whenever the cell result JSON layout changes, so stale shapes
/// can never be replayed into a newer reader.
pub const SCHEMA_VERSION: u32 = 1;

/// The scale tag used as the cache subdirectory name.
pub fn scale_tag(scale: Scale) -> String {
    match scale {
        Scale::Paper => "paper".into(),
        Scale::Quick => "quick".into(),
        Scale::Bench => "bench".into(),
        Scale::Custom { punits, nseeds } => format!("p{punits}s{nseeds}"),
    }
}

/// A handle on one cache directory bound to one source fingerprint.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    fingerprint: u64,
}

impl Cache {
    /// Opens (without touching the filesystem) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>, fingerprint: u64) -> Cache {
        Cache {
            dir: dir.into(),
            fingerprint,
        }
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content key a valid entry for `cell` at `scale` must carry.
    pub fn key(&self, cell: &dyn Cell, scale: Scale) -> u64 {
        let mut h = Fnv::new();
        h.write(cell.params().serialize().as_bytes());
        h.write(b"\0");
        h.write(scale_tag(scale).as_bytes());
        h.write(b"\0");
        h.write(&self.fingerprint.to_le_bytes());
        h.write(&SCHEMA_VERSION.to_le_bytes());
        h.finish()
    }

    fn path(&self, cell: &dyn Cell, scale: Scale) -> PathBuf {
        self.dir.join(scale_tag(scale)).join(cell.id() + ".json")
    }

    /// Loads the cached result for `cell`, or `None` on a miss (absent,
    /// unreadable, or carrying a stale key).
    pub fn load(&self, cell: &dyn Cell, scale: Scale) -> Option<Json> {
        let entry = read_keyed(&self.path(cell, scale), self.key(cell, scale))?;
        entry.get("result").cloned()
    }

    /// Stores `result` for `cell`, overwriting any stale entry. The write
    /// is atomic: an interrupted run leaves either the old entry or the new
    /// one, so resuming re-runs only genuinely missing cells.
    pub fn store(&self, cell: &dyn Cell, scale: Scale, result: &Json) -> io::Result<()> {
        let entry = Json::obj(vec![
            ("key", key_str(self.key(cell, scale))),
            ("cell", cell.params()),
            ("result", result.clone()),
        ]);
        write_atomic(&self.path(cell, scale), &entry.serialize())
    }

    /// The content key a shard entry must carry: the cell key extended
    /// with the shard coordinates, so a partial can never be replayed into
    /// a different shard split (or a different shard of the same split).
    pub fn shard_key(&self, cell: &dyn Cell, scale: Scale, shard: usize, shards: usize) -> u64 {
        let mut h = Fnv::new();
        h.write(&self.key(cell, scale).to_le_bytes());
        h.write(b"\0shard\0");
        h.write(&(shard as u64).to_le_bytes());
        h.write(&(shards as u64).to_le_bytes());
        h.finish()
    }

    fn shard_path(&self, cell: &dyn Cell, scale: Scale, shard: usize, shards: usize) -> PathBuf {
        self.dir
            .join(scale_tag(scale))
            .join("shards")
            .join(format!("{}.s{shard}of{shards}.json", cell.id()))
    }

    /// Loads shard `shard` of `shards` for `cell` — the partial result
    /// JSON plus its optional registry snapshot — or `None` on a miss.
    pub fn load_shard(
        &self,
        cell: &dyn Cell,
        scale: Scale,
        shard: usize,
        shards: usize,
    ) -> Option<(Json, Option<String>)> {
        let entry = read_keyed(
            &self.shard_path(cell, scale, shard, shards),
            self.shard_key(cell, scale, shard, shards),
        )?;
        let partial = entry.get("partial")?.clone();
        let registry = match entry.get("registry") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        Some((partial, registry))
    }

    /// Stores one shard's partial (atomically, as [`store`](Self::store)
    /// does), making it visible to resumed runs the moment the shard
    /// finishes.
    pub fn store_shard(
        &self,
        cell: &dyn Cell,
        scale: Scale,
        shard: usize,
        shards: usize,
        partial: &Json,
        registry: Option<&str>,
    ) -> io::Result<()> {
        let entry = Json::obj(vec![
            ("key", key_str(self.shard_key(cell, scale, shard, shards))),
            ("shard", Json::Int(shard as i64)),
            ("shards", Json::Int(shards as i64)),
            ("partial", partial.clone()),
            (
                "registry",
                registry.map(|s| Json::Str(s.into())).unwrap_or(Json::Null),
            ),
        ]);
        write_atomic(
            &self.shard_path(cell, scale, shard, shards),
            &entry.serialize(),
        )
    }

    /// Best-effort removal of a cell's shard entries once its merged entry
    /// is stored; the steady state stays one file per cell per scale.
    pub fn remove_shards(&self, cell: &dyn Cell, scale: Scale, shards: usize) {
        for shard in 0..shards {
            let _ = std::fs::remove_file(self.shard_path(cell, scale, shard, shards));
        }
    }

    /// Writes a cell's metrics-registry snapshot next to its cache entry
    /// as `<cell-id>.metrics.json`, atomically.
    ///
    /// Sidecars are artifacts, not cache entries: they carry no content
    /// key and never feed cache hits, so a warm run — which skips the
    /// simulation entirely — leaves the previous snapshot in place. They
    /// also stay out of the merged results document, which must remain
    /// byte-stable across cold and warm runs.
    pub fn store_metrics(&self, cell: &dyn Cell, scale: Scale, snapshot: &str) -> io::Result<()> {
        let dir = self.dir.join(scale_tag(scale));
        write_atomic(&dir.join(cell.id() + ".metrics.json"), snapshot)
    }
}

/// A content key as an entry stores it: 16 hex digits.
fn key_str(key: u64) -> Json {
    Json::Str(format!("{key:016x}"))
}

/// The entry at `path`, if it reads, parses and carries `key`.
fn read_keyed(path: &Path, key: u64) -> Option<Json> {
    let entry = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    (entry.get("key") == Some(&key_str(key))).then_some(entry)
}

/// Writes `bytes` to `path` through a same-directory temp file and a
/// rename, creating the directory first: an interrupted run leaves the old
/// file or the new one, never a torn one.
fn write_atomic(path: &Path, bytes: &str) -> io::Result<()> {
    std::fs::create_dir_all(path.parent().expect("cache path has a parent"))?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(name: &str, fingerprint: u64) -> Cache {
        let dir = std::env::temp_dir().join(format!("pdd_cache_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::new(dir, fingerprint)
    }

    /// The `plr` suite's σ = 2 and σ = 4 cells.
    fn plr_cells() -> Vec<Box<dyn Cell>> {
        experiments::cell::suite_cells("plr").expect("plr suite")
    }

    fn cell() -> Box<dyn Cell> {
        plr_cells().remove(1)
    }

    #[test]
    fn store_then_load_hits() {
        let cache = temp_cache("hit", 7);
        let result = Json::obj(vec![("x", Json::Int(1))]);
        assert!(cache.load(&*cell(), Scale::Bench).is_none(), "cold miss");
        cache.store(&*cell(), Scale::Bench, &result).unwrap();
        assert_eq!(cache.load(&*cell(), Scale::Bench), Some(result));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cell_change_misses() {
        let cache = temp_cache("cellchange", 7);
        let result = Json::Int(1);
        cache.store(&*cell(), Scale::Bench, &result).unwrap();
        // A different cell of the same group stores under a different file.
        let other = plr_cells().remove(2);
        assert!(cache.load(&*other, Scale::Bench).is_none());
        // Same id, different parameters ⇒ different key ⇒ miss. Simulate a
        // parameter change by writing `other`'s entry over `cell()`'s file.
        let dir = cache.dir().join(scale_tag(Scale::Bench));
        std::fs::copy(
            dir.join(other.id() + ".json"),
            dir.join(cell().id() + ".json"),
        )
        .ok();
        assert_ne!(
            cache.key(&*cell(), Scale::Bench),
            cache.key(&*other, Scale::Bench)
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn scale_and_fingerprint_changes_miss() {
        let cache = temp_cache("fp", 7);
        let result = Json::Int(1);
        cache.store(&*cell(), Scale::Bench, &result).unwrap();
        // Same dir, same cell, different scale ⇒ different subdirectory.
        assert!(cache.load(&*cell(), Scale::Quick).is_none());
        // Same dir, same cell, different source fingerprint ⇒ key mismatch.
        let other_sources = Cache::new(cache.dir().to_path_buf(), 8);
        assert!(other_sources.load(&*cell(), Scale::Bench).is_none());
        // And the original still hits.
        assert!(cache.load(&*cell(), Scale::Bench).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = temp_cache("corrupt", 7);
        cache.store(&*cell(), Scale::Bench, &Json::Int(1)).unwrap();
        let path = cache
            .dir()
            .join(scale_tag(Scale::Bench))
            .join(cell().id() + ".json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(cache.load(&*cell(), Scale::Bench).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn metrics_sidecars_land_next_to_entries() {
        let cache = temp_cache("sidecar", 7);
        let snapshot = "{\"schema\":\"propdiff-metrics-v1\"}";
        cache
            .store_metrics(&*cell(), Scale::Bench, snapshot)
            .unwrap();
        let path = cache
            .dir()
            .join(scale_tag(Scale::Bench))
            .join(cell().id() + ".metrics.json");
        assert_eq!(std::fs::read_to_string(path).unwrap(), snapshot);
        // The sidecar is not a cache entry.
        assert!(cache.load(&*cell(), Scale::Bench).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn shard_entries_round_trip_and_respect_their_split() {
        let cache = temp_cache("shard", 7);
        let partial = Json::obj(vec![("rows", Json::Arr(vec![Json::Int(3)]))]);
        assert!(cache.load_shard(&*cell(), Scale::Bench, 1, 4).is_none());
        cache
            .store_shard(&*cell(), Scale::Bench, 1, 4, &partial, Some("{\"x\":1}"))
            .unwrap();
        assert_eq!(
            cache.load_shard(&*cell(), Scale::Bench, 1, 4),
            Some((partial.clone(), Some("{\"x\":1}".into())))
        );
        // Same shard index under a different split is a different entry.
        assert!(cache.load_shard(&*cell(), Scale::Bench, 1, 2).is_none());
        // The merged-entry namespace is untouched.
        assert!(cache.load(&*cell(), Scale::Bench).is_none());
        // A registry-less shard loads back with `None`.
        cache
            .store_shard(&*cell(), Scale::Bench, 0, 4, &partial, None)
            .unwrap();
        assert_eq!(
            cache.load_shard(&*cell(), Scale::Bench, 0, 4),
            Some((partial, None))
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn remove_shards_clears_the_split() {
        let cache = temp_cache("shardrm", 7);
        let partial = Json::Int(1);
        for shard in 0..3 {
            cache
                .store_shard(&*cell(), Scale::Bench, shard, 3, &partial, None)
                .unwrap();
        }
        cache.remove_shards(&*cell(), Scale::Bench, 3);
        for shard in 0..3 {
            assert!(cache.load_shard(&*cell(), Scale::Bench, shard, 3).is_none());
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn scale_tags_are_distinct() {
        assert_eq!(scale_tag(Scale::Quick), "quick");
        assert_eq!(
            scale_tag(Scale::Custom {
                punits: 12_000,
                nseeds: 2
            }),
            "p12000s2"
        );
    }
}
