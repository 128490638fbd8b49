//! The persistent JSONL-backed store, in the keyed-record format of
//! [`relm_common::durable`]: a versioned header line, then one checksummed
//! entry per line, sorted by key so the file is a pure function of the
//! cache *contents*, independent of insertion order, shard layout, or
//! worker count:
//!
//! ```text
//! {"kind":"relm-evalcache","version":2}
//! {"key":"<32-hex>","check":<fnv64>,"value":{...}}
//! ```
//!
//! Loading rejects the whole file on the first line that fails to parse or
//! verify ([`BadLine::Reject`]): a truncated or hand-edited file is refused
//! instead of silently replaying a corrupted evaluation. Saves go through
//! [`write_atomic`], so a crash mid-save never destroys the previous store.

use crate::cache::EvalCache;
use crate::key::EvalKey;
use relm_common::durable::{parse_records, render_records, write_atomic, BadLine};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Store format version; bumped whenever the line layout or the cached
/// value layout changes. Version 2: `relm-tune`'s cached evaluations hold
/// Table-6 statistics instead of full profiles.
pub const STORE_VERSION: u32 = 2;
/// The `kind` tag every store file starts with.
pub const STORE_KIND: &str = "relm-evalcache";

/// Writes the cache to `path` atomically (header + key-sorted entries)
/// and adds the file's size to `evalcache.bytes`.
pub fn save<V: Serialize>(cache: &EvalCache<V>, path: &Path) -> io::Result<()> {
    let records = cache
        .entries()
        .into_iter()
        .map(|(key, value)| (key.hex(), value.as_ref().to_value()));
    let text = render_records(STORE_KIND, STORE_VERSION.into(), records);
    write_atomic(path, text.as_bytes())?;
    cache.obs().add("evalcache.bytes", text.len() as f64);
    Ok(())
}

/// Reads a store file and returns its verified entries in file order.
pub fn read<V: Deserialize>(path: &Path) -> io::Result<Vec<(EvalKey, V)>> {
    let text = std::fs::read_to_string(path)?;
    let records = parse_records(
        &text,
        STORE_KIND,
        STORE_VERSION.into(),
        BadLine::Reject,
        |key, value| {
            let key = EvalKey::from_hex(key).ok_or("bad key")?;
            Ok((key, V::from_value(value).map_err(|e| e.to_string())?))
        },
    )?;
    Ok(records.entries)
}

/// Loads a store file into the cache, returning how many entries were
/// restored. Restored entries do not count as inserts; the wall-clock
/// cost and volume land on `evalcache.{load_ms,bytes}`.
pub fn load<V: Serialize + Deserialize>(cache: &EvalCache<V>, path: &Path) -> io::Result<usize> {
    let start = Instant::now();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let entries = read::<V>(path)?;
    let restored = entries.len();
    for (key, value) in entries {
        cache.restore(key, value);
    }
    let obs = cache.obs();
    obs.add("evalcache.load_ms", start.elapsed().as_secs_f64() * 1e3);
    obs.add("evalcache.bytes", bytes as f64);
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "relm-evalcache-store-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    fn sample_cache() -> EvalCache<Vec<f64>> {
        let cache = EvalCache::new();
        for n in 0..5u64 {
            let key = KeyBuilder::new("t").field("n", &n).finish();
            cache.insert(key, vec![n as f64, 0.5]);
        }
        cache
    }

    #[test]
    fn save_load_round_trips() {
        let path = tmp_path("roundtrip");
        let cache = sample_cache();
        save(&cache, &path).unwrap();
        let restored: EvalCache<Vec<f64>> = EvalCache::new();
        assert_eq!(load(&restored, &path).unwrap(), 5);
        assert_eq!(restored.len(), 5);
        for (key, value) in cache.entries() {
            assert_eq!(restored.get(&key).unwrap().as_ref(), value.as_ref());
        }
        // Restores are not inserts.
        assert_eq!(restored.stats().inserts, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// `evalcache.bytes` counts store files, not inserts: nothing moves
    /// until a save, which adds the written file's size, and a load adds
    /// the size of the file it read.
    #[test]
    fn saves_and_loads_count_file_bytes() {
        let path = tmp_path("bytes");
        let obs = relm_obs::Obs::enabled();
        let cache: EvalCache<Vec<f64>> = EvalCache::instrumented(obs.clone());
        cache.insert(KeyBuilder::new("t").field("n", &1u64).finish(), vec![0.5]);
        assert_eq!(obs.counter_value("evalcache.bytes"), 0.0);
        save(&cache, &path).unwrap();
        let size = std::fs::metadata(&path).unwrap().len() as f64;
        assert!(size > 0.0);
        assert_eq!(obs.counter_value("evalcache.bytes"), size);
        load(&cache, &path).unwrap();
        assert_eq!(obs.counter_value("evalcache.bytes"), 2.0 * size);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_is_versioned_and_checked() {
        let path = tmp_path("header");
        save(&sample_cache(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"relm-evalcache\""));
        assert!(header.contains("\"version\":2"));

        // A file from an older or newer layout is rejected, never replayed.
        for stale in ["1", "99"] {
            let other = text.replacen("\"version\":2", &format!("\"version\":{stale}"), 1);
            std::fs::write(&path, other).unwrap();
            let err = read::<Vec<f64>>(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("version"), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_values_are_rejected() {
        let path = tmp_path("corrupt");
        save(&sample_cache(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the first entry's value array.
        let corrupted = text.replacen("0.5", "0.75", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let err = read::<Vec<f64>>(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let path = tmp_path("atomic");
        save(&sample_cache(), &path).unwrap();
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&stem) && n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked tmp files: {leftovers:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_is_independent_of_insertion_order() {
        let a = EvalCache::new();
        let b = EvalCache::new();
        let keys: Vec<EvalKey> = (0..6u64)
            .map(|n| KeyBuilder::new("t").field("n", &n).finish())
            .collect();
        for &k in &keys {
            a.insert(k, 1u64);
        }
        for &k in keys.iter().rev() {
            b.insert(k, 1u64);
        }
        let (pa, pb) = (tmp_path("order-a"), tmp_path("order-b"));
        save(&a, &pa).unwrap();
        save(&b, &pb).unwrap();
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "store bytes must not depend on insertion order"
        );
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }
}
