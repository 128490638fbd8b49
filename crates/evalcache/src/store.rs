//! The persistent JSONL-backed store.
//!
//! Layout: a versioned header line followed by one entry per line, sorted
//! by key so the file is a pure function of the cache *contents* —
//! independent of insertion order, shard layout, or worker count:
//!
//! ```text
//! {"kind":"relm-evalcache","version":2}
//! {"key":"<32-hex>","check":<fnv64>,"value":{...}}
//! ```
//!
//! `check` is FNV-1a 64 over the entry's canonical value JSON; loading
//! re-canonicalizes each value and verifies the digest, so a truncated or
//! hand-edited file is rejected instead of silently replaying a corrupted
//! evaluation. Saves write a sibling temporary file (unique per process
//! and save) and rename it into place, so a crash mid-save can never
//! destroy the previous store.

use crate::cache::EvalCache;
use crate::key::{canonical_json, canonicalize, EvalKey};
use relm_common::hash::fnv1a64_str;
use serde::{Deserialize, Map, Number, Serialize, Value};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Store format version; bumped whenever the line layout or the cached
/// value layout changes. Version 2: `relm-tune`'s cached evaluations hold
/// Table-6 statistics instead of full profiles.
pub const STORE_VERSION: u32 = 2;
/// The `kind` tag every store file starts with.
pub const STORE_KIND: &str = "relm-evalcache";

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn header_line() -> String {
    let mut m = Map::new();
    m.insert("kind", Value::String(STORE_KIND.to_string()));
    m.insert("version", Value::Number(Number::U64(STORE_VERSION as u64)));
    Value::Object(m).to_string()
}

/// Serializes the cache to `text` (header + key-sorted entries).
fn render<V: Serialize>(cache: &EvalCache<V>) -> String {
    let mut out = header_line();
    out.push('\n');
    for (key, value) in cache.entries() {
        let value_json = canonical_json(value.as_ref());
        let mut line = Map::new();
        line.insert("key", Value::String(key.hex()));
        line.insert(
            "check",
            Value::Number(Number::U64(fnv1a64_str(&value_json))),
        );
        line.insert(
            "value",
            serde_json::from_str(&value_json).expect("canonical JSON re-parses"),
        );
        out.push_str(&Value::Object(line).to_string());
        out.push('\n');
    }
    out
}

/// Writes the cache to `path` atomically: the bytes land in a sibling
/// temporary file first and are renamed into place.
pub fn save<V: Serialize>(cache: &EvalCache<V>, path: &Path) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, render(cache))?;
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    renamed
}

/// Parses one entry line into its verified `(key, value)` pair.
fn parse_entry<V: Deserialize>(line: &str, lineno: usize) -> io::Result<(EvalKey, V)> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| invalid(format!("store line {lineno}: {e}")))?;
    let map = value
        .as_object()
        .ok_or_else(|| invalid(format!("store line {lineno}: not an object")))?;
    let key = map
        .get("key")
        .and_then(Value::as_str)
        .and_then(EvalKey::from_hex)
        .ok_or_else(|| invalid(format!("store line {lineno}: bad key")))?;
    let check = map
        .get("check")
        .and_then(Value::as_u64)
        .ok_or_else(|| invalid(format!("store line {lineno}: bad check")))?;
    let payload = map
        .get("value")
        .ok_or_else(|| invalid(format!("store line {lineno}: missing value")))?;
    let value_json = canonicalize(payload).to_string();
    if fnv1a64_str(&value_json) != check {
        return Err(invalid(format!(
            "store line {lineno}: checksum mismatch (corrupted entry for key {key})"
        )));
    }
    let parsed: V = serde_json::from_str(&value_json)
        .map_err(|e| invalid(format!("store line {lineno}: {e}")))?;
    Ok((key, parsed))
}

/// Reads a store file and returns its verified entries in file order.
pub fn read<V: Deserialize>(path: &Path) -> io::Result<Vec<(EvalKey, V)>> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| invalid("store file is empty (missing header)"))?;
    let header: Value =
        serde_json::from_str(header).map_err(|e| invalid(format!("store header: {e}")))?;
    let kind = header
        .as_object()
        .and_then(|m| m.get("kind"))
        .and_then(Value::as_str);
    if kind != Some(STORE_KIND) {
        return Err(invalid(format!(
            "store header kind is {kind:?}, expected {STORE_KIND:?}"
        )));
    }
    let version = header
        .as_object()
        .and_then(|m| m.get("version"))
        .and_then(Value::as_u64);
    if version != Some(STORE_VERSION as u64) {
        return Err(invalid(format!(
            "store version {version:?} is not the supported version {STORE_VERSION}"
        )));
    }
    let mut entries = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        entries.push(parse_entry(line, i + 1)?);
    }
    Ok(entries)
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
