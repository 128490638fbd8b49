//! Durable files: the one atomic write and the two versioned, checksummed
//! layouts behind every on-disk format in the workspace.
//!
//! [`write_atomic`] writes a sibling temporary file and renames it into
//! place. That is atomic against process death: a reader sees the old file
//! or the new one, never a torn one. It is not fsynced, so a power loss can
//! leave an empty or stale file.
//!
//! Every headed format opens with a `{"kind":K,"version":V}` line
//! ([`header`], verified by [`check_header`]). The two keyed stores, the
//! evaluation cache and the cross-session memory, then hold one record per
//! line:
//!
//! ```text
//! {"kind":"relm-evalcache","version":2}
//! {"key":"<32-hex>","check":<fnv64>,"value":{...}}
//! ```
//!
//! `check` is FNV-1a 64 over the value's canonical JSON ([`canonicalize`]).
//! [`parse_records`] re-canonicalizes and verifies every line, and the
//! caller's [`BadLine`] policy decides what a line that fails does.
//!
//! The single-record formats, session checkpoints and flight dumps, hold
//! one payload line whose raw bytes the header's `check` covers
//! ([`render_checked`], verified by [`parse_checked`]):
//!
//! ```text
//! {"kind":"relm-checkpoint","version":2,"check":<fnv64>}
//! {...}
//! ```

use crate::hash::fnv1a64_str;
use serde::{Map, Number, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide sequence that, with the pid, makes every temporary name
/// unique across threads and processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Writes `bytes` to `path`, creating parent directories as needed: the
/// bytes land in `<path>.<pid>.<seq>.tmp`, which is renamed into place and
/// removed on any error. Atomic against process death; not fsynced.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Recursively sorts object keys, so two values that differ only in field
/// order render, and therefore hash, identically. Arrays keep their order.
pub fn canonicalize(value: &Value) -> Value {
    match value {
        Value::Object(map) => {
            let mut entries: Vec<(&String, &Value)> = map.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            let mut out = Map::new();
            for (k, v) in entries {
                out.insert(k.clone(), canonicalize(v));
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// The `{"kind":K,"version":V}` header object. A format may append fields
/// before rendering it (the flight dump adds its payload checksum).
pub fn header(kind: &str, version: u64) -> Map {
    let mut m = Map::new();
    m.insert("kind", Value::String(kind.to_string()));
    m.insert("version", Value::Number(Number::U64(version)));
    m
}

/// Verifies a file's first line against `kind` and `version` and returns
/// the header object. A missing line, a different kind and a different
/// version are each an `InvalidData` error naming what was found.
pub fn check_header(line: Option<&str>, kind: &str, version: u64) -> io::Result<Map> {
    let line = line.ok_or_else(|| invalid(format!("{kind} file is empty (missing header)")))?;
    let parsed = serde::parse(line).map_err(|e| invalid(format!("{kind} header: {e}")))?;
    let Value::Object(map) = parsed else {
        return Err(invalid(format!("{kind} header is not an object")));
    };
    let found = map.get("kind").and_then(Value::as_str);
    if found != Some(kind) {
        return Err(invalid(format!(
            "{kind} header kind is {found:?}, expected {kind:?}"
        )));
    }
    let found = map.get("version").and_then(Value::as_u64);
    if found != Some(version) {
        return Err(invalid(format!(
            "{kind} version {found:?} is not the supported version {version}"
        )));
    }
    Ok(map)
}

/// Renders a single-record file: the header line `head` (a [`header`]
/// plus any fields the format adds, kept in insertion order) with `check`,
/// the FNV-1a 64 of `payload`'s bytes, appended last; then the payload
/// line.
pub fn render_checked(mut head: Map, payload: &str) -> String {
    head.insert("check", Value::Number(Number::U64(fnv1a64_str(payload))));
    format!("{}\n{payload}\n", Value::Object(head))
}

/// Reads a file rendered by [`render_checked`] and returns its payload
/// line. A header that does not match `kind` and `version`, a missing
/// `check` or payload line, and a payload that fails its checksum are each
/// an `InvalidData` error.
pub fn parse_checked<'a>(text: &'a str, kind: &str, version: u64) -> io::Result<&'a str> {
    let mut lines = text.lines();
    let head = check_header(lines.next(), kind, version)?;
    let check = head
        .get("check")
        .and_then(Value::as_u64)
        .ok_or_else(|| invalid(format!("{kind} header has no check")))?;
    let payload = lines
        .next()
        .ok_or_else(|| invalid(format!("{kind} file has no payload line")))?;
    if fnv1a64_str(payload) != check {
        return Err(invalid(format!("{kind} payload checksum mismatch")));
    }
    Ok(payload)
}

/// What [`parse_records`] does with a record line that fails to parse,
/// fails its checksum, or is refused by the caller's decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadLine {
    /// Fail the whole read.
    Reject,
    /// Drop the line and count it in [`Records::skipped`].
    Skip,
}

/// The verified records of a keyed-record file.
#[derive(Debug)]
pub struct Records<T> {
    /// Decoded records, in file order.
    pub entries: Vec<T>,
    /// Lines dropped under [`BadLine::Skip`].
    pub skipped: u64,
}

/// Renders a keyed-record file: the header line, then one checksummed
/// `{"key","check","value"}` line per record, in iteration order.
pub fn render_records(
    kind: &str,
    version: u64,
    records: impl IntoIterator<Item = (String, Value)>,
) -> String {
    let mut out = Value::Object(header(kind, version)).to_string();
    out.push('\n');
    for (key, value) in records {
        // The line holds the canonical value as it re-parses (`-0` reads
        // back as `0`), and the checksum covers exactly those bytes.
        let value_json = serde::parse(&canonicalize(&value).to_string())
            .expect("canonical JSON re-parses")
            .to_string();
        let key = Value::String(key);
        let check = fnv1a64_str(&value_json);
        out.push_str(&format!(
            "{{\"key\":{key},\"check\":{check},\"value\":{value_json}}}\n"
        ));
    }
    out
}

/// Parses one record line into its key and verified canonical value.
fn parse_record(line: &str) -> Result<(String, Value), String> {
    let Value::Object(map) = serde::parse(line).map_err(|e| e.to_string())? else {
        return Err("not an object".into());
    };
    let key = map.get("key").and_then(Value::as_str).ok_or("bad key")?;
    let check = map
        .get("check")
        .and_then(Value::as_u64)
        .ok_or("bad check")?;
    let value = canonicalize(map.get("value").ok_or("missing value")?);
    if fnv1a64_str(&value.to_string()) != check {
        return Err(format!("checksum mismatch (corrupted entry for key {key})"));
    }
    Ok((key.to_string(), value))
}

/// Reads a file rendered by [`render_records`]. The header must match
/// `kind` and `version`, whatever the policy. Each record line is verified,
/// then handed to `decode` with its key; a line that fails either step is
/// handled by `policy`.
pub fn parse_records<T>(
    text: &str,
    kind: &str,
    version: u64,
    policy: BadLine,
    mut decode: impl FnMut(&str, &Value) -> Result<T, String>,
) -> io::Result<Records<T>> {
    let mut lines = text.lines();
    check_header(lines.next(), kind, version)?;
    let mut records = Records {
        entries: Vec::new(),
        skipped: 0,
    };
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line).and_then(|(key, value)| decode(&key, &value)) {
            Ok(record) => records.entries.push(record),
            Err(why) => match policy {
                // Line 1 is the header.
                BadLine::Reject => return Err(invalid(format!("{kind} line {}: {why}", i + 2))),
                BadLine::Skip => records.skipped += 1,
            },
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("relm-durable-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn leftover_tmps(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.ends_with(".tmp"))
            .collect()
    }

    fn record(n: u64) -> (String, Value) {
        let mut value = Map::new();
        // Out of key order: the codec must canonicalize before hashing.
        value.insert("z", Value::Number(Number::U64(n)));
        value.insert("a", Value::String(format!("entry {n}")));
        (format!("{n:032x}"), Value::Object(value))
    }

    fn decode_any(_key: &str, value: &Value) -> Result<Value, String> {
        Ok(value.clone())
    }

    #[test]
    fn write_atomic_round_trips_and_creates_parents() {
        let dir = temp_dir("write");
        let path = dir.join("nested").join("file.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(leftover_tmps(path.parent().unwrap()).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rename_leaves_no_tmp_behind() {
        let dir = temp_dir("rename");
        // The target is an existing non-empty directory: the temp file is
        // written, and the rename over the directory fails.
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        std::fs::write(target.join("keep"), b"x").unwrap();
        assert!(write_atomic(&target, b"payload").is_err());
        assert!(leftover_tmps(&dir).is_empty(), "{:?}", leftover_tmps(&dir));
        assert_eq!(std::fs::read(target.join("keep")).unwrap(), b"x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_round_trip_canonically() {
        let text = render_records("relm-test", 3, (0..4).map(record));
        assert!(text.starts_with("{\"kind\":\"relm-test\",\"version\":3}\n"));
        assert!(text.contains("\"value\":{\"a\":\"entry 1\",\"z\":1}"));
        let read = parse_records(&text, "relm-test", 3, BadLine::Reject, decode_any).unwrap();
        assert_eq!(read.skipped, 0);
        let want: Vec<Value> = (0..4).map(|n| canonicalize(&record(n).1)).collect();
        assert_eq!(read.entries, want);
    }

    #[test]
    fn negative_zero_survives_a_round_trip() {
        let value = Value::Array(vec![
            Value::Number(Number::F64(-0.0)),
            Value::Number(Number::F64(0.5)),
        ]);
        let text = render_records("relm-test", 3, [("k".to_string(), value)]);
        let read = parse_records(&text, "relm-test", 3, BadLine::Reject, decode_any).unwrap();
        assert_eq!(read.entries[0].as_array().unwrap()[0].as_f64(), Some(0.0));
    }

    #[test]
    fn header_kind_and_version_are_checked() {
        let text = render_records("relm-test", 3, (0..2).map(record));
        let err = parse_records(&text, "relm-other", 3, BadLine::Skip, decode_any).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        let err = parse_records(&text, "relm-test", 4, BadLine::Skip, decode_any).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let err = parse_records("", "relm-test", 3, BadLine::Skip, decode_any).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let header = check_header(text.lines().next(), "relm-test", 3).unwrap();
        assert_eq!(header.get("version").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn checked_files_round_trip_and_refuse_damage() {
        let mut head = header("relm-test", 2);
        head.insert("session", Value::String("s-0001".into()));
        head.insert("zone", Value::String("a".into()));
        let payload = "{\"b\":1,\"a\":[0.5,-2]}";
        let text = render_checked(head, payload);
        // Extra fields stay between the version and the checksum, in the
        // order the format added them.
        let check = fnv1a64_str(payload);
        assert_eq!(
            text,
            format!(
                "{{\"kind\":\"relm-test\",\"version\":2,\"session\":\"s-0001\",\
                 \"zone\":\"a\",\"check\":{check}}}\n{payload}\n"
            )
        );
        let dir = temp_dir("checked");
        let path = dir.join("file.json");
        write_atomic(&path, text.as_bytes()).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_checked(&read, "relm-test", 2).unwrap(), payload);
        std::fs::remove_dir_all(&dir).ok();

        let refused = |text: &str, kind: &str, version: u64, why: &str| {
            let err = parse_checked(text, kind, version).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(why), "{err}");
        };
        refused(&text, "relm-other", 2, "kind");
        refused(&text, "relm-test", 1, "version");
        refused(&text, "relm-test", 3, "version");
        refused(&text.replacen("0.5", "0.6", 1), "relm-test", 2, "checksum");
        refused(
            &text.replacen(&check.to_string(), "1", 1),
            "relm-test",
            2,
            "checksum",
        );
        refused(text.lines().next().unwrap(), "relm-test", 2, "payload line");
        let unchecked = Value::Object(header("relm-test", 2));
        refused(
            &format!("{unchecked}\n{payload}\n"),
            "relm-test",
            2,
            "no check",
        );
        refused("", "relm-test", 2, "missing header");
    }

    /// The rendered file with its second record's value altered and a
    /// third record that fails the caller's decoder.
    fn damaged() -> String {
        let text = render_records("relm-test", 3, (0..4).map(record));
        text.replacen("\"entry 1\"", "\"entry 9\"", 1)
    }

    fn refuse_three(key: &str, value: &Value) -> Result<Value, String> {
        if key == format!("{:032x}", 3) {
            return Err("refused".into());
        }
        Ok(value.clone())
    }

    #[test]
    fn reject_policy_fails_the_read_on_the_first_bad_line() {
        let err =
            parse_records(&damaged(), "relm-test", 3, BadLine::Reject, refuse_three).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3: checksum"), "{err}");
    }

    #[test]
    fn skip_policy_drops_and_counts_bad_lines() {
        let mut text = damaged();
        text.push_str("{\"key\":\"torn\n");
        let read = parse_records(&text, "relm-test", 3, BadLine::Skip, refuse_three).unwrap();
        // Record 1 fails its checksum, record 3 its decoder, and the last
        // line is torn.
        assert_eq!(read.skipped, 3);
        let want: Vec<Value> = [0, 2].map(|n| canonicalize(&record(n).1)).to_vec();
        assert_eq!(read.entries, want);
    }
}
