//! Flight recorder: a bounded per-session ring of recent spans and
//! protocol events, dumpable to disk for post-mortem analysis.
//!
//! The serving layer keeps one [`FlightRecorder`] per session and mirrors
//! into it every protocol event it handles and every span it closes for
//! that session (via [`crate::SpanGuard::finish`], which returns the
//! committed record). When an evaluation dies to a fault, when the
//! service drains, or when a client sends an explicit `Dump` request, the
//! ring is frozen into a [`FlightDump`] and written under
//! `results/flightrec/` by [`save_dump`], through
//! [`relm_common::durable::write_atomic`] and checksummed: a dump written
//! as the process is going down is either complete and verifiable or
//! absent, never torn. The file and its directory are fsynced before
//! `save_dump` returns, so a dump it reported also survives a power loss.
//!
//! ## On-disk format
//!
//! Two JSON lines:
//!
//! ```text
//! {"kind":"relm-flightrec","version":1,"session":"s-0001","check":1234}
//! {"session":"s-0001","reason":"fault", ...}
//! ```
//!
//! This is the single-record layout of [`relm_common::durable`] that
//! session checkpoints share: the header is
//! [`relm_common::durable::header`] plus `session`, then `check`, the
//! FNV-1a hash of the payload line's raw bytes ([`render_checked`]);
//! [`read_dump`] refuses kind/version mismatches and corrupt payloads
//! ([`parse_checked`]).

use crate::span::SpanRecord;
use relm_common::durable::{header, parse_checked, render_checked, write_atomic};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// On-disk format version; bump on any incompatible change.
pub const FLIGHTREC_VERSION: u64 = 1;

/// Default ring capacity: enough for the full lifecycle of dozens of
/// requests per session while bounding each session to a few hundred KB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

const KIND: &str = "relm-flightrec";

/// One entry in a flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlightEvent {
    /// A protocol-level event (request accepted, admission verdict,
    /// response sent), stamped with the request's trace id and the
    /// telemetry clock.
    Protocol {
        /// Trace id of the request (see [`crate::trace::trace_id`]).
        trace: u64,
        /// Protocol endpoint or event label (e.g. `step_auto`, `abort`).
        event: String,
        /// Microseconds on the owning `Obs` clock ([`crate::Obs::now_us`]).
        at_us: u64,
        /// Free-form detail (queue position, abort cause, …).
        detail: String,
    },
    /// A completed span mirrored from the main ring.
    Span(SpanRecord),
}

impl FlightEvent {
    /// The trace id this event belongs to, if any.
    pub fn trace(&self) -> Option<u64> {
        match self {
            FlightEvent::Protocol { trace, .. } => Some(*trace),
            FlightEvent::Span(record) => record.trace,
        }
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
}

/// Bounded ring of [`FlightEvent`]s. Cheap to record into (one short
/// mutex, no allocation once warm) and safe to share across threads.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.clamp(1, 1024)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&self, event: FlightEvent) {
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Mirrors a completed span (the value returned by
    /// [`crate::SpanGuard::finish`]).
    pub fn record_span(&self, record: SpanRecord) {
        self.record(FlightEvent::Span(record));
    }

    /// Events currently retained, oldest first, plus the evicted count.
    pub fn snapshot(&self) -> (Vec<FlightEvent>, u64) {
        let ring = self.ring.lock().expect("flight ring poisoned");
        (ring.events.iter().cloned().collect(), ring.dropped)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes the ring into a dump for `session` with the given trigger
    /// `reason` (`fault`, `drain`, or `request`). The ring keeps its
    /// contents — later dumps see the same prefix.
    pub fn dump(&self, session: &str, reason: &str) -> FlightDump {
        let (events, dropped) = self.snapshot();
        FlightDump {
            session: session.to_string(),
            reason: reason.to_string(),
            dropped,
            events,
        }
    }
}

/// A frozen flight-recorder ring, as written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Session the ring belonged to.
    pub session: String,
    /// What triggered the dump: `fault`, `drain`, or `request`.
    pub reason: String,
    /// Events evicted from the ring before the dump.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// Per-process sequence for unique dump file names.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn safe_name(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes `dump` under `dir` (created if missing) through
/// [`write_atomic`] and returns the file path; readers never observe a
/// partial dump.
pub fn save_dump(dir: impl AsRef<Path>, dump: &FlightDump) -> io::Result<PathBuf> {
    let payload = serde_json::to_string(dump).map_err(|e| io::Error::other(e.to_string()))?;
    let mut head = header(KIND, FLIGHTREC_VERSION);
    head.insert("session", Value::String(dump.session.clone()));
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.as_ref().join(format!(
        "{}-{}-{seq}.flight.json",
        safe_name(&dump.session),
        safe_name(&dump.reason)
    ));
    write_atomic(&path, render_checked(head, &payload).as_bytes())?;
    Ok(path)
}

/// Reads and verifies a dump written by [`save_dump`].
pub fn read_dump(path: impl AsRef<Path>) -> io::Result<FlightDump> {
    let text = std::fs::read_to_string(path.as_ref())?;
    let payload = parse_checked(&text, KIND, FLIGHTREC_VERSION)?;
    serde_json::from_str(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad payload: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto(trace: u64, event: &str) -> FlightEvent {
        FlightEvent::Protocol {
            trace,
            event: event.to_string(),
            at_us: trace * 10,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record(proto(i, "step_auto"));
        }
        let (events, dropped) = rec.snapshot();
        assert_eq!(dropped, 2);
        assert_eq!(
            events
                .iter()
                .map(|e| e.trace().unwrap())
                .collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(rec.len(), 3);
        assert!(!rec.is_empty());
    }

    #[test]
    fn dump_save_read_round_trips() {
        let rec = FlightRecorder::new(8);
        rec.record(proto(7, "create_session"));
        rec.record_span(crate::SpanRecord {
            id: 1,
            parent: None,
            trace: Some(7),
            name: "serve.evaluate".into(),
            start_us: 5,
            end_us: 9,
            fields: vec![("aborted".into(), crate::FieldValue::Bool(true))],
        });
        let dump = rec.dump("s-0001", "fault");
        let dir = std::env::temp_dir().join(format!("relm-flightrec-test-{}", std::process::id()));
        let path = save_dump(&dir, &dump).unwrap();
        let back = read_dump(&path).unwrap();
        assert_eq!(back, dump);
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.events[1].trace(), Some(7));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_dumps_are_rejected() {
        let dir = std::env::temp_dir().join(format!("relm-flightrec-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = FlightRecorder::new(2).dump("s", "request");
        let path = save_dump(&dir, &dump).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Flip a payload byte: checksum must catch it.
        let tampered = text.replacen("\"reason\":\"request\"", "\"reason\":\"drained\"", 1);
        assert_ne!(tampered, text);
        std::fs::write(&path, &tampered).unwrap();
        let err = read_dump(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Wrong kind.
        std::fs::write(
            &path,
            "{\"kind\":\"other\",\"version\":1,\"check\":0}\n{}\n",
        )
        .unwrap();
        assert!(read_dump(&path).unwrap_err().to_string().contains("kind"));

        // Future version.
        std::fs::write(
            &path,
            format!("{{\"kind\":\"{KIND}\",\"version\":999,\"check\":0}}\n{{}}\n"),
        )
        .unwrap();
        assert!(read_dump(&path)
            .unwrap_err()
            .to_string()
            .contains("version"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dump_file_names_are_filesystem_safe() {
        let dir = std::env::temp_dir().join(format!("relm-flightrec-name-{}", std::process::id()));
        let dump = FlightRecorder::new(2).dump("s/../evil name", "fault");
        let path = save_dump(&dir, &dump).unwrap();
        assert!(path.starts_with(&dir));
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(file.starts_with("s____evil_name-fault-"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
