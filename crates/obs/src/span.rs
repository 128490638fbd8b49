//! RAII span tracing: [`SpanGuard`]s record named, timed, field-annotated
//! spans with parent links into a bounded ring buffer.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed field value attached to a span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Floating-point measurement (times, sizes, scores).
    F64(f64),
    /// Unsigned count.
    U64(u64),
    /// Signed count.
    I64(i64),
    /// Flag.
    Bool(bool),
    /// Free-form label (abort causes, phase names).
    Str(String),
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed span, as stored in the ring buffer and exported to JSONL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within this `Obs` instance (monotonically increasing).
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// started, if any.
    pub parent: Option<u64>,
    /// Request-scoped trace id (see [`crate::trace`]), inherited from the
    /// innermost [`crate::trace::enter`] scope on the opening thread.
    /// Trace scopes cross thread boundaries explicitly — the id is carried
    /// with the work item and re-entered on the worker — so one trace
    /// stitches a request's spans across threads where parent links (which
    /// are per-thread by design) cannot.
    pub trace: Option<u64>,
    /// Span name (e.g. `engine.run`, `bo.fit_surrogate`).
    pub name: String,
    /// Microseconds since the owning `Obs` was created.
    pub start_us: u64,
    /// Microseconds since the owning `Obs` was created.
    pub end_us: u64,
    /// Key/value annotations added while the span was open.
    pub fields: Vec<(String, FieldValue)>,
}

/// Fixed-capacity ring of completed spans. When full, the oldest span is
/// overwritten and `dropped` is incremented, so hot paths never grow the
/// allocation. Each record is held behind an `Arc`, which a secondary sink
/// (a session's flight recorder) can share instead of copying.
#[derive(Debug)]
pub struct SpanRing {
    slots: Vec<Arc<SpanRecord>>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl SpanRing {
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            slots: Vec::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends `record` and returns the oldest record it overwrote, if
    /// the ring was full, so the caller can free it after unlocking.
    pub fn push(&mut self, record: Arc<SpanRecord>) -> Option<Arc<SpanRecord>> {
        if self.slots.len() < self.capacity {
            self.slots.push(record);
            return None;
        }
        let evicted = std::mem::replace(&mut self.slots[self.head], record);
        self.head = (self.head + 1) % self.capacity;
        self.dropped += 1;
        Some(evicted)
    }

    /// Copies of the spans in completion order, oldest retained first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let (newer, older) = self.slots.split_at(self.head);
        older
            .iter()
            .chain(newer)
            .map(|r| SpanRecord::clone(r))
            .collect()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Shared span-collection state, owned by `Obs`.
#[derive(Debug)]
pub(crate) struct Tracer {
    pub(crate) epoch: Instant,
    pub(crate) ring: Mutex<SpanRing>,
    next_id: AtomicU64,
}

thread_local! {
    /// Ids of spans currently open on this thread, innermost last.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub(crate) fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            ring: Mutex::new(SpanRing::new(capacity)),
            next_id: AtomicU64::new(1),
        }
    }

    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn begin(self: &Arc<Self>, name: &str) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        SpanGuard {
            tracer: Some(Arc::clone(self)),
            record: SpanRecord {
                id,
                parent,
                trace: crate::trace::current(),
                name: name.to_string(),
                start_us: self.now_us(),
                end_us: 0,
                fields: Vec::new(),
            },
        }
    }
}

/// Starts a span on `tracer`; `None` yields a guard that does nothing.
pub(crate) fn begin_span(tracer: Option<&Arc<Tracer>>, name: &str) -> SpanGuard {
    match tracer {
        Some(t) => t.begin(name),
        None => SpanGuard::noop(),
    }
}

/// RAII handle for an open span. Dropping it stamps the end time and
/// commits the record to the ring buffer.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Option<Arc<Tracer>>,
    record: SpanRecord,
}

impl SpanGuard {
    fn noop() -> Self {
        SpanGuard {
            tracer: None,
            record: empty_record(),
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.tracer.is_some()
    }

    /// Attaches (or appends) a key/value field.
    pub fn set(&mut self, key: &str, value: impl Into<FieldValue>) {
        if self.tracer.is_some() {
            self.record.fields.push((key.to_string(), value.into()));
        }
    }

    /// Builder-style [`SpanGuard::set`].
    pub fn with(mut self, key: &str, value: impl Into<FieldValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Overrides the span's start time (microseconds on the owning `Obs`
    /// clock, see [`crate::Obs::now_us`]). Lets a span cover an interval
    /// that began on another thread — e.g. queue wait, opened at dequeue
    /// but stamped from the enqueue timestamp carried with the work item.
    pub(crate) fn set_start_us(&mut self, start_us: u64) {
        if self.tracer.is_some() {
            self.record.start_us = start_us;
        }
    }

    /// Commits the span (exactly as dropping it would) and returns the
    /// committed record, shared with the ring, so callers can mirror it
    /// into a secondary sink without copying it — the serve flight
    /// recorder does this per session. `None` when the guard was not
    /// recording.
    pub fn finish(mut self) -> Option<Arc<SpanRecord>> {
        self.commit(true)
    }

    /// Stamps the end time, pops the open-span stack, and pushes the
    /// record into the ring. Returns a second handle to it only when
    /// `keep` is set. A record the push overwrote is freed after the ring
    /// lock is released.
    fn commit(&mut self, keep: bool) -> Option<Arc<SpanRecord>> {
        let tracer = self.tracer.take()?;
        OPEN_SPANS.with(|s| {
            let mut s = s.borrow_mut();
            // Normally our id is innermost; a retain keeps the stack sane
            // even if guards are dropped out of order.
            if s.last() == Some(&self.record.id) {
                s.pop();
            } else {
                s.retain(|&id| id != self.record.id);
            }
        });
        self.record.end_us = tracer.now_us();
        let record = Arc::new(std::mem::replace(&mut self.record, empty_record()));
        let kept = keep.then(|| Arc::clone(&record));
        let evicted = tracer.ring.lock().expect("span ring poisoned").push(record);
        drop(evicted);
        kept
    }
}

fn empty_record() -> SpanRecord {
    SpanRecord {
        id: 0,
        parent: None,
        trace: None,
        name: String::new(),
        start_us: 0,
        end_us: 0,
        fields: Vec::new(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.commit(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let mut ring = SpanRing::new(3);
        let mut evicted = Vec::new();
        for id in 0..5u64 {
            let record = Arc::new(SpanRecord {
                id,
                parent: None,
                trace: None,
                name: format!("s{id}"),
                start_us: id,
                end_us: id + 1,
                fields: Vec::new(),
            });
            evicted.push(ring.push(record).map(|r| (r.id, Arc::strong_count(&r))));
        }
        assert_eq!(ring.dropped(), 2);
        let ids: Vec<u64> = ring.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        // Once full, each push hands back the record it overwrote, and
        // the ring no longer holds it.
        assert_eq!(evicted, vec![None, None, None, Some((0, 1)), Some((1, 1))]);
    }

    #[test]
    fn finish_shares_the_committed_record_with_the_ring() {
        let tracer = Arc::new(Tracer::new(16));
        let record = begin_span(Some(&tracer), "mirrored")
            .with("session", "s-0001")
            .finish()
            .expect("a recording guard returns its record");
        // One allocation: the ring holds the other handle.
        assert_eq!(Arc::strong_count(&record), 2);
        let spans = tracer.ring.lock().unwrap().snapshot();
        assert_eq!(spans, vec![SpanRecord::clone(&record)]);
        assert!(begin_span(None, "ignored").finish().is_none());
    }

    #[test]
    fn nesting_links_parents() {
        let tracer = Arc::new(Tracer::new(16));
        {
            let _outer = begin_span(Some(&tracer), "outer");
            let mid = begin_span(Some(&tracer), "mid");
            let inner = begin_span(Some(&tracer), "inner");
            drop(inner);
            drop(mid);
        }
        let spans = tracer.ring.lock().unwrap().snapshot();
        assert_eq!(spans.len(), 3);
        // Completion order: inner, mid, outer.
        let inner = &spans[0];
        let mid = &spans[1];
        let outer = &spans[2];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(mid.id));
        assert_eq!(mid.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.end_us >= mid.end_us);
        assert!(outer.start_us <= mid.start_us);
    }

    #[test]
    fn noop_guard_records_nothing() {
        let mut g = begin_span(None, "ignored");
        g.set("k", 1.0);
        assert!(!g.is_recording());
    }
}
