//! The persistent cross-session memory store, in the keyed-record format
//! of [`relm_common::durable`]: a versioned header line, then one
//! checksummed digest per line, key-sorted so the file is a pure function
//! of the store *contents*:
//!
//! ```text
//! {"kind":"relm-memory","version":1}
//! {"key":"<32-hex>","check":<fnv64>,"value":{...SessionDigest...}}
//! ```
//!
//! One deliberate difference from the evalcache: a corrupted or truncated
//! entry line is **skipped and counted** ([`BadLine::Skip`],
//! `memory.skipped`) instead of failing the whole load. The evalcache
//! replays exact outcomes — a corrupt entry there would silently falsify a
//! history, so it must refuse. Memory only *informs* priors; losing one
//! digest degrades a warm start, it never corrupts a result — so the store
//! salvages every verifiable line and keeps serving. A wrong header
//! (different kind or version) is still a hard error: that is a different
//! file, not a damaged one.

use crate::digest::{SessionDigest, DIGEST_VERSION};
use crate::fingerprint::Fingerprint;
use relm_common::durable::{parse_records, render_records, write_atomic, BadLine};
use relm_evalcache::EvalKey;
use relm_obs::Obs;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Store format version; bumped whenever the line layout changes.
pub const STORE_VERSION: u32 = 1;
/// The `kind` tag every memory store file starts with.
pub const STORE_KIND: &str = "relm-memory";

/// One retrieval hit: a past session and how similar its workload
/// fingerprint is to the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieved {
    /// The digest's store key (32-hex), the deterministic tiebreaker.
    pub key: String,
    /// Similarity weight in `(0, 1]` (see [`Fingerprint::similarity`]).
    pub similarity: f64,
    /// The retrieved session digest.
    pub digest: SessionDigest,
}

/// The cross-session tuning memory: session digests keyed by their
/// canonical content address, retrievable by fingerprint similarity.
///
/// Instrumented on an [`Obs`] handle: `memory.ingested`,
/// `memory.retrievals`, `memory.retrieve_ms` (histogram),
/// `memory.store_sessions` (gauge), `memory.skipped`.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    sessions: BTreeMap<String, SessionDigest>,
    obs: Obs,
    /// Corrupted/truncated entry lines skipped by the last load.
    skipped: u64,
}

impl MemoryStore {
    /// An empty store (telemetry disabled).
    pub fn new() -> Self {
        MemoryStore::instrumented(Obs::disabled())
    }

    /// An empty store mirroring its counters to `obs`.
    pub fn instrumented(obs: Obs) -> Self {
        MemoryStore {
            sessions: BTreeMap::new(),
            obs,
            skipped: 0,
        }
    }

    /// Stored sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Entry lines the last [`MemoryStore::load`] skipped as corrupted or
    /// truncated.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Iterates the stored digests in key order.
    pub fn sessions(&self) -> impl Iterator<Item = (&String, &SessionDigest)> {
        self.sessions.iter()
    }

    /// Merges one session digest into the store. Dedup/update rule: a new
    /// key inserts; an existing key is replaced only when the incoming
    /// digest has at least as many evaluations (a longer run of the same
    /// session supersedes a shorter one; a stale shorter one never
    /// clobbers). Returns whether the store changed; every change bumps
    /// `memory.ingested` and refreshes the `memory.store_sessions` gauge.
    pub fn ingest(&mut self, digest: SessionDigest) -> bool {
        let key = digest.key().hex();
        let changed = match self.sessions.get(&key) {
            Some(existing) => *existing != digest && digest.evaluations >= existing.evaluations,
            None => true,
        };
        if changed {
            self.sessions.insert(key, digest);
            self.obs.inc("memory.ingested");
            self.obs
                .gauge("memory.store_sessions", self.sessions.len() as f64);
        }
        changed
    }

    /// The stored fingerprint to query with for a workload label: among
    /// sessions with that (normalized) label and a fingerprint, the one
    /// with the most evaluations — ties broken by key hex, so the choice
    /// is byte-reproducible.
    pub fn fingerprint_for_workload(&self, label: &str) -> Option<Fingerprint> {
        let label = crate::digest::normalize_label(label);
        self.sessions
            .iter()
            .filter(|(_, d)| d.workload == label)
            .filter_map(|(k, d)| d.fingerprint().map(|fp| (d.evaluations, k, fp)))
            // BTreeMap iterates keys ascending; max_by_key keeps the later
            // (larger-key) candidate on equal evaluation counts, which is
            // deterministic — the point of the (evaluations, key) ordering.
            .max_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)))
            .map(|(_, _, fp)| fp)
    }

    /// Top-`k` nearest stored sessions to `query`, by ascending
    /// fingerprint distance with the key hex as the deterministic
    /// tiebreaker. Sessions without a fingerprint (no clean run) never
    /// match. Counts `memory.retrievals` and records `memory.retrieve_ms`.
    pub fn retrieve(&self, query: &Fingerprint, k: usize) -> Vec<Retrieved> {
        let start = Instant::now();
        let mut hits: Vec<(f64, &String, &SessionDigest)> = self
            .sessions
            .iter()
            .filter_map(|(key, d)| d.fingerprint().map(|fp| (query.distance(&fp), key, d)))
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        hits.truncate(k);
        let out: Vec<Retrieved> = hits
            .into_iter()
            .map(|(distance, key, digest)| Retrieved {
                key: key.clone(),
                similarity: 1.0 / (1.0 + distance),
                digest: digest.clone(),
            })
            .collect();
        self.obs.inc("memory.retrievals");
        self.obs
            .record("memory.retrieve_ms", start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Writes the store to `path` atomically (header + key-sorted
    /// checksummed entries), so a crash mid-save never destroys the
    /// previous store.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let records = self
            .sessions
            .iter()
            .map(|(key, digest)| (key.clone(), digest.to_value()));
        let text = render_records(STORE_KIND, STORE_VERSION.into(), records);
        write_atomic(path, text.as_bytes())
    }

    /// Loads a store file. The header must match kind and version — a
    /// mismatch is a hard error. Entry lines that fail to parse, fail
    /// their checksum, or carry an unknown digest version are *skipped*:
    /// each skip counts on `memory.skipped` and in
    /// [`MemoryStore::skipped`], and the remaining entries load normally —
    /// a partially damaged memory degrades, it never panics or refuses.
    pub fn load(path: &Path, obs: Obs) -> io::Result<Self> {
        let start = Instant::now();
        let text = std::fs::read_to_string(path)?;
        let records = parse_records(
            &text,
            STORE_KIND,
            STORE_VERSION.into(),
            BadLine::Skip,
            |key, value| {
                EvalKey::from_hex(key).ok_or("bad key")?;
                let digest = SessionDigest::from_value(value).map_err(|e| e.to_string())?;
                if digest.version != DIGEST_VERSION {
                    return Err(format!("unsupported digest version {}", digest.version));
                }
                Ok((key.to_string(), digest))
            },
        )?;
        let mut store = MemoryStore::instrumented(obs);
        store.sessions.extend(records.entries);
        store.skipped = records.skipped;
        if records.skipped > 0 {
            store.obs.add("memory.skipped", records.skipped as f64);
        }
        store
            .obs
            .gauge("memory.store_sessions", store.sessions.len() as f64);
        store
            .obs
            .add("memory.load_ms", start.elapsed().as_secs_f64() * 1e3);
        Ok(store)
    }

    /// Like [`MemoryStore::load`], but a missing file is an empty store —
    /// the first session of a fresh deployment has no memory yet, which
    /// is not an error.
    pub fn load_or_empty(path: &Path, obs: Obs) -> io::Result<Self> {
        match MemoryStore::load(path, obs.clone()) {
            Ok(store) => Ok(store),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(MemoryStore::instrumented(obs)),
            Err(e) => Err(e),
        }
    }
}

impl Default for MemoryStore {
    fn default() -> Self {
        MemoryStore::new()
    }
}
