//! # relm-evalcache
//!
//! A content-addressed, thread-safe evaluation cache for the tuning
//! pipeline.
//!
//! Every tuner in the paper's evaluation (RelM, GBO, BO, DDPG, exhaustive
//! search) is scored by replaying the same deterministic simulated
//! cluster, and the figures are built from hundreds of replicated tuning
//! sessions over a small workload × configuration grid. Because an
//! evaluation is a pure function of its inputs — application spec,
//! cluster, [`MemoryConfig`](relm_common::MemoryConfig), seed, fault
//! plan, retry policy — its outcome can be memoized under a canonical
//! hash of those inputs and replayed instead of re-simulated.
//!
//! Three pieces:
//!
//! * [`KeyBuilder`] / [`EvalKey`] — canonical content addressing. Fields
//!   are encoded as canonical JSON (nested object keys sorted), sorted by
//!   field name, and hashed with FNV-1a 128, so a key never depends on
//!   field order or map iteration order.
//! * [`EvalCache`] — the in-memory store: 16 mutex-guarded shards behind
//!   one cheaply clonable handle, values shared out as `Arc`s, hit/miss/
//!   insert totals mirrored to [`relm_obs`] as `evalcache.*` counters and
//!   an `evalcache.hit_ratio` gauge.
//! * [`store`] — the optional persistent JSONL store, in
//!   [`relm_common::durable`]'s keyed-record format: versioned header,
//!   per-entry FNV-1a checksum verified on load, atomic save, and
//!   key-sorted output so the file bytes are independent of insertion
//!   order and worker count.
//!
//! ```
//! use relm_evalcache::{EvalCache, KeyBuilder};
//!
//! let cache: EvalCache<String> = EvalCache::new();
//! let key = KeyBuilder::new("demo/v1")
//!     .field("workload", &"wordcount".to_string())
//!     .field("seed", &42u64)
//!     .finish();
//! assert!(cache.get(&key).is_none()); // cold
//! cache.insert(key, "simulated outcome".to_string());
//! assert_eq!(cache.get(&key).unwrap().as_str(), "simulated outcome");
//!
//! // The same fields in any order address the same entry.
//! let same = KeyBuilder::new("demo/v1")
//!     .field("seed", &42u64)
//!     .field("workload", &"wordcount".to_string())
//!     .finish();
//! assert_eq!(key, same);
//! assert_eq!(cache.stats().hits, 1);
//! ```
//!
//! What this crate deliberately does **not** know: what a cached value
//! means. [`EvalCache`] is generic over the payload; `relm-tune` stores
//! its `CachedEval` (run result, the profile's Table-6 statistics, retry
//! accounting, and the observability counter deltas a live evaluation
//! would have emitted) so a replay is indistinguishable from a live run —
//! byte-identical histories and reconciling counters.

#![warn(missing_docs)]

mod cache;
mod key;
pub mod store;

pub use cache::{CacheStats, EvalCache};
pub use key::{canonical_json, EvalKey, KeyBuilder};
