//! # relm-memory
//!
//! Persistent cross-session tuning memory: the layer between the
//! evalcache (exact-cell reuse) and the tuners (cross-workload
//! generalization).
//!
//! Every tuning session today starts cold, yet the paper's Table 6 shows
//! a compact resource-statistics vector characterizes a workload well
//! enough to transfer knowledge across applications (§6.6). This crate
//! makes that observation operational:
//!
//! * [`SessionDigest`] — the compact remainder of a settled session
//!   (label, mean Table-6 stats, every `(config, score)` observation),
//!   extractable from a [`relm_tune::TuningEnv`] at drain time with no
//!   live profile needed.
//! * [`Fingerprint`] — the normalized statistics vector; distance between
//!   fingerprints is the workload-similarity metric.
//! * [`MemoryStore`] — the persistent store: checksummed JSONL in
//!   [`relm_common::durable`]'s keyed-record format, shared with the
//!   evalcache, key-sorted so the bytes are reproducible, with
//!   *skip-and-count* semantics for corrupted entries (memory informs
//!   priors; it never falsifies results, so a damaged line degrades
//!   instead of failing the load).
//! * [`PriorBundle`] / [`build_prior`] — similarity-retrieved warm starts
//!   per tuner family: GP observations for BO/GBO, weighted mean stats
//!   for RelM, retrieved digests for DDPG replay seeding.
//!
//! Retrieval, prior construction, and the store bytes are all
//! deterministic (total-order comparisons, key-hex tiebreaks), so a
//! warm-started session is byte-reproducible given the same store
//! contents.

#![warn(missing_docs)]

pub mod digest;
pub mod fingerprint;
pub mod prior;
pub mod store;

pub use digest::{normalize_label, DigestObs, SessionDigest, DIGEST_VERSION};
pub use fingerprint::{Fingerprint, FP_DIMS};
pub use prior::{build_prior, PriorBundle, DEFAULT_PRIOR_CAP};
pub use store::{MemoryStore, Retrieved, STORE_KIND, STORE_VERSION};
