//! # relm-profile
//!
//! The profiling substrate standing in for the paper's Thoth framework,
//! IBM PAT, and the JMX GC profiler (§4.1). An application run produces a
//! [`Profile`]: per-container GC timelines, RSS/cache/shuffle usage
//! timelines, task-concurrency intervals, and run-level counters. The
//! [`stats::derive_stats`] generator turns a profile into the Table-6
//! statistics RelM consumes, by way of [`StatsInputs`]: what the
//! statistics read from a run, which a statistics-only engine run fills
//! without recording a profile.

pub mod stats;
pub mod timeline;
pub mod trace;

pub use stats::{
    derive_stats, ContainerInputs, DerivedStats, FullGcSample, StatsAccumulator, StatsInputs,
};
pub use timeline::Timeline;
pub use trace::{ContainerTrace, Profile};
