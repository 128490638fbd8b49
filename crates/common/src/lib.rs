//! # relm-common
//!
//! Shared vocabulary for the RelM reproduction: memory/time units, a
//! deterministic random-number generator, descriptive statistics helpers, and
//! the canonical [`MemoryConfig`] describing the memory-management knobs the
//! paper tunes (Table 1 of the paper).
//!
//! [`durable`] is the one write path and record codec every on-disk format
//! shares.
//!
//! Everything in this crate is dependency-light and platform-deterministic so
//! that simulation results are exactly reproducible from a seed.

pub mod config;
pub mod durable;
pub mod error;
pub mod hash;
pub mod mem;
pub mod rng;
pub mod stats;
pub mod time;

pub use config::{ConfigError, MemoryConfig, MAX_CONTAINERS_PER_NODE, MAX_NEW_RATIO};
pub use error::{Error, Result};
pub use mem::Mem;
pub use rng::Rng;
pub use time::Millis;
