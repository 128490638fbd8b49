//! # relm-faults
//!
//! Deterministic fault injection for the evaluation substrate.
//!
//! Online tuning is expensive precisely because the substrate it measures
//! on is hostile (§6.1, Figure 5): containers are OOM-killed after Spark's
//! `spark.task.maxFailures`, nodes disappear, stragglers stretch wave
//! times, and monitoring stacks hand back degraded profiles. This crate
//! models that hostility as a *seeded plan*: every injection decision is a
//! pure function of the plan seed and the injection site, so the same seed
//! and plan produce byte-identical histories — replayable, diffable, and
//! safe to use in regression tests.
//!
//! The two halves:
//!
//! * [`FaultPlan`] — the injector. The engine asks it at each decision
//!   site (container wave attempts, whole waves for node loss, the profile
//!   assembly step) whether a fault fires. Sites are addressed by
//!   `(run seed, stage, wave, container, attempt)`, so injections are
//!   independent of evaluation order and survive checkpoint/resume. A
//!   stage's sites are hashed once ([`FaultPlan::stage_sites`]); each
//!   decision then hashes only its wave, container and attempt.
//! * [`AbortCause`] / [`AbortClass`] — the classification the retry layer
//!   uses: injected kills are *transient* (retry helps), node loss is
//!   *infrastructure* (retry on fresh containers helps), organic memory
//!   failures are *persistent* (the configuration is at fault; retrying
//!   burns stress time for nothing).
//!
//! ```
//! use relm_faults::{FaultConfig, FaultPlan};
//!
//! // A 20% uniform plan: every fault class fires at rate 0.2.
//! let plan = FaultPlan::new(7, FaultConfig::uniform(0.2));
//! assert!(!plan.is_off());
//!
//! // Decisions are pure functions of (plan seed, site): asking twice
//! // gives the same answer, and a sweep over many sites fires at
//! // roughly the configured rate. Run 42's "map" stage hashes its sites
//! // once; each decision adds its (wave, container, attempt).
//! let map = plan.stage_sites(42, "map");
//! let first = map.container_kill(0, 3, 0);
//! assert_eq!(first, plan.stage_sites(42, "map").container_kill(0, 3, 0));
//! let fired = (0..1000)
//!     .filter(|&c| map.container_kill(0, c, 0).is_some())
//!     .count();
//! assert!((100..350).contains(&fired), "~20% of 1000 sites, got {fired}");
//! ```

mod cause;
mod plan;
mod worker;

pub use cause::{AbortCause, AbortClass};
pub use plan::{FaultConfig, FaultPlan, InjectedFault, ProfileNoise, StageSites};
pub use worker::{WorkerFaultConfig, WorkerFaultPlan};
