//! # relm-bo
//!
//! The Bayesian-Optimization tuners of §5:
//!
//! * [`BayesOpt`] — vanilla BO: a Gaussian-process surrogate over the
//!   4-dimensional configuration space, bootstrapped with Latin Hypercube
//!   samples (Table 7), driven by Expected Improvement, stopped by the
//!   CherryPick rule (EI below 10% of the incumbent and at least 6 adaptive
//!   samples).
//! * **GBO** (Guided Bayesian Optimization, §5.2) — the same optimizer with
//!   the surrogate's input extended by the three white-box metrics of model
//!   Q (Equation 8), computed from a profile of the first bootstrap run.
//! * Both variants can swap the Gaussian process for a Random Forest
//!   surrogate (§6.5, Figure 26).

pub mod bo;
pub mod reuse;

pub use bo::{BayesOpt, BoConfig, BoStep, SpaceSurrogate, SurrogateKind};
pub use reuse::{stats_fingerprint, ModelRepository, StoredModel};
