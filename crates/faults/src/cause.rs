//! Abort-cause taxonomy shared by the engine, the resource manager, and
//! the tuning environment's retry layer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an application run (or one evaluation attempt) aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbortCause {
    /// A container JVM threw `OutOfMemoryError` and the wave exhausted its
    /// task retries.
    Oom,
    /// The resource manager killed containers over the physical-memory cap
    /// until the wave exhausted its task retries.
    RssKill,
    /// An injected transient container kill exhausted the task retries.
    InjectedKill,
    /// An injected node loss took out every container on a node.
    NodeLoss,
    /// The evaluation exceeded the environment's per-evaluation timeout
    /// (stragglers, runaway recovery loops).
    Timeout,
}

/// The retry layer's view of an abort: does retrying the evaluation have a
/// chance of succeeding?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbortClass {
    /// Bad luck, not a bad configuration: a retry draws fresh noise and
    /// usually passes (injected kills, timeouts).
    Transient,
    /// The configuration itself cannot run the application (organic OOM or
    /// RSS kills); retrying burns stress time for nothing.
    Persistent,
    /// The platform failed underneath the application (node loss); a retry
    /// lands on replacement hardware.
    Infra,
}

impl AbortCause {
    /// Classifies the cause for the retry policy.
    pub fn class(self) -> AbortClass {
        match self {
            AbortCause::Oom | AbortCause::RssKill => AbortClass::Persistent,
            AbortCause::InjectedKill | AbortCause::Timeout => AbortClass::Transient,
            AbortCause::NodeLoss => AbortClass::Infra,
        }
    }

    /// Stable lower-case label used in telemetry fields and counters.
    pub fn as_str(self) -> &'static str {
        match self {
            AbortCause::Oom => "oom",
            AbortCause::RssKill => "rss_kill",
            AbortCause::InjectedKill => "injected_kill",
            AbortCause::NodeLoss => "node_loss",
            AbortCause::Timeout => "timeout",
        }
    }

    /// The tuning environment's per-cause abort counter,
    /// `env.aborts.<label>`.
    pub fn aborts_counter(self) -> &'static str {
        match self {
            AbortCause::Oom => "env.aborts.oom",
            AbortCause::RssKill => "env.aborts.rss_kill",
            AbortCause::InjectedKill => "env.aborts.injected_kill",
            AbortCause::NodeLoss => "env.aborts.node_loss",
            AbortCause::Timeout => "env.aborts.timeout",
        }
    }

    /// Every cause, in a stable order (for histograms and reports).
    pub const ALL: [AbortCause; 5] = [
        AbortCause::Oom,
        AbortCause::RssKill,
        AbortCause::InjectedKill,
        AbortCause::NodeLoss,
        AbortCause::Timeout,
    ];
}

impl AbortClass {
    /// Stable lower-case label used in telemetry counters.
    pub fn as_str(self) -> &'static str {
        match self {
            AbortClass::Transient => "transient",
            AbortClass::Persistent => "persistent",
            AbortClass::Infra => "infra",
        }
    }

    /// Every class, in a stable order.
    pub const ALL: [AbortClass; 3] = [
        AbortClass::Transient,
        AbortClass::Persistent,
        AbortClass::Infra,
    ];
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for AbortClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_retry_semantics() {
        assert_eq!(AbortCause::Oom.class(), AbortClass::Persistent);
        assert_eq!(AbortCause::RssKill.class(), AbortClass::Persistent);
        assert_eq!(AbortCause::InjectedKill.class(), AbortClass::Transient);
        assert_eq!(AbortCause::Timeout.class(), AbortClass::Transient);
        assert_eq!(AbortCause::NodeLoss.class(), AbortClass::Infra);
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let labels: Vec<&str> = AbortCause::ALL.iter().map(|c| c.as_str()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(AbortCause::NodeLoss.to_string(), "node_loss");
        assert_eq!(AbortClass::Infra.to_string(), "infra");
    }

    #[test]
    fn aborts_counters_append_the_label() {
        for cause in AbortCause::ALL {
            assert_eq!(cause.aborts_counter(), format!("env.aborts.{cause}"));
        }
    }

    #[test]
    fn causes_round_trip_through_json() {
        for cause in AbortCause::ALL {
            let text = serde_json::to_string(&cause).unwrap();
            let back: AbortCause = serde_json::from_str(&text).unwrap();
            assert_eq!(cause, back);
        }
        for class in AbortClass::ALL {
            let text = serde_json::to_string(&class).unwrap();
            let back: AbortClass = serde_json::from_str(&text).unwrap();
            assert_eq!(class, back);
        }
    }
}
