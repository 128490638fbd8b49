//! Prior construction: turning retrieved past sessions into the
//! tuner-family-specific warm starts of §6.6.
//!
//! One [`PriorBundle`] serves all three families:
//!
//! * **BO/GBO** — [`PriorBundle::gp_obs`]: encoded `(x, y)` observations
//!   to seed a `GpFitter` (or `BayesOpt::with_warm_start`), re-weighted by
//!   similarity through *sample allocation*: a session at similarity `s`
//!   contributes `max(1, round(s · cap))` of its best observations
//!   (censored ones at their penalized scores, exactly as a live fitter
//!   sees its own history), so near-identical workloads dominate the
//!   prior and distant ones contribute only their incumbent.
//! * **RelM** — [`PriorBundle::stats`]: the similarity-weighted mean
//!   Table-6 statistics, ready for
//!   `RelmTuner::recommend_from_stats` — a white-box recommendation
//!   without paying for a profiling run.
//! * **DDPG** — [`PriorBundle::sessions`] keeps the retrieved digests
//!   (with their per-session similarity) so `relm-ddpg` can replay them
//!   into transitions and pre-fill its experience buffer.

use crate::digest::SessionDigest;
use crate::store::Retrieved;
use relm_common::Mem;
use relm_profile::DerivedStats;
use relm_tune::ConfigSpace;
use serde::{Deserialize, Serialize};

/// Default per-session observation allocation cap for the GP prior.
pub const DEFAULT_PRIOR_CAP: usize = 8;

/// A warm-start prior built from retrieved past sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorBundle {
    /// Encoded `(x, y)` observations for GP seeding, similarity-allocated
    /// and deduplicated, ordered by retrieval rank then ascending score.
    pub gp_obs: Vec<(Vec<f64>, f64)>,
    /// Similarity-weighted mean Table-6 statistics across the retrieved
    /// sessions, for RelM's white-box models; `None` when no retrieved
    /// session carried stats.
    pub stats: Option<DerivedStats>,
    /// The retrieved sessions themselves, `(similarity, digest)`, in
    /// retrieval order — the raw material for replay-buffer seeding.
    pub sessions: Vec<(f64, SessionDigest)>,
}

impl PriorBundle {
    /// An empty prior (a cold start).
    pub fn empty() -> Self {
        PriorBundle {
            gp_obs: Vec::new(),
            stats: None,
            sessions: Vec::new(),
        }
    }

    /// True when retrieval found nothing usable.
    pub fn is_empty(&self) -> bool {
        self.gp_obs.is_empty() && self.stats.is_none() && self.sessions.is_empty()
    }

    /// The best (lowest) seeded objective value, if any — a warm-start
    /// incumbent for EI thresholds before the session has history.
    pub fn best_y(&self) -> Option<f64> {
        self.gp_obs.iter().map(|(_, y)| *y).min_by(f64::total_cmp)
    }

    /// The encoded point of the best seeded observation — the incumbent a
    /// warm-started session should re-evaluate first (incumbent transfer):
    /// re-scoring the mapped workload's best-known configuration on the
    /// new workload anchors the surrogate where the prior claims the
    /// optimum lives.
    pub fn best_x(&self) -> Option<&[f64]> {
        self.gp_obs
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(x, _)| x.as_slice())
    }
}

/// Builds the prior from retrieval results (already similarity-ordered by
/// [`crate::MemoryStore::retrieve`]). `cap` bounds how many observations
/// the *most* similar session may contribute; a session at similarity `s`
/// contributes `max(1, round(s · cap))` of its best observations.
/// Censored observations participate with their penalized scores — the
/// same treatment a live guided fitter gives its own history, and the
/// prior's warning signs: the GP learns which regions time out without
/// re-paying for them. Best-first ordering still front-loads the clean
/// incumbents. Deterministic: observation selection orders by `(score,
/// history position)` and duplicate configurations (identical encoded
/// points) keep only their first, highest-rank occurrence.
pub fn build_prior(retrieved: &[Retrieved], space: &ConfigSpace, cap: usize) -> PriorBundle {
    let mut gp_obs: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut seen: Vec<Vec<f64>> = Vec::new();
    for hit in retrieved {
        let quota = ((hit.similarity * cap as f64).round() as usize).max(1);
        let mut ranked: Vec<(usize, &crate::digest::DigestObs)> =
            hit.digest.observations.iter().enumerate().collect();
        // Stable sort: equal scores keep history order.
        ranked.sort_by(|a, b| a.1.score_mins.total_cmp(&b.1.score_mins));
        for (_, obs) in ranked.into_iter().take(quota) {
            let x = space.encode(&obs.config).to_vec();
            if seen.iter().any(|s| s == &x) {
                continue;
            }
            seen.push(x.clone());
            gp_obs.push((x, obs.score_mins));
        }
    }
    PriorBundle {
        gp_obs,
        stats: weighted_mean_stats(retrieved),
        sessions: retrieved
            .iter()
            .map(|hit| (hit.similarity, hit.digest.clone()))
            .collect(),
    }
}

/// Similarity-weighted mean of the retrieved sessions' statistics.
fn weighted_mean_stats(retrieved: &[Retrieved]) -> Option<DerivedStats> {
    let mut weight = 0.0;
    let mut containers = 0.0;
    let mut heap = 0.0;
    let mut cpu = 0.0;
    let mut disk = 0.0;
    let mut m_i = 0.0;
    let mut m_c = 0.0;
    let mut m_s = 0.0;
    let mut m_u = 0.0;
    let mut p = 0.0;
    let mut h = 0.0;
    let mut s = 0.0;
    let mut full_gc = 0.0;
    for hit in retrieved {
        let Some(stats) = &hit.digest.stats else {
            continue;
        };
        let w = hit.similarity;
        weight += w;
        containers += w * stats.containers_per_node as f64;
        heap += w * stats.heap.as_mb();
        cpu += w * stats.cpu_avg;
        disk += w * stats.disk_avg;
        m_i += w * stats.m_i.as_mb();
        m_c += w * stats.m_c.as_mb();
        m_s += w * stats.m_s.as_mb();
        m_u += w * stats.m_u.as_mb();
        p += w * stats.p as f64;
        h += w * stats.h;
        s += w * stats.s;
        if stats.m_u_from_full_gc {
            full_gc += w;
        }
    }
    if weight <= 0.0 {
        return None;
    }
    Some(DerivedStats {
        containers_per_node: ((containers / weight).round() as u32).max(1),
        heap: Mem::mb(heap / weight),
        cpu_avg: cpu / weight,
        disk_avg: disk / weight,
        m_i: Mem::mb(m_i / weight),
        m_c: Mem::mb(m_c / weight),
        m_s: Mem::mb(m_s / weight),
        m_u: Mem::mb(m_u / weight),
        p: ((p / weight).round() as u32).max(1),
        h: h / weight,
        s: s / weight,
        m_u_from_full_gc: full_gc * 2.0 >= weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::DigestObs;
    use relm_cluster::ClusterSpec;
    use relm_workloads::wordcount;

    fn space() -> ConfigSpace {
        ConfigSpace::for_app(&ClusterSpec::cluster_a(), &wordcount())
    }

    /// A retrieval hit whose digest holds `n` distinct observations.
    fn hit(seed: u64, similarity: f64, n: usize) -> Retrieved {
        let space = space();
        let unit = |i: u64| {
            let v = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i.wrapping_mul(2654435761));
            (v % 997) as f64 / 996.0
        };
        let observations = (0..n as u64)
            .map(|i| DigestObs {
                config: space.decode(&[
                    unit(4 * i),
                    unit(4 * i + 1),
                    unit(4 * i + 2),
                    unit(4 * i + 3),
                ]),
                score_mins: 5.0 + unit(4 * i + 7) * 20.0,
                censored: false,
            })
            .collect();
        Retrieved {
            key: format!("{seed:032x}"),
            similarity,
            digest: SessionDigest {
                version: crate::digest::DIGEST_VERSION,
                workload: format!("wl{seed}"),
                base_seed: seed,
                evaluations: n,
                profiled: n as u64,
                stats: None,
                observations,
            },
        }
    }

    #[test]
    fn each_session_contributes_its_similarity_quota() {
        // Quota max(1, round(s · cap)): 8 at full similarity, 4 at half,
        // and the incumbent alone for a distant session.
        let hits = vec![hit(1, 1.0, 40), hit(2, 0.5, 40), hit(3, 0.01, 40)];
        let prior = build_prior(&hits, &space(), DEFAULT_PRIOR_CAP);
        assert_eq!(prior.gp_obs.len(), 8 + 4 + 1);
        // Retrieval rank first, then ascending score within a session.
        let first: Vec<f64> = prior.gp_obs[..8].iter().map(|(_, y)| *y).collect();
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        let best_of_first = hits[0]
            .digest
            .observations
            .iter()
            .map(|o| o.score_mins)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(first[0], best_of_first);
        assert_eq!(prior, build_prior(&hits, &space(), DEFAULT_PRIOR_CAP));
    }
}
