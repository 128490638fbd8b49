//! GP-guided proposals behind `StepGuided`: the per-session proposal
//! state and its fit schedule, its frozen form across eviction, the
//! service-wide memo of EI searches, and the entry gate of the guided
//! step.

use super::{resume_session, Session, Shared, State};
use crate::protocol::Response;
use relm_common::hash::Fnv128;
use relm_common::{MemoryConfig, Rng};
use relm_evalcache::{EvalCache, EvalKey};
use relm_memory::PriorBundle;
use relm_surrogate::{maximize_ei, Gp, GpFitter, SparsePolicy};
use relm_tune::space::DIMS;
use relm_tune::{ConfigSpace, Observation};
use std::time::Instant;

/// Completed evaluations a session needs before `StepGuided` can fit its
/// surrogate.
const GUIDED_MIN_HISTORY: usize = 4;
/// Every K-th guided fit re-tunes the GP hyperparameters from scratch; the
/// fits in between extend the stored Cholesky factor incrementally
/// (bit-identical to a from-scratch fit at the retained hyperparameters).
const GUIDED_REFIT_PERIOD: usize = 4;

/// Deterministic GP proposal state behind `StepGuided`.
///
/// A pure function of the session spec and the *settled* history: the
/// fitter ingests encoded observations in history order, and the RNG
/// advances only when a batch is admitted (clone-compute-commit, exactly
/// like the auto sampler) — so rejected requests never shift the stream.
#[derive(Clone)]
pub(super) struct GuidedState {
    fitter: GpFitter,
    rng: Rng,
    /// How many *history* observations the fitter has ingested. Tracked
    /// separately from `fitter.len()` because a warm-started fitter also
    /// holds prior observations that are not part of this session's
    /// history.
    pub(super) fed: usize,
    /// The fit schedule: `feeds[i]` is how much history the fitter had
    /// ingested when fit `i` ran, so `feeds.len()` is the number of fits
    /// so far. An evicted session's fitter is rebuilt by replaying
    /// exactly this schedule ([`FrozenGuided::thaw`]), which reproduces
    /// the full-vs-incremental refit sequence — and therefore the
    /// proposal stream — bit for bit.
    pub(super) feeds: Vec<usize>,
}

impl GuidedState {
    /// A fresh proposal state whose fitter holds the warm-start prior and
    /// no history yet. Prior points are part of the fitter but never of
    /// `fed`, which indexes history alone.
    fn new(prior: &PriorBundle, rng: Rng) -> relm_common::Result<Self> {
        // Long-lived sessions can accumulate histories in the hundreds;
        // the large-n policy keeps per-step fit cost flat there while
        // leaving smaller histories (below the sparse threshold)
        // byte-identical to the exact path.
        let mut fitter = GpFitter::default().with_policy(SparsePolicy::large_n());
        for (x, y) in &prior.gp_obs {
            fitter.observe(x.clone(), *y)?;
        }
        Ok(GuidedState {
            fitter,
            rng,
            fed: 0,
            feeds: Vec::new(),
        })
    }

    /// Feeds the fitter the observations of `history` it has not seen
    /// yet, in history order, encoded into the space's unit hypercube.
    fn feed(&mut self, space: &ConfigSpace, history: &[Observation]) -> relm_common::Result<()> {
        for obs in &history[self.fed..] {
            self.fitter
                .observe(space.encode(&obs.config).to_vec(), obs.score_mins)?;
        }
        self.fed = history.len();
        Ok(())
    }

    /// Runs the next fit of the schedule and records it: every
    /// [`GUIDED_REFIT_PERIOD`]-th fit (and the first) re-tunes from
    /// scratch, seeded by `seed` and the fit count; the fits in between
    /// are incremental.
    fn fit(&mut self, seed: u64) -> relm_common::Result<Gp> {
        let fits = self.feeds.len();
        let gp = if !self.fitter.has_fit() || fits.is_multiple_of(GUIDED_REFIT_PERIOD) {
            self.fitter.fit_full(seed ^ ((fits as u64) << 8))?
        } else {
            self.fitter.refit()?
        };
        self.feeds.push(self.fed);
        Ok(gp)
    }

    /// What survives eviction: the fitter is dropped, the schedule and
    /// the RNG are kept.
    pub(super) fn freeze(self) -> FrozenGuided {
        FrozenGuided {
            rng: self.rng,
            feeds: self.feeds,
        }
    }
}

/// What survives of a [`GuidedState`] across eviction: the fitter (the
/// memory-heavy part — Gram matrices and Cholesky factors) is dropped and
/// rebuilt at resume by replaying the recorded fit schedule against the
/// resumed history; the RNG and schedule carry over verbatim, so the
/// proposal stream continues bit-identically.
pub(super) struct FrozenGuided {
    rng: Rng,
    feeds: Vec<usize>,
}

impl FrozenGuided {
    /// Rebuilds the proposal state by replaying the recorded fit schedule
    /// against the resumed history: same prior, same observation order,
    /// same full-vs-incremental refit sequence, same seeds — so the
    /// fitter (and with the carried-over RNG, the proposal stream) comes
    /// back bit-identical.
    pub(super) fn thaw(
        &self,
        prior: &PriorBundle,
        space: &ConfigSpace,
        guided_seed: u64,
        history: &[Observation],
    ) -> relm_common::Result<GuidedState> {
        let mut guided = GuidedState::new(prior, self.rng.clone())?;
        for &upto in &self.feeds {
            guided.feed(space, &history[..upto])?;
            guided.fit(guided_seed)?;
        }
        Ok(guided)
    }
}

/// One memoized EI search: the point it returned and the RNG as it left
/// it.
pub(super) struct MemoizedSearch {
    x: [f64; DIMS],
    rng: Rng,
}

/// The service-wide memo of the guided step's EI searches, keyed by
/// [`memo_key`]. Only cache-opted sessions read and fill it.
pub(super) type ProposalMemo = EvalCache<MemoizedSearch>;

/// Namespace of [`memo_key`]; its version changes whenever what the key
/// covers does.
const MEMO_NAMESPACE: &str = "serve.guided.ei/v1";

/// The memo key of one `maximize_ei(gp, DIMS, tau, rng)` call. The search
/// reads the GP only through its predictions, which
/// [`Gp::fingerprint`] pins, and reads nothing else besides `tau` and
/// the RNG; so equal keys mean equal results, point and RNG alike.
fn memo_key(fingerprint: u128, tau: f64, rng: &Rng) -> EvalKey {
    let mut h = Fnv128::new();
    h.write_str(MEMO_NAMESPACE);
    h.write_bytes(&fingerprint.to_le_bytes());
    h.write_u64(tau.to_bits());
    h.write_u64(rng.state());
    let digest = h.finish();
    EvalKey::from_halves((digest >> 64) as u64, digest as u64)
}

/// One EI search from `rng`. With a fingerprint (a cache-opted session)
/// the search is looked up first: a hit returns the memoized point and
/// moves `rng` to where the search would have left it, counting
/// `serve.guided.replays`; a miss searches and inserts. Without one, no
/// key is computed.
fn propose(
    shared: &Shared,
    gp: &Gp,
    fingerprint: Option<u128>,
    tau: f64,
    rng: &mut Rng,
) -> [f64; DIMS] {
    let key = fingerprint.map(|fp| memo_key(fp, tau, rng));
    if let Some(hit) = key.and_then(|key| shared.proposals.get(&key)) {
        *rng = hit.rng.clone();
        shared.obs.inc("serve.guided.replays");
        return hit.x;
    }
    let started = Instant::now();
    let (x, _ei) = maximize_ei(gp, DIMS, tau, rng);
    shared
        .obs
        .record("surrogate.ei_ms", started.elapsed().as_secs_f64() * 1e3);
    let x: [f64; DIMS] = x.try_into().expect("maximize_ei returns DIMS coordinates");
    if let Some(key) = key {
        let rng = rng.clone();
        shared.proposals.insert(key, MemoizedSearch { x, rng });
    }
    x
}

/// One guided batch in the making: everything it is computed from,
/// copied out of an idle session under the state lock so that the fit
/// and EI can run without it.
pub(super) struct Proposal {
    /// A copy of the session's proposal state, fed the settled history;
    /// it replaces the session's own only if the batch is admitted.
    pub(super) guided: GuidedState,
    space: ConfigSpace,
    seed: u64,
    /// The EI threshold.
    tau: f64,
    /// The prior's best point, proposed first by a warm session that has
    /// no history yet.
    incumbent: Option<Vec<f64>>,
    /// Whether the session opted into the shared cache, and with it into
    /// the proposal memo.
    memoize: bool,
}

impl Proposal {
    /// Reads an idle session: checks it has enough history (or prior) to
    /// fit, and feeds a copy of its proposal state — built on first use —
    /// the settled history.
    pub(super) fn prepare(sess: &Session) -> Result<Self, String> {
        let history = sess
            .env
            .as_ref()
            .expect("idle session owns its env")
            .history();
        // A warm-started session's prior observations count toward the
        // fit minimum: with a usable prior, guided steps can run from
        // evaluation zero.
        if history.len() + sess.prior.gp_obs.len() < GUIDED_MIN_HISTORY {
            return Err(format!(
                "guided steps need at least {GUIDED_MIN_HISTORY} completed \
                 evaluations, session `{}` has {}",
                sess.name,
                history.len()
            ));
        }
        let fit_failed = |e: relm_common::Error| format!("guided fit failed: {e}");
        let mut guided = match &sess.guided {
            Some(g) => g.clone(),
            None => {
                GuidedState::new(&sess.prior, Rng::new(sess.guided_seed)).map_err(fit_failed)?
            }
        };
        guided.feed(&sess.space, history).map_err(fit_failed)?;
        Ok(Proposal {
            guided,
            space: sess.space.clone(),
            seed: sess.guided_seed,
            // The EI threshold folds in the prior's best score, so the
            // first warm proposals already aim below what similar past
            // sessions achieved.
            tau: history
                .iter()
                .fold(sess.prior.best_y().unwrap_or(f64::INFINITY), |t, obs| {
                    t.min(obs.score_mins)
                }),
            // Incumbent transfer: before any evaluation has settled, the
            // first warm proposal re-evaluates the prior's best-known
            // point rather than trusting the surrogate to re-discover it.
            incumbent: if history.is_empty() {
                sess.prior.best_x().map(|x| x.to_vec())
            } else {
                None
            },
            memoize: sess.spec.use_cache,
        })
    }

    /// Runs the next fit of the schedule and proposes `evals`
    /// configurations by maximizing EI, advancing the copy's RNG. A
    /// cache-opted session takes each search it repeats from the memo
    /// (see [`propose`]); the fit runs either way, since the key needs it.
    pub(super) fn run(&mut self, shared: &Shared, evals: u32) -> Result<Vec<MemoryConfig>, String> {
        let obs = &shared.obs;
        let guided = &mut self.guided;
        let before = guided.fitter.stats();
        let fit_started = Instant::now();
        let gp = guided
            .fit(self.seed)
            .map_err(|e| format!("guided fit failed: {e}"))?;
        obs.record(
            "surrogate.fit_ms",
            fit_started.elapsed().as_secs_f64() * 1e3,
        );
        let stats = guided.fitter.stats();
        obs.add(
            "surrogate.gram_reuse",
            (stats.gram_reused_dims - before.gram_reused_dims) as f64,
        );
        obs.add(
            "surrogate.incremental_fits",
            (stats.incremental_fits - before.incremental_fits) as f64,
        );
        obs.add(
            "surrogate.chol_jitter_retries",
            (stats.chol_jitter_retries - before.chol_jitter_retries) as f64,
        );
        obs.inc("serve.guided.batches");
        let fingerprint = self.memoize.then(|| gp.fingerprint());
        Ok((0..evals)
            .map(|i| match (i, &self.incumbent) {
                (0, Some(x)) => self.space.decode(x),
                _ => {
                    let x = propose(shared, &gp, fingerprint, self.tau, &mut guided.rng);
                    self.space.decode(&x)
                }
            })
            .collect())
    }
}

/// The guided step's entry gate, run at both of its lock acquisitions: the
/// service must still admit work, and an evicted session comes home so
/// its history can be read.
pub(super) fn guided_home_locked(
    shared: &Shared,
    state: &mut State,
    session: &str,
) -> Result<(), String> {
    if state.draining || state.stopped {
        return Err("service is draining".into());
    }
    if state.sessions.get(session).is_some_and(|s| s.evicted) {
        resume_session(shared, state, session)?;
    }
    Ok(())
}

/// The refusal of a guided step on a session that has (or gained) work.
pub(super) fn not_idle(session: &str) -> Response {
    Response::Error {
        message: format!("session `{session}` must be idle for guided steps (join first)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input of an EI search moves its memo key: the threshold, the
    /// RNG state, and the GP (one more observation).
    #[test]
    fn memo_key_covers_every_input_of_the_search() {
        let mut fitter = GpFitter::default();
        let mut data = Rng::new(5);
        for i in 0..6 {
            let x = (0..DIMS).map(|_| data.uniform()).collect();
            fitter.observe(x, 1.0 + 0.1 * f64::from(i)).unwrap();
        }
        let gp = fitter.fit_full(1).unwrap();
        let (tau, rng) = (1.0, Rng::new(9));
        let key = memo_key(gp.fingerprint(), tau, &rng);
        assert_eq!(key, memo_key(gp.fingerprint(), tau, &rng.clone()));
        assert_ne!(key, memo_key(gp.fingerprint(), 0.5, &rng), "tau");
        let mut drawn = rng.clone();
        drawn.next_u64();
        assert_ne!(key, memo_key(gp.fingerprint(), tau, &drawn), "RNG state");
        fitter.observe(vec![0.5; DIMS], 2.0).unwrap();
        let grown = fitter.refit().unwrap();
        assert_ne!(key, memo_key(grown.fingerprint(), tau, &rng), "observation");
    }
}
