//! GP-guided proposals behind `StepGuided`: the per-session proposal
//! state, its fit schedule and the fitter rebuilt from it on demand, the
//! service-wide memo of proposals, and the entry gate of the guided step.

use super::{resume_session, Session, Shared, State};
use crate::protocol::Response;
use relm_common::hash::Fnv128;
use relm_common::{MemoryConfig, Rng};
use relm_evalcache::{EvalCache, EvalKey};
use relm_memory::PriorBundle;
use relm_obs::Obs;
use relm_surrogate::{maximize_ei, Gp, GpFitter, SparsePolicy};
use relm_tune::space::DIMS;
use relm_tune::ConfigSpace;
use std::sync::Arc;
use std::time::Instant;

/// Completed evaluations a session needs before `StepGuided` can fit its
/// surrogate.
const GUIDED_MIN_HISTORY: usize = 4;
/// Every K-th guided fit re-tunes the GP hyperparameters from scratch; the
/// fits in between extend the stored Cholesky factor incrementally
/// (bit-identical to a from-scratch fit at the retained hyperparameters).
const GUIDED_REFIT_PERIOD: usize = 4;

/// One settled observation as the fitter sees it: the configuration
/// encoded into the space's unit hypercube, and its score.
type Row = ([f64; DIMS], f64);

/// Deterministic GP proposal state behind `StepGuided`.
///
/// A pure function of the session spec and the *settled* history: the RNG
/// advances only when a batch is admitted (clone-compute-commit, exactly
/// like the auto sampler) — so rejected requests never shift the stream.
/// The fitter is derived from the rest: absent until a search needs the
/// GP, and dropped again at eviction, at cancel and after a batch answered
/// wholly from the proposal memo, it is rebuilt from the prior, the
/// settled history and the recorded fit schedule, bit for bit.
#[derive(Clone)]
pub(super) struct GuidedState {
    /// The prior's observations, the history up to the schedule's last
    /// entry, and every fit of the schedule; `None` until a search needs
    /// it.
    fitter: Option<GpFitter>,
    rng: Rng,
    /// The fit schedule: `feeds[i]` is how much history fit `i` saw, so
    /// `feeds.len()` is the number of fits so far, counting those a batch
    /// answered wholly from the memo skipped. Replaying it reproduces the
    /// full-vs-incremental refit sequence — and therefore the proposal
    /// stream — bit for bit.
    pub(super) feeds: Vec<usize>,
}

impl GuidedState {
    /// A fresh proposal state: no fits yet, and no fitter until the first
    /// search.
    pub(super) fn new(seed: u64) -> Self {
        GuidedState {
            fitter: None,
            rng: Rng::new(seed),
            feeds: Vec::new(),
        }
    }

    /// Drops the fitter, the memory-heavy part (Gram differences and a
    /// Cholesky factor); the next search that needs the GP rebuilds it.
    pub(super) fn drop_fitter(&mut self) {
        self.fitter = None;
    }

    /// Runs the schedule's last fit and returns its GP and whether a
    /// rebuild replayed a recorded fit first. A present fitter holds
    /// every earlier fit, so only the last runs. An absent one is rebuilt
    /// from the prior, replaying the schedule from its last full fit on: a
    /// full fit reads only the data and its seed, while every refit after
    /// it must see exactly the rows it saw before (a failed row append
    /// falls back to a refactorization whose jitter depends on how the
    /// rows were grouped). Every [`GUIDED_REFIT_PERIOD`]-th fit (the first
    /// included) re-tunes from scratch, seeded by `seed` and the fit's
    /// index; the fits in between are incremental. A rebuilt fitter
    /// counts its work, replayed fits included, on `obs`.
    fn fit(
        &mut self,
        prior: &PriorBundle,
        rows: &[Row],
        seed: u64,
        obs: &Obs,
    ) -> relm_common::Result<(Gp, bool)> {
        let last = self.feeds.len() - 1;
        let (mut fitter, first) = match self.fitter.take() {
            Some(fitter) => (fitter, last),
            None => {
                // Long-lived sessions can accumulate histories in the
                // hundreds; the large-n policy keeps per-step fit cost
                // flat there while leaving smaller histories (below the
                // sparse threshold) byte-identical to the exact path.
                let mut fitter = GpFitter::default()
                    .with_policy(SparsePolicy::large_n())
                    .with_obs(obs.clone());
                for (x, y) in &prior.gp_obs {
                    fitter.observe(x.clone(), *y)?;
                }
                (fitter, last - last % GUIDED_REFIT_PERIOD)
            }
        };
        let mut fed = fitter.len() - prior.gp_obs.len();
        let mut gp = None;
        for (fit, &upto) in self.feeds.iter().enumerate().skip(first) {
            for (x, y) in &rows[fed..upto] {
                fitter.observe(x.to_vec(), *y)?;
            }
            fed = upto;
            gp = Some(if fit.is_multiple_of(GUIDED_REFIT_PERIOD) {
                fitter.fit_full(seed ^ ((fit as u64) << 8))?
            } else {
                fitter.refit()?
            });
        }
        self.fitter = Some(fitter);
        Ok((
            gp.expect("the schedule holds this step's entry"),
            first < last,
        ))
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

/// Namespace of [`memo_key`]. Its version changes whenever what the key
/// covers does, or a constant the fit reads ([`GUIDED_REFIT_PERIOD`],
/// [`SparsePolicy::large_n`]).
const MEMO_NAMESPACE: &str = "serve.guided.ei/v2";

/// A digest of everything a guided step's fit reads: the guided seed, the
/// prior's observations, the settled history as the fitter sees it, and
/// the fit schedule through this step's entry. The fitted GP is a
/// deterministic function of these and of the constants
/// [`MEMO_NAMESPACE`] pins. It costs O((prior + history) · DIMS), where a
/// digest of the fitted GP would cost O(n²) and need the fit first.
fn fit_inputs(seed: u64, prior: &[(Vec<f64>, f64)], rows: &[Row], feeds: &[usize]) -> u128 {
    let mut h = Fnv128::new();
    h.write_u64(seed);
    h.write_u64(prior.len() as u64);
    for (x, y) in prior {
        h.write_u64(x.len() as u64);
        for v in x.iter().chain([y]) {
            h.write_u64(v.to_bits());
        }
    }
    h.write_u64(rows.len() as u64);
    for (x, y) in rows {
        for v in x.iter().chain([y]) {
            h.write_u64(v.to_bits());
        }
    }
    h.write_u64(feeds.len() as u64);
    for &fed in feeds {
        h.write_u64(fed as u64);
    }
    h.finish()
}

/// The memo key of one `maximize_ei(gp, DIMS, tau, rng)` call on the GP
/// fitted from [`fit_inputs`]. The search reads nothing besides the GP,
/// `tau` and the RNG; so equal keys mean equal results, point and RNG
/// alike, and a batch whose every key hits needs no GP at all.
fn memo_key(fit_inputs: u128, tau: f64, rng: &Rng) -> EvalKey {
    let mut h = Fnv128::new();
    h.write_str(MEMO_NAMESPACE);
    h.write_bytes(&fit_inputs.to_le_bytes());
    h.write_u64(tau.to_bits());
    h.write_u64(rng.state());
    let digest = h.finish();
    EvalKey::from_halves((digest >> 64) as u64, digest as u64)
}

/// One guided batch in the making: everything it is computed from,
/// copied out of an idle session under the state lock so that the fit
/// and EI can run without it.
pub(super) struct Proposal {
    /// A copy of the session's proposal state; it replaces the session's
    /// own only if the batch is admitted.
    pub(super) guided: GuidedState,
    /// The settled history, encoded as the fitter sees it.
    rows: Vec<Row>,
    prior: Arc<PriorBundle>,
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
    /// fit, and copies its proposal state, its prior and its settled
    /// history.
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
        Ok(Proposal {
            guided: sess.guided.clone(),
            rows: history
                .iter()
                .map(|obs| (sess.space.encode(&obs.config), obs.score_mins))
                .collect(),
            prior: Arc::clone(&sess.prior),
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

    /// How much settled history the batch is computed from.
    pub(super) fn fed(&self) -> usize {
        self.rows.len()
    }

    /// Records this step's fit in the schedule and proposes `evals`
    /// configurations by maximizing EI on it, advancing the copy's RNG. A
    /// cache-opted session looks each search up in the memo first; the
    /// fit runs at the first miss, and also for a batch that holds only a
    /// warm session's incumbent. A batch answered wholly from the memo
    /// runs no fit and leaves the fitter absent, since it now lags the
    /// schedule.
    pub(super) fn run(&mut self, shared: &Shared, evals: u32) -> Result<Vec<MemoryConfig>, String> {
        self.guided.feeds.push(self.rows.len());
        let inputs = self.memoize.then(|| {
            fit_inputs(
                self.seed,
                &self.prior.gp_obs,
                &self.rows,
                &self.guided.feeds,
            )
        });
        let mut gp = None;
        let mut replayed = 0;
        let mut configs = Vec::with_capacity(evals as usize);
        for i in 0..evals {
            if let (0, Some(x)) = (i, &self.incumbent) {
                configs.push(self.space.decode(x));
                continue;
            }
            let key = inputs.map(|inputs| memo_key(inputs, self.tau, &self.guided.rng));
            let x = match key.and_then(|key| shared.proposals.get(&key)) {
                Some(hit) => {
                    self.guided.rng = hit.rng.clone();
                    replayed += 1;
                    hit.x
                }
                None => {
                    if gp.is_none() {
                        gp = Some(self.fit(shared)?);
                    }
                    let gp = gp.as_ref().expect("fitted above");
                    let x = search(shared, gp, self.tau, &mut self.guided.rng);
                    if let Some(key) = key {
                        let rng = self.guided.rng.clone();
                        shared.proposals.insert(key, MemoizedSearch { x, rng });
                    }
                    x
                }
            };
            configs.push(self.space.decode(&x));
        }
        if gp.is_none() {
            if replayed == 0 {
                // Only the incumbent was proposed: the fit runs as it
                // would without the memo, so a fit error surfaces here.
                self.fit(shared)?;
            } else {
                // Every search came from the memo: no fit ran, and a
                // fitter carried in now lags the schedule.
                self.guided.drop_fitter();
            }
        }
        if replayed > 0 {
            shared.obs.add("serve.guided.replays", replayed as f64);
        }
        shared.obs.inc("serve.guided.batches");
        Ok(configs)
    }

    /// Runs this step's fit ([`GuidedState::fit`]) and records it:
    /// `surrogate.fit_ms` covers any rebuild, and `serve.guided.rebuilds`
    /// counts a rebuild that replayed a recorded fit. The fitter counts
    /// its own `surrogate.*` work.
    fn fit(&mut self, shared: &Shared) -> Result<Gp, String> {
        let obs = &shared.obs;
        let started = Instant::now();
        let (gp, replayed) = self
            .guided
            .fit(&self.prior, &self.rows, self.seed, obs)
            .map_err(|e| format!("guided fit failed: {e}"))?;
        obs.record("surrogate.fit_ms", started.elapsed().as_secs_f64() * 1e3);
        if replayed {
            obs.inc("serve.guided.rebuilds");
        }
        Ok(gp)
    }
}

/// One EI search from `rng`, timed as `surrogate.ei_ms`.
fn search(shared: &Shared, gp: &Gp, tau: f64, rng: &mut Rng) -> [f64; DIMS] {
    let started = Instant::now();
    let (x, _ei) = maximize_ei(gp, DIMS, tau, rng);
    shared
        .obs
        .record("surrogate.ei_ms", started.elapsed().as_secs_f64() * 1e3);
    x.try_into().expect("maximize_ei returns DIMS coordinates")
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

    /// Every input of the search moves the memo key, the GP through what
    /// its fit reads: the guided seed, a prior observation, a history
    /// score, the fit schedule, the EI threshold and the RNG state.
    #[test]
    fn memo_key_covers_every_input_of_the_search() {
        let mut data = Rng::new(5);
        let mut row = || -> Row { (std::array::from_fn(|_| data.uniform()), data.uniform()) };
        let prior = vec![(row().0.to_vec(), 1.5), (row().0.to_vec(), 2.5)];
        let rows: Vec<Row> = (0..6).map(|_| row()).collect();
        let feeds = [4, 5, 6];
        let (seed, tau, rng) = (3, 1.0, Rng::new(9));
        let key =
            |seed, prior: &[(Vec<f64>, f64)], rows: &[Row], feeds: &[usize], tau, rng: &Rng| {
                memo_key(fit_inputs(seed, prior, rows, feeds), tau, rng)
            };
        let base = key(seed, &prior, &rows, &feeds, tau, &rng);
        assert_eq!(base, key(seed, &prior, &rows, &feeds, tau, &rng.clone()));
        assert_ne!(
            base,
            key(seed ^ 1, &prior, &rows, &feeds, tau, &rng),
            "seed"
        );
        let mut moved = prior.clone();
        moved[1].1 = 2.0;
        assert_ne!(base, key(seed, &moved, &rows, &feeds, tau, &rng), "prior");
        let mut moved = rows.clone();
        moved[2].1 = f64::from_bits(moved[2].1.to_bits() ^ 1);
        assert_ne!(base, key(seed, &prior, &moved, &feeds, tau, &rng), "score");
        assert_ne!(
            base,
            key(seed, &prior, &rows, &[4, 6, 6], tau, &rng),
            "schedule"
        );
        assert_ne!(base, key(seed, &prior, &rows, &feeds, 0.5, &rng), "tau");
        let mut drawn = rng.clone();
        drawn.next_u64();
        assert_ne!(
            base,
            key(seed, &prior, &rows, &feeds, tau, &drawn),
            "RNG state"
        );
    }
}
