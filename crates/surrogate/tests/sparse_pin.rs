//! Cross-version pin of the large-n sparse surrogate.
//!
//! The fig20 `--sparse` digest in `scripts/check.sh` pins sparse BO
//! proposals, but only at the history lengths fig20 reaches. This test
//! pins the inducing-subset path far above its threshold: a
//! [`SparsePolicy::large_n`] fit at n = 500, its posterior at 32 probes,
//! and one EI proposal, folded into one FNV-1a 64 digest of their bits.
//! Only a change that means to alter sparse fits or EI proposals updates
//! the digest.

use relm_common::hash::Fnv64;
use relm_common::Rng;
use relm_obs::Obs;
use relm_surrogate::{latin_hypercube, maximize_ei, GpFitter, SparsePolicy, DEFAULT_INDUCING};

/// The digest of every probe's posterior bits, then the proposal's
/// coordinates, then its EI.
const SPARSE_N500_DIGEST: u64 = 0xd4c5_6934_1f6f_5c84;

#[test]
fn large_n_sparse_posterior_and_proposal_match_their_pinned_digest() {
    let n = 500;
    let dims = 4;
    let xs = latin_hypercube(n, dims, &mut Rng::new(3));
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(j, v)| v * (j as f64 + 1.0))
                .sum()
        })
        .collect();
    let obs = Obs::enabled();
    let mut fitter = GpFitter::default()
        .with_policy(SparsePolicy::large_n())
        .with_obs(obs.clone());
    for (x, y) in xs.iter().zip(&ys) {
        fitter.observe(x.clone(), *y).expect("observe");
    }
    let gp = fitter.fit_full(5).expect("fit");
    assert_eq!(
        obs.counter_value("surrogate.sparse_fits"),
        1.0,
        "n = {n} must fit sparse"
    );
    assert_eq!(
        gp.len(),
        DEFAULT_INDUCING,
        "the fit keeps the inducing subset"
    );

    let probes = latin_hypercube(32, dims, &mut Rng::new(99));
    let tau = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let (proposal, ei) = maximize_ei(&gp, dims, tau, &mut Rng::new(7));
    let mut hash = Fnv64::new();
    for (mean, var) in gp.predict_batch(&probes) {
        hash.write_u64(mean.to_bits());
        hash.write_u64(var.to_bits());
    }
    for v in &proposal {
        hash.write_u64(v.to_bits());
    }
    hash.write_u64(ei.to_bits());
    assert_eq!(
        hash.finish(),
        SPARSE_N500_DIGEST,
        "sparse n = {n} digest {:#018x} differs from the pin",
        hash.finish()
    );
}
