//! Table 10 benchmarks: per-iteration overheads of each tuning algorithm —
//! statistics collection, model fitting, and model probing.

use criterion::{criterion_group, criterion_main, Criterion};
use relm_bench::context;
use relm_bo::{BayesOpt, SpaceSurrogate};
use relm_common::Rng;
use relm_core::{QModel, RelmTuner};
use relm_ddpg::{state_vector, AgentConfig, DdpgAgent, Transition, STATE_DIMS};
use relm_profile::derive_stats;
use relm_surrogate::{latin_hypercube, maximize_ei, Gp};
use relm_tune::ConfigSpace;
use relm_workloads::svm;
use std::hint::black_box;

fn bench_statistics_collection(c: &mut Criterion) {
    let ctx = context(svm());
    c.bench_function("stats/derive_table6", |b| {
        b.iter(|| black_box(derive_stats(black_box(&ctx.profile))))
    });
}

fn training_data(n: usize, dims: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::new(11);
    let xs = latin_hypercube(n, dims, &mut rng);
    let ys = xs
        .iter()
        .map(|x| 5.0 + 3.0 * x[0] - 2.0 * x[dims - 1])
        .collect();
    (xs, ys)
}

fn bench_model_fitting(c: &mut Criterion) {
    let ctx = context(svm());
    let stats = derive_stats(&ctx.profile);
    let cluster = ctx.engine.cluster().clone();
    let space = ConfigSpace::for_app(&cluster, &ctx.app);
    let qmodel = QModel::new(stats, 0.1);

    let mut group = c.benchmark_group("fit");
    let (xs, ys) = training_data(12, 4);
    group.bench_function("bo_gp_12pts", |b| {
        b.iter(|| black_box(Gp::fit(xs.clone(), &ys, 1).expect("fit")))
    });
    let xs7: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| BayesOpt::features(&space, Some(&qmodel), x))
        .collect();
    group.bench_function("gbo_gp_12pts", |b| {
        b.iter(|| black_box(Gp::fit(xs7.clone(), &ys, 1).expect("fit")))
    });
    group.bench_function("ddpg_train_step", |b| {
        let mut agent = DdpgAgent::new(AgentConfig::for_dims(STATE_DIMS, 4), 3);
        let s = state_vector(&ctx.profile);
        for i in 0..32 {
            agent.observe(Transition {
                state: s.clone(),
                action: vec![0.2, 0.4, 0.6, 0.8],
                reward: i as f64 * 0.1,
                next_state: s.clone(),
            });
        }
        b.iter(|| agent.train_step())
    });
    group.bench_function("relm_analytical", |b| {
        let mut relm = RelmTuner::default();
        b.iter(|| black_box(relm.recommend_from_stats(&cluster, stats).expect("rec")))
    });
    group.finish();
}

fn bench_model_probing(c: &mut Criterion) {
    let ctx = context(svm());
    let stats = derive_stats(&ctx.profile);
    let cluster = ctx.engine.cluster().clone();
    let space = ConfigSpace::for_app(&cluster, &ctx.app);
    let qmodel = QModel::new(stats, 0.1);

    let mut group = c.benchmark_group("probe");
    let (xs, ys) = training_data(12, 4);
    let gp = Gp::fit(xs.clone(), &ys, 1).expect("fit");
    group.bench_function("bo_maximize_ei", |b| {
        let mut rng = Rng::new(5);
        b.iter(|| black_box(maximize_ei(&gp, 4, 5.0, &mut rng)))
    });

    let xs7: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| BayesOpt::features(&space, Some(&qmodel), x))
        .collect();
    let gp7 = Gp::fit(xs7, &ys, 1).expect("fit");
    let guided = SpaceSurrogate {
        inner: &gp7,
        space: &space,
        q: Some(&qmodel),
    };
    group.bench_function("gbo_maximize_ei", |b| {
        let mut rng = Rng::new(5);
        b.iter(|| black_box(maximize_ei(&guided, 4, 5.0, &mut rng)))
    });

    group.bench_function("ddpg_actor_forward", |b| {
        let agent = DdpgAgent::new(AgentConfig::for_dims(STATE_DIMS, 4), 3);
        let s = state_vector(&ctx.profile);
        b.iter(|| black_box(agent.act(&s)))
    });

    group.bench_function("relm_enumerate_candidates", |b| {
        let relm = RelmTuner::default();
        b.iter(|| black_box(relm.candidates_from_stats(&cluster, stats)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_statistics_collection,
    bench_model_fitting,
    bench_model_probing
);
criterion_main!(benches);
