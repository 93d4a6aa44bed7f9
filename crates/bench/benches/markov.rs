//! Criterion benches for the analytic models — the costs behind Figs. 5–7
//! and, crucially, AIC's **online decision budget**: the paper claims the
//! whole EVT + Newton–Raphson search is cheap enough to run every second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use aic_bench::experiments::testbed_rates;
use aic_ckpt::engine::EngineConfig;
use aic_ckpt::policies::sic_optimal_w_pooled;
use aic_model::concurrent::{net2_at, ConcurrentModel};
use aic_model::moody::{moody_net2, moody_optimize, MoodySchedule};
use aic_model::nonstatic::{optimal_w_budgeted, IntervalParams};
use aic_model::params::CoastalProfile;

fn bench_chain_solve(c: &mut Criterion) {
    let p = CoastalProfile::default();
    let costs = p.costs();
    let rates = p.rates().with_total(1e-3);
    let mut group = c.benchmark_group("chain_solve");
    for model in ConcurrentModel::ALL {
        group.bench_with_input(
            BenchmarkId::new("net2", model.name()),
            &model,
            |b, model| {
                b.iter(|| net2_at(*model, 2_000.0, &costs, &rates));
            },
        );
    }
    group.bench_function("moody_net2", |b| {
        let sched = MoodySchedule { n1: 1, n2: 2 };
        b.iter(|| moody_net2(2_000.0, &sched, &costs, &rates));
    });
    group.finish();
}

fn bench_decider(c: &mut Criterion) {
    // The per-tick cost of AIC's decision: one EVT+NR search over the
    // non-static model. The paper's budget is "well under a second, every
    // second"; this bench pins the real number.
    let rates = CoastalProfile::default().rates().with_total(1e-3);
    let cur = IntervalParams::from_measurement(0.1, 0.5, 10e6, 35e6, 150e3);
    c.bench_function("aic_decision_evt_nr", |b| {
        b.iter(|| optimal_w_budgeted(&cur, &cur, &rates, 1.0, 1e5, 120.0, 30, 1e-4));
    });
}

fn bench_fleet_commit_solve(c: &mut Criterion) {
    // The w* re-solve every adaptive fleet tenant runs after each commit,
    // under the fleet's shared lock: a golden-section search over L2L3
    // NET² with millisecond calibration means, a 1000-round horizon of
    // 10 s bootstrap spans and a 4-worker pool. One case per L3 link:
    // the fleet default (2 MB/s) and the benchmark's unpaced 10 GB/s.
    let mut group = c.benchmark_group("fleet_commit_solve");
    for (name, b3) in [("link_2MBps", 2.0e6), ("link_10GBps", 1.0e10)] {
        let mut cfg = EngineConfig::testbed(testbed_rates());
        cfg.b3 = b3;
        group.bench_function(name, |b| {
            b.iter(|| sic_optimal_w_pooled(2.0e-3, 1.5e-3, 24.0e3, &cfg, 10_000.0, 4));
        });
    }
    group.finish();
}

fn bench_offline_optimizers(c: &mut Criterion) {
    let p = CoastalProfile::default();
    let costs = p.costs();
    let rates = p.rates();
    c.bench_function("moody_exhaustive_optimize", |b| {
        b.iter(|| moody_optimize(&costs, &rates, 1_100.0, 4.0e6));
    });
}

criterion_group!(
    benches,
    bench_chain_solve,
    bench_decider,
    bench_fleet_commit_solve,
    bench_offline_optimizers
);
criterion_main!(benches);
