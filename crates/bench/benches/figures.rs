//! One Criterion bench per paper table/figure harness: times the
//! *regeneration* of each artifact (the analytical evaluations behind
//! Figs 1, 5, 13, 17–20 and Tables II–III), so simulator performance
//! regressions are caught alongside correctness.
//!
//! The training-based figures (6, 7, 15, 16) are exercised through a
//! reduced co-simulation step (their full runs live in the
//! `procrustes-experiments` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use procrustes_core::{
    masks, CoSim, Engine, EvalResult, Fidelity, MaskGenConfig, Scenario, ScenarioBuilder,
};
use procrustes_dropback::ProcrustesConfig;
use procrustes_nn::data::SyntheticImages;
use procrustes_nn::{arch, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential};
use procrustes_prng::Xorshift64;
use procrustes_sim::{area, ArchConfig, BalanceMode, Mapping};

/// One scenario on a fresh serial engine, so no memoized layer cost
/// carries over between iterations.
fn run(scenario: ScenarioBuilder) -> EvalResult {
    Engine::serial().run(&scenario.build().unwrap()).unwrap()
}

fn fig01_ideal(c: &mut Criterion) {
    let net = arch::vgg_s();
    let hw = ArchConfig::ideal_16x16();
    c.bench_function("fig01_ideal_vgg_potential", |b| {
        b.iter(|| {
            let wl = masks::dense(black_box(&net), 16);
            Engine::serial()
                .run_workloads(
                    net.name,
                    &hw,
                    Mapping::KN,
                    &wl,
                    BalanceMode::Ideal,
                    Fidelity::Analytic,
                )
                .totals()
                .cycles
        })
    });
}

fn fig05_13_imbalance(c: &mut Criterion) {
    let net = arch::vgg_s();
    let hw = ArchConfig::procrustes_16x16();
    let wl = masks::generate(&net, &MaskGenConfig::paper_default(5.2), 16, 42);
    let mut g = c.benchmark_group("fig05_13_imbalance");
    for (name, mode) in [
        ("fig05_unbalanced", BalanceMode::None),
        ("fig13_balanced", BalanceMode::HalfTile),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                Engine::serial()
                    .run_workloads(
                        net.name,
                        &hw,
                        Mapping::KN,
                        black_box(&wl),
                        mode,
                        Fidelity::Analytic,
                    )
                    .totals()
                    .cycles
            })
        });
    }
    g.finish();
}

fn fig17_20_sweeps(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig17_20_sweeps");
    g.sample_size(10);

    g.bench_function("fig17_energy_breakdown_vgg", |b| {
        b.iter(|| {
            let d = run(Scenario::builder("VGG-S"));
            let s = run(Scenario::builder("VGG-S").synthetic(MaskGenConfig::paper_default(5.2), 1));
            s.energy_saving_over(&d)
        })
    });

    for mapping in Mapping::ALL {
        g.bench_with_input(
            BenchmarkId::new("fig18_19_dataflow_densenet", mapping.label()),
            &mapping,
            |b, &m| {
                b.iter(|| {
                    let cfg = MaskGenConfig::paper_default(3.9);
                    run(Scenario::builder("DenseNet").mapping(m).synthetic(cfg, 2))
                        .totals()
                        .cycles
                })
            },
        );
    }

    g.bench_function("fig20_scaling_resnet18", |b| {
        b.iter(|| {
            let at = |hw: ArchConfig| {
                let cfg = MaskGenConfig::paper_default(11.7);
                run(Scenario::builder("ResNet18").arch(hw).batch(32).synthetic(cfg, 4))
            };
            at(ArchConfig::procrustes_32x32()).speedup_over(&at(ArchConfig::procrustes_16x16()))
        })
    });
    g.finish();
}

fn table2_masks(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    for (net, factor) in [(arch::vgg_s(), 5.2), (arch::resnet18(), 11.7)] {
        g.bench_with_input(
            BenchmarkId::new("mask_generation", net.name),
            &net,
            |b, net| {
                b.iter(|| {
                    let wl = masks::generate(net, &MaskGenConfig::paper_default(factor), 1, 7);
                    wl.iter().map(|(_, sp)| sp.total_nnz()).sum::<u64>()
                })
            },
        );
    }
    g.finish();
}

fn table3_area(c: &mut Criterion) {
    c.bench_function("table3_area_overheads", |b| {
        b.iter(|| area::overheads(black_box(256)))
    });
}

fn micro_model(seed: u64) -> Sequential {
    let mut rng = Xorshift64::new(seed);
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng));
    m.push(BatchNorm2d::new(8));
    m.push(ReLU::new());
    m.push(MaxPool2d::new(2, 2));
    m.push(Conv2d::new(8, 16, 3, 1, 1, false, &mut rng));
    m.push(ReLU::new());
    m.push(MaxPool2d::new(2, 2));
    m.push(Flatten::new());
    m.push(Linear::new(16 * 4 * 4, 4, true, &mut rng));
    m
}

fn fig06_07_15_16_training(c: &mut Criterion) {
    // A single co-simulated training step stands in for the training
    // curves (full curves are generated by `procrustes-experiments`).
    let mut g = c.benchmark_group("fig06_07_15_16_training_step");
    g.sample_size(10);
    let data = SyntheticImages::new(4, 16, 16, 0.25, 8);
    let mut rng = Xorshift64::new(9);
    let (x, labels) = data.batch(8, &mut rng);
    g.bench_function("cosim_step", |b| {
        let mut cosim = CoSim::new(micro_model(3), ProcrustesConfig::default(), 5, 16);
        b.iter(|| cosim.step(black_box(&x), black_box(&labels)))
    });
    g.finish();
}

criterion_group!(
    benches,
    fig01_ideal,
    fig05_13_imbalance,
    fig17_20_sweeps,
    table2_masks,
    table3_area,
    fig06_07_15_16_training
);
criterion_main!(benches);
