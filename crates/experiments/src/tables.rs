//! Tables I–III of the paper.

use procrustes_core::report::{fmt_millions, Table};
use procrustes_dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes_nn::data::SyntheticImages;
use procrustes_nn::{arch, Sequential};
use procrustes_prng::Xorshift64;
use procrustes_sim::{area, ArchConfig};

use crate::ctx::ExpContext;
use crate::fig17_20_hw::network_mac_summary;

pub fn run_table1(ctx: &ExpContext) {
    let base = ArchConfig::procrustes_16x16();
    let mut t = Table::new(
        "Table I — hardware configuration (baseline + Procrustes deltas)",
        &["parameter", "value"],
    );
    t.row(&[
        "PEs",
        &format!("{} ({}x{})", base.pes(), base.rows, base.cols),
    ]);
    t.row(&["datatype", "32-bit floating point"]);
    t.row(&[
        "interconnect",
        "3x 1D-flow (H multicast, V multicast/collect, unicast)",
    ]);
    t.row(&["global buffer", &format!("{} KB", base.glb_bytes / 1024)]);
    t.row(&[
        "local buffer (RF)",
        &format!("{} B per PE", base.rf_words * 4),
    ]);
    t.row(&[
        "DRAM channel",
        &format!("{} bits/cycle", base.dram_bw_words * 32),
    ]);
    t.row(&["pruning type", "lowest accumulated gradients (Dropback)"]);
    t.row(&[
        "pseudo-RNG",
        "xorshift (Marsaglia 13/17/5), one WR unit per PE",
    ]);
    t.row(&[
        "quantile estimator",
        "DUMIQUE, max 4 requests/cycle (4-wide averaged)",
    ]);
    t.row(&[
        "dataflow",
        "optimal spatial-minibatch (K,N) via mapper search",
    ]);
    ctx.emit("table1", &t);
}

fn quick_accuracy(
    ctx: &ExpContext,
    make_model: &dyn Fn(u64) -> Sequential,
    data: &SyntheticImages,
    factor: f64,
    steps: usize,
) -> (f64, f64) {
    // Returns (dense accuracy, procrustes accuracy) after `steps`.
    let (vx, vl) = data.fixed_set(ctx.val_size(), 0xACC);
    let mut rng = Xorshift64::new(0xBA7C4);
    let mut dense = procrustes_dropback::DenseSgdTrainer::new(make_model(3), 0.05, 0.9);
    let mut sparse = ProcrustesTrainer::new(
        make_model(3),
        ProcrustesConfig {
            sparsity_factor: factor,
            lambda: ctx.lambda(),
            ..ProcrustesConfig::default()
        },
        17,
    );
    for _ in 0..steps {
        let (x, labels) = data.batch(ctx.batch(), &mut rng);
        dense.train_step(&x, &labels);
        sparse.train_step(&x, &labels);
    }
    (dense.evaluate(&vx, &vl).1, sparse.evaluate(&vx, &vl).1)
}

pub fn run_table2(ctx: &ExpContext) {
    let mut t = Table::new(
        "Table II — sparsity, footprint, MACs, and accuracy per network",
        &[
            "model",
            "dataset*",
            "dense size",
            "dense MACs",
            "sparse size",
            "sparse MACs",
            "sparsity",
            "dense acc",
            "pruned acc",
        ],
    );
    // (network, tiny trainable variant, dataset); the Table II sparsity
    // factor comes from the engine's canonical registry.
    let cifar = ("CIFAR-like", SyntheticImages::cifar_like(10, 51));
    let imagenet = ("ImageNet-like", SyntheticImages::imagenet_like(10, 52));
    let steps = ctx.train_steps(300);
    type ModelFactory = Box<dyn Fn(u64) -> Sequential>;
    let rows: Vec<(&str, ModelFactory, _)> = vec![
        (
            "DenseNet",
            Box::new(|s| arch::tiny_densenet(10, &mut Xorshift64::new(s))),
            &cifar,
        ),
        (
            "WRN-28-10",
            Box::new(|s| arch::tiny_wrn(10, &mut Xorshift64::new(s))),
            &cifar,
        ),
        (
            "VGG-S",
            Box::new(|s| arch::tiny_vgg(10, &mut Xorshift64::new(s))),
            &cifar,
        ),
        (
            "MobileNet v2",
            Box::new(|s| arch::tiny_mobilenet(10, &mut Xorshift64::new(s))),
            &imagenet,
        ),
        (
            "ResNet18",
            Box::new(|s| arch::tiny_resnet(10, &mut Xorshift64::new(s))),
            &imagenet,
        ),
    ];
    for (network, make_model, (dataset, data)) in &rows {
        let factor = procrustes_core::paper_sparsity_factor(network)
            .expect("Table II factor exists for every paper network");
        let (dw, dm, sw, sm) = network_mac_summary(network, factor, 7);
        let (dense_acc, sparse_acc) = quick_accuracy(ctx, make_model, data, factor, steps);
        t.row(&[
            network.to_string(),
            dataset.to_string(),
            fmt_millions(dw),
            fmt_millions(dm),
            fmt_millions(sw),
            fmt_millions(sm),
            format!("{:.1}x", dw as f64 / sw as f64),
            format!("{dense_acc:.3}"),
            format!("{sparse_acc:.3}"),
        ]);
    }
    ctx.emit("table2", &t);
    ctx.note(
        "*accuracies come from the tiny trainable variants on synthetic data \
         (the substitution documented in docs/PAPER_MAP.md); size/MAC columns use the full paper geometries",
    );
}

pub fn run_table3(ctx: &ExpContext) {
    let mut t = Table::new(
        "Table III — silicon area and power (45 nm; Procrustes units marked *)",
        &["component", "power (mW)", "area (um^2)"],
    );
    for c in area::PE_COMPONENTS
        .iter()
        .chain(area::SYSTEM_COMPONENTS.iter())
    {
        let marker = if c.procrustes_only { "*" } else { "" };
        t.row(&[
            format!("{}{marker}", c.name),
            format!("{:.2}", c.power_mw),
            format!("{:.2}", c.area_um2),
        ]);
    }
    ctx.emit("table3", &t);
    let (a, p) = area::overheads(256);
    ctx.note(&format!(
        "aggregate overhead over the dense accelerator at 256 PEs: {:.1}% area, {:.1}% power \
         (paper: 14% area, 11% power)",
        a * 100.0,
        p * 100.0
    ));
}
