//! Cross-crate integration: the full pipeline from sparse training to
//! accelerator evaluation.

use procrustes::core::{masks, CoSim, Engine, Scenario};
use procrustes::dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes::nn::data::SyntheticImages;
use procrustes::nn::{
    arch, BatchNorm2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, ParamKind, ReLU, Sequential,
};
use procrustes::prng::Xorshift64;
use procrustes::sim::{
    csb_words, half_tile_pairs, imbalance_overhead, working_set_overheads, ArchConfig, BalanceMode,
    LayerTask, Mapping, MaskSummary, Phase, SparsityInfo,
};
use procrustes::sparse::CsbTensor;
use procrustes::tensor::Tensor;

fn micro_model(seed: u64) -> Sequential {
    let mut rng = Xorshift64::new(seed);
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 16, 3, 1, 1, false, &mut rng));
    m.push(BatchNorm2d::new(16));
    m.push(ReLU::new());
    m.push(MaxPool2d::new());
    m.push(Conv2d::new(16, 32, 3, 1, 1, false, &mut rng));
    m.push(ReLU::new());
    m.push(MaxPool2d::new());
    m.push(Flatten::new());
    m.push(Linear::new(32 * 4 * 4, 4, true, &mut rng));
    m
}

/// Each prunable layer of `model`: its weight and the entry
/// `masks::from_model` gives it.
fn prunable_layers(model: &mut Sequential) -> Vec<(Tensor, LayerTask, SparsityInfo)> {
    let mut weights = Vec::new();
    model.visit_params(&mut |p| {
        if p.kind == ParamKind::Prunable {
            weights.push(p.values.clone());
        }
    });
    masks::from_model(model, 1, 1.0)
        .into_iter()
        .zip(weights)
        .map(|((task, sp), w)| (w, task, sp))
        .collect()
}

/// The conv layers among [`prunable_layers`].
fn conv_layers(model: &mut Sequential) -> Vec<(Tensor, LayerTask, SparsityInfo)> {
    let mut layers = prunable_layers(model);
    layers.retain(|(w, _, _)| w.shape().rank() == 4);
    layers
}

/// Each filter row's `(first, second)` halves by CSB pointer subtraction.
fn csb_halves(csb: &CsbTensor) -> Vec<(u64, u64)> {
    let (gr, gc) = csb.grid();
    (0..gr)
        .map(|gi| {
            let (begin, mid, end) = (gi * gc, gi * gc + gc / 2, (gi + 1) * gc);
            (
                csb.range_nnz(begin, mid) as u64,
                csb.range_nnz(mid, end) as u64,
            )
        })
        .collect()
}

/// Train sparsely, extract the REAL masks from the model, and verify the
/// accelerator model converts them into savings — the complete loop the
/// paper describes.
#[test]
fn trained_masks_yield_accelerator_savings() {
    let data = SyntheticImages::new(4, 16, 16, 0.25, 3);
    let mut rng = Xorshift64::new(5);
    let mut trainer = ProcrustesTrainer::new(
        micro_model(1),
        ProcrustesConfig {
            sparsity_factor: 8.0,
            lambda: 0.6, // fast decay: reach exact zeros quickly
            ..ProcrustesConfig::default()
        },
        11,
    );
    let horizon = trainer.wr().zero_iteration().unwrap();
    for _ in 0..=horizon + 10 {
        let (x, labels) = data.batch(4, &mut rng);
        trainer.train_step(&x, &labels);
    }

    // Extract real masks and evaluate per-layer against the dense case.
    let workloads = masks::from_model(trainer.model_mut(), 16, 0.5);
    assert!(!workloads.is_empty());
    // The budget is global: individual layers may stay denser (learning
    // pressure concentrates tracked weights in early layers), but the
    // whole model must respect the 8x budget.
    let total_w: u64 = workloads.iter().map(|(t, _)| t.weights() as u64).sum();
    let total_nnz: u64 = workloads.iter().map(|(_, sp)| sp.total_nnz()).sum();
    let global_density = total_nnz as f64 / total_w as f64;
    assert!(global_density < 0.20, "global density {global_density}");
    let hw = ArchConfig::procrustes_16x16();
    for (task, sp) in &workloads {
        let density = sp.weight_density(task);
        assert!(density < 0.95, "{}: density {density}", task.name);
        let dense_sp = procrustes::sim::SparsityInfo::dense(task);
        for phase in Phase::ALL {
            let d = procrustes::sim::evaluate_layer(
                &hw,
                task,
                phase,
                Mapping::KN,
                &dense_sp,
                BalanceMode::None,
            );
            let s = procrustes::sim::evaluate_layer(
                &hw,
                task,
                phase,
                Mapping::KN,
                sp,
                BalanceMode::HalfTile,
            );
            assert!(
                s.energy.total() < d.energy.total(),
                "{}/{phase:?}: sparse energy not below dense",
                task.name
            );
        }
    }
}

/// The WR unit invariant across the whole stack: after training, every
/// pruned (zero) weight is recomputable, and tracked weights differ from
/// their initializations.
#[test]
fn pruned_weights_are_exactly_zero_after_horizon() {
    let data = SyntheticImages::new(4, 16, 16, 0.25, 7);
    let mut rng = Xorshift64::new(2);
    let mut trainer = ProcrustesTrainer::new(
        micro_model(2),
        ProcrustesConfig {
            sparsity_factor: 10.0,
            lambda: 0.6,
            ..ProcrustesConfig::default()
        },
        13,
    );
    let horizon = trainer.wr().zero_iteration().unwrap();
    let mut final_sparsity = 0.0;
    for _ in 0..=horizon {
        let (x, labels) = data.batch(2, &mut rng);
        final_sparsity = trainer.train_step(&x, &labels).weight_sparsity;
    }
    assert!(
        final_sparsity > 0.85,
        "sparsity {final_sparsity} after horizon {horizon}"
    );
}

/// Co-simulation ties the trainer to the simulator's balancer; its
/// invariants must hold over a real training run.
#[test]
fn cosim_balancing_invariants_hold_during_training() {
    let data = SyntheticImages::new(4, 16, 16, 0.25, 9);
    let mut rng = Xorshift64::new(3);
    let mut cosim = CoSim::new(
        micro_model(3),
        ProcrustesConfig {
            sparsity_factor: 8.0,
            lambda: 0.6,
            ..ProcrustesConfig::default()
        },
        21,
        8,
    );
    for _ in 0..30 {
        let (x, labels) = data.batch(2, &mut rng);
        let r = cosim.step(&x, &labels);
        assert!(r.worst_balanced <= r.worst_unbalanced + 1e-9);
        assert!(r.threshold > 0.0);
    }
    // Paired per 8-row working set, each conv layer's CSB halves give one
    // rebuilt tile per filter and keep exactly that set's nonzeros.
    for (w, _, _) in conv_layers(cosim.trainer_mut().model_mut()) {
        let csb = CsbTensor::from_dense_conv(&w);
        let gc = csb.grid().1;
        for (i, set) in csb_halves(&csb).chunks(8).enumerate() {
            let rebuilt = half_tile_pairs(set);
            assert_eq!(rebuilt.len(), set.len());
            let set_nnz = csb.range_nnz(i * 8 * gc, (i * 8 + set.len()) * gc);
            assert_eq!(rebuilt.iter().sum::<u64>(), set_nnz as u64);
        }
    }
}

/// The CSB format is the accelerator's ground truth for trained masks:
/// on every conv layer of the five tiny families, the simulator's
/// per-working-set overheads (`MaskSummary` halves) equal those of CSB
/// pointer queries bit for bit; on every conv and fc layer, the format's
/// value, mask and pointer bytes are the words `csb_words` charges for
/// them, an fc weight stored as its `[out, in, 1, 1]` conv.
#[test]
fn trained_conv_masks_agree_with_their_csb_encoding() {
    type Family = fn(usize, &mut Xorshift64) -> Sequential;
    let families: [Family; 5] = [
        arch::tiny_vgg,
        arch::tiny_resnet,
        arch::tiny_wrn,
        arch::tiny_densenet,
        arch::tiny_mobilenet,
    ];
    let data = SyntheticImages::cifar_like(10, 5);
    let mut fc_layers = 0;
    for (seed, family) in (1u64..).zip(families) {
        let mut rng = Xorshift64::new(seed);
        let mut trainer = ProcrustesTrainer::new(
            family(10, &mut rng),
            ProcrustesConfig {
                sparsity_factor: 8.0,
                lambda: 0.001,
                ..ProcrustesConfig::default()
            },
            seed as u32,
        );
        // Past the decay horizon: the masks are the tracked set alone.
        for _ in 0..trainer.wr().zero_iteration().unwrap() + 2 {
            let (x, labels) = data.batch(2, &mut rng);
            trainer.train_step(&x, &labels);
        }
        for (w, task, sp) in prunable_layers(trainer.model_mut()) {
            let what = format!("seed {seed}, {}", task.name);
            let summary = MaskSummary::new(&task, &sp);
            let (total_words, mask_words) = csb_words(&task, &sp, &summary, false);
            let csb = if w.shape().rank() == 2 {
                // `from_model`'s fc entry is a 1×1 conv on a 1×1 plane.
                assert_eq!((task.p * task.q, task.r, task.s), (1, 1, 1), "{what}");
                fc_layers += 1;
                let (out, inp) = (w.shape().dim(0), w.shape().dim(1));
                CsbTensor::from_dense_conv(&w.reshape(&[out, inp, 1, 1]))
            } else {
                CsbTensor::from_dense_conv(&w)
            };
            assert_eq!(csb.total_bytes() as u64 / 4, total_words, "{what}");
            assert_eq!(csb.mask_bytes() as u64 / 4, mask_words, "{what}");
            assert_eq!(csb.data_bytes() as u64 / 4, summary.total_nnz(), "{what}");
            assert_eq!(csb.ptr_bytes() / 4, task.kernels() + 1, "{what}");
            if task.p * task.q == 1 {
                continue;
            }
            let halves = csb_halves(&csb);
            for rows in [8, 16] {
                let from_csb: Vec<(u64, u64)> = halves
                    .chunks(rows)
                    .map(|set| {
                        let totals: Vec<u64> = set.iter().map(|&(a, b)| a + b).collect();
                        (
                            imbalance_overhead(&totals).to_bits(),
                            imbalance_overhead(&half_tile_pairs(set)).to_bits(),
                        )
                    })
                    .collect();
                let from_summary: Vec<(u64, u64)> = working_set_overheads(&summary, rows)
                    .into_iter()
                    .map(|(u, b)| (u.to_bits(), b.to_bits()))
                    .collect();
                assert_eq!(from_summary, from_csb, "{what}, rows {rows}");
            }
        }
    }
    assert!(fc_layers >= 5, "every family has an fc head: {fc_layers}");
}

/// CSB compression of a trained model's conv weights is lossless, and the
/// rotated fetch matches the dense rotation (backward-pass access).
#[test]
fn csb_roundtrip_on_trained_weights() {
    let data = SyntheticImages::new(4, 16, 16, 0.25, 11);
    let mut rng = Xorshift64::new(4);
    let mut trainer = ProcrustesTrainer::new(
        micro_model(4),
        ProcrustesConfig {
            sparsity_factor: 6.0,
            lambda: 0.6,
            ..ProcrustesConfig::default()
        },
        31,
    );
    for _ in 0..50 {
        let (x, labels) = data.batch(2, &mut rng);
        trainer.train_step(&x, &labels);
    }
    trainer.model_mut().visit_params(&mut |p| {
        if p.kind == ParamKind::Prunable && p.values.shape().rank() == 4 {
            let csb = CsbTensor::from_dense_conv(&p.values);
            assert_eq!(&csb.to_dense(), &*p.values);
            let rot = p.values.rotate180();
            let (k, c) = (p.values.shape().dim(0), p.values.shape().dim(1));
            let s = p.values.shape().dim(3);
            for ki in (0..k).step_by(5) {
                for ci in (0..c).step_by(3) {
                    let fetched = csb.block_dense_rotated180(ki, ci);
                    for (idx, v) in fetched.iter().enumerate() {
                        assert_eq!(*v, rot.at(&[ki, ci, idx / s, idx % s]));
                    }
                }
            }
        }
    });
}

/// Full-network evaluation is deterministic: same seeds, same numbers.
#[test]
fn network_eval_is_deterministic() {
    use procrustes::core::MaskGenConfig;
    let scenario = Scenario::builder("DenseNet")
        .synthetic(MaskGenConfig::paper_default(3.9), 77)
        .build()
        .unwrap();
    let run = || {
        let c = Engine::serial().run(&scenario).unwrap();
        (c.totals().cycles, c.totals().energy_j())
    };
    assert_eq!(run(), run());
}
