//! Cross-crate integration: the full pipeline from sparse training to
//! accelerator evaluation.

use procrustes::core::{masks, CoSim, Engine, LoadBalancer, Scenario};
use procrustes::dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes::nn::data::SyntheticImages;
use procrustes::nn::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential};
use procrustes::prng::Xorshift64;
use procrustes::sim::{ArchConfig, BalanceMode, Mapping, Phase};
use procrustes::sparse::CsbTensor;

fn micro_model(seed: u64) -> Sequential {
    let mut rng = Xorshift64::new(seed);
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 16, 3, 1, 1, false, &mut rng));
    m.push(BatchNorm2d::new(16));
    m.push(ReLU::new());
    m.push(MaxPool2d::new(2, 2));
    m.push(Conv2d::new(16, 32, 3, 1, 1, false, &mut rng));
    m.push(ReLU::new());
    m.push(MaxPool2d::new(2, 2));
    m.push(Flatten::new());
    m.push(Linear::new(32 * 4 * 4, 4, true, &mut rng));
    m
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

/// Co-simulation ties the trainer to CSB compression and the balancer;
/// its invariants must hold over a real training run.
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
    // The CSB snapshots round-trip and the balancer conserves their work.
    for csb in cosim.csb_snapshots() {
        let balancer = LoadBalancer::new(8);
        let schedule = balancer.balance(&csb);
        assert_eq!(schedule.total_work(), csb.nnz() as u64);
    }
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
    use procrustes::nn::{Layer, ParamKind};
    trainer.model_mut().visit_params(&mut |p| {
        if p.kind == ParamKind::Prunable && p.values.shape().rank() == 4 {
            let csb = CsbTensor::from_dense_conv(p.values);
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
