//! End-to-end backend equivalence: a Dropback, Procrustes or gradual
//! magnitude-pruning training run must produce *identical* loss curves, thresholds, and final weights
//! whether the model executes on the dense kernels or the CSB-compressed
//! ones — the sparse path changes the cost of the work, never its result.

use procrustes_dropback::{
    ComputeBackend, DropbackConfig, DropbackExact, GradualConfig, GradualMagnitudeTrainer,
    ProcrustesConfig, ProcrustesTrainer, Trainer,
};
use procrustes_nn::data::SyntheticImages;
use procrustes_nn::{Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU, Sequential};
use procrustes_prng::Xorshift64;

fn micro_model(seed: u64) -> Sequential {
    let mut rng = Xorshift64::new(seed);
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 8, 3, 1, 1, false, &mut rng));
    m.push(ReLU::new());
    m.push(MaxPool2d::new());
    m.push(Conv2d::new(8, 8, 3, 1, 1, false, &mut rng));
    m.push(ReLU::new());
    m.push(MaxPool2d::new());
    m.push(Flatten::new());
    m.push(Linear::new(8 * 4 * 4, 4, true, &mut rng));
    m
}

/// Runs `steps` Procrustes training steps, returning per-step
/// `(loss, threshold, tracked)` plus the final materialized weights.
fn run_procrustes(compute: ComputeBackend, steps: usize) -> (Vec<(f32, f32, usize)>, Vec<f32>) {
    let data = SyntheticImages::new(4, 16, 16, 0.2, 9);
    let mut rng = Xorshift64::new(3);
    let mut trainer = ProcrustesTrainer::new(
        micro_model(7),
        ProcrustesConfig {
            sparsity_factor: 8.0,
            // λ = 0.5 reaches the exact-zero horizon in ~40 steps, so the
            // CSB run spends most of the test genuinely compressed.
            lambda: 0.5,
            compute,
            ..ProcrustesConfig::default()
        },
        5,
    );
    let mut curve = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (x, labels) = data.batch(4, &mut rng);
        let s = trainer.train_step(&x, &labels);
        curve.push((s.loss, s.threshold, s.tracked));
    }
    let mut weights = Vec::new();
    trainer.model_mut().visit_params(&mut |p| {
        weights.extend_from_slice(p.values.data());
    });
    (curve, weights)
}

#[test]
fn procrustes_loss_curves_identical_across_backends() {
    let steps = 50;
    let (dense_curve, dense_w) = run_procrustes(ComputeBackend::Dense, steps);
    for backend in [ComputeBackend::Csb, ComputeBackend::auto()] {
        let (curve, weights) = run_procrustes(backend, steps);
        assert_eq!(
            dense_curve,
            curve,
            "{} run diverged from the dense run",
            backend.label()
        );
        assert_eq!(
            dense_w,
            weights,
            "{} run ended with different weights",
            backend.label()
        );
    }
}

#[test]
fn auto_backend_promotes_layers_once_decay_creates_sparsity() {
    let data = SyntheticImages::new(4, 16, 16, 0.2, 9);
    let mut rng = Xorshift64::new(3);
    let mut trainer = ProcrustesTrainer::new(
        micro_model(7),
        ProcrustesConfig {
            sparsity_factor: 8.0,
            lambda: 0.5,
            compute: ComputeBackend::auto(),
            ..ProcrustesConfig::default()
        },
        5,
    );
    // Early in training the decayed initial weights are still nonzero:
    // densities sit near 1 and every layer stays on the dense path.
    let (x, labels) = data.batch(4, &mut rng);
    trainer.train_step(&x, &labels);
    assert_eq!(trainer.model_mut().csb_store_count(), 0);

    for _ in 0..49 {
        let (x, labels) = data.batch(4, &mut rng);
        trainer.train_step(&x, &labels);
    }
    // Past the λ = 0.5 decay horizon ~7/8 of the weights are exact
    // zeros; an eval forward resyncs the stores after the last mask
    // update and every prunable layer (3 conv/fc) must have promoted.
    let sparsities = trainer.layer_sparsities();
    assert!(
        sparsities.iter().all(|&s| s > 0.5),
        "decay horizon not reached: {sparsities:?}"
    );
    let (x, labels) = data.batch(4, &mut rng);
    trainer.evaluate(&x, &labels);
    assert_eq!(trainer.model_mut().csb_store_count(), 3);
}

#[test]
fn dropback_exact_identical_across_backends() {
    let run = |compute: ComputeBackend| {
        let data = SyntheticImages::new(4, 16, 16, 0.2, 11);
        let mut rng = Xorshift64::new(13);
        let mut trainer = DropbackExact::new(
            micro_model(17),
            DropbackConfig {
                sparsity_factor: 6.0,
                lambda: 0.5,
                compute,
                ..DropbackConfig::default()
            },
            19,
        );
        let mut losses = Vec::new();
        for _ in 0..30 {
            let (x, labels) = data.batch(4, &mut rng);
            losses.push(trainer.train_step(&x, &labels).loss);
        }
        losses
    };
    assert_eq!(run(ComputeBackend::Dense), run(ComputeBackend::Csb));
}

#[test]
fn gradual_magnitude_identical_across_backends() {
    let run = |compute: ComputeBackend| {
        let data = SyntheticImages::new(4, 16, 16, 0.2, 23);
        let mut rng = Xorshift64::new(29);
        let mut trainer = GradualMagnitudeTrainer::new(
            micro_model(31),
            GradualConfig {
                // Pruning past density 0.5 within the run, so `auto`
                // spends the second half promoted.
                final_factor: 4.0,
                prune_every: 3,
                prune_fraction: 0.2,
                compute,
                ..GradualConfig::default()
            },
        );
        let mut curve = Vec::new();
        for _ in 0..40 {
            let (x, labels) = data.batch(4, &mut rng);
            let s = trainer.train_step(&x, &labels);
            curve.push((s.loss, s.tracked));
        }
        let mut weights = Vec::new();
        trainer.model_mut().visit_params(&mut |p| {
            weights.extend_from_slice(p.values.data());
        });
        // An eval forward resyncs the stores after the last update.
        let (x, labels) = data.batch(4, &mut rng);
        trainer.evaluate(&x, &labels);
        (curve, weights, trainer.model_mut().csb_store_count())
    };
    let (dense_curve, dense_w, dense_stores) = run(ComputeBackend::Dense);
    assert_eq!(dense_stores, 0);
    for backend in [ComputeBackend::Csb, ComputeBackend::auto()] {
        let (curve, weights, stores) = run(backend);
        let label = backend.label();
        assert!(stores > 0, "{label} run never reached the CSB kernels");
        assert_eq!(
            dense_curve, curve,
            "{label} run diverged from the dense run"
        );
        assert_eq!(dense_w, weights, "{label} run ended with different weights");
    }
}
