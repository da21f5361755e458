//! A weight store re-encodes its decode only after its master was
//! written: reading a model's parameters — to zero its gradients, count
//! or inspect its weights, or extract its masks — leaves every
//! compressed encoding valid, while a training step's writes and a
//! backend switch cost exactly one encode per store at the next forward.
//!
//! Counted with `WeightStore::encodes` on a `Csb` tiny-VGG trained past
//! the decay flush (the paper's regime: every weight is a tracked one).

use procrustes_core::masks;
use procrustes_dropback::{ComputeBackend, ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes_nn::{arch, data::SyntheticImages, Layer, Values};
use procrustes_prng::Xorshift64;
use procrustes_tensor::Tensor;

/// Tiny-VGG's conv and fc stores.
const STORES: usize = 7;

/// A `Csb` tiny-VGG trained one step past the decay flush and then
/// evaluated, so every store is compressed and clean, with its batch.
fn flushed() -> (ProcrustesTrainer, Tensor, Vec<usize>) {
    let mut rng = Xorshift64::new(5);
    let config = ProcrustesConfig {
        lambda: 0.1,
        compute: ComputeBackend::Csb,
        ..ProcrustesConfig::default()
    };
    let mut trainer = ProcrustesTrainer::new(arch::tiny_vgg(4, &mut rng), config, 5);
    let (x, labels) = SyntheticImages::new(4, 32, 32, 0.2, 5).batch(4, &mut rng);
    let flush = trainer.wr().zero_iteration().expect("λ < 1 flushes");
    for _ in 0..=flush {
        trainer.train_step(&x, &labels);
    }
    trainer.evaluate(&x, &labels);
    assert_eq!(trainer.model_mut().csb_store_count(), STORES);
    (trainer, x, labels)
}

/// Each store's encode count, in visit order.
fn encodes(trainer: &mut ProcrustesTrainer) -> Vec<u64> {
    let mut out = Vec::new();
    trainer.model_mut().visit_params(&mut |p| {
        if let Values::Store(store) = p.values {
            out.push(store.encodes());
        }
    });
    out
}

/// The encodes each store does over `act` followed by an evaluate on
/// the flushed model.
fn encodes_over(act: impl FnOnce(&mut ProcrustesTrainer)) -> Vec<u64> {
    let (mut trainer, x, labels) = flushed();
    let before = encodes(&mut trainer);
    act(&mut trainer);
    trainer.evaluate(&x, &labels);
    let after = encodes(&mut trainer);
    after.iter().zip(&before).map(|(a, b)| a - b).collect()
}

#[test]
fn zero_grads_then_a_forward_encodes_nothing() {
    assert_eq!(encodes_over(|t| t.model_mut().zero_grads()), [0; STORES]);
}

#[test]
fn prunable_params_then_a_forward_encodes_nothing() {
    let counted = encodes_over(|t| assert!(t.model_mut().prunable_params() > 0));
    assert_eq!(counted, [0; STORES]);
}

#[test]
fn layer_sparsities_then_a_forward_encodes_nothing() {
    let counted = encodes_over(|t| assert_eq!(t.layer_sparsities().len(), STORES));
    assert_eq!(counted, [0; STORES]);
}

#[test]
fn mask_extraction_then_a_forward_encodes_nothing() {
    let counted = encodes_over(|t| {
        assert_eq!(masks::from_model(t.model_mut(), 4, 1.0).len(), STORES);
    });
    assert_eq!(counted, [0; STORES]);
}

#[test]
fn a_procrustes_step_encodes_each_store_once() {
    let (mut trainer, x, labels) = flushed();
    let before = encodes(&mut trainer);
    trainer.train_step(&x, &labels);
    // The step's forward finds the stores clean; its writes go stale and
    // the next forward re-encodes them.
    assert_eq!(encodes(&mut trainer), before);
    trainer.train_step(&x, &labels);
    let after = encodes(&mut trainer);
    let counted: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(counted, [1; STORES]);
}

#[test]
fn a_backend_switch_forces_one_encode() {
    let counted = encodes_over(|t| t.model_mut().set_compute_backend(ComputeBackend::Csb));
    assert_eq!(counted, [1; STORES]);
}
