//! Quickstart: sparse training plus accelerator cost in ~60 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use procrustes::core::{Engine, Scenario, SparsityGen};
use procrustes::dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes::nn::{arch, data::SyntheticImages, Layer};
use procrustes::prng::Xorshift64;

fn main() {
    // ----- 1. Train a small CNN sparsely with the Procrustes algorithm.
    let mut rng = Xorshift64::new(7);
    let data = SyntheticImages::cifar_like(10, 1);
    let model = arch::tiny_vgg(10, &mut rng);
    let mut trainer = ProcrustesTrainer::new(
        model,
        ProcrustesConfig {
            sparsity_factor: 10.0, // keep ~10% of weights
            lr: 0.05,
            // Fast decay so the demo reaches exact-zero pruned weights
            // within 100 steps (the paper trains for 234k iterations and
            // uses 0.9, reaching zero within its first ~0.5%).
            lambda: 0.7,
            // The default `compute` runs each layer on CSB-compressed
            // kernels once decay drives its density below 50% — same
            // results, less work.
            ..ProcrustesConfig::default()
        },
        42,
    );

    println!("training tiny-VGG with a 10x weight budget…");
    for step in 1..=160 {
        let (x, labels) = data.batch(16, &mut rng);
        let stats = trainer.train_step(&x, &labels);
        if step % 40 == 0 {
            println!(
                "  step {step:3}: loss {:.3}, tracked {}/{} budget, threshold {:.2e}, zeros {:.1}%",
                stats.loss,
                stats.tracked,
                trainer.budget(),
                stats.threshold,
                100.0 * stats.weight_sparsity,
            );
        }
    }
    let (vx, vl) = data.fixed_set(128, 99);
    let (loss, acc) = trainer.evaluate(&vx, &vl);
    println!("validation: loss {loss:.3}, accuracy {acc:.3}");
    println!(
        "layers promoted to CSB execution: {}\n",
        trainer.model_mut().csb_store_count()
    );

    // ----- 2. What does one training iteration cost on the accelerator?
    // A Scenario is plain serializable data; the Engine evaluates it.
    // Defaults: 16x16 Procrustes array, K,N dataflow, batch 16.
    let engine = Engine::default();
    let dense = engine
        .run(&Scenario::builder("VGG-S").build().unwrap())
        .unwrap();
    let sparse = engine
        .run(
            &Scenario::builder("VGG-S")
                // Table II sparsity factor (5.2x for VGG-S), seed 42.
                .sparsity(SparsityGen::PaperSynthetic { seed: 42 })
                .build()
                .unwrap(),
        )
        .unwrap();

    println!("VGG-S, one training iteration (batch 16) on 16x16 PEs, K,N dataflow:");
    println!(
        "  dense : {:>12} cycles, {:.1} mJ",
        dense.totals().cycles,
        dense.totals().energy_j() * 1e3
    );
    println!(
        "  sparse: {:>12} cycles, {:.1} mJ",
        sparse.totals().cycles,
        sparse.totals().energy_j() * 1e3
    );
    println!(
        "  -> {:.2}x speedup, {:.2}x energy saving",
        sparse.speedup_over(&dense),
        sparse.energy_saving_over(&dense)
    );
}
