//! Side-by-side training comparison: dense SGD vs exact Dropback vs the
//! Procrustes algorithm (Fig 6/7 style, condensed).
//!
//! Run with: `cargo run --release --example sparse_training`

use procrustes::core::report::Table;
use procrustes::dropback::{
    DenseSgdTrainer, DropbackConfig, DropbackExact, ProcrustesConfig, ProcrustesTrainer, Trainer,
};
use procrustes::nn::{arch, data::SyntheticImages};
use procrustes::prng::Xorshift64;

fn main() {
    let data = SyntheticImages::cifar_like(10, 5);
    let factor = 5.0;
    let steps = 160;
    let eval_every = 40;

    let mut trainers: Vec<(&str, Box<dyn Trainer>)> = vec![
        (
            "dense-SGD",
            Box::new(DenseSgdTrainer::new(
                arch::tiny_vgg(10, &mut Xorshift64::new(1)),
                0.05,
                0.9,
            )),
        ),
        (
            "dropback-exact",
            Box::new(DropbackExact::new(
                arch::tiny_vgg(10, &mut Xorshift64::new(1)),
                DropbackConfig {
                    sparsity_factor: factor,
                    lambda: 0.9,
                    ..DropbackConfig::default()
                },
                7,
            )),
        ),
        (
            "procrustes",
            Box::new(ProcrustesTrainer::new(
                arch::tiny_vgg(10, &mut Xorshift64::new(1)),
                ProcrustesConfig {
                    sparsity_factor: factor,
                    // The default `compute` is the sparse fast path:
                    // layers whose weights decay below 50% density execute
                    // on CSB kernels (identical results, work proportional
                    // to the nonzeros).
                    ..ProcrustesConfig::default()
                },
                7,
            )),
        ),
    ];

    let (vx, vl) = data.fixed_set(128, 1234);
    let mut table = Table::new(
        format!("validation accuracy over training (sparsity {factor}x)"),
        &["step", "dense-SGD", "dropback-exact", "procrustes"],
    );

    // Identical batch stream for all trainers.
    let mut rng = Xorshift64::new(1000);
    let batches: Vec<_> = (0..steps).map(|_| data.batch(16, &mut rng)).collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (ti, (_, trainer)) in trainers.iter_mut().enumerate() {
        let mut row = 0;
        for (step, (x, labels)) in batches.iter().enumerate() {
            trainer.train_step(x, labels);
            if (step + 1) % eval_every == 0 {
                let (_, acc) = trainer.evaluate(&vx, &vl);
                if ti == 0 {
                    rows.push(vec![format!("{}", step + 1), format!("{acc:.3}")]);
                } else {
                    rows[row].push(format!("{acc:.3}"));
                }
                row += 1;
            }
        }
    }
    for r in &rows {
        table.row(r);
    }
    println!("{}", table.render());
    println!(
        "the sparse trainers track only 1/{factor} of the weights; \
         procrustes additionally avoids the global sort and reaches exact-zero pruned weights"
    );
}
