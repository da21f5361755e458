//! Criterion benchmarks of the core primitives: the operations whose
//! throughput the Procrustes design cares about (CSB encode/decode,
//! streaming quantile updates, half-tile pairing, the training step, and
//! the convolution kernels).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use procrustes_core::LoadBalancer;
use procrustes_dropback::{ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes_nn::data::SyntheticImages;
use procrustes_nn::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_quantile::Dumique;
use procrustes_sparse::CsbTensor;
use procrustes_tensor::reference::{conv2d, conv2d_im2col};
use procrustes_tensor::Tensor;

fn sparse_weights(k: usize, c: usize, keep: f64, seed: u64) -> Tensor {
    let mut rng = Xorshift64::new(seed);
    Tensor::from_fn(&[k, c, 3, 3], |_| {
        if rng.next_f64() < keep {
            rng.next_f32() - 0.5
        } else {
            0.0
        }
    })
}

fn bench_csb(c: &mut Criterion) {
    let mut g = c.benchmark_group("csb");
    let w = sparse_weights(64, 64, 0.1, 1);
    g.throughput(Throughput::Elements(w.len() as u64));
    g.bench_function("compress_64x64x3x3_10pct", |b| {
        b.iter(|| CsbTensor::from_dense_conv(black_box(&w)))
    });
    let csb = CsbTensor::from_dense_conv(&w);
    g.bench_function("decompress", |b| b.iter(|| black_box(&csb).to_dense()));
    g.bench_function("rotated_block_fetch", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for k in 0..64 {
                acc += black_box(&csb).block_dense_rotated180(k, 7)[0];
            }
            acc
        })
    });
    g.bench_function("range_density_queries", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for i in 0..64 {
                total += black_box(&csb).range_nnz(i * 64, (i + 1) * 64);
            }
            total
        })
    });
    g.finish();
}

fn bench_quantile(c: &mut Criterion) {
    let mut g = c.benchmark_group("quantile");
    let mut rng = Xorshift64::new(2);
    let stream: Vec<f32> = (0..4096).map(|_| rng.next_f32() + 1e-6).collect();
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("dumique_scalar_4k", |b| {
        b.iter(|| {
            let mut est = Dumique::new(0.9);
            for &d in &stream {
                est.update(d);
            }
            est.estimate()
        })
    });
    g.bench_function("dumique_4wide_4k", |b| {
        b.iter(|| {
            let mut est = Dumique::new(0.9);
            for chunk in stream.chunks_exact(4) {
                est.update4([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            est.estimate()
        })
    });
    // The alternative Procrustes replaces: an exact sort of the stream.
    g.bench_function("exact_sort_4k", |b| {
        b.iter(|| {
            let mut v = stream.clone();
            v.sort_by(f32::total_cmp);
            v[(v.len() as f64 * 0.9) as usize]
        })
    });
    g.finish();
}

fn bench_balancer(c: &mut Criterion) {
    let mut g = c.benchmark_group("load_balancer");
    for &kk in &[64usize, 256] {
        let w = sparse_weights(kk, 64, 0.15, 3);
        let csb = CsbTensor::from_dense_conv(&w);
        let balancer = LoadBalancer::new(16);
        g.bench_with_input(BenchmarkId::new("half_tile_schedule", kk), &csb, |b, csb| {
            b.iter(|| balancer.balance(black_box(csb)))
        });
    }
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    g.sample_size(20);
    let mut rng = Xorshift64::new(4);
    let x = Tensor::randn(&[4, 16, 16, 16], 1.0, &mut rng);
    let w = Tensor::randn(&[32, 16, 3, 3], 0.1, &mut rng);
    g.bench_function("direct_4x16x16x16", |b| {
        b.iter(|| conv2d(black_box(&x), black_box(&w), 1, 1))
    });
    g.bench_function("im2col_4x16x16x16", |b| {
        b.iter(|| conv2d_im2col(black_box(&x), black_box(&w), 1, 1))
    });
    g.finish();
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

fn bench_training_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("training");
    g.sample_size(10);
    let data = SyntheticImages::new(4, 16, 16, 0.25, 5);
    let mut rng = Xorshift64::new(6);
    let (x, labels) = data.batch(8, &mut rng);
    g.bench_function("procrustes_step_micro_cnn", |b| {
        let mut trainer =
            ProcrustesTrainer::new(micro_model(1), ProcrustesConfig::default(), 9);
        b.iter(|| trainer.train_step(black_box(&x), black_box(&labels)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_csb,
    bench_quantile,
    bench_balancer,
    bench_conv,
    bench_training_step
);
criterion_main!(benches);
