//! The zero-allocation contract of the training hot loop.
//!
//! Once shapes have stabilized (one warm-up step fills the scratch
//! pool, the per-layer caches, and the optimizer's velocity slots), a
//! training step must perform **zero heap allocations** in tensor code:
//! every buffer — padded conv planes and their offset tables, GEMM
//! outputs, layer activations, gradients, the loss buffers — is served
//! from the per-trainer
//! [`Scratch`](procrustes_nn::Scratch) pool or an in-place per-layer
//! cache.
//!
//! Pinned with a counting global allocator. This file holds exactly one
//! test so no concurrent test thread can contribute allocations to the
//! global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use procrustes_dropback::{DenseSgdTrainer, Trainer};
use procrustes_nn::{arch, data::SyntheticImages};
use procrustes_prng::Xorshift64;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth is an allocation for the purpose of this contract.
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_training_step_performs_zero_allocations() {
    let mut rng = Xorshift64::new(1);
    // The fig06-style conv stack: Conv2d/BatchNorm/ReLU/MaxPool blocks
    // with a Flatten + Linear head.
    let model = arch::tiny_vgg(4, &mut rng);
    let mut trainer = DenseSgdTrainer::new(model, 0.05, 0.9);
    let data = SyntheticImages::new(4, 32, 32, 0.2, 3);
    let (x, labels) = data.batch(4, &mut rng);

    // Warm-up: first step allocates the scratch pool, per-layer caches
    // (padded conv planes, BN x̂, pool argmax), and SGD velocity; a couple
    // more let the pool reach its fixed point.
    for _ in 0..3 {
        trainer.train_step(&x, &labels);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut loss = 0.0;
    for _ in 0..5 {
        loss = trainer.train_step(&x, &labels).loss;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(loss.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state training steps must not allocate (got {} allocations over 5 steps)",
        after - before
    );
}
