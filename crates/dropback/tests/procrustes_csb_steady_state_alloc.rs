//! The zero-allocation contract of the Procrustes training step on the
//! CSB backend.
//!
//! `procrustes_steady_state_alloc.rs` pins the Procrustes step on the
//! dense backend; this file pins what `ComputeBackend::Csb` adds on top
//! of it — the per-step weight-store resync, which re-encodes every
//! master into its decode's CSRs, and the sparse kernels that run on
//! them. Once warm, a step performs **zero heap allocations**.
//!
//! Pinned with a counting global allocator. This file holds exactly one
//! test so no concurrent test thread can contribute allocations to the
//! global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use procrustes_dropback::{ComputeBackend, ProcrustesConfig, ProcrustesTrainer, Trainer};
use procrustes_nn::{arch, data::SyntheticImages, Layer};
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
fn steady_state_procrustes_csb_step_performs_zero_allocations() {
    let mut rng = Xorshift64::new(1);
    let config = ProcrustesConfig {
        compute: ComputeBackend::Csb,
        ..ProcrustesConfig::default()
    };
    let mut trainer = ProcrustesTrainer::new(arch::tiny_vgg(4, &mut rng), config, 3);
    let data = SyntheticImages::new(4, 32, 32, 0.2, 3);
    let (x, labels) = data.batch(4, &mut rng);

    // Warm-up: the first steps fill the scratch pool, the per-layer
    // caches, the decodes' buffers and the tracked set's storage.
    for _ in 0..3 {
        trainer.train_step(&x, &labels);
    }
    // Every conv and fc store runs the sparse kernels.
    assert_eq!(trainer.model_mut().csb_store_count(), 7);

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
        "steady-state Procrustes steps on CSB must not allocate (got {} allocations over 5 steps)",
        after - before
    );
}
