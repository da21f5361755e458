//! The kernel subsystem's zero-allocation contract: packed-B panels
//! live in [`Scratch`], not on the heap per call — on both tiers.
//!
//! The packed kernel stages rhs panels through two ping-pong buffers
//! taken from the scratch pool and recycled on exit, so once the pool
//! has seen a shape, repeating it (or any smaller shape) allocates
//! nothing. The threaded tier extends the same contract: pool threads
//! are spawned once (warm-up) and each owns a private scratch. Workers
//! claim output pieces from a shared counter, so which pieces worker
//! `w` computes varies from call to call, but its packing panels do
//! not: their sizes depend on the blueprint alone, and a worker takes
//! them before it claims its first piece (even one that claims none).
//! So per-worker scratch warm sizes are reproducible and the steady
//! state stays allocation-free at any worker count. Pinned with a counting global allocator, same idiom
//! as the dropback trainer's steady-state test. This file holds
//! exactly one test so no concurrent test thread can contribute
//! allocations to the global counter (the kernel pool's own threads
//! only ever allocate through the scratch pool being measured).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use procrustes_tensor::kernel::{self, Blueprint};
use procrustes_tensor::Scratch;

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
fn steady_state_gemm_calls_perform_zero_allocations() {
    // One problem per operand layout, plus the tiny fc2 trio of a
    // tiny-VGG step: every product stages its panels through the pool.
    let problems = [
        Blueprint::nn(48, 96, 130),
        Blueprint::nt(48, 96, 130),
        Blueprint::tn(48, 96, 130),
        Blueprint::nn(17, 200, 64),
        Blueprint::nt(8, 64, 10),
        Blueprint::nn(8, 10, 64),
        Blueprint::tn(10, 8, 64),
    ];
    let lhs = vec![1.0f32; 48 * 200];
    let rhs = vec![0.5f32; 200 * 130];
    let mut dst = vec![0.0f32; 48 * 130];
    let mut scratch = Scratch::new();

    // Warm-up: the first pass funds the pool's two ping-pong packing
    // buffers (and lets `take_any` reach its best-fit fixed point).
    for bp in &problems {
        kernel::gemm(
            bp,
            &mut dst[..bp.m * bp.n],
            &lhs[..bp.lhs_len()],
            &rhs[..bp.rhs_len()],
            &mut scratch,
        );
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        for bp in &problems {
            kernel::gemm(
                bp,
                &mut dst[..bp.m * bp.n],
                &lhs[..bp.lhs_len()],
                &rhs[..bp.rhs_len()],
                &mut scratch,
            );
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state kernel::gemm must not allocate (got {} allocations over 35 calls)",
        after - before
    );

    // Threaded tier: same contract at 4 workers. These shapes are past
    // the serial/threaded crossover in their classes, so the selector
    // resolves them to the worker pool (asserted below — the phase must
    // not silently degrade to serial).
    let threaded = [
        Blueprint::nn(128, 128, 256).with_threads(4),
        Blueprint::nt(64, 512, 576).with_threads(4),
        Blueprint::tn(256, 64, 512).with_threads(4),
    ];
    let lhs = vec![1.0f32; 64 * 512];
    let rhs = vec![0.5f32; 512 * 576];
    let mut dst = vec![0.0f32; 256 * 512];
    for bp in &threaded {
        assert!(
            kernel::explain(bp).0.workers > 1,
            "alloc test expects {}x{}x{} ({:?}) to take the threaded tier",
            bp.m,
            bp.k,
            bp.n,
            bp.op
        );
    }

    // Warm-up: spawns the pool threads and funds each worker's private
    // scratch (panel sizes are fixed per blueprint, whatever pieces a
    // worker claims, so one pass per shape reaches the fixed point).
    for bp in &threaded {
        kernel::gemm(
            bp,
            &mut dst[..bp.m * bp.n],
            &lhs[..bp.lhs_len()],
            &rhs[..bp.rhs_len()],
            &mut scratch,
        );
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        for bp in &threaded {
            kernel::gemm(
                bp,
                &mut dst[..bp.m * bp.n],
                &lhs[..bp.lhs_len()],
                &rhs[..bp.rhs_len()],
                &mut scratch,
            );
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state threaded kernel::gemm must not allocate (got {} allocations over 15 calls)",
        after - before
    );
}
