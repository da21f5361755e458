//! Backend-dispatch equivalence: conv and fc layers must produce
//! identical outputs and gradients whether their weights run through the
//! dense kernels or the CSB-compressed ones, across random masks and
//! densities (including the fully-dense and fully-zero edges).

use procrustes_nn::{arch, ComputeBackend, Conv2d, Flatten, Layer, Linear, ReLU, Sequential};
use procrustes_prng::{UniformRng, Xorshift64};
use procrustes_tensor::{Scratch, Tensor};

/// Zeroes a `keep`-complement of the layer's prunable weights.
fn sparsify(layer: &mut dyn Layer, keep: f64, seed: u64) {
    let mut rng = Xorshift64::new(seed);
    layer.visit_params(&mut |mut p| {
        if p.kind == procrustes_nn::ParamKind::Prunable {
            for v in p.values.data_mut() {
                if rng.next_f64() >= keep {
                    *v = 0.0;
                }
            }
        }
    });
}

fn assert_tensors_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5 * (1.0 + x.abs().max(y.abs())),
            "{what}: mismatch at {i}: {x} vs {y}"
        );
        assert_eq!(x, y, "{what}: not bitwise at {i}: {x} vs {y}");
    }
}

#[test]
fn conv_layer_matches_across_backends_and_densities() {
    for (keep, seed) in [(0.0, 1u64), (0.07, 2), (0.4, 3), (1.0, 4)] {
        let build = || {
            let mut conv = Conv2d::new(3, 5, 3, 1, 1, true, &mut Xorshift64::new(11));
            sparsify(&mut conv, keep, seed);
            conv
        };
        let x = Tensor::randn(&[2, 3, 7, 7], 1.0, &mut Xorshift64::new(seed + 50));
        let mut dense = build();
        let mut csb = build();
        csb.set_compute_backend(ComputeBackend::Csb);

        let yd = dense.forward(&x, true);
        let yc = csb.forward(&x, true);
        assert_tensors_equal(&yd, &yc, &format!("conv forward keep={keep}"));
        assert!(csb.weight_store().is_csb(), "keep={keep}");

        let dy = Tensor::randn(yd.shape().dims(), 1.0, &mut Xorshift64::new(seed + 90));
        let dxd = dense.backward(&dy);
        let dxc = csb.backward(&dy);
        assert_tensors_equal(&dxd, &dxc, &format!("conv input-grad keep={keep}"));

        let grads = |l: &mut Conv2d| {
            let mut out = Vec::new();
            l.visit_params(&mut |p| out.push(p.grads.clone()));
            out
        };
        for (gd, gc) in grads(&mut dense).iter().zip(grads(&mut csb).iter()) {
            assert_tensors_equal(gd, gc, &format!("conv weight-grad keep={keep}"));
        }
    }
}

/// Convolution is a layout: between its forward and its backward pass
/// a `Conv2d` holds the zero-padded planes of its input — on either
/// backend, at any stride — and no buffer the size of their
/// `C·R·S × N·P·Q` column matrix (9× the input for a 3×3 filter).
#[test]
fn conv_layers_cache_padded_planes_never_columns() {
    let mut scratch = Scratch::new();
    // tiny-VGG's five conv geometries at batch 8, then a strided and a
    // 1×1 layer: `(c, k, hw, kernel, stride, pad)`.
    for (c, k, hw, kernel, stride, pad) in [
        (3, 16, 32, 3, 1, 1),
        (16, 16, 32, 3, 1, 1),
        (16, 32, 16, 3, 1, 1),
        (32, 32, 16, 3, 1, 1),
        (32, 64, 8, 3, 1, 1),
        (8, 8, 17, 3, 2, 1),
        (8, 4, 9, 1, 1, 0),
    ] {
        for backend in [ComputeBackend::Dense, ComputeBackend::Csb] {
            let mut conv = Conv2d::new(c, k, kernel, stride, pad, false, &mut Xorshift64::new(3));
            sparsify(&mut conv, 0.1, 4);
            conv.set_compute_backend(backend);
            assert_eq!(conv.cached_floats(), 0, "nothing cached before a forward");
            let x = Tensor::randn(&[8, c, hw, hw], 1.0, &mut Xorshift64::new(5));
            // Two steps: the second refills the planes in place.
            for _ in 0..2 {
                let y = conv.forward_with(&x, true, &mut scratch);
                let dx = conv.backward_with(&y, &mut scratch);
                scratch.recycle(y);
                scratch.recycle(dx);
                let padded = 8 * c * (hw + 2 * pad) * (hw + 2 * pad);
                assert_eq!(conv.cached_floats(), padded, "{c}->{k} at {hw}");
            }
            // Eval mode pads into pooled planes and keeps nothing more.
            let before = conv.cached_floats();
            let y = conv.forward_with(&x, false, &mut scratch);
            assert_eq!(conv.cached_floats(), before);
            let columns = c * kernel * kernel * y.len() / k;
            if kernel > 1 {
                assert!(before < columns, "{before} cached vs {columns} columns");
            }
            scratch.recycle(y);
        }
    }
}

#[test]
fn linear_layer_matches_across_backends_and_densities() {
    for (keep, seed) in [(0.0, 5u64), (0.1, 6), (0.5, 7), (1.0, 8)] {
        let build = || {
            // Ragged border blocks: neither 130 nor 70 is a multiple of
            // the 64-edge.
            let mut fc = Linear::new(130, 70, true, &mut Xorshift64::new(21));
            sparsify(&mut fc, keep, seed);
            fc
        };
        let x = Tensor::randn(&[4, 130], 1.0, &mut Xorshift64::new(seed + 60));
        let mut dense = build();
        let mut csb = build();
        csb.set_compute_backend(ComputeBackend::Csb);

        let yd = dense.forward(&x, true);
        let yc = csb.forward(&x, true);
        assert_tensors_equal(&yd, &yc, &format!("fc forward keep={keep}"));

        let dy = Tensor::randn(yd.shape().dims(), 1.0, &mut Xorshift64::new(seed + 70));
        let dxd = dense.backward(&dy);
        let dxc = csb.backward(&dy);
        assert_tensors_equal(&dxd, &dxc, &format!("fc input-grad keep={keep}"));
    }
}

#[test]
fn auto_backend_promotes_and_demotes_per_layer() {
    let mut conv = Conv2d::new(2, 4, 3, 1, 1, false, &mut Xorshift64::new(31));
    conv.set_compute_backend(ComputeBackend::auto());
    let x = Tensor::ones(&[1, 2, 5, 5]);

    // Dense weights: density 1.0 > 0.5 -> stays on the dense path.
    conv.forward(&x, false);
    assert!(!conv.weight_store().is_csb());

    // Prune below the threshold: the next forward promotes.
    sparsify(&mut conv, 0.2, 32);
    conv.forward(&x, false);
    assert!(conv.weight_store().is_csb());
    assert!(conv.weight_store().density() <= 0.5);

    // Refill the weights: the next forward demotes again.
    conv.weight_mut().map_inplace(|_| 1.0);
    conv.forward(&x, false);
    assert!(!conv.weight_store().is_csb());
}

#[test]
fn sequential_propagates_backend_and_stays_equivalent() {
    let build = || {
        let mut rng = Xorshift64::new(41);
        let mut m = Sequential::new();
        m.push(Conv2d::new(1, 4, 3, 1, 1, false, &mut rng));
        m.push(ReLU::new());
        m.push(Flatten::new());
        m.push(Linear::new(4 * 6 * 6, 3, true, &mut rng));
        sparsify(&mut m, 0.15, 42);
        m
    };
    let x = Tensor::randn(&[2, 1, 6, 6], 1.0, &mut Xorshift64::new(43));
    let dy = Tensor::randn(&[2, 3], 1.0, &mut Xorshift64::new(44));

    let mut dense = build();
    let mut csb = build();
    csb.set_compute_backend(ComputeBackend::Csb);

    let yd = dense.forward(&x, true);
    let yc = csb.forward(&x, true);
    assert_tensors_equal(&yd, &yc, "model forward");
    let dxd = dense.backward(&dy);
    let dxc = csb.backward(&dy);
    assert_tensors_equal(&dxd, &dxc, "model input-grad");
}

/// The CSB kernels take their outputs from the pool `Sequential`
/// recycles every activation into, so the pool reaches a fixed point.
/// (When they returned fresh tensors instead, it grew by ten buffers a
/// round and training on the CSB backend leaked ~2 MiB a step.)
#[test]
fn csb_backend_scratch_pool_reaches_a_fixed_point() {
    let mut model = arch::tiny_vgg(10, &mut Xorshift64::new(51));
    sparsify(&mut model, 0.1, 52);
    model.set_compute_backend(ComputeBackend::Csb);
    let x = Tensor::randn(&[2, 3, 32, 32], 1.0, &mut Xorshift64::new(53));
    let dy = Tensor::randn(&[2, 10], 1.0, &mut Xorshift64::new(54));

    let mut scratch = Scratch::new();
    let mut pooled = Vec::new();
    for _ in 0..25 {
        let y = model.forward_with(&x, true, &mut scratch);
        let dx = model.backward_with(&dy, &mut scratch);
        scratch.recycle(y);
        scratch.recycle(dx);
        pooled.push((scratch.pooled_buffers(), scratch.pooled_bytes()));
    }
    assert!(model.csb_store_count() > 0, "the CSB kernels must have run");
    assert_eq!(
        pooled[4], pooled[24],
        "(buffers, bytes) pooled after round 5 and after round 25"
    );
}
