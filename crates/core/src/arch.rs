//! Layer-geometry tables for the five full-size networks of the paper's
//! evaluation (Table II): [`vgg_s`], [`resnet18`], [`mobilenet_v2`],
//! [`wrn_28_10`] and [`densenet`].
//!
//! Each weight layer is a [`LayerTask`] — the seven loop extents
//! `N, C, K, P, Q, R, S` of Alg 1 — built at batch 1;
//! [`masks::generate`](crate::masks::generate) and
//! [`masks::dense`](crate::masks::dense) re-batch them. The accelerator
//! model needs geometry and sparsity, never trained weight values, so
//! nothing here is trainable: the tiny trainable variants of each family
//! live in `procrustes_nn::arch`.

use procrustes_sim::LayerTask;

/// A full network: its weight layers in execution order, at batch 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkArch {
    /// Network name as used in the paper ("VGG-S", "ResNet18", …).
    pub name: &'static str,
    /// All weight layers in execution order.
    pub layers: Vec<LayerTask>,
}

/// A square `r×r` convolution over an `h×h` input at batch 1.
fn conv(
    name: impl Into<String>,
    c: usize,
    k: usize,
    h: usize,
    r: usize,
    stride: usize,
    pad: usize,
) -> LayerTask {
    LayerTask::conv(name, 1, c, k, h, h, r, stride, pad)
}

/// VGG-S (Zagoruyko's CIFAR VGG: the VGG-16 conv stack with a reduced fc
/// head; ~15 M weights — Table II row 3).
pub fn vgg_s() -> NetworkArch {
    let mut layers = Vec::new();
    let mut h = 32;
    let mut c = 3;
    let plan: &[(usize, usize)] = &[(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    for (gi, &(width, convs)) in plan.iter().enumerate() {
        for li in 0..convs {
            let name = format!("conv{}_{}", gi + 1, li + 1);
            layers.push(conv(name, c, width, h, 3, 1, 1));
            c = width;
        }
        h /= 2; // maxpool 2x2 after each group
    }
    layers.push(LayerTask::fc("fc1", 1, 512, 512));
    layers.push(LayerTask::fc("fc2", 1, 512, 10));
    NetworkArch {
        name: "VGG-S",
        layers,
    }
}

/// ResNet18 for ImageNet (11.7 M weights — Table II row 5).
pub fn resnet18() -> NetworkArch {
    let mut layers = vec![conv("conv1", 3, 64, 224, 7, 2, 3)];
    // After conv1 (112) and 3x3/2 maxpool: 56x56.
    let stages: &[(usize, usize, usize)] = &[
        // (in_ch, out_ch, input spatial of the stage's first block)
        (64, 64, 56),
        (64, 128, 56),
        (128, 256, 28),
        (256, 512, 14),
    ];
    for (si, &(cin, cout, hin)) in stages.iter().enumerate() {
        let stride = if si == 0 { 1 } else { 2 };
        let hout = hin / stride;
        let tag = format!("s{}", si + 1);
        // Block 1 (possibly strided, with projection shortcut).
        layers.push(conv(format!("{tag}b1_conv1"), cin, cout, hin, 3, stride, 1));
        layers.push(conv(format!("{tag}b1_conv2"), cout, cout, hout, 3, 1, 1));
        if stride != 1 || cin != cout {
            layers.push(conv(format!("{tag}b1_down"), cin, cout, hin, 1, stride, 0));
        }
        // Block 2.
        layers.push(conv(format!("{tag}b2_conv1"), cout, cout, hout, 3, 1, 1));
        layers.push(conv(format!("{tag}b2_conv2"), cout, cout, hout, 3, 1, 1));
    }
    layers.push(LayerTask::fc("fc", 1, 512, 1000));
    NetworkArch {
        name: "ResNet18",
        layers,
    }
}

/// MobileNet v2 for ImageNet (~3.5 M weights — Table II row 4).
pub fn mobilenet_v2() -> NetworkArch {
    let mut layers = vec![conv("conv0", 3, 32, 224, 3, 2, 1)];
    // (expansion t, out channels, repeats, first stride), input resolution
    // tracked as we go. Standard MobileNet v2 table.
    let table: &[(usize, usize, usize, usize)] = &[
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut c = 32;
    let mut h = 112;
    for (bi, &(t, out, n, s)) in table.iter().enumerate() {
        for ri in 0..n {
            let stride = if ri == 0 { s } else { 1 };
            let exp = c * t;
            let tag = format!("b{}_{}", bi + 1, ri + 1);
            if t != 1 {
                layers.push(conv(format!("{tag}_expand"), c, exp, h, 1, 1, 0));
            }
            let dw = LayerTask::depthwise(format!("{tag}_dw"), 1, exp, h, h, 3, stride, 1);
            layers.push(dw);
            let hout = h / stride;
            layers.push(conv(format!("{tag}_project"), exp, out, hout, 1, 1, 0));
            c = out;
            h = hout;
        }
    }
    layers.push(conv("conv_last", 320, 1280, 7, 1, 1, 0));
    layers.push(LayerTask::fc("fc", 1, 1280, 1000));
    NetworkArch {
        name: "MobileNet v2",
        layers,
    }
}

/// WRN-28-10 for CIFAR-10 (36.5 M weights — Table II row 2).
pub fn wrn_28_10() -> NetworkArch {
    let mut layers = vec![conv("conv0", 3, 16, 32, 3, 1, 1)];
    // n = (28 - 4) / 6 = 4 blocks per group; widths 160/320/640.
    let groups: &[(usize, usize, usize, usize)] = &[
        // (in_ch, out_ch, input spatial, first stride)
        (16, 160, 32, 1),
        (160, 320, 32, 2),
        (320, 640, 16, 2),
    ];
    for (gi, &(cin, cout, hin, s)) in groups.iter().enumerate() {
        let hout = hin / s;
        for bi in 0..4 {
            let (bc, bh, bs) = if bi == 0 {
                (cin, hin, s)
            } else {
                (cout, hout, 1)
            };
            let tag = format!("g{}b{}", gi + 1, bi + 1);
            layers.push(conv(format!("{tag}_conv1"), bc, cout, bh, 3, bs, 1));
            layers.push(conv(format!("{tag}_conv2"), cout, cout, hout, 3, 1, 1));
            if bi == 0 {
                layers.push(conv(format!("{tag}_down"), bc, cout, bh, 1, bs, 0));
            }
        }
    }
    layers.push(LayerTask::fc("fc", 1, 640, 10));
    NetworkArch {
        name: "WRN-28-10",
        layers,
    }
}

/// The paper's small DenseNet: growth rate 24, 3 blocks × 10 layers,
/// plain connectivity (~2.7 M weights — Table II row 1).
pub fn densenet() -> NetworkArch {
    let growth = 24;
    let mut layers = vec![conv("conv0", 3, 16, 32, 3, 1, 1)];
    let mut c = 16;
    let mut h = 32;
    for b in 0..3 {
        for l in 0..10 {
            let name = format!("block{}_layer{}", b + 1, l + 1);
            layers.push(conv(name, c, growth, h, 3, 1, 1));
            c += growth;
        }
        if b < 2 {
            // Transition: 1x1 conv (same width) + 2x2 avg pool.
            layers.push(conv(format!("trans{}", b + 1), c, c, h, 1, 1, 0));
            h /= 2;
        }
    }
    layers.push(LayerTask::fc("fc", 1, c, 10));
    NetworkArch {
        name: "DenseNet",
        layers,
    }
}

/// All five paper networks, in the order of the paper's figures
/// (WRN, DenseNet, VGG-S, ResNet18, MobileNet v2).
pub fn paper_networks() -> Vec<NetworkArch> {
    vec![wrn_28_10(), densenet(), vgg_s(), resnet18(), mobilenet_v2()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, ScenarioError, PAPER_NETWORKS};
    use procrustes_sim::{Fnv1a, Phase};

    /// FNV-1a over every layer's name bytes and its batch-16 task
    /// fingerprint, read through the public scenario path.
    fn layer_chain(id: &str) -> Result<u64, ScenarioError> {
        let mut h = Fnv1a::new();
        for (task, _) in Scenario::builder(id).build()?.resolve_workloads()? {
            assert_eq!(task.batch, 16, "{id}: {}", task.name);
            h.write(task.name.as_bytes());
            h.write_u64(task.fingerprint());
        }
        Ok(h.finish())
    }

    /// Every paper network's layer list — names, order and the seven
    /// loop extents of each layer — pinned bit for bit.
    #[test]
    fn every_paper_network_keeps_its_layers() {
        let golden: [(&str, u64); 5] = [
            ("WRN-28-10", 0xbf9a_b108_4696_2b68),
            ("DenseNet", 0x5d4d_2286_0945_3b69),
            ("VGG-S", 0xed36_1bd1_d5f4_7ed7),
            ("ResNet18", 0x8180_9396_a0b3_36a2),
            ("MobileNet v2", 0xa91d_e12e_298d_0aab),
        ];
        assert_eq!(golden.map(|(id, _)| id), PAPER_NETWORKS);
        let got = golden.map(|(id, _)| (id, layer_chain(id).unwrap()));
        assert_eq!(got, golden);
    }

    /// Weight totals must match the paper's Table II dense sizes.
    #[test]
    fn paper_network_weight_counts() {
        let cases: &[(NetworkArch, f64, f64)] = &[
            // (arch, expected millions, tolerance fraction)
            (vgg_s(), 15.0, 0.02),
            (resnet18(), 11.7, 0.02),
            (mobilenet_v2(), 3.5, 0.06),
            (wrn_28_10(), 36.5, 0.02),
            (densenet(), 2.7, 0.03),
        ];
        for (arch, expect_m, tol) in cases {
            let weights: usize = arch.layers.iter().map(LayerTask::weights).sum();
            let got = weights as f64 / 1e6;
            assert!(
                (got - expect_m).abs() / expect_m < *tol,
                "{}: {got:.2}M weights, expected ~{expect_m}M",
                arch.name
            );
        }
    }

    /// MAC totals land in the right ballpark (paper counts single-sample
    /// forward MACs; counting conventions differ by padding treatment, so
    /// we accept a generous band while still catching geometry errors).
    #[test]
    fn paper_network_mac_counts() {
        let cases: &[(NetworkArch, f64, f64)] = &[
            (vgg_s(), 269e6, 0.35),
            (resnet18(), 1.8e9, 0.15),
            (mobilenet_v2(), 301e6, 0.15),
            (wrn_28_10(), 4.0e9, 0.5),
            (densenet(), 528e6, 0.5),
        ];
        for (arch, expect, tol) in cases {
            let macs: u64 = arch
                .layers
                .iter()
                .map(|l| l.dense_macs(Phase::Forward))
                .sum();
            let got = macs as f64;
            assert!(
                (got - expect).abs() / expect < *tol,
                "{}: {:.3e} MACs, expected ~{:.3e}",
                arch.name,
                got,
                expect
            );
        }
    }

    #[test]
    fn geometry_is_consistent() {
        for arch in paper_networks() {
            for l in &arch.layers {
                assert_eq!(l.batch, 1, "{}: {}", arch.name, l.name);
                assert!(l.p > 0 && l.q > 0, "{}: {}", arch.name, l.name);
                assert!(l.weights() > 0);
                if l.depthwise {
                    assert_eq!(l.c, l.k, "depthwise must preserve channels");
                }
            }
        }
    }

    #[test]
    fn vgg_s_layer_structure() {
        let arch = vgg_s();
        assert_eq!(arch.layers.len(), 13 + 2); // 13 convs + 2 fc
        assert_eq!(arch.layers[0].c, 3);
        assert_eq!(arch.layers[0].k, 64);
        assert_eq!(arch.layers.last().unwrap().k, 10);
    }

    #[test]
    fn resnet18_has_downsample_convs() {
        let arch = resnet18();
        let downs = arch
            .layers
            .iter()
            .filter(|l| l.name.contains("down"))
            .count();
        assert_eq!(downs, 3);
    }
}
