//! Fig 8: the compressed sparse block (CSB) representation, reproduced on
//! the paper's own worked example.

use procrustes_core::report::Table;
use procrustes_sparse::CsbTensor;
use procrustes_tensor::Tensor;

use crate::ctx::ExpContext;

pub fn run(ctx: &ExpContext) {
    // The paper's block B1: "Wa 0 Wb 0 0 Wc Wd 0 We", mask 101001101.
    let (wa, wb, wc, wd, we) = (1.0, 2.0, 3.0, 4.0, 5.0);
    let dense = vec![wa, 0.0, wb, 0.0, 0.0, wc, wd, 0.0, we];
    let w = Tensor::from_vec(&[1, 1, 3, 3], dense.clone());
    let csb = CsbTensor::from_dense_conv(&w);

    let mut t = Table::new(
        "Fig 8 — CSB worked example (paper block B1)",
        &["component", "contents"],
    );
    t.row(&[
        "uncompressed block".to_string(),
        dense
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    let mask: String = (0..9)
        .map(|i| if csb.mask().get(i) { '1' } else { '0' })
        .collect();
    t.row(&["mask (M1)".to_string(), mask]);
    t.row(&[
        "packed weights (B1)".to_string(),
        csb.block_values(0, 0)
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    t.row(&[
        "Σ M1 (packed size)".to_string(),
        csb.block_nnz(0, 0).to_string(),
    ]);
    t.row(&[
        "rotated fetch (bw)".to_string(),
        csb.block_dense_rotated180(0, 0)
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    ctx.emit("fig8", &t);
    ctx.note(
        "round-trip, rotation-at-fetch, and pointer-difference density queries are \
         property-tested in procrustes-sparse",
    );
}
