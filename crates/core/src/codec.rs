//! JSON encoding and decoding of the leaf types a
//! [`Scenario`](crate::Scenario) or [`Sweep`](crate::Sweep) document is
//! made of.

use procrustes_nn::ComputeBackend;
use procrustes_sim::{
    ArchConfig, BalanceMode, EnergyTable, Fidelity, LayerTask, Mapping, SparsityInfo,
};

use crate::json::Json;
use crate::masks::MaskGenConfig;
use crate::scenario::ScenarioError;

// ---------------------------------------------------------------------------
// JSON helpers for the leaf types
// ---------------------------------------------------------------------------

/// Rejects unrecognized keys in an untrusted object so typos fail loudly
/// instead of silently evaluating the wrong configuration. Non-objects
/// pass through (their shape errors surface from the field accessors).
pub(crate) fn check_keys(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), ScenarioError> {
    if let Json::Obj(pairs) = v {
        for (k, _) in pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(ScenarioError::Parse(format!(
                    "unknown {ctx} field '{k}' (allowed: {})",
                    allowed.join(", ")
                )));
            }
        }
    }
    Ok(())
}

pub(crate) fn f64_field(v: &Json, key: &str) -> Result<f64, ScenarioError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ScenarioError::Parse(format!("number field '{key}' missing")))
}

pub(crate) fn u64_field(v: &Json, key: &str) -> Result<u64, ScenarioError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ScenarioError::Parse(format!("integer field '{key}' missing")))
}

pub(crate) fn usize_field(v: &Json, key: &str) -> Result<usize, ScenarioError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ScenarioError::Parse(format!("integer field '{key}' missing")))
}

pub(crate) fn bool_field(v: &Json, key: &str) -> Result<bool, ScenarioError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ScenarioError::Parse(format!("bool field '{key}' missing")))
}

/// Report/serialization label for a balancing mode.
pub fn balance_label(balance: BalanceMode) -> &'static str {
    match balance {
        BalanceMode::None => "none",
        BalanceMode::HalfTile => "half_tile",
        BalanceMode::Ideal => "ideal",
    }
}

pub(crate) fn balance_from_label(label: &str) -> Result<BalanceMode, ScenarioError> {
    match label {
        "none" => Ok(BalanceMode::None),
        "half_tile" => Ok(BalanceMode::HalfTile),
        "ideal" => Ok(BalanceMode::Ideal),
        other => Err(ScenarioError::Parse(format!(
            "unknown balance mode '{other}'"
        ))),
    }
}

pub(crate) fn fidelity_from_label(label: &str) -> Result<Fidelity, ScenarioError> {
    Fidelity::ALL
        .into_iter()
        .find(|f| f.label() == label)
        .ok_or_else(|| ScenarioError::Parse(format!("unknown fidelity '{label}'")))
}

pub(crate) fn compute_to_json(compute: ComputeBackend) -> Json {
    match compute {
        ComputeBackend::Dense => Json::Obj(vec![("kind".into(), Json::str("dense"))]),
        ComputeBackend::Csb => Json::Obj(vec![("kind".into(), Json::str("csb"))]),
        ComputeBackend::Auto { max_density } => Json::Obj(vec![
            ("kind".into(), Json::str("auto")),
            ("max_density".into(), Json::f64(max_density)),
        ]),
    }
}

pub(crate) fn compute_from_json(v: &Json) -> Result<ComputeBackend, ScenarioError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ScenarioError::Parse("compute.kind missing".into()))?;
    check_keys(
        v,
        if kind == "auto" {
            &["kind", "max_density"]
        } else {
            &["kind"]
        },
        "compute",
    )?;
    match kind {
        "dense" => Ok(ComputeBackend::Dense),
        "csb" => Ok(ComputeBackend::Csb),
        "auto" => Ok(ComputeBackend::Auto {
            max_density: f64_field(v, "max_density")?,
        }),
        other => Err(ScenarioError::Parse(format!(
            "unknown compute backend '{other}'"
        ))),
    }
}

pub(crate) fn mapping_from_label(label: &str) -> Result<Mapping, ScenarioError> {
    Mapping::ALL
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| ScenarioError::Parse(format!("unknown mapping '{label}'")))
}

pub(crate) fn arch_to_json(a: &ArchConfig) -> Json {
    Json::Obj(vec![
        ("rows".into(), Json::usize(a.rows)),
        ("cols".into(), Json::usize(a.cols)),
        ("rf_words".into(), Json::usize(a.rf_words)),
        ("glb_bytes".into(), Json::usize(a.glb_bytes)),
        ("glb_bw_words".into(), Json::usize(a.glb_bw_words)),
        ("dram_bw_words".into(), Json::usize(a.dram_bw_words)),
        ("ideal".into(), Json::Bool(a.ideal)),
        (
            "energy".into(),
            Json::Obj(vec![
                ("mac_pj".into(), Json::f64(a.energy.mac_pj)),
                ("rf_pj".into(), Json::f64(a.energy.rf_pj)),
                ("glb_pj".into(), Json::f64(a.energy.glb_pj)),
                ("dram_pj".into(), Json::f64(a.energy.dram_pj)),
                ("qe_pj".into(), Json::f64(a.energy.qe_pj)),
                ("wr_pj".into(), Json::f64(a.energy.wr_pj)),
                ("lb_pj".into(), Json::f64(a.energy.lb_pj)),
                ("mask_pj".into(), Json::f64(a.energy.mask_pj)),
            ]),
        ),
    ])
}

pub(crate) fn arch_from_json(v: &Json) -> Result<ArchConfig, ScenarioError> {
    check_keys(
        v,
        &[
            "rows",
            "cols",
            "rf_words",
            "glb_bytes",
            "glb_bw_words",
            "dram_bw_words",
            "ideal",
            "energy",
        ],
        "arch",
    )?;
    let e = v
        .get("energy")
        .ok_or_else(|| ScenarioError::Parse("arch.energy missing".into()))?;
    check_keys(
        e,
        &[
            "mac_pj", "rf_pj", "glb_pj", "dram_pj", "qe_pj", "wr_pj", "lb_pj", "mask_pj",
        ],
        "arch.energy",
    )?;
    Ok(ArchConfig {
        rows: usize_field(v, "rows")?,
        cols: usize_field(v, "cols")?,
        rf_words: usize_field(v, "rf_words")?,
        glb_bytes: usize_field(v, "glb_bytes")?,
        glb_bw_words: usize_field(v, "glb_bw_words")?,
        dram_bw_words: usize_field(v, "dram_bw_words")?,
        ideal: bool_field(v, "ideal")?,
        energy: EnergyTable {
            mac_pj: f64_field(e, "mac_pj")?,
            rf_pj: f64_field(e, "rf_pj")?,
            glb_pj: f64_field(e, "glb_pj")?,
            dram_pj: f64_field(e, "dram_pj")?,
            qe_pj: f64_field(e, "qe_pj")?,
            wr_pj: f64_field(e, "wr_pj")?,
            lb_pj: f64_field(e, "lb_pj")?,
            mask_pj: f64_field(e, "mask_pj")?,
        },
    })
}

pub(crate) fn mask_cfg_to_json(cfg: &MaskGenConfig) -> Json {
    Json::Obj(vec![
        ("sparsity_factor".into(), Json::f64(cfg.sparsity_factor)),
        ("alpha".into(), Json::f64(cfg.alpha)),
        ("spread".into(), Json::f64(cfg.spread)),
        ("row_spread".into(), Json::f64(cfg.row_spread)),
        ("act_density".into(), Json::f64(cfg.act_density)),
        ("min_keep".into(), Json::f64(cfg.min_keep)),
    ])
}

pub(crate) fn mask_cfg_from_json(v: &Json) -> Result<MaskGenConfig, ScenarioError> {
    check_keys(
        v,
        &[
            "sparsity_factor",
            "alpha",
            "spread",
            "row_spread",
            "act_density",
            "min_keep",
        ],
        "sparsity.cfg",
    )?;
    Ok(MaskGenConfig {
        sparsity_factor: f64_field(v, "sparsity_factor")?,
        alpha: f64_field(v, "alpha")?,
        spread: f64_field(v, "spread")?,
        row_spread: f64_field(v, "row_spread")?,
        act_density: f64_field(v, "act_density")?,
        min_keep: f64_field(v, "min_keep")?,
    })
}

pub(crate) fn task_to_json(t: &LayerTask) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(t.name.clone())),
        ("batch".into(), Json::usize(t.batch)),
        ("c".into(), Json::usize(t.c)),
        ("k".into(), Json::usize(t.k)),
        ("h".into(), Json::usize(t.h)),
        ("w".into(), Json::usize(t.w)),
        ("p".into(), Json::usize(t.p)),
        ("q".into(), Json::usize(t.q)),
        ("r".into(), Json::usize(t.r)),
        ("s".into(), Json::usize(t.s)),
        ("depthwise".into(), Json::Bool(t.depthwise)),
    ])
}

pub(crate) fn task_from_json(v: &Json) -> Result<LayerTask, ScenarioError> {
    check_keys(
        v,
        &[
            "name",
            "batch",
            "c",
            "k",
            "h",
            "w",
            "p",
            "q",
            "r",
            "s",
            "depthwise",
        ],
        "task",
    )?;
    Ok(LayerTask {
        name: v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ScenarioError::Parse("task.name missing".into()))?
            .to_string(),
        batch: usize_field(v, "batch")?,
        c: usize_field(v, "c")?,
        k: usize_field(v, "k")?,
        h: usize_field(v, "h")?,
        w: usize_field(v, "w")?,
        p: usize_field(v, "p")?,
        q: usize_field(v, "q")?,
        r: usize_field(v, "r")?,
        s: usize_field(v, "s")?,
        depthwise: bool_field(v, "depthwise")?,
    })
}

pub(crate) fn sparsity_info_to_json(sp: &SparsityInfo) -> Json {
    Json::Obj(vec![
        (
            "kernel_nnz".into(),
            Json::Arr(
                sp.kernel_nnz
                    .iter()
                    .map(|&n| Json::u64(u64::from(n)))
                    .collect(),
            ),
        ),
        ("act_in_density".into(), Json::f64(sp.act_in_density)),
        ("grad_density".into(), Json::f64(sp.grad_density)),
        ("compressed".into(), Json::Bool(sp.compressed)),
    ])
}

pub(crate) fn sparsity_info_from_json(v: &Json) -> Result<SparsityInfo, ScenarioError> {
    check_keys(
        v,
        &["kernel_nnz", "act_in_density", "grad_density", "compressed"],
        "workload.sparsity",
    )?;
    let nnz = v
        .get("kernel_nnz")
        .and_then(Json::as_arr)
        .ok_or_else(|| ScenarioError::Parse("sparsity.kernel_nnz missing".into()))?;
    Ok(SparsityInfo {
        kernel_nnz: nnz
            .iter()
            .map(|n| {
                n.as_u32()
                    .ok_or_else(|| ScenarioError::Parse("kernel_nnz entry not a u32".into()))
            })
            .collect::<Result<_, _>>()?,
        act_in_density: f64_field(v, "act_in_density")?,
        grad_density: f64_field(v, "grad_density")?,
        compressed: bool_field(v, "compressed")?,
    })
}
