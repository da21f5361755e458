//! Client-side rendering of served result documents into the standard
//! CSV report.

use procrustes_core::json::Json;
use procrustes_core::report::{results_row, Table, RESULTS_HEADER};
use procrustes_core::Scenario;

/// Renders served `EvalResult` JSON documents as the standard results
/// CSV — the same header and formatting as
/// [`procrustes_core::report::results_csv`] produces in-process (a
/// loopback test pins byte equality), so daemon output drops into the
/// same downstream tooling as `Engine::run_all` output.
///
/// # Errors
///
/// Returns a message naming the offending document when one is not a
/// well-formed result (missing scenario/totals fields).
pub fn results_csv_from_docs<S: AsRef<str>>(docs: &[S]) -> Result<String, String> {
    let mut table = Table::new("results", &RESULTS_HEADER);
    for (i, doc) in docs.iter().enumerate() {
        let v = Json::parse(doc.as_ref()).map_err(|e| format!("result {i}: {e}"))?;
        let scenario = Scenario::from_json_value(
            v.get("scenario")
                .ok_or_else(|| format!("result {i}: no 'scenario' member"))?,
        )
        .map_err(|e| format!("result {i}: {e}"))?;
        let totals = v
            .get("totals")
            .ok_or_else(|| format!("result {i}: no 'totals' member"))?;
        let num = |key: &str| {
            totals
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("result {i}: totals.{key} missing"))
        };
        let energy_j = totals
            .get("energy_j")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result {i}: totals.energy_j missing"))?;
        table.row(&results_row(
            &scenario,
            num("macs")?,
            num("cycles")?,
            energy_j,
        ));
    }
    Ok(table.to_csv())
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_core::report::results_csv;
    use procrustes_core::{Engine, SparsityGen};

    #[test]
    fn matches_in_process_csv_byte_for_byte() {
        let engine = Engine::serial();
        let results: Vec<_> = [
            Scenario::builder("VGG-S").batch(2).build().unwrap(),
            Scenario::builder("VGG-S")
                .batch(2)
                .sparsity(SparsityGen::PaperSynthetic { seed: 1 })
                .build()
                .unwrap(),
        ]
        .iter()
        .map(|s| engine.run(s).unwrap())
        .collect();
        let docs: Vec<String> = results.iter().map(|r| r.to_json()).collect();
        assert_eq!(results_csv_from_docs(&docs).unwrap(), results_csv(&results));
    }

    #[test]
    fn rejects_non_result_documents() {
        assert!(results_csv_from_docs(&["not json"]).is_err());
        assert!(results_csv_from_docs(&[r#"{"scenario":{}}"#]).is_err());
        assert!(results_csv_from_docs(&[r#"{"totals":{}}"#]).is_err());
    }
}
