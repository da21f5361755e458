//! The benchmark's contract: workload names and metric names with their
//! units, exactly as `BENCHMARK.json` lists them (the smoke test holds
//! the two in step).

/// The default measuring time of one run, `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 8.0;

/// Every workload, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] = [
    "train_dense",
    "train_sparse",
    "sweep_cold",
    "sweep_warm",
    "serve_warm",
    "serve_cold",
];

/// `(name, unit)` of every end-to-end metric; each workload reports all
/// of them on an untraced run. What one operation is depends on the
/// workload and is stated in the README.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric; a traced run reports all
/// of them, 0 for a layer the workload does not enter.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("trace.throughput_per_s", "1/s"),
    ("trace.spans", "count"),
    ("tensor.im2col_ms", "ms"),
    ("tensor.conv_fwd_ms", "ms"),
    ("tensor.conv_bwd_input_ms", "ms"),
    ("tensor.conv_bwd_weights_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_gflops_threaded", "GFLOP/s"),
    ("tensor.kernel_threads", "count"),
    ("sparse.conv_fwd_ms", "ms"),
    ("sparse.conv_bwd_input_ms", "ms"),
    ("sparse.conv_bwd_weights_ms", "ms"),
    ("sparse.encode_ms", "ms"),
    ("sparse.density", "ratio"),
    ("quantile.update_ns", "ns"),
    ("quantile.updates_per_step", "count"),
    ("nn.forward_ms", "ms"),
    ("nn.loss_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.csb_stores", "count"),
    ("dropback.step_ms", "ms"),
    ("dropback.step_ms_p95", "ms"),
    ("dropback.track_ms", "ms"),
    ("dropback.weight_sparsity", "ratio"),
    ("dropback.admitted_per_step", "count"),
    ("dropback.evicted_per_step", "count"),
    ("core.run_all_ms", "ms"),
    ("core.masks_ms", "ms"),
    ("core.run_workloads_cold_ms", "ms"),
    ("core.run_workloads_warm_ms", "ms"),
    ("core.fingerprint_us", "us"),
    ("core.to_json_us", "us"),
    ("core.from_json_us", "us"),
    ("core.memo_entries", "count"),
    ("sim.evaluate_layer_us", "us"),
    ("sim.evaluate_layer_timed_us", "us"),
    ("sim.layer_evals", "count"),
    ("sim.max_speedup", "ratio"),
    ("sim.max_energy_saving", "ratio"),
    ("search.run_ms", "ms"),
    ("search.evaluated", "count"),
    ("search.front_exact", "count"),
    ("serve.startup_ms", "ms"),
    ("serve.restart_ms", "ms"),
    ("serve.eval_us_p50", "us"),
    ("serve.eval_us_p99", "us"),
    ("serve.sweep_ms_p50", "ms"),
    ("serve.sweep_per_result_us", "us"),
    ("serve.cold_eval_ms_p50", "ms"),
    ("serve.cold_eval_ms_p95", "ms"),
    ("serve.disk_eval_us_p50", "us"),
    ("serve.requests", "count"),
    ("serve.computed", "count"),
    ("serve.memo_hits", "count"),
    ("serve.disk_hits", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.shed", "count"),
    ("serve.parse_errors", "count"),
    ("serve.cache_bytes", "bytes"),
    ("serve.daemon_eval_p50_ms", "ms"),
    ("serve.shards", "count"),
    ("serve.connections", "count"),
];
