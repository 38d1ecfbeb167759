//! The metric tables: names, units, directions and regression bounds. They
//! are the single definition; `BENCHMARK.json` must list exactly these
//! (checked by a test) and `README.md` explains them.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the serving stack sees. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "rows_per_s", unit: "rows/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "write_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Single-layer metrics from the traced run; the prefix is the crate name.
/// `*_us` are medians of the traced replay, the rest are counter deltas over
/// the measured phases.
pub const PER_LAYER: [Layer; 51] = [
    layer("fleet.infer_us", "us", "lower"),
    layer("fleet.self_us", "us", "lower"),
    layer("fleet.admit_us", "us", "lower"),
    layer("fleet.route_us", "us", "lower"),
    layer("fleet.qos_throttled_per_kreq", "count", "lower"),
    layer("fleet.failover_retries", "count", "lower"),
    layer("core.stub_us", "us", "lower"),
    layer("core.stub_self_us", "us", "lower"),
    layer("core.daemon_us", "us", "lower"),
    layer("core.daemon_self_us", "us", "lower"),
    layer("rpc.codec_us", "us", "lower"),
    layer("rpc.call_noop_us", "us", "lower"),
    layer("rpc.cmds_per_frame", "count", "lower"),
    layer("rpc.exec_inflight_high_water", "count", "higher"),
    layer("rpc.exec_deferred_share", "ratio", "lower"),
    layer("rpc.exec_barriers", "count", "lower"),
    layer("rpc.dedup_evictions_per_kreq", "count", "lower"),
    layer("rpc.bytes_copied_per_req", "bytes", "lower"),
    layer("rpc.frame_retries", "count", "lower"),
    layer("transport.ring_rt_us", "us", "lower"),
    layer("transport.doorbells_per_req", "count", "lower"),
    layer("transport.parks_per_kreq", "count", "lower"),
    layer("transport.park_aborts", "count", "lower"),
    layer("shm.stage_us", "us", "lower"),
    layer("shm.peak_in_use_bytes", "bytes", "lower"),
    layer("sched.place_us", "us", "lower"),
    layer("sched.cpu_fallback_share", "ratio", "lower"),
    layer("ml.engine_us", "us", "lower"),
    layer("ml.engine_us_per_row", "us", "lower"),
    layer("ml.pool_run_share", "ratio", "higher"),
    layer("ml.store_hit_rate", "ratio", "higher"),
    layer("ml.store_acquire_hit_us", "us", "lower"),
    layer("ml.store_acquire_miss_us", "us", "lower"),
    layer("ml.store_evictions_per_kreq", "count", "lower"),
    layer("ml.pack_cache_miss_share", "ratio", "lower"),
    layer("gpu.ops_us", "us", "lower"),
    layer("gpu.virt_util_pct", "%", "lower"),
    layer("sim.virt_us_per_req", "us", "lower"),
    layer("lake.lat_p90_us", "us", "lower"),
    layer("lake.lat_p99_us", "us", "lower"),
    layer("lake.lat_p999_us", "us", "lower"),
    layer("lake.lat_tail_pct", "%", "higher"),
    layer("lake.lat_tail_us", "us", "lower"),
    layer("lake.lat_samples", "count", "higher"),
    layer("lake.slo_ok_share", "ratio", "higher"),
    layer("lake.gen_lag_p50_us", "us", "lower"),
    layer("lake.gen_lag_p99_us", "us", "lower"),
    layer("lake.last_first_window_ratio", "ratio", "higher"),
    layer("lake.trace_unattributed_share", "ratio", "lower"),
    layer("lake.trace_overhead_share", "ratio", "lower"),
    layer("lake.host_calib_ms", "ms", "lower"),
];

/// `(unit, better)` of a metric of either table.
pub fn describe(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find_map(|(n, unit, better)| (n == name).then_some((unit, better)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::SPECS;

    /// `BENCHMARK.json` at the repository root is written by hand to the
    /// driver's contract; this keeps it equal to the tables the binary uses.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let text = |v: &Json, k: &str| match v.get(k) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).expect(k).to_vec();

        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned(), m.bound))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect();
        assert_eq!(layers, want);

        let workloads: Vec<_> =
            list("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let want: Vec<_> = SPECS.iter().map(|s| (s.name.to_owned(), s.why.to_owned())).collect();
        assert_eq!(workloads, want);
        assert!(SPECS.iter().all(|s| s.why.len() <= 200));
    }
}
