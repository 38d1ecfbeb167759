//! Per-layer metrics: counter snapshots read through the stack's own stats
//! structs around the measured phases, and the traced replay's spans.

use std::collections::BTreeMap;

use crate::drive::Phase;
use crate::stats::{highest_supported, percentile};
use crate::target::Deployment;
use crate::trace::Replay;

/// Raw counters by name. Summed over shards unless noted.
pub type Counters = BTreeMap<&'static str, f64>;

/// Reads every counter the per-layer metrics need, through `FleetStats`,
/// `ExecutorSnapshot`, `RingStats`, `PerfSnapshot`, `CallStats`, `AllocStats`,
/// `SchedMetrics`, `EngineStats` and `StoreStats`.
pub fn snapshot(dep: &Deployment) -> Counters {
    let mut c = Counters::new();
    let mut add = |k: &'static str, v: f64| *c.entry(k).or_insert(0.0) += v;
    let (mut inflight_high_water, mut shm_peak) = (0.0f64, 0.0f64);
    if let Some(fleet) = dep.fleet() {
        let s = fleet.stats();
        add("qos.throttled", s.qos.throttled as f64);
        add("fleet.failover_retries", s.failover_retries as f64);
    }
    let shards = dep.shards();
    for lake in shards {
        let perf = lake.perf_report();
        let (exec, gemm, store) = (perf.executor, perf.gemm, perf.store);
        add("exec.executed", exec.executed as f64);
        add("exec.deferred", exec.deferred as f64);
        add("exec.barriers", exec.barriers as f64);
        add("exec.dedup_evictions", exec.dedup_evictions as f64);
        add("rpc.bytes_copied", perf.rpc.bytes_copied as f64);
        let calls = lake.call_stats();
        add("rpc.frames", calls.calls as f64);
        add("rpc.retries", calls.retries as f64);
        let ring = lake.ring_stats().unwrap_or_default();
        add("ring.doorbells", ring.doorbells as f64);
        add("ring.parks", ring.parks as f64);
        add("ring.park_aborts", ring.park_aborts as f64);
        let sched = lake.sched_metrics();
        add("sched.fallback_rows", sched.cpu_fallback_rows as f64);
        add("sched.device_rows", sched.devices.iter().map(|d| d.dispatched_rows as f64).sum());
        add("gemm.pool_runs", gemm.pool_runs as f64);
        add("gemm.direct_runs", gemm.direct_runs as f64);
        add("gemm.cache_hits", gemm.cache_hits as f64);
        add("gemm.cache_misses", gemm.cache_misses as f64);
        add("store.hits", store.hits as f64);
        add("store.misses", store.misses as f64);
        add("store.evictions", store.evictions as f64);
        // Gauges: the largest (high-water marks) or the mean (utilisation)
        // over shards, never differenced.
        let util: f64 = sched.devices.iter().map(|d| d.utilization_percent).sum::<f64>()
            / sched.devices.len().max(1) as f64;
        add("gauge.gpu_util_pct", util / shards.len() as f64);
        inflight_high_water = inflight_high_water.max(exec.inflight_high_water as f64);
        shm_peak = shm_peak.max(lake.shm().stats().peak as f64);
    }
    c.insert("gauge.exec_inflight_high_water", inflight_high_water);
    c.insert("gauge.shm_peak", shm_peak);
    // Every shard of a fleet shares one virtual clock.
    c.insert("clock.virt_ns", shards[0].clock().now().as_nanos() as f64);
    c
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in the order of [`crate::metrics::PER_LAYER`].
///
/// `closed` is the saturating (or synchronous) phase, `paced` the open-loop
/// phase where the workload has one; tail latencies come from `paced` when
/// it exists, else from `closed`.
pub fn per_layer(
    before: &Counters,
    after: &Counters,
    closed: &Phase,
    paced: Option<&Phase>,
    slo_us: f64,
    replay: &Replay,
    host_calib_ms: f64,
) -> Vec<(&'static str, f64)> {
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let gauge = |k: &str| after.get(k).copied().unwrap_or(0.0);
    let lat_phase = paced.unwrap_or(closed);
    let requests = (closed.lat_us.len() + paced.map_or(0, |p| p.lat_us.len())) as f64;
    let kreq = requests / 1000.0;

    let mut lat = lat_phase.lat_us.clone();
    lat.sort_by(f64::total_cmp);
    let tail = highest_supported(&lat);
    let within_slo = lat.partition_point(|&l| l <= slo_us) as f64;
    let mut lag = paced.map(|p| p.gen_lag_us.clone()).unwrap_or_default();
    lag.sort_by(f64::total_cmp);

    let tr = &replay.tracer;
    let span = |name: &str| tr.median_us(name);
    let (fleet, stub, daemon, engine) =
        (span("fleet.infer"), span("core.stub"), span("core.daemon"), span("ml.engine"));
    let whole = if fleet > 0.0 { fleet } else { stub };
    // Store acquires: the replay's own hit/miss mix weights the two medians.
    let acquire = span("ml.store_acquire");
    let explained = span("fleet.admit")
        + span("fleet.route")
        + span("shm.stage")
        + span("rpc.call_noop")
        + acquire
        + span("gpu.ops")
        + span("sched.place")
        + engine;
    vec![
        ("fleet.infer_us", fleet),
        ("fleet.self_us", if fleet > 0.0 { fleet - stub } else { 0.0 }),
        ("fleet.admit_us", span("fleet.admit")),
        ("fleet.route_us", span("fleet.route")),
        ("fleet.qos_throttled_per_kreq", ratio(delta("qos.throttled"), kreq)),
        ("fleet.failover_retries", delta("fleet.failover_retries")),
        ("core.stub_us", stub),
        ("core.stub_self_us", stub - daemon),
        ("core.daemon_us", daemon),
        ("core.daemon_self_us", daemon - engine - span("gpu.ops") - acquire),
        ("rpc.codec_us", span("rpc.codec")),
        ("rpc.call_noop_us", span("rpc.call_noop")),
        ("rpc.cmds_per_frame", ratio(requests, delta("rpc.frames"))),
        ("rpc.exec_inflight_high_water", gauge("gauge.exec_inflight_high_water")),
        ("rpc.exec_deferred_share", ratio(delta("exec.deferred"), delta("exec.executed"))),
        ("rpc.exec_barriers", delta("exec.barriers")),
        ("rpc.dedup_evictions_per_kreq", ratio(delta("exec.dedup_evictions"), kreq)),
        ("rpc.bytes_copied_per_req", ratio(delta("rpc.bytes_copied"), requests)),
        ("rpc.frame_retries", delta("rpc.retries")),
        ("transport.ring_rt_us", span("transport.ring_rt")),
        ("transport.doorbells_per_req", ratio(delta("ring.doorbells"), requests)),
        ("transport.parks_per_kreq", ratio(delta("ring.parks"), kreq)),
        ("transport.park_aborts", delta("ring.park_aborts")),
        ("shm.stage_us", span("shm.stage")),
        ("shm.peak_in_use_bytes", gauge("gauge.shm_peak")),
        ("sched.place_us", span("sched.place")),
        (
            "sched.cpu_fallback_share",
            ratio(
                delta("sched.fallback_rows"),
                delta("sched.fallback_rows") + delta("sched.device_rows"),
            ),
        ),
        ("ml.engine_us", engine),
        ("ml.engine_us_per_row", ratio(tr.total_us("ml.engine"), replay.rows)),
        (
            "ml.pool_run_share",
            ratio(delta("gemm.pool_runs"), delta("gemm.pool_runs") + delta("gemm.direct_runs")),
        ),
        (
            "ml.store_hit_rate",
            ratio(delta("store.hits"), delta("store.hits") + delta("store.misses")),
        ),
        ("ml.store_acquire_hit_us", replay.acquire_hit_us),
        ("ml.store_acquire_miss_us", replay.acquire_miss_us),
        ("ml.store_evictions_per_kreq", ratio(delta("store.evictions"), kreq)),
        (
            "ml.pack_cache_miss_share",
            ratio(
                delta("gemm.cache_misses"),
                delta("gemm.cache_hits") + delta("gemm.cache_misses"),
            ),
        ),
        ("gpu.ops_us", span("gpu.ops")),
        ("gpu.virt_util_pct", gauge("gauge.gpu_util_pct")),
        ("sim.virt_us_per_req", ratio(delta("clock.virt_ns") / 1e3, requests)),
        ("lake.lat_p90_us", percentile(&lat, 90.0)),
        ("lake.lat_p99_us", percentile(&lat, 99.0)),
        ("lake.lat_p999_us", percentile(&lat, 99.9)),
        ("lake.lat_tail_pct", tail.pct),
        ("lake.lat_tail_us", tail.value),
        ("lake.lat_samples", tail.samples as f64),
        ("lake.slo_ok_share", ratio(within_slo, lat.len() as f64 + lat_phase.failed as f64)),
        ("lake.gen_lag_p50_us", percentile(&lag, 50.0)),
        ("lake.gen_lag_p99_us", percentile(&lag, 99.0)),
        ("lake.last_first_window_ratio", closed.last_first_ratio()),
        ("lake.trace_unattributed_share", ratio(whole - explained, whole)),
        ("lake.trace_overhead_share", replay.overhead_share),
        ("lake.host_calib_ms", host_calib_ms),
    ]
}
