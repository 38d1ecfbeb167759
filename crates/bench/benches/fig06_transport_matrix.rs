//! `fig06_transport_matrix`: mechanism × payload × wait-strategy sweep of
//! the remoted-call transports, plus the burst-coalescing payoff.
//!
//! PR 5 companion to Fig 6 / Table 2. Two transports carry the same
//! remoted calls through `CallEngine::linked` against a live daemon
//! thread:
//!
//! * **channel** — the production Netlink path: a queued in-process link
//!   charging Table 2 / Fig 6 Netlink costs to the virtual clock.
//! * **ring** — the shm SPSC ring ("mmap burns a core" made tunable),
//!   charging Mmap costs, driven under each [`WaitStrategy`].
//!
//! Following the repo's convention, the paper-style series come from the
//! calibrated virtual clock (`modeled_*` columns — what the mechanisms
//! cost on the machine the paper measured), while host wall-clock numbers
//! (`wall_*`, doorbell/spin/park accounting) report what this
//! implementation costs here and feed the criterion group. The Mmap cost
//! model is anchored on the *measured* raw ring round trips this bench
//! also emits (`mmap_measured_rt_us`), so the modeled gate only passes
//! when the real ring is fast — see
//! `mmap_cost_model_tracks_measured_ring` in `lake-transport`.
//!
//! Panics (failing the CI smoke run) unless
//!
//! * the ring's modeled throughput beats the channel's by ≥ 3× for
//!   payloads ≤ 512 B under the default Adaptive strategy, and
//! * a 16-command burst frame (a depth-16 `QueuePair`: 16 submits, one
//!   drain) delivers ≥ 2× the wall-clock calls/s of the same commands
//!   issued one frame each.
//!
//! Emits the matrix, the raw ring medians, and the burst payoff into
//! `BENCH_PR5.json`.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use criterion::Criterion;
use lake_bench::{banner, fmt_us, percentiles, quick_criterion, upsert_bench_json};
use lake_rpc::{serve, ApiHandler, ApiId, CallEngine, Decoder, Encoder, QueuePair, Status};
use lake_sim::SharedClock;
use lake_transport::{Link, Mechanism, RingEndpoint, RingLink, RingStats, WaitStrategy};

const API_SINK: ApiId = ApiId(0x70);
const PAYLOADS: &[usize] = &[64, 256, 512, 1024, 4096];
const CALLS: usize = 300;
const REPS: usize = 3;
const BURST_LEN: usize = 16;
const BURST_ROUNDS: usize = 40;

/// Daemon-side handler: consume the payload, answer with its length.
fn sink() -> std::sync::Arc<dyn ApiHandler> {
    std::sync::Arc::new(|_: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
        let mut e = Encoder::new();
        e.put_u64(payload.len() as u64);
        Ok(e.finish())
    })
}

/// A linked engine + daemon thread over either transport. Drop closes the
/// kernel side (engine + retained ring handle) and then joins the daemon.
struct Rig {
    label: String,
    engine: Option<Arc<CallEngine>>,
    /// Kernel-side ring handle kept for stats; `None` on the channel link.
    ring: Option<RingEndpoint>,
    daemon: Option<std::thread::JoinHandle<()>>,
}

impl Rig {
    fn channel() -> Self {
        let (kernel, user) = Link::pair(Mechanism::Netlink, SharedClock::new());
        let daemon = std::thread::spawn(move || serve(&user, sink().as_ref()));
        Rig {
            label: "channel".into(),
            engine: Some(Arc::new(CallEngine::linked(kernel))),
            ring: None,
            daemon: Some(daemon),
        }
    }

    fn ring(strategy: WaitStrategy) -> Self {
        let (kernel, user) = RingLink::pair(Mechanism::Mmap, SharedClock::new(), strategy);
        let daemon = std::thread::spawn(move || serve(&user, sink().as_ref()));
        Rig {
            label: format!("ring/{}", strategy.name()),
            engine: Some(Arc::new(CallEngine::linked(kernel.clone()))),
            ring: Some(kernel),
            daemon: Some(daemon),
        }
    }

    fn engine(&self) -> &Arc<CallEngine> {
        self.engine.as_ref().expect("rig is live")
    }

    /// A queue pair of depth `BURST_LEN` over this rig's engine: the
    /// `BURST_LEN`-th submit drains the SQ as one burst frame.
    fn burst_queue(&self) -> QueuePair {
        QueuePair::new(Arc::clone(self.engine()), BURST_LEN)
    }

    fn ring_stats(&self) -> Option<RingStats> {
        self.ring.as_ref().map(RingEndpoint::stats)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.engine.take();
        self.ring.take();
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Cell {
    modeled_us_per_call: f64,
    wall_ops_per_sec: f64,
    wall_p50_us: f64,
    wall_p99_us: f64,
    doorbells_per_call: f64,
    spins: u64,
    yields: u64,
    parks: u64,
}

/// Issues `CALLS` sink calls of `size` bytes; best-of-`REPS` by wall
/// throughput so a stray scheduler hiccup does not decide the matrix. The
/// modeled column is the virtual-clock delta per call — deterministic.
fn measure(rig: &Rig, size: usize) -> Cell {
    let payload = Bytes::from(vec![0xB7u8; size]);
    let mut best = Cell::default();
    for _ in 0..REPS {
        let stats_before = rig.ring_stats();
        let virtual_start = rig.engine().clock().now();
        let mut samples = Vec::with_capacity(CALLS);
        let started = Instant::now();
        for _ in 0..CALLS {
            let t = Instant::now();
            let out = rig.engine().call(API_SINK, payload.clone()).expect("sink call failed");
            samples.push(t.elapsed().as_secs_f64() * 1.0e6);
            let mut d = Decoder::new(&out);
            assert_eq!(d.get_u64().expect("length reply") as usize, size, "short payload");
        }
        let elapsed = started.elapsed().as_secs_f64();
        let wall_ops_per_sec = CALLS as f64 / elapsed;
        let modeled_us_per_call =
            (rig.engine().clock().now() - virtual_start).as_micros_f64() / CALLS as f64;
        if wall_ops_per_sec <= best.wall_ops_per_sec {
            continue;
        }
        let (wall_p50_us, wall_p99_us) = percentiles(&samples);
        let mut cell = Cell {
            modeled_us_per_call,
            wall_ops_per_sec,
            wall_p50_us,
            wall_p99_us,
            ..Cell::default()
        };
        if let (Some(b), Some(a)) = (stats_before, rig.ring_stats()) {
            // Both directions ring doorbells, so a fully parked round trip
            // costs two; spin/yield-phase deliveries show up as fewer.
            cell.doorbells_per_call = (a.doorbells - b.doorbells) as f64 / CALLS as f64;
            cell.spins = a.spins - b.spins;
            cell.yields = a.yields - b.yields;
            cell.parks = a.parks - b.parks;
        }
        best = cell;
    }
    best
}

/// Raw transport round trips (no RPC framing): the medians that anchor
/// the Mmap cost model. Echo peer thread, Adaptive strategy.
fn measure_raw_ring(size: usize) -> f64 {
    let (kernel, user) =
        RingLink::pair(Mechanism::Mmap, SharedClock::new(), WaitStrategy::Adaptive);
    let daemon = std::thread::spawn(move || {
        while let Ok(frame) = user.recv() {
            if user.send(frame).is_err() {
                break;
            }
        }
    });
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        for _ in 0..50 {
            kernel.send(vec![7u8; size]).expect("warmup send");
            kernel.recv().expect("warmup recv");
        }
        let mut samples = Vec::with_capacity(CALLS);
        for _ in 0..CALLS {
            let t = Instant::now();
            kernel.send(vec![7u8; size]).expect("probe send");
            kernel.recv().expect("probe recv");
            samples.push(t.elapsed().as_secs_f64() * 1.0e6);
        }
        let (p50, _) = percentiles(&samples);
        best = best.min(p50);
    }
    drop(kernel);
    daemon.join().expect("echo peer exits");
    best
}

/// Submits `BURST_LEN` sink commands to `qp` (the last one drains them as
/// one burst frame) and harvests every completion.
fn burst_round(qp: &QueuePair, payload: &Bytes) {
    for _ in 0..BURST_LEN {
        qp.submit(API_SINK, payload.clone());
    }
    for c in qp.drain() {
        c.result.expect("burst entry");
    }
}

/// Wall calls/s for `BURST_LEN` commands issued one frame each vs one
/// burst frame, on the same rig. Returns `(single_cps, burst_cps)`.
fn measure_burst(rig: &Rig) -> (f64, f64) {
    let payload = Bytes::from_static(&[0x5A; 48]);
    let qp = rig.burst_queue();
    let mut best_single = 0.0f64;
    let mut best_burst = 0.0f64;
    for _ in 0..REPS {
        let started = Instant::now();
        for _ in 0..BURST_ROUNDS {
            for _ in 0..BURST_LEN {
                rig.engine().call(API_SINK, payload.clone()).expect("single call");
            }
        }
        let single = (BURST_ROUNDS * BURST_LEN) as f64 / started.elapsed().as_secs_f64();
        best_single = best_single.max(single);

        let started = Instant::now();
        for _ in 0..BURST_ROUNDS {
            burst_round(&qp, &payload);
        }
        let burst = (BURST_ROUNDS * BURST_LEN) as f64 / started.elapsed().as_secs_f64();
        best_burst = best_burst.max(burst);
    }
    (best_single, best_burst)
}

fn print_matrix() {
    banner("Fig 6c", "transport matrix: mechanism x payload x wait strategy");
    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>10} {:>10} {:>10} {:>20}",
        "payload",
        "transport",
        "model us",
        "model ops/s",
        "wall p50",
        "wall p99",
        "bell/call",
        "spin/yield/park"
    );

    // Cells run one rig at a time: an idle ring daemon still wakes to
    // poll, and on small hosts that would poison every other cell.
    let mut rows = Vec::new();
    let mut gate_failures = Vec::new();
    for &size in PAYLOADS {
        let mut cells: Vec<(String, Cell)> = Vec::new();
        {
            let rig = Rig::channel();
            cells.push((rig.label.clone(), measure(&rig, size)));
        }
        for strategy in WaitStrategy::ALL {
            let rig = Rig::ring(strategy);
            cells.push((rig.label.clone(), measure(&rig, size)));
        }

        let channel_us = cells[0].1.modeled_us_per_call;
        for (label, c) in &cells {
            let modeled_ops = 1.0e6 / c.modeled_us_per_call;
            let speedup = channel_us / c.modeled_us_per_call;
            println!(
                "{:>8} {:>14} {:>12.2} {:>12.0} {:>10} {:>10} {:>10.2} {:>20}",
                size,
                label,
                c.modeled_us_per_call,
                modeled_ops,
                fmt_us(c.wall_p50_us),
                fmt_us(c.wall_p99_us),
                c.doorbells_per_call,
                format!("{}/{}/{}", c.spins, c.yields, c.parks),
            );
            rows.push(format!(
                r#"{{"payload": {size}, "transport": "{label}", "modeled_us_per_call": {:.2}, "modeled_ops_per_sec": {modeled_ops:.0}, "modeled_speedup_vs_channel": {speedup:.2}, "wall_ops_per_sec": {:.0}, "wall_p50_us": {:.2}, "wall_p99_us": {:.2}, "doorbells_per_call": {:.2}, "spins": {}, "yields": {}, "parks": {}}}"#,
                c.modeled_us_per_call,
                c.wall_ops_per_sec,
                c.wall_p50_us,
                c.wall_p99_us,
                c.doorbells_per_call,
                c.spins,
                c.yields,
                c.parks,
            ));
            if label.ends_with(WaitStrategy::Adaptive.name()) && size <= 512 && speedup < 3.0 {
                gate_failures.push(format!(
                    "ring/adaptive modeled speedup {speedup:.2}x < 3x at {size}B \
                     ({:.2}us vs channel {channel_us:.2}us per call)",
                    c.modeled_us_per_call
                ));
            }
        }
    }

    banner("Fig 6c", "raw ring round trips (Adaptive) -> Mmap cost-model anchors");
    let mut anchors = Vec::new();
    for &size in PAYLOADS {
        let p50 = measure_raw_ring(size);
        println!("{size:>8} B  {:>10}", fmt_us(p50));
        anchors.push(format!(r#"{{"bytes": {size}, "p50_us": {p50:.2}}}"#));
    }

    let burst_rig = Rig::ring(WaitStrategy::Adaptive);
    let (single_cps, burst_cps) = measure_burst(&burst_rig);
    drop(burst_rig);
    let burst_ratio = burst_cps / single_cps;
    println!(
        "burst coalescing (ring/adaptive, {BURST_LEN}-command frames): \
         {single_cps:.0} -> {burst_cps:.0} calls/s ({burst_ratio:.1}x)"
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR5.json");
    upsert_bench_json(&path, "fig06_transport_matrix", &format!("[{}]", rows.join(", ")));
    upsert_bench_json(&path, "mmap_measured_rt_us", &format!("[{}]", anchors.join(", ")));
    upsert_bench_json(
        &path,
        "burst_coalescing",
        &format!(
            r#"{{"entries": {BURST_LEN}, "single_calls_per_sec": {single_cps:.0}, "burst_calls_per_sec": {burst_cps:.0}, "ratio": {burst_ratio:.2}}}"#
        ),
    );
    println!("-> recorded fig06_transport_matrix series in BENCH_PR5.json");

    // Gates last, so a failure still leaves the full artifact on disk.
    assert!(
        gate_failures.is_empty(),
        "transport matrix below target:\n  {}",
        gate_failures.join("\n  ")
    );
    assert!(
        burst_ratio >= 2.0,
        "burst frames below 2x single-frame throughput: \
         {single_cps:.0} vs {burst_cps:.0} calls/s"
    );
}

fn bench(c: &mut Criterion) {
    let channel = Rig::channel();
    let ring = Rig::ring(WaitStrategy::Adaptive);
    let payload = Bytes::from_static(&[0xB7; 256]);

    let mut group = c.benchmark_group("fig06_transport_matrix");
    group.bench_function("channel_256", |b| {
        b.iter(|| channel.engine().call(API_SINK, payload.clone()).unwrap());
    });
    group.bench_function("ring_adaptive_256", |b| {
        b.iter(|| ring.engine().call(API_SINK, payload.clone()).unwrap());
    });
    group.bench_function("ring_burst_16x48", |b| {
        let entry = Bytes::from_static(&[0x5A; 48]);
        let qp = ring.burst_queue();
        b.iter(|| burst_round(&qp, &entry));
    });
    group.finish();
}

fn main() {
    print_matrix();
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
