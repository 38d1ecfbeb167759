//! `fig06b_zero_copy`: bytes memcpy'd per remoted call, inline frames vs
//! shm handle-passing, over the linked Netlink transport.
//!
//! Companion to Fig 6: the paper's crossover argument is that above ~4KB
//! the cost of a remoted call is dominated by payload copies, so lakeShm
//! passes a handle instead. Here both paths issue the same
//! `call_zero_copy` producer API against a real daemon thread; the inline
//! engine materializes and frames the payload (two payload-scale copies)
//! while the staged engine's producer writes straight into the shared
//! staging region and ships a 16-byte descriptor.
//!
//! Panics (failing the CI smoke run) unless the staged path moves at
//! least 5× fewer bytes per call for payloads at or above the Fig 6
//! threshold. Emits per-size series into `BENCH_PR4.json`.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use criterion::Criterion;
use lake_bench::{banner, fmt_us, percentiles, quick_criterion, upsert_bench_json};
use lake_rpc::{
    perf, serve, serve_executor, ApiHandler, ApiId, CallEngine, Decoder, Encoder, ExecutorStats,
    PerfCounters, Status, DEFAULT_INLINE_THRESHOLD,
};
use lake_shm::ShmRegion;
use lake_sim::SharedClock;
use lake_transport::{Link, Mechanism};

const API_SINK: ApiId = ApiId(0x60);
const SIZES: &[usize] = &[512, 1024, 2048, 4096, 8192, 16384, 65536];
const CALLS: usize = 24;
const STAGING_CAPACITY: usize = 1 << 20;

/// Daemon-side handler: consume the payload, answer with its length.
fn sink() -> Arc<dyn ApiHandler> {
    Arc::new(|_: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
        let mut e = Encoder::new();
        e.put_u64(payload.len() as u64);
        Ok(e.finish())
    })
}

/// A linked engine with its daemon thread. Drop closes the link (by
/// dropping the engine) and then joins the daemon.
struct Rig {
    engine: Option<CallEngine>,
    daemon: Option<JoinHandle<()>>,
}

impl Rig {
    fn inline() -> Self {
        let (kernel, user) = Link::pair(Mechanism::Netlink, SharedClock::new());
        let daemon = std::thread::spawn(move || serve(&user, sink().as_ref()));
        Rig { engine: Some(CallEngine::linked(kernel)), daemon: Some(daemon) }
    }

    fn staged() -> Self {
        let region = ShmRegion::with_capacity(STAGING_CAPACITY);
        let daemon_region = region.clone();
        let (kernel, user) = Link::pair(Mechanism::Netlink, SharedClock::new());
        let daemon = std::thread::spawn(move || {
            let (counters, stats) = (PerfCounters::new(), ExecutorStats::new());
            let epoch = AtomicU64::new(0);
            serve_executor(
                &user,
                sink().as_ref(),
                &epoch,
                Some(&daemon_region),
                &counters,
                1,
                &stats,
            );
        });
        let engine = CallEngine::linked(kernel).with_staging(region, DEFAULT_INLINE_THRESHOLD);
        Rig { engine: Some(engine), daemon: Some(daemon) }
    }

    fn engine(&self) -> &CallEngine {
        self.engine.as_ref().expect("rig is live")
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.engine.take();
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
    }
}

struct Measurement {
    bytes_per_call: f64,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Issues `CALLS` producer-style calls of `size` bytes and differences the
/// global copy counters around them.
fn measure(engine: &CallEngine, size: usize) -> Measurement {
    let fill = |dst: &mut [u8]| {
        for (i, b) in dst.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
    };
    let before = perf::snapshot();
    let mut samples = Vec::with_capacity(CALLS);
    let started = Instant::now();
    for _ in 0..CALLS {
        let t = Instant::now();
        let out = engine.call_zero_copy(API_SINK, size, fill).expect("sink call failed");
        samples.push(t.elapsed().as_secs_f64() * 1.0e6);
        let mut d = Decoder::new(&out);
        assert_eq!(d.get_u64().expect("length reply") as usize, size, "daemon saw a short payload");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let delta = perf::snapshot().since(&before);
    let (p50_us, p99_us) = percentiles(&samples);
    Measurement {
        bytes_per_call: delta.bytes_copied as f64 / CALLS as f64,
        ops_per_sec: CALLS as f64 / elapsed,
        p50_us,
        p99_us,
    }
}

fn print_fig06b() {
    banner("Fig 6b", "bytes copied per call: inline frames vs shm handle-passing");
    println!(
        "{:>8} {:>14} {:>14} {:>8} {:>11} {:>11} {:>10} {:>10}",
        "payload",
        "inline B/call",
        "staged B/call",
        "ratio",
        "inline p50",
        "staged p50",
        "inline/s",
        "staged/s"
    );

    let inline_rig = Rig::inline();
    let staged_rig = Rig::staged();
    let mut lines = Vec::new();
    for &size in SIZES {
        let inline = measure(inline_rig.engine(), size);
        let staged = measure(staged_rig.engine(), size);
        let ratio = inline.bytes_per_call / staged.bytes_per_call.max(1.0);
        println!(
            "{:>8} {:>14.0} {:>14.0} {:>7.1}x {:>11} {:>11} {:>10.0} {:>10.0}",
            size,
            inline.bytes_per_call,
            staged.bytes_per_call,
            ratio,
            fmt_us(inline.p50_us),
            fmt_us(staged.p50_us),
            inline.ops_per_sec,
            staged.ops_per_sec,
        );
        if size >= DEFAULT_INLINE_THRESHOLD {
            assert!(
                inline.bytes_per_call >= 5.0 * staged.bytes_per_call,
                "staged path below 5x copy reduction at {size}B: \
                 inline {:.0} B/call vs staged {:.0} B/call",
                inline.bytes_per_call,
                staged.bytes_per_call
            );
        }
        lines.push(format!(
            r#"{{"payload": {size}, "inline_bytes_per_call": {:.0}, "staged_bytes_per_call": {:.0}, "copy_ratio": {:.1}, "inline_ops_per_sec": {:.0}, "staged_ops_per_sec": {:.0}, "inline_p50_us": {:.1}, "inline_p99_us": {:.1}, "staged_p50_us": {:.1}, "staged_p99_us": {:.1}}}"#,
            inline.bytes_per_call,
            staged.bytes_per_call,
            inline.bytes_per_call / staged.bytes_per_call.max(1.0),
            inline.ops_per_sec,
            staged.ops_per_sec,
            inline.p50_us,
            inline.p99_us,
            staged.p50_us,
            staged.p99_us,
        ));
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR4.json");
    upsert_bench_json(&path, "fig06b_zero_copy", &format!("[{}]", lines.join(", ")));
    println!("-> recorded fig06b_zero_copy series in BENCH_PR4.json");
}

fn bench(c: &mut Criterion) {
    let inline_rig = Rig::inline();
    let staged_rig = Rig::staged();
    let fill = |dst: &mut [u8]| dst.fill(0xA5);

    let mut group = c.benchmark_group("fig06b_zero_copy");
    group.bench_function("inline_16k", |b| {
        b.iter(|| inline_rig.engine().call_zero_copy(API_SINK, 16384, fill).unwrap());
    });
    group.bench_function("staged_16k", |b| {
        b.iter(|| staged_rig.engine().call_zero_copy(API_SINK, 16384, fill).unwrap());
    });
    group.finish();
}

fn main() {
    print_fig06b();
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
