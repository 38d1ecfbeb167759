//! The traced run: the first requests of a workload replayed one at a time
//! at successively deeper public entry points, plus leaf probes of the
//! functions each level spends its self time in. All spans are recorded by
//! this file, around calls into the stack; nothing inside the stack is
//! instrumented.

use std::io::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lake::core::api::{ML_INFER_LSTM, ML_INFER_MLP};
use lake::core::{GpuDevice, GpuSpec, KernelArg, Lake, Mechanism, PoolPolicy, WaitStrategy};
use lake::fleet::{HashRing, QosPolicy, TenantGovernor, DEFAULT_VNODES};
use lake::ml::{serialize, InferenceEngine, ModelKind, ModelStore};
use lake::rpc::{
    serve_executor, ApiHandler, ApiId, CallEngine, Command, CommandClass, Decoder, Encoder,
    ExecutorStats, PerfCounters, Response, Status,
};
use lake::sched::DevicePool;
use lake::shm::ShmRegion;
use lake::sim::SharedClock;
use lake::transport::RingLink;

use crate::drive::warm_up;
use crate::stats::median;
use crate::target::{self, LakeTarget, Target};
use crate::workload::{Generator, Model, Net, Request, Spec};

pub struct Span {
    pub name: &'static str,
    pub req: u32,
    /// The level outside this one (`""` for the outermost level).
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out once at exit.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        req: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, req: req as u32, parent, start_ns, end_ns });
        r
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, µs; 0 when there are none.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&mut self.durations_us(name))
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"req\": {}, \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the replay measured besides the spans.
pub struct Replay {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    /// Rows over all replayed requests.
    pub rows: f64,
    /// (traced − untraced) ÷ untraced wall time of the outermost level.
    pub overhead_share: f64,
    /// Medians of `ml.store_acquire` split by outcome, µs.
    pub acquire_hit_us: f64,
    pub acquire_miss_us: f64,
}

/// Replays `reqs` at every level and through every leaf probe.
///
/// `top` is a freshly set-up fleet; a plain-`Lake` workload has no fleet
/// level and starts at `core.stub`. The one-shard twin behind `core.stub`
/// and `core.daemon` is deployed here and serves the same warm-up (reads
/// only, so the oracle's variant 0 stays installed).
pub fn replay(
    spec: &Spec,
    seed: u64,
    models: &[Model],
    reqs: &[Request],
    top: Option<&dyn Target>,
    budget: Option<usize>,
) -> Replay {
    let mut tr = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let blobs: Vec<&[u8]> = models.iter().map(|m| m.blobs[0].as_slice()).collect();
    let twin = target::production(spec, budget).build();
    let stub = LakeTarget::connect(&twin, &blobs).expect("twin loads every model");
    let warm = warm_up(spec, &stub, models, &mut Generator::new(spec, seed), None);
    attempted += warm.attempted;
    failed += warm.failed;
    let outer: (&dyn Target, &'static str) = match top {
        Some(t) => (t, "fleet.infer"),
        None => (&stub, "core.stub"),
    };

    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    let infer_ok = |t: &dyn Target, req: &Request| {
        let m = &models[req.model as usize];
        t.infer(req, m).is_ok_and(|c| m.answers(0, req, c.into_iter().map(u64::from)))
    };

    // Outermost level, untraced then traced: the difference is the tracer.
    let start = Instant::now();
    for req in reqs {
        check(infer_ok(outer.0, req));
    }
    let untraced = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        check(tr.time(outer.1, "", i, || infer_ok(outer.0, req)));
    }
    let overhead_share = (start.elapsed().as_secs_f64() - untraced) / untraced;

    if top.is_some() {
        for (i, req) in reqs.iter().enumerate() {
            check(tr.time("core.stub", "fleet.infer", i, || infer_ok(&stub, req)));
        }
    }
    for (i, req) in reqs.iter().enumerate() {
        check(daemon_level(&mut tr, &twin, &stub, models, i, req));
    }
    let width = target::executor_width(spec);
    let cores = target::host_cores();
    // Sized as `LakeDaemon::with_executor_budget` sizes its engine.
    let engine = InferenceEngine::with_host_cores(cores.min(4), (cores / width).max(1));
    for (i, req) in reqs.iter().enumerate() {
        let m = &models[req.model as usize];
        let (rows, x) = (req.rows as usize, m.features(req.input as usize, req.rows as usize));
        let classes = tr.time("ml.engine", "core.daemon", i, || match &m.nets[0] {
            Net::Mlp(net) => engine.classify_mlp(req.model as u64, 1, net, x, rows, m.cols),
            Net::Lstm(net) => {
                engine.classify_lstm(req.model as u64, 1, net, x, rows, m.cols, m.steps)
            }
        });
        check(m.answers(0, req, classes.into_iter().map(|c| c as u64)));
    }

    if top.is_some() {
        fleet_leaves(&mut tr, spec, models, reqs);
    }
    stage_leaf(&mut tr, models, reqs);
    codec_leaf(&mut tr, reqs);
    ring_leaf(&mut tr, reqs.len());
    call_noop_leaf(&mut tr, reqs, width);
    let (acquire_hit_us, acquire_miss_us) = store_leaf(&mut tr, models, reqs, budget);
    device_leaves(&mut tr, models, reqs);
    let rows = reqs.iter().map(|r| r.rows as f64).sum();
    Replay { tracer: tr, attempted, failed, rows, overhead_share, acquire_hit_us, acquire_miss_us }
}

/// `core.daemon`: `ApiHandler::handle` on the twin's daemon, on this thread,
/// with the features already staged in its `lakeShm`.
fn daemon_level(
    tr: &mut Tracer,
    twin: &Lake,
    stub: &LakeTarget,
    models: &[Model],
    i: usize,
    req: &Request,
) -> bool {
    let m = &models[req.model as usize];
    let x = m.features(req.input as usize, req.rows as usize);
    let Ok(buf) = twin.shm().alloc_owned(x.len() * 4, i as u64 + 1) else { return false };
    let staged = twin.shm().with_bytes_mut(&buf, |dst| write_f32_le(dst, x));
    let mut e = Encoder::new();
    e.put_u64(stub.ids[req.model as usize].0)
        .put_u64(req.rows as u64)
        .put_u64(m.cols as u64)
        .put_u64(m.steps as u64)
        .put_u64(buf.offset() as u64);
    let payload = e.finish();
    let api = if m.is_lstm() { ML_INFER_LSTM } else { ML_INFER_MLP };
    let resp = tr.time("core.daemon", "core.stub", i, || twin.daemon().handle(api, &payload));
    let freed = twin.shm().free(buf);
    let classes = resp.ok().and_then(|r| Decoder::new(&r).get_u64_slice().ok());
    staged.is_ok() && freed.is_ok() && classes.is_some_and(|c| m.answers(0, req, c.into_iter()))
}

fn write_f32_le(dst: &mut [u8], x: &[f32]) {
    for (chunk, v) in dst.chunks_exact_mut(4).zip(x) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// `fleet.admit` and `fleet.route`: what `FleetMl` does before it reaches a
/// shard's stub.
fn fleet_leaves(tr: &mut Tracer, spec: &Spec, models: &[Model], reqs: &[Request]) {
    let governor = TenantGovernor::new(SharedClock::new(), QosPolicy::default());
    let ring = HashRing::with_vnodes(spec.shards, DEFAULT_VNODES);
    for (i, req) in reqs.iter().enumerate() {
        let bytes = req.rows as usize * models[req.model as usize].cols * 4;
        // A throttled admit waits in virtual time and is still an answer.
        let _ = tr.time("fleet.admit", "fleet.infer", i, || governor.admit(req.tenant, bytes));
        std::hint::black_box(
            tr.time("fleet.route", "fleet.infer", i, || ring.route_pair(req.model as u64)),
        );
    }
}

/// `shm.stage`: the stub's per-request `alloc_owned` + encode-in-place +
/// `free` in `lakeShm`.
fn stage_leaf(tr: &mut Tracer, models: &[Model], reqs: &[Request]) {
    let shm = ShmRegion::with_capacity(128 << 20);
    for (i, req) in reqs.iter().enumerate() {
        let x = models[req.model as usize].features(req.input as usize, req.rows as usize);
        tr.time("shm.stage", "core.stub", i, || {
            let buf = shm.alloc_owned(x.len() * 4, i as u64 + 1).expect("empty region fits");
            shm.with_bytes_mut(&buf, |dst| write_f32_le(dst, x)).expect("live buffer");
            shm.free(buf).expect("live buffer");
        });
    }
}

/// `rpc.codec`: command and response encode + borrowed decode at the
/// request's wire sizes (five `u64` arguments out, one class per row back).
fn codec_leaf(tr: &mut Tracer, reqs: &[Request]) {
    let mut wire = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let cmd = Command { api: ML_INFER_MLP, seq: i as u64, payload: Bytes::from(vec![0u8; 40]) };
        let resp = Response {
            seq: i as u64,
            epoch: 0,
            status: Status::Ok,
            payload: Bytes::from(vec![0u8; 4 + 8 * req.rows as usize]),
        };
        tr.time("rpc.codec", "rpc.call_noop", i, || {
            wire.clear();
            cmd.encode_into(&mut wire);
            std::hint::black_box(Command::decode_borrowed(&wire).expect("own encoding").seq);
            wire.clear();
            resp.encode_into(&mut wire);
            std::hint::black_box(Response::decode_borrowed(&wire).expect("own encoding").seq);
        });
    }
}

/// `transport.ring_rt`: one small frame echoed over a `RingLink`.
fn ring_leaf(tr: &mut Tracer, n: usize) {
    let (kernel, user) =
        RingLink::pair(Mechanism::Mmap, SharedClock::new(), WaitStrategy::Adaptive);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(frame) = user.recv() {
                if user.send(frame).is_err() {
                    break;
                }
            }
        });
        for i in 0..n {
            tr.time("transport.ring_rt", "rpc.call_noop", i, || {
                kernel.send(vec![0u8; 64]).expect("echo thread is up");
                kernel.recv().expect("echo thread answers");
            });
        }
        // Hanging up ends the echo thread's `recv`, so the scope can join it.
        drop(kernel);
    });
}

/// A keyed API that does nothing: what is left of a call once the model
/// work is taken out.
struct Noop;

impl ApiHandler for Noop {
    fn handle(&self, _api: ApiId, _payload: &[u8]) -> Result<Bytes, Status> {
        Ok(Bytes::new())
    }

    fn classify(&self, _api: ApiId, payload: &[u8]) -> CommandClass {
        CommandClass::Keyed(Decoder::new(payload).get_u64().unwrap_or(0))
    }
}

/// `rpc.call_noop`: `CallEngine::call` over a ring to `serve_executor` at
/// the workload's executor width.
fn call_noop_leaf(tr: &mut Tracer, reqs: &[Request], width: usize) {
    let (kernel, user) =
        RingLink::pair(Mechanism::Mmap, SharedClock::new(), WaitStrategy::Adaptive);
    let engine = CallEngine::linked(kernel);
    let (epoch, perf, stats) = (AtomicU64::new(0), PerfCounters::new(), ExecutorStats::new());
    std::thread::scope(|s| {
        s.spawn(|| serve_executor(&user, &Noop, &epoch, None, &perf, width, &stats));
        for (i, req) in reqs.iter().enumerate() {
            let mut e = Encoder::new();
            e.put_u64(req.model as u64).put_u64(0).put_u64(0).put_u64(0).put_u64(0);
            let payload = e.finish();
            tr.time("rpc.call_noop", "core.stub", i, || {
                engine.call(ApiId(0x7001), payload).expect("no-op call");
            });
        }
        // Dropping the engine hangs up the ring; the serve loop then returns.
        drop(engine);
    });
}

fn decode_net(blob: &[u8]) -> Option<Net> {
    match ModelKind::detect(blob).ok()? {
        ModelKind::Mlp => serialize::decode_mlp(blob).ok().map(Net::Mlp),
        ModelKind::Lstm => serialize::decode_lstm(blob).ok().map(Net::Lstm),
        _ => None,
    }
}

/// `ml.store_acquire`: `ModelStore::acquire` + drop over the same budget and
/// id sequence. Returns the medians of hits and of misses.
fn store_leaf(
    tr: &mut Tracer,
    models: &[Model],
    reqs: &[Request],
    budget: Option<usize>,
) -> (f64, f64) {
    let pages = ShmRegion::with_capacity(budget.map_or(64 << 20, |b| (b * 2).max(1 << 20)));
    let store = ModelStore::new(SharedClock::new(), pages, budget, decode_net);
    for (id, m) in models.iter().enumerate() {
        store.install(id as u64, 1, &m.blobs[0]).expect("oracle blobs decode");
    }
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for (i, req) in reqs.iter().enumerate() {
        let before = store.stats().misses;
        tr.time("ml.store_acquire", "core.daemon", i, || drop(store.acquire(req.model as u64)));
        let span = tr.spans.last().expect("just recorded");
        let us = (span.end_ns - span.start_ns) as f64 / 1e3;
        if store.stats().misses > before { &mut misses } else { &mut hits }.push(us);
    }
    (median(&mut hits), median(&mut misses))
}

/// `gpu.ops` (the simulated device's bookkeeping around one launch, with a
/// kernel body that only writes the output) and `sched.place`.
fn device_leaves(tr: &mut Tracer, models: &[Model], reqs: &[Request]) {
    let clock = SharedClock::new();
    let gpu = GpuDevice::new(GpuSpec::a100(), clock.clone());
    gpu.register_kernel("noop", 1.0, |ctx, args| {
        let out = args[1].as_ptr().expect("output pointer");
        let rows = args[2].as_u64().expect("row count") as usize;
        ctx.write_f32(out, &vec![0.0; rows])
    });
    let pool = DevicePool::from_devices(vec![Arc::clone(&gpu)], clock, PoolPolicy::default());
    let mut bytes = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let rows = req.rows as usize;
        let x = models[req.model as usize].features(req.input as usize, rows);
        bytes.resize(x.len() * 4, 0);
        write_f32_le(&mut bytes, x);
        tr.time("gpu.ops", "core.daemon", i, || {
            let input = gpu.mem_alloc(bytes.len()).expect("device memory");
            gpu.memcpy_htod(input, &bytes).expect("upload");
            let output = gpu.mem_alloc(rows * 4).expect("device memory");
            let args = [KernelArg::Ptr(input), KernelArg::Ptr(output), KernelArg::U64(rows as u64)];
            gpu.launch_kernel("noop", rows as u64, &args).expect("launch");
            std::hint::black_box(gpu.memcpy_dtoh(output, rows * 4).expect("download"));
            gpu.mem_free(input).expect("free");
            gpu.mem_free(output).expect("free");
        });
        std::hint::black_box(tr.time("sched.place", "core.daemon", i, || pool.place(rows)));
    }
}
