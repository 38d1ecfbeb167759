//! Ablation/microbenchmark: the feature registry's §5.1 performance goal
//! ("minimize the performance impact of ML-related functionality") —
//! real wall-clock costs of the capture, commit, batch, and scoring
//! paths, plus lakeShm allocator throughput.

use std::sync::Arc;

use criterion::Criterion;
use lake_bench::{banner, quick_criterion};
use lake_core::policy::AlwaysCpu;
use lake_core::Lake;
use lake_ml::{serialize, Activation, Mlp};
use lake_registry::{FeatureRegistryService, Schema};
use lake_shm::ShmRegion;
use lake_sim::Instant;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A registry whose classifier is a `[6, 16, 2]` MLP on a handle that
/// keeps every batch in the caller's thread.
fn service(lake: &Lake) -> FeatureRegistryService {
    let s = FeatureRegistryService::new();
    let schema = Schema::builder()
        .feature("pend_ios", 8, 1)
        .feature("io_latency", 8, 4)
        .feature("queue_depth", 8, 1)
        .build();
    s.create_registry("nvme0", "bio", schema, 256).expect("create");
    let ml = lake.ml().with_policy(AlwaysCpu);
    let mlp = Mlp::new(&[6, 16, 2], Activation::Relu, &mut StdRng::seed_from_u64(1));
    let model = ml.load_model(&serialize::encode_mlp(&mlp)).expect("load model");
    s.register_classifier("nvme0", "bio", &ml, model).expect("classifier");
    s
}

fn bench(c: &mut Criterion) {
    banner("Ablation C", "feature-registry hot-path costs (real wall clock)");

    let lake = Lake::builder().build();
    let s = service(&lake);
    s.begin_fv_capture("nvme0", "bio", Instant::EPOCH).expect("begin");
    c.bench_function("registry_capture_feature", |b| {
        b.iter(|| s.capture_feature("nvme0", "bio", "io_latency", &1234i64.to_le_bytes()))
    });
    c.bench_function("registry_capture_incr", |b| {
        b.iter(|| s.capture_feature_incr("nvme0", "bio", "pend_ios", 1))
    });

    // Direct handle skips the name lookup — the in-module fast path.
    let reg = s.registry("nvme0", "bio").expect("registry");
    c.bench_function("registry_capture_incr_direct", |b| {
        b.iter(|| reg.capture_incr("pend_ios", 1))
    });

    let mut t = 1u64;
    c.bench_function("registry_commit_and_begin", |b| {
        b.iter(|| {
            t += 10;
            reg.commit(Instant::from_nanos(t));
            reg.begin_capture(Instant::from_nanos(t + 1));
        })
    });

    // Fill the ring, then measure batch retrieval + scoring.
    for i in 0..256u64 {
        reg.begin_capture(Instant::from_nanos(i * 100));
        reg.capture_incr("pend_ios", 1);
        reg.commit(Instant::from_nanos(i * 100 + 50));
    }
    c.bench_function("registry_get_features_256", |b| {
        b.iter(|| s.get_features("nvme0", "bio", None).expect("get").len())
    });
    let fvs = s.get_features("nvme0", "bio", None).expect("get");
    c.bench_function("registry_score_256_cpu", |b| {
        b.iter(|| s.score_features("nvme0", "bio", &fvs).expect("score").len())
    });

    // lakeShm allocator churn.
    let shm = ShmRegion::with_capacity(8 << 20);
    c.bench_function("shm_alloc_write_free_4k", |b| {
        let payload = [0xAAu8; 4096];
        b.iter(|| {
            let buf = shm.alloc(4096).expect("alloc");
            shm.write(&buf, 0, &payload).expect("write");
            shm.free(buf).expect("free");
        })
    });

    // Concurrent lock-free capture from 4 threads (the §5.3 claim).
    let reg4 = s.registry("nvme0", "bio").expect("registry");
    c.bench_function("registry_capture_incr_4threads_x1000", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let reg = Arc::clone(&reg4);
                    scope.spawn(move || {
                        for _ in 0..1000 {
                            reg.capture_incr("pend_ios", 1);
                        }
                    });
                }
            })
        })
    });
}

fn main() {
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
