//! Integration: the §5.5 feature-registry case study — instrumenting I/O
//! issue and completion paths (Listings 4/5), then scoring batches with a
//! classifier that runs through LAKE under a batching policy.

use std::sync::Arc;

use lake::block::{IoKind, NvmeDevice, NvmeSpec, TraceSpec};
use lake::core::{BatchThresholdPolicy, Lake};
use lake::ml::{serialize, Activation, Mlp};
use lake::registry::{Arch, FeatureRegistryService, Schema};
use lake::sim::{CrashSchedule, Duration, Instant, SimRng};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SYS: &str = "bio_latency_prediction";
const DEV: &str = "nvme0";

#[test]
fn listing4_listing5_capture_and_batch_inference() {
    // "Each block device needs its own feature registry" — one registry
    // keyed by the device name, with pending I/Os and the last 4
    // latencies (the LinnOS features).
    let service = FeatureRegistryService::new();
    let schema = Schema::builder().feature("pend_ios", 8, 1).feature("io_latency", 8, 4).build();
    service.create_registry(DEV, SYS, schema, 128).expect("create_registry");

    // A model managed through the registry's model APIs: create, commit
    // to the file system, reload.
    let dir = std::env::temp_dir().join("lake-integration-registry");
    let path = dir.join("bio.lakeml");
    let mut rng = StdRng::seed_from_u64(3);
    let model = Mlp::new(&[5, 16, 2], Activation::Relu, &mut rng);
    service.create_model(DEV, SYS, &path, &serialize::encode_mlp(&model)).expect("create_model");

    // Classifier registered for the GPU arch: realized through LAKE's
    // high-level API, exactly the §4.4 design.
    let lake = Lake::builder().build();
    let ml = lake.ml();
    let model_id = ml
        .load_model(&service.model_blob(DEV, SYS).expect("model in memory"))
        .expect("daemon loads model");
    let schema_for_classifier = service.registry(DEV, SYS).expect("registry").schema().clone();
    let ml_for_classifier = ml.clone();
    service
        .register_classifier(
            DEV,
            SYS,
            Arch::Gpu,
            Arc::new(move |fvs| {
                let rows: Vec<f32> =
                    fvs.iter().flat_map(|fv| fv.to_f32_features(&schema_for_classifier)).collect();
                let cols = schema_for_classifier.flat_width();
                ml_for_classifier
                    .infer_mlp(model_id, fvs.len(), cols, &rows)
                    .expect("remoted inference")
                    .into_iter()
                    .map(|c| c as f32)
                    .collect()
            }),
        )
        .expect("register_classifier");
    // CPU fallback classifier: trivial threshold on pending I/Os.
    service
        .register_classifier(
            DEV,
            SYS,
            Arch::Cpu,
            Arc::new(|fvs| {
                fvs.iter()
                    .map(|fv| f32::from(u8::from(fv.get_i64("pend_ios").unwrap_or(0) > 4)))
                    .collect()
            }),
        )
        .expect("register cpu classifier");
    // Policy: GPU when the batch is big enough (§4.2).
    service
        .register_policy(DEV, SYS, Arc::new(|batch| if batch >= 8 { Arch::Gpu } else { Arch::Cpu }))
        .expect("register_policy");

    // Replay a short trace against a device, placing the Listing 4/5
    // calls on issue and completion.
    let mut rng = SimRng::seed(77);
    let trace = TraceSpec::azure().generate(Duration::from_millis(5), &mut rng);
    let mut device = NvmeDevice::new(NvmeSpec::samsung_980pro(), rng.fork());

    let mut batches_scored = 0;
    let mut last_batch_len = 0;
    service.begin_fv_capture(DEV, SYS, lake.sim_now()).ok();

    for event in &trace {
        // --- Listing 4: I/O issue path -------------------------------
        service.capture_feature_incr(DEV, SYS, "pend_ios", 1).expect("capture pend_ios");
        service.commit_fv_capture(DEV, SYS, event.at).expect("commit");

        let fvs = service.get_features(DEV, SYS, None).expect("get_features");
        if fvs.len() >= 16 {
            let (arch, scores) = service.score_features(DEV, SYS, &fvs).expect("score");
            assert_eq!(arch, Arch::Gpu, "batch of {} must hit the GPU", fvs.len());
            assert_eq!(scores.len(), fvs.len());
            batches_scored += 1;
            last_batch_len = fvs.len();
            service.truncate_features(DEV, SYS, None).expect("truncate");
        }
        service.begin_fv_capture(DEV, SYS, event.at).expect("begin next");

        // --- Listing 5: completion path ------------------------------
        let completion = device.submit(event.at, event.kind, event.size);
        let latency_us = completion.latency(event.at).as_micros() as i64;
        if event.kind == IoKind::Read {
            service
                .capture_feature(DEV, SYS, "io_latency", &latency_us.to_le_bytes())
                .expect("capture latency");
        }
        service.capture_feature_incr(DEV, SYS, "pend_ios", -1).expect("decrement pend_ios");
    }

    assert!(batches_scored >= 3, "scored {batches_scored} batches");
    assert!(last_batch_len >= 16);
    assert!(lake.call_stats().calls > 0, "classification must remote through LAKE");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_catalog_is_replayed_into_new_daemon_incarnations() {
    // Two kernel subsystems announce feature-registry schemas. The
    // supervisor shadows the service catalog so every new lakeD
    // incarnation hears the announcements again after a crash.
    let service = FeatureRegistryService::new();
    let io_schema = Schema::builder().feature("pend_ios", 8, 1).feature("io_latency", 8, 4).build();
    service.create_registry(DEV, SYS, io_schema, 128).expect("create io registry");
    let cpu_schema = Schema::builder().feature("run_delay", 8, 1).build();
    service.create_registry("cpu0", "sched_idle_prediction", cpu_schema, 64).expect("create cpu");

    let crash_at = Instant::EPOCH + Duration::from_micros(400);
    let lake = Lake::builder().crash_schedule(CrashSchedule::at(vec![crash_at])).build();
    for (name, subsystem) in service.catalog() {
        lake.supervisor().record_schema(&name, &subsystem);
    }

    // The failover call below must reach the daemon, so this handle
    // offloads even its one-row batch.
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let mut rng = StdRng::seed_from_u64(5);
    let model = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
    let id = ml.load_model(&serialize::encode_mlp(&model)).expect("load model");

    // Park the clock just short of the crash so the next request's
    // in-flight window spans it; inference is idempotent, so the call
    // fails over to the supervised replacement daemon.
    lake.clock().advance_to(Instant::from_nanos(400 * 1_000 - 100));
    ml.infer_mlp(id, 1, 4, &[0.5; 4]).expect("inference fails over across the crash");

    let sup = lake.supervisor().stats();
    assert_eq!(sup.restarts, 1, "one supervised restart");
    assert_eq!(
        sup.schemas_replayed,
        service.catalog().len() as u64,
        "the whole catalog is re-announced to the new incarnation"
    );
    assert_eq!(sup.models_replayed, 1);
}

/// Small extension trait so the test reads naturally.
trait SimNow {
    fn sim_now(&self) -> lake::sim::Instant;
}

impl SimNow for Lake {
    fn sim_now(&self) -> lake::sim::Instant {
        self.clock().now()
    }
}
