//! Integration: the §5.5 feature-registry case study — instrumenting I/O
//! issue and completion paths (Listings 4/5), then scoring batches with a
//! classifier bound to a `LakeMl` model, whose policy decides where each
//! batch runs.

use lake::block::{IoKind, NvmeDevice, NvmeSpec, TraceSpec};
use lake::core::{BatchThresholdPolicy, Lake, LakeMl, ModelId};
use lake::ml::{serialize, Activation, Mlp};
use lake::registry::{FeatureRegistryService, FeatureVector, Schema};
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

    // The classifier is the model loaded through LAKE's high-level API
    // (§4.4); the handle's policy offloads batches at or above Table 3's
    // 8-row crossover (§4.2), pinned because a linked link's default is
    // the daemon's pool floor.
    let lake = Lake::builder().build();
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 8 });
    let model_id = ml
        .load_model(&service.model_blob(DEV, SYS).expect("model in memory"))
        .expect("daemon loads model");
    service.register_classifier(DEV, SYS, &ml, model_id).expect("register_classifier");
    let schema = service.registry(DEV, SYS).expect("registry").schema().clone();

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
            let calls = lake.call_stats().calls;
            let scores = service.score_features(DEV, SYS, &fvs).expect("score");
            assert_eq!(lake.call_stats().calls, calls + 1, "one offloaded call per batch");
            assert_eq!(scores, direct_scores(&ml, model_id, &schema, &fvs));
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

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bound_classifier_fails_over_across_a_daemon_crash() {
    let service = FeatureRegistryService::new();
    let schema = Schema::builder().feature("pend_ios", 8, 1).feature("io_latency", 8, 4).build();
    service.create_registry(DEV, SYS, schema, 64).expect("create_registry");
    for i in 0..16i64 {
        let t = Instant::from_nanos(i as u64 * 100);
        service.begin_fv_capture(DEV, SYS, t).expect("begin");
        service.capture_feature_incr(DEV, SYS, "pend_ios", i % 6).expect("pend_ios");
        service.capture_feature(DEV, SYS, "io_latency", &(40 * i).to_le_bytes()).expect("lat");
        service.commit_fv_capture(DEV, SYS, t + Duration::from_nanos(50)).expect("commit");
    }
    let fvs = service.get_features(DEV, SYS, None).expect("get_features");
    assert_eq!(fvs.len(), 16);

    let crash_us = 2_000;
    let crash_at = Instant::EPOCH + Duration::from_micros(crash_us);
    let lake = Lake::builder().crash_schedule(CrashSchedule::at(vec![crash_at])).build();
    // The 16-row batch must cross to meet the crash: pin Table 3's
    // crossover, which a linked link's default would otherwise raise.
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 8 });
    let mut rng = StdRng::seed_from_u64(5);
    let model = Mlp::new(&[5, 8, 2], Activation::Relu, &mut rng);
    let id = ml.load_model(&serialize::encode_mlp(&model)).expect("load model");
    service.register_classifier(DEV, SYS, &ml, id).expect("register_classifier");

    let before = service.score_features(DEV, SYS, &fvs).expect("score before the crash");
    assert!(lake.clock().now() < crash_at, "the first batch must finish before the crash");

    // Park the clock just short of the crash so the next batch's
    // in-flight window spans it; inference is idempotent, so the 16-row
    // call fails over to the supervised replacement daemon, which the
    // shadow table has given the model back under its original id.
    lake.clock().advance_to(Instant::from_nanos(crash_us * 1_000 - 100));
    let after = service.score_features(DEV, SYS, &fvs).expect("score fails over");
    assert_eq!(after, before);

    let sup = lake.supervisor().stats();
    assert_eq!(sup.restarts, 1, "one supervised restart");
    assert_eq!(sup.models_replayed, 1);
    assert!(lake.call_stats().failed_over >= 1, "{:?}", lake.call_stats());
}

/// The oracle for `score_features`: the batch flattened with the schema
/// and classified by one direct `infer_mlp`.
fn direct_scores(ml: &LakeMl, id: ModelId, schema: &Schema, fvs: &[FeatureVector]) -> Vec<u32> {
    let rows: Vec<f32> = fvs.iter().flat_map(|fv| fv.to_f32_features(schema)).collect();
    ml.infer_mlp(id, fvs.len(), schema.flat_width(), &rows).expect("direct inference")
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
