//! Tenant isolation under the fleet's weighted-fair-queueing governor: a
//! flooding tenant throttled by the governor at most doubles a
//! well-behaved tenant's p99 op latency, while the same flood unthrottled
//! inflates it far more.
//!
//! Every number is virtual time on the shared clock, so the run is
//! deterministic.
//!
//! The 2× bound holds because each admitted flood row is charged twice:
//! once by the flooder's own `try_admit` gate and again by `submit_mlp`'s
//! blocking admit. A weight-1 flooder whose bucket refills two rows per
//! op therefore gets one row in per op (24 in all). Charged once, the
//! flooder gets both rows in (48), and the victim's p99 rose to 2.98×
//! alone (5720.6 µs against 1917.2 µs) in a prototype. Charging each row
//! once is a change of behaviour with its own bounds to set, not a
//! deletion.

use lake_core::{BatchThresholdPolicy, Lake, PoolPolicy};
use lake_fleet::{DaemonFleet, FleetPolicy, QosPolicy};
use lake_ml::{serialize, Activation, Mlp};
use lake_sim::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 256;
const HIDDEN: usize = 3584;
/// Rows in one victim op (one `submit_mlp` call).
const VICTIM_ROWS: usize = 16;
/// Victim ops per leg.
const VICTIM_OPS: usize = 24;
/// One-row submits the flooder attempts per victim op.
const FLOOD_ROWS: usize = 64;
const VICTIM: u32 = 1;
const FLOODER: u32 = 2;

fn model_blob() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(16);
    serialize::encode_mlp(&Mlp::new(&[COLS, HIDDEN, 2], Activation::Relu, &mut rng))
}

fn feature_row(i: usize) -> Vec<f32> {
    (0..COLS).map(|j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5).collect()
}

/// The victim's weight-4 bucket holds half of one 16-row op (an op larger
/// than the bucket admits once the bucket is full); the flooder's weight-1
/// bucket holds two rows and refills at a quarter of the victim's rate.
fn qos() -> QosPolicy {
    QosPolicy {
        quantum_bytes: 512,
        refill_interval: Duration::from_micros(20),
        burst_quanta: 4,
        queue_deadline: Duration::from_millis(20),
    }
}

/// Runs the victim's ops on a 1-shard fleet and returns `(victim p99 µs,
/// flood rows admitted)`. Before each victim op the flooder offers
/// `FLOOD_ROWS` one-row submits, each shed unless the governor's
/// non-blocking check admits it; `flooder_weight` sets how hard the
/// governor holds it back (1 = throttled, 64 = effectively unthrottled).
/// `submit_mlp` admits through the governor as well, so each flood row
/// that gets in is charged twice.
fn victim_p99_us(flood: bool, flooder_weight: u64) -> (f64, usize) {
    // Device-path placement (the subject is the governor, not Fig 13's
    // CPU fallback), and a submission queue deep enough to hold a whole
    // op, so the flood and the victim's op meet in one drain.
    let template = Lake::builder()
        .shards(1)
        .pool_policy(PoolPolicy { exec_threshold: 100.0, ..Default::default() })
        .queue_depth(FLOOD_ROWS + 1);
    let fleet = DaemonFleet::deploy_with(
        template,
        FleetPolicy { qos: qos(), ..Default::default() },
        |_, b| b,
    );
    fleet.governor().set_weight(VICTIM, 4);
    fleet.governor().set_weight(FLOODER, flooder_weight);
    // Offload every row: one-row calls would otherwise be answered
    // kernel-side and never queue behind each other at the daemon.
    let ml = fleet.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let victim_model = ml.load_model(&model_blob()).expect("victim model");
    let flooder_model = ml.load_model(&model_blob()).expect("flooder model");
    fleet.clock().advance(Duration::from_millis(6));

    let row_bytes = COLS * std::mem::size_of::<f32>();
    let mut latencies = Vec::with_capacity(VICTIM_OPS);
    let mut flooded = 0;
    for op in 0..VICTIM_OPS {
        let t0 = fleet.clock().now();
        if flood {
            for r in 0..FLOOD_ROWS {
                if fleet.governor().try_admit(FLOODER, row_bytes) {
                    let row = feature_row(op * FLOOD_ROWS + r);
                    ml.submit_mlp(FLOODER, flooder_model, 1, COLS, &row).expect("flood submit");
                    flooded += 1;
                }
            }
        }
        let rows: Vec<f32> =
            (0..VICTIM_ROWS).flat_map(|r| feature_row(op * VICTIM_ROWS + r)).collect();
        let op_id =
            ml.submit_mlp(VICTIM, victim_model, VICTIM_ROWS, COLS, &rows).expect("victim submit");
        let done = ml.drain_completions();
        latencies.push((fleet.clock().now() - t0).as_micros_f64());
        let (_, victim) = done.iter().find(|(id, _)| *id == op_id).expect("victim op completed");
        assert_eq!(victim.as_ref().expect("victim answered").len(), VICTIM_ROWS);
        assert!(done.iter().all(|(_, r)| r.is_ok()), "every admitted row is answered");
    }
    latencies.sort_by(f64::total_cmp);
    let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
    (p99, flooded)
}

#[test]
fn throttled_flood_at_most_doubles_the_victims_p99() {
    let (alone, _) = victim_p99_us(false, 1);
    let (throttled, throttled_rows) = victim_p99_us(true, 1);
    let (unthrottled, unthrottled_rows) = victim_p99_us(true, 64);
    eprintln!(
        "victim p99: alone {alone:.1} µs; throttled {throttled:.1} µs ({throttled_rows} flood \
         rows); unthrottled {unthrottled:.1} µs ({unthrottled_rows} flood rows)"
    );
    assert!(
        throttled <= 2.0 * alone,
        "the governor must hold the victim's p99 within 2x of alone: {throttled:.1} vs {alone:.1}"
    );
    assert!(
        throttled_rows <= VICTIM_OPS,
        "a weight-1 flooder gets at most one row in per victim op: {throttled_rows}"
    );
    assert!(
        unthrottled >= 4.0 * throttled,
        "the unthrottled flood must hurt far more: {unthrottled:.1} vs {throttled:.1}"
    );
}
