//! Model-store scaling (PR 8): weight-residency behaviour of the paged
//! model store as the byte budget tightens against a fixed model set.
//!
//! A LAKE node hosting many kernel subsystems holds many models, but the
//! pinned-page pool backing their weights is a hard byte budget. This
//! bench sweeps that budget from unbounded down to a single page against
//! a round-robin working set and records, per leg:
//!
//! * **hit rate** — acquires served from resident pages;
//! * **resident-bytes ceiling** — the peak observed residency, which the
//!   gate asserts never crosses the budget;
//! * **cold-miss p50/p99** — per-fault simulated-NVMe reload latency in
//!   virtual time.
//!
//! Gates (run before the criterion pass, results written to
//! `BENCH_PR8.json` first so a red gate still leaves numbers on disk):
//!
//! * residency never exceeds the budget, sampled after every call;
//! * every answer is bit-identical to the unbounded run (eviction is
//!   invisible to correctness);
//! * the unbounded leg never faults; tighter budgets never hit *more*
//!   than looser ones.

use criterion::Criterion;
use lake_bench::{banner, fmt_us, percentiles, quick_criterion, upsert_bench_json};
use lake_core::{BatchThresholdPolicy, Lake};
use lake_ml::{serialize, Activation, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLS: usize = 16;
const MODELS: usize = 8;
const ROUNDS: usize = 8;
/// One model's page-rounded footprint (every model here fits one page).
const PAGE: usize = 4096;
/// Budgets swept, in resident pages; 0 means unbounded.
const BUDGET_PAGES: &[usize] = &[0, 4, 2, 1];

fn model_blob(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    serialize::encode_mlp(&Mlp::new(&[COLS, 32, 2], Activation::Relu, &mut rng))
}

fn feature_row(i: usize) -> Vec<f32> {
    (0..COLS).map(|j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5).collect()
}

struct Leg {
    budget_pages: usize,
    hit_rate: f64,
    peak_resident: usize,
    budget_bytes: usize,
    misses: u64,
    evictions: u64,
    fault_p50_us: f64,
    fault_p99_us: f64,
    answers: Vec<u32>,
}

/// Runs the round-robin working set (two calls per model per visit, so
/// every leg has a warm-hit opportunity) under `budget_pages` pages of
/// budget; asserts the residency ceiling after every call.
fn run_leg(budget_pages: usize) -> Leg {
    let blobs: Vec<Vec<u8>> = (0..MODELS).map(|i| model_blob(i as u64)).collect();
    let mut builder = Lake::builder();
    let budget = budget_pages * PAGE;
    if budget_pages > 0 {
        builder = builder.model_budget_bytes(budget);
    }
    let lake = builder.build();
    let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
    let ids: Vec<_> = blobs.iter().map(|b| ml.load_model(b).expect("load")).collect();

    let mut answers = Vec::new();
    for round in 0..ROUNDS {
        for (m, id) in ids.iter().enumerate() {
            for k in 0..2 {
                let x = feature_row(round * MODELS + m + k);
                let classes = ml.infer_mlp(*id, 1, COLS, &x).expect("infer");
                answers.push(classes[0]);
                if budget_pages > 0 {
                    let s = lake.model_store_stats();
                    assert!(
                        s.resident_bytes <= budget && s.peak_resident_bytes <= budget,
                        "budget {budget} violated: {s:?}"
                    );
                }
            }
        }
    }

    let s = lake.model_store_stats();
    let faults = lake.model_fault_latencies_us();
    let (fault_p50_us, fault_p99_us) =
        if faults.is_empty() { (0.0, 0.0) } else { percentiles(&faults) };
    Leg {
        budget_pages,
        hit_rate: s.hit_rate(),
        peak_resident: s.peak_resident_bytes,
        budget_bytes: budget,
        misses: s.misses,
        evictions: s.evictions,
        fault_p50_us,
        fault_p99_us,
        answers,
    }
}

fn run_and_gate() {
    banner("STORE", "paged model store: budget sweep over a round-robin set (PR 8)");

    println!(
        "{:>9} {:>9} {:>10} {:>8} {:>9} {:>12} {:>12}",
        "budget", "hit rate", "peak res", "misses", "evicted", "fault p50", "fault p99"
    );
    let legs: Vec<Leg> = BUDGET_PAGES.iter().map(|&p| run_leg(p)).collect();
    let mut json_rows = Vec::new();
    for leg in &legs {
        let budget_label = if leg.budget_pages == 0 {
            "unbound".to_owned()
        } else {
            format!("{}p", leg.budget_pages)
        };
        println!(
            "{budget_label:>9} {:>8.1}% {:>10} {:>8} {:>9} {:>12} {:>12}",
            leg.hit_rate * 100.0,
            leg.peak_resident,
            leg.misses,
            leg.evictions,
            fmt_us(leg.fault_p50_us),
            fmt_us(leg.fault_p99_us),
        );
        json_rows.push(format!(
            "{{\"budget_pages\": {}, \"budget_bytes\": {}, \"hit_rate\": {:.4}, \
             \"peak_resident_bytes\": {}, \"misses\": {}, \"evictions\": {}, \
             \"cold_miss_p50_us\": {:.3}, \"cold_miss_p99_us\": {:.3}}}",
            leg.budget_pages,
            leg.budget_bytes,
            leg.hit_rate,
            leg.peak_resident,
            leg.misses,
            leg.evictions,
            leg.fault_p50_us,
            leg.fault_p99_us,
        ));
    }

    // Record before gating so a red gate still leaves numbers on disk.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR8.json");
    upsert_bench_json(&path, "model_store_scaling", &format!("[{}]", json_rows.join(", ")));

    // Gates.
    let unbounded = &legs[0];
    assert_eq!(unbounded.misses, 0, "unbounded leg must never fault");
    assert_eq!(unbounded.hit_rate, 1.0);
    for leg in &legs[1..] {
        assert_eq!(
            leg.answers, unbounded.answers,
            "budget {}p changed an answer — eviction must be invisible",
            leg.budget_pages
        );
        assert!(leg.peak_resident <= leg.budget_bytes, "ceiling breached");
        assert!(leg.misses > 0 && leg.evictions > 0, "tight budgets must churn");
        assert!(
            leg.fault_p99_us >= leg.fault_p50_us && leg.fault_p50_us > 0.0,
            "cold misses charge reload latency: {:?}",
            (leg.fault_p50_us, leg.fault_p99_us)
        );
    }
    for pair in legs[1..].windows(2) {
        assert!(
            pair[1].hit_rate <= pair[0].hit_rate,
            "hit rate must not improve as the budget tightens: {:.3} -> {:.3}",
            pair[0].hit_rate,
            pair[1].hit_rate
        );
    }
}

fn bench(c: &mut Criterion) {
    // Host cost of the two acquire paths: a warm hit vs an evict+refault
    // round trip (single-page budget, two models thrashing).
    let mut group = c.benchmark_group("model_store");
    group.bench_function("warm_hit_infer", |b| {
        let lake = Lake::builder().model_budget_bytes(PAGE).build();
        let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
        let id = ml.load_model(&model_blob(0)).expect("load");
        let row = feature_row(1);
        b.iter(|| ml.infer_mlp(id, 1, COLS, &row).expect("infer"))
    });
    group.bench_function("thrash_refault_infer", |b| {
        let lake = Lake::builder().model_budget_bytes(PAGE).build();
        let ml = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
        let a = ml.load_model(&model_blob(0)).expect("load");
        let d = ml.load_model(&model_blob(1)).expect("load");
        let row = feature_row(1);
        b.iter(|| {
            ml.infer_mlp(a, 1, COLS, &row).expect("infer");
            ml.infer_mlp(d, 1, COLS, &row).expect("infer")
        })
    });
    group.finish();
}

fn main() {
    run_and_gate();
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
