//! One run of one workload in this process: set-up, the measured phases,
//! and either the end-to-end metrics or the traced per-layer metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::drive::{closed_loop, paced_loop, sync_loop, warm_up, Phase, Stop, Swaps, SLICES};
use crate::layers;
use crate::stats::{host_calib_ms, median, peak_rss_mb};
use crate::target::{model_budget, Deployment, Target};
use crate::trace;
use crate::workload::{self, Generator, Model, Spec, Traffic};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `load_model` calls timed for `write_p50_us` where the workload has no
/// writes of its own.
const WRITE_PROBES: usize = 200;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// In table order: every end-to-end metric, or every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
}

/// A deployment that has loaded its models and served its warm-up.
struct Ready<'d> {
    dep: &'d Deployment,
    target: &'d dyn Target,
    gen: Generator,
    swaps: Option<Swaps>,
    budget: Option<usize>,
}

/// Times one full set-up — model generation and encoding, deployment, model
/// load (and replica load on a fleet) and the warm-up requests — then hands
/// the warm deployment to `then`. Returns the set-up time in seconds, the
/// warm-up's tally and `then`'s result.
fn set_up<R>(
    spec: &Spec,
    seed: u64,
    models: &[Model],
    then: impl FnOnce(Ready<'_>) -> R,
) -> (f64, Phase, R) {
    let threads_before = live_threads();
    let start = Instant::now();
    let weights = workload::weights(spec, seed);
    let blobs: Vec<&[u8]> = weights.iter().map(|w| w.blobs[0].as_slice()).collect();
    let budget = model_budget(spec, &blobs);
    let dep = Deployment::deploy(spec, budget);
    let target = dep.connect(&blobs).expect("every generated model loads");
    let mut gen = Generator::new(spec, seed);
    let mut swaps = match spec.traffic {
        Traffic::ReadsWithSwaps { swap_every, .. } => Some(Swaps::new(swap_every, models.len())),
        _ => None,
    };
    let warm = warm_up(spec, target.as_ref(), models, &mut gen, swaps.as_mut());
    let took = start.elapsed().as_secs_f64();
    let r = then(Ready { dep: &dep, target: target.as_ref(), gen, swaps, budget });
    drop(target);
    drop(dep);
    wait_for_threads(threads_before);
    (took, warm, r)
}

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, Iterator::count)
}

/// A deployment's serve threads are detached and end a few milliseconds
/// after it is dropped. Waits (at most a second) until they have, so the next
/// set-up neither shares the cores nor overlaps in memory with the last.
fn wait_for_threads(at_most: usize) {
    let give_up = Instant::now() + Duration::from_secs(1);
    while live_threads() > at_most && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The measured phases of one run.
struct Measured {
    /// Saturating closed loop, synchronous loop, or reads-with-swaps.
    closed: Phase,
    closed_for: Duration,
    /// Open loop, where the workload has one.
    paced: Option<Phase>,
}

fn measure(spec: &Spec, ready: &mut Ready<'_>, models: &[Model], seconds: f64) -> Measured {
    let Ready { target, gen, swaps, .. } = ready;
    let whole = Duration::from_secs_f64(seconds);
    match spec.traffic {
        Traffic::SatThenPaced { rate, .. } => {
            let half = whole / 2;
            let closed = closed_loop(spec, *target, models, gen, Stop::After(half), None);
            let schedule = gen.paced(rate, half.as_secs_f64());
            let paced = paced_loop(*target, models, &schedule);
            Measured { closed, closed_for: half, paced: Some(paced) }
        }
        Traffic::Sync => {
            let closed = sync_loop(spec, *target, models, gen, Stop::After(whole));
            Measured { closed, closed_for: whole, paced: None }
        }
        Traffic::ReadsWithSwaps { .. } => {
            let closed =
                closed_loop(spec, *target, models, gen, Stop::After(whole), swaps.as_mut());
            Measured { closed, closed_for: whole, paced: None }
        }
    }
}

/// Runs `spec` once. `trace` selects which metric table is produced; the
/// trace file goes to `out_dir`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let models = workload::models(spec, seed, workload::weights(spec, seed));
    if trace {
        traced(spec, seed, seconds, &models, out_dir)
    } else {
        untraced(spec, seed, seconds, &models)
    }
}

fn untraced(spec: &Spec, seed: u64, seconds: f64, models: &[Model]) -> Outcome {
    let mut tally = Phase::default();
    let mut setup_s = Vec::new();
    // All but the last set-up exist only to be timed.
    for _ in 1..SETUPS {
        let (took, warm, ()) = set_up(spec, seed, models, |_| ());
        setup_s.push(took);
        tally.absorb(warm);
    }
    let (took, warm, (m, mut write_us)) = set_up(spec, seed, models, |mut ready| {
        let m = measure(spec, &mut ready, models, seconds);
        let mut write_us = m.closed.write_us.clone();
        if write_us.is_empty() {
            // No writes in the traffic: time loading one more model, idle.
            let blob = workload::write_probe_blob(seed);
            for _ in 0..WRITE_PROBES {
                tally.attempted += 1;
                match ready.target.load_unload(&blob) {
                    Ok(took) => write_us.push(took.as_secs_f64() * 1e6),
                    Err(_) => tally.failed += 1,
                }
            }
        }
        (m, write_us)
    });
    setup_s.push(took);
    tally.absorb(warm);
    let mut lat = m.paced.as_ref().unwrap_or(&m.closed).lat_us.clone();
    let metrics = vec![
        ("setup_s", median(&mut setup_s)),
        ("rows_per_s", m.closed.rows_per_s(m.closed_for / SLICES as u32)),
        ("lat_p50_us", median(&mut lat)),
        ("write_p50_us", median(&mut write_us)),
        // At fixed work where the run got that far, else at exit.
        ("peak_rss_mb", m.closed.rss_mb.unwrap_or_else(peak_rss_mb)),
    ];
    tally.absorb(m.closed);
    m.paced.into_iter().for_each(|p| tally.absorb(p));
    Outcome { attempted: tally.attempted, failed: tally.failed, metrics }
}

fn traced(spec: &Spec, seed: u64, seconds: f64, models: &[Model], out_dir: &Path) -> Outcome {
    let calib_before = host_calib_ms();
    let (_, mut tally, (m, before, after)) = set_up(spec, seed, models, |mut ready| {
        let before = layers::snapshot(ready.dep);
        let m = measure(spec, &mut ready, models, seconds);
        (m, before, layers::snapshot(ready.dep))
    });
    // The replay starts the request stream over — the same first requests,
    // one at a time — on fresh deployments, so that every level is measured
    // on a stack of the same age (per-request cost grows with a deployment's
    // history; `lake.last_first_window_ratio` reports that separately).
    let mut gen = Generator::new(spec, seed);
    let reqs: Vec<_> = (0..spec.trace_requests).map(|_| gen.next()).collect();
    let replay = if spec.shards > 0 {
        let (_, warm, replay) = set_up(spec, seed, models, |ready| {
            trace::replay(spec, seed, models, &reqs, Some(ready.target), ready.budget)
        });
        tally.absorb(warm);
        replay
    } else {
        trace::replay(spec, seed, models, &reqs, None, None)
    };
    let calib = (calib_before + host_calib_ms()) / 2.0;
    let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    if let Err(e) = replay.tracer.write_jsonl(&path) {
        eprintln!("lake-e2e: cannot write {}: {e}", path.display());
    }
    let metrics = layers::per_layer(
        &before,
        &after,
        &m.closed,
        m.paced.as_ref(),
        spec.slo_us,
        &replay,
        calib,
    );
    tally.absorb(m.closed);
    m.paced.into_iter().for_each(|p| tally.absorb(p));
    Outcome {
        attempted: tally.attempted + replay.attempted,
        failed: tally.failed + replay.failed,
        metrics,
    }
}
