//! Table 3 pinned: the batch size at which offloading through LAKE beats
//! the CPU, measured on a default-built deployment for the three MLP
//! subsystems (EXPERIMENTS.md Table 3; the paper's values).
//!
//! The LAKE series must keep crossing the boundary at every batch size.
//! If figure code ever answered small batches kernel-side, its LAKE points
//! below the crossover would fall onto the CPU line, and these tests fail.

use lake::core::{Lake, LinkMode};
use lake::workloads::{crossover_batch, linnos, mllb, prefetch, BatchTiming};

const BATCHES: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// The default deployment, or `None` when a `LAKE_LINK` or
/// `LAKE_MODEL_BUDGET` override changed what crossing costs: the ring link
/// charges Table 2's mmap row instead of Netlink's, and a bounded store
/// charges refaults, so Table 3 does not apply.
fn default_lake() -> Option<Lake> {
    let lake = Lake::builder().build();
    let unbounded = lake.model_store_stats().budget_bytes == usize::MAX;
    (lake.link_mode() == LinkMode::InProcess && unbounded).then_some(lake)
}

/// Asserts the crossover, and that every smaller batch paid for crossing
/// the boundary: a LAKE point below the crossover that only ties the CPU
/// line was answered kernel-side.
fn assert_crossover(cpu: &[BatchTiming], lake: &[BatchTiming], want: usize) {
    assert_eq!(crossover_batch(cpu, lake), Some(want), "cpu {cpu:?}\nlake {lake:?}");
    for (c, l) in cpu.iter().zip(lake).take_while(|(c, _)| c.batch < want) {
        assert!(
            l.micros > c.micros,
            "batch {}: LAKE {} us does not exceed CPU {} us",
            c.batch,
            l.micros,
            c.micros
        );
    }
}

#[test]
fn linnos_crosses_over_at_8() {
    let Some(lake) = default_lake() else { return };
    let (cpu, gpu) = linnos::inference_timings(&lake, 0, BATCHES);
    assert_crossover(&cpu, &gpu, 8);
}

#[test]
fn mllb_crosses_over_at_256() {
    let Some(lake) = default_lake() else { return };
    let (cpu, gpu, _) = mllb::inference_timings(&lake, BATCHES).unwrap();
    assert_crossover(&cpu, &gpu, 256);
}

#[test]
fn prefetch_crosses_over_at_64() {
    let Some(lake) = default_lake() else { return };
    let (cpu, gpu, _) = prefetch::inference_timings(&lake, BATCHES).unwrap();
    assert_crossover(&cpu, &gpu, 64);
}
