//! Loadable (eBPF-style) execution policies: author the Fig 3 policy as
//! bytecode, verify it, install it, and watch it steer offload decisions
//! against a live LAKE instance.
//!
//! Run with: `cargo run --release --example ebpf_policy`

use lake::core::ebpf::{Ctx, Insn, PolicyCtx, PolicyProgram, ProgramPolicy, Reg};
use lake::core::policy::offload;
use lake::core::{Lake, Target};
use lake::sim::Duration;

pub fn main() {
    // 1. Author + verify the Fig 3 policy as a program.
    let program = PolicyProgram::fig3(40, 8);
    println!("loaded fig3 policy: {} instructions, verified", program.len());

    // 2. The verifier rejects unsafe programs.
    let bad = PolicyProgram::load(vec![
        Insn::LoadCtx(Reg::R1, Ctx::BatchSize),
        Insn::JmpGe(Reg::R1, Reg::R2, 1), // R2 never initialized
        Insn::RetGpu,
        Insn::RetCpu,
    ]);
    println!("verifier on a buggy program: {}", bad.expect_err("must reject"));

    // 3. Install it over a live LAKE instance: the context source queries
    //    the remoted NVML utilization, exactly like CuPolicy.
    let lake = Lake::builder().build();
    lake.register_kernel("user_hasher", 1.0e6, |_, _| Ok(()));
    let cuda = lake.cuda();
    let nvml = lake.cuda();
    let mut policy = ProgramPolicy::new("fig3-ebpf", program, move |_batch| PolicyCtx {
        gpu_util_percent: nvml.nvml_utilization_percent(5_000).unwrap_or(100.0) as i64,
        ..Default::default()
    });

    // Idle device, healthy batch: GPU.
    let (target, _) = offload(&mut policy, 64, || "ran dev_func", || "ran cpu_func");
    println!("idle device, batch 64  -> {target:?}");
    assert_eq!(target, Target::Gpu);

    // Small batch: CPU (profitability rule).
    let (target, _) = offload(&mut policy, 2, || "dev", || "cpu");
    println!("idle device, batch 2   -> {target:?}");

    // Saturate the device from "user space" and decide again.
    for _ in 0..20 {
        cuda.cu_launch_kernel("user_hasher", 500_000, &[]).expect("launch");
    }
    lake.clock().advance(Duration::from_micros(100));
    let (target, _) = offload(&mut policy, 64, || "dev", || "cpu");
    println!("contended device, batch 64 -> {target:?} (falls back)");
    assert_eq!(target, Target::Cpu);

    // Contention clears; the program reclaims the GPU.
    lake.clock().advance(Duration::from_millis(100));
    let (target, _) = offload(&mut policy, 64, || "dev", || "cpu");
    println!("idle again, batch 64   -> {target:?} (reclaims)");
    assert_eq!(target, Target::Gpu);
}
