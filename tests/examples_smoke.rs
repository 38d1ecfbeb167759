//! Smoke test: the runnable examples must keep executing to completion.
//!
//! The example sources are compiled into this test via `#[path]` modules
//! and their `main` functions run directly, so `cargo test` catches a
//! broken example without needing a separate `cargo run` step. The
//! examples assert their own figures (`ebpf_policy` checks the Fig 3
//! decisions), so a run to completion is a pass.

#[path = "../examples/quickstart.rs"]
mod quickstart;

#[path = "../examples/io_latency_prediction.rs"]
mod io_latency_prediction;

#[path = "../examples/ebpf_policy.rs"]
mod ebpf_policy;

#[path = "../examples/contention_policy.rs"]
mod contention_policy;

#[path = "../examples/malware_detection.rs"]
mod malware_detection;

#[path = "../examples/encrypted_fs.rs"]
mod encrypted_fs;

#[test]
fn quickstart_example_runs_to_completion() {
    quickstart::main().expect("quickstart example");
}

#[test]
fn io_latency_prediction_example_runs_to_completion() {
    io_latency_prediction::main().expect("io_latency_prediction example");
}

#[test]
fn ebpf_policy_example_runs_to_completion() {
    ebpf_policy::main();
}

#[test]
fn contention_policy_example_runs_to_completion() {
    contention_policy::main();
}

#[test]
fn malware_detection_example_runs_to_completion() {
    malware_detection::main().expect("malware_detection example");
}

#[test]
fn encrypted_fs_example_runs_to_completion() {
    encrypted_fs::main().expect("encrypted_fs example");
}
