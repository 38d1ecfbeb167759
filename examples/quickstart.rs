//! Quickstart: deploy LAKE, remote the CUDA driver API from "kernel
//! space", run a device kernel, and use the feature registry.
//!
//! Run with: `cargo run --example quickstart`

use lake::core::{KernelArg, Lake, LakeError};
use lake::ml::{serialize, Activation, Mlp};
use lake::registry::{FeatureRegistryService, Schema};
use lake::sim::Instant;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Deploy LAKE: lakeShm + Netlink channel + lakeD + simulated A100.
    let lake = Lake::builder().build();
    println!("deployed: {lake:?}");

    // 2. Register a device kernel (the analog of shipping a .cubin).
    lake.register_kernel("vector_scale", 1.0, |ctx, args| {
        let ptr = args[0].as_ptr().expect("buffer argument");
        let k = args[1].as_f32().expect("scale argument");
        let mut v = ctx.read_f32(ptr)?;
        v.iter_mut().for_each(|x| *x *= k);
        ctx.write_f32(ptr, &v)
    });

    // 3. Kernel-space application code: the remoted CUDA driver API.
    let cuda = lake.cuda();
    let data: Vec<f32> = (0..1024).map(|i| i as f32).collect();
    let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();

    let dev = cuda.cu_mem_alloc(bytes.len())?;

    // Bulk data goes through lakeShm (zero-copy across the boundary).
    let staged = lake.shm().alloc(bytes.len()).map_err(LakeError::from)?;
    lake.shm().write(&staged, 0, &bytes).map_err(LakeError::from)?;
    cuda.cu_memcpy_htod_shm(dev, &staged, bytes.len())?;

    cuda.cu_launch_kernel("vector_scale", 1024, &[KernelArg::Ptr(dev), KernelArg::F32(2.5)])?;
    let out = cuda.cu_memcpy_dtoh(dev, bytes.len())?;
    let first = f32::from_le_bytes(out[4..8].try_into().expect("4 bytes"));
    println!("kernel ran on the 'GPU': 1.0 * 2.5 = {first}");
    assert_eq!(first, 2.5);

    println!(
        "virtual time elapsed: {} (remoted calls: {})",
        lake.clock().now(),
        lake.call_stats().calls
    );

    // 4. The in-kernel feature registry (paper Table 1), its classifier
    //    an MLP loaded through the high-level ML API.
    let registry = FeatureRegistryService::new();
    let schema = Schema::builder().feature("pend_ios", 8, 1).feature("io_latency", 8, 4).build();
    registry.create_registry("nvme0", "bio_latency", schema, 32)?;
    let ml = lake.ml();
    let mlp = Mlp::new(&[5, 8, 2], Activation::Relu, &mut StdRng::seed_from_u64(1));
    let model = ml.load_model(&serialize::encode_mlp(&mlp))?;
    registry.register_classifier("nvme0", "bio_latency", &ml, model)?;

    for i in 0..4u64 {
        let t = Instant::from_nanos(i * 1_000);
        registry.begin_fv_capture("nvme0", "bio_latency", t)?;
        registry.capture_feature_incr("nvme0", "bio_latency", "pend_ios", i as i64 + 1)?;
        registry.capture_feature(
            "nvme0",
            "bio_latency",
            "io_latency",
            &(100 * (i as i64 + 1)).to_le_bytes(),
        )?;
        registry.commit_fv_capture(
            "nvme0",
            "bio_latency",
            t + lake::sim::Duration::from_nanos(500),
        )?;
    }
    let batch = registry.get_features("nvme0", "bio_latency", None)?;
    // Four rows sit below the offload crossover (8 rows in process, 32 on
    // a linked link): the handle's policy classifies them in this thread,
    // without a remoted call.
    let classes = registry.score_features("nvme0", "bio_latency", &batch)?;
    println!("scored {} feature vectors with {model}: classes {classes:?}", batch.len());

    Ok(())
}
