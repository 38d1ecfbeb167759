//! Packed, parallel GEMM fast path for inference.
//!
//! The naive [`Matrix::matmul`] walks the right-hand side row by row in an
//! i-k-j saxpy. That keeps the *math* simple but leaves two costs on the
//! table for inference, where the weights are reused across every call:
//!
//! * the weight matrix is re-traversed in its row-major layout on every
//!   multiply, with no packing or padding, and
//! * everything runs on one thread.
//!
//! This module adds a fast path that fixes both while staying **bit-identical**
//! to the naive code, because the PR 2/3 chaos invariants (CPU fallback ==
//! GPU result, remote == local) compare outputs exactly:
//!
//! * [`PackedMatrix`] stores the weights **transposed** (column `j` of the
//!   original becomes a contiguous packed row) with the row stride padded to
//!   a 64-byte cache line and the base 64-byte aligned, so each output
//!   element is one linear streamed dot product.
//! * Each output element `out[i][j]` is computed as a single k-ascending
//!   accumulator starting from `0.0`, with the same `a == 0.0` skip the
//!   naive saxpy applies — the exact same float operation sequence, so the
//!   result is the exact same bits.
//! * A fixed-width [`WorkerPool`] partitions **disjoint output row ranges**
//!   across the calling thread and its helper threads, each claiming parts
//!   until none are left. Since no two parts ever touch the same
//!   accumulator, the reduction order per element is unchanged no matter
//!   how wide the pool is or which thread runs which part.
//! * Bias and activation are fused into the store ([`PackedMlp::forward`]):
//!   elementwise epilogues commute with the row partition, and the scalar
//!   formulas replicate [`Activation`]'s exactly.
//! * [`PackedLstm`] batches the gate GEMMs across the batch dimension (all
//!   rows of a timestep stream the packed `Wx`/`Wh` once) while keeping the
//!   per-row accumulation order of `LstmCell::step`.
//!
//! Single-thread speed comes from a [`Kernel`] dispatch layer with two
//! tiers: a runtime-detected AVX2 microkernel (register-blocked, 4 vector
//! accumulators resident across the whole reduction loop) and the portable
//! scalar oracle, both under MC/KC/NC cache tiling. `LAKE_SIMD` picks one
//! (`auto|avx2|scalar`; `sse` is an alias of `scalar`). The AVX2 kernels
//! stay bit-identical to the scalar oracle because they only widen
//! across *independent* output columns: each element still sees
//! ascending-k accumulation, the `== 0.0` skip, and a separate multiply
//! then add (FMA is deliberately not used — its single rounding would
//! change bits).
//!
//! [`PackedModelCache`] memoizes the packed form per model version so
//! packing is paid once per residency, and [`InferenceEngine`] bundles
//! pool + cache with the utilization counters surfaced through
//! `SchedMetrics`.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{JoinHandle, Thread};

use crate::lstm::LstmClassifier;
use crate::mlp::{Activation, Mlp};
use crate::tensor::Matrix;

/// Packed row stride granularity: 16 f32 = one 64-byte cache line.
pub const PACK_LANE: usize = 16;

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

/// Which microkernel family executes the GEMM inner loops: AVX2 where the
/// CPU supports it, the portable scalar oracle everywhere.
///
/// All f32 kernels are **bit-identical**: per output element they perform
/// the exact op sequence of the scalar oracle (ascending-k accumulation,
/// the `a == 0.0` skip, separate multiply then add). SIMD only widens
/// across independent output columns. The int8 kernels accumulate in i32,
/// which is exact, so they too agree across kernels to the last bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable scalar loops — the chaos-invariant oracle.
    Scalar,
    /// AVX2 256-bit lanes (8 f32 / 16 i16 per op).
    Avx2,
}

/// Runtime CPU probe via CPUID, cached after the first call. AVX2 also
/// requires OS support for saving ymm state (OSXSAVE + XCR0 bits 1–2) —
/// checking the feature bit alone would fault on kernels that disable AVX.
#[cfg(target_arch = "x86_64")]
fn detect_cpu() -> Kernel {
    use std::sync::atomic::{AtomicU8, Ordering};
    static CACHED: AtomicU8 = AtomicU8::new(u8::MAX);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != u8::MAX {
        return if cached == 1 { Kernel::Avx2 } else { Kernel::Scalar };
    }
    // SAFETY: CPUID exists on every x86_64 CPU; _xgetbv is gated on the
    // OSXSAVE bit which guarantees the instruction is enabled.
    let avx2 = unsafe {
        use std::arch::x86_64::{__cpuid, __cpuid_count, _xgetbv};
        let f1 = __cpuid(1);
        let osxsave = f1.ecx & (1 << 27) != 0;
        let ymm_enabled = osxsave && (_xgetbv(0) & 0x6) == 0x6;
        ymm_enabled && __cpuid_count(7, 0).ebx & (1 << 5) != 0
    };
    CACHED.store(u8::from(avx2), Ordering::Relaxed);
    if avx2 {
        Kernel::Avx2
    } else {
        Kernel::Scalar
    }
}

impl Kernel {
    /// Best kernel the running CPU supports.
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            detect_cpu()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Kernel::Scalar
        }
    }

    /// Whether this kernel can run on the current CPU.
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            matches!((self, detect_cpu()), (Kernel::Scalar, _) | (Kernel::Avx2, Kernel::Avx2))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            matches!(self, Kernel::Scalar)
        }
    }

    /// Clamps a requested kernel down to the best one actually available.
    /// Identity for any available kernel; every public dispatch entry runs
    /// requests through this, so the `unsafe` target-feature kernels can
    /// never execute on a CPU that lacks them (the check is one relaxed
    /// atomic load, amortized over a whole tile of work).
    pub(crate) fn clamped(self) -> Kernel {
        match self {
            Kernel::Avx2 if Kernel::Avx2.available() => Kernel::Avx2,
            Kernel::Scalar | Kernel::Avx2 => Kernel::Scalar,
        }
    }

    /// Parses a `LAKE_SIMD` value. `auto` (or empty) detects the best
    /// kernel; `avx2` clamps down to what the CPU supports, so asking for
    /// it on a host without AVX2 degrades to scalar instead of crashing.
    /// `sse`/`sse4.1`/`sse41` name a tier that no longer exists and are
    /// accepted as aliases of `scalar`.
    pub fn from_name(s: &str) -> Option<Kernel> {
        match s.to_ascii_lowercase().as_str() {
            "" | "auto" => Some(Kernel::detect()),
            "avx2" => Some(Kernel::Avx2.clamped()),
            "scalar" | "sse" | "sse4.1" | "sse41" => Some(Kernel::Scalar),
            _ => None,
        }
    }

    /// Kernel selected by the `LAKE_SIMD` environment variable
    /// (`auto|avx2|scalar`, with `sse` an alias of `scalar`), defaulting
    /// to [`Kernel::detect`] when unset. This is the one place the variable
    /// is read; every engine takes its kernel from here when built.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `LAKE_SIMD` value.
    pub fn from_env() -> Kernel {
        match std::env::var("LAKE_SIMD") {
            Ok(v) => Kernel::from_name(&v)
                .unwrap_or_else(|| panic!("LAKE_SIMD must be auto|avx2|scalar, got {v:?}")),
            Err(_) => Kernel::detect(),
        }
    }

    /// Short name for metrics and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// Numeric format of a packed model; part of the packed-cache key so an f32
/// oracle and its int8 quantized sibling never collide under one model id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFormat {
    /// Full-precision f32 weights (the correctness oracle).
    F32,
    /// Symmetric int8 weights with per-column scales.
    Int8,
}

// ---------------------------------------------------------------------------
// Packed weights
// ---------------------------------------------------------------------------

/// A weight matrix re-laid-out and padded for the inference fast path.
///
/// For an original `k × n` matrix `B`, packed row `k` is original row `k`,
/// padded with zeros to a [`PACK_LANE`]-multiple stride and based at a
/// 64-byte-aligned offset. The layout keeps the naive saxpy's k-outer loop
/// — the one shape whose inner loop carries `n` *independent* accumulators
/// and therefore vectorizes — while giving every row an aligned, uniformly
/// strided start the hot loop can stream.
///
/// (An earlier revision packed columns for dot-product reduction; a dot
/// carries one serial accumulator whose f32 adds cannot be reordered, so
/// it ran scalar and lost ~8× to the vectorized saxpy.)
#[derive(Debug)]
pub struct PackedMatrix {
    /// Original row count of `B` (the reduction dimension `k`).
    k: usize,
    /// Original column count of `B` (the output dimension).
    n: usize,
    /// Padded length of one packed row, a multiple of [`PACK_LANE`].
    stride: usize,
    /// Offset of the first packed element (aligns the base to 64 bytes).
    base: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Packs `B` (pad + align). Cost is one pass over `B`.
    pub fn pack(b: &Matrix) -> Self {
        let (k, n) = (b.rows(), b.cols());
        let stride = n.div_ceil(PACK_LANE) * PACK_LANE;
        let mut data = vec![0.0f32; k * stride + PACK_LANE - 1];
        // Computed directly from the address instead of `align_offset`
        // (which is allowed to fail spuriously): a Vec<f32> base is always
        // 4-byte aligned, so at most 15 elements reach the next 64-byte
        // boundary and the slack above always covers it.
        let addr = data.as_ptr() as usize;
        let base = (addr.next_multiple_of(64) - addr) / std::mem::size_of::<f32>();
        debug_assert!(base < PACK_LANE, "alignment slack exceeded");
        let src = b.data();
        for kk in 0..k {
            data[base + kk * stride..base + kk * stride + n]
                .copy_from_slice(&src[kk * n..(kk + 1) * n]);
        }
        let pm = PackedMatrix { k, n, stride, base, data };
        debug_assert!(pm.base_aligned(), "packed base must be 64-byte aligned");
        pm
    }

    /// Whether every packed row starts on a 64-byte boundary (the base is
    /// aligned and the stride is a whole number of cache lines). SIMD
    /// kernels rely on rows never straddling a line start; this is asserted
    /// after every pack in debug builds and exposed for the alignment audit
    /// test.
    pub fn base_aligned(&self) -> bool {
        let base_ptr = self.data[self.base..].as_ptr() as usize;
        base_ptr.is_multiple_of(64) && (self.stride * std::mem::size_of::<f32>()).is_multiple_of(64)
    }

    /// Reduction dimension (rows of the original matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the original matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Padded stride of one packed row, in f32 elements.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Bytes held by the packed buffer (pad + alignment included).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Packed row `k`: original row `k` of `B`, contiguous, length `n`.
    #[inline]
    pub fn row(&self, k: usize) -> &[f32] {
        let start = self.base + k * self.stride;
        &self.data[start..start + self.n]
    }
}

// ---------------------------------------------------------------------------
// f32 microkernels
// ---------------------------------------------------------------------------

/// `out[j] += Σ_i a[i] * B[k0 + i][j0 + j]` — the one accumulation
/// primitive every f32 path uses.
///
/// Accumulators are loaded from and stored back to `out`, so callers may
/// seed `out` (LSTM bias) or tile the reduction dimension across several
/// calls without changing any per-element f32 op sequence: loads and
/// stores do not round. Ascending `i`, the scalar `a[i] == 0.0` skip, and
/// separate multiply-then-add are preserved by every kernel, so all three
/// are bit-identical.
///
/// The skip is hoisted out of the hot loops: a branchless scan compacts
/// the nonzero `(index, value)` pairs up front and every kernel walks the
/// compacted list with no data-dependent branch. ReLU activations are
/// ~half exact zeros in a random pattern, so the naive per-element
/// `if av == 0.0` test mispredicts constantly — on such layers the
/// misprediction stalls cost more than the arithmetic itself. Compaction
/// keeps the identical elements in identical ascending order, so the f32
/// op sequence (and therefore the bit pattern) is unchanged.
#[inline]
pub(crate) fn accumulate(
    kernel: Kernel,
    a: &[f32],
    pb: &PackedMatrix,
    k0: usize,
    j0: usize,
    out: &mut [f32],
) {
    debug_assert!(k0 + a.len() <= pb.k, "accumulate k range out of bounds");
    debug_assert!(j0 + out.len() <= pb.n, "accumulate j range out of bounds");
    let mut idx = [0u32; TILE_KC];
    let mut val = [0f32; TILE_KC];
    for (c, chunk) in a.chunks(TILE_KC).enumerate() {
        let first = c * TILE_KC;
        // Unconditional stores + conditional increment: compiles to
        // setcc/add, never a branch, regardless of the zero pattern.
        let mut nz = 0usize;
        for (i, &av) in chunk.iter().enumerate() {
            idx[nz] = (first + i) as u32;
            val[nz] = av;
            nz += usize::from(av != 0.0);
        }
        if nz == 0 {
            continue;
        }
        let (idx, val) = (&idx[..nz], &val[..nz]);
        match kernel {
            Kernel::Scalar => accumulate_scalar(idx, val, pb, k0, j0, out),
            // SAFETY: every public dispatch entry normalizes its kernel via
            // `Kernel::clamped`, so a non-scalar kernel only reaches here
            // when the CPU reports the required target features.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { accumulate_avx2(idx, val, pb, k0, j0, out) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => accumulate_scalar(idx, val, pb, k0, j0, out),
        }
    }
}

fn accumulate_scalar(
    idx: &[u32],
    val: &[f32],
    pb: &PackedMatrix,
    k0: usize,
    j0: usize,
    out: &mut [f32],
) {
    for (&i, &av) in idx.iter().zip(val) {
        let row = &pb.row(k0 + i as usize)[j0..j0 + out.len()];
        for (o, &b) in out.iter_mut().zip(row) {
            *o += av * b;
        }
    }
}

/// AVX2: 32-column register block — 4 ymm accumulators stay resident
/// across the whole reduction loop; each non-zero `a[i]` costs one
/// broadcast, 4 multiplies and 4 adds, and the compacted `(idx, val)`
/// walk makes the loop branch-free. `mul + add`, **not** `fmadd`: a
/// fused multiply-add rounds once where the scalar oracle rounds twice,
/// which would change bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_avx2(
    idx: &[u32],
    val: &[f32],
    pb: &PackedMatrix,
    k0: usize,
    j0: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let jn = out.len();
    let op = out.as_mut_ptr();
    let stride = pb.stride;
    // Base of column j0 in packed row k0; row i is `i * stride` further on.
    // Every load below stays inside the packed buffer: j0 + j + 8 ≤ n ≤
    // stride, so even the last row's widest load ends before the pad does.
    let bbase = pb.data.as_ptr().add(pb.base + k0 * stride + j0);
    let mut j = 0;
    while j + 32 <= jn {
        let mut acc0 = _mm256_loadu_ps(op.add(j));
        let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
        let mut acc2 = _mm256_loadu_ps(op.add(j + 16));
        let mut acc3 = _mm256_loadu_ps(op.add(j + 24));
        for (&i, &av) in idx.iter().zip(val) {
            let bp = bbase.add(i as usize * stride + j);
            let va = _mm256_set1_ps(av);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(8))));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(16))));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(24))));
        }
        _mm256_storeu_ps(op.add(j), acc0);
        _mm256_storeu_ps(op.add(j + 8), acc1);
        _mm256_storeu_ps(op.add(j + 16), acc2);
        _mm256_storeu_ps(op.add(j + 24), acc3);
        j += 32;
    }
    while j + 8 <= jn {
        let mut acc = _mm256_loadu_ps(op.add(j));
        for (&i, &av) in idx.iter().zip(val) {
            let bp = bbase.add(i as usize * stride + j);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bp)));
        }
        _mm256_storeu_ps(op.add(j), acc);
        j += 8;
    }
    if j < jn {
        accumulate_scalar(idx, val, pb, k0, j0 + j, &mut out[j..]);
    }
}

/// Reduction-dimension tile: a 256-element slice of one input row is 1 KB,
/// comfortably L1-resident alongside the accumulator block.
const TILE_KC: usize = 256;

/// Output-column tile: with [`TILE_KC`] this caps one packed weight panel
/// at 256 KB so it stays L2-resident while every row of a batch reuses it.
const TILE_NC: usize = 256;

/// Scalar replica of `Activation::apply`'s per-element formulas (both
/// route through the shared `fastmath` activations, so the engine and the
/// naive `Mlp` forward stay bit-identical).
#[inline]
pub(crate) fn apply_act(act: Activation, x: f32) -> f32 {
    match act {
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => crate::fastmath::sigmoid(x),
        Activation::Tanh => crate::fastmath::tanh(x),
    }
}

/// Packed GEMM for one contiguous row range of the output.
///
/// `a` is the full input (row-major, `a_cols` wide); rows `rows.start..
/// rows.end` are computed into `out`, which must hold exactly that range
/// (`(rows.len()) * pb.n()` floats). `bias`/`act` fuse the epilogue:
/// `out = act(a·B + bias)` with bias added **after** the accumulation,
/// matching `matmul` → `add_row_bias` → `Activation::apply`.
///
/// Per output element this performs the identical sequence of f32
/// operations as [`Matrix::matmul`]'s i-k-j loop: one accumulator starting
/// at `0.0`, adding `a[k] * b[k][j]` for ascending `k` where
/// `a[k] != 0.0`. The MC/KC/NC tiling below only reorders *between*
/// elements — for each column panel every KC block is visited in ascending
/// order and the accumulator round-trips through `out` (loads and stores
/// don't round), so the bit pattern is tiling-invariant. The win is reuse:
/// one L2-resident weight panel streams once while every row of the range
/// consumes it.
#[allow(clippy::too_many_arguments)] // internal driver: shape + fused epilogue
fn gemm_rows(
    kernel: Kernel,
    a: &[f32],
    a_cols: usize,
    rows: Range<usize>,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    act: Option<Activation>,
    out: &mut [f32],
) {
    assert_eq!(a_cols, pb.k, "gemm reduction dim mismatch");
    let n = pb.n;
    assert_eq!(out.len(), rows.len() * n, "gemm output size mismatch");
    out.fill(0.0);
    for jc in (0..n).step_by(TILE_NC) {
        let jw = TILE_NC.min(n - jc);
        for kc in (0..a_cols).step_by(TILE_KC) {
            let kw = TILE_KC.min(a_cols - kc);
            for (li, i) in rows.clone().enumerate() {
                let a_row = &a[i * a_cols + kc..i * a_cols + kc + kw];
                let out_row = &mut out[li * n + jc..li * n + jc + jw];
                accumulate(kernel, a_row, pb, kc, jc, out_row);
            }
        }
    }
    for li in 0..rows.len() {
        let out_row = &mut out[li * n..(li + 1) * n];
        match (bias, act) {
            (Some(bs), Some(act)) => {
                for (o, &b) in out_row.iter_mut().zip(bs) {
                    *o = apply_act(act, *o + b);
                }
            }
            (Some(bs), None) => {
                for (o, &b) in out_row.iter_mut().zip(bs) {
                    *o += b;
                }
            }
            (None, Some(act)) => {
                for o in out_row.iter_mut() {
                    *o = apply_act(act, *o);
                }
            }
            (None, None) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// A job handed to the pool: called once per part with the part index.
type Job = &'static (dyn Fn(usize) + Sync);

/// One [`WorkerPool::run`] call, shared by its caller and every helper it
/// was published to.
struct Run {
    job: Job,
    parts: usize,
    /// Next unclaimed part; a claim at or past `parts` claims nothing.
    next: AtomicUsize,
    /// Parts that returned or unwound, whoever ran them.
    finished: AtomicUsize,
    panicked: AtomicBool,
    /// The `run` caller, unparked when a helper finishes the last part.
    caller: Thread,
}

impl Run {
    /// Claims and runs parts until none are left. Returns whether this
    /// thread finished the run's last part.
    fn work(&self) -> bool {
        let mut last = false;
        loop {
            // Relaxed: the claim only needs the RMW's uniqueness; `job`
            // itself was published by the channel send.
            let part = self.next.fetch_add(1, Ordering::Relaxed);
            if part >= self.parts {
                return last;
            }
            if catch_unwind(AssertUnwindSafe(|| (self.job)(part))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            // Release pairs with the caller's Acquire load in `run`: the
            // part's writes (and `panicked`) are visible once it counts.
            last = self.finished.fetch_add(1, Ordering::Release) + 1 == self.parts;
        }
    }
}

/// Fixed-width pool for partitioned GEMM in which the caller is one of the
/// workers.
///
/// [`WorkerPool::run`] splits a job into [`WorkerPool::workers`] parts and
/// publishes it to `workers − 1` persistent helper threads. The caller and
/// every helper claim parts from one atomic counter until none are left;
/// the caller then waits only for parts a helper claimed and has not
/// finished. A helper still busy with another caller's run therefore never
/// stalls this one, and concurrent `run`s from several threads share the
/// helpers without serialising on each other. `run` returns only after
/// every part has finished, so the job may borrow from the caller's stack
/// even though the channel type is `'static`.
pub struct WorkerPool {
    txs: Vec<mpsc::Sender<Arc<Run>>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    runs: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("runs", &self.runs.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// A pool `workers` wide (clamped to at least 1), counting the caller
    /// of [`WorkerPool::run`]: spawns `workers − 1` helper threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (txs, handles) = (1..workers)
            .map(|w| {
                let (tx, rx) = mpsc::channel::<Arc<Run>>();
                let handle = std::thread::Builder::new()
                    .name(format!("lake-gemm-{w}"))
                    .spawn(move || {
                        while let Ok(run) = rx.recv() {
                            if run.work() {
                                run.caller.unpark();
                            }
                        }
                    })
                    .expect("spawn gemm helper");
                (tx, handle)
            })
            .unzip();
        WorkerPool { txs, handles, workers, runs: AtomicU64::new(0) }
    }

    /// Pool width: the caller plus its helper threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs executed so far (each job splits into `workers()` parts).
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Runs `job(part)` once for every part in `0..workers()`, on the
    /// calling thread and any idle helpers, and returns when all are done.
    ///
    /// # Panics
    ///
    /// Panics if any part panicked (after every part has finished).
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the job reference is only lent out for the duration of
        // this call. A helper touches `job` only after claiming a part
        // below `parts`, and this call returns only once `finished ==
        // parts`, i.e. after every claimed part has returned or unwound.
        // From then on every claim lands at or past `parts`, so a stale
        // `Arc<Run>` still queued to a busy helper never calls the job.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let run = Arc::new(Run {
            job,
            parts: self.workers,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            caller: std::thread::current(),
        });
        for tx in &self.txs {
            // A helper that is gone only leaves more parts to the caller.
            let _ = tx.send(Arc::clone(&run));
        }
        run.work();
        // `park` may return spuriously, or on a token a helper left for an
        // earlier run of this thread; the count is the only exit.
        while run.finished.load(Ordering::Acquire) < run.parts {
            std::thread::park();
        }
        assert!(!run.panicked.load(Ordering::Relaxed), "gemm worker panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends every helper's receive loop.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Splits `rows` into at most `parts` contiguous, disjoint ranges.
pub(crate) fn partition(rows: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let per = rows.div_ceil(parts).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < rows {
        let end = (start + per).min(rows);
        out.push(start..end);
        start = end;
    }
    out
}

/// Packed, pool-partitioned matrix multiply, bit-identical to
/// [`Matrix::matmul`].
///
/// `pb` must be [`PackedMatrix::pack`] of the right-hand side. With a pool,
/// output rows are partitioned across workers (disjoint accumulators, so
/// the per-element reduction order — and therefore every output bit — is
/// independent of the worker count).
pub fn matmul_packed(a: &Matrix, pb: &PackedMatrix, pool: Option<&WorkerPool>) -> Matrix {
    matmul_packed_with(a, pb, pool, Kernel::from_env())
}

/// [`matmul_packed`] with an explicit microkernel (bit-identical for every
/// choice; see [`Kernel`]).
pub fn matmul_packed_with(
    a: &Matrix,
    pb: &PackedMatrix,
    pool: Option<&WorkerPool>,
    kernel: Kernel,
) -> Matrix {
    let kernel = kernel.clamped();
    let rows = a.rows();
    let mut out = Matrix::zeros(rows, pb.n);
    run_partitioned(pool, rows, pb.n, out.data_mut(), |range, chunk| {
        gemm_rows(kernel, a.data(), a.cols(), range, pb, None, None, chunk);
    });
    out
}

/// Partitions `rows` across the pool and hands each part its disjoint
/// chunk of `out` (`row_width` elements per row). Falls back to inline
/// execution for tiny batches or a single worker.
pub(crate) fn run_partitioned<T: Send>(
    pool: Option<&WorkerPool>,
    rows: usize,
    row_width: usize,
    out: &mut [T],
    work: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let parallel = match pool {
        Some(p) if p.workers() > 1 && rows > 1 => Some(p),
        _ => None,
    };
    match parallel {
        None => work(0..rows, out),
        Some(pool) => {
            let ranges = partition(rows, pool.workers());
            let per = ranges[0].len();
            let chunks: Vec<Mutex<(Range<usize>, &mut [T])>> = out
                .chunks_mut(per * row_width)
                .zip(ranges)
                .map(|(chunk, range)| Mutex::new((range, chunk)))
                .collect();
            let job = |part: usize| {
                if let Some(slot) = chunks.get(part) {
                    let mut guard = slot.lock().expect("gemm chunk poisoned");
                    let (range, chunk) = &mut *guard;
                    work(range.clone(), chunk);
                }
            };
            pool.run(&job);
        }
    }
}

// ---------------------------------------------------------------------------
// Packed models
// ---------------------------------------------------------------------------

/// One MLP layer in packed form.
#[derive(Debug)]
struct PackedLayer {
    w: PackedMatrix,
    b: Vec<f32>,
}

/// An [`Mlp`] with every layer's weights packed, forward fused.
#[derive(Debug)]
pub struct PackedMlp {
    layers: Vec<PackedLayer>,
    hidden_activation: Activation,
}

impl PackedMlp {
    /// Packs all layers of `m`.
    pub fn pack(m: &Mlp) -> Self {
        let layers = m
            .parameters()
            .into_iter()
            .map(|(w, b)| PackedLayer { w: PackedMatrix::pack(w), b: b.to_vec() })
            .collect();
        PackedMlp { layers, hidden_activation: m.hidden_activation() }
    }

    /// Bytes held by the packed weights and biases.
    pub fn bytes(&self) -> usize {
        self.layers.iter().map(|l| l.w.packed_bytes() + std::mem::size_of_val(&l.b[..])).sum()
    }

    /// Input width expected by the first layer.
    pub fn input_size(&self) -> usize {
        self.layers[0].w.k
    }

    /// Logits for a row range of the batch, written into `out`
    /// (`rows.len() * classes` floats). Bit-identical to `Mlp::forward`.
    fn forward_rows(
        &self,
        kernel: Kernel,
        data: &[f32],
        cols: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let n_layers = self.layers.len();
        let local = rows.len();
        // First layer reads straight from the caller's (possibly shm-backed)
        // batch tensor; subsequent layers ping-pong a local buffer.
        let mut cur: Vec<f32> = Vec::new();
        let mut cur_cols = cols;
        for (li, layer) in self.layers.iter().enumerate() {
            let last = li + 1 == n_layers;
            let act = if last { None } else { Some(self.hidden_activation) };
            let n = layer.w.n;
            let b = Some(layer.b.as_slice());
            if last {
                if li == 0 {
                    gemm_rows(kernel, data, cur_cols, rows.clone(), &layer.w, b, act, out);
                } else {
                    gemm_rows(kernel, &cur, cur_cols, 0..local, &layer.w, b, act, out);
                }
            } else {
                let mut next = vec![0.0f32; local * n];
                if li == 0 {
                    gemm_rows(kernel, data, cur_cols, rows.clone(), &layer.w, b, act, &mut next);
                } else {
                    gemm_rows(kernel, &cur, cur_cols, 0..local, &layer.w, b, act, &mut next);
                }
                cur = next;
                cur_cols = n;
            }
        }
    }

    /// Batch logits, partitioned across `pool`. Bit-identical to
    /// `Mlp::forward` on the same batch. Kernel comes from `LAKE_SIMD` /
    /// CPU detection; see [`PackedMlp::forward_with`].
    pub fn forward(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
    ) -> Matrix {
        self.forward_with(data, rows, cols, pool, Kernel::from_env())
    }

    /// [`PackedMlp::forward`] with an explicit microkernel (bit-identical
    /// for every choice).
    pub fn forward_with(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
        kernel: Kernel,
    ) -> Matrix {
        let kernel = kernel.clamped();
        assert_eq!(cols, self.input_size(), "mlp input width mismatch");
        assert!(data.len() >= rows * cols, "mlp batch buffer too short");
        let classes = self.layers.last().expect("non-empty mlp").w.n;
        let mut out = Matrix::zeros(rows.max(1), classes);
        if rows == 0 {
            return out;
        }
        run_partitioned(pool, rows, classes, out.data_mut(), |range, chunk| {
            self.forward_rows(kernel, data, cols, range, chunk);
        });
        out
    }

    /// Argmax classes for a batch; first maximal index wins on ties,
    /// replicating `Matrix::argmax_rows` (hence `Mlp::classify`).
    pub fn classify(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
    ) -> Vec<usize> {
        self.classify_with(data, rows, cols, pool, Kernel::from_env())
    }

    /// [`PackedMlp::classify`] with an explicit microkernel.
    pub fn classify_with(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
        kernel: Kernel,
    ) -> Vec<usize> {
        let logits = self.forward_with(data, rows, cols, pool, kernel);
        if rows == 0 {
            return Vec::new();
        }
        logits.argmax_rows()
    }
}

/// One LSTM cell in packed form.
#[derive(Debug)]
struct PackedCell {
    input: usize,
    hidden: usize,
    /// Packed `input × 4·hidden` input weights.
    wx: PackedMatrix,
    /// Packed `hidden × 4·hidden` recurrent weights.
    wh: PackedMatrix,
    b: Vec<f32>,
}

/// Gate epilogue shared by every LSTM path (f32 and int8): sigmoid /
/// sigmoid / tanh / sigmoid over the four `hd`-wide `[i, f, g, o]` bands
/// of `z`, then `c = f*c_prev + i*g`, `h = o*tanh(c)`. Kernel-dispatched:
/// the AVX2 path evaluates the shared `fastmath` activations 8 lanes at a
/// time with the identical per-element op sequence, so `h` and `c` match
/// the scalar oracle bit for bit. Elements are independent per `j`, so
/// lane-blocking only reorders *between* elements, never within one.
pub(crate) fn lstm_gate_epilogue(kernel: Kernel, z: &[f32], h: &mut [f32], c: &mut [f32]) {
    match kernel {
        Kernel::Scalar => lstm_gate_epilogue_range(z, h, c, 0),
        // SAFETY: kernels are clamped at every public entry (see
        // `accumulate`), so the target features are present here.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { lstm_gate_epilogue_avx2(z, h, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => lstm_gate_epilogue_range(z, h, c, 0),
    }
}

/// Scalar gate epilogue over `from..h.len()` — the oracle sequence the
/// AVX2 version replicates lane-for-lane, and its tail handler.
fn lstm_gate_epilogue_range(z: &[f32], h: &mut [f32], c: &mut [f32], from: usize) {
    let hd = h.len();
    for j in from..hd {
        let i = crate::fastmath::sigmoid(z[j]);
        let f = crate::fastmath::sigmoid(z[hd + j]);
        let g = crate::fastmath::tanh(z[2 * hd + j]);
        let o = crate::fastmath::sigmoid(z[3 * hd + j]);
        let cn = f * c[j] + i * g;
        c[j] = cn;
        h[j] = o * crate::fastmath::tanh(cn);
    }
}

/// AVX2 gate epilogue: four activations and the cell update, 8 lanes at a
/// time. The `fastmath` SIMD activations are bit-identical to their
/// scalar forms, and `f*c + i*g` / `o*tanh(c)` keep the same separate
/// mul/add sequence, so `h` and `c` match the scalar oracle exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lstm_gate_epilogue_avx2(z: &[f32], h: &mut [f32], c: &mut [f32]) {
    use crate::fastmath::avx2::{sigmoid8, tanh8};
    use std::arch::x86_64::*;
    let hd = h.len();
    let zp = z.as_ptr();
    let mut j = 0;
    while j + 8 <= hd {
        let vi = sigmoid8(_mm256_loadu_ps(zp.add(j)));
        let vf = sigmoid8(_mm256_loadu_ps(zp.add(hd + j)));
        let vg = tanh8(_mm256_loadu_ps(zp.add(2 * hd + j)));
        let vo = sigmoid8(_mm256_loadu_ps(zp.add(3 * hd + j)));
        let vc = _mm256_loadu_ps(c.as_ptr().add(j));
        let cn = _mm256_add_ps(_mm256_mul_ps(vf, vc), _mm256_mul_ps(vi, vg));
        _mm256_storeu_ps(c.as_mut_ptr().add(j), cn);
        _mm256_storeu_ps(h.as_mut_ptr().add(j), _mm256_mul_ps(vo, tanh8(cn)));
        j += 8;
    }
    lstm_gate_epilogue_range(z, h, c, j);
}

impl PackedCell {
    /// One timestep for one row; replicates `LstmCell::step` exactly:
    /// `z = b + x·Wx + h·Wh` with the `== 0.0` skip on `x` and `h`, gates
    /// in `[i, f, g, o]` order, `c = f*c_prev + i*g`, `h = o*tanh(c)`.
    fn step(&self, kernel: Kernel, x: &[f32], h: &mut [f32], c: &mut [f32], z: &mut [f32]) {
        // Accumulators seeded with the bias, then x-products for ascending
        // k (skipping x[k] == 0.0), then h-products — the same k-outer
        // saxpy loops (and therefore the same per-element f32 sequence)
        // as `LstmCell::step`, minus its per-step allocations.
        z.copy_from_slice(&self.b);
        accumulate(kernel, x, &self.wx, 0, 0, z);
        accumulate(kernel, h, &self.wh, 0, 0, z);
        lstm_gate_epilogue(kernel, z, h, c);
    }
}

/// An [`LstmClassifier`] with packed gate and head weights.
#[derive(Debug)]
pub struct PackedLstm {
    cells: Vec<PackedCell>,
    head_w: PackedMatrix,
    head_b: Vec<f32>,
}

impl PackedLstm {
    /// Packs all cells and the head of `m`.
    pub fn pack(m: &LstmClassifier) -> Self {
        let cells = m
            .cells()
            .iter()
            .map(|c| {
                let (wx, wh, b) = c.raw_parts();
                PackedCell {
                    input: c.input_size(),
                    hidden: c.hidden_size(),
                    wx: PackedMatrix::pack(wx),
                    wh: PackedMatrix::pack(wh),
                    b: b.to_vec(),
                }
            })
            .collect();
        let (head_w, head_b) = m.head();
        PackedLstm { cells, head_w: PackedMatrix::pack(head_w), head_b: head_b.to_vec() }
    }

    /// Bytes held by the packed gate weights, biases and head.
    pub fn bytes(&self) -> usize {
        let cells: usize = self
            .cells
            .iter()
            .map(|c| c.wx.packed_bytes() + c.wh.packed_bytes() + std::mem::size_of_val(&c.b[..]))
            .sum();
        cells + self.head_w.packed_bytes() + std::mem::size_of_val(&self.head_b[..])
    }

    /// Feature width expected per timestep.
    pub fn input_size(&self) -> usize {
        self.cells[0].input
    }

    /// Classes for a row range; one batch row is one sequence of `steps`
    /// timesteps of `cols / steps` features, flattened row-major.
    fn classify_rows(
        &self,
        kernel: Kernel,
        data: &[f32],
        cols: usize,
        steps: usize,
        rows: Range<usize>,
        out: &mut [usize],
    ) {
        let feat = cols / steps;
        let local = rows.len();
        let top_hidden = self.cells.last().expect("non-empty lstm").hidden;
        // layer_input[r * steps * width ..] holds row r's per-timestep
        // inputs for the current layer; starts as the raw features.
        let mut layer_input: Vec<f32> = Vec::with_capacity(local * cols);
        for i in rows {
            layer_input.extend_from_slice(&data[i * cols..(i + 1) * cols]);
        }
        let mut width = feat;
        for cell in &self.cells {
            let hd = cell.hidden;
            let zw = 4 * hd;
            let mut layer_out = vec![0.0f32; local * steps * hd];
            let mut h = vec![0.0f32; local * hd];
            let mut c = vec![0.0f32; local * hd];
            // One gate-accumulator row per batch row so the gate GEMM can
            // be KC-blocked *across* the batch below.
            let mut z = vec![0.0f32; local * zw];
            // Batched, cache-blocked gate GEMM: every row of the batch
            // advances through timestep t before any row starts t+1, and
            // within the timestep each KC slice of the packed Wx/Wh panel
            // streams through cache once while all rows consume it. Rows
            // never share state and each z element still sees bias, then
            // ascending-k x products, then ascending-k h products — the
            // exact per-element order of `LstmCell::step`.
            for t in 0..steps {
                for r in 0..local {
                    z[r * zw..(r + 1) * zw].copy_from_slice(&cell.b);
                }
                for kc in (0..width).step_by(TILE_KC) {
                    let kw = TILE_KC.min(width - kc);
                    for r in 0..local {
                        let x0 = (r * steps + t) * width + kc;
                        let x = &layer_input[x0..x0 + kw];
                        accumulate(kernel, x, &cell.wx, kc, 0, &mut z[r * zw..(r + 1) * zw]);
                    }
                }
                for kc in (0..hd).step_by(TILE_KC) {
                    let kw = TILE_KC.min(hd - kc);
                    for r in 0..local {
                        let hr = &h[r * hd + kc..r * hd + kc + kw];
                        accumulate(kernel, hr, &cell.wh, kc, 0, &mut z[r * zw..(r + 1) * zw]);
                    }
                }
                for r in 0..local {
                    let hr = &mut h[r * hd..(r + 1) * hd];
                    let cr = &mut c[r * hd..(r + 1) * hd];
                    lstm_gate_epilogue(kernel, &z[r * zw..(r + 1) * zw], hr, cr);
                    layer_out[(r * steps + t) * hd..(r * steps + t) * hd + hd].copy_from_slice(hr);
                }
            }
            layer_input = layer_out;
            width = hd;
        }
        // Head: see `head_argmax` — identical math to the naive forward.
        let mut logits = vec![0.0f32; self.head_b.len()];
        for (r, slot) in out.iter_mut().enumerate() {
            let last_h = &layer_input
                [(r * steps + steps - 1) * top_hidden..(r * steps + steps) * top_hidden];
            *slot = head_argmax(&self.head_w, &self.head_b, last_h, &mut logits);
        }
    }

    /// Small-batch path: one row at a time through *all* layers, every
    /// scratch buffer reused across rows. The batched `classify_rows`
    /// re-lays the batch out per layer (`layer_input` copy plus fresh
    /// `layer_out`/`h`/`c` allocations) to stream the packed weights once
    /// per timestep — a win that needs a few dozen rows to amortize. Below
    /// [`DEFAULT_POOL_MIN_ROWS`] those allocations were the whole
    /// regression: at batch ≤ 8 the packed path lost to the naive loop
    /// (0.88–0.99×) while doing strictly less arithmetic. Rows never share
    /// state and the per-row op order (layer → timestep → `step`) is the
    /// same in both paths, so the outputs are bit-identical.
    fn classify_rows_lean(
        &self,
        kernel: Kernel,
        data: &[f32],
        cols: usize,
        steps: usize,
        rows: Range<usize>,
        out: &mut [usize],
    ) {
        let feat = cols / steps;
        let top_hidden = self.cells.last().expect("non-empty lstm").hidden;
        let max_hidden = self.cells.iter().map(|c| c.hidden).max().expect("non-empty lstm");
        // Ping-pong sequence buffers sized for the widest layer; `cur`
        // holds the current layer's per-timestep inputs for the one row in
        // flight, exactly as `layer_input` does per batch above.
        // Both sized for the widest layer: swaps across rows mean either
        // buffer can end up holding the raw `feat`-wide features next.
        let mut cur = vec![0.0f32; steps * feat.max(max_hidden)];
        let mut next = vec![0.0f32; steps * feat.max(max_hidden)];
        let mut h = vec![0.0f32; max_hidden];
        let mut c = vec![0.0f32; max_hidden];
        let mut z = vec![0.0f32; 4 * max_hidden];
        let mut logits = vec![0.0f32; self.head_b.len()];
        for (slot, i) in out.iter_mut().zip(rows) {
            cur[..cols].copy_from_slice(&data[i * cols..(i + 1) * cols]);
            let mut width = feat;
            for cell in &self.cells {
                let hd = cell.hidden;
                h[..hd].fill(0.0);
                c[..hd].fill(0.0);
                for t in 0..steps {
                    let (x, rest) = (&cur[t * width..], &mut next[t * hd..]);
                    cell.step(kernel, &x[..width], &mut h[..hd], &mut c[..hd], &mut z[..4 * hd]);
                    rest[..hd].copy_from_slice(&h[..hd]);
                }
                std::mem::swap(&mut cur, &mut next);
                width = hd;
            }
            *slot = head_argmax(
                &self.head_w,
                &self.head_b,
                &cur[(steps - 1) * top_hidden..steps * top_hidden],
                &mut logits,
            );
        }
    }

    /// Argmax classes for a batch of flattened sequences; bit-identical to
    /// looping `LstmClassifier::classify` row by row. Kernel comes from
    /// `LAKE_SIMD` / CPU detection; see [`PackedLstm::classify_with`].
    pub fn classify(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
        pool: Option<&WorkerPool>,
    ) -> Vec<usize> {
        self.classify_with(data, rows, cols, steps, pool, Kernel::from_env())
    }

    /// [`PackedLstm::classify`] with an explicit microkernel (bit-identical
    /// for every choice).
    pub fn classify_with(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
        pool: Option<&WorkerPool>,
        kernel: Kernel,
    ) -> Vec<usize> {
        let kernel = kernel.clamped();
        assert!(steps > 0 && cols.is_multiple_of(steps), "bad sequence shape");
        assert_eq!(cols / steps, self.input_size(), "lstm feature width mismatch");
        assert!(data.len() >= rows * cols, "lstm batch buffer too short");
        let mut out = vec![0usize; rows];
        if rows == 0 {
            return out;
        }
        run_partitioned(pool, rows, 1, &mut out, |range, chunk| {
            // A whole batch run inline under the pool work-size floor also
            // skips the batched re-layout: the same threshold that says
            // "fan-out costs more than it buys" marks where the per-layer
            // batch allocations cost more than the weight-streaming they
            // enable. Pooled parts (always fewer rows than the batch) keep
            // the batched path.
            if range.len() == rows && rows < DEFAULT_POOL_MIN_ROWS {
                self.classify_rows_lean(kernel, data, cols, steps, range, chunk)
            } else {
                self.classify_rows(kernel, data, cols, steps, range, chunk)
            }
        });
        out
    }
}

/// Head logits + argmax for one row: logits seeded with the bias then
/// accumulated by k-outer saxpy with no zero skip, exactly as
/// `LstmClassifier::forward`; argmax keeps the *last* maximal index,
/// matching `max_by(partial_cmp)`. Shared by the f32 and int8 LSTM paths
/// (the int8 format keeps its head in f32 — it is a few dozen floats).
pub(crate) fn head_argmax(
    head_w: &PackedMatrix,
    head_b: &[f32],
    last_h: &[f32],
    logits: &mut [f32],
) -> usize {
    logits.copy_from_slice(head_b);
    for (k, &hv) in last_h.iter().enumerate() {
        let row = head_w.row(k);
        for (lj, &wj) in logits.iter_mut().zip(row) {
            *lj += hv * wj;
        }
    }
    let mut best = 0usize;
    let mut best_v = logits[0];
    for (j, &v) in logits.iter().enumerate().skip(1) {
        match v.partial_cmp(&best_v).expect("no NaN logits") {
            std::cmp::Ordering::Less => {}
            _ => {
                best = j;
                best_v = v;
            }
        }
    }
    best
}

/// A packed model, keyed in the cache by model id.
#[derive(Debug)]
pub enum PackedModel {
    /// Packed MLP.
    Mlp(PackedMlp),
    /// Packed LSTM classifier.
    Lstm(PackedLstm),
    /// Packed int8 MLP.
    QuantMlp(crate::quant::PackedQuantMlp),
    /// Packed int8 LSTM classifier.
    QuantLstm(crate::quant::PackedQuantLstm),
}

impl PackedModel {
    /// Bytes held by the packed buffers.
    pub fn bytes(&self) -> usize {
        match self {
            PackedModel::Mlp(m) => m.bytes(),
            PackedModel::Lstm(m) => m.bytes(),
            PackedModel::QuantMlp(m) => m.bytes(),
            PackedModel::QuantLstm(m) => m.bytes(),
        }
    }
}

// ---------------------------------------------------------------------------
// Cache + engine
// ---------------------------------------------------------------------------

/// Per-model cache of packed weights, keyed by (model id, version,
/// [`ModelFormat`]).
///
/// Packing is paid once per resident version; versioned keys mean an
/// in-flight call pinned to version `v` and new calls on `v+1` each hit
/// their own packed form during a hot-swap window, and the format key
/// keeps an f32 oracle and an int8 sibling distinct. An entry lives as
/// long as its version's page in the model store: the daemon wires the
/// store's release hook to [`PackedModelCache::release`], so eviction,
/// retirement and unload drop the pack with the page, and the packed
/// bytes stay bounded by the store's budget plus its pinned pages. A
/// refault of an evicted model repacks.
#[derive(Debug, Default)]
pub struct PackedModelCache {
    entries: Mutex<HashMap<(u64, u64, ModelFormat), Arc<PackedModel>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PackedModelCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached packed form of `(id, version, format)`, packing via `pack`
    /// on miss. `is_kind` guards against an id being reused by a different
    /// model family.
    fn get_or_pack(
        &self,
        id: u64,
        version: u64,
        format: ModelFormat,
        is_kind: impl Fn(&PackedModel) -> bool,
        pack: impl FnOnce() -> PackedModel,
    ) -> Arc<PackedModel> {
        let mut entries = self.entries.lock().expect("packed cache poisoned");
        if let Some(hit) = entries.get(&(id, version, format)) {
            if is_kind(hit) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let packed = Arc::new(pack());
        entries.insert((id, version, format), Arc::clone(&packed));
        packed
    }

    /// Drops the packed entries of `(id, version)`, every format. A call
    /// still running on one keeps its `Arc` until it returns.
    pub fn release(&self, id: u64, version: u64) {
        let mut entries = self.entries.lock().expect("packed cache poisoned");
        for format in [ModelFormat::F32, ModelFormat::Int8] {
            entries.remove(&(id, version, format));
        }
    }

    /// Drops every entry (daemon crash wipes model state).
    pub fn clear(&self) {
        self.entries.lock().expect("packed cache poisoned").clear();
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Bytes held by the cached packed models.
    pub fn packed_bytes(&self) -> usize {
        self.entries.lock().expect("packed cache poisoned").values().map(|p| p.bytes()).sum()
    }
}

/// Point-in-time counters for the fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Pool width, the calling thread included (after the host-core clamp).
    pub workers: usize,
    /// Pool width originally requested, before clamping to host cores.
    pub workers_requested: usize,
    /// Name of the active microkernel (`avx2` or `scalar`).
    pub simd: &'static str,
    /// Pool jobs dispatched (each splits into `workers` parts).
    pub pool_runs: u64,
    /// Worker-slots that received a non-empty row range.
    pub pool_tasks: u64,
    /// Batches small enough to run inline on the caller thread.
    pub direct_runs: u64,
    /// Batches that *could* have pooled (multi-row, multi-worker) but ran
    /// inline because they were under the work-size threshold — fan-out
    /// and join cost more than they buy below it.
    pub pool_bypassed: u64,
    /// Packed-weight cache hits.
    pub cache_hits: u64,
    /// Packed-weight cache misses (a packing pass was paid).
    pub cache_misses: u64,
    /// Bytes held by the cached packed models right now.
    pub packed_bytes: usize,
}

impl EngineStats {
    /// Fraction of dispatched worker-slots that carried work, in [0, 1].
    /// 1.0 means every pool fan-out kept every worker busy.
    pub fn pool_utilization(&self) -> f64 {
        let slots = self.pool_runs.saturating_mul(self.workers as u64);
        if slots == 0 {
            return 0.0;
        }
        self.pool_tasks as f64 / slots as f64
    }
}

/// Default pool work-size threshold: batches under this many rows run
/// inline on the caller. Measured floor, not a guess — the PR 4 scaling
/// numbers (`BENCH_PR4.json`) showed an 8-row LSTM batch *losing* to the
/// naive path under 4 workers (0.88×): per-row work is microseconds, so
/// the pool's fan-out/join handshake dominates until a few dozen rows.
pub const DEFAULT_POOL_MIN_ROWS: usize = 32;

/// The inference fast path: fixed worker pool + packed model cache.
///
/// Outputs are bit-identical to the naive `Mlp::classify` /
/// `LstmClassifier::classify` loops regardless of the worker count.
#[derive(Debug)]
pub struct InferenceEngine {
    pool: WorkerPool,
    cache: PackedModelCache,
    pool_min_rows: usize,
    workers_requested: usize,
    kernel: Kernel,
    tasks: AtomicU64,
    direct: AtomicU64,
    bypassed: AtomicU64,
}

impl InferenceEngine {
    /// Engine with a pool `workers` wide, caller included (clamped to
    /// the host's available cores — an oversubscribed pool only buys
    /// context-switch latency, the BENCH_PR4 p99 blowup), the default
    /// work-size threshold ([`DEFAULT_POOL_MIN_ROWS`]), and the
    /// `LAKE_SIMD`-selected kernel.
    pub fn new(workers: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_host_cores(workers, cores)
    }

    /// [`InferenceEngine::new`] with an explicit host core count, for
    /// tests and benches that need a deterministic clamp regardless of the
    /// machine they run on.
    pub fn with_host_cores(workers: usize, host_cores: usize) -> Self {
        let effective = workers.clamp(1, host_cores.max(1));
        InferenceEngine {
            pool: WorkerPool::new(effective),
            cache: PackedModelCache::new(),
            pool_min_rows: DEFAULT_POOL_MIN_ROWS,
            workers_requested: workers,
            kernel: Kernel::from_env(),
            tasks: AtomicU64::new(0),
            direct: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
        }
    }

    /// Overrides the pool work-size threshold: batches with fewer than
    /// `min_rows` rows run inline on the caller thread even when a
    /// multi-worker pool is available. `0`/`1` disables the bypass
    /// (every multi-row batch pools — the pre-threshold behaviour).
    pub fn with_pool_threshold(mut self, min_rows: usize) -> Self {
        self.pool_min_rows = min_rows;
        self
    }

    /// Overrides the microkernel (default: `LAKE_SIMD` / CPU detection).
    /// Requests the CPU cannot honor clamp down to the best available.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel.clamped();
        self
    }

    /// The microkernel this engine dispatches to.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The active pool work-size threshold.
    pub fn pool_threshold(&self) -> usize {
        self.pool_min_rows
    }

    /// The underlying pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The packed-model cache.
    pub fn cache(&self) -> &PackedModelCache {
        &self.cache
    }

    fn account(&self, rows: usize) -> Option<&WorkerPool> {
        if self.pool.workers() > 1 && rows > 1 {
            if rows < self.pool_min_rows {
                // Multi-worker pool available, but the batch is under the
                // work-size floor: the fan-out/join handshake would cost
                // more than the parallelism buys back, so run inline.
                self.bypassed.fetch_add(1, Ordering::Relaxed);
                self.direct.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let active = partition(rows, self.pool.workers()).len() as u64;
            self.tasks.fetch_add(active, Ordering::Relaxed);
            Some(&self.pool)
        } else {
            self.direct.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Classifies a row-major MLP batch through the packed fast path.
    /// `version` keys the packed cache so hot-swapped weights never serve
    /// a call pinned to the previous version.
    pub fn classify_mlp(
        &self,
        id: u64,
        version: u64,
        model: &Mlp,
        data: &[f32],
        rows: usize,
        cols: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::F32,
            |m| matches!(m, PackedModel::Mlp(_)),
            || PackedModel::Mlp(PackedMlp::pack(model)),
        );
        let PackedModel::Mlp(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, pool, self.kernel)
    }

    /// Classifies a row-major batch through an int8 quantized MLP. Same
    /// cache/pool behaviour as [`InferenceEngine::classify_mlp`]; the
    /// packed entry is keyed [`ModelFormat::Int8`] so an f32 oracle under
    /// the same id never collides.
    pub fn classify_quant_mlp(
        &self,
        id: u64,
        version: u64,
        model: &crate::quant::QuantizedMlp,
        data: &[f32],
        rows: usize,
        cols: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::Int8,
            |m| matches!(m, PackedModel::QuantMlp(_)),
            || PackedModel::QuantMlp(crate::quant::PackedQuantMlp::pack(model)),
        );
        let PackedModel::QuantMlp(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, pool, self.kernel)
    }

    /// Classifies a batch of flattened sequences through an int8 quantized
    /// LSTM. Same cache/pool behaviour as
    /// [`InferenceEngine::classify_lstm`].
    #[allow(clippy::too_many_arguments)] // id+version key the packed cache
    pub fn classify_quant_lstm(
        &self,
        id: u64,
        version: u64,
        model: &crate::quant::QuantizedLstm,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::Int8,
            |m| matches!(m, PackedModel::QuantLstm(_)),
            || PackedModel::QuantLstm(crate::quant::PackedQuantLstm::pack(model)),
        );
        let PackedModel::QuantLstm(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, steps, pool, self.kernel)
    }

    /// Classifies a batch of flattened LSTM sequences through the packed
    /// fast path. `version` keys the packed cache so hot-swapped weights
    /// never serve a call pinned to the previous version.
    #[allow(clippy::too_many_arguments)] // id+version key the packed cache
    pub fn classify_lstm(
        &self,
        id: u64,
        version: u64,
        model: &LstmClassifier,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::F32,
            |m| matches!(m, PackedModel::Lstm(_)),
            || PackedModel::Lstm(PackedLstm::pack(model)),
        );
        let PackedModel::Lstm(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, steps, pool, self.kernel)
    }

    /// Drops the packed entries of `(id, version)`
    /// ([`PackedModelCache::release`]).
    pub fn release(&self, id: u64, version: u64) {
        self.cache.release(id, version);
    }

    /// Drops every packed entry.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let (cache_hits, cache_misses) = self.cache.stats();
        EngineStats {
            workers: self.pool.workers(),
            workers_requested: self.workers_requested,
            simd: self.kernel.name(),
            pool_runs: self.pool.runs(),
            pool_tasks: self.tasks.load(Ordering::Relaxed),
            direct_runs: self.direct.load(Ordering::Relaxed),
            pool_bypassed: self.bypassed.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            packed_bytes: self.cache.packed_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize, sparse: bool) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                if sparse && rng.gen_range(0.0..1.0f32) < 0.3 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0f32)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn packed_layout_is_row_major_and_padded() {
        let b = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let pb = PackedMatrix::pack(&b);
        assert_eq!(pb.k(), 2);
        assert_eq!(pb.n(), 3);
        assert_eq!(pb.stride() % PACK_LANE, 0);
        assert_eq!(pb.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(pb.row(1), &[4.0, 5.0, 6.0]);
    }

    /// Alignment audit: every packed row must start on a 64-byte boundary
    /// — SIMD kernels assume rows never straddle a cache-line start. The
    /// input `Matrix` carries no alignment guarantee (kernels only
    /// broadcast single elements from it), so the packed side is the one
    /// that has to hold.
    #[test]
    fn packed_rows_are_64_byte_aligned_for_all_shapes() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(k, n) in &[(1, 1), (2, 3), (7, 15), (16, 16), (17, 31), (64, 256), (3, 100)] {
            let pb = PackedMatrix::pack(&rand_matrix(&mut rng, k, n, false));
            assert!(pb.base_aligned(), "({k},{n}) base not aligned");
            for kk in 0..k {
                assert_eq!(pb.row(kk).as_ptr() as usize % 64, 0, "({k},{n}) row {kk}");
            }
        }
    }

    /// Every available kernel must agree with the scalar oracle to the
    /// bit, across shapes that exercise the 32/16-column register blocks,
    /// the narrow-vector loops, the scalar tails, and the KC/NC tiling
    /// boundaries.
    #[test]
    fn simd_kernels_are_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (4, 31, 33),
            (2, 300, 40), // k spans two KC tiles
            (5, 64, 300), // n spans two NC tiles
            (2, 257, 260),
            (64, 256, 31),
        ] {
            let a = rand_matrix(&mut rng, m, k, true);
            let b = rand_matrix(&mut rng, k, n, false);
            let pb = PackedMatrix::pack(&b);
            let want = a.matmul(&b);
            for kernel in [Kernel::Scalar, Kernel::Avx2] {
                if !kernel.available() {
                    continue;
                }
                let got = matmul_packed_with(&a, &pb, None, kernel);
                for (x, y) in want.data().iter().zip(got.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} ({m},{k},{n})", kernel.name());
                }
            }
        }
    }

    #[test]
    fn kernel_requests_clamp_to_available() {
        // `auto` resolves to the detected best; `avx2` is honored exactly
        // where available and degrades to scalar elsewhere.
        let best = Kernel::detect();
        assert_eq!(Kernel::from_name("auto"), Some(best));
        assert_eq!(Kernel::from_name("scalar"), Some(Kernel::Scalar));
        assert_eq!(Kernel::from_name("nope"), None);
        // The retired SSE4.1 tier's names alias the scalar oracle.
        for alias in ["sse", "sse4.1", "sse41"] {
            assert_eq!(Kernel::from_name(alias), Some(Kernel::Scalar), "{alias}");
        }
        let got = Kernel::from_name(Kernel::Avx2.name()).unwrap();
        assert!(got.available());
        if Kernel::Avx2.available() {
            assert_eq!(got, Kernel::Avx2);
        }
    }

    #[test]
    fn packed_matmul_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in
            &[(1, 1, 1), (2, 3, 4), (17, 33, 9), (64, 256, 31), (5, 16, 16), (3, 100, 2)]
        {
            let a = rand_matrix(&mut rng, m, k, true);
            let b = rand_matrix(&mut rng, k, n, false);
            let pb = PackedMatrix::pack(&b);
            assert_bits_eq(&a.matmul(&b), &matmul_packed(&a, &pb, None));
        }
    }

    #[test]
    fn packed_matmul_parallel_is_bit_identical_for_any_worker_count() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = rand_matrix(&mut rng, 67, 48, true);
        let b = rand_matrix(&mut rng, 48, 24, false);
        let pb = PackedMatrix::pack(&b);
        let want = a.matmul(&b);
        for workers in [1, 2, 3, 4, 7] {
            let pool = WorkerPool::new(workers);
            assert_bits_eq(&want, &matmul_packed(&a, &pb, Some(&pool)));
        }
    }

    #[test]
    fn packed_mlp_classify_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let m = Mlp::new(&[12, 32, 16, 4], act, &mut rng);
            let x = rand_matrix(&mut rng, 65, 12, true);
            let want = m.classify(&x);
            let packed = PackedMlp::pack(&m);
            let pool = WorkerPool::new(4);
            assert_eq!(want, packed.classify(x.data(), 65, 12, None));
            assert_eq!(want, packed.classify(x.data(), 65, 12, Some(&pool)));
        }
    }

    #[test]
    fn packed_mlp_logits_match_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Mlp::new(&[8, 24, 3], Activation::Relu, &mut rng);
        let x = rand_matrix(&mut rng, 9, 8, true);
        let packed = PackedMlp::pack(&m);
        assert_bits_eq(&m.forward(&x), &packed.forward(x.data(), 9, 8, None));
    }

    #[test]
    fn packed_lstm_classify_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = LstmClassifier::new(6, 10, 2, 5, &mut rng);
        let (rows, steps, feat) = (33, 4, 6);
        let cols = steps * feat;
        let x = rand_matrix(&mut rng, rows, cols, true);
        let want: Vec<usize> = (0..rows)
            .map(|r| {
                let seq: Vec<Vec<f32>> =
                    (0..steps).map(|t| x.row(r)[t * feat..(t + 1) * feat].to_vec()).collect();
                m.classify(&seq)
            })
            .collect();
        let packed = PackedLstm::pack(&m);
        let pool = WorkerPool::new(3);
        assert_eq!(want, packed.classify(x.data(), rows, cols, steps, None));
        assert_eq!(want, packed.classify(x.data(), rows, cols, steps, Some(&pool)));
    }

    /// Regression (small-batch LSTM, BENCH_PR4): batches under the pool
    /// floor take the per-row lean path — it must stay bit-identical to
    /// the naive loop on both sides of the `DEFAULT_POOL_MIN_ROWS`
    /// cutover, including batch 1.
    #[test]
    fn lean_lstm_path_matches_naive_bitwise_across_the_cutover() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = LstmClassifier::new(5, 9, 2, 4, &mut rng);
        let (steps, feat) = (3, 5);
        let cols = steps * feat;
        let packed = PackedLstm::pack(&m);
        for rows in [1, 2, 8, DEFAULT_POOL_MIN_ROWS - 1, DEFAULT_POOL_MIN_ROWS] {
            let x = rand_matrix(&mut rng, rows, cols, true);
            let want: Vec<usize> = (0..rows)
                .map(|r| {
                    let seq: Vec<Vec<f32>> =
                        (0..steps).map(|t| x.row(r)[t * feat..(t + 1) * feat].to_vec()).collect();
                    m.classify(&seq)
                })
                .collect();
            assert_eq!(want, packed.classify(x.data(), rows, cols, steps, None), "rows={rows}");
        }
    }

    #[test]
    fn lstm_head_tie_break_keeps_last_maximum() {
        // A classifier whose head weights are all zero produces logits equal
        // to the head bias; equal biases must resolve to the LAST class,
        // matching `max_by(partial_cmp)`.
        let mut rng = StdRng::seed_from_u64(2);
        let m = LstmClassifier::new(3, 4, 1, 3, &mut rng);
        let cells = m.cells().to_vec();
        let zero_head = Matrix::zeros(4, 3);
        let tied = LstmClassifier::from_parts(cells, zero_head, vec![1.0, 1.0, 1.0]);
        let seq = vec![vec![0.5, -0.25, 0.0]; 2];
        assert_eq!(tied.classify(&seq), 2);
        let packed = PackedLstm::pack(&tied);
        assert_eq!(packed.classify(&[0.5, -0.25, 0.0, 0.5, -0.25, 0.0], 1, 6, 2, None), vec![2]);
    }

    #[test]
    fn mlp_tie_break_keeps_first_maximum() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Mlp::from_parameters(vec![(Matrix::zeros(3, 2), vec![1.0, 1.0])], Activation::Relu);
        let x = rand_matrix(&mut rng, 4, 3, false);
        assert_eq!(m.classify(&x), vec![0, 0, 0, 0]);
        let packed = PackedMlp::pack(&m);
        assert_eq!(packed.classify(x.data(), 4, 3, None), vec![0, 0, 0, 0]);
    }

    #[test]
    fn engine_caches_packing_and_counts_utilization() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        // Explicit host-core override: the CI host may have a single core,
        // which would clamp the pool to one worker and bypass it entirely.
        let engine = InferenceEngine::with_host_cores(2, 2).with_pool_threshold(2);
        let x = rand_matrix(&mut rng, 8, 4, false);
        let a = engine.classify_mlp(7, 1, &m, x.data(), 8, 4);
        let b = engine.classify_mlp(7, 1, &m, x.data(), 8, 4);
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.pool_runs, 2);
        assert_eq!(stats.pool_bypassed, 0);
        assert!(stats.pool_utilization() > 0.9, "{stats:?}");

        let one = PackedMlp::pack(&m).bytes();
        assert_eq!(engine.stats().packed_bytes, one);
        engine.release(7, 2);
        assert_eq!(engine.stats().packed_bytes, one, "another version's release keeps v1");
        engine.release(7, 1);
        assert_eq!(engine.stats().packed_bytes, 0);
        engine.classify_mlp(7, 1, &m, x.data(), 8, 4);
        assert_eq!(engine.stats().cache_misses, 2);
        engine.clear_cache();
        assert_eq!(engine.stats().packed_bytes, 0);
    }

    #[test]
    fn single_row_batches_run_inline() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        let engine = InferenceEngine::with_host_cores(4, 4);
        let x = rand_matrix(&mut rng, 1, 4, false);
        assert_eq!(engine.classify_mlp(1, 1, &m, x.data(), 1, 4), m.classify(&x));
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 0);
        assert_eq!(stats.direct_runs, 1);
    }

    #[test]
    fn small_batches_bypass_the_pool() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        // 4 workers, default threshold (32): an 8-row batch is exactly the
        // regressing shape from the PR 4 scaling run and must stay inline.
        let engine = InferenceEngine::with_host_cores(4, 4);
        assert_eq!(engine.pool_threshold(), DEFAULT_POOL_MIN_ROWS);
        let small = rand_matrix(&mut rng, 8, 4, false);
        assert_eq!(engine.classify_mlp(3, 1, &m, small.data(), 8, 4), m.classify(&small));
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 0);
        assert_eq!(stats.direct_runs, 1);
        assert_eq!(stats.pool_bypassed, 1);

        // At the threshold the pool engages again, with identical output.
        let big = rand_matrix(&mut rng, DEFAULT_POOL_MIN_ROWS, 4, false);
        assert_eq!(
            engine.classify_mlp(3, 1, &m, big.data(), DEFAULT_POOL_MIN_ROWS, 4),
            m.classify(&big)
        );
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 1);
        assert_eq!(stats.pool_bypassed, 1);

        // Single-row batches are direct but NOT counted as bypassed: the
        // pool was never a candidate for them.
        let one = rand_matrix(&mut rng, 1, 4, false);
        engine.classify_mlp(3, 1, &m, one.data(), 1, 4);
        let stats = engine.stats();
        assert_eq!(stats.direct_runs, 2);
        assert_eq!(stats.pool_bypassed, 1);
    }

    /// Regression (BENCH_PR4 oversubscription): a 2-worker pool on a
    /// 1-core host showed a 4.5× p99 blowup at batch 1 — two threads
    /// context-switching over one core buy nothing and cost latency. The
    /// engine now clamps effective workers to the host core count, so on
    /// an oversubscribed host every batch runs inline (the direct/bypass
    /// floor covers what the pool used to thrash on).
    #[test]
    fn oversubscribed_workers_clamp_to_host_cores() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        let engine = InferenceEngine::with_host_cores(4, 1);
        let stats = engine.stats();
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.workers_requested, 4);

        // A batch far above the pool threshold still runs inline: with one
        // effective worker the pool is never a candidate.
        let big = rand_matrix(&mut rng, 2 * DEFAULT_POOL_MIN_ROWS, 4, false);
        assert_eq!(
            engine.classify_mlp(5, 1, &m, big.data(), 2 * DEFAULT_POOL_MIN_ROWS, 4),
            m.classify(&big)
        );
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 0);
        assert_eq!(stats.direct_runs, 1);

        // The default constructor also clamps to the real host.
        let auto = InferenceEngine::new(64);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(auto.stats().workers <= cores);
        assert_eq!(auto.stats().workers_requested, 64);
    }

    #[test]
    fn worker_pool_survives_panicking_job() {
        let pool = WorkerPool::new(2);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(panicked.is_err());
        // The pool stays usable for well-behaved jobs afterwards.
        let hits = AtomicU64::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    /// A helper stuck in one caller's run must not stall another caller:
    /// the second caller claims every part the helper cannot take and
    /// finishes on its own thread.
    #[test]
    fn busy_helper_never_stalls_another_run() {
        use std::sync::Barrier;
        use std::time::Duration;
        let pool = WorkerPool::new(2);
        // Both of run A's parts plus this thread meet here twice: once when
        // A's parts have been entered, once to release them.
        let gate = Barrier::new(3);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.run(&|_| {
                    gate.wait();
                    gate.wait();
                })
            });
            gate.wait();
            s.spawn(|| {
                let caller = std::thread::current().id();
                let on_caller = AtomicUsize::new(0);
                pool.run(&|_| {
                    if std::thread::current().id() == caller {
                        on_caller.fetch_add(1, Ordering::Relaxed);
                    }
                });
                let _ = tx.send(on_caller.into_inner());
            });
            let second = rx.recv_timeout(Duration::from_secs(10));
            gate.wait();
            assert_eq!(second, Ok(2), "second run must finish both parts on its caller");
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Values with a healthy density of exact zeros (both signs) so the
    /// `a == 0.0` skip path is exercised — dropping or reordering the skip
    /// breaks bit identity as soon as rounding order matters.
    fn sparse_f32() -> impl Strategy<Value = f32> {
        prop_oneof![Just(0.0f32), Just(-0.0f32), -10.0f32..10.0]
    }

    proptest! {
        /// Packed GEMM is bit-identical to the naive matmul across shapes
        /// (and therefore packed strides), sparsity, and worker counts.
        #[test]
        fn packed_matmul_bit_identical(
            (m, k, n) in (1usize..32, 1usize..48, 1usize..24),
            workers in 1usize..5,
            a_data in proptest::collection::vec(sparse_f32(), 32 * 48),
            b_data in proptest::collection::vec(sparse_f32(), 48 * 24),
        ) {
            let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
            let b = Matrix::from_vec(k, n, b_data[..k * n].to_vec());
            let pb = PackedMatrix::pack(&b);
            let want = a.matmul(&b);
            let serial = matmul_packed(&a, &pb, None);
            let pool = WorkerPool::new(workers);
            let parallel = matmul_packed(&a, &pb, Some(&pool));
            for ((x, y), z) in want.data().iter().zip(serial.data()).zip(parallel.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
                prop_assert_eq!(x.to_bits(), z.to_bits());
            }
        }

        /// Kernel-dispatch equivalence: every kernel the host supports
        /// (scalar always, AVX2 when detected) produces bit-identical
        /// output for arbitrary shapes and sparsity — the scalar oracle
        /// transfers its chaos-invariant guarantee to the SIMD paths.
        #[test]
        fn kernel_dispatch_bit_identical(
            (m, k, n) in (1usize..12, 1usize..80, 1usize..80),
            a_data in proptest::collection::vec(sparse_f32(), 12 * 80),
            b_data in proptest::collection::vec(sparse_f32(), 80 * 80),
        ) {
            let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
            let b = Matrix::from_vec(k, n, b_data[..k * n].to_vec());
            let pb = PackedMatrix::pack(&b);
            let want = matmul_packed_with(&a, &pb, None, Kernel::Scalar);
            let kernel = Kernel::Avx2;
            if kernel.available() {
                let got = matmul_packed_with(&a, &pb, None, kernel);
                for (x, y) in want.data().iter().zip(got.data()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }

        /// The packed MLP forward (fused bias+activation epilogue, any
        /// worker count) classifies bit-identically to `Mlp::classify`
        /// across layer shapes and batch sizes.
        #[test]
        fn packed_mlp_classify_equivalent(
            (input, hidden, classes) in (1usize..10, 1usize..24, 2usize..6),
            rows in 1usize..80,
            workers in 1usize..4,
            act_pick in 0u8..3,
            seed in 0u64..u64::MAX,
            x_data in proptest::collection::vec(sparse_f32(), 80 * 10),
        ) {
            let act = match act_pick {
                0 => Activation::Relu,
                1 => Activation::Sigmoid,
                _ => Activation::Tanh,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let model = Mlp::new(&[input, hidden, classes], act, &mut rng);
            let x = Matrix::from_vec(rows, input, x_data[..rows * input].to_vec());
            let want = model.classify(&x);
            let packed = PackedMlp::pack(&model);
            let pool = WorkerPool::new(workers);
            prop_assert_eq!(&want, &packed.classify(x.data(), rows, input, None));
            prop_assert_eq!(&want, &packed.classify(x.data(), rows, input, Some(&pool)));
            let logits = packed.forward(x.data(), rows, input, Some(&pool));
            let naive = model.forward(&x);
            for (x, y) in naive.data().iter().zip(logits.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// The batched packed LSTM classifies every row bit-identically to
        /// looping `LstmClassifier::classify` one sequence at a time.
        #[test]
        fn packed_lstm_classify_equivalent(
            (feat, hidden, layers, classes) in (1usize..6, 1usize..10, 1usize..3, 2usize..5),
            (rows, steps) in (1usize..32, 1usize..5),
            workers in 1usize..4,
            seed in 0u64..u64::MAX,
            x_data in proptest::collection::vec(sparse_f32(), 32 * 5 * 6),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = LstmClassifier::new(feat, hidden, layers, classes, &mut rng);
            let cols = steps * feat;
            let data = &x_data[..rows * cols];
            let want: Vec<usize> = (0..rows)
                .map(|r| {
                    let seq: Vec<Vec<f32>> = (0..steps)
                        .map(|t| data[r * cols + t * feat..r * cols + (t + 1) * feat].to_vec())
                        .collect();
                    model.classify(&seq)
                })
                .collect();
            let packed = PackedLstm::pack(&model);
            let pool = WorkerPool::new(workers);
            prop_assert_eq!(&want, &packed.classify(data, rows, cols, steps, None));
            prop_assert_eq!(&want, &packed.classify(data, rows, cols, steps, Some(&pool)));
        }

        /// Four threads share one pool: every forward stays bit-identical
        /// to the naive one while runs from other threads overlap it, and
        /// every part of every run executes exactly once.
        #[test]
        fn concurrent_callers_share_one_pool(
            width in 1usize..5,
            rows in proptest::collection::vec(1usize..301, 4 * 3),
            seed in 0u64..u64::MAX,
        ) {
            const FEAT: usize = 5;
            const STEPS: usize = 3;
            const COLS: usize = FEAT * STEPS;
            let mut rng = StdRng::seed_from_u64(seed);
            let mlp = Mlp::new(&[COLS, 20, 4], Activation::Relu, &mut rng);
            let lstm = LstmClassifier::new(FEAT, 6, 1, 3, &mut rng);
            let (packed_mlp, packed_lstm) = (PackedMlp::pack(&mlp), PackedLstm::pack(&lstm));
            let pool = WorkerPool::new(width);
            let check = |x: &Matrix| {
                let rows = x.rows();
                let got = packed_mlp.forward(x.data(), rows, COLS, Some(&pool));
                for (a, b) in mlp.forward(x).data().iter().zip(got.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "mlp, {rows} rows");
                }
                let want: Vec<usize> = (0..rows)
                    .map(|r| {
                        let seq: Vec<Vec<f32>> =
                            x.row(r).chunks(FEAT).map(<[f32]>::to_vec).collect();
                        lstm.classify(&seq)
                    })
                    .collect();
                let got = packed_lstm.classify(x.data(), rows, COLS, STEPS, Some(&pool));
                assert_eq!(want, got, "lstm, {rows} rows");
                let ran: Vec<AtomicUsize> = (0..width).map(|_| AtomicUsize::new(0)).collect();
                pool.run(&|part| {
                    ran[part].fetch_add(1, Ordering::Relaxed);
                });
                assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1), "parts not run once");
            };
            let batches: Vec<Matrix> = rows
                .iter()
                .map(|&r| {
                    let data = (0..r * COLS)
                        .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-2.0..2.0f32) })
                        .collect();
                    Matrix::from_vec(r, COLS, data)
                })
                .collect();
            std::thread::scope(|s| {
                for calls in batches.chunks(3) {
                    s.spawn(move || calls.iter().for_each(check));
                }
            });
        }
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;

    #[test]
    #[ignore]
    fn epilogue_share() {
        let hd = 64usize;
        let mut z = vec![0.3f32; 4 * hd];
        let mut h = vec![0.1f32; hd];
        let mut c = vec![0.2f32; hd];
        let reps = 256 * 8 * 10; // rows x steps x 10
        for kernel in [Kernel::Scalar, Kernel::detect()] {
            let t = std::time::Instant::now();
            for _ in 0..reps {
                for (i, v) in z.iter_mut().enumerate() {
                    *v = 0.3 + (i as f32) * 1e-3;
                }
                lstm_gate_epilogue(kernel, &z, &mut h, &mut c);
            }
            let e = t.elapsed().as_secs_f64() * 1e6 / 10.0;
            println!("{} epilogue for 256 rows x 8 steps: {e:.0}us", kernel.name());
        }
    }
}
