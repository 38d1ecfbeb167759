//! Int8 quantized inference: a *separate model format*, not a faster mode
//! of the f32 engine.
//!
//! The f32 packed path is the correctness oracle — every kernel is
//! bit-identical to the naive loops, which is what the chaos invariants
//! compare. Quantization necessarily changes the numbers, so it lives in
//! its own model family ([`QuantizedMlp`] / [`QuantizedLstm`]) with its own
//! serialized kinds and its own acceptance criterion: an accuracy delta
//! (≤ 0.5% top-1 on the LinnOS/Kleio/MLLB workloads) instead of bit
//! equality.
//!
//! **Scheme.** Symmetric linear quantization. Weights get one static scale
//! per *output column* (`s_j = max_k |w[k][j]| / 127`); activations get one
//! dynamic scale per row, computed on the fly (`s_a = max |x| / 127`).
//! The inner product accumulates `i8 × i8` products in `i32` — exact
//! integer math, so the scalar and AVX2 int8 kernels agree with each
//! other to the bit and only the shared scalar dequantization
//! epilogue (`out[j] = acc[j] · s_a·s_j + b[j]`) touches floats.
//!
//! **Layout.** [`PackedQuantMatrix`] widens the i8 weights to i16 and
//! interleaves consecutive reduction-dimension *pairs* per column:
//! packed row `p` holds `[w[2p][0], w[2p+1][0], w[2p][1], w[2p+1][1], …]`.
//! One 256-bit load then feeds `vpmaddwd` (`_mm256_madd_epi16`), which
//! multiplies 16 i16 lanes and adds adjacent products into 8 exact i32
//! sums — two reduction steps for 8 columns per instruction, twice the
//! f32 MAC rate. (The byte-level `vpmaddubsw` would be denser still, but
//! it saturates its i16 intermediate; the i16 widening keeps every product
//! exact: |pair sum| ≤ 2·127² = 32258 per lane, and the i32 accumulator is
//! exact up to k ≈ 130 000.)
//!
//! The payoff beyond FLOPs: quantized blobs are ≈ 4× smaller, so they
//! occupy ≈ 4× fewer `ModelStore` pages under `LAKE_MODEL_BUDGET`.

use std::ops::Range;

use crate::gemm::{
    apply_act, head_argmax, lstm_gate_epilogue, run_partitioned, Kernel, PackedMatrix, WorkerPool,
    DEFAULT_POOL_MIN_ROWS,
};
use crate::lstm::LstmClassifier;
use crate::mlp::{Activation, Mlp};
use crate::tensor::Matrix;

/// Quantizes one weight column set: returns per-column scales and the
/// row-major i8 weights for a `k × n` matrix.
fn quantize_columns(w: &Matrix) -> (Vec<i8>, Vec<f32>) {
    let (k, n) = (w.rows(), w.cols());
    let src = w.data();
    let mut scale = vec![0.0f32; n];
    for kk in 0..k {
        for j in 0..n {
            scale[j] = scale[j].max(src[kk * n + j].abs());
        }
    }
    for s in scale.iter_mut() {
        // All-zero columns quantize to zero regardless of scale; 1.0 keeps
        // the dequantization finite.
        *s = if *s == 0.0 { 1.0 } else { *s / 127.0 };
    }
    let mut q = vec![0i8; k * n];
    for kk in 0..k {
        for j in 0..n {
            let v = (src[kk * n + j] / scale[j]).round();
            q[kk * n + j] = v.clamp(-127.0, 127.0) as i8;
        }
    }
    (q, scale)
}

/// Quantizes one activation row into interleaved i16 pair words
/// (`lo = x[2p]`, `hi = x[2p+1]`, zero-padded on an odd tail) and returns
/// the dynamic per-row scale.
///
/// Dynamic quantization runs once per row per layer (and twice per LSTM
/// timestep), so it is on the int8 hot path and gets the same kernel
/// dispatch as the GEMMs. Every path is bit-identical by construction:
/// the abs-max reduction is exact under any order, division is correctly
/// rounded, the scalar path rounds ties-to-even exactly like `cvtps2dq`,
/// and the clamp operand order mirrors `maxps`/`minps`.
fn quantize_acts(kernel: Kernel, x: &[f32], pairs: &mut [u32]) -> f32 {
    debug_assert_eq!(pairs.len(), x.len().div_ceil(2), "pair buffer mismatch");
    match kernel {
        Kernel::Scalar => quantize_acts_scalar(x, pairs),
        // SAFETY: kernels are clamped to detected CPU features at every
        // public entry.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 | Kernel::Avx512 => unsafe { quantize_acts_avx2(x, pairs) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 | Kernel::Avx512 => quantize_acts_scalar(x, pairs),
    }
}

/// One scalar activation quantization step, op-for-op the same sequence
/// as the SIMD lanes: divide, clamp (in `maxps`/`minps` operand order),
/// round ties-to-even (`cvtps2dq`'s mode), truncate to i16.
#[inline]
// Not `clamp`: max-then-min mirrors `maxps`/`minps` operand-order NaN
// semantics, which `f32::clamp` (NaN-propagating) does not.
#[allow(clippy::manual_clamp)]
fn quant_one(v: f32, sa: f32) -> i16 {
    ((v / sa).max(-127.0).min(127.0).round_ties_even() as i32) as i16
}

/// Packs pair words `w0..` through the scalar path — the full row for the
/// scalar kernel, the unaligned tail for the AVX2 one.
fn quantize_pack_tail(x: &[f32], sa: f32, pairs: &mut [u32], w0: usize) {
    for (p, slot) in pairs.iter_mut().enumerate().skip(w0) {
        let lo = quant_one(x[2 * p], sa) as u16 as u32;
        let hi = if 2 * p + 1 < x.len() { quant_one(x[2 * p + 1], sa) as u16 as u32 } else { 0 };
        *slot = lo | (hi << 16);
    }
}

fn quantize_acts_scalar(x: &[f32], pairs: &mut [u32]) -> f32 {
    let amax = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let sa = if amax == 0.0 { 1.0 } else { amax / 127.0 };
    quantize_pack_tail(x, sa, pairs, 0);
    sa
}

/// AVX2 activation quantization: 8-wide abs-max scan, then 16 floats per
/// iteration through divide/clamp/`cvtps2dq`, packed to 16 consecutive
/// i16 via `packus`+`permute4x64` — consecutive i16 in memory *are* the
/// little-endian pair words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_acts_avx2(x: &[f32], pairs: &mut [u32]) -> f32 {
    use std::arch::x86_64::*;
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let mut vm = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= x.len() {
        vm = _mm256_max_ps(vm, _mm256_and_ps(absmask, _mm256_loadu_ps(x.as_ptr().add(i))));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vm);
    // Max is exact, so the lane-fold order does not change the result.
    let mut amax = lanes.iter().fold(0.0f32, |m, v| m.max(*v));
    while i < x.len() {
        amax = amax.max(x[i].abs());
        i += 1;
    }
    let sa = if amax == 0.0 { 1.0 } else { amax / 127.0 };

    let vsa = _mm256_set1_ps(sa);
    let lo_b = _mm256_set1_ps(-127.0);
    let hi_b = _mm256_set1_ps(127.0);
    let m16 = _mm256_set1_epi32(0xFFFF);
    let quant8 = |p: *const f32| {
        let t = _mm256_div_ps(_mm256_loadu_ps(p), vsa);
        _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(t, lo_b), hi_b))
    };
    let (mut e, mut w) = (0usize, 0usize);
    while e + 16 <= x.len() {
        let qa = _mm256_and_si256(quant8(x.as_ptr().add(e)), m16);
        let qb = _mm256_and_si256(quant8(x.as_ptr().add(e + 8)), m16);
        // packus interleaves 128-bit lanes: [a0..3 b0..3 | a4..7 b4..7];
        // permute4x64(0b11011000) restores element order.
        let packed = _mm256_packus_epi32(qa, qb);
        let fixed = _mm256_permute4x64_epi64::<0b1101_1000>(packed);
        _mm256_storeu_si256(pairs.as_mut_ptr().add(w) as *mut __m256i, fixed);
        e += 16;
        w += 8;
    }
    quantize_pack_tail(x, sa, pairs, w);
    sa
}

// ---------------------------------------------------------------------------
// Quantized model families
// ---------------------------------------------------------------------------

/// One quantized dense layer: row-major `k × n` i8 weights, per-column
/// scales, f32 bias.
#[derive(Debug, Clone)]
pub struct QuantizedDense {
    pub(crate) k: usize,
    pub(crate) n: usize,
    pub(crate) w: Vec<i8>,
    pub(crate) scale: Vec<f32>,
    pub(crate) b: Vec<f32>,
}

impl QuantizedDense {
    fn quantize(w: &Matrix, b: &[f32]) -> Self {
        let (q, scale) = quantize_columns(w);
        QuantizedDense { k: w.rows(), n: w.cols(), w: q, scale, b: b.to_vec() }
    }

    /// Rebuilds a layer from raw parts (deserialization), validating shape.
    pub(crate) fn from_parts(k: usize, n: usize, w: Vec<i8>, scale: Vec<f32>, b: Vec<f32>) -> Self {
        assert_eq!(w.len(), k * n, "quant layer weight length");
        assert_eq!(scale.len(), n, "quant layer scale length");
        assert_eq!(b.len(), n, "quant layer bias length");
        QuantizedDense { k, n, w, scale, b }
    }

    /// Input width (reduction rows).
    pub(crate) fn rows(&self) -> usize {
        self.k
    }

    /// Output width (columns).
    pub(crate) fn cols(&self) -> usize {
        self.n
    }
}

/// An [`Mlp`] quantized to int8 — a distinct model family with its own
/// serialized kind, served next to (never instead of) its f32 oracle.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    pub(crate) layers: Vec<QuantizedDense>,
    pub(crate) hidden_activation: Activation,
}

impl QuantizedMlp {
    /// Quantizes every layer of `m` (per-column weight scales).
    pub fn quantize(m: &Mlp) -> Self {
        let layers =
            m.parameters().into_iter().map(|(w, b)| QuantizedDense::quantize(w, b)).collect();
        QuantizedMlp { layers, hidden_activation: m.hidden_activation() }
    }

    /// Rebuilds from deserialized layers.
    pub(crate) fn from_parts(layers: Vec<QuantizedDense>, hidden_activation: Activation) -> Self {
        assert!(!layers.is_empty(), "quant mlp needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].n, pair[1].k, "quant mlp layer chain mismatch");
        }
        QuantizedMlp { layers, hidden_activation }
    }

    /// Layer list (for serialization).
    pub(crate) fn layers(&self) -> &[QuantizedDense] {
        &self.layers
    }

    /// Input width expected by the first layer.
    pub fn input_size(&self) -> usize {
        self.layers[0].k
    }

    /// Hidden-layer activation.
    pub fn hidden_activation(&self) -> Activation {
        self.hidden_activation
    }

    /// FLOPs for one forward pass over a single input — same multiply-add
    /// count as the f32 original, so cost-model comparisons stay apples to
    /// apples.
    pub fn flops_per_input(&self) -> f64 {
        self.layers.iter().map(|l| 2.0 * l.k as f64 * l.n as f64).sum()
    }

    /// Bytes of weight payload (i8 weights + f32 scales and biases) — the
    /// ≈ 4× `ModelStore` page win over the f32 form.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + 4 * (l.scale.len() + l.b.len())).sum()
    }

    /// Argmax classes for a batch (convenience; packs per call). First
    /// maximal index wins ties, matching `Mlp::classify`.
    pub fn classify(&self, x: &Matrix) -> Vec<usize> {
        PackedQuantMlp::pack(self).classify_with(
            x.data(),
            x.rows(),
            x.cols(),
            None,
            Kernel::from_env(),
        )
    }

    /// Fraction of rows classified as their label (mirrors
    /// `Mlp::accuracy`).
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f64 {
        let preds = self.classify(x);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / labels.len() as f64
    }
}

/// One quantized LSTM cell: gate weights in int8 (per-column scales for
/// the `4·hidden` gate columns), f32 bias.
#[derive(Debug, Clone)]
pub struct QuantizedCell {
    pub(crate) input: usize,
    pub(crate) hidden: usize,
    pub(crate) wx: QuantizedDense,
    pub(crate) wh: QuantizedDense,
}

impl QuantizedCell {
    /// Rebuilds a cell from deserialized parts (shape pre-validated by
    /// the decoder).
    pub(crate) fn from_parts(
        input: usize,
        hidden: usize,
        wx: QuantizedDense,
        wh: QuantizedDense,
    ) -> Self {
        QuantizedCell { input, hidden, wx, wh }
    }

    /// Feature width consumed per timestep.
    pub(crate) fn input_size(&self) -> usize {
        self.input
    }

    /// Hidden-state width produced per timestep.
    pub(crate) fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Input-to-gate weights.
    pub(crate) fn wx(&self) -> &QuantizedDense {
        &self.wx
    }

    /// Recurrent gate weights.
    pub(crate) fn wh(&self) -> &QuantizedDense {
        &self.wh
    }
}

/// An [`LstmClassifier`] with int8 gate weights. The head stays f32 — it
/// is a few dozen floats and the final argmax is most sensitive to it.
#[derive(Debug, Clone)]
pub struct QuantizedLstm {
    pub(crate) cells: Vec<QuantizedCell>,
    pub(crate) head_w: Matrix,
    pub(crate) head_b: Vec<f32>,
}

impl QuantizedLstm {
    /// Quantizes every cell's gate weights of `m`.
    pub fn quantize(m: &LstmClassifier) -> Self {
        let cells = m
            .cells()
            .iter()
            .map(|c| {
                let (wx, wh, b) = c.raw_parts();
                QuantizedCell {
                    input: c.input_size(),
                    hidden: c.hidden_size(),
                    wx: QuantizedDense::quantize(wx, b),
                    // The bias is seeded once before both GEMMs; keep it on
                    // the wx side and zero here.
                    wh: QuantizedDense::quantize(wh, &vec![0.0; wh.cols()]),
                }
            })
            .collect();
        let (head_w, head_b) = m.head();
        QuantizedLstm { cells, head_w: head_w.clone(), head_b: head_b.to_vec() }
    }

    /// Rebuilds from deserialized parts, validating the layer chain.
    pub(crate) fn from_parts(cells: Vec<QuantizedCell>, head_w: Matrix, head_b: Vec<f32>) -> Self {
        assert!(!cells.is_empty(), "quant lstm needs at least one cell");
        for c in &cells {
            assert_eq!(c.wx.k, c.input, "quant cell wx rows");
            assert_eq!(c.wx.n, 4 * c.hidden, "quant cell wx cols");
            assert_eq!(c.wh.k, c.hidden, "quant cell wh rows");
            assert_eq!(c.wh.n, 4 * c.hidden, "quant cell wh cols");
        }
        for pair in cells.windows(2) {
            assert_eq!(pair[0].hidden, pair[1].input, "quant lstm cell chain");
        }
        let top = cells.last().expect("non-empty").hidden;
        assert_eq!(head_w.rows(), top, "quant lstm head rows");
        assert_eq!(head_w.cols(), head_b.len(), "quant lstm head cols");
        QuantizedLstm { cells, head_w, head_b }
    }

    /// Feature width expected per timestep.
    pub fn input_size(&self) -> usize {
        self.cells[0].input
    }

    /// Quantized cells (for serialization).
    pub(crate) fn quant_cells(&self) -> &[QuantizedCell] {
        &self.cells
    }

    /// F32 head weights and bias (for serialization).
    pub(crate) fn head(&self) -> (&Matrix, &[f32]) {
        (&self.head_w, &self.head_b)
    }

    /// FLOPs for one timestep across all cells (same multiply-add count as
    /// the f32 original).
    pub fn flops_per_step(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| 2.0 * (c.input as f64 + c.hidden as f64) * (4 * c.hidden) as f64)
            .sum()
    }

    /// Bytes of weight payload (i8 gates + f32 scales/biases/head).
    pub fn weight_bytes(&self) -> usize {
        let cells: usize = self
            .cells
            .iter()
            .map(|c| {
                c.wx.w.len()
                    + c.wh.w.len()
                    + 4 * (c.wx.scale.len() + c.wh.scale.len() + c.wx.b.len())
            })
            .sum();
        cells + 4 * (self.head_w.data().len() + self.head_b.len())
    }

    /// Class for one sequence (convenience; packs per call). Last maximal
    /// index wins ties, matching `LstmClassifier::classify`.
    pub fn classify(&self, seq: &[Vec<f32>]) -> usize {
        let steps = seq.len();
        assert!(steps > 0, "empty sequence");
        let feat = self.input_size();
        let mut flat = Vec::with_capacity(steps * feat);
        for step in seq {
            assert_eq!(step.len(), feat, "lstm feature width mismatch");
            flat.extend_from_slice(step);
        }
        PackedQuantLstm::pack(self).classify_with(
            &flat,
            1,
            steps * feat,
            steps,
            None,
            Kernel::from_env(),
        )[0]
    }

    /// Fraction of sequences classified as their label (mirrors
    /// `LstmClassifier::accuracy`).
    pub fn accuracy(&self, data: &[(Vec<Vec<f32>>, usize)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let packed = PackedQuantLstm::pack(self);
        let kernel = Kernel::from_env();
        let correct = data
            .iter()
            .filter(|(seq, label)| {
                let steps = seq.len();
                let feat = self.input_size();
                let mut flat = Vec::with_capacity(steps * feat);
                for step in seq {
                    flat.extend_from_slice(step);
                }
                packed.classify_with(&flat, 1, steps * feat, steps, None, kernel)[0] == *label
            })
            .count();
        correct as f64 / data.len() as f64
    }
}

// ---------------------------------------------------------------------------
// Packed form + int8 microkernels
// ---------------------------------------------------------------------------

/// Packed-lane granularity for i16 data: 32 lanes = one 64-byte line.
const QPACK_LANE: usize = 32;

/// Int8 weights widened to i16 and packed for `vpmaddwd`: packed row `p`
/// interleaves reduction-pair `(2p, 2p+1)` across all `n` columns, rows
/// padded to a 64-byte stride and based at a 64-byte-aligned offset, odd-k
/// tails zero-padded.
#[derive(Debug)]
pub struct PackedQuantMatrix {
    k: usize,
    n: usize,
    /// Number of packed pair-rows, `ceil(k / 2)`.
    kp: usize,
    /// Padded length of one packed row in i16 elements.
    stride: usize,
    base: usize,
    data: Vec<i16>,
}

impl PackedQuantMatrix {
    /// Packs row-major `k × n` i8 weights.
    pub fn pack(w: &[i8], k: usize, n: usize) -> Self {
        assert_eq!(w.len(), k * n, "quant pack shape mismatch");
        let kp = k.div_ceil(2);
        let stride = (2 * n).div_ceil(QPACK_LANE) * QPACK_LANE;
        let mut data = vec![0i16; kp * stride + QPACK_LANE - 1];
        let addr = data.as_ptr() as usize;
        let base = (addr.next_multiple_of(64) - addr) / std::mem::size_of::<i16>();
        debug_assert!(base < QPACK_LANE, "alignment slack exceeded");
        for p in 0..kp {
            let row = &mut data[base + p * stride..base + p * stride + 2 * n];
            for j in 0..n {
                row[2 * j] = w[(2 * p) * n + j] as i16;
                if 2 * p + 1 < k {
                    row[2 * j + 1] = w[(2 * p + 1) * n + j] as i16;
                }
            }
        }
        let pm = PackedQuantMatrix { k, n, kp, stride, base, data };
        debug_assert!(pm.base_aligned(), "quant packed base must be 64-byte aligned");
        pm
    }

    /// Bytes held by the packed buffer (pad + alignment included).
    pub fn packed_bytes(&self) -> usize {
        std::mem::size_of_val(&self.data[..])
    }

    /// Whether the packed base and stride are 64-byte aligned (see
    /// `PackedMatrix::base_aligned`).
    pub fn base_aligned(&self) -> bool {
        let base_ptr = self.data[self.base..].as_ptr() as usize;
        base_ptr.is_multiple_of(64) && (self.stride * std::mem::size_of::<i16>()).is_multiple_of(64)
    }

    /// Packed pair-row `p` (length `2 * n`, interleaved).
    #[inline]
    fn row(&self, p: usize) -> &[i16] {
        let start = self.base + p * self.stride;
        &self.data[start..start + 2 * self.n]
    }
}

/// Chunk size for the branchless nonzero pair-word compaction (mirrors
/// the f32 kernels' `TILE_KC` scan).
const QSCAN: usize = 256;

/// `acc[j] += Σ_p (x[2p]·w[2p][j] + x[2p+1]·w[2p+1][j])` in exact i32.
///
/// `pairs` holds the quantized activation pair words from
/// [`quantize_acts`]; `acc` must span all `n` columns. Integer addition is
/// associative, so every kernel produces identical accumulators — the
/// kernels differ only in throughput.
///
/// The zero-pair skip is hoisted: a branchless scan compacts the nonzero
/// `(pair index, pair word)` entries and the kernels walk the compacted
/// list with no data-dependent branch — ReLU inputs leave ~25% of pair
/// words zero in a random pattern, which otherwise mispredicts the hot
/// loop (same pathology the f32 `accumulate` scan removes).
fn qaccumulate(kernel: Kernel, pairs: &[u32], pqm: &PackedQuantMatrix, acc: &mut [i32]) {
    debug_assert_eq!(pairs.len(), pqm.kp, "pair count mismatch");
    debug_assert_eq!(acc.len(), pqm.n, "acc width mismatch");
    let mut idx = [0u32; QSCAN];
    let mut val = [0u32; QSCAN];
    for (c, chunk) in pairs.chunks(QSCAN).enumerate() {
        let first = c * QSCAN;
        let mut nz = 0usize;
        for (p, &pw) in chunk.iter().enumerate() {
            idx[nz] = (first + p) as u32;
            val[nz] = pw;
            nz += usize::from(pw != 0);
        }
        if nz == 0 {
            continue;
        }
        let (idx, val) = (&idx[..nz], &val[..nz]);
        match kernel {
            Kernel::Scalar => qaccumulate_scalar(idx, val, pqm, 0, acc),
            // SAFETY: as in the f32 dispatch — kernels are clamped to
            // detected CPU features at every public entry.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 | Kernel::Avx512 => unsafe { qaccumulate_avx2(idx, val, pqm, acc) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 | Kernel::Avx512 => qaccumulate_scalar(idx, val, pqm, 0, acc),
        }
    }
}

/// Scalar int8 accumulation into columns `j0..j0 + acc.len()`: the whole
/// row for the scalar kernel (`j0 = 0`), the unaligned tail for AVX2.
fn qaccumulate_scalar(
    idx: &[u32],
    val: &[u32],
    pqm: &PackedQuantMatrix,
    j0: usize,
    acc: &mut [i32],
) {
    for (&p, &pw) in idx.iter().zip(val) {
        let x0 = (pw & 0xFFFF) as u16 as i16 as i32;
        let x1 = (pw >> 16) as u16 as i16 as i32;
        let row = pqm.row(p as usize);
        for (j, a) in acc.iter_mut().enumerate() {
            let c = j0 + j;
            *a += x0 * row[2 * c] as i32 + x1 * row[2 * c + 1] as i32;
        }
    }
}

/// AVX2 int8 kernel: one `vpmaddwd` covers 8 columns × 2 reduction steps;
/// 32-column register block keeps 4 ymm i32 accumulators resident.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qaccumulate_avx2(idx: &[u32], val: &[u32], pqm: &PackedQuantMatrix, acc: &mut [i32]) {
    use std::arch::x86_64::*;
    let n = pqm.n;
    let ap = acc.as_mut_ptr();
    let stride = pqm.stride;
    let bbase = pqm.data.as_ptr().add(pqm.base);
    let mut j = 0;
    while j + 32 <= n {
        let mut acc0 = _mm256_loadu_si256(ap.add(j) as *const __m256i);
        let mut acc1 = _mm256_loadu_si256(ap.add(j + 8) as *const __m256i);
        let mut acc2 = _mm256_loadu_si256(ap.add(j + 16) as *const __m256i);
        let mut acc3 = _mm256_loadu_si256(ap.add(j + 24) as *const __m256i);
        for (&p, &pw) in idx.iter().zip(val) {
            let bp = bbase.add(p as usize * stride + 2 * j);
            let vx = _mm256_set1_epi32(pw as i32);
            acc0 = _mm256_add_epi32(
                acc0,
                _mm256_madd_epi16(_mm256_loadu_si256(bp as *const __m256i), vx),
            );
            acc1 = _mm256_add_epi32(
                acc1,
                _mm256_madd_epi16(_mm256_loadu_si256(bp.add(16) as *const __m256i), vx),
            );
            acc2 = _mm256_add_epi32(
                acc2,
                _mm256_madd_epi16(_mm256_loadu_si256(bp.add(32) as *const __m256i), vx),
            );
            acc3 = _mm256_add_epi32(
                acc3,
                _mm256_madd_epi16(_mm256_loadu_si256(bp.add(48) as *const __m256i), vx),
            );
        }
        _mm256_storeu_si256(ap.add(j) as *mut __m256i, acc0);
        _mm256_storeu_si256(ap.add(j + 8) as *mut __m256i, acc1);
        _mm256_storeu_si256(ap.add(j + 16) as *mut __m256i, acc2);
        _mm256_storeu_si256(ap.add(j + 24) as *mut __m256i, acc3);
        j += 32;
    }
    while j + 8 <= n {
        let mut acc0 = _mm256_loadu_si256(ap.add(j) as *const __m256i);
        for (&p, &pw) in idx.iter().zip(val) {
            let bp = bbase.add(p as usize * stride + 2 * j);
            let vx = _mm256_set1_epi32(pw as i32);
            acc0 = _mm256_add_epi32(
                acc0,
                _mm256_madd_epi16(_mm256_loadu_si256(bp as *const __m256i), vx),
            );
        }
        _mm256_storeu_si256(ap.add(j) as *mut __m256i, acc0);
        j += 8;
    }
    if j < n {
        qaccumulate_scalar(idx, val, pqm, j, &mut acc[j..]);
    }
}

/// One packed quantized layer.
#[derive(Debug)]
struct PackedQuantLayer {
    w: PackedQuantMatrix,
    scale: Vec<f32>,
    b: Vec<f32>,
}

/// A [`QuantizedMlp`] in packed inference form.
#[derive(Debug)]
pub struct PackedQuantMlp {
    layers: Vec<PackedQuantLayer>,
    hidden_activation: Activation,
}

impl PackedQuantMlp {
    /// Packs all layers of `m`.
    pub fn pack(m: &QuantizedMlp) -> Self {
        let layers = m
            .layers
            .iter()
            .map(|l| PackedQuantLayer {
                w: PackedQuantMatrix::pack(&l.w, l.k, l.n),
                scale: l.scale.clone(),
                b: l.b.clone(),
            })
            .collect();
        PackedQuantMlp { layers, hidden_activation: m.hidden_activation }
    }

    /// Bytes held by the packed weights, scales and biases.
    pub fn bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.w.packed_bytes()
                    + std::mem::size_of_val(&l.scale[..])
                    + std::mem::size_of_val(&l.b[..])
            })
            .sum()
    }

    /// Input width expected by the first layer.
    pub fn input_size(&self) -> usize {
        self.layers[0].w.k
    }

    /// Logits for a row range; scratch buffers are reused across rows.
    fn forward_rows(
        &self,
        kernel: Kernel,
        data: &[f32],
        cols: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let classes = self.layers.last().expect("non-empty mlp").w.n;
        let max_width = self.layers.iter().map(|l| l.w.k.max(l.w.n)).max().expect("non-empty");
        let mut pairs = vec![0u32; max_width.div_ceil(2)];
        let mut acc = vec![0i32; max_width];
        let mut cur = vec![0.0f32; max_width];
        let mut next = vec![0.0f32; max_width];
        let n_layers = self.layers.len();
        for (li, i) in rows.enumerate() {
            cur[..cols].copy_from_slice(&data[i * cols..(i + 1) * cols]);
            let mut width = cols;
            for (l, layer) in self.layers.iter().enumerate() {
                let n = layer.w.n;
                let kp = layer.w.kp;
                // Dynamic per-row activation scale + int8 GEMM in exact
                // i32, then the shared scalar dequantization epilogue.
                let sa = quantize_acts(kernel, &cur[..width], &mut pairs[..kp]);
                acc[..n].fill(0);
                qaccumulate(kernel, &pairs[..kp], &layer.w, &mut acc[..n]);
                let last = l + 1 == n_layers;
                let dst =
                    if last { &mut out[li * classes..(li + 1) * classes] } else { &mut next[..n] };
                // Slice zips keep the dequantization epilogue free of
                // bounds checks so it autovectorizes.
                for ((d, &a), (&s, &b)) in
                    dst.iter_mut().zip(&acc[..n]).zip(layer.scale.iter().zip(&layer.b))
                {
                    let v = a as f32 * (sa * s) + b;
                    *d = if last { v } else { apply_act(self.hidden_activation, v) };
                }
                if !last {
                    std::mem::swap(&mut cur, &mut next);
                    width = n;
                }
            }
        }
    }

    /// Batch logits, partitioned across `pool`.
    pub fn forward_with(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
        kernel: Kernel,
    ) -> Matrix {
        let kernel = kernel.clamped();
        assert_eq!(cols, self.input_size(), "quant mlp input width mismatch");
        assert!(data.len() >= rows * cols, "quant mlp batch buffer too short");
        let classes = self.layers.last().expect("non-empty mlp").w.n;
        let mut out = Matrix::zeros(rows.max(1), classes);
        if rows == 0 {
            return out;
        }
        run_partitioned(pool, rows, classes, out.data_mut(), |range, chunk| {
            // `forward_rows` indexes `out` by the *local* row offset.
            let local = 0..range.len();
            let start = range.start;
            self.forward_rows_local(kernel, data, cols, start, local, chunk);
        });
        out
    }

    /// Adapter: `forward_rows` writes at `li * classes` for local index
    /// `li`; map a global range onto a worker's chunk.
    fn forward_rows_local(
        &self,
        kernel: Kernel,
        data: &[f32],
        cols: usize,
        start: usize,
        local: Range<usize>,
        out: &mut [f32],
    ) {
        self.forward_rows(kernel, data, cols, start + local.start..start + local.end, out);
    }

    /// Argmax classes for a batch; first maximal index wins ties (matches
    /// `Mlp::classify`).
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

/// One packed quantized LSTM cell.
#[derive(Debug)]
struct PackedQuantCell {
    input: usize,
    hidden: usize,
    wx: PackedQuantMatrix,
    wx_scale: Vec<f32>,
    wh: PackedQuantMatrix,
    wh_scale: Vec<f32>,
    b: Vec<f32>,
}

/// A [`QuantizedLstm`] in packed inference form (f32 head).
#[derive(Debug)]
pub struct PackedQuantLstm {
    cells: Vec<PackedQuantCell>,
    head_w: PackedMatrix,
    head_b: Vec<f32>,
}

impl PackedQuantLstm {
    /// Packs all cells and the f32 head of `m`.
    pub fn pack(m: &QuantizedLstm) -> Self {
        let cells = m
            .cells
            .iter()
            .map(|c| PackedQuantCell {
                input: c.input,
                hidden: c.hidden,
                wx: PackedQuantMatrix::pack(&c.wx.w, c.wx.k, c.wx.n),
                wx_scale: c.wx.scale.clone(),
                wh: PackedQuantMatrix::pack(&c.wh.w, c.wh.k, c.wh.n),
                wh_scale: c.wh.scale.clone(),
                b: c.wx.b.clone(),
            })
            .collect();
        PackedQuantLstm { cells, head_w: PackedMatrix::pack(&m.head_w), head_b: m.head_b.clone() }
    }

    /// Bytes held by the packed gate weights, scales, biases and head.
    pub fn bytes(&self) -> usize {
        let cells: usize = self
            .cells
            .iter()
            .map(|c| {
                c.wx.packed_bytes()
                    + c.wh.packed_bytes()
                    + std::mem::size_of_val(&c.wx_scale[..])
                    + std::mem::size_of_val(&c.wh_scale[..])
                    + std::mem::size_of_val(&c.b[..])
            })
            .sum();
        cells + self.head_w.packed_bytes() + std::mem::size_of_val(&self.head_b[..])
    }

    /// Feature width expected per timestep.
    pub fn input_size(&self) -> usize {
        self.cells[0].input
    }

    /// Classes for a row range, one row at a time (the quantized gate GEMM
    /// re-quantizes `x` and `h` per timestep, so there is no batched
    /// weight-streaming variant to amortize).
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
        let top_hidden = self.cells.last().expect("non-empty lstm").hidden;
        let max_hidden = self.cells.iter().map(|c| c.hidden).max().expect("non-empty lstm");
        let max_width = feat.max(max_hidden);
        let mut cur = vec![0.0f32; steps * max_width];
        let mut next = vec![0.0f32; steps * max_width];
        let mut h = vec![0.0f32; max_hidden];
        let mut c = vec![0.0f32; max_hidden];
        let mut z = vec![0.0f32; 4 * max_hidden];
        let mut pairs = vec![0u32; max_width.div_ceil(2)];
        let mut accx = vec![0i32; 4 * max_hidden];
        let mut acch = vec![0i32; 4 * max_hidden];
        let mut logits = vec![0.0f32; self.head_b.len()];
        for (slot, i) in out.iter_mut().zip(rows) {
            cur[..cols].copy_from_slice(&data[i * cols..(i + 1) * cols]);
            let mut width = feat;
            for cell in &self.cells {
                let hd = cell.hidden;
                let zw = 4 * hd;
                h[..hd].fill(0.0);
                c[..hd].fill(0.0);
                for t in 0..steps {
                    let z = &mut z[..zw];
                    // x contribution: quantize the timestep input, int8
                    // GEMM in exact i32 with the dynamic x scale.
                    let kp = cell.wx.kp;
                    let sa =
                        quantize_acts(kernel, &cur[t * width..(t + 1) * width], &mut pairs[..kp]);
                    accx[..zw].fill(0);
                    qaccumulate(kernel, &pairs[..kp], &cell.wx, &mut accx[..zw]);
                    // h contribution: same, with the recurrent state's own
                    // dynamic scale (h is re-quantized every step).
                    let kp = cell.wh.kp;
                    let sh = quantize_acts(kernel, &h[..hd], &mut pairs[..kp]);
                    acch[..zw].fill(0);
                    qaccumulate(kernel, &pairs[..kp], &cell.wh, &mut acch[..zw]);
                    // Fused dequantization: one pass builds the gate
                    // pre-activations, in the same float op order as the
                    // separate bias + x + h passes it replaced (slice zips
                    // keep it branch- and bounds-check-free).
                    for ((((zj, &b), &ax), &ah), (&sxj, &shj)) in z
                        .iter_mut()
                        .zip(&cell.b)
                        .zip(&accx[..zw])
                        .zip(&acch[..zw])
                        .zip(cell.wx_scale.iter().zip(&cell.wh_scale))
                    {
                        *zj = b + ax as f32 * (sa * sxj) + ah as f32 * (sh * shj);
                    }
                    lstm_gate_epilogue(kernel, z, &mut h[..hd], &mut c[..hd]);
                    next[t * hd..(t + 1) * hd].copy_from_slice(&h[..hd]);
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

    /// Argmax classes for a batch of flattened sequences; last maximal
    /// index wins ties (matches `LstmClassifier::classify`).
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
        assert_eq!(cols / steps, self.input_size(), "quant lstm feature width mismatch");
        assert!(data.len() >= rows * cols, "quant lstm batch buffer too short");
        let mut out = vec![0usize; rows];
        if rows == 0 {
            return out;
        }
        let pool = pool.filter(|_| rows >= DEFAULT_POOL_MIN_ROWS);
        run_partitioned(pool, rows, 1, &mut out, |range, chunk| {
            self.classify_rows(kernel, data, cols, steps, range, chunk)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0f32)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Worst-case dequantization error for one output column `j`:
    /// `|x·w − q_x s_a · q_w s_j| ≤ Σ_k (|x_k| s_j/2 + (|w_kj| + s_j/2) s_a/2)`
    /// from the two rounding half-steps, plus a small float slack for the
    /// f32 epilogue.
    fn column_error_bound(x: &[f32], w: &Matrix, j: usize, sa: f32, sj: f32) -> f32 {
        let mut bound = 0.0f64;
        for (k, &xv) in x.iter().enumerate() {
            let wv = w.data()[k * w.cols() + j].abs() as f64;
            bound += xv.abs() as f64 * sj as f64 / 2.0 + (wv + sj as f64 / 2.0) * sa as f64 / 2.0;
        }
        (bound * 1.001 + 1e-5) as f32
    }

    #[test]
    fn quant_dense_stays_within_scale_error_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(k, n) in &[(1, 1), (7, 5), (31, 33), (256, 40)] {
            let w = rand_matrix(&mut rng, k, n);
            let b = vec![0.0f32; n];
            let m = Mlp::from_parameters(vec![(w.clone(), b)], Activation::Relu);
            let q = QuantizedMlp::quantize(&m);
            let x = rand_matrix(&mut rng, 1, k);
            let amax = x.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let sa = if amax == 0.0 { 1.0 } else { amax / 127.0 };
            let qout = PackedQuantMlp::pack(&q).forward_with(x.data(), 1, k, None, Kernel::Scalar);
            let fout = m.forward(&x);
            for j in 0..n {
                let bound = column_error_bound(x.data(), &w, j, sa, q.layers[0].scale[j]);
                let err = (qout.data()[j] - fout.data()[j]).abs();
                assert!(err <= bound, "({k},{n}) col {j}: err {err} > bound {bound}");
            }
        }
    }

    #[test]
    fn quant_kernels_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = Mlp::new(&[37, 61, 5], Activation::Relu, &mut rng);
        let q = QuantizedMlp::quantize(&m);
        let packed = PackedQuantMlp::pack(&q);
        let x = rand_matrix(&mut rng, 19, 37);
        let want = packed.forward_with(x.data(), 19, 37, None, Kernel::Scalar);
        for kernel in Kernel::ALL.into_iter().filter(|k| k.available()) {
            let got = packed.forward_with(x.data(), 19, 37, None, kernel);
            for (a, b) in want.data().iter().zip(got.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", kernel.name());
            }
        }
    }

    #[test]
    fn quantize_acts_kernels_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        // Lengths straddling every SIMD block boundary, including odd
        // tails (zero-padded hi half) and ties-to-even rounding cases.
        for &len in &[1usize, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 100, 257] {
            let x: Vec<f32> = (0..len).map(|_| rng.gen_range(-3.0..3.0f32)).collect();
            let mut want = vec![0u32; len.div_ceil(2)];
            let sa = quantize_acts(Kernel::Scalar, &x, &mut want);
            for kernel in Kernel::ALL.into_iter().filter(|k| k.available()) {
                let mut got = vec![0u32; len.div_ceil(2)];
                let sg = quantize_acts(kernel, &x, &mut got);
                assert_eq!(sa.to_bits(), sg.to_bits(), "{} scale, len {len}", kernel.name());
                assert_eq!(want, got, "{} pair words, len {len}", kernel.name());
            }
        }
    }

    #[test]
    fn quant_lstm_kernels_agree_and_classify_sanely() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = LstmClassifier::new(6, 10, 2, 4, &mut rng);
        let q = QuantizedLstm::quantize(&m);
        let packed = PackedQuantLstm::pack(&q);
        let (rows, steps, feat) = (9, 4, 6);
        let x = rand_matrix(&mut rng, rows, steps * feat);
        let want = packed.classify_with(x.data(), rows, steps * feat, steps, None, Kernel::Scalar);
        for kernel in Kernel::ALL.into_iter().filter(|k| k.available()) {
            assert_eq!(
                want,
                packed.classify_with(x.data(), rows, steps * feat, steps, None, kernel),
                "{}",
                kernel.name()
            );
        }
        // Pooled partitioning returns the same classes.
        let pool = WorkerPool::new(3);
        assert_eq!(
            want,
            packed.classify_with(x.data(), rows, steps * feat, steps, Some(&pool), Kernel::Scalar)
        );
    }

    #[test]
    fn quant_pack_is_interleaved_aligned_and_zero_padded() {
        let w: Vec<i8> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9]; // 3×3
        let pm = PackedQuantMatrix::pack(&w, 3, 3);
        assert_eq!((pm.k, pm.n), (3, 3));
        assert!(pm.base_aligned());
        // Pair-row 0 interleaves original rows 0 and 1.
        assert_eq!(&pm.row(0)[..6], &[1, 4, 2, 5, 3, 6]);
        // Pair-row 1 holds row 2 with a zero-padded partner.
        assert_eq!(&pm.row(1)[..6], &[7, 0, 8, 0, 9, 0]);
    }

    #[test]
    fn quantized_mlp_classifies_close_to_oracle() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Mlp::new(&[16, 32, 4], Activation::Relu, &mut rng);
        let q = QuantizedMlp::quantize(&m);
        let x = rand_matrix(&mut rng, 200, 16);
        let f = m.classify(&x);
        let qy = q.classify(&x);
        let agree = f.iter().zip(&qy).filter(|(a, b)| a == b).count();
        // Untrained random nets have near-arbitrary decision boundaries —
        // even there the formats should agree on the vast majority of rows.
        assert!(agree >= 190, "only {agree}/200 rows agree");
        assert_eq!(q.flops_per_input(), m.flops_per_input());
        assert_eq!(q.input_size(), 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Int8 kernel-dispatch equivalence: every available kernel
        /// produces identical i32 accumulators and therefore identical f32
        /// outputs after the shared scalar epilogue.
        #[test]
        fn quant_kernels_bit_identical(
            (k, n) in (1usize..64, 1usize..72),
            rows in 1usize..8,
            seed in 0u64..u64::MAX,
            x_data in proptest::collection::vec(-8.0f32..8.0, 8 * 64),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Mlp::new(&[k, n], Activation::Relu, &mut rng);
            let q = QuantizedMlp::quantize(&m);
            let packed = PackedQuantMlp::pack(&q);
            let data = &x_data[..rows * k];
            let want = packed.forward_with(data, rows, k, None, Kernel::Scalar);
            for kernel in Kernel::ALL.into_iter().filter(|k| k.available()) {
                let got = packed.forward_with(data, rows, k, None, kernel);
                for (a, b) in want.data().iter().zip(got.data()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// Dequantized outputs stay within the analytic per-row scale
        /// error bound of the f32 oracle for a single linear layer.
        #[test]
        fn quant_outputs_within_error_bound(
            (k, n) in (1usize..48, 1usize..40),
            seed in 0u64..u64::MAX,
            x_data in proptest::collection::vec(-4.0f32..4.0, 48),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = Mlp::new(&[k, n], Activation::Relu, &mut rng);
            let q = QuantizedMlp::quantize(&m);
            let x = Matrix::from_vec(1, k, x_data[..k].to_vec());
            let amax = x.data().iter().fold(0.0f32, |mx, v| mx.max(v.abs()));
            let sa = if amax == 0.0 { 1.0 } else { amax / 127.0 };
            let qout = PackedQuantMlp::pack(&q).forward_with(x.data(), 1, k, None, Kernel::Scalar);
            let fout = m.forward(&x);
            let (w, _) = (m.parameters()[0].0, ());
            for j in 0..n {
                let sj = q.layers[0].scale[j];
                let mut bound = 0.0f64;
                for (kk, &xv) in x.data().iter().enumerate() {
                    let wv = w.data()[kk * n + j].abs() as f64;
                    bound += xv.abs() as f64 * sj as f64 / 2.0
                        + (wv + sj as f64 / 2.0) * sa as f64 / 2.0;
                }
                let bound = (bound * 1.001 + 1e-5) as f32;
                let err = (qout.data()[j] - fout.data()[j]).abs();
                prop_assert!(err <= bound, "col {}: err {} > bound {}", j, err, bound);
            }
        }
    }
}
