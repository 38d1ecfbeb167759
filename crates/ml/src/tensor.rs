//! A minimal dense `f32` matrix — all the tensor machinery the paper's
//! models need.

use std::fmt;

/// A row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match dimensions");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        assert!(rows.iter().all(|r| r.len() == cols), "rows must have equal length");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`: the reference every f32 kernel in
    /// this crate matches bit for bit.
    ///
    /// Each output element starts at `+0.0` and takes one fused term
    /// `a.mul_add(b, acc)` (IEEE 754 fusedMultiplyAdd, one rounding) per
    /// ascending `k`, skipping the terms whose `a` is `±0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams rhs rows, friendly to the cache.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                axpy(a, rhs_row, &mut out.data[i * rhs.cols..(i + 1) * rhs.cols]);
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `bias` to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length must equal column count");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Element-wise map, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// `self + rhs`, producing a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Scales every element in place.
    pub fn scale_inplace(&mut self, k: f32) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// `self -= k * rhs` — the SGD update step.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn saxpy_sub(&mut self, k: f32, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        for (x, &g) in self.data.iter_mut().zip(&rhs.data) {
            *x -= k * g;
        }
    }

    /// Column-wise sums (a 1×cols vector), used for bias gradients.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &x) in sums.iter_mut().zip(self.row(r)) {
                *s += x;
            }
        }
        sums
    }

    /// Index of the maximum element in each row (argmax); ties resolve to
    /// the first maximum. Used for classification.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Squared L2 distance between two equal-length slices.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "length mismatch");
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.at(r, c))?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

/// `y[j] = a.mul_add(x[j], y[j])` for every `j` of the shorter slice: the
/// one multiply-accumulate term of every f32 matrix product in this crate
/// ([`Matrix::matmul`], the LSTM gates and head, and the scalar GEMM
/// kernel), rounded once.
///
/// Without the `fma` target feature, `f32::mul_add` is a libm call per
/// element, so the body is compiled twice and the copy built with `fma`
/// runs wherever the CPU has it. Both round the exact `a·x + y` once, so
/// they agree bit for bit.
#[inline]
pub(crate) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU reports FMA, and the detection also checks that
        // the OS saves the ymm state its VEX encoding uses.
        unsafe { axpy_fma(a, x, y) };
        return;
    }
    axpy_portable(a, x, y);
}

/// The portable [`axpy`] body.
#[inline(always)]
fn axpy_portable(a: f32, x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y = a.mul_add(x, *y);
    }
}

/// [`axpy_portable`] compiled with FMA, so `mul_add` is one `vfmadd`.
///
/// # Safety
///
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn axpy_fma(a: f32, x: &[f32], y: &mut [f32]) {
    axpy_portable(a, x, y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `[a, −a] · [a; a]` with `a = 1 + 2⁻¹²`: `a·a = 1 + 2⁻¹¹ + 2⁻²⁴`
    /// rounds to `1 + 2⁻¹¹`, so two roundings per term cancel to `+0`
    /// while one rounding per term leaves the exact `−2⁻²⁴`.
    #[test]
    fn matmul_rounds_each_term_once() {
        let a = 1.0 + 2f32.powi(-12);
        let x = Matrix::from_rows(&[vec![a, -a]]);
        let w = Matrix::from_rows(&[vec![a], vec![a]]);
        assert_eq!(x.matmul(&w).data(), &[-(2f32.powi(-24))]);
    }

    /// The portable and FMA-compiled `axpy` bodies round alike on rows of
    /// mixed magnitudes, signed zeros and subnormals. Hosts with FMA never
    /// dispatch to the portable body, so this is its only run there.
    #[test]
    fn axpy_bodies_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let value = |rng: &mut StdRng| match rng.gen_range(0..6u8) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(
                rng.gen_range(1..0x0080_0000u32) | u32::from(rng.gen::<bool>()) << 31,
            ),
            3 => rng.gen_range(-1e30..1e30f32),
            4 => rng.gen_range(-1e-30..1e-30f32),
            _ => rng.gen_range(-2.0..2.0f32),
        };
        for len in [1, 7, 8, 9, 31, 64, 257] {
            for _ in 0..50 {
                let a = value(&mut rng);
                let x: Vec<f32> = (0..len).map(|_| value(&mut rng)).collect();
                let y: Vec<f32> = (0..len).map(|_| value(&mut rng)).collect();
                let mut want = y.clone();
                axpy_portable(a, &x, &mut want);
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("fma") {
                    let mut got = y.clone();
                    // SAFETY: the CPU reports FMA.
                    unsafe { axpy_fma(a, &x, &mut got) };
                    for (w, g) in want.iter().zip(&got) {
                        assert_eq!(w.to_bits(), g.to_bits(), "a={a:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let mut i = Matrix::zeros(3, 3);
        for k in 0..3 {
            i.set(k, k, 1.0);
        }
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn bias_and_activation_helpers() {
        let mut a = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, -4.0]]);
        a.add_row_bias(&[10.0, 20.0]);
        assert_eq!(a.data(), &[11.0, 18.0, 13.0, 16.0]);
        a.map_inplace(|x| x * 2.0);
        assert_eq!(a.at(0, 0), 22.0);
    }

    #[test]
    fn argmax_rows_breaks_correctly() {
        let a = Matrix::from_rows(&[vec![0.1, 0.9], vec![0.8, 0.2], vec![0.5, 0.5]]);
        assert_eq!(a.argmax_rows(), vec![1, 0, 0]);
    }

    #[test]
    fn col_sums_sum_columns() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn saxpy_sub_is_sgd_step() {
        let mut w = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let g = Matrix::from_rows(&[vec![0.5, -0.5]]);
        w.saxpy_sub(0.1, &g);
        assert_eq!(w.data(), &[0.95, 1.05]);
    }

    #[test]
    fn sq_l2_distance() {
        assert_eq!(Matrix::sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn from_vec_length_checked() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    proptest! {
        /// (A·B)ᵀ == Bᵀ·Aᵀ
        #[test]
        fn transpose_of_product((a, b) in (small_matrix(3, 4), small_matrix(4, 2))) {
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// Matmul distributes over addition: A·(B+C) == A·B + A·C
        #[test]
        fn matmul_distributes((a, b, c) in (small_matrix(2, 3), small_matrix(3, 3), small_matrix(3, 3))) {
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }

        /// sq_l2 is symmetric and zero on identical inputs.
        #[test]
        fn sq_l2_properties(v in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
            prop_assert_eq!(Matrix::sq_l2(&v, &v), 0.0);
            let w: Vec<f32> = v.iter().map(|x| x + 1.0).collect();
            let d1 = Matrix::sq_l2(&v, &w);
            let d2 = Matrix::sq_l2(&w, &v);
            prop_assert!((d1 - d2).abs() < 1e-3);
            prop_assert!(d1 >= 0.0);
        }
    }
}
