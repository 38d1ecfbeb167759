//! LSTM networks — the model family behind Kleio's page-warmth classifier.
//!
//! Kleio "uses Tensorflow to construct a model with two LSTM layers"
//! (§4.4); the paper remotes TensorFlow into the kernel rather than
//! reimplementing LSTM inference in CUDA ("implementing fast, efficient
//! and correct LSTM inference using the CUDA runtime directly is
//! \[hard\]"). Here the substitution is a from-scratch LSTM with exact
//! forward math and truncated-BPTT training, which the remoted
//! "high-level API" in `lake-core` executes daemon-side.
//!
//! Weights use the gate order `[i, f, g, o]` (input, forget, cell, output).

use rand::Rng;

use crate::mlp::softmax_rows;
use crate::tensor::{axpy, Matrix};

/// A single LSTM layer (cell) operating on one sequence at a time.
#[derive(Debug, Clone)]
pub struct LstmCell {
    input: usize,
    hidden: usize,
    /// `input × 4·hidden` input weights.
    wx: Matrix,
    /// `hidden × 4·hidden` recurrent weights.
    wh: Matrix,
    /// `4·hidden` biases.
    b: Vec<f32>,
}

/// Cached per-timestep state for backprop.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// Accumulated gradients for one cell.
#[derive(Debug, Clone)]
struct CellGrads {
    wx: Matrix,
    wh: Matrix,
    b: Vec<f32>,
}

fn sigmoid(x: f32) -> f32 {
    crate::fastmath::sigmoid(x)
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized weights and forget-gate bias
    /// 1.0 (the standard trick for gradient flow).
    pub fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        assert!(input > 0 && hidden > 0, "dimensions must be non-zero");
        let limit = (6.0 / (input + 4 * hidden) as f32).sqrt();
        let wx = Matrix::from_vec(
            input,
            4 * hidden,
            (0..input * 4 * hidden).map(|_| rng.gen_range(-limit..limit)).collect(),
        );
        let limit_h = (6.0 / (hidden + 4 * hidden) as f32).sqrt();
        let wh = Matrix::from_vec(
            hidden,
            4 * hidden,
            (0..hidden * 4 * hidden).map(|_| rng.gen_range(-limit_h..limit_h)).collect(),
        );
        let mut b = vec![0.0; 4 * hidden];
        for bias in b.iter_mut().take(2 * hidden).skip(hidden) {
            *bias = 1.0; // forget gate
        }
        LstmCell { input, hidden, wx, wh, b }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// Hidden state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Borrows the raw parameters `(wx, wh, b)`.
    pub fn raw_parts(&self) -> (&Matrix, &Matrix, &[f32]) {
        (&self.wx, &self.wh, &self.b)
    }

    /// Rebuilds a cell from raw parameters (inverse of
    /// [`LstmCell::raw_parts`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent (`wx` must be `in × 4h`, `wh`
    /// `h × 4h`, `b` length `4h`).
    pub fn from_raw_parts(wx: Matrix, wh: Matrix, b: Vec<f32>) -> Self {
        let four_h = wx.cols();
        assert_eq!(four_h % 4, 0, "gate dimension must be a multiple of 4");
        let hidden = four_h / 4;
        assert_eq!(wh.rows(), hidden, "wh rows must equal hidden size");
        assert_eq!(wh.cols(), four_h, "wh cols must equal 4*hidden");
        assert_eq!(b.len(), four_h, "bias length must equal 4*hidden");
        LstmCell { input: wx.rows(), hidden, wx, wh, b }
    }

    /// FLOPs for one timestep (multiply-add = 2 FLOPs).
    pub fn flops_per_step(&self) -> f64 {
        2.0 * (self.input as f64 + self.hidden as f64) * (4 * self.hidden) as f64
    }

    /// One forward step; returns `(h, c)` and caches intermediates.
    fn step(&self, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> (Vec<f32>, Vec<f32>, StepCache) {
        assert_eq!(x.len(), self.input, "input size mismatch");
        assert_eq!(h_prev.len(), self.hidden, "hidden size mismatch");
        let hd = self.hidden;
        // z = b + x·Wx + h_prev·Wh, one fused term per nonzero input (the
        // `Matrix::matmul` reference, seeded with the bias).
        let mut z = self.b.clone();
        for (k, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            axpy(xv, self.wx.row(k), &mut z);
        }
        for (k, &hv) in h_prev.iter().enumerate() {
            if hv == 0.0 {
                continue;
            }
            axpy(hv, self.wh.row(k), &mut z);
        }
        let i: Vec<f32> = z[..hd].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f32> = z[hd..2 * hd].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f32> = z[2 * hd..3 * hd].iter().map(|&v| crate::fastmath::tanh(v)).collect();
        let o: Vec<f32> = z[3 * hd..].iter().map(|&v| sigmoid(v)).collect();
        // The cell update is not a matrix product: it stays unfused, as in
        // the packed engine's gate epilogue.
        let c: Vec<f32> = (0..hd).map(|j| f[j] * c_prev[j] + i[j] * g[j]).collect();
        let tanh_c: Vec<f32> = c.iter().map(|&v| crate::fastmath::tanh(v)).collect();
        let h: Vec<f32> = (0..hd).map(|j| o[j] * tanh_c[j]).collect();
        let cache = StepCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h, c, cache)
    }

    /// Runs a whole sequence from zero state; returns all hidden states.
    fn forward_sequence(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut h = vec![0.0; self.hidden];
        let mut c = vec![0.0; self.hidden];
        let mut hs = Vec::with_capacity(xs.len());
        for x in xs {
            let (nh, nc, _) = self.step(x, &h, &c);
            h = nh;
            c = nc;
            hs.push(h.clone());
        }
        hs
    }

    fn zero_grads(&self) -> CellGrads {
        CellGrads {
            wx: Matrix::zeros(self.input, 4 * self.hidden),
            wh: Matrix::zeros(self.hidden, 4 * self.hidden),
            b: vec![0.0; 4 * self.hidden],
        }
    }

    /// Backward through one timestep. `dh`/`dc_next` are gradients w.r.t.
    /// this step's outputs; returns `(dx, dh_prev, dc_prev)` and
    /// accumulates parameter gradients.
    fn step_backward(
        &self,
        cache: &StepCache,
        dh: &[f32],
        dc_next: &[f32],
        grads: &mut CellGrads,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let hd = self.hidden;
        let mut dz = vec![0.0; 4 * hd];
        let mut dc_prev = vec![0.0; hd];
        for j in 0..hd {
            let do_ = dh[j] * cache.tanh_c[j];
            let dc = dh[j] * cache.o[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]) + dc_next[j];
            let di = dc * cache.g[j];
            let df = dc * cache.c_prev[j];
            let dg = dc * cache.i[j];
            dc_prev[j] = dc * cache.f[j];
            dz[j] = di * cache.i[j] * (1.0 - cache.i[j]);
            dz[hd + j] = df * cache.f[j] * (1.0 - cache.f[j]);
            dz[2 * hd + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
            dz[3 * hd + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
        }
        // Parameter gradients: dWx += xᵀ·dz, dWh += h_prevᵀ·dz, db += dz.
        for (k, &xv) in cache.x.iter().enumerate() {
            if xv != 0.0 {
                let row = grads.wx.row_mut(k);
                for (gj, &dzj) in row.iter_mut().zip(&dz) {
                    *gj += xv * dzj;
                }
            }
        }
        for (k, &hv) in cache.h_prev.iter().enumerate() {
            if hv != 0.0 {
                let row = grads.wh.row_mut(k);
                for (gj, &dzj) in row.iter_mut().zip(&dz) {
                    *gj += hv * dzj;
                }
            }
        }
        for (gb, &dzj) in grads.b.iter_mut().zip(&dz) {
            *gb += dzj;
        }
        // Input gradients: dx = dz·Wxᵀ, dh_prev = dz·Whᵀ.
        let mut dx = vec![0.0; self.input];
        for (k, dxk) in dx.iter_mut().enumerate() {
            let row = self.wx.row(k);
            *dxk = row.iter().zip(&dz).map(|(&w, &d)| w * d).sum();
        }
        let mut dh_prev = vec![0.0; hd];
        for (k, dhk) in dh_prev.iter_mut().enumerate() {
            let row = self.wh.row(k);
            *dhk = row.iter().zip(&dz).map(|(&w, &d)| w * d).sum();
        }
        (dx, dh_prev, dc_prev)
    }

    fn apply_grads(&mut self, grads: &CellGrads, lr: f32) {
        self.wx.saxpy_sub(lr, &grads.wx);
        self.wh.saxpy_sub(lr, &grads.wh);
        for (b, &g) in self.b.iter_mut().zip(&grads.b) {
            *b -= lr * g;
        }
    }
}

/// A stacked-LSTM sequence classifier: Kleio's "two LSTM layers" plus a
/// dense softmax head reading the final hidden state.
#[derive(Debug, Clone)]
pub struct LstmClassifier {
    cells: Vec<LstmCell>,
    head_w: Matrix,
    head_b: Vec<f32>,
}

impl LstmClassifier {
    /// Builds a classifier: `input` features per timestep, `layers` stacked
    /// LSTM layers of `hidden` units, `classes` outputs.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        input: usize,
        hidden: usize,
        layers: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(layers > 0 && classes > 0, "layers and classes must be non-zero");
        let mut cells = Vec::with_capacity(layers);
        for l in 0..layers {
            let in_size = if l == 0 { input } else { hidden };
            cells.push(LstmCell::new(in_size, hidden, rng));
        }
        let limit = (6.0 / (hidden + classes) as f32).sqrt();
        let head_w = Matrix::from_vec(
            hidden,
            classes,
            (0..hidden * classes).map(|_| rng.gen_range(-limit..limit)).collect(),
        );
        LstmClassifier { cells, head_w, head_b: vec![0.0; classes] }
    }

    /// Borrows the stacked cells.
    pub fn cells(&self) -> &[LstmCell] {
        &self.cells
    }

    /// Borrows the head parameters `(weights, bias)`.
    pub fn head(&self) -> (&Matrix, &[f32]) {
        (&self.head_w, &self.head_b)
    }

    /// Rebuilds a classifier from cells and a head (inverse of
    /// [`LstmClassifier::cells`] / [`LstmClassifier::head`]).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, the layer sizes do not chain, or the
    /// head shape does not match the top cell.
    pub fn from_parts(cells: Vec<LstmCell>, head_w: Matrix, head_b: Vec<f32>) -> Self {
        assert!(!cells.is_empty(), "need at least one LSTM layer");
        for pair in cells.windows(2) {
            assert_eq!(
                pair[0].hidden_size(),
                pair[1].input_size(),
                "stacked layer sizes must chain"
            );
        }
        let top = cells.last().expect("non-empty");
        assert_eq!(head_w.rows(), top.hidden_size(), "head input must match top hidden");
        assert_eq!(head_w.cols(), head_b.len(), "head bias must match classes");
        LstmClassifier { cells, head_w, head_b }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.head_b.len()
    }

    /// FLOPs to run one sequence of length `t` (all layers + head).
    pub fn flops_per_sequence(&self, t: usize) -> f64 {
        let steps: f64 = self.cells.iter().map(|c| c.flops_per_step()).sum();
        steps * t as f64 + 2.0 * self.head_w.rows() as f64 * self.head_w.cols() as f64
    }

    /// Logits for one sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or feature size mismatches.
    pub fn forward(&self, seq: &[Vec<f32>]) -> Vec<f32> {
        assert!(!seq.is_empty(), "sequence must be non-empty");
        let mut layer_input: Vec<Vec<f32>> = seq.to_vec();
        for cell in &self.cells {
            layer_input = cell.forward_sequence(&layer_input);
        }
        let last_h = layer_input.last().expect("non-empty sequence");
        let mut logits = self.head_b.clone();
        for (k, &hv) in last_h.iter().enumerate() {
            axpy(hv, self.head_w.row(k), &mut logits);
        }
        logits
    }

    /// Argmax class for one sequence.
    pub fn classify(&self, seq: &[Vec<f32>]) -> usize {
        let logits = self.forward(seq);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN logits"))
            .map(|(i, _)| i)
            .expect("at least one class")
    }

    /// Softmax probabilities for one sequence.
    pub fn probabilities(&self, seq: &[Vec<f32>]) -> Vec<f32> {
        let logits = self.forward(seq);
        let mut m = Matrix::row_vector(&logits);
        softmax_rows(&mut m);
        m.data().to_vec()
    }

    /// One full-BPTT SGD step on a single `(sequence, label)` example;
    /// returns the cross-entropy loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or `label` is out of range.
    pub fn train_sequence(&mut self, seq: &[Vec<f32>], label: usize, lr: f32) -> f32 {
        assert!(!seq.is_empty(), "sequence must be non-empty");
        assert!(label < self.num_classes(), "label out of range");
        let t_len = seq.len();
        let n_layers = self.cells.len();

        // Forward, caching every step of every layer.
        let mut caches: Vec<Vec<StepCache>> = Vec::with_capacity(n_layers);
        let mut hs_per_layer: Vec<Vec<Vec<f32>>> = Vec::with_capacity(n_layers);
        let mut layer_input: Vec<Vec<f32>> = seq.to_vec();
        for cell in &self.cells {
            let mut h = vec![0.0; cell.hidden];
            let mut c = vec![0.0; cell.hidden];
            let mut layer_caches = Vec::with_capacity(t_len);
            let mut hs = Vec::with_capacity(t_len);
            for x in &layer_input {
                let (nh, nc, cache) = cell.step(x, &h, &c);
                h = nh;
                c = nc;
                layer_caches.push(cache);
                hs.push(h.clone());
            }
            caches.push(layer_caches);
            layer_input = hs.clone();
            hs_per_layer.push(hs);
        }

        // Head forward + softmax CE.
        let last_h = hs_per_layer[n_layers - 1].last().expect("non-empty").clone();
        let mut logits = self.head_b.clone();
        for (k, &hv) in last_h.iter().enumerate() {
            axpy(hv, self.head_w.row(k), &mut logits);
        }
        let mut probs = Matrix::row_vector(&logits);
        softmax_rows(&mut probs);
        let loss = -probs.at(0, label).max(1e-12).ln();

        // Head gradients.
        let mut dlogits = probs.data().to_vec();
        dlogits[label] -= 1.0;
        let mut dh_last = vec![0.0; last_h.len()];
        let mut head_grad_w = Matrix::zeros(self.head_w.rows(), self.head_w.cols());
        for (k, &hv) in last_h.iter().enumerate() {
            let grow = head_grad_w.row_mut(k);
            let wrow = self.head_w.row(k);
            let mut acc = 0.0;
            for j in 0..dlogits.len() {
                grow[j] += hv * dlogits[j];
                acc += wrow[j] * dlogits[j];
            }
            dh_last[k] = acc;
        }

        // BPTT top layer down to layer 0; dx of layer l feeds dh of l-1.
        let mut all_grads: Vec<CellGrads> = self.cells.iter().map(|c| c.zero_grads()).collect();
        // per-timestep dh arriving from the layer above (only top layer's
        // final step starts non-zero)
        let mut dh_from_above: Vec<Vec<f32>> = vec![Vec::new(); t_len];
        for (l, cell) in self.cells.iter().enumerate().rev() {
            let hidden = cell.hidden;
            let mut dh_next = vec![0.0; hidden];
            let mut dc_next = vec![0.0; hidden];
            let mut dx_per_step: Vec<Vec<f32>> = vec![Vec::new(); t_len];
            for t in (0..t_len).rev() {
                let mut dh = dh_next.clone();
                if l == n_layers - 1 && t == t_len - 1 {
                    for (a, &b) in dh.iter_mut().zip(&dh_last) {
                        *a += b;
                    }
                }
                if !dh_from_above[t].is_empty() {
                    for (a, &b) in dh.iter_mut().zip(&dh_from_above[t]) {
                        *a += b;
                    }
                }
                let (dx, dh_prev, dc_prev) =
                    cell.step_backward(&caches[l][t], &dh, &dc_next, &mut all_grads[l]);
                dx_per_step[t] = dx;
                dh_next = dh_prev;
                dc_next = dc_prev;
            }
            dh_from_above = dx_per_step;
        }

        // Apply updates (with a mild gradient clip for stability).
        let clip = 5.0f32;
        for g in &mut all_grads {
            g.wx.map_inplace(|x| x.clamp(-clip, clip));
            g.wh.map_inplace(|x| x.clamp(-clip, clip));
            for b in &mut g.b {
                *b = b.clamp(-clip, clip);
            }
        }
        for (cell, grads) in self.cells.iter_mut().zip(&all_grads) {
            cell.apply_grads(grads, lr);
        }
        self.head_w.saxpy_sub(lr, &head_grad_w);
        for (b, &d) in self.head_b.iter_mut().zip(&dlogits) {
            *b -= lr * d;
        }
        loss
    }

    /// Accuracy over a labeled set of sequences.
    pub fn accuracy(&self, data: &[(Vec<Vec<f32>>, usize)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data.iter().filter(|(seq, label)| self.classify(seq) == *label).count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sequences whose class depends on the *order* of values — impossible
    /// for a memoryless model, easy for an LSTM.
    fn order_task(rng: &mut StdRng, n: usize) -> Vec<(Vec<Vec<f32>>, usize)> {
        use rand::Rng;
        (0..n)
            .map(|_| {
                let rising = rng.gen_bool(0.5);
                let seq: Vec<Vec<f32>> = if rising {
                    (0..6).map(|t| vec![t as f32 / 6.0]).collect()
                } else {
                    (0..6).rev().map(|t| vec![t as f32 / 6.0]).collect()
                };
                (seq, usize::from(rising))
            })
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = LstmClassifier::new(3, 8, 2, 4, &mut rng);
        assert_eq!(model.cells().len(), 2);
        assert_eq!(model.num_classes(), 4);
        let seq: Vec<Vec<f32>> = (0..5).map(|_| vec![0.1, 0.2, 0.3]).collect();
        let logits = model.forward(&seq);
        assert_eq!(logits.len(), 4);
        let probs = model.probabilities(&seq);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn learns_sequence_order() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut model = LstmClassifier::new(1, 12, 1, 2, &mut rng);
        let train = order_task(&mut rng, 64);
        let mut first_epoch_loss = 0.0;
        let mut last_epoch_loss = 0.0;
        for epoch in 0..30 {
            let mut total = 0.0;
            for (seq, label) in &train {
                total += model.train_sequence(seq, *label, 0.05);
            }
            if epoch == 0 {
                first_epoch_loss = total;
            }
            last_epoch_loss = total;
        }
        assert!(
            last_epoch_loss < first_epoch_loss / 3.0,
            "loss {first_epoch_loss} -> {last_epoch_loss}"
        );
        let test = order_task(&mut rng, 32);
        assert!(model.accuracy(&test) > 0.9, "accuracy {}", model.accuracy(&test));
    }

    #[test]
    fn stacked_layers_train_too() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = LstmClassifier::new(1, 8, 2, 2, &mut rng);
        let train = order_task(&mut rng, 48);
        let mut losses = Vec::new();
        for _ in 0..25 {
            let total: f32 =
                train.iter().map(|(seq, label)| model.train_sequence(seq, *label, 0.05)).sum();
            losses.push(total);
        }
        assert!(losses.last().unwrap() < &(losses[0] / 2.0));
    }

    #[test]
    fn flops_scale_with_sequence_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = LstmClassifier::new(4, 16, 2, 2, &mut rng);
        let f10 = model.flops_per_sequence(10);
        let f20 = model.flops_per_sequence(20);
        assert!(f20 > f10 * 1.9 && f20 < f10 * 2.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let m1 = LstmClassifier::new(2, 4, 1, 2, &mut rng1);
        let m2 = LstmClassifier::new(2, 4, 1, 2, &mut rng2);
        let seq = vec![vec![0.5, -0.5]; 4];
        assert_eq!(m1.forward(&seq), m2.forward(&seq));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sequence_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = LstmClassifier::new(2, 4, 1, 2, &mut rng);
        model.forward(&[]);
    }

    #[test]
    fn cell_forward_gate_sanity() {
        // With zero weights and zero bias except forget=1, state stays 0
        // and h stays 0 for zero input.
        let mut rng = StdRng::seed_from_u64(1);
        let cell = LstmCell::new(2, 3, &mut rng);
        let hs = cell.forward_sequence(&vec![vec![0.0, 0.0]; 3]);
        assert_eq!(hs.len(), 3);
        // Values bounded by tanh/sigmoid ranges.
        for h in hs {
            assert!(h.iter().all(|&v| v.abs() <= 1.0));
        }
    }
}
