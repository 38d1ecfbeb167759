//! Multi-layer perceptrons: LinnOS's latency predictor, MLLB's balancer,
//! KML's readahead classifier.
//!
//! The LinnOS network is tiny by design ("two layers with 256 and 2
//! neurons ... maintaining low CPU utilization and low inference latency is
//! the primary purpose of using such a simple model" — §7.1). The paper
//! also evaluates `+1`/`+2` variants with extra 256-wide hidden layers;
//! [`Mlp::widen`] builds those.

use rand::Rng;

use crate::tensor::Matrix;

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// 1/(1+e^-x)
    Sigmoid,
    /// tanh(x)
    Tanh,
}

impl Activation {
    fn apply(self, m: &mut Matrix) {
        match self {
            Activation::Relu => m.map_inplace(|x| x.max(0.0)),
            Activation::Sigmoid => m.map_inplace(crate::fastmath::sigmoid),
            Activation::Tanh => m.map_inplace(crate::fastmath::tanh),
        }
    }

    /// Derivative expressed in terms of the *activated* output `a`.
    fn derivative_from_output(self, a: f32) -> f32 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Tanh => 1.0 - a * a,
        }
    }
}

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Step size.
    pub learning_rate: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { learning_rate: 0.01, weight_decay: 0.0 }
    }
}

#[derive(Debug, Clone)]
struct Dense {
    /// `in × out` weights.
    w: Matrix,
    /// `out` biases.
    b: Vec<f32>,
}

impl Dense {
    fn new(input: usize, output: usize, rng: &mut impl Rng) -> Self {
        // Xavier/Glorot uniform initialization.
        let limit = (6.0 / (input + output) as f32).sqrt();
        let data = (0..input * output).map(|_| rng.gen_range(-limit..limit)).collect();
        Dense { w: Matrix::from_vec(input, output, data), b: vec![0.0; output] }
    }
}

/// A feed-forward classifier with softmax + cross-entropy training.
///
/// The output layer is linear (logits); [`Mlp::classify`] takes the argmax,
/// [`Mlp::probabilities`] applies softmax.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    hidden_activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `&[31, 256, 2]` for
    /// the LinnOS model. All hidden layers share `hidden_activation`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], hidden_activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes.windows(2).map(|w| Dense::new(w[0], w[1], rng)).collect();
        Mlp { layers, hidden_activation }
    }

    /// Builds the paper's augmented variants: inserts `extra` additional
    /// hidden layers of the same width as the first hidden layer ("The
    /// added layers have the same number of neurons as the first one" —
    /// §7.1). `extra = 1` gives `NN+1`, `extra = 2` gives `NN+2`.
    pub fn widen(
        sizes: &[usize],
        extra: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let width = sizes[1];
        let mut full: Vec<usize> = Vec::new();
        full.push(sizes[0]);
        full.push(width);
        for _ in 0..extra {
            full.push(width);
        }
        full.extend_from_slice(&sizes[2..]);
        Mlp::new(&full, activation, rng)
    }

    /// Layer sizes, input first.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.layers[0].w.rows()];
        sizes.extend(self.layers.iter().map(|l| l.w.cols()));
        sizes
    }

    /// Input width expected by the first layer.
    pub fn input_size(&self) -> usize {
        self.layers[0].w.rows()
    }

    /// The hidden activation in use.
    pub fn hidden_activation(&self) -> Activation {
        self.hidden_activation
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.rows() * l.w.cols() + l.b.len()).sum()
    }

    /// FLOPs for one forward pass over a single input (multiply-add
    /// counted as 2 FLOPs) — drives both the CPU and GPU timing models.
    pub fn flops_per_input(&self) -> f64 {
        self.layers.iter().map(|l| 2.0 * l.w.rows() as f64 * l.w.cols() as f64).sum()
    }

    /// Forward pass producing logits; `x` is `batch × input`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input size.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_trace(x).pop().expect("at least one layer output")
    }

    /// Forward pass retaining every layer's activated output (the trace
    /// needed for backprop). Element 0 is the first hidden activation; the
    /// last element is the logits.
    fn forward_trace(&self, x: &Matrix) -> Vec<Matrix> {
        let mut outputs = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = cur.matmul(&layer.w);
            z.add_row_bias(&layer.b);
            if i + 1 < self.layers.len() {
                self.hidden_activation.apply(&mut z);
            }
            outputs.push(z.clone());
            cur = z;
        }
        outputs
    }

    /// Softmax probabilities per row.
    pub fn probabilities(&self, x: &Matrix) -> Matrix {
        let mut logits = self.forward(x);
        softmax_rows(&mut logits);
        logits
    }

    /// Argmax class per row.
    pub fn classify(&self, x: &Matrix) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// One SGD step on a batch; returns the mean cross-entropy loss before
    /// the update.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()` or a label is out of range.
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize], cfg: &SgdConfig) -> f32 {
        assert_eq!(labels.len(), x.rows(), "one label per input row");
        let n_classes = self.layers.last().expect("non-empty").w.cols();
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");

        let trace = self.forward_trace(x);
        let batch = x.rows() as f32;

        // Softmax + cross-entropy gradient at the logits: (p - onehot)/batch.
        let mut probs = trace.last().expect("logits").clone();
        softmax_rows(&mut probs);
        let mut loss = 0.0;
        for (r, &label) in labels.iter().enumerate() {
            loss -= probs.at(r, label).max(1e-12).ln();
        }
        loss /= batch;

        let mut delta = probs;
        for (r, &label) in labels.iter().enumerate() {
            let v = delta.at(r, label);
            delta.set(r, label, v - 1.0);
        }
        delta.scale_inplace(1.0 / batch);

        // Backpropagate layer by layer.
        for i in (0..self.layers.len()).rev() {
            let input: &Matrix = if i == 0 { x } else { &trace[i - 1] };
            let grad_w = input.transpose().matmul(&delta);
            let grad_b = delta.col_sums();

            if i > 0 {
                // Push delta through this layer's weights and the previous
                // layer's activation derivative.
                let mut prev_delta = delta.matmul(&self.layers[i].w.transpose());
                let act = self.hidden_activation;
                let prev_out = &trace[i - 1];
                for r in 0..prev_delta.rows() {
                    for c in 0..prev_delta.cols() {
                        let d = prev_delta.at(r, c) * act.derivative_from_output(prev_out.at(r, c));
                        prev_delta.set(r, c, d);
                    }
                }
                delta = prev_delta;
            }

            let layer = &mut self.layers[i];
            if cfg.weight_decay > 0.0 {
                let decayed = layer.w.clone();
                layer.w.saxpy_sub(cfg.learning_rate * cfg.weight_decay, &decayed);
            }
            layer.w.saxpy_sub(cfg.learning_rate, &grad_w);
            for (b, g) in layer.b.iter_mut().zip(&grad_b) {
                *b -= cfg.learning_rate * g;
            }
        }
        loss
    }

    /// Fraction of rows whose argmax matches the label.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f64 {
        let preds = self.classify(x);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / labels.len() as f64
    }

    /// Raw weights/biases per layer, for serialization and GPU upload.
    /// Returns `(weights, biases)` pairs, input-to-output order.
    pub fn parameters(&self) -> Vec<(&Matrix, &[f32])> {
        self.layers.iter().map(|l| (&l.w, l.b.as_slice())).collect()
    }

    /// Rebuilds a model from raw parameters (inverse of
    /// [`Mlp::parameters`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not chain (layer N's output ≠ layer N+1's
    /// input).
    pub fn from_parameters(params: Vec<(Matrix, Vec<f32>)>, hidden_activation: Activation) -> Self {
        assert!(!params.is_empty(), "need at least one layer");
        for w in params.windows(2) {
            assert_eq!(w[0].0.cols(), w[1].0.rows(), "layer shapes must chain");
        }
        let layers = params
            .into_iter()
            .map(|(w, b)| {
                assert_eq!(w.cols(), b.len(), "bias length must equal layer width");
                Dense { w, b }
            })
            .collect();
        Mlp { layers, hidden_activation }
    }
}

/// In-place row-wise softmax with max-subtraction for stability.
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_data() -> (Matrix, Vec<usize>) {
        let x =
            Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = Mlp::new(&[2, 16, 2], Activation::Tanh, &mut rng);
        let (x, y) = xor_data();
        let cfg = SgdConfig { learning_rate: 0.5, weight_decay: 0.0 };
        let first_loss = m.train_batch(&x, &y, &cfg);
        for _ in 0..500 {
            m.train_batch(&x, &y, &cfg);
        }
        let final_loss = m.train_batch(&x, &y, &cfg);
        assert!(final_loss < first_loss / 5.0, "loss {first_loss} -> {final_loss}");
        assert_eq!(m.classify(&x), y);
        assert_eq!(m.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, -1.0, 0.5, 2.0], vec![0.0; 4]]);
        let p = m.probabilities(&x);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn linnos_shapes_and_flops() {
        let mut rng = StdRng::seed_from_u64(1);
        // LinnOS base: 31 inputs -> 256 -> 2.
        let base = Mlp::new(&[31, 256, 2], Activation::Relu, &mut rng);
        assert_eq!(base.layer_sizes(), vec![31, 256, 2]);
        let expected_flops = 2.0 * (31.0 * 256.0 + 256.0 * 2.0);
        assert_eq!(base.flops_per_input(), expected_flops);

        // NN+1: [256, 256, 2]; NN+2: [256, 256, 256, 2].
        let plus1 = Mlp::widen(&[31, 256, 2], 1, Activation::Relu, &mut rng);
        assert_eq!(plus1.layer_sizes(), vec![31, 256, 256, 2]);
        let plus2 = Mlp::widen(&[31, 256, 2], 2, Activation::Relu, &mut rng);
        assert_eq!(plus2.layer_sizes(), vec![31, 256, 256, 256, 2]);
        assert!(plus2.flops_per_input() > plus1.flops_per_input());
    }

    #[test]
    fn parameters_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mlp::new(&[3, 5, 2], Activation::Sigmoid, &mut rng);
        let params: Vec<(Matrix, Vec<f32>)> =
            m.parameters().into_iter().map(|(w, b)| (w.clone(), b.to_vec())).collect();
        let rebuilt = Mlp::from_parameters(params, Activation::Sigmoid);
        let x = Matrix::from_rows(&[vec![0.3, -0.2, 0.9]]);
        assert_eq!(m.forward(&x).data(), rebuilt.forward(&x).data());
    }

    #[test]
    fn num_params_counts_weights_and_biases() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng);
        assert_eq!(m.num_params(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = Mlp::new(&[2, 4, 2], Activation::Relu, &mut rng);
        let norm_before: f32 =
            m.parameters().iter().map(|(w, _)| w.data().iter().map(|x| x * x).sum::<f32>()).sum();
        let (x, y) = xor_data();
        // With a small learning rate and strong decay, the decay term
        // dominates and the weight norm must shrink.
        let cfg = SgdConfig { learning_rate: 0.01, weight_decay: 5.0 };
        for _ in 0..50 {
            m.train_batch(&x, &y, &cfg);
        }
        let norm_after: f32 =
            m.parameters().iter().map(|(w, _)| w.data().iter().map(|x| x * x).sum::<f32>()).sum();
        assert!(norm_after < norm_before, "{norm_after} !< {norm_before}");
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Mlp::new(&[2, 4, 2], Activation::Relu, &mut rng);
        let (x, _) = xor_data();
        m.train_batch(&x, &[0, 1, 2, 0], &SgdConfig::default());
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let mut b = Matrix::from_rows(&[vec![101.0, 102.0, 103.0]]);
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
