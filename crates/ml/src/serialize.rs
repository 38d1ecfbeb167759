//! Model (de)serialization — the storage format behind the feature
//! registry's model management APIs.
//!
//! The registry (paper Table 1) commits models "to the file system and
//! load[s them] into memory at boot time". This module defines that file
//! format: a small self-describing little-endian binary layout, one of
//! [`ModelKind`] per file.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::knn::Knn;
use crate::lstm::{LstmCell, LstmClassifier};
use crate::mlp::{Activation, Mlp};
use crate::quant::{QuantizedCell, QuantizedDense, QuantizedLstm, QuantizedMlp};
use crate::tensor::Matrix;

const MAGIC: &[u8; 8] = b"LAKEML01";

/// What kind of model a blob contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// A feed-forward classifier ([`Mlp`]).
    Mlp,
    /// A stacked-LSTM classifier ([`LstmClassifier`]).
    Lstm,
    /// A k-NN database ([`Knn`]).
    Knn,
    /// An int8-quantized MLP ([`QuantizedMlp`]) — a separate model family
    /// from [`ModelKind::Mlp`], never a transparent replacement.
    QuantMlp,
    /// An int8-quantized LSTM ([`QuantizedLstm`]).
    QuantLstm,
}

impl ModelKind {
    fn to_u8(self) -> u8 {
        match self {
            ModelKind::Mlp => 1,
            ModelKind::Lstm => 2,
            ModelKind::Knn => 3,
            ModelKind::QuantMlp => 4,
            ModelKind::QuantLstm => 5,
        }
    }

    fn from_u8(v: u8) -> Option<ModelKind> {
        match v {
            1 => Some(ModelKind::Mlp),
            2 => Some(ModelKind::Lstm),
            3 => Some(ModelKind::Knn),
            4 => Some(ModelKind::QuantMlp),
            5 => Some(ModelKind::QuantLstm),
            _ => None,
        }
    }

    /// Inspects a blob's header without decoding the body.
    ///
    /// # Errors
    ///
    /// Returns [`ModelCodecError::BadMagic`] or
    /// [`ModelCodecError::UnknownKind`] for unrecognizable blobs.
    pub fn detect(blob: &[u8]) -> Result<ModelKind, ModelCodecError> {
        if blob.len() < 9 || &blob[..8] != MAGIC {
            return Err(ModelCodecError::BadMagic);
        }
        ModelKind::from_u8(blob[8]).ok_or(ModelCodecError::UnknownKind(blob[8]))
    }
}

/// Errors from model encoding/decoding.
#[derive(Debug)]
pub enum ModelCodecError {
    /// The blob does not start with the `LAKEML01` magic.
    BadMagic,
    /// The kind byte is unrecognized.
    UnknownKind(u8),
    /// The blob ended early or a length field is inconsistent.
    Corrupt(&'static str),
    /// Filesystem failure while persisting/loading.
    Io(io::Error),
}

impl fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelCodecError::BadMagic => f.write_str("not a LAKE model blob (bad magic)"),
            ModelCodecError::UnknownKind(k) => write!(f, "unknown model kind byte {k}"),
            ModelCodecError::Corrupt(what) => write!(f, "corrupt model blob: {what}"),
            ModelCodecError::Io(e) => write!(f, "model file i/o error: {e}"),
        }
    }
}

impl std::error::Error for ModelCodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelCodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ModelCodecError {
    fn from(e: io::Error) -> Self {
        ModelCodecError::Io(e)
    }
}

// -- primitive writers/readers ------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn new(kind: ModelKind) -> Self {
        let mut v = Vec::with_capacity(256);
        v.extend_from_slice(MAGIC);
        v.push(kind.to_u8());
        Writer(v)
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f32s(&mut self, vals: &[f32]) {
        self.u32(vals.len() as u32);
        for &x in vals {
            self.0.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn u32s(&mut self, vals: &[u32]) {
        self.u32(vals.len() as u32);
        for &x in vals {
            self.0.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn i8s(&mut self, vals: &[i8]) {
        self.u32(vals.len() as u32);
        for &x in vals {
            self.0.push(x as u8);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.u32(m.rows() as u32);
        self.u32(m.cols() as u32);
        self.f32s(m.data());
    }
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelCodecError> {
        if self.0.len() < n {
            return Err(ModelCodecError::Corrupt("unexpected end of blob"));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ModelCodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ModelCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, ModelCodecError> {
        let n = self.u32()? as usize;
        let raw =
            self.take(n.checked_mul(4).ok_or(ModelCodecError::Corrupt("length overflow"))?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn u32s(&mut self) -> Result<Vec<u32>, ModelCodecError> {
        let n = self.u32()? as usize;
        let raw =
            self.take(n.checked_mul(4).ok_or(ModelCodecError::Corrupt("length overflow"))?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn i8s(&mut self) -> Result<Vec<i8>, ModelCodecError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }

    fn matrix(&mut self) -> Result<Matrix, ModelCodecError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let data = self.f32s()?;
        if data.len() != rows * cols || rows == 0 || cols == 0 {
            return Err(ModelCodecError::Corrupt("matrix shape mismatch"));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    fn done(self) -> Result<(), ModelCodecError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(ModelCodecError::Corrupt("trailing bytes"))
        }
    }
}

fn body_reader(blob: &[u8], kind: ModelKind) -> Result<Reader<'_>, ModelCodecError> {
    let found = ModelKind::detect(blob)?;
    if found != kind {
        return Err(ModelCodecError::Corrupt("wrong model kind for decoder"));
    }
    Ok(Reader(&blob[9..]))
}

fn activation_to_u8(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Sigmoid => 1,
        Activation::Tanh => 2,
    }
}

fn activation_from_u8(v: u8) -> Result<Activation, ModelCodecError> {
    match v {
        0 => Ok(Activation::Relu),
        1 => Ok(Activation::Sigmoid),
        2 => Ok(Activation::Tanh),
        _ => Err(ModelCodecError::Corrupt("unknown activation byte")),
    }
}

// -- MLP ------------------------------------------------------------------

/// Encodes an [`Mlp`] into a model blob.
pub fn encode_mlp(model: &Mlp) -> Vec<u8> {
    let mut w = Writer::new(ModelKind::Mlp);
    w.u8(activation_to_u8(model.hidden_activation()));
    let params = model.parameters();
    w.u32(params.len() as u32);
    for (weights, bias) in params {
        w.matrix(weights);
        w.f32s(bias);
    }
    w.0
}

/// Decodes an [`Mlp`] from a model blob.
///
/// # Errors
///
/// Returns [`ModelCodecError`] for malformed blobs.
pub fn decode_mlp(blob: &[u8]) -> Result<Mlp, ModelCodecError> {
    let mut r = body_reader(blob, ModelKind::Mlp)?;
    let act = activation_from_u8(r.u8()?)?;
    let n = r.u32()? as usize;
    if n == 0 {
        return Err(ModelCodecError::Corrupt("mlp with zero layers"));
    }
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let weights = r.matrix()?;
        let bias = r.f32s()?;
        if bias.len() != weights.cols() {
            return Err(ModelCodecError::Corrupt("bias/weights mismatch"));
        }
        params.push((weights, bias));
    }
    for pair in params.windows(2) {
        if pair[0].0.cols() != pair[1].0.rows() {
            return Err(ModelCodecError::Corrupt("layer shapes do not chain"));
        }
    }
    r.done()?;
    Ok(Mlp::from_parameters(params, act))
}

// -- LSTM -----------------------------------------------------------------

/// Encodes an [`LstmClassifier`] into a model blob.
pub fn encode_lstm(model: &LstmClassifier) -> Vec<u8> {
    let mut w = Writer::new(ModelKind::Lstm);
    w.u32(model.cells().len() as u32);
    for cell in model.cells() {
        let (wx, wh, b) = cell.raw_parts();
        w.matrix(wx);
        w.matrix(wh);
        w.f32s(b);
    }
    let (head_w, head_b) = model.head();
    w.matrix(head_w);
    w.f32s(head_b);
    w.0
}

/// Decodes an [`LstmClassifier`] from a model blob.
///
/// # Errors
///
/// Returns [`ModelCodecError`] for malformed blobs.
pub fn decode_lstm(blob: &[u8]) -> Result<LstmClassifier, ModelCodecError> {
    let mut r = body_reader(blob, ModelKind::Lstm)?;
    let n = r.u32()? as usize;
    if n == 0 {
        return Err(ModelCodecError::Corrupt("lstm with zero layers"));
    }
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let wx = r.matrix()?;
        let wh = r.matrix()?;
        let b = r.f32s()?;
        if wx.cols() % 4 != 0
            || wh.rows() != wx.cols() / 4
            || wh.cols() != wx.cols()
            || b.len() != wx.cols()
        {
            return Err(ModelCodecError::Corrupt("lstm cell shape mismatch"));
        }
        cells.push(LstmCell::from_raw_parts(wx, wh, b));
    }
    let head_w = r.matrix()?;
    let head_b = r.f32s()?;
    if head_b.len() != head_w.cols()
        || head_w.rows() != cells.last().expect("non-empty").hidden_size()
    {
        return Err(ModelCodecError::Corrupt("lstm head shape mismatch"));
    }
    for pair in cells.windows(2) {
        if pair[0].hidden_size() != pair[1].input_size() {
            return Err(ModelCodecError::Corrupt("lstm layer sizes do not chain"));
        }
    }
    r.done()?;
    Ok(LstmClassifier::from_parts(cells, head_w, head_b))
}

// -- k-NN -----------------------------------------------------------------

/// Encodes a [`Knn`] into a model blob.
pub fn encode_knn(model: &Knn) -> Vec<u8> {
    let mut w = Writer::new(ModelKind::Knn);
    w.u32(model.k() as u32);
    w.matrix(model.references());
    w.u32s(model.labels());
    w.0
}

/// Decodes a [`Knn`] from a model blob.
///
/// # Errors
///
/// Returns [`ModelCodecError`] for malformed blobs.
pub fn decode_knn(blob: &[u8]) -> Result<Knn, ModelCodecError> {
    let mut r = body_reader(blob, ModelKind::Knn)?;
    let k = r.u32()? as usize;
    let refs = r.matrix()?;
    let labels = r.u32s()?;
    if labels.len() != refs.rows() || k == 0 || k > refs.rows() {
        return Err(ModelCodecError::Corrupt("knn labels/k mismatch"));
    }
    r.done()?;
    Ok(Knn::new(refs, labels, k))
}

// -- quantized models ------------------------------------------------------

fn encode_quant_dense(w: &mut Writer, layer: &QuantizedDense) {
    w.u32(layer.k as u32);
    w.u32(layer.n as u32);
    w.i8s(&layer.w);
    w.f32s(&layer.scale);
    w.f32s(&layer.b);
}

fn decode_quant_dense(r: &mut Reader<'_>) -> Result<QuantizedDense, ModelCodecError> {
    let k = r.u32()? as usize;
    let n = r.u32()? as usize;
    let w = r.i8s()?;
    let scale = r.f32s()?;
    let b = r.f32s()?;
    if k == 0 || n == 0 || w.len() != k * n || scale.len() != n || b.len() != n {
        return Err(ModelCodecError::Corrupt("quant layer shape mismatch"));
    }
    Ok(QuantizedDense::from_parts(k, n, w, scale, b))
}

/// Encodes a [`QuantizedMlp`] into a model blob (i8 weight payload —
/// ≈ 4× smaller than the f32 original's).
pub fn encode_quant_mlp(model: &QuantizedMlp) -> Vec<u8> {
    let mut w = Writer::new(ModelKind::QuantMlp);
    w.u8(activation_to_u8(model.hidden_activation()));
    let layers = model.layers();
    w.u32(layers.len() as u32);
    for layer in layers {
        encode_quant_dense(&mut w, layer);
    }
    w.0
}

/// Decodes a [`QuantizedMlp`] from a model blob.
///
/// # Errors
///
/// Returns [`ModelCodecError`] for malformed blobs.
pub fn decode_quant_mlp(blob: &[u8]) -> Result<QuantizedMlp, ModelCodecError> {
    let mut r = body_reader(blob, ModelKind::QuantMlp)?;
    let act = activation_from_u8(r.u8()?)?;
    let n = r.u32()? as usize;
    if n == 0 {
        return Err(ModelCodecError::Corrupt("quant mlp with zero layers"));
    }
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        layers.push(decode_quant_dense(&mut r)?);
    }
    for pair in layers.windows(2) {
        if pair[0].cols() != pair[1].rows() {
            return Err(ModelCodecError::Corrupt("quant mlp layers do not chain"));
        }
    }
    r.done()?;
    Ok(QuantizedMlp::from_parts(layers, act))
}

/// Encodes a [`QuantizedLstm`] into a model blob.
pub fn encode_quant_lstm(model: &QuantizedLstm) -> Vec<u8> {
    let mut w = Writer::new(ModelKind::QuantLstm);
    let cells = model.quant_cells();
    w.u32(cells.len() as u32);
    for cell in cells {
        w.u32(cell.input_size() as u32);
        w.u32(cell.hidden_size() as u32);
        encode_quant_dense(&mut w, cell.wx());
        encode_quant_dense(&mut w, cell.wh());
    }
    let (head_w, head_b) = model.head();
    w.matrix(head_w);
    w.f32s(head_b);
    w.0
}

/// Decodes a [`QuantizedLstm`] from a model blob.
///
/// # Errors
///
/// Returns [`ModelCodecError`] for malformed blobs.
pub fn decode_quant_lstm(blob: &[u8]) -> Result<QuantizedLstm, ModelCodecError> {
    let mut r = body_reader(blob, ModelKind::QuantLstm)?;
    let n = r.u32()? as usize;
    if n == 0 {
        return Err(ModelCodecError::Corrupt("quant lstm with zero layers"));
    }
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let input = r.u32()? as usize;
        let hidden = r.u32()? as usize;
        let wx = decode_quant_dense(&mut r)?;
        let wh = decode_quant_dense(&mut r)?;
        if hidden == 0
            || wx.rows() != input
            || wx.cols() != 4 * hidden
            || wh.rows() != hidden
            || wh.cols() != 4 * hidden
        {
            return Err(ModelCodecError::Corrupt("quant lstm cell shape mismatch"));
        }
        cells.push(QuantizedCell::from_parts(input, hidden, wx, wh));
    }
    for pair in cells.windows(2) {
        if pair[0].hidden_size() != pair[1].input_size() {
            return Err(ModelCodecError::Corrupt("quant lstm layer sizes do not chain"));
        }
    }
    let head_w = r.matrix()?;
    let head_b = r.f32s()?;
    if head_b.len() != head_w.cols()
        || head_w.rows() != cells.last().expect("non-empty").hidden_size()
    {
        return Err(ModelCodecError::Corrupt("quant lstm head shape mismatch"));
    }
    r.done()?;
    Ok(QuantizedLstm::from_parts(cells, head_w, head_b))
}

// -- file helpers ----------------------------------------------------------

/// Persists a model blob to a path (the registry's `update_model`). The
/// blob goes to a sibling temp file that is synced and then renamed over
/// `path`, so a crash mid-write leaves the previous copy whole.
///
/// # Errors
///
/// Returns [`ModelCodecError::Io`] on filesystem failure.
pub fn save_blob(path: &Path, blob: &[u8]) -> Result<(), ModelCodecError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_owned();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(blob)?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads a model blob from a path (the registry's `load_model`) and
/// decodes it in full, so a torn file is rejected rather than loaded.
///
/// # Errors
///
/// Returns [`ModelCodecError::Io`] on filesystem failure,
/// [`ModelCodecError::BadMagic`] if the file is not a model blob and
/// [`ModelCodecError::Corrupt`] if its body does not decode.
pub fn load_blob(path: &Path) -> Result<Vec<u8>, ModelCodecError> {
    let blob = fs::read(path)?;
    validate(&blob)?;
    Ok(blob)
}

/// Runs the decoder for the blob's kind, discarding the model.
fn validate(blob: &[u8]) -> Result<(), ModelCodecError> {
    match ModelKind::detect(blob)? {
        ModelKind::Mlp => decode_mlp(blob).map(drop),
        ModelKind::Lstm => decode_lstm(blob).map(drop),
        ModelKind::Knn => decode_knn(blob).map(drop),
        ModelKind::QuantMlp => decode_quant_mlp(blob).map(drop),
        ModelKind::QuantLstm => decode_quant_lstm(blob).map(drop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Mlp::new(&[5, 12, 3], Activation::Tanh, &mut rng);
        let blob = encode_mlp(&model);
        assert_eq!(ModelKind::detect(&blob).unwrap(), ModelKind::Mlp);
        let back = decode_mlp(&blob).unwrap();
        let x = Matrix::from_rows(&[vec![0.1, -0.2, 0.3, 0.4, -0.5]]);
        assert_eq!(model.forward(&x).data(), back.forward(&x).data());
    }

    #[test]
    fn lstm_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = LstmClassifier::new(3, 6, 2, 4, &mut rng);
        let blob = encode_lstm(&model);
        assert_eq!(ModelKind::detect(&blob).unwrap(), ModelKind::Lstm);
        let back = decode_lstm(&blob).unwrap();
        let seq = vec![vec![0.5, -0.5, 0.25]; 4];
        assert_eq!(model.forward(&seq), back.forward(&seq));
    }

    #[test]
    fn knn_roundtrip_preserves_classification() {
        let refs = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![5.1, 5.0]]);
        let model = Knn::new(refs, vec![0, 1, 1], 3);
        let blob = encode_knn(&model);
        assert_eq!(ModelKind::detect(&blob).unwrap(), ModelKind::Knn);
        let back = decode_knn(&blob).unwrap();
        assert_eq!(back.classify(&[4.9, 5.0]), model.classify(&[4.9, 5.0]));
        assert_eq!(back.k(), 3);
    }

    #[test]
    fn quant_mlp_roundtrip_preserves_outputs_and_shrinks_blob() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = Mlp::new(&[64, 128, 8], Activation::Relu, &mut rng);
        let q = QuantizedMlp::quantize(&model);
        let blob = encode_quant_mlp(&q);
        assert_eq!(ModelKind::detect(&blob).unwrap(), ModelKind::QuantMlp);
        let back = decode_quant_mlp(&blob).unwrap();
        let x = Matrix::from_rows(&[(0..64).map(|i| (i as f32) * 0.03 - 0.8).collect::<Vec<_>>()]);
        assert_eq!(q.classify(&x), back.classify(&x));
        // The int8 payload beats the f32 blob by roughly 4× (scales,
        // biases and framing eat a little of the win).
        let f32_blob = encode_mlp(&model);
        assert!(
            blob.len() * 3 < f32_blob.len(),
            "quant blob {} vs f32 blob {}",
            blob.len(),
            f32_blob.len()
        );
    }

    #[test]
    fn quant_lstm_roundtrip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = LstmClassifier::new(8, 32, 2, 4, &mut rng);
        let q = QuantizedLstm::quantize(&model);
        let blob = encode_quant_lstm(&q);
        assert_eq!(ModelKind::detect(&blob).unwrap(), ModelKind::QuantLstm);
        let back = decode_quant_lstm(&blob).unwrap();
        let seq = vec![vec![0.5, -0.5, 0.25, 0.1, -0.7, 0.9, 0.0, 0.3]; 5];
        assert_eq!(q.classify(&seq), back.classify(&seq));
        let f32_blob = encode_lstm(&model);
        assert!(blob.len() * 2 < f32_blob.len(), "quant lstm blob not smaller");
    }

    #[test]
    fn quant_truncation_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        let blob = encode_quant_mlp(&QuantizedMlp::quantize(&model));
        for cut in [9, blob.len() / 2, blob.len() - 1] {
            assert!(decode_quant_mlp(&blob[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut extended = blob.clone();
        extended.push(0);
        assert!(decode_quant_mlp(&extended).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(ModelKind::detect(b"NOTMAGIC1"), Err(ModelCodecError::BadMagic)));
        assert!(matches!(ModelKind::detect(&[]), Err(ModelCodecError::BadMagic)));
    }

    #[test]
    fn wrong_kind_rejected() {
        let refs = Matrix::from_rows(&[vec![0.0]]);
        let blob = encode_knn(&Knn::new(refs, vec![0], 1));
        assert!(matches!(decode_mlp(&blob), Err(ModelCodecError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Mlp::new(&[2, 4, 2], Activation::Relu, &mut rng);
        let blob = encode_mlp(&model);
        for cut in [9, blob.len() / 2, blob.len() - 1] {
            assert!(decode_mlp(&blob[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Mlp::new(&[2, 4, 2], Activation::Relu, &mut rng);
        let mut blob = encode_mlp(&model);
        blob.push(0);
        assert!(matches!(decode_mlp(&blob), Err(ModelCodecError::Corrupt("trailing bytes"))));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lake-ml-serialize-test");
        let path = dir.join("model.lakeml");
        let mut rng = StdRng::seed_from_u64(4);
        let model = Mlp::new(&[3, 4, 2], Activation::Relu, &mut rng);
        let blob = encode_mlp(&model);
        save_blob(&path, &blob).unwrap();
        let back = load_blob(&path).unwrap();
        assert_eq!(back, blob);
        // A smaller blob replaces the file whole, and no temp file stays.
        let small = encode_mlp(&Mlp::new(&[3, 2], Activation::Relu, &mut rng));
        save_blob(&path, &small).unwrap();
        assert_eq!(load_blob(&path).unwrap(), small);
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["model.lakeml"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_non_model_files() {
        let dir = std::env::temp_dir().join("lake-ml-serialize-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        std::fs::write(&path, b"hello world").unwrap();
        assert!(matches!(load_blob(&path), Err(ModelCodecError::BadMagic)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
