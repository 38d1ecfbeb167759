//! The Table 1 facade: named registries, model management, and
//! classifiers bound to `LakeMl` models.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::RwLock;

use lake_core::{LakeError, LakeMl, ModelId};
use lake_ml::serialize;
use lake_sim::Instant;

use crate::registry::Registry;
use crate::schema::Schema;
use crate::vector::FeatureVector;

/// Errors from the feature-registry service.
#[derive(Debug)]
pub enum RegistryError {
    /// No registry under `(name, subsystem)`.
    UnknownRegistry(String, String),
    /// `create_registry` on an existing `(name, subsystem)`.
    DuplicateRegistry(String, String),
    /// The feature key is not in the registry's schema.
    UnknownFeature(String),
    /// `commit_fv_capture` without an open capture.
    NoCaptureOpen,
    /// `score_features` on a registry with no classifier bound.
    NoClassifier,
    /// No model under `(name, subsystem)`.
    UnknownModel(String, String),
    /// Model file/codec failure.
    Model(serialize::ModelCodecError),
    /// The classifier's inference failed.
    Lake(LakeError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownRegistry(n, s) => write!(f, "no registry {n:?}/{s:?}"),
            RegistryError::DuplicateRegistry(n, s) => {
                write!(f, "registry {n:?}/{s:?} already exists")
            }
            RegistryError::UnknownFeature(k) => write!(f, "feature {k:?} not in schema"),
            RegistryError::NoCaptureOpen => f.write_str("no feature-vector capture is open"),
            RegistryError::NoClassifier => f.write_str("no classifier registered"),
            RegistryError::UnknownModel(n, s) => write!(f, "no model {n:?}/{s:?}"),
            RegistryError::Model(e) => write!(f, "model failure: {e}"),
            RegistryError::Lake(e) => write!(f, "classifier inference failed: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<serialize::ModelCodecError> for RegistryError {
    fn from(e: serialize::ModelCodecError) -> Self {
        RegistryError::Model(e)
    }
}

impl From<LakeError> for RegistryError {
    fn from(e: LakeError) -> Self {
        RegistryError::Lake(e)
    }
}

struct Entry {
    registry: Arc<Registry>,
    classifier: Option<(LakeMl, ModelId)>,
}

struct ModelEntry {
    path: PathBuf,
    /// in-memory copy — "at inference time, having the model in memory is
    /// critical to performance" (§5.1)
    blob: Option<Vec<u8>>,
}

/// The global feature-registry service (Table 1).
#[derive(Default)]
pub struct FeatureRegistryService {
    entries: RwLock<HashMap<(String, String), Entry>>,
    models: RwLock<HashMap<(String, String), ModelEntry>>,
}

impl fmt::Debug for FeatureRegistryService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeatureRegistryService")
            .field("registries", &self.entries.read().len())
            .field("models", &self.models.read().len())
            .finish()
    }
}

fn key(name: &str, sys: &str) -> (String, String) {
    (name.to_owned(), sys.to_owned())
}

impl FeatureRegistryService {
    /// Creates an empty service.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_entry<R>(
        &self,
        name: &str,
        sys: &str,
        f: impl FnOnce(&Entry) -> R,
    ) -> Result<R, RegistryError> {
        let entries = self.entries.read();
        entries
            .get(&key(name, sys))
            .map(f)
            .ok_or_else(|| RegistryError::UnknownRegistry(name.to_owned(), sys.to_owned()))
    }

    // -- registry lifecycle -------------------------------------------------

    /// `create_registry(name, sys, schema, window)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::DuplicateRegistry`] if it already exists.
    pub fn create_registry(
        &self,
        name: &str,
        sys: &str,
        schema: Schema,
        window: usize,
    ) -> Result<(), RegistryError> {
        let mut entries = self.entries.write();
        if entries.contains_key(&key(name, sys)) {
            return Err(RegistryError::DuplicateRegistry(name.to_owned(), sys.to_owned()));
        }
        entries.insert(
            key(name, sys),
            Entry { registry: Arc::new(Registry::new(schema, window)), classifier: None },
        );
        Ok(())
    }

    /// `destroy_registry(name, sys)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownRegistry`] if absent.
    pub fn destroy_registry(&self, name: &str, sys: &str) -> Result<(), RegistryError> {
        self.entries
            .write()
            .remove(&key(name, sys))
            .map(|_| ())
            .ok_or_else(|| RegistryError::UnknownRegistry(name.to_owned(), sys.to_owned()))
    }

    /// Direct handle to a registry (for hot paths that want to skip the
    /// name lookup).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownRegistry`] if absent.
    pub fn registry(&self, name: &str, sys: &str) -> Result<Arc<Registry>, RegistryError> {
        self.with_entry(name, sys, |e| Arc::clone(&e.registry))
    }

    // -- model management (§5.1) ---------------------------------------------

    /// `create_model(name, sys, path)`: registers a model slot persisted
    /// at `path` and writes `blob` there.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Model`] on filesystem failure.
    pub fn create_model(
        &self,
        name: &str,
        sys: &str,
        path: &Path,
        blob: &[u8],
    ) -> Result<(), RegistryError> {
        serialize::save_blob(path, blob)?;
        self.models.write().insert(
            key(name, sys),
            ModelEntry { path: path.to_owned(), blob: Some(blob.to_vec()) },
        );
        Ok(())
    }

    /// `update_model(name, sys, path)`: commits a changed model to the
    /// file system (and refreshes the in-memory copy).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if the slot does not exist,
    /// [`RegistryError::Model`] on filesystem failure.
    pub fn update_model(&self, name: &str, sys: &str, blob: &[u8]) -> Result<(), RegistryError> {
        let mut models = self.models.write();
        let entry = models
            .get_mut(&key(name, sys))
            .ok_or_else(|| RegistryError::UnknownModel(name.to_owned(), sys.to_owned()))?;
        serialize::save_blob(&entry.path, blob)?;
        entry.blob = Some(blob.to_vec());
        Ok(())
    }

    /// `load_model(name, sys, path)`: loads a model from `path` into
    /// memory (normally done at boot).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Model`] if the file is unreadable or not
    /// a model blob.
    pub fn load_model(&self, name: &str, sys: &str, path: &Path) -> Result<(), RegistryError> {
        let blob = serialize::load_blob(path)?;
        self.models
            .write()
            .insert(key(name, sys), ModelEntry { path: path.to_owned(), blob: Some(blob) });
        Ok(())
    }

    /// `delete_model(name, sys, path)`: removes the model from the file
    /// system, then from memory. A file that is already gone counts as
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if absent, and
    /// [`RegistryError::Model`] if the file could not be removed; the
    /// model then stays loaded.
    pub fn delete_model(&self, name: &str, sys: &str) -> Result<(), RegistryError> {
        let mut models = self.models.write();
        let entry = models
            .get(&key(name, sys))
            .ok_or_else(|| RegistryError::UnknownModel(name.to_owned(), sys.to_owned()))?;
        match std::fs::remove_file(&entry.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(serialize::ModelCodecError::Io(e).into())
            }
            _ => {}
        }
        models.remove(&key(name, sys));
        Ok(())
    }

    /// The in-memory model blob, if loaded.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] if the slot is absent or
    /// empty.
    pub fn model_blob(&self, name: &str, sys: &str) -> Result<Vec<u8>, RegistryError> {
        self.models
            .read()
            .get(&key(name, sys))
            .and_then(|e| e.blob.clone())
            .ok_or_else(|| RegistryError::UnknownModel(name.to_owned(), sys.to_owned()))
    }

    // -- classifiers ------------------------------------------------------------

    /// `register_classifier(name, sys, fn, arch)` (Table 1): binds the
    /// registry to `model`, an MLP loaded through `ml`. The handle is
    /// cloned, and its installed policy decides per batch where
    /// [`FeatureRegistryService::score_features`] runs, so there is no
    /// `arch` argument here. Rebinding replaces the previous model.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownRegistry`] if absent.
    pub fn register_classifier(
        &self,
        name: &str,
        sys: &str,
        ml: &LakeMl,
        model: ModelId,
    ) -> Result<(), RegistryError> {
        let mut entries = self.entries.write();
        let entry = entries
            .get_mut(&key(name, sys))
            .ok_or_else(|| RegistryError::UnknownRegistry(name.to_owned(), sys.to_owned()))?;
        entry.classifier = Some((ml.clone(), model));
        Ok(())
    }

    /// `score_features(name, sys, fvs)` (Table 1): flattens the batch with
    /// the registry's schema and classifies it with one
    /// [`LakeMl::infer_mlp`]; returns one class per vector. The bound
    /// handle's policy (§4.2) runs the batch in the caller's thread below
    /// its crossover and offloads it at or above it, with identical
    /// answers either way. The registry lock is released before the
    /// inference, so captures never wait on one. An empty batch makes no
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::NoClassifier`] if no model is bound, and
    /// [`RegistryError::Lake`] if the inference fails.
    pub fn score_features(
        &self,
        name: &str,
        sys: &str,
        fvs: &[FeatureVector],
    ) -> Result<Vec<u32>, RegistryError> {
        let (registry, classifier) =
            self.with_entry(name, sys, |e| (Arc::clone(&e.registry), e.classifier.clone()))?;
        let (ml, model) = classifier.ok_or(RegistryError::NoClassifier)?;
        if fvs.is_empty() {
            return Ok(Vec::new());
        }
        let schema = registry.schema();
        let features: Vec<f32> = fvs.iter().flat_map(|fv| fv.to_f32_features(schema)).collect();
        Ok(ml.infer_mlp(model, fvs.len(), schema.flat_width(), &features)?)
    }

    // -- capture and batch APIs -------------------------------------------------

    /// `begin_fv_capture(name, sys, ts)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownRegistry`] if absent.
    pub fn begin_fv_capture(
        &self,
        name: &str,
        sys: &str,
        ts: Instant,
    ) -> Result<(), RegistryError> {
        self.with_entry(name, sys, |e| e.registry.begin_capture(ts))
    }

    /// `capture_feature(name, sys, key, val)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownFeature`] for keys outside the
    /// schema.
    pub fn capture_feature(
        &self,
        name: &str,
        sys: &str,
        feature: &str,
        value: &[u8],
    ) -> Result<(), RegistryError> {
        let ok = self.with_entry(name, sys, |e| e.registry.capture(feature, value))?;
        if ok {
            Ok(())
        } else {
            Err(RegistryError::UnknownFeature(feature.to_owned()))
        }
    }

    /// `capture_feature_incr(name, sys, key, incrval)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownFeature`] for keys outside the
    /// schema.
    pub fn capture_feature_incr(
        &self,
        name: &str,
        sys: &str,
        feature: &str,
        delta: i64,
    ) -> Result<(), RegistryError> {
        let ok = self.with_entry(name, sys, |e| e.registry.capture_incr(feature, delta))?;
        if ok {
            Ok(())
        } else {
            Err(RegistryError::UnknownFeature(feature.to_owned()))
        }
    }

    /// `commit_fv_capture(name, sys, ts)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::NoCaptureOpen`] if `begin_fv_capture` was
    /// not called.
    pub fn commit_fv_capture(
        &self,
        name: &str,
        sys: &str,
        ts: Instant,
    ) -> Result<(), RegistryError> {
        let ok = self.with_entry(name, sys, |e| e.registry.commit(ts))?;
        if ok {
            Ok(())
        } else {
            Err(RegistryError::NoCaptureOpen)
        }
    }

    /// `get_features(name, sys, ts)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownRegistry`] if absent.
    pub fn get_features(
        &self,
        name: &str,
        sys: &str,
        ts: Option<Instant>,
    ) -> Result<Vec<FeatureVector>, RegistryError> {
        self.with_entry(name, sys, |e| e.registry.get(ts))
    }

    /// `truncate_features(name, sys, ts)`; returns how many vectors were
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownRegistry`] if absent.
    pub fn truncate_features(
        &self,
        name: &str,
        sys: &str,
        ts: Option<Instant>,
    ) -> Result<usize, RegistryError> {
        self.with_entry(name, sys, |e| e.registry.truncate(ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_with_registry() -> FeatureRegistryService {
        let s = FeatureRegistryService::new();
        let schema = Schema::builder().feature("pend_ios", 8, 1).feature("lat", 8, 2).build();
        s.create_registry("sda1", "bio", schema, 16).unwrap();
        s
    }

    fn small_mlp() -> lake_ml::Mlp {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        lake_ml::Mlp::new(&[3, 4, 2], lake_ml::Activation::Relu, &mut rng)
    }

    #[test]
    fn lifecycle() {
        let s = service_with_registry();
        assert!(matches!(
            s.create_registry("sda1", "bio", Schema::builder().feature("x", 4, 1).build(), 4),
            Err(RegistryError::DuplicateRegistry(..))
        ));
        s.destroy_registry("sda1", "bio").unwrap();
        assert!(matches!(
            s.destroy_registry("sda1", "bio"),
            Err(RegistryError::UnknownRegistry(..))
        ));
    }

    #[test]
    fn capture_flow_via_names() {
        let s = service_with_registry();
        s.begin_fv_capture("sda1", "bio", Instant::from_nanos(10)).unwrap();
        s.capture_feature_incr("sda1", "bio", "pend_ios", 2).unwrap();
        s.capture_feature("sda1", "bio", "lat", &99i64.to_le_bytes()).unwrap();
        s.commit_fv_capture("sda1", "bio", Instant::from_nanos(20)).unwrap();
        let fvs = s.get_features("sda1", "bio", None).unwrap();
        assert_eq!(fvs.len(), 1);
        assert_eq!(fvs[0].get_i64("pend_ios"), Some(2));
        assert_eq!(s.truncate_features("sda1", "bio", None).unwrap(), 0); // history keeps last
    }

    #[test]
    fn unknown_names_and_features_error() {
        let s = service_with_registry();
        assert!(matches!(
            s.begin_fv_capture("nvme0", "bio", Instant::EPOCH),
            Err(RegistryError::UnknownRegistry(..))
        ));
        s.begin_fv_capture("sda1", "bio", Instant::EPOCH).unwrap();
        assert!(matches!(
            s.capture_feature("sda1", "bio", "bogus", &[0; 8]),
            Err(RegistryError::UnknownFeature(_))
        ));
        assert!(matches!(
            s.commit_fv_capture("sda1", "bogus", Instant::EPOCH),
            Err(RegistryError::UnknownRegistry(..))
        ));
    }

    #[test]
    fn commit_without_begin_errors() {
        let s = service_with_registry();
        assert!(matches!(
            s.commit_fv_capture("sda1", "bio", Instant::EPOCH),
            Err(RegistryError::NoCaptureOpen)
        ));
    }

    #[test]
    fn classifier_scores_through_lake_ml_on_both_sides_of_the_crossover() {
        use lake_core::{BatchThresholdPolicy, Lake};
        use lake_ml::{Activation, Mlp};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let s = service_with_registry();
        for i in 0..12u64 {
            s.begin_fv_capture("sda1", "bio", Instant::from_nanos(i * 10)).unwrap();
            s.capture_feature_incr("sda1", "bio", "pend_ios", i as i64 % 5).unwrap();
            s.capture_feature("sda1", "bio", "lat", &(i as i64 * 37 - 200).to_le_bytes()).unwrap();
            s.commit_fv_capture("sda1", "bio", Instant::from_nanos(i * 10 + 5)).unwrap();
        }
        let fvs = s.get_features("sda1", "bio", None).unwrap();
        assert_eq!(fvs.len(), 12);
        let schema = s.registry("sda1", "bio").unwrap().schema().clone();
        let flat: Vec<f32> = fvs.iter().flat_map(|fv| fv.to_f32_features(&schema)).collect();
        let cols = schema.flat_width();

        let lake = Lake::builder().build();
        let ml = lake.ml();
        let oracle = lake.ml().with_policy(BatchThresholdPolicy { batch_threshold: 0 });
        let mlp = Mlp::new(&[cols, 8, 2], Activation::Relu, &mut StdRng::seed_from_u64(9));
        let f32_model = ml.load_model(&serialize::encode_mlp(&mlp)).unwrap();
        let int8_model = ml.quantize_model(f32_model).unwrap();

        for model in [f32_model, int8_model] {
            s.register_classifier("sda1", "bio", &ml, model).unwrap();
            for n in [1, 7, 8, 12] {
                let local = lake.supervisor().local_stats().inferences;
                let calls = lake.call_stats().calls;
                let scores = s.score_features("sda1", "bio", &fvs[..n]).unwrap();
                let offloaded = u64::from(n >= 8);
                assert_eq!(lake.supervisor().local_stats().inferences, local + 1 - offloaded);
                assert_eq!(lake.call_stats().calls, calls + offloaded, "{n} rows");
                let expected = oracle.infer_mlp(model, n, cols, &flat[..n * cols]).unwrap();
                assert_eq!(scores, expected, "{model} at {n} rows");
            }
            let calls = lake.call_stats().calls;
            assert_eq!(s.score_features("sda1", "bio", &[]).unwrap(), Vec::<u32>::new());
            assert_eq!(lake.call_stats().calls, calls);
        }
    }

    #[test]
    fn score_without_classifier_errors() {
        let s = service_with_registry();
        let err = s.score_features("sda1", "bio", &[]).unwrap_err();
        assert!(matches!(err, RegistryError::NoClassifier));
    }

    #[test]
    fn model_lifecycle_via_files() {
        use lake_ml::{Activation, Mlp};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let dir = std::env::temp_dir().join("lake-registry-model-test");
        let path = dir.join("bio.lakeml");
        let s = service_with_registry();

        let mut rng = StdRng::seed_from_u64(1);
        let model = Mlp::new(&[3, 4, 2], Activation::Relu, &mut rng);
        let blob = serialize::encode_mlp(&model);
        s.create_model("sda1", "bio", &path, &blob).unwrap();
        assert_eq!(s.model_blob("sda1", "bio").unwrap(), blob);

        // update: retrain and commit
        let model2 = Mlp::new(&[3, 8, 2], Activation::Relu, &mut rng);
        let blob2 = serialize::encode_mlp(&model2);
        s.update_model("sda1", "bio", &blob2).unwrap();
        assert_eq!(s.model_blob("sda1", "bio").unwrap(), blob2);

        // reload from the file system (a fresh boot)
        let s2 = FeatureRegistryService::new();
        s2.load_model("sda1", "bio", &path).unwrap();
        assert_eq!(s2.model_blob("sda1", "bio").unwrap(), blob2);

        s.delete_model("sda1", "bio").unwrap();
        assert!(matches!(s.model_blob("sda1", "bio"), Err(RegistryError::UnknownModel(..))));
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_model_keeps_the_model_when_its_file_survives() {
        let dir = std::env::temp_dir().join("lake-registry-delete-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("bio.lakeml");
        let s = service_with_registry();
        s.create_model("sda1", "bio", &path, &serialize::encode_mlp(&small_mlp())).unwrap();
        // A non-empty directory where the file was: `remove_file` fails.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir_all(path.join("child")).unwrap();
        assert!(matches!(s.delete_model("sda1", "bio"), Err(RegistryError::Model(_))));
        assert!(s.model_blob("sda1", "bio").is_ok());
        // Once the path is gone, deleting succeeds.
        std::fs::remove_dir_all(&path).unwrap();
        s.delete_model("sda1", "bio").unwrap();
        assert!(matches!(s.model_blob("sda1", "bio"), Err(RegistryError::UnknownModel(..))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_model_file_is_rejected_at_load() {
        let dir = std::env::temp_dir().join("lake-registry-torn-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("bio.lakeml");
        let s = service_with_registry();
        let blob = serialize::encode_mlp(&small_mlp());
        s.create_model("sda1", "bio", &path, &blob).unwrap();
        std::fs::write(&path, &blob[..blob.len() - 8]).unwrap();
        let fresh = FeatureRegistryService::new();
        let err = fresh.load_model("sda1", "bio", &path).unwrap_err();
        assert!(matches!(err, RegistryError::Model(serialize::ModelCodecError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_device_registries_are_independent() {
        // §5.5: "Each block device needs its own feature registry".
        let s = FeatureRegistryService::new();
        for dev in ["nvme0", "nvme1", "nvme2"] {
            let schema = Schema::builder().feature("pend", 8, 1).build();
            s.create_registry(dev, "bio", schema, 8).unwrap();
            s.begin_fv_capture(dev, "bio", Instant::EPOCH).unwrap();
        }
        s.capture_feature_incr("nvme1", "bio", "pend", 7).unwrap();
        for dev in ["nvme0", "nvme1", "nvme2"] {
            s.commit_fv_capture(dev, "bio", Instant::from_nanos(5)).unwrap();
        }
        assert_eq!(s.get_features("nvme0", "bio", None).unwrap()[0].get_i64("pend"), Some(0));
        assert_eq!(s.get_features("nvme1", "bio", None).unwrap()[0].get_i64("pend"), Some(7));
    }
}
