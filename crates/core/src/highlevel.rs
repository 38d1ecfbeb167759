//! High-level remoted ML APIs (§4.4).
//!
//! "Porting enormous libraries like Tensorflow to the kernel is
//! impractical ... LAKE's API remoting system is sufficiently general that
//! it can support manual addition of APIs" — kernel modules call
//! TensorFlow/Keras-level functions; `lakeD` realizes them with the
//! in-daemon ML runtime (`lake-ml`) and the device. Feature batches travel
//! through `lakeShm`, the "only data copying under its domain".
//!
//! Whether an MLP call crosses at all is the installed [`Policy`]'s
//! decision (§4.2): below the crossover batch the handle classifies in the
//! caller's thread from the kernel-side shadow copy of the model
//! ([`DaemonSupervisor::classify_local`]) and nothing is staged, framed or
//! sent. The default crossover depends on the link ([`crate::Lake::ml`]):
//! Table 3's 8 rows in process, the daemon's GEMM-pool floor
//! ([`lake_ml::DEFAULT_POOL_MIN_ROWS`]) over a channel or the ring.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use lake_rpc::{
    ApiId, CallEngine, CmdId, Completion, Decoder, Encoder, QueuePair, QueueStats, RpcError,
};
use lake_shm::{ShmBuffer, ShmRegion};

use crate::api;
use crate::error::LakeError;
use crate::policy::{BatchThresholdPolicy, Policy, Target};
use crate::supervisor::DaemonSupervisor;

/// Identifies a model loaded in the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId(pub u64);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// One queued inference's class vector, or the typed error its frame
/// surfaced — what the sync path would have returned for the same call.
pub type InferCompletion = (CmdId, Result<Vec<u32>, LakeError>);

/// Kernel-space handle to the high-level ML APIs.
#[derive(Clone)]
pub struct LakeMl {
    engine: Arc<CallEngine>,
    shm: ShmRegion,
    /// Shadow registration table for crash replay.
    supervisor: Arc<DaemonSupervisor>,
    /// Owner tag for staged buffers (unique per handle, monotonic).
    next_request: Arc<AtomicU64>,
    /// This handle's SQ/CQ pair over the engine. Always present (the
    /// async submit/poll API works at any depth); sync calls only route
    /// through it when the configured depth exceeds 1.
    queue: Arc<QueuePair>,
    /// Staging buffers riding with queued (not yet completed) inferences,
    /// keyed by submission ticket; unstaged at harvest time.
    staged: Arc<Mutex<HashMap<CmdId, ShmBuffer>>>,
    /// Decides per MLP call whether it is offloaded (`Target::Gpu`) or
    /// answered in the caller's thread (`Target::Cpu`).
    policy: Arc<Mutex<Box<dyn Policy>>>,
}

impl std::fmt::Debug for LakeMl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LakeMl").field("stats", &self.engine.stats()).finish()
    }
}

impl LakeMl {
    pub(crate) fn new(
        engine: Arc<CallEngine>,
        shm: ShmRegion,
        supervisor: Arc<DaemonSupervisor>,
        queue_depth: usize,
        policy: BatchThresholdPolicy,
    ) -> Self {
        let queue = Arc::new(QueuePair::new(Arc::clone(&engine), queue_depth));
        LakeMl {
            engine,
            shm,
            supervisor,
            next_request: Arc::new(AtomicU64::new(1)),
            queue,
            staged: Arc::new(Mutex::new(HashMap::new())),
            policy: Arc::new(Mutex::new(Box::new(policy))),
        }
    }

    /// This handle (and clones made from it afterwards) with `policy`
    /// deciding where MLP inferences run, in place of the link's default
    /// [`BatchThresholdPolicy`] ([`crate::Lake::ml`]: 8 rows in process,
    /// [`lake_ml::DEFAULT_POOL_MIN_ROWS`] on a linked link).
    /// `BatchThresholdPolicy { batch_threshold: 0 }` offloads every call —
    /// for code whose subject is the offload path itself — and
    /// `BatchThresholdPolicy { batch_threshold: 8 }` pins Table 3's
    /// crossover on every link.
    #[must_use]
    pub fn with_policy(mut self, policy: impl Policy + 'static) -> Self {
        self.policy = Arc::new(Mutex::new(Box::new(policy)));
        self
    }

    /// Answers an MLP batch in the caller's thread when the policy keeps
    /// it on the CPU and the kernel-side shadow can answer it exactly as
    /// the daemon would. `None` sends the call down the offload path
    /// unchanged, so every error stays the daemon's.
    fn infer_local(
        &self,
        id: ModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Option<Vec<u32>> {
        assert_eq!(features.len(), rows * cols, "feature buffer shape mismatch");
        if self.policy.lock().expect("policy poisoned").decide(rows) != Target::Cpu {
            return None;
        }
        let classes = self.supervisor.classify_local(id.0, rows, cols, features)?;
        Some(classes.into_iter().map(|c| c as u32).collect())
    }

    /// One blocking call through the deployment's wire mode: the sync
    /// frame-per-call path at depth 1, a submit + wait round through the
    /// queue pair above it — semantically identical (a lone submission is
    /// a plain frame), but queued so it coalesces with any concurrent
    /// submissions sharing this handle.
    fn call(&self, api: ApiId, payload: Bytes) -> Result<Bytes, RpcError> {
        if self.queue.depth() <= 1 {
            return self.engine.call(api, payload);
        }
        let id = self.queue.submit(api, payload);
        self.queue.wait(id)
    }

    /// Stages a feature tensor by encoding the f32 words little-endian
    /// **straight into** an shm buffer tagged with the current daemon
    /// epoch and a request id — one copy end to end, with no intermediate
    /// byte vector between the caller's tensor and the shared mapping. An
    /// exhausted region fails at once with `ShmError::OutOfMemory`;
    /// callers free room by harvesting their queued batches.
    fn stage_f32(&self, features: &[f32]) -> Result<ShmBuffer, LakeError> {
        let bytes = features.len() * 4;
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let buf = self.shm.alloc_owned(bytes.max(1), request_id)?;
        self.shm.with_bytes_mut(&buf, |dst| {
            for (chunk, &x) in dst.chunks_exact_mut(4).zip(features) {
                chunk.copy_from_slice(&x.to_le_bytes());
            }
        })?;
        let perf = self.engine.perf_counters();
        perf.note_copy(bytes);
        // The old path assembled an intermediate Vec<u8> and memcpy'd it
        // into shm; that second copy no longer happens.
        perf.note_zero_copy(bytes);
        Ok(buf)
    }

    /// Releases a staged buffer after its call finished. When the call
    /// died with the daemon (`DaemonRestarted`), the buffer is **not**
    /// freed here — the dead incarnation may still have it mapped, so it
    /// is disowned (marked orphaned) for the supervisor's reclamation
    /// sweep to collect once the restart protocol has run.
    fn unstage(&self, buf: ShmBuffer, lost_with_daemon: bool) -> Result<(), LakeError> {
        if lost_with_daemon {
            self.shm.mark_orphan(&buf)?;
        } else {
            self.shm.free(buf)?;
        }
        Ok(())
    }

    /// Loads a serialized model (`lake_ml::serialize` blob) into the
    /// daemon; weights are uploaded to the device once.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] if the blob does not decode.
    pub fn load_model(&self, blob: &[u8]) -> Result<ModelId, LakeError> {
        let mut e = Encoder::new();
        e.put_bytes(blob);
        let resp = self.call(api::ML_LOAD_MODEL, e.finish())?;
        let mut d = Decoder::new(&resp);
        let id = d.get_u64().map_err(|_| LakeError::BadResponse("model id"))?;
        // Shadow-register the blob so a supervised restart replays it
        // into the new incarnation under the same id. Fresh loads always
        // install at version 1.
        self.supervisor.record_model(id, 1, blob);
        Ok(ModelId(id))
    }

    /// Unloads a model from the daemon.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown ids.
    pub fn unload_model(&self, id: ModelId) -> Result<(), LakeError> {
        let mut e = Encoder::new();
        e.put_u64(id.0);
        self.call(api::ML_UNLOAD_MODEL, e.finish())?;
        self.supervisor.forget_model(id.0);
        Ok(())
    }

    fn infer(
        &self,
        api: lake_rpc::ApiId,
        id: ModelId,
        rows: usize,
        cols: usize,
        steps: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        assert_eq!(features.len(), rows * cols, "feature buffer shape mismatch");
        // Stage the batch in lakeShm so only the descriptor crosses the
        // channel.
        let buf = self.stage_f32(features)?;

        let mut e = Encoder::new();
        e.put_u64(id.0)
            .put_u64(rows as u64)
            .put_u64(cols as u64)
            .put_u64(steps as u64)
            .put_u64(buf.offset() as u64);
        let result = self.call(api, e.finish());
        let lost = matches!(result, Err(RpcError::DaemonRestarted { .. }));
        self.unstage(buf, lost)?;
        let resp = result?;
        let mut d = Decoder::new(&resp);
        let classes = d.get_u64_slice().map_err(|_| LakeError::BadResponse("class vector"))?;
        Ok(classes.into_iter().map(|c| c as u32).collect())
    }

    /// Batched MLP inference: `rows` inputs of `cols` features; returns
    /// one class per input. Below the policy's threshold the batch is
    /// classified in the caller's thread (see [`LakeMl::with_policy`]).
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown models or shape mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != rows * cols`.
    pub fn infer_mlp(
        &self,
        id: ModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        if let Some(classes) = self.infer_local(id, rows, cols, features) {
            return Ok(classes);
        }
        self.infer(api::ML_INFER_MLP, id, rows, cols, 0, features)
    }

    /// Batched LSTM inference: `rows` sequences of `steps` timesteps with
    /// `features_per_step` values each, flattened row-major.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown models or shape mismatches.
    ///
    /// # Panics
    ///
    /// Panics if the flat buffer length does not match the shape.
    pub fn infer_lstm(
        &self,
        id: ModelId,
        rows: usize,
        steps: usize,
        features_per_step: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        self.infer(api::ML_INFER_LSTM, id, rows, steps * features_per_step, steps, features)
    }

    /// `tfTrain`: daemon-side SGD over a labeled batch (online learning,
    /// §2.1). Returns the final mean training loss. Subsequent inference
    /// through this model id uses the updated weights.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown/mismatched models or shapes.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != rows * cols` or
    /// `labels.len() != rows`.
    #[allow(clippy::too_many_arguments)] // mirrors the remoted tfTrain signature
    pub fn train_mlp(
        &self,
        id: ModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
        labels: &[u32],
        epochs: usize,
        learning_rate: f32,
    ) -> Result<f32, LakeError> {
        assert_eq!(features.len(), rows * cols, "feature buffer shape mismatch");
        assert_eq!(labels.len(), rows, "one label per row");
        let buf = self.stage_f32(features)?;

        let label_words: Vec<u64> = labels.iter().map(|&l| l as u64).collect();
        let mut e = Encoder::new();
        e.put_u64(id.0)
            .put_u64(rows as u64)
            .put_u64(cols as u64)
            .put_u64(epochs as u64)
            .put_f32(learning_rate)
            .put_u64_slice(&label_words)
            .put_u64(buf.offset() as u64);
        let result = self.call(api::ML_TRAIN_MLP, e.finish());
        let lost = matches!(result, Err(RpcError::DaemonRestarted { .. }));
        self.unstage(buf, lost)?;
        let resp = result?;
        let mut d = Decoder::new(&resp);
        let loss = d.get_f32().map_err(|_| LakeError::BadResponse("training loss"))?;
        let version = d.get_u64().map_err(|_| LakeError::BadResponse("trained version"))?;
        let blob = d.get_bytes().map_err(|_| LakeError::BadResponse("trained blob"))?;
        // Refresh the shadow registration so a supervised restart replays
        // the *trained* weights at their bumped version, not the stale
        // originals.
        self.supervisor.record_model(id.0, version, blob);
        Ok(loss)
    }

    /// `tfSwapModel`: hot-swap a model's weights in place. The daemon
    /// drains every pending batch against the old version first (epoch
    /// semantics: in-flight work finishes on the version it started on),
    /// then installs the blob at the next version and returns it. New
    /// requests observe the swapped weights immediately.
    ///
    /// The shadow registration is refreshed **only after** the daemon
    /// acknowledges the install, so a crash landing inside the swap
    /// window replays exactly one winning version: the old one if the
    /// install never committed, the new one if it did.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown ids, undecodable blobs, or a
    /// store budget that cannot fit the new weights.
    pub fn swap_model(&self, id: ModelId, blob: &[u8]) -> Result<u64, LakeError> {
        let mut e = Encoder::new();
        e.put_u64(id.0);
        e.put_bytes(blob);
        let resp = self.call(api::ML_SWAP_MODEL, e.finish())?;
        let mut d = Decoder::new(&resp);
        let version = d.get_u64().map_err(|_| LakeError::BadResponse("swapped version"))?;
        self.supervisor.record_model(id.0, version, blob);
        Ok(version)
    }

    /// `tfQuantizeModel`: ask the daemon to quantize a resident f32
    /// MLP/LSTM to int8. The quantized model installs under a **new**
    /// model id (returned here); the f32 original stays loaded as the
    /// correctness oracle. The daemon sends back the encoded quantized
    /// blob, which is shadow-registered so a supervised restart replays
    /// the quantized model too.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown ids or models with no quantized
    /// form (k-NN, already-quantized).
    pub fn quantize_model(&self, id: ModelId) -> Result<ModelId, LakeError> {
        let mut e = Encoder::new();
        e.put_u64(id.0);
        let resp = self.call(api::ML_QUANTIZE_MODEL, e.finish())?;
        let mut d = Decoder::new(&resp);
        let new_id = d.get_u64().map_err(|_| LakeError::BadResponse("quantized model id"))?;
        let version = d.get_u64().map_err(|_| LakeError::BadResponse("quantized version"))?;
        let blob = d.get_bytes().map_err(|_| LakeError::BadResponse("quantized blob"))?;
        self.supervisor.record_model(new_id, version, blob);
        Ok(ModelId(new_id))
    }

    /// `tfExportModel`: retrieve the serialized (possibly retrained)
    /// model blob, e.g. to persist it through the feature registry's
    /// `update_model`.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown models.
    pub fn export_model(&self, id: ModelId) -> Result<Vec<u8>, LakeError> {
        let mut e = Encoder::new();
        e.put_u64(id.0);
        let resp = self.call(api::ML_EXPORT_MODEL, e.finish())?;
        let mut d = Decoder::new(&resp);
        Ok(d.get_bytes().map_err(|_| LakeError::BadResponse("model blob"))?.to_vec())
    }

    /// Batched k-NN classification: `rows` queries of `cols` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] for unknown models or shape mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != rows * cols`.
    pub fn infer_knn(
        &self,
        id: ModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        self.infer(api::ML_INFER_KNN, id, rows, cols, 0, features)
    }

    /// Stage one batch and enqueue its inference on this handle's SQ
    /// without blocking. The features stay pinned in lakeShm until the
    /// completion is harvested by [`LakeMl::poll_completions`] (or
    /// reclaimed by the supervisor if the daemon dies holding them).
    fn submit_infer(
        &self,
        api: ApiId,
        id: ModelId,
        rows: usize,
        cols: usize,
        steps: usize,
        features: &[f32],
    ) -> Result<CmdId, LakeError> {
        assert_eq!(features.len(), rows * cols, "feature buffer shape mismatch");
        let buf = self.stage_f32(features)?;

        let mut e = Encoder::new();
        e.put_u64(id.0)
            .put_u64(rows as u64)
            .put_u64(cols as u64)
            .put_u64(steps as u64)
            .put_u64(buf.offset() as u64);
        let ticket = self.queue.submit(api, e.finish());
        self.staged.lock().expect("staged map poisoned").insert(ticket, buf);
        Ok(ticket)
    }

    /// Queue a batched MLP inference; returns immediately with a ticket.
    /// The SQ flushes (one doorbell for the whole drain) when it reaches
    /// the configured queue depth, or eagerly via [`LakeMl::flush`]. A
    /// batch the policy keeps local is classified now and its completion
    /// posted straight to the CQ.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] if staging the feature batch fails.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != rows * cols`.
    pub fn submit_mlp(
        &self,
        id: ModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Result<CmdId, LakeError> {
        if let Some(classes) = self.infer_local(id, rows, cols, features) {
            let words: Vec<u64> = classes.into_iter().map(u64::from).collect();
            let mut e = Encoder::new();
            e.put_u64_slice(&words);
            return Ok(self.queue.complete_inline(api::ML_INFER_MLP, Ok(e.finish())));
        }
        self.submit_infer(api::ML_INFER_MLP, id, rows, cols, 0, features)
    }

    /// Queue a batched LSTM inference; returns immediately with a ticket.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError`] if staging the feature batch fails.
    ///
    /// # Panics
    ///
    /// Panics if the flat buffer length does not match the shape.
    pub fn submit_lstm(
        &self,
        id: ModelId,
        rows: usize,
        steps: usize,
        features_per_step: usize,
        features: &[f32],
    ) -> Result<CmdId, LakeError> {
        self.submit_infer(api::ML_INFER_LSTM, id, rows, steps * features_per_step, steps, features)
    }

    /// Harvest every completion that has arrived, in completion (not
    /// submission) order. Each entry carries the submission ticket and
    /// exactly what the sync path would have returned; staging buffers
    /// are released here — orphaned for supervisor reclaim when the
    /// daemon died holding them, freed otherwise.
    ///
    /// Non-blocking: returns an empty vec when nothing has completed.
    pub fn poll_completions(&self) -> Vec<InferCompletion> {
        self.queue.poll().into_iter().map(|c| self.harvest(c)).collect()
    }

    /// Flush the SQ, then block until every outstanding submission has
    /// completed, harvesting them all.
    pub fn drain_completions(&self) -> Vec<InferCompletion> {
        self.queue.drain().into_iter().map(|c| self.harvest(c)).collect()
    }

    fn harvest(&self, c: Completion) -> InferCompletion {
        let buf = self.staged.lock().expect("staged map poisoned").remove(&c.id);
        let lost = matches!(c.result, Err(RpcError::DaemonRestarted { .. }));
        let unstaged = match buf {
            Some(buf) => self.unstage(buf, lost),
            None => Ok(()),
        };
        // A queued ticket died with the daemon: its staging buffer was
        // just disowned above. Harvest time is idle time on this handle,
        // so sweep orphans from dead incarnations back to the free list
        // now instead of waiting for an explicit reclaim call.
        if lost {
            self.supervisor.sweep_idle_orphans();
        }
        let result = unstaged.and_then(|()| {
            let resp = c.result?;
            let mut d = Decoder::new(&resp);
            let classes = d.get_u64_slice().map_err(|_| LakeError::BadResponse("class vector"))?;
            Ok(classes.into_iter().map(|cl| cl as u32).collect())
        });
        (c.id, result)
    }

    /// Force-send everything sitting in the SQ under one doorbell without
    /// waiting for the queue to fill.
    pub fn flush(&self) {
        self.queue.flush();
    }

    /// Submissions not yet harvested (queued or in flight).
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }

    /// Counter snapshot for this handle's queue pair.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}
