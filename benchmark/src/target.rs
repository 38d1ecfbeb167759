//! The production deployment and the one request surface the driver loops
//! use for both a `DaemonFleet` and a plain `Lake`.

use std::time::{Duration, Instant};

use lake::core::{Lake, LakeBuilder, LakeError, LakeMl, LinkMode, ModelId, WaitStrategy};
use lake::fleet::{DaemonFleet, FleetMl, FleetModelId};
use lake::ml::MODEL_PAGE_SIZE;
use lake::rpc::CallPolicy;

use crate::workload::{Model, Request, Spec};

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Executor width of each shard: the host's cores shared among the shards.
pub fn executor_width(spec: &Spec) -> usize {
    (host_cores() / spec.shards.max(1)).max(1)
}

/// The weight-page budget `spec` asks for, from the blobs about to be loaded.
/// With at most two shards every shard is primary or backup of every model,
/// so each shard installs all of them.
pub fn model_budget(spec: &Spec, blobs: &[&[u8]]) -> Option<usize> {
    assert!(spec.shards <= 2, "budget assumes every shard installs every model");
    let installed: usize =
        blobs.iter().map(|b| b.len().div_ceil(MODEL_PAGE_SIZE) * MODEL_PAGE_SIZE).sum();
    spec.budget_share.map(|share| (installed as f64 * share) as usize)
}

/// How long a client waits in silence before it declares a frame lost. Under
/// the stack's 50 ms default one stall of the daemon's vCPU on a shared host
/// ends a non-idempotent `swap_model` with `TimedOut` although the daemon
/// still installs it, after which client and daemon disagree on the weights.
/// Nothing is injected here, so no frame is ever lost, and the fast path
/// never reads this value.
const RECV_PATIENCE: Duration = Duration::from_secs(5);

/// The production configuration: ring link, adaptive wait, queue depth 64,
/// executor width `nproc / shards`, 64 KiB staging threshold, SIMD auto,
/// everything else default but [`RECV_PATIENCE`].
pub fn production(spec: &Spec, budget: Option<usize>) -> LakeBuilder {
    let mut b = Lake::builder()
        .link_mode(LinkMode::Ring)
        .wait_strategy(WaitStrategy::Adaptive)
        .queue_depth(64)
        .daemon_workers(executor_width(spec))
        .staging_threshold(64 << 10)
        .call_policy(CallPolicy { recv_patience: Some(RECV_PATIENCE), ..CallPolicy::default() });
    if let Some(bytes) = budget {
        b = b.model_budget_bytes(bytes);
    }
    b
}

pub enum Deployment {
    Fleet(Box<DaemonFleet>),
    Single(Lake),
}

impl Deployment {
    pub fn deploy(spec: &Spec, budget: Option<usize>) -> Self {
        let builder = production(spec, budget);
        if spec.shards == 0 {
            Deployment::Single(builder.build())
        } else {
            Deployment::Fleet(Box::new(DaemonFleet::deploy(builder.shards(spec.shards))))
        }
    }

    pub fn fleet(&self) -> Option<&DaemonFleet> {
        match self {
            Deployment::Fleet(f) => Some(f),
            Deployment::Single(_) => None,
        }
    }

    pub fn shards(&self) -> &[Lake] {
        match self {
            Deployment::Fleet(f) => f.shards(),
            Deployment::Single(l) => std::slice::from_ref(l),
        }
    }

    /// Opens a client handle and loads one blob per model (variant 0).
    pub fn connect<'d>(&'d self, blobs: &[&[u8]]) -> Result<Box<dyn Target + 'd>, LakeError> {
        match self {
            Deployment::Fleet(f) => {
                let ml = f.ml();
                let ids = blobs.iter().map(|b| ml.load_model(b)).collect::<Result<_, _>>()?;
                Ok(Box::new(FleetTarget { ml, ids }))
            }
            Deployment::Single(l) => Ok(Box::new(LakeTarget::connect(l, blobs)?)),
        }
    }
}

/// `(shard, shard-local command id)` of a queued inference.
pub type Ticket = (usize, u64);
pub type Done = (Ticket, Result<Vec<u32>, LakeError>);

/// The calls the driver loops make. Models are named by their index in the
/// workload's model list.
pub trait Target {
    fn submit(&self, req: &Request, model: &Model) -> Result<Ticket, LakeError>;
    fn flush(&self);
    fn poll(&self) -> Vec<Done>;
    fn drain(&self) -> Vec<Done>;
    fn infer(&self, req: &Request, model: &Model) -> Result<Vec<u32>, LakeError>;
    /// Synchronous `swap_model` of model `index`.
    fn swap(&self, index: usize, blob: &[u8]) -> Result<u64, LakeError>;
    /// Loads `blob` as an extra model, unloads it again, and returns how
    /// long the load alone took.
    fn load_unload(&self, blob: &[u8]) -> Result<Duration, LakeError>;
}

pub struct FleetTarget<'f> {
    ml: FleetMl<'f>,
    ids: Vec<FleetModelId>,
}

fn fleet_done((id, result): (lake::fleet::FleetCmdId, Result<Vec<u32>, LakeError>)) -> Done {
    ((id.shard, id.id.0), result)
}

impl Target for FleetTarget<'_> {
    fn submit(&self, req: &Request, m: &Model) -> Result<Ticket, LakeError> {
        let (id, rows) = (self.ids[req.model as usize], req.rows as usize);
        let x = m.features(req.input as usize, rows);
        let cmd = if m.is_lstm() {
            self.ml.submit_lstm(req.tenant, id, rows, m.steps, m.cols / m.steps, x)?
        } else {
            self.ml.submit_mlp(req.tenant, id, rows, m.cols, x)?
        };
        Ok((cmd.shard, cmd.id.0))
    }

    fn flush(&self) {
        self.ml.flush();
    }

    fn poll(&self) -> Vec<Done> {
        self.ml.poll_completions().into_iter().map(fleet_done).collect()
    }

    fn drain(&self) -> Vec<Done> {
        self.ml.drain_completions().into_iter().map(fleet_done).collect()
    }

    fn infer(&self, req: &Request, m: &Model) -> Result<Vec<u32>, LakeError> {
        let (id, rows) = (self.ids[req.model as usize], req.rows as usize);
        let x = m.features(req.input as usize, rows);
        if m.is_lstm() {
            self.ml.infer_lstm(req.tenant, id, rows, m.steps, m.cols / m.steps, x)
        } else {
            self.ml.infer_mlp(req.tenant, id, rows, m.cols, x)
        }
    }

    fn swap(&self, _index: usize, _blob: &[u8]) -> Result<u64, LakeError> {
        Err(LakeError::BadResponse("FleetMl has no swap_model"))
    }

    fn load_unload(&self, blob: &[u8]) -> Result<Duration, LakeError> {
        let start = Instant::now();
        let id = self.ml.load_model(blob)?;
        let took = start.elapsed();
        self.ml.unload_model(id)?;
        Ok(took)
    }
}

pub struct LakeTarget {
    ml: LakeMl,
    pub ids: Vec<ModelId>,
}

impl LakeTarget {
    pub fn connect(lake: &Lake, blobs: &[&[u8]]) -> Result<Self, LakeError> {
        let ml = lake.ml();
        let ids = blobs.iter().map(|b| ml.load_model(b)).collect::<Result<_, _>>()?;
        Ok(LakeTarget { ml, ids })
    }
}

fn lake_done((id, result): lake::core::InferCompletion) -> Done {
    ((0, id.0), result)
}

impl Target for LakeTarget {
    fn submit(&self, req: &Request, m: &Model) -> Result<Ticket, LakeError> {
        let (id, rows) = (self.ids[req.model as usize], req.rows as usize);
        let x = m.features(req.input as usize, rows);
        let cmd = if m.is_lstm() {
            self.ml.submit_lstm(id, rows, m.steps, m.cols / m.steps, x)?
        } else {
            self.ml.submit_mlp(id, rows, m.cols, x)?
        };
        Ok((0, cmd.0))
    }

    fn flush(&self) {
        self.ml.flush();
    }

    fn poll(&self) -> Vec<Done> {
        self.ml.poll_completions().into_iter().map(lake_done).collect()
    }

    fn drain(&self) -> Vec<Done> {
        self.ml.drain_completions().into_iter().map(lake_done).collect()
    }

    fn infer(&self, req: &Request, m: &Model) -> Result<Vec<u32>, LakeError> {
        let (id, rows) = (self.ids[req.model as usize], req.rows as usize);
        let x = m.features(req.input as usize, rows);
        if m.is_lstm() {
            self.ml.infer_lstm(id, rows, m.steps, m.cols / m.steps, x)
        } else {
            self.ml.infer_mlp(id, rows, m.cols, x)
        }
    }

    fn swap(&self, index: usize, blob: &[u8]) -> Result<u64, LakeError> {
        self.ml.swap_model(self.ids[index], blob)
    }

    fn load_unload(&self, blob: &[u8]) -> Result<Duration, LakeError> {
        let start = Instant::now();
        let id = self.ml.load_model(blob)?;
        let took = start.elapsed();
        self.ml.unload_model(id)?;
        Ok(took)
    }
}
