//! The fleet proper: N independent lakeD shards behind one router.
//!
//! Several lakeD instances — each with its own transport link,
//! supervisor, incarnation epoch, and shm staging region — serve
//! disjoint model shards behind a consistent-hash router
//! ([`crate::ring::HashRing`]). Sharding buys three things a single
//! daemon cannot offer:
//!
//! 1. **Fault isolation.** One shard's crash/restart cycle never fences
//!    another shard's in-flight calls; its epoch is shard-local.
//! 2. **Failover.** Models are replicated to the ring's backup shard, so
//!    *idempotent* calls (the [`lake_rpc`] idempotency set) divert to the
//!    sibling while the primary sits in restart backoff — the caller
//!    sees an answer, not a retry storm.
//! 3. **Tenant QoS.** A fleet-level [`TenantGovernor`] applies weighted
//!    fair queueing of staged bytes *across tenants*; inside each shard
//!    staging allocates straight from that shard's lakeShm region.
//!
//! Failover state machine per call, for a model with distinct
//! primary/backup:
//!
//! ```text
//!           ┌──────────────────────────────────────────────────┐
//!           │ primary has pending crash, age ≤ divert_window?  │
//!           └──────────┬───────────────────────┬───────────────┘
//!                 yes (divert)            no (routed_primary)
//!                      ▼                       ▼
//!                 call backup             call primary
//!                      │                       │
//!          DaemonRestarted/TimedOut?  DaemonRestarted/TimedOut?
//!                      ▼                       ▼
//!            retry primary (failover)  retry backup (failover)
//! ```
//!
//! Beyond `divert_window` the router deliberately routes the primary
//! again so it pays its supervised restart and rejoins — diverting
//! forever would let a crashed shard rot behind its healthy sibling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lake_core::{InferCompletion, Lake, LakeBuilder, LakeError, LakeMl, ModelId, Policy};
use lake_rpc::{CmdId, RpcError};
use lake_sim::{Duration, SharedClock};
use parking_lot::Mutex;

use crate::qos::{QosCounters, QosPolicy, TenantGovernor};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Tunables for [`DaemonFleet`]. The routing ring always places
/// [`DEFAULT_VNODES`] points per shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPolicy {
    /// How long after a shard's crash surfaces the router keeps
    /// diverting idempotent traffic to the backup. Sized to cover the
    /// supervisor's lease + typical backoff + restart cost, after which
    /// routing the primary again is what triggers its recovery.
    pub divert_window: Duration,
    /// Weighted-fair-queueing policy for the fleet's tenant governor.
    pub qos: QosPolicy,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            // Lease (20µs) + first backoffs (25–100µs) + restart cost
            // (100µs), rounded up.
            divert_window: Duration::from_micros(200),
            qos: QosPolicy::default(),
        }
    }
}

/// Fleet-level model handle: a routing key, not a daemon-local id. The
/// ring maps it to a primary/backup shard pair; each shard holds the
/// model under its own local [`ModelId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetModelId(pub u64);

/// Ticket for a queued inference submitted through
/// [`FleetMl::submit_mlp`] / [`FleetMl::submit_lstm`]: the shard whose
/// SQ holds the command plus its shard-local [`CmdId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetCmdId {
    /// Shard the command was submitted to.
    pub shard: usize,
    /// The shard-local queue-pair ticket.
    pub id: CmdId,
}

/// The shape of one idempotent inference batch: all a sync call, a
/// queued submit and a harvest-time replay need besides the features.
#[derive(Debug, Clone, Copy)]
enum Batch {
    Mlp { rows: usize, cols: usize },
    Lstm { rows: usize, steps: usize, features_per_step: usize },
}

impl Batch {
    fn infer(self, ml: &LakeMl, id: ModelId, features: &[f32]) -> Result<Vec<u32>, LakeError> {
        match self {
            Batch::Mlp { rows, cols } => ml.infer_mlp(id, rows, cols, features),
            Batch::Lstm { rows, steps, features_per_step } => {
                ml.infer_lstm(id, rows, steps, features_per_step, features)
            }
        }
    }

    fn submit(self, ml: &LakeMl, id: ModelId, features: &[f32]) -> Result<CmdId, LakeError> {
        match self {
            Batch::Mlp { rows, cols } => ml.submit_mlp(id, rows, cols, features),
            Batch::Lstm { rows, steps, features_per_step } => {
                ml.submit_lstm(id, rows, steps, features_per_step, features)
            }
        }
    }
}

/// Everything needed to replay a queued idempotent inference on the
/// sibling replica if its frame dies with the daemon.
struct QueuedSubmit {
    route: ModelRoute,
    batch: Batch,
    features: Vec<f32>,
}

/// Where a fleet model lives: its ring-assigned shard pair and the
/// shard-local ids the blob loaded under.
#[derive(Debug, Clone, Copy)]
struct ModelRoute {
    primary: usize,
    backup: usize,
    primary_id: ModelId,
    backup_id: ModelId,
}

impl ModelRoute {
    /// The replica on the other shard of the pair from `shard`; `None`
    /// when both roles sit on one shard.
    fn sibling(&self, shard: usize) -> Option<(usize, ModelId)> {
        if self.backup == self.primary {
            None
        } else if shard == self.primary {
            Some((self.backup, self.backup_id))
        } else {
            Some((self.primary, self.primary_id))
        }
    }
}

/// N lakeD shards on one virtual clock behind consistent-hash routing,
/// tenant QoS, and cross-shard failover (see module docs). Per-shard
/// fault, perf and ring reports are read straight off
/// [`DaemonFleet::shards`].
pub struct DaemonFleet {
    shards: Vec<Lake>,
    ring: Mutex<HashRing>,
    governor: TenantGovernor,
    policy: FleetPolicy,
    /// The builder every shard after shard 0 is stamped from.
    template: LakeBuilder,
    routes: Mutex<HashMap<u64, ModelRoute>>,
    next_key: AtomicU64,
    /// The router's counters; `qos` is filled in from the governor.
    counters: Mutex<FleetStats>,
}

impl std::fmt::Debug for DaemonFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonFleet")
            .field("shards", &self.shards.len())
            .field("policy", &self.policy)
            .finish()
    }
}

/// Fleet-wide routing / QoS counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Calls routed to their primary shard.
    pub routed_primary: u64,
    /// Calls proactively diverted to the backup while the primary had a
    /// pending crash inside the divert window.
    pub diverted: u64,
    /// Calls retried on the sibling shard after the first attempt died
    /// with `DaemonRestarted`/`TimedOut`.
    pub failover_retries: u64,
    /// [`FleetMl::sync_replica`] calls that found the backup already at
    /// the primary's model version and skipped the transfer.
    pub replica_sync_skipped: u64,
    /// Tenant-governor admission counters.
    pub qos: QosCounters,
}

impl DaemonFleet {
    /// Deploys a fleet from `template` under the default
    /// [`FleetPolicy`]. Shard count comes from
    /// [`LakeBuilder::shards`] / the `LAKE_SHARDS` environment override.
    pub fn deploy(template: LakeBuilder) -> Self {
        Self::deploy_with(template, FleetPolicy::default(), |_, b| b)
    }

    /// [`DaemonFleet::deploy`] with an explicit policy and a per-shard
    /// customization hook: `customize(shard, builder)` may rewrite each
    /// shard's template before it builds — e.g. arm a `CrashSchedule` on
    /// shard 0 only.
    pub fn deploy_with(
        template: LakeBuilder,
        policy: FleetPolicy,
        mut customize: impl FnMut(usize, LakeBuilder) -> LakeBuilder,
    ) -> Self {
        let n = template.shard_count();
        // Shard 0 settles the clock (the template's, or a fresh one) that
        // every later shard shares.
        let first = customize(0, template.clone()).build();
        let clock = first.clock().clone();
        let mut fleet = DaemonFleet {
            shards: vec![first],
            ring: Mutex::new(HashRing::with_vnodes(1, DEFAULT_VNODES)),
            governor: TenantGovernor::new(clock.clone(), policy.qos),
            policy,
            template: template.clock(clock),
            routes: Mutex::new(HashMap::new()),
            next_key: AtomicU64::new(0),
            counters: Mutex::default(),
        };
        for _ in 1..n {
            fleet.grow(&mut customize);
        }
        fleet
    }

    /// Builds the next shard from the template and puts it on the ring,
    /// which places a shard's points by its id alone.
    fn grow(&mut self, customize: impl FnOnce(usize, LakeBuilder) -> LakeBuilder) -> usize {
        let id = self.shards.len();
        self.shards.push(customize(id, self.template.clone()).build());
        self.ring.lock().add_shard(id);
        id
    }

    /// The fleet's shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        self.shards[0].clock()
    }

    /// The active policy.
    pub fn policy(&self) -> FleetPolicy {
        self.policy
    }

    /// Shard `id`'s [`Lake`] instance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shard(&self, id: usize) -> &Lake {
        &self.shards[id]
    }

    /// All shards, indexed by shard id: the place to read per-shard
    /// `fault_report`, `perf_report` and `ring_stats`.
    pub fn shards(&self) -> &[Lake] {
        &self.shards
    }

    /// The tenant governor (register weights with
    /// [`TenantGovernor::set_weight`]).
    pub fn governor(&self) -> &TenantGovernor {
        &self.governor
    }

    /// A fleet-level ML handle routing through this fleet. Each handle
    /// owns one SQ/CQ queue pair per shard (the per-client pairs of the
    /// async API), so queued submissions must be harvested through the
    /// same handle that submitted them.
    pub fn ml(&self) -> FleetMl<'_> {
        FleetMl {
            fleet: self,
            mls: self.shards.iter().map(Lake::ml).collect(),
            queued: Mutex::new(HashMap::new()),
        }
    }

    /// The `(primary, backup)` shard pair serving `id`, or `None` if the
    /// model is not loaded.
    pub fn route_of(&self, id: FleetModelId) -> Option<(usize, usize)> {
        self.routes.lock().get(&id.0).map(|r| (r.primary, r.backup))
    }

    /// Grows the fleet by one shard built from the deploy template
    /// (sharing the fleet clock). Existing model routes are untouched —
    /// only ~1/N of *future* routing keys land on the newcomer, which is
    /// the consistent-hash contract.
    pub fn add_shard(&mut self) -> usize {
        self.grow(|_, b| b)
    }

    /// Fleet routing and QoS counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats { qos: self.governor.counters(), ..*self.counters.lock() }
    }

    /// Picks the serving shard for `route`: the backup while the primary
    /// has an unhandled crash younger than `divert_window`, else the
    /// primary (which then pays its supervised restart — see module
    /// docs).
    fn select_shard(&self, route: &ModelRoute) -> (usize, ModelId) {
        if route.backup != route.primary {
            let now = self.clock().now();
            if let Some(age) = self.shards[route.primary].supervisor().pending_crash_age(now) {
                if age <= self.policy.divert_window {
                    self.counters.lock().diverted += 1;
                    return (route.backup, route.backup_id);
                }
            }
        }
        self.counters.lock().routed_primary += 1;
        (route.primary, route.primary_id)
    }
}

/// Should a failed idempotent call be retried on the sibling shard?
/// Only daemon-death shapes qualify: a `Remote` status or wire error
/// would reproduce identically on the replica.
fn failover_eligible(err: &LakeError) -> bool {
    matches!(
        err,
        LakeError::Rpc(RpcError::DaemonRestarted { .. }) | LakeError::Rpc(RpcError::TimedOut)
    )
}

/// Kernel-space ML handle over a [`DaemonFleet`]: it routes each call to
/// a shard's [`LakeMl`], which serves it, and adds tenant admission,
/// replication and failover.
///
/// Every data-plane call names a `tenant`; staged bytes are admitted
/// through the fleet's [`TenantGovernor`] before the chosen shard
/// stages them.
pub struct FleetMl<'f> {
    fleet: &'f DaemonFleet,
    mls: Vec<LakeMl>,
    /// Replay state for queued idempotent inferences, keyed by the
    /// submitting shard's ticket; removed at harvest.
    queued: Mutex<HashMap<FleetCmdId, QueuedSubmit>>,
}

impl FleetMl<'_> {
    /// This handle with `policy` deciding, on every shard, where MLP
    /// inferences run (see [`LakeMl::with_policy`]). Tenant admission and
    /// routing still run before every call, local or offloaded.
    #[must_use]
    pub fn with_policy(mut self, policy: impl Policy + Clone + 'static) -> Self {
        self.mls = self.mls.into_iter().map(|ml| ml.with_policy(policy.clone())).collect();
        self
    }

    fn route(&self, id: FleetModelId) -> Result<ModelRoute, LakeError> {
        let route = self.fleet.routes.lock().get(&id.0).copied();
        route.ok_or(LakeError::BadResponse("unknown fleet model id"))
    }

    /// Admits `features`' bytes for `tenant` through the fleet governor
    /// (blocking in virtual time), then looks up `id`'s route.
    fn admit(
        &self,
        tenant: u32,
        id: FleetModelId,
        features: &[f32],
    ) -> Result<ModelRoute, LakeError> {
        self.fleet.governor.admit(tenant, std::mem::size_of_val(features))?;
        self.route(id)
    }

    /// Runs an *idempotent* call with proactive diversion and reactive
    /// failover per the module-docs state machine.
    fn with_failover<T>(
        &self,
        route: ModelRoute,
        mut call: impl FnMut(&LakeMl, ModelId) -> Result<T, LakeError>,
    ) -> Result<T, LakeError> {
        let (shard, mid) = self.fleet.select_shard(&route);
        let result = call(&self.mls[shard], mid);
        self.fail_over(&route, shard, result, call)
    }

    /// Retries `call` on `shard`'s sibling replica when `result` died
    /// with the daemon; passes every other result through.
    fn fail_over<T>(
        &self,
        route: &ModelRoute,
        shard: usize,
        result: Result<T, LakeError>,
        call: impl FnOnce(&LakeMl, ModelId) -> Result<T, LakeError>,
    ) -> Result<T, LakeError> {
        match (result, route.sibling(shard)) {
            (Err(e), Some((alt, alt_id))) if failover_eligible(&e) => {
                self.fleet.counters.lock().failover_retries += 1;
                call(&self.mls[alt], alt_id)
            }
            (r, _) => r,
        }
    }

    /// Loads a serialized model onto its ring-assigned primary shard
    /// *and* its backup (one load on a single-shard fleet), returning the
    /// fleet-level handle.
    ///
    /// # Errors
    ///
    /// Any shard-local load failure propagates. A failed backup load
    /// unloads the primary copy first: no route would ever name it.
    pub fn load_model(&self, blob: &[u8]) -> Result<FleetModelId, LakeError> {
        let key = self.fleet.next_key.fetch_add(1, Ordering::Relaxed);
        let (primary, backup) = self.fleet.ring.lock().route_pair(key);
        let primary_id = self.mls[primary].load_model(blob)?;
        let backup_id = if backup == primary {
            primary_id
        } else {
            self.mls[backup].load_model(blob).inspect_err(|_| {
                // The load's own error is the one to report.
                let _ = self.mls[primary].unload_model(primary_id);
            })?
        };
        self.fleet.routes.lock().insert(key, ModelRoute { primary, backup, primary_id, backup_id });
        Ok(FleetModelId(key))
    }

    /// Unloads `id` from both replicas and drops its route.
    ///
    /// # Errors
    ///
    /// `BadResponse` for an unknown id; shard-local failures propagate.
    pub fn unload_model(&self, id: FleetModelId) -> Result<(), LakeError> {
        let route = self.route(id)?;
        self.mls[route.primary].unload_model(route.primary_id)?;
        if let Some((backup, backup_id)) = route.sibling(route.primary) {
            self.mls[backup].unload_model(backup_id)?;
        }
        self.fleet.routes.lock().remove(&id.0);
        Ok(())
    }

    /// Synchronous MLP inference (idempotent: diverts and fails over).
    ///
    /// # Errors
    ///
    /// Tenant admission ([`lake_core::AdmissionError`]) or the losing
    /// side of the failover state machine.
    pub fn infer_mlp(
        &self,
        tenant: u32,
        id: FleetModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        let route = self.admit(tenant, id, features)?;
        self.with_failover(route, |ml, mid| Batch::Mlp { rows, cols }.infer(ml, mid, features))
    }

    /// Synchronous LSTM inference (idempotent: diverts and fails over).
    ///
    /// # Errors
    ///
    /// As [`FleetMl::infer_mlp`].
    pub fn infer_lstm(
        &self,
        tenant: u32,
        id: FleetModelId,
        rows: usize,
        steps: usize,
        features_per_step: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        let route = self.admit(tenant, id, features)?;
        let batch = Batch::Lstm { rows, steps, features_per_step };
        self.with_failover(route, |ml, mid| batch.infer(ml, mid, features))
    }

    /// Synchronous k-NN classification (idempotent: diverts and fails
    /// over).
    ///
    /// # Errors
    ///
    /// As [`FleetMl::infer_mlp`].
    pub fn infer_knn(
        &self,
        tenant: u32,
        id: FleetModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        let route = self.admit(tenant, id, features)?;
        self.with_failover(route, |ml, mid| ml.infer_knn(mid, rows, cols, features))
    }

    /// Trains on the primary replica only (training is non-idempotent
    /// and must not fork replica weights). The backup is stale afterwards
    /// until [`FleetMl::sync_replica`] runs.
    ///
    /// # Errors
    ///
    /// Tenant admission, then shard-local training errors.
    #[allow(clippy::too_many_arguments)]
    pub fn train_mlp(
        &self,
        tenant: u32,
        id: FleetModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
        labels: &[u32],
        epochs: usize,
        learning_rate: f32,
    ) -> Result<f32, LakeError> {
        let route = self.admit(tenant, id, features)?;
        self.fleet.counters.lock().routed_primary += 1;
        let (ml, mid) = (&self.mls[route.primary], route.primary_id);
        ml.train_mlp(mid, rows, cols, features, labels, epochs, learning_rate)
    }

    /// Exports `id`'s serialized blob from its primary replica
    /// (idempotent: diverts and fails over; run
    /// [`FleetMl::sync_replica`] after training or the backup's copy may
    /// be stale).
    ///
    /// # Errors
    ///
    /// As [`FleetMl::infer_mlp`], minus tenant admission (control
    /// plane).
    pub fn export_model(&self, id: FleetModelId) -> Result<Vec<u8>, LakeError> {
        let route = self.route(id)?;
        self.with_failover(route, |ml, mid| ml.export_model(mid))
    }

    /// Re-replicates `id`, keyed by `(model id, version)`: when the
    /// backup already holds the primary's current version the transfer
    /// is skipped entirely (counted in
    /// [`FleetStats::replica_sync_skipped`]). Otherwise the primary's
    /// weights are exported and installed on the backup *at the
    /// primary's version*, updating the backup supervisor's shadow copy
    /// so post-crash replay restores the fresh weights at the right
    /// version and the backup's local reads serve them. Residency rides
    /// the install: the backup store admits the
    /// pages eagerly when its budget allows, so a failover target is
    /// warm without a cold-miss fault. No-op on a single-shard fleet.
    ///
    /// # Errors
    ///
    /// Export errors, or the backup daemon rejecting the blob.
    pub fn sync_replica(&self, id: FleetModelId) -> Result<(), LakeError> {
        let route = self.route(id)?;
        if route.backup == route.primary {
            return Ok(());
        }
        let backup = self.fleet.shard(route.backup);
        let primary_version =
            self.fleet.shard(route.primary).daemon().model_version(route.primary_id.0);
        if primary_version.is_some()
            && backup.daemon().model_version(route.backup_id.0) == primary_version
        {
            self.fleet.counters.lock().replica_sync_skipped += 1;
            return Ok(());
        }
        let blob = self.mls[route.primary].export_model(route.primary_id)?;
        // The export asks the primary alone; there is no failover. The
        // backup installs the primary's version as read above. If the
        // primary daemon's store no longer holds the model, it takes the
        // backup's own version + 1, or 1 if the backup has none either.
        let version = primary_version
            .or_else(|| backup.daemon().model_version(route.backup_id.0).map(|v| v + 1))
            .unwrap_or(1);
        let blob = Arc::new(blob);
        backup
            .daemon()
            .restore_model(route.backup_id.0, version, Arc::clone(&blob))
            .map_err(|status| LakeError::Rpc(RpcError::Remote(status)))?;
        // Finds the blob the backup's store just took and shares it.
        backup.supervisor().record_model(route.backup_id.0, version, &blob);
        Ok(())
    }

    /// Queues one idempotent batch on the serving shard's SQ and keeps
    /// what a harvest-time replay needs.
    fn submit(
        &self,
        tenant: u32,
        id: FleetModelId,
        batch: Batch,
        features: &[f32],
    ) -> Result<FleetCmdId, LakeError> {
        let route = self.admit(tenant, id, features)?;
        let (shard, mid) = self.fleet.select_shard(&route);
        let fid = FleetCmdId { shard, id: batch.submit(&self.mls[shard], mid, features)? };
        self.queued.lock().insert(fid, QueuedSubmit { route, batch, features: features.to_vec() });
        Ok(fid)
    }

    /// Queues a batched MLP inference on the serving shard's SQ without
    /// blocking (proactive diversion applies at submit time, like the
    /// sync path). Idempotent: if the frame later completes with a
    /// daemon-death error, harvest replays it on the sibling replica.
    ///
    /// # Errors
    ///
    /// Tenant admission, then shard-local staging errors.
    pub fn submit_mlp(
        &self,
        tenant: u32,
        id: FleetModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Result<FleetCmdId, LakeError> {
        self.submit(tenant, id, Batch::Mlp { rows, cols }, features)
    }

    /// Queues a batched LSTM inference; see [`FleetMl::submit_mlp`].
    ///
    /// # Errors
    ///
    /// Tenant admission, then shard-local staging errors.
    pub fn submit_lstm(
        &self,
        tenant: u32,
        id: FleetModelId,
        rows: usize,
        steps: usize,
        features_per_step: usize,
        features: &[f32],
    ) -> Result<FleetCmdId, LakeError> {
        self.submit(tenant, id, Batch::Lstm { rows, steps, features_per_step }, features)
    }

    /// Force-sends every shard's SQ under one doorbell apiece.
    pub fn flush(&self) {
        for ml in &self.mls {
            ml.flush();
        }
    }

    /// Harvests every completion that has already arrived on any shard's
    /// CQ (non-blocking). A completion that died with the daemon is
    /// replayed synchronously on the sibling replica before being
    /// returned — the caller sees the sibling's answer under the
    /// original ticket, and `failover_retries` counts the replay.
    pub fn poll_completions(&self) -> Vec<(FleetCmdId, Result<Vec<u32>, LakeError>)> {
        self.harvest(LakeMl::poll_completions)
    }

    /// Flushes every shard's SQ, then blocks until all outstanding
    /// submissions complete, harvesting them with the same failover
    /// semantics as [`FleetMl::poll_completions`].
    pub fn drain_completions(&self) -> Vec<(FleetCmdId, Result<Vec<u32>, LakeError>)> {
        self.harvest(LakeMl::drain_completions)
    }

    /// Collects `take`'s completions from every shard, shard by shard,
    /// replaying each daemon-death result on its sibling replica.
    fn harvest(
        &self,
        take: impl Fn(&LakeMl) -> Vec<InferCompletion>,
    ) -> Vec<(FleetCmdId, Result<Vec<u32>, LakeError>)> {
        let mut out = Vec::new();
        for (shard, ml) in self.mls.iter().enumerate() {
            for (cmd, result) in take(ml) {
                let fid = FleetCmdId { shard, id: cmd };
                let queued = self.queued.lock().remove(&fid);
                let result = match queued {
                    Some(q) => self.fail_over(&q.route, shard, result, |ml, mid| {
                        q.batch.infer(ml, mid, &q.features)
                    }),
                    None => result,
                };
                out.push((fid, result));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_ml::{serialize, Activation, Knn, LstmClassifier, Matrix, Mlp};
    use lake_sim::{CrashSchedule, Instant};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const COLS: usize = 8;

    fn model_blob() -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(9);
        serialize::encode_mlp(&Mlp::new(&[COLS, 16, 2], Activation::Relu, &mut rng))
    }

    /// A handle that offloads every inference: these tests watch the
    /// shards' daemons and engines, which small batches would not reach.
    fn offloading(fleet: &DaemonFleet) -> FleetMl<'_> {
        fleet.ml().with_policy(lake_core::BatchThresholdPolicy { batch_threshold: 0 })
    }

    /// An LSTM over sequences of `STEPS` steps of `COLS / STEPS`
    /// features, so one [`row`] is one sequence.
    const STEPS: usize = 2;

    fn lstm_blob() -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(9);
        serialize::encode_lstm(&LstmClassifier::new(COLS / STEPS, 8, 1, 2, &mut rng))
    }

    fn knn_blob() -> Vec<u8> {
        let refs = Matrix::from_rows(&(0..4).map(row).collect::<Vec<_>>());
        serialize::encode_knn(&Knn::new(refs, vec![0, 1, 0, 1], 1))
    }

    fn row(i: usize) -> Vec<f32> {
        (0..COLS).map(|j| ((i * 13 + j * 7) % 29) as f32 / 29.0 - 0.5).collect()
    }

    #[test]
    fn shards_share_one_clock() {
        let fleet = DaemonFleet::deploy(Lake::builder().shards(3));
        assert_eq!(fleet.shards().len(), 3);
        let t0 = fleet.clock().now();
        fleet.clock().advance(Duration::from_micros(50));
        for shard in fleet.shards() {
            assert_eq!(shard.clock().now(), t0 + Duration::from_micros(50));
        }
    }

    #[test]
    fn fleet_inference_matches_a_single_lake() {
        let single = Lake::builder().build();
        let sml = single.ml();
        let fleet = DaemonFleet::deploy(Lake::builder().shards(3));
        let ml = offloading(&fleet);
        let two = [row(3), row(6)].concat();

        let (sid, id) =
            (sml.load_model(&model_blob()).unwrap(), ml.load_model(&model_blob()).unwrap());
        let want = sml.infer_mlp(sid, 1, COLS, &row(3)).unwrap();
        assert_eq!(ml.infer_mlp(0, id, 1, COLS, &row(3)).unwrap(), want, "MLP answer moved");

        let (sid, id) =
            (sml.load_model(&lstm_blob()).unwrap(), ml.load_model(&lstm_blob()).unwrap());
        let want = sml.infer_lstm(sid, 2, STEPS, COLS / STEPS, &two).unwrap();
        let got = ml.infer_lstm(0, id, 2, STEPS, COLS / STEPS, &two).unwrap();
        assert_eq!(got, want, "LSTM answer moved");

        let (sid, id) = (sml.load_model(&knn_blob()).unwrap(), ml.load_model(&knn_blob()).unwrap());
        let want = sml.infer_knn(sid, 2, COLS, &two).unwrap();
        assert_eq!(ml.infer_knn(0, id, 2, COLS, &two).unwrap(), want, "k-NN answer moved");
        assert!(fleet.stats().routed_primary >= 3);
    }

    /// A backup load that dies with its daemon must not strand the
    /// primary's copy: no route names it, so nothing could unload it.
    #[test]
    fn a_failed_backup_load_unloads_the_primary_copy() {
        let mlp = Mlp::new(&[64, 256, 2], Activation::Relu, &mut StdRng::seed_from_u64(3));
        let blob = serialize::encode_mlp(&mlp);
        // The ring is deterministic: time key 0's two loads on a probe.
        let probe = DaemonFleet::deploy(Lake::builder().shards(2));
        let t0 = probe.clock().now();
        let pid = probe.ml().load_model(&blob).unwrap();
        let (primary, backup) = probe.route_of(pid).unwrap();
        // Three quarters in lands inside the backup's load.
        let crash = t0 + (probe.clock().now() - t0) * 3 / 4;
        drop(probe);

        let fleet =
            DaemonFleet::deploy_with(Lake::builder().shards(2), FleetPolicy::default(), |id, b| {
                if id == backup {
                    b.crash_schedule(CrashSchedule::at(vec![crash]))
                } else {
                    b
                }
            });
        let err = fleet.ml().load_model(&blob).unwrap_err();
        assert!(failover_eligible(&err), "the backup load died with its daemon: {err}");
        let shard = fleet.shard(primary);
        assert_eq!(shard.model_store_stats().resident_bytes, 0, "primary copy still resident");
        assert_eq!(shard.supervisor().shadowed_models(), 0, "primary copy still shadowed");
    }

    #[test]
    fn models_replicate_to_a_distinct_backup() {
        let fleet = DaemonFleet::deploy(Lake::builder().shards(3));
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        let (p, b) = fleet.route_of(id).expect("route exists");
        assert_ne!(p, b, "3-shard ring always has a distinct backup");
        // Unload removes both replicas and the route.
        ml.unload_model(id).unwrap();
        assert!(fleet.route_of(id).is_none());
        assert!(matches!(ml.infer_mlp(0, id, 1, COLS, &row(0)), Err(LakeError::BadResponse(_))));
    }

    #[test]
    fn pending_crash_diverts_then_primary_recovers() {
        // The ring is deterministic: discover key 0's primary on a clean
        // fleet, then rebuild with a crash armed on that shard only.
        let probe = DaemonFleet::deploy(Lake::builder().shards(2));
        let pid = offloading(&probe).load_model(&model_blob()).unwrap();
        let (primary, _) = probe.route_of(pid).unwrap();
        let want = offloading(&probe).infer_mlp(0, pid, 1, COLS, &row(1)).unwrap();
        drop(probe);

        let crash_at = Duration::from_micros(500);
        let fleet =
            DaemonFleet::deploy_with(Lake::builder().shards(2), FleetPolicy::default(), |id, b| {
                if id == primary {
                    b.crash_schedule(CrashSchedule::at(vec![Instant::EPOCH + crash_at]))
                } else {
                    b
                }
            });
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        assert_eq!(fleet.route_of(id).unwrap().0, primary, "same key, same route");

        // Land just inside the divert window after the crash instant.
        fleet.clock().advance(crash_at + Duration::from_micros(10));
        let got = ml.infer_mlp(0, id, 1, COLS, &row(1)).unwrap();
        assert_eq!(got, want, "diverted call must be bit-identical");
        assert_eq!(fleet.stats().diverted, 1, "router diverted to the backup");
        assert_eq!(
            fleet.shard(primary).fault_report().supervisor.restarts,
            0,
            "diversion must not have paid the restart"
        );

        // Beyond the window the router sends the primary back in, which
        // pays the supervised restart and recovers.
        fleet.clock().advance(fleet.policy().divert_window);
        let got = ml.infer_mlp(0, id, 1, COLS, &row(1)).unwrap();
        assert_eq!(got, want);
        let sup = fleet.shard(primary).fault_report().supervisor;
        assert_eq!(sup.restarts, 1, "primary restarted once past the window");
        assert!(fleet.stats().routed_primary >= 1);
    }

    #[test]
    fn add_shard_grows_the_ring_without_moving_existing_routes() {
        let mut fleet = DaemonFleet::deploy(Lake::builder().shards(2));
        let id = offloading(&fleet).load_model(&model_blob()).unwrap();
        let before = fleet.route_of(id).unwrap();
        let newcomer = fleet.add_shard();
        assert_eq!(newcomer, 2);
        assert_eq!(fleet.shards().len(), 3);
        assert_eq!(fleet.route_of(id).unwrap(), before, "existing routes pinned");
        // The newcomer shares the fleet clock.
        fleet.clock().advance(Duration::from_micros(5));
        assert_eq!(fleet.shard(2).clock().now(), fleet.clock().now());
        // And it can serve a fresh model once the ring hands it one.
        let ml = offloading(&fleet);
        for _ in 0..32 {
            let id = ml.load_model(&model_blob()).unwrap();
            let (p, b) = fleet.route_of(id).unwrap();
            if p == 2 || b == 2 {
                ml.infer_mlp(0, id, 1, COLS, &row(2)).unwrap();
                return;
            }
        }
        panic!("32 keys and none routed to the new shard");
    }

    #[test]
    fn tenant_admission_gates_the_data_plane() {
        let fleet = DaemonFleet::deploy(Lake::builder().shards(2));
        fleet.governor().set_weight(7, 2);
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        ml.infer_mlp(7, id, 1, COLS, &row(0)).unwrap();
        let stats = fleet.stats();
        assert!(stats.qos.admitted >= 1);
        assert_eq!(fleet.governor().served_bytes(7), (COLS * std::mem::size_of::<f32>()) as u64);
    }

    #[test]
    fn queued_submissions_complete_and_fail_over_to_the_sibling() {
        // Discover key 0's primary, then rebuild with that shard armed
        // to crash — mirrors `pending_crash_diverts_then_primary_recovers`.
        let probe = DaemonFleet::deploy(Lake::builder().shards(2));
        let pid = offloading(&probe).load_model(&model_blob()).unwrap();
        let (primary, _) = probe.route_of(pid).unwrap();
        let want = offloading(&probe).infer_mlp(0, pid, 1, COLS, &row(5)).unwrap();
        drop(probe);

        // Healthy fleet first: queued submissions land on the primary's
        // SQ and drain to the same answers as the sync path.
        let fleet = DaemonFleet::deploy(Lake::builder().shards(2));
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        let t0 = ml.submit_mlp(0, id, 1, COLS, &row(5)).unwrap();
        let t1 = ml.submit_mlp(0, id, 1, COLS, &row(5)).unwrap();
        assert_eq!(t0.shard, primary);
        let done = ml.drain_completions();
        assert_eq!(done.len(), 2);
        for t in [t0, t1] {
            let (_, r) = done.iter().find(|(fid, _)| *fid == t).expect("ticket completed");
            assert_eq!(r.as_ref().unwrap(), &want);
        }
        assert!(fleet.stats().qos.admitted >= 2, "tenant governor gated the submits");

        // Crashy fleets: the primary crashes mid-flight and its engine is
        // pinned to a single attempt, so the queued frame completes with
        // a typed `DaemonRestarted` instead of recovering shard-locally —
        // harvest must replay the command on the backup replica. Once per
        // batch kind, each on a fresh fleet whose key 0 is the model.
        let one_shot = lake_rpc::CallPolicy { max_attempts: 1, ..Default::default() };
        let seq = [row(5), row(7)].concat();
        let want_lstm = {
            let lake = Lake::builder().build();
            let sid = lake.ml().load_model(&lstm_blob()).unwrap();
            lake.ml().infer_lstm(sid, 2, STEPS, COLS / STEPS, &seq).unwrap()
        };
        for lstm in [false, true] {
            let fleet = DaemonFleet::deploy_with(
                Lake::builder().shards(2),
                FleetPolicy::default(),
                |sid, b| {
                    if sid == primary {
                        b.crash_schedule(CrashSchedule::at(vec![
                            Instant::EPOCH + Duration::from_micros(500),
                        ]))
                        .call_policy(one_shot)
                    } else {
                        b
                    }
                },
            );
            let ml = offloading(&fleet);
            let id = ml.load_model(&if lstm { lstm_blob() } else { model_blob() }).unwrap();
            // Park just shy of the first crash so the queued frame's
            // in-flight window spans it (the submit itself still routes
            // the primary: the crash has not surfaced yet).
            fleet.clock().advance_to(Instant::from_nanos(500 * 1_000 - 100));
            let t = if lstm {
                ml.submit_lstm(0, id, 2, STEPS, COLS / STEPS, &seq)
            } else {
                ml.submit_mlp(0, id, 1, COLS, &row(5))
            };
            let t = t.unwrap();
            assert_eq!(t.shard, primary, "crash not yet surfaced, primary routed");
            let done = ml.drain_completions();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].0, t);
            let got = done[0].1.as_ref().expect("failover answered under the original ticket");
            assert_eq!(got, if lstm { &want_lstm } else { &want });
            assert!(
                fleet.stats().failover_retries >= 1,
                "daemon-death completion must count a failover replay"
            );
        }
    }

    #[test]
    fn export_roundtrips_and_replicas_resync() {
        let fleet = DaemonFleet::deploy(Lake::builder().shards(2));
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        let before = ml.export_model(id).unwrap();
        assert_eq!(before, model_blob());
        // Nudge the primary's weights, then resync and verify both
        // replicas answer identically again.
        let feats = [row(0), row(1)].concat();
        ml.train_mlp(0, id, 2, COLS, &feats, &[0, 1], 1, 0.05).unwrap();
        ml.sync_replica(id).unwrap();
        let (p, b) = fleet.route_of(id).unwrap();
        let route = fleet.routes.lock().get(&id.0).copied().unwrap();
        let on_primary = fleet.shard(p).ml().infer_mlp(route.primary_id, 1, COLS, &row(4)).unwrap();
        let on_backup = fleet.shard(b).ml().infer_mlp(route.backup_id, 1, COLS, &row(4)).unwrap();
        assert_eq!(on_primary, on_backup, "replicas identical after sync");
    }

    #[test]
    fn replica_sync_skips_when_versions_match() {
        let fleet = DaemonFleet::deploy(Lake::builder().shards(2));
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        let route = fleet.routes.lock().get(&id.0).copied().unwrap();

        // Fresh load replicated both sides at version 1: a sync finds
        // nothing to move.
        ml.sync_replica(id).unwrap();
        assert_eq!(fleet.stats().replica_sync_skipped, 1, "same version, no transfer");

        // Training bumps the primary to version 2; the next sync must
        // actually transfer, and the one after is a no-op again.
        let feats = [row(0), row(1)].concat();
        ml.train_mlp(0, id, 2, COLS, &feats, &[0, 1], 1, 0.05).unwrap();
        let p_ver = fleet.shard(route.primary).daemon().model_version(route.primary_id.0);
        assert_eq!(p_ver, Some(2));
        ml.sync_replica(id).unwrap();
        assert_eq!(fleet.stats().replica_sync_skipped, 1, "stale backup forces a transfer");
        assert_eq!(
            fleet.shard(route.backup).daemon().model_version(route.backup_id.0),
            Some(2),
            "backup caught up to the primary's version"
        );
        ml.sync_replica(id).unwrap();
        assert_eq!(fleet.stats().replica_sync_skipped, 2, "caught-up backup skips again");
    }
}
