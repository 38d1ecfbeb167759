//! The fleet proper: N independent lakeD shards behind one router.
//!
//! PR 5 made a *single* daemon survivable (supervised restarts, epoch
//! fencing, orphan reclamation). The fleet takes the next step the paper
//! gestures at for multi-tenant nodes: several lakeD instances — each
//! with its own transport link, supervisor, incarnation epoch, and shm
//! staging region — serving disjoint model shards behind a
//! consistent-hash router ([`crate::ring::HashRing`]). Sharding buys
//! three things a single daemon cannot offer:
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

use lake_core::{FaultReport, Lake, LakeBuilder, LakeError, LakeMl, ModelId, PerfReport, Policy};
use lake_rpc::{CmdId, PerfSnapshot, RpcError};
use lake_sim::{Duration, SharedClock};
use lake_transport::RingStats;
use parking_lot::Mutex;

use crate::qos::{QosCounters, QosPolicy, TenantGovernor};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Tunables for [`DaemonFleet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPolicy {
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
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
            vnodes: DEFAULT_VNODES,
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

impl std::fmt::Display for FleetModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet-model#{}", self.0)
    }
}

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

/// Everything needed to replay a queued idempotent inference on the
/// sibling replica if its frame dies with the daemon.
struct QueuedSubmit {
    route: ModelRoute,
    kind: QueuedKind,
    features: Vec<f32>,
}

enum QueuedKind {
    Mlp { rows: usize, cols: usize },
    Lstm { rows: usize, steps: usize, features_per_step: usize },
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

/// N lakeD shards on one virtual clock behind consistent-hash routing,
/// tenant QoS, and cross-shard failover (see module docs).
pub struct DaemonFleet {
    clock: SharedClock,
    shards: Vec<Lake>,
    ring: Mutex<HashRing>,
    governor: TenantGovernor,
    policy: FleetPolicy,
    /// The builder every shard was stamped from (clock pre-set), so
    /// [`DaemonFleet::add_shard`] grows the fleet from the same template.
    template: LakeBuilder,
    routes: Mutex<HashMap<u64, ModelRoute>>,
    next_key: AtomicU64,
    routed_primary: AtomicU64,
    diverted: AtomicU64,
    failover_retries: AtomicU64,
    replica_sync_skipped: AtomicU64,
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
    /// Shards currently deployed.
    pub shards: usize,
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

/// Per-shard [`FaultReport`]s plus fleet totals.
#[derive(Debug, Clone)]
pub struct FleetFaultReport {
    /// One report per shard, indexed by shard id (each report's `shard`
    /// field matches its position).
    pub shards: Vec<FaultReport>,
    /// Total supervised restarts across shards.
    pub restarts: u64,
    /// Total crashes detected across shards.
    pub crashes_detected: u64,
    /// Total orphaned shm allocations reclaimed across shards.
    pub orphans_reclaimed: u64,
}

/// Per-shard [`PerfReport`]s plus fleet totals.
#[derive(Debug, Clone)]
pub struct FleetPerfReport {
    /// One report per shard, indexed by shard id.
    pub shards: Vec<PerfReport>,
    /// Per-engine RPC copy counters summed across shards — the fleet's
    /// true aggregate (each engine counts only its own traffic).
    pub rpc_total: PerfSnapshot,
    /// The process-wide rollup, for backward compatibility. Counts every
    /// engine in the process once — do **not** add it to `rpc_total`.
    pub rpc_process: PerfSnapshot,
    /// Calls whose payloads travelled as shm handles, across shards.
    pub staged_calls: u64,
}

impl DaemonFleet {
    /// Deploys a fleet from `template` under the default
    /// [`FleetPolicy`]. Shard count comes from
    /// [`LakeBuilder::shards`] / the `LAKE_SHARDS` environment override.
    pub fn deploy(template: LakeBuilder) -> Self {
        Self::deploy_with(template, FleetPolicy::default(), |_, b| b)
    }

    /// [`DaemonFleet::deploy`] with an explicit policy and a per-shard
    /// customization hook — e.g. arm a `CrashSchedule` on shard 0 only.
    pub fn deploy_with(
        template: LakeBuilder,
        policy: FleetPolicy,
        customize: impl FnMut(usize, LakeBuilder) -> LakeBuilder,
    ) -> Self {
        let shards = template.clone().build_shards_with(customize);
        let clock = shards[0].clock().clone();
        let ring = HashRing::with_vnodes(shards.len(), policy.vnodes);
        let governor = TenantGovernor::new(clock.clone(), policy.qos);
        DaemonFleet {
            clock: clock.clone(),
            shards,
            ring: Mutex::new(ring),
            governor,
            policy,
            template: template.clock(clock),
            routes: Mutex::new(HashMap::new()),
            next_key: AtomicU64::new(0),
            routed_primary: AtomicU64::new(0),
            diverted: AtomicU64::new(0),
            failover_retries: AtomicU64::new(0),
            replica_sync_skipped: AtomicU64::new(0),
        }
    }

    /// The fleet's shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The active policy.
    pub fn policy(&self) -> FleetPolicy {
        self.policy
    }

    /// Number of shards deployed.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `id`'s [`Lake`] instance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shard(&self, id: usize) -> &Lake {
        &self.shards[id]
    }

    /// All shards, indexed by shard id.
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
        let id = self.shards.len();
        // Direct `build()` (not `build_shards`) so a `LAKE_SHARDS`
        // override cannot re-apply and fan this one shard out into many.
        self.shards.push(self.template.clone().shard_id(id).build());
        self.ring.lock().add_shard(id);
        id
    }

    /// Fleet routing and QoS counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            shards: self.shards.len(),
            routed_primary: self.routed_primary.load(Ordering::Relaxed),
            diverted: self.diverted.load(Ordering::Relaxed),
            failover_retries: self.failover_retries.load(Ordering::Relaxed),
            replica_sync_skipped: self.replica_sync_skipped.load(Ordering::Relaxed),
            qos: self.governor.counters(),
        }
    }

    /// Per-shard fault reports plus fleet totals, shard-attributable.
    pub fn fault_report(&self) -> FleetFaultReport {
        let shards: Vec<FaultReport> = self.shards.iter().map(Lake::fault_report).collect();
        FleetFaultReport {
            restarts: shards.iter().map(|r| r.supervisor.restarts).sum(),
            crashes_detected: shards.iter().map(|r| r.supervisor.crashes_detected).sum(),
            orphans_reclaimed: shards.iter().map(|r| r.supervisor.orphans_reclaimed).sum(),
            shards,
        }
    }

    /// Per-shard perf reports plus the per-engine RPC aggregate.
    pub fn perf_report(&self) -> FleetPerfReport {
        let shards: Vec<PerfReport> = self.shards.iter().map(Lake::perf_report).collect();
        FleetPerfReport {
            rpc_total: shards.iter().fold(PerfSnapshot::default(), |acc, r| acc.merged(&r.rpc)),
            rpc_process: lake_rpc::perf::snapshot(),
            staged_calls: shards.iter().map(|r| r.staged_calls).sum(),
            shards,
        }
    }

    /// Per-shard ring-transport stats (`None` for shards not on the
    /// `Ring` link), indexed by shard id.
    pub fn ring_stats(&self) -> Vec<Option<RingStats>> {
        self.shards.iter().map(Lake::ring_stats).collect()
    }

    /// Picks the serving shard for `route`: the backup while the primary
    /// has an unhandled crash younger than `divert_window`, else the
    /// primary (which then pays its supervised restart — see module
    /// docs).
    fn select_shard(&self, route: &ModelRoute) -> (usize, ModelId) {
        if route.backup != route.primary {
            let now = self.clock.now();
            if let Some(age) = self.shards[route.primary].supervisor().pending_crash_age(now) {
                if age <= self.policy.divert_window {
                    self.diverted.fetch_add(1, Ordering::Relaxed);
                    return (route.backup, route.backup_id);
                }
            }
        }
        self.routed_primary.fetch_add(1, Ordering::Relaxed);
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

/// Kernel-space ML handle over a [`DaemonFleet`]: the [`LakeMl`] surface
/// plus routing, tenant admission, replication, and failover.
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
        self.fleet
            .routes
            .lock()
            .get(&id.0)
            .copied()
            .ok_or(LakeError::BadResponse("unknown fleet model id"))
    }

    /// Runs an *idempotent* call with proactive diversion and reactive
    /// failover per the module-docs state machine.
    fn with_failover<T>(
        &self,
        route: ModelRoute,
        mut call: impl FnMut(&LakeMl, ModelId) -> Result<T, LakeError>,
    ) -> Result<T, LakeError> {
        let (shard, mid) = self.fleet.select_shard(&route);
        match call(&self.mls[shard], mid) {
            Err(e) if failover_eligible(&e) && route.backup != route.primary => {
                self.fleet.failover_retries.fetch_add(1, Ordering::Relaxed);
                let (alt, alt_id) = if shard == route.primary {
                    (route.backup, route.backup_id)
                } else {
                    (route.primary, route.primary_id)
                };
                call(&self.mls[alt], alt_id)
            }
            r => r,
        }
    }

    /// Admits `bytes` of staged payload for `tenant` through the fleet
    /// governor (blocking in virtual time).
    fn admit(&self, tenant: u32, bytes: usize) -> Result<(), LakeError> {
        self.fleet.governor.admit(tenant, bytes).map_err(LakeError::from)
    }

    /// Loads a serialized model onto its ring-assigned primary shard
    /// *and* its backup (one load on a single-shard fleet), returning the
    /// fleet-level handle.
    ///
    /// # Errors
    ///
    /// Any shard-local load failure propagates.
    pub fn load_model(&self, blob: &[u8]) -> Result<FleetModelId, LakeError> {
        let key = self.fleet.next_key.fetch_add(1, Ordering::Relaxed);
        let (primary, backup) = self.fleet.ring.lock().route_pair(key);
        let primary_id = self.mls[primary].load_model(blob)?;
        let backup_id =
            if backup == primary { primary_id } else { self.mls[backup].load_model(blob)? };
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
        if route.backup != route.primary {
            self.mls[route.backup].unload_model(route.backup_id)?;
        }
        self.fleet.routes.lock().remove(&id.0);
        Ok(())
    }

    /// Synchronous MLP inference (idempotent: diverts and fails over).
    ///
    /// # Errors
    ///
    /// Tenant admission ([`lake_sched::AdmissionError`]) or the losing
    /// side of the failover state machine.
    pub fn infer_mlp(
        &self,
        tenant: u32,
        id: FleetModelId,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Result<Vec<u32>, LakeError> {
        self.admit(tenant, std::mem::size_of_val(features))?;
        let route = self.route(id)?;
        self.with_failover(route, |ml, mid| ml.infer_mlp(mid, rows, cols, features))
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
        self.admit(tenant, std::mem::size_of_val(features))?;
        let route = self.route(id)?;
        self.with_failover(route, |ml, mid| {
            ml.infer_lstm(mid, rows, steps, features_per_step, features)
        })
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
        self.admit(tenant, std::mem::size_of_val(features))?;
        let route = self.route(id)?;
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
        self.admit(tenant, std::mem::size_of_val(features))?;
        let route = self.route(id)?;
        self.fleet.routed_primary.fetch_add(1, Ordering::Relaxed);
        self.mls[route.primary].train_mlp(
            route.primary_id,
            rows,
            cols,
            features,
            labels,
            epochs,
            learning_rate,
        )
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
        if let Some(version) = primary_version {
            if backup.daemon().model_version(route.backup_id.0) == Some(version) {
                self.fleet.replica_sync_skipped.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        let blob = self.mls[route.primary].export_model(route.primary_id)?;
        // Re-read through the failover-safe path: export may have served
        // from the backup replica if the primary was mid-restart, but the
        // version we install must be the blob's origin version.
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
        self.admit(tenant, std::mem::size_of_val(features))?;
        let route = self.route(id)?;
        let (shard, mid) = self.fleet.select_shard(&route);
        let cmd = self.mls[shard].submit_mlp(mid, rows, cols, features)?;
        let fid = FleetCmdId { shard, id: cmd };
        self.queued.lock().insert(
            fid,
            QueuedSubmit {
                route,
                kind: QueuedKind::Mlp { rows, cols },
                features: features.to_vec(),
            },
        );
        Ok(fid)
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
        self.admit(tenant, std::mem::size_of_val(features))?;
        let route = self.route(id)?;
        let (shard, mid) = self.fleet.select_shard(&route);
        let cmd = self.mls[shard].submit_lstm(mid, rows, steps, features_per_step, features)?;
        let fid = FleetCmdId { shard, id: cmd };
        self.queued.lock().insert(
            fid,
            QueuedSubmit {
                route,
                kind: QueuedKind::Lstm { rows, steps, features_per_step },
                features: features.to_vec(),
            },
        );
        Ok(fid)
    }

    /// Force-sends every shard's SQ under one doorbell apiece.
    pub fn flush(&self) {
        for ml in &self.mls {
            ml.flush();
        }
    }

    /// Queued submissions not yet harvested, across all shards.
    pub fn outstanding(&self) -> usize {
        self.mls.iter().map(LakeMl::outstanding).sum()
    }

    /// Harvests every completion that has already arrived on any shard's
    /// CQ (non-blocking). A completion that died with the daemon is
    /// replayed synchronously on the sibling replica before being
    /// returned — the caller sees the sibling's answer under the
    /// original ticket, and `failover_retries` counts the replay.
    pub fn poll_completions(&self) -> Vec<(FleetCmdId, Result<Vec<u32>, LakeError>)> {
        let mut out = Vec::new();
        for (shard, ml) in self.mls.iter().enumerate() {
            for (cmd, result) in ml.poll_completions() {
                out.push(self.settle(FleetCmdId { shard, id: cmd }, result));
            }
        }
        out
    }

    /// Flushes every shard's SQ, then blocks until all outstanding
    /// submissions complete, harvesting them with the same failover
    /// semantics as [`FleetMl::poll_completions`].
    pub fn drain_completions(&self) -> Vec<(FleetCmdId, Result<Vec<u32>, LakeError>)> {
        let mut out = Vec::new();
        for (shard, ml) in self.mls.iter().enumerate() {
            for (cmd, result) in ml.drain_completions() {
                out.push(self.settle(FleetCmdId { shard, id: cmd }, result));
            }
        }
        out
    }

    fn settle(
        &self,
        fid: FleetCmdId,
        result: Result<Vec<u32>, LakeError>,
    ) -> (FleetCmdId, Result<Vec<u32>, LakeError>) {
        let queued = self.queued.lock().remove(&fid);
        match result {
            Err(e) if failover_eligible(&e) => {
                let Some(q) = queued else { return (fid, Err(e)) };
                if q.route.backup == q.route.primary {
                    return (fid, Err(e));
                }
                self.fleet.failover_retries.fetch_add(1, Ordering::Relaxed);
                let (alt, alt_id) = if fid.shard == q.route.primary {
                    (q.route.backup, q.route.backup_id)
                } else {
                    (q.route.primary, q.route.primary_id)
                };
                let retried = match q.kind {
                    QueuedKind::Mlp { rows, cols } => {
                        self.mls[alt].infer_mlp(alt_id, rows, cols, &q.features)
                    }
                    QueuedKind::Lstm { rows, steps, features_per_step } => self.mls[alt]
                        .infer_lstm(alt_id, rows, steps, features_per_step, &q.features),
                };
                (fid, retried)
            }
            r => (fid, r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_ml::{serialize, Activation, Mlp};
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

    fn row(i: usize) -> Vec<f32> {
        (0..COLS).map(|j| ((i * 13 + j * 7) % 29) as f32 / 29.0 - 0.5).collect()
    }

    #[test]
    fn shards_share_one_clock_and_carry_their_ids() {
        let fleet = DaemonFleet::deploy(Lake::builder().shards(3));
        assert_eq!(fleet.num_shards(), 3);
        let t0 = fleet.clock().now();
        fleet.clock().advance(Duration::from_micros(50));
        for (id, shard) in fleet.shards().iter().enumerate() {
            assert_eq!(shard.shard_id(), id);
            assert_eq!(shard.clock().now(), t0 + Duration::from_micros(50));
        }
        let report = fleet.fault_report();
        assert_eq!(report.shards.len(), 3);
        for (id, r) in report.shards.iter().enumerate() {
            assert_eq!(r.shard, id);
        }
    }

    #[test]
    fn fleet_inference_matches_a_single_lake() {
        let single = Lake::builder().build();
        let sml = single.ml();
        let sid = sml.load_model(&model_blob()).unwrap();
        let want = sml.infer_mlp(sid, 1, COLS, &row(3)).unwrap();

        let fleet = DaemonFleet::deploy(Lake::builder().shards(3));
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        let got = ml.infer_mlp(0, id, 1, COLS, &row(3)).unwrap();
        assert_eq!(got, want, "routing must not change answers");
        assert!(fleet.stats().routed_primary >= 1);
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
        assert_eq!(fleet.num_shards(), 3);
        assert_eq!(fleet.fault_report().shards.len(), 3);
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
    fn perf_totals_sum_per_engine_counters() {
        let fleet = DaemonFleet::deploy(Lake::builder().shards(2));
        let ml = offloading(&fleet);
        let id = ml.load_model(&model_blob()).unwrap();
        ml.infer_mlp(0, id, 2, COLS, &[row(0), row(1)].concat()).unwrap();
        let perf = fleet.perf_report();
        assert_eq!(perf.shards.len(), 2);
        let by_hand = perf.shards.iter().fold(PerfSnapshot::default(), |acc, r| acc.merged(&r.rpc));
        assert_eq!(perf.rpc_total, by_hand);
        assert!(perf.rpc_total.bytes_copied > 0, "model load + infer copied bytes");
    }

    #[test]
    fn perf_totals_stay_exact_across_three_shards_and_add_shard() {
        let mut fleet = DaemonFleet::deploy(Lake::builder().shards(3));
        {
            // Spread traffic until every shard has served at least one
            // model, so every engine's counters are non-trivial.
            let ml = offloading(&fleet);
            let mut touched = [false; 3];
            for _ in 0..32 {
                let id = ml.load_model(&model_blob()).unwrap();
                let (p, b) = fleet.route_of(id).unwrap();
                touched[p] = true;
                touched[b] = true;
                ml.infer_mlp(0, id, 1, COLS, &row(1)).unwrap();
                if touched.iter().all(|&t| t) {
                    break;
                }
            }
            assert!(touched.iter().all(|&t| t), "32 keys never touched some shard");
        }

        // Per-engine snapshots taken straight off each shard, before any
        // aggregation — the ground truth the fleet rollup must equal.
        let pre: Vec<PerfSnapshot> = fleet.shards().iter().map(|s| s.perf_report().rpc).collect();
        let perf = fleet.perf_report();
        assert_eq!(perf.shards.len(), 3);
        for (shard, want) in perf.shards.iter().zip(&pre) {
            assert_eq!(&shard.rpc, want, "per-shard counters shifted under aggregation");
        }
        assert_eq!(perf.rpc_total.bytes_copied, pre.iter().map(|s| s.bytes_copied).sum::<u64>());
        assert_eq!(perf.rpc_total.copies, pre.iter().map(|s| s.copies).sum::<u64>());
        assert_eq!(
            perf.rpc_total.zero_copy_hits,
            pre.iter().map(|s| s.zero_copy_hits).sum::<u64>()
        );
        assert_eq!(
            perf.rpc_total.bytes_zero_copied,
            pre.iter().map(|s| s.bytes_zero_copied).sum::<u64>()
        );
        assert!(perf.rpc_total.bytes_copied > 0);

        // Growing the fleet must not double-count: the newcomer's engine
        // joins the fold exactly once, and the old shards' counters are
        // untouched by `add_shard`.
        fleet.add_shard();
        let perf2 = fleet.perf_report();
        assert_eq!(perf2.shards.len(), 4);
        for (shard, want) in perf2.shards.iter().take(3).zip(&pre) {
            assert_eq!(&shard.rpc, want, "add_shard disturbed an existing engine");
        }
        let pre2: Vec<PerfSnapshot> = fleet.shards().iter().map(|s| s.perf_report().rpc).collect();
        assert_eq!(perf2.rpc_total.bytes_copied, pre2.iter().map(|s| s.bytes_copied).sum::<u64>());
        assert_eq!(perf2.rpc_total.copies, pre2.iter().map(|s| s.copies).sum::<u64>());
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

        // Crashy fleet: the primary crashes mid-flight and its engine is
        // pinned to a single attempt, so the queued frame completes with
        // a typed `DaemonRestarted` instead of recovering shard-locally —
        // harvest must replay the command on the backup replica.
        let one_shot = lake_rpc::CallPolicy { max_attempts: 1, ..Default::default() };
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
        let id = ml.load_model(&model_blob()).unwrap();
        // Park just shy of the first crash so the queued frame's
        // in-flight window spans it (the submit itself still routes the
        // primary: the crash has not surfaced yet).
        fleet.clock().advance_to(Instant::from_nanos(500 * 1_000 - 100));
        let t = ml.submit_mlp(0, id, 1, COLS, &row(5)).unwrap();
        assert_eq!(t.shard, primary, "crash not yet surfaced, primary routed");
        let done = ml.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, t);
        assert_eq!(done[0].1.as_ref().expect("failover answered under the original ticket"), &want);
        assert!(
            fleet.stats().failover_retries >= 1,
            "daemon-death completion must count a failover replay"
        );
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
