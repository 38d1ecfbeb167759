//! Supervised `lakeD` lifecycle: crash detection, epoch-fenced restart,
//! shadow-state replay, and orphan reclamation.
//!
//! The paper's daemon is a single point of failure: every remoted API
//! dies with it. [`DaemonSupervisor`] reproduces what a production
//! deployment layers on top — a heartbeat lease over the daemon process,
//! a supervised restart loop with exponential backoff, and a
//! restart-storm circuit breaker that parks the stack on the PR 2 CPU
//! fallback path when the daemon cannot stay up.
//!
//! The supervisor implements [`lake_rpc::DaemonLifecycle`], so the call
//! engine consults it around every command: crashes scheduled by
//! [`CrashSchedule`] strike mid-request, in-flight idempotent calls fail
//! over to the new incarnation, and everything else surfaces a typed
//! [`lake_rpc::RpcError::DaemonRestarted`].
//!
//! On every restart the supervisor:
//!
//! 1. charges virtual time for lease expiry (detection), backoff, and
//!    the restart itself,
//! 2. bumps the **incarnation epoch** (stamped on every response frame,
//!    fencing stale answers),
//! 3. re-attaches `lakeShm` under the new epoch and sweeps the staging
//!    buffers the kernel side explicitly disowned (marked orphaned when
//!    their request died with the old incarnation) — never epoch-old
//!    buffers that are merely *suspect*, because an idempotent request
//!    failing over across several back-to-back restarts still references
//!    the buffer it staged before the first crash (a quiesced
//!    [`crate::Lake::reclaim_shm_orphans`] collects stragglers),
//! 4. replays the kernel-side shadow registration table: model blobs
//!    recorded at `load_model` time are restored **under their original
//!    ids** (so retried requests stay valid). That covers a feature
//!    registry's classifier too, which is a `LakeMl` model; the registry
//!    itself lives kernel-side and holds no daemon state.
//!
//! The shadow table names every acknowledged model version and holds its
//! blob: the same allocation the daemon's model store keeps, not a copy,
//! and a replay hands that allocation back to the store. Below the
//! offload crossover an MLP is classified here, in the caller's thread
//! ([`DaemonSupervisor::classify_local`]), from a packed copy built lazily
//! out of the shadowed blob.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use lake_ml::{serialize, CpuCostModel, Kernel, ModelKind, PackedMlp, PackedQuantMlp};
use lake_rpc::DaemonLifecycle;
use lake_sched::DevicePool;
use lake_shm::{ReclaimReport, ShmRegion};
use lake_sim::{CrashSchedule, Duration, Instant, SharedClock};

use crate::daemon::LakeDaemon;

/// Tunables for the supervised restart loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorPolicy {
    /// Heartbeat lease: virtual time between the crash and the
    /// supervisor noticing the lease expired.
    pub lease_timeout: Duration,
    /// Cost of one daemon restart (exec + shm reattach + CUDA init).
    pub restart_cost: Duration,
    /// Backoff before the first restart in a storm window.
    pub initial_backoff: Duration,
    /// Backoff cap (doubling stops here).
    pub max_backoff: Duration,
    /// Restarts within this window count toward the storm breaker.
    pub storm_window: Duration,
    /// Restarts inside `storm_window` that trip the breaker.
    pub storm_threshold: usize,
    /// How long a tripped breaker keeps the pool in forced CPU fallback.
    pub breaker_cooldown: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            lease_timeout: Duration::from_micros(20),
            restart_cost: Duration::from_micros(100),
            initial_backoff: Duration::from_micros(25),
            max_backoff: Duration::from_micros(400),
            storm_window: Duration::from_millis(5),
            storm_threshold: 3,
            breaker_cooldown: Duration::from_millis(2),
        }
    }
}

/// Counter snapshot for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// The current incarnation epoch (0 = primordial daemon).
    pub epoch: u64,
    /// Crashes the lease detected.
    pub crashes_detected: u64,
    /// Supervised restarts performed.
    pub restarts: u64,
    /// Shadow models replayed into new incarnations.
    pub models_replayed: u64,
    /// Times the restart-storm breaker latched forced CPU fallback.
    pub breaker_trips: u64,
    /// Orphaned shm allocations freed by automatic sweeps (restart
    /// sweeps plus idle-time sweeps).
    pub orphans_reclaimed: u64,
    /// Bytes those sweeps returned to the free list.
    pub orphan_bytes_reclaimed: usize,
    /// Idle-time orphan sweeps that actually reclaimed something —
    /// disowned staging buffers collected *between* restarts instead of
    /// lingering until the next one.
    pub idle_sweeps: u64,
}

/// Counters of the kernel-side inference path: MLP calls answered from the
/// shadow table without crossing to the daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalStats {
    /// Inference calls answered locally.
    pub inferences: u64,
    /// Feature rows those calls classified.
    pub rows: u64,
    /// Packed copies built from shadowed blobs (one per model version
    /// read locally).
    pub packs: u64,
}

/// The packed form of a shadowed MLP, f32 or int8.
enum PackedLocal {
    F32(PackedMlp),
    Int8(PackedQuantMlp),
}

/// A shadowed MLP ready for kernel-side inference.
struct LocalMlp {
    packed: PackedLocal,
    flops_per_input: f64,
}

impl LocalMlp {
    /// Decodes and packs `blob`; `None` for anything but an MLP.
    fn pack(blob: &[u8]) -> Option<LocalMlp> {
        Some(match ModelKind::detect(blob).ok()? {
            ModelKind::Mlp => {
                let m = serialize::decode_mlp(blob).ok()?;
                LocalMlp {
                    packed: PackedLocal::F32(PackedMlp::pack(&m)),
                    flops_per_input: m.flops_per_input(),
                }
            }
            ModelKind::QuantMlp => {
                let m = serialize::decode_quant_mlp(blob).ok()?;
                LocalMlp {
                    packed: PackedLocal::Int8(PackedQuantMlp::pack(&m)),
                    flops_per_input: m.flops_per_input(),
                }
            }
            _ => return None,
        })
    }

    fn input_size(&self) -> usize {
        match &self.packed {
            PackedLocal::F32(m) => m.input_size(),
            PackedLocal::Int8(m) => m.input_size(),
        }
    }

    fn classify(&self, features: &[f32], rows: usize, cols: usize, kernel: Kernel) -> Vec<usize> {
        match &self.packed {
            PackedLocal::F32(m) => m.classify_with(features, rows, cols, None, kernel),
            PackedLocal::Int8(m) => m.classify_with(features, rows, cols, None, kernel),
        }
    }
}

/// One model version in the shadow table: the blob replayed into every
/// new incarnation, and the packed copy local reads use, built on first
/// use and dropped with the entry.
///
/// The blob is shared with the daemon's model store, which keeps it for
/// refaults and exports; the shadow owns no bytes of its own unless the
/// store had already moved past this version when it was recorded.
struct ShadowModel {
    version: u64,
    blob: Arc<Vec<u8>>,
    local: OnceLock<Option<LocalMlp>>,
}

struct SupState {
    /// Crash instants at or before this are already restarted past.
    handled: Instant,
    /// Restart instants inside the storm window (pruned lazily).
    recent: Vec<Instant>,
    /// While set, the breaker holds the pool in forced fallback.
    breaker_until: Option<Instant>,
    /// Kernel-side shadow of loaded models by id. The version rides along
    /// so replay restores exactly the version set that was current — a
    /// crash landing inside a hot-swap window replays whichever version
    /// the swap had (or had not yet) acknowledged, never both. Entries
    /// are shared with in-progress local reads, which finish on the
    /// version they started on.
    shadow_models: BTreeMap<u64, Arc<ShadowModel>>,
    orphan_bytes_reclaimed: usize,
}

/// Owns the daemon's heartbeat lease and restart protocol.
pub struct DaemonSupervisor {
    clock: SharedClock,
    schedule: CrashSchedule,
    policy: SupervisorPolicy,
    daemon: Arc<LakeDaemon>,
    shm: ShmRegion,
    /// The call engine's private staging region, when it stages bulk
    /// payloads: its buffers are request-owned like lakeShm's, so the
    /// same restart and idle sweeps collect the ones a dead call disowned.
    staging: Option<ShmRegion>,
    pool: Arc<DevicePool>,
    /// Shared with linked-mode serve threads (which stamp response
    /// frames) without handing them the whole supervisor — the restart
    /// hook below may own a transport endpoint, and a serve thread
    /// keeping that alive would keep itself alive too.
    epoch: Arc<AtomicU64>,
    state: Mutex<SupState>,
    /// Invoked after each restart's replay completes — transports hang
    /// teardown/re-creation here (e.g. draining a shm ring the dead
    /// incarnation may have left half-written).
    on_restart: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    crashes_detected: AtomicU64,
    restarts: AtomicU64,
    models_replayed: AtomicU64,
    breaker_trips: AtomicU64,
    orphans_reclaimed: AtomicU64,
    idle_sweeps: AtomicU64,
    local_inferences: AtomicU64,
    local_rows: AtomicU64,
    local_packs: AtomicU64,
}

impl std::fmt::Debug for DaemonSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonSupervisor")
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl DaemonSupervisor {
    /// Creates a supervisor watching `daemon` under `schedule`.
    pub fn new(
        clock: SharedClock,
        schedule: CrashSchedule,
        policy: SupervisorPolicy,
        daemon: Arc<LakeDaemon>,
        shm: ShmRegion,
        staging: Option<ShmRegion>,
        pool: Arc<DevicePool>,
    ) -> Arc<Self> {
        Arc::new(DaemonSupervisor {
            clock,
            schedule,
            policy,
            daemon,
            shm,
            staging,
            pool,
            epoch: Arc::new(AtomicU64::new(0)),
            on_restart: Mutex::new(None),
            state: Mutex::new(SupState {
                handled: Instant::EPOCH,
                recent: Vec::new(),
                breaker_until: None,
                shadow_models: BTreeMap::new(),
                orphan_bytes_reclaimed: 0,
            }),
            crashes_detected: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            models_replayed: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            orphans_reclaimed: AtomicU64::new(0),
            idle_sweeps: AtomicU64::new(0),
            local_inferences: AtomicU64::new(0),
            local_rows: AtomicU64::new(0),
            local_packs: AtomicU64::new(0),
        })
    }

    /// The active policy.
    pub fn policy(&self) -> SupervisorPolicy {
        self.policy
    }

    /// The live incarnation-epoch counter. A linked daemon serve loop
    /// reads this through `serve_executor` so every response frame is
    /// stamped with the epoch that actually produced it. Returned as an
    /// owned handle so the serve thread does not keep the supervisor
    /// (and its restart hook's transport endpoint) alive.
    pub fn epoch_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Installs a hook invoked at the tail of every supervised restart,
    /// after the daemon reset and shadow replay. The ring transport uses
    /// it to drain and re-create its shm ring under the new incarnation.
    pub fn set_on_restart(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.on_restart.lock() = Some(Box::new(hook));
    }

    /// Records a loaded model version in the shadow registration table;
    /// replayed under the same id *and version* into every new
    /// incarnation. The blob is the one recorded here — refresh it (the
    /// train/swap responses carry the new version and weights) whenever
    /// daemon-side state moves forward. Replacing an entry drops its
    /// packed copy, so local reads see the new version from here on.
    ///
    /// While the daemon's store still holds exactly `(id, version)`, the
    /// entry takes the store's blob by reference and `blob` is not
    /// copied; once the store has moved on (a later swap, a crash), the
    /// entry keeps a copy of `blob`, as the only one left.
    pub fn record_model(&self, id: u64, version: u64, blob: &[u8]) {
        let blob = match self.daemon.model_blob(id, version) {
            Some(shared) => {
                debug_assert!(shared[..] == *blob, "store and shadow disagree on v{version}");
                shared
            }
            None => Arc::new(blob.to_vec()),
        };
        let entry = ShadowModel { version, blob, local: OnceLock::new() };
        self.state.lock().shadow_models.insert(id, Arc::new(entry));
    }

    /// Drops a model and its packed copy from the shadow table (paired
    /// with `unload_model`).
    pub fn forget_model(&self, id: u64) {
        self.state.lock().shadow_models.remove(&id);
    }

    /// Classifies `rows` × `cols` features with the shadowed MLP `id` in
    /// the caller's thread, charging the virtual clock what the daemon's
    /// CPU path charges for the same rows. The packed copy is built from
    /// the shadowed blob on first use, with the daemon's microkernel, so
    /// answers are bit-identical to the offloaded ones.
    ///
    /// Returns `None` — leaving the call to the daemon, errors included —
    /// when nothing here can answer it exactly: no shadow entry, a model
    /// that is not an f32/int8 MLP, zero rows, or a `cols` other than the
    /// model's input width.
    ///
    /// # Panics
    ///
    /// Panics if `features` is shorter than `rows * cols`.
    pub fn classify_local(
        &self,
        id: u64,
        rows: usize,
        cols: usize,
        features: &[f32],
    ) -> Option<Vec<usize>> {
        if rows == 0 {
            return None;
        }
        let entry = Arc::clone(self.state.lock().shadow_models.get(&id)?);
        let model = entry
            .local
            .get_or_init(|| {
                let packed = LocalMlp::pack(&entry.blob[..]);
                if packed.is_some() {
                    self.local_packs.fetch_add(1, Ordering::Relaxed);
                }
                packed
            })
            .as_ref()?;
        if cols != model.input_size() {
            return None;
        }
        let classes = model.classify(features, rows, cols, self.daemon.simd_kernel());
        let flops = model.flops_per_input * rows as f64;
        self.clock.advance(CpuCostModel::default().time_for_flops(flops));
        self.local_inferences.fetch_add(1, Ordering::Relaxed);
        self.local_rows.fetch_add(rows as u64, Ordering::Relaxed);
        Some(classes)
    }

    /// Counters of the kernel-side inference path.
    pub fn local_stats(&self) -> LocalStats {
        LocalStats {
            inferences: self.local_inferences.load(Ordering::Relaxed),
            rows: self.local_rows.load(Ordering::Relaxed),
            packs: self.local_packs.load(Ordering::Relaxed),
        }
    }

    /// Models currently shadowed for replay.
    pub fn shadowed_models(&self) -> usize {
        self.state.lock().shadow_models.len()
    }

    /// How long the daemon has been sitting on an unhandled crash: the
    /// age (at `now`) of the earliest scheduled crash that has struck but
    /// not yet been restarted past. `None` while the daemon is up.
    ///
    /// This *peeks* — unlike `ensure_up` it performs no restart and
    /// charges no virtual time — so a router can ask "is this shard down
    /// right now, and for how long?" and divert idempotent traffic to a
    /// sibling instead of paying the restart on the caller's clock.
    pub fn pending_crash_age(&self, now: Instant) -> Option<Duration> {
        let st = self.state.lock();
        self.schedule.first_crash_in(st.handled, now).map(|crash| now.duration_since(crash))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SupervisorStats {
        SupervisorStats {
            epoch: self.epoch.load(Ordering::Acquire),
            crashes_detected: self.crashes_detected.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            models_replayed: self.models_replayed.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            orphans_reclaimed: self.orphans_reclaimed.load(Ordering::Relaxed),
            orphan_bytes_reclaimed: self.state.lock().orphan_bytes_reclaimed,
            idle_sweeps: self.idle_sweeps.load(Ordering::Relaxed),
        }
    }

    /// Idle-time orphan sweep: collects staging buffers the kernel side
    /// has already disowned (marked orphaned when their request died with
    /// a past incarnation) without waiting for the *next* restart. Safe
    /// whenever the caller knows the disowning side has quiesced — the
    /// async harvest path calls it right after unstaging a
    /// `DaemonRestarted` ticket, at which point the supervised restart
    /// that killed the ticket has already completed. Counts into the same
    /// reclamation totals as restart sweeps.
    pub fn sweep_idle_orphans(&self) {
        let report = self.reclaim_orphans();
        if report.reclaimed_allocs > 0 {
            self.orphans_reclaimed.fetch_add(report.reclaimed_allocs, Ordering::Relaxed);
            self.state.lock().orphan_bytes_reclaimed += report.reclaimed_bytes;
            self.idle_sweeps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Frees every explicitly disowned buffer in lakeShm and the staging
    /// region.
    fn reclaim_orphans(&self) -> ReclaimReport {
        let mut total = self.shm.reclaim_orphans();
        if let Some(staging) = &self.staging {
            let report = staging.reclaim_orphans();
            total.reclaimed_allocs += report.reclaimed_allocs;
            total.reclaimed_bytes += report.reclaimed_bytes;
        }
        total
    }

    /// One supervised restart: charge detection + backoff + restart
    /// time, bump the epoch, sweep explicitly disowned shm orphans, and
    /// replay the shadow registration table.
    fn restart(&self, st: &mut SupState) {
        // Lease expiry: the crash is only noticed once the heartbeat
        // lease runs out.
        self.clock.advance(self.policy.lease_timeout);

        // Exponential backoff within the storm window.
        let now = self.clock.now();
        let window = self.policy.storm_window;
        st.recent.retain(|&t| now.duration_since(t) <= window);
        let mut backoff = self.policy.initial_backoff;
        for _ in 0..st.recent.len() {
            backoff = (backoff + backoff).min(self.policy.max_backoff);
        }
        self.clock.advance(backoff + self.policy.restart_cost);

        let new_epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;

        // Reattach lakeShm under the new incarnation and sweep the
        // buffers the kernel side explicitly disowned. Epoch-old but
        // unmarked allocations are spared: the engine may still replay
        // in-flight idempotent commands whose payloads reference buffers
        // staged before the crash — even across a multi-restart storm.
        self.shm.set_epoch(new_epoch);
        if let Some(staging) = &self.staging {
            staging.set_epoch(new_epoch);
        }
        let report = self.reclaim_orphans();
        self.orphans_reclaimed.fetch_add(report.reclaimed_allocs, Ordering::Relaxed);
        st.orphan_bytes_reclaimed += report.reclaimed_bytes;

        // The old process's in-memory state died with it.
        self.daemon.crash_reset(new_epoch);

        // Replay the shadow registration table: models under their
        // original ids and versions, each blob handed back to the store
        // rather than copied.
        for (&id, model) in &st.shadow_models {
            if self.daemon.restore_model(id, model.version, Arc::clone(&model.blob)).is_ok() {
                self.models_replayed.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Transport teardown/re-creation rides the same restart: a shm
        // ring the dead incarnation was mid-write into must be drained
        // before the new incarnation touches it.
        if let Some(hook) = self.on_restart.lock().as_ref() {
            hook();
        }

        st.recent.push(self.clock.now());
        self.restarts.fetch_add(1, Ordering::Relaxed);

        // Restart storm? Latch the pool onto the CPU path for a cooldown.
        if st.recent.len() >= self.policy.storm_threshold && st.breaker_until.is_none() {
            self.pool.set_forced_fallback(true);
            st.breaker_until = Some(self.clock.now() + self.policy.breaker_cooldown);
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl DaemonLifecycle for DaemonSupervisor {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn ensure_up(&self) -> u64 {
        let mut st = self.state.lock();
        // Each unhandled crash instant costs one supervised restart. The
        // restart itself advances virtual time, which may run the clock
        // into the *next* scheduled crash — the loop handles that too
        // (that is exactly a restart storm).
        loop {
            let now = self.clock.now();
            let Some(crash) = self.schedule.first_crash_in(st.handled, now) else { break };
            st.handled = crash;
            self.crashes_detected.fetch_add(1, Ordering::Relaxed);
            self.restart(&mut st);
        }
        // Release the breaker once its cooldown has passed.
        if let Some(until) = st.breaker_until {
            if self.clock.now() >= until {
                st.breaker_until = None;
                self.pool.set_forced_fallback(false);
            }
        }
        self.epoch.load(Ordering::Acquire)
    }

    fn crashed_between(&self, start: Instant, end: Instant) -> bool {
        let st = self.state.lock();
        // Only crashes nobody has restarted past yet invalidate the
        // in-flight request.
        let after = if st.handled > start { st.handled } else { start };
        self.schedule.first_crash_in(after, end).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lake;
    use lake_ml::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Whether the shadow entry for `id` and the daemon store's current
    /// blob are one allocation.
    fn one_blob(lake: &Lake, id: u64) -> bool {
        let shadow = Arc::clone(&lake.supervisor().state.lock().shadow_models[&id].blob);
        let daemon = lake.daemon();
        let version = daemon.model_version(id).expect("installed");
        let stored = daemon.model_blob(id, version).expect("current blob");
        Arc::ptr_eq(&shadow, &stored)
    }

    #[test]
    fn store_and_shadow_share_one_blob_through_load_swap_and_replay() {
        let crash = Instant::EPOCH + Duration::from_millis(5);
        let lake = Lake::builder().crash_schedule(CrashSchedule::at(vec![crash])).build();
        let ml = lake.ml();
        let net = |seed| Mlp::new(&[4, 8, 2], Activation::Relu, &mut StdRng::seed_from_u64(seed));
        let id = ml.load_model(&serialize::encode_mlp(&net(1))).unwrap();
        assert!(one_blob(&lake, id.0), "after load_model");

        assert_eq!(ml.swap_model(id, &serialize::encode_mlp(&net(2))).unwrap(), 2);
        assert!(one_blob(&lake, id.0), "after swap_model");

        lake.clock().advance_to(crash + Duration::from_micros(1));
        lake.supervisor().ensure_up();
        let sup = lake.supervisor().stats();
        assert_eq!((sup.restarts, sup.models_replayed), (1, 1));
        assert_eq!(lake.daemon().model_version(id.0), Some(2));
        assert!(one_blob(&lake, id.0), "after the restart's replay");

        // A version the store has moved past is copied, not shared.
        lake.supervisor().record_model(id.0, 1, &serialize::encode_mlp(&net(1)));
        assert!(!one_blob(&lake, id.0));
    }
}
