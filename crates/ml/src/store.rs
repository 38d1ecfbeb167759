//! Paged model store: a budgeted, shm-backed weight cache.
//!
//! The paper's lakeD keeps every registered model resident forever; at
//! hundreds of models × shards with online learning continuously minting
//! new versions, that OOMs. This module is the page-cache-style answer
//! (ROADMAP open item 2): weight blobs live in page-granular allocations
//! carved from a dedicated [`ShmRegion`] under a hard byte budget, with
//!
//! * **clock (second-chance) eviction** — unpinned residents are evicted
//!   in reference order when a fault needs room;
//! * **refcounted pinning** — [`ModelStore::acquire`] returns a
//!   [`ModelPin`] guard; pinned weights are never evicted, so in-flight
//!   inference (including queued batcher tickets) cannot lose its model
//!   mid-call;
//! * **versioned hot-swap** — [`ModelStore::install`] retires the old
//!   version in place: new requests see `v+1` immediately while pins on
//!   `v` keep its page alive until the last one drops;
//! * **cold-miss faulting** — a non-resident acquire reloads the blob
//!   through a simulated NVMe ([`NvmeDevice`]) and charges the reload
//!   latency to the shared virtual clock, so profitability policies see
//!   real miss costs;
//! * **crash-safe reset** — [`ModelStore::crash_reset`] bumps the page
//!   region's incarnation epoch and sweeps every dead-version page with
//!   `reclaim_before`, converging the region back to a coalesced free
//!   list; stale pin guards from the dead incarnation become no-ops;
//! * **one release hook** — [`ModelStore::set_release_hook`] hears every
//!   `(id, version)` whose page is freed (eviction, retire, last unpin of
//!   a retired version, removal), so state derived from a resident, such
//!   as a packed copy of its weights, leaves with its page.
//!
//! The byte budget is a hard ceiling: `resident_bytes <= budget` is
//! asserted after every mutation, not sampled. An eviction storm
//! ([`PressurePlan`]) can tighten the *effective* budget inside
//! virtual-time windows without ever raising the ceiling.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use lake_block::{NvmeDevice, NvmeSpec};
use lake_shm::{ShmBuffer, ShmRegion};
use lake_sim::{PressurePlan, SharedClock, SimRng};

/// Page granularity for weight blobs: blobs round up to whole pages so
/// eviction returns clean, coalescible spans to the region.
pub const MODEL_PAGE_SIZE: usize = 4096;

/// Cold-miss latencies kept for [`ModelStore::fault_latencies_us`]: the
/// most recent this many, so a long-lived store's memory does not grow
/// with its miss count.
const FAULT_LATENCY_WINDOW: usize = 4096;

/// Errors returned by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// No model with this id is installed.
    UnknownModel {
        /// The id looked up.
        id: u64,
    },
    /// The budget cannot fit the blob even after evicting every unpinned
    /// resident — either the blob alone exceeds the budget or pinned
    /// weights hold the rest.
    BudgetExhausted {
        /// The id being faulted in.
        id: u64,
        /// Page bytes the fault needs.
        need: usize,
        /// The hard budget in force.
        budget: usize,
        /// Bytes currently held by pinned (unevictable) residents.
        pinned: usize,
    },
    /// The blob failed to decode into a model.
    Decode {
        /// The id whose blob was undecodable.
        id: u64,
    },
    /// An install carried a version at or below the installed one; the
    /// store only moves forward (hot-swap is `v → v+1`).
    StaleVersion {
        /// The id being installed.
        id: u64,
        /// The version offered.
        offered: u64,
        /// The version already installed.
        installed: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownModel { id } => write!(f, "unknown model {id}"),
            StoreError::BudgetExhausted { id, need, budget, pinned } => write!(
                f,
                "model store budget exhausted faulting model {id}: need {need} bytes, \
                 budget {budget}, {pinned} pinned"
            ),
            StoreError::Decode { id } => write!(f, "model {id} blob failed to decode"),
            StoreError::StaleVersion { id, offered, installed } => write!(
                f,
                "stale install for model {id}: offered v{offered}, installed v{installed}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Counter snapshot for [`Lake::perf_report`]-style reporting.
///
/// [`Lake::perf_report`]: https://docs.rs/lake-core
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Hard byte budget (`usize::MAX` means unbounded).
    pub budget_bytes: usize,
    /// Bytes currently resident in pages.
    pub resident_bytes: usize,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: usize,
    /// Bytes currently held by pinned residents (including retired
    /// versions still finishing in-flight work).
    pub pinned_bytes: usize,
    /// Acquires served from a resident page.
    pub hits: u64,
    /// Acquires that faulted the blob back in through the NVMe.
    pub misses: u64,
    /// Unpinned residents evicted to make room.
    pub evictions: u64,
    /// Versions installed (loads, trains, hot-swaps, restores).
    pub installs: u64,
    /// Blob decodes: one per install (the decoded model is handed through
    /// to the resident page) plus one per cold-miss fault.
    pub decodes: u64,
    /// Old versions retired by a hot-swap.
    pub swaps_retired: u64,
    /// Crash resets ([`ModelStore::crash_reset`]).
    pub resets: u64,
    /// Dead-version pages reclaimed by crash resets.
    pub pages_reclaimed: u64,
    /// Total virtual time charged to cold-miss faults, nanoseconds.
    pub fault_ns_total: u64,
}

impl StoreStats {
    /// Hit fraction over all acquires, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

struct Resident<T> {
    page: ShmBuffer,
    model: Arc<T>,
    pins: u32,
    referenced: bool,
}

struct Slot<T> {
    version: u64,
    blob: Arc<Vec<u8>>,
    resident: Option<Resident<T>>,
}

/// An old version still pinned by in-flight work after a hot-swap (or
/// unload); its page is freed when the last pin drops.
struct Retired<T> {
    id: u64,
    version: u64,
    page: ShmBuffer,
    pins: u32,
    _model: Arc<T>,
}

struct State<T> {
    device: NvmeDevice,
    slots: HashMap<u64, Slot<T>>,
    retired: Vec<Retired<T>>,
    /// Clock-order ring of ids that may be resident; lazily pruned.
    ring: Vec<u64>,
    hand: usize,
    resident_bytes: usize,
    pressure: Option<PressurePlan>,
    /// Incarnation serial; pin guards from older serials no-op on drop.
    serial: u64,
}

type DecodeFn<T> = dyn Fn(&[u8]) -> Option<T> + Send + Sync;
type ReleaseFn = dyn Fn(u64, u64) + Send + Sync;

struct Shared<T> {
    clock: SharedClock,
    pages: ShmRegion,
    budget: Option<usize>,
    decode: Box<DecodeFn<T>>,
    /// Told `(id, version)` each time a resident's page is freed, with
    /// the store lock held.
    release: OnceLock<Box<ReleaseFn>>,
    state: Mutex<State<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    installs: AtomicU64,
    decodes: AtomicU64,
    swaps_retired: AtomicU64,
    resets: AtomicU64,
    pages_reclaimed: AtomicU64,
    fault_ns: AtomicU64,
    peak_resident: AtomicUsize,
    fault_lat_us: Mutex<VecDeque<f64>>,
}

/// A refcounted pin on one installed model version.
///
/// While the guard lives, the pinned version's page cannot be evicted and
/// a hot-swap to a newer version retires (rather than frees) it. Dropping
/// the last pin on a retired version returns its page to the region.
pub struct ModelPin<T> {
    shared: Arc<Shared<T>>,
    id: u64,
    version: u64,
    serial: u64,
    model: Arc<T>,
}

impl<T> ModelPin<T> {
    /// The pinned model id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The pinned version — what the engine cache keys packed weights by.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The pinned model, shareable across threads for the call's duration.
    pub fn model(&self) -> Arc<T> {
        Arc::clone(&self.model)
    }
}

impl<T> Deref for ModelPin<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.model
    }
}

impl<T> fmt::Debug for ModelPin<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelPin").field("id", &self.id).field("version", &self.version).finish()
    }
}

impl<T> Shared<T> {
    /// Frees a resident's page, takes its bytes off `resident_bytes`, and
    /// tells the release hook.
    fn free_page(&self, resident_bytes: &mut usize, id: u64, version: u64, page: ShmBuffer) {
        *resident_bytes -= page.len();
        let _ = self.pages.free(page);
        if let Some(hook) = self.release.get() {
            hook(id, version);
        }
    }
}

impl<T> Drop for ModelPin<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("store poisoned");
        if st.serial != self.serial {
            // The incarnation this pin belonged to crashed; its pages were
            // already swept.
            return;
        }
        if let Some(slot) = st.slots.get_mut(&self.id) {
            if slot.version == self.version {
                if let Some(res) = slot.resident.as_mut() {
                    res.pins = res.pins.saturating_sub(1);
                }
                return;
            }
        }
        // A retired version: free the page on the last unpin.
        if let Some(idx) =
            st.retired.iter().position(|r| r.id == self.id && r.version == self.version)
        {
            st.retired[idx].pins = st.retired[idx].pins.saturating_sub(1);
            if st.retired[idx].pins == 0 {
                let dead = st.retired.swap_remove(idx);
                self.shared.free_page(&mut st.resident_bytes, dead.id, dead.version, dead.page);
            }
        }
    }
}

/// The paged model store. Clones share state (daemon + supervisor views).
pub struct ModelStore<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for ModelStore<T> {
    fn clone(&self) -> Self {
        ModelStore { shared: Arc::clone(&self.shared) }
    }
}

impl<T> fmt::Debug for ModelStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.shared.state.lock().expect("store poisoned");
        f.debug_struct("ModelStore")
            .field("budget", &self.shared.budget)
            .field("resident_bytes", &st.resident_bytes)
            .field("models", &st.slots.len())
            .finish()
    }
}

impl<T: Send + Sync + 'static> ModelStore<T> {
    /// A store over a dedicated page region.
    ///
    /// `budget_bytes: None` is unbounded (every model stays resident —
    /// the paper's original behaviour). The NVMe behind cold misses is
    /// the testbed's Samsung 980 Pro with a deterministic RNG stream.
    pub fn new(
        clock: SharedClock,
        pages: ShmRegion,
        budget_bytes: Option<usize>,
        decode: impl Fn(&[u8]) -> Option<T> + Send + Sync + 'static,
    ) -> Self {
        let device = NvmeDevice::new(NvmeSpec::samsung_980pro(), SimRng::seed(0x1a4e));
        ModelStore {
            shared: Arc::new(Shared {
                clock,
                pages,
                budget: budget_bytes,
                decode: Box::new(decode),
                release: OnceLock::new(),
                state: Mutex::new(State {
                    device,
                    slots: HashMap::new(),
                    retired: Vec::new(),
                    ring: Vec::new(),
                    hand: 0,
                    resident_bytes: 0,
                    pressure: None,
                    serial: 0,
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                installs: AtomicU64::new(0),
                decodes: AtomicU64::new(0),
                swaps_retired: AtomicU64::new(0),
                resets: AtomicU64::new(0),
                pages_reclaimed: AtomicU64::new(0),
                fault_ns: AtomicU64::new(0),
                peak_resident: AtomicUsize::new(0),
                fault_lat_us: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Installs the hook told `(id, version)` whenever that version's
    /// resident page is freed: on clock eviction, on an install that
    /// replaces an unpinned resident, on the last unpin of a retired
    /// version, and on [`ModelStore::remove`] of an unpinned one. A
    /// version's page is gone for good once the hook has heard it, so
    /// anything derived from the resident can go too. [`crash_reset`]
    /// drops every page at once and does not call it.
    ///
    /// The hook runs with the store's lock held: it must not call back
    /// into the store, and a lock it takes must never be held by a
    /// thread that then waits for the store.
    ///
    /// [`crash_reset`]: ModelStore::crash_reset
    ///
    /// # Panics
    ///
    /// Panics if a hook is already installed.
    pub fn set_release_hook(&self, hook: impl Fn(u64, u64) + Send + Sync + 'static) {
        assert!(self.shared.release.set(Box::new(hook)).is_ok(), "release hook already installed");
    }

    /// The hard byte budget, if bounded.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.shared.budget
    }

    /// Applies an eviction-storm plan: inside storm windows the effective
    /// budget tightens to `budget / divisor` (never exceeding the hard
    /// ceiling outside them).
    pub fn set_pressure(&self, plan: Option<PressurePlan>) {
        self.state().pressure = plan;
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.shared.state.lock().expect("store poisoned")
    }

    fn page_len(blob_len: usize) -> usize {
        blob_len.max(1).div_ceil(MODEL_PAGE_SIZE) * MODEL_PAGE_SIZE
    }

    fn effective_budget(&self, st: &State<T>) -> Option<usize> {
        let budget = self.shared.budget?;
        Some(match st.pressure {
            Some(plan) => plan.effective_budget(budget, self.shared.clock.now()),
            None => budget,
        })
    }

    /// The hard ceiling: `resident_bytes <= budget` after every mutation.
    fn assert_budget(&self, st: &State<T>) {
        if let Some(budget) = self.shared.budget {
            assert!(
                st.resident_bytes <= budget,
                "model store over budget: {} resident > {budget}",
                st.resident_bytes
            );
        }
    }

    fn note_peak(&self, resident: usize) {
        self.shared.peak_resident.fetch_max(resident, Ordering::Relaxed);
    }

    /// Second-chance eviction until `need` more bytes fit under the
    /// effective budget. Pinned residents are never touched.
    fn make_room(&self, st: &mut State<T>, id: u64, need: usize) -> Result<(), StoreError> {
        let Some(effective) = self.effective_budget(st) else {
            return Ok(());
        };
        let hard = self.shared.budget.expect("effective implies hard");
        while st.resident_bytes + need > effective {
            if st.ring.is_empty() {
                // Nothing evictable at all (empty store, or every
                // remaining byte is held by retired-but-pinned pages).
                let pinned = pinned_bytes(st);
                return Err(StoreError::BudgetExhausted { id, need, budget: hard, pinned });
            }
            // One full referenced-bit sweep plus one eviction sweep, at
            // most: 2 × ring length steps before we conclude nothing is
            // evictable.
            let mut evicted = false;
            let mut steps = 0;
            let max_steps = st.ring.len() * 2;
            while steps < max_steps && !st.ring.is_empty() {
                if st.hand >= st.ring.len() {
                    st.hand = 0;
                }
                let cand = st.ring[st.hand];
                let prune = match st.slots.get_mut(&cand) {
                    Some(slot) => match slot.resident.as_mut() {
                        Some(res) if res.pins > 0 => {
                            st.hand += 1;
                            false
                        }
                        Some(res) if res.referenced => {
                            res.referenced = false;
                            st.hand += 1;
                            false
                        }
                        Some(_) => {
                            let res = slot.resident.take().expect("checked resident");
                            let version = slot.version;
                            self.shared.free_page(&mut st.resident_bytes, cand, version, res.page);
                            self.shared.evictions.fetch_add(1, Ordering::Relaxed);
                            evicted = true;
                            true
                        }
                        None => true,
                    },
                    None => true,
                };
                if prune {
                    st.ring.remove(st.hand);
                    if evicted {
                        break;
                    }
                }
                steps += 1;
            }
            if !evicted {
                let pinned: usize = pinned_bytes(st);
                return Err(StoreError::BudgetExhausted { id, need, budget: hard, pinned });
            }
        }
        Ok(())
    }

    fn fault_in(&self, st: &mut State<T>, id: u64) -> Result<(), StoreError> {
        let (blob, _version) = {
            let slot = st.slots.get(&id).ok_or(StoreError::UnknownModel { id })?;
            (Arc::clone(&slot.blob), slot.version)
        };
        let need = Self::page_len(blob.len());
        self.make_room(st, id, need)?;
        // Charge the reload through the simulated NVMe in virtual time:
        // the profitability policy must see real miss costs.
        let now = self.shared.clock.now();
        let latency = st.device.read_latency(now, blob.len().max(1));
        self.shared.clock.advance(latency);
        self.shared.fault_ns.fetch_add(latency.as_nanos(), Ordering::Relaxed);
        {
            let mut window = self.shared.fault_lat_us.lock().expect("store poisoned");
            if window.len() == FAULT_LATENCY_WINDOW {
                window.pop_front();
            }
            window.push_back(latency.as_nanos() as f64 / 1_000.0);
        }
        let model = self.decode(&blob).ok_or(StoreError::Decode { id })?;
        self.install_resident(st, id, &blob, model)
    }

    /// Decodes `blob` with the store's decoder, counted in
    /// [`StoreStats::decodes`]. Callers that need the decoded model before
    /// installing (to validate it, to size its device footprint) decode
    /// here and pass the result to [`ModelStore::install_decoded`], so the
    /// blob is parsed once per write.
    pub fn decode(&self, blob: &[u8]) -> Option<T> {
        self.shared.decodes.fetch_add(1, Ordering::Relaxed);
        (self.shared.decode)(blob)
    }

    /// Copies the blob into a fresh page holding `model`, its decoded
    /// form. Any NVMe charge has already happened in `fault_in`.
    fn install_resident(
        &self,
        st: &mut State<T>,
        id: u64,
        blob: &[u8],
        model: T,
    ) -> Result<(), StoreError> {
        let page = match self.shared.pages.alloc_owned_paged(blob.len(), MODEL_PAGE_SIZE, id) {
            Ok(page) => page,
            Err(_) => {
                // The region itself is fragmented or undersized even
                // though the budget has room; surface as exhaustion.
                let pinned = pinned_bytes(st);
                return Err(StoreError::BudgetExhausted {
                    id,
                    need: Self::page_len(blob.len()),
                    budget: self.shared.budget.unwrap_or(usize::MAX),
                    pinned,
                });
            }
        };
        self.shared.pages.write(&page, 0, blob).expect("fresh page fits blob");
        let slot = st.slots.get_mut(&id).expect("slot exists during install");
        debug_assert!(slot.resident.is_none(), "installing over a resident slot");
        st.resident_bytes += page.len();
        slot.resident = Some(Resident { page, model: Arc::new(model), pins: 0, referenced: true });
        if !st.ring.contains(&id) {
            st.ring.push(id);
        }
        self.note_peak(st.resident_bytes);
        self.assert_budget(st);
        Ok(())
    }

    /// Installs `version` of model `id` from `blob`, retiring any older
    /// version in place: new acquires see the new version immediately,
    /// in-flight pins on the old one finish on its page.
    ///
    /// The new version is made resident eagerly when the budget allows
    /// (the blob just arrived from user space — no NVMe charge); if
    /// pinned old-version pages hold the budget, it is installed
    /// non-resident and the first acquire faults it in.
    ///
    /// # Errors
    ///
    /// [`StoreError::StaleVersion`] if `version` does not advance the
    /// installed one; [`StoreError::Decode`] if the blob is undecodable.
    pub fn install(&self, id: u64, version: u64, blob: &[u8]) -> Result<(), StoreError> {
        // Validate before mutating anything.
        let model = self.decode(blob).ok_or(StoreError::Decode { id })?;
        self.install_decoded(id, version, Arc::new(blob.to_vec()), model)
    }

    /// [`ModelStore::install`] for a caller that already holds `model`,
    /// the decoded form of `blob` (from [`ModelStore::decode`]): the
    /// store neither re-validates nor re-decodes. The store keeps `blob`
    /// itself, not a copy, so a caller that shares it (the kernel-side
    /// shadow replaying a restart) holds the same bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::StaleVersion`] if `version` does not advance the
    /// installed one.
    pub fn install_decoded(
        &self,
        id: u64,
        version: u64,
        blob: Arc<Vec<u8>>,
        model: T,
    ) -> Result<(), StoreError> {
        let mut st = self.state();
        let st = &mut *st;
        if let Some(slot) = st.slots.get_mut(&id) {
            if version <= slot.version {
                return Err(StoreError::StaleVersion {
                    id,
                    offered: version,
                    installed: slot.version,
                });
            }
            if let Some(res) = slot.resident.take() {
                if res.pins > 0 {
                    // In-flight work finishes on the old version.
                    st.retired.push(Retired {
                        id,
                        version: slot.version,
                        page: res.page,
                        pins: res.pins,
                        _model: res.model,
                    });
                } else {
                    self.shared.free_page(&mut st.resident_bytes, id, slot.version, res.page);
                }
                self.shared.swaps_retired.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.slots.insert(id, Slot { version, blob: Arc::clone(&blob), resident: None });
        self.shared.installs.fetch_add(1, Ordering::Relaxed);
        // Eager residency when the budget allows; otherwise lazy fault-in.
        if self.make_room(st, id, Self::page_len(blob.len())).is_ok() {
            let _ = self.install_resident(st, id, &blob, model);
        }
        self.assert_budget(st);
        Ok(())
    }

    /// Pins the current version of model `id` for the duration of a call.
    ///
    /// A resident hit bumps the reference bit; a miss evicts under the
    /// budget, charges the NVMe reload in virtual time, and decodes the
    /// blob back into a resident page.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownModel`] for missing ids,
    /// [`StoreError::BudgetExhausted`] when pinned weights hold the whole
    /// budget.
    pub fn acquire(&self, id: u64) -> Result<ModelPin<T>, StoreError> {
        let mut st = self.state();
        let st = &mut *st;
        if !st.slots.contains_key(&id) {
            return Err(StoreError::UnknownModel { id });
        }
        // An active eviction storm trims residency down to the tightened
        // effective budget before this acquire is served (best effort —
        // pinned pages stay).
        if st.pressure.is_some() {
            let _ = self.make_room(st, id, 0);
        }
        let resident = st.slots.get(&id).expect("checked").resident.is_some();
        if resident {
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shared.misses.fetch_add(1, Ordering::Relaxed);
            self.fault_in(st, id)?;
        }
        let slot = st.slots.get_mut(&id).expect("resident after fault");
        let res = slot.resident.as_mut().expect("resident after fault");
        res.pins += 1;
        res.referenced = true;
        let pin = ModelPin {
            shared: Arc::clone(&self.shared),
            id,
            version: slot.version,
            serial: st.serial,
            model: Arc::clone(&res.model),
        };
        self.assert_budget(st);
        Ok(pin)
    }

    /// The installed version of `id`, if any.
    pub fn version_of(&self, id: u64) -> Option<u64> {
        self.state().slots.get(&id).map(|s| s.version)
    }

    /// Whether `id`'s current version is resident right now.
    pub fn is_resident(&self, id: u64) -> bool {
        self.state().slots.get(&id).is_some_and(|s| s.resident.is_some())
    }

    /// The current blob for `id` (what an export returns).
    pub fn blob_of(&self, id: u64) -> Option<Arc<Vec<u8>>> {
        self.state().slots.get(&id).map(|s| Arc::clone(&s.blob))
    }

    /// The blob of exactly `version` of `id`: `None` once a newer version
    /// has been installed (or the model was removed).
    pub fn blob_at(&self, id: u64, version: u64) -> Option<Arc<Vec<u8>>> {
        let st = self.state();
        st.slots.get(&id).filter(|s| s.version == version).map(|s| Arc::clone(&s.blob))
    }

    /// Installed model ids, sorted.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.state().slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Uninstalls `id`. A pinned resident is retired (page freed on the
    /// last unpin); an unpinned one is freed immediately.
    pub fn remove(&self, id: u64) {
        let mut st = self.state();
        let st = &mut *st;
        if let Some(mut slot) = st.slots.remove(&id) {
            if let Some(res) = slot.resident.take() {
                if res.pins > 0 {
                    st.retired.push(Retired {
                        id,
                        version: slot.version,
                        page: res.page,
                        pins: res.pins,
                        _model: res.model,
                    });
                } else {
                    self.shared.free_page(&mut st.resident_bytes, id, slot.version, res.page);
                }
            }
        }
        st.ring.retain(|&r| r != id);
        st.hand = 0;
        self.assert_budget(st);
    }

    /// Wipes all daemon-side state after a crash: every slot, resident
    /// page, and retired page of the dead incarnation is dropped, and the
    /// page region's epoch advances so the dead pages sweep back to the
    /// free list in one `reclaim_before` pass. Outstanding pins from the
    /// dead incarnation become no-ops.
    pub fn crash_reset(&self) {
        let mut st = self.state();
        let st = &mut *st;
        st.serial += 1;
        st.slots.clear();
        st.retired.clear();
        st.ring.clear();
        st.hand = 0;
        st.resident_bytes = 0;
        // All pages were owned allocations of the dead incarnation:
        // advance the epoch and reclaim everything tagged before it.
        let next_epoch = self.shared.pages.epoch() + 1;
        self.shared.pages.set_epoch(next_epoch);
        let report = self.shared.pages.reclaim_before(next_epoch);
        self.shared.pages_reclaimed.fetch_add(report.reclaimed_allocs, Ordering::Relaxed);
        self.shared.resets.fetch_add(1, Ordering::Relaxed);
        self.assert_budget(st);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let st = self.state();
        StoreStats {
            budget_bytes: self.shared.budget.unwrap_or(usize::MAX),
            resident_bytes: st.resident_bytes,
            peak_resident_bytes: self.shared.peak_resident.load(Ordering::Relaxed),
            pinned_bytes: pinned_bytes(&st),
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            evictions: self.shared.evictions.load(Ordering::Relaxed),
            installs: self.shared.installs.load(Ordering::Relaxed),
            decodes: self.shared.decodes.load(Ordering::Relaxed),
            swaps_retired: self.shared.swaps_retired.load(Ordering::Relaxed),
            resets: self.shared.resets.load(Ordering::Relaxed),
            pages_reclaimed: self.shared.pages_reclaimed.load(Ordering::Relaxed),
            fault_ns_total: self.shared.fault_ns.load(Ordering::Relaxed),
        }
    }

    /// The most recent cold-miss fault latencies (a fixed-size window),
    /// microseconds, oldest first.
    pub fn fault_latencies_us(&self) -> Vec<f64> {
        self.shared.fault_lat_us.lock().expect("store poisoned").iter().copied().collect()
    }
}

fn pinned_bytes<T>(st: &State<T>) -> usize {
    let live: usize = st
        .slots
        .values()
        .filter_map(|s| s.resident.as_ref())
        .filter(|r| r.pins > 0)
        .map(|r| r.page.len())
        .sum();
    let retired: usize = st.retired.iter().map(|r| r.page.len()).sum();
    live + retired
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_sim::{BurstSchedule, Duration};

    /// Test models decode from a blob of `[id byte; n]`; "weights" are the
    /// blob bytes themselves so bit-identity is trivial to check.
    fn store(budget: Option<usize>) -> (SharedClock, ModelStore<Vec<u8>>) {
        let clock = SharedClock::new();
        let pages = ShmRegion::with_capacity(1 << 20);
        let st = ModelStore::new(clock.clone(), pages, budget, |blob: &[u8]| {
            if blob.is_empty() {
                None
            } else {
                Some(blob.to_vec())
            }
        });
        (clock, st)
    }

    fn blob(tag: u8, len: usize) -> Vec<u8> {
        vec![tag; len]
    }

    #[test]
    fn unbounded_store_keeps_everything_resident() {
        let (_clock, st) = store(None);
        for id in 0..20u64 {
            st.install(id, 1, &blob(id as u8, 3000)).unwrap();
        }
        for id in 0..20u64 {
            assert!(st.is_resident(id));
            let pin = st.acquire(id).unwrap();
            assert_eq!(pin[0], id as u8);
        }
        let s = st.stats();
        assert_eq!(s.misses, 0, "no faults without a budget");
        assert_eq!(s.evictions, 0);
        assert_eq!(s.resident_bytes, 20 * 4096);
    }

    #[test]
    fn oversubscribed_store_stays_under_budget_at_all_times() {
        // 10× oversubscription: 40 single-page models, 4-page budget.
        let (_clock, st) = store(Some(4 * 4096));
        for id in 0..40u64 {
            st.install(id, 1, &blob(id as u8, 2048)).unwrap();
            assert!(st.stats().resident_bytes <= 4 * 4096);
        }
        // Churn through every model repeatedly; the store's internal
        // assert fires on any over-budget state, and answers stay
        // bit-identical to the installed blobs.
        for round in 0..5 {
            for id in 0..40u64 {
                let pin = st.acquire(id).unwrap();
                assert_eq!(pin[0], id as u8, "round {round}");
                assert!(st.stats().resident_bytes <= 4 * 4096);
            }
        }
        let s = st.stats();
        assert!(s.misses > 0, "oversubscription must fault");
        assert!(s.evictions > 0);
        assert!(s.fault_ns_total > 0, "faults charge virtual time");
        assert!(s.peak_resident_bytes <= 4 * 4096);
    }

    #[test]
    fn faults_charge_the_virtual_clock() {
        let (clock, st) = store(Some(4096));
        st.install(1, 1, &blob(1, 100)).unwrap();
        st.install(2, 1, &blob(2, 100)).unwrap();
        let before = clock.now();
        let _ = st.acquire(1).unwrap(); // faults 1 back in (2 evicted it)
        assert!(clock.now() > before, "cold miss must advance virtual time");
        assert_eq!(st.fault_latencies_us().len(), 1);
    }

    #[test]
    fn installs_decode_once_and_faults_once_more() {
        let (_clock, st) = store(Some(4096));
        st.install(1, 1, &blob(1, 100)).unwrap();
        assert_eq!(st.stats().decodes, 1, "validate and make resident from one decode");
        let model = st.decode(&blob(2, 100)).unwrap();
        let shared = Arc::new(blob(2, 100));
        st.install_decoded(2, 1, Arc::clone(&shared), model).unwrap();
        assert!(Arc::ptr_eq(&st.blob_of(2).unwrap(), &shared), "the store keeps the caller's blob");
        assert_eq!(st.stats().decodes, 2, "a pre-decoded install adds no decode of its own");
        assert_eq!(st.acquire(2).unwrap()[0], 2);
        assert_eq!(st.stats().decodes, 2, "resident hit");
        assert_eq!(st.acquire(1).unwrap()[0], 1);
        assert_eq!(st.stats().decodes, 3, "the refault of evicted model 1 decodes its blob");
        assert!(st.install(3, 1, &[]).is_err());
        assert!(st.version_of(3).is_none(), "an undecodable blob installs nothing");
    }

    #[test]
    fn fault_latency_history_is_a_bounded_window() {
        let (_clock, st) = store(Some(4096));
        st.install(1, 1, &blob(1, 100)).unwrap();
        st.install(2, 1, &blob(2, 100)).unwrap();
        let rounds = FAULT_LATENCY_WINDOW / 2 + 8;
        for _ in 0..rounds {
            // One page of budget: each acquire evicts the other model.
            drop(st.acquire(1).unwrap());
            drop(st.acquire(2).unwrap());
        }
        let s = st.stats();
        assert!(s.misses as usize > FAULT_LATENCY_WINDOW);
        let window = st.fault_latencies_us();
        assert_eq!(window.len(), FAULT_LATENCY_WINDOW);
        assert!(window.iter().all(|&us| us > 0.0));
    }

    #[test]
    fn pinned_models_are_never_evicted() {
        let (_clock, st) = store(Some(2 * 4096));
        st.install(1, 1, &blob(1, 100)).unwrap();
        st.install(2, 1, &blob(2, 100)).unwrap();
        let pin1 = st.acquire(1).unwrap();
        let pin2 = st.acquire(2).unwrap();
        // Budget full of pins: a third model cannot fault in.
        st.install(3, 1, &blob(3, 100)).unwrap();
        assert!(!st.is_resident(3), "install under pinned-full budget stays lazy");
        let err = st.acquire(3).unwrap_err();
        assert!(matches!(err, StoreError::BudgetExhausted { pinned, .. } if pinned == 2 * 4096));
        // Pins still read their weights.
        assert_eq!(pin1[0], 1);
        assert_eq!(pin2[0], 2);
        drop(pin1);
        drop(pin2);
        // Room now: the third model faults in.
        let pin3 = st.acquire(3).unwrap();
        assert_eq!(pin3[0], 3);
    }

    #[test]
    fn hot_swap_retires_pinned_version_until_last_unpin() {
        let (_clock, st) = store(Some(4 * 4096));
        st.install(7, 1, &blob(0xAA, 64)).unwrap();
        let old = st.acquire(7).unwrap();
        assert_eq!(old.version(), 1);
        st.install(7, 2, &blob(0xBB, 64)).unwrap();
        // New acquires see v2 immediately; the in-flight pin stays on v1.
        let new = st.acquire(7).unwrap();
        assert_eq!(new.version(), 2);
        assert_eq!(new[0], 0xBB);
        assert_eq!(old[0], 0xAA, "in-flight work finishes on the old weights");
        let before = st.stats();
        assert_eq!(before.swaps_retired, 1);
        assert!(before.pinned_bytes >= 2 * 4096, "both versions pinned");
        drop(old);
        let after = st.stats();
        assert_eq!(
            after.resident_bytes,
            before.resident_bytes - 4096,
            "last unpin frees the retired page"
        );
        drop(new);
    }

    #[test]
    fn release_hook_hears_every_freed_page_once() {
        let (_clock, st) = store(Some(2 * 4096));
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&heard);
        st.set_release_hook(move |id, version| log.lock().unwrap().push((id, version)));
        let take = || std::mem::take(&mut *heard.lock().unwrap());

        st.install(1, 1, &blob(1, 100)).unwrap();
        st.install(2, 1, &blob(2, 100)).unwrap();
        assert_eq!(take(), []);
        // Clock eviction: a third model needs a page.
        st.install(3, 1, &blob(3, 100)).unwrap();
        assert_eq!(take(), [(1, 1)]);
        // An install over an unpinned resident frees its page at once.
        st.install(2, 2, &blob(0x22, 100)).unwrap();
        assert_eq!(take(), [(2, 1)]);
        // A pinned version is retired; its last unpin frees the page.
        let pin = st.acquire(3).unwrap();
        st.install(3, 2, &blob(0x33, 100)).unwrap();
        assert_eq!(take(), [(2, 2)], "v2 of 3 evicted model 2 to make room");
        assert_eq!(pin.version(), 1);
        drop(pin);
        assert_eq!(take(), [(3, 1)]);
        // Removal of an unpinned resident.
        st.remove(3);
        assert_eq!(take(), [(3, 2)]);
        // A removed pinned resident is heard on its last unpin.
        let pin = st.acquire(2).unwrap();
        assert_eq!(take(), [], "a fault frees nothing while the budget has room");
        st.remove(2);
        assert_eq!(take(), []);
        drop(pin);
        assert_eq!(take(), [(2, 2)]);
        // A crash reset drops every page without calling the hook.
        st.install(4, 1, &blob(4, 100)).unwrap();
        st.crash_reset();
        assert_eq!(take(), []);
        assert_eq!(st.stats().resident_bytes, 0);
    }

    #[test]
    fn blob_at_names_one_exact_version() {
        let (_clock, st) = store(None);
        st.install(5, 1, &blob(5, 10)).unwrap();
        let v1 = st.blob_at(5, 1).unwrap();
        assert!(Arc::ptr_eq(&v1, &st.blob_of(5).unwrap()));
        assert!(st.blob_at(5, 2).is_none());
        st.install(5, 2, &blob(6, 10)).unwrap();
        assert!(st.blob_at(5, 1).is_none(), "v1 has moved on");
        assert_eq!(st.blob_at(5, 2).unwrap()[0], 6);
        st.remove(5);
        assert!(st.blob_at(5, 2).is_none());
    }

    #[test]
    fn stale_installs_are_rejected() {
        let (_clock, st) = store(None);
        st.install(1, 3, &blob(1, 10)).unwrap();
        assert!(matches!(
            st.install(1, 3, &blob(2, 10)),
            Err(StoreError::StaleVersion { offered: 3, installed: 3, .. })
        ));
        assert!(matches!(st.install(1, 2, &blob(2, 10)), Err(StoreError::StaleVersion { .. })));
        assert_eq!(st.version_of(1), Some(3));
    }

    #[test]
    fn crash_reset_sweeps_dead_pages_and_neutralizes_stale_pins() {
        let (_clock, st) = store(Some(8 * 4096));
        for id in 0..4u64 {
            st.install(id, 1, &blob(id as u8, 1000)).unwrap();
        }
        let pin = st.acquire(2).unwrap();
        st.crash_reset();
        let s = st.stats();
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.resets, 1);
        assert_eq!(s.pages_reclaimed, 4, "all dead-version pages reclaimed");
        assert!(st.version_of(2).is_none());
        // The stale pin still reads its Arc'd weights and drops harmlessly.
        assert_eq!(pin[0], 2);
        drop(pin);
        // Fresh installs work in the new incarnation.
        st.install(9, 1, &blob(9, 100)).unwrap();
        assert_eq!(st.acquire(9).unwrap()[0], 9);
    }

    #[test]
    fn eviction_storms_tighten_the_effective_budget() {
        let (clock, st) = store(Some(8 * 4096));
        st.set_pressure(Some(PressurePlan::new(
            BurstSchedule::new(
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(1),
            ),
            8,
        )));
        for id in 0..8u64 {
            st.install(id, 1, &blob(id as u8, 100)).unwrap();
        }
        assert_eq!(st.stats().resident_bytes, 8 * 4096);
        // Enter the storm window: budget tightens to one page, so an
        // acquire churns everything else out.
        clock.advance(Duration::from_millis(1));
        let pin = st.acquire(0).unwrap();
        assert_eq!(pin[0], 0);
        let s = st.stats();
        assert!(s.resident_bytes <= 4096 * 2, "storm must evict: {} resident", s.resident_bytes);
        assert!(s.evictions >= 6);
    }

    #[test]
    fn remove_retires_pinned_and_frees_unpinned() {
        let (_clock, st) = store(None);
        st.install(1, 1, &blob(1, 10)).unwrap();
        st.install(2, 1, &blob(2, 10)).unwrap();
        let pin = st.acquire(1).unwrap();
        st.remove(1);
        st.remove(2);
        assert!(st.version_of(1).is_none());
        let held = st.stats();
        assert_eq!(held.resident_bytes, 4096, "pinned page retired, unpinned freed");
        assert_eq!(pin[0], 1);
        drop(pin);
        assert_eq!(st.stats().resident_bytes, 0);
    }

    #[test]
    fn oversized_blob_fails_typed() {
        let (_clock, st) = store(Some(4096));
        st.install(1, 1, &blob(1, 8192)).unwrap();
        assert!(!st.is_resident(1));
        assert!(matches!(st.acquire(1), Err(StoreError::BudgetExhausted { .. })));
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let (_clock, st) = store(Some(4 * 4096));
        for id in 0..8u64 {
            st.install(id, 1, &blob(id as u8, 100)).unwrap();
        }
        for _ in 0..100 {
            let _ = st.acquire(1).unwrap();
        }
        let s = st.stats();
        assert!(s.hit_rate() > 0.9, "hot model should hit: {}", s.hit_rate());
    }
}
