//! The call path's two ends: stub side ([`CallEngine`]) and daemon side
//! ([`serve`], or [`crate::serve_executor`] fully configured).
//!
//! Two deployment modes mirror how the artifact can be run:
//!
//! * **In-process** — the handler is invoked directly on the caller's
//!   thread with transport costs charged to the virtual clock. This is the
//!   deterministic fast path used by the experiment harnesses, and the
//!   place engine-level fault injection ([`CallEngine::with_faults`])
//!   happens.
//! * **Linked** — commands travel over a real [`lake_transport::Link`] to a
//!   daemon thread running [`serve`], exercising actual cross-thread
//!   queueing like the real `lakeD` process. A linked call is a one-frame
//!   round of the [`crate::queue`] frame machine — the one linked fault
//!   protocol, shared with [`crate::QueuePair`].
//!
//! # Fault tolerance
//!
//! The kernel cannot crash because the daemon or the link hiccuped, so the
//! engine hardens the call path:
//!
//! * **Seq-routed responses** — every response is matched to its caller by
//!   sequence number. Responses for *other* in-flight calls are stashed in
//!   a shared routing table instead of being dropped, so pipelined callers
//!   never steal (or lose) each other's replies.
//! * **Virtual-time deadlines** — a lost frame costs the caller
//!   [`CallPolicy::deadline`] of virtual time (the price of discovering the
//!   loss), after which the call is retried or failed with
//!   [`RpcError::TimedOut`].
//! * **Bounded retry with backoff** — APIs registered idempotent (via
//!   [`CallEngine::register_api`]) are retried up to
//!   [`CallPolicy::max_attempts`] times with exponential virtual-time
//!   backoff. Retries reuse the command's sequence number and [`serve`]
//!   deduplicates by seq, so even a retried call executes at most once.
//!   Non-idempotent calls are never retried after the daemon may have
//!   executed them.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use lake_shm::{ShmBuffer, ShmRegion};
use lake_sim::{Duration, FaultPlan, FrameFault, Instant, SharedClock};
use lake_transport::{Channel, Mechanism};

use crate::command::{ApiId, Command, Response, Status, SEQ_UNMATCHED};
use crate::executor::{CommandClass, DedupTable, ExecutorStats};
use crate::perf;
use crate::perf::PerfCounters;
use crate::wire::{Decoder, Encoder, WireError};

/// Payload size (bytes) at which [`CallEngine::call`] switches from inline
/// frames to shm handle-passing, when staging is attached. Calibrated to
/// Fig 6's ~4KB crossover, where memcpy cost starts to dominate the
/// per-message overhead of the Netlink path.
pub const DEFAULT_INLINE_THRESHOLD: usize = 4096;

/// Envelope bit set on an [`ApiId`] whose command payload is an
/// `(offset, len)` descriptor into the staging region rather than the
/// arguments themselves. Real API identifiers are small registry numbers,
/// far below this bit, so the envelope is unambiguous on the wire and the
/// daemon can unwrap it without out-of-band signaling.
pub const STAGED_API_BIT: u32 = 0x8000_0000;

/// Envelope bit set on an [`ApiId`] whose command payload is a *burst*: a
/// count-prefixed sequence of `(api, payload)` entries coalesced into one
/// frame. The daemon unpacks the burst and answers every entry, in order,
/// inside a single response frame — one doorbell each way no matter how
/// many commands rode along. Entries may themselves carry
/// [`STAGED_API_BIT`]; a burst never nests inside another burst.
pub const BURST_API_BIT: u32 = 0x4000_0000;

/// Hard cap on commands per burst frame, bounding daemon-side decode work
/// for a frame that claims an absurd entry count.
pub const MAX_BURST_ENTRIES: usize = 256;

/// Error returned by [`CallEngine::call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The daemon reported a non-OK status.
    Remote(Status),
    /// A frame failed to decode.
    Wire(WireError),
    /// The daemon is gone (link closed).
    Disconnected,
    /// No (valid) response arrived within the call's deadline, and the
    /// call was not eligible for (more) retries.
    TimedOut,
    /// The daemon crashed while this call was in flight and the call is
    /// not idempotent, so it cannot be blindly replayed under the new
    /// incarnation. The carried value is the epoch that died. Callers own
    /// the recovery decision (re-issue, fall back to the CPU path, ...),
    /// exactly as a kernel module must when `lakeD` is restarted.
    DaemonRestarted {
        /// Incarnation epoch the daemon was serving under when it died.
        epoch: u64,
    },
    /// The encoded command is longer than the link's
    /// [`max_frame_len`](Channel::max_frame_len) and was never sent. Only
    /// reachable for payloads that could not be staged (no staging region
    /// attached, or the region was full).
    FrameTooLarge {
        /// Encoded frame length in bytes.
        len: usize,
        /// The link's limit.
        max: usize,
    },
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Remote(s) => write!(f, "remote call failed with status {s:?}"),
            RpcError::Wire(e) => write!(f, "wire error: {e}"),
            RpcError::Disconnected => f.write_str("daemon disconnected"),
            RpcError::TimedOut => f.write_str("call deadline expired (frame lost?)"),
            RpcError::DaemonRestarted { epoch } => {
                write!(f, "daemon incarnation {epoch} died mid-call; state was replayed")
            }
            RpcError::FrameTooLarge { len, max } => {
                write!(f, "command frame of {len} bytes exceeds the link limit of {max}")
            }
        }
    }
}

/// Kernel-side view of the daemon process's lifecycle, owned by a
/// supervisor (lake-core's `DaemonSupervisor`).
///
/// The engine consults the hook at two points per attempt:
///
/// 1. Before sending — [`DaemonLifecycle::ensure_up`] blocks (in virtual
///    time: detection lease + restart backoff) until the daemon is
///    serving, returning the incarnation epoch the command will execute
///    under. A crash that happened while the stub was idle is detected and
///    recovered *here*, before any command is handed to a dead process.
/// 2. After the handler returns — [`DaemonLifecycle::crashed_between`]
///    reports whether the daemon died inside the request window. If it
///    did, the response was computed by a dead incarnation: the engine
///    discards it (counted in [`CallStats::stale_epochs`]) and either
///    fails the call over to the next incarnation (idempotent APIs,
///    [`CallStats::failed_over`]) or surfaces
///    [`RpcError::DaemonRestarted`].
pub trait DaemonLifecycle: Send + Sync {
    /// The current incarnation epoch (0 = never restarted).
    fn epoch(&self) -> u64;

    /// Ensures the daemon is up, restarting it (and charging virtual
    /// detection/backoff time) if a scheduled crash has already struck.
    /// Returns the epoch the next command will be served under.
    fn ensure_up(&self) -> u64;

    /// Whether the daemon crashed in the virtual-time window
    /// `(start, end]`. Implementations record the crash so the next
    /// [`DaemonLifecycle::ensure_up`] performs the supervised restart.
    fn crashed_between(&self, start: Instant, end: Instant) -> bool;
}

impl std::error::Error for RpcError {}

impl From<WireError> for RpcError {
    fn from(e: WireError) -> Self {
        RpcError::Wire(e)
    }
}

/// Daemon-side API implementation.
///
/// `lakeD` "deserializes them and executes the requested APIs" (§4) — a
/// handler is the table of those implementations. Handlers are invoked with
/// the decoded command payload and return the encoded response payload.
pub trait ApiHandler: Send + Sync {
    /// Executes `api` with `payload`-encoded arguments.
    ///
    /// # Errors
    ///
    /// Return a non-[`Status::Ok`] status to signal vendor-library failure;
    /// it is forwarded verbatim to the kernel caller.
    fn handle(&self, api: ApiId, payload: &[u8]) -> Result<Bytes, Status>;

    /// Ordering constraint `api` places on the parallel executor
    /// ([`crate::serve_executor`]). `payload` may be truncated to its
    /// first 8 bytes for staged commands, so implementations must only
    /// inspect a fixed-size prefix (the keyed APIs lead with their `u64`
    /// resource id). The default is [`CommandClass::Exclusive`]: a
    /// handler that doesn't classify runs serially even under a worker
    /// pool — degraded parallelism, never a data race.
    fn classify(&self, api: ApiId, payload: &[u8]) -> CommandClass {
        let _ = (api, payload);
        CommandClass::Exclusive
    }
}

impl<F> ApiHandler for F
where
    F: Fn(ApiId, &[u8]) -> Result<Bytes, Status> + Send + Sync,
{
    fn handle(&self, api: ApiId, payload: &[u8]) -> Result<Bytes, Status> {
        self(api, payload)
    }
}

/// Per-call robustness policy: how long a caller waits on a lost frame and
/// how hard it retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPolicy {
    /// Virtual time charged to the caller when an attempt's response never
    /// arrives (the cost of discovering the loss).
    pub deadline: Duration,
    /// Total send attempts per call (1 = no retries). Only idempotent APIs
    /// — and commands the daemon provably never executed — use attempts
    /// beyond the first.
    pub max_attempts: u32,
    /// Base retry backoff, doubling per attempt (virtual time).
    pub backoff: Duration,
    /// Linked mode only: real (wall-clock) silence after which an attempt
    /// is declared lost. `None` disables loss detection — `call` waits
    /// forever, the pre-hardening behaviour — and is the default, so a
    /// daemon doing real multi-second work is never misdiagnosed.
    pub recv_patience: Option<std::time::Duration>,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy {
            deadline: Duration::from_millis(2),
            max_attempts: 4,
            backoff: Duration::from_micros(50),
            recv_patience: None,
        }
    }
}

impl CallPolicy {
    fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff * (1u64 << attempt.saturating_sub(1).min(10))
    }
}

/// Aggregate statistics about remoted calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Total remoted calls issued.
    pub calls: u64,
    /// Total command bytes sent.
    pub bytes_sent: u64,
    /// Total response bytes received.
    pub bytes_received: u64,
    /// Calls that returned a non-OK status.
    pub failures: u64,
    /// Attempts re-sent after a lost or corrupted exchange.
    pub retries: u64,
    /// Attempts whose response never arrived within the deadline.
    pub timeouts: u64,
    /// Received frames that failed to decode or could not be attributed.
    pub corrupt_frames: u64,
    /// Responses discarded because they carried a dead incarnation's
    /// epoch (computed before a crash, delivered after). None of these
    /// ever reached a caller.
    pub stale_epochs: u64,
    /// Idempotent attempts replayed under a *new* daemon incarnation
    /// after a crash severed the previous attempt.
    pub failed_over: u64,
    /// Calls that surfaced [`RpcError::DaemonRestarted`] because the
    /// daemon died mid-call and the API was not safe to replay.
    pub daemon_restarts: u64,
    /// Calls whose payload traveled through the shm staging region as an
    /// `(offset, len)` descriptor instead of inline frame bytes.
    pub staged_calls: u64,
    /// Burst frames sent: each one carried 2+ coalesced commands across
    /// the link under a single doorbell.
    pub burst_frames: u64,
    /// Commands that rode inside burst frames instead of paying their own
    /// frame + doorbell.
    pub coalesced_commands: u64,
    /// High-water mark of the seq-routed pending table: the most responses
    /// ever parked for other callers at once. Bounded by the number of
    /// concurrently waiting callers — growth past that is exactly the leak
    /// this stat exists to catch.
    pub pending_high_water: u64,
    /// Routed responses dropped or swept because no caller was registered
    /// as waiting on their seq (late answers to abandoned attempts).
    /// Before the sweep these accumulated in the pending table forever.
    pub pending_expired: u64,
}

/// Shm staging attached to a [`CallEngine`]: payloads at least `threshold`
/// bytes long bypass the inline frame path and travel as descriptors into
/// `region` (LAKE's lakeShm handle-passing).
#[derive(Debug, Clone)]
pub struct StagingConfig {
    /// Region shared between the stub and the daemon ("the kernel and the
    /// daemon mapping the same physical pages").
    pub region: ShmRegion,
    /// Inline/shm cutover in bytes; see [`DEFAULT_INLINE_THRESHOLD`].
    pub threshold: usize,
}

pub(crate) enum Mode {
    InProcess(Arc<dyn ApiHandler>),
    Linked(Box<dyn Channel>),
}

impl fmt::Debug for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::InProcess(_) => f.write_str("InProcess"),
            Mode::Linked(_) => f.write_str("Linked"),
        }
    }
}

/// How often a waiting linked-mode caller re-checks the shared routing
/// table for a response another caller received on its behalf.
pub(crate) const ROUTE_POLL: std::time::Duration = std::time::Duration::from_millis(1);

/// The stub side of LAKE's remoting: serialize, transmit, wait (§4.1).
pub struct CallEngine {
    mechanism: Mechanism,
    pub(crate) clock: SharedClock,
    pub(crate) mode: Mode,
    pub(crate) policy: CallPolicy,
    faults: Option<Arc<FaultPlan>>,
    /// Supervisor hook: crash detection and supervised restart. `None`
    /// models an unsupervised daemon that never dies (the pre-PR-3 world).
    pub(crate) lifecycle: Option<Arc<dyn DaemonLifecycle>>,
    /// Epoch high-water mark: once a response from epoch N is accepted, any
    /// response stamped with an epoch < N is a stale incarnation's answer
    /// and is discarded instead of delivered.
    pub(crate) epoch_floor: AtomicU64,
    /// Shm staging for large payloads; `None` keeps every payload inline
    /// (the pre-fast-path behaviour).
    staging: Option<StagingConfig>,
    /// Copy accounting attributed to this engine. Shared (via
    /// [`CallEngine::with_perf`]) with the daemon-side serve loop so one
    /// deployment's stub and daemon copies land in one counter set; every
    /// bump also feeds the process-wide rollup in [`perf`].
    pub(crate) perf: Arc<PerfCounters>,
    /// APIs flagged idempotent at registration; only they survive a retry
    /// after the daemon may have executed the command.
    idempotent: Mutex<HashSet<u32>>,
    /// Responses received by one caller on behalf of another (seq-routed).
    /// Entries exist only for seqs registered in `waiters`; see
    /// [`CallEngine::route_response`].
    pending: Mutex<HashMap<u64, Response>>,
    /// Seqs of frames in flight in some caller's frame table (a sync call's
    /// or a queue pair's).
    /// Responses routed to any other seq are expired, not stashed — the
    /// pending-table leak fix.
    waiters: Mutex<HashSet<u64>>,
    pub(crate) next_seq: AtomicU64,
    pub(crate) calls: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) failures: AtomicU64,
    retries: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) corrupt_frames: AtomicU64,
    pub(crate) stale_epochs: AtomicU64,
    pub(crate) failed_over: AtomicU64,
    pub(crate) daemon_restarts: AtomicU64,
    staged_calls: AtomicU64,
    pub(crate) burst_frames: AtomicU64,
    pub(crate) coalesced_commands: AtomicU64,
    pending_high_water: AtomicU64,
    pending_expired: AtomicU64,
}

impl fmt::Debug for CallEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CallEngine")
            .field("mechanism", &self.mechanism)
            .field("mode", &self.mode)
            .field("policy", &self.policy)
            .field("supervised", &self.lifecycle.is_some())
            .field("staged", &self.staging.is_some())
            .finish_non_exhaustive()
    }
}

impl CallEngine {
    /// Creates an engine that dispatches directly to `handler` on the
    /// calling thread, charging `mechanism` costs to `clock`.
    pub fn in_process(
        mechanism: Mechanism,
        clock: SharedClock,
        handler: Arc<dyn ApiHandler>,
    ) -> Self {
        Self::build(mechanism, clock, Mode::InProcess(handler))
    }

    /// Creates an engine that sends commands over `endpoint` to a daemon
    /// thread running [`serve`]. The endpoint's mechanism and clock are
    /// reused for cost accounting. Any [`Channel`] works: the crossbeam
    /// `LinkEndpoint` or the lock-free shm `RingEndpoint`.
    pub fn linked(endpoint: impl Channel + 'static) -> Self {
        let mechanism = endpoint.mechanism();
        let clock = endpoint.clock().clone();
        Self::build(mechanism, clock, Mode::Linked(Box::new(endpoint)))
    }

    fn build(mechanism: Mechanism, clock: SharedClock, mode: Mode) -> Self {
        CallEngine {
            mechanism,
            clock,
            mode,
            policy: CallPolicy::default(),
            faults: None,
            lifecycle: None,
            staging: None,
            perf: Arc::new(PerfCounters::new()),
            epoch_floor: AtomicU64::new(0),
            idempotent: Mutex::new(HashSet::new()),
            pending: Mutex::new(HashMap::new()),
            waiters: Mutex::new(HashSet::new()),
            next_seq: AtomicU64::new(1),
            calls: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            stale_epochs: AtomicU64::new(0),
            failed_over: AtomicU64::new(0),
            daemon_restarts: AtomicU64::new(0),
            staged_calls: AtomicU64::new(0),
            burst_frames: AtomicU64::new(0),
            coalesced_commands: AtomicU64::new(0),
            pending_high_water: AtomicU64::new(0),
            pending_expired: AtomicU64::new(0),
        }
    }

    /// Overrides the default [`CallPolicy`].
    pub fn with_policy(mut self, policy: CallPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects `plan`'s frame faults on the in-process path (drop /
    /// corrupt / delay per direction). Linked mode injects at the link
    /// itself instead — see `Link::pair_with_faults`.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a daemon-lifecycle supervisor: crash detection, epoch
    /// fencing, and supervised restart on the call path.
    pub fn with_lifecycle(mut self, lifecycle: Arc<dyn DaemonLifecycle>) -> Self {
        self.lifecycle = Some(lifecycle);
        self
    }

    /// Attaches a shm staging region: payloads at least `threshold` bytes
    /// long travel as `(offset, len)` descriptors into `region` instead of
    /// inline frame bytes — LAKE's lakeShm handle-passing, with the default
    /// cutover at Fig 6's ~4KB crossover ([`DEFAULT_INLINE_THRESHOLD`]).
    ///
    /// The daemon side must resolve descriptors against (a clone of) the
    /// same region: in-process engines unwrap internally, linked daemons
    /// pass it to [`crate::serve_executor`]. Handlers must not re-enter
    /// the staging region — the staged view is borrowed under the region
    /// lock.
    pub fn with_staging(mut self, region: ShmRegion, threshold: usize) -> Self {
        self.staging = Some(StagingConfig { region, threshold });
        self
    }

    /// Replaces this engine's copy-accounting counters with `counters`,
    /// typically shared with the daemon thread serving the other end of
    /// the link ([`crate::serve_executor`]) so both halves of one
    /// deployment report through a single per-engine set.
    pub fn with_perf(mut self, counters: Arc<PerfCounters>) -> Self {
        self.perf = counters;
        self
    }

    /// This engine's copy-accounting counters.
    pub fn perf_counters(&self) -> &Arc<PerfCounters> {
        &self.perf
    }

    /// Registers an API's idempotency flag. Unregistered APIs default to
    /// non-idempotent (never retried once the daemon may have executed
    /// them).
    pub fn register_api(&self, api: ApiId, idempotent: bool) {
        let mut set = self.idempotent.lock().expect("idempotency registry poisoned");
        if idempotent {
            set.insert(api.0);
        } else {
            set.remove(&api.0);
        }
    }

    /// Whether `api` was registered idempotent. The staged/burst envelope
    /// bits are masked off: idempotency is a property of the API, not the
    /// transport encoding of one particular call.
    pub fn is_idempotent(&self, api: ApiId) -> bool {
        self.idempotent
            .lock()
            .expect("idempotency registry poisoned")
            .contains(&(api.0 & !(STAGED_API_BIT | BURST_API_BIT)))
    }

    /// The active call policy.
    pub fn policy(&self) -> CallPolicy {
        self.policy
    }

    /// The channel mechanism in use.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The virtual clock charged by calls.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Issues a remoted API call and waits for its response payload.
    ///
    /// Cost accounting (in-process mode): the caller's clock advances by
    /// the mechanism round-trip for `max(command, response)` frame size,
    /// split around the handler execution — which itself may advance the
    /// clock (GPU time, daemon compute). Lost frames additionally charge
    /// [`CallPolicy::deadline`] per attempt, plus retry backoff.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Remote`] when the daemon reports failure,
    /// [`RpcError::Wire`] on framing corruption, [`RpcError::Disconnected`]
    /// if the daemon thread is gone, [`RpcError::TimedOut`] when a frame
    /// was lost and the call could not be (further) retried, and
    /// [`RpcError::FrameTooLarge`] when an unstaged command exceeds the
    /// link's frame limit.
    pub fn call(&self, api: ApiId, payload: Bytes) -> Result<Bytes, RpcError> {
        if self.stages(payload.len()) {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            if let Some((cmd, buf)) = self.stage_payload(api, seq, &payload) {
                return self.issue(api, cmd, Some(buf));
            }
            // Staging full: fall through to the inline path.
        }
        self.call_inline(api, payload)
    }

    /// Issues a remoted call whose payload is written *directly* into the
    /// shm staging buffer by `fill` — the producer's only write is the
    /// final resting place, so a large payload crosses the boundary with
    /// zero memcpys (the command carries a 16-byte descriptor).
    ///
    /// Falls back to materializing the payload and calling inline when no
    /// staging region is attached, `len` is below the threshold, or the
    /// region is full. `fill` may be invoked once per fallback too, always
    /// with a slice of exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CallEngine::call`].
    pub fn call_zero_copy(
        &self,
        api: ApiId,
        len: usize,
        fill: impl Fn(&mut [u8]),
    ) -> Result<Bytes, RpcError> {
        if self.stages(len) {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            if let Some((cmd, buf)) = self.stage_command(api, seq, len, &fill) {
                return self.issue(api, cmd, Some(buf));
            }
        }
        let mut buf = vec![0u8; len];
        fill(&mut buf);
        self.perf.note_copy(len);
        self.call_inline(api, Bytes::from(buf))
    }

    fn call_inline(&self, api: ApiId, payload: Bytes) -> Result<Bytes, RpcError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let cmd = Command { api, seq, payload };
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(cmd.encoded_len() as u64, Ordering::Relaxed);
        self.issue(api, cmd, None)
    }

    /// Runs one counted command to its outcome — through the handler on
    /// the caller's thread in-process, as a one-frame round of the queue
    /// pair's frame machine when linked — and releases its staged payload
    /// (if any) with that outcome.
    fn issue(
        &self,
        api: ApiId,
        cmd: Command,
        staged: Option<ShmBuffer>,
    ) -> Result<Bytes, RpcError> {
        match &self.mode {
            Mode::InProcess(handler) => {
                let result = self.call_in_process(handler.as_ref(), &cmd, self.is_idempotent(api));
                if let Some(buf) = staged {
                    self.release_staged(buf, &result);
                }
                result
            }
            Mode::Linked(endpoint) => {
                crate::queue::call_frame(self, endpoint.as_ref(), api, cmd, staged)
            }
        }
    }

    /// Supervised restart check before a send: blocks (in virtual time)
    /// until the daemon serves and returns its incarnation epoch, or 0
    /// for an unsupervised daemon.
    pub(crate) fn ensure_up(&self) -> u64 {
        self.lifecycle.as_ref().map_or(0, |l| l.ensure_up())
    }

    /// Whether a payload of `len` bytes travels through the staging region
    /// rather than inline — the one rule the sync call path and the queue
    /// pair share.
    pub(crate) fn stages(&self, len: usize) -> bool {
        self.staging.as_ref().is_some_and(|s| len >= s.threshold)
    }

    /// Lets `fill` write `len` payload bytes into a fresh staging buffer
    /// and builds the enveloped descriptor command that stands in for them
    /// on the wire. Returns `None` (caller falls back to inline) when no
    /// staging is attached or the region can't fit the payload.
    pub(crate) fn stage_command(
        &self,
        api: ApiId,
        seq: u64,
        len: usize,
        fill: &dyn Fn(&mut [u8]),
    ) -> Option<(Command, ShmBuffer)> {
        let staging = self.staging.as_ref()?;
        // Owner-tagged with the call's seq: if this request dies with its
        // daemon, the reclamation sweep can attribute and free the buffer.
        let buf = staging.region.alloc_owned(len.max(1), seq).ok()?;
        if staging.region.with_bytes_mut(&buf, |dst| fill(&mut dst[..len])).is_err() {
            let _ = staging.region.free(buf);
            return None;
        }
        let mut e = Encoder::new();
        e.put_u64(buf.offset() as u64).put_u64(len as u64);
        let cmd = Command { api: ApiId(api.0 | STAGED_API_BIT), seq, payload: e.finish() };
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.staged_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(cmd.encoded_len() as u64, Ordering::Relaxed);
        Some((cmd, buf))
    }

    /// [`CallEngine::stage_command`] for a payload that already exists in
    /// caller memory, when it is at or above the staging threshold: staging
    /// it costs one real memcpy into shm — still a win, the inline path
    /// pays (at least) encode + retry-clone copies per send.
    pub(crate) fn stage_payload(
        &self,
        api: ApiId,
        seq: u64,
        payload: &[u8],
    ) -> Option<(Command, ShmBuffer)> {
        if !self.stages(payload.len()) {
            return None;
        }
        self.stage_command(api, seq, payload.len(), &|dst: &mut [u8]| {
            dst.copy_from_slice(payload);
            self.perf.note_copy(payload.len());
        })
    }

    /// Releases a staged payload once its call has an outcome.
    pub(crate) fn release_staged(&self, buf: ShmBuffer, outcome: &Result<Bytes, RpcError>) {
        let Some(staging) = &self.staging else { return };
        match outcome {
            // The daemon (or its restarted successor replaying a late
            // frame) may still read the staged bytes: orphan the buffer
            // for the next reclamation sweep instead of freeing it out
            // from under a potential reader.
            Err(RpcError::DaemonRestarted { .. }) | Err(RpcError::TimedOut) => {
                let _ = staging.region.mark_orphan(&buf);
            }
            _ => {
                let _ = staging.region.free(buf);
            }
        }
    }

    /// The staging region's allocator counters (in use, orphaned,
    /// reclaimed), when staging is attached.
    pub fn staging_stats(&self) -> Option<lake_shm::AllocStats> {
        self.staging.as_ref().map(|s| s.region.stats())
    }

    fn call_in_process(
        &self,
        handler: &dyn ApiHandler,
        cmd: &Command,
        idempotent: bool,
    ) -> Result<Bytes, RpcError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Supervised restart first: a crash that struck while the stub
            // was idle (or during the previous attempt) is detected and
            // recovered here, charging lease + backoff virtual time, so no
            // command is ever handed to a dead incarnation.
            let serving_epoch = self.ensure_up();
            let sent_at = self.clock.now();
            // Outbound: call time + half the payload round trip.
            self.clock.advance(self.mechanism.call_time());
            self.clock.advance(self.mechanism.one_way(cmd.encoded_len()));

            // Command-direction fault?
            if let Some(plan) = &self.faults {
                match plan.next_frame_fault() {
                    FrameFault::Deliver | FrameFault::Duplicate => {}
                    FrameFault::Delay(extra) => {
                        self.clock.advance(extra);
                    }
                    FrameFault::Drop => {
                        // Command lost: the daemon never saw it, but the
                        // caller can't distinguish this from a lost
                        // response, so only idempotent calls retry.
                        self.timeouts.fetch_add(1, Ordering::Relaxed);
                        self.clock.advance(self.policy.deadline);
                        if idempotent && attempt < self.policy.max_attempts {
                            self.retry_backoff(attempt);
                            continue;
                        }
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        return Err(RpcError::TimedOut);
                    }
                    FrameFault::Corrupt { .. } => {
                        // The daemon rejects the garbled frame with a
                        // Malformed response (seq recovered from the
                        // header). It never executed, so any API may
                        // safely retry.
                        self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                        let nak = Response {
                            seq: cmd.seq,
                            epoch: serving_epoch,
                            status: Status::Malformed,
                            payload: Bytes::new(),
                        };
                        self.clock.advance(self.mechanism.one_way(nak.encoded_len()));
                        if attempt < self.policy.max_attempts {
                            self.retry_backoff(attempt);
                            continue;
                        }
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        return Err(RpcError::Remote(Status::Malformed));
                    }
                }
            }

            let result = dispatch(
                handler,
                self.staging.as_ref().map(|s| &s.region),
                Some(&self.perf),
                cmd.api,
                &cmd.payload,
            );
            let response = match result {
                Ok(bytes) => Response {
                    seq: cmd.seq,
                    epoch: serving_epoch,
                    status: Status::Ok,
                    payload: bytes,
                },
                Err(status) => {
                    Response { seq: cmd.seq, epoch: serving_epoch, status, payload: Bytes::new() }
                }
            };

            // Did the daemon die inside this request's window? If so the
            // response above was computed by a dead incarnation: it is
            // fenced out (never delivered), the caller eats the deadline
            // discovering the silence, and the call either fails over to
            // the next incarnation (idempotent — the supervisor restarts
            // and replays registrations in `ensure_up` at the top of the
            // next attempt) or surfaces the typed restart error.
            if let Some(l) = &self.lifecycle {
                if l.crashed_between(sent_at, self.clock.now()) {
                    self.stale_epochs.fetch_add(1, Ordering::Relaxed);
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.clock.advance(self.policy.deadline);
                    if idempotent && attempt < self.policy.max_attempts {
                        self.failed_over.fetch_add(1, Ordering::Relaxed);
                        self.retry_backoff(attempt);
                        continue;
                    }
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    self.daemon_restarts.fetch_add(1, Ordering::Relaxed);
                    return Err(RpcError::DaemonRestarted { epoch: serving_epoch });
                }
            }

            // Response-direction fault? The handler has executed by now,
            // so only idempotent calls may retry.
            if let Some(plan) = &self.faults {
                match plan.next_frame_fault() {
                    FrameFault::Deliver | FrameFault::Duplicate => {}
                    FrameFault::Delay(extra) => {
                        self.clock.advance(extra);
                    }
                    FrameFault::Drop | FrameFault::Corrupt { .. } => {
                        self.timeouts.fetch_add(1, Ordering::Relaxed);
                        self.clock.advance(self.policy.deadline);
                        if idempotent && attempt < self.policy.max_attempts {
                            self.retry_backoff(attempt);
                            continue;
                        }
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        return Err(RpcError::TimedOut);
                    }
                }
            }

            // Inbound: half the response round trip.
            self.clock.advance(self.mechanism.one_way(response.encoded_len()));
            self.epoch_floor.fetch_max(response.epoch, Ordering::Relaxed);
            self.bytes_received.fetch_add(response.encoded_len() as u64, Ordering::Relaxed);
            return if response.status.is_ok() {
                Ok(response.payload)
            } else {
                self.failures.fetch_add(1, Ordering::Relaxed);
                Err(RpcError::Remote(response.status))
            };
        }
    }

    /// Registers `seq` as having a live caller: only registered seqs may
    /// have responses stashed for them in the pending table.
    pub(crate) fn register_waiter(&self, seq: u64) {
        self.waiters.lock().expect("waiter registry poisoned").insert(seq);
    }

    /// Deregisters `seq` and expires any response still stashed for it —
    /// the caller is gone (answered, gave up, or failed over), so keeping
    /// the entry would be the leak.
    pub(crate) fn deregister_waiter(&self, seq: u64) {
        self.waiters.lock().expect("waiter registry poisoned").remove(&seq);
        if self.pending.lock().expect("response router poisoned").remove(&seq).is_some() {
            self.pending_expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stashes a response received on behalf of another caller — but only
    /// when that caller is still registered as waiting. Late answers to
    /// abandoned seqs (the caller timed out, failed over, or was already
    /// satisfied by a retry) are counted and dropped instead of
    /// accumulating forever; with [`CallEngine::deregister_waiter`]'s
    /// completion-time expiry this bounds the table by the number of
    /// concurrent callers, which `pending_high_water` makes observable.
    pub(crate) fn route_response(&self, resp: Response) {
        let waiting = self.waiters.lock().expect("waiter registry poisoned").contains(&resp.seq);
        if !waiting {
            self.pending_expired.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut pending = self.pending.lock().expect("response router poisoned");
        pending.insert(resp.seq, resp);
        self.pending_high_water.fetch_max(pending.len() as u64, Ordering::Relaxed);
    }

    /// Takes the response another caller stashed for `seq`, if any.
    pub(crate) fn take_routed(&self, seq: u64) -> Option<Response> {
        self.pending.lock().expect("response router poisoned").remove(&seq)
    }

    /// Responses currently parked in the pending table (test hook: the
    /// live gauge behind the `pending_high_water` stat).
    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.lock().expect("response router poisoned").len()
    }

    /// Expires every stashed response whose waiter has deregistered.
    /// Called on the deadline-expiry paths — the moment a caller discovers
    /// silence is when the table is most likely to hold orphans (the
    /// waiter-gating in [`CallEngine::route_response`] makes this a
    /// belt-and-braces sweep rather than the only defense).
    pub(crate) fn sweep_pending(&self) {
        let waiters = self.waiters.lock().expect("waiter registry poisoned");
        let mut pending = self.pending.lock().expect("response router poisoned");
        let before = pending.len();
        pending.retain(|seq, _| waiters.contains(seq));
        self.pending_expired.fetch_add((before - pending.len()) as u64, Ordering::Relaxed);
    }

    /// Whether `resp` was stamped by an incarnation older than the newest
    /// one this engine has heard from (or the supervisor's current epoch,
    /// when a lifecycle hook is attached).
    pub(crate) fn is_stale_epoch(&self, resp: &Response) -> bool {
        if let Some(l) = &self.lifecycle {
            self.epoch_floor.fetch_max(l.epoch(), Ordering::Relaxed);
        }
        resp.epoch < self.epoch_floor.load(Ordering::Relaxed)
    }

    pub(crate) fn finish_response(&self, response: Response) -> Result<Bytes, RpcError> {
        self.epoch_floor.fetch_max(response.epoch, Ordering::Relaxed);
        self.bytes_received.fetch_add(response.encoded_len() as u64, Ordering::Relaxed);
        if response.status.is_ok() {
            Ok(response.payload)
        } else {
            self.failures.fetch_add(1, Ordering::Relaxed);
            Err(RpcError::Remote(response.status))
        }
    }

    pub(crate) fn retry_backoff(&self, attempt: u32) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.clock.advance(self.policy.backoff_for(attempt));
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CallStats {
        CallStats {
            calls: self.calls.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            stale_epochs: self.stale_epochs.load(Ordering::Relaxed),
            failed_over: self.failed_over.load(Ordering::Relaxed),
            daemon_restarts: self.daemon_restarts.load(Ordering::Relaxed),
            staged_calls: self.staged_calls.load(Ordering::Relaxed),
            burst_frames: self.burst_frames.load(Ordering::Relaxed),
            coalesced_commands: self.coalesced_commands.load(Ordering::Relaxed),
            pending_high_water: self.pending_high_water.load(Ordering::Relaxed),
            pending_expired: self.pending_expired.load(Ordering::Relaxed),
        }
    }
}

/// Unwraps a possibly-staged command and dispatches it to `handler`:
/// staged commands ([`STAGED_API_BIT`] set) carry an `(offset, len)`
/// descriptor into `staging`, and the handler executes against a borrowed
/// view of the staged bytes — the payload itself never crossed the link
/// and is not copied here either.
pub(crate) fn dispatch(
    handler: &dyn ApiHandler,
    staging: Option<&ShmRegion>,
    counters: Option<&PerfCounters>,
    api: ApiId,
    payload: &[u8],
) -> Result<Bytes, Status> {
    if api.0 & BURST_API_BIT != 0 {
        return dispatch_burst(handler, staging, counters, payload);
    }
    if api.0 & STAGED_API_BIT == 0 {
        return handler.handle(api, payload);
    }
    let Some(region) = staging else {
        // A staged command reached a daemon with no region attached: the
        // descriptor is meaningless here, reject instead of guessing.
        return Err(Status::Malformed);
    };
    let real = ApiId(api.0 & !STAGED_API_BIT);
    let mut d = Decoder::new(payload);
    let (offset, len) = match (d.get_u64(), d.get_u64()) {
        (Ok(o), Ok(l)) => (o as usize, l as usize),
        _ => return Err(Status::Malformed),
    };
    let Ok(buf) = region.resolve(offset) else {
        return Err(Status::Malformed);
    };
    if len > buf.len() {
        return Err(Status::Malformed);
    }
    region
        .with_bytes(&buf, |bytes| {
            match counters {
                Some(c) => c.note_zero_copy(len),
                None => perf::note_zero_copy(len),
            }
            handler.handle(real, &bytes[..len])
        })
        .unwrap_or(Err(Status::Malformed))
}

/// Unpacks a [`BURST_API_BIT`] frame and answers every entry in order.
///
/// Per-entry failures become per-entry statuses inside the burst response
/// body — the burst itself succeeds, so one bad rider never poisons its
/// batch. Entries may be staged (the recursion into [`dispatch`] unwraps
/// them); a burst inside a burst is malformed.
fn dispatch_burst(
    handler: &dyn ApiHandler,
    staging: Option<&ShmRegion>,
    counters: Option<&PerfCounters>,
    payload: &[u8],
) -> Result<Bytes, Status> {
    let mut d = Decoder::new(payload);
    let count = d.get_u32().map_err(|_| Status::Malformed)? as usize;
    if count == 0 || count > MAX_BURST_ENTRIES {
        return Err(Status::Malformed);
    }
    let mut out = Encoder::new();
    out.put_u32(count as u32);
    for _ in 0..count {
        let api = ApiId(d.get_u32().map_err(|_| Status::Malformed)?);
        if api.0 & BURST_API_BIT != 0 {
            return Err(Status::Malformed);
        }
        let entry = d.get_bytes().map_err(|_| Status::Malformed)?;
        let (status, body) = match dispatch(handler, staging, counters, api, entry) {
            Ok(bytes) => (Status::Ok, bytes),
            Err(status) => (status, Bytes::new()),
        };
        out.put_u32(status.to_u32());
        out.put_bytes(&body);
    }
    d.finish().map_err(|_| Status::Malformed)?;
    Ok(out.finish())
}

/// Splits a burst response body back into one `Result` per entry.
///
/// # Errors
///
/// Returns [`RpcError::Wire`] when the body does not decode as a burst of
/// exactly `expected` entries.
pub(crate) fn decode_burst_response(
    body: &[u8],
    expected: usize,
) -> Result<Vec<Result<Bytes, Status>>, RpcError> {
    let mut d = Decoder::new(body);
    let count = d.get_u32()? as usize;
    if count != expected {
        return Err(RpcError::Wire(WireError::BadLength { declared: count, remaining: expected }));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let status = Status::from_u32(d.get_u32()?);
        let bytes = d.get_bytes()?;
        out.push(if status.is_ok() { Ok(Bytes::copy_from_slice(bytes)) } else { Err(status) });
    }
    d.finish()?;
    Ok(out)
}

/// Responses remembered by [`serve`] for at-most-once execution.
pub(crate) const SERVE_DEDUP_WINDOW: usize = 128;

/// Runs the daemon dispatch loop over `endpoint` until the peer
/// disconnects: receive command, decode, execute, respond. This is
/// `lakeD`'s main loop in its default configuration — epoch 0, no staging
/// region, copies counted in the process-wide rollup only, one frame at a
/// time. [`crate::serve_executor`] is the fully configured entry point.
///
/// Robustness:
///
/// * Undecodable frames are answered `Malformed` with the sequence number
///   recovered from the frame header when it survived, or the reserved
///   [`SEQ_UNMATCHED`] sentinel otherwise — never a fabricated seq a
///   pipelined caller could mis-match.
/// * Recently executed commands are remembered by seq
///   (a [`SERVE_DEDUP_WINDOW`]-deep window): a duplicated or retried
///   command is answered from the cache instead of re-executed, giving
///   retries at-most-once semantics.
pub fn serve<C: Channel + ?Sized>(endpoint: &C, handler: &dyn ApiHandler) {
    serve_serial(endpoint, handler, &AtomicU64::new(0), None, None, None);
}

pub(crate) fn serve_serial<C: Channel + ?Sized>(
    endpoint: &C,
    handler: &dyn ApiHandler,
    epoch: &AtomicU64,
    staging: Option<&ShmRegion>,
    counters: Option<&PerfCounters>,
    stats: Option<&ExecutorStats>,
) {
    // Dedup entries remember the epoch they were computed under: a cached
    // answer from a previous incarnation must NOT be replayed — the new
    // incarnation never ran that command (crash_reset wiped its state), and
    // the caller would fence the stale stamp forever, wedging the retry.
    // The table is the same seq-sharded window the parallel executor uses,
    // sized to the historical SERVE_DEDUP_WINDOW.
    let dedup = DedupTable::new();
    while let Ok(frame) = endpoint.recv() {
        if let Some(s) = stats {
            s.note_frame();
        }
        let now_epoch = epoch.load(Ordering::Relaxed);
        let response = match Command::decode_borrowed(&frame) {
            Ok(cmd) => {
                if let Some(prior) = dedup.replay(cmd.seq, now_epoch) {
                    // Retried or duplicated command, same incarnation:
                    // replay, don't re-run.
                    if let Some(s) = stats {
                        s.note_replay();
                    }
                    prior
                } else {
                    // Borrowed dispatch: the payload stays inside the
                    // received frame (or in shm, for staged commands).
                    match counters {
                        Some(c) => c.note_zero_copy(cmd.payload.len()),
                        None => perf::note_zero_copy(cmd.payload.len()),
                    }
                    let response = match dispatch(handler, staging, counters, cmd.api, cmd.payload)
                    {
                        Ok(payload) => {
                            Response { seq: cmd.seq, epoch: now_epoch, status: Status::Ok, payload }
                        }
                        Err(status) => Response {
                            seq: cmd.seq,
                            epoch: now_epoch,
                            status,
                            payload: Bytes::new(),
                        },
                    };
                    if dedup.record(cmd.seq, now_epoch, &response) {
                        if let Some(s) = stats {
                            s.note_eviction();
                        }
                    }
                    if let Some(s) = stats {
                        s.note_executed();
                    }
                    response
                }
            }
            // Never executed, so never cached: a retry of the same seq with
            // an intact frame must run for real.
            Err(_) => {
                if let Some(s) = stats {
                    s.note_malformed();
                }
                Response {
                    seq: Command::peek_seq(&frame).unwrap_or(SEQ_UNMATCHED),
                    epoch: now_epoch,
                    status: Status::Malformed,
                    payload: Bytes::new(),
                }
            }
        };
        if endpoint.send(fit_response(response, endpoint.max_frame_len()).encode()).is_err() {
            break;
        }
    }
}

/// Replaces a response the link cannot carry with a typed
/// [`Status::ResponseTooLarge`] answer, so the caller gets an error
/// instead of the transport refusing (or waiting forever on) the frame.
pub(crate) fn fit_response(response: Response, max_frame_len: usize) -> Response {
    if response.encoded_len() <= max_frame_len {
        return response;
    }
    Response { status: Status::ResponseTooLarge, payload: Bytes::new(), ..response }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Decoder, Encoder};
    use lake_transport::Link;

    const API_ADD: ApiId = ApiId(1);
    const API_FAIL: ApiId = ApiId(2);

    fn adder() -> Arc<dyn ApiHandler> {
        Arc::new(|api: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
            match api {
                API_ADD => {
                    let mut d = Decoder::new(payload);
                    let a = d.get_u64().map_err(|_| Status::Malformed)?;
                    let b = d.get_u64().map_err(|_| Status::Malformed)?;
                    let mut e = Encoder::new();
                    e.put_u64(a + b);
                    Ok(e.finish())
                }
                API_FAIL => Err(Status::VendorError(13)),
                _ => Err(Status::UnknownApi),
            }
        })
    }

    fn encode_pair(a: u64, b: u64) -> Bytes {
        let mut e = Encoder::new();
        e.put_u64(a).put_u64(b);
        e.finish()
    }

    /// A one-worker daemon stamping responses with `epoch` and resolving
    /// staged descriptors against `staging`.
    fn serve_daemon<C: Channel + ?Sized>(
        endpoint: &C,
        handler: &dyn ApiHandler,
        epoch: &AtomicU64,
        staging: Option<&ShmRegion>,
    ) {
        let (counters, stats) = (PerfCounters::new(), ExecutorStats::new());
        crate::serve_executor(endpoint, handler, epoch, staging, &counters, 1, &stats);
    }

    #[test]
    fn in_process_call_roundtrip() {
        let clock = SharedClock::new();
        let engine = CallEngine::in_process(Mechanism::Netlink, clock.clone(), adder());
        let out = engine.call(API_ADD, encode_pair(2, 40)).unwrap();
        let mut d = Decoder::new(&out);
        assert_eq!(d.get_u64().unwrap(), 42);
        // Netlink: 11us call + ~28us round trip payload cost
        assert!(clock.now().as_micros() >= 30);
        let stats = engine.stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.failures, 0);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    #[test]
    fn vendor_error_is_forwarded() {
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), adder());
        let err = engine.call(API_FAIL, Bytes::new()).unwrap_err();
        assert_eq!(err, RpcError::Remote(Status::VendorError(13)));
        assert_eq!(engine.stats().failures, 1);
    }

    #[test]
    fn unknown_api_is_reported() {
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), adder());
        let err = engine.call(ApiId(999), Bytes::new()).unwrap_err();
        assert_eq!(err, RpcError::Remote(Status::UnknownApi));
    }

    #[test]
    fn linked_mode_with_real_daemon_thread() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock.clone());
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });
        let engine = CallEngine::linked(kernel);
        for i in 0..10u64 {
            let out = engine.call(API_ADD, encode_pair(i, i)).unwrap();
            let mut d = Decoder::new(&out);
            assert_eq!(d.get_u64().unwrap(), 2 * i);
        }
        let err = engine.call(API_FAIL, Bytes::new()).unwrap_err();
        assert_eq!(err, RpcError::Remote(Status::VendorError(13)));
        drop(engine); // closes the link; daemon loop exits
        daemon.join().unwrap();
        assert!(clock.now().as_micros() > 0);
    }

    #[test]
    fn larger_payloads_cost_more_time() {
        let small_clock = SharedClock::new();
        let engine = CallEngine::in_process(Mechanism::Netlink, small_clock.clone(), adder());
        let _ = engine.call(API_ADD, encode_pair(1, 1));
        let small_elapsed = small_clock.now();

        let big_clock = SharedClock::new();
        let engine = CallEngine::in_process(
            Mechanism::Netlink,
            big_clock.clone(),
            Arc::new(|_: ApiId, _: &[u8]| Ok(Bytes::new())),
        );
        let payload = Bytes::from(vec![0u8; 32 * 1024]);
        let _ = engine.call(ApiId(1), payload);
        assert!(big_clock.now().as_nanos() > small_elapsed.as_nanos() * 3);
    }

    #[test]
    fn handler_clock_advance_is_included() {
        // The handler simulates GPU time by advancing the shared clock.
        let clock = SharedClock::new();
        let handler_clock = clock.clone();
        let handler = Arc::new(move |_: ApiId, _: &[u8]| -> Result<Bytes, Status> {
            handler_clock.advance(lake_sim::Duration::from_micros(500));
            Ok(Bytes::new())
        });
        let engine = CallEngine::in_process(Mechanism::Netlink, clock.clone(), handler);
        engine.call(ApiId(1), Bytes::new()).unwrap();
        assert!(clock.now().as_micros() >= 500 + 30);
    }

    /// Regression (seq desync): the daemon must recover the seq of an
    /// undecodable frame from its header, and fall back to SEQ_UNMATCHED —
    /// never `seq: 0`, which a pipelined caller could own.
    #[test]
    fn serve_recovers_seq_for_undecodable_frames() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });

        // Corrupt a valid frame's payload length: decode fails, header survives.
        let cmd = Command { api: API_ADD, seq: 7777, payload: encode_pair(1, 2) };
        let mut frame = cmd.encode();
        frame[13] ^= 0xFF;
        kernel.send(frame).unwrap();
        let resp = Response::decode(&kernel.recv().unwrap()).unwrap();
        assert_eq!(resp.seq, 7777, "seq must be recovered from the intact header");
        assert_eq!(resp.status, Status::Malformed);

        // Fully garbled frame (magic destroyed): sentinel, not 0.
        kernel.send(vec![0x00, 0x01, 0x02]).unwrap();
        let resp = Response::decode(&kernel.recv().unwrap()).unwrap();
        assert_eq!(resp.seq, SEQ_UNMATCHED);
        assert_eq!(resp.status, Status::Malformed);

        drop(kernel);
        daemon.join().unwrap();
    }

    /// Regression (seq routing): two concurrent callers whose responses
    /// arrive out of order must each get their own response. The old
    /// engine dropped mismatched-seq frames, losing one caller's reply.
    #[test]
    fn concurrent_callers_get_seq_routed_responses() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        // A daemon that answers every batch of two commands in reverse order.
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            while let (Ok(f1), Ok(f2)) = (user.recv(), user.recv()) {
                for frame in [f2, f1] {
                    let cmd = Command::decode(&frame).unwrap();
                    let resp = match handler.handle(cmd.api, &cmd.payload) {
                        Ok(p) => {
                            Response { seq: cmd.seq, epoch: 0, status: Status::Ok, payload: p }
                        }
                        Err(s) => {
                            Response { seq: cmd.seq, epoch: 0, status: s, payload: Bytes::new() }
                        }
                    };
                    if user.send(resp.encode()).is_err() {
                        return;
                    }
                }
            }
        });

        let engine = Arc::new(CallEngine::linked(kernel));
        let mut workers = Vec::new();
        for w in 0..2u64 {
            let engine = engine.clone();
            workers.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let out = engine.call(API_ADD, encode_pair(w * 1000, i)).unwrap();
                    let mut d = Decoder::new(&out);
                    assert_eq!(
                        d.get_u64().unwrap(),
                        w * 1000 + i,
                        "caller got someone else's reply"
                    );
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn idempotent_calls_retry_through_frame_loss_in_process() {
        use lake_sim::{FaultPlan, FaultSpec};
        let clock = SharedClock::new();
        let plan = Arc::new(FaultPlan::new(FaultSpec { drop_prob: 0.3, ..Default::default() }, 17));
        let engine = CallEngine::in_process(Mechanism::Netlink, clock, adder())
            .with_policy(CallPolicy {
                deadline: Duration::from_micros(300),
                max_attempts: 8,
                backoff: Duration::from_micros(20),
                recv_patience: None,
            })
            .with_faults(plan);
        engine.register_api(API_ADD, true);
        let mut ok = 0;
        for i in 0..200u64 {
            if let Ok(out) = engine.call(API_ADD, encode_pair(i, 1)) {
                let mut d = Decoder::new(&out);
                assert_eq!(d.get_u64().unwrap(), i + 1);
                ok += 1;
            }
        }
        let stats = engine.stats();
        assert!(stats.retries > 0, "30% drop must force retries");
        assert!(stats.timeouts > 0);
        // 8 attempts vs 30% per-direction drop: effectively everything lands.
        assert!(ok >= 195, "only {ok}/200 idempotent calls survived");
    }

    #[test]
    fn idempotent_calls_retry_through_lossy_link() {
        use lake_sim::{FaultPlan, FaultSpec};
        let clock = SharedClock::new();
        let plan = Arc::new(FaultPlan::new(
            FaultSpec { drop_prob: 0.15, corrupt_prob: 0.1, ..Default::default() },
            23,
        ));
        let (kernel, user) = Link::pair_with_faults(Mechanism::Netlink, clock, plan);
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });
        let engine = CallEngine::linked(kernel).with_policy(CallPolicy {
            deadline: Duration::from_micros(300),
            max_attempts: 8,
            backoff: Duration::from_micros(20),
            recv_patience: Some(std::time::Duration::from_millis(25)),
        });
        engine.register_api(API_ADD, true);
        let mut ok = 0;
        for i in 0..60u64 {
            if let Ok(out) = engine.call(API_ADD, encode_pair(i, i)) {
                let mut d = Decoder::new(&out);
                assert_eq!(d.get_u64().unwrap(), 2 * i, "retry returned a wrong result");
                ok += 1;
            }
        }
        let stats = engine.stats();
        assert!(stats.retries > 0, "lossy link must force retries");
        assert!(ok >= 55, "only {ok}/60 idempotent calls survived the lossy link");
        drop(engine);
        daemon.join().unwrap();
    }

    /// A scripted lifecycle: crashes at fixed virtual instants, restart
    /// bumps the epoch. The real supervisor lives in lake-core; this
    /// double only exercises the engine's fencing/failover contract.
    struct ScriptedLifecycle {
        crashes: Mutex<Vec<Instant>>,
        epoch: AtomicU64,
        dead: std::sync::atomic::AtomicBool,
    }

    impl ScriptedLifecycle {
        fn new(crashes: Vec<Instant>) -> Arc<Self> {
            Arc::new(ScriptedLifecycle {
                crashes: Mutex::new(crashes),
                epoch: AtomicU64::new(0),
                dead: std::sync::atomic::AtomicBool::new(false),
            })
        }
    }

    impl DaemonLifecycle for ScriptedLifecycle {
        fn epoch(&self) -> u64 {
            self.epoch.load(Ordering::Relaxed)
        }
        fn ensure_up(&self) -> u64 {
            if self.dead.swap(false, Ordering::Relaxed) {
                self.epoch.fetch_add(1, Ordering::Relaxed);
            }
            self.epoch()
        }
        fn crashed_between(&self, start: Instant, end: Instant) -> bool {
            let mut crashes = self.crashes.lock().unwrap();
            if let Some(pos) = crashes.iter().position(|&c| start < c && c <= end) {
                crashes.remove(pos);
                self.dead.store(true, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn idempotent_call_fails_over_across_a_crash() {
        let clock = SharedClock::new();
        let lifecycle = ScriptedLifecycle::new(vec![Instant::from_nanos(1)]);
        let engine = CallEngine::in_process(Mechanism::Netlink, clock, adder())
            .with_lifecycle(lifecycle.clone());
        engine.register_api(API_ADD, true);
        let out = engine.call(API_ADD, encode_pair(20, 22)).unwrap();
        let mut d = Decoder::new(&out);
        assert_eq!(d.get_u64().unwrap(), 42, "failover must return the new epoch's answer");
        let stats = engine.stats();
        assert_eq!(stats.stale_epochs, 1, "the dead incarnation's answer must be fenced");
        assert_eq!(stats.failed_over, 1);
        assert_eq!(stats.daemon_restarts, 0);
        assert_eq!(lifecycle.epoch(), 1, "the retry must run under the new incarnation");
    }

    #[test]
    fn non_idempotent_call_surfaces_daemon_restarted() {
        let clock = SharedClock::new();
        let lifecycle = ScriptedLifecycle::new(vec![Instant::from_nanos(1)]);
        let engine = CallEngine::in_process(Mechanism::Netlink, clock, adder())
            .with_lifecycle(lifecycle.clone());
        // API_ADD deliberately NOT registered idempotent.
        let err = engine.call(API_ADD, encode_pair(1, 2)).unwrap_err();
        assert_eq!(err, RpcError::DaemonRestarted { epoch: 0 });
        let stats = engine.stats();
        assert_eq!(stats.daemon_restarts, 1);
        assert_eq!(stats.stale_epochs, 1);
        // The next call finds the restarted daemon and succeeds under epoch 1.
        let out = engine.call(API_ADD, encode_pair(2, 2)).unwrap();
        let mut d = Decoder::new(&out);
        assert_eq!(d.get_u64().unwrap(), 4);
        assert_eq!(lifecycle.epoch(), 1);
    }

    #[test]
    fn serve_stamps_responses_with_the_daemon_epoch() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let epoch = Arc::new(AtomicU64::new(5));
        let daemon_epoch = epoch.clone();
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve_daemon(&user, handler.as_ref(), &daemon_epoch, None);
        });
        let cmd = Command { api: API_ADD, seq: 1, payload: encode_pair(1, 1) };
        kernel.send(cmd.encode()).unwrap();
        let resp = Response::decode(&kernel.recv().unwrap()).unwrap();
        assert_eq!(resp.epoch, 5, "responses must carry the serving incarnation");
        drop(kernel);
        daemon.join().unwrap();
    }

    #[test]
    fn linked_mode_fences_stale_epoch_responses() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        // A daemon that answers each command twice: first with a stale
        // incarnation's stamp, then with the live one. The stale answer
        // carries a *wrong* payload — if fencing fails, the caller sees it.
        let daemon = std::thread::spawn(move || {
            while let Ok(frame) = user.recv() {
                let cmd = Command::decode(&frame).unwrap();
                let stale = Response {
                    seq: cmd.seq,
                    epoch: 1,
                    status: Status::Ok,
                    payload: Bytes::from_static(b"stale"),
                };
                let live = Response {
                    seq: cmd.seq,
                    epoch: 2,
                    status: Status::Ok,
                    payload: Bytes::from_static(b"live"),
                };
                if user.send(stale.encode()).is_err() || user.send(live.encode()).is_err() {
                    return;
                }
            }
        });
        let engine = CallEngine::linked(kernel);
        // Teach the engine about epoch 2 before the race: floor rises on
        // first accepted response and stays up.
        engine.epoch_floor.store(2, Ordering::Relaxed);
        for _ in 0..4 {
            let out = engine.call(ApiId(1), Bytes::new()).unwrap();
            assert_eq!(&out[..], b"live", "stale-epoch answer was delivered");
        }
        assert!(engine.stats().stale_epochs >= 4);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn serve_deduplicates_retried_commands() {
        use std::sync::atomic::AtomicUsize;
        let executions = Arc::new(AtomicUsize::new(0));
        let execs = executions.clone();
        let handler = Arc::new(move |_: ApiId, _: &[u8]| -> Result<Bytes, Status> {
            execs.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::from_static(b"done"))
        });
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let daemon = std::thread::spawn(move || serve(&user, handler.as_ref()));

        let cmd = Command { api: ApiId(9), seq: 42, payload: Bytes::new() };
        for _ in 0..3 {
            kernel.send(cmd.encode()).unwrap();
            let resp = Response::decode(&kernel.recv().unwrap()).unwrap();
            assert_eq!(resp.seq, 42);
            assert_eq!(resp.payload, Bytes::from_static(b"done"));
        }
        assert_eq!(executions.load(Ordering::SeqCst), 1, "retries must not re-execute");
        drop(kernel);
        daemon.join().unwrap();
    }

    fn echo() -> Arc<dyn ApiHandler> {
        Arc::new(|_: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
            Ok(Bytes::copy_from_slice(payload))
        })
    }

    #[test]
    fn staged_in_process_call_roundtrips_and_frees_the_buffer() {
        let region = ShmRegion::with_capacity(64 * 1024);
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), echo())
            .with_staging(region.clone(), 64);
        let payload: Vec<u8> = (0..8192u32).map(|i| i as u8).collect();
        let out = engine.call(ApiId(3), Bytes::from(payload.clone())).unwrap();
        assert_eq!(&out[..], &payload[..]);
        let stats = engine.stats();
        assert_eq!(stats.staged_calls, 1);
        // The descriptor frame, not the payload, is what crossed the link.
        assert!(stats.bytes_sent < payload.len() as u64);
        assert_eq!(region.stats().in_use, 0, "staged buffer must be freed after the call");
    }

    #[test]
    fn payloads_below_threshold_stay_inline() {
        let region = ShmRegion::with_capacity(4096);
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), echo())
            .with_staging(region, DEFAULT_INLINE_THRESHOLD);
        let out = engine.call(ApiId(3), Bytes::from_static(b"small")).unwrap();
        assert_eq!(&out[..], b"small");
        let stats = engine.stats();
        assert_eq!(stats.staged_calls, 0);
        assert!(stats.bytes_sent > 5);
    }

    #[test]
    fn call_zero_copy_fills_shm_directly_and_falls_back_inline() {
        let region = ShmRegion::with_capacity(64 * 1024);
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), echo())
            .with_staging(region, 64);
        let out = engine
            .call_zero_copy(ApiId(3), 4096, |dst| {
                for (i, b) in dst.iter_mut().enumerate() {
                    *b = i as u8;
                }
            })
            .unwrap();
        assert_eq!(out.len(), 4096);
        assert!(out.iter().enumerate().all(|(i, &b)| b == i as u8));
        assert_eq!(engine.stats().staged_calls, 1);

        // No staging attached: same API, materialized inline.
        let plain = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), echo());
        let out = plain.call_zero_copy(ApiId(3), 100, |dst| dst.fill(7)).unwrap();
        assert_eq!(&out[..], &[7u8; 100][..]);
        assert_eq!(plain.stats().staged_calls, 0);
    }

    #[test]
    fn staged_linked_call_passes_a_handle_not_the_payload() {
        let clock = SharedClock::new();
        let region = ShmRegion::with_capacity(256 * 1024);
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let daemon_region = region.clone();
        let daemon = std::thread::spawn(move || {
            let handler = echo();
            serve_daemon(&user, handler.as_ref(), &AtomicU64::new(0), Some(&daemon_region));
        });
        let engine =
            CallEngine::linked(kernel).with_staging(region.clone(), DEFAULT_INLINE_THRESHOLD);
        let payload: Vec<u8> = (0..16384u32).map(|i| (i * 7) as u8).collect();
        let before = crate::perf::snapshot();
        for _ in 0..4 {
            let out = engine.call(ApiId(9), Bytes::from(payload.clone())).unwrap();
            assert_eq!(&out[..], &payload[..]);
        }
        let delta = crate::perf::snapshot().since(&before);
        let stats = engine.stats();
        assert_eq!(stats.staged_calls, 4);
        // Each call moved one payload copy into shm; the inline path would
        // have moved it at least twice more (frame encode + send clone).
        assert!(delta.zero_copy_hits >= 4);
        assert_eq!(region.stats().in_use, 0);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn staged_buffer_is_orphaned_when_the_daemon_dies_mid_call() {
        let region = ShmRegion::with_capacity(64 * 1024);
        let lifecycle = ScriptedLifecycle::new(vec![Instant::from_nanos(1)]);
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), echo())
            .with_staging(region.clone(), 64)
            .with_lifecycle(lifecycle);
        // NOT idempotent: the call dies with DaemonRestarted.
        let err = engine.call(ApiId(3), Bytes::from(vec![1u8; 4096])).unwrap_err();
        assert_eq!(err, RpcError::DaemonRestarted { epoch: 0 });
        // The dead incarnation may still hold a mapping: the buffer must be
        // orphaned (not freed, not leaked-forever) until a reclamation sweep.
        assert!(region.stats().orphaned_bytes >= 4096);
        let report = region.reclaim_orphans();
        assert!(report.reclaimed_bytes >= 4096);
        assert_eq!(region.stats().in_use, 0);
    }

    #[test]
    fn staged_command_without_a_region_is_rejected_not_misread() {
        // A staged envelope arriving at a daemon with no staging attached
        // must be rejected as Malformed, not dispatched with the raw
        // descriptor bytes as the payload.
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), echo());
        let err = engine.call(ApiId(3 | STAGED_API_BIT), Bytes::from(vec![0u8; 16])).unwrap_err();
        assert_eq!(err, RpcError::Remote(Status::Malformed));
    }

    #[test]
    fn nested_burst_is_rejected_as_malformed() {
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), echo());
        let mut inner = Encoder::new();
        inner.put_u32(1).put_u32(BURST_API_BIT).put_bytes(b"");
        let err = engine.call(ApiId(BURST_API_BIT), inner.finish()).unwrap_err();
        assert_eq!(err, RpcError::Remote(Status::Malformed));
    }

    #[test]
    fn linked_idempotent_call_fails_over_across_a_crash() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock.clone());
        let lifecycle = ScriptedLifecycle::new(vec![Instant::from_nanos(1)]);
        // The daemon stamps responses with the *lifecycle's* epoch — the
        // same sharing the core supervisor wires up.
        let daemon_lc = lifecycle.clone();
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve_daemon(&user, handler.as_ref(), &daemon_lc.epoch, None);
        });
        let engine =
            CallEngine::linked(kernel).with_lifecycle(lifecycle.clone()).with_policy(CallPolicy {
                recv_patience: Some(std::time::Duration::from_millis(50)),
                ..CallPolicy::default()
            });
        engine.register_api(API_ADD, true);
        let out = engine.call(API_ADD, encode_pair(20, 22)).unwrap();
        let mut d = Decoder::new(&out);
        assert_eq!(d.get_u64().unwrap(), 42);
        let stats = engine.stats();
        assert_eq!(stats.stale_epochs, 1, "the dead incarnation's answer must be fenced");
        assert_eq!(stats.failed_over, 1);
        assert_eq!(stats.daemon_restarts, 0);
        assert_eq!(stats.timeouts, 1, "the crash costs one discovery deadline");
        assert_eq!(lifecycle.epoch(), 1, "the retry must run under the new incarnation");
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn linked_non_idempotent_call_surfaces_daemon_restarted() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock.clone());
        let lifecycle = ScriptedLifecycle::new(vec![Instant::from_nanos(1)]);
        let daemon_lc = lifecycle.clone();
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve_daemon(&user, handler.as_ref(), &daemon_lc.epoch, None);
        });
        let engine = CallEngine::linked(kernel).with_lifecycle(lifecycle.clone());
        // API_ADD deliberately NOT registered idempotent.
        let err = engine.call(API_ADD, encode_pair(1, 2)).unwrap_err();
        assert_eq!(err, RpcError::DaemonRestarted { epoch: 0 });
        let stats = engine.stats();
        assert_eq!(stats.daemon_restarts, 1);
        assert_eq!(stats.stale_epochs, 1);
        // The next call runs under the restarted incarnation; the serve
        // loop must re-execute the retried seq instead of replaying the
        // dead incarnation's cached answer.
        let out = engine.call(API_ADD, encode_pair(2, 2)).unwrap();
        let mut d = Decoder::new(&out);
        assert_eq!(d.get_u64().unwrap(), 4);
        assert_eq!(lifecycle.epoch(), 1);
        drop(engine);
        daemon.join().unwrap();
    }

    /// Regression (epoch-aware dedup): a retried seq must not be answered
    /// from a dead incarnation's cache — the new incarnation never ran it.
    /// Without eviction the caller fences the stale stamp forever and the
    /// retry wedges.
    #[test]
    fn serve_reexecutes_cached_seq_after_an_epoch_bump() {
        use std::sync::atomic::AtomicUsize;
        let executions = Arc::new(AtomicUsize::new(0));
        let execs = executions.clone();
        let handler = Arc::new(move |_: ApiId, _: &[u8]| -> Result<Bytes, Status> {
            execs.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::from_static(b"done"))
        });
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let epoch = Arc::new(AtomicU64::new(0));
        let daemon_epoch = epoch.clone();
        let daemon =
            std::thread::spawn(move || serve_daemon(&user, handler.as_ref(), &daemon_epoch, None));

        let cmd = Command { api: ApiId(9), seq: 77, payload: Bytes::new() };
        kernel.send(cmd.encode()).unwrap();
        let first = Response::decode(&kernel.recv().unwrap()).unwrap();
        assert_eq!(first.epoch, 0);
        // Same seq, same epoch: replayed from cache, not re-executed.
        kernel.send(cmd.encode()).unwrap();
        let replay = Response::decode(&kernel.recv().unwrap()).unwrap();
        assert_eq!(replay.epoch, 0);
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        // Epoch bump (supervised restart): the retry must run for real and
        // carry the live incarnation's stamp.
        epoch.store(1, Ordering::Relaxed);
        kernel.send(cmd.encode()).unwrap();
        let reexec = Response::decode(&kernel.recv().unwrap()).unwrap();
        assert_eq!(reexec.epoch, 1, "stale cached stamp would wedge the caller");
        assert_eq!(executions.load(Ordering::SeqCst), 2, "new incarnation must re-execute");
        drop(kernel);
        daemon.join().unwrap();
    }

    /// Regression (pending-table leak): before the waiter registry, every
    /// response routed for a seq nobody was waiting on — late answers to
    /// timed-out or failed-over attempts — was stashed forever.
    #[test]
    fn unclaimed_routed_responses_expire_instead_of_leaking() {
        let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), adder());
        let orphan =
            |seq: u64| Response { seq, epoch: 0, status: Status::Ok, payload: Bytes::new() };

        // No registered waiter: the stash is refused and counted.
        engine.route_response(orphan(99));
        assert_eq!(engine.pending_len(), 0, "orphan response must not be stashed");
        assert_eq!(engine.stats().pending_expired, 1);

        // A registered waiter's response parks and is claimable once.
        engine.register_waiter(7);
        engine.route_response(orphan(7));
        assert_eq!(engine.pending_len(), 1);
        assert_eq!(engine.stats().pending_high_water, 1);
        assert!(engine.take_routed(7).is_some());
        engine.deregister_waiter(7);

        // Deregistering expires a stash the caller never claimed (it gave
        // up and left) — the exact shape of the leak.
        engine.register_waiter(8);
        engine.route_response(orphan(8));
        engine.deregister_waiter(8);
        assert_eq!(engine.pending_len(), 0, "abandoned stash must be expired");
        assert!(engine.take_routed(8).is_none());
        assert_eq!(engine.stats().pending_expired, 2);

        // And the deadline-path sweep catches anything the gates missed.
        engine.register_waiter(9);
        engine.route_response(orphan(9));
        engine.waiters.lock().unwrap().remove(&9); // waiter vanishes without expiry
        engine.sweep_pending();
        assert_eq!(engine.pending_len(), 0, "sweep must clear orphaned stashes");
        assert_eq!(engine.stats().pending_expired, 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::wire::Encoder;
    use lake_sim::{FaultPlan, FaultSpec};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    proptest! {
        /// Retry-with-backoff never duplicates a non-idempotent call: no
        /// matter what the link drops or corrupts, the handler executes at
        /// most once per issued call.
        #[test]
        fn non_idempotent_calls_never_execute_twice(
            seed: u64,
            drop_prob in 0.0f64..0.5,
            corrupt_prob in 0.0f64..0.3,
        ) {
            let executions = Arc::new(AtomicUsize::new(0));
            let execs = executions.clone();
            let handler = Arc::new(move |_: ApiId, _: &[u8]| -> Result<Bytes, Status> {
                execs.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            });
            let plan = Arc::new(FaultPlan::new(
                FaultSpec { drop_prob, corrupt_prob, ..Default::default() },
                seed,
            ));
            let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), handler)
                .with_policy(CallPolicy {
                    deadline: Duration::from_micros(100),
                    max_attempts: 6,
                    backoff: Duration::from_micros(10),
                    recv_patience: None,
                })
                .with_faults(plan);
            // NOT registered idempotent.
            const CALLS: usize = 40;
            for i in 0..CALLS {
                let mut e = Encoder::new();
                e.put_u64(i as u64);
                let _ = engine.call(ApiId(77), e.finish());
            }
            let executed = executions.load(Ordering::SeqCst);
            prop_assert!(
                executed <= CALLS,
                "non-idempotent handler ran {executed} times for {CALLS} calls"
            );
            // And every execution is accounted: calls that returned Ok did run.
            let stats = engine.stats();
            prop_assert_eq!(stats.calls as usize, CALLS);
        }

        /// Idempotent registration is what unlocks retries: the same fault
        /// pattern with idempotent registration may execute more than once
        /// but must never lose a result silently (every Ok is a real
        /// execution's result).
        #[test]
        fn idempotent_retries_execute_at_least_once_per_ok(
            seed: u64,
            drop_prob in 0.0f64..0.4,
        ) {
            let executions = Arc::new(AtomicUsize::new(0));
            let execs = executions.clone();
            let handler = Arc::new(move |_: ApiId, _: &[u8]| -> Result<Bytes, Status> {
                execs.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            });
            let plan = Arc::new(FaultPlan::new(
                FaultSpec { drop_prob, ..Default::default() },
                seed,
            ));
            let engine = CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), handler)
                .with_policy(CallPolicy {
                    deadline: Duration::from_micros(100),
                    max_attempts: 6,
                    backoff: Duration::from_micros(10),
                    recv_patience: None,
                })
                .with_faults(plan);
            engine.register_api(ApiId(88), true);
            let mut oks = 0usize;
            for _ in 0..40 {
                if engine.call(ApiId(88), Bytes::new()).is_ok() {
                    oks += 1;
                }
            }
            prop_assert!(executions.load(Ordering::SeqCst) >= oks);
        }

        /// Burst encode → daemon decode → per-entry dispatch → response
        /// decode is a lossless round trip for arbitrary entry counts and
        /// payload shapes: every entry comes back in order with its own
        /// payload.
        #[test]
        fn burst_roundtrip_preserves_order_and_payloads(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96),
                1..24,
            ),
        ) {
            let engine = CallEngine::in_process(
                Mechanism::Mmap,
                SharedClock::new(),
                Arc::new(|api: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
                    // Echo payload tagged with the api id so a cross-wired
                    // entry is detectable.
                    let mut e = Encoder::new();
                    e.put_u32(api.0);
                    e.put_bytes(payload);
                    Ok(e.finish())
                }),
            );
            let entries =
                payloads.iter().enumerate().map(|(i, p)| (ApiId(i as u32 + 1), &p[..]));
            let body = engine
                .call(ApiId(BURST_API_BIT), crate::queue::encode_burst(entries))
                .expect("burst frame failed");
            let results = decode_burst_response(&body, payloads.len()).expect("burst body");
            for (i, (result, want)) in results.into_iter().zip(&payloads).enumerate() {
                let got = result.expect("echo entry failed");
                let mut d = crate::wire::Decoder::new(&got);
                prop_assert_eq!(d.get_u32().unwrap() as usize, i + 1, "entry cross-wired");
                prop_assert_eq!(d.get_bytes().unwrap(), &want[..]);
            }
        }
    }
}
