//! The daemon executor: `lakeD`'s one serve loop, from a single thread up
//! to a multi-worker, out-of-order request pipeline.
//!
//! [`serve_executor`] writes each step once. The **acceptor** (the calling
//! thread, sole `recv` consumer so the SPSC ring invariant holds on the
//! command direction) admits every frame: it decodes it, answers malformed
//! frames and dedup replays directly, and marks a fresh seq in flight.
//! Executing an admitted command — unwrapping a staged shm payload, whose
//! pinned pages stay locked for exactly the duration of the handler call,
//! dispatching it and stamping the response — is one shared step too. The
//! width decides only where an admitted command runs:
//!
//! * **Width 1** runs it inline on the acceptor and answers with one
//!   `send` before the next `recv`: the paper's receive, deserialize,
//!   execute, respond loop. A slow inference head-of-line-blocks every
//!   pipelined caller behind it.
//! * **Width ≥ 2** splits the loop into a pipeline. The acceptor
//!   classifies each command's ordering requirements and hands
//!   independent work to a fixed pool of **workers**, which execute it
//!   and push finished responses onto an MPSC completion mux
//!   ([`lake_transport::completion_queue`]), drained by a single
//!   **responder**, the sole `send` producer. It coalesces every
//!   completion available per wakeup into one [`Channel::send_batch`]
//!   doorbell, marks dedup entries complete, and re-admits deferred work
//!   whose ordering barriers have lifted.
//!
//! # Ordering
//!
//! At width 1 commands run in arrival order, which honours every
//! constraint. Wider, handlers advertise per-command constraints through
//! [`ApiHandler::classify`]:
//!
//! * [`CommandClass::Concurrent`] commands run on any worker at any time.
//! * [`CommandClass::Keyed`]`(k)` commands share resource `k` (a model id)
//!   and run concurrently with each other, but never across a barrier on
//!   `k`.
//! * [`CommandClass::KeyedBarrier`]`(k)` commands (hot-swap, train,
//!   unload) wait for every in-flight command on `k`, run exclusively
//!   with respect to `k`, and hold back later commands on `k` until they
//!   finish — preserving the model store's "in-flight rows finish on
//!   version v, post-ack requests see v+1" hot-swap contract.
//! * [`CommandClass::Exclusive`] commands drain the whole pipeline and
//!   run alone — the default, so an unclassified handler degrades to
//!   serial execution rather than to a data race.
//!
//! Deferral is strict FIFO: once one command parks behind a barrier,
//! every later command parks behind *it*, so two barriers can never
//! reorder against each other.
//!
//! # Crash fencing
//!
//! Execution loads the incarnation epoch immediately before running a
//! command and stamps it into the response: a crash mid-flight means
//! in-flight responses carry the dead epoch and the stub-side fence
//! discards them. The dedup table (8 shards × 16 entries, a 128-deep
//! at-most-once window) tags each entry with its epoch, so replays are
//! only served within the incarnation that computed them.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;
use lake_shm::ShmRegion;
use lake_sim::{ParkMeter, ParkStats, SharedClock};
use lake_transport::{completion_queue, Channel, MuxSender};

use crate::command::{ApiId, Command, CommandRef, Response, Status, SEQ_UNMATCHED};
use crate::engine::{
    dispatch, fit_response, ApiHandler, BURST_API_BIT, MAX_BURST_ENTRIES, STAGED_API_BIT,
};
use crate::perf::PerfCounters;
use crate::wire::Decoder;

/// Ordering constraint one command places on the parallel executor,
/// reported by [`ApiHandler::classify`].
///
/// For staged commands the executor resolves the shm descriptor and
/// passes `classify` the first 8 bytes of the *staged* payload (the
/// keyed APIs all lead with their `u64` model id), so classification
/// must only inspect a fixed-size payload prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// No ordering constraint: safe to run concurrently with anything
    /// except an [`CommandClass::Exclusive`] command.
    Concurrent,
    /// Reads or uses keyed resource `k`: concurrent with other commands
    /// on `k`, ordered against [`CommandClass::KeyedBarrier`]`(k)`.
    Keyed(u64),
    /// Mutates keyed resource `k`: waits for all in-flight work on `k`
    /// and blocks later work on `k` until it completes.
    KeyedBarrier(u64),
    /// Runs completely alone; the conservative default.
    Exclusive,
}

/// A job's joined ordering class — a burst frame may touch several keys.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobClass {
    Concurrent,
    Keyed(Vec<u64>),
    KeyedBarrier(u64),
    Exclusive,
}

/// Sharding of the dedup table: 8 shards × 16 entries is a 128-deep
/// at-most-once window, and the acceptor and responder touch disjoint
/// seqs without contending.
const DEDUP_SHARDS: u64 = 8;
/// Completed entries retained per shard before LRU trim.
const DEDUP_SHARD_CAP: usize = 16;

enum DedupEntry {
    /// This seq is executing; duplicates wait for its response.
    /// In-flight entries are pinned — never evicted by the LRU trim.
    InFlight {
        dup_waiters: u32,
    },
    Done {
        epoch: u64,
        response: Response,
    },
}

#[derive(Default)]
struct DedupShard {
    entries: HashMap<u64, DedupEntry>,
    order: VecDeque<u64>,
}

/// Seq-sharded at-most-once window, one per serve loop.
struct DedupTable {
    shards: Vec<Mutex<DedupShard>>,
}

/// Outcome of admitting a freshly received seq.
enum Admission {
    /// Not seen (this incarnation): execute it. `evicted` reports whether
    /// admitting it trimmed an older completed entry.
    Execute { evicted: bool },
    /// Completed under the current incarnation: replay the cached answer.
    Replay(Response),
    /// Currently executing: the duplicate is answered at completion.
    DuplicateInFlight,
}

impl DedupTable {
    fn new() -> Self {
        DedupTable { shards: (0..DEDUP_SHARDS).map(|_| Mutex::default()).collect() }
    }

    fn shard(&self, seq: u64) -> &Mutex<DedupShard> {
        &self.shards[(seq % DEDUP_SHARDS) as usize]
    }

    /// Admits a freshly received seq: replay it, attach it to an in-flight
    /// execution, or mark it in flight to execute.
    fn begin(&self, seq: u64, now_epoch: u64) -> Admission {
        let mut shard = self.shard(seq).lock().expect("dedup poisoned");
        match shard.entries.get_mut(&seq) {
            Some(DedupEntry::InFlight { dup_waiters }) => {
                *dup_waiters += 1;
                return Admission::DuplicateInFlight;
            }
            Some(DedupEntry::Done { epoch, response }) if *epoch == now_epoch => {
                return Admission::Replay(response.clone());
            }
            Some(stale) => {
                // Completed under a dead incarnation: the new incarnation
                // never ran this command, so it must execute for real.
                *stale = DedupEntry::InFlight { dup_waiters: 0 };
                return Admission::Execute { evicted: false };
            }
            None => {}
        }
        shard.entries.insert(seq, DedupEntry::InFlight { dup_waiters: 0 });
        shard.order.push_back(seq);
        let evicted = Self::trim(&mut shard);
        Admission::Execute { evicted }
    }

    /// Caches a finished seq's response for replays and returns how many
    /// duplicate frames arrived while it executed (each owed its own copy
    /// of the response).
    fn complete(&self, seq: u64, response: &Response) -> u32 {
        let mut shard = self.shard(seq).lock().expect("dedup poisoned");
        let dup_waiters = match shard.entries.get(&seq) {
            Some(DedupEntry::InFlight { dup_waiters }) => *dup_waiters,
            _ => 0,
        };
        shard
            .entries
            .insert(seq, DedupEntry::Done { epoch: response.epoch, response: response.clone() });
        dup_waiters
    }

    /// Evicts the oldest *completed* entry once the shard exceeds its
    /// capacity; in-flight entries are pinned (they are bounded by the
    /// number of concurrently executing commands, not by retry floods).
    fn trim(shard: &mut DedupShard) -> bool {
        if shard.order.len() <= DEDUP_SHARD_CAP {
            return false;
        }
        for i in 0..shard.order.len() {
            let seq = shard.order[i];
            if matches!(shard.entries.get(&seq), Some(DedupEntry::Done { .. })) {
                shard.order.remove(i);
                shard.entries.remove(&seq);
                return true;
            }
        }
        false
    }
}

/// Live counters for one daemon's executor, shared with
/// `Lake::perf_report()`. All fields are updated with relaxed atomics by
/// the acceptor, workers, and responder; [`ExecutorStats::snapshot`]
/// reads a coherent-enough view for reporting.
#[derive(Debug, Default)]
pub struct ExecutorStats {
    workers: AtomicU64,
    frames: AtomicU64,
    executed: AtomicU64,
    replays: AtomicU64,
    dup_inflight: AtomicU64,
    malformed: AtomicU64,
    dedup_evictions: AtomicU64,
    completions: AtomicU64,
    response_doorbells: AtomicU64,
    deferred: AtomicU64,
    barriers: AtomicU64,
    inflight_high_water: AtomicU64,
    deferred_high_water: AtomicU64,
    park: ParkMeter,
}

/// Point-in-time copy of [`ExecutorStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorSnapshot {
    /// Worker threads the executor is running with (1 = each frame runs
    /// inline on the acceptor).
    pub workers: u64,
    /// Frames received by the acceptor.
    pub frames: u64,
    /// Commands dispatched to the handler (replays excluded).
    pub executed: u64,
    /// Duplicate/retried frames answered from the dedup cache.
    pub replays: u64,
    /// Duplicate frames that arrived while their seq was still
    /// executing; answered when the original completed.
    pub dup_inflight: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Completed dedup entries trimmed out of the at-most-once window.
    pub dedup_evictions: u64,
    /// Responses drained through the completion mux (parallel mode).
    pub completions: u64,
    /// `send_batch` doorbells rung by the responder; `completions /
    /// response_doorbells` is the response-side coalescing factor.
    pub response_doorbells: u64,
    /// Jobs parked behind an ordering constraint before running.
    pub deferred: u64,
    /// Barrier (keyed-barrier or exclusive) jobs admitted.
    pub barriers: u64,
    /// Most commands ever executing concurrently.
    pub inflight_high_water: u64,
    /// Deepest the deferred queue ever got.
    pub deferred_high_water: u64,
    /// Worker park episodes (blocking waits for work).
    pub worker_parks: u64,
    /// Virtual microseconds workers spent parked while siblings
    /// advanced the clock.
    pub worker_idle_us: u64,
    /// Most workers ever parked simultaneously.
    pub workers_parked_high_water: u64,
}

impl ExecutorStats {
    /// Creates a zeroed stats block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the live counters.
    pub fn snapshot(&self) -> ExecutorSnapshot {
        let ParkStats { parks, idle_ns, parked_high_water } = self.park.stats();
        ExecutorSnapshot {
            workers: self.workers.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            dup_inflight: self.dup_inflight.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            dedup_evictions: self.dedup_evictions.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            response_doorbells: self.response_doorbells.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            inflight_high_water: self.inflight_high_water.load(Ordering::Relaxed),
            deferred_high_water: self.deferred_high_water.load(Ordering::Relaxed),
            worker_parks: parks,
            worker_idle_us: idle_ns / 1_000,
            workers_parked_high_water: parked_high_water,
        }
    }
}

/// One admitted-and-classified command waiting for (or on) a worker. The
/// raw frame rides along so the worker's dispatch borrows payload bytes
/// from it (or from shm, for staged commands) exactly as inline execution
/// does — no payload copy is introduced by the handoff.
struct Job {
    class: JobClass,
    frame: Vec<u8>,
}

enum Completion {
    /// A worker finished a job.
    Executed { class: JobClass, response: Response },
    /// Acceptor-answered frame (replay or malformed): no ordering state
    /// to release, just a response to send.
    Direct(Response),
    /// The acceptor exited; wakes the responder to begin shutdown.
    Shutdown,
}

/// What is currently running, what holds which barrier, and what waits.
#[derive(Default)]
struct ExecState {
    inflight_total: usize,
    keyed: HashMap<u64, usize>,
    barriers_held: HashSet<u64>,
    exclusive_running: bool,
    deferred: VecDeque<Job>,
}

impl ExecState {
    fn eligible(&self, class: &JobClass) -> bool {
        if self.exclusive_running {
            return false;
        }
        match class {
            JobClass::Concurrent => true,
            JobClass::Keyed(keys) => keys.iter().all(|k| !self.barriers_held.contains(k)),
            JobClass::KeyedBarrier(k) => {
                !self.barriers_held.contains(k) && self.keyed.get(k).copied().unwrap_or(0) == 0
            }
            JobClass::Exclusive => self.inflight_total == 0,
        }
    }

    fn admit(&mut self, class: &JobClass, stats: &ExecutorStats) {
        self.inflight_total += 1;
        stats.inflight_high_water.fetch_max(self.inflight_total as u64, Ordering::Relaxed);
        match class {
            JobClass::Concurrent => {}
            JobClass::Keyed(keys) => {
                for k in keys {
                    *self.keyed.entry(*k).or_insert(0) += 1;
                }
            }
            JobClass::KeyedBarrier(k) => {
                self.barriers_held.insert(*k);
                *self.keyed.entry(*k).or_insert(0) += 1;
                stats.barriers.fetch_add(1, Ordering::Relaxed);
            }
            JobClass::Exclusive => {
                self.exclusive_running = true;
                stats.barriers.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn release(&mut self, class: &JobClass) {
        self.inflight_total -= 1;
        match class {
            JobClass::Concurrent => {}
            JobClass::Keyed(keys) => {
                for k in keys {
                    self.release_key(*k);
                }
            }
            JobClass::KeyedBarrier(k) => {
                self.barriers_held.remove(k);
                self.release_key(*k);
            }
            JobClass::Exclusive => self.exclusive_running = false,
        }
    }

    fn release_key(&mut self, k: u64) {
        if let Some(count) = self.keyed.get_mut(&k) {
            *count -= 1;
            if *count == 0 {
                self.keyed.remove(&k);
            }
        }
    }
}

/// Classifies one (possibly staged) command. Staged descriptors are
/// resolved so the handler classifies against the first bytes of the real
/// payload; anything unresolvable degrades to [`CommandClass::Exclusive`]
/// — the dispatch itself will produce the `Malformed` answer.
fn classify_one(
    handler: &dyn ApiHandler,
    staging: Option<&ShmRegion>,
    api: ApiId,
    payload: &[u8],
) -> CommandClass {
    if api.0 & STAGED_API_BIT == 0 {
        return handler.classify(api, payload);
    }
    let real = ApiId(api.0 & !STAGED_API_BIT);
    let Some(region) = staging else {
        return CommandClass::Exclusive;
    };
    let mut d = Decoder::new(payload);
    let (offset, len) = match (d.get_u64(), d.get_u64()) {
        (Ok(o), Ok(l)) => (o as usize, l as usize),
        _ => return CommandClass::Exclusive,
    };
    let Ok(buf) = region.resolve(offset) else {
        return CommandClass::Exclusive;
    };
    if len > buf.len() {
        return CommandClass::Exclusive;
    }
    let take = len.min(8);
    let mut prefix = [0u8; 8];
    let resolved = region.with_bytes(&buf, |bytes| prefix[..take].copy_from_slice(&bytes[..take]));
    match resolved {
        Ok(()) => handler.classify(real, &prefix[..take]),
        Err(_) => CommandClass::Exclusive,
    }
}

/// Joins the classes of every command in a frame (one, or a burst's
/// many). A burst carrying any barrier escalates to [`JobClass::Exclusive`]
/// — its entries execute sequentially inside one job anyway, and global
/// exclusion is the one class that preserves every pairwise constraint.
fn classify_frame(
    handler: &dyn ApiHandler,
    staging: Option<&ShmRegion>,
    api: ApiId,
    payload: &[u8],
) -> JobClass {
    if api.0 & BURST_API_BIT == 0 {
        return match classify_one(handler, staging, api, payload) {
            CommandClass::Concurrent => JobClass::Concurrent,
            CommandClass::Keyed(k) => JobClass::Keyed(vec![k]),
            CommandClass::KeyedBarrier(k) => JobClass::KeyedBarrier(k),
            CommandClass::Exclusive => JobClass::Exclusive,
        };
    }
    let mut d = Decoder::new(payload);
    let Ok(count) = d.get_u32() else {
        return JobClass::Exclusive;
    };
    let count = count as usize;
    if count == 0 || count > MAX_BURST_ENTRIES {
        return JobClass::Exclusive;
    }
    let mut keys: Vec<u64> = Vec::new();
    let mut any_keyed = false;
    for _ in 0..count {
        let Ok(entry_api) = d.get_u32() else {
            return JobClass::Exclusive;
        };
        let Ok(entry) = d.get_bytes() else {
            return JobClass::Exclusive;
        };
        match classify_one(handler, staging, ApiId(entry_api), entry) {
            CommandClass::Concurrent => {}
            CommandClass::Keyed(k) => {
                any_keyed = true;
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            CommandClass::KeyedBarrier(_) | CommandClass::Exclusive => return JobClass::Exclusive,
        }
    }
    if any_keyed {
        JobClass::Keyed(keys)
    } else {
        JobClass::Concurrent
    }
}

fn submit_job(
    job: Job,
    state: &Mutex<ExecState>,
    job_tx: &crossbeam::channel::Sender<Job>,
    stats: &ExecutorStats,
) {
    let mut st = state.lock().expect("exec state poisoned");
    // Strict FIFO around barriers: a job may only jump straight to the
    // workers if nothing is already waiting — otherwise it would overtake
    // the deferred job and could violate its barrier.
    if st.deferred.is_empty() && st.eligible(&job.class) {
        st.admit(&job.class, stats);
        let _ = job_tx.send(job);
    } else {
        st.deferred.push_back(job);
        stats.deferred.fetch_add(1, Ordering::Relaxed);
        stats.deferred_high_water.fetch_max(st.deferred.len() as u64, Ordering::Relaxed);
    }
}

/// What [`admit`] decided for one received frame.
enum Admitted<'f> {
    /// Answer without executing: a dedup replay or a malformed frame.
    Answer(Response),
    /// A duplicate of a seq still executing; it is answered when the
    /// original completes.
    Duplicate,
    /// Fresh in this incarnation: execute it.
    Execute(CommandRef<'f>),
}

/// Counts and decodes one received frame and admits it through the dedup
/// window. Undecodable frames are answered `Malformed` with the seq
/// recovered from the header when it survived, or [`SEQ_UNMATCHED`] —
/// never a fabricated seq a pipelined caller could mis-match — and are
/// never cached, so an intact retry of the same seq runs for real.
fn admit<'f>(
    frame: &'f [u8],
    dedup: &DedupTable,
    now_epoch: u64,
    stats: &ExecutorStats,
) -> Admitted<'f> {
    stats.frames.fetch_add(1, Ordering::Relaxed);
    let Ok(cmd) = Command::decode_borrowed(frame) else {
        stats.malformed.fetch_add(1, Ordering::Relaxed);
        return Admitted::Answer(Response {
            seq: Command::peek_seq(frame).unwrap_or(SEQ_UNMATCHED),
            epoch: now_epoch,
            status: Status::Malformed,
            payload: Bytes::new(),
        });
    };
    match dedup.begin(cmd.seq, now_epoch) {
        Admission::Replay(prior) => {
            stats.replays.fetch_add(1, Ordering::Relaxed);
            Admitted::Answer(prior)
        }
        Admission::DuplicateInFlight => {
            stats.dup_inflight.fetch_add(1, Ordering::Relaxed);
            Admitted::Duplicate
        }
        Admission::Execute { evicted } => {
            if evicted {
                stats.dedup_evictions.fetch_add(1, Ordering::Relaxed);
            }
            Admitted::Execute(cmd)
        }
    }
}

/// Executes one admitted command and builds its response.
///
/// The epoch is sampled at execution start: a crash struck between here
/// and the send means the response carries the dead incarnation's stamp
/// and the stub-side fence discards it. The payload is borrowed from the
/// received frame (or from shm, for staged commands), never copied.
fn execute(
    handler: &dyn ApiHandler,
    staging: Option<&ShmRegion>,
    counters: &PerfCounters,
    epoch: &AtomicU64,
    stats: &ExecutorStats,
    cmd: &CommandRef<'_>,
) -> Response {
    let now_epoch = epoch.load(Ordering::Relaxed);
    counters.note_zero_copy(cmd.payload.len());
    let (status, payload) = match dispatch(handler, staging, counters, cmd.api, cmd.payload) {
        Ok(payload) => (Status::Ok, payload),
        Err(status) => (status, Bytes::new()),
    };
    stats.executed.fetch_add(1, Ordering::Relaxed);
    Response { seq: cmd.seq, epoch: now_epoch, status, payload }
}

#[allow(clippy::too_many_arguments)] // shares serve_executor's wiring, one role
fn worker_loop(
    job_rx: crossbeam::channel::Receiver<Job>,
    done_tx: MuxSender<Completion>,
    handler: &dyn ApiHandler,
    staging: Option<&ShmRegion>,
    counters: &PerfCounters,
    epoch: &AtomicU64,
    stats: &ExecutorStats,
    clock: &SharedClock,
) {
    loop {
        let job = {
            let _parked = stats.park.park(clock);
            match job_rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        // Decoding is a pure function of the bytes, and the acceptor
        // already decoded this frame.
        let cmd = Command::decode_borrowed(&job.frame).expect("admitted frame decodes");
        let response = execute(handler, staging, counters, epoch, stats, &cmd);
        done_tx.push(Completion::Executed { class: job.class, response });
    }
}

#[allow(clippy::too_many_arguments)]
fn responder_loop<C: Channel + ?Sized>(
    endpoint: &C,
    done_rx: lake_transport::MuxReceiver<Completion>,
    dedup: &DedupTable,
    state: &Mutex<ExecState>,
    job_tx: crossbeam::channel::Sender<Job>,
    acceptor_done: &AtomicBool,
    stats: &ExecutorStats,
) {
    let mut job_tx = Some(job_tx);
    let max_frame_len = endpoint.max_frame_len();
    while let Some(batch) = done_rx.drain_wait() {
        let mut wire: Vec<Vec<u8>> = Vec::new();
        for completion in batch {
            match completion {
                Completion::Direct(response) => {
                    wire.push(fit_response(response, max_frame_len).encode());
                }
                Completion::Executed { class, response } => {
                    stats.completions.fetch_add(1, Ordering::Relaxed);
                    let dup_waiters = dedup.complete(response.seq, &response);
                    let frame = fit_response(response, max_frame_len).encode();
                    // Each duplicate frame that arrived mid-execution is
                    // owed its own copy, so a retrying caller is never
                    // left waiting on a response that was already sent.
                    for _ in 0..dup_waiters {
                        wire.push(frame.clone());
                    }
                    wire.push(frame);
                    let mut st = state.lock().expect("exec state poisoned");
                    st.release(&class);
                    while let Some(front) = st.deferred.front() {
                        if !st.eligible(&front.class) {
                            break;
                        }
                        let job = st.deferred.pop_front().expect("front checked");
                        st.admit(&job.class, stats);
                        if let Some(tx) = &job_tx {
                            let _ = tx.send(job);
                        }
                    }
                }
                Completion::Shutdown => {}
            }
        }
        if !wire.is_empty() {
            stats.response_doorbells.fetch_add(1, Ordering::Relaxed);
            if endpoint.send_batch(wire).is_err() {
                // Peer gone: stop sending. Dropping job_tx (below, via
                // return) releases the workers.
                return;
            }
        }
        if job_tx.is_some() && acceptor_done.load(Ordering::Acquire) {
            let st = state.lock().expect("exec state poisoned");
            if st.inflight_total == 0 && st.deferred.is_empty() {
                drop(st);
                // No more work can arrive: disconnect the workers so they
                // exit, which drops their mux senders and ends this loop.
                job_tx = None;
            }
        }
    }
}

/// Runs the daemon dispatch loop over `endpoint` until the peer
/// disconnects, with `workers` executing commands.
///
/// Every frame is admitted the same way at every width (decode, answer
/// malformed frames and dedup replays, mark the seq in flight); the width
/// decides only where an admitted frame runs. `workers <= 1` executes it
/// inline on the acceptor and answers it with one `send` before the next
/// `recv`. `workers > 1` runs the acceptor/worker/responder pipeline
/// described in the [module docs](self).
#[allow(clippy::too_many_arguments)]
pub fn serve_executor<C: Channel + ?Sized>(
    endpoint: &C,
    handler: &dyn ApiHandler,
    epoch: &AtomicU64,
    staging: Option<&ShmRegion>,
    counters: &PerfCounters,
    workers: usize,
    stats: &ExecutorStats,
) {
    stats.workers.store(workers.max(1) as u64, Ordering::Relaxed);
    let dedup = DedupTable::new();
    if workers <= 1 {
        while let Ok(frame) = endpoint.recv() {
            let response = match admit(&frame, &dedup, epoch.load(Ordering::Relaxed), stats) {
                Admitted::Answer(response) => response,
                // Unreachable inline: nothing is in flight between two
                // receives.
                Admitted::Duplicate => continue,
                Admitted::Execute(cmd) => {
                    let response = execute(handler, staging, counters, epoch, stats, &cmd);
                    dedup.complete(cmd.seq, &response);
                    response
                }
            };
            if endpoint.send(fit_response(response, endpoint.max_frame_len()).encode()).is_err() {
                break;
            }
        }
        return;
    }
    let clock = endpoint.clock();
    let state = Mutex::new(ExecState::default());
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
    let (done_tx, done_rx) = completion_queue::<Completion>();
    let acceptor_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            scope.spawn({
                let stats = &*stats;
                move || {
                    worker_loop(job_rx, done_tx, handler, staging, counters, epoch, stats, clock)
                }
            });
        }
        drop(job_rx);
        scope.spawn({
            let job_tx = job_tx.clone();
            let state = &state;
            let dedup = &dedup;
            let acceptor_done = &acceptor_done;
            move || responder_loop(endpoint, done_rx, dedup, state, job_tx, acceptor_done, stats)
        });

        while let Ok(frame) = endpoint.recv() {
            // The decoded command borrows the frame; the borrow ends here,
            // before the frame moves into its job.
            let class = match admit(&frame, &dedup, epoch.load(Ordering::Relaxed), stats) {
                Admitted::Answer(response) => {
                    done_tx.push(Completion::Direct(response));
                    continue;
                }
                Admitted::Duplicate => continue,
                Admitted::Execute(cmd) => classify_frame(handler, staging, cmd.api, cmd.payload),
            };
            submit_job(Job { class, frame }, &state, &job_tx, stats);
        }
        acceptor_done.store(true, Ordering::Release);
        drop(job_tx);
        // Wake the responder so it observes acceptor_done even if every
        // worker is idle and no completion is pending.
        done_tx.push(Completion::Shutdown);
        drop(done_tx);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CallEngine;
    use crate::queue::QueuePair;
    use crate::wire::Encoder;
    use lake_transport::{Link, Mechanism};
    use std::sync::Arc;
    use std::time::Duration as WallDuration;

    /// Runs per `Keyed(key)` command, concurrent across keys.
    const API_KEYED: ApiId = ApiId(10);
    /// Takes a per-key ordering barrier, like `ml.swap_model`.
    const API_BARRIER: ApiId = ApiId(11);
    /// No ordering constraint at all.
    const API_FREE: ApiId = ApiId(12);

    /// Test handler: payload is `(key, tag, sleep_ms)`; execution logs
    /// `(tag, "start"/"end")` and echoes `key * 3 + 1`.
    struct ClassifiedHandler {
        events: Mutex<Vec<(u64, &'static str)>>,
    }

    impl ClassifiedHandler {
        fn new() -> Arc<Self> {
            Arc::new(ClassifiedHandler { events: Mutex::new(Vec::new()) })
        }

        fn events(&self) -> Vec<(u64, &'static str)> {
            self.events.lock().unwrap().clone()
        }

        fn starts(&self, tag: u64) -> usize {
            self.events().iter().filter(|(t, p)| *t == tag && *p == "start").count()
        }
    }

    impl ApiHandler for ClassifiedHandler {
        fn handle(&self, _api: ApiId, payload: &[u8]) -> Result<Bytes, Status> {
            let mut d = Decoder::new(payload);
            let key = d.get_u64().map_err(|_| Status::Malformed)?;
            let tag = d.get_u64().map_err(|_| Status::Malformed)?;
            let sleep_ms = d.get_u64().map_err(|_| Status::Malformed)?;
            self.events.lock().unwrap().push((tag, "start"));
            if sleep_ms > 0 {
                std::thread::sleep(WallDuration::from_millis(sleep_ms));
            }
            self.events.lock().unwrap().push((tag, "end"));
            let mut e = Encoder::new();
            e.put_u64(key * 3 + 1);
            Ok(e.finish())
        }

        fn classify(&self, api: ApiId, payload: &[u8]) -> CommandClass {
            let mut d = Decoder::new(payload);
            let key = d.get_u64().unwrap_or(0);
            match api {
                API_KEYED => CommandClass::Keyed(key),
                API_BARRIER => CommandClass::KeyedBarrier(key),
                API_FREE => CommandClass::Concurrent,
                _ => CommandClass::Exclusive,
            }
        }
    }

    fn cmd(seq: u64, api: ApiId, key: u64, tag: u64, sleep_ms: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(key).put_u64(tag).put_u64(sleep_ms);
        Command { api, seq, payload: e.finish() }.encode()
    }

    /// Daemon fixture: `serve_executor` on its own thread over a link.
    struct Fixture {
        kernel: lake_transport::LinkEndpoint,
        stats: Arc<ExecutorStats>,
        daemon: Option<std::thread::JoinHandle<()>>,
    }

    impl Fixture {
        fn start(handler: Arc<ClassifiedHandler>, workers: usize) -> Fixture {
            let clock = SharedClock::new();
            let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
            let stats = Arc::new(ExecutorStats::new());
            let daemon = {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    let epoch = AtomicU64::new(0);
                    let counters = PerfCounters::new();
                    serve_executor(
                        &user,
                        handler.as_ref(),
                        &epoch,
                        None,
                        &counters,
                        workers,
                        &stats,
                    );
                })
            };
            Fixture { kernel, stats, daemon: Some(daemon) }
        }

        fn recv_response(&self) -> Response {
            let frame = self.kernel.recv().expect("daemon alive");
            Response::decode(&frame).expect("valid response")
        }

        fn shutdown(mut self) -> Arc<ExecutorStats> {
            let stats = Arc::clone(&self.stats);
            let kernel = self.kernel;
            drop(kernel);
            self.daemon.take().unwrap().join().unwrap();
            stats
        }
    }

    #[test]
    fn independent_keys_complete_out_of_order() {
        let handler = ClassifiedHandler::new();
        let fx = Fixture::start(Arc::clone(&handler), 4);
        // Key 0 is slow; keys 1..8 are instant. With 4 workers the slow
        // command cannot head-of-line-block the others.
        for i in 0..8u64 {
            let sleep = if i == 0 { 150 } else { 0 };
            fx.kernel.send(cmd(i + 1, API_KEYED, i, i, sleep)).unwrap();
        }
        let first = fx.recv_response();
        assert_ne!(first.seq, 1, "slow command must not block fast ones");
        let mut seen = vec![first];
        while seen.len() < 8 {
            seen.push(fx.recv_response());
        }
        for resp in &seen {
            assert_eq!(resp.status, Status::Ok);
            let key = resp.seq - 1;
            let mut d = Decoder::new(&resp.payload);
            assert_eq!(d.get_u64().unwrap(), key * 3 + 1);
        }
        let stats = fx.shutdown();
        let snap = stats.snapshot();
        assert_eq!(snap.frames, 8);
        assert_eq!(snap.executed, 8);
        assert_eq!(snap.completions, 8);
        assert!(snap.inflight_high_water >= 2, "no concurrency observed");
    }

    #[test]
    fn keyed_barrier_orders_against_inflight_and_later_work() {
        let handler = ClassifiedHandler::new();
        let fx = Fixture::start(Arc::clone(&handler), 4);
        // A (keyed, slow) then B (barrier on same key) then C (keyed):
        // B must wait for A, C must wait for B — the hot-swap contract.
        fx.kernel.send(cmd(1, API_KEYED, 7, 100, 60)).unwrap();
        fx.kernel.send(cmd(2, API_BARRIER, 7, 200, 0)).unwrap();
        fx.kernel.send(cmd(3, API_KEYED, 7, 300, 0)).unwrap();
        for _ in 0..3 {
            let r = fx.recv_response();
            assert_eq!(r.status, Status::Ok);
        }
        let events = handler.events();
        let pos =
            |tag, phase| events.iter().position(|e| *e == (tag, phase)).expect("event logged");
        assert!(pos(100, "end") < pos(200, "start"), "barrier overtook in-flight work");
        assert!(pos(200, "end") < pos(300, "start"), "later work overtook the barrier");
        let stats = fx.shutdown();
        assert_eq!(stats.snapshot().barriers, 1);
        assert_eq!(stats.snapshot().deferred, 2);
    }

    #[test]
    fn duplicate_of_inflight_seq_executes_once_answers_twice() {
        let handler = ClassifiedHandler::new();
        let fx = Fixture::start(Arc::clone(&handler), 4);
        let frame = cmd(9, API_KEYED, 1, 500, 80);
        fx.kernel.send(frame.clone()).unwrap();
        // Give the acceptor time to mark seq 9 in-flight, then duplicate.
        std::thread::sleep(WallDuration::from_millis(20));
        fx.kernel.send(frame).unwrap();
        let a = fx.recv_response();
        let b = fx.recv_response();
        assert_eq!(a.seq, 9);
        assert_eq!(b.seq, 9);
        assert_eq!(a.payload, b.payload);
        assert_eq!(handler.starts(500), 1, "duplicate must not re-execute");
        let stats = fx.shutdown();
        assert_eq!(stats.snapshot().dup_inflight, 1);
    }

    #[test]
    fn completed_duplicate_is_replayed_from_cache() {
        let handler = ClassifiedHandler::new();
        let fx = Fixture::start(Arc::clone(&handler), 4);
        let frame = cmd(11, API_KEYED, 2, 600, 0);
        fx.kernel.send(frame.clone()).unwrap();
        let first = fx.recv_response();
        fx.kernel.send(frame).unwrap();
        let second = fx.recv_response();
        assert_eq!(first.payload, second.payload);
        assert_eq!(handler.starts(600), 1);
        let stats = fx.shutdown();
        assert_eq!(stats.snapshot().replays, 1);
    }

    /// Satellite: a retried seq whose dedup entry was trimmed under
    /// pressure re-executes — which is exactly why the *client* engine
    /// only ever retries idempotency-registered APIs (the
    /// `non_idempotent_calls_never_execute_twice` property in the engine
    /// tests); the daemon-side window is a best-effort replay cache, not
    /// the correctness boundary.
    #[test]
    fn evicted_seq_reexecutes_and_is_counted() {
        let handler = ClassifiedHandler::new();
        // workers=1: each frame runs inline on the acceptor, same table.
        let fx = Fixture::start(Arc::clone(&handler), 1);
        fx.kernel.send(cmd(5, API_KEYED, 3, 700, 0)).unwrap();
        assert_eq!(fx.recv_response().status, Status::Ok);
        // Flood well past the 128-entry window so seq 5's shard trims it.
        for i in 0..160u64 {
            fx.kernel.send(cmd(1000 + i, API_KEYED, 3, 701, 0)).unwrap();
        }
        for _ in 0..160 {
            fx.recv_response();
        }
        fx.kernel.send(cmd(5, API_KEYED, 3, 700, 0)).unwrap();
        assert_eq!(fx.recv_response().status, Status::Ok);
        assert_eq!(handler.starts(700), 2, "evicted retry must re-execute");
        let stats = fx.shutdown();
        assert!(stats.snapshot().dedup_evictions > 0);
    }

    #[test]
    fn dedup_trim_pins_inflight_entries() {
        let table = DedupTable::new();
        // Fill one shard (seqs ≡ 0 mod 8) with in-flight entries.
        for i in 0..(DEDUP_SHARD_CAP as u64 + 4) {
            assert!(matches!(table.begin(i * 8, 0), Admission::Execute { .. }));
        }
        // Every entry is in-flight: nothing is evictable, all replayable
        // once completed.
        for i in 0..(DEDUP_SHARD_CAP as u64 + 4) {
            let resp = Response { seq: i * 8, epoch: 0, status: Status::Ok, payload: Bytes::new() };
            table.complete(i * 8, &resp);
            assert!(matches!(table.begin(i * 8, 0), Admission::Replay(_)));
        }
    }

    #[test]
    fn stale_epoch_entry_reexecutes_under_new_incarnation() {
        let table = DedupTable::new();
        assert!(matches!(table.begin(1, 0), Admission::Execute { .. }));
        let resp = Response { seq: 1, epoch: 0, status: Status::Ok, payload: Bytes::new() };
        table.complete(1, &resp);
        assert!(matches!(table.begin(1, 0), Admission::Replay(_)));
        // Epoch bumped (daemon restarted): the cached answer is dead.
        assert!(matches!(table.begin(1, 1), Admission::Execute { .. }));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic per-(seed, i) jitter so every proptest case is a
        /// different interleaving of worker finish times.
        fn jitter_us(seed: u64, i: u64) -> u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            (x >> 33) % 400
        }

        struct JitterHandler {
            seed: u64,
        }

        impl ApiHandler for JitterHandler {
            fn handle(&self, _api: ApiId, payload: &[u8]) -> Result<Bytes, Status> {
                let mut d = Decoder::new(payload);
                let key = d.get_u64().map_err(|_| Status::Malformed)?;
                let us = jitter_us(self.seed, key);
                if us > 0 {
                    std::thread::sleep(WallDuration::from_micros(us));
                }
                let mut e = Encoder::new();
                e.put_u64(key.wrapping_mul(3).wrapping_add(1));
                Ok(e.finish())
            }

            fn classify(&self, _api: ApiId, payload: &[u8]) -> CommandClass {
                let mut d = Decoder::new(payload);
                CommandClass::Keyed(d.get_u64().unwrap_or(0))
            }
        }

        /// One frame of a serve script.
        #[derive(Debug, Clone)]
        enum Step {
            /// A fresh seq, answered `key * 3 + 1`.
            Fresh { key: u64 },
            /// A fresh seq whose empty payload the handler rejects.
            Rejected,
            /// Resends the `pick % sent`-th frame sent so far.
            Repeat { pick: usize },
            /// A fresh frame with byte `at % len` flipped in transit.
            Corrupt { key: u64, at: usize },
        }

        fn step() -> impl Strategy<Value = Step> {
            // Repeat is listed twice: repeats carry the replay, eviction
            // and epoch-fencing cases.
            prop_oneof![
                (0u64..1_000).prop_map(|key| Step::Fresh { key }),
                Just(Step::Rejected),
                (0usize..64).prop_map(|pick| Step::Repeat { pick }),
                (0usize..64).prop_map(|pick| Step::Repeat { pick }),
                (0u64..1_000, 0usize..64).prop_map(|(key, at)| Step::Corrupt { key, at }),
            ]
        }

        type Answer = Option<(u64, u64, Status, Bytes)>;

        /// Sends `script` one frame at a time (send, then receive the
        /// answer) to a `workers`-wide executor; a step whose first element
        /// is 0 bumps the incarnation epoch before its frame.
        fn run_script(script: &[(u8, Step)], workers: usize) -> (Vec<Answer>, ExecutorSnapshot) {
            let (kernel, user) = Link::pair(Mechanism::Netlink, SharedClock::new());
            let epoch = Arc::new(AtomicU64::new(0));
            let stats = Arc::new(ExecutorStats::new());
            let daemon = {
                let (epoch, stats) = (Arc::clone(&epoch), Arc::clone(&stats));
                std::thread::spawn(move || {
                    let handler = ClassifiedHandler::new();
                    let counters = PerfCounters::new();
                    serve_executor(&user, &*handler, &epoch, None, &counters, workers, &stats);
                })
            };
            let mut sent: Vec<Vec<u8>> = Vec::new();
            let mut next_seq = 0u64;
            let mut answers = Vec::new();
            for (bump, step) in script {
                if *bump == 0 {
                    epoch.fetch_add(1, Ordering::Relaxed);
                }
                // Every fresh seq lands in one dedup shard, so a long
                // script overflows its 16-entry window and evicts.
                let mut fresh = || {
                    next_seq += 1;
                    next_seq * DEDUP_SHARDS
                };
                let frame = match *step {
                    Step::Fresh { key } => cmd(fresh(), API_KEYED, key, 0, 0),
                    Step::Rejected => {
                        Command { api: API_FREE, seq: fresh(), payload: Bytes::new() }.encode()
                    }
                    Step::Repeat { pick } if !sent.is_empty() => sent[pick % sent.len()].clone(),
                    Step::Repeat { pick } => cmd(fresh(), API_KEYED, pick as u64, 0, 0),
                    Step::Corrupt { key, at } => {
                        let mut frame = cmd(fresh(), API_KEYED, key, 0, 0);
                        let i = at % frame.len();
                        frame[i] ^= 0x5a;
                        frame
                    }
                };
                kernel.send(frame.clone()).unwrap();
                sent.push(frame);
                // A frame left unanswered ends the script as `None`.
                let Some(reply) = kernel.recv_timeout(WallDuration::from_secs(5)).unwrap() else {
                    answers.push(None);
                    break;
                };
                let r = Response::decode(&reply).expect("valid response");
                answers.push(Some((r.seq, r.epoch, r.status, r.payload)));
            }
            drop(kernel);
            daemon.join().unwrap();
            (answers, stats.snapshot())
        }

        proptest! {
            /// Width 1 (inline on the acceptor) and width 4 (the worker
            /// pipeline) admit and execute with the same code, so one
            /// frame at a time they give the same answers — replays,
            /// evictions, malformed frames and epoch fencing included —
            /// and count the same work.
            #[test]
            fn width_one_and_width_four_serve_identically(
                script in proptest::collection::vec((0u8..8, step()), 1..65)
            ) {
                let (inline, one) = run_script(&script, 1);
                let (pooled, four) = run_script(&script, 4);
                prop_assert_eq!(inline, pooled);
                let counted = |s: &ExecutorSnapshot| {
                    (s.frames, s.executed, s.replays, s.malformed, s.dedup_evictions)
                };
                prop_assert_eq!(counted(&one), counted(&four));
                prop_assert_eq!(
                    (one.completions, one.response_doorbells, one.inflight_high_water),
                    (0, 0, 0)
                );
            }

            /// Satellite: whatever order the workers finish in, every
            /// submission gets exactly one completion with its own
            /// answer, nothing is lost or duplicated, and the stub-side
            /// pending table stays bounded at the queue depth.
            #[test]
            fn out_of_order_completions_preserve_per_seq_responses(seed in 0u64..10_000) {
                const DEPTH: usize = 64;
                let clock = SharedClock::new();
                let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
                let stats = Arc::new(ExecutorStats::new());
                let daemon = {
                    let stats = Arc::clone(&stats);
                    std::thread::spawn(move || {
                        let epoch = AtomicU64::new(0);
                        let counters = PerfCounters::new();
                        let handler = JitterHandler { seed };
                        serve_executor(&user, &handler, &epoch, None, &counters, 4, &stats);
                    })
                };
                let engine = Arc::new(CallEngine::linked(kernel));
                let qp = QueuePair::new(Arc::clone(&engine), DEPTH);
                let mut expected = std::collections::HashMap::new();
                for i in 0..DEPTH as u64 {
                    let mut e = Encoder::new();
                    e.put_u64(i);
                    let id = qp.submit(ApiId(10), e.finish());
                    // Flush each submission as its own frame so all 64
                    // are genuinely in flight at once and the executor is
                    // free to scramble their completion order.
                    qp.flush();
                    expected.insert(id.0, i.wrapping_mul(3).wrapping_add(1));
                }
                let completions = qp.drain();
                prop_assert_eq!(completions.len(), DEPTH, "lost or duplicated completions");
                let mut seen = std::collections::HashSet::new();
                for c in completions {
                    prop_assert!(seen.insert(c.id.0), "duplicated completion id");
                    let body = c.result.expect("remote error");
                    let mut d = Decoder::new(&body);
                    prop_assert_eq!(d.get_u64().unwrap(), expected[&c.id.0]);
                }
                prop_assert!(engine.stats().pending_high_water <= DEPTH as u64);
                drop(qp);
                drop(engine);
                daemon.join().unwrap();
                let snap = stats.snapshot();
                prop_assert_eq!(snap.executed, DEPTH as u64);
                prop_assert_eq!(snap.completions, DEPTH as u64);
            }
        }
    }
}
