//! NVMe-style submission/completion queue pairs over the call engine.
//!
//! The synchronous [`CallEngine::call`](crate::CallEngine::call) path is
//! one-request-per-caller: serialize, send, spin on the reply. That keeps
//! the daemon starved — the ring transport answers a command in a couple
//! of microseconds, but the client pays a full doorbell round trip per
//! call. [`QueuePair`] changes the wire mode instead of the API surface:
//!
//! * [`QueuePair::submit`] is **non-blocking** — it appends the command to
//!   a submission queue (SQ) and returns a [`CmdId`] ticket immediately.
//! * [`QueuePair::flush`] drains the whole SQ in one shot: consecutive
//!   same-idempotency commands are coalesced into
//!   [`BURST_API_BIT`](crate::BURST_API_BIT) frames (the PR 5 burst wire
//!   format, generalized from an API call into the native transmit mode)
//!   and every frame of the drain goes out through
//!   [`Channel::send_batch`] under a **single doorbell**.
//! * [`QueuePair::poll`] harvests completions **out of order**: responses
//!   are matched to in-flight frames by seq, and responses that belong to
//!   other callers are routed through the engine's shared pending table —
//!   the same table the sync path uses, so sync and queued callers can
//!   share one engine.
//!
//! Fault semantics mirror the sync path exactly, per frame: epoch fencing
//! drops stale incarnations' answers, `Malformed` naks retry any API (the
//! daemon never executed), crash windows fail over idempotent frames to
//! the next incarnation and surface typed
//! [`RpcError::DaemonRestarted`] otherwise, and real-time silence past
//! [`CallPolicy::recv_patience`](crate::CallPolicy) charges the virtual
//! deadline and retries idempotent frames. Retries reuse the frame's seq,
//! so the daemon's dedup window keeps execution at-most-once — every
//! submitted command completes exactly once, with no duplicates, no
//! matter how the frame fared.
//!
//! Bulk payloads never ride inline: an entry at or above the engine's
//! staging threshold is written into the staging region and goes out as
//! its own [`STAGED_API_BIT`](crate::STAGED_API_BIT) descriptor frame —
//! the rule [`CallEngine::call`](crate::CallEngine::call) applies, so
//! sync and queued submissions stage alike. Burst frames are cut so they
//! fit the link's [`max_frame_len`](Channel::max_frame_len); a lone
//! command that still exceeds it completes with the typed
//! [`RpcError::FrameTooLarge`].
//!
//! A queue pair is a **per-client** structure (one SQ/CQ per submitter,
//! as in NVMe); it is `Sync` and internally locked, but concurrent
//! submitters should each own a pair rather than contend on one.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use lake_shm::ShmBuffer;
use lake_sim::Instant;
use lake_transport::Channel;

use crate::command::{ApiId, Command, Response, Status, COMMAND_FRAME_OVERHEAD, SEQ_UNMATCHED};
use crate::engine::{
    decode_burst_response, CallEngine, Mode, RpcError, MAX_BURST_ENTRIES, ROUTE_POLL,
};
use crate::wire::Encoder;

/// Encoded bytes of a burst frame around its entries: the command frame
/// itself and the entry count.
const BURST_HEADER_LEN: usize = COMMAND_FRAME_OVERHEAD + 4;
/// Encoded bytes a burst entry adds to its payload: api id + length prefix.
const BURST_ENTRY_OVERHEAD: usize = 4 + 4;

/// Default submission-queue depth when none is configured: the sync wire
/// mode (every submit flushes immediately).
pub const DEFAULT_QUEUE_DEPTH: usize = 1;

/// Ticket identifying one submitted command within its [`QueuePair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmdId(pub u64);

/// One harvested completion: the submission ticket, the API it answered,
/// and the call's result — exactly what the sync path would have returned.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Ticket returned by [`QueuePair::submit`].
    pub id: CmdId,
    /// The submitted API (without envelope bits).
    pub api: ApiId,
    /// The response payload or the typed error the sync path would raise.
    pub result: Result<Bytes, RpcError>,
}

/// Counters for one queue pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Commands accepted by [`QueuePair::submit`].
    pub submitted: u64,
    /// Commands whose completion was produced (harvested or pending in
    /// the CQ).
    pub completed: u64,
    /// SQ drains that sent at least one frame.
    pub flushes: u64,
    /// Frames sent across all drains (burst or single-command).
    pub frames_sent: u64,
    /// Frames re-sent after a loss, nak, or crash window.
    pub frame_retries: u64,
    /// High-water mark of commands in flight at once.
    pub inflight_high_water: u64,
}

/// An entry sitting in the submission queue.
struct SqEntry {
    id: CmdId,
    api: ApiId,
    payload: Bytes,
}

/// One wire frame in flight: its encoded bytes (reused verbatim on retry,
/// so the seq — and the daemon's dedup — survive), the commands riding in
/// it, and the attempt bookkeeping the sync path keeps on its stack.
struct InflightFrame {
    wire: Vec<u8>,
    entries: Vec<(CmdId, ApiId)>,
    burst: bool,
    idempotent: bool,
    attempts: u32,
    /// Virtual send instant of the current attempt (crash-window lower
    /// bound).
    sent_at: Instant,
    /// Wall-clock silence accrued toward `recv_patience`.
    waited: std::time::Duration,
    /// Incarnation that was serving when the current attempt was sent.
    serving_epoch: u64,
    /// The payload of a staged (always lone) command: held while the
    /// daemon may read it, released with the frame's outcome.
    staged: Option<ShmBuffer>,
}

struct QpState {
    sq: VecDeque<SqEntry>,
    inflight: HashMap<u64, InflightFrame>,
    cq: VecDeque<Completion>,
}

/// A per-client SQ/CQ pair over a [`CallEngine`]. See the module docs.
pub struct QueuePair {
    engine: Arc<CallEngine>,
    depth: usize,
    state: Mutex<QpState>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    flushes: AtomicU64,
    frames_sent: AtomicU64,
    frame_retries: AtomicU64,
    inflight_high_water: AtomicU64,
}

impl std::fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuePair")
            .field("depth", &self.depth)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl QueuePair {
    /// Creates a queue pair of the given SQ depth over `engine`. Depth 1
    /// degenerates to the sync wire mode (every submit flushes).
    pub fn new(engine: Arc<CallEngine>, depth: usize) -> Self {
        QueuePair {
            engine,
            depth: depth.max(1),
            state: Mutex::new(QpState {
                sq: VecDeque::new(),
                inflight: HashMap::new(),
                cq: VecDeque::new(),
            }),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            frame_retries: AtomicU64::new(0),
            inflight_high_water: AtomicU64::new(0),
        }
    }

    /// The configured SQ depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The engine this pair submits through.
    pub fn engine(&self) -> &Arc<CallEngine> {
        &self.engine
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frame_retries: self.frame_retries.load(Ordering::Relaxed),
            inflight_high_water: self.inflight_high_water.load(Ordering::Relaxed),
        }
    }

    /// Commands submitted but not yet completed (in the SQ or in flight).
    pub fn outstanding(&self) -> usize {
        let st = self.state.lock().expect("queue pair poisoned");
        st.sq.len() + st.inflight.values().map(|f| f.entries.len()).sum::<usize>()
    }

    /// Non-blocking submit: appends the command to the SQ and returns its
    /// ticket. The SQ drains automatically once `depth` commands are
    /// queued; call [`QueuePair::flush`] to drain earlier.
    pub fn submit(&self, api: ApiId, payload: Bytes) -> CmdId {
        let id = CmdId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().expect("queue pair poisoned");
        st.sq.push_back(SqEntry { id, api, payload });
        if st.sq.len() >= self.depth {
            self.flush_locked(&mut st);
        }
        id
    }

    /// Completes a command the caller answered without crossing the
    /// boundary: allocates its ticket and posts `result` straight to the
    /// CQ, where [`QueuePair::poll`], [`QueuePair::drain`] and
    /// [`QueuePair::wait`] harvest it like any other completion. No frame
    /// is built or sent.
    pub fn complete_inline(&self, api: ApiId, result: Result<Bytes, RpcError>) -> CmdId {
        let id = CmdId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().expect("queue pair poisoned");
        st.cq.push_back(Completion { id, api, result });
        self.completed.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Drains the SQ onto the wire: coalesce, send every frame of the
    /// drain under one doorbell, mark in flight.
    pub fn flush(&self) {
        let mut st = self.state.lock().expect("queue pair poisoned");
        self.flush_locked(&mut st);
    }

    /// Non-blocking harvest: services arrived responses (and the shared
    /// routing table) and returns every completion produced so far, in
    /// completion order.
    pub fn poll(&self) -> Vec<Completion> {
        let mut st = self.state.lock().expect("queue pair poisoned");
        self.pump(&mut st, false);
        st.cq.drain(..).collect()
    }

    /// Blocks until the command behind `id` completes and returns its
    /// result, leaving every other completion in the CQ for
    /// [`QueuePair::poll`]. Flushes the SQ first so a submitted-but-unsent
    /// command cannot wedge the wait.
    ///
    /// # Errors
    ///
    /// Exactly the sync path's errors — [`RpcError::TimedOut`],
    /// [`RpcError::DaemonRestarted`], [`RpcError::Remote`],
    /// [`RpcError::Disconnected`] — for this command's frame.
    pub fn wait(&self, id: CmdId) -> Result<Bytes, RpcError> {
        let mut st = self.state.lock().expect("queue pair poisoned");
        self.flush_locked(&mut st);
        loop {
            if let Some(at) = st.cq.iter().position(|c| c.id == id) {
                return st.cq.remove(at).expect("indexed completion").result;
            }
            assert!(
                st.inflight.values().any(|f| f.entries.iter().any(|(eid, _)| *eid == id)),
                "ticket {id:?} is neither in flight nor in the CQ — \
                 already harvested by poll()?"
            );
            self.pump(&mut st, true);
        }
    }

    /// Flushes, then blocks until every in-flight command completes;
    /// returns the entire CQ.
    pub fn drain(&self) -> Vec<Completion> {
        let mut st = self.state.lock().expect("queue pair poisoned");
        self.flush_locked(&mut st);
        while !st.inflight.is_empty() {
            self.pump(&mut st, true);
        }
        st.cq.drain(..).collect()
    }

    fn flush_locked(&self, st: &mut QpState) {
        if st.sq.is_empty() {
            return;
        }
        let entries: Vec<SqEntry> = st.sq.drain(..).collect();
        match &self.engine.mode {
            Mode::InProcess(_) => {
                // In-process mode has no wire to pipeline: each command
                // runs through the engine's own dispatch (keeping every
                // fault/lifecycle/accounting behaviour) and completes at
                // flush time.
                for e in entries {
                    let result = self.engine.call(e.api, e.payload);
                    st.cq.push_back(Completion { id: e.id, api: e.api, result });
                    self.completed.fetch_add(1, Ordering::Relaxed);
                }
                self.flushes.fetch_add(1, Ordering::Relaxed);
            }
            Mode::Linked(endpoint) => {
                self.flush_linked(st, endpoint.as_ref(), entries);
            }
        }
    }

    fn flush_linked(&self, st: &mut QpState, endpoint: &dyn Channel, entries: Vec<SqEntry>) {
        // One supervised-restart check for the whole drain, as the sync
        // path does once per attempt.
        let serving_epoch = match &self.engine.lifecycle {
            Some(l) => l.ensure_up(),
            None => 0,
        };
        let max_frame_len = endpoint.max_frame_len();
        // Coalesce: consecutive same-idempotency commands share a burst
        // frame (retries must stay all-or-nothing safe) as long as the
        // frame fits the link; a bulk payload closes the run and travels
        // alone so it can be staged.
        let mut frames: Vec<(u64, InflightFrame)> = Vec::new();
        let mut run: Vec<SqEntry> = Vec::new();
        let mut run_idempotent = false;
        let mut run_len = BURST_HEADER_LEN;
        let mut close_run = |st: &mut QpState, run: &mut Vec<SqEntry>, idempotent: bool| {
            let (seq, frame) = self.frame_run(run, idempotent, serving_epoch);
            run.clear();
            // The link publishes its transfer limit; a frame over it is
            // never handed to the transport.
            if frame.wire.len() > max_frame_len {
                self.engine.failures.fetch_add(1, Ordering::Relaxed);
                let len = frame.wire.len();
                let err = RpcError::FrameTooLarge { len, max: max_frame_len };
                self.complete_frame(st, frame, Err(err));
            } else {
                frames.push((seq, frame));
            }
        };
        for entry in entries {
            let idempotent = self.engine.is_idempotent(entry.api);
            let entry_len = BURST_ENTRY_OVERHEAD + entry.payload.len();
            let lone = self.engine.stages(entry.payload.len());
            let splits = lone
                || idempotent != run_idempotent
                || run.len() == MAX_BURST_ENTRIES
                || run_len + entry_len > max_frame_len;
            if !run.is_empty() && splits {
                close_run(st, &mut run, run_idempotent);
                run_len = BURST_HEADER_LEN;
            }
            run_idempotent = idempotent;
            run_len += entry_len;
            run.push(entry);
            if lone {
                close_run(st, &mut run, idempotent);
                run_len = BURST_HEADER_LEN;
            }
        }
        if !run.is_empty() {
            close_run(st, &mut run, run_idempotent);
        }

        // The whole drain ships under a single doorbell: the transport
        // amortizes its per-send wakeup across every frame.
        let mut wire = Vec::with_capacity(frames.len());
        for (_, frame) in &frames {
            // Each (re)send clones the retry buffer, as in the sync path.
            self.engine.perf.note_copy(frame.wire.len());
            wire.push(frame.wire.clone());
        }
        let sent = endpoint.send_batch(wire).is_ok();
        self.flushes.fetch_add(1, Ordering::Relaxed);
        for (seq, frame) in frames {
            if sent {
                self.frames_sent.fetch_add(1, Ordering::Relaxed);
                self.engine.register_waiter(seq);
                st.inflight.insert(seq, frame);
            } else {
                self.complete_frame(st, frame, Err(RpcError::Disconnected));
            }
        }
        let inflight: u64 = st.inflight.values().map(|f| f.entries.len() as u64).sum();
        self.inflight_high_water.fetch_max(inflight, Ordering::Relaxed);
    }

    /// Encodes one run of the drain as a wire frame: a burst for two or
    /// more commands, a plain frame for a lone one — whose payload moves
    /// through the staging region when it is at or above the threshold
    /// (and the region has room; otherwise it stays inline).
    fn frame_run(
        &self,
        run: &[SqEntry],
        idempotent: bool,
        serving_epoch: u64,
    ) -> (u64, InflightFrame) {
        let seq = self.engine.next_seq.fetch_add(1, Ordering::Relaxed);
        let burst = run.len() > 1;
        let mut staged = None;
        let cmd = if burst {
            let mut e = Encoder::new();
            e.put_u32(run.len() as u32);
            for entry in run {
                e.put_u32(entry.api.0);
                e.put_bytes(&entry.payload);
            }
            self.engine.burst_frames.fetch_add(1, Ordering::Relaxed);
            self.engine.coalesced_commands.fetch_add(run.len() as u64, Ordering::Relaxed);
            Command { api: ApiId(crate::engine::BURST_API_BIT), seq, payload: e.finish() }
        } else {
            let entry = &run[0];
            match self.engine.stage_payload(entry.api, seq, &entry.payload) {
                Some((cmd, buf)) => {
                    staged = Some(buf);
                    cmd
                }
                None => Command { api: entry.api, seq, payload: entry.payload.clone() },
            }
        };
        if staged.is_none() {
            // Matches the sync path's per-frame accounting: one call, its
            // encoded bytes (`stage_command` has done this for a staged
            // one).
            self.engine.calls.fetch_add(1, Ordering::Relaxed);
            self.engine.bytes_sent.fetch_add(cmd.encoded_len() as u64, Ordering::Relaxed);
        }
        let frame = InflightFrame {
            wire: cmd.encode(),
            entries: run.iter().map(|e| (e.id, e.api)).collect(),
            burst,
            idempotent,
            attempts: 1,
            sent_at: self.engine.clock.now(),
            waited: std::time::Duration::ZERO,
            serving_epoch,
            staged,
        };
        (seq, frame)
    }

    /// Services the wire: claims responses stashed for us by sync callers,
    /// drains everything already arrived, and (when `block`) waits one
    /// [`ROUTE_POLL`] slice for more, charging silence toward patience.
    fn pump(&self, st: &mut QpState, block: bool) {
        let Mode::Linked(endpoint) = &self.engine.mode else {
            return;
        };
        if st.inflight.is_empty() {
            return;
        }
        let endpoint = endpoint.as_ref();
        let mut progressed = false;
        let seqs: Vec<u64> = st.inflight.keys().copied().collect();
        for seq in seqs {
            if let Some(resp) = self.engine.take_routed(seq) {
                progressed |= self.on_response(st, endpoint, seq, resp);
            }
        }
        loop {
            match endpoint.try_recv() {
                Err(_) => return self.fail_all(st, RpcError::Disconnected),
                Ok(Some(raw)) => progressed |= self.on_raw(st, endpoint, &raw),
                Ok(None) => break,
            }
        }
        if progressed || !block || st.inflight.is_empty() {
            return;
        }
        match endpoint.recv_timeout(ROUTE_POLL) {
            Err(_) => self.fail_all(st, RpcError::Disconnected),
            Ok(Some(raw)) => {
                self.on_raw(st, endpoint, &raw);
            }
            Ok(None) => self.note_silence(st, endpoint, ROUTE_POLL),
        }
    }

    /// Routes one raw frame exactly as the sync receive loop does.
    fn on_raw(&self, st: &mut QpState, endpoint: &dyn Channel, raw: &[u8]) -> bool {
        match Response::decode(raw) {
            Err(_) => {
                // A garbled frame for someone; if it was ours the patience
                // timer will catch the loss.
                self.engine.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(resp) if self.engine.is_stale_epoch(&resp) => {
                // A dead incarnation's answer: fence it out. If it was
                // ours, patience (or the crash window) retries under the
                // new epoch.
                self.engine.stale_epochs.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(resp) if st.inflight.contains_key(&resp.seq) => {
                self.on_response(st, endpoint, resp.seq, resp)
            }
            Ok(resp) if resp.seq == SEQ_UNMATCHED => {
                self.engine.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(resp) => {
                // A sync caller's response: route, don't drop.
                self.engine.route_response(resp);
                false
            }
        }
    }

    /// Handles a (non-stale) response for one of our frames. Returns true
    /// — the frame always either completes or is retried.
    fn on_response(
        &self,
        st: &mut QpState,
        endpoint: &dyn Channel,
        seq: u64,
        resp: Response,
    ) -> bool {
        let frame = st.inflight.remove(&seq).expect("routed to an in-flight seq");
        if resp.status == Status::Malformed {
            // The daemon could not decode our frame — it never executed,
            // so any API may retry without a crash check.
            self.engine.corrupt_frames.fetch_add(1, Ordering::Relaxed);
            if frame.attempts < self.engine.policy.max_attempts {
                self.engine.retry_backoff(frame.attempts);
                self.resend(st, endpoint, seq, frame);
                return true;
            }
            self.engine.deregister_waiter(seq);
            // finish_response semantics for the nak, fanned out per entry.
            self.engine.epoch_floor.fetch_max(resp.epoch, Ordering::Relaxed);
            self.engine.bytes_received.fetch_add(resp.encoded_len() as u64, Ordering::Relaxed);
            self.engine.failures.fetch_add(1, Ordering::Relaxed);
            self.complete_frame(st, frame, Err(RpcError::Remote(Status::Malformed)));
            return true;
        }
        // Did the daemon die inside this frame's window? Then the response
        // was computed by a dead incarnation: fence it out, charge the
        // deadline for discovering the silence, and fail over or surface
        // the typed restart error — the sync path's exact accounting.
        if let Some(l) = &self.engine.lifecycle {
            if l.crashed_between(frame.sent_at, self.engine.clock.now()) {
                self.engine.stale_epochs.fetch_add(1, Ordering::Relaxed);
                self.engine.timeouts.fetch_add(1, Ordering::Relaxed);
                self.engine.clock.advance(self.engine.policy.deadline);
                if frame.idempotent && frame.attempts < self.engine.policy.max_attempts {
                    self.engine.failed_over.fetch_add(1, Ordering::Relaxed);
                    self.engine.retry_backoff(frame.attempts);
                    self.resend(st, endpoint, seq, frame);
                    return true;
                }
                self.engine.failures.fetch_add(1, Ordering::Relaxed);
                self.engine.daemon_restarts.fetch_add(1, Ordering::Relaxed);
                let epoch = frame.serving_epoch;
                self.engine.deregister_waiter(seq);
                self.complete_frame(st, frame, Err(RpcError::DaemonRestarted { epoch }));
                return true;
            }
        }
        self.engine.deregister_waiter(seq);
        self.engine.epoch_floor.fetch_max(resp.epoch, Ordering::Relaxed);
        self.engine.bytes_received.fetch_add(resp.encoded_len() as u64, Ordering::Relaxed);
        if frame.burst {
            if !resp.status.is_ok() {
                // The whole frame failed: every rider shares the fate.
                self.engine.failures.fetch_add(1, Ordering::Relaxed);
                self.complete_frame(st, frame, Err(RpcError::Remote(resp.status)));
                return true;
            }
            match decode_burst_response(&resp.payload, frame.entries.len()) {
                Ok(per_entry) => {
                    for ((id, api), result) in frame.entries.iter().zip(per_entry) {
                        let result = result.map_err(|status| {
                            self.engine.failures.fetch_add(1, Ordering::Relaxed);
                            RpcError::Remote(status)
                        });
                        st.cq.push_back(Completion { id: *id, api: *api, result });
                        self.completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(err) => self.complete_frame(st, frame, Err(err)),
            }
        } else if resp.status.is_ok() {
            self.complete_frame(st, frame, Ok(resp.payload));
        } else {
            self.engine.failures.fetch_add(1, Ordering::Relaxed);
            self.complete_frame(st, frame, Err(RpcError::Remote(resp.status)));
        }
        true
    }

    /// Re-sends a frame verbatim (same seq — the daemon dedups) after a
    /// loss, nak, or crash window. Mirrors the top of the sync attempt
    /// loop: supervised restart first, then the retry-buffer clone.
    fn resend(&self, st: &mut QpState, endpoint: &dyn Channel, seq: u64, mut frame: InflightFrame) {
        frame.attempts += 1;
        frame.serving_epoch = match &self.engine.lifecycle {
            Some(l) => l.ensure_up(),
            None => 0,
        };
        frame.sent_at = self.engine.clock.now();
        frame.waited = std::time::Duration::ZERO;
        self.engine.perf.note_copy(frame.wire.len());
        if endpoint.send(frame.wire.clone()).is_err() {
            self.engine.deregister_waiter(seq);
            self.complete_frame(st, frame, Err(RpcError::Disconnected));
            return;
        }
        self.frame_retries.fetch_add(1, Ordering::Relaxed);
        st.inflight.insert(seq, frame);
    }

    /// Charges one slice of real-time silence to every in-flight frame
    /// and expires those past patience — the sync path's loss detection,
    /// amortized over the queue.
    fn note_silence(&self, st: &mut QpState, endpoint: &dyn Channel, slice: std::time::Duration) {
        let Some(patience) = self.engine.policy.recv_patience else {
            return;
        };
        let seqs: Vec<u64> = st.inflight.keys().copied().collect();
        for seq in seqs {
            let mut frame = st.inflight.remove(&seq).expect("iterating live seqs");
            frame.waited += slice;
            if frame.waited < patience {
                st.inflight.insert(seq, frame);
                continue;
            }
            // Real-time silence: the attempt is lost. Charge the virtual
            // deadline, expire orphaned stashes, and retry if safe.
            self.engine.timeouts.fetch_add(1, Ordering::Relaxed);
            self.engine.clock.advance(self.engine.policy.deadline);
            self.engine.sweep_pending();
            if frame.idempotent && frame.attempts < self.engine.policy.max_attempts {
                self.engine.retry_backoff(frame.attempts);
                self.resend(st, endpoint, seq, frame);
            } else {
                self.engine.failures.fetch_add(1, Ordering::Relaxed);
                self.engine.deregister_waiter(seq);
                self.complete_frame(st, frame, Err(RpcError::TimedOut));
            }
        }
    }

    /// Completes every entry of a dead frame with the link error.
    fn fail_all(&self, st: &mut QpState, err: RpcError) {
        let frames: Vec<(u64, InflightFrame)> = st.inflight.drain().collect();
        for (seq, frame) in frames {
            self.engine.deregister_waiter(seq);
            self.complete_frame(st, frame, Err(err.clone()));
        }
    }

    /// Fans one per-frame outcome out to a completion per rider, and
    /// releases the frame's staged payload according to that outcome.
    fn complete_frame(
        &self,
        st: &mut QpState,
        frame: InflightFrame,
        result: Result<Bytes, RpcError>,
    ) {
        if let Some(buf) = frame.staged {
            self.engine.release_staged(buf, &result);
        }
        for (id, api) in &frame.entries {
            st.cq.push_back(Completion { id: *id, api: *api, result: result.clone() });
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serve, ApiHandler, CallPolicy};
    use crate::wire::Decoder;
    use lake_sim::{Duration, SharedClock};
    use lake_transport::{Link, Mechanism};

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

    fn sum_of(c: &Completion) -> u64 {
        let out = c.result.as_ref().expect("completion carries a payload");
        Decoder::new(out).get_u64().unwrap()
    }

    #[test]
    fn in_process_submits_complete_on_flush() {
        let engine =
            Arc::new(CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), adder()));
        let qp = QueuePair::new(engine, 4);
        let ids: Vec<CmdId> = (0..3).map(|i| qp.submit(API_ADD, encode_pair(i, 1))).collect();
        assert!(qp.poll().is_empty(), "depth 4 must not flush at 3 submits");
        assert_eq!(qp.outstanding(), 3);
        qp.flush();
        let done = qp.poll();
        assert_eq!(done.len(), 3);
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.id, ids[i]);
            assert_eq!(sum_of(c), i as u64 + 1);
        }
        let qs = qp.stats();
        assert_eq!((qs.submitted, qs.completed, qs.flushes), (3, 3, 1));
    }

    #[test]
    fn inline_completions_join_the_cq_without_a_frame() {
        let engine =
            Arc::new(CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), adder()));
        let qp = QueuePair::new(Arc::clone(&engine), 4);
        let queued = qp.submit(API_ADD, encode_pair(2, 3));
        let inline = qp.complete_inline(API_ADD, Ok(encode_pair(7, 0)));
        assert_ne!(queued, inline, "tickets come from one sequence");
        assert_eq!(qp.outstanding(), 1, "only the queued command is outstanding");
        assert_eq!(Decoder::new(&qp.wait(inline).unwrap()).get_u64().unwrap(), 7);
        let rest = qp.drain();
        assert_eq!((rest.len(), rest[0].id, sum_of(&rest[0])), (1, queued, 5));
        let qs = qp.stats();
        assert_eq!((qs.submitted, qs.completed), (2, 2));
        assert_eq!(engine.stats().calls, 1, "the inline completion never called the daemon");
    }

    #[test]
    fn submit_auto_flushes_at_depth() {
        let engine =
            Arc::new(CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), adder()));
        let qp = QueuePair::new(engine, 2);
        qp.submit(API_ADD, encode_pair(1, 1));
        qp.submit(API_ADD, encode_pair(2, 2));
        assert_eq!(qp.poll().len(), 2, "second submit must trip the depth-2 drain");
        assert_eq!(qp.stats().flushes, 1);
    }

    #[test]
    fn linked_drain_coalesces_into_one_burst_frame() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });
        let engine = Arc::new(CallEngine::linked(kernel));
        engine.register_api(API_ADD, true);
        let qp = QueuePair::new(engine.clone(), 64);
        let ids: Vec<CmdId> = (0..16).map(|i| qp.submit(API_ADD, encode_pair(i, i))).collect();
        let done = qp.drain();
        assert_eq!(done.len(), 16);
        for c in &done {
            let i = ids.iter().position(|id| *id == c.id).expect("known ticket") as u64;
            assert_eq!(sum_of(c), 2 * i);
        }
        let es = engine.stats();
        assert_eq!(es.calls, 1, "16 commands must ride one wire frame");
        assert_eq!(es.burst_frames, 1);
        assert_eq!(es.coalesced_commands, 16);
        assert_eq!(es.pending_high_water, 0, "drained queue stashes nothing for itself");
        let qs = qp.stats();
        assert_eq!((qs.frames_sent, qs.flushes), (1, 1));
        assert_eq!(qs.inflight_high_water, 16);
        drop(qp);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn mixed_idempotency_splits_frames_and_fans_out_results() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });
        let engine = Arc::new(CallEngine::linked(kernel));
        engine.register_api(API_ADD, true); // API_FAIL stays non-idempotent
        let qp = QueuePair::new(engine.clone(), 64);
        let a = qp.submit(API_ADD, encode_pair(3, 4));
        let b = qp.submit(API_ADD, encode_pair(5, 6));
        let f = qp.submit(API_FAIL, Bytes::new());
        let c = qp.submit(API_ADD, encode_pair(7, 8));
        let done = qp.drain();
        assert_eq!(done.len(), 4);
        let by_id = |id: CmdId| done.iter().find(|c| c.id == id).expect("completed");
        assert_eq!(sum_of(by_id(a)), 7);
        assert_eq!(sum_of(by_id(b)), 11);
        assert_eq!(sum_of(by_id(c)), 15);
        assert_eq!(
            by_id(f).result.as_ref().unwrap_err(),
            &RpcError::Remote(Status::VendorError(13))
        );
        let es = engine.stats();
        // [a,b] burst, [f] single, [c] single: the non-idempotent command
        // must not share a retryable burst frame.
        assert_eq!(es.calls, 3);
        assert_eq!(es.burst_frames, 1);
        assert_eq!(es.coalesced_commands, 2);
        drop(qp);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn wait_harvests_out_of_order_and_leaves_the_rest() {
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });
        let engine = Arc::new(CallEngine::linked(kernel));
        engine.register_api(API_ADD, true);
        let qp = QueuePair::new(engine.clone(), 64);
        let a = qp.submit(API_ADD, encode_pair(1, 1));
        let b = qp.submit(API_ADD, encode_pair(2, 2));
        let out = qp.wait(b).unwrap();
        assert_eq!(Decoder::new(&out).get_u64().unwrap(), 4);
        let rest = qp.poll();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].id, a);
        assert_eq!(sum_of(&rest[0]), 2);
        drop(qp);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn queued_and_sync_callers_share_one_engine() {
        // A sync call issued while queue commands are in flight: the sync
        // path stashes the queue's responses through the pending table and
        // vice versa; nobody steals anybody's frames.
        let clock = SharedClock::new();
        let (kernel, user) = Link::pair(Mechanism::Netlink, clock);
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });
        let engine = Arc::new(CallEngine::linked(kernel));
        engine.register_api(API_ADD, true);
        let qp = QueuePair::new(engine.clone(), 64);
        let ids: Vec<CmdId> = (0..8).map(|i| qp.submit(API_ADD, encode_pair(i, 100))).collect();
        qp.flush();
        let out = engine.call(API_ADD, encode_pair(500, 500)).unwrap();
        assert_eq!(Decoder::new(&out).get_u64().unwrap(), 1000);
        let done = qp.drain();
        assert_eq!(done.len(), 8);
        for c in &done {
            let i = ids.iter().position(|id| *id == c.id).expect("known ticket") as u64;
            assert_eq!(sum_of(c), i + 100);
        }
        assert_eq!(engine.pending_len(), 0, "no responses left parked in the pending table");
        drop(qp);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn lossy_link_completes_every_command_exactly_once() {
        use lake_sim::{FaultPlan, FaultSpec};
        let clock = SharedClock::new();
        let plan = Arc::new(FaultPlan::new(
            FaultSpec { drop_prob: 0.2, corrupt_prob: 0.1, ..Default::default() },
            23,
        ));
        let (kernel, user) = Link::pair_with_faults(Mechanism::Netlink, clock, plan);
        let daemon = std::thread::spawn(move || {
            let handler = adder();
            serve(&user, handler.as_ref());
        });
        let engine = Arc::new(CallEngine::linked(kernel).with_policy(CallPolicy {
            deadline: Duration::from_micros(300),
            max_attempts: 10,
            backoff: Duration::from_micros(20),
            recv_patience: Some(std::time::Duration::from_millis(25)),
        }));
        engine.register_api(API_ADD, true);
        let qp = QueuePair::new(engine.clone(), 8);
        let ids: Vec<CmdId> = (0..64).map(|i| qp.submit(API_ADD, encode_pair(i, 1))).collect();
        let done = qp.drain();
        assert_eq!(done.len(), 64, "every submitted command must complete: none lost");
        let mut seen = std::collections::HashSet::new();
        for c in &done {
            assert!(seen.insert(c.id), "duplicate completion for {:?}", c.id);
            let i = ids.iter().position(|id| *id == c.id).expect("known ticket") as u64;
            assert_eq!(sum_of(c), i + 1, "retry returned a wrong result");
        }
        assert!(qp.stats().frame_retries > 0, "a 20% drop rate must force frame retries");
        assert_eq!(engine.pending_len(), 0, "no responses left parked in the pending table");
        drop(qp);
        drop(engine);
        daemon.join().unwrap();
    }

    const API_ECHO: ApiId = ApiId(3);

    fn echo_len() -> Arc<dyn ApiHandler> {
        Arc::new(|_: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
            let mut e = Encoder::new();
            e.put_u64(payload.len() as u64).put_u64(payload.iter().map(|&b| b as u64).sum());
            Ok(e.finish())
        })
    }

    /// A small ring (frames of at most ~2 KiB) in front of an echo daemon
    /// that resolves staged descriptors against `staging`.
    fn small_ring_daemon(
        staging: Option<lake_shm::ShmRegion>,
    ) -> (lake_transport::RingEndpoint, std::thread::JoinHandle<()>) {
        let rings = lake_shm::ShmRegion::with_capacity(16 * 1024);
        let (kernel, user) = lake_transport::RingLink::pair_in(
            &rings,
            Mechanism::Mmap,
            SharedClock::new(),
            4096,
            lake_transport::WaitStrategy::Adaptive,
            None,
        )
        .unwrap();
        let daemon = std::thread::spawn(move || {
            let handler = echo_len();
            let epoch = AtomicU64::new(0);
            match &staging {
                Some(region) => {
                    crate::engine::serve_with_staging(&user, handler.as_ref(), &epoch, region)
                }
                None => serve(&user, handler.as_ref()),
            }
        });
        (kernel, daemon)
    }

    fn len_and_sum(out: &Bytes) -> (u64, u64) {
        let mut d = Decoder::new(out);
        (d.get_u64().unwrap(), d.get_u64().unwrap())
    }

    #[test]
    fn bulk_submissions_are_staged_and_bursts_are_cut_to_the_link_limit() {
        let staging = lake_shm::ShmRegion::with_capacity(1 << 20);
        let (kernel, daemon) = small_ring_daemon(Some(staging.clone()));
        let max = kernel.max_frame_len();
        let engine = Arc::new(CallEngine::linked(kernel).with_staging(staging.clone(), 1024));
        engine.register_api(API_ECHO, true);
        let qp = QueuePair::new(engine.clone(), 64);
        // Twelve 600-byte commands (below the threshold, 7 KiB together:
        // more than one ring frame) around one 100 KiB command, which no
        // frame of this ring could carry inline.
        let mut ids = Vec::new();
        for i in 0..6u8 {
            ids.push((qp.submit(API_ECHO, Bytes::from(vec![i; 600])), 600, 600 * i as u64));
        }
        ids.push((qp.submit(API_ECHO, Bytes::from(vec![1; 100 << 10])), 100 << 10, 100 << 10));
        for i in 6..12u8 {
            ids.push((qp.submit(API_ECHO, Bytes::from(vec![i; 600])), 600, 600 * i as u64));
        }
        let done = qp.drain();
        assert_eq!(done.len(), ids.len());
        for (id, len, sum) in &ids {
            let c = done.iter().find(|c| c.id == *id).expect("completed");
            assert_eq!(len_and_sum(c.result.as_ref().unwrap()), (*len, *sum));
        }
        let es = engine.stats();
        assert_eq!(es.staged_calls, 1, "only the bulk command is staged");
        assert!(es.burst_frames >= 4, "7 KiB of small commands cannot share one {max}-byte frame");
        assert_eq!(es.coalesced_commands, 12);
        assert!(es.bytes_sent < 12 * 700 + 200, "the bulk payload never crossed the link");
        assert_eq!(staging.stats().in_use, 0, "staged buffer freed on completion");
        drop(qp);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn unstageable_oversized_command_completes_with_a_typed_error() {
        // The bulk command has to ride inline when there is no staging
        // region, and when the region is too full to take it.
        for staging in [None, Some(lake_shm::ShmRegion::with_capacity(4096))] {
            let (kernel, daemon) = small_ring_daemon(staging.clone());
            let max = kernel.max_frame_len();
            let mut engine = CallEngine::linked(kernel);
            if let Some(region) = &staging {
                engine = engine.with_staging(region.clone(), 1024);
            }
            let engine = Arc::new(engine);
            let qp = QueuePair::new(engine.clone(), 64);
            let small = qp.submit(API_ECHO, Bytes::from(vec![2; 64]));
            let big = qp.submit(API_ECHO, Bytes::from(vec![1; 8192]));
            let after = qp.submit(API_ECHO, Bytes::from(vec![3; 64]));
            let done = qp.drain();
            let by_id = |id: CmdId| done.iter().find(|c| c.id == id).expect("completed");
            assert!(matches!(
                by_id(big).result,
                Err(RpcError::FrameTooLarge { len, max: m }) if len > 8192 && m == max
            ));
            // The link is unharmed: commands around the refused one complete.
            assert_eq!(len_and_sum(by_id(small).result.as_ref().unwrap()), (64, 128));
            assert_eq!(len_and_sum(by_id(after).result.as_ref().unwrap()), (64, 192));
            // The sync path refuses the same frame the same way.
            let err = engine.call(API_ECHO, Bytes::from(vec![1; 8192])).unwrap_err();
            assert!(matches!(err, RpcError::FrameTooLarge { .. }), "{err:?}");
            assert_eq!(engine.stats().staged_calls, 0);
            drop(qp);
            drop(engine);
            daemon.join().unwrap();
        }
    }

    #[test]
    fn staged_submission_is_orphaned_not_freed_when_its_daemon_dies() {
        use std::sync::atomic::AtomicBool;
        /// Reports one crash inside the first request window it is asked
        /// about, as a supervisor whose daemon died mid-call would.
        struct DiesOnce(AtomicBool);
        impl crate::engine::DaemonLifecycle for DiesOnce {
            fn epoch(&self) -> u64 {
                0
            }
            fn ensure_up(&self) -> u64 {
                0
            }
            fn crashed_between(&self, _: Instant, _: Instant) -> bool {
                !self.0.swap(true, Ordering::Relaxed)
            }
        }
        let staging = lake_shm::ShmRegion::with_capacity(1 << 20);
        let (kernel, daemon) = small_ring_daemon(Some(staging.clone()));
        let engine = Arc::new(
            CallEngine::linked(kernel)
                .with_staging(staging.clone(), 1024)
                .with_lifecycle(Arc::new(DiesOnce(AtomicBool::new(false)))),
        );
        let qp = QueuePair::new(engine.clone(), 64);
        // Not registered idempotent: the frame surfaces the restart.
        let id = qp.submit(API_ECHO, Bytes::from(vec![5; 4096]));
        assert_eq!(qp.wait(id).unwrap_err(), RpcError::DaemonRestarted { epoch: 0 });
        let s = staging.stats();
        assert_eq!(s.live_allocs, 1, "a dead daemon may still read the buffer: {s:?}");
        assert!(s.orphaned_bytes >= 4096, "{s:?}");
        assert!(staging.reclaim_orphans().reclaimed_bytes >= 4096);
        assert_eq!(staging.stats().in_use, 0);
        drop(qp);
        drop(engine);
        daemon.join().unwrap();
    }

    #[test]
    fn response_over_the_link_limit_comes_back_as_a_typed_status() {
        // Payload byte 0 is the response length in KiB.
        let inflate = |_: ApiId, payload: &[u8]| -> Result<Bytes, Status> {
            Ok(Bytes::from(vec![0xEE; payload[0] as usize * 1024]))
        };
        for workers in [1, 2] {
            let rings = lake_shm::ShmRegion::with_capacity(16 * 1024);
            let (kernel, user) = lake_transport::RingLink::pair_in(
                &rings,
                Mechanism::Mmap,
                SharedClock::new(),
                4096,
                lake_transport::WaitStrategy::Adaptive,
                None,
            )
            .unwrap();
            let daemon = std::thread::spawn(move || {
                crate::executor::serve_executor(
                    &user,
                    &inflate,
                    &AtomicU64::new(0),
                    None,
                    &crate::perf::PerfCounters::new(),
                    workers,
                    &crate::executor::ExecutorStats::new(),
                )
            });
            let engine = CallEngine::linked(kernel);
            assert_eq!(engine.call(API_ECHO, Bytes::from(vec![1])).unwrap().len(), 1024);
            assert_eq!(
                engine.call(API_ECHO, Bytes::from(vec![4])).unwrap_err(),
                RpcError::Remote(Status::ResponseTooLarge),
                "workers = {workers}"
            );
            // The daemon keeps serving.
            assert_eq!(engine.call(API_ECHO, Bytes::from(vec![1])).unwrap().len(), 1024);
            drop(engine);
            daemon.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "already harvested")]
    fn waiting_on_a_harvested_ticket_panics() {
        let engine =
            Arc::new(CallEngine::in_process(Mechanism::Netlink, SharedClock::new(), adder()));
        let qp = QueuePair::new(engine, 1);
        let id = qp.submit(API_ADD, encode_pair(1, 1));
        assert_eq!(qp.poll().len(), 1);
        let _ = qp.wait(id);
    }
}
