//! NVMe-style submission/completion queue pairs, and the one linked fault
//! protocol every remoted call runs through.
//!
//! A linked call is a *frame* in flight: its encoded bytes, the commands
//! riding in it, and its attempt bookkeeping. The frame machine in this
//! module — send under one doorbell, receive and route by seq, fence stale
//! epochs, retry naks, fail over crash windows, expire silence — is the
//! only implementation of that protocol. It runs over a [`FrameTable`] and
//! a [`CallEngine`], and two callers own tables:
//!
//! * **A sync call** — [`CallEngine::call`](crate::CallEngine::call) in
//!   linked mode — is a one-frame round: it builds its frame on a
//!   stack-local table, ships it and pumps until it completes. Concurrent
//!   sync callers each own a table, so they never serialise on a lock.
//! * **A [`QueuePair`]** keeps one table under its mutex, beside its
//!   submission queue (SQ):
//!   * [`QueuePair::submit`] is **non-blocking** — it appends the command
//!     to the SQ and returns a [`CmdId`] ticket immediately.
//!   * [`QueuePair::flush`] drains the whole SQ in one shot: consecutive
//!     same-idempotency commands are coalesced into
//!     [`BURST_API_BIT`](crate::BURST_API_BIT) frames and every frame of
//!     the drain goes out through [`Channel::send_batch`] under a
//!     **single doorbell**.
//!   * [`QueuePair::poll`] harvests completions **out of order**.
//!
//! Responses are matched to in-flight frames by seq; a response that
//! belongs to another caller's table is routed through the engine's shared
//! pending table, so any mix of sync and queued callers can share one
//! engine.
//!
//! Fault semantics, per frame: epoch fencing drops stale incarnations'
//! answers — whether read off the wire or taken from the pending table —
//! `Malformed` naks retry any API (the daemon never executed), crash
//! windows fail over idempotent frames to the next incarnation and surface
//! typed [`RpcError::DaemonRestarted`] otherwise, and real-time silence
//! past [`CallPolicy::recv_patience`](crate::CallPolicy) charges the
//! virtual deadline and retries idempotent frames. Retries reuse the
//! frame's seq, so the daemon's dedup window keeps execution at-most-once
//! — every command completes exactly once, no matter how its frame fared.
//!
//! Bulk payloads never ride inline: an entry at or above the engine's
//! staging threshold is written into the staging region and goes out as
//! its own [`STAGED_API_BIT`](crate::STAGED_API_BIT) descriptor frame,
//! carrying its [`ShmBuffer`] until the frame's outcome releases it. Burst
//! frames are cut so they fit the link's
//! [`max_frame_len`](Channel::max_frame_len); a lone command that still
//! exceeds it completes with the typed [`RpcError::FrameTooLarge`].
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
    decode_burst_response, CallEngine, Mode, RpcError, BURST_API_BIT, MAX_BURST_ENTRIES, ROUTE_POLL,
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
/// it (two or more make it a burst), and its attempt bookkeeping.
struct InflightFrame {
    seq: u64,
    wire: Vec<u8>,
    entries: Vec<(CmdId, ApiId)>,
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

impl InflightFrame {
    fn new(
        engine: &CallEngine,
        cmd: &Command,
        entries: Vec<(CmdId, ApiId)>,
        idempotent: bool,
        serving_epoch: u64,
        staged: Option<ShmBuffer>,
    ) -> Self {
        InflightFrame {
            seq: cmd.seq,
            wire: cmd.encode(),
            entries,
            idempotent,
            attempts: 1,
            sent_at: engine.clock.now(),
            waited: std::time::Duration::ZERO,
            serving_epoch,
            staged,
        }
    }
}

/// The in-flight half of the frame machine: frames on the wire, the
/// completions they produced, and the counters [`QueueStats`] reports. A
/// [`QueuePair`] keeps one under its mutex; a sync linked call builds one
/// on its stack for its single frame.
#[derive(Default)]
pub(crate) struct FrameTable {
    inflight: HashMap<u64, InflightFrame>,
    cq: VecDeque<Completion>,
    completed: u64,
    flushes: u64,
    frames_sent: u64,
    frame_retries: u64,
    inflight_high_water: u64,
}

/// A sync linked call: `cmd` (already counted by the engine) as a
/// one-frame round through a stack-local [`FrameTable`] — ship it, pump
/// until it completes.
pub(crate) fn call_frame(
    engine: &CallEngine,
    endpoint: &dyn Channel,
    api: ApiId,
    cmd: Command,
    staged: Option<ShmBuffer>,
) -> Result<Bytes, RpcError> {
    let idempotent = engine.is_idempotent(api);
    let frame = InflightFrame::new(
        engine,
        &cmd,
        vec![(CmdId(0), api)],
        idempotent,
        engine.ensure_up(),
        staged,
    );
    let mut table = FrameTable::default();
    table.ship(engine, endpoint, vec![frame]);
    loop {
        if let Some(done) = table.cq.pop_front() {
            return done.result;
        }
        table.pump(engine, endpoint, true);
    }
}

impl FrameTable {
    /// Commands riding in frames still in flight.
    fn inflight_commands(&self) -> usize {
        self.inflight.values().map(|f| f.entries.len()).sum()
    }

    /// Sends `frames` under one doorbell and marks them in flight. A frame
    /// over the link's limit is never handed to the transport: it
    /// completes with [`RpcError::FrameTooLarge`] instead.
    fn ship(&mut self, engine: &CallEngine, endpoint: &dyn Channel, frames: Vec<InflightFrame>) {
        let max = endpoint.max_frame_len();
        let mut wire = Vec::with_capacity(frames.len());
        let mut sending = Vec::with_capacity(frames.len());
        for frame in frames {
            if frame.wire.len() > max {
                engine.failures.fetch_add(1, Ordering::Relaxed);
                let err = RpcError::FrameTooLarge { len: frame.wire.len(), max };
                self.complete_frame(engine, frame, Err(err));
                continue;
            }
            // The link consumes its frame; each (re)send clones the retry
            // buffer.
            engine.perf.note_copy(frame.wire.len());
            wire.push(frame.wire.clone());
            // Registered before the send: the answer may reach another
            // caller's pump before this one returns, and is only routed to
            // a registered seq.
            engine.register_waiter(frame.seq);
            sending.push(frame);
        }
        let sent = endpoint.send_batch(wire).is_ok();
        self.flushes += 1;
        for frame in sending {
            if sent {
                self.frames_sent += 1;
                self.inflight.insert(frame.seq, frame);
            } else {
                engine.deregister_waiter(frame.seq);
                self.complete_frame(engine, frame, Err(RpcError::Disconnected));
            }
        }
        self.inflight_high_water = self.inflight_high_water.max(self.inflight_commands() as u64);
    }

    /// Services the wire: claims responses other callers stashed for us,
    /// drains everything already arrived, and (when `block`) waits one
    /// [`ROUTE_POLL`] slice for more, charging silence toward patience.
    fn pump(&mut self, engine: &CallEngine, endpoint: &dyn Channel, block: bool) {
        if self.inflight.is_empty() {
            return;
        }
        let mut progressed = false;
        let seqs: Vec<u64> = self.inflight.keys().copied().collect();
        for seq in seqs {
            let Some(resp) = engine.take_routed(seq) else { continue };
            if engine.is_stale_epoch(&resp) {
                // Fenced: a dead incarnation's answer surfaced from the
                // routing table (the floor rose after it was stashed).
                // Keep waiting for a live one.
                engine.stale_epochs.fetch_add(1, Ordering::Relaxed);
            } else {
                progressed |= self.on_response(engine, endpoint, resp);
            }
        }
        loop {
            match endpoint.try_recv() {
                Err(_) => return self.fail_all(engine, RpcError::Disconnected),
                Ok(Some(raw)) => progressed |= self.on_raw(engine, endpoint, &raw),
                Ok(None) => break,
            }
        }
        if progressed || !block || self.inflight.is_empty() {
            return;
        }
        match endpoint.recv_timeout(ROUTE_POLL) {
            Err(_) => self.fail_all(engine, RpcError::Disconnected),
            Ok(Some(raw)) => {
                self.on_raw(engine, endpoint, &raw);
            }
            Ok(None) => self.note_silence(engine, endpoint, ROUTE_POLL),
        }
    }

    /// Routes one raw frame off the wire.
    fn on_raw(&mut self, engine: &CallEngine, endpoint: &dyn Channel, raw: &[u8]) -> bool {
        match Response::decode(raw) {
            Err(_) => {
                // A garbled frame for someone; if it was ours the patience
                // timer will catch the loss.
                engine.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(resp) if engine.is_stale_epoch(&resp) => {
                // A dead incarnation's answer arrived after its successor
                // already spoke: fence it out. If it was ours, patience
                // (or the crash window) retries under the new epoch.
                engine.stale_epochs.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(resp) if self.inflight.contains_key(&resp.seq) => {
                self.on_response(engine, endpoint, resp)
            }
            Ok(resp) if resp.seq == SEQ_UNMATCHED => {
                // The daemon couldn't attribute some frame; if it was
                // ours, patience expires.
                engine.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                false
            }
            Ok(resp) => {
                // Another caller's response: route it — unless its caller
                // already gave up, in which case stashing it would leak.
                engine.route_response(resp);
                false
            }
        }
    }

    /// Handles a (non-stale) response for one of our frames. Returns true
    /// — the frame always either completes or is retried.
    fn on_response(&mut self, engine: &CallEngine, endpoint: &dyn Channel, resp: Response) -> bool {
        let frame = self.inflight.remove(&resp.seq).expect("routed to an in-flight seq");
        let policy = engine.policy;
        if resp.status == Status::Malformed {
            // The daemon could not decode our frame — it never executed,
            // so any API may retry without a crash check.
            engine.corrupt_frames.fetch_add(1, Ordering::Relaxed);
            if frame.attempts < policy.max_attempts {
                engine.retry_backoff(frame.attempts);
                self.resend(engine, endpoint, frame);
                return true;
            }
            engine.deregister_waiter(frame.seq);
            let result = engine.finish_response(resp);
            self.complete_frame(engine, frame, result);
            return true;
        }
        // Did the daemon die inside this frame's window? Then the response
        // was computed by a dead incarnation: fence it out (never
        // delivered), charge the deadline for discovering the silence, and
        // either fail over to the next incarnation (idempotent — the
        // resend's `ensure_up` restarts it) or surface the typed restart
        // error. Mirrors the in-process accounting exactly.
        if let Some(l) = &engine.lifecycle {
            if l.crashed_between(frame.sent_at, engine.clock.now()) {
                engine.stale_epochs.fetch_add(1, Ordering::Relaxed);
                engine.timeouts.fetch_add(1, Ordering::Relaxed);
                engine.clock.advance(policy.deadline);
                if frame.idempotent && frame.attempts < policy.max_attempts {
                    engine.failed_over.fetch_add(1, Ordering::Relaxed);
                    engine.retry_backoff(frame.attempts);
                    self.resend(engine, endpoint, frame);
                    return true;
                }
                engine.failures.fetch_add(1, Ordering::Relaxed);
                engine.daemon_restarts.fetch_add(1, Ordering::Relaxed);
                let epoch = frame.serving_epoch;
                engine.deregister_waiter(frame.seq);
                self.complete_frame(engine, frame, Err(RpcError::DaemonRestarted { epoch }));
                return true;
            }
        }
        engine.deregister_waiter(frame.seq);
        let result = engine.finish_response(resp);
        if frame.entries.len() == 1 {
            self.complete_frame(engine, frame, result);
            return true;
        }
        // A burst: the whole frame failed (every rider shares the fate),
        // or each rider gets its own status from the body.
        match result.and_then(|body| decode_burst_response(&body, frame.entries.len())) {
            Ok(per_entry) => {
                for ((id, api), result) in frame.entries.iter().zip(per_entry) {
                    let result = result.map_err(|status| {
                        engine.failures.fetch_add(1, Ordering::Relaxed);
                        RpcError::Remote(status)
                    });
                    self.cq.push_back(Completion { id: *id, api: *api, result });
                    self.completed += 1;
                }
            }
            Err(err) => self.complete_frame(engine, frame, Err(err)),
        }
        true
    }

    /// Re-sends a frame verbatim (same seq — the daemon dedups) after a
    /// loss, nak, or crash window: supervised restart first, then the
    /// retry-buffer clone.
    fn resend(&mut self, engine: &CallEngine, endpoint: &dyn Channel, mut frame: InflightFrame) {
        frame.attempts += 1;
        frame.serving_epoch = engine.ensure_up();
        frame.sent_at = engine.clock.now();
        frame.waited = std::time::Duration::ZERO;
        engine.perf.note_copy(frame.wire.len());
        if endpoint.send(frame.wire.clone()).is_err() {
            engine.deregister_waiter(frame.seq);
            self.complete_frame(engine, frame, Err(RpcError::Disconnected));
            return;
        }
        self.frame_retries += 1;
        self.inflight.insert(frame.seq, frame);
    }

    /// Charges one slice of real-time silence to every in-flight frame
    /// and expires those past patience.
    fn note_silence(
        &mut self,
        engine: &CallEngine,
        endpoint: &dyn Channel,
        slice: std::time::Duration,
    ) {
        let Some(patience) = engine.policy.recv_patience else {
            return;
        };
        let seqs: Vec<u64> = self.inflight.keys().copied().collect();
        for seq in seqs {
            let mut frame = self.inflight.remove(&seq).expect("iterating live seqs");
            frame.waited += slice;
            if frame.waited < patience {
                self.inflight.insert(seq, frame);
                continue;
            }
            // Real-time silence: the attempt is lost. Charge the virtual
            // deadline, expire orphaned stashes, and retry if safe.
            engine.timeouts.fetch_add(1, Ordering::Relaxed);
            engine.clock.advance(engine.policy.deadline);
            engine.sweep_pending();
            if frame.idempotent && frame.attempts < engine.policy.max_attempts {
                engine.retry_backoff(frame.attempts);
                self.resend(engine, endpoint, frame);
            } else {
                engine.failures.fetch_add(1, Ordering::Relaxed);
                engine.deregister_waiter(seq);
                self.complete_frame(engine, frame, Err(RpcError::TimedOut));
            }
        }
    }

    /// Completes every in-flight frame with the link error.
    fn fail_all(&mut self, engine: &CallEngine, err: RpcError) {
        let frames: Vec<InflightFrame> = self.inflight.drain().map(|(_, f)| f).collect();
        for frame in frames {
            engine.deregister_waiter(frame.seq);
            self.complete_frame(engine, frame, Err(err.clone()));
        }
    }

    /// Fans one per-frame outcome out to a completion per rider, and
    /// releases the frame's staged payload according to that outcome.
    fn complete_frame(
        &mut self,
        engine: &CallEngine,
        frame: InflightFrame,
        result: Result<Bytes, RpcError>,
    ) {
        if let Some(buf) = frame.staged {
            engine.release_staged(buf, &result);
        }
        for (id, api) in &frame.entries {
            self.cq.push_back(Completion { id: *id, api: *api, result: result.clone() });
            self.completed += 1;
        }
    }
}

struct QpState {
    sq: VecDeque<SqEntry>,
    table: FrameTable,
}

/// A per-client SQ/CQ pair over a [`CallEngine`]. See the module docs.
pub struct QueuePair {
    engine: Arc<CallEngine>,
    depth: usize,
    state: Mutex<QpState>,
    next_id: AtomicU64,
    submitted: AtomicU64,
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
            state: Mutex::new(QpState { sq: VecDeque::new(), table: FrameTable::default() }),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
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
        let st = self.state.lock().expect("queue pair poisoned");
        QueueStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: st.table.completed,
            flushes: st.table.flushes,
            frames_sent: st.table.frames_sent,
            frame_retries: st.table.frame_retries,
            inflight_high_water: st.table.inflight_high_water,
        }
    }

    /// Commands submitted but not yet completed (in the SQ or in flight).
    pub fn outstanding(&self) -> usize {
        let st = self.state.lock().expect("queue pair poisoned");
        st.sq.len() + st.table.inflight_commands()
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
        st.table.cq.push_back(Completion { id, api, result });
        st.table.completed += 1;
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
        st.table.cq.drain(..).collect()
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
            if let Some(at) = st.table.cq.iter().position(|c| c.id == id) {
                return st.table.cq.remove(at).expect("indexed completion").result;
            }
            assert!(
                st.table.inflight.values().any(|f| f.entries.iter().any(|(eid, _)| *eid == id)),
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
        while !st.table.inflight.is_empty() {
            self.pump(&mut st, true);
        }
        st.table.cq.drain(..).collect()
    }

    fn pump(&self, st: &mut QpState, block: bool) {
        if let Mode::Linked(endpoint) = &self.engine.mode {
            st.table.pump(&self.engine, endpoint.as_ref(), block);
        }
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
                    st.table.cq.push_back(Completion { id: e.id, api: e.api, result });
                    st.table.completed += 1;
                }
                st.table.flushes += 1;
            }
            Mode::Linked(endpoint) => {
                let frames = self.coalesce(entries, endpoint.max_frame_len());
                st.table.ship(&self.engine, endpoint.as_ref(), frames);
            }
        }
    }

    /// Cuts a drain into frames: consecutive same-idempotency commands
    /// share a burst frame (retries must stay all-or-nothing safe) as long
    /// as the frame fits the link; a bulk payload closes the run and
    /// travels alone so it can be staged.
    fn coalesce(&self, entries: Vec<SqEntry>, max_frame_len: usize) -> Vec<InflightFrame> {
        // One supervised-restart check for the whole drain.
        let serving_epoch = self.engine.ensure_up();
        let mut frames = Vec::new();
        let mut run: Vec<SqEntry> = Vec::new();
        let mut run_idempotent = false;
        let mut run_len = BURST_HEADER_LEN;
        for entry in entries {
            let idempotent = self.engine.is_idempotent(entry.api);
            let entry_len = BURST_ENTRY_OVERHEAD + entry.payload.len();
            let lone = self.engine.stages(entry.payload.len());
            let splits = lone
                || idempotent != run_idempotent
                || run.len() == MAX_BURST_ENTRIES
                || run_len + entry_len > max_frame_len;
            if !run.is_empty() && splits {
                frames.push(self.frame_run(&mut run, run_idempotent, serving_epoch));
                run_len = BURST_HEADER_LEN;
            }
            run_idempotent = idempotent;
            run_len += entry_len;
            run.push(entry);
            if lone {
                frames.push(self.frame_run(&mut run, idempotent, serving_epoch));
                run_len = BURST_HEADER_LEN;
            }
        }
        if !run.is_empty() {
            frames.push(self.frame_run(&mut run, run_idempotent, serving_epoch));
        }
        frames
    }

    /// Encodes (and empties) one run of the drain as a wire frame: a burst
    /// for two or more commands, a plain frame for a lone one — whose
    /// payload moves through the staging region when it is at or above
    /// the threshold (and the region has room; otherwise it stays inline).
    fn frame_run(
        &self,
        run: &mut Vec<SqEntry>,
        idempotent: bool,
        serving_epoch: u64,
    ) -> InflightFrame {
        let engine = &self.engine;
        let seq = engine.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut staged = None;
        let cmd = if run.len() > 1 {
            engine.burst_frames.fetch_add(1, Ordering::Relaxed);
            engine.coalesced_commands.fetch_add(run.len() as u64, Ordering::Relaxed);
            let entries = run.iter().map(|e| (e.api, &e.payload[..]));
            Command { api: ApiId(BURST_API_BIT), seq, payload: encode_burst(entries) }
        } else {
            let entry = &run[0];
            match engine.stage_payload(entry.api, seq, &entry.payload) {
                Some((cmd, buf)) => {
                    staged = Some(buf);
                    cmd
                }
                None => Command { api: entry.api, seq, payload: entry.payload.clone() },
            }
        };
        if staged.is_none() {
            // One call, its encoded bytes (`stage_command` has done this
            // for a staged one).
            engine.calls.fetch_add(1, Ordering::Relaxed);
            engine.bytes_sent.fetch_add(cmd.encoded_len() as u64, Ordering::Relaxed);
        }
        let entries = run.drain(..).map(|e| (e.id, e.api)).collect();
        InflightFrame::new(engine, &cmd, entries, idempotent, serving_epoch, staged)
    }
}

/// Encodes a [`BURST_API_BIT`](crate::BURST_API_BIT) command payload: the
/// entry count, then each entry's api id and length-prefixed payload.
pub(crate) fn encode_burst<'a>(entries: impl ExactSizeIterator<Item = (ApiId, &'a [u8])>) -> Bytes {
    let mut e = Encoder::new();
    e.put_u32(entries.len() as u32);
    for (api, payload) in entries {
        e.put_u32(api.0);
        e.put_bytes(payload);
    }
    e.finish()
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
        // A lone submission skips the burst envelope: a drain of one is a
        // plain frame.
        let solo = qp.submit(API_ADD, encode_pair(20, 22));
        assert_eq!(Decoder::new(&qp.wait(solo).unwrap()).get_u64().unwrap(), 42);
        let es = engine.stats();
        assert_eq!((es.calls, es.burst_frames, es.coalesced_commands), (2, 1, 16));
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

    /// Regression: a response another caller routed to a queued frame is
    /// fenced if the epoch floor rose while it sat in the pending table —
    /// exactly as a stale answer read off the wire is.
    #[test]
    fn queued_caller_fences_a_stale_routed_response() {
        let (kernel, user) = Link::pair(Mechanism::Netlink, SharedClock::new());
        let engine = Arc::new(CallEngine::linked(kernel).with_policy(CallPolicy {
            recv_patience: Some(std::time::Duration::from_millis(20)),
            ..CallPolicy::default()
        }));
        engine.register_api(API_ADD, true);
        let qp = QueuePair::new(engine.clone(), 1);
        let s1 = qp.submit(API_ADD, encode_pair(1, 1));
        let sync = std::thread::spawn({
            let engine = engine.clone();
            move || engine.call(API_ADD, encode_pair(2, 2))
        });
        // The scripted daemon: S1 answered by incarnation 0 (the sync
        // caller receives it and routes it to the pair), then S2 by
        // incarnation 1, which raises the floor.
        let answer = |frame: &[u8], epoch: u64, sum: u64| {
            let cmd = Command::decode(frame).unwrap();
            let mut e = Encoder::new();
            e.put_u64(sum);
            let resp = Response { seq: cmd.seq, epoch, status: Status::Ok, payload: e.finish() };
            user.send(resp.encode()).unwrap();
        };
        // S1 took its seq before the sync caller existed.
        let seq = |f: &[u8]| Command::decode(f).unwrap().seq;
        let mut frames = [user.recv().unwrap(), user.recv().unwrap()];
        frames.sort_by_key(|f| seq(f));
        answer(&frames[0], 0, 999);
        answer(&frames[1], 1, 4);
        assert_eq!(Decoder::new(&sync.join().unwrap().unwrap()).get_u64().unwrap(), 4);
        assert_eq!(engine.pending_len(), 1, "S1's epoch-0 answer is parked for the pair");
        let stale_before = engine.stats().stale_epochs;
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| qp.wait(s1));
            // Patience expires on the fenced answer; the resend (same seq)
            // is answered by the live incarnation.
            let patience = std::time::Duration::from_secs(5);
            if let Some(resend) = user.recv_timeout(patience).unwrap() {
                assert_eq!(seq(&resend), seq(&frames[0]), "only S1 is retried");
                answer(&resend, 1, 2);
            }
            let out = waiter.join().unwrap().unwrap();
            assert_eq!(Decoder::new(&out).get_u64().unwrap(), 2, "stale routed answer delivered");
        });
        assert!(engine.stats().stale_epochs > stale_before);
        assert_eq!(qp.stats().frame_retries, 1);
        drop(qp);
        drop(engine);
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
            crate::executor::serve_executor(
                &user,
                echo_len().as_ref(),
                &AtomicU64::new(0),
                staging.as_ref(),
                &crate::perf::PerfCounters::new(),
                1,
                &crate::executor::ExecutorStats::new(),
            )
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
