//! The link-type abstraction: one trait over the mutex-channel link and the
//! lock-free shm ring, so `lake-rpc` can drive either without caring which
//! mechanism carried the frame.

use std::sync::Arc;

use lake_sim::{FaultPlan, Instant, SharedClock};

use crate::link::{LinkEndpoint, RecvError, SendError};
use crate::mechanism::Mechanism;

/// One side of a bidirectional kernel↔user transport.
///
/// Implementations stamp every frame with its virtual arrival time: `send`
/// charges the mechanism call time to the shared clock and returns the
/// arrival instant; the receive family advances the clock to that instant
/// when the frame is picked up. `recv_timeout` is a *wall-clock* patience
/// bound that must not advance virtual time when it elapses empty.
pub trait Channel: Send + Sync {
    /// Sends `payload` to the peer; returns the virtual arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] carrying the payload back if the peer side has
    /// been dropped.
    fn send(&self, payload: Vec<u8>) -> Result<Instant, SendError>;

    /// Sends a batch of frames as one transmission: implementations that
    /// pay a per-send wakeup (the ring doorbell, a syscall on a real
    /// Netlink socket) amortize it across the whole batch — the SQ-drain
    /// wire mode. The default is a per-frame loop, which is semantically
    /// identical but pays the wakeup every time. Frames are delivered in
    /// order; on error, frames before the failing one may have been
    /// delivered.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] carrying the failing payload back if the peer
    /// side has been dropped.
    fn send_batch(&self, frames: Vec<Vec<u8>>) -> Result<(), SendError> {
        for frame in frames {
            self.send(frame)?;
        }
        Ok(())
    }

    /// Blocks until a frame arrives; advances the clock to its arrival.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the peer has disconnected and nothing
    /// remains queued.
    fn recv(&self) -> Result<Vec<u8>, RecvError>;

    /// Non-blocking receive; `Ok(None)` means nothing is queued.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the peer has disconnected and nothing
    /// remains queued.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, RecvError>;

    /// Receive bounded by wall-clock `timeout`; `Ok(None)` on silence.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the peer has disconnected and nothing
    /// remains queued.
    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Vec<u8>>, RecvError>;

    /// The longest frame `send` accepts. Transports with a hard transfer
    /// limit (the shm ring) publish it here so callers split or stage
    /// larger payloads up front; the default is unlimited.
    fn max_frame_len(&self) -> usize {
        usize::MAX
    }

    /// The mechanism this transport models (costs charged per frame).
    fn mechanism(&self) -> Mechanism;

    /// The shared virtual clock this side charges.
    fn clock(&self) -> &SharedClock;

    /// The fault plan injecting on this side's sends, if any.
    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        None
    }
}

impl Channel for LinkEndpoint {
    fn send(&self, payload: Vec<u8>) -> Result<Instant, SendError> {
        LinkEndpoint::send(self, payload)
    }

    fn recv(&self) -> Result<Vec<u8>, RecvError> {
        LinkEndpoint::recv(self)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, RecvError> {
        LinkEndpoint::try_recv(self)
    }

    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Vec<u8>>, RecvError> {
        LinkEndpoint::recv_timeout(self, timeout)
    }

    fn mechanism(&self) -> Mechanism {
        LinkEndpoint::mechanism(self)
    }

    fn clock(&self) -> &SharedClock {
        LinkEndpoint::clock(self)
    }

    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        LinkEndpoint::fault_plan(self)
    }
}
