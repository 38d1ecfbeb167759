//! The typed failure of a bounded admission wait.
//!
//! Staging-buffer allocation does not wait: an exhausted `lakeShm`
//! region fails at once with the allocator's own typed error. The one
//! admission wait left in the stack is the fleet's per-tenant governor,
//! which paces a tenant on the shared virtual clock and gives up with
//! [`AdmissionError::DeadlineExpired`] once its deadline passes.

use std::fmt;

/// Typed admission failures, surfaced to the caller instead of an
/// unbounded stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The request waited its queue deadline without being admitted.
    DeadlineExpired {
        /// Virtual microseconds spent waiting before expiry.
        waited_us: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::DeadlineExpired { waited_us } => {
                write!(f, "admission deadline expired after {waited_us}us")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}
