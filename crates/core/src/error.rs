//! The kernel-facing error type.
//!
//! "Errors caused when executing an API are forwarded to the application,
//! which must do its own error checking" (§4.1) — [`LakeError`] is what a
//! LAKE-powered kernel module checks.

use std::fmt;

use lake_rpc::{RpcError, Status};
use lake_shm::ShmError;

/// Vendor error codes the daemon uses when a simulated CUDA call fails.
pub mod code {
    /// Device out of memory.
    pub const GPU_OOM: u32 = 1;
    /// Invalid device pointer.
    pub const GPU_INVALID_PTR: u32 = 2;
    /// Out-of-bounds device access.
    pub const GPU_OOB: u32 = 3;
    /// Unknown kernel name.
    pub const GPU_UNKNOWN_KERNEL: u32 = 4;
    /// Kernel body fault.
    pub const GPU_KERNEL_FAULT: u32 = 5;
    /// Stale/foreign shared-memory handle referenced by a command.
    pub const SHM_BAD_HANDLE: u32 = 16;
    /// Unknown model id in a high-level call.
    pub const ML_UNKNOWN_MODEL: u32 = 32;
    /// Model blob failed to decode.
    pub const ML_BAD_MODEL: u32 = 33;
    /// Input shape does not match the model.
    pub const ML_BAD_SHAPE: u32 = 34;
    /// The model store's byte budget cannot fit the weights even after
    /// evicting every unpinned resident (pinned in-flight weights hold
    /// the rest, or the blob alone exceeds the budget).
    pub const ML_STORE_FULL: u32 = 35;
    /// A hot-swap offered a version at or below the installed one; the
    /// store only moves forward.
    pub const ML_STALE_VERSION: u32 = 36;
    // 48 and 49 are retired (batched-inference ticket errors) and not
    // reissued.
}

/// Errors surfaced to LAKE-powered kernel applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LakeError {
    /// The remoting layer failed (daemon gone, malformed frame, or the
    /// daemon forwarded a vendor error).
    Rpc(RpcError),
    /// A `lakeShm` operation failed locally (allocation, bounds).
    Shm(ShmError),
    /// The fleet's tenant governor gave up on the request after its
    /// bounded virtual-time wait.
    Admission(AdmissionError),
    /// The daemon's response payload did not decode as expected.
    BadResponse(&'static str),
}

/// The typed failure of the one bounded admission wait in the stack: the
/// fleet's per-tenant governor, which paces a tenant on the shared
/// virtual clock. Staging allocation does not wait; an exhausted
/// `lakeShm` region fails at once with [`ShmError`].
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
        let AdmissionError::DeadlineExpired { waited_us } = self;
        write!(f, "admission deadline expired after {waited_us}us")
    }
}

impl std::error::Error for AdmissionError {}

impl fmt::Display for LakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LakeError::Rpc(e) => write!(f, "lake rpc failure: {e}"),
            LakeError::Shm(e) => write!(f, "lake shm failure: {e}"),
            LakeError::Admission(e) => write!(f, "lake admission failure: {e}"),
            LakeError::BadResponse(what) => write!(f, "malformed daemon response: {what}"),
        }
    }
}

impl std::error::Error for LakeError {}

impl From<RpcError> for LakeError {
    fn from(e: RpcError) -> Self {
        LakeError::Rpc(e)
    }
}

impl From<ShmError> for LakeError {
    fn from(e: ShmError) -> Self {
        LakeError::Shm(e)
    }
}

impl From<AdmissionError> for LakeError {
    fn from(e: AdmissionError) -> Self {
        LakeError::Admission(e)
    }
}

impl From<lake_rpc::WireError> for LakeError {
    fn from(e: lake_rpc::WireError) -> Self {
        LakeError::Rpc(RpcError::Wire(e))
    }
}

impl LakeError {
    /// The vendor error code, if this error is a forwarded vendor failure.
    pub fn vendor_code(&self) -> Option<u32> {
        match self {
            LakeError::Rpc(RpcError::Remote(Status::VendorError(code))) => Some(*code),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_code_extraction() {
        let e = LakeError::Rpc(RpcError::Remote(Status::VendorError(code::GPU_OOM)));
        assert_eq!(e.vendor_code(), Some(code::GPU_OOM));
        let e = LakeError::BadResponse("short");
        assert_eq!(e.vendor_code(), None);
    }

    #[test]
    fn display_formats() {
        let e = LakeError::BadResponse("missing field");
        assert!(e.to_string().contains("missing field"));
    }
}
