//! Copy accounting for the zero-copy data path.
//!
//! LAKE's Fig 6 argument is that above ~4KB the cost of a remoted call is
//! dominated by memcpys, so the win of the shm path is best expressed as
//! *bytes copied per call*. These counters are bumped at every
//! payload-scale memcpy on the RPC data path (frame assembly, owned decode,
//! retry-buffer clones, staging writes) and at every hand-off that *avoided*
//! one (borrowed decode, shm handle-passing), so a bench — or
//! `Lake::perf_report()` — can difference two snapshots and report exactly
//! how many bytes moved on behalf of a workload.
//!
//! Accounting is two-level. Each [`super::CallEngine`] owns a
//! [`PerfCounters`] instance so a multi-shard deployment can attribute
//! copies to the engine that performed them without double-counting, and
//! every instance bump also rolls up into a process-wide set of atomics
//! (readable via [`snapshot`]) for backward compatibility with callers
//! that predate per-engine accounting. Copies recorded below any engine
//! (the frame codecs) go through the free function [`note_copy`] and land
//! in the rollup only. Tests that assert on the rollup should compare
//! snapshot *deltas* and tolerate unrelated traffic from concurrently
//! running tests.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);
static COPIES: AtomicU64 = AtomicU64::new(0);
static ZERO_COPY_HITS: AtomicU64 = AtomicU64::new(0);
static BYTES_ZERO_COPIED: AtomicU64 = AtomicU64::new(0);

/// Records one memcpy of `bytes` on the RPC data path (process-wide
/// rollup only — engine-attributed sites use [`PerfCounters::note_copy`]).
#[inline]
pub fn note_copy(bytes: usize) {
    BYTES_COPIED.fetch_add(bytes as u64, Ordering::Relaxed);
    COPIES.fetch_add(1, Ordering::Relaxed);
}

/// Per-engine copy counters. Every bump also feeds the process-wide
/// rollup, so summing engine snapshots never exceeds [`snapshot`] and a
/// single-engine process sees identical numbers through either lens.
#[derive(Debug, Default)]
pub struct PerfCounters {
    bytes_copied: AtomicU64,
    copies: AtomicU64,
    zero_copy_hits: AtomicU64,
    bytes_zero_copied: AtomicU64,
}

impl PerfCounters {
    /// A fresh, zeroed counter set.
    pub const fn new() -> Self {
        PerfCounters {
            bytes_copied: AtomicU64::new(0),
            copies: AtomicU64::new(0),
            zero_copy_hits: AtomicU64::new(0),
            bytes_zero_copied: AtomicU64::new(0),
        }
    }

    /// Records one memcpy of `bytes` against this engine (and the rollup).
    #[inline]
    pub fn note_copy(&self, bytes: usize) {
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
        self.copies.fetch_add(1, Ordering::Relaxed);
        note_copy(bytes);
    }

    /// Records one payload hand-off of `bytes` that avoided a memcpy
    /// (borrowed decode, shm handle-passing) against this engine (and the
    /// rollup).
    #[inline]
    pub fn note_zero_copy(&self, bytes: usize) {
        self.zero_copy_hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_zero_copied.fetch_add(bytes as u64, Ordering::Relaxed);
        ZERO_COPY_HITS.fetch_add(1, Ordering::Relaxed);
        BYTES_ZERO_COPIED.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Reads this engine's counters.
    pub fn snapshot(&self) -> PerfSnapshot {
        PerfSnapshot {
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            copies: self.copies.load(Ordering::Relaxed),
            zero_copy_hits: self.zero_copy_hits.load(Ordering::Relaxed),
            bytes_zero_copied: self.bytes_zero_copied.load(Ordering::Relaxed),
        }
    }

    /// Zeroes this engine's counters. The process-wide rollup is left
    /// untouched: it is a monotonic history, not a sum of live engines.
    pub fn reset(&self) {
        self.bytes_copied.store(0, Ordering::Relaxed);
        self.copies.store(0, Ordering::Relaxed);
        self.zero_copy_hits.store(0, Ordering::Relaxed);
        self.bytes_zero_copied.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time view of the copy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfSnapshot {
    /// Total bytes memcpy'd on the RPC data path.
    pub bytes_copied: u64,
    /// Number of memcpys behind `bytes_copied`.
    pub copies: u64,
    /// Payload hand-offs that avoided a copy.
    pub zero_copy_hits: u64,
    /// Bytes delivered through those zero-copy hand-offs.
    pub bytes_zero_copied: u64,
}

impl PerfSnapshot {
    /// Counter-wise `self - earlier`, for before/after measurements.
    pub fn since(&self, earlier: &PerfSnapshot) -> PerfSnapshot {
        PerfSnapshot {
            bytes_copied: self.bytes_copied.wrapping_sub(earlier.bytes_copied),
            copies: self.copies.wrapping_sub(earlier.copies),
            zero_copy_hits: self.zero_copy_hits.wrapping_sub(earlier.zero_copy_hits),
            bytes_zero_copied: self.bytes_zero_copied.wrapping_sub(earlier.bytes_zero_copied),
        }
    }

    /// Counter-wise difference against a later snapshot — the measurement
    /// taken *after* `self`. `a.delta(&b)` reads as "what happened between
    /// a and b"; equivalent to `b.since(&a)`.
    pub fn delta(&self, later: &PerfSnapshot) -> PerfSnapshot {
        later.since(self)
    }

    /// Counter-wise `self + other`, for aggregating per-engine snapshots
    /// into a fleet total.
    pub fn merged(&self, other: &PerfSnapshot) -> PerfSnapshot {
        PerfSnapshot {
            bytes_copied: self.bytes_copied.wrapping_add(other.bytes_copied),
            copies: self.copies.wrapping_add(other.copies),
            zero_copy_hits: self.zero_copy_hits.wrapping_add(other.zero_copy_hits),
            bytes_zero_copied: self.bytes_zero_copied.wrapping_add(other.bytes_zero_copied),
        }
    }
}

/// Reads the current process-wide rollup values.
pub fn snapshot() -> PerfSnapshot {
    PerfSnapshot {
        bytes_copied: BYTES_COPIED.load(Ordering::Relaxed),
        copies: COPIES.load(Ordering::Relaxed),
        zero_copy_hits: ZERO_COPY_HITS.load(Ordering::Relaxed),
        bytes_zero_copied: BYTES_ZERO_COPIED.load(Ordering::Relaxed),
    }
}

/// Zeroes every rollup counter — for bench harnesses that want absolute
/// numbers per run instead of differencing snapshots.
///
/// Resets are racy against concurrent traffic by construction (the
/// counters are process-wide); tests must keep using snapshot deltas.
pub fn reset() {
    BYTES_COPIED.store(0, Ordering::Relaxed);
    COPIES.store(0, Ordering::Relaxed);
    ZERO_COPY_HITS.store(0, Ordering::Relaxed);
    BYTES_ZERO_COPIED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate() {
        let before = snapshot();
        note_copy(100);
        note_copy(28);
        PerfCounters::new().note_zero_copy(4096);
        let d = snapshot().since(&before);
        // Other tests may run concurrently; deltas are lower bounds.
        assert!(d.bytes_copied >= 128);
        assert!(d.copies >= 2);
        assert!(d.zero_copy_hits >= 1);
        assert!(d.bytes_zero_copied >= 4096);
    }

    #[test]
    fn delta_is_since_reversed() {
        let before = snapshot();
        note_copy(64);
        let after = snapshot();
        assert_eq!(before.delta(&after), after.since(&before));
        assert!(before.delta(&after).bytes_copied >= 64);
    }

    #[test]
    fn reset_rebases_the_counters() {
        note_copy(1);
        reset();
        // Concurrent tests may bump the counters between reset() and
        // snapshot(); all we can assert is that the total dropped to (near)
        // zero rather than keeping its full history. Generous bound: the
        // whole suite copies far more than 16 MiB overall.
        let s = snapshot();
        assert!(s.bytes_copied < 16 * 1024 * 1024, "reset must rebase, got {s:?}");
    }

    #[test]
    fn instance_counters_are_isolated_but_roll_up() {
        let a = PerfCounters::new();
        let b = PerfCounters::new();
        let global_before = snapshot();
        a.note_copy(512);
        a.note_zero_copy(4096);
        b.note_copy(8);
        // Instance views are exact — no cross-talk between engines.
        let sa = a.snapshot();
        assert_eq!((sa.bytes_copied, sa.copies), (512, 1));
        assert_eq!((sa.zero_copy_hits, sa.bytes_zero_copied), (1, 4096));
        assert_eq!(b.snapshot().bytes_copied, 8);
        // Both fed the rollup (lower bounds: other tests run concurrently).
        let d = snapshot().since(&global_before);
        assert!(d.bytes_copied >= 520);
        assert!(d.zero_copy_hits >= 1);
        // Instance reset rebases the instance only.
        a.reset();
        assert_eq!(a.snapshot(), PerfSnapshot::default());
        assert!(snapshot().since(&global_before).bytes_copied >= 520);
    }

    #[test]
    fn merged_sums_counterwise() {
        let a =
            PerfSnapshot { bytes_copied: 1, copies: 2, zero_copy_hits: 3, bytes_zero_copied: 4 };
        let b = PerfSnapshot {
            bytes_copied: 10,
            copies: 20,
            zero_copy_hits: 30,
            bytes_zero_copied: 40,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            PerfSnapshot {
                bytes_copied: 11,
                copies: 22,
                zero_copy_hits: 33,
                bytes_zero_copied: 44
            }
        );
    }
}
