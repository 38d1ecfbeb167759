//! The shared byte region mapped into both spaces.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::allocator::{AllocStats, BestFitAllocator, OwnerTag};
use crate::backing::Backing;

/// Errors returned by [`ShmRegion`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmError {
    /// No free block large enough for the request (the paper's `cma=` boot
    /// region is fixed-size; allocation can fail).
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Largest currently-free block.
        largest_free: usize,
    },
    /// Access outside the bounds of a buffer.
    OutOfBounds {
        /// Offset of the attempted access, relative to the buffer start.
        offset: usize,
        /// Length of the attempted access.
        len: usize,
        /// The buffer's capacity.
        capacity: usize,
    },
    /// The buffer handle does not refer to a live allocation of this
    /// region (stale handle or wrong region).
    BadHandle,
    /// The handle's offset *is* a live allocation, but a different one:
    /// the original was freed (or reclaimed from a dead incarnation) and
    /// the slot re-issued. Without the generation check this free/access
    /// would silently hit the new occupant's bytes.
    StaleBuffer {
        /// Generation carried by the stale handle.
        held: u64,
        /// Generation of the allocation now occupying the offset.
        live: u64,
    },
}

impl fmt::Display for ShmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmError::OutOfMemory { requested, largest_free } => write!(
                f,
                "shm out of memory: requested {requested} bytes, largest free block {largest_free}"
            ),
            ShmError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "shm access out of bounds: {offset}+{len} exceeds buffer capacity {capacity}"
            ),
            ShmError::BadHandle => f.write_str("stale or foreign shm buffer handle"),
            ShmError::StaleBuffer { held, live } => write!(
                f,
                "stale shm buffer: handle generation {held}, offset now owned by generation {live}"
            ),
        }
    }
}

impl std::error::Error for ShmError {}

/// A handle to an allocation inside a [`ShmRegion`].
///
/// Like the paper's design, the handle is just an offset/length pair — it
/// is what gets serialized into remoting commands so the daemon can find
/// the data without copying it across the boundary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShmBuffer {
    offset: usize,
    len: usize,
    generation: u64,
}

impl ShmBuffer {
    /// Offset of this buffer within the region — the "device address"
    /// carried in remoted commands.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Buffer capacity in bytes (rounded up to the allocator alignment).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer has zero capacity (never produced by `alloc`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Result of a [`ShmRegion::reclaim_before`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimReport {
    /// Orphaned allocations freed by this sweep.
    pub reclaimed_allocs: u64,
    /// Bytes returned to the free list by this sweep.
    pub reclaimed_bytes: usize,
}

struct Inner {
    alloc: BestFitAllocator,
    bytes: Backing,
}

impl Inner {
    /// Validates a handle against the live table: the offset must be a
    /// live allocation of the same size *and the same generation* —
    /// otherwise a handle outliving its allocation (double free, use after
    /// a reclamation sweep) would silently operate on whatever allocation
    /// occupies the offset now.
    fn check(&self, buf: &ShmBuffer) -> Result<(), ShmError> {
        if self.alloc.size_of(buf.offset) != Some(buf.len) {
            return Err(ShmError::BadHandle);
        }
        let live = self.alloc.generation_of(buf.offset).expect("live allocation has a generation");
        if live != buf.generation {
            return Err(ShmError::StaleBuffer { held: buf.generation, live });
        }
        Ok(())
    }
}

/// The contiguous shared region ("`cma=128M@0-4G`" in the paper's setup).
///
/// Clones share the same underlying storage, modeling the kernel and the
/// daemon mapping the same physical pages.
#[derive(Clone)]
pub struct ShmRegion {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for ShmRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ShmRegion")
            .field("capacity", &inner.alloc.capacity())
            .field("stats", &inner.alloc.stats())
            .finish()
    }
}

impl ShmRegion {
    /// Reserves a region of `capacity` zeroed bytes. On Linux a page of
    /// the region takes resident memory only once it is written.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        ShmRegion {
            inner: Arc::new(Mutex::new(Inner {
                alloc: BestFitAllocator::new(capacity),
                bytes: Backing::zeroed(capacity),
            })),
        }
    }

    /// Total region capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().alloc.capacity()
    }

    /// Allocates a buffer of at least `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::OutOfMemory`] if no free block fits.
    pub fn alloc(&self, size: usize) -> Result<ShmBuffer, ShmError> {
        self.alloc_with_owner(size, None)
    }

    /// Allocates a request-owned buffer: tagged with the region's current
    /// incarnation epoch and `request_id`, so if the owning request dies
    /// with its daemon the reclamation sweep ([`ShmRegion::reclaim_before`])
    /// can find and free it.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::OutOfMemory`] if no free block fits.
    pub fn alloc_owned(&self, size: usize, request_id: u64) -> Result<ShmBuffer, ShmError> {
        let epoch = self.inner.lock().alloc.epoch();
        self.alloc_with_owner(size, Some(OwnerTag { epoch, request_id }))
    }

    /// Allocates a request-owned buffer carved as a whole number of
    /// `page`-byte pages: the requested size is rounded up to the next
    /// page multiple before allocation. Page-granular carving is what the
    /// model store uses for weight blobs, so eviction and dead-version
    /// reclamation return whole pages to the free list and the region
    /// converges instead of fragmenting around odd blob sizes.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::OutOfMemory`] if no free block fits the rounded
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `page` is zero.
    pub fn alloc_owned_paged(
        &self,
        size: usize,
        page: usize,
        request_id: u64,
    ) -> Result<ShmBuffer, ShmError> {
        assert!(page > 0, "page size must be non-zero");
        let rounded = size.max(1).div_ceil(page) * page;
        self.alloc_owned(rounded, request_id)
    }

    fn alloc_with_owner(
        &self,
        size: usize,
        owner: Option<OwnerTag>,
    ) -> Result<ShmBuffer, ShmError> {
        let mut inner = self.inner.lock();
        let largest = inner.alloc.stats().largest_free;
        let (offset, generation) = inner
            .alloc
            .alloc_tagged(size, owner)
            .ok_or(ShmError::OutOfMemory { requested: size, largest_free: largest })?;
        let len = inner.alloc.size_of(offset).expect("fresh allocation is live");
        Ok(ShmBuffer { offset, len, generation })
    }

    /// Frees a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadHandle`] if the handle is stale, or
    /// [`ShmError::StaleBuffer`] if the offset has since been re-issued to
    /// a different allocation (double free across a realloc or a
    /// reclamation sweep).
    pub fn free(&self, buf: ShmBuffer) -> Result<(), ShmError> {
        let mut inner = self.inner.lock();
        inner.check(&buf)?;
        inner.alloc.free(buf.offset);
        Ok(())
    }

    /// The daemon incarnation epoch new owned allocations are tagged with.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().alloc.epoch()
    }

    /// Advances the incarnation epoch (monotonic). Called by the
    /// supervisor when a restarted daemon reattaches the region.
    pub fn set_epoch(&self, epoch: u64) {
        self.inner.lock().alloc.set_epoch(epoch);
    }

    /// Disowns a buffer whose request died with a daemon incarnation: the
    /// kernel side must not free it (the dead daemon may still have it
    /// mapped) but marks it for the next reclamation sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadHandle`]/[`ShmError::StaleBuffer`] exactly
    /// like [`ShmRegion::free`] for dead or re-issued handles.
    pub fn mark_orphan(&self, buf: &ShmBuffer) -> Result<(), ShmError> {
        let mut inner = self.inner.lock();
        inner.check(buf)?;
        inner.alloc.mark_orphaned(buf.offset);
        Ok(())
    }

    /// Reclamation sweep over explicitly orphaned buffers only — what a
    /// supervised restart runs once the dead incarnation's mappings are
    /// gone. Safe to run with requests in flight.
    pub fn reclaim_orphans(&self) -> ReclaimReport {
        let mut inner = self.inner.lock();
        let (reclaimed_allocs, reclaimed_bytes) = inner.alloc.reclaim_orphaned();
        ReclaimReport { reclaimed_allocs, reclaimed_bytes }
    }

    /// Quiescent-point reclamation sweep: frees every marked orphan plus
    /// every owned allocation tagged with an epoch `< min_live_epoch` —
    /// the garbage dead incarnations left behind. Callers must guarantee
    /// nothing is in flight: an epoch-old buffer may otherwise still be
    /// referenced by a request failing over across restarts. Kernel-owned
    /// allocations (plain [`ShmRegion::alloc`]) are never touched.
    pub fn reclaim_before(&self, min_live_epoch: u64) -> ReclaimReport {
        let mut inner = self.inner.lock();
        let (reclaimed_allocs, reclaimed_bytes) = inner.alloc.reclaim_owned_before(min_live_epoch);
        ReclaimReport { reclaimed_allocs, reclaimed_bytes }
    }

    /// Writes `data` into the buffer at `offset` bytes from its start.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::OutOfBounds`] on overflow, [`ShmError::BadHandle`]
    /// if the buffer is not live.
    pub fn write(&self, buf: &ShmBuffer, offset: usize, data: &[u8]) -> Result<(), ShmError> {
        let mut inner = self.inner.lock();
        inner.check(buf)?;
        let end = offset.checked_add(data.len()).ok_or(ShmError::OutOfBounds {
            offset,
            len: data.len(),
            capacity: buf.len,
        })?;
        if end > buf.len {
            return Err(ShmError::OutOfBounds { offset, len: data.len(), capacity: buf.len });
        }
        let start = buf.offset + offset;
        inner.bytes[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes from the buffer at `offset` bytes from its start.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::OutOfBounds`] on overflow, [`ShmError::BadHandle`]
    /// if the buffer is not live.
    pub fn read(&self, buf: &ShmBuffer, offset: usize, len: usize) -> Result<Vec<u8>, ShmError> {
        let inner = self.inner.lock();
        inner.check(buf)?;
        let end = offset.checked_add(len).ok_or(ShmError::OutOfBounds {
            offset,
            len,
            capacity: buf.len,
        })?;
        if end > buf.len {
            return Err(ShmError::OutOfBounds { offset, len, capacity: buf.len });
        }
        let start = buf.offset + offset;
        Ok(inner.bytes[start..start + len].to_vec())
    }

    /// Runs `f` over the buffer's bytes without copying them out — the
    /// zero-copy read path the daemon uses before handing data to the
    /// accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadHandle`] if the buffer is not live.
    pub fn with_bytes<R>(
        &self,
        buf: &ShmBuffer,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, ShmError> {
        let inner = self.inner.lock();
        inner.check(buf)?;
        Ok(f(&inner.bytes[buf.offset..buf.offset + buf.len]))
    }

    /// Mutable zero-copy access, used by the daemon to deposit results.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadHandle`] if the buffer is not live.
    pub fn with_bytes_mut<R>(
        &self,
        buf: &ShmBuffer,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, ShmError> {
        let mut inner = self.inner.lock();
        inner.check(buf)?;
        let range = buf.offset..buf.offset + buf.len;
        Ok(f(&mut inner.bytes[range]))
    }

    /// Resolves a raw offset (as carried in a remoted command) back to a
    /// live buffer handle — what the daemon does when it deserializes a
    /// command referencing shared memory.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadHandle`] if `offset` is not the start of a
    /// live allocation.
    pub fn resolve(&self, offset: usize) -> Result<ShmBuffer, ShmError> {
        let inner = self.inner.lock();
        let len = inner.alloc.size_of(offset).ok_or(ShmError::BadHandle)?;
        // Stamp the *allocation's own* generation (not some region-global
        // counter): the resolved handle must go stale the moment this
        // allocation is freed, even if the offset is re-issued.
        let generation = inner.alloc.generation_of(offset).expect("live allocation");
        Ok(ShmBuffer { offset, len, generation })
    }

    /// Allocator statistics.
    pub fn stats(&self) -> AllocStats {
        self.inner.lock().alloc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_writes_daemon_reads_zero_copy() {
        let shm = ShmRegion::with_capacity(4096);
        let daemon_view = shm.clone(); // same mapping
        let buf = shm.alloc(128).unwrap();
        shm.write(&buf, 0, b"hello daemon").unwrap();
        let got = daemon_view.with_bytes(&buf, |bytes| bytes[..12].to_vec()).unwrap();
        assert_eq!(&got, b"hello daemon");
    }

    #[test]
    fn resolve_offset_like_command_deserialization() {
        let shm = ShmRegion::with_capacity(4096);
        let buf = shm.alloc(256).unwrap();
        shm.write(&buf, 0, &[7u8; 16]).unwrap();
        let resolved = shm.resolve(buf.offset()).unwrap();
        assert_eq!(resolved.len(), buf.len());
        assert_eq!(shm.read(&resolved, 0, 16).unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let shm = ShmRegion::with_capacity(4096);
        let buf = shm.alloc(64).unwrap();
        let err = shm.write(&buf, 60, &[0u8; 8]).unwrap_err();
        assert!(matches!(err, ShmError::OutOfBounds { .. }));
    }

    #[test]
    fn stale_handle_rejected_after_free() {
        let shm = ShmRegion::with_capacity(4096);
        let buf = shm.alloc(64).unwrap();
        shm.free(buf.clone()).unwrap();
        assert_eq!(shm.read(&buf, 0, 1), Err(ShmError::BadHandle));
        assert_eq!(shm.free(buf), Err(ShmError::BadHandle));
    }

    #[test]
    fn stale_generation_detected_after_offset_reuse() {
        let shm = ShmRegion::with_capacity(4096);
        let old = shm.alloc(64).unwrap();
        shm.free(old.clone()).unwrap();
        // Best fit re-issues the same offset at the same size...
        let new = shm.alloc(64).unwrap();
        assert_eq!(new.offset(), old.offset());
        // ...and without the generation check, the old handle would now
        // silently free (or read) the NEW allocation. Typed error instead.
        assert!(matches!(shm.free(old.clone()), Err(ShmError::StaleBuffer { .. })));
        assert!(matches!(shm.read(&old, 0, 1), Err(ShmError::StaleBuffer { .. })));
        assert!(matches!(shm.write(&old, 0, &[1]), Err(ShmError::StaleBuffer { .. })));
        // The live occupant is untouched and still frees cleanly.
        shm.free(new).unwrap();
        assert_eq!(shm.stats().in_use, 0);
    }

    #[test]
    fn resolve_stamps_the_allocations_own_generation() {
        let shm = ShmRegion::with_capacity(4096);
        let a = shm.alloc(64).unwrap();
        let resolved = shm.resolve(a.offset()).unwrap();
        shm.free(a).unwrap();
        let _b = shm.alloc(64).unwrap(); // same offset, new generation
        assert!(
            matches!(shm.read(&resolved, 0, 1), Err(ShmError::StaleBuffer { .. })),
            "a resolved handle must go stale with its allocation"
        );
    }

    #[test]
    fn reclaim_sweep_frees_dead_epoch_orphans() {
        let shm = ShmRegion::with_capacity(4096);
        let kernel = shm.alloc(128).unwrap();
        let orphan_a = shm.alloc_owned(256, 11).unwrap();
        let orphan_b = shm.alloc_owned(512, 12).unwrap();
        // Daemon dies; epoch moves to 1. Old owned allocations are orphans.
        shm.set_epoch(1);
        let survivor = shm.alloc_owned(64, 13).unwrap();
        assert_eq!(shm.stats().orphaned_bytes, 256 + 512);

        let report = shm.reclaim_before(1);
        assert_eq!(report.reclaimed_allocs, 2);
        assert_eq!(report.reclaimed_bytes, 256 + 512);
        // Orphan handles are dead; typed errors, not silent corruption.
        assert!(shm.read(&orphan_a, 0, 1).is_err());
        assert!(shm.free(orphan_b).is_err());
        // Kernel-owned and current-epoch allocations survived.
        shm.read(&kernel, 0, 1).unwrap();
        shm.free(survivor).unwrap();
        shm.free(kernel).unwrap();
        let s = shm.stats();
        assert_eq!(s.in_use, 0);
        assert_eq!(s.orphaned_bytes, 0);
        assert_eq!(s.free_blocks, 1, "region must converge back to one coalesced block");
    }

    #[test]
    fn paged_alloc_rounds_to_whole_pages_and_reclaims_cleanly() {
        let shm = ShmRegion::with_capacity(64 * 1024);
        let a = shm.alloc_owned_paged(5, 4096, 1).unwrap();
        assert_eq!(a.len(), 4096);
        let b = shm.alloc_owned_paged(4097, 4096, 2).unwrap();
        assert_eq!(b.len(), 8192);
        // Dead-incarnation pages sweep back to one coalesced block.
        shm.set_epoch(1);
        let report = shm.reclaim_before(1);
        assert_eq!(report.reclaimed_allocs, 2);
        assert_eq!(report.reclaimed_bytes, 4096 + 8192);
        assert_eq!(shm.stats().free_blocks, 1);
    }

    #[test]
    fn oom_reports_largest_free() {
        let shm = ShmRegion::with_capacity(256);
        let _a = shm.alloc(128).unwrap();
        let err = shm.alloc(256).unwrap_err();
        match err {
            ShmError::OutOfMemory { requested, largest_free } => {
                assert_eq!(requested, 256);
                assert_eq!(largest_free, 128);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn with_bytes_mut_deposits_results() {
        let shm = ShmRegion::with_capacity(1024);
        let buf = shm.alloc(8).unwrap();
        shm.with_bytes_mut(&buf, |b| b[..4].copy_from_slice(&42u32.to_le_bytes())).unwrap();
        let out = shm.read(&buf, 0, 4).unwrap();
        assert_eq!(u32::from_le_bytes(out.try_into().unwrap()), 42);
    }

    #[test]
    fn concurrent_access_from_threads() {
        let shm = ShmRegion::with_capacity(1 << 16);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let shm = shm.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let buf = shm.alloc(128).unwrap();
                        shm.write(&buf, 0, &[i as u8; 128]).unwrap();
                        let back = shm.read(&buf, 0, 128).unwrap();
                        assert!(back.iter().all(|&b| b == i as u8));
                        shm.free(buf).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shm.stats().in_use, 0);
    }

    #[test]
    fn display_messages_are_informative() {
        let e = ShmError::OutOfMemory { requested: 10, largest_free: 4 };
        assert!(e.to_string().contains("10"));
        let e = ShmError::OutOfBounds { offset: 1, len: 2, capacity: 2 };
        assert!(e.to_string().contains("exceeds"));
    }
}
