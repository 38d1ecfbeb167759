//! The zeroed bytes behind a [`ShmRegion`](crate::ShmRegion).
//!
//! On Linux the region is an anonymous private mapping. The kernel hands
//! out zero pages on first touch, so a region costs resident memory only
//! for the pages that are written, and `munmap` returns all of it on drop.
//! A zeroed heap `Vec` of the same size is served from the heap once
//! glibc's dynamic mmap threshold has risen past it, and then every byte
//! is written at creation. Other targets keep that `Vec`.

use std::ops::{Deref, DerefMut};

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) use mapped::Backing;

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub(crate) use heap::Backing;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod mapped {
    use std::ffi::c_void;
    use std::ptr::NonNull;

    // Linux values, the same on x86_64 and aarch64.
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;

    // std links libc on Linux, so these resolve without a new crate.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `len` zeroed bytes in an anonymous private mapping, unmapped on drop.
    pub(crate) struct Backing {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is owned by this value alone (no other pointer to
    // it escapes except through `&self`/`&mut self` borrows), so moving it
    // to another thread moves plain ownership, as for a `Vec<u8>`.
    unsafe impl Send for Backing {}

    impl Backing {
        /// Maps `len` zeroed bytes.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero or the kernel refuses the mapping.
        pub(crate) fn zeroed(len: usize) -> Self {
            assert!(len > 0, "shm backing must be non-empty");
            // SAFETY: a fresh anonymous mapping at an address of the
            // kernel's choosing aliases no existing memory; the arguments
            // are valid for that call and the result is checked below.
            let addr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // MAP_FAILED is `(void *) -1`.
            assert!(addr as isize != -1, "mmap of a {len}-byte shm region failed");
            let ptr = NonNull::new(addr.cast::<u8>()).expect("mmap returned null");
            Backing { ptr, len }
        }

        pub(crate) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live, readable mapping of `len` bytes that
            // the kernel zero-filled, so every byte is initialised; `&self`
            // keeps it mapped and unmutated for the borrow.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }

        pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
            // SAFETY: as in `as_slice`, and the mapping is writable;
            // `&mut self` makes this the only reference to it.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Backing {
        fn drop(&mut self) {
            // SAFETY: `ptr..ptr + len` is exactly the mapping made in
            // `zeroed`, unmapped once here, and no borrow of it outlives
            // `self`. The result is ignored: unmapping a whole live
            // mapping cannot fail, and `Drop` must not panic.
            unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod heap {
    /// `len` zeroed heap bytes.
    pub(crate) struct Backing(Vec<u8>);

    impl Backing {
        pub(crate) fn zeroed(len: usize) -> Self {
            Backing(vec![0; len])
        }

        pub(crate) fn as_slice(&self) -> &[u8] {
            &self.0
        }

        pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
            &mut self.0
        }
    }
}

impl Deref for Backing {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for Backing {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backing_starts_zeroed_and_keeps_writes() {
        let mut b = Backing::zeroed(3 * 4096 + 5);
        assert_eq!(b.len(), 3 * 4096 + 5);
        assert!(b.iter().all(|&x| x == 0));
        b[4096..4100].copy_from_slice(b"lake");
        let last = b.len() - 1;
        b[last] = 7;
        assert_eq!(&b[4096..4100], b"lake");
        assert_eq!(b[last], 7);
    }
}
