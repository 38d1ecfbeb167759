//! A region's pages cost resident memory only while it lives, and only
//! once written. This is its own test binary: `VmRSS` is per process, and
//! tests running beside it would move it.
#![cfg(target_os = "linux")]

use lake_shm::ShmRegion;

const MIB: usize = 1 << 20;

/// Resident set size of this process, in bytes.
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    let kib: usize = line.split_whitespace().nth(1).expect("VmRSS value").parse().expect("kB");
    kib * 1024
}

/// Two rounds of an 8 MiB region, as a deployment's model pages come and
/// go. Freeing the first raises glibc's dynamic mmap threshold past 8 MiB,
/// so a heap-backed second region would come from the heap and its
/// written pages would stay resident after the drop.
#[test]
fn a_region_is_resident_only_where_written_and_while_alive() {
    for round in 0..2 {
        let before = vm_rss();
        let shm = ShmRegion::with_capacity(8 * MIB);
        let untouched = vm_rss();
        assert!(
            untouched < before + MIB,
            "round {round}: an 8 MiB region raised VmRSS by {} KiB before any write",
            untouched.saturating_sub(before) / 1024
        );

        let buf = shm.alloc(8 * MIB).unwrap();
        shm.with_bytes_mut(&buf, |b| b.fill(0xA5)).unwrap();
        let written = vm_rss();
        assert!(
            written >= untouched + 7 * MIB,
            "round {round}: writing 8 MiB raised VmRSS by only {} KiB",
            written.saturating_sub(untouched) / 1024
        );
        assert!(shm.read(&buf, 8 * MIB - 4, 4).unwrap() == [0xA5; 4]);

        drop(shm);
        let dropped = vm_rss();
        assert!(
            dropped < before + MIB,
            "round {round}: a dropped 8 MiB region left {} KiB resident",
            dropped.saturating_sub(before) / 1024
        );
    }
}
