//! Node-local storage (ephemeral disk / burst buffer).

use serde::{Deserialize, Serialize};

/// A node-local disk: fast, uncontended (per node), capacity-limited.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalDisk {
    /// Sequential bandwidth in bytes/sec.
    pub bandwidth: f64,
    /// Per-file operation cost in seconds (local FS metadata is cheap but
    /// not free — matters when unpacking thousands of files).
    pub per_file_cost: f64,
    /// Capacity in bytes.
    pub capacity: u64,
    used: u64,
}

impl LocalDisk {
    /// NVMe-class local disk.
    pub fn nvme(capacity: u64) -> Self {
        LocalDisk {
            bandwidth: 2e9,
            per_file_cost: 20e-6,
            capacity,
            used: 0,
        }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Reserve space; returns false (and changes nothing) if it won't fit.
    pub fn allocate(&mut self, bytes: u64) -> bool {
        if self.used + bytes > self.capacity {
            return false;
        }
        self.used += bytes;
        true
    }

    /// Release previously-allocated space.
    pub fn release(&mut self, bytes: u64) {
        assert!(bytes <= self.used, "releasing more than allocated");
        self.used -= bytes;
    }

    /// Time to unpack an archive: write `bytes` across `files` files, then
    /// perform `relocation_ops` prefix rewrites (conda-pack's fix-up pass,
    /// ~1 ms each: read, patch, write a file head).
    pub fn unpack_cost(&self, bytes: u64, files: u64, relocation_ops: u64) -> f64 {
        bytes as f64 / self.bandwidth
            + files as f64 * self.per_file_cost
            + relocation_ops as f64 * 1e-3
    }

    /// Time to read `bytes` of locally-cached data (imports from the
    /// unpacked environment): local metadata + data, no shared contention.
    pub fn read_cost(&self, bytes: u64, files: u64) -> f64 {
        bytes as f64 / self.bandwidth + files as f64 * self.per_file_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_respects_capacity() {
        let mut d = LocalDisk::nvme(100);
        assert!(d.allocate(60));
        assert!(!d.allocate(50));
        assert_eq!(d.used(), 60);
        assert_eq!(d.available(), 40);
        d.release(60);
        assert!(d.allocate(100));
    }

    #[test]
    #[should_panic(expected = "releasing more than allocated")]
    fn over_release_panics() {
        let mut d = LocalDisk::nvme(100);
        d.release(1);
    }

    #[test]
    fn unpack_cost_components() {
        let d = LocalDisk::nvme(u64::MAX);
        let base = d.unpack_cost(1 << 30, 0, 0);
        let with_files = d.unpack_cost(1 << 30, 10_000, 0);
        let with_reloc = d.unpack_cost(1 << 30, 10_000, 1_000);
        assert!(with_files > base);
        assert!(with_reloc > with_files);
        assert!((with_reloc - with_files - 1.0).abs() < 1e-9); // 1000 × 1 ms
    }

    #[test]
    fn local_read_is_fast() {
        // Reading a TF-sized env locally must be far cheaper than a
        // contended shared-FS import at scale.
        let d = LocalDisk::nvme(u64::MAX);
        let local = d.read_cost(1 << 30, 7600);
        let mut fs =
            crate::sharedfs::SharedFs::new(crate::sharedfs::SharedFsParams::lustre_leadership());
        let shared = fs.import_cost(7600, 1 << 30, 512);
        assert!(local < shared / 10.0, "local {local} vs shared {shared}");
    }
}
