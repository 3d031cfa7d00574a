//! Task input/output files.
//!
//! Work Queue tasks name explicit input and output files; the master stages
//! them to workers and caches frequently-used files at the worker so later
//! tasks can reuse them (§III-A). Environment packs are just (large,
//! cacheable) input files.

use serde::{Deserialize, Serialize};

/// What a file is, for staging-cost purposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileKind {
    /// Ordinary data bytes.
    Data,
    /// A packed environment: after transfer it must be unpacked
    /// (`unpacked_files` files, `relocation_ops` prefix rewrites) before
    /// first use on a worker.
    EnvironmentPack {
        unpacked_files: u64,
        relocation_ops: u64,
        unpacked_bytes: u64,
    },
}

/// A named file with a size and caching policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileRef {
    /// Unique name within the workflow (cache key).
    pub name: String,
    /// Transfer size in bytes.
    pub size_bytes: u64,
    /// Cacheable files stay on the worker after the task finishes.
    pub cacheable: bool,
    pub kind: FileKind,
}

impl FileRef {
    /// An ordinary per-task data file.
    pub fn data(name: impl Into<String>, size_bytes: u64) -> Self {
        FileRef {
            name: name.into(),
            size_bytes,
            cacheable: false,
            kind: FileKind::Data,
        }
    }

    /// A shared, cacheable data file (common calibration data etc.).
    pub fn shared_data(name: impl Into<String>, size_bytes: u64) -> Self {
        FileRef {
            name: name.into(),
            size_bytes,
            cacheable: true,
            kind: FileKind::Data,
        }
    }

    /// A packed environment file.
    pub fn environment(
        name: impl Into<String>,
        archive_bytes: u64,
        unpacked_bytes: u64,
        unpacked_files: u64,
        relocation_ops: u64,
    ) -> Self {
        FileRef {
            name: name.into(),
            size_bytes: archive_bytes,
            cacheable: true,
            kind: FileKind::EnvironmentPack {
                unpacked_files,
                relocation_ops,
                unpacked_bytes,
            },
        }
    }

    /// Disk footprint once present on the worker (unpacked envs occupy their
    /// installed size, not the archive size).
    #[cfg(test)]
    pub(crate) fn disk_footprint(&self) -> u64 {
        match &self.kind {
            FileKind::Data => self.size_bytes,
            FileKind::EnvironmentPack { unpacked_bytes, .. } => self.size_bytes + unpacked_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_policy() {
        let d = FileRef::data("input.pkl", 500_000);
        assert!(!d.cacheable);
        let s = FileRef::shared_data("calib.root", 1_000_000);
        assert!(s.cacheable);
        let e = FileRef::environment("env.tar.gz", 240 << 20, 600 << 20, 5000, 800);
        assert!(e.cacheable);
        assert!(matches!(e.kind, FileKind::EnvironmentPack { .. }));
    }

    #[test]
    fn env_disk_footprint_includes_unpacked() {
        let e = FileRef::environment("env", 100, 600, 10, 1);
        assert_eq!(e.disk_footprint(), 700);
        assert_eq!(FileRef::data("d", 42).disk_footprint(), 42);
    }
}
