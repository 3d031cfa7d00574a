//! Environment packing and unpacking — the `conda-pack` equivalent (§V-D).
//!
//! A [`PackedEnv`] is a single relocatable archive object: instead of
//! thousands of files hitting the shared filesystem's metadata server, the
//! whole environment travels as one stream and is unpacked onto node-local
//! storage. The archive carries a binary-encoded manifest (checksummed) and
//! records the sizes needed by the cost models; payload bytes themselves are
//! synthesized deterministically per entry rather than stored, since the
//! simulator accounts for them by size.

use crate::environment::Environment;
use crate::error::{PyEnvError, Result};
use crate::index::DistRelease;
use crate::version::Version;
use bytes::Bytes;
use lfm_telemetry::codec::{
    self, put_bool, put_bytes_u32, put_bytes_u64, put_u32, put_u64, Reader,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

const MAGIC: &[u8; 8] = b"LFMPACK1";

/// A packed, relocatable environment archive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedEnv {
    /// Environment name carried in the manifest.
    pub name: String,
    /// The prefix the environment was installed into when packed.
    pub source_prefix: String,
    /// Manifest entries, name-sorted.
    pub entries: Vec<PackEntry>,
    /// FNV-1a checksum of the encoded manifest.
    pub checksum: u64,
}

/// One distribution inside the archive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackEntry {
    pub dist: String,
    pub version: Version,
    pub size_bytes: u64,
    pub file_count: u32,
    pub has_native_libs: bool,
    pub modules: Vec<String>,
}

/// Pre-interned `(hit, miss)` counter names — this sits on the per-task
/// environment staging path.
fn pack_cache_keys() -> (lfm_telemetry::Name, lfm_telemetry::Name) {
    static KEYS: std::sync::OnceLock<(lfm_telemetry::Name, lfm_telemetry::Name)> =
        std::sync::OnceLock::new();
    *KEYS.get_or_init(|| {
        (
            lfm_telemetry::Name::intern("pack_cache.hit"),
            lfm_telemetry::Name::intern("pack_cache.miss"),
        )
    })
}

/// Shared, process-wide cache of packed environments.
///
/// Packing walks every release of an environment and re-encodes the
/// manifest; the experiment stack packs the *same* environments (one per
/// app name, one TensorFlow env for Figure 5) hundreds of times across a
/// sweep. The cache keys on (name, prefix, pinned contents) so any change
/// to what would be packed produces a distinct entry, and hands out `Arc`s
/// so concurrent sweep jobs share one allocation.
#[derive(Default)]
pub struct PackCache {
    entries: Mutex<HashMap<String, Arc<PackedEnv>>>,
    hits: Mutex<u64>,
}

impl PackCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(env: &Environment) -> String {
        let mut key = format!("{}\x1f{}\x1f", env.name, env.prefix);
        for r in env.releases() {
            key.push_str(&format!("{}={};", r.name, r.version));
        }
        key
    }

    /// Pack `env`, or return the previously packed archive for an identical
    /// environment.
    pub fn pack(&self, env: &Environment) -> Arc<PackedEnv> {
        let key = Self::key(env);
        if let Some(packed) = self.entries.lock().get(&key) {
            *self.hits.lock() += 1;
            lfm_telemetry::global().counter_key(pack_cache_keys().0, 1);
            return Arc::clone(packed);
        }
        lfm_telemetry::global().counter_key(pack_cache_keys().1, 1);
        let packed = Arc::new(PackedEnv::pack(env));
        self.entries
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::clone(&packed))
            .clone()
    }

    /// Number of times `pack` was served from the cache.
    pub fn hits(&self) -> u64 {
        *self.hits.lock()
    }

    /// Number of distinct packed environments held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

/// The process-wide pack cache used by the experiment stack.
pub fn global_pack_cache() -> &'static PackCache {
    static CACHE: OnceLock<PackCache> = OnceLock::new();
    CACHE.get_or_init(PackCache::new)
}

/// [`PackedEnv::pack`] through the process-wide [`global_pack_cache`].
pub fn pack_cached(env: &Environment) -> Arc<PackedEnv> {
    global_pack_cache().pack(env)
}

impl PackedEnv {
    /// Pack an environment.
    pub fn pack(env: &Environment) -> Self {
        let entries: Vec<PackEntry> = env
            .releases()
            .map(|r| PackEntry {
                dist: r.name.clone(),
                version: r.version,
                size_bytes: r.size_bytes,
                file_count: r.file_count,
                has_native_libs: r.has_native_libs,
                modules: r.modules.clone(),
            })
            .collect();
        let mut packed = PackedEnv {
            name: env.name.clone(),
            source_prefix: env.prefix.clone(),
            entries,
            checksum: 0,
        };
        packed.checksum = fnv1a(&packed.encode_manifest());
        packed
    }

    /// Total payload bytes (the size of the tarball that travels the wire).
    /// Includes a compression factor: conda-pack tarballs are gzip'd, and the
    /// paper's HEP env is 240 MB packed for a much larger install footprint.
    pub fn archive_bytes(&self) -> u64 {
        let raw: u64 = self.entries.iter().map(|e| e.size_bytes).sum();
        // Mixed text + native-lib payloads compress roughly 2.5:1.
        (raw as f64 / 2.5) as u64
    }

    /// Installed (unpacked) size.
    pub fn installed_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size_bytes).sum()
    }

    /// Total file count after unpacking.
    pub fn file_count(&self) -> u64 {
        self.entries.iter().map(|e| e.file_count as u64).sum()
    }

    /// How many files need prefix rewriting when relocated to a new prefix —
    /// conda-pack rewrites embedded absolute paths in scripts and native
    /// libraries ("reconfigure the package for its new LFM", §V-D).
    pub fn relocation_ops(&self, new_prefix: &str) -> u64 {
        if new_prefix == self.source_prefix {
            return 0;
        }
        self.entries
            .iter()
            .map(|e| {
                if e.has_native_libs {
                    // Native libs: every file may embed the prefix (RPATH etc.).
                    e.file_count as u64
                } else {
                    // Pure-Python dists: only entry-point scripts, ~2%.
                    (e.file_count as u64 / 50).max(1)
                }
            })
            .sum()
    }

    /// Unpack into an [`Environment`] rooted at `new_prefix`, verifying the
    /// manifest checksum.
    pub fn unpack(&self, new_prefix: impl Into<String>) -> Result<Environment> {
        let expect = fnv1a(&self.encode_manifest());
        if expect != self.checksum {
            return Err(PyEnvError::CorruptArchive(format!(
                "manifest checksum mismatch: stored {:#x}, computed {expect:#x}",
                self.checksum
            )));
        }
        let mut installed = BTreeMap::new();
        let mut module_map = BTreeMap::new();
        for e in &self.entries {
            for m in &e.modules {
                module_map.insert(m.clone(), e.dist.clone());
            }
            installed.insert(
                e.dist.clone(),
                DistRelease {
                    name: e.dist.clone(),
                    version: e.version,
                    size_bytes: e.size_bytes,
                    file_count: e.file_count,
                    // Dependency edges are not needed post-install; the env
                    // is closed by construction.
                    deps: Vec::new(),
                    modules: e.modules.clone(),
                    has_native_libs: e.has_native_libs,
                },
            );
        }
        Ok(Environment::from_parts(
            self.name.clone(),
            new_prefix.into(),
            installed,
            module_map,
        ))
    }

    /// Serialize the whole archive (manifest + checksum) to bytes — what gets
    /// written to the shared filesystem or streamed to a worker.
    pub fn to_bytes(&self) -> Bytes {
        let manifest = self.encode_manifest();
        let mut out = Vec::with_capacity(manifest.len() + 24);
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.checksum);
        put_bytes_u64(&mut out, &manifest);
        Bytes::from(out)
    }

    /// Parse an archive produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        Self::decode(&mut Reader::new(data)).map_err(|e| PyEnvError::CorruptArchive(e.to_string()))
    }

    fn decode(r: &mut Reader<'_>) -> codec::Result<Self> {
        if r.bytes(8)? != MAGIC {
            return Err(codec::Error::Corrupt {
                at: 0,
                what: "bad magic",
            });
        }
        let checksum = r.u64()?;
        let len = r.u64()?;
        let at = r.position();
        let manifest = r.bytes(len)?;
        if fnv1a(manifest) != checksum {
            return Err(codec::Error::Corrupt {
                at,
                what: "manifest checksum mismatch",
            });
        }
        Self::decode_manifest(manifest, checksum)
    }

    fn encode_manifest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes_u32(&mut out, self.name.as_bytes());
        put_bytes_u32(&mut out, self.source_prefix.as_bytes());
        put_u32(&mut out, self.entries.len() as u32);
        for e in &self.entries {
            put_bytes_u32(&mut out, e.dist.as_bytes());
            put_u32(&mut out, e.version.major);
            put_u32(&mut out, e.version.minor);
            put_u32(&mut out, e.version.patch);
            put_u64(&mut out, e.size_bytes);
            put_u32(&mut out, e.file_count);
            put_bool(&mut out, e.has_native_libs);
            put_u32(&mut out, e.modules.len() as u32);
            for m in &e.modules {
                put_bytes_u32(&mut out, m.as_bytes());
            }
        }
        out
    }

    /// The inverse of [`encode_manifest`](Self::encode_manifest); error
    /// offsets count from the manifest's first byte. No count allocates
    /// more entries than the bytes left could hold.
    fn decode_manifest(manifest: &[u8], checksum: u64) -> codec::Result<Self> {
        let r = &mut Reader::new(manifest);
        let name = read_str(r)?;
        let source_prefix = read_str(r)?;
        let n = r.u32()?;
        let mut entries = Vec::with_capacity(r.count(n.into(), ENTRY_MIN_BYTES)?);
        for _ in 0..n {
            let dist = read_str(r)?;
            let version = Version::new(r.u32()?, r.u32()?, r.u32()?);
            let size_bytes = r.u64()?;
            let file_count = r.u32()?;
            let has_native_libs = r.bool()?;
            let m = r.u32()?;
            let mut modules = Vec::with_capacity(r.count(m.into(), 4)?);
            for _ in 0..m {
                modules.push(read_str(r)?);
            }
            entries.push(PackEntry {
                dist,
                version,
                size_bytes,
                file_count,
                has_native_libs,
                modules,
            });
        }
        Ok(PackedEnv {
            name,
            source_prefix,
            entries,
            checksum,
        })
    }
}

/// The fewest bytes a manifest entry encodes to: an empty name, the version,
/// size, file count and flag, and an empty module list.
const ENTRY_MIN_BYTES: usize = 4 + 3 * 4 + 8 + 4 + 1 + 4;

fn read_str(r: &mut Reader<'_>) -> codec::Result<String> {
    let len = r.u32()?;
    Ok(r.str(len.into())?.to_owned())
}

impl Environment {
    /// Internal constructor used by unpack (keeps `Environment` fields
    /// private to preserve the module-map invariant).
    pub(crate) fn from_parts(
        name: String,
        prefix: String,
        installed: BTreeMap<String, DistRelease>,
        module_map: BTreeMap<String, String>,
    ) -> Self {
        Environment::construct(name, prefix, installed, module_map)
    }
}

/// FNV-1a 64-bit hash.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// FNV-1a 64-bit state, for hashing a byte stream as it is produced.
/// `write!` into it hashes exactly the bytes `format!` would have built.
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::PackageIndex;
    use crate::requirements::{Requirement, RequirementSet};
    use crate::resolve::resolve;

    fn sample_env() -> Environment {
        let ix = PackageIndex::builtin();
        let set: RequirementSet = ["numpy", "coffea"]
            .iter()
            .map(|s| Requirement::any(*s))
            .collect();
        let r = resolve(&ix, &set).unwrap();
        Environment::from_resolution("hep", "/home/user/conda/envs/hep", &ix, &r).unwrap()
    }

    #[test]
    fn pack_cache_shares_identical_envs() {
        let env = sample_env();
        let cache = PackCache::new();
        let a = cache.pack(&env);
        assert_eq!(cache.hits(), 0);
        let b = cache.pack(&env);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        assert!(
            Arc::ptr_eq(&a, &b),
            "second pack must reuse the first archive"
        );
        assert_eq!(*a, PackedEnv::pack(&env));
    }

    #[test]
    fn pack_cache_distinguishes_different_envs() {
        let ix = PackageIndex::builtin();
        let cache = PackCache::new();
        let env = sample_env();
        let set: RequirementSet = [Requirement::any("numpy")].into_iter().collect();
        let r = resolve(&ix, &set).unwrap();
        let other = Environment::from_resolution("np", "/envs/np", &ix, &r).unwrap();
        let a = cache.pack(&env);
        let b = cache.pack(&other);
        assert_eq!(cache.len(), 2);
        assert_ne!(*a, *b);
    }

    #[test]
    fn pack_unpack_preserves_contents() {
        let env = sample_env();
        let packed = PackedEnv::pack(&env);
        let restored = packed.unpack("/scratch/worker1/envs/hep").unwrap();
        assert_eq!(restored.dist_count(), env.dist_count());
        assert_eq!(restored.total_bytes(), env.total_bytes());
        assert_eq!(restored.total_files(), env.total_files());
        assert_eq!(restored.prefix, "/scratch/worker1/envs/hep");
        assert_eq!(
            restored.installed_version("numpy"),
            env.installed_version("numpy")
        );
        assert_eq!(restored.dist_for_module("coffea"), Some("coffea"));
    }

    #[test]
    fn archive_smaller_than_install() {
        let env = sample_env();
        let packed = PackedEnv::pack(&env);
        assert!(packed.archive_bytes() < packed.installed_bytes());
        assert!(packed.archive_bytes() > 0);
    }

    #[test]
    fn relocation_zero_for_same_prefix() {
        let env = sample_env();
        let packed = PackedEnv::pack(&env);
        assert_eq!(packed.relocation_ops(&env.prefix), 0);
        assert!(packed.relocation_ops("/elsewhere") > 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let env = sample_env();
        let packed = PackedEnv::pack(&env);
        let bytes = packed.to_bytes();
        let parsed = PackedEnv::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, packed);
    }

    #[test]
    fn archive_layout_is_pinned() {
        // Round trips cannot see a layout change made to encoder and decoder
        // together. Computed before the formats shared one codec.
        let bytes = PackedEnv::pack(&sample_env()).to_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (1574, 0x3c91_4924_ec7d_5aa9));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let env = sample_env();
        let mut bytes = PackedEnv::pack(&env).to_bytes().to_vec();
        bytes[0] ^= 0xff;
        assert!(matches!(
            PackedEnv::from_bytes(&bytes),
            Err(PyEnvError::CorruptArchive(_))
        ));
    }

    #[test]
    fn corrupt_payload_rejected() {
        let env = sample_env();
        let mut bytes = PackedEnv::pack(&env).to_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            PackedEnv::from_bytes(&bytes),
            Err(PyEnvError::CorruptArchive(_))
        ));
    }

    #[test]
    fn truncated_rejected() {
        let env = sample_env();
        let bytes = PackedEnv::pack(&env).to_bytes();
        for cut in [0, 5, 20, bytes.len() - 1] {
            assert!(
                PackedEnv::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn manifest_length_bomb_rejected() {
        // A good header and checksum over a manifest `["", "", u32::MAX
        // entries]`: 36 bytes that once made the decoder reserve u32::MAX
        // entries up front and abort the process.
        let archive = |manifest: &[u8]| {
            let mut out = MAGIC.to_vec();
            put_u64(&mut out, fnv1a(manifest));
            put_bytes_u64(&mut out, manifest);
            out
        };
        let mut manifest = Vec::new();
        for word in [0, 0, u32::MAX] {
            put_u32(&mut manifest, word);
        }
        let bomb = archive(&manifest);
        assert_eq!(bomb.len(), 36);
        assert_eq!(
            PackedEnv::from_bytes(&bomb),
            Err(PyEnvError::CorruptArchive("truncated at byte 12".into()))
        );
        // The same through one entry's module count.
        manifest[8..].copy_from_slice(&1u32.to_le_bytes());
        for word in [0, 1, 2, 3] {
            put_u32(&mut manifest, word); // name length, version
        }
        put_u64(&mut manifest, 1 << 20);
        put_u32(&mut manifest, 9);
        put_bool(&mut manifest, false);
        put_u32(&mut manifest, u32::MAX);
        assert!(matches!(
            PackedEnv::from_bytes(&archive(&manifest)),
            Err(PyEnvError::CorruptArchive(_))
        ));
    }

    #[test]
    fn fnv_known_values() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
