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
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
        let mut buf = BytesMut::with_capacity(manifest.len() + 24);
        buf.put_slice(MAGIC);
        buf.put_u64_le(self.checksum);
        buf.put_u64_le(manifest.len() as u64);
        buf.put_slice(&manifest);
        buf.freeze()
    }

    /// Parse an archive produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut buf = data;
        if buf.remaining() < 24 {
            return Err(PyEnvError::CorruptArchive("truncated header".into()));
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(PyEnvError::CorruptArchive("bad magic".into()));
        }
        let checksum = buf.get_u64_le();
        let len = buf.get_u64_le() as usize;
        if buf.remaining() < len {
            return Err(PyEnvError::CorruptArchive("truncated manifest".into()));
        }
        let manifest = &buf[..len];
        if fnv1a(manifest) != checksum {
            return Err(PyEnvError::CorruptArchive("checksum mismatch".into()));
        }
        Self::decode_manifest(manifest, checksum)
    }

    fn encode_manifest(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_str(&mut buf, &self.name);
        put_str(&mut buf, &self.source_prefix);
        buf.put_u32_le(self.entries.len() as u32);
        for e in &self.entries {
            put_str(&mut buf, &e.dist);
            buf.put_u32_le(e.version.major);
            buf.put_u32_le(e.version.minor);
            buf.put_u32_le(e.version.patch);
            buf.put_u64_le(e.size_bytes);
            buf.put_u32_le(e.file_count);
            buf.put_u8(e.has_native_libs as u8);
            buf.put_u32_le(e.modules.len() as u32);
            for m in &e.modules {
                put_str(&mut buf, m);
            }
        }
        buf.to_vec()
    }

    fn decode_manifest(mut buf: &[u8], checksum: u64) -> Result<Self> {
        let name = get_str(&mut buf)?;
        let source_prefix = get_str(&mut buf)?;
        let n = get_u32(&mut buf)? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let dist = get_str(&mut buf)?;
            let major = get_u32(&mut buf)?;
            let minor = get_u32(&mut buf)?;
            let patch = get_u32(&mut buf)?;
            let size_bytes = get_u64(&mut buf)?;
            let file_count = get_u32(&mut buf)?;
            let native = get_u8(&mut buf)? != 0;
            let m = get_u32(&mut buf)? as usize;
            let mut modules = Vec::with_capacity(m);
            for _ in 0..m {
                modules.push(get_str(&mut buf)?);
            }
            entries.push(PackEntry {
                dist,
                version: Version::new(major, minor, patch),
                size_bytes,
                file_count,
                has_native_libs: native,
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

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(PyEnvError::CorruptArchive(
            "unexpected end of manifest".into(),
        ));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(PyEnvError::CorruptArchive(
            "unexpected end of manifest".into(),
        ));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(PyEnvError::CorruptArchive(
            "unexpected end of manifest".into(),
        ));
    }
    Ok(buf.get_u64_le())
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(PyEnvError::CorruptArchive("string runs past end".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| PyEnvError::CorruptArchive("invalid utf-8 in manifest".into()))?;
    buf.advance(len);
    Ok(s)
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
    fn fnv_known_values() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
