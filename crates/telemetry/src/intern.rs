//! Process-global string interning for the binary record protocol.
//!
//! The binary wire format ([`crate::wire`]) never carries string bytes on
//! the hot path: span/instant names, categories, attribute keys, and
//! string-valued attributes are all interned once into a process-wide
//! table and referenced by a `u32` [`Name`]. Hot call sites intern their
//! names a single time (usually in a `OnceLock`-initialised key struct)
//! and emit through the `*_key` recorder APIs, paying one varint per
//! string per record instead of one heap `String`.
//!
//! The table only grows — entries are leaked `&'static str`s — which is
//! the standard interner trade-off: the set of distinct telemetry names is
//! small and fixed by the instrumented code (plus bounded run-scoped sets
//! like tenant names and fault labels), so the leak is bounded and a
//! resolved name is a `&'static str` with no reference counting.
//!
//! Resolving is not free: [`Name::resolve`] takes the table's `RwLock` on
//! every call (uncontended, but a lock all the same — on the owned-record
//! read path it was 12 % of `serving_overload`'s samples). So the decoder
//! never resolves: it checks an id against the table's length, an atomic
//! the interner bumps after each insert, and leaves the strings to
//! [`crate::wire::WireRecord::to_record`], which resolves a whole record
//! under one read lock. Consumers that only classify records, like the
//! SLO monitor, compare ids and resolve each distinct id once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned string: a dense index into the process-global table.
///
/// `Name`s are stable for the lifetime of the process and shared by every
/// [`crate::Recorder`]; they are *not* stable across processes, which is
/// why the exporters always resolve them back to strings — identifiers
/// never leak into trace output, keeping identical seeded runs
/// byte-identical regardless of interning order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(pub(crate) u32);

struct Table {
    by_str: HashMap<&'static str, u32>,
    by_id: Vec<&'static str>,
}

/// How many ids the table holds: stored (`Release`) under the write lock
/// after each insert and loaded (`Acquire`) by [`Name::known`], so an id
/// below the value loaded was pushed before it, and resolves.
static LEN: AtomicU32 = AtomicU32::new(0);

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Table {
            by_str: HashMap::new(),
            by_id: Vec::new(),
        })
    })
}

impl Name {
    /// Intern `s`, returning its stable id. Read-locks on the (overwhelming
    /// majority) hit path; write-locks only the first time a string is
    /// seen.
    pub fn intern(s: &str) -> Name {
        let t = table();
        if let Some(&id) = t.read().unwrap().by_str.get(s) {
            return Name(id);
        }
        let mut w = t.write().unwrap();
        if let Some(&id) = w.by_str.get(s) {
            return Name(id); // raced with another interner
        }
        let id = w.by_id.len() as u32;
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        w.by_id.push(leaked);
        w.by_str.insert(leaked, id);
        LEN.store(id + 1, Ordering::Release);
        Name(id)
    }

    /// `id` as a name, if it was ever handed out. No lock: ids only grow,
    /// so one below the length last stored resolves.
    #[inline]
    pub(crate) fn known(id: u64) -> Option<Name> {
        let id = u32::try_from(id).ok()?;
        (id < LEN.load(Ordering::Acquire)).then_some(Name(id))
    }

    /// The interned string, or `None` for an id that was never handed out
    /// (possible only when decoding corrupt bytes — the decoder turns this
    /// into a [`crate::wire::DecodeError`], never a panic).
    pub fn resolve(self) -> Option<&'static str> {
        table().read().unwrap().by_id.get(self.0 as usize).copied()
    }

    /// The interned string; panics on an unknown id (encoder-side use,
    /// where ids are by construction valid).
    pub fn as_str(self) -> &'static str {
        self.resolve().expect("unknown interned Name")
    }
}

/// The table's strings by id, under one read lock: for resolving a batch
/// of names the decoder accepted.
pub(crate) fn with_strs<R>(f: impl FnOnce(&[&'static str]) -> R) -> R {
    let table = table().read().expect("no interner panics holding the lock");
    f(&table.by_id)
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let a = Name::intern("telemetry.test.alpha");
        let b = Name::intern("telemetry.test.alpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "telemetry.test.alpha");
        let c = Name::intern("telemetry.test.beta");
        assert_ne!(a, c);
    }

    #[test]
    fn unknown_id_resolves_to_none() {
        assert_eq!(Name(u32::MAX).resolve(), None);
        assert_eq!(Name::known(u32::MAX as u64), None);
        assert_eq!(Name::known(1 << 32), None);
        let a = Name::intern("telemetry.test.known");
        assert_eq!(Name::known(a.0 as u64), Some(a));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..64).map(|i| format!("telemetry.race.{i}")).collect();
        let ids: Vec<Vec<Name>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let names = &names;
                    s.spawn(move || names.iter().map(|n| Name::intern(n)).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "all threads must agree on ids");
        }
    }
}
