//! A decoder corpus for the telemetry wire: random mixed streams go through
//! a recorder, and both readers of its bytes must agree with it.
//!
//! A stream mixes spans and instants with 0–10 attrs (so lists longer than
//! the encoder's eight inline slots spill), all four metric kinds, times on
//! the µs path and as raw `f64`s, and the task/attempt flags. The recorder's
//! `take()` must return exactly the records the stream describes;
//! [`ShardDecoder`] over the shard's bytes, and a [`TailMerger`] fed those
//! bytes in random chunks and polled between them, must both return
//! exactly what `take()` did. Then every prefix of the bytes and every
//! single-byte corruption of them: neither reader panics, and both return
//! the same records and stop on the same error at the same stream offset.
//!
//! The vocabulary is interned before any stream is decoded, and nothing
//! else in this binary interns: a corrupt name id that is unknown to one
//! reader stays unknown to the other.

use lfm_core::telemetry::tail::TailMerger;
use lfm_core::telemetry::{AttrVal, AttrValue, DecodeError, Name, Record, Recorder, ShardDecoder};
use lfm_core::telemetry::{InstantRecord, MetricKind, MetricRecord, SpanRecord};
use proptest::prelude::*;
use std::sync::OnceLock;

const NAMES: [&str; 4] = [
    "corpus.span",
    "corpus.instant",
    "corpus.metric",
    "corpus.other",
];
const CATS: [&str; 2] = ["corpus", "corpus.cat"];
const KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "tenant", "status"];
const STRS: [&str; 3] = ["v0", "v1", "ok"];

/// Intern the whole vocabulary once, before anything decodes.
fn vocab() {
    static DONE: OnceLock<()> = OnceLock::new();
    DONE.get_or_init(|| {
        for s in NAMES.iter().chain(&CATS).chain(&KEYS).chain(&STRS) {
            Name::intern(s);
        }
    });
}

/// splitmix64: every choice in a stream derives from one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// Seconds: a whole number of µs (the varint path), or not (raw).
    fn secs(&mut self) -> f64 {
        let us = self.below(5_000_000_000) as f64;
        if self.below(3) == 0 {
            us / 1e6 + 0.1 + 0.2
        } else {
            us / 1e6
        }
    }

    /// A span's start: [`Rng::secs`], or below zero (raw, like a wall
    /// span's).
    fn start(&mut self) -> f64 {
        match self.below(5) {
            0 => -self.secs() - 1e-7,
            _ => self.secs(),
        }
    }

    /// A metric value: integral (the varint path) or not.
    fn value(&mut self) -> f64 {
        match self.below(3) {
            0 => self.below(1 << 40) as f64,
            1 => self.below(1000) as f64 / 7.0,
            _ => -(self.below(1000) as f64) - 0.5,
        }
    }

    fn attrs(&mut self) -> Vec<(&'static str, AttrValue)> {
        (0..self.below(11))
            .map(|_| {
                let key = self.pick(&KEYS);
                let value = match self.below(4) {
                    0 => AttrValue::U64(self.next() >> self.below(64)),
                    1 => AttrValue::F64(self.value()),
                    2 => AttrValue::F64(self.below(100) as f64),
                    _ => AttrValue::Str(self.pick(&STRS).to_string()),
                };
                (key, value)
            })
            .collect()
    }
}

fn attr_val(v: &AttrValue) -> AttrVal {
    match v {
        AttrValue::U64(v) => (*v).into(),
        AttrValue::F64(v) => (*v).into(),
        AttrValue::Str(s) => s.as_str().into(),
    }
}

/// Emit a stream of `n` records drawn from `seed` on the calling thread;
/// the records it describes, in order.
fn emit_stream(r: &Recorder, seed: u64, n: usize) -> Vec<Record> {
    let mut rng = Rng(seed);
    let mut want = Vec::with_capacity(n);
    for seq in 0..n as u64 {
        let name = rng.pick(&NAMES);
        let cat = rng.pick(&CATS);
        let track = rng.next() >> rng.below(64);
        let task = (rng.below(2) == 0).then(|| rng.next() >> rng.below(64));
        let attempt = (rng.below(2) == 0).then(|| rng.below(1 << 20) as u32);
        let record = match rng.below(6) {
            0 => {
                let start_secs = rng.start();
                let end_secs = start_secs + rng.below(3) as f64 * rng.secs() / 1e3;
                let attrs = rng.attrs();
                let mut span = r.span(name, cat).between_secs(start_secs, end_secs);
                span = span.track(track);
                if let Some(t) = task {
                    span = span.task(t);
                }
                if let Some(a) = attempt {
                    span = span.attempt(a);
                }
                for (k, v) in &attrs {
                    span = span.attr(k, attr_val(v));
                }
                span.emit();
                Record::Span(SpanRecord {
                    seq,
                    name: name.into(),
                    cat: cat.into(),
                    start_secs,
                    end_secs,
                    track,
                    depth: 0,
                    task,
                    attempt,
                    attrs: attrs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
                })
            }
            1 => {
                let at_secs = rng.secs();
                let attrs = rng.attrs();
                let mut instant = r.instant(name, cat).track(track);
                instant = instant.at(lfm_core::simcluster::time::SimTime::from_secs(at_secs));
                if let Some(t) = task {
                    instant = instant.task(t);
                }
                if let Some(a) = attempt {
                    instant = instant.attempt(a);
                }
                for (k, v) in &attrs {
                    instant = instant.attr(k, attr_val(v));
                }
                instant.emit();
                Record::Instant(InstantRecord {
                    seq,
                    name: name.into(),
                    cat: cat.into(),
                    at_secs,
                    track,
                    task,
                    attempt,
                    attrs: attrs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
                })
            }
            kind => {
                let at = |secs: f64| lfm_core::simcluster::time::SimTime::from_secs(secs);
                let (kind, value, at_secs) = match kind {
                    2 => {
                        let delta = rng.next() >> rng.below(64);
                        r.counter(name, delta);
                        (MetricKind::Counter, delta as f64, None)
                    }
                    3 => {
                        let (delta, secs) = (rng.below(1 << 20), rng.secs());
                        r.counter_at(name, delta, at(secs));
                        (MetricKind::Counter, delta as f64, Some(secs))
                    }
                    4 => {
                        let (value, secs) = (rng.value(), rng.secs());
                        r.gauge(name, value, at(secs));
                        (MetricKind::Gauge, value, Some(secs))
                    }
                    _ => {
                        let value = rng.value();
                        r.observe(name, value);
                        (MetricKind::Histogram, value, None)
                    }
                };
                Record::Metric(MetricRecord {
                    seq,
                    name: name.into(),
                    kind,
                    value,
                    at_secs,
                })
            }
        };
        want.push(record);
    }
    want
}

/// What `ShardDecoder` makes of `bytes`: the records before the first
/// error, and that error.
fn decode(bytes: &[u8]) -> (Vec<Record>, Option<DecodeError>) {
    let mut records = Vec::new();
    for item in ShardDecoder::new(bytes) {
        match item {
            Ok(r) => records.push(r),
            Err(e) => return (records, Some(e)),
        }
    }
    (records, None)
}

/// What a `TailMerger` makes of `bytes` fed as one shard in chunks whose
/// lengths `rng` draws, polled after each chunk and flushed at the end.
fn merge(bytes: &[u8], rng: &mut Rng) -> (Vec<Record>, Option<DecodeError>) {
    let mut m = TailMerger::default();
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = (1 + rng.below(24) as usize).min(bytes.len() - pos);
        m.feed(3, &bytes[pos..pos + len]);
        pos += len;
        m.poll(&mut |r| records.push(r.to_record()));
    }
    m.flush(&mut |r| records.push(r.to_record()));
    let mut errors = m.health().errors;
    assert!(
        errors.len() <= 1,
        "one shard, one error at most: {errors:?}"
    );
    (records, errors.pop())
}

/// `n` records from `seed` through a recorder: its one shard's bytes and
/// what `take()` returned, which must be the records the stream describes.
fn recorded(seed: u64, n: usize) -> (Vec<u8>, Vec<Record>) {
    vocab();
    let r = Recorder::enabled();
    let want = emit_stream(&r, seed, n);
    let shards = r.raw_shards();
    let mut shards = shards.into_iter().filter(|b| !b.is_empty());
    let bytes = shards.next().expect("one thread fills one shard");
    assert!(shards.next().is_none());
    let taken = r.take();
    assert_eq!(taken, want, "take() returns the stream as emitted");
    (bytes, taken)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both readers return exactly what `take()` did.
    #[test]
    fn both_readers_return_what_take_returned(seed in any::<u64>(), n in 1usize..80) {
        let (bytes, taken) = recorded(seed, n);
        prop_assert_eq!(decode(&bytes), (taken.clone(), None));
        let mut chunks = Rng(seed ^ 0x5eed);
        prop_assert_eq!(merge(&bytes, &mut chunks), (taken, None));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every prefix: a cut at a record boundary decodes those records and
    /// nothing else; a cut inside one decodes the records before it and
    /// then a truncation error. Both readers, the same records and error.
    #[test]
    fn every_prefix_reads_the_same_on_both_readers(seed in any::<u64>(), n in 1usize..24) {
        let (bytes, taken) = recorded(seed, n);
        let mut chunks = Rng(seed ^ 0xc4c4);
        for cut in 0..=bytes.len() {
            let (records, error) = decode(&bytes[..cut]);
            prop_assert!(taken.starts_with(&records), "cut {}", cut);
            prop_assert!(
                matches!(error, None | Some(DecodeError::Codec(_))),
                "cut {} of a valid stream: {:?}", cut, error
            );
            prop_assert_eq!(merge(&bytes[..cut], &mut chunks), (records, error), "cut {}", cut);
        }
    }

    /// Every single-byte corruption: neither reader panics, and both
    /// return the same records and stop on the same error.
    #[test]
    fn every_corruption_reads_the_same_on_both_readers(seed in any::<u64>(), n in 1usize..24) {
        let (bytes, _) = recorded(seed, n);
        let mut rng = Rng(seed ^ 0xbad);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 + rng.below(255) as u8;
            let decoded = decode(&bad);
            prop_assert_eq!(merge(&bad, &mut rng), decoded, "byte {}", pos);
        }
    }
}
