//! # lfm-telemetry — end-to-end tracing & metrics for the LFM stack
//!
//! The paper makes *function invocations* the unit of resource management;
//! this crate makes them the unit of observability. Every layer of the
//! simulated stack (master, worker, LFM, sweep engine, environment caches)
//! records **spans** (named intervals in simulated or wall time, with
//! task/worker/attempt ids and key=value attrs) and **counters / gauges /
//! histogram samples** through a cheap [`Recorder`] handle.
//!
//! Design rules:
//!
//! * **Zero perturbation.** Recording never touches simulation state: no
//!   RNG draws, no event-queue traffic, no timing inputs. A run with a live
//!   recorder produces a byte-identical `RunReport` to one with
//!   [`Recorder::disabled`] (pinned by an integration test).
//! * **~Free when off.** [`Recorder::disabled`] is a `None` behind the
//!   handle; every emission path checks it first and allocates nothing —
//!   including string interning, which only happens once a live shard is
//!   in hand.
//! * **Binary hot path.** Live recording encodes each record straight into
//!   a per-shard byte buffer using the compact wire format in [`wire`]:
//!   interned-name ids ([`Name`]) instead of heap `String`s, varint fields,
//!   delta-coded timestamps. A span that used to cost two `String`
//!   allocations plus a ~150-byte enum now costs ~10–30 buffer bytes and
//!   zero allocations (amortised). [`Recorder::take`] / [`Recorder::snapshot`]
//!   stream-decode the shards back into [`Record`]s through a k-way merge
//!   on the global sequence number, so exporters and tests see exactly the
//!   stream the heap-record implementation produced — byte-identical traces
//!   for identical seeded runs.
//! * **Sharded buffers.** Live recording appends to one of a fixed set of
//!   mutex-guarded shards chosen by thread, so parallel sweep jobs sharing
//!   a recorder do not serialize on one lock. A global sequence number
//!   gives the merged stream a total order.
//! * **Bounded memory.** Each shard holds at most a fixed number of
//!   records ([`Recorder::enabled_with_capacity`]); overflowing records
//!   are dropped and counted, and the count surfaces as a synthetic
//!   untimed `telemetry.dropped_events` counter in [`Recorder::take`] /
//!   [`Recorder::snapshot`] output (and thence the Chrome trace's
//!   `otherData`), so a million-task federation run cannot OOM the host
//!   silently.
//!
//! ### Atomic ordering contract
//!
//! Both atomics in the recorder use `Relaxed` everywhere, deliberately:
//!
//! * `seq` is bumped with `fetch_add` *while holding the emitting shard's
//!   mutex*. The total order of the merged stream comes from the **values**
//!   the counter hands out, not from memory ordering; and the
//!   happens-before edges that make each encoded record visible to
//!   `take`/`snapshot` come from the shard mutexes (readers lock every
//!   shard). Holding the lock across the `fetch_add` also makes sequence
//!   numbers strictly increasing *within* a shard, which is what lets the
//!   wire format delta-code them as non-negative varints.
//! * `dropped` is a pure statistics counter guarding no data; `swap(0,
//!   Relaxed)` in `take` is a single atomic read-and-reset, which is all
//!   the reset needs. Its value is only *reported* (never used to index or
//!   gate memory), so weaker-than-`AcqRel` is sound.
//!
//! A multi-thread stress test (`tests/telemetry_binary.rs`) hammers eight
//! emitters against concurrent snapshots to pin merge total-order
//! stability under this contract.
//!
//! Exporters (see [`export`]) turn the merged stream into Chrome
//! trace-event JSON (`chrome://tracing` loadable), flat JSONL, or a binary
//! Perfetto protobuf trace ([`export::perfetto_trace`]);
//! [`MetricsRegistry`] aggregates the metric samples into the existing
//! `lfm_simcluster::metrics` types.
//!
//! ### Hot call sites: pre-interned keys
//!
//! `span("exec", "lfm")` interns both strings on every call — a hash
//! lookup under a read lock. Hot sites skip even that by interning once
//! into a [`Name`] (typically in a `OnceLock`-initialised key struct) and
//! emitting through the `*_key` variants ([`Recorder::span_key`],
//! [`Recorder::counter_key`], ...), which take pre-interned ids and touch
//! no string machinery at all.

pub mod export;
pub mod intern;
pub mod metrics;
pub mod perfetto;
pub mod record;
pub mod slo;
pub mod tail;
pub mod wire;

pub use intern::Name;
pub use metrics::MetricsRegistry;
pub use record::{AttrValue, InstantRecord, MetricKind, MetricRecord, Record, SpanRecord};
pub use tail::{TailBatch, TailCursor};
pub use wire::{AttrVal, DecodeError, MergeDecoder, ShardDecoder};

use lfm_simcluster::time::SimTime;
use parking_lot::Mutex;
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wire::{CodecState, PendingInstant, PendingSpan};

/// Number of per-thread buffer shards. A small power of two: the stack
/// never runs more than a few dozen recording threads at once.
const SHARD_COUNT: usize = 16;

/// Default per-shard record cap (~4M records across 16 shards): generous
/// for every paper figure, small enough that a runaway emitter cannot eat
/// the host.
const DEFAULT_SHARD_CAPACITY: usize = 1 << 18;

/// One shard: an append-only byte buffer of wire-encoded records plus the
/// codec state both ends of the wire mirror (seq/time deltas).
#[derive(Default)]
struct Shard {
    buf: Vec<u8>,
    /// Records currently encoded in `buf` (the capacity unit — capping on
    /// records, not bytes, preserves the PR-2 overflow semantics exactly).
    records: usize,
    /// Encoder state at the *end* of `buf` (what the next record is
    /// delta-coded against).
    st: CodecState,
    /// Decoder state at the *start* of `buf`. Equal to the default until a
    /// tail consumer drains the shard mid-run: a tail drain takes the
    /// bytes without resetting `st`, so the remaining stream's first
    /// record is delta-coded against the drained prefix and any later
    /// whole-buffer decode ([`Recorder::take`] / [`Recorder::snapshot`])
    /// must resume from this state.
    base_st: CodecState,
}

struct Inner {
    /// Global sequence counter; `Relaxed` per the module-level ordering
    /// contract (bumped under a shard mutex, ordered by value).
    seq: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    /// Per-shard record cap; pushes beyond it are dropped and counted.
    shard_capacity: usize,
    /// Records dropped at full shards since the last [`Recorder::take`].
    /// `Relaxed`: a pure statistics counter, see the ordering contract.
    dropped: AtomicU64,
    /// Records dropped at full shards over the recorder's whole lifetime —
    /// never reset, so tail cursors can report per-poll deltas no matter
    /// how `take` interleaves with them.
    dropped_total: AtomicU64,
    /// Bumped by every [`Recorder::take`]; tail cursors compare it to
    /// detect that records were consumed behind their back and resync
    /// instead of waiting forever for sequence numbers that will never
    /// arrive.
    take_epoch: AtomicU64,
    /// Wall-clock origin for host-side spans ([`Recorder::wall_span`]).
    origin: Instant,
}

thread_local! {
    /// Wall-span nesting depth for the current thread.
    static WALL_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Cached shard index (usize::MAX = not yet computed). Hashing the
    /// thread id costs more than the rest of a binary emission combined,
    /// so it happens once per thread, not once per record.
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Cheap, cloneable handle to a recording session (or to nothing at all).
///
/// Cloning shares the underlying buffers: a `MasterConfig` cloned across a
/// sweep fans every job's records into the same session.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Recorder(enabled, {} records)", inner.len()),
            None => write!(f, "Recorder(disabled)"),
        }
    }
}

impl Inner {
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().records).sum()
    }
}

/// Shard index for the current thread: stable within a thread, spread
/// across threads.
fn thread_shard() -> usize {
    SHARD_IDX.with(|c| {
        let cached = c.get();
        if cached != usize::MAX {
            return cached;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let idx = (h.finish() as usize) % SHARD_COUNT;
        c.set(idx);
        idx
    })
}

impl Recorder {
    /// A live recording session with empty buffers and the default
    /// per-shard capacity.
    pub fn enabled() -> Self {
        Self::enabled_with_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// A live recording session whose shards each hold at most
    /// `shard_capacity` records (clamped to ≥ 1). Overflowing records are
    /// dropped and counted — see [`Recorder::dropped`].
    pub fn enabled_with_capacity(shard_capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                seq: AtomicU64::new(0),
                shards: (0..SHARD_COUNT)
                    .map(|_| Mutex::new(Shard::default()))
                    .collect(),
                shard_capacity: shard_capacity.max(1),
                dropped: AtomicU64::new(0),
                dropped_total: AtomicU64::new(0),
                take_epoch: AtomicU64::new(0),
                origin: Instant::now(),
            })),
        }
    }

    /// Records dropped at full shards since the last [`Recorder::take`]
    /// (0 for a disabled recorder).
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.dropped.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The no-op recorder: every emission is a single branch, no
    /// allocation, no locking.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records buffered so far (all shards).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map(|i| i.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently buffered across all shards (diagnostics/benches).
    pub fn buffered_bytes(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.shards.iter().map(|s| s.lock().buf.len()).sum())
            .unwrap_or(0)
    }

    /// The emission hot path: claim the thread's shard, enforce the record
    /// cap, hand out a sequence number, and encode in place. The closure
    /// runs under the shard lock — it must only append to the buffer.
    #[inline]
    fn emit(&self, encode: impl FnOnce(u64, &mut Vec<u8>, &mut CodecState)) {
        let Some(inner) = &self.inner else { return };
        let mut shard = inner.shards[thread_shard()].lock();
        if shard.records >= inner.shard_capacity {
            // Drop-and-count: no seq is consumed, so the surviving stream
            // stays dense and totally ordered.
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            inner.dropped_total.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Relaxed is sound here: the shard mutex orders the buffer bytes,
        // and the seq *value* orders the merged stream (see module docs).
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let Shard {
            buf, records, st, ..
        } = &mut *shard;
        encode(seq, buf, st);
        *records += 1;
    }

    /// The synthetic record surfacing the overflow count: an untimed
    /// monotonic counter, which the Chrome exporter aggregates into
    /// `otherData` like any other untimed metric.
    fn dropped_record(seq: u64, dropped: u64) -> Record {
        Record::Metric(MetricRecord {
            seq,
            name: "telemetry.dropped_events".to_string(),
            kind: MetricKind::Counter,
            value: dropped as f64,
            at_secs: None,
        })
    }

    /// Begin a span description; finish with [`SpanBuilder::emit`]. When
    /// the recorder is disabled the builder is inert and nothing is
    /// allocated or interned.
    pub fn span(&self, name: &str, cat: &str) -> SpanBuilder<'_> {
        if self.inner.is_none() {
            return SpanBuilder {
                recorder: self,
                pending: None,
            };
        }
        self.span_key(Name::intern(name), Name::intern(cat))
    }

    /// [`Recorder::span`] with pre-interned names: the hot-site variant,
    /// no string hashing at all.
    pub fn span_key(&self, name: Name, cat: Name) -> SpanBuilder<'_> {
        SpanBuilder {
            recorder: self,
            pending: self.inner.as_ref().map(|_| PendingSpan {
                name,
                cat,
                ..Default::default()
            }),
        }
    }

    /// Begin a point-event description; finish with
    /// [`InstantBuilder::emit`].
    pub fn instant(&self, name: &str, cat: &str) -> InstantBuilder<'_> {
        if self.inner.is_none() {
            return InstantBuilder {
                recorder: self,
                pending: None,
            };
        }
        self.instant_key(Name::intern(name), Name::intern(cat))
    }

    /// [`Recorder::instant`] with pre-interned names.
    pub fn instant_key(&self, name: Name, cat: Name) -> InstantBuilder<'_> {
        InstantBuilder {
            recorder: self,
            pending: self.inner.as_ref().map(|_| PendingInstant {
                name,
                cat,
                ..Default::default()
            }),
        }
    }

    /// Add `delta` to an untimed monotonic counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            self.counter_key(Name::intern(name), delta);
        }
    }

    /// [`Recorder::counter`] with a pre-interned name.
    pub fn counter_key(&self, name: Name, delta: u64) {
        self.emit(|seq, buf, st| {
            wire::encode_metric(buf, st, seq, name, MetricKind::Counter, delta as f64, None);
        });
    }

    /// Add `delta` to a counter at a simulated timestamp (plotted as a
    /// running total in the Chrome trace).
    pub fn counter_at(&self, name: &str, delta: u64, at: SimTime) {
        if self.inner.is_some() {
            self.counter_at_key(Name::intern(name), delta, at);
        }
    }

    /// [`Recorder::counter_at`] with a pre-interned name.
    pub fn counter_at_key(&self, name: Name, delta: u64, at: SimTime) {
        self.emit(|seq, buf, st| {
            wire::encode_metric(
                buf,
                st,
                seq,
                name,
                MetricKind::Counter,
                delta as f64,
                Some(at.as_secs()),
            );
        });
    }

    /// Record a level (queue depth, pool size) at a simulated timestamp.
    pub fn gauge(&self, name: &str, value: f64, at: SimTime) {
        if self.inner.is_some() {
            self.gauge_key(Name::intern(name), value, at);
        }
    }

    /// [`Recorder::gauge`] with a pre-interned name.
    pub fn gauge_key(&self, name: Name, value: f64, at: SimTime) {
        self.emit(|seq, buf, st| {
            wire::encode_metric(
                buf,
                st,
                seq,
                name,
                MetricKind::Gauge,
                value,
                Some(at.as_secs()),
            );
        });
    }

    /// Record one sample of a distribution.
    pub fn observe(&self, name: &str, value: f64) {
        if self.inner.is_some() {
            self.observe_key(Name::intern(name), value);
        }
    }

    /// [`Recorder::observe`] with a pre-interned name.
    pub fn observe_key(&self, name: Name, value: f64) {
        self.emit(|seq, buf, st| {
            wire::encode_metric(buf, st, seq, name, MetricKind::Histogram, value, None);
        });
    }

    /// Open a wall-clock span that records itself on drop. Used by the
    /// host-side layers (parallel sweep engine) whose time axis is real.
    /// Nested guards on one thread track their depth.
    pub fn wall_span(&self, name: &str, cat: &str) -> WallSpan {
        if self.inner.is_none() {
            return WallSpan { state: None };
        }
        self.wall_span_key(Name::intern(name), Name::intern(cat))
    }

    /// [`Recorder::wall_span`] with pre-interned names.
    pub fn wall_span_key(&self, name: Name, cat: Name) -> WallSpan {
        let Some(inner) = &self.inner else {
            return WallSpan { state: None };
        };
        let depth = WALL_DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        WallSpan {
            state: Some(WallSpanState {
                recorder: self.clone(),
                name,
                cat,
                start_secs: inner.origin.elapsed().as_secs_f64(),
                depth,
                attrs: wire::AttrList::default(),
            }),
        }
    }

    /// Decode + k-way merge shard buffers into `seq` order, resuming each
    /// shard from its saved base codec state (non-default only after a
    /// tail consumer drained a prefix of the stream).
    fn decode_merged(bufs: &[(Vec<u8>, CodecState)], capacity: usize) -> Vec<Record> {
        let mut out = Vec::with_capacity(capacity + 1);
        let mut merge = MergeDecoder::with_states(bufs.iter().map(|(b, st)| (b.as_slice(), *st)));
        out.extend(merge.by_ref());
        debug_assert!(
            merge.errors().is_empty(),
            "self-encoded stream must decode cleanly: {:?}",
            merge.errors()
        );
        out
    }

    /// Drain every shard and return the merged stream in `seq` order. If
    /// any records were dropped at full shards, a synthetic untimed
    /// `telemetry.dropped_events` counter carrying the count is appended
    /// and the drop counter resets.
    pub fn take(&self) -> Vec<Record> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut total = 0;
        let bufs: Vec<(Vec<u8>, CodecState)> = inner
            .shards
            .iter()
            .map(|s| {
                let mut shard = s.lock();
                total += shard.records;
                shard.records = 0;
                shard.st = CodecState::default();
                let base = shard.base_st;
                shard.base_st = CodecState::default();
                (std::mem::take(&mut shard.buf), base)
            })
            .collect();
        inner.take_epoch.fetch_add(1, Ordering::Relaxed);
        let mut out = Self::decode_merged(&bufs, total);
        let dropped = inner.dropped.swap(0, Ordering::Relaxed);
        if dropped > 0 {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            out.push(Self::dropped_record(seq, dropped));
        }
        out
    }

    /// Clone the merged stream in `seq` order **without draining**:
    /// repeated snapshots (and a later [`Recorder::take`] or tail drain)
    /// all see the same buffered records — nothing is consumed or reset.
    /// A nonzero drop count is surfaced as a trailing synthetic
    /// `telemetry.dropped_events` counter (without resetting it).
    pub fn snapshot(&self) -> Vec<Record> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut total = 0;
        let bufs: Vec<(Vec<u8>, CodecState)> = inner
            .shards
            .iter()
            .map(|s| {
                let shard = s.lock();
                total += shard.records;
                (shard.buf.clone(), shard.base_st)
            })
            .collect();
        let mut out = Self::decode_merged(&bufs, total);
        let dropped = inner.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            out.push(Self::dropped_record(
                inner.seq.load(Ordering::Relaxed),
                dropped,
            ));
        }
        out
    }

    /// Clone the raw binary shard buffers without draining or decoding.
    /// Each buffer is an independent wire stream for [`ShardDecoder`];
    /// feed all of them to [`MergeDecoder`] to reconstruct the total
    /// order. [`Recorder::take`] is the in-process convenience wrapper
    /// around exactly that; this accessor is for consumers that ship the
    /// bytes elsewhere (or tests that corrupt them on purpose). Note that
    /// after a tail drain the buffers no longer start from the default
    /// codec state, so a fresh [`ShardDecoder`] only decodes them when no
    /// tail consumer is active.
    pub fn raw_shards(&self) -> Vec<Vec<u8>> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner.shards.iter().map(|s| s.lock().buf.clone()).collect()
    }

    /// Open a tail cursor at the current take-epoch with zero drained
    /// records. Hand it to [`Recorder::drain_since`] to consume the
    /// stream incrementally while the run is live.
    ///
    /// A recorder supports **one** draining tail consumer at a time:
    /// drains consume buffered records (like [`Recorder::take`], but
    /// incremental), so two cursors — or a cursor raced against periodic
    /// `take` calls — would each see a disjoint subset of the stream.
    /// [`Recorder::snapshot`] stays safe to mix in: it never consumes, so
    /// a snapshot-then-drain sequence sees each record exactly once in
    /// the drain (no double counting, pinned by a unit test).
    pub fn cursor(&self) -> TailCursor {
        TailCursor::new(
            SHARD_COUNT,
            self.inner
                .as_ref()
                .map(|i| i.take_epoch.load(Ordering::Relaxed))
                .unwrap_or(0),
        )
    }

    /// Drain every record buffered since the cursor's last poll and merge
    /// them into `seq` order, without resetting the per-shard codec state
    /// — successive drains are one continuous wire stream per shard, so
    /// concatenating the raw chunks reproduces exactly what an undrained
    /// buffer would have held. Records dropped at full shards since the
    /// last poll are reported as [`TailBatch::dropped_delta`] (never as a
    /// decode error). Records whose sequence numbers have gaps still being
    /// filled by other shards stay buffered in the cursor until the gap
    /// closes; [`Recorder::finish_tail`] flushes them at end of run.
    pub fn drain_since(&self, cursor: &mut TailCursor) -> TailBatch {
        let Some(inner) = &self.inner else {
            return TailBatch::default();
        };
        let epoch = inner.take_epoch.load(Ordering::Relaxed);
        cursor.observe_epoch(epoch);
        for (i, s) in inner.shards.iter().enumerate() {
            let mut shard = s.lock();
            if shard.buf.is_empty() {
                continue;
            }
            shard.records = 0;
            // Keep `st` (encoder keeps delta-coding against the drained
            // prefix) and advance `base_st` to match: the buffer now
            // starts where the encoder stands.
            shard.base_st = shard.st;
            cursor.feed(i, &shard.buf);
            // clear() keeps the allocation: stealing the Vec would force
            // the emit hot path to regrow it from zero after every poll.
            shard.buf.clear();
        }
        let records = cursor.poll();
        let dropped_delta = cursor.observe_dropped(inner.dropped_total.load(Ordering::Relaxed));
        TailBatch {
            records,
            dropped_delta,
        }
    }

    /// Final tail poll: drain whatever is still buffered, then flush any
    /// records the cursor was holding for sequence-gap contiguity. Call
    /// once after the producing run has finished.
    pub fn finish_tail(&self, cursor: &mut TailCursor) -> TailBatch {
        let mut batch = self.drain_since(cursor);
        batch.records.extend(cursor.flush());
        batch
    }

    /// Build the synthetic `telemetry.dropped_events` record a tail
    /// consumer appends at end of stream, consuming one fresh sequence
    /// number exactly like [`Recorder::take`] does for its own synthetic
    /// record. Pure construction: no counters are read or reset — pass
    /// the drop total the cursor accumulated.
    pub fn synthesize_dropped(&self, dropped: u64) -> Option<Record> {
        let inner = self.inner.as_ref()?;
        if dropped == 0 {
            return None;
        }
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        Some(Self::dropped_record(seq, dropped))
    }

    /// Aggregate the buffered metric samples into a registry.
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::from_records(&self.snapshot())
    }
}

/// Builder for a span; inert when the recorder is disabled.
#[must_use = "call .emit() to record the span"]
pub struct SpanBuilder<'r> {
    recorder: &'r Recorder,
    pending: Option<PendingSpan>,
}

impl SpanBuilder<'_> {
    /// Simulated-time interval.
    pub fn at(self, start: SimTime, end: SimTime) -> Self {
        self.between_secs(start.as_secs(), end.as_secs())
    }

    /// Raw-seconds interval (for wall-time callers).
    pub fn between_secs(mut self, start: f64, end: f64) -> Self {
        if let Some(p) = &mut self.pending {
            p.start_secs = start;
            p.end_secs = end;
        }
        self
    }

    pub fn track(mut self, track: u64) -> Self {
        if let Some(p) = &mut self.pending {
            p.track = track;
        }
        self
    }

    pub fn task(mut self, task: u64) -> Self {
        if let Some(p) = &mut self.pending {
            p.task = Some(task);
        }
        self
    }

    pub fn attempt(mut self, attempt: u32) -> Self {
        if let Some(p) = &mut self.pending {
            p.attempt = Some(attempt);
        }
        self
    }

    pub fn attr(mut self, key: &str, value: impl Into<AttrVal>) -> Self {
        if let Some(p) = &mut self.pending {
            p.attrs.push(Name::intern(key), value.into().0);
        }
        self
    }

    /// [`SpanBuilder::attr`] with a pre-interned key.
    pub fn attr_key(mut self, key: Name, value: impl Into<AttrVal>) -> Self {
        if let Some(p) = &mut self.pending {
            p.attrs.push(key, value.into().0);
        }
        self
    }

    pub fn emit(self) {
        if let Some(p) = self.pending {
            debug_assert!(
                p.end_secs >= p.start_secs,
                "span '{}' ends before it starts",
                p.name.as_str()
            );
            self.recorder
                .emit(|seq, buf, st| wire::encode_span(buf, st, seq, &p));
        }
    }
}

/// Builder for an instant event; inert when the recorder is disabled.
#[must_use = "call .emit() to record the event"]
pub struct InstantBuilder<'r> {
    recorder: &'r Recorder,
    pending: Option<PendingInstant>,
}

impl InstantBuilder<'_> {
    pub fn at(mut self, at: SimTime) -> Self {
        if let Some(p) = &mut self.pending {
            p.at_secs = at.as_secs();
        }
        self
    }

    pub fn track(mut self, track: u64) -> Self {
        if let Some(p) = &mut self.pending {
            p.track = track;
        }
        self
    }

    pub fn task(mut self, task: u64) -> Self {
        if let Some(p) = &mut self.pending {
            p.task = Some(task);
        }
        self
    }

    pub fn attempt(mut self, attempt: u32) -> Self {
        if let Some(p) = &mut self.pending {
            p.attempt = Some(attempt);
        }
        self
    }

    pub fn attr(mut self, key: &str, value: impl Into<AttrVal>) -> Self {
        if let Some(p) = &mut self.pending {
            p.attrs.push(Name::intern(key), value.into().0);
        }
        self
    }

    /// [`InstantBuilder::attr`] with a pre-interned key.
    pub fn attr_key(mut self, key: Name, value: impl Into<AttrVal>) -> Self {
        if let Some(p) = &mut self.pending {
            p.attrs.push(key, value.into().0);
        }
        self
    }

    pub fn emit(self) {
        if let Some(p) = self.pending {
            self.recorder
                .emit(|seq, buf, st| wire::encode_instant(buf, st, seq, &p));
        }
    }
}

struct WallSpanState {
    recorder: Recorder,
    name: Name,
    cat: Name,
    start_secs: f64,
    depth: u32,
    attrs: wire::AttrList,
}

/// RAII wall-clock span; records on drop. Inert when disabled.
pub struct WallSpan {
    state: Option<WallSpanState>,
}

impl WallSpan {
    /// Attach an attribute (no-op when disabled).
    pub fn attr(&mut self, key: &str, value: impl Into<AttrVal>) {
        if let Some(s) = &mut self.state {
            s.attrs.push(Name::intern(key), value.into().0);
        }
    }

    /// [`WallSpan::attr`] with a pre-interned key.
    pub fn attr_key(&mut self, key: Name, value: impl Into<AttrVal>) {
        if let Some(s) = &mut self.state {
            s.attrs.push(key, value.into().0);
        }
    }

    /// Nesting depth this span was opened at (tests; disabled spans report
    /// 0).
    pub fn depth(&self) -> u32 {
        self.state.as_ref().map(|s| s.depth).unwrap_or(0)
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        WALL_DEPTH.with(|d| d.set(state.depth));
        let WallSpanState {
            recorder,
            name,
            cat,
            start_secs,
            depth,
            attrs,
        } = state;
        let Some(inner) = &recorder.inner else { return };
        let pending = PendingSpan {
            name,
            cat,
            start_secs,
            end_secs: inner.origin.elapsed().as_secs_f64(),
            track: thread_shard() as u64,
            depth,
            task: None,
            attempt: None,
            attrs,
        };
        recorder.emit(|seq, buf, st| wire::encode_span(buf, st, seq, &pending));
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Install (idempotently) and return the process-wide recorder. The first
/// caller enables it; later callers get the same session. Used by runner
/// binaries behind `--trace`.
pub fn install_global() -> Recorder {
    GLOBAL.get_or_init(Recorder::enabled).clone()
}

/// The process-wide recorder: the installed session, or the no-op recorder
/// when nothing was installed. Layers without an explicit handle (caches,
/// the parallel engine) emit through this.
pub fn global() -> Recorder {
    GLOBAL.get().cloned().unwrap_or_else(Recorder::disabled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        r.counter("c", 1);
        r.observe("h", 2.0);
        r.gauge("g", 3.0, SimTime::from_secs(1.0));
        r.span("s", "t")
            .at(SimTime::ZERO, SimTime::from_secs(1.0))
            .emit();
        r.instant("i", "t").at(SimTime::ZERO).emit();
        drop(r.wall_span("w", "t"));
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert!(r.take().is_empty());
    }

    #[test]
    fn records_merge_in_seq_order() {
        let r = Recorder::enabled();
        r.counter("a", 1);
        r.span("s", "t")
            .at(SimTime::from_secs(1.0), SimTime::from_secs(2.0))
            .emit();
        r.counter("b", 2);
        let records = r.take();
        let seqs: Vec<u64> = records.iter().map(Record::seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(r.is_empty(), "take drains");
    }

    #[test]
    fn snapshot_does_not_drain() {
        let r = Recorder::enabled();
        r.counter("a", 1);
        assert_eq!(r.snapshot().len(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn span_builder_carries_ids_and_attrs() {
        let r = Recorder::enabled();
        r.span("exec", "lfm")
            .at(SimTime::from_secs(3.0), SimTime::from_secs(5.5))
            .track(7)
            .task(42)
            .attempt(1)
            .attr("polls", 12u64)
            .attr("peak_mb", 110.5)
            .attr("outcome", "completed")
            .emit();
        let records = r.take();
        let Record::Span(s) = &records[0] else {
            panic!("expected span")
        };
        assert_eq!(s.name, "exec");
        assert_eq!(s.cat, "lfm");
        assert_eq!((s.start_secs, s.end_secs), (3.0, 5.5));
        assert_eq!(s.track, 7);
        assert_eq!(s.task, Some(42));
        assert_eq!(s.attempt, Some(1));
        assert_eq!(s.attrs.len(), 3);
    }

    #[test]
    fn keyed_emission_matches_string_emission() {
        let by_str = Recorder::enabled();
        by_str.counter("k.counter", 2);
        by_str
            .span("k.span", "k.cat")
            .at(SimTime::from_secs(1.0), SimTime::from_secs(2.0))
            .attr("w", 9u64)
            .emit();
        let by_key = Recorder::enabled();
        let (name, cat, key) = (
            Name::intern("k.span"),
            Name::intern("k.cat"),
            Name::intern("w"),
        );
        by_key.counter_key(Name::intern("k.counter"), 2);
        by_key
            .span_key(name, cat)
            .at(SimTime::from_secs(1.0), SimTime::from_secs(2.0))
            .attr_key(key, 9u64)
            .emit();
        assert_eq!(by_str.take(), by_key.take());
    }

    #[test]
    fn wall_spans_nest_and_contain() {
        let r = Recorder::enabled();
        {
            let outer = r.wall_span("outer", "host");
            assert_eq!(outer.depth(), 0);
            {
                let mut inner = r.wall_span("inner", "host");
                inner.attr("i", 1u64);
                assert_eq!(inner.depth(), 1);
            }
            {
                let inner2 = r.wall_span("inner2", "host");
                assert_eq!(inner2.depth(), 1, "depth restored after sibling drop");
            }
        }
        let records = r.take();
        let spans: Vec<&SpanRecord> = records
            .iter()
            .filter_map(|rec| match rec {
                Record::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 3);
        // Drop order: inner, inner2, outer.
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        for name in ["inner", "inner2"] {
            let inner = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(inner.depth, outer.depth + 1);
            assert!(outer.contains(inner), "{name} not contained in outer");
        }
    }

    #[test]
    fn sharded_recording_from_many_threads_merges_totally_ordered() {
        let r = Recorder::enabled();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        r.counter("thread_counter", t * 1000 + i);
                    }
                });
            }
        });
        let records = r.take();
        assert_eq!(records.len(), 800);
        let seqs: Vec<u64> = records.iter().map(Record::seq).collect();
        for w in seqs.windows(2) {
            assert!(w[0] < w[1], "merge must be strictly seq-ordered");
        }
        assert_eq!(*seqs.last().unwrap(), 799, "seq is dense across shards");
    }

    #[test]
    fn full_shard_drops_and_counts() {
        let r = Recorder::enabled_with_capacity(2);
        // One thread lands every record on one shard: 2 fit, 3 drop.
        for i in 0..5u64 {
            r.counter("c", i);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);

        // snapshot surfaces the count without resetting it.
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        let Record::Metric(m) = snap.last().unwrap() else {
            panic!("expected metric")
        };
        assert_eq!(m.name, "telemetry.dropped_events");
        assert_eq!(m.value, 3.0);
        assert_eq!(m.at_secs, None, "must be untimed → otherData");
        assert_eq!(r.dropped(), 3);

        // take drains, appends the synthetic counter, and resets.
        let records = r.take();
        assert_eq!(records.len(), 3);
        let Record::Metric(m) = records.last().unwrap() else {
            panic!("expected metric")
        };
        assert_eq!(m.name, "telemetry.dropped_events");
        assert_eq!(m.value, 3.0);
        assert_eq!(r.dropped(), 0);
        assert!(r.take().is_empty(), "no stale synthetic record");
        let seqs: Vec<u64> = records.iter().map(Record::seq).collect();
        for w in seqs.windows(2) {
            assert!(w[0] < w[1], "survivors + synthetic stay seq-ordered");
        }
    }

    #[test]
    fn dropped_overflow_reaches_other_data() {
        let r = Recorder::enabled_with_capacity(1);
        r.counter("c", 1);
        r.counter("c", 2);
        let trace = crate::export::chrome_trace(&r.take());
        assert!(trace.contains("\"telemetry.dropped_events\":1"), "{trace}");
    }

    #[test]
    fn global_defaults_to_disabled() {
        // Note: install_global() is tested implicitly by the runner
        // binaries; calling it here would leak an enabled recorder into
        // every other test in this process.
        assert!(!global().is_enabled() || GLOBAL.get().is_some());
    }
}
