//! Live tailing: incremental consumption of the shard ring buffers while
//! the run is still producing.
//!
//! [`crate::Recorder::take`] / [`crate::Recorder::snapshot`] are
//! post-mortem drains: they decode the whole buffered stream at once. The
//! tailer turns the same binary wire streams into an *online* source — a
//! consumer polls [`crate::Recorder::drain_since`] with a [`TailCursor`]
//! and receives, each poll, exactly the records that became visible since
//! the previous poll, already k-way merged into global `seq` order.
//!
//! Three invariants make the cursor correct:
//!
//! 1. **Codec continuity.** A tail drain takes a shard's bytes *without*
//!    resetting its encoder state, so the chunks a cursor receives over
//!    time concatenate into the exact byte stream an undrained buffer
//!    would have held. Each [`ShardTail`] resumes its decoder from the
//!    state saved after the previous chunk
//!    ([`crate::wire::ShardDecoder`]'s resumable form) — the prefix is
//!    never re-decoded.
//! 2. **Sequence density.** Overflowing records are dropped *before* a
//!    sequence number is assigned, so the surviving global stream is
//!    dense. [`TailMerger`] exploits that: it emits records only while
//!    the head of its reorder buffer is contiguous with the last emitted
//!    `seq`, holding cross-shard stragglers (a record written to another
//!    shard after this poll already passed it) until the gap closes. The
//!    reorder buffer is therefore bounded by what the shards themselves
//!    can hold — memory stays constant no matter how long the run is.
//! 3. **Drop accounting.** Overflow between polls surfaces as
//!    [`TailBatch::dropped_delta`] (computed from a monotonic lifetime
//!    counter, so it survives `take`'s reset of the per-epoch counter) —
//!    never as a decode error and never as a permanently-stalled gap.
//!
//! Truncated input — a consumer tailing *shipped* bytes that end
//! mid-record — yields [`TailPoll::NeedMoreData`] and resumes cleanly
//! when the rest arrives; only genuinely corrupt bytes produce a
//! [`DecodeError`]. In-process drains always hand out whole records (the
//! encoder appends atomically under the shard lock), so `NeedMoreData`
//! there only means "buffer exhausted".

use crate::codec;
use crate::record::Record;
use crate::wire::{CodecState, DecodeError, ShardDecoder};
use std::collections::VecDeque;

/// Result of one [`ShardTail::poll`].
#[derive(Debug, PartialEq)]
pub enum TailPoll {
    /// The next record in this shard's stream.
    Record(Record),
    /// The buffered bytes end cleanly or mid-record; feed more and poll
    /// again. Never an error: a chunk boundary is not corruption.
    NeedMoreData,
}

/// Incremental decoder over one shard's wire stream, fed chunk by chunk.
///
/// Bytes that arrive truncated mid-record stay buffered until the rest is
/// fed; the decoder state only advances past *complete* records, so a
/// failed attempt is invisible (no partial state, no re-decode of the
/// prefix once the record completes).
#[derive(Debug, Default)]
pub struct ShardTail {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted away periodically).
    pos: usize,
    /// Decoder state after the last complete record.
    st: CodecState,
    /// Decoded records not yet handed out. Sequence numbers are claimed
    /// under the shard lock, so within one shard they are strictly
    /// increasing — this queue is always sorted, which is what lets
    /// [`TailMerger`] merge without a per-record reorder structure.
    ready: VecDeque<Record>,
    /// First real corruption error, if any; the tail fuses on it.
    failed: Option<DecodeError>,
}

impl ShardTail {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a chunk of the shard's wire stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing: keeps the buffer
        // bounded by (undecoded tail + chunk), not by stream length.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode every complete record currently buffered into the ready
    /// queue with a single decoder pass, committing position and codec
    /// state after each success — a trailing truncated record is simply
    /// never committed, so it retries when more bytes arrive. One decoder
    /// per fill (not per record) is what keeps the live path within the
    /// post-hoc decoder's throughput.
    fn fill(&mut self) {
        if self.failed.is_some() || self.pos >= self.buf.len() {
            return;
        }
        let mut dec = ShardDecoder::with_state(&self.buf[self.pos..], self.st);
        let mut committed = (0usize, self.st);
        loop {
            match dec.next() {
                Some(Ok(record)) => {
                    committed = (dec.position(), dec.state());
                    self.ready.push_back(record);
                }
                Some(Err(DecodeError::Codec(codec::Error::Truncated { .. }))) | None => break,
                Some(Err(e)) => {
                    self.failed = Some(e);
                    break;
                }
            }
        }
        self.pos += committed.0;
        self.st = committed.1;
    }

    /// Decode the next record, if a complete one is buffered.
    ///
    /// `Err` only on real corruption (bad tag / unknown name / impossible
    /// field); the tail then fuses — corrupt streams cannot resync.
    /// Records decoded before the corruption point are still handed out
    /// first.
    pub fn poll(&mut self) -> Result<TailPoll, DecodeError> {
        if self.ready.is_empty() {
            self.fill();
        }
        if let Some(record) = self.ready.pop_front() {
            return Ok(TailPoll::Record(record));
        }
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        Ok(TailPoll::NeedMoreData)
    }

    /// Sequence number of the next ready record, if any is decoded.
    fn head_seq(&self) -> Option<u64> {
        self.ready.front().map(Record::seq)
    }

    fn pop_ready(&mut self) -> Record {
        self.ready.pop_front().expect("pop_ready on empty queue")
    }

    fn error(&self) -> Option<&DecodeError> {
        self.failed.as_ref()
    }

    /// Bytes buffered but not yet decoded (diagnostics / memory bound).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Incremental k-way merge of the per-shard tail streams on `seq`.
///
/// The post-hoc [`crate::MergeDecoder`] sees every shard's full stream up
/// front; this merger accepts mid-stream appends. Because the live global
/// stream is sequence-dense, emission is gated on contiguity: records are
/// released only while `seq` matches the next expected value, and
/// stragglers wait in their shard's (already sorted) ready queue — the
/// reorder buffer *is* the set of ready queues, so merging costs one
/// shard-head scan per record and no per-record allocation.
#[derive(Debug)]
pub struct TailMerger {
    tails: Vec<ShardTail>,
    /// Next seq to emit; `None` right after a resync, when the merger
    /// re-bases on the minimum ready seq (the records below it were
    /// consumed elsewhere and will never arrive).
    next_seq: Option<u64>,
    errors: Vec<DecodeError>,
}

impl TailMerger {
    pub fn new(shards: usize) -> Self {
        TailMerger {
            tails: (0..shards).map(|_| ShardTail::new()).collect(),
            next_seq: Some(0),
            errors: Vec::new(),
        }
    }

    /// Append a chunk of shard `shard`'s wire stream.
    pub fn feed(&mut self, shard: usize, bytes: &[u8]) {
        self.tails[shard].feed(bytes);
    }

    /// Decode everything decodable and emit the contiguous run of records
    /// starting at the next expected `seq`, in global order.
    pub fn poll(&mut self) -> Vec<Record> {
        for tail in &mut self.tails {
            tail.fill();
            if let Some(e) = tail.error() {
                // A corrupt shard stops contributing (mirroring
                // MergeDecoder); the healthy shards keep merging.
                if !self.errors.contains(e) {
                    self.errors.push(e.clone());
                }
            }
        }
        // Size for the common case (everything decoded gets emitted):
        // growing from empty every poll would memcpy the batch log(n)
        // times, which the post-hoc decoder never pays.
        let mut out = Vec::with_capacity(self.pending_len());
        if self.next_seq.is_none() {
            // Post-resync: adopt the smallest surviving seq as the new
            // base. (Everything below it was drained by `take`.)
            self.next_seq = self.tails.iter().filter_map(ShardTail::head_seq).min();
        }
        let Some(mut next) = self.next_seq else {
            return out;
        };
        // The stream is dense, so at most one shard head can carry `next`;
        // `hint` remembers which shard matched last, making the common
        // case (a run of records from one producer thread) a single probe.
        let n = self.tails.len();
        let mut hint = 0;
        'merge: loop {
            for off in 0..n {
                let i = (hint + off) % n;
                if self.tails[i].head_seq() == Some(next) {
                    out.push(self.tails[i].pop_ready());
                    next += 1;
                    hint = i;
                    continue 'merge;
                }
            }
            break;
        }
        self.next_seq = Some(next);
        out
    }

    /// Emit everything still pending, gaps and all (end of run: the
    /// producer is done, so no straggler can fill them anymore).
    pub fn flush(&mut self) -> Vec<Record> {
        let mut out: Vec<Record> = Vec::new();
        for tail in &mut self.tails {
            out.extend(tail.ready.drain(..));
        }
        out.sort_by_key(Record::seq);
        if let (Some(last), Some(next)) = (out.last(), &mut self.next_seq) {
            *next = (*next).max(last.seq() + 1);
        }
        out
    }

    /// Forget per-shard decode state and re-base the contiguity gate: a
    /// `take` drained (and reset) the shards behind the merger's back, so
    /// buffered decoder state no longer matches the byte streams and gaps
    /// below the surviving records will never fill.
    pub fn resync(&mut self) -> Vec<Record> {
        let flushed = self.flush();
        for tail in &mut self.tails {
            *tail = ShardTail::new();
        }
        self.next_seq = None;
        flushed
    }

    /// Records decoded but still held back (gated on a sequence gap or
    /// simply not yet polled); bounded by shard capacity.
    pub fn pending_len(&self) -> usize {
        self.tails.iter().map(|t| t.ready.len()).sum()
    }

    /// Undecoded bytes buffered across all shard tails.
    pub fn buffered_bytes(&self) -> usize {
        self.tails.iter().map(ShardTail::buffered_bytes).sum()
    }

    /// Corruption errors hit so far (never includes truncation).
    pub fn errors(&self) -> &[DecodeError] {
        &self.errors
    }
}

/// Position of one tail consumer in a recorder's live stream. Create with
/// [`crate::Recorder::cursor`], advance with
/// [`crate::Recorder::drain_since`].
#[derive(Debug)]
pub struct TailCursor {
    merger: TailMerger,
    epoch: u64,
    dropped_seen: u64,
    /// Records flushed by an epoch resync, delivered with the next poll.
    carry: Vec<Record>,
}

/// One poll's worth of the live stream.
#[derive(Debug, Default, PartialEq)]
pub struct TailBatch {
    /// Records that became visible since the last poll, in `seq` order.
    pub records: Vec<Record>,
    /// Records dropped at full shards since the last poll — the live
    /// counterpart of the synthetic `telemetry.dropped_events` counter.
    pub dropped_delta: u64,
}

impl TailCursor {
    pub(crate) fn new(shards: usize, epoch: u64) -> Self {
        TailCursor {
            merger: TailMerger::new(shards),
            epoch,
            dropped_seen: 0,
            carry: Vec::new(),
        }
    }

    pub(crate) fn observe_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.epoch = epoch;
            let flushed = self.merger.resync();
            self.carry.extend(flushed);
        }
    }

    pub(crate) fn feed(&mut self, shard: usize, bytes: &[u8]) {
        self.merger.feed(shard, bytes);
    }

    pub(crate) fn poll(&mut self) -> Vec<Record> {
        let mut out = std::mem::take(&mut self.carry);
        out.extend(self.merger.poll());
        out
    }

    pub(crate) fn flush(&mut self) -> Vec<Record> {
        let mut out = std::mem::take(&mut self.carry);
        out.extend(self.merger.flush());
        out
    }

    pub(crate) fn observe_dropped(&mut self, total: u64) -> u64 {
        let delta = total.saturating_sub(self.dropped_seen);
        self.dropped_seen = total;
        delta
    }

    /// Records held for contiguity (bounded by the shard capacities).
    pub fn pending_len(&self) -> usize {
        self.merger.pending_len() + self.carry.len()
    }

    /// Undecoded bytes buffered in the cursor.
    pub fn buffered_bytes(&self) -> usize {
        self.merger.buffered_bytes()
    }

    /// Corruption errors hit so far (truncation is never an error).
    pub fn errors(&self) -> &[DecodeError] {
        self.merger.errors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Name;
    use crate::record::MetricKind;
    use crate::wire::encode_metric;
    use crate::Recorder;

    fn counter_stream(seqs: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut st = CodecState::default();
        let name = Name::intern("tail.test.counter");
        for &seq in seqs {
            encode_metric(&mut buf, &mut st, seq, name, MetricKind::Counter, 1.0, None);
        }
        buf
    }

    #[test]
    fn shard_tail_resumes_across_arbitrary_chunk_boundaries() {
        let buf = counter_stream(&[0, 1, 2, 3, 4]);
        // Feed one byte at a time: every record must eventually decode,
        // with NeedMoreData (never an error) in between.
        let mut tail = ShardTail::new();
        let mut got = Vec::new();
        for &b in &buf {
            tail.feed(&[b]);
            while let TailPoll::Record(r) = tail.poll().expect("truncation must not error") {
                got.push(r.seq());
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(tail.buffered_bytes(), 0);
    }

    #[test]
    fn shard_tail_fuses_on_corruption() {
        let mut tail = ShardTail::new();
        tail.feed(&[0x07, 0x00]); // undefined record kind 7
        assert!(tail.poll().is_err());
        assert!(tail.poll().is_err(), "fused after corruption");
    }

    #[test]
    fn merger_reorders_cross_shard_stragglers() {
        // Shard 0 carries even seqs, shard 1 odd; deliver shard 0 first.
        let even = counter_stream(&[0, 2, 4]);
        let odd = counter_stream(&[1, 3, 5]);
        let mut m = TailMerger::new(2);
        m.feed(0, &even);
        let first = m.poll();
        assert_eq!(
            first.iter().map(Record::seq).collect::<Vec<_>>(),
            vec![0],
            "seqs 2 and 4 must wait for the gap at 1"
        );
        assert_eq!(m.pending_len(), 2);
        m.feed(1, &odd);
        let rest = m.poll();
        assert_eq!(
            rest.iter().map(Record::seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn merger_flush_releases_gapped_records() {
        let mut m = TailMerger::new(1);
        m.feed(0, &counter_stream(&[2, 3]));
        assert!(m.poll().is_empty(), "gated on the gap at 0");
        let flushed = m.flush();
        assert_eq!(
            flushed.iter().map(Record::seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn drain_since_is_incremental_and_ordered() {
        let r = Recorder::enabled();
        let mut cursor = r.cursor();
        r.counter("tail.a", 1);
        r.counter("tail.b", 2);
        let batch = r.drain_since(&mut cursor);
        assert_eq!(batch.records.len(), 2);
        assert_eq!(batch.dropped_delta, 0);
        assert!(r.is_empty(), "drain consumes");
        r.counter("tail.c", 3);
        let batch = r.drain_since(&mut cursor);
        assert_eq!(batch.records.len(), 1);
        assert_eq!(batch.records[0].seq(), 2, "codec state carried across");
        assert!(r.drain_since(&mut cursor).records.is_empty());
    }

    #[test]
    fn drained_chunks_concatenate_into_the_posthoc_stream() {
        // The equivalence the proptest scales up: chunks taken by a tail
        // consumer concatenate into one decodable wire stream identical
        // to what a single post-hoc decode would have seen.
        let r = Recorder::enabled();
        let mut cursor = r.cursor();
        let mut live = Vec::new();
        let mut chunks: Vec<u8> = Vec::new();
        for round in 0..5u64 {
            for i in 0..10u64 {
                r.counter("tail.concat", round * 10 + i);
            }
            chunks.extend(r.raw_shards().concat());
            live.extend(r.drain_since(&mut cursor).records);
        }
        live.extend(r.finish_tail(&mut cursor).records);
        let posthoc: Vec<Record> = ShardDecoder::new(&chunks)
            .collect::<Result<_, _>>()
            .expect("concatenated chunks decode");
        assert_eq!(live, posthoc);
    }

    #[test]
    fn overflow_between_polls_reports_dropped_delta() {
        let r = Recorder::enabled_with_capacity(2);
        let mut cursor = r.cursor();
        for i in 0..5u64 {
            r.counter("tail.drop", i);
        }
        let b1 = r.drain_since(&mut cursor);
        assert_eq!(b1.records.len(), 2);
        assert_eq!(b1.dropped_delta, 3);
        // Capacity freed by the drain: the next burst fits again.
        for i in 0..3u64 {
            r.counter("tail.drop", i);
        }
        let b2 = r.drain_since(&mut cursor);
        assert_eq!(b2.records.len(), 2);
        assert_eq!(b2.dropped_delta, 1);
        // Seqs stay dense across the drops.
        let seqs: Vec<u64> = b1
            .records
            .iter()
            .chain(&b2.records)
            .map(Record::seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cursor_resyncs_after_take() {
        let r = Recorder::enabled();
        let mut cursor = r.cursor();
        r.counter("tail.epoch", 1);
        assert_eq!(r.drain_since(&mut cursor).records.len(), 1);
        r.counter("tail.epoch", 2);
        let taken = r.take(); // consumes seq 1 behind the cursor's back
        assert_eq!(taken.len(), 1);
        r.counter("tail.epoch", 3);
        let batch = r.drain_since(&mut cursor);
        assert_eq!(batch.records.len(), 1, "post-take records still arrive");
        assert_eq!(batch.records[0].seq(), 2);
    }

    #[test]
    fn snapshot_then_drain_does_not_double_count() {
        let r = Recorder::enabled();
        let mut cursor = r.cursor();
        r.counter("tail.snap", 1);
        r.counter("tail.snap", 2);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2, "snapshot is non-destructive");
        let batch = r.drain_since(&mut cursor);
        assert_eq!(batch.records.len(), 2, "drain sees each record once");
        assert_eq!(
            snap, batch.records,
            "snapshot and drain agree on the stream"
        );
        assert!(r.snapshot().is_empty(), "drain consumed the buffers");
        assert!(r.take().is_empty());
    }

    #[test]
    fn snapshot_decodes_correctly_after_tail_drains() {
        let r = Recorder::enabled();
        let mut cursor = r.cursor();
        r.gauge(
            "tail.base_st",
            1.0,
            lfm_simcluster::time::SimTime::from_secs(5.0),
        );
        r.drain_since(&mut cursor);
        // The next record is delta-coded against the drained prefix; both
        // snapshot and take must resume from the saved base state.
        r.gauge(
            "tail.base_st",
            2.0,
            lfm_simcluster::time::SimTime::from_secs(6.0),
        );
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        let Record::Metric(m) = &snap[0] else {
            panic!("expected metric")
        };
        assert_eq!(m.at_secs, Some(6.0));
        assert_eq!(m.seq, 1);
        assert_eq!(r.take(), snap);
    }

    #[test]
    fn synthesize_dropped_consumes_a_fresh_seq() {
        let r = Recorder::enabled();
        r.counter("tail.synth", 1);
        let rec = r.synthesize_dropped(7).expect("nonzero count");
        let Record::Metric(m) = &rec else {
            panic!("expected metric")
        };
        assert_eq!(m.name, "telemetry.dropped_events");
        assert_eq!(m.value, 7.0);
        assert_eq!(m.seq, 1);
        assert_eq!(r.synthesize_dropped(0), None);
    }
}
