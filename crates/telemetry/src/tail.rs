//! The recorder's reader: incremental decoding and merging of the shard
//! streams, for live tails and post-hoc reads alike.
//!
//! Every [`crate::Recorder`] owns exactly one [`TailMerger`]. Every read
//! moves the shards' buffered bytes into it and hands a visitor the
//! records it releases, already k-way merged into global `seq` order, as
//! [`WireRecord`]s: at the id level, nothing resolved and nothing
//! collected. The live door, [`crate::Recorder::drain_with`], stops there;
//! [`crate::Recorder::take`], [`crate::Recorder::snapshot`] (on a clone of
//! the reader) and [`crate::Recorder::drain_since`] /
//! [`crate::Recorder::finish_tail`] are the same read with each record
//! resolved into an owned [`Record`]. A read drains; what one reader hands
//! out, no other read sees again.
//!
//! Three invariants make that correct:
//!
//! 1. **Codec continuity.** Nothing ever resets a shard's encoder state,
//!    and the reader's [`ShardTail`] for that shard continues its decoder
//!    state, so the chunks a shard hands over across reads concatenate
//!    into one wire stream and no prefix is ever re-decoded.
//! 2. **Sequence density.** Overflowing records are dropped *before* a
//!    sequence number is assigned, and the synthetic
//!    `telemetry.dropped_events` records take the next `seq` without
//!    claiming it, so the shards carry every `seq` the counter handed out.
//!    [`TailMerger`] exploits that: it releases records only while the
//!    smallest shard head is contiguous with the last one released,
//!    holding cross-shard stragglers (a record written to another shard
//!    after this read already passed it) until the gap closes. Its gate is
//!    never reset, so a consumer that opens a cursor on a recorder someone
//!    already read picks up where that read stopped.
//! 3. **Drop accounting.** Overflow between polls surfaces as
//!    [`TailBatch::dropped_delta`] (from a monotonic lifetime counter,
//!    which `take`'s reset of the per-take counter does not touch) —
//!    never as a decode error and never as a gap.
//!
//! Records behind a gap wait as undecoded bytes, not as records: a tail
//! decodes a record only when the merge asks for its shard's next `seq`,
//! into the one [`WireRecord`] it keeps, so the reader holds at most one
//! decoded record per shard and a read allocates nothing per record.
//! Truncated input — a consumer tailing
//! *shipped* bytes that end mid-record — yields [`TailPoll::NeedMoreData`]
//! and resumes cleanly when the rest arrives; only genuinely corrupt bytes,
//! or a record still cut short at [`TailMerger::flush`], produce a
//! [`DecodeError`]. In-process reads always hand over whole records (the
//! encoder appends atomically under the shard lock).

use crate::codec;
use crate::record::Record;
use crate::wire::{CodecState, DecodeError, ShardDecoder, WireRecord};

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
#[derive(Debug, Default, Clone)]
pub struct ShardTail {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// Stream offset of `buf[0]`: bytes consumed and dropped before it.
    /// Errors report offsets from the stream's start.
    base: usize,
    /// Decoder state after the last complete record.
    st: CodecState,
    /// The next record, decoded but not handed out, when `held`. Sequence
    /// numbers are claimed under the shard lock, so within one shard they
    /// strictly increase: this head is the shard's smallest pending `seq`.
    /// Decoded in place, so a tail reuses one record's storage throughout.
    head: WireRecord,
    held: bool,
    /// First real corruption error, if any; the tail fuses on it.
    failed: Option<DecodeError>,
}

impl ShardTail {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the consumed prefix of `buf`.
    fn compact(&mut self) {
        self.base += self.pos;
        self.buf.drain(..self.pos);
        self.pos = 0;
    }

    /// Append a chunk of the shard's wire stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing: keeps the buffer
        // bounded by (undecoded tail + chunk), not by stream length.
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// [`ShardTail::feed`] that empties `bytes`. With nothing pending the
    /// two buffers swap: no byte is copied, and the producer gets this
    /// tail's spent allocation to refill.
    fn feed_from(&mut self, bytes: &mut Vec<u8>) {
        if self.pos == self.buf.len() {
            self.compact();
            std::mem::swap(&mut self.buf, bytes);
        } else {
            self.feed(bytes);
            bytes.clear();
        }
    }

    /// Decode the next complete record into `head`, if none is held, and
    /// say whether one is. A trailing truncated record is never committed,
    /// so it retries when more bytes arrive.
    fn fill(&mut self) -> bool {
        if self.held || self.failed.is_some() || self.pos == self.buf.len() {
            return self.held;
        }
        let mut dec = ShardDecoder::with_state(&self.buf[self.pos..], self.st);
        match dec.decode_into(&mut self.head) {
            Ok(()) => {
                self.pos += dec.position();
                self.st = dec.state();
                self.held = true;
                if self.pos == self.buf.len() {
                    self.compact();
                }
            }
            Err(DecodeError::Codec(codec::Error::Truncated { .. })) => {}
            Err(e) => self.failed = Some(e.shifted(self.base + self.pos)),
        }
        self.held
    }

    /// Hand the held record to `f`.
    fn release(&mut self, f: &mut dyn FnMut(&WireRecord)) {
        f(&self.head);
        self.held = false;
    }

    /// Decode the next record, if a complete one is buffered.
    ///
    /// `Err` only on real corruption (bad tag / unknown name / impossible
    /// field); the tail then fuses — corrupt streams cannot resync.
    /// Records decoded before the corruption point are still handed out
    /// first.
    pub fn poll(&mut self) -> Result<TailPoll, DecodeError> {
        if self.fill() {
            self.held = false;
            return Ok(TailPoll::Record(self.head.to_record()));
        }
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(TailPoll::NeedMoreData),
        }
    }

    /// Sequence number of the next record, decoding it if need be.
    fn head_seq(&mut self) -> Option<u64> {
        self.fill().then_some(self.head.seq())
    }

    /// End of stream: bytes left undecoded are a record cut short. A tail
    /// left empty releases its buffer, so a reader does not keep the peak
    /// of a large read for the recorder's lifetime.
    fn close(&mut self) {
        if self.pos == self.buf.len() {
            self.compact();
            self.buf = Vec::new();
        } else if self.failed.is_none() {
            let mut dec = ShardDecoder::with_state(&self.buf[self.pos..], self.st);
            let at = self.base + self.pos;
            self.failed = dec.next().and_then(Result::err).map(|e| e.shifted(at));
        }
    }

    /// Bytes buffered but not yet decoded (diagnostics / memory bound).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Incremental k-way merge of per-shard wire streams on `seq`: the one
/// reader a [`crate::Recorder`] owns.
///
/// Because the recorder's global stream is sequence-dense, release is
/// gated on contiguity: records come out only while some shard's head
/// carries the next expected `seq`, and stragglers wait in their shard's
/// (already sorted) stream. A hint remembers which shard matched last, so
/// a run of records from one producer thread costs one probe per record.
/// Records are released to a visitor, at the id level: nothing is
/// collected and nothing resolved unless the visitor does it.
#[derive(Debug, Default, Clone)]
pub struct TailMerger {
    /// A tail per shard ever fed, in first-feed order: a recorder nobody
    /// reads allocates nothing here, and one fed from a single thread
    /// holds one tail whichever shard that thread hashes to.
    tails: Vec<(usize, ShardTail)>,
    /// Next `seq` to release. Only ever advances.
    next_seq: u64,
}

/// What a reader is holding between reads, from
/// [`crate::Recorder::reader_health`] or [`TailMerger::health`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReaderHealth {
    /// Bytes taken from the shards but not decoded yet: records waiting
    /// behind a sequence gap, or a truncated chunk waiting for its rest.
    pub undecoded_bytes: usize,
    /// Records decoded and held back (at most one per shard).
    pub held_records: usize,
    /// Corruption errors, one per fused shard (truncation mid-stream is
    /// never an error), at their offsets in the shard's stream.
    pub errors: Vec<DecodeError>,
}

impl TailMerger {
    /// Append a chunk of shard `shard`'s wire stream.
    pub fn feed(&mut self, shard: usize, bytes: &[u8]) {
        self.tail(shard).feed(bytes);
    }

    /// [`TailMerger::feed`] that empties `bytes`, moving rather than
    /// copying them when the shard's tail has nothing pending.
    pub(crate) fn feed_from(&mut self, shard: usize, bytes: &mut Vec<u8>) {
        self.tail(shard).feed_from(bytes);
    }

    fn tail(&mut self, shard: usize) -> &mut ShardTail {
        let i = match self.tails.iter().position(|(s, _)| *s == shard) {
            Some(i) => i,
            None => {
                self.tails.push((shard, ShardTail::default()));
                self.tails.len() - 1
            }
        };
        &mut self.tails[i].1
    }

    /// Hand `f` the contiguous run of records starting at the next
    /// expected `seq`, in global order. A head *below* that `seq` (a read
    /// raced an emitter and flushed past it) is released as soon as it is
    /// seen rather than blocking its shard.
    pub fn poll(&mut self, f: &mut dyn FnMut(&WireRecord)) {
        let n = self.tails.len();
        let mut hint = 0;
        'merge: loop {
            for off in 0..n {
                let i = (hint + off) % n;
                let tail = &mut self.tails[i].1;
                match tail.head_seq() {
                    Some(seq) if seq <= self.next_seq => {
                        tail.release(f);
                        self.next_seq = self.next_seq.max(seq + 1);
                        hint = i;
                        continue 'merge;
                    }
                    _ => {}
                }
            }
            return;
        }
    }

    /// Hand `f` everything pending, gaps and all, in `seq` order (end of
    /// run: the producer is done, so no straggler can fill them anymore).
    /// Bytes still undecoded afterwards are a record cut short and fuse
    /// their shard with a truncation error.
    pub fn flush(&mut self, f: &mut dyn FnMut(&WireRecord)) {
        self.poll(f);
        loop {
            let smallest = (self.tails.iter_mut().enumerate())
                .filter_map(|(i, (_, t))| t.head_seq().map(|seq| (seq, i)))
                .min();
            let Some((seq, i)) = smallest else { break };
            self.tails[i].1.release(f);
            self.next_seq = self.next_seq.max(seq + 1);
        }
        for (_, tail) in &mut self.tails {
            tail.close();
        }
    }

    /// Undecoded bytes, held records and errors, summed over the shards.
    pub fn health(&self) -> ReaderHealth {
        let tails = || self.tails.iter().map(|(_, t)| t);
        ReaderHealth {
            undecoded_bytes: tails().map(ShardTail::buffered_bytes).sum(),
            held_records: tails().filter(|t| t.held).count(),
            errors: tails().filter_map(|t| t.failed.clone()).collect(),
        }
    }
}

/// A tail consumer's position in its recorder's drop count. The records
/// themselves come from the recorder's one reader. Create with
/// [`crate::Recorder::cursor`], advance with
/// [`crate::Recorder::drain_since`].
#[derive(Debug)]
pub struct TailCursor {
    /// The recorder's lifetime drop total at the last poll.
    pub(crate) dropped_seen: u64,
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

    fn seqs(records: &[Record]) -> Vec<u64> {
        records.iter().map(Record::seq).collect()
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
        let mut m = TailMerger::default();
        m.feed(0, &even);
        let mut first = Vec::new();
        m.poll(&mut |r| first.push(r.to_record()));
        assert_eq!(
            seqs(&first),
            vec![0],
            "seqs 2 and 4 must wait for the gap at 1"
        );
        let held = m.health();
        assert_eq!(held.held_records, 1, "one record decoded ahead");
        assert!(held.undecoded_bytes > 0, "the rest waits as bytes");
        m.feed(1, &odd);
        let mut rest = Vec::new();
        m.poll(&mut |r| rest.push(r.to_record()));
        assert_eq!(seqs(&rest), vec![1, 2, 3, 4, 5]);
        assert_eq!(m.health(), ReaderHealth::default());
    }

    #[test]
    fn merger_flush_releases_gapped_records() {
        let mut m = TailMerger::default();
        m.feed(0, &counter_stream(&[2, 3]));
        let mut out = Vec::new();
        m.poll(&mut |r| out.push(r.to_record()));
        assert!(out.is_empty(), "gated on the gap at 0");
        m.flush(&mut |r| out.push(r.to_record()));
        assert_eq!(seqs(&out), vec![2, 3]);
    }

    #[test]
    fn merge_reconstructs_total_order() {
        // Interleave seqs 0..30 across 3 "shards".
        let mut bufs = vec![Vec::new(); 3];
        let mut states = [CodecState::default(); 3];
        let name = Name::intern("tail.test.merge");
        for seq in 0..30u64 {
            let shard = (seq % 3) as usize;
            encode_metric(
                &mut bufs[shard],
                &mut states[shard],
                seq,
                name,
                MetricKind::Counter,
                1.0,
                None,
            );
        }
        let mut m = TailMerger::default();
        for (i, buf) in bufs.iter().enumerate() {
            m.feed(i, buf);
        }
        let mut merged = Vec::new();
        m.flush(&mut |r| merged.push(r.to_record()));
        assert_eq!(seqs(&merged), (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn merge_survives_one_truncated_shard() {
        let good = counter_stream(&[0, 2, 4]);
        let mut bad = counter_stream(&[1, 3]);
        bad.truncate(bad.len() - 1); // chop the final record mid-field
        let mut m = TailMerger::default();
        m.feed(0, &good);
        m.feed(1, &bad);
        let mut merged = Vec::new();
        m.flush(&mut |r| merged.push(r.to_record()));
        assert_eq!(
            seqs(&merged),
            vec![0, 1, 2, 4],
            "healthy records all survive"
        );
        assert_eq!(m.health().errors.len(), 1);
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
    fn cursor_opened_after_take_reads_live() {
        let r = Recorder::enabled();
        r.counter("tail.reuse", 1);
        assert_eq!(r.take().len(), 1);
        let mut cursor = r.cursor();
        r.counter("tail.reuse", 2);
        let batch = r.drain_since(&mut cursor);
        assert_eq!(seqs(&batch.records), vec![1], "the next record, live");
        assert!(r.finish_tail(&mut cursor).records.is_empty());
    }

    #[test]
    fn second_cursor_after_finish_tail_reads_live() {
        let r = Recorder::enabled();
        let mut first = r.cursor();
        r.counter("tail.reuse", 1);
        assert_eq!(r.finish_tail(&mut first).records.len(), 1);
        let mut second = r.cursor();
        r.counter("tail.reuse", 2);
        let batch = r.drain_since(&mut second);
        assert_eq!(seqs(&batch.records), vec![1], "the next record, live");
        assert!(r.finish_tail(&mut second).records.is_empty());
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
            "tail.resumed_gauge",
            1.0,
            lfm_simcluster::time::SimTime::from_secs(5.0),
        );
        r.drain_since(&mut cursor);
        // The next record is delta-coded against the drained prefix; both
        // snapshot and take must resume from the reader's decoder state.
        r.gauge(
            "tail.resumed_gauge",
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
    fn synthesize_dropped_takes_the_next_seq() {
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
        // Not claimed: the next real record carries that seq, and a live
        // reader never waits on one no shard carries.
        let mut cursor = r.cursor();
        r.counter("tail.synth", 2);
        assert_eq!(seqs(&r.drain_since(&mut cursor).records), vec![0, 1]);
    }

    #[test]
    fn reads_move_shard_bytes_and_flush_releases_them() {
        let r = Recorder::enabled();
        for i in 0..1000u64 {
            r.counter("tail.move", i);
        }
        let bytes = r.buffered_bytes();
        let held = |r: &Recorder| -> usize {
            let inner = r.inner.as_ref().expect("enabled");
            let reader = inner.reader.lock();
            reader.tails.iter().map(|(_, t)| t.buf.capacity()).sum()
        };
        let mut cursor = r.cursor();
        assert_eq!(r.drain_since(&mut cursor).records.len(), 1000);
        assert_eq!(r.buffered_bytes(), 0);
        assert!(held(&r) >= bytes, "the shard's buffer moved to the reader");
        assert!(r.finish_tail(&mut cursor).records.is_empty());
        assert_eq!(held(&r), 0, "a flush that empties the reader frees it");
        r.counter("tail.move", 1000);
        assert_eq!(r.take().len(), 1);
        assert_eq!(held(&r), 0);
    }
}
