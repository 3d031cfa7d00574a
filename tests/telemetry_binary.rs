//! Binary telemetry protocol under stress: concurrent emission keeps the
//! merged stream in total order, full shards drop with an exact count,
//! and the streaming decoder survives truncated and arbitrary bytes
//! without panicking.

use lfm_core::telemetry::tail::TailMerger;
use lfm_core::telemetry::{Name, Record, Recorder, ShardDecoder};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Eight threads hammer one recorder with interleaved spans, instants,
/// and metrics; the merged stream must come back sorted by `seq` with
/// every sequence number present exactly once. This is the observable
/// contract behind the Relaxed `seq` counter: the per-shard mutexes
/// order each shard's bytes, and the merge reconstructs the global
/// order from the values alone (see the atomic ordering contract in
/// `lfm_telemetry`'s module docs).
#[test]
fn concurrent_emission_merges_into_total_order() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 2_000;

    let recorder = Recorder::enabled();
    let span_name = Name::intern("stress.span");
    let instant_name = Name::intern("stress.instant");
    let counter_name = Name::intern("stress.counter");
    let cat = Name::intern("stress");
    let emitted = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let recorder = recorder.clone();
            let emitted = &emitted;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    match i % 3 {
                        0 => recorder
                            .span_key(span_name, cat)
                            .between_secs(i as f64, i as f64 + 0.5)
                            .task(t as u64)
                            .emit(),
                        1 => recorder
                            .instant_key(instant_name, cat)
                            .at(lfm_core::simcluster::time::SimTime::from_secs(i as f64))
                            .emit(),
                        _ => recorder.counter_key(counter_name, 1),
                    }
                    emitted.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let total = emitted.load(Ordering::Relaxed);
    assert_eq!(total, (THREADS as u64) * PER_THREAD);
    assert_eq!(recorder.dropped(), 0, "default capacity must not drop");

    let records = recorder.take();
    assert_eq!(records.len() as u64, total);
    // Strictly increasing AND gap-free: seq values are exactly 0..total.
    for (expect, r) in records.iter().enumerate() {
        assert_eq!(
            r.seq(),
            expect as u64,
            "merged stream must be a gap-free total order"
        );
    }
}

/// A shard-capacity-1 recorder on a single thread keeps exactly one
/// record per shard touched and counts every other emission, exactly.
#[test]
fn overflow_drops_are_counted_exactly() {
    const EMITTED: u64 = 100;
    let recorder = Recorder::enabled_with_capacity(1);
    let name = Name::intern("overflow.counter");
    for _ in 0..EMITTED {
        recorder.counter_key(name, 1);
    }
    // Single thread → single shard → exactly one record kept.
    assert_eq!(recorder.len(), 1);
    assert_eq!(recorder.dropped(), EMITTED - 1);

    let records = recorder.take();
    assert_eq!(records.len(), 2, "kept record + synthetic drop counter");
    let Record::Metric(m) = &records[1] else {
        panic!("expected trailing dropped_events metric");
    };
    assert_eq!(m.name, "telemetry.dropped_events");
    assert_eq!(m.value as u64, EMITTED - 1);

    // The drop counter reset with take(); the buffer accepts again.
    recorder.counter_key(name, 1);
    assert_eq!(recorder.dropped(), 0);
    assert_eq!(recorder.take().len(), 1);
}

/// Chopping a real encoded stream at every byte boundary must yield
/// clean decodes of the surviving prefix records plus at most one
/// `Truncated` error — never a panic, and never a corrupt record.
#[test]
fn truncated_stream_decodes_prefix_then_errors() {
    let recorder = Recorder::enabled();
    recorder
        .span("trunc.span", "stress")
        .between_secs(1.0, 2.0)
        .attr("k", 7u64)
        .emit();
    recorder.counter("trunc.counter", 3);
    recorder
        .instant("trunc.instant", "stress")
        .at(lfm_core::simcluster::time::SimTime::from_secs(4.0))
        .emit();

    let shards = recorder.raw_shards();
    let intact = merge(&shards);
    assert_eq!(intact.len(), 3);

    // All three records land in this thread's single shard. Walk the
    // intact buffer once to learn where each record ends.
    let buf = shards.iter().find(|b| !b.is_empty()).unwrap();
    let mut boundaries = vec![0usize];
    {
        let mut dec = ShardDecoder::new(buf);
        while dec.next().is_some() {
            boundaries.push(dec.position());
        }
    }

    for cut in 0..buf.len() {
        let results: Vec<_> = ShardDecoder::new(&buf[..cut]).collect();
        let ok: Vec<&Record> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        let errs = results.len() - ok.len();
        assert!(errs <= 1, "decoder must fuse after the first error");
        for (a, b) in ok.iter().zip(&intact) {
            assert_eq!(a.seq(), b.seq(), "prefix records must decode intact");
        }
        if boundaries.contains(&cut) {
            // Cut on a record boundary: a clean, shorter stream.
            assert_eq!(errs, 0, "boundary cut at {cut} must decode cleanly");
            assert_eq!(ok.len(), boundaries.iter().position(|&b| b == cut).unwrap());
        } else {
            // Cut mid-record: the prefix decodes, then exactly one error.
            assert_eq!(errs, 1, "a mid-record cut at {cut} must surface an error");
        }
    }
}

/// Every record of whole per-shard streams, merged into `seq` order.
fn merge(shards: &[Vec<u8>]) -> Vec<Record> {
    let mut merger = TailMerger::default();
    for (i, bytes) in shards.iter().enumerate() {
        merger.feed(i, bytes);
    }
    let mut out = Vec::new();
    merger.flush(&mut |r| out.push(r.to_record()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The decoder is total: arbitrary bytes either decode or error,
    /// never panic, and a merge over garbage shards still terminates.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let decoded: Vec<Record> = ShardDecoder::new(&bytes).filter_map(Result::ok).collect();
        // Seqs of whatever decoded are non-decreasing (delta-coded from a
        // shard-local base, so within one shard order always holds).
        for pair in decoded.windows(2) {
            prop_assert!(pair[0].seq() <= pair[1].seq());
        }
        let merged = merge(&[bytes.clone(), bytes]);
        prop_assert!(merged.len() <= 2 * decoded.len() + 2);
    }

    /// Corrupting one byte of a valid stream never panics the decoder.
    #[test]
    fn single_byte_corruption_never_panics(pos in 0usize..64, xor in 1u8..=255) {
        let recorder = Recorder::enabled();
        recorder.span("fuzz.span", "stress").between_secs(0.5, 1.5).attr("a", 1u64).emit();
        recorder.counter("fuzz.counter", 9);
        let shards = recorder.raw_shards();
        let buf = shards.iter().find(|b| !b.is_empty()).unwrap();
        let mut bytes = buf.clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        let _ = ShardDecoder::new(&bytes).filter_map(Result::ok).count();
    }
}
