//! Live tailing integration: a tailer draining the ring buffers while a
//! run executes must reconstruct exactly the stream a post-hoc decode
//! would have seen — same records, same total order — with overflow
//! surfaced as dropped-count deltas and chunk truncation never surfaced
//! as an error.

use lfm_core::prelude::*;
// Explicit: both preludes export a `Strategy` (ours vs proptest's).
use lfm_core::prelude::Strategy;
use lfm_core::telemetry::tail::{ShardTail, TailPoll};
use lfm_core::telemetry::{Record, Recorder, ShardDecoder};
use lfm_core::workloads::drug;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a live tail saw: the merged stream, the accumulated drop count,
/// and the high-water mark of bytes the cursor held undecoded.
struct Tailed {
    records: Vec<Record>,
    dropped: u64,
    peak_buffered_bytes: usize,
}

/// Drain `recorder` from a background thread until `run` returns, then
/// finish the tail.
fn tail_live<R>(recorder: &Recorder, run: impl FnOnce() -> R) -> (R, Tailed) {
    let stop = Arc::new(AtomicBool::new(false));
    let tail_rec = recorder.clone();
    let tail_stop = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut cursor = tail_rec.cursor();
        let mut tailed = Tailed {
            records: Vec::new(),
            dropped: 0,
            peak_buffered_bytes: 0,
        };
        loop {
            let done = tail_stop.load(Ordering::Acquire);
            let batch = if done {
                tail_rec.finish_tail(&mut cursor)
            } else {
                tail_rec.drain_since(&mut cursor)
            };
            tailed.records.extend(batch.records);
            tailed.dropped += batch.dropped_delta;
            tailed.peak_buffered_bytes = tailed.peak_buffered_bytes.max(cursor.buffered_bytes());
            assert!(
                cursor.errors().is_empty(),
                "live tail hit decode errors: {:?}",
                cursor.errors()
            );
            if done {
                return tailed;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });
    let out = run();
    stop.store(true, Ordering::Release);
    (out, handle.join().expect("tailer panicked"))
}

/// A fig7-scale drug-screening run tailed live must be record-identical
/// to the post-hoc `take()` of an identically seeded run, while the tail
/// holds at most two ring capacities of undecoded bytes: a bound set by
/// the ring, not by how long the run is.
#[test]
fn fig7_live_tail_matches_posthoc_decode() {
    const RING_CAPACITY: usize = 1 << 18; // records per shard, the default
    let run = |recorder: &Recorder| {
        let workload = drug::build(300, 1234);
        let config = drug::master_config(Strategy::Auto(AutoConfig::default()), 1234)
            .with_telemetry(recorder.clone());
        let report = run_workload(&config, workload.tasks, 14, drug::worker_spec());
        assert_eq!(report.abandoned_tasks, 0);
    };

    let live_rec = Recorder::enabled_with_capacity(RING_CAPACITY);
    let ((), tailed) = tail_live(&live_rec, || run(&live_rec));
    assert_eq!(tailed.dropped, 0, "default capacity must not drop");
    assert!(
        live_rec.take().is_empty(),
        "the tailer must have consumed the whole stream"
    );
    assert!(
        tailed.peak_buffered_bytes <= 2 * RING_CAPACITY,
        "tailer held {} undecoded bytes, beyond the ring-capacity bound",
        tailed.peak_buffered_bytes
    );
    let live = tailed.records;

    let posthoc_rec = Recorder::enabled();
    run(&posthoc_rec);
    let posthoc = posthoc_rec.take();

    assert!(!posthoc.is_empty());
    assert_eq!(live.len(), posthoc.len());
    assert_eq!(live, posthoc, "live stream diverged from post-hoc decode");
}

/// Same identity over the serving gateway: live tail while the tick loop
/// runs, compare against an identically seeded buffered run.
#[test]
fn serving_live_tail_matches_posthoc_decode() {
    let run = |recorder: &Recorder| {
        let node = NodeSpec::new(16, 64 * 1024, 100 * 1024);
        let f = ServingFunction::synthetic(
            "classify",
            50 << 20,
            ActivationTech::Docker,
            SimTaskProfile::new(0.5, 1.0, 1024, 256),
            64 << 10,
        );
        let tenants = vec![
            TenantConfig::new("web", 2, ArrivalConfig::poisson(15.0)),
            TenantConfig::new("batch", 1, ArrivalConfig::poisson(10.0)),
        ];
        let cfg = ServingConfig::new(4, node)
            .with_seed(42)
            .with_horizon(8.0)
            .with_tick(0.25)
            .with_telemetry(recorder.clone());
        ServingGateway::new(cfg, vec![f], tenants).run()
    };

    let live_rec = Recorder::enabled();
    let (report_live, tailed) = tail_live(&live_rec, || run(&live_rec));
    assert_eq!(tailed.dropped, 0);
    let live = tailed.records;

    let posthoc_rec = Recorder::enabled();
    let report_posthoc = run(&posthoc_rec);
    let posthoc = posthoc_rec.take();

    assert_eq!(report_live, report_posthoc, "seeded runs must agree");
    assert!(!posthoc.is_empty());
    assert_eq!(live, posthoc, "live stream diverged from post-hoc decode");
}

/// Overflow between polls: drops surface as `dropped_delta`, never as a
/// decode error, and kept + dropped accounts for every emission exactly.
#[test]
fn overflow_between_polls_surfaces_dropped_deltas() {
    const BURSTS: u64 = 10;
    const PER_BURST: u64 = 20;
    const CAPACITY: usize = 8;

    let recorder = Recorder::enabled_with_capacity(CAPACITY);
    let mut cursor = recorder.cursor();
    let mut kept: Vec<Record> = Vec::new();
    let mut dropped = 0u64;
    for burst in 0..BURSTS {
        for i in 0..PER_BURST {
            recorder.counter("overflow.burst", burst * PER_BURST + i);
        }
        let batch = recorder.drain_since(&mut cursor);
        kept.extend(batch.records);
        dropped += batch.dropped_delta;
        assert!(cursor.errors().is_empty(), "overflow must not corrupt");
        // Every burst overflows the capacity-8 shard, so every poll
        // reports a fresh drop delta.
        assert!(dropped >= (burst + 1) * (PER_BURST - CAPACITY as u64));
    }
    let tail = recorder.finish_tail(&mut cursor);
    kept.extend(tail.records);
    dropped += tail.dropped_delta;

    assert_eq!(
        kept.len() as u64 + dropped,
        BURSTS * PER_BURST,
        "kept + dropped must account for every emission"
    );
    // Dropped emissions never claim a sequence number, so the kept
    // stream stays sequence-dense across overflow resets, and each kept
    // counter still carries the emission index it was written with, in
    // emission order.
    let mut last_value = None;
    for (idx, r) in kept.iter().enumerate() {
        assert_eq!(r.seq(), idx as u64, "kept stream must be gap-free");
        let Record::Metric(m) = r else {
            panic!("expected only counters")
        };
        let value = m.value as u64;
        assert!(value < BURSTS * PER_BURST);
        assert!(last_value.is_none_or(|v| v < value), "emission order lost");
        last_value = Some(value);
    }
    // The live counterpart of take()'s synthetic trailing counter.
    let Some(Record::Metric(synth)) = recorder.synthesize_dropped(dropped) else {
        panic!("nonzero drop total must synthesize a counter");
    };
    assert_eq!(synth.name, "telemetry.dropped_events");
    assert_eq!(synth.value as u64, dropped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding a valid shard stream in arbitrary chunk sizes never
    /// surfaces an error — a chunk boundary mid-record is `NeedMoreData`,
    /// and the records recovered equal the whole-buffer decode.
    #[test]
    fn chunked_feeding_never_surfaces_errors(
        chunks in proptest::collection::vec(1usize..48, 1..64),
    ) {
        let recorder = Recorder::enabled();
        for i in 0..12u64 {
            match i % 3 {
                0 => recorder
                    .span("tail.span", "chunk")
                    .between_secs(i as f64, i as f64 + 0.5)
                    .attr("idx", i)
                    .emit(),
                1 => recorder.counter("tail.counter", i),
                _ => recorder
                    .instant("tail.instant", "chunk")
                    .at(lfm_core::simcluster::time::SimTime::from_secs(i as f64))
                    .emit(),
            }
        }
        let shards = recorder.raw_shards();
        let buf = shards.iter().find(|b| !b.is_empty()).unwrap();
        let expected: Vec<Record> =
            ShardDecoder::new(buf).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(expected.len(), 12);

        let mut tail = ShardTail::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        let mut chunk_iter = chunks.iter().cycle();
        while pos < buf.len() {
            let len = (*chunk_iter.next().unwrap()).min(buf.len() - pos);
            tail.feed(&buf[pos..pos + len]);
            pos += len;
            loop {
                match tail.poll() {
                    Ok(TailPoll::Record(r)) => got.push(r),
                    Ok(TailPoll::NeedMoreData) => break,
                    Err(e) => {
                        return Err(TestCaseError::fail(format!(
                            "chunk boundary surfaced decode error: {e:?}"
                        )))
                    }
                }
            }
        }
        prop_assert_eq!(tail.buffered_bytes(), 0, "stream must decode fully");
        prop_assert_eq!(got, expected);
    }

    /// Random burst sizes and poll schedules against a small ring: the
    /// incremental tail accounts for every emission (kept + dropped),
    /// keeps the stream ordered and content-intact, and never errors.
    #[test]
    fn overflow_accounting_is_exact_under_random_polls(
        capacity in 1usize..24,
        bursts in proptest::collection::vec((0u64..48, any::<bool>()), 1..24),
    ) {
        let recorder = Recorder::enabled_with_capacity(capacity);
        let mut cursor = recorder.cursor();
        let mut kept: Vec<Record> = Vec::new();
        let mut dropped = 0u64;
        let mut emitted = 0u64;
        for (burst, poll) in &bursts {
            for _ in 0..*burst {
                recorder.counter("prop.overflow", emitted);
                emitted += 1;
            }
            if *poll {
                let batch = recorder.drain_since(&mut cursor);
                kept.extend(batch.records);
                dropped += batch.dropped_delta;
            }
        }
        let tail = recorder.finish_tail(&mut cursor);
        kept.extend(tail.records);
        dropped += tail.dropped_delta;

        prop_assert!(cursor.errors().is_empty());
        prop_assert_eq!(kept.len() as u64 + dropped, emitted);
        // Drops never claim a seq, so kept seqs are exactly 0..len and
        // values are a strictly increasing subset of the emission indices.
        let mut last_value = None;
        for (idx, r) in kept.iter().enumerate() {
            prop_assert_eq!(r.seq(), idx as u64);
            let Record::Metric(m) = r else {
                return Err(TestCaseError::fail("expected only counters"));
            };
            let value = m.value as u64;
            prop_assert!(value < emitted);
            prop_assert!(last_value.is_none_or(|v| v < value));
            last_value = Some(value);
        }
    }
}
