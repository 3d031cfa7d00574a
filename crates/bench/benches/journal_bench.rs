//! Journal hot-path microbenches: `Record` encode/decode throughput,
//! full-image round-trips, and delta-image encode / chain decode.
//!
//! Every simulated event the durable master processes appends one or more
//! journal records, and every recovery replays them; with the federation
//! layer each shard keeps its own journal, so the encode path runs on N
//! event loops at once. These benches pin the per-record and per-snapshot
//! cost through `lfm_workqueue::journal::bench_api` (a representative
//! rotating mix of Enqueue/Placed/Result/Finished/Freed/Observe records,
//! and images with pending queues, placements, and allocator samples). The
//! delta cases hold the tail at 4096 records while the run grows 50×: a
//! full image's encode time follows the run, a delta's only the live
//! placements it carries whole (a third of the tasks in this synthetic
//! state; bounded by the cluster in a real one).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lfm_core::workqueue::journal::bench_api;

fn bench_records(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal_records");
    for &n in &[1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("encode", n), &n, |b, &n| {
            b.iter(|| bench_api::encode_records(n))
        });
        let buf = bench_api::encode_records(n);
        g.throughput(Throughput::Bytes(buf.len() as u64));
        g.bench_with_input(BenchmarkId::new("decode", n), &buf, |b, buf| {
            b.iter(|| {
                let decoded = bench_api::decode_records(buf);
                assert_eq!(decoded as u64, n);
                decoded
            })
        });
    }
    g.finish();
}

fn bench_snapshots(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal_snapshot");
    for &tasks in &[1_000usize, 50_000] {
        g.throughput(Throughput::Elements(tasks as u64));
        g.bench_with_input(BenchmarkId::new("encode_image", tasks), &tasks, |b, &t| {
            b.iter(|| bench_api::encode_image(t))
        });
        let bytes = bench_api::encode_image(tasks);
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_with_input(BenchmarkId::new("roundtrip", tasks), &bytes, |b, bytes| {
            b.iter(|| assert!(bench_api::image_roundtrips(bytes)))
        });
    }
    for &tasks in &[1_000usize, 50_000] {
        let case = bench_api::DeltaCase::new(tasks, 4096);
        g.throughput(Throughput::Elements(4096));
        g.bench_with_input(BenchmarkId::new("encode_delta", tasks), &case, |b, case| {
            b.iter(|| case.encode_delta())
        });
        let (full, delta) = (bench_api::encode_image(tasks), case.encode_delta());
        g.throughput(Throughput::Bytes((full.len() + delta.len()) as u64));
        g.bench_with_input(
            BenchmarkId::new("decode_chain", tasks),
            &(full, delta),
            |b, (full, delta)| b.iter(|| bench_api::chain_decodes(full, delta)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_records, bench_snapshots);
criterion_main!(benches);
