//! # lfm-bench — regenerators and microbenchmarks
//!
//! One binary per paper table/figure (see `src/bin/`) and Criterion
//! microbenches for the hot paths (see `benches/`). This library holds the
//! shared rendering helpers for the strategy-sweep figures.

use lfm_core::experiments::sweep::SweepPoint;
use lfm_core::render::{fmt_secs, render_table};
use lfm_core::telemetry::export::{
    ChromeSink, JsonlSink, PerfettoSink, PerfettoStreamSink, TraceSink,
};
use lfm_core::telemetry::{export, MetricsRegistry, Recorder};
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub mod sched_bench;

/// Trace output formats accepted by `--trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
    Chrome,
    /// One JSON object per record, flat.
    Jsonl,
    /// Binary Perfetto protobuf (ui.perfetto.dev).
    Perfetto,
}

impl TraceFormat {
    pub fn name(&self) -> &'static str {
        match self {
            TraceFormat::Chrome => "chrome",
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Perfetto => "perfetto",
        }
    }
}

/// One parsed `--trace <chrome|jsonl|perfetto>[:stream]=<path>` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    pub format: TraceFormat,
    /// Stream records to the sink while the run is live (bounded buffered
    /// memory) instead of buffering the full run and writing at the end.
    pub stream: bool,
    pub path: PathBuf,
}

impl TraceSpec {
    /// Parse `<chrome|jsonl|perfetto>[:stream]=<path>`.
    pub fn parse(s: &str) -> Result<TraceSpec, String> {
        let (head, path) = s
            .split_once('=')
            .ok_or_else(|| format!("trace spec `{s}` is missing `=<path>`"))?;
        if path.is_empty() {
            return Err(format!("trace spec `{s}` has an empty path"));
        }
        let (fmt, stream) = match head.split_once(':') {
            Some((f, "stream")) => (f, true),
            Some((_, mode)) => {
                return Err(format!(
                    "unknown trace mode `{mode}` in `{s}` (only `stream`)"
                ))
            }
            None => (head, false),
        };
        let format = match fmt {
            "chrome" => TraceFormat::Chrome,
            "jsonl" => TraceFormat::Jsonl,
            "perfetto" => TraceFormat::Perfetto,
            other => {
                return Err(format!(
                    "unknown trace format `{other}` in `{s}` (chrome|jsonl|perfetto)"
                ))
            }
        };
        Ok(TraceSpec {
            format,
            stream,
            path: PathBuf::from(path),
        })
    }

    /// Open the sink this spec describes. Non-stream Perfetto buffers the
    /// whole run for a globally time-sorted trace; everything else writes
    /// incrementally with O(1) buffered records.
    fn open(&self) -> std::io::Result<Box<dyn TraceSink + Send>> {
        let w = BufWriter::new(std::fs::File::create(&self.path)?);
        Ok(match (self.format, self.stream) {
            (TraceFormat::Chrome, _) => Box::new(ChromeSink::new(w)),
            (TraceFormat::Jsonl, _) => Box::new(JsonlSink::new(w)),
            (TraceFormat::Perfetto, false) => Box::new(PerfettoSink::new(w)),
            (TraceFormat::Perfetto, true) => Box::new(PerfettoStreamSink::new(w)),
        })
    }

    fn report_line(&self, records: u64) -> String {
        match self.format {
            TraceFormat::Chrome => format!("[trace: {} ({records} records)]", self.path.display()),
            TraceFormat::Jsonl => format!("[trace-jsonl: {}]", self.path.display()),
            TraceFormat::Perfetto => format!("[trace-perfetto: {}]", self.path.display()),
        }
    }
}

/// Parse every `--trace <spec>` flag out of an argument list (the testable
/// core of [`TraceOpts::from_arg_slice`]). Unknown arguments are ignored
/// (left for the binary's own parser); a malformed spec or a flag missing
/// its value panics with a usage message.
pub fn parse_trace_specs(args: &[String]) -> Vec<TraceSpec> {
    let mut specs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            let val = it
                .next()
                .expect("--trace requires <chrome|jsonl|perfetto>[:stream]=<path>");
            specs.push(TraceSpec::parse(val).unwrap_or_else(|e| panic!("{e}")));
        }
    }
    specs
}

/// What the background streamer hands back at shutdown.
struct StreamResult {
    records: u64,
    dropped: u64,
    /// High-water mark of undecoded bytes plus reorder-pending records
    /// held by the tail cursor — bounded by ring capacity, not run
    /// length (reported so long runs can see the bound holding).
    peak_buffered_bytes: usize,
    peak_pending_records: usize,
    registry: MetricsRegistry,
}

/// Handle to the live-tailing thread: one draining tail consumer feeding
/// every requested sink incrementally.
struct Streamer {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<StreamResult>,
}

/// The streamer body: poll the recorder's ring buffers, push each merged
/// record into every sink (and the metrics registry), repeat until told
/// to stop, then take the final tail — including records stuck behind a
/// cross-shard gap — and close the sinks. Buffered memory is bounded by
/// the ring capacity plus each sink's own state, independent of run
/// length; overflow between polls surfaces as a synthesized
/// `telemetry.dropped_events` count, never a decode error.
fn stream_loop(
    recorder: Recorder,
    stop: Arc<AtomicBool>,
    mut sinks: Vec<Box<dyn TraceSink + Send>>,
) -> StreamResult {
    let mut cursor = recorder.cursor();
    let mut registry = MetricsRegistry::new();
    let mut records = 0u64;
    let mut dropped = 0u64;
    let mut peak_buffered_bytes = 0usize;
    let mut peak_pending_records = 0usize;
    for sink in &mut sinks {
        sink.begin().expect("trace sink begin");
    }
    loop {
        let done = stop.load(Ordering::Acquire);
        let batch = if done {
            recorder.finish_tail(&mut cursor)
        } else {
            recorder.drain_since(&mut cursor)
        };
        dropped += batch.dropped_delta;
        records += batch.records.len() as u64;
        peak_buffered_bytes = peak_buffered_bytes.max(cursor.buffered_bytes());
        peak_pending_records = peak_pending_records.max(cursor.pending_len());
        for record in &batch.records {
            registry.observe_record(record);
            for sink in &mut sinks {
                sink.record(record).expect("trace sink write");
            }
        }
        if done {
            if let Some(record) = recorder.synthesize_dropped(dropped) {
                registry.observe_record(&record);
                records += 1;
                for sink in &mut sinks {
                    sink.record(&record).expect("trace sink write");
                }
            }
            for sink in &mut sinks {
                sink.finish().expect("trace sink finish");
            }
            return StreamResult {
                records,
                dropped,
                peak_buffered_bytes,
                peak_pending_records,
                registry,
            };
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Tracing options shared by every regenerator binary.
///
/// Parse with [`TraceOpts::from_args`] at the top of `main`; any
/// `--trace <chrome|jsonl|perfetto>[:stream]=<path>` flag (repeatable;
/// see [`parse_trace_specs`] for the deprecated per-format aliases)
/// installs the process-wide recorder — which every
/// `MasterConfig::new()`, cache, and the parallel engine then report
/// into — and [`TraceOpts::finish`] closes the trace files and prints a
/// metrics summary once the figures are done.
///
/// Without `:stream`, records accumulate in the recorder's ring buffers
/// and are written in one pass at [`TraceOpts::finish`]. With at least
/// one `:stream` spec, a background thread tails the ring buffers while
/// the run is live and feeds **all** requested sinks incrementally, so
/// buffered-record memory stays bounded regardless of run length (the
/// chrome and jsonl formats produce byte-identical files either way).
pub struct TraceOpts {
    specs: Vec<TraceSpec>,
    recorder: Recorder,
    streamer: Option<Streamer>,
}

impl TraceOpts {
    /// Parse trace flags from the process argv. Unknown arguments are left
    /// for the binary's own parsing; a trace flag missing its value panics
    /// with a usage message.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_arg_slice(&args)
    }

    /// [`TraceOpts::from_args`] over an explicit argument list (testable).
    pub fn from_arg_slice(args: &[String]) -> Self {
        let specs = parse_trace_specs(args);
        let recorder = if specs.is_empty() {
            Recorder::disabled()
        } else {
            lfm_core::telemetry::install_global()
        };
        Self::build(specs, recorder)
    }

    /// [`TraceOpts::from_arg_slice`] over an explicit recorder instead of
    /// the process-wide one — for tests and benchmarks that must not
    /// share (or drain) the global stream.
    pub fn with_recorder(args: &[String], recorder: Recorder) -> Self {
        Self::build(parse_trace_specs(args), recorder)
    }

    fn build(specs: Vec<TraceSpec>, recorder: Recorder) -> Self {
        let streamer = if recorder.is_enabled() && specs.iter().any(|s| s.stream) {
            let sinks: Vec<Box<dyn TraceSink + Send>> = specs
                .iter()
                .map(|s| {
                    s.open()
                        .unwrap_or_else(|e| panic!("open trace sink {}: {e}", s.path.display()))
                })
                .collect();
            let stop = Arc::new(AtomicBool::new(false));
            let handle = {
                let recorder = recorder.clone();
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("trace-stream".into())
                    .spawn(move || stream_loop(recorder, stop, sinks))
                    .expect("spawn trace streamer")
            };
            Some(Streamer { stop, handle })
        } else {
            None
        };
        TraceOpts {
            specs,
            recorder,
            streamer,
        }
    }

    /// Whether any trace output was requested.
    pub fn enabled(&self) -> bool {
        self.recorder.is_enabled() && !self.specs.is_empty()
    }

    /// The parsed trace specs, in flag order.
    pub fn specs(&self) -> &[TraceSpec] {
        &self.specs
    }

    /// The recorder this trace session drains — hand it to subsystems
    /// (e.g. [`ServingConfig::with_telemetry`]) that default to a
    /// disabled recorder rather than the process-wide one. Disabled when
    /// no trace flag was given, so it is always safe to pass along.
    ///
    /// [`ServingConfig::with_telemetry`]: lfm_core::serving::gateway::ServingConfig::with_telemetry
    pub fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// Close out tracing: stop the live streamer (if any) or drain the
    /// recorder and write each requested file, then print the aggregated
    /// metrics as one JSON line. No-op without trace flags.
    pub fn finish(self) {
        if !self.enabled() {
            return;
        }
        if let Some(streamer) = self.streamer {
            streamer.stop.store(true, Ordering::Release);
            let result = streamer.handle.join().expect("trace streamer panicked");
            for spec in &self.specs {
                println!("{}", spec.report_line(result.records));
            }
            if result.dropped > 0 {
                println!(
                    "[trace-stream] {} events dropped on ring overflow",
                    result.dropped
                );
            }
            println!(
                "[trace-stream] peak buffer: {} bytes undecoded, {} records pending",
                result.peak_buffered_bytes, result.peak_pending_records
            );
            let mut registry = result.registry;
            println!("[metrics] {}", registry.to_json());
            return;
        }
        let records = self.recorder.take();
        for spec in &self.specs {
            match spec.format {
                TraceFormat::Chrome => {
                    export::write_chrome_trace(&spec.path, &records).expect("write chrome trace");
                }
                TraceFormat::Jsonl => {
                    export::write_jsonl(&spec.path, &records).expect("write jsonl trace");
                }
                TraceFormat::Perfetto => {
                    export::write_perfetto_trace(&spec.path, &records)
                        .expect("write perfetto trace");
                }
            }
            println!("{}", spec.report_line(records.len() as u64));
        }
        let mut metrics = MetricsRegistry::from_records(&records);
        println!("[metrics] {}", metrics.to_json());
    }
}

/// Parse `--shards <n>` out of an argument list without installing it
/// (testable core of [`shards_from_args`]).
pub fn parse_shards(args: &[String]) -> Option<u32> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--shards" {
            let n: u32 = it
                .next()
                .expect("--shards requires a count")
                .parse()
                .expect("--shards must be an integer");
            return Some(n.max(1));
        }
    }
    None
}

/// Parse `--shards <n>` from the process argv and install it as the
/// process-wide default shard count, so every `MasterConfig::new()` the
/// figure builds routes through the federated master
/// (see `lfm_workqueue::federation`). Returns the shard count (1 when the
/// flag is absent). Call once at the top of `main`, alongside
/// [`TraceOpts::from_args`].
pub fn shards_from_args() -> u32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = parse_shards(&args).unwrap_or(1);
    lfm_core::workqueue::federation::set_default_shards(n);
    if n > 1 {
        println!("[federation: {n} foreman shards]");
    }
    n
}

/// Where regenerators drop machine-readable outputs.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Write a CSV file under `target/experiments/`, returning its path.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    let quote = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    writeln!(f, "{}", headers.join(",")).unwrap();
    for row in rows {
        let line: Vec<String> = row.iter().map(|c| quote(c)).collect();
        writeln!(f, "{}", line.join(",")).unwrap();
    }
    path
}

/// Dump a sweep-point cloud as long-format CSV (x, strategy, makespan_s,
/// retry_fraction, core_efficiency).
pub fn save_sweep_csv(name: &str, points: &[SweepPoint]) -> PathBuf {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.x.to_string(),
                p.strategy.clone(),
                format!("{:.3}", p.makespan_secs),
                format!("{:.5}", p.retry_fraction),
                format!("{:.5}", p.core_efficiency),
            ]
        })
        .collect();
    write_csv(
        name,
        &[
            "x",
            "strategy",
            "makespan_s",
            "retry_fraction",
            "core_efficiency",
        ],
        &rows,
    )
}

/// Pivot a sweep-point cloud into a table: one row per x value, one column
/// per strategy (in first-appearance order).
pub fn pivot_sweep(points: &[SweepPoint], x_label: &str) -> String {
    let mut strategies: Vec<String> = Vec::new();
    for p in points {
        if !strategies.contains(&p.strategy) {
            strategies.push(p.strategy.clone());
        }
    }
    let mut xs: Vec<u64> = points.iter().map(|p| p.x).collect();
    xs.sort_unstable();
    xs.dedup();

    let mut headers: Vec<&str> = vec![x_label];
    let owned: Vec<String> = strategies.clone();
    for s in &owned {
        headers.push(s.as_str());
    }
    let rows: Vec<Vec<String>> = xs
        .iter()
        .map(|&x| {
            let mut row = vec![x.to_string()];
            for s in &strategies {
                let cell = points
                    .iter()
                    .find(|p| p.x == x && &p.strategy == s)
                    .map(|p| fmt_secs(p.makespan_secs))
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            row
        })
        .collect();
    render_table(&headers, &rows)
}

/// Companion retry table for a sweep (the <1%-retries evidence).
pub fn retry_summary(points: &[SweepPoint]) -> String {
    let mut strategies: Vec<String> = Vec::new();
    for p in points {
        if !strategies.contains(&p.strategy) {
            strategies.push(p.strategy.clone());
        }
    }
    let rows: Vec<Vec<String>> = strategies
        .iter()
        .map(|s| {
            let mine: Vec<&SweepPoint> = points.iter().filter(|p| &p.strategy == s).collect();
            let max_retry = mine.iter().map(|p| p.retry_fraction).fold(0.0f64, f64::max);
            let mean_eff =
                mine.iter().map(|p| p.core_efficiency).sum::<f64>() / mine.len().max(1) as f64;
            vec![
                s.clone(),
                format!("{:.2}%", max_retry * 100.0),
                format!("{:.1}%", mean_eff * 100.0),
            ]
        })
        .collect();
    render_table(&["strategy", "max retries", "mean core efficiency"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: u64, s: &str, m: f64) -> SweepPoint {
        SweepPoint {
            x,
            strategy: s.into(),
            makespan_secs: m,
            retry_fraction: 0.004,
            core_efficiency: 0.8,
        }
    }

    #[test]
    fn pivot_shape() {
        let points = vec![
            pt(10, "Oracle", 100.0),
            pt(10, "Auto", 110.0),
            pt(20, "Oracle", 180.0),
        ];
        let t = pivot_sweep(&points, "tasks");
        assert!(t.contains("tasks"));
        assert!(t.contains("Oracle"));
        assert!(t.contains("Auto"));
        // Missing cell renders as dash.
        assert!(t.contains('-'));
    }

    #[test]
    fn csv_writer_quotes_and_persists() {
        let rows = vec![vec!["a,b".to_string(), "pla\"in".to_string()]];
        let path = write_csv("test_csv_writer", &["c1", "c2"], &rows);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("c1,c2\n"));
        assert!(body.contains("\"a,b\""));
        assert!(body.contains("\"pla\"\"in\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_csv_long_format() {
        let points = vec![pt(10, "Oracle", 100.0)];
        let path = save_sweep_csv("test_sweep_csv", &points);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("x,strategy,makespan_s"));
        assert!(body.contains("10,Oracle,100.000"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_shards_reads_flag_and_clamps() {
        assert_eq!(parse_shards(&[]), None);
        let args: Vec<String> = ["--seed", "7", "--shards", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_shards(&args), Some(4));
        let args: Vec<String> = ["--shards", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_shards(&args), Some(1), "clamped to at least 1");
    }

    #[test]
    fn trace_opts_absent_flags_stay_disabled() {
        let opts = TraceOpts::from_arg_slice(&["--seed".to_string(), "7".to_string()]);
        assert!(!opts.enabled());
        opts.finish(); // no-op, must not write anything or panic
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_spec_parser_matrix() {
        use TraceFormat::*;
        let ok = [
            ("chrome=/tmp/a.json", Chrome, false, "/tmp/a.json"),
            ("jsonl=/tmp/a.jsonl", Jsonl, false, "/tmp/a.jsonl"),
            ("perfetto=/tmp/a.pftrace", Perfetto, false, "/tmp/a.pftrace"),
            ("chrome:stream=/tmp/s.json", Chrome, true, "/tmp/s.json"),
            ("jsonl:stream=rel/path.jsonl", Jsonl, true, "rel/path.jsonl"),
            (
                "perfetto:stream=/tmp/s.pftrace",
                Perfetto,
                true,
                "/tmp/s.pftrace",
            ),
            // Only the first `=` splits: paths may contain `=`.
            ("chrome=/tmp/run=7.json", Chrome, false, "/tmp/run=7.json"),
        ];
        for (input, format, stream, path) in ok {
            let spec = TraceSpec::parse(input).unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.format, format, "{input}");
            assert_eq!(spec.stream, stream, "{input}");
            assert_eq!(spec.path, PathBuf::from(path), "{input}");
        }
        for bad in [
            "chrome",                  // no path
            "chrome=",                 // empty path
            "=/tmp/x.json",            // empty format
            "svg=/tmp/x.svg",          // unknown format
            "chrome:live=/tmp/x.json", // unknown mode
            "chrome:stream",           // stream but no path
        ] {
            assert!(TraceSpec::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn streamed_chrome_trace_matches_buffered_output() {
        use lfm_core::simcluster::time::SimTime;
        let emit = |rec: &Recorder| {
            for i in 0..500u64 {
                rec.counter("bench.stream_counter", 1 + i % 3);
                let t = i as f64 * 0.01;
                rec.span("work", "bench")
                    .at(SimTime::from_secs(t), SimTime::from_secs(t + 0.005))
                    .task(i)
                    .emit();
            }
        };
        // Reference: same emission order, post-hoc slice export.
        let reference = Recorder::enabled();
        emit(&reference);
        let expect = export::chrome_trace(&reference.take());

        let path = std::env::temp_dir().join("lfm_bench_stream_chrome.json");
        let rec = Recorder::enabled();
        let opts = TraceOpts::with_recorder(
            &strings(&["--trace", &format!("chrome:stream={}", path.display())]),
            rec.clone(),
        );
        assert!(opts.enabled());
        emit(&rec);
        opts.finish();
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, expect, "live tail must match post-hoc export");
        // The streamer drained everything; nothing is left to take.
        assert!(rec.take().is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stream_mode_feeds_buffered_and_streaming_sinks_together() {
        use lfm_core::simcluster::time::SimTime;
        let chrome = std::env::temp_dir().join("lfm_bench_mixed_chrome.json");
        let pftrace = std::env::temp_dir().join("lfm_bench_mixed.pftrace");
        let rec = Recorder::enabled();
        let opts = TraceOpts::with_recorder(
            &strings(&[
                "--trace",
                &format!("chrome={}", chrome.display()),
                "--trace",
                &format!("perfetto:stream={}", pftrace.display()),
            ]),
            rec.clone(),
        );
        for i in 0..50u64 {
            let t = i as f64 * 0.1;
            rec.span("step", "bench")
                .at(SimTime::from_secs(t), SimTime::from_secs(t + 0.05))
                .emit();
            rec.gauge("bench.depth", (i % 7) as f64, SimTime::from_secs(t));
        }
        opts.finish();
        let body = std::fs::read_to_string(&chrome).unwrap();
        lfm_core::telemetry::export::validate_json(&body).unwrap();
        assert!(body.contains("bench.depth"));
        let trace = std::fs::read(&pftrace).unwrap();
        lfm_core::telemetry::export::validate_trace(&trace).unwrap();
        std::fs::remove_file(chrome).ok();
        std::fs::remove_file(pftrace).ok();
    }

    #[test]
    fn trace_opts_install_write_and_validate() {
        let path = std::env::temp_dir().join("lfm_bench_trace_opts_test.json");
        let pftrace = std::env::temp_dir().join("lfm_bench_trace_opts_test.pftrace");
        let args = strings(&[
            "--trace",
            &format!("chrome={}", path.display()),
            "--trace",
            &format!("perfetto={}", pftrace.display()),
        ]);
        let opts = TraceOpts::from_arg_slice(&args);
        assert!(opts.enabled());
        lfm_core::telemetry::global().counter("bench.test_counter", 3);
        opts.finish();
        let body = std::fs::read_to_string(&path).unwrap();
        lfm_core::telemetry::export::validate_json(&body).unwrap();
        assert!(body.contains("traceEvents"));
        assert!(body.contains("bench.test_counter"));
        let trace = std::fs::read(&pftrace).unwrap();
        lfm_core::telemetry::export::validate_trace(&trace).unwrap();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(pftrace).ok();
    }

    #[test]
    fn retry_table_has_all_strategies() {
        let points = vec![pt(1, "Oracle", 1.0), pt(1, "Auto", 1.0)];
        let t = retry_summary(&points);
        assert!(t.contains("0.40%"));
        assert!(t.contains("80.0%"));
    }
}
