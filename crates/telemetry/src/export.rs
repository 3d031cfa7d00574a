//! Exporters: Chrome trace-event JSON, flat JSONL, and Perfetto — all
//! behind one streaming [`TraceSink`] interface.
//!
//! The Chrome exporter emits the object form of the trace-event format
//! (`{"traceEvents":[...]}`) that `chrome://tracing` and Perfetto load
//! directly: spans become complete (`"X"`) events with microsecond
//! timestamps, instants become thread-scoped `"i"` events, and timed
//! counters/gauges become counter (`"C"`) tracks (counters plot their
//! running total). Untimed metric samples have no place on a timeline;
//! their aggregate totals ride along in a top-level `otherData` object.
//!
//! ### The sink API
//!
//! Every exporter implements [`TraceSink`] — `begin` once, `record` per
//! record, `finish` once — so the same code path serves both post-hoc
//! export (feed a full `take()`d stream) and live streaming (feed each
//! [`crate::Recorder::drain_since`] batch as it arrives, which is what
//! `--trace <fmt>:stream` does in the runner binaries). [`ChromeSink`]
//! and [`JsonlSink`] write incrementally with O(distinct metric names)
//! state; the Perfetto sinks are in [`crate::perfetto`] ([`PerfettoSink`]
//! buffered + byte-identical to [`perfetto_trace`],
//! [`PerfettoStreamSink`] incremental + bounded). The slice-based
//! [`chrome_trace`] / [`jsonl`] functions are shims implemented over the
//! sinks (kept because their output is pinned byte-for-byte by golden
//! tests — prefer the sinks in new code).
//!
//! Everything is built with the same hand-rolled JSON writer the resource
//! monitor's summaries use ([`lfm_monitor::summary::JsonObject`]) — the
//! dependency set has no JSON crate, and the documents are flat. Output is
//! byte-deterministic for a deterministic record stream (pinned by a
//! golden integration test).

pub use crate::perfetto::{
    perfetto_trace, validate_trace, PerfettoSink, PerfettoStreamSink, TraceStats,
};

use crate::metrics::MetricsRegistry;
use crate::record::{AttrValue, Record};
use lfm_monitor::summary::JsonObject;
use std::collections::BTreeMap;
use std::io::Write;

/// A streaming trace exporter: `begin` once, `record` per record in
/// merged `seq` order, `finish` once to terminate the document. Sinks
/// write to their inner writer as records arrive; how much state they
/// buffer between calls is reported by
/// [`TraceSink::buffered_records`] (the live-streaming memory bound
/// asserted in `bench_tail`).
pub trait TraceSink {
    /// Write the document preamble. Must be called exactly once, first.
    fn begin(&mut self) -> std::io::Result<()>;
    /// Feed the next record of the merged stream.
    fn record(&mut self, record: &Record) -> std::io::Result<()>;
    /// Terminate the document and flush the inner writer.
    fn finish(&mut self) -> std::io::Result<()>;
    /// Records the sink is currently holding back from its writer — 0 for
    /// the truly incremental sinks, the full stream length for buffered
    /// ones (like [`PerfettoSink`], which needs a global sort).
    fn buffered_records(&self) -> usize {
        0
    }
}

/// Drive a sink over a whole record stream: `begin`, every record in
/// iterator order, `finish`.
pub fn export_records<I>(sink: &mut dyn TraceSink, records: I) -> std::io::Result<()>
where
    I: IntoIterator<Item = Record>,
{
    sink.begin()?;
    for record in records {
        sink.record(&record)?;
    }
    sink.finish()
}

/// Streaming Chrome trace-event sink. Incremental state is one running
/// total per counter name plus the [`MetricsRegistry`] that becomes
/// `otherData` — bounded by distinct metric names, not run length. Output
/// is byte-identical to [`chrome_trace`] (which is implemented over this
/// sink).
pub struct ChromeSink<W: Write> {
    w: W,
    totals: BTreeMap<String, f64>,
    registry: MetricsRegistry,
}

impl<W: Write> ChromeSink<W> {
    pub fn new(w: W) -> Self {
        ChromeSink {
            w,
            totals: BTreeMap::new(),
            registry: MetricsRegistry::new(),
        }
    }

    /// Recover the inner writer (call after [`TraceSink::finish`]).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> TraceSink for ChromeSink<W> {
    fn begin(&mut self) -> std::io::Result<()> {
        // Document preamble + the process-name metadata event, so every
        // later event writes as ",<event>".
        let mut meta = JsonObject::new();
        meta.field_str("name", "process_name")
            .field_str("ph", "M")
            .field_u64("pid", 1)
            .field_raw("args", "{\"name\":\"lfm-sim\"}");
        write!(self.w, "{{\"traceEvents\":[{}", meta.finish())
    }

    fn record(&mut self, record: &Record) -> std::io::Result<()> {
        self.registry.observe_record(record);
        let event = match record {
            Record::Span(s) => {
                let mut o = JsonObject::new();
                o.field_str("name", &s.name)
                    .field_str("cat", &s.cat)
                    .field_str("ph", "X")
                    .field_f64("ts", s.start_secs * MICROS)
                    .field_f64("dur", s.duration_secs() * MICROS)
                    .field_u64("pid", 1)
                    .field_u64("tid", s.track)
                    .field_raw("args", &args_object(s.task, s.attempt, &s.attrs));
                o.finish()
            }
            Record::Instant(i) => {
                let mut o = JsonObject::new();
                o.field_str("name", &i.name)
                    .field_str("cat", &i.cat)
                    .field_str("ph", "i")
                    .field_str("s", "t")
                    .field_f64("ts", i.at_secs * MICROS)
                    .field_u64("pid", 1)
                    .field_u64("tid", i.track)
                    .field_raw("args", &args_object(i.task, i.attempt, &i.attrs));
                o.finish()
            }
            Record::Metric(m) => {
                let Some(at) = m.at_secs else { return Ok(()) };
                let value = match m.kind {
                    crate::record::MetricKind::Counter => {
                        let total = self.totals.entry(m.name.clone()).or_insert(0.0);
                        *total += m.value;
                        *total
                    }
                    _ => m.value,
                };
                let mut args = JsonObject::new();
                args.field_f64("value", value);
                let mut o = JsonObject::new();
                o.field_str("name", &m.name)
                    .field_str("ph", "C")
                    .field_f64("ts", at * MICROS)
                    .field_u64("pid", 1)
                    .field_u64("tid", 0)
                    .field_raw("args", &args.finish());
                o.finish()
            }
        };
        write!(self.w, ",{event}")
    }

    fn finish(&mut self) -> std::io::Result<()> {
        write!(
            self.w,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{}}}",
            self.registry.to_json()
        )?;
        self.w.flush()
    }
}

/// Streaming JSONL sink: one self-describing object per record, written
/// as it arrives. No buffered state at all.
pub struct JsonlSink<W: Write> {
    w: W,
}

impl<W: Write> JsonlSink<W> {
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }

    /// Recover the inner writer (call after [`TraceSink::finish`]).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn begin(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn record(&mut self, record: &Record) -> std::io::Result<()> {
        writeln!(self.w, "{}", jsonl_line(record))
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

const MICROS: f64 = 1e6;

fn attr_field(o: &mut JsonObject, key: &str, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => o.field_u64(key, *v),
        AttrValue::F64(v) => o.field_f64(key, *v),
        AttrValue::Str(v) => o.field_str(key, v),
    };
}

fn args_object(task: Option<u64>, attempt: Option<u32>, attrs: &[(String, AttrValue)]) -> String {
    let mut o = JsonObject::new();
    if let Some(t) = task {
        o.field_u64("task", t);
    }
    if let Some(a) = attempt {
        o.field_u64("attempt", a as u64);
    }
    for (k, v) in attrs {
        attr_field(&mut o, k, v);
    }
    o.finish()
}

/// One JSONL object for a record (no trailing newline).
fn jsonl_line(record: &Record) -> String {
    let mut o = JsonObject::new();
    match record {
        Record::Span(s) => {
            o.field_str("type", "span")
                .field_u64("seq", s.seq)
                .field_str("name", &s.name)
                .field_str("cat", &s.cat)
                .field_f64("start_s", s.start_secs)
                .field_f64("end_s", s.end_secs)
                .field_f64("dur_s", s.duration_secs())
                .field_u64("track", s.track)
                .field_u64("depth", s.depth as u64)
                .field_raw("args", &args_object(s.task, s.attempt, &s.attrs));
        }
        Record::Instant(i) => {
            o.field_str("type", "instant")
                .field_u64("seq", i.seq)
                .field_str("name", &i.name)
                .field_str("cat", &i.cat)
                .field_f64("at_s", i.at_secs)
                .field_u64("track", i.track)
                .field_raw("args", &args_object(i.task, i.attempt, &i.attrs));
        }
        Record::Metric(m) => {
            o.field_str(
                "type",
                match m.kind {
                    crate::record::MetricKind::Counter => "counter",
                    crate::record::MetricKind::Gauge => "gauge",
                    crate::record::MetricKind::Histogram => "observe",
                },
            )
            .field_u64("seq", m.seq)
            .field_str("name", &m.name)
            .field_f64("value", m.value);
            if let Some(at) = m.at_secs {
                o.field_f64("at_s", at);
            }
        }
    }
    o.finish()
}

/// Render a record stream as a Chrome trace-event JSON document.
///
/// Legacy slice shim over [`ChromeSink`] (byte-identical output); prefer
/// the sink for streaming or large traces.
pub fn chrome_trace(records: &[Record]) -> String {
    let mut sink = ChromeSink::new(Vec::new());
    export_records(&mut sink, records.iter().cloned()).expect("Vec write is infallible");
    String::from_utf8(sink.into_inner()).expect("JSON writer emits UTF-8")
}

/// Render a record stream as JSONL: one self-describing object per line,
/// for scripted analysis (`jq`, pandas).
///
/// Legacy slice shim over [`JsonlSink`] (byte-identical output); prefer
/// the sink for streaming or large traces.
pub fn jsonl(records: &[Record]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    export_records(&mut sink, records.iter().cloned()).expect("Vec write is infallible");
    String::from_utf8(sink.into_inner()).expect("JSON writer emits UTF-8")
}

/// Strict structural JSON validator (no value model — it only answers "is
/// this well-formed?"). The dependency set has no JSON parser; the trace
/// tests use this to prove exporter output actually loads.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos:?}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b.get(*pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use lfm_simcluster::time::SimTime;

    fn sample_recorder() -> Recorder {
        let r = Recorder::enabled();
        r.span("exec", "lfm")
            .at(SimTime::from_secs(1.0), SimTime::from_secs(3.5))
            .track(2)
            .task(9)
            .attempt(0)
            .attr("polls", 3u64)
            .attr("outcome", "completed")
            .emit();
        r.instant("kill", "lfm")
            .at(SimTime::from_secs(3.5))
            .track(2)
            .task(9)
            .emit();
        r.counter_at("event.task_done", 1, SimTime::from_secs(3.5));
        r.counter_at("event.task_done", 1, SimTime::from_secs(4.0));
        r.gauge("pending", 5.0, SimTime::from_secs(2.0));
        r.counter("cache.hit", 4);
        r.observe("turnaround_s", 3.5);
        r
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let trace = chrome_trace(&sample_recorder().take());
        validate_json(&trace).expect("chrome trace must be valid JSON");
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""), "span event");
        assert!(trace.contains("\"ph\":\"i\""), "instant event");
        assert!(trace.contains("\"ph\":\"C\""), "counter event");
        assert!(trace.contains("\"ph\":\"M\""), "metadata event");
        // Span: 1.0 s -> 1e6 us, 2.5 s duration.
        assert!(trace.contains("\"ts\":1000000"), "{trace}");
        assert!(trace.contains("\"dur\":2500000"));
        // Counter track plots the running total: second sample reads 2.
        assert!(trace.contains("\"value\":2"));
        // Untimed aggregates land in otherData.
        assert!(trace.contains("\"otherData\":{"));
        assert!(trace.contains("\"cache.hit\":4"));
        assert!(trace.contains("\"turnaround_s.p95\":3.5"));
    }

    #[test]
    fn jsonl_one_valid_object_per_record() {
        let records = sample_recorder().take();
        let dump = jsonl(&records);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), records.len());
        for line in &lines {
            validate_json(line).expect("each JSONL line must be valid JSON");
        }
        assert!(lines[0].contains("\"type\":\"span\""));
        assert!(dump.contains("\"type\":\"counter\""));
        assert!(dump.contains("\"type\":\"gauge\""));
        assert!(dump.contains("\"type\":\"observe\""));
    }

    #[test]
    fn empty_stream_exports_cleanly() {
        let trace = chrome_trace(&[]);
        validate_json(&trace).unwrap();
        assert_eq!(jsonl(&[]), "");
    }

    #[test]
    fn chrome_sink_fed_in_batches_matches_slice_output() {
        let records = sample_recorder().take();
        let slice = chrome_trace(&records);
        let mut buf = Vec::new();
        let mut sink = ChromeSink::new(&mut buf);
        sink.begin().unwrap();
        // Uneven batches mimic live tail drains; bytes must not care.
        for chunk in records.chunks(3) {
            for r in chunk {
                sink.record(r).unwrap();
            }
        }
        sink.finish().unwrap();
        assert_eq!(sink.buffered_records(), 0, "chrome sink is incremental");
        drop(sink);
        assert_eq!(String::from_utf8(buf).unwrap(), slice);
    }

    #[test]
    fn jsonl_sink_fed_in_batches_matches_slice_output() {
        let records = sample_recorder().take();
        let slice = jsonl(&records);
        let mut buf = Vec::new();
        let mut sink = JsonlSink::new(&mut buf);
        sink.begin().unwrap();
        for chunk in records.chunks(2) {
            for r in chunk {
                sink.record(r).unwrap();
            }
        }
        sink.finish().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), slice);
    }

    #[test]
    fn export_records_drives_the_full_sink_lifecycle() {
        let records = sample_recorder().take();
        let mut buf = Vec::new();
        let mut sink = ChromeSink::new(&mut buf);
        export_records(&mut sink, records.iter().cloned()).unwrap();
        drop(sink);
        assert_eq!(String::from_utf8(buf).unwrap(), chrome_trace(&records));
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "01a",
            "{\"a\":1}extra",
            "nul",
            "1.",
            "[\"\\x\"]",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\":[1,2,{\"b\":\"c\\n\"}],\"d\":true}",
            "\"\\u00e9\"",
        ] {
            assert!(validate_json(good).is_ok(), "rejected: {good}");
        }
    }
}
