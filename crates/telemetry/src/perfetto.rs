//! Perfetto binary trace exporter (+ structural validator).
//!
//! Emits the subset of the Perfetto `Trace` protobuf that the Perfetto UI
//! and `trace_processor` need to display our streams natively — hand-rolled
//! field-by-field (the dependency set has no protobuf crate), which is
//! fine because the schema surface we touch is small and stable:
//!
//! ```text
//! Trace            { repeated TracePacket packet = 1; }
//! TracePacket      { timestamp = 8 (ns), trusted_packet_sequence_id = 10,
//!                    track_event = 11, track_descriptor = 60 }
//! TrackDescriptor  { uuid = 1, name = 2, process = 3, parent_uuid = 5,
//!                    counter = 8 (marks a counter track) }
//! ProcessDescriptor{ pid = 1, process_name = 6 }
//! TrackEvent       { debug_annotations = 4, type = 9, track_uuid = 11,
//!                    categories = 22, name = 23,
//!                    counter_value = 30, double_counter_value = 44 }
//! DebugAnnotation  { uint_value = 3, double_value = 5, string_value = 6,
//!                    name = 10 }
//! ```
//!
//! Mapping from our [`Record`] stream:
//!
//! * Every sim track id becomes a child `TrackDescriptor` under one
//!   process track ("lfm-sim"); descriptors are emitted before any event
//!   that references them.
//! * Spans become `SLICE_BEGIN`/`SLICE_END` pairs (Perfetto's track
//!   events are stateful, unlike Chrome's complete `"X"` events), with
//!   task/attempt/attrs as debug annotations on the begin event. Packets
//!   are ordered so nesting reconstructs correctly: at equal timestamps,
//!   ends of earlier slices close first (innermost — shortest — first),
//!   then begins open outermost-first, and zero-duration slices emit
//!   their end immediately after their begin.
//! * Timed counters/gauges become counter tracks; counters plot running
//!   totals exactly like the Chrome exporter. Integral values use the
//!   varint `counter_value`, everything else `double_counter_value`.
//! * Untimed metric samples have no Perfetto timeline representation and
//!   are skipped here — their aggregates already ship in the Chrome
//!   trace's `otherData` and the JSONL dump.
//!
//! [`validate_trace`] is the in-repo structural checker the round-trip
//! tests use: a generic wiretype walker that verifies the packet framing,
//! that every `track_uuid` was declared by a descriptor packet first, and
//! that slice begin/end depth stays balanced per track.

use crate::export::TraceSink;
use crate::record::{AttrValue, MetricKind, Record};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

const NANOS: f64 = 1e9;

// TracePacket field numbers.
const PKT_TIMESTAMP: u64 = 8;
const PKT_SEQUENCE_ID: u64 = 10;
const PKT_TRACK_EVENT: u64 = 11;
const PKT_TRACK_DESCRIPTOR: u64 = 60;

// TrackDescriptor / ProcessDescriptor field numbers.
const TDESC_UUID: u64 = 1;
const TDESC_NAME: u64 = 2;
const TDESC_PROCESS: u64 = 3;
const TDESC_PARENT_UUID: u64 = 5;
const TDESC_COUNTER: u64 = 8;
const PDESC_PID: u64 = 1;
const PDESC_NAME: u64 = 6;

// TrackEvent field numbers and event types.
const TEV_DEBUG_ANNOTATION: u64 = 4;
const TEV_TYPE: u64 = 9;
const TEV_TRACK_UUID: u64 = 11;
const TEV_CATEGORY: u64 = 22;
const TEV_NAME: u64 = 23;
const TEV_COUNTER_VALUE: u64 = 30;
const TEV_DOUBLE_COUNTER_VALUE: u64 = 44;
const TYPE_SLICE_BEGIN: u64 = 1;
const TYPE_SLICE_END: u64 = 2;
const TYPE_INSTANT: u64 = 3;
const TYPE_COUNTER: u64 = 4;

// DebugAnnotation field numbers.
const ANN_UINT: u64 = 3;
const ANN_DOUBLE: u64 = 5;
const ANN_STRING: u64 = 6;
const ANN_NAME: u64 = 10;

const PROCESS_UUID: u64 = 1;
const SEQUENCE_ID: u64 = 1;

// -------------------------------------------------------------------
// protobuf writer primitives
// -------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_tag(buf: &mut Vec<u8>, field: u64, wire_type: u64) {
    put_varint(buf, field << 3 | wire_type);
}

fn put_varint_field(buf: &mut Vec<u8>, field: u64, v: u64) {
    put_tag(buf, field, 0);
    put_varint(buf, v);
}

fn put_double_field(buf: &mut Vec<u8>, field: u64, v: f64) {
    put_tag(buf, field, 1);
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_len_field(buf: &mut Vec<u8>, field: u64, bytes: &[u8]) {
    put_tag(buf, field, 2);
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

fn put_str_field(buf: &mut Vec<u8>, field: u64, s: &str) {
    put_len_field(buf, field, s.as_bytes());
}

// -------------------------------------------------------------------
// export
// -------------------------------------------------------------------

fn annotation(name: &str, value: &AttrValue) -> Vec<u8> {
    let mut a = Vec::with_capacity(name.len() + 12);
    match value {
        AttrValue::U64(v) => put_varint_field(&mut a, ANN_UINT, *v),
        AttrValue::F64(v) => put_double_field(&mut a, ANN_DOUBLE, *v),
        AttrValue::Str(v) => put_str_field(&mut a, ANN_STRING, v),
    }
    put_str_field(&mut a, ANN_NAME, name);
    a
}

fn ns(secs: f64) -> u64 {
    (secs * NANOS).round().max(0.0) as u64
}

/// One fully-encoded TracePacket plus its sort key; packets at equal
/// timestamps order as: ends of earlier slices (innermost first), then
/// begins (outermost first, zero-duration ends riding just behind their
/// begin), then instants, then counter samples. `idx` (emission order)
/// breaks remaining ties deterministically.
struct Packet {
    key: (u64, u8, u64, usize, u8),
    bytes: Vec<u8>,
}

fn packet(ts: Option<u64>, event: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(event.len() + 12);
    if let Some(ts) = ts {
        put_varint_field(&mut p, PKT_TIMESTAMP, ts);
    }
    put_varint_field(&mut p, PKT_SEQUENCE_ID, SEQUENCE_ID);
    put_len_field(&mut p, PKT_TRACK_EVENT, event);
    p
}

fn descriptor_packet(desc: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(desc.len() + 8);
    put_varint_field(&mut p, PKT_SEQUENCE_ID, SEQUENCE_ID);
    put_len_field(&mut p, PKT_TRACK_DESCRIPTOR, desc);
    p
}

/// The process track every lane and counter track hangs under.
fn process_packet() -> Vec<u8> {
    let mut process = Vec::new();
    put_varint_field(&mut process, PDESC_PID, 1);
    put_str_field(&mut process, PDESC_NAME, "lfm-sim");
    let mut desc = Vec::new();
    put_varint_field(&mut desc, TDESC_UUID, PROCESS_UUID);
    put_str_field(&mut desc, TDESC_NAME, "lfm-sim");
    put_len_field(&mut desc, TDESC_PROCESS, &process);
    descriptor_packet(&desc)
}

/// What one record becomes on the timeline: packets with their timestamps
/// in ns.
enum Events {
    /// A span's `SLICE_BEGIN` (carrying its annotations) and `SLICE_END`.
    Slice {
        start: u64,
        end: u64,
        begin: Vec<u8>,
        close: Vec<u8>,
    },
    Instant(u64, Vec<u8>),
    Counter(u64, Vec<u8>),
    /// An untimed metric: aggregates only, no timeline.
    Untimed,
}

/// The per-record encoder both exporters share: track uuids by first
/// appearance (sim track ids and counter names drawing from one sequence),
/// and each counter track's running total.
struct Encoder {
    lanes: BTreeMap<u64, u64>,
    /// Counter name → (uuid, running total).
    counters: BTreeMap<String, (u64, f64)>,
    next_uuid: u64,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            lanes: BTreeMap::new(),
            counters: BTreeMap::new(),
            next_uuid: PROCESS_UUID + 1,
        }
    }

    /// A fresh uuid for a track named `name`, its descriptor packet pushed
    /// onto `declared`.
    fn declare(&mut self, name: &str, counter: bool, declared: &mut Vec<Vec<u8>>) -> u64 {
        let uuid = self.next_uuid;
        self.next_uuid += 1;
        let mut desc = Vec::new();
        put_varint_field(&mut desc, TDESC_UUID, uuid);
        put_str_field(&mut desc, TDESC_NAME, name);
        put_varint_field(&mut desc, TDESC_PARENT_UUID, PROCESS_UUID);
        if counter {
            put_len_field(&mut desc, TDESC_COUNTER, &[]); // presence marks the track type
        }
        declared.push(descriptor_packet(&desc));
        uuid
    }

    fn lane(&mut self, lane: u64, declared: &mut Vec<Vec<u8>>) -> u64 {
        if let Some(&uuid) = self.lanes.get(&lane) {
            return uuid;
        }
        let uuid = self.declare(&format!("track-{lane}"), false, declared);
        self.lanes.insert(lane, uuid);
        uuid
    }

    fn counter(&mut self, name: &str, declared: &mut Vec<Vec<u8>>) -> &mut (u64, f64) {
        if !self.counters.contains_key(name) {
            let uuid = self.declare(name, true, declared);
            self.counters.insert(name.to_string(), (uuid, 0.0));
        }
        self.counters.get_mut(name).expect("declared above")
    }

    /// Encode `record`, pushing a descriptor packet onto `declared` for
    /// each track it is the first to name.
    fn encode(&mut self, record: &Record, declared: &mut Vec<Vec<u8>>) -> Events {
        match record {
            Record::Span(s) => {
                let uuid = self.lane(s.track, declared);
                let (start, end) = (ns(s.start_secs), ns(s.end_secs));
                let mut begin = annotations(&s.attrs, s.task, s.attempt);
                put_varint_field(&mut begin, TEV_TYPE, TYPE_SLICE_BEGIN);
                put_varint_field(&mut begin, TEV_TRACK_UUID, uuid);
                put_str_field(&mut begin, TEV_CATEGORY, &s.cat);
                put_str_field(&mut begin, TEV_NAME, &s.name);
                let mut close = Vec::new();
                put_varint_field(&mut close, TEV_TYPE, TYPE_SLICE_END);
                put_varint_field(&mut close, TEV_TRACK_UUID, uuid);
                Events::Slice {
                    start,
                    end,
                    begin: packet(Some(start), &begin),
                    close: packet(Some(end), &close),
                }
            }
            Record::Instant(i) => {
                let uuid = self.lane(i.track, declared);
                let at = ns(i.at_secs);
                let mut ev = annotations(&i.attrs, i.task, i.attempt);
                put_varint_field(&mut ev, TEV_TYPE, TYPE_INSTANT);
                put_varint_field(&mut ev, TEV_TRACK_UUID, uuid);
                put_str_field(&mut ev, TEV_CATEGORY, &i.cat);
                put_str_field(&mut ev, TEV_NAME, &i.name);
                Events::Instant(at, packet(Some(at), &ev))
            }
            Record::Metric(m) => {
                let Some(at_secs) = m.at_secs else {
                    return Events::Untimed;
                };
                let (uuid, total) = self.counter(&m.name, declared);
                let uuid = *uuid;
                let at = ns(at_secs);
                // Counters plot running totals, like the Chrome exporter.
                let value = match m.kind {
                    MetricKind::Counter => {
                        *total += m.value;
                        *total
                    }
                    _ => m.value,
                };
                let mut ev = Vec::new();
                put_varint_field(&mut ev, TEV_TYPE, TYPE_COUNTER);
                put_varint_field(&mut ev, TEV_TRACK_UUID, uuid);
                if (0.0..9_007_199_254_740_992.0).contains(&value) && (value as u64) as f64 == value
                {
                    put_varint_field(&mut ev, TEV_COUNTER_VALUE, value as u64);
                } else {
                    put_double_field(&mut ev, TEV_DOUBLE_COUNTER_VALUE, value);
                }
                Events::Counter(at, packet(Some(at), &ev))
            }
        }
    }
}

/// A track event's debug annotations: the record's attrs, then its task and
/// attempt ids.
fn annotations(attrs: &[(String, AttrValue)], task: Option<u64>, attempt: Option<u32>) -> Vec<u8> {
    let mut ev = Vec::new();
    for (k, v) in attrs {
        put_len_field(&mut ev, TEV_DEBUG_ANNOTATION, &annotation(k, v));
    }
    for (k, id) in [("task", task), ("attempt", attempt.map(u64::from))] {
        if let Some(id) = id {
            let a = annotation(k, &AttrValue::U64(id));
            put_len_field(&mut ev, TEV_DEBUG_ANNOTATION, &a);
        }
    }
    ev
}

/// Render a record stream as a binary Perfetto trace: every track
/// descriptor first, then the events in nesting-stable time order.
pub fn perfetto_trace(records: &[Record]) -> Vec<u8> {
    let mut enc = Encoder::new();
    let mut declared = vec![process_packet()];
    let mut packets: Vec<Packet> = Vec::with_capacity(records.len() * 2);
    for (idx, record) in records.iter().enumerate() {
        match enc.encode(record, &mut declared) {
            Events::Slice {
                start,
                end,
                begin,
                close,
            } => {
                let dur = end.saturating_sub(start);
                // Begins open outermost (longest) first; ends close
                // innermost (shortest) first. A zero-duration slice keeps
                // its end glued right after its begin (same rank/idx,
                // sub-order 1) so track depth never dips negative.
                packets.push(Packet {
                    key: (start, 1, u64::MAX - dur, idx, 0),
                    bytes: begin,
                });
                packets.push(Packet {
                    key: if dur == 0 {
                        (end, 1, u64::MAX, idx, 1)
                    } else {
                        (end, 0, dur, idx, 0)
                    },
                    bytes: close,
                });
            }
            Events::Instant(at, bytes) => packets.push(Packet {
                key: (at, 2, 0, idx, 0),
                bytes,
            }),
            Events::Counter(at, bytes) => packets.push(Packet {
                key: (at, 3, 0, idx, 0),
                bytes,
            }),
            Events::Untimed => {}
        }
    }
    packets.sort_by_key(|p| p.key);
    let mut out = Vec::with_capacity(records.len() * 24 + 64);
    for bytes in declared.iter().chain(packets.iter().map(|p| &p.bytes)) {
        put_len_field(&mut out, 1, bytes);
    }
    out
}

/// Write the Perfetto trace for `records` to `path` (legacy slice shim
/// over [`PerfettoSink`]).
pub fn write_perfetto_trace(path: &Path, records: &[Record]) -> std::io::Result<()> {
    let f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut sink = PerfettoSink::new(f);
    crate::export::export_records(&mut sink, records.iter().cloned())
}

/// Buffered Perfetto sink: collects the whole stream and renders it with
/// [`perfetto_trace`] at `finish` — **byte-identical** to the slice path.
/// Perfetto's nesting-stable packet order is a global sort over all
/// events, so exact byte parity requires seeing the full stream; memory
/// therefore grows with it. For live streaming with bounded memory use
/// [`PerfettoStreamSink`].
pub struct PerfettoSink<W: Write> {
    w: W,
    records: Vec<Record>,
}

impl<W: Write> PerfettoSink<W> {
    pub fn new(w: W) -> Self {
        PerfettoSink {
            w,
            records: Vec::new(),
        }
    }
}

impl<W: Write> TraceSink for PerfettoSink<W> {
    fn begin(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn record(&mut self, record: &Record) -> std::io::Result<()> {
        self.records.push(record.clone());
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.w.write_all(&perfetto_trace(&self.records))?;
        self.w.flush()
    }

    fn buffered_records(&self) -> usize {
        self.records.len()
    }
}

/// Incremental Perfetto sink with bounded memory: packets are written as
/// records arrive, descriptors lazily the moment a track is first
/// referenced (always before the event that needs them), and each span's
/// `SLICE_END` rides immediately behind its `SLICE_BEGIN` so per-track
/// depth stays balanced no matter where the stream stops. State is one
/// uuid per distinct track/counter name plus one running total per
/// counter — independent of run length.
///
/// The price of streaming is packet order: packets appear in record
/// order, not the globally time-sorted, nesting-stable order
/// [`perfetto_trace`] produces, so the bytes differ from the buffered
/// path (Perfetto's trace_processor sorts on load; [`validate_trace`]
/// passes either way). Where byte-stable golden output matters, use
/// [`PerfettoSink`].
pub struct PerfettoStreamSink<W: Write> {
    w: W,
    enc: Encoder,
}

impl<W: Write> PerfettoStreamSink<W> {
    pub fn new(w: W) -> Self {
        PerfettoStreamSink {
            w,
            enc: Encoder::new(),
        }
    }

    /// Tracks declared so far (memory-bound diagnostics).
    pub fn tracks_declared(&self) -> usize {
        self.enc.lanes.len() + self.enc.counters.len()
    }

    fn write_packet(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(bytes.len() + 4);
        put_len_field(&mut framed, 1, bytes);
        self.w.write_all(&framed)
    }
}

impl<W: Write> TraceSink for PerfettoStreamSink<W> {
    fn begin(&mut self) -> std::io::Result<()> {
        self.write_packet(&process_packet())
    }

    fn record(&mut self, record: &Record) -> std::io::Result<()> {
        let mut declared = Vec::new();
        let events = self.enc.encode(record, &mut declared);
        for desc in &declared {
            self.write_packet(desc)?;
        }
        match events {
            Events::Slice { begin, close, .. } => {
                self.write_packet(&begin)?;
                self.write_packet(&close)
            }
            Events::Instant(_, ev) | Events::Counter(_, ev) => self.write_packet(&ev),
            Events::Untimed => Ok(()),
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

// -------------------------------------------------------------------
// structural validation
// -------------------------------------------------------------------

/// What [`validate_trace`] counted while walking a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    pub packets: usize,
    pub tracks: usize,
    pub slices: usize,
    pub instants: usize,
    pub counter_samples: usize,
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn done(&self) -> bool {
        self.pos >= self.b.len()
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .b
                .get(self.pos)
                .ok_or_else(|| format!("varint truncated at byte {}", self.pos))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(format!("varint too long at byte {}", self.pos));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    fn skip(&mut self, n: usize) -> Result<(), String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("field truncated at byte {}", self.pos))?;
        self.pos = end;
        Ok(())
    }

    fn len_delimited(&mut self) -> Result<&'a [u8], String> {
        let n = self.varint()? as usize;
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("length-delimited field truncated at byte {}", self.pos))?;
        let out = &self.b[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one field tag and its payload; returns `(field, varint value
    /// if wiretype 0, bytes if wiretype 2)`.
    #[allow(clippy::type_complexity)]
    fn field(&mut self) -> Result<(u64, Option<u64>, Option<&'a [u8]>), String> {
        let key = self.varint()?;
        let field = key >> 3;
        match key & 7 {
            0 => Ok((field, Some(self.varint()?), None)),
            1 => {
                self.skip(8)?;
                Ok((field, None, None))
            }
            2 => {
                let bytes = self.len_delimited()?;
                Ok((field, None, Some(bytes)))
            }
            5 => {
                self.skip(4)?;
                Ok((field, None, None))
            }
            wt => Err(format!("unsupported wire type {wt} at byte {}", self.pos)),
        }
    }
}

/// Structurally validate a Perfetto trace produced by [`perfetto_trace`]
/// (or anything schema-compatible): correct protobuf framing with every
/// byte consumed, every `track_uuid` declared by a preceding descriptor,
/// and slice begin/end balanced per track (depth never negative, zero at
/// the end). Returns counts for round-trip assertions.
pub fn validate_trace(bytes: &[u8]) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut known_tracks: BTreeMap<u64, i64> = BTreeMap::new(); // uuid → open slice depth
    let mut r = Reader { b: bytes, pos: 0 };
    while !r.done() {
        let (field, _, payload) = r.field()?;
        if field != 1 {
            return Err(format!("unexpected top-level field {field}"));
        }
        let payload = payload.ok_or("packet must be length-delimited")?;
        stats.packets += 1;
        let mut pkt = Reader { b: payload, pos: 0 };
        while !pkt.done() {
            let (field, value, bytes) = pkt.field()?;
            match field {
                PKT_TIMESTAMP | PKT_SEQUENCE_ID => {
                    value.ok_or("timestamp/sequence id must be varint")?;
                }
                PKT_TRACK_DESCRIPTOR => {
                    let mut desc = Reader {
                        b: bytes.ok_or("track descriptor must be a message")?,
                        pos: 0,
                    };
                    let mut uuid = None;
                    while !desc.done() {
                        let (f, v, _) = desc.field()?;
                        if f == TDESC_UUID {
                            uuid = Some(v.ok_or("uuid must be varint")?);
                        }
                    }
                    let uuid = uuid.ok_or("track descriptor without uuid")?;
                    if known_tracks.insert(uuid, 0).is_some() {
                        return Err(format!("duplicate descriptor for track {uuid}"));
                    }
                    stats.tracks += 1;
                }
                PKT_TRACK_EVENT => {
                    let mut ev = Reader {
                        b: bytes.ok_or("track event must be a message")?,
                        pos: 0,
                    };
                    let (mut ev_type, mut uuid) = (None, None);
                    while !ev.done() {
                        let (f, v, _) = ev.field()?;
                        match f {
                            TEV_TYPE => ev_type = Some(v.ok_or("event type must be varint")?),
                            TEV_TRACK_UUID => uuid = Some(v.ok_or("track uuid must be varint")?),
                            _ => {}
                        }
                    }
                    let uuid = uuid.ok_or("track event without track_uuid")?;
                    let depth = known_tracks
                        .get_mut(&uuid)
                        .ok_or_else(|| format!("event references undeclared track {uuid}"))?;
                    match ev_type.ok_or("track event without type")? {
                        TYPE_SLICE_BEGIN => {
                            *depth += 1;
                            stats.slices += 1;
                        }
                        TYPE_SLICE_END => {
                            *depth -= 1;
                            if *depth < 0 {
                                return Err(format!("slice end underflow on track {uuid}"));
                            }
                        }
                        TYPE_INSTANT => stats.instants += 1,
                        TYPE_COUNTER => stats.counter_samples += 1,
                        t => return Err(format!("unknown track event type {t}")),
                    }
                }
                _ => {}
            }
        }
    }
    for (uuid, depth) in &known_tracks {
        if *depth != 0 {
            return Err(format!("track {uuid} ends with {depth} unclosed slices"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use lfm_simcluster::time::SimTime;

    #[test]
    fn exported_trace_validates_with_expected_counts() {
        let r = Recorder::enabled();
        r.span("outer", "sim")
            .at(SimTime::from_secs(1.0), SimTime::from_secs(4.0))
            .track(2)
            .attr("k", 7u64)
            .emit();
        r.span("inner", "sim")
            .at(SimTime::from_secs(2.0), SimTime::from_secs(3.0))
            .track(2)
            .task(5)
            .emit();
        r.instant("kill", "sim")
            .at(SimTime::from_secs(3.0))
            .track(2)
            .emit();
        r.counter_at("done", 1, SimTime::from_secs(3.0));
        r.counter_at("done", 1, SimTime::from_secs(4.0));
        r.gauge("pending", 2.5, SimTime::from_secs(2.0));
        r.counter("untimed", 9); // aggregates only: skipped on the timeline
        let trace = perfetto_trace(&r.take());
        let stats = validate_trace(&trace).expect("trace must validate");
        assert_eq!(stats.tracks, 4, "process + lane + 2 counter tracks");
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counter_samples, 3);
    }

    #[test]
    fn zero_duration_and_shared_timestamps_keep_depth_balanced() {
        let r = Recorder::enabled();
        // Outer span, inner span ending at the same instant, and a
        // zero-duration span at that same timestamp.
        r.span("outer", "sim")
            .at(SimTime::from_secs(1.0), SimTime::from_secs(2.0))
            .emit();
        r.span("inner", "sim")
            .at(SimTime::from_secs(1.5), SimTime::from_secs(2.0))
            .emit();
        r.span("blip", "sim")
            .at(SimTime::from_secs(2.0), SimTime::from_secs(2.0))
            .emit();
        let trace = perfetto_trace(&r.take());
        let stats = validate_trace(&trace).expect("nesting must stay balanced");
        assert_eq!(stats.slices, 3);
    }

    #[test]
    fn truncated_and_corrupt_traces_are_rejected() {
        let r = Recorder::enabled();
        r.counter_at("c", 1, SimTime::from_secs(1.0));
        let trace = perfetto_trace(&r.take());
        assert!(validate_trace(&trace[..trace.len() - 1]).is_err());
        // An event referencing a track no descriptor declared.
        let mut ev = Vec::new();
        put_varint_field(&mut ev, TEV_TYPE, TYPE_INSTANT);
        put_varint_field(&mut ev, TEV_TRACK_UUID, 99);
        let mut bogus = Vec::new();
        put_len_field(&mut bogus, 1, &packet(Some(5), &ev));
        assert!(validate_trace(&bogus)
            .unwrap_err()
            .contains("undeclared track"));
    }

    #[test]
    fn empty_stream_is_a_valid_single_descriptor_trace() {
        let stats = validate_trace(&perfetto_trace(&[])).unwrap();
        assert_eq!(stats.tracks, 1, "just the process track");
        assert_eq!(stats.slices + stats.instants + stats.counter_samples, 0);
    }

    fn busy_recorder() -> Recorder {
        let r = Recorder::enabled();
        for i in 0..50u64 {
            let t = i as f64;
            r.span("step", "sim")
                .at(SimTime::from_secs(t), SimTime::from_secs(t + 0.5))
                .track(i % 3)
                .task(i)
                .attr("i", i)
                .emit();
            r.counter_at("done", 1, SimTime::from_secs(t + 0.5));
            r.gauge("depth", (i % 7) as f64, SimTime::from_secs(t));
        }
        r.instant("mark", "sim").at(SimTime::from_secs(9.0)).emit();
        r.counter("untimed", 3);
        r
    }

    #[test]
    fn buffered_sink_is_byte_identical_to_slice_export() {
        let records = busy_recorder().take();
        let slice = perfetto_trace(&records);
        let mut buf = Vec::new();
        let mut sink = PerfettoSink::new(&mut buf);
        crate::export::export_records(&mut sink, records.iter().cloned()).unwrap();
        assert_eq!(sink.buffered_records(), records.len());
        drop(sink);
        assert_eq!(buf, slice);
    }

    #[test]
    fn slice_and_stream_bytes_are_pinned() {
        // Length and FNV-1a of both exporters' output, computed before they
        // shared one per-record encoder.
        let fnv = |bytes: &[u8]| {
            (bytes.iter()).fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let records = busy_recorder().take();
        let slice = perfetto_trace(&records);
        assert_eq!((slice.len(), fnv(&slice)), (5213, 0xfff1_327c_3bb9_3002));
        let mut stream = Vec::new();
        let mut sink = PerfettoStreamSink::new(&mut stream);
        crate::export::export_records(&mut sink, records.iter().cloned()).unwrap();
        drop(sink);
        assert_eq!((stream.len(), fnv(&stream)), (5213, 0x2170_6bab_ee18_133e));
    }

    #[test]
    fn stream_sink_validates_with_matching_counts_and_bounded_state() {
        let records = busy_recorder().take();
        let slice_stats = validate_trace(&perfetto_trace(&records)).unwrap();
        let mut buf = Vec::new();
        let mut sink = PerfettoStreamSink::new(&mut buf);
        sink.begin().unwrap();
        for r in &records {
            sink.record(r).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(sink.buffered_records(), 0, "stream sink holds no records");
        // 3 lanes + 2 counter tracks, no matter how many records flowed.
        assert_eq!(sink.tracks_declared(), 5);
        drop(sink);
        let stats = validate_trace(&buf).expect("streamed trace must validate");
        assert_eq!(stats.tracks, slice_stats.tracks);
        assert_eq!(stats.slices, slice_stats.slices);
        assert_eq!(stats.instants, slice_stats.instants);
        assert_eq!(stats.counter_samples, slice_stats.counter_samples);
    }
}
