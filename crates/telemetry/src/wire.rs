//! The compact binary record protocol and its streaming decoder.
//!
//! Every emission encodes into a handful of bytes appended to the emitting
//! thread's shard ring buffer: a tag byte (record kind + presence flags),
//! varint-packed u64 fields, interned-string ids ([`Name`]) for every
//! name/category/attr key, and delta-coded timestamps. The old hot path
//! heap-allocated two `String`s and a ~150-byte enum per record; this one
//! writes ~6–30 bytes with zero allocation.
//!
//! ## Record layout
//!
//! ```text
//! tag: u8      bits 0..3 = kind   (0 Span, 1 Instant, 2 Counter,
//!                                  3 CounterAt, 4 Gauge, 5 Observe)
//!              bit 3 TIME_RAW     timestamps as raw f64 bits, not varint µs
//!              bit 4 HAS_TASK     span/instant carries a task id; for
//!                                 metrics the same bit is HAS_AT
//!                                 (a simulated timestamp follows)
//!              bit 5 HAS_ATTEMPT  span/instant carries an attempt number
//!              bit 6 HAS_ATTRS    span/instant carries an attr list
//!              bit 7 VAL_RAW      metric value as raw f64 bits
//! seq:   varint  delta vs. the previous record in the same shard
//!                (strictly increasing: the global counter is read under
//!                the shard lock, so within a shard deltas never go back)
//! name:  varint  interned id; spans/instants follow with cat: varint
//! time:  spans   zigzag(start_µs − shard.last_µs) + varint(duration_µs),
//!                or 16 raw LE f64 bytes when TIME_RAW
//!        instants / timed metrics
//!                zigzag(at_µs − shard.last_µs), or 8 raw f64 bytes
//! rest:  spans   track varint, depth varint, [task], [attempt], [attrs]
//!        instants track varint, [task], [attempt], [attrs]
//!        counters delta varint;  gauges/observations value (varint u64
//!                fast path for integral values, raw f64 otherwise)
//! attrs: count varint, then per attr varint(key_id << 2 | vtag) with
//!        vtag 0 = u64 varint, 1 = f64 raw, 2 = interned str id varint,
//!        3 = integral f64 as varint
//! ```
//!
//! Timestamps use the µs fast path only when `(µs as f64) / 1e6` exactly
//! reproduces the original `f64` seconds — the decoder therefore
//! reconstructs bit-identical floats and the exporters stay byte-identical
//! with the old heap-record pipeline. Non-µs-representable times (and wall
//! clock spans) fall back to raw f64 bits, flagged per record.
//!
//! One decoder reads it back. [`ShardDecoder`] decodes a record into a
//! [`WireRecord`]: the record at the id level, names as [`Name`]s and attrs
//! in the encoder's own inline list, so decoding allocates nothing below
//! nine attrs. Checking an id takes no lock: the decoder accepts an id
//! below the intern table's length (an atomic), and an id never interned
//! is [`DecodeError::BadName`]. [`WireRecord::to_record`] is the one place
//! a string is built from the wire: it resolves the record into an owned
//! [`Record`], which is what the decoder's iterator and the recorder's
//! `take`/`snapshot`/`drain_since`/`finish_tail` hand out. The k-way merge
//! of the per-shard streams on `seq` lives in [`crate::tail::TailMerger`],
//! the recorder's one reader. Decoding is fully bounds-checked: truncated
//! or corrupt input yields [`DecodeError`], never a panic, and a count
//! prefix is checked against the bytes left before anything is read for
//! it ([`Reader::count`]).

use crate::codec::{self, put_f64, put_u8, put_varint, unzigzag, zigzag, Reader};
use crate::intern::{with_strs, Name};
use crate::record::{AttrValue, InstantRecord, MetricKind, MetricRecord, Record, SpanRecord};

pub(crate) const KIND_SPAN: u8 = 0;
pub(crate) const KIND_INSTANT: u8 = 1;
pub(crate) const KIND_COUNTER: u8 = 2;
pub(crate) const KIND_COUNTER_AT: u8 = 3;
pub(crate) const KIND_GAUGE: u8 = 4;
pub(crate) const KIND_OBSERVE: u8 = 5;
const KIND_MASK: u8 = 0b111;

pub(crate) const FLAG_TIME_RAW: u8 = 1 << 3;
pub(crate) const FLAG_TASK: u8 = 1 << 4;
/// Shared bit: metric records never carry task ids, so the task bit
/// doubles as "a timestamp follows".
pub(crate) const FLAG_AT: u8 = FLAG_TASK;
pub(crate) const FLAG_ATTEMPT: u8 = 1 << 5;
pub(crate) const FLAG_ATTRS: u8 = 1 << 6;
pub(crate) const FLAG_VAL_RAW: u8 = 1 << 7;

/// Attr value as carried on the wire: already interned, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireVal {
    U64(u64),
    F64(f64),
    Str(Name),
}

/// Public wrapper accepted by the builder `attr` methods; mirrors the
/// `From` conversions [`AttrValue`] offers, but interns strings instead of
/// boxing them.
#[derive(Debug, Clone, Copy)]
pub struct AttrVal(pub(crate) WireVal);

impl From<u64> for AttrVal {
    fn from(v: u64) -> Self {
        AttrVal(WireVal::U64(v))
    }
}

impl From<f64> for AttrVal {
    fn from(v: f64) -> Self {
        AttrVal(WireVal::F64(v))
    }
}

impl From<&str> for AttrVal {
    fn from(v: &str) -> Self {
        AttrVal(WireVal::Str(Name::intern(v)))
    }
}

impl From<String> for AttrVal {
    fn from(v: String) -> Self {
        AttrVal(WireVal::Str(Name::intern(&v)))
    }
}

impl From<Name> for AttrVal {
    fn from(v: Name) -> Self {
        AttrVal(WireVal::Str(v))
    }
}

/// Attrs inline up to the workspace maximum (the widest emitter, the
/// `exec` span, carries 7); the rare overflow spills to the heap rather
/// than silently dropping.
const INLINE_ATTRS: usize = 8;

#[derive(Debug, Clone)]
pub(crate) struct AttrList {
    len: u8,
    inline: [(Name, WireVal); INLINE_ATTRS],
    spill: Vec<(Name, WireVal)>,
}

impl Default for AttrList {
    fn default() -> Self {
        AttrList {
            len: 0,
            inline: [(Name(0), WireVal::U64(0)); INLINE_ATTRS],
            spill: Vec::new(),
        }
    }
}

impl AttrList {
    pub(crate) fn push(&mut self, key: Name, val: WireVal) {
        if (self.len as usize) < INLINE_ATTRS {
            self.inline[self.len as usize] = (key, val);
            self.len += 1;
        } else {
            self.spill.push((key, val));
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empty, keeping the spill's allocation for the next record.
    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    fn count(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &(Name, WireVal)> {
        self.inline[..self.len as usize].iter().chain(&self.spill)
    }
}

/// A span waiting to be encoded (held by the builder, on the stack).
#[derive(Debug, Default)]
pub(crate) struct PendingSpan {
    pub name: Name,
    pub cat: Name,
    pub start_secs: f64,
    pub end_secs: f64,
    pub track: u64,
    pub depth: u32,
    pub task: Option<u64>,
    pub attempt: Option<u32>,
    pub attrs: AttrList,
}

/// An instant waiting to be encoded.
#[derive(Debug, Default)]
pub(crate) struct PendingInstant {
    pub name: Name,
    pub cat: Name,
    pub at_secs: f64,
    pub track: u64,
    pub task: Option<u64>,
    pub attempt: Option<u32>,
    pub attrs: AttrList,
}

/// Per-shard codec state: both ends of the wire track it identically, so
/// it never travels. Never reset: a shard's encoder and the reader's
/// decoder for it both carry it across reads.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CodecState {
    last_seq: u64,
    last_us: u64,
}

/// `Some(µs)` iff dividing back by 1e6 reproduces `secs` bit-exactly —
/// the condition under which the varint time path is lossless.
#[inline]
fn as_exact_micros(secs: f64) -> Option<u64> {
    if secs < 0.0 || secs.is_nan() {
        return None;
    }
    let us = (secs * 1e6).round();
    if us >= 9_007_199_254_740_992.0 {
        return None; // beyond 2^53: u64→f64 no longer exact
    }
    let u = us as u64;
    if (u as f64) / 1e6 == secs {
        Some(u)
    } else {
        None
    }
}

/// `Some(n)` iff `n as f64` reproduces `v` bit-exactly (integral fast
/// path for gauge/observation values).
#[inline]
fn as_exact_u64(v: f64) -> Option<u64> {
    if v.is_nan() || !(0.0..9_007_199_254_740_992.0).contains(&v) {
        return None;
    }
    let u = v as u64;
    if u as f64 == v {
        Some(u)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------

fn put_attrs(buf: &mut Vec<u8>, attrs: &AttrList) {
    put_varint(buf, attrs.count() as u64);
    for (key, val) in attrs.iter() {
        match val {
            WireVal::U64(v) => {
                put_varint(buf, (key.0 as u64) << 2);
                put_varint(buf, *v);
            }
            WireVal::F64(v) => {
                if let Some(u) = as_exact_u64(*v) {
                    put_varint(buf, (key.0 as u64) << 2 | 3);
                    put_varint(buf, u);
                } else {
                    put_varint(buf, (key.0 as u64) << 2 | 1);
                    put_f64(buf, *v);
                }
            }
            WireVal::Str(id) => {
                put_varint(buf, (key.0 as u64) << 2 | 2);
                put_varint(buf, id.0 as u64);
            }
        }
    }
}

fn put_seq(buf: &mut Vec<u8>, st: &mut CodecState, seq: u64) {
    debug_assert!(seq >= st.last_seq || st.last_seq == 0);
    put_varint(buf, seq.wrapping_sub(st.last_seq));
    st.last_seq = seq;
}

/// Encode one span into a shard buffer.
pub(crate) fn encode_span(buf: &mut Vec<u8>, st: &mut CodecState, seq: u64, s: &PendingSpan) {
    let mut tag = KIND_SPAN;
    let times = match (as_exact_micros(s.start_secs), as_exact_micros(s.end_secs)) {
        (Some(a), Some(b)) if b >= a => Some((a, b)),
        _ => None,
    };
    if times.is_none() {
        tag |= FLAG_TIME_RAW;
    }
    if s.task.is_some() {
        tag |= FLAG_TASK;
    }
    if s.attempt.is_some() {
        tag |= FLAG_ATTEMPT;
    }
    if !s.attrs.is_empty() {
        tag |= FLAG_ATTRS;
    }
    put_u8(buf, tag);
    put_seq(buf, st, seq);
    put_varint(buf, s.name.0 as u64);
    put_varint(buf, s.cat.0 as u64);
    match times {
        Some((start_us, end_us)) => {
            put_varint(buf, zigzag(start_us as i64 - st.last_us as i64));
            put_varint(buf, end_us - start_us);
            st.last_us = start_us;
        }
        None => {
            put_f64(buf, s.start_secs);
            put_f64(buf, s.end_secs);
        }
    }
    put_varint(buf, s.track);
    put_varint(buf, s.depth as u64);
    if let Some(t) = s.task {
        put_varint(buf, t);
    }
    if let Some(a) = s.attempt {
        put_varint(buf, a as u64);
    }
    if !s.attrs.is_empty() {
        put_attrs(buf, &s.attrs);
    }
}

/// Encode one instant into a shard buffer.
pub(crate) fn encode_instant(buf: &mut Vec<u8>, st: &mut CodecState, seq: u64, i: &PendingInstant) {
    let mut tag = KIND_INSTANT;
    let at = as_exact_micros(i.at_secs);
    if at.is_none() {
        tag |= FLAG_TIME_RAW;
    }
    if i.task.is_some() {
        tag |= FLAG_TASK;
    }
    if i.attempt.is_some() {
        tag |= FLAG_ATTEMPT;
    }
    if !i.attrs.is_empty() {
        tag |= FLAG_ATTRS;
    }
    put_u8(buf, tag);
    put_seq(buf, st, seq);
    put_varint(buf, i.name.0 as u64);
    put_varint(buf, i.cat.0 as u64);
    match at {
        Some(us) => {
            put_varint(buf, zigzag(us as i64 - st.last_us as i64));
            st.last_us = us;
        }
        None => put_f64(buf, i.at_secs),
    }
    put_varint(buf, i.track);
    if let Some(t) = i.task {
        put_varint(buf, t);
    }
    if let Some(a) = i.attempt {
        put_varint(buf, a as u64);
    }
    if !i.attrs.is_empty() {
        put_attrs(buf, &i.attrs);
    }
}

/// Encode one metric sample (counter / gauge / observation).
pub(crate) fn encode_metric(
    buf: &mut Vec<u8>,
    st: &mut CodecState,
    seq: u64,
    name: Name,
    kind: MetricKind,
    value: f64,
    at_secs: Option<f64>,
) {
    let mut tag = match (kind, at_secs.is_some()) {
        (MetricKind::Counter, false) => KIND_COUNTER,
        (MetricKind::Counter, true) => KIND_COUNTER_AT,
        (MetricKind::Gauge, _) => KIND_GAUGE,
        (MetricKind::Histogram, _) => KIND_OBSERVE,
    };
    let at = at_secs.and_then(as_exact_micros);
    if at_secs.is_some() {
        tag |= FLAG_AT;
        if at.is_none() {
            tag |= FLAG_TIME_RAW;
        }
    }
    let value_packed = match as_exact_u64(value) {
        Some(_) => true,
        None => {
            tag |= FLAG_VAL_RAW;
            false
        }
    };
    put_u8(buf, tag);
    put_seq(buf, st, seq);
    put_varint(buf, name.0 as u64);
    if let Some(secs) = at_secs {
        match at {
            Some(us) => {
                put_varint(buf, zigzag(us as i64 - st.last_us as i64));
                st.last_us = us;
            }
            None => put_f64(buf, secs),
        }
    }
    if value_packed {
        put_varint(buf, value as u64);
    } else {
        put_f64(buf, value);
    }
}

// ---------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------

/// Why a shard's byte stream stopped decoding. Never a panic: a truncated
/// final record (e.g. a crash mid-append, or a fuzzer chop) surfaces here
/// and the already-decoded prefix stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The record runs past the input (`Truncated`: a live tail waits for
    /// more bytes), or a field holds an impossible value (`Corrupt`: an
    /// oversized varint, a time below zero, ...).
    Codec(codec::Error),
    /// An undefined record kind.
    BadTag { at: usize, tag: u8 },
    /// A string id that was never interned in this process.
    BadName { at: usize, id: u64 },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Codec(e) => write!(f, "record {e}"),
            DecodeError::BadTag { at, tag } => write!(f, "bad record tag {tag:#x} at byte {at}"),
            DecodeError::BadName { at, id } => write!(f, "unknown string id {id} at byte {at}"),
        }
    }
}

impl DecodeError {
    /// The same error `by` bytes further into the stream: a reader that
    /// decodes a suffix reports offsets from the stream's start.
    pub(crate) fn shifted(self, by: usize) -> Self {
        match self {
            DecodeError::Codec(codec::Error::Truncated { at }) => {
                DecodeError::Codec(codec::Error::Truncated { at: at + by })
            }
            DecodeError::Codec(codec::Error::Corrupt { at, what }) => {
                DecodeError::Codec(codec::Error::Corrupt { at: at + by, what })
            }
            DecodeError::BadTag { at, tag } => DecodeError::BadTag { at: at + by, tag },
            DecodeError::BadName { at, id } => DecodeError::BadName { at: at + by, id },
        }
    }
}

impl From<codec::Error> for DecodeError {
    fn from(e: codec::Error) -> Self {
        DecodeError::Codec(e)
    }
}

/// Which record a [`WireRecord`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum WireKind {
    #[default]
    Span,
    Instant,
    Metric(MetricKind),
}

/// One decoded record at the id level: names, categories and attr keys
/// are [`Name`]s and the attrs sit inline, so decoding one touches the
/// heap only past the eighth attr. [`WireRecord::to_record`] resolves it
/// into an owned [`Record`]; the recorder's visitor reads
/// ([`crate::Recorder::drain_with`]) hand these out as they are.
#[derive(Debug, Clone, Default)]
pub struct WireRecord {
    pub(crate) seq: u64,
    pub(crate) kind: WireKind,
    pub(crate) name: Name,
    /// Spans and instants only.
    pub(crate) cat: Name,
    /// A span's start, an instant's time or a metric's timestamp; `None`
    /// only for an untimed metric.
    pub(crate) at_secs: Option<f64>,
    /// A span's end.
    pub(crate) end_secs: f64,
    /// A metric's value.
    pub(crate) value: f64,
    pub(crate) track: u64,
    pub(crate) depth: u32,
    pub(crate) task: Option<u64>,
    pub(crate) attempt: Option<u32>,
    pub(crate) attrs: AttrList,
}

impl WireRecord {
    /// The record's global sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The owned record: every name resolved, under one lock of the
    /// intern table. The only place a `String` is built from the wire.
    pub fn to_record(&self) -> Record {
        with_strs(|strs| {
            let s = |name: Name| strs[name.0 as usize].to_string();
            let attrs = || {
                let value = |v| match v {
                    WireVal::U64(v) => AttrValue::U64(v),
                    WireVal::F64(v) => AttrValue::F64(v),
                    WireVal::Str(id) => AttrValue::Str(s(id)),
                };
                self.attrs.iter().map(|&(k, v)| (s(k), value(v))).collect()
            };
            let at_secs = self.at_secs.unwrap_or_default();
            match self.kind {
                WireKind::Span => Record::Span(SpanRecord {
                    seq: self.seq,
                    name: s(self.name),
                    cat: s(self.cat),
                    start_secs: at_secs,
                    end_secs: self.end_secs,
                    track: self.track,
                    depth: self.depth,
                    task: self.task,
                    attempt: self.attempt,
                    attrs: attrs(),
                }),
                WireKind::Instant => Record::Instant(InstantRecord {
                    seq: self.seq,
                    name: s(self.name),
                    cat: s(self.cat),
                    at_secs,
                    track: self.track,
                    task: self.task,
                    attempt: self.attempt,
                    attrs: attrs(),
                }),
                WireKind::Metric(kind) => Record::Metric(MetricRecord {
                    seq: self.seq,
                    name: s(self.name),
                    kind,
                    value: self.value,
                    at_secs: self.at_secs,
                }),
            }
        })
    }
}

/// Streaming decoder over one shard's bytes. Yields records in shard
/// (= seq) order; stops at the first error, which [`Iterator::next`]
/// reports once and then fuses.
pub struct ShardDecoder<'a> {
    r: Reader<'a>,
    st: CodecState,
    failed: bool,
}

impl<'a> ShardDecoder<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::with_state(bytes, CodecState::default())
    }

    /// A decoder that starts from an explicit codec state instead of the
    /// default. This is what makes mid-stream resumption possible: a read
    /// hands the reader a byte chunk whose first record was delta-coded
    /// against the *previous* chunk's final state, so the reader resumes
    /// with the state it saved rather than re-decoding the prefix.
    pub(crate) fn with_state(bytes: &'a [u8], st: CodecState) -> Self {
        ShardDecoder {
            r: Reader::new(bytes),
            st,
            failed: false,
        }
    }

    /// Bytes consumed so far (diagnostics).
    pub fn position(&self) -> usize {
        self.r.position()
    }

    /// The codec state after the last successfully decoded record — save
    /// it and pass to [`ShardDecoder::with_state`] to resume decoding a
    /// later chunk of the same shard stream.
    pub(crate) fn state(&self) -> CodecState {
        self.st
    }

    /// A name id, which must have been interned in this process.
    fn get_name(&mut self) -> Result<Name, DecodeError> {
        let at = self.r.position();
        let id = self.r.varint()?;
        Name::known(id).ok_or(DecodeError::BadName { at, id })
    }

    /// A timestamp: varint µs delta against shard state, or raw f64.
    fn get_time(&mut self, raw: bool) -> Result<f64, DecodeError> {
        if raw {
            return Ok(self.r.f64()?);
        }
        let at = self.r.position();
        let delta = unzigzag(self.r.varint()?);
        let us = (self.st.last_us as i64)
            .checked_add(delta)
            .ok_or(codec::Error::Corrupt {
                at,
                what: "time delta overflow",
            })?;
        if us < 0 {
            return Err(codec::Error::Corrupt {
                at,
                what: "negative time",
            }
            .into());
        }
        self.st.last_us = us as u64;
        Ok(us as f64 / 1e6)
    }

    /// An attr list into `attrs`. The count is checked against the bytes
    /// left (an attr takes at least two) before any is read.
    fn get_attrs(&mut self, attrs: &mut AttrList) -> Result<(), DecodeError> {
        let n = self.r.varint()?;
        let n = self.r.count(n, 2)?;
        for _ in 0..n {
            let at = self.r.position();
            let packed = self.r.varint()?;
            let key = Name::known(packed >> 2).ok_or(DecodeError::BadName {
                at,
                id: packed >> 2,
            })?;
            let value = match packed & 3 {
                0 => WireVal::U64(self.r.varint()?),
                1 => WireVal::F64(self.r.f64()?),
                2 => WireVal::Str(self.get_name()?),
                _ => WireVal::F64(self.r.varint()? as f64),
            };
            attrs.push(key, value);
        }
        Ok(())
    }

    /// A span's or an instant's task, attempt and attrs, as its tag flags.
    fn get_ids(&mut self, tag: u8, rec: &mut WireRecord) -> Result<(), DecodeError> {
        rec.task = (tag & FLAG_TASK != 0)
            .then(|| self.r.varint())
            .transpose()?;
        rec.attempt = (tag & FLAG_ATTEMPT != 0)
            .then(|| self.r.varint().map(|v| v as u32))
            .transpose()?;
        rec.attrs.clear();
        if tag & FLAG_ATTRS != 0 {
            self.get_attrs(&mut rec.attrs)?;
        }
        Ok(())
    }

    /// Decode the next record into `rec`, reusing its attr spill. On an
    /// error `rec` and this decoder's state hold a partial record: a
    /// reader that retries with more bytes resumes from the state it saved
    /// before the attempt.
    pub(crate) fn decode_into(&mut self, rec: &mut WireRecord) -> Result<(), DecodeError> {
        let at = self.r.position();
        let tag = self.r.u8()?;
        let kind = tag & KIND_MASK;
        let raw_time = tag & FLAG_TIME_RAW != 0;
        rec.seq = self.st.last_seq.wrapping_add(self.r.varint()?);
        self.st.last_seq = rec.seq;
        match kind {
            KIND_SPAN => {
                rec.kind = WireKind::Span;
                rec.name = self.get_name()?;
                rec.cat = self.get_name()?;
                let (start_secs, end_secs) = if raw_time {
                    (self.r.f64()?, self.r.f64()?)
                } else {
                    let start = self.get_time(false)?;
                    let dur_us = self.r.varint()?;
                    let end_us =
                        self.st
                            .last_us
                            .checked_add(dur_us)
                            .ok_or(codec::Error::Corrupt {
                                at,
                                what: "duration overflow",
                            })?;
                    (start, end_us as f64 / 1e6)
                };
                rec.at_secs = Some(start_secs);
                rec.end_secs = end_secs;
                rec.track = self.r.varint()?;
                rec.depth = self.r.varint()? as u32;
                self.get_ids(tag, rec)
            }
            KIND_INSTANT => {
                rec.kind = WireKind::Instant;
                rec.name = self.get_name()?;
                rec.cat = self.get_name()?;
                rec.at_secs = Some(self.get_time(raw_time)?);
                rec.track = self.r.varint()?;
                self.get_ids(tag, rec)
            }
            KIND_COUNTER | KIND_COUNTER_AT | KIND_GAUGE | KIND_OBSERVE => {
                rec.kind = WireKind::Metric(match kind {
                    KIND_COUNTER | KIND_COUNTER_AT => MetricKind::Counter,
                    KIND_GAUGE => MetricKind::Gauge,
                    _ => MetricKind::Histogram,
                });
                rec.name = self.get_name()?;
                rec.at_secs = if tag & FLAG_AT != 0 {
                    Some(self.get_time(raw_time)?)
                } else {
                    None
                };
                rec.value = if tag & FLAG_VAL_RAW != 0 {
                    self.r.f64()?
                } else {
                    self.r.varint()? as f64
                };
                Ok(())
            }
            _ => Err(DecodeError::BadTag { at, tag }),
        }
    }
}

impl Iterator for ShardDecoder<'_> {
    type Item = Result<Record, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.r.is_empty() {
            return None;
        }
        let mut rec = WireRecord::default();
        match self.decode_into(&mut rec) {
            Ok(()) => Some(Ok(rec.to_record())),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, start: f64, end: f64) -> (Vec<u8>, Record) {
        let mut buf = Vec::new();
        let mut st = CodecState::default();
        let pending = PendingSpan {
            name: Name::intern("wire.test.span"),
            cat: Name::intern("wire.test"),
            start_secs: start,
            end_secs: end,
            track: 3,
            depth: 1,
            task: Some(42),
            attempt: Some(2),
            attrs: {
                let mut a = AttrList::default();
                a.push(Name::intern("polls"), WireVal::U64(7));
                a.push(Name::intern("peak"), WireVal::F64(1.25));
                a.push(Name::intern("status"), WireVal::Str(Name::intern("ok")));
                a
            },
        };
        encode_span(&mut buf, &mut st, seq, &pending);
        let want = Record::Span(SpanRecord {
            seq,
            name: "wire.test.span".into(),
            cat: "wire.test".into(),
            start_secs: start,
            end_secs: end,
            track: 3,
            depth: 1,
            task: Some(42),
            attempt: Some(2),
            attrs: vec![
                ("polls".into(), AttrValue::U64(7)),
                ("peak".into(), AttrValue::F64(1.25)),
                ("status".into(), AttrValue::Str("ok".into())),
            ],
        });
        (buf, want)
    }

    #[test]
    fn span_round_trips_exactly() {
        for (start, end) in [
            (0.0, 0.0),
            (1.0, 3.5),
            (0.1, 0.30000000000000004),
            (12.000000000000002, 17.999999999999996),
            (1e9, 1e9 + 0.5),
        ] {
            let (buf, want) = span(5, start, end);
            let got: Vec<_> = ShardDecoder::new(&buf).collect::<Result<_, _>>().unwrap();
            assert_eq!(got, vec![want], "times {start}..{end}");
        }
    }

    #[test]
    fn metrics_round_trip_exactly() {
        let mut buf = Vec::new();
        let mut st = CodecState::default();
        let name = Name::intern("wire.test.metric");
        encode_metric(&mut buf, &mut st, 0, name, MetricKind::Counter, 3.0, None);
        encode_metric(
            &mut buf,
            &mut st,
            1,
            name,
            MetricKind::Counter,
            1.0,
            Some(2.5),
        );
        encode_metric(
            &mut buf,
            &mut st,
            2,
            name,
            MetricKind::Gauge,
            17.0,
            Some(2.75),
        );
        encode_metric(
            &mut buf,
            &mut st,
            3,
            name,
            MetricKind::Gauge,
            0.336,
            Some(3.0000000000000004),
        );
        encode_metric(
            &mut buf,
            &mut st,
            9,
            name,
            MetricKind::Histogram,
            123.456,
            None,
        );
        let got: Vec<_> = ShardDecoder::new(&buf).collect::<Result<_, _>>().unwrap();
        let values: Vec<(u64, f64, Option<f64>)> = got
            .iter()
            .map(|r| match r {
                Record::Metric(m) => (m.seq, m.value, m.at_secs),
                _ => panic!("expected metric"),
            })
            .collect();
        assert_eq!(
            values,
            vec![
                (0, 3.0, None),
                (1, 1.0, Some(2.5)),
                (2, 17.0, Some(2.75)),
                (3, 0.336, Some(3.0000000000000004)),
                (9, 123.456, None),
            ]
        );
    }

    #[test]
    fn record_layout_is_pinned() {
        // Round trips cannot see a layout change made to encoder and decoder
        // together. Every record kind, on the varint and the raw-f64 time
        // paths, with fixed name ids (encoding never resolves them). The
        // constants were computed before the formats shared one codec.
        let fnv = |bytes: &[u8]| {
            (bytes.iter()).fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let attrs = || {
            let mut a = AttrList::default();
            a.push(Name(7), WireVal::U64(300));
            a.push(Name(8), WireVal::F64(0.1));
            a.push(Name(9), WireVal::F64(4.0));
            a.push(Name(10), WireVal::Str(Name(11)));
            a
        };
        let raw = 0.1 + 0.2; // not a whole number of µs: the raw-f64 path
        let mut buf = Vec::new();
        let mut st = CodecState::default();
        let mut seq = 0;
        let mut next = || {
            seq += 3;
            seq
        };
        for (start_secs, end_secs) in [(1.5, 2.25), (0.75, 0.75), (raw, 2.0)] {
            let span = PendingSpan {
                name: Name(1),
                cat: Name(2),
                start_secs,
                end_secs,
                track: 3,
                depth: 1,
                task: Some(1 << 40),
                attempt: Some(2),
                attrs: attrs(),
            };
            encode_span(&mut buf, &mut st, next(), &span);
        }
        for (at_secs, task) in [(3.0, None), (raw, Some(9))] {
            let instant = PendingInstant {
                name: Name(4),
                cat: Name(2),
                at_secs,
                track: 129,
                task,
                attempt: task.map(|_| 1),
                attrs: if task.is_some() {
                    attrs()
                } else {
                    AttrList::default()
                },
            };
            encode_instant(&mut buf, &mut st, next(), &instant);
        }
        for (kind, value, at) in [
            (MetricKind::Counter, 5.0, None),
            (MetricKind::Counter, 1.0, Some(2.5)),
            (MetricKind::Counter, 1.0, Some(raw)),
            (MetricKind::Gauge, 17.0, Some(2.75)),
            (MetricKind::Gauge, 0.336, Some(raw)),
            (MetricKind::Histogram, 9.0, None),
            (MetricKind::Histogram, -123.456, None),
        ] {
            encode_metric(&mut buf, &mut st, next(), Name(5), kind, value, at);
        }
        assert_eq!((buf.len(), fnv(&buf)), (224, 0x3be6_d9f0_a0a0_5cdf));
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let (buf, _) = span(0, 1.0, 2.0);
        for cut in 0..buf.len() {
            let mut dec = ShardDecoder::new(&buf[..cut]);
            match dec.next() {
                None => assert_eq!(cut, 0, "only the empty prefix yields nothing"),
                Some(Err(_)) => {}
                Some(Ok(r)) => panic!("decoded {r:?} from a {cut}-byte prefix"),
            }
            assert!(dec.next().is_none(), "decoder fuses after an error");
        }
    }

    #[test]
    fn corrupt_tag_and_name_error_cleanly() {
        // Undefined kind 7.
        let mut dec = ShardDecoder::new(&[0x07, 0x00]);
        assert!(matches!(dec.next(), Some(Err(DecodeError::BadTag { .. }))));
        // Counter with an id far past anything interned.
        let mut buf = vec![KIND_COUNTER, 0x00];
        put_varint(&mut buf, u32::MAX as u64 - 1);
        put_varint(&mut buf, 1);
        let mut dec = ShardDecoder::new(&buf);
        assert!(matches!(dec.next(), Some(Err(DecodeError::BadName { .. }))));
    }
}
