//! Function argument/result serialization — the "pickle" equivalent.
//!
//! The Parsl-WorkQueue executor "pickles" function inputs into transferable
//! files and unpickles results on the way back (§III-A). [`PyValue`] is the
//! value model and this module provides a compact, checksummed binary
//! encoding for it.

use crate::error::{PyEnvError, Result};
use bytes::Bytes;
use lfm_telemetry::codec::{
    self, put_bool, put_bytes_u32, put_f64, put_i64, put_u32, put_u8, Reader,
};
use serde::{Deserialize, Serialize};

/// A Python-ish value: what can cross the wire between master and LFM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PyValue {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Vec<u8>),
    List(Vec<PyValue>),
    Tuple(Vec<PyValue>),
    Dict(Vec<(PyValue, PyValue)>),
}

impl PyValue {
    /// Encoded size in bytes (exact — encodes and measures the header-less
    /// body lazily for scalars, so cheap for the common cases).
    pub fn encoded_size(&self) -> usize {
        match self {
            PyValue::None => 1,
            PyValue::Bool(_) => 2,
            PyValue::Int(_) => 9,
            PyValue::Float(_) => 9,
            PyValue::Str(s) => 5 + s.len(),
            PyValue::Bytes(b) => 5 + b.len(),
            PyValue::List(v) | PyValue::Tuple(v) => {
                5 + v.iter().map(PyValue::encoded_size).sum::<usize>()
            }
            PyValue::Dict(pairs) => {
                5 + pairs
                    .iter()
                    .map(|(k, v)| k.encoded_size() + v.encoded_size())
                    .sum::<usize>()
            }
        }
    }

    /// Serialize ("pickle") to bytes.
    pub fn dumps(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_size());
        encode(self, &mut out);
        Bytes::from(out)
    }

    /// Deserialize ("unpickle") from bytes, requiring full consumption.
    pub fn loads(data: &[u8]) -> Result<PyValue> {
        decode_all(data).map_err(|e| PyEnvError::CorruptPickle(e.to_string()))
    }

    /// Convenience accessors used by workload code.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PyValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            PyValue::Float(v) => Some(*v),
            PyValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            PyValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Dict lookup by string key.
    pub fn get(&self, key: &str) -> Option<&PyValue> {
        match self {
            PyValue::Dict(pairs) => pairs
                .iter()
                .find(|(k, _)| matches!(k, PyValue::Str(s) if s == key))
                .map(|(_, v)| v),
            _ => None,
        }
    }
}

const MAX_DEPTH: usize = 200;

const T_NONE: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_FLOAT: u8 = 3;
const T_STR: u8 = 4;
const T_BYTES: u8 = 5;
const T_LIST: u8 = 6;
const T_TUPLE: u8 = 7;
const T_DICT: u8 = 8;

fn encode(v: &PyValue, out: &mut Vec<u8>) {
    match v {
        PyValue::None => put_u8(out, T_NONE),
        PyValue::Bool(b) => {
            put_u8(out, T_BOOL);
            put_bool(out, *b);
        }
        PyValue::Int(i) => {
            put_u8(out, T_INT);
            put_i64(out, *i);
        }
        PyValue::Float(f) => {
            put_u8(out, T_FLOAT);
            put_f64(out, *f);
        }
        PyValue::Str(s) => {
            put_u8(out, T_STR);
            put_bytes_u32(out, s.as_bytes());
        }
        PyValue::Bytes(b) => {
            put_u8(out, T_BYTES);
            put_bytes_u32(out, b);
        }
        PyValue::List(items) => {
            put_u8(out, T_LIST);
            put_u32(out, items.len() as u32);
            for i in items {
                encode(i, out);
            }
        }
        PyValue::Tuple(items) => {
            put_u8(out, T_TUPLE);
            put_u32(out, items.len() as u32);
            for i in items {
                encode(i, out);
            }
        }
        PyValue::Dict(pairs) => {
            put_u8(out, T_DICT);
            put_u32(out, pairs.len() as u32);
            for (k, val) in pairs {
                encode(k, out);
                encode(val, out);
            }
        }
    }
}

/// One value that takes every byte of `data`.
fn decode_all(data: &[u8]) -> codec::Result<PyValue> {
    let r = &mut Reader::new(data);
    let v = decode(r, 0)?;
    if !r.is_empty() {
        return Err(codec::Error::Corrupt {
            at: r.position(),
            what: "trailing bytes",
        });
    }
    Ok(v)
}

/// One value. Every element of a list or tuple takes at least a byte and
/// every dict pair two, so no count allocates more than the bytes left
/// could hold.
fn decode(r: &mut Reader<'_>, depth: usize) -> codec::Result<PyValue> {
    let at = r.position();
    let corrupt = |what| codec::Error::Corrupt { at, what };
    if depth > MAX_DEPTH {
        return Err(corrupt("nesting too deep"));
    }
    Ok(match r.u8()? {
        T_NONE => PyValue::None,
        T_BOOL => PyValue::Bool(r.bool()?),
        T_INT => PyValue::Int(r.i64()?),
        T_FLOAT => PyValue::Float(r.f64()?),
        T_STR => {
            let len = r.u32()?;
            PyValue::Str(r.str(len.into())?.to_owned())
        }
        T_BYTES => {
            let len = r.u32()?;
            PyValue::Bytes(r.bytes(len.into())?.to_vec())
        }
        tag @ (T_LIST | T_TUPLE) => {
            let n = r.u32()?;
            let mut items = Vec::with_capacity(r.count(n.into(), 1)?);
            for _ in 0..n {
                items.push(decode(r, depth + 1)?);
            }
            if tag == T_LIST {
                PyValue::List(items)
            } else {
                PyValue::Tuple(items)
            }
        }
        T_DICT => {
            let n = r.u32()?;
            let mut pairs = Vec::with_capacity(r.count(n.into(), 2)?);
            for _ in 0..n {
                pairs.push((decode(r, depth + 1)?, decode(r, depth + 1)?));
            }
            PyValue::Dict(pairs)
        }
        _ => return Err(corrupt("unknown tag")),
    })
}

/// Build a dict value from string keys.
pub fn dict(pairs: Vec<(&str, PyValue)>) -> PyValue {
    PyValue::Dict(
        pairs
            .into_iter()
            .map(|(k, v)| (PyValue::Str(k.to_string()), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: PyValue) {
        let bytes = v.dumps();
        let back = PyValue::loads(&bytes).unwrap();
        assert_eq!(back, v);
        assert_eq!(bytes.len(), v.encoded_size());
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(PyValue::None);
        roundtrip(PyValue::Bool(true));
        roundtrip(PyValue::Bool(false));
        roundtrip(PyValue::Int(-42));
        roundtrip(PyValue::Int(i64::MAX));
        roundtrip(PyValue::Float(1.5e-7));
        roundtrip(PyValue::Str("SMILES:CCO".into()));
        roundtrip(PyValue::Bytes(vec![0, 1, 2, 255]));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(PyValue::List(vec![
            PyValue::Int(1),
            PyValue::Str("x".into()),
        ]));
        roundtrip(PyValue::Tuple(vec![PyValue::None, PyValue::Bool(true)]));
        roundtrip(dict(vec![
            ("score", PyValue::Float(0.93)),
            ("smiles", PyValue::Str("CCO".into())),
            (
                "features",
                PyValue::List(vec![PyValue::Int(1), PyValue::Int(2)]),
            ),
        ]));
    }

    #[test]
    fn nested_structure() {
        let v = PyValue::Dict(vec![(
            PyValue::Str("events".into()),
            PyValue::List(vec![dict(vec![
                ("muons", PyValue::Int(2)),
                (
                    "pt",
                    PyValue::List(vec![PyValue::Float(31.5), PyValue::Float(12.0)]),
                ),
            ])]),
        )]);
        roundtrip(v);
    }

    #[test]
    fn payload_layout_is_pinned() {
        // Round trips cannot see a layout change made to encoder and decoder
        // together. Every tag; computed before the formats shared one codec.
        let v = PyValue::List(vec![
            PyValue::None,
            PyValue::Bool(true),
            PyValue::Int(-42),
            PyValue::Float(0.1),
            PyValue::Str("μ-pt".into()),
            PyValue::Bytes(vec![0, 1, 255]),
            PyValue::Tuple(vec![PyValue::Int(i64::MIN), PyValue::Bool(false)]),
            dict(vec![
                ("score", PyValue::Float(-0.0)),
                ("empty", PyValue::List(vec![])),
            ]),
        ]);
        let bytes = v.dumps();
        assert_eq!(
            (bytes.len(), crate::pack::fnv1a(&bytes)),
            (99, 0x21ff_13f3_8d20_65b8)
        );
    }

    #[test]
    fn dict_lookup() {
        let v = dict(vec![("a", PyValue::Int(1)), ("b", PyValue::Int(2))]);
        assert_eq!(v.get("b").unwrap().as_int(), Some(2));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = PyValue::Int(7).dumps().to_vec();
        bytes.push(0);
        assert!(PyValue::loads(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = PyValue::Str("hello world".into()).dumps();
        for cut in 0..bytes.len() {
            assert!(PyValue::loads(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            PyValue::loads(&[99]),
            Err(PyEnvError::CorruptPickle(_))
        ));
    }

    #[test]
    fn length_bomb_rejected() {
        // A list claiming 4 billion elements with no payload.
        let mut buf = vec![T_LIST];
        put_u32(&mut buf, u32::MAX);
        assert!(PyValue::loads(&buf).is_err());
    }

    #[test]
    fn as_float_coerces_int() {
        assert_eq!(PyValue::Int(3).as_float(), Some(3.0));
        assert_eq!(PyValue::Str("x".into()).as_float(), None);
    }
}
