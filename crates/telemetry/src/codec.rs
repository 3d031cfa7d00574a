//! The one byte codec under every binary format in the workspace: the
//! master's journal and images, the telemetry wire, the Perfetto exporter,
//! the gateway's image, environment packs and pickled values.
//!
//! Writers append to a `Vec<u8>`: little-endian fixed-width integers, `f64`
//! as its raw bits (an exact round trip), LEB128 varints (with zigzag for
//! signed deltas), and byte strings behind a u32 or u64 length. [`Reader`]
//! is their one bounded inverse. Every read returns the value or an
//! [`Error`] that carries the byte offset where it failed, so truncated or
//! corrupt input is never a panic, and [`Reader::count`] refuses a length
//! prefix that the bytes left could not hold, so no prefix allocates more
//! than its input backs. Each format converts [`Error`] into its own error
//! type; none has bytes-level code of its own.

use std::fmt;

/// Why bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ended inside the value that starts at byte `at` (for a
    /// varint: at the missing byte). More bytes may complete it, which is
    /// why a live tail waits on this one and gives up on any other.
    Truncated { at: usize },
    /// The bytes at `at` cannot be what the format says is there: an
    /// overlong varint, a string that is not UTF-8, or a format's own check.
    Corrupt { at: usize, what: &'static str },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { at } => write!(f, "truncated at byte {at}"),
            Error::Corrupt { at, what } => write!(f, "{what} at byte {at}"),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The raw bits, little-endian: decodes to the identical `f64`, NaN
/// payloads and signed zeros included.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// LEB128: seven bits per byte, low group first, high bit set on every byte
/// but the last. 1 byte below 128, at most 10.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Interleave signs so small magnitudes of either sign make short varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// `bytes` behind their length as a u32.
#[inline]
pub fn put_bytes_u32(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// `bytes` behind their length as a u64.
#[inline]
pub fn put_bytes_u64(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// `n` in decimal, written into the end of `buf`: the digits `format!("{n}")`
/// would build, without building a `String`.
pub fn decimal(n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let (mut n, mut at) = (n, buf.len());
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

/// [`put_bytes_u64`] of `prefix` followed by `n` in decimal.
#[inline]
pub fn put_bytes_u64_decimal(out: &mut Vec<u8>, prefix: &[u8], n: u64) {
    let mut buf = [0; 20];
    let digits = decimal(n, &mut buf);
    put_u64(out, (prefix.len() + digits.len()) as u64);
    out.extend_from_slice(prefix);
    out.extend_from_slice(digits);
}

/// A cursor over encoded bytes. A read that fails leaves it where it was.
///
/// The primitive reads are `#[inline(always)]`: the telemetry decoder calls
/// them once per field, and with a plain `#[inline]` the compiler kept
/// `varint` out of line and that decoder measured about 4 % slower.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Every byte consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    #[inline]
    fn truncated(&self) -> Error {
        Error::Truncated { at: self.pos }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: u64) -> Result<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        let n = usize::try_from(n).ok().filter(|&n| n <= rest.len());
        let n = n.ok_or_else(|| self.truncated())?;
        self.pos += n;
        Ok(&rest[..n])
    }

    /// The next `n` bytes, which must be UTF-8.
    #[inline]
    pub fn str(&mut self, n: u64) -> Result<&'a str> {
        let at = self.pos;
        let s = std::str::from_utf8(self.bytes(n)?);
        s.map_err(|_| {
            self.pos = at;
            Error::Corrupt {
                at,
                what: "string is not UTF-8",
            }
        })
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let word = self.buf[self.pos..].first_chunk::<N>();
        let word = *word.ok_or_else(|| self.truncated())?;
        self.pos += N;
        Ok(word)
    }

    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(b)
    }

    /// A byte; anything but zero reads as `true`.
    #[inline(always)]
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    #[inline(always)]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline(always)]
    pub fn i32(&mut self) -> Result<i32> {
        self.array().map(i32::from_le_bytes)
    }

    #[inline(always)]
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    #[inline(always)]
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A LEB128 varint. One whose tenth byte carries bits past 64 is
    /// [`Error::Corrupt`]; one that runs out of input is truncated at the
    /// missing byte.
    #[inline(always)]
    pub fn varint(&mut self) -> Result<u64> {
        let start = self.pos;
        let mut out = 0;
        // A fixed trip count, so the loop unrolls.
        for i in 0..10 {
            let Some(&b) = self.buf.get(start + i) else {
                return Err(Error::Truncated { at: start + i });
            };
            if i == 9 && b > 1 {
                break;
            }
            out |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.pos = start + i + 1;
                return Ok(out);
            }
        }
        Err(Error::Corrupt {
            at: start,
            what: "varint overflow",
        })
    }

    /// `n`, a count of entries of at least `each` bytes apiece, if the bytes
    /// left can hold that many — the guard before anything is allocated for
    /// them. Truncated otherwise: more input could still back it.
    #[inline]
    pub fn count(&self, n: u64, each: usize) -> Result<usize> {
        let left = self.buf.len() - self.pos;
        let n = usize::try_from(n).ok();
        n.filter(|&n| n.checked_mul(each).is_some_and(|b| b <= left))
            .ok_or_else(|| self.truncated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_names_are_the_formatted_ones() {
        for n in [0, 7, 10, 99, 100, 123_456_789, u64::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string().as_bytes());
            let (mut built, mut formatted) = (Vec::new(), Vec::new());
            put_bytes_u64_decimal(&mut built, b"req-", n);
            put_bytes_u64(&mut formatted, format!("req-{n}").as_bytes());
            assert_eq!(built, formatted);
        }
    }

    #[test]
    fn fixed_width_and_strings_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xab);
        put_bool(&mut out, true);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_i32(&mut out, -7);
        put_i64(&mut out, i64::MIN);
        put_f64(&mut out, -0.0);
        put_bytes_u32(&mut out, "μs".as_bytes());
        put_bytes_u64(&mut out, &[1, 2, 3]);
        assert_eq!(out.len(), 1 + 1 + 4 + 8 + 4 + 8 + 8 + (4 + 3) + (8 + 3));
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(0xab));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i32(), Ok(-7));
        assert_eq!(r.i64(), Ok(i64::MIN));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        let n = r.u32().unwrap();
        assert_eq!(r.str(n.into()), Ok("μs"));
        let n = r.u64().unwrap();
        assert_eq!(r.bytes(n), Ok(&[1u8, 2, 3][..]));
        assert!(r.is_empty());
        assert_eq!(r.u8(), Err(Error::Truncated { at: out.len() }));
    }

    #[test]
    fn varints_round_trip_and_refuse_overflow() {
        for v in [0, 1, 127, 128, 300, 1 << 35, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(
                out.len(),
                (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
            );
            assert_eq!(Reader::new(&out).varint(), Ok(v));
        }
        for v in [0, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        // Ten bytes whose last carries bits past 64.
        let mut over = vec![0xff; 9];
        over.push(0x02);
        let mut r = Reader::new(&over);
        let corrupt = Error::Corrupt {
            at: 0,
            what: "varint overflow",
        };
        assert_eq!(r.varint(), Err(corrupt));
        assert_eq!(r.position(), 0, "a failed read does not advance");
        // Out of input at the missing byte.
        assert_eq!(
            Reader::new(&[0x80, 0x80]).varint(),
            Err(Error::Truncated { at: 2 })
        );
    }

    #[test]
    fn every_short_read_is_truncated_where_it_starts() {
        let mut out = vec![0x11];
        put_u64(&mut out, 7);
        for cut in 1..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert_eq!(r.u8(), Ok(0x11));
            assert_eq!(r.u64(), Err(Error::Truncated { at: 1 }));
            assert_eq!(r.position(), 1);
        }
        let mut r = Reader::new(&[0xff, 0xfe]);
        assert_eq!(r.bytes(u64::MAX), Err(Error::Truncated { at: 0 }));
        assert_eq!(
            r.str(2),
            Err(Error::Corrupt {
                at: 0,
                what: "string is not UTF-8"
            })
        );
    }

    #[test]
    fn count_refuses_what_the_bytes_cannot_hold() {
        let r = Reader::new(&[0; 12]);
        assert_eq!(r.count(12, 1), Ok(12));
        assert_eq!(r.count(3, 4), Ok(3));
        assert_eq!(r.count(4, 4), Err(Error::Truncated { at: 0 }));
        assert_eq!(r.count(u64::MAX, 2), Err(Error::Truncated { at: 0 }));
    }
}
