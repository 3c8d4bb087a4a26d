//! The one little-endian codec: every byte format in the workspace reads
//! through [`Reader`] and writes through [`Writer`], and this is the only
//! module that touches byte order (`lcc-lint`'s `le-bytes` rule keeps it
//! so). DESIGN.md §5p lists the formats built on it.
//!
//! A [`Reader`] is total: every read past the end, every count too large
//! for the bytes behind it, and every trailing byte where a layout is exact
//! comes back as [`CodecError::Truncated`] — never a panic, and never an
//! allocation larger than the input.

/// Typed decode failure, shared by every format. Every malformed input
/// maps to exactly one variant; none of them panic or allocate
/// proportionally to corrupt length fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input was `len` bytes where the layout required `expected`
    /// (minimum for truncation, exact for fixed-length layouts, the element
    /// size for a payload that is not a whole number of elements).
    Truncated { len: usize, expected: usize },
    /// The first two bytes were not the format's magic.
    BadMagic { got: [u8; 2] },
    /// Unknown format version.
    BadVersion { got: u8 },
    /// Unknown message kind byte.
    BadKind { got: u8 },
    /// An enum-like field held an unknown discriminant.
    BadEnum { field: &'static str, got: u64 },
    /// Two fields contradict each other (e.g. a dense sample count that is
    /// not `n³`, or a delta coordinate outside the grid).
    Inconsistent {
        field: &'static str,
        got: u64,
        want: u64,
    },
    /// A count field implies a field larger than the format's bound.
    Oversize { cells: u64, max: u64 },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { len, expected } => {
                write!(
                    f,
                    "undecodable input of {len} bytes (layout requires {expected})"
                )
            }
            CodecError::BadMagic { got } => {
                write!(f, "bad magic {:#04x}{:02x}", got[0], got[1])
            }
            CodecError::BadVersion { got } => write!(f, "unknown format version {got}"),
            CodecError::BadKind { got } => write!(f, "unknown message kind {got:#04x}"),
            CodecError::BadEnum { field, got } => {
                write!(f, "unknown {field} discriminant {got}")
            }
            CodecError::Inconsistent { field, got, want } => {
                write!(f, "inconsistent {field}: got {got}, layout requires {want}")
            }
            CodecError::Oversize { cells, max } => {
                write!(f, "field of {cells} cells exceeds the {max}-cell bound")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked little-endian cursor over an input slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The unread bytes, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Fails unless at least `n` more bytes remain, so a fixed header is
    /// rejected as a whole rather than at whichever field it cuts.
    pub fn need(&self, n: usize) -> Result<(), CodecError> {
        if n > self.rest().len() {
            return Err(CodecError::Truncated {
                len: self.buf.len(),
                expected: self.pos.saturating_add(n),
            });
        }
        Ok(())
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array().map(f64::from_le_bytes)
    }

    /// `count` as a capacity: it fails unless `count` records of at least
    /// `record` bytes each fit in the unread input, so a forged count can
    /// never reserve more than the input could fill.
    pub fn count(&self, count: u64, record: usize) -> Result<usize, CodecError> {
        self.need(usize::try_from(count).map_or(usize::MAX, |c| c.saturating_mul(record)))?;
        Ok(count as usize)
    }

    /// The next `count` f64s, decoded in one pass.
    pub fn f64s(&mut self, count: usize) -> Result<Vec<f64>, CodecError> {
        let raw = self.bytes(count.saturating_mul(8))?;
        let word = |c: &[u8]| f64::from_le_bytes(c.try_into().unwrap_or([0; 8]));
        Ok(raw.chunks_exact(8).map(word).collect())
    }

    /// Ends an exact layout: trailing bytes are an error.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Truncated {
                len: self.buf.len(),
                expected: self.pos,
            });
        }
        Ok(())
    }
}

/// Little-endian appends to a caller's buffer, so an encoder that reuses
/// one buffer stays allocation-free.
pub trait Writer {
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_f64(&mut self, v: f64);
    fn put_f64s(&mut self, vs: &[f64]);
}

impl Writer for Vec<u8> {
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64s(&mut self, vs: &[f64]) {
        self.reserve(vs.len() * 8);
        for v in vs {
            self.extend_from_slice(&v.to_le_bytes());
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_step(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a_step(FNV_OFFSET, bytes)
}

/// FNV-1a 64 over the little-endian bytes of `words`, without building
/// them: `fnv1a64_u64s(ws)` equals [`fnv1a64`] of the words' encoding.
pub fn fnv1a64_u64s(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv1a_step(h, &w.to_le_bytes()))
}

/// Lower-case hex of `bytes` (byte goldens and diagnostics).
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let words = [1.0f64.to_bits(), 2.0f64.to_bits()];
        assert_eq!(fnv1a64_u64s(words), 0x2f121cea1c5c97f8);
        let mut bytes = Vec::new();
        bytes.put_f64s(&[1.0, 2.0]);
        assert_eq!(fnv1a64(&bytes), 0x2f121cea1c5c97f8);
    }

    #[test]
    fn writer_and_reader_agree_byte_for_byte() {
        let mut out = Vec::new();
        out.push(0xab);
        out.put_u16(0x1234);
        out.put_u32(0xdead_beef);
        out.put_u64(0x0102_0304_0506_0708);
        out.put_f64(-1.5);
        out.put_f64s(&[0.5, 2.0]);
        assert_eq!(
            hex(&out),
            "ab3412efbeadde0807060504030201000000000000f8bf000000000000e03f0000000000000040"
        );
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(0xab));
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.f64(), Ok(-1.5));
        assert_eq!(r.f64s(2), Ok(vec![0.5, 2.0]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_reads_name_the_layout_they_needed() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(
            r.u32(),
            Err(CodecError::Truncated {
                len: 3,
                expected: 5
            })
        );
        assert_eq!(r.rest(), &[2, 3], "a failed read consumes nothing");
        assert_eq!(
            r.clone().finish(),
            Err(CodecError::Truncated {
                len: 3,
                expected: 1
            })
        );
        assert_eq!(r.bytes(2), Ok(&[2u8, 3][..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn forged_counts_never_reserve_past_the_input() {
        let r = Reader::new(&[0u8; 16]);
        assert_eq!(r.count(2, 8), Ok(2));
        assert_eq!(
            r.count(3, 8),
            Err(CodecError::Truncated {
                len: 16,
                expected: 24
            })
        );
        for forged in [u32::MAX as u64, u64::MAX] {
            assert!(r.count(forged, 1).is_err());
            assert!(r.clone().f64s(forged as usize).is_err());
        }
        assert_eq!(
            r.clone().bytes(usize::MAX),
            Err(CodecError::Truncated {
                len: 16,
                expected: usize::MAX
            })
        );
    }
}
