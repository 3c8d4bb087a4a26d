//! Capture and replay of observation streams (in the spirit of
//! timely-dataflow's `capture_into` / `replay_from`).
//!
//! A finished [`ObsReport`] serializes to a small versioned binary log so
//! a cluster-sim run can be dumped on one machine and re-rendered offline
//! (trace tree, JSON export) on another. The format is self-contained:
//!
//! ```text
//! magic    8  b"LCCOBS\0\0"
//! version  u32 (currently 1)
//! wall_ns  u64
//! names    u32 count, then per name: u32 len + utf8 bytes
//! counters u32 count, then per counter: u32 name-idx + u64 value
//! gauges   u32 count, then per gauge: u32 name-idx + f64 bits
//! spans    u64 count, then per span:
//!          u32 name-idx, u64 id, u64 parent, u64 start_ns, u64 dur_ns,
//!          u32 thread, i32 rank, u64 epoch
//! ```
//!
//! All integers little-endian, written and read through [`crate::codec`]:
//! a count is checked against the bytes behind it before anything is
//! reserved for it. Span and instrument names are pooled in one table so
//! repeated spans cost 4 bytes of name reference, not a string.

use std::io::{Read, Write};
use std::path::Path;

use crate::codec::{CodecError, Reader, Writer};
use crate::session::ObsReport;
use crate::span::{intern, SpanRecord};

pub const MAGIC: [u8; 8] = *b"LCCOBS\0\0";
pub const VERSION: u32 = 1;

/// Typed errors of the capture/replay layer.
#[derive(Debug)]
pub enum ObsError {
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file ended inside a record.
    Truncated,
    /// Structurally invalid content (bad UTF-8, out-of-range name index…).
    Malformed(String),
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Io(e) => write!(f, "obs capture I/O error: {e}"),
            ObsError::BadMagic => write!(f, "not an obs capture file (bad magic)"),
            ObsError::UnsupportedVersion(v) => {
                write!(f, "obs capture version {v} not supported (max {VERSION})")
            }
            ObsError::Truncated => write!(f, "obs capture truncated"),
            ObsError::Malformed(m) => write!(f, "malformed obs capture: {m}"),
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ObsError {
    fn from(e: std::io::Error) -> Self {
        ObsError::Io(e)
    }
}

impl From<CodecError> for ObsError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { .. } => ObsError::Truncated,
            other => ObsError::Malformed(other.to_string()),
        }
    }
}

/// Bytes of one span record: name index, id, parent, start, duration,
/// thread, rank, epoch.
const SPAN_RECORD: usize = 4 + 8 * 4 + 4 + 4 + 8;

/// Index of `name` in the pool, appending it on first sight.
fn name_idx(pool: &mut Vec<String>, name: &str) -> u32 {
    if let Some(i) = pool.iter().position(|n| n == name) {
        return i as u32;
    }
    pool.push(name.to_string());
    (pool.len() - 1) as u32
}

impl ObsReport {
    /// Serializes the report to the versioned binary capture format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut names: Vec<String> = Vec::new();
        let counter_idx: Vec<u32> = self
            .counters
            .iter()
            .map(|(n, _)| name_idx(&mut names, n))
            .collect();
        let gauge_idx: Vec<u32> = self
            .gauges
            .iter()
            .map(|(n, _)| name_idx(&mut names, n))
            .collect();
        let span_idx: Vec<u32> = self
            .spans
            .iter()
            .map(|s| name_idx(&mut names, s.name))
            .collect();

        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.put_u32(VERSION);
        out.put_u64(self.wall_ns);
        out.put_u32(names.len() as u32);
        for n in &names {
            out.put_u32(n.len() as u32);
            out.extend_from_slice(n.as_bytes());
        }
        out.put_u32(self.counters.len() as u32);
        for (i, (_, v)) in self.counters.iter().enumerate() {
            out.put_u32(counter_idx[i]);
            out.put_u64(*v);
        }
        out.put_u32(self.gauges.len() as u32);
        for (i, (_, v)) in self.gauges.iter().enumerate() {
            out.put_u32(gauge_idx[i]);
            out.put_f64(*v);
        }
        out.put_u64(self.spans.len() as u64);
        for (i, s) in self.spans.iter().enumerate() {
            out.put_u32(span_idx[i]);
            out.put_u64(s.id);
            out.put_u64(s.parent);
            out.put_u64(s.start_ns);
            out.put_u64(s.dur_ns);
            out.put_u32(s.thread);
            out.put_u32(s.rank as u32);
            out.put_u64(s.epoch);
        }
        out
    }

    /// Parses a capture produced by [`to_bytes`](ObsReport::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<ObsReport, ObsError> {
        let mut r = Reader::new(bytes);
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(ObsError::BadMagic);
        }
        let version = r.u32()?;
        if version == 0 || version > VERSION {
            return Err(ObsError::UnsupportedVersion(version));
        }
        let wall_ns = r.u64()?;

        // Each name costs at least its u32 length.
        let n_names = r.u32()? as u64;
        let n_names = r.count(n_names, 4)?;
        let mut names: Vec<&'static str> = Vec::with_capacity(n_names);
        for _ in 0..n_names {
            let len = r.u32()? as usize;
            let raw = r.bytes(len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| ObsError::Malformed("non-UTF-8 name".to_string()))?;
            names.push(intern(s));
        }
        let lookup = |idx: u32| -> Result<&'static str, ObsError> {
            names
                .get(idx as usize)
                .copied()
                .ok_or_else(|| ObsError::Malformed(format!("name index {idx} out of range")))
        };

        let n_counters = r.u32()? as u64;
        let n_counters = r.count(n_counters, 4 + 8)?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let name = lookup(r.u32()?)?;
            counters.push((name.to_string(), r.u64()?));
        }
        let n_gauges = r.u32()? as u64;
        let n_gauges = r.count(n_gauges, 4 + 8)?;
        let mut gauges = Vec::with_capacity(n_gauges);
        for _ in 0..n_gauges {
            let name = lookup(r.u32()?)?;
            gauges.push((name.to_string(), r.f64()?));
        }
        let n_spans = r.u64()?;
        let n_spans = r.count(n_spans, SPAN_RECORD)?;
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            let name = lookup(r.u32()?)?;
            spans.push(SpanRecord {
                name,
                id: r.u64()?,
                parent: r.u64()?,
                start_ns: r.u64()?,
                dur_ns: r.u64()?,
                thread: r.u32()?,
                rank: r.u32()? as i32,
                epoch: r.u64()?,
            });
        }
        Ok(ObsReport {
            spans,
            counters,
            gauges,
            wall_ns,
        })
    }

    /// Dumps the capture to `path` (the `capture_into` half).
    pub fn capture_into(&self, path: &Path) -> Result<(), ObsError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Loads a capture back from `path` (the `replay_from` half).
    pub fn replay_from(path: &Path) -> Result<ObsReport, ObsError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        ObsReport::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        ObsReport {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: intern("convolve"),
                    start_ns: 10,
                    dur_ns: 500,
                    thread: 0,
                    rank: -1,
                    epoch: 0,
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: intern("stage2_pencils"),
                    start_ns: 20,
                    dur_ns: 300,
                    thread: 1,
                    rank: 3,
                    epoch: 2,
                },
            ],
            counters: vec![
                ("comm.bytes_logical".to_string(), 4096),
                ("comm.bytes_physical".to_string(), 5120),
            ],
            gauges: vec![("massif.residual".to_string(), 1.5e-7)],
            wall_ns: 12345,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let report = sample_report();
        let bytes = report.to_bytes();
        let back = ObsReport::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn file_round_trip() {
        let report = sample_report();
        let path = std::env::temp_dir().join(format!("obs_capture_{}.bin", std::process::id()));
        report.capture_into(&path).expect("write");
        let back = ObsReport::replay_from(&path).expect("read");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, report);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            ObsReport::from_bytes(b"NOTANOBS stream"),
            Err(ObsError::BadMagic)
        ));
        let mut bytes = sample_report().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ObsReport::from_bytes(&bytes),
            Err(ObsError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn capture_golden() {
        assert_eq!(
            crate::codec::hex(&sample_report().to_bytes()),
            "4c43434f425300000100000039300000000000000500000012000000636f6d6d\
            2e62797465735f6c6f676963616c13000000636f6d6d2e62797465735f706879\
            736963616c0f0000006d61737369662e726573696475616c08000000636f6e76\
            6f6c76650e0000007374616765325f70656e63696c7302000000000000000010\
            000000000000010000000014000000000000010000000200000076830df4f521\
            843e020000000000000003000000010000000000000000000000000000000a00\
            000000000000f40100000000000000000000ffffffff00000000000000000400\
            00000200000000000000010000000000000014000000000000002c0100000000\
            000001000000030000000200000000000000"
        );
    }

    #[test]
    fn forged_counts_are_truncation_not_an_abort() {
        // Magic, version 1, wall_ns 0, then each count in turn forged to
        // its type's maximum with nothing behind it: the count is checked
        // against the remaining bytes before anything is reserved.
        let mut head = MAGIC.to_vec();
        head.extend_from_slice(&[1, 0, 0, 0]);
        head.extend_from_slice(&[0; 8]);
        let zero = [0u8; 4];
        let u32_max = [0xFF; 4];
        let cases: [Vec<u8>; 4] = [
            [head.as_slice(), &u32_max].concat(),
            [head.as_slice(), &zero, &u32_max].concat(),
            [head.as_slice(), &zero, &zero, &u32_max].concat(),
            [head.as_slice(), &zero, &zero, &zero, &[0xFF; 8]].concat(),
        ];
        assert_eq!(cases[1].len(), 28, "the 28-byte capture of the report");
        for bytes in cases {
            assert!(
                matches!(ObsReport::from_bytes(&bytes), Err(ObsError::Truncated)),
                "{}",
                crate::codec::hex(&bytes)
            );
        }
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample_report().to_bytes();
        for cut in 0..bytes.len() {
            match ObsReport::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {cut} bytes parsed as a full capture"),
            }
        }
    }
}
