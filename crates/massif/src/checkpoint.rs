//! Versioned, checksummed fixed-point solver checkpoints.
//!
//! The basic scheme's iterate is a pure function of the strain field —
//! stress is recomputed as `σ = C(x) : ε` on resume — so a snapshot of
//! `(strain, residual history)` restores a killed run *bit-identically*:
//! the resumed trajectory matches an uninterrupted one to the last ULP.
//!
//! On-disk layout (all integers and floats little-endian):
//!
//! ```text
//! magic "LCCMCKPT" | version u32 | n u64 | iteration u64 | nres u64
//! residuals  f64 × nres
//! strain     f64 × 6n³        (Voigt component-major: xx yy zz yz xz xy)
//! checksum   FNV-1a 64 over everything above
//! ```
//!
//! [`write`] is atomic (tmp file + rename), so a crash mid-write leaves
//! the previous checkpoint intact; [`load`] refuses anything with a bad
//! magic, unknown version, wrong length, or mismatched checksum, and
//! [`validate`] performs the same checks without materializing the field.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lcc_grid::Grid3;
use lcc_obs::codec::{fnv1a64, CodecError, Reader, Writer};

use crate::fields::TensorField;

/// File magic, first 8 bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"LCCMCKPT";
/// Current format version.
pub const VERSION: u32 = 1;

const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 8;
const CHECKSUM_BYTES: usize = 8;

/// A restorable solver state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Grid size (the strain field is 6 × n³ scalars).
    pub n: usize,
    /// Completed fixed-point iterations at snapshot time.
    pub iteration: usize,
    /// Residual ‖Δε‖/‖E‖ history up to `iteration`.
    pub residuals: Vec<f64>,
    /// The strain field after `iteration` iterations.
    pub strain: TensorField,
}

/// Header summary returned by [`validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Format version of the file.
    pub version: u32,
    /// Grid size.
    pub n: usize,
    /// Completed iterations at snapshot time.
    pub iteration: usize,
}

/// When and where the solver snapshots its state.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file (a `.tmp` sibling appears transiently during writes).
    pub path: PathBuf,
    /// Snapshot after every `every` completed iterations.
    pub every: usize,
}

impl CheckpointConfig {
    /// Snapshot to `path` every `every` iterations.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every >= 1, "checkpoint interval must be at least 1");
        CheckpointConfig {
            path: path.into(),
            every,
        }
    }
}

/// Why a checkpoint could not be written, read, or trusted.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file is shorter or longer than its header promises.
    Truncated {
        /// Bytes the header implies.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The stored FNV-1a digest does not match the contents.
    ChecksumMismatch {
        /// Digest stored in the file.
        stored: u64,
        /// Digest recomputed over the contents.
        computed: u64,
    },
    /// The file parses but its contents are inconsistent.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CheckpointError::Truncated { expected, got } => {
                write!(
                    f,
                    "checkpoint truncated or padded: expected {expected} bytes, got {got}"
                )
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint corrupted: stored checksum {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A read past a length [`check`] already validated cannot run short; the
/// cursor's error still maps to a typed one rather than a panic.
impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Malformed(e.to_string())
    }
}

fn encode(chk: &Checkpoint) -> Vec<u8> {
    let n = chk.n;
    let strain_len = 6 * n * n * n;
    let mut buf = Vec::with_capacity(
        HEADER_BYTES + 8 * chk.residuals.len() + 8 * strain_len + CHECKSUM_BYTES,
    );
    buf.extend_from_slice(&MAGIC);
    buf.put_u32(VERSION);
    buf.put_u64(n as u64);
    buf.put_u64(chk.iteration as u64);
    buf.put_u64(chk.residuals.len() as u64);
    buf.put_f64s(&chk.residuals);
    for c in 0..6 {
        buf.put_f64s(chk.strain.component(c).as_slice());
    }
    let digest = fnv1a64(&buf);
    buf.put_u64(digest);
    buf
}

/// Parses and checks everything up to (but not including) field
/// materialization; returns the header, the residual count and a cursor at
/// the residuals.
fn check(bytes: &[u8]) -> Result<(CheckpointInfo, usize, Reader<'_>), CheckpointError> {
    if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(CheckpointError::Truncated {
            expected: HEADER_BYTES + CHECKSUM_BYTES,
            got: bytes.len(),
        });
    }
    let mut r = Reader::new(bytes);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let n = r.u64()? as usize;
    let iteration = r.u64()? as usize;
    let nres = r.u64()? as usize;
    let strain_len = n
        .checked_mul(n)
        .and_then(|m| m.checked_mul(n))
        .and_then(|m| m.checked_mul(6))
        .ok_or_else(|| CheckpointError::Malformed(format!("grid size {n} overflows")))?;
    let expected = nres
        .checked_mul(8)
        .and_then(|b| b.checked_add(strain_len.checked_mul(8)?))
        .and_then(|b| b.checked_add(HEADER_BYTES + CHECKSUM_BYTES))
        .ok_or_else(|| CheckpointError::Malformed("payload length overflows".into()))?;
    if bytes.len() != expected {
        return Err(CheckpointError::Truncated {
            expected,
            got: bytes.len(),
        });
    }
    let body = bytes.len() - CHECKSUM_BYTES;
    let stored = Reader::new(&bytes[body..]).u64()?;
    let computed = fnv1a64(&bytes[..body]);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    Ok((
        CheckpointInfo {
            version,
            n,
            iteration,
        },
        nres,
        r,
    ))
}

fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let (info, nres, mut r) = check(bytes)?;
    let n = info.n;
    let residuals = r.f64s(nres)?;
    let component = |r: &mut Reader<'_>| r.f64s(n * n * n).map(|v| Grid3::from_vec((n, n, n), v));
    let strain = TensorField::from_components([
        component(&mut r)?,
        component(&mut r)?,
        component(&mut r)?,
        component(&mut r)?,
        component(&mut r)?,
        component(&mut r)?,
    ]);
    Ok(Checkpoint {
        n,
        iteration: info.iteration,
        residuals,
        strain,
    })
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Atomically writes `chk` to `path` (tmp sibling + rename), so a crash
/// mid-write can never clobber the previous good checkpoint.
pub fn write(path: &Path, chk: &Checkpoint) -> Result<(), CheckpointError> {
    let bytes = encode(chk);
    let tmp = tmp_path(path);
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads and fully verifies a checkpoint.
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    decode(&fs::read(path)?)
}

/// Verifies a checkpoint (magic, version, length, checksum) without
/// materializing the strain field; returns its header summary.
pub fn validate(path: &Path) -> Result<CheckpointInfo, CheckpointError> {
    check(&fs::read(path)?).map(|(info, ..)| info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::Sym3;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "lcc_ckpt_{}_{}_{tag}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample(n: usize) -> Checkpoint {
        let mut strain = TensorField::zeros(n);
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let v = (x * 97 + y * 13 + z) as f64 * 0.001 - 0.5;
                    strain.set(x, y, z, Sym3::new(v, -v, 2.0 * v, 0.1 * v, v * v, -0.3));
                }
            }
        }
        Checkpoint {
            n,
            iteration: 7,
            residuals: vec![0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125],
            strain,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let path = scratch("roundtrip");
        let chk = sample(4);
        write(&path, &chk).unwrap();
        let info = validate(&path).unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.n, 4);
        assert_eq!(info.iteration, 7);
        let back = load(&path).unwrap();
        assert_eq!(back.n, chk.n);
        assert_eq!(back.iteration, chk.iteration);
        assert_eq!(back.residuals, chk.residuals);
        for c in 0..6 {
            assert_eq!(
                back.strain.component(c).as_slice(),
                chk.strain.component(c).as_slice(),
                "component {c} not bit-identical"
            );
        }
        assert!(!tmp_path(&path).exists(), "tmp sibling left behind");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = scratch("magic");
        write(&path, &sample(3)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(CheckpointError::BadMagic)));
        assert!(matches!(validate(&path), Err(CheckpointError::BadMagic)));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_version_is_rejected() {
        let path = scratch("version");
        write(&path, &sample(3)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 99;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            validate(&path),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_rejected() {
        let path = scratch("trunc");
        write(&path, &sample(3)).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        match load(&path) {
            Err(CheckpointError::Truncated { expected, got }) => {
                assert_eq!(expected, bytes.len());
                assert_eq!(got, bytes.len() - 9);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let path = scratch("checksum");
        write(&path, &sample(3)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = (HEADER_BYTES + bytes.len() / 2).min(bytes.len() - CHECKSUM_BYTES - 1);
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        fs::remove_file(&path).ok();
    }

    fn tiny() -> Checkpoint {
        let mut strain = TensorField::zeros(1);
        strain.set(0, 0, 0, Sym3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0));
        Checkpoint {
            n: 1,
            iteration: 3,
            residuals: vec![0.5],
            strain,
        }
    }

    #[test]
    fn checkpoint_golden() {
        assert_eq!(
            lcc_obs::codec::hex(&encode(&tiny())),
            "4c43434d434b5054010000000100000000000000030000000000000001000000\
            00000000000000000000e03f000000000000f03f000000000000004000000000\
            00000840000000000000104000000000000014400000000000001840d86ca77a\
            b5c4854f"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = scratch("missing");
        assert!(matches!(load(&path), Err(CheckpointError::Io(_))));
    }
}
