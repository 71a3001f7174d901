//! Crash-safe snapshot container and codec for the DD-POLICE engine.
//!
//! Every stateful crate in the workspace implements [`Snapshottable`] for its
//! persistent types; this crate owns the three things they all share:
//!
//! * a tiny little-endian byte codec ([`Enc`] / [`Dec`]) whose decoder is
//!   fully bounds-checked and **never panics** — corrupt input surfaces as a
//!   typed [`SnapshotError`];
//! * a versioned, checksummed container format (magic + format version +
//!   context fingerprint + length-prefixed payload + FNV-1a-64 checksum) so
//!   truncated, bit-flipped, foreign, or configuration-mismatched files are
//!   rejected before a single payload byte is interpreted;
//! * crash-safe file I/O: [`write_snapshot`] stages into a temp file in the
//!   same directory, `fsync`s, then atomically renames over the target, so a
//!   `kill -9` mid-write leaves either the old checkpoint or the new one —
//!   never a torn file.
//!
//! The contract the differential oracle enforces: restoring a snapshot and
//! running to the end must be tick-for-tick *byte-identical* to the
//! uninterrupted run. The codec therefore has no canonicalization freedom —
//! implementors serialize observable state verbatim (adjacency slot order,
//! RNG stream words) and rebuild only state that is provably dead at a tick
//! boundary.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DDPSNAP1";

/// Current container format version. Bump on any layout change an old file
/// could still decode under — it is then rejected with
/// [`SnapshotError::BadVersion`], never misinterpreted. A payload change no
/// old file can decode under keeps the version: restore refuses the old file
/// with a typed decode error, and a test that restores the old layout shows
/// it does. Version 2: a simulated node's membership is one slot state.
/// Version 3: a node's bandwidth class sits beside its adjacency row, and
/// neither its defense role nor the cut counts are stored.
pub const FORMAT_VERSION: u32 = 3;

/// Container header length: magic + version + context + payload length.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;
/// Trailing checksum length.
const CHECKSUM_LEN: usize = 8;

/// Why a snapshot could not be written, read, or decoded. Every file-level
/// variant names the offending path; decode-level variants name the field
/// that failed so fuzz reproducers point at the exact layout mismatch.
#[derive(Debug)]
pub enum SnapshotError {
    /// OS-level I/O failure on `path` during `op` (open/read/write/sync/
    /// rename/remove).
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// Operation that failed.
        op: &'static str,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// The file ends before the header + declared payload + checksum do.
    Truncated {
        /// Offending file (`<memory>` for in-memory restores).
        path: PathBuf,
    },
    /// The leading bytes are not [`MAGIC`] — not a DD-POLICE snapshot.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// Written by an incompatible format version.
    BadVersion {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// Header/payload bytes do not match the trailing checksum.
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
    },
    /// The snapshot was taken under a different engine configuration or
    /// seed; resuming it would silently diverge.
    ContextMismatch {
        /// Fingerprint this engine expects.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// Payload decode ran off the end or met an impossible value at `what`.
    Corrupt {
        /// Field or structure that failed to decode.
        what: &'static str,
    },
    /// The engine holds state that cannot be checkpointed (e.g. a defense
    /// implementation without snapshot support).
    Unsupported {
        /// What lacks support.
        what: &'static str,
    },
}

impl SnapshotError {
    /// Stable variant name — the string surfaced in wire summaries and logs
    /// when a resume degrades to a cold start, so collectors can classify
    /// recovery failures without parsing the full message.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::Io { .. } => "Io",
            SnapshotError::Truncated { .. } => "Truncated",
            SnapshotError::BadMagic { .. } => "BadMagic",
            SnapshotError::BadVersion { .. } => "BadVersion",
            SnapshotError::ChecksumMismatch { .. } => "ChecksumMismatch",
            SnapshotError::ContextMismatch { .. } => "ContextMismatch",
            SnapshotError::Corrupt { .. } => "Corrupt",
            SnapshotError::Unsupported { .. } => "Unsupported",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, op, source } => {
                write!(f, "snapshot {op} failed for {}: {source}", path.display())
            }
            SnapshotError::Truncated { path } => {
                write!(f, "snapshot file {} is truncated", path.display())
            }
            SnapshotError::BadMagic { path } => {
                write!(f, "{} is not a DD-POLICE snapshot (bad magic)", path.display())
            }
            SnapshotError::BadVersion { path, found, expected } => write!(
                f,
                "snapshot {} has format version {found}, this build expects {expected}",
                path.display()
            ),
            SnapshotError::ChecksumMismatch { path } => {
                write!(f, "snapshot {} failed its checksum (corrupt)", path.display())
            }
            SnapshotError::ContextMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (context {found:#018x}, engine expects {expected:#018x})"
            ),
            SnapshotError::Corrupt { what } => {
                write!(f, "snapshot payload is corrupt at {what}")
            }
            SnapshotError::Unsupported { what } => {
                write!(f, "snapshotting is not supported: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash — the container checksum and the configuration
/// fingerprint. Not cryptographic; it detects truncation and bit rot, which
/// is the threat model for a local checkpoint file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian payload encoder. Append-only; infallible.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the encoder, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` by bit pattern — restores bit-for-bit, NaNs included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append an `f32` by bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append any [`Snapshottable`] value.
    pub fn put<T: Snapshottable>(&mut self, v: &T) {
        v.save(self);
    }

    /// Append a length-prefixed sequence: the bytes `put` writes for a
    /// `Vec<T>` of the same items, for callers whose items live elsewhere.
    pub fn slice<T: Snapshottable>(&mut self, items: &[T]) {
        self.usize(items.len());
        for v in items {
            v.save(self);
        }
    }
}

/// Bounds-checked little-endian payload decoder over a borrowed buffer.
/// Every read returns `Result`; running off the end is
/// [`SnapshotError::Corrupt`], never a panic.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Corrupt { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `usize` stored as `u64`, rejecting values this platform
    /// cannot index.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt { what: "usize overflow" })
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an `f32` by bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a `bool`, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { what: "bool" }),
        }
    }

    /// Read a collection length and sanity-check it against the bytes left
    /// (every element of every snapshot type encodes at least one byte, so a
    /// length beyond `remaining()` is unconditionally corrupt — this bounds
    /// allocations on hostile input).
    pub fn len(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt { what });
        }
        Ok(n)
    }

    /// Read any [`Snapshottable`] value.
    pub fn get<T: Snapshottable>(&mut self) -> Result<T, SnapshotError> {
        T::load(self)
    }

    /// Assert the payload was consumed exactly — trailing bytes mean the
    /// reader and writer disagree about the layout.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt { what: "trailing bytes" });
        }
        Ok(())
    }
}

/// A type that can serialize itself into a snapshot payload and rebuild
/// itself from one. `load` must validate everything it reads: the
/// differential oracle guarantees a *valid* snapshot restores bit-identical
/// state, and the corruption tests guarantee an *invalid* one is a typed
/// error, not a panic.
pub trait Snapshottable: Sized {
    /// Append this value to the payload.
    fn save(&self, enc: &mut Enc);
    /// Rebuild a value from the payload.
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! snapshot_prim {
    ($t:ty, $enc:ident, $dec:ident) => {
        impl Snapshottable for $t {
            fn save(&self, enc: &mut Enc) {
                enc.$enc(*self);
            }
            fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
                dec.$dec()
            }
        }
    };
}

snapshot_prim!(u8, u8, u8);
snapshot_prim!(u16, u16, u16);
snapshot_prim!(u32, u32, u32);
snapshot_prim!(u64, u64, u64);
snapshot_prim!(usize, usize, usize);
snapshot_prim!(f32, f32, f32);
snapshot_prim!(f64, f64, f64);
snapshot_prim!(bool, bool, bool);

impl Snapshottable for String {
    fn save(&self, enc: &mut Enc) {
        enc.usize(self.len());
        enc.buf.extend_from_slice(self.as_bytes());
    }
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let n = dec.len("string length")?;
        let bytes = dec.take(n, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt { what: "utf8" })
    }
}

impl<T: Snapshottable> Snapshottable for Vec<T> {
    fn save(&self, enc: &mut Enc) {
        enc.slice(self);
    }
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let n = dec.len("vec length")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(dec)?);
        }
        Ok(out)
    }
}

impl<T: Snapshottable> Snapshottable for Option<T> {
    fn save(&self, enc: &mut Enc) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.save(enc);
            }
        }
    }
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(dec)?)),
            _ => Err(SnapshotError::Corrupt { what: "option tag" }),
        }
    }
}

/// A map is its entries in key order: the bytes of a `Vec<(K, V)>` sorted
/// by key, so equal maps always serialize alike.
impl<K: Snapshottable + Ord, V: Snapshottable> Snapshottable for BTreeMap<K, V> {
    fn save(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for (k, v) in self {
            k.save(enc);
            v.save(enc);
        }
    }
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<(K, V)>::load(dec)?.into_iter().collect())
    }
}

/// Raw bytes, no length prefix (a GUID, a digest).
impl<const N: usize> Snapshottable for [u8; N] {
    fn save(&self, enc: &mut Enc) {
        enc.buf.extend_from_slice(self);
    }
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(dec.take(N, "byte array")?.try_into().expect("take returned N bytes"))
    }
}

/// A tuple is its fields in order, nothing between them.
macro_rules! snapshot_tuple {
    ($($t:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($t: Snapshottable),+> Snapshottable for ($($t,)+) {
            fn save(&self, enc: &mut Enc) {
                let ($($t,)+) = self;
                $($t.save(enc);)+
            }
            fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
                Ok(($($t::load(dec)?,)+))
            }
        }
    };
}

snapshot_tuple!(A B);
snapshot_tuple!(A B C);
snapshot_tuple!(A B C D);
snapshot_tuple!(A B C D E);

/// Wrap a payload into the on-disk container: magic, format version,
/// context fingerprint, length-prefixed payload, FNV-1a-64 checksum over
/// everything preceding it.
pub fn encode_container(context: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&context.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validate and unwrap a container, returning `(context, payload)`. `label`
/// names the source in errors (a real path, or `<memory>` for in-memory
/// restores).
pub fn decode_container(bytes: &[u8], label: &Path) -> Result<(u64, Vec<u8>), SnapshotError> {
    let path = || label.to_path_buf();
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::Truncated { path: path() });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic { path: path() });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("fixed slice"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion {
            path: path(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let context = u64::from_le_bytes(bytes[12..20].try_into().expect("fixed slice"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("fixed slice"));
    let payload_len =
        usize::try_from(payload_len).map_err(|_| SnapshotError::Truncated { path: path() })?;
    let expected_total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or_else(|| SnapshotError::Truncated { path: path() })?;
    if bytes.len() < expected_total {
        return Err(SnapshotError::Truncated { path: path() });
    }
    if bytes.len() > expected_total {
        // Trailing garbage: the checksum cannot vouch for it.
        return Err(SnapshotError::ChecksumMismatch { path: path() });
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("fixed slice"));
    if fnv1a64(&bytes[..body_end]) != stored {
        return Err(SnapshotError::ChecksumMismatch { path: path() });
    }
    Ok((context, bytes[HEADER_LEN..body_end].to_vec()))
}

/// Crash-safe write: stage the container into `<file>.tmp` in the target's
/// directory, `fsync`, then atomically rename over `path`. A `kill -9` at
/// any point leaves either the previous file or the complete new one.
pub fn write_snapshot(path: &Path, context: u64, payload: &[u8]) -> Result<(), SnapshotError> {
    let bytes = encode_container(context, payload);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = fs::File::create(&tmp).map_err(|source| SnapshotError::Io {
        path: tmp.clone(),
        op: "create",
        source,
    })?;
    f.write_all(&bytes).map_err(|source| SnapshotError::Io {
        path: tmp.clone(),
        op: "write",
        source,
    })?;
    f.sync_all().map_err(|source| SnapshotError::Io { path: tmp.clone(), op: "sync", source })?;
    drop(f);
    fs::rename(&tmp, path).map_err(|source| SnapshotError::Io {
        path: path.to_path_buf(),
        op: "rename",
        source,
    })
}

/// Read and validate a snapshot file, returning `(context, payload)`.
pub fn read_snapshot(path: &Path) -> Result<(u64, Vec<u8>), SnapshotError> {
    let bytes = fs::read(path).map_err(|source| SnapshotError::Io {
        path: path.to_path_buf(),
        op: "read",
        source,
    })?;
    decode_container(&bytes, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_path(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ddpsnap-test-{}-{seq}-{name}", std::process::id()))
    }

    #[test]
    fn primitive_roundtrip_is_exact() {
        let mut enc = Enc::new();
        enc.put(&0xdeadu16);
        enc.put(&u32::MAX);
        enc.put(&123_456_789_012_345u64);
        enc.put(&true);
        enc.put(&f64::NEG_INFINITY);
        enc.put(&(-0.0f64));
        enc.put(&f32::NAN);
        enc.put(&String::from("héllo"));
        enc.put(&vec![1u32, 2, 3]);
        enc.put(&Option::<u8>::None);
        enc.put(&Some(7u8));
        enc.put(&(3u32, 4u64));
        enc.put(&(1u8, 2u16, 3u32, 4u64, false));
        enc.put(&[7u8, 8, 9]);
        enc.put(&BTreeMap::from([(2u32, 20u64), (1, 10)]));
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.get::<u16>().unwrap(), 0xdead);
        assert_eq!(dec.get::<u32>().unwrap(), u32::MAX);
        assert_eq!(dec.get::<u64>().unwrap(), 123_456_789_012_345);
        assert!(dec.get::<bool>().unwrap());
        assert_eq!(dec.get::<f64>().unwrap(), f64::NEG_INFINITY);
        assert_eq!(dec.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.get::<f32>().unwrap().is_nan());
        assert_eq!(dec.get::<String>().unwrap(), "héllo");
        assert_eq!(dec.get::<Vec<u32>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.get::<Option<u8>>().unwrap(), None);
        assert_eq!(dec.get::<Option<u8>>().unwrap(), Some(7));
        assert_eq!(dec.get::<(u32, u64)>().unwrap(), (3, 4));
        assert_eq!(dec.get::<(u8, u16, u32, u64, bool)>().unwrap(), (1, 2, 3, 4, false));
        assert_eq!(dec.get::<[u8; 3]>().unwrap(), [7, 8, 9]);
        assert_eq!(dec.get::<BTreeMap<u32, u64>>().unwrap(), BTreeMap::from([(1, 10), (2, 20)]));
        dec.finish().unwrap();
    }

    #[test]
    fn composites_add_no_bytes_of_their_own() {
        let mut map = Enc::new();
        map.put(&BTreeMap::from([(2u32, [0xaau8; 2]), (1, [0xbb; 2])]));
        let mut flat = Enc::new();
        flat.usize(2);
        for (k, v) in [(1u32, 0xbbu8), (2, 0xaa)] {
            flat.u32(k);
            flat.u8(v);
            flat.u8(v);
        }
        assert_eq!(map.bytes(), flat.bytes(), "a map is a length and its entries in key order");
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        // Any prefix of random bytes must decode to Err, never panic.
        let junk: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        for cut in 0..junk.len() {
            let mut dec = Dec::new(&junk[..cut]);
            // Vec of vecs exercises nested length handling.
            let _ = dec.get::<Vec<Vec<u64>>>();
            let _ = dec.get::<String>();
            let _ = dec.get::<bool>();
        }
        // A length prefix far beyond the buffer is corrupt, not an OOM.
        let mut enc = Enc::new();
        enc.u64(u64::MAX);
        let bytes = enc.into_bytes();
        assert!(matches!(Dec::new(&bytes).get::<Vec<u8>>(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn container_roundtrip() {
        let payload = b"engine state goes here".to_vec();
        let bytes = encode_container(0xabcd, &payload);
        let (ctx, got) = decode_container(&bytes, Path::new("<memory>")).unwrap();
        assert_eq!(ctx, 0xabcd);
        assert_eq!(got, payload);
    }

    #[test]
    fn container_rejects_truncation_bitflips_and_foreign_files() {
        let bytes = encode_container(7, b"payload");
        for cut in 0..bytes.len() {
            let err = decode_container(&bytes[..cut], Path::new("t")).unwrap_err();
            assert!(matches!(err, SnapshotError::Truncated { .. }), "cut at {cut} gave {err:?}");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_container(&bad, Path::new("t")).is_err(),
                "bit flip at {i} must be rejected"
            );
        }
        let mut foreign = bytes.clone();
        foreign[..8].copy_from_slice(b"NOTASNAP");
        assert!(matches!(
            decode_container(&foreign, Path::new("t")),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut newer = bytes.clone();
        newer[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_container(&newer, Path::new("t")),
            Err(SnapshotError::BadVersion { found: 99, .. })
        ));
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_container(&padded, Path::new("t")).is_err());
    }

    #[test]
    fn file_roundtrip_is_atomic_and_validated() {
        let path = scratch_path("roundtrip.snap");
        write_snapshot(&path, 42, b"hello").unwrap();
        // No staging residue.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "tmp file must be renamed away");
        let (ctx, payload) = read_snapshot(&path).unwrap();
        assert_eq!((ctx, payload.as_slice()), (42, &b"hello"[..]));
        // Overwrite goes through the same atomic path.
        write_snapshot(&path, 43, b"world").unwrap();
        assert_eq!(read_snapshot(&path).unwrap().0, 43);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_typed_io_error_naming_the_path() {
        let path = scratch_path("never-written.snap");
        match read_snapshot(&path) {
            Err(SnapshotError::Io { path: p, op: "read", .. }) => assert_eq!(p, path),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_on_disk_is_rejected() {
        let path = scratch_path("truncated.snap");
        write_snapshot(&path, 1, &[9u8; 100]).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(read_snapshot(&path), Err(SnapshotError::Truncated { .. })));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
