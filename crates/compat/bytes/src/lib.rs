//! Offline drop-in subset of the `bytes` crate API.
//!
//! Implements only what the workspace's wire codec uses: [`Bytes`],
//! [`BytesMut`], and the [`Buf`]/[`BufMut`] traits with little-endian
//! accessors.
//!
//! What it costs, since the wire servent's frame path runs on it: a
//! [`Bytes`] is an owned `Vec<u8>` plus a read offset, not a refcounted view
//! of a shared chunk. `clone`, `slice`, `from_static` and `split_to`
//! therefore each allocate and copy what they return; reading through
//! [`Buf`] (`advance`, `copy_to_slice`, the `get_*` accessors) moves the
//! offset and neither allocates nor moves the unread bytes. Converting a
//! `Bytes` into a `Vec<u8>` and back is free while nothing has been read
//! from its front (after that, the first conversion moves the unread bytes
//! down). The wire servent's relay path pays one allocation per frame: the
//! reader copies each frame it checks in place (`ddp_protocol::check_frame`)
//! out of its stream buffer into a `Bytes` of its own; a relayed Query is
//! that `Bytes`, turned into a `Vec`, its TTL and hop bytes rewritten, and
//! turned back, and only a fan-out to more than one neighbour `clone`s it.

use std::ops::{Bound, Deref, RangeBounds};

/// An owned byte buffer read from the front (a `Vec<u8>` and an offset).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Vec<u8>,
    /// Bytes already consumed from the front of `data`.
    pos: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static byte string.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes)
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the sub-range as a new `Bytes`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        Bytes::from(&self[start..end])
    }

    /// Split off and return the first `at` bytes, advancing `self` past them.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = Bytes::from(&self[..at]);
        self.pos += at;
        head
    }

    /// The bytes as a vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        let Bytes { mut data, pos } = bytes;
        data.drain(..pos);
        data
    }
}

// Identity is the unread bytes: two buffers that differ only in what was
// already consumed are equal.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Bytes").field(&&self[..]).finish()
    }
}

/// A growable byte buffer for encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl From<&[u8]> for BytesMut {
    fn from(data: &[u8]) -> Self {
        BytesMut { data: data.to_vec() }
    }
}

/// Sequential big-bag-of-bytes reader (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes. Every buffer of this shim is contiguous, so this is
    /// all `remaining()` of them.
    fn chunk(&self) -> &[u8];

    /// Skip `cnt` bytes.
    ///
    /// Panics when fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Copy `dst.len()` bytes out, advancing the read position.
    ///
    /// Panics when fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.remaining(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.pos += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        *self = &self[cnt..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
}

/// Sequential byte writer (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_little_endian() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u16_le(513);
        w.put_u32_le(0xdead_beef);
        w.put_slice(b"abc");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 10);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 513);
        assert_eq!(r.get_u32_le(), 0xdead_beef);
        let mut tail = [0u8; 3];
        r.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"abc");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reading_moves_an_offset_and_identity_is_the_unread_bytes() {
        let mut b = Bytes::from(vec![9, 9, 1, 2, 3]);
        b.advance(2);
        assert_eq!(b.chunk(), &[1, 2, 3]);
        assert_eq!(b, Bytes::from(vec![1, 2, 3]));
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b.get_u8(), 1);
        let rest = b.split_to(2);
        assert_eq!(&rest[..], &[2, 3]);
        assert!(b.is_empty());
        let mut s: &[u8] = &[4, 5, 6];
        s.advance(1);
        assert_eq!(s.get_u16_le(), u16::from_le_bytes([5, 6]));
    }

    #[test]
    fn into_vec_keeps_the_unread_bytes() {
        let mut b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(Vec::from(b.clone()), vec![1, 2, 3]);
        b.advance(1);
        assert_eq!(Vec::from(b), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn advancing_past_the_end_panics() {
        Bytes::from(vec![1]).advance(2);
    }

    #[test]
    fn split_and_slice() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert_eq!(&b.slice(..2)[..], &[3, 4]);
        assert_eq!(&b.slice(1..)[..], &[4, 5]);
    }
}
