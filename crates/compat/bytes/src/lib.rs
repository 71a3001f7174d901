//! Offline drop-in subset of the `bytes` crate API.
//!
//! Implements only what the workspace's wire codec uses: [`Bytes`],
//! [`BytesMut`], and the [`Buf`]/[`BufMut`] traits with little-endian
//! accessors.
//!
//! What it costs, since the wire servent's frame path runs on it. A
//! [`Bytes`] keeps its bytes either inside the value itself (up to
//! [`INLINE_CAP`] bytes, with no heap block at all) or in one
//! reference-counted heap buffer that its clones share, and reads them from
//! the front through an offset. Which one is decided by the length of what
//! it is made from:
//!
//! | operation | result of at most `INLINE_CAP` bytes | longer result |
//! |---|---|---|
//! | `From<&[u8]>`, `From<Vec<u8>>`, `BytesMut::freeze`, `from_static`, `slice`, `split_to` (the part returned) | copied into the value, no allocation | one allocation and copy |
//! | `clone` | copies the value, no allocation | shares the buffer: no allocation, no copy |
//! | `make_mut` | lends the bytes in place | in place while no clone shares the buffer, else one allocation and copy of the unread bytes first |
//! | `Vec::from(bytes)` | one allocation and copy | the same: a shared buffer cannot become a vector |
//! | `advance`, `copy_to_slice`, the `get_*` accessors | move the offset or lend the bytes: no allocation, no copy | the same |
//!
//! A `Bytes` is 56 bytes on a 64-bit target, whatever it holds, and `Send`.
//! The wire servent's relay path allocates nothing per small frame: the
//! reader copies each frame it checks in place (`ddp_protocol::check_frame`)
//! out of its stream buffer into a `Bytes` of its own, a relayed Query has
//! its TTL and hop bytes rewritten through [`Bytes::make_mut`], and a
//! fan-out to more than one neighbour `clone`s it. A long frame sent to
//! many neighbours, such as a neighbour list, is one buffer however many
//! receivers hold it.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The longest byte string a [`Bytes`] holds inside itself.
///
/// The frames the servents exchange are mostly 23–43 bytes (Ping, Receipt,
/// a Query with a short search string, Pong, `Neighbor_Traffic`, a
/// three-neighbour list); 53 is the most that keeps a `Bytes` at seven
/// words, and also holds a Bye and a four-neighbour list.
pub const INLINE_CAP: usize = 53;

/// A byte buffer read from the front: stored inline up to [`INLINE_CAP`]
/// bytes, in a heap buffer its clones share beyond. A clone of an inline
/// value is a copy; a clone of a heap one shares its buffer.
#[derive(Default, Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[start..end]` are the unread bytes.
    Inline { start: u8, end: u8, buf: [u8; INLINE_CAP] },
    /// `data[pos..]` are the unread bytes; clones share `data`.
    Heap { data: Arc<[u8]>, pos: usize },
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline { start: 0, end: 0, buf: [0; INLINE_CAP] }
    }
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
        self[..].len()
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
        self.advance(at);
        head
    }

    /// The bytes as a vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }

    /// The unread bytes, writable in place.
    ///
    /// Not in the `bytes` crate, whose `Bytes` is never written. Here an
    /// inline value, or a heap buffer no clone shares, is written in place
    /// with no copy and no allocation; a shared buffer is first copied,
    /// unread bytes only, so that no clone sees the write.
    pub fn make_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Repr::Inline { start, end, buf } => &mut buf[*start as usize..*end as usize],
            Repr::Heap { data, pos } => {
                if Arc::get_mut(data).is_none() {
                    *data = Arc::from(&data[*pos..]);
                    *pos = 0;
                }
                &mut Arc::get_mut(data).expect("no clone shares a fresh copy")[*pos..]
            }
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { start, end, buf } => &buf[*start as usize..*end as usize],
            Repr::Heap { data, pos } => &data[*pos..],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes::from(&data[..])
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        if data.len() > INLINE_CAP {
            return Bytes(Repr::Heap { data: Arc::from(data), pos: 0 });
        }
        let mut buf = [0; INLINE_CAP];
        buf[..data.len()].copy_from_slice(data);
        Bytes(Repr::Inline { start: 0, end: data.len() as u8, buf })
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        bytes.to_vec()
    }
}

// Identity is the unread bytes: two buffers that differ only in what was
// already consumed, or in where they keep their bytes, are equal.
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
        match &mut self.0 {
            Repr::Inline { start, .. } => *start += cnt as u8,
            Repr::Heap { pos, .. } => *pos += cnt,
        }
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
    use proptest::prelude::*;
    use std::hash::{BuildHasher, RandomState};

    fn is_inline(b: &Bytes) -> bool {
        matches!(b.0, Repr::Inline { .. })
    }

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
    #[should_panic(expected = "buffer underflow")]
    fn advancing_an_inline_value_past_the_end_panics() {
        Bytes::from(&[1u8][..]).advance(2);
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

    /// Seven words: every send queue of frames pays this per frame, inline
    /// or not. And a frame can be handed to another thread.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_bytes_is_seven_words_and_send() {
        fn send<T: Send>() {}
        send::<Bytes>();
        assert_eq!(std::mem::size_of::<Bytes>(), 56);
    }

    /// A clone of a long frame is the same buffer; writing one of the two
    /// copies it first and leaves the other as it was.
    #[test]
    fn clones_share_a_heap_buffer_until_one_is_written() {
        let data: Vec<u8> = (0..=INLINE_CAP as u8).collect();
        let a = Bytes::from(&data[..]);
        let mut b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        b.make_mut()[0] = 99;
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!((&a[..], b[0]), (&data[..], 99));
        // The last holder writes in place.
        let before = b.as_ptr();
        b.make_mut()[1] = 98;
        assert_eq!(b.as_ptr(), before);
    }

    /// Everything at or under the capacity is stored inline, everything
    /// over it on the heap, and both read back what they were given.
    #[test]
    fn the_capacity_is_the_last_inline_length() {
        for len in [INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1] {
            let data: Vec<u8> = (1..=len as u8).collect();
            let fits = len <= INLINE_CAP;
            let b = Bytes::from(&data[..]);
            assert_eq!((&b[..], is_inline(&b)), (&data[..], fits), "from a slice, {len} bytes");
            let c = Bytes::from(data.clone()).clone();
            assert_eq!((&c[..], is_inline(&c)), (&data[..], fits), "a clone, {len} bytes");
            let mut long = Bytes::from([&[0u8][..], &data, &[0]].concat());
            let s = long.slice(1..=len);
            assert_eq!((&s[..], is_inline(&s)), (&data[..], fits), "a slice, {len} bytes");
            long.advance(1);
            let head = long.split_to(len);
            assert_eq!((&head[..], is_inline(&head)), (&data[..], fits), "split_to, {len} bytes");
            assert_eq!(&long[..], &[0]);
            let mut m = b.clone();
            m.make_mut()[len - 1] = 0;
            assert_eq!((m.len(), m[len - 1]), (len, 0), "make_mut, {len} bytes");
            assert_eq!(Vec::from(b), data);
        }
    }

    /// One operation on a `Bytes` and on its `Vec<u8>` model. Positions are
    /// drawn raw and taken modulo what is there.
    #[derive(Debug, Clone)]
    enum Op {
        Advance(usize),
        SplitTo(usize),
        Slice(usize, usize),
        Clone,
        MakeMut(u8),
        /// Clone, then write the clone (`true`) or the original.
        MakeMutShared(u8, bool),
        IntoVec,
        FromSlice,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..1 << 16).prop_map(Op::Advance),
            (0usize..1 << 16).prop_map(Op::SplitTo),
            (0usize..1 << 16, 0usize..1 << 16).prop_map(|(a, b)| Op::Slice(a, b)),
            Just(Op::Clone),
            (1u8..u8::MAX).prop_map(Op::MakeMut),
            (1u8..u8::MAX, any::<bool>()).prop_map(|(k, twin)| Op::MakeMutShared(k, twin)),
            Just(Op::IntoVec),
            Just(Op::FromSlice),
        ]
    }

    /// Lengths up to twice the capacity, with the three around it drawn
    /// often.
    fn arb_data() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            3 => 0..2 * INLINE_CAP + 1,
            1 => INLINE_CAP - 1..INLINE_CAP + 2,
        ]
        .prop_flat_map(|len| proptest::collection::vec(any::<u8>(), len))
    }

    /// `b` and `model` hold the same bytes under every view: deref, length,
    /// conversion back to a vector, and `Eq`/`Ord`/`Hash` against a `Bytes`
    /// built the other way and against a different byte string.
    fn agree(b: &Bytes, model: &[u8], other: &[u8], hasher: &RandomState) {
        assert_eq!((&b[..], b.len(), b.is_empty()), (model, model.len(), model.is_empty()));
        assert_eq!(b.chunk(), model);
        assert_eq!(Vec::from(b.clone()), model);
        for twin in [Bytes::from(model), Bytes::from(model.to_vec())] {
            assert_eq!(b, &twin);
            assert_eq!(b.cmp(&twin), std::cmp::Ordering::Equal);
            assert_eq!(hasher.hash_one(b), hasher.hash_one(&twin));
        }
        let other_bytes = Bytes::from(other);
        assert_eq!(b == &other_bytes, model == other);
        assert_eq!(b.cmp(&other_bytes), model.cmp(other));
        assert_eq!(b.partial_cmp(&other_bytes), Some(model.cmp(other)));
    }

    /// What `make_mut` writes: each byte moves by its own amount, so a view
    /// that starts anywhere else cannot write the same result.
    fn step(k: u8) -> impl Fn((usize, &mut u8)) {
        move |(i, x)| *x = x.wrapping_add(k ^ i as u8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every operation does to a `Bytes`, inline or on the heap, what it
        /// does to a plain `Vec<u8>`.
        #[test]
        fn bytes_behaves_like_a_vec(
            data in arb_data(),
            from_vec in any::<bool>(),
            ops in proptest::collection::vec(arb_op(), 0..12),
            other in arb_data(),
        ) {
            let hasher = RandomState::new();
            let mut b = if from_vec { Bytes::from(data.clone()) } else { Bytes::from(&data[..]) };
            let mut model = data;
            agree(&b, &model, &other, &hasher);
            for op in ops {
                let len = model.len();
                match op {
                    Op::Advance(n) => {
                        let n = n % (len + 1);
                        b.advance(n);
                        model.drain(..n);
                    }
                    Op::SplitTo(at) => {
                        let at = at % (len + 1);
                        let head = b.split_to(at);
                        let model_head: Vec<u8> = model.drain(..at).collect();
                        agree(&head, &model_head, &other, &hasher);
                    }
                    Op::Slice(from, to) => {
                        let (from, to) = (from % (len + 1), to % (len + 1));
                        let (from, to) = (from.min(to), from.max(to));
                        agree(&b.slice(from..to), &model[from..to], &other, &hasher);
                        agree(&b.slice(from..), &model[from..], &other, &hasher);
                        agree(&b.slice(..to), &model[..to], &other, &hasher);
                    }
                    Op::Clone => b = b.clone(),
                    Op::MakeMut(k) => {
                        b.make_mut().iter_mut().enumerate().for_each(step(k));
                        model.iter_mut().enumerate().for_each(step(k));
                    }
                    Op::MakeMutShared(k, twin) => {
                        // The clone that is not written must not change.
                        let mut other_clone = b.clone();
                        let (written, kept) =
                            if twin { (&mut other_clone, &b) } else { (&mut b, &other_clone) };
                        written.make_mut().iter_mut().enumerate().for_each(step(k));
                        let mut written_model = model.clone();
                        written_model.iter_mut().enumerate().for_each(step(k));
                        agree(kept, &model, &other, &hasher);
                        agree(written, &written_model, &other, &hasher);
                        if !twin {
                            model = written_model;
                        }
                    }
                    Op::IntoVec => b = Bytes::from(Vec::from(b)),
                    Op::FromSlice => b = Bytes::from(&b[..]),
                }
                agree(&b, &model, &other, &hasher);
            }
        }
    }
}
