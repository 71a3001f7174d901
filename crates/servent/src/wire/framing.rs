//! Incremental frame reassembly off a byte stream.
//!
//! TCP delivers bytes, not frames: a single `read` may return half a header,
//! three frames and a tail, or one byte. [`FrameBuffer`] accumulates bytes
//! and yields complete, *fully validated* frames — each is checked in place
//! (`ddp_protocol::check_frame`: every read the decoder makes, nothing
//! built), then copied out as the frame's own [`Bytes`], which is what the
//! servent state machine is handed. A relayed Query goes on as those bytes.
//!
//! What a read costs: the frames go into a vector the caller keeps across
//! reads, and a frame of at most `bytes::INLINE_CAP` bytes (every Ping,
//! Pong, receipt and `Neighbor_Traffic`, and a Query whose search string has
//! at most 27 bytes) is copied into its `Bytes` with no heap block of its
//! own, so a read of small frames allocates nothing.
//!
//! Hardening contract (the hostile-bytes half of the robustness story):
//!
//! * a malformed header (unknown kind, lying/oversized length) or payload
//!   surfaces as a typed [`ProtocolError`] — the caller disconnects the
//!   peer; nothing ever panics;
//! * memory is bounded: the buffer never holds more than one maximum-size
//!   frame plus one read chunk, because a valid header caps the frame at
//!   `HEADER_LEN + MAX_PAYLOAD_LEN` and an invalid one errors immediately.

use bytes::Bytes;
use ddp_protocol::header::{HEADER_LEN, MAX_PAYLOAD_LEN};
use ddp_protocol::{check_frame, ProtocolError};

/// Largest frame the wire accepts: header plus the codec's payload cap.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + MAX_PAYLOAD_LEN;

/// Stream-to-frame reassembly buffer.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Bytes currently buffered (an incomplete frame prefix).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Append `data`, check every complete frame now available and append
    /// each, in order and copied out whole, to `frames`. What is left over —
    /// the start of a frame still arriving — is moved to the front of the
    /// buffer once, whatever the number of frames.
    ///
    /// On error the connection is poisoned: the typed error describes the
    /// first offense and the caller must drop the peer. An erroring push
    /// appends no frames, not even those complete before the offense,
    /// matching "hostile bytes disconnect"; earlier pushes already delivered
    /// theirs.
    pub fn push(&mut self, data: &[u8], frames: &mut Vec<Bytes>) -> Result<(), ProtocolError> {
        self.buf.extend_from_slice(data);
        let first = frames.len();
        let mut at = 0;
        loop {
            // The header is validated first: unknown kinds and oversized
            // length fields error before any payload is awaited, so a
            // hostile peer cannot park us waiting for 4 GiB that never
            // comes. Then the whole message: the payload reads cleanly
            // with no trailing garbage.
            match check_frame(&self.buf[at..]) {
                Ok((_, used)) => {
                    frames.push(Bytes::from(&self.buf[at..at + used]));
                    at += used;
                }
                Err(
                    ProtocolError::TruncatedHeader { .. } | ProtocolError::TruncatedPayload { .. },
                ) => break,
                Err(offense) => {
                    frames.truncate(first);
                    return Err(offense);
                }
            }
        }
        self.buf.drain(..at);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_protocol::{encode_message, Guid, Message, Payload, Ping, Query};
    use proptest::prelude::*;

    include!("../../../protocol/tests/common/mod.rs");

    fn query_frame(seq: u64) -> Bytes {
        encode_message(&Message::new(
            Guid::derived(1, seq),
            5,
            Payload::Query(Query { min_speed: 0, criteria: format!("q-{seq}") }),
        ))
    }

    /// The frames of one push.
    fn push(fb: &mut FrameBuffer, data: &[u8]) -> Result<Vec<Bytes>, ProtocolError> {
        let mut frames = Vec::new();
        fb.push(data, &mut frames).map(|()| frames)
    }

    #[test]
    fn one_byte_dribble_reassembles_every_frame() {
        let stream: Vec<u8> = (0..4).flat_map(|seq| query_frame(seq).to_vec()).collect();
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in stream {
            fb.push(&[b], &mut got).expect("clean stream");
        }
        assert_eq!(got, (0..4).map(query_frame).collect::<Vec<_>>());
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn burst_with_tail_yields_complete_frames_and_keeps_the_tail() {
        let a = query_frame(1);
        let b = query_frame(2);
        let mut stream = a.to_vec();
        stream.extend_from_slice(&b[..10]);
        let mut fb = FrameBuffer::new();
        let got = push(&mut fb, &stream).unwrap();
        assert_eq!(got, vec![a]);
        assert_eq!(fb.pending(), 10);
        let got2 = push(&mut fb, &b[10..]).unwrap();
        assert_eq!(got2, vec![b]);
    }

    /// Frames are appended to what the vector already holds, and an
    /// offense takes back only what its own push appended.
    #[test]
    fn frames_are_appended_and_an_offense_appends_none() {
        let mut fb = FrameBuffer::new();
        let mut frames = vec![query_frame(0)];
        fb.push(&[&query_frame(1)[..], &query_frame(2)[..]].concat(), &mut frames).unwrap();
        assert_eq!(frames, (0..3).map(query_frame).collect::<Vec<_>>());
        let mut hostile = query_frame(4).to_vec();
        hostile[16] = 0x42;
        let read = [&query_frame(3)[..], &hostile[..]].concat();
        assert!(fb.push(&read, &mut frames).is_err());
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn unknown_kind_errors_instead_of_waiting_for_payload() {
        let mut frame = query_frame(1).to_vec();
        frame[16] = 0x42; // bogus descriptor byte
        let mut fb = FrameBuffer::new();
        assert!(matches!(push(&mut fb, &frame), Err(ProtocolError::UnknownPayloadKind(0x42))));
    }

    #[test]
    fn lying_oversized_length_errors_before_buffering_the_claim() {
        let mut frame = query_frame(1).to_vec();
        frame[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut fb = FrameBuffer::new();
        // The header alone is enough: no byte of the claimed 4 GiB is awaited.
        assert!(matches!(
            push(&mut fb, &frame[..HEADER_LEN]),
            Err(ProtocolError::OversizedPayload { .. })
        ));
        // The buffer never grew toward the lie.
        assert!(fb.pending() <= frame.len());
    }

    #[test]
    fn an_offense_mid_read_yields_nothing_from_that_read() {
        let mut fb = FrameBuffer::new();
        assert_eq!(
            push(&mut fb, &query_frame(1)).unwrap(),
            vec![query_frame(1)],
            "earlier reads deliver"
        );
        let mut read = query_frame(2).to_vec();
        let mut hostile = query_frame(3).to_vec();
        hostile[16] = 0x42;
        read.extend_from_slice(&hostile);
        read.extend_from_slice(&query_frame(4));
        assert_eq!(push(&mut fb, &read), Err(ProtocolError::UnknownPayloadKind(0x42)));
    }

    #[test]
    fn corrupt_payload_is_detected_at_reassembly() {
        let msg = Message::new(Guid::derived(3, 3), 5, Payload::Ping(Ping));
        let mut frame = encode_message(&msg).to_vec();
        frame[19] = 2; // claim 2 payload bytes that are not a valid Ping body
        frame.extend_from_slice(&[0xde, 0xad]);
        let mut fb = FrameBuffer::new();
        assert!(push(&mut fb, &frame).is_err());
    }

    /// A Query whose search string is not UTF-8 is an offense like any
    /// other: it is never handed on, so never relayed.
    #[test]
    fn a_query_that_is_not_utf8_is_an_offense() {
        let mut frame = query_frame(1).to_vec();
        frame[HEADER_LEN + 2] = 0xff; // the first byte of the search string
        let mut fb = FrameBuffer::new();
        assert_eq!(push(&mut fb, &frame), Err(ProtocolError::MalformedPayload("non-utf8 string")));
    }

    /// Read sizes from a one-byte dribble to a 64 KiB burst.
    fn arb_read() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..4, 1usize..200, 1_000usize..65_537]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the stream is cut into reads, the same frames come out
        /// in the same order, and the buffer stays within one maximum frame
        /// plus one read.
        #[test]
        fn any_split_into_reads_yields_the_same_messages(
            messages in proptest::collection::vec(arb_message(), 1..40),
            reads in proptest::collection::vec(arb_read(), 1..64),
        ) {
            let frames: Vec<Bytes> = messages.iter().map(encode_message).collect();
            let stream: Vec<u8> = frames.iter().flat_map(|f| f.to_vec()).collect();
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            let mut rest = &stream[..];
            for &size in reads.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (read, tail) = rest.split_at(size.min(rest.len()));
                rest = tail;
                fb.push(read, &mut got).expect("a valid stream");
                prop_assert!(fb.pending() < MAX_FRAME_LEN, "only an incomplete frame stays");
            }
            prop_assert_eq!(fb.pending(), 0);
            prop_assert_eq!(got, frames);
        }
    }
}
