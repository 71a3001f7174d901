//! Property-based roundtrip tests for the wire codec.

mod common;

use bytes::{Bytes, BytesMut};
use ddp_protocol::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_addr() -> impl Strategy<Value = PeerAddr> {
    (any::<u32>(), any::<u16>()).prop_map(|(ip, port)| PeerAddr { ip: Ipv4Addr::from(ip), port })
}

fn arb_name() -> impl Strategy<Value = String> {
    // Wire strings are null-terminated: no interior NULs.
    "[a-zA-Z0-9 ._-]{0,40}"
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Ping(Ping)),
        (arb_addr(), any::<u32>(), any::<u32>()).prop_map(|(addr, f, kb)| Payload::Pong(Pong {
            addr,
            shared_files: f,
            shared_kb: kb
        })),
        (any::<u16>(), arb_name()).prop_map(|(code, reason)| Payload::Bye(Bye { code, reason })),
        (any::<u16>(), arb_name())
            .prop_map(|(min_speed, criteria)| Payload::Query(Query { min_speed, criteria })),
        (
            arb_addr(),
            any::<u32>(),
            proptest::collection::vec(
                (any::<u32>(), any::<u32>(), arb_name()).prop_map(|(i, s, n)| QueryHitResult {
                    file_index: i,
                    file_size: s,
                    file_name: n
                }),
                0..5
            ),
            any::<[u8; 16]>()
        )
            .prop_map(|(addr, speed, results, sid)| Payload::QueryHit(QueryHit {
                addr,
                speed_kbps: speed,
                results,
                servent_id: sid
            })),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(s, x, t, o, i)| Payload::NeighborTraffic(NeighborTraffic {
                source_ip: Ipv4Addr::from(s),
                suspect_ip: Ipv4Addr::from(x),
                timestamp: t,
                outgoing_queries: o,
                incoming_queries: i
            })
        ),
        proptest::collection::vec(arb_addr(), 0..20)
            .prop_map(|neighbors| Payload::NeighborList(NeighborList { neighbors })),
        (any::<u32>(), any::<u32>()).prop_map(|(ip, fresh)| Payload::Receipt(Receipt {
            subject_ip: Ipv4Addr::from(ip),
            fresh_queries: fresh
        })),
    ]
}

/// The body length `encode` writes for `payload`.
fn body_len(payload: &Payload) -> usize {
    let mut body = BytesMut::new();
    payload.encode(&mut body);
    body.len()
}

/// `check_frame` and `decode_frame` read `bytes` to the same header and
/// length, or to the same error.
fn assert_check_agrees(bytes: &[u8]) {
    let decoded = decode_frame(bytes).map(|(msg, used)| (msg.header, used));
    assert_eq!(check_frame(bytes), decoded, "on {bytes:?}");
}

/// Positions to cut or flip in a frame of `len` bytes: every one of a short
/// frame, the drawn one of a long one.
fn positions(len: usize, drawn: prop::sample::Index) -> Vec<usize> {
    if len <= 128 {
        (0..len).collect()
    } else {
        vec![drawn.index(len)]
    }
}

proptest! {
    /// encode → decode is the identity for every payload type.
    #[test]
    fn codec_roundtrip(payload in arb_payload(), ttl in 1u8..16, seq in any::<u64>()) {
        let msg = Message::new(Guid::derived(1, seq), ttl, payload);
        let mut wire = encode_message(&msg);
        let back = decode_message(&mut wire).unwrap();
        prop_assert!(wire.is_empty());
        prop_assert_eq!(msg, back);
    }

    /// `Message::new` sizes the header from the payload's fields: the length
    /// it computes is the length `encode` writes, for every kind.
    #[test]
    fn encoded_len_is_the_encoded_length(payload in arb_payload(), msg in common::arb_message()) {
        prop_assert_eq!(payload.encoded_len(), body_len(&payload));
        prop_assert_eq!(msg.payload.encoded_len(), body_len(&msg.payload));
        prop_assert_eq!(msg.wire_len(), encode_message(&msg).len());
    }

    /// The in-place check accepts what the decoder decodes and rejects what
    /// it rejects, with the same error: on the frames the reassembly proptest
    /// draws and every payload kind, whole, followed by more bytes, cut
    /// short, and with one byte flipped.
    #[test]
    fn check_frame_agrees_with_decode_frame(
        msg in common::arb_message(),
        payload in arb_payload(),
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
    ) {
        for msg in [msg, Message::new(Guid::derived(3, 3), 2, payload)] {
            let frame = encode_message(&msg).to_vec();
            assert_check_agrees(&frame);
            let mut longer = frame.clone();
            longer.extend_from_slice(&frame[..frame.len().min(40)]);
            assert_check_agrees(&longer);
            for cut in positions(frame.len(), at) {
                assert_check_agrees(&frame[..cut]);
            }
            for flip in positions(frame.len(), at) {
                let mut flipped = frame.clone();
                flipped[flip] ^= xor;
                assert_check_agrees(&flipped);
            }
        }
    }

    /// Arbitrary bytes: the check and the decoder agree there too.
    #[test]
    fn check_frame_agrees_on_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_check_agrees(&raw);
    }

    /// The decoder never panics on arbitrary bytes — it returns an error or
    /// a message whose re-encoding parses again.
    #[test]
    fn decoder_is_total(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bytes = Bytes::from(raw);
        // Rejection is fine; panics are not.
        if let Ok(msg) = decode_message(&mut bytes) {
            let mut rewire = encode_message(&msg);
            prop_assert!(decode_message(&mut rewire).is_ok());
        }
    }

    /// Truncating a valid frame anywhere yields an error, never a panic or a
    /// silently different message.
    #[test]
    fn truncation_always_detected(payload in arb_payload(), cut in 0usize..64) {
        let msg = Message::new(Guid::derived(2, 7), 5, payload);
        let wire = encode_message(&msg);
        if cut < wire.len() {
            let mut sliced = wire.slice(..cut);
            // A shorter prefix either fails or (if cut lands past a smaller
            // valid frame) cannot happen since lengths are explicit.
            prop_assert!(decode_message(&mut sliced).is_err());
        }
    }
}
