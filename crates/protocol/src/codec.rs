//! Whole-message encode/decode.

use crate::error::ProtocolError;
use crate::header::{Header, HEADER_LEN, MAX_PAYLOAD_LEN};
use crate::message::{read_payload, Message, Payload};
use bytes::{Buf, Bytes, BytesMut};

/// Encode a full message (header + payload) to bytes, into one buffer.
///
/// The header's `payload_len` is recomputed from the actual payload, so a
/// stale length cannot produce a corrupt frame (it only sizes the buffer,
/// and not beyond the largest frame there is).
pub fn encode_message(msg: &Message) -> Bytes {
    let mut out = BytesMut::with_capacity(msg.wire_len().min(HEADER_LEN + MAX_PAYLOAD_LEN));
    msg.header.encode(&mut out);
    msg.payload.encode(&mut out);
    let payload_len = (out.len() - HEADER_LEN) as u32;
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    out.freeze()
}

/// Decode one full message from the front of `buf`, which is only borrowed:
/// the message and the number of bytes it occupied.
///
/// The header is checked before the payload is looked at, so an unknown kind
/// or an oversized length claim errors however few bytes follow;
/// [`ProtocolError::TruncatedHeader`] and [`ProtocolError::TruncatedPayload`]
/// mean `buf` ends before the message does (a stream reader waits for more).
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), ProtocolError> {
    let (header, payload, used) = read_frame::<true>(buf)?;
    Ok((Message { header, payload }, used))
}

/// Check one full message at the front of `buf` in place: its header and the
/// number of bytes it occupies, with nothing built or allocated.
///
/// It makes the reads [`decode_frame`] makes, so it accepts exactly the
/// frames that one decodes, with the same length, and fails on every other
/// input with the same error.
pub fn check_frame(buf: &[u8]) -> Result<(Header, usize), ProtocolError> {
    let (header, _, used) = read_frame::<false>(buf)?;
    Ok((header, used))
}

fn read_frame<const KEEP: bool>(buf: &[u8]) -> Result<(Header, Payload, usize), ProtocolError> {
    let mut rest = buf;
    let header = Header::decode(&mut rest)?;
    let want = header.payload_len as usize;
    if rest.len() < want {
        return Err(ProtocolError::TruncatedPayload { want, have: rest.len() });
    }
    let mut body = &rest[..want];
    let payload = read_payload::<KEEP>(header.kind, &mut body)?;
    if !body.is_empty() {
        return Err(ProtocolError::MalformedPayload("trailing bytes in payload"));
    }
    Ok((header, payload, HEADER_LEN + want))
}

/// Decode one full message from the front of `buf`, advancing it. On error
/// `buf` is left as it was.
pub fn decode_message(buf: &mut Bytes) -> Result<Message, ProtocolError> {
    let (msg, used) = decode_frame(buf)?;
    buf.advance(used);
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guid::Guid;
    use crate::message::*;
    use std::net::Ipv4Addr;

    fn roundtrip(payload: Payload) -> Message {
        let msg = Message::new(Guid::derived(9, 9), 7, payload);
        let mut wire = encode_message(&msg);
        assert_eq!(msg.payload.encoded_len(), wire.len() - HEADER_LEN, "{msg:?}");
        assert_eq!(check_frame(&wire), Ok((msg.header, wire.len())));
        let back = decode_message(&mut wire).expect("decode");
        assert!(wire.is_empty(), "no trailing bytes");
        assert_eq!(msg, back);
        back
    }

    #[test]
    fn the_longest_neighbor_list_is_the_longest_that_decodes() {
        let list = |n: u32| {
            let neighbors = (0..n).map(PeerAddr::from_node_index).collect();
            encode_message(&Message::new(
                Guid::derived(1, 1),
                1,
                Payload::NeighborList(NeighborList { neighbors }),
            ))
        };
        let most = list(NeighborList::MAX_NEIGHBORS as u32);
        assert_eq!(check_frame(&most).map(|(_, used)| used), Ok(most.len()));
        assert!(most.len() - HEADER_LEN > MAX_PAYLOAD_LEN - 6, "no room for one more");
        assert!(matches!(
            check_frame(&list(NeighborList::MAX_NEIGHBORS as u32 + 1)),
            Err(ProtocolError::OversizedPayload { .. })
        ));
    }

    #[test]
    fn ping_roundtrip() {
        let m = roundtrip(Payload::Ping(Ping));
        assert_eq!(m.header.payload_len, 0);
    }

    #[test]
    fn pong_roundtrip() {
        roundtrip(Payload::Pong(Pong {
            addr: PeerAddr::from_node_index(77),
            shared_files: 10,
            shared_kb: 2048,
        }));
    }

    #[test]
    fn bye_roundtrip() {
        roundtrip(Payload::Bye(Bye {
            code: Bye::CODE_DDOS_SUSPECT,
            reason: "general indicator exceeded cut threshold".into(),
        }));
    }

    #[test]
    fn query_roundtrip() {
        roundtrip(Payload::Query(Query { min_speed: 0, criteria: "object-4242".into() }));
    }

    #[test]
    fn query_hit_roundtrip() {
        roundtrip(Payload::QueryHit(QueryHit {
            addr: PeerAddr::from_node_index(3),
            speed_kbps: 1000,
            results: vec![
                QueryHitResult { file_index: 1, file_size: 100, file_name: "a.mp3".into() },
                QueryHitResult { file_index: 2, file_size: 200, file_name: "b.mp3".into() },
            ],
            servent_id: [7u8; 16],
        }));
    }

    #[test]
    fn neighbor_traffic_roundtrip() {
        roundtrip(Payload::NeighborTraffic(NeighborTraffic {
            source_ip: Ipv4Addr::new(10, 0, 0, 1),
            suspect_ip: Ipv4Addr::new(10, 0, 0, 2),
            timestamp: 123_456,
            outgoing_queries: 400,
            incoming_queries: 5_000,
        }));
    }

    #[test]
    fn receipt_roundtrip() {
        roundtrip(Payload::Receipt(Receipt {
            subject_ip: Ipv4Addr::new(10, 0, 0, 9),
            fresh_queries: 1_500,
        }));
    }

    #[test]
    fn empty_strings_and_lists_roundtrip() {
        roundtrip(Payload::Query(Query { min_speed: 9, criteria: String::new() }));
        roundtrip(Payload::Bye(Bye { code: 1, reason: String::new() }));
        roundtrip(Payload::NeighborList(NeighborList::default()));
        roundtrip(Payload::QueryHit(QueryHit {
            addr: PeerAddr::from_node_index(1),
            speed_kbps: 0,
            results: vec![QueryHitResult { file_index: 0, file_size: 0, file_name: String::new() }],
            servent_id: [0; 16],
        }));
    }

    #[test]
    fn non_utf8_strings_are_rejected_by_the_check_and_the_decoder() {
        let msg = Message::new(
            Guid::derived(5, 5),
            5,
            Payload::Query(Query { min_speed: 0, criteria: "ab".into() }),
        );
        let mut wire = encode_message(&msg).to_vec();
        wire[HEADER_LEN + 2] = 0xff; // a byte no UTF-8 string holds
        let err = ProtocolError::MalformedPayload("non-utf8 string");
        assert_eq!(check_frame(&wire), Err(err.clone()));
        assert_eq!(decode_frame(&wire), Err(err));
    }

    #[test]
    fn neighbor_list_roundtrip() {
        roundtrip(Payload::NeighborList(NeighborList {
            neighbors: (0..6).map(PeerAddr::from_node_index).collect(),
        }));
    }

    /// Table 1 of the paper fixes the Neighbor_Traffic body layout: byte
    /// offsets 0, 4, 8, 12, 16 for the five 4-byte fields.
    #[test]
    fn neighbor_traffic_table1_byte_layout() {
        let nt = NeighborTraffic {
            source_ip: Ipv4Addr::new(1, 2, 3, 4),
            suspect_ip: Ipv4Addr::new(5, 6, 7, 8),
            timestamp: 0x11223344,
            outgoing_queries: 0xAABBCCDD,
            incoming_queries: 0x01020304,
        };
        let msg = Message::new(Guid::ZERO, 1, Payload::NeighborTraffic(nt));
        let wire = encode_message(&msg);
        let body = &wire[HEADER_LEN..];
        assert_eq!(body.len(), NEIGHBOR_TRAFFIC_LEN);
        assert_eq!(&body[0..4], &[1, 2, 3, 4], "source ip at offset 0");
        assert_eq!(&body[4..8], &[5, 6, 7, 8], "suspect ip at offset 4");
        assert_eq!(&body[8..12], &0x11223344u32.to_le_bytes(), "timestamp at offset 8");
        assert_eq!(&body[12..16], &0xAABBCCDDu32.to_le_bytes(), "#outgoing at offset 12");
        assert_eq!(&body[16..20], &0x01020304u32.to_le_bytes(), "#incoming at offset 16");
    }

    #[test]
    fn truncated_payload_rejected() {
        let msg = Message::new(
            Guid::derived(1, 1),
            5,
            Payload::Query(Query { min_speed: 0, criteria: "x".into() }),
        );
        let wire = encode_message(&msg);
        let mut cut = wire.slice(..wire.len() - 2);
        assert!(matches!(decode_message(&mut cut), Err(ProtocolError::TruncatedPayload { .. })));
    }

    #[test]
    fn trailing_garbage_rejected() {
        // Claim a payload longer than the actual Ping body (0) and pad it.
        let msg = Message::new(Guid::derived(2, 2), 5, Payload::Ping(Ping));
        let mut wire = BytesMut::from(&encode_message(&msg)[..]);
        wire[19] = 3; // payload_len = 3 (little-endian at offset 19)
        wire.extend_from_slice(&[0, 0, 0]);
        let mut bytes = wire.freeze();
        assert_eq!(
            decode_message(&mut bytes),
            Err(ProtocolError::MalformedPayload("trailing bytes in payload"))
        );
    }

    #[test]
    fn wire_len_matches_encoding() {
        let msg = Message::new(
            Guid::derived(4, 4),
            7,
            Payload::Query(Query { min_speed: 0, criteria: "hello".into() }),
        );
        assert_eq!(msg.wire_len(), encode_message(&msg).len());
    }

    #[test]
    fn decode_frame_borrows_and_reports_the_bytes_used() {
        let a = Message::new(Guid::derived(1, 0), 7, Payload::Ping(Ping));
        let b = Message::new(
            Guid::derived(1, 1),
            7,
            Payload::Query(Query { min_speed: 0, criteria: "q".into() }),
        );
        let mut stream = encode_message(&a).to_vec();
        stream.extend_from_slice(&encode_message(&b));
        let (first, used) = decode_frame(&stream).unwrap();
        assert_eq!((first, used), (a, HEADER_LEN));
        assert_eq!(decode_frame(&stream[used..]).unwrap(), (b, stream.len() - used));
        // One byte short of the second message: a typed "wait for more".
        assert!(matches!(
            decode_frame(&stream[used..stream.len() - 1]),
            Err(ProtocolError::TruncatedPayload { .. })
        ));
        // decode_message is the same decoder; an error leaves the buffer be.
        let mut short = Bytes::from(stream[..10].to_vec());
        assert!(decode_message(&mut short).is_err());
        assert_eq!(short.len(), 10);
    }

    #[test]
    fn back_to_back_messages_decode_in_sequence() {
        let a = Message::new(Guid::derived(1, 0), 7, Payload::Ping(Ping));
        let b = Message::new(
            Guid::derived(1, 1),
            7,
            Payload::Query(Query { min_speed: 0, criteria: "q".into() }),
        );
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&encode_message(&a));
        stream.extend_from_slice(&encode_message(&b));
        let mut bytes = stream.freeze();
        assert_eq!(decode_message(&mut bytes).unwrap(), a);
        assert_eq!(decode_message(&mut bytes).unwrap(), b);
        assert!(bytes.is_empty());
    }
}
