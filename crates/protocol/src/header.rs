//! The unified 23-byte Gnutella message header.

use crate::error::ProtocolError;
use crate::guid::Guid;
use bytes::{Buf, BufMut};

/// Length of the fixed Gnutella header: GUID(16) + kind(1) + TTL(1) +
/// hops(1) + payload length(4).
pub const HEADER_LEN: usize = 23;

/// Offset of the payload kind byte in an encoded header.
pub const KIND_AT: usize = 16;
/// Offset of the TTL byte in an encoded header.
const TTL_AT: usize = 17;
/// Offset of the hop-count byte in an encoded header.
const HOPS_AT: usize = 18;

/// Sanity cap on the payload length field; real servents drop anything
/// claiming more (protects the decoder from hostile length fields).
pub const MAX_PAYLOAD_LEN: usize = 64 * 1024;

/// Payload descriptor byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PayloadKind {
    /// `0x00` — keep-alive probe (also used for Buddy Group liveness pings,
    /// §3.1: "A peer pings members within the same BG periodically").
    Ping = 0x00,
    /// `0x01` — ping response.
    Pong = 0x01,
    /// `0x02` — graceful disconnect notice; DD-POLICE uses it to carry the
    /// reason for a defensive disconnection (§3.1).
    Bye = 0x02,
    /// `0x80` — flooded search query.
    Query = 0x80,
    /// `0x81` — query hit, routed back along the inverse query path.
    QueryHit = 0x81,
    /// `0x83` — DD-POLICE `Neighbor_Traffic` (the paper's Table 1).
    NeighborTraffic = 0x83,
    /// `0x85` — DD-POLICE neighbor-list exchange (id chosen by us; the paper
    /// leaves it unspecified).
    NeighborList = 0x85,
    /// `0x86` — per-link fresh-query receipt (our protocol-level extension:
    /// the receiver-measured, duplicate-filtered `Q_{u→v}` the indicators
    /// need; see `ddp-servent` docs).
    Receipt = 0x86,
}

impl PayloadKind {
    /// Parse a descriptor byte.
    pub fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        Ok(match b {
            0x00 => PayloadKind::Ping,
            0x01 => PayloadKind::Pong,
            0x02 => PayloadKind::Bye,
            0x80 => PayloadKind::Query,
            0x81 => PayloadKind::QueryHit,
            0x83 => PayloadKind::NeighborTraffic,
            0x85 => PayloadKind::NeighborList,
            0x86 => PayloadKind::Receipt,
            other => return Err(ProtocolError::UnknownPayloadKind(other)),
        })
    }
}

/// The fixed header preceding every payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Descriptor ID for duplicate suppression / reverse routing.
    pub guid: Guid,
    /// Payload descriptor.
    pub kind: PayloadKind,
    /// Remaining times this message may be forwarded.
    pub ttl: u8,
    /// Times this message has been forwarded so far.
    pub hops: u8,
    /// Length in bytes of the payload that follows.
    pub payload_len: u32,
}

impl Header {
    /// Encode into a buffer (exactly [`HEADER_LEN`] bytes).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(self.guid.as_bytes());
        buf.put_u8(self.kind as u8);
        buf.put_u8(self.ttl);
        buf.put_u8(self.hops);
        buf.put_u32_le(self.payload_len);
    }

    /// Decode from a buffer.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ProtocolError> {
        if buf.remaining() < HEADER_LEN {
            return Err(ProtocolError::TruncatedHeader { have: buf.remaining() });
        }
        let mut guid = [0u8; 16];
        buf.copy_to_slice(&mut guid);
        let kind = PayloadKind::from_byte(buf.get_u8())?;
        let ttl = buf.get_u8();
        let hops = buf.get_u8();
        let payload_len = buf.get_u32_le();
        if payload_len as usize > MAX_PAYLOAD_LEN {
            return Err(ProtocolError::OversizedPayload {
                len: payload_len as usize,
                cap: MAX_PAYLOAD_LEN,
            });
        }
        Ok(Header { guid: Guid(guid), kind, ttl, hops, payload_len })
    }

    /// The standard forwarding transformation: decrement TTL, increment hops.
    ///
    /// Returns `None` when the TTL is exhausted and the message must not be
    /// forwarded further.
    pub fn forwarded(mut self) -> Option<Self> {
        (self.ttl, self.hops) = next_hop(self.ttl, self.hops)?;
        Some(self)
    }
}

/// The forwarding rule on a `(ttl, hops)` pair: `None` once the TTL is spent.
fn next_hop(ttl: u8, hops: u8) -> Option<(u8, u8)> {
    (ttl > 1).then(|| (ttl - 1, hops.saturating_add(1)))
}

/// Forward an encoded frame in place: its TTL and hop-count bytes are
/// rewritten by the rule of [`Header::forwarded`] and no other byte changes.
/// Returns `false`, leaving the frame as it was, when the TTL is spent or the
/// frame is shorter than a header.
pub fn forward_frame(frame: &mut [u8]) -> bool {
    let Some(&[ttl, hops]) = frame.get(TTL_AT..=HOPS_AT) else { return false };
    let Some((ttl, hops)) = next_hop(ttl, hops) else { return false };
    frame[TTL_AT] = ttl;
    frame[HOPS_AT] = hops;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample() -> Header {
        Header {
            guid: Guid::derived(1, 2),
            kind: PayloadKind::Query,
            ttl: 7,
            hops: 0,
            payload_len: 42,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let mut bytes = buf.freeze();
        let h2 = Header::decode(&mut bytes).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn header_is_23_bytes_as_paper_states() {
        // §3.3: "In addition to the Gnutella's unified 23-byte header..."
        assert_eq!(HEADER_LEN, 23);
    }

    #[test]
    fn truncated_header_rejected() {
        let mut short: &[u8] = &[0u8; 10];
        assert!(matches!(
            Header::decode(&mut short),
            Err(ProtocolError::TruncatedHeader { have: 10 })
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        buf[KIND_AT] = 0x7f; // bogus descriptor
        let mut bytes = buf.freeze();
        assert_eq!(Header::decode(&mut bytes), Err(ProtocolError::UnknownPayloadKind(0x7f)));
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut h = sample();
        h.payload_len = (MAX_PAYLOAD_LEN + 1) as u32;
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(matches!(Header::decode(&mut bytes), Err(ProtocolError::OversizedPayload { .. })));
    }

    #[test]
    fn neighbor_traffic_kind_is_0x83() {
        // §3.3: "The payload type of this message can be defined as 0x83."
        assert_eq!(PayloadKind::NeighborTraffic as u8, 0x83);
        assert_eq!(PayloadKind::from_byte(0x83).unwrap(), PayloadKind::NeighborTraffic);
    }

    #[test]
    fn forwarding_decrements_ttl() {
        let h = sample();
        let f = h.forwarded().unwrap();
        assert_eq!(f.ttl, 6);
        assert_eq!(f.hops, 1);
        let mut last = Header { ttl: 1, ..sample() };
        assert!(last.forwarded().is_none());
        last.ttl = 0;
        assert!(last.forwarded().is_none());
        let saturated = Header { hops: u8::MAX, ..sample() }.forwarded().unwrap();
        assert_eq!(saturated.hops, u8::MAX);
    }

    #[test]
    fn forwarding_in_place_rewrites_two_bytes_by_the_same_rule() {
        for ttl in 0..=u8::MAX {
            for hops in [0, 1, 7, 254, u8::MAX] {
                let h = Header { ttl, hops, ..sample() };
                let mut frame = BytesMut::new();
                h.encode(&mut frame);
                let before = frame.to_vec();
                match h.forwarded() {
                    Some(next) => {
                        assert!(forward_frame(&mut frame));
                        let mut want = BytesMut::new();
                        next.encode(&mut want);
                        assert_eq!(frame[..], want[..], "ttl {ttl} hops {hops}");
                    }
                    None => {
                        assert!(!forward_frame(&mut frame));
                        assert_eq!(frame.to_vec(), before, "a spent frame is left as it was");
                    }
                }
            }
        }
        assert!(!forward_frame(&mut [7u8; TTL_AT]), "too short to hold a TTL");
    }
}
