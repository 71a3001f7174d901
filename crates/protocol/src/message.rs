//! Payload types and their wire encodings.

use crate::error::ProtocolError;
use bytes::{Buf, BufMut};
use std::fmt;
use std::net::Ipv4Addr;

/// Encoded length of a [`PeerAddr`]: four address bytes and the port.
const PEER_ADDR_LEN: usize = 6;

/// A peer's transport address as carried on the wire (IPv4 + port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeerAddr {
    pub ip: Ipv4Addr,
    pub port: u16,
}

impl PeerAddr {
    /// Synthesize a stable fake address from a simulator node index.
    ///
    /// The simulator does not route real packets; addresses only serve as
    /// identifiers inside messages (the paper's Table 1 carries IPs).
    pub fn from_node_index(i: u32) -> Self {
        let octets = (0x0a00_0000u32 | (i & 0x00ff_ffff)).to_be_bytes(); // 10.x.y.z
        PeerAddr { ip: Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]), port: 6346 }
    }

    /// Recover the simulator node index a [`PeerAddr::from_node_index`]
    /// address encodes (the low 24 bits of the 10.x.y.z address).
    pub fn node_index(&self) -> u32 {
        u32::from_be_bytes(self.ip.octets()) & 0x00ff_ffff
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.ip.octets());
        buf.put_u16_le(self.port);
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, ProtocolError> {
        if buf.remaining() < PEER_ADDR_LEN {
            return Err(ProtocolError::MalformedPayload("truncated peer address"));
        }
        let mut oct = [0u8; 4];
        buf.copy_to_slice(&mut oct);
        let port = buf.get_u16_le();
        Ok(PeerAddr { ip: Ipv4Addr::from(oct), port })
    }
}

impl fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// `0x00` — keep-alive probe (empty body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ping;

/// `0x01` — ping response with the responder's address and shared-content
/// advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pong {
    pub addr: PeerAddr,
    pub shared_files: u32,
    pub shared_kb: u32,
}

/// `0x02` — graceful disconnect with a reason code.
///
/// DD-POLICE sends a Bye when it disconnects a suspect so that "the good peer
/// in this pair could start to pay more attention to the other peer" (§3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bye {
    /// Reason code; [`Bye::CODE_DDOS_SUSPECT`] marks defensive cuts.
    pub code: u16,
    pub reason: String,
}

impl Bye {
    /// Reason code used when DD-POLICE disconnects a suspected DDoS agent.
    pub const CODE_DDOS_SUSPECT: u16 = 0x0bad;
    /// Reason code used when a neighbor-list consistency check fails.
    pub const CODE_LIST_INCONSISTENT: u16 = 0x0bae;
}

/// `0x80` — flooded search query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Minimum speed (kbps) a responder should have; legacy field.
    pub min_speed: u16,
    /// Search string (the simulator stores the object id in decimal).
    pub criteria: String,
}

/// One result inside a query hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHitResult {
    pub file_index: u32,
    pub file_size: u32,
    pub file_name: String,
}

/// `0x81` — query hit, routed back along the query's inverse path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHit {
    pub addr: PeerAddr,
    pub speed_kbps: u32,
    pub results: Vec<QueryHitResult>,
    /// Responder's servent id (16 bytes).
    pub servent_id: [u8; 16],
}

/// `0x83` — the paper's `Neighbor_Traffic` message body (Table 1).
///
/// "The first three fields contain the source IP address of the current peer,
/// the IP address of the suspicious neighbor, and the time the source sends
/// out the message. The last two fields are the number of queries sent out
/// from the source peer to the suspicious peer, and the number of queries
/// that came from the suspicious peer to the source in the past one minute."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborTraffic {
    /// Source IP address of the reporting peer.
    pub source_ip: Ipv4Addr,
    /// IP address of the suspected DDoS peer.
    pub suspect_ip: Ipv4Addr,
    /// Time (simulation seconds / UNIX-style) the report was generated.
    pub timestamp: u32,
    /// `Out_query(suspect)`: queries sent from source to suspect, last minute.
    pub outgoing_queries: u32,
    /// `In_query(suspect)`: queries received from suspect, last minute.
    pub incoming_queries: u32,
}

/// Byte length of the Table 1 body: 5 fields x 4 bytes.
pub const NEIGHBOR_TRAFFIC_LEN: usize = 20;

/// `0x85` — neighbor-list exchange body (§3.1): the sender's current logical
/// neighbors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NeighborList {
    pub neighbors: Vec<PeerAddr>,
}

/// `0x86` — per-link fresh-query receipt (extension; not in the paper).
///
/// "In the past minute I accepted `fresh_queries` *non-duplicate* queries
/// from you." Receiver-side duplicate-filtered counts are what Definitions
/// 2.1–2.3 implicitly assume (their §2.2 no-duplication model); at protocol
/// level, an attacker flooding *distinct* queries per link (Figure 1) gets
/// its own traffic echoed back into it along 2-hop paths, which inflates
/// sender-measured `Q_{m→j}` enough to exonerate it — receipts close that
/// hole for honest reporters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// Whose traffic the receipt covers (the neighbor being told).
    pub subject_ip: Ipv4Addr,
    /// Fresh (non-duplicate) queries accepted from the subject, last minute.
    pub fresh_queries: u32,
}

/// A payload of any kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    Ping(Ping),
    Pong(Pong),
    Bye(Bye),
    Query(Query),
    QueryHit(QueryHit),
    NeighborTraffic(NeighborTraffic),
    NeighborList(NeighborList),
    Receipt(Receipt),
}

impl Payload {
    /// The descriptor byte for this payload.
    pub fn kind(&self) -> crate::header::PayloadKind {
        use crate::header::PayloadKind as K;
        match self {
            Payload::Ping(_) => K::Ping,
            Payload::Pong(_) => K::Pong,
            Payload::Bye(_) => K::Bye,
            Payload::Query(_) => K::Query,
            Payload::QueryHit(_) => K::QueryHit,
            Payload::NeighborTraffic(_) => K::NeighborTraffic,
            Payload::NeighborList(_) => K::NeighborList,
            Payload::Receipt(_) => K::Receipt,
        }
    }

    /// Encode just the payload body.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Payload::Ping(_) => {}
            Payload::Pong(p) => {
                p.addr.encode(buf);
                buf.put_u32_le(p.shared_files);
                buf.put_u32_le(p.shared_kb);
            }
            Payload::Bye(b) => {
                buf.put_u16_le(b.code);
                buf.put_slice(b.reason.as_bytes());
                buf.put_u8(0);
            }
            Payload::Query(q) => {
                buf.put_u16_le(q.min_speed);
                buf.put_slice(q.criteria.as_bytes());
                buf.put_u8(0);
            }
            Payload::QueryHit(qh) => {
                buf.put_u8(qh.results.len() as u8);
                qh.addr.encode(buf);
                buf.put_u32_le(qh.speed_kbps);
                for r in &qh.results {
                    buf.put_u32_le(r.file_index);
                    buf.put_u32_le(r.file_size);
                    buf.put_slice(r.file_name.as_bytes());
                    buf.put_u8(0);
                    buf.put_u8(0);
                }
                buf.put_slice(&qh.servent_id);
            }
            Payload::NeighborTraffic(nt) => {
                buf.put_slice(&nt.source_ip.octets());
                buf.put_slice(&nt.suspect_ip.octets());
                buf.put_u32_le(nt.timestamp);
                buf.put_u32_le(nt.outgoing_queries);
                buf.put_u32_le(nt.incoming_queries);
            }
            Payload::NeighborList(nl) => {
                buf.put_u16_le(nl.neighbors.len() as u16);
                for a in &nl.neighbors {
                    a.encode(buf);
                }
            }
            Payload::Receipt(r) => {
                buf.put_slice(&r.subject_ip.octets());
                buf.put_u32_le(r.fresh_queries);
            }
        }
    }

    /// Length in bytes of the encoded body, computed from the fields.
    pub fn encoded_len(&self) -> usize {
        match self {
            Payload::Ping(_) => 0,
            Payload::Pong(_) => PEER_ADDR_LEN + 8,
            Payload::Bye(b) => 2 + b.reason.len() + 1,
            Payload::Query(q) => 2 + q.criteria.len() + 1,
            Payload::QueryHit(qh) => {
                let results: usize = qh.results.iter().map(|r| 8 + r.file_name.len() + 2).sum();
                1 + PEER_ADDR_LEN + 4 + results + 16
            }
            Payload::NeighborTraffic(_) => NEIGHBOR_TRAFFIC_LEN,
            Payload::NeighborList(nl) => 2 + PEER_ADDR_LEN * nl.neighbors.len(),
            Payload::Receipt(_) => 8,
        }
    }

    /// Decode a payload body of the given kind from the front of `buf`,
    /// taking ownership of every string it reads.
    pub fn decode(
        kind: crate::header::PayloadKind,
        buf: &mut &[u8],
    ) -> Result<Self, ProtocolError> {
        read_payload::<true>(kind, buf)
    }
}

/// The one payload parser. With `KEEP` it builds the payload; without, it
/// makes every read `decode` makes, so it fails exactly where `decode`
/// fails, but leaves strings and lists empty and so allocates nothing.
pub(crate) fn read_payload<const KEEP: bool>(
    kind: crate::header::PayloadKind,
    buf: &mut &[u8],
) -> Result<Payload, ProtocolError> {
    use crate::header::PayloadKind as K;
    let own = |s: &str| if KEEP { s.to_owned() } else { String::new() };
    Ok(match kind {
        K::Ping => Payload::Ping(Ping),
        K::Pong => {
            let addr = PeerAddr::decode(buf)?;
            if buf.remaining() < 8 {
                return Err(ProtocolError::MalformedPayload("truncated pong"));
            }
            Payload::Pong(Pong {
                addr,
                shared_files: buf.get_u32_le(),
                shared_kb: buf.get_u32_le(),
            })
        }
        K::Bye => {
            if buf.remaining() < 2 {
                return Err(ProtocolError::MalformedPayload("truncated bye"));
            }
            let code = buf.get_u16_le();
            Payload::Bye(Bye { code, reason: own(read_cstr(buf)?) })
        }
        K::Query => {
            let q = QueryRef::read(buf)?;
            Payload::Query(Query { min_speed: q.min_speed, criteria: own(q.criteria) })
        }
        K::QueryHit => {
            if buf.remaining() < 1 {
                return Err(ProtocolError::MalformedPayload("truncated query hit"));
            }
            let n = buf.get_u8() as usize;
            let addr = PeerAddr::decode(buf)?;
            if buf.remaining() < 4 {
                return Err(ProtocolError::MalformedPayload("truncated query hit speed"));
            }
            let speed_kbps = buf.get_u32_le();
            let mut results = Vec::with_capacity(if KEEP { n } else { 0 });
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return Err(ProtocolError::MalformedPayload("truncated hit result"));
                }
                let file_index = buf.get_u32_le();
                let file_size = buf.get_u32_le();
                let file_name = read_cstr(buf)?;
                if buf.remaining() < 1 || buf.get_u8() != 0 {
                    return Err(ProtocolError::MalformedPayload(
                        "missing double-null after file name",
                    ));
                }
                if KEEP {
                    results.push(QueryHitResult {
                        file_index,
                        file_size,
                        file_name: own(file_name),
                    });
                }
            }
            if buf.remaining() < 16 {
                return Err(ProtocolError::MalformedPayload("truncated servent id"));
            }
            let mut servent_id = [0u8; 16];
            buf.copy_to_slice(&mut servent_id);
            Payload::QueryHit(QueryHit { addr, speed_kbps, results, servent_id })
        }
        K::NeighborTraffic => {
            if buf.remaining() < NEIGHBOR_TRAFFIC_LEN {
                return Err(ProtocolError::MalformedPayload("truncated neighbor traffic"));
            }
            let mut src = [0u8; 4];
            buf.copy_to_slice(&mut src);
            let mut sus = [0u8; 4];
            buf.copy_to_slice(&mut sus);
            Payload::NeighborTraffic(NeighborTraffic {
                source_ip: Ipv4Addr::from(src),
                suspect_ip: Ipv4Addr::from(sus),
                timestamp: buf.get_u32_le(),
                outgoing_queries: buf.get_u32_le(),
                incoming_queries: buf.get_u32_le(),
            })
        }
        K::NeighborList => {
            if buf.remaining() < 2 {
                return Err(ProtocolError::MalformedPayload("truncated neighbor list"));
            }
            let n = buf.get_u16_le() as usize;
            let mut neighbors = Vec::with_capacity(if KEEP { n.min(1024) } else { 0 });
            for _ in 0..n {
                let addr = PeerAddr::decode(buf)?;
                if KEEP {
                    neighbors.push(addr);
                }
            }
            Payload::NeighborList(NeighborList { neighbors })
        }
        K::Receipt => {
            if buf.remaining() < 8 {
                return Err(ProtocolError::MalformedPayload("truncated receipt"));
            }
            let mut oct = [0u8; 4];
            buf.copy_to_slice(&mut oct);
            Payload::Receipt(Receipt {
                subject_ip: Ipv4Addr::from(oct),
                fresh_queries: buf.get_u32_le(),
            })
        }
    })
}

/// A Query body read in place: the search string borrows the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRef<'a> {
    pub min_speed: u16,
    pub criteria: &'a str,
}

impl<'a> QueryRef<'a> {
    /// Read a Query body from the front of `buf`, advancing past it.
    pub fn read(buf: &mut &'a [u8]) -> Result<Self, ProtocolError> {
        if buf.remaining() < 2 {
            return Err(ProtocolError::MalformedPayload("truncated query"));
        }
        let min_speed = buf.get_u16_le();
        Ok(QueryRef { min_speed, criteria: read_cstr(buf)? })
    }
}

/// Read a NUL-terminated UTF-8 string in place, advancing past its NUL.
fn read_cstr<'a>(buf: &mut &'a [u8]) -> Result<&'a str, ProtocolError> {
    let unread: &'a [u8] = buf;
    let len = unread
        .iter()
        .position(|&b| b == 0)
        .ok_or(ProtocolError::MalformedPayload("unterminated string"))?;
    let text = std::str::from_utf8(&unread[..len])
        .map_err(|_| ProtocolError::MalformedPayload("non-utf8 string"))?;
    *buf = &unread[len + 1..];
    Ok(text)
}

/// A complete message: header plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    pub header: crate::header::Header,
    pub payload: Payload,
}

impl Message {
    /// Build a message with a fresh header for the given payload.
    pub fn new(guid: crate::guid::Guid, ttl: u8, payload: Payload) -> Self {
        Message {
            header: crate::header::Header {
                guid,
                kind: payload.kind(),
                ttl,
                hops: 0,
                payload_len: payload.encoded_len() as u32,
            },
            payload,
        }
    }

    /// Total encoded size (header + payload) in bytes.
    pub fn wire_len(&self) -> usize {
        crate::header::HEADER_LEN + self.header.payload_len as usize
    }
}

#[cfg(test)]
mod addr_tests {
    use super::*;

    #[test]
    fn node_index_roundtrips_through_the_address() {
        for i in [0u32, 1, 77, 65_535, 0x00ff_ffff] {
            assert_eq!(PeerAddr::from_node_index(i).node_index(), i);
        }
    }
}
