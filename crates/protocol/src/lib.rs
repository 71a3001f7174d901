//! Gnutella 0.6-style wire protocol with the DD-POLICE extension.
//!
//! DD-POLICE is specified as a Gnutella 0.6 protocol extension (§3.3 of the
//! paper): every message carries the unified 23-byte Gnutella header
//! (16-byte GUID, payload type, TTL, hops, 4-byte payload length), and the
//! defense adds one new payload type, **`Neighbor_Traffic` = `0x83`**, whose
//! body is given in the paper's Table 1:
//!
//! | field | bytes |
//! |-------|-------|
//! | Source IP address   | 4 |
//! | Suspect IP address  | 4 |
//! | Source timestamp    | 4 |
//! | # outgoing queries  | 4 |
//! | # incoming queries  | 4 |
//!
//! Besides `Neighbor_Traffic`, this crate implements the classic descriptors
//! (Ping `0x00`, Pong `0x01`, Bye `0x02`, Query `0x80`, QueryHit `0x81`) and
//! a `NeighborList` (`0x85`) message used by DD-POLICE's neighbor-list
//! exchange step (§3.1; the paper does not pin a payload id for it, so we
//! allocate the next free vendor id).
//!
//! The [`routing`] module provides the GUID "seen" table that implements the
//! Gnutella rule "a query message will be dropped if \[it\] has visited the
//! peer before", plus reverse-path routing for query hits.

pub mod codec;
pub mod error;
pub mod guid;
pub mod header;
pub mod message;
pub mod routing;

pub use codec::{check_frame, decode_frame, decode_message, encode_message};
pub use error::ProtocolError;
pub use guid::Guid;
pub use header::{forward_frame, Header, PayloadKind, HEADER_LEN, KIND_AT, MAX_PAYLOAD_LEN};
pub use message::{
    Bye, Message, NeighborList, NeighborTraffic, Payload, PeerAddr, Ping, Pong, Query, QueryHit,
    QueryHitResult, QueryRef, Receipt,
};
pub use routing::SeenTable;
