//! Protocol-level reference implementation of a DD-POLICE servent.
//!
//! The evaluation crates (`ddp-sim`, `ddp-experiments`) use an aggregate
//! batch-flooding simulator for scale. This crate is the *fidelity* layer a
//! real deployment would start from: a complete peer state machine
//! ([`Servent`]) that speaks the actual wire protocol — every Query,
//! QueryHit, Ping/Pong, NeighborList, `Neighbor_Traffic`, and Bye is
//! **encoded to bytes and decoded back on every hop** through an in-memory
//! network ([`network::InMemNetwork`]), exercising `ddp-protocol` exactly
//! as TCP framing would.
//!
//! The servent implements:
//!
//! * Gnutella search: seen-GUID duplicate suppression, local library lookup,
//!   TTL/hops bookkeeping, QueryHits routed back along the inverse path;
//! * DD-POLICE (§3): per-neighbor per-minute In/Out counters, periodic
//!   neighbor-list exchange, warning-threshold suspicion, `Neighbor_Traffic`
//!   collection with a response deadline ("waiting for another 50 seconds")
//!   and assume-zero for silent members, General/Single indicator
//!   evaluation, and defensive disconnection via Bye (code `0x0bad`);
//! * attacker mode: a configurable query-flooding generator.
//!
//! [`harness::Harness`] drives a set of servents second-by-second and is
//! used by the integration tests to validate the protocol end to end at
//! small scale.

pub mod harness;
pub mod network;
pub mod servent;
pub mod wire;

pub use harness::{Harness, HarnessConfig, HarnessReport};
pub use network::InMemNetwork;
pub use servent::{Servent, ServentConfig, ServentRole};
pub use wire::{WireConfig, WireServent, WireSummary};
