//! **DD-POLICE** — the paper's core contribution.
//!
//! "The basic idea of DD-POLICE is that all peers are involved in policing
//! their direct neighbors' query behavior by cooperating with each neighbor's
//! r-hop away neighbors, and identify the possible bad peers for
//! disconnection." (§3)
//!
//! The protocol has three steps, each its own module:
//!
//! 1. **Neighbor list exchanging** ([`exchange`]) — peers periodically send
//!    their neighbor lists to each neighbor, creating Buddy Groups
//!    ([`buddy`]): `BG1-j` = the set of `j`'s direct neighbors.
//! 2. **Neighbor query traffic monitoring** — per-neighbor `Out_query` /
//!    `In_query` per-minute counters; in this reproduction the simulator's
//!    overlay keeps them (`ddp_sim::Overlay`), exactly one counter per
//!    directed half-edge.
//! 3. **Bad peer recognition** ([`police`], [`indicator`]) — when a neighbor
//!    exceeds the warning threshold, exchange `Neighbor_Traffic` messages
//!    within its Buddy Group and compute the General and Single indicators;
//!    if either exceeds the cut threshold `CT`, disconnect.
//!
//! [`baselines`] implements the comparison defenses: no defense and naive
//! local rate-limiting (the strawman Figure 1 warns about); the fair-share
//! forwarding baseline lives in the engine (`ddp_sim::ForwardingPolicy`).

pub mod baselines;
pub mod buddy;
pub mod config;
pub mod exchange;
pub mod indicator;
pub mod police;
pub mod verdict;

pub use baselines::NaiveRateLimit;
pub use config::{DdPoliceConfig, MonitorBackend, SketchParams};
/// One peer's traffic claim about a suspect — the input type of
/// [`indicator::judge`] and [`aggregate_group_traffic`].
pub use ddp_sim::TrafficReport;
pub use exchange::ExchangePolicy;
pub use police::{group_traffic_sums, DdPolice, JudgmentTrace, SketchStats};
pub use verdict::{
    aggregate_group_traffic, AggregationPolicy, Hysteresis, ReadmissionPolicy, SuspectEntry,
    SuspectState, VerdictMachine, VerdictShard,
};
