//! Discrete-time overlay flooding simulator.
//!
//! This crate is the substrate the DD-POLICE paper runs its evaluation on: a
//! Gnutella-style unstructured overlay with flooding search, per-peer
//! processing capacities, per-link bandwidth limits, peer churn, and overlay
//! DDoS agents — all advanced in one-minute ticks (the paper's natural
//! accounting unit: every threshold and counter in DD-POLICE is per-minute).
//!
//! ## The batch flooding model
//!
//! Simulating each of an attacker's 20,000 queries/minute as an individual
//! message is infeasible and unnecessary: queries emitted by one origin in
//! one tick flood the same BFS tree. The engine therefore floods
//! **batches** `(origin, count, ttl)` breadth-first with:
//!
//! * per-node processing budgets (a good peer processes ≤ 1,000 queries/min,
//!   measured in §2.3 of the paper),
//! * per-directed-link bandwidth budgets (from the Saroiu bandwidth classes),
//! * duplicate suppression: a batch is processed at most once per node
//!   (exactly the paper's own §2.2 "no query message duplications"
//!   upper-bound assumption, here applied per BFS wave).
//!
//! Good peers' queries are count-1 batches carrying an object id; their
//! success and response time are tracked individually. Attack batches carry
//! no object and only consume capacity — which is precisely how they damage
//! the system.
//!
//! ## Plugging in a defense
//!
//! A [`defense::Defense`] observes each tick's per-edge traffic counters and
//! requests disconnections; the engine applies them, maintains ground-truth
//! error statistics, and (optionally) lets disconnected attackers rejoin —
//! the paper notes "no mechanism can prevent the DDoS agent from joining the
//! system again".

pub mod config;
pub mod defense;
pub mod engine;
pub mod faults;
pub mod flood;
pub mod node;
pub mod overlay;
pub mod pool;
pub mod session;

pub use config::{ForwardingPolicy, SimConfig};
pub use defense::{
    Actions, Defense, FrozenTick, NoDefense, ReportDelivery, TickObservation, TrafficReport,
};
pub use engine::{CutRecord, RunResult, Simulation};
pub use faults::{FaultConfig, FaultPlane, ReportOutcome};
pub use flood::{FloodEngine, FloodOutcome};
pub use node::{ListBehavior, NodeState, ReportBehavior, Role, SlotState};
pub use overlay::Overlay;
pub use session::{SessionConfig, SessionStats, WhitewashConfig, WhitewashRecord};

/// Simulation time: one tick is one minute.
pub type Tick = u32;

/// Seconds per simulation tick.
pub const SECS_PER_TICK: u32 = 60;
