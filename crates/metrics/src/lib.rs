//! Evaluation metrics for the DD-POLICE reproduction.
//!
//! The paper's evaluation (§3.6–§3.7) reports:
//!
//! * **traffic cost** — "a function of consumed network bandwidth and other
//!   related expenses"; we count message-hops per tick ([`traffic`]).
//! * **response time** — time from query issue to the first response
//!   ([`response`]).
//! * **query success rate** — `S(t) = qs(t) / qw(t)` ([`success`]).
//! * **damage rate** — `D(t) = (S(t) − S'(t)) / S(t)` where `S` is the
//!   no-attack success rate and `S'` the under-attack one ([`damage`]).
//! * **detection errors** — the paper's (inverted, we keep its naming)
//!   *false negative* = good peers wrongly disconnected, *false positive* =
//!   bad peers not identified, *false judgment* = their sum ([`errors`]).
//! * **damage recovery time** — ticks from `D(t) ≥ 20%` until `D(t) ≤ 15%`
//!   ([`recovery`]).

pub mod alloc;
pub mod conn;
pub mod damage;
pub mod determinism;
pub mod errors;
pub mod histogram;
pub mod jsonio;
pub mod phases;
pub mod quantile;
pub mod recovery;
pub mod resilience;
pub mod response;
pub mod success;
pub mod summary;
pub mod timeseries;
pub mod traffic;
pub mod verdict;

pub use alloc::CountingAlloc;
pub use conn::ConnCounters;
pub use damage::damage_rate;
pub use determinism::{HashSeries, ParallelStats};
pub use errors::DetectionErrors;
pub use histogram::Histogram;
pub use jsonio::{json_array, json_escape, json_f64, JsonObj};
pub use phases::{PolicePhases, StepPhases};
pub use quantile::P2Quantile;
pub use recovery::{recovery_time, RecoveryThresholds};
pub use resilience::ResilienceSummary;
pub use response::ResponseStats;
pub use success::SuccessStats;
pub use summary::RunSummary;
pub use timeseries::TimeSeries;
pub use traffic::TrafficAccumulator;
pub use verdict::{PeerVerdict, VerdictLedger, VerdictSummary, VerdictTransition};
