//! # ddpolice — a reproduction of DD-POLICE (ICPP 2007)
//!
//! *"Defending P2Ps from Overlay Flooding-based DDoS"* — Yunhao Liu,
//! Xiaomei Liu, Chen Wang, Li Xiao.
//!
//! This facade crate re-exports the whole workspace as one coherent public
//! API. The pieces:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`topology`] | `ddp-topology` | BRITE-substitute overlay generators, graph structures |
//! | [`protocol`] | `ddp-protocol` | Gnutella-style wire protocol incl. the `Neighbor_Traffic` (0x83) message |
//! | [`workload`] | `ddp-workload` | query/churn/bandwidth workload models |
//! | [`metrics`]  | `ddp-metrics` | damage rate, success rate, error and recovery-time accounting |
//! | [`sim`]      | `ddp-sim` | the discrete-time overlay flooding simulator |
//! | [`attack`]   | `ddp-attack` | overlay DDoS agent models and cheating strategies |
//! | [`police`]   | `ddp-police` | **the paper's contribution**: DD-POLICE plus baseline defenses |
//! | [`oracle`]   | `ddp-oracle` | the one run description (`Scenario`), naive reference model of DD-POLICE + differential fuzz harness |
//! | [`testbed`]  | `ddp-testbed` | the §2.3 single-peer capacity testbed (Figures 5–6) |
//! | [`dht`] | `ddp-dht` | Chord-like structured overlay (the paper's §5 future work) |
//! | [`servent`] | `ddp-servent` | protocol-level reference peer: wire messages on every hop |
//! | [`snapshot`] | `ddp-snapshot` | crash-safe checkpoint container + byte codec |
//! | [`experiments`] | `ddp-experiments` | one runner per paper table/figure |
//!
//! ## Quickstart
//!
//! ```
//! use ddpolice::prelude::*;
//!
//! // A small overlay, 30 simulated minutes, 10 DDoS agents, DD-POLICE on.
//! let scenario = Scenario {
//!     sim: SimConfig {
//!         topology: TopologyConfig { n: 500, ..TopologyConfig::default() },
//!         ..SimConfig::default()
//!     },
//!     defense: DefenseKind::DdPolice(DdPoliceConfig::with_cut_threshold(5.0)),
//!     attack: Attack::Flood(AttackPlan::new(10)),
//!     ticks: 30,
//!     seed: 42,
//!     ..Scenario::default()
//! };
//! let report = scenario.run(None);
//! assert!(report.summary.success_rate_mean > 0.0);
//! ```

pub use ddp_attack as attack;
pub use ddp_dht as dht;
pub use ddp_experiments as experiments;
pub use ddp_metrics as metrics;
pub use ddp_oracle as oracle;
pub use ddp_police as police;
pub use ddp_protocol as protocol;
pub use ddp_servent as servent;
pub use ddp_sim as sim;
pub use ddp_snapshot as snapshot;
pub use ddp_testbed as testbed;
pub use ddp_topology as topology;
pub use ddp_workload as workload;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use ddp_attack::{AttackPlan, CheatStrategy};
    pub use ddp_dht::{DhtConfig, DhtSimulation};
    pub use ddp_experiments::ExpOptions;
    pub use ddp_metrics::summary::RunSummary;
    pub use ddp_oracle::{Attack, DefenseKind, Scenario};
    pub use ddp_police::{DdPolice, DdPoliceConfig, ExchangePolicy, NaiveRateLimit};
    pub use ddp_servent::{Harness, HarnessConfig, Servent, ServentRole};
    pub use ddp_sim::config::SimConfig;
    pub use ddp_sim::{ListBehavior, ReportBehavior, Simulation};
    pub use ddp_topology::{NodeId, TopologyConfig, TopologyModel};
}
