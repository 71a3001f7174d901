//! Experiment harness: one runner per table/figure of the paper.
//!
//! Every runner produces a [`output::Table`] with the same rows/series the
//! paper reports, printable to stdout and exportable as CSV. The
//! `ddp-experiments` binary exposes each runner as a subcommand; EXPERIMENTS.md
//! records paper-vs-measured values.
//!
//! | runner | reproduces |
//! |--------|------------|
//! | [`runners::table1`] | Table 1 — `Neighbor_Traffic` body layout |
//! | [`runners::fig2`] | Figure 2 — indicator worked example |
//! | [`runners::fig5`] / [`runners::fig6`] | §2.3 single-peer capacity curves |
//! | [`runners::fig9`] / [`runners::fig10`] / [`runners::fig11`] | §3.6 attack-impact sweeps (traffic / response time / success rate) |
//! | [`runners::fig12`] | damage rate over time per cut threshold |
//! | [`runners::fig13`] / [`runners::fig14`] | errors and recovery time vs cut threshold |
//! | [`runners::exchange`] | §3.7.1 neighbor-list exchange policy study |
//! | [`runners::cheating`] | §3.4 report-cheating strategies |
//! | `runners::ablate_*` | design-choice ablations (warning threshold, BG radius, forwarding policy, attacker rejoin, report clamp, list lying, topology) |

pub mod bench_report;
pub mod output;
pub mod runners;
pub mod scenario;

pub use output::{ensure_writable_dir, OutputError, Table};
pub use scenario::{DamageReport, DefenseKind, ExpOptions, Scenario, ScenarioReport};
