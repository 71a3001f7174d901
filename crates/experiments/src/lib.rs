//! Experiment harness: one runner per table/figure of the paper.
//!
//! Every runner produces a [`output::Table`] with the same rows/series the
//! paper reports, printable to stdout and exportable as CSV. The
//! `ddp-experiments` binary exposes the runners as subcommands from one
//! `COMMANDS` table (`src/main.rs`), one row each below; EXPERIMENTS.md
//! records paper-vs-measured values.
//!
//! | command | in `all` | tables it emits (runner) |
//! |---------|----------|--------------------------|
//! | `table1` | yes | Table 1, `Neighbor_Traffic` body layout ([`runners::table1`]) |
//! | `fig2` | yes | Figure 2, indicator worked example ([`runners::fig2`]) |
//! | `fig5` | yes | §2.3 queries sent vs processed ([`runners::fig5`]) |
//! | `fig6` | yes | §2.3 drop rate vs query density ([`runners::fig6`]) |
//! | `fig9` | no | §3.6 traffic cost vs agents ([`runners::fig9`] over [`runners::agent_sweep`]) |
//! | `fig10` | no | §3.6 response time vs agents ([`runners::fig10`], same sweep) |
//! | `fig11` | no | §3.6 success rate vs agents ([`runners::fig11`], same sweep) |
//! | `consequences` | yes | Figures 9–11 from one sweep ([`runners::consequences`]) |
//! | `fig12` | yes | damage rate over time per cut threshold ([`runners::fig12`]) |
//! | `fig13` | no | errors vs cut threshold ([`runners::fig13`] over [`runners::ct_sweep`]) |
//! | `fig14` | no | recovery time vs cut threshold ([`runners::fig14`], same sweep) |
//! | `ct` | yes | Figures 13–14 from one sweep |
//! | `exchange` | yes | §3.7.1 neighbor-list exchange policy study ([`runners::exchange`]) |
//! | `cheating` | yes | §3.4 report-cheating strategies ([`runners::cheating`]) |
//! | `resilience` | yes | lossy/delayed control plane ([`runners::resilience`]) |
//! | `collusion` | yes | coalition sweep, then readmission ([`runners::collusion`], [`runners::readmission`]) |
//! | `ablations` | yes | warning threshold, BG radius, forwarding policy, attacker rejoin, report clamp, list lying, topology (`runners::ablate_*`) |
//! | `structured` | yes | flooding overlay vs Chord-like DHT ([`runners::structured`]) |
//! | `scale` | no | step-loop throughput; writes `BENCH_scale.json` ([`runners::scale`], [`bench_report`]) |
//! | `sketch` | no | exact-vs-sketch monitor; writes `BENCH_sketch.json` ([`runners::sketch`]) |
//! | `churn` | no | session churn × whitewashing; writes `BENCH_churn.json` ([`runners::churn`]) |
//! | `fuzz` | no | engine-vs-oracle differential campaign ([`runners::fuzz`]) |
//! | `testbed` | no | sim-vs-wire cross-validation ([`runners::testbed`]) |
//! | `soak` | no | crash-recovery soak on the wire ([`runners::soak`]) |

pub mod bench_report;
pub mod options;
pub mod output;
pub mod runners;

pub use options::ExpOptions;
pub use output::{ensure_writable_dir, OutputError, Table};
