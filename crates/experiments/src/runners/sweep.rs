//! The §3.6 attack-impact sweeps: Figures 9 (traffic cost), 10 (response
//! time), 11 (success rate) — three views of one sweep over the number of
//! DDoS agents, in three regimes: no attack, attack without defense, attack
//! with DD-POLICE.

use super::par_map;
use crate::options::ExpOptions;
use crate::output::{f, pct, Table};
use ddp_attack::AttackPlan;
use ddp_oracle::{Attack, DefenseKind, Scenario};
use ddp_police::DdPoliceConfig;

/// One sweep configuration's averaged results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Number of DDoS agents.
    pub agents: usize,
    /// No-attack baseline (flat reference curve).
    pub baseline: RegimeStats,
    /// Attack, no defense.
    pub undefended: RegimeStats,
    /// Attack, DD-POLICE (CT = 5).
    pub defended: RegimeStats,
}

/// The per-regime quantities the three figures plot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegimeStats {
    /// Mean message transmissions per tick.
    pub traffic_per_tick: f64,
    /// Mean response time of successful queries, seconds.
    pub response_secs: f64,
    /// 95th-percentile response time, seconds (streaming P² estimate).
    pub response_p95_secs: f64,
    /// Stabilized success rate (last quarter of the run).
    pub success: f64,
}

/// Agent counts swept (§3.6: "k random peers, where k is ranging from 1 to
/// 200"), capped at 5% of the overlay so reduced-scale runs stay within the
/// paper's attack-density regime (200 agents on 20,000 peers = 1%).
pub fn agent_counts(peers: usize) -> Vec<usize> {
    [1usize, 5, 10, 20, 50, 100, 200].iter().copied().filter(|&k| k * 20 <= peers).collect()
}

/// Run the three-regime sweep. Runs execute on the worker pool with
/// deterministic per-run seeds.
pub fn agent_sweep(opts: &ExpOptions) -> Vec<SweepRow> {
    // Cell 0 is the no-attack baseline every row shares.
    let cells: Vec<usize> = std::iter::once(0).chain(agent_counts(opts.peers)).collect();
    let mut rows = par_map(&cells, |ci, &k| {
        let regime = |defense: DefenseKind| {
            opts.mean_fields(
                |r| {
                    let scenario = Scenario {
                        defense: defense.clone(),
                        attack: Attack::Flood(AttackPlan::new(k)),
                        seed: opts.seed_for(ci, r),
                        ..opts.scenario()
                    };
                    let summary = scenario.run(None).summary;
                    RegimeStats {
                        traffic_per_tick: summary.traffic_per_tick,
                        response_secs: summary.response_time_mean_secs,
                        response_p95_secs: summary.response_p95_secs,
                        success: summary.success_rate_stable,
                    }
                },
                |s| {
                    [
                        &mut s.traffic_per_tick,
                        &mut s.response_secs,
                        &mut s.response_p95_secs,
                        &mut s.success,
                    ]
                },
            )
        };
        let undefended = regime(DefenseKind::None);
        // Nothing to defend against in the baseline cell.
        let police = DefenseKind::DdPolice(DdPoliceConfig::default());
        let defended = if k == 0 { undefended } else { regime(police) };
        // `baseline` is filled in below, once cell 0 has been measured.
        SweepRow { agents: k, baseline: undefended, undefended, defended }
    });
    let baseline = rows.remove(0).undefended;
    rows.iter_mut().for_each(|row| row.baseline = baseline);
    rows
}

/// Figure 9: average traffic cost vs number of agents.
pub fn fig9(rows: &[SweepRow]) -> Table {
    Table::from_columns(
        "fig9_traffic_cost",
        "Figure 9: average traffic cost (msgs/tick, x1000) vs number of DDoS agents",
        rows,
        &[
            ("agents", |r| r.agents.to_string()),
            ("no attack", |r| f(r.baseline.traffic_per_tick / 1e3, 1)),
            ("attack, no defense", |r| f(r.undefended.traffic_per_tick / 1e3, 1)),
            ("attack, DD-POLICE", |r| f(r.defended.traffic_per_tick / 1e3, 1)),
            ("amplification", |r| {
                let amplification =
                    r.undefended.traffic_per_tick / r.baseline.traffic_per_tick.max(1.0);
                format!("{amplification:.1}x")
            }),
        ],
    )
}

/// Figure 10: average query response time vs number of agents.
pub fn fig10(rows: &[SweepRow]) -> Table {
    Table::from_columns(
        "fig10_response_time",
        "Figure 10: average query response time (s) vs number of DDoS agents",
        rows,
        &[
            ("agents", |r| r.agents.to_string()),
            ("no attack", |r| f(r.baseline.response_secs, 2)),
            ("attack, no defense", |r| f(r.undefended.response_secs, 2)),
            ("attack, DD-POLICE", |r| f(r.defended.response_secs, 2)),
            ("slowdown", |r| {
                format!("{:.1}x", r.undefended.response_secs / r.baseline.response_secs.max(1e-9))
            }),
            ("undef. p95", |r| f(r.undefended.response_p95_secs, 2)),
        ],
    )
}

/// Figure 11: average query success rate vs number of agents.
pub fn fig11(rows: &[SweepRow]) -> Table {
    Table::from_columns(
        "fig11_success_rate",
        "Figure 11: average success rate vs number of DDoS agents",
        rows,
        &[
            ("agents", |r| r.agents.to_string()),
            ("no attack", |r| pct(r.baseline.success)),
            ("attack, no defense", |r| pct(r.undefended.success)),
            ("attack, DD-POLICE", |r| pct(r.defended.success)),
        ],
    )
}

/// All three §3.6 figures from a single sweep.
pub fn consequences(opts: &ExpOptions) -> Vec<Table> {
    let rows = agent_sweep(opts);
    vec![fig9(&rows), fig10(&rows), fig11(&rows)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions { peers: 240, ticks: 6, seed: 5, ..ExpOptions::default() }
    }

    #[test]
    fn agent_counts_scale_with_population() {
        assert_eq!(agent_counts(20_000), vec![1, 5, 10, 20, 50, 100, 200]);
        assert_eq!(agent_counts(2_000), vec![1, 5, 10, 20, 50, 100]);
        assert_eq!(agent_counts(240), vec![1, 5, 10]);
        assert_eq!(agent_counts(20), vec![1]);
    }

    #[test]
    fn sweep_shapes_match_the_paper() {
        let rows = agent_sweep(&tiny_opts());
        assert_eq!(rows.len(), 3);
        // Traffic grows with agents (undefended).
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(last.undefended.traffic_per_tick > first.undefended.traffic_per_tick);
        // Attack hurts success; DD-POLICE restores most of it at 10 agents.
        let big = last;
        assert!(big.undefended.success < big.baseline.success);
        assert!(big.defended.success > big.undefended.success);
    }

    #[test]
    fn figures_render_from_one_sweep() {
        let rows = agent_sweep(&tiny_opts());
        let t9 = fig9(&rows);
        let t10 = fig10(&rows);
        let t11 = fig11(&rows);
        assert_eq!(t9.rows.len(), rows.len());
        assert_eq!(t10.rows.len(), rows.len());
        assert_eq!(t11.rows.len(), rows.len());
    }
}
