//! Control-plane resilience sweep (extension beyond the paper).
//!
//! DD-POLICE is specified over a reliable same-tick transport. This runner
//! measures how the protocol degrades when `Neighbor_Traffic` and
//! neighbor-list messages are lost or delayed: loss ∈ {0, 1, 5, 10, 20}% ×
//! reply/list delay ∈ {0, 1, 2} ticks × exchange period s ∈ {1, 2, 5} min,
//! with paired seeds per period so every fault level sees the same topology,
//! churn, and attack. Δ columns compare each cell against its own
//! fault-free (loss = 0, delay = 0) cell.

use super::par_map;
use crate::options::ExpOptions;
use crate::output::{f, pct, Table};
use ddp_oracle::{DefenseKind, Scenario};
use ddp_police::{DdPoliceConfig, ExchangePolicy};
use ddp_sim::{CutRecord, FaultConfig};
use std::collections::HashMap;

/// Swept per-message loss probabilities.
pub const LOSSES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];
/// Swept delivery delays (ticks) for delayed messages; 0 = no delay leg.
pub const DELAYS: [u32; 3] = [0, 1, 2];
/// Swept neighbor-list exchange periods (minutes).
pub const PERIODS: [u32; 3] = [1, 2, 5];

/// Probability that a surviving message is delayed, when the delay leg is on.
const DELAY_PROB: f64 = 0.5;

/// One measured grid cell.
#[derive(Debug, Clone)]
pub struct ResilienceCell {
    /// Exchange period s (minutes).
    pub period: u32,
    /// Per-message loss probability.
    pub loss: f64,
    /// Delay of delayed messages (ticks); 0 = delays off.
    pub delay: u32,
    /// Fraction of answerable report lookups resolved by assume-zero.
    pub missed_report_rate: f64,
    /// Mean membership-snapshot age behind judgments (ticks).
    pub snapshot_age: f64,
    /// Mean ticks from attack start to each agent's first cut (agents never
    /// cut censored at `ticks + 1`).
    pub detection_latency: f64,
    /// Wrongly disconnected good peers (paper's false negatives).
    pub good_peers_cut: f64,
    /// Agents that were never disconnected.
    pub attackers_never_cut: f64,
    /// Transport retries the bounded re-request budget spent.
    pub retries: f64,
}

/// Mean first-cut tick over all `agents`, censoring never-cut agents at
/// `ticks + 1` (an agent the run never caught is "at least this slow").
pub fn detection_latency(cut_log: &[CutRecord], agents: usize, ticks: usize) -> f64 {
    if agents == 0 {
        return 0.0;
    }
    let mut first: HashMap<u32, u32> = HashMap::new();
    for c in cut_log.iter().filter(|c| c.suspect_was_attacker) {
        first.entry(c.suspect.0).or_insert(c.tick);
    }
    let censor = (ticks + 1) as f64;
    let caught_sum: f64 = first.values().map(|&t| t as f64).sum();
    let uncaught = agents.saturating_sub(first.len()) as f64;
    (caught_sum + uncaught * censor) / agents as f64
}

/// Run the full grid. Exposed separately from [`resilience`] so tests can
/// assert on the numbers rather than on formatted strings.
pub fn resilience_grid(opts: &ExpOptions) -> Vec<ResilienceCell> {
    let grid: Vec<(u32, f64, u32)> = PERIODS
        .iter()
        .flat_map(|&s| LOSSES.iter().flat_map(move |&l| DELAYS.iter().map(move |&d| (s, l, d))))
        .collect();

    par_map(&grid, |_, &(period, loss, delay)| {
        let police = DdPoliceConfig {
            exchange: ExchangePolicy::Periodic { minutes: period },
            ..DdPoliceConfig::default()
        };
        let mut scenario = Scenario { defense: DefenseKind::DdPolice(police), ..opts.scenario() };
        scenario.sim.faults = FaultConfig {
            loss,
            delay_prob: if delay > 0 { DELAY_PROB } else { 0.0 },
            delay_ticks: delay.max(1),
            crash_prob: 0.0,
        };
        opts.mean_fields(
            |r| {
                // Paired per period: every (loss, delay) cell of one period
                // row sees identical topology/churn/attack.
                let seed = opts.seed_for(period as usize, r);
                let report = Scenario { seed, ..scenario.clone() }.run(None);
                let res = &report.summary.resilience;
                ResilienceCell {
                    period,
                    loss,
                    delay,
                    missed_report_rate: res.missed_report_rate(),
                    snapshot_age: res.mean_snapshot_age(),
                    detection_latency: detection_latency(&report.cut_log, opts.agents, opts.ticks),
                    good_peers_cut: report.summary.errors.false_negative as f64,
                    attackers_never_cut: report.summary.attackers_never_cut as f64,
                    retries: res.report_retries as f64,
                }
            },
            |c| {
                [
                    &mut c.missed_report_rate,
                    &mut c.snapshot_age,
                    &mut c.detection_latency,
                    &mut c.good_peers_cut,
                    &mut c.attackers_never_cut,
                    &mut c.retries,
                ]
            },
        )
    })
}

/// The resilience sweep as a rendered table, with Δ columns against each
/// period's fault-free cell.
pub fn resilience(opts: &ExpOptions) -> Table {
    let cells = resilience_grid(opts);
    // Each cell beside the fault-free reference of its period.
    let pairs: Vec<(&ResilienceCell, &ResilienceCell)> = cells
        .iter()
        .map(|c| {
            let fault_free = cells
                .iter()
                .find(|b| b.period == c.period && b.loss == 0.0 && b.delay == 0)
                .expect("grid always contains the fault-free cell");
            (c, fault_free)
        })
        .collect();
    Table::from_columns(
        "resilience",
        format!(
            "Control-plane resilience: loss x delay x exchange period ({} agents)",
            opts.agents
        ),
        &pairs,
        &[
            ("s", |(c, _)| c.period.to_string()),
            ("loss", |(c, _)| pct(c.loss)),
            ("delay", |(c, _)| c.delay.to_string()),
            ("missed reports", |(c, _)| pct(c.missed_report_rate)),
            ("snap age", |(c, _)| f(c.snapshot_age, 2)),
            ("detect latency", |(c, _)| f(c.detection_latency, 2)),
            ("d latency", |(c, b)| f(c.detection_latency - b.detection_latency, 2)),
            ("good cut", |(c, _)| f(c.good_peers_cut, 1)),
            ("d good cut", |(c, b)| f(c.good_peers_cut - b.good_peers_cut, 1)),
            ("uncaught", |(c, _)| f(c.attackers_never_cut, 1)),
            ("retries", |(c, _)| f(c.retries, 0)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions { peers: 160, ticks: 8, seed: 17, agents: 6, ..ExpOptions::default() }
    }

    #[test]
    fn grid_covers_every_cell_and_heavy_loss_completes() {
        let cells = resilience_grid(&tiny_opts());
        assert_eq!(cells.len(), PERIODS.len() * LOSSES.len() * DELAYS.len());
        // The harshest cell (20% loss, 2-tick delays, s = 5) ran to the end.
        assert!(cells.iter().any(|c| c.period == 5 && c.loss == 0.20 && c.delay == 2));
    }

    #[test]
    fn fault_free_cells_report_no_transport_damage() {
        let cells = resilience_grid(&tiny_opts());
        for c in cells.iter().filter(|c| c.loss == 0.0 && c.delay == 0) {
            assert_eq!(c.missed_report_rate, 0.0, "s={}", c.period);
            assert_eq!(c.retries, 0.0, "s={}", c.period);
        }
    }

    #[test]
    fn missed_reports_grow_with_loss_rate() {
        // Paired seeds + nested threshold hashing: with the delay leg off,
        // raising the loss rate can only turn deliveries into losses, so the
        // missed-report rate must not decrease along a pure-loss row. (With
        // delays on, the stale-reply fallback couples the two fault legs and
        // strict per-cell monotonicity is not guaranteed.)
        let cells = resilience_grid(&tiny_opts());
        for &s in &PERIODS {
            let mut row: Vec<&ResilienceCell> =
                cells.iter().filter(|c| c.period == s && c.delay == 0).collect();
            row.sort_by(|a, b| a.loss.total_cmp(&b.loss));
            for w in row.windows(2) {
                assert!(
                    w[1].missed_report_rate >= w[0].missed_report_rate - 1e-9,
                    "s={s}: loss {} -> {} dropped the missed rate {} -> {}",
                    w[0].loss,
                    w[1].loss,
                    w[0].missed_report_rate,
                    w[1].missed_report_rate
                );
            }
        }
        // Any faulted cell shows transport damage; run-trajectory divergence
        // makes finer cross-cell comparisons on the delay leg unreliable.
        for c in cells.iter().filter(|c| c.loss > 0.0 || c.delay > 0) {
            assert!(
                c.missed_report_rate > 0.0,
                "s={} loss={} delay={}: faulted transport must miss some reports",
                c.period,
                c.loss,
                c.delay
            );
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let t = resilience(&tiny_opts());
        assert_eq!(t.rows.len(), PERIODS.len() * LOSSES.len() * DELAYS.len());
    }

    #[test]
    fn detection_latency_censors_uncaught_agents() {
        use ddp_topology::NodeId;
        let log = vec![
            CutRecord {
                tick: 3,
                observer: NodeId(1),
                suspect: NodeId(9),
                suspect_was_attacker: true,
            },
            CutRecord {
                tick: 5,
                observer: NodeId(2),
                suspect: NodeId(9),
                suspect_was_attacker: true,
            },
            CutRecord {
                tick: 4,
                observer: NodeId(2),
                suspect: NodeId(3),
                suspect_was_attacker: false,
            },
        ];
        // Agent 9 caught at tick 3 (first cut), the second agent never: 11.
        assert_eq!(detection_latency(&log, 2, 10), (3.0 + 11.0) / 2.0);
        assert_eq!(detection_latency(&[], 0, 10), 0.0);
    }
}
