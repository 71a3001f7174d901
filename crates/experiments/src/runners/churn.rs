//! `churn` — open-membership churn × whitewashing sweep (robustness
//! extension beyond the paper).
//!
//! The paper evaluates DD-POLICE on a fixed population; its only concession
//! to dynamics is that a cut agent "can join the system again" under the
//! same identity. This sweep measures the defense under the conditions a
//! real Gnutella deployment has: session-model churn (Poisson arrivals of
//! brand-new peers, permanent leaves, silent crashes) combined with
//! *whitewashing* agents that shed their identity after being isolated and
//! rejoin under fresh `NodeId`s.
//!
//! Grid: mean session length × session-length distribution × whitewash dwell
//! × readmission policy, with paired seeds (every cell of one configuration
//! index sees identical topology and attack placement). Each cell is paired
//! with a zero-agent baseline on the same seed to isolate *residual damage*
//! — the bogus-query success-rate loss that churn-plus-whitewash still
//! inflicts through the defense. Emits the machine-readable
//! `BENCH_churn.json` tracked PR-over-PR.

use crate::bench_report::{self, BenchCell, Field, Value};
use crate::options::ExpOptions;
use crate::output::{f, on_off, Column, Table};
use ddp_attack::WhitewashPlan;
use ddp_oracle::scenario::{damage_series, stable_damage};
use ddp_oracle::{Attack, DefenseKind, Scenario};
use ddp_police::{DdPoliceConfig, ReadmissionPolicy};
use ddp_sim::{CutRecord, RunResult, SessionConfig, SessionStats, WhitewashRecord};
use ddp_topology::NodeId;
use ddp_workload::LifetimeModel;

use super::{detection_latency, par_map};

/// Swept mean session lengths (ticks = minutes).
pub const MEAN_SESSIONS: [f64; 2] = [10.0, 5.0];
/// Swept whitewash dwell times (ticks offline before the identity change).
pub const DWELLS: [u32; 2] = [1, 3];
/// Swept session-length distributions.
pub const SESSION_MODELS: [&str; 2] = ["exponential", "lognormal"];

/// Verdict-state TTL used by every cell: the churn-hardened configuration
/// (crashed suspects' clocks are swept; see `DdPoliceConfig`).
const SUSPECT_TTL: u32 = 8;

/// One measured grid cell (replicate-averaged).
#[derive(Debug, Clone)]
pub struct ChurnCell {
    /// Initial overlay size.
    pub peers: usize,
    /// Simulated minutes.
    pub ticks: usize,
    /// Initial DDoS agents (whitewashing).
    pub agents: usize,
    /// Mean session length of good peers (ticks).
    pub mean_session_ticks: f64,
    /// Session-length distribution ("exponential" | "lognormal").
    pub session_model: String,
    /// Whitewash dwell (ticks offline before rejoining fresh).
    pub dwell_ticks: u32,
    /// Whether the readmission (quarantine/probation) lifecycle is on.
    pub readmission: bool,
    /// Brand-new peers that joined (session stream).
    pub joins: f64,
    /// Permanent departures (leaves + crashes).
    pub departures: f64,
    /// Completed whitewash identity changes.
    pub rebirths: f64,
    /// Mean ticks to each initial agent's first cut (censored at ticks+1).
    pub detection_latency: f64,
    /// Reborn identities that were cut again.
    pub redetected: f64,
    /// Mean ticks from rebirth to the fresh identity's first cut (reborn
    /// identities never re-cut censored at run end).
    pub redetection_latency: f64,
    /// `redetected / rebirths` (0 when nothing was reborn).
    pub redetection_rate: f64,
    /// All defensive disconnections performed.
    pub cuts_total: f64,
    /// Fraction of cuts that hit good peers.
    pub wrongful_cut_rate: f64,
    /// Mean damage rate over the stabilized last quarter vs the paired
    /// zero-agent baseline (residual bogus-query damage).
    pub residual_damage: f64,
}

impl BenchCell for ChurnCell {
    const SCHEMA: &'static str = "ddp-bench-churn/v1";
    const GENERATED_BY: &'static str = "ddp-experiments churn";
    const FILE: &'static str = "BENCH_churn.json";
    const FIELDS: &'static [Field<Self>] = &[
        ("peers", |c| Value::U64(c.peers as u64)),
        ("ticks", |c| Value::U64(c.ticks as u64)),
        ("agents", |c| Value::U64(c.agents as u64)),
        ("mean_session_ticks", |c| Value::F64(c.mean_session_ticks)),
        ("session_model", |c| Value::Str(&c.session_model)),
        ("dwell_ticks", |c| Value::U64(u64::from(c.dwell_ticks))),
        ("readmission", |c| Value::Str(on_off(c.readmission))),
        ("joins", |c| Value::F64(c.joins)),
        ("departures", |c| Value::F64(c.departures)),
        ("rebirths", |c| Value::F64(c.rebirths)),
        ("detection_latency", |c| Value::F64(c.detection_latency)),
        ("redetected", |c| Value::F64(c.redetected)),
        ("redetection_latency", |c| Value::F64(c.redetection_latency)),
        ("redetection_rate", |c| Value::F64(c.redetection_rate)),
        ("cuts_total", |c| Value::F64(c.cuts_total)),
        ("wrongful_cut_rate", |c| Value::F64(c.wrongful_cut_rate)),
        ("residual_damage", |c| Value::F64(c.residual_damage)),
    ];
    const TABLE: (&'static str, &'static str) =
        ("churn", "Churn x whitewash sweep: detection and re-detection under open membership");
    const COLUMNS: &'static [Column<Self>] = &[
        ("model", |c| c.session_model.clone()),
        ("mean", |c| f(c.mean_session_ticks, 0)),
        ("dwell", |c| c.dwell_ticks.to_string()),
        ("readm", |c| on_off(c.readmission).to_string()),
        ("joins", |c| f(c.joins, 0)),
        ("departs", |c| f(c.departures, 0)),
        ("rebirths", |c| f(c.rebirths, 1)),
        ("detect", |c| f(c.detection_latency, 2)),
        ("redetect%", |c| f(c.redetection_rate * 100.0, 0)),
        ("redetect lat", |c| f(c.redetection_latency, 2)),
        ("wrongful%", |c| f(c.wrongful_cut_rate * 100.0, 1)),
        ("resid dmg", |c| f(c.residual_damage, 3)),
    ];
}

fn session_length(model: &str, mean: f64) -> LifetimeModel {
    match model {
        "exponential" => LifetimeModel::Exponential { mean_min: mean },
        "lognormal" => LifetimeModel::LogNormal { mean_min: mean, var_min: mean / 2.0 },
        other => panic!("unknown session model {other}"),
    }
}

/// Re-detection after whitewashing: for each identity change, the ticks from
/// rebirth to the fresh identity's first defensive cut. Reborn identities
/// the run never re-cut are censored at `ticks + 1`. Returns
/// `(redetected count, mean latency over all rebirths)`.
pub fn redetection_stats(
    cut_log: &[CutRecord],
    rebirths: &[WhitewashRecord],
    ticks: usize,
) -> (usize, f64) {
    if rebirths.is_empty() {
        return (0, 0.0);
    }
    let mut redetected = 0usize;
    let mut sum = 0.0;
    for rec in rebirths {
        let first =
            cut_log.iter().find(|c| c.suspect == rec.new && c.tick >= rec.tick).map(|c| c.tick);
        match first {
            Some(t) => {
                redetected += 1;
                sum += f64::from(t - rec.tick);
            }
            None => sum += f64::from((ticks as u32 + 1).saturating_sub(rec.tick)),
        }
    }
    (redetected, sum / rebirths.len() as f64)
}

/// One finished run and what only the live simulation could tell about it.
struct Run {
    result: RunResult,
    stats: SessionStats,
    rebirths: Vec<WhitewashRecord>,
    initial_agents: Vec<NodeId>,
}

fn run_once(
    peers: usize,
    ticks: usize,
    agents: usize,
    sess: &SessionConfig,
    dwell: u32,
    readmission_on: bool,
    seed: u64,
) -> Run {
    let police_cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: readmission_on, ..ReadmissionPolicy::default() },
        suspect_ttl_ticks: SUSPECT_TTL,
        ..DdPoliceConfig::default()
    };
    let mut scenario = Scenario {
        defense: DefenseKind::DdPolice(police_cfg),
        // On the placement stream, so a churn cell's agents sit on the same
        // peers as the equivalent static scenario.
        attack: Attack::Whitewash(WhitewashPlan::new(agents, dwell)),
        seed,
        ..ExpOptions { peers, ..ExpOptions::default() }.scenario()
    };
    scenario.sim.churn = false;
    scenario.sim.session = Some(sess.clone());
    let mut sim = scenario.build_police();
    let initial_agents = sim.attackers();
    for _ in 0..ticks {
        sim.step();
    }
    let (stats, rebirths) = (sim.session_stats(), sim.whitewash_log().to_vec());
    Run { result: sim.finish(), stats, rebirths, initial_agents }
}

/// One grid point: `(peers, ticks, agents, mean_session, model, dwell,
/// readmission)`.
pub type ChurnParams = (usize, usize, usize, f64, &'static str, u32, bool);

/// The sweep grid: `(mean_session, model, dwell, readmission)` plus the
/// per-cell run scale. Smoke keeps two cells that still exercise both
/// readmission policies end to end.
pub fn churn_grid_params(opts: &ExpOptions) -> Vec<ChurnParams> {
    if opts.smoke {
        return vec![
            (300, 15, 6, 5.0, "exponential", 1, false),
            (300, 15, 6, 5.0, "exponential", 1, true),
        ];
    }
    let (peers, ticks, agents) = (opts.peers, opts.ticks, opts.agents);
    let mut grid = Vec::new();
    for &mean in &MEAN_SESSIONS {
        for &model in &SESSION_MODELS {
            for &dwell in &DWELLS {
                for readmission in [false, true] {
                    grid.push((peers, ticks, agents, mean, model, dwell, readmission));
                }
            }
        }
    }
    grid
}

/// Run the full grid. Exposed separately from [`churn`] so tests can assert
/// on the numbers rather than on formatted strings.
pub fn churn_grid(opts: &ExpOptions) -> Vec<ChurnCell> {
    par_map(&churn_grid_params(opts), |c, params| measure_churn_cell(opts, c, params))
}

/// Measure grid point `c`: `opts.replicates` attacked runs, each paired with
/// a zero-agent baseline on the same seed, averaged.
fn measure_churn_cell(
    opts: &ExpOptions,
    c: usize,
    &(peers, ticks, agents, mean, model, dwell, readmission): &ChurnParams,
) -> ChurnCell {
    let sess = SessionConfig {
        arrival_rate_per_tick: peers as f64 / mean.max(1.0),
        session_length: session_length(model, mean),
        crash_fraction: 0.25,
        max_peers: peers.saturating_mul(2),
    };
    opts.mean_fields(
        |r| {
            let seed = opts.seed_for(c, r);
            let run = run_once(peers, ticks, agents, &sess, dwell, readmission, seed);
            // Paired baseline: same seed, same churn stream, no agents.
            let base = run_once(peers, ticks, 0, &sess, dwell, readmission, seed).result;
            let cuts = &run.result.cut_log;
            let (redetected, redetection_latency) = redetection_stats(cuts, &run.rebirths, ticks);
            let wrongful_cuts = cuts.iter().filter(|c| !c.suspect_was_attacker).count();
            // First-detection latency is over the *initial* identities only —
            // reborn identities (which are also cut, usually many more times
            // than there are original agents) are scored by
            // `redetection_stats` instead.
            let initial_cuts: Vec<CutRecord> =
                cuts.iter().filter(|c| run.initial_agents.contains(&c.suspect)).copied().collect();
            let share = |part: usize, whole: usize| {
                if whole > 0 {
                    part as f64 / whole as f64
                } else {
                    0.0
                }
            };
            // Residual damage against the baseline: mean `D(t)` over the
            // stabilized last quarter.
            let damage = damage_series(
                &run.result.series.success_rate.values,
                &base.series.success_rate.values,
            );
            ChurnCell {
                peers,
                ticks,
                agents,
                mean_session_ticks: mean,
                session_model: model.to_string(),
                dwell_ticks: dwell,
                readmission,
                joins: run.stats.joins as f64,
                departures: (run.stats.leaves + run.stats.crashes) as f64,
                rebirths: run.rebirths.len() as f64,
                detection_latency: detection_latency(&initial_cuts, agents, ticks),
                redetected: redetected as f64,
                redetection_latency,
                redetection_rate: share(redetected, run.rebirths.len()),
                cuts_total: cuts.len() as f64,
                wrongful_cut_rate: share(wrongful_cuts, cuts.len()),
                residual_damage: stable_damage(&damage),
            }
        },
        |c| {
            [
                &mut c.joins,
                &mut c.departures,
                &mut c.rebirths,
                &mut c.detection_latency,
                &mut c.redetected,
                &mut c.redetection_latency,
                &mut c.redetection_rate,
                &mut c.cuts_total,
                &mut c.wrongful_cut_rate,
                &mut c.residual_damage,
            ]
        },
    )
}

/// Run the sweep, publish `BENCH_churn.json` (validated always, written for
/// the full grid), and return the human-readable table.
pub fn churn(opts: &ExpOptions) -> Table {
    let cells = churn_grid(opts);
    bench_report::publish(&cells, opts.seed, opts.smoke);
    bench_report::table(&cells, opts.smoke)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_topology::NodeId;

    #[test]
    fn redetection_censors_never_recut_rebirths() {
        let rebirths = vec![
            WhitewashRecord { tick: 5, old: NodeId(1), new: NodeId(300) },
            WhitewashRecord { tick: 8, old: NodeId(2), new: NodeId(301) },
        ];
        let cuts = vec![CutRecord {
            tick: 9,
            observer: NodeId(7),
            suspect: NodeId(300),
            suspect_was_attacker: true,
        }];
        // 300 re-cut after 4 ticks; 301 never, censored at 16 - 8 = 8.
        let (n, lat) = redetection_stats(&cuts, &rebirths, 15);
        assert_eq!(n, 1);
        assert!((lat - 6.0).abs() < 1e-9, "(4 + 8) / 2, got {lat}");
        assert_eq!(redetection_stats(&cuts, &[], 15), (0, 0.0));
    }

    /// The acceptance property: under both readmission policies the sweep
    /// shows the full cut → whitewash rejoin → re-cut cycle, with measured
    /// re-detection latency.
    #[test]
    fn smoke_cells_show_rebirth_and_redetection_under_both_policies() {
        let opts = ExpOptions { seed: 42, smoke: true, ..ExpOptions::default() };
        let cells = churn_grid(&opts);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().any(|c| c.readmission) && cells.iter().any(|c| !c.readmission));
        for c in &cells {
            assert!(c.joins > 0.0 && c.departures > 0.0, "churn must actually happen: {c:?}");
            assert!(c.rebirths > 0.0, "whitewash must trigger (readmission {})", c.readmission);
            assert!(
                c.redetected > 0.0,
                "a reborn agent must be re-detected (readmission {})",
                c.readmission
            );
            assert!(c.redetection_latency > 0.0);
            assert!(c.detection_latency > 0.0);
        }
    }
    /// The pool swap's pin: the same grid through the pool at widths 1 and 2
    /// yields the same cells in the same order. That the cell closure is
    /// accepted at all is the compile-time half: the pool demands
    /// `Fn + Sync`, which the sequential shim it replaced never enforced.
    #[test]
    fn grid_is_identical_at_pool_widths_one_and_two() {
        let opts = ExpOptions { seed: 42, ..ExpOptions::default() };
        let grid: Vec<ChurnParams> = [(1, false), (1, true), (3, false), (3, true), (2, true)]
            .map(|(dwell, readmission)| (150, 8, 4, 5.0, "exponential", dwell, readmission))
            .to_vec();
        let cell = |c: usize, params: &ChurnParams| measure_churn_cell(&opts, c, params);
        let serial = crate::runners::par_map_at(1, &grid, cell);
        let pooled = crate::runners::par_map_at(2, &grid, cell);
        assert_eq!(serial.len(), grid.len());
        assert!(serial.iter().any(|c| c.cuts_total > 0.0), "the grid must measure something");
        assert_eq!(bench_report::render(&serial, 42), bench_report::render(&pooled, 42));
    }
}
