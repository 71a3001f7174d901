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
use crate::output::{f, Table};
use crate::scenario::ExpOptions;
use ddp_attack::WhitewashPlan;
use ddp_metrics::{damage_rate, TimeSeries};
use ddp_police::{DdPolice, DdPoliceConfig, ReadmissionPolicy};
use ddp_sim::{CutRecord, SessionConfig, SimConfig, Simulation, WhitewashRecord};
use ddp_topology::{TopologyConfig, TopologyModel};
use ddp_workload::LifetimeModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
}

fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
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

/// One run's raw numbers before replicate averaging.
struct RawRun {
    joins: u64,
    departures: u64,
    rebirths: usize,
    detection_latency: f64,
    redetected: usize,
    redetection_latency: f64,
    cuts_total: usize,
    wrongful_cuts: usize,
    success_rate: Vec<f64>,
}

fn run_once(
    peers: usize,
    ticks: usize,
    agents: usize,
    sess: &SessionConfig,
    dwell: u32,
    readmission_on: bool,
    seed: u64,
) -> RawRun {
    let police_cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: readmission_on, ..ReadmissionPolicy::default() },
        suspect_ttl_ticks: SUSPECT_TTL,
        ..DdPoliceConfig::default()
    };
    let cfg = SimConfig {
        topology: TopologyConfig { n: peers, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn: false,
        session: Some(sess.clone()),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, DdPolice::new(police_cfg, peers), seed);
    let initial_agents = if agents > 0 {
        // Same selection constant as `Scenario::run`, so a churn cell's
        // agents sit on the same peers as the equivalent static scenario.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdd05_ee1f);
        WhitewashPlan::new(agents, dwell).apply(&mut sim, &mut rng)
    } else {
        Vec::new()
    };
    for _ in 0..ticks {
        sim.step();
    }
    let stats = sim.session_stats();
    let rebirths: Vec<WhitewashRecord> = sim.whitewash_log().to_vec();
    let result = sim.finish();
    let (redetected, redetection_latency) = redetection_stats(&result.cut_log, &rebirths, ticks);
    let wrongful_cuts = result.cut_log.iter().filter(|c| !c.suspect_was_attacker).count();
    // First-detection latency is over the *initial* identities only —
    // reborn identities (which are also cut, usually many more times than
    // there are original agents) are scored by `redetection_stats` instead.
    let initial_cuts: Vec<CutRecord> =
        result.cut_log.iter().filter(|c| initial_agents.contains(&c.suspect)).copied().collect();
    RawRun {
        joins: stats.joins,
        departures: stats.leaves + stats.crashes,
        rebirths: rebirths.len(),
        detection_latency: detection_latency(&initial_cuts, agents, ticks),
        redetected,
        redetection_latency,
        cuts_total: result.cut_log.len(),
        wrongful_cuts,
        success_rate: result.series.success_rate.values,
    }
}

/// Residual damage of an attacked run against its paired zero-agent baseline
/// on the same seed: mean `D(t)` over the stabilized last quarter.
fn residual_damage(attacked: &[f64], baseline: &[f64]) -> f64 {
    let mut damage = TimeSeries::new("damage_rate");
    for (t, &s1) in attacked.iter().enumerate() {
        let s0 = baseline.get(t).copied().unwrap_or(1.0);
        damage.push(damage_rate(s0, s1));
    }
    damage.tail_mean((damage.len() / 4).max(1))
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
    let mut grid = Vec::new();
    for &mean in &MEAN_SESSIONS {
        for &model in &SESSION_MODELS {
            for &dwell in &DWELLS {
                for readmission in [false, true] {
                    grid.push((
                        opts.peers,
                        opts.ticks,
                        opts.agents,
                        mean,
                        model,
                        dwell,
                        readmission,
                    ));
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
    let mut cell = ChurnCell {
        peers,
        ticks,
        agents,
        mean_session_ticks: mean,
        session_model: model.to_string(),
        dwell_ticks: dwell,
        readmission,
        joins: 0.0,
        departures: 0.0,
        rebirths: 0.0,
        detection_latency: 0.0,
        redetected: 0.0,
        redetection_latency: 0.0,
        redetection_rate: 0.0,
        cuts_total: 0.0,
        wrongful_cut_rate: 0.0,
        residual_damage: 0.0,
    };
    for r in 0..opts.replicates.max(1) {
        let seed = opts.seed_for(c, r);
        let run = run_once(peers, ticks, agents, &sess, dwell, readmission, seed);
        // Paired baseline: same seed, same churn stream, no agents.
        let base = run_once(peers, ticks, 0, &sess, dwell, readmission, seed);
        cell.joins += run.joins as f64;
        cell.departures += run.departures as f64;
        cell.rebirths += run.rebirths as f64;
        cell.detection_latency += run.detection_latency;
        cell.redetected += run.redetected as f64;
        cell.redetection_latency += run.redetection_latency;
        cell.redetection_rate +=
            if run.rebirths > 0 { run.redetected as f64 / run.rebirths as f64 } else { 0.0 };
        cell.cuts_total += run.cuts_total as f64;
        cell.wrongful_cut_rate +=
            if run.cuts_total > 0 { run.wrongful_cuts as f64 / run.cuts_total as f64 } else { 0.0 };
        cell.residual_damage += residual_damage(&run.success_rate, &base.success_rate);
    }
    let n = opts.replicates.max(1) as f64;
    cell.joins /= n;
    cell.departures /= n;
    cell.rebirths /= n;
    cell.detection_latency /= n;
    cell.redetected /= n;
    cell.redetection_latency /= n;
    cell.redetection_rate /= n;
    cell.cuts_total /= n;
    cell.wrongful_cut_rate /= n;
    cell.residual_damage /= n;
    cell
}

/// Run the sweep, publish `BENCH_churn.json` (validated always, written for
/// the full grid), and return the human-readable table.
pub fn churn(opts: &ExpOptions) -> Table {
    let cells = churn_grid(opts);
    let mut table = Table::new(
        if opts.smoke { "churn_smoke" } else { "churn" },
        "Churn x whitewash sweep: detection and re-detection under open membership",
        &[
            "model",
            "mean",
            "dwell",
            "readm",
            "joins",
            "departs",
            "rebirths",
            "detect",
            "redetect%",
            "redetect lat",
            "wrongful%",
            "resid dmg",
        ],
    );
    for c in &cells {
        table.push_row(vec![
            c.session_model.clone(),
            f(c.mean_session_ticks, 0),
            c.dwell_ticks.to_string(),
            on_off(c.readmission).to_string(),
            f(c.joins, 0),
            f(c.departures, 0),
            f(c.rebirths, 1),
            f(c.detection_latency, 2),
            f(c.redetection_rate * 100.0, 0),
            f(c.redetection_latency, 2),
            f(c.wrongful_cut_rate * 100.0, 1),
            f(c.residual_damage, 3),
        ]);
    }
    bench_report::publish(&cells, opts.seed, opts.smoke);
    table
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
