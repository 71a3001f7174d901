//! Collusion sweep (extension beyond the paper): coordinated Byzantine
//! reporting vs. aggregation policy and verdict hysteresis.
//!
//! §3.4 only analyzes a *lone* cheating agent. This runner measures what a
//! coalition does to DD-POLICE's verdicts: `Frame` coalitions (a fraction of
//! an innocent victim's neighbors flood and inflate their
//! `received_from_suspect` claims about it) and `Shield` coalitions
//! (adjacent flooders deflating claims about each other), swept against the
//! aggregation policy (paper's sum / trimmed mean / median) and the W-of-K
//! cut hysteresis. Seeds are paired per (mode, fraction), so every policy ×
//! hysteresis cell judges the identical topology, attack, and coalition —
//! differences between cells are pure defense policy.
//!
//! A second table exercises the quarantine/readmission lifecycle on the
//! framed victim: with readmission probes on, a wrongful cut heals after
//! the backoff instead of lasting forever.

use super::par_map;
use crate::output::{f, on_off, pct, Table};
use crate::scenario::{ExpOptions, Scenario};
use ddp_attack::CollusionPlan;
use ddp_police::{AggregationPolicy, DdPolice, DdPoliceConfig, Hysteresis, ReadmissionPolicy};
use ddp_sim::RunResult;
use ddp_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Swept colluder fractions (of the victim's neighborhood in frame mode; of
/// `opts.agents` in shield mode). 0 = the no-colluder reference.
pub const FRACTIONS: [f64; 4] = [0.0, 0.15, 0.30, 0.50];

/// Swept aggregation policies.
pub const POLICIES: [(AggregationPolicy, &str); 3] = [
    (AggregationPolicy::Sum, "sum"),
    (AggregationPolicy::TrimmedMean { trim: 0.34 }, "trimmed"),
    (AggregationPolicy::Median, "median"),
];

/// Swept W-of-K hysteresis settings (1-of-1 = the paper).
pub const HYSTERESES: [Hysteresis; 2] =
    [Hysteresis { required: 1, window: 1 }, Hysteresis { required: 2, window: 3 }];

/// How hard framing colluders inflate their claims about the victim. The
/// victim's Buddy Group sum is dominated by `(k-1) x` the coalition's own
/// wire flood into the victim (~10^6..10^7 at full attack rate), so the
/// phantom output needed to convict it is of that order too: nothing in the
/// protocol bounds a `received_from_suspect` claim, which is precisely the
/// sum policy's unbounded sensitivity this sweep measures.
const FRAME_INFLATE: f64 = 5_000.0;
/// How hard shielding colluders deflate their claims about each other.
const SHIELD_DEFLATE: f64 = 0.02;

/// One measured grid cell (replicate means).
#[derive(Debug, Clone)]
pub struct CollusionCell {
    /// "frame" or "shield".
    pub mode: &'static str,
    /// Colluder fraction.
    pub fraction: f64,
    /// Aggregation policy label.
    pub policy: &'static str,
    /// Hysteresis in force.
    pub hysteresis: Hysteresis,
    /// Cut events whose suspect is the framed victim (frame mode; 0 in
    /// shield mode).
    pub victim_cut_events: f64,
    /// Fraction of replicates in which the victim was cut at least once.
    pub victim_ever_cut: f64,
    /// Wrongly disconnected good peers (paper's false negatives).
    pub good_peers_cut: f64,
    /// Colluding agents never disconnected.
    pub attackers_never_cut: f64,
    /// Stabilized success rate.
    pub success_stable: f64,
    /// Ledger `Cut` decisions (≥ applied cuts; the completeness invariant).
    pub ledger_cuts: f64,
}

/// Whether a grid cell runs the framing or the shielding coalition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Frame,
    Shield,
}

/// Run one configured cell replicate; returns the result and the victim.
fn run_once(
    opts: &ExpOptions,
    mode: Mode,
    fraction: f64,
    police_cfg: DdPoliceConfig,
    seed: u64,
) -> (RunResult, Option<NodeId>) {
    // Churn off: the framed victim must keep its identity and links for the
    // whole run, so wrongful-cut counts measure the defense, not session
    // luck. No plain agents: the coalition is the attack.
    let scenario = Scenario::builder().peers(opts.peers).churn(false).seed(seed).build();
    let mut sim = scenario.build_sim_with(DdPolice::new(police_cfg, opts.peers));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc011_0de5);
    let plan = match mode {
        Mode::Frame => CollusionPlan::frame(fraction, FRAME_INFLATE),
        Mode::Shield => {
            let agents = (opts.agents as f64 * fraction).round() as usize;
            CollusionPlan::shield(agents, SHIELD_DEFLATE)
        }
    };
    let outcome = plan.apply(&mut sim, &mut rng);
    (sim.run(opts.ticks), outcome.victim)
}

/// Run the full grid. Exposed separately from [`collusion`] so tests can
/// assert on the numbers rather than on formatted strings.
pub fn collusion_grid(opts: &ExpOptions) -> Vec<CollusionCell> {
    let mut grid = Vec::new();
    for mode in [Mode::Frame, Mode::Shield] {
        for fi in 0..FRACTIONS.len() {
            for policy in POLICIES {
                grid.extend(HYSTERESES.map(|hysteresis| (mode, fi, policy, hysteresis)));
            }
        }
    }

    par_map(&grid, |_, &(mode, fi, (policy, policy_label), hysteresis)| {
        let fraction = FRACTIONS[fi];
        // Paired per (mode, fraction): every policy × hysteresis cell sees
        // the identical run.
        let (mode_label, config) = match mode {
            Mode::Frame => ("frame", fi),
            Mode::Shield => ("shield", FRACTIONS.len() + fi),
        };
        opts.mean_fields(
            |r| {
                let police_cfg =
                    DdPoliceConfig { aggregation: policy, hysteresis, ..DdPoliceConfig::default() };
                let (result, victim) =
                    run_once(opts, mode, fraction, police_cfg, opts.seed_for(config, r));
                let victim_cuts = victim
                    .map(|v| result.cut_log.iter().filter(|c| c.suspect == v).count())
                    .unwrap_or(0);
                CollusionCell {
                    mode: mode_label,
                    fraction,
                    policy: policy_label,
                    hysteresis,
                    victim_cut_events: victim_cuts as f64,
                    victim_ever_cut: f64::from(victim_cuts > 0),
                    good_peers_cut: result.summary.errors.false_negative as f64,
                    attackers_never_cut: result.summary.attackers_never_cut as f64,
                    success_stable: result.summary.success_rate_stable,
                    ledger_cuts: result.summary.verdicts.cuts as f64,
                }
            },
            |c| {
                [
                    &mut c.victim_cut_events,
                    &mut c.victim_ever_cut,
                    &mut c.good_peers_cut,
                    &mut c.attackers_never_cut,
                    &mut c.success_stable,
                    &mut c.ledger_cuts,
                ]
            },
        )
    })
}

/// The collusion sweep as a rendered table.
pub fn collusion(opts: &ExpOptions) -> Table {
    Table::from_columns(
        "collusion",
        format!(
            "Coordinated report cheating: mode x colluder fraction x aggregation x hysteresis \
             ({} peers)",
            opts.peers
        ),
        &collusion_grid(opts),
        &[
            ("mode", |c| c.mode.to_string()),
            ("fraction", |c| pct(c.fraction)),
            ("policy", |c| c.policy.to_string()),
            ("W/K", |c| format!("{}/{}", c.hysteresis.required, c.hysteresis.window)),
            ("victim cuts", |c| f(c.victim_cut_events, 1)),
            ("victim ever-cut", |c| pct(c.victim_ever_cut)),
            ("good cut", |c| f(c.good_peers_cut, 1)),
            ("uncaught", |c| f(c.attackers_never_cut, 1)),
            ("success", |c| pct(c.success_stable)),
            ("ledger cuts", |c| f(c.ledger_cuts, 1)),
        ],
    )
}

/// One readmission-lifecycle measurement row.
#[derive(Debug, Clone)]
pub struct ReadmissionCell {
    /// Whether quarantine probes were enabled.
    pub enabled: bool,
    /// Wrongful cuts of good peers (severed-edge count).
    pub wrongful_cuts: f64,
    /// Mean ticks a wrongly severed edge stayed down (censored at run end).
    pub wrongful_cut_ticks_mean: f64,
    /// Quarantine → probation probes issued.
    pub probes: f64,
    /// Probations survived into full readmission.
    pub readmissions: f64,
    /// Probationary re-cuts.
    pub recuts: f64,
    /// Mean ticks from quarantine entry to full readmission.
    pub readmission_latency: f64,
    /// Colluding agents never disconnected.
    pub attackers_never_cut: f64,
}

/// Measure the quarantine/readmission lifecycle under the harshest framing
/// cell (30% colluders, sum aggregation — the paper's policy wrongly cuts
/// the victim there): readmission off (the paper's permanent cut) vs. on.
pub fn readmission_grid(opts: &ExpOptions) -> Vec<ReadmissionCell> {
    par_map(&[false, true], |_, &enabled| {
        opts.mean_fields(
            |r| {
                let police_cfg = DdPoliceConfig {
                    readmission: ReadmissionPolicy { enabled, ..ReadmissionPolicy::default() },
                    ..DdPoliceConfig::default()
                };
                // Same paired seed stream as the frame cells at 30%.
                let (result, _) =
                    run_once(opts, Mode::Frame, 0.30, police_cfg, opts.seed_for(2, r));
                let v = &result.summary.verdicts;
                ReadmissionCell {
                    enabled,
                    wrongful_cuts: v.wrongful_cuts as f64,
                    wrongful_cut_ticks_mean: v.wrongful_cut_ticks_mean,
                    probes: v.readmission_probes as f64,
                    readmissions: v.readmissions as f64,
                    recuts: v.recuts as f64,
                    readmission_latency: v.readmission_latency_mean_ticks,
                    attackers_never_cut: result.summary.attackers_never_cut as f64,
                }
            },
            |c| {
                [
                    &mut c.wrongful_cuts,
                    &mut c.wrongful_cut_ticks_mean,
                    &mut c.probes,
                    &mut c.readmissions,
                    &mut c.recuts,
                    &mut c.readmission_latency,
                    &mut c.attackers_never_cut,
                ]
            },
        )
    })
}

/// The readmission lifecycle as a rendered table.
pub fn readmission(opts: &ExpOptions) -> Table {
    Table::from_columns(
        "readmission",
        "Quarantine/readmission under 30% framing colluders (sum aggregation)",
        &readmission_grid(opts),
        &[
            ("readmission", |c| on_off(c.enabled).to_string()),
            ("wrongful cuts", |c| f(c.wrongful_cuts, 1)),
            ("mean severed ticks", |c| f(c.wrongful_cut_ticks_mean, 2)),
            ("probes", |c| f(c.probes, 1)),
            ("readmitted", |c| f(c.readmissions, 1)),
            ("re-cut", |c| f(c.recuts, 1)),
            ("readmit latency", |c| f(c.readmission_latency, 2)),
            ("uncaught", |c| f(c.attackers_never_cut, 1)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions { peers: 240, ticks: 8, seed: 23, agents: 12, ..ExpOptions::default() }
    }

    #[test]
    fn grid_covers_every_cell() {
        let cells = collusion_grid(&tiny_opts());
        assert_eq!(
            cells.len(),
            2 * FRACTIONS.len() * POLICIES.len() * HYSTERESES.len(),
            "every mode x fraction x policy x hysteresis cell must run"
        );
    }

    #[test]
    fn robust_aggregation_spares_the_framed_victim() {
        // The acceptance property: with >= 30% framing colluders,
        // median/trimmed aggregation wrongly cuts the victim strictly less
        // than the paper's sum.
        let cells = collusion_grid(&tiny_opts());
        let pick = |policy: &str, fraction: f64| -> &CollusionCell {
            cells
                .iter()
                .find(|c| {
                    c.mode == "frame"
                        && c.policy == policy
                        && (c.fraction - fraction).abs() < 1e-9
                        && c.hysteresis == Hysteresis { required: 1, window: 1 }
                })
                .expect("cell exists")
        };
        // 0.50 is past the robust centers' breakdown point (> half the
        // Buddy Group lies), so the property is asserted at 0.30.
        let fraction = 0.30;
        let sum = pick("sum", fraction);
        assert!(
            sum.victim_cut_events > 0.0,
            "framing must convict the victim under sum at fraction {fraction}"
        );
        for robust in ["median", "trimmed"] {
            let r = pick(robust, fraction);
            assert!(
                r.victim_cut_events < sum.victim_cut_events,
                "{robust} must wrongly cut the victim strictly less than sum at \
                 fraction {fraction}: {} vs {}",
                r.victim_cut_events,
                sum.victim_cut_events
            );
        }
    }

    #[test]
    fn zero_colluders_no_victim_cuts() {
        let cells = collusion_grid(&tiny_opts());
        for c in cells.iter().filter(|c| c.fraction == 0.0) {
            assert_eq!(c.victim_cut_events, 0.0, "no coalition, no framing: {c:?}");
            assert_eq!(c.good_peers_cut, 0.0, "no attack, no wrongful cuts: {c:?}");
        }
    }

    #[test]
    fn ledger_counts_at_least_the_applied_cuts() {
        let cells = collusion_grid(&tiny_opts());
        for c in &cells {
            assert!(
                c.ledger_cuts >= c.victim_cut_events,
                "every applied cut must appear in the ledger: {c:?}"
            );
        }
    }

    #[test]
    fn readmission_heals_wrongful_cuts() {
        let opts = tiny_opts();
        let cells = readmission_grid(&opts);
        let off = cells.iter().find(|c| !c.enabled).unwrap();
        let on = cells.iter().find(|c| c.enabled).unwrap();
        assert_eq!(off.probes, 0.0);
        assert_eq!(off.readmissions, 0.0);
        if on.wrongful_cuts > 0.0 {
            assert!(on.probes > 0.0, "quarantined peers must be probed: {on:?}");
            assert!(
                on.wrongful_cut_ticks_mean < off.wrongful_cut_ticks_mean,
                "probes must shorten wrongful severance: on {} vs off {}",
                on.wrongful_cut_ticks_mean,
                off.wrongful_cut_ticks_mean
            );
        }
    }

    #[test]
    fn tables_render_all_rows() {
        let opts = tiny_opts();
        assert_eq!(
            collusion(&opts).rows.len(),
            2 * FRACTIONS.len() * POLICIES.len() * HYSTERESES.len()
        );
        assert_eq!(readmission(&opts).rows.len(), 2);
    }
}
