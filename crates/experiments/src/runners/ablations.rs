//! Ablations of DESIGN.md's called-out design choices.

use super::{damage_means, par_map};
use crate::output::{f, on_off, pct, Table};
use crate::scenario::{DamageReport, DefenseKind, ExpOptions};
use ddp_attack::CheatStrategy;
use ddp_police::{DdPoliceConfig, ExchangePolicy};
use ddp_sim::ListBehavior;
use ddp_topology::TopologyModel;
use ddp_workload::LifetimeModel;

/// Good peers wrongly cut in the attacked run of a damage pair.
fn good_cut(dr: &DamageReport) -> f64 {
    dr.attacked.summary.errors.false_negative as f64
}

/// Agents still connected when the attacked run of a damage pair ended.
fn missed(dr: &DamageReport) -> f64 {
    dr.attacked.summary.errors.false_positive as f64
}

/// Agents the attacked run of a damage pair never cut at all.
fn never_cut(dr: &DamageReport) -> f64 {
    dr.attacked.summary.attackers_never_cut as f64
}

/// The plain DD-POLICE deployment most ablations vary something around.
const DD_POLICE: DefenseKind = DefenseKind::DdPolice { cut_threshold: 5.0 };

/// Warning-threshold sweep (the §3.3 default is 500 queries/min): too low
/// triggers constant Buddy-Group exchanges; too high delays detection.
pub fn ablate_warning(opts: &ExpOptions) -> Table {
    let thresholds = [100u32, 250, 500, 1_000, 2_000, 5_000];
    let rows = par_map(&thresholds, |ci, &w| {
        let cfg = DdPoliceConfig { warning_threshold_qpm: w, ..DdPoliceConfig::default() };
        let scenario = opts.scenario().defense(DefenseKind::DdPoliceFull(cfg));
        let [fneg, fpos, damage, control] = damage_means(opts, ci, &scenario, |dr| {
            [good_cut(dr), missed(dr), dr.stable_damage(), dr.attacked.summary.control_per_tick]
        });
        vec![w.to_string(), f(fneg, 1), f(fpos, 1), pct(damage), f(control, 0)]
    });
    Table::from_rows(
        "ablate_warning_threshold",
        format!("Ablation: warning threshold ({} agents)", opts.agents),
        &[
            "warning q/min",
            "false negative",
            "false positive",
            "stable damage",
            "control msgs/tick",
        ],
        rows,
    )
}

/// Buddy-Group radius r ∈ {1, 2} under *heavy* churn (mean lifetime 5 min):
/// r = 2's cross-verified membership resists snapshot staleness.
pub fn ablate_radius(opts: &ExpOptions) -> Table {
    let rows = par_map(&[1u8, 2], |ci, &radius| {
        let cfg = DdPoliceConfig {
            radius,
            exchange: ExchangePolicy::Periodic { minutes: 4 }, // extra staleness
            ..DdPoliceConfig::default()
        };
        let scenario = opts
            .scenario()
            .sim(|s| s.lifetime = LifetimeModel::LogNormal { mean_min: 5.0, var_min: 2.5 })
            .defense(DefenseKind::DdPoliceFull(cfg));
        let [fneg, fpos, damage] =
            damage_means(opts, ci, &scenario, |dr| [good_cut(dr), missed(dr), dr.stable_damage()]);
        vec![format!("r={radius}"), f(fneg, 1), f(fpos, 1), pct(damage)]
    });
    Table::from_rows(
        "ablate_bg_radius",
        format!("Ablation: Buddy-Group radius under heavy churn ({} agents)", opts.agents),
        &["radius", "false negative", "false positive", "stable damage"],
        rows,
    )
}

/// Forwarding-policy comparison: plain FIFO vs the fair-share survival
/// baseline (the paper's related work \[21\]) vs DD-POLICE detection.
pub fn ablate_forwarding(opts: &ExpOptions) -> Table {
    let configs = [
        ("fifo, no defense", DefenseKind::None),
        ("fair-share forwarding", DefenseKind::FairShare),
        ("DD-POLICE (CT=5)", DD_POLICE),
    ];
    let rows = par_map(&configs, |ci, (label, defense)| {
        let scenario = opts.scenario().defense(defense.clone());
        let [success, response, damage] = damage_means(opts, ci, &scenario, |dr| {
            let summary = &dr.attacked.summary;
            [summary.success_rate_stable, summary.response_time_mean_secs, dr.stable_damage()]
        });
        vec![label.to_string(), pct(success), f(response, 2), pct(damage)]
    });
    Table::from_rows(
        "ablate_forwarding_policy",
        format!("Baseline comparison: forwarding policy vs detection ({} agents)", opts.agents),
        &["configuration", "stable success", "response (s)", "stable damage"],
        rows,
    )
}

/// Attacker-rejoin extension (§3.7.2 notes nothing stops agents from coming
/// back): how the rejoin delay changes steady-state damage under DD-POLICE.
pub fn ablate_rejoin(opts: &ExpOptions) -> Table {
    let delays = [("never (paper)", u32::MAX), ("10 min", 10), ("5 min", 5), ("2 min", 2)];
    let rows = par_map(&delays, |ci, &(label, delay)| {
        let scenario =
            opts.scenario().sim(|s| s.attacker_rejoin_delay_ticks = delay).defense(DD_POLICE);
        let [damage, cuts] = damage_means(opts, ci, &scenario, |dr| {
            [dr.stable_damage(), dr.attacked.summary.attackers_cut as f64]
        });
        vec![label.to_string(), pct(damage), f(cuts, 0)]
    });
    Table::from_rows(
        "ablate_attacker_rejoin",
        format!("Extension: attacker rejoin delay ({} agents, DD-POLICE CT=5)", opts.agents),
        &["rejoin delay", "stable damage", "attacker cut events"],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions { peers: 240, ticks: 6, seed: 19, agents: 10, ..ExpOptions::default() }
    }

    #[test]
    fn warning_ablation_renders_all_thresholds() {
        assert_eq!(ablate_warning(&tiny_opts()).rows.len(), 6);
    }

    #[test]
    fn radius_ablation_has_two_rows() {
        assert_eq!(ablate_radius(&tiny_opts()).rows.len(), 2);
    }

    #[test]
    fn forwarding_ablation_shows_ddpolice_best() {
        let t = ablate_forwarding(&tiny_opts());
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let fifo = parse(&t.rows[0][3]);
        let police = parse(&t.rows[2][3]);
        assert!(police < fifo, "DD-POLICE damage {police}% must beat undefended {fifo}%");
    }

    #[test]
    fn rejoin_ablation_renders() {
        assert_eq!(ablate_rejoin(&tiny_opts()).rows.len(), 4);
    }
}

/// Hardening study: the collusive-inflation attack (a reproduction finding;
/// §3.4's Case 1 assumed a lone agent) vs the link-capacity report clamp.
pub fn ablate_clamp(opts: &ExpOptions) -> Table {
    let configs = [
        ("honest agents, no clamp", CheatStrategy::Honest, false),
        ("inflating agents, no clamp", CheatStrategy::InflateSent, false),
        ("inflating agents, clamp on", CheatStrategy::InflateSent, true),
    ];
    let rows = par_map(&configs, |_, &(label, cheat, clamp)| {
        let cfg = DdPoliceConfig { clamp_reports_to_link: clamp, ..DdPoliceConfig::default() };
        let scenario = opts.scenario().cheat(cheat).defense(DefenseKind::DdPoliceFull(cfg));
        let [damage, never] =
            damage_means(opts, 0, &scenario, |dr| [dr.stable_damage(), never_cut(dr)]);
        vec![label.to_string(), pct(damage), f(never, 1)]
    });
    Table::from_rows(
        "ablate_report_clamp",
        format!(
            "Hardening: link-capacity report clamp vs collusive inflation ({} agents)",
            opts.agents
        ),
        &["configuration", "stable damage", "agents never cut"],
        rows,
    )
}

/// §3.1 list-lying study: padding / omission / refusal, with and without the
/// consistency check.
pub fn ablate_lists(opts: &ExpOptions) -> Table {
    let behaviors = [
        ("truthful", ListBehavior::Truthful),
        ("pad 20 phantoms", ListBehavior::PadFake { extra: 20 }),
        ("omit all", ListBehavior::Omit),
        ("refuse exchange", ListBehavior::Refuse),
    ];
    // One flat behavior × check grid, so all eight cells share the pool.
    let grid: Vec<(&str, ListBehavior, bool)> = behaviors
        .iter()
        .flat_map(|&(label, lists)| [true, false].map(|verify| (label, lists, verify)))
        .collect();
    let rows = par_map(&grid, |_, &(label, lists, verify)| {
        let cfg = DdPoliceConfig { verify_lists: verify, ..DdPoliceConfig::default() };
        let scenario = opts.scenario().lists(lists).defense(DefenseKind::DdPoliceFull(cfg));
        let [damage, never, fneg] = damage_means(opts, 0, &scenario, |dr| {
            [dr.stable_damage(), never_cut(dr), good_cut(dr)]
        });
        vec![label.to_string(), on_off(verify).to_string(), pct(damage), f(never, 1), f(fneg, 1)]
    });
    Table::from_rows(
        "ablate_list_lying",
        format!(
            "Section 3.1: neighbor-list lying vs the consistency check ({} agents)",
            opts.agents
        ),
        &[
            "agent list behavior",
            "consistency check",
            "stable damage",
            "agents never cut",
            "good peers cut",
        ],
        rows,
    )
}

#[cfg(test)]
mod hardening_tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions { peers: 240, ticks: 6, seed: 19, agents: 10, ..ExpOptions::default() }
    }

    #[test]
    fn clamp_ablation_renders_three_rows() {
        let t = ablate_clamp(&tiny_opts());
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn clamp_reduces_collusion_damage() {
        let t = ablate_clamp(&tiny_opts());
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let unclamped = parse(&t.rows[1][1]);
        let clamped = parse(&t.rows[2][1]);
        assert!(
            clamped <= unclamped,
            "the clamp must not make collusion damage worse: {clamped}% vs {unclamped}%"
        );
    }

    #[test]
    fn list_ablation_covers_all_behaviors_twice() {
        let t = ablate_lists(&tiny_opts());
        assert_eq!(t.rows.len(), 8);
    }
}

/// Topology-model ablation: flat Gnutella (BA), uniform control (ER), and
/// the two-tier super-peer architecture §1 mentions ("among peers or among
/// super-peers"), under the same attack and defense.
pub fn ablate_topology(opts: &ExpOptions) -> Table {
    let models = [
        ("flat BA (paper)", TopologyModel::BarabasiAlbert { m: 3 }),
        ("Erdos-Renyi d=6", TopologyModel::ErdosRenyi { mean_degree: 6.0 }),
        ("super-peer 20%", TopologyModel::SuperPeer { super_fraction: 0.2, core_m: 3 }),
    ];
    let rows = par_map(&models, |_, &(label, model)| {
        let on = |defense: DefenseKind| {
            opts.scenario().sim(|s| s.topology.model = model).defense(defense)
        };
        let [undef] = damage_means(opts, 0, &on(DefenseKind::None), |dr| [dr.stable_damage()]);
        let [def, fneg] =
            damage_means(opts, 0, &on(DD_POLICE), |dr| [dr.stable_damage(), good_cut(dr)]);
        vec![label.to_string(), pct(undef), pct(def), f(fneg, 1)]
    });
    Table::from_rows(
        "ablate_topology",
        format!("Ablation: overlay architecture under the same attack ({} agents)", opts.agents),
        &["topology", "undefended damage", "DD-POLICE damage", "good peers cut"],
        rows,
    )
}

#[cfg(test)]
mod topology_tests {
    use super::*;

    #[test]
    fn topology_ablation_renders_all_models() {
        let opts =
            ExpOptions { peers: 240, ticks: 5, seed: 31, agents: 10, ..ExpOptions::default() };
        let t = ablate_topology(&opts);
        assert_eq!(t.rows.len(), 3);
    }
}
