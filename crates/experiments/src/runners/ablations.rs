//! Ablations of DESIGN.md's called-out design choices.

use super::par_map;
use crate::output::{f, pct, Table};
use crate::scenario::{DefenseKind, ExpOptions, Scenario};
use ddp_police::{DdPoliceConfig, ExchangePolicy};
use ddp_workload::LifetimeModel;

fn damage_row(
    opts: &ExpOptions,
    ci: usize,
    scenario: impl Fn(u64) -> Scenario,
) -> (f64, f64, f64, f64) {
    let mut fneg = 0.0;
    let mut fpos = 0.0;
    let mut damage = 0.0;
    let mut control = 0.0;
    for r in 0..opts.replicates {
        let dr = scenario(opts.seed_for(ci, r)).run_with_damage();
        fneg += dr.attacked.summary.errors.false_negative as f64;
        fpos += dr.attacked.summary.errors.false_positive as f64;
        damage += dr.stable_damage();
        control += dr.attacked.summary.control_per_tick;
    }
    let n = opts.replicates.max(1) as f64;
    (fneg / n, fpos / n, damage / n, control / n)
}

/// Warning-threshold sweep (the §3.3 default is 500 queries/min): too low
/// triggers constant Buddy-Group exchanges; too high delays detection.
pub fn ablate_warning(opts: &ExpOptions) -> Table {
    let thresholds = [100u32, 250, 500, 1_000, 2_000, 5_000];
    let rows = par_map(&thresholds, |ci, &w| {
        let (fneg, fpos, damage, control) = damage_row(opts, ci, |seed| {
            let cfg = DdPoliceConfig { warning_threshold_qpm: w, ..DdPoliceConfig::default() };
            Scenario::builder()
                .peers(opts.peers)
                .ticks(opts.ticks)
                .attackers(opts.agents)
                .defense(DefenseKind::DdPoliceFull(cfg))
                .seed(seed)
                .build()
        });
        vec![w.to_string(), f(fneg, 1), f(fpos, 1), pct(damage), f(control, 0)]
    });
    let mut t = Table::new(
        "ablate_warning_threshold",
        format!("Ablation: warning threshold ({} agents)", opts.agents),
        &[
            "warning q/min",
            "false negative",
            "false positive",
            "stable damage",
            "control msgs/tick",
        ],
    );
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Buddy-Group radius r ∈ {1, 2} under *heavy* churn (mean lifetime 5 min):
/// r = 2's cross-verified membership resists snapshot staleness.
pub fn ablate_radius(opts: &ExpOptions) -> Table {
    let rows = par_map(&[1u8, 2], |ci, &radius| {
        let (fneg, fpos, damage, _) = damage_row(opts, ci, |seed| {
            let cfg = DdPoliceConfig {
                radius,
                exchange: ExchangePolicy::Periodic { minutes: 4 }, // extra staleness
                ..DdPoliceConfig::default()
            };
            let sim = ddp_sim::SimConfig {
                topology: ddp_topology::TopologyConfig {
                    n: opts.peers,
                    model: ddp_topology::TopologyModel::BarabasiAlbert { m: 3 },
                },
                lifetime: LifetimeModel::LogNormal { mean_min: 5.0, var_min: 2.5 },
                ..ddp_sim::SimConfig::default()
            };
            Scenario::builder()
                .sim_config(sim)
                .ticks(opts.ticks)
                .attackers(opts.agents)
                .defense(DefenseKind::DdPoliceFull(cfg))
                .seed(seed)
                .build()
        });
        vec![format!("r={radius}"), f(fneg, 1), f(fpos, 1), pct(damage)]
    });
    let mut t = Table::new(
        "ablate_bg_radius",
        format!("Ablation: Buddy-Group radius under heavy churn ({} agents)", opts.agents),
        &["radius", "false negative", "false positive", "stable damage"],
    );
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Forwarding-policy comparison: plain FIFO vs the fair-share survival
/// baseline (the paper's related work \[21\]) vs DD-POLICE detection.
pub fn ablate_forwarding(opts: &ExpOptions) -> Table {
    let configs: Vec<(&str, DefenseKind)> = vec![
        ("fifo, no defense", DefenseKind::None),
        ("fair-share forwarding", DefenseKind::FairShare),
        ("DD-POLICE (CT=5)", DefenseKind::DdPolice { cut_threshold: 5.0 }),
    ];
    let rows = par_map(&configs, |ci, (label, defense)| {
        let mut success = 0.0;
        let mut response = 0.0;
        let mut damage = 0.0;
        for r in 0..opts.replicates {
            let dr = Scenario::builder()
                .peers(opts.peers)
                .ticks(opts.ticks)
                .attackers(opts.agents)
                .defense(defense.clone())
                .seed(opts.seed_for(ci, r))
                .build()
                .run_with_damage();
            success += dr.attacked.summary.success_rate_stable;
            response += dr.attacked.summary.response_time_mean_secs;
            damage += dr.stable_damage();
        }
        let n = opts.replicates.max(1) as f64;
        vec![label.to_string(), pct(success / n), f(response / n, 2), pct(damage / n)]
    });
    let mut t = Table::new(
        "ablate_forwarding_policy",
        format!("Baseline comparison: forwarding policy vs detection ({} agents)", opts.agents),
        &["configuration", "stable success", "response (s)", "stable damage"],
    );
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Attacker-rejoin extension (§3.7.2 notes nothing stops agents from coming
/// back): how the rejoin delay changes steady-state damage under DD-POLICE.
pub fn ablate_rejoin(opts: &ExpOptions) -> Table {
    let delays: Vec<(String, u32)> = vec![
        ("never (paper)".into(), u32::MAX),
        ("10 min".into(), 10),
        ("5 min".into(), 5),
        ("2 min".into(), 2),
    ];
    let rows = par_map(&delays, |ci, (label, delay)| {
        let mut damage = 0.0;
        let mut cuts = 0.0;
        for r in 0..opts.replicates {
            let sim = ddp_sim::SimConfig {
                topology: ddp_topology::TopologyConfig {
                    n: opts.peers,
                    model: ddp_topology::TopologyModel::BarabasiAlbert { m: 3 },
                },
                attacker_rejoin_delay_ticks: *delay,
                ..ddp_sim::SimConfig::default()
            };
            let dr = Scenario::builder()
                .sim_config(sim)
                .ticks(opts.ticks)
                .attackers(opts.agents)
                .defense(DefenseKind::DdPolice { cut_threshold: 5.0 })
                .seed(opts.seed_for(ci, r))
                .build()
                .run_with_damage();
            damage += dr.stable_damage();
            cuts += dr.attacked.summary.attackers_cut as f64;
        }
        let n = opts.replicates.max(1) as f64;
        vec![label.clone(), pct(damage / n), f(cuts / n, 0)]
    });
    let mut t = Table::new(
        "ablate_attacker_rejoin",
        format!("Extension: attacker rejoin delay ({} agents, DD-POLICE CT=5)", opts.agents),
        &["rejoin delay", "stable damage", "attacker cut events"],
    );
    for row in rows {
        t.push_row(row);
    }
    t
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
    use ddp_attack::CheatStrategy;
    let configs: Vec<(&str, CheatStrategy, bool)> = vec![
        ("honest agents, no clamp", CheatStrategy::Honest, false),
        ("inflating agents, no clamp", CheatStrategy::InflateSent, false),
        ("inflating agents, clamp on", CheatStrategy::InflateSent, true),
    ];
    let rows = par_map(&configs, |_, (label, cheat, clamp)| {
        let mut damage = 0.0;
        let mut never = 0.0;
        for r in 0..opts.replicates {
            let cfg = DdPoliceConfig { clamp_reports_to_link: *clamp, ..DdPoliceConfig::default() };
            let dr = Scenario::builder()
                .peers(opts.peers)
                .ticks(opts.ticks)
                .attackers(opts.agents)
                .cheat(*cheat)
                .defense(DefenseKind::DdPoliceFull(cfg))
                .seed(opts.seed_for(0, r))
                .build()
                .run_with_damage();
            damage += dr.stable_damage();
            never += dr.attacked.summary.attackers_never_cut as f64;
        }
        let n = opts.replicates.max(1) as f64;
        vec![label.to_string(), pct(damage / n), f(never / n, 1)]
    });
    let mut t = Table::new(
        "ablate_report_clamp",
        format!(
            "Hardening: link-capacity report clamp vs collusive inflation ({} agents)",
            opts.agents
        ),
        &["configuration", "stable damage", "agents never cut"],
    );
    for row in rows {
        t.push_row(row);
    }
    t
}

/// §3.1 list-lying study: padding / omission / refusal, with and without the
/// consistency check.
pub fn ablate_lists(opts: &ExpOptions) -> Table {
    use ddp_sim::ListBehavior;
    let behaviors: Vec<(&str, ListBehavior)> = vec![
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
        let mut damage = 0.0;
        let mut never = 0.0;
        let mut fneg = 0.0;
        for r in 0..opts.replicates {
            let cfg = DdPoliceConfig { verify_lists: verify, ..DdPoliceConfig::default() };
            let dr = Scenario::builder()
                .peers(opts.peers)
                .ticks(opts.ticks)
                .attackers(opts.agents)
                .lists(lists)
                .defense(DefenseKind::DdPoliceFull(cfg))
                .seed(opts.seed_for(0, r))
                .build()
                .run_with_damage();
            damage += dr.stable_damage();
            never += dr.attacked.summary.attackers_never_cut as f64;
            fneg += dr.attacked.summary.errors.false_negative as f64;
        }
        let n = opts.replicates.max(1) as f64;
        vec![
            label.to_string(),
            if verify { "on" } else { "off" }.to_string(),
            pct(damage / n),
            f(never / n, 1),
            f(fneg / n, 1),
        ]
    });
    let mut t = Table::new(
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
    );
    for row in rows {
        t.push_row(row);
    }
    t
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
    use ddp_topology::{TopologyConfig, TopologyModel};
    let models: Vec<(&str, TopologyModel)> = vec![
        ("flat BA (paper)", TopologyModel::BarabasiAlbert { m: 3 }),
        ("Erdos-Renyi d=6", TopologyModel::ErdosRenyi { mean_degree: 6.0 }),
        ("super-peer 20%", TopologyModel::SuperPeer { super_fraction: 0.2, core_m: 3 }),
    ];
    let rows = par_map(&models, |_, (label, model)| {
        let mut undef = 0.0;
        let mut def = 0.0;
        let mut fneg = 0.0;
        for r in 0..opts.replicates {
            let sim = ddp_sim::SimConfig {
                topology: TopologyConfig { n: opts.peers, model: *model },
                ..ddp_sim::SimConfig::default()
            };
            let mk = |defense: DefenseKind, sim: ddp_sim::SimConfig| {
                Scenario::builder()
                    .sim_config(sim)
                    .ticks(opts.ticks)
                    .attackers(opts.agents)
                    .defense(defense)
                    .seed(opts.seed_for(0, r))
                    .build()
                    .run_with_damage()
            };
            let u = mk(DefenseKind::None, sim.clone());
            let d = mk(DefenseKind::DdPolice { cut_threshold: 5.0 }, sim);
            undef += u.stable_damage();
            def += d.stable_damage();
            fneg += d.attacked.summary.errors.false_negative as f64;
        }
        let n = opts.replicates.max(1) as f64;
        vec![label.to_string(), pct(undef / n), pct(def / n), f(fneg / n, 1)]
    });
    let mut t = Table::new(
        "ablate_topology",
        format!("Ablation: overlay architecture under the same attack ({} agents)", opts.agents),
        &["topology", "undefended damage", "DD-POLICE damage", "good peers cut"],
    );
    for row in rows {
        t.push_row(row);
    }
    t
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
