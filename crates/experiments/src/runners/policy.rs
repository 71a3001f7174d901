//! Protocol-policy studies: §3.7.1 neighbor-list exchange frequency and the
//! §3.4 report-cheating strategies.

use super::ct::{mean_recovery, recovery_cell};
use super::{damage_means, par_map};
use crate::output::{f, pct, Table};
use crate::scenario::{DefenseKind, ExpOptions};
use ddp_attack::CheatStrategy;
use ddp_police::{DdPoliceConfig, ExchangePolicy};

/// §3.7.1: periodic exchange every s ∈ {1, 2, 4, 5, 10} minutes vs the
/// event-driven policy, under churn, with `opts.agents` attackers.
pub fn exchange(opts: &ExpOptions) -> Table {
    let policies: Vec<(String, ExchangePolicy)> = [1u32, 2, 4, 5, 10]
        .iter()
        .map(|&m| (format!("periodic s={m}"), ExchangePolicy::Periodic { minutes: m }))
        .chain(std::iter::once(("event-driven".to_string(), ExchangePolicy::EventDriven)))
        .collect();

    // Paired seeds: every policy sees the same churn and attack.
    let rows = par_map(&policies, |_, (label, policy)| {
        let cfg = DdPoliceConfig { exchange: *policy, ..DdPoliceConfig::default() };
        let scenario = opts.scenario().defense(DefenseKind::DdPoliceFull(cfg));
        let [control, fneg, fpos, damage] = damage_means(opts, 0, &scenario, |dr| {
            let summary = &dr.attacked.summary;
            [
                summary.control_per_tick,
                summary.errors.false_negative as f64,
                summary.errors.false_positive as f64,
                dr.stable_damage(),
            ]
        });
        vec![label.clone(), f(control, 0), f(fneg, 1), f(fpos, 1), pct(damage)]
    });

    Table::from_rows(
        "exchange_policy",
        format!("Section 3.7.1: neighbor-list exchange policy ({} agents, churn on)", opts.agents),
        &["policy", "control msgs/tick", "false negative", "false positive", "stable damage"],
        rows,
    )
}

/// §3.4: the attacker's report-cheating options. The paper argues none of
/// them helps; this experiment quantifies each.
pub fn cheating(opts: &ExpOptions) -> Table {
    // Paired seeds across strategies.
    let rows = par_map(&CheatStrategy::all(), |_, &strategy| {
        let scenario =
            opts.scenario().cheat(strategy).defense(DefenseKind::DdPolice { cut_threshold: 5.0 });
        let mut recoveries = Vec::new();
        let [cut, never, fneg, damage] = damage_means(opts, 0, &scenario, |dr| {
            recoveries.push(dr.recovery_ticks);
            let summary = &dr.attacked.summary;
            [
                summary.attackers_cut as f64,
                summary.attackers_never_cut as f64,
                summary.errors.false_negative as f64,
                dr.stable_damage(),
            ]
        });
        vec![
            strategy.label().to_string(),
            f(cut, 1),
            f(never, 1),
            f(fneg, 1),
            pct(damage),
            recovery_cell(mean_recovery(&recoveries)),
        ]
    });

    Table::from_rows(
        "cheating_strategies",
        format!("Section 3.4: attacker report-cheating strategies ({} agents)", opts.agents),
        &[
            "strategy",
            "attacker cut events",
            "attackers never cut",
            "good peers cut",
            "stable damage",
            "recovery ticks",
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        // 12 ticks, not 8: with the default 2-minute exchange period the
        // defense only finishes cutting the agents around tick 10, so the
        // damage figures need a couple of stable ticks after recovery.
        ExpOptions { peers: 240, ticks: 12, seed: 11, agents: 10, ..ExpOptions::default() }
    }

    #[test]
    fn exchange_table_covers_all_policies() {
        let t = exchange(&tiny_opts());
        assert_eq!(t.rows.len(), 6);
        assert!(t.rows[5][0].contains("event-driven"));
    }

    #[test]
    fn cheating_table_covers_all_strategies() {
        let t = cheating(&tiny_opts());
        assert_eq!(t.rows.len(), 4);
        let labels: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(labels.contains(&"honest") && labels.contains(&"silent"));
    }

    #[test]
    fn honest_deflate_and_silence_do_not_rescue_the_attack() {
        // §3.4's per-agent analysis holds for honesty, deflation, and
        // silence: the agents end up cut and stable damage is low.
        let t = cheating(&tiny_opts());
        for row in &t.rows {
            if row[0] == "inflate" {
                continue; // see the collusion test below
            }
            let damage: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(damage < 50.0, "strategy {} left stable damage {damage}%", row[0]);
        }
    }

    /// Reproduction finding beyond the paper: §3.4's Case 1 ("reporting a
    /// larger number ... is not a meaningful cheating") assumes a *lone*
    /// agent. When several agents are deployed, an agent adjacent to a
    /// fellow agent can inflate its claimed traffic *into* that suspect,
    /// inflating `Σ Q_{m→j}` and driving both indicators negative —
    /// collusive vouching that shields the suspect. See EXPERIMENTS.md.
    #[test]
    fn inflation_enables_collusive_vouching() {
        let t = cheating(&tiny_opts());
        let row = t.rows.iter().find(|r| r[0] == "inflate").unwrap();
        let honest = t.rows.iter().find(|r| r[0] == "honest").unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        assert!(
            parse(&row[4]) >= parse(&honest[4]),
            "inflation should never help the defense: inflate {} vs honest {}",
            row[4],
            honest[4]
        );
    }
}
