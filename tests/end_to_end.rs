//! Cross-crate integration: the full attack → detect → recover pipeline.

use ddpolice::attack::{AttackPlan, CheatStrategy};
use ddpolice::experiments::ExpOptions;
use ddpolice::oracle::{Attack, DefenseKind, Scenario};
use ddpolice::police::DdPoliceConfig;

fn base(defense: DefenseKind, agents: usize, seed: u64) -> Scenario {
    let opts = ExpOptions { peers: 600, ticks: 12, agents, ..ExpOptions::default() };
    Scenario { defense, seed, ..opts.scenario() }
}

/// DD-POLICE at the paper's defaults (CT = 5).
fn police() -> DefenseKind {
    DefenseKind::DdPolice(DdPoliceConfig::with_cut_threshold(5.0))
}

#[test]
fn undefended_attack_collapses_the_system() {
    let dr = base(DefenseKind::None, 30, 1).run_with_damage(None);
    assert!(
        dr.stable_damage() > 0.5,
        "30 agents on 600 peers without defense must be devastating: {}",
        dr.stable_damage()
    );
    // All agents survive to the end.
    assert_eq!(dr.attacked.summary.errors.false_positive, 30);
}

#[test]
fn dd_police_detects_and_recovers() {
    let dr = base(police(), 30, 1).run_with_damage(None);
    assert!(
        dr.stable_damage() < 0.30,
        "DD-POLICE should contain the attack: stable damage {}",
        dr.stable_damage()
    );
    assert!(dr.attacked.summary.attackers_cut >= 30, "every agent cut at least once");
    // Detection errors stay bounded: 30 agents are 5% of this overlay (the
    // paper's most extreme density); Figure 13 reports errors in the tens
    // out of 2,000 peers at CT = 5 under a comparable 5% attack.
    assert!(
        dr.attacked.summary.errors.false_negative < 90,
        "too many innocent peers cut: {:?}",
        dr.attacked.summary.errors
    );
}

#[test]
fn recovery_time_is_short_with_default_ct() {
    // A moderate attack (2% of peers compromised — the paper's sweeps top
    // out at 1% on 20,000 peers) recovers within a few minutes at CT = 5.
    let dr = base(police(), 12, 3).run_with_damage(None);
    match dr.recovery_ticks {
        Some(t) => assert!(t <= 6, "recovery took {t} minutes; the paper stresses it is short"),
        None => {
            // Damage may never have reached the 20% trigger on this seed —
            // that is an even stronger defense outcome.
            assert!(dr.damage.max() < 0.2, "damage {:?} never recovered", dr.damage.values);
        }
    }
}

#[test]
fn every_cheating_strategy_still_ends_with_agents_cut() {
    for strategy in CheatStrategy::all() {
        let attack = Attack::Flood(AttackPlan::new(10).with_cheat(strategy));
        let report = Scenario { attack, ..base(police(), 10, 5) }.run(None);
        assert!(
            report.summary.attackers_cut > 0,
            "strategy {:?} produced no cuts",
            strategy.label()
        );
    }
}

#[test]
fn naive_rate_limiting_hurts_more_good_peers_than_dd_police() {
    let naive = base(DefenseKind::NaiveRateLimit { threshold_qpm: 500 }, 20, 9).run(None);
    let police = base(police(), 20, 9).run(None);
    assert!(
        naive.summary.errors.false_negative > police.summary.errors.false_negative,
        "naive {} vs dd-police {} wrongly cut peers",
        naive.summary.errors.false_negative,
        police.summary.errors.false_negative
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = base(police(), 15, 11).run_with_damage(None);
    let b = base(police(), 15, 11).run_with_damage(None);
    assert_eq!(a.damage, b.damage);
    assert_eq!(a.attacked.summary, b.attacked.summary);
    assert_eq!(a.baseline.summary, b.baseline.summary);
}
