//! Quickstart: simulate an overlay DDoS attack and defend it with DD-POLICE.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ddpolice::prelude::*;

fn main() {
    // A 1,000-peer Gnutella-style overlay, 20 simulated minutes, 20 DDoS
    // agents flooding at min(20,000, link) queries per minute each.
    let scenario = Scenario {
        sim: SimConfig {
            topology: TopologyConfig { n: 1_000, ..TopologyConfig::default() },
            ..SimConfig::default()
        },
        defense: DefenseKind::DdPolice(DdPoliceConfig::with_cut_threshold(5.0)),
        attack: Attack::Flood(AttackPlan::new(20)),
        ticks: 20,
        seed: 7,
        ..Scenario::default()
    };

    // `run_with_damage` also runs the paired no-attack baseline (same seed,
    // same topology) so the paper's damage rate D(t) can be computed; `None`
    // leaves checkpointing off.
    let report = scenario.run_with_damage(None);

    println!("defense: {}", scenario.defense.label());
    println!("baseline success rate: {:.1}%", report.baseline.summary.success_rate_mean * 100.0);
    println!(
        "attacked success rate: {:.1}% (stabilized {:.1}%)",
        report.attacked.summary.success_rate_mean * 100.0,
        report.attacked.summary.success_rate_stable * 100.0
    );
    println!(
        "attacker disconnection events: {} ({} agents never caught)",
        report.attacked.summary.attackers_cut, report.attacked.summary.attackers_never_cut
    );
    println!(
        "good peers wrongly cut (paper's false negative): {}",
        report.attacked.summary.errors.false_negative
    );
    match report.recovery_ticks {
        Some(t) => println!("damage recovery time: {t} minutes"),
        None => println!("damage never exceeded the 20% trigger (or never recovered)"),
    }
    println!("\ndamage rate per minute:");
    for (t, d) in report.damage.values.iter().enumerate() {
        println!("  minute {:>2}: {:>5.1}%  {}", t + 1, d * 100.0, bar(*d));
    }
}

fn bar(v: f64) -> String {
    "#".repeat((v * 40.0).round() as usize)
}
