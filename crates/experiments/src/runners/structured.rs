//! Future-work study (§5): overlay DDoS on a *structured* P2P system.
//!
//! Runs the same attacker population against the flooding overlay and the
//! Chord-like DHT, with and without their respective defenses, quantifying
//! the structural claim: unicast lookup routing removes the per-query
//! amplification that makes flooding overlays so fragile, and makes
//! origination detection local (no Buddy Group needed).

use super::par_map;
use crate::options::ExpOptions;
use crate::output::{pct, Table};
use ddp_attack::AttackPlan;
use ddp_dht::{DhtAttack, DhtConfig, DhtPolice, DhtSimulation};
use ddp_oracle::{Attack, DefenseKind, Scenario};
use ddp_police::DdPoliceConfig;

/// Compare flooding-overlay vs DHT under the same agent counts.
pub fn structured(opts: &ExpOptions) -> Table {
    let ks: Vec<usize> =
        [5usize, 20, 50, 100].iter().copied().filter(|&k| k * 20 <= opts.peers).collect();

    let rows = par_map(&ks, |_, &k| {
        let flood = |defense: DefenseKind| {
            let attack = Attack::Flood(AttackPlan::new(k));
            let scenario = Scenario { defense, attack, seed: opts.seed, ..opts.scenario() };
            scenario.run(None).summary.success_rate_stable
        };
        let dht = |attack: DhtAttack, defense: Option<DhtPolice>| {
            let mut sim = DhtSimulation::new(
                DhtConfig { peers: opts.peers, attack, defense, ..DhtConfig::default() },
                opts.seed,
            );
            sim.compromise(k);
            sim.run(opts.ticks).summary.success_rate_stable
        };
        vec![
            k.to_string(),
            pct(flood(DefenseKind::None)),
            pct(flood(DefenseKind::DdPolice(DdPoliceConfig::default()))),
            pct(dht(DhtAttack::Uniform, None)),
            pct(dht(DhtAttack::Uniform, Some(DhtPolice::default()))),
            pct(dht(DhtAttack::Hotspot { victim_key: 42 }, None)),
        ]
    });

    Table::from_rows(
        "structured_vs_flooding",
        format!(
            "Future work (§5): same agents on flooding overlay vs Chord-like DHT ({} peers, stable success)",
            opts.peers
        ),
        &[
            "agents",
            "flooding, no defense",
            "flooding, DD-POLICE",
            "DHT, no defense",
            "DHT, origination detector",
            "DHT hotspot, no defense",
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_comparison_renders() {
        let opts =
            ExpOptions { peers: 300, ticks: 5, seed: 7, agents: 10, ..ExpOptions::default() };
        let t = structured(&opts);
        assert_eq!(t.rows.len(), 1); // only k = 5 fits the 5% density cap
    }
}
