//! Cross-layer agreement: the aggregate evaluation simulator (`ddp-sim` +
//! `ddp-police`) and the protocol-level reference implementation
//! (`ddp-servent`) must tell the same qualitative story on a comparable
//! scenario — an attacker is identified and isolated within minutes, the
//! wrongful-cut collateral stays a small minority, and service survives.

use ddpolice::attack::AttackPlan;
use ddpolice::oracle::{Attack, DefenseKind, Scenario};
use ddpolice::police::DdPoliceConfig;
use ddpolice::servent::{Harness, HarnessConfig, ServentRole};
use ddpolice::sim::SimConfig;
use ddpolice::topology::{NodeId, TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MINUTES: usize = 4;

/// Aggregate layer: one agent on a small overlay, DD-POLICE defaults.
fn aggregate_outcome() -> (bool, u64, f64) {
    let report = Scenario {
        sim: SimConfig {
            topology: TopologyConfig { n: 120, model: TopologyModel::BarabasiAlbert { m: 3 } },
            churn: false,
            ..SimConfig::default()
        },
        defense: DefenseKind::DdPolice(DdPoliceConfig::with_cut_threshold(5.0)),
        attack: Attack::Flood(AttackPlan::new(1)),
        ticks: MINUTES,
        seed: 3,
        ..Scenario::default()
    }
    .run(None);
    let attacker_cut = report.summary.attackers_never_cut == 0;
    (attacker_cut, report.summary.errors.false_negative, report.summary.success_rate_stable)
}

/// Protocol layer: same shape of scenario at servent scale.
fn protocol_outcome() -> (bool, u64, f64) {
    let graph = TopologyConfig { n: 30, model: TopologyModel::BarabasiAlbert { m: 3 } }
        .generate(&mut StdRng::seed_from_u64(3));
    let attacker = NodeId(4);
    let role = ServentRole::FloodingAgent { rate_qpm: 1_500, respond_reports: true };
    let mut h = Harness::new(&graph, &[(attacker, role)], HarnessConfig::default(), 3);
    h.run_minutes(MINUTES as u64);
    let r = h.report();
    let isolated = h.servents[attacker.index()].neighbors().is_empty();
    let wrongly_cut_peers = {
        let mut peers: Vec<NodeId> =
            r.cuts.iter().filter(|&&(_, _, s)| s != attacker).map(|&(_, _, s)| s).collect();
        peers.sort_unstable();
        peers.dedup();
        peers.len() as u64
    };
    let service = if r.issued == 0 { 1.0 } else { r.resolved as f64 / r.issued as f64 };
    (isolated, wrongly_cut_peers, service)
}

#[test]
fn both_layers_identify_and_isolate_the_agent() {
    let (agg_cut, _, _) = aggregate_outcome();
    let (proto_cut, _, _) = protocol_outcome();
    assert!(agg_cut, "aggregate layer failed to identify the agent");
    assert!(proto_cut, "protocol layer failed to isolate the agent");
}

#[test]
fn both_layers_keep_collateral_a_small_minority() {
    let (_, agg_fn, _) = aggregate_outcome();
    let (_, proto_fn, _) = protocol_outcome();
    assert!(agg_fn <= 12, "aggregate layer wrongly cut {agg_fn} peers of 120");
    assert!(proto_fn <= 4, "protocol layer wrongly cut {proto_fn} peers of 30");
}

#[test]
fn both_layers_keep_the_service_alive() {
    let (_, _, agg_service) = aggregate_outcome();
    let (_, _, proto_service) = protocol_outcome();
    assert!(agg_service > 0.5, "aggregate stabilized success {agg_service}");
    assert!(proto_service > 0.5, "protocol resolution rate {proto_service}");
}
