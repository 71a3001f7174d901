//! The verdict ledger is a complete audit: every applied cut and every
//! step of the readmission lifecycle appears in it, in order. That the
//! default lifecycle (`Hysteresis { 1, 1 }`, sum aggregation, readmission
//! off) cuts exactly as the paper's single-shot rule does is the oracle
//! lockstep's job (`oracle_differential.rs`).

use ddp_metrics::PeerVerdict;
use ddp_police::{DdPolice, DdPoliceConfig, ReadmissionPolicy};
use ddp_sim::{ReportBehavior, RunResult, SimConfig, Simulation};
use ddp_topology::{NodeId, TopologyConfig, TopologyModel};

fn sim_config(n: usize, churn: bool) -> SimConfig {
    SimConfig {
        topology: TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn,
        ..SimConfig::default()
    }
}

fn run(
    defense: DdPolice,
    n: usize,
    churn: bool,
    attackers: &[(u32, ReportBehavior)],
    ticks: usize,
    seed: u64,
) -> RunResult {
    let mut sim = Simulation::new(sim_config(n, churn), defense, seed);
    for &(a, behavior) in attackers {
        sim.make_attacker(NodeId(a), behavior);
    }
    sim.run(ticks)
}

#[test]
fn ledger_records_every_applied_cut() {
    let result = run(
        DdPolice::new(DdPoliceConfig::default(), 300),
        300,
        false,
        &[(5, ReportBehavior::Honest), (77, ReportBehavior::Honest), (123, ReportBehavior::Honest)],
        8,
        42,
    );
    assert!(!result.cut_log.is_empty(), "scenario must produce cuts");
    for cut in &result.cut_log {
        let cut_entry = result.verdict_log.iter().any(|t| {
            t.tick == cut.tick
                && t.observer == cut.observer.0
                && t.suspect == cut.suspect.0
                && t.to == PeerVerdict::Cut
        });
        assert!(cut_entry, "cut {cut:?} missing from the verdict ledger");
        let quarantined = result.verdict_log.iter().any(|t| {
            t.tick == cut.tick
                && t.observer == cut.observer.0
                && t.suspect == cut.suspect.0
                && t.from == PeerVerdict::Cut
                && t.to == PeerVerdict::Quarantined
        });
        assert!(quarantined, "cut {cut:?} has no quarantine transition");
    }
    assert_eq!(result.summary.verdicts.cuts as usize, result.verdict_log.len() / 2);
}

#[test]
fn ledger_records_the_readmission_lifecycle() {
    let cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
        ..DdPoliceConfig::default()
    };
    let result = run(
        DdPolice::new(cfg, 300),
        300,
        false,
        &[(5, ReportBehavior::Honest), (77, ReportBehavior::Honest)],
        16,
        42,
    );
    let v = &result.summary.verdicts;
    assert!(v.cuts > 0, "scenario must cut");
    assert!(v.readmission_probes > 0, "quarantine backoffs must mature within 16 ticks");
    // Every Probation entry in the log follows a Quarantined state for the
    // same (observer, suspect) pair, and every Readmitted follows Probation.
    for t in &result.verdict_log {
        if t.to == PeerVerdict::Probation {
            assert_eq!(t.from, PeerVerdict::Quarantined, "{t:?}");
            assert!(result.verdict_log.iter().any(|p| {
                p.tick <= t.tick
                    && p.observer == t.observer
                    && p.suspect == t.suspect
                    && p.to == PeerVerdict::Quarantined
            }));
        }
        if t.to == PeerVerdict::Readmitted {
            assert_eq!(t.from, PeerVerdict::Probation, "{t:?}");
        }
    }
    let probation_entries = result
        .verdict_log
        .iter()
        .filter(|t| t.from == PeerVerdict::Quarantined && t.to == PeerVerdict::Probation)
        .count();
    assert_eq!(v.readmission_probes as usize, probation_entries);
}
