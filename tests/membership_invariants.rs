//! Tier-1 membership invariant: a slot that is offline holds no overlay link.
//!
//! Every way off the overlay — a legacy departure, a session departure, a
//! whitewashing agent's dwell — severs the slot's links, and nothing may
//! re-link an offline slot afterwards. A link that outlives its endpoint is
//! a ghost: the live endpoint counts it toward its degree, so it never dials
//! a replacement, and the run's end counts an offline agent holding one as
//! an attacker the defense missed. After every step of each run below,
//! every offline slot must have degree 0 and the overlay's adjacency and
//! counter mirror must be consistent.

use ddpolice::attack::WhitewashPlan;
use ddpolice::experiments::{DefenseKind, Scenario};
use ddpolice::police::{DdPolice, DdPoliceConfig, ReadmissionPolicy};
use ddpolice::sim::{Defense, SessionConfig, Simulation};
use ddpolice::topology::NodeId;
use ddpolice::workload::LifetimeModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PEERS: usize = 300;

/// Step `sim` for `ticks` ticks, checking the invariant after each.
fn step_checked<D: Defense>(name: &str, sim: &mut Simulation<D>, ticks: usize) {
    for _ in 0..ticks {
        sim.step();
        let tick = sim.tick();
        if let Err(e) = sim.overlay().check_invariants() {
            panic!("{name}: overlay inconsistent at tick {tick}: {e}");
        }
        for i in 0..sim.node_count() {
            let node = NodeId::from_index(i);
            let degree = sim.overlay().degree(node);
            assert!(
                sim.is_online(node) || degree == 0,
                "{name}: offline slot {i} ({:?}) holds {degree} links at tick {tick}",
                sim.role(node)
            );
        }
    }
}

fn open_membership(mean: f64) -> SessionConfig {
    SessionConfig {
        arrival_rate_per_tick: PEERS as f64 / mean,
        session_length: LifetimeModel::Exponential { mean_min: mean },
        crash_fraction: 0.25,
        max_peers: PEERS * 2,
    }
}

#[test]
fn legacy_churn_leaves_no_links_on_offline_slots() {
    let scenario = Scenario::builder()
        .peers(PEERS)
        .churn(true)
        .attackers(10)
        .defense(DefenseKind::DdPolice { cut_threshold: 5.0 })
        .seed(3)
        .sim(|s| {
            s.lifetime = LifetimeModel::Exponential { mean_min: 4.0 };
            s.rejoin_delay_ticks = 2;
        })
        .build();
    step_checked("legacy churn", &mut scenario.build_sim(), 20);
}

#[test]
fn session_churn_leaves_no_links_on_offline_slots() {
    let scenario = Scenario::builder()
        .peers(PEERS)
        .churn(false)
        .attackers(10)
        .defense(DefenseKind::DdPolice { cut_threshold: 5.0 })
        .seed(5)
        .sim(|s| s.session = Some(open_membership(5.0)))
        .build();
    step_checked("session churn", &mut scenario.build_sim(), 20);
}

/// A cell of the `churn` sweep: session churn, agents that whitewash after
/// being isolated, and readmission probes that re-dial cut pairs — the
/// probes must not reach an agent that is dwelling offline.
#[test]
fn whitewash_dwell_under_readmission_leaves_no_links_on_offline_slots() {
    for seed in 0..2 {
        let police = DdPoliceConfig {
            readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
            suspect_ttl_ticks: 8,
            ..DdPoliceConfig::default()
        };
        let scenario = Scenario::builder()
            .peers(PEERS)
            .churn(false)
            .seed(seed)
            .sim(|s| s.session = Some(open_membership(10.0)))
            .build();
        let mut sim = scenario.build_sim_with(DdPolice::new(police, PEERS));
        WhitewashPlan::new(20, 3).apply(&mut sim, &mut StdRng::seed_from_u64(seed));
        step_checked(&format!("whitewash seed {seed}"), &mut sim, 20);
        assert!(!sim.whitewash_log().is_empty(), "seed {seed}: no agent was ever reborn");
    }
}
