//! Tier-1 membership invariants: what a slot's state says holds after every
//! step.
//!
//! Every way off the overlay — a legacy departure, a session departure, a
//! whitewashing agent's dwell — severs the slot's links, and nothing may
//! re-link an offline slot afterwards. A link that outlives its endpoint is
//! a ghost: the live endpoint counts it toward its degree, so it never dials
//! a replacement, and the run's end counts an offline agent holding one as
//! an attacker the defense missed. After every step of each run below:
//!
//! * the overlay's adjacency and counter mirror are consistent;
//! * `is_online` agrees with the slot state, and an offline or isolated
//!   slot has degree 0;
//! * every free-list slot is `Free` and listed once, and every `Free` slot
//!   is listed;
//! * every `Dwell` slot is an offline agent whose rebirth is not overdue.
//!
//! Three fixed runs cover legacy churn, session churn and a whitewash cell
//! with readmission; a seeded sweep then draws the membership knobs.

use ddpolice::attack::{AttackPlan, WhitewashPlan};
use ddpolice::oracle::{Attack, DefenseKind, Scenario};
use ddpolice::police::{DdPolice, DdPoliceConfig, ReadmissionPolicy};
use ddpolice::sim::{Defense, SessionConfig, SimConfig, Simulation, SlotState};
use ddpolice::topology::{NodeId, TopologyConfig};
use ddpolice::workload::LifetimeModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PEERS: usize = 300;

/// Check every membership invariant of `sim` after a step; `dwell` is the
/// whitewash dwell the run was armed with (0 when it was not).
fn check_membership<D: Defense>(name: &str, sim: &Simulation<D>, dwell: u32) {
    let tick = sim.tick();
    if let Err(e) = sim.overlay().check_invariants() {
        panic!("{name}: overlay inconsistent at tick {tick}: {e}");
    }
    let n = sim.node_count();
    let mut listed = vec![false; n];
    for &slot in sim.free_slots() {
        assert!(slot < n && !listed[slot], "{name}: free slot {slot} listed twice at tick {tick}");
        listed[slot] = true;
    }
    for (i, &on_list) in listed.iter().enumerate() {
        let node = NodeId::from_index(i);
        let state = sim.slot_state(node);
        let online = matches!(state, SlotState::Online { .. } | SlotState::Isolated { .. });
        assert_eq!(sim.is_online(node), online, "{name}: slot {i} is {state:?} at tick {tick}");
        let degree = sim.overlay().degree(node);
        assert!(
            online || degree == 0,
            "{name}: offline slot {i} ({:?}, {state:?}) holds {degree} links at tick {tick}",
            sim.role(node)
        );
        // Cut off means degree 0: a probe that links an isolated agent
        // readmits it.
        assert!(
            !matches!(state, SlotState::Isolated { .. }) || degree == 0,
            "{name}: isolated slot {i} holds {degree} links at tick {tick}"
        );
        assert_eq!(
            on_list,
            state == SlotState::Free,
            "{name}: slot {i} is {state:?}, on the free list: {on_list}, at tick {tick}"
        );
        if let SlotState::Dwell { rebirth_at } = state {
            assert!(sim.role(node).is_attacker(), "{name}: good slot {i} dwells at tick {tick}");
            // A slot that began to dwell at tick s is reborn by the first
            // churn step at or after s + dwell, and no earlier than s + 1.
            let began = rebirth_at - dwell;
            assert!(
                began + dwell.max(1) > tick,
                "{name}: slot {i} should have been reborn at tick {rebirth_at}, still dwells at {tick}"
            );
        }
    }
}

/// Step `sim` for `ticks` ticks, checking the invariants after each.
fn step_checked<D: Defense>(name: &str, sim: &mut Simulation<D>, ticks: usize, dwell: u32) {
    for _ in 0..ticks {
        sim.step();
        check_membership(name, sim, dwell);
    }
}

/// `agents` flooding agents placed on the scenario's own stream, under
/// DD-POLICE at CT = 5 (a test that applies a plan of its own passes 0).
fn police_run(peers: usize, agents: usize) -> Scenario {
    Scenario {
        sim: SimConfig {
            topology: TopologyConfig { n: peers, ..TopologyConfig::default() },
            ..SimConfig::default()
        },
        defense: DefenseKind::DdPolice(DdPoliceConfig::with_cut_threshold(5.0)),
        attack: Attack::Flood(AttackPlan::new(agents)),
        ..Scenario::default()
    }
}

fn open_membership(mean: f64, crash_fraction: f64) -> SessionConfig {
    SessionConfig {
        arrival_rate_per_tick: PEERS as f64 / mean,
        session_length: LifetimeModel::Exponential { mean_min: mean },
        crash_fraction,
        max_peers: PEERS * 2,
    }
}

#[test]
fn legacy_churn_leaves_no_links_on_offline_slots() {
    let mut scenario = Scenario { seed: 3, ..police_run(PEERS, 10) };
    scenario.sim.churn = true;
    scenario.sim.lifetime = LifetimeModel::Exponential { mean_min: 4.0 };
    scenario.sim.rejoin_delay_ticks = 2;
    step_checked("legacy churn", &mut scenario.build_sim(), 20, 0);
}

#[test]
fn session_churn_leaves_no_links_on_offline_slots() {
    let mut scenario = Scenario { seed: 5, ..police_run(PEERS, 10) };
    scenario.sim.churn = false;
    scenario.sim.session = Some(open_membership(5.0, 0.25));
    step_checked("session churn", &mut scenario.build_sim(), 20, 0);
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
        let mut scenario = Scenario { seed, ..police_run(PEERS, 0) };
        scenario.sim.churn = false;
        scenario.sim.session = Some(open_membership(10.0, 0.25));
        let mut sim = scenario.build_sim_with(DdPolice::new(police, PEERS));
        WhitewashPlan::new(20, 3).apply(&mut sim, &mut StdRng::seed_from_u64(seed));
        step_checked(&format!("whitewash seed {seed}"), &mut sim, 20, 3);
        assert!(!sim.whitewash_log().is_empty(), "seed {seed}: no agent was ever reborn");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Legacy or session churn, any crash fraction, whitewashing on or off
    /// with any dwell and quiet window, any attacker rejoin delay, and
    /// readmission on or off.
    #[test]
    fn membership_holds_across_seeded_scenarios(
        seed in any::<u64>(),
        session in any::<bool>(),
        crash_pct in 0u32..101,
        whitewash in any::<bool>(),
        dwell in 0u32..4,
        quiet in 0u32..3,
        rejoin_delay in 0u32..6,
        readmission in any::<bool>(),
    ) {
        const SWEEP_PEERS: usize = 200;
        let name = format!(
            "seed {seed} session {session} crash {crash_pct}% whitewash {whitewash} \
             dwell {dwell} quiet {quiet} rejoin delay {rejoin_delay} readmission {readmission}"
        );
        let police = DdPoliceConfig {
            readmission: ReadmissionPolicy { enabled: readmission, ..ReadmissionPolicy::default() },
            suspect_ttl_ticks: 8,
            ..DdPoliceConfig::default()
        };
        let mut scenario = Scenario { seed, ..police_run(SWEEP_PEERS, 0) };
        let s = &mut scenario.sim;
        s.churn = !session;
        s.attacker_rejoin_delay_ticks = rejoin_delay;
        if session {
            s.session = Some(open_membership(6.0, f64::from(crash_pct) / 100.0));
        } else {
            s.lifetime = LifetimeModel::Exponential { mean_min: 4.0 };
            s.rejoin_delay_ticks = 2;
        }
        let mut sim = scenario.build_sim_with(DdPolice::new(police, SWEEP_PEERS));
        let mut rng = StdRng::seed_from_u64(seed);
        if whitewash {
            WhitewashPlan::new(12, dwell).with_quiet(quiet).apply(&mut sim, &mut rng);
        } else {
            AttackPlan::new(12).apply(&mut sim, &mut rng);
        }
        step_checked(&name, &mut sim, 16, if whitewash { dwell } else { 0 });
    }
}
