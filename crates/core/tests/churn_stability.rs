//! Churn hardening: defense state about departed identities must not leak.
//!
//! Before this PR, a peer that left or crashed kept living on inside every
//! former neighbor's defense state — exchanged-list snapshots, missing-list
//! grace streaks, and quarantine/probation clocks all survived the identity
//! they described, and a recycled slot inherited a stranger's record. These
//! tests pin the two reclamation paths (graceful `on_peer_departed`, TTL
//! sweep for crashes) and the end-to-end bounded-memory property.

use ddp_police::{DdPolice, DdPoliceConfig, ReadmissionPolicy, SuspectState};
use ddp_sim::{
    Actions, Defense, ListBehavior, Overlay, ReportBehavior, SessionConfig, SimConfig, Simulation,
    TickObservation,
};
use ddp_topology::{DynamicGraph, NodeId, TopologyConfig, TopologyModel};
use ddp_workload::BandwidthClass;

/// A 4-peer line-plus-spur overlay: 0–1, 0–2, 1–3. Peer 0 plays the suspect.
fn small_overlay() -> Overlay {
    let mut g = DynamicGraph::new(4);
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(0), NodeId(2));
    g.add_edge(NodeId(1), NodeId(3));
    Overlay::new(g, &[BandwidthClass::Ethernet; 4])
}

fn churn_cfg() -> DdPoliceConfig {
    DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
        suspect_ttl_ticks: 4,
        ..DdPoliceConfig::default()
    }
}

const HONEST: &[ReportBehavior] = &[ReportBehavior::Honest; 4];
const TRUTHFUL: &[ListBehavior] = &[ListBehavior::Truthful; 4];
const RUNS: &[bool] = &[true; 4];

fn obs<'a>(overlay: &'a Overlay, tick: u32, online: &'a [bool]) -> TickObservation<'a> {
    TickObservation {
        tick,
        overlay,
        online,
        runs_defense: RUNS,
        report_behavior: HONEST,
        list_behavior: TRUTHFUL,
        faults: None,
    }
}

/// Flood hard enough from peer 0 into peer 1 that observer 1 quarantines 0
/// on the first judged tick, then return the armed police instance.
fn quarantine_suspect_zero(overlay: &mut Overlay, online: &[bool]) -> DdPolice {
    let slot = overlay
        .neighbors(NodeId(0))
        .iter()
        .position(|h| h.peer == NodeId(1))
        .expect("0–1 edge exists");
    overlay.record_accept(NodeId(0), slot, 20_000);
    let mut police = DdPolice::new(churn_cfg(), 4);
    let mut actions = Actions::default();
    police.on_tick(&obs(overlay, 1, online), &mut actions);
    assert_eq!(actions.cuts, vec![(NodeId(1), NodeId(0))], "observer 1 cuts the flooder");
    let entry = police.verdicts().entry(NodeId(1), NodeId(0)).expect("verdict entry exists");
    assert!(
        matches!(entry.state, SuspectState::Quarantined { .. }),
        "readmission keeps the cut as a quarantine"
    );
    police
}

#[test]
fn graceful_departure_sweeps_all_state_about_the_identity() {
    let mut overlay = small_overlay();
    let online = vec![true; 4];
    let mut police = quarantine_suspect_zero(&mut overlay, &online);

    let (verdicts, snapshots) = police.state_footprint();
    assert!(verdicts >= 1);
    assert_eq!(snapshots, 6, "three edges announce in both directions");
    assert!(police.forbids_link(NodeId(1), NodeId(0)), "open quarantine vetoes re-linking");

    police.on_peer_departed(NodeId(0));

    assert_eq!(police.state_footprint().0, 0, "no verdict survives the departed suspect");
    // Peer 0's own view (snapshots of 1 and 2) and both snapshots *of* peer 0
    // are gone; only the 1↔3 pair may remain.
    assert_eq!(police.state_footprint().1, 2);
    assert!(
        !police.forbids_link(NodeId(1), NodeId(0)),
        "a recycled slot must not inherit its predecessor's quarantine"
    );
}

#[test]
fn crashed_suspects_clocked_state_expires_instead_of_probing_a_dead_slot() {
    let mut overlay = small_overlay();
    let online = vec![true; 4];
    let mut police = quarantine_suspect_zero(&mut overlay, &online);
    let SuspectState::Quarantined { until, .. } =
        police.verdicts().entry(NodeId(1), NodeId(0)).unwrap().state
    else {
        unreachable!()
    };
    assert_eq!(until, 5, "cut at tick 1 + default base backoff 4");

    // Peer 0 crashes: no goodbye ran, its entry waits on the sweep. The
    // quarantine clock is honored while pending, then collected when due —
    // the readmission probe must never fire toward the dead address.
    let mut offline = online.clone();
    offline[0] = false;
    overlay.reset_tick_counters();
    for tick in 2..=4 {
        let mut actions = Actions::default();
        police.on_tick(&obs(&overlay, tick, &offline), &mut actions);
        assert!(actions.reconnects.is_empty());
        assert_eq!(police.state_footprint().0, 1, "clock not due at tick {tick}");
    }
    let mut actions = Actions::default();
    police.on_tick(&obs(&overlay, 5, &offline), &mut actions);
    assert!(actions.reconnects.is_empty(), "probe collected, not fired into the dead slot");
    assert_eq!(police.state_footprint().0, 0, "due clock about an offline suspect is swept");
}

#[test]
fn ttl_disabled_preserves_the_static_membership_behavior() {
    // With the default `suspect_ttl_ticks = u32::MAX` the sweep never runs:
    // a quarantine about an offline suspect survives to fire its probe —
    // exactly the pre-PR (paper, static membership) lifecycle.
    let mut overlay = small_overlay();
    let online = vec![true; 4];
    let slot = overlay.neighbors(NodeId(0)).iter().position(|h| h.peer == NodeId(1)).unwrap();
    overlay.record_accept(NodeId(0), slot, 20_000);
    let cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
        ..DdPoliceConfig::default()
    };
    let mut police = DdPolice::new(cfg, 4);
    let mut actions = Actions::default();
    police.on_tick(&obs(&overlay, 1, &online), &mut actions);
    let mut offline = online.clone();
    offline[0] = false;
    overlay.reset_tick_counters();
    for tick in 2..=5 {
        let mut actions = Actions::default();
        police.on_tick(&obs(&overlay, tick, &offline), &mut actions);
        if tick == 5 {
            assert_eq!(actions.reconnects, vec![(NodeId(1), NodeId(0))], "legacy probe fires");
        }
    }
}

/// The end-to-end bounded-memory regression: a long run under the session
/// model (heavy join/leave/crash traffic, slots recycled and grown) must not
/// accumulate defense state. The footprint at the end stays within a small
/// factor of the mid-run footprint and within fixed per-slot budgets.
#[test]
fn long_churn_run_keeps_defense_state_bounded() {
    let cfg = SimConfig {
        topology: TopologyConfig { n: 150, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn: false,
        session: Some(SessionConfig::steady_state(150, 6.0)),
        ..SimConfig::default()
    };
    let police_cfg = DdPoliceConfig {
        readmission: ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() },
        suspect_ttl_ticks: 8,
        ..DdPoliceConfig::default()
    };
    let mut sim = Simulation::new(cfg, DdPolice::new(police_cfg, 150), 42);
    for a in [5u32, 50, 100] {
        sim.make_attacker(NodeId(a), ReportBehavior::Honest);
    }

    for _ in 0..40 {
        sim.step();
    }
    let (mid_verdicts, mid_snapshots) = sim.defense().state_footprint();
    for _ in 0..40 {
        sim.step();
    }
    let (fin_verdicts, fin_snapshots) = sim.defense().state_footprint();

    let stats = sim.session_stats();
    assert!(stats.joins > 50 && stats.leaves + stats.crashes > 50, "churn actually happened");

    // Verdict entries track *live* suspicion only: a handful of attackers
    // plus transient watches — nowhere near one per identity ever seen.
    let slots = sim.node_count();
    assert!(
        fin_verdicts <= slots / 4 + 8,
        "verdict state leaked: {fin_verdicts} entries over {slots} slots"
    );
    assert!(
        fin_verdicts <= 2 * mid_verdicts + 16,
        "verdict state grew between samples: {mid_verdicts} -> {fin_verdicts}"
    );
    // Snapshots are bounded by live directed edges (mean degree ~6), not by
    // the total number of identities that ever churned through.
    assert!(
        fin_snapshots <= 10 * slots,
        "snapshot state leaked: {fin_snapshots} snapshots over {slots} slots"
    );
    assert!(
        fin_snapshots <= 2 * mid_snapshots + 64,
        "snapshot state grew between samples: {mid_snapshots} -> {fin_snapshots}"
    );

    // The transposed indexes the departure hooks walk must not leak either:
    // after 80 ticks of recycled and grown slots they list exactly what the
    // stores hold — checked against a scan of every (holder, identity) pair.
    let (verdicts, exchange) = (sim.defense().verdicts(), sim.defense().exchange());
    let ids = || (0..slots).map(NodeId::from_index);
    let listed_verdicts: usize = ids().map(|j| verdicts.holders_of(j).len()).sum();
    let listed_snapshots: usize = ids().map(|j| exchange.holders_of(j).len()).sum();
    assert_eq!((listed_verdicts, listed_snapshots), (fin_verdicts, fin_snapshots));
    for j in ids() {
        let observers = ids().filter(|&o| verdicts.entry(o, j).is_some()).count();
        assert_eq!(verdicts.entries_about(j), observers, "verdict index about {j:?}");
        let mut listed = exchange.holders_of(j).to_vec();
        listed.sort_unstable();
        let viewers: Vec<u32> =
            ids().filter(|&i| exchange.snapshot(i, j).is_some()).map(|i| i.0).collect();
        assert_eq!(listed, viewers, "holder index of {j:?}");
    }
}
