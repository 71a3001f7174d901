//! Policy inertness: with zero colluders, the default `Hysteresis { 1, 1 }`,
//! sum aggregation, and readmission disabled, the verdict state machine must
//! be an invisible refactor — tick-for-tick identical cuts, series, and
//! summary to the pre-PR single-shot implementation.
//!
//! The pre-PR `on_tick` (streak map + immediate `is_bad` cut) is rebuilt
//! here verbatim as [`ReferencePolice`] from the crate's public pieces, and
//! both defenses are driven through identical simulations across seeds and
//! scenarios. A second group of tests checks the verdict ledger is a
//! complete audit: every applied cut and every readmission appears in it.

use ddp_metrics::{PeerVerdict, VerdictSummary};
use ddp_police::exchange::ExchangeState;
use ddp_police::indicator::{general_indicator, is_bad, single_indicator};
use ddp_police::{group_traffic_sums, DdPolice, DdPoliceConfig, ReadmissionPolicy};
use ddp_sim::{
    Actions, Defense, ReportBehavior, ReportDelivery, ReportOutcome, RunResult, SimConfig,
    Simulation, TickObservation, TrafficReport,
};
use ddp_topology::{NodeId, TopologyConfig, TopologyModel};
use std::collections::{HashMap, HashSet};

/// The pre-PR `buddy::BuddyGroup`.
struct BuddyGroup {
    suspect: NodeId,
    members: Vec<NodeId>,
}

impl BuddyGroup {
    fn k(&self) -> usize {
        self.members.len()
    }
}

/// The pre-PR `buddy::assemble`: the observer's snapshot of the suspect's
/// list, verified, with the observer always a member.
fn assemble(
    observer: NodeId,
    suspect: NodeId,
    exchange: &ExchangeState,
    obs: &TickObservation<'_>,
    radius: u8,
    verify: bool,
) -> Option<BuddyGroup> {
    let snap = exchange.snapshot(observer, suspect)?;
    obs.note_snapshot_age(obs.tick.saturating_sub(snap.taken_at));
    let mut members = snap.members.to_vec();
    if verify {
        members.retain(|&m| m == observer || obs.confirm_membership(m, suspect));
    }
    if radius >= 2 {
        let current: Vec<NodeId> = obs.overlay.neighbors(suspect).iter().map(|h| h.peer).collect();
        for m in current {
            if !members.contains(&m) {
                members.push(m);
            }
        }
        members.retain(|&m| obs.overlay.contains_edge(m, suspect) || m == observer);
    }
    if !members.contains(&observer) {
        members.push(observer);
    }
    Some(BuddyGroup { suspect, members })
}

/// The pre-PR DD-POLICE bad-peer recognition, kept byte-for-byte in spirit:
/// a per-observer missing-list streak map and an unconditional cut the first
/// time an indicator exceeds `CT`.
struct ReferencePolice {
    cfg: DdPoliceConfig,
    exchange: ExchangeState,
    streaks: Vec<HashMap<u32, u8>>,
    exchanged_this_tick: HashSet<u32>,
}

impl ReferencePolice {
    fn new(cfg: DdPoliceConfig, n: usize) -> Self {
        ReferencePolice {
            cfg,
            exchange: ExchangeState::new(n),
            streaks: (0..n).map(|_| HashMap::new()).collect(),
            exchanged_this_tick: HashSet::new(),
        }
    }

    fn resolve_report(
        &self,
        observer: NodeId,
        reporter: NodeId,
        suspect: NodeId,
        obs: &TickObservation<'_>,
        retry_msgs: &mut u64,
    ) -> Option<TrafficReport> {
        let mut attempt = 0u32;
        loop {
            match obs.request_report_via(observer, reporter, suspect, attempt) {
                ReportDelivery::Fresh(r) => {
                    obs.note_report_outcome(ReportOutcome::Fresh);
                    return Some(r);
                }
                ReportDelivery::Refused => {
                    obs.note_report_outcome(ReportOutcome::Refused);
                    return None;
                }
                ReportDelivery::Faulted => {
                    if attempt < self.cfg.max_report_retries {
                        attempt += 1;
                        *retry_msgs += 1;
                        obs.note_retries(1);
                        continue;
                    }
                    if let Some((r, sent_at)) = obs.stale_report(observer, reporter, suspect) {
                        if obs.tick.saturating_sub(sent_at) <= self.cfg.report_timeout_ticks {
                            obs.note_report_outcome(ReportOutcome::Stale);
                            return Some(r);
                        }
                    }
                    obs.note_report_outcome(ReportOutcome::AssumedZero);
                    return None;
                }
            }
        }
    }

    fn judge(
        &self,
        observer: NodeId,
        group: &BuddyGroup,
        q_suspect_to_observer: u32,
        obs: &TickObservation<'_>,
    ) -> (f64, f64, u64) {
        let suspect = group.suspect;
        let own = obs.own_counters(observer, suspect);
        let mut retry_msgs = 0u64;
        let mut member_reports = Vec::with_capacity(group.members.len());
        for &m in &group.members {
            if m == observer {
                continue;
            }
            let report =
                self.resolve_report(observer, m, suspect, obs, &mut retry_msgs).map(|mut r| {
                    if self.cfg.clamp_reports_to_link {
                        r.sent_to_suspect =
                            r.sent_to_suspect.min(obs.overlay.link_capacity(m, suspect));
                    }
                    r
                });
            member_reports.push(report);
        }
        let (sum_out_of_suspect, sum_into_suspect) = group_traffic_sums(own, &member_reports);
        let g = general_indicator(sum_out_of_suspect, sum_into_suspect, group.k(), self.cfg.q_qpm);
        let s = single_indicator(
            q_suspect_to_observer as f64,
            sum_into_suspect - own.sent_to_suspect as f64,
            self.cfg.q_qpm,
        );
        (g, s, retry_msgs)
    }
}

impl Defense for ReferencePolice {
    fn name(&self) -> &'static str {
        "dd-police-reference"
    }

    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
        actions.control_msgs += self.exchange.on_tick(self.cfg.exchange, obs);
        self.exchanged_this_tick.clear();

        let n = obs.overlay.node_count();
        for i in 0..n {
            if !obs.runs_defense[i] {
                continue;
            }
            let observer = NodeId::from_index(i);
            let degree = obs.overlay.degree(observer);
            for slot in 0..degree {
                let half = obs.overlay.neighbors(observer)[slot];
                let suspect = half.peer;
                let q_ji = obs.overlay.accepted_via(suspect, half.ridx as usize);
                if q_ji <= self.cfg.warning_threshold_qpm {
                    if !self.streaks[i].is_empty() {
                        self.streaks[i].remove(&suspect.0);
                    }
                    continue;
                }
                let group = match assemble(
                    observer,
                    suspect,
                    &self.exchange,
                    obs,
                    self.cfg.radius,
                    self.cfg.verify_lists,
                ) {
                    Some(bg) => {
                        self.streaks[i].remove(&suspect.0);
                        bg
                    }
                    None => {
                        let streak = self.streaks[i].entry(suspect.0).or_insert(0);
                        *streak = streak.saturating_add(1);
                        if *streak < self.cfg.missing_list_grace {
                            continue;
                        }
                        BuddyGroup { suspect, members: vec![observer] }
                    }
                };
                if self.exchanged_this_tick.insert(suspect.0) {
                    let k = group.k() as u64;
                    actions.control_msgs += k * k.saturating_sub(1);
                }
                let (g, s, retry_msgs) = self.judge(observer, &group, q_ji, obs);
                actions.control_msgs += retry_msgs;
                if is_bad(g, s, self.cfg.cut_threshold) {
                    actions.cut(observer, suspect);
                }
            }
        }
    }

    fn on_peer_reset(&mut self, node: NodeId) {
        self.exchange.reset_peer(node);
        self.streaks[node.index()].clear();
    }

    fn on_edge_added(&mut self, _u: NodeId, _v: NodeId, deg_u: usize, deg_v: usize) {
        self.exchange.on_adjacency_event(self.cfg.exchange, deg_u, deg_v);
    }

    fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        self.exchange.on_adjacency_event(self.cfg.exchange, deg_u, deg_v);
        self.exchange.forget_edge(u, v);
        self.streaks[u.index()].remove(&v.0);
        self.streaks[v.index()].remove(&u.0);
    }
}

fn sim_config(n: usize, churn: bool) -> SimConfig {
    SimConfig {
        topology: TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn,
        ..SimConfig::default()
    }
}

fn run<D: Defense>(
    defense: D,
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

/// Compare a default-config DdPolice run against the reference on every
/// observable except the (new, additive) verdict ledger.
fn assert_inert(
    n: usize,
    churn: bool,
    attackers: &[(u32, ReportBehavior)],
    ticks: usize,
    seed: u64,
) {
    let mut reference =
        run(ReferencePolice::new(DdPoliceConfig::default(), n), n, churn, attackers, ticks, seed);
    let mut new =
        run(DdPolice::new(DdPoliceConfig::default(), n), n, churn, attackers, ticks, seed);
    assert_eq!(new.cut_log, reference.cut_log, "cut log must be tick-for-tick identical");
    assert_eq!(new.series, reference.series, "per-tick series must be identical");
    // The ledger is new instrumentation (and the engine's wrongful-cut
    // interval tracking feeds both runs); everything else in the summary
    // must match exactly.
    new.summary.verdicts = VerdictSummary::default();
    reference.summary.verdicts = VerdictSummary::default();
    assert_eq!(new.summary, reference.summary, "summaries must be identical");
}

#[test]
fn default_config_is_inert_across_seeds() {
    for seed in [1u64, 7, 23, 42, 99] {
        assert_inert(
            300,
            false,
            &[(5, ReportBehavior::Honest), (77, ReportBehavior::Honest)],
            8,
            seed,
        );
    }
}

#[test]
fn default_config_is_inert_under_churn() {
    for seed in [3u64, 42] {
        assert_inert(
            250,
            true,
            &[(9, ReportBehavior::Honest), (120, ReportBehavior::Silent)],
            10,
            seed,
        );
    }
}

#[test]
fn default_config_is_inert_with_lying_reporters() {
    assert_inert(
        260,
        false,
        &[(4, ReportBehavior::Deflate(0.02)), (33, ReportBehavior::Inflate(50.0))],
        8,
        13,
    );
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
