//! Differential inertness: the optimized engine vs a verbatim reference.
//!
//! The CSR/dense hot-path refactor must be a pure layout change — tick for
//! tick, bit for bit. This suite pins that two ways:
//!
//! 1. **Side-by-side**: `RefPolice` below is a frozen verbatim copy of the
//!    pre-refactor `DdPolice` hot paths (HashMap-backed exchange views, the
//!    original Buddy-Group assembly, the original judging loop). Running the
//!    crate's `DdPolice` and `RefPolice` through identical simulations must
//!    yield identical `RunResult`s — series, summary, cut log, and verdict
//!    log — across seeds and across the baseline / faulty / collusion
//!    scenario families.
//! 2. **Golden digests**: FNV-1a digests of whole `RunResult`s, captured on
//!    the pre-refactor engine, are embedded as constants. They catch the
//!    failure mode side-by-side comparison cannot: both engines drifting
//!    together. Re-capture (only for an *intentional* behavior change) with:
//!
//!    ```text
//!    cargo test -p ddp-police --test differential_inertness \
//!        -- --ignored print_golden_digests --nocapture
//!    ```

use ddp_police::{DdPolice, DdPoliceConfig};
use ddp_sim::{FaultConfig, ListBehavior, ReportBehavior, RunResult, SimConfig, Simulation};
use ddp_topology::{NodeId, TopologyConfig, TopologyModel};

/// Frozen pre-refactor reference implementation. Everything in this module is
/// a verbatim copy of the crate's hot paths as of the commit that introduced
/// this suite; it must never be "optimized" — its whole value is staying put.
mod reference {
    use ddp_police::config::DdPoliceConfig;
    use ddp_police::exchange::ExchangePolicy;
    use ddp_police::verdict::{aggregate_group_traffic, VerdictMachine};
    use ddp_sim::{
        Actions, Defense, ReportDelivery, ReportOutcome, Tick, TickObservation, TrafficReport,
    };
    use ddp_topology::NodeId;
    use std::collections::{HashMap, HashSet};

    use ddp_police::indicator::{general_indicator, is_bad, single_indicator};

    /// Verbatim copy of the pre-refactor `exchange::Snapshot`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Snapshot {
        pub members: Vec<NodeId>,
        pub taken_at: Tick,
    }

    /// Verbatim copy of the pre-refactor HashMap-backed `ExchangeState`.
    #[derive(Debug, Default)]
    pub struct RefExchange {
        views: Vec<HashMap<u32, Snapshot>>,
        pending_event_msgs: u64,
    }

    fn periodic_refresh_due(minutes: u32, tick: Tick) -> bool {
        tick.wrapping_sub(1).is_multiple_of(minutes.max(1))
    }

    impl RefExchange {
        pub fn new(n: usize) -> Self {
            RefExchange { views: (0..n).map(|_| HashMap::new()).collect(), pending_event_msgs: 0 }
        }

        pub fn snapshot(&self, i: NodeId, j: NodeId) -> Option<&Snapshot> {
            self.views[i.index()].get(&j.0)
        }

        pub fn on_tick(&mut self, policy: ExchangePolicy, obs: &TickObservation<'_>) -> u64 {
            let mut msgs = self.pending_event_msgs;
            self.pending_event_msgs = 0;

            for i_idx in 0..obs.overlay.node_count() {
                let i = NodeId::from_index(i_idx);
                for (announcer, members, sent_at) in obs.matured_lists(i) {
                    if !obs.online[i_idx] || !obs.overlay.contains_edge(i, announcer) {
                        continue;
                    }
                    let newer =
                        self.views[i_idx].get(&announcer.0).is_none_or(|s| s.taken_at < sent_at);
                    if newer {
                        self.views[i_idx]
                            .insert(announcer.0, Snapshot { members, taken_at: sent_at });
                        obs.note_late_list_applied();
                    }
                }
            }

            let refresh = match policy {
                ExchangePolicy::Periodic { minutes } => periodic_refresh_due(minutes, obs.tick),
                ExchangePolicy::EventDriven => true,
            };
            if !refresh {
                return msgs;
            }
            for j_idx in 0..obs.overlay.node_count() {
                if !obs.online[j_idx] {
                    continue;
                }
                let j = NodeId::from_index(j_idx);
                if matches!(obs.report_behavior[j_idx], ddp_sim::ReportBehavior::Silent) {
                    continue;
                }
                let Some(members) = obs.announced_list(j) else { continue };
                for h in obs.overlay.neighbors(j) {
                    let i = h.peer;
                    if matches!(policy, ExchangePolicy::Periodic { .. }) {
                        msgs += 1;
                    }
                    if let Some(delivered) = obs.transmit_list(j, i, &members) {
                        self.views[i.index()]
                            .insert(j.0, Snapshot { members: delivered, taken_at: obs.tick });
                    }
                }
            }
            msgs
        }

        pub fn on_adjacency_event(
            &mut self,
            policy: ExchangePolicy,
            degree_u: usize,
            degree_v: usize,
        ) {
            if policy == ExchangePolicy::EventDriven {
                self.pending_event_msgs += (degree_u + degree_v) as u64;
            }
        }

        pub fn forget_edge(&mut self, u: NodeId, v: NodeId) {
            self.views[u.index()].remove(&v.0);
            self.views[v.index()].remove(&u.0);
        }

        pub fn reset_peer(&mut self, u: NodeId) {
            self.views[u.index()].clear();
        }
    }

    /// Verbatim copy of the pre-refactor `buddy::BuddyGroup`.
    pub struct BuddyGroup {
        pub suspect: NodeId,
        pub members: Vec<NodeId>,
    }

    impl BuddyGroup {
        pub fn k(&self) -> usize {
            self.members.len()
        }
    }

    /// Verbatim copy of the pre-refactor `buddy::assemble`, against
    /// [`RefExchange`].
    fn ref_assemble(
        observer: NodeId,
        suspect: NodeId,
        exchange: &RefExchange,
        obs: &TickObservation<'_>,
        radius: u8,
        verify: bool,
    ) -> Option<BuddyGroup> {
        let snap = exchange.snapshot(observer, suspect)?;
        obs.note_snapshot_age(obs.tick.saturating_sub(snap.taken_at));
        let mut members = snap.members.clone();
        if verify {
            members.retain(|&m| m == observer || obs.confirm_membership(m, suspect));
        }
        if radius >= 2 {
            let current: Vec<NodeId> =
                obs.overlay.neighbors(suspect).iter().map(|h| h.peer).collect();
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

    /// Verbatim copy of the pre-refactor `DdPolice`, over [`RefExchange`].
    /// Reuses the crate's `VerdictMachine` (untouched by the layout
    /// refactor), so verdict logs compare exactly.
    pub struct RefPolice {
        cfg: DdPoliceConfig,
        exchange: RefExchange,
        verdicts: VerdictMachine,
        exchanged_this_tick: HashSet<u32>,
    }

    impl RefPolice {
        pub fn new(cfg: DdPoliceConfig, n: usize) -> Self {
            RefPolice {
                cfg,
                exchange: RefExchange::new(n),
                verdicts: VerdictMachine::new(n),
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
            let (sum_out_of_suspect, sum_into_suspect) =
                aggregate_group_traffic(own, &member_reports, self.cfg.aggregation);
            let g =
                general_indicator(sum_out_of_suspect, sum_into_suspect, group.k(), self.cfg.q_qpm);
            let s = single_indicator(
                q_suspect_to_observer as f64,
                sum_into_suspect - own.sent_to_suspect as f64,
                self.cfg.q_qpm,
            );
            (g, s, retry_msgs)
        }
    }

    impl Defense for RefPolice {
        fn name(&self) -> &'static str {
            "ref-dd-police"
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
                if self.cfg.readmission.enabled {
                    self.verdicts.expire_probations(observer, obs.tick, actions);
                    let before = actions.reconnects.len();
                    self.verdicts.fire_probes(observer, obs.tick, self.cfg.readmission, actions);
                    actions.control_msgs += (actions.reconnects.len() - before) as u64;
                }
                let degree = obs.overlay.degree(observer);
                for slot in 0..degree {
                    let half = obs.overlay.neighbors(observer)[slot];
                    let suspect = half.peer;
                    let q_ji = obs.overlay.accepted_via(suspect, half.ridx as usize);
                    if q_ji <= self.cfg.warning_threshold_qpm {
                        self.verdicts.below_warning(observer, suspect);
                        continue;
                    }
                    let group = match ref_assemble(
                        observer,
                        suspect,
                        &self.exchange,
                        obs,
                        self.cfg.radius,
                        self.cfg.verify_lists,
                    ) {
                        Some(bg) => {
                            self.verdicts.note_list_ok(observer, suspect);
                            bg
                        }
                        None => {
                            let streak = self.verdicts.note_list_missing(observer, suspect);
                            if streak < self.cfg.missing_list_grace {
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
                    let over_ct = is_bad(g, s, self.cfg.cut_threshold);
                    if self.verdicts.judged(
                        observer,
                        suspect,
                        over_ct,
                        obs.tick,
                        self.cfg.hysteresis,
                        self.cfg.readmission,
                        actions,
                    ) {
                        actions.cut(observer, suspect);
                    }
                }
            }
        }

        fn on_peer_reset(&mut self, node: NodeId) {
            self.exchange.reset_peer(node);
            self.verdicts.reset_observer(node);
        }

        fn on_edge_added(&mut self, _u: NodeId, _v: NodeId, deg_u: usize, deg_v: usize) {
            self.exchange.on_adjacency_event(self.cfg.exchange, deg_u, deg_v);
        }

        fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
            self.exchange.on_adjacency_event(self.cfg.exchange, deg_u, deg_v);
            self.exchange.forget_edge(u, v);
            self.verdicts.forget_edge(u, v);
        }
    }
}

// --- Scenario families ------------------------------------------------------

const N: usize = 300;
const SEEDS: [u64; 5] = [11, 42, 137, 2024, 77_777];

#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Paper defaults under churn: honest attackers, reliable transport.
    Baseline,
    /// Lossy + delayed control plane, crash-restarts, mixed report cheats.
    Faulty,
    /// Colluding coalition (shielding + framing + padded lists) against a
    /// hardened config: clamped reports, 2-of-3 hysteresis, readmission on,
    /// radius-2 cross-verification.
    Collusion,
}

impl Scenario {
    const ALL: [Scenario; 3] = [Scenario::Baseline, Scenario::Faulty, Scenario::Collusion];

    fn name(self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::Faulty => "faulty",
            Scenario::Collusion => "collusion",
        }
    }

    fn sim_config(self) -> SimConfig {
        let mut cfg = SimConfig {
            topology: TopologyConfig { n: N, model: TopologyModel::BarabasiAlbert { m: 3 } },
            ..SimConfig::default()
        };
        if matches!(self, Scenario::Faulty) {
            cfg.faults =
                FaultConfig { loss: 0.15, delay_prob: 0.3, delay_ticks: 1, crash_prob: 0.01 };
        }
        cfg
    }

    fn police_config(self) -> DdPoliceConfig {
        match self {
            Scenario::Baseline | Scenario::Faulty => DdPoliceConfig::default(),
            Scenario::Collusion => DdPoliceConfig {
                clamp_reports_to_link: true,
                radius: 2,
                hysteresis: ddp_police::Hysteresis { required: 2, window: 3 },
                readmission: ddp_police::ReadmissionPolicy {
                    enabled: true,
                    base_backoff_ticks: 2,
                    max_backoff_ticks: 8,
                    probation_ticks: 2,
                },
                ..DdPoliceConfig::default()
            },
        }
    }

    /// Attacker placement is a pure function of the scenario, so both engines
    /// see the exact same cast.
    fn cast<D: ddp_sim::Defense>(self, sim: &mut Simulation<D>) {
        match self {
            Scenario::Baseline => {
                for k in 0..10u32 {
                    sim.make_attacker(NodeId(k * 29 + 3), ReportBehavior::Honest);
                }
            }
            Scenario::Faulty => {
                for k in 0..12u32 {
                    let id = NodeId(k * 23 + 5);
                    let behavior = match k % 4 {
                        0 => ReportBehavior::Honest,
                        1 => ReportBehavior::Silent,
                        2 => ReportBehavior::Deflate(0.02),
                        _ => ReportBehavior::Inflate(3.0),
                    };
                    sim.make_attacker(id, behavior);
                }
            }
            Scenario::Collusion => {
                let victim = NodeId(200);
                for k in 0..8u32 {
                    let id = NodeId(k * 31 + 7);
                    let behavior = if k % 3 == 0 {
                        ReportBehavior::FrameVictim { victim, inflate: 40.0 }
                    } else {
                        ReportBehavior::ShieldColluders { factor: 0.05 }
                    };
                    sim.make_attacker(id, behavior);
                    if k % 2 == 0 {
                        sim.set_list_behavior(id, ListBehavior::PadFake { extra: 4 });
                    }
                }
            }
        }
    }

    fn ticks(self) -> usize {
        match self {
            Scenario::Baseline | Scenario::Faulty => 8,
            Scenario::Collusion => 10,
        }
    }

    fn run_crate(self, seed: u64) -> RunResult {
        let mut sim =
            Simulation::new(self.sim_config(), DdPolice::new(self.police_config(), N), seed);
        self.cast(&mut sim);
        sim.run(self.ticks())
    }

    fn run_reference(self, seed: u64) -> RunResult {
        let mut sim = Simulation::new(
            self.sim_config(),
            reference::RefPolice::new(self.police_config(), N),
            seed,
        );
        self.cast(&mut sim);
        sim.run(self.ticks())
    }
}

fn assert_runs_identical(a: &RunResult, b: &RunResult, what: &str) {
    // Field-by-field first, for readable failures; then the whole value.
    assert_eq!(a.series.success_rate, b.series.success_rate, "{what}: success_rate series");
    assert_eq!(a.series.response_time, b.series.response_time, "{what}: response_time series");
    assert_eq!(a.series.traffic, b.series.traffic, "{what}: traffic series");
    assert_eq!(
        a.series.control_traffic, b.series.control_traffic,
        "{what}: control_traffic series"
    );
    assert_eq!(a.series.drop_rate, b.series.drop_rate, "{what}: drop_rate series");
    assert_eq!(a.cut_log, b.cut_log, "{what}: cut log");
    assert_eq!(a.verdict_log, b.verdict_log, "{what}: verdict log");
    assert_eq!(a.summary, b.summary, "{what}: summary");
    assert_eq!(a, b, "{what}: full RunResult");
}

// --- Golden digests ---------------------------------------------------------

/// FNV-1a over the full `Debug` rendering of the result. Rust's `{:?}` for
/// floats is shortest-roundtrip, so two results digest equal iff they are
/// bit-for-bit equal; `RunResult` contains no hash-ordered containers, so the
/// rendering is deterministic.
fn digest_run(result: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{result:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digests of the pre-refactor engine, one per (scenario, seed), in
/// `Scenario::ALL` × `SEEDS` order. Captured with `print_golden_digests`.
const GOLDEN_DIGESTS: [[u64; 5]; 3] = [
    [
        0xab0d5f5a0e07bf51,
        0xd502a19eacd87e50,
        0x44b166205be3fcc4,
        0x10e4dd574f5dbc5e,
        0x483399d7ffb3f8d8,
    ], // baseline
    [
        0xc815bf248b336ea6,
        0xb2df0224fe9d94a0,
        0x04fe9355cccc8c79,
        0x395a0dbc0106b192,
        0x71eb622a5a361aab,
    ], // faulty
    [
        0x5314cb8fcd53ba2a,
        0xc84a82805716226b,
        0x8db22cf1ed82a465,
        0x0dc8f6ef43b4254e,
        0x1271a5decc80a09a,
    ], // collusion
];

#[test]
#[ignore = "digest capture helper; run with --ignored --nocapture to re-bless"]
fn print_golden_digests() {
    for scenario in Scenario::ALL {
        let digests: Vec<String> = SEEDS
            .iter()
            .map(|&seed| format!("0x{:016x}", digest_run(&scenario.run_crate(seed))))
            .collect();
        println!("    [{}], // {}", digests.join(", "), scenario.name());
    }
}

// --- The pins ---------------------------------------------------------------

#[test]
fn baseline_runs_match_reference_across_seeds() {
    for seed in SEEDS {
        let a = Scenario::Baseline.run_crate(seed);
        let b = Scenario::Baseline.run_reference(seed);
        assert_runs_identical(&a, &b, &format!("baseline seed {seed}"));
    }
}

#[test]
fn faulty_runs_match_reference_across_seeds() {
    for seed in SEEDS {
        let a = Scenario::Faulty.run_crate(seed);
        let b = Scenario::Faulty.run_reference(seed);
        assert_runs_identical(&a, &b, &format!("faulty seed {seed}"));
    }
}

#[test]
fn collusion_runs_match_reference_across_seeds() {
    for seed in SEEDS {
        let a = Scenario::Collusion.run_crate(seed);
        let b = Scenario::Collusion.run_reference(seed);
        assert_runs_identical(&a, &b, &format!("collusion seed {seed}"));
    }
}

#[test]
fn golden_digests_pin_pre_refactor_behavior() {
    for (s_idx, scenario) in Scenario::ALL.iter().enumerate() {
        for (d_idx, &seed) in SEEDS.iter().enumerate() {
            let got = digest_run(&scenario.run_crate(seed));
            let want = GOLDEN_DIGESTS[s_idx][d_idx];
            assert_eq!(
                got,
                want,
                "{} seed {seed}: engine output drifted from the pre-refactor golden \
                 digest (got 0x{got:016x}); if the change is intentional, re-bless via \
                 print_golden_digests",
                scenario.name()
            );
        }
    }
}

#[test]
fn scenarios_exercise_the_interesting_paths() {
    // Sanity that the pins cover real behavior, not empty runs: the
    // baseline must cut attackers, the faulty transport must actually
    // misbehave, and the collusion scenario must drive the verdict
    // lifecycle (quarantines and probes).
    let base = Scenario::Baseline.run_crate(42);
    assert!(base.summary.attackers_cut > 0, "baseline scenario never cut anyone");
    assert!(!base.verdict_log.is_empty(), "baseline scenario logged no verdicts");

    let faulty = Scenario::Faulty.run_crate(42);
    let r = &faulty.summary.resilience;
    assert!(
        r.lists_lost + r.lists_delayed + r.reports_stale_used + r.reports_assumed_zero > 0,
        "faulty scenario injected no transport faults"
    );

    let mut saw_lifecycle = false;
    for seed in SEEDS {
        let coll = Scenario::Collusion.run_crate(seed);
        if coll.summary.verdicts.quarantines > 0 || coll.summary.verdicts.readmission_probes > 0 {
            saw_lifecycle = true;
            break;
        }
    }
    assert!(saw_lifecycle, "collusion scenario never entered the readmission lifecycle");
}
