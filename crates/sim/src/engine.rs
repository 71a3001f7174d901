//! The tick-loop simulation engine.

use crate::config::SimConfig;
use crate::defense::{Actions, Defense, TickObservation};
use crate::faults::FaultPlane;
use crate::flood::{FirstHop, FloodEngine, FloodEnv};
use crate::node::{
    bandwidth_from_tag, bandwidth_tag, ListBehavior, NodeState, ReportBehavior, Role, SlotState,
};
use crate::overlay::Overlay;
use crate::session::{SessionStats, WhitewashConfig, WhitewashRecord};
use crate::Tick;
use ddp_metrics::summary::{RunSeries, RunSummary};
use ddp_metrics::{
    DetectionErrors, HashSeries, P2Quantile, ParallelStats, ResponseStats, StepPhases,
    SuccessStats, TrafficAccumulator, VerdictLedger, VerdictTransition,
};
use ddp_snapshot::{Dec, Enc, SnapshotError, Snapshottable};
use ddp_topology::{DynamicGraph, Half, NodeId, Partition};
use ddp_workload::ContentCatalog;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

mod membership;

/// One defensive disconnection, for observability and post-hoc analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutRecord {
    /// Tick the cut was applied.
    pub tick: Tick,
    /// The peer that decided to disconnect.
    pub observer: NodeId,
    /// The peer that was disconnected.
    pub suspect: NodeId,
    /// Ground truth: was the suspect actually a DDoS agent?
    pub suspect_was_attacker: bool,
}

/// Everything a finished run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-tick series.
    pub series: RunSeries,
    /// Aggregates.
    pub summary: RunSummary,
    /// Every defensive disconnection, in order.
    pub cut_log: Vec<CutRecord>,
    /// Every verdict-lifecycle transition the defense decided, in order
    /// (empty for defenses without a verdict state machine). Note this logs
    /// *decisions*: a `Cut` entry may have no matching [`CutRecord`] when a
    /// second observer condemned an already-severed edge in the same tick.
    pub verdict_log: Vec<VerdictTransition>,
}

/// One query or attack emission scheduled within a tick.
#[derive(Debug, Clone, Copy)]
enum Emission {
    /// A good peer's search for `object`.
    Good { origin: NodeId, object: ddp_workload::ObjectId },
    /// An attacker's per-link flood of `count` bogus queries.
    Attack { origin: NodeId, slot: u32, count: u32 },
}

/// Open wrongful-cut intervals, reachable from either endpoint: a departure
/// closes the intervals naming the departed peer without looking at the rest
/// (thousands stay open under churn, and every departure asks).
#[derive(Debug, Default)]
struct WrongfulOpen {
    /// `(observer, suspect)` → tick the good peer's edge was severed.
    started: BTreeMap<(NodeId, NodeId), Tick>,
    /// The same keys transposed to `(suspect, observer)`, so a departing
    /// suspect finds its intervals by range, as a departing observer does.
    by_suspect: BTreeSet<(NodeId, NodeId)>,
}

impl WrongfulOpen {
    fn insert(&mut self, key: (NodeId, NodeId), start: Tick) {
        self.by_suspect.insert((key.1, key.0));
        self.started.insert(key, start);
    }

    fn remove(&mut self, key: &(NodeId, NodeId)) -> Option<Tick> {
        self.by_suspect.remove(&(key.1, key.0));
        self.started.remove(key)
    }

    fn contains(&self, key: &(NodeId, NodeId)) -> bool {
        self.started.contains_key(key)
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.started.is_empty()
    }

    fn len(&self) -> usize {
        self.started.len()
    }

    /// Every open interval in ascending `(observer, suspect)` order — the
    /// canonical order snapshots and the run-end censoring use.
    fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), Tick)> + '_ {
        self.started.iter().map(|(&k, &t)| (k, t))
    }

    /// The keys naming `node` as either endpoint, ascending.
    fn naming(&self, node: NodeId) -> Vec<(NodeId, NodeId)> {
        let span = (node, NodeId(0))..=(node, NodeId(u32::MAX));
        let mut keys: Vec<(NodeId, NodeId)> =
            self.started.range(span.clone()).map(|(&k, _)| k).collect();
        keys.extend(self.by_suspect.range(span).map(|&(suspect, observer)| (observer, suspect)));
        keys.sort_unstable();
        keys
    }
}

/// The simulation: overlay + peers + workload + attack + defense.
pub struct Simulation<D: Defense> {
    cfg: SimConfig,
    overlay: Overlay,
    nodes: Vec<NodeState>,
    catalog: ContentCatalog,
    flood: FloodEngine,
    defense: D,
    tick: Tick,
    /// The master seed the run was built from; part of the snapshot context
    /// fingerprint so a checkpoint cannot be resumed under a different seed.
    master_seed: u64,
    rng_workload: StdRng,
    rng_churn: StdRng,
    /// Session-model / whitewash stream (stream 6): every draw the open
    /// membership model makes comes from here, so enabling it never perturbs
    /// the topology, content, workload, legacy-churn, or fault streams.
    rng_session: StdRng,
    /// Control-plane transport (inert unless `cfg.faults` injects faults).
    fault_plane: FaultPlane,

    // Session-model state (inert unless `cfg.session` is set).
    /// Slots of permanently departed peers, available for recycling.
    free_slots: Vec<usize>,
    /// Membership-dynamics totals.
    session_stats: SessionStats,

    // Whitewash state (inert unless `enable_whitewash` was called).
    whitewash: Option<WhitewashConfig>,
    /// Completed identity changes, in order.
    whitewash_log: Vec<WhitewashRecord>,

    // Per-tick scratch, refreshed from `nodes` each tick.
    node_used: Vec<u32>,
    online: Vec<bool>,
    capacity: Vec<u32>,
    prev_util: Vec<f32>,
    runs_defense: Vec<bool>,
    report_behavior: Vec<ReportBehavior>,
    list_behavior: Vec<ListBehavior>,
    emissions: Vec<Emission>,

    // Accounting.
    series: RunSeries,
    errors: DetectionErrors,
    /// Whether this good-peer incarnation was already counted as a false
    /// negative — the paper counts wrongly disconnected *peers*, not cut
    /// events.
    counted_wrongly_cut: Vec<bool>,
    /// Every defensive disconnection, in order.
    cut_log: Vec<CutRecord>,
    /// Verdict-lifecycle audit trail (fed by `Actions::transitions`).
    verdict_ledger: VerdictLedger,
    /// Open wrongful-cut intervals: `(observer, suspect)` → tick the good
    /// peer's edge was severed. Closed when the pair re-links (any add-edge
    /// path) or either endpoint departs; censored at run end.
    wrongful_open: WrongfulOpen,
    /// Closed (or censored) wrongful-cut durations, in ticks.
    wrongful_durations: Vec<u32>,
    /// Streaming 95th-percentile response time over the whole run.
    response_p95: P2Quantile,

    // Parallel tick engine. None of this enters `save_payload` — a snapshot
    // written at any worker count must restore identically at any other.
    /// Worker-pool width; 1 means fully serial (the default).
    threads: usize,
    /// Per-tick state-hash trace, recorded only when enabled (differential
    /// suites turn it on; production runs skip the per-tick serialization).
    hash_trace: Option<HashSeries>,
    /// What the worker pool did this run (observability only).
    parallel_stats: ParallelStats,
    /// Where `step`'s wall time went (observability only).
    phases: StepPhases,
}

/// Draw one good peer's processing capacity (mean x uniform spread).
fn sample_capacity(cfg: &SimConfig, rng: &mut StdRng) -> u32 {
    let spread = cfg.capacity_spread.clamp(0.0, 0.95);
    let factor = 1.0 - spread + 2.0 * spread * rng.gen::<f64>();
    ((cfg.good_capacity_qpm as f64 * factor).round() as u32).max(1)
}

fn derive_seed(master: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over (master, stream).
    let mut z = master ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<D: Defense> Simulation<D> {
    /// Build a simulation from a config, a defense, and a master seed.
    ///
    /// Every random stream (topology, content, workload, churn) derives from
    /// `seed`, so runs are exactly reproducible.
    pub fn new(cfg: SimConfig, defense: D, seed: u64) -> Self {
        let n = cfg.peers();
        let mut rng_topo = StdRng::seed_from_u64(derive_seed(seed, 1));
        let mut rng_content = StdRng::seed_from_u64(derive_seed(seed, 2));
        let rng_workload = StdRng::seed_from_u64(derive_seed(seed, 3));
        let mut rng_churn = StdRng::seed_from_u64(derive_seed(seed, 4));
        let fault_plane = FaultPlane::new(cfg.faults.clone(), derive_seed(seed, 5));
        let rng_session = StdRng::seed_from_u64(derive_seed(seed, 6));

        let graph = cfg.topology.generate(&mut rng_topo);
        let classes: Vec<_> = (0..n).map(|_| cfg.bandwidth.sample(&mut rng_churn)).collect();
        let overlay = Overlay::new(graph, &classes);
        let catalog = ContentCatalog::generate(n, &cfg.content, &mut rng_content);
        let nodes: Vec<NodeState> = (0..n)
            .map(|_| {
                NodeState::good(
                    sample_capacity(&cfg, &mut rng_churn),
                    cfg.lifetime.sample_minutes(&mut rng_churn),
                )
            })
            .collect();

        Simulation {
            flood: FloodEngine::new(n),
            node_used: vec![0; n],
            online: vec![true; n],
            capacity: vec![cfg.good_capacity_qpm; n],
            prev_util: vec![0.0; n],
            runs_defense: vec![true; n],
            report_behavior: vec![ReportBehavior::Honest; n],
            list_behavior: vec![ListBehavior::Truthful; n],
            emissions: Vec::new(),
            series: RunSeries::new(),
            errors: DetectionErrors::default(),
            counted_wrongly_cut: vec![false; n],
            cut_log: Vec::new(),
            verdict_ledger: VerdictLedger::new(),
            wrongful_open: WrongfulOpen::default(),
            wrongful_durations: Vec::new(),
            response_p95: P2Quantile::new(0.95),
            tick: 0,
            master_seed: seed,
            cfg,
            overlay,
            nodes,
            catalog,
            defense,
            rng_workload,
            rng_churn,
            rng_session,
            fault_plane,
            free_slots: Vec::new(),
            session_stats: SessionStats::default(),
            whitewash: None,
            whitewash_log: Vec::new(),
            threads: 1,
            hash_trace: None,
            parallel_stats: ParallelStats { threads: 1, ..ParallelStats::default() },
            phases: StepPhases::default(),
        }
    }

    /// Set the worker-pool width for the parallel tick engine. `1` (the
    /// default) runs every phase inline on the caller's thread. Any value is
    /// observably equivalent: the engine's state trajectory, snapshots, and
    /// results are byte-identical across thread counts — that contract is
    /// pinned by the serial-vs-parallel differential suite.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
        self.parallel_stats.threads = self.threads;
        self.defense.set_parallelism(self.threads);
    }

    /// The configured worker-pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// FNV-1a digest of the complete snapshot payload — every byte of state
    /// that survives a tick boundary, in the exact encoding
    /// [`save_snapshot`](Self::save_snapshot) writes. Two runs whose hashes
    /// match tick-for-tick are in byte-identical states.
    pub fn state_hash(&self) -> u64 {
        ddp_snapshot::fnv1a64(&self.save_payload())
    }

    /// Record [`state_hash`](Self::state_hash) at the end of every
    /// subsequent tick. Costs one full state serialization per tick, so it
    /// is opt-in for differential testing rather than always-on.
    pub fn enable_hash_trace(&mut self) {
        self.hash_trace.get_or_insert_with(HashSeries::new);
    }

    /// The per-tick hashes recorded since [`enable_hash_trace`]
    /// (Self::enable_hash_trace), empty when tracing is off.
    pub fn hash_trace(&self) -> &[u64] {
        self.hash_trace.as_ref().map_or(&[], |t| t.as_slice())
    }

    /// Worker-pool accounting for this run (never part of engine state).
    pub fn parallel_stats(&self) -> ParallelStats {
        self.parallel_stats
    }

    /// Wall time [`step`](Self::step) has spent per phase so far (never part
    /// of engine state; not restored by snapshots).
    pub fn phase_times(&self) -> StepPhases {
        self.phases
    }

    /// Turn `node` into a DDoS agent with the configured rate.
    pub fn make_attacker(&mut self, node: NodeId, report: ReportBehavior) {
        let rate = self.cfg.attacker_rate_qpm;
        self.nodes[node.index()].make_attacker(rate, report);
    }

    /// Set how `node` answers the neighbor-list exchange (§3.1 lying study).
    pub fn set_list_behavior(&mut self, node: NodeId, behavior: ListBehavior) {
        self.nodes[node.index()].list_behavior = behavior;
    }

    /// Ids of all current attackers.
    pub fn attackers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role.is_attacker())
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// The configuration this run uses.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The live overlay (for inspection in tests/examples).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Ground-truth role of a node.
    pub fn role(&self, node: NodeId) -> Role {
        self.nodes[node.index()].role
    }

    /// Whether a node is online.
    pub fn is_online(&self, node: NodeId) -> bool {
        self.nodes[node.index()].state.is_online()
    }

    /// Where a slot stands in the overlay's membership.
    pub fn slot_state(&self, node: NodeId) -> SlotState {
        self.nodes[node.index()].state
    }

    /// Slots of permanently departed peers; an arrival recycles the last one
    /// first.
    pub fn free_slots(&self) -> &[usize] {
        &self.free_slots
    }

    /// Current tick.
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// Current number of node slots (grows under the session model).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The defense, for post-run inspection (diagnostics, bounded-memory
    /// assertions).
    pub fn defense(&self) -> &D {
        &self.defense
    }

    /// Membership-dynamics totals (all zero outside the session model).
    pub fn session_stats(&self) -> SessionStats {
        self.session_stats
    }

    /// Arm whitewashing: a defensively isolated (fully cut) attacker dwells
    /// offline for `dwell_ticks`, then rejoins under a brand-new `NodeId`
    /// with a clean record, optionally lying dormant for `quiet_ticks`
    /// before flooding again. The abandoned slot stays offline forever.
    pub fn enable_whitewash(&mut self, cfg: WhitewashConfig) {
        self.whitewash = Some(cfg);
    }

    /// Completed identity changes, in order (empty unless whitewashing was
    /// enabled and at least one agent was cut and reborn).
    pub fn whitewash_log(&self) -> &[WhitewashRecord] {
        &self.whitewash_log
    }

    /// The defense, mutably (differential harnesses flip tracing knobs
    /// between ticks).
    pub fn defense_mut(&mut self) -> &mut D {
        &mut self.defense
    }

    /// Every defensive disconnection decided so far, in order (the live view
    /// of the final [`RunResult::cut_log`]).
    pub fn cut_log(&self) -> &[CutRecord] {
        &self.cut_log
    }

    /// Every verdict-lifecycle transition recorded so far, in order.
    pub fn verdict_log(&self) -> &[VerdictTransition] {
        &self.verdict_ledger.log
    }

    /// Per-tick series accumulated so far.
    pub fn series(&self) -> &RunSeries {
        &self.series
    }

    /// Advance the simulation by one tick (one minute).
    pub fn step(&mut self) {
        let t0 = Instant::now();
        self.tick += 1;
        self.fault_plane.begin_tick(self.tick);
        self.churn_step();
        self.crash_step();
        self.refresh_scratch();
        self.overlay.reset_tick_counters();
        self.node_used.fill(0);

        let mut traffic = TrafficAccumulator::default();
        let mut success = SuccessStats::default();
        let mut response = ResponseStats::default();
        let t1 = Instant::now();
        self.build_emissions();
        let t2 = Instant::now();
        self.execute_emissions(&mut traffic, &mut success, &mut response);
        let t3 = Instant::now();
        self.update_utilization();
        let t4 = Instant::now();
        self.run_defense(&mut traffic);
        let t5 = Instant::now();
        self.phases.ticks += 1;
        self.phases.churn += t1 - t0;
        self.phases.emission_build += t2 - t1;
        self.phases.flood += t3 - t2;
        self.phases.utilization += t4 - t3;
        self.phases.defense += t5 - t4;

        self.series.success_rate.push(success.rate());
        self.series.response_time.push(response.mean());
        self.series.traffic.push(traffic.total() as f64);
        self.series.control_traffic.push(traffic.control_msgs as f64);
        self.series.drop_rate.push(traffic.drop_rate());
        if self.hash_trace.is_some() {
            let h = self.state_hash();
            if let Some(trace) = &mut self.hash_trace {
                trace.record(h);
            }
        }
    }

    /// Run `ticks` minutes and summarize.
    pub fn run(mut self, ticks: usize) -> RunResult {
        for _ in 0..ticks {
            self.step();
        }
        self.finish()
    }

    /// Finish accounting (terminal false positives) and summarize.
    pub fn finish(mut self) -> RunResult {
        // Paper's "false positive": "bad peers that are not identified and
        // not disconnected" — attackers still holding overlay connections
        // when the run ends. `attackers_never_cut` additionally reports the
        // strictly-never-identified count (an attacker cut once but re-linked
        // by an unsuspecting joiner counts there as identified). An agent
        // never rejoins its slot, so every cut the log names it in is its own.
        let mut ever_cut = vec![false; self.nodes.len()];
        for c in &self.cut_log {
            ever_cut[c.suspect.index()] = true;
        }
        let mut never_cut = 0u64;
        for (i, s) in self.nodes.iter().enumerate() {
            if s.role.is_attacker() {
                if self.overlay.degree(NodeId::from_index(i)) > 0 {
                    self.errors.record_bad_peer_missed();
                }
                if !ever_cut[i] {
                    never_cut += 1;
                }
            }
        }
        let attackers_cut = self.cut_log.iter().filter(|c| c.suspect_was_attacker).count() as u64;
        let good_peers_cut = self.cut_log.len() as u64 - attackers_cut;
        // Censor wrongful-cut intervals still open at run end, in sorted key
        // order: the duration list's order feeds f64 summary sums.
        let final_tick = self.tick;
        for (_, start) in self.wrongful_open.iter() {
            self.wrongful_durations.push(final_tick.saturating_sub(start));
        }
        let mut summary = self.series.summarize(self.errors, attackers_cut, good_peers_cut);
        summary.attackers_never_cut = never_cut;
        summary.monitor_backend = self.defense.monitor_backend();
        summary.response_p95_secs = self.response_p95.estimate();
        summary.resilience = self.fault_plane.stats();
        summary.verdicts = self.verdict_ledger.summarize(&self.wrongful_durations);
        RunResult {
            series: self.series,
            summary,
            cut_log: self.cut_log,
            verdict_log: self.verdict_ledger.log,
        }
    }

    /// Per-tick snapshot of success-critical slices from node state, one
    /// entry per slot (slots grown since the last tick or a restore too).
    fn refresh_scratch(&mut self) {
        let n = self.nodes.len();
        self.node_used.resize(n, 0);
        self.online.resize(n, false);
        self.capacity.resize(n, 0);
        self.runs_defense.resize(n, false);
        self.report_behavior.resize(n, ReportBehavior::Honest);
        self.list_behavior.resize(n, ListBehavior::Truthful);
        for (i, s) in self.nodes.iter().enumerate() {
            self.online[i] = s.state.is_online();
            self.capacity[i] = s.capacity_qpm;
            self.runs_defense[i] = s.runs_defense();
            self.report_behavior[i] = s.role.report_behavior();
            self.list_behavior[i] = s.list_behavior;
        }
    }

    /// Crash-restart injection: a crashed peer keeps its overlay links (the
    /// process restarts within the minute) but its detection-protocol state
    /// — exchange views, suspicion streaks, in-flight mail — is wiped.
    fn crash_step(&mut self) {
        if self.cfg.faults.crash_prob <= 0.0 {
            return;
        }
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            if self.nodes[i].runs_defense() && self.fault_plane.crashes(self.tick, node) {
                self.defense.on_peer_reset(node);
            }
        }
    }

    /// The pair re-linked: any matching wrongful-cut interval ends now.
    fn close_wrongful(&mut self, u: NodeId, v: NodeId) {
        for key in [(u, v), (v, u)] {
            if let Some(start) = self.wrongful_open.remove(&key) {
                self.wrongful_durations.push(self.tick.saturating_sub(start));
            }
        }
    }

    /// `node` left the overlay: intervals involving it no longer measure a
    /// wrongful severance (the peer is gone either way).
    fn close_wrongful_for(&mut self, node: NodeId) {
        // Close in sorted key order: the duration list is serialized into
        // snapshots verbatim, so its push order must be a pure function of
        // simulation state.
        for key in self.wrongful_open.naming(node) {
            let start = self.wrongful_open.remove(&key).expect("just listed");
            self.wrongful_durations.push(self.tick.saturating_sub(start));
        }
    }

    fn build_emissions(&mut self) {
        self.emissions.clear();
        for i in 0..self.nodes.len() {
            if !self.nodes[i].state.is_online() {
                continue;
            }
            let node = NodeId::from_index(i);
            match self.nodes[i].role {
                Role::Good => {
                    let k = self.cfg.arrivals.sample_tick(&mut self.rng_workload);
                    for _ in 0..k {
                        let object = self.catalog.sample_query_target(&mut self.rng_workload);
                        self.emissions.push(Emission::Good { origin: node, object });
                    }
                }
                Role::Attacker { rate_qpm, .. } => {
                    if self.tick < self.nodes[i].dormant_until {
                        // A whitewashed agent lying low through its quiet
                        // window emits nothing — indistinguishable from a
                        // silent newcomer.
                        continue;
                    }
                    // Distinct queries per link (Figure 1): one batch per
                    // adjacency slot; Q_d = min(rate, link) enforced by the
                    // flood's link budget.
                    for slot in 0..self.overlay.degree(node) {
                        self.emissions.push(Emission::Attack {
                            origin: node,
                            slot: slot as u32,
                            count: rate_qpm,
                        });
                    }
                }
            }
        }
        // Interleave good and attack traffic: under FIFO the arrival order
        // decides who gets the capacity.
        self.emissions.shuffle(&mut self.rng_workload);
    }

    fn execute_emissions(
        &mut self,
        traffic: &mut TrafficAccumulator,
        success: &mut SuccessStats,
        response: &mut ResponseStats,
    ) {
        let emissions = std::mem::take(&mut self.emissions);
        for &em in &emissions {
            let mut env = FloodEnv {
                node_used: &mut self.node_used,
                capacity: &self.capacity,
                online: &self.online,
                prev_util: &self.prev_util,
                traffic,
                policy: self.cfg.forwarding,
                fair_share_factor: self.cfg.fair_share_factor,
                hop_latency_secs: self.cfg.hop_latency_secs,
                proc_delay_secs: self.cfg.proc_delay_secs,
            };
            match em {
                Emission::Good { origin, object } => {
                    success.record_issued(1);
                    let out = self.flood.flood(
                        &mut self.overlay,
                        origin,
                        FirstHop::All { count: 1 },
                        self.cfg.ttl,
                        Some((&self.catalog, object)),
                        &mut env,
                    );
                    if out.found {
                        // Query out + hit back along the reverse path.
                        let rtt = 2.0 * out.hit_delay_secs;
                        if rtt <= self.cfg.response_timeout_secs {
                            success.record_success();
                            response.record(rtt);
                            self.response_p95.record(rtt);
                        }
                    }
                }
                Emission::Attack { origin, slot, count } => {
                    // The slot may have shifted if an edge was removed this
                    // tick; guard against stale indices.
                    if (slot as usize) < self.overlay.degree(origin) {
                        self.flood.flood(
                            &mut self.overlay,
                            origin,
                            FirstHop::Single { slot: slot as usize, count },
                            self.cfg.ttl,
                            None,
                            &mut env,
                        );
                    }
                }
            }
        }
        self.emissions = emissions;
    }

    /// Per-node traffic accounting: fold this tick's processed-query counts
    /// into utilization. Sharded across the worker pool — each partition
    /// writes a disjoint chunk of `prev_util`, so the result is positionally
    /// identical to the serial sweep at any thread count.
    fn update_utilization(&mut self) {
        let n = self.nodes.len();
        let part = Partition::even(n, self.threads);
        let shards = if self.threads > 1 && n > 1 { part.parts() } else { 0 };
        self.parallel_stats.record_tick(shards);
        let (node_used, capacity) = (&self.node_used, &self.capacity);
        crate::pool::run_chunked(
            self.threads,
            &mut self.prev_util,
            part.boundaries(),
            |start, chunk| {
                for (k, u) in chunk.iter_mut().enumerate() {
                    let i = start + k;
                    let cap = capacity[i].max(1);
                    *u = (node_used[i] as f32 / cap as f32).min(1.0);
                }
            },
        );
    }

    fn run_defense(&mut self, traffic: &mut TrafficAccumulator) {
        let mut actions = Actions::default();
        {
            let obs = TickObservation {
                tick: self.tick,
                overlay: &self.overlay,
                online: &self.online,
                runs_defense: &self.runs_defense,
                report_behavior: &self.report_behavior,
                list_behavior: &self.list_behavior,
                faults: Some(&self.fault_plane),
            };
            self.defense.on_tick(&obs, &mut actions);
        }
        traffic.control_msgs += actions.control_msgs;
        for t in actions.transitions {
            self.verdict_ledger.record(t);
        }
        for (observer, suspect) in actions.cuts {
            if !self.overlay.remove_edge(observer, suspect) {
                continue; // already gone (double cut within the tick)
            }
            self.defense.on_edge_removed(
                observer,
                suspect,
                self.overlay.degree(observer),
                self.overlay.degree(suspect),
            );
            self.cut_log.push(CutRecord {
                tick: self.tick,
                observer,
                suspect,
                suspect_was_attacker: self.nodes[suspect.index()].role.is_attacker(),
            });
            if self.nodes[suspect.index()].role.is_attacker() {
                if self.overlay.degree(suspect) == 0 {
                    self.isolate(suspect);
                }
            } else {
                if !self.wrongful_open.contains(&(observer, suspect)) {
                    self.wrongful_open.insert((observer, suspect), self.tick);
                }
                // "False negative is the number of good peers that are
                // wrongly disconnected" — count each peer once, however many
                // neighbors cut it.
                if !self.counted_wrongly_cut[suspect.index()] {
                    self.counted_wrongly_cut[suspect.index()] = true;
                    self.errors.record_good_peer_cut();
                }
            }
        }
        // Readmission probes re-dial after cuts are applied, so a cut and a
        // probe of the same pair in one tick nets out to "still severed".
        for (observer, suspect) in actions.reconnects {
            self.readmit(observer, suspect);
        }
    }
}

impl Snapshottable for CutRecord {
    fn save(&self, enc: &mut Enc) {
        enc.u32(self.tick);
        enc.u32(self.observer.0);
        enc.u32(self.suspect.0);
        enc.bool(self.suspect_was_attacker);
    }

    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(CutRecord {
            tick: dec.u32()?,
            observer: NodeId(dec.u32()?),
            suspect: NodeId(dec.u32()?),
            suspect_was_attacker: dec.bool()?,
        })
    }
}

fn save_rng(enc: &mut Enc, rng: &StdRng) {
    for w in rng.state() {
        enc.u64(w);
    }
}

fn load_rng(dec: &mut Dec<'_>) -> Result<StdRng, SnapshotError> {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = dec.u64()?;
    }
    Ok(StdRng::from_state(s))
}

/// Crash-safe checkpointing: serialize the complete engine state at a tick
/// boundary and rebuild a tick-for-tick byte-identical continuation from it.
///
/// A snapshot captures everything that persists across ticks — node states,
/// the overlay's adjacency arena *verbatim* (slot order is observable:
/// attack emissions index by slot), content libraries, the positions of every
/// RNG stream, the fault plane's in-flight mailboxes, whitewash/session
/// bookkeeping, all metrics accumulators, and the defense's own state via
/// [`Defense::save_state`]. Per-tick scratch (flood visited stamps, emission
/// buffers, the refreshed observation slices) is rebuilt to defaults: at a
/// tick boundary it is dead state, fully overwritten before the next read.
///
/// On any restore error the simulation may be partially overwritten and must
/// be discarded — callers rebuild via [`Simulation::new`] and retry or rerun.
impl<D: Defense> Simulation<D> {
    /// Fingerprint binding a snapshot to the run that wrote it: the full
    /// configuration (via its `Debug` rendering, which covers every field)
    /// and the master seed. Resuming under a different config or seed would
    /// silently diverge, so it is refused up front.
    fn context_fingerprint(&self) -> u64 {
        let text = format!("{:?}|seed={}", self.cfg, self.master_seed);
        ddp_snapshot::fnv1a64(text.as_bytes())
    }

    fn save_payload(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u32(self.tick);
        enc.put(&self.nodes);
        // Each node's bandwidth class, then its adjacency row verbatim: slot
        // order and twin indices are observable (attack emissions and counter
        // mirrors are positional), so the rows must survive byte-for-byte,
        // never canonicalized.
        let n = self.nodes.len();
        enc.usize(n);
        for u in 0..n {
            let node = NodeId::from_index(u);
            enc.u8(bandwidth_tag(self.overlay.class_of(node)));
            let row = self.overlay.neighbors(node);
            enc.usize(row.len());
            for h in row {
                enc.u32(h.peer.0);
                enc.u32(h.ridx);
            }
        }
        // The bytes of a `Vec<Vec<u32>>`, straight from the catalog's arena.
        enc.usize(self.catalog.num_peers());
        for u in 0..self.catalog.num_peers() {
            enc.slice(self.catalog.library(NodeId::from_index(u)));
        }
        save_rng(&mut enc, &self.rng_workload);
        save_rng(&mut enc, &self.rng_churn);
        save_rng(&mut enc, &self.rng_session);
        self.fault_plane.save_state(&mut enc);
        enc.put(&self.free_slots);
        enc.put(&self.session_stats);
        enc.put(&self.whitewash);
        enc.put(&self.whitewash_log);
        enc.put(&self.prev_util);
        enc.put(&self.series);
        enc.put(&self.errors);
        enc.put(&self.counted_wrongly_cut);
        enc.put(&self.cut_log);
        enc.put(&self.verdict_ledger);
        enc.usize(self.wrongful_open.len());
        for ((a, b), t) in self.wrongful_open.iter() {
            enc.u32(a.0);
            enc.u32(b.0);
            enc.u32(t);
        }
        enc.put(&self.wrongful_durations);
        enc.put(&self.response_p95);
        self.defense.save_state(&mut enc);
        enc.into_bytes()
    }

    fn restore_payload(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        let tick = dec.u32()?;
        let nodes: Vec<NodeState> = dec.get()?;
        let n = nodes.len();
        let row_count = dec.len("adjacency row count")?;
        if row_count != n {
            return Err(SnapshotError::Corrupt { what: "adjacency row count" });
        }
        let mut classes = Vec::with_capacity(n);
        let mut rows: Vec<Vec<Half>> = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(bandwidth_from_tag(dec.u8()?)?);
            let deg = dec.len("adjacency row")?;
            let mut row = Vec::with_capacity(deg);
            for _ in 0..deg {
                row.push(Half { peer: NodeId(dec.u32()?), ridx: dec.u32()? });
            }
            rows.push(row);
        }
        // Bounds-check every half before handing the rows to the arena, so
        // corrupt bytes surface as typed errors instead of index panics.
        for row in &rows {
            for h in row {
                if h.peer.index() >= n || rows[h.peer.index()].len() <= h.ridx as usize {
                    return Err(SnapshotError::Corrupt { what: "adjacency half out of bounds" });
                }
            }
        }
        let graph = DynamicGraph::from_rows(&rows);
        let overlay = Overlay::new(graph, &classes);
        overlay
            .check_invariants()
            .map_err(|_| SnapshotError::Corrupt { what: "overlay invariants" })?;
        let linked = |i| overlay.degree(NodeId::from_index(i)) > 0;
        if (0..n).any(|i| !nodes[i].state.is_online() && linked(i)) {
            return Err(SnapshotError::Corrupt { what: "offline slot link" });
        }
        if (0..n).any(|i| matches!(nodes[i].state, SlotState::Isolated { .. }) && linked(i)) {
            return Err(SnapshotError::Corrupt { what: "isolated slot link" });
        }
        let libraries: Vec<Vec<u32>> = dec.get()?;
        if libraries.len() != n {
            return Err(SnapshotError::Corrupt { what: "library count" });
        }
        let catalog = ContentCatalog::from_libraries(&libraries, &self.cfg.content);
        let rng_workload = load_rng(dec)?;
        let rng_churn = load_rng(dec)?;
        let rng_session = load_rng(dec)?;
        self.fault_plane.restore_state(dec, n)?;
        // The free list is the `Free` slots, each once, in recycling order.
        let free_slots: Vec<usize> = dec.get()?;
        let mut listed = free_slots.clone();
        listed.sort_unstable();
        if !listed.into_iter().eq((0..n).filter(|&i| nodes[i].state == SlotState::Free)) {
            return Err(SnapshotError::Corrupt { what: "free slot" });
        }
        if nodes.iter().any(|s| matches!(s.state, SlotState::Dwell { .. }) && !s.role.is_attacker())
        {
            return Err(SnapshotError::Corrupt { what: "dwell slot" });
        }
        let session_stats: crate::session::SessionStats = dec.get()?;
        let whitewash: Option<crate::session::WhitewashConfig> = dec.get()?;
        let whitewash_log: Vec<crate::session::WhitewashRecord> = dec.get()?;
        let prev_util: Vec<f32> = dec.get()?;
        let series: RunSeries = dec.get()?;
        let errors: DetectionErrors = dec.get()?;
        let counted_wrongly_cut: Vec<bool> = dec.get()?;
        if prev_util.len() != n || counted_wrongly_cut.len() != n {
            return Err(SnapshotError::Corrupt { what: "per-node vector length" });
        }
        let cut_log: Vec<CutRecord> = dec.get()?;
        let verdict_ledger: VerdictLedger = dec.get()?;
        let wrongful_n = dec.len("wrongful_open")?;
        let mut wrongful_open = WrongfulOpen::default();
        for _ in 0..wrongful_n {
            let a = NodeId(dec.u32()?);
            let b = NodeId(dec.u32()?);
            let t = dec.u32()?;
            wrongful_open.insert((a, b), t);
        }
        let wrongful_durations: Vec<u32> = dec.get()?;
        let response_p95: P2Quantile = dec.get()?;
        self.defense.restore_state(dec)?;

        self.tick = tick;
        self.nodes = nodes;
        self.overlay = overlay;
        self.catalog = catalog;
        self.flood = FloodEngine::new(n);
        self.rng_workload = rng_workload;
        self.rng_churn = rng_churn;
        self.rng_session = rng_session;
        self.free_slots = free_slots;
        self.session_stats = session_stats;
        self.whitewash = whitewash;
        self.whitewash_log = whitewash_log;
        self.prev_util = prev_util;
        self.series = series;
        self.errors = errors;
        self.counted_wrongly_cut = counted_wrongly_cut;
        self.cut_log = cut_log;
        self.verdict_ledger = verdict_ledger;
        self.wrongful_open = wrongful_open;
        self.wrongful_durations = wrongful_durations;
        self.response_p95 = response_p95;
        self.emissions.clear();
        Ok(())
    }

    /// Serialize the complete engine state into a self-validating container.
    ///
    /// Fails with [`SnapshotError::Unsupported`] when the active defense does
    /// not implement snapshot state — a checkpoint that silently omitted the
    /// defense would diverge on resume.
    pub fn save_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        if !self.defense.snapshot_support() {
            return Err(SnapshotError::Unsupported {
                what: "active defense has no snapshot support",
            });
        }
        Ok(ddp_snapshot::encode_container(self.context_fingerprint(), &self.save_payload()))
    }

    /// Rebuild this simulation from [`save_snapshot`](Self::save_snapshot)
    /// bytes. `self` must have been built by [`Simulation::new`] with the
    /// same configuration and master seed as the writer (enforced via the
    /// context fingerprint). On error the simulation state is unspecified
    /// and must be discarded.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let (context, payload) = ddp_snapshot::decode_container(bytes, Path::new("<memory>"))?;
        let expected = self.context_fingerprint();
        if context != expected {
            return Err(SnapshotError::ContextMismatch { expected, found: context });
        }
        let mut dec = Dec::new(&payload);
        self.restore_payload(&mut dec)?;
        dec.finish()
    }

    /// Write a checkpoint crash-safely (temp file + fsync + atomic rename).
    pub fn write_snapshot_file(&self, path: &Path) -> Result<(), SnapshotError> {
        if !self.defense.snapshot_support() {
            return Err(SnapshotError::Unsupported {
                what: "active defense has no snapshot support",
            });
        }
        ddp_snapshot::write_snapshot(path, self.context_fingerprint(), &self.save_payload())
    }

    /// Resume from a checkpoint written by
    /// [`write_snapshot_file`](Self::write_snapshot_file). Same contract as
    /// [`restore_snapshot`](Self::restore_snapshot).
    pub fn resume_from_file(&mut self, path: &Path) -> Result<(), SnapshotError> {
        let (context, payload) = ddp_snapshot::read_snapshot(path)?;
        let expected = self.context_fingerprint();
        if context != expected {
            return Err(SnapshotError::ContextMismatch { expected, found: context });
        }
        let mut dec = Dec::new(&payload);
        self.restore_payload(&mut dec)?;
        dec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::NoDefense;
    use ddp_topology::{TopologyConfig, TopologyModel};
    use ddp_workload::LifetimeModel;

    fn small_cfg(n: usize) -> SimConfig {
        SimConfig {
            topology: TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } },
            ..SimConfig::default()
        }
    }

    #[test]
    fn baseline_run_has_high_success_rate() {
        let cfg = small_cfg(300);
        let sim = Simulation::new(cfg, NoDefense, 7);
        let res = sim.run(10);
        assert_eq!(res.summary.ticks, 10);
        assert!(
            res.summary.success_rate_mean > 0.6,
            "unattacked success rate {} too low",
            res.summary.success_rate_mean
        );
        assert!(res.summary.response_time_mean_secs > 0.0);
        assert_eq!(res.summary.errors.false_positive, 0);
    }

    #[test]
    fn attack_degrades_success_and_raises_traffic() {
        let cfg = small_cfg(300);
        let baseline = Simulation::new(cfg.clone(), NoDefense, 7).run(10);

        let mut sim = Simulation::new(cfg, NoDefense, 7);
        for i in 0..10u32 {
            sim.make_attacker(NodeId(i * 13 + 1), ReportBehavior::Honest);
        }
        let attacked = sim.run(10);
        assert!(
            attacked.summary.success_rate_mean < baseline.summary.success_rate_mean,
            "attack should reduce success: {} vs {}",
            attacked.summary.success_rate_mean,
            baseline.summary.success_rate_mean
        );
        assert!(
            attacked.summary.traffic_per_tick > 2.0 * baseline.summary.traffic_per_tick,
            "attack should multiply traffic: {} vs {}",
            attacked.summary.traffic_per_tick,
            baseline.summary.traffic_per_tick
        );
        // Attackers were never disconnected: all are terminal false positives.
        assert_eq!(attacked.summary.errors.false_positive, 10);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = Simulation::new(small_cfg(200), NoDefense, 99).run(6);
        let b = Simulation::new(small_cfg(200), NoDefense, 99).run(6);
        assert_eq!(a.series.success_rate, b.series.success_rate);
        assert_eq!(a.series.traffic, b.series.traffic);
        let c = Simulation::new(small_cfg(200), NoDefense, 100).run(6);
        assert_ne!(a.series.traffic, c.series.traffic, "different seed, different run");
    }

    #[test]
    fn phase_times_count_every_step_and_stay_out_of_the_state() {
        let mut a = Simulation::new(small_cfg(120), NoDefense, 5);
        let mut b = Simulation::new(small_cfg(120), NoDefense, 5);
        a.step();
        for _ in 0..3 {
            a.step();
            b.step();
        }
        b.step();
        let (pa, pb) = (a.phase_times(), b.phase_times());
        assert_eq!((pa.ticks, pb.ticks), (4, 4));
        assert!(pa.flood > std::time::Duration::ZERO, "floods take time");
        // Wall clocks never repeat; the state they sit beside does.
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn churn_departs_and_rejoins_peers() {
        let mut cfg = small_cfg(120);
        cfg.lifetime = LifetimeModel::Exponential { mean_min: 3.0 };
        let mut sim = Simulation::new(cfg, NoDefense, 5);
        let mut saw_offline = false;
        for _ in 0..12 {
            sim.step();
            if (0..120).any(|i| !sim.is_online(NodeId(i))) {
                saw_offline = true;
            }
        }
        assert!(saw_offline, "with 3-minute lifetimes someone must churn in 12 ticks");
        // The overlay must remain usable: the steady-state offline fraction
        // is rejoin_delay / (lifetime + rejoin_delay) = 1/4 here.
        let online = (0..120).filter(|&i| sim.is_online(NodeId(i))).count();
        assert!(online > 70, "most peers online, got {online}");
        sim.overlay().check_invariants().unwrap();
    }

    #[test]
    fn no_churn_keeps_everyone_online() {
        let mut cfg = small_cfg(100);
        cfg.churn = false;
        let mut sim = Simulation::new(cfg, NoDefense, 5);
        for _ in 0..8 {
            sim.step();
        }
        assert!((0..100).all(|i| sim.is_online(NodeId(i))));
    }

    /// A defense that cuts every neighbor of node 0 — exercises the cut
    /// bookkeeping and attacker-reconnect paths.
    struct CutEverything;
    impl Defense for CutEverything {
        fn name(&self) -> &'static str {
            "cut-everything"
        }
        fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
            let victims: Vec<_> = obs.overlay.neighbors(NodeId(0)).iter().map(|h| h.peer).collect();
            for v in victims {
                actions.cut(NodeId(0), v);
            }
            actions.control_msgs += 3;
        }
    }

    #[test]
    fn cuts_are_applied_and_counted() {
        let mut cfg = small_cfg(100);
        cfg.churn = false;
        let mut sim = Simulation::new(cfg, CutEverything, 11);
        sim.make_attacker(NodeId(50), ReportBehavior::Honest);
        sim.step();
        // Node 0's neighbors are (almost surely) good peers: cuts counted as
        // good-peer cuts -> paper's false negatives.
        let res = sim.run(2);
        assert!(res.summary.good_peers_cut > 0);
        assert!(res.summary.errors.false_negative > 0);
        assert!(res.summary.control_per_tick > 0.0);
    }

    #[test]
    fn wrongful_interval_keys_are_node_ids_closing_both_orientations() {
        let mut cfg = small_cfg(60);
        cfg.churn = false;
        let mut sim = Simulation::new(cfg, NoDefense, 3);
        sim.tick = 7;
        sim.wrongful_open.insert((NodeId(1), NodeId(2)), 4);
        sim.wrongful_open.insert((NodeId(5), NodeId(6)), 2);
        // A re-link observed in the opposite orientation must still close the
        // interval: the map is keyed by node identity, both directions probed.
        sim.close_wrongful(NodeId(2), NodeId(1));
        assert_eq!(sim.wrongful_durations, vec![3]);
        // A departing endpoint censors its intervals — the churn path.
        sim.close_wrongful_for(NodeId(6));
        assert_eq!(sim.wrongful_durations, vec![3, 5]);
        assert!(sim.wrongful_open.is_empty());
    }

    #[test]
    fn departure_closes_only_its_intervals_in_sorted_key_order() {
        let mut cfg = small_cfg(60);
        cfg.churn = false;
        let mut sim = Simulation::new(cfg, NoDefense, 3);
        sim.tick = 10;
        // Start ticks chosen so each closed duration names its interval.
        for (a, b, start) in [(7, 5, 6), (5, 9, 7), (1, 2, 1), (5, 2, 8), (3, 5, 9)] {
            sim.wrongful_open.insert((NodeId(a), NodeId(b)), start);
        }
        sim.close_wrongful_for(NodeId(5));
        // (3,5), (5,2), (5,9), (7,5): ascending (observer, suspect), whichever
        // side names the departed peer.
        assert_eq!(sim.wrongful_durations, vec![1, 2, 3, 4]);
        assert_eq!(sim.wrongful_open.iter().collect::<Vec<_>>(), [((NodeId(1), NodeId(2)), 1)]);
        sim.close_wrongful_for(NodeId(5));
        assert_eq!(sim.wrongful_durations.len(), 4, "nothing left naming peer 5");
    }

    #[test]
    fn wrongful_intervals_survive_churn() {
        // CutEverything wrongly cuts good peers every tick while churn
        // departs and rejoins them; every opened interval must close (on
        // re-link or departure) or be censored at run end — never lost, never
        // longer than the run.
        let mut cfg = small_cfg(100);
        cfg.lifetime = LifetimeModel::Exponential { mean_min: 3.0 };
        let sim = Simulation::new(cfg, CutEverything, 17);
        let res = sim.run(10);
        let v = &res.summary.verdicts;
        assert!(res.summary.good_peers_cut > 0);
        assert!(v.wrongful_cuts > 0, "wrongful cuts must be measured under churn");
        assert!(
            v.wrongful_cut_ticks_mean <= 10.0,
            "durations are bounded by the run length, got mean {}",
            v.wrongful_cut_ticks_mean
        );
    }

    /// Cuts every link of one ground-truth target on one tick only, so the
    /// target's way back is the engine's rejoin policy alone.
    struct CutOnce {
        target: NodeId,
        at: Tick,
    }
    impl Defense for CutOnce {
        fn name(&self) -> &'static str {
            "cut-once"
        }
        fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
            if obs.tick == self.at {
                for h in obs.overlay.neighbors(self.target) {
                    actions.cut(h.peer, self.target);
                }
            }
        }
    }

    /// Agent 7, cut off at tick 2 with rejoin delay `delay`, stepped to tick
    /// 10; each tick's slot state and degree after the step.
    fn isolation_trace(delay: u32) -> Vec<(Tick, SlotState, usize)> {
        let mut cfg = small_cfg(60);
        cfg.churn = false;
        cfg.attacker_rejoin_delay_ticks = delay;
        let agent = NodeId(7);
        let mut sim = Simulation::new(cfg, CutOnce { target: agent, at: 2 }, 3);
        sim.make_attacker(agent, ReportBehavior::Honest);
        (0..10)
            .map(|_| {
                sim.step();
                (sim.tick(), sim.slot_state(agent), sim.overlay().degree(agent))
            })
            .collect()
    }

    #[test]
    fn attacker_reconnects_after_isolation() {
        let trace = isolation_trace(3);
        let until = 2 + 3;
        for &(tick, state, degree) in &trace {
            if tick < 2 {
                assert!(degree > 0, "tick {tick}: linked before the cut");
            } else if tick < until {
                assert_eq!(state, SlotState::Isolated { until }, "tick {tick}");
                assert_eq!(degree, 0, "tick {tick}: isolated means cut off");
            } else {
                assert!(matches!(state, SlotState::Online { .. }), "tick {tick}: {state:?}");
                assert!(degree > 0, "tick {tick}: the agent re-dials once its window is over");
            }
        }
        for &(tick, state, degree) in &isolation_trace(u32::MAX)[1..] {
            assert_eq!(state, SlotState::Isolated { until: u32::MAX }, "tick {tick}");
            assert_eq!(degree, 0, "tick {tick}: a never-ending window never ends");
        }
    }

    #[test]
    fn huge_rejoin_delay_saturates_instead_of_overflowing() {
        // rejoin_at = tick + delay must clamp, not wrap (a wrapped schedule
        // would resurrect the peer immediately).
        let mut cfg = small_cfg(80);
        cfg.lifetime = LifetimeModel::Exponential { mean_min: 1.0 };
        cfg.rejoin_delay_ticks = u32::MAX;
        let mut sim = Simulation::new(cfg, NoDefense, 9);
        for _ in 0..5 {
            sim.step();
        }
        let offline = (0..80).filter(|&i| !sim.is_online(NodeId(i))).count();
        assert!(offline > 0, "1-minute lifetimes must drive departures");
        // Nobody scheduled at u32::MAX ever returns.
        for i in 0..80u32 {
            if !sim.is_online(NodeId(i)) {
                assert_eq!(sim.nodes[i as usize].state, SlotState::Offline { rejoin_at: u32::MAX });
            }
        }
    }

    #[test]
    fn session_model_sustains_population_with_fresh_arrivals() {
        use crate::session::SessionConfig;
        let mut cfg = small_cfg(120);
        cfg.session = Some(SessionConfig::steady_state(120, 4.0));
        let mut sim = Simulation::new(cfg, NoDefense, 21);
        for _ in 0..15 {
            sim.step();
            sim.overlay().check_invariants().unwrap();
        }
        let stats = sim.session_stats();
        assert!(stats.joins > 0, "arrivals must occur");
        assert!(stats.leaves + stats.crashes > 0, "departures must occur");
        assert!(stats.crashes > 0, "a 0.25 crash fraction must crash someone in 15 ticks");
        let online =
            (0..sim.node_count()).filter(|&i| sim.is_online(NodeId::from_index(i))).count();
        assert!(
            (60..=240).contains(&online),
            "steady-state arrivals should hold the population near 120, got {online}"
        );
        // Departed slots recycle before the arena grows past the cap.
        assert!(sim.node_count() <= 240);
    }

    #[test]
    fn session_zero_arrivals_drains_the_overlay() {
        use crate::session::SessionConfig;
        let mut cfg = small_cfg(100);
        cfg.session = Some(SessionConfig {
            arrival_rate_per_tick: 0.0,
            ..SessionConfig::steady_state(100, 2.0)
        });
        let mut sim = Simulation::new(cfg, NoDefense, 33);
        for _ in 0..14 {
            sim.step();
        }
        let online =
            (0..sim.node_count()).filter(|&i| sim.is_online(NodeId::from_index(i))).count();
        assert!(online < 40, "2-tick sessions with no arrivals must drain, got {online}");
        assert_eq!(sim.session_stats().joins, 0);
        sim.overlay().check_invariants().unwrap();
    }

    #[test]
    fn inert_session_model_reproduces_the_legacy_run() {
        // Churn rate 0: a session model that never fires (no arrivals, no
        // departures) must be tick-for-tick identical to session: None.
        use crate::session::SessionConfig;
        let mut cfg = small_cfg(150);
        cfg.churn = false;
        cfg.lifetime = LifetimeModel::Immortal;
        let legacy = Simulation::new(cfg.clone(), NoDefense, 77).run(8);
        cfg.session = Some(SessionConfig {
            arrival_rate_per_tick: 0.0,
            ..SessionConfig::steady_state(150, 10.0)
        });
        let sessioned = Simulation::new(cfg, NoDefense, 77).run(8);
        assert_eq!(legacy.series.success_rate, sessioned.series.success_rate);
        assert_eq!(legacy.series.traffic, sessioned.series.traffic);
        assert_eq!(legacy.summary, sessioned.summary);
    }

    /// Cuts every link of one ground-truth target each tick — drives the
    /// target to defensive isolation without a real detection protocol.
    struct CutTarget(NodeId);
    impl Defense for CutTarget {
        fn name(&self) -> &'static str {
            "cut-target"
        }
        fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
            let peers: Vec<_> = obs.overlay.neighbors(self.0).iter().map(|h| h.peer).collect();
            for p in peers {
                actions.cut(p, self.0);
            }
        }
    }

    #[test]
    fn whitewash_rebirth_grows_a_fresh_identity() {
        let mut cfg = small_cfg(80);
        cfg.churn = false;
        let initial_n = cfg.peers();
        let mut sim = Simulation::new(cfg, CutTarget(NodeId(7)), 13);
        sim.make_attacker(NodeId(7), ReportBehavior::Honest);
        sim.enable_whitewash(WhitewashConfig { dwell_ticks: 1, quiet_ticks: 2 });
        for _ in 0..6 {
            sim.step();
            sim.overlay().check_invariants().unwrap();
        }
        let log = sim.whitewash_log().to_vec();
        assert_eq!(log.len(), 1, "the cut agent must be reborn exactly once");
        let rec = log[0];
        assert_eq!(rec.old, NodeId(7));
        assert!(rec.new.index() >= initial_n, "rebirth must use a freshly grown slot");
        assert!(!sim.is_online(rec.old), "the burned identity stays dark");
        assert!(sim.is_online(rec.new));
        assert!(sim.role(rec.new).is_attacker());
        assert!(sim.overlay().degree(rec.new) > 0, "the newcomer re-dialed bootstrap links");
        assert_eq!(sim.nodes[rec.new.index()].dormant_until, rec.tick + 2);
        assert_eq!(sim.node_count(), initial_n + 1);
    }

    /// Build a stressful scenario: churn, faults, attackers, whitewash.
    fn busy_sim(seed: u64) -> Simulation<NoDefense> {
        let mut cfg = small_cfg(150);
        cfg.lifetime = LifetimeModel::Exponential { mean_min: 5.0 };
        cfg.faults =
            crate::FaultConfig { loss: 0.1, delay_prob: 0.2, delay_ticks: 2, crash_prob: 0.01 };
        let mut sim = Simulation::new(cfg, NoDefense, seed);
        for i in 0..8u32 {
            sim.make_attacker(NodeId(i * 17 + 2), ReportBehavior::Honest);
        }
        sim.enable_whitewash(WhitewashConfig { dwell_ticks: 2, quiet_ticks: 1 });
        sim
    }

    #[test]
    fn snapshot_resume_is_tick_for_tick_identical() {
        let mut reference = busy_sim(123);
        for _ in 0..12 {
            reference.step();
        }

        let mut writer = busy_sim(123);
        for _ in 0..5 {
            writer.step();
        }
        let bytes = writer.save_snapshot().unwrap();
        let mut resumed = busy_sim(123);
        resumed.restore_snapshot(&bytes).unwrap();
        assert_eq!(resumed.tick(), 5);
        for _ in 0..7 {
            resumed.step();
        }

        let a = reference.finish();
        let b = resumed.finish();
        assert_eq!(a.series, b.series);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.cut_log, b.cut_log);
    }

    #[test]
    fn snapshot_rejects_mismatched_run_identity() {
        let mut writer = busy_sim(123);
        writer.step();
        let bytes = writer.save_snapshot().unwrap();
        // Different seed: same config, different run — must be refused.
        let mut other = busy_sim(124);
        match other.restore_snapshot(&bytes) {
            Err(SnapshotError::ContextMismatch { .. }) => {}
            other => panic!("expected ContextMismatch, got {other:?}"),
        }
        // Different config likewise.
        let mut cfg_changed = Simulation::new(small_cfg(151), NoDefense, 123);
        match cfg_changed.restore_snapshot(&bytes) {
            Err(SnapshotError::ContextMismatch { .. }) => {}
            other => panic!("expected ContextMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_bytes_are_typed_errors_not_panics() {
        let mut writer = busy_sim(9);
        for _ in 0..3 {
            writer.step();
        }
        let bytes = writer.save_snapshot().unwrap();
        // Every truncation of the container must fail cleanly.
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut sim = busy_sim(9);
            assert!(sim.restore_snapshot(&bytes[..cut]).is_err());
        }
        // A bit flip anywhere must be rejected (checksum or typed decode).
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let mut sim = busy_sim(9);
        assert!(sim.restore_snapshot(&flipped).is_err());
    }

    /// 40 peers whose control plane delays every list announcement.
    fn delaying_cfg() -> SimConfig {
        SimConfig {
            faults: crate::FaultConfig { delay_prob: 1.0, delay_ticks: 2, ..Default::default() },
            ..small_cfg(40)
        }
    }

    /// A checksum-valid snapshot whose one planted node id equals the slot
    /// count: `plant` writes an in-range id into a fresh engine, the saved
    /// payload gets that id rewritten and goes back into a container. The id
    /// is found where a twin planted with the next lower id saves differently.
    fn hostile_snapshot(plant: impl Fn(&mut Simulation<NoDefense>, u32)) -> Vec<u8> {
        let n = delaying_cfg().topology.n as u32;
        let saved = |id| {
            let mut sim = Simulation::new(delaying_cfg(), NoDefense, 3);
            plant(&mut sim, id);
            let bytes = sim.save_snapshot().unwrap();
            ddp_snapshot::decode_container(&bytes, Path::new("<memory>")).unwrap()
        };
        let ((context, mut payload), (_, twin)) = (saved(n - 1), saved(n - 2));
        let differ: Vec<usize> = (0..payload.len()).filter(|&i| payload[i] != twin[i]).collect();
        assert_eq!(differ.len(), 1, "the planted id must be the only difference");
        payload[differ[0]] = n as u8; // n - 1, n - 2 and n share every byte but the lowest
        ddp_snapshot::encode_container(context, &payload)
    }

    fn assert_restore_is_corrupt(bytes: &[u8], field: &str) {
        let mut sim = Simulation::new(delaying_cfg(), NoDefense, 3);
        match sim.restore_snapshot(bytes) {
            Err(SnapshotError::Corrupt { what }) => assert_eq!(what, field),
            other => panic!("expected Corrupt {{ what: {field:?} }}, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_a_free_slot_outside_the_slot_range() {
        let bytes = hostile_snapshot(|sim, id| sim.free_slots.push(id as usize));
        assert_restore_is_corrupt(&bytes, "free slot");
    }

    /// Snapshot bytes of a fresh engine after `plant` edits its membership.
    fn planted_snapshot(plant: impl Fn(&mut Simulation<NoDefense>)) -> Vec<u8> {
        let mut sim = Simulation::new(delaying_cfg(), NoDefense, 3);
        plant(&mut sim);
        sim.save_snapshot().unwrap()
    }

    /// Take slot 3 off the overlay into `state`, as `retire` would.
    fn plant_offline(sim: &mut Simulation<NoDefense>, state: SlotState) {
        sim.overlay.isolate(NodeId(3));
        sim.nodes[3].state = state;
    }

    #[test]
    fn restore_refuses_a_free_list_that_is_not_the_free_slots() {
        let bytes = planted_snapshot(|sim| sim.free_slots.push(3));
        assert_restore_is_corrupt(&bytes, "free slot");
        let bytes = planted_snapshot(|sim| {
            plant_offline(sim, SlotState::Free);
            sim.free_slots.extend([3, 3]);
        });
        assert_restore_is_corrupt(&bytes, "free slot");
        let bytes = planted_snapshot(|sim| plant_offline(sim, SlotState::Free));
        assert_restore_is_corrupt(&bytes, "free slot");
    }

    #[test]
    fn restore_refuses_a_dwell_slot_that_is_not_an_agent() {
        let bytes = planted_snapshot(|sim| plant_offline(sim, SlotState::Dwell { rebirth_at: 9 }));
        assert_restore_is_corrupt(&bytes, "dwell slot");
    }

    #[test]
    fn restore_refuses_an_offline_slot_holding_a_link() {
        let bytes =
            planted_snapshot(|sim| sim.nodes[3].state = SlotState::Offline { rejoin_at: 9 });
        assert_restore_is_corrupt(&bytes, "offline slot link");
    }

    #[test]
    fn restore_refuses_an_isolated_slot_holding_a_link() {
        let bytes = planted_snapshot(|sim| sim.nodes[3].state = SlotState::Isolated { until: 9 });
        assert_restore_is_corrupt(&bytes, "isolated slot link");
    }

    /// Probes the pair `(0, target)` every tick, as a readmission probe does.
    struct ProbeTarget(NodeId);
    impl Defense for ProbeTarget {
        fn name(&self) -> &'static str {
            "probe-target"
        }
        fn on_tick(&mut self, _: &TickObservation<'_>, actions: &mut Actions) {
            actions.reconnect(NodeId(0), self.0);
        }
    }

    #[test]
    fn a_probe_that_reaches_an_isolated_agent_leaves_it_online() {
        let mut cfg = small_cfg(60);
        cfg.churn = false;
        let mut sim = Simulation::new(cfg, ProbeTarget(NodeId(7)), 3);
        sim.make_attacker(NodeId(7), ReportBehavior::Honest);
        // Cut agent 7 off for good, as the defense's cuts and `isolate` would.
        sim.overlay.isolate(NodeId(7));
        sim.nodes[7].state = SlotState::Isolated { until: u32::MAX };
        sim.step();
        assert_eq!(sim.slot_state(NodeId(7)), SlotState::Online { lifetime_left: u32::MAX });
        assert!(sim.overlay().contains_edge(NodeId(0), NodeId(7)));
    }

    #[test]
    fn restore_refuses_a_late_list_receiver_outside_the_slot_range() {
        let bytes = hostile_snapshot(|sim, id| {
            assert!(!sim.fault_plane.list_arrives(1, NodeId(1), NodeId(id), &[NodeId(2)]));
        });
        assert_restore_is_corrupt(&bytes, "delayed list receiver");
    }

    #[test]
    fn restore_refuses_a_late_list_announcer_outside_the_slot_range() {
        let bytes = hostile_snapshot(|sim, id| {
            assert!(!sim.fault_plane.list_arrives(1, NodeId(id), NodeId(1), &[NodeId(2)]));
        });
        assert_restore_is_corrupt(&bytes, "delayed list announcer");
    }

    #[test]
    fn restore_refuses_a_late_list_member_outside_the_slot_range() {
        let bytes = hostile_snapshot(|sim, id| {
            assert!(!sim.fault_plane.list_arrives(1, NodeId(1), NodeId(2), &[NodeId(id)]));
        });
        assert_restore_is_corrupt(&bytes, "delayed list member");
    }

    #[test]
    fn dormant_attackers_emit_no_flood_traffic() {
        let mut cfg = small_cfg(100);
        cfg.churn = false;
        let mut active = Simulation::new(cfg.clone(), NoDefense, 41);
        active.make_attacker(NodeId(9), ReportBehavior::Honest);
        let mut dormant = Simulation::new(cfg, NoDefense, 41);
        dormant.make_attacker(NodeId(9), ReportBehavior::Honest);
        dormant.nodes[9].dormant_until = u32::MAX;
        let a = active.run(4);
        let d = dormant.run(4);
        assert!(
            d.summary.traffic_per_tick < a.summary.traffic_per_tick / 2.0,
            "dormant agent must not flood: {} vs {}",
            d.summary.traffic_per_tick,
            a.summary.traffic_per_tick
        );
    }
}
