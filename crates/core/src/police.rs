//! The DD-POLICE detection protocol as a pluggable [`Defense`].
//!
//! Per tick (= minute), every compliant peer `i`:
//!
//! 1. refreshes neighbor-list snapshots per the exchange policy (§3.1),
//! 2. scans its per-neighbor `In_query` counters; a neighbor `j` above the
//!    warning threshold becomes a *suspect* (§3.3),
//! 3. takes `BGr-j` from its snapshot of `j`'s list, exchanges
//!    `Neighbor_Traffic` messages with the members (charged once per suspect
//!    per tick — the paper's 50-second re-send suppression), treating
//!    missing reports as zeroes,
//! 4. computes the General and Single indicators and disconnects `j` if
//!    either exceeds the cut threshold `CT` (§3.7.2).
//!
//! A suspect that never produces a neighbor list (a Silent attacker refusing
//! the exchange step) is judged after a grace period from the observer's own
//! counters alone — refusing to participate cannot be a shield.
//!
//! # One driver
//!
//! Steps 2–4 are `judge_range`: one loop over a contiguous observer range
//! holding that range's [`VerdictShard`], with one per-(observer, suspect)
//! body that ends in [`indicator::judge`]. A tick runs it over one
//! whole-range shard on the caller's thread, or over
//! [`Partition::by_degree`] shards on the worker pool. Either way the loop
//! touches nothing keyed by *suspect*: those effects are logged as
//! `Deferred` events and replayed by [`Defense::on_tick`] in ascending
//! observer order, so a sharded tick leaves exactly the bytes the one-shard
//! tick does.
//!
//! One step of the body has two implementations — turning the member answers
//! of the suspect's announced group into `(Σout, Σin)`; see `Group`. Each
//! group is built once per tick and announcement into its shard's
//! `GroupArena`, which forgets it when the next tick starts, so the memo is
//! bounded by one tick's judgments, not by every suspect the run judged.

use crate::buddy::verified_members_into;
use crate::config::DdPoliceConfig;
use crate::exchange::{ExchangeState, Snapshot};
use crate::indicator;
use crate::verdict::{
    aggregate_group_traffic_with, AggregationPolicy, IndexEdit, VerdictMachine, VerdictShard,
};
use ddp_metrics::PolicePhases;
use ddp_sim::{
    Actions, Defense, FrozenTick, ReportDelivery, ReportOutcome, Tick, TickObservation,
    TrafficReport,
};
use ddp_sketch::{MonitorBackend, SketchMonitor};
use ddp_topology::{Half, NodeId, Partition};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Read-only view of the active traffic monitor, the source every judgment
/// reads its per-neighbor query counts from. `Exact` reads the overlay's
/// frozen counters — the code path that existed before backends were
/// pluggable, byte-for-byte. `Sketch` reads the count-min estimates ingested
/// at the top of the tick. `Copy` so every shard can carry it over the
/// frozen tick (the sketch is only ever read during judgment).
#[derive(Clone, Copy)]
enum Mon<'a> {
    Exact,
    Sketch(&'a SketchMonitor),
}

impl Mon<'_> {
    /// The tick's accepted-query count on `src → dst`, where `slot` is
    /// `src`'s adjacency slot for `dst` (the exact backend's O(1)
    /// reciprocal-index read).
    #[inline]
    fn flow(&self, obs: &FrozenTick<'_>, src: NodeId, slot: usize, dst: NodeId) -> u32 {
        match self {
            Mon::Exact => obs.overlay.accepted_via(src, slot),
            Mon::Sketch(m) => m.estimate(src.0, dst.0),
        }
    }

    /// What `reporter` would answer a `Neighbor_Traffic` request about
    /// `suspect`: the monitor's counters, shaped by the reporter's fixed
    /// cheating behavior. Observer-independent either way, so one answer per
    /// `(reporter, suspect)` serves every observer under either backend.
    #[inline]
    fn answer(
        &self,
        obs: &FrozenTick<'_>,
        reporter: NodeId,
        suspect: NodeId,
    ) -> Option<TrafficReport> {
        match self {
            Mon::Exact => obs.request_report(reporter, suspect),
            Mon::Sketch(m) => obs.shape_report(
                reporter,
                suspect,
                TrafficReport {
                    sent_to_suspect: m.estimate(reporter.0, suspect.0),
                    received_from_suspect: m.estimate(suspect.0, reporter.0),
                },
            ),
        }
    }

    /// [`answer`](Self::answer) for the reporter found at `slot` of the
    /// suspect's adjacency, `half`: the same answer, but both directions of
    /// the link are read through the twin index instead of by scanning the
    /// two adjacencies for each other.
    #[inline]
    fn answer_at(
        &self,
        obs: &FrozenTick<'_>,
        suspect: NodeId,
        slot: usize,
        half: Half,
    ) -> Option<TrafficReport> {
        let reporter = half.peer;
        let base = TrafficReport {
            sent_to_suspect: self.flow(obs, reporter, half.ridx as usize, suspect),
            received_from_suspect: self.flow(obs, suspect, slot, reporter),
        };
        obs.shape_neighbor_report(reporter, suspect, base)
    }
}

/// Realized-error diagnostics of the sketch backend, refreshed during each
/// tick's ingest. `max_excess_*` compares every live edge's estimate against
/// the exact counter — the quantity the detection-parity suite derives its
/// borderline tolerance from (the error-bound proptests bound it by εN).
/// All zeros under the exact backend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SketchStats {
    /// Queries ingested last tick (the εN bound's `N`).
    pub items_last_tick: u64,
    /// Worst realized overestimate across live edges, last tick.
    pub max_excess_last_tick: u32,
    /// Worst realized overestimate across the whole run.
    pub max_excess_run: u32,
    /// Largest `N` seen in any tick of the run.
    pub max_items_run: u64,
    /// Largest overlay degree seen during ingest (bounds a Buddy Group's
    /// `k`, which scales how estimate excess propagates into indicators).
    pub max_degree_run: u32,
}

/// Sum a Buddy Group's traffic claims about the suspect: the observer's own
/// ground-truth counters plus each other member's resolved report, where
/// `None` applies §3.4's assume-zero rule ("it just assumes that peer j sent
/// 0 query"). Returns `(Σ_m Q_{j→m}, Σ_m Q_{m→j})` — the General-Indicator
/// numerator pair. All inputs are u32 counters, so the f64 sums are exact.
pub fn group_traffic_sums(
    own: TrafficReport,
    member_reports: &[Option<TrafficReport>],
) -> (f64, f64) {
    let mut out_of_suspect = own.received_from_suspect as f64;
    let mut into_suspect = own.sent_to_suspect as f64;
    for r in member_reports.iter().flatten() {
        out_of_suspect += r.received_from_suspect as f64;
        into_suspect += r.sent_to_suspect as f64;
    }
    (out_of_suspect, into_suspect)
}

/// One `(g, s)` judgment actually computed, recorded when tracing is on.
/// The differential harness compares these against the reference oracle's
/// transcription of the paper's equations, within 1 ulp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JudgmentTrace {
    /// Tick the judgment happened in.
    pub tick: Tick,
    /// The judging peer.
    pub observer: NodeId,
    /// The peer being judged.
    pub suspect: NodeId,
    /// General Indicator `g(j,t)` as computed.
    pub g: f64,
    /// Single Indicator `s(j,t,i)` as computed.
    pub s: f64,
}

/// The DD-POLICE defense.
#[derive(Debug)]
pub struct DdPolice {
    cfg: DdPoliceConfig,
    exchange: ExchangeState,
    /// Per-observer suspicion state machines: hysteresis history, the
    /// missing-list grace streak, and the quarantine/probation lifecycle.
    verdicts: VerdictMachine,
    /// Per-suspect tick stamp of the last Neighbor_Traffic exchange (the
    /// 50-second suppression: "check whether it has sent a Neighbor_Traffic
    /// message to other members in this BG in past 50 seconds"). A stamp
    /// equal to the current tick means the suspect's group already exchanged;
    /// ticks are monotone and start at 1, so 0 reads as "never".
    exchanged_stamp: Vec<Tick>,
    /// When `Some`, every `(g, s)` judgment is appended here (differential
    /// testing against the reference oracle). Off by default: zero cost.
    trace: Option<Vec<JudgmentTrace>>,
    /// Worker-pool width from [`Defense::set_parallelism`]. Never serialized:
    /// a snapshot written at any width must restore identically at any other.
    threads: usize,
    /// One [`GroupArena`] per shard, kept only so its buffers survive
    /// across ticks.
    arenas: Vec<GroupArena>,
    /// The sketch monitor when `cfg.monitor` selects the sketch backend
    /// (`None` under the exact default — the exact path allocates nothing).
    /// Ingest runs serially at the top of `on_tick`; judgments — on any
    /// number of shards — only read it. Its state (counters, window epoch,
    /// ingest tally) is serialized after the existing payload fields.
    monitor: Option<SketchMonitor>,
    /// See [`SketchStats`]. Diagnostics only: never serialized, never read
    /// by judgments, so it cannot influence detection behavior.
    sketch_stats: SketchStats,
    /// Where `on_tick`'s wall time went. Diagnostics only, like
    /// `sketch_stats`.
    phases: PolicePhases,
}

/// What one tick knows about one announcement of a suspect's list, shared by
/// every observer in the shard that holds that announcement: the verified
/// members and what each answers a `Neighbor_Traffic` request with (a span of
/// the [`GroupArena`]'s buffers), plus their sums. All of it is a pure
/// function of `(suspect, announcement tick)` on the frozen tick, so the
/// adjacency scans behind it run once per announcement, not once per observer
/// (an O(deg³) blowup on hub nodes otherwise), and every shard computes the
/// same values.
///
/// A judgment turns the group into `(Σout, Σin)` in one of two ways:
///
/// * [`shared_sums`](Self::shared_sums) — O(1): the sums over all members
///   are kept here and the observer subtracts its own slot back out. Exact
///   only when every observer would compute the same per-member terms:
///   plain summation (integer-valued f64 sums are order-independent below
///   2^53), no per-link clamp, and a transport that rolls no per-observer
///   fault dice.
/// * per member — each answer goes through [`resolve_report`]'s transport
///   legs, the link clamp and [`aggregate_group_traffic_with`].
///
/// [`Defense::on_tick`] picks by exactly that predicate, per tick.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Where the members and answers start in the arena.
    start: u32,
    /// How many members (and answers) the group has.
    len: u32,
    /// Σ members' claimed received-from-suspect, missing reports as zero.
    sum_out: f64,
    /// Σ members' claimed sent-to-suspect, missing reports as zero.
    sum_in: f64,
    /// Members that answered / refused (for bulk resilience accounting).
    n_answered: u32,
    n_refused: u32,
}

/// The group of a suspect that never announced a list: an empty span, so the
/// observer judges from its own counters alone (`k = 1`, no messages).
const NO_MEMBERS: Group =
    Group { start: 0, len: 0, sum_out: 0.0, sum_in: 0.0, n_answered: 0, n_refused: 0 };

impl Group {
    fn span(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// `(Σout, Σin, fresh, refused)` for the observer at `own_slot` of the
    /// group whose answers are `answers`: it never messages itself — its
    /// ground-truth counters stand in for its own (by construction
    /// identical) report.
    fn shared_sums(
        &self,
        answers: &[Option<TrafficReport>],
        own: TrafficReport,
        own_slot: Option<usize>,
    ) -> (f64, f64, u32, u32) {
        let mut sum_out = own.received_from_suspect as f64 + self.sum_out;
        let mut sum_in = own.sent_to_suspect as f64 + self.sum_in;
        let (mut fresh, mut refused) = (self.n_answered, self.n_refused);
        if let Some(slot) = own_slot {
            match answers[slot] {
                Some(r) => {
                    fresh -= 1;
                    sum_out -= r.received_from_suspect as f64;
                    sum_in -= r.sent_to_suspect as f64;
                }
                None => refused -= 1,
            }
        }
        (sum_out, sum_in, fresh, refused)
    }
}

/// One shard's [`Group`]s of the current tick: flat member and answer
/// buffers, the groups as spans of them, and an index from `(suspect,
/// announcement tick)` to the group. Keyed by the announcement, not the
/// suspect alone, so observers holding different-aged snapshots of one
/// suspect each find their own group, built once. [`judge_range`] clears it
/// on entry and the buffers keep their capacity, so what it holds is bounded
/// by one tick's judgments, never by the run's history. Never serialized.
#[derive(Debug, Default)]
struct GroupArena {
    index: HashMap<(u32, Tick), u32>,
    groups: Vec<Group>,
    members: Vec<NodeId>,
    answers: Vec<Option<TrafficReport>>,
    /// The member list being verified, before it is copied into `members`.
    scratch: Vec<NodeId>,
}

impl GroupArena {
    /// Forget every group, keeping the buffers.
    fn clear(&mut self) {
        self.index.clear();
        self.groups.clear();
        self.members.clear();
        self.answers.clear();
    }

    fn members(&self, g: Group) -> &[NodeId] {
        &self.members[g.span()]
    }

    fn answers(&self, g: Group) -> &[Option<TrafficReport>] {
        &self.answers[g.span()]
    }

    /// `suspect`'s group as announced in `snap`, built on first use.
    fn group(&mut self, suspect: NodeId, snap: &Snapshot, ctx: &TickCtx<'_>) -> Group {
        let key = (suspect.0, snap.taken_at);
        if let Some(&g) = self.index.get(&key) {
            return self.groups[g as usize];
        }
        let g = self.build(suspect, snap, ctx);
        self.index.insert(key, self.groups.len() as u32);
        self.groups.push(g);
        g
    }

    /// Append the group of `suspect` announced in `snap` to the buffers.
    fn build(&mut self, suspect: NodeId, snap: &Snapshot, ctx: &TickCtx<'_>) -> Group {
        verified_members_into(
            suspect,
            &snap.members,
            &ctx.obs,
            ctx.cfg.radius,
            ctx.cfg.verify_lists,
            &mut self.scratch,
        );
        let mut g = Group {
            start: self.members.len() as u32,
            len: self.scratch.len() as u32,
            ..NO_MEMBERS
        };
        self.members.extend_from_slice(&self.scratch);
        let adjacency = ctx.obs.overlay.neighbors(suspect);
        for (p, &m) in self.scratch.iter().enumerate() {
            // A member listed where the suspect's adjacency has it (a fresh,
            // truthful list) answers through the twin index; a stale, padded
            // or hidden list falls back to the scans, member by member.
            let answer = match adjacency.get(p) {
                Some(&half) if half.peer == m => ctx.mon.answer_at(&ctx.obs, suspect, p, half),
                _ => ctx.mon.answer(&ctx.obs, m, suspect),
            };
            match answer {
                Some(r) => {
                    g.n_answered += 1;
                    g.sum_out += r.received_from_suspect as f64;
                    g.sum_in += r.sent_to_suspect as f64;
                }
                None => g.n_refused += 1,
            }
            self.answers.push(answer);
        }
        g
    }
}

impl DdPolice {
    /// DD-POLICE over `n` peer slots.
    pub fn new(cfg: DdPoliceConfig, n: usize) -> Self {
        let monitor = match cfg.monitor {
            MonitorBackend::Exact => None,
            MonitorBackend::Sketch(params) => Some(SketchMonitor::new(params)),
        };
        DdPolice {
            cfg,
            exchange: ExchangeState::new(n),
            verdicts: VerdictMachine::new(n),
            exchanged_stamp: vec![0; n],
            trace: None,
            threads: 1,
            arenas: Vec::new(),
            monitor,
            sketch_stats: SketchStats::default(),
            phases: PolicePhases::default(),
        }
    }

    /// Wall time [`Defense::on_tick`] has spent per phase so far.
    pub fn phase_times(&self) -> PolicePhases {
        self.phases
    }

    /// The active configuration.
    pub fn config(&self) -> &DdPoliceConfig {
        &self.cfg
    }

    /// The suspicion state machines (for tests and diagnostics).
    pub fn verdicts(&self) -> &VerdictMachine {
        &self.verdicts
    }

    /// The neighbor-list exchange state (for tests and diagnostics).
    pub fn exchange(&self) -> &ExchangeState {
        &self.exchange
    }

    /// Start (or stop) recording every `(g, s)` judgment computed.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Drain the judgments recorded since the last call (empty when tracing
    /// is off). Tracing stays enabled.
    pub fn take_trace(&mut self) -> Vec<JudgmentTrace> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The sketch monitor, when the sketch backend is active (tests,
    /// diagnostics, and the experiments sweep's memory accounting).
    pub fn sketch_monitor(&self) -> Option<&SketchMonitor> {
        self.monitor.as_ref()
    }

    /// Realized-error diagnostics of the sketch backend (zeros under exact).
    pub fn sketch_stats(&self) -> SketchStats {
        self.sketch_stats
    }

    /// Sketch-backend ingest: replay the tick's frozen accepted-query
    /// counters into a fresh count-min window, then run a verify pass
    /// recording the realized worst overestimate. Runs serially on the
    /// caller's thread *before* any judgment: judgments only ever read the
    /// monitor, so sharding them needs no sketch merging or deferral at all
    /// — the sketch analogue of the `Deferred` replay rule for suspect-shared
    /// state is "mutate before the fork, freeze across it".
    fn sketch_ingest(&mut self, obs: &TickObservation<'_>) {
        let Some(mon) = self.monitor.as_mut() else { return };
        mon.begin_tick();
        let n = obs.overlay.node_count();
        let mut max_degree = self.sketch_stats.max_degree_run;
        for i in 0..n {
            let u = NodeId::from_index(i);
            let neigh = obs.overlay.neighbors(u);
            max_degree = max_degree.max(neigh.len() as u32);
            for (slot, &half) in neigh.iter().enumerate() {
                let c = obs.overlay.accepted_via(u, slot);
                if c > 0 {
                    mon.record_flow(u.0, half.peer.0, c);
                }
            }
        }
        let mut max_excess = 0u32;
        for i in 0..n {
            let u = NodeId::from_index(i);
            for (slot, &half) in obs.overlay.neighbors(u).iter().enumerate() {
                let c = obs.overlay.accepted_via(u, slot);
                max_excess = max_excess.max(mon.estimate(u.0, half.peer.0).saturating_sub(c));
            }
        }
        self.sketch_stats = SketchStats {
            items_last_tick: mon.items_this_tick(),
            max_excess_last_tick: max_excess,
            max_excess_run: self.sketch_stats.max_excess_run.max(max_excess),
            max_items_run: self.sketch_stats.max_items_run.max(mon.items_this_tick()),
            max_degree_run: max_degree,
        };
    }

    /// `(verdict entries, exchanged snapshots)` currently held — the two
    /// per-identity stores that grow under churn. The bounded-memory
    /// regression asserts this stays flat over long sessions.
    pub fn state_footprint(&self) -> (usize, usize) {
        (self.verdicts.total_entries(), self.exchange.total_snapshots())
    }
}

/// Resolve one member's `Neighbor_Traffic` report over the (possibly faulty)
/// transport. Transport failures are retried up to the bounded budget (each
/// retry charged one control message via `retry_msgs`), then a late reply
/// from an earlier round within the timeout window is accepted, then §3.4's
/// assume-zero rule applies. Refusals are final — a silent peer stays silent
/// no matter how often it is asked.
fn resolve_report(
    cfg: &DdPoliceConfig,
    obs: &TickObservation<'_>,
    observer: NodeId,
    reporter: NodeId,
    suspect: NodeId,
    answer: Option<TrafficReport>,
    retry_msgs: &mut u64,
) -> Option<TrafficReport> {
    let mut attempt = 0u32;
    loop {
        match obs.deliver_prepared_report(observer, reporter, suspect, answer, attempt) {
            ReportDelivery::Fresh(r) => {
                obs.note_report_outcome(ReportOutcome::Fresh);
                return Some(r);
            }
            ReportDelivery::Refused => {
                obs.note_report_outcome(ReportOutcome::Refused);
                return None;
            }
            ReportDelivery::Faulted => {
                if attempt < cfg.max_report_retries {
                    attempt += 1;
                    *retry_msgs += 1;
                    obs.note_retries(1);
                    continue;
                }
                if let Some((r, sent_at)) = obs.stale_report(observer, reporter, suspect) {
                    if obs.tick.saturating_sub(sent_at) <= cfg.report_timeout_ticks {
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

/// What every shard of one tick reads, all of it frozen for the tick (and
/// `Sync`, so the pool's workers share one copy).
#[derive(Clone, Copy)]
struct TickCtx<'a> {
    obs: FrozenTick<'a>,
    exchange: &'a ExchangeState,
    cfg: &'a DdPoliceConfig,
    mon: Mon<'a>,
    tracing: bool,
}

/// One judgment's effects on suspect-keyed shared state, logged by
/// [`judge_range`] in its range's serial order and replayed by
/// [`Defense::on_tick`] in ascending shard order. The replay is the only
/// place `exchanged_stamp` and the order-sensitive engine metrics are
/// touched, so "first observer pays the suspect's `k(k-1)` charge" resolves
/// the same however the observers were sharded.
struct Deferred {
    suspect: u32,
    /// Age of the snapshot judged on, for the snapshot-age quantile feed;
    /// `None` for a suspect that never announced a list.
    age: Option<Tick>,
    /// Group size: the suspect's first judgment this tick pays `k(k-1)`.
    k: u32,
    /// Bulk report-outcome tallies of the shared-sum step (the per-member
    /// step notes each lookup as it resolves it).
    fresh: u32,
    refused: u32,
}

/// Everything one [`judge_range`] call produced: the range's actions and
/// traces in serial order, plus what must be replayed on the shared state.
#[derive(Default)]
struct PartitionOutcome {
    actions: Actions,
    trace: Vec<JudgmentTrace>,
    deferred: Vec<Deferred>,
    /// The shard's edits to the suspect → observers index, see
    /// [`VerdictShard::into_index_edits`].
    index_edits: Vec<IndexEdit>,
}

/// Run every observer in `range` through its lifecycle clocks and judge each
/// of its over-warning neighbors. `shard` holds the range's verdict state
/// and `arena` is private to the call (cleared on entry); everything else is
/// read-only, so calls over disjoint ranges may run concurrently.
///
/// `per_member` selects how member answers become sums (see [`Group`]):
/// `None` adjusts the shared sums, `Some` resolves
/// every member's report through the full observation's transport. The
/// fault plane behind that observation is single-threaded state, so a
/// `Some` call must cover the whole observer range on the caller's thread.
fn judge_range(
    range: Range<usize>,
    mut shard: VerdictShard<'_>,
    arena: &mut GroupArena,
    ctx: TickCtx<'_>,
    per_member: Option<&TickObservation<'_>>,
) -> PartitionOutcome {
    let TickCtx { obs, exchange, cfg, mon, tracing } = ctx;
    arena.clear();
    let mut out = PartitionOutcome::default();
    let (mut reports, mut claims) = (Vec::new(), Vec::new());
    for i in range {
        if !obs.runs_defense[i] {
            continue;
        }
        let observer = NodeId::from_index(i);
        if cfg.suspect_ttl_ticks != u32::MAX {
            // Sweep before the lifecycle clocks: a probe about a suspect
            // that already left must be collected, not fired into a dead
            // slot (the recycled identity would inherit the probation).
            shard.expire_stale(observer, obs.tick, cfg.suspect_ttl_ticks, obs.online);
        }
        if cfg.readmission.enabled {
            // Lifecycle clocks first: probations that survived their
            // window readmit; quarantines whose backoff matured re-dial
            // (one control message per probe) and enter probation.
            shard.expire_probations(observer, obs.tick, &mut out.actions);
            let before = out.actions.reconnects.len();
            shard.fire_probes(observer, obs.tick, cfg.readmission, &mut out.actions);
            out.actions.control_msgs += (out.actions.reconnects.len() - before) as u64;
        }
        for (slot, &half) in obs.overlay.neighbors(observer).iter().enumerate() {
            let suspect = half.peer;
            // In_query(suspect) read through the reciprocal index
            // (receiver-side, duplicate-filtered) — or the sketch estimate
            // of the same directed edge.
            let q_ji = mon.flow(&obs, suspect, half.ridx as usize, observer);
            if q_ji <= cfg.warning_threshold_qpm {
                shard.below_warning(observer, suspect);
                continue;
            }
            let own = TrafficReport {
                sent_to_suspect: mon.flow(&obs, observer, slot, suspect),
                received_from_suspect: q_ji,
            };
            let (group, age) = match exchange.snapshot(observer, suspect) {
                Some(snap) => {
                    shard.note_list_ok(observer, suspect);
                    let group = arena.group(suspect, snap, &ctx);
                    (group, Some(obs.tick.saturating_sub(snap.taken_at)))
                }
                None => {
                    let streak = shard.note_list_missing(observer, suspect);
                    if streak < cfg.missing_list_grace {
                        continue; // wait for the first exchange
                    }
                    (NO_MEMBERS, None)
                }
            };
            // The observer polices the suspect because they share a link: it
            // is a member by construction even if the list omitted it. On a
            // fresh, truthful list it sits where the suspect's adjacency has
            // it, which the twin index names.
            let (members, answers) = (arena.members(group), arena.answers(group));
            let own_slot = match members.get(half.ridx as usize) {
                Some(&m) if m == observer => Some(half.ridx as usize),
                _ => members.iter().position(|&m| m == observer),
            };
            let k = members.len() + usize::from(own_slot.is_none());
            let (sum_out, sum_in, fresh, refused) = match per_member {
                None => group.shared_sums(answers, own, own_slot),
                Some(full) => {
                    reports.clear();
                    for (&m, &answer) in members.iter().zip(answers) {
                        if m == observer {
                            continue; // own counters are summed directly, no message
                        }
                        let retry_msgs = &mut out.actions.control_msgs;
                        let report =
                            resolve_report(cfg, full, observer, m, suspect, answer, retry_msgs);
                        reports.push(report.map(|mut r| {
                            if cfg.clamp_reports_to_link {
                                // No member can have pushed more into the
                                // suspect than the physical link allows;
                                // impossible claims are capped (the
                                // collusive-inflation hardening).
                                r.sent_to_suspect =
                                    r.sent_to_suspect.min(obs.overlay.link_capacity(m, suspect));
                            }
                            r
                        }));
                    }
                    let (sum_out, sum_in) =
                        aggregate_group_traffic_with(own, &reports, cfg.aggregation, &mut claims);
                    (sum_out, sum_in, 0, 0)
                }
            };
            out.deferred.push(Deferred { suspect: suspect.0, age, k: k as u32, fresh, refused });
            let (g, s, over_ct) = indicator::judge(own, sum_out, sum_in, k, cfg);
            if tracing {
                out.trace.push(JudgmentTrace { tick: obs.tick, observer, suspect, g, s });
            }
            if shard.judged(
                observer,
                suspect,
                over_ct,
                obs.tick,
                cfg.hysteresis,
                cfg.readmission,
                &mut out.actions,
            ) {
                out.actions.cut(observer, suspect);
            }
        }
    }
    out.index_edits = shard.into_index_edits();
    out
}

impl Defense for DdPolice {
    fn name(&self) -> &'static str {
        "dd-police"
    }

    fn monitor_backend(&self) -> Option<String> {
        // `None` under the exact default keeps summaries byte-identical to
        // pre-backend runs (the frozen differential digests depend on it).
        match self.cfg.monitor {
            MonitorBackend::Exact => None,
            MonitorBackend::Sketch(_) => Some(self.cfg.monitor.label()),
        }
    }

    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
        let t0 = Instant::now();
        actions.control_msgs +=
            self.exchange.on_tick_with_threads(self.cfg.exchange, obs, self.threads);
        let t1 = Instant::now();

        // Sketch backend: replay the frozen counters into this tick's window
        // before any judgment reads an estimate.
        self.sketch_ingest(obs);

        let n = obs.overlay.node_count();
        if self.exchanged_stamp.len() < n {
            self.exchanged_stamp.resize(n, 0);
        }
        self.verdicts.ensure_slots(n);
        let slots = self.verdicts.slot_count();

        // See `Group` for why the shared sums need all three.
        let shared = self.cfg.aggregation == AggregationPolicy::Sum
            && !self.cfg.clamp_reports_to_link
            && obs.faults.is_none_or(|f| f.config().is_inert());
        // Shard bounds over the verdict slots. The per-member step is one
        // whole-range shard at any width (see `judge_range`).
        let bounds = if shared && self.threads > 1 && n > 1 && slots == n {
            Partition::by_degree(obs.overlay.graph(), self.threads).boundaries().to_vec()
        } else {
            vec![0, slots]
        };
        let parts = bounds.len() - 1;
        if self.arenas.len() < parts {
            self.arenas.resize_with(parts, GroupArena::default);
        }
        let ctx = TickCtx {
            obs: obs.frozen(),
            exchange: &self.exchange,
            cfg: &self.cfg,
            mon: match &self.monitor {
                Some(m) => Mon::Sketch(m),
                None => Mon::Exact,
            },
            tracing: self.trace.is_some(),
        };
        let mut shards = self.verdicts.shards(&bounds);
        let outcomes: Vec<PartitionOutcome> = if shared {
            // One work cell per shard: its verdict state, its arena, and the
            // slot its outcome lands in.
            let mut cells: Vec<_> = shards
                .into_iter()
                .zip(&mut self.arenas)
                .map(|(shard, arena)| (Some(shard), arena, None))
                .collect();
            let cell_bounds: Vec<usize> = (0..=parts).collect();
            ddp_sim::pool::run_chunked(self.threads, &mut cells, &cell_bounds, |first, chunk| {
                for (p, (shard, arena, out)) in (first..).zip(chunk) {
                    let shard = shard.take().expect("each cell is judged once");
                    let range = bounds[p]..bounds[p + 1].min(n);
                    *out = Some(judge_range(range, shard, arena, ctx, None));
                }
            });
            cells.into_iter().map(|(_, _, out)| out.expect("every cell was judged")).collect()
        } else {
            let shard = shards.pop().expect("one whole-range shard");
            vec![judge_range(0..n, shard, &mut self.arenas[0], ctx, Some(obs))]
        };
        let t2 = Instant::now();
        for out in outcomes {
            self.verdicts.replay_index_edits(out.index_edits);
            for d in out.deferred {
                if let Some(age) = d.age {
                    obs.note_snapshot_age(age);
                }
                let stamp = &mut self.exchanged_stamp[d.suspect as usize];
                if *stamp != obs.tick {
                    *stamp = obs.tick;
                    let k = d.k as u64;
                    actions.control_msgs += k * k.saturating_sub(1);
                }
                obs.note_report_outcomes(ReportOutcome::Fresh, d.fresh as u64);
                obs.note_report_outcomes(ReportOutcome::Refused, d.refused as u64);
            }
            actions.cuts.extend(out.actions.cuts);
            actions.reconnects.extend(out.actions.reconnects);
            actions.transitions.extend(out.actions.transitions);
            actions.control_msgs += out.actions.control_msgs;
            if let Some(t) = self.trace.as_mut() {
                t.extend(out.trace);
            }
        }
        self.phases.ticks += 1;
        self.phases.exchange += t1 - t0;
        self.phases.judge += t2 - t1;
        self.phases.replay += t2.elapsed();
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    fn on_peer_reset(&mut self, node: NodeId) {
        self.exchange.reset_peer(node);
        self.verdicts.reset_observer(node);
    }

    fn on_peer_departed(&mut self, node: NodeId) {
        // The identity is gone for good (leave/crash, not a defensive cut):
        // both what the slot knew and what everyone knew *about* it must die
        // before the slot is recycled, or the next occupant inherits a
        // stranger's snapshots, grace streaks, and quarantine clocks.
        self.exchange.reset_peer(node);
        self.exchange.forget_about(node);
        self.verdicts.reset_observer(node);
        self.verdicts.forget_suspect(node);
    }

    fn on_nodes_grown(&mut self, n: usize) {
        self.exchange.ensure_slots(n);
        self.verdicts.ensure_slots(n);
        if self.exchanged_stamp.len() < n {
            self.exchanged_stamp.resize(n, 0);
        }
    }

    fn forbids_link(&self, u: NodeId, v: NodeId) -> bool {
        // Bootstrap rewiring must honor open quarantines/probations in both
        // directions — otherwise churn's self-healing immediately re-links
        // exactly the edges the defense just severed.
        self.verdicts.blocks_link(u, v) || self.verdicts.blocks_link(v, u)
    }

    fn on_edge_added(&mut self, _u: NodeId, _v: NodeId, deg_u: usize, deg_v: usize) {
        // Event-driven cost accounting uses the endpoints' *actual* degrees:
        // each endpoint re-announces its list to that many neighbors.
        self.exchange.on_adjacency_event(self.cfg.exchange, deg_u, deg_v);
    }

    fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        self.exchange.on_adjacency_event(self.cfg.exchange, deg_u, deg_v);
        self.exchange.forget_edge(u, v);
        // Watching/Probation state dies with the edge; a quarantine survives
        // its own cut (it owns the readmission clock).
        self.verdicts.forget_edge(u, v);
    }

    fn snapshot_support(&self) -> bool {
        true
    }

    fn save_state(&self, enc: &mut ddp_snapshot::Enc) {
        // The engine's context fingerprint covers `SimConfig` and the master
        // seed but knows nothing about the defense's own knobs: embed a
        // digest so resuming under a different `DdPoliceConfig` is refused
        // instead of silently diverging.
        enc.u64(ddp_snapshot::fnv1a64(format!("{:?}", self.cfg).as_bytes()));
        self.exchange.save_state(enc);
        self.verdicts.save_state(enc);
        enc.put(&self.exchanged_stamp);
        enc.bool(self.trace.is_some());
        // The config digest above pins `cfg.monitor`, so writer and reader
        // agree on whether this section exists and on its exact geometry.
        if let Some(m) = &self.monitor {
            ddp_snapshot::Snapshottable::save(m, enc);
        }
        // Deliberately absent: the `arenas` hold one tick's groups and are
        // cleared before the next tick reads them, `trace` contents are
        // drained each tick by the harness — at a tick boundary both are
        // stale/empty by construction — and `sketch_stats` is diagnostics
        // that never feeds back into detection.
    }

    fn restore_state(
        &mut self,
        dec: &mut ddp_snapshot::Dec<'_>,
    ) -> Result<(), ddp_snapshot::SnapshotError> {
        let expected = ddp_snapshot::fnv1a64(format!("{:?}", self.cfg).as_bytes());
        let found = dec.u64()?;
        if found != expected {
            return Err(ddp_snapshot::SnapshotError::ContextMismatch { expected, found });
        }
        self.exchange = ExchangeState::load_state(dec)?;
        self.verdicts = VerdictMachine::load_state(dec)?;
        self.exchanged_stamp = dec.get()?;
        let tracing = dec.bool()?;
        self.trace = if tracing { Some(Vec::new()) } else { None };
        if let Some(m) = self.monitor.as_mut() {
            m.restore_into(dec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_sim::{ReportBehavior, SimConfig, Simulation};
    use ddp_topology::{TopologyConfig, TopologyModel};

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            topology: TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } },
            churn: false,
            ..SimConfig::default()
        }
    }

    fn run_with_attackers(
        n: usize,
        attackers: &[u32],
        behavior: ReportBehavior,
        police_cfg: DdPoliceConfig,
        ticks: usize,
        seed: u64,
    ) -> ddp_sim::RunResult {
        let police = DdPolice::new(police_cfg, n);
        let mut sim = Simulation::new(cfg(n), police, seed);
        for &a in attackers {
            sim.make_attacker(NodeId(a), behavior);
        }
        sim.run(ticks)
    }

    #[test]
    fn attackers_are_cut_quickly() {
        let res = run_with_attackers(
            300,
            &[5, 77, 123],
            ReportBehavior::Honest,
            DdPoliceConfig::default(),
            8,
            42,
        );
        assert!(res.summary.attackers_cut > 0, "attackers must be disconnected");
        // All three were caught before the run ended.
        assert_eq!(
            res.summary.errors.false_positive, 0,
            "no attacker should survive: {:?}",
            res.summary.errors
        );
    }

    #[test]
    fn innocent_forwarders_are_mostly_spared() {
        let res = run_with_attackers(
            300,
            &[5, 77, 123],
            ReportBehavior::Honest,
            DdPoliceConfig::default(),
            8,
            42,
        );
        // Good peers forward enormous attack volumes; the Buddy Group
        // reports must exonerate (nearly) all of them.
        assert!(
            res.summary.errors.false_negative <= 3,
            "too many good peers cut: {:?}",
            res.summary.errors
        );
    }

    #[test]
    fn defense_restores_success_rate() {
        let no_def = {
            let mut sim = Simulation::new(cfg(300), ddp_sim::NoDefense, 9);
            for a in [5u32, 50, 100, 150, 200] {
                sim.make_attacker(NodeId(a), ReportBehavior::Honest);
            }
            sim.run(12)
        };
        let defended = run_with_attackers(
            300,
            &[5, 50, 100, 150, 200],
            ReportBehavior::Honest,
            DdPoliceConfig::default(),
            12,
            9,
        );
        assert!(
            defended.summary.success_rate_stable > no_def.summary.success_rate_stable + 0.1,
            "DD-POLICE should restore success: defended {} vs undefended {}",
            defended.summary.success_rate_stable,
            no_def.summary.success_rate_stable
        );
    }

    #[test]
    fn silent_attackers_are_still_caught() {
        let res = run_with_attackers(
            300,
            &[5, 77],
            ReportBehavior::Silent,
            DdPoliceConfig::default(),
            10,
            7,
        );
        assert!(res.summary.attackers_cut > 0, "silence must not shield the attacker");
        assert_eq!(res.summary.errors.false_positive, 0);
    }

    #[test]
    fn deflating_attackers_are_still_caught() {
        let res = run_with_attackers(
            300,
            &[5, 77],
            ReportBehavior::Deflate(0.02),
            DdPoliceConfig::default(),
            10,
            7,
        );
        assert!(res.summary.attackers_cut > 0);
        assert_eq!(res.summary.errors.false_positive, 0);
    }

    #[test]
    fn huge_cut_threshold_misses_attackers_slower() {
        let strict = run_with_attackers(
            200,
            &[5],
            ReportBehavior::Honest,
            DdPoliceConfig::with_cut_threshold(3.0),
            6,
            13,
        );
        let lax = run_with_attackers(
            200,
            &[5],
            ReportBehavior::Honest,
            DdPoliceConfig::with_cut_threshold(100_000.0),
            6,
            13,
        );
        assert!(strict.summary.attackers_cut >= lax.summary.attackers_cut);
    }

    #[test]
    fn control_overhead_is_accounted() {
        let res =
            run_with_attackers(200, &[5], ReportBehavior::Honest, DdPoliceConfig::default(), 6, 21);
        assert!(
            res.summary.control_per_tick > 0.0,
            "list exchange + Neighbor_Traffic must appear as control traffic"
        );
    }

    #[test]
    fn phase_times_cover_every_tick() {
        let mut sim = lifecycle_sim(200, 42);
        for _ in 0..3 {
            sim.step();
        }
        let phases = sim.defense().phase_times();
        assert_eq!(phases.ticks, 3);
        assert!(phases.exchange + phases.judge > std::time::Duration::ZERO);
    }

    #[test]
    fn defense_name_is_stable() {
        let p = DdPolice::new(DdPoliceConfig::default(), 10);
        assert_eq!(p.name(), "dd-police");
    }

    /// Police config exercising every piece of live verdict state: hysteresis
    /// histories, quarantine/probation clocks, and the TTL sweep.
    fn lifecycle_cfg() -> DdPoliceConfig {
        DdPoliceConfig {
            hysteresis: crate::verdict::Hysteresis { required: 2, window: 3 },
            readmission: crate::verdict::ReadmissionPolicy {
                enabled: true,
                base_backoff_ticks: 2,
                max_backoff_ticks: 16,
                probation_ticks: 2,
            },
            ..DdPoliceConfig::default()
        }
    }

    fn lifecycle_sim(n: usize, seed: u64) -> ddp_sim::Simulation<DdPolice> {
        let mut sim = Simulation::new(cfg(n), DdPolice::new(lifecycle_cfg(), n), seed);
        for a in [5u32, 77, 123] {
            sim.make_attacker(NodeId(a), ReportBehavior::Honest);
        }
        sim
    }

    #[test]
    fn dd_police_snapshot_resume_is_tick_for_tick_identical() {
        let mut reference = lifecycle_sim(200, 42);
        for _ in 0..12 {
            reference.step();
        }

        // Snapshot at tick 5: with a 2-tick backoff and 2-of-3 hysteresis the
        // machines hold Watching histories and live quarantine/probation
        // clocks mid-lifecycle right here.
        let mut writer = lifecycle_sim(200, 42);
        for _ in 0..5 {
            writer.step();
        }
        let bytes = writer.save_snapshot().unwrap();
        let mut resumed = lifecycle_sim(200, 42);
        resumed.restore_snapshot(&bytes).unwrap();

        // Internal defense state must round-trip exactly, compared through
        // the canonical enumerations.
        let (a, b) = (writer.defense(), resumed.defense());
        assert_eq!(a.exchange().all_snapshots(), b.exchange().all_snapshots());
        for i in 0..200 {
            assert_eq!(a.verdicts().entries_of(NodeId(i)), b.verdicts().entries_of(NodeId(i)));
        }

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
    fn parallel_fast_path_is_tick_for_tick_identical_to_serial() {
        // Full lifecycle config (hysteresis + readmission + TTL default) so
        // probes, probations, and cuts all cross the reduction. Compare the
        // per-tick state hash, the drained judgment traces, and the final
        // results at several worker widths against the serial run.
        let serial = {
            let mut sim = lifecycle_sim(200, 42);
            sim.defense_mut().set_tracing(true);
            sim.enable_hash_trace();
            let mut traces = Vec::new();
            for _ in 0..12 {
                sim.step();
                traces.push(sim.defense_mut().take_trace());
            }
            (sim.hash_trace().to_vec(), traces, sim.finish())
        };
        for threads in [2usize, 3, 4, 8] {
            let mut sim = lifecycle_sim(200, 42);
            sim.defense_mut().set_tracing(true);
            sim.enable_hash_trace();
            sim.set_threads(threads);
            let mut traces = Vec::new();
            for _ in 0..12 {
                sim.step();
                traces.push(sim.defense_mut().take_trace());
            }
            assert_eq!(serial.0, sim.hash_trace(), "state hash diverged at threads={threads}");
            assert_eq!(serial.1, traces, "judgment trace diverged at threads={threads}");
            let res = sim.finish();
            assert_eq!(serial.2.series, res.series, "series diverged at threads={threads}");
            assert_eq!(serial.2.summary, res.summary);
            assert_eq!(serial.2.cut_log, res.cut_log);
        }
    }

    #[test]
    fn restore_refuses_an_exchange_member_outside_the_slot_range() {
        let mut writer = lifecycle_sim(200, 42);
        writer.step();
        let bytes = writer.save_snapshot().unwrap();
        let memory = std::path::Path::new("<memory>");
        let (context, mut payload) = ddp_snapshot::decode_container(&bytes, memory).unwrap();
        // Peer 0's announcement as its receivers store it: announcer id,
        // member count, members. Point its first member past the last slot.
        let members = writer.overlay().neighbors(NodeId(0));
        let mut stored = ddp_snapshot::Enc::new();
        stored.u32(0);
        stored.usize(members.len());
        for h in members {
            stored.u32(h.peer.0);
        }
        let stored = stored.into_bytes();
        let at = payload.windows(stored.len()).position(|w| *w == stored[..]).unwrap();
        let first = at + stored.len() - 4 * members.len();
        payload[first..first + 4].copy_from_slice(&200u32.to_le_bytes());
        let hostile = ddp_snapshot::encode_container(context, &payload);
        match lifecycle_sim(200, 42).restore_snapshot(&hostile) {
            Err(ddp_snapshot::SnapshotError::Corrupt { what }) => {
                assert_eq!(what, "exchange snapshot member")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_the_earlier_payload_layout() {
        // Earlier builds wrote more fields under the same format version.
        // Rebuild each earlier layout from a current payload: restore must
        // refuse it with a typed error. `edit` gets the payload and the
        // length of the monitor's state, which ends it.
        type Edit = fn(&mut Vec<u8>, usize);
        // A bool just before the tracing flag and, with the sketch monitor,
        // a u32 after the monitor's state.
        let flag_and_u32: Edit = |payload, monitor| {
            payload.insert(payload.len() - monitor - 1, 0);
            if monitor > 0 {
                payload.extend_from_slice(&0u32.to_le_bytes());
            }
        };
        // The sketch monitor's heavy-hitter table: an entry count (zero
        // here) just before the ingest tally, the monitor's last field.
        let heavy_hitters: Edit = |payload, _| {
            let items_tick = payload.len() - 8;
            payload.splice(items_tick..items_tick, 0u64.to_le_bytes());
        };
        let sketch = DdPoliceConfig {
            monitor: MonitorBackend::Sketch(ddp_sketch::SketchParams {
                width_log2: 8,
                depth: 3,
                ..Default::default()
            }),
            ..lifecycle_cfg()
        };
        for (police, edit, expected) in [
            (lifecycle_cfg(), flag_and_u32, "trailing bytes"),
            (sketch, flag_and_u32, "vec length"),
            (sketch, heavy_hitters, "trailing bytes"),
        ] {
            let sim = || {
                let mut sim = Simulation::new(cfg(200), DdPolice::new(police, 200), 42);
                for a in [5u32, 77, 123] {
                    sim.make_attacker(NodeId(a), ReportBehavior::Honest);
                }
                sim
            };
            let mut writer = sim();
            writer.step();
            let memory = std::path::Path::new("<memory>");
            let bytes = writer.save_snapshot().unwrap();
            let (context, mut payload) = ddp_snapshot::decode_container(&bytes, memory).unwrap();
            let mut monitor = ddp_snapshot::Enc::new();
            if let Some(m) = writer.defense().sketch_monitor() {
                ddp_snapshot::Snapshottable::save(m, &mut monitor);
            }
            edit(&mut payload, monitor.bytes().len());
            let old = ddp_snapshot::encode_container(context, &payload);
            match sim().restore_snapshot(&old) {
                Err(ddp_snapshot::SnapshotError::Corrupt { what }) => assert_eq!(what, expected),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn dd_police_snapshot_rejects_changed_police_config() {
        let mut writer = lifecycle_sim(200, 42);
        writer.step();
        let bytes = writer.save_snapshot().unwrap();
        // Same SimConfig and seed, different DdPoliceConfig: the defense's
        // embedded config digest must refuse the restore.
        let mut other = Simulation::new(
            cfg(200),
            DdPolice::new(DdPoliceConfig::with_cut_threshold(9.0), 200),
            42,
        );
        for a in [5u32, 77, 123] {
            other.make_attacker(NodeId(a), ReportBehavior::Honest);
        }
        match other.restore_snapshot(&bytes) {
            Err(ddp_snapshot::SnapshotError::ContextMismatch { .. }) => {}
            other => panic!("expected ContextMismatch, got {other:?}"),
        }
    }
}
