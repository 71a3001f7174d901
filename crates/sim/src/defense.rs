//! The defense plug-in interface.
//!
//! A defense is a *distributed detection protocol simulated centrally*: after
//! each tick it may inspect any peer's local view (its own per-neighbor
//! counters) and request reports from other peers — which go through the
//! suspect peers' [`ReportBehavior`], so lying attackers (§3.4) distort
//! exactly what they could distort in a real deployment — and then requests
//! disconnections. The engine applies them and keeps ground-truth error
//! statistics.

use crate::faults::{FaultPlane, ReportOutcome};
use crate::node::{ListBehavior, ReportBehavior};
use crate::overlay::Overlay;
use crate::Tick;
use ddp_metrics::VerdictTransition;
use ddp_topology::NodeId;

/// What one peer claims about its traffic with a suspect, in queries/min.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficReport {
    /// Claimed `Out_query(suspect)`: queries the reporter sent to the suspect.
    pub sent_to_suspect: u32,
    /// Claimed `In_query(suspect)`: queries the reporter got from the suspect.
    pub received_from_suspect: u32,
}

impl ddp_snapshot::Snapshottable for TrafficReport {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        enc.u32(self.sent_to_suspect);
        enc.u32(self.received_from_suspect);
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(TrafficReport { sent_to_suspect: dec.u32()?, received_from_suspect: dec.u32()? })
    }
}

/// Read-only view of one finished tick.
pub struct TickObservation<'a> {
    /// The tick that just completed.
    pub tick: Tick,
    /// The overlay with this tick's per-directed-edge counters.
    pub overlay: &'a Overlay,
    /// Per-node online flags.
    pub online: &'a [bool],
    /// Per-node "runs the detection protocol" flags (attackers do not).
    pub runs_defense: &'a [bool],
    /// Per-node report behavior (honest for good peers).
    pub report_behavior: &'a [ReportBehavior],
    /// Per-node neighbor-list exchange behavior (truthful for good peers).
    pub list_behavior: &'a [ListBehavior],
    /// Control-plane transport. `None` means the paper's reliable same-tick
    /// delivery; `Some` routes every protocol message through the fault
    /// plane's loss/delay decisions and mailboxes.
    pub faults: Option<&'a FaultPlane>,
}

/// The [`Sync`] slice of a [`TickObservation`]: everything about the frozen
/// tick *except* the fault plane (whose interior mutability pins it to one
/// thread). Every answer here is a pure function of the tick's frozen
/// counters, so worker threads of the parallel tick engine may consult it
/// concurrently and must get byte-identical answers to the serial path —
/// the `TickObservation` methods of the same name are thin delegates.
#[derive(Clone, Copy)]
pub struct FrozenTick<'a> {
    /// The tick that just completed.
    pub tick: Tick,
    /// The overlay with this tick's per-directed-edge counters.
    pub overlay: &'a Overlay,
    /// Per-node online flags.
    pub online: &'a [bool],
    /// Per-node "runs the detection protocol" flags (attackers do not).
    pub runs_defense: &'a [bool],
    /// Per-node report behavior (honest for good peers).
    pub report_behavior: &'a [ReportBehavior],
    /// Per-node neighbor-list exchange behavior (truthful for good peers).
    pub list_behavior: &'a [ListBehavior],
}

impl<'a> FrozenTick<'a> {
    /// Ask `reporter` for a `Neighbor_Traffic` report about `suspect`
    /// (§3.3). Returns `None` when the reporter refuses ("if a peer has not
    /// received a Neighbor_Traffic message ... within a predefined time
    /// period, it just assumes that peer j sent 0 query") or is offline /
    /// not connected to the suspect.
    ///
    /// A lying reporter distorts the count of queries *it sent to the
    /// suspect* — that is the field whose misreporting §3.4 analyzes (it
    /// shifts blame between the suspect and the suspect's neighbors).
    pub fn request_report(&self, reporter: NodeId, suspect: NodeId) -> Option<TrafficReport> {
        if !self.overlay.contains_edge(reporter, suspect) {
            return None;
        }
        let base = TrafficReport {
            sent_to_suspect: self.overlay.accepted_between(reporter, suspect),
            received_from_suspect: self.overlay.accepted_between(suspect, reporter),
        };
        self.shape_neighbor_report(reporter, suspect, base)
    }

    /// Apply `reporter`'s fixed report behavior to `base` counters: the
    /// cheating/collusion layer of [`request_report`](Self::request_report),
    /// split out so approximate `TrafficMonitor` backends can substitute
    /// sketch estimates for the exact counters while attackers keep lying
    /// about whatever numbers the monitor would have shown them.
    pub fn shape_report(
        &self,
        reporter: NodeId,
        suspect: NodeId,
        base: TrafficReport,
    ) -> Option<TrafficReport> {
        if !self.overlay.contains_edge(reporter, suspect) {
            return None;
        }
        self.shape_neighbor_report(reporter, suspect, base)
    }

    /// [`shape_report`](Self::shape_report) for a caller that already knows
    /// `reporter` and `suspect` share a link (it found one in the other's
    /// adjacency), sparing the scan that would establish it again.
    pub fn shape_neighbor_report(
        &self,
        reporter: NodeId,
        suspect: NodeId,
        base: TrafficReport,
    ) -> Option<TrafficReport> {
        if !self.online[reporter.index()] {
            return None;
        }
        let true_sent = base.sent_to_suspect;
        let true_recv = base.received_from_suspect;
        match self.report_behavior[reporter.index()] {
            ReportBehavior::Honest => {
                Some(TrafficReport { sent_to_suspect: true_sent, received_from_suspect: true_recv })
            }
            ReportBehavior::Inflate(f) => Some(TrafficReport {
                sent_to_suspect: scale(true_sent, f),
                received_from_suspect: true_recv,
            }),
            ReportBehavior::Deflate(f) => Some(TrafficReport {
                sent_to_suspect: scale(true_sent, f),
                received_from_suspect: true_recv,
            }),
            ReportBehavior::Silent => None,
            ReportBehavior::ShieldColluders { factor } => {
                // Colluders recognize each other by sharing the coalition's
                // behavior; they hide a fellow colluder's output and answer
                // honestly about everyone else (a credible witness).
                let fellow = matches!(
                    self.report_behavior[suspect.index()],
                    ReportBehavior::ShieldColluders { .. }
                );
                Some(TrafficReport {
                    sent_to_suspect: true_sent,
                    received_from_suspect: if fellow {
                        scale(true_recv, factor)
                    } else {
                        true_recv
                    },
                })
            }
            ReportBehavior::FrameVictim { victim, inflate } => Some(TrafficReport {
                sent_to_suspect: true_sent,
                received_from_suspect: if suspect == victim {
                    scale(true_recv, inflate)
                } else {
                    true_recv
                },
            }),
        }
    }

    /// Write the neighbor list `announcer` sends during the exchange step
    /// (§3.1) into `list` (cleared first); `false` if it refuses. Good peers
    /// announce the truth; a lying peer pads, hides, or withholds. Phantom
    /// entries for `PadFake` are drawn deterministically from the node-id
    /// space (plausible peer addresses that simply are not the announcer's
    /// neighbors).
    pub fn announced_list_into(&self, announcer: NodeId, list: &mut Vec<NodeId>) -> bool {
        list.clear();
        if !self.online[announcer.index()] {
            return false;
        }
        let truth = |list: &mut Vec<NodeId>| {
            list.extend(self.overlay.neighbors(announcer).iter().map(|h| h.peer));
        };
        match self.list_behavior[announcer.index()] {
            ListBehavior::Truthful => truth(list),
            ListBehavior::Omit => {}
            ListBehavior::Refuse => return false,
            ListBehavior::PadFake { extra } => {
                truth(list);
                let n = self.overlay.node_count() as u64;
                let mut x = ((announcer.0 as u64) << 32) ^ (self.tick as u64) ^ 0x5eed;
                for _ in 0..extra {
                    // SplitMix-style stream of plausible phantom members.
                    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                    let mut z = x;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z ^= z >> 27;
                    let candidate = NodeId((z % n) as u32);
                    if candidate != announcer && !list.contains(&candidate) {
                        list.push(candidate);
                    }
                }
            }
        }
        true
    }

    /// [`announced_list_into`](Self::announced_list_into) into a list of its
    /// own, `None` for a refusal.
    pub fn announced_list(&self, announcer: NodeId) -> Option<Vec<NodeId>> {
        let mut list = Vec::new();
        self.announced_list_into(announcer, &mut list).then_some(list)
    }

    /// §3.1's consistency check: ask `member` whether it really is a
    /// neighbor of `suspect`. Good peers answer truthfully; a compromised
    /// member vouches for a fellow attacker's claim (colluding puppets), and
    /// otherwise tells the truth (lying here about a good peer would expose
    /// the attacker to the paired-disconnect rule for no gain).
    pub fn confirm_membership(&self, member: NodeId, suspect: NodeId) -> bool {
        if !self.online[member.index()] {
            return false;
        }
        let truth = self.overlay.contains_edge(member, suspect);
        let member_lies = !matches!(self.report_behavior[member.index()], ReportBehavior::Honest);
        let suspect_lies = !matches!(self.list_behavior[suspect.index()], ListBehavior::Truthful);
        if member_lies && suspect_lies {
            return true; // collusion: the puppet confirms the padded claim
        }
        truth
    }
}

/// Outcome of one transport-mediated `Neighbor_Traffic` round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportDelivery {
    /// The report arrived this tick.
    Fresh(TrafficReport),
    /// The reporter refused (offline, disconnected, or deliberately silent).
    /// The paper's assume-zero rule applies; retrying cannot help.
    Refused,
    /// The transport lost the request or the reply (or delayed the reply —
    /// it may surface later via [`TickObservation::stale_report`]). A retry
    /// with a higher attempt number may get through.
    Faulted,
}

impl<'a> TickObservation<'a> {
    /// The fault-free, [`Sync`] slice of this observation, shareable across
    /// the parallel tick engine's workers.
    pub fn frozen(&self) -> FrozenTick<'a> {
        FrozenTick {
            tick: self.tick,
            overlay: self.overlay,
            online: self.online,
            runs_defense: self.runs_defense,
            report_behavior: self.report_behavior,
            list_behavior: self.list_behavior,
        }
    }

    /// Route `reporter`'s answer about `suspect` (`None` = it refuses) to
    /// `requester` through the fault plane; `attempt` numbers this tick's
    /// retries so re-requests re-roll the transport dice.
    ///
    /// What the *reporter would say* is decided first — a refusal is a
    /// protocol-level answer and is reported as [`ReportDelivery::Refused`]
    /// whether or not the transport would also have failed, so fault-free and
    /// faulted runs agree exactly on which peers were silent. The answer
    /// depends only on `(reporter, suspect)` and the tick's frozen counters,
    /// so a caller resolving the same pair for many observers computes it
    /// once and replays it here; the per-requester fault dice still roll per
    /// call.
    pub fn deliver_prepared_report(
        &self,
        requester: NodeId,
        reporter: NodeId,
        suspect: NodeId,
        report: Option<TrafficReport>,
        attempt: u32,
    ) -> ReportDelivery {
        let Some(report) = report else {
            return ReportDelivery::Refused;
        };
        let Some(fp) = self.faults else {
            return ReportDelivery::Fresh(report);
        };
        if fp.request_lost(self.tick, requester, reporter, attempt) {
            return ReportDelivery::Faulted;
        }
        match fp.deliver_reply(self.tick, requester, reporter, suspect, report, attempt) {
            Some(r) => ReportDelivery::Fresh(r),
            None => ReportDelivery::Faulted,
        }
    }

    /// The newest matured *late* reply for (requester, reporter, suspect)
    /// from an earlier tick's faulted round trip, with its send tick.
    /// Consuming: a stale report answers at most one lookup.
    pub fn stale_report(
        &self,
        requester: NodeId,
        reporter: NodeId,
        suspect: NodeId,
    ) -> Option<(TrafficReport, Tick)> {
        self.faults?.take_stale_report(self.tick, requester, reporter, suspect)
    }

    /// Send one copy of `announcer`'s neighbor list to `receiver` through
    /// the transport: whether it arrives this tick. Otherwise the copy was
    /// lost or delayed (a delayed copy surfaces later via
    /// [`all_matured_lists`](Self::all_matured_lists)).
    pub fn list_arrives(&self, announcer: NodeId, receiver: NodeId, members: &[NodeId]) -> bool {
        self.faults.is_none_or(|fp| fp.list_arrives(self.tick, announcer, receiver, members))
    }

    /// [`list_arrives`](Self::list_arrives), handing back the delivered copy.
    pub fn transmit_list(
        &self,
        announcer: NodeId,
        receiver: NodeId,
        members: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        self.list_arrives(announcer, receiver, members).then(|| members.to_vec())
    }

    /// Drain every late list announcement that matured for `receiver`:
    /// `(announcer, members, sent_at)` in send order.
    pub fn matured_lists(&self, receiver: NodeId) -> Vec<(NodeId, Vec<NodeId>, Tick)> {
        match self.faults {
            Some(fp) => fp.take_matured_lists(self.tick, receiver),
            None => Vec::new(),
        }
    }

    /// Drain every late list announcement that matured this tick, for all
    /// receivers at once: `(receiver, announcer, members, sent_at)`, ascending
    /// receiver and send order within one — the order calling
    /// [`matured_lists`](Self::matured_lists) for receivers `0, 1, 2, …`
    /// yields.
    pub fn all_matured_lists(&self) -> Vec<(NodeId, NodeId, Vec<NodeId>, Tick)> {
        match self.faults {
            Some(fp) => fp.take_all_matured_lists(self.tick),
            None => Vec::new(),
        }
    }

    /// Resilience accounting: how one report lookup was resolved. No-op on a
    /// reliable transport.
    pub fn note_report_outcome(&self, outcome: ReportOutcome) {
        if let Some(fp) = self.faults {
            fp.note_report_outcome(outcome);
        }
    }

    /// Bulk form of [`note_report_outcome`](Self::note_report_outcome): `n`
    /// lookups that all resolved the same way. Counter sums are
    /// order-independent, so batching is exactly equivalent to `n` single
    /// notes.
    pub fn note_report_outcomes(&self, outcome: ReportOutcome, n: u64) {
        if let Some(fp) = self.faults {
            fp.note_report_outcomes(outcome, n);
        }
    }

    /// Resilience accounting: a matured late list was actually applied.
    pub fn note_late_list_applied(&self) {
        if let Some(fp) = self.faults {
            fp.note_late_list_applied();
        }
    }

    /// Resilience accounting: retries spent on one suspect's report round.
    pub fn note_retries(&self, n: u64) {
        if let Some(fp) = self.faults {
            fp.note_retries(n);
        }
    }

    /// Resilience accounting: age (ticks) of the membership snapshot behind
    /// one Buddy-Group judgment.
    pub fn note_snapshot_age(&self, age: Tick) {
        if let Some(fp) = self.faults {
            fp.note_snapshot_age(age);
        }
    }
}

fn scale(v: u32, f: f64) -> u32 {
    (v as f64 * f).round().clamp(0.0, u32::MAX as f64) as u32
}

/// Disconnection requests and control-message accounting for one tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Actions {
    /// `(observer, suspect)` pairs: observer cuts its link to suspect.
    pub cuts: Vec<(NodeId, NodeId)>,
    /// `(observer, suspect)` pairs: observer re-dials a quarantined suspect
    /// for a probationary readmission probe. Applied after cuts; ignored if
    /// either endpoint is offline.
    pub reconnects: Vec<(NodeId, NodeId)>,
    /// Verdict-lifecycle state changes decided this tick, for the engine's
    /// ledger. Defenses without a verdict machine leave this empty.
    pub transitions: Vec<VerdictTransition>,
    /// Control messages the defense exchanged this tick (neighbor lists,
    /// Neighbor_Traffic, BG pings) — feeds traffic-cost accounting.
    pub control_msgs: u64,
}

impl Actions {
    /// Request that `observer` disconnect from `suspect`.
    pub fn cut(&mut self, observer: NodeId, suspect: NodeId) {
        self.cuts.push((observer, suspect));
    }

    /// Request that `observer` re-dial `suspect` for a readmission probe.
    pub fn reconnect(&mut self, observer: NodeId, suspect: NodeId) {
        self.reconnects.push((observer, suspect));
    }

    /// Record a verdict-lifecycle transition in the ledger.
    pub fn transition(&mut self, t: VerdictTransition) {
        self.transitions.push(t);
    }
}

/// A pluggable detection/defense protocol.
pub trait Defense {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Inspect the finished tick and request actions.
    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions);

    /// The engine's worker-pool width changed. A defense that shards its
    /// per-observer work may honor it; the contract is that any `threads`
    /// value must produce byte-identical observable behavior (actions,
    /// snapshot payload, traces) to `threads == 1`. The default ignores it.
    fn set_parallelism(&mut self, _threads: usize) {}

    /// A slot left and rejoined as a brand-new peer: drop remembered state.
    fn on_peer_reset(&mut self, _node: NodeId) {}

    /// The engine added an overlay connection (join or attacker rejoin).
    /// `deg_u` / `deg_v` are the endpoints' overlay degrees *after* the
    /// addition — an event-driven exchange announces to exactly that many
    /// neighbors, so cost accounting can use the real fan-out.
    fn on_edge_added(&mut self, _u: NodeId, _v: NodeId, _deg_u: usize, _deg_v: usize) {}

    /// The engine removed an overlay connection (departure or cut).
    /// `deg_u` / `deg_v` are the endpoints' degrees *after* the removal.
    fn on_edge_removed(&mut self, _u: NodeId, _v: NodeId, _deg_u: usize, _deg_v: usize) {}

    /// A peer left the overlay for good (session-model graceful departure,
    /// or its slot is being recycled for a newcomer). Unlike
    /// [`on_peer_reset`](Self::on_peer_reset) — which clears what the *slot
    /// itself* remembers — this must drop state *about* the departed
    /// identity held anywhere in the defense, so a future occupant of the
    /// same address inherits no counters, views, or verdicts.
    fn on_peer_departed(&mut self, _node: NodeId) {}

    /// The engine grew the overlay to `n` node slots (session-model joins or
    /// whitewash rebirths). Per-node defense state must be extended before
    /// any other hook references the new ids.
    fn on_nodes_grown(&mut self, _n: usize) {}

    /// Whether the self-healing rewiring may NOT connect `u` and `v`: true
    /// when either endpoint holds a live quarantine/probation verdict about
    /// the other. The session-model bootstrap dialing consults this so churn
    /// repair cannot silently undo a defensive cut.
    fn forbids_link(&self, _u: NodeId, _v: NodeId) -> bool {
        false
    }

    /// Which traffic-monitor backend the defense reads its per-neighbor
    /// query counts from, as a stable label for run summaries and BENCH
    /// rows — `None` for defenses without pluggable monitoring (rendered as
    /// the exact default). The engine stamps it on `RunSummary`.
    fn monitor_backend(&self) -> Option<String> {
        None
    }

    /// Whether this defense implements [`save_state`](Self::save_state) /
    /// [`restore_state`](Self::restore_state). The engine refuses to write a
    /// snapshot around a defense that cannot come back — a half-checkpointed
    /// engine would silently diverge on resume.
    fn snapshot_support(&self) -> bool {
        false
    }

    /// Append every piece of cross-tick defense state to the snapshot
    /// payload. Only called when [`snapshot_support`](Self::snapshot_support)
    /// is true.
    fn save_state(&self, _enc: &mut ddp_snapshot::Enc) {}

    /// Rebuild cross-tick defense state from a snapshot payload written by
    /// [`save_state`](Self::save_state). Must reject corrupt bytes with a
    /// typed error, never a panic.
    fn restore_state(
        &mut self,
        _dec: &mut ddp_snapshot::Dec<'_>,
    ) -> Result<(), ddp_snapshot::SnapshotError> {
        Err(ddp_snapshot::SnapshotError::Unsupported {
            what: "this defense implements no snapshot state",
        })
    }
}

impl<D: Defense + ?Sized> Defense for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
        (**self).on_tick(obs, actions)
    }
    fn set_parallelism(&mut self, threads: usize) {
        (**self).set_parallelism(threads)
    }
    fn on_peer_reset(&mut self, node: NodeId) {
        (**self).on_peer_reset(node)
    }
    fn on_edge_added(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        (**self).on_edge_added(u, v, deg_u, deg_v)
    }
    fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        (**self).on_edge_removed(u, v, deg_u, deg_v)
    }
    fn on_peer_departed(&mut self, node: NodeId) {
        (**self).on_peer_departed(node)
    }
    fn on_nodes_grown(&mut self, n: usize) {
        (**self).on_nodes_grown(n)
    }
    fn forbids_link(&self, u: NodeId, v: NodeId) -> bool {
        (**self).forbids_link(u, v)
    }
    fn monitor_backend(&self) -> Option<String> {
        (**self).monitor_backend()
    }
    fn snapshot_support(&self) -> bool {
        (**self).snapshot_support()
    }
    fn save_state(&self, enc: &mut ddp_snapshot::Enc) {
        (**self).save_state(enc)
    }
    fn restore_state(
        &mut self,
        dec: &mut ddp_snapshot::Dec<'_>,
    ) -> Result<(), ddp_snapshot::SnapshotError> {
        (**self).restore_state(dec)
    }
}

/// The undefended baseline: observes nothing, cuts nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDefense;

impl Defense for NoDefense {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_tick(&mut self, _obs: &TickObservation<'_>, _actions: &mut Actions) {}

    /// Stateless: snapshotting is trivially supported with an empty payload.
    fn snapshot_support(&self) -> bool {
        true
    }

    fn restore_state(
        &mut self,
        _dec: &mut ddp_snapshot::Dec<'_>,
    ) -> Result<(), ddp_snapshot::SnapshotError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_topology::DynamicGraph;
    use ddp_workload::BandwidthClass;

    fn setup() -> (Overlay, Vec<bool>, Vec<bool>) {
        let mut g = DynamicGraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let mut o = Overlay::new(g, &[BandwidthClass::Ethernet; 3]);
        let s01 = o.graph().slot_of(NodeId(0), NodeId(1)).unwrap();
        o.record_send(NodeId(0), s01, 100);
        o.record_accept(NodeId(0), s01, 100);
        let s10 = o.graph().slot_of(NodeId(1), NodeId(0)).unwrap();
        o.record_send(NodeId(1), s10, 7);
        o.record_accept(NodeId(1), s10, 7);
        (o, vec![true; 3], vec![true; 3])
    }

    const TRUTHFUL: &[ListBehavior] = &[ListBehavior::Truthful; 8];

    fn obs<'a>(
        overlay: &'a Overlay,
        online: &'a [bool],
        runs: &'a [bool],
        behavior: &'a [ReportBehavior],
    ) -> TickObservation<'a> {
        TickObservation {
            tick: 1,
            overlay,
            online,
            runs_defense: runs,
            report_behavior: behavior,
            list_behavior: &TRUTHFUL[..overlay.node_count()],
            faults: None,
        }
    }

    #[test]
    fn honest_report_matches_counters() {
        let (o, online, runs) = setup();
        let behavior = vec![ReportBehavior::Honest; 3];
        let fr = obs(&o, &online, &runs, &behavior).frozen();
        let r = fr.request_report(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(r.sent_to_suspect, 100);
        assert_eq!(r.received_from_suspect, 7);
    }

    #[test]
    fn silent_reporter_returns_none() {
        let (o, online, runs) = setup();
        let behavior = vec![ReportBehavior::Silent, ReportBehavior::Honest, ReportBehavior::Honest];
        let fr = obs(&o, &online, &runs, &behavior).frozen();
        assert!(fr.request_report(NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn inflate_and_deflate_scale_sent_count() {
        let (o, online, runs) = setup();
        let behavior =
            vec![ReportBehavior::Inflate(2.0), ReportBehavior::Honest, ReportBehavior::Honest];
        let fr = obs(&o, &online, &runs, &behavior).frozen();
        assert_eq!(fr.request_report(NodeId(0), NodeId(1)).unwrap().sent_to_suspect, 200);

        let behavior =
            vec![ReportBehavior::Deflate(0.1), ReportBehavior::Honest, ReportBehavior::Honest];
        let fr = obs(&o, &online, &runs, &behavior).frozen();
        assert_eq!(fr.request_report(NodeId(0), NodeId(1)).unwrap().sent_to_suspect, 10);
    }

    #[test]
    fn unconnected_or_offline_reporters_refuse() {
        let (o, mut online, runs) = setup();
        let behavior = vec![ReportBehavior::Honest; 3];
        {
            let fr = obs(&o, &online, &runs, &behavior).frozen();
            assert!(fr.request_report(NodeId(0), NodeId(2)).is_none(), "not neighbors");
        }
        online[0] = false;
        let fr = obs(&o, &online, &runs, &behavior).frozen();
        assert!(fr.request_report(NodeId(0), NodeId(1)).is_none(), "offline");
    }

    #[test]
    fn reliable_transport_mediation_matches_direct_access() {
        let (o, online, runs) = setup();
        let behavior = vec![ReportBehavior::Honest; 3];
        let ob = obs(&o, &online, &runs, &behavior);
        let via = |requester, reporter, suspect| {
            let answer = ob.frozen().request_report(reporter, suspect);
            ob.deliver_prepared_report(requester, reporter, suspect, answer, 0)
        };
        // Fresh delivery equals the unmediated oracle.
        assert_eq!(
            via(NodeId(2), NodeId(0), NodeId(1)),
            ReportDelivery::Fresh(ob.frozen().request_report(NodeId(0), NodeId(1)).unwrap())
        );
        // A non-neighbor refuses — that is protocol, not transport.
        assert_eq!(via(NodeId(1), NodeId(0), NodeId(2)), ReportDelivery::Refused);
        // Lists pass through verbatim; no mail ever matures.
        let members = [NodeId(5), NodeId(6)];
        assert_eq!(ob.transmit_list(NodeId(0), NodeId(1), &members).unwrap(), members);
        assert!(ob.matured_lists(NodeId(1)).is_empty());
        assert!(ob.stale_report(NodeId(0), NodeId(1), NodeId(2)).is_none());
    }

    #[test]
    fn faulted_transport_mediation_reports_transport_failures() {
        use crate::faults::{FaultConfig, FaultPlane};
        let (o, online, runs) = setup();
        let behavior = vec![ReportBehavior::Honest; 3];
        let plane = FaultPlane::new(FaultConfig { loss: 1.0, ..FaultConfig::default() }, 7);
        let mut ob = obs(&o, &online, &runs, &behavior);
        ob.faults = Some(&plane);
        let via = |requester, reporter, suspect| {
            let answer = ob.frozen().request_report(reporter, suspect);
            ob.deliver_prepared_report(requester, reporter, suspect, answer, 0)
        };
        // Total loss: every answerable lookup comes back Faulted, but a
        // refusal is still Refused — the oracle answers before the transport.
        assert_eq!(via(NodeId(2), NodeId(0), NodeId(1)), ReportDelivery::Faulted);
        assert_eq!(via(NodeId(1), NodeId(0), NodeId(2)), ReportDelivery::Refused);
        assert!(ob.transmit_list(NodeId(0), NodeId(1), &[NodeId(5)]).is_none());
    }

    #[test]
    fn frozen_view_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<FrozenTick<'static>>();
    }

    #[test]
    fn actions_collects_cuts() {
        let mut a = Actions::default();
        a.cut(NodeId(1), NodeId(2));
        a.control_msgs += 5;
        assert_eq!(a.cuts, vec![(NodeId(1), NodeId(2))]);
        assert_eq!(a.control_msgs, 5);
    }
}
