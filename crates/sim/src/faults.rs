//! Fault injection for DD-POLICE's control plane.
//!
//! The paper's protocol is specified over a reliable same-tick transport:
//! every `Neighbor_Traffic` report and neighbor-list announcement either
//! arrives within the minute or the peer is assumed silent. Real overlays
//! lose and delay control messages, and peers restart and forget protocol
//! state. The [`FaultPlane`] injects exactly those failures — per-message
//! loss, per-message delay, and per-peer crash-restart — **deterministically**
//! from the run's master seed, so a faulted run is as reproducible as a
//! clean one.
//!
//! ## Determinism
//!
//! Every decision is a pure hash of `(seed, salt, tick, sender, receiver,
//! attempt)` through a SplitMix64-style mixer. Two consequences the tests
//! rely on:
//!
//! * identical `SimConfig` + seed ⇒ identical fault pattern ⇒ identical run
//!   (including `cut_log`), and
//! * loss uses *threshold hashing* (`hash < loss`): the set of messages lost
//!   at 5% is a strict subset of the set lost at 20% for the same seed, so
//!   raising the loss rate can only remove deliveries, never add them.
//!
//! With an all-zero [`FaultConfig`] no hash can fall below the threshold and
//! the mailboxes stay empty: the mediated control plane is bit-for-bit the
//! reliable one.
//!
//! ## What is faulted
//!
//! * **List announcements** (`§3.1` exchange): each announcer→receiver copy
//!   is independently lost or delayed. A delayed copy is held in a mailbox
//!   with its send tick and applied on maturity *only if* it is newer than
//!   the receiver's current snapshot (late lists must not roll views back).
//! * **Neighbor_Traffic** (`§3.3` reports): the request leg can be lost; the
//!   reply leg can be lost or delayed. A delayed reply captures the report
//!   content *at send time* — when it matures, the requester sees stale
//!   counters, exactly the staleness a real late report carries.
//! * **Crash-restart**: per (tick, peer), the peer's detection state
//!   (exchange views, suspicion streaks) is wiped via
//!   [`Defense::on_peer_reset`](crate::Defense::on_peer_reset) and its
//!   in-flight mail is dropped. The peer stays online — this models a fast
//!   process restart, not churn.
//!
//! Transport faults are invisible to the *sender*: a lost announcement still
//! costs a control message. Only delivery is affected.

use crate::defense::TrafficReport;
use crate::Tick;
use ddp_metrics::ResilienceSummary;
use ddp_topology::NodeId;
use std::cell::RefCell;

/// Control-plane fault model, all probabilities per message (or per
/// peer-tick for crashes). The default is inert: no faults at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a control message (list announcement, report request, or
    /// report reply) is dropped in transit.
    pub loss: f64,
    /// Probability a *surviving* list announcement or report reply is
    /// delivered [`delay_ticks`](Self::delay_ticks) ticks late.
    pub delay_prob: f64,
    /// Lateness of delayed messages, in ticks (≥ 1 when `delay_prob > 0`).
    pub delay_ticks: u32,
    /// Per-(peer, tick) probability of a crash-restart: the peer's police and
    /// exchange state is wiped and its in-flight mail dropped.
    pub crash_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { loss: 0.0, delay_prob: 0.0, delay_ticks: 1, crash_prob: 0.0 }
    }
}

impl FaultConfig {
    /// Whether this configuration can never inject a fault.
    pub fn is_inert(&self) -> bool {
        self.loss <= 0.0 && self.delay_prob <= 0.0 && self.crash_prob <= 0.0
    }

    /// Validate probability ranges.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in
            [("loss", self.loss), ("delay_prob", self.delay_prob), ("crash_prob", self.crash_prob)]
        {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault {name} {p} outside [0, 1]"));
            }
        }
        if self.delay_prob > 0.0 && self.delay_ticks == 0 {
            return Err("delay_prob > 0 needs delay_ticks >= 1".into());
        }
        Ok(())
    }
}

/// Decision sub-streams: distinct salts keep loss, delay, and crash draws
/// independent of each other for the same (tick, sender, receiver).
const SALT_LIST_LOSS: u64 = 0xA1;
const SALT_LIST_DELAY: u64 = 0xA2;
const SALT_REQUEST_LOSS: u64 = 0xB1;
const SALT_REPLY_LOSS: u64 = 0xB2;
const SALT_REPLY_DELAY: u64 = 0xB3;
const SALT_CRASH: u64 = 0xC1;

/// Matured mail horizon: a delayed report nobody consumed within this many
/// ticks of maturity is garbage-collected (the suspect stopped being judged).
const MAIL_GC_TICKS: u32 = 4;

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A late neighbor-list announcement in flight.
#[derive(Debug, Clone)]
struct DelayedList {
    deliver_at: Tick,
    receiver: NodeId,
    announcer: NodeId,
    members: Vec<NodeId>,
    sent_at: Tick,
}

/// A late Neighbor_Traffic reply in flight (content frozen at send time).
#[derive(Debug, Clone)]
struct DelayedReport {
    deliver_at: Tick,
    requester: NodeId,
    reporter: NodeId,
    suspect: NodeId,
    report: TrafficReport,
    sent_at: Tick,
}

/// Mutable mailbox + accounting state, behind one `RefCell` so the fault
/// plane can be threaded through the shared [`TickObservation`]
/// (crate::TickObservation) without changing the `Defense` trait's `&obs`
/// calling convention.
#[derive(Debug, Default)]
struct PlaneState {
    lists: Vec<DelayedList>,
    reports: Vec<DelayedReport>,
    stats: ResilienceSummary,
}

/// Deterministic lossy/delaying transport for control messages.
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    seed: u64,
    state: RefCell<PlaneState>,
}

impl FaultPlane {
    /// A fault plane for one run. `seed` should be derived from the run's
    /// master seed on its own stream.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        FaultPlane { cfg, seed, state: RefCell::new(PlaneState::default()) }
    }

    /// The active fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Uniform draw in [0, 1) for one decision point.
    fn unit_hash(&self, salt: u64, tick: Tick, a: NodeId, b: NodeId, attempt: u32) -> f64 {
        let mut h = self.seed ^ splitmix(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix(h ^ ((tick as u64) << 1 | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix(h ^ (((a.0 as u64) << 32) | b.0 as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
        h = splitmix(h ^ (attempt as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn lost(&self, salt: u64, tick: Tick, from: NodeId, to: NodeId, attempt: u32) -> bool {
        // Threshold hashing: the lost set at a smaller loss rate is a subset
        // of the lost set at a larger one (same seed).
        self.cfg.loss > 0.0 && self.unit_hash(salt, tick, from, to, attempt) < self.cfg.loss
    }

    fn delayed(&self, salt: u64, tick: Tick, from: NodeId, to: NodeId, attempt: u32) -> bool {
        self.cfg.delay_prob > 0.0
            && self.unit_hash(salt, tick, from, to, attempt) < self.cfg.delay_prob
    }

    /// Start-of-tick housekeeping: garbage-collect mail nobody consumed.
    pub fn begin_tick(&self, tick: Tick) {
        let mut st = self.state.borrow_mut();
        st.lists.retain(|l| l.deliver_at.saturating_add(MAIL_GC_TICKS) >= tick);
        st.reports.retain(|r| r.deliver_at.saturating_add(MAIL_GC_TICKS) >= tick);
    }

    /// Whether `node` crash-restarts at `tick`. The caller (engine) is
    /// responsible for wiping the defense state; this drops the node's mail
    /// and counts the event.
    pub fn crashes(&self, tick: Tick, node: NodeId) -> bool {
        if self.cfg.crash_prob <= 0.0
            || self.unit_hash(SALT_CRASH, tick, node, node, 0) >= self.cfg.crash_prob
        {
            return false;
        }
        let mut st = self.state.borrow_mut();
        st.lists.retain(|l| l.receiver != node);
        st.reports.retain(|r| r.requester != node);
        st.stats.crash_restarts += 1;
        true
    }

    /// Transmit one list announcement copy: whether it is delivered this
    /// tick. A lost copy vanishes; a delayed copy is mailboxed, the mailbox
    /// keeping its own copy of `members` as they were at send time.
    pub fn list_arrives(
        &self,
        tick: Tick,
        announcer: NodeId,
        receiver: NodeId,
        members: &[NodeId],
    ) -> bool {
        let mut st = self.state.borrow_mut();
        st.stats.lists_sent += 1;
        if self.lost(SALT_LIST_LOSS, tick, announcer, receiver, 0) {
            st.stats.lists_lost += 1;
            return false;
        }
        if self.delayed(SALT_LIST_DELAY, tick, announcer, receiver, 0) {
            st.stats.lists_delayed += 1;
            st.lists.push(DelayedList {
                deliver_at: tick.saturating_add(self.cfg.delay_ticks),
                receiver,
                announcer,
                members: members.to_vec(),
                sent_at: tick,
            });
            return false;
        }
        true
    }

    /// [`list_arrives`](Self::list_arrives), returning the members if
    /// delivered this tick.
    pub fn transmit_list(
        &self,
        tick: Tick,
        announcer: NodeId,
        receiver: NodeId,
        members: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        self.list_arrives(tick, announcer, receiver, members).then(|| members.to_vec())
    }

    /// Drain every matured late list addressed to `receiver`, in send order.
    pub fn take_matured_lists(
        &self,
        tick: Tick,
        receiver: NodeId,
    ) -> Vec<(NodeId, Vec<NodeId>, Tick)> {
        let mut st = self.state.borrow_mut();
        let mut out = Vec::new();
        let mut kept = Vec::with_capacity(st.lists.len());
        for l in st.lists.drain(..) {
            if l.receiver == receiver && l.deliver_at <= tick {
                out.push((l.announcer, l.members, l.sent_at));
            } else {
                kept.push(l);
            }
        }
        st.lists = kept;
        out
    }

    /// Drain every matured late list, whoever it is addressed to, as
    /// `(receiver, announcer, members, sent_at)`: ascending receiver, send
    /// order within one. That is the order
    /// [`take_matured_lists`](Self::take_matured_lists) yields when called
    /// for receivers `0, 1, 2, …`, and the mailbox is left as those calls
    /// leave it — in one pass over the mailbox instead of one per receiver.
    pub fn take_all_matured_lists(&self, tick: Tick) -> Vec<(NodeId, NodeId, Vec<NodeId>, Tick)> {
        let mut st = self.state.borrow_mut();
        let (mut matured, kept): (Vec<DelayedList>, Vec<DelayedList>) =
            std::mem::take(&mut st.lists).into_iter().partition(|l| l.deliver_at <= tick);
        st.lists = kept;
        matured.sort_by_key(|l| l.receiver); // stable: send order survives
        matured.into_iter().map(|l| (l.receiver, l.announcer, l.members, l.sent_at)).collect()
    }

    /// Record that one matured late list was actually applied (the receiver
    /// was online, still adjacent, and held no fresher snapshot).
    pub fn note_late_list_applied(&self) {
        self.state.borrow_mut().stats.lists_late_applied += 1;
    }

    /// Whether the request leg of a report lookup is lost.
    pub fn request_lost(
        &self,
        tick: Tick,
        requester: NodeId,
        reporter: NodeId,
        attempt: u32,
    ) -> bool {
        self.lost(SALT_REQUEST_LOSS, tick, requester, reporter, attempt)
    }

    /// Fate of the reply leg: `None` = delivered now; `Some(true)` = lost;
    /// `Some(false)` = delayed (the caller must mailbox the content via
    /// [`post_report`](Self::post_report)).
    fn reply_faulted(
        &self,
        tick: Tick,
        reporter: NodeId,
        requester: NodeId,
        attempt: u32,
    ) -> Option<bool> {
        if self.lost(SALT_REPLY_LOSS, tick, reporter, requester, attempt) {
            return Some(true);
        }
        if self.delayed(SALT_REPLY_DELAY, tick, reporter, requester, attempt) {
            return Some(false);
        }
        None
    }

    /// Run the reply leg for a report computed this tick. Returns the report
    /// if it arrives now; otherwise it is dropped or mailboxed for later.
    pub fn deliver_reply(
        &self,
        tick: Tick,
        requester: NodeId,
        reporter: NodeId,
        suspect: NodeId,
        report: TrafficReport,
        attempt: u32,
    ) -> Option<TrafficReport> {
        match self.reply_faulted(tick, reporter, requester, attempt) {
            None => Some(report),
            Some(true) => None,
            Some(false) => {
                self.state.borrow_mut().reports.push(DelayedReport {
                    deliver_at: tick.saturating_add(self.cfg.delay_ticks),
                    requester,
                    reporter,
                    suspect,
                    report,
                    sent_at: tick,
                });
                None
            }
        }
    }

    /// Consume the newest matured late reply for (requester, reporter,
    /// suspect), if any. Returns the stale report and its send tick.
    pub fn take_stale_report(
        &self,
        tick: Tick,
        requester: NodeId,
        reporter: NodeId,
        suspect: NodeId,
    ) -> Option<(TrafficReport, Tick)> {
        let mut st = self.state.borrow_mut();
        let mut best: Option<usize> = None;
        for (i, r) in st.reports.iter().enumerate() {
            if r.requester == requester
                && r.reporter == reporter
                && r.suspect == suspect
                && r.deliver_at <= tick
                && best.is_none_or(|b| st.reports[b].sent_at < r.sent_at)
            {
                best = Some(i);
            }
        }
        let r = st.reports.swap_remove(best?);
        Some((r.report, r.sent_at))
    }

    /// Record the semantic outcome of one report lookup (called by the
    /// defense through the observation).
    pub fn note_report_outcome(&self, outcome: ReportOutcome) {
        let s = &mut self.state.borrow_mut().stats;
        s.reports_requested += 1;
        match outcome {
            ReportOutcome::Fresh => s.reports_fresh += 1,
            ReportOutcome::Stale => s.reports_stale_used += 1,
            ReportOutcome::Refused => s.reports_refused += 1,
            ReportOutcome::AssumedZero => s.reports_assumed_zero += 1,
        }
    }

    /// Bulk form of [`note_report_outcome`](Self::note_report_outcome): `n`
    /// lookups that all resolved the same way.
    /// Record `n` list announcements sent in one batch — the bulk mirror of
    /// the per-copy accounting [`transmit_list`](Self::transmit_list) does,
    /// for callers that skip per-copy transmission on an inert plane.
    pub fn note_lists_sent(&self, n: u64) {
        self.state.borrow_mut().stats.lists_sent += n;
    }

    pub fn note_report_outcomes(&self, outcome: ReportOutcome, n: u64) {
        let s = &mut self.state.borrow_mut().stats;
        s.reports_requested += n;
        match outcome {
            ReportOutcome::Fresh => s.reports_fresh += n,
            ReportOutcome::Stale => s.reports_stale_used += n,
            ReportOutcome::Refused => s.reports_refused += n,
            ReportOutcome::AssumedZero => s.reports_assumed_zero += n,
        }
    }

    /// Record retries spent on one suspect's report round.
    pub fn note_retries(&self, n: u64) {
        self.state.borrow_mut().stats.report_retries += n;
    }

    /// Record the snapshot age (ticks) behind one Buddy-Group judgment.
    pub fn note_snapshot_age(&self, age: Tick) {
        self.state.borrow_mut().stats.snapshot_age.record(age as f64);
    }

    /// A copy of the accumulated accounting.
    pub fn stats(&self) -> ResilienceSummary {
        self.state.borrow().stats.clone()
    }

    /// Append the mailboxes and accounting to a snapshot payload. `cfg` and
    /// `seed` are not serialized — the engine recreates the plane from the
    /// run configuration, so only the mutable state crosses the checkpoint.
    pub fn save_state(&self, enc: &mut ddp_snapshot::Enc) {
        let st = self.state.borrow();
        enc.put(&st.lists);
        enc.put(&st.reports);
        enc.put(&st.stats);
    }

    /// Rebuild the mailboxes and accounting from a snapshot payload of an
    /// engine with `slots` node slots: a late list naming a peer outside them
    /// is corrupt, since delivering it indexes that peer.
    pub fn restore_state(
        &self,
        dec: &mut ddp_snapshot::Dec<'_>,
        slots: usize,
    ) -> Result<(), ddp_snapshot::SnapshotError> {
        let lists: Vec<DelayedList> = dec.get()?;
        for list in &lists {
            list.check_ids(slots)?;
        }
        let reports = dec.get()?;
        let stats = dec.get()?;
        let mut st = self.state.borrow_mut();
        st.lists = lists;
        st.reports = reports;
        st.stats = stats;
        Ok(())
    }
}

impl DelayedList {
    fn check_ids(&self, slots: usize) -> Result<(), ddp_snapshot::SnapshotError> {
        let corrupt = |what| Err(ddp_snapshot::SnapshotError::Corrupt { what });
        if self.receiver.index() >= slots {
            return corrupt("delayed list receiver");
        }
        if self.announcer.index() >= slots {
            return corrupt("delayed list announcer");
        }
        if self.members.iter().any(|m| m.index() >= slots) {
            return corrupt("delayed list member");
        }
        Ok(())
    }
}

impl ddp_snapshot::Snapshottable for DelayedList {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        enc.u32(self.deliver_at);
        enc.u32(self.receiver.0);
        enc.u32(self.announcer.0);
        enc.usize(self.members.len());
        for m in &self.members {
            enc.u32(m.0);
        }
        enc.u32(self.sent_at);
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        let deliver_at = dec.u32()?;
        let receiver = NodeId(dec.u32()?);
        let announcer = NodeId(dec.u32()?);
        let n = dec.len("DelayedList members")?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(NodeId(dec.u32()?));
        }
        let sent_at = dec.u32()?;
        Ok(DelayedList { deliver_at, receiver, announcer, members, sent_at })
    }
}

impl ddp_snapshot::Snapshottable for DelayedReport {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        enc.u32(self.deliver_at);
        enc.u32(self.requester.0);
        enc.u32(self.reporter.0);
        enc.u32(self.suspect.0);
        enc.put(&self.report);
        enc.u32(self.sent_at);
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(DelayedReport {
            deliver_at: dec.u32()?,
            requester: NodeId(dec.u32()?),
            reporter: NodeId(dec.u32()?),
            suspect: NodeId(dec.u32()?),
            report: dec.get()?,
            sent_at: dec.u32()?,
        })
    }
}

/// How one report lookup was ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportOutcome {
    /// Answered by a same-tick report.
    Fresh,
    /// Answered by a matured late report within the timeout.
    Stale,
    /// The member refused (offline, disconnected, or silent) — the paper's
    /// assume-zero rule applies immediately, no retry.
    Refused,
    /// Transport failure persisted through retries and the stale mailbox:
    /// assumed zero.
    AssumedZero,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(loss: f64, delay_prob: f64, delay_ticks: u32) -> FaultPlane {
        FaultPlane::new(FaultConfig { loss, delay_prob, delay_ticks, crash_prob: 0.0 }, 0xfeed_beef)
    }

    #[test]
    fn inert_plane_always_delivers() {
        let p = plane(0.0, 0.0, 1);
        for t in 1..50u32 {
            for a in 0..10u32 {
                assert!(!p.request_lost(t, NodeId(a), NodeId(a + 1), 0));
                assert!(p.transmit_list(t, NodeId(a), NodeId(a + 1), &[NodeId(9)]).is_some());
                let r = TrafficReport { sent_to_suspect: 1, received_from_suspect: 2 };
                assert_eq!(p.deliver_reply(t, NodeId(a), NodeId(a + 1), NodeId(0), r, 0), Some(r));
            }
        }
        assert!(p.stats().lists_lost == 0 && p.stats().lists_delayed == 0);
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = plane(0.3, 0.2, 2);
        let b = plane(0.3, 0.2, 2);
        for t in 1..100u32 {
            assert_eq!(
                a.request_lost(t, NodeId(1), NodeId(2), 0),
                b.request_lost(t, NodeId(1), NodeId(2), 0)
            );
        }
    }

    #[test]
    fn loss_sets_nest_across_rates() {
        // Every message lost at 5% must also be lost at 20% (same seed).
        let low = plane(0.05, 0.0, 1);
        let high = plane(0.20, 0.0, 1);
        let mut low_losses = 0;
        for t in 1..200u32 {
            for a in 0..20u32 {
                let (from, to) = (NodeId(a), NodeId((a + 1) % 20));
                if low.request_lost(t, from, to, 0) {
                    low_losses += 1;
                    assert!(high.request_lost(t, from, to, 0), "nesting violated");
                }
            }
        }
        assert!(low_losses > 0, "5% of 4000 draws should lose something");
    }

    #[test]
    fn retries_rehash_with_attempt_number() {
        let p = plane(0.5, 0.0, 1);
        let mut differs = false;
        for t in 1..50u32 {
            if p.request_lost(t, NodeId(3), NodeId(4), 0)
                != p.request_lost(t, NodeId(3), NodeId(4), 1)
            {
                differs = true;
            }
        }
        assert!(differs, "attempt number must enter the hash");
    }

    #[test]
    fn delayed_list_matures_on_schedule() {
        let p = plane(0.0, 1.0, 2);
        let sent = p.transmit_list(5, NodeId(1), NodeId(2), &[NodeId(7)]);
        assert!(sent.is_none(), "delay_prob 1.0 must delay every copy");
        assert!(p.take_matured_lists(6, NodeId(2)).is_empty(), "not matured yet");
        let got = p.take_matured_lists(7, NodeId(2));
        assert_eq!(got.len(), 1);
        let (announcer, members, sent_at) = &got[0];
        assert_eq!((*announcer, sent_at), (NodeId(1), &5));
        assert_eq!(members, &[NodeId(7)]);
        assert!(p.take_matured_lists(8, NodeId(2)).is_empty(), "consumed");
    }

    #[test]
    fn draining_all_matured_lists_equals_draining_receiver_by_receiver() {
        // Twin planes fed the same interleaved mail: several receivers, two
        // send ticks, letters that mature now and letters that do not.
        let (a, b) = (plane(0.0, 1.0, 2), plane(0.0, 1.0, 2));
        for p in [&a, &b] {
            for (tick, announcer, receiver) in
                [(3, 9, 2), (3, 1, 0), (4, 5, 2), (3, 7, 4), (4, 1, 0), (3, 8, 2), (3, 2, 0)]
            {
                let members = [NodeId(announcer), NodeId(tick)];
                p.transmit_list(tick, NodeId(announcer), NodeId(receiver), &members);
            }
        }
        let mut one_by_one = Vec::new();
        for receiver in 0..6 {
            for (announcer, members, sent_at) in a.take_matured_lists(5, NodeId(receiver)) {
                one_by_one.push((NodeId(receiver), announcer, members, sent_at));
            }
        }
        assert_eq!(one_by_one.len(), 5, "the two tick-4 letters mature at 6");
        assert_eq!(b.take_all_matured_lists(5), one_by_one);
        // The remainders are the same mailbox, byte for byte.
        let bytes = |p: &FaultPlane| {
            let mut enc = ddp_snapshot::Enc::new();
            p.save_state(&mut enc);
            enc.into_bytes()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(b.take_all_matured_lists(6).len(), 2);
        assert!(b.take_all_matured_lists(7).is_empty());
    }

    #[test]
    fn delayed_reply_is_consumable_once_matured() {
        let p = plane(0.0, 1.0, 1);
        let r = TrafficReport { sent_to_suspect: 11, received_from_suspect: 3 };
        assert_eq!(p.deliver_reply(4, NodeId(1), NodeId(2), NodeId(9), r, 0), None);
        assert!(p.take_stale_report(4, NodeId(1), NodeId(2), NodeId(9)).is_none());
        let (got, sent_at) = p.take_stale_report(5, NodeId(1), NodeId(2), NodeId(9)).unwrap();
        assert_eq!((got, sent_at), (r, 4));
        assert!(p.take_stale_report(5, NodeId(1), NodeId(2), NodeId(9)).is_none());
    }

    #[test]
    fn crash_drops_pending_mail() {
        let cfg = FaultConfig { loss: 0.0, delay_prob: 1.0, delay_ticks: 1, crash_prob: 1.0 };
        let p = FaultPlane::new(cfg, 42);
        p.transmit_list(1, NodeId(1), NodeId(2), &[NodeId(3)]);
        assert!(p.crashes(1, NodeId(2)), "crash_prob 1.0 must crash");
        assert!(p.take_matured_lists(2, NodeId(2)).is_empty(), "mail dropped on crash");
        assert_eq!(p.stats().crash_restarts, 1);
    }

    #[test]
    fn gc_prunes_unconsumed_mail() {
        let p = plane(0.0, 1.0, 1);
        let r = TrafficReport { sent_to_suspect: 1, received_from_suspect: 1 };
        p.deliver_reply(1, NodeId(1), NodeId(2), NodeId(9), r, 0);
        p.begin_tick(2 + MAIL_GC_TICKS + 1);
        assert!(p
            .take_stale_report(2 + MAIL_GC_TICKS + 1, NodeId(1), NodeId(2), NodeId(9))
            .is_none());
    }

    #[test]
    fn mailbox_snapshot_roundtrip_preserves_in_flight_mail() {
        let p = plane(0.0, 1.0, 2);
        p.transmit_list(5, NodeId(1), NodeId(2), &[NodeId(7), NodeId(8)]);
        let r = TrafficReport { sent_to_suspect: 11, received_from_suspect: 3 };
        p.deliver_reply(5, NodeId(1), NodeId(2), NodeId(9), r, 0);
        p.note_retries(3);

        let mut enc = ddp_snapshot::Enc::new();
        p.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let q = plane(0.0, 1.0, 2);
        let mut dec = ddp_snapshot::Dec::new(&bytes);
        q.restore_state(&mut dec, 9).unwrap();
        dec.finish().unwrap();

        // The restored plane delivers the same mail on the same schedule.
        assert!(q.take_matured_lists(6, NodeId(2)).is_empty());
        let got = q.take_matured_lists(7, NodeId(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, vec![NodeId(7), NodeId(8)]);
        let (stale, sent_at) = q.take_stale_report(7, NodeId(1), NodeId(2), NodeId(9)).unwrap();
        assert_eq!((stale, sent_at), (r, 5));
        assert_eq!(q.stats().report_retries, 3);
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(FaultConfig::default().validate().is_ok());
        assert!(FaultConfig { loss: 1.5, ..FaultConfig::default() }.validate().is_err());
        assert!(FaultConfig { delay_prob: 0.5, delay_ticks: 0, ..FaultConfig::default() }
            .validate()
            .is_err());
        assert!(FaultConfig::default().is_inert());
        assert!(!FaultConfig { loss: 0.1, ..FaultConfig::default() }.is_inert());
    }
}
