//! Neighbor-list exchanging (§3.1) and the resulting membership snapshots.
//!
//! "Two neighbors exchange their neighbor lists periodically. ... Since the
//! P2P network is highly dynamic, DD-POLICE employs a fixed frequency policy,
//! where a peer sends its neighbor lists to all its neighbors periodically."
//! §3.7.1 compares the periodic policy (s = 1..10 minutes) against an
//! event-driven one and settles on periodic / 2 minutes.
//!
//! The snapshots exchanged here are what makes DD-POLICE's view *stale*: the
//! accuracy-vs-overhead tradeoff of Figure §3.7.1 comes entirely from this
//! module's refresh schedule.
//!
//! Each peer's view is a short dense `Vec<Snapshot>` rather than a `HashMap`:
//! overlay degrees are single digits (mean 6, §3.5), where a linear scan
//! beats hashing. A snapshot names its announcer itself, which packs it into
//! 24 bytes (a `(u32, Snapshot)` pair would pad to 32).
//!
//! One announcement is one value however many neighbors receive it: a
//! refresh builds each announcer's list once and every receiver's snapshot
//! holds a handle to that one immutable buffer. An announcer whose list says
//! what it said last time keeps its previous buffer, so a refresh on a quiet
//! overlay allocates nothing. A receiver that missed an announcement keeps
//! the handle it had — buffers are never rewritten in place.
//!
//! Beside the views sits their exact transpose, a holder index from
//! announcer to the viewers holding a snapshot of it, so a departure
//! ([`ExchangeState::forget_about`]) visits only those viewers instead of
//! every peer's view.

use ddp_sim::{FrozenTick, Tick, TickObservation};
use ddp_topology::{NodeId, Partition};
use std::sync::{Arc, Mutex};

/// When peers send their neighbor lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangePolicy {
    /// Every `minutes` ticks, every peer sends its list to each neighbor.
    Periodic { minutes: u32 },
    /// A peer re-announces its list whenever its own adjacency changes.
    /// Views are always fresh, but every churn event costs messages —
    /// "much higher traffic overhead ... because the P2P network is very
    /// dynamic" (§3.7.1).
    EventDriven,
}

impl Default for ExchangePolicy {
    fn default() -> Self {
        ExchangePolicy::Periodic { minutes: 2 }
    }
}

/// One peer's knowledge of one neighbor's neighbor list.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The neighbor's neighbors as last announced; shared with every other
    /// receiver of the same announcement.
    pub members: Arc<[NodeId]>,
    /// Tick the announcement was made.
    pub taken_at: Tick,
    /// The neighbor that announced the list.
    pub announcer: NodeId,
}

/// The exact transpose of a per-holder keyed store: `lists[key]` names every
/// holder whose row has an entry keyed `key` (for [`ExchangeState`]:
/// announcer → viewers; for [`crate::verdict::VerdictMachine`]: suspect →
/// observers). It is *derived* state — never serialized, never hashed,
/// rebuilt on load — and the order inside a list is never observable: every
/// consumer either counts the holders or edits each holder's own row.
#[derive(Debug, Default)]
pub(crate) struct HolderIndex {
    lists: Vec<Vec<u32>>,
}

impl HolderIndex {
    pub(crate) fn new(n: usize) -> Self {
        HolderIndex { lists: vec![Vec::new(); n] }
    }

    /// Grow to at least `n` keys (never shrinks, like the stores it mirrors).
    pub(crate) fn ensure_slots(&mut self, n: usize) {
        if self.lists.len() < n {
            self.lists.resize_with(n, Vec::new);
        }
    }

    /// `holder` gained an entry keyed `key`.
    pub(crate) fn list(&mut self, key: u32, holder: u32) {
        self.lists[key as usize].push(holder);
    }

    /// `holder` dropped its entry keyed `key`.
    pub(crate) fn unlist(&mut self, key: u32, holder: u32) {
        let list = &mut self.lists[key as usize];
        if let Some(pos) = list.iter().position(|&h| h == holder) {
            list.swap_remove(pos);
        }
    }

    /// Everyone holding an entry keyed `key` (empty for an unknown key).
    pub(crate) fn holders(&self, key: u32) -> &[u32] {
        self.lists.get(key as usize).map_or(&[], Vec::as_slice)
    }

    /// Nobody holds an entry keyed `key` anymore. Clears rather than drops:
    /// the slot is about to be recycled and its next occupant reuses the
    /// buffer.
    pub(crate) fn clear(&mut self, key: u32) {
        if let Some(list) = self.lists.get_mut(key as usize) {
            list.clear();
        }
    }
}

/// All peers' exchanged-list state.
#[derive(Debug, Default)]
pub struct ExchangeState {
    /// `views[i]` holds peer `i`'s snapshots of its neighbors' lists. Order
    /// is insertion-incidental and never observable: every access is a
    /// lookup by announcer.
    views: Vec<Vec<Snapshot>>,
    /// Announcer `j` → the viewers `i` whose `views[i]` holds a snapshot of
    /// `j`, maintained at every push into and removal from a view.
    holders: HolderIndex,
    /// Control messages generated by event-driven announcements since the
    /// last drain.
    pending_event_msgs: u64,
}

/// Whether the periodic schedule exchanges at `tick`. The schedule is
/// phase-aligned to the first tick: exchanges happen at ticks `1, 1+s,
/// 1+2s, ...` for period `s` (every tick for `s = 1`).
fn periodic_refresh_due(minutes: u32, tick: Tick) -> bool {
    tick.wrapping_sub(1).is_multiple_of(minutes.max(1))
}

/// Point `view`'s snapshot of announcer `j` at `members`, creating it if
/// need be: the one place a snapshot is written. A free function on a single
/// view so the sharded refresh can write through a disjoint chunk of views.
/// Returns whether the snapshot is new to the view — the caller owes the
/// holder index a `list`.
fn store_in(view: &mut Vec<Snapshot>, j: u32, members: &Arc<[NodeId]>, taken_at: Tick) -> bool {
    match view.iter_mut().find(|s| s.announcer.0 == j) {
        Some(s) => {
            if !Arc::ptr_eq(&s.members, members) {
                s.members = Arc::clone(members);
            }
            s.taken_at = taken_at;
            false
        }
        None => {
            view.push(Snapshot { members: Arc::clone(members), taken_at, announcer: NodeId(j) });
            true
        }
    }
}

impl ExchangeState {
    /// State for `n` peers.
    pub fn new(n: usize) -> Self {
        ExchangeState {
            views: (0..n).map(|_| Vec::new()).collect(),
            holders: HolderIndex::new(n),
            pending_event_msgs: 0,
        }
    }

    /// Peer `i`'s snapshot of neighbor `j`'s list, if any.
    pub fn snapshot(&self, i: NodeId, j: NodeId) -> Option<&Snapshot> {
        self.views[i.index()].iter().find(|s| s.announcer == j)
    }

    /// [`store_in`] on peer `i`'s view, keeping the holder index exact.
    fn store(&mut self, i: usize, j: u32, members: &Arc<[NodeId]>, taken_at: Tick) {
        if store_in(&mut self.views[i], j, members, taken_at) {
            self.holders.list(j, i as u32);
        }
    }

    /// What peer `j_idx` announces this tick (possibly a lie), as the buffer
    /// its receivers will share, built through `list`. `None` when nothing is
    /// sent: `j` is offline, a `Silent` reporter (which also skips the
    /// exchange), withholds its list (`ListBehavior::Refuse`), or has nobody
    /// to send it to.
    ///
    /// When the list says what `j`'s previous announcement said, that
    /// announcement's buffer is handed out again. The previous buffer is
    /// looked up where `j`'s first neighbor keeps it and compared by content,
    /// so a neighbor that missed it, or a restored run whose handles are no
    /// longer shared, only costs a fresh buffer, never a stale one.
    fn announcement(
        &self,
        obs: &FrozenTick<'_>,
        j_idx: usize,
        list: &mut Vec<NodeId>,
    ) -> Option<Arc<[NodeId]>> {
        if matches!(obs.report_behavior[j_idx], ddp_sim::ReportBehavior::Silent) {
            return None;
        }
        let j = NodeId::from_index(j_idx);
        let first = obs.overlay.neighbors(j).first()?.peer;
        if !obs.announced_list_into(j, list) {
            return None;
        }
        Some(match self.snapshot(first, j) {
            Some(previous) if *previous.members == **list => Arc::clone(&previous.members),
            _ => Arc::from(&list[..]),
        })
    }

    /// Run the exchange step for this tick. Returns the number of
    /// neighbor-list messages sent.
    ///
    /// Peers whose report behavior is `Silent` refuse the exchange entirely
    /// (§3.1's "what if a host lies to its neighbor" — the consistency check
    /// handles *lying*; refusal simply leaves neighbors without a list,
    /// which [`crate::police::DdPolice`] punishes after a grace period).
    pub fn on_tick(&mut self, policy: ExchangePolicy, obs: &TickObservation<'_>) -> u64 {
        self.on_tick_with_threads(policy, obs, 1)
    }

    /// [`on_tick`](Self::on_tick) with the refresh sharded over `threads`
    /// workers; byte-identical at any width (see [`refresh`](Self::refresh)).
    pub fn on_tick_with_threads(
        &mut self,
        policy: ExchangePolicy,
        obs: &TickObservation<'_>,
        threads: usize,
    ) -> u64 {
        let msgs = self.pending_event_msgs;
        self.pending_event_msgs = 0;

        // An inert plane rolls no dice: every copy is delivered verbatim and
        // no mail is ever queued, so it takes the same path as no plane at
        // all (with the per-copy `lists_sent` accounting mirrored in bulk).
        let reliable = obs.faults.is_none_or(|f| f.config().is_inert());

        // Deliver late announcements that matured this tick, before any new
        // exchange: a late list is applied only when it is *newer* than the
        // receiver's current snapshot (late mail must never roll a fresher
        // view back) and the announcer is still a neighbor. Only a faulty
        // control plane can have mail in flight.
        if !reliable {
            for (i, announcer, members, sent_at) in obs.all_matured_lists() {
                if !obs.online[i.index()] || !obs.overlay.contains_edge(i, announcer) {
                    continue;
                }
                let newer = self.snapshot(i, announcer).is_none_or(|s| s.taken_at < sent_at);
                if newer {
                    self.store(i.index(), announcer.0, &Arc::from(members), sent_at);
                    obs.note_late_list_applied();
                }
            }
        }

        let due = match policy {
            ExchangePolicy::Periodic { minutes } => periodic_refresh_due(minutes, obs.tick),
            // Event-driven views are always current; the message cost was
            // charged when the events happened.
            ExchangePolicy::EventDriven => true,
        };
        if !due {
            return msgs;
        }
        let periodic = matches!(policy, ExchangePolicy::Periodic { .. });
        msgs + self.refresh(obs, periodic, reliable, threads)
    }

    /// One refresh: every announcer sends its list to each neighbor. Three
    /// stages, each order-pinned, the same at every width and on every
    /// transport:
    ///
    /// 1. **Announce** — what every peer announces is a pure function of the
    ///    frozen tick and of the views as the previous refresh left them
    ///    (nothing is stored before stage 3), computed per announcer range
    ///    on the pool (inline at width 1), each worker writing its range of
    ///    one `n`-slot vector.
    /// 2. **Account** — serially in ascending announcer order, then
    ///    adjacency order. A message costs the announcer whether or not the
    ///    transport delivers it. A reliable plane notes `lists_sent` in bulk;
    ///    a lossy one rolls each copy's `list_arrives` here, so the dice, the
    ///    mailbox and the resilience tallies see one fixed sequence, and the
    ///    copies that did not arrive are recorded.
    /// 3. **Deliver** — workers own disjoint contiguous ranges of *receiver*
    ///    views and apply their announcing neighbors in ascending announcer
    ///    id, skipping the copies that did not arrive. An announcer-major
    ///    loop would touch any one view in that same order, so re-pointed
    ///    snapshots and fresh pushes land byte-identically at any width. The
    ///    holder index is keyed by *announcer*, so no worker may touch it:
    ///    each records its fresh pushes, and they are replayed here in
    ///    ascending partition order.
    fn refresh(
        &mut self,
        obs: &TickObservation<'_>,
        periodic: bool,
        reliable: bool,
        threads: usize,
    ) -> u64 {
        let n = obs.overlay.node_count();
        let frozen = obs.frozen();
        let part = Partition::by_degree(obs.overlay.graph(), threads);
        let this = &*self;
        let mut announced: Vec<Option<Arc<[NodeId]>>> = vec![None; n];
        ddp_sim::pool::run_chunked(threads, &mut announced, part.boundaries(), |start, chunk| {
            let mut list = Vec::new();
            for (j_idx, slot) in (start..).zip(chunk) {
                *slot = this.announcement(&frozen, j_idx, &mut list);
            }
        });

        let mut msgs = 0u64;
        // `(receiver, announcer)` of every copy the transport did not deliver.
        let mut missed: Vec<(u32, u32)> = Vec::new();
        for (j_idx, a) in announced.iter().enumerate() {
            let Some(members) = a else { continue };
            let j = NodeId::from_index(j_idx);
            let receivers = obs.overlay.neighbors(j);
            if periodic {
                msgs += receivers.len() as u64;
            }
            if reliable {
                if let Some(fp) = obs.faults {
                    fp.note_lists_sent(receivers.len() as u64);
                }
                continue;
            }
            for h in receivers {
                if !obs.list_arrives(j, h.peer, members) {
                    missed.push((h.peer.0, j.0));
                }
            }
        }
        missed.sort_unstable();

        let tick = obs.tick;
        let overlay = obs.overlay;
        let (announced, missed) = (&announced, &missed);
        // Every partition's fresh `(viewer, announcer)` pushes.
        let fresh: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
        ddp_sim::pool::run_chunked(
            threads,
            &mut self.views[..n],
            part.boundaries(),
            |start, chunk| {
                // This range's missed copies, consumed in step with the walk:
                // both run in ascending (receiver, announcer) order.
                let mut missed = &missed[missed.partition_point(|&(i, _)| (i as usize) < start)..];
                let mut senders: Vec<u32> = Vec::new();
                let mut pushed: Vec<(u32, u32)> = Vec::new();
                for (k, view) in chunk.iter_mut().enumerate() {
                    let i = NodeId::from_index(start + k);
                    senders.clear();
                    senders.extend(
                        overlay
                            .neighbors(i)
                            .iter()
                            .map(|h| h.peer.0)
                            .filter(|&j| announced[j as usize].is_some()),
                    );
                    senders.sort_unstable();
                    for &j in &senders {
                        if missed.first() == Some(&(i.0, j)) {
                            missed = &missed[1..];
                            continue;
                        }
                        let members = announced[j as usize].as_ref().expect("filtered Some");
                        if store_in(view, j, members, tick) {
                            pushed.push((i.0, j));
                        }
                    }
                }
                let end = start + chunk.len();
                debug_assert!(missed.first().is_none_or(|&(i, _)| i as usize >= end));
                if !pushed.is_empty() {
                    fresh.lock().expect("a refresh worker panicked").extend(pushed);
                }
            },
        );
        let mut fresh = fresh.into_inner().expect("a refresh worker panicked");
        // Workers finish in any order; each recorded ascending (viewer,
        // announcer) pairs over an ascending viewer range, so sorting
        // restores the concatenation in partition order.
        fresh.sort_unstable();
        for (i, j) in fresh {
            self.holders.list(j, i);
        }
        msgs
    }

    /// An adjacency change at `u` and `v`: under the event-driven policy both
    /// endpoints announce to all their neighbors.
    pub fn on_adjacency_event(&mut self, policy: ExchangePolicy, degree_u: usize, degree_v: usize) {
        if policy == ExchangePolicy::EventDriven {
            self.pending_event_msgs += (degree_u + degree_v) as u64;
        }
    }

    /// Edge `{u, v}` was removed: neither endpoint polices the other anymore.
    pub fn forget_edge(&mut self, u: NodeId, v: NodeId) {
        for (viewer, announcer) in [(u, v), (v, u)] {
            let view = &mut self.views[viewer.index()];
            if let Some(pos) = view.iter().position(|s| s.announcer == announcer) {
                view.swap_remove(pos);
                self.holders.unlist(announcer.0, viewer.0);
            }
        }
    }

    /// Peer `u` left / was reset: its accumulated knowledge is gone.
    pub fn reset_peer(&mut self, u: NodeId) {
        for s in &self.views[u.index()] {
            self.holders.unlist(s.announcer.0, u.0);
        }
        self.views[u.index()].clear();
    }

    /// Identity `u` departed for good: every *other* peer's snapshot of `u`
    /// is now a dangling reference and must not survive to be inherited by
    /// whoever recycles the slot. The engine isolates a departing peer first
    /// and reports each severed edge (graceful leave and crash alike), so
    /// `forget_edge` has normally dropped these snapshots already; this is
    /// the backstop for whatever no removal callback covered. It visits only
    /// the viewers the holder index lists for `u`.
    pub fn forget_about(&mut self, u: NodeId) {
        for &viewer in self.holders.holders(u.0) {
            let view = &mut self.views[viewer as usize];
            if let Some(pos) = view.iter().position(|s| s.announcer == u) {
                view.swap_remove(pos);
            }
        }
        self.holders.clear(u.0);
    }

    /// The viewers currently holding a snapshot of `announcer`, in no
    /// particular order — the holder index's answer, for diagnostics and the
    /// index-exactness tests.
    pub fn holders_of(&self, announcer: NodeId) -> &[u32] {
        self.holders.holders(announcer.0)
    }

    /// Grow to at least `n` peer slots (never shrinks — slots are positional
    /// and identities are recycled by index).
    pub fn ensure_slots(&mut self, n: usize) {
        if self.views.len() < n {
            self.views.resize_with(n, Vec::new);
        }
        self.holders.ensure_slots(n);
    }

    /// Total live snapshots across all views — the state-footprint metric
    /// the bounded-memory regression watches under churn.
    pub fn total_snapshots(&self) -> usize {
        self.views.iter().map(Vec::len).sum()
    }

    /// Every `(viewer, announcer, snapshot)` currently held, sorted by
    /// `(viewer, announcer)`. The internal per-view order is
    /// insertion-incidental, so equivalence checks (differential harness)
    /// must compare through this canonical enumeration.
    pub fn all_snapshots(&self) -> Vec<(u32, u32, &Snapshot)> {
        let mut out: Vec<(u32, u32, &Snapshot)> = Vec::with_capacity(self.total_snapshots());
        for (i, view) in self.views.iter().enumerate() {
            for snap in view {
                out.push((i as u32, snap.announcer.0, snap));
            }
        }
        out.sort_unstable_by_key(|&(i, j, _)| (i, j));
        out
    }

    /// Serialize the full exchange state. Per-view pair order is preserved
    /// verbatim: although every read is keyed, restoring the exact `Vec`
    /// layout guarantees a resumed run's internal state is byte-identical to
    /// the uninterrupted run's, so later `swap_remove`s pick the same slots.
    pub fn save_state(&self, enc: &mut ddp_snapshot::Enc) {
        enc.usize(self.views.len());
        for view in &self.views {
            enc.usize(view.len());
            for snap in view {
                enc.u32(snap.announcer.0);
                enc.usize(snap.members.len());
                for m in snap.members.iter() {
                    enc.u32(m.0);
                }
                enc.u32(snap.taken_at);
            }
        }
        enc.u64(self.pending_event_msgs);
    }

    /// Rebuild an exchange state saved by [`ExchangeState::save_state`].
    pub fn load_state(
        dec: &mut ddp_snapshot::Dec<'_>,
    ) -> Result<Self, ddp_snapshot::SnapshotError> {
        let n = dec.len("exchange views")?;
        let mut views = Vec::with_capacity(n);
        let mut holders = HolderIndex::new(n);
        let mut members = Vec::new();
        for i in 0..n {
            let pairs = dec.len("exchange view pairs")?;
            let mut view = Vec::with_capacity(pairs);
            for _ in 0..pairs {
                let j = dec.u32()?;
                if j as usize >= n {
                    return Err(ddp_snapshot::SnapshotError::Corrupt {
                        what: "exchange announcer id",
                    });
                }
                holders.list(j, i as u32);
                let members_len = dec.len("exchange snapshot members")?;
                members.clear();
                for _ in 0..members_len {
                    let m = dec.u32()?;
                    if m as usize >= n {
                        return Err(ddp_snapshot::SnapshotError::Corrupt {
                            what: "exchange snapshot member",
                        });
                    }
                    members.push(NodeId(m));
                }
                let taken_at = dec.u32()?;
                let members = Arc::from(&members[..]);
                view.push(Snapshot { members, taken_at, announcer: NodeId(j) });
            }
            views.push(view);
        }
        let pending_event_msgs = dec.u64()?;
        Ok(ExchangeState { views, holders, pending_event_msgs })
    }

    /// Number of peers tracked.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the state tracks no peers.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_sim::{Overlay, ReportBehavior};
    use ddp_topology::DynamicGraph;
    use ddp_workload::BandwidthClass;

    fn make_overlay(n: usize, edges: &[(u32, u32)]) -> Overlay {
        let mut g = DynamicGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        Overlay::new(g, &vec![BandwidthClass::Ethernet; n])
    }

    const TRUTHFUL: &[ddp_sim::ListBehavior] = &[ddp_sim::ListBehavior::Truthful; 8];

    fn obs<'a>(
        overlay: &'a Overlay,
        tick: Tick,
        online: &'a [bool],
        runs: &'a [bool],
        behavior: &'a [ReportBehavior],
    ) -> TickObservation<'a> {
        TickObservation {
            tick,
            overlay,
            online,
            runs_defense: runs,
            report_behavior: behavior,
            list_behavior: &TRUTHFUL[..overlay.node_count()],
            faults: None,
        }
    }

    /// Satellite check for the phase-based refresh predicate: exchanges at
    /// ticks 1, 1+s, 1+2s, ... — pinned for the periods the §3.7.1 sweep
    /// uses.
    #[test]
    fn periodic_schedule_is_phase_aligned_for_swept_periods() {
        for (s, due) in [
            (1u32, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]),
            (2, vec![1, 3, 5, 7, 9, 11]),
            (5, vec![1, 6, 11]),
        ] {
            let got: Vec<Tick> = (1..=11).filter(|&t| periodic_refresh_due(s, t)).collect();
            assert_eq!(got, due, "period s={s}");
        }
        // Degenerate period 0 is treated as 1 (every tick), not a panic.
        assert!(periodic_refresh_due(0, 7));
    }

    /// A view entry carries its announcer, so it packs into 24 bytes: a
    /// fat `Arc` pointer and two `u32`s.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_view_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Snapshot>(), 24);
    }

    #[test]
    fn periodic_exchange_populates_snapshots_on_schedule() {
        let o = make_overlay(3, &[(0, 1), (1, 2)]);
        let online = vec![true; 3];
        let runs = vec![true; 3];
        let behavior = vec![ReportBehavior::Honest; 3];
        let mut ex = ExchangeState::new(3);
        let policy = ExchangePolicy::Periodic { minutes: 2 };

        // tick 1: refresh (first tick always exchanges).
        let msgs = ex.on_tick(policy, &obs(&o, 1, &online, &runs, &behavior));
        assert!(msgs > 0);
        let snap = ex.snapshot(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(snap.members[..], [NodeId(0), NodeId(2)]);
        assert_eq!(snap.taken_at, 1);

        // tick 2: no refresh with s = 2.
        let msgs2 = ex.on_tick(policy, &obs(&o, 2, &online, &runs, &behavior));
        assert_eq!(msgs2, 0);
        assert_eq!(ex.snapshot(NodeId(0), NodeId(1)).unwrap().taken_at, 1);

        // tick 3: refresh again.
        let msgs3 = ex.on_tick(policy, &obs(&o, 3, &online, &runs, &behavior));
        assert!(msgs3 > 0);
        assert_eq!(ex.snapshot(NodeId(0), NodeId(1)).unwrap().taken_at, 3);
    }

    #[test]
    fn staleness_between_refreshes() {
        let mut o = make_overlay(4, &[(0, 1), (1, 2)]);
        let online = vec![true; 4];
        let runs = vec![true; 4];
        let behavior = vec![ReportBehavior::Honest; 4];
        let mut ex = ExchangeState::new(4);
        let policy = ExchangePolicy::Periodic { minutes: 5 };
        ex.on_tick(policy, &obs(&o, 1, &online, &runs, &behavior));
        // Node 1 gains a neighbor after the exchange.
        o.add_edge(NodeId(1), NodeId(3));
        ex.on_tick(policy, &obs(&o, 2, &online, &runs, &behavior));
        let snap = ex.snapshot(NodeId(0), NodeId(1)).unwrap();
        assert!(
            !snap.members.contains(&NodeId(3)),
            "stale snapshot must miss the new neighbor until refresh"
        );
    }

    #[test]
    fn event_driven_is_always_fresh_and_charges_events() {
        let mut o = make_overlay(3, &[(0, 1)]);
        let online = vec![true; 3];
        let runs = vec![true; 3];
        let behavior = vec![ReportBehavior::Honest; 3];
        let mut ex = ExchangeState::new(3);
        let policy = ExchangePolicy::EventDriven;
        ex.on_tick(policy, &obs(&o, 1, &online, &runs, &behavior));
        o.add_edge(NodeId(1), NodeId(2));
        ex.on_adjacency_event(policy, o.degree(NodeId(1)), o.degree(NodeId(2)));
        let msgs = ex.on_tick(policy, &obs(&o, 2, &online, &runs, &behavior));
        assert_eq!(msgs, 3, "both endpoints announce: degrees 2 + 1");
        let snap = ex.snapshot(NodeId(0), NodeId(1)).unwrap();
        assert!(snap.members.contains(&NodeId(2)), "event-driven view is fresh");
    }

    #[test]
    fn silent_peers_never_announce() {
        let o = make_overlay(2, &[(0, 1)]);
        let online = vec![true; 2];
        let runs = vec![true; 2];
        let behavior = vec![ReportBehavior::Honest, ReportBehavior::Silent];
        let mut ex = ExchangeState::new(2);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &obs(&o, 1, &online, &runs, &behavior));
        assert!(ex.snapshot(NodeId(0), NodeId(1)).is_none(), "silent peer 1 sent no list");
        assert!(ex.snapshot(NodeId(1), NodeId(0)).is_some(), "honest peer 0 did");
    }

    #[test]
    fn lost_lists_leave_stale_snapshots_and_late_ones_catch_up() {
        use ddp_sim::{FaultConfig, FaultPlane};
        let o = make_overlay(2, &[(0, 1)]);
        let online = vec![true; 2];
        let runs = vec![true; 2];
        let behavior = vec![ReportBehavior::Honest; 2];
        let mut ex = ExchangeState::new(2);
        let policy = ExchangePolicy::Periodic { minutes: 1 };

        // Delay every announcement by one tick.
        let plane = FaultPlane::new(
            FaultConfig { delay_prob: 1.0, delay_ticks: 1, ..FaultConfig::default() },
            5,
        );
        let mut ob = obs(&o, 1, &online, &runs, &behavior);
        ob.faults = Some(&plane);
        let msgs = ex.on_tick(policy, &ob);
        assert!(msgs > 0, "the sender is charged even though nothing arrived");
        assert!(ex.snapshot(NodeId(0), NodeId(1)).is_none(), "delayed, not delivered");

        // Tick 2: the late tick-1 announcement matures and is applied with
        // its *send* tick, then the fresh tick-2 exchange overwrites it.
        let mut ob2 = obs(&o, 2, &online, &runs, &behavior);
        ob2.faults = Some(&plane);
        ex.on_tick(policy, &ob2);
        let snap = ex.snapshot(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(snap.taken_at, 1, "tick-2 list is itself delayed; tick-1 mail applied");
        assert!(plane.stats().lists_late_applied >= 1);
    }

    #[test]
    fn late_list_never_rolls_back_a_fresher_snapshot() {
        use ddp_sim::{FaultConfig, FaultPlane};
        let o = make_overlay(2, &[(0, 1)]);
        let online = vec![true; 2];
        let runs = vec![true; 2];
        let behavior = vec![ReportBehavior::Honest; 2];
        let mut ex = ExchangeState::new(2);
        let policy = ExchangePolicy::Periodic { minutes: 1 };

        // Seed a fresh snapshot on a reliable tick first.
        ex.on_tick(policy, &obs(&o, 3, &online, &runs, &behavior));
        assert_eq!(ex.snapshot(NodeId(0), NodeId(1)).unwrap().taken_at, 3);

        // Inject a matured late copy from tick 1 directly into the mailbox.
        let plane = FaultPlane::new(
            FaultConfig { delay_prob: 1.0, delay_ticks: 1, ..FaultConfig::default() },
            5,
        );
        plane.transmit_list(1, NodeId(1), NodeId(0), &[NodeId(9)]);
        // Tick 4 runs on the delaying plane: the fresh announcement is
        // delayed again, so only the stale tick-1 mail could land.
        let mut ob = obs(&o, 4, &online, &runs, &behavior);
        ob.faults = Some(&plane);
        ex.on_tick(policy, &ob);
        let snap = ex.snapshot(NodeId(0), NodeId(1)).unwrap();
        assert!(snap.taken_at >= 3, "tick-1 mail must not replace the tick-3 view");
        assert!(!snap.members.contains(&NodeId(9)));
    }

    #[test]
    fn forget_edge_and_reset_peer_clear_views() {
        let o = make_overlay(3, &[(0, 1), (1, 2)]);
        let online = vec![true; 3];
        let runs = vec![true; 3];
        let behavior = vec![ReportBehavior::Honest; 3];
        let mut ex = ExchangeState::new(3);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &obs(&o, 1, &online, &runs, &behavior));
        assert!(ex.snapshot(NodeId(0), NodeId(1)).is_some());
        ex.forget_edge(NodeId(0), NodeId(1));
        assert!(ex.snapshot(NodeId(0), NodeId(1)).is_none());
        assert!(ex.snapshot(NodeId(1), NodeId(2)).is_some());
        ex.reset_peer(NodeId(1));
        assert!(ex.snapshot(NodeId(1), NodeId(2)).is_none());
    }

    #[test]
    fn forget_about_sweeps_every_observers_snapshot_of_the_departed() {
        let o = make_overlay(3, &[(0, 1), (1, 2)]);
        let online = vec![true; 3];
        let runs = vec![true; 3];
        let behavior = vec![ReportBehavior::Honest; 3];
        let mut ex = ExchangeState::new(3);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &obs(&o, 1, &online, &runs, &behavior));
        assert_eq!(ex.total_snapshots(), 4, "two edges, both directions");
        ex.forget_about(NodeId(1));
        assert!(ex.snapshot(NodeId(0), NodeId(1)).is_none());
        assert!(ex.snapshot(NodeId(2), NodeId(1)).is_none());
        // Peer 1's own knowledge is untouched — `reset_peer` owns that side.
        assert!(ex.snapshot(NodeId(1), NodeId(0)).is_some());
        assert_eq!(ex.total_snapshots(), 2);
    }

    #[test]
    fn load_state_rejects_an_announcer_outside_the_slot_range() {
        let o = make_overlay(3, &[(0, 1)]);
        let online = vec![true; 3];
        let runs = vec![true; 3];
        let behavior = vec![ReportBehavior::Honest; 3];
        let mut ex = ExchangeState::new(3);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &obs(&o, 1, &online, &runs, &behavior));
        let mut enc = ddp_snapshot::Enc::new();
        ex.save_state(&mut enc);
        let mut bytes = enc.into_bytes();
        let reloaded = ExchangeState::load_state(&mut ddp_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(reloaded.holders_of(NodeId(1)), [0], "the index is rebuilt, not stored");
        // Views: count, then view 0 = one pair whose announcer id comes first.
        let announcer_at = 2 * std::mem::size_of::<u64>();
        assert_eq!(bytes[announcer_at..announcer_at + 4], 1u32.to_le_bytes());
        bytes[announcer_at..announcer_at + 4].copy_from_slice(&3u32.to_le_bytes());
        match ExchangeState::load_state(&mut ddp_snapshot::Dec::new(&bytes)) {
            Err(ddp_snapshot::SnapshotError::Corrupt { what }) => {
                assert_eq!(what, "exchange announcer id")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn ensure_slots_grows_without_shrinking() {
        let mut ex = ExchangeState::new(2);
        ex.ensure_slots(5);
        assert_eq!(ex.len(), 5);
        ex.ensure_slots(3);
        assert_eq!(ex.len(), 5, "slots are positional; never shrink");
        ex.reset_peer(NodeId(4)); // in range after the growth
    }

    #[test]
    fn refresh_is_byte_identical_at_every_width_and_transport() {
        // A hub-heavy overlay with churn between refreshes, stepped in
        // lockstep at widths 1, 2, 3 and 8, on a reliable plane and on a
        // lossy-and-delayed one: the serialized exchange state (which
        // preserves per-view insertion order verbatim), the plane's mailbox
        // and its resilience tallies must match byte for byte after every
        // tick.
        use ddp_sim::{FaultConfig, FaultPlane};
        let edges = [(0u32, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (5, 6), (3, 7)];
        let behavior = vec![ReportBehavior::Honest; 8];
        let policy = ExchangePolicy::Periodic { minutes: 1 };
        let lossy =
            FaultConfig { loss: 0.3, delay_prob: 0.3, delay_ticks: 1, ..FaultConfig::default() };
        for faults in [FaultConfig::default(), lossy.clone()] {
            let widths = [1, 2, 3, 8];
            let mut states = widths.map(|_| ExchangeState::new(8));
            let planes = widths.map(|_| FaultPlane::new(faults.clone(), 11));
            let mut o = make_overlay(8, &edges);
            let mut online = vec![true; 8];
            let runs = vec![true; 8];
            for tick in 1..=6u32 {
                // Churn between refreshes so fresh pushes, in-place rewrites,
                // and swap_remove gaps all occur.
                match tick {
                    2 => {
                        o.remove_edge(NodeId(0), NodeId(2));
                        for ex in &mut states {
                            ex.forget_edge(NodeId(0), NodeId(2));
                        }
                    }
                    3 => {
                        o.add_edge(NodeId(4), NodeId(7));
                        online[5] = false;
                    }
                    _ => {}
                }
                let mut seen = Vec::new();
                for ((ex, plane), threads) in states.iter_mut().zip(&planes).zip(widths) {
                    plane.begin_tick(tick);
                    let mut ob = obs(&o, tick, &online, &runs, &behavior);
                    ob.faults = Some(plane);
                    let msgs = ex.on_tick_with_threads(policy, &ob, threads);
                    let mut enc = ddp_snapshot::Enc::new();
                    ex.save_state(&mut enc);
                    plane.save_state(&mut enc);
                    seen.push((threads, msgs, enc.into_bytes(), plane.stats()));
                }
                for (threads, msgs, bytes, stats) in &seen[1..] {
                    let (_, msgs1, bytes1, stats1) = &seen[0];
                    let at = format!("tick {tick}, width {threads}, faults {faults:?}");
                    assert_eq!(msgs, msgs1, "message count diverged at {at}");
                    assert!(bytes == bytes1, "exchange or mailbox state diverged at {at}");
                    assert_eq!(stats, stats1, "resilience tallies diverged at {at}");
                }
            }
            if faults == lossy {
                let stats = planes[0].stats();
                assert!(stats.lists_lost > 0 && stats.lists_late_applied > 0, "{stats:?}");
            }
        }
    }

    #[test]
    fn one_announcement_is_one_buffer_and_a_missed_one_leaves_the_old_intact() {
        use ddp_sim::{FaultConfig, FaultPlane};
        // Hub 1 announces to 0, 2 and 3.
        let mut o = make_overlay(5, &[(0, 1), (1, 2), (1, 3)]);
        let online = vec![true; 5];
        let runs = vec![true; 5];
        let behavior = vec![ReportBehavior::Honest; 5];
        let mut ex = ExchangeState::new(5);
        let policy = ExchangePolicy::Periodic { minutes: 1 };
        let held = |ex: &ExchangeState, viewer: u32| {
            let snap = ex.snapshot(NodeId(viewer), NodeId(1)).unwrap();
            (Arc::clone(&snap.members), snap.taken_at)
        };

        ex.on_tick(policy, &obs(&o, 1, &online, &runs, &behavior));
        let (first, _) = held(&ex, 0);
        assert_eq!(first[..], [NodeId(0), NodeId(2), NodeId(3)]);
        assert!(Arc::ptr_eq(&first, &held(&ex, 2).0) && Arc::ptr_eq(&first, &held(&ex, 3).0));

        // An unchanged list keeps its buffer; only the tick moves.
        ex.on_tick(policy, &obs(&o, 2, &online, &runs, &behavior));
        for viewer in [0, 2, 3] {
            let (members, taken_at) = held(&ex, viewer);
            assert!(Arc::ptr_eq(&first, &members), "peer {viewer} was handed a copy");
            assert_eq!(taken_at, 2);
        }

        // The list changes, and peer 0's copy of the tick-3 announcement is
        // lost while 2's and 3's arrive (the dice are a pure hash of the
        // seed: take the first plane that rolls exactly that).
        o.add_edge(NodeId(1), NodeId(4));
        let lossy =
            |seed| FaultPlane::new(FaultConfig { loss: 0.5, ..FaultConfig::default() }, seed);
        let seed = (0..)
            .find(|&seed| {
                let arrives = |to| lossy(seed).list_arrives(3, NodeId(1), NodeId(to), &[]);
                !arrives(0) && arrives(2) && arrives(3)
            })
            .unwrap();
        let plane = lossy(seed);
        let mut ob = obs(&o, 3, &online, &runs, &behavior);
        ob.faults = Some(&plane);
        ex.on_tick(policy, &ob);
        let (stale, stale_at) = held(&ex, 0);
        assert!(Arc::ptr_eq(&first, &stale) && stale_at == 2, "peer 0 missed the update");
        assert_eq!(stale[..], [NodeId(0), NodeId(2), NodeId(3)], "and reads what it was sent");
        let (fresh, fresh_at) = held(&ex, 2);
        assert_eq!((&fresh[..], fresh_at), (&[NodeId(0), NodeId(2), NodeId(3), NodeId(4)][..], 3));
        assert!(Arc::ptr_eq(&fresh, &held(&ex, 3).0) && !Arc::ptr_eq(&fresh, &first));

        // Node 1 loses a neighbor; no stale tail survives the shrink.
        o.remove_edge(NodeId(1), NodeId(3));
        ex.forget_edge(NodeId(1), NodeId(3));
        ex.on_tick(policy, &obs(&o, 4, &online, &runs, &behavior));
        assert_eq!(held(&ex, 0).0[..], [NodeId(0), NodeId(2), NodeId(4)]);
    }
}
