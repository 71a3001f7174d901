//! [`OracleDdPolice`] — a deliberately naive transcription of one full
//! DD-POLICE tick, straight from the paper's prose.
//!
//! Every step is written the obvious way: neighbor-list exchange into a
//! `HashMap` of views (§3.1), per-minute `Out_query`/`In_query` counters read
//! from the overlay (§3.2), warning-threshold triggering (§3.3),
//! `Neighbor_Traffic` exchange with the 50-second re-send suppression and the
//! assume-zero timeout (§3.3–3.4), and the `g(j,t)` / `s(j,t,i)` indicators
//! as the literal Definition 2.1/2.2 expressions (§2). There are **no fast
//! paths**: no per-suspect caches, no report memos, no shared judgments, no
//! bitmask tricks — the hysteresis history is a `Vec<bool>`, the views and
//! verdicts live in `HashMap`s, and every report is resolved independently
//! per observer.
//!
//! The point is *differential testing*: the optimized
//! [`DdPolice`](ddp_police::DdPolice) engine must be observationally
//! equivalent to this model on every scenario the harness can generate. The
//! only intentional equivalences (rather than identities) are:
//!
//! * the hysteresis history is canonicalized to the engine's `u8` bitmask
//!   before comparison (leading `false`s vanish, exactly as the mask's
//!   shifted-out bits do), and
//! * the reliable-exchange branch is transcribed as the engine's
//!   copy-per-neighbor loop, whose fault-plane accounting the engine mirrors
//!   in bulk.
//!
//! Iteration order everywhere matches the engine's (observers `0..n`,
//! neighbor slots in adjacency order, members in announced order, retry
//! attempts ascending) so that the fault plane's mailboxes and dice see the
//! identical call sequence — the transport is deterministic per
//! `(tick, sender, receiver, attempt)`, but late-mail pickup is stateful.

use ddp_metrics::{PeerVerdict, VerdictTransition};
use ddp_police::exchange::ExchangePolicy;
use ddp_police::{DdPoliceConfig, JudgmentTrace, SuspectEntry, SuspectState};
use ddp_sim::{
    Actions, Defense, ReportDelivery, ReportOutcome, Tick, TickObservation, TrafficReport,
};
use ddp_topology::NodeId;
use std::collections::HashMap;

/// One peer's remembered copy of a neighbor's announced list.
#[derive(Debug, Clone, PartialEq)]
struct OracleSnapshot {
    members: Vec<NodeId>,
    taken_at: Tick,
}

/// The naive per-suspect lifecycle state: like the engine's
/// [`SuspectState`] but with the hysteresis history kept as an explicit
/// oldest-first `Vec<bool>` instead of a bitmask.
#[derive(Debug, Clone, PartialEq)]
enum OracleState {
    Watching { history: Vec<bool> },
    Quarantined { until: Tick, backoff: u32 },
    Probation { until: Tick, backoff: u32 },
}

#[derive(Debug, Clone, PartialEq)]
struct OracleEntry {
    state: OracleState,
    list_streak: u8,
}

impl OracleEntry {
    fn fresh() -> Self {
        OracleEntry { state: OracleState::Watching { history: Vec::new() }, list_streak: 0 }
    }
}

/// Fold an oldest-first window of over-`CT` bools into the engine's `u8`
/// bitmask (bit 0 = newest). Leading `false`s vanish, exactly as bits
/// shifted out of the engine's mask do.
fn fold_history(history: &[bool]) -> u8 {
    let mut acc = 0u8;
    for &b in history {
        acc = (acc << 1) | u8::from(b);
    }
    acc
}

fn ledger_state(state: &OracleState) -> PeerVerdict {
    match state {
        OracleState::Watching { history } => {
            if fold_history(history) == 0 {
                PeerVerdict::Normal
            } else {
                PeerVerdict::Suspicious
            }
        }
        OracleState::Quarantined { .. } => PeerVerdict::Quarantined,
        OracleState::Probation { .. } => PeerVerdict::Probation,
    }
}

/// The reference model. Same [`Defense`] interface as the optimized
/// [`DdPolice`](ddp_police::DdPolice), so the two can drive twin simulations
/// in lockstep from identical seeds.
#[derive(Debug)]
pub struct OracleDdPolice {
    cfg: DdPoliceConfig,
    /// `(viewer, announcer)` → the viewer's snapshot of the announcer's list.
    views: HashMap<(u32, u32), OracleSnapshot>,
    /// Event-driven announcements charged since the last tick.
    pending_event_msgs: u64,
    /// `(observer, suspect)` → suspicion lifecycle entry.
    entries: HashMap<(u32, u32), OracleEntry>,
    /// suspect → tick of its group's last `Neighbor_Traffic` exchange (the
    /// paper's 50-second suppression; ticks start at 1, absent = never).
    exchanged_stamp: HashMap<u32, Tick>,
    /// Every `(g, s)` judgment computed, drained by the harness per tick.
    trace: Vec<JudgmentTrace>,
}

impl OracleDdPolice {
    /// A fresh model with the given protocol parameters.
    pub fn new(cfg: DdPoliceConfig) -> Self {
        OracleDdPolice {
            cfg,
            views: HashMap::new(),
            pending_event_msgs: 0,
            entries: HashMap::new(),
            exchanged_stamp: HashMap::new(),
            trace: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DdPoliceConfig {
        &self.cfg
    }

    /// Drain the judgments recorded since the last call.
    pub fn take_trace(&mut self) -> Vec<JudgmentTrace> {
        std::mem::take(&mut self.trace)
    }

    /// Every snapshot held, as `(viewer, announcer, members, taken_at)`
    /// sorted by `(viewer, announcer)` — the canonical form the harness
    /// compares against [`ExchangeState::all_snapshots`](ddp_police::exchange::ExchangeState::all_snapshots).
    pub fn snapshots_canonical(&self) -> Vec<(u32, u32, Vec<NodeId>, Tick)> {
        let mut out: Vec<(u32, u32, Vec<NodeId>, Tick)> =
            self.views.iter().map(|(&(i, j), s)| (i, j, s.members.clone(), s.taken_at)).collect();
        out.sort_unstable_by_key(|&(i, j, _, _)| (i, j));
        out
    }

    /// `observer`'s entries in the engine's [`SuspectEntry`] vocabulary,
    /// sorted by suspect id — canonical form for comparison against
    /// [`VerdictMachine::entries_of`](ddp_police::VerdictMachine::entries_of).
    pub fn entries_of(&self, observer: NodeId) -> Vec<(u32, SuspectEntry)> {
        let mut out: Vec<(u32, SuspectEntry)> = self
            .entries
            .iter()
            .filter(|(&(o, _), _)| o == observer.0)
            .map(|(&(_, s), e)| {
                let state = match &e.state {
                    OracleState::Watching { history } => {
                        SuspectState::Watching { history: fold_history(history) }
                    }
                    OracleState::Quarantined { until, backoff } => {
                        SuspectState::Quarantined { until: *until, backoff: *backoff }
                    }
                    OracleState::Probation { until, backoff } => {
                        SuspectState::Probation { until: *until, backoff: *backoff }
                    }
                };
                (s, SuspectEntry { state, list_streak: e.list_streak })
            })
            .collect();
        out.sort_unstable_by_key(|&(s, _)| s);
        out
    }

    /// Total live `(views, entries)` — the bounded-memory footprint.
    pub fn state_footprint(&self) -> (usize, usize) {
        (self.entries.len(), self.views.len())
    }

    // ----- §3.1: neighbor-list exchanging -------------------------------

    fn exchange_tick(&mut self, obs: &TickObservation<'_>) -> u64 {
        let mut msgs = std::mem::take(&mut self.pending_event_msgs);

        let reliable = obs.faults.is_none_or(|f| f.config().is_inert());

        // Late announcements that matured this tick arrive before any new
        // exchange, and only ever move a view forward in time.
        if !reliable {
            for i_idx in 0..obs.overlay.node_count() {
                let i = NodeId::from_index(i_idx);
                for (announcer, members, sent_at) in obs.matured_lists(i) {
                    if !obs.online[i_idx] || !obs.overlay.contains_edge(i, announcer) {
                        continue;
                    }
                    let newer =
                        self.views.get(&(i.0, announcer.0)).is_none_or(|s| s.taken_at < sent_at);
                    if newer {
                        self.views.insert(
                            (i.0, announcer.0),
                            OracleSnapshot { members, taken_at: sent_at },
                        );
                        obs.note_late_list_applied();
                    }
                }
            }
        }

        let refresh = match self.cfg.exchange {
            // Phase-aligned schedule: exchanges at ticks 1, 1+s, 1+2s, ...
            ExchangePolicy::Periodic { minutes } => {
                obs.tick.wrapping_sub(1).is_multiple_of(minutes.max(1))
            }
            ExchangePolicy::EventDriven => true,
        };
        if !refresh {
            return msgs;
        }
        let periodic = matches!(self.cfg.exchange, ExchangePolicy::Periodic { .. });
        for j_idx in 0..obs.overlay.node_count() {
            if !obs.online[j_idx] {
                continue;
            }
            let j = NodeId::from_index(j_idx);
            if matches!(obs.report_behavior[j_idx], ddp_sim::ReportBehavior::Silent) {
                continue;
            }
            let Some(members) = obs.frozen().announced_list(j) else { continue };
            for slot in 0..obs.overlay.degree(j) {
                let i = obs.overlay.neighbors(j)[slot].peer;
                // The announcer pays for the copy whether or not it arrives.
                if periodic {
                    msgs += 1;
                }
                if let Some(delivered) = obs.transmit_list(j, i, &members) {
                    self.views.insert(
                        (i.0, j.0),
                        OracleSnapshot { members: delivered, taken_at: obs.tick },
                    );
                }
            }
        }
        msgs
    }

    // ----- §3.1: Buddy-Group membership ---------------------------------

    /// Assemble `BGr-suspect` from the observer's snapshot. `None` means no
    /// snapshot (no exchange completed yet).
    fn assemble(
        &self,
        observer: NodeId,
        suspect: NodeId,
        obs: &TickObservation<'_>,
    ) -> Option<Vec<NodeId>> {
        let snap = self.views.get(&(observer.0, suspect.0))?.clone();
        obs.note_snapshot_age(obs.tick.saturating_sub(snap.taken_at));
        let mut members = snap.members;
        if self.cfg.verify_lists {
            // §3.1's consistency check, observer exempt (it polices the
            // suspect because they share a live link).
            members.retain(|&m| m == observer || obs.frozen().confirm_membership(m, suspect));
        }
        if self.cfg.radius >= 2 {
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
        Some(members)
    }

    // ----- §3.3–3.4: Neighbor_Traffic resolution ------------------------

    /// One member's report over the (possibly faulty) transport: bounded
    /// retries, then a late reply within the timeout window, then §3.4's
    /// assume-zero. Refusals are final.
    fn resolve_report(
        &self,
        observer: NodeId,
        reporter: NodeId,
        suspect: NodeId,
        obs: &TickObservation<'_>,
        retry_msgs: &mut u64,
    ) -> Option<TrafficReport> {
        let answer = obs.frozen().request_report(reporter, suspect);
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

    // ----- §2 + §3.4: indicators and aggregation ------------------------

    /// Combine the group's claims under the configured aggregation policy:
    /// `(Σ_m Q_{j→m}, Σ_m Q_{m→j})`, with missing reports assumed zero.
    fn aggregate(
        &self,
        own: TrafficReport,
        member_reports: &[Option<TrafficReport>],
    ) -> (f64, f64) {
        match self.cfg.aggregation {
            ddp_police::AggregationPolicy::Sum => {
                let mut out_of_suspect = own.received_from_suspect as f64;
                let mut into_suspect = own.sent_to_suspect as f64;
                for r in member_reports.iter().flatten() {
                    out_of_suspect += r.received_from_suspect as f64;
                    into_suspect += r.sent_to_suspect as f64;
                }
                (out_of_suspect, into_suspect)
            }
            ddp_police::AggregationPolicy::Median
            | ddp_police::AggregationPolicy::TrimmedMean { .. } => {
                let mut into_suspect = own.sent_to_suspect as f64;
                for r in member_reports.iter().flatten() {
                    into_suspect += r.sent_to_suspect as f64;
                }
                let mut claims: Vec<f64> = Vec::with_capacity(member_reports.len() + 1);
                claims.push(own.received_from_suspect as f64);
                for r in member_reports {
                    claims.push(r.map_or(0.0, |r| r.received_from_suspect as f64));
                }
                claims.sort_by(|a, b| a.partial_cmp(b).expect("claims are finite"));
                let k = claims.len();
                let center = match self.cfg.aggregation {
                    ddp_police::AggregationPolicy::Median => median_sorted(&claims),
                    ddp_police::AggregationPolicy::TrimmedMean { trim } => {
                        trimmed_mean_sorted(&claims, trim)
                    }
                    ddp_police::AggregationPolicy::Sum => unreachable!(),
                };
                (center * k as f64, into_suspect)
            }
        }
    }

    /// Definition 2.1, transcribed:
    /// `g(j,t) = (Σ_m Q_{j→m} − (k−1)·Σ_m Q_{m→j}) / (k·q)`.
    fn general_indicator(&self, sum_out_of_suspect: f64, sum_into_suspect: f64, k: usize) -> f64 {
        let q = self.cfg.q_qpm;
        if k == 0 || q == 0 {
            return 0.0;
        }
        (sum_out_of_suspect - (k as f64 - 1.0) * sum_into_suspect) / (k as f64 * q as f64)
    }

    /// Definition 2.2, transcribed:
    /// `s(j,t,i) = (Q_{j→i} − Σ_{m≠i} Q_{m→j}) / q`.
    fn single_indicator(&self, q_suspect_to_observer: f64, sum_into_except_observer: f64) -> f64 {
        let q = self.cfg.q_qpm;
        if q == 0 {
            return 0.0;
        }
        (q_suspect_to_observer - sum_into_except_observer) / q as f64
    }

    // ----- verdict lifecycle (naive HashMap transcription) --------------

    fn below_warning(&mut self, observer: NodeId, suspect: NodeId) {
        if let Some(e) = self.entries.get(&(observer.0, suspect.0)) {
            if matches!(e.state, OracleState::Watching { .. }) {
                self.entries.remove(&(observer.0, suspect.0));
            }
        }
    }

    fn note_list_missing(&mut self, observer: NodeId, suspect: NodeId) -> u8 {
        let entry = self.entries.entry((observer.0, suspect.0)).or_insert_with(OracleEntry::fresh);
        entry.list_streak = entry.list_streak.saturating_add(1);
        entry.list_streak
    }

    fn note_list_ok(&mut self, observer: NodeId, suspect: NodeId) {
        if let Some(e) = self.entries.get_mut(&(observer.0, suspect.0)) {
            e.list_streak = 0;
        }
    }

    /// Feed one judged window into the lifecycle. Mirrors
    /// [`VerdictShard::judged`](ddp_police::VerdictShard::judged) with
    /// the history as an explicit window of bools.
    fn judged(
        &mut self,
        observer: NodeId,
        suspect: NodeId,
        over_ct: bool,
        tick: Tick,
        actions: &mut Actions,
    ) -> bool {
        let key = (observer.0, suspect.0);
        let entry = self.entries.entry(key).or_insert_with(OracleEntry::fresh).clone();
        let (cut, from, next_backoff) = match &entry.state {
            OracleState::Watching { history } => {
                let window = usize::from(self.cfg.hysteresis.window.clamp(1, 8));
                let required = u32::from(self.cfg.hysteresis.required.max(1)).min(window as u32);
                let mut new_history = history.clone();
                new_history.push(over_ct);
                while new_history.len() > window {
                    new_history.remove(0);
                }
                let over_count = new_history.iter().filter(|&&b| b).count() as u32;
                if over_count >= required {
                    (true, ledger_state(&entry.state), None)
                } else {
                    let was_normal = fold_history(history) == 0;
                    let now_suspicious = fold_history(&new_history) != 0;
                    if now_suspicious && was_normal {
                        actions.transition(VerdictTransition {
                            tick,
                            observer: observer.0,
                            suspect: suspect.0,
                            from: PeerVerdict::Normal,
                            to: PeerVerdict::Suspicious,
                        });
                    }
                    if !now_suspicious && entry.list_streak == 0 {
                        self.entries.remove(&key);
                    } else {
                        self.entries.insert(
                            key,
                            OracleEntry {
                                state: OracleState::Watching { history: new_history },
                                list_streak: entry.list_streak,
                            },
                        );
                    }
                    (false, PeerVerdict::Normal, None)
                }
            }
            OracleState::Probation { backoff, .. } => {
                if over_ct {
                    (
                        true,
                        PeerVerdict::Probation,
                        Some(backoff.saturating_mul(2).min(self.cfg.readmission.max_backoff_ticks)),
                    )
                } else {
                    (false, PeerVerdict::Probation, None)
                }
            }
            OracleState::Quarantined { .. } => (false, PeerVerdict::Quarantined, None),
        };
        if !cut {
            return false;
        }
        actions.transition(VerdictTransition {
            tick,
            observer: observer.0,
            suspect: suspect.0,
            from,
            to: PeerVerdict::Cut,
        });
        actions.transition(VerdictTransition {
            tick,
            observer: observer.0,
            suspect: suspect.0,
            from: PeerVerdict::Cut,
            to: PeerVerdict::Quarantined,
        });
        if self.cfg.readmission.enabled {
            let backoff = next_backoff.unwrap_or(self.cfg.readmission.base_backoff_ticks).max(1);
            self.entries.insert(
                key,
                OracleEntry {
                    state: OracleState::Quarantined {
                        until: tick.saturating_add(backoff),
                        backoff,
                    },
                    list_streak: 0,
                },
            );
        } else {
            self.entries.remove(&key);
        }
        true
    }

    fn fire_probes(&mut self, observer: NodeId, tick: Tick, actions: &mut Actions) {
        let mut due: Vec<u32> = self
            .entries
            .iter()
            .filter_map(|(&(o, s), e)| match e.state {
                OracleState::Quarantined { until, .. } if o == observer.0 && tick >= until => {
                    Some(s)
                }
                _ => None,
            })
            .collect();
        due.sort_unstable();
        for s in due {
            let entry = self.entries.get_mut(&(observer.0, s)).expect("just listed");
            let OracleState::Quarantined { backoff, .. } = entry.state else { unreachable!() };
            entry.state = OracleState::Probation {
                until: tick.saturating_add(self.cfg.readmission.probation_ticks),
                backoff,
            };
            actions.reconnect(observer, NodeId(s));
            actions.transition(VerdictTransition {
                tick,
                observer: observer.0,
                suspect: s,
                from: PeerVerdict::Quarantined,
                to: PeerVerdict::Probation,
            });
        }
    }

    fn expire_probations(&mut self, observer: NodeId, tick: Tick, actions: &mut Actions) {
        let mut done: Vec<u32> = self
            .entries
            .iter()
            .filter_map(|(&(o, s), e)| match e.state {
                OracleState::Probation { until, .. } if o == observer.0 && tick >= until => Some(s),
                _ => None,
            })
            .collect();
        done.sort_unstable();
        for s in done {
            self.entries.remove(&(observer.0, s));
            actions.transition(VerdictTransition {
                tick,
                observer: observer.0,
                suspect: s,
                from: PeerVerdict::Probation,
                to: PeerVerdict::Readmitted,
            });
        }
    }

    fn expire_stale(&mut self, observer: NodeId, tick: Tick, online: &[bool]) {
        let ttl = self.cfg.suspect_ttl_ticks;
        let keys: Vec<u32> =
            self.entries.keys().filter(|&&(o, _)| o == observer.0).map(|&(_, s)| s).collect();
        for s in keys {
            let e = &self.entries[&(observer.0, s)];
            let gone = !online.get(s as usize).copied().unwrap_or(false);
            let keep = match e.state {
                OracleState::Watching { .. } => !gone,
                OracleState::Quarantined { until, .. } | OracleState::Probation { until, .. } => {
                    if gone {
                        tick < until
                    } else {
                        tick <= until.saturating_add(ttl)
                    }
                }
            };
            if !keep {
                self.entries.remove(&(observer.0, s));
            }
        }
    }

    fn blocks_link(&self, observer: NodeId, suspect: NodeId) -> bool {
        matches!(
            self.entries.get(&(observer.0, suspect.0)),
            Some(OracleEntry {
                state: OracleState::Quarantined { .. } | OracleState::Probation { .. },
                ..
            })
        )
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let k = sorted.len();
    if k == 0 {
        return 0.0;
    }
    if k % 2 == 1 {
        sorted[k / 2]
    } else {
        (sorted[k / 2 - 1] + sorted[k / 2]) / 2.0
    }
}

fn trimmed_mean_sorted(sorted: &[f64], trim: f64) -> f64 {
    let k = sorted.len();
    if k == 0 {
        return 0.0;
    }
    let drop = ((k as f64) * trim.clamp(0.0, 0.5)).floor() as usize;
    let kept = &sorted[drop.min(k / 2)..k - drop.min((k - 1) / 2)];
    if kept.is_empty() {
        return median_sorted(sorted);
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

impl Defense for OracleDdPolice {
    fn name(&self) -> &'static str {
        "dd-police-oracle"
    }

    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
        actions.control_msgs += self.exchange_tick(obs);

        let n = obs.overlay.node_count();
        for i in 0..n {
            if !obs.runs_defense[i] {
                continue;
            }
            let observer = NodeId::from_index(i);
            if self.cfg.suspect_ttl_ticks != u32::MAX {
                self.expire_stale(observer, obs.tick, obs.online);
            }
            if self.cfg.readmission.enabled {
                self.expire_probations(observer, obs.tick, actions);
                let before = actions.reconnects.len();
                self.fire_probes(observer, obs.tick, actions);
                actions.control_msgs += (actions.reconnects.len() - before) as u64;
            }
            for slot in 0..obs.overlay.degree(observer) {
                let half = obs.overlay.neighbors(observer)[slot];
                let suspect = half.peer;
                // In_query(suspect): what the observer accepted from it.
                let q_ji = obs.overlay.accepted_via(suspect, half.ridx as usize);
                if q_ji <= self.cfg.warning_threshold_qpm {
                    self.below_warning(observer, suspect);
                    continue;
                }
                // §3.3: over the warning threshold — assemble the group.
                let members = match self.assemble(observer, suspect, obs) {
                    Some(members) => {
                        self.note_list_ok(observer, suspect);
                        members
                    }
                    None => {
                        let streak = self.note_list_missing(observer, suspect);
                        if streak < self.cfg.missing_list_grace {
                            continue;
                        }
                        // Never announced a list: judged from the observer's
                        // own counters alone.
                        vec![observer]
                    }
                };
                // The 50-second suppression: one k(k−1)-message
                // Neighbor_Traffic round per suspect per tick across all of
                // its observers.
                let k = members.len();
                if self.exchanged_stamp.get(&suspect.0) != Some(&obs.tick) {
                    self.exchanged_stamp.insert(suspect.0, obs.tick);
                    let ku = k as u64;
                    actions.control_msgs += ku * ku.saturating_sub(1);
                }
                let own = TrafficReport {
                    sent_to_suspect: obs.overlay.accepted_via(observer, slot),
                    received_from_suspect: q_ji,
                };
                let mut retry_msgs = 0u64;
                let mut member_reports: Vec<Option<TrafficReport>> =
                    Vec::with_capacity(members.len());
                for &m in &members {
                    if m == observer {
                        continue; // own counters are summed directly
                    }
                    let report = self
                        .resolve_report(observer, m, suspect, obs, &mut retry_msgs)
                        .map(|mut r| {
                            if self.cfg.clamp_reports_to_link {
                                r.sent_to_suspect =
                                    r.sent_to_suspect.min(obs.overlay.link_capacity(m, suspect));
                            }
                            r
                        });
                    member_reports.push(report);
                }
                actions.control_msgs += retry_msgs;
                let (sum_out, sum_in) = self.aggregate(own, &member_reports);
                let g = self.general_indicator(sum_out, sum_in, k);
                let s = self.single_indicator(q_ji as f64, sum_in - own.sent_to_suspect as f64);
                self.trace.push(JudgmentTrace { tick: obs.tick, observer, suspect, g, s });
                let over_ct = g > self.cfg.cut_threshold || s > self.cfg.cut_threshold;
                if self.judged(observer, suspect, over_ct, obs.tick, actions) {
                    actions.cut(observer, suspect);
                }
            }
        }
    }

    fn on_peer_reset(&mut self, node: NodeId) {
        self.views.retain(|&(viewer, _), _| viewer != node.0);
        self.entries.retain(|&(observer, _), _| observer != node.0);
    }

    fn on_peer_departed(&mut self, node: NodeId) {
        self.views.retain(|&(viewer, announcer), _| viewer != node.0 && announcer != node.0);
        self.entries.retain(|&(observer, suspect), _| observer != node.0 && suspect != node.0);
    }

    fn forbids_link(&self, u: NodeId, v: NodeId) -> bool {
        self.blocks_link(u, v) || self.blocks_link(v, u)
    }

    fn on_edge_added(&mut self, _u: NodeId, _v: NodeId, deg_u: usize, deg_v: usize) {
        if self.cfg.exchange == ExchangePolicy::EventDriven {
            self.pending_event_msgs += (deg_u + deg_v) as u64;
        }
    }

    fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        if self.cfg.exchange == ExchangePolicy::EventDriven {
            self.pending_event_msgs += (deg_u + deg_v) as u64;
        }
        self.views.remove(&(u.0, v.0));
        self.views.remove(&(v.0, u.0));
        // Watching/Probation state dies with the edge; quarantine owns the
        // readmission clock and survives its own cut.
        for (a, b) in [(u, v), (v, u)] {
            if let Some(e) = self.entries.get(&(a.0, b.0)) {
                if !matches!(e.state, OracleState::Quarantined { .. }) {
                    self.entries.remove(&(a.0, b.0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_folds_to_the_engines_bitmask() {
        assert_eq!(fold_history(&[]), 0);
        assert_eq!(fold_history(&[true]), 0b1);
        assert_eq!(fold_history(&[true, false]), 0b10);
        assert_eq!(fold_history(&[false, true, true]), 0b011);
        // Leading falses vanish, like bits shifted out of the engine's mask.
        assert_eq!(fold_history(&[false, false, true]), fold_history(&[true]));
    }

    #[test]
    fn naive_indicators_match_the_engines_expressions() {
        let oracle = OracleDdPolice::new(DdPoliceConfig::default());
        let q = DdPoliceConfig::default().q_qpm;
        for (out, into, k) in [(400.0, 30.0, 3usize), (20_000.0, 0.0, 1), (0.0, 900.0, 5)] {
            let want = ddp_police::indicator::general_indicator(out, into, k, q);
            assert_eq!(oracle.general_indicator(out, into, k).to_bits(), want.to_bits());
        }
        for (qji, rest) in [(700.0, 30.0), (20_000.0, 0.0), (10.0, 900.0)] {
            let want = ddp_police::indicator::single_indicator(qji, rest, q);
            assert_eq!(oracle.single_indicator(qji, rest).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn degenerate_indicator_inputs_are_zero() {
        let cfg = DdPoliceConfig { q_qpm: 0, ..DdPoliceConfig::default() };
        let oracle = OracleDdPolice::new(cfg);
        assert_eq!(oracle.general_indicator(100.0, 50.0, 3), 0.0);
        assert_eq!(oracle.single_indicator(100.0, 50.0), 0.0);
        let oracle = OracleDdPolice::new(DdPoliceConfig::default());
        assert_eq!(oracle.general_indicator(100.0, 50.0, 0), 0.0);
    }
}
