//! The suspicion state machine and collusion-resistant report aggregation.
//!
//! The paper's verdict is single-shot: one over-`CT` window severs the link
//! forever, and the Buddy-Group sums trust every report (missing ones are
//! assumed zero, §3.4). PR 2 hardens both decisions while keeping the
//! paper's behavior as the bit-identical default:
//!
//! * **Hysteresis** — a cut requires the indicator over `CT` in `W`-of-`K`
//!   consecutive suspicious windows ([`Hysteresis`], default `1`-of-`1` =
//!   the paper). A below-warning window breaks the chain.
//! * **Quarantine / probation** — a cut peer may be re-dialed after an
//!   exponential backoff and watched on probation; a probationary
//!   re-offense re-cuts immediately (no hysteresis) and doubles the
//!   backoff ([`ReadmissionPolicy`], disabled by default — the paper's cut
//!   is permanent).
//! * **Robust aggregation** — the General-Indicator numerator
//!   `Σ_m Q_{j→m}` can be replaced by `k ×` the coordinate's median or
//!   trimmed mean across the `k` member claims ([`AggregationPolicy`]),
//!   bounding what a colluding minority of the Buddy Group can add or hide.
//!
//! ### Why aggregation is asymmetric (a reproduction finding)
//!
//! Robust centering applies **only** to the out-of-suspect coordinate
//! (`Q_{j→m}`, what members claim to have *received from* the suspect).
//! That is the framing lever: each colluder can inflate its own claim
//! without bound, and honest flood forwarding spreads output roughly
//! uniformly across links, so a median/trimmed center is meaningful there.
//! The into-suspect coordinate (`Q_{m→j}`) stays a plain
//! sum-with-assume-zero: duplicate suppression concentrates a forwarder's
//! *accepted input* on one or two links, so a median of the into-claims is
//! ≈ 0 for perfectly innocent forwarders and `k × median` would destroy
//! the exoneration arithmetic (`g ≈ Q_in/q > CT`) with zero colluders
//! present. Deflating the into-coordinate is the paper's own accepted
//! Case-2/Silent residual and no aggregation rule can fix it.

use ddp_metrics::{PeerVerdict, VerdictTransition};
use ddp_sim::{Actions, Tick, TrafficReport};
use ddp_topology::NodeId;

use crate::exchange::HolderIndex;
use crate::police::group_traffic_sums;

/// How an observer combines the Buddy Group's traffic claims.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AggregationPolicy {
    /// The paper's rule: sum every claim, assume zero for missing reports.
    #[default]
    Sum,
    /// Robust center: `k ×` the trimmed mean of the `k` out-of-suspect
    /// claims (drop `⌊trim·k⌋` from each end). Into-suspect claims stay
    /// summed (see module docs).
    TrimmedMean {
        /// Fraction trimmed from each tail, `0.0..0.5`.
        trim: f64,
    },
    /// Robust center: `k ×` the coordinate-wise median of the `k`
    /// out-of-suspect claims. Into-suspect claims stay summed.
    Median,
}

/// W-of-K confirmation windows before a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hysteresis {
    /// Windows over `CT` required within the last `window` suspicious
    /// windows (clamped to `window` at use).
    pub required: u8,
    /// Size of the sliding window of consecutive suspicious windows, `1..=8`.
    pub window: u8,
}

impl Default for Hysteresis {
    fn default() -> Self {
        // The paper: one over-CT window cuts.
        Hysteresis { required: 1, window: 1 }
    }
}

impl Hysteresis {
    /// Effective (required, window) after clamping to the `1..=8` bitmask.
    fn effective(self) -> (u32, u32) {
        let window = u32::from(self.window.clamp(1, 8));
        let required = u32::from(self.required.max(1)).min(window);
        (required, window)
    }
}

/// Quarantine / probation lifecycle after a cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadmissionPolicy {
    /// Whether cut peers are ever probed for readmission. Off by default:
    /// the paper's disconnect is permanent.
    pub enabled: bool,
    /// Quarantine length after the first cut, ticks.
    pub base_backoff_ticks: u32,
    /// Backoff cap; each probationary re-cut doubles the backoff up to this.
    pub max_backoff_ticks: u32,
    /// How long a re-dialed peer stays on probation (re-offense within this
    /// window re-cuts without hysteresis) before being fully readmitted.
    pub probation_ticks: u32,
}

impl Default for ReadmissionPolicy {
    fn default() -> Self {
        ReadmissionPolicy {
            enabled: false,
            base_backoff_ticks: 4,
            max_backoff_ticks: 64,
            probation_ticks: 3,
        }
    }
}

/// Combine the Buddy Group's claims about the suspect under `policy`.
/// Returns `(Σ_m Q_{j→m}, Σ_m Q_{m→j})` — the General-Indicator numerator
/// pair, exactly as [`group_traffic_sums`] does for [`AggregationPolicy::Sum`]
/// (same f64s, bit for bit).
pub fn aggregate_group_traffic(
    own: TrafficReport,
    member_reports: &[Option<TrafficReport>],
    policy: AggregationPolicy,
) -> (f64, f64) {
    aggregate_group_traffic_with(own, member_reports, policy, &mut Vec::new())
}

/// [`aggregate_group_traffic`] with the robust policies' sort buffer supplied
/// by the caller (cleared here), so a loop of judgments allocates it once.
pub fn aggregate_group_traffic_with(
    own: TrafficReport,
    member_reports: &[Option<TrafficReport>],
    policy: AggregationPolicy,
    claims: &mut Vec<f64>,
) -> (f64, f64) {
    match policy {
        AggregationPolicy::Sum => group_traffic_sums(own, member_reports),
        AggregationPolicy::TrimmedMean { .. } | AggregationPolicy::Median => {
            // Into-suspect: always the paper's sum-with-assume-zero.
            let mut into_suspect = own.sent_to_suspect as f64;
            for r in member_reports.iter().flatten() {
                into_suspect += r.sent_to_suspect as f64;
            }
            // Out-of-suspect: robust center × k. A missing report is the
            // assume-zero claim, so silence still drags the center down,
            // never up.
            claims.clear();
            claims.push(own.received_from_suspect as f64);
            for r in member_reports {
                claims.push(r.map_or(0.0, |r| r.received_from_suspect as f64));
            }
            claims.sort_by(|a, b| a.partial_cmp(b).expect("claims are finite"));
            let k = claims.len();
            let center = match policy {
                AggregationPolicy::Median => median_sorted(claims),
                AggregationPolicy::TrimmedMean { trim } => trimmed_mean_sorted(claims, trim),
                AggregationPolicy::Sum => unreachable!(),
            };
            (center * k as f64, into_suspect)
        }
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
        // Over-trimmed: fall back to the median (the 50% limit point).
        return median_sorted(sorted);
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// One observer's live suspicion state about one suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspectState {
    /// Over-warning but not cut: `history` is a bitmask of the last
    /// suspicious windows (bit 0 = newest; 1 = indicator over `CT`).
    Watching {
        /// Recent over-`CT` window bits.
        history: u8,
    },
    /// Cut and waiting out the backoff until `until`.
    Quarantined {
        /// Tick the readmission probe fires.
        until: Tick,
        /// Current backoff length (doubles on re-cut).
        backoff: u32,
    },
    /// Re-dialed and under zero-tolerance watch until `until`.
    Probation {
        /// Tick probation ends in full readmission.
        until: Tick,
        /// Backoff carried into a potential re-cut.
        backoff: u32,
    },
}

/// Per-suspect bookkeeping one observer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspectEntry {
    /// Lifecycle position.
    pub state: SuspectState,
    /// Consecutive suspicious ticks without a usable neighbor-list snapshot
    /// (the missing-list grace counter, unchanged from the pre-PR streaks).
    pub list_streak: u8,
}

impl SuspectEntry {
    fn fresh() -> Self {
        SuspectEntry { state: SuspectState::Watching { history: 0 }, list_streak: 0 }
    }
}

impl ddp_snapshot::Snapshottable for SuspectState {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        match *self {
            SuspectState::Watching { history } => {
                enc.u8(0);
                enc.u8(history);
            }
            SuspectState::Quarantined { until, backoff } => {
                enc.u8(1);
                enc.u32(until);
                enc.u32(backoff);
            }
            SuspectState::Probation { until, backoff } => {
                enc.u8(2);
                enc.u32(until);
                enc.u32(backoff);
            }
        }
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(match dec.u8()? {
            0 => SuspectState::Watching { history: dec.u8()? },
            1 => SuspectState::Quarantined { until: dec.u32()?, backoff: dec.u32()? },
            2 => SuspectState::Probation { until: dec.u32()?, backoff: dec.u32()? },
            _ => return Err(ddp_snapshot::SnapshotError::Corrupt { what: "suspect state tag" }),
        })
    }
}

impl ddp_snapshot::Snapshottable for SuspectEntry {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        enc.put(&self.state);
        enc.u8(self.list_streak);
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(SuspectEntry { state: dec.get()?, list_streak: dec.u8()? })
    }
}

/// One change to the suspect → observers index: `observer` gained
/// (`listed`) or dropped its entry about `suspect`. The per-observer
/// operations of a [`VerdictShard`] record these instead of touching the
/// index, because the index — keyed by *suspect* — is shared across shards;
/// `DdPolice::on_tick` replays each shard's log in partition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEdit {
    observer: u32,
    suspect: u32,
    listed: bool,
}

impl IndexEdit {
    fn listed(observer: NodeId, suspect: u32) -> Self {
        IndexEdit { observer: observer.0, suspect, listed: true }
    }

    fn unlisted(observer: NodeId, suspect: u32) -> Self {
        IndexEdit { observer: observer.0, suspect, listed: false }
    }

    fn apply(self, about: &mut HolderIndex) {
        if self.listed {
            about.list(self.suspect, self.observer);
        } else {
            about.unlist(self.suspect, self.observer);
        }
    }
}

/// One observer's entries, strictly ascending by suspect id: lookups are a
/// binary search over a handful of entries, and every enumeration (probe
/// order, the snapshot, the differential harness) is in canonical order
/// without sorting. An observer that suspects nobody pays one empty `Vec`.
type Row = Vec<(u32, SuspectEntry)>;

/// Where `suspect` sits in `row`: `Ok` at its entry, `Err` where it belongs.
fn find(row: &[(u32, SuspectEntry)], suspect: u32) -> Result<usize, usize> {
    row.binary_search_by_key(&suspect, |&(s, _)| s)
}

/// `row`'s entry about `suspect`, if any.
fn get(row: &[(u32, SuspectEntry)], suspect: u32) -> Option<&SuspectEntry> {
    find(row, suspect).ok().map(|pos| &row[pos].1)
}

/// Drop `row`'s entry about `suspect`, if any.
fn remove(row: &mut Row, suspect: u32) {
    if let Ok(pos) = find(row, suspect) {
        row.remove(pos);
    }
}

/// All observers' suspicion state machines.
#[derive(Debug)]
pub struct VerdictMachine {
    /// Per-observer row of `(suspect id, entry)`, see [`Row`].
    entries: Vec<Row>,
    /// Suspect → the observers holding an entry about it: the exact
    /// transpose of `entries`, so a departure visits only those observers.
    about: HolderIndex,
}

fn ledger_state(state: SuspectState) -> PeerVerdict {
    match state {
        SuspectState::Watching { history } => {
            if history == 0 {
                PeerVerdict::Normal
            } else {
                PeerVerdict::Suspicious
            }
        }
        SuspectState::Quarantined { .. } => PeerVerdict::Quarantined,
        SuspectState::Probation { .. } => PeerVerdict::Probation,
    }
}

impl VerdictMachine {
    /// State machines for `n` observer slots.
    pub fn new(n: usize) -> Self {
        VerdictMachine { entries: vec![Vec::new(); n], about: HolderIndex::new(n) }
    }

    /// Replay the edit log a [`VerdictShard`] handed back through
    /// [`VerdictShard::into_index_edits`]. Call once per shard, in partition
    /// order, before anything reads the index again.
    pub fn replay_index_edits(&mut self, edits: Vec<IndexEdit>) {
        for e in edits {
            e.apply(&mut self.about);
        }
    }

    /// The entry `observer` holds about `suspect`, if any (for tests).
    pub fn entry(&self, observer: NodeId, suspect: NodeId) -> Option<SuspectEntry> {
        get(&self.entries[observer.index()], suspect.0).copied()
    }

    /// Whether `observer` currently has `suspect` on probation.
    pub fn on_probation(&self, observer: NodeId, suspect: NodeId) -> bool {
        matches!(
            get(&self.entries[observer.index()], suspect.0),
            Some(SuspectEntry { state: SuspectState::Probation { .. }, .. })
        )
    }

    /// An overlay edge between `u` and `v` vanished (cut or churn): drop
    /// both directions' Watching/Probation state. Quarantine survives — it
    /// is the expected post-cut state and owns the readmission clock.
    pub fn forget_edge(&mut self, u: NodeId, v: NodeId) {
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.entries[a.index()];
            if let Ok(pos) = find(row, b.0) {
                if !matches!(row[pos].1.state, SuspectState::Quarantined { .. }) {
                    row.remove(pos);
                    self.about.unlist(b.0, a.0);
                }
            }
        }
    }

    /// `node` restarted or rejoined as a new peer: its own suspicion state
    /// is gone (matches the pre-PR streak wipe; other observers keep their
    /// verdicts about `node` — identity is positional in this simulator).
    pub fn reset_observer(&mut self, node: NodeId) {
        for &(suspect, _) in &self.entries[node.index()] {
            self.about.unlist(suspect, node.0);
        }
        self.entries[node.index()].clear();
    }

    /// `suspect` departed the overlay for good (graceful leave, or its slot
    /// is about to be recycled): every observer drops whatever verdict it
    /// holds about that identity — including quarantine, since there is
    /// nobody left to probe and a future occupant of the address must not
    /// inherit the sentence. Visits only the observers the index lists.
    pub fn forget_suspect(&mut self, suspect: NodeId) {
        for &observer in self.about.holders(suspect.0) {
            remove(&mut self.entries[observer as usize], suspect.0);
        }
        self.about.clear(suspect.0);
    }

    /// Grow to at least `n` observer slots (session-model node growth).
    pub fn ensure_slots(&mut self, n: usize) {
        if self.entries.len() < n {
            self.entries.resize_with(n, Vec::new);
        }
        self.about.ensure_slots(n);
    }

    /// Number of observer slots currently allocated — the value
    /// [`shards`](Self::shards) requires the final bound to equal.
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }

    /// Split the machine into disjoint per-partition [`VerdictShard`]s along
    /// `bounds` (the partitioner's `boundaries()` layout: ascending, starting
    /// at 0 and ending at the observer count). Each shard owns the suspicion
    /// state of one contiguous observer range, so worker threads can judge
    /// their partitions concurrently while the borrow checker proves no two
    /// ever touch the same observer's entries.
    pub fn shards<'a>(&'a mut self, bounds: &[usize]) -> Vec<VerdictShard<'a>> {
        assert_eq!(bounds.first(), Some(&0), "bounds must start at 0");
        assert_eq!(bounds.last(), Some(&self.entries.len()), "bounds must end at observer count");
        let mut shards = Vec::with_capacity(bounds.len().saturating_sub(1));
        let mut rest: &mut [Row] = &mut self.entries;
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
            shards.push(VerdictShard { base: w[0], entries: head, edits: Vec::new() });
            rest = tail;
        }
        shards
    }

    /// Whether `observer` holds a live quarantine or probation verdict about
    /// `suspect` — the self-healing rewiring's veto predicate.
    pub fn blocks_link(&self, observer: NodeId, suspect: NodeId) -> bool {
        matches!(
            self.entries.get(observer.index()).and_then(|row| get(row, suspect.0)),
            Some(SuspectEntry {
                state: SuspectState::Quarantined { .. } | SuspectState::Probation { .. },
                ..
            })
        )
    }

    /// Total live entries across all observers (bounded-memory diagnostics).
    pub fn total_entries(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// How many observers hold an entry about `suspect` (diagnostics).
    pub fn entries_about(&self, suspect: NodeId) -> usize {
        self.holders_of(suspect).len()
    }

    /// The observers currently holding an entry about `suspect`, in no
    /// particular order — the index's answer, for diagnostics and the
    /// index-exactness tests.
    pub fn holders_of(&self, suspect: NodeId) -> &[u32] {
        self.about.holders(suspect.0)
    }

    /// Serialize every observer's row as it is, ascending by suspect id.
    pub fn save_state(&self, enc: &mut ddp_snapshot::Enc) {
        enc.usize(self.entries.len());
        for row in &self.entries {
            enc.usize(row.len());
            for (s, e) in row {
                enc.u32(*s);
                enc.put(e);
            }
        }
    }

    /// Rebuild a verdict machine saved by [`VerdictMachine::save_state`]. A
    /// row whose suspect ids are not strictly ascending is corrupt: no
    /// writer produces one, and a duplicate would otherwise load as two
    /// entries about one suspect.
    pub fn load_state(
        dec: &mut ddp_snapshot::Dec<'_>,
    ) -> Result<Self, ddp_snapshot::SnapshotError> {
        let n = dec.len("verdict observers")?;
        let mut entries = Vec::with_capacity(n);
        let mut about = HolderIndex::new(n);
        for observer in 0..n {
            let k = dec.len("verdict entries")?;
            let mut row = Vec::with_capacity(k);
            for _ in 0..k {
                let s = dec.u32()?;
                let e: SuspectEntry = dec.get()?;
                if s as usize >= n {
                    return Err(ddp_snapshot::SnapshotError::Corrupt {
                        what: "verdict suspect id",
                    });
                }
                if row.last().is_some_and(|&(prev, _)| prev >= s) {
                    return Err(ddp_snapshot::SnapshotError::Corrupt {
                        what: "verdict suspect order",
                    });
                }
                row.push((s, e));
                about.list(s, observer as u32);
            }
            entries.push(row);
        }
        Ok(VerdictMachine { entries, about })
    }

    /// Every entry `observer` holds, ascending by suspect id — the
    /// enumeration equivalence checks (differential harness) compare through.
    pub fn entries_of(&self, observer: NodeId) -> Vec<(u32, SuspectEntry)> {
        self.entries.get(observer.index()).cloned().unwrap_or_default()
    }
}

/// A disjoint slice of a [`VerdictMachine`]: the suspicion state of one
/// contiguous observer range `base..base + entries.len()`, carved out by
/// [`VerdictMachine::shards`]. The per-observer operations of the lifecycle
/// live here and only here: the judgment driver (`police::judge_range`) runs
/// one shard over the whole range on one thread or one per partition on the
/// worker pool, so a sharded run makes bit-identical per-observer decisions
/// to a serial one.
pub struct VerdictShard<'a> {
    base: usize,
    entries: &'a mut [Row],
    /// Every index edit this shard's operations made, in call order. The
    /// suspect-keyed index is shared across shards, so the worker hands the
    /// log back for [`VerdictMachine::replay_index_edits`] on the reducer.
    edits: Vec<IndexEdit>,
}

impl VerdictShard<'_> {
    /// `observer`'s row, plus the edit log its mutations are recorded in.
    fn parts(&mut self, observer: NodeId) -> (&mut Row, &mut Vec<IndexEdit>) {
        (&mut self.entries[observer.index() - self.base], &mut self.edits)
    }

    /// Finish the shard, yielding its index-edit log. The machine's index is
    /// stale until every shard's log has been replayed.
    pub fn into_index_edits(self) -> Vec<IndexEdit> {
        self.edits
    }

    /// Fire matured readmission probes for `observer`: each quarantined
    /// suspect whose backoff elapsed is re-dialed (via `actions.reconnect`)
    /// and moves to probation. No-op while readmission is disabled.
    pub fn fire_probes(
        &mut self,
        observer: NodeId,
        tick: Tick,
        readmission: ReadmissionPolicy,
        actions: &mut Actions,
    ) {
        if !readmission.enabled {
            return;
        }
        // Ascending suspect order: the row's own.
        for (s, entry) in self.parts(observer).0.iter_mut() {
            let SuspectState::Quarantined { until, backoff } = entry.state else { continue };
            if tick < until {
                continue;
            }
            let s = *s;
            entry.state = SuspectState::Probation {
                until: tick.saturating_add(readmission.probation_ticks),
                backoff,
            };
            let suspect = NodeId(s);
            actions.reconnect(observer, suspect);
            actions.transition(VerdictTransition {
                tick,
                observer: observer.0,
                suspect: s,
                from: PeerVerdict::Quarantined,
                to: PeerVerdict::Probation,
            });
        }
    }

    /// Expire `observer`'s probations that ended at or before `tick`: the
    /// suspect is fully readmitted and its suspicion state dropped.
    pub fn expire_probations(&mut self, observer: NodeId, tick: Tick, actions: &mut Actions) {
        let (row, edits) = self.parts(observer);
        // Ascending suspect order: the row's own.
        row.retain(|&(s, e)| {
            let SuspectState::Probation { until, .. } = e.state else { return true };
            if tick < until {
                return true;
            }
            log_unlisted(edits, observer, s);
            actions.transition(VerdictTransition {
                tick,
                observer: observer.0,
                suspect: s,
                from: PeerVerdict::Probation,
                to: PeerVerdict::Readmitted,
            });
            false
        });
    }

    /// The suspect dropped below the warning threshold from `observer`'s
    /// position: a Watching chain is broken (entry dropped); quarantine and
    /// probation are unaffected (they are clocked, not traffic-driven).
    pub fn below_warning(&mut self, observer: NodeId, suspect: NodeId) {
        let (row, edits) = self.parts(observer);
        if let Ok(pos) = find(row, suspect.0) {
            if matches!(row[pos].1.state, SuspectState::Watching { .. }) {
                row.remove(pos);
                log_unlisted(edits, observer, suspect.0);
            }
        }
    }

    /// Record a missing neighbor-list snapshot for an over-warning suspect
    /// and return the updated consecutive-miss streak.
    pub fn note_list_missing(&mut self, observer: NodeId, suspect: NodeId) -> u8 {
        let (row, edits) = self.parts(observer);
        let entry = entry_or_fresh(row, observer, suspect, edits);
        entry.list_streak = entry.list_streak.saturating_add(1);
        entry.list_streak
    }

    /// A usable snapshot arrived: the miss streak resets.
    pub fn note_list_ok(&mut self, observer: NodeId, suspect: NodeId) {
        let row = self.parts(observer).0;
        if let Ok(pos) = find(row, suspect.0) {
            row[pos].1.list_streak = 0;
        }
    }

    /// Feed one judged window (`over_ct` = indicator exceeded `CT`) into
    /// `observer`'s machine and decide whether to cut now. Watching suspects
    /// follow the W-of-K hysteresis; probationary suspects re-cut on any
    /// over-`CT` window. On a cut the machine enters quarantine (kept only
    /// while readmission is enabled) and the `Cut`/`Quarantined` transitions
    /// are recorded.
    #[allow(clippy::too_many_arguments)]
    pub fn judged(
        &mut self,
        observer: NodeId,
        suspect: NodeId,
        over_ct: bool,
        tick: Tick,
        hysteresis: Hysteresis,
        readmission: ReadmissionPolicy,
        actions: &mut Actions,
    ) -> bool {
        let (row, edits) = self.parts(observer);
        let entry = entry_or_fresh(row, observer, suspect, edits);
        let (cut, from, next_backoff) = match entry.state {
            SuspectState::Watching { history } => {
                let (required, window) = hysteresis.effective();
                let mask = ((1u16 << window) - 1) as u8;
                let new_history = ((history << 1) | u8::from(over_ct)) & mask;
                let confirmed = new_history.count_ones() >= required;
                if confirmed {
                    (true, ledger_state(SuspectState::Watching { history }), None)
                } else {
                    entry.state = SuspectState::Watching { history: new_history };
                    if new_history != 0 && history == 0 {
                        actions.transition(VerdictTransition {
                            tick,
                            observer: observer.0,
                            suspect: suspect.0,
                            from: PeerVerdict::Normal,
                            to: PeerVerdict::Suspicious,
                        });
                    }
                    if new_history == 0 && entry.list_streak == 0 {
                        // Nothing worth remembering: keep the footprint of
                        // the pre-PR protocol (no entry at all).
                        remove(row, suspect.0);
                        log_unlisted(edits, observer, suspect.0);
                    }
                    (false, PeerVerdict::Normal, None)
                }
            }
            SuspectState::Probation { backoff, .. } => {
                if over_ct {
                    // Zero tolerance: one bad window on probation re-cuts,
                    // with a doubled backoff.
                    (
                        true,
                        PeerVerdict::Probation,
                        Some(backoff.saturating_mul(2).min(readmission.max_backoff_ticks)),
                    )
                } else {
                    (false, PeerVerdict::Probation, None)
                }
            }
            // A quarantined suspect has no live edge to judge; a racing
            // same-tick judgment is ignored.
            SuspectState::Quarantined { .. } => (false, PeerVerdict::Quarantined, None),
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
        if readmission.enabled {
            let backoff = next_backoff.unwrap_or(readmission.base_backoff_ticks).max(1);
            let entry = entry_or_fresh(row, observer, suspect, edits);
            // Saturating: near the end of a u32 tick space the probe simply
            // never fires (a wrapped deadline would fire immediately).
            entry.state =
                SuspectState::Quarantined { until: tick.saturating_add(backoff), backoff };
            entry.list_streak = 0;
        } else {
            // Permanent cut (the paper): nothing left to track.
            remove(row, suspect.0);
            log_unlisted(edits, observer, suspect.0);
        }
        true
    }

    /// Churn hardening: age out `observer`'s entries whose suspect can no
    /// longer be judged. A suspect that is offline (departed or crashed —
    /// `online` is the engine's ground truth for "the address stopped
    /// responding") is dropped from Watching immediately and from
    /// Quarantine/Probation once its clock is due: the probe or readmission
    /// it was waiting for can never happen. For *online* suspects, clocked
    /// states additionally expire once they sit `ttl` ticks past due — the
    /// leak backstop for probes that never fired (e.g. the observer stopped
    /// running defense).
    /// Returns how many entries were dropped.
    pub fn expire_stale(
        &mut self,
        observer: NodeId,
        tick: Tick,
        ttl: Tick,
        online: &[bool],
    ) -> usize {
        let (row, edits) = self.parts(observer);
        let before = row.len();
        row.retain(|&(s, e)| {
            let gone = !online.get(s as usize).copied().unwrap_or(false);
            let keep = match e.state {
                SuspectState::Watching { .. } => !gone,
                SuspectState::Quarantined { until, .. } | SuspectState::Probation { until, .. } => {
                    if gone {
                        tick < until
                    } else {
                        tick <= until.saturating_add(ttl)
                    }
                }
            };
            if !keep {
                log_unlisted(edits, observer, s);
            }
            keep
        });
        before - row.len()
    }
}

/// Log that `observer` dropped its entry about `suspect`. An entry created
/// and dropped back to back (the common judged-and-forgotten window) cancels
/// out of the log and never reaches the index.
fn log_unlisted(edits: &mut Vec<IndexEdit>, observer: NodeId, suspect: u32) {
    if edits.last() == Some(&IndexEdit::listed(observer, suspect)) {
        edits.pop();
    } else {
        edits.push(IndexEdit::unlisted(observer, suspect));
    }
}

/// `row`'s entry about `suspect`, created fresh at its sorted place (and
/// logged as listed) when there is none.
fn entry_or_fresh<'r>(
    row: &'r mut Row,
    observer: NodeId,
    suspect: NodeId,
    edits: &mut Vec<IndexEdit>,
) -> &'r mut SuspectEntry {
    let pos = find(row, suspect.0).unwrap_or_else(|pos| {
        edits.push(IndexEdit::listed(observer, suspect.0));
        row.insert(pos, (suspect.0, SuspectEntry::fresh()));
        pos
    });
    &mut row[pos].1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sent: u32, recv: u32) -> TrafficReport {
        TrafficReport { sent_to_suspect: sent, received_from_suspect: recv }
    }

    #[test]
    fn sum_policy_is_bitwise_group_traffic_sums() {
        let own = report(3, 400);
        let members = vec![Some(report(10, 20)), None, Some(report(7, 900))];
        assert_eq!(
            aggregate_group_traffic(own, &members, AggregationPolicy::Sum),
            group_traffic_sums(own, &members),
        );
    }

    #[test]
    fn median_bounds_a_framing_minority() {
        // 5 claims about the out-coordinate: 4 honest (~100), 1 framed (10k).
        let own = report(0, 100);
        let members = vec![
            Some(report(0, 90)),
            Some(report(0, 110)),
            Some(report(0, 100)),
            Some(report(0, 10_000)),
        ];
        let (out_sum, _) = aggregate_group_traffic(own, &members, AggregationPolicy::Sum);
        let (out_med, _) = aggregate_group_traffic(own, &members, AggregationPolicy::Median);
        assert_eq!(out_sum, 10_400.0);
        assert_eq!(out_med, 500.0); // 5 × median(90,100,100,110,10000) = 5 × 100
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let own = report(0, 100);
        let members = vec![Some(report(0, 100)), Some(report(0, 100)), Some(report(0, 6_000))];
        // 4 claims, trim 0.25 → drop 1 from each end → mean(100, 100) = 100.
        let (out, _) =
            aggregate_group_traffic(own, &members, AggregationPolicy::TrimmedMean { trim: 0.25 });
        assert_eq!(out, 400.0);
    }

    #[test]
    fn robust_policies_keep_into_coordinate_summed() {
        let own = report(500, 0);
        let members = vec![Some(report(300, 0)), None];
        for policy in [AggregationPolicy::Median, AggregationPolicy::TrimmedMean { trim: 0.34 }] {
            let (_, into) = aggregate_group_traffic(own, &members, policy);
            assert_eq!(into, 800.0, "into-suspect must stay sum-with-assume-zero");
        }
    }

    #[test]
    fn silence_drags_the_median_down_not_up() {
        let own = report(0, 1_000);
        let members = vec![None, None];
        let (out, _) = aggregate_group_traffic(own, &members, AggregationPolicy::Median);
        assert_eq!(out, 0.0); // median(0, 0, 1000) = 0
    }

    fn machine1() -> (VerdictMachine, NodeId, NodeId) {
        (VerdictMachine::new(4), NodeId(0), NodeId(1))
    }

    /// Run `f` in one shard over all of `m`'s observers, then replay the
    /// shard's index edits: a one-worker tick.
    fn session<R>(m: &mut VerdictMachine, f: impl FnOnce(&mut VerdictShard<'_>) -> R) -> R {
        let n = m.slot_count();
        let mut shard = m.shards(&[0, n]).pop().expect("one shard");
        let result = f(&mut shard);
        let edits = shard.into_index_edits();
        m.replay_index_edits(edits);
        result
    }

    #[test]
    fn default_hysteresis_cuts_on_first_over_ct_window() {
        let (mut m, obs, sus) = machine1();
        let mut actions = Actions::default();
        let cut = session(&mut m, |shard| {
            shard.judged(
                obs,
                sus,
                true,
                1,
                Hysteresis::default(),
                ReadmissionPolicy::default(),
                &mut actions,
            )
        });
        assert!(cut);
        // Permanent cut with readmission disabled: no entry retained.
        assert_eq!(m.entry(obs, sus), None);
        let tos: Vec<_> = actions.transitions.iter().map(|t| t.to).collect();
        assert_eq!(tos, vec![PeerVerdict::Cut, PeerVerdict::Quarantined]);
    }

    #[test]
    fn two_of_three_hysteresis_needs_confirmation() {
        let (mut m, obs, sus) = machine1();
        let h = Hysteresis { required: 2, window: 3 };
        let r = ReadmissionPolicy::default();
        let mut actions = Actions::default();
        assert!(
            !session(&mut m, |shard| shard.judged(obs, sus, true, 1, h, r, &mut actions)),
            "1 of last 3"
        );
        assert_eq!(
            actions.transitions.last().map(|t| t.to),
            Some(PeerVerdict::Suspicious),
            "first over-CT window flags the suspect"
        );
        assert!(
            !session(&mut m, |shard| shard.judged(obs, sus, false, 2, h, r, &mut actions)),
            "still 1 of last 3"
        );
        assert!(
            session(&mut m, |shard| shard.judged(obs, sus, true, 3, h, r, &mut actions)),
            "2 of last 3 confirms"
        );
    }

    #[test]
    fn below_warning_breaks_the_window_chain() {
        let (mut m, obs, sus) = machine1();
        let h = Hysteresis { required: 2, window: 2 };
        let r = ReadmissionPolicy::default();
        let mut actions = Actions::default();
        assert!(!session(&mut m, |shard| shard.judged(obs, sus, true, 1, h, r, &mut actions)));
        session(&mut m, |shard| shard.below_warning(obs, sus)); // chain broken: history forgotten
        assert!(
            !session(&mut m, |shard| shard.judged(obs, sus, true, 3, h, r, &mut actions)),
            "must re-confirm from scratch"
        );
    }

    #[test]
    fn quarantine_probes_then_probation_then_readmission() {
        let (mut m, obs, sus) = machine1();
        let h = Hysteresis::default();
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };
        let mut actions = Actions::default();
        assert!(session(&mut m, |shard| shard.judged(obs, sus, true, 1, h, r, &mut actions)));
        assert!(matches!(
            m.entry(obs, sus).unwrap().state,
            SuspectState::Quarantined { until: 5, backoff: 4 }
        ));
        // Not matured yet.
        session(&mut m, |shard| shard.fire_probes(obs, 4, r, &mut actions));
        assert!(actions.reconnects.is_empty());
        // Matured: re-dial + probation.
        session(&mut m, |shard| shard.fire_probes(obs, 5, r, &mut actions));
        assert_eq!(actions.reconnects, vec![(obs, sus)]);
        assert!(m.on_probation(obs, sus));
        // Clean probation expires into readmission.
        session(&mut m, |shard| shard.expire_probations(obs, 8, &mut actions));
        assert_eq!(m.entry(obs, sus), None);
        assert_eq!(actions.transitions.last().unwrap().to, PeerVerdict::Readmitted);
    }

    #[test]
    fn probation_reoffense_recuts_and_doubles_backoff() {
        let (mut m, obs, sus) = machine1();
        let h = Hysteresis { required: 3, window: 8 }; // strict hysteresis...
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };
        let mut actions = Actions::default();
        // Drive to quarantine via three over-CT windows.
        assert!(!session(&mut m, |shard| shard.judged(obs, sus, true, 1, h, r, &mut actions)));
        assert!(!session(&mut m, |shard| shard.judged(obs, sus, true, 2, h, r, &mut actions)));
        assert!(session(&mut m, |shard| shard.judged(obs, sus, true, 3, h, r, &mut actions)));
        session(&mut m, |shard| shard.fire_probes(obs, 7, r, &mut actions));
        assert!(m.on_probation(obs, sus));
        // ...but on probation a single over-CT window re-cuts.
        assert!(session(&mut m, |shard| shard.judged(obs, sus, true, 8, h, r, &mut actions)));
        let SuspectState::Quarantined { backoff, .. } = m.entry(obs, sus).unwrap().state else {
            panic!("re-cut must re-quarantine");
        };
        assert_eq!(backoff, 8, "backoff doubled from 4");
    }

    #[test]
    fn forget_edge_keeps_quarantine_only() {
        let (mut m, obs, sus) = machine1();
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };
        let mut actions = Actions::default();
        assert!(session(&mut m, |shard| shard.judged(
            obs,
            sus,
            true,
            1,
            Hysteresis::default(),
            r,
            &mut actions
        )));
        m.forget_edge(obs, sus); // the cut's own edge removal
        assert!(m.entry(obs, sus).is_some(), "quarantine survives its own cut");
        // A Watching entry does not survive.
        let other = NodeId(2);
        assert!(!session(&mut m, |shard| shard.judged(
            obs,
            other,
            true,
            1,
            Hysteresis { required: 2, window: 2 },
            r,
            &mut actions
        )));
        m.forget_edge(obs, other);
        assert_eq!(m.entry(obs, other), None);
    }

    #[test]
    fn backoff_schedule_saturates_near_tick_space_end() {
        // A cut at a tick near u32::MAX must not wrap the probe deadline
        // (wrapped deadlines fire immediately, turning quarantine into a
        // revolving door on very long runs).
        let (mut m, obs, sus) = machine1();
        let r = ReadmissionPolicy {
            enabled: true,
            base_backoff_ticks: u32::MAX,
            max_backoff_ticks: u32::MAX,
            probation_ticks: u32::MAX,
        };
        let mut actions = Actions::default();
        let late = u32::MAX - 2;
        assert!(session(&mut m, |shard| shard.judged(
            obs,
            sus,
            true,
            late,
            Hysteresis::default(),
            r,
            &mut actions
        )));
        let SuspectState::Quarantined { until, backoff } = m.entry(obs, sus).unwrap().state else {
            panic!("cut must quarantine");
        };
        assert_eq!(until, u32::MAX, "deadline clamps instead of wrapping");
        assert_eq!(backoff, u32::MAX);
        // The probe never matures before the end of time — and when it does
        // fire at u32::MAX, the probation deadline clamps too.
        session(&mut m, |shard| shard.fire_probes(obs, late, r, &mut actions));
        assert!(actions.reconnects.is_empty());
        session(&mut m, |shard| shard.fire_probes(obs, u32::MAX, r, &mut actions));
        assert_eq!(actions.reconnects, vec![(obs, sus)]);
        let SuspectState::Probation { until, .. } = m.entry(obs, sus).unwrap().state else {
            panic!("probe must move to probation");
        };
        assert_eq!(until, u32::MAX);
    }

    #[test]
    fn repeated_recuts_clamp_backoff_at_the_cap() {
        let (mut m, obs, sus) = machine1();
        let h = Hysteresis::default();
        let r = ReadmissionPolicy {
            enabled: true,
            base_backoff_ticks: 1 << 30,
            max_backoff_ticks: u32::MAX,
            probation_ticks: 1,
        };
        let mut actions = Actions::default();
        let mut tick = 1;
        assert!(session(&mut m, |shard| shard.judged(obs, sus, true, tick, h, r, &mut actions)));
        // Re-cut on probation repeatedly: 2^30 → 2^31 → saturates at MAX
        // instead of overflowing to 0 (a zero backoff would probe instantly).
        for _ in 0..4 {
            let SuspectState::Quarantined { until, .. } = m.entry(obs, sus).unwrap().state else {
                panic!("expected quarantine");
            };
            if until == u32::MAX {
                break;
            }
            tick = until;
            session(&mut m, |shard| shard.fire_probes(obs, tick, r, &mut actions));
            assert!(m.on_probation(obs, sus));
            assert!(session(&mut m, |shard| shard.judged(
                obs,
                sus,
                true,
                tick,
                h,
                r,
                &mut actions
            )));
        }
        let SuspectState::Quarantined { backoff, .. } = m.entry(obs, sus).unwrap().state else {
            panic!("expected quarantine");
        };
        assert_eq!(backoff, u32::MAX, "doubling saturates at the cap");
    }

    #[test]
    fn forget_suspect_drops_every_observers_verdict() {
        let mut m = VerdictMachine::new(3);
        let sus = NodeId(2);
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };
        let mut actions = Actions::default();
        for obs in [NodeId(0), NodeId(1)] {
            assert!(session(&mut m, |shard| shard.judged(
                obs,
                sus,
                true,
                1,
                Hysteresis::default(),
                r,
                &mut actions
            )));
        }
        assert_eq!(m.entries_about(sus), 2);
        m.forget_suspect(sus);
        assert_eq!(m.entries_about(sus), 0);
        assert_eq!(m.total_entries(), 0);
    }

    #[test]
    fn load_state_rebuilds_the_index_and_rejects_out_of_range_suspects() {
        let mut m = VerdictMachine::new(3);
        assert_eq!(session(&mut m, |shard| shard.note_list_missing(NodeId(0), NodeId(2))), 1);
        let mut enc = ddp_snapshot::Enc::new();
        m.save_state(&mut enc);
        let mut bytes = enc.into_bytes();
        let reloaded = VerdictMachine::load_state(&mut ddp_snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(reloaded.holders_of(NodeId(2)), [0], "the index is rebuilt, not stored");
        // Observers: count, then observer 0 = one entry whose suspect id
        // comes first.
        let suspect_at = 2 * std::mem::size_of::<u64>();
        assert_eq!(bytes[suspect_at..suspect_at + 4], 2u32.to_le_bytes());
        bytes[suspect_at..suspect_at + 4].copy_from_slice(&3u32.to_le_bytes());
        match VerdictMachine::load_state(&mut ddp_snapshot::Dec::new(&bytes)) {
            Err(ddp_snapshot::SnapshotError::Corrupt { what }) => {
                assert_eq!(what, "verdict suspect id")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn load_state_rejects_a_row_that_is_not_strictly_ascending() {
        let mut m = VerdictMachine::new(4);
        session(&mut m, |shard| {
            shard.note_list_missing(NodeId(0), NodeId(3));
            shard.note_list_missing(NodeId(0), NodeId(1));
        });
        assert_eq!(m.entries_of(NodeId(0)).iter().map(|&(s, _)| s).collect::<Vec<_>>(), [1, 3]);
        let mut enc = ddp_snapshot::Enc::new();
        m.save_state(&mut enc);
        let bytes = enc.into_bytes();
        // Observers: count, then observer 0's row: its length and two
        // entries of a suspect id, a Watching state (tag, history) and a
        // list streak each.
        let second_at = 2 * std::mem::size_of::<u64>() + 4 + 3;
        assert_eq!(bytes[second_at..second_at + 4], 3u32.to_le_bytes());
        // A duplicate used to load silently, the later copy winning.
        for edited in [1u32, 0] {
            let mut bytes = bytes.clone();
            bytes[second_at..second_at + 4].copy_from_slice(&edited.to_le_bytes());
            match VerdictMachine::load_state(&mut ddp_snapshot::Dec::new(&bytes)) {
                Err(ddp_snapshot::SnapshotError::Corrupt { what }) => {
                    assert_eq!(what, "verdict suspect order")
                }
                other => panic!("suspect {edited} after 1: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn expire_stale_collects_departed_and_overdue_suspects() {
        let mut m = VerdictMachine::new(4);
        let obs = NodeId(0);
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };
        let h = Hysteresis { required: 2, window: 3 };
        let mut actions = Actions::default();
        // NodeId(1): quarantined at tick 1 (until = 5). NodeId(2): watching.
        assert!(session(&mut m, |shard| shard.judged(
            obs,
            NodeId(1),
            true,
            1,
            Hysteresis::default(),
            r,
            &mut actions
        )));
        assert!(!session(&mut m, |shard| shard.judged(
            obs,
            NodeId(2),
            true,
            1,
            h,
            r,
            &mut actions
        )));
        let all_online = vec![true; 4];
        // Everyone online, nothing overdue: nothing expires.
        assert_eq!(session(&mut m, |shard| shard.expire_stale(obs, 2, 8, &all_online)), 0);
        // Suspect 2 departs: its Watching entry is meaningless and drops;
        // suspect 1's quarantine clock (until 5) has not matured, so it
        // stays pending for now.
        let mut online = all_online.clone();
        online[2] = false;
        assert_eq!(session(&mut m, |shard| shard.expire_stale(obs, 2, 8, &online)), 1);
        assert!(m.entry(obs, NodeId(2)).is_none());
        assert!(m.entry(obs, NodeId(1)).is_some());
        // Suspect 1 departs too; once its probe comes due there is nobody to
        // probe — the entry is collected instead of cycling forever.
        online[1] = false;
        assert_eq!(
            session(&mut m, |shard| shard.expire_stale(obs, 4, 8, &online)),
            0,
            "not due yet"
        );
        assert_eq!(
            session(&mut m, |shard| shard.expire_stale(obs, 5, 8, &online)),
            1,
            "due + departed → dropped"
        );
        assert_eq!(m.total_entries(), 0);
        // Online but ttl-overdue: the backstop for probes that never fired.
        assert!(session(&mut m, |shard| shard.judged(
            obs,
            NodeId(3),
            true,
            10,
            Hysteresis::default(),
            r,
            &mut actions
        )));
        assert_eq!(
            session(&mut m, |shard| shard.expire_stale(obs, 22, 8, &all_online)),
            0,
            "until 14 + ttl 8 = 22: kept"
        );
        assert_eq!(
            session(&mut m, |shard| shard.expire_stale(obs, 23, 8, &all_online)),
            1,
            "past the ttl backstop"
        );
    }

    #[test]
    fn blocks_link_vetoes_quarantine_and_probation_only() {
        let (mut m, obs, sus) = machine1();
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };
        let mut actions = Actions::default();
        assert!(!m.blocks_link(obs, sus));
        assert!(session(&mut m, |shard| shard.judged(
            obs,
            sus,
            true,
            1,
            Hysteresis::default(),
            r,
            &mut actions
        )));
        assert!(m.blocks_link(obs, sus), "quarantine vetoes re-linking");
        assert!(!m.blocks_link(sus, obs), "the veto is directional per observer");
        session(&mut m, |shard| shard.fire_probes(obs, 5, r, &mut actions));
        assert!(m.blocks_link(obs, sus), "probation still vetoes bootstrap rewiring");
        session(&mut m, |shard| shard.expire_probations(obs, 8, &mut actions));
        assert!(!m.blocks_link(obs, sus), "readmission clears the veto");
        // Out-of-range ids (pre-growth) never veto.
        assert!(!m.blocks_link(NodeId(900), sus));
    }

    #[test]
    fn ensure_slots_grows_idempotently() {
        let mut m = VerdictMachine::new(2);
        m.ensure_slots(5);
        m.ensure_slots(3); // never shrinks
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };
        let mut actions = Actions::default();
        assert!(session(&mut m, |shard| shard.judged(
            NodeId(4),
            NodeId(0),
            true,
            1,
            Hysteresis::default(),
            r,
            &mut actions
        )));
        assert_eq!(m.entries_about(NodeId(0)), 1);
    }

    #[test]
    fn shards_partition_the_machine_and_match_serial_decisions() {
        let h = Hysteresis::default();
        let r = ReadmissionPolicy { enabled: true, ..ReadmissionPolicy::default() };

        // Serial reference: two observers in different partitions, all of an
        // observer's operations grouped together in ascending observer order
        // (the shape of the per-observer judgment loop).
        let mut serial = VerdictMachine::new(6);
        let mut sa = Actions::default();
        assert!(session(&mut serial, |shard| shard.judged(
            NodeId(1),
            NodeId(4),
            true,
            1,
            h,
            r,
            &mut sa
        )));
        session(&mut serial, |shard| shard.fire_probes(NodeId(1), 5, r, &mut sa));
        assert!(!session(&mut serial, |shard| shard.judged(
            NodeId(5),
            NodeId(0),
            true,
            1,
            Hysteresis { required: 2, window: 2 },
            r,
            &mut sa
        )));

        // Sharded: the same operations through disjoint shard views.
        let mut sharded = VerdictMachine::new(6);
        {
            let mut shards = sharded.shards(&[0, 3, 6]);
            let (lo, hi) = {
                let (a, b) = shards.split_at_mut(1);
                (&mut a[0], &mut b[0])
            };
            let mut a0 = Actions::default();
            let mut a1 = Actions::default();
            assert!(lo.judged(NodeId(1), NodeId(4), true, 1, h, r, &mut a0));
            assert!(!hi.judged(
                NodeId(5),
                NodeId(0),
                true,
                1,
                Hysteresis { required: 2, window: 2 },
                r,
                &mut a1
            ));
            lo.fire_probes(NodeId(1), 5, r, &mut a0);
            // Canonical merge order = partition order.
            let mut merged = Actions::default();
            merged.cuts.extend(a0.cuts.iter().chain(a1.cuts.iter()));
            merged.reconnects.extend(a0.reconnects.iter().chain(a1.reconnects.iter()));
            merged.transitions.extend(a0.transitions.iter().chain(a1.transitions.iter()).cloned());
            assert_eq!(merged.reconnects, sa.reconnects);
            assert_eq!(merged.transitions, sa.transitions);
        }
        for obs in 0..6 {
            assert_eq!(
                sharded.entries_of(NodeId(obs)),
                serial.entries_of(NodeId(obs)),
                "observer {obs} state diverged between shard and serial paths"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bounds must end at observer count")]
    fn shards_reject_mismatched_bounds() {
        let mut m = VerdictMachine::new(4);
        let _ = m.shards(&[0, 2]);
    }

    #[test]
    fn list_streak_matches_pre_pr_semantics() {
        let (mut m, obs, sus) = machine1();
        assert_eq!(session(&mut m, |shard| shard.note_list_missing(obs, sus)), 1);
        assert_eq!(session(&mut m, |shard| shard.note_list_missing(obs, sus)), 2);
        session(&mut m, |shard| shard.note_list_ok(obs, sus));
        assert_eq!(m.entry(obs, sus).unwrap().list_streak, 0);
        assert_eq!(session(&mut m, |shard| shard.note_list_missing(obs, sus)), 1);
    }
}
