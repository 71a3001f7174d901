//! Per-peer simulation state.

use crate::Tick;
use ddp_topology::NodeId;
use ddp_workload::BandwidthClass;

/// How a peer answers `Neighbor_Traffic` report requests (§3.4's cheating
/// analysis). Good peers are honest; a compromised peer may lie.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportBehavior {
    /// Report true counters.
    Honest,
    /// Case 1 of §3.4: report `factor ×` the true count of queries it sent
    /// (factor > 1).
    Inflate(f64),
    /// Case 2 of §3.4: report `factor ×` the true count (factor < 1),
    /// trying to get an innocent forwarder blamed.
    Deflate(f64),
    /// Choice 3 of §3.4: "refuse to report" — peers then "just assume that
    /// peer j sent 0 query to peer m".
    Silent,
    /// Coordinated shielding (beyond §3.4's lone cheater): when asked about
    /// a *fellow colluder* (any peer whose own behavior is also
    /// `ShieldColluders`), report `factor ×` the true count of queries
    /// received from it (factor < 1), hiding the colluder's output from its
    /// Buddy Group. Reports about everyone else are honest, so the colluder
    /// blends in as a credible witness.
    ShieldColluders {
        /// Multiplier applied to `received_from_suspect` claims about
        /// fellow colluders (< 1).
        factor: f64,
    },
    /// Coordinated framing: when asked about the designated innocent
    /// `victim`, report `inflate ×` the true count of queries received from
    /// it (inflate > 1), manufacturing phantom output that drives the
    /// victim's General Indicator over `CT`. Reports about everyone else
    /// are honest.
    FrameVictim {
        /// The innocent peer the coalition lies about.
        victim: NodeId,
        /// Multiplier applied to `received_from_suspect` claims about the
        /// victim (> 1).
        inflate: f64,
    },
}

/// How a peer answers the neighbor-list exchange (§3.1). The paper notes "a
/// malicious peer could lie about who are its neighbors" and prescribes a
/// consistency check; these are the lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListBehavior {
    /// Announce the true neighbor list.
    Truthful,
    /// Pad the announced list with `extra` peers that are *not* neighbors.
    /// Each phantom member contributes nothing to the Buddy-Group sums while
    /// raising `k`, which deflates the General Indicator — an evasion trick
    /// the §3.1 consistency check exists to stop.
    PadFake { extra: u8 },
    /// Hide all real neighbors (announce an empty list).
    Omit,
    /// Refuse the exchange entirely.
    Refuse,
}

/// Ground-truth role of a peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Role {
    /// Issues queries at the human rate, forwards what it can.
    Good,
    /// DDoS agent: floods `rate_qpm` bogus queries per minute per link
    /// (capped by link capacity, §3.5's `Q_d = min{20000, link}`), and
    /// responds to report requests per `report`.
    Attacker { rate_qpm: u32, report: ReportBehavior },
}

impl Role {
    /// Whether this peer is a DDoS agent.
    #[inline]
    pub fn is_attacker(&self) -> bool {
        matches!(self, Role::Attacker { .. })
    }

    /// The report behavior of this peer (good peers are honest).
    #[inline]
    pub fn report_behavior(&self) -> ReportBehavior {
        match *self {
            Role::Good => ReportBehavior::Honest,
            Role::Attacker { report, .. } => report,
        }
    }
}

/// Where a slot stands in the overlay's membership; `engine/membership.rs`
/// holds every transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// In the overlay. A good peer leaves when `lifetime_left` runs out; an
    /// agent's is `u32::MAX` (dedicated agents do not leave voluntarily).
    Online { lifetime_left: u32 },
    /// An agent the defense cut to degree 0, holding no link until it
    /// re-dials from tick `until` on or a readmission probe links it (either
    /// way it is `Online` again). Still online: a probe may reach it.
    Isolated { until: Tick },
    /// Off the overlay until tick `rejoin_at` (`u32::MAX`: never — a legacy
    /// departure under a saturated delay, or a burned whitewash identity).
    Offline { rejoin_at: Tick },
    /// A session departure's slot, on the free list until an arrival takes it.
    Free,
    /// A whitewashing agent's burned slot, reborn as a fresh slot at tick
    /// `rebirth_at`.
    Dwell { rebirth_at: Tick },
}

impl SlotState {
    /// Whether the slot is in the overlay (it may hold links and traffic).
    #[inline]
    pub fn is_online(&self) -> bool {
        matches!(self, SlotState::Online { .. } | SlotState::Isolated { .. })
    }
}

/// Mutable per-peer state.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Membership: online, cut off, away, free or dwelling.
    pub state: SlotState,
    /// Ground-truth role.
    pub role: Role,
    /// Query processing capacity, queries/minute.
    pub capacity_qpm: u32,
    /// First tick this peer emits traffic (whitewashed agents lie low for a
    /// quiet window after rejoining; 0 = active from the start).
    pub dormant_until: u32,
    /// How this peer answers the neighbor-list exchange.
    pub list_behavior: ListBehavior,
}

impl NodeState {
    /// Fresh good-peer state. Its bandwidth class lives in the overlay
    /// ([`Overlay::class_of`](crate::Overlay::class_of)).
    pub fn good(capacity_qpm: u32, lifetime: u32) -> Self {
        NodeState {
            state: SlotState::Online { lifetime_left: lifetime },
            role: Role::Good,
            capacity_qpm,
            dormant_until: 0,
            list_behavior: ListBehavior::Truthful,
        }
    }

    /// Turn this slot into a DDoS agent.
    pub fn make_attacker(&mut self, rate_qpm: u32, report: ReportBehavior) {
        self.role = Role::Attacker { rate_qpm, report };
        // A dedicated attack machine processes at its generation rate and
        // does not leave voluntarily.
        self.capacity_qpm = self.capacity_qpm.max(rate_qpm);
        if let SlotState::Online { lifetime_left } = &mut self.state {
            *lifetime_left = u32::MAX;
        }
    }

    /// Whether this peer runs the detection protocol this tick: online
    /// good peers do, agents do not police others.
    #[inline]
    pub fn runs_defense(&self) -> bool {
        self.state.is_online() && !self.role.is_attacker()
    }
}

impl ddp_snapshot::Snapshottable for ReportBehavior {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        match *self {
            ReportBehavior::Honest => enc.u8(0),
            ReportBehavior::Inflate(f) => {
                enc.u8(1);
                enc.f64(f);
            }
            ReportBehavior::Deflate(f) => {
                enc.u8(2);
                enc.f64(f);
            }
            ReportBehavior::Silent => enc.u8(3),
            ReportBehavior::ShieldColluders { factor } => {
                enc.u8(4);
                enc.f64(factor);
            }
            ReportBehavior::FrameVictim { victim, inflate } => {
                enc.u8(5);
                enc.u32(victim.0);
                enc.f64(inflate);
            }
        }
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(match dec.u8()? {
            0 => ReportBehavior::Honest,
            1 => ReportBehavior::Inflate(dec.f64()?),
            2 => ReportBehavior::Deflate(dec.f64()?),
            3 => ReportBehavior::Silent,
            4 => ReportBehavior::ShieldColluders { factor: dec.f64()? },
            5 => ReportBehavior::FrameVictim { victim: NodeId(dec.u32()?), inflate: dec.f64()? },
            _ => return Err(ddp_snapshot::SnapshotError::Corrupt { what: "ReportBehavior tag" }),
        })
    }
}

impl ddp_snapshot::Snapshottable for ListBehavior {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        match *self {
            ListBehavior::Truthful => enc.u8(0),
            ListBehavior::PadFake { extra } => {
                enc.u8(1);
                enc.u8(extra);
            }
            ListBehavior::Omit => enc.u8(2),
            ListBehavior::Refuse => enc.u8(3),
        }
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(match dec.u8()? {
            0 => ListBehavior::Truthful,
            1 => ListBehavior::PadFake { extra: dec.u8()? },
            2 => ListBehavior::Omit,
            3 => ListBehavior::Refuse,
            _ => return Err(ddp_snapshot::SnapshotError::Corrupt { what: "ListBehavior tag" }),
        })
    }
}

impl ddp_snapshot::Snapshottable for Role {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        match *self {
            Role::Good => enc.u8(0),
            Role::Attacker { rate_qpm, report } => {
                enc.u8(1);
                enc.u32(rate_qpm);
                enc.put(&report);
            }
        }
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(match dec.u8()? {
            0 => Role::Good,
            1 => Role::Attacker { rate_qpm: dec.u32()?, report: dec.get()? },
            _ => return Err(ddp_snapshot::SnapshotError::Corrupt { what: "Role tag" }),
        })
    }
}

/// `BandwidthClass` lives in `ddp-workload`, which stays snapshot-free; the
/// class index is encoded here instead.
pub(crate) fn bandwidth_tag(c: BandwidthClass) -> u8 {
    match c {
        BandwidthClass::Dialup => 0,
        BandwidthClass::Dsl => 1,
        BandwidthClass::Cable => 2,
        BandwidthClass::Ethernet => 3,
    }
}

pub(crate) fn bandwidth_from_tag(tag: u8) -> Result<BandwidthClass, ddp_snapshot::SnapshotError> {
    Ok(match tag {
        0 => BandwidthClass::Dialup,
        1 => BandwidthClass::Dsl,
        2 => BandwidthClass::Cable,
        3 => BandwidthClass::Ethernet,
        _ => return Err(ddp_snapshot::SnapshotError::Corrupt { what: "BandwidthClass tag" }),
    })
}

impl ddp_snapshot::Snapshottable for SlotState {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        let (tag, value) = match *self {
            SlotState::Online { lifetime_left } => (0, lifetime_left),
            SlotState::Isolated { until } => (1, until),
            SlotState::Offline { rejoin_at } => (2, rejoin_at),
            SlotState::Free => (3, 0),
            SlotState::Dwell { rebirth_at } => (4, rebirth_at),
        };
        enc.u8(tag);
        enc.u32(value);
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(match (dec.u8()?, dec.u32()?) {
            (0, lifetime_left) => SlotState::Online { lifetime_left },
            (1, until) => SlotState::Isolated { until },
            (2, rejoin_at) => SlotState::Offline { rejoin_at },
            (3, 0) => SlotState::Free,
            (4, rebirth_at) => SlotState::Dwell { rebirth_at },
            _ => return Err(ddp_snapshot::SnapshotError::Corrupt { what: "SlotState" }),
        })
    }
}

impl ddp_snapshot::Snapshottable for NodeState {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        enc.put(&self.state);
        enc.put(&self.role);
        enc.u32(self.capacity_qpm);
        enc.u32(self.dormant_until);
        enc.put(&self.list_behavior);
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(NodeState {
            state: dec.get()?,
            role: dec.get()?,
            capacity_qpm: dec.u32()?,
            dormant_until: dec.u32()?,
            list_behavior: dec.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn good_peer_defaults() {
        let n = NodeState::good(1000, 10);
        assert_eq!(n.state, SlotState::Online { lifetime_left: 10 });
        assert!(!n.role.is_attacker());
        assert_eq!(n.role.report_behavior(), ReportBehavior::Honest);
        assert!(n.runs_defense());
    }

    #[test]
    fn node_state_snapshot_roundtrip_covers_every_variant() {
        let mut states = vec![NodeState::good(950, 17)];
        for report in [
            ReportBehavior::Honest,
            ReportBehavior::Inflate(3.0),
            ReportBehavior::Deflate(0.25),
            ReportBehavior::Silent,
            ReportBehavior::ShieldColluders { factor: 0.1 },
            ReportBehavior::FrameVictim { victim: NodeId(42), inflate: 5.0 },
        ] {
            let mut s = NodeState::good(1000, 9);
            s.make_attacker(20_000, report);
            s.dormant_until = 7;
            states.push(s);
        }
        for list in [
            ListBehavior::Truthful,
            ListBehavior::PadFake { extra: 4 },
            ListBehavior::Omit,
            ListBehavior::Refuse,
        ] {
            let mut s = NodeState::good(800, 3);
            s.list_behavior = list;
            states.push(s);
        }
        for state in [
            SlotState::Isolated { until: 12 },
            SlotState::Offline { rejoin_at: u32::MAX },
            SlotState::Free,
            SlotState::Dwell { rebirth_at: 8 },
        ] {
            let mut s = NodeState::good(900, 4);
            s.state = state;
            states.push(s);
        }
        let mut enc = ddp_snapshot::Enc::new();
        enc.put(&states);
        let bytes = enc.into_bytes();
        let mut dec = ddp_snapshot::Dec::new(&bytes);
        let back: Vec<NodeState> = dec.get().unwrap();
        dec.finish().unwrap();
        for (a, b) in states.iter().zip(&back) {
            assert_eq!(a.state, b.state);
            assert_eq!(a.role, b.role);
            assert_eq!(a.capacity_qpm, b.capacity_qpm);
            assert_eq!(a.list_behavior, b.list_behavior);
        }
    }

    #[test]
    fn a_free_slot_state_carries_no_value() {
        let mut enc = ddp_snapshot::Enc::new();
        enc.u8(3);
        enc.u32(7);
        let bytes = enc.into_bytes();
        let got: Result<SlotState, _> = ddp_snapshot::Dec::new(&bytes).get();
        assert!(matches!(got, Err(ddp_snapshot::SnapshotError::Corrupt { what: "SlotState" })));
    }

    #[test]
    fn make_attacker_upgrades_capacity_and_pins_lifetime() {
        let mut n = NodeState::good(1000, 5);
        n.make_attacker(20_000, ReportBehavior::Silent);
        assert!(n.role.is_attacker());
        assert_eq!(n.capacity_qpm, 20_000);
        assert_eq!(n.state, SlotState::Online { lifetime_left: u32::MAX });
        assert!(!n.runs_defense());
        assert_eq!(n.role.report_behavior(), ReportBehavior::Silent);
    }
}
