//! Buddy Groups (§3.1).
//!
//! "We define peer j's r-hop Buddy Group (BGr-j) as the set of peer j's
//! neighbors. ... Depending on how many logical neighbors each peer has, a
//! peer could belong to multiple different BGs."
//!
//! The membership an observer acts on comes from the *exchanged snapshot* of
//! the suspect's list — possibly stale — not from ground truth. With radius
//! `r >= 2` the observer additionally cross-verifies membership with the
//! suspect's current neighbors (the members themselves confirm the list,
//! §3.1's consistency check), which removes staleness at extra message cost.

use ddp_sim::FrozenTick;
use ddp_topology::NodeId;

/// `BGr-suspect` as every observer holding the announcement `announced`
/// sees it: the suspect's announced list filtered by the §3.1 consistency
/// check and (at radius ≥ 2) the current-neighbor cross-verification. Written
/// into a caller-owned buffer (cleared first), so per-tick rebuilds reuse one
/// allocation per suspect.
///
/// §3.1: "when peers exchange their neighbor lists, they will confirm the
/// correctness of the lists with the corresponding peers." A member that
/// does not confirm the claimed adjacency is dropped — which dismantles
/// phantom padding (unless the phantom itself is a colluding agent that
/// vouches back). At radius ≥ 2 the members additionally confirm who is
/// actually connected, removing stale entries and adding joiners the
/// snapshot missed.
///
/// No observer is special-cased: an observer is always a *current* neighbor
/// of the suspect, and a current online neighbor passes both checks
/// unconditionally (`confirm_membership` answers `true` for any real
/// adjacency, colluding or not). The result is therefore identical for every
/// observer, and [`crate::police::DdPolice`] shares one verification across
/// all of a suspect's observers within a tick; an observer the list omitted
/// counts itself in (it polices the suspect because they share a link).
/// Everything consulted is a pure function of the [`FrozenTick`], so any
/// shard computes the same list.
pub fn verified_members_into(
    suspect: NodeId,
    announced: &[NodeId],
    obs: &FrozenTick<'_>,
    radius: u8,
    verify: bool,
    members: &mut Vec<NodeId>,
) {
    members.clear();
    members.extend_from_slice(announced);
    if verify {
        members.retain(|&m| obs.confirm_membership(m, suspect));
    }
    if radius >= 2 {
        let current: Vec<NodeId> = obs.overlay.neighbors(suspect).iter().map(|h| h.peer).collect();
        for m in current {
            if !members.contains(&m) {
                members.push(m);
            }
        }
        members.retain(|&m| obs.overlay.contains_edge(m, suspect));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{ExchangePolicy, ExchangeState};
    use ddp_sim::{Overlay, ReportBehavior, TickObservation};
    use ddp_topology::DynamicGraph;
    use ddp_workload::BandwidthClass;

    fn make_overlay(n: usize, edges: &[(u32, u32)]) -> Overlay {
        let mut g = DynamicGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        Overlay::new(g, &vec![BandwidthClass::Ethernet; n])
    }

    struct Fixture {
        overlay: Overlay,
        online: Vec<bool>,
        runs: Vec<bool>,
        behavior: Vec<ReportBehavior>,
        lists: Vec<ddp_sim::ListBehavior>,
    }

    impl Fixture {
        fn new(n: usize, edges: &[(u32, u32)]) -> Self {
            Fixture {
                overlay: make_overlay(n, edges),
                online: vec![true; n],
                runs: vec![true; n],
                behavior: vec![ReportBehavior::Honest; n],
                lists: vec![ddp_sim::ListBehavior::Truthful; n],
            }
        }

        /// The group `observer` would judge suspect 0 on at `tick`, sorted.
        fn group(&self, ex: &ExchangeState, observer: u32, tick: u32, r: u8, v: bool) -> Vec<u32> {
            let snap = ex.snapshot(NodeId(observer), NodeId(0)).expect("list was exchanged");
            let mut members = Vec::new();
            let frozen = self.obs(tick).frozen();
            verified_members_into(NodeId(0), &snap.members, &frozen, r, v, &mut members);
            let mut ids: Vec<u32> = members.iter().map(|m| m.0).collect();
            ids.sort_unstable();
            ids
        }

        fn obs(&self, tick: u32) -> TickObservation<'_> {
            TickObservation {
                tick,
                overlay: &self.overlay,
                online: &self.online,
                runs_defense: &self.runs,
                report_behavior: &self.behavior,
                list_behavior: &self.lists,
                faults: None,
            }
        }
    }

    #[test]
    fn bg1_is_the_suspects_neighbors() {
        // Figure 7: BG1-j = {A, B, C, D}, j's four neighbors.
        let f = Fixture::new(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]); // j = 0
        let mut ex = ExchangeState::new(5);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &f.obs(1));
        assert_eq!(f.group(&ex, 1, 1, 1, true), vec![1, 2, 3, 4]);
    }

    #[test]
    fn radius_two_removes_stale_and_adds_fresh_members() {
        let mut f = Fixture::new(5, &[(0, 1), (0, 2)]);
        let mut ex = ExchangeState::new(5);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 10 }, &f.obs(1));
        // After the exchange, suspect 0 drops 2 and gains 3.
        f.overlay.remove_edge(NodeId(0), NodeId(2));
        f.overlay.add_edge(NodeId(0), NodeId(3));

        // Without verification, r=1 works from the stale snapshot alone.
        let ids1 = f.group(&ex, 1, 2, 1, false);
        assert!(ids1.contains(&2), "r=1 keeps the stale member");
        assert!(!ids1.contains(&3), "r=1 misses the joiner");

        let ids2 = f.group(&ex, 1, 2, 2, false);
        assert!(!ids2.contains(&2), "r=2 cross-verification drops the stale member");
        assert!(ids2.contains(&3), "r=2 discovers the joiner");
    }

    #[test]
    fn verification_drops_unconfirmed_members() {
        // Suspect 0 announces {1, 2}; then loses the edge to 2. With the
        // §3.1 consistency check on, member 2 fails to confirm and is
        // dropped even at r=1.
        let mut f = Fixture::new(4, &[(0, 1), (0, 2)]);
        let mut ex = ExchangeState::new(4);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 10 }, &f.obs(1));
        f.overlay.remove_edge(NodeId(0), NodeId(2));
        let ids = f.group(&ex, 1, 2, 1, true);
        assert!(!ids.contains(&2), "unconfirmed member must be dropped: {ids:?}");
        assert!(ids.contains(&1));
    }

    #[test]
    fn padded_phantom_members_are_filtered_by_verification() {
        // Suspect 0 pads its announced list with phantoms; honest phantoms
        // refuse to confirm, so verification restores the true group.
        let mut f = Fixture::new(8, &[(0, 1), (0, 2)]);
        f.lists[0] = ddp_sim::ListBehavior::PadFake { extra: 4 };
        let mut ex = ExchangeState::new(8);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &f.obs(1));
        let unverified = f.group(&ex, 1, 1, 1, false);
        let verified = f.group(&ex, 1, 1, 1, true);
        assert!(
            unverified.len() > verified.len(),
            "padding must inflate the unverified group: {unverified:?} vs {verified:?}"
        );
        assert_eq!(verified, vec![1, 2], "verified group may only contain real neighbors");
    }

    #[test]
    fn observer_passes_its_own_verification() {
        let f = Fixture::new(3, &[(0, 1), (0, 2)]);
        let mut ex = ExchangeState::new(3);
        ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &f.obs(1));
        assert!(f.group(&ex, 2, 1, 1, true).contains(&2));
    }
}
