//! Membership: every way a slot joins, leaves, is cut off, dwells or is
//! reborn. These methods are the only transitions of a slot's
//! [`SlotState`] and the only callers of `link` and `sever_all`. A slot
//! leaves the overlay only through `retire`, which severs its links first,
//! and only online slots are dialed, so an offline slot holds no link.
//!
//! | from | to | by |
//! |---|---|---|
//! | `Online` | `Offline`, `Free` | `retire`: a legacy or a session departure |
//! | `Offline`, `Free` | `Online` | `join`: a legacy rejoin or a session arrival |
//! | `Online` agent | `Isolated` | `isolate`: a cut left it at degree 0 |
//! | `Isolated` | `Online` | `try_reconnect_attacker`, once the window is over |
//! | `Isolated` | `Online` | `readmit`: a readmission probe linked it |
//! | `Isolated` | `Dwell` | `dwell` (through `retire`), when agents whitewash |
//! | `Dwell` | `Offline` for good | `rebirth`, which `join`s a fresh slot as the agent |

use super::{sample_capacity, Simulation};
use crate::defense::Defense;
use crate::node::{NodeState, Role, SlotState};
use crate::session::{sample_poisson, WhitewashRecord};
use ddp_topology::NodeId;
use rand::Rng;

impl<D: Defense> Simulation<D> {
    /// The membership phase of a tick: due rebirths, then departures and
    /// rejoins, then session arrivals, then connectivity repair.
    pub(super) fn churn_step(&mut self) {
        self.rebirth_due();
        let session_on = self.cfg.session.is_some();
        // Departures and rejoins. Note the loop bound is the population at
        // tick start: slots grown by arrivals below are not revisited until
        // the next tick.
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            let agent = self.nodes[i].role.is_attacker();
            match self.nodes[i].state {
                SlotState::Isolated { .. } if self.whitewash.is_some() => {
                    // Whitewash owns the comeback: the identity goes dark and
                    // a fresh one is reborn instead of the slot-rejoin policy.
                    self.dwell(node);
                }
                SlotState::Online { .. } | SlotState::Isolated { .. } if agent => {
                    // Dedicated agents do not churn; they only re-connect
                    // after being cut off.
                    self.try_reconnect_attacker(node);
                }
                SlotState::Online { ref mut lifetime_left } => {
                    if !session_on && !self.cfg.churn {
                        continue;
                    }
                    *lifetime_left = lifetime_left.saturating_sub(1);
                    if *lifetime_left > 0 {
                        continue;
                    }
                    if session_on {
                        // Open membership: a finished session leaves for good.
                        self.depart_permanently(node);
                    } else {
                        let rejoin_at = self.tick.saturating_add(self.cfg.rejoin_delay_ticks);
                        self.retire(node, SlotState::Offline { rejoin_at });
                    }
                }
                SlotState::Offline { rejoin_at } if !session_on && self.tick >= rejoin_at => {
                    self.join(node, None);
                }
                _ => {}
            }
        }
        if session_on {
            self.session_arrivals();
        }
        // Connectivity maintenance: peers that lost links (departed
        // neighbors, defensive cuts) seek replacements, as real servents do.
        self.maintain_connectivity();
    }

    /// Connect `u` and `v`: the defense learns of the new edge and any
    /// wrongful-cut interval of the pair ends. False when they were already
    /// connected. Never changes either slot's state.
    fn link(&mut self, u: NodeId, v: NodeId) -> bool {
        let added = self.overlay.add_edge(u, v);
        if added {
            self.defense.on_edge_added(u, v, self.overlay.degree(u), self.overlay.degree(v));
            self.close_wrongful(u, v);
        }
        added
    }

    /// Drop every edge of `node`, telling the defense about each, and close
    /// the wrongful-cut intervals that involved it.
    fn sever_all(&mut self, node: NodeId) {
        for peer in self.overlay.isolate(node) {
            self.defense.on_edge_removed(node, peer, 0, self.overlay.degree(peer));
        }
        self.close_wrongful_for(node);
    }

    /// Set `node` up as a brand-new good peer with a clean record and dial
    /// `join_degree` peers drawn by [`pick_peer`](Self::pick_peer). A legacy
    /// rejoin (`lifetime: None`) draws bandwidth, lifetime and capacity from
    /// the churn stream and dials unvetoed; an arrival or a rebirth brings
    /// its lifetime and draws bandwidth and capacity from the session stream,
    /// dialing through the defense's quarantine veto.
    fn join(&mut self, node: NodeId, lifetime: Option<u32>) {
        let bootstrap = lifetime.is_some();
        let rng = if bootstrap { &mut self.rng_session } else { &mut self.rng_churn };
        let bw = self.cfg.bandwidth.sample(rng);
        let lifetime = lifetime.unwrap_or_else(|| self.cfg.lifetime.sample_minutes(rng));
        let capacity = sample_capacity(&self.cfg, rng);
        self.nodes[node.index()] = NodeState::good(capacity, lifetime);
        self.overlay.set_class(node, bw);
        self.catalog.regenerate_library(node, self.cfg.content.objects_per_peer, rng);
        self.prev_util[node.index()] = 0.0;
        self.counted_wrongly_cut[node.index()] = false;
        self.defense.on_peer_reset(node);
        for _ in 0..self.cfg.join_degree {
            if let Some(peer) = self.pick_peer(node, bootstrap) {
                self.link(node, peer);
            }
        }
    }

    /// Take `node` off the overlay into the offline state `to`: every edge
    /// severed, its defense state wiped. The one way a peer leaves — legacy
    /// departure, session departure and the whitewash dwell all come through
    /// here.
    fn retire(&mut self, node: NodeId, to: SlotState) {
        debug_assert!(!to.is_online());
        self.sever_all(node);
        self.nodes[node.index()].state = to;
        self.defense.on_peer_reset(node);
    }

    /// Session-model departure: the peer leaves for good. A graceful leave
    /// lets neighbors purge everything keyed by the departed identity
    /// ([`Defense::on_peer_departed`]); a crash sends no goodbye — stale
    /// defense state about the dead address must be TTL-expired instead.
    /// Either way the slot enters the free list for a future arrival.
    fn depart_permanently(&mut self, node: NodeId) {
        let crash_fraction = self.cfg.session.as_ref().map_or(0.0, |s| s.crash_fraction);
        let crashed = self.rng_session.gen::<f64>() < crash_fraction;
        self.retire(node, SlotState::Free);
        if crashed {
            self.session_stats.crashes += 1;
        } else {
            self.session_stats.leaves += 1;
            self.defense.on_peer_departed(node);
        }
        self.free_slots.push(node.index());
    }

    /// Poisson arrivals of brand-new peers: each pops a free slot (recycling
    /// a permanently departed address) or grows the arena, up to the
    /// configured cap.
    fn session_arrivals(&mut self) {
        let Some(sess) = self.cfg.session.as_ref() else { return };
        let (rate, max_peers, lifetime_model) =
            (sess.arrival_rate_per_tick, sess.max_peers, sess.session_length);
        let arrivals = sample_poisson(&mut self.rng_session, rate);
        for _ in 0..arrivals {
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    // Recycled address: even after a crash (which sent no
                    // goodbye), the defense must shed every counter and
                    // verdict keyed by the previous incarnation before the
                    // newcomer takes the slot.
                    self.defense.on_peer_departed(NodeId::from_index(slot));
                    slot
                }
                None if self.nodes.len() < max_peers => self.grow_one_slot(),
                None => {
                    self.session_stats.joins_skipped += 1;
                    continue;
                }
            };
            let lifetime = lifetime_model.sample_minutes(&mut self.rng_session).max(1);
            self.join(NodeId::from_index(slot), Some(lifetime));
            self.session_stats.joins += 1;
        }
    }

    /// Grow every per-node structure by one slot; returns the new index.
    /// The slot holds a placeholder peer until [`join`](Self::join) sets it
    /// up.
    fn grow_one_slot(&mut self) -> usize {
        let node = self.overlay.add_node(ddp_workload::BandwidthClass::Cable);
        debug_assert_eq!(node.index(), self.nodes.len());
        self.nodes.push(NodeState::good(self.cfg.good_capacity_qpm, 1));
        self.prev_util.push(0.0);
        self.counted_wrongly_cut.push(false);
        self.flood.resize(self.nodes.len());
        self.defense.on_nodes_grown(self.nodes.len());
        self.session_stats.grown_slots += 1;
        node.index()
    }

    /// A defensive cut left the agent `node` with no link: it is cut off,
    /// and re-dials only once the rejoin policy's window is over.
    pub(super) fn isolate(&mut self, node: NodeId) {
        let until = self.tick.saturating_add(self.cfg.attacker_rejoin_delay_ticks);
        self.nodes[node.index()].state = SlotState::Isolated { until };
    }

    /// The isolated agent `node` sheds its identity: the burned slot goes
    /// dark now — no readmission probe can re-link it through the dwell —
    /// and a fresh identity is reborn once the dwell expires. Its slot is
    /// never recycled (a whitewasher does not hand its burned address back
    /// to the bootstrap system).
    fn dwell(&mut self, node: NodeId) {
        let Some(ww) = self.whitewash else { return };
        let rebirth_at = self.tick.saturating_add(ww.dwell_ticks);
        self.retire(node, SlotState::Dwell { rebirth_at });
    }

    /// Rebirth every dwelling slot whose dwell is over, in ascending slot
    /// order.
    fn rebirth_due(&mut self) {
        if self.whitewash.is_none() {
            return;
        }
        for i in 0..self.nodes.len() {
            if let SlotState::Dwell { rebirth_at } = self.nodes[i].state {
                if rebirth_at <= self.tick {
                    self.rebirth(NodeId::from_index(i));
                }
            }
        }
    }

    /// The dwelling agent `old` comes back: a freshly grown slot joins as an
    /// apparently ordinary newcomer, turns attacker, and (optionally) lies
    /// dormant through its quiet window. The burned slot stays offline for
    /// good.
    fn rebirth(&mut self, old: NodeId) {
        let (Some(ww), Role::Attacker { rate_qpm, report }) =
            (self.whitewash, self.nodes[old.index()].role)
        else {
            return;
        };
        self.nodes[old.index()].state = SlotState::Offline { rejoin_at: u32::MAX };
        let new = NodeId::from_index(self.grow_one_slot());
        self.join(new, Some(1)); // lifetime irrelevant: attackers never leave
        let s = &mut self.nodes[new.index()];
        s.make_attacker(rate_qpm, report);
        s.dormant_until = self.tick.saturating_add(ww.quiet_ticks);
        self.whitewash_log.push(WhitewashRecord { tick: self.tick, old, new });
    }

    fn try_reconnect_attacker(&mut self, node: NodeId) {
        let i = node.index();
        if let SlotState::Isolated { until } = self.nodes[i].state {
            // Identified and fully cut off: only the rejoin policy brings it
            // back ("no mechanism can prevent the DDoS Agent from joining
            // the system again", §3.7.2 — disabled by default to match the
            // paper's monotone damage decay).
            if self.tick < until {
                return;
            }
            self.nodes[i].state = SlotState::Online { lifetime_left: u32::MAX };
        }
        // An agent whose last link vanished to neighbor churn re-dials (it
        // was never identified). Partially connected agents stay as they
        // are: the paper's agents "walk in" once and do not adaptively
        // re-provision links while under observation.
        if self.overlay.degree(node) > 0 {
            return;
        }
        // Under the session model too an agent re-dials from the churn
        // stream without the veto: it heeds no bootstrap list.
        self.dial_up(node, false);
    }

    /// A readmission probe re-dials the cut pair, if both ends are still
    /// online. An agent accepts any dial, so an isolated agent the probe
    /// reaches is back in the overlay: its isolation window ends, and the
    /// defense's probation watches a real link.
    pub(super) fn readmit(&mut self, observer: NodeId, suspect: NodeId) {
        if !(self.is_online(observer) && self.is_online(suspect)) {
            return;
        }
        self.link(observer, suspect);
        if let SlotState::Isolated { .. } = self.nodes[suspect.index()].state {
            self.nodes[suspect.index()].state = SlotState::Online { lifetime_left: u32::MAX };
        }
    }

    fn maintain_connectivity(&mut self) {
        // Open-membership repair honors the quarantine veto so self-healing
        // cannot silently undo a defensive cut.
        let bootstrap = self.cfg.session.is_some();
        for i in 0..self.nodes.len() {
            if self.nodes[i].state.is_online() && !self.nodes[i].role.is_attacker() {
                self.dial_up(NodeId::from_index(i), bootstrap);
            }
        }
    }

    /// Dial peers drawn by [`pick_peer`](Self::pick_peer) until `node` holds
    /// `join_degree` links, stopping at the first draw that finds nobody or
    /// a peer it is already connected to.
    fn dial_up(&mut self, node: NodeId, bootstrap: bool) {
        while self.overlay.degree(node) < self.cfg.join_degree {
            match self.pick_peer(node, bootstrap) {
                Some(peer) if self.link(node, peer) => {}
                _ => break,
            }
        }
    }

    /// Sample a random *reachable* peer other than `not`: online and holding
    /// at least one connection. Joining peers learn candidates from host
    /// caches and other peers' neighbor lists, so a fully isolated peer
    /// (e.g. a disconnected DDoS agent) is not advertised anywhere — which
    /// realizes the paper's "queries issued by peer j will be isolated"
    /// containment. The joiner itself may of course be isolated.
    ///
    /// `bootstrap` is the session-model pick: drawn from the session stream
    /// (so legacy-churn draws are untouched) and honoring the defense's
    /// quarantine veto — a bootstrap list would not advertise, and a
    /// defended peer would not accept, a pairing one side has quarantined or
    /// on probation. Otherwise the draw is from the churn stream, unvetoed.
    fn pick_peer(&mut self, not: NodeId, bootstrap: bool) -> Option<NodeId> {
        let n = self.nodes.len();
        for _ in 0..32 {
            let rng = if bootstrap { &mut self.rng_session } else { &mut self.rng_churn };
            let cand = NodeId::from_index(rng.gen_range(0..n));
            if cand != not
                && self.nodes[cand.index()].state.is_online()
                && self.overlay.degree(cand) > 0
                && !(bootstrap && self.defense.forbids_link(not, cand))
            {
                return Some(cand);
            }
        }
        None
    }
}
