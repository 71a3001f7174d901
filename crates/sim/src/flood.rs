//! Capacity-aware batch flooding.
//!
//! One `flood` call propagates a batch of `count` identical-origin queries
//! breadth-first through the overlay, consuming per-node processing budgets
//! and per-link bandwidth budgets, suppressing duplicates (each node
//! processes a batch at most once — the paper's §2.2 no-duplication
//! assumption applied per BFS wave), and optionally probing for an object to
//! compute success and response time.
//!
//! A hit never stops or steers a flood, so the probe is not part of the
//! per-hop work: after each wave the kernel walks the wave's receivers in the
//! order they were enqueued, up to the first holder. That is the hit a
//! per-hop probe would have recorded first, but a wave's library lookups are
//! independent loads the core can overlap instead of one dependent miss
//! chain per hop.
//!
//! All scratch state (visited stamps, frontiers) is owned by [`FloodEngine`]
//! and reused across calls: the flooding loop performs no allocation once
//! the engine is warm.
//!
//! This is the simulator's hottest code: at 10⁵ nodes a single tick visits
//! millions of half-edges. The inner loop therefore runs against the
//! overlay's split-borrow ([`Overlay::flood_parts`]): per *sender* it fetches
//! the neighbor slice, the flat `[sent, accepted]` counter row, and the
//! capacity-table row exactly once, then walks the slots with no per-edge row
//! lookups — every counter update in `send_one` lands in the sender's row.

use crate::config::ForwardingPolicy;
use crate::overlay::{Overlay, ACCEPTED, SENT};
use ddp_metrics::TrafficAccumulator;
use ddp_topology::{DynamicGraph, Half, NodeId};
use ddp_workload::{ContentCatalog, ObjectId};

/// How the batch leaves its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstHop {
    /// Send `count` to every neighbor (a good peer's flooded query).
    All { count: u32 },
    /// Send `count` only via adjacency `slot` (an attacker flooding distinct
    /// queries per link, Figure 1 of the paper).
    Single { slot: usize, count: u32 },
}

/// Result of flooding one batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FloodOutcome {
    /// BFS depth of the first node holding the target (0 when no hit).
    pub hit_depth: u32,
    /// One-way latency to the first hit, seconds (0 when no hit).
    pub hit_delay_secs: f64,
    /// Whether any reached node held the target object.
    pub found: bool,
    /// Nodes that processed the batch (excluding the origin).
    pub processed_nodes: u32,
}

/// Mutable per-tick environment the flood draws budgets from.
pub struct FloodEnv<'a> {
    /// Per-node processed-query counters for this tick.
    pub node_used: &'a mut [u32],
    /// Per-node processing capacities (queries/min).
    pub capacity: &'a [u32],
    /// Per-node online flags.
    pub online: &'a [bool],
    /// Previous-tick utilization per node (congestion delay input).
    pub prev_util: &'a [f32],
    /// Traffic accounting sink.
    pub traffic: &'a mut TrafficAccumulator,
    /// Capacity-sharing policy.
    pub policy: ForwardingPolicy,
    /// FairShare: multiple of the equal per-link share one link may use.
    pub fair_share_factor: f64,
    /// One-way per-hop latency, seconds.
    pub hop_latency_secs: f64,
    /// Idle per-query processing delay, seconds.
    pub proc_delay_secs: f64,
}

impl FloodEnv<'_> {
    /// Queueing-style congestion delay at node `v`, seconds: service time
    /// scaled by `1 / (1 - utilization)`, utilization taken from the
    /// previous tick (feedback, since this tick's load is still forming).
    #[inline]
    fn node_delay(&self, v: NodeId) -> f64 {
        let rho = self.prev_util[v.index()].min(0.98) as f64;
        self.proc_delay_secs / (1.0 - rho)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    node: NodeId,
    parent: NodeId,
    count: u32,
    delay: f32,
}

/// Reusable flooding engine (one per simulation).
#[derive(Debug, Default)]
pub struct FloodEngine {
    visited: Vec<u32>,
    generation: u32,
    frontier: Vec<Entry>,
    next: Vec<Entry>,
    current_depth: u32,
}

impl FloodEngine {
    /// Engine for overlays of `n` nodes.
    pub fn new(n: usize) -> Self {
        FloodEngine {
            visited: vec![0; n],
            generation: 0,
            frontier: Vec::new(),
            next: Vec::new(),
            current_depth: 0,
        }
    }

    /// Grow to accommodate `n` nodes.
    pub fn resize(&mut self, n: usize) {
        if n > self.visited.len() {
            self.visited.resize(n, 0);
        }
    }

    #[inline]
    fn mark(&mut self, v: NodeId) {
        self.visited[v.index()] = self.generation;
    }

    /// Flood a batch from `origin`.
    ///
    /// `ttl` bounds the number of overlay hops; `target` (if any) is probed
    /// at every processing node to detect search success.
    pub fn flood(
        &mut self,
        overlay: &mut Overlay,
        origin: NodeId,
        first_hop: FirstHop,
        ttl: u8,
        target: Option<(&ContentCatalog, ObjectId)>,
        env: &mut FloodEnv<'_>,
    ) -> FloodOutcome {
        let mut outcome = FloodOutcome::default();
        if ttl == 0 || !env.online[origin.index()] {
            return outcome;
        }
        // New BFS wave: bump the visited generation (wrap -> full reset).
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.visited.fill(0);
            self.generation = 1;
        }
        self.frontier.clear();
        self.next.clear();
        self.mark(origin);
        self.current_depth = 1;

        let (graph, counters, class_idx, cap_table) = overlay.flood_parts();

        // First hop: origin pushes the batch out on the selected link(s).
        {
            let neigh = graph.neighbors(origin);
            let cap_row = &cap_table[class_idx[origin.index()] as usize];
            let row = counters.slice_mut(origin.index());
            match first_hop {
                FirstHop::All { count } => {
                    for (slot, &half) in neigh.iter().enumerate() {
                        self.send_one(
                            graph,
                            row,
                            cap_row,
                            class_idx,
                            origin,
                            half,
                            slot,
                            count,
                            0.0,
                            env,
                            &mut outcome,
                        );
                    }
                }
                FirstHop::Single { slot, count } => {
                    debug_assert!(slot < neigh.len(), "first-hop slot out of range");
                    let half = neigh[slot];
                    self.send_one(
                        graph,
                        row,
                        cap_row,
                        class_idx,
                        origin,
                        half,
                        slot,
                        count,
                        0.0,
                        env,
                        &mut outcome,
                    );
                }
            }
        }
        self.probe_wave(target, &mut outcome);
        std::mem::swap(&mut self.frontier, &mut self.next);

        // Remaining hops.
        let mut hops_left = ttl - 1;
        while hops_left > 0 && !self.frontier.is_empty() {
            self.current_depth += 1;
            self.next.clear();
            // Move the frontier out so `send_one` can borrow `self` mutably;
            // the buffer is handed back afterwards (no allocation).
            let frontier = std::mem::take(&mut self.frontier);
            for e in &frontier {
                let neigh = graph.neighbors(e.node);
                if neigh.is_empty() {
                    continue;
                }
                // Per-sender hoists: every counter touched below lives in the
                // sender's row, and the capacity row depends only on the
                // sender's class.
                let cap_row = &cap_table[class_idx[e.node.index()] as usize];
                let row = counters.slice_mut(e.node.index());
                for (slot, &half) in neigh.iter().enumerate() {
                    if half.peer == e.parent {
                        continue; // never echo back along the arrival link
                    }
                    self.send_one(
                        graph,
                        row,
                        cap_row,
                        class_idx,
                        e.node,
                        half,
                        slot,
                        e.count,
                        e.delay,
                        env,
                        &mut outcome,
                    );
                }
            }
            self.frontier = frontier;
            self.frontier.clear();
            self.probe_wave(target, &mut outcome);
            std::mem::swap(&mut self.frontier, &mut self.next);
            hops_left -= 1;
        }
        // Traffic for the first hit traveling back along the reverse path.
        if outcome.found {
            env.traffic.hit_hops += outcome.hit_depth as u64;
        }
        outcome
    }

    /// Record the search's first hit if the wave just enqueued in `next`
    /// holds one: the first holder in enqueue order, at the wave's depth and
    /// with the delay its copy of the query arrived with.
    #[inline]
    fn probe_wave(&self, target: Option<(&ContentCatalog, ObjectId)>, outcome: &mut FloodOutcome) {
        let Some((catalog, object)) = target else { return };
        if outcome.found {
            return;
        }
        if let Some(hit) = self.next.iter().find(|e| catalog.holds(e.node, object)) {
            outcome.found = true;
            outcome.hit_delay_secs = hit.delay as f64;
            outcome.hit_depth = self.current_depth;
        }
    }

    /// Try to push `count` queries via the half-edge `half` occupying `slot`
    /// of the sender's adjacency (whose counter row is `row` and whose
    /// capacity-table row is `cap_row`); enqueue the receiver into `next` if
    /// it processes any of them.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn send_one(
        &mut self,
        graph: &DynamicGraph,
        row: &mut [[u32; 2]],
        cap_row: &[u32; 4],
        class_idx: &[u8],
        u: NodeId,
        half: Half,
        slot: usize,
        count: u32,
        delay_so_far: f32,
        env: &mut FloodEnv<'_>,
        outcome: &mut FloodOutcome,
    ) {
        if count == 0 {
            return;
        }
        let v = half.peer;
        let vi = v.index();
        if !env.online[vi] {
            return;
        }
        // Link budget: capacity minus what already crossed this tick.
        let link_cap = cap_row[class_idx[vi] as usize];
        let already_on_link = row[slot][SENT];
        let link_room = link_cap.saturating_sub(already_on_link);
        let send_c = count.min(link_room);
        env.traffic.dropped += (count - send_c) as u64;
        if send_c == 0 {
            return;
        }
        row[slot][SENT] = already_on_link + send_c;
        env.traffic.query_hops += send_c as u64;

        // Duplicate suppression: v processes each batch wave at most once;
        // later arrivals land in its seen-GUID table and die there.
        if self.visited[vi] == self.generation {
            env.traffic.dropped += send_c as u64;
            return;
        }
        // Fresh arrival: v's receiver-side (dup-filtered) counter sees it
        // whether or not capacity lets v forward it.
        row[slot][ACCEPTED] += send_c;

        // Node processing budget (optionally fair-shared per incoming link).
        let node_room = env.capacity[vi].saturating_sub(env.node_used[vi]);
        let room = match env.policy {
            ForwardingPolicy::Fifo => node_room,
            ForwardingPolicy::FairShare => {
                // Each incoming link may consume at most `factor x capacity /
                // degree`; `already_on_link` is what this link used so far.
                let deg = graph.degree(v).max(1) as f64;
                let share = (env.fair_share_factor * env.capacity[vi] as f64 / deg) as u32;
                let link_allow = share.saturating_sub(already_on_link);
                node_room.min(link_allow)
            }
        };
        let proc_c = send_c.min(room);
        env.traffic.dropped += (send_c - proc_c) as u64;
        if proc_c == 0 {
            return;
        }
        env.node_used[vi] += proc_c;
        self.visited[vi] = self.generation;
        outcome.processed_nodes += 1;

        let delay = delay_so_far + (env.hop_latency_secs + env.node_delay(v)) as f32;
        self.next.push(Entry { node: v, parent: u, count: proc_c, delay });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_topology::DynamicGraph;
    use ddp_workload::content::ContentConfig;
    use ddp_workload::BandwidthClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(n: usize, edges: &[(u32, u32)]) -> Overlay {
        let mut g = DynamicGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        Overlay::new(g, &vec![BandwidthClass::Ethernet; n])
    }

    struct Env {
        node_used: Vec<u32>,
        capacity: Vec<u32>,
        online: Vec<bool>,
        prev_util: Vec<f32>,
        traffic: TrafficAccumulator,
    }

    impl Env {
        fn new(n: usize, cap: u32) -> Self {
            Env {
                node_used: vec![0; n],
                capacity: vec![cap; n],
                online: vec![true; n],
                prev_util: vec![0.0; n],
                traffic: TrafficAccumulator::default(),
            }
        }

        fn env(&mut self) -> FloodEnv<'_> {
            FloodEnv {
                node_used: &mut self.node_used,
                capacity: &self.capacity,
                online: &self.online,
                prev_util: &self.prev_util,
                traffic: &mut self.traffic,
                policy: ForwardingPolicy::Fifo,
                fair_share_factor: 2.0,
                hop_latency_secs: 0.05,
                proc_delay_secs: 0.004,
            }
        }
    }

    #[test]
    fn flood_reaches_everyone_within_ttl_on_a_path() {
        // 0-1-2-3-4: ttl 2 from node 0 processes nodes 1 and 2 only.
        let mut o = overlay(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut env = Env::new(5, 1000);
        let mut fe = FloodEngine::new(5);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 1 }, 2, None, &mut env.env());
        assert_eq!(out.processed_nodes, 2);
        assert_eq!(env.node_used, vec![0, 1, 1, 0, 0]);
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), 1);
        assert_eq!(o.sent_between(NodeId(1), NodeId(2)), 1);
        assert_eq!(o.sent_between(NodeId(2), NodeId(3)), 0);
    }

    #[test]
    fn duplicate_suppression_on_a_cycle() {
        // Triangle 0-1-2: node 0 floods; 1 and 2 both process once, and the
        // 1->2 / 2->1 copies are dup-dropped.
        let mut o = overlay(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut env = Env::new(3, 1000);
        let mut fe = FloodEngine::new(3);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 5 }, 7, None, &mut env.env());
        assert_eq!(out.processed_nodes, 2);
        assert_eq!(env.node_used, vec![0, 5, 5]);
        // The duplicate copies were sent (consumed bandwidth) then dropped.
        assert_eq!(env.traffic.dropped, 10);
        // No echo back to the origin.
        assert_eq!(o.sent_between(NodeId(1), NodeId(0)), 0);
        assert_eq!(o.sent_between(NodeId(2), NodeId(0)), 0);
    }

    #[test]
    fn node_capacity_limits_processing() {
        // 0 -> 1 with capacity 3 at node 1: a batch of 10 processes 3.
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2, 3);
        let mut fe = FloodEngine::new(2);
        fe.flood(&mut o, NodeId(0), FirstHop::All { count: 10 }, 2, None, &mut env.env());
        assert_eq!(env.node_used[1], 3);
        assert_eq!(env.traffic.dropped, 7);
        // The wire still carried all 10.
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), 10);
    }

    #[test]
    fn link_capacity_limits_transmission() {
        // Dialup receiver: link cap = 56 Kbps = 840 q/min at 500 B/query.
        let mut g = DynamicGraph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        let mut o = Overlay::new(g, &[BandwidthClass::Ethernet, BandwidthClass::Dialup]);
        let cap = o.link_capacity(NodeId(0), NodeId(1));
        assert_eq!(cap, 840);
        let mut env = Env::new(2, 100_000);
        let mut fe = FloodEngine::new(2);
        fe.flood(&mut o, NodeId(0), FirstHop::All { count: 20_000 }, 2, None, &mut env.env());
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), cap);
        assert_eq!(env.traffic.dropped, (20_000 - cap) as u64);
        assert_eq!(env.node_used[1], cap);
    }

    #[test]
    fn single_slot_first_hop_only_uses_that_link() {
        let mut o = overlay(4, &[(0, 1), (0, 2), (0, 3)]);
        let slot = o.graph().slot_of(NodeId(0), NodeId(2)).unwrap();
        let mut env = Env::new(4, 1000);
        let mut fe = FloodEngine::new(4);
        fe.flood(&mut o, NodeId(0), FirstHop::Single { slot, count: 9 }, 1, None, &mut env.env());
        assert_eq!(o.sent_between(NodeId(0), NodeId(2)), 9);
        assert_eq!(o.sent_between(NodeId(0), NodeId(1)), 0);
        assert_eq!(o.sent_between(NodeId(0), NodeId(3)), 0);
    }

    #[test]
    fn offline_nodes_are_skipped() {
        let mut o = overlay(3, &[(0, 1), (1, 2)]);
        let mut env = Env::new(3, 1000);
        env.online[1] = false;
        let mut fe = FloodEngine::new(3);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 4 }, 7, None, &mut env.env());
        assert_eq!(out.processed_nodes, 0);
        assert_eq!(env.node_used, vec![0, 0, 0]);
    }

    #[test]
    fn offline_origin_floods_nothing() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2, 1000);
        env.online[0] = false;
        let mut fe = FloodEngine::new(2);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 4 }, 7, None, &mut env.env());
        assert_eq!(out.processed_nodes, 0);
        assert_eq!(env.traffic.query_hops, 0);
    }

    #[test]
    fn target_hit_records_depth_and_delay() {
        // 0-1-2; make node 2 hold an object and search for it.
        let mut o = overlay(3, &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ContentConfig { num_objects: 10, objects_per_peer: 10, alpha: 1.0 };
        let catalog = ContentCatalog::generate(3, &cfg, &mut rng);
        // With 10 objects and 10 per peer, node 2 holds everything.
        let mut env = Env::new(3, 1000);
        let mut fe = FloodEngine::new(3);
        let out = fe.flood(
            &mut o,
            NodeId(0),
            FirstHop::All { count: 1 },
            7,
            Some((&catalog, ObjectId(0))),
            &mut env.env(),
        );
        assert!(out.found);
        assert_eq!(out.hit_depth, 1, "node 1 also holds everything at depth 1");
        assert!(out.hit_delay_secs > 0.0);
        assert_eq!(env.traffic.hit_hops, 1);
    }

    #[test]
    fn congestion_raises_delay() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2, 1000);
        let mut fe = FloodEngine::new(2);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ContentConfig { num_objects: 2, objects_per_peer: 2, alpha: 1.0 };
        let catalog = ContentCatalog::generate(2, &cfg, &mut rng);
        let idle = fe
            .flood(
                &mut o,
                NodeId(0),
                FirstHop::All { count: 1 },
                2,
                Some((&catalog, ObjectId(0))),
                &mut env.env(),
            )
            .hit_delay_secs;
        o.reset_tick_counters();
        env.node_used.fill(0);
        env.prev_util[1] = 0.95;
        let busy = fe
            .flood(
                &mut o,
                NodeId(0),
                FirstHop::All { count: 1 },
                2,
                Some((&catalog, ObjectId(0))),
                &mut env.env(),
            )
            .hit_delay_secs;
        assert!(busy > idle * 2.0, "busy {busy} should dwarf idle {idle}");
        // Near-saturation (clamped at 0.98) inflates further.
        o.reset_tick_counters();
        env.node_used.fill(0);
        env.prev_util[1] = 1.0;
        let saturated = fe
            .flood(
                &mut o,
                NodeId(0),
                FirstHop::All { count: 1 },
                2,
                Some((&catalog, ObjectId(0))),
                &mut env.env(),
            )
            .hit_delay_secs;
        assert!(saturated > busy, "saturated {saturated} > busy {busy}");
    }

    #[test]
    fn fair_share_caps_one_links_consumption() {
        // Star: 1,2,3 -> 0. Node 0 capacity 90, degree 3, factor 1.0:
        // each incoming link may use at most 30.
        let mut o = overlay(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut env = Env::new(4, 90);
        let mut fe = FloodEngine::new(4);
        let mut fenv = env.env();
        fenv.policy = ForwardingPolicy::FairShare;
        fenv.fair_share_factor = 1.0;
        fe.flood(&mut o, NodeId(1), FirstHop::All { count: 80 }, 1, None, &mut fenv);
        assert_eq!(env.node_used[0], 30, "fair share caps the flood at 30");
        // A second link still gets its share.
        let mut fenv = env.env();
        fenv.policy = ForwardingPolicy::FairShare;
        fenv.fair_share_factor = 1.0;
        fe.flood(&mut o, NodeId(2), FirstHop::All { count: 80 }, 1, None, &mut fenv);
        assert_eq!(env.node_used[0], 60);
    }

    #[test]
    fn ttl_zero_is_a_noop() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2, 1000);
        let mut fe = FloodEngine::new(2);
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 5 }, 0, None, &mut env.env());
        assert_eq!(out.processed_nodes, 0);
        assert_eq!(env.traffic.query_hops, 0);
    }

    #[test]
    fn generation_wraparound_resets_visited() {
        let mut o = overlay(2, &[(0, 1)]);
        let mut env = Env::new(2, 1000);
        let mut fe = FloodEngine::new(2);
        fe.generation = u32::MAX; // force wrap on next flood
        let out = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 1 }, 2, None, &mut env.env());
        assert_eq!(out.processed_nodes, 1);
        // And a subsequent flood still works.
        let out2 = fe.flood(&mut o, NodeId(0), FirstHop::All { count: 1 }, 2, None, &mut env.env());
        assert_eq!(out2.processed_nodes, 1);
    }
}
