//! Property-based tests of the flooding engine's conservation and budget
//! invariants on random overlays, and of its per-wave content probe against
//! a reference that probes hop by hop.

use ddp_metrics::TrafficAccumulator;
use ddp_sim::flood::{FirstHop, FloodEnv};
use ddp_sim::{FloodEngine, ForwardingPolicy, Overlay};
use ddp_topology::{DynamicGraph, NodeId};
use ddp_workload::content::ContentConfig;
use ddp_workload::{BandwidthClass, ContentCatalog, ObjectId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct World {
    n: usize,
    edges: Vec<(u32, u32)>,
    capacities: Vec<u32>,
    origin: u32,
    count: u32,
    ttl: u8,
}

fn world() -> impl Strategy<Value = World> {
    (4usize..24).prop_flat_map(|n| {
        let max = n as u32;
        (
            proptest::collection::vec((0..max, 0..max), 3..40),
            proptest::collection::vec(0u32..3_000, n),
            0..max,
            1u32..30_000,
            1u8..8,
        )
            .prop_map(move |(edges, capacities, origin, count, ttl)| World {
                n,
                edges,
                capacities,
                origin,
                count,
                ttl,
            })
    })
}

struct Built {
    overlay: Overlay,
    node_used: Vec<u32>,
    capacity: Vec<u32>,
    online: Vec<bool>,
    prev_util: Vec<f32>,
    traffic: TrafficAccumulator,
}

fn build(w: &World) -> Built {
    let mut g = DynamicGraph::new(w.n);
    for &(a, b) in &w.edges {
        g.add_edge(NodeId(a), NodeId(b));
    }
    // Ethernet class everywhere: node capacity is the binding constraint so
    // the conservation algebra below is exact.
    let overlay = Overlay::new(g, &vec![BandwidthClass::Ethernet; w.n]);
    Built {
        overlay,
        node_used: vec![0; w.n],
        capacity: w.capacities.clone(),
        online: vec![true; w.n],
        prev_util: vec![0.0; w.n],
        traffic: TrafficAccumulator::default(),
    }
}

fn flood(b: &mut Built, w: &World) -> ddp_sim::FloodOutcome {
    let mut env = FloodEnv {
        node_used: &mut b.node_used,
        capacity: &b.capacity,
        online: &b.online,
        prev_util: &b.prev_util,
        traffic: &mut b.traffic,
        policy: ForwardingPolicy::Fifo,
        fair_share_factor: 2.0,
        hop_latency_secs: 0.05,
        proc_delay_secs: 0.004,
    };
    let mut fe = FloodEngine::new(w.n);
    fe.flood(
        &mut b.overlay,
        NodeId(w.origin),
        FirstHop::All { count: w.count },
        w.ttl,
        None,
        &mut env,
    )
}

/// The flood kernel as it was when it probed content inside `send_one`:
/// every node that processes the batch is asked `ContentCatalog::holds` the
/// moment it is enqueued, and the first `true` fixes depth and delay. It keeps
/// its own link and node budgets across floods, reads the overlay only for
/// adjacency and link capacities, and reports `(found, hit_depth,
/// hit_delay_secs, processed_nodes)`.
struct HopByHop {
    sent: HashMap<(u32, usize), u32>,
    node_used: Vec<u32>,
}

#[derive(Clone, Copy)]
struct Hop {
    node: NodeId,
    parent: NodeId,
    count: u32,
    delay: f32,
}

struct Knobs<'a> {
    capacity: &'a [u32],
    online: &'a [bool],
    prev_util: &'a [f32],
    policy: ForwardingPolicy,
    fair_share_factor: f64,
    hop_latency_secs: f64,
    proc_delay_secs: f64,
}

impl HopByHop {
    #[allow(clippy::too_many_arguments)]
    fn flood(
        &mut self,
        overlay: &Overlay,
        origin: NodeId,
        first_hop: FirstHop,
        ttl: u8,
        catalog: &ContentCatalog,
        object: ObjectId,
        k: &Knobs<'_>,
    ) -> (bool, u32, f64, u32) {
        let mut hit: Option<(u32, f64)> = None;
        let mut processed = 0u32;
        if ttl == 0 || !k.online[origin.index()] {
            return (false, 0, 0.0, 0);
        }
        let mut visited = vec![false; k.online.len()];
        visited[origin.index()] = true;
        let mut frontier = vec![Hop { node: origin, parent: origin, count: 0, delay: 0.0 }];
        for depth in 1..=u32::from(ttl) {
            let mut next = Vec::new();
            for e in &frontier {
                for (slot, half) in overlay.neighbors(e.node).iter().enumerate() {
                    let count = match (depth, first_hop) {
                        (1, FirstHop::All { count }) => count,
                        (1, FirstHop::Single { slot: only, count }) if slot == only => count,
                        (1, FirstHop::Single { .. }) => continue,
                        _ if half.peer == e.parent => continue,
                        _ => e.count,
                    };
                    let v = half.peer;
                    if count == 0 || !k.online[v.index()] {
                        continue;
                    }
                    let on_link = self.sent.entry((e.node.0, slot)).or_insert(0);
                    let already = *on_link;
                    let sent = count.min(overlay.link_capacity(e.node, v).saturating_sub(already));
                    *on_link += sent;
                    if sent == 0 || visited[v.index()] {
                        continue;
                    }
                    let node_room = k.capacity[v.index()].saturating_sub(self.node_used[v.index()]);
                    let room = match k.policy {
                        ForwardingPolicy::Fifo => node_room,
                        ForwardingPolicy::FairShare => {
                            let deg = overlay.degree(v).max(1) as f64;
                            let share =
                                (k.fair_share_factor * k.capacity[v.index()] as f64 / deg) as u32;
                            node_room.min(share.saturating_sub(already))
                        }
                    };
                    let taken = sent.min(room);
                    if taken == 0 {
                        continue;
                    }
                    self.node_used[v.index()] += taken;
                    visited[v.index()] = true;
                    processed += 1;
                    let rho = k.prev_util[v.index()].min(0.98) as f64;
                    let delay =
                        e.delay + (k.hop_latency_secs + k.proc_delay_secs / (1.0 - rho)) as f32;
                    if hit.is_none() && catalog.holds(v, object) {
                        hit = Some((depth, delay as f64));
                    }
                    next.push(Hop { node: v, parent: e.node, count: taken, delay });
                }
            }
            frontier = next;
        }
        let (depth, delay) = hit.unwrap_or((0, 0.0));
        (hit.is_some(), depth, delay, processed)
    }
}

const CLASSES: [BandwidthClass; 4] =
    [BandwidthClass::Dialup, BandwidthClass::Cable, BandwidthClass::Dsl, BandwidthClass::Ethernet];

proptest! {
    /// Probing a wave at a time finds the hit that probing hop by hop finds:
    /// same `found`, same depth, same delay to the bit — over random
    /// overlays, bandwidth classes, capacities, utilizations, TTLs, both
    /// forwarding policies, libraries of every size from empty up, and a
    /// series of floods that runs the link and node budgets dry.
    #[test]
    fn wave_probe_finds_the_hop_by_hop_hit(w in world(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DynamicGraph::new(w.n);
        for &(a, b) in &w.edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let classes: Vec<_> = (0..w.n).map(|_| CLASSES[rng.gen_range(0..4)]).collect();
        let mut overlay = Overlay::new(g, &classes);
        let objects = rng.gen_range(1..40usize);
        let cfg = ContentConfig { num_objects: objects, objects_per_peer: 1, alpha: 0.8 };
        let mut catalog = ContentCatalog::generate(w.n, &cfg, &mut rng);
        for i in 0..w.n {
            let size = rng.gen_range(0..objects.min(6) + 1);
            catalog.regenerate_library(NodeId::from_index(i), size, &mut rng);
        }
        let mut online = vec![true; w.n];
        online[rng.gen_range(0..w.n)] = rng.gen();
        let prev_util: Vec<f32> = (0..w.n).map(|_| rng.gen::<f32>() * 1.2).collect();
        let policy =
            if rng.gen() { ForwardingPolicy::Fifo } else { ForwardingPolicy::FairShare };

        let mut engine = FloodEngine::new(w.n);
        let mut node_used = vec![0u32; w.n];
        let mut traffic = TrafficAccumulator::default();
        let mut reference = HopByHop { sent: HashMap::new(), node_used: vec![0; w.n] };
        for round in 0..8 {
            let origin = NodeId::from_index(rng.gen_range(0..w.n));
            let count = if rng.gen() { 1 } else { rng.gen_range(1..w.count + 1) };
            let degree = overlay.degree(origin);
            let first_hop = if degree > 0 && rng.gen() {
                FirstHop::Single { slot: rng.gen_range(0..degree), count }
            } else {
                FirstHop::All { count }
            };
            let ttl = rng.gen_range(0..w.ttl + 1);
            let object = ObjectId(rng.gen_range(0..objects) as u32);
            let knobs = Knobs {
                capacity: &w.capacities,
                online: &online,
                prev_util: &prev_util,
                policy,
                fair_share_factor: 2.0,
                hop_latency_secs: 0.05,
                proc_delay_secs: 0.004,
            };
            let want =
                reference.flood(&overlay, origin, first_hop, ttl, &catalog, object, &knobs);
            let mut env = FloodEnv {
                node_used: &mut node_used,
                capacity: knobs.capacity,
                online: knobs.online,
                prev_util: knobs.prev_util,
                traffic: &mut traffic,
                policy,
                fair_share_factor: knobs.fair_share_factor,
                hop_latency_secs: knobs.hop_latency_secs,
                proc_delay_secs: knobs.proc_delay_secs,
            };
            let target = Some((&catalog, object));
            let got = engine.flood(&mut overlay, origin, first_hop, ttl, target, &mut env);
            prop_assert_eq!(
                (got.found, got.hit_depth, got.hit_delay_secs.to_bits(), got.processed_nodes),
                (want.0, want.1, want.2.to_bits(), want.3),
                "round {}: flood {:?} against hop-by-hop {:?}", round, got, want
            );
            prop_assert_eq!(&node_used, &reference.node_used, "round {}", round);
        }
    }

    /// Budgets are never exceeded: processed <= capacity at every node.
    #[test]
    fn node_budgets_hold(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        for i in 0..w.n {
            prop_assert!(b.node_used[i] <= b.capacity[i],
                "node {i} used {} > capacity {}", b.node_used[i], b.capacity[i]);
        }
    }

    /// Everything sent on the wire either gets processed somewhere or is
    /// accounted as dropped at a link, a saturated node, or a dup filter —
    /// plus the copies never sent because the first hop was link-capped.
    #[test]
    fn wire_conservation(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        let total_wire: u64 = (0..w.n)
            .map(|i| b.overlay.total_sent(NodeId(i.try_into().unwrap())))
            .sum();
        prop_assert_eq!(total_wire, b.traffic.query_hops);
        let processed: u64 = b.node_used.iter().map(|&c| c as u64).sum();
        // wire = processed + (drops recorded at/after the wire) - (drops
        // counted before transmission). The engine books both kinds into
        // `dropped`, so wire <= processed + dropped and processed <= wire.
        prop_assert!(processed <= total_wire,
            "processed {processed} cannot exceed wire volume {total_wire}");
        prop_assert!(total_wire <= processed + b.traffic.dropped,
            "wire {} > processed {} + dropped {}", total_wire, processed, b.traffic.dropped);
    }

    /// Accepted (dup-filtered) volume never exceeds wire volume on any edge.
    #[test]
    fn accepted_is_a_subset_of_sent(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        for i in 0..w.n {
            let u = NodeId(i as u32);
            for slot in 0..b.overlay.degree(u) {
                prop_assert!(b.overlay.accepted_via(u, slot) <= b.overlay.sent_via(u, slot));
            }
        }
    }

    /// Flooding twice with the same inputs gives identical outcomes
    /// (determinism of the hot path).
    #[test]
    fn flood_is_deterministic(w in world()) {
        let mut b1 = build(&w);
        let o1 = flood(&mut b1, &w);
        let mut b2 = build(&w);
        let o2 = flood(&mut b2, &w);
        prop_assert_eq!(o1, o2);
        prop_assert_eq!(b1.node_used, b2.node_used);
        prop_assert_eq!(b1.traffic, b2.traffic);
    }

    /// The overlay's counter mirrors stay aligned through a flood.
    #[test]
    fn overlay_invariants_after_flood(w in world()) {
        let mut b = build(&w);
        flood(&mut b, &w);
        prop_assert!(b.overlay.check_invariants().is_ok());
    }
}
