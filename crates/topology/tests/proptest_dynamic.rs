//! Property-based tests for the dynamic graph's reciprocal-index invariant.

use ddp_topology::{DynamicGraph, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Op {
    AddEdge(u32, u32),
    RemoveEdge(u32, u32),
    /// Positional removal: the raw index is reduced modulo the node's
    /// current degree at execution time (no-op at degree 0).
    RemoveEdgeAt(u32, usize),
    Isolate(u32),
    /// Append a fresh isolated node (churn join / whitewash rebirth path).
    AddNode,
}

/// Raw node indices are drawn from `0..2n` and reduced modulo the *current*
/// node count at execution time, so ops land on appended nodes too once
/// `AddNode` has grown the graph past its initial size.
fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..2 * n, 0..2 * n).prop_map(|(u, v)| Op::AddEdge(u, v)),
        2 => (0..2 * n, 0..2 * n).prop_map(|(u, v)| Op::RemoveEdge(u, v)),
        2 => (0..2 * n, 0..64usize).prop_map(|(u, s)| Op::RemoveEdgeAt(u, s)),
        1 => (0..2 * n).prop_map(Op::Isolate),
        1 => Just(Op::AddNode),
    ]
}

/// Canonical undirected key for the shadow model.
fn key(u: NodeId, v: NodeId) -> (u32, u32) {
    (u.0.min(v.0), u.0.max(v.0))
}

/// Slot-exact shadow of the adjacency layout: the same half-edge/twin
/// semantics replayed on plain per-node `Vec`s. Where the set model above
/// checks *membership*, this one pins the arena's *layout* — every peer and
/// reciprocal index in every slot — so any divergence in `SegVec`'s segment
/// growth, relocation, or swap_remove handling shows up as a slot mismatch.
struct ShadowAdj {
    adj: Vec<Vec<(u32, u32)>>,
}

impl ShadowAdj {
    fn new(n: usize) -> Self {
        ShadowAdj { adj: vec![Vec::new(); n] }
    }

    fn contains(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].iter().any(|&(p, _)| p == v)
    }

    fn add_edge(&mut self, u: u32, v: u32) -> bool {
        if u == v || self.contains(u, v) {
            return false;
        }
        let iu = self.adj[u as usize].len() as u32;
        let iv = self.adj[v as usize].len() as u32;
        self.adj[u as usize].push((v, iv));
        self.adj[v as usize].push((u, iu));
        true
    }

    fn detach_half(&mut self, who: u32, slot: usize) {
        self.adj[who as usize].swap_remove(slot);
        if slot < self.adj[who as usize].len() {
            let (p, r) = self.adj[who as usize][slot];
            self.adj[p as usize][r as usize].1 = slot as u32;
        }
    }

    fn remove_edge_at(&mut self, u: u32, slot: usize) -> u32 {
        let (peer, ridx) = self.adj[u as usize][slot];
        self.detach_half(peer, ridx as usize);
        self.detach_half(u, slot);
        peer
    }

    fn remove_edge(&mut self, u: u32, v: u32) -> bool {
        match self.adj[u as usize].iter().position(|&(p, _)| p == v) {
            Some(slot) => {
                self.remove_edge_at(u, slot);
                true
            }
            None => false,
        }
    }

    fn isolate(&mut self, u: u32) -> Vec<u32> {
        let mut freed = Vec::new();
        while let Some(&(peer, ridx)) = self.adj[u as usize].last() {
            self.detach_half(peer, ridx as usize);
            self.adj[u as usize].pop();
            freed.push(peer);
        }
        freed
    }

    /// Append an isolated node, returning its index (mirrors
    /// `DynamicGraph::add_node`).
    fn add_node(&mut self) -> u32 {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as u32
    }
}

proptest! {
    /// Any interleaving of add/remove/remove-at/isolate/add-node keeps twin
    /// pointers, edge counts, and dedup invariants intact.
    #[test]
    fn dynamic_graph_invariants_hold(ops in proptest::collection::vec(op_strategy(24), 1..200)) {
        let mut g = DynamicGraph::new(24);
        for op in ops {
            let n = g.node_count() as u32;
            match op {
                Op::AddEdge(u, v) => { g.add_edge(NodeId(u % n), NodeId(v % n)); }
                Op::RemoveEdge(u, v) => { g.remove_edge(NodeId(u % n), NodeId(v % n)); }
                Op::RemoveEdgeAt(u, s) => {
                    let u = u % n;
                    let deg = g.degree(NodeId(u));
                    if deg > 0 {
                        g.remove_edge_at(NodeId(u), s % deg);
                    }
                }
                Op::Isolate(u) => { g.isolate(NodeId(u % n)); }
                Op::AddNode => {
                    let id = g.add_node();
                    prop_assert_eq!(id.index(), n as usize, "add_node must append");
                    prop_assert_eq!(g.degree(id), 0, "a fresh node starts isolated");
                }
            }
            prop_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
        }
    }

    /// The graph agrees with a shadow set-of-edges model after every single
    /// operation: membership, per-node degrees, and the edge count — across
    /// node insertions as well as edge churn.
    #[test]
    fn dynamic_graph_matches_shadow_model(
        ops in proptest::collection::vec(op_strategy(16), 1..150)
    ) {
        let mut g = DynamicGraph::new(16);
        let mut model: HashSet<(u32, u32)> = HashSet::new();
        for op in ops {
            let n = g.node_count() as u32;
            match op {
                Op::AddEdge(u, v) => {
                    let (u, v) = (u % n, v % n);
                    let added = g.add_edge(NodeId(u), NodeId(v));
                    prop_assert_eq!(
                        added,
                        u != v && model.insert(key(NodeId(u), NodeId(v))),
                        "add_edge({}, {}) return disagrees with the model", u, v
                    );
                }
                Op::RemoveEdge(u, v) => {
                    let (u, v) = (u % n, v % n);
                    let removed = g.remove_edge(NodeId(u), NodeId(v));
                    prop_assert_eq!(
                        removed,
                        model.remove(&key(NodeId(u), NodeId(v))),
                        "remove_edge({}, {}) return disagrees with the model", u, v
                    );
                }
                Op::RemoveEdgeAt(u, s) => {
                    let u = u % n;
                    let deg = g.degree(NodeId(u));
                    if deg > 0 {
                        let slot = s % deg;
                        let expect = g.neighbors(NodeId(u))[slot].peer;
                        let freed = g.remove_edge_at(NodeId(u), slot);
                        prop_assert_eq!(freed, expect, "remove_edge_at freed the wrong peer");
                        prop_assert!(model.remove(&key(NodeId(u), freed)));
                    }
                }
                Op::Isolate(u) => {
                    let u = u % n;
                    let freed = g.isolate(NodeId(u));
                    for v in &freed {
                        prop_assert!(model.remove(&key(NodeId(u), *v)));
                    }
                    prop_assert_eq!(g.degree(NodeId(u)), 0);
                    prop_assert!(!model.iter().any(|&(a, b)| a == u || b == u));
                }
                Op::AddNode => {
                    let id = g.add_node();
                    prop_assert_eq!(id.0, n, "add_node must return the next index");
                }
            }
            prop_assert_eq!(g.edge_count(), model.len());
            for u in 0..g.node_count() as u32 {
                let deg_model = model.iter().filter(|&&(a, b)| a == u || b == u).count();
                prop_assert_eq!(g.degree(NodeId(u)), deg_model, "degree mismatch at node {}", u);
            }
            for &(a, b) in &model {
                prop_assert!(g.contains_edge(NodeId(a), NodeId(b)));
            }
        }
    }

    /// The segmented arena matches the plain-`Vec` shadow slot-for-slot —
    /// peers *and* reciprocal indices — after every operation. This is the
    /// layout-level contract the per-edge counter arrays in the overlay rely
    /// on: a slot in the adjacency is a stable key for the tick's duration,
    /// and swap_remove slot evolution is identical to the naive layout.
    #[test]
    fn flat_adjacency_matches_slot_exact_shadow(
        ops in proptest::collection::vec(op_strategy(16), 1..150)
    ) {
        let mut g = DynamicGraph::new(16);
        let mut shadow = ShadowAdj::new(16);
        for op in ops {
            let n = g.node_count() as u32;
            match op {
                Op::AddEdge(u, v) => {
                    let (u, v) = (u % n, v % n);
                    prop_assert_eq!(g.add_edge(NodeId(u), NodeId(v)), shadow.add_edge(u, v));
                }
                Op::RemoveEdge(u, v) => {
                    let (u, v) = (u % n, v % n);
                    prop_assert_eq!(g.remove_edge(NodeId(u), NodeId(v)), shadow.remove_edge(u, v));
                }
                Op::RemoveEdgeAt(u, s) => {
                    let u = u % n;
                    let deg = g.degree(NodeId(u));
                    if deg > 0 {
                        let slot = s % deg;
                        let freed = g.remove_edge_at(NodeId(u), slot);
                        prop_assert_eq!(freed.0, shadow.remove_edge_at(u, slot));
                    }
                }
                Op::Isolate(u) => {
                    let u = u % n;
                    let freed: Vec<u32> = g.isolate(NodeId(u)).iter().map(|p| p.0).collect();
                    prop_assert_eq!(freed, shadow.isolate(u), "isolate order must match");
                }
                Op::AddNode => {
                    prop_assert_eq!(g.add_node().0, shadow.add_node(), "append index must match");
                }
            }
            prop_assert_eq!(g.node_count(), shadow.adj.len());
            for i in 0..g.node_count() {
                let got: Vec<(u32, u32)> =
                    g.neighbors(NodeId(i as u32)).iter().map(|h| (h.peer.0, h.ridx)).collect();
                prop_assert_eq!(
                    &got, &shadow.adj[i],
                    "adjacency row {} diverged from the slot-exact shadow", i
                );
            }
        }
    }
}
