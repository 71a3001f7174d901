//! Mutable overlay graph with O(1) edge removal and reciprocal indices.
//!
//! The simulator mutates the overlay constantly: peers join and leave (churn,
//! §3.5 of the paper) and DD-POLICE disconnects suspected DDoS agents. Each
//! adjacency entry is a [`Half`] edge that records, besides the peer id, the
//! position (`ridx`) of the *twin* entry in the peer's adjacency list. This
//! makes `remove_edge` O(degree) for the lookup but O(1) for the splice, and —
//! crucially for the simulator — lets per-directed-edge traffic counters be
//! stored positionally (`counter[u][slot]`) and accessed from either side of
//! the edge without hashing.
//!
//! Adjacency rows live in a single flat [`SegVec`] arena rather than a
//! `Vec<Vec<Half>>`: the flooding hot loop touches every half-edge of every
//! frontier node each tick, and one contiguous allocation removes a pointer
//! chase (and an allocator round-trip per node) from that path. Slot
//! evolution under `swap_remove` is bit-identical to the nested-`Vec`
//! layout, so positional counter mirrors remain valid.

use crate::{NodeId, SegVec};

/// One directed half of an undirected overlay connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Half {
    /// The peer at the far end of this connection.
    pub peer: NodeId,
    /// Index of the twin half-edge inside `peer`'s adjacency list.
    pub ridx: u32,
}

/// Padding value for unused arena headroom; never observable via `neighbors`.
const HOLE: Half = Half { peer: NodeId(u32::MAX), ridx: u32::MAX };

/// A mutable undirected graph supporting the overlay's churn operations.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    adj: SegVec<Half>,
    edge_count: usize,
}

impl Default for DynamicGraph {
    fn default() -> Self {
        DynamicGraph::new(0)
    }
}

impl DynamicGraph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        DynamicGraph { adj: SegVec::new(n, HOLE), edge_count: 0 }
    }

    /// Build from an undirected edge list over `n` nodes (duplicates ignored).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut dg = DynamicGraph::new(n);
        for &(u, v) in edges {
            dg.add_edge(u, v);
        }
        dg
    }

    /// Rebuild a graph from explicit per-node adjacency rows, preserving
    /// slot order and twin indices verbatim — the snapshot-restore
    /// constructor. Slot order is observable engine state (emissions and
    /// positional counter mirrors index by slot), so this must NOT
    /// canonicalize; callers restoring untrusted bytes should follow up with
    /// [`DynamicGraph::check_invariants`].
    pub fn from_rows(rows: &[Vec<Half>]) -> Self {
        let lens: Vec<usize> = rows.iter().map(Vec::len).collect();
        let mut adj = SegVec::from_lens(&lens, HOLE);
        for (i, row) in rows.iter().enumerate() {
            adj.slice_mut(i).copy_from_slice(row);
        }
        let halves: usize = lens.iter().sum();
        DynamicGraph { adj, edge_count: halves / 2 }
    }

    /// Number of node slots (including isolated / departed nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.rows()
    }

    /// Number of undirected edges currently present.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Append a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push_row();
        NodeId::from_index(self.adj.rows() - 1)
    }

    /// Adjacency of `u` as half-edges.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[Half] {
        self.adj.slice(u.index())
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj.len_of(u.index())
    }

    /// Slot of `v` inside `u`'s adjacency list, if connected.
    pub fn slot_of(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.neighbors(u).iter().position(|h| h.peer == v)
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Scan the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).iter().any(|h| h.peer == b)
    }

    /// Connect `u` and `v`. Returns `false` (and does nothing) if the edge
    /// already exists or `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.contains_edge(u, v) {
            return false;
        }
        let iu = self.adj.len_of(u.index()) as u32;
        let iv = self.adj.len_of(v.index()) as u32;
        self.adj.push(u.index(), Half { peer: v, ridx: iv });
        self.adj.push(v.index(), Half { peer: u, ridx: iu });
        self.edge_count += 1;
        true
    }

    /// Disconnect `u` and `v`. Returns `false` if they were not connected.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(slot) = self.slot_of(u, v) else { return false };
        self.remove_edge_at(u, slot);
        true
    }

    /// Disconnect the edge occupying `slot` in `u`'s adjacency list.
    ///
    /// Returns the peer that was disconnected.
    pub fn remove_edge_at(&mut self, u: NodeId, slot: usize) -> NodeId {
        let half = self.adj.get(u.index(), slot);
        self.detach_half(half.peer, half.ridx as usize);
        self.detach_half(u, slot);
        self.edge_count -= 1;
        half.peer
    }

    /// Remove every edge incident to `u` (peer departure). Returns the peers
    /// that were disconnected.
    pub fn isolate(&mut self, u: NodeId) -> Vec<NodeId> {
        let mut freed = Vec::with_capacity(self.degree(u));
        while self.adj.len_of(u.index()) > 0 {
            let half = self.adj.get(u.index(), self.adj.len_of(u.index()) - 1);
            self.detach_half(half.peer, half.ridx as usize);
            self.adj.pop(u.index());
            self.edge_count -= 1;
            freed.push(half.peer);
        }
        freed
    }

    /// swap_remove entry `slot` from `who`'s adjacency and repair the moved
    /// entry's twin pointer.
    fn detach_half(&mut self, who: NodeId, slot: usize) {
        self.adj.swap_remove(who.index(), slot);
        if slot < self.adj.len_of(who.index()) {
            // The former last element now lives at `slot`; its twin must be
            // told about the move.
            let moved = self.adj.get(who.index(), slot);
            let mut twin = self.adj.get(moved.peer.index(), moved.ridx as usize);
            twin.ridx = slot as u32;
            self.adj.set(moved.peer.index(), moved.ridx as usize, twin);
        }
    }

    /// Iterate each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            let u = NodeId::from_index(u);
            self.neighbors(u).iter().filter(move |h| u < h.peer).map(move |h| (u, h.peer))
        })
    }

    /// Verify the reciprocal-index invariant (twin pointers consistent, no
    /// self loops, no duplicate edges). Intended for tests and debug builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counted = 0usize;
        for u in 0..self.node_count() {
            let u = NodeId::from_index(u);
            let list = self.neighbors(u);
            for (slot, h) in list.iter().enumerate() {
                if h.peer == u {
                    return Err(format!("self loop at {u}"));
                }
                let twin_list = self.neighbors(h.peer);
                let Some(twin) = twin_list.get(h.ridx as usize) else {
                    return Err(format!("{u} slot {slot}: twin index {} out of range", h.ridx));
                };
                if twin.peer != u || twin.ridx as usize != slot {
                    return Err(format!(
                        "broken twin: {u}[{slot}] -> {}[{}] -> {}[{}]",
                        h.peer, h.ridx, twin.peer, twin.ridx
                    ));
                }
                counted += 1;
            }
            let mut peers: Vec<_> = list.iter().map(|h| h.peer).collect();
            peers.sort_unstable();
            peers.dedup();
            if peers.len() != list.len() {
                return Err(format!("duplicate edges at {u}"));
            }
        }
        if counted != self.edge_count * 2 {
            return Err(format!(
                "edge_count {} inconsistent with {} half edges",
                self.edge_count, counted
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_and_remove_edge_roundtrip() {
        let mut g = DynamicGraph::new(3);
        assert!(g.add_edge(nid(0), nid(1)));
        assert!(!g.add_edge(nid(0), nid(1)), "duplicate add must fail");
        assert!(!g.add_edge(nid(1), nid(0)), "reverse duplicate add must fail");
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(nid(1), nid(0)));
        assert!(!g.remove_edge(nid(0), nid(1)));
        assert_eq!(g.edge_count(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn self_edge_rejected() {
        let mut g = DynamicGraph::new(2);
        assert!(!g.add_edge(nid(1), nid(1)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn swap_remove_repairs_twin_pointers() {
        // Node 0 connected to 1, 2, 3; removing the first edge forces a
        // swap_remove that moves entry for 3 into slot 0.
        let mut g = DynamicGraph::new(4);
        g.add_edge(nid(0), nid(1));
        g.add_edge(nid(0), nid(2));
        g.add_edge(nid(0), nid(3));
        g.check_invariants().unwrap();
        assert!(g.remove_edge(nid(0), nid(1)));
        g.check_invariants().unwrap();
        assert!(g.contains_edge(nid(0), nid(3)));
        assert!(g.contains_edge(nid(0), nid(2)));
        // Removing via the far side must also work after the move.
        assert!(g.remove_edge(nid(3), nid(0)));
        g.check_invariants().unwrap();
        assert_eq!(g.degree(nid(0)), 1);
    }

    #[test]
    fn isolate_removes_all_incident_edges() {
        let mut g = DynamicGraph::new(5);
        for v in 1..5 {
            g.add_edge(nid(0), nid(v));
        }
        g.add_edge(nid(1), nid(2));
        let freed = g.isolate(nid(0));
        assert_eq!(freed.len(), 4);
        assert_eq!(g.degree(nid(0)), 0);
        assert_eq!(g.edge_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = DynamicGraph::new(1);
        let n = g.add_node();
        assert_eq!(n, nid(1));
        assert!(g.add_edge(nid(0), n));
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_edge_at_returns_peer() {
        let mut g = DynamicGraph::new(3);
        g.add_edge(nid(0), nid(2));
        let peer = g.remove_edge_at(nid(0), 0);
        assert_eq!(peer, nid(2));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn from_rows_preserves_slot_order_and_twins() {
        // Drive a graph through churn (so swap_remove scrambled slot order),
        // then rebuild from its rows: every row must match verbatim.
        let mut g = DynamicGraph::new(6);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 5)] {
            g.add_edge(nid(u), nid(v));
        }
        g.remove_edge(nid(0), nid(1));
        g.isolate(nid(4));
        let rows: Vec<Vec<Half>> =
            (0..g.node_count()).map(|u| g.neighbors(NodeId::from_index(u)).to_vec()).collect();
        let rebuilt = DynamicGraph::from_rows(&rows);
        rebuilt.check_invariants().unwrap();
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        for u in 0..g.node_count() {
            let u = NodeId::from_index(u);
            assert_eq!(rebuilt.neighbors(u), g.neighbors(u), "row {u} must match verbatim");
        }
    }

    #[test]
    fn heavy_churn_keeps_invariants_over_flat_arena() {
        // Repeated add/remove/isolate cycles force row relocations and
        // compaction inside the SegVec arena; twin pointers must survive.
        let mut g = DynamicGraph::new(64);
        let mut toggle = 0u64;
        for round in 0..50u32 {
            for u in 0..64u32 {
                let v = (u * 7 + round) % 64;
                toggle = toggle.wrapping_mul(6364136223846793005).wrapping_add(round as u64);
                if toggle & 1 == 0 {
                    g.add_edge(nid(u), nid(v));
                } else {
                    g.remove_edge(nid(u), nid(v));
                }
            }
            if round % 7 == 0 {
                g.isolate(nid(round % 64));
            }
            g.check_invariants().unwrap();
        }
    }
}
