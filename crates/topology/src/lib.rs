//! Overlay topology generation and graph data structures.
//!
//! The DD-POLICE paper (§3.5) evaluates on BRITE-generated logical topologies
//! of 20,000 peers where "most peers have 3 or 4 logical neighbors, and a few
//! peers have tens of direct neighbors", with a mean degree of 6. BRITE is not
//! available as a Rust library, so this crate provides generators that
//! reproduce the same degree statistics:
//!
//! * [`generate::barabasi_albert`] — preferential attachment; power-law tail,
//!   minimum degree `m`, mean degree `2m`. With `m = 3` this matches the
//!   paper's description directly and is the default.
//! * [`generate::waxman`] — the geometric model BRITE implements natively.
//! * [`generate::erdos_renyi`] — a uniform-degree control topology.
//!
//! The overlay they build is a [`DynamicGraph`]: the mutable graph the
//! simulator churns, with O(1) edge removal and reciprocal-index bookkeeping
//! so that per-directed-edge traffic counters can be stored positionally.

pub mod dynamic;
pub mod generate;
pub mod partition;
pub mod segvec;
pub mod stats;

pub use dynamic::{DynamicGraph, Half};
pub use generate::{TopologyConfig, TopologyModel};
pub use partition::{cross_partition_edges, Partition};
pub use segvec::SegVec;

/// Identifier of a peer (node) in the overlay.
///
/// Plain `u32` newtype: the simulator keeps all per-node state in flat arrays
/// indexed by `NodeId::index()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The array index corresponding to this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from an array index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        NodeId(i as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}
