//! Shared-content catalog: which peer holds which objects.
//!
//! Substitute for the KaZaA file-sharing workload the paper draws its
//! settings from (Gummadi et al., SOSP'03): object popularity is Zipf, and a
//! peer's shared library is a Zipf sample of the catalog, so popular objects
//! end up replicated on many peers and unpopular ones on few — exactly the
//! property that makes flooding search succeed quickly for popular content
//! and makes success rate sensitive to message drops for the tail.

use crate::zipf::Zipf;
use ddp_topology::{NodeId, SegVec};
use rand::Rng;

/// Identifier of a shared object (rank in the catalog; 0 = most popular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

/// The catalog: per-peer sorted object lists plus the query popularity law.
#[derive(Debug, Clone)]
pub struct ContentCatalog {
    /// Row `i` is node `i`'s sorted list of held object ids. One arena for
    /// all of them: the flood probes a whole BFS wave of libraries at a time,
    /// and a row is two index loads away instead of a `Vec` header and a
    /// heap block of its own.
    libraries: SegVec<u32>,
    /// Popularity law used to draw query targets.
    query_popularity: Zipf,
    num_objects: usize,
    /// The library being sampled, before it is copied into its row.
    scratch: Vec<u32>,
}

/// Configuration for catalog generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentConfig {
    /// Total distinct objects in the system.
    pub num_objects: usize,
    /// Objects held per peer (library size).
    pub objects_per_peer: usize,
    /// Zipf exponent for both replication and query popularity.
    pub alpha: f64,
}

impl Default for ContentConfig {
    fn default() -> Self {
        // 10k distinct objects, 50 per peer, alpha 0.8 (classic P2P fit).
        ContentConfig { num_objects: 10_000, objects_per_peer: 50, alpha: 0.8 }
    }
}

impl ContentCatalog {
    /// Generate libraries for `n` peers.
    pub fn generate<R: Rng + ?Sized>(n: usize, cfg: &ContentConfig, rng: &mut R) -> Self {
        let mut catalog = Self::with_empty_rows(n, n * cfg.objects_per_peer, cfg);
        for i in 0..n {
            catalog.regenerate_library(NodeId::from_index(i), cfg.objects_per_peer, rng);
        }
        catalog
    }

    /// `n` empty libraries over an arena with room for `total` object ids.
    fn with_empty_rows(n: usize, total: usize, cfg: &ContentConfig) -> Self {
        let mut libraries = SegVec::new(n, 0);
        libraries.reserve_arena(total);
        ContentCatalog {
            libraries,
            query_popularity: Zipf::new(cfg.num_objects, cfg.alpha),
            num_objects: cfg.num_objects,
            scratch: Vec::new(),
        }
    }

    /// Rebuild a catalog from explicit per-peer libraries — the
    /// snapshot-restore constructor. The popularity law carries no mutable
    /// state (queries draw from the engine's RNG streams), so it is
    /// reconstructed from `cfg` exactly as [`ContentCatalog::generate`]
    /// builds it.
    pub fn from_libraries(libraries: &[Vec<u32>], cfg: &ContentConfig) -> Self {
        let total = libraries.iter().map(Vec::len).sum();
        let mut catalog = Self::with_empty_rows(libraries.len(), total, cfg);
        for (i, lib) in libraries.iter().enumerate() {
            catalog.libraries.replace_row(i, lib);
        }
        catalog
    }

    /// `node`'s sorted object ids (empty for a node without a library) — the
    /// snapshot-save accessor.
    #[inline]
    pub fn library(&self, node: NodeId) -> &[u32] {
        if node.index() < self.libraries.rows() {
            self.libraries.slice(node.index())
        } else {
            &[]
        }
    }

    /// Generate the library for one newly joined peer, replacing `node`'s.
    pub fn regenerate_library<R: Rng + ?Sized>(&mut self, node: NodeId, size: usize, rng: &mut R) {
        let lib = &mut self.scratch;
        lib.clear();
        // Rejection-sample distinct objects; libraries are tiny relative to
        // the catalog so rejection is rare.
        while lib.len() < size {
            let o = self.query_popularity.sample(rng) as u32;
            if !lib.contains(&o) {
                lib.push(o);
            }
        }
        lib.sort_unstable();
        while self.libraries.rows() <= node.index() {
            self.libraries.push_row();
        }
        self.libraries.replace_row(node.index(), lib);
    }

    /// Does `node` hold `object`? O(log library size).
    #[inline]
    pub fn holds(&self, node: NodeId, object: ObjectId) -> bool {
        self.library(node).binary_search(&object.0).is_ok()
    }

    /// Draw a query target according to the popularity law.
    pub fn sample_query_target<R: Rng + ?Sized>(&self, rng: &mut R) -> ObjectId {
        ObjectId(self.query_popularity.sample(rng) as u32)
    }

    /// Number of distinct objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of peers with libraries.
    pub fn num_peers(&self) -> usize {
        self.libraries.rows()
    }

    /// How many peers hold `object` (O(total library size); diagnostics only).
    pub fn replication_count(&self, object: ObjectId) -> usize {
        (0..self.num_peers()).filter(|&i| self.holds(NodeId::from_index(i), object)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog(n: usize) -> ContentCatalog {
        let mut rng = StdRng::seed_from_u64(42);
        ContentCatalog::generate(n, &ContentConfig::default(), &mut rng)
    }

    #[test]
    fn libraries_have_requested_size_and_are_sorted() {
        let c = catalog(20);
        for i in 0..20 {
            let node = NodeId::from_index(i);
            let mut count = 0;
            for o in 0..c.num_objects() {
                if c.holds(node, ObjectId(o as u32)) {
                    count += 1;
                }
            }
            assert_eq!(count, 50);
        }
    }

    #[test]
    fn popular_objects_are_replicated_more() {
        let c = catalog(500);
        let head: usize = (0..10).map(|o| c.replication_count(ObjectId(o))).sum();
        let tail: usize = (9000..9010).map(|o| c.replication_count(ObjectId(o))).sum();
        assert!(head > tail * 3, "head replication {head} should dominate tail {tail}");
    }

    #[test]
    fn query_targets_follow_popularity() {
        let c = catalog(10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0;
        let draws = 20_000;
        for _ in 0..draws {
            if c.sample_query_target(&mut rng).0 < 100 {
                head += 1;
            }
        }
        // With alpha=0.8 over 10k objects the top-100 should carry a sizable
        // fraction of queries (far more than the uniform 1%).
        assert!(head as f64 / draws as f64 > 0.10, "head share {head}/{draws}");
    }

    #[test]
    fn regenerate_library_replaces_content() {
        let mut c = catalog(5);
        let node = NodeId(2);
        let before: Vec<u32> = (0..c.num_objects())
            .filter(|&o| c.holds(node, ObjectId(o as u32)))
            .map(|o| o as u32)
            .collect();
        let mut rng = StdRng::seed_from_u64(999);
        c.regenerate_library(node, 10, &mut rng);
        let after: Vec<u32> = (0..c.num_objects())
            .filter(|&o| c.holds(node, ObjectId(o as u32)))
            .map(|o| o as u32)
            .collect();
        assert_eq!(after.len(), 10);
        assert_ne!(before, after);
    }

    #[test]
    fn holds_out_of_range_node_is_false() {
        let c = catalog(3);
        assert!(!c.holds(NodeId(99), ObjectId(0)));
    }
}
