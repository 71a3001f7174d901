//! Property test: the catalog's library arena against a `Vec<Vec<u32>>`
//! shadow.
//!
//! [`ContentCatalog`] packs every peer's library into one arena whose rows
//! are rewritten in place or moved to the tail as peers are reborn with
//! libraries of other sizes. The shadow keeps one plain `Vec` per peer and is
//! fed the same draws from a twin RNG; after every rewrite every row, every
//! `holds` answer and the peer count must agree, and a catalog rebuilt from
//! the rows must be indistinguishable from the original.

use ddp_topology::NodeId;
use ddp_workload::content::ContentConfig;
use ddp_workload::{ContentCatalog, ObjectId, Zipf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What `regenerate_library` is documented to draw: distinct Zipf samples,
/// sorted.
fn sample_library(pop: &Zipf, size: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut lib = Vec::new();
    while lib.len() < size {
        let o = pop.sample(rng) as u32;
        if !lib.contains(&o) {
            lib.push(o);
        }
    }
    lib.sort_unstable();
    lib
}

fn rows(catalog: &ContentCatalog) -> Vec<Vec<u32>> {
    (0..catalog.num_peers()).map(|i| catalog.library(NodeId::from_index(i)).to_vec()).collect()
}

proptest! {
    #[test]
    fn arena_rows_match_a_vec_of_vecs(
        n in 0usize..12,
        per_peer in 0usize..6,
        // (node, new library size): nodes reach past the initial peer count,
        // sizes go from empty to several times the generate-time size.
        rewrites in proptest::collection::vec((0usize..20, 0usize..24), 0..60),
        seed in any::<u64>(),
    ) {
        let cfg = ContentConfig { num_objects: 40, objects_per_peer: per_peer, alpha: 0.8 };
        let pop = Zipf::new(cfg.num_objects, cfg.alpha);
        let (mut rng, mut twin) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let mut catalog = ContentCatalog::generate(n, &cfg, &mut rng);
        let mut shadow: Vec<Vec<u32>> =
            (0..n).map(|_| sample_library(&pop, per_peer, &mut twin)).collect();
        prop_assert_eq!(rows(&catalog), shadow.clone());

        for (node, size) in rewrites {
            catalog.regenerate_library(NodeId::from_index(node), size, &mut rng);
            if node >= shadow.len() {
                shadow.resize(node + 1, Vec::new());
            }
            shadow[node] = sample_library(&pop, size, &mut twin);

            prop_assert_eq!(catalog.num_peers(), shadow.len());
            prop_assert_eq!(rows(&catalog), shadow.clone(), "after rewriting node {}", node);
            for (i, lib) in shadow.iter().enumerate() {
                for o in 0..cfg.num_objects as u32 {
                    prop_assert_eq!(
                        catalog.holds(NodeId::from_index(i), ObjectId(o)),
                        lib.contains(&o),
                        "node {} object {}", i, o
                    );
                }
            }
        }
        // Past the last row: no library, holds nothing.
        let beyond = NodeId::from_index(shadow.len());
        prop_assert!(catalog.library(beyond).is_empty() && !catalog.holds(beyond, ObjectId(0)));

        // from_libraries ∘ rows is the identity, whatever the arena's layout
        // had become.
        let rebuilt = ContentCatalog::from_libraries(&rows(&catalog), &cfg);
        prop_assert_eq!(rows(&rebuilt), shadow);
    }
}
