//! The fixed corpus the golden-bits and wire-encoding tests share: a
//! seeded hub-and-spoke graph, a small R-MAT graph (which leaves
//! isolated, hence dangling, nodes), and a hand-built graph with
//! dangling nodes and self-loops, each indexed exactly and with a drop
//! tolerance ξ > 0.

use bear_core::BearConfig;
use bear_graph::generators::{hub_and_spoke, rmat, HubSpokeConfig, RmatConfig};
use bear_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three corpus graphs, by name.
pub fn corpus() -> Vec<(&'static str, Graph)> {
    let hub_spoke = hub_and_spoke(
        &HubSpokeConfig {
            num_hubs: 5,
            num_caves: 24,
            max_cave_size: 8,
            cave_density: 0.4,
            hub_links: 2,
            hub_density: 0.5,
        },
        &mut StdRng::seed_from_u64(16),
    );
    let rmat = rmat(&RmatConfig::paper(8, 1_200, 0.6), &mut StdRng::seed_from_u64(16));
    // Three hubs and eight eight-node caves: each cave is a path whose
    // last node has no out-edges, every third node carries a self-loop,
    // and each cave's first node links both ways to one hub.
    let mut edges = vec![(0, 1), (1, 2), (2, 0), (1, 0)];
    for cave in 0..8 {
        let base = 3 + 8 * cave;
        for u in base..base + 7 {
            edges.push((u, u + 1));
            edges.push((u + 1, u - usize::from(u > base)));
        }
        edges.push((base, cave % 3));
        edges.push((cave % 3, base));
    }
    edges.extend((0..67).step_by(3).map(|u| (u, u)));
    let dangling = Graph::from_edges(67, &edges).unwrap();
    vec![("hub_spoke", hub_spoke), ("rmat", rmat), ("dangling_loops", dangling)]
}

/// Each graph is indexed exactly and with a drop tolerance ξ > 0.
pub fn configs() -> [(&'static str, BearConfig); 2] {
    [("exact", BearConfig::exact(0.05)), ("approx", BearConfig::approx(0.05, 2e-2))]
}

/// Deterministic seeds spread over `0..n`.
pub fn seeds(n: usize, count: usize) -> Vec<usize> {
    (0..count).map(|i| (i * 7_919 + 3) % n).collect()
}
