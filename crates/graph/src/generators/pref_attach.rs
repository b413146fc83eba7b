//! Preferential-attachment (Barabási–Albert style) generator, producing
//! power-law degree graphs used by the dataset stand-ins.

use crate::graph::Graph;
use rand::Rng;

/// Grows a graph node by node; each new node attaches `m_per_node`
/// out-edges to existing nodes chosen proportionally to their current
/// degree (plus one, so isolated nodes stay reachable). The first
/// `m_per_node + 1` nodes form a seed clique.
pub fn preferential_attachment<R: Rng>(n: usize, m_per_node: usize, rng: &mut R) -> Graph {
    let m = m_per_node.max(1);
    if n == 0 {
        return Graph::from_edges(0, &[]).unwrap();
    }
    let seed = (m + 1).min(n);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * m);
    // Target pool: node id repeated once per incident edge, giving
    // degree-proportional sampling in O(1).
    let mut pool: Vec<usize> = Vec::with_capacity(2 * n * m);
    for u in 0..seed {
        for v in 0..u {
            edges.push((u, v));
            pool.push(u);
            pool.push(v);
        }
    }
    if pool.is_empty() {
        pool.push(0);
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    for u in seed..n {
        // Targets in draw order, so a seeded RNG always builds the same
        // graph (a hash set would push them in a per-process order).
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            let v = pool[rng.gen_range(0..pool.len())];
            if v != u && !chosen.contains(&v) {
                chosen.push(v);
            }
            guard += 1;
        }
        for &v in &chosen {
            edges.push((u, v));
            pool.push(u);
            pool.push(v);
        }
    }
    Graph::from_edges(n, &edges).expect("generated edges are in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grows_to_requested_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = preferential_attachment(100, 3, &mut rng);
        assert_eq!(g.num_nodes(), 100);
        // Each non-seed node adds up to 3 edges.
        assert!(g.num_edges() >= 100);
    }

    #[test]
    fn produces_skewed_degrees() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = preferential_attachment(500, 2, &mut rng);
        let degs = g.undirected_degrees();
        let max = *degs.iter().max().unwrap();
        let avg = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(max as f64 > 4.0 * avg, "max {max} not hub-like vs avg {avg}");
    }

    #[test]
    fn handles_degenerate_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(preferential_attachment(0, 2, &mut rng).num_nodes(), 0);
        assert_eq!(preferential_attachment(1, 2, &mut rng).num_nodes(), 1);
        let g = preferential_attachment(2, 3, &mut rng);
        assert_eq!(g.num_nodes(), 2);
    }
}
