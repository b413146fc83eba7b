//! Forest Fire graph generator (Leskovec, Kleinberg & Faloutsos, KDD
//! 2005): produces graphs with heavy-tailed degrees, communities, and
//! densification — closer to real web/social graphs than R-MAT's
//! self-similar noise, and a useful third structural regime for
//! exercising SlashBurn.

use crate::graph::Graph;
use rand::Rng;
use std::collections::BTreeSet;

/// Configuration for the Forest Fire model.
#[derive(Debug, Clone, Copy)]
pub struct ForestFireConfig {
    /// Number of nodes to grow.
    pub n: usize,
    /// Forward burning probability `p` (the paper's sweet spot is
    /// around 0.35–0.40; higher densifies aggressively).
    pub forward_p: f64,
    /// Backward burning ratio: the probability used when following
    /// in-edges (usually below `forward_p`).
    pub backward_p: f64,
    /// Cap on nodes burned per arrival (keeps worst-case arrivals from
    /// burning the whole graph).
    pub max_burn: usize,
}

impl Default for ForestFireConfig {
    fn default() -> Self {
        ForestFireConfig { n: 1000, forward_p: 0.35, backward_p: 0.2, max_burn: 100 }
    }
}

/// Grows a Forest Fire graph: each new node picks a random ambassador,
/// links to it, then recursively "burns" a geometric number of the
/// ambassador's out- and in-neighbors, linking to every burned node.
pub fn forest_fire<R: Rng>(config: &ForestFireConfig, rng: &mut R) -> Graph {
    let n = config.n;
    if n == 0 {
        return Graph::from_edges(0, &[]).unwrap();
    }
    let mut out_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut in_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges: Vec<(usize, usize)> = Vec::new();

    // Geometric sample with mean p/(1-p), capped.
    fn geometric<R: Rng>(p: f64, cap: usize, rng: &mut R) -> usize {
        let p = p.clamp(0.0, 0.99);
        let mut k = 0;
        while k < cap && rng.gen_bool(p) {
            k += 1;
        }
        k
    }

    for v in 1..n {
        let ambassador = rng.gen_range(0..v);
        let mut burned: BTreeSet<usize> = BTreeSet::new();
        // Insertion-ordered copy so later adjacency construction (and
        // therefore RNG consumption) is deterministic.
        let mut burn_order: Vec<usize> = vec![ambassador];
        let mut frontier = vec![ambassador];
        burned.insert(ambassador);
        while let Some(w) = frontier.pop() {
            if burned.len() >= config.max_burn {
                break;
            }
            // Burn forward (out-neighbors) and backward (in-neighbors).
            let n_fwd = geometric(config.forward_p, config.max_burn, rng);
            let n_bwd = geometric(config.backward_p, config.max_burn, rng);
            let pick = |pool: &[usize], count: usize, rng: &mut R| {
                let mut chosen = Vec::new();
                let unburned: Vec<usize> =
                    pool.iter().copied().filter(|u| !burned.contains(u)).collect();
                for _ in 0..count.min(unburned.len()) {
                    let u = unburned[rng.gen_range(0..unburned.len())];
                    if !chosen.contains(&u) {
                        chosen.push(u);
                    }
                }
                chosen
            };
            let fwd = pick(&out_adj[w], n_fwd, rng);
            let bwd = pick(&in_adj[w], n_bwd, rng);
            for u in fwd.into_iter().chain(bwd) {
                if burned.insert(u) {
                    burn_order.push(u);
                    frontier.push(u);
                }
            }
        }
        for &u in &burn_order {
            edges.push((v, u));
            out_adj[v].push(u);
            in_adj[u].push(v);
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
    fn grows_requested_node_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = forest_fire(&ForestFireConfig { n: 300, ..Default::default() }, &mut rng);
        assert_eq!(g.num_nodes(), 300);
        // Every non-root node links to at least its ambassador.
        assert!(g.num_edges() >= 299);
    }

    #[test]
    fn higher_forward_p_densifies() {
        let edges_at = |p: f64| {
            let mut rng = StdRng::seed_from_u64(2);
            forest_fire(&ForestFireConfig { n: 400, forward_p: p, ..Default::default() }, &mut rng)
                .num_edges()
        };
        let sparse = edges_at(0.1);
        let dense = edges_at(0.5);
        assert!(dense > sparse, "{dense} !> {sparse}");
    }

    #[test]
    fn produces_heavy_tailed_in_degrees() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = forest_fire(&ForestFireConfig { n: 800, ..Default::default() }, &mut rng);
        let din = g.in_degrees();
        let max = *din.iter().max().unwrap();
        let mean = din.iter().sum::<usize>() as f64 / din.len() as f64;
        assert!(max as f64 > 5.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            forest_fire(&ForestFireConfig { n: 0, ..Default::default() }, &mut rng).num_nodes(),
            0
        );
        assert_eq!(
            forest_fire(&ForestFireConfig { n: 1, ..Default::default() }, &mut rng).num_nodes(),
            1
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let config = ForestFireConfig { n: 200, ..Default::default() };
        let g1 = forest_fire(&config, &mut StdRng::seed_from_u64(9));
        let g2 = forest_fire(&config, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1, g2);
    }

    #[test]
    fn burn_cap_bounds_degree() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = forest_fire(
            &ForestFireConfig { n: 300, forward_p: 0.9, backward_p: 0.9, max_burn: 10 },
            &mut rng,
        );
        // Out-degree of each arrival is bounded by the burn cap (plus the
        // frontier overshoot of the final step).
        let max_out = (0..300).map(|u| g.out_degree(u)).max().unwrap();
        assert!(max_out <= 30, "out degree {max_out} exceeds burn cap regime");
    }
}
