//! The dataset registry: named, seeded generator recipes.

use bear_graph::generators::{
    forest_fire, hub_and_spoke, preferential_attachment, rmat, ForestFireConfig, HubSpokeConfig,
    RmatConfig,
};
use bear_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How a dataset is generated.
#[derive(Debug, Clone, Copy)]
enum Recipe {
    HubSpoke(HubSpokeConfig, u64),
    Rmat(RmatConfig, u64),
    PrefAttach { n: usize, m_per_node: usize, seed: u64 },
    ForestFire(ForestFireConfig, u64),
}

/// A named synthetic dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Registry name (stable; used by the bench harness CLI).
    pub name: &'static str,
    /// Which paper dataset this stands in for.
    pub mimics: &'static str,
    recipe: Recipe,
}

impl DatasetSpec {
    /// Generates the graph (deterministic for a given spec).
    pub fn load(&self) -> Graph {
        match self.recipe {
            Recipe::HubSpoke(config, seed) => {
                hub_and_spoke(&config, &mut StdRng::seed_from_u64(seed))
            }
            Recipe::Rmat(config, seed) => rmat(&config, &mut StdRng::seed_from_u64(seed)),
            Recipe::PrefAttach { n, m_per_node, seed } => {
                preferential_attachment(n, m_per_node, &mut StdRng::seed_from_u64(seed))
            }
            Recipe::ForestFire(config, seed) => {
                forest_fire(&config, &mut StdRng::seed_from_u64(seed))
            }
        }
    }
}

/// The nine real-world stand-ins, in the paper's Table 4 order.
pub fn all_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "routing_like",
            mimics: "Routing (AS-level internet)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 45,
                    num_caves: 1_100,
                    max_cave_size: 5,
                    cave_density: 0.3,
                    hub_links: 1,
                    hub_density: 0.3,
                },
                101,
            ),
        },
        DatasetSpec {
            name: "coauthor_like",
            mimics: "Co-author (cond-mat)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 600,
                    num_caves: 1_600,
                    max_cave_size: 8,
                    cave_density: 0.4,
                    hub_links: 2,
                    hub_density: 0.03,
                },
                102,
            ),
        },
        DatasetSpec {
            name: "trust_like",
            mimics: "Trust (Epinions)",
            recipe: Recipe::Rmat(
                RmatConfig { scale: 13, edges: 60_000, p_ul: 0.62, noise: 0.1 },
                103,
            ),
        },
        DatasetSpec {
            name: "email_like",
            mimics: "Email (EU institution)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 40,
                    num_caves: 9_000,
                    max_cave_size: 3,
                    cave_density: 0.2,
                    hub_links: 1,
                    hub_density: 0.4,
                },
                104,
            ),
        },
        DatasetSpec {
            name: "web_stan_like",
            mimics: "Web-Stan (Stanford web)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 90,
                    num_caves: 220,
                    max_cave_size: 60,
                    cave_density: 0.08,
                    hub_links: 1,
                    hub_density: 0.15,
                },
                105,
            ),
        },
        DatasetSpec {
            name: "web_notre_like",
            mimics: "Web-Notre (Notre Dame web)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 70,
                    num_caves: 500,
                    max_cave_size: 25,
                    cave_density: 0.1,
                    hub_links: 1,
                    hub_density: 0.2,
                },
                106,
            ),
        },
        DatasetSpec {
            name: "web_bs_like",
            mimics: "Web-BS (Berkeley-Stanford web)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 160,
                    num_caves: 220,
                    max_cave_size: 80,
                    cave_density: 0.06,
                    hub_links: 1,
                    hub_density: 0.1,
                },
                107,
            ),
        },
        DatasetSpec {
            name: "talk_like",
            mimics: "Talk (Wikipedia talk)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 70,
                    num_caves: 16_000,
                    max_cave_size: 3,
                    cave_density: 0.15,
                    hub_links: 1,
                    hub_density: 0.25,
                },
                108,
            ),
        },
        DatasetSpec {
            name: "citation_like",
            mimics: "Citation (US patents)",
            recipe: Recipe::Rmat(
                RmatConfig { scale: 13, edges: 40_000, p_ul: 0.5, noise: 0.1 },
                109,
            ),
        },
    ]
}

/// The R-MAT `p_ul` family of Section 4.4 / Figure 7 (scaled down from
/// the paper's 100k nodes / 500k edges).
pub fn rmat_family() -> Vec<DatasetSpec> {
    const NAMES: [(&str, f64); 5] = [
        ("rmat_0.5", 0.5),
        ("rmat_0.6", 0.6),
        ("rmat_0.7", 0.7),
        ("rmat_0.8", 0.8),
        ("rmat_0.9", 0.9),
    ];
    NAMES
        .iter()
        .map(|&(name, p_ul)| DatasetSpec {
            name,
            mimics: "R-MAT synthetic (Section 4.4)",
            recipe: Recipe::Rmat(RmatConfig { scale: 13, edges: 45_000, p_ul, noise: 0.0 }, 200),
        })
        .collect()
}

/// A small fast subset used by integration tests: one spoke-heavy, one
/// web-like, one hub-heavy dataset at reduced size.
pub fn small_suite() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "small_routing",
            mimics: "Routing (reduced)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 8,
                    num_caves: 60,
                    max_cave_size: 5,
                    cave_density: 0.3,
                    hub_links: 1,
                    hub_density: 0.4,
                },
                301,
            ),
        },
        DatasetSpec {
            name: "small_web",
            mimics: "Web-Stan (reduced)",
            recipe: Recipe::HubSpoke(
                HubSpokeConfig {
                    num_hubs: 10,
                    num_caves: 12,
                    max_cave_size: 25,
                    cave_density: 0.12,
                    hub_links: 1,
                    hub_density: 0.3,
                },
                302,
            ),
        },
        DatasetSpec {
            name: "small_citation",
            mimics: "Citation (reduced)",
            recipe: Recipe::Rmat(RmatConfig { scale: 9, edges: 2_200, p_ul: 0.5, noise: 0.1 }, 303),
        },
        DatasetSpec {
            name: "small_powerlaw",
            mimics: "generic power-law graph",
            recipe: Recipe::PrefAttach { n: 400, m_per_node: 3, seed: 304 },
        },
        DatasetSpec {
            name: "small_forestfire",
            mimics: "densifying social graph (Forest Fire model)",
            recipe: Recipe::ForestFire(
                ForestFireConfig { n: 500, forward_p: 0.3, backward_p: 0.15, max_burn: 40 },
                305,
            ),
        },
    ]
}

/// Looks a dataset up by name across all registries.
pub fn dataset_by_name(name: &str) -> Option<DatasetSpec> {
    all_datasets().into_iter().chain(rmat_family()).chain(small_suite()).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_graph::{slashburn, SlashBurnConfig};

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = all_datasets()
            .iter()
            .chain(rmat_family().iter())
            .chain(small_suite().iter())
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// Every registry dataset, loaded twice, is the same graph: no
    /// generator may depend on anything but its seed.
    #[test]
    fn loading_is_deterministic() {
        for spec in all_datasets().into_iter().chain(rmat_family()).chain(small_suite()) {
            assert_eq!(spec.load(), spec.load(), "{}", spec.name);
        }
    }

    #[test]
    fn lookup_finds_all_and_rejects_unknown() {
        assert!(dataset_by_name("routing_like").is_some());
        assert!(dataset_by_name("rmat_0.7").is_some());
        assert!(dataset_by_name("nope").is_none());
    }

    #[test]
    fn small_suite_is_actually_small() {
        for spec in small_suite() {
            let g = spec.load();
            assert!(g.num_nodes() < 1_000, "{} has {} nodes", spec.name, g.num_nodes());
            assert!(g.num_edges() > 0);
        }
    }

    #[test]
    fn email_like_is_spoke_heavy_and_citation_like_is_hub_heavy() {
        // The structural contrast the stand-ins must preserve (Table 4):
        // Email has a tiny hub fraction, Citation a very large one.
        let email = dataset_by_name("email_like").unwrap().load();
        let ord = slashburn(&email, &SlashBurnConfig::paper_default(email.num_nodes())).unwrap();
        let email_frac = ord.n_hubs as f64 / email.num_nodes() as f64;
        assert!(email_frac < 0.05, "email hub fraction {email_frac}");

        let cit = dataset_by_name("small_citation").unwrap().load();
        let ord = slashburn(&cit, &SlashBurnConfig::paper_default(cit.num_nodes())).unwrap();
        let cit_frac = ord.n_hubs as f64 / cit.num_nodes() as f64;
        assert!(cit_frac > email_frac, "citation {cit_frac} !> email {email_frac}");
    }

    #[test]
    fn web_like_has_larger_blocks_than_routing_like() {
        let routing = dataset_by_name("small_routing").unwrap().load();
        let web = dataset_by_name("small_web").unwrap().load();
        let r_ord =
            slashburn(&routing, &SlashBurnConfig::paper_default(routing.num_nodes())).unwrap();
        let w_ord = slashburn(&web, &SlashBurnConfig::paper_default(web.num_nodes())).unwrap();
        let r_max = r_ord.block_sizes.iter().copied().max().unwrap_or(0);
        let w_max = w_ord.block_sizes.iter().copied().max().unwrap_or(0);
        assert!(w_max > r_max, "web max block {w_max} !> routing {r_max}");
    }
}
