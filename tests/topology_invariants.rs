//! Cross-crate structural invariants: the topology crate's trees/routes and
//! the model crate's closed-form distributions must agree with brute force
//! for every parameterisation, not just the paper's.

use cocnet::model::prob::{hop_distribution, mean_distance, mean_distance_closed_form};
use cocnet::topology::{
    AscentPolicy, ChannelId, Endpoint, Graph, MPortNTree, RouteMode, RouteQuery, Topology,
};
use proptest::prelude::*;

/// The deterministic default-policy route `src → dst`.
fn route(g: &Graph, src: usize, dst: usize) -> Vec<ChannelId> {
    let q = RouteQuery {
        src,
        dst,
        policy: AscentPolicy::default(),
        faults: None,
        mode: RouteMode::Deterministic,
    };
    let mut out = Vec::new();
    g.route_query(&q, &mut out).unwrap();
    out
}

/// Strategy over tree parameters kept small enough for exhaustive
/// brute-force comparison.
fn tree_params() -> impl Strategy<Value = (u32, u32)> {
    (1u32..=4)
        .prop_map(|half| half * 2) // even m in 2..=8
        .prop_flat_map(|m| {
            let max_n = match m {
                2 => 4u32,
                4 => 4,
                6 => 3,
                _ => 2,
            };
            (Just(m), 1..=max_n)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn graph_structure_validates((m, n) in tree_params()) {
        let g = Graph::build(MPortNTree::new(m, n).unwrap());
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_channels(), 2 * n as usize * g.tree().num_nodes());
    }

    #[test]
    fn routes_have_length_2h_and_chain((m, n) in tree_params()) {
        let tree = MPortNTree::new(m, n).unwrap();
        let g = Graph::build(tree);
        let nodes = tree.num_nodes();
        for src in 0..nodes {
            for dst in 0..nodes {
                let r = route(&g, src, dst);
                let h = tree.nca_level(src, dst).unwrap();
                prop_assert_eq!(r.len(), 2 * h as usize);
                // Path must chain and terminate at the destination.
                for w in r.windows(2) {
                    prop_assert_eq!(g.channel(w[0]).to, g.channel(w[1]).from);
                }
                if let Some(&last) = r.last() {
                    prop_assert_eq!(g.channel(last).to, Endpoint::Node(dst as u32));
                }
            }
        }
    }

    #[test]
    fn hop_distribution_matches_brute_force((m, n) in tree_params()) {
        let tree = MPortNTree::new(m, n).unwrap();
        let hist = tree.nca_histogram();
        let total: u64 = hist.iter().sum();
        let p = hop_distribution(m, n);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-12);
        for h in 1..=n as usize {
            let emp = hist[h - 1] as f64 / total as f64;
            prop_assert!((p[h - 1] - emp).abs() < 1e-12,
                "m={} n={} h={}: {} vs {}", m, n, h, p[h - 1], emp);
        }
    }

    #[test]
    fn mean_distance_forms_agree((m, n) in tree_params()) {
        let series = mean_distance(m, n);
        let closed = mean_distance_closed_form(m, n);
        let brute = MPortNTree::new(m, n).unwrap().mean_distance_brute_force();
        prop_assert!((series - closed).abs() < 1e-9);
        prop_assert!((series - brute).abs() < 1e-9);
    }

    #[test]
    fn routes_are_deterministic_and_symmetric_in_length((m, n) in tree_params()) {
        let tree = MPortNTree::new(m, n).unwrap();
        let g = Graph::build(tree);
        let nodes = tree.num_nodes();
        let pairs = [(0, nodes - 1), (nodes / 2, 0), (1, nodes / 2)];
        for &(a, b) in &pairs {
            if a == b { continue; }
            let r1 = route(&g, a, b);
            let r2 = route(&g, a, b);
            prop_assert_eq!(&r1, &r2);
            // Up*/Down* in a fat tree: both directions cross the same
            // number of links (the NCA level is symmetric).
            let back = route(&g, b, a);
            prop_assert_eq!(back.len(), r1.len());
        }
    }
}

#[test]
fn exit_roots_cover_all_roots_in_paper_trees() {
    // The deterministic exit-root choice must spread sources over every
    // root, otherwise concentrator traffic would hot-spot: every
    // inter-cluster message leaves through its source's exit root.
    for (m, n) in [(4u32, 2u32), (4, 3), (8, 2), (8, 3)] {
        let g = Graph::build(MPortNTree::new(m, n).unwrap());
        let mut seen = std::collections::HashSet::new();
        let mut r = Vec::new();
        for src in 0..g.tree().num_nodes() {
            g.route_exit_into(
                src,
                AscentPolicy::default(),
                RouteMode::Deterministic,
                None,
                &mut r,
            )
            .unwrap();
            if let Endpoint::Switch(s) = g.channel(*r.last().unwrap()).to {
                seen.insert(s);
            }
        }
        assert_eq!(seen.len(), g.roots().len(), "m={m} n={n}");
    }
}
