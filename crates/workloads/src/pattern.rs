//! Destination traffic patterns.
//!
//! The paper validates under the uniform pattern (assumption 2) and names
//! non-uniform traffic as future work (§5); [`Pattern`] provides the
//! uniform pattern plus two standard non-uniform ones so the simulator can
//! explore that direction: a hotspot pattern (a fraction of traffic targets
//! one node) and a cluster-local pattern (a tunable probability of staying
//! inside the source cluster).

use cocnet_topology::SystemSpec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A destination distribution over the system's nodes (flat indexing;
/// cluster `i` owns indices `offset(i)..offset(i)+N_i`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum Pattern {
    /// Uniform over all nodes except the source (paper assumption 2).
    #[default]
    Uniform,
    /// With probability `fraction`, target `hotspot`; otherwise uniform.
    /// The source never targets itself (falls back to uniform if it *is*
    /// the hotspot).
    Hotspot {
        /// Flat index of the hotspot node.
        hotspot: usize,
        /// Probability of targeting the hotspot.
        fraction: f64,
    },
    /// With probability `locality`, uniform inside the source's own
    /// cluster; otherwise uniform over the other clusters' nodes.
    ClusterLocal {
        /// Probability of an intra-cluster destination.
        locality: f64,
    },
    /// Deterministic cluster permutation: every message goes to the node
    /// with the same local index (modulo destination size) in cluster
    /// `(i + shift) mod C` — a "ring shift" permutation that exercises the
    /// inter-cluster path with zero destination entropy (an adversarial
    /// counterpoint to assumption 2).
    ClusterShift {
        /// How many clusters ahead the destination cluster lies (1..C).
        shift: usize,
    },
    /// Bit-reversal-like pairing: node `x` sends to node `N−1−x` (itself
    /// shifted by one when that would self-target). A classic permutation
    /// stressor: half the traffic crosses the whole system.
    Complement,
}

impl Pattern {
    /// Samples a destination for a message generated at flat node `src`.
    /// Always returns a node different from `src`.
    ///
    /// Walks every cluster of `spec` to find the node layout; the engines
    /// compute the layout once per run with [`cluster_offsets`] and draw
    /// with [`Pattern::sample_in`] instead.
    pub fn sample<R: Rng + ?Sized>(&self, spec: &SystemSpec, src: usize, rng: &mut R) -> usize {
        self.sample_in(&cluster_offsets(spec), src, rng)
    }

    /// Samples a destination for a message generated at flat node `src`
    /// of the node layout `offsets` (see [`cluster_offsets`]). Always
    /// returns a node different from `src`.
    ///
    /// Draws the same random numbers in the same order, and returns the
    /// same node, as [`Pattern::sample`] on the spec the layout came from.
    /// Uniform, hotspot and complement read only the node total; the
    /// cluster patterns find the source's cluster by binary search, so a
    /// draw costs O(log C) at most, never a walk over the clusters.
    pub fn sample_in<R: Rng + ?Sized>(&self, offsets: &[usize], src: usize, rng: &mut R) -> usize {
        let total = *offsets.last().expect("a layout holds the node total");
        debug_assert!(src < total);
        // The cluster owning `src`, and its first node.
        let locate = |src: usize| {
            let cluster = offsets[1..].partition_point(|&end| end <= src);
            (cluster, offsets[cluster])
        };
        match *self {
            Pattern::Uniform => uniform_excluding(total, src, rng),
            Pattern::Hotspot { hotspot, fraction } => {
                debug_assert!((0.0..=1.0).contains(&fraction));
                if hotspot != src && rng.random::<f64>() < fraction {
                    hotspot
                } else {
                    uniform_excluding(total, src, rng)
                }
            }
            Pattern::ClusterLocal { locality } => {
                debug_assert!((0.0..=1.0).contains(&locality));
                let (cluster, off) = locate(src);
                let size = offsets[cluster + 1] - off;
                let stay = size > 1 && rng.random::<f64>() < locality;
                if stay {
                    off + uniform_excluding(size, src - off, rng)
                } else {
                    // Uniform over nodes outside the source cluster.
                    let outside = total - size;
                    debug_assert!(outside > 0);
                    let pick = rng.random_range(0..outside);
                    if pick < off {
                        pick
                    } else {
                        pick + size
                    }
                }
            }
            Pattern::ClusterShift { shift } => {
                let c = offsets.len() - 1;
                debug_assert!(shift % c != 0, "shift must leave the cluster");
                let (cluster, off) = locate(src);
                let dest_cluster = (cluster + shift) % c;
                let dest_off = offsets[dest_cluster];
                let dest_size = offsets[dest_cluster + 1] - dest_off;
                dest_off + (src - off) % dest_size
            }
            Pattern::Complement => {
                let mirror = total - 1 - src;
                if mirror == src {
                    // Odd-sized systems cannot occur (N is even for every
                    // m-port n-tree), but stay safe.
                    (src + 1) % total
                } else {
                    mirror
                }
            }
        }
    }

    /// Effective probability that a message from cluster `i` leaves its
    /// cluster under this pattern — generalises Eq. (2) so the analytical
    /// model can be evaluated under non-uniform traffic (hotspot traffic is
    /// approximated by conditioning on the hotspot's cluster).
    pub fn outgoing_probability(&self, spec: &SystemSpec, i: usize) -> f64 {
        let uniform_u = spec.outgoing_probability(i);
        match *self {
            Pattern::Uniform => uniform_u,
            Pattern::Hotspot { hotspot, fraction } => {
                let (hc, _) = spec.locate_node(hotspot).expect("hotspot in range");
                let hot_out = if hc == i { 0.0 } else { 1.0 };
                fraction * hot_out + (1.0 - fraction) * uniform_u
            }
            Pattern::ClusterLocal { locality } => {
                // With probability `locality` the message stays home.
                (1.0 - locality).clamp(0.0, 1.0)
            }
            // Every shifted message leaves its cluster.
            Pattern::ClusterShift { .. } => 1.0,
            Pattern::Complement => {
                // A node's complement lies in its own cluster only when the
                // cluster straddles the centre of the flat index range.
                let off = spec.node_offset(i);
                let size = spec.cluster_nodes(i);
                let total = spec.total_nodes();
                let inside = (off..off + size)
                    .filter(|&x| {
                        let mirror = total - 1 - x;
                        (off..off + size).contains(&mirror)
                    })
                    .count();
                1.0 - inside as f64 / size as f64
            }
        }
    }
}

/// The node layout of `spec` that [`Pattern::sample_in`] draws on: the
/// `C + 1` cluster offsets, cluster `i` owning flat nodes
/// `offsets[i]..offsets[i + 1]`, so the last entry is the node total.
pub fn cluster_offsets(spec: &SystemSpec) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(spec.num_clusters() + 1);
    offsets.push(0);
    for i in 0..spec.num_clusters() {
        offsets.push(offsets[i] + spec.cluster_nodes(i));
    }
    offsets
}

/// Uniform sample over `0..n` excluding `excluded`.
fn uniform_excluding<R: Rng + ?Sized>(n: usize, excluded: usize, rng: &mut R) -> usize {
    debug_assert!(n >= 2, "need at least one other node");
    let pick = rng.random_range(0..n - 1);
    if pick >= excluded {
        pick + 1
    } else {
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocnet_topology::{ClusterSpec, NetworkCharacteristics};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> SystemSpec {
        let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let c = |n| ClusterSpec {
            n,
            icn1: net,
            ecn1: net,
            topology: Default::default(),
        };
        // m=4, C=4 clusters: 4+4+8+8 = 24 nodes.
        SystemSpec::new(4, vec![c(1), c(1), c(2), c(2)], net).unwrap()
    }

    #[test]
    fn uniform_never_self_and_covers_all() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = vec![false; s.total_nodes()];
        for _ in 0..5000 {
            let d = Pattern::Uniform.sample(&s, 3, &mut rng);
            assert_ne!(d, 3);
            seen[d] = true;
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert_eq!(covered, s.total_nodes() - 1);
    }

    #[test]
    fn uniform_is_actually_uniform() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(11);
        let n = s.total_nodes();
        let trials = 100_000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            counts[Pattern::Uniform.sample(&s, 0, &mut rng)] += 1;
        }
        let expected = trials as f64 / (n - 1) as f64;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.1, "node {i}: count {c} vs {expected}");
        }
    }

    #[test]
    fn hotspot_receives_requested_fraction() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(2);
        let p = Pattern::Hotspot {
            hotspot: 10,
            fraction: 0.5,
        };
        let trials = 50_000;
        let hits = (0..trials)
            .filter(|_| p.sample(&s, 0, &mut rng) == 10)
            .count();
        let rate = hits as f64 / trials as f64;
        // 0.5 direct + (0.5)·1/23 uniform residue ≈ 0.5217.
        assert!((rate - 0.52).abs() < 0.02, "hotspot rate {rate}");
    }

    #[test]
    fn hotspot_source_does_not_self_target() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(9);
        let p = Pattern::Hotspot {
            hotspot: 4,
            fraction: 1.0,
        };
        for _ in 0..1000 {
            assert_ne!(p.sample(&s, 4, &mut rng), 4);
        }
    }

    #[test]
    fn cluster_local_respects_locality() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(4);
        let p = Pattern::ClusterLocal { locality: 0.9 };
        // Source in cluster 2 (nodes 8..16).
        let trials = 20_000;
        let local = (0..trials)
            .filter(|_| {
                let d = p.sample(&s, 9, &mut rng);
                (8..16).contains(&d)
            })
            .count();
        let rate = local as f64 / trials as f64;
        assert!((rate - 0.9).abs() < 0.02, "local rate {rate}");
    }

    #[test]
    fn cluster_local_zero_always_leaves() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(8);
        let p = Pattern::ClusterLocal { locality: 0.0 };
        for _ in 0..1000 {
            let d = p.sample(&s, 0, &mut rng);
            assert!(d >= 4, "node 0 is in cluster 0 (nodes 0..4), got {d}");
        }
    }

    #[test]
    fn outgoing_probability_consistency() {
        let s = spec();
        // Uniform matches Eq. (2).
        assert_eq!(
            Pattern::Uniform.outgoing_probability(&s, 1),
            s.outgoing_probability(1)
        );
        // Full locality never leaves.
        let local = Pattern::ClusterLocal { locality: 1.0 };
        assert_eq!(local.outgoing_probability(&s, 0), 0.0);
        // A hotspot in another cluster raises the outgoing share.
        let hot = Pattern::Hotspot {
            hotspot: 20,
            fraction: 0.8,
        };
        assert!(hot.outgoing_probability(&s, 0) > s.outgoing_probability(0));
    }

    #[test]
    fn cluster_shift_is_deterministic_and_leaves() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(1);
        let p = Pattern::ClusterShift { shift: 1 };
        // Node 0 (cluster 0, local 0) -> cluster 1's local 0 = node 4.
        assert_eq!(p.sample(&s, 0, &mut rng), 4);
        // Node 9 (cluster 2, local 1) -> cluster 3's local 1 = node 17.
        assert_eq!(p.sample(&s, 9, &mut rng), 17);
        // Local index folds modulo the destination size: node 15
        // (cluster 2, local 7) -> cluster 3 local 7 = node 23.
        assert_eq!(p.sample(&s, 15, &mut rng), 23);
        assert_eq!(p.outgoing_probability(&s, 0), 1.0);
    }

    #[test]
    fn cluster_shift_wraps_and_folds() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(1);
        let p = Pattern::ClusterShift { shift: 3 };
        // Node 20 (cluster 3, local 4) -> cluster 2 (wrap) local 4 = 12.
        assert_eq!(p.sample(&s, 20, &mut rng), 12);
        // Cluster 3 local 5 -> cluster (3+3)%4=2: node 8+5=13.
        assert_eq!(p.sample(&s, 21, &mut rng), 13);
        // Folding: cluster 2 local 7 -> cluster 1 (size 4): local 7%4=3.
        let p1 = Pattern::ClusterShift { shift: 3 };
        assert_eq!(p1.sample(&s, 15, &mut rng), s.node_offset(1) + 3);
    }

    #[test]
    fn complement_is_an_involution_without_fixpoints() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(1);
        let total = s.total_nodes();
        for src in 0..total {
            let d = Pattern::Complement.sample(&s, src, &mut rng);
            assert_ne!(d, src);
            let back = Pattern::Complement.sample(&s, d, &mut rng);
            assert_eq!(back, src, "complement must be an involution");
        }
    }

    #[test]
    fn complement_outgoing_probability_matches_empirical() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..s.num_clusters() {
            let off = s.node_offset(i);
            let size = s.cluster_nodes(i);
            let out = (off..off + size)
                .filter(|&x| {
                    let d = Pattern::Complement.sample(&s, x, &mut rng);
                    s.locate_node(d).unwrap().0 != i
                })
                .count();
            let predicted = Pattern::Complement.outgoing_probability(&s, i);
            assert!((predicted - out as f64 / size as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_outgoing_matches_prediction() {
        let s = spec();
        let mut rng = StdRng::seed_from_u64(13);
        for pattern in [Pattern::Uniform, Pattern::ClusterLocal { locality: 0.7 }] {
            let src = 9; // cluster 2
            let trials = 50_000;
            let out = (0..trials)
                .filter(|_| {
                    let d = pattern.sample(&s, src, &mut rng);
                    !(8..16).contains(&d)
                })
                .count();
            let rate = out as f64 / trials as f64;
            let predicted = pattern.outgoing_probability(&s, 2);
            assert!(
                (rate - predicted).abs() < 0.02,
                "{pattern:?}: empirical {rate} vs predicted {predicted}"
            );
        }
    }

    /// The spec-walking draw `Pattern::sample` made before the layout
    /// draw existed: the oracle the layout draw must reproduce.
    fn spec_walking_sample(p: Pattern, spec: &SystemSpec, src: usize, rng: &mut StdRng) -> usize {
        let total = spec.total_nodes();
        match p {
            Pattern::Uniform => uniform_excluding(total, src, rng),
            Pattern::Hotspot { hotspot, fraction } => {
                if hotspot != src && rng.random::<f64>() < fraction {
                    hotspot
                } else {
                    uniform_excluding(total, src, rng)
                }
            }
            Pattern::ClusterLocal { locality } => {
                let (cluster, _) = spec.locate_node(src).unwrap();
                let off = spec.node_offset(cluster);
                let size = spec.cluster_nodes(cluster);
                if size > 1 && rng.random::<f64>() < locality {
                    off + uniform_excluding(size, src - off, rng)
                } else {
                    let pick = rng.random_range(0..total - size);
                    if pick < off {
                        pick
                    } else {
                        pick + size
                    }
                }
            }
            Pattern::ClusterShift { shift } => {
                let (cluster, local) = spec.locate_node(src).unwrap();
                let dest = (cluster + shift) % spec.num_clusters();
                spec.node_offset(dest) + local % spec.cluster_nodes(dest)
            }
            Pattern::Complement => {
                let mirror = total - 1 - src;
                if mirror == src {
                    (src + 1) % total
                } else {
                    mirror
                }
            }
        }
    }

    #[test]
    fn layout_draw_matches_the_spec_walking_draw() {
        use cocnet_topology::{TopoSpec, TorusShape};
        let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let tree = |n| ClusterSpec {
            n,
            icn1: net,
            ecn1: net,
            topology: TopoSpec::Tree,
        };
        let torus = |dims: &[u32]| ClusterSpec {
            n: 0,
            icn1: net,
            ecn1: net,
            topology: TopoSpec::Torus(TorusShape::new(dims).unwrap()),
        };
        // Heterogeneous trees (4, 16, 4 and 8 nodes), and torus clusters
        // of 16, 8, 16 and 12 nodes.
        let specs = [
            SystemSpec::new(4, vec![tree(1), tree(3), tree(1), tree(2)], net).unwrap(),
            SystemSpec::new(
                4,
                vec![
                    torus(&[4, 4]),
                    torus(&[2, 2, 2]),
                    torus(&[4, 4]),
                    torus(&[3, 4]),
                ],
                net,
            )
            .unwrap(),
        ];
        for spec in &specs {
            let offsets = cluster_offsets(spec);
            let total = spec.total_nodes();
            assert_eq!(offsets.len(), spec.num_clusters() + 1);
            assert_eq!(*offsets.last().unwrap(), total);
            let patterns = [
                Pattern::Uniform,
                Pattern::Hotspot {
                    hotspot: total / 3,
                    fraction: 0.4,
                },
                Pattern::ClusterLocal { locality: 0.6 },
                Pattern::ClusterShift { shift: 3 },
                Pattern::Complement,
            ];
            for p in patterns {
                let mut oracle = StdRng::seed_from_u64(31);
                let mut layout = oracle.clone();
                let mut walking = oracle.clone();
                for round in 0..40 {
                    for src in 0..total {
                        let want = spec_walking_sample(p, spec, src, &mut oracle);
                        let got = p.sample_in(&offsets, src, &mut layout);
                        assert_eq!(got, want, "{p:?}: src {src}, round {round}");
                        assert_eq!(layout, oracle, "{p:?}: rng after src {src}");
                        assert_eq!(p.sample(spec, src, &mut walking), want);
                    }
                }
                assert_eq!(walking, oracle);
            }
        }
    }
}
