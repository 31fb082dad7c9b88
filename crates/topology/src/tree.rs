//! The m-port n-tree topology (paper §2, ref \[17\]).
//!
//! An m-port n-tree consists of `N = 2(m/2)^n` processing nodes and
//! `N_sw = (2n−1)(m/2)^{n−1}` switches of arity `m`, arranged in `n` levels.
//! Every message between distinct nodes takes `2h` links, where `h` is the
//! level of the nearest common ancestor (NCA) of source and destination —
//! `h` up-links (including the node→switch injection link) followed by `h`
//! down-links (including the final switch→node link).

use crate::error::TopologyError;
use crate::labels::NodeLabel;
use serde::{Deserialize, Serialize};

/// An m-port n-tree topology descriptor.
///
/// This type is cheap to copy; the explicit channel graph is built
/// separately by [`crate::graph::Graph::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MPortNTree {
    m: u32,
    n: u32,
}

impl MPortNTree {
    /// Creates a tree descriptor, validating `m` (even, ≥ 2) and `n` (≥ 1)
    /// and that the node count fits in a `usize`.
    pub fn new(m: u32, n: u32) -> Result<Self, TopologyError> {
        if m < 2 || !m.is_multiple_of(2) {
            return Err(TopologyError::BadPortCount { m });
        }
        if n == 0 {
            return Err(TopologyError::BadTreeHeight { n });
        }
        let k = (m / 2) as u128;
        let nodes = 2u128
            .checked_mul(
                k.checked_pow(n)
                    .ok_or(TopologyError::TooLarge { what: "node count" })?,
            )
            .ok_or(TopologyError::TooLarge { what: "node count" })?;
        if nodes > usize::MAX as u128 / 4 {
            return Err(TopologyError::TooLarge { what: "node count" });
        }
        Ok(Self { m, n })
    }

    /// Switch arity `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Tree height `n` (number of switch levels).
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Half-arity `k = m/2`, the branching factor of non-root levels.
    pub fn k(&self) -> u32 {
        self.m / 2
    }

    /// Number of processing nodes, `N = 2(m/2)^n`.
    pub fn num_nodes(&self) -> usize {
        2 * (self.k() as usize).pow(self.n)
    }

    /// Number of switches, `N_sw = (2n−1)(m/2)^{n−1}`.
    pub fn num_switches(&self) -> usize {
        (2 * self.n as usize - 1) * (self.k() as usize).pow(self.n - 1)
    }

    /// Number of leaf switches: `m(m/2)^{n−2}` for `n ≥ 2`; a single-level
    /// tree has exactly one switch, which is leaf and root at once.
    pub fn num_leaf_switches(&self) -> usize {
        if self.n == 1 {
            1
        } else {
            self.m as usize * (self.k() as usize).pow(self.n - 2)
        }
    }

    /// `id` itself when it names a node of this tree, else
    /// [`TopologyError::NodeOutOfRange`].
    pub(crate) fn check_node(&self, id: usize) -> Result<usize, TopologyError> {
        if id >= self.num_nodes() {
            return Err(TopologyError::NodeOutOfRange {
                node: id,
                num_nodes: self.num_nodes(),
            });
        }
        Ok(id)
    }

    /// Index of the leaf switch node `id` attaches to, in `0..num_leaf_switches()`.
    ///
    /// Node ids are the lexicographic encoding of the label with `p_n`
    /// fastest, so the `k = m/2` nodes under one leaf are consecutive and
    /// the leaf index is simply `id / k` (`0` for the single-switch `n = 1`
    /// tree, where all `m` nodes share the one switch).
    pub fn leaf_index_of(&self, id: usize) -> Result<usize, TopologyError> {
        self.check_node(id)?;
        Ok(if self.n == 1 {
            0
        } else {
            id / self.k() as usize
        })
    }

    /// Position of node `id` among the nodes of its leaf switch
    /// (`id % (m/2)`, or `id` itself in the single-switch `n = 1` tree).
    /// Together with [`MPortNTree::leaf_index_of`] this inverts to the node
    /// id via [`MPortNTree::node_under_leaf`].
    pub fn leaf_member_of(&self, id: usize) -> Result<usize, TopologyError> {
        self.check_node(id)?;
        Ok(if self.n == 1 {
            id
        } else {
            id % self.k() as usize
        })
    }

    /// Inverse of `(leaf_index_of, leaf_member_of)`: the node id of member
    /// `member` under leaf switch `leaf`.
    pub fn node_under_leaf(&self, leaf: usize, member: usize) -> usize {
        if self.n == 1 {
            member
        } else {
            leaf * self.k() as usize + member
        }
    }

    /// Canonical **route-equivalence class** of the ordered pair
    /// `(src, dst)`: `(leaf_index_of(src), dst)`.
    ///
    /// For both [`crate::AscentPolicy`] variants, the deterministic
    /// Up*/Down* route of `src → dst` minus its injection channel is a pure
    /// function of this class: the ascent digits are read from the
    /// *destination* label, the descent is fixed by the destination, and
    /// the starting point of the walk is `src`'s leaf switch. Every `src`
    /// under the same leaf therefore shares the whole route tail (and its
    /// NCA level), differing only in the injection channel — the invariant
    /// that makes class-keyed route interning exact (pinned by the
    /// `route_tail_is_class_invariant` test in `graph.rs`).
    pub fn intra_route_class(
        &self,
        src: usize,
        dst: usize,
    ) -> Result<(usize, usize), TopologyError> {
        Ok((self.leaf_index_of(src)?, dst))
    }

    /// Decodes a node id into its mixed-radix label.
    pub fn node_label(&self, id: usize) -> Result<NodeLabel, TopologyError> {
        self.check_node(id)?;
        Ok(NodeLabel::from_id(id, self.m, self.n))
    }

    /// Encodes a label back to a node id.
    pub fn node_id(&self, label: &NodeLabel) -> usize {
        label.to_id(self.m)
    }

    /// The NCA level `h ∈ 0..=n` of two nodes: `0` iff `a == b`, else
    /// `n − common_prefix_len(a, b)`. A message between distinct nodes
    /// crosses `2h` links.
    ///
    /// Closed-form on the ids: below the root, the nodes under a level-`l`
    /// switch share the digits `p_1 … p_{n−l}`, which read as the number
    /// `id / (m/2)^l`, so `h` is the lowest level where those agree.
    pub fn nca_level(&self, a: usize, b: usize) -> Result<u32, TopologyError> {
        let k = self.k() as usize;
        let (mut a, mut b) = (self.check_node(a)?, self.check_node(b)?);
        if a == b {
            return Ok(0);
        }
        let mut h = 1;
        loop {
            (a, b) = (a / k, b / k);
            if a == b || h == self.n {
                return Ok(h);
            }
            h += 1;
        }
    }

    /// Brute-force histogram of NCA levels over all ordered pairs of
    /// distinct nodes: entry `h−1` counts pairs with NCA level `h`.
    ///
    /// Quadratic in `N`; intended for tests and small trees, where it
    /// cross-checks the analytical distribution of Eq. (6).
    pub fn nca_histogram(&self) -> Vec<u64> {
        let n_nodes = self.num_nodes();
        let mut hist = vec![0u64; self.n as usize];
        for a in 0..n_nodes {
            for b in 0..n_nodes {
                if a != b {
                    let h = self.nca_level(a, b).expect("ids in range");
                    hist[(h - 1) as usize] += 1;
                }
            }
        }
        hist
    }

    /// Mean link distance over all ordered pairs of distinct nodes
    /// (`2·E[h]`), computed by brute force. Cross-checks Eq. (9).
    pub fn mean_distance_brute_force(&self) -> f64 {
        let hist = self.nca_histogram();
        let total: u64 = hist.iter().sum();
        let weighted: f64 = hist
            .iter()
            .enumerate()
            .map(|(i, &c)| 2.0 * (i as f64 + 1.0) * c as f64)
            .sum();
        weighted / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of switches of `t` at `level ∈ 1..=n`: `(m/2)^{n−1}` at the
    /// root level, `m(m/2)^{n−2}` elsewhere.
    fn switches_at_level(t: &MPortNTree, level: u32) -> usize {
        assert!(
            (1..=t.n).contains(&level),
            "level {level} out of 1..={}",
            t.n
        );
        let k = t.k() as usize;
        if level == t.n {
            k.pow(t.n - 1)
        } else {
            // Levels below the root all have m·(m/2)^{n−2} switches. When
            // n == 1 the only level is the root, so this branch needs n ≥ 2.
            t.m as usize * k.pow(t.n - 2)
        }
    }

    #[test]
    fn paper_organizations_node_counts() {
        // Table 1 building blocks: m=8 with n=1,2,3 and m=4 with n=3,4,5.
        assert_eq!(MPortNTree::new(8, 1).unwrap().num_nodes(), 8);
        assert_eq!(MPortNTree::new(8, 2).unwrap().num_nodes(), 32);
        assert_eq!(MPortNTree::new(8, 3).unwrap().num_nodes(), 128);
        assert_eq!(MPortNTree::new(4, 3).unwrap().num_nodes(), 16);
        assert_eq!(MPortNTree::new(4, 4).unwrap().num_nodes(), 32);
        assert_eq!(MPortNTree::new(4, 5).unwrap().num_nodes(), 64);
    }

    #[test]
    fn switch_counts_match_formula() {
        for (m, n) in [
            (4u32, 1u32),
            (4, 2),
            (4, 3),
            (8, 1),
            (8, 2),
            (8, 3),
            (16, 2),
        ] {
            let t = MPortNTree::new(m, n).unwrap();
            let k = (m / 2) as usize;
            assert_eq!(
                t.num_switches(),
                (2 * n as usize - 1) * k.pow(n - 1),
                "m={m} n={n}"
            );
            // Per-level counts must sum to the total.
            let by_level: usize = (1..=n).map(|l| switches_at_level(&t, l)).sum();
            assert_eq!(by_level, t.num_switches(), "m={m} n={n}");
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(MPortNTree::new(3, 2).is_err());
        assert!(MPortNTree::new(0, 2).is_err());
        assert!(MPortNTree::new(4, 0).is_err());
        assert!(MPortNTree::new(4, 64).is_err()); // overflows
        assert!(MPortNTree::new(16, 40).is_err()); // overflows
    }

    #[test]
    fn nca_level_basic_cases() {
        let t = MPortNTree::new(4, 2).unwrap(); // 8 nodes, labels (p1 in 0..4, p2 in 0..2)
        assert_eq!(t.nca_level(0, 0).unwrap(), 0);
        // Nodes 0 = (0,0) and 1 = (0,1): share p1, differ p2 -> h=1.
        assert_eq!(t.nca_level(0, 1).unwrap(), 1);
        // Nodes 0 = (0,0) and 2 = (1,0): differ p1 -> h=2 (root).
        assert_eq!(t.nca_level(0, 2).unwrap(), 2);
        assert!(t.nca_level(0, 8).is_err());
    }

    #[test]
    fn nca_symmetric() {
        let t = MPortNTree::new(4, 3).unwrap();
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert_eq!(t.nca_level(a, b).unwrap(), t.nca_level(b, a).unwrap());
            }
        }
    }

    #[test]
    fn nca_histogram_counts_per_source() {
        // From any source: (m/2 − 1)(m/2)^{h−1} destinations at level h<n,
        // (m−1)(m/2)^{n−1} at level n. Histogram is over ordered pairs, so
        // each per-source count is multiplied by N.
        let t = MPortNTree::new(4, 3).unwrap();
        let n_nodes = t.num_nodes() as u64; // 16
        let hist = t.nca_histogram();
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0], n_nodes); // (2-1)*2^0 = 1
        assert_eq!(hist[1], n_nodes * 2); // (2-1)*2^1 = 2
        assert_eq!(hist[2], n_nodes * 12); // (4-1)*2^2 = 12
        let total: u64 = hist.iter().sum();
        assert_eq!(total, n_nodes * (n_nodes - 1));
    }

    #[test]
    fn single_level_tree_all_pairs_at_root() {
        let t = MPortNTree::new(8, 1).unwrap(); // 8 nodes, 1 switch
        assert_eq!(t.num_switches(), 1);
        let hist = t.nca_histogram();
        assert_eq!(hist, vec![8 * 7]);
        assert!((t.mean_distance_brute_force() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn node_label_round_trip() {
        let t = MPortNTree::new(8, 2).unwrap();
        for id in 0..t.num_nodes() {
            let l = t.node_label(id).unwrap();
            assert_eq!(t.node_id(&l), id);
        }
    }

    #[test]
    fn leaf_partition_round_trips_and_matches_labels() {
        for (m, n) in [(4u32, 1u32), (8, 1), (4, 2), (4, 3), (8, 2), (8, 3)] {
            let t = MPortNTree::new(m, n).unwrap();
            let k = (m / 2) as usize;
            let leaves = t.num_leaf_switches();
            if n == 1 {
                assert_eq!(leaves, 1, "m={m} n={n}");
            } else {
                assert_eq!(leaves, m as usize * k.pow(n - 2), "m={m} n={n}");
                assert_eq!(leaves * k, t.num_nodes(), "m={m} n={n}");
            }
            let mut per_leaf = vec![0usize; leaves];
            for id in 0..t.num_nodes() {
                let leaf = t.leaf_index_of(id).unwrap();
                let member = t.leaf_member_of(id).unwrap();
                assert!(leaf < leaves);
                assert_eq!(t.node_under_leaf(leaf, member), id, "m={m} n={n} id={id}");
                per_leaf[leaf] += 1;
            }
            let expect = if n == 1 { m as usize } else { k };
            assert!(per_leaf.iter().all(|&c| c == expect), "m={m} n={n}");
        }
        assert!(MPortNTree::new(4, 2).unwrap().leaf_index_of(8).is_err());
        assert!(MPortNTree::new(4, 2).unwrap().leaf_member_of(8).is_err());
    }

    #[test]
    fn same_leaf_means_same_label_prefix() {
        // Two nodes share a leaf switch iff their labels agree on every
        // digit but the last — the invariant `intra_route_class` relies on.
        for (m, n) in [(4u32, 2u32), (8, 2), (4, 3)] {
            let t = MPortNTree::new(m, n).unwrap();
            for a in 0..t.num_nodes() {
                for b in 0..t.num_nodes() {
                    let same_leaf = t.leaf_index_of(a).unwrap() == t.leaf_index_of(b).unwrap();
                    let la = t.node_label(a).unwrap();
                    let lb = t.node_label(b).unwrap();
                    let prefix_eq = la.common_prefix_len(&lb) as u32 >= n - 1;
                    assert_eq!(same_leaf, prefix_eq, "m={m} n={n} a={a} b={b}");
                }
            }
        }
    }
}
