//! Label algebra for m-port n-trees.
//!
//! Following Lin's construction (paper ref \[17\]), a processing node is
//! identified by a digit string `p_1 p_2 … p_n` with `p_1 ∈ {0..m−1}` and
//! `p_i ∈ {0..m/2−1}` for `i ≥ 2` — a mixed-radix number with one radix-`m`
//! digit followed by `n−1` radix-`m/2` digits, giving the required
//! `N = m·(m/2)^{n−1} = 2(m/2)^n` nodes.
//!
//! A switch at level `l` is identified by the node digits its subtree fixes
//! plus the up-port choices that reached it:
//!
//! * `fixed = p_1 … p_{n−l}` — every node below this switch shares these
//!   digits (so a level-`l` switch subtends `(m/2)^l` nodes for `l < n`);
//! * `ups = u_1 … u_{l−1}` — each `u ∈ {0..m/2−1}` records the up-port taken
//!   at each ascent, distinguishing the `(m/2)^{l−1}` parallel switches that
//!   fix the same node digits.
//!
//! Root switches (`l = n`) fix nothing and are labelled purely by
//! `n−1` up digits, giving `(m/2)^{n−1}` roots; non-root levels have
//! `m·(m/2)^{n−2}` switches each, for the paper's total
//! `N_sw = (2n−1)(m/2)^{n−1}`.
//!
//! These types are the readable form of the algebra. The router in
//! [`crate::graph`] reads the same digits as integers — a switch is
//! (level, fixed index, up index) — so it routes without building a label.

use serde::{Deserialize, Serialize};

/// A processing-node label: digits `p_1 … p_n`.
///
/// Digit 0 has radix `m`; digits 1.. have radix `m/2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeLabel {
    /// The digits, most significant first (`p_1` is `digits[0]`).
    pub digits: Vec<u32>,
}

impl NodeLabel {
    /// Decodes a node id into its digit string for an (m, n) tree.
    ///
    /// Ids enumerate labels in lexicographic order, `p_n` fastest.
    pub fn from_id(id: usize, m: u32, n: u32) -> Self {
        let k = (m / 2) as usize;
        let mut digits = vec![0u32; n as usize];
        let mut rest = id;
        // Digits p_n .. p_2 are radix m/2.
        for i in (1..n as usize).rev() {
            digits[i] = (rest % k) as u32;
            rest /= k;
        }
        // p_1 is radix m.
        digits[0] = rest as u32;
        Self { digits }
    }

    /// Encodes the digit string back into a node id.
    pub fn to_id(&self, m: u32) -> usize {
        let k = (m / 2) as usize;
        let mut id = self.digits[0] as usize;
        for &d in &self.digits[1..] {
            id = id * k + d as usize;
        }
        id
    }

    /// Length of the longest common prefix with another label.
    pub fn common_prefix_len(&self, other: &NodeLabel) -> usize {
        self.digits
            .iter()
            .zip(&other.digits)
            .take_while(|(a, b)| a == b)
            .count()
    }
}

/// A switch label: the fixed node digits of its subtree plus the up-port
/// digits that reached it. `level = n − fixed.len() = ups.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SwitchLabel {
    /// Node digits `p_1 … p_{n−l}` shared by every node in this subtree.
    pub fixed: Vec<u32>,
    /// Up-port digits `u_1 … u_{l−1}`, each in `{0..m/2−1}`.
    pub ups: Vec<u32>,
}

impl SwitchLabel {
    /// The switch level `l ∈ 1..=n` implied by the label shape.
    pub fn level(&self, n: u32) -> u32 {
        debug_assert_eq!(
            self.fixed.len() + self.ups.len(),
            n as usize - 1,
            "switch label has {} fixed + {} up digits, expected n-1 = {}",
            self.fixed.len(),
            self.ups.len(),
            n - 1
        );
        n - self.fixed.len() as u32
    }

    /// The parent reached by taking up-port `u` (drops the last fixed digit).
    ///
    /// Returns `None` for root switches (no fixed digits left).
    pub fn parent(&self, u: u32) -> Option<SwitchLabel> {
        if self.fixed.is_empty() {
            return None;
        }
        let mut fixed = self.fixed.clone();
        fixed.pop();
        let mut ups = self.ups.clone();
        ups.push(u);
        Some(SwitchLabel { fixed, ups })
    }

    /// The child reached by down-port `d` (drops the last up digit and
    /// appends `d` as a new fixed digit).
    ///
    /// Returns `None` for leaf switches (no up digits to drop).
    pub fn child(&self, d: u32) -> Option<SwitchLabel> {
        if self.ups.is_empty() {
            return None;
        }
        let mut ups = self.ups.clone();
        ups.pop();
        let mut fixed = self.fixed.clone();
        fixed.push(d);
        Some(SwitchLabel { fixed, ups })
    }

    /// The leaf switch of a node (fixes `p_1 … p_{n−1}`, no ups).
    pub fn leaf_of(node: &NodeLabel) -> SwitchLabel {
        SwitchLabel {
            fixed: node.digits[..node.digits.len() - 1].to_vec(),
            ups: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_label_round_trip_all_ids() {
        let (m, n) = (8u32, 3u32);
        let num = 2 * (m as usize / 2).pow(n);
        for id in 0..num {
            let label = NodeLabel::from_id(id, m, n);
            assert_eq!(label.digits.len(), n as usize);
            assert!(label.digits[0] < m);
            for &d in &label.digits[1..] {
                assert!(d < m / 2);
            }
            assert_eq!(label.to_id(m), id);
        }
    }

    #[test]
    fn node_label_digit_ranges_m4() {
        let (m, n) = (4u32, 2u32);
        // N = 2 * 2^2 = 8 nodes; first digit 0..4, second 0..2.
        let l = NodeLabel::from_id(7, m, n);
        assert_eq!(l.digits, vec![3, 1]);
        let l = NodeLabel::from_id(0, m, n);
        assert_eq!(l.digits, vec![0, 0]);
    }

    #[test]
    fn common_prefix() {
        let a = NodeLabel {
            digits: vec![1, 2, 3],
        };
        let b = NodeLabel {
            digits: vec![1, 2, 0],
        };
        assert_eq!(a.common_prefix_len(&b), 2);
        assert_eq!(a.common_prefix_len(&a), 3);
        let c = NodeLabel {
            digits: vec![0, 2, 3],
        };
        assert_eq!(a.common_prefix_len(&c), 0);
    }

    #[test]
    fn leaf_switch_and_parent_chain() {
        let node = NodeLabel {
            digits: vec![5, 1, 2],
        };
        let leaf = SwitchLabel::leaf_of(&node);
        assert_eq!(leaf.fixed, vec![5, 1]);
        assert!(leaf.ups.is_empty());
        assert_eq!(leaf.level(3), 1);

        let l2 = leaf.parent(3).unwrap();
        assert_eq!(l2.fixed, vec![5]);
        assert_eq!(l2.ups, vec![3]);
        assert_eq!(l2.level(3), 2);

        let root = l2.parent(0).unwrap();
        assert!(root.fixed.is_empty());
        assert_eq!(root.ups, vec![3, 0]);
        assert_eq!(root.level(3), 3);
        assert!(root.parent(0).is_none());
    }

    #[test]
    fn child_inverts_parent() {
        let leaf = SwitchLabel {
            fixed: vec![5, 1],
            ups: vec![],
        };
        let up = leaf.parent(2).unwrap();
        let back = up.child(1).unwrap();
        assert_eq!(back.fixed, vec![5, 1]);
        assert_eq!(back.ups, vec![]);
        assert!(leaf.child(0).is_none());
    }
}
