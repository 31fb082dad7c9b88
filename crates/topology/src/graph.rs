//! Explicit channel-level wiring of an m-port n-tree with deterministic
//! Up*/Down* routing.
//!
//! The [`Graph`] materialises every directed channel of a tree so the
//! discrete-event simulator can model per-channel contention (assumption 6:
//! input-buffered switches, one flit buffer per channel). Routes follow the
//! paper's deterministic Up*/Down* scheme (refs \[19, 20\]): ascend to a
//! nearest common ancestor, then descend. The ascent's up-port choice is a
//! fixed function of the addresses, making the path unique per
//! (source, destination) pair — deterministic routing, as in most cluster
//! interconnect technologies (paper §2).
//!
//! Every id is closed-form in Lin's label algebra ([`crate::labels`]), read
//! as integers. A switch at level `l` is the triple (level, fixed index,
//! up index): the fixed node digits `p_1 … p_{n−l}` as one mixed-radix
//! number (for a switch on node `x`'s path, `x / k^l` below the root), and
//! the up digits `u_1 … u_{l−1}` as another. With `k = m/2` and
//! `W = 2k^{n−1}` switches per non-root level:
//!
//! * switch id: `(l − 1)·W + fixed·k^{l−1} + ups`, levels bottom-up;
//! * injection and ejection channels of node `x`: `2x` and `2x + 1`;
//! * up channel of non-root switch `s` through up-port `u`:
//!   `2N + 2(s·k + u)`, and the down channel of the same link `+1`.
//!
//! Routing is therefore integer arithmetic with no map and no allocation.
//! The two directions of one physical link get consecutive ids;
//! [`Graph::reverse`] is just `id ^ 1`.

use crate::error::TopologyError;
use crate::topo::Topology;
use crate::tree::MPortNTree;
use serde::{Deserialize, Serialize};

/// One directed channel (graph edge) of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

/// What kind of connection a channel realises; determines whether the
/// node↔switch (`t_cn`) or switch↔switch (`t_cs`) service time applies
/// (Eqs. (11)–(12)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelKind {
    /// Injection channel: processing node into its leaf switch.
    NodeToSwitch,
    /// Internal channel between two switches (either direction).
    SwitchToSwitch,
    /// Ejection channel: leaf switch down to a processing node.
    SwitchToNode,
}

/// A vertex of the network graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// Processing node, by node id.
    Node(u32),
    /// Switch, by dense switch id (see [`Graph::switch_level`]).
    Switch(u32),
}

/// Descriptor of one directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelDesc {
    /// Source endpoint.
    pub from: Endpoint,
    /// Destination endpoint.
    pub to: Endpoint,
    /// Connection kind (service-time class).
    pub kind: ChannelKind,
}

/// How the Up*/Down* ascent picks its up-port at each level.
///
/// Both policies are deterministic per (source, destination); they differ
/// in how traffic toward a *skewed* destination distribution spreads over
/// the parallel ancestors; the `ablation_routing` registry entry measures
/// the difference on org_1120.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AscentPolicy {
    /// Read the shaping label's trailing digits (`p_n` first) — Lin's
    /// multiple-LID / d-mod-k flavour. Destinations that share a subtree
    /// (and therefore their descent digits) still fan out across different
    /// roots: balanced under skewed traffic. The default.
    #[default]
    TrailingDigits,
    /// Mirror the descent digits (`p_{n-1}` first, folded into `m/2` by a
    /// modulo). Simple, but every message toward the same subtree climbs
    /// through the same ancestors — a root hot-spot under skewed traffic.
    /// Kept as the `ablation_routing` baseline.
    MirrorDescent,
}
/// A set of failed channels of one [`Graph`].
///
/// Faults model *physical* link failures: the two directions of a link
/// always fail (and repair) in tandem, so `is_failed(c)` equals
/// `is_failed(reverse(c))` by construction. Channels are identified by the
/// graph-local [`ChannelId`]; the pairing relies on the graph's invariant
/// that a link's two directions occupy consecutive ids (`reverse == id ^ 1`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    failed: std::collections::HashSet<u32>,
}

impl FaultSet {
    /// An empty (fault-free) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the physical link carrying `id` as failed — both directions.
    pub fn fail_link(&mut self, id: ChannelId) {
        self.failed.insert(id.0);
        self.failed.insert(id.0 ^ 1);
    }

    /// Repairs the physical link carrying `id` — both directions.
    pub fn repair_link(&mut self, id: ChannelId) {
        self.failed.remove(&id.0);
        self.failed.remove(&(id.0 ^ 1));
    }

    /// Fails every link incident to switch `sw` of `graph` (a dead switch:
    /// nothing can enter or leave it).
    pub fn fail_switch(&mut self, graph: &Graph, sw: u32) {
        for i in 0..graph.num_channels() {
            let id = ChannelId(i as u32);
            let ch = graph.channel(id);
            if ch.from == Endpoint::Switch(sw) || ch.to == Endpoint::Switch(sw) {
                self.fail_link(id);
            }
        }
    }

    /// Whether channel `id` is currently failed.
    pub fn is_failed(&self, id: ChannelId) -> bool {
        self.failed.contains(&id.0)
    }

    /// Whether no channel is failed (the routing fast path).
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Number of failed *directed* channels (twice the failed link count).
    pub fn len(&self) -> usize {
        self.failed.len()
    }
}

/// Shared inputs of the fault-avoiding DFS helpers
/// ([`Graph::search_avoiding`] / [`Graph::descend_avoiding`]), bundled so
/// the recursion carries one reference instead of six arguments.
struct AvoidCtx<'a> {
    /// The ascending node: the source of a node-to-node or to-root route.
    src: usize,
    /// Node shaping the preferred ascent digits — the destination for
    /// node-to-node routes, the source for to-root routes.
    shape: usize,
    policy: AscentPolicy,
    faults: &'a FaultSet,
    /// Level the ascent must reach before descending (node-to-node) or
    /// terminating (to-root).
    target: u32,
    /// Destination node of the descent; `None` for to-root routes.
    dst: Option<usize>,
}

/// An m-port n-tree with all channels materialised.
///
/// Routing lives on the [`Topology`] trait and its consolidated
/// [`crate::topo::RouteQuery`] entrypoint, which this type implements:
///
/// ```
/// use cocnet_topology::{AscentPolicy, Graph, MPortNTree, RouteMode, RouteQuery, Topology};
/// let g = Graph::build(MPortNTree::new(4, 2)?);
/// // Nodes 0 and 7 share no leaf switch: the route climbs to a root,
/// // 2h = 4 channels in total.
/// let q = RouteQuery {
///     src: 0,
///     dst: 7,
///     policy: AscentPolicy::default(),
///     faults: None,
///     mode: RouteMode::Deterministic,
/// };
/// let mut route = Vec::new();
/// let nca_level = g.route_query(&q, &mut route)?;
/// assert_eq!(nca_level, 2);
/// assert_eq!(route.len(), 4);
/// # Ok::<(), cocnet_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    tree: MPortNTree,
    channels: Vec<ChannelDesc>,
    /// `k^l` for `l ∈ 0..=n` (so `pow[1]` is `k = m/2`).
    pow: Vec<usize>,
    /// Switches per non-root level, `W = 2k^{n−1}`; the level-`l` switches
    /// hold ids `(l − 1)·W ..`, so the roots start at `(n − 1)·W`.
    per_level: usize,
    /// First switch-to-switch channel id, `2N`.
    fabric: usize,
}

impl Graph {
    /// Builds the full channel graph of `tree`.
    pub fn build(tree: MPortNTree) -> Self {
        let n = tree.n() as usize;
        let k = tree.k() as usize;
        let nodes = tree.num_nodes();
        let pow: Vec<usize> = (0..=n as u32).map(|l| k.pow(l)).collect();
        let per_level = 2 * pow[n - 1];
        let mut channels = Vec::with_capacity(2 * n * nodes);
        let mut add_link =
            |a: Endpoint, b: Endpoint, kind_ab: ChannelKind, kind_ba: ChannelKind| {
                channels.push(ChannelDesc {
                    from: a,
                    to: b,
                    kind: kind_ab,
                });
                channels.push(ChannelDesc {
                    from: b,
                    to: a,
                    kind: kind_ba,
                });
            };
        // Node <-> leaf-switch links, two channels per node in node order.
        // A leaf fixes every digit but the node's last one.
        for node in 0..nodes {
            let leaf = if n == 1 { 0 } else { node / k };
            add_link(
                Endpoint::Node(node as u32),
                Endpoint::Switch(leaf as u32),
                ChannelKind::NodeToSwitch,
                ChannelKind::SwitchToNode,
            );
        }
        // Switch <-> switch links: every non-root switch, in id order, has
        // k up-ports. The parent through port `u` drops the last fixed
        // digit (all of them at the root) and appends `u` to the up digits.
        for s in 0..(n - 1) * per_level {
            let l = s / per_level + 1;
            let (fixed, ups) = (s % per_level / pow[l - 1], s % per_level % pow[l - 1]);
            let parent_fixed = if l + 1 == n { 0 } else { fixed / k };
            for u in 0..k {
                let parent = l * per_level + parent_fixed * pow[l] + ups * k + u;
                add_link(
                    Endpoint::Switch(s as u32),
                    Endpoint::Switch(parent as u32),
                    ChannelKind::SwitchToSwitch,
                    ChannelKind::SwitchToSwitch,
                );
            }
        }
        Self {
            tree,
            channels,
            pow,
            per_level,
            fabric: 2 * nodes,
        }
    }

    /// The tree descriptor this graph was built from.
    pub fn tree(&self) -> &MPortNTree {
        &self.tree
    }

    /// Total number of directed channels (`2·n·N` for an m-port n-tree).
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Descriptor of channel `id`.
    pub fn channel(&self, id: ChannelId) -> &ChannelDesc {
        &self.channels[id.0 as usize]
    }

    /// The opposite direction of the same physical link.
    pub fn reverse(&self, id: ChannelId) -> ChannelId {
        ChannelId(id.0 ^ 1)
    }

    /// Level `l ∈ 1..=n` of switch id `idx`.
    pub fn switch_level(&self, idx: u32) -> u32 {
        idx / self.per_level as u32 + 1
    }

    /// Switch ids of the root level.
    pub fn roots(&self) -> std::ops::Range<u32> {
        let first = (self.tree.n() as usize - 1) * self.per_level;
        first as u32..(first + self.pow[self.tree.n() as usize - 1]) as u32
    }

    /// Id of the level-`l` switch (`l < n`) on node `x`'s side of the
    /// tree whose up digits encode as `ups`: its fixed index is `x / k^l`.
    #[inline]
    fn switch_id(&self, l: u32, x: usize, ups: usize) -> usize {
        let l = l as usize;
        (l - 1) * self.per_level + x / self.pow[l] * self.pow[l - 1] + ups
    }

    /// Up channel of non-root switch `s` through up-port `u`; its reverse
    /// (`+1`) is the down channel of the same link.
    #[inline]
    fn up_channel(&self, s: usize, u: u32) -> ChannelId {
        ChannelId((self.fabric + 2 * (s * self.pow[1] + u as usize)) as u32)
    }

    /// The deterministic up-port digit used when ascending from level `l`
    /// (1-based) toward a path shaped by node `shape` (the destination for
    /// node-to-node routes).
    ///
    /// The ascent reads the label's *trailing* digits (`p_n` first), in the
    /// spirit of Lin's multiple-LID / d-mod-k schemes: labels that share a
    /// long prefix (and therefore must share descent digits) still fan out
    /// across different ancestors, which keeps root load balanced even when
    /// the destination distribution is skewed toward one subtree. Trailing
    /// digits all have radix `m/2`, so the value is always a valid up-port.
    /// The mirror policy reads `p_{n−l}` instead, folded into `m/2`.
    #[inline]
    fn up_digit(&self, shape: usize, l: u32, policy: AscentPolicy) -> u32 {
        let digit = match policy {
            AscentPolicy::TrailingDigits => shape / self.pow[l as usize - 1],
            AscentPolicy::MirrorDescent => shape / self.pow[l as usize],
        };
        (digit % self.pow[1]) as u32
    }

    /// Pushes the ascent from `src`'s leaf switch up to level `top`, the
    /// up-port at level `l` being `digit(l)`; returns the up index reached.
    #[inline]
    fn ascend(
        &self,
        src: usize,
        top: u32,
        digit: impl Fn(u32) -> u32,
        out: &mut Vec<ChannelId>,
    ) -> usize {
        let mut ups = 0;
        for l in 1..top {
            let u = digit(l);
            out.push(self.up_channel(self.switch_id(l, src, ups), u));
            ups = ups * self.pow[1] + u as usize;
        }
        ups
    }

    /// Pushes the descent from the level-`top` switch with up index `ups`
    /// down to node `dst`: each hop drops the last up digit and fixes the
    /// next of `dst`'s digits, then the ejection channel.
    #[inline]
    fn descend(&self, dst: usize, top: u32, mut ups: usize, out: &mut Vec<ChannelId>) {
        let k = self.pow[1];
        for l in (1..top).rev() {
            let u = (ups % k) as u32;
            ups /= k;
            out.push(self.reverse(self.up_channel(self.switch_id(l, dst, ups), u)));
        }
        out.push(ChannelId(2 * dst as u32 + 1));
    }

    /// Depth-first ascent of the avoiding router: from the level-`l`
    /// switch with up index `ups` (its channels already in `out`), try
    /// every healthy up-port — preferred digit first — until either the
    /// target level is reached (then descend, for node-to-node routes) or
    /// all options are exhausted. Leaves `out` exactly as found when
    /// returning `false`.
    fn search_avoiding(
        &self,
        l: u32,
        ups: usize,
        ctx: &AvoidCtx<'_>,
        out: &mut Vec<ChannelId>,
    ) -> bool {
        if l == ctx.target {
            return match ctx.dst {
                Some(dst) => self.descend_avoiding(ups, dst, ctx, out),
                None => true, // to-root route: any root will do
            };
        }
        let k = self.tree.k();
        let s = self.switch_id(l, ctx.src, ups);
        let preferred = self.up_digit(ctx.shape, l, ctx.policy);
        let order = std::iter::once(preferred).chain((0..k).filter(|&u| u != preferred));
        for u in order {
            let ch = self.up_channel(s, u);
            if ctx.faults.is_failed(ch) {
                continue;
            }
            out.push(ch);
            if self.search_avoiding(l + 1, ups * k as usize + u as usize, ctx, out) {
                return true;
            }
            out.pop();
        }
        false
    }

    /// The fixed descent of the avoiding router: from the turn switch at
    /// `ctx.target` (up index `ups`) down to node `dst` following the
    /// destination digits. Fails (restoring `out`) when any descent channel
    /// is down — the caller then backtracks to a different turn switch.
    fn descend_avoiding(
        &self,
        ups: usize,
        dst: usize,
        ctx: &AvoidCtx<'_>,
        out: &mut Vec<ChannelId>,
    ) -> bool {
        let mark = out.len();
        // The caller pre-checked the ejection channel (it has no
        // alternative), so only a fabric hop can fail here.
        self.descend(dst, ctx.target, ups, out);
        if out[mark..].iter().any(|&ch| ctx.faults.is_failed(ch)) {
            out.truncate(mark);
            return false;
        }
        true
    }

    /// Structural self-check: channel count, port budgets, reverse pairing.
    /// Cheap enough to run in tests on every topology used.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let bad = |what: String| TopologyError::BadGraphStructure { what };
        let n = self.tree.n() as usize;
        let nodes = self.tree.num_nodes();
        let expect = 2 * n * nodes;
        if self.num_channels() != expect {
            return Err(bad(format!(
                "channel count {} != 2nN = {expect}",
                self.num_channels()
            )));
        }
        // Reverse pairing: reverse(reverse(c)) == c, endpoints mirrored.
        for i in 0..self.channels.len() {
            let id = ChannelId(i as u32);
            let rev = self.reverse(id);
            let a = self.channel(id);
            let b = self.channel(rev);
            if a.from != b.to || a.to != b.from {
                return Err(bad(format!("channel {i} and its reverse are not mirrored")));
            }
        }
        // Per-switch port budget: down + up degree <= m (root: == m down).
        let switches = self.tree.num_switches();
        let mut down = vec![0u32; switches];
        let mut up = vec![0u32; switches];
        for ch in &self.channels {
            if let (Endpoint::Switch(s), Endpoint::Switch(t)) = (ch.from, ch.to) {
                if self.switch_level(s) < self.switch_level(t) {
                    up[s as usize] += 1;
                } else {
                    down[s as usize] += 1;
                }
            } else if let (Endpoint::Switch(s), Endpoint::Node(_)) = (ch.from, ch.to) {
                down[s as usize] += 1;
            }
        }
        for i in 0..switches {
            let level = self.switch_level(i as u32);
            let is_root = level == self.tree.n();
            // Roots use all m ports downward; in a single-level tree the
            // sole switch is both root and leaf, also with m node ports.
            let expect_down = if is_root {
                self.tree.m()
            } else {
                self.tree.k()
            };
            let expect_up = if is_root { 0 } else { self.tree.k() };
            if down[i] != expect_down || up[i] != expect_up {
                return Err(bad(format!(
                    "switch {i} (level {level}) has {} down / {} up ports, expected {} / {}",
                    down[i], up[i], expect_down, expect_up
                )));
            }
        }
        Ok(())
    }
}

/// The tree backend: deterministic Up*/Down* routes, their adaptive and
/// fault-avoiding forms, and the leaf-switch route classes. Every route
/// clears `out` first and reuses its capacity, which is what keeps
/// route-table interning and per-message adaptive routing off the
/// allocator.
impl Topology for Graph {
    fn backend_name(&self) -> &'static str {
        "tree"
    }

    fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    fn num_channels(&self) -> usize {
        self.num_channels()
    }

    fn channel(&self, id: ChannelId) -> &ChannelDesc {
        self.channel(id)
    }

    fn validate(&self) -> Result<(), TopologyError> {
        self.validate()
    }

    /// Deterministic Up*/Down* route between two distinct nodes: `h`
    /// up-links to the NCA (up-ports chosen from the destination address),
    /// then `h` down-links following the destination digits. Returns the
    /// NCA level `h`; the route is empty when `src == dst`.
    fn route_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        out.clear();
        let h = self.tree.nca_level(src, dst)?;
        if h == 0 {
            return Ok(0);
        }
        out.push(ChannelId(2 * src as u32));
        let ups = self.ascend(src, h, |l| self.up_digit(dst, l, policy), out);
        self.descend(dst, h, ups, out);
        debug_assert_eq!(out.len(), 2 * h as usize);
        Ok(h)
    }

    /// The **route tail** of `src → dst`: the route minus its injection
    /// channel (`2h − 1` channels; empty when `src == dst`).
    ///
    /// The tail is a pure function of `src`'s *leaf switch* and `dst`
    /// ([`crate::MPortNTree::intra_route_class`]): the ascent digits are read
    /// from the destination label and the walk starts at `leaf(src)`, so
    /// every `src` under one leaf produces the identical tail. This is the
    /// primitive class-keyed route interning materializes once per class —
    /// per-pair state is reduced to the injection channel, which the caller
    /// reconstructs arithmetically.
    fn route_tail_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        out.clear();
        let h = self.tree.nca_level(src, dst)?;
        if h == 0 {
            return Ok(0);
        }
        let ups = self.ascend(src, h, |l| self.up_digit(dst, l, policy), out);
        self.descend(dst, h, ups, out);
        debug_assert_eq!(out.len(), 2 * h as usize - 1);
        Ok(h)
    }

    /// Route from a node up to its deterministic exit root (used by
    /// inter-cluster messages leaving through an ECN1 tree): `n` links.
    ///
    /// The root choice is a function of the *source* address, spreading the
    /// exit traffic of different nodes across the `(m/2)^{n−1}` roots.
    fn route_exit_into(
        &self,
        src: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        out.clear();
        let n = self.tree.n();
        let src = self.tree.check_node(src)?;
        out.push(ChannelId(2 * src as u32));
        self.ascend(src, n, |l| self.up_digit(src, l, policy), out);
        Ok(n)
    }

    /// Route from the deterministic entry root down to a node (used by
    /// inter-cluster messages entering through an ECN1 tree): the exit
    /// route of `dst`, produced in place and then reversed channel by
    /// channel, `n` links.
    fn route_entry_into(
        &self,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        let nca_level = self.route_exit_into(dst, policy, out)?;
        out.reverse();
        for c in out.iter_mut() {
            *c = self.reverse(*c);
        }
        Ok(nca_level)
    }

    /// Adaptive Up*/Down* route: like [`Topology::route_into`] but the
    /// ascent up-ports are taken from `digits` (one digit in `0..m/2` per
    /// ascent hop, `h−1` of them at most), as supplied by the caller —
    /// typically sampled uniformly per message, which models the oblivious
    /// flavour of adaptive wormhole routing (paper ref \[7\]) without
    /// making this crate depend on an RNG.
    ///
    /// Missing digits fall back to the deterministic policy; excess digits
    /// are ignored. Descent is fixed by the destination as always.
    fn route_adaptive_into(
        &self,
        src: usize,
        dst: usize,
        digits: &[u32],
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        out.clear();
        let h = self.tree.nca_level(src, dst)?;
        if h == 0 {
            return Ok(0);
        }
        out.push(ChannelId(2 * src as u32));
        let digit = |l: u32| match digits.get((l - 1) as usize) {
            Some(&d) => d % self.tree.k(),
            None => self.up_digit(dst, l, AscentPolicy::TrailingDigits),
        };
        let ups = self.ascend(src, h, digit, out);
        self.descend(dst, h, ups, out);
        Ok(h)
    }

    /// Adaptive exit route: ascent digits supplied by the caller (missing
    /// ones fall back to the deterministic policy).
    fn route_exit_adaptive_into(
        &self,
        src: usize,
        digits: &[u32],
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        out.clear();
        let n = self.tree.n();
        let src = self.tree.check_node(src)?;
        out.push(ChannelId(2 * src as u32));
        let digit = |l: u32| match digits.get((l - 1) as usize) {
            Some(&d) => d % self.tree.k(),
            None => self.up_digit(src, l, AscentPolicy::TrailingDigits),
        };
        self.ascend(src, n, digit, out);
        Ok(n)
    }

    /// Routes `src → dst` avoiding every channel in `faults`.
    ///
    /// With an empty fault set this delegates to the deterministic router,
    /// so the produced route is *byte-identical* to [`Topology::route_into`]
    /// and the fast path pays nothing. Otherwise a deterministic
    /// depth-first search explores every alternate ascent — the
    /// policy-preferred up-port first, then the remaining digits in
    /// ascending order — covering all `(m/2)^{h−1}` NCA candidates at level
    /// `h`. That search is *complete* for Up*/Down* in this label algebra:
    /// a turn above the NCA would descend back through the very switches
    /// (and tandem-failing links) the ascent used, so it can never rescue a
    /// pair with no fault-free level-`h` turn. Returns the NCA level, or
    /// [`TopologyError::Disconnected`] when no fault-free Up*/Down* path
    /// exists (`out` is left empty in that case).
    fn route_into_avoiding(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        if faults.is_empty() {
            return self.route_into(src, dst, policy, out);
        }
        out.clear();
        let h = self.tree.nca_level(src, dst)?;
        if h == 0 {
            return Ok(0);
        }
        let disconnected = TopologyError::Disconnected {
            src,
            dst: Some(dst),
        };
        let inj = ChannelId(2 * src as u32);
        let ej = ChannelId(2 * dst as u32 + 1);
        // Injection and ejection channels have no alternative: if either is
        // down the pair is disconnected regardless of the switch fabric.
        if faults.is_failed(inj) || faults.is_failed(ej) {
            return Err(disconnected);
        }
        let ctx = AvoidCtx {
            src,
            shape: dst,
            policy,
            faults,
            target: h,
            dst: Some(dst),
        };
        out.push(inj);
        if self.search_avoiding(1, 0, &ctx, out) {
            debug_assert_eq!(out.len(), 2 * h as usize);
            Ok(h)
        } else {
            out.clear();
            Err(disconnected)
        }
    }

    /// The avoiding route minus its injection channel — and, deliberately,
    /// minus the injection-failed pre-check. The tail is shared by every
    /// node under the leaf, whereas an injection fault kills exactly one of
    /// them, so the caller applies the injection check per pair (demoting
    /// single pairs, not the whole class). The ejection pre-check stays: it
    /// is part of the shared tail. Byte-identical to
    /// [`Topology::route_into_avoiding`]`[1..]` whenever that route exists
    /// and its injection channel is healthy.
    fn route_tail_into_avoiding(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        if faults.is_empty() {
            return self.route_tail_into(src, dst, policy, out);
        }
        out.clear();
        let h = self.tree.nca_level(src, dst)?;
        if h == 0 {
            return Ok(0);
        }
        let disconnected = TopologyError::Disconnected {
            src,
            dst: Some(dst),
        };
        if faults.is_failed(ChannelId(2 * dst as u32 + 1)) {
            return Err(disconnected);
        }
        let ctx = AvoidCtx {
            src,
            shape: dst,
            policy,
            faults,
            target: h,
            dst: Some(dst),
        };
        if self.search_avoiding(1, 0, &ctx, out) {
            debug_assert_eq!(out.len(), 2 * h as usize - 1);
            Ok(h)
        } else {
            out.clear();
            Err(disconnected)
        }
    }

    /// Ascends from `src` to *any* root avoiding failed channels,
    /// preferring the deterministic exit root's up-ports at every level.
    /// Delegates to the deterministic router when `faults` is empty
    /// (byte-identical route); returns [`TopologyError::Disconnected`] with
    /// `dst: None` when every ascent is cut.
    fn route_exit_into_avoiding(
        &self,
        src: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        if faults.is_empty() {
            return self.route_exit_into(src, policy, out);
        }
        out.clear();
        let n = self.tree.n();
        let src = self.tree.check_node(src)?;
        let inj = ChannelId(2 * src as u32);
        if faults.is_failed(inj) {
            return Err(TopologyError::Disconnected { src, dst: None });
        }
        let ctx = AvoidCtx {
            src,
            shape: src,
            policy,
            faults,
            target: n,
            dst: None,
        };
        out.push(inj);
        if self.search_avoiding(1, 0, &ctx, out) {
            Ok(n)
        } else {
            out.clear();
            Err(TopologyError::Disconnected { src, dst: None })
        }
    }

    /// The avoiding ascent toward `dst`'s entry root, reversed channel by
    /// channel. Because both directions of a link fail in tandem, a
    /// fault-free ascent reversed is a fault-free descent. The
    /// `Disconnected` error reports `dst` as its source node (the ascent it
    /// mirrors).
    fn route_entry_into_avoiding(
        &self,
        dst: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        let nca_level = self.route_exit_into_avoiding(dst, policy, faults, out)?;
        out.reverse();
        for c in out.iter_mut() {
            *c = self.reverse(*c);
        }
        Ok(nca_level)
    }

    fn num_route_classes(&self) -> usize {
        self.tree.num_leaf_switches()
    }

    fn route_class_of(&self, node: usize) -> Result<usize, TopologyError> {
        self.tree.leaf_index_of(node)
    }

    fn class_member_of(&self, node: usize) -> Result<usize, TopologyError> {
        self.tree.leaf_member_of(node)
    }

    fn class_first_node(&self, class: usize) -> usize {
        self.tree.node_under_leaf(class, 0)
    }

    fn max_class_members(&self) -> usize {
        if self.tree.n() == 1 {
            self.tree.num_nodes()
        } else {
            self.tree.k() as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{RouteMode, RouteQuery};

    fn graph(m: u32, n: u32) -> Graph {
        Graph::build(MPortNTree::new(m, n).unwrap())
    }

    /// The deterministic default-policy route `src → dst` and its NCA level.
    fn route(g: &Graph, src: usize, dst: usize) -> (Vec<ChannelId>, u32) {
        let mut out = Vec::new();
        let h = g
            .route_into(src, dst, AscentPolicy::default(), &mut out)
            .unwrap();
        (out, h)
    }

    /// The adaptive route `src → dst` shaped by `digits`, and its NCA level.
    fn adaptive(g: &Graph, src: usize, dst: usize, digits: &[u32]) -> (Vec<ChannelId>, u32) {
        let q = RouteQuery {
            src,
            dst,
            policy: AscentPolicy::default(),
            faults: None,
            mode: RouteMode::Adaptive { digits },
        };
        let mut out = Vec::new();
        let h = g.route_query(&q, &mut out).unwrap();
        (out, h)
    }

    /// The deterministic default-policy exit route of `src`, up to a root.
    fn exit(g: &Graph, src: usize) -> Vec<ChannelId> {
        let mut out = Vec::new();
        g.route_exit_into(src, AscentPolicy::default(), &mut out)
            .unwrap();
        out
    }

    /// The deterministic default-policy entry route of `dst`, down from a
    /// root.
    fn entry(g: &Graph, dst: usize) -> Vec<ChannelId> {
        let mut out = Vec::new();
        g.route_entry_into(dst, AscentPolicy::default(), &mut out)
            .unwrap();
        out
    }

    #[test]
    fn structure_validates_for_paper_trees() {
        for (m, n) in [(4, 1), (4, 2), (4, 3), (4, 4), (8, 1), (8, 2), (8, 3)] {
            let g = graph(m, n);
            g.validate().unwrap_or_else(|e| panic!("m={m} n={n}: {e}"));
        }
    }

    #[test]
    fn channel_count_is_2nn() {
        let g = graph(8, 2);
        assert_eq!(g.num_channels(), 2 * 2 * 32);
    }

    #[test]
    fn route_length_is_twice_nca_level() {
        let g = graph(4, 3);
        let t = g.tree();
        for src in 0..t.num_nodes() {
            for dst in 0..t.num_nodes() {
                let (r, level) = route(&g, src, dst);
                let h = t.nca_level(src, dst).unwrap();
                assert_eq!(r.len(), 2 * h as usize, "{src}->{dst}");
                assert_eq!(level, h);
            }
        }
    }

    #[test]
    fn route_is_connected_and_valley_free() {
        // Channels must chain (to == next.from), start at src, end at dst,
        // and switch levels must rise to the NCA then fall (Up*/Down*).
        let g = graph(8, 3);
        let t = *g.tree();
        let n = t.num_nodes();
        for (src, dst) in [(0, n - 1), (3, 77), (100, 5), (1, 0), (42, 43)] {
            let (r, nca_level) = route(&g, src, dst);
            let first = g.channel(r[0]);
            assert_eq!(first.from, Endpoint::Node(src as u32));
            let last = g.channel(*r.last().unwrap());
            assert_eq!(last.to, Endpoint::Node(dst as u32));
            let mut levels = Vec::new();
            for w in r.windows(2) {
                let a = g.channel(w[0]);
                let b = g.channel(w[1]);
                assert_eq!(a.to, b.from, "path must chain");
                if let Endpoint::Switch(s) = a.to {
                    levels.push(g.switch_level(s));
                }
            }
            // Valley-free: strictly increasing then strictly decreasing.
            let peak = levels.iter().position(|&l| l == nca_level).unwrap();
            assert!(levels[..peak].windows(2).all(|w| w[1] == w[0] + 1));
            assert!(levels[peak..].windows(2).all(|w| w[1] == w[0] - 1));
        }
    }

    #[test]
    fn route_same_node_is_empty() {
        let g = graph(4, 2);
        let (r, h) = route(&g, 3, 3);
        assert!(r.is_empty());
        assert_eq!(h, 0);
    }

    #[test]
    fn route_deterministic() {
        let g = graph(8, 2);
        assert_eq!(route(&g, 1, 20), route(&g, 1, 20));
    }

    #[test]
    fn route_to_root_has_n_links_and_ends_at_root() {
        let g = graph(4, 3);
        for src in 0..g.tree().num_nodes() {
            let r = exit(&g, src);
            assert_eq!(r.len(), 3);
            let last = g.channel(*r.last().unwrap());
            if let Endpoint::Switch(s) = last.to {
                assert_eq!(g.switch_level(s), 3, "must end at a root");
            } else {
                panic!("route_to_root must end at a switch");
            }
        }
    }

    #[test]
    fn route_from_root_mirrors_route_to_root() {
        let g = graph(4, 2);
        for dst in 0..g.tree().num_nodes() {
            let up = exit(&g, dst);
            let down = entry(&g, dst);
            assert_eq!(down.len(), up.len());
            let first = g.channel(down[0]);
            if let Endpoint::Switch(s) = first.from {
                assert_eq!(g.switch_level(s), 2);
            } else {
                panic!("route_from_root must start at a switch");
            }
            let last = g.channel(*down.last().unwrap());
            assert_eq!(last.to, Endpoint::Node(dst as u32));
        }
    }

    #[test]
    fn exit_roots_spread_across_sources() {
        // With k^(n-1) = 4 roots and 32 nodes, the per-source deterministic
        // exit root must hit more than one distinct root.
        let g = graph(8, 2);
        let mut seen = std::collections::HashSet::new();
        for src in 0..g.tree().num_nodes() {
            let r = exit(&g, src);
            if let Endpoint::Switch(s) = g.channel(*r.last().unwrap()).to {
                seen.insert(s);
            }
        }
        assert_eq!(seen.len(), g.roots().len(), "all roots should be used");
    }

    #[test]
    fn reverse_is_involutive_and_mirrored() {
        let g = graph(4, 2);
        for i in 0..g.num_channels() {
            let id = ChannelId(i as u32);
            assert_eq!(g.reverse(g.reverse(id)), id);
            let a = g.channel(id);
            let b = g.channel(g.reverse(id));
            assert_eq!(a.from, b.to);
            assert_eq!(a.to, b.from);
        }
    }

    #[test]
    fn adaptive_routes_are_valid_for_any_digits() {
        let g = graph(8, 3);
        let t = *g.tree();
        for (src, dst) in [(0usize, 127usize), (5, 9), (64, 1)] {
            let h = t.nca_level(src, dst).unwrap();
            // Every combination of up digits yields a valid chained route
            // of the same length ending at the destination.
            for digits in [[0u32, 0], [3, 1], [2, 3], [1, 2]] {
                let (r, _) = adaptive(&g, src, dst, &digits);
                assert_eq!(r.len(), 2 * h as usize);
                for w in r.windows(2) {
                    assert_eq!(g.channel(w[0]).to, g.channel(w[1]).from);
                }
                assert_eq!(g.channel(*r.last().unwrap()).to, Endpoint::Node(dst as u32));
            }
        }
    }

    #[test]
    fn adaptive_with_no_digits_matches_deterministic() {
        let g = graph(4, 3);
        for (src, dst) in [(0usize, 15usize), (3, 12), (7, 8)] {
            assert_eq!(route(&g, src, dst), adaptive(&g, src, dst, &[]));
        }
    }

    #[test]
    fn adaptive_digits_select_distinct_ncas() {
        // Different up digits must reach different root switches for a
        // maximal-distance pair.
        let g = graph(8, 2);
        let mut roots = std::collections::HashSet::new();
        for u in 0..4u32 {
            let (r, _) = adaptive(&g, 0, 31, &[u]);
            // The NCA is the endpoint of the last ascent channel.
            let nca = g.channel(r[1]).to;
            roots.insert(format!("{nca:?}"));
        }
        assert_eq!(roots.len(), 4);
    }

    #[test]
    fn into_variants_match_allocating_routes() {
        // The `_into` forms exist so hot paths can reuse one buffer: into a
        // buffer that last held a longer route they must emit exactly what
        // they emit into a freshly allocated one.
        let g = graph(8, 3);
        let policy = AscentPolicy::default();
        let mut buf = Vec::new();
        let mut check = |form: &dyn Fn(&mut Vec<ChannelId>) -> Result<u32, TopologyError>| {
            let mut fresh = Vec::new();
            let h = form(&mut fresh).unwrap();
            assert_eq!(form(&mut buf).unwrap(), h);
            assert_eq!(buf, fresh);
        };
        for (src, dst) in [(0usize, 127usize), (5, 9), (64, 1), (3, 3)] {
            check(&|out| g.route_into(src, dst, policy, out));
            check(&|out| g.route_tail_into(src, dst, policy, out));
            check(&|out| g.route_adaptive_into(src, dst, &[3, 1], out));
        }
        for src in [0usize, 31, 77] {
            check(&|out| g.route_exit_into(src, policy, out));
            check(&|out| g.route_entry_into(src, policy, out));
            check(&|out| g.route_exit_adaptive_into(src, &[1, 2], out));
        }
    }

    /// Every channel of `route` is healthy, the path chains, and it runs
    /// from `src` to `dst` with a single ascent followed by a single
    /// descent (valid Up*/Down* shape).
    fn assert_valid_avoiding_route(
        g: &Graph,
        src: usize,
        dst: usize,
        route: &[ChannelId],
        faults: &FaultSet,
    ) {
        assert!(!route.is_empty());
        for &c in route {
            assert!(!faults.is_failed(c), "route traverses failed {c:?}");
        }
        assert_eq!(g.channel(route[0]).from, Endpoint::Node(src as u32));
        assert_eq!(
            g.channel(*route.last().unwrap()).to,
            Endpoint::Node(dst as u32)
        );
        let mut levels = Vec::new();
        for w in route.windows(2) {
            assert_eq!(g.channel(w[0]).to, g.channel(w[1]).from, "path must chain");
            if let Endpoint::Switch(s) = g.channel(w[0]).to {
                levels.push(g.switch_level(s));
            }
        }
        let peak = levels.iter().position(|&l| Some(&l) == levels.iter().max());
        let peak = peak.unwrap_or(0);
        assert!(
            levels[..peak].windows(2).all(|w| w[1] == w[0] + 1),
            "ascent must be strict: {levels:?}"
        );
        assert!(
            levels[peak..].windows(2).all(|w| w[1] == w[0] - 1),
            "descent must be strict: {levels:?}"
        );
    }

    #[test]
    fn avoiding_with_empty_faults_is_byte_identical() {
        let g = graph(4, 3);
        let none = FaultSet::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for policy in [AscentPolicy::TrailingDigits, AscentPolicy::MirrorDescent] {
            for src in 0..g.tree().num_nodes() {
                for dst in 0..g.tree().num_nodes() {
                    let h1 = g.route_into(src, dst, policy, &mut a).unwrap();
                    let h2 = g
                        .route_into_avoiding(src, dst, policy, &none, &mut b)
                        .unwrap();
                    assert_eq!(h1, h2);
                    assert_eq!(a, b, "{src}->{dst}");
                }
                let h1 = g.route_exit_into(src, policy, &mut a).unwrap();
                let h2 = g
                    .route_exit_into_avoiding(src, policy, &none, &mut b)
                    .unwrap();
                assert_eq!((h1, &a), (h2, &b));
                g.route_entry_into(src, policy, &mut a).unwrap();
                g.route_entry_into_avoiding(src, policy, &none, &mut b)
                    .unwrap();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn route_tail_is_class_invariant() {
        // The tail (route minus injection) must equal route_into[1..] for
        // every pair, and must be identical across all srcs under one leaf
        // switch — the invariant class-keyed interning builds on.
        for (m, n) in [(4u32, 1u32), (4, 2), (4, 3), (8, 2)] {
            let g = graph(m, n);
            let t = *g.tree();
            for policy in [AscentPolicy::TrailingDigits, AscentPolicy::MirrorDescent] {
                let mut full = Vec::new();
                let mut tail = Vec::new();
                let mut rep_tail = Vec::new();
                for src in 0..t.num_nodes() {
                    for dst in 0..t.num_nodes() {
                        let h1 = g.route_into(src, dst, policy, &mut full).unwrap();
                        let h2 = g.route_tail_into(src, dst, policy, &mut tail).unwrap();
                        assert_eq!(h1, h2, "m={m} n={n} {src}->{dst}");
                        assert_eq!(&full[!full.is_empty() as usize..], &tail[..]);
                        if src == dst {
                            continue;
                        }
                        // Any other member of src's leaf shares the tail.
                        let leaf = t.leaf_index_of(src).unwrap();
                        if let Some(rep) = (0..t.num_nodes())
                            .find(|&s| s != src && s != dst && t.leaf_index_of(s).unwrap() == leaf)
                        {
                            g.route_tail_into(rep, dst, policy, &mut rep_tail).unwrap();
                            assert_eq!(tail, rep_tail, "m={m} n={n} leaf={leaf} dst={dst}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn route_tail_avoiding_ignores_injection_faults_only() {
        let g = graph(4, 3);
        let t = *g.tree();
        let (src, dst) = (0usize, 15usize);
        let (base, base_h) = route(&g, src, dst);
        let mut tail = Vec::new();
        let mut full = Vec::new();
        // A failed trunk link reroutes the tail exactly like the full route.
        let mut faults = FaultSet::new();
        faults.fail_link(base[1]);
        let h = g
            .route_into_avoiding(src, dst, AscentPolicy::default(), &faults, &mut full)
            .unwrap();
        let ht = g
            .route_tail_into_avoiding(src, dst, AscentPolicy::default(), &faults, &mut tail)
            .unwrap();
        assert_eq!((h, &full[1..]), (ht, &tail[..]));
        // A failed *injection* channel disconnects the pair but not the
        // class: the tail is still produced, unchanged, so only the one
        // member with the dead injection link is demoted.
        let mut inj_fault = FaultSet::new();
        inj_fault.fail_link(base[0]);
        assert!(g
            .route_into_avoiding(src, dst, AscentPolicy::default(), &inj_fault, &mut full)
            .is_err());
        let ht = g
            .route_tail_into_avoiding(src, dst, AscentPolicy::default(), &inj_fault, &mut tail)
            .unwrap();
        assert_eq!((ht, &tail[..]), (base_h, &base[1..]));
        // A failed ejection channel kills the whole class.
        let mut ej_fault = FaultSet::new();
        ej_fault.fail_link(*base.last().unwrap());
        for s in 0..t.num_nodes() {
            if t.leaf_index_of(s).unwrap() == t.leaf_index_of(src).unwrap() && s != dst {
                assert!(g
                    .route_tail_into_avoiding(s, dst, AscentPolicy::default(), &ej_fault, &mut tail)
                    .is_err());
            }
        }
    }

    #[test]
    fn avoiding_reroutes_around_failed_ascent_link() {
        let g = graph(8, 2);
        let (src, dst) = (0usize, 31usize);
        let (base, base_h) = route(&g, src, dst);
        assert_eq!(base_h, 2);
        let mut faults = FaultSet::new();
        faults.fail_link(base[1]); // the preferred first up-link
        let mut out = Vec::new();
        let h = g
            .route_into_avoiding(src, dst, AscentPolicy::default(), &faults, &mut out)
            .unwrap();
        assert_eq!(h, 2, "an alternate level-2 ascent must exist");
        assert_ne!(out, base);
        assert_valid_avoiding_route(&g, src, dst, &out, &faults);
    }

    #[test]
    fn avoiding_search_over_nca_candidates_is_complete() {
        // Pick a pair with NCA level 2 in a 3-level tree and cut the
        // ascent to one level-2 candidate plus the descent from the other.
        // A turn at level 3 would descend back through the ascent's own
        // tandem-failing links, so no Up*/Down* path survives: the pair is
        // Disconnected — while cutting only one side still reroutes.
        let g = graph(4, 3);
        let t = *g.tree();
        let (src, dst) = (0..t.num_nodes())
            .flat_map(|s| (0..t.num_nodes()).map(move |d| (s, d)))
            .find(|&(s, d)| t.nca_level(s, d).unwrap() == 2)
            .unwrap();
        let (via_a, _) = route(&g, src, dst);
        let via_b = (0..t.k())
            .map(|u| adaptive(&g, src, dst, &[u]).0)
            .find(|r| r[1] != via_a[1])
            .expect("k=2 gives a second ascent");
        let mut out = Vec::new();
        let mut faults = FaultSet::new();
        faults.fail_link(via_a[1]); // ascent into NCA A
        let h = g
            .route_into_avoiding(src, dst, AscentPolicy::default(), &faults, &mut out)
            .unwrap();
        assert_eq!(h, 2, "one cut ascent still leaves NCA B");
        assert_valid_avoiding_route(&g, src, dst, &out, &faults);
        faults.fail_link(via_b[2]); // descent out of NCA B
        let err = g
            .route_into_avoiding(src, dst, AscentPolicy::default(), &faults, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::Disconnected {
                src,
                dst: Some(dst)
            }
        );
    }

    #[test]
    fn avoiding_reports_disconnected_when_injection_or_ejection_cut() {
        let g = graph(4, 2);
        let (src, dst) = (0usize, 7usize);
        let (base, _) = route(&g, src, dst);
        let mut out = Vec::new();
        for cut in [base[0], *base.last().unwrap()] {
            let mut faults = FaultSet::new();
            faults.fail_link(cut);
            let err = g
                .route_into_avoiding(src, dst, AscentPolicy::default(), &faults, &mut out)
                .unwrap_err();
            assert_eq!(
                err,
                TopologyError::Disconnected {
                    src,
                    dst: Some(dst)
                }
            );
            assert!(out.is_empty(), "failed search must leave the buffer empty");
        }
    }

    #[test]
    fn fail_switch_disconnects_routes_through_it() {
        let g = graph(4, 2);
        // Kill the leaf switch of node 0: nodes 0/1 become unreachable,
        // pairs avoiding that switch still route.
        let leaf = match g.channel(route(&g, 0, 7).0[0]).to {
            Endpoint::Switch(s) => s,
            _ => unreachable!(),
        };
        let mut faults = FaultSet::new();
        faults.fail_switch(&g, leaf);
        let mut out = Vec::new();
        let err = g
            .route_into_avoiding(0, 7, AscentPolicy::default(), &faults, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::Disconnected {
                src: 0,
                dst: Some(7)
            }
        );
        let h = g
            .route_into_avoiding(4, 7, AscentPolicy::default(), &faults, &mut out)
            .unwrap();
        assert!(h > 0);
        assert_valid_avoiding_route(&g, 4, 7, &out, &faults);
    }

    #[test]
    fn avoiding_to_root_reroutes_and_disconnects() {
        let g = graph(8, 2);
        let base = exit(&g, 0);
        let mut faults = FaultSet::new();
        faults.fail_link(base[1]);
        let mut out = Vec::new();
        let n = g
            .route_exit_into_avoiding(0, AscentPolicy::default(), &faults, &mut out)
            .unwrap();
        assert_eq!(n, 2);
        assert_ne!(out, base);
        for &c in &out {
            assert!(!faults.is_failed(c));
        }
        match g.channel(*out.last().unwrap()).to {
            Endpoint::Switch(s) => assert_eq!(g.switch_level(s), 2),
            _ => panic!("must end at a root"),
        }
        // Mirrored entry route also avoids the faults.
        g.route_entry_into_avoiding(0, AscentPolicy::default(), &faults, &mut out)
            .unwrap();
        for &c in &out {
            assert!(!faults.is_failed(c));
        }
        assert_eq!(g.channel(*out.last().unwrap()).to, Endpoint::Node(0));
        // Cutting every up-link of the leaf switch strands the node.
        let leaf = match g.channel(base[0]).to {
            Endpoint::Switch(s) => s,
            _ => unreachable!(),
        };
        for i in 0..g.num_channels() {
            let ch = g.channel(ChannelId(i as u32));
            if ch.from == Endpoint::Switch(leaf) && matches!(ch.to, Endpoint::Switch(_)) {
                faults.fail_link(ChannelId(i as u32));
            }
        }
        let err = g
            .route_exit_into_avoiding(0, AscentPolicy::default(), &faults, &mut out)
            .unwrap_err();
        assert_eq!(err, TopologyError::Disconnected { src: 0, dst: None });
    }

    #[test]
    fn avoiding_routes_never_traverse_failed_channels_sweep() {
        // Deterministic "random" faults: fail every 5th link. For every
        // pair the avoiding router must either produce a clean valid
        // Up*/Down* route or report Disconnected — never a dirty route.
        let g = graph(4, 3);
        let mut faults = FaultSet::new();
        for i in (0..g.num_channels()).step_by(10) {
            faults.fail_link(ChannelId(i as u32));
        }
        let mut out = Vec::new();
        let (mut ok, mut cut) = (0usize, 0usize);
        for src in 0..g.tree().num_nodes() {
            for dst in 0..g.tree().num_nodes() {
                if src == dst {
                    continue;
                }
                match g.route_into_avoiding(src, dst, AscentPolicy::default(), &faults, &mut out) {
                    Ok(_) => {
                        ok += 1;
                        assert_valid_avoiding_route(&g, src, dst, &out, &faults);
                    }
                    Err(TopologyError::Disconnected { .. }) => {
                        cut += 1;
                        assert!(out.is_empty());
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        assert!(ok > 0, "some pairs must still route");
        assert!(cut > 0, "failing injection links must strand some pairs");
    }

    #[test]
    fn fault_set_pairs_reverse_channels() {
        let g = graph(4, 2);
        let mut f = FaultSet::new();
        assert!(f.is_empty());
        f.fail_link(ChannelId(6));
        assert!(f.is_failed(ChannelId(6)));
        assert!(f.is_failed(g.reverse(ChannelId(6))));
        assert_eq!(f.len(), 2);
        f.repair_link(ChannelId(7));
        assert!(f.is_empty());
    }

    #[test]
    fn kinds_are_consistent() {
        let g = graph(4, 2);
        for i in 0..g.num_channels() {
            let ch = g.channel(ChannelId(i as u32));
            match (ch.from, ch.to) {
                (Endpoint::Node(_), Endpoint::Switch(_)) => {
                    assert_eq!(ch.kind, ChannelKind::NodeToSwitch)
                }
                (Endpoint::Switch(_), Endpoint::Node(_)) => {
                    assert_eq!(ch.kind, ChannelKind::SwitchToNode)
                }
                (Endpoint::Switch(_), Endpoint::Switch(_)) => {
                    assert_eq!(ch.kind, ChannelKind::SwitchToSwitch)
                }
                _ => panic!("node-to-node channel cannot exist"),
            }
        }
    }
}
