//! The arithmetic tree router against the label router it replaced.
//!
//! [`LabelRouter`] below is the previous `Graph` implementation kept as an
//! oracle: it enumerates Lin's switch labels level by level, wires the
//! channels through two hash maps (label → switch id, endpoint pair →
//! channel id) and routes by walking `Vec`-backed [`SwitchLabel`]s. The
//! tests compare it with [`Graph`] on every channel descriptor and, for
//! every (src, dst) pair of every tree up to [`MAX_NODES`], on every route
//! form: full, tail, exit and entry, deterministic and adaptive (supplied
//! digits as the search's preferred up-ports), fault-free and
//! fault-avoiding under seeded random fault sets (`Disconnected` results
//! included), for both ascent policies. Out-of-range ids must return the
//! same errors.

use cocnet_topology::{
    AscentPolicy, ChannelId, ChannelKind, Endpoint, FaultSet, Graph, MPortNTree, NodeLabel,
    RouteMode, RouteQuery, SwitchLabel, Topology, TopologyError,
};
use std::collections::HashMap;

/// A channel descriptor as plain data: `(from, to, kind)`.
type Desc = (Endpoint, Endpoint, ChannelKind);

/// The label-keyed router: switch labels enumerated level by level, every
/// hop resolved through `switch_index` and `lookup`.
struct LabelRouter {
    tree: MPortNTree,
    switch_labels: Vec<SwitchLabel>,
    switch_index: HashMap<SwitchLabel, u32>,
    channels: Vec<Desc>,
    lookup: HashMap<(Endpoint, Endpoint), ChannelId>,
}

/// Where an ascent's up-ports come from: the supplied digit for a hop
/// where there is one (an adaptive route), else the policy's.
#[derive(Debug, Clone, Copy)]
struct Prefer<'a> {
    policy: AscentPolicy,
    digits: &'a [u32],
}

impl Prefer<'_> {
    /// A deterministic route's preference.
    fn policy(policy: AscentPolicy) -> Self {
        Prefer {
            policy,
            digits: &[],
        }
    }

    /// The mode [`Graph`] takes for the same preference.
    fn mode(&self) -> RouteMode<'_> {
        RouteMode::Adaptive {
            digits: self.digits,
        }
    }
}

/// Shared inputs of the avoiding search (the label router's `AvoidCtx`).
struct AvoidCtx<'a> {
    shape: &'a NodeLabel,
    prefer: Prefer<'a>,
    faults: &'a FaultSet,
    n: u32,
    target: u32,
    dst: Option<u32>,
}

/// Mixed-radix digits of `id`, most significant first: `len − 1` trailing
/// digits of radix `rest`, the leading digit taking what remains.
fn decode(mut id: usize, len: usize, rest: u32) -> Vec<u32> {
    let mut digits = vec![0u32; len];
    for i in (1..len).rev() {
        digits[i] = (id % rest as usize) as u32;
        id /= rest as usize;
    }
    if len > 0 {
        digits[0] = id as u32;
    }
    digits
}

impl LabelRouter {
    fn build(tree: MPortNTree) -> Self {
        let (n, k) = (tree.n(), tree.k());
        let mut switch_labels = Vec::new();
        let mut switch_index = HashMap::new();
        for level in 1..=n {
            let fixed_len = (n - level) as usize;
            let ups_len = (level - 1) as usize;
            let fixed_count = if fixed_len == 0 {
                1
            } else {
                tree.m() as usize * (k as usize).pow(fixed_len as u32 - 1)
            };
            for fi in 0..fixed_count {
                for ui in 0..(k as usize).pow(ups_len as u32) {
                    let label = SwitchLabel {
                        fixed: decode(fi, fixed_len, k),
                        ups: decode(ui, ups_len, k),
                    };
                    switch_index.insert(label.clone(), switch_labels.len() as u32);
                    switch_labels.push(label);
                }
            }
        }
        let mut channels = Vec::new();
        let mut lookup = HashMap::new();
        let mut add_link = |a: Endpoint, b: Endpoint, kind_ab, kind_ba| {
            lookup.insert((a, b), ChannelId(channels.len() as u32));
            channels.push((a, b, kind_ab));
            lookup.insert((b, a), ChannelId(channels.len() as u32));
            channels.push((b, a, kind_ba));
        };
        for node in 0..tree.num_nodes() {
            let leaf = SwitchLabel::leaf_of(&NodeLabel::from_id(node, tree.m(), n));
            add_link(
                Endpoint::Node(node as u32),
                Endpoint::Switch(switch_index[&leaf]),
                ChannelKind::NodeToSwitch,
                ChannelKind::SwitchToNode,
            );
        }
        for (idx, label) in switch_labels.iter().enumerate() {
            if label.fixed.is_empty() {
                continue;
            }
            for u in 0..k {
                let parent = label.parent(u).expect("non-root has a parent");
                add_link(
                    Endpoint::Switch(idx as u32),
                    Endpoint::Switch(switch_index[&parent]),
                    ChannelKind::SwitchToSwitch,
                    ChannelKind::SwitchToSwitch,
                );
            }
        }
        Self {
            tree,
            switch_labels,
            switch_index,
            channels,
            lookup,
        }
    }

    /// The NCA level from the labels: `n` minus their common prefix.
    fn nca_level(&self, a: usize, b: usize) -> Result<u32, TopologyError> {
        let la = self.tree.node_label(a)?;
        let lb = self.tree.node_label(b)?;
        if a == b {
            return Ok(0);
        }
        Ok(self.tree.n() - la.common_prefix_len(&lb) as u32)
    }

    fn sw(&self, label: &SwitchLabel) -> Endpoint {
        Endpoint::Switch(self.switch_index[label])
    }

    fn up_digit(&self, shape: &NodeLabel, l: u32, prefer: Prefer<'_>) -> u32 {
        let n = self.tree.n() as usize;
        match (prefer.digits.get(l as usize - 1), prefer.policy) {
            (Some(&d), _) => d % self.tree.k(),
            (None, AscentPolicy::TrailingDigits) => shape.digits[n - l as usize],
            (None, AscentPolicy::MirrorDescent) => shape.digits[n - l as usize - 1] % self.tree.k(),
        }
    }

    /// The walk every route form shares: optional injection, ascent to
    /// level `top` by `digit`, then (toward a destination) the descent.
    fn walk(
        &self,
        src: usize,
        top: u32,
        inject: bool,
        digit: impl Fn(u32) -> u32,
        dst: Option<(usize, &NodeLabel)>,
        out: &mut Vec<ChannelId>,
    ) {
        let n = self.tree.n();
        let src_label = self.tree.node_label(src).unwrap();
        let mut sw = SwitchLabel::leaf_of(&src_label);
        let mut cur = self.sw(&sw);
        if inject {
            out.push(self.lookup[&(Endpoint::Node(src as u32), cur)]);
        }
        for l in 1..top {
            let parent = sw.parent(digit(l)).unwrap();
            let next = self.sw(&parent);
            out.push(self.lookup[&(cur, next)]);
            (sw, cur) = (parent, next);
        }
        let Some((dst_id, dst)) = dst else { return };
        for l in (1..top).rev() {
            let child = sw.child(dst.digits[(n - l - 1) as usize]).unwrap();
            let next = self.sw(&child);
            out.push(self.lookup[&(cur, next)]);
            (sw, cur) = (child, next);
        }
        out.push(self.lookup[&(cur, Endpoint::Node(dst_id as u32))]);
    }

    fn route(
        &self,
        src: usize,
        dst: usize,
        prefer: Prefer<'_>,
        inject: bool,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        out.clear();
        let h = self.nca_level(src, dst)?;
        if h == 0 {
            return Ok(0);
        }
        let dst_label = self.tree.node_label(dst)?;
        let digit = |l| self.up_digit(&dst_label, l, prefer);
        self.walk(src, h, inject, digit, Some((dst, &dst_label)), out);
        Ok(h)
    }

    fn exit(
        &self,
        src: usize,
        prefer: Prefer<'_>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        out.clear();
        let src_label = self.tree.node_label(src)?;
        let digit = |l| self.up_digit(&src_label, l, prefer);
        self.walk(src, self.tree.n(), true, digit, None, out);
        Ok(self.tree.n())
    }

    fn search_avoiding(
        &self,
        sw: &SwitchLabel,
        cur: Endpoint,
        l: u32,
        ctx: &AvoidCtx<'_>,
        out: &mut Vec<ChannelId>,
    ) -> bool {
        if l == ctx.target {
            return match ctx.dst {
                Some(dst) => self.descend_avoiding(sw, cur, dst, ctx, out),
                None => true,
            };
        }
        let preferred = self.up_digit(ctx.shape, l, ctx.prefer);
        let order =
            std::iter::once(preferred).chain((0..self.tree.k()).filter(|&u| u != preferred));
        for u in order {
            let parent = sw.parent(u).unwrap();
            let next = self.sw(&parent);
            let ch = self.lookup[&(cur, next)];
            if ctx.faults.is_failed(ch) {
                continue;
            }
            out.push(ch);
            if self.search_avoiding(&parent, next, l + 1, ctx, out) {
                return true;
            }
            out.pop();
        }
        false
    }

    fn descend_avoiding(
        &self,
        sw: &SwitchLabel,
        cur: Endpoint,
        dst: u32,
        ctx: &AvoidCtx<'_>,
        out: &mut Vec<ChannelId>,
    ) -> bool {
        let mark = out.len();
        let (mut sw, mut cur) = (sw.clone(), cur);
        for l in (1..ctx.target).rev() {
            let child = sw
                .child(ctx.shape.digits[(ctx.n - l - 1) as usize])
                .unwrap();
            let next = self.sw(&child);
            let ch = self.lookup[&(cur, next)];
            if ctx.faults.is_failed(ch) {
                out.truncate(mark);
                return false;
            }
            out.push(ch);
            (sw, cur) = (child, next);
        }
        out.push(self.lookup[&(cur, Endpoint::Node(dst))]);
        true
    }

    /// `route_into` (`inject`) or `route_tail_into` under a non-empty fault set.
    fn route_avoiding(
        &self,
        src: usize,
        dst: usize,
        prefer: Prefer<'_>,
        faults: &FaultSet,
        inject: bool,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        if faults.is_empty() {
            return self.route(src, dst, prefer, inject, out);
        }
        out.clear();
        let h = self.nca_level(src, dst)?;
        if h == 0 {
            return Ok(0);
        }
        let disconnected = TopologyError::Disconnected {
            src,
            dst: Some(dst),
        };
        let src_label = self.tree.node_label(src)?;
        let dst_label = self.tree.node_label(dst)?;
        let src_leaf = SwitchLabel::leaf_of(&src_label);
        let cur = self.sw(&src_leaf);
        let inj = self.lookup[&(Endpoint::Node(src as u32), cur)];
        let ej = self.lookup[&(
            self.sw(&SwitchLabel::leaf_of(&dst_label)),
            Endpoint::Node(dst as u32),
        )];
        if (inject && faults.is_failed(inj)) || faults.is_failed(ej) {
            return Err(disconnected);
        }
        let ctx = AvoidCtx {
            shape: &dst_label,
            prefer,
            faults,
            n: self.tree.n(),
            target: h,
            dst: Some(dst as u32),
        };
        if inject {
            out.push(inj);
        }
        if self.search_avoiding(&src_leaf, cur, 1, &ctx, out) {
            Ok(h)
        } else {
            out.clear();
            Err(disconnected)
        }
    }

    fn exit_avoiding(
        &self,
        src: usize,
        prefer: Prefer<'_>,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        if faults.is_empty() {
            return self.exit(src, prefer, out);
        }
        out.clear();
        let n = self.tree.n();
        let src_label = self.tree.node_label(src)?;
        let leaf = SwitchLabel::leaf_of(&src_label);
        let cur = self.sw(&leaf);
        let inj = self.lookup[&(Endpoint::Node(src as u32), cur)];
        if faults.is_failed(inj) {
            return Err(TopologyError::Disconnected { src, dst: None });
        }
        let ctx = AvoidCtx {
            shape: &src_label,
            prefer,
            faults,
            n,
            target: n,
            dst: None,
        };
        out.push(inj);
        if self.search_avoiding(&leaf, cur, 1, &ctx, out) {
            Ok(n)
        } else {
            out.clear();
            Err(TopologyError::Disconnected { src, dst: None })
        }
    }
}

/// An entry route: the exit route reversed channel by channel.
fn mirrored(r: Result<u32, TopologyError>, out: &mut [ChannelId]) -> Result<u32, TopologyError> {
    out.reverse();
    for c in out.iter_mut() {
        *c = ChannelId(c.0 ^ 1);
    }
    r
}

/// Largest tree compared pair by pair. An unoptimized build stops at 256
/// nodes, which keeps the debug suite quick; the release build (run by
/// CI's determinism step) covers every shape up to 1024 nodes.
const MAX_NODES: usize = if cfg!(debug_assertions) { 256 } else { 1024 };

/// Every shape under test: m ∈ {2, 4, 6, 8, 16} × n ∈ 1..=4, up to
/// [`MAX_NODES`] nodes.
fn shapes() -> impl Iterator<Item = MPortNTree> {
    [2u32, 4, 6, 8, 16]
        .into_iter()
        .flat_map(|m| (1..=4u32).map(move |n| MPortNTree::new(m, n).unwrap()))
        .filter(|t| t.num_nodes() <= MAX_NODES)
}

const POLICIES: [AscentPolicy; 2] = [AscentPolicy::TrailingDigits, AscentPolicy::MirrorDescent];

/// SplitMix64: the seeded stream behind fault sets and adaptive digits.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws the digits of one adaptive route into `digits`. They run past
/// the radix (reduced mod m/2), and some draws supply fewer than the
/// ascent needs (the policy fills the rest).
fn draw(state: &mut u64, t: MPortNTree, digits: &mut Vec<u32>) {
    let len = splitmix(state) as usize % t.n() as usize;
    digits.clear();
    digits.extend((0..len).map(|_| (splitmix(state) % 64) as u32));
}

/// Asserts that both routers gave the same result and the same channels;
/// `what` names the case (formatted only on failure).
#[track_caller]
fn same(
    what: impl std::fmt::Debug,
    want: (Result<u32, TopologyError>, &[ChannelId]),
    got: (Result<u32, TopologyError>, &[ChannelId]),
) {
    assert_eq!(want.0, got.0, "{what:?}: result");
    assert_eq!(want.1, got.1, "{what:?}: channels");
}

#[test]
fn channel_layout_matches_the_label_build() {
    for t in shapes() {
        let (g, o) = (Graph::build(t), LabelRouter::build(t));
        let tag = format!("m={} n={}", t.m(), t.n());
        assert_eq!(g.num_channels(), o.channels.len(), "{tag}");
        for (i, &(from, to, kind)) in o.channels.iter().enumerate() {
            let d = g.channel(ChannelId(i as u32));
            assert_eq!(
                (d.from, d.to, d.kind),
                (from, to, kind),
                "{tag} channel {i}"
            );
        }
        for (i, label) in o.switch_labels.iter().enumerate() {
            assert_eq!(
                g.switch_level(i as u32),
                label.level(t.n()),
                "{tag} switch {i}"
            );
        }
        let roots: Vec<u32> = o
            .switch_labels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.fixed.is_empty())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(g.roots().collect::<Vec<_>>(), roots, "{tag}");
        g.validate().unwrap();
    }
}

#[test]
fn deterministic_routes_match_on_every_pair() {
    let det = RouteMode::Deterministic;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for t in shapes() {
        let (g, o) = (Graph::build(t), LabelRouter::build(t));
        let nodes = t.num_nodes();
        for policy in POLICIES {
            let prefer = Prefer::policy(policy);
            for src in 0..nodes {
                for dst in 0..nodes {
                    let tag = (t, policy, src, dst);
                    assert_eq!(t.nca_level(src, dst), o.nca_level(src, dst), "{tag:?}");
                    let want = o.route(src, dst, prefer, true, &mut a);
                    let got = g.route_into(src, dst, policy, det, None, &mut b);
                    same(("full", tag), (want, &a), (got, &b));
                    let want = o.route(src, dst, prefer, false, &mut a);
                    let got = g.route_tail_into(src, dst, policy, None, &mut b);
                    same(("tail", tag), (want, &a), (got, &b));
                }
                let tag = (t, policy, src);
                let want = o.exit(src, prefer, &mut a);
                let got = g.route_exit_into(src, policy, det, None, &mut b);
                same(("exit", tag), (want, &a), (got, &b));
                let want = mirrored(o.exit(src, prefer, &mut a), &mut a);
                let got = g.route_entry_into(src, policy, None, &mut b);
                same(("entry", tag), (want, &a), (got, &b));
            }
        }
    }
}

#[test]
fn adaptive_routes_match_on_every_pair() {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut state = 0x0ac1e;
    let mut digits = Vec::new();
    for t in shapes() {
        let (g, o) = (Graph::build(t), LabelRouter::build(t));
        let nodes = t.num_nodes();
        for policy in POLICIES {
            for src in 0..nodes {
                for dst in 0..nodes {
                    draw(&mut state, t, &mut digits);
                    let prefer = Prefer {
                        policy,
                        digits: &digits,
                    };
                    let want = o.route(src, dst, prefer, true, &mut a);
                    let q = RouteQuery {
                        src,
                        dst,
                        policy,
                        faults: None,
                        mode: prefer.mode(),
                    };
                    let got = g.route_query(&q, &mut b);
                    same(
                        ("adaptive", t, policy, src, dst, &digits),
                        (want, &a),
                        (got, &b),
                    );
                }
                draw(&mut state, t, &mut digits);
                let prefer = Prefer {
                    policy,
                    digits: &digits,
                };
                let want = o.exit(src, prefer, &mut a);
                let got = g.route_exit_into(src, policy, prefer.mode(), None, &mut b);
                same(
                    ("exit adaptive", t, policy, src, &digits),
                    (want, &a),
                    (got, &b),
                );
            }
        }
    }
}

#[test]
fn avoiding_routes_match_under_random_fault_sets() {
    // Deterministic and adaptive alike: an adaptive route's drawn digits
    // are the oracle search's preferred up-ports, so it must find the
    // surviving route (or the `Disconnected`) the label router finds from
    // that preference.
    let det = RouteMode::Deterministic;
    let (mut a, mut b, mut drawn) = (Vec::new(), Vec::new(), Vec::new());
    let (mut routed, mut cut, mut rerouted) = (0u64, 0u64, 0u64);
    let mut draws = 0xfa_17;
    let mut digits = Vec::new();
    for t in shapes() {
        let (g, o) = (Graph::build(t), LabelRouter::build(t));
        let nodes = t.num_nodes();
        let links = g.num_channels() / 2;
        // Light and heavy damage: every link fails with probability p.
        for (seed, p) in [(1u64, 0.02), (2, 0.1), (3, 0.3)] {
            let mut state = seed ^ (t.m() as u64) << 8 ^ (t.n() as u64) << 16;
            let mut faults = FaultSet::new();
            for l in 0..links {
                if (splitmix(&mut state) % 1000) as f64 / 1000.0 < p {
                    faults.fail_link(ChannelId(2 * l as u32));
                }
            }
            for policy in POLICIES {
                let prefer = Prefer::policy(policy);
                for src in 0..nodes {
                    for dst in 0..nodes {
                        let tag = (t, p, policy, src, dst);
                        let want = o.route_avoiding(src, dst, prefer, &faults, true, &mut a);
                        let got = g.route_into(src, dst, policy, det, Some(&faults), &mut b);
                        match &want {
                            Ok(_) => routed += 1,
                            Err(_) => cut += 1,
                        }
                        same(("avoiding", tag), (want, &a), (got, &b));
                        let want = o.route_avoiding(src, dst, prefer, &faults, false, &mut a);
                        let got = g.route_tail_into(src, dst, policy, Some(&faults), &mut b);
                        same(("tail avoiding", tag), (want, &a), (got, &b));
                        draw(&mut draws, t, &mut digits);
                        let drew = Prefer {
                            policy,
                            digits: &digits,
                        };
                        let want = o.route_avoiding(src, dst, drew, &faults, true, &mut a);
                        let got =
                            g.route_into(src, dst, policy, drew.mode(), Some(&faults), &mut b);
                        if want.is_ok() {
                            g.route_into(src, dst, policy, drew.mode(), None, &mut drawn)
                                .unwrap();
                            rerouted += (drawn != a) as u64;
                        }
                        same(("adaptive avoiding", tag, &digits), (want, &a), (got, &b));
                    }
                    let tag = (t, p, policy, src);
                    let want = o.exit_avoiding(src, prefer, &faults, &mut a);
                    let got = g.route_exit_into(src, policy, det, Some(&faults), &mut b);
                    same(("exit avoiding", tag), (want, &a), (got, &b));
                    let want = o.exit_avoiding(src, prefer, &faults, &mut a);
                    let want = mirrored(want, &mut a);
                    let got = g.route_entry_into(src, policy, Some(&faults), &mut b);
                    same(("entry avoiding", tag), (want, &a), (got, &b));
                    draw(&mut draws, t, &mut digits);
                    let drew = Prefer {
                        policy,
                        digits: &digits,
                    };
                    let want = o.exit_avoiding(src, drew, &faults, &mut a);
                    let got = g.route_exit_into(src, policy, drew.mode(), Some(&faults), &mut b);
                    same(
                        ("exit adaptive avoiding", tag, &digits),
                        (want, &a),
                        (got, &b),
                    );
                }
            }
        }
    }
    assert!(
        routed > 0 && cut > 0 && rerouted > 0,
        "fault sets must reroute, cut pairs off, and cut drawn paths a detour survives"
    );
}

#[test]
fn out_of_range_ids_return_the_same_errors() {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let det = RouteMode::Deterministic;
    for t in shapes() {
        let (g, o) = (Graph::build(t), LabelRouter::build(t));
        let nodes = t.num_nodes();
        let mut faults = FaultSet::new();
        faults.fail_link(ChannelId(0));
        let policy = AscentPolicy::default();
        let prefer = Prefer::policy(policy);
        let drawn = Prefer {
            policy,
            digits: &[1],
        };
        for (src, dst) in [(nodes, 0), (0, nodes), (nodes, nodes + 1), (usize::MAX, 0)] {
            let tag = (t, src, dst);
            let want = o.route(src, dst, prefer, true, &mut a);
            assert!(matches!(want, Err(TopologyError::NodeOutOfRange { .. })));
            same(
                tag,
                (want, &a),
                (g.route_into(src, dst, policy, det, None, &mut b), &b),
            );
            let want = o.route(src, dst, prefer, false, &mut a);
            same(
                tag,
                (want, &a),
                (g.route_tail_into(src, dst, policy, None, &mut b), &b),
            );
            let want = o.route(src, dst, drawn, true, &mut a);
            let got = g.route_into(src, dst, policy, drawn.mode(), None, &mut b);
            same(tag, (want, &a), (got, &b));
            for prefer in [prefer, drawn] {
                let want = o.route_avoiding(src, dst, prefer, &faults, true, &mut a);
                let got = g.route_into(src, dst, policy, prefer.mode(), Some(&faults), &mut b);
                same(tag, (want, &a), (got, &b));
            }
            let want = o.route_avoiding(src, dst, prefer, &faults, false, &mut a);
            let got = g.route_tail_into(src, dst, policy, Some(&faults), &mut b);
            same(tag, (want, &a), (got, &b));
        }
        for src in [nodes, usize::MAX] {
            let tag = (t, src);
            let want = o.exit(src, prefer, &mut a);
            assert!(matches!(want, Err(TopologyError::NodeOutOfRange { .. })));
            same(
                tag,
                (want, &a),
                (g.route_exit_into(src, policy, det, None, &mut b), &b),
            );
            let want = o.exit(src, prefer, &mut a);
            same(
                tag,
                (want, &a),
                (g.route_entry_into(src, policy, None, &mut b), &b),
            );
            let want = o.exit(src, drawn, &mut a);
            let got = g.route_exit_into(src, policy, drawn.mode(), None, &mut b);
            same(tag, (want, &a), (got, &b));
            for prefer in [prefer, drawn] {
                let want = o.exit_avoiding(src, prefer, &faults, &mut a);
                let got = g.route_exit_into(src, policy, prefer.mode(), Some(&faults), &mut b);
                same(tag, (want, &a), (got, &b));
            }
            let want = o.exit_avoiding(src, prefer, &faults, &mut a);
            let got = g.route_entry_into(src, policy, Some(&faults), &mut b);
            same(tag, (want, &a), (got, &b));
        }
    }
}
