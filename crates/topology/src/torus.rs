//! 2D/3D torus topology backend with dimension-order routing.
//!
//! A [`Torus`] places one router ("switch") per processing node and links
//! routers along each dimension with wrap-around. Routing is classic
//! deterministic dimension-order (DOR): correct one coordinate at a time,
//! in ascending dimension order, always around the shorter side of the
//! ring (ties go the positive direction). An adaptive route's first
//! caller-supplied digit picks the dimension the order starts at. Under
//! faults every route searches the bounded candidate family of
//! (dimension rotation × per-dimension direction flip) minimal-or-wrapped
//! paths, rotations in order from that starting dimension.
//!
//! The channel numbering honours the layout contract of
//! [`crate::topo::Topology`]: node↔router pairs first (`2·i` injection,
//! `2·i + 1` ejection), then one even/odd pair per (router, dimension)
//! for the positive-direction link and its reverse — `reverse == id ^ 1`
//! throughout.

use crate::error::TopologyError;
use crate::graph::{AscentPolicy, ChannelDesc, ChannelId, ChannelKind, Endpoint, FaultSet};
use crate::topo::{RouteMode, Topology, TorusShape};

/// A 2D/3D torus with all channels materialised.
#[derive(Debug, Clone)]
pub struct Torus {
    shape: TorusShape,
    strides: [usize; 3],
    channels: Vec<ChannelDesc>,
}

impl Torus {
    /// Builds the full channel graph of `shape`.
    pub fn build(shape: TorusShape) -> Self {
        let n = shape.num_nodes();
        let ndims = shape.ndims();
        let mut strides = [1usize; 3];
        for d in 1..ndims {
            strides[d] = strides[d - 1] * shape.dims()[d - 1] as usize;
        }
        let mut channels = Vec::with_capacity(2 * n * (1 + ndims));
        for v in 0..n as u32 {
            channels.push(ChannelDesc {
                from: Endpoint::Node(v),
                to: Endpoint::Switch(v),
                kind: ChannelKind::NodeToSwitch,
            });
            channels.push(ChannelDesc {
                from: Endpoint::Switch(v),
                to: Endpoint::Node(v),
                kind: ChannelKind::SwitchToNode,
            });
        }
        for v in 0..n {
            for d in 0..ndims {
                let u = Self::neighbor(&shape, &strides, v, d, true);
                channels.push(ChannelDesc {
                    from: Endpoint::Switch(v as u32),
                    to: Endpoint::Switch(u as u32),
                    kind: ChannelKind::SwitchToSwitch,
                });
                channels.push(ChannelDesc {
                    from: Endpoint::Switch(u as u32),
                    to: Endpoint::Switch(v as u32),
                    kind: ChannelKind::SwitchToSwitch,
                });
            }
        }
        Self {
            shape,
            strides,
            channels,
        }
    }

    /// The shape this torus was built from.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// Coordinate of node `v` along dimension `d`.
    pub fn coord(&self, v: usize, d: usize) -> usize {
        (v / self.strides[d]) % self.shape.dims()[d] as usize
    }

    /// The gateway node of `v`: its projection onto the `coord[0] == 0`
    /// hyperplane, where this cluster's concentrator/dispatcher attaches.
    pub fn gateway_of(&self, v: usize) -> usize {
        v - self.coord(v, 0) * self.strides[0]
    }

    fn neighbor(shape: &TorusShape, strides: &[usize; 3], v: usize, d: usize, plus: bool) -> usize {
        let extent = shape.dims()[d] as usize;
        let c = (v / strides[d]) % extent;
        if plus {
            if c + 1 < extent {
                v + strides[d]
            } else {
                v - c * strides[d]
            }
        } else if c > 0 {
            v - strides[d]
        } else {
            v + (extent - 1) * strides[d]
        }
    }

    fn next(&self, v: usize, d: usize) -> usize {
        Self::neighbor(&self.shape, &self.strides, v, d, true)
    }

    fn prev(&self, v: usize, d: usize) -> usize {
        Self::neighbor(&self.shape, &self.strides, v, d, false)
    }

    fn inject(&self, v: usize) -> ChannelId {
        ChannelId(2 * v as u32)
    }

    fn eject(&self, v: usize) -> ChannelId {
        ChannelId(2 * v as u32 + 1)
    }

    /// The positive-direction channel leaving router `v` along `d`.
    fn plus_channel(&self, v: usize, d: usize) -> ChannelId {
        let base = 2 * self.shape.num_nodes();
        ChannelId((base + 2 * (v * self.shape.ndims() + d)) as u32)
    }

    /// The negative-direction channel leaving router `v` along `d`: the
    /// reverse of the positive channel of `v`'s negative neighbor.
    fn minus_channel(&self, v: usize, d: usize) -> ChannelId {
        ChannelId(self.plus_channel(self.prev(v, d), d).0 ^ 1)
    }

    fn check_node(&self, v: usize) -> Result<(), TopologyError> {
        if v >= self.shape.num_nodes() {
            return Err(TopologyError::NodeOutOfRange {
                node: v,
                num_nodes: self.shape.num_nodes(),
            });
        }
        Ok(())
    }

    /// Appends the router-to-router DOR steps from `cur` to `dst`,
    /// correcting dimensions in the order `rotation, rotation+1, …`
    /// (mod ndims). Bit `d` of `flip_mask` sends dimension `d` the long
    /// way around its ring; with `flip_mask == 0` each ring is crossed
    /// the shorter way, ties going the positive direction.
    fn dor_steps(
        &self,
        mut cur: usize,
        dst: usize,
        rotation: usize,
        flip_mask: u32,
        out: &mut Vec<ChannelId>,
    ) -> u32 {
        let ndims = self.shape.ndims();
        let mut hops = 0u32;
        for i in 0..ndims {
            let d = (rotation + i) % ndims;
            let extent = self.shape.dims()[d] as usize;
            let delta = (self.coord(dst, d) + extent - self.coord(cur, d)) % extent;
            if delta == 0 {
                continue;
            }
            let shorter_is_plus = delta <= extent - delta;
            let go_plus = shorter_is_plus ^ ((flip_mask >> d) & 1 == 1);
            let steps = if go_plus { delta } else { extent - delta };
            for _ in 0..steps {
                if go_plus {
                    out.push(self.plus_channel(cur, d));
                    cur = self.next(cur, d);
                } else {
                    out.push(self.minus_channel(cur, d));
                    cur = self.prev(cur, d);
                }
                hops += 1;
            }
        }
        debug_assert_eq!(cur, dst, "DOR must land on the destination router");
        hops
    }

    /// The route `src → dst` avoiding `faults`, with its injection channel
    /// when `inject` (the full route) or without it (the tail, whose
    /// caller checks the injection per source). The first candidate is
    /// the DOR route correcting dimension `first` first (0 for the
    /// deterministic route); under faults the rest of the bounded family
    /// (dimension rotation × per-dimension direction flip) follows, the
    /// rotations in order from `first`. Injection and ejection have no
    /// alternative.
    fn dor_route(
        &self,
        src: usize,
        dst: usize,
        first: usize,
        faults: Option<&FaultSet>,
        inject: bool,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        out.clear();
        if src == dst {
            return Ok(0);
        }
        let faults = faults.filter(|f| !f.is_empty());
        let cut = |f: &FaultSet| {
            (inject && f.is_failed(self.inject(src))) || f.is_failed(self.eject(dst))
        };
        if !faults.is_some_and(cut) {
            if inject {
                out.push(self.inject(src));
            }
            let base = out.len();
            let ndims = self.shape.ndims();
            for r in 0..ndims {
                let rotation = (first + r) % ndims;
                for flip_mask in 0..(1u32 << ndims) {
                    out.truncate(base);
                    let hops = self.dor_steps(src, dst, rotation, flip_mask, out);
                    if faults.is_none_or(|f| out[base..].iter().all(|&c| !f.is_failed(c))) {
                        out.push(self.eject(dst));
                        return Ok(hops);
                    }
                }
            }
            out.clear();
        }
        Err(TopologyError::Disconnected {
            src,
            dst: Some(dst),
        })
    }

    /// The dimension a route in `mode` corrects first: the adaptive
    /// route's first digit (mod the dimension count), else 0.
    fn first_dim(&self, mode: RouteMode<'_>) -> usize {
        mode.digits()
            .first()
            .map_or(0, |&x| x as usize % self.shape.ndims())
    }
}

impl Topology for Torus {
    fn backend_name(&self) -> &'static str {
        "torus"
    }

    fn num_nodes(&self) -> usize {
        self.shape.num_nodes()
    }

    fn num_channels(&self) -> usize {
        self.channels.len()
    }

    fn channel(&self, id: ChannelId) -> &ChannelDesc {
        &self.channels[id.0 as usize]
    }

    fn validate(&self) -> Result<(), TopologyError> {
        let n = self.shape.num_nodes();
        let ndims = self.shape.ndims();
        let expect = 2 * n * (1 + ndims);
        if self.channels.len() != expect {
            return Err(TopologyError::BadGraphStructure {
                what: format!(
                    "channel count {} != 2N(1+ndims) = {expect}",
                    self.channels.len()
                ),
            });
        }
        for pair in 0..self.channels.len() / 2 {
            let a = &self.channels[2 * pair];
            let b = &self.channels[2 * pair + 1];
            if a.from != b.to || a.to != b.from {
                return Err(TopologyError::BadGraphStructure {
                    what: format!("channel pair {pair} is not reverse-mirrored"),
                });
            }
        }
        for v in 0..n {
            for d in 0..ndims {
                let ch = self.channel(self.plus_channel(v, d));
                let expect_to = Endpoint::Switch(self.next(v, d) as u32);
                if ch.from != Endpoint::Switch(v as u32) || ch.to != expect_to {
                    return Err(TopologyError::BadGraphStructure {
                        what: format!("link (router {v}, dim {d}) does not join ring neighbors"),
                    });
                }
            }
        }
        Ok(())
    }

    fn route_into(
        &self,
        src: usize,
        dst: usize,
        _policy: AscentPolicy,
        mode: RouteMode<'_>,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        self.dor_route(src, dst, self.first_dim(mode), faults, true, out)
    }

    fn route_tail_into(
        &self,
        src: usize,
        dst: usize,
        _policy: AscentPolicy,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        self.dor_route(src, dst, 0, faults, false, out)
    }

    /// Only dimension 0 moves toward the gateway plane, so an exit has no
    /// dimension order for an adaptive digit to rotate: adaptive digits
    /// report [`TopologyError::UnsupportedByBackend`].
    fn route_exit_into(
        &self,
        src: usize,
        _policy: AscentPolicy,
        mode: RouteMode<'_>,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        if !mode.digits().is_empty() {
            return Err(TopologyError::UnsupportedByBackend {
                backend: self.backend_name(),
                what: "adaptive exit digits",
            });
        }
        self.check_node(src)?;
        out.clear();
        let faults = faults.filter(|f| !f.is_empty());
        if !faults.is_some_and(|f| f.is_failed(self.inject(src))) {
            out.push(self.inject(src));
            let gateway = self.gateway_of(src);
            // The candidate family is just the two ring directions.
            for flip_mask in [0u32, 1] {
                out.truncate(1);
                let hops = self.dor_steps(src, gateway, 0, flip_mask, out);
                if faults.is_none_or(|f| out[1..].iter().all(|&c| !f.is_failed(c))) {
                    return Ok(hops);
                }
            }
            out.clear();
        }
        Err(TopologyError::Disconnected { src, dst: None })
    }

    fn num_route_classes(&self) -> usize {
        self.shape.num_nodes()
    }

    fn route_class_of(&self, node: usize) -> Result<usize, TopologyError> {
        self.check_node(node)?;
        Ok(node)
    }

    fn class_member_of(&self, node: usize) -> Result<usize, TopologyError> {
        self.check_node(node)?;
        Ok(0)
    }

    fn class_first_node(&self, class: usize) -> usize {
        class
    }

    fn max_class_members(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::assert_empty_is_none;

    /// The deterministic route mode, for brevity.
    const DET: RouteMode<'static> = RouteMode::Deterministic;

    fn torus(dims: &[u32]) -> Torus {
        Torus::build(TorusShape::new(dims).unwrap())
    }

    /// Shortest ring distance between two nodes along every dimension.
    fn min_hops(t: &Torus, a: usize, b: usize) -> u32 {
        (0..t.shape().ndims())
            .map(|d| {
                let extent = t.shape().dims()[d] as usize;
                let delta = (t.coord(b, d) + extent - t.coord(a, d)) % extent;
                delta.min(extent - delta) as u32
            })
            .sum()
    }

    /// Asserts `route` is a connected Node(src) → … → Node(dst) walk.
    fn assert_connected(t: &Torus, src: usize, dst: usize, route: &[ChannelId]) {
        assert_eq!(t.channel(route[0]).from, Endpoint::Node(src as u32));
        assert_eq!(
            t.channel(*route.last().unwrap()).to,
            Endpoint::Node(dst as u32)
        );
        for w in route.windows(2) {
            assert_eq!(
                t.channel(w[0]).to,
                t.channel(w[1]).from,
                "consecutive channels must share a router"
            );
        }
    }

    #[test]
    fn structure_validates_for_small_tori() {
        for dims in [&[2u32, 2][..], &[4, 4], &[3, 5], &[2, 3, 4], &[4, 4, 4]] {
            let t = torus(dims);
            let n: usize = dims.iter().map(|&d| d as usize).product();
            assert_eq!(Topology::num_nodes(&t), n, "{dims:?}");
            assert_eq!(t.num_channels(), 2 * n * (1 + dims.len()), "{dims:?}");
            Topology::validate(&t).unwrap_or_else(|e| panic!("{dims:?}: {e}"));
        }
    }

    #[test]
    fn dor_routes_are_minimal_connected_and_deterministic() {
        for dims in [&[4u32, 3][..], &[3, 4, 2]] {
            let t = torus(dims);
            let n = Topology::num_nodes(&t);
            let mut out = Vec::new();
            let mut again = Vec::new();
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    let hops = t
                        .route_into(src, dst, AscentPolicy::TrailingDigits, DET, None, &mut out)
                        .unwrap();
                    assert_eq!(hops, min_hops(&t, src, dst), "{dims:?} {src}->{dst}");
                    assert_eq!(out.len() as u32, hops + 2, "inject + hops + eject");
                    assert_connected(&t, src, dst, &out);
                    t.route_into(src, dst, AscentPolicy::MirrorDescent, DET, None, &mut again)
                        .unwrap();
                    assert_eq!(out, again, "policy is irrelevant on a torus");
                }
            }
        }
    }

    #[test]
    fn route_same_node_is_empty() {
        let t = torus(&[4, 4]);
        let mut out = vec![ChannelId(99)];
        assert_eq!(
            t.route_into(7, 7, AscentPolicy::TrailingDigits, DET, None, &mut out)
                .unwrap(),
            0
        );
        assert!(out.is_empty());
        assert!(t
            .route_into(0, 16, AscentPolicy::TrailingDigits, DET, None, &mut out)
            .is_err());
    }

    #[test]
    fn wrap_around_edges_chosen_correctly() {
        // 5-ring along dimension 0 of a 5×2 torus: 0 -> 4 is one hop
        // through the wrap link, not four hops forward.
        let t = torus(&[5, 2]);
        let mut out = Vec::new();
        let hops = t
            .route_into(0, 4, AscentPolicy::TrailingDigits, DET, None, &mut out)
            .unwrap();
        assert_eq!(hops, 1);
        assert_eq!(t.channel(out[1]).from, Endpoint::Switch(0));
        assert_eq!(t.channel(out[1]).to, Endpoint::Switch(4));
        // 0 -> 2 goes forward: distance 2 beats the 3-hop wrap.
        let hops = t
            .route_into(0, 2, AscentPolicy::TrailingDigits, DET, None, &mut out)
            .unwrap();
        assert_eq!(hops, 2);
        assert_eq!(t.channel(out[1]).to, Endpoint::Switch(1));
        // Even extent ties go the positive direction: 0 -> 2 on a 4-ring.
        let t = torus(&[4, 2]);
        let hops = t
            .route_into(0, 2, AscentPolicy::TrailingDigits, DET, None, &mut out)
            .unwrap();
        assert_eq!(hops, 2);
        assert_eq!(t.channel(out[1]).to, Endpoint::Switch(1));
    }

    #[test]
    fn adaptive_reaches_dst_for_any_digits() {
        let t = torus(&[3, 4, 2]);
        let n = Topology::num_nodes(&t);
        let mut det = Vec::new();
        let mut adp = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let det_hops = t
                    .route_into(src, dst, AscentPolicy::TrailingDigits, DET, None, &mut det)
                    .unwrap();
                let adaptive = |digits: &[u32], out: &mut Vec<ChannelId>| {
                    let mode = RouteMode::Adaptive { digits };
                    t.route_into(src, dst, AscentPolicy::TrailingDigits, mode, None, out)
                        .unwrap()
                };
                for digit in 0u32..7 {
                    let hops = adaptive(&[digit], &mut adp);
                    assert_eq!(hops, det_hops, "rotation keeps routes minimal");
                    assert_connected(&t, src, dst, &adp);
                }
                // No digits at all falls back to the deterministic route.
                adaptive(&[], &mut adp);
                assert_eq!(adp, det);
                // Digit 0 (rotation 0) is the deterministic order too.
                adaptive(&[0], &mut adp);
                assert_eq!(adp, det);
            }
        }
    }

    #[test]
    fn avoiding_with_empty_faults_is_byte_identical() {
        let t = torus(&[4, 3]);
        let policy = AscentPolicy::TrailingDigits;
        for src in 0..Topology::num_nodes(&t) {
            for dst in 0..Topology::num_nodes(&t) {
                assert_empty_is_none(|f, out| t.route_into(src, dst, policy, DET, f, out));
                assert_empty_is_none(|f, out| t.route_tail_into(src, dst, policy, f, out));
            }
            assert_empty_is_none(|f, out| t.route_exit_into(src, policy, DET, f, out));
            assert_empty_is_none(|f, out| t.route_entry_into(src, policy, f, out));
        }
    }

    #[test]
    fn avoiding_reroutes_around_failed_ring_link() {
        let t = torus(&[4, 4]);
        let p = AscentPolicy::TrailingDigits;
        let mut det = Vec::new();
        t.route_into(0, 2, p, DET, None, &mut det).unwrap();
        // Fail the first ring link of the deterministic route (det[1]).
        // Every mode searches the same family, an adaptive one from its
        // own rotation, so each routes around it.
        let mut faults = FaultSet::new();
        faults.fail_link(det[1]);
        let mut out = Vec::new();
        for digits in [&[][..], &[0], &[1]] {
            let mode = RouteMode::Adaptive { digits };
            t.route_into(0, 2, p, mode, Some(&faults), &mut out)
                .unwrap();
            assert_connected(&t, 0, 2, &out);
            assert!(out.iter().all(|&c| !faults.is_failed(c)));
        }
        // A failed injection channel has no alternative.
        let mut faults = FaultSet::new();
        faults.fail_link(ChannelId(0));
        assert!(matches!(
            t.route_into(0, 2, p, DET, Some(&faults), &mut out),
            Err(TopologyError::Disconnected {
                src: 0,
                dst: Some(2)
            })
        ));
    }

    #[test]
    fn entry_is_reverse_of_exit() {
        let t = torus(&[4, 3]);
        let (mut exit, mut entry) = (Vec::new(), Vec::new());
        for v in 0..Topology::num_nodes(&t) {
            let a = t
                .route_exit_into(v, AscentPolicy::TrailingDigits, DET, None, &mut exit)
                .unwrap();
            let b = t
                .route_entry_into(v, AscentPolicy::TrailingDigits, None, &mut entry)
                .unwrap();
            assert_eq!(a, b);
            let mirrored: Vec<ChannelId> = exit.iter().rev().map(|&c| ChannelId(c.0 ^ 1)).collect();
            assert_eq!(entry, mirrored);
            // The exit route starts at the node and ends on the gateway
            // plane (coordinate 0 along dimension 0).
            assert_eq!(t.channel(exit[0]).from, Endpoint::Node(v as u32));
            let gw = t.gateway_of(v);
            assert_eq!(t.coord(gw, 0), 0);
            assert_eq!(
                t.channel(*exit.last().unwrap()).to,
                if exit.len() == 1 {
                    Endpoint::Switch(v as u32)
                } else {
                    Endpoint::Switch(gw as u32)
                }
            );
        }
    }

    #[test]
    fn route_tail_is_the_route_minus_injection() {
        let t = torus(&[3, 4]);
        let n = Topology::num_nodes(&t);
        let (mut full, mut tail) = (Vec::new(), Vec::new());
        for src in 0..n {
            for dst in 0..n {
                t.route_into(src, dst, AscentPolicy::TrailingDigits, DET, None, &mut full)
                    .unwrap();
                t.route_tail_into(src, dst, AscentPolicy::TrailingDigits, None, &mut tail)
                    .unwrap();
                if src == dst {
                    assert!(tail.is_empty());
                } else {
                    assert_eq!(&full[1..], &tail[..]);
                }
            }
        }
    }

    #[test]
    fn every_node_is_its_own_route_class() {
        let t = torus(&[4, 4]);
        assert_eq!(t.num_route_classes(), 16);
        assert_eq!(t.max_class_members(), 1);
        for v in 0..16 {
            assert_eq!(t.route_class_of(v).unwrap(), v);
            assert_eq!(t.class_member_of(v).unwrap(), 0);
            assert_eq!(t.class_first_node(v), v);
        }
        assert!(t.route_class_of(16).is_err());
    }

    #[test]
    fn adaptive_exit_digits_are_unsupported() {
        let t = torus(&[4, 4]);
        let mut out = Vec::new();
        let mode = RouteMode::Adaptive { digits: &[1] };
        assert!(matches!(
            t.route_exit_into(3, AscentPolicy::TrailingDigits, mode, None, &mut out),
            Err(TopologyError::UnsupportedByBackend {
                backend: "torus",
                ..
            })
        ));
    }
}
