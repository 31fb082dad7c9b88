//! Materialising a [`SystemSpec`] into simulator state: the channel
//! graph and channel times of every network, and path construction for
//! intra- and inter-cluster messages.
//!
//! Global channel numbering concatenates, in order: each cluster's ICN1,
//! each cluster's ECN1, then the ICN2 network. The ICN2 tree's "processing
//! nodes" are the `C` concentrator/dispatcher devices, one per cluster.
//! Within a network, both backends number the `2N` node↔switch channels
//! first, so a network's channel times are two numbers (Table 2's `t_cn`
//! and `t_cs`) and the split point between them: the build keeps one such
//! entry per network ([`BuiltSystem::chan_time`]) and no table the size of
//! the channel count. Every interned segment records its network
//! ([`SegMeta::net`]), which is how the engines read a channel's time in
//! O(1).

use crate::config::{FaultSchedule, InternMode, SimConfig};
use cocnet_topology::{
    AnyTopology, AscentPolicy, ChannelId, FaultSet, NetworkCharacteristics, RouteMode, SystemSpec,
    TopoSpec, Topology, TopologyError, TorusShape,
};
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Typed errors from materialising a [`SystemSpec`] into a [`BuiltSystem`]
/// (see [`BuiltSystem::try_build_with`]). A malformed spec or fault
/// schedule reaching the build now fails loudly with one of these instead
/// of aborting the process.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Interning a route between spec-valid endpoints failed with a
    /// topology error other than fault disconnection — the spec and the
    /// built graphs disagree structurally.
    Route {
        /// Which route family was being interned.
        context: &'static str,
        /// The underlying topology error.
        err: TopologyError,
    },
    /// A fault schedule references a global channel id outside the system.
    FaultLinkOutOfRange {
        /// The offending channel id.
        link: u32,
        /// Number of global channels in the built system.
        num_channels: usize,
    },
    /// `link_fraction` is not a finite value in `[0, 1]`.
    BadFaultFraction {
        /// The offending fraction.
        fraction: f64,
    },
    /// The system exceeds an id space the build encodes in a fixed width
    /// (see [`validate_budgets`]).
    OverBudget {
        /// The scenario field to change: `spec` or `sim.interning`.
        field: &'static str,
        /// Which budget, and by how much.
        what: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Route { context, err } => {
                write!(f, "building {context} route failed: {err}")
            }
            Self::FaultLinkOutOfRange { link, num_channels } => write!(
                f,
                "fault link {link} out of range (system has {num_channels} channels)"
            ),
            Self::BadFaultFraction { fraction } => {
                write!(f, "fault link_fraction {fraction} must be in [0, 1]")
            }
            Self::OverBudget { field, what } => write!(f, "{field}: {what}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// SplitMix64 step — the deterministic generator behind the
/// `link_fraction` permutation (self-contained so fault placement never
/// depends on the traffic RNG).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Directed channels of one network, from shape arithmetic alone (no
/// graphs built): `2·n·N` for an m-port n-tree, `2·N·(1 + ndims)` for a
/// torus (one node link plus one plus-direction ring link per node per
/// dimension, each with its tandem reverse). In `u128`, so that no shape
/// the topology accepts can overflow it.
fn network_channels(topo: &TopoSpec, tree: impl FnOnce() -> cocnet_topology::MPortNTree) -> u128 {
    match topo {
        TopoSpec::Tree => {
            let t = tree();
            2 * u128::from(t.n()) * t.num_nodes() as u128
        }
        TopoSpec::Torus(s) => 2 * s.num_nodes() as u128 * (1 + s.ndims()) as u128,
    }
}

/// Total global channels the built system of `spec` will have: each
/// cluster contributes an ICN1 and an ECN1 network, plus the global ICN2.
fn expected_channels(spec: &SystemSpec) -> u128 {
    let mut total = 0;
    for i in 0..spec.num_clusters() {
        total += 2 * network_channels(&spec.clusters[i].topology, || spec.cluster_tree(i));
    }
    total + network_channels(&spec.topology, || spec.icn2_tree())
}

/// Spec-level validation of a fault schedule: field ranges
/// ([`FaultSchedule::validate`]) plus channel-id range checks against the
/// system `spec` describes — computed from tree arithmetic without
/// building any graphs, so `Scenario::validate()` can call it cheaply.
pub fn validate_faults(spec: &SystemSpec, faults: &FaultSchedule) -> Result<(), String> {
    faults.validate()?;
    let total = expected_channels(spec);
    for &l in &faults.links {
        if u128::from(l) >= total {
            return Err(format!(
                "faults.links: channel id {l} out of range (system has {total} channels)"
            ));
        }
    }
    for (i, e) in faults.events.iter().enumerate() {
        if u128::from(e.link) >= total {
            return Err(format!(
                "faults.events[{i}]: channel id {} out of range (system has {total} channels)",
                e.link
            ));
        }
    }
    Ok(())
}

/// Largest system the eager all-pairs table interns: its references encode
/// `src · N + dst`, and its build is quadratic in cluster size.
pub const EAGER_MAX_NODES: usize = u16::MAX as usize;

/// Flat node ids of a classed route reference take 31 bits.
const NODE_ID_BITS: u32 = 31;

/// A classed intra reference holds the source's position in its route
/// class in 20 bits.
const CLASS_POS_BITS: u32 = 20;

/// Spec-level check of the id spaces a build encodes in a fixed width:
/// global channel ids are `u32`, a classed route reference holds flat node
/// ids in 31 bits and a class position in 20, and the eager table
/// ([`InternMode::Eager`]) stops at [`EAGER_MAX_NODES`]. Computed from the
/// spec's arithmetic without building anything, like [`validate_faults`],
/// so `Scenario::validate()` can reject a system too large to build before
/// anything is allocated; [`BuiltSystem::try_build_full`] runs the same
/// check. The error names the field to change.
pub fn validate_budgets(spec: &SystemSpec, interning: InternMode) -> Result<(), BuildError> {
    let over = |field, what| Err(BuildError::OverBudget { field, what });
    let channels = expected_channels(spec);
    // u128, so that no spec the topology accepts can overflow the sums.
    let mut nodes = 0u128;
    let mut class = 1u128;
    for i in 0..spec.num_clusters() {
        let n = spec.cluster_nodes(i) as u128;
        nodes += n;
        if spec.clusters[i].topology.is_tree() {
            // A route class is a leaf switch's nodes, or the whole
            // cluster of a one-level tree; a torus class is one node.
            class = class.max(if spec.clusters[i].n == 1 {
                n
            } else {
                u128::from(spec.m / 2)
            });
        }
    }
    if channels > u128::from(u32::MAX) || nodes >= 1 << NODE_ID_BITS {
        return over(
            "spec",
            format!(
                "{nodes} nodes and {channels} channels exceed a build's budgets: at most {} \
                 nodes ({NODE_ID_BITS}-bit node ids) and {} channels (u32 channel ids)",
                (1u64 << NODE_ID_BITS) - 1,
                u32::MAX
            ),
        );
    }
    if class > 1 << CLASS_POS_BITS {
        return over(
            "spec",
            format!(
                "a route class of {class} nodes exceeds the 2^{CLASS_POS_BITS}-member budget \
                 of route references"
            ),
        );
    }
    if interning == InternMode::Eager && nodes > EAGER_MAX_NODES as u128 {
        return over(
            "sim.interning",
            format!(
                "eager route interning is all-pairs and capped at {EAGER_MAX_NODES} nodes \
                 (this system has {nodes}); use classed interning (`\"interning\": \
                 \"Classed\"` / `--interning classed`, the default)"
            ),
        );
    }
    Ok(())
}

/// Per-graph projection of the static global fault mask, consumed by the
/// fault-aware route interning.
#[derive(Debug, Clone)]
struct GraphFaults {
    icn1: Vec<FaultSet>,
    ecn1: Vec<FaultSet>,
    icn2: FaultSet,
}

impl GraphFaults {
    fn empty(c: usize) -> Self {
        Self {
            icn1: vec![FaultSet::new(); c],
            ecn1: vec![FaultSet::new(); c],
            icn2: FaultSet::new(),
        }
    }
}

/// One wormhole segment of a route: what the route stores intern, and
/// what an adaptive draw builds.
#[derive(Debug, Clone, Copy)]
enum Leg {
    /// ECN1 ascent of a flat source node to its exit root.
    Up(usize),
    /// ICN2 crossing from one cluster to another.
    Cross(usize, usize),
    /// ECN1 descent from the entry root to a flat destination node.
    Down(usize),
    /// ICN1 route between local nodes `li → lj` of cluster `ci`: the
    /// whole route, or only its class-shared tail when `tail`.
    Intra {
        ci: usize,
        li: usize,
        lj: usize,
        tail: bool,
    },
}

/// One network's place in the global channel numbering and its two
/// per-flit channel times. Both backends number a network's `2N`
/// node↔switch channels first, so the channels from `first` up to
/// `switch` cross in `t_cn` and the rest, up to the next network's
/// `first`, in `t_cs`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetTimes {
    /// Global id of the network's first channel.
    first: u32,
    /// Global id of its first switch↔switch channel (the next network's
    /// `first` when it has none, as a one-level tree).
    switch: u32,
    /// Node↔switch flit time, Eq. (11).
    t_cn: f64,
    /// Switch↔switch flit time, Eq. (12).
    t_cs: f64,
}

impl NetTimes {
    /// Per-flit transfer time of global channel `chan` of this network.
    #[inline]
    pub(crate) fn time(&self, chan: u32) -> f64 {
        if chan < self.switch {
            self.t_cn
        } else {
            self.t_cs
        }
    }
}

/// The networks of a built system and everything a route store reads
/// about them: the channel graphs, each network's channel range and
/// channel times, the node maps, the ascent policy and the static faults.
/// Built once per system; [`BuiltSystem`] owns it and the
/// [`ClassedTable`] shares it.
#[derive(Debug)]
struct NetLayout {
    /// One graph per network; clusters with the same backend shape share
    /// one (a million-endpoint org has thousands of identical clusters
    /// but only a handful of distinct trees).
    icn1: Vec<Arc<AnyTopology>>,
    ecn1: Vec<Arc<AnyTopology>>,
    icn2: Arc<AnyTopology>,
    /// The `2C + 1` networks in channel order: cluster `i`'s ICN1 at
    /// index `i`, its ECN1 at `C + i`, ICN2 at `2C` (the index a
    /// [`SegMeta::net`] holds).
    nets: Vec<NetTimes>,
    /// Number of global channels.
    num_channels: usize,
    /// Flat-node → (cluster, local) lookup.
    node_cluster: Vec<u32>,
    node_local: Vec<u32>,
    /// Up*/Down* ascent policy of every deterministic route.
    policy: AscentPolicy,
    /// Static (build-time) fault mask: one bool per global channel, both
    /// directions of a failed link set. Empty for zero-fault builds.
    failed: Vec<bool>,
    /// The same mask projected onto each graph, for fault-aware routing.
    faults: GraphFaults,
}

impl NetLayout {
    /// Builds every network graph, the per-network channel times and the
    /// static fault mask of `spec`, whose id budgets the caller has
    /// checked ([`validate_budgets`]; see [`BuiltSystem::try_build_full`]).
    fn build(
        spec: &SystemSpec,
        flit_bytes: f64,
        policy: AscentPolicy,
        faults: &FaultSchedule,
    ) -> Result<Self, BuildError> {
        let c = spec.num_clusters();
        let mut icn1 = Vec::with_capacity(c);
        let mut ecn1 = Vec::with_capacity(c);
        let mut nets = Vec::with_capacity(2 * c + 1);
        let mut num_channels = 0usize;

        // The caller checked the channel budget, so every id fits u32.
        let id = |c: usize| u32::try_from(c).expect("channel ids within the checked budget");
        let mut push_net = |graph: &AnyTopology, net: &NetworkCharacteristics| {
            nets.push(NetTimes {
                first: id(num_channels),
                switch: id(num_channels + 2 * graph.num_nodes()),
                t_cn: net.t_cn(flit_bytes),
                t_cs: net.t_cs(flit_bytes),
            });
            num_channels += graph.num_channels();
        };

        // One channel graph per distinct shape — clusters with the same
        // backend shape (tree `(m, n)` or torus dims) share the structure
        // (channel ids, routes) even though their channel *times* differ,
        // which the per-network entries of `nets` express.
        #[derive(PartialEq, Eq, Hash)]
        enum TopoKey {
            Tree(u32, u32),
            Torus(TorusShape),
        }
        let m = spec.m;
        let mut graph_cache: HashMap<TopoKey, Arc<AnyTopology>> = HashMap::new();
        let mut get_graph = |topo: &TopoSpec, tree_height: u32| -> Arc<AnyTopology> {
            let key = match topo {
                TopoSpec::Tree => TopoKey::Tree(m, tree_height),
                TopoSpec::Torus(s) => TopoKey::Torus(*s),
            };
            graph_cache
                .entry(key)
                .or_insert_with(|| {
                    Arc::new(
                        AnyTopology::build(m, tree_height, topo)
                            .expect("validated spec builds its channel graph"),
                    )
                })
                .clone()
        };

        for i in 0..c {
            let g = get_graph(&spec.clusters[i].topology, spec.clusters[i].n);
            push_net(&g, &spec.clusters[i].icn1);
            icn1.push(g);
        }
        for i in 0..c {
            let g = get_graph(&spec.clusters[i].topology, spec.clusters[i].n);
            push_net(&g, &spec.clusters[i].ecn1);
            ecn1.push(g);
        }
        let icn2_height = if spec.topology.is_tree() {
            spec.icn2_height().expect("validated")
        } else {
            0
        };
        let icn2 = get_graph(&spec.topology, icn2_height);
        push_net(&icn2, &spec.icn2);

        let total = spec.total_nodes();
        let mut node_cluster = Vec::with_capacity(total);
        let mut node_local = Vec::with_capacity(total);
        for i in 0..c {
            for l in 0..spec.cluster_nodes(i) {
                node_cluster.push(i as u32);
                node_local.push(l as u32);
            }
        }

        // Every backend holds an even channel count (2·n·N for a tree,
        // 2·N·(1 + ndims) for a torus), so every network offset is even
        // and the global reverse of channel `g` is `g ^ 1`, exactly as
        // within one graph. The fault mask relies on it.
        debug_assert!(
            nets.iter().all(|n| n.first % 2 == 0),
            "network offsets must be even for global reverse = id ^ 1"
        );

        if !(faults.link_fraction.is_finite() && (0.0..=1.0).contains(&faults.link_fraction)) {
            return Err(BuildError::BadFaultFraction {
                fraction: faults.link_fraction,
            });
        }
        for &l in &faults.links {
            if l as usize >= num_channels {
                return Err(BuildError::FaultLinkOutOfRange {
                    link: l,
                    num_channels,
                });
            }
        }
        for e in &faults.events {
            if e.link as usize >= num_channels {
                return Err(BuildError::FaultLinkOutOfRange {
                    link: e.link,
                    num_channels,
                });
            }
        }

        // Static fault mask: explicit links plus the first ⌊fraction·L⌋
        // links of one fixed SplitMix64 Fisher–Yates permutation — nested
        // across fractions, so degradation sweeps decline monotonically.
        let mut failed: Vec<bool> = Vec::new();
        if !faults.links.is_empty() || faults.link_fraction > 0.0 {
            failed = vec![false; num_channels];
            for &l in &faults.links {
                failed[l as usize] = true;
                failed[(l ^ 1) as usize] = true;
            }
            if faults.link_fraction > 0.0 {
                let nlinks = num_channels / 2;
                let mut perm: Vec<u32> = (0..nlinks as u32).collect();
                let mut state = faults.fault_seed;
                for i in (1..nlinks).rev() {
                    let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
                let take = ((faults.link_fraction * nlinks as f64).floor() as usize).min(nlinks);
                for &l in &perm[..take] {
                    failed[2 * l as usize] = true;
                    failed[2 * l as usize + 1] = true;
                }
            }
        }

        // Project the global mask into per-graph fault sets for the
        // fault-aware route interning.
        let mut layout = Self {
            icn1,
            ecn1,
            icn2,
            nets,
            num_channels,
            node_cluster,
            node_local,
            policy,
            failed,
            faults: GraphFaults::empty(c),
        };
        for g in (0..layout.failed.len()).step_by(2) {
            if !layout.failed[g] {
                continue;
            }
            let g = g as u32;
            let net = layout.net_of(g);
            let local = ChannelId(g - layout.nets[net].first);
            let gf = &mut layout.faults;
            match net.checked_sub(c) {
                None => gf.icn1[net].fail_link(local),
                Some(i) if i < c => gf.ecn1[i].fail_link(local),
                Some(_) => gf.icn2.fail_link(local),
            }
        }
        Ok(layout)
    }

    /// Index in [`NetLayout::nets`] of cluster `i`'s ECN1.
    #[inline]
    fn ecn1_net(&self, i: usize) -> u32 {
        (self.icn1.len() + i) as u32
    }

    /// Index in [`NetLayout::nets`] of ICN2.
    #[inline]
    fn icn2_net(&self) -> u32 {
        2 * self.icn1.len() as u32
    }

    /// Global id of network `net`'s first channel.
    #[inline]
    fn first(&self, net: u32) -> u32 {
        self.nets[net as usize].first
    }

    /// The network owning global channel `chan`: the last one starting at
    /// or below it, by binary search, O(log C).
    fn net_of(&self, chan: u32) -> usize {
        debug_assert!(
            (chan as usize) < self.num_channels,
            "channel id out of range"
        );
        self.nets.partition_point(|n| n.first <= chan) - 1
    }

    /// One past the last global channel of network `net`.
    fn end(&self, net: usize) -> u32 {
        self.nets
            .get(net + 1)
            .map_or(self.num_channels as u32, |n| n.first)
    }

    /// `(cluster, local id)` of flat node `f`.
    #[inline]
    fn locate(&self, f: usize) -> (usize, usize) {
        (self.node_cluster[f] as usize, self.node_local[f] as usize)
    }

    /// Routes `leg` around the static faults into `out` and returns the
    /// index of its network: the one place that knows a leg's graph,
    /// network and faults. `digits` are the drawn up-ports of an adaptive
    /// route, empty for a deterministic one; they shape the legs that
    /// climb (an ECN1 ascent, an ICN2 crossing, a whole ICN1 route),
    /// which prefer them and avoid the faults the same way. A descent is
    /// destination-determined and a class-shared tail is deterministic,
    /// so both ignore them.
    ///
    /// A leg the faults disconnect leaves `out` empty (every route has at
    /// least one channel, so an empty segment means a dead one).
    /// Disconnection is not an error — the stores intern the segment
    /// empty, and the engines account its messages as unreachable — but
    /// any other route failure is.
    fn route_leg(
        &self,
        leg: Leg,
        digits: &[u32],
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, BuildError> {
        let (p, mode) = (self.policy, RouteMode::Adaptive { digits });
        let f = &self.faults;
        let (r, net, context) = match leg {
            Leg::Up(src) => {
                let (ci, li) = self.locate(src);
                let r = self.ecn1[ci].route_exit_into(li, p, mode, Some(&f.ecn1[ci]), out);
                (r, self.ecn1_net(ci), "ECN1 ascent")
            }
            Leg::Cross(ci, cj) => {
                let r = self.icn2.route_into(ci, cj, p, mode, Some(&f.icn2), out);
                (r, self.icn2_net(), "ICN2 crossing")
            }
            Leg::Down(dst) => {
                let (cj, lj) = self.locate(dst);
                let r = self.ecn1[cj].route_entry_into(lj, p, Some(&f.ecn1[cj]), out);
                (r, self.ecn1_net(cj), "ECN1 descent")
            }
            Leg::Intra { ci, li, lj, tail } => {
                let (g, faults) = (&self.icn1[ci], Some(&f.icn1[ci]));
                let r = if tail {
                    g.route_tail_into(li, lj, p, faults, out)
                } else {
                    g.route_into(li, lj, p, mode, faults, out)
                };
                (r, ci as u32, "ICN1 intra")
            }
        };
        match r {
            Ok(_) => Ok(net),
            Err(TopologyError::Disconnected { .. }) => {
                out.clear();
                Ok(net)
            }
            Err(err) => Err(BuildError::Route { context, err }),
        }
    }

    /// The one segment fold, shared by the eager segments, the classed
    /// records and the adaptive routes: records network `net` as the
    /// segment's, shifts each local channel of `route` by the network's
    /// first id, hands the global id to `emit`, and folds it onto `acc` —
    /// one more channel in `len`, its per-flit time into `sum_t` (Σ) and
    /// `bottleneck_t` (max), in traversal order over the same values the
    /// engines read per channel, so the closed-form finish times computed
    /// from them are bit-identical to a per-event rescan.
    #[inline]
    fn fold_seg(
        &self,
        mut acc: SegMeta,
        route: &[ChannelId],
        net: u32,
        mut emit: impl FnMut(u32),
    ) -> SegMeta {
        let times = self.nets[net as usize];
        acc.net = net;
        for c in route {
            let g = times.first + c.0;
            let t = times.time(g);
            acc.sum_t += t;
            acc.bottleneck_t = acc.bottleneck_t.max(t);
            acc.len += 1;
            emit(g);
        }
        acc
    }
}

/// One wormhole segment: a maximal run of channels between rate-decoupling
/// buffers (source, concentrator, dispatcher, sink).
///
/// This owned form is the *reference* representation, used by tests and
/// diagnostics; the engines run off the interned [`RouteTable`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Global channel ids, in traversal order.
    pub chans: Vec<u32>,
}

/// Index of one deterministic (src, dst) route in the [`RouteTable`].
///
/// A tagged 64-bit word; the top two bits select the representation:
///
/// * `00` — eager all-pairs reference: `src · N + dst` (the historical
///   encoding, which is what caps the eager table at 65 535 nodes);
/// * `01` — classed intra-cluster reference: class-record index, the
///   source's position under its leaf switch (the only per-pair datum),
///   and a per-pair dead flag for sources whose injection link a static
///   fault cut even though the shared class trunk survived;
/// * `10` — classed inter-cluster reference: the raw `(src, dst)` pair,
///   resolved through per-node ascent/descent and per-cluster-pair
///   crossing records at segment-lookup time;
/// * `11` — an adaptive route: the index of the message's entry in the
///   run's [`AdaptiveRouteCache`], which holds adaptive routes instead of
///   the table (see [`RouteRef::adaptive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteRef(u64);

const REF_TAG_SHIFT: u32 = 62;
const REF_TAG_EAGER: u64 = 0;
const REF_TAG_INTRA: u64 = 1;
const REF_TAG_INTER: u64 = 2;
const REF_TAG_ADAPTIVE: u64 = 3;
/// Per-pair demotion flag of an intra reference (bit 61).
const REF_INTRA_DEAD: u64 = 1 << 61;

impl RouteRef {
    /// A reference to the adaptive route in entry `idx` of the run's
    /// [`AdaptiveRouteCache`] (filled by [`AdaptiveRouteCache::draw`]);
    /// the engines resolve it there instead of in the table.
    #[inline]
    pub const fn adaptive(idx: u32) -> RouteRef {
        RouteRef((REF_TAG_ADAPTIVE << REF_TAG_SHIFT) | idx as u64)
    }

    /// The [`AdaptiveRouteCache`] index of an adaptive reference; `None`
    /// for an interned route.
    #[inline]
    pub fn adaptive_idx(self) -> Option<u32> {
        (self.tag() == REF_TAG_ADAPTIVE).then_some(self.0 as u32)
    }

    #[inline]
    fn tag(self) -> u64 {
        self.0 >> REF_TAG_SHIFT
    }

    #[inline]
    fn intra(cls: u32, j: u32, dead: bool) -> Self {
        debug_assert!(j < 1 << CLASS_POS_BITS && cls < 1 << 31);
        RouteRef(
            (REF_TAG_INTRA << REF_TAG_SHIFT)
                | if dead { REF_INTRA_DEAD } else { 0 }
                | ((j as u64) << 32)
                | cls as u64,
        )
    }

    /// `(class record, source position under leaf, injection dead)`.
    #[inline]
    fn intra_parts(self) -> (u32, u32, bool) {
        (
            self.0 as u32,
            (self.0 >> 32) as u32 & 0xf_ffff,
            self.0 & REF_INTRA_DEAD != 0,
        )
    }

    #[inline]
    fn inter(src: u64, dst: u64) -> Self {
        debug_assert!(src < 1 << NODE_ID_BITS && dst < 1 << NODE_ID_BITS);
        RouteRef((REF_TAG_INTER << REF_TAG_SHIFT) | (src << 31) | dst)
    }

    #[inline]
    fn inter_parts(self) -> (usize, usize) {
        (
            ((self.0 >> 31) & 0x7fff_ffff) as usize,
            (self.0 & 0x7fff_ffff) as usize,
        )
    }
}

/// Precomputed view of one interned segment: where its channels live in
/// the route table's flat channel array, which network they belong to,
/// plus the two per-segment numbers the wormhole drain model needs on
/// every segment completion.
///
/// `sum_t` and `bottleneck_t` are accumulated in traversal order over the
/// exact same `f64` channel times the engines read per channel through
/// `net`, so the closed-form finish times computed from them are
/// bit-identical to the legacy per-event rescan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegMeta {
    /// Where the segment's channels live, resolved by
    /// [`RouteTable::chan_at`]`(start + k)` for `k < len`: a plain index
    /// into the table's flat channel storage (or the owning dynamic-route
    /// arena), or — bit 63 set — a classed *virtual window* packing the
    /// class record, the source's position under its leaf switch and the
    /// channel position, so the per-pair injection channel is recovered
    /// arithmetically instead of being stored per pair.
    pub start: u64,
    /// Number of channels in the segment.
    pub len: u32,
    /// The network every channel of the segment belongs to, in the built
    /// system's network order: cluster `i`'s ICN1 is `i`, its ECN1
    /// `C + i`, and ICN2 `2C` (see [`BuiltSystem::network_index`]). It
    /// is what lets the engines read a channel's time from two numbers
    /// per network. Fills what would otherwise be padding.
    pub net: u32,
    /// Σ of the per-flit channel times, in traversal order.
    pub sum_t: f64,
    /// Max of the per-flit channel times (the segment's drain bottleneck).
    pub bottleneck_t: f64,
}

impl SegMeta {
    /// The empty segment, [`SegMeta::default`] in a constant: the
    /// placeholder of a message slot not yet filled.
    pub const EMPTY: SegMeta = SegMeta {
        start: 0,
        len: 0,
        net: 0,
        sum_t: 0.0,
        bottleneck_t: 0.0,
    };
}

/// The eager all-pairs route store: every deterministic (src, dst) route
/// interned once at build time into a flat CSR-style layout.
///
/// One segment per intra-cluster pair plus per-node ascent/descent and
/// per-cluster-pair crossing segments. Build cost and footprint are
/// quadratic in cluster size (the `N_i × N_i` intra blocks), which is why
/// this mode is capped at 65 535 nodes and kept as the golden oracle
/// behind [`InternMode::Eager`]; the default engine path runs off
/// [`ClassedTable`].
#[derive(Debug)]
pub struct EagerTable {
    /// Flat channel-id storage of every interned segment.
    chans: Vec<u32>,
    /// Segment `s` occupies `chans[seg_off[s]..seg_off[s + 1]]`.
    seg_off: Vec<u32>,
    /// Per-segment Σ of channel times (traversal order).
    seg_sum: Vec<f64>,
    /// Per-segment max channel time.
    seg_bot: Vec<f64>,
    /// Per flat node: ECN1 ascent segment (source → exit root).
    up_seg: Vec<u32>,
    /// Per flat node: ECN1 descent segment (entry root → destination).
    down_seg: Vec<u32>,
    /// Per (ci, cj) cluster pair, row-major: ICN2 crossing segment
    /// (`u32::MAX` on the unused diagonal).
    cross_seg: Vec<u32>,
    /// Per cluster: first segment id of its `N_i × N_i` intra block.
    intra_base: Vec<u32>,
    /// Per interned segment: whether static faults disconnected it (the
    /// fault-aware reroute found no path). Empty — the fast path — when
    /// every segment routed.
    dead_segs: Vec<bool>,
    /// Flat-node → cluster / local lookups (copies, so the table resolves
    /// routes without touching the rest of [`BuiltSystem`]).
    node_cluster: Vec<u32>,
    node_local: Vec<u32>,
    cluster_nodes: Vec<u32>,
    total_nodes: u32,
    num_clusters: u32,
}

/// Builder half of [`EagerTable`]: accumulates segments into the CSR arrays.
#[derive(Default)]
struct TableBuilder {
    chans: Vec<u32>,
    seg_off: Vec<u32>,
    seg_sum: Vec<f64>,
    seg_bot: Vec<f64>,
    /// Per segment: whether static faults disconnected it.
    dead: Vec<bool>,
    scratch: Vec<ChannelId>,
}

impl TableBuilder {
    fn new() -> Self {
        TableBuilder {
            seg_off: vec![0],
            ..Default::default()
        }
    }

    /// The id the next interned segment will get, guarding the u32 offset
    /// space: intra blocks are quadratic in cluster size, so a legal node
    /// count can still overflow the CSR offsets — fail loudly, never wrap.
    fn next_id(&self) -> u32 {
        let id = self.seg_off.len() - 1;
        assert!(
            id <= u32::MAX as usize && self.chans.len() <= u32::MAX as usize,
            "route table exceeds u32 offset space (clusters too large to intern)"
        );
        id as u32
    }

    /// Routes `leg` around the static faults and interns it through the
    /// segment fold. A leg the faults disconnect interns empty and marked
    /// dead; `None` interns an empty placeholder (the unreachable
    /// `li == lj` diagonal of an intra block, kept so block indexing stays
    /// a multiplication).
    fn intern(&mut self, net: &NetLayout, leg: Option<Leg>) -> Result<u32, BuildError> {
        let id = self.next_id();
        let mut m = SegMeta::default();
        let mut dead = false;
        if let Some(leg) = leg {
            let id = net.route_leg(leg, &[], &mut self.scratch)?;
            dead = self.scratch.is_empty();
            m = net.fold_seg(m, &self.scratch, id, |g| self.chans.push(g));
        }
        assert!(
            self.chans.len() <= u32::MAX as usize,
            "route table exceeds u32 offset space (clusters too large to intern)"
        );
        self.seg_off.push(self.chans.len() as u32);
        self.seg_sum.push(m.sum_t);
        self.seg_bot.push(m.bottleneck_t);
        self.dead.push(dead);
        Ok(id)
    }
}

impl EagerTable {
    /// Interns every route of `net`, whose node count the caller has
    /// checked against [`EAGER_MAX_NODES`] ([`validate_budgets`]).
    fn build(net: &NetLayout) -> Result<Self, BuildError> {
        let total_nodes = net.node_cluster.len();
        debug_assert!(total_nodes <= EAGER_MAX_NODES, "over the eager budget");
        let c = net.icn1.len();
        let cluster_nodes: Vec<u32> = net.icn1.iter().map(|g| g.num_nodes() as u32).collect();
        let mut b = TableBuilder::new();

        let mut up_seg = Vec::with_capacity(total_nodes);
        let mut down_seg = Vec::with_capacity(total_nodes);
        for f in 0..total_nodes {
            up_seg.push(b.intern(net, Some(Leg::Up(f)))?);
            down_seg.push(b.intern(net, Some(Leg::Down(f)))?);
        }

        let mut cross_seg = Vec::with_capacity(c * c);
        for ci in 0..c {
            for cj in 0..c {
                cross_seg.push(if ci == cj {
                    u32::MAX
                } else {
                    b.intern(net, Some(Leg::Cross(ci, cj)))?
                });
            }
        }

        let mut intra_base = Vec::with_capacity(c);
        for (ci, &ni) in cluster_nodes.iter().enumerate() {
            intra_base.push(b.next_id());
            for li in 0..ni as usize {
                for lj in 0..ni as usize {
                    let tail = false;
                    b.intern(net, (li != lj).then_some(Leg::Intra { ci, li, lj, tail }))?;
                }
            }
        }

        // Keep the flags only when something actually died: the empty vec
        // is the zero-fault fast path of `is_unreachable`.
        let dead_segs = if b.dead.contains(&true) {
            b.dead
        } else {
            Vec::new()
        };

        Ok(EagerTable {
            chans: b.chans,
            seg_off: b.seg_off,
            seg_sum: b.seg_sum,
            seg_bot: b.seg_bot,
            up_seg,
            down_seg,
            cross_seg,
            intra_base,
            dead_segs,
            node_cluster: net.node_cluster.clone(),
            node_local: net.node_local.clone(),
            cluster_nodes,
            total_nodes: total_nodes as u32,
            num_clusters: c as u32,
        })
    }

    #[inline]
    fn decode(&self, r: RouteRef) -> (usize, usize) {
        debug_assert_eq!(r.tag(), REF_TAG_EAGER, "classed ref in an eager table");
        (
            (r.0 / self.total_nodes as u64) as usize,
            (r.0 % self.total_nodes as u64) as usize,
        )
    }

    #[inline]
    fn route_ref(&self, src: usize, dst: usize) -> RouteRef {
        debug_assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        debug_assert!(src < self.total_nodes as usize && dst < self.total_nodes as usize);
        RouteRef(src as u64 * self.total_nodes as u64 + dst as u64)
    }

    #[inline]
    fn num_segments(&self, r: RouteRef) -> u32 {
        let (src, dst) = self.decode(r);
        if self.node_cluster[src] == self.node_cluster[dst] {
            1
        } else {
            3
        }
    }

    /// Segment `k` of route `r`, and its network (see [`SegMeta::net`]).
    #[inline]
    fn seg_id(&self, r: RouteRef, k: u32) -> (u32, u32) {
        let (src, dst) = self.decode(r);
        let ci = self.node_cluster[src] as usize;
        let cj = self.node_cluster[dst] as usize;
        let c = self.num_clusters;
        if ci == cj {
            let ni = self.cluster_nodes[ci];
            let seg = self.intra_base[ci] + self.node_local[src] * ni + self.node_local[dst];
            (seg, ci as u32)
        } else {
            match k {
                0 => (self.up_seg[src], c + ci as u32),
                1 => (self.cross_seg[ci * c as usize + cj], 2 * c),
                _ => (self.down_seg[dst], c + cj as u32),
            }
        }
    }

    #[inline]
    fn is_unreachable(&self, src: usize, dst: usize) -> bool {
        if self.dead_segs.is_empty() {
            return false;
        }
        let r = self.route_ref(src, dst);
        let n = self.num_segments(r);
        (0..n).any(|k| self.dead_segs[self.seg_id(r, k).0 as usize])
    }

    #[inline]
    fn seg_meta(&self, r: RouteRef, k: u32) -> SegMeta {
        let (s, net) = self.seg_id(r, k);
        let s = s as usize;
        let start = self.seg_off[s];
        SegMeta {
            start: start as u64,
            len: self.seg_off[s + 1] - start,
            net,
            sum_t: self.seg_sum[s],
            bottleneck_t: self.seg_bot[s],
        }
    }

    /// Number of interned segments (including empty diagonal placeholders).
    fn num_interned_segments(&self) -> usize {
        self.seg_sum.len()
    }

    /// Resident bytes of the interned arrays (capacity-based estimate).
    fn resident_bytes(&self) -> usize {
        self.chans.len() * 4
            + self.seg_off.len() * 4
            + (self.seg_sum.len() + self.seg_bot.len()) * 8
            + (self.up_seg.len() + self.down_seg.len() + self.cross_seg.len()) * 4
            + self.intra_base.len() * 4
            + self.dead_segs.len()
            + (self.node_cluster.len() + self.node_local.len() + self.cluster_nodes.len()) * 4
    }
}

/// Sentinel of the classed table's record-id arrays: not yet materialized.
const UNSET: u32 = u32::MAX;

/// Tag bit of a classed virtual [`SegMeta::start`] window.
const VSTART_TAG: u64 = 1 << 63;
/// Bits of the channel-position field of a virtual window (the low field,
/// so `start + k` walks the segment like a plain index).
const VSTART_POS_BITS: u32 = 12;

/// Packs a virtual channel window: `tag(1) | chans_off(31) | j(20) |
/// pos(12)`. `chans_off` points straight at the class's channel window
/// (head slot = the leaf's base injection channel, then the shared tail),
/// so the per-flit [`ClassedTable::chan_at`] decode costs a single arena
/// read — no record-table indirection on the hot path.
#[inline]
fn vstart(chans_off: u64, j: u32) -> u64 {
    VSTART_TAG | (chans_off << 32) | ((j as u64) << VSTART_POS_BITS)
}

/// Growable append-only storage readable without locks: a spine of
/// geometrically growing chunks (1024, 2048, 4096, …), each allocated at
/// most once. Already-written entries are never moved, so readers resolve
/// an index with pure arithmetic plus one atomic load while a writer
/// (serialized by the owning table's lock) appends to the tail. Entry `i`
/// lives in chunk `⌊log₂(i/1024 + 1)⌋`.
macro_rules! chunked_arena {
    ($name:ident, $atom:ty, $val:ty) => {
        #[derive(Debug)]
        struct $name {
            /// Writer-side chunk owner (append path, table lock held).
            chunks: Vec<OnceLock<Box<[$atom]>>>,
            /// Reader-side data pointers, one per chunk, published with
            /// `Release` when the chunk is first allocated. The hot `get`
            /// resolves an index with two dependent loads (pointer, then
            /// element) instead of walking Vec → OnceLock → Box — the
            /// difference is double-digit percent events/sec on the flit
            /// engine, whose per-flit loop ends in [`ClassedTable::chan_at`].
            ptrs: [AtomicPtr<$atom>; 33],
        }

        impl $name {
            const BASE: u64 = 1024;

            fn new() -> Self {
                Self {
                    chunks: (0..33).map(|_| OnceLock::new()).collect(),
                    ptrs: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
                }
            }

            #[inline]
            fn locate(i: u64) -> (usize, usize) {
                let t = i / Self::BASE + 1;
                let c = t.ilog2();
                (c as usize, (i - Self::BASE * ((1 << c) - 1)) as usize)
            }

            /// Reads entry `i`. The caller must have observed the
            /// publication of `i` (a `Release`-stored record id or a
            /// lock-guarded map entry), which makes the chunk pointer and
            /// the entry's value visible.
            #[inline]
            fn get(&self, i: u64) -> $val {
                let (c, o) = Self::locate(i);
                let ptr = self.ptrs[c].load(Ordering::Acquire);
                debug_assert!(!ptr.is_null(), "published entry");
                // SAFETY: a non-null pointer is published (`Release`)
                // exactly once per chunk, after the chunk's atomics are
                // fully initialized; the `OnceLock` keeps the chunk
                // allocation alive and unmoved for as long as `self`
                // exists; and `locate` maps any `i` to an offset within
                // its chunk's `BASE << c` capacity, so the access is in
                // bounds even for a not-yet-appended tail entry (which
                // the caller contract above rules out anyway).
                unsafe { (*ptr.add(o)).load(Ordering::Acquire) }
            }

            /// Writes entry `i`; only called with the owning table's write
            /// lock held, entries appended in order.
            fn set(&self, i: u64, v: $val) {
                let (c, o) = Self::locate(i);
                let chunk = self.chunks[c]
                    .get_or_init(|| (0..Self::BASE << c).map(|_| <$atom>::new(0)).collect());
                if self.ptrs[c].load(Ordering::Relaxed).is_null() {
                    // Writers are serialized by the table lock, so this
                    // check-then-store cannot race another writer.
                    self.ptrs[c].store(chunk.as_ptr() as *mut $atom, Ordering::Release);
                }
                chunk[o].store(v, Ordering::Release);
            }
        }
    };
}

chunked_arena!(ChunkedU32, AtomicU32, u32);
chunked_arena!(ChunkedU64, AtomicU64, u64);

/// Mutable half of [`ClassedTable`], guarded by one `RwLock`: the
/// class-lookup map, the arena tail positions, and the route scratch
/// buffer. Readers of already-published records never touch it — only
/// `route_ref` (class lookup) and first-touch materialization do.
#[derive(Debug, Default)]
struct LazyState {
    /// `(cluster, src route class, dst local id)` → class-record offset.
    intra: HashMap<(u32, u32, u32), u32>,
    /// Entries appended to the channel arena so far.
    chan_len: u64,
    /// Words appended to the record arena so far.
    rec_len: u64,
    /// Records materialized so far (intra classes + inter segments).
    segs: usize,
    scratch: Vec<ChannelId>,
}

/// The class-keyed lazy route store (see [`InternMode::Classed`]).
///
/// Nothing is interned at build time. On first touch of a (src, dst) pair
/// the table materializes — once per *equivalence class*, not per pair —
/// the route data every pair of the class shares:
///
/// * intra-cluster: one **class record** per `(cluster, src route class,
///   dst)` holding the route *tail* (everything after the injection
///   channel — identical for every source of the class, see
///   [`Topology::route_tail_into`]) plus the left-folded `sum_t` /
///   `bottleneck_t`, which are class-uniform because all injection
///   channels of one ICN1 share `t_cn`. The per-pair injection channel is
///   recovered arithmetically (ICN1's first channel `+ 2·local`) through the virtual
///   [`SegMeta::start`] window, so per-pair storage is zero.
/// * inter-cluster: one ascent record per source node, one descent record
///   per destination node, one crossing record per cluster pair — the
///   same sharing the eager table exploits, minus the quadratic intra
///   blocks and the all-pairs build sweep.
///
/// Static faults are applied per class on the shared trunk (the tail,
/// routed by [`Topology::route_tail_into`] around the static fault set,
/// reroutes or marks the class dead); an injection-link fault demotes
/// only the affected pair via the dead flag carried in its [`RouteRef`].
///
/// Reads after materialization are lock-free: record ids live in dense
/// atomic arrays (or travel inside `RouteRef`s), and record/channel words
/// live in append-only chunked arenas. First-touch materialization is
/// serialized by one write lock with a double-check, so engines sharing
/// the table across threads (the sharded engine, parallel replications)
/// materialize each class exactly once. The networks, channel times, node
/// maps and static faults it routes over are the built system's, shared.
#[derive(Debug)]
pub struct ClassedTable {
    net: Arc<NetLayout>,
    /// Per flat node: ECN1 ascent record offset, [`UNSET`] until touched.
    up_ids: Vec<AtomicU32>,
    /// Per flat node: ECN1 descent record offset.
    down_ids: Vec<AtomicU32>,
    /// Per (ci, cj) cluster pair, row-major: ICN2 crossing record offset.
    cross_ids: Vec<AtomicU32>,
    /// Flat channel-id storage of every materialized segment.
    chans: ChunkedU32,
    /// Record words: every record is 4 words `[chans_off, sum_t bits,
    /// bottleneck_t bits, len | net << 32]`. `len` counts the whole
    /// segment (injection included for intra); `len == 0` marks a
    /// fault-disconnected record. `net` is the segment's network
    /// ([`SegMeta::net`]), in the high half of the word `len` leaves free. An intra class's channel window starts
    /// with a head slot — the injection channel of the leaf's *first*
    /// member, from which member `j`'s is `head + 2·j` — followed by the
    /// shared route tail, so [`ClassedTable::chan_at`] resolves any
    /// position with one arena read.
    recs: ChunkedU64,
    lazy: RwLock<LazyState>,
}

impl ClassedTable {
    /// An empty table over `net`, whose node ids and route classes the
    /// caller has checked against the reference budgets
    /// ([`validate_budgets`]).
    fn new(net: Arc<NetLayout>) -> Self {
        let total = net.node_cluster.len();
        let c = net.icn1.len();
        debug_assert!(total < 1 << NODE_ID_BITS, "over the node-id budget");
        debug_assert!(
            net.icn1
                .iter()
                .all(|g| g.max_class_members() <= 1 << CLASS_POS_BITS),
            "over the class-position budget"
        );
        let unset = |n: usize| (0..n).map(|_| AtomicU32::new(UNSET)).collect();
        Self {
            net,
            up_ids: unset(total),
            down_ids: unset(total),
            cross_ids: unset(c * c),
            chans: ChunkedU32::new(),
            recs: ChunkedU64::new(),
            lazy: RwLock::new(LazyState::default()),
        }
    }

    /// Appends the record of segment `m`, whose channels were appended
    /// from `m.start` on (none when `m.len == 0`, a fault-disconnected
    /// segment), returning the record offset. Caller holds the write lock.
    fn push_rec(&self, st: &mut LazyState, m: SegMeta) -> u32 {
        let rec = st.rec_len;
        assert!(rec < 1 << 31, "route-record arena exceeds the id budget");
        for w in [
            m.start,
            m.sum_t.to_bits(),
            m.bottleneck_t.to_bits(),
            u64::from(m.len) | u64::from(m.net) << 32,
        ] {
            self.recs.set(st.rec_len, w);
            st.rec_len += 1;
        }
        st.segs += 1;
        rec as u32
    }

    /// Record offset of segment `k` of the inter pair `(src, dst)`: `src`'s
    /// ECN1 ascent (`k = 0`), its cluster pair's ICN2 crossing (1) or
    /// `dst`'s ECN1 descent (2), materialized on first touch.
    #[inline]
    fn inter_rec(&self, src: usize, dst: usize, k: u32) -> u32 {
        let (slot, leg) = match k {
            0 => (&self.up_ids[src], Leg::Up(src)),
            1 => {
                let ci = self.net.node_cluster[src] as usize;
                let cj = self.net.node_cluster[dst] as usize;
                let slot = &self.cross_ids[ci * self.net.icn1.len() + cj];
                (slot, Leg::Cross(ci, cj))
            }
            _ => (&self.down_ids[dst], Leg::Down(dst)),
        };
        match slot.load(Ordering::Acquire) {
            UNSET => self.materialize(slot, leg),
            id => id,
        }
    }

    /// Materializes the inter record of `leg` into `slot` under the write
    /// lock, double-checked so that concurrent first touches intern it
    /// once.
    fn materialize(&self, slot: &AtomicU32, leg: Leg) -> u32 {
        let mut st = self.lazy.write().expect("route table lock");
        let id = slot.load(Ordering::Acquire);
        if id != UNSET {
            return id;
        }
        let mut scratch = std::mem::take(&mut st.scratch);
        let mut m = SegMeta {
            start: st.chan_len,
            ..SegMeta::default()
        };
        // A validated spec fails a route only by fault disconnection,
        // which leaves the route empty and the record dead.
        let net = self.net.route_leg(leg, &[], &mut scratch);
        let net = net.unwrap_or_else(|e| panic!("{e}"));
        m = self.net.fold_seg(m, &scratch, net, |g| {
            self.chans.set(st.chan_len, g);
            st.chan_len += 1;
        });
        let rec = self.push_rec(&mut st, m);
        st.scratch = scratch;
        slot.store(rec, Ordering::Release);
        rec
    }

    /// The global injection channel of local node `li` in cluster `ci`:
    /// node↔leaf links are the first channels of every graph, two per node
    /// in node order, so injection is `2·li` locally.
    #[inline]
    fn intra_inj(&self, ci: usize, li: usize) -> u32 {
        self.net.first(ci as u32) + 2 * li as u32
    }

    /// `(len, net)` of the record at `rec` (see [`ClassedTable::recs`]).
    #[inline]
    fn rec_len_net(&self, rec: u64) -> (u32, u32) {
        let w = self.recs.get(rec + 3);
        (w as u32, (w >> 32) as u32)
    }

    /// Class record of the intra pair `(src, dst)`, materializing the
    /// class — keyed `(cluster, route_class(src), dst)` — on first touch
    /// by any member pair.
    fn intra_cls(&self, src: usize, dst: usize) -> u32 {
        let net = &*self.net;
        let (ci, li) = net.locate(src);
        let lj = net.node_local[dst] as usize;
        let graph = &net.icn1[ci];
        let leaf = graph.route_class_of(li).expect("valid local id");
        let key = (ci as u32, leaf as u32, lj as u32);
        if let Some(&cls) = self.lazy.read().expect("route table lock").intra.get(&key) {
            return cls;
        }
        let mut st = self.lazy.write().expect("route table lock");
        if let Some(&cls) = st.intra.get(&key) {
            return cls;
        }
        let mut scratch = std::mem::take(&mut st.scratch);
        let mut m = SegMeta {
            start: st.chan_len,
            ..SegMeta::default()
        };
        let tail = true;
        let icn1 = net.route_leg(Leg::Intra { ci, li, lj, tail }, &[], &mut scratch);
        m.net = icn1.unwrap_or_else(|e| panic!("{e}"));
        if !scratch.is_empty() {
            assert!(
                m.start < 1 << 31,
                "channel arena exceeds the virtual-window offset budget"
            );
            // Fold exactly as the eager builder does, injection first. The
            // materializing pair's injection time stands in for every
            // member's: all ICN1 injection channels share one t_cn, so the
            // folded sum/bottleneck are class-uniform bit for bit.
            m = net.fold_seg(m, &[ChannelId(2 * li as u32)], m.net, |_| {});
            let mut emit = |g| {
                self.chans.set(st.chan_len, g);
                st.chan_len += 1;
            };
            // Head slot: the injection channel of the class's first member.
            // Member `j`'s is `head + 2·j` (class members are consecutive
            // node ids and node↔switch links come two per node in node
            // order), which is what lets `chan_at` resolve a pair's
            // injection with the same single arena read as a tail channel.
            emit(self.intra_inj(ci, graph.class_first_node(leaf)));
            m = net.fold_seg(m, &scratch, m.net, emit);
            assert!(
                m.len < 1 << VSTART_POS_BITS,
                "segment too long for the virtual channel window"
            );
        }
        let rec = self.push_rec(&mut st, m);
        st.scratch = scratch;
        st.intra.insert(key, rec);
        rec
    }

    #[inline]
    fn route_ref(&self, src: usize, dst: usize) -> RouteRef {
        let net = &*self.net;
        debug_assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        debug_assert!(src < net.node_cluster.len() && dst < net.node_cluster.len());
        let ci = net.node_cluster[src] as usize;
        if ci == net.node_cluster[dst] as usize {
            let cls = self.intra_cls(src, dst);
            let li = net.node_local[src] as usize;
            let j = net.icn1[ci].class_member_of(li).expect("valid local id") as u32;
            let dead = !net.failed.is_empty() && net.failed[self.intra_inj(ci, li) as usize];
            RouteRef::intra(cls, j, dead)
        } else {
            RouteRef::inter(src as u64, dst as u64)
        }
    }

    #[inline]
    fn num_segments(&self, r: RouteRef) -> u32 {
        if r.tag() == REF_TAG_INTRA {
            1
        } else {
            3
        }
    }

    #[inline]
    fn seg_meta(&self, r: RouteRef, k: u32) -> SegMeta {
        if r.tag() == REF_TAG_INTRA {
            let (cls, j, dead) = r.intra_parts();
            let (len, net) = self.rec_len_net(cls as u64);
            let start = vstart(self.recs.get(cls as u64), j);
            if dead || len == 0 {
                // Same shape the eager table's empty placeholder yields.
                // (`start` is never dereferenced at `len == 0`.)
                return SegMeta {
                    start,
                    len: 0,
                    net,
                    sum_t: 0.0,
                    bottleneck_t: 0.0,
                };
            }
            SegMeta {
                start,
                len,
                net,
                sum_t: f64::from_bits(self.recs.get(cls as u64 + 1)),
                bottleneck_t: f64::from_bits(self.recs.get(cls as u64 + 2)),
            }
        } else {
            let (src, dst) = r.inter_parts();
            let rec = self.inter_rec(src, dst, k) as u64;
            let (len, net) = self.rec_len_net(rec);
            SegMeta {
                start: self.recs.get(rec),
                len,
                net,
                sum_t: f64::from_bits(self.recs.get(rec + 1)),
                bottleneck_t: f64::from_bits(self.recs.get(rec + 2)),
            }
        }
    }

    #[inline]
    fn chan_at(&self, idx: u64) -> u32 {
        if idx & VSTART_TAG == 0 {
            return self.chans.get(idx);
        }
        let pos = idx & ((1 << VSTART_POS_BITS) - 1);
        let off = (idx >> 32) & 0x7fff_ffff;
        if pos == 0 {
            let j = (idx >> VSTART_POS_BITS) as u32 & 0xf_ffff;
            self.chans.get(off) + 2 * j
        } else {
            self.chans.get(off + pos)
        }
    }

    #[inline]
    fn is_unreachable(&self, src: usize, dst: usize) -> bool {
        if self.net.failed.is_empty() {
            return false;
        }
        let (ci, li) = self.net.locate(src);
        if ci == self.net.node_cluster[dst] as usize {
            let cls = self.intra_cls(src, dst);
            self.rec_len_net(cls as u64).0 == 0 || self.net.failed[self.intra_inj(ci, li) as usize]
        } else {
            let recs = [0, 1, 2].map(|k| self.inter_rec(src, dst, k) as u64);
            recs.iter().any(|&rec| self.rec_len_net(rec).0 == 0)
        }
    }

    /// Records materialized so far (intra classes + inter segments).
    fn num_interned_segments(&self) -> usize {
        self.lazy.read().expect("route table lock").segs
    }

    /// Resident bytes: dense id arrays plus arena entries actually
    /// written plus the class map (entry estimate).
    fn resident_bytes(&self) -> usize {
        let st = self.lazy.read().expect("route table lock");
        (self.up_ids.len() + self.down_ids.len() + self.cross_ids.len()) * 4
            + st.chan_len as usize * 4
            + st.rec_len as usize * 8
            + st.intra.len() * (std::mem::size_of::<((u32, u32, u32), u32)>() + 16)
    }
}

/// All deterministic (src, dst) wormhole routes of a built system.
///
/// Routes share structure aggressively: an inter-cluster route is always
/// `up(src) → cross(cluster(src), cluster(dst)) → down(dst)` and
/// intra-cluster routes collapse into `(leaf(src), dst)` equivalence
/// classes. Resolving a [`RouteRef`] to its segments is pure arithmetic
/// plus a handful of array reads, and yields [`SegMeta`] entries whose
/// `sum_t`/`bottleneck_t` are precomputed, which is what keeps the
/// engines' event loops allocation- and rescan-free.
///
/// Two interchangeable representations exist (selected by
/// [`InternMode`]): the lazy class-keyed [`ClassedTable`] (default) and
/// the eager all-pairs [`EagerTable`] oracle. Both produce bit-identical
/// segment metadata for every pair; they differ only in build cost and
/// resident bytes.
// One `RouteTable` exists per built system, so the variant size gap
// (the classed table inlines two 33-pointer chunk spines precisely so
// the per-flit `chan_at` costs no extra indirection) buys hot-path
// speed for a few hundred one-off bytes; boxing would undo that.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum RouteTable {
    /// Eager all-pairs CSR table (the golden oracle; ≤ 65 535 nodes).
    Eager(EagerTable),
    /// Lazy class-keyed table (the default; O(touched classes) space).
    Classed(ClassedTable),
}

impl RouteTable {
    /// The interned route of a (src, dst) pair (flat node indexing).
    ///
    /// # Panics
    /// Debug-panics on `src == dst` (patterns never produce self-traffic).
    #[inline]
    pub fn route_ref(&self, src: usize, dst: usize) -> RouteRef {
        match self {
            RouteTable::Eager(t) => t.route_ref(src, dst),
            RouteTable::Classed(t) => t.route_ref(src, dst),
        }
    }

    /// How many wormhole segments the route crosses (1 intra, 3 inter).
    #[inline]
    pub fn num_segments(&self, r: RouteRef) -> u32 {
        match self {
            RouteTable::Eager(t) => t.num_segments(r),
            RouteTable::Classed(t) => t.num_segments(r),
        }
    }

    /// Whether static faults disconnected the (src, dst) pair: some
    /// segment of its deterministic route has no fault-free Up*/Down*
    /// path. `false` for every pair of a zero-fault build (one branch).
    /// The answer also covers adaptive routing: an adaptive route runs the
    /// same complete search from its drawn up-ports, so it reaches
    /// exactly the pairs a deterministic one reaches.
    #[inline]
    pub fn is_unreachable(&self, src: usize, dst: usize) -> bool {
        match self {
            RouteTable::Eager(t) => t.is_unreachable(src, dst),
            RouteTable::Classed(t) => t.is_unreachable(src, dst),
        }
    }

    /// Metadata of segment `k` (0-based) of route `r`.
    #[inline]
    pub fn seg_meta(&self, r: RouteRef, k: u32) -> SegMeta {
        match self {
            RouteTable::Eager(t) => t.seg_meta(r, k),
            RouteTable::Classed(t) => t.seg_meta(r, k),
        }
    }

    /// The global channel id at position `start + k` of an interned
    /// segment (`k < len`): the engines' per-hop channel lookup. Resolves
    /// plain indices against the flat channel storage and classed virtual
    /// windows arithmetically.
    #[inline]
    pub fn chan_at(&self, idx: u64) -> u32 {
        match self {
            RouteTable::Eager(t) => t.chans[idx as usize],
            RouteTable::Classed(t) => t.chan_at(idx),
        }
    }

    /// The channels of one interned segment, in traversal order.
    pub fn segment_channels(&self, m: SegMeta) -> Vec<u32> {
        (0..m.len as u64)
            .map(|k| self.chan_at(m.start + k))
            .collect()
    }

    /// Number of interned segments: all of them (including empty diagonal
    /// placeholders) for the eager table, the materialized-so-far count
    /// for the classed table.
    pub fn num_interned_segments(&self) -> usize {
        match self {
            RouteTable::Eager(t) => t.num_interned_segments(),
            RouteTable::Classed(t) => t.num_interned_segments(),
        }
    }

    /// Estimated resident bytes of the table's storage — the scale metric
    /// `org_scale` and the benchmark's `build.table_bytes` report.
    pub fn resident_bytes(&self) -> usize {
        match self {
            RouteTable::Eager(t) => t.resident_bytes(),
            RouteTable::Classed(t) => t.resident_bytes(),
        }
    }

    /// Which interning mode built this table.
    pub fn mode(&self) -> InternMode {
        match self {
            RouteTable::Eager(_) => InternMode::Eager,
            RouteTable::Classed(_) => InternMode::Classed,
        }
    }
}

/// A [`SystemSpec`] materialised for simulation: its networks (see
/// [`ClassedTable`], which shares them) and its route table.
#[derive(Debug)]
pub struct BuiltSystem {
    spec: SystemSpec,
    net: Arc<NetLayout>,
    /// Every deterministic route, interned per class or per pair (see
    /// [`RouteTable`]).
    routes: RouteTable,
}

impl BuiltSystem {
    /// Builds all network graphs and their channel times for messages
    /// whose flits are `flit_bytes` long, using the default (balanced)
    /// ascent policy, no faults and classed interning.
    ///
    /// # Panics
    /// A zero-fault build of a spec that passed [`SystemSpec`] validation
    /// cannot fail; any residual error panics with its typed message.
    pub fn build(spec: &SystemSpec, flit_bytes: f64) -> Self {
        Self::try_build_with(
            spec,
            flit_bytes,
            AscentPolicy::default(),
            &FaultSchedule::default(),
        )
        .unwrap_or_else(|e| panic!("zero-fault build of a validated spec failed: {e}"))
    }

    /// The system `cfg` simulates: `spec` under `cfg`'s static faults and
    /// route-interning mode, with the default ascent policy. This is the
    /// build behind [`crate::run_simulation`], [`crate::run_simulation_flit`]
    /// and every scenario run, so a run simulates what its config says.
    ///
    /// # Panics
    /// If the system does not build. The message is the [`BuildError`],
    /// which names the field: e.g. `sim.interning` for an eager table past
    /// [`EAGER_MAX_NODES`]. A validated config always builds.
    pub fn for_config(spec: &SystemSpec, flit_bytes: f64, cfg: &SimConfig) -> Self {
        Self::try_build_full(
            spec,
            flit_bytes,
            AscentPolicy::default(),
            &cfg.faults,
            cfg.interning,
        )
        .unwrap_or_else(|e| panic!("the configured system does not build (validate it first): {e}"))
    }

    /// The full build: explicit ascent policy plus a fault schedule whose
    /// *static* part (`links`, `link_fraction`) is applied here — failed
    /// links are masked out of every interned route (fault-aware Up*/Down*
    /// reroute), disconnected pairs are recorded for
    /// [`RouteTable::is_unreachable`], and the resulting channel mask is
    /// exposed through [`BuiltSystem::static_failed`] for the engines.
    /// Timed `events` are range-checked here but applied by the engines.
    ///
    /// With an inert schedule this is byte-for-byte the historical build.
    pub fn try_build_with(
        spec: &SystemSpec,
        flit_bytes: f64,
        policy: AscentPolicy,
        faults: &FaultSchedule,
    ) -> Result<Self, BuildError> {
        Self::try_build_full(spec, flit_bytes, policy, faults, InternMode::default())
    }

    /// [`BuiltSystem::try_build_with`] with an explicit route-interning
    /// mode: [`InternMode::Classed`] (the default) materializes routes
    /// lazily per equivalence class and scales to millions of endpoints;
    /// [`InternMode::Eager`] pre-interns all pairs (the golden oracle,
    /// ≤ 65 535 nodes). The two are bit-identical in every simulation
    /// result. A system over an id budget ([`validate_budgets`]) fails
    /// before anything is built.
    pub fn try_build_full(
        spec: &SystemSpec,
        flit_bytes: f64,
        policy: AscentPolicy,
        faults: &FaultSchedule,
        interning: InternMode,
    ) -> Result<Self, BuildError> {
        validate_budgets(spec, interning)?;
        let net = Arc::new(NetLayout::build(spec, flit_bytes, policy, faults)?);
        let routes = match interning {
            InternMode::Eager => RouteTable::Eager(EagerTable::build(&net)?),
            InternMode::Classed => RouteTable::Classed(ClassedTable::new(net.clone())),
        };
        Ok(Self {
            spec: spec.clone(),
            net,
            routes,
        })
    }

    /// The static (build-time) failed-channel mask: one bool per global
    /// channel, both directions of a failed link set. Empty — no mask at
    /// all — for zero-fault builds; the engines seed their live fault
    /// state from it.
    pub fn static_failed(&self) -> &[bool] {
        &self.net.failed
    }

    /// The underlying system specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The interned deterministic route table (built once per system).
    #[inline]
    pub fn route_table(&self) -> &RouteTable {
        &self.routes
    }

    /// Total number of global channels.
    pub fn num_channels(&self) -> usize {
        self.net.num_channels
    }

    /// Per-flit transfer time of global channel `c`: its network's `t_cn`
    /// or `t_cs`, found by a binary search over the networks, O(log C).
    /// For cold callers (set-up, tests, diagnostics); the engines read a
    /// channel's time in O(1) through its segment's [`SegMeta::net`].
    ///
    /// # Panics
    /// Panics if `c` is not a channel of the system.
    pub fn chan_time(&self, c: u32) -> f64 {
        assert!(
            (c as usize) < self.num_channels(),
            "channel {c} out of range"
        );
        self.net.nets[self.net.net_of(c)].time(c)
    }

    /// The per-network channel times, indexed by [`SegMeta::net`].
    pub(crate) fn net_times(&self) -> &[NetTimes] {
        &self.net.nets
    }

    /// The network owning global channel `chan`, as the index a
    /// [`SegMeta::net`] holds: cluster `i`'s ICN1 is `i`, its ECN1
    /// `C + i`, ICN2 `2C`. O(log C).
    ///
    /// # Panics
    /// Panics if `chan` is not a channel of the system.
    pub fn network_index(&self, chan: u32) -> u32 {
        assert!(
            (chan as usize) < self.num_channels(),
            "channel {chan} out of range"
        );
        self.net.net_of(chan) as u32
    }

    /// Total number of processing nodes (flat indexing).
    pub fn total_nodes(&self) -> usize {
        self.net.node_cluster.len()
    }

    /// Cluster owning flat node `f`.
    pub fn cluster_of(&self, f: usize) -> usize {
        self.net.node_cluster[f] as usize
    }

    /// Cluster owning a global channel (`None` for ICN2 fabric channels).
    /// Every ICN1 and ECN1 channel belongs to exactly one cluster; this is
    /// the sharded engine's channel → shard partition map.
    pub fn channel_cluster(&self, chan: u32) -> Option<usize> {
        match self.network_of(chan) {
            ("ICN2", _) => None,
            (_, i) => Some(i),
        }
    }

    /// Which network a global channel belongs to, for diagnostics:
    /// `("ICN1", i)`, `("ECN1", i)` or `("ICN2", 0)`. A binary search over
    /// the networks, O(log C).
    pub fn network_of(&self, chan: u32) -> (&'static str, usize) {
        let c = self.net.icn1.len();
        match self.network_index(chan) as usize {
            i if i < c => ("ICN1", i),
            i if i < 2 * c => ("ECN1", i - c),
            _ => ("ICN2", 0),
        }
    }

    /// Human-readable description of a global channel (network, endpoints).
    pub fn describe_channel(&self, chan: u32) -> String {
        let (net, i) = self.network_of(chan);
        let graph = match net {
            "ICN1" => &self.net.icn1[i],
            "ECN1" => &self.net.ecn1[i],
            _ => &self.net.icn2,
        };
        let first = self.net.first(self.network_index(chan));
        let desc = graph.channel(cocnet_topology::ChannelId(chan - first));
        match net {
            "ICN2" => format!("ICN2 {:?} -> {:?}", desc.from, desc.to),
            _ => format!("{net}({i}) {:?} -> {:?}", desc.from, desc.to),
        }
    }

    /// Builds the wormhole segments for a message from flat node `src` to
    /// flat node `dst`.
    ///
    /// * intra-cluster: one segment through ICN1(i);
    /// * inter-cluster: ECN1(i) ascent → ICN2 crossing → ECN1(j) descent,
    ///   three segments separated by the concentrator and dispatcher
    ///   buffers. The ICN2 segment's injection channel *is* the
    ///   concentrator queue; the ECN1(j) segment's first channel is the
    ///   dispatcher queue.
    ///
    /// # Panics
    /// Panics if `src == dst` (patterns never produce self-traffic).
    pub fn segments_for(&self, src: usize, dst: usize) -> Vec<Segment> {
        self.segments(src, dst, &[], &[])
    }

    /// The fault-free segments of `src → dst`, the source network's
    /// ascent preferring the up-ports `up` and the ICN2 crossing `cross`
    /// (both empty for the deterministic route), routed straight through
    /// [`Topology`]: the reference the route stores are held to.
    fn segments(&self, src: usize, dst: usize, up: &[u32], cross: &[u32]) -> Vec<Segment> {
        assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        let net = &*self.net;
        let ((ci, li), (cj, lj)) = (net.locate(src), net.locate(dst));
        let seg = |route: &[ChannelId], off: u32| Segment {
            chans: route.iter().map(|c| off + c.0).collect(),
        };
        let (p, mut scratch) = (net.policy, Vec::new());
        let mode = |digits| RouteMode::Adaptive { digits };
        if ci == cj {
            net.icn1[ci]
                .route_into(li, lj, p, mode(up), None, &mut scratch)
                .expect("valid local ids");
            return vec![seg(&scratch, net.first(ci as u32))];
        }
        net.ecn1[ci]
            .route_exit_into(li, p, mode(up), None, &mut scratch)
            .expect("valid local id");
        let up = seg(&scratch, net.first(net.ecn1_net(ci)));
        net.icn2
            .route_into(ci, cj, p, mode(cross), None, &mut scratch)
            .expect("valid cluster ids");
        let cross = seg(&scratch, net.first(net.icn2_net()));
        net.ecn1[cj]
            .route_entry_into(lj, p, None, &mut scratch)
            .expect("valid local id");
        let down = seg(&scratch, net.first(net.ecn1_net(cj)));
        vec![up, cross, down]
    }
}

impl BuiltSystem {
    /// The smallest single-channel crossing time on the inter-cluster
    /// fabric (every ECN1 and ICN2 channel) — the concrete-channel form
    /// of [`SystemSpec::intercluster_lookahead`], taken over the built
    /// networks. This is the sharded engine's conservative sync
    /// lookahead: a message emitted into the inter-cluster fabric at `t`
    /// cannot request a channel on another shard before `t + Δ`.
    pub fn min_intercluster_channel_time(&self) -> f64 {
        // Networks are numbered all ICN1s, then all ECN1s, then ICN2, so
        // every network from the first ECN1 on is boundary fabric. Each
        // has node channels; only one with switch channels offers `t_cs`.
        let net = &*self.net;
        (net.ecn1_net(0) as usize..net.nets.len())
            .flat_map(|i| {
                let n = net.nets[i];
                [Some(n.t_cn), (n.switch < net.end(i)).then_some(n.t_cs)]
            })
            .flatten()
            .fold(f64::INFINITY, f64::min)
    }

    /// Like [`BuiltSystem::segments_for`], but with per-message random
    /// ascent digits — the oblivious-adaptive routing variant (paper ref
    /// \[7\] contrasts adaptive wormhole routing with the deterministic
    /// scheme the model assumes). Descent stays destination-determined.
    /// The fault-free reference for [`AdaptiveRouteCache::draw`].
    pub fn segments_for_adaptive<R: Rng + ?Sized>(
        &self,
        src: usize,
        dst: usize,
        rng: &mut R,
    ) -> Vec<Segment> {
        let k = self.spec.m / 2;
        let mut digits =
            |len: u32| -> Vec<u32> { (0..len).map(|_| rng.random_range(0..k)).collect() };
        let (ci, cj) = (self.cluster_of(src), self.cluster_of(dst));
        let up = digits(self.spec.clusters[ci].n.saturating_sub(1));
        let cross = if ci == cj {
            Vec::new()
        } else {
            digits(
                self.spec
                    .icn2_height()
                    .expect("validated")
                    .saturating_sub(1),
            )
        };
        self.segments(src, dst, &up, &cross)
    }
}

/// One message's adaptive route, held in its [`AdaptiveRouteCache`]
/// entry: all segments' global channel ids concatenated, plus the same
/// precomputed per-segment metadata the interned table carries.
#[derive(Debug, Clone, Default)]
pub struct CachedRoute {
    /// Global channel ids, segments concatenated ([`SegMeta::start`]
    /// indexes into this).
    pub chans: Vec<u32>,
    /// Per-segment metadata (entries past `nsegs` are default-zero).
    pub segs: [SegMeta; 3],
    /// Segment count: 1 intra-cluster, 3 inter-cluster.
    pub nsegs: u8,
}

/// The adaptive routes of a run, one entry per message, at the index the
/// caller names.
///
/// Adaptive routing is fully determined by the source, the destination
/// and the random ascent digits (the descent is destination-determined),
/// and a (pair, digits) draw almost never recurs, so each message's route
/// is built afresh into its entry, reusing that entry's buffers. The worm
/// engine names the message's slab slot, so the store never holds more
/// entries than the slab has slots: its size follows the live message
/// population, not the run length. The sharded engine's generation oracle
/// appends one entry per generated message and shares the store
/// read-only across shards, so routes survive cross-shard handoffs. A
/// message carries its entry's index as a [`RouteRef::adaptive`]
/// reference.
#[derive(Debug, Default)]
pub struct AdaptiveRouteCache {
    routes: Vec<CachedRoute>,
    /// Buffers of one draw: the ascent digits, and one network's route in
    /// local channel ids.
    digits: Vec<u32>,
    local: Vec<ChannelId>,
}

impl AdaptiveRouteCache {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the store has no entry yet.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route in entry `idx`.
    pub fn route(&self, idx: u32) -> &CachedRoute {
        &self.routes[idx as usize]
    }

    /// Draws the ascent digits of one adaptive message from `src` to `dst`
    /// and builds its route into entry `idx` (growing the store to reach
    /// it), reusing that entry's buffers. The draws are exactly those of
    /// [`BuiltSystem::segments_for_adaptive`] — `n_i − 1` digits for the
    /// source network's ascent, then `n_c − 1` for the ICN2 crossing of an
    /// inter-cluster pair — and so, on a fault-free build, are the
    /// channels; each segment's metadata comes from the same fold as the
    /// interned table's.
    ///
    /// Each leg is routed by `NetLayout::route_leg`, the one place that
    /// knows a leg's graph, network and static faults, so the drawn
    /// digits are the preferred up-ports of the same search a
    /// deterministic route runs: under static faults the ascent, the ICN2
    /// crossing and the descent all avoid the failed links, taking the
    /// first surviving ascent the search reaches from the drawn one (the
    /// drawn up-port first at each level). The caller writes off
    /// unreachable pairs first ([`RouteTable::is_unreachable`]); every
    /// other pair has a surviving path on every leg.
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        built: &BuiltSystem,
        idx: u32,
        src: usize,
        dst: usize,
        rng: &mut R,
    ) {
        assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        let (spec, net) = (built.spec(), &*built.net);
        let (ci, li) = net.locate(src);
        let (cj, lj) = net.locate(dst);
        let up = spec.clusters[ci].n.saturating_sub(1);
        let cross = if ci == cj {
            0
        } else {
            spec.icn2_height().expect("validated").saturating_sub(1)
        };
        let k = spec.m / 2;
        self.digits.clear();
        self.digits
            .extend((0..up + cross).map(|_| rng.random_range(0..k)));
        let (up, cross) = self.digits.split_at(up as usize);

        let idx = idx as usize;
        if idx >= self.routes.len() {
            self.routes.resize_with(idx + 1, CachedRoute::default);
        }
        let route = &mut self.routes[idx];
        route.chans.clear();
        route.segs = [SegMeta::default(); 3];
        let out = &mut self.local;
        let mut append = |k: usize, leg: Leg, digits: &[u32]| {
            let id = net
                .route_leg(leg, digits, out)
                .expect("a built system routes its own nodes");
            debug_assert!(!out.is_empty(), "{leg:?} of a reachable pair survives");
            let start = SegMeta {
                start: route.chans.len() as u64,
                ..SegMeta::default()
            };
            route.segs[k] = net.fold_seg(start, out, id, |g| route.chans.push(g));
        };
        if ci == cj {
            let intra = Leg::Intra {
                ci,
                li,
                lj,
                tail: false,
            };
            append(0, intra, up);
            route.nsegs = 1;
            return;
        }
        append(0, Leg::Up(src), up);
        append(1, Leg::Cross(ci, cj), cross);
        append(2, Leg::Down(dst), &[]);
        route.nsegs = 3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocnet_topology::{ClusterSpec, Endpoint, NetworkCharacteristics};

    fn spec() -> SystemSpec {
        let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
        let c = |n| ClusterSpec {
            n,
            icn1: net1,
            ecn1: net2,
            topology: Default::default(),
        };
        SystemSpec::new(4, vec![c(1), c(1), c(2), c(2)], net1).unwrap()
    }

    #[test]
    fn channel_count_covers_all_networks() {
        let b = BuiltSystem::build(&spec(), 256.0);
        // ICN1 and ECN1 per cluster: 2·n·N directed channels each
        // (clusters: two with n=1,N=4 and two with n=2,N=8); ICN2: 2·n_c·C.
        let per_network: usize = 2 * (2 * 4) + 2 * (2 * 2 * 8);
        let expected = 2 * per_network + 2 * 4;
        assert_eq!(b.num_channels(), expected);
        assert_eq!(b.total_nodes(), 24);
    }

    #[test]
    fn intra_message_is_one_segment() {
        let b = BuiltSystem::build(&spec(), 256.0);
        let segs = b.segments_for(8, 9); // both in cluster 2
        assert_eq!(segs.len(), 1);
        assert!(!segs[0].chans.is_empty());
        assert_eq!(segs[0].chans.len() % 2, 0, "2h channels");
    }

    #[test]
    fn inter_message_is_three_segments() {
        let b = BuiltSystem::build(&spec(), 256.0);
        let segs = b.segments_for(0, 23); // cluster 0 -> cluster 3
        assert_eq!(segs.len(), 3);
        // ECN1(0) ascent: n_0 = 1 channel; ICN2: 2l; ECN1(3) descent: n_3 = 2.
        assert_eq!(segs[0].chans.len(), 1);
        assert_eq!(segs[1].chans.len() % 2, 0);
        assert_eq!(segs[2].chans.len(), 2);
    }

    #[test]
    fn segments_use_disjoint_channel_ranges() {
        let b = BuiltSystem::build(&spec(), 256.0);
        let segs = b.segments_for(0, 23);
        let all: Vec<u32> = segs.iter().flat_map(|s| s.chans.iter().copied()).collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len(), "no channel repeats on a path");
        for &c in &all {
            assert!((c as usize) < b.num_channels());
        }
    }

    #[test]
    fn channel_times_match_network_characteristics() {
        let b = BuiltSystem::build(&spec(), 256.0);
        // Intra path channels use ICN1 times (net1).
        let segs = b.segments_for(8, 9);
        let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let first = segs[0].chans[0];
        assert!((b.chan_time(first) - net1.t_cn(256.0)).abs() < 1e-12);
        // Inter first segment uses ECN1 times (net2).
        let segs = b.segments_for(0, 23);
        let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
        assert!((b.chan_time(segs[0].chans[0]) - net2.t_cn(256.0)).abs() < 1e-12);
    }

    #[test]
    fn adaptive_segments_share_shape_with_deterministic() {
        use rand::SeedableRng;
        let b = BuiltSystem::build(&spec(), 256.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for (src, dst) in [(0usize, 23usize), (8, 9), (4, 12)] {
            let det = b.segments_for(src, dst);
            let ada = b.segments_for_adaptive(src, dst, &mut rng);
            assert_eq!(det.len(), ada.len());
            for (d, a) in det.iter().zip(&ada) {
                assert_eq!(d.chans.len(), a.chans.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn self_traffic_rejected() {
        let b = BuiltSystem::build(&spec(), 256.0);
        b.segments_for(3, 3);
    }

    #[test]
    fn route_table_matches_segments_for_exhaustively() {
        // The interned table must reproduce the legacy per-message route
        // construction exactly — ids, order, and bitwise sum/bottleneck —
        // for every (src, dst) pair of a heterogeneous system.
        let b = BuiltSystem::build(&spec(), 256.0);
        let rt = b.route_table();
        for src in 0..b.total_nodes() {
            for dst in 0..b.total_nodes() {
                if src == dst {
                    continue;
                }
                let legacy = b.segments_for(src, dst);
                let r = rt.route_ref(src, dst);
                assert_eq!(rt.num_segments(r) as usize, legacy.len(), "{src}->{dst}");
                for (k, seg) in legacy.iter().enumerate() {
                    let m = rt.seg_meta(r, k as u32);
                    assert_eq!(
                        rt.segment_channels(m),
                        seg.chans.as_slice(),
                        "{src}->{dst} segment {k}"
                    );
                    let mut sum = 0.0;
                    let mut bot = 0.0f64;
                    for &c in &seg.chans {
                        let t = b.chan_time(c);
                        sum += t;
                        bot = bot.max(t);
                    }
                    assert_eq!(sum.to_bits(), m.sum_t.to_bits(), "{src}->{dst} sum");
                    assert_eq!(bot.to_bits(), m.bottleneck_t.to_bits(), "{src}->{dst} bot");
                }
            }
        }
    }

    #[test]
    fn adaptive_arena_route_matches_legacy_draws() {
        // Same seed → the route store must consume the RNG identically
        // and produce the same channels and bitwise segment metrics as the
        // allocating reference.
        use rand::SeedableRng;
        let b = BuiltSystem::build(&spec(), 256.0);
        let mut rng_legacy = rand::rngs::StdRng::seed_from_u64(42);
        let mut rng_cache = rand::rngs::StdRng::seed_from_u64(42);
        let mut cache = AdaptiveRouteCache::default();
        // Entries are named out of order and reused, an inter route over an
        // intra one and back, so stale buffers would show.
        let draws = [(0usize, 23usize), (8, 9), (4, 12), (23, 0), (10, 11)];
        for ((src, dst), idx) in draws.into_iter().zip([2u32, 0, 2, 0, 2]) {
            let legacy = b.segments_for_adaptive(src, dst, &mut rng_legacy);
            cache.draw(&b, idx, src, dst, &mut rng_cache);
            let route = cache.route(idx);
            assert_eq!(route.nsegs as usize, legacy.len(), "{src}->{dst}");
            assert!(route.segs[legacy.len()..]
                .iter()
                .all(|m| *m == SegMeta::default()));
            for (k, seg) in legacy.iter().enumerate() {
                let m = route.segs[k];
                let got = &route.chans[m.start as usize..(m.start + m.len as u64) as usize];
                assert_eq!(got, seg.chans.as_slice(), "{src}->{dst} segment {k}");
                assert!(got.iter().all(|&c| b.network_index(c) == m.net));
                let mut sum = 0.0;
                let mut bot = 0.0f64;
                for &c in &seg.chans {
                    let t = b.chan_time(c);
                    sum += t;
                    bot = bot.max(t);
                }
                assert_eq!(sum.to_bits(), m.sum_t.to_bits());
                assert_eq!(bot.to_bits(), m.bottleneck_t.to_bits());
            }
        }
    }

    #[test]
    fn faulted_build_is_identical_when_inert() {
        let b0 = BuiltSystem::build(&spec(), 256.0);
        let b1 = BuiltSystem::try_build_with(
            &spec(),
            256.0,
            AscentPolicy::default(),
            &Default::default(),
        )
        .unwrap();
        assert!(b1.static_failed().is_empty());
        let (r0, r1) = (b0.route_table(), b1.route_table());
        for src in 0..b0.total_nodes() {
            for dst in 0..b0.total_nodes() {
                if src == dst {
                    continue;
                }
                assert!(!r1.is_unreachable(src, dst));
                let (a, b) = (r0.route_ref(src, dst), r1.route_ref(src, dst));
                for k in 0..r0.num_segments(a) {
                    assert_eq!(
                        r0.segment_channels(r0.seg_meta(a, k)),
                        r1.segment_channels(r1.seg_meta(b, k))
                    );
                }
            }
        }
    }

    #[test]
    fn faulted_build_reroutes_or_marks_unreachable() {
        // Fail one intra-cluster injection link: the source node of that
        // link cannot reach its cluster peers (injection has no alternate),
        // while everything else stays routable or reroutes.
        let s = spec();
        let b0 = BuiltSystem::build(&s, 256.0);
        // Node 8 is in cluster 2 (n=2): its ICN1 injection channel.
        let inj = b0.segments_for(8, 9)[0].chans[0];
        let faults = FaultSchedule {
            links: vec![inj],
            ..Default::default()
        };
        let b = BuiltSystem::try_build_with(&s, 256.0, AscentPolicy::default(), &faults).unwrap();
        assert!(b.static_failed()[inj as usize]);
        assert!(b.static_failed()[(inj ^ 1) as usize], "tandem reverse");
        let rt = b.route_table();
        assert!(rt.is_unreachable(8, 9));
        assert!(rt.is_unreachable(8, 15));
        assert!(rt.is_unreachable(9, 8), "ejection = reverse of injection");
        assert!(!rt.is_unreachable(9, 10));
        // Inter-cluster routes of node 8 use the ECN1 network — unaffected.
        assert!(!rt.is_unreachable(8, 0));
    }

    #[test]
    fn faulted_build_reroutes_around_switch_fabric_links() {
        // Fail one switch-to-switch link on an intra route of the n=2
        // cluster: the pair must still be reachable via the alternate
        // ascent, and the rerouted segment must avoid the failed channels.
        let s = spec();
        let b0 = BuiltSystem::build(&s, 256.0);
        let seg = &b0.segments_for(8, 15)[0];
        assert!(seg.chans.len() >= 4, "need a switch-fabric hop");
        let up = seg.chans[1]; // first switch-to-switch channel
        let faults = FaultSchedule {
            links: vec![up],
            ..Default::default()
        };
        let b = BuiltSystem::try_build_with(&s, 256.0, AscentPolicy::default(), &faults).unwrap();
        let rt = b.route_table();
        assert!(!rt.is_unreachable(8, 15));
        let r = rt.route_ref(8, 15);
        let chans = rt.segment_channels(rt.seg_meta(r, 0));
        assert!(!chans.contains(&up));
        assert!(!chans.contains(&(up ^ 1)));
        assert!(!chans.is_empty());
    }

    #[test]
    fn adaptive_draws_avoid_static_faults_and_chain() {
        // Eight m=4, n=3 clusters under a two-level ICN2: every leg of an
        // adaptive route has up-ports to draw. On a faulted build, every
        // route `draw` builds for a reachable pair avoids the static mask
        // on all three legs and chains from the source to the destination
        // through each network; the same draws on the fault-free build
        // show that the faults did cut drawn paths.
        use rand::SeedableRng;
        let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let c = ClusterSpec {
            n: 3,
            icn1: net1,
            ecn1: net1,
            topology: Default::default(),
        };
        let s = SystemSpec::new(4, vec![c; 8], net1).unwrap();
        let faults = FaultSchedule {
            link_fraction: 0.1,
            ..Default::default()
        };
        let b = BuiltSystem::try_build_with(&s, 256.0, AscentPolicy::default(), &faults).unwrap();
        let b0 = BuiltSystem::build(&s, 256.0);
        let failed = b.static_failed();
        assert!(failed.iter().any(|&f| f));
        let net = &*b.net;
        let graph = |id: u32| -> &AnyTopology {
            let (c, id) = (net.icn1.len(), id as usize);
            match id {
                i if i < c => &net.icn1[i],
                i if i < 2 * c => &net.ecn1[i - c],
                _ => &net.icn2,
            }
        };
        let (mut cache, mut cache0) =
            (AdaptiveRouteCache::default(), AdaptiveRouteCache::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut rng0 = rand::rngs::StdRng::seed_from_u64(3);
        let (mut drawn, mut rerouted) = (0u32, 0u32);
        for src in 0..b.total_nodes() {
            for dst in 0..b.total_nodes() {
                if src == dst || b.route_table().is_unreachable(src, dst) {
                    continue;
                }
                cache.draw(&b, 0, src, dst, &mut rng);
                cache0.draw(&b0, 0, src, dst, &mut rng0);
                let (route, route0) = (cache.route(0), cache0.route(0));
                drawn += 1;
                rerouted += (route.chans != route0.chans) as u32;
                assert!(route.chans.iter().all(|&c| !failed[c as usize]));
                let ((ci, li), (cj, lj)) = (net.locate(src), net.locate(dst));
                let ends = |seg: usize| {
                    let m = route.segs[seg];
                    let g = graph(m.net);
                    let chans = &route.chans[m.start as usize..(m.start + m.len as u64) as usize];
                    let descs: Vec<_> = chans
                        .iter()
                        .map(|&c| g.channel(ChannelId(c - net.first(m.net))))
                        .collect();
                    assert!(
                        descs.windows(2).all(|w| w[0].to == w[1].from),
                        "{src}->{dst}"
                    );
                    (descs[0].from, descs.last().unwrap().to)
                };
                let node = |i: usize| Endpoint::Node(i as u32);
                if ci == cj {
                    assert_eq!(route.nsegs, 1);
                    assert_eq!(ends(0), (node(li), node(lj)), "{src}->{dst}");
                    continue;
                }
                assert_eq!(route.nsegs, 3);
                let ((up_from, _), (_, down_to)) = (ends(0), ends(2));
                assert_eq!((up_from, down_to), (node(li), node(lj)), "{src}->{dst}");
                assert_eq!(ends(1), (node(ci), node(cj)), "{src}->{dst}");
            }
        }
        assert!(
            drawn > 0 && rerouted > 0,
            "{rerouted} of {drawn} draws rerouted"
        );
    }

    #[test]
    fn link_fraction_sets_are_nested_and_full_fraction_kills_everything() {
        let s = spec();
        let frac = |f: f64| FaultSchedule {
            link_fraction: f,
            ..Default::default()
        };
        let masks: Vec<Vec<bool>> = [0.1, 0.3, 0.7, 1.0]
            .iter()
            .map(|&f| {
                BuiltSystem::try_build_with(&s, 256.0, AscentPolicy::default(), &frac(f))
                    .unwrap()
                    .static_failed()
                    .to_vec()
            })
            .collect();
        for w in masks.windows(2) {
            for (a, b) in w[0].iter().zip(&w[1]) {
                assert!(!a || *b, "fault sets must be nested across fractions");
            }
        }
        assert!(masks[3].iter().all(|&x| x), "fraction 1.0 fails every link");
        let full =
            BuiltSystem::try_build_with(&s, 256.0, AscentPolicy::default(), &frac(1.0)).unwrap();
        assert!(full.route_table().is_unreachable(0, 1));
        assert!(full.route_table().is_unreachable(0, 23));
    }

    #[test]
    fn fault_validation_rejects_bad_inputs() {
        let s = spec();
        let nchan = BuiltSystem::build(&s, 256.0).num_channels();
        let bad_link = FaultSchedule {
            links: vec![nchan as u32],
            ..Default::default()
        };
        assert!(matches!(
            BuiltSystem::try_build_with(&s, 256.0, AscentPolicy::default(), &bad_link),
            Err(BuildError::FaultLinkOutOfRange { .. })
        ));
        assert!(validate_faults(&s, &bad_link)
            .unwrap_err()
            .contains("out of range"));
        let bad_frac = FaultSchedule {
            link_fraction: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            BuiltSystem::try_build_with(&s, 256.0, AscentPolicy::default(), &bad_frac),
            Err(BuildError::BadFaultFraction { .. })
        ));
        assert!(validate_faults(&s, &bad_frac).is_err());
        let bad_event = FaultSchedule {
            events: vec![crate::config::FaultEvent {
                time: -1.0,
                link: 0,
                action: crate::config::FaultAction::Fail,
            }],
            ..Default::default()
        };
        assert!(validate_faults(&s, &bad_event)
            .unwrap_err()
            .contains("time"));
        assert!(validate_faults(&s, &FaultSchedule::default()).is_ok());
    }

    #[test]
    fn expected_channels_matches_built_system() {
        let s = spec();
        assert_eq!(
            expected_channels(&s),
            BuiltSystem::build(&s, 256.0).num_channels() as u128
        );
    }

    /// The linear scan `network_of` replaced: the last ECN1, then ICN1,
    /// network whose first channel is at most `chan`.
    fn network_of_by_scan(b: &BuiltSystem, chan: u32) -> (&'static str, usize) {
        let c = b.spec.num_clusters();
        let first = |i: usize| b.net.nets[i].first;
        if chan >= first(2 * c) {
            return ("ICN2", 0);
        }
        for i in (0..c).rev() {
            if chan >= first(c + i) {
                return ("ECN1", i);
            }
        }
        for i in (0..c).rev() {
            if chan >= first(i) {
                return ("ICN1", i);
            }
        }
        unreachable!("channel id out of range")
    }

    #[test]
    fn network_of_matches_the_linear_scan_at_every_network_edge() {
        let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let torus = ClusterSpec {
            n: 0,
            icn1: net,
            ecn1: net,
            topology: TopoSpec::Torus(TorusShape::new(&[2, 3]).unwrap()),
        };
        let mut mixed = SystemSpec::new(4, vec![torus; 4], net).unwrap();
        mixed.clusters[2].topology = TopoSpec::Torus(TorusShape::new(&[4, 4]).unwrap());
        for spec in [spec(), mixed] {
            let b = BuiltSystem::build(&spec, 256.0);
            let c = spec.num_clusters();
            let starts: Vec<u32> = b.net.nets[..2 * c].iter().map(|n| n.first).collect();
            let icn2_first = b.net.nets[2 * c].first;
            let ends = starts[1..].iter().copied().chain([icn2_first]);
            for (net, (start, end)) in starts.iter().zip(ends).enumerate() {
                let want = (["ICN1", "ECN1"][net / c], net % c);
                for chan in [*start, end - 1] {
                    assert_eq!(b.network_of(chan), want, "channel {chan}");
                    assert_eq!(b.network_of(chan), network_of_by_scan(&b, chan));
                }
            }
            let last = b.num_channels() as u32 - 1;
            for chan in [icn2_first, last] {
                assert_eq!(b.network_of(chan), ("ICN2", 0));
                assert_eq!(b.network_of(chan), network_of_by_scan(&b, chan));
            }
        }
    }

    /// The per-channel fill the per-network entries replaced: every
    /// channel of every network in global order, its time chosen by the
    /// channel's kind.
    fn chan_times_by_kind(b: &BuiltSystem, flit_bytes: f64) -> Vec<f64> {
        use cocnet_topology::ChannelKind;
        let spec = b.spec();
        let mut fill = Vec::new();
        let mut push = |graph: &AnyTopology, net: &NetworkCharacteristics| {
            for i in 0..graph.num_channels() {
                fill.push(match graph.channel(ChannelId(i as u32)).kind {
                    ChannelKind::NodeToSwitch | ChannelKind::SwitchToNode => net.t_cn(flit_bytes),
                    ChannelKind::SwitchToSwitch => net.t_cs(flit_bytes),
                });
            }
        };
        for (g, cluster) in b.net.icn1.iter().zip(&spec.clusters) {
            push(g, &cluster.icn1);
        }
        for (g, cluster) in b.net.ecn1.iter().zip(&spec.clusters) {
            push(g, &cluster.ecn1);
        }
        push(&b.net.icn2, &spec.icn2);
        fill
    }

    #[test]
    fn per_network_times_match_the_per_channel_fill_on_every_channel() {
        let flit = 256.0;
        let nc = |bw, nl, sl| NetworkCharacteristics::new(bw, nl, sl).unwrap();
        // A trap for a minimum taken over both times of every network: a
        // one-level tree's ECN1 has node channels only, and its `t_cs`
        // undercuts every time the inter-cluster fabric really has.
        let trap = nc(1000.0, 0.2, 0.001);
        let cluster = |n, icn1, ecn1| ClusterSpec {
            n,
            icn1,
            ecn1,
            topology: Default::default(),
        };
        let tree = SystemSpec::new(
            4,
            vec![
                cluster(1, nc(500.0, 0.01, 0.02), trap),
                cluster(2, nc(400.0, 0.03, 0.01), nc(250.0, 0.05, 0.01)),
                cluster(3, nc(800.0, 0.02, 0.04), nc(300.0, 0.01, 0.06)),
                cluster(2, nc(450.0, 0.06, 0.02), nc(350.0, 0.02, 0.02)),
            ],
            nc(480.0, 0.04, 0.03),
        )
        .unwrap();
        let torus_cluster = |dims: &[u32], icn1, ecn1| ClusterSpec {
            n: 0,
            icn1,
            ecn1,
            topology: TopoSpec::Torus(TorusShape::new(dims).unwrap()),
        };
        let mut torus = SystemSpec::new(
            4,
            vec![
                torus_cluster(&[2, 3], nc(500.0, 0.01, 0.02), nc(250.0, 0.05, 0.01)),
                torus_cluster(&[4, 4], nc(400.0, 0.03, 0.01), nc(300.0, 0.01, 0.06)),
                torus_cluster(&[3, 2], nc(800.0, 0.02, 0.04), nc(350.0, 0.02, 0.02)),
                torus_cluster(&[2, 2, 2], nc(450.0, 0.06, 0.02), nc(250.0, 0.05, 0.01)),
            ],
            nc(480.0, 0.04, 0.03),
        )
        .unwrap();
        torus.topology = TopoSpec::Torus(TorusShape::new(&[2, 2]).unwrap());
        torus.validate().unwrap();
        for spec in [tree, torus] {
            let b = BuiltSystem::build(&spec, flit);
            let fill = chan_times_by_kind(&b, flit);
            assert_eq!(fill.len(), b.num_channels());
            for (c, want) in fill.iter().enumerate() {
                let c = c as u32;
                assert_eq!(b.chan_time(c).to_bits(), want.to_bits(), "channel {c}");
                let net = b.network_index(c);
                let times = b.net_times()[net as usize];
                assert_eq!(times.time(c).to_bits(), want.to_bits(), "channel {c}");
                assert!(times.first <= c && c < b.net.end(net as usize));
            }
            let from = b.net.first(b.net.ecn1_net(0)) as usize;
            let scan = fill[from..].iter().copied().fold(f64::INFINITY, f64::min);
            let min = b.min_intercluster_channel_time();
            assert_eq!(min.to_bits(), scan.to_bits());
            if spec.topology.is_tree() {
                assert!(trap.t_cs(flit) < min, "the trap is armed");
            }
        }
    }

    #[test]
    fn oversized_systems_fail_the_build_with_a_typed_error() {
        // Checked before anything is built: neither system is ever
        // allocated.
        let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let org = |m, n, clusters| {
            let cluster = ClusterSpec {
                n,
                icn1: net,
                ecn1: net,
                topology: Default::default(),
            };
            SystemSpec::new(m, vec![cluster; clusters], net).unwrap()
        };
        let build = |spec: &SystemSpec, mode| {
            BuiltSystem::try_build_full(
                spec,
                256.0,
                AscentPolicy::default(),
                &FaultSchedule::default(),
                mode,
            )
        };
        let eager_big = org(16, 3, 128);
        assert_eq!(eager_big.total_nodes(), 131_072);
        assert!(validate_budgets(&eager_big, InternMode::Classed).is_ok());
        let Err(BuildError::OverBudget { field, what }) = build(&eager_big, InternMode::Eager)
        else {
            panic!("eager build over its cap");
        };
        assert_eq!(field, "sim.interning");
        assert!(what.contains("65535"), "{what}");
        let huge = org(64, 5, 64);
        assert_eq!(huge.total_nodes(), 1 << 32);
        for mode in [InternMode::Classed, InternMode::Eager] {
            let Err(BuildError::OverBudget { field, what }) = build(&huge, mode) else {
                panic!("build over the id budgets");
            };
            assert_eq!(field, "spec", "{what}");
            assert!(
                what.contains("u32 channel ids") && what.contains("2147483647"),
                "{what}"
            );
        }
        // A one-level tree's route class is the whole cluster: with a
        // torus ICN2 few clusters of 2^21 + 2 nodes stay inside the node
        // budget but not inside the class-position one.
        let mut wide = org(4, 1, 4);
        wide.m = (1 << 21) + 2;
        wide.topology = TopoSpec::Torus(TorusShape::new(&[2, 2]).unwrap());
        wide.validate().unwrap();
        let Err(BuildError::OverBudget { field, what }) = build(&wide, InternMode::Classed) else {
            panic!("build over the class-position budget");
        };
        assert_eq!(field, "spec");
        assert!(what.contains("2^20-member"), "{what}");
        // Just inside the eager cap: the channel and node budgets hold.
        assert!(validate_budgets(&org(4, 3, 4), InternMode::Eager).is_ok());
    }

    #[test]
    fn cluster_of_matches_spec_layout() {
        let b = BuiltSystem::build(&spec(), 256.0);
        assert_eq!(b.cluster_of(0), 0);
        assert_eq!(b.cluster_of(7), 1);
        assert_eq!(b.cluster_of(8), 2);
        assert_eq!(b.cluster_of(23), 3);
    }
}
