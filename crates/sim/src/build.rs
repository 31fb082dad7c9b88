//! Materialising a [`SystemSpec`] into simulator state: channel tables for
//! every network and path construction for intra- and inter-cluster
//! messages.
//!
//! Global channel numbering concatenates, in order: each cluster's ICN1,
//! each cluster's ECN1, then the ICN2 network. The ICN2 tree's "processing
//! nodes" are the `C` concentrator/dispatcher devices, one per cluster.

use crate::config::{FaultSchedule, InternMode};
use cocnet_topology::{
    AnyTopology, AscentPolicy, ChannelId, ChannelKind, FaultSet, SystemSpec, TopoSpec, Topology,
    TopologyError, TorusShape,
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

/// The network owning global channel `chan` among networks laid out at
/// ascending `offsets`: the last one starting at or below `chan`.
fn owning_network(offsets: &[u32], chan: u32) -> Option<usize> {
    offsets.partition_point(|&o| o <= chan).checked_sub(1)
}

/// Directed channels of one network, from shape arithmetic alone (no
/// graphs built): `2·n·N` for an m-port n-tree, `2·N·(1 + ndims)` for a
/// torus (one node link plus one plus-direction ring link per node per
/// dimension, each with its tandem reverse).
fn network_channels(topo: &TopoSpec, tree: impl FnOnce() -> cocnet_topology::MPortNTree) -> usize {
    match topo {
        TopoSpec::Tree => {
            let t = tree();
            2 * t.n() as usize * t.num_nodes()
        }
        TopoSpec::Torus(s) => 2 * s.num_nodes() * (1 + s.ndims()),
    }
}

/// Total global channels the built system of `spec` will have: each
/// cluster contributes an ICN1 and an ECN1 network, plus the global ICN2.
fn expected_channels(spec: &SystemSpec) -> usize {
    let mut total = 0usize;
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
        if l as usize >= total {
            return Err(format!(
                "faults.links: channel id {l} out of range (system has {total} channels)"
            ));
        }
    }
    for (i, e) in faults.events.iter().enumerate() {
        if e.link as usize >= total {
            return Err(format!(
                "faults.events[{i}]: channel id {} out of range (system has {total} channels)",
                e.link
            ));
        }
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
/// * `11` — an adaptive route: an index into the run's
///   [`AdaptiveRouteCache`], which holds adaptive routes instead of the
///   table (see [`RouteRef::adaptive`]).
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
    /// A reference to the adaptive route at index `idx` of the run's
    /// [`AdaptiveRouteCache`] (as returned by
    /// [`AdaptiveRouteCache::route_idx`]); the engines resolve it there
    /// instead of in the table.
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
        debug_assert!(j < 1 << 20 && cls < 1 << 31);
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
        debug_assert!(src < 1 << 31 && dst < 1 << 31);
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
/// the route table's flat channel array, plus the two per-segment numbers
/// the wormhole drain model needs on every segment completion.
///
/// `sum_t` and `bottleneck_t` are accumulated in traversal order over the
/// exact same `f64` channel times the engine's channel table holds, so the
/// closed-form finish times computed from them are bit-identical to the
/// legacy per-event rescan.
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
    /// Σ of the per-flit channel times, in traversal order.
    pub sum_t: f64,
    /// Max of the per-flit channel times (the segment's drain bottleneck).
    pub bottleneck_t: f64,
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

    /// Interns one segment: local channel ids shifted by the network's
    /// global offset, with `sum`/`bottleneck` accumulated in traversal
    /// order over the same values the engine's channel table will hold.
    fn push_seg(&mut self, route: &[ChannelId], off: u32, chan_time: &[f64]) -> u32 {
        let id = self.next_id();
        let mut sum = 0.0;
        let mut bot = 0.0f64;
        for c in route {
            let g = off + c.0;
            let t = chan_time[g as usize];
            sum += t;
            bot = bot.max(t);
            self.chans.push(g);
        }
        assert!(
            self.chans.len() <= u32::MAX as usize,
            "route table exceeds u32 offset space (clusters too large to intern)"
        );
        self.seg_off.push(self.chans.len() as u32);
        self.seg_sum.push(sum);
        self.seg_bot.push(bot);
        id
    }

    /// Interns an empty placeholder (the unreachable `li == lj` diagonal of
    /// an intra block, kept so block indexing stays a multiplication).
    fn push_empty(&mut self) -> u32 {
        let id = self.next_id();
        self.seg_off.push(self.chans.len() as u32);
        self.seg_sum.push(0.0);
        self.seg_bot.push(0.0);
        id
    }
}

impl EagerTable {
    #[allow(clippy::too_many_arguments)]
    fn build(
        icn1: &[Arc<AnyTopology>],
        ecn1: &[Arc<AnyTopology>],
        icn2: &AnyTopology,
        icn1_off: &[u32],
        ecn1_off: &[u32],
        icn2_off: u32,
        chan_time: &[f64],
        node_cluster: &[u32],
        node_local: &[u32],
        cluster_nodes: &[u32],
        policy: AscentPolicy,
        faults: &GraphFaults,
    ) -> Result<Self, BuildError> {
        let total_nodes = node_cluster.len();
        assert!(
            total_nodes <= u16::MAX as usize,
            "eager route interning is all-pairs and capped at 65535 nodes; \
             use classed interning (`\"interning\": \"Classed\"` / `--interning classed`, \
             the default) for larger systems"
        );
        let c = cluster_nodes.len();
        let mut b = TableBuilder::new();
        let mut scratch: Vec<ChannelId> = Vec::new();
        let mut dead_flags: Vec<bool> = Vec::new();

        // Disconnection under static faults is not a build error: the
        // segment is interned empty, marked dead, and the engines account
        // the affected messages as unreachable. Any other route failure is.
        fn routed(
            r: Result<u32, TopologyError>,
            context: &'static str,
        ) -> Result<bool, BuildError> {
            match r {
                Ok(_) => Ok(true),
                Err(TopologyError::Disconnected { .. }) => Ok(false),
                Err(err) => Err(BuildError::Route { context, err }),
            }
        }

        let mut up_seg = Vec::with_capacity(total_nodes);
        let mut down_seg = Vec::with_capacity(total_nodes);
        for f in 0..total_nodes {
            let ci = node_cluster[f] as usize;
            let li = node_local[f] as usize;
            let fs = &faults.ecn1[ci];
            let ok = routed(
                ecn1[ci].route_exit_into_avoiding(li, policy, fs, &mut scratch),
                "ECN1 ascent",
            )?;
            up_seg.push(if ok {
                b.push_seg(&scratch, ecn1_off[ci], chan_time)
            } else {
                b.push_empty()
            });
            dead_flags.push(!ok);
            let ok = routed(
                ecn1[ci].route_entry_into_avoiding(li, policy, fs, &mut scratch),
                "ECN1 descent",
            )?;
            down_seg.push(if ok {
                b.push_seg(&scratch, ecn1_off[ci], chan_time)
            } else {
                b.push_empty()
            });
            dead_flags.push(!ok);
        }

        let mut cross_seg = Vec::with_capacity(c * c);
        for ci in 0..c {
            for cj in 0..c {
                if ci == cj {
                    cross_seg.push(u32::MAX);
                    continue;
                }
                let ok = routed(
                    icn2.route_into_avoiding(ci, cj, policy, &faults.icn2, &mut scratch),
                    "ICN2 crossing",
                )?;
                cross_seg.push(if ok {
                    b.push_seg(&scratch, icn2_off, chan_time)
                } else {
                    b.push_empty()
                });
                dead_flags.push(!ok);
            }
        }

        let mut intra_base = Vec::with_capacity(c);
        for ci in 0..c {
            intra_base.push((b.seg_off.len() - 1) as u32);
            let ni = cluster_nodes[ci] as usize;
            for li in 0..ni {
                for lj in 0..ni {
                    if li == lj {
                        b.push_empty();
                        dead_flags.push(false);
                        continue;
                    }
                    let ok = routed(
                        icn1[ci].route_into_avoiding(
                            li,
                            lj,
                            policy,
                            &faults.icn1[ci],
                            &mut scratch,
                        ),
                        "ICN1 intra",
                    )?;
                    if ok {
                        b.push_seg(&scratch, icn1_off[ci], chan_time);
                    } else {
                        b.push_empty();
                    }
                    dead_flags.push(!ok);
                }
            }
        }

        // Keep the flags only when something actually died: the empty vec
        // is the zero-fault fast path of `is_unreachable`.
        let dead_segs = if dead_flags.contains(&true) {
            dead_flags
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
            node_cluster: node_cluster.to_vec(),
            node_local: node_local.to_vec(),
            cluster_nodes: cluster_nodes.to_vec(),
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

    #[inline]
    fn seg_id(&self, r: RouteRef, k: u32) -> u32 {
        let (src, dst) = self.decode(r);
        let ci = self.node_cluster[src] as usize;
        let cj = self.node_cluster[dst] as usize;
        if ci == cj {
            let ni = self.cluster_nodes[ci];
            self.intra_base[ci] + self.node_local[src] * ni + self.node_local[dst]
        } else {
            match k {
                0 => self.up_seg[src],
                1 => self.cross_seg[ci * self.num_clusters as usize + cj],
                _ => self.down_seg[dst],
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
        (0..n).any(|k| {
            let s = self.seg_id(r, k);
            self.dead_segs[s as usize]
        })
    }

    #[inline]
    fn seg_meta(&self, r: RouteRef, k: u32) -> SegMeta {
        let s = self.seg_id(r, k) as usize;
        let start = self.seg_off[s];
        SegMeta {
            start: start as u64,
            len: self.seg_off[s + 1] - start,
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
///   recovered arithmetically (`icn1_off + 2·local`) through the virtual
///   [`SegMeta::start`] window, so per-pair storage is zero.
/// * inter-cluster: one ascent record per source node, one descent record
///   per destination node, one crossing record per cluster pair — the
///   same sharing the eager table exploits, minus the quadratic intra
///   blocks and the all-pairs build sweep.
///
/// Static faults are applied per class on the shared trunk
/// ([`Topology::route_tail_into_avoiding`] reroutes or marks the class
/// dead);
/// an injection-link fault demotes only the affected pair via the dead
/// flag carried in its [`RouteRef`].
///
/// Reads after materialization are lock-free: record ids live in dense
/// atomic arrays (or travel inside `RouteRef`s), and record/channel words
/// live in append-only chunked arenas. First-touch materialization is
/// serialized by one write lock with a double-check, so engines sharing
/// the table across threads (the sharded engine, parallel replications)
/// materialize each class exactly once.
#[derive(Debug)]
pub struct ClassedTable {
    icn1: Vec<Arc<AnyTopology>>,
    ecn1: Vec<Arc<AnyTopology>>,
    icn2: Arc<AnyTopology>,
    icn1_off: Vec<u32>,
    ecn1_off: Vec<u32>,
    icn2_off: u32,
    chan_time: Arc<Vec<f64>>,
    /// Static global fault mask (empty for zero-fault builds).
    failed: Arc<Vec<bool>>,
    faults: GraphFaults,
    faulted: bool,
    policy: AscentPolicy,
    node_cluster: Arc<Vec<u32>>,
    node_local: Arc<Vec<u32>>,
    num_clusters: u32,
    total_nodes: u64,
    /// Per flat node: ECN1 ascent record offset, [`UNSET`] until touched.
    up_ids: Vec<AtomicU32>,
    /// Per flat node: ECN1 descent record offset.
    down_ids: Vec<AtomicU32>,
    /// Per (ci, cj) cluster pair, row-major: ICN2 crossing record offset.
    cross_ids: Vec<AtomicU32>,
    /// Flat channel-id storage of every materialized segment.
    chans: ChunkedU32,
    /// Record words: every record is 4 words `[chans_off, sum_t bits,
    /// bottleneck_t bits, len]`. `len` counts the whole segment
    /// (injection included for intra); `len == 0` marks a
    /// fault-disconnected record. An intra class's channel window starts
    /// with a head slot — the injection channel of the leaf's *first*
    /// member, from which member `j`'s is `head + 2·j` — followed by the
    /// shared route tail, so [`ClassedTable::chan_at`] resolves any
    /// position with one arena read.
    recs: ChunkedU64,
    lazy: RwLock<LazyState>,
}

impl ClassedTable {
    #[allow(clippy::too_many_arguments)]
    fn new(
        icn1: Vec<Arc<AnyTopology>>,
        ecn1: Vec<Arc<AnyTopology>>,
        icn2: Arc<AnyTopology>,
        icn1_off: Vec<u32>,
        ecn1_off: Vec<u32>,
        icn2_off: u32,
        chan_time: Arc<Vec<f64>>,
        failed: Arc<Vec<bool>>,
        faults: GraphFaults,
        policy: AscentPolicy,
        node_cluster: Arc<Vec<u32>>,
        node_local: Arc<Vec<u32>>,
    ) -> Self {
        let total = node_cluster.len();
        let c = icn1.len();
        assert!(
            total < 1 << 31,
            "classed route refs encode flat node ids in 31 bits"
        );
        for g in &icn1 {
            assert!(
                g.max_class_members() <= 1 << 20,
                "classed route refs encode the class position in 20 bits"
            );
        }
        let unset = |n: usize| (0..n).map(|_| AtomicU32::new(UNSET)).collect();
        let faulted = !failed.is_empty();
        Self {
            icn1,
            ecn1,
            icn2,
            icn1_off,
            ecn1_off,
            icn2_off,
            chan_time,
            failed,
            faults,
            faulted,
            policy,
            node_cluster,
            node_local,
            num_clusters: c as u32,
            total_nodes: total as u64,
            up_ids: unset(total),
            down_ids: unset(total),
            cross_ids: unset(c * c),
            chans: ChunkedU32::new(),
            recs: ChunkedU64::new(),
            lazy: RwLock::new(LazyState::default()),
        }
    }

    /// Maps a route result to "segment exists": fault disconnection is a
    /// dead (empty) record, any other error is a structural bug — the
    /// lazy analogue of the eager builder's [`BuildError::Route`], which
    /// a spec that passed validation can never hit.
    fn seg_ok(r: Result<u32, TopologyError>, context: &'static str) -> bool {
        match r {
            Ok(_) => true,
            Err(TopologyError::Disconnected { .. }) => false,
            Err(err) => panic!("building {context} route failed: {err}"),
        }
    }

    /// Appends one 4-word inter record (with its channels when `ok`),
    /// returning the record offset. Caller holds the write lock.
    fn push_inter_rec(&self, st: &mut LazyState, ok: bool, route: &[ChannelId], off: u32) -> u32 {
        let chans_off = st.chan_len;
        let mut sum = 0.0f64;
        let mut bot = 0.0f64;
        let mut len = 0u64;
        if ok {
            for c in route {
                let g = off + c.0;
                let t = self.chan_time[g as usize];
                sum += t;
                bot = bot.max(t);
                self.chans.set(st.chan_len, g);
                st.chan_len += 1;
                len += 1;
            }
        }
        let rec = st.rec_len;
        assert!(rec < 1 << 31, "route-record arena exceeds the id budget");
        for w in [chans_off, sum.to_bits(), bot.to_bits(), len] {
            self.recs.set(st.rec_len, w);
            st.rec_len += 1;
        }
        st.segs += 1;
        rec as u32
    }

    /// Record offset of `src`'s ECN1 ascent, materializing on first touch.
    fn up_rec(&self, src: usize) -> u32 {
        let id = self.up_ids[src].load(Ordering::Acquire);
        if id != UNSET {
            return id;
        }
        let mut st = self.lazy.write().expect("route table lock");
        let id = self.up_ids[src].load(Ordering::Acquire);
        if id != UNSET {
            return id;
        }
        let ci = self.node_cluster[src] as usize;
        let li = self.node_local[src] as usize;
        let mut scratch = std::mem::take(&mut st.scratch);
        let ok = Self::seg_ok(
            self.ecn1[ci].route_exit_into_avoiding(
                li,
                self.policy,
                &self.faults.ecn1[ci],
                &mut scratch,
            ),
            "ECN1 ascent",
        );
        let rec = self.push_inter_rec(&mut st, ok, &scratch, self.ecn1_off[ci]);
        st.scratch = scratch;
        self.up_ids[src].store(rec, Ordering::Release);
        rec
    }

    /// Record offset of `dst`'s ECN1 descent, materializing on first touch.
    fn down_rec(&self, dst: usize) -> u32 {
        let id = self.down_ids[dst].load(Ordering::Acquire);
        if id != UNSET {
            return id;
        }
        let mut st = self.lazy.write().expect("route table lock");
        let id = self.down_ids[dst].load(Ordering::Acquire);
        if id != UNSET {
            return id;
        }
        let cj = self.node_cluster[dst] as usize;
        let lj = self.node_local[dst] as usize;
        let mut scratch = std::mem::take(&mut st.scratch);
        let ok = Self::seg_ok(
            self.ecn1[cj].route_entry_into_avoiding(
                lj,
                self.policy,
                &self.faults.ecn1[cj],
                &mut scratch,
            ),
            "ECN1 descent",
        );
        let rec = self.push_inter_rec(&mut st, ok, &scratch, self.ecn1_off[cj]);
        st.scratch = scratch;
        self.down_ids[dst].store(rec, Ordering::Release);
        rec
    }

    /// Record offset of the `ci → cj` ICN2 crossing, materializing on
    /// first touch.
    fn cross_rec(&self, ci: usize, cj: usize) -> u32 {
        let idx = ci * self.num_clusters as usize + cj;
        let id = self.cross_ids[idx].load(Ordering::Acquire);
        if id != UNSET {
            return id;
        }
        let mut st = self.lazy.write().expect("route table lock");
        let id = self.cross_ids[idx].load(Ordering::Acquire);
        if id != UNSET {
            return id;
        }
        let mut scratch = std::mem::take(&mut st.scratch);
        let ok = Self::seg_ok(
            self.icn2
                .route_into_avoiding(ci, cj, self.policy, &self.faults.icn2, &mut scratch),
            "ICN2 crossing",
        );
        let rec = self.push_inter_rec(&mut st, ok, &scratch, self.icn2_off);
        st.scratch = scratch;
        self.cross_ids[idx].store(rec, Ordering::Release);
        rec
    }

    /// The global injection channel of local node `li` in cluster `ci`:
    /// node↔leaf links are the first channels of every graph, two per node
    /// in node order, so injection is `2·li` locally.
    #[inline]
    fn intra_inj(&self, ci: usize, li: usize) -> u32 {
        self.icn1_off[ci] + 2 * li as u32
    }

    /// Class record of the intra pair `(src, dst)`, materializing the
    /// class — keyed `(cluster, route_class(src), dst)` — on first touch
    /// by any member pair.
    fn intra_cls(&self, src: usize, dst: usize) -> u32 {
        let ci = self.node_cluster[src];
        let li = self.node_local[src] as usize;
        let lj = self.node_local[dst];
        let leaf = self.icn1[ci as usize]
            .route_class_of(li)
            .expect("valid local id") as u32;
        let key = (ci, leaf, lj);
        if let Some(&cls) = self.lazy.read().expect("route table lock").intra.get(&key) {
            return cls;
        }
        let mut st = self.lazy.write().expect("route table lock");
        if let Some(&cls) = st.intra.get(&key) {
            return cls;
        }
        let graph = &self.icn1[ci as usize];
        let mut scratch = std::mem::take(&mut st.scratch);
        let ok = Self::seg_ok(
            graph.route_tail_into_avoiding(
                li,
                lj as usize,
                self.policy,
                &self.faults.icn1[ci as usize],
                &mut scratch,
            ),
            "ICN1 intra",
        );
        let off = self.icn1_off[ci as usize];
        let chans_off = st.chan_len;
        let mut sum = 0.0f64;
        let mut bot = 0.0f64;
        let mut len = 0u64;
        if ok {
            assert!(
                chans_off < 1 << 31,
                "channel arena exceeds the virtual-window offset budget"
            );
            // Fold exactly as the eager builder does, injection first. The
            // materializing pair's injection time stands in for every
            // member's: all ICN1 injection channels share one t_cn, so the
            // folded sum/bottleneck are class-uniform bit for bit.
            let t = self.chan_time[self.intra_inj(ci as usize, li) as usize];
            sum += t;
            bot = bot.max(t);
            len = 1;
            // Head slot: the injection channel of the class's first member.
            // Member `j`'s is `head + 2·j` (class members are consecutive
            // node ids and node↔switch links come two per node in node
            // order), which is what lets `chan_at` resolve a pair's
            // injection with the same single arena read as a tail channel.
            let base = self.intra_inj(ci as usize, graph.class_first_node(leaf as usize));
            self.chans.set(st.chan_len, base);
            st.chan_len += 1;
            for c in &scratch {
                let g = off + c.0;
                let t = self.chan_time[g as usize];
                sum += t;
                bot = bot.max(t);
                self.chans.set(st.chan_len, g);
                st.chan_len += 1;
                len += 1;
            }
            assert!(
                len < 1 << VSTART_POS_BITS,
                "segment too long for the virtual channel window"
            );
        }
        let rec = st.rec_len;
        assert!(rec < 1 << 31, "route-record arena exceeds the id budget");
        for w in [chans_off, sum.to_bits(), bot.to_bits(), len] {
            self.recs.set(st.rec_len, w);
            st.rec_len += 1;
        }
        st.segs += 1;
        st.scratch = scratch;
        st.intra.insert(key, rec as u32);
        rec as u32
    }

    #[inline]
    fn route_ref(&self, src: usize, dst: usize) -> RouteRef {
        debug_assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        debug_assert!(src < self.total_nodes as usize && dst < self.total_nodes as usize);
        let ci = self.node_cluster[src];
        if ci == self.node_cluster[dst] {
            let cls = self.intra_cls(src, dst);
            let li = self.node_local[src] as usize;
            let j = self.icn1[ci as usize]
                .class_member_of(li)
                .expect("valid local id") as u32;
            let dead = self.faulted && self.failed[self.intra_inj(ci as usize, li) as usize];
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
            let len = self.recs.get(cls as u64 + 3) as u32;
            let start = vstart(self.recs.get(cls as u64), j);
            if dead || len == 0 {
                // Same shape the eager table's empty placeholder yields.
                // (`start` is never dereferenced at `len == 0`.)
                return SegMeta {
                    start,
                    len: 0,
                    sum_t: 0.0,
                    bottleneck_t: 0.0,
                };
            }
            SegMeta {
                start,
                len,
                sum_t: f64::from_bits(self.recs.get(cls as u64 + 1)),
                bottleneck_t: f64::from_bits(self.recs.get(cls as u64 + 2)),
            }
        } else {
            let (src, dst) = r.inter_parts();
            let rec = match k {
                0 => self.up_rec(src),
                1 => self.cross_rec(
                    self.node_cluster[src] as usize,
                    self.node_cluster[dst] as usize,
                ),
                _ => self.down_rec(dst),
            } as u64;
            SegMeta {
                start: self.recs.get(rec),
                len: self.recs.get(rec + 3) as u32,
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
        if !self.faulted {
            return false;
        }
        let ci = self.node_cluster[src] as usize;
        let cj = self.node_cluster[dst] as usize;
        if ci == cj {
            let cls = self.intra_cls(src, dst);
            if self.recs.get(cls as u64 + 3) as u32 == 0 {
                return true;
            }
            self.failed[self.intra_inj(ci, self.node_local[src] as usize) as usize]
        } else {
            let up = self.up_rec(src) as u64;
            let cross = self.cross_rec(ci, cj) as u64;
            let down = self.down_rec(dst) as u64;
            self.recs.get(up + 3) == 0
                || self.recs.get(cross + 3) == 0
                || self.recs.get(down + 3) == 0
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
    /// The answer also covers adaptive routing — adaptive ascents explore
    /// a subset of the same path space the fault-aware search exhausts.
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

/// Reusable buffers for building one message's adaptive route without
/// allocating: the worm engine owns one per simulator and the capacity is
/// retained across messages.
#[derive(Debug, Default)]
pub struct AdaptiveScratch {
    digits: Vec<u32>,
    route: Vec<ChannelId>,
}

/// A [`SystemSpec`] materialised for simulation.
///
/// Graphs and lookup tables live behind `Arc`s: clusters with the same
/// `(m, n)` share one graph (a million-endpoint org has thousands of
/// identical clusters but only a handful of distinct trees), and the
/// [`ClassedTable`] holds the same `Arc`s instead of copies.
#[derive(Debug)]
pub struct BuiltSystem {
    spec: SystemSpec,
    icn1: Vec<Arc<AnyTopology>>,
    ecn1: Vec<Arc<AnyTopology>>,
    icn2: Arc<AnyTopology>,
    icn1_off: Vec<u32>,
    ecn1_off: Vec<u32>,
    icn2_off: u32,
    /// Per-flit transfer time of every global channel.
    chan_time: Arc<Vec<f64>>,
    /// Flat-node → (cluster, local) lookup.
    node_cluster: Arc<Vec<u32>>,
    node_local: Arc<Vec<u32>>,
    /// Up*/Down* ascent policy used for every route.
    policy: AscentPolicy,
    /// Every deterministic route, interned per class or per pair (see
    /// [`RouteTable`]).
    routes: RouteTable,
    /// Static (build-time) fault mask: one bool per global channel, both
    /// directions of a failed link set. Empty for zero-fault builds.
    failed: Arc<Vec<bool>>,
}

impl BuiltSystem {
    /// Builds all network graphs and the global channel table for messages
    /// whose flits are `flit_bytes` long, using the default (balanced)
    /// ascent policy.
    pub fn build(spec: &SystemSpec, flit_bytes: f64) -> Self {
        Self::build_with_policy(spec, flit_bytes, AscentPolicy::default())
    }

    /// [`BuiltSystem::build`] with an explicit Up*/Down* ascent policy
    /// (see the `ablation_routing` experiment).
    ///
    /// # Panics
    /// A zero-fault build of a spec that passed [`SystemSpec`] validation
    /// cannot fail; any residual error panics with its typed message.
    pub fn build_with_policy(spec: &SystemSpec, flit_bytes: f64, policy: AscentPolicy) -> Self {
        Self::try_build_with(spec, flit_bytes, policy, &FaultSchedule::default())
            .unwrap_or_else(|e| panic!("zero-fault build of a validated spec failed: {e}"))
    }

    /// Fallible form of [`BuiltSystem::build`] with the default policy and
    /// no faults.
    pub fn try_build(spec: &SystemSpec, flit_bytes: f64) -> Result<Self, BuildError> {
        Self::try_build_with(
            spec,
            flit_bytes,
            AscentPolicy::default(),
            &FaultSchedule::default(),
        )
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
    /// result.
    pub fn try_build_full(
        spec: &SystemSpec,
        flit_bytes: f64,
        policy: AscentPolicy,
        faults: &FaultSchedule,
        interning: InternMode,
    ) -> Result<Self, BuildError> {
        let c = spec.num_clusters();
        let mut icn1 = Vec::with_capacity(c);
        let mut ecn1 = Vec::with_capacity(c);
        let mut icn1_off = Vec::with_capacity(c);
        let mut ecn1_off = Vec::with_capacity(c);
        let mut chan_time: Vec<f64> = Vec::new();

        let push_graph = |graph: &AnyTopology, t_cn: f64, t_cs: f64, chan_time: &mut Vec<f64>| {
            let off = chan_time.len() as u32;
            for i in 0..graph.num_channels() {
                let kind = graph.channel(cocnet_topology::ChannelId(i as u32)).kind;
                chan_time.push(match kind {
                    ChannelKind::NodeToSwitch | ChannelKind::SwitchToNode => t_cn,
                    ChannelKind::SwitchToSwitch => t_cs,
                });
            }
            off
        };

        // One channel graph per distinct shape — clusters with the same
        // backend shape (tree `(m, n)` or torus dims) share the structure
        // (channel ids, routes) even though their channel *times* differ,
        // which the per-network offsets into `chan_time` already express.
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
            let net = &spec.clusters[i].icn1;
            icn1_off.push(push_graph(
                &g,
                net.t_cn(flit_bytes),
                net.t_cs(flit_bytes),
                &mut chan_time,
            ));
            icn1.push(g);
        }
        for i in 0..c {
            let g = get_graph(&spec.clusters[i].topology, spec.clusters[i].n);
            let net = &spec.clusters[i].ecn1;
            ecn1_off.push(push_graph(
                &g,
                net.t_cn(flit_bytes),
                net.t_cs(flit_bytes),
                &mut chan_time,
            ));
            ecn1.push(g);
        }
        let icn2_height = if spec.topology.is_tree() {
            spec.icn2_height().expect("validated")
        } else {
            0
        };
        let icn2 = get_graph(&spec.topology, icn2_height);
        let icn2_off = push_graph(
            &icn2,
            spec.icn2.t_cn(flit_bytes),
            spec.icn2.t_cs(flit_bytes),
            &mut chan_time,
        );

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
            icn1_off.iter().chain(ecn1_off.iter()).all(|&o| o % 2 == 0) && icn2_off % 2 == 0,
            "network offsets must be even for global reverse = id ^ 1"
        );

        let num_channels = chan_time.len();
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
        let mut gf = GraphFaults::empty(c);
        for g in (0..failed.len()).step_by(2) {
            if !failed[g] {
                continue;
            }
            let g32 = g as u32;
            if g32 >= icn2_off {
                gf.icn2.fail_link(ChannelId(g32 - icn2_off));
            } else if let Some(i) = owning_network(&ecn1_off, g32) {
                gf.ecn1[i].fail_link(ChannelId(g32 - ecn1_off[i]));
            } else {
                let i = owning_network(&icn1_off, g32).expect("channel below every offset");
                gf.icn1[i].fail_link(ChannelId(g32 - icn1_off[i]));
            }
        }

        let cluster_nodes: Vec<u32> = (0..c).map(|i| spec.cluster_nodes(i) as u32).collect();
        let chan_time = Arc::new(chan_time);
        let node_cluster = Arc::new(node_cluster);
        let node_local = Arc::new(node_local);
        let failed = Arc::new(failed);
        let routes = match interning {
            InternMode::Eager => RouteTable::Eager(EagerTable::build(
                &icn1,
                &ecn1,
                &icn2,
                &icn1_off,
                &ecn1_off,
                icn2_off,
                &chan_time,
                &node_cluster,
                &node_local,
                &cluster_nodes,
                policy,
                &gf,
            )?),
            InternMode::Classed => RouteTable::Classed(ClassedTable::new(
                icn1.clone(),
                ecn1.clone(),
                icn2.clone(),
                icn1_off.clone(),
                ecn1_off.clone(),
                icn2_off,
                chan_time.clone(),
                failed.clone(),
                gf,
                policy,
                node_cluster.clone(),
                node_local.clone(),
            )),
        };

        Ok(Self {
            spec: spec.clone(),
            icn1,
            ecn1,
            icn2,
            icn1_off,
            ecn1_off,
            icn2_off,
            chan_time,
            node_cluster,
            node_local,
            policy,
            routes,
            failed,
        })
    }

    /// The static (build-time) failed-channel mask: one bool per global
    /// channel, both directions of a failed link set. Empty — no mask at
    /// all — for zero-fault builds; the engines seed their live fault
    /// state from it.
    pub fn static_failed(&self) -> &[bool] {
        &self.failed
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
        self.chan_time.len()
    }

    /// Per-flit transfer time of global channel `c`.
    pub fn chan_time(&self, c: u32) -> f64 {
        self.chan_time[c as usize]
    }

    /// Per-flit transfer times of every global channel, indexed by id.
    pub fn chan_times(&self) -> &[f64] {
        &self.chan_time
    }

    /// Total number of processing nodes (flat indexing).
    pub fn total_nodes(&self) -> usize {
        self.node_cluster.len()
    }

    /// Cluster owning flat node `f`.
    pub fn cluster_of(&self, f: usize) -> usize {
        self.node_cluster[f] as usize
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
    /// the network offsets, O(log C).
    pub fn network_of(&self, chan: u32) -> (&'static str, usize) {
        if chan >= self.icn2_off {
            return ("ICN2", 0);
        }
        match owning_network(&self.ecn1_off, chan) {
            Some(i) => ("ECN1", i),
            None => (
                "ICN1",
                owning_network(&self.icn1_off, chan).expect("channel id out of range"),
            ),
        }
    }

    /// Human-readable description of a global channel (network, endpoints).
    pub fn describe_channel(&self, chan: u32) -> String {
        let (net, i) = self.network_of(chan);
        let (graph, off) = match net {
            "ICN1" => (&self.icn1[i], self.icn1_off[i]),
            "ECN1" => (&self.ecn1[i], self.ecn1_off[i]),
            _ => (&self.icn2, self.icn2_off),
        };
        let desc = graph.channel(cocnet_topology::ChannelId(chan - off));
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
        assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        let (ci, li) = (
            self.node_cluster[src] as usize,
            self.node_local[src] as usize,
        );
        let (cj, lj) = (
            self.node_cluster[dst] as usize,
            self.node_local[dst] as usize,
        );
        let seg = |route: &[ChannelId], off: u32| Segment {
            chans: route.iter().map(|c| off + c.0).collect(),
        };
        let mut scratch: Vec<ChannelId> = Vec::new();
        if ci == cj {
            self.icn1[ci]
                .route_into(li, lj, self.policy, &mut scratch)
                .expect("valid local ids");
            return vec![seg(&scratch, self.icn1_off[ci])];
        }
        self.ecn1[ci]
            .route_exit_into(li, self.policy, &mut scratch)
            .expect("valid local id");
        let up = seg(&scratch, self.ecn1_off[ci]);
        self.icn2
            .route_into(ci, cj, self.policy, &mut scratch)
            .expect("valid cluster ids");
        let cross = seg(&scratch, self.icn2_off);
        self.ecn1[cj]
            .route_entry_into(lj, self.policy, &mut scratch)
            .expect("valid local id");
        let down = seg(&scratch, self.ecn1_off[cj]);
        vec![up, cross, down]
    }
}

impl BuiltSystem {
    /// How many random ascent digits an adaptive route from `src` to
    /// `dst` consumes: `(up, cross)` — `n_i − 1` free ascent choices in
    /// the first network, plus `n_c − 1` in ICN2 for inter-cluster pairs.
    pub fn adaptive_digit_counts(&self, src: usize, dst: usize) -> (u32, u32) {
        let ci = self.node_cluster[src] as usize;
        let cj = self.node_cluster[dst] as usize;
        let n_i = self.spec.clusters[ci].n.saturating_sub(1);
        if ci == cj {
            (n_i, 0)
        } else {
            let n_c = self.spec.icn2_height().expect("validated");
            (n_i, n_c.saturating_sub(1))
        }
    }

    /// Draws an adaptive route's ascent digits into `digits` — exactly
    /// the same count and order [`BuiltSystem::segments_for_adaptive`]
    /// consumes, so separating the draw from the route construction
    /// (e.g. to consult a memo cache between the two) never perturbs the
    /// RNG stream.
    pub fn adaptive_draw_digits<R: Rng + ?Sized>(
        &self,
        src: usize,
        dst: usize,
        rng: &mut R,
        digits: &mut Vec<u32>,
    ) {
        let k = self.spec.m / 2;
        let (up, cross) = self.adaptive_digit_counts(src, dst);
        digits.clear();
        for _ in 0..up + cross {
            digits.push(rng.random_range(0..k));
        }
    }

    /// Materialises the adaptive route selected by pre-drawn ascent
    /// `digits` (`up` digits first, then `cross`, as laid out by
    /// [`BuiltSystem::adaptive_draw_digits`]). `out` is cleared and filled
    /// with global channel ids; the returned metas index into `out` and
    /// carry the same precomputed `sum_t`/`bottleneck_t` the interned
    /// table provides for deterministic routes. Identical digits produce
    /// bit-identical channel lists and segment metadata.
    pub fn adaptive_route_from_digits(
        &self,
        src: usize,
        dst: usize,
        digits: &[u32],
        scratch: &mut AdaptiveScratch,
        out: &mut Vec<u32>,
    ) -> ([SegMeta; 3], u8) {
        assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        out.clear();
        let (ci, li) = (
            self.node_cluster[src] as usize,
            self.node_local[src] as usize,
        );
        let (cj, lj) = (
            self.node_cluster[dst] as usize,
            self.node_local[dst] as usize,
        );
        let mut metas = [SegMeta::default(); 3];
        let append = |route: &[ChannelId], off: u32, out: &mut Vec<u32>| -> SegMeta {
            let start = out.len() as u32;
            let mut sum = 0.0;
            let mut bot = 0.0f64;
            for c in route {
                let g = off + c.0;
                let t = self.chan_time[g as usize];
                sum += t;
                bot = bot.max(t);
                out.push(g);
            }
            SegMeta {
                start: start as u64,
                len: out.len() as u32 - start,
                sum_t: sum,
                bottleneck_t: bot,
            }
        };
        if ci == cj {
            self.icn1[ci]
                .route_adaptive_into(li, lj, digits, &mut scratch.route)
                .expect("valid local ids");
            metas[0] = append(&scratch.route, self.icn1_off[ci], out);
            return (metas, 1);
        }
        let n_up = self.spec.clusters[ci].n.saturating_sub(1) as usize;
        self.ecn1[ci]
            .route_exit_adaptive_into(li, &digits[..n_up], &mut scratch.route)
            .expect("valid local id");
        metas[0] = append(&scratch.route, self.ecn1_off[ci], out);
        self.icn2
            .route_adaptive_into(ci, cj, &digits[n_up..], &mut scratch.route)
            .expect("valid cluster ids");
        metas[1] = append(&scratch.route, self.icn2_off, out);
        self.ecn1[cj]
            .route_entry_into(lj, self.policy, &mut scratch.route)
            .expect("valid local id");
        metas[2] = append(&scratch.route, self.ecn1_off[cj], out);
        (metas, 3)
    }

    /// The smallest single-channel crossing time on the inter-cluster
    /// fabric (every ECN1 and ICN2 channel) — the concrete-channel form
    /// of [`SystemSpec::intercluster_lookahead`], taken over the built
    /// channel table. This is the sharded engine's conservative sync
    /// lookahead: a message emitted into the inter-cluster fabric at `t`
    /// cannot request a channel on another shard before `t + Δ`.
    pub fn min_intercluster_channel_time(&self) -> f64 {
        // Channel numbering is all ICN1s, then all ECN1s, then ICN2, so
        // everything at or past the first ECN1 offset is boundary fabric.
        let from = self.ecn1_off.first().copied().unwrap_or(self.icn2_off) as usize;
        self.chan_time[from..]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Like [`BuiltSystem::segments_for`], but with per-message random
    /// ascent digits — the oblivious-adaptive routing variant (paper ref
    /// \[7\] contrasts adaptive wormhole routing with the deterministic
    /// scheme the model assumes). Descent stays destination-determined.
    pub fn segments_for_adaptive<R: Rng + ?Sized>(
        &self,
        src: usize,
        dst: usize,
        rng: &mut R,
    ) -> Vec<Segment> {
        assert_ne!(src, dst, "self-traffic is excluded by assumption 2");
        let k = self.spec.m / 2;
        let mut digits =
            |len: u32| -> Vec<u32> { (0..len).map(|_| rng.random_range(0..k)).collect() };
        let (ci, li) = (
            self.node_cluster[src] as usize,
            self.node_local[src] as usize,
        );
        let (cj, lj) = (
            self.node_cluster[dst] as usize,
            self.node_local[dst] as usize,
        );
        let seg = |route: &[ChannelId], off: u32| Segment {
            chans: route.iter().map(|c| off + c.0).collect(),
        };
        let mut scratch: Vec<ChannelId> = Vec::new();
        if ci == cj {
            let n = self.spec.clusters[ci].n;
            let d = digits(n.saturating_sub(1));
            self.icn1[ci]
                .route_adaptive_into(li, lj, &d, &mut scratch)
                .expect("valid local ids");
            return vec![seg(&scratch, self.icn1_off[ci])];
        }
        let n_i = self.spec.clusters[ci].n;
        let n_c = self.spec.icn2_height().expect("validated");
        let d_up = digits(n_i.saturating_sub(1));
        self.ecn1[ci]
            .route_exit_adaptive_into(li, &d_up, &mut scratch)
            .expect("valid local id");
        let up = seg(&scratch, self.ecn1_off[ci]);
        let d_cross = digits(n_c.saturating_sub(1));
        self.icn2
            .route_adaptive_into(ci, cj, &d_cross, &mut scratch)
            .expect("valid cluster ids");
        let cross = seg(&scratch, self.icn2_off);
        self.ecn1[cj]
            .route_entry_into(lj, self.policy, &mut scratch)
            .expect("valid local id");
        let down = seg(&scratch, self.ecn1_off[cj]);
        vec![up, cross, down]
    }
}

/// One materialised adaptive route, shared through
/// [`AdaptiveRouteCache`]: all segments' global channel ids concatenated,
/// plus the same precomputed per-segment metadata the interned table
/// carries.
#[derive(Debug, Clone)]
pub struct CachedRoute {
    /// Global channel ids, segments concatenated ([`SegMeta::start`]
    /// indexes into this).
    pub chans: Vec<u32>,
    /// Per-segment metadata (entries past `nsegs` are default-zero).
    pub segs: [SegMeta; 3],
    /// Segment count: 1 intra-cluster, 3 inter-cluster.
    pub nsegs: u8,
}

/// Memoized adaptive routes, keyed by `(src·N + dst, packed ascent
/// digits)`.
///
/// Adaptive routing is fully determined by the source, the destination
/// and the random ascent digits — the descent is destination-determined —
/// so repeated (pair, digits) combinations need not re-walk the graph's
/// per-hop switch maps. The cache draws exactly the digits the uncached
/// path would ([`BuiltSystem::adaptive_draw_digits`]), so cached and
/// uncached runs consume the identical RNG stream and produce
/// bit-identical routes. Entries are never evicted: the key space per
/// run is bounded by (pairs × kᵈⁱᵍⁱᵗˢ) and in practice by the far
/// smaller set of combinations the traffic pattern actually draws.
///
/// The cache is also the engines' only adaptive route store: a message
/// carries its route's index (a [`RouteRef::adaptive`] reference), and
/// the sharded engine shares one cache read-only across shards, so routes
/// survive cross-shard handoffs.
#[derive(Debug, Default)]
pub struct AdaptiveRouteCache {
    map: std::collections::HashMap<(u64, u64), u32>,
    routes: Vec<CachedRoute>,
}

impl AdaptiveRouteCache {
    /// Number of distinct routes materialised so far.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no route has been materialised yet.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route behind an index returned by
    /// [`AdaptiveRouteCache::route_idx`].
    pub fn route(&self, idx: u32) -> &CachedRoute {
        &self.routes[idx as usize]
    }

    /// Draws the ascent digits for one adaptive message (consuming the
    /// RNG exactly as [`BuiltSystem::segments_for_adaptive`] would) and
    /// returns the index of the selected route, materialising it on first
    /// use. Indices stay valid for the cache's lifetime.
    pub fn route_idx<R: Rng + ?Sized>(
        &mut self,
        built: &BuiltSystem,
        src: usize,
        dst: usize,
        rng: &mut R,
        scratch: &mut AdaptiveScratch,
    ) -> u32 {
        built.adaptive_draw_digits(src, dst, rng, &mut scratch.digits);
        let digits = std::mem::take(&mut scratch.digits);
        // Pack the digits into one base-2^bits key. Every digit is < k,
        // so ceil(log2 k) bits each are injective; k = 1 packs to the
        // single code 0, which is exact (all-zero digits, one route).
        let k = built.spec().m / 2;
        let bits = 32 - (k.max(1) - 1).leading_zeros();
        let key = if digits.len() as u32 * bits <= 64 {
            let mut code = 0u64;
            for &d in &digits {
                code = (code << bits) | d as u64;
            }
            Some((src as u64 * built.total_nodes() as u64 + dst as u64, code))
        } else {
            // Unpackable digit strings (absurdly deep trees): build
            // unkeyed, still stored here so the index resolves.
            None
        };
        let idx = match key.and_then(|k| self.map.get(&k).copied()) {
            Some(idx) => idx,
            None => {
                let mut chans = Vec::new();
                let (segs, nsegs) =
                    built.adaptive_route_from_digits(src, dst, &digits, scratch, &mut chans);
                let idx = self.routes.len() as u32;
                self.routes.push(CachedRoute { chans, segs, nsegs });
                if let Some(k) = key {
                    self.map.insert(k, idx);
                }
                idx
            }
        };
        scratch.digits = digits;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocnet_topology::{ClusterSpec, NetworkCharacteristics};

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
        // Same seed → the route cache must consume the RNG identically
        // and produce the same channels and bitwise segment metrics as the
        // allocating reference.
        use rand::SeedableRng;
        let b = BuiltSystem::build(&spec(), 256.0);
        let mut rng_legacy = rand::rngs::StdRng::seed_from_u64(42);
        let mut rng_cache = rand::rngs::StdRng::seed_from_u64(42);
        let mut scratch = AdaptiveScratch::default();
        let mut cache = AdaptiveRouteCache::default();
        for (src, dst) in [(0usize, 23usize), (8, 9), (4, 12), (23, 0), (10, 11)] {
            let legacy = b.segments_for_adaptive(src, dst, &mut rng_legacy);
            let idx = cache.route_idx(&b, src, dst, &mut rng_cache, &mut scratch);
            let route = cache.route(idx);
            assert_eq!(route.nsegs as usize, legacy.len(), "{src}->{dst}");
            for (k, seg) in legacy.iter().enumerate() {
                let m = route.segs[k];
                let got = &route.chans[m.start as usize..(m.start + m.len as u64) as usize];
                assert_eq!(got, seg.chans.as_slice(), "{src}->{dst} segment {k}");
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
            BuiltSystem::build(&s, 256.0).num_channels()
        );
    }

    /// The linear scan `network_of` replaced: the last ECN1, then ICN1,
    /// network whose offset is at most `chan`.
    fn network_of_by_scan(b: &BuiltSystem, chan: u32) -> (&'static str, usize) {
        if chan >= b.icn2_off {
            return ("ICN2", 0);
        }
        for i in (0..b.ecn1_off.len()).rev() {
            if chan >= b.ecn1_off[i] {
                return ("ECN1", i);
            }
        }
        for i in (0..b.icn1_off.len()).rev() {
            if chan >= b.icn1_off[i] {
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
            let starts: Vec<u32> = b.icn1_off.iter().chain(&b.ecn1_off).copied().collect();
            let ends = starts[1..].iter().copied().chain([b.icn2_off]);
            for (net, (start, end)) in starts.iter().zip(ends).enumerate() {
                let want = (["ICN1", "ECN1"][net / c], net % c);
                for chan in [*start, end - 1] {
                    assert_eq!(b.network_of(chan), want, "channel {chan}");
                    assert_eq!(b.network_of(chan), network_of_by_scan(&b, chan));
                }
            }
            let last = b.num_channels() as u32 - 1;
            for chan in [b.icn2_off, last] {
                assert_eq!(b.network_of(chan), ("ICN2", 0));
                assert_eq!(b.network_of(chan), network_of_by_scan(&b, chan));
            }
        }
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
