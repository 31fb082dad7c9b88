//! The pluggable [`Topology`] backend abstraction: the one route API of
//! the stack.
//!
//! * [`Topology`] — the allocation-free routing trait every backend
//!   implements, writing into a caller-supplied `&mut Vec<ChannelId>`:
//!   one method per route form (node to node, its class-shared tail, exit
//!   and entry), each taking the faults to avoid as an
//!   `Option<&FaultSet>`, plus the route-class algebra the lazy
//!   route-interning table relies on. The node-to-node and exit forms also
//!   take a [`RouteMode`]: an adaptive route is the same fault-avoiding
//!   search, started from the caller's drawn digits instead of the
//!   policy's. The tree backend's implementation lives with [`Graph`], the
//!   torus's with [`Torus`].
//! * [`RouteQuery`] / [`RouteMode`] — the single consolidated entrypoint:
//!   one node-to-node request, deterministic or adaptive, with or without
//!   faults.
//! * [`TopoSpec`] / [`TorusShape`] — the serialisable
//!   `{"kind": "tree" | "torus", ...}` configuration block grown by
//!   [`crate::ClusterSpec`] / [`crate::SystemSpec`], defaulting to `tree`
//!   so every pre-existing scenario parses unchanged.
//! * [`AnyTopology`] — `dyn`-free enum dispatch over the concrete
//!   backends, so the simulator's hot paths stay monomorphic.

use crate::error::TopologyError;
use crate::graph::{AscentPolicy, ChannelDesc, ChannelId, FaultSet, Graph};
use crate::torus::Torus;
use crate::tree::MPortNTree;
use serde::{check_unknown_fields, de_field, DeError, Deserialize, Serialize, Value};

/// How a [`RouteQuery`] picks among the routes a backend offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode<'a> {
    /// The backend's deterministic route (Up*/Down* on a tree,
    /// dimension-order on a torus).
    Deterministic,
    /// The backend's adaptive variant: the caller-supplied digits are the
    /// preferred choices of the same search the deterministic route runs
    /// (the ascent up-ports on a tree, the first dimension of the order on
    /// a torus, whose exit has no adaptive form). Surplus digits are
    /// ignored, missing ones fall back to the deterministic choice, and
    /// faults are avoided exactly as for a deterministic route.
    Adaptive {
        /// The free routing digits, drawn by the caller.
        digits: &'a [u32],
    },
}

impl<'a> RouteMode<'a> {
    /// The caller's digits: none for a deterministic route.
    pub fn digits(self) -> &'a [u32] {
        match self {
            RouteMode::Deterministic => &[],
            RouteMode::Adaptive { digits } => digits,
        }
    }
}

/// One consolidated route request: deterministic or adaptive, with or
/// without faults to avoid (see [`Topology::route_query`]).
#[derive(Debug, Clone, Copy)]
pub struct RouteQuery<'a> {
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Ascent policy (tree backends; ignored by backends without a
    /// policy choice).
    pub policy: AscentPolicy,
    /// Failed links to route around, if any. `None` (or an empty set)
    /// requests the fault-free route.
    pub faults: Option<&'a FaultSet>,
    /// Deterministic or adaptive routing.
    pub mode: RouteMode<'a>,
}

/// A routable interconnection network backend.
///
/// The route methods are allocation-free: they clear and fill a
/// caller-supplied `&mut Vec<ChannelId>` and return a backend-specific
/// route *level* (the NCA level `h` on a tree, where a node-to-node route
/// has `2h` channels; the switch-hop count on a torus). Each form takes
/// the failed links to route around as `faults`, as [`RouteQuery::faults`]
/// does: `None` or an empty set gives the fault-free route, and a pair no
/// fault-free path joins reports [`TopologyError::Disconnected`] with
/// `out` left empty. The node-to-node and exit forms take a [`RouteMode`]
/// too: its digits only reorder the candidates the search tries, so a
/// fault-free adaptive route is the path its digits name, and an adaptive
/// request reaches exactly the pairs a deterministic one reaches. The
/// entry route is provided (the exit route, reversed), and so is
/// [`Topology::route_query`], the one entrypoint that answers a
/// [`RouteQuery`].
///
/// # Channel-layout contract
///
/// Every backend numbers its directed channels so that
/// * the two directions of a physical link occupy consecutive ids
///   ([`Topology::reverse`] `== id ^ 1`, even/odd pairs), and
/// * the node↔switch links come first, two per node in node order, so the
///   injection channel of node `i` is id `2·i` and its ejection channel
///   id `2·i + 1`.
///
/// The route-interning tables and the fault-schedule machinery in the
/// simulator depend on both invariants.
///
/// # Route-class contract
///
/// [`Topology::route_tail_into`] (a route minus its injection channel)
/// must be a pure function of `(route_class_of(src), dst)`: every source
/// in the same class shares the whole tail. On a tree the class is the
/// leaf-switch index; on a torus every node is its own class.
pub trait Topology {
    /// Short backend name used in error messages (`"tree"`, `"torus"`).
    fn backend_name(&self) -> &'static str;

    /// Number of processing nodes.
    fn num_nodes(&self) -> usize;

    /// Total number of directed channels.
    fn num_channels(&self) -> usize;

    /// Descriptor of channel `id`.
    fn channel(&self, id: ChannelId) -> &ChannelDesc;

    /// The opposite direction of the same physical link.
    fn reverse(&self, id: ChannelId) -> ChannelId {
        ChannelId(id.0 ^ 1)
    }

    /// Checks the structural invariants of the built channel graph.
    fn validate(&self) -> Result<(), TopologyError>;

    // ---- routes ------------------------------------------------------------

    /// Route from `src` to `dst` avoiding `faults` (empty for
    /// `src == dst`), preferring `mode`'s digits where it has them;
    /// returns the route level.
    fn route_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        mode: RouteMode<'_>,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError>;

    /// The deterministic [`Topology::route_into`] minus its injection
    /// channel — the part shared by every source of the same route class
    /// (see the trait docs). It ignores faults on the injection channel,
    /// which kill one source rather than the class, so the caller checks
    /// those per source.
    fn route_tail_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError>;

    /// Exit route avoiding `faults`, preferring `mode`'s digits where it
    /// has them: from node `src` to the backend's egress point (a root
    /// switch on a tree, the gateway hyperplane on a torus), where a
    /// concentrator/dispatcher picks the message up.
    fn route_exit_into(
        &self,
        src: usize,
        policy: AscentPolicy,
        mode: RouteMode<'_>,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError>;

    /// Deterministic entry route: from the egress point down/across to
    /// node `dst`, the exit route of `dst` reversed channel by channel.
    /// A fault fails both directions of its link, so a fault-free exit
    /// reversed is a fault-free entry; a `Disconnected` error reports
    /// `dst` as the source of the exit it mirrors.
    fn route_entry_into(
        &self,
        dst: usize,
        policy: AscentPolicy,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        let level = self.route_exit_into(dst, policy, RouteMode::Deterministic, faults, out)?;
        out.reverse();
        for c in out.iter_mut() {
            *c = self.reverse(*c);
        }
        Ok(level)
    }

    // ---- route-class algebra (lazy interning) ------------------------------

    /// Number of route-equivalence classes (see the trait docs).
    fn num_route_classes(&self) -> usize;

    /// Route class of `node`.
    fn route_class_of(&self, node: usize) -> Result<usize, TopologyError>;

    /// Position of `node` within its route class, in
    /// `0..max_class_members()`.
    fn class_member_of(&self, node: usize) -> Result<usize, TopologyError>;

    /// The canonical (first) node of route class `class` — the inverse of
    /// `route_class_of` at member 0.
    fn class_first_node(&self, class: usize) -> usize;

    /// Upper bound on the members of any route class.
    fn max_class_members(&self) -> usize;

    // ---- consolidated entrypoint -------------------------------------------

    /// The single route entrypoint: answers a [`RouteQuery`], in every
    /// [`RouteMode`], with or without faults, by
    /// [`Topology::route_into`].
    fn route_query(
        &self,
        q: &RouteQuery<'_>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        self.route_into(q.src, q.dst, q.policy, q.mode, q.faults, out)
    }
}

/// Validated shape of a 2D/3D torus: per-dimension extents.
///
/// Kept `Copy` (fixed-size storage, unused trailing dimensions hold 1) so
/// [`crate::ClusterSpec`] stays `Copy` like every other spec type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusShape {
    ndims: u8,
    dims: [u32; 3],
}

impl TorusShape {
    /// Hard cap on each dimension's extent.
    pub const MAX_DIM: u32 = 1024;
    /// Hard cap on the total node count (keeps route lengths and the
    /// interning table's packed offsets in range).
    pub const MAX_NODES: usize = 1 << 20;

    /// Validates and builds a torus shape from its dimension extents.
    pub fn new(dims: &[u32]) -> Result<Self, TopologyError> {
        if !(2..=3).contains(&dims.len()) {
            return Err(TopologyError::BadTorusShape {
                what: format!("{} dimensions (must be 2 or 3)", dims.len()),
            });
        }
        let mut nodes = 1usize;
        for (d, &extent) in dims.iter().enumerate() {
            if !(2..=Self::MAX_DIM).contains(&extent) {
                return Err(TopologyError::BadTorusShape {
                    what: format!(
                        "dimension {d} has extent {extent} (must be 2..={})",
                        Self::MAX_DIM
                    ),
                });
            }
            nodes *= extent as usize;
        }
        if nodes > Self::MAX_NODES {
            return Err(TopologyError::BadTorusShape {
                what: format!("{nodes} nodes exceed the cap of {}", Self::MAX_NODES),
            });
        }
        let mut fixed = [1u32; 3];
        fixed[..dims.len()].copy_from_slice(dims);
        Ok(Self {
            ndims: dims.len() as u8,
            dims: fixed,
        })
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[u32] {
        &self.dims[..self.ndims as usize]
    }

    /// Number of dimensions (2 or 3).
    pub fn ndims(&self) -> usize {
        self.ndims as usize
    }

    /// Total node count (product of the extents).
    pub fn num_nodes(&self) -> usize {
        self.dims().iter().map(|&d| d as usize).product()
    }
}

/// Which topology backend a network uses — the serialisable
/// `{"kind": "tree" | "torus", ...}` configuration block.
///
/// Defaults to [`TopoSpec::Tree`] so every spec written before this block
/// existed parses (and behaves) unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopoSpec {
    /// The paper's m-port n-tree (the default); shaped by the spec's `m`
    /// and the cluster's tree height `n`.
    #[default]
    Tree,
    /// A 2D/3D torus with dimension-order routing; shaped by its own
    /// dimension extents (`m` and `n` do not apply).
    Torus(TorusShape),
}

impl TopoSpec {
    /// Short backend name, matching [`Topology::backend_name`].
    pub fn backend_name(&self) -> &'static str {
        match self {
            TopoSpec::Tree => "tree",
            TopoSpec::Torus(_) => "torus",
        }
    }

    /// Whether this is the tree backend.
    pub fn is_tree(&self) -> bool {
        matches!(self, TopoSpec::Tree)
    }
}

impl Serialize for TopoSpec {
    fn to_value(&self) -> Value {
        match self {
            TopoSpec::Tree => Value::Obj(vec![("kind".into(), Value::Str("tree".into()))]),
            TopoSpec::Torus(shape) => Value::Obj(vec![
                ("kind".into(), Value::Str("torus".into())),
                ("dims".into(), shape.dims().to_value()),
            ]),
        }
    }
}

impl Deserialize for TopoSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Obj(_)) {
            return Err(DeError::expected("topology object", v));
        }
        let kind: String = de_field(v, "TopoSpec", "kind")?;
        match kind.as_str() {
            "tree" => {
                check_unknown_fields(v, "TopoSpec", &["kind"])?;
                Ok(TopoSpec::Tree)
            }
            "torus" => {
                check_unknown_fields(v, "TopoSpec", &["kind", "dims"])?;
                let dims: Vec<u32> = de_field(v, "TopoSpec", "dims")?;
                TorusShape::new(&dims)
                    .map(TopoSpec::Torus)
                    .map_err(|e| DeError(format!("TopoSpec.dims: {e}")))
            }
            other => Err(DeError(format!(
                "TopoSpec.kind: unknown topology kind {other:?} (expected \"tree\" or \"torus\")"
            ))),
        }
    }
}

/// `dyn`-free dispatch over the concrete [`Topology`] backends.
#[derive(Debug, Clone)]
pub enum AnyTopology {
    /// An m-port n-tree channel graph.
    Tree(Graph),
    /// A 2D/3D torus channel graph.
    Torus(Torus),
}

impl AnyTopology {
    /// Builds the channel graph a [`TopoSpec`] describes: a tree from
    /// `(m, tree_height)`, a torus from its own shape (`m` and
    /// `tree_height` do not apply).
    pub fn build(m: u32, tree_height: u32, topo: &TopoSpec) -> Result<Self, TopologyError> {
        match topo {
            TopoSpec::Tree => Ok(AnyTopology::Tree(Graph::build(MPortNTree::new(
                m,
                tree_height,
            )?))),
            TopoSpec::Torus(shape) => Ok(AnyTopology::Torus(Torus::build(*shape))),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $t:ident => $body:expr) => {
        match $self {
            AnyTopology::Tree($t) => $body,
            AnyTopology::Torus($t) => $body,
        }
    };
}

impl Topology for AnyTopology {
    fn backend_name(&self) -> &'static str {
        dispatch!(self, t => t.backend_name())
    }

    fn num_nodes(&self) -> usize {
        dispatch!(self, t => Topology::num_nodes(t))
    }

    fn num_channels(&self) -> usize {
        dispatch!(self, t => Topology::num_channels(t))
    }

    fn channel(&self, id: ChannelId) -> &ChannelDesc {
        dispatch!(self, t => Topology::channel(t, id))
    }

    fn validate(&self) -> Result<(), TopologyError> {
        dispatch!(self, t => Topology::validate(t))
    }

    fn route_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        mode: RouteMode<'_>,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_into(t, src, dst, policy, mode, faults, out))
    }

    fn route_tail_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_tail_into(t, src, dst, policy, faults, out))
    }

    fn route_exit_into(
        &self,
        src: usize,
        policy: AscentPolicy,
        mode: RouteMode<'_>,
        faults: Option<&FaultSet>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_exit_into(t, src, policy, mode, faults, out))
    }

    fn num_route_classes(&self) -> usize {
        dispatch!(self, t => Topology::num_route_classes(t))
    }

    fn route_class_of(&self, node: usize) -> Result<usize, TopologyError> {
        dispatch!(self, t => Topology::route_class_of(t, node))
    }

    fn class_member_of(&self, node: usize) -> Result<usize, TopologyError> {
        dispatch!(self, t => Topology::class_member_of(t, node))
    }

    fn class_first_node(&self, class: usize) -> usize {
        dispatch!(self, t => Topology::class_first_node(t, class))
    }

    fn max_class_members(&self) -> usize {
        dispatch!(self, t => Topology::max_class_members(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json;

    #[test]
    fn route_query_dispatches_to_each_form() {
        let g = Graph::build(MPortNTree::new(4, 2).unwrap());
        let policy = AscentPolicy::TrailingDigits;
        let mut out = Vec::new();
        let mut expect = Vec::new();

        let q = RouteQuery {
            src: 0,
            dst: 5,
            policy,
            faults: None,
            mode: RouteMode::Deterministic,
        };
        g.route_query(&q, &mut out).unwrap();
        g.route_into(0, 5, policy, RouteMode::Deterministic, None, &mut expect)
            .unwrap();
        assert_eq!(out, expect);

        let faults = FaultSet::new();
        let q = RouteQuery {
            faults: Some(&faults),
            ..q
        };
        g.route_query(&q, &mut out).unwrap();
        assert_eq!(out, expect, "empty fault set is byte-identical");

        let digits = [1u32, 0];
        let adaptive = RouteMode::Adaptive { digits: &digits };
        let q = RouteQuery {
            faults: None,
            mode: adaptive,
            ..q
        };
        g.route_query(&q, &mut out).unwrap();
        g.route_into(0, 5, policy, adaptive, None, &mut expect)
            .unwrap();
        assert_eq!(out, expect);
        let drawn = out.clone();

        // Under faults the adaptive query routes around them: its drawn
        // up-link is down, so it climbs through the other one.
        let mut faults = FaultSet::new();
        faults.fail_link(drawn[1]);
        let q = RouteQuery {
            faults: Some(&faults),
            ..q
        };
        assert_eq!(g.route_query(&q, &mut out), Ok(2));
        assert_ne!(out, drawn);
        assert!(out.iter().all(|&c| !faults.is_failed(c)));
        // A dead injection link disconnects the pair in either mode.
        let mut faults = faults.clone();
        faults.fail_link(ChannelId(0));
        for mode in [adaptive, RouteMode::Deterministic] {
            let q = RouteQuery {
                faults: Some(&faults),
                mode,
                ..q
            };
            assert_eq!(
                g.route_query(&q, &mut out),
                Err(TopologyError::Disconnected {
                    src: 0,
                    dst: Some(5)
                })
            );
        }
    }

    #[test]
    fn torus_shape_validation() {
        assert!(TorusShape::new(&[4, 4]).is_ok());
        assert!(TorusShape::new(&[2, 3, 4]).is_ok());
        assert!(TorusShape::new(&[4]).is_err());
        assert!(TorusShape::new(&[4, 4, 4, 4]).is_err());
        assert!(TorusShape::new(&[1, 4]).is_err());
        assert!(TorusShape::new(&[2000, 4]).is_err());
        assert!(TorusShape::new(&[1024, 1024, 2]).is_err()); // > 2^20 nodes
        let s = TorusShape::new(&[3, 4, 5]).unwrap();
        assert_eq!(s.dims(), &[3, 4, 5]);
        assert_eq!(s.num_nodes(), 60);
    }

    #[test]
    fn topo_spec_serde_round_trips_and_denies_unknown_fields() {
        let tree: TopoSpec = serde_json::from_str(r#"{"kind": "tree"}"#).unwrap();
        assert_eq!(tree, TopoSpec::Tree);
        let torus: TopoSpec = serde_json::from_str(r#"{"kind": "torus", "dims": [4, 4]}"#).unwrap();
        assert_eq!(torus, TopoSpec::Torus(TorusShape::new(&[4, 4]).unwrap()));
        for spec in [tree, torus] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TopoSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
        assert!(serde_json::from_str::<TopoSpec>(r#"{"kind": "mesh"}"#).is_err());
        assert!(serde_json::from_str::<TopoSpec>(r#"{"kind": "tree", "dims": [4]}"#).is_err());
        assert!(serde_json::from_str::<TopoSpec>(r#"{"kind": "torus"}"#).is_err());
        assert!(serde_json::from_str::<TopoSpec>(r#"{"kind": "torus", "dims": [0, 4]}"#).is_err());
        assert_eq!(TopoSpec::default(), TopoSpec::Tree);
    }
}
