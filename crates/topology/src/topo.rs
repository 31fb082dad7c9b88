//! The pluggable [`Topology`] backend abstraction: the one route API of
//! the stack.
//!
//! * [`Topology`] — the allocation-free routing trait every backend
//!   implements (deterministic, adaptive and fault-avoiding forms, all
//!   writing into a caller-supplied `&mut Vec<ChannelId>`), plus the
//!   route-class algebra the lazy route-interning table relies on. The
//!   tree backend's implementation lives with [`Graph`], the torus's with
//!   [`Torus`].
//! * [`RouteQuery`] / [`RouteMode`] — the single consolidated entrypoint
//!   that dispatches one request to the matching specialised method.
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
    /// The backend's adaptive variant, shaped by caller-supplied digits
    /// (interpreted per backend; surplus digits are ignored, missing ones
    /// fall back to the deterministic choice).
    Adaptive {
        /// The free routing digits, drawn by the caller.
        digits: &'a [u32],
    },
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
/// The core methods are allocation-free: they clear and fill a
/// caller-supplied `&mut Vec<ChannelId>` and return a backend-specific
/// route *level* (the NCA level `h` on a tree, where a node-to-node route
/// has `2h` channels; the switch-hop count on a torus). Fault-avoiding
/// and adaptive forms come with provided-method defaults so a minimal
/// backend only implements the deterministic core.
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

    // ---- deterministic core ------------------------------------------------

    /// Deterministic route from `src` to `dst` (empty for `src == dst`);
    /// returns the route level.
    fn route_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError>;

    /// Deterministic route minus its injection channel — the part shared
    /// by every source of the same route class (see the trait docs).
    fn route_tail_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        let level = self.route_into(src, dst, policy, out)?;
        if !out.is_empty() {
            out.remove(0);
        }
        Ok(level)
    }

    /// Deterministic exit route: from node `src` to the backend's egress
    /// point (a root switch on a tree, the gateway hyperplane on a
    /// torus), where a concentrator/dispatcher picks the message up.
    fn route_exit_into(
        &self,
        src: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError>;

    /// Deterministic entry route: the mirror of
    /// [`Topology::route_exit_into`], from the egress point down/across to
    /// node `dst` (reversed channels of the exit route).
    fn route_entry_into(
        &self,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError>;

    // ---- adaptive forms ----------------------------------------------------

    /// Adaptive route shaped by caller-supplied digits. The default
    /// ignores the digits and routes deterministically, which satisfies
    /// the contract that missing digits fall back to the deterministic
    /// choice.
    fn route_adaptive_into(
        &self,
        src: usize,
        dst: usize,
        digits: &[u32],
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        let _ = digits;
        self.route_into(src, dst, AscentPolicy::TrailingDigits, out)
    }

    /// Adaptive exit route shaped by caller-supplied digits. Backends
    /// without adaptive exits (the torus) report
    /// [`TopologyError::UnsupportedByBackend`], which is the default.
    fn route_exit_adaptive_into(
        &self,
        src: usize,
        digits: &[u32],
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        let _ = (src, digits, &out);
        Err(TopologyError::UnsupportedByBackend {
            backend: self.backend_name(),
            what: "adaptive exit digits",
        })
    }

    // ---- fault-avoiding forms ----------------------------------------------

    /// Deterministic route avoiding `faults`. An empty fault set must be
    /// byte-identical to [`Topology::route_into`]; the default supports
    /// only that case.
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
        Err(TopologyError::UnsupportedByBackend {
            backend: self.backend_name(),
            what: "fault-avoiding routes",
        })
    }

    /// Fault-avoiding form of [`Topology::route_tail_into`]: ignores
    /// faults on the (class-variant) injection channel, which the caller
    /// checks per source.
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
        Err(TopologyError::UnsupportedByBackend {
            backend: self.backend_name(),
            what: "fault-avoiding routes",
        })
    }

    /// Fault-avoiding form of [`Topology::route_exit_into`].
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
        Err(TopologyError::UnsupportedByBackend {
            backend: self.backend_name(),
            what: "fault-avoiding routes",
        })
    }

    /// Fault-avoiding form of [`Topology::route_entry_into`].
    fn route_entry_into_avoiding(
        &self,
        dst: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        if faults.is_empty() {
            return self.route_entry_into(dst, policy, out);
        }
        Err(TopologyError::UnsupportedByBackend {
            backend: self.backend_name(),
            what: "fault-avoiding routes",
        })
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

    /// The single route entrypoint: dispatches a [`RouteQuery`] to the
    /// matching specialised method. Adaptive routing combined with a
    /// non-empty fault set is not offered by any backend and reports
    /// [`TopologyError::UnsupportedByBackend`].
    fn route_query(
        &self,
        q: &RouteQuery<'_>,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        match (q.mode, q.faults) {
            (RouteMode::Deterministic, None) => self.route_into(q.src, q.dst, q.policy, out),
            (RouteMode::Deterministic, Some(f)) => {
                self.route_into_avoiding(q.src, q.dst, q.policy, f, out)
            }
            (RouteMode::Adaptive { digits }, None) => {
                self.route_adaptive_into(q.src, q.dst, digits, out)
            }
            (RouteMode::Adaptive { digits }, Some(f)) if f.is_empty() => {
                self.route_adaptive_into(q.src, q.dst, digits, out)
            }
            (RouteMode::Adaptive { .. }, Some(_)) => Err(TopologyError::UnsupportedByBackend {
                backend: self.backend_name(),
                what: "adaptive routing combined with fault avoidance",
            }),
        }
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

    /// The tree backend, if that is what this is.
    pub fn as_tree(&self) -> Option<&Graph> {
        match self {
            AnyTopology::Tree(g) => Some(g),
            AnyTopology::Torus(_) => None,
        }
    }

    /// The torus backend, if that is what this is.
    pub fn as_torus(&self) -> Option<&Torus> {
        match self {
            AnyTopology::Tree(_) => None,
            AnyTopology::Torus(t) => Some(t),
        }
    }

    /// The tree backend, or [`TopologyError::UnsupportedByBackend`] with
    /// the caller-supplied operation name — the checked replacement for
    /// the old "it must be a tree" unwraps.
    pub fn expect_tree(&self, what: &'static str) -> Result<&Graph, TopologyError> {
        self.as_tree().ok_or(TopologyError::UnsupportedByBackend {
            backend: self.backend_name(),
            what,
        })
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
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_into(t, src, dst, policy, out))
    }

    fn route_tail_into(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_tail_into(t, src, dst, policy, out))
    }

    fn route_exit_into(
        &self,
        src: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_exit_into(t, src, policy, out))
    }

    fn route_entry_into(
        &self,
        dst: usize,
        policy: AscentPolicy,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_entry_into(t, dst, policy, out))
    }

    fn route_adaptive_into(
        &self,
        src: usize,
        dst: usize,
        digits: &[u32],
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_adaptive_into(t, src, dst, digits, out))
    }

    fn route_exit_adaptive_into(
        &self,
        src: usize,
        digits: &[u32],
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_exit_adaptive_into(t, src, digits, out))
    }

    fn route_into_avoiding(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_into_avoiding(t, src, dst, policy, faults, out))
    }

    fn route_tail_into_avoiding(
        &self,
        src: usize,
        dst: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_tail_into_avoiding(t, src, dst, policy, faults, out))
    }

    fn route_exit_into_avoiding(
        &self,
        src: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_exit_into_avoiding(t, src, policy, faults, out))
    }

    fn route_entry_into_avoiding(
        &self,
        dst: usize,
        policy: AscentPolicy,
        faults: &FaultSet,
        out: &mut Vec<ChannelId>,
    ) -> Result<u32, TopologyError> {
        dispatch!(self, t => Topology::route_entry_into_avoiding(t, dst, policy, faults, out))
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
        let mut out = Vec::new();
        let mut expect = Vec::new();

        let q = RouteQuery {
            src: 0,
            dst: 5,
            policy: AscentPolicy::TrailingDigits,
            faults: None,
            mode: RouteMode::Deterministic,
        };
        g.route_query(&q, &mut out).unwrap();
        g.route_into(0, 5, AscentPolicy::TrailingDigits, &mut expect)
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
        let q = RouteQuery {
            faults: None,
            mode: RouteMode::Adaptive { digits: &digits },
            ..q
        };
        g.route_query(&q, &mut out).unwrap();
        g.route_adaptive_into(0, 5, &digits, &mut expect).unwrap();
        assert_eq!(out, expect);

        let mut faults = FaultSet::new();
        faults.fail_link(ChannelId(0));
        let q = RouteQuery {
            faults: Some(&faults),
            mode: RouteMode::Adaptive { digits: &digits },
            ..q
        };
        assert!(matches!(
            g.route_query(&q, &mut out),
            Err(TopologyError::UnsupportedByBackend { .. })
        ));
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
