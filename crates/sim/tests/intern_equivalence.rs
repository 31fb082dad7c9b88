//! Exhaustive equivalence of the class-keyed [`RouteTable`] with the
//! eager all-pairs oracle: for small heterogeneous organizations, both
//! ascent policies and with/without static faults, **every** (src, dst)
//! pair must agree on reachability, segment count, per-segment channel
//! ids in traversal order, the network each segment records, and
//! f64-**bitwise** `sum_t`/`bottleneck_t`. The recorded network must own
//! every channel of its segment: it is how the engines read channel times.
//!
//! This is the contract the classed table's lazy materialization and
//! arithmetic injection recovery are held to — the goldens then pin the
//! same property end-to-end through the engines.

use cocnet_sim::{BuiltSystem, FaultSchedule, InternMode};
use cocnet_topology::{AscentPolicy, ClusterSpec, NetworkCharacteristics, SystemSpec};

/// 24-node heterogeneous org: m = 4, cluster heights (1, 2, 2, 1) — the
/// smallest shape with unequal clusters and a 2-level ICN1 in the mix.
fn hetero24() -> SystemSpec {
    let net1 = NetworkCharacteristics::new(800.0, 0.01, 0.02).unwrap();
    let net2 = NetworkCharacteristics::new(400.0, 0.05, 0.01).unwrap();
    let clusters = [1u32, 2, 2, 1]
        .into_iter()
        .map(|n| ClusterSpec {
            n,
            icn1: net1,
            ecn1: net2,
            topology: Default::default(),
        })
        .collect();
    SystemSpec::new(4, clusters, net1).unwrap()
}

/// 112-node org: m = 8, eight clusters of mixed heights — wider switches,
/// more members per leaf, so injection recovery is exercised for j > 1.
fn wide112() -> SystemSpec {
    let net1 = NetworkCharacteristics::new(1000.0, 0.02, 0.01).unwrap();
    let net2 = NetworkCharacteristics::new(250.0, 0.04, 0.03).unwrap();
    let clusters = [1u32, 2, 1, 1, 2, 1, 1, 1]
        .into_iter()
        .map(|n| ClusterSpec {
            n,
            icn1: net1,
            ecn1: net2,
            topology: Default::default(),
        })
        .collect();
    SystemSpec::new(8, clusters, net1).unwrap()
}

/// Builds `spec` both ways and compares every ordered pair exhaustively.
fn assert_modes_agree(spec: &SystemSpec, policy: AscentPolicy, faults: &FaultSchedule) {
    let eager = BuiltSystem::try_build_full(spec, 256.0, policy, faults, InternMode::Eager)
        .expect("eager build");
    let classed = BuiltSystem::try_build_full(spec, 256.0, policy, faults, InternMode::Classed)
        .expect("classed build");
    assert_eq!(eager.route_table().mode(), InternMode::Eager);
    assert_eq!(classed.route_table().mode(), InternMode::Classed);
    let n = eager.total_nodes();
    assert_eq!(n, classed.total_nodes());
    let (et, ct) = (eager.route_table(), classed.route_table());
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let ctx = format!("{policy:?} {src}->{dst}");
            assert_eq!(
                et.is_unreachable(src, dst),
                ct.is_unreachable(src, dst),
                "{ctx}: reachability"
            );
            let (er, cr) = (et.route_ref(src, dst), ct.route_ref(src, dst));
            assert_eq!(et.num_segments(er), ct.num_segments(cr), "{ctx}: segments");
            for k in 0..et.num_segments(er) {
                let (em, cm) = (et.seg_meta(er, k), ct.seg_meta(cr, k));
                assert_eq!(em.len, cm.len, "{ctx} seg {k}: len");
                assert_eq!(em.net, cm.net, "{ctx} seg {k}: network");
                assert_eq!(
                    em.sum_t.to_bits(),
                    cm.sum_t.to_bits(),
                    "{ctx} seg {k}: sum_t {} vs {}",
                    em.sum_t,
                    cm.sum_t
                );
                assert_eq!(
                    em.bottleneck_t.to_bits(),
                    cm.bottleneck_t.to_bits(),
                    "{ctx} seg {k}: bottleneck_t {} vs {}",
                    em.bottleneck_t,
                    cm.bottleneck_t
                );
                let chans = et.segment_channels(em);
                assert_eq!(chans, ct.segment_channels(cm), "{ctx} seg {k}: channels");
                for c in chans {
                    assert_eq!(
                        eager.network_index(c),
                        em.net,
                        "{ctx} seg {k}: channel {c} outside the segment's network"
                    );
                }
            }
        }
    }
}

fn all_policies() -> [AscentPolicy; 2] {
    [AscentPolicy::TrailingDigits, AscentPolicy::MirrorDescent]
}

#[test]
fn classed_matches_eager_without_faults() {
    for spec in [hetero24(), wide112()] {
        for policy in all_policies() {
            assert_modes_agree(&spec, policy, &FaultSchedule::default());
        }
    }
}

#[test]
fn classed_matches_eager_under_static_link_faults() {
    // Channel 0 is node 0's injection channel (graphs allocate node↔leaf
    // links first, in node order), so this exercises the classed table's
    // per-pair injection demotion as well as trunk masking; the other two
    // ids land inside the shared trunk.
    let faults = FaultSchedule {
        links: vec![0, 7, 11],
        ..FaultSchedule::default()
    };
    for spec in [hetero24(), wide112()] {
        for policy in all_policies() {
            assert_modes_agree(&spec, policy, &faults);
        }
    }
}

#[test]
fn classed_matches_eager_under_fractional_faults() {
    // A deterministic pseudorandom 30% of all physical links fail from
    // time 0 — enough to disconnect some pairs, so both tables must also
    // agree on which routes collapse to empty (unreachable) segments.
    let faults = FaultSchedule {
        link_fraction: 0.3,
        ..FaultSchedule::default()
    };
    for spec in [hetero24(), wide112()] {
        for policy in all_policies() {
            assert_modes_agree(&spec, policy, &faults);
        }
    }
}
