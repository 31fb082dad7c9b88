//! Property tests for the interned [`RouteTable`]: for arbitrary
//! heterogeneous systems and both ascent policies, the table must
//! reproduce the legacy `segments_for` construction **exactly** — channel
//! ids, traversal order, and bitwise `sum_t`/`bottleneck_t` — for every
//! (src, dst) pair.

use cocnet_sim::{BuiltSystem, FaultSchedule};
use cocnet_topology::{AscentPolicy, ClusterSpec, NetworkCharacteristics, SystemSpec};
use proptest::prelude::*;

/// Random heterogeneous-but-valid system: m ∈ {4, 8}, tree-sized cluster
/// count, per-cluster heights drawn independently, Table 2-ish networks
/// with random bandwidths. Sizes are capped (≤ a few hundred nodes) so
/// the exhaustive all-pairs comparison stays fast.
fn arb_system() -> impl Strategy<Value = SystemSpec> {
    (0u32..2).prop_flat_map(|mi| {
        let m = [4u32, 8][mi as usize];
        // m = 4 permits two ICN2 levels and taller clusters; m = 8 sticks
        // to one level and low clusters to bound the node count.
        let (n_c, max_height) = if m == 4 {
            (1u32..=2, 3u32)
        } else {
            (1u32..=1, 2u32)
        };
        (
            Just(m),
            n_c,
            100.0f64..1000.0,
            100.0f64..1000.0,
            prop::collection::vec(1u32..=max_height, 2..9),
        )
            .prop_map(|(m, n_c, bw1, bw2, heights)| {
                let count = 2 * (m as usize / 2).pow(n_c);
                let net1 = NetworkCharacteristics::new(bw1, 0.01, 0.02).unwrap();
                let net2 = NetworkCharacteristics::new(bw2, 0.05, 0.01).unwrap();
                let clusters: Vec<ClusterSpec> = (0..count)
                    .map(|i| ClusterSpec {
                        n: heights[i % heights.len()],
                        icn1: net1,
                        ecn1: net2,
                        topology: Default::default(),
                    })
                    .collect();
                SystemSpec::new(m, clusters, net1).unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn interned_segments_match_legacy_for_every_pair(
        spec in arb_system(),
        flit_bytes in 64.0f64..1024.0,
        policy_idx in 0usize..2,
    ) {
        let policy = [AscentPolicy::TrailingDigits, AscentPolicy::MirrorDescent][policy_idx];
        let built =
            BuiltSystem::try_build_with(&spec, flit_bytes, policy, &FaultSchedule::default())
                .unwrap();
        let rt = built.route_table();
        for src in 0..built.total_nodes() {
            for dst in 0..built.total_nodes() {
                if src == dst {
                    continue;
                }
                let legacy = built.segments_for(src, dst);
                let r = rt.route_ref(src, dst);
                prop_assert_eq!(rt.num_segments(r) as usize, legacy.len());
                for (k, seg) in legacy.iter().enumerate() {
                    let m = rt.seg_meta(r, k as u32);
                    // Channel ids, in traversal order.
                    prop_assert_eq!(rt.segment_channels(m), seg.chans.as_slice());
                    // Bitwise agreement of the precomputed metrics with a
                    // fresh accumulation in the same order.
                    let mut sum = 0.0;
                    let mut bot = 0.0f64;
                    for &c in &seg.chans {
                        let t = built.chan_time(c);
                        sum += t;
                        bot = bot.max(t);
                    }
                    prop_assert_eq!(sum.to_bits(), m.sum_t.to_bits());
                    prop_assert_eq!(bot.to_bits(), m.bottleneck_t.to_bits());
                }
            }
        }
    }

    #[test]
    fn route_refs_are_unique_per_pair(spec in arb_system()) {
        let built = BuiltSystem::build(&spec, 256.0);
        let rt = built.route_table();
        let n = built.total_nodes();
        let mut seen = std::collections::HashSet::new();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                prop_assert!(seen.insert(rt.route_ref(src, dst)));
            }
        }
        prop_assert_eq!(seen.len(), n * (n - 1));
    }
}
