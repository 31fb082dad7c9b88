//! Serde round-trips for every serialisable topology type — system specs
//! are configuration artifacts users will store in JSON, so stability of
//! the wire format is part of the public contract.

use cocnet_topology::{
    ClusterSpec, MPortNTree, NetworkCharacteristics, NodeLabel, SwitchLabel, SystemSpec,
};

fn netchar(bw: f64) -> NetworkCharacteristics {
    NetworkCharacteristics::new(bw, 0.01, 0.02).unwrap()
}

#[test]
fn system_spec_round_trips() {
    let c = |n| ClusterSpec {
        n,
        icn1: netchar(500.0),
        ecn1: netchar(250.0),
        topology: Default::default(),
    };
    let spec = SystemSpec::new(4, vec![c(1), c(2), c(2), c(3)], netchar(500.0)).unwrap();
    let json = serde_json::to_string_pretty(&spec).unwrap();
    let back: SystemSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
    assert!(back.validate().is_ok());
    assert_eq!(back.icn2_height().unwrap(), spec.icn2_height().unwrap());
}

#[test]
fn spec_from_handwritten_json() {
    // The format a user would write by hand.
    let json = r#"{
        "m": 4,
        "clusters": [
            {"n": 2, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 2, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 3, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 3, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}}
        ],
        "icn2": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02}
    }"#;
    let spec: SystemSpec = serde_json::from_str(json).unwrap();
    assert!(spec.validate().is_ok());
    assert_eq!(spec.total_nodes(), 48);
}

#[test]
fn torus_spec_round_trips_and_legacy_json_still_parses() {
    use cocnet_topology::{TopoSpec, TorusShape};

    // A hand-written spec mixing a torus cluster with tree clusters.
    let json = r#"{
        "m": 4,
        "clusters": [
            {"icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
             "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01},
             "topology": {"kind": "torus", "dims": [4, 4]}},
            {"n": 3, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 3, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 3, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}}
        ],
        "icn2": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02}
    }"#;
    let spec: SystemSpec = serde_json::from_str(json).unwrap();
    spec.validate().unwrap();
    assert_eq!(
        spec.clusters[0].topology,
        TopoSpec::Torus(TorusShape::new(&[4, 4]).unwrap())
    );
    assert_eq!(spec.clusters[1].topology, TopoSpec::Tree);
    assert_eq!(spec.topology, TopoSpec::Tree, "ICN2 defaults to tree");
    assert_eq!(spec.cluster_nodes(0), 16);
    assert_eq!(spec.total_nodes(), 16 + 3 * 16);

    let back: SystemSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    assert_eq!(spec, back);

    // An unknown topology kind fails loudly.
    let bad = json.replace("torus", "mesh");
    assert!(serde_json::from_str::<SystemSpec>(&bad).is_err());
}

#[test]
fn tree_and_labels_round_trip() {
    let tree = MPortNTree::new(8, 3).unwrap();
    let back: MPortNTree = serde_json::from_str(&serde_json::to_string(&tree).unwrap()).unwrap();
    assert_eq!(tree, back);

    let node = NodeLabel {
        digits: vec![5, 1, 2],
    };
    let back: NodeLabel = serde_json::from_str(&serde_json::to_string(&node).unwrap()).unwrap();
    assert_eq!(node, back);

    let sw = SwitchLabel {
        fixed: vec![5],
        ups: vec![3],
    };
    let back: SwitchLabel = serde_json::from_str(&serde_json::to_string(&sw).unwrap()).unwrap();
    assert_eq!(sw, back);
}
