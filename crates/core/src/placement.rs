//! Job-to-node placement.
//!
//! The paper uses *random placement* throughout (§V: "Random job placement
//! is used in our experiments"), keeping each target application's
//! process-to-node mapping fixed across runs so communication-time
//! differences expose interference rather than mapping luck. We implement
//! that by shuffling the node list once from the placement seed and slicing
//! job partitions off the shuffled order — the same seed yields the same
//! mapping whether or not a background job occupies the other slice.
//! Contiguous placement is included for the ablation discussed in §I.

use dfsim_des::SimRng;
use dfsim_topology::{NodeId, Topology};

/// Placement policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Nodes shuffled uniformly (the paper's setting).
    Random,
    /// Jobs take consecutive node ids (group-contiguous partitions).
    Contiguous,
}

impl Placement {
    /// Every selectable policy (registry order).
    pub const ALL: [Placement; 2] = [Placement::Random, Placement::Contiguous];

    /// Short stable name (spec files, CLI, reports).
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Random => "random",
            Placement::Contiguous => "contiguous",
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Assign `sizes[i]` nodes to each job under the policy. Returns one node
/// list per job; `sizes` must sum to at most the node count.
pub fn place(topo: &Topology, policy: Placement, sizes: &[u32], seed: u64) -> Vec<Vec<NodeId>> {
    let total: u32 = sizes.iter().sum();
    assert!(total <= topo.num_nodes(), "jobs need {total} nodes, system has {}", topo.num_nodes());
    let mut nodes: Vec<NodeId> = (0..topo.num_nodes()).map(NodeId).collect();
    if policy == Placement::Random {
        let mut rng = SimRng::new(seed).derive("placement");
        rng.shuffle(&mut nodes);
    }
    let mut out = Vec::with_capacity(sizes.len());
    let mut cursor = 0usize;
    for &s in sizes {
        out.push(nodes[cursor..cursor + s as usize].to_vec());
        cursor += s as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_topology::DragonflyParams;

    fn topo() -> Topology {
        Topology::new(DragonflyParams::paper_1056()).unwrap()
    }

    #[test]
    fn partitions_are_disjoint_and_sized() {
        let t = topo();
        let jobs = place(&t, Placement::Random, &[528, 512], 1);
        assert_eq!(jobs[0].len(), 528);
        assert_eq!(jobs[1].len(), 512);
        let mut all: Vec<u32> = jobs.iter().flatten().map(|n| n.0).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1040, "overlapping partitions");
    }

    #[test]
    fn same_seed_fixes_the_target_mapping_with_or_without_background() {
        let t = topo();
        let solo = place(&t, Placement::Random, &[528], 9);
        let pair = place(&t, Placement::Random, &[528, 528], 9);
        assert_eq!(solo[0], pair[0], "target mapping must be stable across runs");
    }

    #[test]
    fn different_seeds_differ() {
        let t = topo();
        let a = place(&t, Placement::Random, &[100], 1);
        let b = place(&t, Placement::Random, &[100], 2);
        assert_ne!(a, b);
    }

    #[test]
    fn contiguous_is_identity_order() {
        let t = topo();
        let jobs = place(&t, Placement::Contiguous, &[8, 8], 5);
        assert_eq!(jobs[0], (0..8).map(NodeId).collect::<Vec<_>>());
        assert_eq!(jobs[1], (8..16).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn random_spreads_across_groups() {
        let t = topo();
        let jobs = place(&t, Placement::Random, &[528], 3);
        let groups: std::collections::BTreeSet<u32> =
            jobs[0].iter().map(|&n| t.group_of_node(n).0).collect();
        assert!(groups.len() > 20, "random placement should span most groups");
    }

    #[test]
    #[should_panic(expected = "jobs need")]
    fn oversubscription_panics() {
        let t = topo();
        let _ = place(&t, Placement::Random, &[1000, 100], 0);
    }
}
