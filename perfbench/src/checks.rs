//! Output checks. Each returns `(name, passed)` pairs that feed the
//! report's `failed` count, so a corrupted output makes the run incorrect.

use crate::inputs::labels_fingerprint;
use hsbp_graph::Graph;

/// NMI against planted truth below which a result counts as wrong. Every
/// workload's current results sit well above it (0.98-1.0).
pub const NMI_FLOOR: f64 = 0.9;

/// The parts of a partition the determinism check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub fingerprint: u64,
    pub mdl_bits: u64,
}

impl Outcome {
    pub fn new(assignment: &[u32], mdl_total: f64) -> Self {
        Self {
            fingerprint: labels_fingerprint(assignment),
            mdl_bits: mdl_total.to_bits(),
        }
    }
}

/// A detection result: labels in range, the reported normalized MDL equal
/// to the one recomputed from the labels, and NMI above the floor.
pub fn partition_checks(
    graph: &Graph,
    truth: &[u32],
    assignment: &[u32],
    num_blocks: usize,
    normalized_mdl: f64,
) -> Vec<(&'static str, bool)> {
    let labels_ok = assignment.len() == graph.num_vertices()
        && assignment.iter().all(|&b| (b as usize) < num_blocks.max(1));
    let recomputed = hsbp_metrics::normalized_mdl(graph, assignment);
    let mdl_ok = (recomputed - normalized_mdl).abs() <= 1e-9 * normalized_mdl.abs().max(1.0);
    let nmi_ok = labels_ok && hsbp_metrics::nmi(truth, assignment) >= NMI_FLOOR;
    vec![
        ("labels in range", labels_ok),
        ("normalized MDL matches the labels", mdl_ok),
        ("NMI above floor", nmi_ok),
    ]
}

/// An exact sharded run under a drop plan: no shard declared dead, and the
/// plan really fired (at least one retransmit).
pub fn shard_checks(dead_shards: usize, retransmits: u64) -> [(&'static str, bool); 2] {
    [
        ("no shard declared dead", dead_shards == 0),
        ("the fault plan fired (retransmits > 0)", retransmits > 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{graph, GraphSpec};
    use hsbp_core::{run_sbp, SbpConfig};

    const SMALL: GraphSpec = GraphSpec {
        vertices: 300,
        communities: 4,
        edges: 3_000,
    };

    #[test]
    fn checks_accept_a_real_result_and_reject_a_flipped_label() {
        let data = graph(SMALL, 3);
        let result = run_sbp(
            &data.graph,
            &SbpConfig {
                seed: 3,
                threads: 1,
                ..Default::default()
            },
        );
        let checks = partition_checks(
            &data.graph,
            &data.ground_truth,
            &result.assignment,
            result.num_blocks,
            result.normalized_mdl,
        );
        assert!(checks.iter().all(|&(_, ok)| ok), "{checks:?}");
        let first = Outcome::new(&result.assignment, result.mdl.total);

        let mut flipped = result.assignment.clone();
        flipped[17] = (flipped[17] + 1) % result.num_blocks as u32;
        assert_ne!(first, Outcome::new(&flipped, result.mdl.total));
        let checks = partition_checks(
            &data.graph,
            &data.ground_truth,
            &flipped,
            result.num_blocks,
            result.normalized_mdl,
        );
        assert!(!checks[1].1, "MDL recomputation must notice the flip");

        // Labels out of range and a scrambled partition fail too.
        let mut out_of_range = result.assignment.clone();
        out_of_range[0] = result.num_blocks as u32;
        let checks = partition_checks(
            &data.graph,
            &data.ground_truth,
            &out_of_range,
            result.num_blocks,
            result.normalized_mdl,
        );
        assert!(!checks[0].1);
        let scrambled: Vec<u32> = (0..data.graph.num_vertices() as u32)
            .map(|v| v % 2)
            .collect();
        let checks = partition_checks(
            &data.graph,
            &data.ground_truth,
            &scrambled,
            2,
            hsbp_metrics::normalized_mdl(&data.graph, &scrambled),
        );
        assert!(!checks[2].1, "NMI floor must reject an unrelated partition");
    }

    #[test]
    fn shard_checks_reject_a_dead_shard_or_a_silent_fault_plan() {
        assert!(shard_checks(0, 3).iter().all(|&(_, ok)| ok));
        assert!(!shard_checks(1, 3)[0].1);
        assert!(!shard_checks(0, 0)[1].1);
    }
}
