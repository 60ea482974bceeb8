//! Property suite for the end-of-sweep consolidation: the incremental
//! `apply_move` replay and the classic O(E) rebuild land on the same bytes,
//! so a strict drift audit after every sweep (rebuild from membership,
//! compare every component, fail with `HsbpError::StateDrift`) never fires,
//! and auditing leaves every run bit-identical — same assignment, same MDL,
//! same trajectory — for every variant, on random graphs, and under budget
//! truncation.

use hsbp::generator::{generate, DcsbmConfig};
use hsbp::{
    run_sbp_budgeted, CancelToken, Graph, RunBudget, SbpConfig, SbpResult, StopCause, Variant,
};
use proptest::prelude::*;

const VARIANTS: [Variant; 4] = [
    Variant::Metropolis,
    Variant::AsyncGibbs,
    Variant::Hybrid,
    Variant::ExactAsync,
];

fn planted_graph(seed: u64) -> Graph {
    generate(DcsbmConfig {
        num_vertices: 150,
        num_communities: 3,
        target_num_edges: 1200,
        within_between_ratio: 3.0,
        seed,
        ..Default::default()
    })
    .graph
}

/// The run under `budget` at the default audit cadence, and again with a
/// strict audit after every sweep.
fn default_and_audited(
    graph: &Graph,
    cfg: &SbpConfig,
    budget: &RunBudget,
) -> (SbpResult, SbpResult) {
    let run = |cfg: &SbpConfig| match run_sbp_budgeted(graph, cfg, budget, &CancelToken::new()) {
        Ok(result) => result,
        Err(e) => panic!(
            "{:?} run (audit cadence {}) failed: {e}",
            cfg.variant, cfg.audit_cadence
        ),
    };
    let audited = SbpConfig {
        audit_cadence: 1,
        strict_audit: true,
        ..cfg.clone()
    };
    (run(cfg), run(&audited))
}

fn assert_identical(a: &SbpResult, b: &SbpResult, label: &str) {
    assert_eq!(a.assignment, b.assignment, "{label}: assignment diverged");
    assert_eq!(a.num_blocks, b.num_blocks, "{label}: block count diverged");
    assert_eq!(
        a.mdl.total.to_bits(),
        b.mdl.total.to_bits(),
        "{label}: MDL diverged"
    );
    assert_eq!(a.trajectory, b.trajectory, "{label}: trajectory diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every variant survives a strict audit after every sweep and stays
    /// bit-identical to the default-cadence run, and the parallel variants
    /// between them exercise both consolidation paths (Metropolis applies
    /// moves immediately and never consolidates).
    #[test]
    fn consolidation_modes_bit_identical_runs(
        seed in 0u64..500,
        graph_seed in 0u64..5,
    ) {
        let graph = planted_graph(graph_seed);
        let (mut incremental, mut rebuild) = (0, 0);
        for variant in VARIANTS {
            let cfg = SbpConfig::new(variant, seed);
            let (plain, audited) = default_and_audited(&graph, &cfg, &RunBudget::unlimited());
            assert_identical(&plain, &audited, &format!("{variant:?} audited vs default"));
            prop_assert_eq!(audited.stats.audits_run, audited.stats.mcmc_sweeps);
            prop_assert!(audited.stats.drift_events.is_empty());
            incremental += audited.stats.consolidations_incremental;
            rebuild += audited.stats.consolidations_rebuild;
        }
        prop_assert!(incremental > 0, "the incremental path never ran");
        prop_assert!(rebuild > 0, "the rebuild path never ran");
    }

    /// The contract survives budget truncation: a sweep-budgeted run stops
    /// at the same point with the same state under per-sweep strict audit.
    #[test]
    fn consolidation_modes_bit_identical_under_truncation(
        seed in 0u64..500,
        which in 0usize..4,
    ) {
        let graph = planted_graph(2);
        let cfg = SbpConfig::new(VARIANTS[which], seed);
        let (full, _) = default_and_audited(&graph, &cfg, &RunBudget::unlimited());
        prop_assume!(full.stats.mcmc_sweeps >= 2);
        let budget = RunBudget::unlimited().with_max_total_sweeps(full.stats.mcmc_sweeps / 2);
        let (plain, audited) = default_and_audited(&graph, &cfg, &budget);
        prop_assert_eq!(plain.stats.stop_cause, StopCause::SweepBudgetExhausted);
        prop_assert_eq!(audited.stats.stop_cause, StopCause::SweepBudgetExhausted);
        assert_identical(&plain, &audited, "truncated audited vs default");
    }
}
