//! End-of-sweep consolidation: folding a sweep's accepted moves back into
//! the blockmodel.
//!
//! The parallel sweep variants (A-SBP, H-SBP's tail, EA-SBP) decide moves
//! against frozen state and only flip a membership vector; the blockmodel
//! must then be brought up to date once per sweep (per batch for batched
//! A-SBP). Historically that was always the O(E) `rebuild`. When only a few
//! vertices actually moved — the common case once the chain starts
//! converging — replaying those moves through [`Blockmodel::apply_move`]
//! costs O(Σ degree(moved)) instead, with no parallel barrier.
//!
//! Both paths land on the *same bytes*: `apply_move` performs exact integer
//! updates and the sparse rows are canonical sorted vectors, so the
//! incremental result is structurally identical to a rebuild from the same
//! membership (property-tested, and checked at runtime by the drift audit
//! with `audit_cadence: 1, strict_audit: true`). The strategy choice is
//! therefore pure performance, made per sweep by the
//! [`hsbp_timing::CostModel`] crossover.

use crate::config::SbpConfig;
use crate::stats::RunStats;
use hsbp_blockmodel::{Block, Blockmodel, NeighborCounts, ProposalArena};
use hsbp_graph::{Graph, Vertex};

/// Replace `bm`'s state with the blockmodel implied by `new_assignment`,
/// replaying the moves incrementally when the cost-model crossover says
/// that undercuts a full rebuild. Charges the simulated-time account and
/// the consolidation counters on `stats`.
pub fn consolidate_sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    new_assignment: Vec<Block>,
    cfg: &SbpConfig,
    arena: &mut ProposalArena,
    stats: &mut RunStats,
) {
    let n = graph.num_vertices();
    debug_assert_eq!(new_assignment.len(), n);
    let current = bm.assignment();
    let mut moves = 0usize;
    let mut incremental_cost = 0.0;
    for v in 0..n {
        if current[v] != new_assignment[v] {
            moves += 1;
            incremental_cost += cfg
                .cost_model
                .consolidation_move_cost(graph.incident_arity(v as Vertex));
        }
    }
    if moves == 0 {
        // Nothing changed: both paths are the identity; charge nothing.
        stats.consolidations_incremental += 1;
    } else if cfg
        .cost_model
        .prefer_incremental_consolidation(incremental_cost, graph.num_edges())
    {
        apply_incremental(graph, bm, &new_assignment, arena);
        stats.consolidated_moves += moves as u64;
        stats.consolidations_incremental += 1;
        stats.sim_mcmc.add_serial(incremental_cost);
    } else {
        bm.rebuild(graph, new_assignment);
        stats.consolidations_rebuild += 1;
        stats.sim_mcmc.add_parallel_uniform(
            cfg.cost_model.rebuild_cost(graph.num_edges()),
            cfg.cost_model.rebuild_serial_fraction,
        );
    }
}

/// Replay every `current != target` vertex through `apply_move`, ascending
/// by vertex id. Each step re-gathers the neighbour census against the
/// *evolving* assignment, so every individual move is exact; the final
/// state is a pure function of `target` (order-independent) and equals
/// `rebuild(graph, target)` byte for byte.
fn apply_incremental(
    graph: &Graph,
    bm: &mut Blockmodel,
    target: &[Block],
    arena: &mut ProposalArena,
) {
    for (v, &to) in target.iter().enumerate() {
        let v = v as Vertex;
        let from = bm.block_of(v);
        if from == to {
            continue;
        }
        NeighborCounts::gather_into(
            graph,
            bm.assignment(),
            v,
            &mut arena.scratch,
            &mut arena.counts,
        );
        bm.apply_move(v, from, to, &arena.counts);
    }
}
