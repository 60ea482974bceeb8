//! The serial Metropolis-Hastings step and the SBP sweep built on it
//! (Algorithm 2, the paper's baseline). Each accepted move updates the
//! blockmodel immediately, so every later proposal in the same pass sees
//! fully fresh state; that is exactly the dependency chain that makes this
//! phase inherently serial.
//!
//! [`serial_mh`] is the one copy of that loop. SBP sweeps every vertex with
//! it, H-SBP its influential set `V*`, EA-SBP each worker's shard against a
//! replica, the warm-start refinement its dirty region, and the exact
//! distributed mode each shard's owned vertices.

use super::SweepCounters;
use crate::budget::{RunControl, VERTEX_CHECK_STRIDE};
use crate::config::SbpConfig;
use crate::stats::RunStats;
use hsbp_blockmodel::{
    accept_move, evaluate_move_with, propose_block, Block, Blockmodel, NeighborCounts,
    ProposalArena,
};
use hsbp_collections::SplitMix64;
use hsbp_graph::{Graph, Vertex};

/// What one [`serial_mh`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialPass {
    /// Proposals drawn: the vertices visited before any interrupt.
    pub proposals: u64,
    /// True when the control tripped at a checkpoint and the pass stopped
    /// early. The model is then a consistent prefix of the full pass.
    pub interrupted: bool,
}

/// One serial Metropolis-Hastings pass over `vertices`, in order, against
/// `bm`: propose, gather, evaluate, accept, apply.
///
/// Vertex `v` draws from its own stream `SplitMix64::for_item(salt,
/// sweep_idx, v)`, so the pass is a pure function of the model, the order,
/// `salt` and `sweep_idx`. Every [`VERTEX_CHECK_STRIDE`] vertices (by index
/// within the pass, never before the first) `ctrl` is asked for an
/// interrupt; a tripped control ends the pass there. `on_step(v, moved)`
/// runs once per proposal, in order, with `Some(to)` when the move `v → to`
/// was accepted and applied and `None` otherwise, so a caller can count
/// moves, record them, or charge simulated costs in the exact order of the
/// pass. Allocation-free once `arena` has warmed up.
#[allow(clippy::too_many_arguments)]
pub fn serial_mh(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: impl IntoIterator<Item = Vertex>,
    beta: f64,
    salt: u64,
    sweep_idx: u64,
    ctrl: &RunControl,
    arena: &mut ProposalArena,
    mut on_step: impl FnMut(Vertex, Option<Block>),
) -> SerialPass {
    let mut pass = SerialPass::default();
    for v in vertices {
        if pass.proposals.is_multiple_of(VERTEX_CHECK_STRIDE)
            && pass.proposals > 0
            && ctrl.interrupt_cause().is_some()
        {
            pass.interrupted = true;
            break;
        }
        pass.proposals += 1;
        let mut rng = SplitMix64::for_item(salt, sweep_idx, u64::from(v));
        let from = bm.block_of(v);
        let to = propose_block(graph, bm, bm.assignment(), v, &mut rng);
        let mut moved = None;
        if to != from {
            NeighborCounts::gather_into(
                graph,
                bm.assignment(),
                v,
                &mut arena.scratch,
                &mut arena.counts,
            );
            let eval = evaluate_move_with(bm, from, to, &arena.counts, &mut arena.eval);
            if accept_move(&eval, beta, &mut rng) {
                bm.apply_move(v, from, to, &arena.counts);
                moved = Some(to);
            }
        }
        on_step(v, moved);
    }
    pass
}

/// Serial MH over `vertices` with the simulated cost of every proposal and
/// applied move charged as serial time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn charged_pass(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: impl IntoIterator<Item = Vertex>,
    cfg: &SbpConfig,
    salt: u64,
    sweep_idx: u64,
    stats: &mut RunStats,
    ctrl: &RunControl,
    arena: &mut ProposalArena,
) -> SweepCounters {
    let mut accepted = 0;
    let mut serial_cost = 0.0;
    let pass = serial_mh(
        graph,
        bm,
        vertices,
        cfg.beta,
        salt,
        sweep_idx,
        ctrl,
        arena,
        |v, moved| {
            let incident = graph.incident_arity(v);
            serial_cost += cfg.cost_model.proposal_cost(incident);
            if moved.is_some() {
                serial_cost += cfg.cost_model.update_cost(incident);
                accepted += 1;
            }
        },
    );
    stats.sim_mcmc.add_serial(serial_cost);
    SweepCounters {
        proposals: pass.proposals,
        accepted,
    }
}
