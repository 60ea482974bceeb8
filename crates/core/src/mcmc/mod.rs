//! The MCMC phase: repeated sweeps of one of the three variants until the
//! MDL improvement stalls (Algorithms 2–4's shared outer `repeat … until
//! ΔMDL < t × MDL or x times` loop).

mod async_gibbs;
mod consolidate;
mod exact_async;
mod hybrid;
mod metropolis;

pub use consolidate::consolidate_sweep;
pub use metropolis::{serial_mh, SerialPass};

use crate::budget::{RunControl, StopCause};
use crate::config::{SbpConfig, Variant};
use crate::error::HsbpError;
use crate::stats::{DriftEvent, RunStats};
use hsbp_blockmodel::{audit_blockmodel, mdl, repair_blockmodel, Blockmodel, ProposalArena};
use hsbp_collections::sample::mix_words;
use hsbp_graph::{stats::vertices_by_degree_desc, Graph, Vertex};
use hsbp_parallel::ChunkPlan;

/// Counters returned by a single sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SweepCounters {
    pub proposals: u64,
    pub accepted: u64,
}

/// Reusable per-phase state shared by all sweep variants: the serial-path
/// proposal arena and EA-SBP's persistent model replicas. Parallel sweep
/// workers no longer lease arenas per section — each worker thread holds a
/// pool-resident [`ProposalArena`] for its lifetime
/// (see [`hsbp_parallel::with_resident`]). One workspace per MCMC phase
/// keeps the steady-state hot path allocation-free without leaking stale
/// replicas across the merge phases that reshape the model in between.
#[derive(Debug, Default)]
pub(crate) struct PhaseWorkspace {
    /// Arena for the serial sweep paths and the consolidation replay.
    pub arena: ProposalArena,
    /// EA-SBP's per-worker model replicas, kept in sync by move deltas.
    /// Cleared whenever the global model changes behind their back (audit
    /// repair, injected corruption) so the next sweep reseeds them.
    pub replicas: Vec<Blockmodel>,
}

/// Degree-weighted chunk plan over the contiguous vertex range
/// `start..end`: boundaries follow the incident-arity prefix sum (read
/// straight off the CSR offsets), plus 1 per vertex so zero-degree vertices
/// still carry their fixed per-proposal cost.
pub(crate) fn degree_plan(graph: &Graph, start: usize, end: usize, target: usize) -> ChunkPlan {
    let base = (graph.incident_prefix(start) + start) as u64;
    ChunkPlan::from_prefix(end - start, target, |i| {
        (graph.incident_prefix(start + i) + start + i) as u64 - base
    })
}

/// Result of one full MCMC phase.
#[derive(Debug, Clone, Copy)]
pub struct McmcOutcome {
    /// Sweeps performed.
    pub sweeps: usize,
    /// MDL of the final state.
    pub mdl: mdl::Mdl,
    /// True if the threshold test fired (false = sweep cap hit).
    pub converged: bool,
    /// True when a budget or cancellation stopped the phase early; the
    /// in-flight sweep (if any) may be partially applied, so the driver
    /// discards the whole evaluation.
    pub truncated: bool,
}

/// Per-vertex proposal costs in a fixed iteration order (static across the
/// sweeps of one phase, since proposal cost depends only on degree).
fn proposal_costs(graph: &Graph, order: impl Iterator<Item = Vertex>, cfg: &SbpConfig) -> Vec<f64> {
    order
        .map(|v| cfg.cost_model.proposal_cost(graph.incident_arity(v)))
        .collect()
}

/// Run the MCMC phase of the configured variant on `bm` until convergence.
///
/// `phase_index` salts the RNG so successive phases of one run draw
/// independent randomness.
///
/// # Panics
/// Panics if a strict-mode drift audit fails; use
/// [`run_mcmc_phase_controlled`] to receive that as `HsbpError::StateDrift`
/// instead.
pub fn run_mcmc_phase(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
) -> McmcOutcome {
    run_mcmc_phase_controlled(graph, bm, cfg, phase_index, stats, &RunControl::unlimited())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_mcmc_phase`] under a [`RunControl`], with the cadenced drift audit:
/// the configured variant's sweep driven by [`run_phase_loop`].
///
/// Budget/cancel checks run at every sweep boundary (and, inside
/// [`serial_mh`] passes, every [`crate::budget::VERTEX_CHECK_STRIDE`]
/// vertices). A strict-mode drift audit failure
/// (`Err(HsbpError::StateDrift)`) is the only failure mode.
pub fn run_mcmc_phase_controlled(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
    ctrl: &RunControl,
) -> Result<McmcOutcome, HsbpError> {
    let n = graph.num_vertices();
    stats.mcmc_phases += 1;

    // Variant-specific precomputation.
    let (order, vstar_len) = match cfg.variant {
        Variant::Hybrid => {
            let order = vertices_by_degree_desc(graph);
            let vstar = ((n as f64) * cfg.hybrid_serial_fraction).round() as usize;
            (order, vstar.min(n))
        }
        _ => (Vec::new(), 0),
    };
    let parallel_costs: Vec<f64> = match cfg.variant {
        Variant::Metropolis => Vec::new(),
        Variant::AsyncGibbs | Variant::ExactAsync => proposal_costs(graph, 0..n as Vertex, cfg),
        Variant::Hybrid => proposal_costs(graph, order[vstar_len..].iter().copied(), cfg),
    };
    let exec = hsbp_parallel::pool_for(cfg.threads);
    // Static per-phase chunk plan for H-SBP's permuted tail: the tail order
    // isn't contiguous in vertex ids, so its per-item weights can't be read
    // off the CSR prefix directly — build them once (the order is fixed for
    // the whole phase).
    let tail_plan = if cfg.variant == Variant::Hybrid {
        let weights: Vec<u64> = order[vstar_len..]
            .iter()
            .map(|&v| graph.incident_arity(v) as u64 + 1)
            .collect();
        ChunkPlan::from_costs(&weights, exec.chunk_target())
    } else {
        ChunkPlan::even(0, 1)
    };
    let mut step = VariantStep {
        graph,
        cfg,
        salt: mix_words(&[cfg.seed, 0x4d43_4d43, phase_index]), // "MCMC"
        order,
        vstar_len,
        parallel_costs,
        exec,
        tail_plan,
        ctrl,
        ws: PhaseWorkspace::default(),
    };
    run_phase_loop(graph, bm, cfg, phase_index, stats, ctrl, &mut step)
}

/// One sweep of the configured in-process variant.
struct VariantStep<'a> {
    graph: &'a Graph,
    cfg: &'a SbpConfig,
    salt: u64,
    order: Vec<Vertex>,
    vstar_len: usize,
    parallel_costs: Vec<f64>,
    exec: &'a hsbp_parallel::ThreadPool,
    tail_plan: ChunkPlan,
    ctrl: &'a RunControl,
    ws: PhaseWorkspace,
}

impl PhaseStep for VariantStep<'_> {
    fn sweep(
        &mut self,
        bm: &mut Blockmodel,
        sweeps: usize,
        stats: &mut RunStats,
    ) -> Result<Option<usize>, HsbpError> {
        let (graph, cfg, salt, sweep_idx) = (self.graph, self.cfg, self.salt, sweeps as u64);
        let (ctrl, exec, ws) = (self.ctrl, self.exec, &mut self.ws);
        let costs = &self.parallel_costs;
        let counters = match cfg.variant {
            Variant::Metropolis => {
                let n = graph.num_vertices() as Vertex;
                let arena = &mut ws.arena;
                metropolis::charged_pass(graph, bm, 0..n, cfg, salt, sweep_idx, stats, ctrl, arena)
            }
            Variant::AsyncGibbs => async_gibbs::sweep(
                graph, bm, cfg, salt, sweep_idx, stats, costs, ctrl, exec, ws,
            ),
            Variant::ExactAsync => exact_async::sweep(
                graph, bm, cfg, salt, sweep_idx, stats, costs, ctrl, exec, ws,
            ),
            Variant::Hybrid => hybrid::sweep(
                graph,
                bm,
                &self.order,
                self.vstar_len,
                cfg,
                salt,
                sweep_idx,
                stats,
                costs,
                ctrl,
                exec,
                &self.tail_plan,
                ws,
            ),
        };
        if ctrl.interrupt_cause().is_some() {
            // The sweep may have bailed out part-way; the whole evaluation
            // is discarded by the driver, so don't count it.
            return Ok(None);
        }
        stats.proposals += counters.proposals;
        stats.accepted += counters.accepted;
        Ok(Some(1))
    }

    fn model_rewritten(&mut self, _bm: &Blockmodel, _stats: &mut RunStats) {
        // The EA-SBP replicas no longer match the global model: the next
        // sweep reseeds them.
        self.ws.replicas.clear();
    }
}

/// The unit of work of an MCMC phase, driven by [`run_phase_loop`]: the
/// in-process variants sweep once per step, the exact distributed mode runs
/// one sync round of `sync_every` sweeps, and dirty-region refinement runs
/// one serial pass over its region.
pub trait PhaseStep {
    /// Advance the chain on `bm` by one or more sweeps, starting at
    /// phase-local sweep `sweeps` (the counter-RNG sweep index), and return
    /// how many completed. `Ok(None)` means the run control interrupted
    /// the step part-way: the phase is truncated and the step not counted.
    /// The step accounts its own proposals, acceptances and simulated time
    /// on `stats`.
    fn sweep(
        &mut self,
        bm: &mut Blockmodel,
        sweeps: usize,
        stats: &mut RunStats,
    ) -> Result<Option<usize>, HsbpError>;

    /// Called after something other than a step rewrote `bm` (injected
    /// drift, audit repair): rebuild any state derived from it.
    fn model_rewritten(&mut self, _bm: &Blockmodel, _stats: &mut RunStats) {}
}

/// A closure is a step that owns no state derived from the model.
impl<F> PhaseStep for F
where
    F: FnMut(&mut Blockmodel, usize, &mut RunStats) -> Result<Option<usize>, HsbpError>,
{
    fn sweep(
        &mut self,
        bm: &mut Blockmodel,
        sweeps: usize,
        stats: &mut RunStats,
    ) -> Result<Option<usize>, HsbpError> {
        self(bm, sweeps, stats)
    }
}

/// The MCMC phase loop (Algorithms 2–4's "repeat … until ΔMDL < t × MDL or
/// x sweeps"), shared by every phase of every mode: run `step` until the
/// mean absolute MDL change over the last three steps falls below
/// `cfg.mcmc_threshold · MDL` or `cfg.max_sweeps` sweeps are done.
///
/// Around each step it checks `ctrl` (a tripped control records
/// `stats.stop_cause` and marks the outcome `truncated`), fires the
/// `cfg.inject_drift_at_sweep` test hook, and audits the model whenever the
/// step crossed an `cfg.audit_cadence` boundary of cumulative sweeps (one
/// audit-and-repair helper, also used by refinement's terminal audit).
/// After a drift injection or a repair the step's
/// [`PhaseStep::model_rewritten`] hook runs. The caller counts
/// `stats.mcmc_phases`.
pub fn run_phase_loop(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
    ctrl: &RunControl,
    step: &mut impl PhaseStep,
) -> Result<McmcOutcome, HsbpError> {
    let n = graph.num_vertices();
    let mut previous = mdl::mdl(bm, n, graph.total_weight());
    let mut recent_deltas: Vec<f64> = Vec::with_capacity(3);
    let mut sweeps = 0;
    let mut converged = false;
    let mut truncated = false;

    while sweeps < cfg.max_sweeps {
        if let Some(cause) = ctrl.sweep_stop_cause(stats.mcmc_sweeps) {
            stats.stop_cause = cause;
            truncated = true;
            break;
        }
        let Some(advanced) = step.sweep(bm, sweeps, stats)? else {
            stats.stop_cause = ctrl
                .sweep_stop_cause(stats.mcmc_sweeps)
                .unwrap_or(StopCause::Cancelled);
            truncated = true;
            break;
        };
        let before = stats.mcmc_sweeps;
        sweeps += advanced;
        stats.mcmc_sweeps += advanced;

        if let Some(at) = cfg
            .inject_drift_at_sweep
            .filter(|&at| before < at && at <= stats.mcmc_sweeps)
        {
            bm.inject_state_corruption(mix_words(&[
                cfg.seed,
                0x4452_4946, // "DRIF"
                at as u64,
            ]));
            step.model_rewritten(bm, stats);
        }
        if cfg.audit_cadence > 0
            && before / cfg.audit_cadence != stats.mcmc_sweeps / cfg.audit_cadence
            && audit_and_repair(graph, bm, cfg, phase_index, stats)?
        {
            step.model_rewritten(bm, stats);
        }

        let current = mdl::mdl(bm, n, graph.total_weight());
        let delta = previous.total - current.total;
        previous = current;
        if recent_deltas.len() == 3 {
            recent_deltas.remove(0);
        }
        recent_deltas.push(delta.abs());
        if recent_deltas.len() == 3 {
            let mean: f64 = recent_deltas.iter().sum::<f64>() / 3.0;
            if mean < cfg.mcmc_threshold * previous.total.abs().max(1.0) {
                converged = true;
                break;
            }
        }
    }

    Ok(McmcOutcome {
        sweeps,
        mdl: previous,
        converged,
        truncated,
    })
}

/// One drift audit: rebuild `bm` from its membership vector and compare
/// every component. Drift is returned as `HsbpError::StateDrift` under
/// `cfg.strict_audit`; otherwise `bm` is repaired in place, the event is
/// recorded in `stats.drift_events`, and `Ok(true)` reports the rewrite.
pub(crate) fn audit_and_repair(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
) -> Result<bool, HsbpError> {
    stats.audits_run += 1;
    let Some(report) = audit_blockmodel(bm, graph) else {
        return Ok(false);
    };
    if cfg.strict_audit {
        return Err(HsbpError::StateDrift {
            sweep: stats.mcmc_sweeps,
            detail: report.summary(),
        });
    }
    repair_blockmodel(bm, graph);
    stats.drift_events.push(DriftEvent {
        total_sweep: stats.mcmc_sweeps,
        phase_index,
        mismatches: report.mismatches,
        mdl_delta: report.mdl_delta,
        repaired: true,
    });
    Ok(true)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hsbp_graph::Graph;

    fn planted(n_per: u32, groups: u32, seed: u64) -> (Graph, Vec<u32>) {
        // Dense planted partition without the generator crate (core's tests
        // must not depend on it for the unit level).
        let n = n_per * groups;
        let mut edges = Vec::new();
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for u in 0..n {
            let gu = u / n_per;
            for _ in 0..6 {
                // ~85% within-community edges.
                let v = if rnd() % 100 < 85 {
                    gu * n_per + rnd() % n_per
                } else {
                    rnd() % n
                };
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let truth: Vec<u32> = (0..n).map(|v| v / n_per).collect();
        (Graph::from_edges(n as usize, &edges), truth)
    }

    #[test]
    fn mcmc_phase_reduces_mdl_from_random_partition() {
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let (g, _) = planted(30, 3, 11);
            // Start from a deliberately wrong 3-block partition.
            let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
            let mut bm = Blockmodel::from_assignment(&g, wrong, 3);
            let before = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
            let cfg = SbpConfig {
                variant,
                seed: 5,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            assert!(out.sweeps >= 1);
            assert!(
                out.mdl.total < before,
                "{variant:?}: MDL {} did not improve on {before}",
                out.mdl.total
            );
            bm.check_consistency(&g).unwrap();
            assert!(stats.proposals > 0);
        }
    }

    #[test]
    fn mcmc_recovers_planted_partition_from_truth_start() {
        // Starting at the truth, the sampler must not wander away: the MDL
        // should stay at or below the truth's MDL.
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let (g, truth) = planted(25, 4, 23);
            let mut bm = Blockmodel::from_assignment(&g, truth.clone(), 4);
            let truth_mdl = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
            let cfg = SbpConfig {
                variant,
                seed: 9,
                max_sweeps: 20,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            assert!(
                out.mdl.total <= truth_mdl * 1.02,
                "{variant:?}: wandered from {truth_mdl} to {}",
                out.mdl.total
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let (g, _) = planted(20, 3, 31);
            let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
            let cfg = SbpConfig {
                variant,
                seed: 77,
                max_sweeps: 5,
                ..Default::default()
            };
            let run = |()| {
                let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
                let mut stats = RunStats::new(&cfg);
                run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
                bm.assignment().to_vec()
            };
            assert_eq!(run(()), run(()), "{variant:?} is not deterministic");
        }
    }

    #[test]
    fn sweep_cap_respected() {
        let (g, _) = planted(20, 3, 41);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let mut bm = Blockmodel::from_assignment(&g, wrong, 3);
        let cfg = SbpConfig {
            variant: Variant::AsyncGibbs,
            seed: 1,
            max_sweeps: 2,
            mcmc_threshold: 0.0, // never converge by threshold
            ..Default::default()
        };
        let mut stats = RunStats::new(&cfg);
        let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
        assert_eq!(out.sweeps, 2);
        assert!(!out.converged);
    }

    #[test]
    fn sim_time_accumulates_per_variant() {
        let (g, _) = planted(25, 3, 51);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let cfg = SbpConfig {
                variant,
                seed: 3,
                max_sweeps: 4,
                ..Default::default()
            };
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            let t1 = stats.sim_mcmc_time(1).unwrap();
            let t128 = stats.sim_mcmc_time(128).unwrap();
            assert!(t1 > 0.0, "{variant:?}: no sim time recorded");
            match variant {
                // Serial MH cannot speed up.
                Variant::Metropolis => assert_eq!(t1, t128),
                // Parallel variants must improve with threads.
                _ => assert!(t128 < t1, "{variant:?}: t1 {t1} vs t128 {t128}"),
            }
        }
    }

    #[test]
    fn asbp_parallel_sim_time_beats_sbp_at_128_threads() {
        let (g, _) = planted(40, 3, 61);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let mut times = std::collections::HashMap::new();
        for variant in [Variant::Metropolis, Variant::AsyncGibbs] {
            let cfg = SbpConfig {
                variant,
                seed: 3,
                max_sweeps: 3,
                mcmc_threshold: 0.0,
                ..Default::default()
            };
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            // Per-sweep normalised time removes the sweep-count difference.
            times.insert(
                variant.name(),
                stats.sim_mcmc_time(128).unwrap() / stats.mcmc_sweeps as f64,
            );
        }
        assert!(
            times["A-SBP"] < times["SBP"],
            "per-sweep A-SBP {} should beat SBP {} at 128 threads",
            times["A-SBP"],
            times["SBP"]
        );
    }

    #[test]
    fn batched_asbp_runs_and_stays_consistent() {
        let (g, _) = planted(20, 3, 71);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let mut bm = Blockmodel::from_assignment(&g, wrong, 3);
        let cfg = SbpConfig {
            variant: Variant::AsyncGibbs,
            asbp_batches: 4,
            seed: 2,
            max_sweeps: 3,
            ..Default::default()
        };
        let mut stats = RunStats::new(&cfg);
        run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
        bm.check_consistency(&g).unwrap();
    }

    #[test]
    fn exact_async_improves_and_stays_consistent() {
        let (g, _) = planted(25, 3, 101);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        for workers in [1usize, 4, 16] {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let before = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
            let cfg = SbpConfig {
                variant: Variant::ExactAsync,
                exact_async_workers: workers,
                seed: 5,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.check_consistency(&g).unwrap();
            assert!(
                out.mdl.total < before,
                "workers {workers}: MDL {} did not improve on {before}",
                out.mdl.total
            );
        }
    }

    #[test]
    fn exact_async_one_worker_equals_serial_sweep_outcome() {
        // With a single worker the local replica is never stale, so one
        // EA-SBP sweep is exactly one serial MH sweep (same counter RNG).
        let (g, _) = planted(15, 2, 111);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 2).collect();
        let run = |variant: Variant| {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 2);
            let cfg = SbpConfig {
                variant,
                exact_async_workers: 1,
                max_sweeps: 1,
                mcmc_threshold: 0.0,
                seed: 4,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.assignment().to_vec()
        };
        assert_eq!(run(Variant::ExactAsync), run(Variant::Metropolis));
    }

    #[test]
    fn consolidation_survives_per_sweep_strict_audit() {
        // Incremental replay and rebuild land on the same bytes: a strict
        // audit after every sweep (rebuild from membership, compare every
        // component) never fires, and auditing leaves the chain untouched.
        let (g, _) = planted(25, 3, 121);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let (mut incremental, mut rebuild) = (0, 0);
        for variant in [Variant::AsyncGibbs, Variant::Hybrid, Variant::ExactAsync] {
            let run = |audit_cadence: usize| {
                let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
                let cfg = SbpConfig {
                    variant,
                    seed: 13,
                    max_sweeps: 6,
                    mcmc_threshold: 0.0,
                    audit_cadence,
                    strict_audit: true,
                    ..Default::default()
                };
                let mut stats = RunStats::new(&cfg);
                let ctrl = RunControl::unlimited();
                run_mcmc_phase_controlled(&g, &mut bm, &cfg, 0, &mut stats, &ctrl).unwrap();
                (bm, stats)
            };
            let (audited, audited_stats) = run(1);
            let (plain, plain_stats) = run(SbpConfig::default().audit_cadence);
            assert_eq!(audited, plain, "{variant:?}: auditing changed the chain");
            assert_eq!(audited_stats.audits_run, 6, "{variant:?}");
            assert_eq!(
                audited_stats.consolidations_incremental, plain_stats.consolidations_incremental,
                "{variant:?}"
            );
            incremental += audited_stats.consolidations_incremental;
            rebuild += audited_stats.consolidations_rebuild;
        }
        assert!(incremental > 0, "the incremental path never ran");
        assert!(rebuild > 0, "the rebuild path never ran");
    }

    #[test]
    fn auto_consolidation_goes_incremental_once_settled() {
        // From a converged start almost nothing moves, so the cost-model
        // crossover must pick the incremental path for the late sweeps.
        let (g, truth) = planted(30, 3, 131);
        let mut bm = Blockmodel::from_assignment(&g, truth, 3);
        let cfg = SbpConfig {
            variant: Variant::AsyncGibbs,
            seed: 7,
            max_sweeps: 6,
            mcmc_threshold: 0.0,
            ..Default::default()
        };
        let mut stats = RunStats::new(&cfg);
        run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
        assert!(
            stats.consolidations_incremental > 0,
            "auto never used the incremental path: {stats:?}"
        );
    }

    #[test]
    fn hybrid_serial_fraction_extremes() {
        let (g, _) = planted(15, 2, 81);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 2).collect();
        for fraction in [0.0, 1.0] {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 2);
            let cfg = SbpConfig {
                variant: Variant::Hybrid,
                hybrid_serial_fraction: fraction,
                seed: 2,
                max_sweeps: 3,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.check_consistency(&g).unwrap();
        }
    }
}
