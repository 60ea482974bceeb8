//! The traced walk: `run_sbp`'s halving schedule replayed through the
//! public `merge_phase` / `run_mcmc_phase` calls, one span per call, with a
//! per-layer probe of the serial sweep at three block counts.
//!
//! The probe replays one serial Metropolis-Hastings sweep on a clone of the
//! state, twice: once plain (spans off) and once traced. The traced replay
//! times `evaluate_move_with` and `apply_move` one span per call; the
//! sub-microsecond calls (`propose_block`, `gather_into`, `accept_move`)
//! are timed in batches over each chunk of vertices, against the state at
//! the chunk's start, and their results are discarded. Both replays draw
//! the same randomness, so they must end in the same state; the difference
//! of their times is the tracing overhead.

use crate::catalog::K_LABELS;
use crate::report::median;
use crate::span::{Acc, Clock};
use hsbp_blockmodel::{
    accept_move, delta_mdl_merge_with, evaluate_move_with, propose_block, propose_merge_target,
    BlockNeighborSampler, Blockmodel, EvalScratch, MoveEval, NeighborCounts, ProposalArena,
};
use hsbp_collections::sample::mix_words;
use hsbp_collections::SplitMix64;
use hsbp_core::{merge_phase, run_mcmc_phase, RunStats, SbpConfig};
use hsbp_graph::{Graph, Vertex};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Vertices per batch-timed chunk of a traced sweep.
const CHUNK: usize = 256;

/// Index of each layer in a `[Acc; 5]` (order of `catalog::SWEEP_OPS`).
const PROPOSE: usize = 0;
const GATHER: usize = 1;
const EVALUATE: usize = 2;
const ACCEPT: usize = 3;
const APPLY: usize = 4;

/// One outer iteration of the walk (one merge span plus one MCMC span).
#[derive(Debug, Clone)]
pub struct WalkRow {
    pub target: usize,
    pub reached: usize,
    pub merge_ms: f64,
    pub mcmc_ms: f64,
    pub sweeps: usize,
    pub converged: bool,
    pub proposals: u64,
    pub accepted: u64,
    pub mdl_total: f64,
}

/// Layer costs at one probed block count.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub blocks: usize,
    /// First sweep after the merge.
    pub first: [Acc; 5],
    /// A sweep of the settled state the MCMC phase returned.
    pub settled: [Acc; 5],
    pub from_assignment_ms: f64,
    pub sampler_build_ms: f64,
    pub delta_merge_ns: f64,
    /// Traced minus plain replay time, summed over both sweeps.
    pub overhead_ms: f64,
    /// The traced replays ended in the plain replays' states.
    pub replays_agree: bool,
}

/// Everything the traced walk measured.
#[derive(Debug, Clone, Default)]
pub struct Walk {
    pub rows: Vec<WalkRow>,
    /// One per label of `catalog::K_LABELS`.
    pub probes: Vec<Probe>,
    /// Blocks after each merge equalled the precomputed schedule.
    pub schedule_held: bool,
}

/// `run_sbp`'s unbracketed halving schedule from `n` singleton blocks.
pub fn schedule(n: usize, rate: f64) -> Vec<usize> {
    let mut steps = Vec::new();
    let mut b = n;
    while b > 1 {
        b = ((b as f64 * rate).round() as usize).clamp(1, b - 1);
        steps.push(b);
    }
    steps
}

/// Probed block counts: the first halving step, the step nearest `n/8`
/// and the last step above twice the planted community count.
pub fn probe_targets(steps: &[usize], n: usize, planted: usize) -> [usize; 3] {
    let k_hi = steps[0];
    let eighth = n as f64 / 8.0;
    let k_mid = *steps
        .iter()
        .min_by(|a, b| {
            (**a as f64 - eighth)
                .abs()
                .total_cmp(&(**b as f64 - eighth).abs())
        })
        .unwrap_or(&k_hi);
    let k_lo = steps
        .iter()
        .rev()
        .copied()
        .find(|&s| s > 2 * planted)
        .unwrap_or(k_hi);
    [k_hi, k_mid, k_lo]
}

/// Walk the schedule down to `k_lo`, probing at the three targets.
pub fn walk(graph: &Graph, planted: usize, cfg: &SbpConfig, clock: &Clock) -> Walk {
    let n = graph.num_vertices();
    let steps = schedule(n, cfg.block_reduction_rate);
    let targets = probe_targets(&steps, n, planted);
    let mut stats = RunStats::new(cfg);
    let mut bm = Blockmodel::singleton_partition(graph);
    let mut out = Walk {
        probes: vec![Probe::default(); K_LABELS.len()],
        schedule_held: true,
        ..Default::default()
    };
    for (phase, &target) in steps.iter().enumerate() {
        if target < targets[2] {
            break;
        }
        let phase = phase as u64;
        let salt = mix_words(&[cfg.seed, 0x4d43_4d43, phase]); // the MCMC phase's salt
        let started = Instant::now();
        merge_phase(graph, &mut bm, target, cfg, phase, &mut stats);
        let merge_ms = ms(started.elapsed());
        out.schedule_held &= bm.num_blocks() == target;
        let slot = targets.iter().position(|&t| t == target);
        if let Some(i) = slot {
            let p = &mut out.probes[i];
            p.blocks = target;
            let (first, overhead, agree) = probe_sweep(graph, &bm, cfg.beta, salt, 0, clock);
            p.first = first;
            p.overhead_ms += overhead;
            p.replays_agree = agree;
            time_rebuilds(graph, &bm, p);
        }
        let before = (stats.proposals, stats.accepted);
        let started = Instant::now();
        let phase_out = run_mcmc_phase(graph, &mut bm, cfg, phase, &mut stats);
        out.rows.push(WalkRow {
            target,
            reached: bm.num_blocks(),
            merge_ms,
            mcmc_ms: ms(started.elapsed()),
            sweeps: phase_out.sweeps,
            converged: phase_out.converged,
            proposals: stats.proposals - before.0,
            accepted: stats.accepted - before.1,
            mdl_total: phase_out.mdl.total,
        });
        if let Some(i) = slot {
            let next_sweep = phase_out.sweeps as u64;
            let (settled, overhead, agree) =
                probe_sweep(graph, &bm, cfg.beta, salt, next_sweep, clock);
            let p = &mut out.probes[i];
            p.settled = settled;
            p.overhead_ms += overhead;
            p.replays_agree &= agree;
        }
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replay sweep `sweep_idx` on two clones of `bm`, plain and traced.
/// Returns the traced layer costs, the tracing overhead in ms and whether
/// both replays ended in the same state.
fn probe_sweep(
    graph: &Graph,
    bm: &Blockmodel,
    beta: f64,
    salt: u64,
    sweep_idx: u64,
    clock: &Clock,
) -> ([Acc; 5], f64, bool) {
    let mut plain = bm.clone();
    let mut arena = ProposalArena::default();
    let started = Instant::now();
    sweep_plain(graph, &mut plain, beta, salt, sweep_idx, &mut arena);
    let plain_ms = ms(started.elapsed());
    let mut traced = bm.clone();
    let started = Instant::now();
    let layers = sweep_traced(graph, &mut traced, beta, salt, sweep_idx, &mut arena, clock);
    let traced_ms = ms(started.elapsed());
    (
        layers,
        traced_ms - plain_ms,
        plain.assignment() == traced.assignment(),
    )
}

/// The serial Metropolis-Hastings sweep, as the core's serial variant runs
/// it, with no timing.
fn sweep_plain(
    graph: &Graph,
    bm: &mut Blockmodel,
    beta: f64,
    salt: u64,
    sweep_idx: u64,
    arena: &mut ProposalArena,
) {
    for v in 0..graph.num_vertices() as Vertex {
        let mut rng = SplitMix64::for_item(salt, sweep_idx, u64::from(v));
        let from = bm.block_of(v);
        let to = propose_block(graph, bm, bm.assignment(), v, &mut rng);
        if to == from {
            continue;
        }
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
        }
    }
}

/// [`sweep_plain`] with per-layer spans (see the module docs).
fn sweep_traced(
    graph: &Graph,
    bm: &mut Blockmodel,
    beta: f64,
    salt: u64,
    sweep_idx: u64,
    arena: &mut ProposalArena,
    clock: &Clock,
) -> [Acc; 5] {
    let mut acc = [Acc::default(); 5];
    let n = graph.num_vertices() as Vertex;
    let mut movers: Vec<Vertex> = Vec::with_capacity(CHUNK);
    let mut decisions: Vec<(MoveEval, SplitMix64)> = Vec::with_capacity(CHUNK);
    let mut shadow = ProposalArena::default();
    let mut start: Vertex = 0;
    while start < n {
        let end = (start + CHUNK as Vertex).min(n);
        // Batch: propose for every vertex of the chunk.
        movers.clear();
        let t = Instant::now();
        for v in start..end {
            let mut rng = SplitMix64::for_item(salt, sweep_idx, u64::from(v));
            if black_box(propose_block(graph, bm, bm.assignment(), v, &mut rng)) != bm.block_of(v) {
                movers.push(v);
            }
        }
        acc[PROPOSE].add(clock, t.elapsed(), u64::from(end - start));
        // Batch: gather for the vertices whose proposal moves them.
        let t = Instant::now();
        for &v in &movers {
            NeighborCounts::gather_into(
                graph,
                bm.assignment(),
                v,
                &mut shadow.scratch,
                &mut shadow.counts,
            );
            black_box(&shadow.counts);
        }
        acc[GATHER].add(clock, t.elapsed(), movers.len() as u64);
        // The chain itself: evaluate and apply get one span per call.
        decisions.clear();
        for v in start..end {
            let mut rng = SplitMix64::for_item(salt, sweep_idx, u64::from(v));
            let from = bm.block_of(v);
            let to = propose_block(graph, bm, bm.assignment(), v, &mut rng);
            if to == from {
                continue;
            }
            NeighborCounts::gather_into(
                graph,
                bm.assignment(),
                v,
                &mut arena.scratch,
                &mut arena.counts,
            );
            let t = Instant::now();
            let eval = evaluate_move_with(bm, from, to, &arena.counts, &mut arena.eval);
            acc[EVALUATE].add(clock, t.elapsed(), 1);
            decisions.push((eval, rng.clone()));
            if accept_move(&eval, beta, &mut rng) {
                let t = Instant::now();
                bm.apply_move(v, from, to, &arena.counts);
                acc[APPLY].add(clock, t.elapsed(), 1);
            }
        }
        // Batch: re-run the chunk's acceptance tests on copies of their RNGs.
        let t = Instant::now();
        for (eval, rng) in &decisions {
            let mut rng = rng.clone();
            black_box(accept_move(eval, beta, &mut rng));
        }
        acc[ACCEPT].add(clock, t.elapsed(), decisions.len() as u64);
        start = end;
    }
    acc
}

/// Time the rebuild-side calls at this state: `from_assignment`, the
/// sampler build and a batch of merge deltas.
fn time_rebuilds(graph: &Graph, bm: &Blockmodel, probe: &mut Probe) {
    let k = bm.num_blocks();
    let labels = bm.assignment().to_vec();
    let mut rebuild = Vec::new();
    let mut sampler = Vec::new();
    for _ in 0..5 {
        let owned = labels.clone();
        let t = Instant::now();
        black_box(Blockmodel::from_assignment(graph, owned, k));
        rebuild.push(ms(t.elapsed()));
        let t = Instant::now();
        black_box(BlockNeighborSampler::build(bm));
        sampler.push(ms(t.elapsed()));
    }
    probe.from_assignment_ms = median(&rebuild);
    probe.sampler_build_ms = median(&sampler);

    let mut rng = SplitMix64::new(0x4d45_5247); // "MERG"
    let mut pairs = Vec::with_capacity(4096);
    let mut r = 0usize;
    let mut tries = 0;
    while pairs.len() < 4096 && tries < 64 * 4096 {
        tries += 1;
        let rb = (r % k) as u32;
        r += 1;
        let s = propose_merge_target(bm, rb, &mut rng);
        if s != rb && bm.block_size(rb) > 0 && bm.block_size(s) > 0 {
            pairs.push((rb, s));
        }
    }
    let mut scratch = EvalScratch::default();
    let t = Instant::now();
    for &(r, s) in &pairs {
        black_box(delta_mdl_merge_with(bm, r, s, &mut scratch));
    }
    probe.delta_merge_ns = if pairs.is_empty() {
        0.0
    } else {
        (t.elapsed().as_nanos() as f64 / pairs.len() as f64).max(0.0)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_targets_match_the_documented_block_counts() {
        let s = schedule(5_000, 0.5);
        assert_eq!(&s[..7], &[2500, 1250, 625, 313, 157, 79, 40]);
        assert_eq!(probe_targets(&s, 5_000, 32), [2500, 625, 79]);
        let s = schedule(3_000, 0.5);
        assert_eq!(probe_targets(&s, 3_000, 16), [1500, 375, 47]);
        assert_eq!(*s.last().unwrap(), 1);
    }
}
