//! Per-layer metrics, read from the counters each layer's public API
//! already returns and from the traced walk.

use crate::catalog::{K_LABELS, READ_OPS, SWEEP_OPS};
use crate::probe::Walk;
use crate::report::{percentile, Report};
use crate::serve::Session;
use crate::span::Clock;
use hsbp_core::RunStats;
use hsbp_parallel::PoolStats;
use hsbp_shard::ExactRun;
use hsbp_timing::Phase;

/// `core.*` counters and phase times of one untraced run, plus the
/// simulated 8-thread MCMC speedup.
pub fn set_run_stats(r: &mut Report, s: &RunStats) {
    r.set(
        "core.merge.s",
        s.timer.total(Phase::BlockMerge).as_secs_f64(),
    );
    r.set("core.mcmc.s", s.timer.total(Phase::Mcmc).as_secs_f64());
    r.set("core.other.s", s.timer.total(Phase::Other).as_secs_f64());
    r.set("core.mcmc.sweeps", s.mcmc_sweeps as f64);
    r.set("core.mcmc.proposals", s.proposals as f64);
    r.set("core.mcmc.accept_ratio", s.acceptance_rate());
    r.set("core.driver.outer_iterations", s.outer_iterations as f64);
    r.set("core.mcmc.audits", s.audits_run as f64);
    r.set(
        "core.mcmc.consolidate.incremental",
        s.consolidations_incremental as f64,
    );
    r.set(
        "core.mcmc.consolidate.rebuild",
        s.consolidations_rebuild as f64,
    );
    r.set("core.mcmc.consolidate.moves", s.consolidated_moves as f64);
    let speedup = match (s.sim_mcmc_time(1), s.sim_mcmc_time(8)) {
        (Some(t1), Some(t8)) if t8 > 0.0 => t1 / t8,
        _ => 0.0,
    };
    r.set("timing.sim_mcmc_speedup.t8", speedup);
}

/// Work-stealing pool counters over the measured section.
pub fn set_pool(r: &mut Report, p: &PoolStats) {
    r.set("parallel.sections", p.sections as f64);
    r.set("parallel.chunks", p.chunks as f64);
    r.set("parallel.steals", p.steals as f64);
    r.set("parallel.mean_imbalance", p.mean_imbalance);
}

/// The traced walk: merge/MCMC spans per probed K, the sweep layers'
/// per-call costs, and the tracing overhead.
pub fn set_walk(r: &mut Report, walk: &Walk, clock: &Clock) {
    let capped = walk.rows.iter().filter(|row| !row.converged).count();
    r.set("core.mcmc.capped_phases", capped as f64);
    let mut settled_eval = 0.0;
    let mut settled_all = 0.0;
    let mut overhead = 0.0;
    for (label, probe) in K_LABELS.iter().zip(&walk.probes) {
        let row = walk.rows.iter().find(|row| row.target == probe.blocks);
        r.set(
            format!("core.merge.ms.{label}"),
            row.map_or(0.0, |row| row.merge_ms),
        );
        r.set(
            format!("core.mcmc.ms_per_sweep.{label}"),
            row.map_or(0.0, |row| row.mcmc_ms / row.sweeps.max(1) as f64),
        );
        for (i, op) in SWEEP_OPS.iter().enumerate() {
            r.set(
                format!("blockmodel.{op}.ns.{label}.first"),
                probe.first[i].per_call_ns(),
            );
            r.set(
                format!("blockmodel.{op}.ns.{label}.settled"),
                probe.settled[i].per_call_ns(),
            );
            settled_all += probe.settled[i].ns.max(0.0);
        }
        settled_eval += probe.settled[2].ns.max(0.0);
        r.set(
            format!("blockmodel.from_assignment.ms.{label}"),
            probe.from_assignment_ms,
        );
        r.set(
            format!("blockmodel.sampler_build.ms.{label}"),
            probe.sampler_build_ms,
        );
        r.set(
            format!("blockmodel.delta_mdl_merge.ns.{label}"),
            probe.delta_merge_ns,
        );
        overhead += probe.overhead_ms;
    }
    r.set(
        "blockmodel.evaluate_move.share",
        if settled_all > 0.0 {
            settled_eval / settled_all
        } else {
            0.0
        },
    );
    r.set("probe.span_overhead.ms", overhead);
    r.set("probe.empty_span.ns", clock.empty_span_ns);
}

fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 0.5), percentile(samples, 0.99))
}

/// `serve.*` from one or more sessions (samples pooled).
pub fn set_serve(r: &mut Report, sessions: &[Session]) {
    let mut all_reads = Vec::new();
    for (i, op) in READ_OPS.iter().enumerate() {
        let mut samples: Vec<f64> = sessions
            .iter()
            .flat_map(|s| s.read_ms[i].iter().copied())
            .collect();
        all_reads.extend_from_slice(&samples);
        let (p50, p99) = p50_p99(&mut samples);
        r.set(format!("serve.read.{op}.p50_ms"), p50);
        r.set(format!("serve.read.{op}.p99_ms"), p99);
    }
    r.set("serve.read.samples", all_reads.len() as f64);
    let (p50, p99) = p50_p99(&mut all_reads);
    r.set("serve.read.p50_ms", p50);
    r.set("serve.read.p99_ms", p99);
    let mut writes: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.write_ms.iter().copied())
        .collect();
    let write_s: f64 = writes.iter().sum::<f64>() / 1e3;
    let mutations: u64 = sessions.iter().map(|s| s.mutations).sum();
    let (p50, p99) = p50_p99(&mut writes);
    r.set("serve.write.batch_ms.p50", p50);
    r.set("serve.write.batch_ms.p99", p99);
    r.set(
        "serve.mutations_per_s",
        if write_s > 0.0 {
            mutations as f64 / write_s
        } else {
            0.0
        },
    );
    let mut flushes: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.flush_ms.iter().copied())
        .collect();
    let (p50, p99) = p50_p99(&mut flushes);
    r.set("serve.flush_ms.p50", p50);
    r.set("serve.flush_ms.p99", p99);
    let sum = |f: fn(&Session) -> u64| sessions.iter().map(f).sum::<u64>() as f64;
    r.set("serve.refine.cancellations", sum(|s| s.cancellations));
    r.set("serve.refine.errors", sum(|s| s.refine_errors));
    r.set("serve.drift_repairs", sum(|s| s.drift_repairs));
    r.set(
        "serve.mid_refinement_reads",
        sum(|s| s.mid_refinement_reads),
    );
    r.set("serve.busy_refusals", sum(|s| s.busy));
    r.set("serve.wal_bytes", sum(|s| s.wal_bytes));
    r.set(
        "serve.recovery.replayed_batches",
        sum(|s| s.replayed_batches),
    );
    let recoveries: Vec<f64> = sessions.iter().map(|s| s.recovery_s).collect();
    r.set("serve.recovery_s", crate::report::median(&recoveries));
}

/// `shard.*` from one exact distributed run. `comm_fraction` comes from
/// the simulated cost model: modelled wire cost over wire plus modelled
/// MCMC compute at the shard count.
pub fn set_shard(r: &mut Report, run: &ExactRun) {
    let net = &run.net;
    let rounds = run.rounds.len();
    r.set("shard.exact.rounds", rounds as f64);
    r.set("shard.channel.messages", net.messages as f64);
    r.set(
        "shard.channel.bytes_per_round",
        net.bytes as f64 / rounds.max(1) as f64,
    );
    r.set("shard.channel.retransmits", net.retransmits as f64);
    r.set("shard.channel.nacks", net.nacks as f64);
    r.set("shard.channel.resyncs", net.resyncs as f64);
    r.set("shard.channel.dropped", net.dropped as f64);
    r.set(
        "shard.channel.corrupt_detected",
        net.corrupt_detected as f64,
    );
    r.set("shard.wire_bytes", net.bytes as f64);
    let stats = &run.result.stats;
    let compute = stats
        .sim_mcmc_time(run.num_shards)
        .or_else(|| stats.sim_mcmc_time(1))
        .unwrap_or(0.0);
    let denom = net.comm_cost + compute;
    r.set(
        "shard.comm_fraction",
        if denom > 0.0 {
            net.comm_cost / denom
        } else {
            0.0
        },
    );
}

/// The shard layer is not exercised by this workload: its counters read 0.
pub fn zero_shard(r: &mut Report) {
    for def in crate::catalog::per_layer() {
        if def.name.starts_with("shard.") {
            r.set(def.name, 0.0);
        }
    }
}
