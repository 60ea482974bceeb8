//! The three workloads. Each builds its inputs from the seed (the set-up),
//! then either measures its end-to-end unit of work (`--trace 0`) or runs
//! it once untraced for the layers' own counters and then the traced walk
//! and the serve leg (`--trace 1`).
//!
//! Every workload measures a sample of [`GRAPHS`] graphs drawn from the
//! seed, not one graph: how much work SBP needs varies from graph to graph
//! (the sweeps to convergence, the golden-section path), and the median
//! over 16 graphs varies far less from seed to seed than any single graph
//! does.

use crate::checks::{partition_checks, shard_checks, Outcome};
use crate::inputs::{self, GraphSpec, Traffic};
use crate::layers;
use crate::probe;
use crate::report::{median, Report};
use crate::serve::{self, Start};
use crate::span::{reference_cpu_s, secs, Clock, Stamp};
use hsbp_core::{run_sbp_checked, SbpConfig, SbpResult, Variant};
use hsbp_generator::GeneratedGraph;
use hsbp_graph::Graph;
use hsbp_shard::{run_exact_sbp, ExactConfig, NetFaultPlan};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SbpSerial,
    HsbpDense2t,
    ShardExactDrop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SbpSerial,
        Workload::HsbpDense2t,
        Workload::ShardExactDrop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SbpSerial => "sbp_serial",
            Workload::HsbpDense2t => "hsbp_dense_2t",
            Workload::ShardExactDrop => "shard_exact_drop",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Graphs a run measures, each generated from its own seed drawn from the
/// run's seed ([`inputs::graph_seed`]).
pub const GRAPHS: usize = 16;
/// Set-up repetitions per run, at least (`setup_s` is their median). A
/// set-up generates every graph of the run.
const SETUP_REPS: usize = 15;
/// CPU seconds per thread of [`reference_cpu_s`] on the host the benchmark
/// was tuned on (a 2.1 GHz Xeon vCPU). The host's speed drifts by up to 40% over
/// minutes, CPU time included (neighbours on the same cores, for one), and
/// the reference kernel drifts with it. So each run times the kernel
/// between its units and reports `cpu_s` and `setup_s` as they would read
/// where the kernel takes `REFERENCE_S`: measured CPU seconds times
/// `REFERENCE_S` over the kernel's median in the run.
const REFERENCE_S: f64 = 0.1;
/// Reference kernel samples a traced run takes for `host.reference_s`.
const TRACE_REFERENCE_SAMPLES: usize = 5;

/// The exact distributed workload's wire fault plan.
const NET_FAULTS: &str = "seed:5, drop:0.05";

pub fn run(args: &Args, clock: &Clock, report: &mut Report) -> Result<(), String> {
    match args.workload {
        Workload::SbpSerial => detect(
            args,
            inputs::SPARSE_700,
            Variant::Metropolis,
            1,
            clock,
            report,
        ),
        Workload::HsbpDense2t => detect(args, inputs::DENSE_600, Variant::Hybrid, 2, clock, report),
        Workload::ShardExactDrop => shard_exact(args, clock, report),
    }
}

/// Run `body(g)` over the inputs `0..inputs` round-robin: every input
/// once, then input 0 again (so the determinism check always has a
/// repetition), then on while the next call (predicted to take as long as
/// the previous one) ends within `seconds`. Returns each input's measured
/// values.
fn round_robin(
    seconds: f64,
    inputs: usize,
    mut body: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<Vec<f64>>, String> {
    let start = Instant::now();
    let mut per_input = vec![Vec::new(); inputs];
    for i in 0.. {
        let t = Instant::now();
        let value = body(i % inputs)?;
        let took = secs(t);
        eprintln!(
            "unit {i} (graph {}): {value:.4} (took {took:.3} s)",
            i % inputs
        );
        per_input[i % inputs].push(value);
        if i >= inputs && secs(start) + took > seconds {
            break;
        }
    }
    Ok(per_input)
}

/// Measure `unit` over the run's graphs round-robin (see [`round_robin`]),
/// with one run of the reference kernel (on the workload's threads) before
/// each unit and the set-up
/// repeated after it; check every result, and set the end-to-end metrics.
/// `cpu_s` is the median over the graphs of each graph's median, `nmi` and
/// `mdl_norm` are means over the graphs. `cpu_s` and `setup_s` are scaled
/// to the reference host (see [`REFERENCE_S`]). `unit(g, report)` runs
/// graph `g` once and returns its CPU seconds and detection result.
fn measure_graphs(
    args: &Args,
    graphs: &[GeneratedGraph],
    mut setup: GraphSetup,
    report: &mut Report,
    mut unit: impl FnMut(usize, &mut Report) -> Result<(f64, SbpResult), String>,
) -> Result<(), String> {
    let mut first = vec![None; graphs.len()];
    let mut quality = vec![None; graphs.len()];
    let mut reference = Vec::new();
    let times = round_robin(args.seconds, graphs.len(), |g| {
        reference.push(reference_cpu_s(setup.threads));
        let (cpu, result) = unit(g, report)?;
        let data = &graphs[g];
        check_result(report, data, &result, &mut first[g]);
        quality[g].get_or_insert((
            hsbp_metrics::nmi(&data.ground_truth, &result.assignment),
            result.normalized_mdl,
        ));
        setup.run();
        Ok(cpu)
    })?;
    let (setup_s, _) = setup.finish(report);
    let reference_s = median(&reference);
    eprintln!(
        "reference kernel: median {reference_s:.5} s over {} samples",
        reference.len()
    );
    let scale = REFERENCE_S / reference_s;
    let mean = |f: fn(&(f64, f64)) -> f64| {
        quality.iter().flatten().map(f).sum::<f64>() / graphs.len() as f64
    };
    report.set("setup_s", setup_s * scale);
    report.set(
        "cpu_s",
        median(&times.iter().map(|t| median(t)).collect::<Vec<_>>()) * scale,
    );
    report.set("nmi", mean(|q| q.0));
    report.set("mdl_norm", mean(|q| q.1));
    Ok(())
}

/// The set-up of a detection or shard run: generate the run's [`GRAPHS`]
/// graphs and start the worker pool. It repeats between measured units, so
/// its median covers the whole run, and each repetition must regenerate
/// the same graphs.
struct GraphSetup {
    spec: GraphSpec,
    seed: u64,
    threads: usize,
    times: Vec<f64>,
    generate: Vec<f64>,
    fingerprints: Vec<u64>,
}

impl GraphSetup {
    fn new(spec: GraphSpec, seed: u64, threads: usize) -> Self {
        Self {
            spec,
            seed,
            threads,
            times: Vec::new(),
            generate: Vec::new(),
            fingerprints: Vec::new(),
        }
    }

    fn run(&mut self) -> Vec<GeneratedGraph> {
        let t = Stamp::now();
        let graphs: Vec<GeneratedGraph> = (0..GRAPHS)
            .map(|g| inputs::graph(self.spec, inputs::graph_seed(self.seed, g)))
            .collect();
        self.generate.push(t.cpu_s());
        hsbp_parallel::pool_for(self.threads);
        self.times.push(t.cpu_s());
        let mut h = inputs::Fnv::default();
        for d in &graphs {
            h.u64(inputs::graph_fingerprint(&d.graph, &d.ground_truth));
        }
        self.fingerprints.push(h.finish());
        graphs
    }

    /// Repeat up to [`SETUP_REPS`], then report the purity check. Returns
    /// the median set-up and generation times.
    fn finish(mut self, report: &mut Report) -> (f64, f64) {
        while self.times.len() < SETUP_REPS {
            self.run();
        }
        report.check(
            "input is a pure function of the seed",
            self.fingerprints.windows(2).all(|w| w[0] == w[1]),
        );
        (median(&self.times), median(&self.generate))
    }
}

/// Checks of one detection result; the first result of a run is the
/// reference every later one must equal.
fn check_result(
    report: &mut Report,
    data: &GeneratedGraph,
    result: &SbpResult,
    first: &mut Option<Outcome>,
) {
    for (name, ok) in partition_checks(
        &data.graph,
        &data.ground_truth,
        &result.assignment,
        result.num_blocks,
        result.normalized_mdl,
    ) {
        report.check(name, ok);
    }
    report.check("run completed untruncated", !result.truncated());
    report.check("no state drift", result.stats.drift_events.is_empty());
    let outcome = Outcome::new(&result.assignment, result.mdl.total);
    match first {
        None => *first = Some(outcome),
        Some(f) => report.check(
            "repetition reproduces the first result bit for bit",
            *f == outcome,
        ),
    }
}

/// `unit.*`: the wall and CPU time of the traced run's untraced unit; and
/// `host.reference_s`, the reference kernel's median CPU time right after,
/// on the unit's `threads`.
fn set_unit_times(report: &mut Report, since: &Stamp, threads: usize) {
    report.set("unit.wall_s", since.wall_s());
    report.set("unit.cpu_s", since.cpu_s());
    let reference: Vec<f64> = (0..TRACE_REFERENCE_SAMPLES)
        .map(|_| reference_cpu_s(threads))
        .collect();
    report.set("host.reference_s", median(&reference));
}

/// The SBP configuration for graph `g` of a run.
fn sbp_config(variant: Variant, seed: u64, g: usize, threads: usize) -> SbpConfig {
    SbpConfig {
        variant,
        seed: inputs::graph_seed(seed, g),
        threads,
        ..Default::default()
    }
}

fn detect(
    args: &Args,
    spec: GraphSpec,
    variant: Variant,
    threads: usize,
    clock: &Clock,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup = GraphSetup::new(spec, args.seed, threads);
    let graphs = setup.run();
    if !args.trace {
        return measure_graphs(args, &graphs, setup, report, |g, report| {
            let cfg = sbp_config(variant, args.seed, g, threads);
            let t = Stamp::now();
            let result = run_sbp_checked(&graphs[g].graph, &cfg);
            let cpu = t.cpu_s();
            report.op(result.is_ok());
            Ok((cpu, result.map_err(|e| format!("detection failed: {e}"))?))
        });
    }
    // The traced run covers the run's first graph.
    let (data, cfg) = (&graphs[0], sbp_config(variant, args.seed, 0, threads));
    let mut first = None;
    let (_, generate_s) = setup.finish(report);
    report.set("generator.generate.s", generate_s);
    let pool = hsbp_parallel::pool_for(threads);
    pool.reset_stats();
    let t = Stamp::now();
    let result = run_sbp_checked(&data.graph, &cfg);
    set_unit_times(report, &t, threads);
    report.op(result.is_ok());
    let result = result.map_err(|e| format!("detection failed: {e}"))?;
    layers::set_pool(report, &pool.stats());
    layers::set_run_stats(report, &result.stats);
    check_result(report, data, &result, &mut first);
    traced_walk(
        report,
        &data.graph,
        spec.communities,
        &cfg,
        Some(&result),
        clock,
    );
    serve_leg(report, &data.graph, &data.ground_truth, &result, args.seed)?;
    layers::zero_shard(report);
    Ok(())
}

/// The traced walk on `graph`; when the untraced run of the same
/// configuration is given, the walk must retrace its trajectory.
fn traced_walk(
    report: &mut Report,
    graph: &Graph,
    planted: usize,
    cfg: &SbpConfig,
    untraced: Option<&SbpResult>,
    clock: &Clock,
) {
    let walk = probe::walk(graph, planted, cfg, clock);
    for row in &walk.rows {
        eprintln!(
            "walk: K {:>5} -> {:>5}  merge {:8.1} ms  mcmc {:8.1} ms  sweeps {:>3} {}  \
             proposals {:>8}  accepted {:>7}",
            row.target,
            row.reached,
            row.merge_ms,
            row.mcmc_ms,
            row.sweeps,
            if row.converged {
                "converged"
            } else {
                "capped   "
            },
            row.proposals,
            row.accepted
        );
    }
    report.check("walk followed the halving schedule", walk.schedule_held);
    report.check(
        "traced probe replays match the plain replays",
        walk.probes.iter().all(|p| p.replays_agree),
    );
    if let Some(result) = untraced {
        let retraced = walk
            .rows
            .iter()
            .zip(&result.trajectory)
            .all(|(row, &(k, mdl))| row.reached == k && row.mdl_total.to_bits() == mdl.to_bits());
        report.check(
            "traced walk retraces the untraced run",
            retraced && walk.rows.len() <= result.trajectory.len(),
        );
    }
    layers::set_walk(report, &walk, clock);
}

/// Serve the workload's detected partition under churn for the `serve.*`
/// layer metrics: the daemon warm-starts from a snapshot of the partition,
/// replays [`inputs::SERVE_LEG`], and is then killed and warm-restarted.
fn serve_leg(
    report: &mut Report,
    graph: &Graph,
    truth: &[u32],
    result: &SbpResult,
    seed: u64,
) -> Result<(), String> {
    let traffic = Traffic::generate(inputs::SERVE_LEG, truth, seed);
    let start = Start {
        graph,
        assignment: &result.assignment,
        num_blocks: result.num_blocks,
    };
    let session = serve::session("leg", &start, &traffic, seed, report)?;
    layers::set_serve(report, &[session]);
    Ok(())
}

fn shard_exact(args: &Args, clock: &Clock, report: &mut Report) -> Result<(), String> {
    let exact_config = |g: usize| -> Result<ExactConfig, String> {
        Ok(ExactConfig {
            num_shards: 4,
            sbp: SbpConfig {
                seed: inputs::graph_seed(args.seed, g),
                threads: 2,
                ..Default::default()
            },
            sync_every: 1,
            net_faults: NetFaultPlan::parse(NET_FAULTS)?,
            ..Default::default()
        })
    };
    let mut setup = GraphSetup::new(inputs::SPARSE_700, args.seed, 2);
    let graphs = setup.run();
    if !args.trace {
        let mut wire = vec![Vec::new(); graphs.len()];
        measure_graphs(args, &graphs, setup, report, |g, report| {
            let cfg = exact_config(g)?;
            let t = Stamp::now();
            let run = run_exact_sbp(&graphs[g].graph, &cfg);
            let cpu = t.cpu_s();
            report.op(run.is_ok());
            let run = run.map_err(|e| format!("exact sharded run failed: {e}"))?;
            for (name, ok) in shard_checks(run.dead_shards.len(), run.net.retransmits) {
                report.check(name, ok);
            }
            wire[g].push(run.net.bytes);
            Ok((cpu, run.result))
        })?;
        report.check(
            "repetitions put the same bytes on the wire",
            wire.iter().all(|w| w.windows(2).all(|p| p[0] == p[1])),
        );
        return Ok(());
    }
    // The traced run covers the run's first graph.
    let (data, cfg) = (&graphs[0], exact_config(0)?);
    let (_, generate_s) = setup.finish(report);
    report.set("generator.generate.s", generate_s);
    let pool = hsbp_parallel::pool_for(2);
    pool.reset_stats();
    let t = Stamp::now();
    let run = run_exact_sbp(&data.graph, &cfg);
    set_unit_times(report, &t, 2);
    report.op(run.is_ok());
    let run = run.map_err(|e| format!("exact sharded run failed: {e}"))?;
    layers::set_pool(report, &pool.stats());
    for (name, ok) in shard_checks(run.dead_shards.len(), run.net.retransmits) {
        report.check(name, ok);
    }
    check_result(report, data, &run.result, &mut None);
    layers::set_shard(report, &run);
    layers::set_run_stats(report, &run.result.stats);
    // The exact mode runs its own distributed sweep, so the walk (serial
    // chain) is not expected to retrace its trajectory.
    traced_walk(
        report,
        &data.graph,
        inputs::SPARSE_700.communities,
        &cfg.sbp,
        None,
        clock,
    );
    serve_leg(
        report,
        &data.graph,
        &data.ground_truth,
        &run.result,
        args.seed,
    )?;
    Ok(())
}
