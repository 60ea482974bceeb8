//! One function per paper artifact. Each consumes the shared suite results
//! (so `repro all` runs every graph exactly once) and emits an aligned table
//! plus a CSV under the output directory.

use crate::plot::{scaling_curve, BarChart};
use crate::report::{fmt, Table};
use crate::runner::{
    run_realworld_suite, run_synthetic_suite, ExperimentContext, RealRun, SyntheticRun,
};
use hsbp_core::{run_sbp, RunStats, SbpConfig, Variant};
use hsbp_generator::{generate, table1, table2, table2_by_id, SyntheticSpec};
use hsbp_graph::stats::within_between_ratio;
use hsbp_graph::GraphStats;
use hsbp_metrics::pearson;
use std::path::Path;

/// Catalog lookups and sim-time curve reads in this harness only fail on
/// programmer error (a renamed id, an untracked thread count); fail loudly
/// with the offending key rather than unwrap.
fn table2_entry(id: &str) -> SyntheticSpec {
    table2_by_id(id).unwrap_or_else(|| panic!("{id} missing from the Table 2 catalog"))
}

fn table1_entry(id: &str) -> SyntheticSpec {
    table1()
        .into_iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("{id} missing from the Table 1 catalog"))
}

fn sim_mcmc_at(stats: &RunStats, threads: usize) -> f64 {
    stats
        .sim_mcmc_time(threads)
        .unwrap_or_else(|| panic!("thread count {threads} not tracked by the sim accumulator"))
}

/// Table 1: the synthetic graph catalog — paper sizes vs realised surrogate
/// sizes and community strength at the chosen scale.
pub fn table1_report(ctx: &ExperimentContext, out: &Path) {
    let mut t = Table::new(&[
        "ID",
        "paper V",
        "paper E",
        "gen V",
        "gen E",
        "target r",
        "realised r",
        "gamma_hat",
    ]);
    for spec in table1() {
        if ctx.verbose {
            eprintln!("table1 {}", spec.id);
        }
        let data = generate(spec.config(ctx.scale));
        let stats = GraphStats::compute(&data.graph);
        t.row(vec![
            spec.id.into(),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            data.graph.num_vertices().to_string(),
            data.graph.num_edges().to_string(),
            fmt(spec.ratio, 2),
            fmt(within_between_ratio(&data.graph, &data.ground_truth), 2),
            fmt(stats.power_law_exponent, 2),
        ]);
    }
    t.emit(
        &format!("Table 1: synthetic graphs (scale {:.5})", ctx.scale),
        out,
        "table1",
    );
}

/// Table 2: the real-world surrogate catalog.
pub fn table2_report(ctx: &ExperimentContext, out: &Path) {
    let mut t = Table::new(&[
        "ID",
        "domain",
        "paper V",
        "paper E",
        "gen V",
        "gen E",
        "max deg",
        "gamma_hat",
    ]);
    for spec in table2() {
        if ctx.verbose {
            eprintln!("table2 {}", spec.id);
        }
        let data = generate(spec.config(ctx.scale));
        let stats = GraphStats::compute(&data.graph);
        t.row(vec![
            spec.id.into(),
            spec.note.into(),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            data.graph.num_vertices().to_string(),
            data.graph.num_edges().to_string(),
            stats.max_degree.to_string(),
            fmt(stats.power_law_exponent, 2),
        ]);
    }
    t.emit(
        &format!("Table 2: real-world surrogates (scale {:.5})", ctx.scale),
        out,
        "table2",
    );
}

/// Fig. 2: percentage of wall-clock execution time spent in the MCMC phase
/// (serial SBP runs, as in the paper).
pub fn fig2_report(synth: &[SyntheticRun], out: &Path) {
    let mut t = Table::new(&["ID", "MCMC %", "merge+other %"]);
    let mut total = 0.0;
    for s in synth {
        let sbp = &s.runs[0];
        let pct = 100.0 * sbp.mcmc_wall_fraction;
        total += pct;
        t.row(vec![s.id.clone(), fmt(pct, 1), fmt(100.0 - pct, 1)]);
    }
    if !synth.is_empty() {
        t.row(vec![
            "mean".into(),
            fmt(total / synth.len() as f64, 1),
            "".into(),
        ]);
    }
    t.emit(
        "Fig 2: SBP execution-time breakdown (MCMC vs rest)",
        out,
        "fig2",
    );
}

/// Fig. 3: correlation of NMI with modularity and with normalized MDL
/// across all synthetic runs.
pub fn fig3_report(synth: &[SyntheticRun], out: &Path) {
    let mut scatter = Table::new(&["ID", "variant", "NMI", "modularity", "MDL_norm"]);
    let (mut nmis, mut mods, mut norms) = (Vec::new(), Vec::new(), Vec::new());
    for s in synth {
        for run in &s.runs {
            if run.nmi.is_finite() && run.mdl_norm.is_finite() {
                nmis.push(run.nmi);
                mods.push(run.modularity);
                norms.push(run.mdl_norm);
                scatter.row(vec![
                    s.id.clone(),
                    run.variant.name().into(),
                    fmt(run.nmi, 4),
                    fmt(run.modularity, 4),
                    fmt(run.mdl_norm, 4),
                ]);
            }
        }
    }
    scatter.emit(
        "Fig 3 (scatter data): NMI vs modularity vs MDL_norm",
        out,
        "fig3_scatter",
    );

    let c_mod = pearson(&nmis, &mods);
    let c_norm = pearson(&nmis, &norms);
    let mut t = Table::new(&["pair", "r", "r^2", "p-value", "n"]);
    t.row(vec![
        "NMI ~ modularity".into(),
        fmt(c_mod.r, 3),
        fmt(c_mod.r_squared, 3),
        format!("{:.2e}", c_mod.p_value),
        c_mod.n.to_string(),
    ]);
    t.row(vec![
        "NMI ~ MDL_norm".into(),
        fmt(c_norm.r, 3),
        fmt(c_norm.r_squared, 3),
        format!("{:.2e}", c_norm.p_value),
        c_norm.n.to_string(),
    ]);
    t.emit(
        "Fig 3: correlation strength (paper: MDL_norm r^2=0.85 > modularity r^2=0.75)",
        out,
        "fig3",
    );
}

/// Fig. 4a: NMI of SBP / H-SBP / A-SBP on the synthetic graphs.
pub fn fig4a_report(synth: &[SyntheticRun], out: &Path) {
    let mut t = Table::new(&["ID", "SBP", "H-SBP", "A-SBP"]);
    for s in synth {
        t.row(vec![
            s.id.clone(),
            fmt(s.runs[0].nmi, 3),
            fmt(s.runs[1].nmi, 3),
            fmt(s.runs[2].nmi, 3),
        ]);
    }
    t.emit("Fig 4a: NMI on synthetic graphs", out, "fig4a");
    let mut chart = BarChart::new("Fig 4a (chart): NMI", &["SBP", "H-SBP", "A-SBP"]);
    for s in synth {
        chart.item(&s.id, &[s.runs[0].nmi, s.runs[1].nmi, s.runs[2].nmi]);
    }
    println!("{}", chart.render());
}

/// Fig. 4b: simulated MCMC-phase speedup over SBP at 128 threads, plus the
/// Amdahl-limited overall speedup.
pub fn fig4b_report(synth: &[SyntheticRun], out: &Path) {
    let mut t = Table::new(&[
        "ID",
        "H-SBP mcmc",
        "A-SBP mcmc",
        "H-SBP overall",
        "A-SBP overall",
    ]);
    for s in synth {
        let base_mcmc = s.runs[0].sim_mcmc_128;
        let base_total = s.runs[0].sim_total_128;
        t.row(vec![
            s.id.clone(),
            fmt(base_mcmc / s.runs[1].sim_mcmc_128, 2),
            fmt(base_mcmc / s.runs[2].sim_mcmc_128, 2),
            fmt(base_total / s.runs[1].sim_total_128, 2),
            fmt(base_total / s.runs[2].sim_total_128, 2),
        ]);
    }
    t.emit(
        "Fig 4b: speedup over SBP on synthetic graphs (128 simulated threads)",
        out,
        "fig4b",
    );
    let mut chart = BarChart::new(
        "Fig 4b (chart): MCMC-phase speedup over SBP",
        &["H-SBP", "A-SBP"],
    );
    for s in synth {
        let base = s.runs[0].sim_mcmc_128;
        chart.item(
            &s.id,
            &[base / s.runs[1].sim_mcmc_128, base / s.runs[2].sim_mcmc_128],
        );
    }
    println!("{}", chart.render());
}

/// Fig. 8a: MCMC iterations to convergence on synthetic graphs.
pub fn fig8a_report(synth: &[SyntheticRun], out: &Path) {
    let mut t = Table::new(&["ID", "SBP", "H-SBP", "A-SBP"]);
    for s in synth {
        t.row(vec![
            s.id.clone(),
            s.runs[0].mcmc_sweeps.to_string(),
            s.runs[1].mcmc_sweeps.to_string(),
            s.runs[2].mcmc_sweeps.to_string(),
        ]);
    }
    t.emit("Fig 8a: MCMC iterations on synthetic graphs", out, "fig8a");
    let mut chart = BarChart::new(
        "Fig 8a (chart): MCMC iterations",
        &["SBP", "H-SBP", "A-SBP"],
    );
    for s in synth {
        chart.item(
            &s.id,
            &[
                s.runs[0].mcmc_sweeps as f64,
                s.runs[1].mcmc_sweeps as f64,
                s.runs[2].mcmc_sweeps as f64,
            ],
        );
    }
    println!("{}", chart.render());
}

/// Fig. 5a: normalized MDL of SBP vs H-SBP on the real-world surrogates.
pub fn fig5a_report(real: &[RealRun], out: &Path) {
    let mut t = Table::new(&["ID", "SBP", "H-SBP"]);
    for r in real {
        t.row(vec![
            r.id.clone(),
            fmt(r.runs[0].mdl_norm, 4),
            fmt(r.runs[1].mdl_norm, 4),
        ]);
    }
    t.emit("Fig 5a: normalized MDL on real-world graphs", out, "fig5a");
    let mut chart = BarChart::new("Fig 5a (chart): normalized MDL", &["SBP", "H-SBP"]);
    for r in real {
        chart.item(&r.id, &[r.runs[0].mdl_norm, r.runs[1].mdl_norm]);
    }
    println!("{}", chart.render());
}

/// Fig. 5b: modularity of SBP vs H-SBP on the real-world surrogates.
pub fn fig5b_report(real: &[RealRun], out: &Path) {
    let mut t = Table::new(&["ID", "SBP", "H-SBP"]);
    for r in real {
        t.row(vec![
            r.id.clone(),
            fmt(r.runs[0].modularity, 4),
            fmt(r.runs[1].modularity, 4),
        ]);
    }
    t.emit("Fig 5b: modularity on real-world graphs", out, "fig5b");
    let mut chart = BarChart::new("Fig 5b (chart): modularity", &["SBP", "H-SBP"]);
    for r in real {
        chart.item(&r.id, &[r.runs[0].modularity, r.runs[1].modularity]);
    }
    println!("{}", chart.render());
}

/// Fig. 6: H-SBP's simulated MCMC-phase speedup over SBP on the real-world
/// surrogates (plus overall speedup, §5.4).
pub fn fig6_report(real: &[RealRun], out: &Path) {
    let mut t = Table::new(&["ID", "mcmc speedup", "overall speedup"]);
    for r in real {
        t.row(vec![
            r.id.clone(),
            fmt(r.runs[0].sim_mcmc_128 / r.runs[1].sim_mcmc_128, 2),
            fmt(r.runs[0].sim_total_128 / r.runs[1].sim_total_128, 2),
        ]);
    }
    t.emit(
        "Fig 6: H-SBP speedup over SBP on real-world graphs (128 simulated threads)",
        out,
        "fig6",
    );
    let mut chart = BarChart::new("Fig 6 (chart): H-SBP MCMC speedup", &["H-SBP"]);
    for r in real {
        chart.item(&r.id, &[r.runs[0].sim_mcmc_128 / r.runs[1].sim_mcmc_128]);
    }
    println!("{}", chart.render());
}

/// Fig. 8b: MCMC iterations on the real-world surrogates.
pub fn fig8b_report(real: &[RealRun], out: &Path) {
    let mut t = Table::new(&["ID", "SBP", "H-SBP"]);
    for r in real {
        t.row(vec![
            r.id.clone(),
            r.runs[0].mcmc_sweeps.to_string(),
            r.runs[1].mcmc_sweeps.to_string(),
        ]);
    }
    t.emit("Fig 8b: MCMC iterations on real-world graphs", out, "fig8b");
    let mut chart = BarChart::new("Fig 8b (chart): MCMC iterations", &["SBP", "H-SBP"]);
    for r in real {
        chart.item(
            &r.id,
            &[r.runs[0].mcmc_sweeps as f64, r.runs[1].mcmc_sweeps as f64],
        );
    }
    println!("{}", chart.render());
}

/// Fig. 7: strong scaling of H-SBP's MCMC phase on the `soc-Slashdot0902`
/// surrogate, threads 1..128.
pub fn fig7_report(ctx: &ExperimentContext, out: &Path) {
    let spec = table2_entry("soc-Slashdot0902");
    if ctx.verbose {
        eprintln!("fig7: strong scaling on {}", spec.id);
    }
    let data = generate(spec.config(ctx.scale));
    let result = run_sbp(&data.graph, &SbpConfig::new(Variant::Hybrid, ctx.seed));
    let mut t = Table::new(&["threads", "sim MCMC time", "speedup", "efficiency %"]);
    let base = sim_mcmc_at(&result.stats, 1);
    for (threads, time) in result.stats.sim_mcmc.curve() {
        let speedup = base / time;
        t.row(vec![
            threads.to_string(),
            fmt(time, 0),
            fmt(speedup, 2),
            fmt(100.0 * speedup / threads as f64, 1),
        ]);
    }
    t.emit(
        "Fig 7: H-SBP strong scaling on soc-Slashdot0902",
        out,
        "fig7",
    );
    println!(
        "{}",
        scaling_curve(
            "Fig 7 (chart): simulated MCMC runtime vs threads",
            &result.stats.sim_mcmc.curve(),
            46,
        )
    );
}

/// Ablation (beyond the paper): H-SBP accuracy/speedup across serial
/// fractions, on one synthetic graph.
pub fn ablation_serial_fraction(ctx: &ExperimentContext, out: &Path) {
    let spec = table1_entry("S5");
    let data = generate(spec.config(ctx.scale));
    let base = run_sbp(&data.graph, &SbpConfig::new(Variant::Metropolis, ctx.seed));
    let base_mcmc = sim_mcmc_at(&base.stats, 128);
    let mut t = Table::new(&["serial fraction", "NMI", "sweeps", "mcmc speedup"]);
    for fraction in [0.0, 0.05, 0.15, 0.3, 0.5, 1.0] {
        if ctx.verbose {
            eprintln!("ablation f={fraction}");
        }
        let cfg = SbpConfig {
            variant: Variant::Hybrid,
            hybrid_serial_fraction: fraction,
            seed: ctx.seed,
            ..Default::default()
        };
        let result = run_sbp(&data.graph, &cfg);
        t.row(vec![
            fmt(fraction, 2),
            fmt(hsbp_metrics::nmi(&data.ground_truth, &result.assignment), 3),
            result.stats.mcmc_sweeps.to_string(),
            fmt(base_mcmc / sim_mcmc_at(&result.stats, 128), 2),
        ]);
    }
    t.emit(
        "Ablation: H-SBP serial fraction (paper fixes 15%)",
        out,
        "ablation_fraction",
    );
}

/// Ablation (beyond the paper): static vs dynamic chunking in the simulated
/// scheduler — the load-balancing headroom §5.5 speculates about.
pub fn ablation_chunking(ctx: &ExperimentContext, out: &Path) {
    use hsbp_timing::Chunking;
    let spec = table2_entry("soc-Slashdot0902");
    let data = generate(spec.config(ctx.scale));
    let mut t = Table::new(&["schedule", "sim MCMC @16", "sim MCMC @128", "speedup @128"]);
    let mut base128 = None;
    for (name, chunking) in [
        ("static", Chunking::Static),
        ("dynamic(16)", Chunking::Dynamic { chunk_size: 16 }),
    ] {
        let cfg = SbpConfig {
            variant: Variant::Hybrid,
            sim_chunking: chunking,
            seed: ctx.seed,
            ..Default::default()
        };
        let result = run_sbp(&data.graph, &cfg);
        let t16 = sim_mcmc_at(&result.stats, 16);
        let t128 = sim_mcmc_at(&result.stats, 128);
        let t1 = sim_mcmc_at(&result.stats, 1);
        base128.get_or_insert(t1);
        t.row(vec![
            name.into(),
            fmt(t16, 0),
            fmt(t128, 0),
            fmt(t1 / t128, 2),
        ]);
    }
    t.emit(
        "Ablation: static vs dynamic scheduling of the parallel sweep",
        out,
        "ablation_chunking",
    );
}

/// Ablation (beyond the paper): batched A-SBP — the paper's conclusion
/// suggests rebuilding in batches to shrink staleness without a serial set.
pub fn ablation_batches(ctx: &ExperimentContext, out: &Path) {
    let spec = table1_entry("S6");
    let data = generate(spec.config(ctx.scale));
    let mut t = Table::new(&["batches", "NMI", "MDL_norm", "sweeps", "sim mcmc @128"]);
    for batches in [1usize, 2, 4, 8] {
        if ctx.verbose {
            eprintln!("ablation batches={batches}");
        }
        let cfg = SbpConfig {
            variant: Variant::AsyncGibbs,
            asbp_batches: batches,
            seed: ctx.seed,
            ..Default::default()
        };
        let result = run_sbp(&data.graph, &cfg);
        t.row(vec![
            batches.to_string(),
            fmt(hsbp_metrics::nmi(&data.ground_truth, &result.assignment), 3),
            fmt(result.normalized_mdl, 4),
            result.stats.mcmc_sweeps.to_string(),
            fmt(result.stats.sim_mcmc_time(128).unwrap_or(f64::NAN), 0),
        ]);
    }
    t.emit(
        "Ablation: batched A-SBP (paper conclusion)",
        out,
        "ablation_batches",
    );
}

/// Ablation (beyond the paper): the paper's snapshot A-SBP vs Terenin-style
/// exact asynchronous Gibbs with per-worker model replicas (§3.1's rejected
/// design) — accuracy is comparable, but the replication cost shows up in
/// the simulated time.
pub fn ablation_exact_async(ctx: &ExperimentContext, out: &Path) {
    let spec = table1_entry("S6");
    let data = generate(spec.config(ctx.scale));
    let mut t = Table::new(&["algorithm", "NMI", "MDL_norm", "sweeps", "sim mcmc @128"]);
    let configs = [
        (
            "A-SBP (paper)",
            SbpConfig {
                variant: Variant::AsyncGibbs,
                seed: ctx.seed,
                ..Default::default()
            },
        ),
        (
            "EA-SBP w=8",
            SbpConfig {
                variant: Variant::ExactAsync,
                exact_async_workers: 8,
                seed: ctx.seed,
                ..Default::default()
            },
        ),
        (
            "EA-SBP w=32",
            SbpConfig {
                variant: Variant::ExactAsync,
                exact_async_workers: 32,
                seed: ctx.seed,
                ..Default::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        if ctx.verbose {
            eprintln!("ablation exact: {name}");
        }
        let result = run_sbp(&data.graph, &cfg);
        t.row(vec![
            name.into(),
            fmt(hsbp_metrics::nmi(&data.ground_truth, &result.assignment), 3),
            fmt(result.normalized_mdl, 4),
            result.stats.mcmc_sweeps.to_string(),
            fmt(result.stats.sim_mcmc_time(128).unwrap_or(f64::NAN), 0),
        ]);
    }
    t.emit(
        "Ablation: snapshot A-SBP vs replica-based exact async Gibbs (paper \u{a7}3.1)",
        out,
        "ablation_exact",
    );
}

/// Run everything in paper order.
pub fn run_all(ctx: &ExperimentContext, out: &Path) {
    table1_report(ctx, out);
    table2_report(ctx, out);
    eprintln!(
        "running synthetic suite (18 graphs x 3 variants x {} restarts)…",
        ctx.restarts
    );
    let synth = run_synthetic_suite(ctx);
    fig2_report(&synth, out);
    fig3_report(&synth, out);
    fig4a_report(&synth, out);
    fig4b_report(&synth, out);
    fig8a_report(&synth, out);
    eprintln!(
        "running real-world suite (14 graphs x 2 variants x {} restarts)…",
        ctx.restarts
    );
    let real = run_realworld_suite(ctx);
    fig5a_report(&real, out);
    fig5b_report(&real, out);
    fig6_report(&real, out);
    fig8b_report(&real, out);
    fig7_report(ctx, out);
    ablation_serial_fraction(ctx, out);
    ablation_chunking(ctx, out);
    ablation_batches(ctx, out);
    ablation_exact_async(ctx, out);
}
