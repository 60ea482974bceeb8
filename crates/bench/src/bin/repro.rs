//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hsbp-bench --bin repro -- all
//! cargo run --release -p hsbp-bench --bin repro -- fig4a --scale 0.01 --restarts 3
//! ```
//!
//! Experiments: table1 table2 fig2 fig3 fig4a fig4b fig5a fig5b fig6 fig7
//! fig8a fig8b ablation all. Output: aligned tables on stdout + CSVs under
//! `results/` (override with `--out DIR`).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use hsbp_bench::experiments as exp;
use hsbp_bench::runner::{run_realworld_suite, run_synthetic_suite, ExperimentContext};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--scale S] [--restarts N] [--seed K] [--out DIR] [--quiet]\n\
         experiments: table1 table2 fig2 fig3 fig4a fig4b fig5a fig5b fig6 fig7 fig8a fig8b\n\
         synth (= all synthetic figs) real (= all real-world figs) ablation all\n\
         (default scale {:.5}, restarts 2)",
        ExperimentContext::default().scale
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut ctx = ExperimentContext::default();
    let mut out = PathBuf::from("results");
    let mut experiment: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                ctx.scale = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("bad --scale: {e}");
                        usage()
                    });
            }
            "--restarts" => {
                ctx.restarts = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("bad --restarts: {e}");
                        usage()
                    });
            }
            "--seed" => {
                ctx.seed = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("bad --seed: {e}");
                        usage()
                    });
            }
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--quiet" => ctx.verbose = false,
            other if !other.starts_with('-') && experiment.is_none() => {
                experiment = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if !(ctx.scale > 0.0 && ctx.scale <= 1.0) {
        eprintln!("--scale must be in (0, 1]");
        usage();
    }
    let experiment = experiment.unwrap_or_else(|| usage());

    let needs_synth = matches!(
        experiment.as_str(),
        "fig2" | "fig3" | "fig4a" | "fig4b" | "fig8a" | "synth"
    );
    let needs_real = matches!(
        experiment.as_str(),
        "fig5a" | "fig5b" | "fig6" | "fig8b" | "real"
    );
    let synth = needs_synth.then(|| run_synthetic_suite(&ctx));
    let real = needs_real.then(|| run_realworld_suite(&ctx));

    match experiment.as_str() {
        "table1" => exp::table1_report(&ctx, &out),
        "table2" => exp::table2_report(&ctx, &out),
        "fig2" => exp::fig2_report(synth.as_deref().unwrap_or_else(|| usage()), &out),
        "fig3" => exp::fig3_report(synth.as_deref().unwrap_or_else(|| usage()), &out),
        "fig4a" => exp::fig4a_report(synth.as_deref().unwrap_or_else(|| usage()), &out),
        "fig4b" => exp::fig4b_report(synth.as_deref().unwrap_or_else(|| usage()), &out),
        "fig8a" => exp::fig8a_report(synth.as_deref().unwrap_or_else(|| usage()), &out),
        "fig5a" => exp::fig5a_report(real.as_deref().unwrap_or_else(|| usage()), &out),
        "fig5b" => exp::fig5b_report(real.as_deref().unwrap_or_else(|| usage()), &out),
        "fig6" => exp::fig6_report(real.as_deref().unwrap_or_else(|| usage()), &out),
        "fig8b" => exp::fig8b_report(real.as_deref().unwrap_or_else(|| usage()), &out),
        "fig7" => exp::fig7_report(&ctx, &out),
        "synth" => {
            let synth = synth.as_deref().unwrap_or_else(|| usage());
            exp::fig2_report(synth, &out);
            exp::fig3_report(synth, &out);
            exp::fig4a_report(synth, &out);
            exp::fig4b_report(synth, &out);
            exp::fig8a_report(synth, &out);
        }
        "real" => {
            let real = real.as_deref().unwrap_or_else(|| usage());
            exp::fig5a_report(real, &out);
            exp::fig5b_report(real, &out);
            exp::fig6_report(real, &out);
            exp::fig8b_report(real, &out);
        }
        "ablation" => {
            exp::ablation_serial_fraction(&ctx, &out);
            exp::ablation_chunking(&ctx, &out);
            exp::ablation_batches(&ctx, &out);
            exp::ablation_exact_async(&ctx, &out);
        }
        "all" => exp::run_all(&ctx, &out),
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
}
