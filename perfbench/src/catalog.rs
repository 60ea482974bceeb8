//! Every metric the benchmark can print, with its unit. `BENCHMARK.json`
//! lists the same names (a self-test keeps the two equal); every run prints
//! all end-to-end metrics (`--trace 0`) or all per-layer metrics
//! (`--trace 1`), so a per-layer metric of a layer the workload does not
//! exercise reads 0.

/// One metric: its name and unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
}

impl MetricDef {
    pub fn new(name: impl Into<String>, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            unit,
        }
    }
}

/// Labels of the three probed block counts of the halving schedule.
pub const K_LABELS: [&str; 3] = ["k_hi", "k_mid", "k_lo"];

/// The blockmodel calls a probe sweep times, in sweep order.
pub const SWEEP_OPS: [&str; 5] = [
    "propose_block",
    "gather",
    "evaluate_move",
    "accept_move",
    "apply_move",
];

/// Serve read ops the traffic mixes.
pub const READ_OPS: [&str; 3] = ["membership", "mdl", "block_stats"];

/// End-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        MetricDef::new("setup_s", "s"),
        MetricDef::new("cpu_s", "s"),
        MetricDef::new("peak_rss_mb", "MB"),
        MetricDef::new("nmi", "ratio"),
        MetricDef::new("mdl_norm", "ratio"),
    ]
}

/// Per-layer metrics, printed by the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    let mut add = |name: String, unit: &'static str| defs.push(MetricDef::new(name, unit));
    add("unit.wall_s".into(), "s");
    add("unit.cpu_s".into(), "s");
    add("host.reference_s".into(), "s");
    add("generator.generate.s".into(), "s");
    for (name, unit) in [
        ("core.merge.s", "s"),
        ("core.mcmc.s", "s"),
        ("core.other.s", "s"),
        ("core.mcmc.sweeps", "count"),
        ("core.mcmc.proposals", "count"),
        ("core.mcmc.accept_ratio", "ratio"),
        ("core.driver.outer_iterations", "count"),
        ("core.mcmc.audits", "count"),
        ("core.mcmc.consolidate.incremental", "count"),
        ("core.mcmc.consolidate.rebuild", "count"),
        ("core.mcmc.consolidate.moves", "count"),
        ("core.mcmc.capped_phases", "count"),
        ("parallel.sections", "count"),
        ("parallel.chunks", "count"),
        ("parallel.steals", "count"),
        ("parallel.mean_imbalance", "ratio"),
        ("timing.sim_mcmc_speedup.t8", "x"),
    ] {
        add(name.into(), unit);
    }
    for k in K_LABELS {
        add(format!("core.merge.ms.{k}"), "ms");
        add(format!("core.mcmc.ms_per_sweep.{k}"), "ms");
        for op in SWEEP_OPS {
            for when in ["first", "settled"] {
                add(format!("blockmodel.{op}.ns.{k}.{when}"), "ns");
            }
        }
        add(format!("blockmodel.from_assignment.ms.{k}"), "ms");
        add(format!("blockmodel.sampler_build.ms.{k}"), "ms");
        add(format!("blockmodel.delta_mdl_merge.ns.{k}"), "ns");
    }
    add("blockmodel.evaluate_move.share".into(), "ratio");
    add("probe.span_overhead.ms".into(), "ms");
    add("probe.empty_span.ns".into(), "ns");
    for op in READ_OPS {
        add(format!("serve.read.{op}.p50_ms"), "ms");
        add(format!("serve.read.{op}.p99_ms"), "ms");
    }
    for (name, unit) in [
        ("serve.read.p50_ms", "ms"),
        ("serve.read.p99_ms", "ms"),
        ("serve.read.samples", "count"),
        ("serve.write.batch_ms.p50", "ms"),
        ("serve.write.batch_ms.p99", "ms"),
        ("serve.mutations_per_s", "1/s"),
        ("serve.flush_ms.p50", "ms"),
        ("serve.flush_ms.p99", "ms"),
        ("serve.refine.cancellations", "count"),
        ("serve.refine.errors", "count"),
        ("serve.drift_repairs", "count"),
        ("serve.mid_refinement_reads", "count"),
        ("serve.busy_refusals", "count"),
        ("serve.wal_bytes", "bytes"),
        ("serve.recovery_s", "s"),
        ("serve.recovery.replayed_batches", "count"),
        ("shard.exact.rounds", "count"),
        ("shard.channel.messages", "count"),
        ("shard.channel.bytes_per_round", "bytes"),
        ("shard.channel.retransmits", "count"),
        ("shard.channel.nacks", "count"),
        ("shard.channel.resyncs", "count"),
        ("shard.channel.dropped", "count"),
        ("shard.channel.corrupt_detected", "count"),
        ("shard.wire_bytes", "bytes"),
        ("shard.comm_fraction", "ratio"),
    ] {
        add(name.into(), unit);
    }
    defs
}

/// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
pub fn legal_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::catalog_problems;
    use hsbp_serve::json::{parse, Json};

    fn listed(doc: &Json, key: &str) -> Vec<MetricDef> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                MetricDef::new(name, Box::leak(unit.to_string().into_boxed_str()))
            })
            .collect()
    }

    #[test]
    fn names_are_legal_unique_and_within_caps() {
        assert_eq!(catalog_problems(&end_to_end(), 16), Vec::<String>::new());
        assert_eq!(catalog_problems(&per_layer(), 128), Vec::<String>::new());
        assert!(!legal_name("bad name"));
        assert!(!legal_name(".leading_dot"));
        assert!(!legal_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), end_to_end());
        assert_eq!(listed(&doc, "per_layer"), per_layer());
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).expect("list");
        assert!(e2e.iter().all(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(1.0);
            bound > 0.0 && bound <= 0.25
        }));
    }
}
