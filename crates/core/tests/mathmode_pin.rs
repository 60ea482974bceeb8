//! Golden-bit pins: MDL bits plus an assignment fingerprint for fixed runs.
//!
//! The full-run fingerprints were captured on the libm tree before the
//! fast-math work (`ln` table, SoA rows, batched proposals), and every
//! refactor since has to reproduce them bit-for-bit across all four
//! variants, thread counts 1/2/7, and under budget truncation. The
//! dirty-region refinement pins were captured before `refine_partition`'s
//! resweep moved onto the shared serial Metropolis-Hastings kernel.

use hsbp_collections::fnv::Fnv1a;
use hsbp_core::{refine_partition, run_sbp_budgeted, CancelToken, RunBudget, SbpConfig, Variant};
use hsbp_generator::{generate, DcsbmConfig};
use hsbp_graph::{GraphBuilder, Vertex};

/// FNV-1a over the assignment labels plus the block count.
fn fingerprint(assignment: &[u32], num_blocks: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(&(num_blocks as u64).to_le_bytes());
    for &a in assignment {
        h.bytes(&u64::from(a).to_le_bytes());
    }
    h.finish()
}

fn pin_case(variant: Variant, threads: usize, truncated: bool) -> (u64, u64) {
    let data = generate(DcsbmConfig {
        num_vertices: 600,
        num_communities: 6,
        target_num_edges: 4800,
        seed: 11,
        ..Default::default()
    });
    let cfg = SbpConfig {
        variant,
        threads,
        seed: 1303,
        ..SbpConfig::new(variant, 1303)
    };
    let budget = if truncated {
        RunBudget::unlimited().with_max_total_sweeps(60)
    } else {
        RunBudget::unlimited()
    };
    let out = run_sbp_budgeted(&data.graph, &cfg, &budget, &CancelToken::new())
        .unwrap_or_else(|e| panic!("run failed: {e}"));
    if truncated {
        assert!(
            out.truncated(),
            "budget of 60 sweeps should truncate {variant:?}"
        );
    }
    (
        out.mdl.total.to_bits(),
        fingerprint(&out.assignment, out.num_blocks),
    )
}

/// `(variant, truncated) -> (mdl_bits, fingerprint)` captured pre-fastmath.
/// Thread count is not part of the key: results are pinned identical across
/// 1/2/7 threads.
const GOLDEN: [(Variant, bool, u64, u64); 8] = [
    (
        Variant::Metropolis,
        false,
        0x40e2_f711_9e6d_350e,
        0x1907_a1c6_0ee6_4286,
    ),
    (
        Variant::Metropolis,
        true,
        0x40e8_5cec_2037_b95c,
        0x97bb_fafe_772d_ffd4,
    ),
    (
        Variant::AsyncGibbs,
        false,
        0x40e2_f6af_0801_09cf,
        0xbdc0_0d8e_e270_3ec6,
    ),
    (
        Variant::AsyncGibbs,
        true,
        0x40e9_055c_48e7_7ae8,
        0x6a27_f891_2b61_5d44,
    ),
    (
        Variant::Hybrid,
        false,
        0x40e2_f6c0_f925_4603,
        0x4105_5141_94d1_bb46,
    ),
    (
        Variant::Hybrid,
        true,
        0x40e8_ad07_a65d_4fa5,
        0xb757_0b2e_d717_b770,
    ),
    (
        Variant::ExactAsync,
        false,
        0x40e2_f6f1_3c59_12ee,
        0x4a5f_40ce_ddb2_74e7,
    ),
    (
        Variant::ExactAsync,
        true,
        0x40e8_6c65_327c_e03a,
        0x7b43_32ce_9897_e1aa,
    ),
];

#[test]
fn full_runs_match_prechange_golden_bits() {
    for (variant, truncated, mdl_bits, fp) in GOLDEN {
        for threads in [1usize, 2, 7] {
            let (got_bits, got_fp) = pin_case(variant, threads, truncated);
            assert_eq!(
                got_bits, mdl_bits,
                "MDL bits drifted for {variant:?} t{threads} trunc={truncated}: \
                 got {got_bits:#018x}, pinned {mdl_bits:#018x}"
            );
            assert_eq!(
                got_fp, fp,
                "assignment drifted for {variant:?} t{threads} trunc={truncated}: \
                 got {got_fp:#018x}, pinned {fp:#018x}"
            );
        }
    }
}

/// Refine a mutated copy of the pin graph — every tenth edge dropped, 12
/// vertices grown, 150 random edges added — warm-started from the planted
/// labels with every seventh vertex relabelled. Returns the refined MDL bits
/// and assignment fingerprint.
fn refine_case(truncated: bool) -> (u64, u64) {
    let data = generate(DcsbmConfig {
        num_vertices: 600,
        num_communities: 6,
        target_num_edges: 4800,
        seed: 11,
        ..Default::default()
    });
    let n = data.graph.num_vertices();
    let grow = 12;
    let mut state: u64 = 0x5eed;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut dirty: Vec<Vertex> = Vec::new();
    let mut b = GraphBuilder::new(n + grow);
    for (i, (u, v, w)) in data.graph.edges().enumerate() {
        if i % 10 == 0 {
            dirty.extend([u, v]);
        } else {
            b.add_edge_weighted(u, v, w);
        }
    }
    for _ in 0..150 {
        let (u, v) = (rnd() % (n + grow), rnd() % (n + grow));
        if u != v {
            b.add_edge(u as Vertex, v as Vertex);
            dirty.extend([u as Vertex, v as Vertex]);
        }
    }
    let graph = b.build();
    let mut warm = data.ground_truth.clone();
    for v in (0..n).step_by(7) {
        warm[v] = (warm[v] + 1) % 6;
        dirty.push(v as Vertex);
    }
    let cfg = SbpConfig::new(Variant::Metropolis, 1303);
    let budget = if truncated {
        RunBudget::unlimited().with_max_total_sweeps(2)
    } else {
        RunBudget::unlimited()
    };
    let out = refine_partition(&graph, &warm, 6, &dirty, &cfg, &budget, &CancelToken::new())
        .unwrap_or_else(|e| panic!("refinement failed: {e}"));
    assert_eq!(out.truncated, truncated, "sweeps run: {}", out.sweeps);
    (
        out.mdl.total.to_bits(),
        fingerprint(&out.assignment, out.num_blocks),
    )
}

/// `truncated -> (mdl_bits, fingerprint)` of the refinement pin.
const REFINE_GOLDEN: [(bool, u64, u64); 2] = [
    (false, 0x40e1_ffaa_a766_710e, 0xfb2e_5463_beb8_97ed),
    (true, 0x40e2_5166_1f78_e702, 0xf866_bb49_2b64_5f66),
];

#[test]
fn refine_partition_matches_golden_bits() {
    for (truncated, mdl_bits, fp) in REFINE_GOLDEN {
        let (got_bits, got_fp) = refine_case(truncated);
        assert_eq!(
            got_bits, mdl_bits,
            "refined MDL bits drifted (trunc={truncated}): got {got_bits:#018x}, pinned {mdl_bits:#018x}"
        );
        assert_eq!(
            got_fp, fp,
            "refined assignment drifted (trunc={truncated}): got {got_fp:#018x}, pinned {fp:#018x}"
        );
    }
}
