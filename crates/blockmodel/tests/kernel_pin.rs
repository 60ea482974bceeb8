//! Bit pins for the delta-MDL kernel on a fixed weighted DCSBM with
//! self-loops, heavy cells past the `ln` table cap and isolated vertices.
//!
//! * The Hastings factor of every `(v, to)` and the merge delta of every
//!   `(r, s)` are pinned by an FNV-1a over their bits: the accept decisions
//!   of every variant depend on them, so any change of association shows.
//! * The move delta is checked against a brute-force recompute of `L(G|B)`
//!   from the graph to 1e-9 relative; an isolated vertex's delta is
//!   exactly 0.
//!
//! The fingerprints were captured on the line-sum kernel that predates the
//! changed-cells move delta; they must never be re-captured to make a
//! kernel change pass.

use hsbp_blockmodel::fastmath::TABLE_CAP;
use hsbp_blockmodel::{
    delta_mdl_merge_with, evaluate_move_with, mdl, Block, Blockmodel, NeighborCounts, ProposalArena,
};
use hsbp_collections::fnv::Fnv1a;
use hsbp_collections::SplitMix64;
use hsbp_graph::{Graph, GraphBuilder, Vertex};

const N: usize = 96;
const COMMUNITIES: u64 = 4;
/// Vertices `N - ISOLATED..N` get no edges at all.
const ISOLATED: usize = 3;

/// Planted-partition DCSBM: degree propensities, mostly intra-community
/// edges of weight 1..=4, self-loops on every fifth vertex, and a few
/// heavy edges whose cells and degrees exceed `TABLE_CAP`.
fn dcsbm() -> Graph {
    let mut rng = SplitMix64::new(0x5eed_0013);
    let live = (N - ISOLATED) as u64;
    let theta: Vec<u64> = (0..live).map(|_| 1 + rng.next_below(4)).collect();
    let community = |v: u64| v % COMMUNITIES;
    let mut builder = GraphBuilder::new(N);
    for _ in 0..900 {
        let u = rng.next_below(live);
        let mut v = rng.next_below(live);
        if rng.next_below(10) < 8 {
            // Intra-community: re-draw v until it shares u's community.
            while community(v) != community(u) {
                v = rng.next_below(live);
            }
        }
        if rng.next_below(5) >= theta[u as usize] {
            continue;
        }
        builder.add_edge_weighted(u as Vertex, v as Vertex, 1 + rng.next_below(4));
    }
    for v in (0..live).step_by(5) {
        builder.add_edge_weighted(v as Vertex, v as Vertex, 1 + rng.next_below(3));
    }
    let heavy = TABLE_CAP as u64;
    builder.add_edge_weighted(0, 4, heavy + 17);
    builder.add_edge_weighted(9, 2, heavy / 2 + 5);
    builder.add_edge_weighted(6, 6, heavy + 3);
    builder.build()
}

/// The planted labels at `k = COMMUNITIES`; a deterministic scatter at
/// larger `k` (the high-block-count regime of early MCMC phases).
fn assignment(k: usize) -> Vec<Block> {
    if k == COMMUNITIES as usize {
        return (0..N as u64).map(|v| (v % COMMUNITIES) as Block).collect();
    }
    let mut rng = SplitMix64::new(0xb10c_0000 + k as u64);
    (0..N)
        .map(|v| {
            if v < k {
                v as Block
            } else {
                rng.next_below(k as u64) as Block
            }
        })
        .collect()
}

/// What one sweep over every `(v, to)` covered, so the pins provably reach
/// the corner cases.
#[derive(Default)]
struct Coverage {
    past_cap: usize,
    to_adjacent: usize,
    self_loop_moves: usize,
    isolated_moves: usize,
}

/// Brute-force `L(G|B) − L(G|B')` with `B'` rebuilt from the graph: the
/// difference of the `mdl::log_likelihood` terms cell by cell. Cells the
/// move leaves alone cancel exactly, so the reference carries no rounding
/// from the heavy cells (`|L| ≈ 2e6` here, where two plain
/// `mdl::log_likelihood` totals already differ by ~1e-9 in rounding alone).
fn brute_force_delta(bm: &Blockmodel, moved: &Blockmodel) -> f64 {
    let term = |m: &Blockmodel, r: Block, s: Block| {
        mdl::log_likelihood_term(
            m.edge_count(r, s) as f64,
            m.d_out(r) as f64,
            m.d_in(s) as f64,
        )
    };
    let mut total = 0.0;
    for r in 0..bm.num_blocks() as Block {
        for s in 0..bm.num_blocks() as Block {
            total += term(bm, r, s) - term(moved, r, s);
        }
    }
    total
}

/// FNV-1a over the Hastings bits of every `(v, to)`, checking each move
/// delta against the brute-force likelihood difference.
fn pin_moves(graph: &Graph, bm: &Blockmodel, cov: &mut Coverage) -> u64 {
    let mut arena = ProposalArena::default();
    let mut hash = Fnv1a::new();
    for v in 0..N as Vertex {
        NeighborCounts::gather_into(
            graph,
            bm.assignment(),
            v,
            &mut arena.scratch,
            &mut arena.counts,
        );
        let from = bm.block_of(v);
        for to in 0..bm.num_blocks() as Block {
            let eval = evaluate_move_with(bm, from, to, &arena.counts, &mut arena.eval);
            hash.bytes(&eval.hastings.to_bits().to_le_bytes());
            if to == from {
                continue;
            }
            let counts = &arena.counts;
            if counts.degree() == 0 {
                cov.isolated_moves += 1;
                assert_eq!(eval.delta_mdl.to_bits(), 0.0f64.to_bits(), "isolated v={v}");
                assert_eq!(eval.hastings, 1.0, "isolated v={v}");
            }
            let mut labels = bm.assignment().to_vec();
            labels[v as usize] = to;
            let moved = Blockmodel::from_assignment(graph, labels, bm.num_blocks());
            let slow = brute_force_delta(bm, &moved);
            assert!(
                (eval.delta_mdl - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                "v={v} {from}->{to}: fast {} vs brute force {slow}",
                eval.delta_mdl
            );
            let touches = |b: Block| {
                counts
                    .out_counts
                    .iter()
                    .chain(&counts.in_counts)
                    .any(|&(t, _)| t == b)
            };
            cov.to_adjacent += usize::from(touches(to) && touches(from));
            cov.self_loop_moves += usize::from(counts.self_loops > 0);
            let heavy = |b: Block| bm.d_out(b).max(bm.d_in(b)) >= TABLE_CAP as u64;
            cov.past_cap += usize::from(heavy(from) || heavy(to));
        }
    }
    hash.finish()
}

/// FNV-1a over the merge delta bits of every ordered `(r, s)`.
fn pin_merges(bm: &Blockmodel) -> u64 {
    let mut arena = ProposalArena::default();
    let mut hash = Fnv1a::new();
    for r in 0..bm.num_blocks() as Block {
        for s in 0..bm.num_blocks() as Block {
            let delta = delta_mdl_merge_with(bm, r, s, &mut arena.eval);
            hash.bytes(&delta.to_bits().to_le_bytes());
        }
    }
    hash.finish()
}

fn check(k: usize, hastings_pin: u64, merge_pin: u64) {
    let graph = dcsbm();
    let bm = Blockmodel::from_assignment(&graph, assignment(k), k);
    let mut cov = Coverage::default();
    let hastings = pin_moves(&graph, &bm, &mut cov);
    let merges = pin_merges(&bm);
    assert!(
        cov.past_cap > 0,
        "k={k}: no move touches a cell past TABLE_CAP"
    );
    assert!(
        cov.to_adjacent > 0,
        "k={k}: no move with from and to adjacent to v"
    );
    assert!(cov.self_loop_moves > 0, "k={k}: no self-loop move");
    assert_eq!(cov.isolated_moves, ISOLATED * (k - 1), "k={k}");
    assert_eq!(
        hastings, hastings_pin,
        "k={k}: Hastings bits moved: {hastings:#018x}"
    );
    assert_eq!(
        merges, merge_pin,
        "k={k}: merge delta bits moved: {merges:#018x}"
    );
}

#[test]
fn kernel_bits_pinned_at_planted_block_count() {
    check(
        COMMUNITIES as usize,
        0x62d9_59cd_b66c_7711,
        0xec20_f327_1e3a_4a1b,
    );
}

#[test]
fn kernel_bits_pinned_at_high_block_count() {
    check(24, 0xbecf_7d49_7a52_2144, 0x302e_a8b5_ddd1_4c29);
}
