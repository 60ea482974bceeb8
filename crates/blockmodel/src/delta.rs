//! Evaluation of the MDL change of a proposed vertex move or block merge,
//! plus the Hastings correction — all without mutating the model.
//!
//! **Moves walk the changed cells only.** Because `Σ_s B[r][s] = d_out[r]`
//! and `Σ_r B[r][s] = d_in[s]`, Eq. 1 regroups as
//!
//! ```text
//! L(G|B) = Σ_cells B·ln B − Σ_r d_out[r]·ln d_out[r] − Σ_s d_in[s]·ln d_in[s]
//! ```
//!
//! A move `v: from → to` changes one pair of cells per neighbour block of
//! `v`, the four corner cells of rows/columns `from`/`to`, and the four
//! degrees `d_out/d_in` of `from` and `to`. The delta is the sum of
//! `xlnx(old) − xlnx(new)` over exactly those, so a proposal costs
//! O(degree · log K) (one [`Blockmodel::edge_count`] search per cell)
//! instead of a walk over four whole lines of `B`.
//!
//! **Merges keep the line sum.** A merge rewrites rows and columns `r` and
//! `s` wholesale, so [`delta_mdl_merge_with`] stays an O(line length)
//! merge-walk over the two sorted lines with Eq.-1 terms. Its rounding is
//! part of the golden-run contract: regrouping it changes which merges win
//! and moves the pinned end-to-end results.
//!
//! Neither kernel needs scratch state: the per-proposal state is the
//! gathered [`NeighborCounts`] in a [`ProposalArena`], and the steady-state
//! proposal loop performs zero heap allocations (enforced over
//! `hsbp_core::serial_mh` by core's `alloc_hotpath` integration test).
//! Every sum walks keys in ascending order, so its float result is a pure
//! function of the logical state — a prerequisite for bit-identical
//! incremental sweep consolidation.

use crate::fastmath::{ll_term, xlnx};
use crate::model::{Block, Blockmodel};
use hsbp_collections::{ScratchCounter, SparseRow, SplitMix64};
use hsbp_graph::{Graph, Vertex, Weight};

/// Census of a vertex's neighbourhood by block: how many edge endpoints `v`
/// has in each block, split by direction, with self-loops separated.
///
/// Gathered once per proposal and shared by the delta computation, the
/// Hastings correction and the in-place move application. Entries are sorted
/// by block id.
#[derive(Debug, Clone, Default)]
pub struct NeighborCounts {
    /// `(block, weight)` of out-edges `v -> u`, `u != v`.
    pub out_counts: Vec<(Block, Weight)>,
    /// `(block, weight)` of in-edges `u -> v`, `u != v`.
    pub in_counts: Vec<(Block, Weight)>,
    /// Total weight of self-loops `v -> v`.
    pub self_loops: Weight,
}

impl NeighborCounts {
    /// Gather for `v` using the model's own assignment.
    pub fn gather(graph: &Graph, bm: &Blockmodel, v: Vertex) -> Self {
        Self::gather_with(graph, bm.assignment(), v, &mut MoveScratch::default())
    }

    /// Gather for `v` against an explicit assignment, allocating the result.
    ///
    /// Compatibility wrapper around [`NeighborCounts::gather_into`]; hot
    /// loops should hold a [`ProposalArena`] and use `gather_into` instead.
    pub fn gather_with(
        graph: &Graph,
        assignment: &[Block],
        v: Vertex,
        scratch: &mut MoveScratch,
    ) -> Self {
        let mut counts = NeighborCounts::default();
        Self::gather_into(graph, assignment, v, scratch, &mut counts);
        counts
    }

    /// Gather for `v` against an explicit assignment (the per-sweep snapshot
    /// in A-SBP), reusing both the `scratch` counters and the `counts`
    /// buffers — allocation-free once warmed up.
    pub fn gather_into(
        graph: &Graph,
        assignment: &[Block],
        v: Vertex,
        scratch: &mut MoveScratch,
        counts: &mut NeighborCounts,
    ) {
        counts.out_counts.clear();
        counts.in_counts.clear();
        counts.self_loops = 0;
        scratch.out.begin();
        scratch.inn.begin();
        for (u, w) in graph.out_edges(v) {
            if u == v {
                counts.self_loops += w;
            } else {
                scratch.out.add(assignment[u as usize], w as i64);
            }
        }
        for (u, w) in graph.in_edges(v) {
            if u != v {
                scratch.inn.add(assignment[u as usize], w as i64);
            }
        }
        // Sorted output keeps downstream arithmetic deterministic.
        let out_counts = &mut counts.out_counts;
        scratch
            .out
            .for_each_sorted(|b, w| out_counts.push((b, w as Weight)));
        let in_counts = &mut counts.in_counts;
        scratch
            .inn
            .for_each_sorted(|b, w| in_counts.push((b, w as Weight)));
    }

    /// Total out-degree of the vertex (self-loops included).
    #[inline]
    pub fn k_out(&self) -> Weight {
        self.out_counts.iter().map(|&(_, w)| w).sum::<Weight>() + self.self_loops
    }

    /// Total in-degree of the vertex (self-loops included).
    #[inline]
    pub fn k_in(&self) -> Weight {
        self.in_counts.iter().map(|&(_, w)| w).sum::<Weight>() + self.self_loops
    }

    /// Total degree `k_out + k_in`.
    #[inline]
    pub fn degree(&self) -> Weight {
        self.k_out() + self.k_in()
    }
}

/// Reusable counters for [`NeighborCounts::gather_into`].
#[derive(Debug, Default)]
pub struct MoveScratch {
    out: ScratchCounter,
    inn: ScratchCounter,
}

/// Scratch parameter of [`evaluate_move_with`] and [`delta_mdl_merge_with`].
///
/// Neither kernel keeps working state (both read the model directly), so
/// the type is empty. It stays, with the [`ProposalArena::eval`] field and
/// the `scratch` parameters, so that callers written against the scratch
/// API build as they are — among them the benchmark's per-layer probe
/// `perfbench/src/probe.rs`, which is kept unchanged between benchmark
/// versions.
#[derive(Debug, Default)]
pub struct EvalScratch {}

/// Staged proposals for one chunk of a frozen-model sweep.
///
/// Batched sweeps draw *all* counter-RNG streams and alias-table proposals
/// for a chunk first (stage A), then gather/evaluate/accept (stage B). The
/// per-vertex RNG state is parked here between the stages, so each vertex
/// consumes its stream in exactly the per-vertex order — results stay
/// bit-identical to the unbatched loop while the proposal dispatch
/// (sampler lookups, branchy alias walks) amortizes across the batch.
#[derive(Debug, Default)]
pub struct ProposalBatch {
    /// Per-vertex RNG state after the proposal draw, resumed by the
    /// acceptance test.
    pub rngs: Vec<SplitMix64>,
    /// Current block of each vertex in the chunk.
    pub from: Vec<Block>,
    /// Proposed target block of each vertex in the chunk.
    pub to: Vec<Block>,
}

impl ProposalBatch {
    /// Drop staged proposals (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.rngs.clear();
        self.from.clear();
        self.to.clear();
    }
}

/// Everything one worker needs to evaluate proposals without allocating:
/// gather counters, the reusable neighbour-count buffers and the staged
/// batch. One arena per worker, reused across sweeps.
#[derive(Debug, Default)]
pub struct ProposalArena {
    /// Gather counters for [`NeighborCounts::gather_into`].
    pub scratch: MoveScratch,
    /// Reusable result buffer for the gathered counts.
    pub counts: NeighborCounts,
    /// Scratch parameter for [`evaluate_move_with`] (empty).
    pub eval: EvalScratch,
    /// Staged per-chunk proposals for batched frozen-model sweeps.
    pub batch: ProposalBatch,
}

/// Result of evaluating a proposed vertex move.
#[derive(Debug, Clone, Copy)]
pub struct MoveEval {
    /// `ΔMDL` (likelihood part; C is unchanged by a move). Negative is an
    /// improvement.
    pub delta_mdl: f64,
    /// Hastings factor `p_backward / p_forward` for the MH acceptance test.
    pub hastings: f64,
}

/// `v`'s edge weight into/out of the two blocks of a move, split by
/// direction: the corrections that turn the old corner cells
/// `B[from|to][from|to]` into the new ones.
struct CornerWeights {
    out_from: Weight,
    out_to: Weight,
    in_from: Weight,
    in_to: Weight,
}

impl CornerWeights {
    fn of(counts: &NeighborCounts, from: Block, to: Block) -> Self {
        let weight_at = |list: &[(Block, Weight)], b: Block| {
            list.binary_search_by_key(&b, |&(t, _)| t)
                .map_or(0, |i| list[i].1)
        };
        Self {
            out_from: weight_at(&counts.out_counts, from),
            out_to: weight_at(&counts.out_counts, to),
            in_from: weight_at(&counts.in_counts, from),
            in_to: weight_at(&counts.in_counts, to),
        }
    }
}

/// `xlnx(old) − xlnx(new)`: one changed cell's or degree's share of
/// `L_old − L_new` in the regrouped Eq. 1.
#[inline]
fn xlnx_drop(old: Weight, new: Weight) -> f64 {
    xlnx(old as f64) - xlnx(new as f64)
}

/// Evaluate a proposed move `v: from → to`.
///
/// Compatibility wrapper around [`evaluate_move_with`].
pub fn evaluate_move(bm: &Blockmodel, from: Block, to: Block, counts: &NeighborCounts) -> MoveEval {
    evaluate_move_with(bm, from, to, counts, &mut EvalScratch::default())
}

/// Evaluate a proposed move `v: from → to`: its MDL delta and Hastings
/// correction. `counts` must be gathered with `v` still in `from`.
/// Allocation-free; `_scratch` is unused (see [`EvalScratch`]).
///
/// The delta sums the regrouped Eq. 1 (module docs) over the cells and
/// degrees the move changes, with the same updates as
/// [`Blockmodel::apply_move`]. The Hastings factor follows the
/// graph-challenge reference: with the neighbour-block census `{(t, k_t)}`
/// of `v` (self-loops counted twice toward `from`), `C = num_blocks`,
///
/// ```text
/// p_fwd = Σ_t k_t/k_v · (B[t][to]   + B[to][t]   + 1) / (d_t + C)    (old B)
/// p_bwd = Σ_t k_t/k_v · (B'[t][from] + B'[from][t] + 1) / (d'_t + C)  (new B)
/// ```
///
/// summed in ascending `t`; `B'` is the old cell plus `v`'s edge weight,
/// so no post-move image is built.
pub fn evaluate_move_with(
    bm: &Blockmodel,
    from: Block,
    to: Block,
    counts: &NeighborCounts,
    _scratch: &mut EvalScratch,
) -> MoveEval {
    let (k_out, k_in) = (counts.k_out(), counts.k_in());
    let k_v = k_out + k_in;
    if from == to || k_v == 0 {
        return MoveEval {
            delta_mdl: 0.0,
            hastings: 1.0,
        };
    }
    let loops = counts.self_loops;
    let w = CornerWeights::of(counts, from, to);
    let (ff, ft) = (bm.edge_count(from, from), bm.edge_count(from, to));
    let (tf, tt) = (bm.edge_count(to, from), bm.edge_count(to, to));
    let ff_new = ff - w.out_from - w.in_from - loops;
    let ft_new = ft - w.out_to + w.in_from;
    let tf_new = tf + w.out_from - w.in_to;
    let tt_new = tt + w.out_to + w.in_to + loops;

    let c = bm.num_blocks() as f64;
    let (mut cells, mut p_fwd, mut p_bwd) = (0.0, 0.0, 0.0);
    // Ascending merge of the out- and in-census, with the self-loops'
    // `from` entry joining it even when `v` has no other edge into `from`.
    let (out, inn) = (&counts.out_counts, &counts.in_counts);
    let (mut i, mut j) = (0, 0);
    let mut loops_pending = loops > 0;
    loop {
        let next_out = out.get(i).map(|&(t, _)| t);
        let next_in = inn.get(j).map(|&(t, _)| t);
        let Some(t) = [next_out, next_in, loops_pending.then_some(from)]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        let take = |next: Option<Block>, list: &[(Block, Weight)], at: &mut usize| {
            if next == Some(t) {
                *at += 1;
                list[*at - 1].1
            } else {
                0
            }
        };
        let ow = take(next_out, out, &mut i);
        let iw = take(next_in, inn, &mut j);
        let mut k_t = ow + iw;
        if t == from {
            k_t += 2 * loops;
            loops_pending = false;
        }
        let (fwd_mass, bwd_mass, d_new) = if t == from {
            (ft + tf, 2 * ff_new, bm.d_total(from) - k_v)
        } else if t == to {
            (2 * tt, tf_new + ft_new, bm.d_total(to) + k_v)
        } else {
            // Row cells `B[from|to][t]` lose/gain `v`'s out-edges into
            // `t`; column cells `B[t][from|to]` its in-edges from `t`.
            let (from_t, to_t) = (bm.edge_count(from, t), bm.edge_count(to, t));
            let (t_from, t_to) = (bm.edge_count(t, from), bm.edge_count(t, to));
            if ow > 0 {
                cells += xlnx_drop(from_t, from_t - ow) + xlnx_drop(to_t, to_t + ow);
            }
            if iw > 0 {
                cells += xlnx_drop(t_from, t_from - iw) + xlnx_drop(t_to, t_to + iw);
            }
            (t_to + to_t, (t_from - iw) + (from_t - ow), bm.d_total(t))
        };
        p_fwd += k_t as f64 * (fwd_mass as f64 + 1.0) / (bm.d_total(t) as f64 + c);
        p_bwd += k_t as f64 * (bwd_mass as f64 + 1.0) / (d_new as f64 + c);
    }
    cells += xlnx_drop(ff, ff_new)
        + xlnx_drop(ft, ft_new)
        + xlnx_drop(tf, tf_new)
        + xlnx_drop(tt, tt_new);
    let (d_out_from, d_out_to) = (bm.d_out(from), bm.d_out(to));
    let (d_in_from, d_in_to) = (bm.d_in(from), bm.d_in(to));
    let degrees = xlnx_drop(d_out_from, d_out_from - k_out)
        + xlnx_drop(d_out_to, d_out_to + k_out)
        + xlnx_drop(d_in_from, d_in_from - k_in)
        + xlnx_drop(d_in_to, d_in_to + k_in);

    p_fwd /= k_v as f64;
    p_bwd /= k_v as f64;
    let hastings = if p_fwd > 0.0 { p_bwd / p_fwd } else { 1.0 };
    MoveEval {
        delta_mdl: cells - degrees,
        hastings,
    }
}

/// MDL delta (likelihood part) of moving `v: from → to`.
pub fn delta_mdl_move(bm: &Blockmodel, from: Block, to: Block, counts: &NeighborCounts) -> f64 {
    evaluate_move(bm, from, to, counts).delta_mdl
}

/// Likelihood-part MDL delta of merging `r` into `s`.
///
/// Compatibility wrapper around [`delta_mdl_merge_with`].
pub fn delta_mdl_merge(bm: &Blockmodel, r: Block, s: Block) -> f64 {
    delta_mdl_merge_with(bm, r, s, &mut EvalScratch::default())
}

/// Likelihood-part MDL delta of merging block `r` into block `s`, computed
/// without touching the model and without allocating; `_scratch` is unused
/// (see [`EvalScratch`]). The (identical for every candidate) model
/// complexity change from `C → C−1` is *not* included; add
/// [`crate::mdl::model_complexity_delta`] for the full ΔMDL.
///
/// Sums Eq.-1 terms over rows and columns `r`, `s` before the merge, and
/// over the merged row and column after it, each in ascending key order
/// (see the module docs for why the merge keeps the line sum).
pub fn delta_mdl_merge_with(
    bm: &Blockmodel,
    r: Block,
    s: Block,
    _scratch: &mut EvalScratch,
) -> f64 {
    if r == s {
        return 0.0;
    }
    // Old likelihood part: rows r, s fully; columns r, s excluding entries
    // already counted in those rows.
    let mut old_part = 0.0;
    for (t, b) in bm.row(r).iter() {
        old_part += ll_term(b as f64, bm.d_out(r) as f64, bm.d_in(t) as f64);
    }
    for (t, b) in bm.row(s).iter() {
        old_part += ll_term(b as f64, bm.d_out(s) as f64, bm.d_in(t) as f64);
    }
    for (a, b) in bm.col(r).iter() {
        if a != r && a != s {
            old_part += ll_term(b as f64, bm.d_out(a) as f64, bm.d_in(r) as f64);
        }
    }
    for (a, b) in bm.col(s).iter() {
        if a != r && a != s {
            old_part += ll_term(b as f64, bm.d_out(a) as f64, bm.d_in(s) as f64);
        }
    }

    let d_out_merged = (bm.d_out(r) + bm.d_out(s)) as f64;
    let d_in_merged = (bm.d_in(r) + bm.d_in(s)) as f64;
    let d_in_of = |t: Block| -> f64 {
        if t == s {
            d_in_merged
        } else {
            bm.d_in(t) as f64
        }
    };
    let mut new_part = 0.0;
    // Merged row: row r + row s with key r folded into s.
    merge_lines(bm.row(r), bm.row(s), r, s, true, |t, b| {
        new_part += ll_term(b as f64, d_out_merged, d_in_of(t));
    });
    // Merged column, excluding rows r and s (their mass is in the row).
    merge_lines(bm.col(r), bm.col(s), r, s, false, |a, b| {
        new_part += ll_term(b as f64, bm.d_out(a) as f64, d_in_merged);
    });
    old_part - new_part
}

/// Walk the key-wise sum of two sorted lines in ascending key order,
/// calling `emit(key, count)`. Keys `r` and `s` are left out of the walk;
/// with `fold_into_s` their combined mass is emitted at key `s`'s place in
/// the order (the merged row), otherwise it is dropped (the merged column,
/// whose `r`/`s` entries belong to the merged row).
fn merge_lines(
    a: &SparseRow,
    b: &SparseRow,
    r: Block,
    s: Block,
    fold_into_s: bool,
    mut emit: impl FnMut(Block, Weight),
) {
    let mut folded = if fold_into_s {
        a.get(r) + a.get(s) + b.get(r) + b.get(s)
    } else {
        0
    };
    let (ak, ac) = (a.keys(), a.counts());
    let (bk, bc) = (b.keys(), b.counts());
    let (mut i, mut j) = (0, 0);
    loop {
        let t = match (ak.get(i), bk.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => break,
        };
        let mut count = 0;
        if ak.get(i) == Some(&t) {
            count += ac[i];
            i += 1;
        }
        if bk.get(j) == Some(&t) {
            count += bc[j];
            j += 1;
        }
        if t == r || t == s {
            continue;
        }
        if folded > 0 && s < t {
            emit(s, folded);
            folded = 0;
        }
        emit(t, count);
    }
    if folded > 0 {
        emit(s, folded);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::mdl;
    use hsbp_graph::Graph;

    fn ring(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Graph::from_edges(n as usize, &edges)
    }

    fn brute_force_delta(graph: &Graph, bm: &Blockmodel, v: Vertex, to: Block) -> f64 {
        let mut assignment = bm.assignment().to_vec();
        assignment[v as usize] = to;
        let moved = Blockmodel::from_assignment(graph, assignment, bm.num_blocks());
        mdl::log_likelihood(bm) - mdl::log_likelihood(&moved)
    }

    #[test]
    fn gather_counts_directions() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (3, 0), (0, 0)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 1, 2], 3);
        let counts = NeighborCounts::gather(&g, &bm, 0);
        assert_eq!(counts.out_counts, vec![(1, 2)]);
        assert_eq!(counts.in_counts, vec![(2, 1)]);
        assert_eq!(counts.self_loops, 1);
        assert_eq!(counts.k_out(), 3);
        assert_eq!(counts.k_in(), 2);
        assert_eq!(counts.degree(), 5);
    }

    #[test]
    fn gather_into_reuses_buffers_and_matches_gather() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (3, 0), (0, 0), (4, 0), (0, 4)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 1, 2, 2], 3);
        let mut scratch = MoveScratch::default();
        let mut counts = NeighborCounts::default();
        for v in 0..5u32 {
            NeighborCounts::gather_into(&g, bm.assignment(), v, &mut scratch, &mut counts);
            let fresh = NeighborCounts::gather(&g, &bm, v);
            assert_eq!(counts.out_counts, fresh.out_counts, "v={v}");
            assert_eq!(counts.in_counts, fresh.in_counts, "v={v}");
            assert_eq!(counts.self_loops, fresh.self_loops, "v={v}");
        }
    }

    #[test]
    fn delta_matches_brute_force_on_ring() {
        let g = ring(8);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        for v in 0..8u32 {
            let from = bm.block_of(v);
            let counts = NeighborCounts::gather(&g, &bm, v);
            for to in 0..4u32 {
                if to == from {
                    continue;
                }
                let fast = delta_mdl_move(&bm, from, to, &counts);
                let slow = brute_force_delta(&g, &bm, v, to);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "v={v} {from}->{to}: fast {fast} vs slow {slow}"
                );
            }
        }
    }

    #[test]
    fn evaluate_move_with_matches_wrapper() {
        let g = ring(8);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let mut arena = ProposalArena::default();
        for v in 0..8u32 {
            let from = bm.block_of(v);
            NeighborCounts::gather_into(
                &g,
                bm.assignment(),
                v,
                &mut arena.scratch,
                &mut arena.counts,
            );
            for to in 0..4u32 {
                let fresh = evaluate_move(&bm, from, to, &arena.counts);
                let reused = evaluate_move_with(&bm, from, to, &arena.counts, &mut arena.eval);
                assert_eq!(fresh.delta_mdl.to_bits(), reused.delta_mdl.to_bits());
                assert_eq!(fresh.hastings.to_bits(), reused.hastings.to_bits());
            }
        }
    }

    #[test]
    fn delta_with_self_loops() {
        let g = Graph::from_edges(4, &[(0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (3, 3), (1, 2)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1], 2);
        for v in 0..4u32 {
            let from = bm.block_of(v);
            let to = 1 - from;
            let counts = NeighborCounts::gather(&g, &bm, v);
            let fast = delta_mdl_move(&bm, from, to, &counts);
            let slow = brute_force_delta(&g, &bm, v, to);
            assert!(
                (fast - slow).abs() < 1e-9,
                "v={v}: fast {fast} vs slow {slow}"
            );
        }
    }

    #[test]
    fn table_terms_match_libm_reference_across_the_cap() {
        // A weighted ring whose cells and degrees straddle the table cap:
        // every cell a move touches, before and after the move, must give
        // the libm reference's bits, and the move and merge deltas must
        // agree with a full recompute.
        use crate::fastmath::TABLE_CAP;
        let mut builder = hsbp_graph::GraphBuilder::new(8);
        for v in 0..8u32 {
            let w = if v % 3 == 0 {
                TABLE_CAP as u64 + u64::from(v)
            } else {
                u64::from(v) + 1
            };
            builder.add_edge_weighted(v, (v + 1) % 8, w);
        }
        let g = builder.build();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let assert_cells_match = |bm: &Blockmodel| {
            for r in 0..bm.num_blocks() as u32 {
                for (t, b) in bm.row(r).iter() {
                    let (b, o, i) = (b as f64, bm.d_out(r) as f64, bm.d_in(t) as f64);
                    assert_eq!(
                        ll_term(b, o, i).to_bits(),
                        mdl::log_likelihood_term(b, o, i).to_bits()
                    );
                }
            }
        };
        assert_cells_match(&bm);
        let mut arena = ProposalArena::default();
        for v in 0..8u32 {
            let from = bm.block_of(v);
            NeighborCounts::gather_into(
                &g,
                bm.assignment(),
                v,
                &mut arena.scratch,
                &mut arena.counts,
            );
            for to in 0..4u32 {
                let fast = evaluate_move_with(&bm, from, to, &arena.counts, &mut arena.eval);
                let slow = brute_force_delta(&g, &bm, v, to);
                assert!((fast.delta_mdl - slow).abs() <= 1e-9 * slow.abs().max(1.0));
                let mut moved = bm.clone();
                moved.apply_move(v, from, to, &arena.counts);
                assert_cells_match(&moved);
            }
        }
        for r in 0..4u32 {
            for s in 0..4u32 {
                let fast = delta_mdl_merge_with(&bm, r, s, &mut arena.eval);
                let merged: Vec<Block> = bm
                    .assignment()
                    .iter()
                    .map(|&b| if b == r { s } else { b })
                    .collect();
                let slow = mdl::log_likelihood(&bm)
                    - mdl::log_likelihood(&Blockmodel::from_assignment(&g, merged, 4));
                assert!(
                    (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                    "merge {r}->{s}"
                );
            }
        }
    }

    /// The Hastings factor read straight off the pre- and post-move models:
    /// the census in ascending block order, `B'` and `d'` from a clone with
    /// the move applied.
    fn reference_hastings(bm: &Blockmodel, v: Vertex, to: Block, counts: &NeighborCounts) -> f64 {
        let from = bm.block_of(v);
        let mut census = std::collections::BTreeMap::new();
        for &(t, w) in counts.out_counts.iter().chain(&counts.in_counts) {
            *census.entry(t).or_insert(0) += w;
        }
        if counts.self_loops > 0 {
            *census.entry(from).or_insert(0) += 2 * counts.self_loops;
        }
        let mut moved = bm.clone();
        moved.apply_move(v, from, to, counts);
        let pair = |m: &Blockmodel, t: Block, target: Block| {
            if t == target {
                2 * m.edge_count(t, t)
            } else {
                m.edge_count(t, target) + m.edge_count(target, t)
            }
        };
        let (c, k_v) = (bm.num_blocks() as f64, counts.degree() as f64);
        let (mut p_fwd, mut p_bwd) = (0.0, 0.0);
        for (&t, &k_t) in &census {
            let k_t = k_t as f64;
            p_fwd += k_t * (pair(bm, t, to) as f64 + 1.0) / (bm.d_total(t) as f64 + c);
            p_bwd += k_t * (pair(&moved, t, from) as f64 + 1.0) / (moved.d_total(t) as f64 + c);
        }
        (p_bwd / k_v) / (p_fwd / k_v)
    }

    #[test]
    fn hastings_matches_post_move_reference_bitwise() {
        // Vertex 0 has only a self-loop and an edge into block 1; vertex 3
        // has a self-loop plus edges both ways within its own block.
        let g = Graph::from_edges(
            6,
            &[
                (0, 0),
                (0, 2),
                (1, 2),
                (2, 1),
                (3, 3),
                (3, 4),
                (4, 3),
                (5, 3),
                (2, 5),
            ],
        );
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 2, 2, 1], 3);
        for v in 0..6u32 {
            let counts = NeighborCounts::gather(&g, &bm, v);
            for to in 0..3u32 {
                if to == bm.block_of(v) {
                    continue;
                }
                let eval = evaluate_move(&bm, bm.block_of(v), to, &counts);
                assert_eq!(
                    eval.hastings.to_bits(),
                    reference_hastings(&bm, v, to, &counts).to_bits(),
                    "v={v} -> {to}"
                );
            }
        }
    }

    #[test]
    fn delta_zero_for_null_move() {
        let g = ring(6);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let counts = NeighborCounts::gather(&g, &bm, 0);
        let eval = evaluate_move(&bm, 0, 0, &counts);
        assert_eq!(eval.delta_mdl, 0.0);
        assert_eq!(eval.hastings, 1.0);
    }

    #[test]
    fn isolated_vertex_moves_freely() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let counts = NeighborCounts::gather(&g, &bm, 3);
        let eval = evaluate_move(&bm, 1, 0, &counts);
        assert_eq!(eval.delta_mdl, 0.0);
        assert_eq!(eval.hastings, 1.0);
    }

    #[test]
    fn merge_delta_matches_brute_force() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 3),
                (0, 0),
            ],
        );
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2], 3);
        let mut scratch = EvalScratch::default();
        for r in 0..3u32 {
            for s in 0..3u32 {
                if r == s {
                    continue;
                }
                let fast = delta_mdl_merge(&bm, r, s);
                let reused = delta_mdl_merge_with(&bm, r, s, &mut scratch);
                assert_eq!(fast.to_bits(), reused.to_bits());
                // Brute force: relabel r -> s, keep label space size (the
                // likelihood does not depend on empty blocks).
                let assignment: Vec<Block> = bm
                    .assignment()
                    .iter()
                    .map(|&b| if b == r { s } else { b })
                    .collect();
                let merged = Blockmodel::from_assignment(&g, assignment, 3);
                let slow = mdl::log_likelihood(&bm) - mdl::log_likelihood(&merged);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "merge {r}->{s}: fast {fast} vs slow {slow}"
                );
            }
        }
    }

    #[test]
    fn merge_is_symmetric_in_likelihood() {
        // Merging r into s or s into r yields the same merged model, so the
        // likelihood delta must match.
        let g = ring(9);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
        for (r, s) in [(0u32, 1u32), (1, 2), (0, 2)] {
            let a = delta_mdl_merge(&bm, r, s);
            let b = delta_mdl_merge(&bm, s, r);
            assert!((a - b).abs() < 1e-9, "merge {r}/{s}: {a} vs {b}");
        }
    }

    #[test]
    fn hastings_is_reciprocal_for_reverse_move() {
        // For deterministic states: hastings(v: r->s) * hastings(v: s->r on
        // the moved model) == 1 (p_bwd/p_fwd inverts).
        let g = ring(8);
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let v = 1u32;
        let counts = NeighborCounts::gather(&g, &bm, v);
        let fwd = evaluate_move(&bm, 0, 1, &counts);
        bm.apply_move(v, 0, 1, &counts);
        let counts_back = NeighborCounts::gather(&g, &bm, v);
        let bwd = evaluate_move(&bm, 1, 0, &counts_back);
        assert!(
            (fwd.hastings * bwd.hastings - 1.0).abs() < 1e-9,
            "fwd {} bwd {}",
            fwd.hastings,
            bwd.hastings
        );
        // And the deltas must cancel.
        assert!((fwd.delta_mdl + bwd.delta_mdl).abs() < 1e-9);
    }
}
