//! Allocation accounting for the per-proposal hot path.
//!
//! This integration test binary installs a counting global allocator and
//! asserts that [`serial_mh`] — the propose, gather, evaluate, accept, apply
//! loop every serial pass shares — performs **zero** heap allocations once
//! the arena has warmed up.
//!
//! The whole file is ONE test on purpose: integration tests in a binary run
//! on multiple threads, and any sibling test's allocations would bleed into
//! the counter. Keep every allocation-sensitive assertion in `hot_path`.

use hsbp_blockmodel::{Blockmodel, ProposalArena};
use hsbp_core::{serial_mh, RunControl};
use hsbp_generator::{generate, DcsbmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with a global allocation counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn hot_path() {
    let generated = generate(DcsbmConfig {
        num_vertices: 800,
        num_communities: 12,
        target_num_edges: 8_000,
        seed: 42,
        ..Default::default()
    });
    let graph = &generated.graph;
    let mut bm = Blockmodel::from_assignment(graph, generated.ground_truth.clone(), 12);

    let mut arena = ProposalArena::default();
    let ctrl = RunControl::unlimited();
    let n = graph.num_vertices() as u32;
    let mut accepted = 0u64;
    let mut pass = |sweep: u64| {
        serial_mh(
            graph,
            &mut bm,
            0..n,
            3.0,
            9,
            sweep,
            &ctrl,
            &mut arena,
            |_, moved| {
                accepted += u64::from(moved.is_some());
            },
        )
    };

    // One full pass warms the arena, the blockmodel's own rows and the
    // lazily built ln table.
    pass(0);

    // Steady state: count allocations over full sweeps.
    let sweeps = 5u64;
    let before = allocations();
    for sweep in 1..=sweeps {
        let done = pass(sweep);
        assert_eq!(done.proposals, u64::from(n));
    }
    let delta = allocations() - before;
    let per_proposal = delta as f64 / (sweeps * u64::from(n)) as f64;
    eprintln!(
        "hot path: {delta} allocations over {} proposals ({per_proposal:.3} per proposal)",
        sweeps * u64::from(n)
    );
    assert!(
        accepted > 0,
        "the settled chain should still accept some moves"
    );
    assert_eq!(
        delta, 0,
        "steady-state serial MH pass must not allocate ({per_proposal:.3} allocations/proposal)"
    );
}
