//! Allocation guard for NFJ rejection sampling.
//!
//! The Figure 8 quick clip (60–120 nodes) rejects about 30 attempts per
//! accepted graph. A rejected attempt must cost only its random draws, and
//! the accepted graph a fixed number of buffers (its labels share one text
//! buffer): one `generate_nfj` call may allocate a constant number of
//! times, whatever the accepted graph's node count and however many
//! attempts it took.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hetrta_dag::validate_task_model;
use hetrta_gen::{generate_nfj, GenError, NfjParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread, so tests running in parallel do
    /// not count each other's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter is the only addition.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = op();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// Attempts `generate_nfj` takes from this seed, counted by replaying
/// the same stream one attempt per call.
fn attempts_from(params: &NfjParams, seed: u64) -> usize {
    let once = params.clone().with_max_attempts(1);
    let mut rng = StdRng::seed_from_u64(seed);
    for attempts in 1..=params.max_attempts() {
        match generate_nfj(&once, &mut rng) {
            Ok(_) => return attempts,
            Err(GenError::AttemptsExhausted { .. }) => {}
            Err(e) => panic!("{e}"),
        }
    }
    panic!("seed {seed}: no graph within the attempt budget")
}

#[test]
fn rejected_attempts_do_not_allocate_per_node() {
    // The attempt tape's growth (capped by `n_max`), its depth stack, the
    // edge list and the frozen graph's buffers: 28 on every seed below.
    const BUDGET: u64 = 28;
    let params = NfjParams::large_tasks().with_node_range(60, 120);
    let mut most_attempts = 0;
    for seed in 0..16 {
        let (allocations, dag) = allocations_during(|| {
            generate_nfj(&params, &mut StdRng::seed_from_u64(seed)).expect("accepts")
        });
        // Debug builds also check the accepted graph with
        // `validate_task_model` (a `debug_assert!` in `generate_nfj`).
        // Those allocations are the check's, not the generator's.
        let validation = if cfg!(debug_assertions) {
            allocations_during(|| validate_task_model(&dag).expect("valid task model")).0
        } else {
            0
        };
        let allocations = allocations - validation;
        let nodes = dag.node_count();
        let attempts = attempts_from(&params, seed);
        most_attempts = most_attempts.max(attempts);
        assert!(
            allocations <= BUDGET,
            "seed {seed}: {allocations} allocations for a {nodes}-node graph \
             after {attempts} attempts (budget {BUDGET})"
        );
    }
    // The guard only means something if some calls rejected many samples.
    assert!(
        most_attempts >= 20,
        "at most {most_attempts} attempts per call"
    );
}
