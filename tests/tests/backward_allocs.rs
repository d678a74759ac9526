//! Heap allocations made by one warm `Tape::backward` over a training
//! sample, counted by a global allocator.
//!
//! Once the tape's workspace pool is warm, every gradient buffer comes
//! from the pool, and the sweep borrows each node's op rather than
//! copying the index, mask and factor vectors it holds. What remains is
//! the `Shape` of each tensor handed out, which is a `Vec`. The pinned
//! counts are exact: a change that adds a per-node copy or scratch vector
//! to the sweep moves them.
//!
//! Only the thread that sets `COUNTING` is counted, so tests running in
//! parallel in this binary do not disturb each other.

use magic_autograd::Tape;
use magic_integration::random_acfg;
use magic_model::{Dgcnn, DgcnnConfig, GraphBatch, GraphInput, PoolingHead};
use magic_tensor::Rng64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter only
// touches const-initialised thread locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of the third `backward` over one 20-vertex training
/// sample (dropout on) of a model with `head`, on a tape reused across
/// the three passes.
fn warm_backward_allocs(head: PoolingHead) -> u64 {
    let model = Dgcnn::new(&DgcnnConfig::new(2, head), 3);
    let input = GraphInput::from_acfg(&random_acfg(20, 41));
    let sample = GraphBatch::single(&input);
    let mut tape = Tape::new();
    let mut allocs = 0;
    for _ in 0..3 {
        tape.reset();
        let binding = model.store().bind(&mut tape);
        let mut rng = Rng64::for_sample(9, 0, 0);
        let lp = model.forward(
            &mut tape,
            &binding,
            &sample,
            true,
            std::slice::from_mut(&mut rng),
        );
        let rows = tape.nll_loss_rows(lp, vec![1]);
        let loss = tape.sum(rows);
        ALLOCS.with(|n| n.set(0));
        COUNTING.with(|c| c.set(true));
        tape.backward(loss);
        COUNTING.with(|c| c.set(false));
        allocs = ALLOCS.with(Cell::get);
    }
    allocs
}

#[test]
fn warm_backward_allocations_adaptive_head() {
    let allocs = warm_backward_allocs(PoolingHead::adaptive_max_pool(3));
    assert_eq!(allocs, 41);
}

#[test]
fn warm_backward_allocations_sortpool_conv1d_head() {
    let allocs = warm_backward_allocs(PoolingHead::sort_pool_conv1d(12));
    assert_eq!(allocs, 44);
}
