//! Heap allocations made by the `.asm` front end: `parse_listing` plus
//! `CfgBuilder::build`, counted by a global allocator.
//!
//! Only the thread that sets `COUNTING` is counted, so tests running in
//! parallel in this binary do not disturb each other. The pinned counts
//! are exact, deterministic work counters: a change that adds a
//! per-instruction or per-token allocation moves them.

use magic_asm::{parse_listing, CfgBuilder};
use magic_synth::MskcfgGenerator;
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

/// `(allocations, instructions)` for parse + CFG build of `listing`.
fn front_end_allocs(listing: &str) -> (u64, usize) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let program = parse_listing(listing).expect("listing parses");
    let cfg = CfgBuilder::new(&program).build();
    COUNTING.with(|c| c.set(false));
    assert_eq!(cfg.instruction_count(), program.len());
    (ALLOCS.with(Cell::get), program.len())
}

fn assert_at_most_two_per_instruction(allocs: u64, instructions: usize) {
    assert!(
        allocs <= 2 * instructions as u64,
        "{allocs} allocations for {instructions} instructions"
    );
}

#[test]
fn demo_listing_allocations() {
    let (allocs, instructions) = front_end_allocs(include_str!("../../samples/demo.asm"));
    assert_eq!(instructions, 12);
    assert_at_most_two_per_instruction(allocs, instructions);
    assert_eq!(allocs, 8);
}

#[test]
fn seeded_mskcfg_listing_allocations() {
    let sample = MskcfgGenerator::new(1, 0.05).generate_one(0);
    let (allocs, instructions) = front_end_allocs(&sample.listing);
    assert_at_most_two_per_instruction(allocs, instructions);
    assert_eq!((allocs, instructions), (23, 104));
}

#[test]
fn seeded_mskcfg_corpus_stays_under_two_per_instruction() {
    let (mut allocs, mut instructions) = (0, 0);
    for sample in MskcfgGenerator::new(1, 0.05).generate() {
        let (a, n) = front_end_allocs(&sample.listing);
        allocs += a;
        instructions += n;
    }
    assert_eq!(instructions, 198_186);
    assert_at_most_two_per_instruction(allocs, instructions);
}
