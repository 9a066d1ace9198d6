//! `read_matrix_market` allocates per block, not per line, and holds a
//! block's worth of bytes besides the entries, not the file: under a
//! counting global allocator (every thread counts, since the body is
//! parsed on several) `entries` is allocated once at its final size, the
//! allocator calls of a 300 000-line file exceed those of a 2 000-line one
//! by a bounded number per block, and the live bytes never exceed the
//! entries plus a few blocks.

use cmg_graph::generators::grid2d;
use cmg_graph::io::{read_matrix_market, write_matrix_market};
use cmg_graph::weights::{assign_weights, WeightScheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The body block the reader parses at a time (`io::BODY_BLOCK`).
const BLOCK: usize = 1 << 20;

struct CountingAlloc;

/// Allocator calls, bytes live, the most bytes live since the last reset,
/// and the allocations of exactly `WATCH` bytes and growths out of one.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static WATCH: AtomicUsize = AtomicUsize::new(usize::MAX);
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static GROWN: AtomicUsize = AtomicUsize::new(0);

fn count(old: usize, new: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(new, Relaxed) + new - old;
    LIVE.fetch_sub(old, Relaxed);
    PEAK.fetch_max(live, Relaxed);
    let watch = WATCH.load(Relaxed);
    WATCHED.fetch_add(usize::from(new == watch), Relaxed);
    GROWN.fetch_add(usize::from(old == watch && new > old), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// statics of atomic integers and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three arguments are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Cost {
    nnz: usize,
    text_bytes: usize,
    calls: usize,
    /// The most bytes live during the read beyond those live before it.
    peak_extra: usize,
}

/// What reading a `side × side` weighted grid back from its Matrix
/// Market text costs the allocator.
fn read_cost(side: usize) -> Cost {
    let g = assign_weights(
        &grid2d(side, side),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        9,
    );
    let mut text = Vec::new();
    write_matrix_market(&g, &mut text).unwrap();
    let nnz = g.num_edges();
    drop(g);
    WATCH.store(16 * nnz, Relaxed);
    WATCHED.store(0, Relaxed);
    GROWN.store(0, Relaxed);
    let (calls, live) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let m = read_matrix_market(&text[..]).unwrap();
    let calls = CALLS.load(Relaxed) - calls;
    let peak_extra = PEAK.load(Relaxed) - live;
    // One entry per line, in one allocation of exactly its final size.
    assert_eq!((m.entries.len(), m.entries.capacity()), (nnz, nnz));
    assert_eq!(WATCHED.load(Relaxed), 1, "allocations of 16 * {nnz} bytes");
    assert_eq!(GROWN.load(Relaxed), 0, "entries grew");
    WATCH.store(usize::MAX, Relaxed);
    Cost {
        nnz,
        text_bytes: text.len(),
        calls,
        peak_extra,
    }
}

#[test]
fn reading_allocates_per_block_and_holds_a_few_blocks() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let small = read_cost(32); // 1 984 entry lines, one piece
    let large = read_cost(388); // 300 312 lines, ≈ 10 blocks
    let blocks = large.text_bytes.div_ceil(BLOCK);
    println!(
        "threads {threads}: {} calls / {} lines, {} calls / {} lines in {blocks} blocks; \
         peak beyond entries {} B and {} B",
        small.calls,
        small.nnz,
        large.calls,
        large.nnz,
        small.peak_extra - 16 * small.nnz,
        large.peak_extra - 16 * large.nnz,
    );
    assert!(small.calls <= 12, "{} allocator calls", small.calls);
    // Per block: the piece list, the helpers' handles and what spawning
    // them costs (≈ 5 calls a thread); the helpers' scratch vectors grow
    // in the first block, by doubling.
    let per_block = 2 + 8 * (threads - 1);
    assert!(
        large.calls <= small.calls + 32 * (threads - 1) + blocks * per_block,
        "{} allocator calls for {blocks} blocks",
        large.calls
    );
    // Besides the entries: the block buffer and the helpers' scratch, not
    // the file, which is over four blocks.
    assert!(large.text_bytes > 4 * BLOCK);
    for cost in [small, large] {
        assert!(
            cost.peak_extra <= 16 * cost.nnz + 3 * BLOCK,
            "{} B live beyond 16 B * {} entries",
            cost.peak_extra - 16 * cost.nnz,
            cost.nnz
        );
    }
}
