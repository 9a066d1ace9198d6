//! The launch path copies a rank's slice once each way. Under a counting
//! global allocator, shipping an assignment makes exactly one allocation
//! on the supervisor side — the frame buffer the slice is encoded into —
//! and receiving it makes one body buffer (plus its shared-ownership
//! header) and then one exact-size allocation per decoded array.

use bytes::Bytes;
use cmg_graph::generators;
use cmg_graph::weights::{assign_weights, WeightScheme};
use cmg_net::frame::{encode_frame, read_frame};
use cmg_net::proto::{decode_assignment, encode_assignment, send_assignment};
use cmg_net::{Assignment, Ctrl, Frame, LinkWriter, NetTask, ResumeFrom, RunOptions};
use cmg_partition::simple::block_partition;
use cmg_partition::{DistGraph, EdgeWeights};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;

/// Logs the size of every allocation (and reallocation) the current
/// thread makes, so the test harness's own threads do not disturb a
/// measurement.
struct LoggingAlloc;

const LOG_CAP: usize = 64;

thread_local! {
    static LOG: RefCell<([usize; LOG_CAP], usize)> = const { RefCell::new(([0; LOG_CAP], 0)) };
}

fn record(size: usize) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = LOG.try_with(|log| {
        if let Ok(mut log) = log.try_borrow_mut() {
            let (sizes, n) = &mut *log;
            if let Some(slot) = sizes.get_mut(*n) {
                *slot = size;
            }
            *n += 1;
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; logging touches only a
// const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for LoggingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three arguments are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LoggingAlloc = LoggingAlloc;

/// Runs `f` and returns its value with the sizes of the allocations it
/// made, in order.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
    LOG.with(|log| log.borrow_mut().1 = 0);
    let out = f();
    let (sizes, n) = LOG.with(|log| *log.borrow());
    assert!(n <= LOG_CAP, "{n} allocations overflow the log");
    (out, sizes[..n].to_vec())
}

/// Rank 1 of a weighted 64 × 64 grid in four row blocks: two neighbour
/// ranks, ghosts on both sides, a weight per adjacency entry.
fn assignment(resume: Option<ResumeFrom>) -> Assignment {
    let g = assign_weights(
        &generators::grid2d(64, 64),
        WeightScheme::Uniform { lo: 0.0, hi: 1.0 },
        5,
    );
    let dg = DistGraph::build_all(&g, &block_partition(g.num_vertices(), 4)).swap_remove(1);
    Assignment {
        dg,
        task: NetTask::Matching,
        opts: RunOptions::default(),
        resume,
    }
}

/// The frame the pre-streaming supervisor sent: the encoded assignment
/// staged in a `Bytes`, then framed.
fn staged_frame(a: &Assignment) -> Vec<u8> {
    let payload = Bytes::from(encode_assignment(a));
    encode_frame(
        0,
        &Frame::with_payload(Ctrl::Assignment { rank: 1 }, payload),
    )
}

#[test]
fn shipping_an_assignment_allocates_one_frame_buffer() {
    let resumed = ResumeFrom {
        round: 4,
        payload: vec![7; 3000],
    };
    for a in [assignment(None), assignment(Some(resumed))] {
        let resume = a.resume.as_ref().map(|r| (r.round, r.payload.as_slice()));
        let mut w = LinkWriter::new(std::io::sink());
        let (sent, sizes) = measure(|| send_assignment(&mut w, &a.dg, &a.task, &a.opts, resume));
        sent.expect("ships");
        let frame_len = staged_frame(&a).len();
        println!("frame {frame_len} B: allocations {sizes:?}");
        assert_eq!(sizes.len(), 1, "{sizes:?}");
        assert!(sizes[0] >= frame_len, "{sizes:?} for a {frame_len} B frame");

        // And the streamed frame is the staged one, byte for byte.
        let mut wire = Vec::new();
        send_assignment(
            &mut LinkWriter::new(&mut wire),
            &a.dg,
            &a.task,
            &a.opts,
            resume,
        )
        .expect("ships");
        assert_eq!(wire, staged_frame(&a));
    }
}

#[test]
fn receiving_an_assignment_allocates_a_body_and_one_buffer_per_array() {
    let a = assignment(None);
    let wire = staged_frame(&a);
    let (read, sizes) = measure(|| read_frame(&mut &wire[..]));
    let (_, frame) = read.expect("reads").expect("one frame");
    // The body buffer, exactly as long as the length prefix says, and the
    // small header that lets the payload share it: no payload copy.
    println!("read: allocations {sizes:?}");
    assert_eq!(sizes.len(), 2, "{sizes:?}");
    assert_eq!(sizes[0], wire.len() - 4);
    assert!(sizes[1] < 64, "{sizes:?}");

    let (decoded, sizes) = measure(|| decode_assignment(&frame.payload));
    assert_eq!(decoded.expect("decodes"), a);
    println!("decode: allocations {sizes:?}");
    let dg = &a.dg;
    let EdgeWeights::Stored(weights) = &dg.weights else {
        panic!("the assignment's slice stores its weights");
    };
    let arrays = [
        4 * dg.xadj.len(),
        4 * dg.adj.len(),
        8 * weights.len(),
        4 * dg.global_ids.len(),
        4 * dg.ghost_owner.len(),
        dg.is_boundary.len(),
        4 * dg.neighbor_ranks.len(),
    ];
    // One exact-size allocation per array, in wire order; then
    // `DistGraph::from_fields` adds its ghost table and the copy it sorts
    // to check `neighbor_ranks`.
    assert_eq!(sizes[..arrays.len()], arrays, "{sizes:?}");
    assert_eq!(sizes.len(), arrays.len() + 2, "{sizes:?}");
}
