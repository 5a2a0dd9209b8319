//! Hostile binary headers: a file's 16-byte header is untrusted, so the
//! reader's allocations must follow the bytes actually present. A counting
//! global allocator records the largest single request made while reading.

use hipa_graph::io;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// records request sizes.
unsafe impl GlobalAlloc for LargestRequest {
    // SAFETY: same contract as `System.alloc`, which it forwards to.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: relaxed (a statistic read after the measured call).
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, which it forwards to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, which it forwards to.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: relaxed (as in `alloc`).
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

fn header(n: u32, m: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    for w in [0x4849_5041u32, 1, n, m] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

#[test]
fn header_claiming_u32_max_edges_errs_without_a_large_allocation() {
    let buf = header(10, u32::MAX);
    // ordering: relaxed (single-threaded reset before the measured call).
    LARGEST.store(0, Ordering::Relaxed);
    let err = io::read_binary(&buf[..]).unwrap_err();
    // ordering: relaxed (read after the call returned on this thread).
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(largest <= 1 << 20, "largest allocation {largest} B for a 16-byte file");
}

#[test]
fn out_of_range_endpoint_returns_invalid_data() {
    let mut buf = header(3, 2);
    for w in [0u32, 1, 1, 7] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    let err = io::read_binary(&buf[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("(1, 7)"), "{err}");
}
