//! The counting allocator counts a known allocation pattern exactly.
//! One test only: the counters are process-wide, and a second test
//! running on another thread would allocate into the same interval.

use marp_benchmark::alloc::{CountingAlloc, HeapMark};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_a_known_pattern_exactly() {
    // Nothing allocated: nothing counted.
    let mark = HeapMark::now();
    let delta = mark.since();
    assert_eq!((delta.allocs, delta.peak_bytes), (0, 0));

    // Three boxes live at once, then freed: 3 allocations, 3 KiB peak.
    let mark = HeapMark::now();
    let boxes: Vec<Box<[u8; 1024]>> = {
        let mut v = Vec::with_capacity(3); // 1 allocation of 3 pointers
        for _ in 0..3 {
            v.push(Box::new([0u8; 1024]));
        }
        v
    };
    let held = mark.since();
    assert_eq!(held.allocs, 4);
    assert_eq!(held.peak_bytes, 3 * 1024 + 3 * 8);
    drop(boxes);
    // Freeing does not lower the peak or count as an allocation.
    assert_eq!(mark.since(), held);

    // One box at a time: 3 allocations, but only 1 KiB live at the peak.
    let mark = HeapMark::now();
    for _ in 0..3 {
        std::hint::black_box(Box::new([0u8; 1024]));
    }
    let delta = mark.since();
    assert_eq!(delta.allocs, 3);
    assert_eq!(delta.peak_bytes, 1024);

    // Growing a vector in place is one more trip to the allocator and
    // raises the peak by the growth only.
    let mut v: Vec<u8> = Vec::with_capacity(100);
    let mark = HeapMark::now();
    v.reserve_exact(1000);
    let delta = mark.since();
    assert_eq!(delta.allocs, 1);
    assert!(delta.peak_bytes >= 900, "{delta:?}");
}
