//! The system allocator, noting what each thread asks of it: the one
//! `#[global_allocator]` of every test that counts or sizes allocations
//! (`#[path]`-included, so the workspace has one `GlobalAlloc` impl to
//! audit). Per thread, because `cargo test` runs a binary's tests side
//! by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct NotingAlloc;

thread_local! {
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    REQUESTS.with(|requests| requests.set(requests.get() + 1));
    LARGEST_REQUEST.with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` touches only const-initialized
// `Cell<usize>` thread-locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: NotingAlloc = NotingAlloc;

/// Run `f`; with its result, how many requests (`alloc` and `realloc`)
/// this thread made of the allocator meanwhile, and the largest of them
/// in bytes.
pub fn requests_during<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    REQUESTS.with(|requests| requests.set(0));
    LARGEST_REQUEST.with(|largest| largest.set(0));
    let result = f();
    (
        result,
        REQUESTS.with(Cell::get),
        LARGEST_REQUEST.with(Cell::get),
    )
}
