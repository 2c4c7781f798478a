//! Allocation budget of a warmed-up transaction: once a thread's
//! transaction buffers and epoch bags have grown to size, a commit
//! allocates only the version nodes it publishes.
//!
//! The counting allocator keeps one counter per thread, because the
//! tests of this binary run concurrently on several threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcc_stm::{Stm, TVar};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread-local teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a const-initialised thread-local `Cell` with no destructor,
// which never allocates and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 1_000;
const MEASURED: u64 = 10_000;

/// Allocations per transaction of `tx` over [`MEASURED`] runs on the
/// calling thread, after [`WARMUP`] unmeasured ones.
fn allocs_per_tx(mut tx: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        tx();
    }
    let a0 = ALLOCS.with(Cell::get);
    for _ in 0..MEASURED {
        tx();
    }
    (ALLOCS.with(Cell::get) - a0) as f64 / MEASURED as f64
}

/// The stm-disjoint shape: 4 reads and 2 read-modify-writes on cells no
/// other transaction touches. Its two version nodes are the whole
/// budget.
#[test]
fn disjoint_read_modify_write_allocates_only_its_versions() {
    let stm = Stm::new();
    let cells: Vec<TVar<u64>> = (0..6).map(|_| stm.new_tvar(0)).collect();
    let per_tx = allocs_per_tx(|| {
        stm.atomically(|tx| {
            let mut sum = 0u64;
            for c in &cells[..4] {
                sum = sum.wrapping_add(tx.read(c)?);
            }
            for c in &cells[4..] {
                let v = tx.read(c)?;
                tx.write(c, v + 1)?;
            }
            Ok(sum)
        });
    });
    assert!(per_tx <= 2.01, "{per_tx} allocations per transaction");
    let n = WARMUP + MEASURED;
    assert_eq!(stm.atomically(|tx| tx.read(&cells[5])), n);
}

/// A read-only transaction publishes nothing, so it allocates nothing.
#[test]
fn read_only_transaction_does_not_allocate() {
    let stm = Stm::new();
    let cells: Vec<TVar<u64>> = (0..4).map(|i| stm.new_tvar(i)).collect();
    let per_tx = allocs_per_tx(|| {
        let sum = stm.atomically(|tx| {
            let mut sum = 0u64;
            for c in &cells {
                sum += tx.read(c)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, 6);
    });
    assert!(per_tx <= 0.01, "{per_tx} allocations per transaction");
}
