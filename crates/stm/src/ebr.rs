//! Hand-rolled epoch-based reclamation for version nodes.
//!
//! Commit publishes a write by swapping a cell's version pointer
//! ([`crate::stm`]); the displaced version may still be in use by a
//! concurrent reader that loaded the pointer a moment earlier, so it
//! cannot be freed inline. This is the classic three-epoch scheme
//! (Fraser's EBR, the same shape as `crossbeam-epoch`, hand-rolled here
//! because the workspace is hermetic):
//!
//! * A global epoch counter advances only when every *pinned*
//!   participant has observed the current value.
//! * A thread [`pin`](Collector::pin)s before dereferencing any version
//!   pointer and stays pinned for the whole transaction; retired
//!   garbage is stamped with the **global** epoch at retirement time
//!   (not the retiring thread's pinned epoch, which may lag the global
//!   by one — see [`Guard::defer`]).
//! * Garbage stamped `e` is freed once the global epoch reaches `e + 2`:
//!   any reader still holding the pointer pinned before the unlink, so
//!   at an epoch `≤ e`, and a participant pinned at `e' < e + 1` blocks
//!   every advance toward `e + 2` — by the time the global gets there,
//!   all such readers have unpinned.
//!
//! Three bags per participant, indexed `epoch % 3`, make the stamp
//! check implicit: when a bag is reused at epoch `e` its previous
//! contents are from some `e' ≤ e - 3`, which is always safely
//! reclaimable. Participants are acquired per-pin from a lock-free
//! (Treiber) registry with an ownership CAS, so a guard may be taken on
//! any thread. A thread-local hint remembers which node the calling
//! thread claimed last and is tried first: without it, two threads
//! pinning in turn would each CAS the other's node at the registry head
//! and swap participants (and their garbage bags) on every pin. The
//! hint only chooses where to try; ownership is still the CAS.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{
    AtomicBool, AtomicPtr, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};

/// Retired garbage: drain a bag this many items deep tries to advance
/// the global epoch so the bag can empty soon.
const ADVANCE_THRESHOLD: usize = 64;

/// One deferred deallocation.
struct Garbage {
    ptr: *mut (),
    free: unsafe fn(*mut ()),
}

// Garbage travels from the retiring thread's stack into a bag that a
// different thread (the collector's dropper) may drain.
unsafe impl Send for Garbage {}

struct Bag {
    /// Epoch at which the current contents were retired.
    epoch: u64,
    items: Vec<Garbage>,
}

impl Bag {
    fn drain(&mut self) {
        for g in self.items.drain(..) {
            unsafe { (g.free)(g.ptr) };
        }
    }
}

struct Participant {
    /// `0` = quiescent; otherwise `(epoch << 1) | 1`.
    active: AtomicU64,
    /// Ownership flag: a pin CASes this `false → true` to claim the
    /// slot, so `bags` is only ever touched by one thread at a time.
    owned: AtomicBool,
    next: *mut Participant,
    bags: UnsafeCell<[Bag; 3]>,
}

/// The collector one [`crate::Stm`] instance owns.
pub struct Collector {
    global: AtomicU64,
    head: AtomicPtr<Participant>,
    /// Never reused across collectors: keys [`PIN_HINT`], so a hint a
    /// dropped collector left behind is never dereferenced, even by a
    /// new collector at the same address.
    id: u64,
}

thread_local! {
    /// `(collector id, participant)`: the node this thread claimed last
    /// from the collector with that id. The pointer is dereferenced only
    /// when the id matches the collector being pinned, which is then
    /// alive, and participants are freed only by `Collector::drop`.
    static PIN_HINT: Cell<(u64, *mut Participant)> =
        const { Cell::new((u64::MAX, std::ptr::null_mut())) };
}

// `head` chains heap nodes only this collector frees; all cross-thread
// state in a node is atomic, and `bags` is guarded by `owned`.
unsafe impl Send for Collector {}
unsafe impl Sync for Collector {}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    #[must_use]
    pub fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Collector {
            global: AtomicU64::new(0),
            head: AtomicPtr::new(std::ptr::null_mut()),
            id: NEXT_ID.fetch_add(1, Relaxed),
        }
    }

    /// Current global epoch (test/introspection hook).
    pub fn epoch(&self) -> u64 {
        self.global.load(SeqCst)
    }

    /// Pins the calling thread: until the returned [`Guard`] drops,
    /// the global epoch can advance at most once, so any version
    /// pointer loaded under the guard stays allocated.
    pub fn pin(&self) -> Guard<'_> {
        let part = self.acquire_participant();
        let p = unsafe { &*part };
        let mut e = self.global.load(SeqCst);
        // Publish our epoch, then re-check: if the global moved while
        // we were publishing, chase it so an advancer never observes us
        // pinned more than one epoch behind.
        loop {
            p.active.store((e << 1) | 1, SeqCst);
            let now = self.global.load(SeqCst);
            if now == e {
                break;
            }
            e = now;
        }
        // Opportunistically drain any of our bags whose contents are
        // already two epochs stale.
        let bags = unsafe { &mut *p.bags.get() };
        for bag in bags.iter_mut() {
            if !bag.items.is_empty() && e >= bag.epoch + 2 {
                bag.drain();
            }
        }
        Guard {
            collector: self,
            part,
        }
    }

    fn acquire_participant(&self) -> *mut Participant {
        // `try_with`: a pin during thread teardown just scans.
        if let Ok((id, p)) = PIN_HINT.try_with(Cell::get) {
            // SAFETY: the id matches, so `p` is a node of this live
            // collector's registry.
            if id == self.id && Self::claim(unsafe { &*p }) {
                return p;
            }
        }
        let p = self.scan_or_register();
        let _ = PIN_HINT.try_with(|h| h.set((self.id, p)));
        p
    }

    /// Takes ownership of `node` if it is released.
    fn claim(node: &Participant) -> bool {
        node.owned
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_ok()
    }

    fn scan_or_register(&self) -> *mut Participant {
        // Reuse a released slot if one exists.
        let mut p = self.head.load(SeqCst);
        while !p.is_null() {
            let node = unsafe { &*p };
            if Self::claim(node) {
                return p;
            }
            p = node.next;
        }
        // Register a fresh one (never unregistered before collector
        // drop; participant count is bounded by peak pin concurrency).
        let make_bag = || Bag {
            epoch: 0,
            items: Vec::new(),
        };
        let node = Box::into_raw(Box::new(Participant {
            active: AtomicU64::new(0),
            owned: AtomicBool::new(true),
            next: std::ptr::null_mut(),
            bags: UnsafeCell::new([make_bag(), make_bag(), make_bag()]),
        }));
        loop {
            let head = self.head.load(SeqCst);
            unsafe { (*node).next = head };
            if self
                .head
                .compare_exchange(head, node, SeqCst, SeqCst)
                .is_ok()
            {
                return node;
            }
        }
    }

    /// Registry length: one node per peak concurrent pin.
    #[cfg(test)]
    fn participants(&self) -> usize {
        let mut n = 0;
        let mut p = self.head.load(SeqCst);
        while !p.is_null() {
            n += 1;
            // SAFETY: registry nodes live until `Collector::drop`.
            p = unsafe { (*p).next };
        }
        n
    }

    /// Advances the global epoch if every pinned participant has
    /// caught up to it.
    fn try_advance(&self) {
        let e = self.global.load(SeqCst);
        let mut p = self.head.load(SeqCst);
        while !p.is_null() {
            let node = unsafe { &*p };
            let a = node.active.load(SeqCst);
            if a & 1 == 1 && a >> 1 != e {
                return; // someone is still pinned in the previous epoch
            }
            p = node.next;
        }
        let _ = self.global.compare_exchange(e, e + 1, SeqCst, SeqCst);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Exclusive access: no guards can outlive the collector (their
        // lifetime borrows it), so every bag is safe to drain and every
        // participant node safe to free.
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            let mut node = unsafe { Box::from_raw(p) };
            p = node.next;
            for bag in node.bags.get_mut().iter_mut() {
                bag.drain();
            }
        }
    }
}

/// An active pin. `!Send` by construction (raw participant pointer):
/// the pin must be released on the thread that took it.
pub struct Guard<'c> {
    collector: &'c Collector,
    part: *mut Participant,
}

impl Guard<'_> {
    /// Defers `free(ptr)` until every thread pinned at this moment has
    /// unpinned.
    ///
    /// # Safety
    ///
    /// `ptr` must not be reachable by any thread that pins *after* this
    /// call (i.e. it has been unlinked from all shared locations), and
    /// `free` must be safe to call on it exactly once.
    pub unsafe fn defer(&self, ptr: *mut (), free: unsafe fn(*mut ())) {
        let p = unsafe { &*self.part };
        // Stamp with the *global* epoch, not our pinned epoch. Our pin
        // may lag the global by one (pin at `e`, global advances to
        // `e + 1`, then we unlink), and a reader pinned at `e + 1` can
        // have loaded the pointer before the unlink. Stamping `e` would
        // let a pin at `e + 2` free under that reader; stamping the
        // global (`e + 1` here) makes the `stamp + 2` drain condition
        // wait for it. The global is ≥ the pin epoch of every reader
        // that pinned before the unlink, and monotone across successive
        // defers, so bag reuse below stays ordered.
        let e = self.collector.global.load(SeqCst);
        let bags = unsafe { &mut *p.bags.get() };
        let bag = &mut bags[(e % 3) as usize];
        if bag.epoch != e {
            // Previous contents are from epoch ≤ e - 3: reclaimable.
            bag.drain();
            bag.epoch = e;
        }
        bag.items.push(Garbage { ptr, free });
        if bag.items.len() >= ADVANCE_THRESHOLD {
            self.collector.try_advance();
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let p = unsafe { &*self.part };
        p.active.store(0, SeqCst);
        p.owned.store(false, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    static FREED: AtomicUsize = AtomicUsize::new(0);

    unsafe fn count_free(p: *mut ()) {
        drop(unsafe { Box::from_raw(p.cast::<u64>()) });
        FREED.fetch_add(1, SeqCst);
    }

    fn retire_one(g: &Guard<'_>) {
        let b = Box::into_raw(Box::new(0u64));
        unsafe { g.defer(b.cast(), count_free) };
    }

    #[test]
    fn garbage_survives_while_pinned_and_frees_after_epochs() {
        FREED.store(0, SeqCst);
        let c = Collector::new();
        {
            let g = c.pin();
            retire_one(&g);
            assert_eq!(FREED.load(SeqCst), 0);
        }
        // Advance two epochs with nobody pinned, then pin again: the
        // stale bag drains on pin.
        c.try_advance();
        c.try_advance();
        {
            let _g = c.pin();
            assert_eq!(FREED.load(SeqCst), 1);
        }
    }

    #[test]
    fn pinned_reader_blocks_advance() {
        let c = Collector::new();
        let g1 = c.pin();
        let e0 = c.epoch();
        c.try_advance();
        assert_eq!(c.epoch(), e0 + 1, "one advance is fine");
        c.try_advance();
        assert_eq!(c.epoch(), e0 + 1, "second advance must wait for g1");
        drop(g1);
        c.try_advance();
        assert_eq!(c.epoch(), e0 + 2);
    }

    /// Regression: a retirer pinned at epoch `e` unlinks *after* the
    /// global has advanced to `e + 1`. A reader pinned at `e + 1`
    /// (which loaded the pointer before the unlink) does not block the
    /// advance to `e + 2`, so garbage stamped with the retirer's pin
    /// epoch `e` would be freed at `e + 2` under that reader. Stamping
    /// with the global epoch (`e + 1`) keeps it alive.
    #[test]
    fn defer_after_global_advance_waits_for_lagging_epoch_reader() {
        FREED.store(0, SeqCst);
        let c = Collector::new();
        let retirer = c.pin(); // pinned at epoch 0
        c.try_advance();
        assert_eq!(c.epoch(), 1, "retirer at 0 does not block 0 -> 1");
        let reader = c.pin(); // pinned at epoch 1, "holds" the pointer
        retire_one(&retirer); // unlink happens at global epoch 1
        drop(retirer);
        c.try_advance();
        assert_eq!(c.epoch(), 2, "reader at 1 does not block 1 -> 2");
        {
            // A pin at epoch 2 drains stale bags in the retirer's
            // recycled slot; the garbage is stamped 1, and 2 < 1 + 2,
            // so it must survive while `reader` is still pinned.
            let _g = c.pin();
            assert_eq!(FREED.load(SeqCst), 0, "freed under a live reader");
        }
        drop(reader);
        c.try_advance();
        assert_eq!(c.epoch(), 3);
        // Two concurrent pins: the first reuses the retirer's slot (the
        // thread's hint since the pin above), whose bag is now two
        // epochs stale and drains; the second takes the reader's.
        let _g1 = c.pin();
        let _g2 = c.pin();
        assert_eq!(FREED.load(SeqCst), 1, "freed once the reader unpins");
    }

    #[test]
    fn collector_drop_frees_everything() {
        FREED.store(0, SeqCst);
        {
            let c = Collector::new();
            let g = c.pin();
            for _ in 0..10 {
                retire_one(&g);
            }
            drop(g);
        }
        assert_eq!(FREED.load(SeqCst), 10);
    }

    #[test]
    fn participants_are_reused_across_pins() {
        let c = Collector::new();
        let p1 = c.pin().part;
        let p2 = c.pin().part;
        assert_eq!(p1, p2, "sequential pins reuse the released slot");
    }

    /// Two threads pinning in turn each keep the node they first
    /// claimed. Scanning from the registry head instead would hand each
    /// thread whichever node the other had just released.
    #[test]
    fn threads_keep_their_own_participant() {
        let c = Collector::new();
        let both_pinned = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    // Pin together once, so the two claims are distinct.
                    let g = c.pin();
                    let mine = g.part as usize;
                    both_pinned.wait();
                    drop(g);
                    for _ in 0..10_000 {
                        assert_eq!(c.pin().part as usize, mine);
                    }
                });
            }
        });
        assert_eq!(c.participants(), 2);
    }

    /// Nested pins on one thread miss the hint and scan; nodes are
    /// reused, so the registry holds one node per peak concurrent pin.
    #[test]
    fn registry_never_grows_past_peak_concurrent_pins() {
        let c = Collector::new();
        for _ in 0..1_000 {
            let _g1 = c.pin();
            let _g2 = c.pin();
            let _g3 = c.pin();
        }
        assert_eq!(c.participants(), 3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        let _g = c.pin();
                    }
                });
            }
        });
        assert_eq!(c.participants(), 3, "two threads need no fourth node");
    }

    /// A hint left by a dropped collector is ignored by a new collector
    /// built in the same place: its id differs, so the freed node is
    /// never dereferenced and the pin registers a node of its own.
    #[test]
    fn stale_hint_from_a_dropped_collector_is_never_used() {
        let mut c = Collector::new();
        let addr = std::ptr::addr_of!(c) as usize;
        // Leaves this thread's hint on `c`'s node.
        drop(c.pin());
        // Assignment drops the old collector (freeing that node) and
        // moves the new one into the same place.
        c = Collector::new();
        assert_eq!(std::ptr::addr_of!(c) as usize, addr);
        let g = c.pin();
        assert_eq!(c.participants(), 1);
        assert_eq!(g.part, c.head.load(SeqCst), "a node of the new registry");
    }

    #[test]
    fn concurrent_pin_smoke() {
        let c = Arc::new(Collector::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let g = c.pin();
                        let b = Box::into_raw(Box::new(7u64));
                        unsafe {
                            g.defer(b.cast(), |p| drop(Box::from_raw(p.cast::<u64>())));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Drop frees the remainder; miri/asan would flag leaks or UAF.
    }
}
