//! The user-facing STM: [`TVar`] cells, composable [`Tx`] read/write
//! sets, and the retry loop with starvation escalation.
//!
//! The surface is kcas-shaped — `stm.atomically(|tx| { let v =
//! tx.read(&a)?; tx.write(&b, v + 1)?; Ok(()) })` — but the commit path
//! underneath is the paper's non-blocking protocol
//! ([`crate::proto::commit`]) over [`RealShim`] atomics, which is what
//! buys the livelock-freedom guarantee classic obstruction-free kcas
//! designs lack: the transaction holding the lowest TID never waits on
//! anyone, and a starved transaction escalates to early-TID acquisition
//! ([`CommitMode::EarlyTid`]) after `starvation_threshold` failed
//! attempts, after which it commits within two more executions.
//!
//! Cells are version pointers: a committed write allocates one
//! [`Version<T>`] node (stamp + value) and publishes it with a single
//! pointer swap — the software image of the paper's write-back commit
//! via ownership publication, where commit communicates *who owns the
//! line*, not the data. Displaced versions are reclaimed through
//! [`crate::ebr`].
//!
//! Reads are invisible and opaque: a transaction never observes a
//! state no serial execution could produce, even on attempts that
//! later abort, which matters because user closures run on it. The
//! rule is a snapshot bound `rv` taken from the commit order itself.
//! A TID resolves at a shard only after all of its publications are
//! installed (`proto::commit` phase 4 before phase 5), so any shard's
//! NSTID bounds a consistent snapshot. Each [`Tx`] keeps the invariant
//! *every TID below `rv` has finished publishing, and every recorded
//! read has a stamp `<= rv` and is still current*:
//!
//! * **Fast path.** A loaded version with stamp `<= rv` is returned
//!   with no re-validation. Per-cell publications happen in TID order
//!   under the cell's home shard, so it is the cell's value in the
//!   serial state after all TIDs `< rv`.
//! * **Extension.** A stamp `> rv` loads `f`, the NSTID of the cell's
//!   home shard. If the stamp is also `> f`, its writer `W` has
//!   published here but not yet resolved at the home shard: pause and
//!   reload. Otherwise every recorded read is re-checked against its
//!   stamp, `rv` becomes `f`, and the cell is reloaded.
//! * **Repeated reads** compare the loaded stamp with the recorded
//!   one; a difference is a [`TxError::Conflict`].
//!
//! The pause cannot deadlock. `W` wrote this cell, so the home shard
//! is in `W`'s footprint, and `W`'s `await_serving` there has already
//! seen every lower TID resolved — parked TIDs included, which its
//! helper claims. So `W` is in phase 4 or 5, where it waits on no
//! reader, only (through skip-window back-pressure) on lower TIDs that
//! are themselves resolving everywhere. A reader holding an early TID
//! holds one above `W`: a lower one would still be unresolved at the
//! home shard.
//!
//! `rv` is seeded from a thread-local `(instance id, bound)`. After a
//! commit with a non-empty footprint, the thread's bound becomes
//! `stamp_of(tid)`: the commit was served at some shard, so every lower
//! TID had resolved there, and resolution follows publication. The
//! seed is keyed by an id no other [`Stm`] ever reuses, so a bound
//! never leaks into a later instance that happens to share an address.
//!
//! Read and write sets of up to eight cells are searched linearly, so
//! small transactions never allocate for lookups; larger ones index
//! cells by address, keeping each access O(1).
//!
//! A transaction's buffers — the read and write sets and the entry
//! lists handed to [`proto::commit`] — come from a per-thread slot and
//! go back to it, cleared, when the attempt ends, so after warm-up an
//! attempt allocates only the version nodes it writes. A nested or
//! unwinding transaction finds the slot empty and allocates its own.

use crate::ebr;
use crate::proto::{
    self, stamp_of, CellAccess, CommitMode, CommitOutcome, CommitState, CommitTweaks, ReadEntry,
    WriteEntry, STAMP_INITIAL, TID_NONE,
};
use crate::shim::{RealShim, Shim, ShimU64};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tcc_types::Tid;

// ---------------------------------------------------------------------
// Version nodes
// ---------------------------------------------------------------------

/// Type-erased header every committed version starts with. `#[repr(C)]`
/// so a `*mut VersionHdr` is also a pointer to the containing
/// [`Version<T>`]'s first field and the stamp can be read without
/// knowing `T`.
#[repr(C)]
struct VersionHdr {
    stamp: u64,
    /// Frees the whole `Version<T>` allocation; stored per-node so the
    /// cell can be dropped and garbage reclaimed type-erased.
    free: unsafe fn(*mut VersionHdr),
}

#[repr(C)]
struct Version<T> {
    hdr: VersionHdr,
    value: T,
}

unsafe fn free_version<T>(p: *mut VersionHdr) {
    drop(unsafe { Box::from_raw(p.cast::<Version<T>>()) });
}

fn alloc_version<T>(stamp: u64, value: T) -> *mut VersionHdr {
    Box::into_raw(Box::new(Version {
        hdr: VersionHdr {
            stamp,
            free: free_version::<T>,
        },
        value,
    }))
    .cast::<VersionHdr>()
}

unsafe fn free_erased(p: *mut ()) {
    let hdr = p.cast::<VersionHdr>();
    unsafe { ((*hdr).free)(hdr) };
}

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/// Type-erased cell state shared by all clones of a [`TVar`].
struct CellCore {
    /// Home directory shard (assigned round-robin at creation — the
    /// software image of address-interleaved directories).
    shard: usize,
    /// Write-intent mark: TID of a committer about to publish here, or
    /// [`TID_NONE`]. A hint only — see [`proto::read_should_stall`].
    mark: AtomicU64,
    /// The current committed version. Readers `Acquire`-load it (to see
    /// the version's contents), commit `AcqRel`-swaps it.
    current: AtomicPtr<VersionHdr>,
    /// Keeps the commit state and collector alive as long as any TVar
    /// clone exists.
    stm: Arc<Inner>,
}

impl Drop for CellCore {
    fn drop(&mut self) {
        // Last TVar clone gone: nobody can load `current` anymore, and
        // all *previous* versions were retired through EBR at publish
        // time, so the final version can be freed inline.
        let p = *self.current.get_mut();
        if !p.is_null() {
            unsafe { ((*p).free)(p) };
        }
    }
}

/// A transactional variable: a `T`-typed cell readable and writable
/// only inside [`Tx`] closures. Cloning is cheap (`Arc`) and clones
/// alias the same cell.
pub struct TVar<T> {
    core: Arc<CellCore>,
    _t: PhantomData<T>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            core: Arc::clone(&self.core),
            _t: PhantomData,
        }
    }
}

// Values of `T` move between threads through the cell and `&T` is
// cloned concurrently, hence both bounds.
unsafe impl<T: Send + Sync> Send for TVar<T> {}
unsafe impl<T: Send + Sync> Sync for TVar<T> {}

// ---------------------------------------------------------------------
// Errors, receipts, config, stats
// ---------------------------------------------------------------------

/// Why a transaction attempt failed (it will be retried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// A concurrent commit invalidated something this attempt read.
    Conflict,
}

pub type TxResult<T> = Result<T, TxError>;

/// Where a [`Tx::read_versioned`] value came from — the differential
/// harness uses this to reconstruct reads-from edges for the
/// simulator's serializability checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// A committed version: `Some(tid)` of the committing transaction,
    /// or `None` for the initial value.
    Committed(Option<Tid>),
    /// The transaction's own buffered write.
    OwnWrite,
}

/// Proof of commit returned by [`Stm::run`].
#[derive(Debug, Clone, Copy)]
pub struct CommitReceipt {
    /// The gap-free TID this transaction committed at — its position
    /// in the global serial order.
    pub tid: Tid,
    /// Execution attempts it took (1 = first try).
    pub attempts: u32,
    /// Whether the commit ran in early-TID starvation mode.
    pub early: bool,
}

/// Construction parameters for [`Stm::with_config`].
#[derive(Debug, Clone, Copy)]
pub struct StmConfig {
    /// Directory shard count, `1..=`[`proto::MAX_SHARDS`].
    pub shards: usize,
    /// TID-vendor handoff slots (usually = shards).
    pub vendor_slots: usize,
    /// Failed attempts before a transaction escalates to early-TID
    /// acquisition (the paper's starvation defense).
    pub starvation_threshold: u32,
    /// Max spins a read stalls on a marked cell whose writer holds the
    /// serial position (abort-avoidance hint; 0 disables stalling).
    pub read_stall_spins: u32,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            shards: 8,
            vendor_slots: 8,
            starvation_threshold: 4,
            read_stall_spins: 64,
        }
    }
}

/// Monotonic counters snapshot from [`Stm::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StmStats {
    pub commits: u64,
    pub conflicts: u64,
    pub early_commits: u64,
    pub recycled_tids: u64,
    pub claimed_tids: u64,
    pub slot_exhausted: u64,
    /// TIDs handed out by the global sequencer so far.
    pub issued_tids: u64,
}

// ---------------------------------------------------------------------
// Stm
// ---------------------------------------------------------------------

struct Inner {
    state: CommitState<RealShim>,
    collector: ebr::Collector,
    config: StmConfig,
    next_cell: AtomicUsize,
    /// Never reused across instances: keys the thread-local snapshot
    /// seed (see [`SNAPSHOT_SEED`]).
    id: u64,
}

/// A software transactional memory instance: a TID vendor, a set of
/// directory shards, and an epoch collector. Cheap to clone (`Arc`).
#[derive(Clone)]
pub struct Stm {
    inner: Arc<Inner>,
}

impl Default for Stm {
    fn default() -> Self {
        Stm::new()
    }
}

/// Stable small integer for the calling thread, used as the vendor
/// handoff home so recycled TIDs stay local.
fn thread_home() -> usize {
    static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
    }
    HOME.with(|h| *h)
}

thread_local! {
    /// `(instance id, bound)`: a snapshot bound this thread has proved
    /// for the [`Stm`] with that id — every TID below `bound` has
    /// finished publishing. Starts [`Tx::rv`].
    static SNAPSHOT_SEED: Cell<(u64, u64)> = const { Cell::new((u64::MAX, 0)) };
}

impl Stm {
    #[must_use]
    pub fn new() -> Self {
        Stm::with_config(StmConfig::default())
    }

    /// # Panics
    ///
    /// Panics if the shard count is outside `1..=`[`proto::MAX_SHARDS`]
    /// or `vendor_slots` is zero.
    #[must_use]
    pub fn with_config(config: StmConfig) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Stm {
            inner: Arc::new(Inner {
                state: CommitState::new(config.shards, config.vendor_slots),
                collector: ebr::Collector::new(),
                config,
                next_cell: AtomicUsize::new(0),
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }

    /// Creates a cell holding `init`. Cells are assigned to directory
    /// shards round-robin.
    pub fn new_tvar<T: Clone + Send + Sync + 'static>(&self, init: T) -> TVar<T> {
        let idx = self.inner.next_cell.fetch_add(1, Ordering::Relaxed);
        TVar {
            core: Arc::new(CellCore {
                shard: idx % self.inner.config.shards,
                mark: AtomicU64::new(TID_NONE),
                current: AtomicPtr::new(alloc_version(STAMP_INITIAL, init)),
                stm: Arc::clone(&self.inner),
            }),
            _t: PhantomData,
        }
    }

    /// Runs `f` transactionally until it commits, returning its result
    /// plus the [`CommitReceipt`].
    ///
    /// `f` may be re-executed any number of times; side effects other
    /// than `tx` operations must be idempotent. If `f` panics, the
    /// panic propagates and the instance stays live: a starvation-mode
    /// early TID held at that point is resolved at every shard on
    /// unwind (see [`EarlyTidGuard`]), so other threads keep
    /// committing.
    pub fn run<R>(&self, mut f: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> (R, CommitReceipt) {
        let inner = &*self.inner;
        let home = thread_home();
        let mut attempts: u32 = 0;
        let mut early = EarlyTidGuard { inner, tid: None };
        loop {
            attempts += 1;
            if early.tid.is_none() && attempts > inner.config.starvation_threshold {
                // Starvation escalation: take the TID *before*
                // re-executing. Until we commit, no shard's NSTID can
                // pass it, so the state we re-read stabilizes and the
                // next validation is conflict-free.
                early.tid = Some(inner.state.vendor.acquire(home));
            }
            let mut tx = Tx::new(inner);
            match f(&mut tx) {
                Ok(r) => {
                    let was_early = early.tid.is_some();
                    let mode = match early.tid {
                        Some(t) => CommitMode::EarlyTid(t),
                        None => CommitMode::Normal { home },
                    };
                    match tx.commit(mode) {
                        CommitOutcome::Committed { tid } => {
                            // The commit resolved the TID everywhere;
                            // disarm the guard before returning.
                            early.tid = None;
                            return (
                                r,
                                CommitReceipt {
                                    tid: Tid(tid),
                                    attempts,
                                    early: was_early,
                                },
                            );
                        }
                        CommitOutcome::Conflict { kept_tid } => {
                            early.tid = kept_tid;
                        }
                    }
                }
                // Execution-time validation failure; an early TID (if
                // held) is kept — nothing was resolved under it.
                Err(TxError::Conflict) => {}
            }
            backoff(attempts);
        }
    }

    /// [`Stm::run`] without the receipt.
    pub fn atomically<R>(&self, f: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        self.run(f).0
    }

    pub fn stats(&self) -> StmStats {
        let s = &self.inner.state.stats;
        StmStats {
            commits: s.commits.load(),
            conflicts: s.conflicts.load(),
            early_commits: s.early_commits.load(),
            recycled_tids: s.recycled.load(),
            claimed_tids: s.claimed.load(),
            slot_exhausted: s.slot_exhausted.load(),
            issued_tids: self.inner.state.vendor.issued(),
        }
    }

    /// Protocol frontier: `(tids_issued, per-shard NSTID)`. At
    /// quiescence after a final commit, every shard's NSTID equals the
    /// issued count — the observable form of gap-freedom (no TID was
    /// ever lost; every one was resolved at every shard).
    pub fn frontier(&self) -> (u64, Vec<u64>) {
        (
            self.inner.state.vendor.issued(),
            self.inner.state.shards.iter().map(|s| s.nstid()).collect(),
        )
    }

    pub fn config(&self) -> StmConfig {
        self.inner.config
    }
}

/// Owns a starvation-mode early TID across re-executions of the user
/// closure in [`Stm::run`]. A gap in the TID sequence is fatal to the
/// whole instance — no shard can ever serve past an unresolved TID —
/// and user closures may panic (asserts, slice indexing are ordinary
/// Rust). If the closure unwinds while a TID is held, the TID has
/// touched no shard state (an early TID resolves nothing until its
/// commit succeeds), so this guard's `Drop` resolves it at every shard
/// and lets the panic propagate against a still-live instance. The run
/// loop disarms the guard (`tid = None`) once a commit has resolved
/// the TID itself.
struct EarlyTidGuard<'s> {
    inner: &'s Inner,
    tid: Option<u64>,
}

impl Drop for EarlyTidGuard<'_> {
    fn drop(&mut self) {
        if let Some(tid) = self.tid {
            let helper = self.inner.state.helper();
            for shard in self.inner.state.shards.iter() {
                shard.resolve(tid, &helper);
            }
        }
    }
}

fn backoff(attempts: u32) {
    // Yield-heavy: on an oversubscribed host the conflicting committer
    // needs our quantum more than we need to spin.
    for _ in 0..(1u32 << attempts.min(4)) {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------
// Tx
// ---------------------------------------------------------------------

/// Sets up to this size are searched linearly (and never allocate for
/// lookups); past it, cells are found through [`SlotSet`]'s index.
const LINEAR_MAX: usize = 8;

/// Hashes a cell address with one multiply and a fold: the high
/// product bits carry the entropy, the fold brings it down to the low
/// bits `HashMap` picks buckets with. The keys are heap addresses, so
/// no defence against chosen keys is needed.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Keys are `usize` and take `write_usize`; fold anything else
        // bytewise so the hasher stays total.
        for &b in bytes {
            self.write_usize(self.0 as usize ^ usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        let h = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A set's identity for a cell: the address of its shared core.
fn cell_key(core: &Arc<CellCore>) -> usize {
    Arc::as_ptr(core) as usize
}

trait Slot {
    fn core(&self) -> &Arc<CellCore>;
}

/// A transaction's read or write set: slots in first-access order plus
/// an address index built once the set outgrows [`LINEAR_MAX`].
struct SlotSet<S> {
    slots: Vec<S>,
    index: HashMap<usize, usize, BuildHasherDefault<AddrHasher>>,
}

impl<S> Default for SlotSet<S> {
    fn default() -> Self {
        SlotSet {
            slots: Vec::new(),
            index: HashMap::default(),
        }
    }
}

impl<S: Slot> SlotSet<S> {
    fn with_capacity(n: usize) -> Self {
        SlotSet {
            slots: Vec::with_capacity(n),
            index: HashMap::default(),
        }
    }

    /// Empties the set, keeping its allocations.
    fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
    }

    /// Position of `core`'s slot, if the set has one.
    fn find(&self, core: &Arc<CellCore>) -> Option<usize> {
        if self.slots.len() <= LINEAR_MAX {
            self.slots.iter().position(|s| Arc::ptr_eq(s.core(), core))
        } else {
            self.index.get(&cell_key(core)).copied()
        }
    }

    /// Appends a slot for a cell the set does not hold yet.
    fn push(&mut self, slot: S) {
        self.slots.push(slot);
        let n = self.slots.len();
        if n == LINEAR_MAX + 1 {
            self.index.extend(
                self.slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (cell_key(s.core()), i)),
            );
        } else if n > LINEAR_MAX + 1 {
            self.index.insert(cell_key(self.slots[n - 1].core()), n - 1);
        }
    }
}

struct ReadSlot {
    core: Arc<CellCore>,
    stamp: u64,
}

impl Slot for ReadSlot {
    fn core(&self) -> &Arc<CellCore> {
        &self.core
    }
}

struct WriteSlot {
    core: Arc<CellCore>,
    /// Pre-allocated version node; stamp patched at publish time.
    /// Owned by the Tx until published, then owned by the cell.
    prepared: *mut VersionHdr,
    published: bool,
}

impl Slot for WriteSlot {
    fn core(&self) -> &Arc<CellCore> {
        &self.core
    }
}

/// A transaction's reusable heap buffers (module docs).
#[derive(Default)]
struct TxBufs {
    reads: SlotSet<ReadSlot>,
    writes: SlotSet<WriteSlot>,
    read_entries: Vec<ReadEntry<usize>>,
    write_entries: Vec<WriteEntry<usize>>,
}

impl TxBufs {
    fn with_typical_capacity() -> Self {
        // Typical footprints are a handful of cells; skip the doubling
        // reallocs on the hot path.
        TxBufs {
            reads: SlotSet::with_capacity(8),
            writes: SlotSet::with_capacity(4),
            read_entries: Vec::with_capacity(8),
            write_entries: Vec::with_capacity(4),
        }
    }

    /// Empties every buffer, dropping the slots' cell references.
    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.read_entries.clear();
        self.write_entries.clear();
    }
}

thread_local! {
    /// The buffers of this thread's last finished transaction, taken by
    /// the next [`Tx::new`] and returned by its `Drop`.
    static TX_BUFS: Cell<Option<TxBufs>> = const { Cell::new(None) };
}

/// One transaction attempt: invisible-read read set + buffered write
/// set, pinned for its whole lifetime so version loads stay safe.
///
/// The unsafe blocks below rely on three facts. A cell's `current` is
/// never null and points to a `Version<T>` of the `T` its `TVar<T>`
/// was created with (only `TVar<T>` methods allocate its versions). A
/// version loaded while `guard` is pinned stays allocated until the
/// pin is released, because displaced versions are retired through
/// EBR. A write slot's `prepared` node was allocated as `Version<T>`
/// for that cell and is owned by this `Tx` until published.
pub struct Tx<'s> {
    stm: &'s Inner,
    guard: ebr::Guard<'s>,
    bufs: TxBufs,
    /// Snapshot bound: every TID below it has finished publishing, and
    /// every recorded read is the cell's value in the serial state
    /// after exactly those TIDs.
    rv: u64,
}

impl<'s> Tx<'s> {
    fn new(stm: &'s Inner) -> Self {
        let (id, bound) = SNAPSHOT_SEED.with(Cell::get);
        Tx {
            stm,
            guard: stm.collector.pin(),
            // `try_with`: a transaction during thread teardown allocates.
            bufs: TX_BUFS
                .try_with(Cell::take)
                .ok()
                .flatten()
                .unwrap_or_else(TxBufs::with_typical_capacity),
            rv: if id == stm.id { bound } else { 0 },
        }
    }

    fn check_same_stm<T>(&self, v: &TVar<T>) {
        assert!(
            std::ptr::eq(Arc::as_ptr(&v.core.stm), self.stm),
            "TVar used with a different Stm instance"
        );
    }

    /// Re-checks that every recorded read still carries the stamp we
    /// observed. Called after loading a new snapshot bound, so passing
    /// means each recorded value is also the cell's value under it.
    fn validate_reads(&self) -> TxResult<()> {
        for slot in &self.bufs.reads.slots {
            let p = slot.core.current.load(Ordering::Acquire);
            // SAFETY: non-null, and live under `self.guard` (see `Tx`).
            if unsafe { (*p).stamp } != slot.stamp {
                return Err(TxError::Conflict);
            }
        }
        Ok(())
    }

    /// Loads `core`'s current version under the snapshot rule (module
    /// docs): returns a version whose stamp is `<= rv`, extending `rv`
    /// from the home shard's NSTID when the loaded stamp is above it.
    fn load_in_snapshot(&mut self, core: &CellCore) -> TxResult<*mut VersionHdr> {
        loop {
            let p = core.current.load(Ordering::Acquire);
            // SAFETY: non-null, and live under `self.guard` (see `Tx`).
            let stamp = unsafe { (*p).stamp };
            if stamp <= self.rv {
                return Ok(p);
            }
            // Only the slow path touches the commit state: its `shards`
            // header may share a cache line with the vendor counter
            // every commit writes.
            let f = self.stm.state.shards[core.shard].nstid();
            if stamp > f {
                // The writer (TID `stamp - 1`) has published here but
                // not resolved at the home shard yet; it is past every
                // wait that could involve us, so this ends.
                RealShim::pause();
                continue;
            }
            // Every TID below `f` has finished publishing. `stamp > rv`
            // and `stamp <= f` give `f > rv`: the bound only grows.
            self.validate_reads()?;
            self.rv = f;
            // Reload: a TID in `rv..f` may have replaced `p` since.
        }
    }

    /// Reads `v`, also reporting where the value came from.
    pub fn read_versioned<T: Clone + Send + Sync + 'static>(
        &mut self,
        v: &TVar<T>,
    ) -> TxResult<(T, ReadOrigin)> {
        self.check_same_stm(v);
        let core = &v.core;

        // Read-your-own-write.
        if let Some(i) = self.bufs.writes.find(core) {
            let w = &self.bufs.writes.slots[i];
            // SAFETY: an unpublished `Version<T>` this `Tx` owns.
            let value = unsafe { (*w.prepared.cast::<Version<T>>()).value.clone() };
            return Ok((value, ReadOrigin::OwnWrite));
        }

        let p = if let Some(i) = self.bufs.reads.find(core) {
            // Repeated read: the recorded version is in the snapshot;
            // any other one is a conflict.
            let p = core.current.load(Ordering::Acquire);
            // SAFETY: non-null, and live under `self.guard` (see `Tx`).
            if unsafe { (*p).stamp } != self.bufs.reads.slots[i].stamp {
                return Err(TxError::Conflict);
            }
            p
        } else {
            // Mark stall: if a committer has marked this cell and
            // already holds the cell's serial position, its publication
            // is imminent — reading the doomed version would only
            // manufacture a conflict. Bounded, so it can never become a
            // wait-for edge.
            let mut spins = 0;
            while spins < self.stm.config.read_stall_spins {
                let m = core.mark.load(Ordering::SeqCst);
                if !proto::read_should_stall(&self.stm.state, core.shard, m) {
                    break;
                }
                spins += 1;
                RealShim::pause();
            }
            let p = self.load_in_snapshot(core)?;
            self.bufs.reads.push(ReadSlot {
                core: Arc::clone(core),
                // SAFETY: as in `load_in_snapshot`, which loaded `p`.
                stamp: unsafe { (*p).stamp },
            });
            p
        };

        // SAFETY: `p` is a `Version<T>` of `v`'s cell, live under
        // `self.guard` (see `Tx`).
        let (stamp, value) = unsafe { ((*p).stamp, (*p.cast::<Version<T>>()).value.clone()) };
        let origin = if stamp == STAMP_INITIAL {
            ReadOrigin::Committed(None)
        } else {
            ReadOrigin::Committed(Some(Tid(stamp - 1)))
        };
        Ok((value, origin))
    }

    /// Reads `v`'s current value into the transaction's read set.
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, v: &TVar<T>) -> TxResult<T> {
        self.read_versioned(v).map(|(value, _)| value)
    }

    /// Buffers a write of `value` to `v` (visible to this transaction's
    /// subsequent reads, published only at commit).
    pub fn write<T: Clone + Send + Sync + 'static>(
        &mut self,
        v: &TVar<T>,
        value: T,
    ) -> TxResult<()> {
        self.check_same_stm(v);
        if let Some(i) = self.bufs.writes.find(&v.core) {
            // Overwrite: replace the prepared node's value in place.
            let w = &self.bufs.writes.slots[i];
            // SAFETY: an unpublished `Version<T>` this `Tx` owns, so no
            // other thread can see it yet.
            unsafe { (*w.prepared.cast::<Version<T>>()).value = value };
            return Ok(());
        }
        self.bufs.writes.push(WriteSlot {
            core: Arc::clone(&v.core),
            prepared: alloc_version(STAMP_INITIAL, value),
            published: false,
        });
        Ok(())
    }

    /// Number of distinct cells read / written so far.
    pub fn footprint(&self) -> (usize, usize) {
        (self.bufs.reads.slots.len(), self.bufs.writes.slots.len())
    }

    fn commit(mut self, mode: CommitMode) -> CommitOutcome {
        let b = &mut self.bufs;
        b.read_entries
            .extend(b.reads.slots.iter().enumerate().map(|(i, r)| ReadEntry {
                cell: i,
                shard: r.core.shard,
                stamp: r.stamp,
            }));
        b.write_entries
            .extend(b.writes.slots.iter().enumerate().map(|(i, w)| WriteEntry {
                cell: i,
                shard: w.core.shard,
            }));
        let mut cells = TxCells {
            reads: &b.reads.slots,
            writes: &mut b.writes.slots,
            guard: &self.guard,
        };
        let outcome = proto::commit::<RealShim, _>(
            &self.stm.state,
            &b.read_entries,
            &b.write_entries,
            &mut cells,
            mode,
            &CommitTweaks::default(),
        );
        if let CommitOutcome::Committed { tid } = outcome {
            if !b.read_entries.is_empty() || !b.write_entries.is_empty() {
                // Served at a footprint shard: every lower TID had
                // resolved there, so finished publishing, and so have
                // we.
                let id = self.stm.id;
                SNAPSHOT_SEED.with(|seed| {
                    let (old_id, old) = seed.get();
                    let kept = if old_id == id { old } else { 0 };
                    seed.set((id, kept.max(stamp_of(tid))));
                });
            }
        }
        outcome
        // Tx drops here: unpublished prepared nodes are freed and the
        // buffers returned by the Drop impl, the pin is released.
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        for w in &self.bufs.writes.slots {
            if !w.published {
                // SAFETY: never published, so still owned here and
                // freed exactly once.
                unsafe { ((*w.prepared).free)(w.prepared) };
            }
        }
        let mut bufs = std::mem::take(&mut self.bufs);
        bufs.clear();
        // A nested transaction may have refilled the slot; either set
        // of buffers will do.
        let _ = TX_BUFS.try_with(|slot| slot.set(Some(bufs)));
    }
}

/// [`CellAccess`] over a real transaction's slots. Handles are indices:
/// read handles into `reads`, write handles into `writes`.
struct TxCells<'t> {
    reads: &'t [ReadSlot],
    writes: &'t mut [WriteSlot],
    guard: &'t ebr::Guard<'t>,
}

impl CellAccess for TxCells<'_> {
    type Handle = usize;

    fn stamp(&self, h: usize) -> u64 {
        let p = self.reads[h].core.current.load(Ordering::Acquire);
        unsafe { (*p).stamp }
    }

    fn set_mark(&self, h: usize, tid: u64) {
        self.writes[h].core.mark.store(tid, Ordering::SeqCst);
    }

    fn clear_mark(&self, h: usize, tid: u64) {
        // CAS so we never erase a mark a later committer overwrote.
        let _ = self.writes[h].core.mark.compare_exchange(
            tid,
            TID_NONE,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    fn publish(&mut self, h: usize, tid: u64) {
        let w = &mut self.writes[h];
        // Stamp first (Release on the swap makes it visible with the
        // pointer), then ownership publication: one swap installs the
        // whole version.
        unsafe { (*w.prepared).stamp = stamp_of(tid) };
        let old = w.core.current.swap(w.prepared, Ordering::AcqRel);
        w.published = true;
        // The displaced version may still be under a concurrent
        // reader's pin; EBR decides when it is really dead.
        unsafe { self.guard.defer(old.cast(), free_erased) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_threaded_read_write_commit() {
        let stm = Stm::new();
        let a = stm.new_tvar(10u64);
        let b = stm.new_tvar(0u64);
        let (sum, receipt) = stm.run(|tx| {
            let va = tx.read(&a)?;
            tx.write(&b, va + 5)?;
            tx.read(&b).map(|vb| va + vb)
        });
        assert_eq!(sum, 25, "read-your-own-write");
        assert_eq!(receipt.tid, Tid(0));
        assert_eq!(receipt.attempts, 1);
        assert!(!receipt.early);
        assert_eq!(stm.atomically(|tx| tx.read(&b)), 15);
    }

    #[test]
    fn read_origin_tracks_writer_tid() {
        let stm = Stm::new();
        let a = stm.new_tvar(1u32);
        let ((_, o0), _) = stm.run(|tx| tx.read_versioned(&a));
        assert_eq!(o0, ReadOrigin::Committed(None), "initial version");
        let (_, r1) = stm.run(|tx| tx.write(&a, 2));
        let ((v, o2), _) = stm.run(|tx| tx.read_versioned(&a));
        assert_eq!(v, 2);
        assert_eq!(o2, ReadOrigin::Committed(Some(r1.tid)));
        let ((v, o3), _) = stm.run(|tx| {
            tx.write(&a, 9)?;
            tx.read_versioned(&a)
        });
        assert_eq!((v, o3), (9, ReadOrigin::OwnWrite));
    }

    #[test]
    fn overwrite_in_same_tx_keeps_last_value() {
        let stm = Stm::new();
        let a = stm.new_tvar(String::from("x"));
        stm.atomically(|tx| {
            tx.write(&a, String::from("first"))?;
            tx.write(&a, String::from("second"))?;
            Ok(())
        });
        assert_eq!(stm.atomically(|tx| tx.read(&a)), "second");
    }

    /// One transaction whose read and write sets both grow past
    /// [`LINEAR_MAX`] into the indexed lookup, with overwrites and
    /// re-reads on both sides of the threshold.
    #[test]
    fn large_transaction_crosses_the_index_threshold() {
        let stm = Stm::new();
        let cells: Vec<TVar<u64>> = (0..60).map(|i| stm.new_tvar(i)).collect();
        // Cells 0..10 get a committed writer, so reads see both origins.
        let (_, w) = stm.run(|tx| {
            for c in &cells[..10] {
                let v = tx.read(c)?;
                tx.write(c, v + 100)?;
            }
            Ok(())
        });
        let committed = |i: usize| if i < 10 { i as u64 + 100 } else { i as u64 };
        stm.atomically(|tx| {
            // 40 distinct reads; after each, re-read the first cell and
            // this one.
            for (i, c) in cells[..40].iter().enumerate() {
                let origin = if i < 10 {
                    ReadOrigin::Committed(Some(w.tid))
                } else {
                    ReadOrigin::Committed(None)
                };
                assert_eq!(tx.read_versioned(c)?, (committed(i), origin));
                assert_eq!(tx.read(&cells[0])?, committed(0));
                assert_eq!(tx.read(c)?, committed(i));
                assert_eq!(tx.footprint(), (i + 1, 0));
            }
            // 20 writes: cells 30..40 were read, 40..50 were not. Each
            // is written twice and read back after each write.
            for (k, c) in cells[30..50].iter().enumerate() {
                let i = 30 + k;
                tx.write(c, 1_000 + i as u64)?;
                assert_eq!(
                    tx.read_versioned(c)?,
                    (1_000 + i as u64, ReadOrigin::OwnWrite)
                );
                tx.write(c, 2_000 + i as u64)?;
                assert_eq!(tx.read(c)?, 2_000 + i as u64);
                // The first write, buffered before the index existed.
                assert_eq!(tx.read(&cells[30])?, 2_030);
                assert_eq!(tx.footprint(), (40, k + 1));
            }
            // Every set member is still found once both sets are indexed.
            for (i, c) in cells[..50].iter().enumerate() {
                let want = if i >= 30 {
                    2_000 + i as u64
                } else {
                    committed(i)
                };
                assert_eq!(tx.read(c)?, want);
            }
            assert_eq!(tx.footprint(), (40, 20));
            Ok(())
        });
        let finals: Vec<u64> = stm.atomically(|tx| cells.iter().map(|c| tx.read(c)).collect());
        for (i, v) in finals.into_iter().enumerate() {
            let want = match i {
                30..=49 => 2_000 + i as u64,
                _ => committed(i),
            };
            assert_eq!(v, want, "cell {i}");
        }
    }

    /// A re-read that finds a different version is a conflict, whether
    /// the read set is scanned or indexed; so is a first read whose
    /// newer snapshot no longer holds an earlier read.
    #[test]
    fn changed_reads_are_conflicts_on_both_sides_of_the_threshold() {
        let stm = Stm::new();
        let cells: Vec<TVar<u64>> = (0..12).map(|_| stm.new_tvar(0)).collect();
        for n in [1, LINEAR_MAX + 3] {
            let mut tx = Tx::new(&stm.inner);
            for c in &cells[..n] {
                tx.read(c).unwrap();
            }
            stm.atomically(|t| t.write(&cells[0], n as u64));
            assert_eq!(tx.read(&cells[0]), Err(TxError::Conflict), "n = {n}");
            assert_eq!(tx.read(&cells[n - 1]).is_ok(), n > 1, "n = {n}");
        }
        // cells[0] is stale in `tx`'s snapshot; cells[11] was written
        // after the snapshot was taken, so reading it must extend the
        // bound — and extending revalidates cells[0].
        let mut tx = Tx::new(&stm.inner);
        tx.read(&cells[0]).unwrap();
        stm.atomically(|t| {
            t.write(&cells[0], 50)?;
            t.write(&cells[11], 50)
        });
        assert_eq!(tx.read(&cells[11]), Err(TxError::Conflict));
    }

    /// The snapshot seed belongs to one instance: a fresh `Stm` starts
    /// from bound 0 even if it reuses a dropped instance's address, and
    /// a commit that touched no cell proves nothing.
    #[test]
    fn snapshot_seed_is_per_instance() {
        let stm = Stm::new();
        let a = stm.new_tvar(0u64);
        for i in 0..5 {
            stm.atomically(|tx| tx.write(&a, i));
        }
        assert_eq!(Tx::new(&stm.inner).rv, 5, "seeded from the last commit");
        drop(a);
        drop(stm);
        let fresh = Stm::new();
        assert_eq!(Tx::new(&fresh.inner).rv, 0, "a new instance starts at 0");
        fresh.atomically(|_| Ok(()));
        assert_eq!(Tx::new(&fresh.inner).rv, 0, "empty commit sets no bound");
        let b = fresh.new_tvar(1u64);
        fresh.atomically(|tx| tx.write(&b, 2));
        assert_eq!(Tx::new(&fresh.inner).rv, 2, "TIDs 0 and 1 are done");
        assert_eq!(fresh.atomically(|tx| tx.read(&b)), 2);
    }

    #[test]
    fn frontier_shows_gap_free_resolution() {
        let stm = Stm::with_config(StmConfig {
            shards: 3,
            ..StmConfig::default()
        });
        let a = stm.new_tvar(0u64);
        for i in 0..10 {
            stm.atomically(|tx| tx.write(&a, i));
        }
        let (issued, nstids) = stm.frontier();
        assert_eq!(issued, 10);
        assert_eq!(nstids, vec![10, 10, 10], "every TID resolved everywhere");
    }

    #[test]
    fn drops_do_not_leak_or_double_free() {
        // Exercised under the full test suite's allocator; the
        // structure here is the hazard: unpublished prepared nodes,
        // published chains, live TVar clones outliving the Stm handle.
        let stm = Stm::new();
        let a = stm.new_tvar(vec![1u8, 2, 3]);
        let a2 = a.clone();
        stm.atomically(|tx| tx.write(&a, vec![9]));
        drop(stm);
        drop(a);
        drop(a2);
    }

    #[test]
    #[should_panic(expected = "different Stm instance")]
    fn cross_instance_tvar_is_rejected() {
        let stm1 = Stm::new();
        let stm2 = Stm::new();
        let foreign = stm2.new_tvar(0u8);
        stm1.atomically(|tx| tx.read(&foreign));
    }

    /// Regression: a user closure that panics while the transaction
    /// holds a starvation-mode early TID must not strand it — a
    /// stranded TID freezes every shard's NSTID and deadlocks the whole
    /// instance for every other thread, forever.
    #[test]
    fn panic_in_starvation_mode_does_not_strand_the_early_tid() {
        let stm = Stm::with_config(StmConfig {
            starvation_threshold: 1,
            ..StmConfig::default()
        });
        let a = stm.new_tvar(0u64);
        let mut calls = 0u32;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.run(|tx| -> TxResult<()> {
                tx.read(&a)?;
                calls += 1;
                if calls == 1 {
                    // Fail the first attempt so the retry escalates to
                    // early-TID acquisition...
                    return Err(TxError::Conflict);
                }
                // ...and blow up while holding it.
                panic!("user closure panicked in starvation mode");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(calls, 2, "the panic fired on the escalated attempt");

        // The unwind resolved the early TID everywhere: later
        // transactions still commit and the frontier stays gap-free.
        let (_, receipt) = stm.run(|tx| {
            let v = tx.read(&a)?;
            tx.write(&a, v + 1)
        });
        assert!(!receipt.early);
        assert_eq!(stm.atomically(|tx| tx.read(&a)), 1);
        let (issued, nstids) = stm.frontier();
        assert_eq!(issued, 3, "panicked TID + two commits");
        assert!(
            nstids.iter().all(|&n| n == issued),
            "every TID resolved at every shard: {nstids:?}"
        );
    }

    /// A transaction run inside another one's closure, on the same
    /// thread, takes fresh buffers while the outer one holds the
    /// thread's slot; both see and commit the right values, against
    /// the same instance and against a different one.
    #[test]
    fn nested_transactions_keep_their_own_buffers() {
        let stm = Stm::new();
        let other = Stm::new();
        let a = stm.new_tvar(1u64);
        let b = stm.new_tvar(10u64);
        let c = other.new_tvar(100u64);
        for round in 0..3u64 {
            let (sum, receipt) = stm.run(|tx| {
                let va = tx.read(&a)?;
                tx.write(&a, va + 1)?;
                // Same instance, a cell the outer transaction never
                // touches, so the inner commit cannot conflict with it.
                let vb = stm.atomically(|inner| {
                    let vb = inner.read(&b)?;
                    inner.write(&b, vb + 1)?;
                    Ok(vb + 1)
                });
                let vc = other.atomically(|inner| {
                    let vc = inner.read(&c)?;
                    inner.write(&c, vc + 1)?;
                    Ok(vc + 1)
                });
                // The outer sets survived the inner transactions.
                assert_eq!(tx.read(&a)?, va + 1);
                assert_eq!(tx.footprint(), (1, 1));
                Ok(va + vb + vc)
            });
            assert_eq!(receipt.attempts, 1);
            assert_eq!(sum, (1 + round) + (11 + round) + (101 + round));
        }
        assert_eq!(stm.atomically(|tx| tx.read(&a)), 4);
        assert_eq!(stm.atomically(|tx| tx.read(&b)), 13);
        assert_eq!(other.atomically(|tx| tx.read(&c)), 103);
    }

    /// A closure that panics with buffered writes unwinds through
    /// `Tx::drop`, which frees the prepared nodes and returns the
    /// buffers cleared: the thread's next transactions reuse them and
    /// see none of the panicked attempt's state.
    #[test]
    fn panicking_closure_leaves_the_buffer_slot_sound() {
        let stm = Stm::new();
        let cells: Vec<TVar<u64>> = (0..12).map(|i| stm.new_tvar(i)).collect();
        for _ in 0..3 {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stm.atomically(|tx| -> TxResult<()> {
                    // Past the linear-scan threshold, so the index is
                    // populated too.
                    for c in &cells {
                        let v = tx.read(c)?;
                        tx.write(c, v + 1_000)?;
                    }
                    panic!("user closure panicked with buffered writes");
                })
            }));
            assert!(unwound.is_err());
            let ((v0, total), receipt) = stm.run(|tx| {
                assert_eq!(tx.footprint(), (0, 0), "a reused set starts empty");
                let v0 = tx.read(&cells[0])?;
                tx.write(&cells[0], v0 + 1)?;
                let total: u64 = cells.iter().map(|c| tx.read(c)).sum::<TxResult<u64>>()?;
                Ok((v0, total))
            });
            assert_eq!(receipt.attempts, 1);
            // Cell 0 starts at 0; the total sees this attempt's write.
            assert_eq!(total, (0..12).sum::<u64>() + v0 + 1);
        }
        assert_eq!(stm.atomically(|tx| tx.read(&cells[0])), 3);
    }

    #[test]
    fn two_thread_counter_smoke() {
        let stm = Stm::new();
        let c = stm.new_tvar(0u64);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let stm = stm.clone();
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        stm.atomically(|tx| {
                            let v = tx.read(&c)?;
                            tx.write(&c, v + 1)
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stm.atomically(|tx| tx.read(&c)), 200);
        assert!(stm.stats().commits >= 200);
    }
}
