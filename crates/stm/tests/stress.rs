//! Multithreaded stress: atomicity invariants under sustained
//! contention, opacity for concurrent snapshot readers, livelock
//! freedom (every started transaction eventually commits — the tests
//! terminating *is* the assertion), and end-state gap-freedom of the
//! TID space.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tcc_stm::{Stm, StmConfig, TVar};

/// Cells a writer publishes between the two halves of a commit the
/// opacity tests watch.
const FILLERS: usize = 32;

fn spawn_all<F: FnOnce() + Send + 'static>(fs: Vec<F>) {
    let handles: Vec<_> = fs.into_iter().map(std::thread::spawn).collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }
}

/// Classic lost-update hunt: N threads × M read-modify-write increments
/// on one cell must sum exactly.
#[test]
fn concurrent_counter_is_exact() {
    let stm = Stm::new();
    let counter = stm.new_tvar(0u64);
    let threads = 4;
    let per_thread = 300u64;
    spawn_all(
        (0..threads)
            .map(|_| {
                let stm = stm.clone();
                let counter = counter.clone();
                move || {
                    for _ in 0..per_thread {
                        stm.atomically(|tx| {
                            let v = tx.read(&counter)?;
                            tx.write(&counter, v + 1)
                        });
                    }
                }
            })
            .collect(),
    );
    assert_eq!(
        stm.atomically(|tx| tx.read(&counter)),
        threads as u64 * per_thread
    );
    let stats = stm.stats();
    assert_eq!(stats.commits, threads as u64 * per_thread + 1);
}

/// Bank invariant under transfers plus concurrent full-snapshot
/// readers: the readers exercise opacity — a transaction must never
/// observe a torn (mid-transfer) state, even on attempts that would
/// later abort. The sum is checked *inside* the closure, on every
/// attempt; torn sums are counted there and asserted zero after the
/// join. Read stalls are off, so the mark hint cannot mask a torn read,
/// and each transfer also writes a run of private filler cells between
/// its two accounts, so a half-published transfer stays visible long
/// enough for a broken read rule to be caught.
#[test]
fn transfers_preserve_the_total_and_snapshots_are_opaque() {
    let stm = Stm::with_config(StmConfig {
        shards: 4,
        vendor_slots: 4,
        read_stall_spins: 0,
        ..StmConfig::default()
    });
    let n_accounts = 8usize;
    let initial = 1_000u64;
    let accounts: Vec<TVar<u64>> = (0..n_accounts).map(|_| stm.new_tvar(initial)).collect();
    let total = initial * n_accounts as u64;
    let torn = Arc::new(AtomicU64::new(0));
    let transfers_left = Arc::new(AtomicU64::new(2));

    let mut workers: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    // Two transfer threads with different (deterministic) walk patterns.
    for t in 0..2u64 {
        let stm = stm.clone();
        let accounts = accounts.clone();
        let fillers: Vec<TVar<u64>> = (0..FILLERS).map(|_| stm.new_tvar(0u64)).collect();
        let transfers_left = Arc::clone(&transfers_left);
        workers.push(Box::new(move || {
            for i in 0..5_000u64 {
                let from = ((i * 7 + t * 3) % n_accounts as u64) as usize;
                let to = ((i * 5 + t + 1) % n_accounts as u64) as usize;
                if from == to {
                    continue;
                }
                stm.atomically(|tx| {
                    let a = tx.read(&accounts[from])?;
                    let b = tx.read(&accounts[to])?;
                    let amount = (a / 2).min(i % 97);
                    tx.write(&accounts[from], a - amount)?;
                    for f in &fillers {
                        tx.write(f, i)?;
                    }
                    tx.write(&accounts[to], b + amount)
                });
            }
            transfers_left.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    // Two snapshot readers checking the invariant inside the
    // transaction body while the transfers run (bounded either way; a
    // torn read ends the hunt early).
    for _ in 0..2 {
        let stm = stm.clone();
        let accounts = accounts.clone();
        let torn = Arc::clone(&torn);
        let transfers_left = Arc::clone(&transfers_left);
        workers.push(Box::new(move || {
            for _ in 0..100_000 {
                if transfers_left.load(Ordering::SeqCst) == 0 || torn.load(Ordering::Relaxed) > 0 {
                    break;
                }
                let sum = stm.atomically(|tx| {
                    let mut sum = 0u64;
                    for acct in &accounts {
                        sum += tx.read(acct)?;
                    }
                    if sum != total {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(sum)
                });
                assert_eq!(sum, total, "torn snapshot committed");
            }
        }));
    }
    spawn_all(workers);

    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "transaction bodies observed torn snapshots"
    );
    let final_sum = stm.atomically(|tx| {
        let mut sum = 0u64;
        for acct in &accounts {
            sum += tx.read(acct)?;
        }
        Ok(sum)
    });
    assert_eq!(final_sum, total);
}

/// The smallest opacity witness: one writer keeps two cells equal
/// (`a = b = a + 1` in one transaction, with filler writes between
/// them so their publications land well apart), and a reader that
/// loads `a` then `b` must never see them differ inside its closure —
/// not even on an attempt that later aborts.
#[test]
fn two_cell_reader_never_sees_half_a_commit() {
    let stm = Stm::with_config(StmConfig {
        read_stall_spins: 0,
        ..StmConfig::default()
    });
    let a = stm.new_tvar(0u64);
    let b = stm.new_tvar(0u64);
    let fillers: Vec<TVar<u64>> = (0..FILLERS).map(|_| stm.new_tvar(0u64)).collect();
    let done = Arc::new(AtomicBool::new(false));
    let torn = Arc::new(AtomicU64::new(0));

    let writer = {
        let (stm, a, b, done) = (stm.clone(), a.clone(), b.clone(), Arc::clone(&done));
        move || {
            while !done.load(Ordering::SeqCst) {
                stm.atomically(|tx| {
                    let x = tx.read(&a)?;
                    tx.write(&a, x + 1)?;
                    for f in &fillers {
                        tx.write(f, x)?;
                    }
                    tx.write(&b, x + 1)
                });
            }
        }
    };
    let reader = {
        let (stm, torn) = (stm.clone(), Arc::clone(&torn));
        move || {
            for _ in 0..200_000 {
                if torn.load(Ordering::Relaxed) > 0 {
                    break;
                }
                stm.atomically(|tx| {
                    let va = tx.read(&a)?;
                    let vb = tx.read(&b)?;
                    if va != vb {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(())
                });
            }
            done.store(true, Ordering::SeqCst);
        }
    };
    let writer: Box<dyn FnOnce() + Send> = Box::new(writer);
    spawn_all(vec![writer, Box::new(reader)]);
    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "a reader saw one cell of a commit without the other"
    );
}

/// Worst-case starvation pressure: one shard, tiny vendor, immediate
/// escalation, every transaction touching the same cell. Termination
/// proves livelock freedom; the stats prove the starvation machinery
/// (not luck) is what delivered it.
#[test]
fn high_contention_single_shard_never_livelocks() {
    let stm = Stm::with_config(StmConfig {
        shards: 1,
        vendor_slots: 1,
        starvation_threshold: 1,
        ..StmConfig::default()
    });
    let hot = stm.new_tvar(0u64);
    let threads = 4;
    let per_thread = 150u64;
    spawn_all(
        (0..threads)
            .map(|_| {
                let stm = stm.clone();
                let hot = hot.clone();
                move || {
                    for _ in 0..per_thread {
                        let (_, receipt) = stm.run(|tx| {
                            let v = tx.read(&hot)?;
                            tx.write(&hot, v + 1)
                        });
                        // Bounded retries: early-TID mode guarantees
                        // commit within two executions of escalating.
                        assert!(
                            receipt.attempts <= 64,
                            "transaction needed {} attempts",
                            receipt.attempts
                        );
                    }
                }
            })
            .collect(),
    );
    assert_eq!(
        stm.atomically(|tx| tx.read(&hot)),
        threads as u64 * per_thread
    );
}

/// After any amount of churn, one final commit must leave the TID space
/// gap-free: every TID the vendor ever issued has been resolved at
/// every shard (NSTID == issued everywhere), i.e. no abort, handoff,
/// claim, or slot-exhaustion path ever lost a TID.
#[test]
fn tid_space_is_gap_free_after_stress() {
    let stm = Stm::with_config(StmConfig {
        shards: 8,
        vendor_slots: 2,
        starvation_threshold: 2,
        ..StmConfig::default()
    });
    let cells: Vec<TVar<u64>> = (0..16).map(|_| stm.new_tvar(0u64)).collect();
    spawn_all(
        (0..4u64)
            .map(|t| {
                let stm = stm.clone();
                let cells = cells.clone();
                move || {
                    for i in 0..250u64 {
                        let a = ((i + t) % 16) as usize;
                        let b = ((i * 3 + t * 5) % 16) as usize;
                        stm.atomically(|tx| {
                            let va = tx.read(&cells[a])?;
                            tx.write(&cells[b], va + 1)
                        });
                    }
                }
            })
            .collect(),
    );
    // A final transaction flushes any TID still parked in a handoff
    // slot (its commit claims and skips parked TIDs it stalls behind).
    stm.atomically(|tx| {
        let v = tx.read(&cells[0])?;
        tx.write(&cells[0], v)
    });
    let (issued, nstids) = stm.frontier();
    for (shard, nstid) in nstids.iter().enumerate() {
        assert_eq!(
            *nstid, issued,
            "shard {shard}: NSTID {nstid} != issued {issued} — a TID was lost"
        );
    }
    // Every issued TID is resolved at all shards exactly once: by its
    // committing owner, by a helper that claimed it out of a handoff
    // slot, or by its aborting owner when the slot was full. (Recycled
    // TIDs are re-vended, not resolved, so they don't appear here.)
    let stats = stm.stats();
    assert_eq!(
        stats.commits + stats.claimed_tids + stats.slot_exhausted,
        issued,
        "TID resolution accounting is off: {stats:?}"
    );
}
