//! The STM side of a workload: a closed loop of [`CLIENTS`] threads,
//! each issuing its next transaction when the previous one commits,
//! followed in every round by a coarse `Mutex` running the identical
//! scripts.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use tcc_stm::{Stm, TVar};
use tcc_workloads::stm::{StmOp, StmTx};

use crate::alloc::thread_allocs;
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::workload::{StmInput, CLIENTS};

/// How a script's `Write` increments its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Increment {
    /// Read and write inside the script's transaction.
    Transactional,
    /// Read in one transaction and write in a second: the deliberately
    /// broken increment the gate must catch as lost updates.
    Split,
}

/// Fewest latency samples in a block: enough for ten to lie beyond p99.
const BLOCK_MIN: usize = 1000;

/// Totals and per-round samples of one STM measurement.
#[derive(Default)]
pub struct StmTimed {
    pub build_s: Vec<f64>,
    pub tx_per_s: Vec<f64>,
    pub mutex_tx_per_s: Vec<f64>,
    pub over_mutex: Vec<f64>,
    pub allocs_per_tx: Vec<f64>,
    /// Exact p50 and p99 latency (ns) of each block: the transactions of
    /// consecutive rounds, at least [`BLOCK_MIN`] of them. A median over
    /// blocks keeps one preempted stretch of the run from setting the
    /// tail.
    pub p50_ns: Vec<f64>,
    pub p99_ns: Vec<f64>,
    pub samples: u64,
    /// The current block's latencies, one list per client.
    block: Vec<Vec<u64>>,
    pub commits: u64,
    pub attempts: u64,
    pub early: u64,
    pub conflicts: u64,
    pub issued_tids: u64,
    pub attempted: u64,
    pub failed: u64,
    pub why: Vec<String>,
}

impl StmTimed {
    /// One round: a fresh [`Stm`] and its cells, the scripts run to
    /// completion and checked, then the mutex baseline on the same
    /// scripts.
    pub fn step(&mut self, input: &StmInput, inc: Increment) {
        let t0 = Instant::now();
        let stm = Stm::new();
        let cells: Vec<TVar<u64>> = (0..input.cells).map(|_| stm.new_tvar(0u64)).collect();
        self.build_s.push(t0.elapsed().as_secs_f64());

        self.block.resize_with(CLIENTS, Vec::new);
        for (lat, script) in self.block.iter_mut().zip(&input.scripts) {
            // Reserved here, so the clients never allocate for it.
            lat.reserve(script.len());
        }
        let t1 = Instant::now();
        let tallies = clients(&input.scripts, &mut self.block, |script, lat| {
            run_client(&stm, &cells, script, lat, inc)
        });
        let stm_tput = input.transactions as f64 / t1.elapsed().as_secs_f64();

        // Read before the check, whose own transactions would count.
        let stats = stm.stats();
        self.attempted += 1;
        if let Some(why) = check(&stm, &cells, input) {
            self.failed += 1;
            self.why.push(why);
        }
        self.conflicts += stats.conflicts;
        self.issued_tids += stats.issued_tids;
        self.commits += input.transactions;
        self.attempts += tallies.iter().map(|c| c.attempts).sum::<u64>();
        self.early += tallies.iter().map(|c| c.early).sum::<u64>();
        let allocs: u64 = tallies.iter().map(|c| c.allocs).sum();
        self.allocs_per_tx
            .push(allocs as f64 / input.transactions as f64);
        self.tx_per_s.push(stm_tput);
        self.close_block();

        let (mutex_wall, mutex_sum) = run_mutex(input);
        if mutex_sum != input.writes {
            self.failed += 1;
            self.why.push(format!(
                "mutex baseline sum {mutex_sum} != {} writes",
                input.writes
            ));
        }
        let mutex_tput = input.transactions as f64 / mutex_wall;
        self.mutex_tx_per_s.push(mutex_tput);
        self.over_mutex.push(stm_tput / mutex_tput);
    }

    /// Ends the current block once it holds [`BLOCK_MIN`] samples.
    fn close_block(&mut self) {
        if self.block.iter().map(Vec::len).sum::<usize>() < BLOCK_MIN {
            return;
        }
        let mut all: Vec<u64> = self.block.iter_mut().flat_map(|l| l.drain(..)).collect();
        self.samples += all.len() as u64;
        let mut pct = |p| {
            percentile(&mut all, p)
                .value
                .expect("a block has ten samples beyond p99")
        };
        self.p50_ns.push(pct(50.0));
        self.p99_ns.push(pct(99.0));
    }
}

/// The two correctness conditions of a finished round: the cell sum
/// equals the committed writes, and at quiescence every shard's NSTID
/// has reached the number of issued TIDs (no TID was lost).
fn check(stm: &Stm, cells: &[TVar<u64>], input: &StmInput) -> Option<String> {
    let (issued, nstids) = stm.frontier();
    if let Some(n) = nstids.iter().find(|&&n| n != issued) {
        return Some(format!("a shard's NSTID is {n} with {issued} TIDs issued"));
    }
    // The clients have joined, so nothing changes between chunks; small
    // chunks keep each read-only transaction's validation cheap.
    let sum: u64 = cells
        .chunks(64)
        .map(|chunk| {
            stm.atomically(|tx| {
                let mut sum = 0u64;
                for c in chunk {
                    sum += tx.read(c)?;
                }
                Ok(sum)
            })
        })
        .sum();
    (sum != input.writes).then(|| format!("cell sum {sum} != {} committed writes", input.writes))
}

struct Tally {
    attempts: u64,
    early: u64,
    allocs: u64,
}

/// Runs `client` on one scoped thread per script, each with its own
/// slot of `state`, and joins them all.
fn clients<S: Send, R: Send>(
    scripts: &[Vec<StmTx>],
    state: &mut [S],
    client: impl Fn(&[StmTx], &mut S) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|s| {
        let client = &client;
        let handles: Vec<_> = scripts
            .iter()
            .zip(state.iter_mut())
            .map(|(script, st)| s.spawn(move || client(script, st)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    })
}

fn run_client(
    stm: &Stm,
    cells: &[TVar<u64>],
    script: &[StmTx],
    latency_ns: &mut Vec<u64>,
    inc: Increment,
) -> Tally {
    let a0 = thread_allocs();
    let mut tally = Tally {
        attempts: 0,
        early: 0,
        allocs: 0,
    };
    for tx_script in script {
        let t0 = Instant::now();
        let (sum, receipt) = stm.run(|tx| {
            let mut sum = 0u64;
            for op in &tx_script.ops {
                match *op {
                    StmOp::Read(c) => sum = sum.wrapping_add(tx.read(&cells[c])?),
                    StmOp::Write(c) if inc == Increment::Transactional => {
                        let v = tx.read(&cells[c])?;
                        tx.write(&cells[c], v + 1)?;
                    }
                    StmOp::Write(_) => {}
                }
            }
            Ok(sum)
        });
        if inc == Increment::Split {
            for op in &tx_script.ops {
                if let StmOp::Write(c) = *op {
                    let v = stm.atomically(|tx| tx.read(&cells[c]));
                    std::thread::yield_now();
                    stm.atomically(|tx| tx.write(&cells[c], v + 1));
                }
            }
        }
        latency_ns.push(t0.elapsed().as_nanos() as u64);
        black_box(sum);
        tally.attempts += u64::from(receipt.attempts);
        tally.early += u64::from(receipt.early);
    }
    tally.allocs = thread_allocs() - a0;
    tally
}

/// The baseline: identical scripts and arithmetic with every transaction
/// one critical section of a single global lock. Returns the wall time
/// and the final cell sum.
fn run_mutex(input: &StmInput) -> (f64, u64) {
    let cells = Mutex::new(vec![0u64; input.cells]);
    let t0 = Instant::now();
    clients(&input.scripts, &mut [(); CLIENTS], |script, ()| {
        for tx_script in script {
            let t0 = Instant::now();
            let mut cells = cells.lock().expect("no client panics holding the lock");
            let mut sum = 0u64;
            for op in &tx_script.ops {
                match *op {
                    StmOp::Read(c) => sum = sum.wrapping_add(cells[c]),
                    StmOp::Write(c) => cells[c] += 1,
                }
            }
            drop(cells);
            // Timed like the STM clients, so both pay the same clock reads.
            black_box(t0.elapsed());
            black_box(sum);
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let sum = cells
        .into_inner()
        .expect("no client panics holding the lock")
        .iter()
        .sum();
    (wall, sum)
}

/// The per-layer numbers of `tcc-stm`.
pub fn layers(m: &mut Metrics, t: &StmTimed) {
    let commits = t.commits.max(1) as f64;
    m.push("stm.build_s", median(&t.build_s), "s");
    m.push(
        "stm.attempts_per_commit",
        t.attempts as f64 / commits,
        "ratio",
    );
    m.push(
        "stm.conflicts_per_commit",
        t.conflicts as f64 / commits,
        "ratio",
    );
    m.push("stm.early_commits", t.early as f64 / commits, "share");
    m.push(
        "stm.issued_tids_per_commit",
        t.issued_tids as f64 / commits,
        "ratio",
    );
    m.push_counted(
        "stm.mutex_tx_per_s",
        median(&t.mutex_tx_per_s),
        "1/s",
        t.mutex_tx_per_s.len(),
    );
}
