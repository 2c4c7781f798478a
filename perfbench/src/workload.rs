//! The four named workloads and the inputs they generate from a seed.
//!
//! Every workload is one set of transactions run on both engines of the
//! repository: the simulated Scalable TCC machine (`tcc-core`) and the
//! real-thread STM (`tcc-stm`). The name says where the transactions
//! come from and which engine the workload is chosen to stress; the
//! other engine runs the same transactions translated, so every
//! workload reports every metric. The benchmark never sets the
//! `parallel` engine knob: the simulator runs in whatever engine it
//! selects by default.

use std::collections::{HashMap, HashSet};

use tcc_core::{
    SystemConfig, ThreadProgram, Transaction, TransportConfig, TxOp, WatchdogConfig, WorkItem,
};
use tcc_network::{ChaosConfig, DropRule};
use tcc_types::Addr;
use tcc_workloads::stm::{StmOp, StmProfile, StmTx};
use tcc_workloads::{apps, Scale};

/// STM clients in every closed loop (the bench host has two CPUs).
pub const CLIENTS: usize = 2;

/// Transactions per client in one STM round of an `stm-*` workload.
const STM_TXS_PER_CLIENT: usize = 50_000;

/// Transactions per client the simulator runs for an `stm-*` workload:
/// a prefix of the STM scripts, long enough that the simulated
/// makespan varies little from seed to seed.
const SIM_TXS_PER_CLIENT: usize = 20_000;

/// First byte address of the simulated cells an `stm-*` script touches;
/// each cell gets its own 32-byte line, as each `TVar` is its own
/// conflict unit.
const CELL_BASE: u64 = 1 << 16;
const CELL_STRIDE: u64 = 32;

/// Frame-drop probability of the `sim-lossy16` wire.
const LOSS: f64 = 0.02;

#[derive(Debug, Clone)]
pub enum Kind {
    /// radix at `cpus` processors, full scale; `lossy` adds the reliable
    /// transport over a seeded drop-only wire.
    Sim { cpus: usize, lossy: bool },
    /// A `tcc-workloads` STM profile for [`CLIENTS`] threads.
    Stm(StmProfile),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Every workload, in the order `--workload all` runs them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "sim-radix64",
            kind: Kind::Sim {
                cpus: 64,
                lossy: false,
            },
        },
        Workload {
            name: "sim-lossy16",
            kind: Kind::Sim {
                cpus: 16,
                lossy: true,
            },
        },
        Workload {
            name: "stm-disjoint",
            kind: Kind::Stm(StmProfile::disjoint(64)),
        },
        Workload {
            name: "stm-zipf",
            kind: Kind::Stm(StmProfile::zipfian(256, 0.9)),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// What the simulator runs: the machine and one program per processor.
#[derive(Clone)]
pub struct SimInput {
    pub cfg: SystemConfig,
    pub programs: Vec<ThreadProgram>,
    /// Scripted transactions; every run must commit exactly this many.
    pub transactions: u64,
}

/// What the STM runs: one script per client over `cells` cells. Every
/// `Write` is a read-modify-write increment.
pub struct StmInput {
    pub scripts: Vec<Vec<StmTx>>,
    pub cells: usize,
    /// `Write` operations across all scripts: the final cell sum of a
    /// correct round.
    pub writes: u64,
    pub transactions: u64,
}

pub struct Inputs {
    pub sim: SimInput,
    pub stm: StmInput,
}

impl Workload {
    /// Generates both engines' inputs from `seed`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        match &self.kind {
            Kind::Sim { cpus, lossy } => {
                let programs = apps::radix().generate_scaled(*cpus, seed, Scale::Full);
                let stm = stm_input(programs_to_scripts(&programs), None);
                let mut cfg = SystemConfig::with_procs(*cpus);
                if *lossy {
                    cfg.transport = Some(TransportConfig::default());
                    cfg.watchdog = Some(WatchdogConfig::default());
                    cfg.chaos = Some(ChaosConfig {
                        seed,
                        drops: vec![DropRule {
                            kind: "*".to_string(),
                            prob: LOSS,
                            from: 0,
                            until: u64::MAX,
                        }],
                        ..ChaosConfig::default()
                    });
                }
                Inputs {
                    sim: sim_input(cfg, programs),
                    stm,
                }
            }
            Kind::Stm(profile) => {
                let scripts = profile.generate(CLIENTS, STM_TXS_PER_CLIENT, seed);
                let programs = scripts_to_programs(&scripts, SIM_TXS_PER_CLIENT);
                Inputs {
                    sim: sim_input(SystemConfig::with_procs(CLIENTS), programs),
                    stm: stm_input(scripts, Some(profile.cells_for(CLIENTS))),
                }
            }
        }
    }
}

fn sim_input(cfg: SystemConfig, programs: Vec<ThreadProgram>) -> SimInput {
    let transactions = programs.iter().map(|p| p.transactions() as u64).sum();
    SimInput {
        cfg,
        programs,
        transactions,
    }
}

fn stm_input(scripts: Vec<Vec<StmTx>>, cells: Option<usize>) -> StmInput {
    let ops = || scripts.iter().flatten().flat_map(|tx| &tx.ops);
    let cells = cells.unwrap_or_else(|| {
        ops()
            .map(|&(StmOp::Read(c) | StmOp::Write(c))| c + 1)
            .max()
            .unwrap_or(0)
    });
    let writes = ops().filter(|op| matches!(op, StmOp::Write(_))).count() as u64;
    let transactions = scripts.iter().map(|s| s.len() as u64).sum();
    StmInput {
        scripts,
        cells,
        writes,
        transactions,
    }
}

/// Translates simulator programs into [`CLIENTS`] STM scripts. Client
/// `k` takes the programs `k, k + CLIENTS, ...` and runs their
/// transactions phase by phase (the i-th transaction of each in turn).
/// Every distinct cache line becomes a cell, the simulator's unit of
/// coherence; the first load of a cell in a transaction reads it, every
/// store increments it; compute is dropped.
fn programs_to_scripts(programs: &[ThreadProgram]) -> Vec<Vec<StmTx>> {
    let mut cell_of: HashMap<u64, usize> = HashMap::new();
    let mut cell = |a: Addr| {
        let next = cell_of.len();
        *cell_of.entry(a.0 / CELL_STRIDE).or_insert(next)
    };
    let txs_of = |p: &ThreadProgram| -> Vec<Transaction> {
        p.items
            .iter()
            .filter_map(|i| match i {
                WorkItem::Tx(t) => Some(t.clone()),
                WorkItem::Barrier => None,
            })
            .collect()
    };
    (0..CLIENTS)
        .map(|k| {
            let mine: Vec<Vec<Transaction>> = programs
                .iter()
                .skip(k)
                .step_by(CLIENTS)
                .map(txs_of)
                .collect();
            let depth = mine.iter().map(Vec::len).max().unwrap_or(0);
            let mut script = Vec::new();
            for i in 0..depth {
                for tx in mine.iter().filter_map(|txs| txs.get(i)) {
                    let mut seen = HashSet::new();
                    let ops = tx
                        .ops
                        .iter()
                        .filter_map(|op| match *op {
                            // A cell already in the transaction's footprint
                            // reads the same value again; only its first
                            // access is kept.
                            TxOp::Load(a) => {
                                let c = cell(a);
                                seen.insert(c).then_some(StmOp::Read(c))
                            }
                            TxOp::Store(a) => {
                                let c = cell(a);
                                seen.insert(c);
                                Some(StmOp::Write(c))
                            }
                            TxOp::Compute(_) => None,
                        })
                        .collect();
                    script.push(StmTx { ops });
                }
            }
            script
        })
        .collect()
}

/// Translates the first `per_client` transactions of each STM script
/// into one simulator program per client: a read loads the cell's word,
/// a write stores it.
fn scripts_to_programs(scripts: &[Vec<StmTx>], per_client: usize) -> Vec<ThreadProgram> {
    let addr = |c: usize| Addr(CELL_BASE + c as u64 * CELL_STRIDE);
    scripts
        .iter()
        .map(|script| {
            ThreadProgram::new(
                script
                    .iter()
                    .take(per_client)
                    .map(|tx| {
                        WorkItem::Tx(Transaction::new(
                            tx.ops
                                .iter()
                                .map(|op| match *op {
                                    StmOp::Read(c) => TxOp::Load(addr(c)),
                                    StmOp::Write(c) => TxOp::Store(addr(c)),
                                })
                                .collect(),
                        ))
                    })
                    .collect(),
            )
        })
        .collect()
}
