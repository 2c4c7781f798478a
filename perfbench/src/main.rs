//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or all four) on the simulated Scalable TCC
//! machine and the real-thread STM, checks every output, prints every
//! metric by name and unit, and ends with one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md`.

mod alloc;
mod report;
mod simside;
mod stats;
mod stmside;
mod workload;

use std::time::{Duration, Instant};

use report::{json_str, Metrics};
use stats::median;
use workload::{Kind, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed the repository's committed `BENCH_*.json` cells use.
const HARNESS_SEED: u64 = 0x7cc_5eed;

/// A seed kept out of all tuning, for re-checking a claim on inputs it
/// was not fitted to.
const HELD_OUT_SEED: u64 = 4_242_424_243;

/// Set-ups per run; `setup_s` reports the median.
const GEN_REPS: usize = 5;

/// Fewest simulator runs and STM rounds per run, whatever `--seconds`.
const MIN_STEPS: u64 = 3;

/// End-to-end metrics, as named in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_cycles", "cycles"),
    ("sim_kips", "kinstr/s"),
    ("allocs_per_tx", "count"),
    ("peak_rss_mb", "MB"),
    ("stm_tx_per_s", "1/s"),
    ("stm_p50_us", "us"),
    ("stm_p99_us", "us"),
    ("stm_over_mutex", "ratio"),
];

/// Per-layer metrics, as named in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("core.build_s", "s"),
    ("stm.build_s", "s"),
    ("core.run_s", "s"),
    ("core.events", "count"),
    ("core.ns_per_event", "ns"),
    ("core.commit_ratio", "ratio"),
    ("core.overflows", "count"),
    ("core.breakdown.useful", "share"),
    ("core.breakdown.cache_miss", "share"),
    ("core.breakdown.commit", "share"),
    ("core.breakdown.violation", "share"),
    ("core.breakdown.idle", "share"),
    ("commit.latency.p50", "cycles"),
    ("commit.latency.p98", "cycles"),
    ("commit.tid_wait.p98", "cycles"),
    ("commit.probe_wait.p98", "cycles"),
    ("engine.queue_ns_per_event", "ns"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.bytes_per_instr", "bytes/instr"),
    ("net.mesh_ns_per_msg", "ns"),
    ("transport.retransmits", "count"),
    ("transport.dup_drops", "count"),
    ("transport.timeout_fires", "count"),
    ("transport.acks", "count"),
    ("transport.useful_retx_ratio", "ratio"),
    ("dir.nstid_advances", "count"),
    ("dir.probes_deferred", "count"),
    ("dir.loads_stalled", "count"),
    ("dir.skip_refusals", "count"),
    ("dir.occupancy.p50", "cycles"),
    ("dir.occupancy.p99", "cycles"),
    ("dir.probe_defer.p99", "cycles"),
    ("dir.inv_ack_window.p99", "cycles"),
    ("dir.load_stall.p99", "cycles"),
    ("cache.miss_stall.p50", "cycles"),
    ("cache.miss_stall.p99", "cycles"),
    ("trace.overhead_ratio", "ratio"),
    ("stm.attempts_per_commit", "ratio"),
    ("stm.conflicts_per_commit", "ratio"),
    ("stm.early_commits", "share"),
    ("stm.issued_tids_per_commit", "ratio"),
    ("stm.mutex_tx_per_s", "1/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: HARNESS_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Everything one workload measured and checked.
struct Outcome {
    end_to_end: Metrics,
    per_layer: Metrics,
    attempted: u64,
    failed: u64,
    why: Vec<String>,
}

/// Starts a new peak-memory window: Linux resets `VmHWM` to the current
/// resident size.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last [`reset_peak_rss`] (Linux
/// `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let mut gen_s = Vec::new();
    let mut inputs = None;
    for _ in 0..GEN_REPS {
        let t0 = Instant::now();
        inputs = Some(w.inputs(seed));
        gen_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    // The engines take turns, each step going to the one that has had
    // less time so far, so both sample the whole run and host drift
    // over it affects them alike.
    let mut sim = simside::SimTimed::default();
    let mut stm = stmside::StmTimed::default();
    let (mut sim_s, mut stm_s) = (0.0, 0.0);
    let (mut sim_rss, mut stm_rss) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while sim.attempted < MIN_STEPS || stm.attempted < MIN_STEPS || start.elapsed() < budget {
        reset_peak_rss();
        let t0 = Instant::now();
        if sim_s <= stm_s {
            sim.step(&inputs.sim);
            sim_s += t0.elapsed().as_secs_f64();
            sim_rss.push(peak_rss_mb());
        } else {
            stm.step(&inputs.stm, stmside::Increment::Transactional);
            stm_s += t0.elapsed().as_secs_f64();
            stm_rss.push(peak_rss_mb());
        }
    }
    // The peak of one step of the heavier engine. Freed memory the
    // allocator keeps resident ratchets up over the run's repeated steps,
    // which a single run never sees, so the least step peak is kept.
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let peak_rss = least(&sim_rss).max(least(&stm_rss));
    let traced = simside::traced(&inputs.sim);

    let (sim_attempted, sim_failed, mut why) = simside::gate(&inputs.sim, &sim, &traced);
    why.extend(stm.why.iter().cloned());
    let attempted = sim_attempted + stm.attempted;
    let failed = sim_failed + stm.failed;

    let mut per_layer = Metrics::default();
    per_layer.push_counted("workloads.gen_s", median(&gen_s), "s", gen_s.len());
    simside::layers(&mut per_layer, &inputs.sim, &sim, &traced);
    stmside::layers(&mut per_layer, &stm);

    let mut e = Metrics::default();
    let setup = median(&gen_s) + median(&sim.build_s) + median(&stm.build_s);
    e.push("setup_s", setup, "s");
    e.push("sim_cycles", sim.total_cycles as f64, "cycles");
    e.push_counted("sim_kips", median(&sim.kips), "kinstr/s", sim.kips.len());
    let allocs = match w.kind {
        Kind::Sim { .. } => &sim.allocs_per_tx,
        Kind::Stm(_) => &stm.allocs_per_tx,
    };
    e.push_counted("allocs_per_tx", median(allocs), "count", allocs.len());
    e.push("peak_rss_mb", peak_rss, "MB");
    e.push_counted(
        "stm_tx_per_s",
        median(&stm.tx_per_s),
        "1/s",
        stm.tx_per_s.len(),
    );
    for (name, blocks) in [("stm_p50_us", &stm.p50_ns), ("stm_p99_us", &stm.p99_ns)] {
        let note = format!("(median of {} blocks, n={})", blocks.len(), stm.samples);
        e.push_noted(name, median(blocks) / 1e3, "us", note);
    }
    e.push_counted(
        "stm_over_mutex",
        median(&stm.over_mutex),
        "ratio",
        stm.over_mutex.len(),
    );
    e.push("fail_ratio", failed as f64 / attempted as f64, "ratio");
    Outcome {
        end_to_end: e,
        per_layer,
        attempted,
        failed,
        why,
    }
}

/// The commit of the checkout, read from `.git` in the working
/// directory; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args =
        match parse_args() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("perfbench: {e}");
                eprintln!(
                "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
                workload::all().iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
                std::process::exit(2);
            }
        };
    let workloads = if args.workload == "all" {
        workload::all()
    } else if let Some(w) = workload::by_name(&args.workload) {
        vec![w]
    } else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let command: Vec<String> = std::env::args().collect();
    println!(
        "{{\"provenance\": {{\"host_cpus\": {host_cpus}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"command\": {}, \"git_commit\": {}}}}}",
        args.seed,
        json_str(&command.join(" ")),
        json_str(&git_commit()),
    );

    let (mut attempted, mut failed, mut members) = (0, 0, Vec::new());
    for w in &workloads {
        let o = run(w, args.seed, args.seconds);
        println!("\n{} (seed {}, {} s)", w.name, args.seed, args.seconds);
        println!(" end-to-end:\n{}", o.end_to_end.text());
        println!(" per-layer:\n{}", o.per_layer.text());
        for why in &o.why {
            println!(" FAILED: {why}");
        }
        let prefix = if workloads.len() > 1 {
            format!("{}/", w.name)
        } else {
            String::new()
        };
        members.extend(if args.trace {
            o.per_layer.json_members(PER_LAYER, &prefix)
        } else {
            o.end_to_end.json_members(END_TO_END, &prefix)
        });
        attempted += o.attempted;
        failed += o.failed;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        members.join(", ")
    );
}

#[cfg(test)]
mod tests;
