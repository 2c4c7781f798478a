//! The simulator side of a workload: timed batch runs with tracing off,
//! one traced and checked run, and the per-layer numbers drawn from it.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tcc_core::{SimResult, Simulator, SystemConfig};
use tcc_engine::EventQueue;
use tcc_network::Mesh2D;
use tcc_trace::{TraceConfig, TraceEvent, TraceRecord};
use tcc_types::{Cycle, NodeId};

use crate::alloc::thread_allocs;
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::workload::SimInput;

/// Event-ring capacity of the traced run: large enough to hold every
/// event of the largest workload, so no latency sample is lost.
const RING_CAPACITY: usize = 1 << 24;

/// Repetitions of each replay micro-measurement (median reported).
const REPLAY_REPS: usize = 5;

/// Timed runs of one simulator input with tracing off.
#[derive(Default)]
pub struct SimTimed {
    pub build_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub kips: Vec<f64>,
    pub allocs_per_tx: Vec<f64>,
    /// Fingerprints of the runs that completed with every scripted
    /// transaction committed; the gate compares them with the traced run.
    pub fingerprints: Vec<String>,
    pub attempted: u64,
    /// Runs that returned an error, panicked, or committed a different
    /// number of transactions than scripted.
    pub failed: u64,
    pub total_cycles: u64,
}

impl SimTimed {
    /// One timed run of `input` on a freshly built simulator (caches
    /// start cold).
    pub fn step(&mut self, input: &SimInput) {
        let programs = input.programs.clone();
        let t0 = Instant::now();
        let sim = Simulator::builder(input.cfg.clone())
            .programs(programs)
            .build()
            .expect("benchmark configurations are valid");
        self.build_s.push(t0.elapsed().as_secs_f64());
        let a0 = thread_allocs();
        let t1 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| sim.try_run()));
        let run_s = t1.elapsed().as_secs_f64();
        let allocs = thread_allocs() - a0;
        self.attempted += 1;
        match outcome {
            Ok(Ok(r)) if r.commits == input.transactions => {
                self.run_s.push(run_s);
                self.kips.push(r.instructions as f64 / run_s / 1e3);
                self.allocs_per_tx.push(allocs as f64 / r.commits as f64);
                self.fingerprints.push(r.fingerprint());
                self.total_cycles = r.total_cycles;
            }
            _ => self.failed += 1,
        }
    }
}

/// One run with the serializability checker, TAPE profiling and a
/// whole-run event ring.
pub struct Traced {
    pub wall_s: f64,
    pub result: Result<SimResult, String>,
}

fn traced_config(cfg: &SystemConfig) -> SystemConfig {
    let mut cfg = cfg.clone();
    cfg.check_serializability = true;
    cfg.profile = true;
    cfg.trace = TraceConfig {
        enabled: true,
        ring_capacity: RING_CAPACITY,
    };
    cfg
}

pub fn traced(input: &SimInput) -> Traced {
    let sim = Simulator::builder(traced_config(&input.cfg))
        .programs(input.programs.clone())
        .build()
        .expect("benchmark configurations are valid");
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.try_run()));
    let wall_s = t0.elapsed().as_secs_f64();
    let result = match outcome {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("the simulator panicked".to_string()),
    };
    Traced { wall_s, result }
}

/// The correctness gate: `(attempted, failed)` over the timed runs plus
/// the traced run. The traced run fails on an error, a serializability
/// failure, or a wrong commit count; a timed run fails on its own
/// errors or when its fingerprint differs from the traced run's.
pub fn gate(input: &SimInput, timed: &SimTimed, traced: &Traced) -> (u64, u64, Vec<String>) {
    let mut why = Vec::new();
    let reference = match &traced.result {
        Err(e) => {
            why.push(format!("traced run failed: {e}"));
            None
        }
        Ok(r) => match &r.serializability {
            Some(Ok(())) if r.commits == input.transactions => Some(r.fingerprint()),
            Some(Ok(())) => {
                why.push(format!(
                    "traced run committed {} of {} transactions",
                    r.commits, input.transactions
                ));
                None
            }
            Some(Err(e)) => {
                why.push(format!("traced run is not serializable: {e}"));
                None
            }
            None => unreachable!("the traced configuration enables the checker"),
        },
    };
    let mismatched = timed
        .fingerprints
        .iter()
        .filter(|fp| reference.as_ref() != Some(*fp))
        .count() as u64;
    if timed.failed > 0 {
        why.push(format!("{} timed runs failed", timed.failed));
    }
    if mismatched > 0 {
        why.push(format!(
            "{mismatched} timed runs differ from the traced run's fingerprint"
        ));
    }
    let failed = timed.failed + mismatched + u64::from(reference.is_none());
    (timed.attempted + 1, failed, why)
}

/// Every per-layer number of the simulator, from the timed runs and the
/// traced run's result and event ring.
pub fn layers(m: &mut Metrics, input: &SimInput, timed: &SimTimed, traced: &Traced) {
    let plain_run_s = median(&timed.run_s);
    m.push("core.build_s", median(&timed.build_s), "s");
    m.push_counted("core.run_s", plain_run_s, "s", timed.run_s.len());
    let Ok(r) = &traced.result else {
        return;
    };
    let trace = r.trace.as_ref().expect("the traced run records a trace");
    assert_eq!(trace.dropped, 0, "the traced run's event ring overflowed");
    m.push("core.events", r.events as f64, "count");
    m.push(
        "core.ns_per_event",
        plain_run_s * 1e9 / r.events as f64,
        "ns",
    );
    let attempts = r.commits + r.violations;
    m.push(
        "core.commit_ratio",
        r.commits as f64 / attempts as f64,
        "ratio",
    );
    let overflows: u64 = r.proc_counters.iter().map(|c| c.overflows).sum();
    m.push("core.overflows", overflows as f64, "count");
    let b = r.aggregate();
    let total = b.total() as f64;
    for (name, v) in [
        ("core.breakdown.useful", b.useful),
        ("core.breakdown.cache_miss", b.cache_miss),
        ("core.breakdown.commit", b.commit),
        ("core.breakdown.violation", b.violation),
        ("core.breakdown.idle", b.idle),
    ] {
        m.push(name, v as f64 / total, "share");
    }

    let samples = Samples::from_events(&trace.events);
    let metrics = &trace.metrics;
    // The ring must hold exactly what the program's own histograms saw;
    // otherwise the exact percentiles below would be drawn from a
    // different population than the program measured.
    for (hist, got) in [
        ("commit.latency", &samples.commit_latency),
        ("commit.tid_wait", &samples.tid_wait),
        ("commit.probe_wait", &samples.commit_latency),
        ("dir.probe_defer", &samples.probe_defer),
        ("dir.inv_ack_window", &samples.ack_window),
        ("dir.load_stall", &samples.load_stall),
        ("proc.miss_stall", &samples.miss_stall),
        ("dir.occupancy", &r.dir_occupancy),
    ] {
        let (count, sum) = metrics
            .histogram(hist)
            .map_or((0, 0), |h| (h.count(), h.sum()));
        assert_eq!(
            (count, sum),
            (got.len() as u64, got.iter().sum::<u64>()),
            "trace events disagree with the `{hist}` histogram"
        );
    }
    let mut commit_latency = samples.commit_latency.clone();
    m.push_pct(
        "commit.latency.p50",
        percentile(&mut commit_latency, 50.0),
        "cycles",
    );
    m.push_pct(
        "commit.latency.p98",
        percentile(&mut commit_latency, 98.0),
        "cycles",
    );
    m.push_pct(
        "commit.tid_wait.p98",
        percentile(&mut samples.tid_wait.clone(), 98.0),
        "cycles",
    );
    // The probe wait runs from TID arrival to the Commit multicast, the
    // same span as the commit latency (the sums are checked above).
    m.push_pct(
        "commit.probe_wait.p98",
        percentile(&mut commit_latency, 98.0),
        "cycles",
    );

    let (queue_ns, mesh_ns) = replay(&trace.events, &input.cfg);
    m.push("engine.queue_ns_per_event", queue_ns, "ns");

    let instructions = r.instructions as f64;
    m.push("net.messages", r.traffic.total_messages() as f64, "count");
    m.push("net.bytes", r.traffic.total_bytes() as f64, "bytes");
    m.push(
        "net.bytes_per_instr",
        r.traffic.total_bytes() as f64 / instructions,
        "bytes/instr",
    );
    m.push("net.mesh_ns_per_msg", mesh_ns, "ns");

    let ts = r.transport.unwrap_or_default();
    m.push("transport.retransmits", ts.retransmits as f64, "count");
    m.push("transport.dup_drops", ts.dup_drops as f64, "count");
    m.push("transport.timeout_fires", ts.timeout_fires as f64, "count");
    m.push("transport.acks", ts.acks as f64, "count");
    let useful = if ts.retransmits == 0 {
        0.0
    } else {
        ts.retransmits.saturating_sub(ts.dup_drops) as f64 / ts.retransmits as f64
    };
    m.push("transport.useful_retx_ratio", useful, "ratio");

    for name in [
        "dir.nstid_advances",
        "dir.probes_deferred",
        "dir.loads_stalled",
        "dir.skip_refusals",
    ] {
        m.push(name, metrics.counter(name) as f64, "count");
    }
    let mut occupancy = r.dir_occupancy.clone();
    m.push_pct(
        "dir.occupancy.p50",
        percentile(&mut occupancy, 50.0),
        "cycles",
    );
    m.push_pct(
        "dir.occupancy.p99",
        percentile(&mut occupancy, 99.0),
        "cycles",
    );
    m.push_pct(
        "dir.probe_defer.p99",
        percentile(&mut samples.probe_defer.clone(), 99.0),
        "cycles",
    );
    m.push_pct(
        "dir.inv_ack_window.p99",
        percentile(&mut samples.ack_window.clone(), 99.0),
        "cycles",
    );
    m.push_pct(
        "dir.load_stall.p99",
        percentile(&mut samples.load_stall.clone(), 99.0),
        "cycles",
    );

    let mut miss = samples.miss_stall.clone();
    m.push_pct(
        "cache.miss_stall.p50",
        percentile(&mut miss, 50.0),
        "cycles",
    );
    m.push_pct(
        "cache.miss_stall.p99",
        percentile(&mut miss, 99.0),
        "cycles",
    );

    m.push("trace.overhead_ratio", traced.wall_s / plain_run_s, "ratio");
}

/// Simulated latencies of one traced run, one sample per ring event.
#[derive(Default)]
struct Samples {
    commit_latency: Vec<u64>,
    tid_wait: Vec<u64>,
    probe_defer: Vec<u64>,
    ack_window: Vec<u64>,
    load_stall: Vec<u64>,
    miss_stall: Vec<u64>,
}

impl Samples {
    fn from_events(events: &[TraceRecord]) -> Samples {
        let mut s = Samples::default();
        for rec in events {
            match rec.event {
                TraceEvent::CommitMulticast { latency, .. } => s.commit_latency.push(latency),
                TraceEvent::TidAcquire { waited, .. } => s.tid_wait.push(waited),
                TraceEvent::ProbeReleased { deferred_for, .. } => s.probe_defer.push(deferred_for),
                TraceEvent::AckWindowClose { window, .. } => s.ack_window.push(window),
                TraceEvent::LoadStallExit { stalled_for, .. } => s.load_stall.push(stalled_for),
                TraceEvent::MissStallExit { stalled_for, .. } => s.miss_stall.push(stalled_for),
                _ => {}
            }
        }
        s
    }
}

/// Host cost of the mesh and the event queue on this run's own message
/// stream: `(queue ns per event, mesh ns per message)`.
///
/// The traced `MsgSend` stream is routed through a fresh [`Mesh2D`],
/// which yields each message's arrival time; the arrivals are then
/// scheduled into and popped from an [`EventQueue`] in send order, each
/// send first draining every arrival due by its own send time.
fn replay(events: &[TraceRecord], cfg: &SystemConfig) -> (f64, f64) {
    let mut sends: Vec<(u64, NodeId, NodeId, u32)> = events
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::MsgSend {
                src, dst, bytes, ..
            } => Some((
                rec.at.0,
                src,
                dst,
                u32::try_from(bytes).expect("message sizes fit in u32"),
            )),
            _ => None,
        })
        .collect();
    sends.sort_by_key(|s| s.0);
    if sends.is_empty() {
        return (0.0, 0.0);
    }
    let mut arrivals = vec![0u64; sends.len()];
    let mut mesh_ns = Vec::new();
    for _ in 0..REPLAY_REPS {
        let mut mesh = Mesh2D::new(cfg.n_procs, cfg.network.clone());
        let t0 = Instant::now();
        for (slot, &(at, src, dst, bytes)) in arrivals.iter_mut().zip(&sends) {
            *slot = mesh.send(Cycle(at), src, dst, bytes).0;
        }
        mesh_ns.push(t0.elapsed().as_nanos() as f64 / sends.len() as f64);
        black_box(&arrivals);
    }
    let mut queue_ns = Vec::new();
    for _ in 0..REPLAY_REPS {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut popped = 0u64;
        let t0 = Instant::now();
        for (i, (&(at, ..), &arrive)) in sends.iter().zip(&arrivals).enumerate() {
            while let Some(ev) = q.pop_before(Cycle(at + 1)).expect("queue intact") {
                black_box(ev);
                popped += 1;
            }
            q.schedule(Cycle(arrive), i as u32);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
            popped += 1;
        }
        queue_ns.push(t0.elapsed().as_nanos() as f64 / popped as f64);
    }
    (median(&queue_ns), median(&mesh_ns))
}
