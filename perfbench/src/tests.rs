//! The gate's teeth: known bugs must show up as failed operations, and
//! the metric lists must match `BENCHMARK.json`.

use tcc_trace::Json;

use crate::simside;
use crate::stmside::{self, Increment};
use crate::workload;
use crate::{END_TO_END, HARNESS_SEED, PER_LAYER};

fn sim_gate(name: &str, mutate: impl FnOnce(&mut tcc_core::SystemConfig)) -> (u64, u64) {
    let mut input = workload::by_name(name)
        .expect("known workload")
        .inputs(HARNESS_SEED)
        .sim;
    mutate(&mut input.cfg);
    let mut timed = simside::SimTimed::default();
    timed.step(&input);
    let traced = simside::traced(&input);
    let (attempted, failed, _) = simside::gate(&input, &timed, &traced);
    (attempted, failed)
}

#[test]
fn sim_workload_passes_the_gate() {
    assert_eq!(sim_gate("sim-lossy16", |_| {}), (2, 0));
}

#[test]
fn sim_protocol_mutation_fails_operations() {
    // Without the receiver's reorder window, a dropped frame's
    // successors are delivered past the gap and the machine stalls.
    let (attempted, failed) = sim_gate("sim-lossy16", |cfg| cfg.bugs.transport_no_reorder = true);
    assert!(failed > 0, "{failed} of {attempted} operations failed");
}

fn stm_failures(inc: Increment) -> u64 {
    let input = workload::by_name("stm-zipf")
        .expect("known workload")
        .inputs(HARNESS_SEED)
        .stm;
    let mut timed = stmside::StmTimed::default();
    timed.step(&input, inc);
    timed.failed
}

#[test]
fn transactional_increments_pass_the_gate() {
    assert_eq!(stm_failures(Increment::Transactional), 0);
}

#[test]
fn non_transactional_increment_fails_the_sum_check() {
    assert!(stm_failures(Increment::Split) > 0);
}

#[test]
fn metric_lists_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let section = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(entries)) = json.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        entries
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    };
    let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), owned(END_TO_END));
    assert_eq!(section("per_layer"), owned(PER_LAYER));
}
