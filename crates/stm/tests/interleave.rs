//! Interleaving-explorer acceptance: the commit path survives bounded
//! exhaustive + seeded-random adversarial schedules with zero
//! serializability violations, the exploration demonstrably reaches the
//! interesting protocol paths (conflicts, TID recycling, helping,
//! starvation mode), and — the teeth test — disabling any load-bearing
//! step of the protocol is *caught* by the same explorer.

use tcc_stm::explore::{explore, ExploreConfig, ModelSpec, ModelTx};
use tcc_stm::proto::CommitTweaks;

fn tx(reads: &[usize], writes: &[usize]) -> ModelTx {
    ModelTx {
        reads: reads.to_vec(),
        writes: writes.to_vec(),
    }
}

/// Two threads fighting over two cells on two shards: read-write and
/// write-write conflicts, multi-shard footprints.
fn contended_2t() -> ModelSpec {
    ModelSpec {
        n_cells: 2,
        shards: 2,
        vendor_slots: 2,
        threads: vec![
            vec![tx(&[0], &[0, 1]), tx(&[1], &[0])],
            vec![tx(&[0, 1], &[1]), tx(&[0], &[0])],
        ],
        starvation_threshold: 2,
        tweaks: CommitTweaks::default(),
    }
}

/// Three threads, three cells, single shard — maximum serialization
/// pressure through one NSTID register.
fn contended_3t_one_shard() -> ModelSpec {
    ModelSpec {
        n_cells: 3,
        shards: 1,
        vendor_slots: 2,
        threads: vec![
            vec![tx(&[0], &[1])],
            vec![tx(&[1], &[2])],
            vec![tx(&[2], &[0])],
        ],
        starvation_threshold: 1,
        tweaks: CommitTweaks::default(),
    }
}

#[test]
fn exhaustive_and_random_schedules_find_no_violations() {
    let cfg = ExploreConfig {
        max_runs: 1_500,
        pair_runs: 256,
        random_runs: 96,
        ..ExploreConfig::default()
    };
    let report = explore(&contended_2t(), &cfg);
    assert!(
        report.violations.is_empty(),
        "serializability violations: {:?}",
        report.violations
    );
    assert!(report.runs > 100, "only {} runs explored", report.runs);
    // Every scripted transaction commits in every clean run.
    assert_eq!(report.commits, 4 * report.runs as u64);
    // Coverage: adversarial schedules must actually reach the
    // conflict/recycle machinery, or the exploration proves nothing.
    assert!(report.conflicts > 0, "no schedule produced a conflict");
    assert!(report.recycled > 0, "no schedule exercised TID handoff");
}

#[test]
fn single_shard_three_thread_schedules_are_clean() {
    let cfg = ExploreConfig {
        max_runs: 700,
        pair_runs: 192,
        random_runs: 64,
        ..ExploreConfig::default()
    };
    let report = explore(&contended_3t_one_shard(), &cfg);
    assert!(
        report.violations.is_empty(),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(report.commits, 3 * report.runs as u64);
}

/// The starvation path: with an immediate escalation threshold and a
/// hot cell, some schedule must commit in early-TID mode; the helping
/// path (claiming a parked TID) must also be reached.
#[test]
fn exploration_reaches_starvation_and_helping_paths() {
    let spec = ModelSpec {
        n_cells: 1,
        shards: 1,
        vendor_slots: 1,
        threads: vec![
            vec![tx(&[0], &[0]), tx(&[0], &[0])],
            vec![tx(&[0], &[0]), tx(&[0], &[0])],
        ],
        starvation_threshold: 1,
        tweaks: CommitTweaks::default(),
    };
    let cfg = ExploreConfig {
        max_runs: 1_200,
        pair_runs: 256,
        random_runs: 128,
        switch_percent: 40,
        ..ExploreConfig::default()
    };
    let report = explore(&spec, &cfg);
    assert!(
        report.violations.is_empty(),
        "violations: {:?}",
        report.violations
    );
    assert!(report.conflicts > 0);
    assert!(
        report.early_commits > 0,
        "no schedule reached early-TID starvation mode"
    );
    assert!(
        report.claimed > 0,
        "no schedule exercised the parked-TID helping path"
    );
}

/// Teeth: removing commit-time read validation must be caught.
#[test]
fn explorer_catches_skipped_read_validation() {
    let mut spec = contended_2t();
    spec.tweaks = CommitTweaks {
        skip_read_validation: true,
        ..CommitTweaks::default()
    };
    let report = explore(&spec, &ExploreConfig::default());
    assert!(
        !report.violations.is_empty(),
        "explorer failed to catch a commit path with no read validation \
         after {} runs",
        report.runs
    );
}

/// Teeth: publishing writes before the shards serialize the committer
/// must be caught.
#[test]
fn explorer_catches_publication_before_serving() {
    let mut spec = contended_2t();
    spec.tweaks = CommitTweaks {
        publish_before_serving: true,
        ..CommitTweaks::default()
    };
    let report = explore(&spec, &ExploreConfig::default());
    assert!(
        !report.violations.is_empty(),
        "explorer failed to catch early ownership publication after {} runs",
        report.runs
    );
}

/// Teeth: an execution-time read that accepts a stamp above its
/// snapshot bound without extending the bound must be caught by the
/// opacity oracle — commit-time validation still keeps every committed
/// history serializable, so only the aborted attempts show the bug.
#[test]
fn explorer_catches_reads_past_the_snapshot_bound() {
    let mut spec = contended_2t();
    spec.tweaks = CommitTweaks {
        read_past_bound: true,
        ..CommitTweaks::default()
    };
    let report = explore(&spec, &ExploreConfig::default());
    assert!(
        !report.violations.is_empty(),
        "explorer failed to catch reads past the snapshot bound after {} runs",
        report.runs
    );
    assert!(
        report.violations.iter().all(|v| v.contains("not opaque")),
        "the opacity oracle, not serializability, must catch it: {:?}",
        report.violations
    );
}
