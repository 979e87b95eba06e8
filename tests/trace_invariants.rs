//! Cross-executor speculation-lifecycle invariants: whatever executor ran
//! the pipeline, the drained event log must agree with the run's
//! [`RunMetrics`], every opened version must resolve exactly once, and
//! enabling tracing must not change the run's results.

use std::collections::HashMap;
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{x86_smp, DispatchPolicy, RunMetrics, TraceLog, Tracer};
use tvs_trace::EventKind;
use tvs_workloads::FileKind;

/// Text then PDF: the symbol-distribution shift makes step-0 predictions
/// fail the tolerance check partway through, so runs exercise rollback,
/// cascade deletion and discarded work — not just the happy path.
fn data() -> Vec<u8> {
    let mut d = tvs_workloads::generate(FileKind::Text, 32 * 1024, 7);
    d.extend(tvs_workloads::generate(FileKind::Pdf, 32 * 1024, 7));
    d
}

/// Step 0 predicts from the very first block, so the small test input
/// still runs the full speculation lifecycle.
fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(policy);
    c.schedule = tvs_core::SpeculationSchedule::with_step(0);
    c
}

fn arrival() -> Uniform {
    Uniform {
        gap_us: 2,
        start_us: 0,
    }
}

fn run(d: &[u8], c: &HuffmanConfig, spec: RunSpec) -> RunOutcome {
    run_huffman(d, c, &spec)
        .expect("run completes")
        .into_outcome()
}

/// A simulated run on 8 workers, recording its event log.
fn sim_events(d: &[u8], c: &HuffmanConfig) -> (RunOutcome, TraceLog) {
    let tracer = Tracer::enabled(8);
    let sim = SimConfig {
        tracer: tracer.clone(),
        ..SimConfig::new(x86_smp(8), c.policy)
    };
    let out = run(d, c, RunSpec::sim(sim, &arrival()));
    (out, tracer.drain().expect("enabled tracer drains"))
}

/// A 4-worker real-thread run (`baseline` picks the single-lock executor),
/// recording its event log.
fn threaded_events(d: &[u8], c: &HuffmanConfig, baseline: bool) -> (RunOutcome, TraceLog) {
    let tracer = Tracer::enabled(4);
    let tcfg = ThreadedConfig {
        tracer: tracer.clone(),
        ..ThreadedConfig::new(4, c.policy)
    };
    let arrival = arrival();
    let spec = if baseline {
        RunSpec::baseline(tcfg, &arrival, 1000)
    } else {
        RunSpec::threaded(tcfg, &arrival, 1000)
    };
    let out = run(d, c, spec);
    (out, tracer.drain().expect("enabled tracer drains"))
}

/// The lifecycle invariants every executor must uphold:
///
/// 1. Each version opens at most once, and every opened version resolves
///    in *exactly one* commit or rollback. (A rollback without a prior
///    open is legal — a prediction can be killed before installation
///    claims a version-open event — but a commit is not.)
/// 2. Trace rollbacks match `metrics.rollbacks`.
/// 3. Cascade depths account for the scheduler's ready-queue deletions:
///    `sum(cascade_depth) + count(cancel-ready) == tasks_deleted_ready`.
fn assert_lifecycle(log: &TraceLog, metrics: &RunMetrics) {
    assert_eq!(log.dropped, 0, "rings must not overflow in tests");
    assert_eq!(
        log.dropped_per_worker.len(),
        log.workers + 1,
        "one drop counter per worker ring plus the control ring"
    );
    for (ring, d) in log.dropped_per_worker.iter().enumerate() {
        assert_eq!(*d, 0, "ring {ring} dropped events in a deterministic run");
    }
    let mut opened: HashMap<u32, u64> = HashMap::new();
    let mut committed: HashMap<u32, u64> = HashMap::new();
    let mut rolled: HashMap<u32, u64> = HashMap::new();
    let mut cascade_sum = 0u64;
    let mut cancels = 0u64;
    for e in &log.events {
        match &e.kind {
            EventKind::VersionOpen { version, .. } => *opened.entry(*version).or_default() += 1,
            EventKind::Commit { version } => *committed.entry(*version).or_default() += 1,
            EventKind::Rollback {
                version,
                cascade_depth,
            } => {
                *rolled.entry(*version).or_default() += 1;
                cascade_sum += cascade_depth;
            }
            EventKind::CancelReady { .. } => cancels += 1,
            _ => {}
        }
    }
    for (v, n) in &opened {
        assert_eq!(*n, 1, "version {v} opened more than once");
        let c = committed.get(v).copied().unwrap_or(0);
        let r = rolled.get(v).copied().unwrap_or(0);
        assert_eq!(
            c + r,
            1,
            "version {v} must resolve exactly once (commits {c}, rollbacks {r})"
        );
    }
    for v in committed.keys() {
        assert!(
            opened.contains_key(v),
            "version {v} committed but never opened"
        );
    }
    for (v, n) in &rolled {
        assert_eq!(*n, 1, "version {v} rolled back more than once");
    }
    assert_eq!(
        rolled.values().sum::<u64>(),
        metrics.rollbacks,
        "trace rollbacks match RunMetrics"
    );
    assert_eq!(
        cascade_sum + cancels,
        metrics.tasks_deleted_ready,
        "cascade depths + bound cancellations account for deleted-ready tasks"
    );
}

#[test]
fn sim_upholds_lifecycle_invariants_for_every_policy() {
    let d = data();
    for policy in DispatchPolicy::ALL {
        let (out, log) = sim_events(&d, &cfg(policy));
        assert_lifecycle(&log, &out.metrics);
        if policy.speculates() {
            assert!(
                log.health().versions_opened > 0,
                "{}: speculation must actually run",
                policy.label()
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_sim_results() {
    // The deterministic executor must produce byte-identical metrics and
    // latencies whether or not an event log is being recorded.
    let d = data();
    for policy in DispatchPolicy::ALL {
        let c = cfg(policy);
        let plain = run(
            &d,
            &c,
            RunSpec::sim(SimConfig::new(x86_smp(8), policy), &arrival()),
        );
        let (traced, _) = sim_events(&d, &c);
        assert_eq!(plain.metrics, traced.metrics, "{}", policy.label());
        assert_eq!(plain.latencies(), traced.latencies(), "{}", policy.label());
    }
}

#[test]
fn threaded_upholds_lifecycle_invariants() {
    let d = data();
    let (out, log) = threaded_events(&d, &cfg(DispatchPolicy::Aggressive), false);
    assert_lifecycle(&log, &out.metrics);
    assert_eq!(log.count("task-end"), log.count("task-start"));
    assert_eq!(
        log.count("task-end") as u64,
        out.metrics.tasks_delivered + out.metrics.tasks_discarded,
        "every executed task leaves a span"
    );
}

#[test]
fn baseline_upholds_lifecycle_invariants() {
    let d = data();
    let (out, log) = threaded_events(&d, &cfg(DispatchPolicy::Aggressive), true);
    let metrics = out.metrics;
    assert_lifecycle(&log, &metrics);
    assert_eq!(
        log.count("task-end") as u64,
        metrics.tasks_delivered + metrics.tasks_discarded,
        "every executed task leaves a span"
    );
    assert_eq!(
        log.count("steal"),
        0,
        "the baseline has no lanes to steal from"
    );
}
