//! Cross-executor speculation-lifecycle invariants: whatever executor ran
//! the pipeline, the drained event log must agree with the run's
//! `RunMetrics` and with every count the metrics registry keeps, every
//! opened version must resolve exactly once, and enabling tracing must not
//! change the run's results. The event log is the registry's independent
//! cross-check: the two are fed by different code at the same sites.

use std::collections::HashMap;
use tvs_core::ValidationMode;
use tvs_iosim::Uniform;
use tvs_metrics::Counter;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultKind, FaultPlan, FaultSite, MetricsHub, TraceLog,
    Tracer, WatchdogConfig,
};
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

/// What a recorded run leaves behind: its outcome, its event log and the
/// registry every layer counted into.
struct Recorded {
    out: RunOutcome,
    log: TraceLog,
    hub: MetricsHub,
}

/// A simulated run on 8 workers, recording its event log.
fn sim_events(d: &[u8], c: &HuffmanConfig) -> Recorded {
    sim_events_with(d, c, SimConfig::new(x86_smp(8), c.policy))
}

/// [`sim_events`] on the given config (its fault planes kept).
fn sim_events_with(d: &[u8], c: &HuffmanConfig, sim: SimConfig) -> Recorded {
    let tracer = Tracer::enabled(sim.platform.workers);
    let hub = MetricsHub::internal(sim.platform.workers);
    let sim = SimConfig {
        tracer: tracer.clone(),
        hub: hub.clone(),
        ..sim
    };
    let out = run(d, c, RunSpec::sim(sim, &arrival()));
    let log = tracer.drain().expect("enabled tracer drains");
    Recorded { out, log, hub }
}

/// A 4-worker real-thread run (`baseline` picks the single-lock executor),
/// recording its event log.
fn threaded_events(d: &[u8], c: &HuffmanConfig, baseline: bool) -> Recorded {
    threaded_events_with(d, c, baseline, FaultInjector::disabled())
}

/// [`threaded_events`] with `faults` armed on the executor and pipeline.
fn threaded_events_with(
    d: &[u8],
    c: &HuffmanConfig,
    baseline: bool,
    faults: FaultInjector,
) -> Recorded {
    let tracer = Tracer::enabled(4);
    let hub = MetricsHub::internal(4);
    let tcfg = ThreadedConfig {
        tracer: tracer.clone(),
        hub: hub.clone(),
        faults,
        ..ThreadedConfig::new(4, c.policy)
    };
    let arrival = arrival();
    let spec = if baseline {
        RunSpec::baseline(tcfg, &arrival, 1000)
    } else {
        RunSpec::threaded(tcfg, &arrival, 1000)
    };
    let out = run(d, c, spec);
    let log = tracer.drain().expect("enabled tracer drains");
    Recorded { out, log, hub }
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
/// 4. Every count kept both by the registry and by the event log agrees
///    (see [`assert_counts_match_events`]).
fn assert_lifecycle(r: &Recorded) {
    let (log, metrics) = (&r.log, &r.out.metrics);
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
    assert_counts_match_events(r);
}

/// The registry against its independent, event-derived cross-check
/// (`SpecHealth` and raw event counts), one pair per shared count.
/// Predictions count every speculation started: a predictor fire, or a
/// failed check's candidate promoted to a child version (a lineage opened
/// below depth 0).
fn assert_counts_match_events(r: &Recorded) {
    let (log, hub) = (&r.log, &r.hub);
    let h = log.health();
    let mut promoted = 0u64;
    let mut undo_entries = 0u64;
    for e in &log.events {
        match &e.kind {
            EventKind::LineageOpen { depth, .. } if *depth > 0 => promoted += 1,
            EventKind::UndoReplay { entries, .. } => undo_entries += entries,
            _ => {}
        }
    }
    let n = |c| hub.counter_total(c);
    let pairs = [
        (
            "executed tasks vs task-end",
            n(Counter::TasksDelivered) + n(Counter::TasksDiscarded),
            log.count("task-end") as u64,
        ),
        (
            "predictions vs predictor fires + promotions",
            n(Counter::Predictions),
            h.predictor_fires + promoted,
        ),
        ("checks passed", n(Counter::ChecksPassed), h.checks_passed),
        ("checks failed", n(Counter::ChecksFailed), h.checks_failed),
        ("commits", n(Counter::Commits), h.commits),
        ("rollbacks", n(Counter::Rollbacks), h.rollbacks),
        ("steals", n(Counter::Steal), h.steals),
        ("faults", n(Counter::Faults), h.faults),
        (
            "watchdog cancels",
            n(Counter::WatchdogCancels),
            h.watchdog_cancels,
        ),
        (
            "replica dispatches",
            n(Counter::ReplicaDispatches),
            h.replica_dispatches,
        ),
        (
            "replica matches",
            n(Counter::ReplicaMatches),
            h.replica_matches,
        ),
        ("sdc detected", n(Counter::SdcDetected), h.sdc_detected),
        ("sdc resolved", n(Counter::SdcResolved), h.sdc_resolved),
        (
            "undo entries replayed",
            n(Counter::UndoReplays),
            undo_entries,
        ),
        (
            "worker respawns",
            n(Counter::WorkerRespawns),
            h.worker_respawns,
        ),
    ];
    for (what, registry, events) in pairs {
        assert_eq!(registry, events, "{what}: registry vs event log");
    }
}

#[test]
fn sim_upholds_lifecycle_invariants_for_every_policy() {
    let d = data();
    for policy in DispatchPolicy::ALL {
        let r = sim_events(&d, &cfg(policy));
        assert_lifecycle(&r);
        if policy.speculates() {
            assert!(
                r.log.health().versions_opened > 0,
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
        let traced = sim_events(&d, &c).out;
        assert_eq!(plain.metrics, traced.metrics, "{}", policy.label());
        assert_eq!(plain.latencies(), traced.latencies(), "{}", policy.label());
    }
}

#[test]
fn threaded_upholds_lifecycle_invariants() {
    let d = data();
    let r = threaded_events(&d, &cfg(DispatchPolicy::Aggressive), false);
    assert_lifecycle(&r);
    assert_eq!(r.log.count("task-end"), r.log.count("task-start"));
}

#[test]
fn baseline_upholds_lifecycle_invariants() {
    let d = data();
    let r = threaded_events(&d, &cfg(DispatchPolicy::Aggressive), true);
    assert_lifecycle(&r);
    assert_eq!(
        r.log.count("steal"),
        0,
        "the baseline has no lanes to steal from"
    );
}

#[test]
fn chaos_counts_agree_with_events_on_every_executor() {
    // Injected panics, stalls, delayed and duplicated completions,
    // corrupted predictions and corrupted encode outputs under
    // replication: the counts a clean run leaves at zero (faults,
    // watchdog cancels, replica votes, SDC) must agree with the event log
    // as well.
    let d = data();
    let mut c = cfg(DispatchPolicy::Aggressive);
    c.validation = ValidationMode::Both { sample_rate: 1.0 };
    let plan = || {
        FaultInjector::new(FaultPlan::chaos(7).with_rule(
            FaultSite::TaskOutput,
            FaultKind::CorruptValue,
            0.2,
        ))
    };
    let sim = SimConfig {
        faults: plan(),
        watchdog: Some(WatchdogConfig {
            deadline_us: 300,
            poll_us: 0,
        }),
        ..SimConfig::new(x86_smp(8), c.policy)
    };
    let runs = [
        ("sim", sim_events_with(&d, &c, sim)),
        ("threaded", threaded_events_with(&d, &c, false, plan())),
        ("baseline", threaded_events_with(&d, &c, true, plan())),
    ];
    for (what, r) in &runs {
        assert_lifecycle(r);
        let h = r.log.health();
        assert!(h.faults > 0, "{what}: chaos injected panics");
        assert!(h.replica_dispatches > 0, "{what}: replication ran");
        // The manager's replica view reads the same registry.
        let stats = r.out.result.spec_stats.expect("speculative run");
        assert_eq!(stats.sdc_detected, h.sdc_detected, "{what}");
        assert_eq!(stats.replica_checks, h.replica_matches, "{what}");
    }
    // The simulator's fault draws are deterministic: its run also
    // exercises the watchdog and SDC pairs.
    let sim = runs[0].1.log.health();
    assert!(sim.watchdog_cancels > 0, "sim: the watchdog fired");
    assert!(sim.sdc_detected > 0, "sim: a corruption was detected");
}
