//! Live-metrics-plane invariants across the executors.
//!
//! * Concurrent incrementers racing a snapshotting sampler never lose or
//!   double-count: the sum of all per-snapshot deltas plus the residual
//!   equals exactly what the incrementers wrote.
//! * The deterministic simulator's virtual-time snapshots are
//!   byte-deterministic: the same seed yields an identical JSONL stream.
//! * RunMetrics is a view of the registry (no double counting): on every
//!   executor each of its counts is the hub's cell, and the manager's
//!   check counts agree with the registry and the event log.
//! * The snapshot waste ratio uses the `RunMetrics` formula.
//! * Snapshot JSONL round-trips losslessly, and the Prometheus exposition
//!   carries the totals.

use std::time::Duration;
use tvs_iosim::Uniform;
use tvs_metrics::{Counter, Gauge, Hist};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{x86_smp, DispatchPolicy, MetricsHub, MetricsSnapshot, RunMetrics, Sampler, Tracer};
use tvs_workloads::FileKind;

fn data() -> Vec<u8> {
    let mut d = tvs_workloads::generate(FileKind::Text, 32 * 1024, 7);
    d.extend(tvs_workloads::generate(FileKind::Pdf, 32 * 1024, 7));
    d
}

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

/// A simulated run feeding every layer's telemetry into `hub`.
fn sim_metered(d: &[u8], c: &HuffmanConfig, hub: &MetricsHub) -> RunOutcome {
    let sim = SimConfig {
        hub: hub.clone(),
        ..SimConfig::new(x86_smp(hub.workers()), c.policy)
    };
    run(d, c, RunSpec::sim(sim, &arrival()))
}

/// A real-thread run feeding every layer's telemetry into `hub`.
fn threaded_metered(d: &[u8], c: &HuffmanConfig, hub: &MetricsHub) -> RunOutcome {
    let tcfg = ThreadedConfig {
        hub: hub.clone(),
        ..ThreadedConfig::new(hub.workers(), c.policy)
    };
    run(d, c, RunSpec::threaded(tcfg, &arrival(), 1000))
}

#[test]
fn concurrent_incrementers_race_sampler_without_loss() {
    // 4 writer threads hammer their shards while a 1 ms sampler snapshots
    // concurrently. Afterwards: sum(deltas over all snapshots) + residual
    // delta == total written. Any lost or double-counted increment breaks
    // the equality.
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 200_000;
    let hub = MetricsHub::enabled(WRITERS);
    let mut seen_deltas: Vec<u64> = Vec::new();
    let (tx, rx) = std::sync::mpsc::channel::<MetricsSnapshot>();
    let sampler = Sampler::spawn(hub.clone(), Duration::from_millis(1), move |snap| {
        tx.send(snap).expect("test alive");
    });
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let hub = hub.clone();
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    hub.add(w, Counter::TasksDelivered, 1);
                    if i % 64 == 0 {
                        hub.record(Hist::BlockServiceUs, i % 1000);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer");
    }
    sampler.stop(); // takes one final snapshot through the sink
    while let Ok(snap) = rx.try_recv() {
        seen_deltas.push(snap.counter(Counter::TasksDelivered).delta);
    }
    let expected = WRITERS as u64 * PER_WRITER;
    let from_deltas: u64 = seen_deltas.iter().sum();
    assert_eq!(
        from_deltas,
        expected,
        "snapshot deltas must partition the counter stream exactly \
         ({} snapshots)",
        seen_deltas.len()
    );
    assert_eq!(hub.counter_total(Counter::TasksDelivered), expected);
    let final_snap = hub.snapshot().expect("live hub");
    assert_eq!(final_snap.counter(Counter::TasksDelivered).delta, 0);
    assert_eq!(final_snap.counter(Counter::TasksDelivered).total, expected);
}

#[test]
fn sim_virtual_snapshots_are_byte_deterministic() {
    // The same input, config and virtual sampling tick must serialise to
    // an identical JSONL byte stream on every run — snapshots are stamped
    // by the virtual clock, not the wall clock.
    let d = data();
    let run = || -> String {
        let hub = MetricsHub::enabled(8);
        hub.enable_virtual_sampling(1_000);
        sim_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub);
        hub.drain_virtual_snapshots()
            .iter()
            .map(|s| s.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "virtual sampling produced snapshots");
    assert_eq!(a, b, "same seed must give identical JSONL bytes");
    // And the stream actually observed the speculation lifecycle.
    let last = MetricsSnapshot::from_json_line(a.lines().last().expect("non-empty"))
        .expect("last line parses");
    assert!(last.counter(Counter::Predictions).total > 0);
    assert!(last.counter(Counter::TasksDelivered).total > 0);
    assert!(
        last.counter(Counter::Commits).total + last.counter(Counter::Rollbacks).total > 0,
        "every speculative run ends in a commit or rollback"
    );
}

#[test]
fn sim_metering_does_not_perturb_results() {
    let d = data();
    for policy in DispatchPolicy::ALL {
        let c = cfg(policy);
        let plain = run(
            &d,
            &c,
            RunSpec::sim(SimConfig::new(x86_smp(8), policy), &arrival()),
        );
        let hub = MetricsHub::enabled(8);
        hub.enable_virtual_sampling(1_000);
        let metered = sim_metered(&d, &c, &hub);
        assert_eq!(plain.metrics, metered.metrics, "{}", policy.label());
        assert_eq!(plain.latencies(), metered.latencies(), "{}", policy.label());
    }
}

/// Every count field of `metrics` is the registry's cell of the same
/// name: the registry is the only store.
fn assert_registry_view(what: &str, m: &RunMetrics, hub: &MetricsHub) {
    let fields = [
        (m.tasks_delivered, Counter::TasksDelivered),
        (m.tasks_discarded, Counter::TasksDiscarded),
        (m.tasks_deleted_ready, Counter::DeletedReady),
        (m.busy_us, Counter::BusyUs),
        (m.wasted_us, Counter::WastedUs),
        (m.rollbacks, Counter::Rollbacks),
        (m.steals, Counter::Steal),
        (m.faults, Counter::Faults),
        (m.task_retries, Counter::Retries),
        (m.watchdog_cancels, Counter::WatchdogCancels),
        (m.duplicate_completions, Counter::DuplicateCompletions),
        (m.replica_dispatches, Counter::ReplicaDispatches),
        (m.retry_backoff_us, Counter::RetryBackoffUs),
        (
            m.stale_completions_rejected,
            Counter::StaleCompletionsRejected,
        ),
        (m.worker_respawns, Counter::WorkerRespawns),
    ];
    for (field, c) in fields {
        assert_eq!(field, hub.counter_total(c), "{what}: {}", c.name());
    }
    assert_eq!(
        m.lane_dispatches,
        hub.lane_counts(Counter::LaneDispatch),
        "{what}: lane dispatches are the hub's cells"
    );
    assert!(m.tasks_delivered > 0, "{what}: the run delivered tasks");
}

#[test]
fn run_metrics_is_a_registry_view() {
    let d = data();
    let c = cfg(DispatchPolicy::Aggressive);
    for executor in ["sim", "threaded", "baseline"] {
        let hub = MetricsHub::enabled(4);
        let out = match executor {
            "sim" => sim_metered(&d, &c, &hub),
            "threaded" => threaded_metered(&d, &c, &hub),
            _ => {
                let tcfg = ThreadedConfig {
                    hub: hub.clone(),
                    ..ThreadedConfig::new(hub.workers(), c.policy)
                };
                run(&d, &c, RunSpec::baseline(tcfg, &arrival(), 1000))
            }
        };
        assert_registry_view(executor, &out.metrics, &hub);
        // Manager counters flowed into the same registry.
        let stats = out.result.spec_stats.expect("speculative run");
        assert_eq!(stats.predictions, hub.counter_total(Counter::Predictions));
        assert_eq!(
            stats.checks_passed,
            hub.counter_total(Counter::ChecksPassed)
        );
        assert_eq!(
            stats.checks_failed,
            hub.counter_total(Counter::ChecksFailed)
        );
        // The workload published its encode-pool gauges.
        let a = out.result.alloc_stats;
        assert_eq!(hub.gauge_get(Gauge::AllocHeap), a.heap_allocs, "{executor}");
        assert_eq!(hub.gauge_get(Gauge::AllocReuse), a.reuses, "{executor}");
    }
}

#[test]
fn checks_passed_has_one_definition() {
    // A committing run passes its final check. The manager's stats, the
    // registry and the event log must all count that pass.
    let d = tvs_workloads::generate(FileKind::Text, 64 * 1024, 7);
    let c = cfg(DispatchPolicy::Balanced);
    let hub = MetricsHub::enabled(4);
    let tracer = Tracer::enabled(4);
    let sim = SimConfig {
        hub: hub.clone(),
        tracer: tracer.clone(),
        ..SimConfig::new(x86_smp(4), c.policy)
    };
    let out = run(&d, &c, RunSpec::sim(sim, &arrival()));
    assert!(
        out.result.committed_version.is_some(),
        "stationary text commits"
    );
    let stats = out.result.spec_stats.expect("speculative run");
    let health = tracer.drain().expect("enabled tracer drains").health();
    assert!(stats.checks_passed > 0);
    assert_eq!(
        stats.checks_passed,
        hub.counter_total(Counter::ChecksPassed)
    );
    assert_eq!(stats.checks_passed, health.checks_passed);
    assert_eq!(stats.checks_failed, health.checks_failed);
}

#[test]
fn snapshot_waste_ratio_matches_run_metrics() {
    // The executors count wasted µs inside busy µs; the `/metrics` waste
    // ratio must use the same formula as `RunMetrics`. A snapshot taken
    // once after the run has the whole run as its window.
    let d = data();
    let hub = MetricsHub::enabled(8);
    let out = sim_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub);
    assert!(out.metrics.rollbacks > 0, "the fixture rolls back");
    assert!(out.metrics.wasted_us > 0, "the rollback wasted work");
    let snap = hub.snapshot().expect("live hub");
    let (a, b) = (snap.waste_ratio(), out.metrics.waste_ratio());
    assert!((a - b).abs() < 1e-12, "snapshot {a} vs RunMetrics {b}");
    assert!(snap
        .to_prometheus()
        .contains(&format!("tvs_waste_ratio {b}\n")));
}

#[test]
fn profiler_clocks_and_lineage_gauges_populate() {
    // Flight recorder: the worker time-accounting clocks and the
    // manager's lineage gauges feed the same registry on both executors.
    // Body time is charged to exactly one of the run/check clocks, so
    // together they must equal the busy total the executors already
    // report — a cheap conservation invariant over the new counters.
    let d = data();
    let hub = MetricsHub::enabled(4);
    threaded_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub);
    assert!(hub.counter_total(Counter::TimeRunUs) > 0, "run clock ticks");
    assert_eq!(
        hub.counter_total(Counter::TimeRunUs) + hub.counter_total(Counter::TimeCheckUs),
        hub.counter_total(Counter::BusyUs),
        "threaded: body time lands in exactly one state clock"
    );

    let hub2 = MetricsHub::enabled(8);
    sim_metered(&d, &cfg(DispatchPolicy::Aggressive), &hub2);
    assert_eq!(
        hub2.counter_total(Counter::TimeRunUs) + hub2.counter_total(Counter::TimeCheckUs),
        hub2.counter_total(Counter::BusyUs),
        "sim: body time lands in exactly one state clock"
    );
    assert!(
        hub2.gauge_get(Gauge::LineageRoots) > 0,
        "a speculative run opens at least one lineage root"
    );
}

#[test]
fn snapshot_jsonl_round_trips_and_prometheus_exposes_totals() {
    let d = data();
    let hub = MetricsHub::enabled(8);
    hub.enable_virtual_sampling(1_000);
    sim_metered(&d, &cfg(DispatchPolicy::Balanced), &hub);
    let snaps = hub.drain_virtual_snapshots();
    assert!(!snaps.is_empty());
    for s in &snaps {
        let line = s.to_json_line();
        let back = MetricsSnapshot::from_json_line(&line).expect("parses");
        assert_eq!(back.to_json_line(), line, "lossless round-trip");
    }
    let last = snaps.last().expect("non-empty");
    let prom = last.to_prometheus();
    assert!(prom.contains(&format!(
        "tvs_tasks_delivered_total {}",
        last.counter(Counter::TasksDelivered).total
    )));
    assert!(prom.contains("tvs_lane_dispatch_total{lane=\"0\"}"));
    assert!(prom.contains("tvs_waste_ratio"));
    assert!(prom.contains("tvs_block_service_us_bucket"));
}
