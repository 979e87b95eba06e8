//! Executors: a deterministic discrete-event simulator, a work-stealing
//! thread-pool runtime, and the retained single-lock baseline — all driving
//! the same [`crate::Scheduler`] and [`crate::Workload`] abstractions.
//!
//! Each executor has exactly one entry point, `try_run`. Its config
//! ([`sim::SimConfig`], [`threaded::ThreadedConfig`]) carries every
//! optional plane — event tracer, metrics hub, fault injector, retry,
//! watchdog — each defaulting to off.

pub mod baseline;
pub mod commit_log;
pub mod sim;
pub mod threaded;

use crate::metrics::RunMetrics;
use crate::policy::DispatchPolicy;
use crate::task::Time;
use tvs_metrics::{Counter, MetricsHub};
use tvs_trace::Tracer;

/// Label both observability planes with the run's policy and resolve the
/// hub the executor counts into: the caller's (sized for `workers` lanes)
/// or, when the caller passed [`MetricsHub::disabled`], a private
/// counters-only registry.
fn observe_run(
    tracer: &Tracer,
    hub: &MetricsHub,
    workers: usize,
    policy: DispatchPolicy,
) -> MetricsHub {
    tracer.set_label(policy.label());
    let hub = hub.or_internal(workers);
    assert_eq!(
        hub.workers(),
        workers,
        "metrics hub must be sized for the run's worker count"
    );
    if hub.is_live() {
        hub.set_label(policy.label());
    }
    hub
}

/// The run's [`RunMetrics`]: a read-back of the registry the executor
/// counted into (see [`observe_run`]) plus what only the executor knows.
/// Every count has exactly one store, the registry, so a hub handed to
/// two runs yields their sums.
fn run_metrics(hub: &MetricsHub, workers: usize, makespan: Time) -> RunMetrics {
    let total = |c| hub.counter_total(c);
    RunMetrics {
        makespan,
        tasks_delivered: total(Counter::TasksDelivered),
        tasks_discarded: total(Counter::TasksDiscarded),
        tasks_deleted_ready: total(Counter::DeletedReady),
        busy_us: total(Counter::BusyUs),
        wasted_us: total(Counter::WastedUs),
        rollbacks: total(Counter::Rollbacks),
        workers,
        lane_dispatches: hub.lane_counts(Counter::LaneDispatch),
        steals: total(Counter::Steal),
        faults: total(Counter::Faults),
        task_retries: total(Counter::Retries),
        watchdog_cancels: total(Counter::WatchdogCancels),
        duplicate_completions: total(Counter::DuplicateCompletions),
        replica_dispatches: total(Counter::ReplicaDispatches),
        retry_backoff_us: total(Counter::RetryBackoffUs),
        stale_completions_rejected: total(Counter::StaleCompletionsRejected),
        worker_respawns: total(Counter::WorkerRespawns),
    }
}
