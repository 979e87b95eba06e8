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

use crate::policy::DispatchPolicy;
use tvs_metrics::MetricsHub;
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
    if !hub.has_registry() {
        return MetricsHub::internal(workers);
    }
    assert_eq!(
        hub.workers(),
        workers,
        "metrics hub must be sized for the run's worker count"
    );
    if hub.is_live() {
        hub.set_label(policy.label());
    }
    hub.clone()
}
