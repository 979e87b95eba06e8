//! Deterministic discrete-event executor.
//!
//! Tasks *really execute* (their closures run and produce real outputs —
//! runs of the Huffman pipeline yield decodable streams), but time is
//! virtual: each task occupies a simulated worker for the duration given by
//! the platform-scaled cost model. This gives bit-identical traces across
//! runs and lets one laptop model the paper's 16-worker Opteron box, the
//! Cell blade (with multiple-buffering prefetch queues and DMA costs) and
//! arbitrarily slow I/O without owning any of them.
//!
//! Fault handling matches the threaded executors ([`super::threaded`]),
//! re-interpreted in virtual time (the fault fields of [`SimConfig`]):
//!
//! * task bodies run under `catch_unwind`; a panicking speculative body is
//!   routed through [`crate::sched::Scheduler::fault`] →
//!   [`Workload::on_fault`] → version abort, a panicking non-speculative
//!   body is retried up to [`crate::RetryPolicy::max_attempts`] (retries
//!   are instantaneous in virtual time — backoff is a wall-clock concept)
//!   and then fails the run with a structured [`RunError`];
//! * an injected `Stall` inflates the task's virtual cost; an injected
//!   `PanicTask` panics the first body attempt; delayed completions are
//!   re-delivered at a later virtual instant; duplicated completions are
//!   delivered twice and absorbed by the scheduler;
//! * the watchdog fires at exactly `start + deadline_us` of virtual time
//!   for any task whose (possibly stall-inflated) cost exceeds the
//!   deadline, signalling its abort flag and aborting its version.
//!
//! Because every draw of the fault plan happens at a deterministic point
//! of the event order, a chaos simulation is as replayable as a clean one:
//! same plan, same seed, same schedule — bit-identical faults.

use crate::fault::{RetryPolicy, RunError, WatchdogConfig};
use crate::metrics::RunMetrics;
use crate::platform::{CostModel, Platform};
use crate::policy::DispatchPolicy;
use crate::sched::{CompletionOutcome, Dispatched, Scheduler};
use crate::task::{Payload, SpecVersion, TaskClass, TaskCtx, TaskId, TaskSpec, Time};
use crate::workload::{Completion, FaultNotice, InputBlock, SchedCtx, Workload};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use tvs_faults::{FaultInjector, FaultKind, FaultSite};
use tvs_metrics::{Counter, Hist, MetricsHub};
use tvs_trace::{EventKind, Tracer};

/// Configuration of a simulation run. Build with [`SimConfig::new`] and
/// switch planes on with `..` update syntax.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine model (workers, prefetch depth, DMA, scaling).
    pub platform: Platform,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Speculation-lifecycle event sink, stamped in virtual time.
    pub tracer: Tracer,
    /// Live metrics hub, sized for `platform.workers`. Snapshots follow
    /// virtual time: arm it with [`MetricsHub::enable_virtual_sampling`]
    /// and drain with [`MetricsHub::drain_virtual_snapshots`].
    pub hub: MetricsHub,
    /// Retry policy for panicked non-speculative tasks. Retries are
    /// instantaneous in virtual time.
    pub retry: RetryPolicy,
    /// Virtual-time watchdog; fires at exactly `start + deadline_us` for
    /// tasks whose virtual cost exceeds the deadline.
    pub watchdog: Option<WatchdogConfig>,
    /// Fault injection plan.
    pub faults: FaultInjector,
}

impl SimConfig {
    /// A config with every optional plane off: disabled tracer and hub,
    /// default retry, no watchdog, no fault injection.
    pub fn new(platform: Platform, policy: DispatchPolicy) -> Self {
        SimConfig {
            platform,
            policy,
            tracer: Tracer::disabled(),
            hub: MetricsHub::disabled(),
            retry: RetryPolicy::default(),
            watchdog: None,
            faults: FaultInjector::disabled(),
        }
    }
}

struct Assigned {
    work: Dispatched,
    start: Time,
    end: Time,
    /// An injected `PanicTask` drawn at dispatch: the first body attempt
    /// panics (transient — retries run clean).
    inject_panic: bool,
}

struct WorkerState {
    pipeline_end: Time,
    assigned: VecDeque<Assigned>,
}

/// A completion held back by an injected `DelayCompletion`, re-delivered
/// at a later virtual instant.
struct Delayed {
    worker: usize,
    id: TaskId,
    name: &'static str,
    version: Option<SpecVersion>,
    tag: u64,
    start: Time,
    end: Time,
    output: Payload,
}

/// The event heap, ordered by (time, push sequence) for determinism, plus
/// the payloads of keyed events (watchdog fires, delayed completions).
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Reverse<(Time, u64, usize, EvSlot)>>,
    seq: u64,
    /// Watchdog events in flight: key → (worker, task id).
    watch: HashMap<usize, (usize, TaskId)>,
    /// Delayed completions in flight: key → payload.
    delayed: HashMap<usize, Delayed>,
    /// Fresh keys for the two maps above.
    next_key: usize,
}

impl Events {
    fn push(&mut self, t: Time, aux: usize, slot: EvSlot) {
        self.heap.push(Reverse((t, self.seq, aux, slot)));
        self.seq += 1;
    }

    fn fresh_key(&mut self) -> usize {
        self.next_key += 1;
        self.next_key - 1
    }
}

struct SimCtx<'a> {
    sched: &'a mut Scheduler,
    platform: &'a Platform,
    now: Time,
}

impl SchedCtx for SimCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }

    fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
        self.platform.check_task_bytes(spec.name, spec.bytes);
        self.sched.spawn(spec)
    }

    fn abort_version(&mut self, version: SpecVersion) {
        self.sched.abort_version(version);
    }
}

/// Run `workload` to completion over the given pre-scheduled `inputs`
/// (sorted by arrival time, as produced by the `tvs-iosim` models), with
/// the tracing, metrics and fault-handling planes `cfg` switches on.
///
/// The tracer's and hub's ambient virtual clock follows the event heap, so
/// every event — including scheduler rollback/cancel events fired from
/// inside workload callbacks — is stamped with deterministic virtual time,
/// and task start/end events carry the exact simulated interval the task
/// occupied its worker. The resulting [`crate::RunMetrics`] do not depend on
/// which planes are on.
///
/// A non-speculative task panicking on every attempt `cfg.retry` allows
/// returns `Err`; everything else — injected panics, stalls, delayed and
/// duplicated completions, watchdog cancels of speculative tasks —
/// recovers through the rollback machinery. Panics with a diagnostic if
/// the workload deadlocks (events exhausted before
/// [`Workload::is_finished`]).
pub fn try_run<W: Workload>(
    mut workload: W,
    cfg: &SimConfig,
    cost: &dyn CostModel,
    inputs: Vec<InputBlock>,
) -> Result<(W, RunMetrics), RunError> {
    let tracer = &cfg.tracer;
    let hub = super::observe_run(tracer, &cfg.hub, cfg.platform.workers, cfg.policy);
    assert!(
        cfg.platform.workers > 0,
        "platform must have at least one worker"
    );
    assert!(
        inputs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "inputs must be sorted by arrival time"
    );

    let mut sched = Scheduler::with_tracer(cfg.policy, tracer.clone());
    sched.set_metrics(hub.clone());
    let mut workers: Vec<WorkerState> = (0..cfg.platform.workers)
        .map(|_| WorkerState {
            pipeline_end: 0,
            assigned: VecDeque::new(),
        })
        .collect();
    let mut events = Events::default();
    let n_inputs = inputs.len();
    let mut input_map: HashMap<usize, InputBlock> = HashMap::new();
    for (i, b) in inputs.into_iter().enumerate() {
        events.push(b.arrival, i, EvSlot::Arrival);
        input_map.insert(i, b);
    }

    let mut arrivals_seen = 0usize;
    let mut finished_at: Option<Time> = None;
    let mut last_event_time: Time = 0;

    tracer.set_virtual_now(0);
    hub.set_virtual_now(0);
    {
        let mut ctx = SimCtx {
            sched: &mut sched,
            platform: &cfg.platform,
            now: 0,
        };
        workload.on_start(&mut ctx);
    }
    dispatch_all(&mut sched, &mut workers, cfg, cost, 0, &mut events, &hub);

    while let Some(Reverse((t, _seq, aux, slot))) = events.heap.pop() {
        last_event_time = t;
        tracer.set_virtual_now(t);
        hub.set_virtual_now(t);
        hub.virtual_tick(t);
        match slot {
            EvSlot::Arrival => {
                // An injected feeder stall pushes the arrival to a later
                // virtual instant.
                if let Some(FaultKind::Stall { us }) = cfg.faults.draw(FaultSite::Feeder) {
                    events.push(t + us.max(1), aux, EvSlot::Arrival);
                    continue;
                }
                let block = match input_map.entry(aux) {
                    Entry::Occupied(e) => e.remove(),
                    Entry::Vacant(_) => unreachable!("arrival {aux} delivered twice"),
                };
                let mut ctx = SimCtx {
                    sched: &mut sched,
                    platform: &cfg.platform,
                    now: t,
                };
                workload.on_input(&mut ctx, block);
                arrivals_seen += 1;
                if arrivals_seen == n_inputs {
                    workload.on_input_done(&mut ctx);
                }
            }
            EvSlot::Done => {
                let worker = aux;
                let Assigned {
                    mut work,
                    start,
                    end,
                    inject_panic,
                } = workers[worker]
                    .assigned
                    .pop_front()
                    .expect("Done event for an empty worker queue");
                debug_assert_eq!(end, t);
                let busy = end - start;
                hub.add(worker, Counter::BusyUs, busy);
                // Profiler state clocks, in virtual time. The simulator
                // has no steal scans or parks — a virtual worker is either
                // occupied or idle — so only the run/check clocks tick.
                let clock = if work.class == TaskClass::Check {
                    Counter::TimeCheckUs
                } else {
                    Counter::TimeRunUs
                };
                hub.add(worker, clock, busy);
                hub.record(Hist::RunSliceUs, busy);
                let pre_aborted = work.version.map(|v| sched.is_aborted(v)).unwrap_or(false);
                if tracer.is_enabled() {
                    tracer.emit_at(
                        worker,
                        start,
                        EventKind::TaskStart {
                            id: work.id,
                            name: work.name,
                            version: work.version,
                        },
                    );
                }
                if pre_aborted {
                    // Outputs of discarded tasks are never materialised
                    // ("deleted with their content"): skip the body.
                    let _ = sched.try_complete(work.id);
                    if tracer.is_enabled() {
                        tracer.emit_at(
                            worker,
                            end,
                            EventKind::TaskEnd {
                                id: work.id,
                                name: work.name,
                                version: work.version,
                                tag: work.tag,
                                discarded: true,
                            },
                        );
                    }
                    hub.add(worker, Counter::WastedUs, busy);
                } else {
                    // Panic-isolated body execution. Retries are
                    // instantaneous in virtual time.
                    let mut attempt = 0u32;
                    let mut boom = inject_panic;
                    let outcome = loop {
                        let run = &mut work.run;
                        let ctx = &work.ctx;
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            if boom {
                                panic!("injected task-body fault");
                            }
                            (run)(ctx)
                        }));
                        boom = false;
                        match r {
                            Ok(out) => break Some(out),
                            Err(_) => {
                                hub.add(worker, Counter::Faults, 1);
                                if tracer.is_enabled() {
                                    tracer.emit_at(
                                        worker,
                                        end,
                                        EventKind::TaskFault {
                                            id: work.id,
                                            name: work.name,
                                            version: work.version,
                                            attempt,
                                        },
                                    );
                                }
                                if work.version.is_some()
                                    || attempt + 1 >= cfg.retry.max_attempts.max(1)
                                {
                                    break None;
                                }
                                attempt += 1;
                                hub.add(worker, Counter::Retries, 1);
                            }
                        }
                    };
                    match outcome {
                        None => {
                            // Faulted: reuse the misspeculation path.
                            hub.add(worker, Counter::WastedUs, busy);
                            if let Some(vers) = sched.fault(work.id) {
                                let mut ctx = SimCtx {
                                    sched: &mut sched,
                                    platform: &cfg.platform,
                                    now: t,
                                };
                                workload.on_fault(
                                    &mut ctx,
                                    FaultNotice {
                                        id: work.id,
                                        name: work.name,
                                        version: vers,
                                        tag: work.tag,
                                        attempt,
                                    },
                                );
                                match vers {
                                    Some(v) => {
                                        sched.abort_version(v);
                                    }
                                    None => {
                                        return Err(RunError::TaskFailed {
                                            name: work.name,
                                            id: work.id,
                                            attempts: attempt + 1,
                                        });
                                    }
                                }
                            }
                        }
                        Some(output) => {
                            let mut echo = false;
                            match cfg.faults.draw(FaultSite::Completion) {
                                Some(FaultKind::DelayCompletion { us }) => {
                                    // Hold the completion back: the task
                                    // stays in flight until the delayed
                                    // delivery, which decides discard vs
                                    // deliver against the abort state then.
                                    let key = events.fresh_key();
                                    events.delayed.insert(
                                        key,
                                        Delayed {
                                            worker,
                                            id: work.id,
                                            name: work.name,
                                            version: work.version,
                                            tag: work.tag,
                                            start,
                                            end,
                                            output,
                                        },
                                    );
                                    events.push(t + us.max(1), key, EvSlot::DelayedDone);
                                }
                                other => {
                                    if matches!(other, Some(FaultKind::DuplicateCompletion)) {
                                        echo = true;
                                    }
                                    let first = sched.try_complete(work.id);
                                    debug_assert_eq!(
                                        first,
                                        Some(CompletionOutcome::Deliver),
                                        "un-aborted completion delivers"
                                    );
                                    if tracer.is_enabled() {
                                        tracer.emit_at(
                                            worker,
                                            end,
                                            EventKind::TaskEnd {
                                                id: work.id,
                                                name: work.name,
                                                version: work.version,
                                                tag: work.tag,
                                                discarded: false,
                                            },
                                        );
                                    }
                                    if echo {
                                        let _ = sched.try_complete(work.id);
                                    }
                                    let mut ctx = SimCtx {
                                        sched: &mut sched,
                                        platform: &cfg.platform,
                                        now: t,
                                    };
                                    workload.on_complete(
                                        &mut ctx,
                                        Completion {
                                            id: work.id,
                                            name: work.name,
                                            version: work.version,
                                            tag: work.tag,
                                            started: start,
                                            finished: end,
                                            output,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
            EvSlot::DelayedDone => {
                let d = events
                    .delayed
                    .remove(&aux)
                    .expect("delayed completion recorded");
                let busy = d.end - d.start;
                let outcome = sched.try_complete(d.id);
                if tracer.is_enabled() && outcome.is_some() {
                    tracer.emit_at(
                        d.worker,
                        d.end,
                        EventKind::TaskEnd {
                            id: d.id,
                            name: d.name,
                            version: d.version,
                            tag: d.tag,
                            discarded: outcome == Some(CompletionOutcome::Discard),
                        },
                    );
                }
                match outcome {
                    None => {}
                    Some(CompletionOutcome::Discard) => {
                        // The version died while the completion was held
                        // back; its already-produced output is dropped.
                        hub.add_control(Counter::WastedUs, busy);
                    }
                    Some(CompletionOutcome::Deliver) => {
                        let mut ctx = SimCtx {
                            sched: &mut sched,
                            platform: &cfg.platform,
                            now: t,
                        };
                        workload.on_complete(
                            &mut ctx,
                            Completion {
                                id: d.id,
                                name: d.name,
                                version: d.version,
                                tag: d.tag,
                                started: d.start,
                                finished: d.end,
                                output: d.output,
                            },
                        );
                    }
                }
            }
            EvSlot::Watchdog => {
                if let Some((wi, id)) = events.watch.remove(&aux) {
                    if let Some(a) = workers[wi].assigned.iter().find(|a| a.work.id == id) {
                        TaskCtx::signal_abort(&a.work.ctx.abort_flag());
                        hub.add_control(Counter::WatchdogCancels, 1);
                        if tracer.is_enabled() {
                            tracer.emit_at(
                                wi,
                                t,
                                EventKind::WatchdogCancel {
                                    id,
                                    version: a.work.version,
                                    ran_us: t.saturating_sub(a.start),
                                },
                            );
                        }
                        if let Some(v) = a.work.version {
                            sched.abort_version(v);
                        }
                    }
                }
            }
        }
        if finished_at.is_none() && workload.is_finished() {
            finished_at = Some(t);
        }
        dispatch_all(&mut sched, &mut workers, cfg, cost, t, &mut events, &hub);
    }

    if !workload.is_finished() {
        panic!(
            "simulation deadlock: events exhausted with workload unfinished \
             (ready={}, running={}, arrivals_seen={}/{})",
            sched.ready_len(),
            sched.running_len(),
            arrivals_seen,
            n_inputs,
        );
    }

    // retry_backoff_us reads 0: the simulator retries instantaneously.
    let makespan = finished_at.unwrap_or(last_event_time);
    let metrics = super::run_metrics(&hub, cfg.platform.workers, makespan);
    // Flush any virtual-sampling boundary the last event crossed exactly.
    hub.virtual_tick(last_event_time);

    Ok((workload, metrics))
}

/// Event discriminant kept `Copy + Ord` for the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvSlot {
    Arrival,
    Done,
    DelayedDone,
    Watchdog,
}

/// Fill worker prefetch queues with dispatchable tasks, scheduling their
/// completion events. Per-worker dispatch counts go to `hub`'s lane
/// shards (the simulator's analogue of the threaded executor's ready
/// lanes).
fn dispatch_all(
    sched: &mut Scheduler,
    workers: &mut [WorkerState],
    cfg: &SimConfig,
    cost: &dyn CostModel,
    now: Time,
    events: &mut Events,
    hub: &MetricsHub,
) {
    let tracer = &cfg.tracer;
    loop {
        if !sched.has_dispatchable() {
            return;
        }
        // Pick the worker with the earliest pipeline end among those with a
        // free prefetch slot; ties broken by index (determinism).
        let candidate = workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.assigned.len() < cfg.platform.prefetch_depth)
            .min_by_key(|(i, w)| (w.pipeline_end.max(now), *i))
            .map(|(i, _)| i);
        let Some(wi) = candidate else { return };
        // Multiple-buffering hint for the conservative policy: on a deep-
        // pipeline platform, are non-speculative tasks anywhere in the
        // worker queues (bound or executing)? The paper observes that on
        // the Cell "this deep pipeline always offers some non-speculative
        // task, and little speculation is done overall" under the
        // conservative policy; with single-slot dispatch (x86) the hint is
        // always false and conservative reverts to ready-queue idleness.
        let normal_pending_elsewhere = cfg.platform.prefetch_depth > 1
            && workers.iter().any(|w| {
                w.assigned
                    .iter()
                    .any(|a| a.work.class == crate::task::TaskClass::Regular)
            });
        let Some(work) = sched.dispatch_with(normal_pending_elsewhere) else {
            return;
        };
        let mut c = cfg.platform.task_cost_us(cost, work.name, work.bytes);
        let mut inject_panic = false;
        match cfg.faults.draw(FaultSite::TaskBody) {
            Some(FaultKind::PanicTask) => inject_panic = true,
            Some(FaultKind::Stall { us }) => c += us,
            _ => {}
        }
        sched.charge(work.class, c);
        hub.add(wi, Counter::LaneDispatch, 1);
        if tracer.is_enabled() {
            tracer.emit_at(
                wi,
                now,
                EventKind::Dispatch {
                    id: work.id,
                    name: work.name,
                    class: work.class.trace_tag(),
                    version: work.version,
                    lane: wi as u32,
                },
            );
        }
        let w = &mut workers[wi];
        let start = w.pipeline_end.max(now);
        let end = start + c.max(1);
        if let Some(wd) = cfg.watchdog {
            // The cancel instant is known at dispatch: the task's virtual
            // occupancy exceeds the deadline iff the watchdog fires.
            if c.max(1) > wd.deadline_us {
                let key = events.fresh_key();
                events.watch.insert(key, (wi, work.id));
                events.push(start + wd.deadline_us, key, EvSlot::Watchdog);
            }
        }
        w.pipeline_end = end;
        w.assigned.push_back(Assigned {
            work,
            start,
            end,
            inject_panic,
        });
        events.push(end, wi, EvSlot::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{x86_smp, FixedCost};
    use crate::task::{payload, TaskSpec};
    use tvs_faults::FaultPlan;
    use tvs_trace::{SpanOutcome, TaskSpan};

    fn block(i: usize, t: Time, len: usize) -> InputBlock {
        InputBlock {
            index: i,
            arrival: t,
            data: vec![i as u8; len].into(),
        }
    }

    /// `cfg` with a fresh event tracer sized for its platform.
    fn traced(cfg: &SimConfig) -> SimConfig {
        SimConfig {
            tracer: Tracer::enabled(cfg.platform.workers),
            ..cfg.clone()
        }
    }

    /// The task spans of `cfg`'s drained event log, which lost nothing.
    fn spans(cfg: &SimConfig) -> Vec<TaskSpan> {
        let log = cfg.tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.dropped, 0);
        log.task_spans()
    }

    /// One task per block; finishes when all are processed.
    struct PerBlock {
        n: usize,
        seen: usize,
        completions: Vec<(u64, Time)>,
    }

    impl Workload for PerBlock {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            ctx.spawn(TaskSpec::regular(
                "work",
                0,
                b.data.len(),
                b.index as u64,
                move |_| payload(()),
            ));
        }
        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.seen += 1;
            self.completions.push((done.tag, done.finished));
        }
        fn is_finished(&self) -> bool {
            self.seen == self.n
        }
    }

    #[test]
    fn single_worker_serialises() {
        let w = PerBlock {
            n: 3,
            seen: 0,
            completions: vec![],
        };
        let cfg = traced(&SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative));
        let inputs = vec![block(0, 0, 10), block(1, 0, 10), block(2, 0, 10)];
        let (wl, m) = try_run(w, &cfg, &FixedCost(9), inputs).expect("run completes");
        // Each task costs 9 + 1 (dispatch overhead) = 10.
        let ends: Vec<Time> = wl.completions.iter().map(|c| c.1).collect();
        assert_eq!(ends, vec![10, 20, 30]);
        assert_eq!(m.makespan, 30);
        assert_eq!(m.tasks_delivered, 3);
        assert_eq!(m.busy_us, 30);
        assert!((m.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(spans(&cfg).len(), 3);
    }

    #[test]
    fn parallel_workers_overlap() {
        let w = PerBlock {
            n: 4,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(4), DispatchPolicy::NonSpeculative);
        let inputs = (0..4).map(|i| block(i, 0, 10)).collect();
        let (_, m) = try_run(w, &cfg, &FixedCost(9), inputs).expect("run completes");
        assert_eq!(m.makespan, 10, "4 tasks on 4 workers run concurrently");
    }

    #[test]
    fn arrivals_gate_task_starts() {
        let w = PerBlock {
            n: 2,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(4), DispatchPolicy::NonSpeculative);
        let inputs = vec![block(0, 0, 10), block(1, 100, 10)];
        let (wl, m) = try_run(w, &cfg, &FixedCost(4), inputs).expect("run completes");
        let mut ends: Vec<Time> = wl.completions.iter().map(|c| c.1).collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![5, 105]);
        assert_eq!(m.makespan, 105);
    }

    #[test]
    fn deterministic_traces() {
        let mk = || PerBlock {
            n: 16,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(3), DispatchPolicy::NonSpeculative);
        let inputs: Vec<InputBlock> = (0..16).map(|i| block(i, (i as u64) * 3, 64)).collect();
        let run = |inputs| {
            let cfg = traced(&cfg);
            let (_, m) = try_run(mk(), &cfg, &FixedCost(7), inputs).expect("run completes");
            (m, spans(&cfg))
        };
        let (a, a_spans) = run(inputs.clone());
        let (b, b_spans) = run(inputs);
        assert_eq!(a_spans, b_spans);
        assert_eq!(a.makespan, b.makespan);
    }

    /// A workload that spawns a speculative task and aborts it; the
    /// discarded completion must not reach `on_complete`.
    struct AbortingWl {
        phase: u8,
    }

    impl Workload for AbortingWl {
        fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
            ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, 0, |_| payload(())));
            ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
        }
        fn on_input(&mut self, _ctx: &mut dyn SchedCtx, _b: InputBlock) {}
        fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
            match done.name {
                "normal" => {
                    // Abort version 1 while its task is in flight (if still
                    // queued it is deleted instead; with 2 workers both run
                    // concurrently, so this exercises the in-flight path).
                    ctx.abort_version(1);
                    self.phase = 1;
                }
                "spec" => panic!("discarded speculative output must not be delivered"),
                _ => unreachable!(),
            }
        }
        fn is_finished(&self) -> bool {
            self.phase == 1
        }
    }

    /// 'spec' runs 50 µs, everything else 2 µs.
    struct SpecCost;
    impl CostModel for SpecCost {
        fn cost_us(&self, name: &str, _bytes: usize) -> Time {
            if name == "spec" {
                50
            } else {
                2
            }
        }
    }

    #[test]
    fn aborted_version_outputs_are_discarded() {
        // Both tasks start at t=0 on separate workers; 'normal' is cheap
        // and finishes first, aborting version 1 while 'spec' is still in
        // flight; 'spec''s completion must be discarded.
        let cfg = traced(&SimConfig::new(x86_smp(2), DispatchPolicy::Aggressive));
        let (_, m) =
            try_run(AbortingWl { phase: 0 }, &cfg, &SpecCost, vec![]).expect("run completes");
        assert_eq!(m.tasks_discarded, 1);
        assert_eq!(m.rollbacks, 1);
        assert!(m.wasted_us >= 50, "discarded work must count as waste");
        let spec = spans(&cfg).into_iter().find(|t| t.name == "spec").unwrap();
        assert!(spec.discarded());
    }

    #[test]
    fn a_faulted_speculative_body_is_a_faulted_span_charged_as_waste() {
        struct SpecPanics {
            done: bool,
        }
        impl Workload for SpecPanics {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, 0, |_| -> Payload {
                    panic!("speculative body fault")
                }));
                ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
                self.done = true;
            }
            fn is_finished(&self) -> bool {
                self.done
            }
        }
        let cfg = traced(&SimConfig::new(x86_smp(2), DispatchPolicy::Aggressive));
        let (_, m) = try_run(SpecPanics { done: false }, &cfg, &SpecCost, vec![])
            .expect("a speculative fault aborts its version");
        assert_eq!(m.faults, 1);
        let spans = spans(&cfg);
        let spec = spans.iter().find(|t| t.name == "spec").unwrap();
        assert_eq!(spec.outcome, SpanOutcome::Faulted);
        assert!(spec.busy_us() >= 50);
        assert_eq!(m.wasted_us, spec.busy_us());
        assert_eq!(m.busy_us, spans.iter().map(|t| t.busy_us()).sum::<Time>());
    }

    #[test]
    fn a_delayed_completion_ends_with_the_verdict_at_delivery() {
        // Every completion is held back 100 µs: 'normal' is delivered and
        // aborts version 1 after 'spec''s body has finished but before
        // its own delayed delivery, so the scheduler discards 'spec' —
        // and its task-end, stamped at the body's end, says so.
        let delay = FaultPlan::new(1).with_rule(
            FaultSite::Completion,
            FaultKind::DelayCompletion { us: 100 },
            1.0,
        );
        let cfg = SimConfig {
            faults: FaultInjector::new(delay),
            ..traced(&SimConfig::new(x86_smp(2), DispatchPolicy::Aggressive))
        };
        let (_, m) =
            try_run(AbortingWl { phase: 0 }, &cfg, &SpecCost, vec![]).expect("run completes");
        assert_eq!((m.tasks_delivered, m.tasks_discarded), (1, 1));
        let spans = spans(&cfg);
        let spec = spans.iter().find(|t| t.name == "spec").unwrap();
        assert_eq!(spec.outcome, SpanOutcome::Discarded);
        assert!(spec.end < 100, "stamped at the body's end, not at delivery");
        assert_eq!(m.wasted_us, spec.busy_us());
        assert_eq!(m.busy_us, spans.iter().map(|t| t.busy_us()).sum::<Time>());
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn deadlock_is_diagnosed() {
        struct NeverDone;
        impl Workload for NeverDone {
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                false
            }
        }
        let cfg = SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative);
        let _ = try_run(NeverDone, &cfg, &FixedCost(1), vec![]).expect("run completes");
    }

    #[test]
    fn prefetch_depth_binds_work_early() {
        // 1 worker, prefetch 2: two tasks are bound to the worker before
        // the first finishes; a later, deeper (higher-priority) task cannot
        // jump the prefetch queue. With prefetch 1 it could.
        struct TwoPhase {
            seen: Vec<&'static str>,
        }
        impl Workload for TwoPhase {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("a", 0, 0, 0, |_| payload(())));
                ctx.spawn(TaskSpec::regular("b", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                if done.name == "a" {
                    // Deep task arrives while 'b' is already prefetched.
                    ctx.spawn(TaskSpec::regular("deep", 99, 0, 2, |_| payload(())));
                }
                self.seen.push(done.name);
            }
            fn is_finished(&self) -> bool {
                self.seen.len() == 3
            }
        }

        let mut plat = x86_smp(1);
        plat.prefetch_depth = 2;
        let cfg = SimConfig::new(plat, DispatchPolicy::NonSpeculative);
        let (wl, _) =
            try_run(TwoPhase { seen: vec![] }, &cfg, &FixedCost(5), vec![]).expect("run completes");
        assert_eq!(
            wl.seen,
            vec!["a", "b", "deep"],
            "prefetched 'b' runs before 'deep'"
        );

        let cfg1 = SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative);
        let (wl1, _) = try_run(TwoPhase { seen: vec![] }, &cfg1, &FixedCost(5), vec![])
            .expect("run completes");
        assert_eq!(
            wl1.seen,
            vec!["a", "deep", "b"],
            "without prefetch, depth wins"
        );
    }

    #[test]
    fn traced_run_records_lifecycle_in_virtual_time() {
        let w = PerBlock {
            n: 3,
            seen: 0,
            completions: vec![],
        };
        let tracer = Tracer::enabled(1);
        let cfg = SimConfig {
            tracer: tracer.clone(),
            ..SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative)
        };
        let inputs = vec![block(0, 0, 10), block(1, 0, 10), block(2, 0, 10)];
        let (_, m) = try_run(w, &cfg, &FixedCost(9), inputs).expect("run completes");
        assert_eq!(m.makespan, 30);
        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.timebase, tvs_trace::Timebase::Virtual);
        assert_eq!(log.count("dispatch"), 3);
        assert_eq!(log.count("task-start"), 3);
        assert_eq!(log.count("task-end"), 3);
        // Task intervals are the exact simulated occupancy: 0-10, 10-20,
        // 20-30 on the single worker.
        let ends: Vec<u64> = log
            .events
            .iter()
            .filter(|e| e.kind.label() == "task-end")
            .map(|e| e.virt_us)
            .collect();
        assert_eq!(ends, vec![10, 20, 30]);
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn traced_and_untraced_runs_agree_on_metrics() {
        let mk = || PerBlock {
            n: 8,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(2), DispatchPolicy::NonSpeculative);
        let inputs: Vec<InputBlock> = (0..8).map(|i| block(i, (i as u64) * 2, 32)).collect();
        let (_, plain) = try_run(mk(), &cfg, &FixedCost(5), inputs.clone()).expect("run completes");
        let traced_cfg = traced(&cfg);
        let (_, traced) = try_run(mk(), &traced_cfg, &FixedCost(5), inputs).expect("run completes");
        assert_eq!(plain, traced);
        // The traced run's task record accounts for the untraced run's
        // busy time, task by task.
        let spans = spans(&traced_cfg);
        assert_eq!(spans.len() as u64, plain.tasks_delivered);
        assert_eq!(
            spans.iter().map(|t| t.busy_us()).sum::<u64>(),
            plain.busy_us
        );
    }

    #[test]
    fn makespan_stops_at_finish_even_with_stragglers() {
        // A workload that is finished after the first completion, while a
        // second (discarded-irrelevant) task still occupies the worker.
        struct EarlyExit {
            done: bool,
        }
        impl Workload for EarlyExit {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("fast", 10, 0, 0, |_| payload(())));
                ctx.spawn(TaskSpec::regular("slow", 0, 1 << 20, 1, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, done: Completion) {
                if done.name == "fast" {
                    self.done = true;
                }
            }
            fn is_finished(&self) -> bool {
                self.done
            }
        }
        struct ByteCost;
        impl CostModel for ByteCost {
            fn cost_us(&self, _n: &str, bytes: usize) -> Time {
                1 + bytes as Time / 1024
            }
        }
        let cfg = SimConfig::new(x86_smp(2), DispatchPolicy::NonSpeculative);
        let (_, m) =
            try_run(EarlyExit { done: false }, &cfg, &ByteCost, vec![]).expect("run completes");
        assert!(
            m.makespan < 100,
            "makespan {} should not wait for the straggler",
            m.makespan
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_and_recover() {
        // Same plan seed twice: identical metrics, identical workload
        // results, and the faults actually fired.
        let mk = || PerBlock {
            n: 12,
            seen: 0,
            completions: vec![],
        };
        let cfg = SimConfig::new(x86_smp(2), DispatchPolicy::NonSpeculative);
        let plan = || {
            FaultPlan::new(77)
                .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.3)
                .with_rule(FaultSite::TaskBody, FaultKind::Stall { us: 40 }, 0.3)
                .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 0.3)
                .with_rule(
                    FaultSite::Completion,
                    FaultKind::DelayCompletion { us: 25 },
                    0.3,
                )
                .with_rule(FaultSite::Feeder, FaultKind::Stall { us: 15 }, 0.3)
        };
        let chaos = || SimConfig {
            faults: FaultInjector::new(plan()),
            ..cfg.clone()
        };
        let inputs: Vec<InputBlock> = (0..12).map(|i| block(i, (i as u64) * 2, 16)).collect();
        let (a_wl, a) =
            try_run(mk(), &chaos(), &FixedCost(5), inputs.clone()).expect("chaos run recovers");
        let (b_wl, b) = try_run(mk(), &chaos(), &FixedCost(5), inputs).expect("chaos run recovers");
        assert_eq!(a, b, "chaos is replayable");
        assert_eq!(a_wl.seen, 12);
        assert_eq!(b_wl.seen, 12);
        assert!(
            a.faults > 0 || a.duplicate_completions > 0,
            "the plan fired something: {a:?}"
        );
    }

    #[test]
    fn exhausted_retries_fail_the_simulated_run() {
        struct AlwaysPanics {
            done: bool,
        }
        impl Workload for AlwaysPanics {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("doomed", 0, 0, 0, |_| -> Payload {
                    panic!("never succeeds")
                }));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
                self.done = true;
            }
            fn is_finished(&self) -> bool {
                self.done
            }
        }
        let cfg = SimConfig::new(x86_smp(1), DispatchPolicy::NonSpeculative);
        let Err(err) = try_run(AlwaysPanics { done: false }, &cfg, &FixedCost(3), vec![]) else {
            panic!("exhausted retries must fail the run");
        };
        assert!(matches!(
            err,
            RunError::TaskFailed {
                name: "doomed",
                attempts: 3,
                ..
            }
        ));
    }

    #[test]
    fn virtual_watchdog_cancels_overlong_speculative_tasks() {
        // A speculative task whose virtual cost exceeds the deadline: the
        // watchdog fires at exactly start + deadline, aborts the version,
        // and the Done event discards the body un-run.
        struct SpecOnly {
            fault_free: bool,
        }
        impl Workload for SpecOnly {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("slow-spec", 0, 1 << 12, 9, 0, |_| {
                    payload(())
                }));
                ctx.spawn(TaskSpec::regular("quick", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, done: Completion) {
                if done.name == "quick" {
                    self.fault_free = true;
                }
            }
            fn is_finished(&self) -> bool {
                self.fault_free
            }
        }
        struct NameCost;
        impl CostModel for NameCost {
            fn cost_us(&self, name: &str, _bytes: usize) -> Time {
                if name == "slow-spec" {
                    10_000
                } else {
                    5
                }
            }
        }
        let tracer = Tracer::enabled(2);
        let cfg = SimConfig {
            tracer: tracer.clone(),
            watchdog: Some(WatchdogConfig {
                deadline_us: 1_000,
                poll_us: 100,
            }),
            ..SimConfig::new(x86_smp(2), DispatchPolicy::Aggressive)
        };
        let (_, m) = try_run(SpecOnly { fault_free: false }, &cfg, &NameCost, vec![])
            .expect("watchdog recovers the run");
        assert_eq!(m.watchdog_cancels, 1);
        assert_eq!(m.rollbacks, 1);
        assert_eq!(m.tasks_discarded, 1);
        let log = tracer.drain().unwrap();
        let cancel = log
            .events
            .iter()
            .find(|e| e.kind.label() == "watchdog-cancel")
            .expect("watchdog-cancel traced");
        assert_eq!(cancel.virt_us, 1_000, "fires at exactly start + deadline");
    }
}
