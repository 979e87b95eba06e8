//! Single-lock thread-pool executor — the pre-sharding baseline.
//!
//! This is the original threaded runtime: every dispatch, completion and
//! SuperTask routing decision happens under one global `Mutex`, and idle
//! workers poll on a 5 ms condvar timeout. It is kept (a) as the comparison
//! point for the `runtime_micro` throughput bench, which measures what the
//! work-stealing executor in [`super::threaded`] buys, and (b) as a third
//! cross-validation target in the executor-equivalence property tests.
//!
//! Fault handling matches [`super::threaded`]: task bodies run under
//! `catch_unwind`, speculative faults are routed through the rollback path
//! ([`crate::sched::Scheduler::fault`] → [`Workload::on_fault`] → version
//! abort), non-speculative faults retry in place with bounded backoff and
//! fail the run with a structured [`RunError`] when exhausted, and
//! poisoned locks are recovered. The fault injector is consulted at the
//! task-body, completion and feeder sites (`DelayCompletion` has no
//! meaning here — completions are routed in-thread — and is ignored).
//! There is no watchdog: the baseline exists for lock-contention
//! comparisons, not for chaos runs.
//!
//! New code should use [`super::threaded::try_run`]; this module is not
//! re-exported at the crate root.

use crate::fault::{self, RunError};
use crate::metrics::RunMetrics;
use crate::sched::{CompletionOutcome, Dispatched, Scheduler};
use crate::task::{Payload, SpecVersion, TaskClass, TaskId, TaskSpec, Time};
use crate::workload::{Completion, FaultNotice, InputBlock, SchedCtx, Workload};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tvs_faults::{FaultInjector, FaultKind, FaultSite};
use tvs_metrics::{Counter, Hist};
use tvs_trace::EventKind;

pub use super::threaded::ThreadedConfig;

struct Inner<W> {
    sched: Scheduler,
    workload: W,
    input_done: bool,
    finished_at: Option<Time>,
    /// Set when a non-speculative task exhausted its retries.
    failed: Option<RunError>,
}

struct Shared<W> {
    inner: Mutex<Inner<W>>,
    cv: Condvar,
    start: Instant,
    faults: FaultInjector,
}

impl<W> Shared<W> {
    fn now(&self) -> Time {
        self.start.elapsed().as_micros() as Time
    }
}

struct LockedCtx<'a> {
    sched: &'a mut Scheduler,
    now: Time,
}

impl SchedCtx for LockedCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }
    fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
        self.sched.spawn(spec)
    }
    fn abort_version(&mut self, version: SpecVersion) {
        self.sched.abort_version(version);
    }
}

fn run_complete<W: Workload>(inner: &mut Inner<W>, now: Time) -> bool {
    let done = inner.failed.is_some()
        || (inner.workload.is_finished() && inner.input_done && inner.sched.is_idle());
    if done && inner.finished_at.is_none() {
        inner.finished_at = Some(now);
    }
    done
}

/// One body attempt: act out any fault injected at the task-body site,
/// then run the body under `catch_unwind`.
fn run_attempt(faults: &FaultInjector, work: &mut Dispatched) -> std::thread::Result<Payload> {
    let mut boom = false;
    match faults.draw(FaultSite::TaskBody) {
        Some(FaultKind::PanicTask) => boom = true,
        Some(FaultKind::Stall { us }) => fault::stall_wall(us, &work.ctx),
        _ => {}
    }
    let run = &mut work.run;
    let ctx = &work.ctx;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if boom {
            panic!("injected task-body fault");
        }
        (run)(ctx)
    }))
}

/// Run `workload` on `cfg.workers` real threads with the single-lock
/// dispatch path. Semantics are identical to [`super::threaded::try_run`];
/// only the synchronisation strategy differs. `cfg.watchdog` and
/// `cfg.supervisor` are not consulted.
///
/// The baseline has no lanes or steals: each worker pops straight off the
/// central queue, so its dispatch event carries the worker index as the
/// "lane" and the task-end `discarded` flag is exact (the completion
/// outcome is decided in-thread under the global lock). It counts no lane
/// dispatches, so [`RunMetrics::lane_dispatches`] reads back its
/// documented per-worker zeros.
pub fn try_run<W, I>(
    workload: W,
    cfg: &ThreadedConfig,
    inputs: I,
) -> Result<(W, RunMetrics), RunError>
where
    W: Workload + Send + 'static,
    I: IntoIterator<Item = (usize, Arc<[u8]>)> + Send + 'static,
    I::IntoIter: Send,
{
    assert!(cfg.workers > 0, "need at least one worker");
    let tracer = &cfg.tracer;
    let hub = super::observe_run(tracer, &cfg.hub, cfg.workers, cfg.policy);
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            sched: {
                let mut s = Scheduler::with_tracer(cfg.policy, tracer.clone());
                s.set_metrics(hub.clone());
                s
            },
            workload,
            input_done: false,
            finished_at: None,
            failed: None,
        }),
        cv: Condvar::new(),
        start: Instant::now(),
        faults: cfg.faults.clone(),
    });

    {
        let mut inner = fault::lock_recover(&shared.inner);
        let now = shared.now();
        let Inner {
            sched, workload, ..
        } = &mut *inner;
        workload.on_start(&mut LockedCtx { sched, now });
    }

    // Input feeder thread (the paper's first auxiliary thread).
    let feeder = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for (index, data) in inputs {
                if let Some(FaultKind::Stall { us }) = shared.faults.draw(FaultSite::Feeder) {
                    std::thread::sleep(Duration::from_micros(us));
                }
                let now = shared.now();
                let mut inner = fault::lock_recover(&shared.inner);
                // A failing run stops consuming input.
                if inner.failed.is_some() {
                    break;
                }
                let Inner {
                    sched, workload, ..
                } = &mut *inner;
                workload.on_input(
                    &mut LockedCtx { sched, now },
                    InputBlock {
                        index,
                        arrival: now,
                        data,
                    },
                );
                drop(inner);
                shared.cv.notify_all();
            }
            let now = shared.now();
            let mut inner = fault::lock_recover(&shared.inner);
            let Inner {
                sched,
                workload,
                input_done,
                ..
            } = &mut *inner;
            workload.on_input_done(&mut LockedCtx { sched, now });
            *input_done = true;
            drop(inner);
            shared.cv.notify_all();
        })
    };

    // Worker threads: dispatch, execution and completion routing all take
    // the same global lock; only the body itself runs outside it.
    let retry = cfg.retry;
    let workers: Vec<_> = (0..cfg.workers)
        .map(|me| {
            let shared = Arc::clone(&shared);
            let tracer = tracer.clone();
            let hub = hub.clone();
            std::thread::spawn(move || {
                // Profiler state clocks: `mark` is the end of the last
                // charged interval; time between marks is attributed to
                // whichever state the worker was in (acquire = steal,
                // body = run/check, routing under the lock = commit,
                // condvar nap = park). All stamps reuse `shared.now()`
                // calls the loop already makes where possible.
                let mut mark = shared.now();
                loop {
                    let mut inner = fault::lock_recover(&shared.inner);
                    if let Some(mut work) = inner.sched.dispatch() {
                        drop(inner);
                        if tracer.is_enabled() {
                            tracer.emit(
                                me,
                                EventKind::Dispatch {
                                    id: work.id,
                                    name: work.name,
                                    class: work.class.trace_tag(),
                                    version: work.version,
                                    lane: me as u32,
                                },
                            );
                            tracer.emit(
                                me,
                                EventKind::TaskStart {
                                    id: work.id,
                                    name: work.name,
                                    version: work.version,
                                },
                            );
                        }
                        let started = shared.now();
                        hub.add(me, Counter::TimeStealUs, started.saturating_sub(mark));
                        // Panic-isolated body: catch, report, retry in place
                        // (non-speculative only) with bounded backoff.
                        let mut attempt = 0u32;
                        let outcome = loop {
                            match run_attempt(&shared.faults, &mut work) {
                                Ok(out) => break Ok(out),
                                Err(_) => {
                                    hub.add(me, Counter::Faults, 1);
                                    if tracer.is_enabled() {
                                        tracer.emit(
                                            me,
                                            EventKind::TaskFault {
                                                id: work.id,
                                                name: work.name,
                                                version: work.version,
                                                attempt,
                                            },
                                        );
                                    }
                                    if work.version.is_some()
                                        || attempt + 1 >= retry.max_attempts.max(1)
                                    {
                                        break Err(attempt);
                                    }
                                    attempt += 1;
                                    hub.add(me, Counter::Retries, 1);
                                    // Jittered per-task backoff: correlated
                                    // faults must not wake in lockstep.
                                    let wait = retry.backoff_jittered_us(attempt, work.id);
                                    hub.add(me, Counter::RetryBackoffUs, wait);
                                    std::thread::sleep(Duration::from_micros(wait));
                                }
                            }
                        };
                        let finished = shared.now();
                        let busy = finished.saturating_sub(started);
                        hub.add(me, Counter::BusyUs, busy);
                        let clock = if work.class == TaskClass::Check {
                            Counter::TimeCheckUs
                        } else {
                            Counter::TimeRunUs
                        };
                        hub.add(me, clock, busy);
                        hub.record(Hist::RunSliceUs, busy);
                        let mut inner = fault::lock_recover(&shared.inner);
                        inner.sched.charge(work.class, busy);
                        let output = match outcome {
                            Ok(output) => output,
                            Err(attempt) => {
                                // Reuse the misspeculation path (see the module
                                // docs): reclaim, notify, abort or fail.
                                hub.add(me, Counter::WastedUs, busy);
                                if let Some(vers) = inner.sched.fault(work.id) {
                                    let Inner {
                                        sched, workload, ..
                                    } = &mut *inner;
                                    let mut ctx = LockedCtx {
                                        sched,
                                        now: finished,
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
                                            ctx.abort_version(v);
                                        }
                                        None => {
                                            inner.failed.get_or_insert(RunError::TaskFailed {
                                                name: work.name,
                                                id: work.id,
                                                attempts: attempt + 1,
                                            });
                                        }
                                    }
                                }
                                let done = run_complete(&mut inner, finished);
                                drop(inner);
                                mark = shared.now();
                                hub.add(me, Counter::TimeCommitUs, mark.saturating_sub(finished));
                                shared.cv.notify_all();
                                if done {
                                    return;
                                }
                                continue;
                            }
                        };
                        let duplicate = matches!(
                            shared.faults.draw(FaultSite::Completion),
                            Some(FaultKind::DuplicateCompletion)
                        );
                        let outcome = inner.sched.try_complete(work.id);
                        if duplicate {
                            let _ = inner.sched.try_complete(work.id);
                        }
                        if tracer.is_enabled() && outcome.is_some() {
                            tracer.emit(
                                me,
                                EventKind::TaskEnd {
                                    id: work.id,
                                    name: work.name,
                                    version: work.version,
                                    tag: work.tag,
                                    discarded: outcome == Some(CompletionOutcome::Discard),
                                },
                            );
                        }
                        match outcome {
                            None => {}
                            Some(CompletionOutcome::Discard) => {
                                hub.add(me, Counter::WastedUs, busy);
                            }
                            Some(CompletionOutcome::Deliver) => {
                                let Inner {
                                    sched, workload, ..
                                } = &mut *inner;
                                workload.on_complete(
                                    &mut LockedCtx {
                                        sched,
                                        now: finished,
                                    },
                                    Completion {
                                        id: work.id,
                                        name: work.name,
                                        version: work.version,
                                        tag: work.tag,
                                        started,
                                        finished,
                                        output,
                                    },
                                );
                            }
                        }
                        let done = run_complete(&mut inner, finished);
                        drop(inner);
                        mark = shared.now();
                        hub.add(me, Counter::TimeCommitUs, mark.saturating_sub(finished));
                        shared.cv.notify_all();
                        if done {
                            return;
                        }
                    } else {
                        if run_complete(&mut inner, shared.now()) {
                            drop(inner);
                            shared.cv.notify_all();
                            return;
                        }
                        // Re-check periodically: completion conditions can
                        // change without a notify in rare shutdown races.
                        let napped = shared.now();
                        hub.add(me, Counter::TimeStealUs, napped.saturating_sub(mark));
                        let _ = shared
                            .cv
                            .wait_timeout(inner, Duration::from_millis(5))
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        mark = shared.now();
                        let idle = mark.saturating_sub(napped);
                        hub.add(me, Counter::TimeParkUs, idle);
                        hub.record(Hist::IdleSliceUs, idle);
                    }
                }
            })
        })
        .collect();

    let mut lost: Option<&'static str> = None;
    if feeder.join().is_err() {
        lost = Some("feeder");
    }
    for w in workers {
        if w.join().is_err() {
            lost = lost.or(Some("worker"));
        }
    }

    let shared = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("threads gone, shared state uniquely owned"));
    let inner = fault::into_inner_recover(shared.inner);
    if let Some(e) = inner.failed {
        return Err(e);
    }
    if let Some(what) = lost {
        return Err(RunError::WorkerLost { what });
    }
    let makespan = inner
        .finished_at
        .unwrap_or_else(|| shared.start.elapsed().as_micros() as Time);
    Ok((
        inner.workload,
        super::run_metrics(&hub, cfg.workers, makespan),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DispatchPolicy;
    use crate::task::payload;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tvs_trace::Tracer;

    struct Summer {
        n: usize,
        seen: usize,
        total: u64,
    }

    impl Workload for Summer {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            let data = b.data.clone();
            ctx.spawn(TaskSpec::regular(
                "sum",
                0,
                data.len(),
                b.index as u64,
                move |_| payload(data.iter().map(|&x| x as u64).sum::<u64>()),
            ));
        }
        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.total += *done.output.downcast::<u64>().unwrap();
            self.seen += 1;
        }
        fn is_finished(&self) -> bool {
            self.seen == self.n
        }
    }

    #[test]
    fn baseline_sums_all_blocks() {
        let blocks: Vec<(usize, Arc<[u8]>)> =
            (0..32).map(|i| (i, vec![i as u8; 100].into())).collect();
        let expect: u64 = (0..32u64).map(|i| i * 100).sum();
        let cfg = ThreadedConfig::new(4, DispatchPolicy::NonSpeculative);
        let (w, m) = try_run(
            Summer {
                n: 32,
                seen: 0,
                total: 0,
            },
            &cfg,
            blocks,
        )
        .expect("run completes");
        assert_eq!(w.total, expect);
        assert_eq!(m.tasks_delivered, 32);
        assert_eq!(
            m.lane_dispatches,
            vec![0; 4],
            "baseline reports explicit per-worker zeros, not an empty vec"
        );
        assert_eq!(m.lane_imbalance(), 0.0);
        assert_eq!(m.steals, 0);
    }

    #[test]
    fn baseline_traced_run_records_exact_lifecycle() {
        let blocks: Vec<(usize, Arc<[u8]>)> =
            (0..8).map(|i| (i, vec![i as u8; 32].into())).collect();
        let tracer = Tracer::enabled(2);
        let cfg = ThreadedConfig {
            tracer: tracer.clone(),
            ..ThreadedConfig::new(2, DispatchPolicy::NonSpeculative)
        };
        let (w, m) = try_run(
            Summer {
                n: 8,
                seen: 0,
                total: 0,
            },
            &cfg,
            blocks,
        )
        .expect("run completes");
        assert_eq!(w.seen, 8);
        assert_eq!(m.tasks_delivered, 8);
        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.count("dispatch"), 8);
        assert_eq!(log.count("task-start"), 8);
        assert_eq!(log.count("task-end"), 8);
        assert_eq!(log.count("steal"), 0, "baseline never steals");
    }

    #[test]
    fn baseline_retries_panicking_regular_task() {
        struct Flaky {
            done: bool,
        }
        impl Workload for Flaky {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                let tries = AtomicU32::new(0);
                ctx.spawn(TaskSpec::regular("flaky", 0, 0, 0, move |_| {
                    if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("first attempt fails");
                    }
                    payload(())
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
        let cfg = ThreadedConfig::new(2, DispatchPolicy::NonSpeculative);
        let (w, m) = try_run(
            Flaky { done: false },
            &cfg,
            Vec::<(usize, Arc<[u8]>)>::new(),
        )
        .expect("one retry recovers");
        assert!(w.done);
        assert_eq!(m.faults, 1);
        assert_eq!(m.task_retries, 1);
        assert_eq!(m.tasks_delivered, 1);
    }

    #[test]
    fn baseline_fails_structured_when_retries_exhaust() {
        struct AlwaysPanics;
        impl Workload for AlwaysPanics {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::regular("doomed", 0, 0, 0, |_| -> Payload {
                    panic!("never succeeds")
                }));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                false
            }
        }
        let cfg = ThreadedConfig::new(2, DispatchPolicy::NonSpeculative);
        let Err(err) = try_run(AlwaysPanics, &cfg, Vec::<(usize, Arc<[u8]>)>::new()) else {
            panic!("exhausted retries must fail the run");
        };
        assert!(matches!(err, RunError::TaskFailed { name: "doomed", .. }));
    }
}
