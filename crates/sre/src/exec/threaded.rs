//! Work-stealing thread-pool executor.
//!
//! Mirrors the paper's x86 SRE deployment — an input-feeder thread pushes
//! blocks into the system, worker threads execute ready tasks, and a
//! dedicated router thread plays the SuperTask role — but, unlike the
//! original single-lock runtime (kept as [`super::baseline`]), nothing on
//! the worker hot path takes the global scheduler lock:
//!
//! * **Sharded dispatch.** A *dispatch pump*, run by whoever already holds
//!   the commit lock (feeder on input, router on completion, or an idle
//!   worker that `try_lock`s it — work conservation without ever blocking
//!   a worker on the lock), batches [`Scheduler::dispatch_with`] pops out
//!   of the central ready queue into per-worker *ready lanes* (bounded at
//!   4× the worker count so policy decisions stay fresh). Pushes prefer
//!   lanes whose workers are awake; workers pop their own lane from the
//!   front and steal from other lanes' backs when theirs runs dry — tasks
//!   here are coarse-grain (tens of µs to ms), so a `Mutex<VecDeque>` per
//!   lane is plenty and keeps the crate `forbid(unsafe_code)`-clean.
//! * **Epoch-checked rollback.** Rollback stays O(1): [`Scheduler::
//!   abort_version`] never chases entries already bound into lanes. Instead
//!   every batch is stamped with the global abort epoch ([`AtomicU64`]); a
//!   version abort bumps the epoch, and a worker re-validates any stamped
//!   task whose epoch is stale against its (already signalled) abort flag
//!   before running it. Cancelled tasks are routed back to the scheduler as
//!   ready deletions — the paper's "ready tasks must be deleted" — without
//!   ever executing.
//! * **Parker wake-up.** Idle workers park ([`std::thread::park_timeout`])
//!   instead of polling a condvar every 5 ms, and waking is demand-driven:
//!   the pump unparks *one* worker only while the lane backlog exceeds
//!   what the awake set (capped at `available_parallelism`) will drain
//!   anyway; ramp-up to full width happens by wake chaining on every
//!   successful grab. A hot system never pays a syscall per task the way
//!   the baseline's `notify_all` storm does, and an over-provisioned one
//!   never turns queue depth into futex churn.
//! * **Completion routing off the critical section.** Workers report
//!   results over a bounded **lock-free commit log** — an epoch-reclaimed
//!   MPSC ring ([`super::commit_log::CommitRing`]) — and a single router
//!   thread drains it in batches, charges lanes, runs
//!   `Workload::on_complete` and re-pumps. Reporting a completion costs
//!   one CAS plus one uncontended slot write, so workload routing code
//!   never blocks a worker and the dispatch pump never contends with the
//!   completion drain.
//! * **Panic-isolated task bodies.** Every body runs under `catch_unwind`.
//!   A panicking *speculative* task is treated exactly like a detected
//!   misspeculation: its slot is reclaimed ([`Scheduler::fault`]), the
//!   workload is notified ([`Workload::on_fault`]) so its speculation
//!   manager can replay undo journals, and the version is aborted through
//!   the regular rollback path. A panicking *non-speculative* task is
//!   retried in place with bounded exponential backoff
//!   ([`crate::RetryPolicy`]); only when retries are exhausted does the
//!   run end — with a structured [`RunError`] from [`try_run`], never a
//!   process abort. Poisoned locks are recovered, not propagated: one
//!   caught panic must not wedge the runtime.
//! * **Fault injection & watchdog.** A [`FaultInjector`]
//!   (deterministically seeded, see `tvs-faults`) is consulted at the
//!   task-body, completion and feeder sites, so chaos runs can exercise
//!   the recovery paths on purpose; an optional watchdog thread cancels
//!   tasks that exceed a deadline (signalling their abort flag and, for
//!   speculative tasks, aborting their version so the speculation layer
//!   restarts the work).
//!
//! The figure benches use the deterministic simulator instead; this
//! executor exists to run the system end-to-end on real threads and to
//! cross-validate outputs: both executors (and the baseline) run the *same*
//! `Workload` implementations.

use super::commit_log::{CommitRing, PopOutcome, Producer};
use crate::fault::{self, RetryPolicy, RunError, SupervisorConfig, WatchdogConfig};
use crate::metrics::RunMetrics;
use crate::policy::DispatchPolicy;
use crate::sched::{CompletionOutcome, Dispatched, Scheduler};
use crate::task::{Payload, SpecVersion, TaskClass, TaskCtx, TaskId, TaskSpec, Time};
use crate::workload::{Completion, FaultNotice, InputBlock, SchedCtx, Workload};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tvs_faults::{FaultInjector, FaultKind, FaultSite};
use tvs_metrics::{Counter, Gauge, Hist, MetricsHub};
use tvs_trace::{EventKind, Tracer};

/// Configuration of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Retry policy for panicked non-speculative tasks.
    pub retry: RetryPolicy,
    /// Watchdog over long-running tasks; `None` disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// Worker supervision (heartbeats, quarantine, respawn); `None`
    /// disables it.
    pub supervisor: Option<SupervisorConfig>,
    /// Fault injection plan (disabled by default; see `tvs-faults`).
    pub faults: FaultInjector,
    /// Speculation-lifecycle event sink, stamped in wall-clock µs.
    pub tracer: Tracer,
    /// Live metrics hub, sized for `workers` lanes. Counters, gauges and
    /// histograms stream into it as the run executes, so a [`tvs_metrics::
    /// Sampler`] (or `tvs-top`) can watch mid-run. Left disabled, the
    /// executor counts into a private counters-only registry instead.
    pub hub: MetricsHub,
}

impl ThreadedConfig {
    /// A config with every optional plane off: bounded retry, no
    /// watchdog, no supervision, no fault injection, disabled tracer and
    /// hub.
    pub fn new(workers: usize, policy: DispatchPolicy) -> Self {
        ThreadedConfig {
            workers,
            policy,
            retry: RetryPolicy::default(),
            watchdog: None,
            supervisor: None,
            faults: FaultInjector::disabled(),
            tracer: Tracer::disabled(),
            hub: MetricsHub::disabled(),
        }
    }
}

/// A dispatched task parked in a worker lane, stamped with the abort epoch
/// current when the pump bound it.
struct Ready {
    work: Dispatched,
    epoch: u64,
}

struct Parker {
    /// The lane's current worker thread. A mutex (not a `OnceLock`)
    /// because supervision respawns workers: a replacement installs its
    /// own handle over the quarantined incarnation's.
    handle: Mutex<Option<std::thread::Thread>>,
    parked: AtomicBool,
}

/// What the watchdog sees of the task a worker is currently running.
struct WatchSlot {
    id: TaskId,
    version: Option<SpecVersion>,
    flag: Arc<AtomicBool>,
    started: Time,
    /// Set once the watchdog has cancelled this occupancy, so one stuck
    /// task is cancelled exactly once.
    flagged: bool,
}

/// Lock-free-ish fabric shared by workers: ready lanes, parkers and the
/// counters that let the pump and the policy observe lane state without the
/// commit lock.
struct Fabric {
    lanes: Vec<Mutex<VecDeque<Ready>>>,
    parkers: Vec<Parker>,
    /// Bumped by every version abort; lanes re-validate stale stamps.
    abort_epoch: AtomicU64,
    /// Regular (non-speculative) tasks currently bound in lanes — feeds the
    /// conservative policy's multiple-buffering hint.
    normal_bound: AtomicUsize,
    /// Total tasks currently bound in lanes (pump back-pressure).
    in_lanes: AtomicUsize,
    /// Workers currently parked (see [`Fabric::wake_for_work`]).
    parked_count: AtomicUsize,
    /// How many workers are worth keeping awake: `min(workers,
    /// available_parallelism)`. Waking more than the hardware can run
    /// just converts queue depth into futex churn.
    target_awake: usize,
    /// Yield-spin budget before parking (workers) or blocking (router).
    /// Zero when the hardware has a single execution unit: there,
    /// spinning only steals the quantum from the thread being waited on.
    spin_limit: u32,
    /// Round-robin cursor for lane routing.
    next_lane: AtomicUsize,
    /// Per-lane worker incarnation. Completion reports are stamped with
    /// the reporting incarnation's epoch; the router rejects reports whose
    /// epoch no longer matches (the worker was quarantined), so a
    /// presumed-dead worker's straggling completions are re-fed instead of
    /// double-committed.
    worker_epoch: Vec<AtomicU64>,
    /// Per-lane heartbeat stamp (µs since run start), refreshed at the top
    /// of every worker loop iteration. Only maintained and consulted when
    /// supervision is configured — unsupervised runs skip the stamp (and
    /// the epoch poll) to keep the short-task hot loop free of them.
    heartbeat: Vec<AtomicU64>,
    /// Whether a supervisor thread is running (gates the heartbeat stamp
    /// and quarantine poll in the worker loop).
    supervised: bool,
    done: AtomicBool,
    start: Instant,
    /// Fault injection handle (disabled handle = one branch per site).
    faults: FaultInjector,
    /// Per-worker slot describing the currently-running task, for the
    /// watchdog. Only maintained when the watchdog is configured.
    watch: Vec<Mutex<Option<WatchSlot>>>,
    watchdog_enabled: bool,
    /// Lifecycle event sink. Dispatch events go to the control ring (the
    /// pump always runs under the commit lock, so that ring stays
    /// single-writer); worker-side events go to each worker's own ring.
    tracer: Tracer,
    /// Telemetry registry — *always* backed by a registry here (at least
    /// [`MetricsHub::internal`]): it is the run's only count store, so
    /// [`RunMetrics`] and live snapshots read the same cells and nothing
    /// is counted twice.
    hub: MetricsHub,
}

impl Fabric {
    fn new(
        workers: usize,
        tracer: Tracer,
        faults: FaultInjector,
        watchdog_enabled: bool,
        supervised: bool,
        hub: MetricsHub,
    ) -> Self {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(workers);
        Fabric {
            lanes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            parkers: (0..workers)
                .map(|_| Parker {
                    handle: Mutex::new(None),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            abort_epoch: AtomicU64::new(0),
            normal_bound: AtomicUsize::new(0),
            in_lanes: AtomicUsize::new(0),
            parked_count: AtomicUsize::new(0),
            target_awake: hw.min(workers).max(1),
            spin_limit: if hw > 1 { 3 } else { 0 },
            next_lane: AtomicUsize::new(0),
            worker_epoch: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            heartbeat: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            supervised,
            done: AtomicBool::new(false),
            start: Instant::now(),
            faults,
            watch: (0..workers).map(|_| Mutex::new(None)).collect(),
            watchdog_enabled,
            tracer,
            hub,
        }
    }

    fn now(&self) -> Time {
        self.start.elapsed().as_micros() as Time
    }

    /// Bind a dispatched task into the next lane (round-robin over lanes
    /// whose workers are awake — work bound to a parked worker's lane costs
    /// either a steal scan or a park/unpark round trip, so prefer lanes
    /// that will be drained without one; fall back to plain round-robin
    /// when everyone is parked).
    fn push(&self, work: Dispatched, epoch: u64) {
        let n = self.lanes.len();
        let mut lane = self.next_lane.fetch_add(1, Ordering::Relaxed) % n;
        if self.parkers[lane].parked.load(Ordering::Relaxed) {
            for off in 1..n {
                let alt = (lane + off) % n;
                if !self.parkers[alt].parked.load(Ordering::Relaxed) {
                    lane = alt;
                    break;
                }
            }
        }
        if work.class == TaskClass::Regular {
            self.normal_bound.fetch_add(1, Ordering::SeqCst);
        }
        self.hub.add(lane, Counter::LaneDispatch, 1);
        if self.tracer.is_enabled() {
            self.tracer.emit_control(EventKind::Dispatch {
                id: work.id,
                name: work.name,
                class: work.class.trace_tag(),
                version: work.version,
                lane: lane as u32,
            });
        }
        // `in_lanes` rises before the entry is visible so a racing parker's
        // re-check errs towards staying awake, never towards sleeping on
        // available work.
        self.in_lanes.fetch_add(1, Ordering::SeqCst);
        fault::lock_recover(&self.lanes[lane]).push_back(Ready { work, epoch });
    }

    /// Take work for worker `me`: own lane front first (FCFS within the
    /// lane), then steal from the back of the other lanes. The second
    /// element is the victim lane when the task was stolen.
    fn grab(&self, me: usize) -> Option<(Ready, Option<usize>)> {
        if let Some(r) = fault::lock_recover(&self.lanes[me]).pop_front() {
            self.on_take(&r);
            return Some((r, None));
        }
        let n = self.lanes.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(r) = fault::lock_recover(&self.lanes[victim]).pop_back() {
                self.on_take(&r);
                return Some((r, Some(victim)));
            }
        }
        None
    }

    fn on_take(&self, r: &Ready) {
        self.in_lanes.fetch_sub(1, Ordering::SeqCst);
        if r.work.class == TaskClass::Regular {
            self.normal_bound.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Demand-driven wake-up: unpark *one* worker, and only when the lane
    /// backlog exceeds what the currently-awake workers will drain anyway.
    /// Awake workers always return to [`Fabric::grab`], so they need no
    /// wake; and waking beyond `target_awake` buys no parallelism. Ramp-up
    /// to full width happens by chaining — every successful grab calls this
    /// again, so each woken worker can wake the next while backlog remains.
    ///
    /// Lost-wakeup safety: a parker increments `parked_count` *before*
    /// re-checking `in_lanes`, and the pump raises `in_lanes` *before*
    /// calling this (both SeqCst). If the parker missed the push, this call
    /// is guaranteed to see `parked_count > 0` with zero awake workers and
    /// wake it (or a sibling, which then grabs the work).
    fn wake_for_work(&self) {
        let parked = self.parked_count.load(Ordering::SeqCst);
        if parked == 0 {
            return;
        }
        let awake = self.lanes.len() - parked.min(self.lanes.len());
        if awake < self.target_awake && self.in_lanes.load(Ordering::SeqCst) > awake {
            for p in &self.parkers {
                if p.parked.swap(false, Ordering::SeqCst) {
                    if let Some(t) = fault::lock_recover(&p.handle).as_ref() {
                        t.unpark();
                    }
                    return;
                }
            }
        }
    }

    /// Unpark everyone, parked flag or not (shutdown path).
    fn wake_all(&self) {
        for p in &self.parkers {
            if let Some(t) = fault::lock_recover(&p.handle).as_ref() {
                t.unpark();
            }
        }
    }

    /// Reassign a quarantined worker's ready lane: move its bound entries
    /// to the other lanes (round-robin), where live workers drain them
    /// without waiting for the replacement to spin up. The entries stay
    /// lane-bound throughout, so `in_lanes`/`normal_bound` are untouched
    /// and nothing is re-counted as a dispatch.
    fn reassign_lane(&self, from: usize) {
        let n = self.lanes.len();
        if n <= 1 {
            return;
        }
        let moved: Vec<Ready> = fault::lock_recover(&self.lanes[from]).drain(..).collect();
        for (i, r) in moved.into_iter().enumerate() {
            let to = (from + 1 + (i % (n - 1))) % n;
            fault::lock_recover(&self.lanes[to]).push_back(r);
        }
    }
}

/// Scheduler + workload + run state: everything behind the commit lock.
/// Workers never touch this; only the feeder and the router do.
struct Inner<W> {
    sched: Scheduler,
    workload: W,
    input_done: bool,
    finished_at: Option<Time>,
    /// Set when a non-speculative task exhausted its retries: the run is
    /// failing with this error. Shutdown proceeds through the normal done
    /// path so every thread still joins.
    failed: Option<RunError>,
}

/// How a worker's occupancy of a task ended.
enum BodyResult {
    /// The body ran to completion and produced an output.
    Ran(Payload),
    /// Lane re-validation cancelled the task before it ran.
    Cancelled,
    /// Every body attempt panicked (`attempt` = retries spent; 0 for
    /// speculative tasks, which are never retried).
    Faulted { attempt: u32 },
}

/// A worker's report to the router, stamped with the reporting worker
/// incarnation so the router's epoch gate can reject reports from
/// quarantined workers (see [`Fabric::worker_epoch`]).
struct Finished {
    id: TaskId,
    name: &'static str,
    class: TaskClass,
    version: Option<SpecVersion>,
    tag: u64,
    started: Time,
    finished: Time,
    /// Reporting worker's lane index.
    worker: usize,
    /// Reporting worker's incarnation epoch. `u64::MAX` marks an injected
    /// duplicate-completion echo, which never matches a live epoch — the
    /// echo deliberately exercises the reject path end to end.
    epoch: u64,
    body: BodyResult,
}

/// `SchedCtx` handed to workload callbacks: spawns go straight to the
/// scheduler (the caller holds the commit lock) and version aborts bump the
/// global abort epoch so lanes re-validate.
struct WsCtx<'a> {
    sched: &'a mut Scheduler,
    abort_epoch: &'a AtomicU64,
    now: Time,
}

impl SchedCtx for WsCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }
    fn spawn(&mut self, spec: TaskSpec) -> Option<TaskId> {
        self.sched.spawn(spec)
    }
    fn abort_version(&mut self, version: SpecVersion) {
        self.sched.abort_version(version);
        self.abort_epoch.fetch_add(1, Ordering::SeqCst);
    }
}

/// Refill the worker lanes from the central ready queue. Caller holds the
/// commit lock; the whole batch is stamped with the current abort epoch.
/// Returns whether anything was pushed (i.e. parked workers need a wake).
fn pump<W>(fabric: &Fabric, inner: &mut Inner<W>) -> bool {
    let cap = (4 * fabric.lanes.len()).max(16);
    let epoch = fabric.abort_epoch.load(Ordering::SeqCst);
    let mut pushed = false;
    while fabric.in_lanes.load(Ordering::SeqCst) < cap {
        // Re-read the hint per pop: binding a regular task must make the
        // conservative policy decline speculation for the rest of the batch.
        let hint = fabric.normal_bound.load(Ordering::SeqCst) > 0;
        let Some(work) = inner.sched.dispatch_with(hint) else {
            break;
        };
        fabric.push(work, epoch);
        pushed = true;
    }
    pushed
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
fn run_attempt(fabric: &Fabric, work: &mut Dispatched) -> std::thread::Result<Payload> {
    let mut boom = false;
    match fabric.faults.draw(FaultSite::TaskBody) {
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

/// Spawn one worker thread on lane `me` with incarnation `my_epoch`.
///
/// Named (rather than inline in [`try_run`]) because the
/// supervisor respawns quarantined workers: a replacement runs this same
/// loop on the same lane under a fresh epoch. Every loop iteration stamps
/// the lane's heartbeat and re-checks the lane's current epoch — an
/// incarnation that lost its lane (it was presumed dead, then woke up)
/// exits instead of racing its replacement, and its final report is
/// rejected by the router's epoch gate.
fn spawn_worker<W: Send + 'static>(
    me: usize,
    my_epoch: u64,
    fabric: Arc<Fabric>,
    commit: Arc<Mutex<Inner<W>>>,
    tx: Producer<Finished>,
    retry: RetryPolicy,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("tvs-worker-{me}"))
        .spawn(move || {
            *fault::lock_recover(&fabric.parkers[me].handle) = Some(std::thread::current());
            let mut spins = 0u32;
            // Time-accounting profiler: `mark` is the end of the
            // last charged interval. Work-acquisition time (lane
            // pops, steal scans, spin-yields, re-validation) is
            // charged at the next grab, body time at task end and
            // park time around the futex nap — each boundary
            // reuses a stamp the loop already takes, so the only
            // extra cost is one counter add per interval.
            let mut mark = fabric.now();
            loop {
                // Supervision bookkeeping costs one clock read plus two
                // SeqCst atomics per iteration — real money against µs
                // tasks — so unsupervised runs skip it entirely. `mark`
                // is at most a few spin-yields behind the wall clock
                // (every park and task end refreshes it), which is noise
                // against the heartbeat timeout's 100 ms floor.
                if fabric.supervised {
                    fabric.heartbeat[me].store(mark, Ordering::SeqCst);
                    if fabric.worker_epoch[me].load(Ordering::SeqCst) != my_epoch {
                        // Quarantined: a replacement owns this lane now.
                        return;
                    }
                }
                match fabric.grab(me) {
                    Some((ready, stolen_from)) => {
                        spins = 0;
                        if let Some(victim) = stolen_from {
                            fabric.hub.add(me, Counter::Steal, 1);
                            if fabric.tracer.is_enabled() {
                                fabric.tracer.emit(
                                    me,
                                    EventKind::Steal {
                                        id: ready.work.id,
                                        victim: victim as u32,
                                    },
                                );
                            }
                        }
                        // Wake chain: if backlog remains beyond the
                        // awake set, ramp up one more worker.
                        fabric.wake_for_work();
                        let mut work = ready.work;
                        // Epoch-checked re-validation: only a task
                        // bound before some rollback can be stale,
                        // and only a flagged one is actually dead.
                        let stale = ready.epoch != fabric.abort_epoch.load(Ordering::SeqCst);
                        if stale && work.version.is_some() && work.ctx.aborted() {
                            let now = fabric.now();
                            fabric
                                .hub
                                .add(me, Counter::TimeStealUs, now.saturating_sub(mark));
                            mark = now;
                            let cancelled = Finished {
                                id: work.id,
                                name: work.name,
                                class: work.class,
                                version: work.version,
                                tag: work.tag,
                                started: now,
                                finished: now,
                                worker: me,
                                epoch: my_epoch,
                                body: BodyResult::Cancelled,
                            };
                            if tx.send(cancelled).is_err() {
                                return;
                            }
                            continue;
                        }
                        let traced = fabric.tracer.is_enabled();
                        if traced {
                            fabric.tracer.emit(
                                me,
                                EventKind::TaskStart {
                                    id: work.id,
                                    name: work.name,
                                    version: work.version,
                                },
                            );
                        }
                        let started = fabric.now();
                        fabric
                            .hub
                            .add(me, Counter::TimeStealUs, started.saturating_sub(mark));
                        if fabric.watchdog_enabled {
                            *fault::lock_recover(&fabric.watch[me]) = Some(WatchSlot {
                                id: work.id,
                                version: work.version,
                                flag: work.ctx.abort_flag(),
                                started,
                                flagged: false,
                            });
                        }
                        // Panic-isolated body execution: catch,
                        // report, and — for non-speculative tasks —
                        // retry in place with bounded backoff.
                        // Speculative faults never retry: aborting
                        // the version is cheaper and the
                        // speculation layer restarts the work.
                        let mut attempt = 0u32;
                        let body = loop {
                            match run_attempt(&fabric, &mut work) {
                                Ok(out) => break BodyResult::Ran(out),
                                Err(_) => {
                                    fabric.hub.add(me, Counter::Faults, 1);
                                    if traced {
                                        fabric.tracer.emit(
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
                                        break BodyResult::Faulted { attempt };
                                    }
                                    attempt += 1;
                                    fabric.hub.add(me, Counter::Retries, 1);
                                    // Jittered per-task backoff:
                                    // correlated faults must not
                                    // wake in lockstep.
                                    let wait = retry.backoff_jittered_us(attempt, work.id);
                                    fabric.hub.add(me, Counter::RetryBackoffUs, wait);
                                    std::thread::sleep(Duration::from_micros(wait));
                                }
                            }
                        };
                        if fabric.watchdog_enabled {
                            *fault::lock_recover(&fabric.watch[me]) = None;
                        }
                        let finished = fabric.now();
                        let slice = finished.saturating_sub(started);
                        let clock = if work.class == TaskClass::Check {
                            Counter::TimeCheckUs
                        } else {
                            Counter::TimeRunUs
                        };
                        fabric.hub.add(me, clock, slice);
                        fabric.hub.record(Hist::RunSliceUs, slice);
                        mark = finished;
                        let report = Finished {
                            id: work.id,
                            name: work.name,
                            class: work.class,
                            version: work.version,
                            tag: work.tag,
                            started,
                            finished,
                            worker: me,
                            epoch: my_epoch,
                            body,
                        };
                        if tx.send(report).is_err() {
                            return;
                        }
                    }
                    None => {
                        if fabric.done.load(Ordering::SeqCst) {
                            return;
                        }
                        // Work conservation: refill the lanes
                        // ourselves if the commit lock happens to be
                        // free — a dry spell doesn't have to cost a
                        // round trip through the router thread.
                        if let Ok(mut guard) = commit.try_lock() {
                            let pushed = pump(&fabric, &mut guard);
                            drop(guard);
                            if pushed {
                                continue;
                            }
                        }
                        // Spin-then-park: a couple of yields lets
                        // the feeder/router run and refill before we
                        // pay the (µs-scale) park/unpark futex trip.
                        if spins < fabric.spin_limit {
                            spins += 1;
                            std::thread::yield_now();
                            continue;
                        }
                        spins = 0;
                        let p = &fabric.parkers[me];
                        // Dekker-style handshake with the pump: set
                        // parked (flag and count), then re-check;
                        // the pump pushes, then checks the count.
                        // SeqCst total order guarantees at least one
                        // side sees the other, so no wake-up is
                        // lost. The timeout is belt-and-braces only.
                        p.parked.store(true, Ordering::SeqCst);
                        fabric.parked_count.fetch_add(1, Ordering::SeqCst);
                        if fabric.in_lanes.load(Ordering::SeqCst) == 0
                            && !fabric.done.load(Ordering::SeqCst)
                        {
                            let traced = fabric.tracer.is_enabled();
                            if traced {
                                fabric.tracer.emit(me, EventKind::Park);
                            }
                            let napped = fabric.now();
                            fabric
                                .hub
                                .add(me, Counter::TimeStealUs, napped.saturating_sub(mark));
                            std::thread::park_timeout(Duration::from_millis(100));
                            mark = fabric.now();
                            let idle = mark.saturating_sub(napped);
                            fabric.hub.add(me, Counter::TimeParkUs, idle);
                            fabric.hub.record(Hist::IdleSliceUs, idle);
                            if traced {
                                fabric.tracer.emit(me, EventKind::Unpark);
                            }
                        }
                        p.parked.store(false, Ordering::SeqCst);
                        fabric.parked_count.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        })
        .expect("failed to spawn worker thread")
}

/// Run `workload` on `cfg.workers` real threads, feeding it the blocks
/// yielded by `inputs` (which is consumed on a dedicated feeder thread and
/// may block to pace arrivals, e.g. [`tvs-iosim`'s paced
/// iterator](https://docs.rs/tvs-iosim)), with the tracing, metrics and
/// fault-handling planes `cfg` switches on. Returns the finished workload
/// and the run metrics, or a structured [`RunError`] when the run cannot
/// complete.
///
/// Dispatch, predictor/check/commit and rollback events are emitted on the
/// control ring (their emitters hold the commit lock, keeping that ring
/// single-writer); steal, task-start, task-fault and park/unpark events
/// land on the emitting worker's own ring. Timestamps are wall-clock µs
/// from the tracer's epoch. The router emits each task-end on the control
/// ring when it routes the completion, stamped at the body's end, so its
/// `discarded` flag is the scheduler's verdict — the same one
/// [`RunMetrics`] counts.
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
    let tracer = cfg.tracer.clone();
    let hub = super::observe_run(&tracer, &cfg.hub, cfg.workers, cfg.policy);
    let fabric = Arc::new(Fabric::new(
        cfg.workers,
        tracer.clone(),
        cfg.faults.clone(),
        // The supervisor also needs the watch slots: quarantining a wedged
        // worker signals the abort flag of whatever it was running, which
        // is what unsticks abort-aware bodies and injected stalls.
        cfg.watchdog.is_some() || cfg.supervisor.is_some(),
        cfg.supervisor.is_some(),
        hub.clone(),
    ));
    let commit = Arc::new(Mutex::new(Inner {
        sched: {
            let mut s = Scheduler::with_tracer(cfg.policy, tracer);
            s.set_metrics(hub.clone());
            s
        },
        workload,
        input_done: false,
        finished_at: None,
        failed: None,
    }));

    {
        let mut guard = fault::lock_recover(&commit);
        let inner = &mut *guard;
        let now = fabric.now();
        let Inner {
            sched, workload, ..
        } = inner;
        workload.on_start(&mut WsCtx {
            sched,
            abort_epoch: &fabric.abort_epoch,
            now,
        });
        pump(&fabric, inner);
    }

    // Completion log: workers produce, the router consumes — a lock-free
    // epoch-reclaimed ring (see [`super::commit_log`]) instead of a mutex
    // channel, so reporting a completion never serialises workers on a
    // shared lock. Bounded so a stalled router back-pressures workers
    // instead of buffering unboundedly; wide enough that a short-task storm
    // rarely spins on a full ring.
    let ring: Arc<CommitRing<Finished>> =
        Arc::new(CommitRing::with_capacity((64 * cfg.workers).max(1024)));

    // Worker threads: grab from lanes, run, report. The commit lock is
    // never *waited on* here — an idle worker may `try_lock` it to refill
    // its own lanes (work conservation), but gives up instantly if the
    // feeder or router holds it.
    let retry = cfg.retry;
    let workers: Vec<_> = (0..cfg.workers)
        .map(|me| {
            spawn_worker(
                me,
                0,
                Arc::clone(&fabric),
                Arc::clone(&commit),
                ring.producer(),
                retry,
            )
        })
        .collect();
    // Workers hold the only producer handles: when they exit, the ring
    // disconnects and the router drains out.

    // Input feeder thread (the paper's first auxiliary thread).
    let feeder = {
        let fabric = Arc::clone(&fabric);
        let commit = Arc::clone(&commit);
        std::thread::Builder::new()
            .name("tvs-feeder".into())
            .spawn(move || {
                for (index, data) in inputs {
                    // A failing run stops consuming input: the router has
                    // already initiated shutdown.
                    if fabric.done.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Some(FaultKind::Stall { us }) = fabric.faults.draw(FaultSite::Feeder) {
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    let now = fabric.now();
                    let mut guard = fault::lock_recover(&commit);
                    let inner = &mut *guard;
                    let Inner {
                        sched, workload, ..
                    } = inner;
                    workload.on_input(
                        &mut WsCtx {
                            sched,
                            abort_epoch: &fabric.abort_epoch,
                            now,
                        },
                        InputBlock {
                            index,
                            arrival: now,
                            data,
                        },
                    );
                    let pushed = pump(&fabric, inner);
                    drop(guard);
                    if pushed {
                        fabric.wake_for_work();
                    }
                }
                let now = fabric.now();
                let mut guard = fault::lock_recover(&commit);
                let inner = &mut *guard;
                let Inner {
                    sched, workload, ..
                } = inner;
                workload.on_input_done(&mut WsCtx {
                    sched,
                    abort_epoch: &fabric.abort_epoch,
                    now,
                });
                inner.input_done = true;
                let pushed = pump(&fabric, inner);
                let done = run_complete(inner, fabric.now());
                drop(guard);
                if done {
                    fabric.done.store(true, Ordering::SeqCst);
                    fabric.wake_all();
                } else if pushed {
                    fabric.wake_for_work();
                }
            })
            .expect("failed to spawn feeder thread")
    };

    // Router thread (the paper's SuperTask role): the only place completion
    // routing touches the commit lock, so `on_complete` never blocks a
    // worker.
    let router = {
        let fabric = Arc::clone(&fabric);
        let commit = Arc::clone(&commit);
        let ring = Arc::clone(&ring);
        std::thread::Builder::new()
            .name("tvs-router".into())
            .spawn(move || {
                // Batch drain: opportunistic lock-free pops, all routed
                // under a single commit-lock acquisition with one pump and
                // one wake at the end. On a short-task storm this amortises
                // the lock/pump/wake cost across the whole backlog instead
                // of paying it per task — and since the pops never touch
                // the commit lock, the dispatch pump (feeder or an idle
                // worker) is free to run concurrently with the drain.
                let mut batch: Vec<Finished> = Vec::with_capacity(64);
                // Completions held back by an injected DelayCompletion;
                // re-queued at the top of the next iteration, after
                // whatever else arrived — the reordering is the fault.
                let mut delayed: Vec<Finished> = Vec::new();
                let mut idle = 0u32;
                loop {
                    batch.append(&mut delayed);
                    while batch.len() < 256 {
                        match ring.pop() {
                            Some(f) => batch.push(f),
                            None => break,
                        }
                    }
                    if batch.is_empty() {
                        // Spin-then-sleep: yield a few times before paying
                        // the park/unpark futex trip — on a hot system the
                        // next completion is only a task body away.
                        if idle < 4 * fabric.spin_limit {
                            idle += 1;
                            std::thread::yield_now();
                            continue;
                        }
                        let waited_from = fabric.now();
                        let outcome = ring.pop_wait(Duration::from_millis(100));
                        fabric.hub.add_control(
                            Counter::TimeRouterWaitUs,
                            fabric.now().saturating_sub(waited_from),
                        );
                        match outcome {
                            PopOutcome::Item(f) => batch.push(f),
                            PopOutcome::Disconnected => {
                                ring.close();
                                return;
                            }
                            PopOutcome::TimedOut => continue,
                        }
                    }
                    idle = 0;
                    if fabric.hub.is_live() {
                        // Occupancy *after* the batch pops: what is still
                        // waiting behind this drain.
                        let occ = ring.occupancy();
                        fabric.hub.gauge_set(Gauge::RingOccupancy, occ);
                        fabric.hub.record(Hist::RingOccupancy, occ);
                    }
                    let route_from = fabric.now();
                    let mut guard = fault::lock_recover(&commit);
                    let inner = &mut *guard;
                    for f in batch.drain(..) {
                        // Worker-epoch gate: a report whose epoch no longer
                        // matches its lane's current incarnation comes from
                        // a quarantined worker (or is an injected duplicate
                        // echo). Reject it *before* any charging or
                        // completion routing — the dead incarnation's work
                        // must never double-commit — and recover the task
                        // through the regular fault path: reclaim its slot,
                        // notify the workload (which re-spawns lost
                        // non-speculative work) and abort its version. The
                        // scheduler's `fault` is idempotent, so an echo of
                        // an already-completed task is a pure rejection.
                        let lane_epoch = fabric.worker_epoch[f.worker].load(Ordering::SeqCst);
                        if f.epoch != lane_epoch {
                            fabric.hub.add_control(Counter::StaleCompletionsRejected, 1);
                            if let Some(vers) = inner.sched.fault(f.id) {
                                let Inner {
                                    sched, workload, ..
                                } = inner;
                                let mut ctx = WsCtx {
                                    sched,
                                    abort_epoch: &fabric.abort_epoch,
                                    now: f.finished,
                                };
                                workload.on_fault(
                                    &mut ctx,
                                    FaultNotice {
                                        id: f.id,
                                        name: f.name,
                                        version: vers,
                                        tag: f.tag,
                                        attempt: 0,
                                    },
                                );
                                if let Some(v) = vers {
                                    ctx.abort_version(v);
                                }
                            }
                            continue;
                        }
                        let Finished {
                            id,
                            name,
                            class,
                            version,
                            tag,
                            started,
                            finished,
                            worker,
                            epoch,
                            body,
                        } = f;
                        match body {
                            BodyResult::Cancelled => {
                                inner.sched.cancel_bound(id);
                            }
                            BodyResult::Faulted { attempt } => {
                                // Reuse the misspeculation path: reclaim the
                                // slot, tell the workload (so its speculation
                                // manager replays undo journals), then abort
                                // the version through the regular rollback.
                                let busy = finished.saturating_sub(started);
                                fabric.hub.add_control(Counter::BusyUs, busy);
                                fabric.hub.add_control(Counter::WastedUs, busy);
                                inner.sched.charge(class, busy);
                                if let Some(vers) = inner.sched.fault(id) {
                                    let Inner {
                                        sched, workload, ..
                                    } = inner;
                                    let mut ctx = WsCtx {
                                        sched,
                                        abort_epoch: &fabric.abort_epoch,
                                        now: finished,
                                    };
                                    workload.on_fault(
                                        &mut ctx,
                                        FaultNotice {
                                            id,
                                            name,
                                            version: vers,
                                            tag,
                                            attempt,
                                        },
                                    );
                                    match vers {
                                        Some(v) => ctx.abort_version(v),
                                        None => {
                                            inner.failed.get_or_insert(RunError::TaskFailed {
                                                name,
                                                id,
                                                attempts: attempt + 1,
                                            });
                                        }
                                    }
                                }
                            }
                            BodyResult::Ran(output) => {
                                let mut echo = false;
                                match fabric.faults.draw(FaultSite::Completion) {
                                    Some(FaultKind::DelayCompletion { .. }) => {
                                        delayed.push(Finished {
                                            id,
                                            name,
                                            class,
                                            version,
                                            tag,
                                            started,
                                            finished,
                                            worker,
                                            epoch,
                                            body: BodyResult::Ran(output),
                                        });
                                        continue;
                                    }
                                    Some(FaultKind::DuplicateCompletion) => echo = true,
                                    _ => {}
                                }
                                let busy = finished.saturating_sub(started);
                                fabric.hub.add_control(Counter::BusyUs, busy);
                                inner.sched.charge(class, busy);
                                let outcome = inner.sched.try_complete(id);
                                if fabric.tracer.is_enabled() && outcome.is_some() {
                                    // The scheduler's verdict, stamped at
                                    // the body's end on the control ring
                                    // (the commit lock keeps it
                                    // single-writer). `finished` is floored
                                    // to the µs: round up, so the end never
                                    // sorts before the body's task-start.
                                    fabric.tracer.emit_control_at(
                                        fabric.start + Duration::from_micros(finished + 1),
                                        EventKind::TaskEnd {
                                            id,
                                            name,
                                            version,
                                            tag,
                                            discarded: outcome == Some(CompletionOutcome::Discard),
                                        },
                                    );
                                }
                                match outcome {
                                    None => {}
                                    Some(CompletionOutcome::Discard) => {
                                        fabric.hub.add_control(Counter::WastedUs, busy);
                                    }
                                    Some(CompletionOutcome::Deliver) => {
                                        let Inner {
                                            sched, workload, ..
                                        } = inner;
                                        workload.on_complete(
                                            &mut WsCtx {
                                                sched,
                                                abort_epoch: &fabric.abort_epoch,
                                                now: finished,
                                            },
                                            Completion {
                                                id,
                                                name,
                                                version,
                                                tag,
                                                started,
                                                finished,
                                                output,
                                            },
                                        );
                                    }
                                }
                                if echo {
                                    // Deliver the completion a second time,
                                    // stamped with an epoch no incarnation
                                    // ever holds: the duplicate flows back
                                    // through this loop and the worker-epoch
                                    // gate rejects it — exercising the same
                                    // path that protects against a
                                    // quarantined worker's stragglers,
                                    // instead of quietly absorbing the echo
                                    // in the scheduler.
                                    delayed.push(Finished {
                                        id,
                                        name,
                                        class,
                                        version,
                                        tag,
                                        started,
                                        finished,
                                        worker,
                                        epoch: u64::MAX,
                                        body: BodyResult::Faulted { attempt: 0 },
                                    });
                                }
                            }
                        }
                    }
                    let pushed = pump(&fabric, inner);
                    // Held-back reports (injected delays and duplicate
                    // echoes) must flow through the gate before the run can
                    // end, or a last-batch echo would never exercise the
                    // reject path. One more loop iteration drains them.
                    let done = run_complete(inner, fabric.now()) && delayed.is_empty();
                    drop(guard);
                    // Commit-path time: the whole routed batch under one
                    // lock acquisition (one add per batch, not per task).
                    fabric.hub.add_control(
                        Counter::TimeCommitUs,
                        fabric.now().saturating_sub(route_from),
                    );
                    if done {
                        fabric.done.store(true, Ordering::SeqCst);
                        // Close the ring so a worker spinning on a full ring
                        // (or racing a late send) fails fast instead of
                        // waiting for a consumer that is gone.
                        ring.close();
                        fabric.wake_all();
                        return;
                    }
                    if pushed {
                        fabric.wake_for_work();
                    }
                }
            })
            .expect("failed to spawn router thread")
    };

    // Watchdog thread: polls the per-worker slots and cancels any task
    // that has been running past the deadline — signal its abort flag
    // (abort-aware bodies and injected stalls return early) and, for
    // speculative tasks, abort the version so the speculation layer
    // restarts the work on the natural path.
    let watchdog = cfg.watchdog.map(|wd| {
        let fabric = Arc::clone(&fabric);
        let commit = Arc::clone(&commit);
        std::thread::Builder::new()
            .name("tvs-watchdog".into())
            .spawn(move || {
                while !fabric.done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(wd.poll_us.max(100)));
                    let now = fabric.now();
                    for slot in &fabric.watch {
                        let mut g = fault::lock_recover(slot);
                        let Some(s) = g.as_mut() else { continue };
                        if s.flagged || now.saturating_sub(s.started) < wd.deadline_us {
                            continue;
                        }
                        s.flagged = true;
                        TaskCtx::signal_abort(&s.flag);
                        fabric.hub.add_control(Counter::WatchdogCancels, 1);
                        if fabric.tracer.is_enabled() {
                            fabric.tracer.emit_control(EventKind::WatchdogCancel {
                                id: s.id,
                                version: s.version,
                                ran_us: now.saturating_sub(s.started),
                            });
                        }
                        let version = s.version;
                        drop(g);
                        if let Some(v) = version {
                            let mut guard = fault::lock_recover(&commit);
                            let Inner { sched, .. } = &mut *guard;
                            let mut ctx = WsCtx {
                                sched,
                                abort_epoch: &fabric.abort_epoch,
                                now,
                            };
                            ctx.abort_version(v);
                        }
                    }
                }
            })
            .expect("failed to spawn watchdog thread")
    });

    // Supervisor thread: polls the per-lane heartbeat clocks and recovers
    // lanes whose worker went dark — wedged in a body that ignores its
    // abort flag, or descheduled indefinitely. Quarantine bumps the lane's
    // epoch (under the commit lock, so the router's gate and the bump are
    // ordered), signals the old incarnation's running task, hands its
    // ready lane to the live workers, and respawns a replacement on the
    // fresh epoch. Any completion the quarantined incarnation still
    // reports is rejected by the router's epoch gate and re-fed — never
    // double-committed.
    let supervisor = cfg.supervisor.map(|sv| {
        let fabric = Arc::clone(&fabric);
        let commit = Arc::clone(&commit);
        let ring = Arc::clone(&ring);
        std::thread::Builder::new()
            .name("tvs-supervisor".into())
            .spawn(move || {
                let mut respawned: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !fabric.done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(sv.poll_us.max(100)));
                    let now = fabric.now();
                    for me in 0..fabric.lanes.len() {
                        let hb = fabric.heartbeat[me].load(Ordering::SeqCst);
                        if now.saturating_sub(hb) < sv.heartbeat_timeout_us.max(1)
                            || fabric.done.load(Ordering::SeqCst)
                        {
                            continue;
                        }
                        // Quarantine under the commit lock: the epoch bump
                        // is ordered against the router's gate (which reads
                        // epochs while routing under the same lock) and the
                        // control-ring emissions stay single-writer.
                        let guard = fault::lock_recover(&commit);
                        let old = fabric.worker_epoch[me].fetch_add(1, Ordering::SeqCst);
                        // Restart the clock so the replacement gets a full
                        // timeout before it is judged.
                        fabric.heartbeat[me].store(fabric.now(), Ordering::SeqCst);
                        fabric.hub.add_control(Counter::WorkerRespawns, 1);
                        if fabric.tracer.is_enabled() {
                            fabric.tracer.emit_control(EventKind::WorkerQuarantine {
                                worker: me as u32,
                                epoch: old,
                            });
                            fabric.tracer.emit_control(EventKind::WorkerRespawn {
                                worker: me as u32,
                                epoch: old + 1,
                            });
                        }
                        drop(guard);
                        // Unstick whatever the old incarnation is running:
                        // abort-aware bodies (and injected stalls) return
                        // early once the flag is up, after which the old
                        // worker exits at its next epoch check and its
                        // report dies at the gate.
                        if let Some(s) = fault::lock_recover(&fabric.watch[me]).as_ref() {
                            TaskCtx::signal_abort(&s.flag);
                        }
                        fabric.reassign_lane(me);
                        respawned.push(spawn_worker(
                            me,
                            old + 1,
                            Arc::clone(&fabric),
                            Arc::clone(&commit),
                            ring.producer(),
                            retry,
                        ));
                    }
                }
                fabric.wake_all();
                for h in respawned {
                    let _ = h.join();
                }
            })
            .expect("failed to spawn supervisor thread")
    });

    // Joins: a runtime thread dying outside a task body is a runtime bug,
    // but it is still reported as a RunError value, not a process abort.
    let mut lost: Option<&'static str> = None;
    if feeder.join().is_err() {
        lost = Some("feeder");
    }
    for w in workers {
        if w.join().is_err() {
            lost = lost.or(Some("worker"));
        }
    }
    if router.join().is_err() {
        lost = lost.or(Some("router"));
    }
    // Belt-and-braces: the router sets `done` on every exit path, but the
    // watchdog must terminate even if the router was lost.
    fabric.done.store(true, Ordering::SeqCst);
    if let Some(wd) = watchdog {
        if wd.join().is_err() {
            lost = lost.or(Some("watchdog"));
        }
    }
    if let Some(sv) = supervisor {
        if sv.join().is_err() {
            lost = lost.or(Some("supervisor"));
        }
    }

    let fabric =
        Arc::try_unwrap(fabric).unwrap_or_else(|_| panic!("threads gone, fabric uniquely owned"));
    let inner = fault::into_inner_recover(
        Arc::try_unwrap(commit)
            .unwrap_or_else(|_| panic!("threads gone, commit state uniquely owned")),
    );
    if let Some(e) = inner.failed {
        return Err(e);
    }
    if let Some(what) = lost {
        return Err(RunError::WorkerLost { what });
    }
    let makespan = inner.finished_at.unwrap_or_else(|| fabric.now());
    Ok((
        inner.workload,
        super::run_metrics(&hub, cfg.workers, makespan),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::payload;
    use std::sync::atomic::AtomicU32;
    use tvs_faults::FaultPlan;

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
    fn sums_all_blocks_across_threads() {
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
        assert_eq!(m.tasks_discarded, 0);
        assert_eq!(m.workers, 4);
        assert_eq!(m.lane_dispatches.len(), 4);
        assert_eq!(
            m.lane_dispatches.iter().sum::<u64>(),
            32,
            "every task went through a lane"
        );
        assert_eq!(m.faults, 0);
        assert_eq!(m.duplicate_completions, 0);
    }

    #[test]
    fn traced_run_records_dispatch_and_task_events() {
        let blocks: Vec<(usize, Arc<[u8]>)> =
            (0..16).map(|i| (i, vec![i as u8; 64].into())).collect();
        let tracer = Tracer::enabled(3);
        let cfg = ThreadedConfig {
            tracer: tracer.clone(),
            ..ThreadedConfig::new(3, DispatchPolicy::NonSpeculative)
        };
        let (w, m) = try_run(
            Summer {
                n: 16,
                seen: 0,
                total: 0,
            },
            &cfg,
            blocks,
        )
        .expect("run completes");
        assert_eq!(w.seen, 16);
        assert_eq!(m.tasks_delivered, 16);
        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.timebase, tvs_trace::Timebase::Wall);
        assert_eq!(log.count("dispatch"), 16, "one dispatch per task");
        assert_eq!(log.count("task-start"), 16);
        assert_eq!(log.count("task-end"), 16);
        // The router's task-end pairs with the worker's task-start even
        // for these sub-µs bodies, and the span keeps the worker's track.
        let spans = log.task_spans();
        assert_eq!(spans.len(), 16);
        assert!(spans.iter().all(|s| (s.worker as usize) < log.workers));
        assert_eq!(
            log.count("steal") as u64,
            m.steals,
            "steal events mirror the metrics counter"
        );
        // Dispatches are pump-side events and live on the control ring.
        assert!(log
            .events
            .iter()
            .filter(|e| e.kind.label() == "dispatch")
            .all(|e| e.worker as usize == log.workers));
    }

    #[test]
    fn empty_input_finishes() {
        struct Nothing;
        impl Workload for Nothing {
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                true
            }
        }
        let cfg = ThreadedConfig::new(2, DispatchPolicy::NonSpeculative);
        let (_w, m) =
            try_run(Nothing, &cfg, Vec::<(usize, Arc<[u8]>)>::new()).expect("run completes");
        assert_eq!(m.tasks_delivered, 0);
    }

    #[test]
    fn chained_spawning_from_completions() {
        // on_complete spawns a second-stage task: exercises re-entrant
        // spawning through the router's pump.
        struct TwoStage {
            stage2_done: bool,
        }
        impl Workload for TwoStage {
            fn on_input(&mut self, ctx: &mut dyn SchedCtx, _b: InputBlock) {
                ctx.spawn(TaskSpec::regular("stage1", 0, 0, 0, |_| payload(1u32)));
            }
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                match done.name {
                    "stage1" => {
                        ctx.spawn(TaskSpec::regular("stage2", 1, 0, 0, |_| payload(2u32)));
                    }
                    "stage2" => self.stage2_done = true,
                    _ => unreachable!(),
                }
            }
            fn is_finished(&self) -> bool {
                self.stage2_done
            }
        }
        let inputs: Vec<(usize, Arc<[u8]>)> = vec![(0, vec![0u8; 4].into())];
        let cfg = ThreadedConfig::new(3, DispatchPolicy::NonSpeculative);
        let (w, m) = try_run(TwoStage { stage2_done: false }, &cfg, inputs).expect("run completes");
        assert!(w.stage2_done);
        assert_eq!(m.tasks_delivered, 2);
    }

    #[test]
    fn speculative_abort_under_threads() {
        // A slow speculative task is aborted by a fast normal task; its
        // output must be discarded, not delivered.
        struct SpecAbort {
            normal_done: bool,
            spec_delivered: bool,
        }
        impl Workload for SpecAbort {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, 0, |ctx| {
                    // Busy-wait until aborted or ~200ms cap.
                    let t0 = std::time::Instant::now();
                    while !ctx.aborted() && t0.elapsed() < Duration::from_millis(200) {
                        std::thread::yield_now();
                    }
                    payload(ctx.aborted())
                }));
                ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                match done.name {
                    "normal" => {
                        ctx.abort_version(1);
                        self.normal_done = true;
                    }
                    "spec" => self.spec_delivered = true,
                    _ => unreachable!(),
                }
            }
            fn is_finished(&self) -> bool {
                self.normal_done
            }
        }
        let cfg = ThreadedConfig::new(2, DispatchPolicy::Aggressive);
        let (w, m) = try_run(
            SpecAbort {
                normal_done: false,
                spec_delivered: false,
            },
            &cfg,
            Vec::<(usize, Arc<[u8]>)>::new(),
        )
        .expect("run completes");
        assert!(w.normal_done);
        assert!(!w.spec_delivered, "aborted speculative output leaked");
        assert_eq!(m.tasks_discarded, 1);
        assert_eq!(m.rollbacks, 1);
    }

    #[test]
    fn rollback_accounts_for_every_lane_bound_spec_task() {
        // A fast normal task aborts a version with many speculative tasks:
        // some are still in the central ready queue (deleted by the
        // rollback), some are bound in worker lanes (cancelled by epoch
        // re-validation, also counted as ready deletions), and any that
        // started running see their abort flag and get discarded. Whatever
        // the interleaving, every spawned spec task must be accounted for
        // and none may be delivered.
        struct AbortFirst {
            normal_done: bool,
            spec_delivered: bool,
        }
        impl Workload for AbortFirst {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                // Balanced pumps the normal task into a lane before any
                // speculative one (equal lane loads prefer normal).
                ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
                for i in 0..8 {
                    ctx.spawn(TaskSpec::speculative("spec", 0, 0, 1, i, |ctx| {
                        let t0 = std::time::Instant::now();
                        while !ctx.aborted() && t0.elapsed() < Duration::from_millis(200) {
                            std::thread::yield_now();
                        }
                        payload(())
                    }));
                }
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
                match done.name {
                    "normal" => {
                        ctx.abort_version(1);
                        self.normal_done = true;
                    }
                    "spec" => self.spec_delivered = true,
                    _ => unreachable!(),
                }
            }
            fn is_finished(&self) -> bool {
                self.normal_done
            }
        }
        let cfg = ThreadedConfig::new(2, DispatchPolicy::Balanced);
        let (w, m) = try_run(
            AbortFirst {
                normal_done: false,
                spec_delivered: false,
            },
            &cfg,
            Vec::<(usize, Arc<[u8]>)>::new(),
        )
        .expect("run completes");
        assert!(w.normal_done);
        assert!(!w.spec_delivered, "aborted speculative output leaked");
        assert_eq!(m.tasks_delivered, 1);
        assert_eq!(m.tasks_deleted_ready + m.tasks_discarded, 8);
        assert_eq!(m.rollbacks, 1);
    }

    /// A workload whose single regular task panics `fail_times` times
    /// before succeeding.
    struct Flaky {
        fail_times: u32,
        done: bool,
        faults_seen: u32,
    }

    impl Workload for Flaky {
        fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
            let fail_times = self.fail_times;
            let tries = AtomicU32::new(0);
            ctx.spawn(TaskSpec::regular("flaky", 0, 0, 0, move |_| {
                let t = tries.fetch_add(1, Ordering::SeqCst);
                if t < fail_times {
                    panic!("flaky attempt {t}");
                }
                payload(t)
            }));
        }
        fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
        fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
            self.done = true;
        }
        fn on_fault(&mut self, _: &mut dyn SchedCtx, _: FaultNotice) {
            self.faults_seen += 1;
        }
        fn is_finished(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn panicking_regular_task_is_retried_and_delivered() {
        let cfg = ThreadedConfig::new(2, DispatchPolicy::NonSpeculative);
        let (w, m) = try_run(
            Flaky {
                fail_times: 2,
                done: false,
                faults_seen: 0,
            },
            &cfg,
            Vec::<(usize, Arc<[u8]>)>::new(),
        )
        .expect("retries recover the run");
        assert!(w.done);
        assert_eq!(w.faults_seen, 0, "recovered faults never reach on_fault");
        assert_eq!(m.tasks_delivered, 1);
        assert_eq!(m.faults, 2, "both panicked attempts were caught");
        assert_eq!(m.task_retries, 2);
    }

    #[test]
    fn exhausted_retries_fail_the_run_with_a_structured_error() {
        let cfg = ThreadedConfig::new(2, DispatchPolicy::NonSpeculative);
        let Err(err) = try_run(
            Flaky {
                fail_times: u32::MAX,
                done: false,
                faults_seen: 0,
            },
            &cfg,
            Vec::<(usize, Arc<[u8]>)>::new(),
        ) else {
            panic!("a task that always panics must fail the run");
        };
        match err {
            RunError::TaskFailed { name, attempts, .. } => {
                assert_eq!(name, "flaky");
                assert_eq!(attempts, RetryPolicy::default().max_attempts);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn panicking_speculative_task_aborts_its_version() {
        // A speculative task that panics must be routed through the
        // rollback path: on_fault fires, the version is aborted, and the
        // run still completes via the normal task.
        struct SpecPanic {
            normal_done: bool,
            fault: Option<FaultNotice>,
        }
        impl Workload for SpecPanic {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("boom", 0, 0, 7, 0, |_| -> Payload {
                    panic!("speculative failure")
                }));
                ctx.spawn(TaskSpec::regular("normal", 0, 0, 0, |_| payload(())));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, done: Completion) {
                if done.name == "normal" {
                    self.normal_done = true;
                }
            }
            fn on_fault(&mut self, _: &mut dyn SchedCtx, fault: FaultNotice) {
                self.fault = Some(fault);
            }
            fn is_finished(&self) -> bool {
                self.normal_done
            }
        }
        let cfg = ThreadedConfig::new(2, DispatchPolicy::Aggressive);
        let (w, m) = try_run(
            SpecPanic {
                normal_done: false,
                fault: None,
            },
            &cfg,
            Vec::<(usize, Arc<[u8]>)>::new(),
        )
        .expect("speculative faults never fail the run");
        assert!(w.normal_done);
        let f = w.fault.expect("on_fault fired");
        assert_eq!(f.name, "boom");
        assert_eq!(f.version, Some(7));
        assert_eq!(f.attempt, 0, "speculative tasks are not retried");
        assert_eq!(m.faults, 1);
        assert_eq!(m.task_retries, 0);
        assert_eq!(m.rollbacks, 1, "the faulted version was aborted");
        assert_eq!(m.tasks_delivered, 1, "only the normal task delivered");
    }

    #[test]
    fn injected_panics_and_duplicates_recover_deterministically() {
        // Chaos smoke: inject panics at the task-body site and duplicated
        // completions at the router, and require byte-identical results.
        let blocks: Vec<(usize, Arc<[u8]>)> =
            (0..24).map(|i| (i, vec![i as u8; 50].into())).collect();
        let expect: u64 = (0..24u64).map(|i| i * 50).sum();
        let plan = FaultPlan::new(99)
            .with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 0.2)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 0.2)
            .with_rule(
                FaultSite::Completion,
                FaultKind::DelayCompletion { us: 100 },
                0.2,
            )
            .with_max_faults(16);
        let mut cfg = ThreadedConfig::new(3, DispatchPolicy::NonSpeculative);
        cfg.faults = FaultInjector::new(plan);
        let (w, m) = try_run(
            Summer {
                n: 24,
                seen: 0,
                total: 0,
            },
            &cfg,
            blocks,
        )
        .expect("injected faults are recoverable");
        assert_eq!(w.total, expect, "output identical to the fault-free run");
        assert_eq!(m.tasks_delivered, 24);
        assert!(
            cfg.faults.injected() > 0,
            "the plan actually injected something"
        );
        let echoes = cfg
            .faults
            .log()
            .iter()
            .filter(|f| f.kind == FaultKind::DuplicateCompletion)
            .count() as u64;
        assert_eq!(
            m.stale_completions_rejected, echoes,
            "every injected echo must take the epoch-reject path"
        );
        assert_eq!(
            m.duplicate_completions, 0,
            "echoes are rejected at the gate, never absorbed by the scheduler"
        );
    }

    #[test]
    fn duplicated_completion_takes_the_epoch_reject_path() {
        // Focused version of the chaos smoke: with *only* duplicate echoes
        // injected, the epoch-reject counter must match the injection count
        // exactly and the output must be unaffected.
        let blocks: Vec<(usize, Arc<[u8]>)> =
            (0..16).map(|i| (i, vec![i as u8; 50].into())).collect();
        let expect: u64 = (0..16u64).map(|i| i * 50).sum();
        let plan = FaultPlan::new(7)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 1.0)
            .with_max_faults(8);
        let mut cfg = ThreadedConfig::new(2, DispatchPolicy::NonSpeculative);
        cfg.faults = FaultInjector::new(plan);
        let (w, m) = try_run(
            Summer {
                n: 16,
                seen: 0,
                total: 0,
            },
            &cfg,
            blocks,
        )
        .expect("echoes are recoverable");
        assert_eq!(w.total, expect);
        assert_eq!(w.seen, 16, "every block delivered exactly once");
        assert_eq!(m.stale_completions_rejected, 8);
        assert_eq!(m.duplicate_completions, 0);
    }

    /// A workload whose tagged tasks are re-spawned when lost: block 0's
    /// first execution wedges (a sleep that ignores the abort flag long
    /// enough to trip the supervisor), later executions run normally.
    struct Wedger {
        n: usize,
        seen: usize,
        total: u64,
        refed: u32,
        wedge_us: u64,
        wedged: Arc<AtomicU32>,
    }

    impl Workload for Wedger {
        fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
            let data = b.data.clone();
            let wedge = if b.index == 0 { self.wedge_us } else { 0 };
            let wedged = Arc::clone(&self.wedged);
            ctx.spawn(TaskSpec::regular(
                "sum",
                0,
                data.len(),
                b.index as u64,
                move |_| {
                    if wedge > 0 && wedged.fetch_add(1, Ordering::SeqCst) == 0 {
                        // Not abort-aware: the supervisor must detect the
                        // dark heartbeat, not rely on cooperative cancel.
                        std::thread::sleep(Duration::from_micros(wedge));
                    }
                    payload(data.iter().map(|&x| x as u64).sum::<u64>())
                },
            ));
        }
        fn on_complete(&mut self, _ctx: &mut dyn SchedCtx, done: Completion) {
            self.total += *done.output.downcast::<u64>().unwrap();
            self.seen += 1;
        }
        fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
            // The gate re-feeds lost work by (name, tag): re-spawn the block.
            assert_eq!(fault.name, "sum");
            self.refed += 1;
            let idx = fault.tag;
            ctx.spawn(TaskSpec::regular("sum", 0, 50, idx, move |_| {
                payload(idx * 50)
            }));
        }
        fn is_finished(&self) -> bool {
            self.seen == self.n
        }
    }

    #[test]
    fn supervisor_respawns_a_wedged_worker_without_double_commit() {
        let blocks: Vec<(usize, Arc<[u8]>)> =
            (0..12).map(|i| (i, vec![i as u8; 50].into())).collect();
        let expect: u64 = (0..12u64).map(|i| i * 50).sum();
        let mut cfg = ThreadedConfig::new(3, DispatchPolicy::NonSpeculative);
        cfg.supervisor = Some(SupervisorConfig {
            // Must exceed the 100 ms park timeout (parked workers stamp
            // only when they wake) or healthy-but-idle workers churn.
            heartbeat_timeout_us: 150_000,
            poll_us: 10_000,
        });
        let (w, m) = try_run(
            Wedger {
                n: 12,
                seen: 0,
                total: 0,
                refed: 0,
                wedge_us: 400_000,
                wedged: Arc::new(AtomicU32::new(0)),
            },
            &cfg,
            blocks,
        )
        .expect("supervision recovers the run");
        assert_eq!(w.seen, 12, "every block delivered exactly once");
        assert_eq!(w.total, expect, "re-fed block contributes exactly once");
        assert!(m.worker_respawns >= 1, "the wedged worker was respawned");
        assert!(
            m.stale_completions_rejected >= 1,
            "the wedged incarnation's straggler died at the gate"
        );
        assert_eq!(w.refed as u64, m.stale_completions_rejected);
    }

    #[test]
    fn supervision_is_quiet_on_a_healthy_run() {
        let blocks: Vec<(usize, Arc<[u8]>)> =
            (0..32).map(|i| (i, vec![i as u8; 100].into())).collect();
        let expect: u64 = (0..32u64).map(|i| i * 100).sum();
        let mut cfg = ThreadedConfig::new(4, DispatchPolicy::NonSpeculative);
        cfg.supervisor = Some(SupervisorConfig::default());
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
        assert_eq!(m.worker_respawns, 0, "healthy workers are left alone");
        assert_eq!(m.stale_completions_rejected, 0);
    }

    #[test]
    fn watchdog_cancels_a_stuck_speculative_task() {
        // A speculative task that never checks its abort flag fast enough
        // on its own: the watchdog signals the flag (unsticking the
        // abort-aware busy wait) and aborts the version.
        struct Stuck;
        impl Workload for Stuck {
            fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
                ctx.spawn(TaskSpec::speculative("stuck", 0, 0, 3, 0, |ctx| {
                    let t0 = std::time::Instant::now();
                    while !ctx.aborted() && t0.elapsed() < Duration::from_secs(5) {
                        std::thread::yield_now();
                    }
                    payload(())
                }));
            }
            fn on_input(&mut self, _: &mut dyn SchedCtx, _: InputBlock) {}
            fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {}
            fn is_finished(&self) -> bool {
                true
            }
        }
        let mut cfg = ThreadedConfig::new(2, DispatchPolicy::Aggressive);
        cfg.watchdog = Some(WatchdogConfig {
            deadline_us: 20_000,
            poll_us: 2_000,
        });
        let t0 = Instant::now();
        let (_w, m) = try_run(Stuck, &cfg, Vec::<(usize, Arc<[u8]>)>::new())
            .expect("watchdog recovers the run");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "watchdog unstuck the task well before its 5s cap"
        );
        assert_eq!(m.watchdog_cancels, 1);
        assert_eq!(m.rollbacks, 1, "the stuck version was aborted");
        assert_eq!(m.tasks_discarded, 1, "its late output was discarded");
    }
}
