//! The outside-in traced run: a [`Workload`] adapter that times every
//! callback into the pipeline and, through a [`SchedCtx`] adapter, every
//! task body the pipeline spawns. Nothing inside the program changes; the
//! spans are taken at the public calls into each layer, kept in memory and
//! written out when the run ends.
//!
//! Layer names follow the crates: `huffman` (kernel task bodies), `core`
//! (speculation engine: predict/check tasks, rollbacks, wasted work), `sre`
//! (runtime: queueing, commit routing, workers outside bodies),
//! `pipelines` (the workload's serial callbacks) and `iosim` (the input
//! generator's lateness).

use crate::stats::{percentile, sorted};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tvs_pipelines::PipelineResult;
use tvs_sre::task::payload;
use tvs_sre::{
    Completion, FaultNotice, InputBlock, RunMetrics, SchedCtx, SdcNotice, SpecVersion, TaskId,
    TaskSpec, Time, Workload,
};

/// One per-layer metric, with the end-to-end metric and workload it should
/// move. Later changes name their gains against this table; `BENCHMARK.json`
/// lists the same names with their units.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

const KERNEL: &str =
    "throughput_mb_s and serial_mb_s on pdf_full; little on txt_paced latency (cores mostly idle)";
const ENGINE: &str = "throughput_mb_s and lat_p99_us on pdf_full; no change on txt_paced";
const WASTE: &str = "throughput_mb_s and lat_p99_us on pdf_full; nothing wasted on txt_paced";
const QUEUE: &str = "lat_p50_us on txt_paced, throughput_mb_s on pdf_full";
const SERIAL: &str = "throughput_mb_s on pdf_full, lat_p50_us on txt_paced";
const LATE: &str = "lat_p50_us and lat_p99_us on txt_paced";
const CHECK: &str = "none: measurement check, 0 when the layers' own counts agree";

pub const LAYER_METRICS: &[LayerMetric] = &[
    m("huffman.count.body_ms", "ms", KERNEL),
    m("huffman.count.tasks", "count", KERNEL),
    m("huffman.reduce.body_ms", "ms", KERNEL),
    m("huffman.reduce.tasks", "count", KERNEL),
    m("huffman.tree.body_ms", "ms", KERNEL),
    m("huffman.tree.tasks", "count", KERNEL),
    m("huffman.offset.body_ms", "ms", KERNEL),
    m("huffman.offset.tasks", "count", KERNEL),
    m("huffman.encode.body_ms", "ms", KERNEL),
    m("huffman.encode.tasks", "count", KERNEL),
    m("core.predict.body_ms", "ms", ENGINE),
    m("core.predict.tasks", "count", ENGINE),
    m("core.check.body_ms", "ms", ENGINE),
    m("core.check.tasks", "count", ENGINE),
    m("core.predictions", "count", ENGINE),
    m("core.checks_failed", "count", ENGINE),
    m("core.rollbacks", "count", ENGINE),
    m("core.abort_calls", "count", ENGINE),
    m("core.wasted_body_share", "ratio", WASTE),
    m(
        "core.versioned_body_ms",
        "ms",
        "base of core.wasted_body_share",
    ),
    m("core.wasted_tasks", "count", WASTE),
    m(
        "core.versioned_tasks",
        "count",
        "base of core.spec_useful_ratio",
    ),
    m("core.spec_useful_ratio", "ratio", WASTE),
    m("sre.queue_wait_p50_us", "us", QUEUE),
    m("sre.queue_wait_p99_us", "us", QUEUE),
    m("sre.commit_lag_p50_us", "us", QUEUE),
    m("sre.commit_lag_p99_us", "us", QUEUE),
    m("sre.tasks_delivered", "count", KERNEL),
    m("sre.tasks_discarded", "count", WASTE),
    m("sre.steals", "count", "throughput_mb_s on pdf_full"),
    m(
        "sre.worker_nonbody_ms",
        "ms",
        "throughput_mb_s and nonspec_mb_s on pdf_full",
    ),
    m(
        "sre.reported_waste_share",
        "ratio",
        "none: share of core wasted body time that RunMetrics.wasted_us reports",
    ),
    m("pipelines.callback_ms", "ms", SERIAL),
    m("pipelines.callbacks", "count", SERIAL),
    m("pipelines.callback_p99_us", "us", SERIAL),
    m("iosim.late_p99_us", "us", LATE),
    m("iosim.late_max_us", "us", LATE),
    m(
        "trace.overhead_wall_pct",
        "%",
        "none: traced vs untraced run time, share of untraced",
    ),
    m(
        "trace.overhead_lat_mean_pct",
        "%",
        "none: traced vs untraced mean latency, share of untraced",
    ),
    m(
        "trace.spans",
        "count",
        "none: spans recorded per traced stream",
    ),
    m("trace.body_count_gap", "count", CHECK),
    m("trace.abort_gap", "count", CHECK),
];

/// Body timing of one spawned task, written by whichever worker runs it.
#[derive(Default)]
struct Body {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    busy_ns: AtomicU64,
    runs: AtomicU32,
}

struct TaskSpan {
    name: &'static str,
    version: Option<SpecVersion>,
    tag: u64,
    /// The callback span whose call spawned this task.
    cause: usize,
    spawned_ns: u64,
    /// When the workload's `on_complete` took the output; `None` if the
    /// output was never delivered (discarded, or never ran).
    delivered_ns: Option<u64>,
    body: Arc<Body>,
}

struct CallbackSpan {
    name: &'static str,
    /// The task span whose completion caused this call, if any.
    cause: Option<usize>,
    tag: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store of one traced stream.
pub struct Recorder {
    clock: Instant,
    tasks: Vec<TaskSpan>,
    /// Task span by task id. Ids are handed out densely at spawn, so a
    /// vector indexed by id keeps hashing off the commit-lock path.
    by_id: Vec<Option<usize>>,
    callbacks: Vec<CallbackSpan>,
    aborts: u64,
}

impl Recorder {
    fn span_of(&self, id: TaskId) -> Option<usize> {
        self.by_id.get(usize::try_from(id).ok()?).copied().flatten()
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Write every span as CSV: one row per task body and per callback.
    /// `parent` is the row that caused it; `tag` and `version` are the
    /// shared block/version id.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "span,kind,name,parent,tag,version,spawn_ns,start_ns,end_ns,delivered_ns,runs"
        )?;
        let opt = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_default();
        for (i, c) in self.callbacks.iter().enumerate() {
            writeln!(
                out,
                "c{i},callback,{},{},{},,,{},{},,",
                c.name,
                c.cause.map(|t| format!("t{t}")).unwrap_or_default(),
                c.tag,
                c.start_ns,
                c.end_ns
            )?;
        }
        for (i, t) in self.tasks.iter().enumerate() {
            let b = &t.body;
            writeln!(
                out,
                "t{i},task,{},c{},{},{},{},{},{},{},{}",
                t.name,
                t.cause,
                t.tag,
                opt(t.version.map(u64::from)),
                t.spawned_ns,
                b.start_ns.load(Ordering::Relaxed),
                b.end_ns.load(Ordering::Relaxed),
                opt(t.delivered_ns),
                b.runs.load(Ordering::Relaxed)
            )?;
        }
        out.flush()
    }
}

/// The workload adapter.
pub struct Traced<W> {
    pub inner: W,
    pub rec: Recorder,
}

impl<W> Traced<W> {
    pub fn new(inner: W) -> Self {
        Traced {
            inner,
            rec: Recorder {
                clock: Instant::now(),
                tasks: Vec::new(),
                by_id: Vec::new(),
                callbacks: Vec::new(),
                aborts: 0,
            },
        }
    }

    fn callback<R>(
        &mut self,
        ctx: &mut dyn SchedCtx,
        name: &'static str,
        tag: u64,
        cause: Option<usize>,
        f: impl FnOnce(&mut W, &mut dyn SchedCtx) -> R,
    ) -> R {
        let span = self.rec.callbacks.len();
        let start_ns = self.rec.now_ns();
        self.rec.callbacks.push(CallbackSpan {
            name,
            cause,
            tag,
            start_ns,
            end_ns: start_ns,
        });
        let r = f(
            &mut self.inner,
            &mut Ctx {
                inner: ctx,
                rec: &mut self.rec,
                cause: span,
            },
        );
        self.rec.callbacks[span].end_ns = self.rec.now_ns();
        r
    }
}

/// The scheduler context handed to the pipeline inside a traced callback.
struct Ctx<'a> {
    inner: &'a mut dyn SchedCtx,
    rec: &'a mut Recorder,
    cause: usize,
}

impl SchedCtx for Ctx<'_> {
    fn now(&self) -> Time {
        self.inner.now()
    }

    fn spawn(&mut self, mut spec: TaskSpec) -> Option<TaskId> {
        let body = Arc::new(Body::default());
        let (clock, cell) = (self.rec.clock, Arc::clone(&body));
        let mut run = std::mem::replace(&mut spec.run, Box::new(|_| payload(())));
        spec.run = Box::new(move |ctx| {
            let start = clock.elapsed().as_nanos() as u64;
            let out = run(ctx);
            let end = clock.elapsed().as_nanos() as u64;
            cell.start_ns.store(start, Ordering::Relaxed);
            cell.end_ns.store(end, Ordering::Relaxed);
            cell.busy_ns.fetch_add(end - start, Ordering::Relaxed);
            cell.runs.fetch_add(1, Ordering::Relaxed);
            out
        });
        let span = self.rec.tasks.len();
        self.rec.tasks.push(TaskSpan {
            name: spec.name,
            version: spec.version,
            tag: spec.tag,
            cause: self.cause,
            spawned_ns: self.rec.now_ns(),
            delivered_ns: None,
            body,
        });
        let id = self.inner.spawn(spec)?;
        let slot = usize::try_from(id).expect("task ids fit in memory");
        if slot >= self.rec.by_id.len() {
            self.rec.by_id.resize(slot + 1, None);
        }
        self.rec.by_id[slot] = Some(span);
        Some(id)
    }

    fn abort_version(&mut self, version: SpecVersion) {
        self.rec.aborts += 1;
        self.inner.abort_version(version);
    }
}

impl<W: Workload> Workload for Traced<W> {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        self.callback(ctx, "on_start", 0, None, |w, c| w.on_start(c));
    }

    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let tag = block.index as u64;
        self.callback(ctx, "on_input", tag, None, |w, c| w.on_input(c, block));
    }

    fn on_input_done(&mut self, ctx: &mut dyn SchedCtx) {
        self.callback(ctx, "on_input_done", 0, None, |w, c| w.on_input_done(c));
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        let now = self.rec.now_ns();
        let cause = self.rec.span_of(done.id);
        if let Some(t) = cause {
            self.rec.tasks[t].delivered_ns = Some(now);
        }
        let tag = done.tag;
        self.callback(ctx, "on_complete", tag, cause, |w, c| {
            w.on_complete(c, done)
        });
    }

    fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
        let cause = self.rec.span_of(fault.id);
        self.callback(ctx, "on_fault", fault.tag, cause, |w, c| {
            w.on_fault(c, fault)
        });
    }

    fn on_sdc(&mut self, ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
        let cause = self.rec.span_of(sdc.id);
        self.callback(ctx, "on_sdc", 0, cause, |w, c| w.on_sdc(c, sdc));
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Task kinds by the layer their bodies belong to: (kind, body-time
/// metric, task-count metric).
const KINDS: [(&str, &str, &str); 8] = [
    ("count", "huffman.count.body_ms", "huffman.count.tasks"),
    ("reduce", "huffman.reduce.body_ms", "huffman.reduce.tasks"),
    ("tree", "huffman.tree.body_ms", "huffman.tree.tasks"),
    ("offset", "huffman.offset.body_ms", "huffman.offset.tasks"),
    ("encode", "huffman.encode.body_ms", "huffman.encode.tasks"),
    ("predict", "core.predict.body_ms", "core.predict.tasks"),
    ("check", "core.check.body_ms", "core.check.tasks"),
    ("final-check", "core.check.body_ms", "core.check.tasks"),
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer values of one traced stream, keyed by [`LAYER_METRICS`] name
/// (the `trace.overhead_*` entries compare runs and are filled in by the
/// caller), plus a line for each count cross-check that disagrees.
pub fn layer_values(
    rec: &Recorder,
    result: &PipelineResult,
    metrics: &RunMetrics,
    wall: Duration,
    late_us: &[f64],
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let mut v = BTreeMap::new();
    for (_, body, tasks) in KINDS {
        v.insert(body, 0.0);
        v.insert(tasks, 0.0);
    }
    let mut unknown = Vec::new();
    let (mut body_ns, mut bodies) = (0u64, 0u64);
    let (mut versioned_ns, mut versioned, mut wasted_ns, mut wasted) = (0u64, 0u64, 0u64, 0u64);
    let (mut queue_wait, mut commit_lag) = (Vec::new(), Vec::new());
    for t in &rec.tasks {
        let runs = u64::from(t.body.runs.load(Ordering::Relaxed));
        let busy = t.body.busy_ns.load(Ordering::Relaxed);
        let (start, end) = (
            t.body.start_ns.load(Ordering::Relaxed),
            t.body.end_ns.load(Ordering::Relaxed),
        );
        match KINDS.iter().find(|k| k.0 == t.name) {
            Some(&(_, body, tasks)) => {
                *v.get_mut(body).expect("inserted above") += ms(busy);
                *v.get_mut(tasks).expect("inserted above") += runs as f64;
            }
            None => unknown.push(t.name),
        }
        body_ns += busy;
        bodies += runs;
        if runs > 0 {
            queue_wait.push(start.saturating_sub(t.spawned_ns) as f64 / 1e3);
            if let Some(d) = t.delivered_ns {
                commit_lag.push(d.saturating_sub(end) as f64 / 1e3);
            }
        }
        if let Some(ver) = t.version {
            versioned_ns += busy;
            versioned += runs;
            if result.committed_version != Some(ver) {
                wasted_ns += busy;
                wasted += runs;
            }
        }
    }
    let stats = result.spec_stats.unwrap_or_default();
    v.insert("core.predictions", stats.predictions as f64);
    v.insert("core.checks_failed", stats.checks_failed as f64);
    v.insert("core.rollbacks", stats.rollbacks as f64);
    v.insert("core.abort_calls", rec.aborts as f64);
    // Waste is reported as shares of all versioned work, so a workload
    // that wastes nothing reads 0 and 1 instead of a constant 0 ms.
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    v.insert("core.wasted_body_share", share(wasted_ns, versioned_ns));
    v.insert("core.versioned_body_ms", ms(versioned_ns));
    v.insert("core.wasted_tasks", wasted as f64);
    v.insert("core.versioned_tasks", versioned as f64);
    v.insert("core.spec_useful_ratio", 1.0 - share(wasted, versioned));
    let queue_wait = sorted(queue_wait);
    let commit_lag = sorted(commit_lag);
    v.insert("sre.queue_wait_p50_us", percentile(&queue_wait, 0.50));
    v.insert("sre.queue_wait_p99_us", percentile(&queue_wait, 0.99));
    v.insert("sre.commit_lag_p50_us", percentile(&commit_lag, 0.50));
    v.insert("sre.commit_lag_p99_us", percentile(&commit_lag, 0.99));
    v.insert("sre.tasks_delivered", metrics.tasks_delivered as f64);
    v.insert("sre.tasks_discarded", metrics.tasks_discarded as f64);
    v.insert("sre.steals", metrics.steals as f64);
    let worker_ns = metrics.workers as f64 * wall.as_nanos() as f64;
    v.insert("sre.worker_nonbody_ms", (worker_ns - body_ns as f64) / 1e6);
    // RunMetrics counts only work discarded at completion; 1 when there is
    // no waste to miss.
    v.insert(
        "sre.reported_waste_share",
        if wasted_ns == 0 {
            1.0
        } else {
            metrics.wasted_us as f64 * 1e3 / wasted_ns as f64
        },
    );
    let callbacks = sorted(
        rec.callbacks
            .iter()
            .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
            .collect(),
    );
    v.insert("pipelines.callback_ms", callbacks.iter().sum::<f64>() / 1e3);
    v.insert("pipelines.callbacks", callbacks.len() as f64);
    v.insert("pipelines.callback_p99_us", percentile(&callbacks, 0.99));
    let late = sorted(late_us.to_vec());
    v.insert("iosim.late_p99_us", percentile(&late, 0.99));
    v.insert("iosim.late_max_us", *late.last().expect("blocks were fed"));
    v.insert(
        "trace.spans",
        (rec.tasks.len() + rec.callbacks.len()) as f64,
    );

    let mut gaps = Vec::new();
    let executed = metrics.tasks_delivered + metrics.tasks_discarded;
    let body_gap = bodies as i64 - executed as i64;
    if body_gap != 0 {
        gaps.push(format!(
            "bodies run (adapter) {bodies} != tasks_delivered {} + tasks_discarded {} (RunMetrics)",
            metrics.tasks_delivered, metrics.tasks_discarded
        ));
    }
    let abort_gap = rec.aborts as i64 - stats.rollbacks as i64;
    if abort_gap != 0 {
        gaps.push(format!(
            "abort_version calls (adapter) {} != core.rollbacks {} (ManagerStats)",
            rec.aborts, stats.rollbacks
        ));
    }
    if !unknown.is_empty() {
        gaps.push(format!("task kinds outside every layer: {unknown:?}"));
    }
    v.insert("trace.body_count_gap", body_gap.unsigned_abs() as f64);
    v.insert("trace.abort_gap", abort_gap.unsigned_abs() as f64);
    (v, gaps)
}
