//! Run harness: data + config + executor + arrival model → results.
//!
//! [`run_huffman`] is the one way to run the Huffman pipeline. The
//! [`RunSpec`] names the executor (with its config, which carries the
//! tracer, metrics hub and fault plan), the arrival model, and optionally
//! a snapshot to resume from.

use crate::config::HuffmanConfig;
use crate::cost::HuffmanCost;
use crate::huffman::{digest_output, HuffmanWorkload, PipelineResult};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tvs_core::checkpoint::fnv1a;
use tvs_core::{ReplicaStats, ReplicatingWorkload, ResumeError, StreamSnapshot};
use tvs_iosim::ArrivalModel;
use tvs_sre::exec::baseline;
use tvs_sre::exec::sim::{self, SimConfig};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::{InputBlock, RunError, RunMetrics, TaskTrace};

/// Seed of the replication plane's deterministic ordinary-task sampler.
/// Fixed so two runs of the same configuration replicate the same tasks.
const SDC_SEED: u64 = 0x5DC0_11A7;

/// Everything a figure needs from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Application-level results (per-block latency, compression, …).
    pub result: PipelineResult,
    /// Runtime-level metrics (makespan, waste, rollbacks, …).
    pub metrics: RunMetrics,
    /// Arrival schedule used (µs per block), for Fig. 7's arrival series.
    pub arrivals: Vec<u64>,
}

impl RunOutcome {
    /// Per-element latency series, µs (the paper's main evaluation
    /// criterion).
    pub fn latencies(&self) -> Vec<u64> {
        self.result.blocks.iter().map(|b| b.latency()).collect()
    }

    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        self.result.mean_latency()
    }

    /// Completion time, µs.
    pub fn completion_time(&self) -> u64 {
        self.metrics.makespan
    }
}

/// Split `data` into blocks with arrival times from `arrival`.
pub fn schedule_blocks(
    data: &[u8],
    block_bytes: usize,
    arrival: &dyn ArrivalModel,
) -> (Vec<InputBlock>, Vec<u64>) {
    let n = data.len().div_ceil(block_bytes);
    let times = arrival.schedule(n, block_bytes);
    let blocks = data
        .chunks(block_bytes)
        .zip(&times)
        .enumerate()
        .map(|(index, (chunk, &arrival))| InputBlock {
            index,
            arrival,
            data: chunk.into(),
        })
        .collect();
    (blocks, times)
}

/// The executor a run uses, with its config.
#[derive(Debug, Clone)]
pub enum Executor {
    /// The deterministic discrete-event simulator.
    Sim(SimConfig),
    /// The work-stealing thread pool.
    Threaded(ThreadedConfig),
    /// The single-lock thread pool.
    Baseline(ThreadedConfig),
}

/// How [`run_huffman`] runs the pipeline.
#[derive(Clone)]
pub struct RunSpec<'a> {
    /// Executor and its config. Its policy must equal the pipeline's
    /// [`HuffmanConfig::policy`]; its tracer, hub and fault injector are
    /// wired into the workload as well as the executor.
    pub executor: Executor,
    /// Block arrival model.
    pub arrival: &'a dyn ArrivalModel,
    /// The real-thread executors feed each block at its arrival time
    /// divided by this factor, so slow-I/O scenarios finish quickly in
    /// tests. The simulator runs in virtual time and ignores it.
    pub time_scale: u64,
    /// Resume a killed run from its committed-prefix snapshot: the snapshot
    /// is checked against this input and configuration, only the blocks
    /// past the prefix are fed, and the stream completes byte-identical to
    /// an uninterrupted run, because every remaining block is encoded with
    /// the snapshot's committed tree.
    pub resume: Option<&'a StreamSnapshot>,
}

impl<'a> RunSpec<'a> {
    /// A fresh run on the simulator.
    pub fn sim(cfg: SimConfig, arrival: &'a dyn ArrivalModel) -> Self {
        Self::new(Executor::Sim(cfg), arrival, 1)
    }

    /// A fresh run on the work-stealing executor, arrivals compressed by
    /// `time_scale`.
    pub fn threaded(cfg: ThreadedConfig, arrival: &'a dyn ArrivalModel, time_scale: u64) -> Self {
        Self::new(Executor::Threaded(cfg), arrival, time_scale)
    }

    /// A fresh run on the single-lock baseline executor, arrivals
    /// compressed by `time_scale`.
    pub fn baseline(cfg: ThreadedConfig, arrival: &'a dyn ArrivalModel, time_scale: u64) -> Self {
        Self::new(Executor::Baseline(cfg), arrival, time_scale)
    }

    fn new(executor: Executor, arrival: &'a dyn ArrivalModel, time_scale: u64) -> Self {
        RunSpec {
            executor,
            arrival,
            time_scale,
            resume: None,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone)]
pub enum RunEnd {
    /// The run finished; the final snapshot (if checkpointing) is on disk.
    Completed(Box<RunOutcome>),
    /// The run stopped at [`tvs_core::CheckpointConfig::halt_at_block`];
    /// pass this snapshot as [`RunSpec::resume`] to finish the stream.
    Halted(Box<StreamSnapshot>),
}

/// What [`run_huffman`] reports.
#[derive(Debug, Clone)]
pub struct HuffmanRun {
    /// Completion, or the halt snapshot.
    pub end: RunEnd,
    /// Counters of the replication validation plane.
    pub replicas: ReplicaStats,
    /// Per-task trace: filled by the simulator when [`SimConfig::trace`]
    /// is set, empty otherwise.
    pub trace: Vec<TaskTrace>,
}

impl HuffmanRun {
    /// The completed outcome; panics if the run halted.
    pub fn into_outcome(self) -> RunOutcome {
        match self.end {
            RunEnd::Completed(o) => *o,
            RunEnd::Halted(_) => panic!("run halted instead of completing"),
        }
    }

    /// The halt snapshot; panics if the run completed.
    pub fn into_snapshot(self) -> StreamSnapshot {
        match self.end {
            RunEnd::Halted(s) => *s,
            RunEnd::Completed(_) => panic!("run completed instead of halting"),
        }
    }
}

/// Why [`run_huffman`] returned no run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanRunError {
    /// The executor could not complete the run (bounded retries could not
    /// save a non-speculative task, or a runtime thread died).
    Run(RunError),
    /// The resume snapshot does not fit this input and configuration.
    Resume(ResumeError),
}

impl std::fmt::Display for HuffmanRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanRunError::Run(e) => e.fmt(f),
            HuffmanRunError::Resume(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for HuffmanRunError {}

impl From<RunError> for HuffmanRunError {
    fn from(e: RunError) -> Self {
        HuffmanRunError::Run(e)
    }
}

impl From<ResumeError> for HuffmanRunError {
    fn from(e: ResumeError) -> Self {
        HuffmanRunError::Resume(e)
    }
}

/// Run the Huffman pipeline over `data` as `spec` says.
///
/// The executor config's tracer, metrics hub and fault injector are wired
/// into the pipeline workload and its replication plane (armed per
/// [`HuffmanConfig::validation`]), so every layer reports into the same
/// sinks and all fault draws share one budget and log. With
/// `cfg.checkpoint` set, snapshots are bound to this input's digest,
/// written at the configured cadence, and `halt_at_block` stops the run at
/// that committed prefix ([`RunEnd::Halted`]).
///
/// A run that fails with an armed fault injector and an enabled tracer
/// dumps a post-mortem bundle (see [`crate::postmortem`]) before the error
/// is returned.
///
/// # Panics
///
/// If the executor's dispatch policy differs from `cfg.policy`: the
/// scheduler and the speculation engine must follow one policy.
pub fn run_huffman(
    data: &[u8],
    cfg: &HuffmanConfig,
    spec: &RunSpec,
) -> Result<HuffmanRun, HuffmanRunError> {
    let (policy, tracer, hub, faults) = match &spec.executor {
        Executor::Sim(s) => (s.policy, &s.tracer, &s.hub, &s.faults),
        Executor::Threaded(t) | Executor::Baseline(t) => (t.policy, &t.tracer, &t.hub, &t.faults),
    };
    assert_eq!(
        policy, cfg.policy,
        "the executor's dispatch policy must equal HuffmanConfig::policy"
    );
    let digest = (cfg.checkpoint.is_some() || spec.resume.is_some()).then(|| fnv1a(data));
    let mut wl = match spec.resume.zip(digest) {
        Some((snap, input)) => {
            snap.check_matches(cfg.digest(), input)?;
            HuffmanWorkload::resume(cfg.clone(), data.len(), snap)?
        }
        None => HuffmanWorkload::new(cfg.clone(), data.len()),
    };
    if let Some(d) = digest {
        wl.set_input_digest(d);
    }
    // The speculation manager reads back the replication plane's SDC
    // counts, so the two share one registry even when the caller gave
    // no hub.
    let hub = hub.or_internal(0);
    wl.set_tracer(tracer.clone());
    wl.set_metrics(hub.clone());
    wl.set_fault_injector(faults.clone());
    let mut wl = ReplicatingWorkload::new(wl, cfg.validation, SDC_SEED, Arc::new(digest_output));
    wl.set_tracer(tracer.clone());
    wl.set_metrics(hub.clone());
    wl.set_fault_injector(faults.clone());

    let (blocks, arrivals) = schedule_blocks(data, cfg.block_bytes, spec.arrival);
    let prefix = spec.resume.map_or(0, |s| s.prefix as usize);
    let blocks: Vec<InputBlock> = blocks.into_iter().filter(|b| b.index >= prefix).collect();
    let ran = match &spec.executor {
        Executor::Sim(s) => {
            sim::try_run(wl, s, &HuffmanCost, blocks).map(|r| (r.workload, r.metrics, r.trace))
        }
        Executor::Threaded(t) => threaded::try_run(wl, t, paced(blocks, spec.time_scale))
            .map(|(w, m)| (w, m, Vec::new())),
        Executor::Baseline(t) => baseline::try_run(wl, t, paced(blocks, spec.time_scale))
            .map(|(w, m)| (w, m, Vec::new())),
    };
    let (wl, metrics, trace) = ran.inspect_err(|e| {
        // Crash hook: dump the flight-recorder state before the
        // structured error propagates (see `postmortem`).
        if let Some(seed) = faults.seed() {
            if let Some(log) = tracer.drain() {
                crate::postmortem::capture(
                    crate::postmortem::Trigger::RunError,
                    seed,
                    cfg.policy.label(),
                    &log,
                    Some(e.to_string()),
                );
            }
        }
    })?;
    let inner = wl.inner();
    let end = if inner.halted() {
        RunEnd::Halted(Box::new(
            inner
                .snapshot()
                .expect("halted run always built a snapshot"),
        ))
    } else {
        RunEnd::Completed(Box::new(RunOutcome {
            result: inner.result(),
            metrics,
            arrivals,
        }))
    };
    Ok(HuffmanRun {
        end,
        replicas: wl.stats(),
        trace,
    })
}

/// The real-thread executors' input: each block is released at its
/// arrival time divided by `time_scale`, measured from now.
pub(crate) fn paced(
    blocks: Vec<InputBlock>,
    time_scale: u64,
) -> impl Iterator<Item = (usize, Arc<[u8]>)> + Send + 'static {
    let start = Instant::now();
    blocks.into_iter().map(move |b| {
        let due = Duration::from_micros(b.arrival / time_scale.max(1));
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        (b.index, b.data)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_iosim::Uniform;
    use tvs_sre::{x86_smp, DispatchPolicy, FaultInjector, FaultPlan, MetricsHub, Tracer};

    fn data() -> Vec<u8> {
        (0..64 * 1024)
            .map(|i| b"streaming speculation"[i % 21])
            .collect()
    }

    fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
        HuffmanConfig {
            collect_output: true,
            ..HuffmanConfig::disk_x86(policy)
        }
    }

    fn run(d: &[u8], c: &HuffmanConfig, spec: RunSpec) -> RunOutcome {
        run_huffman(d, c, &spec)
            .expect("run completes")
            .into_outcome()
    }

    #[test]
    fn sim_runner_end_to_end() {
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::Balanced);
        let out = run(
            &d,
            &c,
            RunSpec::sim(SimConfig::new(x86_smp(8), c.policy), &arrival),
        );
        assert_eq!(out.result.blocks.len(), 16);
        assert_eq!(out.arrivals.len(), 16);
        assert!(out.completion_time() > 0);
        assert!(out.mean_latency() > 0.0);
        assert_eq!(out.latencies().len(), 16);
    }

    #[test]
    fn sim_runner_is_deterministic() {
        let d = data();
        let arrival = Uniform {
            gap_us: 3,
            start_us: 1,
        };
        let c = cfg(DispatchPolicy::Aggressive);
        let spec = RunSpec::sim(SimConfig::new(x86_smp(8), c.policy), &arrival);
        let a = run(&d, &c, spec.clone());
        let b = run(&d, &c, spec);
        assert_eq!(a.latencies(), b.latencies());
        assert_eq!(a.completion_time(), b.completion_time());
        assert_eq!(a.result.compressed_bits, b.result.compressed_bits);
    }

    #[test]
    fn trace_capture_when_requested() {
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::NonSpeculative);
        let sim = SimConfig {
            trace: true,
            ..SimConfig::new(x86_smp(4), c.policy)
        };
        let trace = run_huffman(&d, &c, &RunSpec::sim(sim, &arrival))
            .expect("run completes")
            .trace;
        assert!(trace.iter().any(|t| t.name == "count"));
        assert!(trace.iter().any(|t| t.name == "encode"));
        assert!(trace.iter().any(|t| t.name == "tree"));
    }

    #[test]
    #[should_panic(expected = "dispatch policy must equal HuffmanConfig::policy")]
    fn executor_and_pipeline_policies_must_agree() {
        let d = data();
        let arrival = Uniform {
            gap_us: 1,
            start_us: 0,
        };
        // The scheduler would dispatch aggressively while the speculation
        // engine and the trace label follow the balanced policy.
        let tcfg = ThreadedConfig::new(2, DispatchPolicy::Aggressive);
        let c = cfg(DispatchPolicy::Balanced);
        let _ = run_huffman(&d, &c, &RunSpec::threaded(tcfg, &arrival, 1000));
    }

    #[test]
    fn sim_event_log_covers_the_speculation_lifecycle() {
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let mut c = cfg(DispatchPolicy::Aggressive);
        // Step 0: predict from the very first block, so this small input
        // exercises the full speculation lifecycle.
        c.schedule = tvs_core::SpeculationSchedule::with_step(0);
        let sim = SimConfig {
            tracer: Tracer::enabled(8),
            hub: MetricsHub::enabled(8),
            ..SimConfig::new(x86_smp(8), c.policy)
        };
        let out = run(&d, &c, RunSpec::sim(sim.clone(), &arrival));
        let log = sim.tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.label, "aggressive");
        let snap = sim.hub.snapshot().expect("enabled hub snapshots");
        assert_eq!(snap.label, log.label, "one run label for both planes");
        assert_eq!(log.workers, 8);
        let h = log.health();
        assert!(h.predictor_fires > 0, "aggressive policy predicts");
        assert!(h.versions_opened > 0);
        assert!(
            h.commits + h.rollbacks > 0,
            "every run ends in a commit or rollback"
        );
        assert_eq!(
            log.count("rollback") as u64,
            out.metrics.rollbacks,
            "trace rollbacks match RunMetrics"
        );
        // The traced run must not perturb results: rerun untraced.
        let plain = run(
            &d,
            &c,
            RunSpec::sim(SimConfig::new(x86_smp(8), c.policy), &arrival),
        );
        assert_eq!(plain.metrics, out.metrics);
        assert_eq!(plain.latencies(), out.latencies());
    }

    #[test]
    fn threaded_event_log_records_task_spans() {
        let d = data();
        let arrival = Uniform {
            gap_us: 1,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::Balanced);
        let tracer = Tracer::enabled(4);
        let tcfg = ThreadedConfig {
            tracer: tracer.clone(),
            ..ThreadedConfig::new(4, c.policy)
        };
        let out = run(&d, &c, RunSpec::threaded(tcfg, &arrival, 1000));
        let log = tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.count("task-end"), log.count("task-start"));
        assert_eq!(
            log.count("task-end") as u64,
            out.metrics.tasks_delivered + out.metrics.tasks_discarded,
            "every executed task leaves a span"
        );
        assert_eq!(
            log.count("rollback") as u64,
            out.metrics.rollbacks,
            "trace rollbacks match RunMetrics"
        );
    }

    fn decode_outcome(out: &RunOutcome, expected: &[u8]) {
        let (bytes, bits, lengths) = out.result.output.as_ref().expect("collected");
        let table = tvs_huffman::CodeTable::from_lengths(lengths);
        let back = tvs_huffman::decode_exact(bytes, 0, *bits, expected.len(), &table)
            .expect("stream decodes");
        assert_eq!(back, expected, "output must decode to the input");
    }

    #[test]
    fn sim_chaos_is_deterministic_and_output_decodes() {
        let d = data();
        let arrival = Uniform {
            gap_us: 2,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::Balanced);
        // A fresh injector per run: draw counters are part of run state.
        let run = |seed: u64| {
            let tracer = Tracer::enabled(8);
            let sim = SimConfig {
                tracer: tracer.clone(),
                faults: FaultInjector::new(FaultPlan::chaos(seed)),
                ..SimConfig::new(x86_smp(8), c.policy)
            };
            let out = run_huffman(&d, &c, &RunSpec::sim(sim, &arrival))
                .expect("the chaos preset recovers through retry + rollback")
                .into_outcome();
            (out, tracer.drain().expect("enabled tracer drains"))
        };
        let (a, la) = run(42);
        let (b, lb) = run(42);
        assert_eq!(a.metrics, b.metrics, "chaos runs must be reproducible");
        assert_eq!(a.latencies(), b.latencies());
        assert_eq!(la.count("task-fault"), lb.count("task-fault"));
        decode_outcome(&a, &d);
        decode_outcome(&b, &d);
    }

    #[test]
    fn threaded_chaos_run_completes_with_correct_output() {
        let d = data();
        let arrival = Uniform {
            gap_us: 1,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::Balanced);
        let tracer = Tracer::enabled(4);
        let tcfg = ThreadedConfig {
            tracer: tracer.clone(),
            faults: FaultInjector::new(FaultPlan::chaos(7)),
            ..ThreadedConfig::new(4, c.policy)
        };
        let out = run_huffman(&d, &c, &RunSpec::threaded(tcfg, &arrival, 1000))
            .expect("the chaos preset recovers through retry + rollback")
            .into_outcome();
        let log = tracer.drain().expect("enabled tracer drains");
        decode_outcome(&out, &d);
        assert_eq!(
            log.count("task-fault") as u64,
            out.metrics.faults,
            "every caught fault leaves a trace event"
        );
    }

    #[test]
    fn breaker_trip_is_visible_in_the_event_log() {
        // The acceptance scenario: adversarial input on which every
        // prediction mispredicts. The breaker must demonstrably trip (a
        // `breaker-trip` trace event) and the run must still complete.
        let mut c = cfg(DispatchPolicy::Aggressive);
        c.block_bytes = 1024;
        c.reduce_ratio = 4;
        c.offset_fanout = 4;
        c.schedule = tvs_core::SpeculationSchedule::with_step(1);
        c.verification = tvs_core::VerificationPolicy::Full;
        c.tolerance = tvs_core::Tolerance { margin: 0.0 };
        c.breaker = Some(tvs_core::BreakerConfig {
            window: 4,
            min_samples: 2,
            trip_ratio: 0.5,
            cooldown: 1_000,
            probe_successes: 1,
        });
        // Continuously drifting input: every block shifts the byte
        // distribution, so every prediction is stale on arrival. Slow
        // arrivals keep checks resolving while their version is active.
        let d: Vec<u8> = (0..32 * 1024usize)
            .map(|i| ((i / 1024) * 7 + i % 13) as u8)
            .collect();
        let arrival = Uniform {
            gap_us: 100,
            start_us: 0,
        };
        let tracer = Tracer::enabled(8);
        let sim = SimConfig {
            tracer: tracer.clone(),
            ..SimConfig::new(x86_smp(8), c.policy)
        };
        let out = run(&d, &c, RunSpec::sim(sim, &arrival));
        let log = tracer.drain().expect("enabled tracer drains");
        assert!(
            log.count("breaker-trip") >= 1,
            "100% misprediction must trip the breaker"
        );
        assert_eq!(out.result.committed_version, None);
        decode_outcome(&out, &d);
    }

    #[test]
    fn threaded_runner_produces_decodable_output() {
        let d = data();
        let arrival = Uniform {
            gap_us: 1,
            start_us: 0,
        };
        let c = cfg(DispatchPolicy::Balanced);
        let out = run(
            &d,
            &c,
            RunSpec::threaded(ThreadedConfig::new(4, c.policy), &arrival, 1000),
        );
        decode_outcome(&out, &d);
    }
}
