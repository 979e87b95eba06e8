//! One driver for the paper's Fig. 1 DFG: a serial iterative solver whose
//! early iterate is speculated on to release a data-parallel per-block
//! phase.
//!
//! An application writes only the four points of the paper's interface,
//! as a [`Solver`]: the speculated edge (the solver's model, refined by
//! [`Solver::step`] and predicted by the current iterate), the barrier
//! (the per-block phase, [`Solver::block`]) and the validation
//! ([`Solver::check`]). [`IterativeWorkload`] owns everything else: the
//! speculation manager and its actions, the wait buffer, the speculative
//! and natural paths, and the fault path. [`crate::filter`],
//! [`crate::kmeans`] and [`crate::annealing`] are its three solvers.

use crate::runner::{paced, Executor};
use std::fmt::Debug;
use std::sync::Arc;
use tvs_core::{
    Action, CheckResult, ManagerStats, SpecVersion, SpeculationManager, SpeculationSchedule,
    VerificationPolicy, WaitBuffer,
};
use tvs_sre::exec::sim::{self, SimConfig};
use tvs_sre::exec::{baseline, threaded};
use tvs_sre::task::{expect_payload, payload, TaskCtx};
use tvs_sre::{
    Completion, CostModel, DispatchPolicy, FaultNotice, InputBlock, RunError, RunMetrics, SchedCtx,
    TaskSpec, Time, Workload,
};

/// Task names and virtual costs of one iterative application: its cost
/// model on the simulator.
#[derive(Debug, Clone, Copy)]
pub struct TaskKinds {
    /// Name of the serial solver step.
    pub step: &'static str,
    /// Name of the per-block task.
    pub block: &'static str,
    /// Cost of one solver step, µs.
    pub step_us: Time,
    /// Fixed cost of one per-block task, µs ...
    pub block_us: Time,
    /// ... plus this many µs per KiB of the block.
    pub block_us_per_kib: Time,
    /// Cost of a check or final check, µs.
    pub check_us: Time,
    /// Cost of a predictor, µs.
    pub predict_us: Time,
}

impl CostModel for TaskKinds {
    fn cost_us(&self, name: &str, bytes: usize) -> Time {
        match name {
            n if n == self.step => self.step_us,
            n if n == self.block => self.block_us + bytes as Time * self.block_us_per_kib / 1024,
            "check" | "final-check" => self.check_us,
            "predict" => self.predict_us,
            other => panic!("unknown task kind '{other}'"),
        }
    }
}

/// Declared byte sizes of the step, predictor and check tasks.
#[derive(Debug, Clone, Copy)]
pub struct TaskBytes {
    /// A solver step.
    pub step: usize,
    /// A predictor.
    pub predict: usize,
    /// A check or final check.
    pub check: usize,
}

/// The application half of an iterative pipeline.
pub trait Solver: Clone + Debug + Send + Sync + 'static {
    /// The value the serial chain refines and the per-block phase reads.
    type Model: Clone + Debug + PartialEq + Send + Sync + 'static;
    /// One block's output.
    type Out: Clone + Debug + PartialEq + Send + 'static;
    /// Task names and virtual costs.
    const KINDS: TaskKinds;
    /// Block length and generator stride of the synthetic stream
    /// [`inputs`] builds.
    const INPUT: (usize, usize);

    /// Dispatch policy, speculation schedule (basis = steps completed) and
    /// verification policy.
    fn speculation(&self) -> (DispatchPolicy, SpeculationSchedule, VerificationPolicy);
    /// Number of solver steps; the last one's model is the final value.
    fn steps(&self) -> u64;
    /// The model before the first step.
    fn initial(&self) -> Self::Model;
    /// One serial solver step.
    fn step(&self, model: &Self::Model) -> Self::Model;
    /// The per-block phase on one block.
    fn block(&self, data: &[u8], model: &Self::Model) -> Self::Out;
    /// Validate a speculated model against a newer (or the final) one.
    fn check(&self, speculated: &Self::Model, reference: &Self::Model) -> CheckResult;
    /// Declared task byte sizes.
    fn bytes(&self) -> TaskBytes;
}

/// One block's committed outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockResult<O> {
    /// Arrival time, µs.
    pub arrival: Time,
    /// Completion of the committed per-block task, µs.
    pub finished: Time,
    /// The block's output.
    pub out: O,
}

impl<O> BlockResult<O> {
    /// Per-element latency.
    pub fn latency(&self) -> Time {
        self.finished.saturating_sub(self.arrival)
    }
}

/// Result of a finished iterative run.
#[derive(Debug, Clone)]
pub struct IterativeResult<S: Solver> {
    /// Per-block outcomes, in block order.
    pub blocks: Vec<BlockResult<S::Out>>,
    /// The model every committed output used.
    pub model: S::Model,
    /// Committed speculation version, if any.
    pub committed_version: Option<SpecVersion>,
    /// Speculation stats (None when not speculating).
    pub spec_stats: Option<ManagerStats>,
}

impl<S: Solver> PartialEq for IterativeResult<S> {
    fn eq(&self, other: &Self) -> bool {
        self.blocks == other.blocks
            && self.model == other.model
            && self.committed_version == other.committed_version
            && self.spec_stats == other.spec_stats
    }
}

impl<S: Solver> IterativeResult<S> {
    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.latency() as f64).sum::<f64>() / self.blocks.len() as f64
    }

    /// The output oracle: one outcome per input block, each equal to
    /// `solver`'s per-block phase on that block and the used model.
    pub fn verify(&self, solver: &S, inputs: &[InputBlock]) -> Result<(), String> {
        if self.blocks.len() != inputs.len() {
            return Err(format!(
                "{} outcomes for {} blocks",
                self.blocks.len(),
                inputs.len()
            ));
        }
        for b in inputs {
            let got = self.blocks.get(b.index).map(|r| &r.out);
            if got != Some(&solver.block(&b.data, &self.model)) {
                return Err(format!("block {} differs from the kernel", b.index));
            }
        }
        Ok(())
    }
}

/// One path of the per-block phase: its model, its version (`None` on
/// the natural path) and which blocks it has spawned.
struct Path<M> {
    version: Option<SpecVersion>,
    model: Arc<M>,
    spawned: Vec<bool>,
}

/// The Fig. 1 workload over any [`Solver`].
pub struct IterativeWorkload<S: Solver> {
    solver: Arc<S>,
    speculates: bool,
    bytes: TaskBytes,

    data: Vec<Option<Arc<[u8]>>>,
    arrival: Vec<Time>,
    steps_done: u64,
    current: Arc<S::Model>,

    mgr: SpeculationManager<Arc<S::Model>>,
    buffer: WaitBuffer<(S::Out, Time)>,
    committed_version: Option<SpecVersion>,
    spec: Option<Path<S::Model>>,
    natural: Option<Path<S::Model>>,
    final_model: Option<Arc<S::Model>>,
    used_model: Option<Arc<S::Model>>,

    done: Vec<Option<BlockResult<S::Out>>>,
    blocks_done: usize,
}

impl<S: Solver> IterativeWorkload<S> {
    /// A workload for `n_blocks` input blocks.
    pub fn new(solver: S, n_blocks: usize) -> Self {
        assert!(n_blocks > 0 && solver.steps() >= 1);
        let (policy, schedule, verification) = solver.speculation();
        IterativeWorkload {
            speculates: policy.speculates(),
            bytes: solver.bytes(),
            data: vec![None; n_blocks],
            arrival: vec![0; n_blocks],
            steps_done: 0,
            current: Arc::new(solver.initial()),
            mgr: SpeculationManager::new(schedule, verification),
            buffer: WaitBuffer::new(),
            committed_version: None,
            spec: None,
            natural: None,
            final_model: None,
            used_model: None,
            done: vec![None; n_blocks],
            blocks_done: 0,
            solver: Arc::new(solver),
        }
    }

    /// Extract the result after the run finished.
    pub fn result(&self) -> IterativeResult<S> {
        assert!(self.is_finished());
        IterativeResult {
            blocks: self.done.iter().map(|d| d.clone().expect("done")).collect(),
            model: S::Model::clone(self.used_model.as_ref().expect("used model")),
            committed_version: self.committed_version,
            spec_stats: self.speculates.then(|| self.mgr.stats()),
        }
    }

    fn spawn_step(&mut self, ctx: &mut dyn SchedCtx) {
        let (solver, model) = (self.solver.clone(), self.current.clone());
        ctx.spawn(TaskSpec::regular(
            S::KINDS.step,
            1,
            self.bytes.step,
            self.steps_done,
            move |_| payload(Arc::new(solver.step(&model))),
        ));
    }

    fn spawn_check(
        &self,
        ctx: &mut dyn SchedCtx,
        name: &'static str,
        tag: u64,
        version: SpecVersion,
        spec: Arc<S::Model>,
        reference: Arc<S::Model>,
    ) {
        let solver = self.solver.clone();
        ctx.spawn(TaskSpec::check(name, self.bytes.check, tag, move |_| {
            let r = solver.check(&spec, &reference);
            payload((version, r, reference.clone()))
        }));
    }

    /// Open the speculative (`version` set) or natural path on `model` and
    /// spawn its per-block tasks.
    fn start_path(
        &mut self,
        ctx: &mut dyn SchedCtx,
        version: Option<SpecVersion>,
        model: Arc<S::Model>,
    ) {
        let path = Path {
            version,
            model: model.clone(),
            spawned: vec![false; self.done.len()],
        };
        if version.is_some() {
            self.spec = Some(path);
        } else {
            self.used_model = Some(model);
            self.natural = Some(path);
        }
        self.spawn_blocks(ctx, version.is_none());
    }

    /// Spawn the per-block task of every arrived, unfinished block the
    /// speculative (or natural) path has not spawned yet.
    fn spawn_blocks(&mut self, ctx: &mut dyn SchedCtx, natural: bool) {
        let path = if natural {
            &mut self.natural
        } else {
            &mut self.spec
        };
        let Some(path) = path else { return };
        for (idx, data) in self.data.iter().enumerate() {
            let Some(data) = data else { continue };
            if path.spawned[idx] || self.done[idx].is_some() {
                continue;
            }
            path.spawned[idx] = true;
            let (solver, model, data) = (self.solver.clone(), path.model.clone(), data.clone());
            let bytes = data.len();
            let body = move |_: &TaskCtx| payload(solver.block(&data, &model));
            ctx.spawn(match path.version {
                Some(v) => TaskSpec::speculative(S::KINDS.block, 2, bytes, v, idx as u64, body),
                None => TaskSpec::regular(S::KINDS.block, 2, bytes, idx as u64, body),
            });
        }
    }

    fn finalize(&mut self, idx: usize, out: S::Out, finished: Time) {
        assert!(self.done[idx].is_none(), "block {idx} finalised twice");
        self.done[idx] = Some(BlockResult {
            arrival: self.arrival[idx],
            finished,
            out,
        });
        self.blocks_done += 1;
    }

    fn handle_actions(&mut self, ctx: &mut dyn SchedCtx, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::StartPrediction { version } => {
                    // The prediction *is* the current iterate; a tiny task
                    // materialises it (the paper's speculative-value source
                    // is the early iteration's output edge).
                    let model = self.current.clone();
                    ctx.spawn(TaskSpec::predictor(
                        "predict",
                        self.bytes.predict,
                        version,
                        version as u64,
                        move |_| payload(model.clone()),
                    ));
                }
                Action::SpawnCheck { version } => {
                    let (_, spec) = self.mgr.active().expect("active speculation");
                    let (spec, newer) = (spec.clone(), self.current.clone());
                    self.spawn_check(ctx, "check", self.steps_done, version, spec, newer);
                }
                Action::Rollback { version } => {
                    ctx.abort_version(version);
                    self.buffer.abort(version);
                    self.spec = None;
                }
                Action::PromoteCandidate { version } => {
                    let (_, model) = self.mgr.active().expect("promoted");
                    let model = model.clone();
                    self.start_path(ctx, Some(version), model);
                }
                Action::SpawnFinalCheck { version } => {
                    let (_, spec) = self.mgr.pending_final().expect("pending final");
                    let spec = spec.clone();
                    let fin = self.final_model.clone().expect("final model");
                    self.spawn_check(ctx, "final-check", version as u64, version, spec, fin);
                }
                Action::Commit { version } => {
                    self.committed_version = Some(version);
                    self.used_model = self.spec.as_ref().map(|p| p.model.clone());
                    for (slot, (out, finished)) in self.buffer.commit(version) {
                        self.finalize(slot as usize, out, finished);
                    }
                }
                Action::RecomputeNaturally => {
                    let fin = self.final_model.clone().expect("final model");
                    self.start_path(ctx, None, fin);
                }
            }
        }
    }
}

impl<S: Solver> Workload for IterativeWorkload<S> {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        self.spawn_step(ctx);
    }

    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let idx = block.index;
        self.arrival[idx] = block.arrival;
        self.data[idx] = Some(block.data);
        // A newly arrived block joins whichever path is open.
        self.spawn_blocks(ctx, false);
        self.spawn_blocks(ctx, true);
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        match done.name {
            "predict" => {
                let version = done.version.expect("predictor version");
                let model = expect_payload::<Arc<S::Model>>(done.output, "predicted model");
                if self.mgr.install_prediction(version, model.clone()) {
                    self.start_path(ctx, Some(version), model);
                }
            }
            "check" => {
                let (version, r, newer) = expect_payload::<(SpecVersion, CheckResult, Arc<S::Model>)>(
                    done.output,
                    "check tuple",
                );
                let actions = self
                    .mgr
                    .on_check_result(version, r, Some((newer, done.tag)));
                self.handle_actions(ctx, actions);
            }
            "final-check" => {
                let (version, r, _) = expect_payload::<(SpecVersion, CheckResult, Arc<S::Model>)>(
                    done.output,
                    "final check tuple",
                );
                let actions = self.mgr.on_final_check_result(version, r);
                self.handle_actions(ctx, actions);
            }
            step if step == S::KINDS.step => {
                self.current = expect_payload::<Arc<S::Model>>(done.output, "stepped model");
                self.steps_done += 1;
                if self.steps_done < self.solver.steps() {
                    if self.speculates && !self.mgr.is_done() {
                        let actions = self.mgr.on_basis(self.steps_done);
                        self.handle_actions(ctx, actions);
                    }
                    self.spawn_step(ctx);
                } else {
                    self.final_model = Some(self.current.clone());
                    let actions = if self.speculates {
                        self.mgr.on_final()
                    } else {
                        vec![Action::RecomputeNaturally]
                    };
                    self.handle_actions(ctx, actions);
                }
            }
            block if block == S::KINDS.block => {
                let idx = done.tag as usize;
                let out = expect_payload::<S::Out>(done.output, "block output");
                match done.version {
                    Some(v) if self.committed_version != Some(v) => {
                        self.buffer.push(v, idx as u64, (out, done.finished));
                    }
                    _ => self.finalize(idx, out, done.finished),
                }
            }
            other => unreachable!("unknown completion '{other}'"),
        }
    }

    fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
        // A fault feeds the breaker's failure window; a faulted speculative
        // task also kills its version, so bring the manager's phase in line
        // and let the regular rollback actions clear the path and buffer.
        self.mgr.record_fault();
        let Some(v) = fault.version else { return };
        if self.committed_version != Some(v) {
            let actions = self.mgr.on_external_abort(v);
            self.handle_actions(ctx, actions);
        } else if self.natural.is_none() {
            // The manager has nothing left to roll back, but the executor
            // aborts the committed version next: its in-flight tasks are
            // discarded and later spawns refused. Replay every unfinished
            // block, and route later arrivals, as regular tasks on the
            // committed model.
            self.spec = None;
            let model = self.used_model.clone().expect("committed model");
            self.start_path(ctx, None, model);
        }
    }

    fn is_finished(&self) -> bool {
        self.blocks_done == self.done.len()
    }
}

/// The synthetic stream [`run_sim`] feeds: `n` blocks of pseudo-random
/// bytes shaped by [`Solver::INPUT`], one every `gap_us`.
pub fn inputs<S: Solver>(n: usize, gap_us: Time) -> Vec<InputBlock> {
    let (len, stride) = S::INPUT;
    (0..n)
        .map(|i| InputBlock {
            index: i,
            arrival: i as Time * gap_us,
            data: (0..len)
                .map(|j| (((i * stride + j) as u32).wrapping_mul(2654435761) >> 24) as u8)
                .collect::<Vec<u8>>()
                .into(),
        })
        .collect()
}

/// Run `solver` over `inputs` on `exec`. The real-thread executors feed
/// each block at its arrival time; the simulator charges
/// [`Solver::KINDS`] as virtual task costs.
///
/// # Panics
///
/// If the executor's dispatch policy differs from the solver's.
pub fn run<S: Solver>(
    solver: &S,
    exec: &Executor,
    inputs: Vec<InputBlock>,
) -> Result<(IterativeResult<S>, RunMetrics), RunError> {
    let policy = match exec {
        Executor::Sim(s) => s.policy,
        Executor::Threaded(t) | Executor::Baseline(t) => t.policy,
    };
    assert_eq!(policy, solver.speculation().0, "executor and solver policy");
    let wl = IterativeWorkload::new(solver.clone(), inputs.len());
    let (wl, metrics) = match exec {
        Executor::Sim(s) => sim::try_run(wl, s, &S::KINDS, inputs).map(|r| (r.workload, r.metrics)),
        Executor::Threaded(t) => threaded::try_run(wl, t, paced(inputs, 1)),
        Executor::Baseline(t) => baseline::try_run(wl, t, paced(inputs, 1)),
    }?;
    Ok((wl.result(), metrics))
}

/// Run `solver` on `workers` simulated x86 cores over [`inputs`]`(n_blocks,
/// arrival_gap_us)`.
pub fn run_sim<S: Solver>(
    solver: &S,
    n_blocks: usize,
    arrival_gap_us: Time,
    workers: usize,
) -> (IterativeResult<S>, RunMetrics) {
    let sim = SimConfig::new(tvs_sre::x86_smp(workers), solver.speculation().0);
    let inputs = inputs::<S>(n_blocks, arrival_gap_us);
    run(solver, &Executor::Sim(sim), inputs).expect("run completes")
}
