//! Speculative simulated annealing — the paper's "random-based
//! optimization heuristics" workload class (§II-A).
//!
//! A serial annealing chain searches for good placement of `n` items on a
//! ring (a toy quadratic-assignment objective); the expensive downstream
//! phase evaluates every streamed scenario block against the chosen
//! placement. Unlike the filter/k-means solvers, annealing converges
//! *stochastically and non-monotonically*: the incumbent best can improve
//! in bursts after long plateaus, which exercises the speculation engine's
//! tolerance checks with a noisy basis — the regime the paper's tolerance
//! idea targets ("most computations of this nature are not overly
//! sensitive to their parameter values").
//!
//! Speculation predicts the *final placement* from the incumbent at an
//! early annealing epoch; validation compares objective values (not the
//! placements themselves — two very different placements with near-equal
//! cost are interchangeable for downstream use, the essence of semantic
//! tolerance).

use std::sync::Arc;
use tvs_core::{
    Action, CheckResult, ManagerStats, SpecVersion, SpeculationManager, SpeculationSchedule,
    Tolerance, VerificationPolicy, WaitBuffer,
};
use tvs_sre::task::{expect_payload, payload, TaskCtx};
use tvs_sre::{
    Completion, CostModel, DispatchPolicy, InputBlock, SchedCtx, TaskSpec, Time, Workload,
};

/// Configuration of the annealing pipeline.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Problem size (items on the ring).
    pub n_items: usize,
    /// Annealing epochs (basis events; each runs a batch of moves).
    pub epochs: u64,
    /// Metropolis moves per epoch.
    pub moves_per_epoch: u32,
    /// Initial temperature (geometrically cooled per epoch).
    pub t0: f64,
    /// Cooling factor per epoch.
    pub cooling: f64,
    /// RNG seed for the chain.
    pub seed: u64,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// When to speculate (basis = epochs completed).
    pub schedule: SpeculationSchedule,
    /// When to verify.
    pub verification: VerificationPolicy,
    /// Relative-objective tolerance.
    pub tolerance: Tolerance,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            n_items: 48,
            epochs: 12,
            moves_per_epoch: 600,
            t0: 2.0,
            cooling: 0.55,
            seed: 11,
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(4),
            verification: VerificationPolicy::EveryKth(2),
            tolerance: Tolerance::percent(2.0),
        }
    }
}

/// Cost model for the annealing tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnealCost;

impl CostModel for AnnealCost {
    fn cost_us(&self, name: &str, bytes: usize) -> Time {
        let b = bytes as Time;
        match name {
            "anneal" => 450,
            "evaluate" => 12 + b * 8 / 1024,
            "check" | "final-check" => 8,
            "predict" => 4,
            other => panic!("AnnealCost: unknown task kind '{other}'"),
        }
    }
}

/// A placement (permutation) plus its objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Item order on the ring.
    pub order: Vec<u16>,
    /// Objective value (lower is better).
    pub cost: f64,
}

/// Toy quadratic objective: items with close *values* want to sit close on
/// the ring (value = `i * 37 % n`, so the identity order is far from
/// optimal).
pub fn objective(order: &[u16]) -> f64 {
    let n = order.len();
    let mut cost = 0.0;
    for i in 0..n {
        let a = (order[i] as usize * 37 % n) as f64;
        let b = (order[(i + 1) % n] as usize * 37 % n) as f64;
        let d = (a - b).abs();
        cost += d.min(n as f64 - d);
    }
    cost
}

/// A deterministic xorshift RNG (the chain must be reproducible).
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One annealing epoch: a batch of Metropolis swap moves at temperature
/// `t`. Returns the updated solution and RNG state.
pub fn anneal_epoch(mut sol: Solution, t: f64, moves: u32, rng_state: u64) -> (Solution, u64) {
    let mut rng = XorShift(rng_state.max(1));
    let n = sol.order.len();
    for _ in 0..moves {
        let (i, j) = (rng.below(n), rng.below(n));
        if i == j {
            continue;
        }
        sol.order.swap(i, j);
        let new_cost = objective(&sol.order);
        let accept =
            new_cost <= sol.cost || rng.next_f64() < ((sol.cost - new_cost) / t.max(1e-9)).exp();
        if accept {
            sol.cost = new_cost;
        } else {
            sol.order.swap(i, j);
        }
    }
    (sol, rng.0)
}

/// Per-block evaluation outcome.
#[derive(Debug, Clone, Copy)]
pub struct EvaluatedBlock {
    /// Arrival time, µs.
    pub arrival: Time,
    /// Completion of the committed evaluate task, µs.
    pub evaluated_at: Time,
    /// Scenario score under the committed placement.
    pub score: f64,
}

impl EvaluatedBlock {
    /// Per-element latency.
    pub fn latency(&self) -> Time {
        self.evaluated_at.saturating_sub(self.arrival)
    }
}

/// Result of a finished annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Per-block outcomes.
    pub blocks: Vec<EvaluatedBlock>,
    /// The placement the committed outputs used.
    pub solution: Solution,
    /// Committed speculation version, if any.
    pub committed_version: Option<SpecVersion>,
    /// Speculation statistics.
    pub spec_stats: Option<ManagerStats>,
}

impl AnnealResult {
    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.latency() as f64).sum::<f64>() / self.blocks.len() as f64
    }
}

/// Evaluate a scenario block under a placement: a deterministic dot-ish
/// product between scenario bytes and ring adjacency.
pub fn evaluate_block(data: &[u8], order: &[u16]) -> f64 {
    let n = order.len();
    let mut score = 0.0;
    for (i, &b) in data.iter().enumerate() {
        let slot = i % n;
        let item = order[slot] as usize;
        score += (b as f64) * ((item * 13 + slot) % 31) as f64 / 31.0;
    }
    score
}

struct EvalOut {
    score: f64,
    finished: Time,
}

/// The speculative annealing workload.
pub struct AnnealWorkload {
    cfg: AnnealConfig,
    n_blocks: usize,

    data: Vec<Option<Arc<[u8]>>>,
    arrival: Vec<Time>,
    epoch: u64,
    temperature: f64,
    rng_state: u64,
    current: Arc<Solution>,

    mgr: SpeculationManager<Arc<Solution>>,
    buffer: WaitBuffer<EvalOut>,
    committed_version: Option<SpecVersion>,
    spec: Option<(SpecVersion, Arc<Solution>)>,
    spec_done: Vec<bool>,
    natural: Option<Arc<Solution>>,
    natural_done: Vec<bool>,
    final_solution: Option<Arc<Solution>>,
    used_solution: Option<Arc<Solution>>,

    done: Vec<Option<EvaluatedBlock>>,
    blocks_done: usize,
}

impl AnnealWorkload {
    /// A workload over `n_blocks` scenario blocks.
    pub fn new(cfg: AnnealConfig, n_blocks: usize) -> Self {
        assert!(n_blocks > 0 && cfg.n_items >= 4 && cfg.epochs >= 1);
        let order: Vec<u16> = (0..cfg.n_items as u16).collect();
        let cost = objective(&order);
        let mgr = SpeculationManager::new(cfg.schedule, cfg.verification);
        AnnealWorkload {
            n_blocks,
            data: vec![None; n_blocks],
            arrival: vec![0; n_blocks],
            epoch: 0,
            temperature: cfg.t0,
            rng_state: cfg.seed,
            current: Arc::new(Solution { order, cost }),
            mgr,
            buffer: WaitBuffer::new(),
            committed_version: None,
            spec: None,
            spec_done: vec![false; n_blocks],
            natural: None,
            natural_done: vec![false; n_blocks],
            final_solution: None,
            used_solution: None,
            done: vec![None; n_blocks],
            blocks_done: 0,
            cfg,
        }
    }

    /// Extract the result after the run finished.
    pub fn result(&self) -> AnnealResult {
        assert!(self.is_finished());
        AnnealResult {
            blocks: self.done.iter().map(|d| d.expect("done")).collect(),
            solution: (*self.used_solution.as_ref().expect("committed"))
                .as_ref()
                .clone(),
            committed_version: self.committed_version,
            spec_stats: if self.cfg.policy.speculates() {
                Some(self.mgr.stats())
            } else {
                None
            },
        }
    }

    fn spawn_epoch(&mut self, ctx: &mut dyn SchedCtx) {
        let sol = self.current.as_ref().clone();
        let (t, moves, rng) = (self.temperature, self.cfg.moves_per_epoch, self.rng_state);
        ctx.spawn(TaskSpec::regular(
            "anneal",
            1,
            sol.order.len() * 2,
            self.epoch,
            move |_: &TaskCtx| {
                let (next, rng2) = anneal_epoch(sol.clone(), t, moves, rng);
                payload((Arc::new(next), rng2))
            },
        ));
    }

    fn spawn_evals(
        &mut self,
        ctx: &mut dyn SchedCtx,
        version: Option<SpecVersion>,
        sol: Arc<Solution>,
    ) {
        for idx in 0..self.n_blocks {
            let done = match version {
                Some(_) => &mut self.spec_done,
                None => &mut self.natural_done,
            };
            if done[idx] || self.data[idx].is_none() {
                continue;
            }
            done[idx] = true;
            let data = self.data[idx].as_ref().expect("arrived").clone();
            let sol = sol.clone();
            let bytes = data.len();
            let body = move |_: &TaskCtx| payload(evaluate_block(&data, &sol.order));
            let task = match version {
                Some(v) => TaskSpec::speculative("evaluate", 2, bytes, v, idx as u64, body),
                None => TaskSpec::regular("evaluate", 2, bytes, idx as u64, body),
            };
            ctx.spawn(task);
        }
    }

    fn finalize(&mut self, idx: usize, score: f64, finished: Time) {
        assert!(self.done[idx].is_none(), "block {idx} evaluated twice");
        self.done[idx] = Some(EvaluatedBlock {
            arrival: self.arrival[idx],
            evaluated_at: finished,
            score,
        });
        self.blocks_done += 1;
    }

    fn handle_actions(&mut self, ctx: &mut dyn SchedCtx, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::StartPrediction { version } => {
                    let sol = self.current.clone();
                    ctx.spawn(TaskSpec::predictor(
                        "predict",
                        64,
                        version,
                        version as u64,
                        move |_| payload(sol.clone()),
                    ));
                }
                Action::SpawnCheck { version } => {
                    let (_, spec) = self.mgr.active().expect("active");
                    let spec = spec.clone();
                    let newer = self.current.clone();
                    let tol = self.cfg.tolerance;
                    let basis = self.epoch;
                    ctx.spawn(TaskSpec::check("check", 64, basis, move |_| {
                        // Semantic tolerance: compare *objective values*.
                        // The newer incumbent is never worse (annealing
                        // tracks the accepted state, and cooling makes
                        // regressions rare and small); the speculation is
                        // stale once it costs `tol` more than the incumbent.
                        let delta = ((spec.cost - newer.cost) / newer.cost.max(1e-12)).max(0.0);
                        payload((version, tol.judge(delta), newer.clone(), basis))
                    }));
                }
                Action::Rollback { version } => {
                    ctx.abort_version(version);
                    self.buffer.abort(version);
                    self.spec = None;
                    self.spec_done = vec![false; self.n_blocks];
                }
                Action::PromoteCandidate { version } => {
                    let (_, sol) = self.mgr.active().expect("promoted");
                    let sol = sol.clone();
                    self.spec = Some((version, sol.clone()));
                    self.spawn_evals(ctx, Some(version), sol);
                }
                Action::SpawnFinalCheck { version } => {
                    let (_, spec) = self.mgr.pending_final().expect("pending final");
                    let spec = spec.clone();
                    let fin = self.final_solution.as_ref().expect("final").clone();
                    let tol = self.cfg.tolerance;
                    ctx.spawn(TaskSpec::check(
                        "final-check",
                        64,
                        version as u64,
                        move |_| {
                            let delta = ((spec.cost - fin.cost) / fin.cost.max(1e-12)).max(0.0);
                            payload((version, tol.judge(delta)))
                        },
                    ));
                }
                Action::Commit { version } => {
                    self.committed_version = Some(version);
                    self.used_solution = self.spec.as_ref().map(|(_, s)| s.clone());
                    for (slot, out) in self.buffer.commit(version) {
                        self.finalize(slot as usize, out.score, out.finished);
                    }
                }
                Action::RecomputeNaturally => {
                    let sol = self
                        .final_solution
                        .as_ref()
                        .expect("final solution")
                        .clone();
                    self.used_solution = Some(sol.clone());
                    self.natural = Some(sol.clone());
                    self.spawn_evals(ctx, None, sol);
                }
            }
        }
    }
}

impl Workload for AnnealWorkload {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        self.spawn_epoch(ctx);
    }

    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let idx = block.index;
        self.arrival[idx] = block.arrival;
        self.data[idx] = Some(block.data);
        if let Some((v, s)) = self.spec.clone() {
            if self.committed_version.is_none() || self.committed_version == Some(v) {
                self.spawn_evals(ctx, Some(v), s);
            }
        }
        if let Some(s) = self.natural.clone() {
            self.spawn_evals(ctx, None, s);
        }
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        match done.name {
            "anneal" => {
                let (sol, rng2) =
                    expect_payload::<(Arc<Solution>, u64)>(done.output, "(Arc<Solution>, u64)");
                self.current = sol;
                self.rng_state = rng2;
                self.temperature *= self.cfg.cooling;
                self.epoch += 1;
                if self.epoch < self.cfg.epochs {
                    if self.cfg.policy.speculates() && !self.mgr.is_done() {
                        let actions = self.mgr.on_basis(self.epoch);
                        self.handle_actions(ctx, actions);
                    }
                    self.spawn_epoch(ctx);
                } else {
                    self.final_solution = Some(self.current.clone());
                    let actions = if self.cfg.policy.speculates() {
                        self.mgr.on_final()
                    } else {
                        vec![Action::RecomputeNaturally]
                    };
                    self.handle_actions(ctx, actions);
                }
            }
            "predict" => {
                let version = done.version.expect("predictor version");
                let sol = expect_payload::<Arc<Solution>>(done.output, "Arc<Solution>");
                if self.mgr.install_prediction(version, sol.clone()) {
                    self.spec = Some((version, sol.clone()));
                    self.spawn_evals(ctx, Some(version), sol);
                }
            }
            "check" => {
                let (version, r, newer, basis) =
                    expect_payload::<(SpecVersion, CheckResult, Arc<Solution>, u64)>(
                        done.output,
                        "check tuple",
                    );
                let actions = self.mgr.on_check_result(version, r, Some((newer, basis)));
                self.handle_actions(ctx, actions);
            }
            "final-check" => {
                let (version, r) =
                    expect_payload::<(SpecVersion, CheckResult)>(done.output, "final tuple");
                let actions = self.mgr.on_final_check_result(version, r);
                self.handle_actions(ctx, actions);
            }
            "evaluate" => {
                let idx = done.tag as usize;
                let score = expect_payload::<f64>(done.output, "f64");
                match done.version {
                    Some(v) => {
                        if self.committed_version == Some(v) {
                            self.finalize(idx, score, done.finished);
                        } else {
                            self.buffer.push(
                                v,
                                idx as u64,
                                EvalOut {
                                    score,
                                    finished: done.finished,
                                },
                            );
                        }
                    }
                    None => self.finalize(idx, score, done.finished),
                }
            }
            other => unreachable!("unknown completion '{other}'"),
        }
    }

    fn is_finished(&self) -> bool {
        self.blocks_done == self.n_blocks
    }
}

/// Run the annealing pipeline on the simulator with uniform block arrivals.
pub fn run_anneal_sim(
    cfg: &AnnealConfig,
    n_blocks: usize,
    arrival_gap_us: Time,
    workers: usize,
) -> (AnnealResult, tvs_sre::RunMetrics) {
    use tvs_sre::exec::sim::{try_run, SimConfig};
    let wl = AnnealWorkload::new(cfg.clone(), n_blocks);
    let sim = SimConfig::new(tvs_sre::x86_smp(workers), cfg.policy);
    let inputs: Vec<InputBlock> = (0..n_blocks)
        .map(|i| InputBlock {
            index: i,
            arrival: i as Time * arrival_gap_us,
            data: make_block(i),
        })
        .collect();
    let rep = try_run(wl, &sim, &AnnealCost, inputs).expect("run completes");
    (rep.workload.result(), rep.metrics)
}

fn make_block(i: usize) -> Arc<[u8]> {
    (0..2048)
        .map(|j| (((i * 97 + j) as u32).wrapping_mul(2654435761) >> 24) as u8)
        .collect::<Vec<u8>>()
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annealing_improves_the_objective() {
        let cfg = AnnealConfig::default();
        let mut sol = {
            let order: Vec<u16> = (0..cfg.n_items as u16).collect();
            let cost = objective(&order);
            Solution { order, cost }
        };
        let start = sol.cost;
        let mut t = cfg.t0;
        let mut rng = cfg.seed;
        for _ in 0..cfg.epochs {
            let (next, rng2) = anneal_epoch(sol, t, cfg.moves_per_epoch, rng);
            sol = next;
            rng = rng2;
            t *= cfg.cooling;
        }
        assert!(
            sol.cost < start * 0.7,
            "annealing should improve: {start} -> {}",
            sol.cost
        );
        // The chain is deterministic.
        assert_eq!(objective(&sol.order), sol.cost);
    }

    #[test]
    fn non_speculative_run_completes() {
        let cfg = AnnealConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let (res, m) = run_anneal_sim(&cfg, 32, 10, 4);
        assert_eq!(res.blocks.len(), 32);
        assert_eq!(m.rollbacks, 0);
        // Scores match a direct evaluation under the committed placement.
        for (i, b) in res.blocks.iter().enumerate() {
            let expect = evaluate_block(&make_block(i), &res.solution.order);
            assert!((b.score - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn speculation_commits_within_tolerance_and_wins() {
        let ns = AnnealConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let sp = AnnealConfig::default();
        let (rn, _) = run_anneal_sim(&ns, 64, 10, 8);
        let (rs, _) = run_anneal_sim(&sp, 64, 10, 8);
        if let Some(_v) = rs.committed_version {
            // The committed solution's objective is within tolerance of the
            // final one (checked by construction; assert the run agrees).
            assert!(rs.mean_latency() < rn.mean_latency());
        }
        assert_eq!(rs.blocks.len(), 64);
    }

    #[test]
    fn early_speculation_on_hot_chain_rolls_back() {
        // Speculating at epoch 1 of 12 with a tight margin: the incumbent
        // still improves a lot, so checks must fail at least once.
        let cfg = AnnealConfig {
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance::percent(0.5),
            ..Default::default()
        };
        let (res, m) = run_anneal_sim(&cfg, 32, 10, 4);
        assert!(m.rollbacks > 0, "hot-chain speculation must roll back");
        assert_eq!(res.blocks.len(), 32);
    }

    #[test]
    fn stochastic_convergence_is_tolerated_late() {
        // By epoch ~8 of 12 the chain is cold, but annealing is stochastic:
        // an occasional late improvement may still evict one speculation.
        // The engine must absorb that (at most a refresh or two) and commit
        // a within-tolerance placement.
        let cfg = AnnealConfig {
            schedule: SpeculationSchedule::with_step(8),
            ..Default::default()
        };
        let (res, m) = run_anneal_sim(&cfg, 32, 10, 4);
        assert!(
            m.rollbacks <= 2,
            "cold-chain speculation churned: {}",
            m.rollbacks
        );
        assert!(
            res.committed_version.is_some(),
            "a cold-chain prediction must commit"
        );

        // And late speculation must be strictly calmer than hot-chain
        // speculation under the same margin.
        let hot = AnnealConfig {
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            ..Default::default()
        };
        let (_, mh) = run_anneal_sim(&hot, 32, 10, 4);
        assert!(
            mh.rollbacks > m.rollbacks,
            "hot {} vs cold {}",
            mh.rollbacks,
            m.rollbacks
        );
    }

    #[test]
    fn committed_and_final_solutions_may_differ_but_score_close() {
        let cfg = AnnealConfig {
            schedule: SpeculationSchedule::with_step(6),
            ..Default::default()
        };
        let (res, _) = run_anneal_sim(&cfg, 16, 10, 4);
        if res.committed_version.is_some() {
            // Recompute the final solution serially.
            let mut sol = {
                let order: Vec<u16> = (0..cfg.n_items as u16).collect();
                let cost = objective(&order);
                Solution { order, cost }
            };
            let (mut t, mut rng) = (cfg.t0, cfg.seed);
            for _ in 0..cfg.epochs {
                let (next, rng2) = anneal_epoch(sol, t, cfg.moves_per_epoch, rng);
                sol = next;
                rng = rng2;
                t *= cfg.cooling;
            }
            let rel = (res.solution.cost - sol.cost).abs() / sol.cost;
            assert!(
                rel <= 0.02 + 1e-9,
                "committed objective within tolerance: {rel}"
            );
        }
    }
}
