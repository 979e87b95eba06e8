//! The iterative-filter pipeline — the paper's motivating example (Fig. 1).
//!
//! "Figure 1a shows the DFG of an iterative solver that is used to compute
//! the coefficients of a filter, which is then used to operate on a stream
//! of data. [...] Predicting an early value of the coefficients can allow
//! the program to reach the parallel filtering phase earlier."
//!
//! The solver here is a contraction toward a target coefficient vector
//! (rate `mu` per step, emulating a converging iterative method); the
//! filtering phase is an FIR convolution over the input blocks. Speculation
//! predicts the coefficients from an early iterate; validation is a
//! normalised-L2 comparison within the tolerance.

use crate::config::BLOCK_BYTES;
use std::sync::Arc;
use tvs_core::validate::{L2Error, Validator};
use tvs_core::{
    Action, CheckResult, ManagerStats, SpecVersion, SpeculationManager, SpeculationSchedule,
    Tolerance, VerificationPolicy, WaitBuffer,
};
use tvs_sre::task::{expect_payload, payload};
use tvs_sre::{
    Completion, CostModel, DispatchPolicy, InputBlock, SchedCtx, TaskSpec, Time, Workload,
};

/// Configuration of the filter pipeline.
#[derive(Debug, Clone)]
pub struct FilterConfig {
    /// FIR length.
    pub taps: usize,
    /// Number of solver iterations (the serial bottleneck length).
    pub iterations: u64,
    /// Contraction rate per iteration (0 < mu < 1).
    pub mu: f64,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// When to speculate (basis = iterations completed).
    pub schedule: SpeculationSchedule,
    /// When to verify.
    pub verification: VerificationPolicy,
    /// L2 tolerance on the coefficient vector.
    pub tolerance: Tolerance,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            taps: 16,
            iterations: 12,
            mu: 0.5,
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(4),
            verification: VerificationPolicy::EveryKth(2),
            tolerance: Tolerance::percent(1.0),
        }
    }
}

/// Cost model for the filter pipeline's tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterCost;

impl CostModel for FilterCost {
    fn cost_us(&self, name: &str, bytes: usize) -> Time {
        let b = bytes as Time;
        match name {
            // One solver refinement step: a coarse serial task.
            "iterate" => 400,
            // FIR over the block: ~64 µs per 4 KB at 16 taps.
            "filter" => 8 + b * 14 / 1024,
            "check" | "final-check" => 10,
            "predict" => 5, // the iterate is the prediction; just a copy
            other => panic!("FilterCost: unknown task kind '{other}'"),
        }
    }
}

/// Per-block outcome of the filter pipeline.
#[derive(Debug, Clone, Copy)]
pub struct FilteredBlock {
    /// Block arrival, µs.
    pub arrival: Time,
    /// Completion of the committed filter task, µs.
    pub filtered_at: Time,
    /// Checksum of the filtered samples (for correctness checks).
    pub checksum: f64,
}

impl FilteredBlock {
    /// Per-element latency.
    pub fn latency(&self) -> Time {
        self.filtered_at.saturating_sub(self.arrival)
    }
}

/// Result of a finished filter run.
#[derive(Debug, Clone)]
pub struct FilterResult {
    /// Per-block outcomes.
    pub blocks: Vec<FilteredBlock>,
    /// Coefficients actually used for the committed outputs.
    pub coefficients: Vec<f64>,
    /// Committed speculation version, if any.
    pub committed_version: Option<SpecVersion>,
    /// Speculation stats (None when not speculating).
    pub spec_stats: Option<ManagerStats>,
}

impl FilterResult {
    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.latency() as f64).sum::<f64>() / self.blocks.len() as f64
    }
}

type Coeffs = Arc<Vec<f64>>;

struct FilterOut {
    checksum: f64,
    finished: Time,
}

/// The Fig. 1 workload.
pub struct FilterWorkload {
    cfg: FilterConfig,
    n_blocks: usize,
    target: Coeffs,

    data: Vec<Option<Arc<[u8]>>>,
    arrival: Vec<Time>,
    iter_done: u64,
    current: Coeffs,

    mgr: SpeculationManager<Coeffs>,
    buffer: WaitBuffer<FilterOut>,
    committed_version: Option<SpecVersion>,
    spec_coeffs: Option<(SpecVersion, Coeffs)>,
    spec_filtered: Vec<bool>,
    natural_coeffs: Option<Coeffs>,
    natural_filtered: Vec<bool>,
    final_coeffs: Option<Coeffs>,
    used_coeffs: Option<Coeffs>,

    done: Vec<Option<FilteredBlock>>,
    blocks_done: usize,
}

/// FIR convolution of byte samples with `h` (same-length output, zero
/// padding on the left); returns a checksum of the output.
pub fn fir_checksum(data: &[u8], h: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..data.len() {
        let mut y = 0.0;
        for (k, &hk) in h.iter().enumerate() {
            if i >= k {
                y += hk * data[i - k] as f64;
            }
        }
        acc += y * ((i % 31) as f64 + 1.0);
    }
    acc
}

impl FilterWorkload {
    /// A workload for `n_blocks` input blocks.
    pub fn new(cfg: FilterConfig, n_blocks: usize) -> Self {
        assert!(n_blocks > 0);
        assert!(cfg.iterations >= 1);
        // Deterministic target and start coefficients.
        let taps = cfg.taps;
        let target: Vec<f64> = (0..taps)
            .map(|k| ((k as f64 * 0.7).sin() + 1.5) / taps as f64)
            .collect();
        let start: Vec<f64> = vec![1.0 / taps as f64; taps];
        let mgr = SpeculationManager::new(cfg.schedule, cfg.verification);
        FilterWorkload {
            n_blocks,
            target: Arc::new(target),
            data: vec![None; n_blocks],
            arrival: vec![0; n_blocks],
            iter_done: 0,
            current: Arc::new(start),
            mgr,
            buffer: WaitBuffer::new(),
            committed_version: None,
            spec_coeffs: None,
            spec_filtered: vec![false; n_blocks],
            natural_coeffs: None,
            natural_filtered: vec![false; n_blocks],
            final_coeffs: None,
            used_coeffs: None,
            done: vec![None; n_blocks],
            blocks_done: 0,
            cfg,
        }
    }

    /// Extract the result after the run finished.
    pub fn result(&self) -> FilterResult {
        assert!(self.is_finished());
        FilterResult {
            blocks: self.done.iter().map(|d| d.expect("done")).collect(),
            coefficients: self
                .used_coeffs
                .as_ref()
                .expect("committed coefficients")
                .to_vec(),
            committed_version: self.committed_version,
            spec_stats: if self.cfg.policy.speculates() {
                Some(self.mgr.stats())
            } else {
                None
            },
        }
    }

    fn spawn_iterate(&mut self, ctx: &mut dyn SchedCtx) {
        let h = self.current.clone();
        let target = self.target.clone();
        let mu = self.cfg.mu;
        let k = self.iter_done;
        ctx.spawn(TaskSpec::regular(
            "iterate",
            1,
            self.cfg.taps * 8,
            k,
            move |_| {
                let next: Vec<f64> = h
                    .iter()
                    .zip(target.iter())
                    .map(|(a, t)| a + mu * (t - a))
                    .collect();
                payload(Arc::new(next))
            },
        ));
    }

    fn spawn_filters(&mut self, ctx: &mut dyn SchedCtx, version: Option<SpecVersion>, h: Coeffs) {
        for idx in 0..self.n_blocks {
            let filtered = match version {
                Some(_) => &mut self.spec_filtered,
                None => &mut self.natural_filtered,
            };
            if filtered[idx] || self.data[idx].is_none() {
                continue;
            }
            filtered[idx] = true;
            let data = self.data[idx].as_ref().expect("arrived").clone();
            let h = h.clone();
            let body = move |_: &tvs_sre::TaskCtx| payload(fir_checksum(&data, &h));
            let bytes = self.data[idx].as_ref().map(|d| d.len()).unwrap_or(0);
            let task = match version {
                Some(v) => TaskSpec::speculative("filter", 2, bytes, v, idx as u64, body),
                None => TaskSpec::regular("filter", 2, bytes, idx as u64, body),
            };
            ctx.spawn(task);
        }
    }

    fn finalize(&mut self, idx: usize, checksum: f64, finished: Time) {
        assert!(self.done[idx].is_none(), "block {idx} filtered twice");
        self.done[idx] = Some(FilteredBlock {
            arrival: self.arrival[idx],
            filtered_at: finished,
            checksum,
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
                    let h = self.current.clone();
                    ctx.spawn(TaskSpec::predictor(
                        "predict",
                        self.cfg.taps * 8,
                        version,
                        version as u64,
                        move |_| payload(h.clone()),
                    ));
                }
                Action::SpawnCheck { version } => {
                    let (_, spec) = self.mgr.active().expect("active speculation");
                    let spec = spec.clone();
                    let newer = self.current.clone();
                    let tol = self.cfg.tolerance;
                    let basis = self.iter_done;
                    ctx.spawn(TaskSpec::check(
                        "check",
                        self.cfg.taps * 16,
                        basis,
                        move |_| {
                            let r = L2Error(tol).check(&spec, &newer);
                            payload((version, r, newer.clone(), basis))
                        },
                    ));
                }
                Action::Rollback { version } => {
                    ctx.abort_version(version);
                    self.buffer.abort(version);
                    self.spec_coeffs = None;
                    self.spec_filtered = vec![false; self.n_blocks];
                }
                Action::PromoteCandidate { version } => {
                    let (_, h) = self.mgr.active().expect("promoted");
                    let h = h.clone();
                    self.spec_coeffs = Some((version, h.clone()));
                    self.spawn_filters(ctx, Some(version), h);
                }
                Action::SpawnFinalCheck { version } => {
                    let (_, spec) = self.mgr.pending_final().expect("pending final");
                    let spec = spec.clone();
                    let final_h = self.final_coeffs.as_ref().expect("final").clone();
                    let tol = self.cfg.tolerance;
                    ctx.spawn(TaskSpec::check(
                        "final-check",
                        self.cfg.taps * 16,
                        version as u64,
                        move |_| {
                            let r = L2Error(tol).check(&spec, &final_h);
                            payload((version, r))
                        },
                    ));
                }
                Action::Commit { version } => {
                    self.committed_version = Some(version);
                    self.used_coeffs = self.spec_coeffs.as_ref().map(|(_, h)| h.clone());
                    for (slot, out) in self.buffer.commit(version) {
                        self.finalize(slot as usize, out.checksum, out.finished);
                    }
                }
                Action::RecomputeNaturally => {
                    let h = self
                        .final_coeffs
                        .as_ref()
                        .expect("final coefficients")
                        .clone();
                    self.used_coeffs = Some(h.clone());
                    self.natural_coeffs = Some(h.clone());
                    self.spawn_filters(ctx, None, h);
                }
            }
        }
    }
}

impl Workload for FilterWorkload {
    fn on_start(&mut self, ctx: &mut dyn SchedCtx) {
        self.spawn_iterate(ctx);
    }

    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let idx = block.index;
        self.arrival[idx] = block.arrival;
        self.data[idx] = Some(block.data);
        // A newly arrived block joins whichever path is active.
        if let Some((v, h)) = self.spec_coeffs.clone() {
            if self.committed_version.is_none() || self.committed_version == Some(v) {
                self.spawn_filters(ctx, Some(v), h);
            }
        }
        if let Some(h) = self.natural_coeffs.clone() {
            self.spawn_filters(ctx, None, h);
        }
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        match done.name {
            "iterate" => {
                self.current = expect_payload::<Coeffs>(done.output, "Arc<Vec<f64>>");
                self.iter_done += 1;
                if self.iter_done < self.cfg.iterations {
                    if self.cfg.policy.speculates() && !self.mgr.is_done() {
                        let actions = self.mgr.on_basis(self.iter_done);
                        self.handle_actions(ctx, actions);
                    }
                    self.spawn_iterate(ctx);
                } else {
                    self.final_coeffs = Some(self.current.clone());
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
                let h = expect_payload::<Coeffs>(done.output, "Arc<Vec<f64>>");
                if self.mgr.install_prediction(version, h.clone()) {
                    self.spec_coeffs = Some((version, h.clone()));
                    self.spawn_filters(ctx, Some(version), h);
                }
            }
            "check" => {
                let (version, r, newer, basis) =
                    expect_payload::<(SpecVersion, CheckResult, Coeffs, u64)>(
                        done.output,
                        "check tuple",
                    );
                let actions = self.mgr.on_check_result(version, r, Some((newer, basis)));
                self.handle_actions(ctx, actions);
            }
            "final-check" => {
                let (version, r) =
                    expect_payload::<(SpecVersion, CheckResult)>(done.output, "final check tuple");
                let actions = self.mgr.on_final_check_result(version, r);
                self.handle_actions(ctx, actions);
            }
            "filter" => {
                let idx = done.tag as usize;
                let checksum = expect_payload::<f64>(done.output, "f64");
                match done.version {
                    Some(v) => {
                        if self.committed_version == Some(v) {
                            self.finalize(idx, checksum, done.finished);
                        } else {
                            self.buffer.push(
                                v,
                                idx as u64,
                                FilterOut {
                                    checksum,
                                    finished: done.finished,
                                },
                            );
                        }
                    }
                    None => self.finalize(idx, checksum, done.finished),
                }
            }
            other => unreachable!("unknown completion '{other}'"),
        }
    }

    fn is_finished(&self) -> bool {
        self.blocks_done == self.n_blocks
    }
}

/// Run the filter pipeline on the simulator with uniform block arrivals.
pub fn run_filter_sim(
    cfg: &FilterConfig,
    n_blocks: usize,
    arrival_gap_us: Time,
    workers: usize,
) -> (FilterResult, tvs_sre::RunMetrics) {
    use tvs_sre::exec::sim::{try_run, SimConfig};
    let wl = FilterWorkload::new(cfg.clone(), n_blocks);
    let sim = SimConfig::new(tvs_sre::x86_smp(workers), cfg.policy);
    let inputs: Vec<InputBlock> = (0..n_blocks)
        .map(|i| InputBlock {
            index: i,
            arrival: i as Time * arrival_gap_us,
            data: make_block(i),
        })
        .collect();
    let rep = try_run(wl, &sim, &FilterCost, inputs).expect("run completes");
    (rep.workload.result(), rep.metrics)
}

fn make_block(i: usize) -> Arc<[u8]> {
    (0..BLOCK_BYTES)
        .map(|j| (((i * 31 + j) as u32).wrapping_mul(2654435761) >> 24) as u8)
        .collect::<Vec<u8>>()
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_speculative_filter_completes() {
        let cfg = FilterConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let (res, m) = run_filter_sim(&cfg, 32, 10, 4);
        assert_eq!(res.blocks.len(), 32);
        assert_eq!(res.committed_version, None);
        assert_eq!(m.rollbacks, 0);
        // The final coefficients are within mu-contraction of the target.
        assert_eq!(res.coefficients.len(), cfg.taps);
    }

    #[test]
    fn speculative_filter_commits_and_is_faster() {
        let base = FilterConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let spec = FilterConfig {
            policy: DispatchPolicy::Balanced,
            ..Default::default()
        };
        let (rn, mn) = run_filter_sim(&base, 64, 5, 8);
        let (rs, ms) = run_filter_sim(&spec, 64, 5, 8);
        assert!(
            rs.committed_version.is_some(),
            "contraction converges; spec must commit"
        );
        assert!(
            rs.mean_latency() < rn.mean_latency(),
            "spec {} vs non-spec {}",
            rs.mean_latency(),
            rn.mean_latency()
        );
        assert!(ms.makespan <= mn.makespan);
    }

    #[test]
    fn early_speculation_rolls_back_then_commits() {
        // Speculating after 1 of 12 iterations: the iterate is far from the
        // fixed point, so intermediate checks fail at least once.
        let cfg = FilterConfig {
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance::percent(0.5),
            ..Default::default()
        };
        let (res, m) = run_filter_sim(&cfg, 32, 5, 8);
        let s = res.spec_stats.unwrap();
        assert!(s.checks_failed > 0, "early iterate must fail checks: {s:?}");
        assert!(m.rollbacks > 0);
        assert_eq!(res.blocks.len(), 32);
    }

    #[test]
    fn committed_checksums_match_used_coefficients() {
        let cfg = FilterConfig {
            policy: DispatchPolicy::Balanced,
            ..Default::default()
        };
        let (res, _) = run_filter_sim(&cfg, 8, 5, 4);
        for (i, b) in res.blocks.iter().enumerate() {
            let expect = fir_checksum(&make_block(i), &res.coefficients);
            assert!(
                (b.checksum - expect).abs() < 1e-9 * expect.abs().max(1.0),
                "block {i}: checksum mismatch"
            );
        }
    }

    #[test]
    fn zero_tolerance_filter_recomputes_naturally() {
        let cfg = FilterConfig {
            policy: DispatchPolicy::Balanced,
            tolerance: Tolerance { margin: 0.0 },
            ..Default::default()
        };
        let (res, _) = run_filter_sim(&cfg, 16, 5, 4);
        assert_eq!(res.committed_version, None);
        // Natural outputs use the final coefficients.
        for (i, b) in res.blocks.iter().enumerate() {
            let expect = fir_checksum(&make_block(i), &res.coefficients);
            assert!((b.checksum - expect).abs() < 1e-9 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn fir_checksum_is_deterministic_and_sensitive() {
        let d = make_block(0);
        let h1 = vec![0.5; 8];
        let h2 = vec![0.6; 8];
        assert_eq!(fir_checksum(&d, &h1), fir_checksum(&d, &h1));
        assert_ne!(fir_checksum(&d, &h1), fir_checksum(&d, &h2));
    }
}
