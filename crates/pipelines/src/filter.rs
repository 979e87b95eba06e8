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
//! normalised-L2 comparison within the tolerance. The pipeline runs on the
//! [`crate::iterative`] driver.

use crate::config::BLOCK_BYTES;
use crate::iterative::{IterativeResult, Solver, TaskBytes, TaskKinds};
use tvs_core::validate::{L2Error, Validator};
use tvs_core::{CheckResult, SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_sre::DispatchPolicy;

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

/// Result of a finished filter run: per-block FIR checksums and the
/// coefficients they used.
pub type FilterResult = IterativeResult<FilterConfig>;

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

impl FilterConfig {
    /// The fixed point the solver contracts toward.
    fn target(&self) -> Vec<f64> {
        (0..self.taps)
            .map(|k| ((k as f64 * 0.7).sin() + 1.5) / self.taps as f64)
            .collect()
    }
}

impl Solver for FilterConfig {
    type Model = Vec<f64>;
    type Out = f64;
    const KINDS: TaskKinds = TaskKinds {
        step: "iterate",
        block: "filter",
        // One solver refinement step: a coarse serial task.
        step_us: 400,
        // FIR over the block: ~64 µs per 4 KB at 16 taps.
        block_us: 8,
        block_us_per_kib: 14,
        check_us: 10,
        // The iterate is the prediction; just a copy.
        predict_us: 5,
    };
    const INPUT: (usize, usize) = (BLOCK_BYTES, 31);

    fn speculation(&self) -> (DispatchPolicy, SpeculationSchedule, VerificationPolicy) {
        (self.policy, self.schedule, self.verification)
    }

    fn steps(&self) -> u64 {
        self.iterations
    }

    fn initial(&self) -> Vec<f64> {
        vec![1.0 / self.taps as f64; self.taps]
    }

    fn step(&self, h: &Vec<f64>) -> Vec<f64> {
        h.iter()
            .zip(self.target())
            .map(|(a, t)| a + self.mu * (t - a))
            .collect()
    }

    fn block(&self, data: &[u8], h: &Vec<f64>) -> f64 {
        fir_checksum(data, h)
    }

    fn check(&self, speculated: &Vec<f64>, reference: &Vec<f64>) -> CheckResult {
        L2Error(self.tolerance).check(speculated, reference)
    }

    fn bytes(&self) -> TaskBytes {
        TaskBytes {
            step: self.taps * 8,
            predict: self.taps * 8,
            check: self.taps * 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::{inputs, run_sim};

    #[test]
    fn non_speculative_filter_completes() {
        let cfg = FilterConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let (res, m) = run_sim(&cfg, 32, 10, 4);
        assert_eq!(res.blocks.len(), 32);
        assert_eq!(res.committed_version, None);
        assert_eq!(m.rollbacks, 0);
        // The final coefficients are within mu-contraction of the target.
        assert_eq!(res.model.len(), cfg.taps);
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
        let (rn, mn) = run_sim(&base, 64, 5, 8);
        let (rs, ms) = run_sim(&spec, 64, 5, 8);
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
        let (res, m) = run_sim(&cfg, 32, 5, 8);
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
        let (res, _) = run_sim(&cfg, 8, 5, 4);
        for (b, input) in res.blocks.iter().zip(inputs::<FilterConfig>(8, 5)) {
            let expect = fir_checksum(&input.data, &res.model);
            assert!(
                (b.out - expect).abs() < 1e-9 * expect.abs().max(1.0),
                "block {}: checksum mismatch",
                input.index
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
        let (res, _) = run_sim(&cfg, 16, 5, 4);
        assert_eq!(res.committed_version, None);
        // Natural outputs use the final coefficients.
        for (b, input) in res.blocks.iter().zip(inputs::<FilterConfig>(16, 5)) {
            let expect = fir_checksum(&input.data, &res.model);
            assert!((b.out - expect).abs() < 1e-9 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn fir_checksum_is_deterministic_and_sensitive() {
        let d = &inputs::<FilterConfig>(1, 0)[0].data;
        let h1 = vec![0.5; 8];
        let h2 = vec![0.6; 8];
        assert_eq!(fir_checksum(d, &h1), fir_checksum(d, &h1));
        assert_ne!(fir_checksum(d, &h1), fir_checksum(d, &h2));
    }
}
