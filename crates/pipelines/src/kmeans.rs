//! Speculative k-means — the paper's other motivating workload class.
//!
//! "Iterative algorithms such as k-means and random-based optimization
//! heuristics such as simulated annealing are commonly used in large
//! computations, notably in image processing" (§II-A). The expensive final
//! phase — assigning every point of a large stream to its cluster — needs
//! the converged centroids, which emerge from a serial chain of Lloyd
//! iterations over a sample. Speculation releases the assignment phase
//! early with centroids from an early iterate, validated within an L2
//! tolerance, exactly like the filter example but with a genuinely
//! non-linear solver whose convergence rate depends on the data.
//!
//! Structure:
//!
//! * `iterate` tasks — serial Lloyd steps over a fixed training sample;
//! * `assign` tasks — data-parallel labelling of streamed point blocks
//!   (side-effect-free: they emit label histograms + distortion sums);
//! * speculation on the `centroids -> assign` edge, run by the
//!   [`crate::iterative`] driver and wait-buffered at the output sink.

use crate::iterative::{IterativeResult, Solver, TaskBytes, TaskKinds};
use tvs_core::validate::{L2Error, Validator};
use tvs_core::{CheckResult, SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_sre::DispatchPolicy;

/// Configuration of the k-means pipeline.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Point dimensionality.
    pub dim: usize,
    /// Lloyd iterations over the training sample (the serial bottleneck).
    pub iterations: u64,
    /// Training sample size (points).
    pub sample_points: usize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// When to speculate (basis = Lloyd iterations completed).
    pub schedule: SpeculationSchedule,
    /// When to verify.
    pub verification: VerificationPolicy,
    /// Normalised-L2 tolerance on the centroid matrix.
    pub tolerance: Tolerance,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            dim: 4,
            iterations: 10,
            sample_points: 512,
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(3),
            verification: VerificationPolicy::EveryKth(2),
            tolerance: Tolerance::percent(1.0),
        }
    }
}

/// Result of a finished k-means run: per-block label counts and
/// distortion, and the centroids (`k` rows of `dim` values, flattened)
/// they used.
pub type KMeansResult = IterativeResult<KMeansConfig>;

impl KMeansResult {
    /// Total distortion (sum of squared distances) of the committed
    /// assignment.
    pub fn total_distortion(&self) -> f64 {
        self.blocks.iter().map(|b| b.out.1).sum()
    }
}

/// Decode a block's bytes into points: consecutive `dim`-tuples of bytes
/// mapped to `[0, 1)`.
fn points_of(data: &[u8], dim: usize) -> Vec<f64> {
    let usable = data.len() - data.len() % dim;
    data[..usable].iter().map(|&b| b as f64 / 256.0).collect()
}

/// One Lloyd iteration of `centroids` over `sample` (flattened points).
pub fn lloyd_step(centroids: &[f64], sample: &[f64], k: usize, dim: usize) -> Vec<f64> {
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];
    for p in sample.chunks_exact(dim) {
        let c = nearest(centroids, p, k, dim).0;
        counts[c] += 1;
        for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += x;
        }
    }
    let mut next = centroids.to_vec();
    for c in 0..k {
        if counts[c] > 0 {
            for d in 0..dim {
                next[c * dim + d] = sums[c * dim + d] / counts[c] as f64;
            }
        }
    }
    next
}

/// Index and squared distance of the centroid nearest to `p`.
fn nearest(centroids: &[f64], p: &[f64], k: usize, dim: usize) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for c in 0..k {
        let mut d2 = 0.0;
        for (a, b) in centroids[c * dim..(c + 1) * dim].iter().zip(p) {
            d2 += (a - b) * (a - b);
        }
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

/// Assign every point of a block; returns label counts and distortion.
pub fn assign_block(data: &[u8], centroids: &[f64], k: usize, dim: usize) -> (Vec<u64>, f64) {
    let pts = points_of(data, dim);
    let mut counts = vec![0u64; k];
    let mut distortion = 0.0;
    for p in pts.chunks_exact(dim) {
        let (c, d2) = nearest(centroids, p, k, dim);
        counts[c] += 1;
        distortion += d2;
    }
    (counts, distortion)
}

impl KMeansConfig {
    /// Deterministic training sample: three latent blobs.
    fn sample(&self) -> Vec<f64> {
        let mut sample = Vec::with_capacity(self.sample_points * self.dim);
        for i in 0..self.sample_points {
            let blob = i % 3;
            for d in 0..self.dim {
                let x = ((i * 2654435761 + d * 40503) % 997) as f64 / 997.0;
                sample.push(0.15 + 0.3 * blob as f64 + 0.1 * x);
            }
        }
        sample
    }
}

impl Solver for KMeansConfig {
    type Model = Vec<f64>;
    type Out = (Vec<u64>, f64);
    const KINDS: TaskKinds = TaskKinds {
        step: "iterate",
        block: "assign",
        // One Lloyd step over the sample: the coarse serial task.
        step_us: 500,
        // Nearest-centroid assignment over the block.
        block_us: 10,
        block_us_per_kib: 10,
        check_us: 12,
        predict_us: 5,
    };
    const INPUT: (usize, usize) = (4096, 131);

    fn speculation(&self) -> (DispatchPolicy, SpeculationSchedule, VerificationPolicy) {
        (self.policy, self.schedule, self.verification)
    }

    fn steps(&self) -> u64 {
        self.iterations
    }

    /// Initial centroids: spread along the diagonal.
    fn initial(&self) -> Vec<f64> {
        assert!(self.k > 0 && self.dim > 0);
        (0..self.k * self.dim)
            .map(|i| (i / self.dim) as f64 / self.k as f64 + 0.05)
            .collect()
    }

    fn step(&self, c: &Vec<f64>) -> Vec<f64> {
        // Rebuilding the sample costs a small fraction of the Lloyd step
        // it feeds, and keeps the config the whole solver.
        lloyd_step(c, &self.sample(), self.k, self.dim)
    }

    fn block(&self, data: &[u8], c: &Vec<f64>) -> (Vec<u64>, f64) {
        assign_block(data, c, self.k, self.dim)
    }

    fn check(&self, speculated: &Vec<f64>, reference: &Vec<f64>) -> CheckResult {
        L2Error(self.tolerance).check(speculated, reference)
    }

    fn bytes(&self) -> TaskBytes {
        TaskBytes {
            step: self.sample_points * self.dim * 8,
            predict: self.k * self.dim * 8,
            check: self.k * self.dim * 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::{inputs, run_sim};

    #[test]
    fn lloyd_converges_on_blobs() {
        // Lloyd's guarantee is monotone *distortion* (not centroid shift).
        let cfg = KMeansConfig::default();
        let sample = cfg.sample();
        let sample_bytes: Vec<u8> = sample
            .iter()
            .map(|&x| (x * 256.0).clamp(0.0, 255.0) as u8)
            .collect();
        let mut c = cfg.initial();
        let mut prev_distortion = f64::INFINITY;
        let mut last_shift = f64::INFINITY;
        for _ in 0..cfg.iterations {
            let next = lloyd_step(&c, &sample, cfg.k, cfg.dim);
            let (_, distortion) = assign_block(&sample_bytes, &next, cfg.k, cfg.dim);
            assert!(
                distortion <= prev_distortion + 1e-6,
                "Lloyd distortion must not grow: {distortion} > {prev_distortion}"
            );
            prev_distortion = distortion;
            last_shift = c
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            c = next;
        }
        assert!(
            last_shift < 0.01,
            "centroids should settle: shift {last_shift}"
        );
    }

    #[test]
    fn non_speculative_run_completes() {
        let cfg = KMeansConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let (res, m) = run_sim(&cfg, 32, 10, 4);
        assert_eq!(res.blocks.len(), 32);
        assert_eq!(m.rollbacks, 0);
        let total_pts: u64 = res.blocks.iter().map(|b| b.out.0.iter().sum::<u64>()).sum();
        assert_eq!(
            total_pts,
            32 * (4096 / cfg.dim) as u64,
            "every point labelled"
        );
    }

    #[test]
    fn speculation_commits_and_cuts_latency() {
        let ns = KMeansConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let sp = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            ..Default::default()
        };
        let (rn, _) = run_sim(&ns, 64, 10, 8);
        let (rs, _) = run_sim(&sp, 64, 10, 8);
        assert!(
            rs.committed_version.is_some(),
            "Lloyd converges; speculation must commit"
        );
        assert!(
            rs.mean_latency() < rn.mean_latency(),
            "spec {} vs non-spec {}",
            rs.mean_latency(),
            rn.mean_latency()
        );
    }

    #[test]
    fn committed_distortion_within_tolerance_band() {
        // The committed assignment uses speculated centroids; its quality
        // may lag the converged ones, but only slightly.
        let ns = KMeansConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let sp = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            ..Default::default()
        };
        let (rn, _) = run_sim(&ns, 16, 10, 4);
        let (rs, _) = run_sim(&sp, 16, 10, 4);
        let rel = rs.total_distortion() / rn.total_distortion();
        assert!(
            rel < 1.05,
            "speculated assignment quality too far off: {rel}"
        );
    }

    #[test]
    fn early_speculation_rolls_back_with_tight_tolerance() {
        let cfg = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance { margin: 0.002 },
            ..Default::default()
        };
        let (res, m) = run_sim(&cfg, 32, 10, 4);
        assert!(m.rollbacks > 0, "iterate 1 is far from converged");
        assert_eq!(res.blocks.len(), 32);
    }

    #[test]
    fn zero_tolerance_commits_only_at_the_exact_fixed_point() {
        // Lloyd reaches an exact fixed point on this sample, so even a
        // zero margin eventually commits — with centroids *identical* to
        // the converged ones (delta == 0).
        let cfg = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance { margin: 0.0 },
            ..Default::default()
        };
        let (res, _) = run_sim(&cfg, 16, 10, 4);
        if res.committed_version.is_some() {
            let mut c = cfg.initial();
            for _ in 0..cfg.iterations {
                c = lloyd_step(&c, &cfg.sample(), cfg.k, cfg.dim);
            }
            assert_eq!(
                res.model, c,
                "zero tolerance may only commit the exact value"
            );
        }
    }

    #[test]
    fn impossible_tolerance_recomputes_naturally() {
        let cfg = KMeansConfig {
            policy: DispatchPolicy::Balanced,
            tolerance: Tolerance { margin: -1.0 },
            ..Default::default()
        };
        let (res, _) = run_sim(&cfg, 16, 10, 4);
        assert_eq!(res.committed_version, None);
        // Natural outputs use the final centroids exactly.
        let block = &inputs::<KMeansConfig>(16, 10)[3].data;
        let (counts, distortion) = assign_block(block, &res.model, cfg.k, cfg.dim);
        assert_eq!(counts, res.blocks[3].out.0);
        assert!((distortion - res.blocks[3].out.1).abs() < 1e-9);
    }
}
