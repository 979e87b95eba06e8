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
//! tolerance). The pipeline runs on the [`crate::iterative`] driver.

use crate::iterative::{IterativeResult, Solver, TaskBytes, TaskKinds};
use tvs_core::{CheckResult, SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_sre::DispatchPolicy;

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

/// The annealing chain's state between epochs: the incumbent placement,
/// the temperature the next epoch runs at and the RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The incumbent placement.
    pub solution: Solution,
    /// Temperature of the next epoch.
    pub temperature: f64,
    /// RNG state the next epoch starts from.
    pub rng: u64,
}

/// Result of a finished annealing run: per-block scenario scores and the
/// chain state whose placement they used.
pub type AnnealResult = IterativeResult<AnnealConfig>;

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

impl Solver for AnnealConfig {
    type Model = Chain;
    type Out = f64;
    const KINDS: TaskKinds = TaskKinds {
        step: "anneal",
        block: "evaluate",
        step_us: 450,
        block_us: 12,
        block_us_per_kib: 8,
        check_us: 8,
        predict_us: 4,
    };
    const INPUT: (usize, usize) = (2048, 97);

    fn speculation(&self) -> (DispatchPolicy, SpeculationSchedule, VerificationPolicy) {
        (self.policy, self.schedule, self.verification)
    }

    fn steps(&self) -> u64 {
        self.epochs
    }

    fn initial(&self) -> Chain {
        assert!(self.n_items >= 4);
        let order: Vec<u16> = (0..self.n_items as u16).collect();
        let cost = objective(&order);
        Chain {
            solution: Solution { order, cost },
            temperature: self.t0,
            rng: self.seed,
        }
    }

    fn step(&self, chain: &Chain) -> Chain {
        let (solution, rng) = anneal_epoch(
            chain.solution.clone(),
            chain.temperature,
            self.moves_per_epoch,
            chain.rng,
        );
        Chain {
            solution,
            temperature: chain.temperature * self.cooling,
            rng,
        }
    }

    fn block(&self, data: &[u8], chain: &Chain) -> f64 {
        evaluate_block(data, &chain.solution.order)
    }

    fn check(&self, speculated: &Chain, reference: &Chain) -> CheckResult {
        // Semantic tolerance: compare *objective values*. The newer
        // incumbent is never worse (annealing tracks the accepted state,
        // and cooling makes regressions rare and small); the speculation
        // is stale once it costs `tol` more than the incumbent.
        let (spec, newer) = (speculated.solution.cost, reference.solution.cost);
        self.tolerance
            .judge(((spec - newer) / newer.max(1e-12)).max(0.0))
    }

    fn bytes(&self) -> TaskBytes {
        TaskBytes {
            step: self.n_items * 2,
            predict: 64,
            check: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::{inputs, run_sim};

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
        let (res, m) = run_sim(&cfg, 32, 10, 4);
        assert_eq!(res.blocks.len(), 32);
        assert_eq!(m.rollbacks, 0);
        // Scores match a direct evaluation under the committed placement.
        for (b, input) in res.blocks.iter().zip(inputs::<AnnealConfig>(32, 10)) {
            let expect = evaluate_block(&input.data, &res.model.solution.order);
            assert!((b.out - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn speculation_commits_within_tolerance_and_wins() {
        let ns = AnnealConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        };
        let sp = AnnealConfig::default();
        let (rn, _) = run_sim(&ns, 64, 10, 8);
        let (rs, _) = run_sim(&sp, 64, 10, 8);
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
        let (res, m) = run_sim(&cfg, 32, 10, 4);
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
        let (res, m) = run_sim(&cfg, 32, 10, 4);
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
        let (_, mh) = run_sim(&hot, 32, 10, 4);
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
        let (res, _) = run_sim(&cfg, 16, 10, 4);
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
            let rel = (res.model.solution.cost - sol.cost).abs() / sol.cost;
            assert!(
                rel <= 0.02 + 1e-9,
                "committed objective within tolerance: {rel}"
            );
        }
    }
}
