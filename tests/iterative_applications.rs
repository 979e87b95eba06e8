//! Cross-cutting invariants over all three iterative applications (the
//! paper's §II-A workload classes): the filter solver, k-means, and
//! simulated annealing, next to the Huffman prefix case.
//!
//! One engine (`tvs-core`) drives four very different basis processes:
//! a linear contraction, a piecewise-constant Lloyd descent, a stochastic
//! annealing chain, and a converging prefix histogram. The invariants that
//! must hold regardless of the basis' character:
//!
//! 1. every block is finalised exactly once;
//! 2. speculation + commit never loses to the natural path by more than
//!    the verification overhead;
//! 3. a committed value is within the declared tolerance of the final one;
//! 4. non-speculative runs never roll back;
//! 5. under injected chaos faults, a run either completes with outputs
//!    equal to the kernel on the used model or fails with a structured
//!    error — on the simulator and on real threads.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use tvs_pipelines::annealing::AnnealConfig;
use tvs_pipelines::filter::FilterConfig;
use tvs_pipelines::iterative::{inputs, run, run_sim, Solver};
use tvs_pipelines::kmeans::KMeansConfig;
use tvs_pipelines::runner::Executor;
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{x86_smp, DispatchPolicy, FaultInjector, FaultPlan, RunError};

const BLOCKS: usize = 96;
const GAP: u64 = 8;
const WORKERS: usize = 8;

#[test]
fn filter_speculation_dominates_naturally() {
    let (ns, mn) = run_sim(
        &FilterConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        },
        BLOCKS,
        GAP,
        WORKERS,
    );
    let (sp, ms) = run_sim(&FilterConfig::default(), BLOCKS, GAP, WORKERS);
    assert_eq!(mn.rollbacks, 0);
    assert_eq!(ns.blocks.len(), BLOCKS);
    assert_eq!(sp.blocks.len(), BLOCKS);
    assert!(
        sp.mean_latency() <= ns.mean_latency(),
        "filter: {} vs {}",
        sp.mean_latency(),
        ns.mean_latency()
    );
    assert!(ms.makespan <= mn.makespan);
}

#[test]
fn kmeans_speculation_dominates_naturally() {
    let (ns, mn) = run_sim(
        &KMeansConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        },
        BLOCKS,
        GAP,
        WORKERS,
    );
    let (sp, _ms) = run_sim(&KMeansConfig::default(), BLOCKS, GAP, WORKERS);
    assert_eq!(mn.rollbacks, 0);
    assert_eq!(sp.blocks.len(), BLOCKS);
    assert!(
        sp.mean_latency() <= ns.mean_latency(),
        "kmeans: {} vs {}",
        sp.mean_latency(),
        ns.mean_latency()
    );
}

#[test]
fn annealing_speculation_never_worse_than_natural_plus_checks() {
    let (ns, mn) = run_sim(
        &AnnealConfig {
            policy: DispatchPolicy::NonSpeculative,
            ..Default::default()
        },
        BLOCKS,
        GAP,
        WORKERS,
    );
    let (sp, _ms) = run_sim(&AnnealConfig::default(), BLOCKS, GAP, WORKERS);
    assert_eq!(mn.rollbacks, 0);
    assert_eq!(sp.blocks.len(), BLOCKS);
    // Annealing's stochastic basis may force a late rollback; even then
    // the candidate-promotion path caps the damage near the natural run.
    assert!(
        sp.mean_latency() <= ns.mean_latency() * 1.05,
        "annealing: {} vs {}",
        sp.mean_latency(),
        ns.mean_latency()
    );
}

/// FNV-1a over 64-bit words.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a fault-free simulated run must reproduce bit for bit: makespan,
/// delivered, discarded, rollbacks, committed version, and FNV-1a digests
/// of the block-output bits and of the used model's bits.
type Fingerprint = (u64, u64, u64, u64, Option<u32>, u64, u64);

fn fingerprint(
    m: &tvs_sre::RunMetrics,
    committed: Option<u32>,
    outputs: u64,
    model: u64,
) -> Fingerprint {
    (
        m.makespan,
        m.tasks_delivered,
        m.tasks_discarded,
        m.rollbacks,
        committed,
        outputs,
        model,
    )
}

/// Fingerprints of 24-block runs per policy, `[filter, k-means,
/// annealing]`, recorded before the three apps shared one driver.
#[rustfmt::skip]
const PINNED: [(DispatchPolicy, [Fingerprint; 3]); 5] = [
    (DispatchPolicy::NonSpeculative, [
        (5202, 36, 0, 0, None, 16716094412711021872, 17951392298688322136),
        (5316, 34, 0, 0, None, 298142637276024542, 6065101507494371360),
        (5586, 36, 0, 0, None, 5554166413615217329, 3896755864960291421),
    ]),
    (DispatchPolicy::Conservative, [
        (4823, 65, 0, 1, Some(2), 10236803234321884444, 5144891922103713546),
        (5023, 39, 0, 0, Some(1), 17986224425939664010, 8442911959604756883),
        (5421, 113, 0, 3, Some(4), 284658422961539190, 5174081699248578555),
    ]),
    (DispatchPolicy::Aggressive, [
        (4948, 65, 0, 1, Some(2), 10236803234321884444, 5144891922103713546),
        (5023, 39, 0, 0, Some(1), 17986224425939664010, 8442911959604756883),
        (5421, 113, 0, 3, Some(4), 284658422961539190, 5174081699248578555),
    ]),
    (DispatchPolicy::Balanced, [
        (4883, 65, 0, 1, Some(2), 10236803234321884444, 5144891922103713546),
        (5023, 39, 0, 0, Some(1), 17986224425939664010, 8442911959604756883),
        (5421, 113, 0, 3, Some(4), 284658422961539190, 5174081699248578555),
    ]),
    (DispatchPolicy::BalancedTaskCount, [
        (4823, 65, 0, 1, Some(2), 10236803234321884444, 5144891922103713546),
        (5023, 39, 0, 0, Some(1), 17986224425939664010, 8442911959604756883),
        (5421, 113, 0, 3, Some(4), 284658422961539190, 5174081699248578555),
    ]),
];

#[test]
fn all_dispatch_policies_complete_every_app() {
    for (policy, pinned) in PINNED {
        let (f, fm) = run_sim(
            &FilterConfig {
                policy,
                ..Default::default()
            },
            24,
            GAP,
            4,
        );
        assert_eq!(f.blocks.len(), 24, "{policy:?} filter");
        let (k, km) = run_sim(
            &KMeansConfig {
                policy,
                ..Default::default()
            },
            24,
            GAP,
            4,
        );
        assert_eq!(k.blocks.len(), 24, "{policy:?} kmeans");
        let (a, am) = run_sim(
            &AnnealConfig {
                policy,
                ..Default::default()
            },
            24,
            GAP,
            4,
        );
        assert_eq!(a.blocks.len(), 24, "{policy:?} annealing");
        let got = [
            fingerprint(
                &fm,
                f.committed_version,
                fold(f.blocks.iter().map(|b| b.out.to_bits())),
                fold(f.model.iter().map(|c| c.to_bits())),
            ),
            fingerprint(
                &km,
                k.committed_version,
                fold(k.blocks.iter().flat_map(|b| {
                    let (label_counts, distortion) = &b.out;
                    label_counts.iter().copied().chain([distortion.to_bits()])
                })),
                fold(k.model.iter().map(|c| c.to_bits())),
            ),
            fingerprint(
                &am,
                a.committed_version,
                fold(a.blocks.iter().map(|b| b.out.to_bits())),
                fold(
                    a.model.solution.order.iter().map(|&o| o as u64).chain([a
                        .model
                        .solution
                        .cost
                        .to_bits()]),
                ),
            ),
        ];
        assert_eq!(got, pinned, "{policy:?}: [filter, kmeans, annealing]");
    }
}

#[test]
fn committed_values_within_declared_tolerance() {
    // Filter: L2 distance of committed coefficients to the converged ones.
    let cfg = FilterConfig::default();
    let (sp, _) = run_sim(&cfg, 24, GAP, 4);
    if sp.committed_version.is_some() {
        let (ns, _) = run_sim(
            &FilterConfig {
                policy: DispatchPolicy::NonSpeculative,
                ..cfg.clone()
            },
            24,
            GAP,
            4,
        );
        let num: f64 = sp
            .model
            .iter()
            .zip(&ns.model)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = ns.model.iter().map(|b| b * b).sum::<f64>().sqrt();
        assert!(
            num / den <= cfg.tolerance.margin + 1e-9,
            "filter tolerance violated"
        );
    }

    // Annealing: committed objective within tolerance of the final one.
    let acfg = AnnealConfig::default();
    let (asp, _) = run_sim(&acfg, 24, GAP, 4);
    if asp.committed_version.is_some() {
        let (ans, _) = run_sim(
            &AnnealConfig {
                policy: DispatchPolicy::NonSpeculative,
                ..acfg.clone()
            },
            24,
            GAP,
            4,
        );
        let rel =
            (asp.model.solution.cost - ans.model.solution.cost).max(0.0) / ans.model.solution.cost;
        assert!(
            rel <= acfg.tolerance.margin + 1e-9,
            "annealing tolerance violated: {rel}"
        );
    }
}

/// Seeds of the chaos runs (the `tvs-chaos` matrix).
const CHAOS_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// One run of `solver` over 64 blocks under `FaultPlan::chaos(seed)`,
/// checked against the chaos invariant: it completes with every block
/// finalised once and equal to the kernel on the used model, or fails with
/// a task that exhausted its retries. A panic, a lost runtime thread or a
/// hang (no report within 120 s) fails the test.
fn assert_chaos_invariant<S: Solver>(solver: &S, seed: u64, threaded: bool) {
    let policy = solver.speculation().0;
    let faults = FaultInjector::new(FaultPlan::chaos(seed));
    let exec = if threaded {
        Executor::Threaded(ThreadedConfig {
            faults,
            ..ThreadedConfig::new(4, policy)
        })
    } else {
        Executor::Sim(SimConfig {
            faults,
            ..SimConfig::new(x86_smp(4), policy)
        })
    };
    let inputs = inputs::<S>(64, GAP);
    let (tx, rx) = mpsc::channel();
    let (s, i) = (solver.clone(), inputs.clone());
    let runner = std::thread::spawn(move || {
        let _ = tx.send(run(&s, &exec, i));
    });
    let what = format!("{} seed {seed} threaded={threaded}", S::KINDS.block);
    // A hung run is left behind: the test fails instead of waiting on it.
    let res = match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(res) => res,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: run hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: run panicked"),
    };
    runner.join().expect("the run thread exits after reporting");
    match res {
        Ok((r, _)) => {
            if let Err(e) = r.verify(solver, &inputs) {
                panic!("{what}: {e}");
            }
        }
        Err(RunError::TaskFailed { .. }) => {}
        Err(e) => panic!("{what}: {e}"),
    }
}

#[test]
fn chaos_invariant_holds_for_every_iterative_app() {
    for seed in CHAOS_SEEDS {
        assert_chaos_invariant(&FilterConfig::default(), seed, false);
        assert_chaos_invariant(&KMeansConfig::default(), seed, false);
        assert_chaos_invariant(&AnnealConfig::default(), seed, false);
    }
    for seed in &CHAOS_SEEDS[..2] {
        assert_chaos_invariant(&FilterConfig::default(), *seed, true);
        assert_chaos_invariant(&KMeansConfig::default(), *seed, true);
        assert_chaos_invariant(&AnnealConfig::default(), *seed, true);
    }
}
