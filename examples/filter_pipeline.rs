//! The paper's motivating example (Fig. 1): speculating on an iterative
//! filter-coefficient computation.
//!
//! A serial solver refines FIR coefficients over 12 iterations while data
//! blocks stream in; the data-parallel filtering phase needs the final
//! coefficients. Speculation releases filtering early, using an early
//! iterate validated within an L2 tolerance. This example sweeps *when* to
//! speculate (the iteration to predict from) and shows the latency/
//! rollback trade-off.
//!
//! Run with: `cargo run --release --example filter_pipeline`

use tvs_core::{SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_pipelines::filter::FilterConfig;
use tvs_pipelines::iterative::run_sim;
use tvs_sre::DispatchPolicy;

fn main() {
    let blocks = 256;
    let gap_us = 40;
    let workers = 8;

    let base = FilterConfig {
        policy: DispatchPolicy::NonSpeculative,
        ..Default::default()
    };
    let (b, bm) = run_sim(&base, blocks, gap_us, workers);
    println!(
        "non-speculative: mean latency {:>8.0} us, completion {:>7} us",
        b.mean_latency(),
        bm.makespan
    );

    println!("\nspeculating after iteration k (of {}):", base.iterations);
    println!("  k   mean latency    completion   rollbacks  committed");
    for k in [1u64, 2, 4, 6, 8, 10] {
        let cfg = FilterConfig {
            policy: DispatchPolicy::Balanced,
            schedule: SpeculationSchedule::with_step(k),
            verification: VerificationPolicy::EveryKth(2),
            tolerance: Tolerance::percent(1.0),
            ..Default::default()
        };
        let (r, m) = run_sim(&cfg, blocks, gap_us, workers);
        println!(
            "  {k:<2}  {:>9.0} us   {:>8} us   {:>6}     {}",
            r.mean_latency(),
            m.makespan,
            m.rollbacks,
            r.committed_version
                .map(|v| format!("v{v}"))
                .unwrap_or_else(|| "no".into()),
        );
    }
    println!(
        "\nEarly speculation rolls back (the iterate is far from the fixed \
         point) but re-speculates\nand still wins; later speculation commits \
         first try but gives up some head start —\nthe paper's \"it is \
         typically worthwhile to begin speculating early\"."
    );
}
