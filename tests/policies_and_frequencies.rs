//! The paper's qualitative claims about dispatch policies, speculation
//! frequency, verification frequency and tolerance — asserted as tests.

use tvs_core::{SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_iosim::Disk;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::{cell_be, x86_smp, DispatchPolicy, Platform};
use tvs_workloads::FileKind;

const SEED: u64 = 2011; // the figure benches' seed

fn run(data: &[u8], cfg: &HuffmanConfig, platform: &Platform) -> RunOutcome {
    let disk = Disk::default();
    let spec = RunSpec::sim(SimConfig::new(platform.clone(), cfg.policy), &disk);
    run_huffman(data, cfg, &spec)
        .expect("simulated run completes")
        .into_outcome()
}

#[test]
fn speculation_beats_non_speculative_on_stationary_text() {
    // The headline effect: latency and completion both improve.
    let data = tvs_workloads::generate_paper_sized(FileKind::Text, SEED);
    let x86 = x86_smp(16);
    let base = run(
        &data,
        &HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative),
        &x86,
    );
    for policy in [
        DispatchPolicy::Balanced,
        DispatchPolicy::Aggressive,
        DispatchPolicy::Conservative,
    ] {
        let out = run(&data, &HuffmanConfig::disk_x86(policy), &x86);
        assert_eq!(
            out.metrics.rollbacks, 0,
            "{policy:?}: text must not roll back"
        );
        let lat_gain = 1.0 - out.mean_latency() / base.mean_latency();
        let time_gain = 1.0 - out.completion_time() as f64 / base.completion_time() as f64;
        assert!(lat_gain > 0.25, "{policy:?}: latency gain {lat_gain}");
        assert!(time_gain > 0.10, "{policy:?}: completion gain {time_gain}");
    }
}

#[test]
fn balanced_is_resilient_to_rollbacks_aggressive_is_not() {
    // Fig. 3c: "conservative and balanced policies generally perform
    // better in the PDF case ... being aggressive can be a good choice
    // when no rollbacks occur".
    let data = tvs_workloads::generate_paper_sized(FileKind::Pdf, SEED);
    let x86 = x86_smp(16);
    let base = run(
        &data,
        &HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative),
        &x86,
    );
    let balanced = run(
        &data,
        &HuffmanConfig::disk_x86(DispatchPolicy::Balanced),
        &x86,
    );
    let aggressive = run(
        &data,
        &HuffmanConfig::disk_x86(DispatchPolicy::Aggressive),
        &x86,
    );
    assert!(
        balanced.metrics.rollbacks > 0,
        "PDF must roll back under the baseline step"
    );
    assert!(
        balanced.mean_latency() < base.mean_latency(),
        "balanced stays ahead of non-spec despite rollbacks"
    );
    assert!(
        aggressive.mean_latency() > balanced.mean_latency() * 1.2,
        "aggressive pays heavily for rollbacks: {} vs {}",
        aggressive.mean_latency(),
        balanced.mean_latency()
    );
}

#[test]
fn conservative_degenerates_to_non_spec_on_cell() {
    // Fig. 4: "a rather poor performance by the conservative policy ...
    // little speculation is done overall" on the deep-prefetch Cell.
    let data = tvs_workloads::generate_paper_sized(FileKind::Text, SEED);
    let cell = cell_be(16);
    let base = run(
        &data,
        &HuffmanConfig::disk_cell(DispatchPolicy::NonSpeculative),
        &cell,
    );
    let cons = run(
        &data,
        &HuffmanConfig::disk_cell(DispatchPolicy::Conservative),
        &cell,
    );
    let bal = run(
        &data,
        &HuffmanConfig::disk_cell(DispatchPolicy::Balanced),
        &cell,
    );
    let cons_gain = 1.0 - cons.mean_latency() / base.mean_latency();
    let bal_gain = 1.0 - bal.mean_latency() / base.mean_latency();
    assert!(
        cons_gain < 0.05,
        "conservative must barely speculate on Cell: gain {cons_gain}"
    );
    assert!(
        bal_gain > 0.15,
        "balanced must stay effective on Cell: gain {bal_gain}"
    );
}

#[test]
fn step_size_threshold_for_bmp_is_eight() {
    // Fig. 5b: rollbacks below step 8, none at 8.
    let data = tvs_workloads::generate_paper_sized(FileKind::Bmp, SEED);
    let x86 = x86_smp(16);
    for step in [1u64, 2, 4] {
        let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        cfg.schedule = SpeculationSchedule::with_step(step);
        let out = run(&data, &cfg, &x86);
        assert!(out.metrics.rollbacks > 0, "BMP step {step} must roll back");
    }
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    cfg.schedule = SpeculationSchedule::with_step(8);
    let at_threshold = run(&data, &cfg, &x86);
    assert_eq!(
        at_threshold.metrics.rollbacks, 0,
        "BMP step 8 is the paper's threshold"
    );
    // The latency drop at the threshold is significant.
    cfg.schedule = SpeculationSchedule::with_step(4);
    let below = run(&data, &cfg, &x86);
    assert!(
        at_threshold.mean_latency() < below.mean_latency() * 0.95,
        "threshold must drop latency: {} vs {}",
        at_threshold.mean_latency(),
        below.mean_latency()
    );
}

#[test]
fn step_size_threshold_for_pdf_is_sixteen() {
    // Fig. 5c: rollbacks below step 16, none at 16.
    let data = tvs_workloads::generate_paper_sized(FileKind::Pdf, SEED);
    let x86 = x86_smp(16);
    for step in [2u64, 4, 8] {
        let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        cfg.schedule = SpeculationSchedule::with_step(step);
        let out = run(&data, &cfg, &x86);
        assert!(out.metrics.rollbacks > 0, "PDF step {step} must roll back");
    }
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    cfg.schedule = SpeculationSchedule::with_step(16);
    let out = run(&data, &cfg, &x86);
    assert_eq!(
        out.metrics.rollbacks, 0,
        "PDF step 16 is the paper's threshold"
    );
}

#[test]
fn larger_steps_hurt_text_latency() {
    // Fig. 5a: "there is a drop in efficiency as [steps] get larger" —
    // speculation starts later, delaying data processing.
    let data = tvs_workloads::generate_paper_sized(FileKind::Text, SEED);
    let x86 = x86_smp(16);
    let lat_at = |step: u64| {
        let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        cfg.schedule = SpeculationSchedule::with_step(step);
        run(&data, &cfg, &x86).mean_latency()
    };
    let (small, large) = (lat_at(2), lat_at(32));
    assert!(
        large > small * 1.1,
        "step 32 ({large}) must lag step 2 ({small})"
    );
}

#[test]
fn check_overhead_is_low_without_rollbacks() {
    // Fig. 6: "the small difference between fully speculative and
    // optimistic policies indicates that check tasks cause low overhead".
    let data = tvs_workloads::generate_paper_sized(FileKind::Text, SEED);
    let x86 = x86_smp(16);
    let mut optimistic = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    optimistic.verification = VerificationPolicy::Optimistic;
    optimistic.schedule = SpeculationSchedule::with_step(1);
    let mut full = optimistic.clone();
    full.verification = VerificationPolicy::Full;
    let o = run(&data, &optimistic, &x86);
    let f = run(&data, &full, &x86);
    assert_eq!(o.metrics.rollbacks, 0);
    assert_eq!(f.metrics.rollbacks, 0);
    let diff = (f.mean_latency() - o.mean_latency()).abs() / o.mean_latency();
    assert!(
        diff < 0.05,
        "full vs optimistic differ by {diff} — checks should be cheap"
    );
}

#[test]
fn optimistic_pays_dearly_for_rollbacks() {
    // Fig. 6c: with rollbacks "a large amount of computation has to be
    // re-started" in the optimistic case.
    let data = tvs_workloads::generate_paper_sized(FileKind::Pdf, SEED);
    let x86 = x86_smp(16);
    let base = run(
        &data,
        &HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative),
        &x86,
    );
    let mut optimistic = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    optimistic.verification = VerificationPolicy::Optimistic;
    optimistic.schedule = SpeculationSchedule::with_step(1);
    let o = run(&data, &optimistic, &x86);
    assert!(
        o.metrics.rollbacks > 0,
        "optimistic on PDF must fail its single check"
    );
    assert!(
        o.mean_latency() > base.mean_latency() * 0.95,
        "optimistic-with-rollback ends up near non-spec: {} vs {}",
        o.mean_latency(),
        base.mean_latency()
    );
}

#[test]
fn raising_tolerance_can_hurt_before_it_helps() {
    // Fig. 9: 1% -> 2% performs *worse* (late detection); 5% removes
    // rollbacks entirely and is optimal.
    let data = tvs_workloads::generate_paper_sized(FileKind::Pdf, SEED);
    let x86 = x86_smp(16);
    let lat_at = |pct: f64| {
        let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
        cfg.tolerance = Tolerance::percent(pct);
        cfg.schedule = SpeculationSchedule::with_step(2);
        run(&data, &cfg, &x86)
    };
    let (one, two, five) = (lat_at(1.0), lat_at(2.0), lat_at(5.0));
    assert!(
        two.mean_latency() > one.mean_latency() * 1.1,
        "2% must be worse than 1%: {} vs {}",
        two.mean_latency(),
        one.mean_latency()
    );
    assert_eq!(five.metrics.rollbacks, 0, "5% must remove all rollbacks");
    assert!(
        five.mean_latency() < one.mean_latency() * 0.75,
        "5% must be the best case: {} vs {}",
        five.mean_latency(),
        one.mean_latency()
    );
}

#[test]
fn tolerance_trades_compression_for_speed() {
    // The paper's §IV tradeoff: "an interesting tradeoff between
    // compression efficiency and speed" — a committed high-tolerance tree
    // is valid but less optimal.
    let data = tvs_workloads::generate_paper_sized(FileKind::Pdf, SEED);
    let x86 = x86_smp(16);
    let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    cfg.tolerance = Tolerance::percent(5.0);
    let tolerant = run(&data, &cfg, &x86);
    let base = run(
        &data,
        &HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative),
        &x86,
    );
    assert!(tolerant.result.committed_version.is_some());
    let excess = tolerant.result.compressed_bits as f64 / base.result.compressed_bits as f64 - 1.0;
    assert!(
        excess > 0.0,
        "a tolerant commit should cost some compression"
    );
    assert!(
        excess <= 0.05 + 1e-9,
        "but stay within the declared margin: {excess}"
    );
}
