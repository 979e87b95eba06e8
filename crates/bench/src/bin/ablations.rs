//! Ablations of the reproduction's design choices (see DESIGN.md §7).
//!
//! 1. Balanced dispatch parity metric: worker-time (ours) vs task-count
//!    (the literal 1:1 reading) — count parity lockstep-throttles the
//!    natural path when speculative tasks are coarse.
//! 2. Cell prefetch depth: how multiple buffering depth shapes the
//!    conservative policy's starvation.
//! 3. Check-task cost: the paper observes checking is cheap; scale it up
//!    until that stops being true.
//! 4. Predictor construction: escape-subtree covering (ours) vs Laplace
//!    smoothing — smoothing distorts small-alphabet codes and can flip
//!    check verdicts.
//!
//! Run with: `cargo run -p tvs-bench --release --bin ablations`

use tvs_bench::figures::simulate;
use tvs_iosim::Disk;
use tvs_pipelines::config::{HuffmanConfig, PredictorKind};
use tvs_pipelines::cost::HuffmanCost;
use tvs_pipelines::huffman::HuffmanWorkload;
use tvs_pipelines::runner::schedule_blocks;
use tvs_sre::exec::sim::{try_run, SimConfig};
use tvs_sre::{cell_be, x86_smp, CostModel, DispatchPolicy, Time};
use tvs_workloads::FileKind;

fn header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:<40} {:>10} {:>10} {:>6} {:>8}",
        "configuration", "lat(us)", "comp(us)", "rlbk", "ratio"
    );
}

fn row(label: &str, out: &tvs_pipelines::RunOutcome) {
    println!(
        "{label:<40} {:>10.0} {:>10} {:>6} {:>8.3}",
        out.mean_latency(),
        out.completion_time(),
        out.metrics.rollbacks,
        out.result.compression_ratio()
    );
}

fn ablation_parity_metric() {
    header("1. balanced parity metric: worker-time vs task-count");
    let x86 = x86_smp(16);
    for kind in [FileKind::Text, FileKind::Pdf] {
        let data = tvs_workloads::generate_paper_sized(kind, 2011);
        for policy in [DispatchPolicy::Balanced, DispatchPolicy::BalancedTaskCount] {
            let cfg = HuffmanConfig::disk_x86(policy);
            let out = simulate(&data, &cfg, &x86, &Disk::default());
            row(&format!("{} {}", kind.label(), policy.label()), &out);
        }
    }
    println!("-> count parity starves counts/reduces behind coarse encodes,");
    println!("   delaying the final tree and every commit that waits on it.");
}

fn ablation_prefetch_depth() {
    header("2. Cell multiple-buffering depth (TXT)");
    let data = tvs_workloads::generate_paper_sized(FileKind::Text, 2011);
    for depth in [1usize, 2, 4, 8] {
        for policy in [DispatchPolicy::Balanced, DispatchPolicy::Conservative] {
            let mut platform = cell_be(16);
            platform.prefetch_depth = depth;
            let cfg = HuffmanConfig::disk_cell(policy);
            let out = simulate(&data, &cfg, &platform, &Disk::default());
            row(&format!("depth {depth} {}", policy.label()), &out);
        }
    }
    println!("-> any depth > 1 lets bound natural tasks starve conservative");
    println!("   speculation (the paper's Cell observation).");
}

/// `HuffmanCost` with the check-task cost multiplied.
struct ScaledCheckCost(u64);

impl CostModel for ScaledCheckCost {
    fn cost_us(&self, name: &str, bytes: usize) -> Time {
        let base = HuffmanCost.cost_us(name, bytes);
        match name {
            "check" | "final-check" => base * self.0,
            _ => base,
        }
    }
}

fn ablation_check_cost() {
    header("3. check-task cost under full verification (TXT)");
    let data = tvs_workloads::generate_paper_sized(FileKind::Text, 2011);
    let platform = x86_smp(16);
    for scale in [1u64, 10, 50, 200] {
        let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
        cfg.verification = tvs_core::VerificationPolicy::Full;
        cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
        let (blocks, times) = schedule_blocks(&data, cfg.block_bytes, &Disk::default());
        let wl = HuffmanWorkload::new(cfg.clone(), data.len());
        let sim = SimConfig::new(platform.clone(), cfg.policy);
        let (wl, metrics) =
            try_run(wl, &sim, &ScaledCheckCost(scale), blocks).expect("simulated run completes");
        let out = tvs_pipelines::RunOutcome {
            result: wl.result(),
            metrics,
            arrivals: times,
        };
        row(&format!("check cost x{scale} (~{}us)", 30 * scale), &out);
    }
    println!("-> at the paper's cost (x1, ~30us) checks are free; they only");
    println!("   bite once a check rivals an encode task (x10+).");
}

fn ablation_predictor_kind() {
    header("4. predictor construction: covering escape vs Laplace");
    // The constructions only differ when the smoothing mass is a visible
    // fraction of the histogram, i.e. for predictions from *small*
    // prefixes: at step 0 the tree is guessed from a single 4 KB block,
    // where add-one smoothing injects 256/4352 = 6 % of phantom mass.
    let platform = x86_smp(16);
    for (kind_label, data) in [
        (
            "TXT step0",
            tvs_workloads::generate_paper_sized(FileKind::Text, 2011),
        ),
        (
            "BMP step0",
            tvs_workloads::generate_paper_sized(FileKind::Bmp, 2011),
        ),
    ] {
        for kind in [
            PredictorKind::CoveringEscape,
            PredictorKind::LaplaceSmoothing,
        ] {
            let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
            cfg.predictor = kind;
            cfg.schedule = tvs_core::SpeculationSchedule::with_step(0);
            cfg.verification = tvs_core::VerificationPolicy::Full;
            let out = simulate(&data, &cfg, &platform, &Disk::default());
            row(&format!("{kind_label} {kind:?}"), &out);
        }
    }
    println!("-> on text, smoothing's phantom mass makes the single-block tree");
    println!("   fail a check it would otherwise pass (one spurious rollback);");
    println!("   on the BMP the altered deltas merely reshuffle *which* check");
    println!("   fires first — construction choice matters most for the");
    println!("   earliest, smallest-prefix predictions.");
}

fn main() {
    ablation_parity_metric();
    ablation_prefetch_depth();
    ablation_check_cost();
    ablation_predictor_kind();
}
