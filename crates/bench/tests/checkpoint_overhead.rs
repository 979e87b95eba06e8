//! Checkpoint-overhead guard: a threaded Huffman run snapshotting at the
//! default cadence (every 16 committed blocks) must stay close to the
//! same run with checkpointing disabled, in the coarse-grain streaming
//! regime the paper targets — 4 KiB blocks arriving at a disk-like pace,
//! where a run is dominated by I/O and task bodies, not runtime
//! bookkeeping. Snapshot serialization and the atomic tmp+rename happen
//! on a dedicated writer thread, so the commit path only pays for
//! assembling the snapshot; this guard keeps it that way.
//!
//! The lenient default (always on) only guards against a pathological
//! regression (2× floor — e.g. snapshot writes moved back onto the
//! commit path, or a per-block write cadence), since shared CI boxes are
//! too noisy for a tight bound. Under `TVS_CHECKPOINT_STRICT=1` — the CI
//! chaos job — the bound is the design budget: checkpointing within 3 %
//! of disabled.
//!
//! The measurement is built not to flake on a loaded 2-core box: one
//! discarded warm-up pair precedes the timed ones, and checkpointed and
//! plain runs alternate, so the asserted ratio is the median of per-pair
//! ratios.

mod common;

use std::path::Path;
use std::time::Instant;
use tvs_core::CheckpointConfig;
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, RunSpec};
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::DispatchPolicy;
use tvs_workloads::FileKind;

/// 128 blocks of 4 KiB arriving every 500 µs: a ~64 ms run, 8 snapshot
/// writes at the default cadence.
const BYTES: usize = 512 * 1024;
const GAP_US: u64 = 500;

fn cfg() -> HuffmanConfig {
    HuffmanConfig::disk_x86(DispatchPolicy::Balanced)
}

/// Timed off/on pairs after one discarded warm-up pair.
const PAIRS: usize = 7;

/// Wall seconds of one threaded run, checkpointed at the default cadence
/// or not at all.
fn time_run(data: &[u8], checkpointed: bool, dir: &Path) -> f64 {
    let arrival = Uniform {
        gap_us: GAP_US,
        start_us: 0,
    };
    let mut c = cfg();
    if checkpointed {
        c.checkpoint = Some(CheckpointConfig::at_default_cadence(dir));
    }
    let spec = RunSpec::threaded(ThreadedConfig::new(4, c.policy), &arrival, 1);
    let t = Instant::now();
    let out = run_huffman(data, &c, &spec)
        .expect("threaded run completes")
        .into_outcome();
    assert_eq!(out.result.blocks.len(), c.n_blocks(data.len()));
    t.elapsed().as_secs_f64()
}

#[test]
fn checkpoint_overhead_stays_within_budget() {
    let data = tvs_workloads::generate(FileKind::Text, BYTES, 2011);
    let dir = std::env::temp_dir().join(format!("tvs-ckpt-overhead-{}", std::process::id()));
    let r = common::paired_ratio(PAIRS, |on| time_run(&data, on, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let ratio = r.median();
    println!(
        "checkpoint overhead at default cadence: off mean {:.3} ms, on mean {:.3} ms, \
         median ratio {ratio:.3}x over {PAIRS} interleaved pairs {:.3?}",
        r.mean_ms(false),
        r.mean_ms(true),
        r.ratios,
    );
    let strict = std::env::var("TVS_CHECKPOINT_STRICT").as_deref() == Ok("1");
    let ceiling = if strict { 1.03 } else { 2.0 };
    assert!(
        ratio <= ceiling,
        "checkpointed run {ratio:.3}x slower than plain \
         (ceiling {ceiling}x, strict={strict})"
    );
}
