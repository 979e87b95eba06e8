//! The real thread-pool executor: correctness under actual concurrency.

use std::sync::Arc;
use tvs_huffman::{decode_exact, serial_encode, CodeTable};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::HuffmanWorkload;
use tvs_pipelines::runner::{run_huffman, RunOutcome, RunSpec};
use tvs_sre::exec::threaded::{try_run, ThreadedConfig};
use tvs_sre::DispatchPolicy;
use tvs_workloads::FileKind;

fn small_cfg(policy: DispatchPolicy) -> HuffmanConfig {
    HuffmanConfig {
        block_bytes: 2048,
        reduce_ratio: 4,
        offset_fanout: 8,
        collect_output: true,
        ..HuffmanConfig::disk_x86(policy)
    }
}

/// A real-thread run with arrivals `gap_us` apart, unscaled.
fn run_threaded(data: &[u8], c: &HuffmanConfig, workers: usize, gap_us: u64) -> RunOutcome {
    let arrival = Uniform {
        gap_us,
        start_us: 0,
    };
    let spec = RunSpec::threaded(ThreadedConfig::new(workers, c.policy), &arrival, 1);
    run_huffman(data, c, &spec)
        .expect("threaded run completes")
        .into_outcome()
}

fn check_output(data: &[u8], result: &tvs_pipelines::PipelineResult) {
    let (bytes, bits, lengths) = result.output.as_ref().expect("collected");
    let table = CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, data.len(), &table).expect("decodes");
    assert_eq!(decoded, data);
}

#[test]
fn threaded_non_spec_matches_serial() {
    let data = tvs_workloads::generate(FileKind::Text, 256 * 1024, 21);
    let out = run_threaded(&data, &small_cfg(DispatchPolicy::NonSpeculative), 4, 0);
    check_output(&data, &out.result);
    let serial = serial_encode(&data).unwrap();
    assert_eq!(out.result.compressed_bits, serial.bit_len);
}

#[test]
fn threaded_speculative_commits_and_decodes() {
    let data = tvs_workloads::generate(FileKind::Text, 256 * 1024, 22);
    let out = run_threaded(&data, &small_cfg(DispatchPolicy::Balanced), 4, 50);
    check_output(&data, &out.result);
    assert!(out.result.spec_stats.is_some());
}

#[test]
fn threaded_rollbacks_are_safe() {
    // Drifting data under aggressive speculation with full verification:
    // rollbacks race real in-flight tasks.
    let mut data = vec![b'x'; 128 * 1024];
    data.extend((0..128 * 1024u32).map(|i| 128 + (i % 100) as u8));
    let mut cfg = small_cfg(DispatchPolicy::Aggressive);
    cfg.verification = tvs_core::VerificationPolicy::Full;
    cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
    let out = run_threaded(&data, &cfg, 8, 20);
    check_output(&data, &out.result);
    assert_eq!(out.result.blocks.len(), 128);
}

#[test]
fn threaded_repeated_runs_converge_to_same_content() {
    // Scheduling is nondeterministic; committed content must not be.
    let data = tvs_workloads::generate(FileKind::Bmp, 128 * 1024, 23);
    let mut sizes = std::collections::HashSet::new();
    for _ in 0..3 {
        let out = run_threaded(&data, &small_cfg(DispatchPolicy::NonSpeculative), 4, 0);
        check_output(&data, &out.result);
        sizes.insert(out.result.compressed_bits);
    }
    assert_eq!(
        sizes.len(),
        1,
        "non-speculative content must be identical across runs"
    );
}

#[test]
fn worker_counts_from_one_to_sixteen() {
    let data = tvs_workloads::generate(FileKind::Text, 64 * 1024, 24);
    for workers in [1usize, 2, 16] {
        let out = run_threaded(&data, &small_cfg(DispatchPolicy::Balanced), workers, 0);
        check_output(&data, &out.result);
        assert_eq!(out.metrics.workers, workers);
    }
}

#[test]
fn raw_executor_api_with_custom_feeder() {
    // Drive the executor directly (no runner sugar): feeder pacing via a
    // plain iterator of blocks.
    let data = tvs_workloads::generate(FileKind::Pdf, 64 * 1024, 25);
    let cfg = small_cfg(DispatchPolicy::Balanced);
    let wl = HuffmanWorkload::new(cfg.clone(), data.len());
    let blocks: Vec<(usize, Arc<[u8]>)> = data
        .chunks(cfg.block_bytes)
        .enumerate()
        .map(|(i, c)| (i, Arc::<[u8]>::from(c)))
        .collect();
    let (wl, metrics) =
        try_run(wl, &ThreadedConfig::new(4, cfg.policy), blocks).expect("threaded run completes");
    let result = wl.result();
    check_output(&data, &result);
    assert!(metrics.tasks_delivered > 0);
    assert!(metrics.busy_us > 0);
}
