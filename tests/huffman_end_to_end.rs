//! End-to-end pipeline correctness across executors, inputs and
//! configurations.

use tvs_huffman::{decode_exact, serial_encode, CodeTable};
use tvs_iosim::{ArrivalModel, Disk, Uniform};
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{cell_be, x86_smp, DispatchPolicy, Platform};
use tvs_workloads::FileKind;

/// A run on the simulator under `platform`.
fn sim(
    data: &[u8],
    cfg: &HuffmanConfig,
    platform: Platform,
    arrival: &dyn ArrivalModel,
) -> RunOutcome {
    let spec = RunSpec::sim(SimConfig::new(platform, cfg.policy), arrival);
    run_huffman(data, cfg, &spec)
        .expect("simulated run completes")
        .into_outcome()
}

fn decode_and_check(out: &RunOutcome, input: &[u8]) {
    let (bytes, bits, lengths) = out.result.output.as_ref().expect("output collected");
    let table = CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, input.len(), &table).expect("stream decodes");
    assert_eq!(decoded, input, "committed stream must decode to the input");
}

fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
    HuffmanConfig {
        collect_output: true,
        ..HuffmanConfig::disk_x86(policy)
    }
}

#[test]
fn non_speculative_equals_serial_reference_on_all_kinds() {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 11);
        let out = sim(
            &data,
            &cfg(DispatchPolicy::NonSpeculative),
            x86_smp(16),
            &Disk::default(),
        );
        decode_and_check(&out, &data);
        let serial = serial_encode(&data).unwrap();
        assert_eq!(
            out.result.compressed_bits, serial.bit_len,
            "{kind:?}: non-speculative output must match the serial reference"
        );
        assert_eq!(out.metrics.rollbacks, 0);
        assert_eq!(out.metrics.tasks_discarded, 0);
    }
}

#[test]
fn speculative_output_decodes_on_all_kinds_and_policies() {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 12);
        for policy in [
            DispatchPolicy::Balanced,
            DispatchPolicy::Aggressive,
            DispatchPolicy::Conservative,
        ] {
            let out = sim(&data, &cfg(policy), x86_smp(16), &Disk::default());
            decode_and_check(&out, &data);
        }
    }
}

#[test]
fn committed_speculation_is_within_tolerance_of_optimal() {
    let data = tvs_workloads::generate(FileKind::Text, 2 << 20, 13);
    let out = sim(
        &data,
        &cfg(DispatchPolicy::Balanced),
        x86_smp(16),
        &Disk::default(),
    );
    assert!(
        out.result.committed_version.is_some(),
        "stationary text must commit"
    );
    let serial = serial_encode(&data).unwrap();
    let excess = out.result.compressed_bits as f64 / serial.bit_len as f64 - 1.0;
    assert!(
        excess <= 0.01 + 1e-9,
        "committed stream exceeds the 1% tolerance: {excess}"
    );
}

#[test]
fn cell_platform_runs_all_kinds() {
    for kind in FileKind::ALL {
        let data = tvs_workloads::generate(kind, 1 << 20, 14);
        let c = HuffmanConfig {
            collect_output: true,
            ..HuffmanConfig::disk_cell(DispatchPolicy::Balanced)
        };
        let out = sim(&data, &c, cell_be(16), &Disk::default());
        decode_and_check(&out, &data);
    }
}

#[test]
fn simulation_is_fully_deterministic() {
    let data = tvs_workloads::generate(FileKind::Pdf, 1 << 20, 15);
    let run = || {
        sim(
            &data,
            &cfg(DispatchPolicy::Aggressive),
            x86_smp(16),
            &Disk::default(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.latencies(), b.latencies());
    assert_eq!(a.completion_time(), b.completion_time());
    assert_eq!(a.metrics.rollbacks, b.metrics.rollbacks);
    assert_eq!(a.metrics.busy_us, b.metrics.busy_us);
    assert_eq!(a.result.compressed_bits, b.result.compressed_bits);
}

#[test]
fn threaded_and_sim_executors_produce_identical_streams() {
    // Timing differs wildly, but the committed *content* of a no-rollback
    // run is executor-independent.
    let data = tvs_workloads::generate(FileKind::Text, 256 * 1024, 16);
    let arrival = Uniform {
        gap_us: 1,
        start_us: 0,
    };
    let c = cfg(DispatchPolicy::Balanced);
    let simulated = sim(&data, &c, x86_smp(8), &arrival);
    let spec = RunSpec::threaded(ThreadedConfig::new(8, c.policy), &arrival, 1_000_000);
    let thr = run_huffman(&data, &c, &spec)
        .expect("threaded run completes")
        .into_outcome();
    decode_and_check(&simulated, &data);
    decode_and_check(&thr, &data);
}

#[test]
fn latency_series_is_complete_and_positive() {
    let data = tvs_workloads::generate(FileKind::Bmp, 1 << 20, 17);
    let out = sim(
        &data,
        &cfg(DispatchPolicy::Balanced),
        x86_smp(16),
        &Disk::default(),
    );
    let lat = out.latencies();
    assert_eq!(lat.len(), 256, "one latency per 4 KB block");
    assert!(
        lat.iter().all(|&l| l > 0),
        "every block takes non-zero time"
    );
    assert_eq!(out.arrivals.len(), 256);
}

#[test]
fn compression_ratios_are_plausible_per_kind() {
    // Text compresses well; BMP (quantised texture) moderately; PDF-like
    // (high-entropy streams) least.
    let ratios: Vec<(FileKind, f64)> = FileKind::ALL
        .iter()
        .map(|&kind| {
            let data = tvs_workloads::generate(kind, 1 << 20, 18);
            let out = sim(
                &data,
                &cfg(DispatchPolicy::NonSpeculative),
                x86_smp(16),
                &Disk::default(),
            );
            (kind, out.result.compression_ratio())
        })
        .collect();
    let get = |k: FileKind| ratios.iter().find(|(kk, _)| *kk == k).unwrap().1;
    assert!(
        get(FileKind::Text) > 1.5,
        "text ratio {}",
        get(FileKind::Text)
    );
    assert!(get(FileKind::Bmp) > 1.2, "bmp ratio {}", get(FileKind::Bmp));
    assert!(get(FileKind::Pdf) > 1.0, "pdf ratio {}", get(FileKind::Pdf));
    assert!(
        get(FileKind::Text) > get(FileKind::Pdf),
        "text must beat pdf"
    );
}

#[test]
fn tiny_inputs_work_end_to_end() {
    for len in [1usize, 100, 4096, 4097, 8192] {
        let data = tvs_workloads::generate(FileKind::Text, len, 19);
        let out = sim(
            &data,
            &cfg(DispatchPolicy::Balanced),
            x86_smp(4),
            &Disk::default(),
        );
        decode_and_check(&out, &data);
        assert_eq!(out.result.blocks.len(), len.div_ceil(4096));
    }
}
