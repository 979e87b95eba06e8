//! Fig. 2 as a test: the task graph the pipeline actually unfolds matches
//! the paper's data-flow diagram — counts per block, a serial reduce
//! chain, one tree, a serial offset chain fanning out into encodes, plus
//! the speculative predictor/check/offset/encode overlay.

use tvs_core::{SpeculationSchedule, Tolerance, ValidationMode, VerificationPolicy};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::{x86_smp, DispatchPolicy, Tracer};
use tvs_trace::TaskSpan;

/// Stationary text with a realistically rich alphabet (rare symbols are
/// genuinely rare, so covering-tree overhead stays far below 1 %).
fn stationary(n: usize) -> Vec<u8> {
    let mut pattern = b"etaoin shrdlu ".repeat(10);
    pattern.extend_from_slice(b"qzxjkvbw,.!?");
    (0..n).map(|i| pattern[i % pattern.len()]).collect()
}

/// A simulated run on 8 workers, one block every µs, with the task spans
/// of its event log.
fn traced_run(data: &[u8], c: &HuffmanConfig) -> (RunOutcome, Vec<TaskSpan>) {
    let sim = SimConfig {
        tracer: Tracer::enabled(8),
        ..SimConfig::new(x86_smp(8), c.policy)
    };
    let arrival = Uniform {
        gap_us: 1,
        start_us: 0,
    };
    let out = run_huffman(data, c, &RunSpec::sim(sim.clone(), &arrival))
        .expect("run completes")
        .into_outcome();
    let log = sim.tracer.drain().expect("enabled tracer drains");
    assert_eq!(log.dropped, 0, "the event rings must hold the whole run");
    (out, log.task_spans())
}

fn count_kind(trace: &[TaskSpan], name: &str) -> usize {
    trace.iter().filter(|t| t.name == name).count()
}

fn cfg(policy: DispatchPolicy) -> HuffmanConfig {
    HuffmanConfig {
        block_bytes: 1024,
        reduce_ratio: 4,
        offset_fanout: 8,
        policy,
        schedule: SpeculationSchedule::with_step(1),
        verification: VerificationPolicy::baseline(),
        tolerance: Tolerance::percent(1.0),
        predictor: Default::default(),
        collect_output: false,
        breaker: None,
        validation: ValidationMode::Tolerance,
        checkpoint: None,
        ladder: None,
    }
}

#[test]
fn non_speculative_dfg_matches_fig2a() {
    // 64 KB / 1 KB blocks = 64 blocks; reduce 4:1 -> 16 groups; offsets 8:1.
    let data = stationary(64 * 1024);
    let (_out, trace) = traced_run(&data, &cfg(DispatchPolicy::NonSpeculative));
    assert_eq!(count_kind(&trace, "count"), 64, "one count per block");
    assert_eq!(count_kind(&trace, "reduce"), 16, "reduce fan-in 4:1");
    assert_eq!(count_kind(&trace, "tree"), 1, "a single serial tree task");
    assert_eq!(
        count_kind(&trace, "offset"),
        8,
        "offset chain at 8:1 fan-out"
    );
    assert_eq!(count_kind(&trace, "encode"), 64, "one encode per block");
    assert_eq!(count_kind(&trace, "predict"), 0);
    assert_eq!(count_kind(&trace, "check"), 0);
    assert_eq!(count_kind(&trace, "final-check"), 0);

    // The serial chains really are serial: reduces never overlap in time,
    // and neither do offsets.
    for name in ["reduce", "offset"] {
        let mut spans: Vec<(u64, u64)> = trace
            .iter()
            .filter(|t| t.name == name)
            .map(|t| (t.start, t.end))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].1, "{name} chain must be serial: {w:?}");
        }
    }

    // Dependency sanity: no encode starts before the tree finishes.
    let tree_end = trace.iter().find(|t| t.name == "tree").unwrap().end;
    let first_encode = trace
        .iter()
        .filter(|t| t.name == "encode")
        .map(|t| t.start)
        .min()
        .unwrap();
    assert!(first_encode >= tree_end, "encodes depend on the tree");
}

#[test]
fn speculative_dfg_matches_fig2b() {
    let data = stationary(64 * 1024);
    // Full verification so intermediate checks appear even in this small,
    // fast run (the predictor outlives the early verification points of
    // the every-8th baseline here).
    let mut c = cfg(DispatchPolicy::Balanced);
    c.verification = VerificationPolicy::Full;
    let (out, trace) = traced_run(&data, &c);
    // The natural first pass is unchanged.
    assert_eq!(count_kind(&trace, "count"), 64);
    assert_eq!(count_kind(&trace, "reduce"), 16);
    assert_eq!(count_kind(&trace, "tree"), 1);
    // The speculative overlay appears...
    assert_eq!(
        count_kind(&trace, "predict"),
        1,
        "one speculative tree prediction"
    );
    assert!(
        count_kind(&trace, "check") >= 1,
        "intermediate checks per Fig. 2b"
    );
    assert_eq!(count_kind(&trace, "final-check"), 1, "the decisive check");
    // ...and replaces the natural encode phase entirely on commit.
    assert!(out.result.committed_version.is_some());
    assert_eq!(
        count_kind(&trace, "encode"),
        64,
        "no re-encoding when committed"
    );
    assert!(trace
        .iter()
        .filter(|t| t.name == "encode")
        .all(|t| t.version == out.result.committed_version));

    // Speculative encodes start before the final tree exists — the whole
    // point of the paper.
    let tree_end = trace.iter().find(|t| t.name == "tree").unwrap().end;
    let first_encode = trace
        .iter()
        .filter(|t| t.name == "encode")
        .map(|t| t.start)
        .min()
        .unwrap();
    assert!(
        first_encode < tree_end,
        "speculative encodes must precede the serial bottleneck's output"
    );
}

#[test]
fn rollback_dfg_discards_and_reissues() {
    // Shifting data: version 1's overlay is destroyed and a later version
    // (or the natural path) re-encodes every block.
    let mut data = vec![b'a'; 32 * 1024];
    data.extend((0..32 * 1024u32).map(|i| 128 + (i % 100) as u8));
    let (out, trace) = traced_run(&data, &cfg(DispatchPolicy::Balanced));
    assert!(out.metrics.rollbacks > 0);
    let discarded = trace.iter().filter(|t| t.discarded()).count();
    let deleted = out.metrics.tasks_deleted_ready as usize;
    assert!(
        discarded + deleted > 0,
        "rollback must destroy speculative work"
    );
    // Committed/natural encodes still cover all 64 blocks exactly once.
    let good_encodes: Vec<u64> = trace
        .iter()
        .filter(|t| {
            t.name == "encode" && !t.discarded() && {
                match out.result.committed_version {
                    Some(v) => t.version == Some(v),
                    None => t.version.is_none(),
                }
            }
        })
        .map(|t| t.tag)
        .collect();
    let mut tags = good_encodes.clone();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(
        tags.len(),
        64,
        "every block encoded exactly once in the surviving version"
    );
}
