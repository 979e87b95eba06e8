//! Checkpoint/restart and the degradation ladder, end to end.
//!
//! A checkpointed run killed at block K and resumed from its snapshot
//! must produce a stream *byte-identical* to the uninterrupted run, on
//! both executors — the resume path encodes every re-fed block with the
//! snapshot's committed tree and never re-speculates. Snapshots are
//! bound to the input and the output-shaping configuration, so resuming
//! against the wrong data or shape is a structured error, never a
//! silently divergent stream. Above the breaker, the degradation ladder
//! must demonstrably step down under sustained misprediction (sim and
//! threaded), and a supervised threaded run under duplicate-completion
//! injection must take the epoch-reject path rather than double-commit.
//! Every run goes through the one entry, `run_huffman`; the executor is
//! just another input.

use std::path::PathBuf;
use tvs_core::{CheckpointConfig, LadderConfig, ResumeError, StreamSnapshot};
use tvs_huffman::decode_exact;
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::runner::{run_huffman, Executor, HuffmanRunError, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultKind, FaultPlan, FaultSite, TraceLog, Tracer,
};

/// Stationary text with a rich alphabet: speculation commits cleanly,
/// so the committed tree — and therefore the output stream — is the
/// same on every executor and every resume.
fn stationary(n: usize) -> Vec<u8> {
    let mut pattern = b"etaoin shrdlu ".repeat(10);
    pattern.extend_from_slice(b"qzxjkvbw,.!?");
    (0..n).map(|i| pattern[i % pattern.len()]).collect()
}

/// Small blocks and ratios so 64 KiB exercises many blocks, reduces and
/// offset bursts; step 1 speculates from the first reduce outcome.
fn cfg() -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    c.block_bytes = 1024;
    c.reduce_ratio = 4;
    c.offset_fanout = 4;
    c.schedule = tvs_core::SpeculationSchedule::with_step(1);
    c.collect_output = true;
    c
}

const ARRIVAL: Uniform = Uniform {
    gap_us: 30,
    start_us: 0,
};

/// The simulator on 8 workers.
fn sim(c: &HuffmanConfig) -> RunSpec<'static> {
    RunSpec::sim(SimConfig::new(x86_smp(8), c.policy), &ARRIVAL)
}

fn run(data: &[u8], c: &HuffmanConfig, spec: &RunSpec) -> RunOutcome {
    run_huffman(data, c, spec)
        .expect("run completes")
        .into_outcome()
}

/// Halt a checkpointed run of `spec` at its configured kill block.
fn halt(data: &[u8], c: &HuffmanConfig, spec: &RunSpec) -> StreamSnapshot {
    run_huffman(data, c, spec)
        .expect("checkpointed run completes")
        .into_snapshot()
}

/// Resume `spec` from `snap`.
fn resume(
    data: &[u8],
    c: &HuffmanConfig,
    spec: &RunSpec,
    snap: &StreamSnapshot,
) -> Result<RunOutcome, HuffmanRunError> {
    let spec = RunSpec {
        resume: Some(snap),
        ..spec.clone()
    };
    run_huffman(data, c, &spec).map(|r| r.into_outcome())
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn output_of(out: &RunOutcome) -> (&[u8], u64) {
    let (bytes, bits, _) = out.result.output.as_ref().expect("output collected");
    (bytes, *bits)
}

#[test]
fn sim_kill_and_resume_is_byte_identical() {
    let data = stationary(64 * 1024);
    let base = run(&data, &cfg(), &sim(&cfg()));
    let (base_bytes, base_bits) = output_of(&base);
    for kill_at in [8usize, 24, 48] {
        let dir = scratch_dir(&format!("sim-{kill_at}"));
        let mut c = cfg();
        c.checkpoint = Some(CheckpointConfig {
            every_blocks: 4,
            dir: dir.clone(),
            halt_at_block: Some(kill_at),
        });
        let snap = halt(&data, &c, &sim(&c));
        assert!(
            snap.prefix >= kill_at as u64,
            "halt fires once the committed prefix reaches the kill block"
        );
        // The durable copy on disk must be the same snapshot the halted
        // run reported in memory.
        let on_disk = StreamSnapshot::load(&CheckpointConfig::new(4, &dir).snapshot_path())
            .expect("halt always persists a snapshot");
        assert_eq!(on_disk.prefix, snap.prefix);
        assert_eq!(on_disk.stream_bit_len, snap.stream_bit_len);

        let resumed = resume(&data, &cfg(), &sim(&cfg()), &on_disk)
            .expect("snapshot matches input and config");
        let (res_bytes, res_bits) = output_of(&resumed);
        assert_eq!(res_bits, base_bits, "kill at {kill_at}: bit length differs");
        assert_eq!(
            res_bytes, base_bytes,
            "kill at {kill_at}: resumed stream is not byte-identical"
        );
        // And the stream still decodes back to the input.
        let (_, _, lengths) = resumed.result.output.as_ref().unwrap();
        let table = tvs_huffman::CodeTable::from_lengths(lengths);
        let decoded = decode_exact(res_bytes, 0, res_bits, data.len(), &table)
            .expect("resumed stream decodes");
        assert_eq!(decoded, data);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn threaded_kill_and_resume_is_byte_identical() {
    let data = stationary(64 * 1024);
    // Cross-executor identity holds for stationary input, so the sim run
    // is the reference for the real-thread resumes too.
    let base = run(&data, &cfg(), &sim(&cfg()));
    let (base_bytes, base_bits) = output_of(&base);
    let tcfg = ThreadedConfig::new(4, cfg().policy);
    for (name, executor) in [
        ("threaded", Executor::Threaded(tcfg.clone())),
        ("baseline", Executor::Baseline(tcfg)),
    ] {
        let spec = RunSpec {
            executor,
            arrival: &ARRIVAL,
            time_scale: 1000,
            resume: None,
        };
        let full = run(&data, &cfg(), &spec);
        assert_eq!(output_of(&full), (base_bytes, base_bits), "{name}");
        for kill_at in [8usize, 32] {
            let dir = scratch_dir(&format!("{name}-{kill_at}"));
            let mut c = cfg();
            c.checkpoint = Some(CheckpointConfig {
                every_blocks: 4,
                dir: dir.clone(),
                halt_at_block: Some(kill_at),
            });
            let snap = halt(&data, &c, &spec);
            assert!(snap.prefix >= kill_at as u64, "{name}");
            let resumed =
                resume(&data, &cfg(), &spec, &snap).expect("snapshot matches input and config");
            let (res_bytes, res_bits) = output_of(&resumed);
            assert_eq!(
                res_bits, base_bits,
                "{name} kill at {kill_at}: bit length differs"
            );
            assert_eq!(
                res_bytes, base_bytes,
                "{name} kill at {kill_at}: resumed stream is not byte-identical"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn resume_never_re_speculates() {
    let data = stationary(64 * 1024);
    let dir = scratch_dir("nospec");
    let mut c = cfg();
    c.checkpoint = Some(CheckpointConfig {
        every_blocks: 4,
        dir: dir.clone(),
        halt_at_block: Some(16),
    });
    let snap = halt(&data, &c, &sim(&c));
    assert!(snap.committed_version > 0, "halt implies a committed tree");
    let resumed = resume(&data, &cfg(), &sim(&cfg()), &snap).expect("resumes");
    let stats = resumed.result.spec_stats.expect("policy speculates");
    assert_eq!(stats.predictions, 0, "resume must not predict again");
    assert_eq!(stats.rollbacks, 0, "resume must not roll back");
    assert_eq!(
        resumed.result.committed_version.map(u64::from),
        Some(snap.committed_version),
        "the snapshot's committed version carries through"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_mismatched_input_and_config() {
    let data = stationary(32 * 1024);
    let dir = scratch_dir("mismatch");
    let mut c = cfg();
    c.checkpoint = Some(CheckpointConfig {
        every_blocks: 4,
        dir: dir.clone(),
        halt_at_block: Some(8),
    });
    let snap = halt(&data, &c, &sim(&c));

    // Wrong input bytes: one bit flipped past the committed prefix.
    let mut other = data.clone();
    let last = other.len() - 1;
    other[last] ^= 0x40;
    assert_eq!(
        resume(&other, &cfg(), &sim(&cfg()), &snap).err(),
        Some(HuffmanRunError::Resume(ResumeError::InputMismatch))
    );

    // Wrong output shape: a different tolerance changes the digest.
    let mut reshaped = cfg();
    reshaped.tolerance = tvs_core::Tolerance::percent(5.0);
    assert_eq!(
        resume(&data, &reshaped, &sim(&reshaped), &snap).err(),
        Some(HuffmanRunError::Resume(ResumeError::InputMismatch))
    );

    // A truncated snapshot file is a structured load error, not a panic.
    let path = CheckpointConfig::new(4, &dir).snapshot_path();
    let text = std::fs::read_to_string(&path).expect("snapshot persisted");
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(StreamSnapshot::load(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adversarial drifting input: every block shifts the byte distribution,
/// so every prediction is stale by the time its check resolves.
fn drifting(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i / 1024) * 7 + i % 13) as u8).collect()
}

fn drain(tracer: &Tracer) -> TraceLog {
    tracer.drain().expect("enabled tracer drains")
}

fn ladder_cfg() -> HuffmanConfig {
    let mut c = cfg();
    c.policy = DispatchPolicy::Aggressive;
    c.verification = tvs_core::VerificationPolicy::Full;
    c.tolerance = tvs_core::Tolerance { margin: 0.0 };
    c.breaker = Some(tvs_core::BreakerConfig {
        window: 4,
        min_samples: 2,
        trip_ratio: 0.5,
        cooldown: 1_000,
        probe_successes: 1,
    });
    c.ladder = Some(LadderConfig {
        window: 4,
        min_samples: 2,
        trip_ratio: 0.5,
        up_windows: 2,
        depth_cap: 1,
    });
    c
}

#[test]
fn ladder_steps_down_when_the_breaker_trips_sim() {
    let data = drifting(32 * 1024);
    let arrival = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let tracer = Tracer::enabled(8);
    let c = ladder_cfg();
    let sim = SimConfig {
        tracer: tracer.clone(),
        ..SimConfig::new(x86_smp(8), c.policy)
    };
    let out = run(&data, &c, &RunSpec::sim(sim, &arrival));
    let log = drain(&tracer);
    assert!(
        log.count("breaker-trip") >= 1,
        "100% misprediction must trip the breaker"
    );
    assert!(
        log.count("ladder-step") >= 1,
        "a tripped breaker must step the ladder down"
    );
    let stats = out.result.spec_stats.expect("speculative policy");
    assert!(stats.ladder_steps >= 1);
    assert_eq!(log.health().ladder_steps, stats.ladder_steps);
    // Degraded, not broken: the run still completes and decodes.
    let (bytes, bits, lengths) = out.result.output.as_ref().expect("output collected");
    let table = tvs_huffman::CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, data.len(), &table).expect("stream decodes");
    assert_eq!(decoded, data);
}

#[test]
fn ladder_steps_down_when_the_breaker_trips_threaded() {
    let data = drifting(32 * 1024);
    let arrival = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let tracer = Tracer::enabled(4);
    let c = ladder_cfg();
    let tcfg = ThreadedConfig {
        tracer: tracer.clone(),
        ..ThreadedConfig::new(4, c.policy)
    };
    let out = run(&data, &c, &RunSpec::threaded(tcfg, &arrival, 100));
    let log = drain(&tracer);
    let stats = out.result.spec_stats.expect("speculative policy");
    assert!(
        stats.ladder_steps >= 1,
        "sustained misprediction must step the ladder down on real threads \
         (breaker trips: {}, checks failed: {})",
        log.count("breaker-trip"),
        stats.checks_failed,
    );
    let (bytes, bits, lengths) = out.result.output.as_ref().expect("output collected");
    let table = tvs_huffman::CodeTable::from_lengths(lengths);
    let decoded = decode_exact(bytes, 0, *bits, data.len(), &table).expect("stream decodes");
    assert_eq!(decoded, data);
}

#[test]
fn supervised_run_rejects_duplicate_completions_instead_of_double_committing() {
    // The acceptance scenario: duplicate completion reports injected into
    // a supervised threaded run must take the epoch-reject path — visible
    // in `stale_completions_rejected` — and leave the output stream
    // byte-identical to a clean run.
    let data = stationary(64 * 1024);
    let base = run(&data, &cfg(), &sim(&cfg()));
    let (base_bytes, base_bits) = output_of(&base);
    let mut tcfg = ThreadedConfig::new(4, DispatchPolicy::Balanced);
    tcfg.supervisor = Some(tvs_sre::SupervisorConfig::default());
    tcfg.faults = FaultInjector::new(
        FaultPlan::new(7)
            .with_rule(FaultSite::Completion, FaultKind::DuplicateCompletion, 1.0)
            .with_max_faults(12),
    );
    tcfg.tracer = Tracer::enabled(4);
    let out = run_huffman(&data, &cfg(), &RunSpec::threaded(tcfg, &ARRIVAL, 1000))
        .expect("duplicate echoes are recoverable")
        .into_outcome();
    assert!(
        out.metrics.stale_completions_rejected > 0,
        "the epoch-reject path must actually be taken"
    );
    assert_eq!(
        out.metrics.duplicate_completions, 0,
        "no echo may reach the commit path"
    );
    assert_eq!(output_of(&out), (base_bytes, base_bits));
}
