//! `tvs-chaos` — the CI fault-injection gauntlet.
//!
//! For every seed in a fixed matrix, build the standard chaos fault plan
//! (injected task panics, stalls, delayed/duplicated completions,
//! corrupted predicted values) and run the Huffman pipeline under it on
//! both the deterministic simulator and the real thread pool. Each run
//! must hold the **chaos invariant**: it either completes with output
//! that decodes byte-identically to the input (the fault-free result) or
//! fails with a structured error — never a process crash, never
//! silently wrong bytes. Simulated runs must additionally reproduce
//! exactly when re-run with the same seed.
//!
//! A final adversarial run — continuously drifting input on which every
//! prediction mispredicts — must trip the speculation circuit breaker
//! (a `breaker-trip` trace event) and still complete via conservative
//! dispatch. Its event log is written to
//! `results/chaos_breaker_trace.json` / `_events.csv` as the CI artifact.
//!
//! Run with `cargo run --release -p tvs-bench --bin tvs-chaos`.
//! Exits non-zero if any invariant is violated.

use tvs_bench::{results_dir, write_trace};
use tvs_core::{
    BreakerConfig, CheckpointConfig, SpeculationSchedule, Tolerance, ValidationMode,
    VerificationPolicy,
};
use tvs_huffman::{decode_exact, CodeTable};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::postmortem;
use tvs_pipelines::runner::{run_huffman, HuffmanRunError, RunEnd, RunOutcome, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{x86_smp, DispatchPolicy, FaultInjector, FaultPlan, FaultSite, TraceLog, Tracer};
use tvs_workloads::FileKind;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const WORKERS: usize = 4;
/// Bundle names are `postmortem_<rev>_<seed>`; the two forced
/// breaker-trip dumps use distinct fixed seeds so they coexist.
const BREAKER_SEED_SIM: u64 = 2011;
const BREAKER_SEED_THREADED: u64 = 2012;

/// Dump `log` as a breaker-trip post-mortem bundle under `dir`, reload
/// it, and verify the conservation invariant. Returns the violation
/// count (0 or 1).
fn dump_bundle(dir: &std::path::Path, seed: u64, log: &TraceLog) -> u32 {
    let meta = postmortem::BundleMeta::for_log(
        postmortem::Trigger::BreakerTrip,
        seed,
        DispatchPolicy::Aggressive.label(),
        log,
        None,
    );
    let path = match postmortem::write_bundle(dir, &meta, log, &[]) {
        Ok(p) => p,
        Err(e) => {
            println!("VIOLATION: could not write post-mortem bundle: {e}");
            return 1;
        }
    };
    match postmortem::load_bundle(&path).map_err(|e| format!("bundle does not reload: {e}")) {
        Ok(bundle) => match bundle.check() {
            Ok(()) => {
                println!("post-mortem bundle -> {}", path.display());
                0
            }
            Err(e) => {
                println!("VIOLATION: reloaded bundle fails conservation: {e}");
                1
            }
        },
        Err(e) => {
            println!("VIOLATION: {e}");
            1
        }
    }
}

/// The gauntlet's two executors: `"sim"` is 8 simulated workers,
/// `"threaded"` is `WORKERS` real threads with arrivals compressed 1000×.
/// Every run records its events into the returned tracer, so a structured
/// failure under an armed fault plan also dumps a post-mortem bundle.
fn exec_spec<'a>(
    exec: &str,
    policy: DispatchPolicy,
    arrival: &'a Uniform,
    faults: FaultInjector,
) -> (RunSpec<'a>, Tracer) {
    if exec == "sim" {
        let tracer = Tracer::enabled(8);
        let sim = SimConfig {
            tracer: tracer.clone(),
            faults,
            ..SimConfig::new(x86_smp(8), policy)
        };
        (RunSpec::sim(sim, arrival), tracer)
    } else {
        let tracer = Tracer::enabled(WORKERS);
        let tcfg = ThreadedConfig {
            tracer: tracer.clone(),
            faults,
            ..ThreadedConfig::new(WORKERS, policy)
        };
        (RunSpec::threaded(tcfg, arrival, 1000), tracer)
    }
}

/// One run of `c` on `exec` with `faults` armed: the outcome, or a
/// structured error.
fn run_on(
    exec: &str,
    data: &[u8],
    c: &HuffmanConfig,
    arrival: &Uniform,
    faults: FaultInjector,
) -> Result<RunOutcome, HuffmanRunError> {
    let (spec, _) = exec_spec(exec, c.policy, arrival, faults);
    run_huffman(data, c, &spec).map(|r| r.into_outcome())
}

fn cfg() -> HuffmanConfig {
    HuffmanConfig {
        collect_output: true,
        ..HuffmanConfig::disk_x86(DispatchPolicy::Balanced)
    }
}

/// The chaos invariant for one completed-or-failed run. Returns a short
/// status cell for the table, or `Err(reason)` on a violation.
fn check_invariant(
    res: Result<RunOutcome, HuffmanRunError>,
    data: &[u8],
) -> Result<String, String> {
    match res {
        Ok(out) => {
            let Some((bytes, bits, lengths)) = out.result.output.as_ref() else {
                return Err("run completed without collected output".into());
            };
            let table = CodeTable::from_lengths(lengths);
            match decode_exact(bytes, 0, *bits, data.len(), &table) {
                Ok(back) if back == data => Ok(format!(
                    "ok ({} faults, {} rollbacks)",
                    out.metrics.faults, out.metrics.rollbacks
                )),
                Ok(_) => Err("output decodes to WRONG bytes".into()),
                Err(e) => Err(format!("output does not decode: {e}")),
            }
        }
        // A structured failure is an allowed outcome — the invariant only
        // forbids crashes and silent corruption.
        Err(e) => Ok(format!("structured error: {e}")),
    }
}

/// Byte-identity check for the SDC matrix (no trace log involved).
fn decode_exactly(out: &RunOutcome, data: &[u8]) -> Result<(), String> {
    let Some((bytes, bits, lengths)) = out.result.output.as_ref() else {
        return Err("run completed without collected output".into());
    };
    let table = CodeTable::from_lengths(lengths);
    match decode_exact(bytes, 0, *bits, data.len(), &table) {
        Ok(back) if back == data => Ok(()),
        Ok(_) => Err("output decodes to WRONG bytes".into()),
        Err(e) => Err(format!("output does not decode: {e}")),
    }
}

fn main() {
    // Injected panics are caught and recovered by the executors; without
    // this hook each one still prints a message (plus a backtrace under
    // RUST_BACKTRACE=1, which CI sets), burying the report. Unexpected
    // panics keep a one-line diagnostic and fail the process as usual.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string panic>");
        if !msg.contains("injected") {
            eprintln!("panic: {msg} ({:?})", info.location());
        }
    }));
    let data = tvs_workloads::generate(FileKind::Text, 64 * 1024, 2011);
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let c = cfg();
    let mut violations = 0u32;

    println!("== tvs-chaos: {} seeds, FaultPlan::chaos ==", SEEDS.len());
    println!("{:<6} {:<40} {:<40}", "seed", "sim", "threaded");
    for seed in SEEDS {
        // A fresh injector per run: draw counters are run state, and the
        // determinism check below depends on starting from zero.
        let chaos = |exec: &str| {
            run_on(
                exec,
                &data,
                &c,
                &arrival,
                FaultInjector::new(FaultPlan::chaos(seed)),
            )
        };
        let first = chaos("sim");
        let repeat_differs = match (&first, &chaos("sim")) {
            (Ok(a), Ok(b)) => a.metrics != b.metrics,
            (Err(a), Err(b)) => a != b,
            _ => true,
        };
        let sim_cell = match check_invariant(first, &data) {
            Ok(s) if repeat_differs => {
                violations += 1;
                format!("VIOLATION: nondeterministic replay ({s})")
            }
            Ok(s) => s,
            Err(e) => {
                violations += 1;
                format!("VIOLATION: {e}")
            }
        };

        let thr_cell = match check_invariant(chaos("threaded"), &data) {
            Ok(s) => s,
            Err(e) => {
                violations += 1;
                format!("VIOLATION: {e}")
            }
        };
        println!("{seed:<6} {sim_cell:<40} {thr_cell:<40}");
    }

    // Silent-data-corruption recall: FaultPlan::sdc flips bits in encoded
    // blocks *after* a successful encode — no panic, no stall, bit count
    // intact — so retry and the tolerance checks are both blind. Under
    // Replicate/Both every run must decode byte-identically AND, whenever
    // corruptions actually landed, detect at least one divergence.
    let mut sdc_cfg = HuffmanConfig {
        block_bytes: 1024,
        reduce_ratio: 4,
        offset_fanout: 4,
        schedule: SpeculationSchedule::with_step(1),
        verification: VerificationPolicy::Full,
        ..cfg()
    };
    let sdc_data = tvs_workloads::generate(FileKind::Text, 32 * 1024, 2011);
    let sdc_modes = [
        ("replicate", ValidationMode::Replicate { sample_rate: 1.0 }),
        ("both", ValidationMode::Both { sample_rate: 1.0 }),
    ];
    let mut recall_lines = String::new();
    println!(
        "\n== sdc recall: {} seeds x sim+threaded x replicate/both ==",
        SEEDS.len()
    );
    println!(
        "{:<6} {:<10} {:<10} {:<30}",
        "seed", "exec", "mode", "injected/detected"
    );
    for seed in SEEDS {
        for (mode_label, mode) in sdc_modes {
            sdc_cfg.validation = mode;
            for exec in ["sim", "threaded"] {
                let faults = FaultInjector::new(FaultPlan::sdc(seed));
                let (spec, _) = exec_spec(exec, sdc_cfg.policy, &arrival, faults.clone());
                let run = match run_huffman(&sdc_data, &sdc_cfg, &spec) {
                    Ok(r) => r,
                    Err(e) => {
                        violations += 1;
                        println!("{seed:<6} {exec:<10} {mode_label:<10} VIOLATION: {e}");
                        continue;
                    }
                };
                let detected = run.replicas.sdc_detected;
                let out = run.into_outcome();
                let injected = faults.injected_at(FaultSite::TaskOutput);
                let decoded = decode_exactly(&out, &sdc_data);
                let ok = decoded.is_ok() && (injected == 0 || detected >= 1);
                recall_lines.push_str(&format!(
                    "{{\"seed\":{seed},\"exec\":\"{exec}\",\"mode\":\"{mode_label}\",\"injected\":{injected},\"detected\":{detected},\"ok\":{ok}}}\n"
                ));
                let cell = if ok {
                    format!("{injected}/{detected}")
                } else {
                    violations += 1;
                    format!(
                        "VIOLATION: {injected} injected, {detected} detected — {}",
                        decoded.err().unwrap_or_else(|| "undetected".into())
                    )
                };
                println!("{seed:<6} {exec:<10} {mode_label:<10} {cell:<30}");
            }
        }
    }
    let dir = results_dir();
    let recall_path = dir.join("sdc_recall.jsonl");
    if let Err(e) = std::fs::write(&recall_path, &recall_lines) {
        println!("VIOLATION: could not write sdc recall artifact: {e}");
        violations += 1;
    } else {
        println!("sdc recall -> {}", recall_path.display());
    }

    // Kill-and-resume matrix: for every seed, halt a checkpointed run at
    // each kill block, resume from the snapshot, and require the resumed
    // stream to be byte-identical to the uninterrupted run — on both
    // executors. This is the crash-recovery contract: a kill at any
    // committed prefix loses no bytes and changes no bytes.
    let resume_cfg = HuffmanConfig {
        block_bytes: 1024,
        reduce_ratio: 4,
        offset_fanout: 4,
        schedule: SpeculationSchedule::with_step(1),
        ..cfg()
    };
    const KILL_POINTS: [usize; 3] = [8, 24, 48];
    let mut resume_lines = String::new();
    println!(
        "\n== kill-and-resume: {} seeds x {:?} x sim+threaded ==",
        SEEDS.len(),
        KILL_POINTS
    );
    println!(
        "{:<6} {:<8} {:<10} {:<30}",
        "seed", "kill_at", "exec", "prefix/replayed"
    );
    for seed in SEEDS {
        let rd = tvs_workloads::generate(FileKind::Text, 64 * 1024, seed);
        let n_blocks = resume_cfg.n_blocks(rd.len());
        let base = run_on("sim", &rd, &resume_cfg, &arrival, FaultInjector::disabled())
            .expect("fault-free run completes");
        let base_out = base.result.output.as_ref().expect("output collected");
        for kill_at in KILL_POINTS {
            for exec in ["sim", "threaded"] {
                let dir = std::env::temp_dir().join(format!(
                    "tvs-chaos-resume-{}-{seed}-{kill_at}-{exec}",
                    std::process::id()
                ));
                let mut kc = resume_cfg.clone();
                kc.checkpoint = Some(CheckpointConfig {
                    every_blocks: 4,
                    dir: dir.clone(),
                    halt_at_block: Some(kill_at),
                });
                let (spec, _) = exec_spec(exec, kc.policy, &arrival, FaultInjector::disabled());
                let halted = run_huffman(&rd, &kc, &spec).map(|r| r.end);
                let snap = match halted {
                    Ok(RunEnd::Halted(s)) => *s,
                    Ok(RunEnd::Completed(_)) => {
                        violations += 1;
                        println!(
                            "{seed:<6} {kill_at:<8} {exec:<10} VIOLATION: completed, never halted"
                        );
                        continue;
                    }
                    Err(e) => {
                        violations += 1;
                        println!("{seed:<6} {kill_at:<8} {exec:<10} VIOLATION: {e}");
                        continue;
                    }
                };
                if exec == "sim" && seed == SEEDS[0] && kill_at == KILL_POINTS[1] {
                    // Keep one representative snapshot as a CI artifact;
                    // the smoke step audits it with
                    // `tvs-report --resume-audit`.
                    let keep = results_dir().join("resume_snapshot");
                    match snap.write_atomic(&keep) {
                        Ok(p) => println!("snapshot artifact -> {}", p.display()),
                        Err(e) => {
                            println!("VIOLATION: could not persist snapshot artifact: {e}");
                            violations += 1;
                        }
                    }
                }
                let resume = RunSpec {
                    resume: Some(&snap),
                    ..spec
                };
                let resumed = run_huffman(&rd, &resume_cfg, &resume).map(|r| r.into_outcome());
                let prefix = snap.prefix as usize;
                let replayed = n_blocks - prefix;
                let cell = match resumed {
                    Ok(out) => {
                        let ro = out.result.output.as_ref().expect("output collected");
                        if (&ro.0, ro.1) == (&base_out.0, base_out.1) {
                            format!("ok ({prefix}/{replayed})")
                        } else {
                            violations += 1;
                            "VIOLATION: resumed stream diverges".into()
                        }
                    }
                    Err(e) => {
                        violations += 1;
                        format!("VIOLATION: resume failed: {e}")
                    }
                };
                let identical = !cell.starts_with("VIOLATION");
                resume_lines.push_str(&format!(
                    "{{\"seed\":{seed},\"kill_at\":{kill_at},\"exec\":\"{exec}\",\"prefix\":{prefix},\"replayed\":{replayed},\"identical\":{identical}}}\n"
                ));
                println!("{seed:<6} {kill_at:<8} {exec:<10} {cell:<30}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    let resume_path = results_dir().join("resume_matrix.jsonl");
    if let Err(e) = std::fs::write(&resume_path, &resume_lines) {
        println!("VIOLATION: could not write resume matrix artifact: {e}");
        violations += 1;
    } else {
        println!("resume matrix -> {}", resume_path.display());
    }

    // Adversarial misprediction: drifting input, zero tolerance, tight
    // breaker window. The breaker must trip and the run must still finish.
    let mut bc = cfg();
    bc.block_bytes = 1024;
    bc.reduce_ratio = 4;
    bc.offset_fanout = 4;
    bc.policy = DispatchPolicy::Aggressive;
    bc.schedule = SpeculationSchedule::with_step(1);
    bc.verification = VerificationPolicy::Full;
    bc.tolerance = Tolerance { margin: 0.0 };
    bc.breaker = Some(BreakerConfig {
        window: 4,
        min_samples: 2,
        trip_ratio: 0.5,
        cooldown: 1_000,
        probe_successes: 1,
    });
    let adversarial: Vec<u8> = (0..32 * 1024usize)
        .map(|i| ((i / 1024) * 7 + i % 13) as u8)
        .collect();
    let slow = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let (spec_sim, tracer) = exec_spec("sim", bc.policy, &slow, FaultInjector::disabled());
    let out = run_huffman(&adversarial, &bc, &spec_sim).map(|r| r.into_outcome());
    let log = tracer.drain().expect("enabled tracer drains");
    let trips = log.count("breaker-trip");
    let decoded = check_invariant(out, &adversarial);
    println!(
        "breaker: {trips} trip(s), {} probe(s), {} recover(s) — {}",
        log.count("breaker-probe"),
        log.count("breaker-recover"),
        decoded.as_deref().unwrap_or("(violation)"),
    );
    if trips == 0 {
        println!("VIOLATION: 100% misprediction did not trip the breaker");
        violations += 1;
    }
    if decoded.is_err() {
        violations += 1;
    }
    let dir = results_dir();
    match write_trace(&log, &dir, "chaos_breaker_trace") {
        Ok((json, csv)) => println!("breaker trace -> {} and {}", json.display(), csv.display()),
        Err(e) => {
            println!("VIOLATION: could not write breaker trace artifact: {e}");
            violations += 1;
        }
    }

    // Forced post-mortem dumps of the breaker-trip scenario, sim and
    // threaded: the CI smoke step reloads the sim bundle with
    // `tvs-report --postmortem` and requires the offline cascade
    // reconstruction to conserve the live wasted-µs totals.
    violations += dump_bundle(&dir, BREAKER_SEED_SIM, &log);
    let mut tbc = bc.clone();
    tbc.breaker = Some(BreakerConfig {
        window: 4,
        min_samples: 2,
        trip_ratio: 0.5,
        cooldown: 1_000,
        probe_successes: 1,
    });
    let (spec_thr, tracer) = exec_spec("threaded", tbc.policy, &slow, FaultInjector::disabled());
    run_huffman(&adversarial, &tbc, &spec_thr).expect("threaded breaker run completes");
    let tlog = tracer.drain().expect("enabled tracer drains");
    println!(
        "threaded breaker: {} trip(s), {} rollback(s)",
        tlog.count("breaker-trip"),
        tlog.health().rollbacks
    );
    violations += dump_bundle(&dir, BREAKER_SEED_THREADED, &tlog);

    if violations > 0 {
        println!("\n{violations} chaos invariant violation(s)");
        std::process::exit(1);
    }
    println!("\nall chaos invariants held");
}
