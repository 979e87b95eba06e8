//! Flight-recorder acceptance tests.
//!
//! A forced breaker-trip run (fixed seed, simulator and real threads)
//! must produce a post-mortem bundle from which the offline loader
//! deterministically reconstructs the complete rollback cascade tree,
//! with per-lineage wasted-µs totals equal to the aggregate
//! `SpecHealth::wasted_us`. The simulator's bundle must additionally be
//! byte-identical across captures, and the always-on crash hook must
//! dump a bundle when a chaos run dies with a structured `RunError`.

use std::path::PathBuf;
use tvs_core::{BreakerConfig, SpeculationSchedule, Tolerance, VerificationPolicy};
use tvs_iosim::Uniform;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::postmortem::{self, BundleMeta, Trigger};
use tvs_pipelines::runner::{run_huffman, RunSpec};
use tvs_sre::exec::sim::SimConfig;
use tvs_sre::exec::threaded::ThreadedConfig;
use tvs_sre::{
    x86_smp, DispatchPolicy, FaultInjector, FaultKind, FaultPlan, FaultSite, TraceLog, Tracer,
};

/// The adversarial breaker-trip scenario shared by `tvs-chaos` and
/// `tvs-report`: continuously drifting input, zero tolerance, a tight
/// breaker window — every prediction mispredicts.
fn breaker_cfg() -> HuffmanConfig {
    let mut c = HuffmanConfig::disk_x86(DispatchPolicy::Aggressive);
    c.block_bytes = 1024;
    c.reduce_ratio = 4;
    c.offset_fanout = 4;
    c.schedule = SpeculationSchedule::with_step(1);
    c.verification = VerificationPolicy::Full;
    c.tolerance = Tolerance { margin: 0.0 };
    c.breaker = Some(BreakerConfig {
        window: 4,
        min_samples: 2,
        trip_ratio: 0.5,
        cooldown: 1_000,
        probe_successes: 1,
    });
    c
}

fn drifting() -> Vec<u8> {
    (0..32 * 1024usize)
        .map(|i| ((i / 1024) * 7 + i % 13) as u8)
        .collect()
}

/// The event log of one run of `spec`, whose config carries `tracer`.
fn events(data: &[u8], cfg: &HuffmanConfig, spec: RunSpec, tracer: &Tracer) -> TraceLog {
    run_huffman(data, cfg, &spec).expect("run completes");
    tracer.drain().expect("enabled tracer drains")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-pm-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sim_breaker_trip_bundle_is_byte_deterministic() {
    let data = drifting();
    let cfg = breaker_cfg();
    let slow = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let sim_events = || {
        let tracer = Tracer::enabled(8);
        let sim = SimConfig {
            tracer: tracer.clone(),
            ..SimConfig::new(x86_smp(8), cfg.policy)
        };
        events(&data, &cfg, RunSpec::sim(sim, &slow), &tracer)
    };
    let capture = |root: &PathBuf| {
        let log = sim_events();
        assert!(log.count("breaker-trip") >= 1, "scenario must trip");
        let meta = BundleMeta::for_log(Trigger::BreakerTrip, 2011, "aggressive", &log, None);
        postmortem::write_bundle(root, &meta, &log, &[]).expect("bundle writes")
    };
    let (da, db) = (tmp_dir("sim-a"), tmp_dir("sim-b"));
    let (a, b) = (capture(&da), capture(&db));
    // The reconstruction inputs are byte-identical across captures of
    // the same seeded crash. (The raw trace members also carry wall-µs
    // stamps — real time even under the simulator — so only the
    // virtual-time members can be compared bytewise.)
    for member in ["MANIFEST.json", "lineage.csv"] {
        let ba = std::fs::read(a.join(member)).expect(member);
        let bb = std::fs::read(b.join(member)).expect(member);
        assert_eq!(ba, bb, "{member} must be byte-identical across captures");
    }
    let ba = postmortem::load_bundle(&a).expect("first bundle reloads");
    let bb = postmortem::load_bundle(&b).expect("second bundle reloads");
    assert_eq!(
        ba.lineage.render_tree(),
        bb.lineage.render_tree(),
        "two captures reconstruct the same cascade forest"
    );
    // The offline reconstruction conserves the live aggregate and
    // renders the same cascade forest as the in-memory join.
    let log = sim_events();
    let bundle = postmortem::load_bundle(&a).expect("bundle reloads");
    bundle.check().expect("conservation holds");
    assert_eq!(bundle.meta.wasted_us, log.health().wasted_us);
    assert_eq!(bundle.lineage.render_tree(), log.lineage().render_tree());
    assert!(
        !bundle.lineage.render_tree().is_empty(),
        "a tripping run opens at least one lineage"
    );
    let _ = std::fs::remove_dir_all(da);
    let _ = std::fs::remove_dir_all(db);
}

#[test]
fn threaded_breaker_trip_bundle_reconstructs_the_cascade() {
    let data = drifting();
    let cfg = breaker_cfg();
    let slow = Uniform {
        gap_us: 100,
        start_us: 0,
    };
    let tracer = Tracer::enabled(4);
    let tcfg = ThreadedConfig {
        tracer: tracer.clone(),
        ..ThreadedConfig::new(4, cfg.policy)
    };
    let log = events(&data, &cfg, RunSpec::threaded(tcfg, &slow, 1000), &tracer);
    let meta = BundleMeta::for_log(Trigger::BreakerTrip, 2012, "aggressive", &log, None);
    let root = tmp_dir("threaded");
    let path = postmortem::write_bundle(&root, &meta, &log, &[]).expect("bundle writes");
    let bundle = postmortem::load_bundle(&path).expect("bundle reloads");
    bundle.check().expect("conservation holds");
    assert_eq!(bundle.meta.timebase, "wall-us");
    assert_eq!(bundle.lineage.render_tree(), log.lineage().render_tree());
    // Reloading is itself deterministic: two loads render identically.
    let again = postmortem::load_bundle(&path).expect("bundle reloads twice");
    assert_eq!(
        again.lineage.render_tree(),
        bundle.lineage.render_tree(),
        "offline reconstruction is stable"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn run_error_crash_hook_dumps_a_bundle() {
    // Injected panics are recovered state, not test noise.
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
    let root = tmp_dir("crash-hook");
    std::env::set_var("TVS_RESULTS_DIR", &root);
    // Every task body panics once and retry is forbidden: the first
    // non-speculative fault is terminal and the run dies with a
    // structured error, which must fire the always-on capture hook.
    let plan = FaultPlan::new(77).with_rule(FaultSite::TaskBody, FaultKind::PanicTask, 1.0);
    let cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
    let chaos = SimConfig {
        tracer: Tracer::enabled(4),
        faults: FaultInjector::new(plan),
        retry: tvs_sre::RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        },
        ..SimConfig::new(x86_smp(4), cfg.policy)
    };
    let arrival = Uniform {
        gap_us: 2,
        start_us: 0,
    };
    let data: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    let res = run_huffman(&data, &cfg, &RunSpec::sim(chaos, &arrival));
    assert!(res.is_err(), "all-panic plan must fail the run");
    let bundle_dir = root.join("postmortem_dev_77");
    let bundle = postmortem::load_bundle(&bundle_dir)
        .expect("crash hook must have written a reloadable bundle");
    assert_eq!(bundle.meta.trigger, Trigger::RunError);
    assert_eq!(bundle.meta.seed, 77);
    assert!(bundle.meta.error.is_some(), "structured error is recorded");
    bundle.check().expect("conservation holds");
    std::env::remove_var("TVS_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(root);
}
