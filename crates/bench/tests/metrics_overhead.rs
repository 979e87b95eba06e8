//! Metrics-overhead guard: with ~100 µs task bodies — the coarse-grain
//! regime the paper targets — a threaded run with the live metrics plane
//! enabled (sharded registry, gauges, histograms, plus a 10 ms sampler
//! thread scraping snapshots) must stay close to a run with metrics
//! disabled.
//!
//! The lenient default (always on) only guards against a pathological
//! regression (2× floor — e.g. a lock added to the counter path), since
//! shared CI boxes are too noisy for a tight bound with other tests
//! running. Under `TVS_METRICS_STRICT=1` — the CI metrics job — the
//! bound is the design budget: metrics-enabled within 3 % of disabled.
//!
//! The measurement is built not to flake on a loaded 2-core box: each run
//! lasts tens of milliseconds, one discarded warm-up pair precedes the
//! timed ones, and metered and unmetered runs alternate, so the asserted
//! ratio is the median of per-pair ratios.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::{payload, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::{DispatchPolicy, MetricsHub, Sampler};

struct PerBlock {
    n: usize,
    seen: usize,
    spin: Duration,
}

impl Workload for PerBlock {
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
        let spin = self.spin;
        ctx.spawn(TaskSpec::regular(
            "w",
            0,
            b.data.len(),
            b.index as u64,
            move |_| {
                let t = Instant::now();
                while t.elapsed() < spin {
                    std::hint::spin_loop();
                }
                payload(())
            },
        ));
    }
    fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
        self.seen += 1;
    }
    fn is_finished(&self) -> bool {
        self.seen == self.n
    }
}

/// Tasks per run: enough that one run lasts tens of milliseconds on a
/// 2-core box, so thread start-up and scheduler noise stay small against
/// the signal.
const N: usize = 1024;
/// Timed off/on pairs after one discarded warm-up pair.
const PAIRS: usize = 7;

/// Wall seconds of one run of `N` 100 µs tasks on 4 workers, with the
/// metrics plane live (registry + sampler thread) or disabled. The
/// sampler's stop (final snapshot + join) happens outside the timed
/// region — the budget covers in-run emission, not post-run scraping.
fn time_run(metered: bool) -> f64 {
    const SPIN: Duration = Duration::from_micros(100);
    let inputs: Vec<(usize, Arc<[u8]>)> = (0..N).map(|i| (i, Arc::from(vec![0u8; 16]))).collect();
    let hub = if metered {
        MetricsHub::enabled(4)
    } else {
        MetricsHub::disabled()
    };
    let cfg = ThreadedConfig {
        hub: hub.clone(),
        ..ThreadedConfig::new(4, DispatchPolicy::NonSpeculative)
    };
    let sampler =
        metered.then(|| Sampler::spawn(hub.clone(), Duration::from_millis(10), |_snap| {}));
    let wl = PerBlock {
        n: N,
        seen: 0,
        spin: SPIN,
    };
    let t = Instant::now();
    let (w, metrics) = threaded::try_run(wl, &cfg, inputs).expect("threaded run completes");
    let el = t.elapsed().as_secs_f64();
    if let Some(s) = sampler {
        s.stop();
        let snap = hub.snapshot().expect("live hub snapshots");
        assert_eq!(
            snap.lane_dispatch.iter().sum::<u64>(),
            metrics.lane_dispatches.iter().sum::<u64>(),
            "hub and RunMetrics agree on dispatches"
        );
    }
    assert_eq!(w.seen, N);
    el
}

#[test]
fn metrics_overhead_stays_within_budget() {
    // Warm-up pair: thread spawn paths, allocator and caches.
    time_run(false);
    time_run(true);
    // Interleaved off/on pairs, alternating which goes first, so load
    // drift on a shared box hits both sides alike; the overhead is the
    // median of the per-pair ratios.
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let off = time_run(false);
                (off, time_run(true))
            } else {
                let on = time_run(true);
                (time_run(false), on)
            }
        })
        .collect();
    let mut ratios: Vec<f64> = pairs.iter().map(|(off, on)| on / off).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let ratio = ratios[PAIRS / 2];
    let mean_ms = |f: fn(&(f64, f64)) -> f64| pairs.iter().map(f).sum::<f64>() / PAIRS as f64 * 1e3;
    println!(
        "metrics overhead on 100us bodies, {N} tasks per run: off mean {:.3} ms, \
         on mean {:.3} ms, median ratio {ratio:.3}x over {PAIRS} interleaved pairs {ratios:.3?}",
        mean_ms(|p| p.0),
        mean_ms(|p| p.1),
    );
    let strict = std::env::var("TVS_METRICS_STRICT").as_deref() == Ok("1");
    let ceiling = if strict { 1.03 } else { 2.0 };
    assert!(
        ratio <= ceiling,
        "metrics-enabled run {ratio:.3}x slower than disabled \
         (ceiling {ceiling}x, strict={strict})"
    );
}
