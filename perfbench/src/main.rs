//! End-to-end benchmark of the speculative Huffman stream on real threads.
//!
//! Runs the paper's streaming Huffman encoder (`HuffmanWorkload`, x86 + disk
//! configuration, balanced speculation, 4 KiB blocks) on the work-stealing
//! executor with two workers, fed by this program's own open-loop input
//! iterator, and checks every output stream by decoding it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <txt_paced|pdf_full> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced runs, with the
//! serial encoder, the non-speculative pipeline and a machine-speed
//! calibration (see `calib`) interleaved. `--trace 1` alternates untraced
//! runs with runs wrapped in the outside-in tracing adapter (see `layers`)
//! and reports the per-layer metrics and the tracing overhead. Human-readable lines go first; the
//! last line of standard output is one JSON object.

mod calib;
mod layers;
mod stats;
mod stream;

use calib::{Speedometer, REFERENCE_MB_S};
use layers::{layer_values, Recorder, Traced, LAYER_METRICS};
use stats::{mean, median, percentile, sorted};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{check, config, drive, serial, Input, Stream, INPUT_BYTES, WORKERS};
use tvs_pipelines::HuffmanWorkload;
use tvs_sre::DispatchPolicy;
use tvs_workloads::FileKind;

/// One block due every 40 µs: about 100 MB/s, a third of what two workers
/// sustain, so latency measures the per-block path rather than queueing.
const PACED: Duration = Duration::from_micros(40);

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct WorkloadSpec {
    name: &'static str,
    kind: FileKind,
    /// Gap between due times; zero makes every block due at the start.
    period: Duration,
}

impl WorkloadSpec {
    /// Fed at full speed, the streams and the warm-up are bound by the CPU;
    /// a paced stream follows its schedule.
    fn cpu_bound(&self) -> bool {
        self.period.is_zero()
    }
}

/// Why each workload is here is recorded in `BENCHMARK.json`.
const WORKLOADS: [WorkloadSpec; 2] = [
    WorkloadSpec {
        name: "txt_paced",
        kind: FileKind::Text,
        period: PACED,
    },
    WorkloadSpec {
        name: "pdf_full",
        kind: FileKind::Pdf,
        period: Duration::ZERO,
    },
];

/// The end-to-end metrics and their units, in report order. Mean latency
/// is printed but not among them: on `txt_paced` one stall of the host
/// moves it by half between runs, too much for a regression bound.
const E2E: [(&str, &str); 7] = [
    ("throughput_mb_s", "MB/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("serial_mb_s", "MB/s"),
    ("nonspec_mb_s", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

type Values = BTreeMap<&'static str, f64>;

struct Args {
    workload: &'static WorkloadSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing --{k}"));
    let name = take("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let num = |k: &str, v: String| v.parse::<u64>().map_err(|e| format!("--{k} {v:?}: {e}"));
    let seed = num("seed", take("seed")?)?;
    let seconds = num("seconds", take("seconds")?)?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Streams attempted and failed; a failed stream is kept out of every
/// timing.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        })
        .ok()
    }
}

/// One untraced, checked pipeline stream.
fn pipeline(input: &Input, policy: DispatchPolicy, period: Duration) -> Result<Stream, String> {
    let wl = HuffmanWorkload::new(config(policy), input.data.len());
    let d = drive(wl, policy, input, period)?;
    check(&mut d.workload.result(), input, d.wall, &d.late_us)
}

/// One traced, checked speculative stream.
struct TracedStream {
    stream: Stream,
    values: Values,
    disagreements: Vec<String>,
    rec: Recorder,
}

fn traced(input: &Input, period: Duration) -> Result<TracedStream, String> {
    let policy = DispatchPolicy::Balanced;
    let wl = Traced::new(HuffmanWorkload::new(config(policy), input.data.len()));
    let d = drive(wl, policy, input, period)?;
    let Traced { inner, rec } = d.workload;
    let mut result = inner.result();
    let (values, disagreements) = layer_values(&rec, &result, &d.metrics, d.wall, &d.late_us);
    let stream = check(&mut result, input, d.wall, &d.late_us)?;
    Ok(TracedStream {
        stream,
        values,
        disagreements,
        rec,
    })
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Alternating round order: even rounds run `items` as given, odd rounds
/// reversed, so drift on a shared machine hits every side alike.
fn order<T, const N: usize>(round: usize, mut items: [T; N]) -> [T; N] {
    if round % 2 == 1 {
        items.reverse();
    }
    items
}

enum Side {
    Speculative,
    NonSpeculative,
    Serial,
}

/// End-to-end metrics from untraced runs, the references interleaved.
/// Calibrations bracket every stream, and each CPU-bound figure is scaled
/// by the machine speed around its own stream (see `calib`).
fn measure_e2e(
    input: &Input,
    w: &WorkloadSpec,
    deadline: Instant,
    tally: &mut Tally,
    speed: &mut Speedometer,
) -> Values {
    // Per metric, per stream: the figure as measured and the scale of the
    // machine speed around its stream.
    let mut figures: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut lmean = Vec::new();
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        let sides = [Side::Speculative, Side::NonSpeculative, Side::Serial];
        for side in order(round, sides) {
            let measured = match side {
                Side::Speculative => {
                    let r = pipeline(input, DispatchPolicy::Balanced, w.period);
                    tally.record("speculative stream", r).map(|s| {
                        let lat = sorted(s.latencies_us);
                        lmean.push(mean(&lat));
                        vec![
                            ("throughput_mb_s", s.throughput_mb_s),
                            ("lat_p50_us", percentile(&lat, 0.50)),
                            ("lat_p99_us", percentile(&lat, 0.99)),
                        ]
                    })
                }
                Side::NonSpeculative => {
                    let r = pipeline(input, DispatchPolicy::NonSpeculative, w.period);
                    tally
                        .record("non-speculative stream", r)
                        .map(|s| vec![("nonspec_mb_s", s.throughput_mb_s)])
                }
                Side::Serial => tally
                    .record("serial encode", serial(input))
                    .map(|tp| vec![("serial_mb_s", tp)]),
            };
            let scale = speed.scale();
            for (name, v) in measured.unwrap_or_default() {
                figures.entry(name).or_default().push((v, scale));
            }
        }
        let last = |name: &str| {
            figures
                .get(name)
                .and_then(|v| v.last())
                .map_or("-".to_string(), |(x, _)| format!("{x:.1}"))
        };
        println!(
            "round {}: speculative {} MB/s (latency p50 {} us, p99 {} us), \
             non-speculative {} MB/s, serial {} MB/s, calibration {:.1} MB/s",
            round + 1,
            last("throughput_mb_s"),
            last("lat_p50_us"),
            last("lat_p99_us"),
            last("nonspec_mb_s"),
            last("serial_mb_s"),
            speed.speeds().last().expect("calibrated at least once")
        );
        round += 1;
    }
    let count = |name: &str| figures.get(name).map_or(0, Vec::len);
    println!(
        "{round} rounds: medians over {} speculative, {} non-speculative and {} serial streams, \
         {} calibrations between them; latency percentiles are taken per stream over its {} blocks",
        count("throughput_mb_s"),
        count("nonspec_mb_s"),
        count("serial_mb_s"),
        speed.speeds().len(),
        input.blocks.len()
    );
    if !lmean.is_empty() {
        println!(
            "lat_mean_us {:.3} (median over streams, unscaled)",
            median(&lmean)
        );
    }
    let cpu_bound = w.cpu_bound();
    println!(
        "calibration median {:.1} MB/s; CPU-bound figures scaled to {REFERENCE_MB_S} MB/s: {}",
        median(speed.speeds()),
        if cpu_bound {
            "all of them here"
        } else {
            "only serial_mb_s here"
        }
    );
    let mut values = Values::new();
    for (name, faster_is_higher, scaled) in [
        ("throughput_mb_s", true, cpu_bound),
        ("lat_p50_us", false, cpu_bound),
        ("lat_p99_us", false, cpu_bound),
        ("serial_mb_s", true, true),
        ("nonspec_mb_s", true, cpu_bound),
    ] {
        let Some(v) = figures.get(name) else {
            continue;
        };
        let raw: Vec<f64> = v.iter().map(|&(x, _)| x).collect();
        let adjusted: Vec<f64> = v
            .iter()
            .map(|&(x, k)| match (scaled, faster_is_higher) {
                (false, _) => x,
                (true, true) => x * k,
                (true, false) => x / k,
            })
            .collect();
        println!("{name} unscaled {:.3}", median(&raw));
        values.insert(name, median(&adjusted));
    }
    values
}

/// Per-layer metrics from traced runs, alternated with untraced runs to
/// measure the tracing overhead. The last traced stream's spans are
/// written to `perfbench/out/`.
fn measure_layers(
    input: &Input,
    w: &WorkloadSpec,
    seed: u64,
    deadline: Instant,
    tally: &mut Tally,
) -> Result<Values, String> {
    let (mut plain_tp, mut plain_lat) = (Vec::new(), Vec::new());
    let (mut traced_tp, mut traced_lat) = (Vec::new(), Vec::new());
    let mut layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        for with_trace in order(round, [false, true]) {
            if with_trace {
                let Some(t) = tally.record("traced stream", traced(input, w.period)) else {
                    continue;
                };
                for d in &t.disagreements {
                    println!(
                        "count cross-check, traced stream {}: {d}",
                        traced_tp.len() + 1
                    );
                }
                traced_tp.push(t.stream.throughput_mb_s);
                traced_lat.push(mean(&t.stream.latencies_us));
                for (k, v) in t.values {
                    layer.entry(k).or_default().push(v);
                }
                last = Some(t.rec);
            } else {
                let r = pipeline(input, DispatchPolicy::Balanced, w.period);
                if let Some(s) = tally.record("untraced stream", r) {
                    plain_tp.push(s.throughput_mb_s);
                    plain_lat.push(mean(&s.latencies_us));
                }
            }
        }
        round += 1;
    }
    println!(
        "{round} rounds: per-layer medians over {} traced streams; overhead against {} untraced streams",
        traced_tp.len(),
        plain_tp.len()
    );
    let mut values: Values = layer.iter().map(|(k, v)| (*k, median(v))).collect();
    if !plain_tp.is_empty() && !traced_tp.is_empty() {
        let pct = |a: &[f64], b: &[f64]| (median(a) / median(b) - 1.0) * 100.0;
        // Run time is inversely proportional to throughput.
        values.insert("trace.overhead_wall_pct", pct(&plain_tp, &traced_tp));
        values.insert("trace.overhead_lat_mean_pct", pct(&traced_lat, &plain_lat));
    }
    if let (Some(share), Some(wasted)) = (
        values.get("sre.reported_waste_share"),
        values.get("core.wasted_tasks"),
    ) {
        if *wasted > 0.0 && *share < 1.0 {
            println!(
                "RunMetrics.wasted_us reports {:.1}% of the body time measured on aborted versions \
                 ({wasted} task bodies): work delivered before its version aborts is not counted there",
                share * 100.0
            );
        }
    }
    if let Some(rec) = last {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{seed}.csv", w.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| rec.write_csv(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans of the last traced stream: {}", path.display());
    }
    Ok(values)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    println!(
        "workload {} ({}, {} MiB, {}), seed {}, {} s, trace {}, {WORKERS} workers, available_parallelism {}",
        w.name,
        w.kind.label(),
        INPUT_BYTES >> 20,
        if w.period.is_zero() {
            "all blocks due at t=0".to_string()
        } else {
            format!("one block due every {} us", w.period.as_micros())
        },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // Set-up: generate the input from the seed, slice it into blocks and
    // warm up with one untimed stream. Repeated; the median is reported,
    // on a CPU-bound workload each set-up scaled by the machine speed
    // around it.
    let mut speed = Speedometer::new();
    let (mut setup_s, mut setup_raw) = (Vec::new(), Vec::new());
    let mut input = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        drop(input.take());
        let inp = Input::generate(w.kind, args.seed);
        pipeline(&inp, DispatchPolicy::Balanced, w.period).map_err(|e| format!("warm-up: {e}"))?;
        let elapsed = t.elapsed().as_secs_f64();
        setup_raw.push(elapsed);
        let scale = speed.scale();
        setup_s.push(elapsed / if w.cpu_bound() { scale } else { 1.0 });
        input = Some(inp);
    }
    let input = input.expect("at least one set-up");

    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (values, listed): (Values, Vec<(&str, &str, &str)>) = if args.trace {
        let values = measure_layers(&input, w, args.seed, deadline, &mut tally)?;
        let listed = LAYER_METRICS
            .iter()
            .map(|l| (l.name, l.unit, l.moves))
            .collect();
        (values, listed)
    } else {
        let mut values = measure_e2e(&input, w, deadline, &mut tally, &mut speed);
        println!("setup_s unscaled {:.3}", median(&setup_raw));
        values.insert("setup_s", median(&setup_s));
        values.insert("peak_rss_mb", peak_rss_mb()?);
        (values, E2E.iter().map(|&(n, u)| (n, u, "")).collect())
    };

    let mut json = Vec::new();
    let mut complete = true;
    for (name, unit, moves) in listed {
        match values.get(name) {
            Some(v) => {
                println!("{name:<28} {v:>14.3} {unit:<6} {moves}");
                json.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            None => {
                println!("{name:<28} {:>14} {unit}", "missing");
                complete = false;
            }
        }
    }
    println!(
        "streams attempted {}, failed {} (fail_ratio {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        complete && tally.failed == 0,
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    Ok(())
}
