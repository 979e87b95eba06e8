//! `tvs-bench` — the machine-readable perf trajectory.
//!
//! Runs the hot-path benchmark suite and records it as line-oriented JSON
//! (one object per line, schema
//! `{ bench, bytes_per_sec, allocs_per_block, p50_ns, p99_ns, git_rev }`)
//! in `BENCH_runtime.json` and `BENCH_huffman.json` at the repository
//! root. Those files are checked in: every perf-relevant PR re-runs the
//! suite and the diff *is* the perf review.
//!
//! Modes:
//!
//! * `tvs-bench --json`  — run and (re)write the `BENCH_*.json` files;
//! * `tvs-bench --check` — run and compare against the committed files:
//!   any bench whose throughput drops more than 10 % fails the process
//!   (the CI regression guard). Set `TVS_BENCH_REBASE=1` to rewrite the
//!   baselines instead of failing;
//! * `tvs-bench`         — run and print, touch nothing.
//!
//! The kernel cells (histogram, encode) time a 64 KiB block; the runtime
//! cells time the work-stealing executor on short tasks and the
//! speculation engine's steady-state commit/abort loop, whose
//! `allocs_per_block` must be **0**: past warm-up, the wait buffer and
//! undo journal recycle every per-version allocation.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tvs_bench::microbench::{bench_with, black_box, Measurement, Opts};
use tvs_core::{ReplicatingWorkload, SpecVersion, UndoLog, ValidationMode, WaitBuffer};
use tvs_huffman::{CodeLengths, CodeTable, EncodedBlock, Histogram};
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::task::{payload, TaskSpec};
use tvs_sre::workload::{Completion, InputBlock, SchedCtx, Workload};
use tvs_sre::DispatchPolicy;
use tvs_workloads::FileKind;

const BLOCK: usize = 64 * 1024;
/// Allowed throughput regression in `--check` mode.
const TOLERANCE: f64 = 0.10;

/// One emitted row of the perf trajectory.
struct Row {
    bench: &'static str,
    bytes_per_sec: f64,
    allocs_per_block: f64,
    p50_ns: f64,
    p99_ns: f64,
}

impl Row {
    /// From a microbench measurement whose per-iteration byte count is set.
    fn from_measurement(bench: &'static str, m: &Measurement) -> Row {
        let bytes = m.bytes.expect("throughput benches carry bytes") as f64;
        Row {
            bench,
            bytes_per_sec: bytes / (m.median_ns() * 1e-9),
            allocs_per_block: 0.0,
            p50_ns: percentile(&m.ns, 50.0),
            p99_ns: percentile(&m.ns, 99.0),
        }
    }

    fn json(&self, git_rev: &str) -> String {
        format!(
            "{{\"bench\":\"{}\",\"bytes_per_sec\":{:.1},\"allocs_per_block\":{},\
             \"p50_ns\":{:.1},\"p99_ns\":{:.1},\"git_rev\":\"{git_rev}\"}}",
            self.bench, self.bytes_per_sec, self.allocs_per_block, self.p50_ns, self.p99_ns,
        )
    }
}

/// `p`-th percentile of an ascending-sorted sample set.
fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0 * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx]
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The repository root (two levels above this crate's manifest).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the root")
        .to_path_buf()
}

// ----------------------------------------------------------------------
// Huffman kernel cells
// ----------------------------------------------------------------------

fn huffman_rows() -> Vec<Row> {
    let data = tvs_workloads::generate(FileKind::Text, BLOCK, 2011);
    let mut rows = Vec::new();

    let m = bench_with("histogram_count", Opts::throughput(BLOCK as u64), || {
        black_box(Histogram::from_bytes(&data))
    });
    rows.push(Row::from_measurement("histogram_count", &m));

    let hist = Histogram::from_bytes(&data);
    let lengths = CodeLengths::build(&hist).expect("non-empty");
    let table = CodeTable::from_lengths(&lengths);
    let mut out = EncodedBlock::default();
    let m = bench_with("encode_block_reuse", Opts::throughput(BLOCK as u64), || {
        assert!(tvs_huffman::encode_block_into(&data, &table, &mut out));
        black_box(out.bit_len)
    });
    rows.push(Row::from_measurement("encode_block_reuse", &m));

    rows
}

// ----------------------------------------------------------------------
// Runtime cells
// ----------------------------------------------------------------------

/// One short task per input block (mirrors `runtime_micro`'s short-body
/// throughput cell: runtime overhead dominates).
struct PerBlock {
    n: usize,
    seen: usize,
}

impl Workload for PerBlock {
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, b: InputBlock) {
        ctx.spawn(TaskSpec::regular(
            "w",
            0,
            b.data.len(),
            b.index as u64,
            move |_| payload(()),
        ));
    }
    fn on_complete(&mut self, _: &mut dyn SchedCtx, _: Completion) {
        self.seen += 1;
    }
    fn is_finished(&self) -> bool {
        self.seen == self.n
    }
}

/// Work-stealing executor, short tasks. Reported "bytes" are the input
/// block bytes the tasks carry — the interesting rate is tasks/sec, and
/// block size is fixed, so the two are proportional.
fn threaded_short_row() -> Row {
    const N: usize = 1000;
    const TASK_BYTES: usize = 16;
    const REPS: usize = 9;
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let cfg = ThreadedConfig::new(workers, DispatchPolicy::NonSpeculative);
    let mut per_task_ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let inputs: Vec<(usize, std::sync::Arc<[u8]>)> = (0..N)
                .map(|i| (i, std::sync::Arc::from(vec![0u8; TASK_BYTES])))
                .collect();
            let t = Instant::now();
            let (w, m) = threaded::try_run(PerBlock { n: N, seen: 0 }, &cfg, inputs)
                .expect("threaded run completes");
            let el = t.elapsed().as_nanos() as f64;
            assert_eq!(w.seen, N);
            assert_eq!(m.tasks_delivered as usize, N);
            el / N as f64
        })
        .collect();
    per_task_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = percentile(&per_task_ns, 50.0);
    println!(
        "{:<36} {:>12.0} ns/task (p50, {workers} workers)",
        "threaded_short_tasks", p50
    );
    Row {
        bench: "threaded_short_tasks",
        bytes_per_sec: TASK_BYTES as f64 / (p50 * 1e-9),
        allocs_per_block: 0.0,
        p50_ns: p50,
        p99_ns: percentile(&per_task_ns, 99.0),
    }
}

/// The same short-task cell with replication-based validation at sample
/// rate 1.0: every task runs twice and its digests are compared. The
/// worst-case replication overhead is part of the committed trajectory —
/// the coarse-grain regime the paper targets pays proportionally less.
fn threaded_short_replicated_row() -> Row {
    const N: usize = 1000;
    const TASK_BYTES: usize = 16;
    const REPS: usize = 9;
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let cfg = ThreadedConfig::new(workers, DispatchPolicy::NonSpeculative);
    let digest = |_: &'static str, out: &dyn std::any::Any| out.downcast_ref::<()>().map(|_| 0x5DC);
    let mut per_task_ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let inputs: Vec<(usize, std::sync::Arc<[u8]>)> = (0..N)
                .map(|i| (i, std::sync::Arc::from(vec![0u8; TASK_BYTES])))
                .collect();
            let wl = ReplicatingWorkload::new(
                PerBlock { n: N, seen: 0 },
                ValidationMode::Replicate { sample_rate: 1.0 },
                7,
                std::sync::Arc::new(digest),
            );
            let t = Instant::now();
            let (w, m) = threaded::try_run(wl, &cfg, inputs).expect("threaded run completes");
            let el = t.elapsed().as_nanos() as f64;
            assert_eq!(w.inner().seen, N);
            assert_eq!(m.replica_dispatches as usize, N);
            assert_eq!(w.stats().sdc_detected, 0, "clean replicas must agree");
            el / N as f64
        })
        .collect();
    per_task_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = percentile(&per_task_ns, 50.0);
    println!(
        "{:<36} {:>12.0} ns/task (p50, {workers} workers, every task replicated)",
        "threaded_short_tasks_replicated", p50
    );
    Row {
        bench: "threaded_short_tasks_replicated",
        bytes_per_sec: TASK_BYTES as f64 / (p50 * 1e-9),
        allocs_per_block: 0.0,
        p50_ns: p50,
        p99_ns: percentile(&per_task_ns, 99.0),
    }
}

/// The speculation engine's steady-state loop: one version per round —
/// journalled speculative writes, buffered outputs, then commit or abort.
/// Past warm-up the wait buffer and undo journal must recycle everything:
/// `allocs_per_block` is heap allocations per round *after* the
/// allocation counters were reset, and the committed claim is that it
/// is exactly zero.
/// A single-byte restore entry. One definition site, so every journal
/// entry shares the closure type and stays an unboxed pooled value.
fn restore(st: std::rc::Rc<std::cell::RefCell<Vec<u8>>>, pos: usize, old: u8) -> impl FnOnce() {
    move || st.borrow_mut()[pos] = old
}

fn spec_engine_row() -> Row {
    const WRITES: usize = 16;
    const OUTPUTS: usize = 8;
    const WARMUP: usize = 64;
    const ROUNDS: usize = 4096;
    const REPS: usize = 9;

    // Undo entries are single-byte restore closures over shared state —
    // plain values in the journal's pooled storage, no per-entry boxing.
    let state = std::rc::Rc::new(std::cell::RefCell::new(vec![0u8; 256]));
    let mut undo = UndoLog::new();
    let mut buffer: WaitBuffer<u64> = WaitBuffer::new();
    let mut commit_scratch: Vec<(u64, u64)> = Vec::new();
    let mut version: SpecVersion = 0;
    // A macro, not a closure: the body borrows the journal and buffer
    // only per expansion, so the warm-up stats reset between the two
    // loops stays legal.
    macro_rules! round {
        ($version:expr) => {{
            let version = $version;
            for w in 0..WRITES {
                let pos = (version as usize * 31 + w * 17) % 256;
                let old = state.borrow()[pos];
                state.borrow_mut()[pos] = version as u8;
                undo.record(version, restore(std::rc::Rc::clone(&state), pos, old));
            }
            for s in 0..OUTPUTS {
                buffer.push(version, s as u64, u64::from(version) ^ s as u64);
            }
            if version % 3 == 0 {
                undo.abort(version);
                buffer.abort(version);
            } else {
                undo.commit(version);
                commit_scratch.clear();
                buffer.commit_into(version, &mut commit_scratch);
            }
        }};
    }

    for _ in 0..WARMUP {
        version += 1;
        round!(version);
    }
    undo.reset_alloc_stats();
    buffer.reset_alloc_stats();

    let mut per_round_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            version += 1;
            round!(version);
        }
        per_round_ns.push(t.elapsed().as_nanos() as f64 / ROUNDS as f64);
    }
    per_round_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    black_box(&state.borrow()[0]);

    let heap_allocs = undo.alloc_stats().heap_allocs + buffer.alloc_stats().heap_allocs;
    let allocs_per_block = heap_allocs as f64 / (ROUNDS * REPS) as f64;
    let p50 = percentile(&per_round_ns, 50.0);
    println!(
        "{:<36} {:>12.0} ns/round (p50), {:.4} allocs/round",
        "spec_engine_steady_state", p50, allocs_per_block
    );
    Row {
        bench: "spec_engine_steady_state",
        // One round touches WRITES journal bytes and OUTPUTS u64 slots.
        bytes_per_sec: (WRITES + OUTPUTS * 8) as f64 / (p50 * 1e-9),
        allocs_per_block,
        p50_ns: p50,
        p99_ns: percentile(&per_round_ns, 99.0),
    }
}

// ----------------------------------------------------------------------
// Emission and the regression check
// ----------------------------------------------------------------------

fn render(rows: &[Row], git_rev: &str) -> String {
    let mut s = String::new();
    for r in rows {
        writeln!(s, "{}", r.json(git_rev)).expect("string write");
    }
    s
}

/// Pull `"bytes_per_sec":<num>` for each `"bench":"<name>"` line of a
/// committed baseline file. The emitter writes one flat object per line,
/// so field-level string scanning is exact, not heuristic.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim_matches('"').to_string())
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| {
            let name = field(l, "bench")?;
            let thr = field(l, "bytes_per_sec")?.parse().ok()?;
            Some((name, thr))
        })
        .collect()
}

/// Compare fresh rows against a committed baseline. Returns failure lines.
fn check(rows: &[Row], baseline: &str, file: &str) -> Vec<String> {
    let base = parse_baseline(baseline);
    let mut failures = Vec::new();
    for r in rows {
        let Some((_, was)) = base.iter().find(|(n, _)| n == r.bench) else {
            println!("{file}: {} — new bench, no baseline", r.bench);
            continue;
        };
        let ratio = r.bytes_per_sec / was;
        let verdict = if ratio < 1.0 - TOLERANCE {
            failures.push(format!(
                "{file}: {} regressed {:.1}% ({:.3e} -> {:.3e} bytes/s)",
                r.bench,
                (1.0 - ratio) * 100.0,
                was,
                r.bytes_per_sec,
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{file}: {:<28} {:.3e} vs baseline {:.3e} ({:+.1}%) {verdict}",
            r.bench,
            r.bytes_per_sec,
            was,
            (ratio - 1.0) * 100.0,
        );
    }
    failures
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let root = repo_root();
    let rev = git_rev(&root);
    let rebase = std::env::var("TVS_BENCH_REBASE")
        .map(|v| v == "1")
        .unwrap_or(false);

    println!("== tvs-bench: huffman kernels ==");
    let huffman = huffman_rows();
    println!("== tvs-bench: runtime ==");
    let runtime = vec![
        threaded_short_row(),
        threaded_short_replicated_row(),
        spec_engine_row(),
    ];

    let files = [
        ("BENCH_huffman.json", &huffman),
        ("BENCH_runtime.json", &runtime),
    ];
    match mode.as_str() {
        "--json" => {
            for (name, rows) in files {
                let path = root.join(name);
                std::fs::write(&path, render(rows, &rev)).expect("write baseline");
                println!("  -> {}", path.display());
            }
        }
        "--check" => {
            let mut failures = Vec::new();
            for (name, rows) in files {
                let path = root.join(name);
                let baseline = std::fs::read_to_string(&path).unwrap_or_default();
                if rebase {
                    std::fs::write(&path, render(rows, &rev)).expect("write baseline");
                    println!("  rebased -> {}", path.display());
                } else {
                    failures.extend(check(rows, &baseline, name));
                }
            }
            if !failures.is_empty() {
                eprintln!("\nperf regression guard failed:");
                for f in &failures {
                    eprintln!("  {f}");
                }
                eprintln!("(re-run with TVS_BENCH_REBASE=1 to accept the new numbers)");
                std::process::exit(1);
            }
        }
        _ => {
            for (name, rows) in files {
                print!("-- {name} --\n{}", render(rows, &rev));
            }
        }
    }

    // The steady-state claim is part of the committed trajectory: fail
    // loudly if pooling ever starts allocating again.
    if let Some(r) = runtime
        .iter()
        .find(|r| r.bench == "spec_engine_steady_state")
    {
        if r.allocs_per_block != 0.0 {
            eprintln!(
                "spec_engine_steady_state allocated {} times per round — pooling broke",
                r.allocs_per_block
            );
            std::process::exit(1);
        }
    }
}
