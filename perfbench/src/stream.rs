//! One stream through the pipeline: the generated input, the benchmark's own
//! open-loop feeder, the executor call and the byte-exact output check.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tvs_huffman::{decode_exact, serial_encode, CodeTable};
use tvs_pipelines::{HuffmanConfig, PipelineResult};
use tvs_sre::exec::threaded::{try_run, ThreadedConfig};
use tvs_sre::{DispatchPolicy, RunMetrics, Workload};
use tvs_workloads::FileKind;

/// Input size of every workload.
pub const INPUT_BYTES: usize = 16 << 20;

/// Worker threads of every run: the two cores of the reference machine.
pub const WORKERS: usize = 2;

/// Streams proven to decode to the input: (code lengths, bit length,
/// bytes).
type Proven = ([u8; 256], u64, Vec<u8>);

/// Distinct proven streams kept per input. Each side's output repeats from
/// stream to stream, so a few entries cover every repetition.
const PROVEN_CAP: usize = 4;

/// The generated input, sliced into the pipeline's 4 KiB blocks.
pub struct Input {
    pub data: Vec<u8>,
    pub blocks: Vec<Arc<[u8]>>,
    proven: RefCell<Vec<Proven>>,
}

impl Input {
    pub fn generate(kind: FileKind, seed: u64) -> Self {
        let data = tvs_workloads::generate(kind, INPUT_BYTES, seed);
        let block_bytes = config(DispatchPolicy::Balanced).block_bytes;
        let blocks = data.chunks(block_bytes).map(Arc::from).collect();
        Input {
            data,
            blocks,
            proven: RefCell::new(Vec::new()),
        }
    }

    /// Check that `bytes` (`bit_len` bits, coded with `table`) decode to
    /// this input. Decoding is a pure function of the stream bytes, its bit
    /// length and the code lengths, so a stream identical in all three to
    /// one already decoded is proven by comparison; only new streams pay
    /// the bit-serial decode, which leaves time for more measured streams.
    fn verify(&self, bytes: Vec<u8>, bit_len: u64, table: &CodeTable) -> Result<(), String> {
        let lengths = table.lengths_array();
        let mut proven = self.proven.borrow_mut();
        if proven
            .iter()
            .any(|(l, b, s)| *l == lengths && *b == bit_len && *s == bytes)
        {
            return Ok(());
        }
        decodes_to(&bytes, bit_len, table, &self.data)?;
        if proven.len() < PROVEN_CAP {
            proven.push((lengths, bit_len, bytes));
        }
        Ok(())
    }
}

/// The pipeline configuration under test: the paper's x86 + disk shape
/// (4 KiB blocks, 16:1 reduce, 64-wide offsets, step-8 speculation), with
/// the output stream kept so every run can be decoded and checked.
pub fn config(policy: DispatchPolicy) -> HuffmanConfig {
    let mut cfg = HuffmanConfig::disk_x86(policy);
    cfg.collect_output = true;
    cfg
}

/// Open-loop input iterator handed to the executor's feeder thread. It
/// never slows down when the system does: a block whose due time has
/// passed is handed over at once, and how late that was is recorded.
struct Feed {
    blocks: Vec<Arc<[u8]>>,
    next: usize,
    t0: Instant,
    period: Duration,
    late_ns: Arc<[AtomicU64]>,
}

impl Iterator for Feed {
    type Item = (usize, Arc<[u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.next;
        let block = self.blocks.get(i)?.clone();
        let due = self.t0 + self.period * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late = Instant::now().saturating_duration_since(due);
        self.late_ns[i].store(late.as_nanos() as u64, Ordering::Relaxed);
        self.next += 1;
        Some((i, block))
    }
}

/// A workload after its run, with what the benchmark measured around it.
pub struct Driven<W> {
    pub workload: W,
    pub metrics: RunMetrics,
    /// First block due → executor drained (last block committed).
    pub wall: Duration,
    /// Per-block generator lateness against the due time, µs.
    pub late_us: Vec<f64>,
}

/// Run `workload` over `input` on the work-stealing executor, block `i`
/// due `i × period` after the start. A zero period makes every block due
/// at the start, fed as fast as the feeder takes it.
pub fn drive<W>(
    workload: W,
    policy: DispatchPolicy,
    input: &Input,
    period: Duration,
) -> Result<Driven<W>, String>
where
    W: Workload + Send + 'static,
{
    let n = input.blocks.len();
    let late_ns: Arc<[AtomicU64]> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let tcfg = ThreadedConfig::new(WORKERS, policy);
    let t0 = Instant::now();
    let feed = Feed {
        blocks: input.blocks.clone(),
        next: 0,
        t0,
        period,
        late_ns: Arc::clone(&late_ns),
    };
    let (workload, metrics) = try_run(workload, &tcfg, feed).map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    // The feeder thread was joined inside `try_run`, so its stores are
    // visible here.
    let late_us = late_ns
        .iter()
        .map(|l| l.load(Ordering::Relaxed) as f64 / 1e3)
        .collect();
    Ok(Driven {
        workload,
        metrics,
        wall,
        late_us,
    })
}

/// What one checked pipeline stream contributes to the end-to-end metrics.
pub struct Stream {
    pub throughput_mb_s: f64,
    /// Per-block latency from the block's due time, µs.
    pub latencies_us: Vec<f64>,
}

/// Decode the committed stream and compare it with the input, then derive
/// the user-visible numbers. Any mismatch is an error: the caller counts
/// it as a failed stream and keeps it out of every timing.
pub fn check(
    result: &mut PipelineResult,
    input: &Input,
    wall: Duration,
    late_us: &[f64],
) -> Result<Stream, String> {
    let (bytes, bit_len, lengths) = result
        .output
        .take()
        .ok_or("the run kept no output stream")?;
    input.verify(bytes, bit_len, &CodeTable::from_lengths(&lengths))?;
    if result.blocks.len() != late_us.len() {
        return Err(format!(
            "{} blocks committed, {} fed",
            result.blocks.len(),
            late_us.len()
        ));
    }
    // The executor stamps arrival when its feeder takes the block; adding
    // the generator's lateness measures from when the block was due.
    let latencies_us = result
        .blocks
        .iter()
        .zip(late_us)
        .map(|(b, late)| b.latency() as f64 + late)
        .collect();
    Ok(Stream {
        throughput_mb_s: mb_per_s(input.data.len(), wall),
        latencies_us,
    })
}

/// The serial two-pass encoder on the same input, checked by decoding.
/// Returns its throughput.
pub fn serial(input: &Input) -> Result<f64, String> {
    let t = Instant::now();
    let enc = serial_encode(&input.data).map_err(|e| format!("serial encode: {e}"))?;
    let wall = t.elapsed();
    input.verify(enc.bytes, enc.bit_len, &enc.table)?;
    Ok(mb_per_s(input.data.len(), wall))
}

/// Decode `bit_len` bits of `bytes` with `table` and compare them with
/// `data`. The stream is cut into one piece per worker at the bit offsets
/// `table` gives the input, and the pieces are decoded in parallel, outside
/// every timed section. A stream that decodes piecewise to the input is the
/// concatenation of the pieces' exact encodings.
fn decodes_to(bytes: &[u8], bit_len: u64, table: &CodeTable, data: &[u8]) -> Result<(), String> {
    let pieces: Vec<&[u8]> = data.chunks(data.len().div_ceil(WORKERS)).collect();
    let mut offsets = vec![0u64];
    for p in &pieces {
        let bits: u64 = p.iter().map(|&b| u64::from(table.len(b))).sum();
        offsets.push(offsets.last().expect("starts with 0") + bits);
    }
    if offsets.last() != Some(&bit_len) {
        return Err(format!(
            "stream holds {bit_len} bits, the input encodes to {:?}",
            offsets.last()
        ));
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = pieces
            .iter()
            .zip(offsets.windows(2))
            .map(|(piece, w)| {
                s.spawn(
                    move || match decode_exact(bytes, w[0], w[1] - w[0], piece.len(), table) {
                        Ok(d) if d == *piece => Ok(()),
                        Ok(_) => Err(format!("bits {}..{} decode to other bytes", w[0], w[1])),
                        Err(e) => Err(format!("bits {}..{} do not decode: {e}", w[0], w[1])),
                    },
                )
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("decode thread panicked"))
    })
}

fn mb_per_s(bytes: usize, wall: Duration) -> f64 {
    bytes as f64 / 1e6 / wall.as_secs_f64()
}
