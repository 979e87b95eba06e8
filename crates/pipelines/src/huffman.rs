//! The parallel, speculative Huffman encoder — the paper's benchmark
//! application (Fig. 2), expressed as a [`Workload`] over the SRE.
//!
//! Task graph (non-speculative path):
//!
//! ```text
//! block_i ──► count_i ─┐
//!                      ├─► reduce_g ─► reduce_{g+1} ─► … ─► tree
//! block_j ──► count_j ─┘                                      │
//!        ┌────────────────────────────────────────────────────┘
//!        ▼
//!   offset_0 ─► offset_1 ─► …        (serial chain, fan-out F)
//!      │            │
//!      ▼            ▼
//!  encode×F     encode×F              (data-parallel)
//! ```
//!
//! Speculation (per §IV-B): prefix histograms from the reduce chain feed
//! predictor tasks that build speculative trees; speculative offset/encode
//! chains run under version tags; encoded blocks wait in a
//! [`WaitBuffer`]; check tasks compare compressed sizes within the
//! tolerance; failures roll the version back and promote the check's
//! freshly-built tree; the final tree's check decides commit or natural
//! recompute.

use crate::config::{HuffmanConfig, PredictorKind};
use std::sync::Arc;
use tvs_core::ladder::DegradationLevel;
use tvs_core::{
    Action, AllocStats, CheckResult, CheckpointConfig, ManagerStats, ResumeError, ScratchPool,
    SpecVersion, SpeculationManager, StreamSnapshot, WaitBuffer,
};
use tvs_huffman::encode::append_block;
use tvs_huffman::{
    relative_cost_delta, BitWriter, CodeLengths, CodeTable, EncodedBlock, Histogram,
};
use tvs_metrics::{Gauge, MetricsHub};
use tvs_sre::task::{expect_payload, payload};
use tvs_sre::{
    Completion, FaultInjector, FaultKind, FaultNotice, FaultSite, InputBlock, SchedCtx, SdcNotice,
    TaskSpec, Time, Workload,
};

/// The speculated value: a Huffman code (lengths + canonical table) built
/// from a histogram snapshot at a given basis point.
#[derive(Debug, Clone)]
pub struct SpecTree {
    /// Optimal (or covering, for prefixes) code lengths.
    pub lengths: CodeLengths,
    /// Canonical code table derived from `lengths`.
    pub table: CodeTable,
    /// The basis event count the tree was built from (0 = first block).
    pub basis: u64,
}

impl SpecTree {
    /// Build a *covering* tree from a (possibly partial) histogram.
    pub fn covering(hist: &Histogram, basis: u64) -> Self {
        let lengths = CodeLengths::build_covering(hist).expect("non-empty histogram");
        let table = CodeTable::from_lengths(&lengths);
        SpecTree {
            lengths,
            table,
            basis,
        }
    }

    /// Build a tree from a Laplace-smoothed histogram (ablation variant).
    pub fn laplace(hist: &Histogram, basis: u64) -> Self {
        let lengths =
            CodeLengths::build(&hist.with_smoothing(1)).expect("smoothed histogram non-empty");
        let table = CodeTable::from_lengths(&lengths);
        SpecTree {
            lengths,
            table,
            basis,
        }
    }

    /// Build a speculative tree per the configured predictor kind.
    pub fn predict(kind: PredictorKind, hist: &Histogram, basis: u64) -> Self {
        match kind {
            PredictorKind::CoveringEscape => Self::covering(hist, basis),
            PredictorKind::LaplaceSmoothing => Self::laplace(hist, basis),
        }
    }

    /// Build the exact optimal tree from the full histogram.
    pub fn exact(hist: &Histogram, basis: u64) -> Self {
        let lengths = CodeLengths::build(hist).expect("non-empty histogram");
        let table = CodeTable::from_lengths(&lengths);
        SpecTree {
            lengths,
            table,
            basis,
        }
    }
}

/// Per-block outcome.
#[derive(Debug, Clone, Copy)]
pub struct BlockDone {
    /// Arrival time of the block, µs.
    pub arrival: Time,
    /// Completion time of the encode whose output was committed, µs.
    pub encoded_at: Time,
    /// Encoded size in bits.
    pub bits: u64,
}

impl BlockDone {
    /// The paper's per-element latency metric.
    pub fn latency(&self) -> Time {
        self.encoded_at.saturating_sub(self.arrival)
    }
}

/// Result of a finished pipeline run, extracted from the workload.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Per-block outcomes, in block order.
    pub blocks: Vec<BlockDone>,
    /// Total compressed size in bits.
    pub compressed_bits: u64,
    /// Input size in bytes.
    pub src_bytes: usize,
    /// The committed speculation version, if the run committed one.
    pub committed_version: Option<SpecVersion>,
    /// Speculation statistics (`None` for non-speculative runs).
    pub spec_stats: Option<ManagerStats>,
    /// The assembled output stream, when `collect_output` was set:
    /// `(bytes, bit_len, lengths)` — decodable with the committed table.
    pub output: Option<(Vec<u8>, u64, CodeLengths)>,
    /// Heap-allocation counters of the encode-buffer scratch pool:
    /// `heap_allocs` buffers touched the heap, `reuses` were recycled.
    pub alloc_stats: AllocStats,
}

impl PipelineResult {
    /// Mean per-element latency, µs.
    pub fn mean_latency(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.latency() as f64).sum::<f64>() / self.blocks.len() as f64
    }

    /// Compression ratio (input bits / output bits).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bits == 0 {
            f64::INFINITY
        } else {
            self.src_bytes as f64 * 8.0 / self.compressed_bits as f64
        }
    }
}

struct EncodeOut {
    encoded: EncodedBlock,
    finished: Time,
}

/// An active encode path (speculative version or the natural path).
struct Path {
    /// `None` = natural path.
    version: Option<SpecVersion>,
    tree: Arc<SpecTree>,
    next_block: usize,
    offset_inflight: bool,
}

/// Live checkpointing state: the assembled committed-prefix bitstream
/// (its trailing partial byte is the encoder bit-IO carry), the merged
/// histogram of the prefix blocks, and the write bookkeeping.
struct Ckpt {
    cfg: CheckpointConfig,
    writer: BitWriter,
    hist: Histogram,
    /// Blocks `0..prefix` are finalized *and* appended to `writer`.
    prefix: usize,
    /// Prefix length at the last snapshot write.
    last_written: usize,
    /// The most recently built snapshot (kept in memory so a halted run
    /// can hand it to the caller even if the disk write failed; shared
    /// with the writer thread without copying the stream prefix).
    last_snapshot: Option<Arc<StreamSnapshot>>,
    /// Wall-clock moment of the last cadence write: burst commits (the
    /// end-loaded drain) cross many cadence thresholds within
    /// microseconds, and writing each would churn the disk for files the
    /// next rename immediately replaces. Cadence writes are debounced to
    /// [`CKPT_WRITE_GAP`]; halt and ladder-pause writes never are.
    last_write: Option<std::time::Instant>,
    /// Asynchronous disk plane: snapshots are handed to a dedicated
    /// writer thread so serialization and the atomic tmp+rename never
    /// block the commit path (the ≤3 % overhead budget). The thread
    /// coalesces to the newest pending snapshot — the rename makes the
    /// latest one win regardless.
    tx: Option<std::sync::mpsc::Sender<Arc<StreamSnapshot>>>,
    disk: Option<std::thread::JoinHandle<()>>,
    /// Set on clean completion: drop without joining the writer thread
    /// (its remaining writes serve no resume and may finish lazily).
    detach: bool,
}

/// Minimum wall-clock gap between cadence-driven snapshot writes.
const CKPT_WRITE_GAP: std::time::Duration = std::time::Duration::from_millis(20);

impl Ckpt {
    fn enqueue_write(&mut self, snap: Arc<StreamSnapshot>) {
        if self.tx.is_none() {
            let (tx, rx) = std::sync::mpsc::channel::<Arc<StreamSnapshot>>();
            let dir = self.cfg.dir.clone();
            self.tx = Some(tx);
            self.disk = Some(std::thread::spawn(move || {
                while let Ok(mut snap) = rx.recv() {
                    // Coalesce a backlog: only the newest snapshot
                    // survives the atomic rename anyway.
                    while let Ok(newer) = rx.try_recv() {
                        snap = newer;
                    }
                    let _ = snap.write_atomic(&dir);
                }
            }));
        }
        if let Some(tx) = &self.tx {
            let _ = tx.send(snap);
        }
    }
}

impl Drop for Ckpt {
    fn drop(&mut self) {
        // Close the channel, then wait for the last write: once the
        // workload is dropped (the runner returns), the on-disk snapshot
        // is guaranteed current. Cleanly completed runs skip the join —
        // nothing will ever resume from their snapshots.
        self.tx = None;
        if let Some(h) = self.disk.take() {
            if !self.detach {
                let _ = h.join();
            }
        }
    }
}

/// The Huffman encoder workload. Drive it with either executor.
pub struct HuffmanWorkload {
    cfg: HuffmanConfig,
    n_blocks: usize,
    n_groups: usize,
    src_bytes: usize,

    data: Vec<Option<Arc<[u8]>>>,
    arrival: Vec<Time>,
    counts: Vec<Option<Arc<Histogram>>>,
    counted_prefix: usize,
    first_count_seen: bool,

    acc: Vec<Arc<Histogram>>,
    reduces_done: usize,
    reduce_inflight: bool,

    final_tree: Option<Arc<SpecTree>>,

    mgr: SpeculationManager<Arc<SpecTree>>,
    buffer: WaitBuffer<EncodeOut>,
    committed_version: Option<SpecVersion>,
    spec_path: Option<Path>,
    natural_path: Option<Path>,

    done: Vec<Option<BlockDone>>,
    blocks_done: usize,
    outputs: Vec<Option<EncodedBlock>>,
    committed_tree: Option<Arc<SpecTree>>,
    faults: FaultInjector,
    metrics: MetricsHub,

    // Checkpoint/restart state. `resume_tree` doubles as the resume-mode
    // flag: when set, the run bypasses count/reduce/speculation entirely
    // and encodes the re-fed blocks with the snapshot's committed tree.
    ckpt: Option<Ckpt>,
    halted: bool,
    input_digest: u64,
    resume_k: usize,
    resume_base: Option<(Vec<u8>, u64)>,
    resume_tree: Option<Arc<SpecTree>>,

    // Steady-state scratch, recycled between scheduler events so the
    // speculation control path performs no per-block heap allocation.
    actions_scratch: Vec<Action>,
    commit_scratch: Vec<(u64, EncodeOut)>,
    encode_pool: ScratchPool<u8>,
}

impl HuffmanWorkload {
    /// A workload for `data_len` input bytes under `cfg`.
    pub fn new(cfg: HuffmanConfig, data_len: usize) -> Self {
        assert!(data_len > 0, "empty input");
        let n_blocks = cfg.n_blocks(data_len);
        let n_groups = cfg.n_groups(data_len);
        // Instantiate the engine through the paper's four-point interface.
        let mut mgr = cfg.speculation_plan().manager();
        if let Some(b) = cfg.breaker {
            mgr.set_breaker(b);
        }
        if let Some(l) = cfg.ladder {
            mgr.set_ladder(l);
        }
        let ckpt = cfg.checkpoint.clone().map(|c| Ckpt {
            cfg: c,
            writer: BitWriter::new(),
            hist: Histogram::new(),
            prefix: 0,
            last_written: 0,
            last_snapshot: None,
            last_write: None,
            tx: None,
            disk: None,
            detach: false,
        });
        HuffmanWorkload {
            n_blocks,
            n_groups,
            src_bytes: data_len,
            data: vec![None; n_blocks],
            arrival: vec![0; n_blocks],
            counts: vec![None; n_blocks],
            counted_prefix: 0,
            first_count_seen: false,
            acc: Vec::with_capacity(n_groups),
            reduces_done: 0,
            reduce_inflight: false,
            final_tree: None,
            mgr,
            buffer: WaitBuffer::new(),
            committed_version: None,
            spec_path: None,
            natural_path: None,
            done: vec![None; n_blocks],
            blocks_done: 0,
            outputs: vec![None; n_blocks],
            committed_tree: None,
            faults: FaultInjector::disabled(),
            metrics: MetricsHub::disabled(),
            ckpt,
            halted: false,
            input_digest: 0,
            resume_k: 0,
            resume_base: None,
            resume_tree: None,
            actions_scratch: Vec::new(),
            commit_scratch: Vec::new(),
            encode_pool: ScratchPool::new(),
            cfg,
        }
    }

    /// Reconstruct a workload from a committed-prefix snapshot: blocks
    /// `0..snapshot.prefix` are prefilled as finalized, the committed tree
    /// is rebuilt from the snapshot's code lengths, and only blocks
    /// `snapshot.prefix..` need to be re-fed (the runner filters them).
    /// The resumed run never re-speculates — every remaining block is
    /// encoded with the snapshot's tree, which is what makes the resumed
    /// output byte-identical to an uninterrupted run.
    ///
    /// Callers must have verified the snapshot against their input and
    /// configuration with [`StreamSnapshot::check_matches`] first; this
    /// constructor re-checks only the structural binding it can see.
    pub fn resume(
        cfg: HuffmanConfig,
        data_len: usize,
        snap: &StreamSnapshot,
    ) -> Result<Self, ResumeError> {
        let mut wl = Self::new(cfg, data_len);
        if snap.n_blocks as usize != wl.n_blocks || snap.block_bytes as usize != wl.cfg.block_bytes
        {
            return Err(ResumeError::InputMismatch);
        }
        let k = snap.prefix as usize;
        if k > 0 {
            let arr: [u8; 256] = snap
                .code_lengths
                .as_slice()
                .try_into()
                .map_err(|_| ResumeError::BadField("code_lengths"))?;
            let lengths = CodeLengths::from_lengths(arr)
                .map_err(|_| ResumeError::BadField("code_lengths"))?;
            let table = CodeTable::from_lengths(&lengths);
            let tree = Arc::new(SpecTree {
                lengths,
                table,
                basis: snap.prefix,
            });
            wl.committed_tree = Some(tree.clone());
            wl.resume_tree = Some(tree);
        }
        wl.committed_version = match snap.committed_version {
            0 => None,
            v => Some(v as SpecVersion),
        };
        for i in 0..k {
            wl.done[i] = Some(BlockDone {
                arrival: snap.arrivals[i],
                encoded_at: snap.encoded_at[i],
                bits: snap.bits[i],
            });
            // Stub: the bytes already live in the snapshot's prefix stream.
            wl.outputs[i] = Some(EncodedBlock {
                bytes: Vec::new(),
                bit_len: snap.bits[i],
                src_len: 0,
            });
        }
        wl.blocks_done = k;
        wl.resume_k = k;
        wl.resume_base = Some((snap.stream_bytes.clone(), snap.stream_bit_len));
        // Seed the checkpoint plane from the snapshot so a resumed run can
        // itself be killed and resumed: the writer re-ingests the prefix
        // stream (restoring the bit-IO carry) and the histogram restarts
        // from the snapshot's merged base.
        if let Some(ck) = &mut wl.ckpt {
            seed_writer(&mut ck.writer, &snap.stream_bytes, snap.stream_bit_len);
            if snap.hist_base.len() == 256 {
                ck.hist
                    .counts_mut()
                    .copy_from_slice(snap.hist_base.as_slice());
            }
            ck.prefix = k;
            ck.last_written = k;
        }
        Ok(wl)
    }

    /// Bind the snapshot plane to the input stream: pass
    /// `tvs_core::checkpoint::fnv1a(data)` so snapshots record which bytes
    /// they belong to. The checkpointed runner entry points do this.
    pub fn set_input_digest(&mut self, digest: u64) {
        self.input_digest = digest;
    }

    /// True once the run stopped at [`CheckpointConfig::halt_at_block`].
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The most recent snapshot built (halt, cadence or end-of-run write).
    pub fn snapshot(&self) -> Option<StreamSnapshot> {
        self.ckpt
            .as_ref()
            .and_then(|c| c.last_snapshot.as_deref().cloned())
    }

    /// Route the speculation manager's lifecycle events (predictor fires,
    /// version opens, check verdicts, commits) into `tracer`. Put the same
    /// tracer in the executor's config so scheduler- and worker-side
    /// events land in the same log.
    pub fn set_tracer(&mut self, tracer: tvs_sre::Tracer) {
        self.mgr.set_tracer(tracer);
    }

    /// Route speculation-outcome counters (predictions, check verdicts,
    /// commits, breaker state) and the encode-pool allocation gauges into
    /// `hub`. Put the same hub in the executor's config so worker- and
    /// scheduler-side counters land in the same registry.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        self.mgr.set_metrics(hub.clone());
        self.metrics = hub;
    }

    /// Arm the workload-level fault sites. Currently that is
    /// [`FaultSite::PredictedValue`]: a drawn `CorruptValue` scrambles the
    /// predicted tree between the predictor's output and its install, so
    /// the tolerance checks must catch the damage. Pass the same injector
    /// as the executor's so draws share one budget and log.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Extract the result after the run finished.
    pub fn result(&self) -> PipelineResult {
        assert!(
            self.blocks_done == self.n_blocks,
            "result() before the run finished"
        );
        let blocks: Vec<BlockDone> = self.done.iter().map(|d| d.expect("all done")).collect();
        let compressed_bits = blocks.iter().map(|b| b.bits).sum();
        let output = if self.cfg.collect_output {
            // Resumed runs prepend the snapshot's prefix stream (restoring
            // the bit-IO carry), then append only the re-encoded blocks;
            // uninterrupted runs concatenate everything from block 0.
            let mut w = BitWriter::new();
            if let Some((bytes, bit_len)) = &self.resume_base {
                seed_writer(&mut w, bytes, *bit_len);
            }
            for o in &self.outputs[self.resume_k..] {
                append_block(&mut w, o.as_ref().expect("collected"));
            }
            let (bytes, bits) = w.finish();
            let lengths = self
                .committed_tree
                .as_ref()
                .expect("collect_output retains the committed tree")
                .lengths
                .clone();
            Some((bytes, bits, lengths))
        } else {
            None
        };
        PipelineResult {
            blocks,
            compressed_bits,
            src_bytes: self.src_bytes,
            committed_version: self.committed_version,
            spec_stats: if self.cfg.speculates() {
                Some(self.mgr.stats())
            } else {
                None
            },
            output,
            alloc_stats: self.encode_pool.stats(),
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Advance the checkpoint plane after a block finalizes: append newly
    /// contiguous blocks to the prefix stream, then write a snapshot when
    /// the cadence is due, the halt block is reached, the run finished, or
    /// the degradation ladder demands eager durability (checkpoint-and-
    /// pause). Disk failures are absorbed — the in-memory snapshot still
    /// serves halt and resume, and losing a cadence write only widens the
    /// at-risk window.
    fn advance_checkpoint(&mut self) {
        if self.halted {
            // The "kill" already happened: freeze the durable state at the
            // halt prefix so a resume replays from there, even though the
            // in-flight commit drain may finalize a few more blocks.
            return;
        }
        let Some(mut ck) = self.ckpt.take() else {
            return;
        };
        while ck.prefix < self.n_blocks && self.done[ck.prefix].is_some() {
            let i = ck.prefix;
            let out = self.outputs[i].as_ref().expect("finalized block retained");
            append_block(&mut ck.writer, out);
            if let Some(h) = &self.counts[i] {
                ck.hist.merge(h);
            } else if let Some(d) = &self.data[i] {
                // Resume mode skips count tasks; fold the block directly.
                ck.hist.accumulate(d);
            }
            if !self.cfg.collect_output {
                // The prefix stream now carries these bits; recycle.
                let out = self.outputs[i].take().expect("just read");
                self.outputs[i] = Some(EncodedBlock {
                    bytes: Vec::new(),
                    bit_len: out.bit_len,
                    src_len: out.src_len,
                });
                self.encode_pool.put(out.bytes);
            }
            ck.prefix += 1;
        }
        let halt = !self.halted
            && ck
                .cfg
                .halt_at_block
                .is_some_and(|h| h > 0 && ck.prefix >= h);
        let due = ck.cfg.every_blocks > 0 && ck.prefix >= ck.last_written + ck.cfg.every_blocks;
        // A run that reaches the final block needs no snapshot — there is
        // nothing left to resume — so cadence writes stop one short of
        // completion rather than paying the largest serialization for a
        // file nobody can use.
        let finished = ck.prefix == self.n_blocks;
        let eager = self.mgr.ladder_level() == Some(DegradationLevel::CheckpointPause);
        let debounced = ck.last_write.is_some_and(|t| t.elapsed() < CKPT_WRITE_GAP);
        if ck.prefix > ck.last_written && (halt || eager || (due && !finished && !debounced)) {
            let snap = Arc::new(self.build_snapshot(&ck));
            ck.enqueue_write(Arc::clone(&snap));
            ck.last_written = ck.prefix;
            ck.last_snapshot = Some(snap);
            ck.last_write = Some(std::time::Instant::now());
        }
        if halt {
            self.halted = true;
        }
        if finished && !self.halted {
            // Clean completion: pending writes are unreadable history (a
            // finished stream is never resumed), so the writer thread may
            // finish in the background instead of stalling the run's tail.
            ck.detach = true;
        }
        self.ckpt = Some(ck);
    }

    /// Assemble the committed-prefix snapshot from the live state.
    fn build_snapshot(&self, ck: &Ckpt) -> StreamSnapshot {
        let (stream_bytes, stream_bit_len) = ck.writer.clone().finish();
        let k = ck.prefix;
        let per = |f: fn(&BlockDone) -> u64| -> Vec<u64> {
            self.done[..k]
                .iter()
                .map(|d| f(d.as_ref().expect("prefix finalized")))
                .collect()
        };
        StreamSnapshot {
            config_digest: self.cfg.digest(),
            input_digest: self.input_digest,
            n_blocks: self.n_blocks as u64,
            block_bytes: self.cfg.block_bytes as u64,
            prefix: k as u64,
            cadence: ck.cfg.every_blocks as u64,
            arrivals: per(|d| d.arrival),
            encoded_at: per(|d| d.encoded_at),
            bits: per(|d| d.bits),
            hist_base: if k > 0 {
                ck.hist.counts().to_vec()
            } else {
                Vec::new()
            },
            code_lengths: match (&self.committed_tree, k) {
                (Some(t), k) if k > 0 => t.lengths.lengths().to_vec(),
                _ => Vec::new(),
            },
            committed_version: u64::from(self.committed_version.unwrap_or(0)),
            stream_bytes,
            stream_bit_len,
        }
    }

    // ------------------------------------------------------------------
    // Spawning helpers
    // ------------------------------------------------------------------

    fn spawn_count(&mut self, ctx: &mut dyn SchedCtx, idx: usize) {
        let data = self.data[idx].as_ref().expect("block arrived").clone();
        ctx.spawn(TaskSpec::regular(
            "count",
            0,
            data.len(),
            idx as u64,
            move |_| payload(Arc::new(Histogram::from_bytes(&data))),
        ));
    }

    fn maybe_spawn_reduce(&mut self, ctx: &mut dyn SchedCtx) {
        if self.reduce_inflight || self.reduces_done >= self.n_groups {
            return;
        }
        let g = self.reduces_done;
        let lo = g * self.cfg.reduce_ratio;
        let hi = ((g + 1) * self.cfg.reduce_ratio).min(self.n_blocks);
        if self.counted_prefix < hi {
            return;
        }
        let group: Vec<Arc<Histogram>> = (lo..hi)
            .map(|i| self.counts[i].as_ref().expect("counted").clone())
            .collect();
        let prev = if g == 0 {
            None
        } else {
            Some(self.acc[g - 1].clone())
        };
        // Per-block histograms travel as u32 counts (1 KB); the running
        // accumulator needs u64 (2 KB). At the Cell's 16:1 ratio this is
        // 18 KB — inside the 32 KB local-store task limit, as the paper's
        // configuration requires.
        let bytes = group.len() * 1024 + if prev.is_some() { 2048 } else { 0 };
        self.reduce_inflight = true;
        ctx.spawn(TaskSpec::regular("reduce", 1, bytes, g as u64, move |_| {
            // Fused fold: base + Σ parts in a single output pass, instead of
            // cloning the accumulator and re-sweeping it once per part.
            let zero = Histogram::new();
            let base = prev.as_deref().unwrap_or(&zero);
            let h = Histogram::merged_with_base(base, group.iter().map(Arc::as_ref));
            payload(Arc::new(h))
        }));
    }

    fn spawn_tree(&mut self, ctx: &mut dyn SchedCtx) {
        let hist = self.acc[self.n_groups - 1].clone();
        let basis = self.n_groups as u64;
        ctx.spawn(TaskSpec::regular("tree", 2, 2048, basis, move |_| {
            payload(Arc::new(SpecTree::exact(&hist, basis)))
        }));
    }

    fn spawn_predictor(&mut self, ctx: &mut dyn SchedCtx, version: SpecVersion) {
        // Snapshot: the newest cumulative histogram, or the first block's
        // count for a step-0 (pre-reduce) prediction.
        let (hist, basis) = if self.reduces_done == 0 {
            (self.counts[0].as_ref().expect("first count").clone(), 0)
        } else {
            (
                self.acc[self.reduces_done - 1].clone(),
                self.reduces_done as u64,
            )
        };
        let kind = self.cfg.predictor;
        ctx.spawn(TaskSpec::predictor(
            "predict",
            2048,
            version,
            version as u64,
            move |_| payload(Arc::new(SpecTree::predict(kind, &hist, basis))),
        ));
    }

    fn spawn_check(&mut self, ctx: &mut dyn SchedCtx, version: SpecVersion) {
        let (_, tree) = self
            .mgr
            .active()
            .expect("check only against an active speculation");
        let spec_tree = tree.clone();
        let basis = self.reduces_done as u64;
        let hist = self.acc[self.reduces_done - 1].clone();
        let tolerance = self.cfg.tolerance;
        let kind = self.cfg.predictor;
        ctx.spawn(TaskSpec::check("check", 4096, basis, move |_| {
            let candidate = Arc::new(SpecTree::predict(kind, &hist, basis));
            let delta = relative_cost_delta(&spec_tree.lengths, &candidate.lengths, &hist);
            payload((version, tolerance.judge(delta), candidate))
        }));
    }

    fn spawn_final_check(&mut self, ctx: &mut dyn SchedCtx, version: SpecVersion) {
        let (_, tree) = self
            .mgr
            .pending_final()
            .expect("final check needs a pending value");
        let spec_tree = tree.clone();
        let final_tree = self.final_tree.as_ref().expect("final tree built").clone();
        let hist = self.acc[self.n_groups - 1].clone();
        let tolerance = self.cfg.tolerance;
        ctx.spawn(TaskSpec::check(
            "final-check",
            4096,
            version as u64,
            move |_| {
                let delta = relative_cost_delta(&spec_tree.lengths, &final_tree.lengths, &hist);
                payload((version, tolerance.judge(delta)))
            },
        ));
    }

    /// Advance a path's serial offset chain: spawn the next offset task if
    /// its group of counted blocks is available. Offsets chain serially;
    /// the next one is spawned when this one completes.
    fn pump_path(&mut self, ctx: &mut dyn SchedCtx, which: PathSel) {
        let counted_prefix = self.counted_prefix;
        let (fanout, n_blocks) = (self.cfg.offset_fanout, self.n_blocks);
        let (version, table, lo) = {
            let Some(path) = self.path_mut(which) else {
                return;
            };
            if path.offset_inflight || path.next_block >= n_blocks {
                return;
            }
            (path.version, path.tree.clone(), path.next_block)
        };
        let hi = (lo + fanout).min(n_blocks).min(counted_prefix);
        if hi <= lo {
            return;
        }
        let group: Vec<Arc<Histogram>> = (lo..hi)
            .map(|i| self.counts[i].as_ref().expect("counted").clone())
            .collect();
        let bytes = group.len() * 1024;
        let body = move |_: &tvs_sre::TaskCtx| {
            let lens: Vec<u64> = group
                .iter()
                .map(|h| {
                    table
                        .table
                        .encoded_bits(h)
                        .expect("covering/exact table encodes all")
                })
                .collect();
            payload((lo, lens))
        };
        let task = match version {
            Some(v) => TaskSpec::speculative("offset", 3, bytes, v, lo as u64, body),
            None => TaskSpec::regular("offset", 3, bytes, lo as u64, body),
        };
        if ctx.spawn(task).is_some() {
            self.path_mut(which)
                .expect("path still live")
                .offset_inflight = true;
        }
    }

    fn path_mut(&mut self, which: PathSel) -> Option<&mut Path> {
        match which {
            PathSel::Spec => self.spec_path.as_mut(),
            PathSel::Natural => self.natural_path.as_mut(),
        }
    }

    /// Spawn the encode tasks of an offset group `[lo, lo+n)`.
    fn spawn_encodes(
        &mut self,
        ctx: &mut dyn SchedCtx,
        version: Option<SpecVersion>,
        tree: Arc<SpecTree>,
        lo: usize,
        n: usize,
    ) {
        for idx in lo..lo + n {
            let data = self.data[idx].as_ref().expect("arrived").clone();
            let table = tree.clone();
            // The output buffer travels into the task, comes back through
            // the completion payload, and re-enters the pool when the block
            // is finalised without retaining its bytes — so in steady state
            // (collect_output off) encode allocates nothing per block.
            // Option dance: task bodies are FnMut but run once; taking the
            // buffer out keeps the closure re-callable in the type system.
            let mut recycled = Some(self.encode_pool.take());
            let faults = self.faults.clone();
            let body = move |_: &tvs_sre::TaskCtx| {
                let mut out = EncodedBlock {
                    bytes: recycled.take().unwrap_or_default(),
                    ..Default::default()
                };
                assert!(
                    tvs_huffman::encode_block_into(&data, &table.table, &mut out),
                    "covering/exact table encodes all bytes"
                );
                // Chaos: a silent data corruption flips bits in the encoded
                // output *after* a successful encode. Nothing panics and no
                // tolerance check sees the damage (the bit count is intact),
                // so only replication-based validation can catch it. The
                // flipped byte avoids the zero-padded tail so the corruption
                // always lands on meaningful bits, and the xor mask is
                // occurrence-unique so two corrupted replicas of the same
                // block still disagree with each other.
                if let Some((FaultKind::CorruptValue, occ)) =
                    faults.draw_with_occurrence(FaultSite::TaskOutput)
                {
                    let len = out.bytes.len();
                    if len > 1 {
                        let pos = (occ as usize).wrapping_mul(0x9E37_79B9) % (len - 1);
                        out.bytes[pos] ^= ((occ % 255) + 1) as u8;
                    }
                }
                payload(out)
            };
            let task = match version {
                Some(v) => TaskSpec::speculative(
                    "encode",
                    4,
                    data_len_of(&self.data, idx),
                    v,
                    idx as u64,
                    body,
                ),
                None => {
                    TaskSpec::regular("encode", 4, data_len_of(&self.data, idx), idx as u64, body)
                }
            };
            ctx.spawn(task);
        }
    }

    fn finalize_block(&mut self, idx: usize, encoded: EncodedBlock, finished: Time) {
        if self.done[idx].is_some() {
            // Can only happen if both a committed-speculative and a natural
            // output exist for a block — a wiring bug.
            panic!("block {idx} finalised twice");
        }
        self.done[idx] = Some(BlockDone {
            arrival: self.arrival[idx],
            encoded_at: finished,
            bits: encoded.bit_len,
        });
        if self.cfg.collect_output || self.ckpt.is_some() {
            // Checkpointing retains the bytes until the block joins the
            // contiguous prefix stream (advance_checkpoint recycles them).
            self.outputs[idx] = Some(encoded);
        } else {
            self.outputs[idx] = Some(EncodedBlock {
                bytes: Vec::new(),
                bit_len: encoded.bit_len,
                src_len: encoded.src_len,
            });
            self.encode_pool.put(encoded.bytes);
        }
        self.blocks_done += 1;
        if self.metrics.is_live() {
            let a = self.encode_pool.stats();
            self.metrics.gauge_set(Gauge::AllocHeap, a.heap_allocs);
            self.metrics.gauge_set(Gauge::AllocReuse, a.reuses);
        }
        self.advance_checkpoint();
    }

    // ------------------------------------------------------------------
    // Speculation action handling
    // ------------------------------------------------------------------

    /// Run `fill` against the manager with the recycled action scratch,
    /// then execute whatever actions it produced. The scratch's capacity
    /// survives across events, so the control path stops allocating once
    /// it has seen its largest action burst.
    fn dispatch(
        &mut self,
        ctx: &mut dyn SchedCtx,
        fill: impl FnOnce(&mut SpeculationManager<Arc<SpecTree>>, &mut Vec<Action>),
    ) {
        let mut actions = std::mem::take(&mut self.actions_scratch);
        fill(&mut self.mgr, &mut actions);
        self.handle_actions(ctx, &mut actions);
        self.actions_scratch = actions;
    }

    fn handle_actions(&mut self, ctx: &mut dyn SchedCtx, actions: &mut Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::StartPrediction { version } => self.spawn_predictor(ctx, version),
                Action::SpawnCheck { version } => self.spawn_check(ctx, version),
                Action::Rollback { version } => {
                    ctx.abort_version(version);
                    self.buffer.abort(version);
                    if self
                        .spec_path
                        .as_ref()
                        .map(|p| p.version == Some(version))
                        .unwrap_or(false)
                    {
                        self.spec_path = None;
                    }
                }
                Action::PromoteCandidate { version } => {
                    let (_, tree) = self.mgr.active().expect("promoted candidate is active");
                    self.spec_path = Some(Path {
                        version: Some(version),
                        tree: tree.clone(),
                        next_block: 0,
                        offset_inflight: false,
                    });
                    self.pump_path(ctx, PathSel::Spec);
                }
                Action::SpawnFinalCheck { version } => self.spawn_final_check(ctx, version),
                Action::Commit { version } => {
                    self.committed_version = Some(version);
                    self.committed_tree = self
                        .spec_path
                        .as_ref()
                        .map(|p| p.tree.clone())
                        .or_else(|| self.mgr.pending_final().map(|(_, t)| t.clone()));
                    let mut ready = std::mem::take(&mut self.commit_scratch);
                    self.buffer.commit_into(version, &mut ready);
                    for (slot, out) in ready.drain(..) {
                        self.finalize_block(slot as usize, out.encoded, out.finished);
                    }
                    self.commit_scratch = ready;
                }
                Action::RecomputeNaturally => {
                    let tree = self
                        .final_tree
                        .as_ref()
                        .expect("final tree available")
                        .clone();
                    self.committed_tree = Some(tree.clone());
                    self.natural_path = Some(Path {
                        version: None,
                        tree,
                        next_block: 0,
                        offset_inflight: false,
                    });
                    self.pump_path(ctx, PathSel::Natural);
                }
            }
        }
    }
}

fn data_len_of(data: &[Option<Arc<[u8]>>], idx: usize) -> usize {
    data[idx].as_ref().map(|d| d.len()).unwrap_or(0)
}

/// Re-seed a fresh, byte-aligned bit writer with a snapshot's prefix
/// stream: whole bytes verbatim, then the meaningful bits of the trailing
/// partial byte — exactly the encoder carry the snapshot recorded.
fn seed_writer(w: &mut BitWriter, bytes: &[u8], bit_len: u64) {
    let full = (bit_len / 8) as usize;
    let tail = (bit_len % 8) as u8;
    w.extend_bytes(&bytes[..full]);
    if tail > 0 {
        w.push(u64::from(bytes[full] >> (8 - tail)), tail);
    }
}

/// Scramble a predicted tree for [`FaultSite::PredictedValue`] injection.
/// The multiset of code lengths is preserved — Kraft's inequality still
/// holds and every symbol that had a code keeps one, so downstream encode
/// tasks never fail outright — but the lengths are reassigned in *reverse*
/// across the coded symbols: the most frequent symbols inherit the longest
/// codes. Validation, not encodability, has to reject the value.
fn corrupt_tree(tree: &SpecTree) -> SpecTree {
    let mut len = *tree.lengths.lengths();
    let coded: Vec<usize> = (0..len.len()).filter(|&i| len[i] > 0).collect();
    for k in 0..coded.len() / 2 {
        len.swap(coded[k], coded[coded.len() - 1 - k]);
    }
    let lengths = CodeLengths::from_lengths(len).expect("permuted lengths preserve Kraft");
    let table = CodeTable::from_lengths(&lengths);
    SpecTree {
        lengths,
        table,
        basis: tree.basis,
    }
}

/// Digest one Huffman task output for replication-based validation
/// (FNV-1a over the payload's semantic content).
///
/// Covers every task the pipeline spawns, keyed by task name. An unknown
/// name or an unexpected payload type returns `None`, which the
/// replication plane treats as undigestible: the primary result is
/// delivered untouched and the flight is counted as degraded rather than
/// risking a bogus vote.
pub fn digest_output(name: &'static str, out: &dyn std::any::Any) -> Option<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn bytes(mut h: u64, bs: &[u8]) -> u64 {
        for &b in bs {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }
    fn word(h: u64, w: u64) -> u64 {
        bytes(h, &w.to_le_bytes())
    }
    fn check(h: u64, r: &CheckResult) -> u64 {
        word(word(h, r.valid as u64), r.delta.to_bits())
    }
    let h = FNV_OFFSET;
    match name {
        "count" | "reduce" => {
            let hist = out.downcast_ref::<Arc<Histogram>>()?;
            Some(hist.counts().iter().fold(h, |h, &c| word(h, c)))
        }
        "tree" | "predict" => {
            let tree = out.downcast_ref::<Arc<SpecTree>>()?;
            Some(word(bytes(h, tree.lengths.lengths()), tree.basis))
        }
        "offset" => {
            let (lo, lens) = out.downcast_ref::<(usize, Vec<u64>)>()?;
            Some(lens.iter().fold(word(h, *lo as u64), |h, &l| word(h, l)))
        }
        "encode" => {
            let e = out.downcast_ref::<EncodedBlock>()?;
            Some(word(word(bytes(h, &e.bytes), e.bit_len), e.src_len as u64))
        }
        "check" => {
            let (v, r, cand) = out.downcast_ref::<(SpecVersion, CheckResult, Arc<SpecTree>)>()?;
            let h = check(word(h, *v as u64), r);
            Some(word(bytes(h, cand.lengths.lengths()), cand.basis))
        }
        "final-check" => {
            let (v, r) = out.downcast_ref::<(SpecVersion, CheckResult)>()?;
            Some(check(word(h, *v as u64), r))
        }
        _ => None,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PathSel {
    Spec,
    Natural,
}

impl Workload for HuffmanWorkload {
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let idx = block.index;
        assert!(idx < self.n_blocks, "unexpected block index {idx}");
        // A halted run spawns nothing further; a resumed run ignores
        // blocks the snapshot already committed.
        if self.halted || idx < self.resume_k {
            return;
        }
        self.arrival[idx] = block.arrival;
        self.data[idx] = Some(block.data);
        if let Some(tree) = self.resume_tree.clone() {
            // Resume mode: the tree is settled — skip count/reduce and
            // encode the block directly with the snapshot's code table.
            self.spawn_encodes(ctx, None, tree, idx, 1);
        } else {
            self.spawn_count(ctx, idx);
        }
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        if self.halted {
            // Drain in-flight completions without spawning successors so
            // the executor winds down at the halt point.
            return;
        }
        match done.name {
            "count" => {
                let idx = done.tag as usize;
                self.counts[idx] = Some(expect_payload::<Arc<Histogram>>(
                    done.output,
                    "Arc<Histogram>",
                ));
                while self.counted_prefix < self.n_blocks
                    && self.counts[self.counted_prefix].is_some()
                {
                    self.counted_prefix += 1;
                }
                self.maybe_spawn_reduce(ctx);
                // Step-0 speculation: predict from the very first block.
                if self.cfg.speculates() && !self.first_count_seen {
                    self.first_count_seen = true;
                    if self.cfg.schedule.step == 0 && self.counts[0].is_some() {
                        self.dispatch(ctx, |mgr, out| mgr.on_basis_into(0, out));
                    }
                }
                // New counted blocks may unblock the active paths.
                self.pump_path(ctx, PathSel::Spec);
                self.pump_path(ctx, PathSel::Natural);
            }
            "reduce" => {
                let g = done.tag as usize;
                debug_assert_eq!(g, self.reduces_done);
                let h = expect_payload::<Arc<Histogram>>(done.output, "Arc<Histogram>");
                self.acc.push(h);
                self.reduces_done += 1;
                self.reduce_inflight = false;
                if self.cfg.speculates() && !self.mgr.is_done() && self.reduces_done < self.n_groups
                {
                    let basis = self.reduces_done as u64;
                    self.dispatch(ctx, move |mgr, out| mgr.on_basis_into(basis, out));
                }
                if self.reduces_done == self.n_groups {
                    self.spawn_tree(ctx);
                } else {
                    self.maybe_spawn_reduce(ctx);
                }
            }
            "tree" => {
                let tree = expect_payload::<Arc<SpecTree>>(done.output, "Arc<SpecTree>");
                self.final_tree = Some(tree);
                if self.cfg.speculates() {
                    self.dispatch(ctx, |mgr, out| mgr.on_final_into(out));
                } else {
                    self.dispatch(ctx, |_, out| out.push(Action::RecomputeNaturally));
                }
            }
            "predict" => {
                let version = done.version.expect("predictor carries its version");
                let mut tree = expect_payload::<Arc<SpecTree>>(done.output, "Arc<SpecTree>");
                // Chaos: the predicted edge value may be corrupted between
                // the predictor's output and its install. The scrambled
                // tree is still a valid prefix code over the same symbols,
                // so the run proceeds and the tolerance checks must catch
                // the cost blow-up.
                if let Some(FaultKind::CorruptValue) = self.faults.draw(FaultSite::PredictedValue) {
                    tree = Arc::new(corrupt_tree(&tree));
                }
                if self.mgr.install_prediction(version, tree) {
                    let (_, tree) = self.mgr.active().expect("just installed");
                    self.spec_path = Some(Path {
                        version: Some(version),
                        tree: tree.clone(),
                        next_block: 0,
                        offset_inflight: false,
                    });
                    self.pump_path(ctx, PathSel::Spec);
                }
            }
            "check" => {
                let (version, result, candidate) =
                    expect_payload::<(SpecVersion, CheckResult, Arc<SpecTree>)>(
                        done.output,
                        "(version, CheckResult, Arc<SpecTree>)",
                    );
                let basis = candidate.basis;
                self.dispatch(ctx, move |mgr, out| {
                    mgr.on_check_result_into(version, result, Some((candidate, basis)), out)
                });
            }
            "final-check" => {
                let (version, result) = expect_payload::<(SpecVersion, CheckResult)>(
                    done.output,
                    "(version, CheckResult)",
                );
                self.dispatch(ctx, move |mgr, out| {
                    mgr.on_final_check_result_into(version, result, out)
                });
            }
            "offset" => {
                let (lo, lens) =
                    expect_payload::<(usize, Vec<u64>)>(done.output, "(usize, Vec<u64>)");
                let which = if done.version.is_some() {
                    PathSel::Spec
                } else {
                    PathSel::Natural
                };
                // Stale offsets of rolled-back paths are already filtered by
                // version-abort; an offset for a *replaced* path is impossible
                // because replacement only happens after abort.
                let n = lens.len();
                let (tree, version) = {
                    let path = self.path_mut(which).expect("offset for a live path");
                    debug_assert_eq!(path.next_block, lo);
                    path.offset_inflight = false;
                    path.next_block = lo + n;
                    (path.tree.clone(), path.version)
                };
                self.spawn_encodes(ctx, version, tree, lo, n);
                self.pump_path(ctx, which);
            }
            "encode" => {
                let idx = done.tag as usize;
                let encoded = expect_payload::<EncodedBlock>(done.output, "EncodedBlock");
                match done.version {
                    Some(v) => {
                        if self.committed_version == Some(v) {
                            self.finalize_block(idx, encoded, done.finished);
                        } else {
                            self.buffer.push(
                                v,
                                idx as u64,
                                EncodeOut {
                                    encoded,
                                    finished: done.finished,
                                },
                            );
                        }
                    }
                    None => self.finalize_block(idx, encoded, done.finished),
                }
            }
            other => unreachable!("unknown completion '{other}'"),
        }
    }

    fn on_sdc(&mut self, ctx: &mut dyn SchedCtx, sdc: SdcNotice) {
        if sdc.unresolved {
            // The vote budget ran out without a majority. For a versioned
            // task the speculation is untrustworthy wholesale: abort it
            // through the manager so the regular rollback actions clear the
            // path and wait buffer (the natural path re-covers the blocks).
            if let Some(v) = sdc.version {
                self.dispatch(ctx, move |mgr, out| mgr.on_external_abort_into(v, out));
            }
        } else {
            // First divergence on this task: a silent corruption was
            // *detected*. Feed the breaker's failure window — sustained SDC
            // rates should degrade speculation just like sustained
            // mispredictions do.
            self.mgr.record_sdc();
        }
    }

    fn on_fault(&mut self, ctx: &mut dyn SchedCtx, fault: FaultNotice) {
        // Executor-recovered faults (caught panics, watchdog cancels) feed
        // the breaker's failure window; a faulted *speculative* task also
        // kills its version, so bring the manager's phase in line and let
        // the regular rollback actions clear the path and wait buffer.
        self.mgr.record_fault();
        if let Some(v) = fault.version {
            self.dispatch(ctx, move |mgr, out| mgr.on_external_abort_into(v, out));
        }
    }

    fn is_finished(&self) -> bool {
        self.halted || self.blocks_done == self.n_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HuffmanCost;
    use tvs_core::{SpeculationSchedule, Tolerance, ValidationMode, VerificationPolicy};
    use tvs_sre::exec::sim::{try_run, SimConfig};
    use tvs_sre::{x86_smp, DispatchPolicy};

    fn blocks_of(data: &[u8], block: usize, gap: Time) -> Vec<InputBlock> {
        data.chunks(block)
            .enumerate()
            .map(|(i, c)| InputBlock {
                index: i,
                arrival: i as Time * gap,
                data: c.into(),
            })
            .collect()
    }

    fn small_cfg(policy: DispatchPolicy) -> HuffmanConfig {
        HuffmanConfig {
            block_bytes: 1024,
            reduce_ratio: 4,
            offset_fanout: 4,
            policy,
            schedule: SpeculationSchedule::with_step(1),
            verification: VerificationPolicy::Full,
            tolerance: Tolerance::percent(1.0),
            predictor: Default::default(),
            collect_output: true,
            breaker: None,
            validation: ValidationMode::Tolerance,
            checkpoint: None,
            ladder: None,
        }
    }

    fn run_small(data: &[u8], cfg: HuffmanConfig) -> (PipelineResult, tvs_sre::RunMetrics) {
        let wl = HuffmanWorkload::new(cfg.clone(), data.len());
        let sim = SimConfig::new(x86_smp(4), cfg.policy);
        let inputs = blocks_of(data, cfg.block_bytes, 5);
        let (wl, m) = try_run(wl, &sim, &HuffmanCost, inputs).expect("run completes");
        (wl.result(), m)
    }

    /// Stationary text over a realistically *rich* alphabet: rare symbols
    /// are genuinely rare, so the covering tree's escape reservation costs
    /// far less than the 1 % tolerance (on tiny uniform alphabets that
    /// inherent overhead alone would exceed it — see
    /// `CodeLengths::build_covering`).
    fn stationary_data(n: usize) -> Vec<u8> {
        let mut pattern = b"etaoin shrdlu ".repeat(10);
        pattern.extend_from_slice(b"qzxjkvbw,.!?");
        (0..n).map(|i| pattern[i % pattern.len()]).collect()
    }

    fn decode_output(res: &PipelineResult, expected: &[u8]) {
        let (bytes, bits, lengths) = res.output.as_ref().expect("collected");
        let table = CodeTable::from_lengths(lengths);
        let got =
            tvs_huffman::decode_exact(bytes, 0, *bits, expected.len(), &table).expect("decodes");
        assert_eq!(got, expected, "committed stream must decode to the input");
    }

    #[test]
    fn non_speculative_run_matches_serial() {
        let data = stationary_data(16 * 1024);
        let (res, m) = run_small(&data, small_cfg(DispatchPolicy::NonSpeculative));
        assert_eq!(res.blocks.len(), 16);
        assert_eq!(res.committed_version, None);
        decode_output(&res, &data);
        // The non-speculative tree is exact, so size matches serial.
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        assert_eq!(res.compressed_bits, serial.bit_len);
        assert_eq!(m.rollbacks, 0);
        assert_eq!(m.tasks_discarded, 0);
    }

    #[test]
    fn speculative_commit_on_stationary_data() {
        // Long enough that reduces keep arriving after the prediction
        // installs, so intermediate checks actually run.
        let data = stationary_data(64 * 1024);
        let (res, m) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert!(
            res.committed_version.is_some(),
            "stationary data must commit"
        );
        assert_eq!(m.rollbacks, 0, "stationary data must not roll back");
        decode_output(&res, &data);
        let s = res.spec_stats.unwrap();
        assert_eq!(s.predictions, 1);
        assert!(s.checks_passed > 0);
        // Tolerance: compression within 1% of optimal.
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        let excess = res.compressed_bits as f64 / serial.bit_len as f64 - 1.0;
        assert!(excess <= 0.010001, "committed stream {excess} over optimal");
    }

    #[test]
    fn speculation_reduces_latency_and_makespan() {
        let data = stationary_data(64 * 1024);
        let (nonspec, mn) = run_small(&data, small_cfg(DispatchPolicy::NonSpeculative));
        let (spec, ms) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert!(
            spec.mean_latency() < nonspec.mean_latency(),
            "speculation should cut latency: {} vs {}",
            spec.mean_latency(),
            nonspec.mean_latency()
        );
        assert!(
            ms.makespan < mn.makespan,
            "speculation should cut completion time: {} vs {}",
            ms.makespan,
            mn.makespan
        );
    }

    #[test]
    fn drifting_data_rolls_back_and_still_decodes() {
        // First half 'a'-heavy, second half high bytes: early trees fail.
        let mut data = vec![b'a'; 8 * 1024];
        data.extend((0..8 * 1024u32).map(|i| 180 + (i % 60) as u8));
        let (res, m) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert!(m.rollbacks > 0, "drifting data must roll back");
        decode_output(&res, &data);
        let s = res.spec_stats.unwrap();
        assert!(s.checks_failed > 0);
    }

    #[test]
    fn zero_tolerance_falls_back_to_natural_path() {
        // With zero tolerance and drifting data, even the final check
        // fails; the natural path must produce the (optimal) output.
        let mut cfg = small_cfg(DispatchPolicy::Balanced);
        cfg.tolerance = Tolerance { margin: 0.0 };
        let mut data = vec![b'x'; 8 * 1024];
        data.extend((0..8 * 1024u32).map(|i| (i % 251) as u8));
        let (res, _m) = run_small(&data, cfg);
        assert_eq!(
            res.committed_version, None,
            "zero tolerance must reject speculation"
        );
        decode_output(&res, &data);
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        assert_eq!(
            res.compressed_bits, serial.bit_len,
            "natural path is optimal"
        );
    }

    #[test]
    fn breaker_trips_on_sustained_misprediction_and_run_completes() {
        // Zero tolerance + drifting data = 100 % misprediction: every
        // check fails and every promoted candidate is equally doomed. The
        // breaker must trip (degrading the run to conservative dispatch)
        // and the natural path must still deliver a decodable stream.
        let mut cfg = small_cfg(DispatchPolicy::Aggressive);
        cfg.tolerance = Tolerance { margin: 0.0 };
        cfg.breaker = Some(tvs_core::BreakerConfig {
            window: 4,
            min_samples: 2,
            trip_ratio: 0.5,
            cooldown: 1_000, // longer than the run: stays tripped
            probe_successes: 1,
        });
        // Continuously drifting input: every block shifts the byte
        // distribution, so any tree predicted from a prefix is already
        // wrong by the time a check compares it (margin 0).
        let data: Vec<u8> = (0..32 * 1024usize)
            .map(|i| ((i / 1024) * 7 + i % 13) as u8)
            .collect();
        // Slow arrivals: checks resolve while their version is active,
        // instead of going stale behind an early-finished reduce chain.
        let wl = HuffmanWorkload::new(cfg.clone(), data.len());
        let sim = SimConfig::new(x86_smp(4), cfg.policy);
        let inputs = blocks_of(&data, cfg.block_bytes, 100);
        let (wl, m) = try_run(wl, &sim, &HuffmanCost, inputs).expect("run completes");
        let res = wl.result();
        assert!(m.rollbacks >= 2, "zero tolerance must roll back: {m:?}");
        let s = res.spec_stats.unwrap();
        assert!(
            s.breaker_trips >= 1,
            "sustained misprediction must trip the breaker: {s:?}"
        );
        assert_eq!(
            res.committed_version, None,
            "tripped run must fall back to the natural path"
        );
        decode_output(&res, &data);
        let serial = tvs_huffman::serial_encode(&data).unwrap();
        assert_eq!(
            res.compressed_bits, serial.bit_len,
            "natural path is optimal"
        );
    }

    #[test]
    fn corrupted_prediction_is_caught_by_validation() {
        // Corrupt every predicted tree: stationary data that would commit
        // cleanly must now roll back (validation catches the scrambled
        // value) yet still finish with a decodable stream.
        let data = stationary_data(64 * 1024);
        let cfg = small_cfg(DispatchPolicy::Balanced);
        let mut wl = HuffmanWorkload::new(cfg.clone(), data.len());
        wl.set_fault_injector(FaultInjector::new(tvs_sre::FaultPlan::new(11).with_rule(
            FaultSite::PredictedValue,
            FaultKind::CorruptValue,
            1.0,
        )));
        let sim = SimConfig::new(x86_smp(4), cfg.policy);
        let inputs = blocks_of(&data, cfg.block_bytes, 5);
        let (wl, _) = try_run(wl, &sim, &HuffmanCost, inputs).expect("run completes");
        let res = wl.result();
        let s = res.spec_stats.unwrap();
        assert!(
            s.checks_failed > 0 || res.committed_version.is_none(),
            "validation must reject corrupted trees: {s:?}"
        );
        decode_output(&res, &data);
    }

    #[test]
    fn step_zero_speculates_from_first_block() {
        let data = stationary_data(16 * 1024);
        let mut cfg = small_cfg(DispatchPolicy::Aggressive);
        cfg.schedule = SpeculationSchedule::with_step(0);
        let (res, _m) = run_small(&data, cfg);
        assert!(res.committed_version.is_some());
        let s = res.spec_stats.unwrap();
        assert_eq!(s.predictions, 1);
        decode_output(&res, &data);
    }

    #[test]
    fn optimistic_verification_checks_only_at_final() {
        let data = stationary_data(32 * 1024);
        let mut cfg = small_cfg(DispatchPolicy::Balanced);
        cfg.verification = VerificationPolicy::Optimistic;
        let (res, _m) = run_small(&data, cfg);
        let s = res.spec_stats.unwrap();
        assert_eq!(s.checks, 0, "optimistic runs no intermediate checks");
        assert!(res.committed_version.is_some());
        decode_output(&res, &data);
    }

    #[test]
    fn single_block_input() {
        let data = vec![b'z'; 100];
        let mut cfg = small_cfg(DispatchPolicy::NonSpeculative);
        cfg.block_bytes = 1024;
        let (res, _m) = run_small(&data, cfg);
        assert_eq!(res.blocks.len(), 1);
        decode_output(&res, &data);
    }

    #[test]
    fn latencies_measured_from_arrival() {
        let data = stationary_data(8 * 1024);
        let cfg = small_cfg(DispatchPolicy::NonSpeculative);
        let (res, _) = run_small(&data, cfg);
        for (i, b) in res.blocks.iter().enumerate() {
            assert_eq!(b.arrival, i as Time * 5);
            assert!(b.encoded_at > b.arrival);
            assert_eq!(b.latency(), b.encoded_at - b.arrival);
        }
    }

    #[test]
    fn uneven_final_block() {
        let data = stationary_data(10 * 1024 + 123);
        let (res, _) = run_small(&data, small_cfg(DispatchPolicy::Balanced));
        assert_eq!(res.blocks.len(), 11);
        decode_output(&res, &data);
    }
}
