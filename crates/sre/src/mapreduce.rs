//! A reusable streaming map-reduce workload.
//!
//! The first pass of the paper's Huffman benchmark — data-parallel `count`
//! tasks feeding a serial `reduce` chain — is a general shape: compute a
//! mergeable summary per input block, fold summaries group-by-group into a
//! running accumulator, and hand the final accumulator to a continuation.
//! [`MapReduce`] packages that shape over the SRE so other applications
//! (and tests) get the paper's pipeline skeleton without rebuilding it.
//!
//! ```
//! use tvs_sre::exec::sim::{try_run, SimConfig};
//! use tvs_sre::{x86_smp, DispatchPolicy, FixedCost, InputBlock, MapReduce, Summary};
//!
//! #[derive(Clone, Default)]
//! struct Sum(u64);
//! impl Summary for Sum {
//!     fn merge(&mut self, other: &Self) { self.0 += other.0; }
//! }
//!
//! let wl = MapReduce::new(8, 4, |block: &[u8]| Sum(block.len() as u64));
//! let cfg = SimConfig::new(x86_smp(4), DispatchPolicy::NonSpeculative);
//! let inputs: Vec<InputBlock> = (0..8)
//!     .map(|i| InputBlock { index: i, arrival: i as u64, data: vec![0u8; 100].into() })
//!     .collect();
//! let (wl, _metrics) = try_run(wl, &cfg, &FixedCost(10), inputs).expect("run completes");
//! assert_eq!(wl.result().0, 800);
//! ```
//!
//! The reduce chain is deliberately *serial* (each group folds into the
//! accumulator of the previous one), exactly like the paper's Fig. 2: that
//! is what makes its prefix outcomes meaningful as speculation bases.

use crate::task::{expect_payload, payload, TaskSpec};
use crate::workload::{Completion, InputBlock, SchedCtx, Workload};
use std::sync::Arc;

/// A mergeable per-block summary.
///
/// `Default` must be the merge identity (`T::default().merge(&x)` equals
/// `x`), which seeds the reduce fold.
pub trait Summary: Default + Send + Sync + 'static {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// The shared per-block map function.
type MapFn<T> = Arc<dyn Fn(&[u8]) -> T + Send + Sync>;

/// Streaming map-reduce over fixed-size input blocks.
///
/// * `map` runs as one coarse task per block (depth 0);
/// * groups of `ratio` consecutive summaries fold into the running
///   accumulator via serial `reduce` tasks (depth 1);
/// * each reduce completion appends the accumulator-so-far to
///   [`MapReduce::prefixes`] (basis events — the speculation hook); after
///   the final group the workload finishes.
pub struct MapReduce<T: Summary> {
    name_map: &'static str,
    name_reduce: &'static str,
    ratio: usize,
    n_blocks: usize,
    map: MapFn<T>,

    data: Vec<Option<Arc<[u8]>>>,
    summaries: Vec<Option<Arc<T>>>,
    mapped_prefix: usize,
    acc: Vec<Arc<T>>,
    reduces_done: usize,
    reduce_inflight: bool,
    n_groups: usize,
}

impl<T: Summary> MapReduce<T> {
    /// A map-reduce over `n_blocks` blocks with the given group `ratio`.
    pub fn new(
        n_blocks: usize,
        ratio: usize,
        map: impl Fn(&[u8]) -> T + Send + Sync + 'static,
    ) -> Self {
        assert!(n_blocks > 0 && ratio > 0);
        MapReduce {
            name_map: "map",
            name_reduce: "reduce",
            ratio,
            n_blocks,
            map: Arc::new(map),
            data: vec![None; n_blocks],
            summaries: (0..n_blocks).map(|_| None).collect(),
            mapped_prefix: 0,
            acc: Vec::new(),
            reduces_done: 0,
            reduce_inflight: false,
            n_groups: n_blocks.div_ceil(ratio),
        }
    }

    /// Rename the task kinds (keys into the cost model).
    pub fn with_task_names(mut self, map: &'static str, reduce: &'static str) -> Self {
        self.name_map = map;
        self.name_reduce = reduce;
        self
    }

    /// Accumulator after each completed reduce so far (prefix outcomes —
    /// the speculation bases).
    pub fn prefixes(&self) -> &[Arc<T>] {
        &self.acc
    }

    /// The final accumulator, once finished.
    pub fn result(&self) -> &T {
        assert!(self.is_finished(), "result() before the reduction finished");
        self.acc.last().expect("at least one group")
    }

    /// Number of basis (reduce) events so far.
    pub fn basis(&self) -> usize {
        self.reduces_done
    }

    fn maybe_spawn_reduce(&mut self, ctx: &mut dyn SchedCtx) {
        if self.reduce_inflight || self.reduces_done >= self.n_groups {
            return;
        }
        let g = self.reduces_done;
        let lo = g * self.ratio;
        let hi = ((g + 1) * self.ratio).min(self.n_blocks);
        if self.mapped_prefix < hi {
            return;
        }
        let group: Vec<Arc<T>> = (lo..hi)
            .map(|i| self.summaries[i].as_ref().expect("mapped").clone())
            .collect();
        let prev = if g == 0 {
            None
        } else {
            Some(self.acc[g - 1].clone())
        };
        self.reduce_inflight = true;
        let bytes = (group.len() + prev.is_some() as usize) * std::mem::size_of::<T>();
        ctx.spawn(TaskSpec::regular(
            self.name_reduce,
            1,
            bytes,
            g as u64,
            move |_| {
                let mut acc = T::default();
                if let Some(p) = &prev {
                    acc.merge(p);
                }
                for part in &group {
                    acc.merge(part);
                }
                payload(Arc::new(acc))
            },
        ));
    }
}

impl<T: Summary> Workload for MapReduce<T> {
    fn on_input(&mut self, ctx: &mut dyn SchedCtx, block: InputBlock) {
        let idx = block.index;
        assert!(idx < self.n_blocks, "unexpected block {idx}");
        self.data[idx] = Some(block.data.clone());
        let map = Arc::clone(&self.map);
        let data = block.data;
        ctx.spawn(TaskSpec::regular(
            self.name_map,
            0,
            data.len(),
            idx as u64,
            move |_| payload(Arc::new(map(&data))),
        ));
    }

    fn on_complete(&mut self, ctx: &mut dyn SchedCtx, done: Completion) {
        match done.name {
            n if n == self.name_map => {
                let idx = done.tag as usize;
                self.summaries[idx] = Some(expect_payload::<Arc<T>>(done.output, "Arc<T>"));
                while self.mapped_prefix < self.n_blocks
                    && self.summaries[self.mapped_prefix].is_some()
                {
                    self.mapped_prefix += 1;
                }
                self.maybe_spawn_reduce(ctx);
            }
            n if n == self.name_reduce => {
                let acc = expect_payload::<Arc<T>>(done.output, "Arc<T>");
                self.acc.push(acc);
                self.reduces_done += 1;
                self.reduce_inflight = false;
                self.maybe_spawn_reduce(ctx);
            }
            other => unreachable!("unknown completion '{other}'"),
        }
    }

    fn is_finished(&self) -> bool {
        self.reduces_done == self.n_groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sim::{try_run, SimConfig};
    use crate::platform::{x86_smp, FixedCost};
    use crate::DispatchPolicy;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Sum(u64);

    impl Summary for Sum {
        fn merge(&mut self, other: &Self) {
            self.0 += other.0;
        }
    }

    fn blocks(n: usize, bytes: usize) -> Vec<InputBlock> {
        (0..n)
            .map(|i| InputBlock {
                index: i,
                arrival: i as u64,
                data: vec![(i % 7) as u8; bytes].into(),
            })
            .collect()
    }

    fn run_sum(n_blocks: usize, ratio: usize, workers: usize) -> (MapReduce<Sum>, Vec<u64>) {
        let wl = MapReduce::new(n_blocks, ratio, |data: &[u8]| {
            Sum(data.iter().map(|&b| b as u64).sum())
        });
        let cfg = SimConfig::new(x86_smp(workers), DispatchPolicy::NonSpeculative);
        let inputs = blocks(n_blocks, 64);
        let expect: Vec<u64> = inputs
            .iter()
            .map(|b| b.data.iter().map(|&x| x as u64).sum())
            .collect();
        let (wl, _) = try_run(wl, &cfg, &FixedCost(5), inputs).expect("run completes");
        (wl, expect)
    }

    #[test]
    fn sums_match_serial_reference() {
        let (wl, per_block) = run_sum(13, 4, 4);
        assert_eq!(wl.result().0, per_block.iter().sum::<u64>());
        assert_eq!(wl.basis(), 4); // ceil(13/4)
    }

    #[test]
    fn prefixes_are_cumulative() {
        let (wl, per_block) = run_sum(16, 4, 2);
        let prefixes = wl.prefixes();
        assert_eq!(prefixes.len(), 4);
        for (g, p) in prefixes.iter().enumerate() {
            let expect: u64 = per_block[..(g + 1) * 4].iter().sum();
            assert_eq!(p.0, expect, "prefix after group {g}");
        }
    }

    #[test]
    fn single_block_single_group() {
        let (wl, per_block) = run_sum(1, 16, 1);
        assert_eq!(wl.result().0, per_block[0]);
        assert_eq!(wl.basis(), 1);
    }

    #[test]
    fn ratio_one_gives_one_basis_per_block() {
        let (wl, _) = run_sum(9, 1, 3);
        assert_eq!(wl.basis(), 9);
    }

    #[test]
    fn custom_task_names_flow_to_the_cost_model() {
        use crate::CostModel;
        struct NamedCost;
        impl CostModel for NamedCost {
            fn cost_us(&self, name: &str, _bytes: usize) -> u64 {
                match name {
                    "count" => 3,
                    "fold" => 7,
                    other => panic!("unexpected kind {other}"),
                }
            }
        }
        let wl =
            MapReduce::new(4, 2, |d: &[u8]| Sum(d.len() as u64)).with_task_names("count", "fold");
        let cfg = SimConfig {
            tracer: crate::Tracer::enabled(2),
            ..SimConfig::new(x86_smp(2), DispatchPolicy::NonSpeculative)
        };
        let (wl, _) = try_run(wl, &cfg, &NamedCost, blocks(4, 10)).expect("run completes");
        assert_eq!(wl.result().0, 40);
        let log = cfg.tracer.drain().expect("enabled tracer drains");
        assert_eq!(log.dropped, 0);
        let spans = log.task_spans();
        assert!(spans.iter().any(|t| t.name == "count"));
        assert!(spans.iter().any(|t| t.name == "fold"));
    }
}
