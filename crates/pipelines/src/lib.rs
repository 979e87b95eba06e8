//! Streaming applications built on the TVS public API.
//!
//! Two applications, mirroring the paper:
//!
//! * [`huffman`] — the paper's benchmark: a parallel, speculative Huffman
//!   encoder (Fig. 2). Blocks are counted in parallel, histograms are
//!   merged by a serial reduce chain, a tree is built from the global
//!   histogram (the Amdahl bottleneck), offsets serialise the
//!   variable-length output positions, and encodes fan out in parallel.
//!   Speculation predicts the tree from prefix histograms, with a
//!   compressed-size tolerance check.
//! * [`filter`] — the paper's motivating example (Fig. 1): an iterative
//!   computation of filter coefficients whose early iterates are speculated
//!   on, releasing the data-parallel filtering phase before the iteration
//!   converges.
//! * [`kmeans`] — the intro's other workload class ("iterative algorithms
//!   such as k-means"): Lloyd iterations over a sample feed speculative
//!   centroids to the data-parallel assignment phase.
//! * [`annealing`] — the intro's "random-based optimization heuristics
//!   such as simulated annealing": a stochastic, non-monotone solver whose
//!   incumbent placement is speculated on with a *semantic* tolerance
//!   (objective values, not structures, are compared).
//!
//! [`runner`] runs the Huffman pipeline on any of the three executors
//! with an I/O arrival model ([`runner::run_huffman`]); [`report`] renders the
//! series the paper's figures plot; [`postmortem`] dumps and reloads
//! crash bundles (trace rings + lineage table + metrics snapshots) when
//! a chaos run dies.
//!
//! ```
//! use tvs_pipelines::config::HuffmanConfig;
//! use tvs_pipelines::runner::{run_huffman, RunSpec};
//! use tvs_sre::exec::sim::SimConfig;
//! use tvs_sre::{x86_smp, DispatchPolicy};
//!
//! let data = tvs_workloads::generate(tvs_workloads::FileKind::Text, 256 * 1024, 7);
//! let disk = tvs_iosim::Disk::default();
//! let run = |cfg: &HuffmanConfig| {
//!     let spec = RunSpec::sim(SimConfig::new(x86_smp(16), cfg.policy), &disk);
//!     run_huffman(&data, cfg, &spec).expect("run completes").into_outcome()
//! };
//! let base = run(&HuffmanConfig::disk_x86(DispatchPolicy::NonSpeculative));
//! // Speculate from the very first reduce outcome (the input is small, so
//! // the paper's default step 8 would only trigger halfway through).
//! let mut cfg = HuffmanConfig::disk_x86(DispatchPolicy::Balanced);
//! cfg.schedule = tvs_core::SpeculationSchedule::with_step(1);
//! assert!(run(&cfg).mean_latency() < base.mean_latency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod config;
pub mod cost;
pub mod filter;
pub mod huffman;
pub mod kmeans;
pub mod postmortem;
pub mod report;
pub mod runner;

pub use config::HuffmanConfig;
pub use cost::HuffmanCost;
pub use huffman::{digest_output, HuffmanWorkload, PipelineResult, SpecTree};
pub use runner::{run_huffman, Executor, HuffmanRun, HuffmanRunError, RunEnd, RunOutcome, RunSpec};
