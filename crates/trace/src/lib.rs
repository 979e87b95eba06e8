//! Speculation-lifecycle tracing for the TVS runtime.
//!
//! The paper's whole argument is about *where time goes* under tolerant
//! value speculation — wasted work, rollback cascades, check latency,
//! dispatch-policy effects — so this crate records the full lifecycle as
//! typed events: task dispatch / steal / park–unpark, predictor fire,
//! speculative version open, check pass/fail with the measured tolerance
//! margin, commit, and rollback with cascade depth.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A [`Tracer`] is a cheap cloneable
//!    handle around `Option<Arc<…>>`; the disabled tracer is `None` and
//!    every `emit` is a single predictable branch. Executors thread a
//!    disabled tracer through their regular entry points, so untraced runs
//!    pay one `if` per would-be event and allocate nothing.
//! 2. **No hot-path contention when enabled.** Events land in per-worker
//!    bounded ring buffers (one extra *control* ring for scheduler /
//!    speculation-manager events emitted under the commit lock). Each ring
//!    is written by one thread in steady state, so its `Mutex` is
//!    uncontended — an atomic CAS in practice — and stays within the
//!    workspace-wide `forbid(unsafe_code)`.
//! 3. **Bounded memory, honest accounting.** Rings overwrite oldest and
//!    count drops; [`TraceLog::dropped`] reports the loss instead of
//!    silently truncating history.
//!
//! Events carry both a wall-clock stamp (µs since the tracer was created)
//! and a virtual stamp (µs of simulated time, fed by the discrete-event
//! executor via [`Tracer::set_virtual_now`]). Exporters pick whichever
//! clock the run actually used.
//!
//! Exporters: [`TraceLog::to_perfetto_json`] (Chrome `trace_event` JSON —
//! one track per worker, async spans per speculative version; load it at
//! `ui.perfetto.dev` or `chrome://tracing`), [`TraceLog::to_event_csv`]
//! (flat event dump), and [`TraceLog::health`] (derived speculation-health
//! aggregates: wasted-work timeline, rollback-cascade histogram, check
//! latency percentiles).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod event;
pub mod health;
pub mod lineage;
pub mod perfetto;
pub mod ring;
pub mod span;
#[cfg(test)]
mod testkit;

pub use event::{ClassTag, EventKind, Timebase, TraceEvent, TraceLog};
pub use health::{LatencyStats, SpecHealth, WasteBucket};
pub use lineage::{LineageCost, LineageId, LineageTable, VersionCost};
pub use ring::{Tracer, DEFAULT_RING_CAPACITY};
pub use span::{SpanOutcome, TaskSpan};
