//! The [`Tracer`] handle and its per-worker event rings.

use crate::event::{EventKind, Timebase, TraceEvent, TraceLog};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Lock `m`, recovering the guard if a panicking thread poisoned it — a
/// ring or label is plain data, never left in a torn state, so the
/// poison flag carries no information worth dying over.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default per-ring capacity (events). 64 Ki events ≈ 3 MiB per worker —
/// enough for several seconds of coarse-grain task flow before the ring
/// starts dropping (and counting) the oldest events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One bounded event ring. Written by a single thread in steady state, so
/// the mutex is uncontended (the only cross-thread access is the end-of-run
/// drain); bounded overwrite-oldest with a drop counter.
struct Ring {
    buf: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

struct Buffers {
    /// `workers + 1` rings; the last is the control ring for events
    /// emitted under the commit lock (scheduler, speculation manager,
    /// dispatch pump).
    rings: Vec<Ring>,
    cap: usize,
    /// Global emission counter: a total order across rings.
    seq: AtomicU64,
    /// Ambient virtual clock, fed by the discrete-event executor.
    virt_now: AtomicU64,
    /// Whether the virtual clock was ever set (selects the timebase).
    virt_used: AtomicBool,
    start: Instant,
    label: Mutex<String>,
}

/// Cheap cloneable tracing handle. `Tracer::disabled()` (also `Default`)
/// carries no buffers: every emit is a single branch and the compiler sees
/// a no-op sink. `Tracer::enabled(workers)` allocates `workers + 1`
/// bounded rings (one per worker plus a control ring).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Buffers>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Tracer {
    /// The no-op sink: emits are single-branch no-ops, `drain` yields
    /// nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer with one [`DEFAULT_RING_CAPACITY`]-event ring per worker
    /// plus a control ring.
    pub fn enabled(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_RING_CAPACITY)
    }

    /// [`Tracer::enabled`] with an explicit per-ring capacity (≥ 1).
    pub fn with_capacity(workers: usize, cap: usize) -> Self {
        let cap = cap.max(1);
        Tracer {
            inner: Some(Arc::new(Buffers {
                rings: (0..workers + 1)
                    .map(|_| Ring {
                        buf: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
                        dropped: AtomicU64::new(0),
                    })
                    .collect(),
                cap,
                seq: AtomicU64::new(0),
                virt_now: AtomicU64::new(0),
                virt_used: AtomicBool::new(false),
                start: Instant::now(),
                label: Mutex::new(String::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Set the run label carried into exports (e.g. the dispatch policy).
    pub fn set_label(&self, label: &str) {
        if let Some(b) = &self.inner {
            *lock_recover(&b.label) = label.to_string();
        }
    }

    /// Feed the ambient virtual clock (µs). The discrete-event executor
    /// calls this at every event pop so that events emitted from inside
    /// scheduler / manager callbacks get correct virtual stamps without
    /// plumbing time through their APIs. Runs that never call this export
    /// on the wall clock.
    #[inline]
    pub fn set_virtual_now(&self, virt_us: u64) {
        if let Some(b) = &self.inner {
            b.virt_now.store(virt_us, Ordering::Relaxed);
            b.virt_used.store(true, Ordering::Relaxed);
        }
    }

    /// Record `kind` on `worker`'s ring, stamping both clocks. Out-of-range
    /// worker indices land on the control ring.
    #[inline]
    pub fn emit(&self, worker: usize, kind: EventKind) {
        if let Some(b) = &self.inner {
            let virt = b.virt_now.load(Ordering::Relaxed);
            b.push(worker, virt, kind);
        }
    }

    /// [`Tracer::emit`] with an explicit virtual stamp — the simulator uses
    /// this for task start/end events whose virtual time differs from the
    /// ambient clock (both are known only when the completion event pops).
    #[inline]
    pub fn emit_at(&self, worker: usize, virt_us: u64, kind: EventKind) {
        if let Some(b) = &self.inner {
            b.push(worker, virt_us, kind);
        }
    }

    /// Record `kind` on the control ring (scheduler / manager / pump
    /// events, serialised by the commit lock in the threaded executors).
    #[inline]
    pub fn emit_control(&self, kind: EventKind) {
        if let Some(b) = &self.inner {
            let virt = b.virt_now.load(Ordering::Relaxed);
            b.push(b.rings.len() - 1, virt, kind);
        }
    }

    /// [`Tracer::emit_control`] stamped at the wall-clock instant `at`
    /// rather than now: the threaded router decides a task's completion
    /// outcome after the fact and stamps its task-end at the body's end.
    #[inline]
    pub fn emit_control_at(&self, at: Instant, kind: EventKind) {
        if let Some(b) = &self.inner {
            let virt = b.virt_now.load(Ordering::Relaxed);
            let wall = at.saturating_duration_since(b.start).as_micros() as u64;
            b.push_stamped(b.rings.len() - 1, wall, virt, kind);
        }
    }

    /// Per-ring drop counts so far: `workers + 1` entries, the last being
    /// the control ring. Empty for a disabled tracer.
    pub fn dropped_per_ring(&self) -> Vec<u64> {
        self.inner
            .as_ref()
            .map(|b| {
                b.rings
                    .iter()
                    .map(|r| r.dropped.load(Ordering::Relaxed))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total events lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|b| {
                b.rings
                    .iter()
                    .map(|r| r.dropped.load(Ordering::Relaxed))
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Drain all rings into a time-ordered [`TraceLog`]. Returns `None`
    /// for a disabled tracer. Call after the run: draining mid-run races
    /// writers only for ring locks (safe, but the log would be partial).
    pub fn drain(&self) -> Option<TraceLog> {
        let b = self.inner.as_ref()?;
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut dropped = 0u64;
        let mut dropped_per_worker = Vec::with_capacity(b.rings.len());
        for r in &b.rings {
            let mut buf = lock_recover(&r.buf);
            events.extend(buf.drain(..));
            let d = r.dropped.load(Ordering::Relaxed);
            dropped += d;
            dropped_per_worker.push(d);
        }
        let timebase = if b.virt_used.load(Ordering::Relaxed) {
            Timebase::Virtual
        } else {
            Timebase::Wall
        };
        events.sort_by_key(|e| (e.ts(timebase), e.seq));
        Some(TraceLog {
            workers: b.rings.len() - 1,
            timebase,
            events,
            dropped,
            dropped_per_worker,
            label: lock_recover(&b.label).clone(),
        })
    }
}

impl Buffers {
    fn push(&self, worker: usize, virt_us: u64, kind: EventKind) {
        let wall_us = self.start.elapsed().as_micros() as u64;
        self.push_stamped(worker, wall_us, virt_us, kind);
    }

    fn push_stamped(&self, worker: usize, wall_us: u64, virt_us: u64, kind: EventKind) {
        let worker = worker.min(self.rings.len() - 1);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            seq,
            worker: worker as u32,
            wall_us,
            virt_us,
            kind,
        };
        let ring = &self.rings[worker];
        let mut buf = lock_recover(&ring.buf);
        if buf.len() >= self.cap {
            buf.pop_front();
            ring.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn disabled_tracer_is_a_no_op_sink() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(0, EventKind::Park);
        t.emit_control(EventKind::Commit { version: 1 });
        t.set_virtual_now(99);
        assert_eq!(t.dropped(), 0);
        assert!(t.drain().is_none());
    }

    #[test]
    fn events_route_to_worker_and_control_rings() {
        let t = Tracer::enabled(2);
        t.emit(0, EventKind::Park);
        t.emit(1, EventKind::Unpark);
        t.emit_control(EventKind::Commit { version: 3 });
        t.emit(99, EventKind::Park); // out of range -> control
        let log = t.drain().unwrap();
        assert_eq!(log.workers, 2);
        assert_eq!(log.events.len(), 4);
        assert_eq!(
            log.events.iter().filter(|e| e.worker == 2).count(),
            2,
            "control ring got the commit and the out-of-range event"
        );
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(1, 4);
        for i in 0..10 {
            t.emit(0, EventKind::Commit { version: i });
        }
        assert_eq!(t.dropped(), 6);
        let log = t.drain().unwrap();
        assert_eq!(log.dropped, 6);
        let versions: Vec<u32> = log
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Commit { version } => Some(version),
                _ => None,
            })
            .collect();
        assert_eq!(versions, vec![6, 7, 8, 9], "oldest events were dropped");
    }

    #[test]
    fn virtual_clock_selects_timebase_and_orders_events() {
        let t = Tracer::enabled(1);
        t.set_virtual_now(100);
        t.emit(0, EventKind::Park);
        t.emit_at(0, 50, EventKind::Unpark); // explicit earlier stamp
        let log = t.drain().unwrap();
        assert_eq!(log.timebase, Timebase::Virtual);
        assert_eq!(
            log.events[0].kind,
            EventKind::Unpark,
            "sorted by virtual ts"
        );
        assert_eq!(log.events[0].virt_us, 50);
        assert_eq!(log.events[1].virt_us, 100);
        assert_eq!(log.span_us(), 100);
    }

    #[test]
    fn wall_timebase_when_sim_never_fed_the_clock() {
        let t = Tracer::enabled(1);
        t.emit(0, EventKind::Park);
        let log = t.drain().unwrap();
        assert_eq!(log.timebase, Timebase::Wall);
    }

    #[test]
    fn control_events_can_be_stamped_in_the_past() {
        let t = Tracer::enabled(1);
        let at = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.emit(0, EventKind::Park);
        t.emit_control_at(at, EventKind::Unpark);
        let log = t.drain().unwrap();
        assert_eq!(log.events[0].kind, EventKind::Unpark, "sorted by wall ts");
        assert_eq!(log.events[0].worker, 1, "lands on the control ring");
        assert!(log.events[1].wall_us >= log.events[0].wall_us + 2_000);
    }

    #[test]
    fn label_round_trips() {
        let t = Tracer::enabled(1);
        t.set_label("balanced");
        assert_eq!(t.drain().unwrap().label, "balanced");
    }

    #[test]
    fn seq_gives_total_order_across_rings() {
        let t = Tracer::enabled(2);
        for i in 0..50u32 {
            t.emit((i % 2) as usize, EventKind::Commit { version: i });
        }
        let log = t.drain().unwrap();
        let mut seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 50, "sequence numbers are unique");
    }

    #[test]
    fn clone_shares_buffers() {
        let t = Tracer::enabled(1);
        let t2 = t.clone();
        t2.emit(0, EventKind::Park);
        assert_eq!(t.drain().unwrap().events.len(), 1);
    }
}
