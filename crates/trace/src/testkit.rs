//! Event-log builders shared by this crate's unit tests.

use crate::event::{EventKind, Timebase, TraceEvent, TraceLog};

/// `kind` as event `seq` on worker 0, stamped `ts` on both clocks.
pub fn ev(seq: u64, ts: u64, kind: EventKind) -> TraceEvent {
    TraceEvent {
        seq,
        worker: 0,
        wall_us: ts,
        virt_us: ts,
        kind,
    }
}

/// `e` on track `worker` instead.
pub fn on(worker: u32, e: TraceEvent) -> TraceEvent {
    TraceEvent { worker, ..e }
}

/// A virtual-time log over `workers` worker tracks plus the control track.
pub fn log(workers: usize, events: Vec<TraceEvent>) -> TraceLog {
    TraceLog {
        workers,
        timebase: Timebase::Virtual,
        events,
        dropped: 0,
        dropped_per_worker: vec![0; workers + 1],
        label: String::new(),
    }
}

/// Task-start of task `id` (kind "t").
pub fn start(seq: u64, ts: u64, id: u64, version: Option<u32>) -> TraceEvent {
    let name = "t";
    ev(seq, ts, EventKind::TaskStart { id, name, version })
}

/// Task-end of task `id` (kind "t", tag `id * 10`).
pub fn end(seq: u64, ts: u64, id: u64, version: Option<u32>, discarded: bool) -> TraceEvent {
    let (name, tag) = ("t", id * 10);
    ev(
        seq,
        ts,
        EventKind::TaskEnd {
            id,
            name,
            version,
            tag,
            discarded,
        },
    )
}

/// Task-fault of attempt `attempt` of task `id` (kind "t").
pub fn fault(seq: u64, ts: u64, id: u64, version: Option<u32>, attempt: u32) -> TraceEvent {
    let name = "t";
    ev(
        seq,
        ts,
        EventKind::TaskFault {
            id,
            name,
            version,
            attempt,
        },
    )
}

/// Task `id` run from `from` to `to` on worker 0: events `seq`, `seq + 1`.
pub fn task(
    seq: u64,
    id: u64,
    version: Option<u32>,
    from: u64,
    to: u64,
    discarded: bool,
) -> [TraceEvent; 2] {
    [
        start(seq, from, id, version),
        end(seq + 1, to, id, version, discarded),
    ]
}
