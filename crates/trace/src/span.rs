//! Task spans: the one join of task-start, task-fault and task-end events.
//!
//! Every per-task view of a run — busy and wasted time in
//! [`SpecHealth`](crate::health::SpecHealth), per-version waste in the
//! [`LineageTable`](crate::lineage::LineageTable), the Perfetto task
//! tracks, Gantt and DFG-shape checks in tests and examples — reads
//! [`TraceLog::task_spans`], so they all agree on what a task cost.

use crate::event::{EventKind, TraceLog};
use std::collections::HashMap;

/// How a task body's execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanOutcome {
    /// The scheduler delivered the output to the workload.
    Delivered,
    /// The scheduler discarded the output: the task's version was aborted
    /// before its completion was routed (wasted work).
    Discarded,
    /// The body's last attempt panicked; its time is wasted work.
    Faulted,
}

/// One executed task body, from its task-start to its task-end (or, for a
/// body whose last attempt faulted, to its final task-fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpan {
    /// Task id.
    pub id: u64,
    /// Task kind name.
    pub name: &'static str,
    /// Worker track that ran the body (the track of its task-start).
    pub worker: u32,
    /// Speculation version, if any.
    pub version: Option<u32>,
    /// Application tag carried by the task-end; 0 for a faulted span,
    /// whose body never completed.
    pub tag: u64,
    /// Body start, µs in the log's timebase.
    pub start: u64,
    /// Body end, µs in the log's timebase.
    pub end: u64,
    /// How the body ended.
    pub outcome: SpanOutcome,
}

impl TaskSpan {
    /// Body time, µs.
    pub fn busy_us(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the body's time was wasted (discarded or faulted).
    pub fn discarded(&self) -> bool {
        self.outcome != SpanOutcome::Delivered
    }
}

/// A task-start still waiting for its end.
struct Open {
    name: &'static str,
    worker: u32,
    version: Option<u32>,
    start: u64,
    /// Stamp of the latest task-fault seen for this body.
    fault: Option<u64>,
}

impl TraceLog {
    /// Every executed task body of the run, ordered by end time.
    ///
    /// A task-end whose task-start was lost (ring overflow, hand-built
    /// logs) yields a zero-length span on the task-end's track. A body
    /// whose last attempt faulted never emits a task-end: its span ends at
    /// its final task-fault, as [`SpanOutcome::Faulted`]. A start with
    /// neither (a report the runtime rejected, or a run cut short) yields
    /// no span.
    pub fn task_spans(&self) -> Vec<TaskSpan> {
        let tb = self.timebase;
        let mut open: HashMap<u64, Open> = HashMap::new();
        let mut spans = Vec::new();
        for e in &self.events {
            let ts = e.ts(tb);
            match e.kind {
                EventKind::TaskStart { id, name, version } => {
                    open.insert(
                        id,
                        Open {
                            name,
                            worker: e.worker,
                            version,
                            start: ts,
                            fault: None,
                        },
                    );
                }
                EventKind::TaskFault { id, .. } => {
                    if let Some(o) = open.get_mut(&id) {
                        o.fault = Some(ts);
                    }
                }
                EventKind::TaskEnd {
                    id,
                    name,
                    version,
                    tag,
                    discarded,
                } => {
                    let (worker, start) = open
                        .remove(&id)
                        .map_or((e.worker, ts), |o| (o.worker, o.start));
                    spans.push(TaskSpan {
                        id,
                        name,
                        worker,
                        version,
                        tag,
                        start,
                        end: ts,
                        outcome: if discarded {
                            SpanOutcome::Discarded
                        } else {
                            SpanOutcome::Delivered
                        },
                    });
                }
                _ => {}
            }
        }
        let mut faulted: Vec<TaskSpan> = open
            .into_iter()
            .filter_map(|(id, o)| {
                Some(TaskSpan {
                    id,
                    name: o.name,
                    worker: o.worker,
                    version: o.version,
                    tag: 0,
                    start: o.start,
                    end: o.fault?,
                    outcome: SpanOutcome::Faulted,
                })
            })
            .collect();
        if !faulted.is_empty() {
            faulted.sort_unstable_by_key(|s| (s.end, s.id));
            spans.extend(faulted);
            spans.sort_by_key(|s| s.end);
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{end, fault, log, on, start};

    const V: Option<u32> = Some(1);

    #[test]
    fn pairs_start_and_end_on_the_start_track() {
        // The end is reported on the control track (index 2), as the
        // threaded router does; the span keeps the worker that ran it.
        let events = vec![on(1, start(0, 10, 7, V)), on(2, end(1, 35, 7, V, true))];
        let spans = log(2, events).task_spans();
        assert_eq!(
            spans,
            vec![TaskSpan {
                id: 7,
                name: "t",
                worker: 1,
                version: V,
                tag: 70,
                start: 10,
                end: 35,
                outcome: SpanOutcome::Discarded,
            }]
        );
        assert_eq!(spans[0].busy_us(), 25);
        assert!(spans[0].discarded());
    }

    #[test]
    fn a_faulted_body_ends_at_its_final_fault() {
        let spans = log(
            2,
            vec![
                start(0, 0, 1, V),
                on(1, start(1, 0, 2, V)),
                fault(2, 5, 1, V, 0),
                fault(3, 9, 1, V, 1),
                on(1, end(4, 20, 2, V, false)),
            ],
        )
        .task_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].end), (1, 9));
        assert_eq!(spans[0].outcome, SpanOutcome::Faulted);
        assert_eq!(spans[0].tag, 0);
        assert!(spans[0].discarded());
        assert_eq!(spans[1].outcome, SpanOutcome::Delivered);
    }

    #[test]
    fn a_retried_body_that_succeeds_is_one_delivered_span() {
        let events = vec![
            start(0, 0, 1, V),
            fault(1, 4, 1, V, 0),
            end(2, 12, 1, V, false),
        ];
        let spans = log(1, events).task_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (0, 12));
        assert_eq!(spans[0].outcome, SpanOutcome::Delivered);
    }

    #[test]
    fn unmatched_events() {
        // An end without a start is a zero-length span on its own track;
        // a start with neither end nor fault is no span.
        let events = vec![start(0, 1, 1, V), on(1, end(1, 30, 2, V, false))];
        let spans = log(2, events).task_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].id, spans[0].worker), (2, 1));
        assert_eq!(spans[0].busy_us(), 0);
    }
}
