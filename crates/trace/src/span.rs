//! The span API: open with [`crate::span!`], enter to parent nested
//! work, drop the guard to record.

use crate::collector::{thread_id, Collector, SpanKind, SpanRecord};
use crate::fields::FieldValue;
use std::cell::RefCell;

thread_local! {
    /// The per-thread stack of entered span ids: the top is the
    /// parent of whatever opens next on this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The id of the innermost entered span on this thread, if any.
pub(crate) fn current_span_id() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// A span in its open (not yet entered) state. Created by the
/// [`crate::span!`] macro; a span created while no [`Collector`] is
/// installed is inert and costs nothing beyond one atomic load.
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    start_ns: u64,
    /// Collector was installed at open time: keep full fields and push
    /// a [`SpanRecord`] on drop. With only the flight-recorder ring on
    /// this is false and the span never allocates for fields.
    to_sink: bool,
    /// Up to two numeric fields stashed for the ring slot.
    ring_args: [(&'static str, u64); 2],
    ring_argc: u8,
}

impl Span {
    /// Opens a span named `name`, parented to the thread's innermost
    /// entered span. Recording state is decided here, once: the span
    /// is live when a [`Collector`] is installed, when the
    /// flight-recorder ring is on, or both.
    pub fn new(name: &'static str) -> Self {
        let to_sink = Collector::is_enabled();
        if to_sink || crate::FlightRecorder::is_on() {
            Span(Some(ActiveSpan {
                id: Collector::next_id(),
                parent: current_span_id(),
                name,
                fields: Vec::new(),
                start_ns: crate::now_ns(),
                to_sink,
                ring_args: [("", 0); 2],
                ring_argc: 0,
            }))
        } else {
            Span(None)
        }
    }

    /// The span's process-unique id, when it is recording.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.id)
    }

    /// `true` when this span will be recorded on drop.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Appends a `key = value` field (macro plumbing; prefer the
    /// `span!(…, key = value)` form).
    pub fn push_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(a) = &mut self.0 {
            let value = value.into();
            if let (Some(word), true) = (value.as_ring_word(), a.ring_argc < 2) {
                let i = a.ring_argc as usize;
                if let Some(slot) = a.ring_args.get_mut(i) {
                    *slot = (key, word);
                    a.ring_argc += 1;
                }
            }
            if a.to_sink {
                a.fields.push((key, value));
            }
        }
    }

    /// Records a field after creation (`tracing`-compatible name).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.push_field(key, value);
    }

    /// Pushes the span onto the thread's span stack and returns the
    /// guard whose drop records the stop time.
    pub fn entered(self) -> EnteredSpan {
        if let Some(a) = &self.0 {
            STACK.with(|s| s.borrow_mut().push(a.id));
        }
        EnteredSpan { span: self }
    }
}

/// Guard for an entered span; dropping it pops the thread's span
/// stack and records the span (when a collector is installed).
pub struct EnteredSpan {
    span: Span,
}

impl EnteredSpan {
    /// Records a field on the still-open span (e.g. an outcome known
    /// only at the end of the instrumented block).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.span.record(key, value);
    }

    /// `true` when this span will be recorded on drop.
    pub fn is_recording(&self) -> bool {
        self.span.is_recording()
    }

    /// The span's process-unique id, when it is recording. Callers
    /// that hand results across process boundaries (the daemon's
    /// journal, SLO exemplars) persist this to link back to the span
    /// in a flight-record dump.
    pub fn id(&self) -> Option<u64> {
        self.span.id()
    }
}

impl Drop for EnteredSpan {
    fn drop(&mut self) {
        if let Some(a) = self.span.0.take() {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Guards are dropped LIFO in correct usage; tolerate
                // out-of-order drops rather than corrupting linkage.
                if stack.last() == Some(&a.id) {
                    stack.pop();
                } else {
                    stack.retain(|&id| id != a.id);
                }
            });
            let end_ns = crate::now_ns();
            crate::ring::record_span_event(
                a.name,
                a.id,
                a.parent,
                a.start_ns,
                end_ns,
                a.ring_args.get(..a.ring_argc as usize).unwrap_or(&[]),
            );
            if a.to_sink {
                Collector::push(SpanRecord {
                    id: a.id,
                    parent: a.parent,
                    name: a.name,
                    fields: a.fields,
                    start_ns: a.start_ns,
                    end_ns,
                    thread: thread_id(),
                    kind: SpanKind::Complete,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::PoisonError;

    #[test]
    fn nesting_links_parents_and_survives_threads() {
        let _l = crate::collector::TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let guard = Collector::install();
        {
            let mut outer = crate::span!("t.outer", depth = 0u64).entered();
            outer.record("extra", true);
            {
                let _inner = crate::span!("t.inner", depth = 1u64).entered();
                crate::instant!("t.tick", at = 42u64);
            }
            let worker = std::thread::spawn(|| {
                let _w = crate::span!("t.worker").entered();
            });
            worker.join().unwrap();
        }
        drop(guard);
        let mut records = Collector::drain();
        records.sort_by_key(|r| r.start_ns);
        let outer = records.iter().find(|r| r.name == "t.outer").unwrap();
        let inner = records.iter().find(|r| r.name == "t.inner").unwrap();
        let tick = records.iter().find(|r| r.name == "t.tick").unwrap();
        let worker = records.iter().find(|r| r.name == "t.worker").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tick.parent, Some(inner.id));
        assert_eq!(tick.kind, SpanKind::Instant);
        // Sibling thread: its stack is its own, so no parent.
        assert_eq!(worker.parent, None);
        assert_ne!(worker.thread, outer.thread);
        // Fields recorded in order, including the late one.
        assert_eq!(outer.fields[0], ("depth", FieldValue::U64(0)));
        assert_eq!(outer.fields[1], ("extra", FieldValue::Bool(true)));
        // Timing is sane: start ≤ end, child within parent.
        assert!(outer.start_ns <= outer.end_ns);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn uninstalled_spans_are_inert() {
        let _l = crate::collector::TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        crate::FlightRecorder::disable();
        assert!(!Collector::is_enabled());
        let span = crate::span!("t.quiet", wasted = "never evaluated");
        assert!(!span.is_recording());
        drop(span.entered());
        assert_eq!(Collector::len(), 0);
    }
}
