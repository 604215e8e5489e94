//! The span API: open with [`crate::span!`], enter to parent nested
//! work, drop the guard to record into the flight-recorder ring.

use crate::fields::FieldValue;
use crate::ring::{next_span_id, record, FlightEventKind, FlightRecorder};
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
/// [`crate::span!`] macro; a span created while the flight recorder is
/// off is inert and costs one relaxed atomic load.
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    /// The first two fields recorded: what the ring slot keeps.
    args: [(&'static str, FieldValue); 2],
    argc: u8,
}

impl Span {
    /// Opens a span named `name`, parented to the thread's innermost
    /// entered span. Recording state is decided here, once: the span
    /// is live when the flight recorder is on.
    pub fn new(name: &'static str) -> Self {
        if FlightRecorder::is_on() {
            Span(Some(ActiveSpan {
                id: next_span_id(),
                parent: current_span_id(),
                name,
                start_ns: crate::now_ns(),
                args: [("", FieldValue::U64(0)); 2],
                argc: 0,
            }))
        } else {
            Span(None)
        }
    }

    /// The span's process-unique id, when it is recording.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.id)
    }

    /// The id of the innermost span entered on this thread, if any:
    /// what a thread doing part of that span's work hands to
    /// [`Span::adopt`].
    pub fn current_id() -> Option<u64> {
        current_span_id()
    }

    /// Parents the spans this thread opens to `parent` (a
    /// [`Span::current_id`] taken on another thread) until the guard
    /// drops, so work handed to a helper thread stays in the subtree
    /// of the span that handed it over. `None` adopts nothing.
    pub fn adopt(parent: Option<u64>) -> Adopted {
        if let Some(id) = parent {
            STACK.with(|s| s.borrow_mut().push(id));
        }
        Adopted(parent)
    }

    /// `true` when this span will be recorded on drop.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Records a `key = value` field. A ring slot holds two fields:
    /// the first two recorded are kept, later ones are ignored.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(a) = &mut self.0 {
            if let Some(slot) = a.args.get_mut(usize::from(a.argc)) {
                *slot = (key, value.into());
                a.argc += 1;
            }
        }
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
/// stack and records the span into the calling thread's ring.
pub struct EnteredSpan {
    span: Span,
}

impl EnteredSpan {
    /// Records a field on the still-open span (e.g. an outcome known
    /// only at the end of the instrumented block); see [`Span::record`].
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.span.record(key, value);
    }

    /// The span's process-unique id, when it is recording. Callers
    /// that hand results across process boundaries (the daemon's
    /// journal, SLO exemplars) persist this to link back to the span
    /// in a flight-record dump.
    pub fn id(&self) -> Option<u64> {
        self.span.id()
    }
}

/// Guard of [`Span::adopt`]; dropping it pops the adopted parent off
/// the thread's span stack.
pub struct Adopted(Option<u64>);

impl Drop for Adopted {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            pop(id);
        }
    }
}

/// Pops `id` off the thread's span stack. Guards are dropped LIFO in
/// correct usage; tolerate out-of-order drops rather than corrupting
/// linkage.
fn pop(id: u64) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.last() == Some(&id) {
            stack.pop();
        } else {
            stack.retain(|&other| other != id);
        }
    });
}

impl Drop for EnteredSpan {
    fn drop(&mut self) {
        if let Some(a) = self.span.0.take() {
            pop(a.id);
            record(
                FlightEventKind::Span,
                a.name,
                a.id,
                a.parent,
                a.start_ns,
                crate::now_ns(),
                a.args.get(..usize::from(a.argc)).unwrap_or(&[]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ring::tests::{lock, my_events};
    use crate::{FieldValue, FlightEventKind, FlightRecorder};

    #[test]
    fn nesting_links_parents_and_survives_threads() {
        let _l = lock();
        FlightRecorder::enable(64);
        {
            let mut outer = crate::span!("t.outer", depth = 0u64).entered();
            outer.record("extra", true);
            outer.record("dropped", 9u64);
            {
                let _inner = crate::span!("t.inner", depth = 1u64).entered();
                crate::instant!("t.tick", at = 42u64, stage = "greedy");
            }
            let worker = std::thread::spawn(|| {
                let _w = crate::span!("t.worker").entered();
            });
            worker.join().unwrap();
            let parent = crate::Span::current_id();
            let helper = std::thread::spawn(move || {
                let _adopted = crate::Span::adopt(parent);
                let _h = crate::span!("t.helper").entered();
            });
            helper.join().unwrap();
        }
        FlightRecorder::disable();
        let records = my_events(&FlightRecorder::snapshot(), "t.");
        let find = |name: &str| records.iter().find(|r| r.name == name).unwrap();
        let (outer, inner) = (find("t.outer"), find("t.inner"));
        let (tick, worker, helper) = (find("t.tick"), find("t.worker"), find("t.helper"));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tick.parent, Some(inner.id));
        assert_eq!(tick.kind, FlightEventKind::Instant);
        assert_eq!(
            tick.args(),
            [
                ("at", FieldValue::U64(42)),
                ("stage", FieldValue::Str("greedy"))
            ]
        );
        // Sibling thread: its stack is its own, so no parent.
        assert_eq!(worker.parent, None);
        assert_ne!(worker.tid, outer.tid);
        // A helper thread that adopts the outer span nests under it.
        assert_eq!(helper.parent, Some(outer.id));
        assert_ne!(helper.tid, outer.tid);
        // The first two fields are kept in order, including the late
        // one; a third does not fit the slot.
        assert_eq!(
            outer.args(),
            [("depth", FieldValue::U64(0)), ("extra", FieldValue::U64(1))]
        );
        // Timing is sane: start ≤ end, child within parent.
        assert!(outer.start_ns <= outer.end_ns);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn spans_are_inert_while_the_recorder_is_off() {
        let _l = lock();
        FlightRecorder::disable();
        let span = crate::span!("t.quiet", wasted = "never evaluated");
        assert!(!span.is_recording());
        drop(span.entered());
        crate::instant!("t.quiet", n = 1u64);
        assert!(my_events(&FlightRecorder::snapshot(), "t.quiet").is_empty());
    }
}
