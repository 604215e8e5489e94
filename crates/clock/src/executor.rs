//! Timed-trigger execution: fire scheduled updates when the *local*
//! clock passes the trigger time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::{HardwareClock, Nanos};

/// Heap entry: an opaque payload armed for a local-clock time, plus
/// the bookkeeping the executor needs —
/// an arming sequence number (FIFO among equal trigger times) and
/// whether the trigger was armed for a local time that had already
/// passed (a *late* arm, whose reported firing instant is clamped).
#[derive(Clone, Debug)]
struct Armed<T> {
    local_time: Nanos,
    seq: u64,
    late: bool,
    payload: T,
}

impl<T> PartialEq for Armed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.local_time == other.local_time && self.seq == other.seq
    }
}

impl<T> Eq for Armed<T> {}

impl<T> Ord for Armed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest
        // (local_time, seq) on top.
        (other.local_time, other.seq).cmp(&(self.local_time, self.seq))
    }
}

impl<T> PartialOrd for Armed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A per-switch trigger list driven by that switch's hardware clock —
/// the Time4 execution model: the controller distributes update
/// messages ahead of time, each carrying its scheduled execution
/// time, and the switch fires them by its own (synchronized) clock.
///
/// Triggers live in a binary heap keyed on `(local_time, arming seq)`,
/// so [`arm`](ScheduledExecutor::arm) and each pop in
/// [`advance_to`](ScheduledExecutor::advance_to) are `O(log n)` — the
/// earlier `Vec` implementation re-sorted on every insert and drained
/// with `remove(0)`, an `O(n²)` pattern that dominated large fan-outs.
#[derive(Clone, Debug)]
pub struct ScheduledExecutor<T> {
    clock: HardwareClock,
    triggers: BinaryHeap<Armed<T>>,
    next_seq: u64,
    /// Highest true time ever passed to `advance_to`, if any — the
    /// executor's notion of "now", used to detect late arming.
    advanced_to: Option<Nanos>,
}

impl<T> ScheduledExecutor<T> {
    /// Creates an executor for a switch with the given clock.
    pub fn new(clock: HardwareClock) -> Self {
        ScheduledExecutor {
            clock,
            triggers: BinaryHeap::new(),
            next_seq: 0,
            advanced_to: None,
        }
    }

    /// The switch's clock.
    pub fn clock(&self) -> &HardwareClock {
        &self.clock
    }

    /// Mutable access to the switch's clock (sync corrections, desync
    /// spikes).
    pub fn clock_mut(&mut self) -> &mut HardwareClock {
        &mut self.clock
    }

    /// Arms a trigger for local-clock time `local_time`. Triggers with
    /// equal times fire in arming order.
    pub fn arm(&mut self, local_time: Nanos, payload: T) {
        // Armed for a local time the clock has already passed? Then it
        // cannot fire at its nominal instant — it fires at the next
        // advance, and is reported as such (see `advance_to`).
        let late = self
            .advanced_to
            .is_some_and(|now| self.clock.read(now) >= local_time);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.triggers.push(Armed {
            local_time,
            seq,
            late,
            payload,
        });
    }

    /// Number of armed (not yet fired) triggers.
    pub fn armed(&self) -> usize {
        self.triggers.len()
    }

    /// Local-clock time of the earliest armed trigger, if any.
    pub fn next_local_time(&self) -> Option<Nanos> {
        self.triggers.peek().map(|t| t.local_time)
    }

    /// Disarms every pending trigger (a switch reboot loses its armed
    /// triggers; an abort cancels them), returning how many were lost.
    pub fn clear(&mut self) -> usize {
        let lost = self.triggers.len();
        self.triggers.clear();
        lost
    }

    /// The true time at which an armed trigger will fire — local
    /// trigger time translated through the clock error.
    pub fn true_fire_time(&self, local_time: Nanos) -> Nanos {
        self.clock.true_time_of_local(local_time)
    }

    /// Advances true time to `now` and returns every trigger whose
    /// local time has passed, in firing order, each paired with its
    /// *true* firing instant (so callers can measure scheduling
    /// error). A trigger that was armed late (local time already in
    /// the past at arming) reports `now` — it fires when first
    /// noticed, never before it existed.
    pub fn advance_to(&mut self, now: Nanos) -> Vec<(Nanos, T)> {
        let local_now = self.clock.read(now);
        let mut fired = Vec::new();
        while let Some(first) = self.triggers.peek() {
            if first.local_time > local_now {
                break;
            }
            let t = match self.triggers.pop() {
                Some(t) => t,
                None => break,
            };
            let true_at = if t.late {
                now
            } else {
                self.clock.true_time_of_local(t.local_time)
            };
            fired.push((true_at, t.payload));
        }
        self.advanced_to = Some(self.advanced_to.map_or(now, |prev| prev.max(now)));
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_fires_exactly_on_time() {
        let mut ex = ScheduledExecutor::new(HardwareClock::perfect());
        ex.arm(1_000, "update-v2");
        ex.arm(2_000, "update-v3");
        assert_eq!(ex.armed(), 2);
        assert!(ex.advance_to(999).is_empty());
        let fired = ex.advance_to(1_500);
        assert_eq!(fired, vec![(1_000, "update-v2")]);
        let fired = ex.advance_to(5_000);
        assert_eq!(fired, vec![(2_000, "update-v3")]);
        assert_eq!(ex.armed(), 0);
    }

    #[test]
    fn skewed_clock_fires_early_or_late_by_its_error() {
        // Clock running 500 ns fast: local time reaches the trigger
        // 500 ns of true time early.
        let fast = HardwareClock::new(500, 0);
        let mut ex = ScheduledExecutor::new(fast);
        ex.arm(10_000, ());
        let fired = ex.advance_to(9_500);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 9_500);

        let slow = HardwareClock::new(-500, 0);
        let mut ex = ScheduledExecutor::new(slow);
        ex.arm(10_000, ());
        assert!(ex.advance_to(10_000).is_empty());
        let fired = ex.advance_to(10_500);
        assert_eq!(fired[0].0, 10_500);
    }

    #[test]
    fn triggers_fire_in_order_regardless_of_arming_order() {
        let mut ex = ScheduledExecutor::new(HardwareClock::perfect());
        ex.arm(3_000, 'c');
        ex.arm(1_000, 'a');
        ex.arm(2_000, 'b');
        let fired: Vec<char> = ex.advance_to(10_000).into_iter().map(|(_, p)| p).collect();
        assert_eq!(fired, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_fire_in_arming_order() {
        let mut ex = ScheduledExecutor::new(HardwareClock::perfect());
        ex.arm(1_000, 'x');
        ex.arm(1_000, 'y');
        ex.arm(1_000, 'z');
        let fired: Vec<char> = ex.advance_to(1_000).into_iter().map(|(_, p)| p).collect();
        assert_eq!(fired, vec!['x', 'y', 'z']);
    }

    #[test]
    fn true_fire_time_matches_clock_inversion() {
        let clock = HardwareClock::new(250, 5_000);
        let ex: ScheduledExecutor<()> = ScheduledExecutor::new(clock);
        assert_eq!(
            ex.true_fire_time(1_000_000),
            clock.true_time_of_local(1_000_000)
        );
    }

    #[test]
    fn late_arming_clamps_reported_fire_time_to_the_advance() {
        // Regression: a trigger armed for a local time already in the
        // past used to report a *true* fire time earlier than `now` —
        // before the trigger even existed.
        let mut ex = ScheduledExecutor::new(HardwareClock::perfect());
        assert!(ex.advance_to(5_000).is_empty());
        ex.arm(1_000, "late");
        let fired = ex.advance_to(6_000);
        assert_eq!(fired, vec![(6_000, "late")]);

        // A trigger armed in time still reports its nominal instant,
        // even when the advance lands well past it.
        ex.arm(7_000, "on-time");
        let fired = ex.advance_to(9_000);
        assert_eq!(fired, vec![(7_000, "on-time")]);
    }

    #[test]
    fn clear_disarms_everything() {
        let mut ex = ScheduledExecutor::new(HardwareClock::perfect());
        ex.arm(1_000, ());
        ex.arm(2_000, ());
        assert_eq!(ex.clear(), 2);
        assert_eq!(ex.armed(), 0);
        assert!(ex.advance_to(10_000).is_empty());
        assert_eq!(ex.next_local_time(), None);
    }

    #[test]
    fn next_local_time_tracks_the_heap_top() {
        let mut ex = ScheduledExecutor::new(HardwareClock::perfect());
        assert_eq!(ex.next_local_time(), None);
        ex.arm(2_000, ());
        ex.arm(1_000, ());
        assert_eq!(ex.next_local_time(), Some(1_000));
        ex.advance_to(1_500);
        assert_eq!(ex.next_local_time(), Some(2_000));
    }

    #[test]
    fn ten_thousand_triggers_drain_quickly() {
        // Smoke guard for the O(n log n) heap path: arm 10k triggers in
        // adversarial (descending) order and drain them; the old
        // sort-per-arm + remove(0) implementation made this quadratic.
        let mut ex = ScheduledExecutor::new(HardwareClock::perfect());
        for i in (0..10_000i128).rev() {
            ex.arm(i, i);
        }
        let fired = ex.advance_to(20_000);
        assert_eq!(fired.len(), 10_000);
        assert!(fired.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
