//! A small discrete-event scheduler.
//!
//! The `des_scenario` test (`tests/des_scenario.rs`) uses it to drive load
//! changes and migration decisions on the virtual timeline, independent of
//! the thread-based RMI path. Events are closures over a user state `S`;
//! handlers may schedule further events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// An event: fires at `at`, invoking the closure with the scheduler (to post
/// more events) and the user state.
type Handler<S> = Box<dyn FnOnce(&mut Scheduler<S>, &mut S)>;

struct Entry<S> {
    at: SimTime,
    seq: u64,
    handler: Handler<S>,
}

impl<S> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Entry<S> {}
impl<S> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Discrete-event scheduler over user state `S`.
///
/// Events at equal times fire in insertion order (FIFO tie-break), which
/// keeps experiment traces fully deterministic.
pub struct Scheduler<S> {
    queue: BinaryHeap<Reverse<Entry<S>>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Scheduler<S> {
    /// Empty scheduler at t=0.
    pub fn new() -> Self {
        Self { queue: BinaryHeap::new(), now: SimTime::ZERO, next_seq: 0, processed: 0 }
    }

    /// Current virtual time (time of the most recently fired event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `handler` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics.
    pub fn at(&mut self, at: SimTime, handler: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static) {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Entry { at, seq, handler: Box::new(handler) }));
    }

    /// Schedules `handler` `dt` after now.
    pub fn after(&mut self, dt: SimTime, handler: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static) {
        let at = self.now + dt;
        self.at(at, handler);
    }

    /// Runs events until the queue drains or `limit` events have fired.
    /// Returns the number fired in this call.
    pub fn run(&mut self, state: &mut S, limit: u64) -> u64 {
        let mut fired = 0;
        while fired < limit {
            let Some(Reverse(entry)) = self.queue.pop() else { break };
            self.now = entry.at;
            (entry.handler)(self, state);
            self.processed += 1;
            fired += 1;
        }
        fired
    }

    /// Runs until drained (with a generous safety cap to catch runaway
    /// self-scheduling loops in tests).
    pub fn run_to_completion(&mut self, state: &mut S) -> u64 {
        self.run(state, 10_000_000)
    }

    /// Runs events with firing time `<= until`, leaving later events queued.
    /// The clock ends at `until` (or later if an executed event was at
    /// exactly `until`). Returns the number of events fired. This is the
    /// natural driver for periodically-self-scheduling processes (balancer
    /// checks, monitors) that would otherwise never drain.
    pub fn run_until(&mut self, state: &mut S, until: SimTime) -> u64 {
        let mut fired = 0;
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > until {
                break;
            }
            let Some(Reverse(entry)) = self.queue.pop() else { break };
            self.now = entry.at;
            (entry.handler)(self, state);
            self.processed += 1;
            fired += 1;
            if fired > 10_000_000 {
                panic!("run_until runaway: more than 10M events before {until}");
            }
        }
        if self.now < until {
            self.now = until;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.at(SimTime(30), |_, v| v.push(3));
        s.at(SimTime(10), |_, v| v.push(1));
        s.at(SimTime(20), |_, v| v.push(2));
        let mut log = Vec::new();
        assert_eq!(s.run_to_completion(&mut log), 3);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime(30));
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        for i in 0..10 {
            s.at(SimTime(5), move |_, v| v.push(i));
        }
        let mut log = Vec::new();
        s.run_to_completion(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        fn tick(s: &mut Scheduler<Vec<u64>>, v: &mut Vec<u64>) {
            v.push(s.now().0);
            if v.len() < 5 {
                s.after(SimTime(100), tick);
            }
        }
        s.at(SimTime(0), tick);
        let mut log = Vec::new();
        s.run_to_completion(&mut log);
        assert_eq!(log, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn run_respects_limit() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            s.at(SimTime(i), |_, n| *n += 1);
        }
        let mut count = 0;
        assert_eq!(s.run(&mut count, 4), 4);
        assert_eq!(count, 4);
        assert_eq!(s.run_to_completion(&mut count), 6);
        assert_eq!(count, 10);
    }

    #[test]
    fn run_until_stops_at_the_boundary() {
        // a self-rescheduling ticker never drains; run_until bounds it
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        fn tick(s: &mut Scheduler<Vec<u64>>, v: &mut Vec<u64>) {
            v.push(s.now().0);
            s.after(SimTime(100), tick);
        }
        s.at(SimTime(100), tick);
        let mut log = Vec::new();
        assert_eq!(s.run_until(&mut log, SimTime(450)), 4);
        assert_eq!(log, vec![100, 200, 300, 400]);
        assert_eq!(s.now(), SimTime(450), "clock advances to the boundary");
        // events after the boundary remain queued and run later
        assert_eq!(s.run_until(&mut log, SimTime(600)), 2);
        assert_eq!(log.last(), Some(&600));
    }

    #[test]
    fn run_until_with_empty_queue_just_advances_time() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert_eq!(s.run_until(&mut (), SimTime(1000)), 0);
        assert_eq!(s.now(), SimTime(1000));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.at(SimTime(100), |s, _| {
            s.at(SimTime(50), |_, _| {});
        });
        s.run_to_completion(&mut ());
    }
}
