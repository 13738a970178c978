//! Load generators. A closed loop sends a connection's next request only
//! after the previous reply, so a slow server receives less load. The
//! open loop sends on a fixed schedule: a request is timed from when it
//! was *due*, so a stalled reply charges the wait it imposes on the
//! requests queued behind it, and how late the generator ran is reported.

use std::time::{Duration, Instant};

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return once `now_ns() >= t_ns` (immediately if already past).
    fn wait_until(&self, t_ns: u64);
}

/// Monotonic wall clock shared by every thread of a phase.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    pub fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        // Sleep most of the way, then spin: a sleep alone overshoots by
        // the timer slack, which would be charged to every request.
        const SPIN_NS: u64 = 150_000;
        let now = self.now_ns();
        if t_ns > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(t_ns - now - SPIN_NS));
        }
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

/// When one operation was due (open loop only; equals `sent_ns` in a
/// closed loop), sent and answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub end_ns: u64,
}

impl Timing {
    /// Latency as the caller saw it: from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Run `op(0..n)` back to back, stopping early when `op` returns false.
pub fn closed_loop(clock: &impl Clock, n: usize, mut op: impl FnMut(usize) -> bool) -> Vec<Timing> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let sent_ns = clock.now_ns();
        let go_on = op(i);
        out.push(Timing {
            due_ns: sent_ns,
            sent_ns,
            end_ns: clock.now_ns(),
        });
        if !go_on {
            break;
        }
    }
    out
}

/// Run `op(0..n)` with operation `i` due at `start_ns + i * interval_ns`,
/// over one connection: an operation is sent at its due time, or as soon
/// as the previous reply arrives if that is later. Stops early when `op`
/// returns false.
pub fn open_loop(
    clock: &impl Clock,
    n: usize,
    start_ns: u64,
    interval_ns: u64,
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Timing> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let due_ns = start_ns + i as u64 * interval_ns;
        clock.wait_until(due_ns);
        let sent_ns = clock.now_ns();
        let go_on = op(i);
        out.push(Timing {
            due_ns,
            sent_ns,
            end_ns: clock.now_ns(),
        });
        if !go_on {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn a_stalled_reply_charges_the_requests_queued_behind_it() {
        let clock = FakeClock(Cell::new(0));
        // Every reply takes 10 except the third, which stalls for 350
        // while three more requests fall due.
        let timings = open_loop(&clock, 7, 0, 100, |i| {
            let service = if i == 2 { 350 } else { 10 };
            clock.0.set(clock.0.get() + service);
            true
        });
        let latency: Vec<u64> = timings.iter().map(Timing::latency_ns).collect();
        let late: Vec<u64> = timings.iter().map(Timing::late_ns).collect();
        assert_eq!(latency, vec![10, 10, 350, 260, 170, 80, 10]);
        assert_eq!(late, vec![0, 0, 0, 250, 160, 70, 0]);
        // Timed from the send instead, the stall would have hidden in one
        // sample: every other request "took" 10.
        let from_send: Vec<u64> = timings.iter().map(|t| t.end_ns - t.sent_ns).collect();
        assert_eq!(from_send, vec![10, 10, 350, 10, 10, 10, 10]);
    }

    #[test]
    fn closed_loop_sends_back_to_back_and_stops_when_told() {
        let clock = FakeClock(Cell::new(5));
        let timings = closed_loop(&clock, 10, |i| {
            clock.0.set(clock.0.get() + 20);
            i < 2
        });
        assert_eq!(timings.len(), 3, "the op that said stop is still counted");
        assert_eq!(timings[1].sent_ns, timings[0].end_ns);
        assert!(timings
            .iter()
            .all(|t| t.late_ns() == 0 && t.latency_ns() == 20));
    }

    #[test]
    fn wall_clock_waits_at_least_until_the_due_time() {
        let clock = WallClock::start();
        let due = clock.now_ns() + 2_000_000;
        clock.wait_until(due);
        assert!(clock.now_ns() >= due);
        clock.wait_until(0); // already past: returns at once
    }
}
