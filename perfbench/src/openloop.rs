//! Open-loop request scheduling: request `i` is due at `i / rate`
//! seconds whatever happened to earlier requests, and its latency is
//! timed from that due time, so a stall also charges the requests it
//! held back. How late the generator itself sent is kept separately as
//! a validity check on the run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A fixed-rate schedule of `count` requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate_per_s: f64,
    pub count: usize,
}

impl Schedule {
    pub fn new(rate_per_s: f64, duration: Duration) -> Self {
        Schedule { rate_per_s, count: (rate_per_s * duration.as_secs_f64()).floor() as usize }
    }

    /// When request `i` is due, as an offset from the start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// How one open-loop request was timed, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Completion minus due time.
    pub latency_ms: f64,
    /// How late the generator sent it (0 when on time).
    pub lag_ms: f64,
}

/// Accounts one request from its offsets since the start.
pub fn account(due: Duration, sent: Duration, done: Duration) -> Timing {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Timing {
        latency_ms: ms(done.saturating_sub(due.min(sent))),
        lag_ms: ms(sent.saturating_sub(due)),
    }
}

/// Runs `schedule` from `senders` threads, calling `send(i)` for each
/// request at (or after) its due time. Results come back in request
/// order.
pub fn run<T: Send>(
    schedule: &Schedule,
    senders: usize,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<(Timing, T)> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(schedule.count));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= schedule.count {
                    break;
                }
                let due = schedule.due(i);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let out = send(i);
                let timing = account(due, sent, start.elapsed());
                results.lock().expect("a sender panicked").push((i, timing, out));
            });
        }
    });
    let mut results = results.into_inner().expect("a sender panicked");
    results.sort_by_key(|r| r.0);
    results.into_iter().map(|(_, timing, out)| (timing, out)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn latency_counts_from_due_and_lag_from_send() {
        let t = account(ms(10), ms(15), ms(20));
        assert_eq!(t, Timing { latency_ms: 10.0, lag_ms: 5.0 });
        // A sender that woke a little early is not credited for it.
        let t = account(ms(10), ms(9), ms(12));
        assert_eq!(t, Timing { latency_ms: 3.0, lag_ms: 0.0 });
    }

    #[test]
    fn schedule_spaces_requests_by_rate() {
        let s = Schedule::new(200.0, Duration::from_secs(3));
        assert_eq!(s.count, 600);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(100), Duration::from_millis(500));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_held_back() {
        // One sender, 1 ms spacing: request 0 stalls 30 ms, so requests
        // 1..5 leave late and their latency includes the wait.
        let schedule = Schedule { rate_per_s: 1000.0, count: 6 };
        let out = run(&schedule, 1, |i| {
            if i == 0 {
                std::thread::sleep(ms(30));
            }
            i
        });
        assert_eq!(out.iter().map(|r| r.1).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        assert!(out[0].0.latency_ms >= 30.0);
        for (timing, i) in &out[1..] {
            assert!(timing.lag_ms >= 30.0 - *i as f64 - 0.5, "{i}: {timing:?}");
            assert!(timing.latency_ms >= timing.lag_ms);
        }
    }
}
