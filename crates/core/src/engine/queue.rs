//! Shared bounded job queue feeding the worker pool.
//!
//! A `Condvar`-signalled deque: pool workers block in [`JobQueue::pop`],
//! and producers either fail fast or wait for space. The lock is held
//! only for queue surgery, never while waiting for or executing a job.
//!
//! The queue is the engine's admission-control point: it holds at most
//! `capacity` jobs. [`JobQueue::push`] *rejects* overload with
//! [`Error::QueueFull`]; [`JobQueue::push_blocking`] *waits* for space,
//! bounded by an optional deadline budget ([`Error::Timeout`]). Either
//! way queue memory stays bounded no matter how fast producers outrun
//! the pool.
//!
//! The queue is generic over the job type and built exclusively on the
//! `crate::sync` shim, so the loom suite
//! (`crates/core/tests/loom_engine.rs`) model-checks exactly the code
//! that runs in production: racing workers, concurrent shutdown, and
//! both wakeup protocols (`ready` for poppers, `space` for blocked
//! pushers) are all explored exhaustively under `--cfg loom`.

use crate::sync::{wait_timeout, Condvar, Mutex};
use bear_sparse::{Error, Result};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Shared multi-producer multi-consumer bounded job queue with explicit
/// shutdown.
///
/// Invariants maintained across all interleavings (loom-checked):
///
/// * every job accepted by a push is handed to exactly one popper;
/// * the queue never holds more than `capacity` jobs;
/// * after [`JobQueue::close`], pushes fail and blocked poppers drain
///   the backlog then observe `None`; blocked pushers wake and fail with
///   [`Error::PoolShutDown`];
/// * a successful push wakes at least one blocked popper, and a pop
///   wakes at least one blocked pusher (the lost-wakeup regressions are
///   demonstrated caught by the loom suite via
///   `JobQueue::push_without_notify` / `JobQueue::pop_without_notify`,
///   compiled only under `cfg(any(test, loom))`).
pub struct JobQueue<T> {
    state: Mutex<JobQueueState<T>>,
    /// Signalled on push: wakes workers blocked in [`JobQueue::pop`].
    ready: Condvar,
    /// Signalled on pop: wakes producers blocked in
    /// [`JobQueue::push_blocking`] on a full queue.
    space: Condvar,
    capacity: usize,
}

struct JobQueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// An open, empty, effectively unbounded queue.
    pub fn new() -> Self {
        Self::bounded(usize::MAX)
    }

    /// An open, empty queue holding at most `capacity` jobs (clamped to
    /// at least 1 — a queue that can hold nothing would deadlock every
    /// protocol built on it).
    pub fn bounded(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(JobQueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (racy by nature; for metrics and tests).
    pub fn len(&self) -> usize {
        self.state.lock().map_or(0, |s| s.jobs.len())
    }

    /// Whether the queue is currently empty (racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a job and wakes one worker. Fails with
    /// [`Error::QueueFull`] when at capacity (load shedding) and
    /// [`Error::PoolShutDown`] once closed.
    pub fn push(&self, job: T) -> Result<()> {
        {
            let mut state = self.lock_state()?;
            if state.closed {
                return Err(Error::PoolShutDown);
            }
            if state.jobs.len() >= self.capacity {
                return Err(Error::QueueFull { capacity: self.capacity });
            }
            state.jobs.push_back(job);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueues a job, blocking while the queue is full until space
    /// frees up, the optional `budget` elapses ([`Error::Timeout`]), or
    /// the queue closes ([`Error::PoolShutDown`]).
    ///
    /// This is the block-with-deadline overload policy: producers are
    /// backpressured instead of shed, but never parked forever.
    pub fn push_blocking(&self, job: T, budget: Option<Duration>) -> Result<()> {
        let deadline = budget.map(|b| (b, Instant::now() + b));
        let mut state = self.lock_state()?;
        loop {
            if state.closed {
                return Err(Error::PoolShutDown);
            }
            if state.jobs.len() < self.capacity {
                state.jobs.push_back(job);
                drop(state);
                self.ready.notify_one();
                return Ok(());
            }
            state = match deadline {
                Some((budget, at)) => {
                    let now = Instant::now();
                    if now >= at {
                        return Err(Error::Timeout { budget });
                    }
                    wait_timeout(&self.space, state, at - now).ok_or(Error::PoolShutDown)?
                }
                None => self.space.wait(state).map_err(|_| Error::PoolShutDown)?,
            };
        }
    }

    /// [`JobQueue::push`] without the worker wakeup — a deliberately
    /// reintroduced lost-notification bug, kept compiled only for the
    /// model-checking suite, which demonstrates that the loom models
    /// catch the resulting deadlock (`lost_notify_is_caught` in
    /// `crates/core/tests/loom_engine.rs`).
    #[cfg(any(test, loom))]
    pub fn push_without_notify(&self, job: T) -> Result<()> {
        let mut state = self.lock_state()?;
        if state.closed {
            return Err(Error::PoolShutDown);
        }
        if state.jobs.len() >= self.capacity {
            return Err(Error::QueueFull { capacity: self.capacity });
        }
        state.jobs.push_back(job);
        Ok(())
    }

    /// [`JobQueue::pop`] without the space wakeup — the symmetric seeded
    /// bug for the bounded-queue protocol: a producer blocked in
    /// [`JobQueue::push_blocking`] is never woken when a slot frees.
    /// Compiled only for the model-checking suite
    /// (`lost_space_notify_is_caught`).
    #[cfg(any(test, loom))]
    pub fn pop_without_notify(&self) -> Option<T> {
        let mut state = self.state.lock().ok()?;
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).ok()?;
        }
    }

    /// Blocks until a job is available; `None` once closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().ok()?;
        loop {
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).ok()?;
        }
    }

    /// Closes the queue and wakes every blocked worker and producer.
    pub fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.ready.notify_all();
        self.space.notify_all();
    }

    fn lock_state(&self) -> Result<crate::sync::MutexGuard<'_, JobQueueState<T>>> {
        // A poisoned lock means a producer or worker panicked mid-surgery;
        // the queue is unusable, which callers observe as a shutdown.
        self.state.lock().map_err(|_| Error::PoolShutDown)
    }
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}
