//! The admission-control gate (§4.3).
//!
//! "The admission to the transaction processing system is controlled by a
//! 'gate' that accepts an arriving transaction if and only if the actual
//! load n is below the current threshold n*. Otherwise the transaction has
//! to wait in a FCFS-queue. Waiting transactions are admitted as soon as
//! n < n* holds again."
//!
//! [`AdaptiveGate`] is that mechanism as a real, thread-safe concurrency
//! limiter — usable in an actual server, not only in the simulator (which
//! has its own event-driven gate in `alc-tpsim`). Properties:
//!
//! * **FCFS fairness**: admissions happen strictly in arrival order
//!   (ticket-based), matching the paper's queue discipline.
//! * **Live limit updates**: a controller thread can lower or raise `n*`
//!   at any time; raising wakes waiters immediately. Lowering never aborts
//!   running work — the paper's recommended admission-only realization
//!   ("not displacing transactions has a smoothing effect … that supports
//!   controller stability"); the population drains to the new limit by
//!   normal departures.
//! * **RAII permits**: dropping a [`Permit`]/[`OwnedPermit`] releases the
//!   slot, so a panicking worker cannot leak MPL capacity.
//! * **Wait statistics** for the measurement pipeline.
//!
//! # Shape: an atomic word in front, a locked queue behind
//!
//! `n*` and `n` live in one packed `AtomicU64` (`limit << 32 | in_use`),
//! beside an atomic count of queued waiters. While nobody is queued, an
//! admission is one compare-and-swap that raises `in_use` if it is below
//! `limit`, and a release is one `fetch_sub`; neither touches the mutex
//! or the condition variable. The entry CAS refuses while any waiter is
//! queued, so a newcomer never overtakes the queue and FCFS holds. Only
//! an arrival that finds the gate full takes the mutex: it draws a
//! ticket, and the ticket queue, the abandonment set and the wait
//! statistics all live under that mutex, on the queued path only.
//!
//! # Why no wakeup is lost
//!
//! A waiter increments the waiter count *under the mutex* and only then
//! makes its final capacity check, still under the mutex, before it
//! parks on the condition variable (which releases the mutex atomically).
//! A releaser (or `set_limit`) first changes the word and then reads the
//! waiter count; if it is non-zero it takes the mutex and notifies under
//! it. All four accesses are `SeqCst`, so of "waiter bumps the count,
//! then reads the word" and "releaser writes the word, then reads the
//! count" at least one side sees the other's write. Either the waiter
//! sees the freed slot and never parks, or the releaser sees the waiter.
//! In the second case the releaser's lock acquisition orders after the
//! waiter's critical section, which ends only when the waiter is parked
//! or admitted, so the notification cannot fall into the gap between
//! the check and the park. Queue hand-offs (an admitted or abandoning
//! head makes the next ticket the head) happen under the mutex and
//! notify before it is released.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Snapshot of the gate's counters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GateStats {
    /// Current admission limit `n*`.
    pub limit: u32,
    /// Permits currently held (the actual load `n`).
    pub in_use: u32,
    /// Arrivals currently blocked in the FCFS queue.
    pub waiting: u32,
    /// Total admissions since construction.
    pub total_admitted: u64,
    /// Acquisitions abandoned (timeout) since construction.
    pub total_abandoned: u64,
    /// Mean time admitted arrivals spent queued, milliseconds (over all
    /// admissions; one that never queued waited zero).
    pub mean_wait_ms: f64,
}

/// The low half of the packed word: permits held.
const IN_USE: u64 = u32::MAX as u64;

fn limit_of(word: u64) -> u32 {
    (word >> 32) as u32
}

fn in_use_of(word: u64) -> u32 {
    (word & IN_USE) as u32
}

/// `word` with one more permit held, if `in_use < limit`.
fn with_one_more(word: u64) -> Option<u64> {
    (in_use_of(word) < limit_of(word)).then_some(word + 1)
}

/// The queued path's state; only arrivals that found the gate full touch
/// it.
#[derive(Debug, Default)]
struct Queue {
    next_ticket: u64,
    /// The head's ticket. Between critical sections it is either
    /// `next_ticket` (queue empty) or a live waiter's ticket.
    serving: u64,
    abandoned: HashSet<u64>,
    /// Admissions through the queue.
    admitted: u64,
    total_abandoned: u64,
    wait_sum_ms: f64,
}

impl Queue {
    /// Moves the head on, skipping tickets whose owners gave up so the
    /// queue never stalls behind a ghost.
    fn advance(&mut self) {
        self.serving += 1;
        while self.abandoned.remove(&self.serving) {
            self.serving += 1;
        }
    }
}

/// A thread-safe, FIFO-fair concurrency limiter with a live-updatable
/// limit. See the module docs for the design and its wakeup argument.
#[derive(Debug)]
pub struct AdaptiveGate {
    /// `limit << 32 | in_use`.
    word: AtomicU64,
    /// Arrivals parked in the queue. Changed only under `queue`; read
    /// without it by the entry CAS and by releasers.
    waiters: AtomicU32,
    /// Admissions through the entry CAS (they waited zero).
    entered: AtomicU64,
    queue: Mutex<Queue>,
    cond: Condvar,
}

impl AdaptiveGate {
    /// Creates a gate admitting at most `limit` concurrent holders.
    pub fn new(limit: u32) -> Self {
        AdaptiveGate {
            word: AtomicU64::new(u64::from(limit) << 32),
            waiters: AtomicU32::new(0),
            entered: AtomicU64::new(0),
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
        }
    }

    /// Blocks until admitted; returns a permit that releases on drop.
    pub fn acquire(&self) -> Permit<'_> {
        assert!(
            self.acquire_inner(None),
            "acquire without deadline cannot time out"
        );
        Permit { gate: self }
    }

    /// Blocks until admitted or until `timeout` elapses.
    // The gate is the documented real-time component: wall-clock
    // deadlines are its job, and the simulator never calls it.
    #[allow(clippy::disallowed_methods)]
    pub fn acquire_timeout(&self, timeout: Duration) -> Option<Permit<'_>> {
        self.acquire_inner(Some(Instant::now() + timeout))
            .then(|| Permit { gate: self })
    }

    /// Like [`AdaptiveGate::acquire`] but returns an `Arc`-owning permit
    /// that can move across threads and outlive the caller's borrow.
    pub fn acquire_owned(self: &Arc<Self>) -> OwnedPermit {
        assert!(
            self.acquire_inner(None),
            "acquire without deadline cannot time out"
        );
        OwnedPermit {
            gate: Arc::clone(self),
        }
    }

    /// Admits immediately if the queue is empty and capacity is free;
    /// never blocks and never jumps the FCFS queue.
    pub fn try_acquire(&self) -> Option<Permit<'_>> {
        // Lazily: a permit built on refusal would release on drop a slot
        // it never held.
        self.enter().then(|| Permit { gate: self })
    }

    /// The entry CAS: takes a slot if nobody is queued and one is free.
    fn enter(&self) -> bool {
        let entered = self.waiters.load(Ordering::SeqCst) == 0
            && self
                .word
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, with_one_more)
                .is_ok();
        if entered {
            self.entered.fetch_add(1, Ordering::Relaxed);
        }
        entered
    }

    fn acquire_inner(&self, deadline: Option<Instant>) -> bool {
        self.enter() || self.wait_in_line(deadline)
    }

    /// The queued path: draws a ticket and parks until it is the head and
    /// a slot is free, or until `deadline`.
    #[allow(clippy::disallowed_methods)] // real-time wait timing, see acquire_timeout
    fn wait_in_line(&self, deadline: Option<Instant>) -> bool {
        let start = Instant::now();
        let mut q = self.queue.lock();
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        // Announce before the capacity check below: the wakeup argument.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut timed_out = false;
        loop {
            // The head takes a slot regardless of `waiters`: it is the
            // one they are waiting behind.
            if q.serving == ticket
                && self
                    .word
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, with_one_more)
                    .is_ok()
            {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                q.admitted += 1;
                q.wait_sum_ms += start.elapsed().as_secs_f64() * 1000.0;
                q.advance();
                // The new head may fit too (a raise can open several
                // slots): cascade the wakeup.
                self.notify_queued(&q);
                return true;
            }
            if timed_out {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                q.total_abandoned += 1;
                if q.serving == ticket {
                    q.advance();
                    self.notify_queued(&q);
                } else {
                    q.abandoned.insert(ticket);
                }
                return false;
            }
            match deadline {
                None => self.cond.wait(&mut q),
                // One last look after the deadline: a waiter that won
                // the race at the deadline is still admitted.
                Some(d) => timed_out = self.cond.wait_until(&mut q, d).timed_out(),
            }
        }
    }

    /// Wakes the queue if anyone is in it. Called with the mutex held
    /// (the guard proves it), so no waiter can be between its capacity
    /// check and its park.
    fn notify_queued(&self, _held: &MutexGuard<'_, Queue>) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.cond.notify_all();
        }
    }

    /// Takes the mutex and wakes the queue, but only if anyone is in it.
    fn wake_queued(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            let q = self.queue.lock();
            self.cond.notify_all();
            drop(q);
        }
    }

    fn release(&self) {
        let before = self.word.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(in_use_of(before) > 0, "release without a held permit");
        self.wake_queued();
    }

    /// Replaces the admission limit `n*`. Raising it wakes queued
    /// arrivals; lowering it only affects future admissions (no
    /// displacement — §4.3).
    pub fn set_limit(&self, limit: u32) {
        let high = u64::from(limit) << 32;
        // The closure never refuses, so the update cannot fail.
        let _ = self
            .word
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                Some(high | (w & IN_USE))
            });
        self.wake_queued();
    }

    /// The current admission limit.
    pub fn limit(&self) -> u32 {
        limit_of(self.word.load(Ordering::SeqCst))
    }

    /// Permits currently held.
    pub fn in_use(&self) -> u32 {
        in_use_of(self.word.load(Ordering::SeqCst))
    }

    /// A snapshot of all counters. The queue's counters are read under
    /// its mutex; `limit`, `in_use` and admissions that never queued can
    /// move while it is taken.
    pub fn stats(&self) -> GateStats {
        let q = self.queue.lock();
        let word = self.word.load(Ordering::SeqCst);
        let total_admitted = q.admitted + self.entered.load(Ordering::Relaxed);
        GateStats {
            limit: limit_of(word),
            in_use: in_use_of(word),
            waiting: self.waiters.load(Ordering::SeqCst),
            total_admitted,
            total_abandoned: q.total_abandoned,
            mean_wait_ms: if total_admitted == 0 {
                0.0
            } else {
                q.wait_sum_ms / total_admitted as f64
            },
        }
    }
}

/// A borrowed admission permit; releases its slot on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdaptiveGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// An owning admission permit (`Arc`-backed); releases its slot on drop.
#[derive(Debug)]
pub struct OwnedPermit {
    gate: Arc<AdaptiveGate>,
}

impl Drop for OwnedPermit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
// Tests drive the live gate with real threads; sleeps/instants are the workload.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};
    use std::thread;

    #[test]
    fn basic_acquire_release() {
        let gate = AdaptiveGate::new(2);
        let p1 = gate.acquire();
        let p2 = gate.acquire();
        assert_eq!(gate.in_use(), 2);
        assert!(gate.try_acquire().is_none());
        drop(p1);
        assert_eq!(gate.in_use(), 1);
        let p3 = gate.try_acquire();
        assert!(p3.is_some());
        drop(p2);
        drop(p3);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn permit_drop_on_panic_path_releases() {
        let gate = AdaptiveGate::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _p = gate.acquire();
            panic!("worker died");
        }));
        assert!(result.is_err());
        // The permit must have been returned.
        assert_eq!(gate.in_use(), 0);
        let _p = gate.try_acquire().expect("slot must be free again");
    }

    #[test]
    fn never_exceeds_limit_under_contention() {
        let gate = Arc::new(AdaptiveGate::new(4));
        let concurrent = Arc::new(AtomicI32::new(0));
        let peak = Arc::new(AtomicI32::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let gate = Arc::clone(&gate);
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let _p = gate.acquire_owned();
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4, "peak {:?}", peak);
        assert_eq!(gate.in_use(), 0);
        assert_eq!(gate.stats().total_admitted, 16 * 50);
    }

    #[test]
    fn fifo_admission_order() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let blocker = gate.acquire();
        let started = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for i in 0..5u32 {
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            let started = Arc::clone(&started);
            handles.push(thread::spawn(move || {
                // Serialize queue entry so ticket order == i order.
                while started.load(Ordering::SeqCst) != i {
                    std::hint::spin_loop();
                }
                let handle = thread::spawn({
                    let gate = Arc::clone(&gate);
                    let order = Arc::clone(&order);
                    move || {
                        let _p = gate.acquire_owned();
                        order.lock().push(i);
                    }
                });
                // Give the inner thread time to enqueue before releasing
                // the next spawner. `waiting` alone is not a safe condition:
                // it peaks at 5 only transiently, and on a single-core box
                // this thread can miss that window entirely once the main
                // thread drops the blocker and admissions begin. Admissions
                // are monotonic, so `total_admitted > 1` (beyond the
                // blocker's own) is a sticky "queue order already locked in"
                // signal.
                loop {
                    let s = gate.stats();
                    if s.waiting > i || s.total_admitted > 1 {
                        break;
                    }
                    std::thread::yield_now();
                }
                started.store(i + 1, Ordering::SeqCst);
                handle.join().unwrap();
            }));
        }
        while gate.stats().waiting < 5 {
            std::thread::yield_now();
        }
        drop(blocker);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn raising_limit_wakes_waiters() {
        let gate = Arc::new(AdaptiveGate::new(0));
        let admitted = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let gate = Arc::clone(&gate);
            let admitted = Arc::clone(&admitted);
            handles.push(thread::spawn(move || {
                let _p = gate.acquire_owned();
                admitted.fetch_add(1, Ordering::SeqCst);
            }));
        }
        while gate.stats().waiting < 3 {
            std::thread::yield_now();
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 0);
        gate.set_limit(3);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn lowering_limit_is_admission_only() {
        // Holders are never displaced; in_use may exceed the new limit
        // until permits drain.
        let gate = AdaptiveGate::new(2);
        let p1 = gate.acquire();
        let p2 = gate.acquire();
        gate.set_limit(1);
        assert_eq!(gate.in_use(), 2, "no displacement on limit drop");
        assert!(gate.try_acquire().is_none());
        drop(p1);
        assert!(gate.try_acquire().is_none(), "still at the new limit");
        drop(p2);
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn timeout_gives_up_and_queue_moves_on() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let blocker = gate.acquire();
        // This waiter times out…
        assert!(gate
            .acquire_timeout(Duration::from_millis(30))
            .is_none());
        assert_eq!(gate.stats().total_abandoned, 1);
        // …and must not wedge the queue for the next arrival.
        let gate2 = Arc::clone(&gate);
        let h = thread::spawn(move || {
            let _p = gate2.acquire_owned();
        });
        drop(blocker);
        h.join().unwrap();
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn timeout_zero_on_free_gate_still_admits() {
        let gate = AdaptiveGate::new(1);
        let p = gate.acquire_timeout(Duration::ZERO);
        assert!(p.is_some());
    }

    #[test]
    fn try_acquire_respects_queue() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let blocker = gate.acquire();
        let gate2 = Arc::clone(&gate);
        let h = thread::spawn(move || {
            let _p = gate2.acquire_owned();
        });
        while gate.stats().waiting < 1 {
            std::thread::yield_now();
        }
        drop(blocker);
        // Even the instant the slot frees, try_acquire must not overtake
        // the queued waiter.
        let stolen = gate.try_acquire();
        assert!(
            stolen.is_none() || gate.stats().waiting == 0,
            "try_acquire jumped the FCFS queue"
        );
        drop(stolen);
        h.join().unwrap();
    }

    #[test]
    fn stats_track_waiting_and_wait_time() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let blocker = gate.acquire();
        let gate2 = Arc::clone(&gate);
        let h = thread::spawn(move || {
            let _p = gate2.acquire_owned();
        });
        while gate.stats().waiting < 1 {
            std::thread::yield_now();
        }
        thread::sleep(Duration::from_millis(20));
        drop(blocker);
        h.join().unwrap();
        let stats = gate.stats();
        assert_eq!(stats.waiting, 0);
        assert_eq!(stats.total_admitted, 2);
        assert!(
            stats.mean_wait_ms >= 5.0,
            "queued thread waited ~20ms, stats say {}",
            stats.mean_wait_ms
        );
    }

    #[test]
    fn zero_limit_blocks_everyone() {
        let gate = AdaptiveGate::new(0);
        assert!(gate.try_acquire().is_none());
        assert!(gate.acquire_timeout(Duration::from_millis(10)).is_none());
    }
}
