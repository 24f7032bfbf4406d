//! Concurrency stress tests of the adaptive gate: many threads, live
//! limit changes, timeout storms. These are the conditions a production
//! admission controller actually faces.

// The point of this suite is to exercise the live, wall-clock gate with
// real threads — sleeps and timeouts ARE the workload here.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alc_core::gate::AdaptiveGate;

#[test]
fn limit_churn_never_overschedules() {
    let gate = Arc::new(AdaptiveGate::new(4));
    let running = Arc::new(AtomicBool::new(true));
    let concurrent = Arc::new(AtomicI64::new(0));
    let violations = Arc::new(AtomicI64::new(0));

    // A controller thread sweeps the limit up and down.
    let limiter = {
        let gate = Arc::clone(&gate);
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            let mut limit = 1u32;
            let mut up = true;
            // SeqCst: this load is the first link in the chain that lets
            // drain-admitted workers trust their own `running` read (store
            // in main → this load → drain set_limit under the gate mutex →
            // worker admission → worker load).
            while running.load(Ordering::SeqCst) {
                gate.set_limit(limit);
                if up {
                    limit += 1;
                    if limit >= 12 {
                        up = false;
                    }
                } else {
                    limit -= 1;
                    if limit <= 1 {
                        up = true;
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            gate.set_limit(64); // let everyone drain
        })
    };

    let mut workers = Vec::new();
    for _ in 0..16 {
        let gate = Arc::clone(&gate);
        let running = Arc::clone(&running);
        let concurrent = Arc::clone(&concurrent);
        let violations = Arc::clone(&violations);
        workers.push(std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                let permit = gate.acquire_owned();
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                // The limit is in motion; admission-only semantics allow
                // in-flight work to exceed a *freshly lowered* limit, but
                // never the historical maximum the limiter ever set — while
                // the churn is live. The final drain (`set_limit(64)` after
                // shutdown) releases every blocked worker at once, so a
                // worker admitted by it must not count its burst: re-check
                // `running` after admission. SeqCst pairs with the store in
                // the main thread so a worker admitted by the drain cannot
                // observe a stale `true`.
                if now > 12 && running.load(Ordering::SeqCst) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::yield_now();
                concurrent.fetch_sub(1, Ordering::SeqCst);
                drop(permit);
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(300));
    running.store(false, Ordering::SeqCst);
    limiter.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(
        violations.load(Ordering::SeqCst),
        0,
        "admissions exceeded the maximum limit ever set"
    );
    assert_eq!(gate.in_use(), 0);
}

#[test]
fn timeout_storm_leaves_consistent_state() {
    let gate = Arc::new(AdaptiveGate::new(1));
    let blocker = gate.acquire();
    let mut handles = Vec::new();
    for _ in 0..12 {
        let gate = Arc::clone(&gate);
        handles.push(std::thread::spawn(move || {
            let mut gave_up = 0;
            for _ in 0..20 {
                if gate.acquire_timeout(Duration::from_micros(100)).is_none() {
                    gave_up += 1;
                }
            }
            gave_up
        }));
    }
    let abandoned: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(abandoned > 0, "storm produced no timeouts at all");
    drop(blocker);
    // After the storm, the gate must be fully functional and FIFO-clean.
    let stats = gate.stats();
    assert_eq!(stats.waiting, 0);
    assert_eq!(stats.total_abandoned, abandoned as u64);
    let p1 = gate.acquire();
    assert!(gate.try_acquire().is_none());
    drop(p1);
    assert!(gate.try_acquire().is_some());
}

#[test]
fn throughput_under_contention_is_live() {
    // Liveness: with a small limit and many threads, everyone keeps
    // making progress (no lost wakeups).
    let gate = Arc::new(AdaptiveGate::new(2));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let gate = Arc::clone(&gate);
        handles.push(std::thread::spawn(move || {
            for _ in 0..200 {
                let p = gate.acquire_owned();
                std::hint::black_box(&p);
            }
        }));
    }
    for h in handles {
        h.join().expect("a worker wedged");
    }
    assert_eq!(gate.stats().total_admitted, 8 * 200);
}

#[test]
fn raising_limit_mid_queue_admits_in_order() {
    let gate = Arc::new(AdaptiveGate::new(0));
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let release = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for i in 0..6u32 {
        // Serialize enqueueing so ticket order is deterministic.
        while gate.stats().waiting < i {
            std::thread::yield_now();
        }
        let gate = Arc::clone(&gate);
        let order = Arc::clone(&order);
        let release = Arc::clone(&release);
        handles.push(std::thread::spawn(move || {
            let _p = gate.acquire_owned();
            order.lock().push(i);
            // Hold the permit until the test is done raising, so each
            // raise admits exactly one waiter (a dropped permit would
            // admit the next one out from under the raise sequence).
            while !release.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }));
    }
    while gate.stats().waiting < 6 {
        std::thread::yield_now();
    }
    // Open one slot at a time; every raise must admit exactly the FIFO
    // head, observed via its push before the next raise.
    for k in 1..=6u32 {
        gate.set_limit(k);
        while order.lock().len() < k as usize {
            std::thread::yield_now();
        }
    }
    release.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let order = order.lock();
    assert_eq!(*order, vec![0, 1, 2, 3, 4, 5], "FIFO violated across limit raises");
}

/// Tallies of one hand-off worker, by how it asked.
#[derive(Default)]
struct HandOff {
    owned: u64,
    tried: u64,
    timed: u64,
    gave_up: u64,
    /// Time the successful calls took, as the caller saw it, ms.
    success_ms: f64,
}

/// Eight workers hammer a one-slot gate through all three entries —
/// blocking `acquire_owned`, `try_acquire` and `acquire_timeout(1ms)` —
/// so admissions keep crossing between the lock-free entry and the
/// queue. Phase one holds the bound at 1; in phase two a controller
/// flaps it between 0 and 3, and timed waiters give up mid-queue. Each phase runs under a watchdog, so a lost
/// wakeup fails the test instead of hanging it.
#[test]
fn fast_and_queued_paths_hand_off_without_loss() {
    const WORKERS: usize = 8;
    const OPS: u64 = 400;
    const WATCHDOG: Duration = Duration::from_secs(60);

    let gate = Arc::new(AdaptiveGate::new(1));
    let mut totals = HandOff::default();
    for (phase, flap) in [(1, false), (2, true)] {
        let ceiling = if flap { 3 } else { 1 };
        let concurrent = Arc::new(AtomicI64::new(0));
        let peak = Arc::new(AtomicI64::new(0));
        let flapping = Arc::new(AtomicBool::new(flap));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let gate = Arc::clone(&gate);
                let concurrent = Arc::clone(&concurrent);
                let peak = Arc::clone(&peak);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    let mut tally = HandOff::default();
                    let hold = |tally: &mut HandOff, started: std::time::Instant| {
                        tally.success_ms += started.elapsed().as_secs_f64() * 1000.0;
                        let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        concurrent.fetch_sub(1, Ordering::SeqCst);
                    };
                    for i in 0..OPS {
                        let started = std::time::Instant::now();
                        match (w as u64 + i) % 3 {
                            0 => {
                                let permit = gate.acquire_owned();
                                tally.owned += 1;
                                hold(&mut tally, started);
                                drop(permit);
                            }
                            1 => {
                                if let Some(permit) = gate.try_acquire() {
                                    tally.tried += 1;
                                    hold(&mut tally, started);
                                    drop(permit);
                                }
                            }
                            _ => {
                                if let Some(permit) = gate.acquire_timeout(Duration::from_millis(1))
                                {
                                    tally.timed += 1;
                                    hold(&mut tally, started);
                                    drop(permit);
                                } else {
                                    tally.gave_up += 1;
                                }
                            }
                        }
                    }
                    let _ = done_tx.send(());
                    tally
                })
            })
            .collect();
        drop(done_tx);
        let flapper = {
            let gate = Arc::clone(&gate);
            let flapping = Arc::clone(&flapping);
            std::thread::spawn(move || {
                // Closed spells outlast the 1 ms patience, so timed
                // waiters abandon from inside a live queue.
                while flapping.load(Ordering::SeqCst) {
                    gate.set_limit(0);
                    std::thread::sleep(Duration::from_micros(1500));
                    gate.set_limit(3);
                    std::thread::sleep(Duration::from_micros(300));
                }
            })
        };
        for _ in 0..WORKERS {
            if done_rx.recv_timeout(WATCHDOG).is_err() {
                panic!(
                    "phase {phase}: workers stalled for {WATCHDOG:?} \
                     (a lost wakeup?); gate {:?}",
                    gate.stats()
                );
            }
        }
        flapping.store(false, Ordering::SeqCst);
        flapper.join().unwrap();
        gate.set_limit(1);
        for w in workers {
            let t = w.join().unwrap();
            totals.owned += t.owned;
            totals.tried += t.tried;
            totals.timed += t.timed;
            totals.gave_up += t.gave_up;
            totals.success_ms += t.success_ms;
        }
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= ceiling,
            "phase {phase}: {peak} holders under a limit of at most {ceiling}"
        );
    }

    let stats = gate.stats();
    assert_eq!(stats.in_use, 0);
    assert_eq!(stats.waiting, 0);
    assert_eq!(
        stats.total_admitted,
        totals.owned + totals.tried + totals.timed,
        "admissions on the lock-free entry and the queue must both count"
    );
    assert_eq!(stats.total_abandoned, totals.gave_up);
    // The mean is over all admissions: the gate's waits sum to at most
    // what the successful callers measured around their calls.
    assert!(stats.mean_wait_ms.is_finite() && stats.mean_wait_ms > 0.0);
    assert!(
        stats.mean_wait_ms * stats.total_admitted as f64 <= totals.success_ms + 1e-9,
        "mean wait {} ms over {} admissions exceeds the {} ms callers waited",
        stats.mean_wait_ms,
        stats.total_admitted,
        totals.success_ms
    );
}
