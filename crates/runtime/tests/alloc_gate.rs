//! Allocation gate: the runtime's admit/complete/tick fast path must be
//! zero-allocation after warm-up.
//!
//! This test binary installs a counting global allocator and drives
//! warmed-up [`ControlLoop`]s through admit → complete cycles with
//! periodic ticks, exactly as an embedding server would: a queueing
//! AIMD loop, and the shedding fixed-bound paper loop the benchmark
//! measures. After warm-up, *no* operation may touch the allocator: the
//! gate admits by one CAS on its packed word, telemetry accumulates into
//! fixed-size P² marker arrays, and both laws are pure arithmetic. (The JSONL gate-log sink is the
//! documented exception — logging buys bytes with allocations — so the
//! measured loop runs without one.)
//!
//! Kept as its own integration-test binary so the global allocator
//! cannot race with unrelated tests, and built with `harness = false`:
//! libtest's runner thread lazily allocates its parking state the first
//! time it blocks waiting on a test, which intermittently lands inside
//! the measurement window. A plain `main` keeps the process truly
//! single-threaded, so the counter sees only the workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alc_core::controller::FixedBound;
use alc_core::measure::PerfIndicator;
use alc_runtime::{AdmissionPolicy, AimdLaw, AimdParams, ControlLoop, Outcome, PaperLaw};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One batch of server-shaped work: admit, "run" (pure arithmetic),
/// complete with a mix of commits and aborts, tick every `tick_every`
/// cycles. The bound stays above 1 so admissions never park the thread
/// or shed.
fn churn(rt: &ControlLoop, ops: usize, tick_every: usize) {
    for i in 0..ops {
        let permit = rt.admit().expect("one worker never fills the gate");
        let response = 1.0 + (i * 31 % 89) as f64;
        let outcome = if i % 11 == 0 {
            Outcome::Abort {
                conflicts: (i % 3) as u64,
            }
        } else {
            Outcome::Commit {
                response_ms: response,
                conflicts: (i % 5 == 0) as u64,
            }
        };
        rt.complete(permit, outcome);
        if i % tick_every == tick_every - 1 {
            let d = rt.tick();
            assert!(d.bound >= 1);
        }
    }
}

const WARMUP_OPS: usize = 10_000;
const MEASURED_OPS: usize = 50_000;

/// Warms `rt` up, then counts the allocations of a measured churn.
fn steady_state_allocations(rt: &ControlLoop) -> u64 {
    churn(rt, WARMUP_OPS, 97);
    let before = allocations();
    churn(rt, MEASURED_OPS, 97);
    allocations() - before
}

fn main() {
    let queue = ControlLoop::new(
        Box::new(AimdLaw::new(AimdParams {
            initial_bound: 64,
            min_bound: 16,
            max_bound: 256,
            ..AimdParams::default()
        })),
        PerfIndicator::Throughput,
        AdmissionPolicy::Queue,
    );
    let shed = ControlLoop::new(
        Box::new(PaperLaw::new(Box::new(FixedBound::new(8)))),
        PerfIndicator::Throughput,
        AdmissionPolicy::Shed,
    );
    for (name, rt) in [("Queue/AIMD", &queue), ("Shed/PaperLaw(FixedBound)", &shed)] {
        let allocated = steady_state_allocations(rt);
        assert_eq!(
            allocated, 0,
            "{name}: admit/complete/tick fast path allocated {allocated} times over \
             {MEASURED_OPS} steady-state ops"
        );
    }
    println!("alloc_gate ok: admit/complete/tick fast path allocation-free (Queue and Shed)");
}
