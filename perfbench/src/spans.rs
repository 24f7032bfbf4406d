//! In-memory span recording for the traced run.
//!
//! Each cell or worker records into its own [`Lane`]: a span per call
//! into a layer, with start, end and the enclosing span as parent. The
//! lanes are written out once the run ends, together with a self-time
//! table (a span's duration minus the part its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::util::json_str;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `tpsim.run_until`.
    pub name: &'static str,
    /// Index of the enclosing span in the same lane.
    pub parent: Option<usize>,
    /// Nanoseconds since the process's first span.
    pub start_ns: u64,
    /// End, same base; equal to `start_ns` while open.
    pub end_ns: u64,
}

/// The spans of one cell or worker.
#[derive(Debug, Default)]
pub struct Lane {
    /// Lane identifier (cell or worker).
    pub id: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// A lane shared with wrappers that the simulator owns.
pub type SharedLane = Arc<Mutex<Lane>>;

impl Lane {
    /// An empty lane.
    pub fn new(id: impl Into<String>) -> Self {
        Lane {
            id: id.into(),
            ..Lane::default()
        }
    }

    /// An empty lane behind a shared handle.
    pub fn shared(id: impl Into<String>) -> SharedLane {
        Arc::new(Mutex::new(Lane::new(id)))
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let t = now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: t,
            end_ns: t,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now_ns();
        }
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }
}

/// Opens a span on a shared lane.
pub fn open(lane: &SharedLane, name: &'static str) {
    lane.lock().expect("span lane lock poisoned").open(name);
}

/// Closes the innermost span on a shared lane.
pub fn close(lane: &SharedLane) {
    lane.lock().expect("span lane lock poisoned").close();
}

/// Unwraps a shared lane once every wrapper holding it is gone.
pub fn take(lane: SharedLane) -> Lane {
    Arc::try_unwrap(lane)
        .expect("every wrapper holding the lane was dropped")
        .into_inner()
        .expect("span lane lock poisoned")
}

/// Per-name totals: `(calls, total ns, self ns)`.
pub fn self_time(lanes: &[Lane]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for lane in lanes {
        let mut child_ns = vec![0u64; lane.spans.len()];
        for s in &lane.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in lane.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(*c);
        }
    }
    table
}

/// Renders the self-time table as aligned text.
pub fn render_self_time(lanes: &[Lane]) -> String {
    let mut out = format!(
        "{:<34} {:>9} {:>12} {:>12}\n",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, (calls, total, own)) in self_time(lanes) {
        let _ = writeln!(
            out,
            "{name:<34} {calls:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out
}

/// Writes every span as one JSON line: lane, id, parent, name, start
/// and end in ns.
pub fn write_jsonl(lanes: &[Lane], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::new();
    for lane in lanes {
        for (i, s) in lane.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"lane\":{},\"id\":{i},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json_str(&lane.id),
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
    }
    std::fs::write(path, out)
}
