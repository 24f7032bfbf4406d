//! Small helpers shared by every workload: timing, order statistics,
//! peak memory, digests and a minimal JSON writer.

use std::fmt::Write as _;
use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// Times one block of `per_block` calls of `f`, spread over `threads`
/// threads as the passes are, and returns one call's result with the
/// block's seconds. One set-up takes well under a millisecond on some
/// workloads, too short to time steadily; a block of many does not.
pub fn setup_block<T: Send>(
    per_block: usize,
    threads: usize,
    f: impl Fn() -> Result<T, String> + Sync,
) -> Result<(T, f64), String> {
    let threads = threads.max(1);
    let per_thread = per_block.div_ceil(threads).max(1);
    let t = Instant::now();
    let results: Vec<Result<T, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut last = f()?;
                    for _ in 1..per_thread {
                        last = f()?;
                    }
                    Ok(last)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let block_s = secs(t);
    let mut last = None;
    for r in results {
        last = Some(r?);
    }
    Ok((last.expect("at least one thread"), block_s))
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// First and third quartiles the way Python's
/// `statistics.quantiles(xs, n=4)` computes them (the "exclusive"
/// method), so recorded spreads match the acceptance arithmetic.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // CPython: j = i·m // 4 clamped to 1..n-1, delta = i·m − 4j, value
    // = (v[j-1]·(4 − delta) + v[j]·delta) / 4 with m = n + 1.
    let at = |i: usize| {
        let im = (i * (n + 1)) as i64;
        let j = (im / 4).clamp(1, n as i64 - 1);
        let delta = (im - 4 * j) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

fn rusage() -> Option<Rusage> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut u = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a properly aligned, writable struct with the
    // layout of `struct rusage` on 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut u) };
    (rc == 0).then_some(u)
}

/// Peak resident set of this process so far, in MB (`ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    rusage().map_or(0.0, |u| u.maxrss as f64 / 1024.0)
}

/// A 64-bit FNV-1a digest: order-sensitive and stable across builds, so
/// two commits can compare simulated statistics exactly.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a value's `Debug` rendering in (f64s render as their
    /// shortest round-trip form, so equal renderings mean equal bits).
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Derives a sub-seed from the benchmark seed and a label (splitmix64
/// over an FNV digest of the label).
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(label.as_bytes());
    let mut z = seed ^ d.0;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x` (non-finite values, which no
/// metric should produce, print as 0 so the line stays valid JSON).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        String::from("0.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (1.5, 4.5));
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}

