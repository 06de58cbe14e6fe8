//! Small shared pieces: a seeded generator, the order statistics the
//! metrics are defined by, the run environment and the result line.

use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every input is a pure
/// function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run so far, all its threads together.
/// On a virtual machine whose host accounts steal time to the guest, the
/// time the host runs something else on the vCPU is not counted, so this
/// clock does not stretch when the host is busy, as wall time does.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// What one measured piece of work took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Took {
    /// CPU seconds of the whole process (every thread that worked on it:
    /// client, server workers, coordinator threads).
    pub cpu: f64,
    /// Wall seconds.
    pub wall: f64,
}

impl std::ops::AddAssign for Took {
    fn add_assign(&mut self, o: Took) {
        self.cpu += o.cpu;
        self.wall += o.wall;
    }
}

/// A started measurement of both clocks.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { wall: Instant::now(), cpu: cpu_now() }
    }

    pub fn read(&self) -> Took {
        Took { cpu: cpu_now() - self.cpu, wall: secs(self.wall) }
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, in per mille: the value at rank
/// `ceil(permille/1000 * n)` (integer arithmetic, so p99.9 of 10 000
/// samples is exactly rank 9 990).
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), permille) - 1]
}

fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The percentiles the tail metric may report, in per mille, highest
/// first: p95, p90, p75, p50. Nothing above p95: on a shared two-vCPU
/// host p99 of a few thousand requests measures the host's worst
/// seconds more than the program (it spread by a fifth from run to run
/// in `cluster`).
pub const TAIL_LADDER: [usize; 4] = [950, 900, 750, 500];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile for `n` samples, in per mille: the highest of
/// [`TAIL_LADDER`] with at least [`TAIL_BEYOND`] samples beyond its
/// rank. Below 40 samples no percentile above the median qualifies, and
/// the median is reported.
pub fn tail_permille(n: usize) -> usize {
    TAIL_LADDER.into_iter().find(|&p| n - rank(n, p) >= TAIL_BEYOND).unwrap_or(500)
}

/// `(percentile, value)` of the tail metric over `values`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = tail_permille(values.len());
    (p as f64 / 10.0, percentile(values, p))
}

/// Geometric mean, over operation types, of each type's median latency.
/// `samples` holds `(type, latency)` pairs.
pub fn geomean_of_medians(samples: &[(usize, f64)], types: usize) -> f64 {
    let mut log_sum = 0.0;
    let mut present = 0;
    for t in 0..types {
        let lat: Vec<f64> = samples.iter().filter(|s| s.0 == t).map(|s| s.1).collect();
        if !lat.is_empty() {
            log_sum += median(&lat).ln();
            present += 1;
        }
    }
    (log_sum / present as f64).exp()
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Float comparison for aggregates: relative 1e-9 plus absolute 1e-6.
/// Summation order differs between a plan and a reference, so bitwise
/// equality is not expected; any real fault is many orders larger.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-6
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The final result line: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives
/// (non-finite values, which JSON cannot hold, become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restores the calling thread's CPU set when dropped.
pub struct Confined {
    saved: [u64; 16],
    pub cpu: Option<usize>,
}

/// Confines the calling thread, and every thread it starts from now on,
/// to the last CPU it may run on. `serve` and `cluster` start their
/// servers under it, so each request's client, server and coordinator
/// threads take turns on one CPU: the process CPU clock then holds all
/// of a request's work when the client reads it, as a thread's pending
/// run time on another CPU is not counted until that thread stops.
pub fn confine_to_one_cpu() -> Confined {
    let mut saved = [0u64; 16];
    // SAFETY: the mask buffers are valid for `size_of_val(&mask)` bytes;
    // a failed call leaves the affinity unchanged, which costs only
    // steadiness.
    let ok =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&saved), saved.as_mut_ptr()) } == 0;
    let cpu = if ok { (0..1024).rev().find(|&c| saved[c / 64] >> (c % 64) & 1 == 1) } else { None };
    if let Some(c) = cpu {
        let mut one = [0u64; 16];
        one[c / 64] = 1 << (c % 64);
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    }
    Confined { saved, cpu }
}

impl Drop for Confined {
    fn drop(&mut self) {
        if self.cpu.is_some() {
            // SAFETY: as in `confine_to_one_cpu`.
            unsafe {
                sched_setaffinity(0, std::mem::size_of_val(&self.saved), self.saved.as_ptr())
            };
        }
    }
}

/// The git commit of the checkout, when the working directory is the
/// root of a git work tree (git is not run otherwise, so it never looks
/// above the checkout).
pub fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // Below forty samples only the median qualifies.
        for n in 1..40 {
            assert_eq!(tail_permille(n), 500, "n={n}");
        }
        assert_eq!(tail_permille(40), 750);
        assert_eq!(tail_permille(99), 750);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(199), 900);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(1000), 950);
        assert_eq!(tail_permille(10_000), 950);
        for n in 20..20_000 {
            let p = tail_permille(n);
            if p > 500 {
                assert!(n - rank(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_value_is_the_nearest_rank_sample() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190; ten samples (191..=200) lie beyond.
        assert_eq!(tail(&v), (95.0, 190.0));
        let short: Vec<f64> = vec![5.0, 1.0, 3.0];
        assert_eq!(tail(&short), (50.0, 3.0));
    }

    #[test]
    fn geomean_uses_each_types_median() {
        // Type 0: median 2 (one outlier); type 1: median 8.
        let s = [(0, 1.0), (0, 2.0), (0, 1000.0), (1, 8.0), (1, 8.0)];
        assert!((geomean_of_medians(&s, 2) - 4.0).abs() < 1e-12);
        // A type with no samples is left out, not counted as zero.
        assert!((geomean_of_medians(&s, 3) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn close_tolerates_rounding_not_faults() {
        assert!(close(1.0e12, 1.0e12 + 1.0));
        assert!(!close(1.0e12, 1.0e12 + 1.0e4));
        assert!(close(0.0, 1e-7));
        assert!(!close(0.0, 1e-3));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        // Process-wide, so other tests running meanwhile only add to it;
        // a busy loop must move it forward.
        let w = Stopwatch::start();
        let mut x = 1u64;
        while w.read().cpu < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(3));
            assert!(w.read().wall < 10.0, "the CPU clock did not advance");
        }
        let mut sum = Took::default();
        sum += w.read();
        sum += Took { cpu: 1.0, wall: 2.0 };
        assert!(sum.cpu >= 1.02 && sum.wall >= 2.0, "{sum:?}");
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
