//! Statistics and host probes shared by every workload.

use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank quantile of unsorted samples; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The level the fastest tenth of a run's rounds reach. Interference
/// from the host only ever adds time, and on the recording host it comes
/// and goes for seconds at a time: across ten runs the 10th percentile of
/// per-round times spread 0.04-0.08 where their median spread 0.08-0.16
/// (README, "Why the quiet decile"). Every gated timing is this
/// statistic of per-round values; every gated rate is [`quiet_rate`].
pub fn quiet(round_times: &[f64]) -> f64 {
    quantile(round_times, 0.10)
}

/// [`quiet`] for rates: the 90th percentile of per-round rates.
pub fn quiet_rate(round_rates: &[f64]) -> f64 {
    quantile(round_rates, 0.90)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Interquartile range over the median: the run-internal spread printed
/// beside repetition medians.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let mid = median(samples);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / mid
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to one of the CPUs it is allowed on (the highest-numbered). Returns
/// that CPU, or `None` when the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // room for 1024 CPUs, glibc's cpu_set_t
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread; the kernel writes only the mask.
    let rc = unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly the size passed and
    // names a CPU the thread was already allowed on.
    let rc = unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) };
    (rc == 0).then_some(word * 64 + bit)
}

/// Cumulative `(steal, total)` jiffies from the first line of
/// `/proc/stat`; the share between two readings is how much of the host
/// the hypervisor took away while the benchmark ran.
pub fn host_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0);
    let total = fields.iter().take(8).sum();
    (steal, total)
}

/// Times one operation and keeps the sample, in microseconds.
pub fn time_into<T>(samples_us: &mut Vec<f64>, op: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = op();
    samples_us.push(micros(start.elapsed()));
    out
}

/// Calls `round(0)`, `round(1)`, ... until `seconds` of wall clock are
/// spent: whole rounds only, and always at least one.
pub fn for_rounds(seconds: f64, mut round: impl FnMut(u64)) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut index = 0;
    loop {
        round(index);
        index += 1;
        if Instant::now() >= deadline {
            return;
        }
    }
}
