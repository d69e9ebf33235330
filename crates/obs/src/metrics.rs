//! The metrics registry: lock-free counters, gauges, and fixed-bucket
//! log-scale histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** Recording into an enabled metric is one relaxed
//!    atomic RMW (plus one relaxed load for the enable check); recording
//!    into a disabled registry is a single relaxed load and a predictable
//!    branch. No locks, no allocation, no formatting.
//! 2. **Mergeability.** Handles are `Clone + Send + Sync` and share
//!    storage, so worker threads record into the same atomics with no
//!    merge step; [`Snapshot`]s additionally merge associatively for
//!    collect-then-combine designs.
//! 3. **Determinism.** A [`Snapshot`] holds only integers in `BTreeMap`s:
//!    two runs that perform the same recordings produce `==` snapshots,
//!    which is what the determinism guard tests assert.

use crate::held;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sub-buckets per power of two: values below `SUB` get exact buckets;
/// larger values land in buckets of relative width `1/SUB` (12.5%).
const SUB: u64 = 8;
/// `log2(SUB)`.
const SUB_BITS: u32 = 3;
/// Total fixed bucket count covering the whole `u64` range:
/// `SUB` exact buckets plus `SUB` per octave for octaves `SUB_BITS..=63`.
pub const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Maps a value to its histogram bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) - SUB) as usize;
    SUB as usize + group * SUB as usize + sub
}

/// The smallest value that lands in bucket `index` (the bucket's
/// "representative" reported by quantile queries).
#[inline]
fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let group = (index - SUB as usize) / SUB as usize;
    let sub = ((index - SUB as usize) % SUB as usize) as u64;
    (SUB + sub) << group
}

/// A monotonically increasing counter.
///
/// Clones share storage; increments from any thread are visible in every
/// clone and in snapshots of the owning [`Registry`].
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, occupancy).
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Shared histogram storage: fixed bucket array plus running aggregates.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>, // BUCKETS entries
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64, // u64::MAX when empty
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log-scale histogram over `u64` observations.
///
/// Values below 8 get exact buckets; above that, buckets are 12.5% wide,
/// so quantile estimates carry at most that relative error. All buckets
/// exist up front — recording never allocates — and the whole `u64` range
/// is covered (no saturation, no panics).
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value `v` at the cost of
    /// one: for a caller that tallied a run of equal samples itself.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 || !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let core = &*self.core;
        core.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        core.count.fetch_add(n, Ordering::Relaxed);
        core.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        core.min.fetch_min(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Snapshot of this histogram alone.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.core;
        let count = core.count.load(Ordering::Relaxed);
        let buckets = core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                core.min.load(Ordering::Relaxed)
            },
            max: core.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An immutable, exactly-comparable view of a [`Histogram`].
///
/// `buckets` holds `(bucket lower bound, count)` pairs for non-empty
/// buckets, in increasing value order. Because everything is integral,
/// snapshots of deterministic runs compare `==` byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (wrapping add on overflow).
    pub sum: u64,
    /// Smallest observation, `0` when empty.
    pub min: u64,
    /// Largest observation, `0` when empty.
    pub max: u64,
    /// `(bucket lower bound, count)` for every non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]` (nearest-rank over buckets,
    /// reported as the containing bucket's lower bound), or `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lower, n) in &self.buckets {
            seen += n;
            if rank <= seen {
                return Some(lower);
            }
        }
        Some(self.max)
    }

    /// Median shorthand.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 90th percentile shorthand.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.9)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile shorthand — the tail the ROADMAP's open-loop
    /// latency work reports on.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges `other` into `self`. Associative and commutative, so
    /// per-worker snapshots can be combined in any grouping.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(lower, n) in &other.buckets {
            *merged.entry(lower).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// What a registry holds under one name.
#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics.
///
/// Handles returned by [`Registry::counter`] / [`Registry::gauge`] /
/// [`Registry::histogram`] stay valid for the registry's lifetime and are
/// cheap to clone; registration is idempotent (re-asking for a name
/// returns a handle to the same storage). The registry-wide enable flag
/// is observed by every handle: a disabled registry reduces all
/// instrumentation to one relaxed load per call site.
#[derive(Debug, Clone)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    slots: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            slots: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Creates a disabled registry (all recording is a cheap no-op until
    /// [`Registry::set_enabled`] turns it on).
    pub fn disabled() -> Self {
        let r = Self::new();
        r.set_enabled(false);
        r
    }

    /// Turns recording on or off for every handle of this registry.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently on. Instrumentation that must pay a
    /// setup cost before recording (e.g. reading a wall clock) should
    /// check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The slot registered under `name`, made by `new` if there is none.
    /// A clone, so a caller that finds the wrong kind panics with the
    /// lock already released.
    fn slot(&self, name: &str, new: impl FnOnce() -> Slot) -> Slot {
        held(self.slots.lock())
            .entry(name.to_string())
            .or_insert_with(new)
            .clone()
    }

    /// Returns the counter registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let new = || {
            Slot::Counter(Counter {
                enabled: Arc::clone(&self.enabled),
                value: Arc::new(AtomicU64::new(0)),
            })
        };
        match self.slot(name, new) {
            Slot::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let new = || {
            Slot::Gauge(Gauge {
                enabled: Arc::clone(&self.enabled),
                value: Arc::new(AtomicI64::new(0)),
            })
        };
        match self.slot(name, new) {
            Slot::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram registered under `name`, creating it if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let new = || {
            Slot::Histogram(Histogram {
                enabled: Arc::clone(&self.enabled),
                core: Arc::new(HistogramCore::new()),
            })
        };
        match self.slot(name, new) {
            Slot::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Captures the current value of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let slots = held(self.slots.lock());
        let mut snap = Snapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Zeroes every registered metric (handles stay valid).
    pub fn reset(&self) {
        let slots = held(self.slots.lock());
        for slot in slots.values() {
            match slot {
                Slot::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Slot::Gauge(g) => g.value.store(0, Ordering::Relaxed),
                Slot::Histogram(h) => {
                    for b in &h.core.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.core.count.store(0, Ordering::Relaxed);
                    h.core.sum.store(0, Ordering::Relaxed);
                    h.core.min.store(u64::MAX, Ordering::Relaxed);
                    h.core.max.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

/// An exact, order-stable capture of a registry's metrics.
///
/// Everything is integral and stored in `BTreeMap`s, so two snapshots of
/// identical recordings are `==` — the property the determinism guard
/// tests and the exporter golden files rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Whether nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise. Associative and commutative, so per-worker
    /// snapshots can be folded in any grouping.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

/// The process-wide registry, **created disabled**.
///
/// Library instrumentation (core ledger, SMTP server, sim engine) records
/// here so binaries need no plumbing; until something calls
/// `global().set_enabled(true)` — the bench harness does on `--metrics` —
/// every site costs one relaxed load.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::disabled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_exact_below_sub() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_inverse_of_index() {
        // The lower bound of a value's bucket maps back to the same bucket,
        // and the value never falls below its bucket's lower bound.
        for &v in &[
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            100,
            1_000,
            12_345,
            1 << 32,
            (1 << 32) + 12_345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let lower = bucket_lower_bound(i);
            assert_eq!(bucket_index(lower), i, "v = {v}");
            assert!(lower <= v, "v = {v} below its bucket bound {lower}");
            // Relative width bound: the next bucket starts within 12.5%.
            if v >= SUB && i + 1 < BUCKETS {
                let next = bucket_lower_bound(i + 1);
                assert!(next > v, "v = {v} not inside bucket [{lower}, {next})");
                assert!(
                    (next - lower) * SUB <= lower.saturating_mul(2),
                    "bucket [{lower}, {next}) wider than 2/SUB of its base"
                );
            }
        }
    }

    #[test]
    fn bucket_indices_are_monotonic() {
        let mut values: Vec<u64> = (0..64)
            .flat_map(|shift| {
                let v = 1u64 << shift;
                [v.saturating_sub(1), v, v + 1, v.saturating_add(v / 2)]
            })
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        // Re-registration returns the same storage.
        assert_eq!(r.counter("c").get(), 5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.inc();
        h.record(5);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        r.set_enabled(true);
        c.inc();
        h.record(5);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_collision_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn one_panic_does_not_take_every_metric_with_it() {
        let r = Registry::new();
        r.counter("x").inc();
        // The kind check fires with the lock already released...
        let clash = r.clone();
        std::thread::spawn(move || clash.gauge("x"))
            .join()
            .expect_err("a kind collision panics");
        assert!(!r.slots.is_poisoned());
        r.counter("x").inc();
        assert_eq!(r.snapshot().counters["x"], 2);
        // ...and a lock that some other panic did poison is looked through.
        let poisoner = r.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.slots.lock();
            panic!("under the registry lock");
        })
        .join()
        .expect_err("the poisoner panics");
        assert!(r.slots.is_poisoned());
        r.counter("x").inc();
        r.gauge("g").set(4);
        r.histogram("h").record(9);
        let snap = r.snapshot();
        assert_eq!((snap.counters["x"], snap.gauges["g"]), (3, 4));
        assert_eq!(snap.histograms["h"].count, 1);
        r.reset();
        assert_eq!(r.snapshot().counters["x"], 0);
    }

    #[test]
    fn histogram_empty_one_sample_and_saturating() {
        let r = Registry::new();
        let h = r.histogram("h");
        let empty = h.snapshot();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.min, 0);
        assert_eq!(empty.max, 0);

        h.record(42);
        let one = h.snapshot();
        assert_eq!(one.count, 1);
        assert_eq!((one.min, one.max), (42, 42));
        for q in [0.0, 0.5, 1.0] {
            let v = one.quantile(q).unwrap();
            assert!(v <= 42 && 42 <= bucket_lower_bound(bucket_index(42) + 1));
        }

        h.record(u64::MAX); // top bucket, no overflow or panic
        let two = h.snapshot();
        assert_eq!(two.count, 2);
        assert_eq!(two.max, u64::MAX);
        assert_eq!(two.quantile(1.0), Some(bucket_lower_bound(BUCKETS - 1)));
    }

    #[test]
    fn record_n_equals_n_records() {
        let r = Registry::new();
        let (one_by_one, run) = (r.histogram("a"), r.histogram("b"));
        for (v, n) in [(256, 5), (3, 1), (1 << 40, 64), (9, 0)] {
            for _ in 0..n {
                one_by_one.record(v);
            }
            run.record_n(v, n);
        }
        assert_eq!(run.snapshot(), one_by_one.snapshot());
        assert_eq!(run.snapshot().count, 70);
    }

    #[test]
    fn histogram_quantiles_bracket_true_values() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        let p50 = snap.p50().unwrap();
        assert!((430..=500).contains(&p50), "p50 = {p50}");
        let p99 = snap.p99().unwrap();
        assert!((860..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.sum, 500_500);
    }

    #[test]
    fn p999_is_nearest_rank() {
        let r = Registry::new();
        let h = r.histogram("lat");
        // 999 small samples and one huge outlier: nearest-rank p999 is
        // rank ceil(0.999 * 1000) = 999, i.e. still a small sample; the
        // outlier only surfaces at p100.
        for _ in 0..999 {
            h.record(10);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.p999(), Some(10));
        assert_eq!(
            snap.quantile(1.0),
            Some(bucket_lower_bound(bucket_index(1_000_000)))
        );

        // With two outliers the 999th rank lands on the first of them.
        let h2 = r.histogram("lat2");
        for _ in 0..998 {
            h2.record(10);
        }
        h2.record(1_000_000);
        h2.record(1_000_000);
        let snap2 = h2.snapshot();
        assert_eq!(
            snap2.p999(),
            Some(bucket_lower_bound(bucket_index(1_000_000)))
        );
        // Empty histograms report no p999.
        assert_eq!(HistogramSnapshot::default().p999(), None);
    }

    #[test]
    fn snapshot_merge_adds() {
        let a_reg = Registry::new();
        a_reg.counter("c").add(2);
        a_reg.histogram("h").record(5);
        let b_reg = Registry::new();
        b_reg.counter("c").add(3);
        b_reg.counter("only_b").inc();
        b_reg.histogram("h").record(500);
        let mut a = a_reg.snapshot();
        let b = b_reg.snapshot();
        a.merge(&b);
        assert_eq!(a.counters["c"], 5);
        assert_eq!(a.counters["only_b"], 1);
        let h = &a.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (5, 500));
    }

    #[test]
    fn cross_thread_recording_is_lossless() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 40_000);
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 40_000);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(7);
        h.record(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        c.inc();
        assert_eq!(r.snapshot().counters["c"], 1);
    }
}
