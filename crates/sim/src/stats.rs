//! Measurement primitives shared by the experiments.
//!
//! * [`Summary`] — streaming mean/variance/min/max (Welford);
//! * [`Quantiles`] — exact order statistics over an in-memory sample
//!   (streaming latency histograms live in `zmail_obs::Histogram`);
//! * [`Table`] — the aligned-column printer every `e*` experiment binary
//!   uses, so harness output is uniform and diffable.

use std::fmt;

/// Streaming summary statistics over `f64` observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

/// Exact small-sample quantiles over a finite set of observations.
///
/// When an experiment has the full sample in memory — per-user balance
/// drifts, per-incident latencies — exact order statistics are cheap and
/// preferable to a streaming, approximate histogram.
///
/// # Example
///
/// ```rust
/// use zmail_sim::stats::Quantiles;
///
/// let q = Quantiles::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
/// assert_eq!(q.quantile(0.5), 3.0);
/// assert_eq!(q.min(), 1.0);
/// assert_eq!(q.max(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Builds from an unordered sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "quantiles need at least one sample");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Quantiles { sorted: samples }
    }

    /// The exact value at quantile `q` (nearest-rank method).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("nonempty")
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction requires at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// An aligned-column text table used by the experiment binaries.
///
/// # Example
///
/// ```rust
/// use zmail_sim::Table;
///
/// let mut t = Table::new(&["price", "cost/msg", "breakeven"]);
/// t.row(&["$0.00", "0.0001", "0.00002%"]);
/// t.row(&["$0.01", "0.0101", "2.1%"]);
/// let rendered = t.render();
/// assert!(rendered.contains("price"));
/// assert!(rendered.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align all but the first column (numbers read better).
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_known_values() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn exact_quantiles_nearest_rank() {
        let q = Quantiles::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(0.5), 50.0);
        assert_eq!(q.quantile(0.99), 99.0);
        assert_eq!(q.quantile(1.0), 100.0);
        assert_eq!(q.len(), 100);
        assert_eq!(q.min(), 1.0);
        assert_eq!(q.max(), 100.0);
    }

    #[test]
    fn exact_quantiles_singleton() {
        let q = Quantiles::from_samples(vec![7.5]);
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(q.quantile(p), 7.5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn exact_quantiles_empty_panics() {
        Quantiles::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn exact_quantiles_nan_panics() {
        Quantiles::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["short", "1"]);
        t.row(&["a-much-longer-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width after alignment.
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }
}
