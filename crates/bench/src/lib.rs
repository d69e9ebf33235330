//! Shared helpers for the experiment binaries (`src/bin/e*.rs`) and the
//! criterion micro-benchmarks (`benches/`).
//!
//! Every experiment binary prints:
//!
//! 1. a header naming the experiment and the paper claim it reproduces;
//! 2. one or more [`zmail_sim::Table`]s with the measured rows;
//! 3. a `shape:` line stating whether the qualitative claim held;
//! 4. with `--metrics [human|json|prom]`, a telemetry section rendered
//!    from the global [`zmail_obs`] registry.
//!
//! The [`Report`] guard bundles 1, 3 and 4: construct it first thing in
//! `main`, call [`Report::finish`] last. The registry stays disabled (and
//! every instrumented hot path stays at one relaxed atomic load) unless
//! the flag is present.
//!
//! `EXPERIMENTS.md` records one run of each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints the standard experiment header.
pub fn header(id: &str, claim: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// Prints the closing shape verdict.
pub fn shape(held: bool, description: &str) {
    println!(
        "\nshape: {} — {description}",
        if held { "HOLDS" } else { "DOES NOT HOLD" }
    );
}

/// Output format for the `--metrics` telemetry section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Aligned, human-readable table ([`zmail_obs::export::human`]).
    Human,
    /// One JSON object per line ([`zmail_obs::export::json_lines`]).
    Json,
    /// Prometheus text exposition ([`zmail_obs::export::prometheus`]).
    Prom,
}

/// Parses a `--metrics [human|json|prom]` argument for the experiment
/// binaries. Returns `None` when the flag is absent (telemetry off — the
/// default). A bare `--metrics` means [`MetricsFormat::Human`]; an
/// unrecognised format falls back to human with a warning.
pub fn parse_metrics() -> Option<MetricsFormat> {
    parse_metrics_from(std::env::args().skip(1))
}

/// Flag parsing behind [`parse_metrics`], split out for testing. Accepts
/// both `--metrics fmt` and `--metrics=fmt`.
pub fn parse_metrics_from(args: impl IntoIterator<Item = String>) -> Option<MetricsFormat> {
    fn decode(value: &str) -> Option<MetricsFormat> {
        match value {
            "human" => Some(MetricsFormat::Human),
            "json" => Some(MetricsFormat::Json),
            "prom" => Some(MetricsFormat::Prom),
            _ => None,
        }
    }
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if arg == "--metrics" {
            // The format operand is optional: `--metrics --threads 4`
            // must not eat `--threads` as a format name.
            let value = match args.peek() {
                Some(next) if !next.starts_with("--") => args.next(),
                _ => None,
            };
            return Some(match value.as_deref() {
                Some(v) => decode(v).unwrap_or_else(|| {
                    eprintln!("--metrics: unknown format {v:?}; using human");
                    MetricsFormat::Human
                }),
                None => MetricsFormat::Human,
            });
        }
        if let Some(value) = arg.strip_prefix("--metrics=") {
            return Some(decode(value).unwrap_or_else(|| {
                eprintln!("--metrics: unknown format {value:?}; using human");
                MetricsFormat::Human
            }));
        }
    }
    None
}

/// Experiment bracket: prints the header on construction, the shape
/// verdict plus (when `--metrics` was passed) the telemetry section on
/// [`finish`](Report::finish).
///
/// Constructing a `Report` with metrics requested enables the global
/// [`zmail_obs`] registry, so everything the run records — core ledger
/// counters, SMTP latency histograms, simulator queue depths, explorer
/// profiles — shows up in the final dump.
#[derive(Debug)]
pub struct Report {
    metrics: Option<MetricsFormat>,
}

impl Report {
    /// Prints the experiment header and arms telemetry when `--metrics`
    /// is on the command line.
    pub fn new(id: &str, claim: &str) -> Report {
        header(id, claim);
        let metrics = parse_metrics();
        if metrics.is_some() {
            zmail_obs::global().set_enabled(true);
        }
        Report { metrics }
    }

    /// Whether `--metrics` was requested (and the global registry armed).
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Prints the shape verdict and, when metrics were requested, the
    /// telemetry section: a `--- telemetry ---` marker line followed by
    /// *only* exporter output, so `json` stays machine-parseable with a
    /// `sed -n '/^--- telemetry ---$/,$p' | tail -n +2`.
    pub fn finish(self, held: bool, description: &str) {
        shape(held, description);
        let Some(format) = self.metrics else {
            return;
        };
        let snapshot = zmail_obs::global().snapshot();
        println!("\n--- telemetry ---");
        match format {
            MetricsFormat::Human => print!("{}", zmail_obs::export::human(&snapshot)),
            MetricsFormat::Json => print!("{}", zmail_obs::export::json_lines(&snapshot)),
            MetricsFormat::Prom => print!("{}", zmail_obs::export::prometheus(&snapshot)),
        }
    }
}

/// Records an explorer [`ExploreProfile`](zmail_ap::ExploreProfile) into
/// the global registry under `prefix`, one exploration phase per call:
///
/// * `<prefix>.states`, `<prefix>.wall_us` — counters;
/// * `<prefix>.levels`, `<prefix>.states_per_sec`, `<prefix>.threads` —
///   gauges;
/// * `<prefix>.frontier` — histogram of per-level BFS frontier sizes.
pub fn record_explore_profile(prefix: &str, profile: &zmail_ap::ExploreProfile) {
    let registry = zmail_obs::global();
    registry
        .counter(&format!("{prefix}.states"))
        .add(profile.states_visited as u64);
    registry
        .counter(&format!("{prefix}.wall_us"))
        .add(profile.wall.as_micros().min(u128::from(u64::MAX)) as u64);
    registry
        .gauge(&format!("{prefix}.levels"))
        .set(profile.level_sizes.len() as i64);
    registry
        .gauge(&format!("{prefix}.states_per_sec"))
        .set(profile.states_per_sec() as i64);
    registry
        .gauge(&format!("{prefix}.threads"))
        .set(profile.threads as i64);
    let frontier = registry.histogram(&format!("{prefix}.frontier"));
    for &size in &profile.level_sizes {
        frontier.record(size as u64);
    }
}

/// Formats a float with engineering-friendly precision.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1_000_000.0 {
        format!("{:.2e}", x)
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.5}")
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Parses a `--threads N` argument for the experiment binaries.
///
/// Returns `1` (sequential) when the flag is absent; `0` means "use all
/// available cores" (resolved inside the explorer). Accepts both
/// `--threads N` and `--threads=N`.
pub fn parse_threads() -> usize {
    parse_threads_from(std::env::args().skip(1))
}

/// Flag parsing behind [`parse_threads`], split out for testing.
pub fn parse_threads_from(args: impl IntoIterator<Item = String>) -> usize {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            if let Some(value) = args.next() {
                if let Ok(n) = value.parse() {
                    return n;
                }
            }
            eprintln!("--threads expects a number; using 1");
            return 1;
        }
        if let Some(value) = arg.strip_prefix("--threads=") {
            if let Ok(n) = value.parse() {
                return n;
            }
            eprintln!("--threads expects a number; using 1");
            return 1;
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.00123), "0.00123");
        assert_eq!(fmt(4.56789), "4.57");
        assert_eq!(fmt(12345.0), "12345");
        assert_eq!(fmt(2.5e7), "2.50e7");
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.125), "12.50%");
    }

    #[test]
    fn threads_flag_forms() {
        let parse = |args: &[&str]| parse_threads_from(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), 1);
        assert_eq!(parse(&["--threads", "4"]), 4);
        assert_eq!(parse(&["--threads=8"]), 8);
        assert_eq!(parse(&["--threads", "0"]), 0);
        assert_eq!(parse(&["--threads", "bogus"]), 1);
        assert_eq!(parse(&["--other", "--threads", "2"]), 2);
    }

    #[test]
    fn metrics_flag_forms() {
        let parse = |args: &[&str]| parse_metrics_from(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), None);
        assert_eq!(parse(&["--metrics"]), Some(MetricsFormat::Human));
        assert_eq!(parse(&["--metrics", "human"]), Some(MetricsFormat::Human));
        assert_eq!(parse(&["--metrics", "json"]), Some(MetricsFormat::Json));
        assert_eq!(parse(&["--metrics=prom"]), Some(MetricsFormat::Prom));
        assert_eq!(parse(&["--metrics", "bogus"]), Some(MetricsFormat::Human));
        // A following flag is not swallowed as the format operand.
        assert_eq!(
            parse(&["--metrics", "--threads", "4"]),
            Some(MetricsFormat::Human)
        );
        assert_eq!(
            parse(&["--threads", "4", "--metrics", "json"]),
            Some(MetricsFormat::Json)
        );
    }

    #[test]
    fn explore_profile_records_under_prefix() {
        let (_, profile) = zmail_core::spec::check_with_profiled(
            zmail_core::spec::SpecParams::default(),
            100_000,
            1,
        );
        zmail_obs::global().set_enabled(true);
        record_explore_profile("test_profile", &profile);
        let snap = zmail_obs::global().snapshot();
        assert_eq!(
            snap.counters["test_profile.states"],
            profile.states_visited as u64
        );
        assert_eq!(
            snap.histograms["test_profile.frontier"].count,
            profile.level_sizes.len() as u64
        );
        assert_eq!(
            snap.gauges["test_profile.levels"],
            profile.level_sizes.len() as i64
        );
    }
}
