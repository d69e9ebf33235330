//! Renderers for [`Snapshot`]s (human tables, JSON-lines, Prometheus
//! text exposition format) and [`SpanLog`]s (Chrome trace-event JSON).
//!
//! All JSON is emitted by hand — the workspace has no JSON dependency —
//! with full string escaping, one object per line so streams can be
//! processed with line-oriented tools. Every exporter is a pure function
//! of its snapshot, so identical snapshots render to identical bytes.

use crate::metrics::{HistogramSnapshot, Snapshot};
use crate::span::SpanLog;
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot as an aligned, human-readable table.
///
/// Counters and gauges print one per line; histograms get count, mean,
/// p50/p90/p99, and min/max. Returns the empty string for an empty
/// snapshot so callers can print unconditionally.
pub fn human(snap: &Snapshot) -> String {
    if snap.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let width = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(|k| k.len())
        .max()
        .unwrap_or(0);
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
    }
    for (name, h) in &snap.histograms {
        if h.count == 0 {
            let _ = writeln!(out, "  {name:<width$}  (no samples)");
            continue;
        }
        let _ = writeln!(
            out,
            "  {name:<width$}  n={} mean={:.1} p50={} p90={} p99={} p999={} min={} max={}",
            h.count,
            h.mean(),
            h.p50().unwrap_or(0),
            h.p90().unwrap_or(0),
            h.p99().unwrap_or(0),
            h.p999().unwrap_or(0),
            h.min,
            h.max,
        );
    }
    out
}

fn histogram_json(name: &str, h: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    for (i, (lower, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        let _ = write!(buckets, "[{lower},{n}]");
    }
    buckets.push(']');
    let quantiles = if h.count == 0 {
        String::from("\"p50\":null,\"p90\":null,\"p99\":null,\"p999\":null")
    } else {
        format!(
            "\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}",
            h.p50().unwrap_or(0),
            h.p90().unwrap_or(0),
            h.p99().unwrap_or(0),
            h.p999().unwrap_or(0)
        )
    };
    format!(
        "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},{},\"buckets\":{}}}",
        json_escape(name),
        h.count,
        h.sum,
        h.min,
        h.max,
        quantiles,
        buckets
    )
}

/// Renders a snapshot as JSON-lines: one self-describing JSON object per
/// line (`type` is `counter`, `gauge`, or `histogram`), names in sorted
/// order, trailing newline after every line.
pub fn json_lines(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(name)
        );
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(name)
        );
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "{}", histogram_json(name, h));
    }
    out
}

/// Sanitizes a metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots, dashes, and other invalid
/// characters become underscores.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Histograms emit cumulative `_bucket{le="..."}` series (the bound is
/// each stored bucket's lower bound), a `+Inf` bucket, and `_sum` /
/// `_count` series, matching what a Prometheus scraper expects.
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for &(lower, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{lower}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
        if h.count > 0 {
            // Precomputed tail quantile as an auxiliary series — scrape
            // pipelines without recording rules still get the p999 the
            // ROADMAP latency work reports on.
            let _ = writeln!(out, "{n}_p999 {}", h.p999().unwrap_or(0));
        }
    }
    out
}

/// Renders a [`SpanLog`] in the Chrome trace-event JSON format, loadable
/// in `chrome://tracing` / Perfetto.
///
/// Each span becomes a complete (`"ph":"X"`) event: `ts`/`dur` are the
/// span's sim-clock milliseconds scaled to microseconds (zero-length
/// spans such as group commits are widened to 1µs so they stay
/// clickable), `pid` maps the span's node (one "process" per ISP, bank,
/// WAL — named via `"M"` metadata events), and `tid` is the trace id, so
/// one message's lifecycle reads as one horizontal track. Span identity,
/// parentage, status, and detail ride in `args`.
///
/// If the recorder's ring overflowed, a synthetic instant event
/// (`"ph":"I"`) reports how many spans were lost instead of silently
/// truncating the timeline.
///
/// Like every exporter here this is a pure function of its input:
/// identical span logs render to identical bytes.
pub fn chrome_trace(log: &SpanLog) -> String {
    let mut nodes: Vec<&str> = log.spans.iter().map(|s| s.node.as_ref()).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let pid_of = |node: &str| nodes.binary_search(&node).map_or(0, |i| i + 1);

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for (i, node) in nodes.iter().enumerate() {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                json_escape(node)
            ),
        );
    }
    for s in &log.spans {
        let parent = s.parent.map_or(String::from("null"), |p| p.0.to_string());
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"zmail\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"status\":\"{}\",\"detail\":\"{}\"}}}}",
                json_escape(s.phase),
                pid_of(s.node.as_ref()),
                s.trace.0,
                s.start * 1000,
                (s.duration() * 1000).max(1),
                s.trace.0,
                s.span.0,
                parent,
                s.status.label(),
                json_escape(&s.detail)
            ),
        );
    }
    if log.dropped > 0 {
        let ts = log.spans.first().map_or(0, |s| s.start * 1000);
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"ring overflowed, {} spans lost\",\"cat\":\"zmail\",\"ph\":\"I\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{ts}}}",
                log.dropped
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::FlightRecorder;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("core.transfers.local").add(3);
        r.gauge("sim.queue_depth").set(-2);
        let h = r.histogram("smtp.parse_us");
        h.record(1);
        h.record(9);
        h.record(9);
        r.snapshot()
    }

    #[test]
    fn human_golden() {
        let got = human(&sample_snapshot());
        let want = concat!(
            "  core.transfers.local  3\n",
            "  sim.queue_depth       -2\n",
            "  smtp.parse_us         n=3 mean=6.3 p50=9 p90=9 p99=9 p999=9 min=1 max=9\n",
        );
        assert_eq!(got, want);
    }

    #[test]
    fn human_empty_is_empty() {
        assert_eq!(human(&Snapshot::default()), "");
    }

    #[test]
    fn json_lines_golden() {
        let got = json_lines(&sample_snapshot());
        let want = "\
{\"type\":\"counter\",\"name\":\"core.transfers.local\",\"value\":3}
{\"type\":\"gauge\",\"name\":\"sim.queue_depth\",\"value\":-2}
{\"type\":\"histogram\",\"name\":\"smtp.parse_us\",\"count\":3,\"sum\":19,\"min\":1,\"max\":9,\"p50\":9,\"p90\":9,\"p99\":9,\"p999\":9,\"buckets\":[[1,1],[9,2]]}
";
        assert_eq!(got, want);
        // Every line must be minimally well-formed JSON.
        for line in got.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
    }

    #[test]
    fn prometheus_golden() {
        let got = prometheus(&sample_snapshot());
        let want = "\
# TYPE core_transfers_local counter
core_transfers_local 3
# TYPE sim_queue_depth gauge
sim_queue_depth -2
# TYPE smtp_parse_us histogram
smtp_parse_us_bucket{le=\"1\"} 1
smtp_parse_us_bucket{le=\"9\"} 3
smtp_parse_us_bucket{le=\"+Inf\"} 3
smtp_parse_us_sum 19
smtp_parse_us_count 3
smtp_parse_us_p999 9
";
        assert_eq!(got, want);
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_golden() {
        let r = FlightRecorder::new(16);
        let root = r.begin_trace(2, "submit", "isp0", "to=1.3").unwrap();
        let wal = r.child(2, root, "wal_commit", "wal", "records=2").unwrap();
        r.end(2, wal);
        let d = r.child(2, root, "delivery", "isp1", "").unwrap();
        r.end(12, d);
        r.end(12, root);
        let got = chrome_trace(&r.drain());
        let want = "\
{\"traceEvents\":[
{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"isp0\"}},
{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"isp1\"}},
{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\",\"args\":{\"name\":\"wal\"}},
{\"name\":\"wal_commit\",\"cat\":\"zmail\",\"ph\":\"X\",\"pid\":3,\"tid\":0,\"ts\":2000,\"dur\":1,\"args\":{\"trace\":0,\"span\":1,\"parent\":0,\"status\":\"ok\",\"detail\":\"records=2\"}},
{\"name\":\"delivery\",\"cat\":\"zmail\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":2000,\"dur\":10000,\"args\":{\"trace\":0,\"span\":2,\"parent\":0,\"status\":\"ok\",\"detail\":\"\"}},
{\"name\":\"submit\",\"cat\":\"zmail\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":2000,\"dur\":10000,\"args\":{\"trace\":0,\"span\":0,\"parent\":null,\"status\":\"ok\",\"detail\":\"to=1.3\"}}
]}
";
        assert_eq!(got, want);
        // Structurally balanced JSON.
        assert_eq!(got.matches('{').count(), got.matches('}').count());
        assert_eq!(got.matches('[').count(), got.matches(']').count());
    }

    #[test]
    fn chrome_trace_reports_overflow() {
        let r = FlightRecorder::new(2);
        for i in 0..5u64 {
            let ctx = r.begin_trace(i, "submit", "isp0", "").unwrap();
            r.end(i, ctx);
        }
        let got = chrome_trace(&r.drain());
        assert!(
            got.contains(
                "\"name\":\"ring overflowed, 3 spans lost\",\"cat\":\"zmail\",\"ph\":\"I\""
            ),
            "{got}"
        );
    }

    #[test]
    fn empty_histogram_renders_null_quantiles() {
        let r = Registry::new();
        r.histogram("h");
        let got = json_lines(&r.snapshot());
        assert!(got.contains("\"p50\":null"), "{got}");
    }
}
