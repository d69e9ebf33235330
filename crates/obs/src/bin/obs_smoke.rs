//! Smoke binary for the observability substrate: exercises the metrics
//! registry, the flight recorder, and all four exporters end-to-end, and
//! fails loudly (non-zero exit) if any invariant is violated. Run by
//! `scripts/ci.sh`.

use zmail_obs::{export, FlightRecorder, Registry};

fn main() {
    // --- metrics: counters, gauges, histograms across threads ---------
    let registry = Registry::new();
    let sends = registry.counter("smoke.sends");
    let depth = registry.gauge("smoke.queue_depth");
    let lat = registry.histogram("smoke.latency_us");

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let sends = sends.clone();
            let lat = lat.clone();
            scope.spawn(move || {
                for i in 0..25_000u64 {
                    sends.inc();
                    lat.record(t * 1000 + i % 997);
                }
            });
        }
    });
    depth.set(42);

    let snap = registry.snapshot();
    assert_eq!(snap.counters["smoke.sends"], 100_000, "lost increments");
    let h = &snap.histograms["smoke.latency_us"];
    assert_eq!(h.count, 100_000, "lost histogram samples");
    assert!(h.p50().is_some() && h.p99().is_some(), "quantiles missing");

    // Disabled registries must record nothing.
    let off = Registry::disabled();
    let dead = off.counter("smoke.dead");
    dead.inc();
    assert_eq!(dead.get(), 0, "disabled registry recorded");

    // Snapshot merge must add.
    let mut merged = snap.clone();
    merged.merge(&snap);
    assert_eq!(merged.counters["smoke.sends"], 200_000, "merge lost counts");
    assert_eq!(merged.histograms["smoke.latency_us"].count, 200_000);

    // --- tracing: deterministic sim-clock stamps + wraparound ---------
    let recorder = FlightRecorder::new(8);
    for ms in 0..22u64 {
        let ctx = recorder
            .begin_trace(ms, "smoke.tick", "smoke", "")
            .expect("sampling is 1/1");
        recorder.end(ms + 1, ctx);
    }
    let log = recorder.drain();
    assert_eq!(log.spans.len(), 8, "ring did not bound");
    assert_eq!(log.dropped, 14, "drop accounting wrong");

    // --- exporters ----------------------------------------------------
    let human = export::human(&snap);
    assert!(human.contains("smoke.sends"), "human export missing metric");

    let json = export::json_lines(&snap);
    for line in json.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed JSON line: {line}"
        );
    }
    assert!(json.contains("\"type\":\"histogram\""), "no histogram line");

    let prom = export::prometheus(&snap);
    assert!(
        prom.contains("# TYPE smoke_latency_us histogram"),
        "prometheus TYPE line missing"
    );
    assert!(
        prom.contains("smoke_latency_us_bucket{le=\"+Inf\"} 100000"),
        "prometheus +Inf bucket missing"
    );

    let trace = export::chrome_trace(&log);
    assert_eq!(trace.matches("\"ph\":\"X\"").count(), 8, "span events");
    assert!(
        trace.contains("ring overflowed, 14 spans lost"),
        "chrome trace hides the overflow"
    );

    println!("obs smoke: metrics + tracing + 4 exporters OK");
    println!("--- human ---\n{human}");
    println!("--- json-lines ---\n{json}");
    println!("--- prometheus ---\n{prom}");
}
