//! Criterion micro-benchmarks for the `zmail-obs` overhead claims: what
//! one counter increment, one histogram record, and one disabled-registry
//! no-op actually cost on the E11 hot path.
//!
//! The numbers these produce are quoted in `crates/obs/README.md`; rerun
//! with `cargo bench -p zmail-bench --bench obs` after touching the
//! recording paths.

use criterion::{criterion_group, criterion_main, Criterion};
use zmail_obs::Registry;

fn bench_obs(c: &mut Criterion) {
    let enabled = Registry::new();
    let disabled = Registry::disabled();

    let counter_on = enabled.counter("bench.counter");
    let counter_off = disabled.counter("bench.counter");
    c.bench_function("counter_inc_enabled", |b| {
        b.iter(|| counter_on.inc());
    });
    c.bench_function("counter_inc_disabled", |b| {
        b.iter(|| counter_off.inc());
    });

    let gauge_on = enabled.gauge("bench.gauge");
    c.bench_function("gauge_set_enabled", |b| {
        let mut v = 0i64;
        b.iter(|| {
            v = v.wrapping_add(1);
            gauge_on.set(v);
        });
    });

    let histogram_on = enabled.histogram("bench.histogram");
    let histogram_off = disabled.histogram("bench.histogram");
    c.bench_function("histogram_record_enabled", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram_on.record(v >> 40);
        });
    });
    c.bench_function("histogram_record_disabled", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram_off.record(v >> 40);
        });
    });

    c.bench_function("snapshot_small_registry", |b| {
        b.iter(|| enabled.snapshot());
    });
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
