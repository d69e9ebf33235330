//! Criterion micro-benchmarks for the protocol hot paths: send, receive,
//! local delivery, user buy/sell, a full system step, and the event
//! queue under it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use zmail_core::isp::Isp;
use zmail_core::msg::NetMsg;
use zmail_core::{IspId, UserAddr, ZmailConfig, ZmailSystem};
use zmail_econ::EPennies;
use zmail_sim::workload::{MailKind, TrafficConfig, TrafficGenerator};
use zmail_sim::{EventQueue, Sampler, SimDuration, SimTime};

fn fresh_pair() -> (Isp, Isp) {
    let config = ZmailConfig::builder(2, 100)
        .limit(u32::MAX)
        .initial_balance(EPennies(i64::MAX / 4))
        .build();
    let bank = zmail_crypto::KeyPair::generate(&mut Sampler::new(1).rng().clone());
    (
        Isp::new(IspId(0), &config, *bank.public(), 1),
        Isp::new(IspId(1), &config, *bank.public(), 2),
    )
}

fn bench_send_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("isp");
    group.bench_function("send_remote_paid", |b| {
        let (mut isp, _) = fresh_pair();
        let mut user = 0u32;
        b.iter(|| {
            user = (user + 1) % 100;
            isp.send_email(user, UserAddr::new(1, user), MailKind::Personal)
                .unwrap()
        });
    });
    group.bench_function("send_local", |b| {
        let (mut isp, _) = fresh_pair();
        let mut user = 0u32;
        b.iter(|| {
            user = (user + 1) % 99;
            isp.send_email(user, UserAddr::new(0, user + 1), MailKind::Personal)
                .unwrap()
        });
    });
    group.bench_function("send_receive_roundtrip", |b| {
        let (mut sender, mut receiver) = fresh_pair();
        let mut user = 0u32;
        b.iter(|| {
            user = (user + 1) % 100;
            let outcome = sender
                .send_email(user, UserAddr::new(1, user), MailKind::Personal)
                .unwrap();
            if let zmail_core::SendOutcome::Outbound {
                msg: NetMsg::Email(email),
                ..
            } = outcome
            {
                receiver.receive_email(IspId(0), &email);
            }
        });
    });
    group.bench_function("user_buy_sell", |b| {
        let (mut isp, _) = fresh_pair();
        b.iter(|| {
            isp.user_buy(0, EPennies(10));
            isp.user_sell(0, EPennies(10));
        });
    });
    group.finish();
}

fn bench_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.sample_size(10);
    let traffic = TrafficConfig {
        isps: 2,
        users_per_isp: 50,
        horizon: SimDuration::from_days(1),
        personal_per_user_day: 10.0,
        ..TrafficConfig::default()
    };
    let trace = TrafficGenerator::new(traffic).generate(&mut Sampler::new(3));
    group.throughput(criterion::Throughput::Elements(trace.len() as u64));
    group.bench_function("run_one_day_trace", |b| {
        b.iter_batched(
            || ZmailSystem::new(ZmailConfig::builder(2, 50).build(), 3),
            |mut system| system.run_trace(&trace),
            BatchSize::LargeInput,
        );
    });
    group.bench_function("snapshot_round_2_isps", |b| {
        let mut system = ZmailSystem::new(ZmailConfig::builder(2, 50).build(), 4);
        system.run_trace(&trace);
        b.iter(|| system.run_snapshot_round());
    });
    group.finish();
}

/// Steady state at a fixed depth: pop the earliest event, schedule one up
/// to a second later; the payload is as large as `zmail-core`'s `Event`.
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for depth in [16u64, 1 << 10, 1 << 16] {
        group.bench_function(BenchmarkId::new("schedule_pop", depth), |b| {
            let mut rng = Sampler::new(depth);
            let mut delay = || SimDuration::from_millis(rng.uniform_range(0, 1_000));
            let mut queue = EventQueue::new();
            (0..depth).for_each(|i| queue.schedule(SimTime::ZERO + delay(), [i; 18]));
            b.iter(|| {
                let (now, payload) = queue.pop().expect("the depth is constant");
                queue.schedule(now + delay(), payload);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_send_paths, bench_system, bench_event_queue);
criterion_main!(benches);
