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
use zmail_store::Books;

/// Two ISPs of 100 users each, and their books.
fn fresh_pair() -> (Isp, Isp, Books) {
    let config = ZmailConfig::builder(2, 100)
        .limit(u32::MAX)
        .initial_balance(EPennies(i64::MAX / 4))
        .build();
    let bank = zmail_crypto::KeyPair::generate(&mut Sampler::new(1).rng().clone());
    (
        Isp::new(IspId(0), &config, *bank.public(), 1),
        Isp::new(IspId(1), &config, *bank.public(), 2),
        config.initial_books(),
    )
}

fn bench_send_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("isp");
    group.bench_function("send_remote_paid", |b| {
        let (mut isp, _, mut books) = fresh_pair();
        let mut user = 0u32;
        b.iter(|| {
            user = (user + 1) % 100;
            isp.send_email(&mut books, user, UserAddr::new(1, user), MailKind::Personal)
                .unwrap()
        });
    });
    group.bench_function("send_local", |b| {
        let (mut isp, _, mut books) = fresh_pair();
        let mut user = 0u32;
        b.iter(|| {
            user = (user + 1) % 99;
            isp.send_email(
                &mut books,
                user,
                UserAddr::new(0, user + 1),
                MailKind::Personal,
            )
            .unwrap()
        });
    });
    group.bench_function("send_receive_roundtrip", |b| {
        let (mut sender, mut receiver, mut books) = fresh_pair();
        let mut user = 0u32;
        b.iter(|| {
            user = (user + 1) % 100;
            let outcome = sender
                .send_email(&mut books, user, UserAddr::new(1, user), MailKind::Personal)
                .unwrap();
            if let zmail_core::SendOutcome::Outbound {
                msg: NetMsg::Email(email),
                ..
            } = outcome
            {
                receiver.receive_email(&mut books, IspId(0), &email);
            }
        });
    });
    group.bench_function("user_buy_sell", |b| {
        let (isp, _, mut books) = fresh_pair();
        b.iter(|| {
            isp.user_buy(&mut books, 0, EPennies(10));
            isp.user_sell(&mut books, 0, EPennies(10));
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
/// to a second later (`schedule_pop`, out of order: the queue's heap) or
/// exactly `depth` ms later (`schedule_pop_in_order`: its sorted run);
/// the payload is as large as `zmail-core`'s `Event`.
///
/// `two_streams_x1024` is the protocol world's shape: a day end and a billing
/// kickoff far ahead, and a workload send that schedules the next send
/// 10–100 ms on and its delivery 50 ms on, so sends and deliveries are
/// two interleaved in-order streams and the queue never holds more than
/// 8 events. An iteration pops 1,024 events, each scheduling what it
/// does, so the stub's clock read per iteration does not swamp them.
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("two_streams_x1024", |b| {
        const SEND: u64 = 0;
        const DELIVER: u64 = 1;
        let gaps: Vec<SimDuration> = {
            let mut rng = Sampler::new(44);
            (0..4096)
                .map(|_| SimDuration::from_millis(rng.uniform_range(10, 101)))
                .collect()
        };
        let mut gap = gaps.iter().cycle();
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, [SEND; 18]);
        let far = SimTime::ZERO + SimDuration::from_days(10_000);
        queue.schedule(far, [2; 18]);
        queue.schedule(far + SimDuration::from_days(1), [3; 18]);
        b.iter(|| {
            for _ in 0..1024 {
                let (now, payload) = queue.pop().expect("sends never stop");
                if payload[0] == SEND {
                    queue.schedule(now + *gap.next().expect("cycles"), payload);
                    queue.schedule(now + SimDuration::from_millis(50), [DELIVER; 18]);
                }
                debug_assert!(queue.len() <= 8);
            }
        });
    });
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
        // Every key at or after the last one: the whole queue is the
        // in-order run, and the heap stays empty.
        group.bench_function(BenchmarkId::new("schedule_pop_in_order", depth), |b| {
            let step = SimDuration::from_millis(depth);
            let mut queue = EventQueue::new();
            (0..depth).for_each(|i| queue.schedule(SimTime::from_millis(i), [i; 18]));
            b.iter(|| {
                let (now, payload) = queue.pop().expect("the depth is constant");
                queue.schedule(now + step, payload);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_send_paths, bench_system, bench_event_queue);
criterion_main!(benches);
